//! Bit-identity of the matmul kernels against a naive reference.
//!
//! `Matrix::matmul` dispatches right operands up to 16 columns wide to
//! register-resident fixed-width kernels and wider ones to a general loop;
//! `Matrix::matmul_tn` computes `selfᵀ·other` without a transpose, several
//! output rows per register tile for the same widths. Every path must
//! produce exactly the fold written out below: ascending `k`, starting from
//! `0.0`, skipping exact zeros of the left operand, each step `acc += a · b`.
//! Both products run on AVX2 where the CPU has it, so on such a host these
//! tests check the AVX2 copy of every kernel, and the unit tests in
//! `matrix.rs` check the baseline copy on the same inputs.

use hqnn_tensor::{Matrix, SeededRng};
use proptest::prelude::*;

/// The reference fold, one output entry at a time.
fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                let x = a[(i, k)];
                if x == 0.0 {
                    continue;
                }
                acc += x * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// An explicit element-by-element transpose.
fn reference_transpose(a: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            t[(j, i)] = a[(i, j)];
        }
    }
    t
}

/// A `rows × cols` matrix mixing ordinary values with exact `0.0` and
/// `-0.0` (to hit the zero skip and the sign of an all-skipped sum) and,
/// when `special` is set, `±inf` and `NaN` (so a kernel that multiplied a
/// skipped zero would turn `0·inf` into a visible `NaN`).
fn mixed(rows: usize, cols: usize, special: bool, rng: &mut SeededRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        let pick = rng.uniform(0.0, 1.0);
        *v = if pick < 0.15 {
            0.0
        } else if pick < 0.25 {
            -0.0
        } else if special && pick < 0.28 {
            f64::INFINITY
        } else if special && pick < 0.31 {
            f64::NEG_INFINITY
        } else if special && pick < 0.33 {
            f64::NAN
        } else {
            rng.uniform(-3.0, 3.0)
        };
    }
    m
}

/// Equal bits, or both NaN: Rust leaves the payload of a NaN produced by
/// arithmetic unspecified, so only NaN-ness is a property of the fold.
fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: entry {i} is {g:e} ({:#x}), reference {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn matmul_matches_reference_bitwise(
        rows in 0usize..=9,
        inner in 0usize..=12,
        width in 1usize..=18,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = mixed(rows, inner, false, &mut rng);
        let b = mixed(inner, width, true, &mut rng);
        assert_same_bits(&a.matmul(&b), &reference_matmul(&a, &b), "matmul");
    }

    #[test]
    fn matmul_tn_matches_transpose_then_reference_bitwise(
        cols in 0usize..=9,
        batch in 0usize..=12,
        width in 1usize..=18,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let x = mixed(batch, cols, false, &mut rng);
        let g = mixed(batch, width, true, &mut rng);
        // A stale, wrongly shaped buffer: matmul_tn must reshape and
        // overwrite every entry.
        let mut out = Matrix::filled(3, 5, f64::NAN);
        x.matmul_tn(&g, &mut out);
        let want = reference_matmul(&reference_transpose(&x), &g);
        assert_same_bits(&out, &want, "matmul_tn");
    }

    #[test]
    fn matmul_tn_at_layer_zero_widths_matches_reference_bitwise(
        cols in 100usize..=120,
        batch in 1usize..=9,
        width in 1usize..=18,
        seed in 0u64..1_000_000,
    ) {
        // Layer 0's `dW = xᵀ·g` has 110 output rows: widths around it hit
        // every tile height's full tiles and each length of its tail.
        let mut rng = SeededRng::new(seed);
        let x = mixed(batch, cols, false, &mut rng);
        let g = mixed(batch, width, true, &mut rng);
        let mut out = Matrix::filled(2, 7, f64::NAN);
        x.matmul_tn(&g, &mut out);
        let want = reference_matmul(&reference_transpose(&x), &g);
        assert_same_bits(&out, &want, "matmul_tn");
    }
}

proptest! {
    // Fewer cases: a 1200-row product costs the naive reference ~2M steps.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_at_the_studys_shapes_matches_reference_bitwise(
        rows in prop_oneof![1usize..=9, Just(1200usize)],
        inner in 100usize..=120,
        width in 1usize..=18,
        seed in 0u64..1_000_000,
    ) {
        // A training batch (1–9 rows) or the 1200-row evaluation set
        // through a first dense layer of 100–120 inputs: every fixed width
        // and the general loop, and on the evaluation batch the row-parallel
        // branch whenever the thread budget allows it.
        let mut rng = SeededRng::new(seed);
        let a = mixed(rows, inner, false, &mut rng);
        let b = mixed(inner, width, true, &mut rng);
        assert_same_bits(&a.matmul(&b), &reference_matmul(&a, &b), "matmul");
    }

    #[test]
    fn input_gradient_product_matches_reference_bitwise(
        inner in 2usize..=16,
        width in 100usize..=120,
        seed in 0u64..1_000_000,
    ) {
        // A first dense layer's `dL/dx = g·Wᵀ`: an 8-row batch gradient
        // times a transposed weight 100–120 columns wide, which runs the
        // general loop.
        let mut rng = SeededRng::new(seed);
        let g = mixed(8, inner, false, &mut rng);
        let wt = mixed(inner, width, true, &mut rng);
        assert_same_bits(&g.matmul(&wt), &reference_matmul(&g, &wt), "g·Wᵀ");
    }
}
