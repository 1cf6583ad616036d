//! Property tests: the gate-major batch sweep is bitwise identical to the
//! per-row sequential loop — across random circuits up to 10 qubits, batch
//! sizes and thread budgets.
//!
//! The sweep changes *when* each gate touches each row's amplitudes, never
//! the FP operation sequence inside a row, so study JSON and training
//! curves are byte-identical to running every row through
//! [`Circuit::run`] on its own.

use hqnn_qsim::{Circuit, GateKind, Observable, ParamSource, StateVector};
use hqnn_tensor::Matrix;
use proptest::prelude::*;

/// Thread budgets exercised per case: sequential, even, and an odd count
/// that never divides chunk counts cleanly.
const THREADS: [usize; 3] = [1, 2, 7];

/// A random scenario that exercises every compiled sweep-step kind:
/// input-dependent encoding rotations (per-row steps), trainable rotations
/// and CNOT rings (shared steps), plus
/// optionally SWAPs and an input-driven controlled rotation.
fn scenario() -> impl Strategy<Value = (Circuit, Vec<f64>, Matrix)> {
    (
        2usize..=10,
        1usize..=2,
        0u8..3,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(n, depth, axis, use_swap, use_ctrl_input)| {
            let mut c = Circuit::new(n);
            for w in 0..n {
                c.rx(w, ParamSource::Input(w % 2));
            }
            if use_ctrl_input {
                c.controlled_rotation(GateKind::Crx, 0, 1, ParamSource::Input(0));
            }
            let mut slot = 0;
            for d in 0..depth {
                for w in 0..n {
                    let p = ParamSource::Trainable(slot);
                    slot += 1;
                    match (axis as usize + d + w) % 3 {
                        0 => c.rx(w, p),
                        1 => c.ry(w, p),
                        _ => c.rz(w, p),
                    }
                }
                for w in 0..n {
                    c.cnot(w, (w + 1) % n);
                }
                if use_swap {
                    c.swap(0, n - 1);
                }
            }
            c
        })
        .prop_flat_map(|c| {
            let n_params = c.trainable_count();
            let cols = c.input_count();
            let params = proptest::collection::vec(-3.0f64..3.0, n_params..=n_params.max(1));
            let batch = (1usize..=6).prop_flat_map(move |rows| {
                proptest::collection::vec(-2.0f64..2.0, rows * cols)
                    .prop_map(move |data| Matrix::from_vec(rows, cols, data))
            });
            (Just(c), params, batch)
        })
}

fn amp_bits(states: &[StateVector]) -> Vec<Vec<(u64, u64)>> {
    states
        .iter()
        .map(|s| {
            s.amplitudes()
                .iter()
                .map(|a| (a.re.to_bits(), a.im.to_bits()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn layouts_match_per_row_bitwise((c, params, x) in scenario()) {
        // Per-row reference: the sequential loop the gate-major sweep must
        // reproduce bit for bit.
        let reference: Vec<StateVector> =
            (0..x.rows()).map(|r| c.run(x.row(r), &params)).collect();
        let want = amp_bits(&reference);
        for threads in THREADS {
            let got = hqnn_runtime::with_threads(threads, || c.run_batch(&x, &params));
            prop_assert_eq!(&amp_bits(&got), &want, "threads={}", threads);
        }
    }

    #[test]
    fn expectations_agree_across_layouts_bitwise(
        (c, params, x) in scenario()
    ) {
        let obs: Vec<Observable> = (0..c.n_qubits()).map(Observable::z).collect();
        // Per-row reference: `Circuit::expectations` row by row, which
        // evaluates through the same `Observable::expectation_amps`.
        let want: Vec<u64> = (0..x.rows())
            .flat_map(|r| c.expectations(x.row(r), &params, &obs))
            .map(f64::to_bits)
            .collect();
        for threads in THREADS {
            let got = hqnn_runtime::with_threads(threads, || {
                c.expectations_batch(&x, &params, &obs)
            });
            prop_assert_eq!((got.rows(), got.cols()), (x.rows(), obs.len()));
            let got_bits: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got_bits, &want, "threads={}", threads);
        }
    }
}

/// Like [`amp_bits`], with both zeros mapped to `+0` and every NaN to one
/// value: a chunk whose input-fed lanes differ in matrix shape sweeps them
/// all with the general expression, which may flip the sign of an exact
/// zero amplitude but no other bit (DESIGN.md §9).
fn amp_bits_up_to_zero_sign(states: &[StateVector]) -> Vec<Vec<(u64, u64)>> {
    let canon = |v: f64| match v {
        _ if v.is_nan() => u64::MAX,
        _ if v == 0.0 => 0,
        _ => v.to_bits(),
    };
    states
        .iter()
        .map(|s| {
            s.amplitudes()
                .iter()
                .map(|a| (canon(a.re), canon(a.im)))
                .collect()
        })
        .collect()
}

#[test]
fn lane_edge_cases_match_per_row_runs() {
    // Chunks of 1, 3, 8 and 64 lanes (a 3-qubit chunk holds 64 rows) whose
    // input-fed plain and controlled rotations mix angles 0 (diagonal),
    // ±π and NaN (general) in one sweep.
    let pi = std::f64::consts::PI;
    let angles = [0.0, 0.7, pi, -pi, f64::NAN, -1.9, 0.0, 2.5, 1.2];
    let mut c = Circuit::new(3);
    c.rx(0, ParamSource::Input(0));
    c.ry(1, ParamSource::Input(1));
    c.rz(2, ParamSource::Input(0));
    c.controlled_rotation(GateKind::Crx, 0, 2, ParamSource::Input(1));
    c.cnot(2, 1);
    c.controlled_rotation(GateKind::Cry, 1, 0, ParamSource::Trainable(0));
    c.ry(2, ParamSource::Trainable(1));
    let params = [0.9, -2.1];
    let obs: Vec<Observable> = (0..3).map(Observable::z).collect();
    for rows in [1, 3, 8, 64] {
        let x = Matrix::from_vec(
            rows,
            2,
            (0..rows * 2)
                .map(|i| angles[(i / 2 * 5 + i % 2 * 3) % angles.len()])
                .collect(),
        );
        let reference: Vec<StateVector> = (0..rows).map(|r| c.run(x.row(r), &params)).collect();
        let want_exp: Vec<f64> = (0..rows)
            .flat_map(|r| c.expectations(x.row(r), &params, &obs))
            .collect();
        for threads in THREADS {
            let got = hqnn_runtime::with_threads(threads, || c.run_batch(&x, &params));
            assert_eq!(
                amp_bits_up_to_zero_sign(&got),
                amp_bits_up_to_zero_sign(&reference),
                "rows={rows} threads={threads}"
            );
            let exp =
                hqnn_runtime::with_threads(threads, || c.expectations_batch(&x, &params, &obs));
            for (i, (g, w)) in exp.as_slice().iter().zip(&want_exp).enumerate() {
                let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
                assert!(same, "rows={rows} threads={threads} [{i}]: {g} vs {w}");
            }
        }
    }
}
