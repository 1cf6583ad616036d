//! The gate kernels and the chunk sweeps over them, compiled as two sets.
//!
//! [`baseline`] is built for the x86-64 baseline target (SSE2, 2 f64
//! lanes); [`avx2`] is the same source with every function compiled for
//! AVX2 (4 lanes). One macro emits both from the kernel bodies in
//! [`crate::state`] and the sweep bodies on [`crate::Plan`], so no kernel
//! text exists twice. Each entry is a thin function that inlines its
//! whole body, and the sweeps call the kernels of their own set. The
//! kernel and sweep entries are `#[inline(never)]`, so both sets have the
//! same function boundaries: a `sweep` calls one `apply_single` per gate
//! and does not swallow every kernel into one function (left to itself,
//! LLVM inlines the AVX2 set's single-caller inner products into the
//! reverse sweep).
//! The closures the sweeps take are defined inside the entries, so they
//! are compiled for their set's target too.
//!
//! [`crate::Plan`] picks a set once per chunk: its `forward_chunk` and
//! `vjp_chunk` go through [`hqnn_runtime::simd`], which runs the AVX2 set
//! when the CPU has AVX2. Everything else — [`crate::StateVector`], the
//! batch and observable helpers and the single-row adjoint oracles —
//! calls [`baseline`] directly. Both sets return the same bits
//! (DESIGN.md §9).

use hqnn_tensor::Matrix;

use crate::gates::Matrix2;
use crate::observable::Observable;
use crate::plan::{Chunk, Plan, Work};

/// The arguments of a set's `forward_chunk`: `Plan::forward_chunk`'s.
type ForwardArgs<'a> = (
    &'a Plan,
    &'a [Matrix2],
    &'a Matrix,
    &'a [Observable],
    &'a mut Chunk,
);

/// The arguments of a set's `vjp_chunk`: `Plan::vjp_chunk`'s.
type VjpArgs<'a> = (
    &'a Plan,
    &'a [Matrix2],
    &'a Chunk,
    &'a [Observable],
    &'a Matrix,
    &'a mut Work,
);

/// Emits one kernel set. Its attributes go on every function of the set.
macro_rules! kernel_set {
    ($(#[$feature:meta])*) => {
        use hqnn_tensor::Matrix;

        use crate::batch_state::BatchState;
        use crate::circuit::Wires;
        use crate::gates::Matrix2;
        use super::{ForwardArgs, VjpArgs};
        use crate::plan::{Chunk, Plan, Work};
        use crate::state::{self, Mats};

        /// [`state::apply_single`] of this set.
        $(#[$feature])*
        #[inline(never)]
        pub(crate) fn apply_single(batch: &mut BatchState, mats: Mats, target: usize) {
            state::apply_single(batch, mats, target)
        }

        /// [`state::apply_controlled`] of this set.
        $(#[$feature])*
        #[inline(never)]
        pub(crate) fn apply_controlled(
            batch: &mut BatchState,
            mats: Mats,
            control: usize,
            target: usize,
        ) {
            state::apply_controlled(batch, mats, control, target)
        }

        /// [`state::inner_single`] of this set.
        $(#[$feature])*
        #[inline(never)]
        pub(crate) fn inner_single(
            lambda: &BatchState,
            psi: &BatchState,
            mats: Mats,
            target: usize,
            out: &mut [f64],
        ) {
            state::inner_single(lambda, psi, mats, target, out)
        }

        /// [`state::inner_controlled_projected`] of this set.
        $(#[$feature])*
        #[inline(never)]
        pub(crate) fn inner_controlled_projected(
            lambda: &BatchState,
            psi: &BatchState,
            mats: Mats,
            control: usize,
            target: usize,
            out: &mut [f64],
        ) {
            state::inner_controlled_projected(lambda, psi, mats, control, target, out)
        }

        /// [`state::expectations_z`] of this set.
        $(#[$feature])*
        #[inline(never)]
        pub(crate) fn expectations_z(batch: &BatchState, wires: &[usize], out: &mut [f64]) {
            state::expectations_z(batch, wires, out)
        }

        /// [`state::seed_z`] of this set.
        $(#[$feature])*
        #[inline(never)]
        pub(crate) fn seed_z(
            lambda: &mut BatchState,
            psi: &BatchState,
            wires: &[usize],
            weights: &[f64],
        ) {
            state::seed_z(lambda, psi, wires, weights)
        }

        /// [`Plan::sweep_with`] on this set's kernels.
        $(#[$feature])*
        #[inline(never)]
        pub(crate) fn sweep(plan: &Plan, bound: &[Matrix2], inputs: &Matrix, chunk: &mut Chunk) {
            plan.sweep_with(bound, inputs, chunk, |batch, mats, wires| match wires {
                Wires::One(w) => apply_single(batch, mats, w),
                Wires::Two(c, t) => apply_controlled(batch, mats, c, t),
            })
        }

        /// [`Plan::reverse_with`] on this set's kernels.
        $(#[$feature])*
        #[inline(never)]
        pub(crate) fn reverse(plan: &Plan, bound: &[Matrix2], chunk: &Chunk, work: &mut Work) {
            plan.reverse_with(
                bound,
                chunk,
                work,
                |batch, mats, wires| match wires {
                    Wires::One(w) => apply_single(batch, mats, w),
                    Wires::Two(c, t) => apply_controlled(batch, mats, c, t),
                },
                // d(controlled-U)/dθ acts as |1⟩⟨1| ⊗ dU.
                |lambda, psi, mats, wires, out| match wires {
                    Wires::One(w) => inner_single(lambda, psi, mats, w, out),
                    Wires::Two(c, t) => inner_controlled_projected(lambda, psi, mats, c, t, out),
                },
            )
        }

        /// [`Plan::forward_chunk_with`] on this set: the sweep, then the
        /// readout.
        $(#[$feature])*
        pub(crate) fn forward_chunk((plan, bound, inputs, observables, chunk): ForwardArgs) {
            plan.forward_chunk_with(
                observables,
                chunk,
                |chunk| sweep(plan, bound, inputs, chunk),
                |batch, wires, out| expectations_z(batch, wires, out),
            )
        }

        /// [`Plan::vjp_chunk_with`] on this set: the seed, then the reverse
        /// sweep.
        $(#[$feature])*
        pub(crate) fn vjp_chunk((plan, bound, chunk, observables, weights, work): VjpArgs) {
            plan.vjp_chunk_with(
                chunk,
                observables,
                weights,
                work,
                |lambda, psi, wires, w| seed_z(lambda, psi, wires, w),
                |work| reverse(plan, bound, chunk, work),
            )
        }
    };
}

/// The kernels compiled for the baseline target.
pub(crate) mod baseline {
    kernel_set!();
}

/// The kernels compiled for AVX2; [`hqnn_runtime::simd`] runs them only on
/// a CPU that has it. On other architectures they are a second baseline
/// copy that never runs.
pub(crate) mod avx2 {
    kernel_set!(#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::{avx2, baseline};
    use crate::batch_state::BatchState;
    use crate::complex::C64;
    use crate::gates::{GateKind, Matrix2};
    use crate::state::Mats;

    /// Equal bits, or both NaN (DESIGN.md §9: a NaN's sign and payload are
    /// not pinned).
    pub(crate) fn assert_bits_or_nan(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "{what}[{i}]: {g:e} vs {w:e}");
        }
    }

    /// A deterministic spread of values in `[-2, 2)`, about 1 in 15 of
    /// them `±0` and, when `inf_every > 0`, about 1 in `29·inf_every`
    /// of them `±inf`.
    fn value(i: usize, salt: usize, inf_every: usize) -> f64 {
        const SPECIALS: [f64; 4] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        let k = i * 31 + salt * 17;
        match k % 29 {
            0 | 1 => SPECIALS[k % 2],
            2 if inf_every > 0 && (k / 29).is_multiple_of(inf_every) => SPECIALS[2 + k % 2],
            _ => ((k as f64) * 0.754_877_666_246_692_8).fract() * 4.0 - 2.0,
        }
    }

    fn filled(n: usize, lanes: usize, salt: usize, inf_every: usize) -> BatchState {
        let mut s = BatchState::zeroed(n, lanes);
        let (re, im) = s.parts_mut();
        for (i, (re, im)) in re.iter_mut().zip(im).enumerate() {
            (*re, *im) = (
                value(2 * i, salt, inf_every),
                value(2 * i + 1, salt, inf_every),
            );
        }
        s
    }

    fn dense(seed: f64) -> Matrix2 {
        let z = |k: f64| C64::new((seed * k).sin(), (seed * k + 0.5).cos());
        [[z(1.0), z(2.0)], [z(3.0), z(4.0)]]
    }

    /// One matrix of each [`crate::state::Shape`] for angle `a`: diagonal,
    /// real, imaginary off-diagonal and general.
    fn of_each_shape(a: f64) -> [Matrix2; 4] {
        [
            GateKind::RZ.matrix(a),
            GateKind::RY.matrix(a),
            GateKind::RX.matrix(a),
            dense(a),
        ]
    }

    /// The matrix lists a kernel call can take for `lanes` lanes: a shared
    /// matrix of every shape and one with a NaN entry; per-lane matrices
    /// all of one shape, of mixed shapes, and with one NaN lane.
    fn matrix_cases(lanes: usize) -> Vec<(bool, Vec<Matrix2>)> {
        let mut cases: Vec<(bool, Vec<Matrix2>)> = of_each_shape(0.83)
            .into_iter()
            .map(|m| (false, vec![m]))
            .collect();
        let mut nan = GateKind::RY.matrix(0.4);
        nan[1][0].im = f64::NAN;
        cases.push((false, vec![nan]));
        let angle = |r: usize| 0.3 + 0.71 * r as f64;
        for shape in 0..4 {
            cases.push((
                true,
                (0..lanes).map(|r| of_each_shape(angle(r))[shape]).collect(),
            ));
        }
        cases.push((
            true,
            (0..lanes).map(|r| of_each_shape(angle(r))[r % 4]).collect(),
        ));
        let mut with_nan: Vec<Matrix2> =
            (0..lanes).map(|r| GateKind::RX.matrix(angle(r))).collect();
        with_nan[lanes / 2] = GateKind::RX.matrix(f64::NAN);
        cases.push((true, with_nan));
        cases
    }

    /// The inputs of one two-copy comparison.
    struct Case {
        psi: BatchState,
        lambda: BatchState,
        cases: Vec<(bool, Vec<Matrix2>)>,
        wires: Vec<usize>,
        weights: Vec<f64>,
    }

    /// Runs every kernel of one set on `case` — each gate kernel on every
    /// wire and every control/target pair with every matrix list, then the
    /// readout and the seed — and returns every value they write, in order.
    macro_rules! run_set {
        ($set:ident, $case:expr) => {{
            let case: &Case = $case;
            let (psi, lambda) = (&case.psi, &case.lambda);
            let (n, lanes) = (psi.n_qubits(), psi.rows());
            let mut out = Vec::new();
            let mut inner = vec![0.0; lanes];
            let push_state = |out: &mut Vec<f64>, s: &BatchState| {
                let (re, im) = s.parts();
                out.extend_from_slice(re);
                out.extend_from_slice(im);
            };
            for (per_lane, ms) in &case.cases {
                let mats = if *per_lane {
                    Mats::per_lane(ms)
                } else {
                    Mats::Shared(&ms[0])
                };
                for t in 0..n {
                    let mut s = psi.clone();
                    $set::apply_single(&mut s, mats, t);
                    push_state(&mut out, &s);
                    $set::inner_single(lambda, psi, mats, t, &mut inner);
                    out.extend_from_slice(&inner);
                    for c in (0..n).filter(|&c| c != t) {
                        let mut s = psi.clone();
                        $set::apply_controlled(&mut s, mats, c, t);
                        push_state(&mut out, &s);
                        $set::inner_controlled_projected(lambda, psi, mats, c, t, &mut inner);
                        out.extend_from_slice(&inner);
                    }
                }
            }
            let mut z = vec![0.0; case.wires.len() * lanes];
            $set::expectations_z(psi, &case.wires, &mut z);
            out.extend_from_slice(&z);
            let mut seed = lambda.clone();
            $set::seed_z(&mut seed, psi, &case.wires, &case.weights);
            push_state(&mut out, &seed);
            out
        }};
    }

    fn baseline_outputs(case: &Case) -> Vec<f64> {
        run_set!(baseline, case)
    }

    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
    fn avx2_outputs(case: &Case) -> Vec<f64> {
        run_set!(avx2, case)
    }

    #[test]
    fn avx2_set_matches_the_baseline_set_bitwise() {
        // Called directly, the baseline set; through `hqnn_runtime::simd`,
        // the AVX2 set on a CPU that has AVX2. So one suite run on an AVX2
        // host checks both copies of every kernel: 1–7 qubits, 1–64 lanes,
        // amplitudes with ±0, and ±inf in λ (in ψ too at odd lane counts),
        // every matrix shape, shared and per lane, on every wire and pair.
        for n in 1..=7 {
            for lanes in [1, 2, 3, 8, 13, 64] {
                let wires: Vec<usize> = (0..n).chain([n - 1, 0]).collect();
                let weights = (0..wires.len() * lanes)
                    .map(|i| match i % 7 {
                        0 => 0.0,
                        3 => -0.0,
                        5 if i % 3 == 0 => f64::NAN,
                        _ => value(i, n, 0),
                    })
                    .collect();
                let case = Case {
                    psi: filled(n, lanes, n + lanes, 5 * (lanes % 2)),
                    lambda: filled(n, lanes, 3 * n + lanes, 3),
                    cases: matrix_cases(lanes),
                    wires,
                    weights,
                };
                let want = baseline_outputs(&case);
                let got = hqnn_runtime::simd(&case, baseline_outputs, avx2_outputs);
                assert_bits_or_nan(&got, &want, &format!("{n} qubits, {lanes} lanes"));
            }
        }
    }
}
