//! Batched circuit execution and differentiation over sample matrices.
//!
//! The hybrid layers upstream (hqnn-core) process inputs a *batch* at a time
//! — one circuit evaluation per matrix row, all rows independent. These
//! entry points are the simulator's parallel seam, and they execute
//! **gate-major** through a compiled [`Plan`]: rows are grouped into chunks
//! of a fixed amplitude budget, each chunk's statevectors live in one
//! contiguous [`crate::BatchState`] (row-lane split-complex: the chunk's
//! rows are the lanes of each amplitude), and the plan's steps are walked
//! *once*, sweeping each op across every row in the chunk while its matrix
//! is hot. Row-independent matrices (fixed/trainable angles) are resolved
//! once per batch and applied with a single whole-chunk kernel call;
//! input-dependent encoding gates resolve one matrix per row and sweep the
//! chunk in one per-lane kernel call. Chunks fan out across the
//! `hqnn-runtime` pool.
//!
//! Each op compiles to exactly one sweep step, and each row runs through
//! *the same kernels in the same order with the same matrices* as
//! [`Circuit::run`], so results are **bitwise identical** to the per-row
//! sequential loop regardless of `HQNN_THREADS` (chunk boundaries depend
//! only on the row and qubit counts, never on the thread budget). The
//! batch-equivalence proptests in `crates/qsim/tests/` pin that
//! equivalence.
//!
//! The seams here compile a plan per call; a caller that runs one circuit
//! many times (`QuantumLayer`) keeps its own [`Plan`]. [`Circuit::run_batch`]
//! keeps the final states, [`Circuit::expectations_batch`] reads the
//! observables and drops them, and [`Circuit::record_batch`] does both,
//! keeping the states and per-row gate matrices on a [`BatchTape`]. The
//! adjoint backward, [`BatchTape::vjp`], sweeps each chunk back from a copy
//! of the recorded states — the forward is never re-simulated and no angle
//! is re-evaluated. [`vjp_batch`] is that pair, record then VJP, for
//! callers without a forward of their own. The shift-rule seam
//! [`gradients_batch`] replays the op stream per row, so it fans rows (not
//! gate-major chunks) out across the pool.

use hqnn_tensor::Matrix;

use crate::batch_state::BatchState;
use crate::circuit::Circuit;
use crate::gradient::{self, Gradients, Vjp};
use crate::observable::Observable;
use crate::plan::{BatchTape, Plan};
use crate::state::StateVector;

impl Circuit {
    /// Runs the circuit once per row of `inputs` and returns the final
    /// states in row order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.cols() < input_count()` (each row must bind every
    /// encoding slot) or `params.len() < trainable_count()`.
    pub fn run_batch(&self, inputs: &Matrix, params: &[f64]) -> Vec<StateVector> {
        let plan = Plan::new(self);
        let _span = hqnn_telemetry::span("qsim.run_batch");
        plan.states(inputs, params)
            .into_iter()
            .flat_map(BatchState::into_states)
            .collect()
    }

    /// Runs the circuit once per row of `inputs` and evaluates every
    /// observable, returning a `(inputs.rows(), observables.len())` matrix.
    ///
    /// # Panics
    ///
    /// As for [`Circuit::run_batch`]; additionally if an observable
    /// references a wire outside the circuit.
    pub fn expectations_batch(
        &self,
        inputs: &Matrix,
        params: &[f64],
        observables: &[Observable],
    ) -> Matrix {
        Plan::new(self).expectations(inputs, params, observables)
    }

    /// [`Circuit::expectations_batch`] that also keeps the final states and
    /// per-row gate matrices on a [`BatchTape`], for an adjoint backward
    /// ([`BatchTape::vjp`]) that starts from them instead of re-simulating
    /// the batch. The expectations are bitwise those of
    /// `expectations_batch`.
    ///
    /// # Panics
    ///
    /// As for [`Circuit::expectations_batch`].
    pub fn record_batch(
        &self,
        inputs: &Matrix,
        params: &[f64],
        observables: &[Observable],
    ) -> (Matrix, BatchTape) {
        let mut tape = BatchTape::default();
        let out = Plan::new(self).record(&mut tape, inputs, params, observables);
        (out, tape)
    }
}

/// Computes parameter-shift [`Gradients`] ([`gradient::parameter_shift`])
/// for every row of `inputs`, returned in row order (bitwise identical to
/// calling it per row). The shift rule replays the op stream per row, so
/// this seam fans rows (not gate-major chunks) out across the pool. The
/// adjoint method's batch seam is [`vjp_batch`]; full adjoint Jacobians
/// come from [`gradient::adjoint`] per row.
///
/// # Panics
///
/// As for [`gradient::parameter_shift`].
pub fn gradients_batch(
    circuit: &Circuit,
    inputs: &Matrix,
    params: &[f64],
    observables: &[Observable],
) -> Vec<Gradients> {
    let _span = hqnn_telemetry::span("qsim.gradients_batch");
    hqnn_runtime::par_map_range(inputs.rows(), |r| {
        gradient::parameter_shift(circuit, inputs.row(r), params, observables)
    })
}

/// Computes the adjoint vector-Jacobian product ([`gradient::adjoint_vjp`])
/// for every row of `inputs`: [`Circuit::record_batch`] (reading no
/// observables), then [`BatchTape::vjp`]. For callers with no forward pass
/// of their own to reuse — the oracles, tests and benchmarks; training
/// records its forward once and differentiates from that tape.
///
/// # Panics
///
/// As for [`Circuit::run_batch`] and [`BatchTape::vjp`].
pub fn vjp_batch(
    circuit: &Circuit,
    inputs: &Matrix,
    params: &[f64],
    observables: &[Observable],
    weights: &Matrix,
) -> Vec<Vjp> {
    let (_, tape) = circuit.record_batch(inputs, params, &[]);
    tape.vjp(circuit, inputs, observables, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::ParamSource;

    fn encoder_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.rx(0, ParamSource::Input(0));
        c.ry(1, ParamSource::Input(1));
        c.cnot(0, 1);
        c.ry(0, ParamSource::Trainable(0));
        c.rz(1, ParamSource::Trainable(1));
        c
    }

    fn sample_batch() -> Matrix {
        Matrix::from_vec(
            5,
            2,
            vec![0.1, -0.4, 0.9, 0.3, -1.2, 0.7, 0.0, 0.0, 2.1, -0.6],
        )
    }

    fn z_all(n: usize) -> Vec<Observable> {
        (0..n).map(Observable::z).collect()
    }

    /// Asserts `batch` equals the per-row [`Circuit::run`] loop bit for bit.
    fn assert_matches_per_row(c: &Circuit, x: &Matrix, params: &[f64], batch: &[StateVector]) {
        assert_eq!(batch.len(), x.rows());
        for (r, state) in batch.iter().enumerate() {
            let solo = c.run(x.row(r), params);
            for (a, b) in state.amplitudes().iter().zip(solo.amplitudes()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "row={r}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "row={r}");
            }
        }
    }

    #[test]
    fn run_batch_matches_per_row_runs() {
        let c = encoder_circuit();
        let x = sample_batch();
        let params = [0.5, -0.3];
        for threads in [1, 2, 7] {
            // Bitwise: same kernels in the same order per row, only the
            // sweep order and scheduling differ.
            let batch = hqnn_runtime::with_threads(threads, || c.run_batch(&x, &params));
            assert_matches_per_row(&c, &x, &params, &batch);
        }
    }

    #[test]
    fn expectations_batch_shape_and_bitwise_rows() {
        let c = encoder_circuit();
        let x = sample_batch();
        let params = [0.5, -0.3];
        let obs = z_all(2);
        let seq = hqnn_runtime::with_threads(1, || c.expectations_batch(&x, &params, &obs));
        assert_eq!(seq.shape(), (5, 2));
        for threads in [2, 7] {
            let par =
                hqnn_runtime::with_threads(threads, || c.expectations_batch(&x, &params, &obs));
            assert_eq!(par.shape(), seq.shape());
            for (a, b) in par.as_slice().iter().zip(seq.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
        for r in 0..x.rows() {
            let solo = c.expectations(x.row(r), &params, &obs);
            assert_eq!(seq.row(r), &solo[..]);
        }
    }

    #[test]
    fn swap_gates_sweep_correctly_gate_major() {
        // SWAP takes the dedicated sweep step (no hoisted matrix).
        let mut c = Circuit::new(3);
        c.rx(0, ParamSource::Input(0));
        c.swap(0, 2);
        c.ry(1, ParamSource::Trainable(0));
        let x = Matrix::from_vec(3, 1, vec![0.3, -0.8, 1.4]);
        let params = [0.9];
        assert_matches_per_row(&c, &x, &params, &c.run_batch(&x, &params));
    }

    #[test]
    fn gradients_batch_matches_parameter_shift_per_row() {
        let c = encoder_circuit();
        let x = sample_batch();
        let params = [0.5, -0.3];
        let obs = z_all(2);
        let batch = hqnn_runtime::with_threads(3, || gradients_batch(&c, &x, &params, &obs));
        assert_eq!(batch.len(), x.rows());
        for (r, got) in batch.iter().enumerate() {
            let want = gradient::parameter_shift(&c, x.row(r), &params, &obs);
            assert_eq!(got, &want, "row={r}");
        }
    }

    #[test]
    fn vjp_batch_matches_per_row_bitwise_at_any_thread_count() {
        let c = encoder_circuit();
        let x = sample_batch();
        let params = [0.5, -0.3];
        let obs = z_all(2);
        let w = Matrix::from_vec(
            5,
            2,
            vec![0.3, -1.1, 0.0, 0.8, 2.0, 0.0, -0.4, 0.4, 1.5, -0.9],
        );
        for threads in [1, 2, 7] {
            let batch =
                hqnn_runtime::with_threads(threads, || vjp_batch(&c, &x, &params, &obs, &w));
            assert_eq!(batch.len(), x.rows());
            for (r, got) in batch.iter().enumerate() {
                let want = gradient::adjoint_vjp(&c, x.row(r), &params, &obs, w.row(r));
                assert_eq!(got, &want, "threads={threads} row={r}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let c = encoder_circuit();
        let x = Matrix::zeros(0, 2);
        assert!(c.run_batch(&x, &[0.0, 0.0]).is_empty());
        let e = c.expectations_batch(&x, &[0.0, 0.0], &z_all(2));
        assert_eq!(e.shape(), (0, 2));
        assert!(gradients_batch(&c, &x, &[0.0, 0.0], &z_all(2)).is_empty());
        let w = Matrix::zeros(0, 2);
        assert!(vjp_batch(&c, &x, &[0.0, 0.0], &z_all(2), &w).is_empty());
    }

    #[test]
    fn zero_observables_yield_empty_columns() {
        let c = encoder_circuit();
        let x = sample_batch();
        let e = c.expectations_batch(&x, &[0.0, 0.0], &[]);
        assert_eq!(e.shape(), (5, 0));
    }

    #[test]
    #[should_panic(expected = "circuit expects 2")]
    fn run_batch_validates_input_width() {
        let c = encoder_circuit();
        let x = Matrix::zeros(3, 1);
        let _ = c.run_batch(&x, &[0.0, 0.0]);
    }
}
