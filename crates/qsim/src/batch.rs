//! Batched circuit execution and differentiation over sample matrices.
//!
//! The hybrid layers upstream (hqnn-core) process inputs a *batch* at a time
//! — one circuit evaluation per matrix row, all rows independent. These
//! entry points are the simulator's parallel seam, and they execute
//! **gate-major**: rows are grouped into chunks of a fixed amplitude budget
//! (`chunk_rows_for`), each chunk's statevectors live in one contiguous
//! [`BatchState`] (row-lane split-complex: the chunk's rows are the lanes
//! of each amplitude), and the driver walks a compiled op list *once*,
//! sweeping each op across every row in the chunk while its matrix is hot.
//! Row-independent matrices (fixed/trainable angles) are resolved once per
//! batch and applied with a single whole-chunk kernel call; input-dependent
//! encoding gates resolve one matrix per row and sweep the chunk in one
//! per-lane kernel call. Chunks fan out across
//! [`hqnn_runtime::par_map_range`].
//!
//! Each op compiles to exactly one sweep step, and each row runs through
//! *the same kernels in the same order with the same matrices* as
//! [`Circuit::run`], so results are **bitwise identical** to the per-row
//! sequential loop regardless of `HQNN_THREADS` (chunk boundaries depend
//! only on the row and qubit counts, never on the thread budget). The
//! batch-equivalence proptests in `crates/qsim/tests/` pin that
//! equivalence.
//!
//! One chunk loop serves every forward seam: [`Circuit::run_batch`] keeps
//! the final states, [`Circuit::expectations_batch`] reads the observables
//! and drops them, and [`Circuit::record_batch`] does both, keeping the
//! states on a [`BatchTape`]. The adjoint training backward,
//! [`BatchTape::vjp`], starts each chunk's reverse sweep from a copy of the
//! recorded states — the forward is never re-simulated — seeds it and
//! sweeps backwards with the row-independent `U†`/`dU` resolved once per
//! batch. [`vjp_batch`] is that pair, record then VJP, for callers without
//! a forward of their own. The shift-rule seam [`gradients_batch`] replays
//! the op stream per row, so it fans rows (not gate-major chunks) out
//! across the pool.

use hqnn_tensor::Matrix;

use crate::batch_state::BatchState;
use crate::circuit::{Circuit, Op, ParamSource, Wires};
use crate::gates::{GateKind, Matrix2};
use crate::gradient::{self, Gradients, Vjp};
use crate::observable::Observable;
use crate::state::{apply_controlled, apply_single, Mats, StateVector};

/// Amplitudes per gate-major chunk. At 2⁹ an 8-row training batch of a
/// 3–5-qubit circuit is one chunk, so each row-independent matrix is swept
/// across the whole batch in one kernel call. Larger budgets measured
/// within noise on training, and would leave a 16-row 6-qubit batch one
/// chunk with nothing for the pool to fan out.
const CHUNK_AMPS: usize = 1 << 9;

/// Rows per gate-major chunk for an `n_qubits`-wire circuit: as many as fit
/// in [`CHUNK_AMPS`] amplitudes, and at least one. It depends only on the
/// qubit count — never on the thread budget — so chunk boundaries, and with
/// them span trees and causal IDs, are identical at every `HQNN_THREADS`.
fn chunk_rows_for(n_qubits: usize) -> usize {
    (CHUNK_AMPS >> n_qubits).max(1)
}

/// One step of a compiled gate-major program: the sweep form of one op.
enum SweepOp {
    /// Row-independent single-qubit matrix: one whole-buffer kernel sweep.
    SharedSingle { m: Matrix2, wire: usize },
    /// Row-independent controlled matrix: one whole-buffer kernel sweep.
    SharedControlled {
        m: Matrix2,
        control: usize,
        target: usize,
    },
    /// SWAP (never parametrized): one whole-buffer sweep.
    Swap { a: usize, b: usize },
    /// Input-dependent op `k`: one matrix per row, one per-lane sweep.
    RowOp(usize),
}

/// Whether the op's angle depends on the per-sample inputs — such ops stay
/// per-row steps; everything else is resolved once per batch.
fn input_dependent(op: &Op) -> bool {
    matches!(op.param, ParamSource::Input(_))
}

/// The op's matrix with its angle resolved from the bindings (fixed gates
/// take `θ = 0`), exactly as [`Circuit::run`] resolves it.
fn resolved_matrix(op: &Op, inputs: &[f64], params: &[f64]) -> Matrix2 {
    let theta = if op.kind.is_parametrized() {
        op.param.resolve(inputs, params)
    } else {
        0.0
    };
    op.kind.matrix(theta)
}

/// A gate-major program compiled once per batch: one step per op, every
/// row-independent matrix hoisted out of the per-row loop, everything
/// input-dependent kept a per-row step. The per-row kernel sequence — and
/// therefore every amplitude — is bitwise identical to [`Circuit::run`].
pub(crate) struct BatchProgram {
    steps: Vec<SweepOp>,
}

impl BatchProgram {
    /// Compiles `circuit` for one batch with the trainable `params` bound.
    /// Built once on the caller thread, before the fan-out; every forward
    /// seam and the single-row adjoint engines share it.
    pub(crate) fn new(circuit: &Circuit, params: &[f64]) -> Self {
        let steps = circuit
            .ops()
            .iter()
            .enumerate()
            .map(|(k, op)| match op.wires {
                Wires::Two(a, b) if op.kind == GateKind::Swap => SweepOp::Swap { a, b },
                _ if input_dependent(op) => SweepOp::RowOp(k),
                Wires::One(wire) => SweepOp::SharedSingle {
                    m: resolved_matrix(op, &[], params),
                    wire,
                },
                Wires::Two(control, target) => SweepOp::SharedControlled {
                    m: resolved_matrix(op, &[], params),
                    control,
                    target,
                },
            })
            .collect();
        Self { steps }
    }

    /// [`Self::run_chunk`] under a `qsim.batch_sweep` span.
    fn sweep_chunk(
        &self,
        circuit: &Circuit,
        inputs: &Matrix,
        params: &[f64],
        row0: usize,
        rows: usize,
    ) -> BatchState {
        let _span = hqnn_telemetry::span("qsim.batch_sweep");
        self.run_chunk(circuit, inputs, params, row0, rows)
    }

    /// Sweeps the program across rows `row0 .. row0 + rows` of the batch in
    /// one contiguous [`BatchState`]. Telemetry is emitted at chunk
    /// granularity with the same totals a per-row [`Circuit::run`] loop
    /// would produce.
    pub(crate) fn run_chunk(
        &self,
        circuit: &Circuit,
        inputs: &Matrix,
        params: &[f64],
        row0: usize,
        rows: usize,
    ) -> BatchState {
        hqnn_telemetry::counter("qsim.circuit_runs", rows as u64);
        hqnn_telemetry::counter("qsim.gate_applies", (self.steps.len() * rows) as u64);
        hqnn_telemetry::gauge_max("qsim.statevector_len", (1u64 << circuit.n_qubits()) as f64);
        let ops = circuit.ops();
        let mut batch = BatchState::new(circuit.n_qubits(), rows);
        let mut lane_ms = Vec::with_capacity(rows);
        for step in &self.steps {
            match step {
                SweepOp::SharedSingle { m, wire } => batch.apply_single_all(m, *wire),
                SweepOp::SharedControlled { m, control, target } => {
                    batch.apply_controlled_all(m, *control, *target);
                }
                SweepOp::Swap { a, b } => batch.apply_swap_all(*a, *b),
                SweepOp::RowOp(k) => {
                    let op = &ops[*k];
                    lane_ms.clear();
                    lane_ms.extend(
                        (row0..row0 + rows).map(|r| resolved_matrix(op, inputs.row(r), params)),
                    );
                    apply_gate(&mut batch, Mats::PerLane(&lane_ms), op.wires);
                }
            }
        }
        batch
    }
}

/// Applies a non-SWAP op's matrices to every lane — what
/// [`Circuit::apply_op`] does to each row alone, bitwise.
pub(crate) fn apply_gate(batch: &mut BatchState, mats: Mats, wires: Wires) {
    match wires {
        Wires::One(w) => apply_single(batch, mats, w),
        Wires::Two(c, t) => apply_controlled(batch, mats, c, t),
    }
}

impl Circuit {
    /// Runs the circuit once per row of `inputs` and returns the final
    /// states in row order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.cols() < input_count()` (each row must bind every
    /// encoding slot) or `params.len() < trainable_count()`.
    pub fn run_batch(&self, inputs: &Matrix, params: &[f64]) -> Vec<StateVector> {
        self.check_batch(inputs, params);
        let _span = hqnn_telemetry::span("qsim.run_batch");
        let (_, chunks) = self.forward_chunks(inputs, params, &[], true);
        chunks
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
        self.check_batch(inputs, params);
        let _span = hqnn_telemetry::span("qsim.expectations_batch");
        self.forward_chunks(inputs, params, observables, false).0
    }

    /// [`Circuit::expectations_batch`] that also keeps the final states on
    /// a [`BatchTape`], for an adjoint backward ([`BatchTape::vjp`]) that
    /// starts from them instead of re-simulating the batch. The
    /// expectations are bitwise those of `expectations_batch`.
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
        self.check_batch(inputs, params);
        let _span = hqnn_telemetry::span("qsim.expectations_batch");
        let (out, chunks) = self.forward_chunks(inputs, params, observables, true);
        let tape = BatchTape {
            chunks,
            rows: inputs.rows(),
            params: params.to_vec(),
        };
        (out, tape)
    }

    /// The one forward chunk loop behind every batch seam: sweeps each
    /// chunk, reads each row's `observables` into the returned
    /// `(rows, observables.len())` matrix, and returns the chunks' final
    /// states in row order when `keep` is set (none otherwise). With no
    /// observables and nothing to keep, nothing is simulated.
    fn forward_chunks(
        &self,
        inputs: &Matrix,
        params: &[f64],
        observables: &[Observable],
        keep: bool,
    ) -> (Matrix, Vec<BatchState>) {
        let (n_rows, n_obs) = (inputs.rows(), observables.len());
        let mut out = Matrix::zeros(n_rows, n_obs);
        if n_rows == 0 || (n_obs == 0 && !keep) {
            return (out, Vec::new());
        }
        let program = BatchProgram::new(self, params);
        let chunk = chunk_rows_for(self.n_qubits());
        let parts = hqnn_runtime::par_map_range(n_rows.div_ceil(chunk), |c| {
            let row0 = c * chunk;
            let rows = chunk.min(n_rows - row0);
            let batch = program.sweep_chunk(self, inputs, params, row0, rows);
            let mut values = vec![0.0; rows * n_obs];
            let mut lanes = vec![0.0; rows];
            for (o, obs) in observables.iter().enumerate() {
                obs.expectations_into(&batch, &mut lanes);
                for (j, v) in lanes.iter().enumerate() {
                    values[j * n_obs + o] = *v;
                }
            }
            (values, keep.then_some(batch))
        });
        let mut states = Vec::with_capacity(if keep { parts.len() } else { 0 });
        for (c, (values, batch)) in parts.into_iter().enumerate() {
            let at = c * chunk * n_obs;
            out.as_mut_slice()[at..at + values.len()].copy_from_slice(&values);
            states.extend(batch);
        }
        (out, states)
    }

    pub(crate) fn check_batch(&self, inputs: &Matrix, params: &[f64]) {
        assert!(
            inputs.cols() >= self.input_count(),
            "batch rows bind {} inputs, circuit expects {}",
            inputs.cols(),
            self.input_count()
        );
        assert!(
            params.len() >= self.trainable_count(),
            "circuit expects {} trainable params, got {}",
            self.trainable_count(),
            params.len()
        );
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

/// The final statevectors of one batched forward pass, kept for the
/// adjoint backward that follows it.
///
/// [`Circuit::record_batch`] fills it with the gate-major chunks its sweep
/// produced and the trainable `params` they were simulated at.
/// [`BatchTape::vjp`] reads it without consuming it, so one forward can
/// feed any number of backward passes, each differentiating at the
/// recorded `params`.
#[derive(Clone, Debug)]
pub struct BatchTape {
    chunks: Vec<BatchState>,
    rows: usize,
    params: Vec<f64>,
}

impl BatchTape {
    /// Computes the adjoint vector-Jacobian product
    /// ([`gradient::adjoint_vjp`]) for every recorded row, weighting
    /// observable `o` of row `r` by `weights[(r, o)]`; returned in row
    /// order, bitwise identical to calling the engine per row at any
    /// `HQNN_THREADS`. This is the training seam.
    ///
    /// `circuit` and `inputs` must be the ones the tape was recorded with.
    /// Each chunk's reverse sweep starts from a copy of its recorded states
    /// — nothing is re-simulated — and the row-independent `U†`/`dU` are
    /// resolved once, at the recorded `params`; chunks fan out across the
    /// pool.
    ///
    /// # Panics
    ///
    /// As for [`gradient::adjoint_vjp`]; additionally if `inputs` does not
    /// have the recorded row count, `weights` is not
    /// `(rows, observables.len())`, or `circuit` is not as wide as the
    /// recorded states.
    pub fn vjp(
        &self,
        circuit: &Circuit,
        inputs: &Matrix,
        observables: &[Observable],
        weights: &Matrix,
    ) -> Vec<Vjp> {
        assert_eq!(
            inputs.rows(),
            self.rows,
            "tape recorded {} rows, got {} inputs",
            self.rows,
            inputs.rows()
        );
        assert_eq!(
            weights.shape(),
            (self.rows, observables.len()),
            "one weight per row and observable"
        );
        circuit.check_batch(inputs, &self.params);
        if let Some(first) = self.chunks.first() {
            assert_eq!(
                first.n_qubits(),
                circuit.n_qubits(),
                "tape recorded a different circuit width"
            );
        }
        let _span = hqnn_telemetry::span("qsim.vjp_batch");
        let program = gradient::AdjointProgram::compile(circuit, &self.params);
        let chunk = chunk_rows_for(circuit.n_qubits());
        let chunks = hqnn_runtime::par_map_range(self.chunks.len(), |c| {
            let psi = self.chunks[c].clone();
            let rows = psi.rows();
            program.vjp_chunk(psi, inputs, observables, weights, c * chunk, rows)
        });
        chunks.into_iter().flatten().collect()
    }
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
