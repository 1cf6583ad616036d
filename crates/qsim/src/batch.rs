//! Batched circuit execution and differentiation over sample matrices.
//!
//! The hybrid layers upstream (hqnn-core) process inputs a *batch* at a time
//! — one circuit evaluation per matrix row, all rows independent. These
//! entry points are the simulator's parallel seam, and they execute
//! **gate-major**: rows are grouped into fixed-size chunks, each chunk's
//! statevectors live in one contiguous [`BatchState`] buffer, and the driver
//! walks a compiled op list *once*, sweeping each op across every row in
//! the chunk while its matrix is hot. Row-independent matrices
//! (fixed/trainable angles, fused runs and pairs) are resolved once per
//! batch and applied with a single whole-buffer kernel call per chunk;
//! input-dependent encoding gates are resolved per row inside the sweep.
//! Chunks fan out across [`hqnn_runtime::par_map_range`].
//!
//! The program is compiled from the [`FusePlan`] at the caller's fusion
//! level; at level 0 that is the trivial plan (one `Direct` segment per
//! op). Each row runs through *the same kernels in the same order with the
//! same matrices* as [`Circuit::run`], so results are **bitwise identical**
//! to the per-row sequential loop regardless of `HQNN_THREADS` (chunk
//! boundaries depend only on the row count, never on the thread budget).
//! The batch-equivalence proptests in `crates/qsim/tests/` pin that
//! equivalence.
//!
//! The gradient seams — [`vjp_batch`] for the adjoint method,
//! [`gradients_batch`] for the shift-rule engines — replay the original op
//! stream per row, so they fan rows (not gate-major chunks) out across the
//! pool and never fuse.

use hqnn_tensor::Matrix;

use crate::batch_state::BatchState;
use crate::circuit::{Circuit, Op, ParamSource, Wires};
use crate::complex::C64;
use crate::fuse::{self, FusePlan, Segment};
use crate::gates::{matmul2, GateKind, Matrix2, Matrix4};
use crate::gradient::{self, Gradients, Vjp};
use crate::noise::NoiseModel;
use crate::observable::Observable;
use crate::state::{
    apply_pair_amps, apply_single_amps, apply_swap_amps, transform_control1_pairs_amps,
};
use crate::state::StateVector;

/// Upper bound on rows per gate-major chunk. Fixed (never derived from the
/// thread budget) so chunk boundaries — and with them span trees and causal
/// IDs — are identical at every `HQNN_THREADS`.
const GATE_CHUNK_ROWS: usize = 4;

/// Rows per gate-major chunk for an `n_qubits`-wire circuit: up to
/// [`GATE_CHUNK_ROWS`], shrinking for very wide circuits so a chunk's
/// contiguous buffer stays within ~2²⁰ amplitudes (16 MiB).
fn chunk_rows_for(n_qubits: usize) -> usize {
    ((1usize << 20) >> n_qubits).clamp(1, GATE_CHUNK_ROWS)
}

/// One step of a compiled gate-major program.
enum SweepOp {
    /// Row-independent single-qubit matrix: one whole-buffer kernel sweep.
    SharedSingle { m: Matrix2, wire: usize },
    /// Row-independent controlled matrix: one whole-buffer kernel sweep.
    SharedControlled {
        m: Matrix2,
        control: usize,
        target: usize,
    },
    /// Row-independent fused 4×4 pair matrix: one pair-quad kernel sweep.
    SharedPair { m: Matrix4, low: usize, high: usize },
    /// SWAP (never parametrized): one whole-buffer sweep.
    Swap { a: usize, b: usize },
    /// Input-dependent op `k`, resolved and applied per row.
    RowOp(usize),
    /// Input-dependent fused run, its matrix chain recomputed per row.
    RowRun { wire: usize, ops: Vec<usize> },
    /// Input-dependent fused pair, its 4×4 chain recomputed per row.
    RowPair {
        low: usize,
        high: usize,
        ops: Vec<usize>,
    },
}

/// Whether the op's angle depends on the per-sample inputs — such ops stay
/// per-row steps; everything else is resolved once per batch.
fn input_dependent(op: &Op) -> bool {
    matches!(op.param, ParamSource::Input(_))
}

/// A gate-major program compiled once per batch from a [`FusePlan`]: every
/// row-independent matrix is hoisted out of the per-row loop, everything
/// input-dependent stays a per-row step. The per-row kernel sequence — and
/// therefore every amplitude — is bitwise identical to [`FusePlan::run`]
/// (at level 0, to [`Circuit::run_unfused`]).
struct BatchProgram {
    steps: Vec<SweepOp>,
    /// Gate applications each row is billed for, matching what
    /// [`Circuit::run`] bills per row (the plan's segment count, which is
    /// the op count at level 0).
    applies_per_row: u64,
    /// Ops fusion eliminated per row (0 at level 0).
    collapsed_per_row: u64,
}

impl BatchProgram {
    /// Compiles `circuit` for one batch at the caller's fusion level. The
    /// level is resolved here, on the caller thread, before the fan-out:
    /// thread-local overrides like [`crate::fuse::with_fusion_level`] do not
    /// propagate into pool workers, and the program is built exactly once
    /// per batch either way.
    fn for_batch(circuit: &Circuit, params: &[f64]) -> Self {
        let plan = FusePlan::with_level(circuit, fuse::fusion_level());
        Self::compile(circuit, &plan, params)
    }

    fn compile(circuit: &Circuit, plan: &FusePlan, params: &[f64]) -> Self {
        let ops = circuit.ops();
        let mut steps = Vec::new();
        for segment in plan.segments() {
            match segment {
                Segment::Run { wire, ops: run } => {
                    if run.iter().any(|&k| input_dependent(&ops[k])) {
                        steps.push(SweepOp::RowRun {
                            wire: *wire,
                            ops: run.clone(),
                        });
                    } else {
                        // Same left-multiplied chain as `FusePlan::run`,
                        // hoisted because no angle reads the inputs.
                        let mut m = fuse::resolved_matrix(&ops[run[0]], &[], params);
                        for &k in &run[1..] {
                            m = matmul2(&fuse::resolved_matrix(&ops[k], &[], params), &m);
                        }
                        steps.push(SweepOp::SharedSingle { m, wire: *wire });
                    }
                }
                Segment::Pair { low, high, ops: pair } => {
                    if pair.iter().any(|&k| input_dependent(&ops[k])) {
                        steps.push(SweepOp::RowPair {
                            low: *low,
                            high: *high,
                            ops: pair.clone(),
                        });
                    } else {
                        let m = fuse::pair_matrix(circuit, *low, *high, pair, &[], params);
                        steps.push(SweepOp::SharedPair {
                            m,
                            low: *low,
                            high: *high,
                        });
                    }
                }
                Segment::Direct(k) => {
                    let op = &ops[*k];
                    match op.wires {
                        Wires::Two(a, b) if op.kind == GateKind::Swap => {
                            steps.push(SweepOp::Swap { a, b });
                        }
                        _ if input_dependent(op) => steps.push(SweepOp::RowOp(*k)),
                        Wires::One(w) => steps.push(SweepOp::SharedSingle {
                            m: fuse::resolved_matrix(op, &[], params),
                            wire: w,
                        }),
                        Wires::Two(a, b) => steps.push(SweepOp::SharedControlled {
                            m: fuse::resolved_matrix(op, &[], params),
                            control: a,
                            target: b,
                        }),
                    }
                }
            }
        }
        Self {
            steps,
            applies_per_row: plan.fused_ops() as u64,
            collapsed_per_row: plan.collapsed_ops() as u64,
        }
    }

    /// Sweeps the program across rows `row0 .. row0 + rows` of the batch in
    /// one contiguous [`BatchState`]. Telemetry is emitted at chunk
    /// granularity with the same totals a per-row [`Circuit::run`] loop
    /// would produce.
    fn sweep_chunk(
        &self,
        circuit: &Circuit,
        inputs: &Matrix,
        params: &[f64],
        row0: usize,
        rows: usize,
    ) -> BatchState {
        let _span = hqnn_telemetry::span("qsim.batch_sweep");
        hqnn_telemetry::counter("qsim.circuit_runs", rows as u64);
        hqnn_telemetry::counter("qsim.gate_applies", self.applies_per_row * rows as u64);
        if self.collapsed_per_row > 0 {
            hqnn_telemetry::counter("qsim.fuse_collapsed", self.collapsed_per_row * rows as u64);
        }
        hqnn_telemetry::gauge_max("qsim.statevector_len", (1u64 << circuit.n_qubits()) as f64);
        let ops = circuit.ops();
        let mut batch = BatchState::new(circuit.n_qubits(), rows);
        for step in &self.steps {
            match step {
                SweepOp::SharedSingle { m, wire } => batch.apply_single_all(m, *wire),
                SweepOp::SharedControlled { m, control, target } => {
                    batch.apply_controlled_all(m, *control, *target);
                }
                SweepOp::SharedPair { m, low, high } => batch.apply_pair_all(m, *low, *high),
                SweepOp::Swap { a, b } => batch.apply_swap_all(*a, *b),
                SweepOp::RowOp(k) => {
                    let op = &ops[*k];
                    for j in 0..rows {
                        apply_op_amps(op, batch.row_mut(j), inputs.row(row0 + j), params);
                    }
                }
                SweepOp::RowRun { wire, ops: run } => {
                    for j in 0..rows {
                        let x = inputs.row(row0 + j);
                        let mut m = fuse::resolved_matrix(&ops[run[0]], x, params);
                        for &k in &run[1..] {
                            m = matmul2(&fuse::resolved_matrix(&ops[k], x, params), &m);
                        }
                        apply_single_amps(batch.row_mut(j), &m, *wire);
                    }
                }
                SweepOp::RowPair { low, high, ops: pair } => {
                    for j in 0..rows {
                        let m = fuse::pair_matrix(
                            circuit,
                            *low,
                            *high,
                            pair,
                            inputs.row(row0 + j),
                            params,
                        );
                        apply_pair_amps(batch.row_mut(j), &m, *low, *high);
                    }
                }
            }
        }
        batch
    }
}

/// Mirror of [`Circuit::apply_op`] over one row's amplitude slice: same
/// angle resolution, same matrices, same kernels — bitwise identical.
fn apply_op_amps(op: &Op, row: &mut [C64], inputs: &[f64], params: &[f64]) {
    let theta = if op.kind.is_parametrized() {
        op.param.resolve(inputs, params)
    } else {
        0.0
    };
    match op.wires {
        Wires::One(w) => apply_single_amps(row, &op.kind.matrix(theta), w),
        Wires::Two(a, b) => match op.kind {
            GateKind::Swap => apply_swap_amps(row, a, b),
            _ => transform_control1_pairs_amps(row, &op.kind.matrix(theta), 1usize << a, 1usize << b),
        },
    }
}

/// Which shift-rule engine [`gradients_batch`] drives per row. The adjoint
/// method's batch seam is [`vjp_batch`]; full adjoint Jacobians come from
/// [`gradient::adjoint`] per row.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum GradEngine<'a> {
    /// Two-term parameter-shift rule ([`gradient::parameter_shift`]).
    ParameterShift,
    /// Parameter-shift through a density-matrix simulation under the given
    /// noise model ([`gradient::parameter_shift_noisy`]).
    ParameterShiftNoisy(&'a NoiseModel),
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
        let program = BatchProgram::for_batch(self, params);
        let chunk = chunk_rows_for(self.n_qubits());
        let n_chunks = inputs.rows().div_ceil(chunk);
        let chunks = hqnn_runtime::par_map_range(n_chunks, |c| {
            let row0 = c * chunk;
            let rows = chunk.min(inputs.rows() - row0);
            program.sweep_chunk(self, inputs, params, row0, rows)
        });
        let mut out = Vec::with_capacity(inputs.rows());
        for batch in chunks {
            out.extend(batch.into_states());
        }
        out
    }

    /// Runs the circuit once per row of `inputs` and evaluates every
    /// observable, returning a `(inputs.rows(), observables.len())` matrix.
    ///
    /// Expectations are written directly into the preallocated output
    /// matrix — workers receive disjoint row blocks via
    /// [`hqnn_runtime::par_chunks_mut`] — so no per-row `Vec`s are
    /// collected and re-flattened.
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
        let n_rows = inputs.rows();
        let n_obs = observables.len();
        let mut out = Matrix::zeros(n_rows, n_obs);
        if n_rows == 0 || n_obs == 0 {
            return out;
        }
        let program = BatchProgram::for_batch(self, params);
        let chunk = chunk_rows_for(self.n_qubits());
        hqnn_runtime::par_chunks_mut(out.as_mut_slice(), chunk * n_obs, |c, dst| {
            let row0 = c * chunk;
            let rows = dst.len() / n_obs;
            let batch = program.sweep_chunk(self, inputs, params, row0, rows);
            for j in 0..rows {
                let row = batch.row(j);
                for (i, o) in observables.iter().enumerate() {
                    dst[j * n_obs + i] = o.expectation_amps(self.n_qubits(), row);
                }
            }
        });
        out
    }

    fn check_batch(&self, inputs: &Matrix, params: &[f64]) {
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

/// Computes [`Gradients`] for every row of `inputs` with the chosen engine,
/// returned in row order (bitwise identical to calling the engine per row).
/// Gradient engines replay the original op stream per row, so this seam
/// fans rows (not gate-major chunks) out across the pool and never fuses.
///
/// # Panics
///
/// As for the underlying engine — see [`gradient::parameter_shift`],
/// [`gradient::parameter_shift_noisy`].
pub fn gradients_batch(
    circuit: &Circuit,
    engine: GradEngine,
    inputs: &Matrix,
    params: &[f64],
    observables: &[Observable],
) -> Vec<Gradients> {
    let _span = hqnn_telemetry::span("qsim.gradients_batch");
    hqnn_runtime::par_map_range(inputs.rows(), |r| {
        let row = inputs.row(r);
        match engine {
            GradEngine::ParameterShift => {
                gradient::parameter_shift(circuit, row, params, observables)
            }
            GradEngine::ParameterShiftNoisy(noise) => {
                gradient::parameter_shift_noisy(circuit, row, params, observables, noise)
            }
        }
    })
}

/// Computes the adjoint vector-Jacobian product ([`gradient::adjoint_vjp`])
/// for every row of `inputs`, weighting observable `o` of row `r` by
/// `weights[(r, o)]`; returned in row order, bitwise identical to calling
/// the engine per row at any `HQNN_THREADS`. This is the training seam: one
/// reverse sweep per row, rows fanned out across the pool.
///
/// # Panics
///
/// As for [`gradient::adjoint_vjp`]; additionally if `weights` is not
/// `(inputs.rows(), observables.len())`.
pub fn vjp_batch(
    circuit: &Circuit,
    inputs: &Matrix,
    params: &[f64],
    observables: &[Observable],
    weights: &Matrix,
) -> Vec<Vjp> {
    assert_eq!(
        weights.shape(),
        (inputs.rows(), observables.len()),
        "one weight per row and observable"
    );
    let _span = hqnn_telemetry::span("qsim.vjp_batch");
    hqnn_runtime::par_map_range(inputs.rows(), |r| {
        gradient::adjoint_vjp(circuit, inputs.row(r), params, observables, weights.row(r))
    })
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
    fn gate_and_row_layouts_agree_bitwise_fused() {
        // Gate-major sweeps at fusion levels 1 and 2 against the per-row
        // loop through the same `FusePlan`.
        let c = encoder_circuit();
        let x = sample_batch();
        let params = [0.5, -0.3];
        for level in [1u8, 2] {
            crate::fuse::with_fusion_level(level, || {
                let gate = c.run_batch(&x, &params);
                assert_matches_per_row(&c, &x, &params, &gate);
            });
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
    fn gradients_batch_matches_each_engine_per_row() {
        let c = encoder_circuit();
        let x = sample_batch();
        let params = [0.5, -0.3];
        let obs = z_all(2);
        let noise = NoiseModel::depolarizing(0.05);
        let engines = [
            GradEngine::ParameterShift,
            GradEngine::ParameterShiftNoisy(&noise),
        ];
        for engine in engines {
            let batch =
                hqnn_runtime::with_threads(3, || gradients_batch(&c, engine, &x, &params, &obs));
            assert_eq!(batch.len(), x.rows());
            for (r, got) in batch.iter().enumerate() {
                let want = match engine {
                    GradEngine::ParameterShift => {
                        gradient::parameter_shift(&c, x.row(r), &params, &obs)
                    }
                    GradEngine::ParameterShiftNoisy(n) => {
                        gradient::parameter_shift_noisy(&c, x.row(r), &params, &obs, n)
                    }
                };
                assert_eq!(got, &want, "engine={engine:?} row={r}");
            }
        }
    }

    #[test]
    fn vjp_batch_matches_per_row_bitwise_at_any_thread_count() {
        let c = encoder_circuit();
        let x = sample_batch();
        let params = [0.5, -0.3];
        let obs = z_all(2);
        let w = Matrix::from_vec(5, 2, vec![0.3, -1.1, 0.0, 0.8, 2.0, 0.0, -0.4, 0.4, 1.5, -0.9]);
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
        let noise = NoiseModel::depolarizing(0.05);
        for engine in [
            GradEngine::ParameterShift,
            GradEngine::ParameterShiftNoisy(&noise),
        ] {
            assert!(
                gradients_batch(&c, engine, &x, &[0.0, 0.0], &z_all(2)).is_empty(),
                "engine={engine:?}"
            );
        }
        let w = Matrix::zeros(0, 2);
        assert!(vjp_batch(&c, &x, &[0.0, 0.0], &z_all(2), &w).is_empty());
    }

    #[test]
    fn empty_batch_is_fine_fused_and_threaded() {
        // Zero rows through the fused path still builds the shared plan on
        // the caller, then fans out nothing — under any thread budget.
        let c = encoder_circuit();
        let x = Matrix::zeros(0, 2);
        for threads in [1, 4] {
            hqnn_runtime::with_threads(threads, || {
                crate::fuse::with_fusion(true, || {
                    assert!(c.run_batch(&x, &[0.0, 0.0]).is_empty());
                    let e = c.expectations_batch(&x, &[0.0, 0.0], &z_all(2));
                    assert_eq!(e.shape(), (0, 2));
                });
            });
        }
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
