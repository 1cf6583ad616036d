//! A circuit compiled once for batched forward and adjoint backward passes.
//!
//! A [`Plan`] turns a [`Circuit`]'s op list into sweep steps one time:
//! fixed gates get their matrix (and its adjoint) resolved at compile
//! time, trainable gates become slots bound per batch, input-fed gates
//! per-row steps. Every batched seam runs the same plan — the forward
//! seams of [`crate::batch`], the training forward [`Plan::record`] and
//! backward [`Plan::vjp_into`], and the single-row adjoint engines — so a
//! circuit that never changes (a `QuantumLayer`'s) is compiled once for
//! its lifetime, not once per call.
//!
//! Each batch binds the trainable matrices with one `sin`/`cos` per gate,
//! and the forward keeps them, and each chunk's per-row input-gate
//! matrices, on the [`BatchTape`] beside the final states. The reverse
//! sweep then takes `U† = dagger(U)` and `dU` from those same matrices
//! (`GateKind::dmatrix_from`, bitwise [`GateKind::dmatrix`]), so the
//! backward evaluates no trigonometry and reads no inputs. A tape keeps
//! its buffers across batches of the same shape and the sweep's working
//! memory is kept per thread, so a warmed-up training step allocates
//! nothing here.
//!
//! The chunk routines are `#[inline(always)]` bodies that take their
//! kernels as closures; `crate::kernels` compiles them into a baseline
//! and an AVX2 set, and each chunk of a forward or backward runs the set
//! [`hqnn_runtime::simd`] picks.

use std::cell::RefCell;

use hqnn_tensor::Matrix;

use crate::batch_state::BatchState;
use crate::circuit::{Circuit, ParamSource, Wires};
use crate::gates::{dagger, GateKind, Matrix2};
use crate::gradient::Vjp;
use crate::kernels::{avx2, baseline};
use crate::observable::Observable;
use crate::state::{add_weighted, Mats};

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

/// One compiled op.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Unparametrized or fixed-angle gate: `U` and `U†` resolved once, at
    /// compile time, as `fixed[f]`.
    Fixed { f: usize, wires: Wires },
    /// Trainable gate: its `U` is bound per batch as `bound[b]`.
    Trainable {
        kind: GateKind,
        wires: Wires,
        slot: usize,
        b: usize,
    },
    /// Input-fed gate `g`: one `U` per row, kept on the chunk.
    Input {
        kind: GateKind,
        wires: Wires,
        slot: usize,
        g: usize,
    },
    /// SWAP: self-inverse and never parametrized.
    Swap { a: usize, b: usize },
}

/// A circuit compiled once into gate-major sweep steps, shared by the
/// forward and the adjoint backward of every batch run through it.
///
/// Each row runs through *the same kernels in the same order with the same
/// matrices* as [`Circuit::run`], so every amplitude, expectation and
/// gradient is bitwise identical to the per-row engines at any
/// `HQNN_THREADS`.
///
/// # Example
///
/// ```
/// use hqnn_qsim::{adjoint_vjp, BatchTape, EntanglerKind, Observable, Plan, QnnTemplate};
/// use hqnn_tensor::Matrix;
///
/// let template = QnnTemplate::new(3, 2, EntanglerKind::Basic);
/// let circuit = template.build();
/// let plan = Plan::new(&circuit);
/// let obs: Vec<_> = (0..3).map(Observable::z).collect();
/// let params = vec![0.3; template.param_count()];
/// let x = Matrix::filled(4, 3, 0.5);
///
/// // Training step: record the forward, then differentiate from the tape.
/// let mut tape = BatchTape::default();
/// let out = plan.record(&mut tape, &x, &params, &obs);
/// assert_eq!(out, plan.expectations(&x, &params, &obs));
/// let w = Matrix::filled(4, 3, 1.0);
/// let (mut d_params, mut d_inputs) = (vec![0.0; params.len()], Matrix::zeros(4, 3));
/// plan.vjp_into(&mut tape, &obs, &w, &mut d_params, &mut d_inputs);
/// let row = adjoint_vjp(&circuit, x.row(2), &params, &obs, w.row(2));
/// assert_eq!(d_inputs.row(2), &row.d_inputs[..]);
/// ```
#[derive(Clone, Debug)]
pub struct Plan {
    n_qubits: usize,
    n_inputs: usize,
    n_trainable: usize,
    steps: Vec<Step>,
    /// `(U, U†)` of the fixed steps, each distinct matrix once.
    fixed: Vec<(Matrix2, Matrix2)>,
    /// Trainable steps (the length of a bound matrix list).
    n_bound: usize,
    /// Input-fed steps (matrices kept per row).
    n_input_gates: usize,
}

/// One chunk of a batch: its rows' states and the per-row matrices of
/// every input-fed gate, `row_ms[g·rows + j]` for gate `g` and row `j`.
#[derive(Clone, Debug)]
pub(crate) struct Chunk {
    row0: usize,
    psi: BatchState,
    row_ms: Vec<Matrix2>,
    /// Single-`Z` readout wires, then the expectations read from `psi`,
    /// observable-major: `values[o·rows + j]`.
    wires: Vec<usize>,
    values: Vec<f64>,
    /// The last backward's per-row products, as in [`Work`].
    d_params: Vec<f64>,
    d_inputs: Vec<f64>,
}

impl Chunk {
    /// A chunk of `rows` ground states from batch row `row0`; it keeps
    /// every input-fed gate's matrices when `keep` is set (a backward
    /// will need them), else room for one gate's.
    fn new(plan: &Plan, row0: usize, rows: usize, keep: bool) -> Self {
        let gates = if keep {
            plan.n_input_gates
        } else {
            plan.n_input_gates.min(1)
        };
        Self {
            row0,
            psi: BatchState::new(plan.n_qubits, rows),
            row_ms: vec![[[crate::C64::ZERO; 2]; 2]; gates * rows],
            wires: Vec::new(),
            values: Vec::new(),
            d_params: Vec::new(),
            d_inputs: Vec::new(),
        }
    }

    fn rows(&self) -> usize {
        self.psi.rows()
    }
}

thread_local! {
    /// The reverse sweep's working memory on this thread, shared by every
    /// plan that runs here and reallocated only when the chunk shape
    /// changes — so a warm training step allocates none, and a layer keeps
    /// only what its forward recorded.
    static WORK: RefCell<Option<Work>> = const { RefCell::new(None) };
}

/// Runs `f` on this thread's reverse-sweep memory, sized for a chunk of
/// `rows` rows of `n_qubits` qubits.
fn with_work<R>(n_qubits: usize, rows: usize, f: impl FnOnce(&mut Work) -> R) -> R {
    WORK.with(|cell| {
        let mut cell = cell.borrow_mut();
        if cell.as_ref().is_some_and(|w| !w.fits(n_qubits, rows)) {
            *cell = None;
        }
        f(cell.get_or_insert_with(|| Work::new(n_qubits, rows)))
    })
}

/// Working memory of one chunk's reverse sweep.
#[derive(Debug)]
pub(crate) struct Work {
    psi: BatchState,
    lambda: BatchState,
    /// `O|ψ⟩` of one observable, for seeds that are not all single-`Z`.
    term: Option<BatchState>,
    /// Weights observable-major, `w[o·rows + j]`, and single-`Z` wires.
    w: Vec<f64>,
    wires: Vec<usize>,
    inner: Vec<f64>,
    invs: Vec<Matrix2>,
    dms: Vec<Matrix2>,
    /// Per-row results, row-major: `rows × n_trainable` and
    /// `rows × n_inputs`.
    d_params: Vec<f64>,
    d_inputs: Vec<f64>,
}

impl Work {
    fn new(n_qubits: usize, rows: usize) -> Self {
        Self {
            psi: BatchState::zeroed(n_qubits, rows),
            lambda: BatchState::zeroed(n_qubits, rows),
            term: None,
            w: Vec::new(),
            wires: Vec::new(),
            inner: vec![0.0; rows],
            invs: Vec::with_capacity(rows),
            dms: Vec::with_capacity(rows),
            d_params: Vec::new(),
            d_inputs: Vec::new(),
        }
    }

    fn fits(&self, n_qubits: usize, rows: usize) -> bool {
        (self.psi.n_qubits(), self.psi.rows()) == (n_qubits, rows)
    }

    /// Row `j`'s vector-Jacobian product.
    fn row_vjp(&self, plan: &Plan, j: usize) -> Vjp {
        let (nt, ni) = (plan.n_trainable, plan.n_inputs);
        Vjp {
            d_params: self.d_params[j * nt..(j + 1) * nt].to_vec(),
            d_inputs: self.d_inputs[j * ni..(j + 1) * ni].to_vec(),
        }
    }
}

/// What a training forward keeps for the adjoint backward: the final
/// statevectors of each gate-major chunk, the trainable matrices they were
/// simulated with and every row's input-gate matrices.
///
/// [`Plan::record`] (or [`Circuit::record_batch`]) fills it;
/// [`Plan::vjp_into`] and [`BatchTape::vjp`] read it without consuming
/// it, so one forward can feed any number of backward passes, each
/// differentiating at the recorded parameters and inputs. Recording into
/// a tape reuses its buffers when the batch has the shape of the last one.
#[derive(Clone, Debug, Default)]
pub struct BatchTape {
    rows: usize,
    bound: Vec<Matrix2>,
    chunks: Vec<Chunk>,
}

impl BatchTape {
    /// Rows of the recorded batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Computes the adjoint vector-Jacobian product
    /// ([`crate::adjoint_vjp`]) for every recorded row, weighting
    /// observable `o` of row `r` by `weights[(r, o)]`; returned in row
    /// order, bitwise identical to calling the engine per row at any
    /// `HQNN_THREADS`.
    ///
    /// `circuit` must be the one the tape was recorded with and `inputs`
    /// the recorded batch. The reverse sweep reads the matrices the forward
    /// kept, not the inputs, so only the batch's shape is checked against
    /// the tape. Training uses [`Plan::vjp_into`], which writes into
    /// caller buffers instead of returning per-row vectors.
    ///
    /// # Panics
    ///
    /// If `inputs` does not have the recorded row count or binds too few
    /// inputs, `weights` is not `(rows, observables.len())`, or `circuit`
    /// does not match the recorded one.
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
        let plan = Plan::new(circuit);
        plan.check_inputs(inputs);
        plan.check_tape(self, observables, weights);
        let _span = hqnn_telemetry::span("qsim.vjp_batch");
        let chunks = hqnn_runtime::par_map_range(self.chunks.len(), |c| {
            let chunk = &self.chunks[c];
            with_work(plan.n_qubits, chunk.rows(), |work| {
                plan.vjp_chunk(&self.bound, chunk, observables, weights, work);
                (0..chunk.rows())
                    .map(|j| work.row_vjp(&plan, j))
                    .collect::<Vec<_>>()
            })
        });
        chunks.into_iter().flatten().collect()
    }
}

impl Plan {
    /// Compiles `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let (mut n_bound, mut n_input_gates) = (0, 0);
        let mut fixed: Vec<(Matrix2, Matrix2)> = Vec::new();
        let steps = circuit
            .ops()
            .iter()
            .map(|op| match (op.wires, op.param) {
                (Wires::Two(a, b), _) if op.kind == GateKind::Swap => Step::Swap { a, b },
                (wires, ParamSource::Input(slot)) => {
                    n_input_gates += 1;
                    Step::Input {
                        kind: op.kind,
                        wires,
                        slot,
                        g: n_input_gates - 1,
                    }
                }
                (wires, ParamSource::Trainable(slot)) => {
                    n_bound += 1;
                    Step::Trainable {
                        kind: op.kind,
                        wires,
                        slot,
                        b: n_bound - 1,
                    }
                }
                (wires, param) => {
                    let theta = if let ParamSource::Fixed(theta) = param {
                        theta
                    } else {
                        0.0
                    };
                    let m = op.kind.matrix(theta);
                    // Shared only when bit-identical, zero signs included.
                    let bits =
                        |m: &Matrix2| m.map(|row| row.map(|z| (z.re.to_bits(), z.im.to_bits())));
                    let f = fixed
                        .iter()
                        .position(|(known, _)| bits(known) == bits(&m))
                        .unwrap_or_else(|| {
                            fixed.push((m, dagger(&m)));
                            fixed.len() - 1
                        });
                    Step::Fixed { f, wires }
                }
            })
            .collect();
        Self {
            n_qubits: circuit.n_qubits(),
            n_inputs: circuit.input_count(),
            n_trainable: circuit.trainable_count(),
            steps,
            fixed,
            n_bound,
            n_input_gates,
        }
    }

    /// Checks that a batch binds every input slot and `params` every
    /// trainable one.
    ///
    /// # Panics
    ///
    /// If `inputs.cols() < input_count()` or
    /// `params.len() < trainable_count()`.
    fn check(&self, inputs: &Matrix, params: &[f64]) {
        self.check_inputs(inputs);
        assert!(
            params.len() >= self.n_trainable,
            "circuit expects {} trainable params, got {}",
            self.n_trainable,
            params.len()
        );
    }

    fn check_inputs(&self, inputs: &Matrix) {
        assert!(
            inputs.cols() >= self.n_inputs,
            "batch rows bind {} inputs, circuit expects {}",
            inputs.cols(),
            self.n_inputs
        );
    }

    fn check_tape(&self, tape: &BatchTape, observables: &[Observable], weights: &Matrix) {
        assert_eq!(
            weights.shape(),
            (tape.rows, observables.len()),
            "one weight per row and observable"
        );
        if let Some(first) = tape.chunks.first() {
            assert_eq!(
                first.psi.n_qubits(),
                self.n_qubits,
                "tape recorded a different circuit width"
            );
            assert_eq!(
                (tape.bound.len(), first.row_ms.len()),
                (self.n_bound, self.n_input_gates * first.rows()),
                "tape recorded a different circuit"
            );
        }
    }

    /// `(row0, rows)` of each gate-major chunk of an `n_rows` batch.
    fn layout(&self, n_rows: usize) -> impl Iterator<Item = (usize, usize)> {
        let chunk = chunk_rows_for(self.n_qubits);
        (0..n_rows.div_ceil(chunk)).map(move |c| (c * chunk, chunk.min(n_rows - c * chunk)))
    }

    /// The trainable matrices at `params`, one `sin`/`cos` per gate.
    fn bind(&self, params: &[f64], bound: &mut Vec<Matrix2>) {
        bound.clear();
        bound.extend(self.steps.iter().filter_map(|step| match *step {
            Step::Trainable { kind, slot, .. } => Some(kind.matrix(params[slot])),
            _ => None,
        }));
    }

    /// Sweeps the plan across one chunk whose states are `|0…0⟩`, keeping
    /// each input-fed gate's per-row matrices, with `apply(state, mats,
    /// wires)` applying each non-SWAP op — what [`Circuit::run`] does to
    /// each row alone, bitwise. Telemetry is emitted at chunk granularity
    /// with the same totals a per-row [`Circuit::run`] loop would produce.
    #[inline(always)]
    pub(crate) fn sweep_with(
        &self,
        bound: &[Matrix2],
        inputs: &Matrix,
        chunk: &mut Chunk,
        apply: impl Fn(&mut BatchState, Mats, Wires),
    ) {
        let rows = chunk.rows();
        hqnn_telemetry::counter("qsim.circuit_runs", rows as u64);
        hqnn_telemetry::counter("qsim.gate_applies", (self.steps.len() * rows) as u64);
        hqnn_telemetry::gauge_max("qsim.statevector_len", (1u64 << self.n_qubits) as f64);
        let psi = &mut chunk.psi;
        for step in &self.steps {
            match *step {
                Step::Fixed { f, wires } => apply(psi, Mats::Shared(&self.fixed[f].0), wires),
                Step::Trainable { wires, b, .. } => apply(psi, Mats::Shared(&bound[b]), wires),
                Step::Swap { a, b } => psi.apply_swap_all(a, b),
                Step::Input {
                    kind,
                    wires,
                    slot,
                    g,
                } => {
                    let g = if chunk.row_ms.len() > rows { g } else { 0 };
                    let ms = &mut chunk.row_ms[g * rows..(g + 1) * rows];
                    for (j, m) in ms.iter_mut().enumerate() {
                        *m = kind.matrix(inputs[(chunk.row0 + j, slot)]);
                    }
                    apply(psi, Mats::per_lane(ms), wires);
                }
            }
        }
    }

    /// Sweeps one chunk under a `qsim.batch_sweep` span, then reads every
    /// observable of every row into `chunk.values` — all single-`Z`
    /// readouts in one pass over the states — on the AVX2 kernel set when
    /// the CPU has AVX2, else on the baseline set.
    fn forward_chunk(
        &self,
        bound: &[Matrix2],
        inputs: &Matrix,
        observables: &[Observable],
        chunk: &mut Chunk,
    ) {
        hqnn_runtime::simd(
            (self, bound, inputs, observables, chunk),
            baseline::forward_chunk,
            avx2::forward_chunk,
        )
    }

    /// [`Plan::forward_chunk`]'s body: `sweep(chunk)` sweeps the chunk,
    /// `read_z(state, wires, out)` reads single-`Z` expectations.
    #[inline(always)]
    pub(crate) fn forward_chunk_with(
        &self,
        observables: &[Observable],
        chunk: &mut Chunk,
        sweep: impl FnOnce(&mut Chunk),
        read_z: impl FnOnce(&BatchState, &[usize], &mut [f64]),
    ) {
        {
            let _span = hqnn_telemetry::span("qsim.batch_sweep");
            sweep(chunk);
        }
        let rows = chunk.rows();
        chunk.values.resize(rows * observables.len(), 0.0);
        chunk.wires.clear();
        let n = self.n_qubits;
        if observables
            .iter()
            .all(|o| o.single_z(n).map(|w| chunk.wires.push(w)).is_some())
        {
            read_z(&chunk.psi, &chunk.wires, &mut chunk.values);
        } else {
            for (obs, out) in observables.iter().zip(chunk.values.chunks_exact_mut(rows)) {
                obs.expectations_into(&chunk.psi, out);
            }
        }
    }

    /// Copies a chunk's observable-major `values` into its rows of `out`,
    /// starting at row `row0`.
    fn scatter(row0: usize, values: &[f64], out: &mut Matrix) {
        let n_obs = out.cols();
        if n_obs == 0 {
            return;
        }
        let rows = values.len() / n_obs;
        let dst = &mut out.as_mut_slice()[row0 * n_obs..(row0 + rows) * n_obs];
        for (j, row) in dst.chunks_exact_mut(n_obs).enumerate() {
            for (o, v) in row.iter_mut().enumerate() {
                *v = values[o * rows + j];
            }
        }
    }

    /// Evaluates every observable on every row of `inputs`, returning a
    /// `(inputs.rows(), observables.len())` matrix, with nothing kept.
    /// With no observables nothing is simulated.
    ///
    /// # Panics
    ///
    /// If `inputs` binds too few inputs, `params` too few parameters, or an
    /// observable references a wire outside the circuit.
    pub fn expectations(
        &self,
        inputs: &Matrix,
        params: &[f64],
        observables: &[Observable],
    ) -> Matrix {
        self.check(inputs, params);
        let _span = hqnn_telemetry::span("qsim.expectations_batch");
        let mut out = Matrix::zeros(inputs.rows(), observables.len());
        if observables.is_empty() {
            return out;
        }
        let mut bound = Vec::with_capacity(self.n_bound);
        self.bind(params, &mut bound);
        let layout: Vec<_> = self.layout(inputs.rows()).collect();
        // Each chunk's states and matrices are dropped as soon as its
        // values are read: inference keeps nothing.
        let values = hqnn_runtime::par_map_range(layout.len(), |c| {
            let (row0, rows) = layout[c];
            let mut chunk = Chunk::new(self, row0, rows, false);
            self.forward_chunk(&bound, inputs, observables, &mut chunk);
            chunk.values
        });
        for ((row0, _), values) in layout.iter().zip(&values) {
            Self::scatter(*row0, values, &mut out);
        }
        out
    }

    /// The final states of every row of `inputs`, one chunk at a time.
    pub(crate) fn states(&self, inputs: &Matrix, params: &[f64]) -> Vec<BatchState> {
        self.check(inputs, params);
        let mut bound = Vec::with_capacity(self.n_bound);
        self.bind(params, &mut bound);
        let layout: Vec<_> = self.layout(inputs.rows()).collect();
        hqnn_runtime::par_map_range(layout.len(), |c| {
            let (row0, rows) = layout[c];
            let mut chunk = Chunk::new(self, row0, rows, false);
            self.forward_chunk(&bound, inputs, &[], &mut chunk);
            chunk.psi
        })
    }

    /// The training forward: evaluates every observable on every row of
    /// `inputs` — bitwise [`Plan::expectations`] — and records into `tape`
    /// what [`Plan::vjp_into`] differentiates from. The tape's buffers are
    /// reused when the batch has the shape of the one it last held.
    ///
    /// # Panics
    ///
    /// As for [`Plan::expectations`].
    pub fn record(
        &self,
        tape: &mut BatchTape,
        inputs: &Matrix,
        params: &[f64],
        observables: &[Observable],
    ) -> Matrix {
        self.check(inputs, params);
        let _span = hqnn_telemetry::span("qsim.expectations_batch");
        let n_rows = inputs.rows();
        let fits = tape.chunks.len() == n_rows.div_ceil(chunk_rows_for(self.n_qubits))
            && tape
                .chunks
                .iter()
                .zip(self.layout(n_rows))
                .all(|(c, (row0, rows))| {
                    (c.row0, c.rows(), c.psi.n_qubits(), c.row_ms.len())
                        == (row0, rows, self.n_qubits, self.n_input_gates * rows)
                });
        if fits {
            for chunk in &mut tape.chunks {
                chunk.psi.reset();
            }
        } else {
            tape.chunks = self
                .layout(n_rows)
                .map(|(row0, rows)| Chunk::new(self, row0, rows, true))
                .collect();
        }
        tape.rows = n_rows;
        self.bind(params, &mut tape.bound);
        let bound = &tape.bound;
        hqnn_runtime::par_for_each_mut(&mut tape.chunks, |_, chunk| {
            self.forward_chunk(bound, inputs, observables, chunk);
        });
        let mut out = Matrix::zeros(n_rows, observables.len());
        for chunk in &tape.chunks {
            Self::scatter(chunk.row0, &chunk.values, &mut out);
        }
        out
    }

    /// The training backward: the adjoint vector-Jacobian product of every
    /// row `tape` recorded, weighting observable `o` of row `r` by
    /// `weights[(r, o)]`. Writes `Σ_r dL/dθ` — the rows' products summed
    /// in row order from `+0` — into `d_params`, and row `r`'s `dL/dx`
    /// into the first [`Circuit::input_count`] columns of
    /// `d_inputs.row(r)`. Each row's product is bitwise
    /// [`crate::adjoint_vjp`]'s at any `HQNN_THREADS`. Nothing is
    /// allocated once the tape and the thread's sweep memory are warm.
    ///
    /// # Panics
    ///
    /// If `weights` is not `(tape.rows(), observables.len())`,
    /// `d_params.len()` is not the trainable count, `d_inputs` has fewer
    /// rows or input columns than the batch, or the tape was recorded by a
    /// different plan.
    pub fn vjp_into(
        &self,
        tape: &mut BatchTape,
        observables: &[Observable],
        weights: &Matrix,
        d_params: &mut [f64],
        d_inputs: &mut Matrix,
    ) {
        self.check_tape(tape, observables, weights);
        assert_eq!(
            d_params.len(),
            self.n_trainable,
            "one gradient per parameter"
        );
        assert!(
            d_inputs.rows() >= tape.rows && d_inputs.cols() >= self.n_inputs,
            "input gradient buffer too small"
        );
        let _span = hqnn_telemetry::span("qsim.vjp_batch");
        let bound = &tape.bound;
        hqnn_runtime::par_for_each_mut(&mut tape.chunks, |_, chunk| {
            with_work(self.n_qubits, chunk.rows(), |work| {
                self.vjp_chunk(bound, chunk, observables, weights, work);
                chunk.d_params.clone_from(&work.d_params);
                chunk.d_inputs.clone_from(&work.d_inputs);
            });
        });
        d_params.fill(0.0);
        let (nt, ni) = (self.n_trainable, self.n_inputs);
        for chunk in &tape.chunks {
            for j in 0..chunk.rows() {
                for (acc, g) in d_params
                    .iter_mut()
                    .zip(&chunk.d_params[j * nt..(j + 1) * nt])
                {
                    *acc += g;
                }
                d_inputs.row_mut(chunk.row0 + j)[..ni]
                    .copy_from_slice(&chunk.d_inputs[j * ni..(j + 1) * ni]);
            }
        }
    }

    /// Vector-Jacobian products of one chunk's rows into `work`: sums each
    /// row's seed `λ = Σ_o w_o·O_o|ψ⟩` (zero weights skipped) and runs one
    /// reverse sweep, on the AVX2 kernel set when the CPU has AVX2, else on
    /// the baseline set.
    fn vjp_chunk(
        &self,
        bound: &[Matrix2],
        chunk: &Chunk,
        observables: &[Observable],
        weights: &Matrix,
        work: &mut Work,
    ) {
        hqnn_runtime::simd(
            (self, bound, chunk, observables, weights, work),
            baseline::vjp_chunk,
            avx2::vjp_chunk,
        )
    }

    /// [`Plan::vjp_chunk`]'s body: `seed(λ, ψ, wires, weights)` builds an
    /// all-single-`Z` seed, `reverse(work)` runs the reverse sweep.
    #[inline(always)]
    pub(crate) fn vjp_chunk_with(
        &self,
        chunk: &Chunk,
        observables: &[Observable],
        weights: &Matrix,
        work: &mut Work,
        seed: impl FnOnce(&mut BatchState, &BatchState, &[usize], &[f64]),
        reverse: impl FnOnce(&mut Work),
    ) {
        let _span = hqnn_telemetry::span("qsim.adjoint");
        let rows = chunk.rows();
        hqnn_telemetry::counter("qsim.adjoint_passes", rows as u64);
        work.w.clear();
        for o in 0..observables.len() {
            work.w
                .extend((0..rows).map(|j| weights[(chunk.row0 + j, o)]));
        }
        work.wires.clear();
        let n = self.n_qubits;
        if observables
            .iter()
            .all(|o| o.single_z(n).map(|w| work.wires.push(w)).is_some())
        {
            seed(&mut work.lambda, &chunk.psi, &work.wires, &work.w);
        } else {
            work.lambda.zero();
            let term = work.term.get_or_insert_with(|| BatchState::zeroed(n, rows));
            for (obs, w) in observables.iter().zip(work.w.chunks_exact(rows)) {
                if w.iter().all(|&w| w == 0.0) {
                    continue;
                }
                term.copy_from(&chunk.psi);
                obs.apply_to_batch(term);
                add_weighted(&mut work.lambda, term, w);
            }
        }
        reverse(work);
    }

    /// The adjoint reverse sweep over one chunk, from its recorded final
    /// states and the seed already in `work.lambda`; the one reverse sweep
    /// every adjoint entry point runs.
    ///
    /// Walks the steps backwards: `ψ ← U†ψ` recovers each gate's input
    /// state, every differentiable gate adds `2·Re⟨λ|dU|ψ⟩` (one fused
    /// read-only pass per chunk) to its row's slot, and `λ ← U†λ` carries
    /// the seed along. `U†` and `dU` of parametrized gates come from the
    /// recorded `U` — no trigonometry — and each row sees the matrices,
    /// per-pair expressions and accumulation order of the textbook per-row
    /// sweep. `apply(state, mats, wires)` applies a non-SWAP op and
    /// `inner(λ, ψ, dU, wires, out)` writes every row's `Re⟨λ|dU|ψ⟩`.
    #[inline(always)]
    pub(crate) fn reverse_with(
        &self,
        bound: &[Matrix2],
        chunk: &Chunk,
        work: &mut Work,
        apply: impl Fn(&mut BatchState, Mats, Wires),
        inner: impl Fn(&BatchState, &BatchState, Mats, Wires, &mut [f64]),
    ) {
        let rows = chunk.rows();
        let (nt, ni) = (self.n_trainable, self.n_inputs);
        let Work {
            psi,
            lambda,
            inner: products,
            invs,
            dms,
            d_params,
            d_inputs,
            ..
        } = work;
        psi.copy_from(&chunk.psi);
        d_params.clear();
        d_params.resize(rows * nt, 0.0);
        d_inputs.clear();
        d_inputs.resize(rows * ni, 0.0);
        for step in self.steps.iter().rev() {
            match *step {
                Step::Swap { a, b } => {
                    psi.apply_swap_all(a, b);
                    lambda.apply_swap_all(a, b);
                }
                Step::Fixed { f, wires } => {
                    let inv = Mats::Shared(&self.fixed[f].1);
                    apply(psi, inv, wires);
                    apply(lambda, inv, wires);
                }
                Step::Trainable {
                    kind,
                    wires,
                    slot,
                    b,
                } => {
                    let (inv, dm) = reverse_pair(kind, &bound[b]);
                    apply(psi, Mats::Shared(&inv), wires);
                    inner(lambda, psi, Mats::Shared(&dm), wires, products);
                    for (j, p) in products.iter().enumerate() {
                        d_params[j * nt + slot] += 2.0 * p;
                    }
                    apply(lambda, Mats::Shared(&inv), wires);
                }
                Step::Input {
                    kind,
                    wires,
                    slot,
                    g,
                } => {
                    invs.clear();
                    dms.clear();
                    for u in &chunk.row_ms[g * rows..(g + 1) * rows] {
                        let (inv, dm) = reverse_pair(kind, u);
                        invs.push(inv);
                        dms.push(dm);
                    }
                    let inv = Mats::per_lane(invs);
                    apply(psi, inv, wires);
                    inner(lambda, psi, Mats::per_lane(dms), wires, products);
                    for (j, p) in products.iter().enumerate() {
                        d_inputs[j * ni + slot] += 2.0 * p;
                    }
                    apply(lambda, inv, wires);
                }
            }
        }
    }

    /// [`crate::adjoint`]'s Jacobian of one row (`x` is `1 × inputs`):
    /// per observable, one reverse sweep seeded with `λ = O|ψ⟩`, on the
    /// baseline kernel set.
    pub(crate) fn jacobian_row(
        &self,
        x: &Matrix,
        params: &[f64],
        observables: &[Observable],
        grads: &mut crate::Gradients,
    ) {
        let (bound, chunk) = self.forward_row(x, params);
        with_work(self.n_qubits, 1, |work| {
            for (o, obs) in observables.iter().enumerate() {
                let mut e = [0.0];
                obs.expectations_into(&chunk.psi, &mut e);
                grads.expectations.push(e[0]);
                work.lambda.copy_from(&chunk.psi);
                obs.apply_to_batch(&mut work.lambda);
                baseline::reverse(self, &bound, &chunk, work);
                grads.d_params.row_mut(o).copy_from_slice(&work.d_params);
                grads.d_inputs.row_mut(o).copy_from_slice(&work.d_inputs);
            }
        });
    }

    /// [`crate::adjoint_vjp`] of one row (`x` is `1 × inputs`, `weights`
    /// `1 × observables`): the batch seam's chunk routine with one lane,
    /// on the baseline kernel set like every single-row oracle.
    pub(crate) fn vjp_row(
        &self,
        x: &Matrix,
        params: &[f64],
        observables: &[Observable],
        weights: &Matrix,
    ) -> Vjp {
        let (bound, chunk) = self.forward_row(x, params);
        with_work(self.n_qubits, 1, |work| {
            baseline::vjp_chunk((self, &bound, &chunk, observables, weights, work));
            work.row_vjp(self, 0)
        })
    }

    /// One row's final state and bound matrices, swept without a span on
    /// the baseline kernel set.
    fn forward_row(&self, x: &Matrix, params: &[f64]) -> (Vec<Matrix2>, Chunk) {
        let mut bound = Vec::with_capacity(self.n_bound);
        self.bind(params, &mut bound);
        let mut chunk = Chunk::new(self, 0, 1, true);
        baseline::sweep(self, &bound, x, &mut chunk);
        (bound, chunk)
    }
}

/// `(U†, dU/dθ)` of a parametrized gate from its recorded `U`.
fn reverse_pair(kind: GateKind, u: &Matrix2) -> (Matrix2, Matrix2) {
    let dm = kind
        .dmatrix_from(u)
        // lint:allow(panic): only parametrized gates compile to trainable or input steps
        .expect("parametrized gate");
    (dagger(u), dm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{EntanglerKind, QnnTemplate, RotationAxis};
    use crate::circuit::Op;
    use crate::kernels::tests::assert_bits_or_nan;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    /// [`Plan::record`]'s outputs and [`Plan::vjp_into`]'s `(d_params,
    /// d_inputs)` computed chunk by chunk on the baseline kernel set only.
    fn baseline_record_and_vjp(
        plan: &Plan,
        x: &Matrix,
        params: &[f64],
        obs: &[Observable],
        w: &Matrix,
    ) -> (Matrix, Vec<f64>, Matrix) {
        let (nt, ni) = (plan.n_trainable, plan.n_inputs);
        let mut bound = Vec::new();
        plan.bind(params, &mut bound);
        let mut out = Matrix::zeros(x.rows(), obs.len());
        let (mut d_params, mut d_inputs) = (vec![0.0; nt], Matrix::zeros(x.rows(), ni));
        for (row0, rows) in plan.layout(x.rows()) {
            let mut chunk = Chunk::new(plan, row0, rows, true);
            baseline::forward_chunk((plan, &bound, x, obs, &mut chunk));
            Plan::scatter(row0, &chunk.values, &mut out);
            with_work(plan.n_qubits, rows, |work| {
                baseline::vjp_chunk((plan, &bound, &chunk, obs, w, work));
                for j in 0..rows {
                    let row = &work.d_params[j * nt..(j + 1) * nt];
                    for (acc, g) in d_params.iter_mut().zip(row) {
                        *acc += g;
                    }
                    d_inputs.row_mut(row0 + j)[..ni]
                        .copy_from_slice(&work.d_inputs[j * ni..(j + 1) * ni]);
                }
            });
        }
        (out, d_params, d_inputs)
    }

    #[test]
    fn dispatched_chunks_match_the_baseline_set_bitwise() {
        // `record`, `vjp_into` and `expectations` pick a kernel set per
        // chunk through `hqnn_runtime::simd` — the AVX2 set on a CPU that
        // has it — and must return the baseline set's bits: BEL and SEL
        // templates of 1–7 qubits and depth 1–3, X/Y/Z encodings, one
        // chunk or several, Z readouts (the one-pass seed) or Pauli
        // strings, inputs with a ±inf or NaN row.
        let kinds = [EntanglerKind::Basic, EntanglerKind::Strong];
        let axes = [RotationAxis::X, RotationAxis::Y, RotationAxis::Z];
        for (i, (q, depth, rows)) in [
            (1, 1, 3),
            (2, 3, 8),
            (3, 2, 8),
            (4, 2, 40),
            (5, 1, 17),
            (7, 3, 9),
        ]
        .into_iter()
        .enumerate()
        {
            for kind in kinds {
                let template =
                    QnnTemplate::new(q, depth, kind).with_encoding_axis(axes[(i + q) % 3]);
                let plan = Plan::new(&template.build());
                let angle = |k: usize| ((k * 37 + i) as f64 * 0.618_033_988_75).fract() * 6.0 - 3.0;
                let params: Vec<f64> = (0..template.param_count()).map(angle).collect();
                let mut x =
                    Matrix::from_vec(rows, q, (0..rows * q).map(|k| angle(k + 101)).collect());
                if rows > 8 {
                    x[(rows - 1, 0)] = f64::INFINITY;
                    x[(rows - 2, q - 1)] = f64::NAN;
                }
                let z: Vec<_> = (0..q).map(Observable::z).collect();
                let strings = vec![Observable::x(0), Observable::y(q - 1), Observable::z(q / 2)];
                for obs in [&z, &strings] {
                    let w = Matrix::from_vec(
                        rows,
                        obs.len(),
                        (0..rows * obs.len())
                            .map(|k| if k % 5 == 0 { 0.0 } else { angle(k + 7) })
                            .collect(),
                    );
                    let at = format!(
                        "{} {q}q depth {depth}, {rows} rows, {} observables",
                        kind.short_name(),
                        obs.len()
                    );
                    let (want, want_dp, want_di) =
                        baseline_record_and_vjp(&plan, &x, &params, obs, &w);
                    let got = plan.expectations(&x, &params, obs);
                    assert_bits_or_nan(
                        got.as_slice(),
                        want.as_slice(),
                        &format!("{at}: expectations"),
                    );
                    let mut tape = BatchTape::default();
                    let got = plan.record(&mut tape, &x, &params, obs);
                    assert_bits_or_nan(got.as_slice(), want.as_slice(), &format!("{at}: record"));
                    let (mut dp, mut di) = (vec![0.0; params.len()], Matrix::zeros(rows, q));
                    plan.vjp_into(&mut tape, obs, &w, &mut dp, &mut di);
                    assert_bits_or_nan(&dp, &want_dp, &format!("{at}: d_params"));
                    assert_bits_or_nan(
                        di.as_slice(),
                        want_di.as_slice(),
                        &format!("{at}: d_inputs"),
                    );
                }
            }
        }
    }

    fn bits(m: &Matrix2) -> Vec<u64> {
        m.iter()
            .flatten()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect()
    }

    /// The `U†` and `dU` the reverse sweep builds from what the forward
    /// recorded — per-row input-gate matrices and bound trainable ones —
    /// equal `dagger(kind.matrix(θ))` and `kind.dmatrix(θ)` bit for bit,
    /// at finite, tiny, huge and non-finite angles alike.
    #[test]
    fn backward_matrices_from_the_tape_equal_dagger_and_dmatrix_bitwise() {
        let angles = [
            0.0,
            -0.0,
            5e-324,
            1e-8,
            FRAC_PI_2,
            -FRAC_PI_2,
            PI,
            -PI,
            TAU,
            -TAU,
            1e6,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let x = Matrix::from_vec(angles.len(), 1, angles.to_vec());
        for kind in [
            GateKind::RX,
            GateKind::RY,
            GateKind::RZ,
            GateKind::PhaseShift,
            GateKind::Crx,
            GateKind::Cry,
            GateKind::Crz,
        ] {
            let wires = if kind.arity() == 1 {
                Wires::One(1)
            } else {
                Wires::Two(0, 1)
            };
            let mut c = Circuit::new(2);
            for param in [ParamSource::Input(0), ParamSource::Trainable(0)] {
                c.push(Op { kind, wires, param });
            }
            for &theta in &angles {
                let (_, tape) = c.record_batch(&x, &[theta], &[]);
                let [chunk] = &tape.chunks[..] else {
                    panic!("one chunk holds every angle");
                };
                let recorded = chunk
                    .row_ms
                    .iter()
                    .zip(&angles)
                    .chain([(&tape.bound[0], &theta)]);
                for (u, &a) in recorded {
                    let (inv, dm) = reverse_pair(kind, u);
                    let at = format!("{kind:?} θ={a:e}");
                    assert_eq!(bits(&inv), bits(&dagger(&kind.matrix(a))), "U† {at}");
                    assert_eq!(bits(&dm), bits(&kind.dmatrix(a).unwrap()), "dU {at}");
                }
            }
        }
    }
}
