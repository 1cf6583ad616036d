//! Gate fusion: collapse runs of adjacent single-qubit gates on the same
//! wire into one precomputed 2×2 matrix before the statevector sweep, and —
//! at level 2 — absorb CNOT/CZ-adjacent runs into fused 4×4 pair ops.
//!
//! The paper's ansätze emit exactly such runs — an encoding rotation
//! followed by a trainable `Rot` decomposed as `RZ·RY·RZ` puts up to four
//! consecutive single-qubit gates on every wire per layer — so fusing them
//! replaces four full-state sweeps with one. The pass has two halves:
//!
//! * [`FusePlan`] — a **structural** pass over the circuit IR, computed once
//!   per circuit (and compiled once per batch by
//!   [`crate::Circuit::run_batch`], at every level including 0): which ops
//!   collapse into which single-wire runs or two-wire pairs. Building the
//!   plan never looks at parameter values, so one plan serves every row of
//!   a batch.
//! * [`FusePlan::run`] — execution: resolve each segment's angles, multiply
//!   its matrices into one [`Matrix2`] (runs) or [`Matrix4`] (pairs), and
//!   apply it with the amplitude-pair or pair-quad kernel.
//!
//! # Fusion levels
//!
//! `HQNN_FUSE` selects a **level**: `0` (unset/off) applies every gate
//! individually — its plan is the trivial one, a `Direct` segment per op,
//! so the gate-major batch compiler has a single input type at every
//! level; `1`/`true`/`on` collapses single-qubit runs; `2` also
//! absorbs CNOT/CZ ops and the runs adjacent to them into 4×4 pair ops. A
//! pair segment opens at a CNOT/CZ, swallows the pending runs on its two
//! wires, keeps absorbing single-qubit gates on those wires and further
//! CNOT/CZ on the same pair, and closes when any other op touches one of
//! its wires (or at the end of the circuit). Reordering a pair's ops next
//! to each other is legal because every op between them acts on disjoint
//! wires and therefore commutes. Pairs are only kept where they win: a
//! closing pair whose ops would be cheaper as level-1 runs + direct applies
//! (by per-amplitude multiply count: 2 per collapsed run, 1 per controlled
//! apply, 4 per pair apply) is re-emitted in level-1 form instead.
//!
//! Fusion reassociates floating-point products (`U₃·(U₂·(U₁ψ))` becomes
//! `(U₃U₂U₁)·ψ`), so fused amplitudes differ from the scalar path in the
//! last ulps. It is therefore **opt-in**: enabled by `HQNN_FUSE` in the
//! environment or a scoped [`with_fusion`]/[`with_fusion_level`] override
//! (innermost wins), and benchmarked under its own `bench/baseline.json`
//! entries (`qsim.statevector_evolve_fused`, `qsim.run_batch_fused`,
//! `qsim.run_batch_fused2q`). The fused path is still **deterministic**: a
//! plan is a pure function of the circuit and level, so results are bitwise
//! identical run-to-run and at every thread count —
//! `crates/qsim/tests/batch_determinism.rs` holds it to the same bar as the
//! scalar runtime.
//!
//! Gradient engines never fuse. The adjoint reverse walk and the
//! parameter-shift rule both step gate-by-gate through the original op
//! stream (a fused block would straddle the trainable parameters it has to
//! differentiate), so [`crate::gradient`] pins its forward passes to
//! [`crate::Circuit::run_unfused`] and gradients are bitwise identical
//! whether fusion is enabled or not.

use std::cell::Cell;
use std::sync::OnceLock;

use crate::circuit::{Circuit, Op, Wires};
use crate::gates::{
    embed_controlled, embed_single, matmul2, matmul4, GateKind, Matrix2, Matrix4,
};
use crate::state::StateVector;

thread_local! {
    /// Scoped level override installed by [`with_fusion_level`]
    /// (`None` = no override).
    static OVERRIDE: Cell<Option<u8>> = const { Cell::new(None) };
}

/// The fusion level parsed from `HQNN_FUSE`, read once per process.
/// `1`/`true`/`on` (case-insensitive) select level 1, `2` selects level 2;
/// anything else (or unset) leaves fusion off.
fn env_fuse_level() -> u8 {
    static ENV: OnceLock<u8> = OnceLock::new();
    *ENV.get_or_init(|| {
        hqnn_telemetry::env::var("HQNN_FUSE")
            .map(|raw| hqnn_telemetry::env::parse_fuse_level(&raw))
            .unwrap_or(0)
    })
}

/// The fusion level forward circuit execution uses on the calling thread,
/// resolved as: [`with_fusion_level`] override → `HQNN_FUSE` → 0 (off).
/// Batch entry points resolve this **once on the caller** before fanning
/// rows out, so a scoped override governs the whole batch regardless of
/// which worker thread runs a row.
pub fn fusion_level() -> u8 {
    OVERRIDE.with(Cell::get).unwrap_or_else(env_fuse_level)
}

/// Whether forward circuit execution fuses gates on the calling thread
/// (i.e. [`fusion_level`] ≥ 1).
pub fn fusion_enabled() -> bool {
    fusion_level() >= 1
}

/// Runs `f` with gate fusion pinned on (level 1) or off for the calling
/// thread — the boolean spelling of [`with_fusion_level`], kept for the
/// common case of comparing fused and scalar execution.
pub fn with_fusion<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    with_fusion_level(u8::from(enabled), f)
}

/// Runs `f` with the fusion level pinned for the calling thread (nested
/// calls nest; the previous setting is restored afterwards, also on panic).
/// This is how tests compare fusion tiers inside one process, and how
/// benchmarks force a fused path without touching the environment.
pub fn with_fusion_level<R>(level: u8, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u8>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(level))));
    f()
}

/// One step of a fused program: a run of single-qubit ops collapsed into
/// one 2×2 apply, a two-wire pair collapsed into one 4×4 apply, or an op
/// passed through unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Segment {
    /// Indices (into `Circuit::ops`) of ≥ 2 single-qubit ops on `wire`,
    /// in application order, applied as one product matrix.
    Run { wire: usize, ops: Vec<usize> },
    /// Indices of ≥ 2 ops on the wire pair `(low, high)` — single-qubit
    /// gates on either wire plus ≥ 1 CNOT/CZ on the pair — applied as one
    /// 4×4 product matrix.
    Pair {
        low: usize,
        high: usize,
        ops: Vec<usize>,
    },
    /// An op applied as-is (unfused two-qubit ops and unfusable singletons).
    Direct(usize),
}

/// A fusion plan for one circuit: the structural result of collapsing every
/// maximal run of adjacent single-qubit gates per wire.
///
/// "Adjacent" is per-wire program order: a run on wire `w` is broken only by
/// a two-qubit op touching `w`. Single-qubit ops on *other* wires commute
/// with the run and do not break it.
///
/// # Example
///
/// ```
/// use hqnn_qsim::{Circuit, FusePlan, ParamSource};
///
/// let mut c = Circuit::new(2);
/// c.rz(0, ParamSource::Fixed(0.3));
/// c.ry(0, ParamSource::Fixed(-0.2));
/// c.rz(0, ParamSource::Fixed(1.1)); // three gates on wire 0 → one apply
/// c.cnot(0, 1);
/// let plan = FusePlan::new(&c);
/// assert_eq!(plan.fused_ops(), 2); // 4 ops execute as 2 segments
/// let fused = plan.run(&c, &[], &[]);
/// assert!(fused.approx_eq(&c.run_unfused(&[], &[]), 1e-12));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusePlan {
    segments: Vec<Segment>,
    n_ops: usize,
}

impl FusePlan {
    /// Builds the plan for `circuit` at the given fusion level: level 0 is
    /// the trivial plan (one `Segment::Direct` per op, nothing fused);
    /// level 1 collapses single-qubit runs ([`FusePlan::new`]); level ≥ 2
    /// also absorbs CNOT/CZ-adjacent runs into 4×4 pair segments where the
    /// pair wins on per-amplitude multiply count (see the module docs).
    pub fn with_level(circuit: &Circuit, level: u8) -> Self {
        match level {
            0 => Self {
                segments: (0..circuit.ops().len()).map(Segment::Direct).collect(),
                n_ops: circuit.ops().len(),
            },
            1 => Self::new(circuit),
            _ => Self::new_paired(circuit),
        }
    }

    /// Builds the level-1 plan for `circuit` with a single linear walk of
    /// its ops.
    pub fn new(circuit: &Circuit) -> Self {
        let ops = circuit.ops();
        // Pending run per wire: op indices accumulated since the wire was
        // last broken by a two-qubit op.
        let mut pending: Vec<Vec<usize>> = vec![Vec::new(); circuit.n_qubits()];
        let mut segments = Vec::new();
        let flush = |pending: &mut Vec<usize>, segments: &mut Vec<Segment>, wire: usize| {
            match pending.len() {
                0 => {}
                1 => segments.push(Segment::Direct(pending[0])),
                _ => segments.push(Segment::Run {
                    wire,
                    ops: std::mem::take(pending),
                }),
            }
            pending.clear();
        };
        for (k, op) in ops.iter().enumerate() {
            match op.wires {
                Wires::One(w) => pending[w].push(k),
                Wires::Two(a, b) => {
                    // Flush the blocked wires in the order their runs
                    // started, then pass the two-qubit op through.
                    let (first, second) = if run_start(&pending[a]) <= run_start(&pending[b]) {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    let mut take = std::mem::take(&mut pending[first]);
                    flush(&mut take, &mut segments, first);
                    let mut take = std::mem::take(&mut pending[second]);
                    flush(&mut take, &mut segments, second);
                    segments.push(Segment::Direct(k));
                }
            }
        }
        // Flush the tails, ordered by where each wire's run started.
        let mut tails: Vec<usize> = (0..pending.len())
            .filter(|&w| !pending[w].is_empty())
            .collect();
        tails.sort_unstable_by_key(|&w| run_start(&pending[w]));
        for w in tails {
            let mut take = std::mem::take(&mut pending[w]);
            flush(&mut take, &mut segments, w);
        }
        Self {
            segments,
            n_ops: ops.len(),
        }
    }

    /// Builds the level-2 plan: the level-1 walk extended with pair
    /// accumulators. A CNOT/CZ opens a pair on its wire set (swallowing the
    /// pending single-qubit runs on both wires), single-qubit gates on the
    /// pair's wires and further CNOT/CZ on the same pair extend it, and any
    /// other op touching one of its wires closes it. Closing decides the
    /// final form: the 4×4 pair apply, or the level-1 decomposition when
    /// that is cheaper (see [`pair_wins`]).
    fn new_paired(circuit: &Circuit) -> Self {
        struct PairAcc {
            low: usize,
            high: usize,
            ops: Vec<usize>,
        }
        let ops = circuit.ops();
        let mut pending: Vec<Vec<usize>> = vec![Vec::new(); circuit.n_qubits()];
        let mut pairs: Vec<Option<PairAcc>> = Vec::new();
        let mut wire_pair: Vec<Option<usize>> = vec![None; circuit.n_qubits()];
        let mut segments = Vec::new();

        let close_pair = |p: usize,
                          pairs: &mut Vec<Option<PairAcc>>,
                          wire_pair: &mut Vec<Option<usize>>,
                          segments: &mut Vec<Segment>| {
            let Some(acc) = pairs[p].take() else { return };
            wire_pair[acc.low] = None;
            wire_pair[acc.high] = None;
            emit_pair(circuit, acc.low, acc.high, acc.ops, segments);
        };
        // Closes every pair and flushes every pending run touching `wires`,
        // earliest-starting structure first (the deterministic order both
        // the level-1 pass and the tail flush use).
        let close_touching = |wires: &[usize],
                             pending: &mut Vec<Vec<usize>>,
                             pairs: &mut Vec<Option<PairAcc>>,
                             wire_pair: &mut Vec<Option<usize>>,
                             segments: &mut Vec<Segment>| {
            let mut todo: Vec<(usize, bool, usize)> = Vec::new(); // (start, is_pair, id)
            for &w in wires {
                if let Some(p) = wire_pair[w] {
                    let start = pairs[p].as_ref().map_or(usize::MAX, |a| run_start(&a.ops));
                    if !todo.iter().any(|&(_, is_pair, id)| is_pair && id == p) {
                        todo.push((start, true, p));
                    }
                } else if !pending[w].is_empty() {
                    todo.push((run_start(&pending[w]), false, w));
                }
            }
            todo.sort_unstable();
            for (_, is_pair, id) in todo {
                if is_pair {
                    close_pair(id, pairs, wire_pair, segments);
                } else {
                    let take = std::mem::take(&mut pending[id]);
                    flush_run(take, id, segments);
                }
            }
        };

        for (k, op) in ops.iter().enumerate() {
            match op.wires {
                Wires::One(w) => {
                    if let Some(p) = wire_pair[w] {
                        // lint:allow(panic): wire_pair only points at open accumulators
                        pairs[p].as_mut().expect("open pair").ops.push(k);
                    } else {
                        pending[w].push(k);
                    }
                }
                Wires::Two(a, b) if matches!(op.kind, GateKind::Cnot | GateKind::Cz) => {
                    if let (Some(pa), Some(pb)) = (wire_pair[a], wire_pair[b]) {
                        if pa == pb {
                            // lint:allow(panic): wire_pair only points at open accumulators
                            pairs[pa].as_mut().expect("open pair").ops.push(k);
                            continue;
                        }
                    }
                    // A different pair (or none) is open on these wires:
                    // close whatever the op touches, then open a fresh pair
                    // seeded with the pending runs it swallows.
                    let mut close: Vec<usize> = Vec::new();
                    for &w in &[a, b] {
                        if let Some(p) = wire_pair[w] {
                            if !close.contains(&p) {
                                close.push(p);
                            }
                        }
                    }
                    close.sort_unstable_by_key(|&p| {
                        pairs[p].as_ref().map_or(usize::MAX, |acc| run_start(&acc.ops))
                    });
                    for p in close {
                        close_pair(p, &mut pairs, &mut wire_pair, &mut segments);
                    }
                    let mut acc_ops = merge_sorted(
                        std::mem::take(&mut pending[a]),
                        std::mem::take(&mut pending[b]),
                    );
                    acc_ops.push(k);
                    wire_pair[a] = Some(pairs.len());
                    wire_pair[b] = Some(pairs.len());
                    pairs.push(Some(PairAcc {
                        low: a.min(b),
                        high: a.max(b),
                        ops: acc_ops,
                    }));
                }
                Wires::Two(a, b) => {
                    close_touching(
                        &[a, b],
                        &mut pending,
                        &mut pairs,
                        &mut wire_pair,
                        &mut segments,
                    );
                    segments.push(Segment::Direct(k));
                }
            }
        }
        let all_wires: Vec<usize> = (0..circuit.n_qubits()).collect();
        close_touching(
            &all_wires,
            &mut pending,
            &mut pairs,
            &mut wire_pair,
            &mut segments,
        );
        Self {
            segments,
            n_ops: ops.len(),
        }
    }

    /// Number of kernel applications the fused program performs (≤ op count).
    pub fn fused_ops(&self) -> usize {
        self.segments.len()
    }

    /// The plan's segments, for the gate-major batch compiler.
    pub(crate) fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of gate applications fusion eliminated.
    pub fn collapsed_ops(&self) -> usize {
        self.n_ops - self.segments.len()
    }

    /// Runs `circuit` on `|0…0⟩` through this plan with the given bindings.
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a different circuit (op count
    /// mismatch), or under the same binding conditions as
    /// [`Circuit::run_unfused`].
    pub fn run(&self, circuit: &Circuit, inputs: &[f64], params: &[f64]) -> StateVector {
        assert_eq!(
            circuit.ops().len(),
            self.n_ops,
            "fuse plan built for a different circuit"
        );
        circuit.check_bindings(inputs, params);
        hqnn_telemetry::counter("qsim.circuit_runs", 1);
        hqnn_telemetry::counter("qsim.gate_applies", self.segments.len() as u64);
        hqnn_telemetry::counter("qsim.fuse_collapsed", self.collapsed_ops() as u64);
        hqnn_telemetry::gauge_max("qsim.statevector_len", (1u64 << circuit.n_qubits()) as f64);
        let mut state = StateVector::new(circuit.n_qubits());
        for segment in &self.segments {
            match segment {
                Segment::Run { wire, ops } => {
                    let mut m = resolved_matrix(&circuit.ops()[ops[0]], inputs, params);
                    for &k in &ops[1..] {
                        // ψ ← U_k (… U_1 ψ): later gates multiply from the left.
                        m = matmul2(&resolved_matrix(&circuit.ops()[k], inputs, params), &m);
                    }
                    state.apply_single(&m, *wire);
                }
                Segment::Pair { low, high, ops } => {
                    let m = pair_matrix(circuit, *low, *high, ops, inputs, params);
                    state.apply_two(&m, *low, *high);
                }
                Segment::Direct(k) => {
                    Circuit::apply_op(&circuit.ops()[*k], &mut state, inputs, params);
                }
            }
        }
        state
    }

    /// Audits this plan's legality for `circuit`: every op is covered by
    /// exactly one segment, every `Run` has ≥ 2 ops in strictly increasing
    /// program order, and all of a run's ops are single-qubit gates on the
    /// run's wire. Used by [`Circuit::verify`] to hold the fusion pass to
    /// the IR it was built from.
    pub fn audit(&self, circuit: &Circuit) -> Result<(), String> {
        if circuit.ops().len() != self.n_ops {
            return Err(format!(
                "plan covers {} ops but the circuit has {}",
                self.n_ops,
                circuit.ops().len()
            ));
        }
        let mut seen = vec![false; self.n_ops];
        let mark = |k: usize, seen: &mut Vec<bool>| -> Result<(), String> {
            if k >= seen.len() {
                return Err(format!("segment references op {k} beyond the op count"));
            }
            if seen[k] {
                return Err(format!("op {k} appears in more than one segment"));
            }
            seen[k] = true;
            Ok(())
        };
        for segment in &self.segments {
            match segment {
                Segment::Direct(k) => mark(*k, &mut seen)?,
                Segment::Pair { low, high, ops } => {
                    if low >= high {
                        return Err(format!(
                            "pair ({low},{high}) does not satisfy low < high"
                        ));
                    }
                    if ops.len() < 2 {
                        return Err(format!(
                            "pair ({low},{high}) has {} op(s); pairs must collapse ≥ 2",
                            ops.len()
                        ));
                    }
                    let mut prev = None;
                    let mut two_qubit = 0usize;
                    for &k in ops {
                        mark(k, &mut seen)?;
                        if prev.is_some_and(|p| k <= p) {
                            return Err(format!(
                                "pair ({low},{high}) is not in increasing program order at op {k}"
                            ));
                        }
                        prev = Some(k);
                        let op = &circuit.ops()[k];
                        match op.wires {
                            Wires::One(w) if w == *low || w == *high => {}
                            Wires::Two(a, b)
                                if (a.min(b), a.max(b)) == (*low, *high)
                                    && matches!(op.kind, GateKind::Cnot | GateKind::Cz) =>
                            {
                                two_qubit += 1;
                            }
                            ref other => {
                                return Err(format!(
                                    "op {k} ({:?} on {other:?}) is illegal inside pair ({low},{high}): pairs may only contain single-qubit ops on the pair wires and CNOT/CZ on the pair",
                                    op.kind
                                ));
                            }
                        }
                    }
                    if two_qubit == 0 {
                        return Err(format!(
                            "pair ({low},{high}) contains no CNOT/CZ; it should have been emitted as runs"
                        ));
                    }
                }
                Segment::Run { wire, ops } => {
                    if ops.len() < 2 {
                        return Err(format!(
                            "run on wire {wire} has {} op(s); runs must collapse ≥ 2",
                            ops.len()
                        ));
                    }
                    let mut prev = None;
                    for &k in ops {
                        mark(k, &mut seen)?;
                        if prev.is_some_and(|p| k <= p) {
                            return Err(format!(
                                "run on wire {wire} is not in increasing program order at op {k}"
                            ));
                        }
                        prev = Some(k);
                        match circuit.ops()[k].wires {
                            Wires::One(w) if w == *wire => {}
                            ref other => {
                                return Err(format!(
                                    "op {k} in a wire-{wire} run has wires {other:?}; runs may only contain single-qubit ops on the run wire"
                                ));
                            }
                        }
                    }
                }
            }
        }
        if let Some(k) = seen.iter().position(|&s| !s) {
            return Err(format!("op {k} is not covered by any segment"));
        }
        Ok(())
    }
}

/// Index of the first op in a pending run (`usize::MAX` when empty), the
/// deterministic ordering key for flushing runs on different wires.
fn run_start(pending: &[usize]) -> usize {
    pending.first().copied().unwrap_or(usize::MAX)
}

/// Emits a pending run as a segment: nothing when empty, a direct apply for
/// a singleton, a fused run for ≥ 2 ops.
fn flush_run(ops: Vec<usize>, wire: usize, segments: &mut Vec<Segment>) {
    match ops.len() {
        0 => {}
        1 => segments.push(Segment::Direct(ops[0])),
        _ => segments.push(Segment::Run { wire, ops }),
    }
}

/// Merges two sorted, disjoint index lists into one sorted list.
fn merge_sorted(a: Vec<usize>, b: Vec<usize>) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() && ib < b.len() {
        if a[ia] < b[ib] {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out.extend_from_slice(&a[ia..]);
    out.extend_from_slice(&b[ib..]);
    out
}

/// Emits a closed pair accumulator: as a [`Segment::Pair`] when the 4×4
/// apply is cheaper than the level-1 decomposition, otherwise re-emitted in
/// level-1 form (runs + direct applies) so level 2 never loses to level 1.
fn emit_pair(
    circuit: &Circuit,
    low: usize,
    high: usize,
    ops_idx: Vec<usize>,
    segments: &mut Vec<Segment>,
) {
    if pair_wins(circuit, high, &ops_idx) {
        segments.push(Segment::Pair {
            low,
            high,
            ops: ops_idx,
        });
        return;
    }
    // Level-1 decomposition local to the pair's two wires.
    let mut runs: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for &k in &ops_idx {
        match circuit.ops()[k].wires {
            Wires::One(w) => runs[usize::from(w == high)].push(k),
            Wires::Two(..) => {
                let (first, second) = if run_start(&runs[0]) <= run_start(&runs[1]) {
                    (0, 1)
                } else {
                    (1, 0)
                };
                for i in [first, second] {
                    let wire = if i == 0 { low } else { high };
                    flush_run(std::mem::take(&mut runs[i]), wire, segments);
                }
                segments.push(Segment::Direct(k));
            }
        }
    }
    let (first, second) = if run_start(&runs[0]) <= run_start(&runs[1]) {
        (0, 1)
    } else {
        (1, 0)
    };
    for i in [first, second] {
        let wire = if i == 0 { low } else { high };
        flush_run(std::mem::take(&mut runs[i]), wire, segments);
    }
}

/// Whether applying a pair accumulator as one 4×4 op beats its level-1
/// decomposition, by per-amplitude multiply count: a collapsed run (or
/// singleton single-qubit gate) costs 2, a direct controlled apply 1, and
/// the fused 4×4 apply 4. Strict inequality so ties keep the cheaper,
/// less-reassociated level-1 form.
fn pair_wins(circuit: &Circuit, high: usize, ops_idx: &[usize]) -> bool {
    let mut cost = 0usize;
    let mut open = [false, false];
    for &k in ops_idx {
        match circuit.ops()[k].wires {
            Wires::One(w) => open[usize::from(w == high)] = true,
            Wires::Two(..) => {
                for slot in &mut open {
                    if *slot {
                        cost += 2;
                        *slot = false;
                    }
                }
                cost += 1;
            }
        }
    }
    for slot in open {
        if slot {
            cost += 2;
        }
    }
    cost > 4
}

/// The op's 2×2 matrix with its angle resolved from the bindings.
pub(crate) fn resolved_matrix(op: &Op, inputs: &[f64], params: &[f64]) -> Matrix2 {
    let theta = if op.kind.is_parametrized() {
        op.param.resolve(inputs, params)
    } else {
        0.0
    };
    op.kind.matrix(theta)
}

/// The op's 4×4 matrix in the `(low, high)` pair basis with its angle
/// resolved from the bindings: single-qubit ops embed on their bit,
/// CNOT/CZ embed as controlled matrices with the right orientation.
pub(crate) fn op_matrix4(
    op: &Op,
    low: usize,
    high: usize,
    inputs: &[f64],
    params: &[f64],
) -> Matrix4 {
    debug_assert!(low < high, "pair basis requires low < high");
    let bit = |w: usize| usize::from(w == high);
    let m = resolved_matrix(op, inputs, params);
    match op.wires {
        Wires::One(w) => embed_single(&m, bit(w)),
        Wires::Two(c, t) => embed_controlled(&m, bit(c), bit(t)),
    }
}

/// The product matrix of a pair segment's ops in application order (later
/// ops multiply from the left) — the 4×4 analogue of a run's matrix chain,
/// shared by [`FusePlan::run`] and the gate-major batch compiler so both
/// produce bitwise-identical matrices.
pub(crate) fn pair_matrix(
    circuit: &Circuit,
    low: usize,
    high: usize,
    ops_idx: &[usize],
    inputs: &[f64],
    params: &[f64],
) -> Matrix4 {
    let ops = circuit.ops();
    let mut m = op_matrix4(&ops[ops_idx[0]], low, high, inputs, params);
    for &k in &ops_idx[1..] {
        m = matmul4(&op_matrix4(&ops[k], low, high, inputs, params), &m);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{EntanglerKind, QnnTemplate};
    use crate::circuit::ParamSource;
    use crate::observable::Observable;

    #[test]
    fn fusion_flag_resolution_order() {
        // Default off (HQNN_FUSE unset in the test environment) unless the
        // env enables it; the scoped override always wins either way.
        let ambient = fusion_enabled();
        assert!(with_fusion(true, fusion_enabled));
        assert!(!with_fusion(false, fusion_enabled));
        let nested = with_fusion(true, || with_fusion(false, fusion_enabled));
        assert!(!nested);
        assert_eq!(fusion_enabled(), ambient);
    }

    #[test]
    fn with_fusion_restores_on_panic() {
        let ambient = fusion_enabled();
        let result = std::panic::catch_unwind(|| with_fusion(!ambient, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(fusion_enabled(), ambient);
    }

    #[test]
    fn rot_run_collapses_to_one_apply() {
        let mut c = Circuit::new(1);
        c.rx(0, ParamSource::Fixed(0.4));
        c.rot(
            0,
            ParamSource::Fixed(0.1),
            ParamSource::Fixed(0.2),
            ParamSource::Fixed(0.3),
        );
        let plan = FusePlan::new(&c);
        assert_eq!(plan.fused_ops(), 1);
        assert_eq!(plan.collapsed_ops(), 3);
        let fused = plan.run(&c, &[], &[]);
        assert!(fused.approx_eq(&c.run_unfused(&[], &[]), 1e-12));
    }

    #[test]
    fn two_qubit_ops_break_runs_only_on_their_wires() {
        let mut c = Circuit::new(3);
        c.ry(0, ParamSource::Fixed(0.3));
        c.ry(2, ParamSource::Fixed(0.5));
        c.cnot(0, 1); // breaks wire 0 (singleton) but not wire 2
        c.ry(2, ParamSource::Fixed(-0.2));
        let plan = FusePlan::new(&c);
        // Direct(ry0), Direct(cnot), Run{wire 2: both ry2} → 3 segments.
        assert_eq!(plan.fused_ops(), 3);
        assert_eq!(plan.collapsed_ops(), 1);
        let fused = plan.run(&c, &[], &[]);
        assert!(fused.approx_eq(&c.run_unfused(&[], &[]), 1e-12));
    }

    #[test]
    fn sel_template_fuses_encoding_into_first_rot() {
        let t = QnnTemplate::new(3, 2, EntanglerKind::Strong);
        let c = t.build();
        let plan = FusePlan::new(&c);
        // Per wire and layer: encoding RX + RZ·RY·RZ fuse (first layer run
        // of 4; later layers runs of 3), CNOT rings pass through.
        assert!(plan.collapsed_ops() > 0, "SEL must fuse");
        let inputs = [0.2, -0.4, 0.9];
        let params: Vec<f64> = (0..c.trainable_count()).map(|i| 0.1 * i as f64).collect();
        let fused = plan.run(&c, &inputs, &params);
        assert!(fused.approx_eq(&c.run_unfused(&inputs, &params), 1e-12));
    }

    #[test]
    fn fused_expectations_match_scalar_within_tolerance() {
        for kind in [EntanglerKind::Basic, EntanglerKind::Strong] {
            let c = QnnTemplate::new(4, 3, kind).build();
            let inputs: Vec<f64> = (0..4).map(|i| 0.3 * i as f64 - 0.5).collect();
            let params: Vec<f64> = (0..c.trainable_count())
                .map(|i| (i as f64 * 0.7).sin())
                .collect();
            let obs: Vec<Observable> = (0..4).map(Observable::z).collect();
            let scalar = with_fusion(false, || c.expectations(&inputs, &params, &obs));
            let fused = with_fusion(true, || c.expectations(&inputs, &params, &obs));
            for (a, b) in scalar.iter().zip(&fused) {
                assert!((a - b).abs() < 1e-12, "{kind:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn plan_rejects_mismatched_circuit() {
        let mut a = Circuit::new(1);
        a.h(0);
        let plan = FusePlan::new(&a);
        let mut b = Circuit::new(1);
        b.h(0);
        b.x(0);
        let result = std::panic::catch_unwind(|| plan.run(&b, &[], &[]));
        assert!(result.is_err());
    }

    #[test]
    fn empty_circuit_plan_is_empty() {
        let c = Circuit::new(2);
        let plan = FusePlan::new(&c);
        assert_eq!(plan.fused_ops(), 0);
        assert_eq!(plan.collapsed_ops(), 0);
        let s = plan.run(&c, &[], &[]);
        assert_eq!(s.probability(0), 1.0);
    }

    #[test]
    fn level_zero_plan_is_one_direct_segment_per_op() {
        let c = QnnTemplate::new(3, 2, EntanglerKind::Strong).build();
        let plan = FusePlan::with_level(&c, 0);
        let direct: Vec<Segment> = (0..c.ops().len()).map(Segment::Direct).collect();
        assert_eq!(plan.segments(), &direct[..]);
        assert_eq!(plan.collapsed_ops(), 0);
        assert_eq!(plan.audit(&c), Ok(()));
        // Direct segments apply each op as-is: bitwise the unfused path.
        let inputs = [0.2, -0.4, 0.9];
        let params: Vec<f64> = (0..c.trainable_count()).map(|i| 0.1 * i as f64).collect();
        assert_eq!(
            plan.run(&c, &inputs, &params).amplitudes(),
            c.run_unfused(&inputs, &params).amplitudes()
        );
    }

    #[test]
    fn fusion_level_override_nests_and_restores() {
        let ambient = fusion_level();
        let inner = with_fusion_level(2, || {
            assert_eq!(fusion_level(), 2);
            with_fusion_level(0, fusion_level)
        });
        assert_eq!(inner, 0);
        assert_eq!(fusion_level(), ambient);
        // The boolean spelling maps onto levels 0/1.
        assert_eq!(with_fusion(true, fusion_level), 1);
        assert_eq!(with_fusion(false, fusion_level), 0);
    }

    #[test]
    fn cnot_sandwich_collapses_into_one_pair() {
        // rx0, ry1, CNOT, rz0, ry1 — five ops, one 4×4 apply.
        let mut c = Circuit::new(2);
        c.rx(0, ParamSource::Fixed(0.4));
        c.ry(1, ParamSource::Fixed(-0.2));
        c.cnot(0, 1);
        c.rz(0, ParamSource::Fixed(0.9));
        c.ry(1, ParamSource::Fixed(1.1));
        let plan = FusePlan::with_level(&c, 2);
        assert_eq!(plan.fused_ops(), 1);
        assert_eq!(plan.collapsed_ops(), 4);
        assert!(matches!(plan.segments()[0], Segment::Pair { low: 0, high: 1, .. }));
        assert_eq!(plan.audit(&c), Ok(()));
        let fused = plan.run(&c, &[], &[]);
        assert!(fused.approx_eq(&c.run_unfused(&[], &[]), 1e-12));
    }

    #[test]
    fn lone_cnot_is_not_worth_a_pair() {
        // cost 1 (direct controlled apply) < 4 (pair apply) → level-1 form.
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let plan = FusePlan::with_level(&c, 2);
        assert_eq!(plan.segments(), &[Segment::Direct(0)]);
    }

    #[test]
    fn pair_fusion_matches_scalar_on_templates() {
        for kind in [EntanglerKind::Basic, EntanglerKind::Strong] {
            let c = QnnTemplate::new(4, 3, kind).build();
            let inputs: Vec<f64> = (0..4).map(|i| 0.3 * i as f64 - 0.5).collect();
            let params: Vec<f64> = (0..c.trainable_count())
                .map(|i| (i as f64 * 0.7).sin())
                .collect();
            let plan = FusePlan::with_level(&c, 2);
            assert_eq!(plan.audit(&c), Ok(()), "{kind:?}");
            let fused = plan.run(&c, &inputs, &params);
            assert!(
                fused.approx_eq(&c.run_unfused(&inputs, &params), 1e-12),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn pair_closes_when_a_third_wire_intervenes() {
        // CNOT(0,1) opens a pair; CNOT(1,2) touches wire 1 → the first pair
        // must close before the second opens. Audit validates the split.
        let mut c = Circuit::new(3);
        c.rx(0, ParamSource::Fixed(0.1));
        c.ry(1, ParamSource::Fixed(0.2));
        c.cnot(0, 1);
        c.rz(1, ParamSource::Fixed(0.3));
        c.cnot(1, 2);
        c.ry(2, ParamSource::Fixed(0.4));
        let plan = FusePlan::with_level(&c, 2);
        assert_eq!(plan.audit(&c), Ok(()));
        let fused = plan.run(&c, &[], &[]);
        assert!(fused.approx_eq(&c.run_unfused(&[], &[]), 1e-12));
    }

    #[test]
    fn swap_breaks_pairs_and_stays_direct() {
        let mut c = Circuit::new(2);
        c.rx(0, ParamSource::Fixed(0.1));
        c.ry(1, ParamSource::Fixed(0.2));
        c.cnot(0, 1);
        c.swap(0, 1); // not CNOT/CZ → closes the pair, applied directly
        c.rz(0, ParamSource::Fixed(0.3));
        let plan = FusePlan::with_level(&c, 2);
        assert_eq!(plan.audit(&c), Ok(()));
        assert!(plan
            .segments()
            .iter()
            .any(|s| matches!(s, Segment::Direct(3))));
        let fused = plan.run(&c, &[], &[]);
        assert!(fused.approx_eq(&c.run_unfused(&[], &[]), 1e-12));
    }

    #[test]
    fn audit_rejects_pair_without_two_qubit_op() {
        let mut c = Circuit::new(2);
        c.rx(0, ParamSource::Fixed(0.1));
        c.rx(1, ParamSource::Fixed(0.2));
        let plan = FusePlan {
            segments: vec![Segment::Pair {
                low: 0,
                high: 1,
                ops: vec![0, 1],
            }],
            n_ops: 2,
        };
        let err = plan.audit(&c).expect_err("no CNOT/CZ in the pair");
        assert!(err.contains("no CNOT/CZ"), "{err}");
    }

    #[test]
    fn audit_rejects_pair_with_foreign_wire() {
        let mut c = Circuit::new(3);
        c.rx(2, ParamSource::Fixed(0.1)); // wire 2 is outside pair (0,1)
        c.cnot(0, 1);
        let plan = FusePlan {
            segments: vec![Segment::Pair {
                low: 0,
                high: 1,
                ops: vec![0, 1],
            }],
            n_ops: 2,
        };
        let err = plan.audit(&c).expect_err("foreign wire inside a pair");
        assert!(err.contains("illegal inside pair"), "{err}");
    }

    #[test]
    fn audit_rejects_unsorted_pair_wires() {
        let mut c = Circuit::new(2);
        c.rx(0, ParamSource::Fixed(0.1));
        c.cnot(0, 1);
        let plan = FusePlan {
            segments: vec![Segment::Pair {
                low: 1,
                high: 0,
                ops: vec![0, 1],
            }],
            n_ops: 2,
        };
        let err = plan.audit(&c).expect_err("low >= high");
        assert!(err.contains("low < high"), "{err}");
    }
}
