//! Circuit intermediate representation and execution.
//!
//! A [`Circuit`] is an ordered list of [`Op`]s over a fixed number of wires.
//! Every parametrized op takes its angle from a [`ParamSource`]: a compile-time
//! constant, an **input** slot (data encoding — the `x` of the hybrid model) or
//! a **trainable** slot (variational weights — the `θ`). This split is what
//! lets the differentiation engines produce gradients with respect to both the
//! weights *and* the encoded inputs, so the quantum layer can sit in the middle
//! of a classical network and backpropagate through.

use serde::{Deserialize, Serialize};

use crate::gates::{GateKind, Matrix2};
use crate::observable::Observable;
use crate::state::StateVector;
use crate::MAX_QUBITS;

/// Where a parametrized gate's angle comes from.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ParamSource {
    /// No parameter (fixed gate).
    None,
    /// A compile-time constant angle.
    Fixed(f64),
    /// Index into the per-sample input vector (data encoding).
    Input(usize),
    /// Index into the trainable parameter vector.
    Trainable(usize),
}

impl ParamSource {
    /// Resolves the source to a concrete angle.
    ///
    /// # Panics
    ///
    /// Panics if an `Input`/`Trainable` index is out of range for the
    /// provided slices, or when called on `ParamSource::None`.
    pub fn resolve(&self, inputs: &[f64], params: &[f64]) -> f64 {
        match *self {
            // lint:allow(panic): documented in the method contract above
            ParamSource::None => panic!("gate has no parameter"),
            ParamSource::Fixed(v) => v,
            ParamSource::Input(i) => inputs[i],
            ParamSource::Trainable(i) => params[i],
        }
    }

    /// `true` for `Input` and `Trainable` sources — the ones gradients are
    /// computed for.
    pub fn is_differentiable(&self) -> bool {
        matches!(self, ParamSource::Input(_) | ParamSource::Trainable(_))
    }
}

/// The wires an op acts on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Wires {
    /// Single-qubit op on one wire.
    One(usize),
    /// Two-qubit op: `(control_or_first, target_or_second)`.
    Two(usize, usize),
}

/// One gate application in a circuit.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Op {
    /// Which gate.
    pub kind: GateKind,
    /// Which wires it acts on.
    pub wires: Wires,
    /// Where its angle (if any) comes from.
    pub param: ParamSource,
}

/// An ordered quantum circuit over `n_qubits` wires.
///
/// # Example
///
/// ```
/// use hqnn_qsim::{Circuit, Observable, ParamSource};
///
/// let mut c = Circuit::new(2);
/// c.ry(0, ParamSource::Input(0));
/// c.ry(1, ParamSource::Trainable(0));
/// c.cnot(0, 1);
/// assert_eq!(c.input_count(), 1);
/// assert_eq!(c.trainable_count(), 1);
/// let e = c.expectations(&[0.4], &[0.2], &[Observable::z(0), Observable::z(1)]);
/// assert_eq!(e.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Op>,
    n_inputs: usize,
    n_trainable: usize,
}

impl Circuit {
    /// Creates an empty circuit over `n_qubits` wires.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > MAX_QUBITS`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "circuit needs at least one wire");
        assert!(
            n_qubits <= MAX_QUBITS,
            "{n_qubits} qubits exceeds MAX_QUBITS = {MAX_QUBITS}"
        );
        Self {
            n_qubits,
            ops: Vec::new(),
            n_inputs: 0,
            n_trainable: 0,
        }
    }

    /// Number of wires.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of input (encoding) slots referenced, i.e. max index + 1.
    pub fn input_count(&self) -> usize {
        self.n_inputs
    }

    /// Number of trainable parameter slots referenced, i.e. max index + 1.
    pub fn trainable_count(&self) -> usize {
        self.n_trainable
    }

    /// Appends an arbitrary op.
    ///
    /// # Panics
    ///
    /// Panics when the op is malformed: wires out of range or coincident,
    /// wrong wire arity for the gate, a parameter on a fixed gate, or a
    /// missing parameter on a rotation.
    pub fn push(&mut self, op: Op) {
        match op.wires {
            Wires::One(w) => {
                assert!(w < self.n_qubits, "wire {w} out of range");
                assert_eq!(op.kind.arity(), 1, "{:?} needs two wires", op.kind);
            }
            Wires::Two(a, b) => {
                assert!(a < self.n_qubits && b < self.n_qubits, "wire out of range");
                assert_ne!(a, b, "two-qubit op wires must differ");
                assert_eq!(op.kind.arity(), 2, "{:?} is a single-qubit gate", op.kind);
            }
        }
        if op.kind.is_parametrized() {
            assert!(
                op.param != ParamSource::None,
                "{:?} requires a parameter",
                op.kind
            );
        } else {
            assert!(
                op.param == ParamSource::None,
                "{:?} takes no parameter",
                op.kind
            );
        }
        match op.param {
            ParamSource::Input(i) => self.n_inputs = self.n_inputs.max(i + 1),
            ParamSource::Trainable(i) => self.n_trainable = self.n_trainable.max(i + 1),
            _ => {}
        }
        self.ops.push(op);
    }

    fn push_single(&mut self, kind: GateKind, wire: usize, param: ParamSource) {
        self.push(Op {
            kind,
            wires: Wires::One(wire),
            param,
        });
    }

    /// Appends a Hadamard gate.
    pub fn h(&mut self, wire: usize) {
        self.push_single(GateKind::H, wire, ParamSource::None);
    }

    /// Appends a Pauli-X gate.
    pub fn x(&mut self, wire: usize) {
        self.push_single(GateKind::X, wire, ParamSource::None);
    }

    /// Appends a Pauli-Y gate.
    pub fn y(&mut self, wire: usize) {
        self.push_single(GateKind::Y, wire, ParamSource::None);
    }

    /// Appends a Pauli-Z gate.
    pub fn z(&mut self, wire: usize) {
        self.push_single(GateKind::Z, wire, ParamSource::None);
    }

    /// Appends an `RX` rotation.
    pub fn rx(&mut self, wire: usize, param: ParamSource) {
        self.push_single(GateKind::RX, wire, param);
    }

    /// Appends an `RY` rotation.
    pub fn ry(&mut self, wire: usize, param: ParamSource) {
        self.push_single(GateKind::RY, wire, param);
    }

    /// Appends an `RZ` rotation.
    pub fn rz(&mut self, wire: usize, param: ParamSource) {
        self.push_single(GateKind::RZ, wire, param);
    }

    /// Appends a phase-shift gate.
    pub fn phase_shift(&mut self, wire: usize, param: ParamSource) {
        self.push_single(GateKind::PhaseShift, wire, param);
    }

    /// Appends a PennyLane-style `Rot(φ, θ, ω)` as its `RZ·RY·RZ`
    /// decomposition (applied in circuit order `RZ(φ)`, `RY(θ)`, `RZ(ω)`).
    pub fn rot(&mut self, wire: usize, phi: ParamSource, theta: ParamSource, omega: ParamSource) {
        self.rz(wire, phi);
        self.ry(wire, theta);
        self.rz(wire, omega);
    }

    /// Appends a CNOT with the given control and target.
    pub fn cnot(&mut self, control: usize, target: usize) {
        self.push(Op {
            kind: GateKind::Cnot,
            wires: Wires::Two(control, target),
            param: ParamSource::None,
        });
    }

    /// Appends a CZ gate.
    pub fn cz(&mut self, control: usize, target: usize) {
        self.push(Op {
            kind: GateKind::Cz,
            wires: Wires::Two(control, target),
            param: ParamSource::None,
        });
    }

    /// Appends a SWAP gate.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.push(Op {
            kind: GateKind::Swap,
            wires: Wires::Two(a, b),
            param: ParamSource::None,
        });
    }

    /// Appends a controlled rotation (`Crx`/`Cry`/`Crz`).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a controlled rotation.
    pub fn controlled_rotation(
        &mut self,
        kind: GateKind,
        control: usize,
        target: usize,
        param: ParamSource,
    ) {
        assert!(
            matches!(kind, GateKind::Crx | GateKind::Cry | GateKind::Crz),
            "{kind:?} is not a controlled rotation"
        );
        self.push(Op {
            kind,
            wires: Wires::Two(control, target),
            param,
        });
    }

    /// Applies one op to a state given resolved parameter bindings.
    pub(crate) fn apply_op(op: &Op, state: &mut StateVector, inputs: &[f64], params: &[f64]) {
        let theta = if op.kind.is_parametrized() {
            op.param.resolve(inputs, params)
        } else {
            0.0
        };
        Self::apply_op_resolved(op, state, theta);
    }

    /// Applies one op with an explicit angle, bypassing parameter resolution
    /// (used by the parameter-shift engine to shift one gate at a time).
    pub(crate) fn apply_op_resolved(op: &Op, state: &mut StateVector, theta: f64) {
        match op.wires {
            Wires::One(w) => state.apply_single(&op.kind.matrix(theta), w),
            Wires::Two(a, b) => match op.kind {
                GateKind::Swap => state.apply_swap(a, b),
                _ => state.apply_controlled(&op.kind.matrix(theta), a, b),
            },
        }
    }

    /// Resolves the inverse of one op once, so the adjoint sweep can
    /// un-apply it from several states without recomputing its matrix.
    /// Returns the angle `θ` the op was resolved at (0 when unparametrized)
    /// and `U(θ)†` — `None` for SWAP, which is self-inverse.
    pub(crate) fn resolve_inverse(
        op: &Op,
        inputs: &[f64],
        params: &[f64],
    ) -> (f64, Option<Matrix2>) {
        let theta = if op.kind.is_parametrized() {
            op.param.resolve(inputs, params)
        } else {
            0.0
        };
        let inv = (op.kind != GateKind::Swap).then(|| crate::gates::dagger(&op.kind.matrix(theta)));
        (theta, inv)
    }

    /// Un-applies one op with the inverse from [`Circuit::resolve_inverse`].
    pub(crate) fn apply_inverse(op: &Op, inv: Option<&Matrix2>, state: &mut StateVector) {
        match (op.wires, inv) {
            (Wires::Two(a, b), None) => state.apply_swap(a, b),
            (Wires::One(w), Some(m)) => state.apply_single(m, w),
            (Wires::Two(a, b), Some(m)) => state.apply_controlled(m, a, b),
            (Wires::One(_), None) => unreachable!("only SWAP resolves to no inverse matrix"),
        }
    }

    /// Checks that the bindings cover every referenced slot.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() < input_count()` or
    /// `params.len() < trainable_count()`.
    pub(crate) fn check_bindings(&self, inputs: &[f64], params: &[f64]) {
        assert!(
            inputs.len() >= self.n_inputs,
            "circuit expects {} inputs, got {}",
            self.n_inputs,
            inputs.len()
        );
        assert!(
            params.len() >= self.n_trainable,
            "circuit expects {} trainable params, got {}",
            self.n_trainable,
            params.len()
        );
    }

    /// Runs the circuit on `|0…0⟩` with the given bindings and returns the
    /// final state.
    ///
    /// When gate fusion is enabled (see [`crate::fuse`]) this builds a
    /// [`crate::FusePlan`] and executes through it; otherwise it applies ops
    /// one by one. The fused result matches the scalar one to rounding but
    /// is **not** bitwise identical — fusion is opt-in for exactly that
    /// reason. Gradient engines always use [`Circuit::run_unfused`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() < input_count()` or
    /// `params.len() < trainable_count()`.
    pub fn run(&self, inputs: &[f64], params: &[f64]) -> StateVector {
        let level = crate::fuse::fusion_level();
        if level >= 1 {
            return crate::fuse::FusePlan::with_level(self, level).run(self, inputs, params);
        }
        self.run_unfused(inputs, params)
    }

    /// Runs the circuit gate-by-gate, ignoring the fusion flag.
    ///
    /// This is the bitwise-reference execution path: its output is what the
    /// determinism suites pin across thread counts, and what the adjoint and
    /// parameter-shift engines replay so gradients never depend on whether
    /// fusion is on.
    ///
    /// # Panics
    ///
    /// As for [`Circuit::run`].
    pub fn run_unfused(&self, inputs: &[f64], params: &[f64]) -> StateVector {
        self.check_bindings(inputs, params);
        hqnn_telemetry::counter("qsim.circuit_runs", 1);
        hqnn_telemetry::counter("qsim.gate_applies", self.ops.len() as u64);
        // High-water-mark gauge: the largest statevector simulated since the
        // last reset. Batched execution runs circuits on several threads at
        // once, so last-writer-wins would report whichever run finished last;
        // the max is schedule-independent.
        hqnn_telemetry::gauge_max("qsim.statevector_len", (1u64 << self.n_qubits) as f64);
        let mut state = StateVector::new(self.n_qubits);
        for op in &self.ops {
            Self::apply_op(op, &mut state, inputs, params);
        }
        state
    }

    /// Runs the circuit and evaluates each observable's expectation value.
    ///
    /// # Panics
    ///
    /// As for [`Circuit::run`]; additionally if an observable references a
    /// wire outside the circuit.
    pub fn expectations(
        &self,
        inputs: &[f64],
        params: &[f64],
        observables: &[Observable],
    ) -> Vec<f64> {
        let state = self.run(inputs, params);
        observables.iter().map(|o| o.expectation(&state)).collect()
    }

    /// Counts ops by how the FLOPs model classifies them:
    /// `(encoding_rotations, variational_rotations, fixed_single, two_qubit)`.
    pub fn op_census(&self) -> OpCensus {
        let mut census = OpCensus::default();
        for op in &self.ops {
            match (op.kind.arity(), op.param) {
                (1, ParamSource::Input(_)) => census.encoding_rotations += 1,
                (1, ParamSource::Trainable(_)) => census.variational_rotations += 1,
                (1, _) => census.fixed_single += 1,
                (2, ParamSource::Trainable(_)) | (2, ParamSource::Input(_)) => {
                    census.variational_two_qubit += 1
                }
                (2, _) => census.fixed_two_qubit += 1,
                _ => unreachable!("gate arity is 1 or 2"),
            }
        }
        census
    }
}

/// Counts of circuit ops grouped by role, consumed by the FLOPs cost model
/// to split simulation cost into encoding vs quantum-layer work (Table I).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCensus {
    /// Single-qubit rotations fed by `ParamSource::Input` (data encoding).
    pub encoding_rotations: usize,
    /// Single-qubit rotations fed by `ParamSource::Trainable`.
    pub variational_rotations: usize,
    /// Fixed single-qubit gates (H, X, …).
    pub fixed_single: usize,
    /// Two-qubit gates with a differentiable parameter (CRX, …).
    pub variational_two_qubit: usize,
    /// Fixed two-qubit gates (CNOT, CZ, SWAP).
    pub fixed_two_qubit: usize,
}

impl OpCensus {
    /// Total op count.
    pub fn total(&self) -> usize {
        self.encoding_rotations
            + self.variational_rotations
            + self.fixed_single
            + self.variational_two_qubit
            + self.fixed_two_qubit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_circuit_runs_to_ground_state() {
        let c = Circuit::new(2);
        let s = c.run(&[], &[]);
        assert_eq!(s.probability(0), 1.0);
    }

    #[test]
    fn counts_track_max_indices() {
        let mut c = Circuit::new(3);
        c.rx(0, ParamSource::Input(4));
        c.ry(1, ParamSource::Trainable(2));
        assert_eq!(c.input_count(), 5);
        assert_eq!(c.trainable_count(), 3);
    }

    #[test]
    fn rot_decomposes_into_three_rotations() {
        let mut c = Circuit::new(1);
        c.rot(
            0,
            ParamSource::Trainable(0),
            ParamSource::Trainable(1),
            ParamSource::Trainable(2),
        );
        assert_eq!(c.ops().len(), 3);
        assert_eq!(c.ops()[0].kind, GateKind::RZ);
        assert_eq!(c.ops()[1].kind, GateKind::RY);
        assert_eq!(c.ops()[2].kind, GateKind::RZ);
    }

    #[test]
    fn run_matches_manual_application() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cnot(0, 1);
        let s = c.run(&[], &[]);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fixed_param_rotation() {
        let mut c = Circuit::new(1);
        c.rx(0, ParamSource::Fixed(std::f64::consts::PI));
        let s = c.run(&[], &[]);
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectations_multiple_observables() {
        let mut c = Circuit::new(2);
        c.x(1);
        let e = c.expectations(&[], &[], &[Observable::z(0), Observable::z(1)]);
        assert!((e[0] - 1.0).abs() < 1e-12);
        assert!((e[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn run_validates_input_length() {
        let mut c = Circuit::new(1);
        c.rx(0, ParamSource::Input(1));
        let _ = c.run(&[0.1], &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_validates_wires() {
        let mut c = Circuit::new(1);
        c.h(1);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn push_rejects_coincident_wires() {
        let mut c = Circuit::new(2);
        c.cnot(1, 1);
    }

    #[test]
    #[should_panic(expected = "requires a parameter")]
    fn push_rejects_missing_parameter() {
        let mut c = Circuit::new(1);
        c.push(Op {
            kind: GateKind::RX,
            wires: Wires::One(0),
            param: ParamSource::None,
        });
    }

    #[test]
    #[should_panic(expected = "takes no parameter")]
    fn push_rejects_extraneous_parameter() {
        let mut c = Circuit::new(1);
        c.push(Op {
            kind: GateKind::H,
            wires: Wires::One(0),
            param: ParamSource::Fixed(1.0),
        });
    }

    #[test]
    fn inverse_round_trips_random_circuit() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.rx(1, ParamSource::Fixed(0.3));
        c.cnot(0, 2);
        c.rz(2, ParamSource::Fixed(-1.1));
        c.swap(0, 1);
        c.cz(1, 2);
        let forward = c.run(&[], &[]);
        let mut undone = forward.clone();
        for op in c.ops().iter().rev() {
            let (_, inv) = Circuit::resolve_inverse(op, &[], &[]);
            Circuit::apply_inverse(op, inv.as_ref(), &mut undone);
        }
        assert!(undone.approx_eq(&StateVector::new(3), 1e-12));
    }

    #[test]
    fn op_census_classifies_roles() {
        let mut c = Circuit::new(2);
        c.rx(0, ParamSource::Input(0));
        c.ry(1, ParamSource::Trainable(0));
        c.h(0);
        c.cnot(0, 1);
        c.controlled_rotation(GateKind::Crz, 0, 1, ParamSource::Trainable(1));
        let census = c.op_census();
        assert_eq!(census.encoding_rotations, 1);
        assert_eq!(census.variational_rotations, 1);
        assert_eq!(census.fixed_single, 1);
        assert_eq!(census.fixed_two_qubit, 1);
        assert_eq!(census.variational_two_qubit, 1);
        assert_eq!(census.total(), 5);
    }
}
