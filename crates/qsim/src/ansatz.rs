//! Variational circuit templates (ansätze) and data encodings.
//!
//! Rust ports of the PennyLane templates the paper's hybrid models are made
//! of: `AngleEmbedding`, `BasicEntanglerLayers` (BEL) and
//! `StronglyEntanglingLayers` (SEL) — see Fig. 5 of the paper for circuit
//! diagrams of the latter two. The [`QnnTemplate`] type packages an encoding
//! plus an ansatz into the ready-to-train circuit the hybrid models use.

use serde::{Deserialize, Serialize};

use crate::circuit::{Circuit, ParamSource};
use crate::MAX_QUBITS;

/// Rotation axis used for single-qubit rotations in encodings and BEL.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RotationAxis {
    /// `RX` rotations.
    X,
    /// `RY` rotations.
    Y,
    /// `RZ` rotations.
    Z,
}

impl RotationAxis {
    fn push(self, circuit: &mut Circuit, wire: usize, param: ParamSource) {
        match self {
            RotationAxis::X => circuit.rx(wire, param),
            RotationAxis::Y => circuit.ry(wire, param),
            RotationAxis::Z => circuit.rz(wire, param),
        }
    }
}

/// Appends angle encoding: one rotation per wire, wire `i` rotated by input
/// slot `i`. This is the paper's "one qubit per feature" encoding (§III-C,
/// citing LaRose & Coyle); the hybrid model's classical input layer first
/// compresses the features down to `n_qubits` values.
///
/// PennyLane's `AngleEmbedding` defaults to `X` rotations; pass
/// [`RotationAxis::X`] for bit-exact parity with the paper's setup.
pub fn angle_encoding(circuit: &mut Circuit, axis: RotationAxis) {
    for wire in 0..circuit.n_qubits() {
        axis.push(circuit, wire, ParamSource::Input(wire));
    }
}

/// Appends `layers` Basic Entangler Layers: per layer, one rotation (default
/// `RX` in PennyLane) on every wire followed by a ring of CNOTs. With two
/// wires the ring degenerates to a single CNOT (PennyLane's convention);
/// with one wire no entangler is applied.
///
/// Trainable parameter slots are allocated starting at `param_offset` in
/// layer-major, wire-minor order. Returns the number of slots consumed
/// (`layers * n_qubits`).
pub fn basic_entangler_layers(
    circuit: &mut Circuit,
    layers: usize,
    axis: RotationAxis,
    param_offset: usize,
) -> usize {
    let n = circuit.n_qubits();
    let mut next = param_offset;
    for _ in 0..layers {
        for wire in 0..n {
            axis.push(circuit, wire, ParamSource::Trainable(next));
            next += 1;
        }
        match n {
            1 => {}
            2 => circuit.cnot(0, 1),
            _ => {
                for wire in 0..n {
                    circuit.cnot(wire, (wire + 1) % n);
                }
            }
        }
    }
    debug_verify(circuit, "basic_entangler_layers");
    next - param_offset
}

/// Debug-build hook run by every ansatz constructor: the emitted IR must
/// pass the full semantic verifier.
fn debug_verify(circuit: &Circuit, builder: &str) {
    let _ = (circuit, builder);
    #[cfg(debug_assertions)]
    if let Err(err) = circuit.verify() {
        // lint:allow(panic): constructor contract — an ansatz builder that
        // emits invalid IR is a bug in this crate.
        panic!("{builder} produced an invalid circuit: {err}");
    }
}

/// Appends `layers` Strongly Entangling Layers: per layer, a general
/// `Rot(φ, θ, ω)` (decomposed as `RZ·RY·RZ`, three parameters) on every wire,
/// followed by a ring of CNOTs with layer-dependent range
/// `r_l = (l mod (n-1)) + 1` (PennyLane's default). One wire → no entangler.
///
/// Returns the number of trainable slots consumed (`layers * n_qubits * 3`).
pub fn strongly_entangling_layers(
    circuit: &mut Circuit,
    layers: usize,
    param_offset: usize,
) -> usize {
    let n = circuit.n_qubits();
    let mut next = param_offset;
    for layer in 0..layers {
        for wire in 0..n {
            circuit.rot(
                wire,
                ParamSource::Trainable(next),
                ParamSource::Trainable(next + 1),
                ParamSource::Trainable(next + 2),
            );
            next += 3;
        }
        if n > 1 {
            let range = (layer % (n - 1)) + 1;
            for wire in 0..n {
                let target = (wire + range) % n;
                circuit.cnot(wire, target);
            }
        }
    }
    debug_verify(circuit, "strongly_entangling_layers");
    next - param_offset
}

/// Which variational template a hybrid model's quantum layer uses — the two
/// designs the paper compares (Fig. 5).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntanglerKind {
    /// Basic Entangler Layers: one `RX` per wire per layer + CNOT ring.
    Basic,
    /// Strongly Entangling Layers: one `Rot` (3 params) per wire per layer +
    /// ranged CNOT ring. More expressive per layer than BEL — the paper's
    /// central finding is that this expressiveness is what lets the SEL
    /// hybrid stay at (3 qubits, 2 layers) across all problem complexities.
    Strong,
}

impl EntanglerKind {
    /// Trainable parameters per layer for `n_qubits` wires.
    pub fn params_per_layer(self, n_qubits: usize) -> usize {
        match self {
            EntanglerKind::Basic => n_qubits,
            EntanglerKind::Strong => 3 * n_qubits,
        }
    }

    /// Short human-readable name ("BEL"/"SEL") used in reports.
    pub fn short_name(self) -> &'static str {
        match self {
            EntanglerKind::Basic => "BEL",
            EntanglerKind::Strong => "SEL",
        }
    }
}

/// A complete quantum-node specification: angle encoding on `n_qubits` wires
/// followed by `depth` layers of the chosen entangler, read out as one `⟨Z⟩`
/// per wire.
///
/// # Example
///
/// ```
/// use hqnn_qsim::{EntanglerKind, QnnTemplate};
///
/// let t = QnnTemplate::new(3, 2, EntanglerKind::Strong);
/// assert_eq!(t.param_count(), 18); // 3 wires × 2 layers × 3 rotations
/// let circuit = t.build();
/// assert_eq!(circuit.input_count(), 3);
/// assert_eq!(circuit.trainable_count(), 18);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QnnTemplate {
    n_qubits: usize,
    depth: usize,
    kind: EntanglerKind,
    encoding_axis: RotationAxis,
}

impl QnnTemplate {
    /// Creates a template with PennyLane-default axes (X-rotation encoding).
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0`, `n_qubits > MAX_QUBITS` or `depth == 0`.
    pub fn new(n_qubits: usize, depth: usize, kind: EntanglerKind) -> Self {
        let template = Self {
            n_qubits,
            depth,
            kind,
            encoding_axis: RotationAxis::X,
        };
        if let Err(rule) = template.validate() {
            // lint:allow(panic): documented constructor contract (see # Panics)
            panic!("{rule}");
        }
        template
    }

    /// Checks the rules [`QnnTemplate::new`] enforces. A deserialized
    /// template (a saved model, a hand-edited file) never went through the
    /// constructor, so loaders call this before building from it.
    ///
    /// # Errors
    ///
    /// Returns the broken rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.n_qubits == 0 {
            return Err("template needs at least one qubit");
        }
        if self.n_qubits > MAX_QUBITS {
            return Err("template exceeds MAX_QUBITS");
        }
        if self.depth == 0 {
            return Err("template needs at least one layer");
        }
        Ok(())
    }

    /// Overrides the encoding rotation axis.
    pub fn with_encoding_axis(mut self, axis: RotationAxis) -> Self {
        self.encoding_axis = axis;
        self
    }

    /// Number of wires (= encoded inputs = readout width).
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of entangling layers.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The entangler design.
    pub fn kind(&self) -> EntanglerKind {
        self.kind
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.depth * self.kind.params_per_layer(self.n_qubits)
    }

    /// Builds the executable circuit: encoding followed by the ansatz.
    ///
    /// Debug builds run the full semantic verifier ([`Circuit::verify`]) on
    /// the result — an ansatz constructor that emits unverifiable IR is a
    /// bug in this crate, caught here rather than mid-training.
    pub fn build(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits);
        angle_encoding(&mut c, self.encoding_axis);
        match self.kind {
            EntanglerKind::Basic => {
                basic_entangler_layers(&mut c, self.depth, RotationAxis::X, 0);
            }
            EntanglerKind::Strong => {
                strongly_entangling_layers(&mut c, self.depth, 0);
            }
        }
        debug_verify(&c, "QnnTemplate::build");
        c
    }

    /// `"BEL(3q,2l)"`-style label used in experiment reports.
    pub fn label(&self) -> String {
        format!(
            "{}({}q,{}l)",
            self.kind.short_name(),
            self.n_qubits,
            self.depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::GateKind;
    use crate::observable::Observable;

    #[test]
    fn angle_encoding_places_one_rotation_per_wire() {
        let mut c = Circuit::new(4);
        angle_encoding(&mut c, RotationAxis::Y);
        assert_eq!(c.ops().len(), 4);
        assert_eq!(c.input_count(), 4);
        assert!(c.ops().iter().all(|op| op.kind == GateKind::RY));
    }

    #[test]
    fn bel_param_count_and_structure() {
        let mut c = Circuit::new(3);
        angle_encoding(&mut c, RotationAxis::X);
        let used = basic_entangler_layers(&mut c, 2, RotationAxis::X, 0);
        assert_eq!(used, 6);
        assert_eq!(c.trainable_count(), 6);
        // Per layer: 3 RX + 3 CNOT; plus 3 encoding rotations.
        assert_eq!(c.ops().len(), 3 + 2 * (3 + 3));
        let census = c.op_census();
        assert_eq!(census.encoding_rotations, 3);
        assert_eq!(census.variational_rotations, 6);
        assert_eq!(census.fixed_two_qubit, 6);
    }

    #[test]
    fn bel_two_wires_uses_single_cnot() {
        let mut c = Circuit::new(2);
        let used = basic_entangler_layers(&mut c, 1, RotationAxis::X, 0);
        assert_eq!(used, 2);
        let cnots = c.ops().iter().filter(|o| o.kind == GateKind::Cnot).count();
        assert_eq!(cnots, 1);
    }

    #[test]
    fn bel_single_wire_has_no_entangler() {
        let mut c = Circuit::new(1);
        basic_entangler_layers(&mut c, 3, RotationAxis::X, 0);
        assert!(c.ops().iter().all(|o| o.kind == GateKind::RX));
    }

    #[test]
    fn sel_param_count_and_ranges() {
        let mut c = Circuit::new(4);
        let used = strongly_entangling_layers(&mut c, 3, 0);
        assert_eq!(used, 36); // 3 layers × 4 wires × 3
                              // Layer ranges cycle 1, 2, 3 for 4 wires.
        let cnots: Vec<_> = c
            .ops()
            .iter()
            .filter(|o| o.kind == GateKind::Cnot)
            .collect();
        assert_eq!(cnots.len(), 12);
        // First layer: range 1 → CNOT(0,1); second layer: range 2 → CNOT(0,2).
        use crate::circuit::Wires;
        assert_eq!(cnots[0].wires, Wires::Two(0, 1));
        assert_eq!(cnots[4].wires, Wires::Two(0, 2));
        assert_eq!(cnots[8].wires, Wires::Two(0, 3));
    }

    #[test]
    fn sel_single_wire_is_rotations_only() {
        let mut c = Circuit::new(1);
        let used = strongly_entangling_layers(&mut c, 2, 0);
        assert_eq!(used, 6);
        assert!(c.ops().iter().all(|o| o.kind.arity() == 1));
    }

    #[test]
    fn param_offset_continues_numbering() {
        let mut c = Circuit::new(2);
        let a = basic_entangler_layers(&mut c, 1, RotationAxis::X, 0);
        let b = basic_entangler_layers(&mut c, 1, RotationAxis::X, a);
        assert_eq!(a + b, 4);
        assert_eq!(c.trainable_count(), 4);
    }

    #[test]
    fn template_paper_configurations() {
        // The paper's winning configs: SEL(3,2) = 18 params, BEL(3,2) = 6,
        // BEL(3,4) = 12, BEL(4,4) = 16.
        assert_eq!(
            QnnTemplate::new(3, 2, EntanglerKind::Strong).param_count(),
            18
        );
        assert_eq!(
            QnnTemplate::new(3, 2, EntanglerKind::Basic).param_count(),
            6
        );
        assert_eq!(
            QnnTemplate::new(3, 4, EntanglerKind::Basic).param_count(),
            12
        );
        assert_eq!(
            QnnTemplate::new(4, 4, EntanglerKind::Basic).param_count(),
            16
        );
    }

    #[test]
    fn template_builds_runnable_circuit() {
        let t = QnnTemplate::new(3, 2, EntanglerKind::Strong);
        let c = t.build();
        assert_eq!(c.trainable_count(), t.param_count());
        let inputs = [0.1, 0.2, 0.3];
        let params = vec![0.05; t.param_count()];
        let obs: Vec<_> = (0..3).map(Observable::z).collect();
        let e = c.expectations(&inputs, &params, &obs);
        assert_eq!(e.len(), 3);
        assert!(e.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn template_gradients_are_consistent() {
        let t = QnnTemplate::new(3, 2, EntanglerKind::Basic);
        let c = t.build();
        let inputs = [0.4, -0.3, 0.8];
        let params: Vec<f64> = (0..t.param_count()).map(|i| 0.3 * i as f64 - 0.7).collect();
        let obs: Vec<_> = (0..3).map(Observable::z).collect();
        let a = crate::gradient::adjoint(&c, &inputs, &params, &obs);
        let p = crate::gradient::parameter_shift(&c, &inputs, &params, &obs);
        assert!(a.d_params.approx_eq(&p.d_params, 1e-10));
        assert!(a.d_inputs.approx_eq(&p.d_inputs, 1e-10));
    }

    #[test]
    fn label_and_axis_override() {
        let t = QnnTemplate::new(5, 7, EntanglerKind::Basic).with_encoding_axis(RotationAxis::Y);
        assert_eq!(t.label(), "BEL(5q,7l)");
        let c = t.build();
        assert_eq!(c.ops()[0].kind, GateKind::RY);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_depth_rejected() {
        let _ = QnnTemplate::new(3, 0, EntanglerKind::Basic);
    }
}
