//! Analytic FLOPs cost model — the workspace's replacement for the
//! TensorFlow Profiler the paper used (§III-D).
//!
//! The paper freezes the TF graph of each model and asks the profiler for
//! total floating-point operations of the forward pass, then repeats the
//! exercise on the gradient graph for the backward pass. This crate computes
//! the same quantities analytically from the model structure: every
//! primitive's cost formula is written out explicitly in [`CostModel`], so
//! the accounting is deterministic, auditable, and exactly decomposable into
//! the paper's Table I categories (classical layers / encoding / quantum
//! layer).
//!
//! Two costing conventions are provided:
//!
//! * [`CostModel::default`] — **profiler-calibrated**: complex tensor ops are
//!   counted as single operations (the way a graph profiler sees `complex64`
//!   nodes) and the quantum backward pass is costed as a mirror of the
//!   forward graph. With this convention the classical column of the paper's
//!   Table I is reproduced to within ~1% (e.g. CL at 110 features: paper
//!   2083, this model 2079) and the quantum column lands within ~2×.
//! * [`CostModel::simulation`] — **honest simulation cost**: complex
//!   multiplies count as 6 real FLOPs, adds as 2, and the backward pass is
//!   costed as the adjoint-differentiation sweep the `hqnn-qsim` engine
//!   actually performs. Use this to quantify the true overhead of simulating
//!   quantum layers on classical hardware (the ablation benches compare both).
//!
//! All costs are **per sample** (batch cost is linear in batch size) and
//! cover **forward + backward** unless a function says otherwise, matching
//! how the paper reports "total FLOPs".
//!
//! # Example
//!
//! ```
//! use hqnn_flops::CostModel;
//!
//! let m = CostModel::default();
//! // A 10→3 dense layer: 2·10·3 + 3 forward, 4·10·3 + 3 backward.
//! assert_eq!(m.dense_forward(10, 3), 63);
//! assert_eq!(m.dense_backward(10, 3), 123);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hqnn_qsim::circuit::OpCensus;
use hqnn_qsim::Circuit;
use serde::{Deserialize, Serialize};

/// Per-sample FLOPs of a hybrid (or classical) model, split the way the
/// paper's Table I splits them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlopsBreakdown {
    /// Classical dense layers, activations and the loss (the "CL" column).
    pub classical: u64,
    /// Simulation cost of data-encoding gates (the "Enc" column).
    pub encoding: u64,
    /// Simulation cost of the variational circuit and its readout
    /// (the "QL" column).
    pub quantum: u64,
}

impl FlopsBreakdown {
    /// A purely classical breakdown.
    pub fn classical_only(flops: u64) -> Self {
        Self {
            classical: flops,
            ..Self::default()
        }
    }

    /// Total FLOPs (the "TF" column).
    pub fn total(&self) -> u64 {
        self.classical + self.encoding + self.quantum
    }
}

impl std::ops::Add for FlopsBreakdown {
    type Output = FlopsBreakdown;

    fn add(self, rhs: FlopsBreakdown) -> FlopsBreakdown {
        FlopsBreakdown {
            classical: self.classical + rhs.classical,
            encoding: self.encoding + rhs.encoding,
            quantum: self.quantum + rhs.quantum,
        }
    }
}

impl std::iter::Sum for FlopsBreakdown {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

/// How the quantum layer's backward pass is costed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantumBackwardCost {
    /// The backward graph costs the same as the forward graph (profiler
    /// convention: TF's gradient graph for a node family has about the same
    /// op count as the forward graph).
    #[default]
    MirrorForward,
    /// The vector-Jacobian adjoint backward `hqnn-qsim` actually executes
    /// in training: one forward re-simulation, one seeding Pauli
    /// application and accumulation per observable, then a single reverse
    /// sweep that un-applies every gate twice and costs each differentiated
    /// gate an extra `dU` application plus a state inner product (see
    /// [`CostModel::circuit_backward_adjoint`]).
    Adjoint,
}

/// The cost constants and formulas of the model, all public so ablations can
/// perturb them and tests can assert exact values.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// FLOPs per complex multiply (1 in profiler convention, 6 in real
    /// arithmetic).
    pub complex_mul: u64,
    /// FLOPs per complex add (1 in profiler convention, 2 in real
    /// arithmetic).
    pub complex_add: u64,
    /// FLOPs per element for a pointwise activation, forward
    /// (TF-profiler convention counts transcendentals as 1 op).
    pub activation_per_elem_forward: u64,
    /// FLOPs per element for an activation's backward (derivative × chain).
    pub activation_per_elem_backward: u64,
    /// FLOPs per class for softmax + cross-entropy, forward
    /// (exp, max-shift, normalise, log).
    pub softmax_ce_per_class_forward: u64,
    /// FLOPs per class for the fused softmax-CE backward.
    pub softmax_ce_per_class_backward: u64,
    /// FLOPs per *affected amplitude* of a fixed two-qubit gate
    /// (CNOT/CZ/SWAP are permutations/sign flips; simulators still touch
    /// half the state).
    pub two_qubit_fixed_per_amp: u64,
    /// How the quantum backward pass is costed.
    pub quantum_backward: QuantumBackwardCost,
}

impl Default for CostModel {
    /// The profiler-calibrated convention (see crate docs).
    fn default() -> Self {
        Self {
            complex_mul: 1,
            complex_add: 1,
            activation_per_elem_forward: 1,
            activation_per_elem_backward: 2,
            softmax_ce_per_class_forward: 6,
            softmax_ce_per_class_backward: 2,
            two_qubit_fixed_per_amp: 1,
            quantum_backward: QuantumBackwardCost::MirrorForward,
        }
    }
}

impl CostModel {
    /// Creates the default (profiler-calibrated) cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// The honest simulation-cost convention: complex multiplies = 6 real
    /// FLOPs, adds = 2, quantum backward costed as the adjoint sweep.
    pub fn simulation() -> Self {
        Self {
            complex_mul: 6,
            complex_add: 2,
            quantum_backward: QuantumBackwardCost::Adjoint,
            ..Self::default()
        }
    }

    // ------------------------------------------------------------------
    // Classical primitives (per sample).
    // ------------------------------------------------------------------

    /// Dense layer forward: `x·W + b` → `2·in·out` (matmul MACs counted as
    /// 2 FLOPs each, TF convention) plus `out` bias adds.
    pub fn dense_forward(&self, in_dim: usize, out_dim: usize) -> u64 {
        (2 * in_dim * out_dim + out_dim) as u64
    }

    /// Dense layer backward: `dW = xᵀ·g` (2·in·out), `dx = g·Wᵀ` (2·in·out),
    /// `db` reduction (out).
    pub fn dense_backward(&self, in_dim: usize, out_dim: usize) -> u64 {
        (4 * in_dim * out_dim + out_dim) as u64
    }

    /// Pointwise activation forward over `dim` elements.
    pub fn activation_forward(&self, dim: usize) -> u64 {
        self.activation_per_elem_forward * dim as u64
    }

    /// Pointwise activation backward over `dim` elements.
    pub fn activation_backward(&self, dim: usize) -> u64 {
        self.activation_per_elem_backward * dim as u64
    }

    /// Softmax cross-entropy forward for `classes` logits.
    pub fn softmax_ce_forward(&self, classes: usize) -> u64 {
        self.softmax_ce_per_class_forward * classes as u64
    }

    /// Softmax cross-entropy backward (fused `softmax − target`).
    pub fn softmax_ce_backward(&self, classes: usize) -> u64 {
        self.softmax_ce_per_class_backward * classes as u64
    }

    /// Forward + backward cost of a dense layer.
    pub fn dense_total(&self, in_dim: usize, out_dim: usize) -> u64 {
        self.dense_forward(in_dim, out_dim) + self.dense_backward(in_dim, out_dim)
    }

    /// Forward + backward FLOPs of a classical MLP
    /// `in → hidden[0] → … → hidden[k-1] → out` with one activation after
    /// every hidden layer and a softmax-CE head — the architecture family of
    /// the paper's classical grid search (§III-B).
    pub fn mlp(&self, in_dim: usize, hidden: &[usize], out_dim: usize) -> u64 {
        let mut total = 0u64;
        let mut prev = in_dim;
        for &h in hidden {
            total += self.dense_total(prev, h);
            total += self.activation_forward(h) + self.activation_backward(h);
            prev = h;
        }
        total += self.dense_total(prev, out_dim);
        total += self.softmax_ce_forward(out_dim) + self.softmax_ce_backward(out_dim);
        total
    }

    // ------------------------------------------------------------------
    // Quantum-simulation primitives (per sample).
    // ------------------------------------------------------------------

    /// Simulating one single-qubit gate on an `n`-qubit dense state: each of
    /// the `2^(n-1)` amplitude pairs costs a 2×2 complex matrix-vector
    /// product (4 complex mul + 2 complex add).
    pub fn single_qubit_gate(&self, n_qubits: usize) -> u64 {
        let pairs = 1u64 << (n_qubits - 1);
        pairs * (4 * self.complex_mul + 2 * self.complex_add)
    }

    /// Simulating one fixed two-qubit gate (CNOT/CZ/SWAP): a permutation or
    /// sign flip over half the amplitudes.
    pub fn two_qubit_fixed_gate(&self, n_qubits: usize) -> u64 {
        let affected = 1u64 << (n_qubits - 1);
        affected * self.two_qubit_fixed_per_amp
    }

    /// Simulating one controlled rotation: a 2×2 matrix-vector product on
    /// the quarter of amplitude pairs where the control is `|1⟩`.
    pub fn controlled_rotation_gate(&self, n_qubits: usize) -> u64 {
        if n_qubits < 2 {
            return 0;
        }
        let pairs = 1u64 << (n_qubits - 2);
        pairs * (4 * self.complex_mul + 2 * self.complex_add)
    }

    /// Evaluating `⟨Z⟩` on one wire: `|a|²` plus a signed accumulate
    /// (≈ 3 FLOPs) per amplitude.
    pub fn expectation_z(&self, n_qubits: usize) -> u64 {
        3 * (1u64 << n_qubits)
    }

    /// Inner product `⟨λ|μ⟩` of two `n`-qubit states (complex mul + add per
    /// amplitude), used once per differentiated gate in the adjoint pass.
    pub fn state_inner_product(&self, n_qubits: usize) -> u64 {
        (1u64 << n_qubits) * (self.complex_mul + self.complex_add)
    }

    /// Forward-pass simulation cost of a circuit, split into encoding /
    /// quantum-layer shares according to each op's parameter source.
    pub fn circuit_forward(&self, census: &OpCensus, n_qubits: usize) -> QuantumFlops {
        let single = self.single_qubit_gate(n_qubits);
        let two_fixed = self.two_qubit_fixed_gate(n_qubits);
        let two_var = self.controlled_rotation_gate(n_qubits);
        QuantumFlops {
            encoding: census.encoding_rotations as u64 * single,
            quantum_layer: census.variational_rotations as u64 * single
                + census.fixed_single as u64 * single
                + census.fixed_two_qubit as u64 * two_fixed
                + census.variational_two_qubit as u64 * two_var,
        }
    }

    /// Readout cost: one `⟨Z⟩` per observable (attributed to the quantum
    /// layer).
    pub fn circuit_readout(&self, n_qubits: usize, n_observables: usize) -> u64 {
        n_observables as u64 * self.expectation_z(n_qubits)
    }

    /// Backward-pass cost of the circuit under the configured
    /// [`QuantumBackwardCost`] convention.
    pub fn circuit_backward(
        &self,
        census: &OpCensus,
        n_qubits: usize,
        n_observables: usize,
    ) -> QuantumFlops {
        match self.quantum_backward {
            QuantumBackwardCost::MirrorForward => {
                let fwd = self.circuit_forward(census, n_qubits);
                QuantumFlops {
                    encoding: fwd.encoding,
                    quantum_layer: fwd.quantum_layer
                        + self.circuit_readout(n_qubits, n_observables),
                }
            }
            QuantumBackwardCost::Adjoint => {
                self.circuit_backward_adjoint(census, n_qubits, n_observables)
            }
        }
    }

    /// The adjoint backward cost of one sample, as `hqnn-qsim`'s training
    /// path (`adjoint_vjp`) executes it, independent of the configured
    /// convention: one forward re-simulation; per observable, one Pauli
    /// application to seed `λ = Σ_o w_o·O_o|ψ⟩` plus accumulating it into
    /// the sum; then a single reverse sweep in which every gate is
    /// un-applied twice (`ψ` and `λ`) and every differentiated gate adds a
    /// `dU` application plus a state inner product. Encoding gates' share
    /// is attributed to encoding; the rest to the quantum layer.
    pub fn circuit_backward_adjoint(
        &self,
        census: &OpCensus,
        n_qubits: usize,
        n_observables: usize,
    ) -> QuantumFlops {
        let n_obs = n_observables as u64;
        let single = self.single_qubit_gate(n_qubits);
        let inner = self.state_inner_product(n_qubits);
        let forward = self.circuit_forward(census, n_qubits);

        // One re-simulation plus two un-apply sweeps, same split as forward.
        let sweep_encoding = 3 * forward.encoding;
        let sweep_quantum = 3 * forward.quantum_layer;

        // dU application + inner product per differentiated gate.
        let enc_diff = census.encoding_rotations as u64 * (single + inner);
        let var_diff = census.variational_rotations as u64 * (single + inner)
            + census.variational_two_qubit as u64
                * (self.controlled_rotation_gate(n_qubits) + inner);

        // Seeding: one Z application (≈ sign flips over half the state)
        // per observable, plus a multiply-add per amplitude to accumulate
        // it into λ.
        let seed = n_obs * (self.two_qubit_fixed_gate(n_qubits) + inner);

        QuantumFlops {
            encoding: sweep_encoding + enc_diff,
            quantum_layer: sweep_quantum + var_diff + seed,
        }
    }

    /// Total forward + backward simulation cost of a circuit with `⟨Z⟩`
    /// readout on `n_observables` wires, split into Table I's Enc/QL columns.
    pub fn circuit_total(&self, circuit: &Circuit, n_observables: usize) -> QuantumFlops {
        hqnn_telemetry::counter("flops.circuit_estimates", 1);
        let census = circuit.op_census();
        let n = circuit.n_qubits();
        let fwd = self.circuit_forward(&census, n);
        let bwd = self.circuit_backward(&census, n, n_observables);
        QuantumFlops {
            encoding: fwd.encoding + bwd.encoding,
            quantum_layer: fwd.quantum_layer
                + bwd.quantum_layer
                + self.circuit_readout(n, n_observables),
        }
    }

    /// Backward cost of the **parameter-shift** rule instead of adjoint:
    /// two full forward simulations (+ readout) per differentiated gate.
    /// Used by the gradient-method ablation bench.
    pub fn circuit_backward_parameter_shift(
        &self,
        census: &OpCensus,
        n_qubits: usize,
        n_observables: usize,
    ) -> u64 {
        let fwd = self.circuit_forward(census, n_qubits);
        let one_eval =
            fwd.encoding + fwd.quantum_layer + self.circuit_readout(n_qubits, n_observables);
        let n_diff = (census.encoding_rotations
            + census.variational_rotations
            + census.variational_two_qubit) as u64;
        2 * n_diff * one_eval
    }
}

/// Simulation FLOPs split into the paper's encoding vs quantum-layer columns.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantumFlops {
    /// Cost attributable to data-encoding gates.
    pub encoding: u64,
    /// Cost attributable to the variational circuit + readout.
    pub quantum_layer: u64,
}

impl QuantumFlops {
    /// Total simulation cost.
    pub fn total(&self) -> u64 {
        self.encoding + self.quantum_layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqnn_qsim::{EntanglerKind, QnnTemplate};

    fn m() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn dense_formulas() {
        assert_eq!(m().dense_forward(10, 3), 63);
        assert_eq!(m().dense_backward(10, 3), 123);
        assert_eq!(m().dense_total(3, 3), 21 + 39);
    }

    #[test]
    fn mlp_cost_sums_layers() {
        let model = m();
        // 4 → [5] → 3 with one activation and softmax head.
        let expected = model.dense_total(4, 5)
            + model.activation_forward(5)
            + model.activation_backward(5)
            + model.dense_total(5, 3)
            + model.softmax_ce_forward(3)
            + model.softmax_ce_backward(3);
        assert_eq!(model.mlp(4, &[5], 3), expected);
    }

    #[test]
    fn mlp_with_no_hidden_layers_is_logistic_regression() {
        let model = m();
        assert_eq!(
            model.mlp(10, &[], 3),
            model.dense_total(10, 3) + model.softmax_ce_forward(3) + model.softmax_ce_backward(3)
        );
    }

    #[test]
    fn mlp_cost_monotone_in_width_and_depth() {
        let model = m();
        assert!(model.mlp(10, &[4], 3) < model.mlp(10, &[8], 3));
        assert!(model.mlp(10, &[4], 3) < model.mlp(10, &[4, 4], 3));
        assert!(model.mlp(10, &[4], 3) < model.mlp(20, &[4], 3));
    }

    #[test]
    fn single_qubit_gate_cost_doubles_per_qubit() {
        // Profiler convention: 6 complex ops per amplitude pair.
        let model = m();
        assert_eq!(model.single_qubit_gate(1), 6);
        assert_eq!(model.single_qubit_gate(3), 24);
        assert_eq!(model.single_qubit_gate(4), 48);
        // Simulation convention: 28 real FLOPs per pair.
        let sim = CostModel::simulation();
        assert_eq!(sim.single_qubit_gate(3), 112);
    }

    #[test]
    fn expectation_and_inner_product_scale_with_state() {
        let model = m();
        assert_eq!(model.expectation_z(3), 24);
        assert_eq!(CostModel::simulation().state_inner_product(3), 64);
    }

    #[test]
    fn sel_quantum_layer_cost_is_independent_of_feature_count() {
        // The paper's key Table-I observation: SEL(3,2)'s QL FLOPs are the
        // same at every feature size, because the circuit never changes.
        let model = m();
        let t = QnnTemplate::new(3, 2, EntanglerKind::Strong);
        let cost_a = model.circuit_total(&t.build(), 3);
        let cost_b = model.circuit_total(&t.build(), 3);
        assert_eq!(cost_a, cost_b);
        assert!(cost_a.quantum_layer > 0);
    }

    #[test]
    fn default_mode_lands_near_table_one_magnitudes() {
        // Paper Table I: SEL(3,2) QL = 840, BEL(3,2) QL = 228,
        // BEL(4,4) QL = 896, Enc(3 qubits) = 466. Our calibrated model must
        // land within a small factor of each.
        let model = m();
        let sel = model.circuit_total(&QnnTemplate::new(3, 2, EntanglerKind::Strong).build(), 3);
        let bel = model.circuit_total(&QnnTemplate::new(3, 2, EntanglerKind::Basic).build(), 3);
        let bel44 = model.circuit_total(&QnnTemplate::new(4, 4, EntanglerKind::Basic).build(), 4);
        assert!(
            (400..2200).contains(&sel.quantum_layer),
            "SEL QL = {}",
            sel.quantum_layer
        );
        assert!(
            (100..900).contains(&bel.quantum_layer),
            "BEL QL = {}",
            bel.quantum_layer
        );
        assert!(
            (400..3600).contains(&bel44.quantum_layer),
            "BEL44 QL = {}",
            bel44.quantum_layer
        );
        assert!(
            (100..1000).contains(&sel.encoding),
            "Enc = {}",
            sel.encoding
        );
    }

    #[test]
    fn sel_costs_more_than_bel_at_same_shape() {
        // SEL has 3× the rotations per layer (Table I: 840 vs 228 at (3,2)).
        let model = m();
        let bel = model.circuit_total(&QnnTemplate::new(3, 2, EntanglerKind::Basic).build(), 3);
        let sel = model.circuit_total(&QnnTemplate::new(3, 2, EntanglerKind::Strong).build(), 3);
        assert!(sel.quantum_layer > 2 * bel.quantum_layer);
        assert_eq!(sel.encoding, bel.encoding); // same 3-qubit encoding
    }

    #[test]
    fn bigger_templates_cost_more() {
        let model = m();
        let small = model.circuit_total(&QnnTemplate::new(3, 2, EntanglerKind::Basic).build(), 3);
        let deeper = model.circuit_total(&QnnTemplate::new(3, 4, EntanglerKind::Basic).build(), 3);
        let wider = model.circuit_total(&QnnTemplate::new(4, 2, EntanglerKind::Basic).build(), 4);
        assert!(deeper.quantum_layer > small.quantum_layer);
        assert!(wider.quantum_layer > small.quantum_layer);
        assert!(wider.encoding > small.encoding);
    }

    #[test]
    fn adjoint_convention_costs_more_than_mirror() {
        let mirror = m();
        let adjoint = CostModel {
            quantum_backward: QuantumBackwardCost::Adjoint,
            ..m()
        };
        let c = QnnTemplate::new(3, 2, EntanglerKind::Strong).build();
        let census = c.op_census();
        let bm = mirror.circuit_backward(&census, 3, 3);
        let ba = adjoint.circuit_backward(&census, 3, 3);
        assert!(ba.total() > bm.total());
    }

    #[test]
    fn parameter_shift_costs_more_than_adjoint_for_deep_circuits() {
        let model = CostModel::simulation();
        let t = QnnTemplate::new(4, 6, EntanglerKind::Strong);
        let c = t.build();
        let census = c.op_census();
        let adjoint = model.circuit_backward_adjoint(&census, 4, 4);
        let shift = model.circuit_backward_parameter_shift(&census, 4, 4);
        assert!(
            shift > adjoint.total(),
            "shift {shift} ≤ adjoint {}",
            adjoint.total()
        );
    }

    #[test]
    fn breakdown_arithmetic() {
        let a = FlopsBreakdown {
            classical: 1,
            encoding: 2,
            quantum: 3,
        };
        let b = FlopsBreakdown::classical_only(10);
        let s = a + b;
        assert_eq!(s.total(), 16);
        assert_eq!(s.classical, 11);
        let summed: FlopsBreakdown = vec![a, b].into_iter().sum();
        assert_eq!(summed, s);
    }

    #[test]
    fn table_one_classical_column_matches_paper_closely() {
        // Paper Table I CL column for the hybrid models: 283 at 10 features,
        // 823 at 40, 1543 at 80, 2083 at 110 (3-qubit input layer, 3-class
        // output). Our dense accounting should land within a few FLOPs.
        let model = m();
        let cl = |features: usize| {
            model.dense_total(features, 3)
                + model.activation_forward(3)
                + model.activation_backward(3)
                + model.dense_total(3, 3)
                + model.softmax_ce_forward(3)
                + model.softmax_ce_backward(3)
        };
        let paper = [(10usize, 283u64), (40, 823), (80, 1543), (110, 2083)];
        for (features, expected) in paper {
            let ours = cl(features);
            let ratio = ours as f64 / expected as f64;
            assert!(
                (0.9..1.1).contains(&ratio),
                "CL({features}) = {ours}, paper {expected}"
            );
        }
    }
}
