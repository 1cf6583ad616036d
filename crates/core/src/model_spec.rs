//! Declarative model descriptions with complexity metrics.
//!
//! A *spec* is the unit the paper's grid search enumerates: it can price
//! itself (FLOPs under a [`CostModel`], parameter count) **without being
//! built**, which is what makes the paper's sort-by-FLOPs-then-train
//! protocol (§III-E) cheap, and it can build a fresh randomly-initialised
//! trainable model for each run.

use hqnn_flops::{CostModel, FlopsBreakdown};
use hqnn_nn::{Activation, ActivationKind, Dense, Sequential};
use hqnn_qsim::QnnTemplate;
use hqnn_tensor::SeededRng;
use serde::{Deserialize, Serialize};

use crate::quantum_layer::{GradientMethod, QuantumLayer};

/// A classical MLP: `features → hidden[0] → … → hidden[k-1] → classes` with
/// one activation after each hidden layer and a softmax head — the family
/// the paper's classical grid search draws from (§III-B: up to 3 hidden
/// layers, neurons from {2, 4, 6, 8, 10}).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClassicalSpec {
    /// Input feature count (the problem-complexity knob).
    pub n_features: usize,
    /// Hidden layer widths, in order.
    pub hidden: Vec<usize>,
    /// Output classes.
    pub n_classes: usize,
    /// Hidden-layer non-linearity.
    pub activation: ActivationKind,
}

impl ClassicalSpec {
    /// Creates a spec with ReLU hidden activations.
    ///
    /// # Panics
    ///
    /// Panics if `n_features == 0`, `n_classes == 0`, or any hidden width
    /// is zero.
    pub fn new(n_features: usize, hidden: Vec<usize>, n_classes: usize) -> Self {
        let spec = Self {
            n_features,
            hidden,
            n_classes,
            activation: ActivationKind::Relu,
        };
        if let Err(rule) = spec.validate() {
            // lint:allow(panic): documented constructor contract (see # Panics)
            panic!("{rule}");
        }
        spec
    }

    /// Checks the rules [`ClassicalSpec::new`] enforces, for specs that
    /// were deserialized instead of constructed.
    ///
    /// # Errors
    ///
    /// Returns the broken rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.n_features == 0 {
            return Err("need at least one feature");
        }
        if self.n_classes == 0 {
            return Err("need at least one class");
        }
        if self.hidden.contains(&0) {
            return Err("hidden widths must be positive");
        }
        Ok(())
    }

    /// Overrides the hidden activation.
    pub fn with_activation(mut self, activation: ActivationKind) -> Self {
        self.activation = activation;
        self
    }

    /// Builds a freshly initialised trainable model.
    pub fn build(&self, rng: &mut SeededRng) -> Sequential {
        // Spanned so HQNN_ALLOC attributes the weight/buffer allocations of
        // model construction separately from training itself.
        let _span = hqnn_telemetry::span("core.model_build");
        let mut model = Sequential::new();
        let mut prev = self.n_features;
        for &h in &self.hidden {
            model.push(Dense::new(prev, h, rng));
            model.push(Activation::new(self.activation));
            prev = h;
        }
        model.push(Dense::new(prev, self.n_classes, rng));
        model
    }

    /// Per-sample forward+backward FLOPs under `cost` (all classical).
    pub fn flops(&self, cost: &CostModel) -> FlopsBreakdown {
        FlopsBreakdown::classical_only(cost.mlp(self.n_features, &self.hidden, self.n_classes))
    }

    /// Trainable parameter count: `(in + 1) · out` per dense layer.
    pub fn param_count(&self) -> usize {
        let mut total = 0;
        let mut prev = self.n_features;
        for &h in &self.hidden {
            total += (prev + 1) * h;
            prev = h;
        }
        total + (prev + 1) * self.n_classes
    }

    /// `"C[8,6]@40f"`-style label used in experiment reports.
    pub fn label(&self) -> String {
        let hidden = self
            .hidden
            .iter()
            .map(|h| h.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!("C[{hidden}]@{}f", self.n_features)
    }
}

/// A hybrid model (paper Fig. 1(b)): `Dense(features → qubits)` compressing
/// the input into encoding angles, a [`QuantumLayer`], and a
/// `Dense(qubits → classes)` readout head. The input layer width equals the
/// qubit count because angle encoding uses one qubit per encoded value
/// (§III-C).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HybridSpec {
    /// Input feature count (the problem-complexity knob).
    pub n_features: usize,
    /// Output classes.
    pub n_classes: usize,
    /// The quantum node: qubit count, depth, entangler kind.
    pub template: QnnTemplate,
    /// Differentiation engine for the quantum layer.
    pub gradient_method: GradientMethod,
}

impl HybridSpec {
    /// Creates a spec with adjoint differentiation.
    ///
    /// # Panics
    ///
    /// Panics if `n_features == 0` or `n_classes == 0`.
    pub fn new(n_features: usize, n_classes: usize, template: QnnTemplate) -> Self {
        let spec = Self {
            n_features,
            n_classes,
            template,
            gradient_method: GradientMethod::Adjoint,
        };
        if let Err(rule) = spec.validate() {
            // lint:allow(panic): documented constructor contract (see # Panics)
            panic!("{rule}");
        }
        spec
    }

    /// Checks the rules [`HybridSpec::new`] and [`QnnTemplate::new`]
    /// enforce, for specs that were deserialized instead of constructed.
    ///
    /// # Errors
    ///
    /// Returns the broken rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.n_features == 0 {
            return Err("need at least one feature");
        }
        if self.n_classes == 0 {
            return Err("need at least one class");
        }
        self.template.validate()
    }

    /// Overrides the quantum differentiation engine.
    pub fn with_gradient_method(mut self, method: GradientMethod) -> Self {
        self.gradient_method = method;
        self
    }

    /// Builds a freshly initialised trainable model.
    pub fn build(&self, rng: &mut SeededRng) -> Sequential {
        let _span = hqnn_telemetry::span("core.model_build");
        let q = self.template.n_qubits();
        let mut model = Sequential::new();
        model.push(Dense::new(self.n_features, q, rng));
        model
            .push(QuantumLayer::new(self.template, rng).with_gradient_method(self.gradient_method));
        model.push(Dense::new(q, self.n_classes, rng));
        model
    }

    /// Per-sample forward+backward FLOPs under `cost`, split into the
    /// paper's Table I columns (CL / Enc / QL).
    pub fn flops(&self, cost: &CostModel) -> FlopsBreakdown {
        let q = self.template.n_qubits();
        let classical = cost.dense_total(self.n_features, q)
            + cost.dense_total(q, self.n_classes)
            + cost.softmax_ce_forward(self.n_classes)
            + cost.softmax_ce_backward(self.n_classes);
        let quantum = cost.circuit_total(&self.template.build(), q);
        FlopsBreakdown {
            classical,
            encoding: quantum.encoding,
            quantum: quantum.quantum_layer,
        }
    }

    /// Trainable parameter count: the two dense layers plus the circuit
    /// weights.
    pub fn param_count(&self) -> usize {
        let q = self.template.n_qubits();
        (self.n_features + 1) * q + self.template.param_count() + (q + 1) * self.n_classes
    }

    /// `"SEL(3q,2l)@40f"`-style label used in experiment reports.
    pub fn label(&self) -> String {
        format!("{}@{}f", self.template.label(), self.n_features)
    }
}

/// Either kind of model, unified for the grid-search machinery.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// A classical MLP.
    Classical(ClassicalSpec),
    /// A hybrid quantum–classical network.
    Hybrid(HybridSpec),
}

impl ModelSpec {
    /// Builds a freshly initialised trainable model.
    pub fn build(&self, rng: &mut SeededRng) -> Sequential {
        match self {
            ModelSpec::Classical(s) => s.build(rng),
            ModelSpec::Hybrid(s) => s.build(rng),
        }
    }

    /// Checks the spec against its constructor's rules (see
    /// [`ClassicalSpec::validate`], [`HybridSpec::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the broken rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            ModelSpec::Classical(s) => s.validate(),
            ModelSpec::Hybrid(s) => s.validate(),
        }
    }

    /// Per-sample forward+backward FLOPs under `cost`.
    pub fn flops(&self, cost: &CostModel) -> FlopsBreakdown {
        match self {
            ModelSpec::Classical(s) => s.flops(cost),
            ModelSpec::Hybrid(s) => s.flops(cost),
        }
    }

    /// Trainable parameter count.
    pub fn param_count(&self) -> usize {
        match self {
            ModelSpec::Classical(s) => s.param_count(),
            ModelSpec::Hybrid(s) => s.param_count(),
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            ModelSpec::Classical(s) => s.label(),
            ModelSpec::Hybrid(s) => s.label(),
        }
    }

    /// Input feature count.
    pub fn n_features(&self) -> usize {
        match self {
            ModelSpec::Classical(s) => s.n_features,
            ModelSpec::Hybrid(s) => s.n_features,
        }
    }
}

impl From<ClassicalSpec> for ModelSpec {
    fn from(s: ClassicalSpec) -> Self {
        ModelSpec::Classical(s)
    }
}

impl From<HybridSpec> for ModelSpec {
    fn from(s: HybridSpec) -> Self {
        ModelSpec::Hybrid(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqnn_qsim::EntanglerKind;

    #[test]
    fn classical_param_count_formula() {
        // 10 → 8 → 6 → 3: (10+1)·8 + (8+1)·6 + (6+1)·3 = 88 + 54 + 21.
        let s = ClassicalSpec::new(10, vec![8, 6], 3);
        assert_eq!(s.param_count(), 163);
        let mut rng = SeededRng::new(0);
        assert_eq!(s.build(&mut rng).param_count(), 163);
    }

    #[test]
    fn classical_no_hidden_is_linear_classifier() {
        let s = ClassicalSpec::new(10, vec![], 3);
        assert_eq!(s.param_count(), 33);
        let mut rng = SeededRng::new(0);
        let model = s.build(&mut rng);
        assert_eq!(model.len(), 1);
    }

    #[test]
    fn hybrid_param_count_matches_built_model() {
        let mut rng = SeededRng::new(1);
        for kind in [EntanglerKind::Basic, EntanglerKind::Strong] {
            for (q, d) in [(3, 2), (4, 4), (5, 1)] {
                let s = HybridSpec::new(40, 3, QnnTemplate::new(q, d, kind));
                assert_eq!(
                    s.param_count(),
                    s.build(&mut rng).param_count(),
                    "{}",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn hybrid_paper_parameter_examples() {
        // BEL(3,2) at 10 features: 11·3 + 6 + 4·3 = 51 trainable params.
        let s = HybridSpec::new(10, 3, QnnTemplate::new(3, 2, EntanglerKind::Basic));
        assert_eq!(s.param_count(), 51);
        // SEL(3,2) at 110 features: 111·3 + 18 + 12 = 363.
        let s = HybridSpec::new(110, 3, QnnTemplate::new(3, 2, EntanglerKind::Strong));
        assert_eq!(s.param_count(), 363);
    }

    #[test]
    fn hybrid_flops_splits_into_table_one_columns() {
        let cost = CostModel::default();
        let s = HybridSpec::new(10, 3, QnnTemplate::new(3, 2, EntanglerKind::Strong));
        let f = s.flops(&cost);
        assert!(f.classical > 0);
        assert!(f.encoding > 0);
        assert!(f.quantum > 0);
        assert_eq!(f.total(), f.classical + f.encoding + f.quantum);
    }

    #[test]
    fn sel_quantum_flops_constant_across_feature_sizes() {
        // The paper's Table-I headline: only the classical column grows with
        // feature count for SEL-based hybrids.
        let cost = CostModel::default();
        let t = QnnTemplate::new(3, 2, EntanglerKind::Strong);
        let f10 = HybridSpec::new(10, 3, t).flops(&cost);
        let f110 = HybridSpec::new(110, 3, t).flops(&cost);
        assert_eq!(f10.quantum, f110.quantum);
        assert_eq!(f10.encoding, f110.encoding);
        assert!(f110.classical > f10.classical);
    }

    #[test]
    fn classical_flops_grow_with_architecture() {
        let cost = CostModel::default();
        let small = ClassicalSpec::new(10, vec![2], 3).flops(&cost);
        let big = ClassicalSpec::new(10, vec![10, 10, 10], 3).flops(&cost);
        assert!(big.total() > small.total());
        assert_eq!(small.encoding, 0);
        assert_eq!(small.quantum, 0);
    }

    #[test]
    fn model_spec_delegates() {
        let cost = CostModel::default();
        let c: ModelSpec = ClassicalSpec::new(10, vec![4], 3).into();
        let h: ModelSpec =
            HybridSpec::new(10, 3, QnnTemplate::new(3, 1, EntanglerKind::Basic)).into();
        assert_eq!(c.n_features(), 10);
        assert_eq!(h.n_features(), 10);
        assert!(c.label().starts_with("C["));
        assert!(h.label().starts_with("BEL"));
        assert_eq!(c.flops(&cost).encoding, 0);
        assert!(h.flops(&cost).encoding > 0);
        let mut rng = SeededRng::new(2);
        assert_eq!(c.build(&mut rng).param_count(), c.param_count());
        assert_eq!(h.build(&mut rng).param_count(), h.param_count());
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(ClassicalSpec::new(40, vec![8, 6], 3).label(), "C[8,6]@40f");
        let h = HybridSpec::new(40, 3, QnnTemplate::new(3, 2, EntanglerKind::Strong));
        assert_eq!(h.label(), "SEL(3q,2l)@40f");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn classical_rejects_zero_width_hidden() {
        let _ = ClassicalSpec::new(10, vec![0], 3);
    }

    #[test]
    fn hybrid_trains_end_to_end_on_tiny_problem() {
        use hqnn_nn::{one_hot, SoftmaxCrossEntropy};
        let mut rng = SeededRng::new(5);
        let s = HybridSpec::new(2, 2, QnnTemplate::new(2, 2, EntanglerKind::Strong));
        let mut model = s.build(&mut rng);
        // Two well-separated blobs.
        let x = hqnn_tensor::Matrix::from_rows(&[
            &[1.0, 1.0],
            &[0.9, 1.1],
            &[-1.0, -1.0],
            &[-1.1, -0.9],
        ]);
        let labels = [0usize, 0, 1, 1];
        let targets = one_hot(&labels, 2);
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut opt = hqnn_nn::Adam::new(0.1);
        let mut final_loss = f64::INFINITY;
        for _ in 0..60 {
            let logits = model.forward(&x, true);
            let (loss, grad) = loss_fn.loss_and_grad(&logits, &targets);
            model.backward(&grad);
            model.apply_gradients(&mut opt);
            final_loss = loss;
        }
        assert!(
            final_loss < 0.2,
            "hybrid failed to learn: loss {final_loss}"
        );
        assert_eq!(hqnn_nn::accuracy(&model.predict(&x), &labels), 1.0);
    }
}
