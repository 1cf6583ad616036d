//! The simulated quantum layer — a [`hqnn_nn::Layer`] backed by `hqnn-qsim`.

use hqnn_nn::Layer;
use hqnn_qsim::{gradients_batch, vjp_batch, Circuit, GradEngine, Observable, QnnTemplate};
use hqnn_tensor::{Matrix, SeededRng};
use serde::{Deserialize, Serialize};

/// Which differentiation engine the layer's backward pass uses.
///
/// Training always works with either; [`GradientMethod::Adjoint`] is the
/// default because its cost is linear in gate count while the shift rule
/// re-simulates the circuit twice per parameter (see the `grad_methods`
/// bench for the measured gap).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GradientMethod {
    /// Adjoint (reverse-pass) differentiation — exact, O(gates · 2ⁿ): one
    /// vector-Jacobian sweep per sample, seeded with the upstream gradient.
    #[default]
    Adjoint,
    /// Two-term parameter-shift rule — exact, hardware-compatible,
    /// O(params · gates · 2ⁿ).
    ParameterShift,
}

/// A trainable variational quantum circuit usable as a network layer.
///
/// Input: a `(batch, n_qubits)` matrix of encoding angles (the output of the
/// classical input layer). Output: a `(batch, n_qubits)` matrix of `⟨Z⟩`
/// expectation values in `[-1, 1]`. The backward pass produces gradients for
/// both the circuit's trainable parameters and its inputs, so classical
/// layers upstream keep training — this is the "quantum hidden layer" of the
/// paper's Fig. 1(b)/(c).
///
/// Weights are initialised uniformly in `[0, 2π)`, PennyLane's convention
/// for both templates.
///
/// # Example
///
/// ```
/// use hqnn_core::QuantumLayer;
/// use hqnn_nn::Layer;
/// use hqnn_qsim::{EntanglerKind, QnnTemplate};
/// use hqnn_tensor::{Matrix, SeededRng};
///
/// let mut rng = SeededRng::new(3);
/// let mut layer = QuantumLayer::new(QnnTemplate::new(3, 2, EntanglerKind::Basic), &mut rng);
/// assert_eq!(layer.param_count(), 6);
/// let out = layer.forward(&Matrix::zeros(4, 3), true);
/// assert_eq!(out.shape(), (4, 3));
/// assert!(out.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
/// ```
#[derive(Debug, Clone)]
pub struct QuantumLayer {
    template: QnnTemplate,
    circuit: Circuit,
    observables: Vec<Observable>,
    params: Matrix,
    grad_params: Matrix,
    cached_input: Option<Matrix>,
    method: GradientMethod,
}

impl QuantumLayer {
    /// Creates the layer from a template with `[0, 2π)`-uniform weights.
    pub fn new(template: QnnTemplate, rng: &mut SeededRng) -> Self {
        let n = template.param_count();
        let params = Matrix::uniform(1, n.max(1), 0.0, 2.0 * std::f64::consts::PI, rng);
        let params = if n == 0 { Matrix::zeros(1, 0) } else { params };
        Self::from_parts(template, params)
    }

    /// Creates the layer with explicit weights (tests / checkpointing).
    ///
    /// # Panics
    ///
    /// Panics if `params` is not `1 × template.param_count()`.
    pub fn from_parts(template: QnnTemplate, params: Matrix) -> Self {
        assert_eq!(
            params.shape(),
            (1, template.param_count()),
            "params must be 1 × {}",
            template.param_count()
        );
        let circuit = template.build();
        let observables = (0..template.n_qubits()).map(Observable::z).collect();
        let grad_params = Matrix::zeros(1, template.param_count());
        Self {
            template,
            circuit,
            observables,
            params,
            grad_params,
            cached_input: None,
            method: GradientMethod::Adjoint,
        }
    }

    /// Selects the differentiation engine (default: adjoint).
    pub fn with_gradient_method(mut self, method: GradientMethod) -> Self {
        self.method = method;
        self
    }

    /// The template this layer was built from.
    pub fn template(&self) -> &QnnTemplate {
        &self.template
    }

    /// The compiled circuit (encoding + ansatz).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The current weights as a `1 × param_count` row.
    pub fn params(&self) -> &Matrix {
        &self.params
    }

    /// The configured gradient method.
    pub fn gradient_method(&self) -> GradientMethod {
        self.method
    }
}

impl Layer for QuantumLayer {
    fn forward(&mut self, input: &Matrix, _training: bool) -> Matrix {
        let n = self.template.n_qubits();
        assert_eq!(
            input.cols(),
            n,
            "QuantumLayer expected {n} encoding angles, got {}",
            input.cols()
        );
        self.cached_input = Some(input.clone());
        let _span = hqnn_telemetry::span("core.qlayer_forward");
        self.circuit
            .expectations_batch(input, self.params.as_slice(), &self.observables)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self
            .cached_input
            .as_ref()
            // lint:allow(panic): documented Layer API contract
            .expect("backward called before forward");
        let n = self.template.n_qubits();
        assert_eq!(
            grad_output.shape(),
            (input.rows(), n),
            "gradient shape mismatch"
        );
        let _span = hqnn_telemetry::span("core.qlayer_backward");
        let n_params = self.template.param_count();
        let mut grad_params = Matrix::zeros(1, n_params);
        let mut grad_input = Matrix::zeros(input.rows(), n);

        // Per-sample gradients fan out in parallel; the reduction below stays
        // sequential in row order so the shared `grad_params` accumulator
        // sums in the same order at every thread count.
        let params = self.params.as_slice();
        match self.method {
            GradientMethod::Adjoint => {
                // One reverse sweep per row, seeded with the upstream
                // gradient: the contraction over observables happens inside
                // the sweep instead of after it.
                let batch = vjp_batch(&self.circuit, input, params, &self.observables, grad_output);
                for (r, vjp) in batch.iter().enumerate() {
                    for (acc, g) in grad_params.as_mut_slice().iter_mut().zip(&vjp.d_params) {
                        *acc += g;
                    }
                    for (dst, g) in grad_input.row_mut(r).iter_mut().zip(&vjp.d_inputs) {
                        *dst = *g;
                    }
                }
            }
            GradientMethod::ParameterShift => {
                let batch = gradients_batch(
                    &self.circuit,
                    GradEngine::ParameterShift,
                    input,
                    params,
                    &self.observables,
                );
                for (r, grads) in batch.iter().enumerate() {
                    accumulate_chain(
                        grads,
                        grad_output.row(r),
                        &mut grad_params,
                        grad_input.row_mut(r),
                    );
                }
            }
        }
        self.grad_params = grad_params;
        grad_input
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        f(&mut self.params, &self.grad_params);
    }

    fn param_count(&self) -> usize {
        self.template.param_count()
    }

    fn output_dim(&self, _input_dim: usize) -> usize {
        self.template.n_qubits()
    }

    fn describe(&self) -> String {
        self.template.label()
    }
}

/// Chain rule over the observables axis for one sample:
/// `dL/dθ_t += Σ_o dL/d⟨O_o⟩ · d⟨O_o⟩/dθ_t` into `grad_params` (a
/// `1 × n_params` accumulator shared across the batch) and
/// `dL/dx_i = Σ_o dL/d⟨O_o⟩ · d⟨O_o⟩/dx_i` into this sample's
/// `grad_input_row`. Used by the shift-rule paths of the ideal and noisy
/// quantum layers; the adjoint path contracts inside the sweep instead.
pub(crate) fn accumulate_chain(
    grads: &hqnn_qsim::Gradients,
    grad_output_row: &[f64],
    grad_params: &mut Matrix,
    grad_input_row: &mut [f64],
) {
    let (n_obs, n_params) = grads.d_params.shape();
    let n_inputs = grads.d_inputs.cols();
    for (o, &w) in grad_output_row.iter().enumerate().take(n_obs) {
        if w == 0.0 {
            continue;
        }
        for t in 0..n_params {
            grad_params[(0, t)] += w * grads.d_params[(o, t)];
        }
        for (i, gi) in grad_input_row.iter_mut().enumerate().take(n_inputs) {
            *gi += w * grads.d_inputs[(o, i)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqnn_qsim::EntanglerKind;

    fn layer(kind: EntanglerKind, seed: u64) -> QuantumLayer {
        let mut rng = SeededRng::new(seed);
        QuantumLayer::new(QnnTemplate::new(3, 2, kind), &mut rng)
    }

    #[test]
    fn forward_outputs_expectations_in_range() {
        let mut rng = SeededRng::new(1);
        let mut l = layer(EntanglerKind::Strong, 7);
        let x = Matrix::uniform(5, 3, -2.0, 2.0, &mut rng);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), (5, 3));
        assert!(y
            .as_slice()
            .iter()
            .all(|v| (-1.0 - 1e-12..=1.0 + 1e-12).contains(v)));
    }

    #[test]
    fn forward_matches_direct_circuit_evaluation() {
        let mut rng = SeededRng::new(2);
        let mut l = layer(EntanglerKind::Basic, 9);
        let x = Matrix::uniform(2, 3, -1.0, 1.0, &mut rng);
        let y = l.forward(&x, false);
        let obs: Vec<_> = (0..3).map(Observable::z).collect();
        for r in 0..2 {
            let direct = l
                .circuit()
                .expectations(x.row(r), l.params().as_slice(), &obs);
            for (a, b) in y.row(r).iter().zip(&direct) {
                assert!((a - b).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn adjoint_and_shift_backward_agree() {
        let mut rng = SeededRng::new(3);
        let x = Matrix::uniform(4, 3, -1.5, 1.5, &mut rng);
        let g = Matrix::uniform(4, 3, -1.0, 1.0, &mut rng);

        let template = QnnTemplate::new(3, 2, EntanglerKind::Strong);
        let params = Matrix::uniform(
            1,
            template.param_count(),
            0.0,
            std::f64::consts::TAU,
            &mut rng,
        );

        let mut a = QuantumLayer::from_parts(template, params.clone());
        let mut p = QuantumLayer::from_parts(template, params)
            .with_gradient_method(GradientMethod::ParameterShift);

        let _ = a.forward(&x, true);
        let _ = p.forward(&x, true);
        let dx_a = a.backward(&g);
        let dx_p = p.backward(&g);
        assert!(dx_a.approx_eq(&dx_p, 1e-9));

        let mut ga = Matrix::zeros(1, 0);
        a.visit_params(&mut |_v, gr| ga = gr.clone());
        let mut gp = Matrix::zeros(1, 0);
        p.visit_params(&mut |_v, gr| gp = gr.clone());
        assert!(ga.approx_eq(&gp, 1e-9));
    }

    #[test]
    fn backward_matches_finite_difference_loss() {
        // Scalar pseudo-loss L = Σ_r Σ_o w_{ro} · out_{ro}; check dL/dθ and dL/dx.
        let mut rng = SeededRng::new(4);
        let template = QnnTemplate::new(2, 2, EntanglerKind::Basic);
        let params = Matrix::uniform(
            1,
            template.param_count(),
            0.0,
            std::f64::consts::TAU,
            &mut rng,
        );
        let x = Matrix::uniform(3, 2, -1.0, 1.0, &mut rng);
        let w = Matrix::uniform(3, 2, -1.0, 1.0, &mut rng);

        let mut l = QuantumLayer::from_parts(template, params.clone());
        let _ = l.forward(&x, true);
        let dx = l.backward(&w);
        let mut dtheta = Matrix::zeros(1, 0);
        l.visit_params(&mut |_v, g| dtheta = g.clone());

        let eval = |params: &Matrix, x: &Matrix| -> f64 {
            let mut probe = QuantumLayer::from_parts(template, params.clone());
            probe.forward(x, false).hadamard(&w).sum()
        };
        let eps = 1e-6;
        for t in 0..template.param_count() {
            let mut up = params.clone();
            up[(0, t)] += eps;
            let mut dn = params.clone();
            dn[(0, t)] -= eps;
            let fd = (eval(&up, &x) - eval(&dn, &x)) / (2.0 * eps);
            assert!((dtheta[(0, t)] - fd).abs() < 1e-6, "θ_{t}");
        }
        for r in 0..3 {
            for c in 0..2 {
                let mut up = x.clone();
                up[(r, c)] += eps;
                let mut dn = x.clone();
                dn[(r, c)] -= eps;
                let fd = (eval(&params, &up) - eval(&params, &dn)) / (2.0 * eps);
                assert!((dx[(r, c)] - fd).abs() < 1e-6, "x_({r},{c})");
            }
        }
    }

    #[test]
    fn backward_is_bitwise_identical_across_threads_and_fusion_levels() {
        let mut rng = SeededRng::new(5);
        let x = Matrix::uniform(9, 4, -1.5, 1.5, &mut rng);
        let mut g = Matrix::uniform(9, 4, -1.0, 1.0, &mut rng);
        g[(2, 1)] = 0.0;
        for kind in [EntanglerKind::Basic, EntanglerKind::Strong] {
            let template = QnnTemplate::new(4, 3, kind);
            let params = Matrix::uniform(
                1,
                template.param_count(),
                0.0,
                std::f64::consts::TAU,
                &mut rng,
            );
            let run = |threads: usize, level: u8| {
                hqnn_runtime::with_threads(threads, || {
                    hqnn_qsim::with_fusion_level(level, || {
                        let mut l = QuantumLayer::from_parts(template, params.clone());
                        let _ = l.forward(&x, true);
                        let dx = l.backward(&g);
                        let mut dtheta = Matrix::zeros(1, 0);
                        l.visit_params(&mut |_v, gr| dtheta = gr.clone());
                        (dx, dtheta)
                    })
                })
            };
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (dx_ref, dtheta_ref) = run(1, 0);
            for threads in [1, 2, 7] {
                for level in [0u8, 1, 2] {
                    let (dx, dtheta) = run(threads, level);
                    assert_eq!(
                        bits(&dx),
                        bits(&dx_ref),
                        "{kind:?} threads={threads} level={level}"
                    );
                    assert_eq!(
                        bits(&dtheta),
                        bits(&dtheta_ref),
                        "{kind:?} threads={threads} level={level}"
                    );
                }
            }
        }
    }

    #[test]
    fn param_initialisation_is_in_zero_two_pi() {
        let l = layer(EntanglerKind::Strong, 11);
        assert!(l
            .params()
            .as_slice()
            .iter()
            .all(|&v| (0.0..2.0 * std::f64::consts::PI).contains(&v)));
    }

    #[test]
    fn layer_metadata() {
        let l = layer(EntanglerKind::Basic, 0);
        assert_eq!(l.param_count(), 6);
        assert_eq!(l.output_dim(3), 3);
        assert_eq!(l.describe(), "BEL(3q,2l)");
        assert_eq!(l.gradient_method(), GradientMethod::Adjoint);
    }

    #[test]
    #[should_panic(expected = "expected 3 encoding angles")]
    fn forward_validates_input_width() {
        let mut l = layer(EntanglerKind::Basic, 0);
        let _ = l.forward(&Matrix::zeros(1, 5), true);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_requires_forward() {
        let mut l = layer(EntanglerKind::Basic, 0);
        let _ = l.backward(&Matrix::zeros(1, 3));
    }

    #[test]
    #[should_panic(expected = "params must be")]
    fn from_parts_validates_param_shape() {
        let t = QnnTemplate::new(3, 2, EntanglerKind::Basic);
        let _ = QuantumLayer::from_parts(t, Matrix::zeros(1, 5));
    }
}
