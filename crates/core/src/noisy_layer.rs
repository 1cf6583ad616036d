//! A quantum layer evaluated under a NISQ noise model.
//!
//! The paper's evaluation simulates *ideal* quantum layers and argues the
//! observed advantages would carry over to real (noisy) hardware; this layer
//! removes that idealisation so the claim can be stress-tested: the same
//! encoding + ansatz is simulated as a density matrix with per-gate noise
//! channels, and trained with the parameter-shift rule (which remains exact
//! for channel expectations — see
//! [`hqnn_qsim::gradient::parameter_shift_noisy`]).
//!
//! Density-matrix simulation costs O(4ⁿ) and parameter-shift costs two
//! simulations per weight, so this layer is meant for small-circuit studies
//! (the `noisy_training` example), not the full grid search.

use hqnn_nn::Layer;
use hqnn_qsim::{
    gradients_batch, Circuit, DensityMatrix, GradEngine, NoiseModel, Observable, QnnTemplate,
};
use hqnn_tensor::{Matrix, SeededRng};

use crate::quantum_layer::accumulate_chain;

/// A trainable variational quantum layer whose circuit executes under a
/// [`NoiseModel`].
///
/// Same interface and semantics as [`crate::QuantumLayer`] — input
/// `(batch, n_qubits)` encoding angles, output `(batch, n_qubits)` ⟨Z⟩
/// readouts — but every gate is followed by the model's noise channels, so
/// outputs are damped toward 0 as noise grows and gradients shrink
/// accordingly.
///
/// # Example
///
/// ```
/// use hqnn_core::NoisyQuantumLayer;
/// use hqnn_nn::Layer;
/// use hqnn_qsim::{EntanglerKind, NoiseModel, QnnTemplate};
/// use hqnn_tensor::{Matrix, SeededRng};
///
/// let mut rng = SeededRng::new(5);
/// let template = QnnTemplate::new(2, 1, EntanglerKind::Basic);
/// let mut layer = NoisyQuantumLayer::new(template, NoiseModel::depolarizing(0.05), &mut rng);
/// let out = layer.forward(&Matrix::zeros(3, 2), true);
/// assert_eq!(out.shape(), (3, 2));
/// ```
#[derive(Debug, Clone)]
pub struct NoisyQuantumLayer {
    template: QnnTemplate,
    circuit: Circuit,
    observables: Vec<Observable>,
    noise: NoiseModel,
    params: Matrix,
    grad_params: Matrix,
    cached_input: Option<Matrix>,
}

impl NoisyQuantumLayer {
    /// Creates the layer with `[0, 2π)`-uniform weights.
    pub fn new(template: QnnTemplate, noise: NoiseModel, rng: &mut SeededRng) -> Self {
        let n = template.param_count();
        let params = if n == 0 {
            Matrix::zeros(1, 0)
        } else {
            Matrix::uniform(1, n, 0.0, 2.0 * std::f64::consts::PI, rng)
        };
        Self::from_parts(template, noise, params)
    }

    /// Creates the layer with explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if `params` is not `1 × template.param_count()`.
    pub fn from_parts(template: QnnTemplate, noise: NoiseModel, params: Matrix) -> Self {
        assert_eq!(
            params.shape(),
            (1, template.param_count()),
            "params must be 1 × {}",
            template.param_count()
        );
        Self {
            circuit: template.build(),
            observables: (0..template.n_qubits()).map(Observable::z).collect(),
            grad_params: Matrix::zeros(1, template.param_count()),
            template,
            noise,
            params,
            cached_input: None,
        }
    }

    /// The configured noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The template this layer was built from.
    pub fn template(&self) -> &QnnTemplate {
        &self.template
    }

    /// The current weights as a `1 × param_count` row.
    pub fn params(&self) -> &Matrix {
        &self.params
    }
}

impl Layer for NoisyQuantumLayer {
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix {
        let n = self.template.n_qubits();
        assert_eq!(
            input.cols(),
            n,
            "NoisyQuantumLayer expected {n} encoding angles, got {}",
            input.cols()
        );
        // Only a training forward leaves a cache for `backward`.
        self.cached_input = training.then(|| input.clone());
        // Density-matrix simulations are the most expensive per-sample work
        // in the workspace (O(4ⁿ) each), so rows fan out across the runtime.
        let rows = hqnn_runtime::par_map_range(input.rows(), |r| {
            let rho = DensityMatrix::run_noisy(
                &self.circuit,
                input.row(r),
                self.params.as_slice(),
                &self.noise,
            );
            (0..n)
                .map(|wire| rho.expectation_z(wire))
                .collect::<Vec<f64>>()
        });
        let mut out = Matrix::zeros(input.rows(), n);
        for (r, row) in rows.iter().enumerate() {
            out.row_mut(r).copy_from_slice(row);
        }
        out
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
        let mut grad_params = Matrix::zeros(1, self.template.param_count());
        let mut grad_input = Matrix::zeros(input.rows(), n);
        // Parallel per-sample gradients, sequential row-order reduction into
        // the shared accumulator (keeps f64 grouping identical to the loop).
        let batch = gradients_batch(
            &self.circuit,
            GradEngine::ParameterShiftNoisy(&self.noise),
            input,
            self.params.as_slice(),
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
        if self.noise.is_noiseless() {
            format!("{}+noiseless", self.template.label())
        } else {
            format!("{}+noise", self.template.label())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantumLayer;
    use hqnn_qsim::EntanglerKind;

    fn template() -> QnnTemplate {
        QnnTemplate::new(2, 2, EntanglerKind::Strong)
    }

    #[test]
    fn noiseless_layer_matches_ideal_layer() {
        let mut rng = SeededRng::new(3);
        let params = Matrix::uniform(
            1,
            template().param_count(),
            0.0,
            std::f64::consts::TAU,
            &mut rng,
        );
        let x = Matrix::uniform(4, 2, -1.0, 1.0, &mut rng);
        let g = Matrix::uniform(4, 2, -1.0, 1.0, &mut rng);

        let mut ideal = QuantumLayer::from_parts(template(), params.clone());
        let mut noisy = NoisyQuantumLayer::from_parts(template(), NoiseModel::noiseless(), params);

        let out_i = ideal.forward(&x, true);
        let out_n = noisy.forward(&x, true);
        assert!(out_i.approx_eq(&out_n, 1e-9));

        let dx_i = ideal.backward(&g);
        let dx_n = noisy.backward(&g);
        assert!(dx_i.approx_eq(&dx_n, 1e-8));

        let mut gi = Matrix::zeros(1, 0);
        ideal.visit_params(&mut |_v, gr| gi = gr.clone());
        let mut gn = Matrix::zeros(1, 0);
        noisy.visit_params(&mut |_v, gr| gn = gr.clone());
        assert!(gi.approx_eq(&gn, 1e-8));
    }

    #[test]
    fn noise_damps_outputs() {
        let mut rng = SeededRng::new(4);
        let params = Matrix::uniform(
            1,
            template().param_count(),
            0.0,
            std::f64::consts::TAU,
            &mut rng,
        );
        let x = Matrix::uniform(3, 2, -1.0, 1.0, &mut rng);
        let mut clean =
            NoisyQuantumLayer::from_parts(template(), NoiseModel::noiseless(), params.clone());
        let mut noisy =
            NoisyQuantumLayer::from_parts(template(), NoiseModel::depolarizing(0.3), params);
        let a = clean.forward(&x, false);
        let b = noisy.forward(&x, false);
        // Depolarizing noise pulls every ⟨Z⟩ toward 0.
        for (ca, cb) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(cb.abs() <= ca.abs() + 1e-9, "{cb} vs {ca}");
        }
        assert!(b.frobenius_norm() < a.frobenius_norm());
    }

    #[test]
    fn trains_under_mild_noise() {
        use hqnn_nn::{one_hot, Adam, Dense, Sequential, SoftmaxCrossEntropy};
        let mut rng = SeededRng::new(7);
        let mut model = Sequential::new();
        model.push(Dense::new(2, 2, &mut rng));
        model.push(NoisyQuantumLayer::new(
            template(),
            NoiseModel::depolarizing(0.02),
            &mut rng,
        ));
        model.push(Dense::new(2, 2, &mut rng));

        let x = Matrix::from_rows(&[&[1.0, 1.0], &[1.1, 0.9], &[-1.0, -1.0], &[-0.9, -1.1]]);
        let labels = [0usize, 0, 1, 1];
        let targets = one_hot(&labels, 2);
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut opt = Adam::new(0.1);
        let mut final_loss = f64::INFINITY;
        for _ in 0..40 {
            let logits = model.forward(&x, true);
            let (loss, grad) = loss_fn.loss_and_grad(&logits, &targets);
            model.backward(&grad);
            model.apply_gradients(&mut opt);
            final_loss = loss;
        }
        assert!(
            final_loss < 0.3,
            "noisy hybrid failed to learn: {final_loss}"
        );
    }

    #[test]
    fn describe_reflects_noise() {
        let mut rng = SeededRng::new(1);
        let clean = NoisyQuantumLayer::new(template(), NoiseModel::noiseless(), &mut rng);
        let noisy = NoisyQuantumLayer::new(template(), NoiseModel::depolarizing(0.1), &mut rng);
        assert!(clean.describe().contains("noiseless"));
        assert!(noisy.describe().ends_with("+noise"));
        assert_eq!(noisy.param_count(), template().param_count());
        assert!(!noisy.noise().is_noiseless());
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_requires_forward() {
        let mut rng = SeededRng::new(1);
        let mut layer = NoisyQuantumLayer::new(template(), NoiseModel::noiseless(), &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn inference_forward_leaves_no_backward_cache() {
        let mut rng = SeededRng::new(1);
        let mut layer = NoisyQuantumLayer::new(template(), NoiseModel::noiseless(), &mut rng);
        let _ = layer.forward(&Matrix::zeros(1, 2), true);
        let _ = layer.forward(&Matrix::zeros(2, 2), false);
        let _ = layer.backward(&Matrix::zeros(2, 2));
    }
}
