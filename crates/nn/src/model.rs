//! The [`Sequential`] model container.

use hqnn_tensor::Matrix;

use crate::layer::Layer;
use crate::optimizer::Optimizer;

/// An ordered stack of layers trained end to end.
///
/// # Example
///
/// ```
/// use hqnn_nn::{Activation, Dense, Sequential};
/// use hqnn_tensor::{Matrix, SeededRng};
///
/// let mut rng = SeededRng::new(1);
/// let mut model = Sequential::new();
/// model.push(Dense::new(2, 4, &mut rng));
/// model.push(Activation::tanh());
/// model.push(Dense::new(4, 3, &mut rng));
/// let out = model.forward(&Matrix::zeros(5, 2), false);
/// assert_eq!(out.shape(), (5, 3));
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Runs the full forward pass. A training pass caches per-layer state
    /// for a subsequent [`Sequential::backward`]; an inference pass drops it.
    pub fn forward(&mut self, input: &Matrix, training: bool) -> Matrix {
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.forward(input, training);
        for layer in layers {
            x = layer.forward(&x, training);
        }
        x
    }

    /// Runs the full backward pass from `dL/d(output)`, storing parameter
    /// gradients in every layer and returning `dL/d(input)`.
    ///
    /// # Panics
    ///
    /// Panics (from the layers) when no matching training forward pass
    /// preceded it.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return grad_output.clone();
        };
        let mut g = last.backward(grad_output);
        for layer in layers {
            g = layer.backward(&g);
        }
        g
    }

    /// Visits every parameter `(value, grad)` pair in a stable order
    /// (layer order, then each layer's own parameter order).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Applies one optimizer step to all parameters using the gradients
    /// stored by the last [`Sequential::backward`].
    pub fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) {
        optimizer.begin_step();
        let mut slot = 0;
        self.visit_params(&mut |value, grad| {
            optimizer.update(slot, value, grad);
            slot += 1;
        });
    }

    /// L2 norm over all parameter gradients stored by the last
    /// [`Sequential::backward`]. Accumulated as a sequential fold in
    /// [`Sequential::visit_params`] order, so the value is deterministic at
    /// any thread count — the training-health sentinels rely on that.
    pub fn grad_norm(&mut self) -> f64 {
        let mut sum_sq = 0.0;
        self.visit_params(&mut |_value, grad| {
            for g in grad.as_slice() {
                sum_sq += g * g;
            }
        });
        sum_sq.sqrt()
    }

    /// Total number of trainable scalars — one of the paper's two complexity
    /// metrics.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Inference-mode forward pass.
    pub fn predict(&mut self, input: &Matrix) -> Matrix {
        self.forward(input, false)
    }

    /// A compact architecture description, e.g.
    /// `"Dense(10→8) → Relu → Dense(8→3)"`.
    pub fn describe(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.describe())
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, Dense};
    use crate::loss::{one_hot, SoftmaxCrossEntropy};
    use crate::optimizer::{Adam, Sgd};
    use hqnn_tensor::SeededRng;

    fn toy_model(rng: &mut SeededRng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Dense::new(2, 8, rng));
        m.push(Activation::tanh());
        m.push(Dense::new(8, 2, rng));
        m
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = SeededRng::new(3);
        let m = toy_model(&mut rng);
        assert_eq!(m.param_count(), 2 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn describe_joins_layers() {
        let mut rng = SeededRng::new(3);
        let m = toy_model(&mut rng);
        assert_eq!(m.describe(), "Dense(2→8) → Tanh → Dense(8→2)");
    }

    #[test]
    fn forward_shapes_flow_through() {
        let mut rng = SeededRng::new(4);
        let mut m = toy_model(&mut rng);
        let out = m.forward(&Matrix::zeros(7, 2), true);
        assert_eq!(out.shape(), (7, 2));
    }

    #[test]
    fn backward_returns_input_gradient_shape() {
        let mut rng = SeededRng::new(5);
        let mut m = toy_model(&mut rng);
        let x = Matrix::uniform(4, 2, -1.0, 1.0, &mut rng);
        let _ = m.forward(&x, true);
        let g = m.backward(&Matrix::filled(4, 2, 1.0));
        assert_eq!(g.shape(), (4, 2));
        assert!(g.all_finite());
    }

    #[test]
    fn model_gradients_match_autodiff_tape() {
        // Hand-rolled backprop must agree with the independent tape engine.
        let mut rng = SeededRng::new(8);
        let w1 = Matrix::glorot_uniform(3, 5, &mut rng);
        let b1 = Matrix::uniform(1, 5, -0.1, 0.1, &mut rng);
        let w2 = Matrix::glorot_uniform(5, 2, &mut rng);
        let b2 = Matrix::uniform(1, 2, -0.1, 0.1, &mut rng);
        let x = Matrix::uniform(6, 3, -1.0, 1.0, &mut rng);
        let targets = one_hot(&[0, 1, 0, 1, 1, 0], 2);

        // Layer-wise path.
        let mut model = Sequential::new();
        model.push(Dense::from_parts(w1.clone(), b1.clone()));
        model.push(Activation::tanh());
        model.push(Dense::from_parts(w2.clone(), b2.clone()));
        let logits = model.forward(&x, true);
        let (loss, dlogits) = SoftmaxCrossEntropy::new().loss_and_grad(&logits, &targets);
        let dx = model.backward(&dlogits);
        let mut layer_grads = Vec::new();
        model.visit_params(&mut |_v, g| layer_grads.push(g.clone()));

        // Tape path.
        let mut g = hqnn_autodiff::Graph::new();
        let xv = g.input(x.clone());
        let w1v = g.input(w1);
        let b1v = g.input(b1);
        let w2v = g.input(w2);
        let b2v = g.input(b2);
        let h = g.matmul(xv, w1v);
        let h = g.add_bias(h, b1v);
        let h = g.tanh(h);
        let z = g.matmul(h, w2v);
        let z = g.add_bias(z, b2v);
        let l = g.softmax_cross_entropy(z, &targets);
        g.backward(l);

        assert!((loss - g.value(l)[(0, 0)]).abs() < 1e-12);
        assert!(layer_grads[0].approx_eq(g.grad(w1v), 1e-10), "dW1 mismatch");
        assert!(layer_grads[1].approx_eq(g.grad(b1v), 1e-10), "db1 mismatch");
        assert!(layer_grads[2].approx_eq(g.grad(w2v), 1e-10), "dW2 mismatch");
        assert!(layer_grads[3].approx_eq(g.grad(b2v), 1e-10), "db2 mismatch");
        assert!(dx.approx_eq(g.grad(xv), 1e-10), "dX mismatch");
    }

    #[test]
    fn training_xor_with_adam_converges() {
        let mut rng = SeededRng::new(11);
        let mut model = toy_model(&mut rng);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let labels = [0usize, 1, 1, 0];
        let targets = one_hot(&labels, 2);
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut opt = Adam::new(0.05);
        let mut last_loss = f64::INFINITY;
        for _ in 0..400 {
            let logits = model.forward(&x, true);
            let (loss, grad) = loss_fn.loss_and_grad(&logits, &targets);
            model.backward(&grad);
            model.apply_gradients(&mut opt);
            last_loss = loss;
        }
        assert!(last_loss < 0.05, "XOR did not converge: loss = {last_loss}");
        let logits = model.predict(&x);
        assert_eq!(crate::loss::accuracy(&logits, &labels), 1.0);
    }

    #[test]
    fn sgd_also_reduces_loss() {
        let mut rng = SeededRng::new(12);
        let mut model = toy_model(&mut rng);
        let x = Matrix::uniform(16, 2, -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let targets = one_hot(&labels, 2);
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(0.1);
        let logits = model.forward(&x, true);
        let (initial, grad) = loss_fn.loss_and_grad(&logits, &targets);
        model.backward(&grad);
        model.apply_gradients(&mut opt);
        for _ in 0..50 {
            let logits = model.forward(&x, true);
            let (_, grad) = loss_fn.loss_and_grad(&logits, &targets);
            model.backward(&grad);
            model.apply_gradients(&mut opt);
        }
        let logits = model.forward(&x, false);
        let (final_loss, _) = loss_fn.loss_and_grad(&logits, &targets);
        assert!(final_loss < initial, "{final_loss} !< {initial}");
    }

    #[test]
    fn empty_model_is_identity() {
        let mut m = Sequential::new();
        let x = Matrix::row_vector(&[1.0, 2.0]);
        assert_eq!(m.forward(&x, true), x);
        assert_eq!(m.param_count(), 0);
    }
}
