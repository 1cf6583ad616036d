//! The [`Layer`] trait and the classical layers (dense, activations).

use std::fmt;

use hqnn_tensor::{Matrix, SeededRng};

/// A differentiable network layer operating on `(batch, features)` matrices.
///
/// The contract mirrors classic layer-wise backprop:
///
/// 1. [`Layer::forward`] maps a batch to its output. A training forward
///    (`training = true`) caches whatever the backward pass will need; an
///    inference forward drops that cache.
/// 2. [`Layer::backward`] receives `dL/d(output)`, **stores** `dL/d(params)`
///    internally (overwriting any previous gradients) and returns
///    `dL/d(input)`. It must be called after a matching `forward`.
/// 3. [`Layer::visit_params`] exposes `(value, grad)` pairs in a stable order
///    so optimizers can update them.
///
/// The trait is object-safe and open: `hqnn-core` implements it for the
/// simulated quantum layer, which is what lets hybrid and classical models
/// share one training loop.
pub trait Layer: fmt::Debug {
    /// Computes the layer output for a batch. With `training` set the layer
    /// keeps what [`Layer::backward`] needs; without it (inference, e.g.
    /// [`Sequential::predict`](crate::Sequential::predict)) the built-in
    /// layers drop their cache, so a following `backward` panics instead of
    /// differentiating the evaluation batch.
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix;

    /// Consumes `dL/d(output)` and returns `dL/d(input)`, storing parameter
    /// gradients internally.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding training
    /// `forward` or with a gradient whose shape does not match the cached
    /// forward output.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Visits every `(value, grad)` parameter pair in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &Matrix));

    /// Total number of trainable scalars.
    fn param_count(&self) -> usize;

    /// Output feature dimension given the input feature dimension.
    fn output_dim(&self, input_dim: usize) -> usize;

    /// Short human-readable description (e.g. `"Dense(10→3)"`).
    fn describe(&self) -> String;
}

/// A fully connected layer: `y = x·W + b` with Glorot-uniform `W` and zero
/// `b`, matching the Keras `Dense` defaults used in the paper.
///
/// # Example
///
/// ```
/// use hqnn_nn::{Dense, Layer};
/// use hqnn_tensor::{Matrix, SeededRng};
///
/// let mut rng = SeededRng::new(7);
/// let mut dense = Dense::new(3, 2, &mut rng);
/// assert_eq!(dense.param_count(), 3 * 2 + 2);
/// let y = dense.forward(&Matrix::zeros(4, 3), true);
/// assert_eq!(y.shape(), (4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Matrix,
    bias: Matrix,
    grad_weight: Matrix,
    grad_bias: Matrix,
    cached_input: Option<Matrix>,
    /// Scratch for `Wᵀ` in the backward pass, reused across steps.
    weight_t: Matrix,
}

impl Dense {
    /// Creates a dense layer with `in_dim` inputs and `out_dim` outputs.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeededRng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "dense dimensions must be positive"
        );
        Self {
            weight: Matrix::glorot_uniform(in_dim, out_dim, rng),
            bias: Matrix::zeros(1, out_dim),
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
            cached_input: None,
            weight_t: Matrix::zeros(out_dim, in_dim),
        }
    }

    /// Creates a dense layer with explicit weights (tests / serialization).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × weight.cols()`.
    pub fn from_parts(weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(bias.shape(), (1, weight.cols()), "bias shape mismatch");
        let (r, c) = weight.shape();
        Self {
            grad_weight: Matrix::zeros(r, c),
            grad_bias: Matrix::zeros(1, c),
            weight,
            bias,
            cached_input: None,
            weight_t: Matrix::zeros(c, r),
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix {
        assert_eq!(
            input.cols(),
            self.in_dim(),
            "Dense expected {} features, got {}",
            self.in_dim(),
            input.cols()
        );
        cache(&mut self.cached_input, input, training);
        let mut out = input.matmul(&self.weight);
        out.add_row_broadcast_assign(&self.bias);
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self
            .cached_input
            .as_ref()
            // lint:allow(panic): documented Layer API contract
            .expect("backward called before forward");
        assert_eq!(
            grad_output.shape(),
            (input.rows(), self.out_dim()),
            "gradient shape mismatch"
        );
        input.matmul_tn(grad_output, &mut self.grad_weight);
        grad_output.sum_rows_into(&mut self.grad_bias);
        // A dot-product `g·Wᵀ` kernel over W's rows measured slower than
        // this transpose-then-matmul at the study's widths.
        self.weight.transpose_into(&mut self.weight_t);
        grad_output.matmul(&self.weight_t)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &Matrix)) {
        f(&mut self.weight, &self.grad_weight);
        f(&mut self.bias, &self.grad_bias);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn output_dim(&self, _input_dim: usize) -> usize {
        self.out_dim()
    }

    fn describe(&self) -> String {
        format!("Dense({}→{})", self.in_dim(), self.out_dim())
    }
}

/// Keeps a copy of `value` in `slot` for the backward pass when `training`,
/// reusing the slot's buffer across steps; an inference forward empties the
/// slot instead.
fn cache(slot: &mut Option<Matrix>, value: &Matrix, training: bool) {
    match (training, slot.as_mut()) {
        (false, _) => *slot = None,
        (true, Some(buf)) => buf.clone_from(value),
        (true, None) => *slot = Some(value.clone()),
    }
}

/// The supported pointwise non-linearities.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl ActivationKind {
    fn apply(self, x: f64) -> f64 {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative expressed in terms of the activation *output* `y` (all
    /// three supported functions admit this form, which avoids caching the
    /// pre-activation).
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            ActivationKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - y * y,
            ActivationKind::Sigmoid => y * (1.0 - y),
        }
    }
}

/// A parameter-free pointwise activation layer.
///
/// # Example
///
/// ```
/// use hqnn_nn::{Activation, Layer};
/// use hqnn_tensor::Matrix;
///
/// let mut relu = Activation::relu();
/// let y = relu.forward(&Matrix::row_vector(&[-1.0, 2.0]), true);
/// assert_eq!(y.as_slice(), &[0.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Activation {
    kind: ActivationKind,
    cached_output: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Self {
            kind,
            cached_output: None,
        }
    }

    /// `relu` activation.
    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    /// `tanh` activation.
    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }

    /// Logistic sigmoid activation.
    pub fn sigmoid() -> Self {
        Self::new(ActivationKind::Sigmoid)
    }

    /// Which non-linearity this layer applies.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Layer for Activation {
    fn forward(&mut self, input: &Matrix, training: bool) -> Matrix {
        let out = input.map(|v| self.kind.apply(v));
        cache(&mut self.cached_output, &out, training);
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let out = self
            .cached_output
            .as_ref()
            // lint:allow(panic): documented Layer API contract
            .expect("backward called before forward");
        assert_eq!(grad_output.shape(), out.shape(), "gradient shape mismatch");
        grad_output.zip_with(out, |g, y| g * self.kind.derivative_from_output(y))
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &Matrix)) {}

    fn param_count(&self) -> usize {
        0
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        input_dim
    }

    fn describe(&self) -> String {
        format!("{:?}", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SeededRng {
        SeededRng::new(42)
    }

    #[test]
    fn dense_forward_matches_manual() {
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::row_vector(&[0.5, -0.5]);
        let mut d = Dense::from_parts(w, b);
        let x = Matrix::from_rows(&[&[1.0, 1.0]]);
        let y = d.forward(&x, true);
        assert_eq!(y, Matrix::from_rows(&[&[4.5, 5.5]]));
    }

    #[test]
    fn dense_backward_gradients_match_formulas() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let b = Matrix::row_vector(&[0.0, 0.0]);
        let mut d = Dense::from_parts(w, b);
        let x = Matrix::from_rows(&[&[2.0, 3.0], &[4.0, 5.0]]);
        let _ = d.forward(&x, true);
        let g = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let dx = d.backward(&g);
        // dX = G·Wᵀ = G (identity W).
        assert_eq!(dx, g);
        let mut seen = Vec::new();
        d.visit_params(&mut |_v, grad| seen.push(grad.clone()));
        // dW = Xᵀ·G.
        assert_eq!(seen[0], x.transpose().matmul(&g));
        // db = column sums of G.
        assert_eq!(seen[1], Matrix::row_vector(&[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn dense_backward_requires_forward() {
        let mut d = Dense::new(2, 2, &mut rng());
        let _ = d.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn dense_inference_forward_leaves_no_backward_cache() {
        let mut d = Dense::new(2, 2, &mut rng());
        let _ = d.forward(&Matrix::zeros(1, 2), true);
        let _ = d.forward(&Matrix::zeros(3, 2), false);
        let _ = d.backward(&Matrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "expected 3 features")]
    fn dense_forward_validates_width() {
        let mut d = Dense::new(3, 2, &mut rng());
        let _ = d.forward(&Matrix::zeros(1, 4), true);
    }

    #[test]
    fn dense_param_count() {
        let d = Dense::new(10, 3, &mut rng());
        assert_eq!(d.param_count(), 33);
        assert_eq!(d.output_dim(10), 3);
        assert_eq!(d.describe(), "Dense(10→3)");
    }

    #[test]
    fn activation_forward_values() {
        let x = Matrix::row_vector(&[-2.0, 0.0, 2.0]);
        assert_eq!(
            Activation::relu().forward(&x, true).as_slice(),
            &[0.0, 0.0, 2.0]
        );
        let t = Activation::tanh().forward(&x, true);
        assert!((t.as_slice()[2] - 2.0f64.tanh()).abs() < 1e-15);
        let s = Activation::sigmoid().forward(&x, true);
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn activation_backward_derivatives() {
        for kind in [
            ActivationKind::Relu,
            ActivationKind::Tanh,
            ActivationKind::Sigmoid,
        ] {
            let mut layer = Activation::new(kind);
            let x = Matrix::row_vector(&[-1.0, 0.5, 2.0]);
            let y = layer.forward(&x, true);
            let ones = Matrix::filled(1, 3, 1.0);
            let dx = layer.backward(&ones);
            // Finite-difference check per element.
            let eps = 1e-6;
            for i in 0..3 {
                let mut xp = x.clone();
                xp.as_mut_slice()[i] += eps;
                let mut xm = x.clone();
                xm.as_mut_slice()[i] -= eps;
                let fd =
                    (kind.apply(xp.as_slice()[i]) - kind.apply(xm.as_slice()[i])) / (2.0 * eps);
                assert!(
                    (dx.as_slice()[i] - fd).abs() < 1e-6,
                    "{kind:?} elem {i}: {} vs {fd}",
                    dx.as_slice()[i]
                );
            }
            let _ = y;
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn activation_inference_forward_leaves_no_backward_cache() {
        let mut a = Activation::tanh();
        let _ = a.forward(&Matrix::zeros(1, 2), true);
        let _ = a.forward(&Matrix::zeros(3, 2), false);
        let _ = a.backward(&Matrix::zeros(3, 2));
    }

    #[test]
    fn activation_has_no_params() {
        let mut a = Activation::tanh();
        assert_eq!(a.param_count(), 0);
        let mut called = false;
        a.visit_params(&mut |_v, _g| called = true);
        assert!(!called);
        assert_eq!(a.output_dim(7), 7);
    }
}
