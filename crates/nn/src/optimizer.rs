//! Gradient-based optimizers.

use hqnn_tensor::Matrix;

/// A first-order optimizer updating parameters slot by slot.
///
/// The model drives the iteration (see
/// [`Sequential::apply_gradients`](crate::Sequential::apply_gradients)): each
/// training step it calls [`Optimizer::begin_step`] once and then
/// [`Optimizer::update`] for every parameter in a stable order, passing a
/// per-step `slot` index the optimizer may key per-parameter state on. The
/// model structure must therefore not change between steps.
pub trait Optimizer {
    /// Called once per training step before any [`Optimizer::update`].
    fn begin_step(&mut self) {}

    /// Applies one update: mutate `value` in place using `grad`.
    fn update(&mut self, slot: usize, value: &mut Matrix, grad: &Matrix);

    /// The learning rate currently in effect.
    fn learning_rate(&self) -> f64;
}

/// Stochastic gradient descent, optionally with classical momentum:
/// `v ← μ·v + g ; θ ← θ − lr·v`.
///
/// # Example
///
/// ```
/// use hqnn_nn::{Optimizer, Sgd};
/// use hqnn_tensor::Matrix;
///
/// let mut opt = Sgd::new(0.1);
/// let mut w = Matrix::row_vector(&[1.0]);
/// opt.update(0, &mut w, &Matrix::row_vector(&[2.0]));
/// assert!((w[(0, 0)] - 0.8).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocities: Vec<Option<Matrix>>,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// Creates SGD with classical momentum `mu` (e.g. 0.9).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `mu ∉ [0, 1)`.
    pub fn with_momentum(lr: f64, mu: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&mu), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum: mu,
            velocities: Vec::new(),
        }
    }

    /// The momentum coefficient.
    pub fn momentum(&self) -> f64 {
        self.momentum
    }
}

/// Panics unless `grad` has `value`'s shape: the update loops zip the two,
/// and a zip would silently stop at the shorter one.
fn assert_grad_shape(value: &Matrix, grad: &Matrix) {
    assert_eq!(
        grad.shape(),
        value.shape(),
        "gradient shape does not match its parameter"
    );
}

impl Optimizer for Sgd {
    fn update(&mut self, slot: usize, value: &mut Matrix, grad: &Matrix) {
        assert_grad_shape(value, grad);
        if self.momentum == 0.0 {
            value.add_scaled(grad, -self.lr);
            return;
        }
        if self.velocities.len() <= slot {
            self.velocities.resize(slot + 1, None);
        }
        let (r, c) = value.shape();
        let v = self.velocities[slot].get_or_insert_with(|| Matrix::zeros(r, c));
        assert_eq!(v.shape(), value.shape(), "optimizer slot shape changed");
        for (vi, &gi) in v.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *vi = self.momentum * *vi + gi;
        }
        value.add_scaled(v, -self.lr);
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }
}

/// Adam (Kingma & Ba) with the standard bias-corrected moment estimates —
/// the paper trains everything with `lr = 0.001`, Adam's canonical setting.
///
/// The first-moment correction `1 − β₁ᵗ` rounds to exactly `1.0` once
/// `β₁ᵗ ≤ 2⁻⁵⁴` (from `t = 356` at `β₁ = 0.9`), and from then on the update
/// skips dividing by it: `m / 1.0` is `m` in IEEE arithmetic, so every
/// returned bit is the textbook expression's.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    moments: Vec<Option<(Matrix, Matrix)>>,
}

impl Adam {
    /// Creates Adam with default `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates Adam with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, a beta lies outside `[0, 1)`, or `eps <= 0`.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        assert!(eps > 0.0, "epsilon must be positive");
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            moments: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

/// One Adam pass per entry: m ← β₁ m + (1-β₁) g ; v ← β₂ v + (1-β₂) g²,
/// then the bias-corrected step on the fresh moments, dividing `m` by `bc1`
/// only when `CORRECT_M` (the caller passes `false` exactly when
/// `bc1 == 1.0`).
#[inline(always)]
fn adam_pass<const CORRECT_M: bool>(
    (w, m, v, g): (&mut [f64], &mut [f64], &mut [f64], &[f64]),
    (beta1, beta2, lr, eps): (f64, f64, f64, f64),
    bc1: f64,
    bc2: f64,
) {
    for (((wi, mi), vi), &gi) in w.iter_mut().zip(m).zip(v).zip(g) {
        *mi = beta1 * *mi + (1.0 - beta1) * gi;
        *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
        let m_hat = if CORRECT_M { *mi / bc1 } else { *mi };
        let v_hat = *vi / bc2;
        *wi -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn update(&mut self, slot: usize, value: &mut Matrix, grad: &Matrix) {
        assert_grad_shape(value, grad);
        if self.moments.len() <= slot {
            self.moments.resize(slot + 1, None);
        }
        let (r, c) = value.shape();
        let (m, v) =
            self.moments[slot].get_or_insert_with(|| (Matrix::zeros(r, c), Matrix::zeros(r, c)));
        assert_eq!(m.shape(), value.shape(), "optimizer slot shape changed");

        let hyper = (self.beta1, self.beta2, self.lr, self.eps);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let slices = (
            value.as_mut_slice(),
            m.as_mut_slice(),
            v.as_mut_slice(),
            grad.as_slice(),
        );
        if bc1 == 1.0 {
            adam_pass::<false>(slices, hyper, bc1, bc2);
        } else {
            adam_pass::<true>(slices, hyper, bc1, bc2);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_takes_a_plain_step() {
        let mut opt = Sgd::new(0.5);
        let mut w = Matrix::row_vector(&[1.0, -2.0]);
        let g = Matrix::row_vector(&[1.0, 1.0]);
        opt.begin_step();
        opt.update(0, &mut w, &g);
        assert_eq!(w, Matrix::row_vector(&[0.5, -2.5]));
        assert_eq!(opt.learning_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sgd_rejects_zero_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn sgd_rejects_bad_momentum() {
        let _ = Sgd::with_momentum(0.1, 1.0);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = Sgd::with_momentum(1.0, 0.5);
        let mut w = Matrix::row_vector(&[0.0]);
        let g = Matrix::row_vector(&[1.0]);
        // v₁ = 1, v₂ = 1.5, v₃ = 1.75 → w = -(1 + 1.5 + 1.75) = -4.25.
        for _ in 0..3 {
            opt.begin_step();
            opt.update(0, &mut w, &g);
        }
        assert!((w[(0, 0)] + 4.25).abs() < 1e-12, "w = {}", w[(0, 0)]);
        assert_eq!(opt.momentum(), 0.5);
    }

    #[test]
    fn momentum_converges_faster_on_ravine() {
        // An ill-conditioned quadratic: f(w) = 0.5·(100·w₀² + w₁²).
        let run = |mu: f64| -> f64 {
            let mut opt = Sgd::with_momentum(0.009, mu);
            let mut w = Matrix::row_vector(&[1.0, 1.0]);
            for _ in 0..200 {
                let g = Matrix::row_vector(&[100.0 * w[(0, 0)], w[(0, 1)]]);
                opt.begin_step();
                opt.update(0, &mut w, &g);
            }
            w.frobenius_norm()
        };
        assert!(
            run(0.9) < run(0.0),
            "momentum did not help: {} vs {}",
            run(0.9),
            run(0.0)
        );
    }

    #[test]
    fn adam_first_step_moves_by_lr() {
        // With bias correction, the very first Adam step is ≈ lr·sign(g).
        let mut opt = Adam::new(0.1);
        let mut w = Matrix::row_vector(&[0.0]);
        let g = Matrix::row_vector(&[3.7]);
        opt.begin_step();
        opt.update(0, &mut w, &g);
        assert!((w[(0, 0)] + 0.1).abs() < 1e-6, "w = {}", w[(0, 0)]);
    }

    #[test]
    fn adam_minimises_quadratic() {
        // f(w) = (w - 5)², ∇f = 2(w - 5).
        let mut opt = Adam::new(0.1);
        let mut w = Matrix::row_vector(&[0.0]);
        for _ in 0..1000 {
            let g = Matrix::row_vector(&[2.0 * (w[(0, 0)] - 5.0)]);
            opt.begin_step();
            opt.update(0, &mut w, &g);
        }
        assert!((w[(0, 0)] - 5.0).abs() < 1e-3, "w = {}", w[(0, 0)]);
        assert_eq!(opt.steps(), 1000);
    }

    #[test]
    fn adam_tracks_independent_slots() {
        let mut opt = Adam::new(0.1);
        let mut a = Matrix::row_vector(&[0.0]);
        let mut b = Matrix::row_vector(&[0.0; 3]);
        for _ in 0..10 {
            opt.begin_step();
            opt.update(0, &mut a, &Matrix::row_vector(&[1.0]));
            opt.update(1, &mut b, &Matrix::row_vector(&[-1.0, 0.0, 2.0]));
        }
        assert!(a[(0, 0)] < 0.0);
        assert!(b[(0, 0)] > 0.0);
        assert_eq!(b[(0, 1)], 0.0);
        assert!(b[(0, 2)] < 0.0);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn adam_rejects_shape_change() {
        let mut opt = Adam::new(0.1);
        let mut a = Matrix::row_vector(&[0.0]);
        opt.begin_step();
        opt.update(0, &mut a, &Matrix::row_vector(&[1.0]));
        let mut b = Matrix::row_vector(&[0.0, 0.0]);
        opt.update(0, &mut b, &Matrix::row_vector(&[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn sgd_momentum_rejects_a_short_gradient() {
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let mut w = Matrix::row_vector(&[0.0, 0.0, 0.0]);
        opt.begin_step();
        opt.update(0, &mut w, &Matrix::row_vector(&[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn adam_rejects_a_short_gradient() {
        let mut opt = Adam::new(0.1);
        let mut w = Matrix::row_vector(&[0.0, 0.0, 0.0]);
        opt.begin_step();
        opt.update(0, &mut w, &Matrix::row_vector(&[1.0, 1.0]));
    }

    /// Entry `j`'s gradient at step `t`: lanes 0–7 always carry one
    /// special value (±0, subnormals, ±inf, NaN, the smallest normal), the
    /// rest ordinary values with an occasional finite special one (±0 or a
    /// subnormal), so they stay finite.
    fn mixed_grad(j: usize, t: u64) -> f64 {
        const SPECIAL: [f64; 8] = [
            0.0,
            -0.0,
            4.9e-324,
            -2.5e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        let h = (j as u64 * 0x9e37_79b9 + t * 0x85eb_ca6b) % 1009;
        match j {
            0..=7 => SPECIAL[j],
            _ if h < 40 => SPECIAL[(h % 4) as usize],
            _ => (h as f64 - 504.0) / 97.0,
        }
    }

    #[test]
    fn adam_matches_the_textbook_update_bitwise() {
        // The textbook step divides both moments by their bias corrections
        // at every t. 1000 steps run well past t = 356, where 1 − β₁ᵗ
        // becomes exactly 1.0 and `update` stops dividing by it.
        assert_ne!(1.0 - 0.9f64.powi(355), 1.0);
        assert_eq!(1.0 - 0.9f64.powi(356), 1.0);
        let (lr, beta1, beta2, eps) = (0.001, 0.9, 0.999, 1e-8);
        let n = 24;
        let init: Vec<f64> = (0..n)
            .map(|j| match j % 6 {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-320,
                _ => mixed_grad(j + 3, 0),
            })
            .collect();
        let mut opt = Adam::with_betas(lr, beta1, beta2, eps);
        let mut w = Matrix::from_vec(4, 6, init.clone());
        let (mut w_ref, mut m, mut v) = (init, vec![0.0; n], vec![0.0; n]);
        for t in 1..=1000u64 {
            let g: Vec<f64> = (0..n).map(|j| mixed_grad(j, t)).collect();
            opt.begin_step();
            opt.update(0, &mut w, &Matrix::from_vec(4, 6, g.clone()));
            for j in 0..n {
                m[j] = beta1 * m[j] + (1.0 - beta1) * g[j];
                v[j] = beta2 * v[j] + (1.0 - beta2) * g[j] * g[j];
                let m_hat = m[j] / (1.0 - beta1.powi(t as i32));
                let v_hat = v[j] / (1.0 - beta2.powi(t as i32));
                w_ref[j] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            for (j, (got, want)) in w.as_slice().iter().zip(&w_ref).enumerate() {
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "t={t} entry {j}: {got:e} vs textbook {want:e}"
                );
            }
        }
        // Some entries must stay finite, or the comparison proves little.
        assert!(w.as_slice().iter().filter(|x| x.is_finite()).count() > n / 2);
    }

    #[test]
    #[should_panic(expected = "beta1")]
    fn adam_validates_betas() {
        let _ = Adam::with_betas(0.1, 1.0, 0.999, 1e-8);
    }
}
