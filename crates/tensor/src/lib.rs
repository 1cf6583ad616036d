//! Dense `f64` linear algebra substrate for the `hqnn` workspace.
//!
//! The paper's original experiments used TensorFlow; this crate supplies the
//! small, self-contained matrix/vector kernel the rest of the workspace is
//! built on: row-major [`Matrix`], elementwise ops, matrix products, reductions,
//! and deterministic random initialisation via [`rng::SeededRng`].
//!
//! Everything is `f64`: the models in the study are tiny (≤ 10 neurons,
//! ≤ 5 qubits), so numerical robustness matters more than raw throughput.
//!
//! # Example
//!
//! ```
//! use hqnn_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fold;
pub mod matrix;
pub mod rng;

pub use matrix::Matrix;
pub use rng::SeededRng;

/// Absolute tolerance used across the workspace when comparing floating-point
/// results that should agree analytically (gradient checks, unitarity, …).
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `true` when `a` and `b` agree to within `tol` absolutely **or**
/// relatively (whichever is more permissive), the standard mixed tolerance test
/// for comparing quantities whose magnitude is not known a priori.
///
/// # Example
///
/// ```
/// assert!(hqnn_tensor::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!hqnn_tensor::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(0.0, 1e-12, 1e-9));
        assert!(!approx_eq(0.0, 1e-6, 1e-9));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1e12, 1e12 + 1.0, 1e-9));
        assert!(!approx_eq(1e12, 1.01e12, 1e-9));
    }

    #[test]
    fn approx_eq_symmetric() {
        assert_eq!(approx_eq(3.0, 3.1, 0.1), approx_eq(3.1, 3.0, 0.1));
    }
}
