//! Minimal complex-number arithmetic.
//!
//! A dense statevector simulator only needs add/sub/mul/conjugate/modulus on
//! `f64` pairs, so rather than pulling in an external crate the type is
//! defined here (the offline dependency allowlist does not include
//! `num-complex`).

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use hqnn_qsim::C64;
///
/// let i = C64::i();
/// assert_eq!(i * i, C64::new(-1.0, 0.0));
/// assert_eq!(C64::new(3.0, 4.0).norm_sqr(), 25.0);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The imaginary unit `i`.
    pub const fn i() -> Self {
        Self { re: 0.0, im: 1.0 }
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    pub fn from_polar_unit(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// `true` when both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality of both components with tolerance `tol`.
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        hqnn_tensor::approx_eq(self.re, other.re, tol)
            && hqnn_tensor::approx_eq(self.im, other.im, tol)
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        Self { re, im: 0.0 }
    }
}

impl Add for C64 {
    type Output = C64;

    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C64 {
    type Output = C64;

    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for C64 {
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for C64 {
    type Output = C64;

    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for C64 {
    type Output = C64;

    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Neg for C64 {
    type Output = C64;

    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `-0.0` prints its own minus sign; NaN prints none, whatever its
        // sign bit, so it takes the explicit `+`.
        if self.im.is_sign_negative() && !self.im.is_nan() {
            write!(f, "{}{}i", self.re, self.im)
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let z = C64::new(2.0, -3.0);
        assert_eq!(z + C64::ZERO, z);
        assert_eq!(z * C64::ONE, z);
        assert_eq!(z - z, C64::ZERO);
        assert_eq!(-z + z, C64::ZERO);
    }

    #[test]
    fn multiplication_matches_formula() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        // (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
        assert_eq!(a * b, C64::new(5.0, 5.0));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = C64::new(3.0, 4.0);
        assert_eq!(z.conj(), C64::new(3.0, -4.0));
        assert_eq!((z * z.conj()).re, 25.0);
        assert_eq!(z.norm(), 5.0);
    }

    #[test]
    fn polar_unit_is_on_circle() {
        for k in 0..16 {
            let theta = k as f64 * 0.5;
            let z = C64::from_polar_unit(theta);
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn i_squares_to_minus_one() {
        assert_eq!(C64::i() * C64::i(), C64::new(-1.0, 0.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(C64::new(1.0, -2.0).to_string(), "1-2i");
        assert_eq!(C64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(C64::new(1.0, 0.0).to_string(), "1+0i");
        assert_eq!(C64::new(1.0, -0.0).to_string(), "1-0i");
        assert_eq!(C64::new(1.0, f64::NAN).to_string(), "1+NaNi");
        assert_eq!(C64::new(1.0, -f64::NAN).to_string(), "1+NaNi");
        assert_eq!(C64::new(1.0, f64::NEG_INFINITY).to_string(), "1-infi");
    }

    #[test]
    fn from_real() {
        assert_eq!(C64::from(2.5), C64::new(2.5, 0.0));
    }

    #[test]
    fn finite_detection() {
        assert!(C64::new(1.0, 2.0).is_finite());
        assert!(!C64::new(f64::NAN, 0.0).is_finite());
        assert!(!C64::new(0.0, f64::INFINITY).is_finite());
    }
}
