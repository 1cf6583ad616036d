//! Sanctioned ordered reductions over floating-point sequences.
//!
//! Floating-point addition is not associative, so the *grouping* of a
//! reduction is part of this workspace's bitwise-determinism contract: every
//! float fold must run strictly left to right, in the element order the
//! caller iterated, starting from a fixed identity. These helpers are the
//! one place that contract is written down — `hqnn-lint`'s `float-fold`
//! rule denies ad-hoc `.sum::<f64>()` / `.fold(0.0, …)` reductions in the
//! numeric crates and points offenders here instead.
//!
//! Every helper is a plain sequential left fold, bitwise identical to the
//! `Iterator::sum` / `Iterator::fold` expression it replaces (std's
//! `Sum for f64` is itself `fold(0.0, Add::add)`), so migrating a call site
//! never changes a single result bit. Parallel callers fold the
//! order-preserving `Vec` a `par_map` returns — the helper then regroups
//! additions exactly like the sequential loop would have.

use std::ops::Add;

/// Left-to-right sum of an `f64` sequence starting from `0.0`.
///
/// Bitwise identical to `it.sum::<f64>()` for the same iteration order.
///
/// # Example
///
/// ```
/// let xs = [0.1, 0.2, 0.7];
/// assert_eq!(
///     hqnn_tensor::fold::ordered_sum_f64(xs.iter().copied()),
///     xs.iter().sum::<f64>(),
/// );
/// ```
#[inline]
pub fn ordered_sum_f64(it: impl Iterator<Item = f64>) -> f64 {
    it.fold(0.0, |acc, x| acc + x)
}

/// Left-to-right sum of any additive sequence (complex amplitudes, partial
/// gradients) from an explicit identity element.
///
/// Bitwise identical to `it.fold(zero, |a, b| a + b)`.
#[inline]
pub fn ordered_sum<T: Copy + Add<Output = T>>(zero: T, it: impl Iterator<Item = T>) -> T {
    it.fold(zero, |acc, x| acc + x)
}

/// Left-to-right maximum starting from `f64::NEG_INFINITY`, using
/// [`f64::max`]'s NaN-ignoring semantics in a fixed order.
#[inline]
pub fn ordered_max_f64(it: impl Iterator<Item = f64>) -> f64 {
    it.fold(f64::NEG_INFINITY, f64::max)
}

/// Left-to-right minimum starting from `f64::INFINITY`, using
/// [`f64::min`]'s NaN-ignoring semantics in a fixed order.
#[inline]
pub fn ordered_min_f64(it: impl Iterator<Item = f64>) -> f64 {
    it.fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_iterator_sum_bitwise() {
        // Values chosen so grouping matters: (a + b) + c != a + (b + c).
        let xs: Vec<f64> = (0..257).map(|i| ((i * 37) as f64).sin() * 1e3).collect();
        assert_eq!(
            ordered_sum_f64(xs.iter().copied()).to_bits(),
            xs.iter().sum::<f64>().to_bits(),
        );
        assert_eq!(
            ordered_sum(0.0f64, xs.iter().copied()).to_bits(),
            xs.iter().fold(0.0, |a, b| a + b).to_bits(),
        );
    }

    #[test]
    fn sum_is_order_sensitive_hence_ordered() {
        // The helper must NOT sort or regroup: a reversed input is allowed
        // to produce different bits, proving the order is the caller's.
        let xs = [1e16, 1.0, -1e16, 1.0];
        let fwd = ordered_sum_f64(xs.iter().copied());
        let rev = ordered_sum_f64(xs.iter().rev().copied());
        assert_ne!(fwd.to_bits(), rev.to_bits());
    }

    #[test]
    fn empty_sequences_yield_identities() {
        assert_eq!(ordered_sum_f64(std::iter::empty()), 0.0);
        assert_eq!(ordered_sum(0.0, std::iter::empty()), 0.0);
        assert_eq!(ordered_max_f64(std::iter::empty()), f64::NEG_INFINITY);
        assert_eq!(ordered_min_f64(std::iter::empty()), f64::INFINITY);
    }

    #[test]
    fn min_max_match_fold_bitwise() {
        let xs = [3.5, -2.0, 9.25, 0.0, -7.75];
        assert_eq!(
            ordered_max_f64(xs.iter().copied()).to_bits(),
            xs.iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
                .to_bits(),
        );
        assert_eq!(
            ordered_min_f64(xs.iter().copied()).to_bits(),
            xs.iter().copied().fold(f64::INFINITY, f64::min).to_bits(),
        );
    }
}
