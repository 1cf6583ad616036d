//! Deterministic parallel runtime for the hqnn workspace.
//!
//! Every expensive loop in this workspace — per-sample circuit simulation,
//! per-sample adjoint gradients, dense-layer row blocks, independent grid
//! combos of the architecture search — is embarrassingly parallel, and all of
//! them must stay **bitwise reproducible**: the paper protocol's published
//! numbers are seed-deterministic, and the test suite asserts byte-identical
//! study JSON regardless of the machine. This crate squares those two
//! requirements with three rules:
//!
//! 1. **Order-preserving map.** [`par_map`]/[`par_map_range`] return results
//!    indexed exactly like their inputs, and [`par_for_each_mut`] updates
//!    each item in place. Work is distributed dynamically (workers claim
//!    fixed-boundary chunks in order) but each result lands in its own
//!    index's slot, so the output is the same `Vec` the
//!    sequential loop would have produced — bit for bit, because each item's
//!    computation is independent and f64 accumulation stays *inside* items.
//!    Callers that reduce across items must fold the returned `Vec`
//!    sequentially; left-folding per-item partials in index order regroups
//!    additions identically to the sequential loop.
//! 2. **Explicit thread budget.** The pool width resolves, in order: a
//!    scoped [`with_threads`] override on the calling thread, the
//!    `HQNN_THREADS` environment variable, then the machine's available
//!    parallelism. `threads() == 1` runs inline with zero scheduling.
//! 3. **No unaccounted nested fan-out.** [`par_map`]/[`par_map_range`]/
//!    [`par_for_each_mut`] worker closures run with an implicit `with_threads(1)`, so a parallel
//!    search wave doesn't multiply into a parallel batch inside each combo.
//!    The one sanctioned nesting level is [`par_map_budgeted`]: it splits
//!    the caller's budget across shards via [`split_budget`] so each
//!    shard's *own* nested maps still fan out, with the invariant
//!    `outer_workers × inner_budget ≤ threads()` — the budget stays a real
//!    upper bound on concurrency even two levels deep.
//!
//! Telemetry integrates across the fan-out: each item inherits the
//! spawning thread's open span path and causal parent
//! ([`hqnn_telemetry::propagate_causal_context`]), so spans recorded inside
//! workers merge into the same tree one `report()` prints.
//!
//! # Example
//!
//! ```
//! // Results are ordered like the input no matter how chunks are scheduled.
//! let squares = hqnn_runtime::par_map_range(5, |i| (i * i) as u64);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//!
//! let doubled = hqnn_runtime::par_map(&[1.0, 2.0, 3.0], |_i, x| x * 2.0);
//! assert_eq!(doubled, vec![2.0, 4.0, 6.0]);
//!
//! // Scoped override: everything inside the closure runs single-threaded.
//! let n = hqnn_runtime::with_threads(1, hqnn_runtime::threads);
//! assert_eq!(n, 1);
//! ```
//!
//! The crate also owns the one run-time CPU dispatch of the workspace:
//! [`simd`] runs the AVX2 copy of a kernel when the CPU has AVX2, else its
//! baseline copy (see its docs for why that never changes a bit).

// `unsafe` is denied, not forbidden: [`simd`] must call a
// `#[target_feature]` function through an `unsafe fn` pointer, which only
// `unsafe` can do, and it is the one item here that allows it.
// `hqnn-alloc` is the only other crate whose root does not forbid it
// (`crates/lint/tests/unsafe_confined.rs` pins both).
// lint:allow(forbid-unsafe): simd() calls the AVX2 copy of a kernel only after is_x86_feature_detected!("avx2") returned true
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod check;
mod pool;

pub use pool::{par_for_each_mut, par_map, par_map_budgeted, par_map_range, split_budget};

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Scoped override installed by [`with_threads`] (0 = no override).
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The default thread budget, resolved once per process: `HQNN_THREADS`
/// (via the central [`hqnn_telemetry::env`] registry) when set and valid,
/// otherwise the machine's available parallelism. An invalid value warns
/// loudly, once, and falls back like an unset one. Caching the fallback
/// matters: `available_parallelism` re-reads the cgroup CPU quota on every
/// call, and every parallel map asks for the budget.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let Some(raw) = hqnn_telemetry::env::var("HQNN_THREADS") else {
            return hqnn_telemetry::env::hardware_parallelism();
        };
        hqnn_telemetry::env::parse_threads(&raw).unwrap_or_else(|| {
            hqnn_telemetry::event(
                hqnn_telemetry::Level::Error,
                "runtime.bad_threads",
                &[
                    ("value", raw.into()),
                    ("hint", "HQNN_THREADS must be a positive integer".into()),
                ],
            );
            hqnn_telemetry::env::hardware_parallelism()
        })
    })
}

/// The number of worker threads parallel maps use on this thread, resolved
/// as: [`with_threads`] override → `HQNN_THREADS` → available parallelism.
/// Always ≥ 1.
pub fn threads() -> usize {
    let overridden = OVERRIDE.with(Cell::get);
    if overridden >= 1 {
        return overridden;
    }
    default_threads()
}

/// Runs `f` with the thread budget pinned to `n` on the calling thread
/// (nested calls nest; the previous budget is restored afterwards, also on
/// panic). This is how tests assert thread-count invariance without touching
/// process-global environment, and how workers suppress nested fan-out.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread budget must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(n)));
    f()
}

/// Whether the CPU running this process has AVX2: the rule [`simd`]
/// dispatches on, which run manifests record as `"avx2"` or `"baseline"`.
/// `std` caches the CPUID probe, so each call is one atomic load.
#[inline(always)]
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `base(args)`, or `avx2(args)` when the CPU has AVX2: the one
/// run-time CPU dispatch of the workspace.
///
/// A kernel that wants an AVX2 copy is compiled twice from one source:
/// once as an ordinary function, `base`, and once as a
/// `#[target_feature(enable = "avx2")]` function, `avx2`, whose vector
/// loops use 4 f64 lanes instead of the baseline's 2. A safe
/// `#[target_feature]` function coerces to an `unsafe fn` pointer, so the
/// crate that defines the pair needs no `unsafe` of its own. What `avx2`
/// inlines runs on AVX2, and so do the `#[target_feature]` functions it
/// calls and the closures defined inside them; those calls keep their
/// function boundaries, so a large kernel set stays as many functions as
/// its baseline build.
///
/// Both copies return the same bits. Rust never contracts `a * b + c` into
/// an FMA, and LLVM does not reorder strict floating-point arithmetic, so
/// a vectorised loop computes each lane's value with the same IEEE-rounded
/// operations in the same order at any lane width.
///
/// On other architectures `base` always runs.
///
/// ```
/// fn dot((a, b): (&[f64], &[f64])) -> f64 {
///     a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
/// }
/// #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
/// fn dot_avx2(args: (&[f64], &[f64])) -> f64 {
///     dot(args)
/// }
/// let total = hqnn_runtime::simd((&[1.0, 2.0][..], &[3.0, 4.0][..]), dot, dot_avx2);
/// assert_eq!(total, 11.0);
/// ```
///
/// # Soundness
///
/// `avx2` must be `base` compiled for AVX2: a function whose only
/// precondition beyond `base`'s is that the CPU has AVX2. The signature
/// cannot tell such a function from any other `unsafe fn`, so passing one
/// with other preconditions is unsound; every caller in the workspace
/// passes a safe `#[target_feature]` function.
#[inline(always)]
#[allow(unsafe_code)]
pub fn simd<A, R>(args: A, base: fn(A) -> R, avx2: unsafe fn(A) -> R) -> R {
    if has_avx2() {
        // SAFETY: `avx2` is `base` compiled for AVX2 (`# Soundness`), so
        // calling it is sound exactly when the CPU has AVX2, which
        // `has_avx2` just checked.
        return unsafe { avx2(args) };
    }
    base(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_is_at_least_one() {
        assert!(threads() >= 1);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let ambient = threads();
        let inner = with_threads(7, || {
            let mid = threads();
            let nested = with_threads(2, threads);
            assert_eq!(nested, 2);
            // Restored to the enclosing override, not the ambient value.
            assert_eq!(threads(), 7);
            mid
        });
        assert_eq!(inner, 7);
        assert_eq!(threads(), ambient);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let ambient = threads();
        let result = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(threads(), ambient);
    }

    #[test]
    fn run_manifests_record_the_kernel_set_simd_dispatches_to() {
        let expected = if has_avx2() { "avx2" } else { "baseline" };
        assert_eq!(hqnn_telemetry::RunManifest::capture("simd").simd, expected);
    }

    fn sum_of(v: Vec<f64>) -> (f64, &'static str) {
        (v.into_iter().fold(0.0, |acc, v| acc + v), "baseline")
    }

    #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
    fn sum_of_avx2(v: Vec<f64>) -> (f64, &'static str) {
        (sum_of(v).0, "avx2")
    }

    #[test]
    fn simd_runs_the_avx2_set_exactly_when_the_cpu_has_avx2() {
        let (total, set) = simd(vec![1.0, 2.0, 3.0], sum_of, sum_of_avx2);
        assert_eq!(total, 6.0);
        assert_eq!(set, if has_avx2() { "avx2" } else { "baseline" });
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_budget_rejected() {
        with_threads(0, || ());
    }
}
