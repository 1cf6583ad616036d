//! Schedule-permutation harness: deterministic adversarial interleavings
//! for the parallel maps.
//!
//! The pool's determinism claim is *schedule independence*: whatever order
//! workers claim chunks or shards in, the reassembled output is bitwise
//! identical to the sequential loop. Plain tests only exercise whatever
//! interleaving the OS scheduler happens to produce on the test machine —
//! almost always the boring one where worker 0 wins every race. This module
//! turns the schedule into a controlled input: a seeded delay injector
//! perturbs each task's start by a pseudo-random (but seed-deterministic)
//! amount, so different seeds drive workers through genuinely different
//! claim orders, and a concurrency probe checks that the thread budget is a
//! hard bound while the races are running.
//!
//! The harness is `pub` because the schedule-permutation suite lives in
//! `tests/` (integration tests cannot see `#[cfg(test)]` items), but it is
//! test infrastructure: nothing in the production call graph touches it.
//! It stays dependency-free and wall-clock-free — delays are `thread::sleep`
//! with durations derived from the seed, never measured time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Upper bound on an injected delay, in microseconds. Large enough that the
/// OS actually reorders wakeups (sleeps below ~10µs round to "no sleep" on
/// most schedulers), small enough that a 50-seed sweep stays well under a
/// second.
const MAX_DELAY_MICROS: u64 = 120;

/// The seed-deterministic delay injected before task `task` runs under
/// `seed`: a SplitMix64-style hash of the pair, folded to
/// `0..=MAX_DELAY_MICROS` µs. Pure function — the same `(seed, task)` always
/// maps to the same `Duration`, which is what makes a failing seed
/// replayable.
pub fn adversarial_delay(seed: u64, task: u64) -> Duration {
    let mut z = seed ^ task.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    Duration::from_micros(z % (MAX_DELAY_MICROS + 1))
}

/// Live/peak concurrency tracker for closures running under a parallel map.
///
/// Workers call [`ConcurrencyProbe::enter`] at the top of the task closure;
/// the returned guard decrements on drop (including on panic), so `live`
/// counts exactly the closures currently executing and `peak` records the
/// high-water mark. All counters are `SeqCst`: the probe asserts cross-
/// thread invariants, so its own reads must not be allowed to reorder.
#[derive(Debug, Default)]
pub struct ConcurrencyProbe {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl ConcurrencyProbe {
    /// A fresh probe with zero live tasks.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a task as running; drop the guard when it finishes.
    pub fn enter(&self) -> ProbeGuard<'_> {
        let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        ProbeGuard { probe: self }
    }

    /// Number of task closures executing right now.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Highest number of simultaneously-live tasks observed so far.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

/// RAII guard returned by [`ConcurrencyProbe::enter`].
#[derive(Debug)]
pub struct ProbeGuard<'a> {
    probe: &'a ConcurrencyProbe,
}

impl Drop for ProbeGuard<'_> {
    fn drop(&mut self) {
        self.probe.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One adversarial schedule: a seed plus the probe that audits it.
///
/// Task closures call [`Interleaver::perturb`] first thing; it sleeps the
/// seed-derived delay for that task and returns the probe guard, so the
/// body of the task runs "inside" the probe. Different seeds shuffle which
/// worker reaches the claim cursor first, producing distinct interleavings
/// from the *same* test body.
#[derive(Debug)]
pub struct Interleaver {
    seed: u64,
    probe: ConcurrencyProbe,
}

impl Interleaver {
    /// A new schedule for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            probe: ConcurrencyProbe::new(),
        }
    }

    /// Delays task `task` by its seed-derived amount and registers it with
    /// the probe. Call at the top of the task closure and hold the guard for
    /// the task's duration.
    pub fn perturb(&self, task: u64) -> ProbeGuard<'_> {
        std::thread::sleep(adversarial_delay(self.seed, task));
        self.probe.enter()
    }

    /// The audited high-water concurrency across all perturbed tasks.
    pub fn peak(&self) -> usize {
        self.probe.peak()
    }

    /// Live perturbed tasks right now (zero once a parallel map returned).
    pub fn live(&self) -> usize {
        self.probe.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic_and_bounded() {
        for seed in 0..8u64 {
            for task in 0..32u64 {
                let d = adversarial_delay(seed, task);
                assert_eq!(d, adversarial_delay(seed, task), "pure in (seed, task)");
                assert!(d <= Duration::from_micros(MAX_DELAY_MICROS));
            }
        }
    }

    #[test]
    fn seeds_produce_distinct_delay_patterns() {
        // Not a randomness test — just that the injector does not collapse
        // every seed onto one schedule, which would silence the sweep.
        let pattern =
            |seed: u64| -> Vec<Duration> { (0..16).map(|t| adversarial_delay(seed, t)).collect() };
        let base = pattern(0);
        let differing = (1..=20u64).filter(|s| pattern(*s) != base).count();
        assert!(differing >= 19, "only {differing}/20 seeds diverged");
    }

    #[test]
    fn probe_tracks_live_and_peak() {
        let probe = ConcurrencyProbe::new();
        assert_eq!((probe.live(), probe.peak()), (0, 0));
        {
            let _a = probe.enter();
            let _b = probe.enter();
            assert_eq!(probe.live(), 2);
        }
        assert_eq!(probe.live(), 0, "guards decrement on drop");
        assert_eq!(probe.peak(), 2, "peak sticks after tasks finish");
    }

    #[test]
    fn probe_decrements_on_panic() {
        let probe = ConcurrencyProbe::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = probe.enter();
            panic!("task died");
        }));
        assert!(result.is_err());
        assert_eq!(probe.live(), 0, "guard unwound with the panic");
    }
}
