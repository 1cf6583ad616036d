//! Span-attributed allocation tracking (opt-in via `HQNN_ALLOC=1`).
//!
//! The counting itself lives in the leaf crate `hqnn-alloc` (the installed
//! `#[global_allocator]`); this module turns its per-thread counters into
//! per-span deltas. A span guard snapshots the calling thread's counters on
//! entry and attributes the difference on drop, so the recorded numbers are
//! the allocations made *on the span's own thread* while it was open —
//! including same-thread children, excluding work fanned out to pool
//! workers (those workers' item spans carry their own deltas).
//!
//! Peaks are recorded *relative to the live level at span entry*
//! (`peak_bytes = max live during span − live at entry`), which makes them
//! deterministic for deterministic workloads at any `HQNN_THREADS`, unlike
//! absolute process peaks.
//!
//! Counting never changes allocation behaviour or numeric results; it only
//! reads and ticks thread-local cells (see `hqnn-alloc`).

use std::sync::atomic::{AtomicBool, Ordering};

pub use hqnn_alloc::{is_enabled, set_enabled, thread_stats, ThreadAllocStats};

/// Allocation activity attributed to one span (same-thread subtree).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocations made while the span was open.
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Peak live bytes above the level at span entry.
    pub peak_bytes: u64,
}

/// Counter snapshot taken at span entry; consumed by [`window_end`].
pub(crate) struct WindowStart {
    count: u64,
    bytes: u64,
    live: i64,
    saved_peak: i64,
}

/// Opens a measurement window on the calling thread, or `None` when
/// counting is disabled (the hot path then costs one atomic load).
pub(crate) fn window_start() -> Option<WindowStart> {
    if !is_enabled() {
        return None;
    }
    let saved_peak = hqnn_alloc::begin_window();
    let stats = thread_stats();
    Some(WindowStart {
        count: stats.count,
        bytes: stats.bytes,
        live: stats.live_bytes,
        saved_peak,
    })
}

/// Closes a window and returns the delta. Reads the counters *before*
/// restoring the enclosing window's peak so the span's own numbers are not
/// polluted by the bookkeeping.
pub(crate) fn window_end(start: WindowStart) -> AllocDelta {
    let stats = thread_stats();
    hqnn_alloc::end_window(start.saved_peak);
    AllocDelta {
        count: stats.count.wrapping_sub(start.count),
        bytes: stats.bytes.wrapping_sub(start.bytes),
        peak_bytes: (stats.peak_live_bytes.saturating_sub(start.live)).max(0) as u64,
    }
}

/// Runs `f` inside a measurement window and returns its result plus the
/// allocation delta (`None` when counting is disabled). The hook the
/// allocation-budget tests (`training_pins`, the quantum layer's) put around
/// the code they bound.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Option<AllocDelta>) {
    let start = window_start();
    let out = f();
    (out, start.map(window_end))
}

/// Reads `HQNN_ALLOC` once per process and enables counting when the flag
/// parses as on (`1`/`true`/`on`). Later [`set_enabled`] calls still win —
/// the env var only sets the starting state.
pub(crate) fn init_from_env() {
    static READ: AtomicBool = AtomicBool::new(false);
    if READ.swap(true, Ordering::SeqCst) {
        return;
    }
    if let Some(raw) = crate::env::var("HQNN_ALLOC") {
        if crate::env::parse_flag(&raw) {
            set_enabled(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shares the process-wide switch with other tests; serialise.
    fn serial(f: impl FnOnce()) {
        use std::sync::Mutex;
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        f();
        set_enabled(false);
    }

    #[test]
    fn measure_is_none_when_disabled() {
        serial(|| {
            let (out, delta) = measure(|| vec![1u8; 256].len());
            assert_eq!(out, 256);
            assert!(delta.is_none());
        });
    }

    #[test]
    fn measure_attributes_workload_allocations() {
        serial(|| {
            set_enabled(true);
            // black_box keeps the optimiser from eliding the allocation
            // when only the length is used.
            let (_, delta) = measure(|| {
                let v = std::hint::black_box(vec![0u8; 50_000]);
                v.len()
            });
            set_enabled(false);
            let delta = delta.expect("counting enabled");
            assert!(delta.count >= 1);
            assert!(delta.bytes >= 50_000, "bytes {}", delta.bytes);
            assert!(delta.peak_bytes >= 50_000, "peak {}", delta.peak_bytes);
        });
    }

    #[test]
    fn nested_windows_keep_independent_peaks() {
        serial(|| {
            set_enabled(true);
            let (_, outer) = measure(|| {
                let big = std::hint::black_box(vec![0u8; 100_000]);
                drop(big);
                let (_, inner) = measure(|| {
                    let small = std::hint::black_box(vec![0u8; 1_000]);
                    small.len()
                });
                inner.expect("enabled").peak_bytes
            });
            set_enabled(false);
            let outer = outer.expect("enabled");
            // The inner window saw only its own spike; the outer window's
            // peak still covers the big one.
            assert!(outer.peak_bytes >= 100_000, "outer {:?}", outer);
        });
    }

    #[test]
    fn closing_a_known_span_allocates_nothing() {
        serial(|| {
            let reg = crate::registry::Registry::default();
            let d = std::time::Duration::from_micros(3);
            assert!(reg.record_span_full("outer/inner", d, None));
            set_enabled(true);
            let before = thread_stats().count;
            let first = reg.record_span_full("outer/inner", d, None);
            let after = thread_stats().count;
            set_enabled(false);
            assert!(!first, "the path was already recorded");
            assert_eq!(after - before, 0, "a repeat close must not allocate");
        });
    }
}
