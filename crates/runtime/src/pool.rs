//! Order-preserving chunked parallel map over scoped threads.
//!
//! There is no persistent thread pool: each call spins up scoped workers
//! (`std::thread::scope`), which keeps the crate dependency-free, makes
//! panics propagate like a plain loop, and lets worker closures borrow the
//! caller's data without `'static` bounds. Spawn cost is a few tens of
//! microseconds per worker — negligible against the batch-level work units
//! this workspace parallelises (circuit simulations, gradient sweeps, grid
//! combos), which is why the seams are placed at batch level and not inside
//! per-gate loops.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Chunks handed out per worker. More than one so dynamic scheduling can
/// absorb uneven per-item cost (e.g. mixed circuit widths in a search wave);
/// small enough that chunk bookkeeping stays invisible next to the work.
const CHUNKS_PER_THREAD: usize = 4;

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// The closure receives `(index, &item)`. Output is bitwise identical to
/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` at every
/// thread count — see the crate docs for why.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(i, &items[i]))
}

/// Maps `f` over `0..len` in parallel, returning `vec![f(0), f(1), …]`.
///
/// Each result lands in its own index's slot ([`par_for_each_mut`] over
/// the output), so the result is independent of which worker ran what.
/// Runs inline (no threads) when the resolved budget is 1 or `len <= 1`,
/// and a panic inside `f` resurfaces on the caller, as for
/// [`par_for_each_mut`].
pub fn par_map_range<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out: Vec<Option<R>> = (0..len).map(|_| None).collect();
    par_for_each_mut(&mut out, |i, slot| *slot = Some(f(i)));
    out.into_iter()
        // lint:allow(panic): par_for_each_mut calls the closure once per index
        .map(|r| r.expect("every index was mapped"))
        .collect()
}

/// Runs `f(i, &mut items[i])` for every item in parallel: the in-place
/// form of [`par_map_range`] (which is built on it), for callers that keep
/// per-item state — buffers reused across calls — instead of collecting
/// results.
///
/// Work is split into fixed-boundary chunks that idle workers claim in
/// order; each item is touched by exactly one call, and the caller's span
/// path and causal parent propagate into each item keyed by its index, so
/// the items end up bitwise identical, with identical telemetry, at every
/// thread budget. Runs inline — and allocates nothing — when the resolved
/// budget is 1 or there is at most one item.
///
/// A panic inside `f` finishes in-flight chunks on other workers, then
/// resurfaces on the caller — the same observable behaviour as a panicking
/// sequential loop, minus any wasted sibling work being visible.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let len = items.len();
    let threads = crate::threads().min(len.max(1));
    // Workers record spans under the caller's currently-open span path and
    // causal parent, so the profile report shows one merged tree (and the
    // JSONL trace one causal chain) instead of per-thread roots. The context
    // is installed around each *item*, keyed by its index, which is what
    // keeps span IDs byte-identical whether the item runs inline or on any
    // worker — so the inline path installs it too.
    let ctx = hqnn_telemetry::current_causal_context();
    if threads <= 1 || len <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            let _causal = hqnn_telemetry::propagate_causal_context(&ctx, i as u64);
            f(i, item);
        }
        return;
    }

    let chunk_size = len.div_ceil((threads * CHUNKS_PER_THREAD).min(len));
    let parts = Mutex::new(items.chunks_mut(chunk_size).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Budget 1 inside workers: the outermost parallel seam owns
                // the threads; nested par_map calls run inline.
                crate::with_threads(1, || loop {
                    let next = parts.lock().unwrap_or_else(|e| e.into_inner()).next();
                    let Some((chunk, part)) = next else {
                        break;
                    };
                    for (j, item) in part.iter_mut().enumerate() {
                        let i = chunk * chunk_size + j;
                        let _causal = hqnn_telemetry::propagate_causal_context(&ctx, i as u64);
                        f(i, item);
                    }
                });
                // Merge this worker's metric shard before the scope joins,
                // so a snapshot taken right after the call returns already
                // sees every worker counter and span (thread exit would
                // drain too, but only after TLS destructors run).
                hqnn_telemetry::drain_local_metrics();
            });
        }
    });

    hqnn_telemetry::counter("runtime.par_calls", 1);
    hqnn_telemetry::counter("runtime.par_items", len as u64);
}

/// Splits a total thread budget across `shards` concurrent work units,
/// returning `(outer, inner)`: at most `outer` shards run concurrently and
/// each runs with an inner budget of `inner` threads for its own nested
/// parallel maps. The split never oversubscribes: `outer * inner <= total`
/// (with both factors ≥ 1), `outer` never exceeds the shard count, and one
/// shard inherits the whole budget — so a [`par_map_budgeted`] over a
/// single item degenerates to the plain nested call.
pub fn split_budget(total: usize, shards: usize) -> (usize, usize) {
    let total = total.max(1);
    if shards <= 1 {
        return (1, total);
    }
    let outer = total.min(shards);
    let inner = (total / outer).max(1);
    (outer, inner)
}

/// Maps `f` over `0..len` like [`par_map_range`], but treats each item as a
/// **shard** that may itself call parallel maps: instead of pinning workers
/// to budget 1, the total budget is split by [`split_budget`] and each
/// worker runs under `with_threads(inner)`, so a shard's nested
/// `par_map_range` still fans out while total concurrency stays ≤ the
/// caller's budget (`outer * inner <= threads()`).
///
/// Items are claimed one at a time from an atomic cursor (shards are few
/// and uneven — e.g. hybrid levels cost more than classical ones — so
/// dynamic item-granular scheduling matters more than chunk bookkeeping),
/// and results are reassembled in index order: output is bitwise identical
/// to the sequential loop at every budget, exactly like [`par_map_range`].
/// The caller's span path and causal parent propagate into each shard keyed
/// by its index, so shard telemetry is schedule-independent too.
pub fn par_map_budgeted<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let total = crate::threads();
    let (outer, inner) = split_budget(total, len);
    let ctx = hqnn_telemetry::current_causal_context();
    if outer <= 1 || len <= 1 {
        // Inline: a lone shard (or a budget of 1) keeps the whole inner
        // budget — with one shard that is the full caller budget.
        return (0..len)
            .map(|i| {
                let _causal = hqnn_telemetry::propagate_causal_context(&ctx, i as u64);
                crate::with_threads(inner, || f(i))
            })
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(len));
    std::thread::scope(|scope| {
        for _ in 0..outer {
            scope.spawn(|| {
                // Inner budget instead of the flat pool's budget 1: this is
                // the one sanctioned nesting level. The shard's own nested
                // par_map workers still pin to 1, so depth stops at two.
                crate::with_threads(inner, || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= len {
                        break;
                    }
                    let _causal = hqnn_telemetry::propagate_causal_context(&ctx, i as u64);
                    let item = f(i);
                    done.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((i, item));
                });
                hqnn_telemetry::drain_local_metrics();
            });
        }
    });

    hqnn_telemetry::counter("runtime.par_calls", 1);
    hqnn_telemetry::counter("runtime.par_items", len as u64);

    let mut items = done.into_inner().unwrap_or_else(|e| e.into_inner());
    items.sort_unstable_by_key(|(idx, _)| *idx);
    debug_assert_eq!(items.len(), len);
    items.into_iter().map(|(_, item)| item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 3, 8, 33] {
            let got = with_threads(threads, || par_map_range(100, |i| i * 10));
            let want: Vec<usize> = (0..100).map(|i| i * 10).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_range(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_range(1, |i| i + 41), vec![41]);
        assert_eq!(par_map(&[] as &[u8], |_, b| *b), Vec::<u8>::new());
    }

    #[test]
    fn empty_inputs_under_thread_overrides() {
        // Zero items must never spawn workers or call the closure, whatever
        // the configured budget — including budgets larger than the host.
        for threads in [1, 2, 7, 64] {
            let calls = AtomicUsize::new(0);
            let got: Vec<usize> = with_threads(threads, || {
                par_map_range(0, |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i
                })
            });
            assert!(got.is_empty(), "threads={threads}");
            assert_eq!(calls.load(Ordering::Relaxed), 0, "threads={threads}");
            let empty: Vec<u8> = with_threads(threads, || par_map(&[] as &[u8], |_, b| *b));
            assert!(empty.is_empty(), "threads={threads}");
        }
    }

    #[test]
    fn par_map_passes_index_and_item() {
        let items = ["a", "bb", "ccc"];
        let got = with_threads(2, || par_map(&items, |i, s| (i, s.len())));
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn f64_results_bitwise_identical_across_thread_counts() {
        // Per-item work mixes non-associative f64 ops; equality must hold
        // bit-for-bit, not just approximately.
        let work = |i: usize| {
            let mut acc = 0.0f64;
            for k in 1..=64 {
                acc += ((i * k) as f64).sin() / (k as f64).sqrt();
            }
            acc
        };
        let seq: Vec<u64> = (0..257).map(|i| work(i).to_bits()).collect();
        for threads in [2, 5, 16] {
            let par: Vec<u64> = with_threads(threads, || par_map_range(257, work))
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn nested_calls_run_inline_in_workers() {
        let nested_budgets = with_threads(4, || par_map_range(8, |_| crate::threads()));
        assert_eq!(nested_budgets, vec![1; 8]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_range(16, |i| {
                    if i == 11 {
                        panic!("item 11 exploded");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn budgeted_map_preserves_order_and_results() {
        let want: Vec<usize> = (0..23).map(|i| i * 3).collect();
        for threads in [1, 2, 5, 8, 33] {
            let got = with_threads(threads, || par_map_budgeted(23, |i| i * 3));
            assert_eq!(got, want, "threads={threads}");
        }
        assert_eq!(par_map_budgeted(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_budgeted(1, |i| i + 9), vec![9]);
    }

    #[test]
    fn budgeted_map_f64_bitwise_identical_across_budgets() {
        let work = |i: usize| {
            let mut acc = 0.0f64;
            for k in 1..=48 {
                acc += ((i * k) as f64).cos() / (k as f64).sqrt();
            }
            acc
        };
        let seq: Vec<u64> = (0..37).map(|i| work(i).to_bits()).collect();
        for threads in [2, 6, 16] {
            let par: Vec<u64> = with_threads(threads, || par_map_budgeted(37, work))
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn budgeted_map_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_budgeted(8, |i| {
                    if i == 5 {
                        panic!("shard 5 exploded");
                    }
                    i
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn for_each_mut_touches_every_item_once_at_any_budget() {
        let want: Vec<u64> = (0..37u64).map(|i| i * i + 1).collect();
        for threads in [1, 2, 5, 64] {
            let mut items: Vec<u64> = (0..37).collect();
            with_threads(threads, || {
                par_for_each_mut(&mut items, |i, x| *x = *x * i as u64 + 1)
            });
            assert_eq!(items, want, "threads={threads}");
        }
        par_for_each_mut(&mut [] as &mut [u8], |_, _| panic!("no items"));
    }

    #[test]
    fn worker_spans_merge_under_caller_path() {
        // Uses record_duration via a real span inside workers; the recorded
        // path must be prefixed by the span open on the calling thread.
        let _outer = hqnn_telemetry::span("pool_test_outer");
        with_threads(2, || {
            par_map_range(4, |_| {
                let _inner = hqnn_telemetry::span("pool_test_inner");
            })
        });
        let snap = hqnn_telemetry::snapshot();
        let key = snap
            .spans
            .keys()
            .find(|k| k.contains("pool_test_inner"))
            .expect("inner span recorded");
        assert!(
            key.contains("pool_test_outer/pool_test_inner"),
            "got path {key:?}"
        );
    }
}
