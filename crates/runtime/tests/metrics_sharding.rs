//! Snapshot determinism of sharded telemetry metrics under the parallel
//! runtime: counters incremented inside `par_map_range` workers merge into
//! a snapshot that is bitwise identical to a sequential run, at every
//! thread budget — the metric analogue of the runtime's bitwise-result
//! guarantee.
//!
//! These tests mutate the process-global telemetry registry, so they
//! serialise on a mutex and diff only their own `shardtest.*` names (the
//! runtime's own `runtime.par_*` counters differ between sequential and
//! parallel legs by design).

use hqnn_telemetry as telemetry;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

const NAMES: [&str; 3] = [
    "shardtest.alpha_ticks",
    "shardtest.beta_ticks",
    "shardtest.gamma_ticks",
];

/// Counters/gauges under the test namespace, with f64 gauges as raw bits so
/// equality is bitwise, not approximate.
fn observed() -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let snap = telemetry::snapshot();
    let counters = snap
        .counters
        .into_iter()
        .filter(|(k, _)| k.starts_with("shardtest."))
        .collect();
    let gauges = snap
        .gauges
        .into_iter()
        .filter(|(k, _)| k.starts_with("shardtest."))
        .map(|(k, v)| (k, v.to_bits()))
        .collect();
    (counters, gauges)
}

/// One workload item: which counter to bump, by how much, and a gauge level.
fn apply_op(op: &(usize, u8, u32)) {
    let (which, delta, level) = *op;
    telemetry::counter(NAMES[which % NAMES.len()], delta as u64);
    telemetry::gauge_max("shardtest.peak_level", level as f64);
}

proptest! {
    // Each case resets global telemetry state; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merged_snapshot_is_bitwise_equal_to_sequential(
        ops in proptest::collection::vec(
            (0usize..NAMES.len(), 0u8..50, 0u32..1000), 1..120),
    ) {
        let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());

        // Sequential reference: single thread, everything on one shard.
        telemetry::reset();
        telemetry::set_level(telemetry::Level::Off);
        hqnn_runtime::with_threads(1, || {
            hqnn_runtime::par_map(&ops, |_, op| apply_op(op))
        });
        let reference = observed();

        // The satellite's thread budgets: serial, even split, odd split.
        for threads in [1usize, 2, 7] {
            telemetry::reset();
            telemetry::set_level(telemetry::Level::Off);
            hqnn_runtime::with_threads(threads, || {
                hqnn_runtime::par_map(&ops, |_, op| apply_op(op))
            });
            // Workers drained their shards at scope exit; the snapshot
            // right after par_map must already be complete.
            prop_assert_eq!(&observed(), &reference, "threads={}", threads);
        }
        telemetry::reset();
    }
}

#[test]
fn worker_counters_visible_immediately_after_par_map() {
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset();
    telemetry::set_level(telemetry::Level::Off);
    hqnn_runtime::with_threads(7, || {
        hqnn_runtime::par_map_range(100, |_| telemetry::counter("shardtest.immediate_ticks", 3))
    });
    let snap = telemetry::snapshot();
    assert_eq!(snap.counters["shardtest.immediate_ticks"], 300);
    telemetry::reset();
}

/// Span paths and counts, the per-leaf and all-path totals the benchmark
/// keys `span:<leaf>` / `span:*`, and the example `span` events per path,
/// after one fan-out under `threads`, read right after it returns.
type SpanView = (
    BTreeMap<String, u64>,
    BTreeMap<String, u64>,
    BTreeMap<String, usize>,
);

fn span_fanout(threads: usize) -> SpanView {
    telemetry::reset();
    telemetry::set_level(telemetry::Level::Off);
    let mem = telemetry::add_memory_sink();
    hqnn_runtime::with_threads(threads, || {
        let _root = telemetry::span("shardtest.fanout");
        hqnn_runtime::par_map_range(23, |i| {
            let _item = telemetry::span("shardtest.item");
            for _ in 0..i % 4 {
                let _leaf = telemetry::span("shardtest.leaf");
            }
        });
        let mut cells = vec![0u8; 9];
        hqnn_runtime::par_for_each_mut(&mut cells, |_, _| {
            let _cell = telemetry::span("shardtest.cell");
        });
    });
    let paths: BTreeMap<String, u64> = telemetry::snapshot()
        .spans
        .into_iter()
        .filter(|(path, _)| path.contains("shardtest."))
        .map(|(path, stats)| (path, stats.count))
        .collect();
    let mut leaves = BTreeMap::new();
    for (path, count) in &paths {
        let leaf = path.rsplit('/').next().unwrap_or(path);
        *leaves.entry(format!("span:{leaf}")).or_default() += count;
        *leaves.entry("span:*".to_string()).or_default() += count;
    }
    let mut events = BTreeMap::new();
    for event in mem.events_named("span") {
        let path = event.fields[0].1.to_string();
        *events.entry(path).or_default() += 1;
    }
    (paths, leaves, events)
}

#[test]
fn worker_span_aggregates_are_identical_at_every_budget() {
    // Span closes record into per-thread shards; a snapshot taken right
    // after the fan-out must hold every worker's closes, merged into the
    // same paths and counts as the one-thread run, with one example event
    // per path.
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let reference = span_fanout(1);
    let (paths, leaves, events) = &reference;
    assert_eq!(paths["shardtest.fanout/shardtest.item"], 23);
    assert_eq!(paths["shardtest.fanout/shardtest.item/shardtest.leaf"], 33);
    assert_eq!(paths["shardtest.fanout/shardtest.cell"], 9);
    assert_eq!(leaves["span:*"], 1 + 23 + 33 + 9);
    assert_eq!(events.len(), paths.len());
    assert!(events.values().all(|&n| n == 1), "{events:?}");
    for threads in [2, 7] {
        assert_eq!(span_fanout(threads), reference, "threads={threads}");
    }
    telemetry::reset();
}

#[test]
fn interned_counter_slots_reset_and_drain_without_lost_counts() {
    // Counter names are interned to per-thread slots that outlive a reset
    // or a drain. Each round adds a known total from pool items and from
    // the calling thread; a drain of the calling thread's slots must move
    // its counts, not lose or repeat them, and a reset must zero slots
    // interned before it.
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let read = || {
        telemetry::snapshot()
            .counters
            .get("shardtest.slot_ticks")
            .copied()
    };
    for threads in [1usize, 2, 7] {
        telemetry::reset();
        telemetry::set_level(telemetry::Level::Off);
        for round in 1..=3u64 {
            hqnn_runtime::with_threads(threads, || {
                hqnn_runtime::par_map_range(40, |i| {
                    telemetry::counter("shardtest.slot_ticks", i as u64 + 1)
                })
            });
            telemetry::counter("shardtest.slot_ticks", 1000);
            let before = read();
            telemetry::drain_local_metrics();
            assert_eq!(read(), before, "threads={threads} round={round}");
            assert_eq!(
                before,
                Some(round * 1820),
                "threads={threads} round={round}"
            );
        }
        telemetry::reset();
        assert_eq!(read(), None, "threads={threads}: reset left a count");
        telemetry::counter("shardtest.slot_ticks", 5);
        assert_eq!(read(), Some(5), "threads={threads}: count after reset");
    }
    telemetry::reset();
}

#[test]
fn flush_drains_a_live_thread_without_lost_counts() {
    // `flush` drains every live thread's slots from the flushing thread
    // while their owners may keep counting; counts made before and after
    // the drain all arrive, once.
    let _g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset();
    telemetry::set_level(telemetry::Level::Off);
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        for _ in 0..1000 {
            telemetry::counter("shardtest.live_ticks", 1);
        }
        ready_tx.send(()).unwrap();
        for _ in 0..100_000 {
            telemetry::counter("shardtest.live_ticks", 1);
        }
        go_rx.recv().unwrap();
        telemetry::counter("shardtest.live_ticks", 7);
    });
    ready_rx.recv().unwrap();
    telemetry::flush();
    let mid = telemetry::snapshot().counters["shardtest.live_ticks"];
    assert!((1000..=101_000).contains(&mid), "{mid}");
    go_tx.send(()).unwrap();
    worker.join().unwrap();
    assert_eq!(
        telemetry::snapshot().counters["shardtest.live_ticks"],
        101_007
    );
    telemetry::reset();
}
