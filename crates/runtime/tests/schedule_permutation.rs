//! Schedule-permutation model check: the parallel maps must produce
//! bitwise-identical results under *adversarial* worker interleavings, not
//! just the one schedule the OS happens to pick on the test machine.
//!
//! Each case sweeps seeds through [`hqnn_runtime::check::Interleaver`],
//! which injects a seed-deterministic delay in front of every task. The
//! delays shuffle which worker reaches the claim cursor first, so each seed
//! replays the same work under a different schedule; the assertion is
//! always the same — `to_bits()`-level equality with the sequential
//! reference. A failing seed is replayable by construction.
//!
//! This suite is a required CI gate (see `.github/workflows/ci.yml`); the
//! budgeted sweep below is the acceptance bar of ≥ 50 distinct
//! interleavings of `par_map_budgeted` across budgets {2, 4, 8}.

use hqnn_runtime::check::Interleaver;
use hqnn_runtime::{par_map, par_map_budgeted, with_threads};

/// Seeds swept per budget. Three budgets × 17 seeds = 51 interleavings,
/// which keeps the suite above the ≥ 50 bar with margin.
const SEEDS_PER_BUDGET: u64 = 17;

/// Budgets under test: the sanctioned nesting split behaves differently at
/// each (8 shards at budget 2 queue four deep; at budget 8 they all run).
const BUDGETS: [usize; 3] = [2, 4, 8];

/// Mixed non-associative f64 work — wrong re-association shows up in the
/// low mantissa bits, which `to_bits` equality catches and `==` on rounded
/// values would not.
fn work(i: usize) -> f64 {
    let mut acc = 0.0f64;
    for k in 1..=48 {
        acc += ((i * k + 1) as f64).sin() / (k as f64).sqrt();
    }
    acc
}

#[test]
fn par_map_budgeted_is_bitwise_stable_across_interleavings() {
    const LEN: usize = 24;
    let reference: Vec<u64> = (0..LEN).map(|i| work(i).to_bits()).collect();
    let mut schedules = 0u64;
    for budget in BUDGETS {
        for seed in 0..SEEDS_PER_BUDGET {
            let il = Interleaver::new(seed);
            let got: Vec<u64> = with_threads(budget, || {
                par_map_budgeted(LEN, |i| {
                    let _g = il.perturb(i as u64);
                    work(i)
                })
            })
            .into_iter()
            .map(f64::to_bits)
            .collect();
            assert_eq!(got, reference, "budget={budget} seed={seed}");
            assert_eq!(il.live(), 0, "all shards finished before return");
            schedules += 1;
        }
    }
    assert!(schedules >= 50, "swept only {schedules} interleavings");
}

#[test]
fn par_map_is_bitwise_stable_across_interleavings() {
    let items: Vec<usize> = (0..40).collect();
    let reference: Vec<u64> = items.iter().map(|&i| work(i).to_bits()).collect();
    for budget in BUDGETS {
        for seed in 0..8 {
            let il = Interleaver::new(seed);
            let got: Vec<u64> = with_threads(budget, || {
                par_map(&items, |i, &x| {
                    let _g = il.perturb(i as u64);
                    work(x)
                })
            })
            .into_iter()
            .map(f64::to_bits)
            .collect();
            assert_eq!(got, reference, "budget={budget} seed={seed}");
        }
    }
}

#[test]
fn budget_is_a_hard_bound_on_live_shards() {
    // More shards than budget, every shard sleeping: without a real bound
    // the probe's peak would reach the shard count.
    const LEN: usize = 16;
    for budget in BUDGETS {
        let il = Interleaver::new(3);
        with_threads(budget, || {
            par_map_budgeted(LEN, |i| {
                let _g = il.perturb(i as u64);
                std::thread::sleep(std::time::Duration::from_micros(200));
            })
        });
        assert!(
            il.peak() <= budget,
            "budget={budget} but {} shards ran concurrently",
            il.peak()
        );
        assert!(il.peak() >= 1);
        assert_eq!(il.live(), 0);
    }
}

#[test]
fn nested_fanout_respects_the_budget_product() {
    // Each budgeted shard fans out an inner par_map; the leaves audited
    // together must never exceed the caller's total budget — the
    // outer × inner ≤ total invariant observed from inside the tasks.
    const SHARDS: usize = 4;
    const INNER_ITEMS: usize = 6;
    for budget in BUDGETS {
        let leaves = Interleaver::new(7);
        with_threads(budget, || {
            par_map_budgeted(SHARDS, |s| {
                hqnn_runtime::par_map_range(INNER_ITEMS, |i| {
                    let _g = leaves.perturb((s * INNER_ITEMS + i) as u64);
                    std::thread::sleep(std::time::Duration::from_micros(150));
                })
            })
        });
        assert!(
            leaves.peak() <= budget,
            "budget={budget} but {} leaf tasks ran concurrently",
            leaves.peak()
        );
        assert_eq!(leaves.live(), 0);
    }
}

#[test]
fn worker_metrics_drain_before_return_under_contention() {
    // Metric shards recorded inside perturbed workers must be merged by the
    // time the map returns — the drain happens before the scope joins, and
    // no interleaving may lose a count.
    const LEN: usize = 12;
    let il = Interleaver::new(11);
    let before = hqnn_telemetry::snapshot()
        .counters
        .get("sched_check.items")
        .copied()
        .unwrap_or(0);
    with_threads(4, || {
        par_map_budgeted(LEN, |i| {
            let _g = il.perturb(i as u64);
            hqnn_telemetry::counter("sched_check.items", 1);
        })
    });
    let after = hqnn_telemetry::snapshot()
        .counters
        .get("sched_check.items")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        after - before,
        LEN as u64,
        "every worker's counter shard is visible immediately after the call"
    );
}
