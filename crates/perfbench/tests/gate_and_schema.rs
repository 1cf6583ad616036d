//! End-to-end tests of the regression gate and the `BENCH_*.json` schema:
//! the gate must fail on clear regressions, pass clear improvements and
//! within-noise deltas, and the JSON layout must stay parseable by the
//! vendored `serde_json` (old baselines must keep loading).

use hqnn_perfbench::{
    compare, has_regressions, missing_ids, BenchReport, BenchResult, GateConfig, Summary, Verdict,
    REFERENCE_BENCH, SCHEMA_VERSION,
};
use hqnn_telemetry::RunManifest;

fn result(id: &str, median_ns: u64, mad_ns: u64) -> BenchResult {
    BenchResult::from_summary(
        id,
        2,
        Summary {
            iters: 20,
            median_ns,
            mad_ns,
            min_ns: median_ns.saturating_sub(2 * mad_ns),
            max_ns: median_ns + 2 * mad_ns,
            mean_ns: median_ns,
        },
        1,
        "iters",
        Some(median_ns * 10),
    )
}

fn report(results: Vec<BenchResult>) -> BenchReport {
    BenchReport::new(RunManifest::capture("gate-test"), results)
}

#[test]
fn clear_improvement_passes_the_gate() {
    let baseline = report(vec![result("a", 1_000_000, 10_000)]);
    let current = report(vec![result("a", 500_000, 10_000)]);
    let cmp = compare(&baseline, &current, &GateConfig::default());
    assert_eq!(cmp.len(), 1);
    assert_eq!(cmp[0].verdict, Verdict::Improvement);
    assert!((cmp[0].delta + 0.5).abs() < 1e-9);
    assert!(!has_regressions(&cmp));
}

#[test]
fn clear_regression_fails_the_gate() {
    let baseline = report(vec![result("a", 1_000_000, 10_000)]);
    let current = report(vec![result("a", 2_000_000, 10_000)]);
    let cmp = compare(&baseline, &current, &GateConfig::default());
    assert_eq!(cmp[0].verdict, Verdict::Regression);
    assert!((cmp[0].delta - 1.0).abs() < 1e-9);
    assert!(has_regressions(&cmp));
}

#[test]
fn within_noise_delta_passes() {
    // +6% slowdown with a 10% relative floor: within noise.
    let baseline = report(vec![result("a", 1_000_000, 5_000)]);
    let current = report(vec![result("a", 1_060_000, 5_000)]);
    let cmp = compare(&baseline, &current, &GateConfig::default());
    assert_eq!(cmp[0].verdict, Verdict::WithinNoise);
    assert!(!has_regressions(&cmp));
}

#[test]
fn noisy_benchmarks_get_a_wider_band() {
    // MAD of 200k on a 1ms median → allowed = 4 × 0.2 = 80%, so a +50%
    // delta that would fail a quiet benchmark stays within noise here.
    let baseline = report(vec![result("a", 1_000_000, 200_000)]);
    let current = report(vec![result("a", 1_500_000, 200_000)]);
    let cmp = compare(&baseline, &current, &GateConfig::default());
    assert!((cmp[0].allowed - 0.8).abs() < 1e-9);
    assert_eq!(cmp[0].verdict, Verdict::WithinNoise);

    // The same +50% with quiet timings on both sides is a regression (the
    // band takes the larger of the two MADs, so both must be quiet).
    let quiet_base = report(vec![result("a", 1_000_000, 1_000)]);
    let quiet_current = report(vec![result("a", 1_500_000, 1_000)]);
    let cmp = compare(&quiet_base, &quiet_current, &GateConfig::default());
    assert_eq!(cmp[0].verdict, Verdict::Regression);
}

#[test]
fn new_and_missing_benchmarks_are_flagged_but_not_regressions() {
    let baseline = report(vec![result("removed", 1_000, 10)]);
    let current = report(vec![result("added", 2_000, 10)]);
    let cmp = compare(&baseline, &current, &GateConfig::default());
    assert_eq!(cmp.len(), 2);
    assert_eq!(cmp[0].id, "removed");
    assert_eq!(cmp[0].verdict, Verdict::Missing);
    assert_eq!(cmp[1].id, "added");
    assert_eq!(cmp[1].verdict, Verdict::New);
    // Missing is not a *regression* — but the CLI `--check` still fails on
    // it (lost coverage) unless `--allow-missing`; see `missing_ids`.
    assert!(!has_regressions(&cmp));
    assert_eq!(missing_ids(&cmp), vec!["removed"]);
}

#[test]
fn missing_ids_preserve_baseline_order_and_ignore_other_verdicts() {
    let baseline = report(vec![
        result("kept", 1_000, 10),
        result("gone.z", 1_000, 10),
        result("gone.a", 1_000, 10),
    ]);
    let current = report(vec![result("kept", 1_001, 10), result("new", 5, 1)]);
    let cmp = compare(&baseline, &current, &GateConfig::default());
    assert_eq!(missing_ids(&cmp), vec!["gone.z", "gone.a"]);

    let full = compare(&baseline, &baseline, &GateConfig::default());
    assert!(missing_ids(&full).is_empty());
}

/// A frozen `BENCH_*.json` document (schema version 1). If this stops
/// parsing, committed baselines in the wild stop loading — treat any failure
/// here as a breaking schema change requiring a `SCHEMA_VERSION` bump and a
/// migration path.
const SNAPSHOT: &str = r#"{
  "schema_version": 1,
  "manifest": {
    "git_sha": "0123456789ab",
    "git_dirty": false,
    "profile": "perfbench-full",
    "cargo_profile": "release",
    "host_os": "linux",
    "host_arch": "x86_64",
    "hostname": "ci-runner",
    "threads": 8,
    "config_hash": "a1b2c3d4e5f60718",
    "timestamp_unix": 1754524800,
    "unknown_future_field": "ignored"
  },
  "results": [
    {
      "id": "tensor.matmul",
      "warmup": 5,
      "iters": 40,
      "median_ns": 250000,
      "mad_ns": 1200,
      "min_ns": 248000,
      "max_ns": 310000,
      "mean_ns": 252000,
      "ops_per_iter": 1,
      "throughput_unit": "matmuls",
      "ops_per_sec": 4000.0,
      "analytic_flops_per_iter": 524288,
      "measured_flops_per_sec": 2097152000.0,
      "efficiency_ratio": 1.0
    },
    {
      "id": "search.combo",
      "warmup": 1,
      "iters": 7,
      "median_ns": 1500000000,
      "mad_ns": 20000000,
      "min_ns": 1480000000,
      "max_ns": 1600000000,
      "mean_ns": 1510000000,
      "ops_per_iter": 1,
      "throughput_unit": "combos",
      "ops_per_sec": 0.6666,
      "analytic_flops_per_iter": null,
      "measured_flops_per_sec": null,
      "efficiency_ratio": null
    }
  ]
}"#;

#[test]
fn schema_snapshot_stays_parseable() {
    let report: BenchReport = serde_json::from_str(SNAPSHOT).expect("snapshot parses");
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert_eq!(report.manifest.git_sha, "0123456789ab");
    assert_eq!(report.manifest.threads, 8);
    // Snapshot predates the manifest's `alloc` field; absent parses as
    // false.
    assert!(!report.manifest.alloc);
    assert_eq!(report.results.len(), 2);

    // Snapshot also predates the per-result alloc columns.
    for result in &report.results {
        assert_eq!(result.allocs_per_iter, None);
        assert_eq!(result.alloc_bytes_per_iter, None);
        assert_eq!(result.peak_alloc_bytes, None);
    }

    let matmul = report.result(REFERENCE_BENCH).expect("matmul present");
    assert_eq!(matmul.median_ns, 250_000);
    assert_eq!(matmul.analytic_flops_per_iter, Some(524_288));
    assert_eq!(matmul.efficiency_ratio, Some(1.0));

    let combo = report.result("search.combo").expect("combo present");
    assert_eq!(combo.analytic_flops_per_iter, None);
    assert_eq!(combo.efficiency_ratio, None);

    // And the parsed report re-serialises to something that parses back to
    // the same value (field order is part of the schema contract).
    let round = serde_json::to_string_pretty(&report).unwrap();
    let back: BenchReport = serde_json::from_str(&round).unwrap();
    assert_eq!(report, back);
}

#[test]
fn emitted_reports_match_the_snapshot_field_set() {
    // The emitter must produce exactly the documented fields, so freshly
    // written BENCH files can be diffed against committed baselines.
    let report = report(vec![result("a", 1_000, 10)]);
    let json = serde_json::to_string_pretty(&report).unwrap();
    for key in [
        "\"schema_version\"",
        "\"manifest\"",
        "\"git_sha\"",
        "\"config_hash\"",
        "\"results\"",
        "\"median_ns\"",
        "\"mad_ns\"",
        "\"ops_per_sec\"",
        "\"analytic_flops_per_iter\"",
        "\"measured_flops_per_sec\"",
        "\"efficiency_ratio\"",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
}
