//! Benchmark reports: the machine-readable `BENCH_<stamp>.json` schema,
//! derived throughput/efficiency metrics, and the human-readable table.

use crate::stats::Summary;
use crate::suite::REFERENCE_BENCH;
use hqnn_telemetry::RunManifest;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Version of the `BENCH_*.json` schema; bump on breaking layout changes.
pub const SCHEMA_VERSION: u64 = 1;

/// One benchmark's measured outcome plus its derived metrics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchResult {
    /// Stable benchmark id (the baseline matching key).
    pub id: String,
    /// Untimed warmup iterations that preceded measurement.
    pub warmup: u64,
    /// Timed iterations.
    pub iters: u64,
    /// Median per-iteration wall time.
    pub median_ns: u64,
    /// Median absolute deviation of the iteration times.
    pub mad_ns: u64,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
    /// Mean iteration time (reference only; gating uses the median).
    pub mean_ns: u64,
    /// Work units per iteration.
    pub ops_per_iter: u64,
    /// What one work unit is (`gate-applies`, `train-steps`, …).
    pub throughput_unit: String,
    /// Derived throughput: `ops_per_iter / median` per second.
    pub ops_per_sec: f64,
    /// Analytic FLOPs per iteration from `hqnn-flops` (simulation
    /// convention), for workloads the cost model covers.
    pub analytic_flops_per_iter: Option<u64>,
    /// Derived: `analytic_flops_per_iter / median` per second — how many
    /// modelled FLOPs this machine retires per wall-clock second.
    pub measured_flops_per_sec: Option<f64>,
    /// `measured_flops_per_sec` relative to the `tensor.matmul` reference
    /// bench (matmul ≡ 1.0) — how efficiently this workload turns time into
    /// modelled arithmetic compared to a dense kernel.
    pub efficiency_ratio: Option<f64>,
    /// Allocations per timed iteration (present only when the run was made
    /// with `HQNN_ALLOC=1`; `default` keeps pre-alloc baselines loadable).
    #[serde(default)]
    pub allocs_per_iter: Option<u64>,
    /// Bytes allocated per timed iteration (same condition).
    #[serde(default)]
    pub alloc_bytes_per_iter: Option<u64>,
    /// Peak live bytes above entry level across the whole timed loop.
    #[serde(default)]
    pub peak_alloc_bytes: Option<u64>,
}

impl BenchResult {
    /// Builds a result from a timing summary and the benchmark's metadata.
    /// `efficiency_ratio` stays `None` until
    /// [`BenchReport::compute_efficiency`] sees the whole suite.
    pub fn from_summary(
        id: &str,
        warmup: u64,
        summary: Summary,
        ops_per_iter: u64,
        throughput_unit: &str,
        analytic_flops_per_iter: Option<u64>,
    ) -> Self {
        let median_s = (summary.median_ns as f64 / 1e9).max(1e-12);
        Self {
            id: id.to_string(),
            warmup,
            iters: summary.iters,
            median_ns: summary.median_ns,
            mad_ns: summary.mad_ns,
            min_ns: summary.min_ns,
            max_ns: summary.max_ns,
            mean_ns: summary.mean_ns,
            ops_per_iter,
            throughput_unit: throughput_unit.to_string(),
            ops_per_sec: ops_per_iter as f64 / median_s,
            analytic_flops_per_iter,
            measured_flops_per_sec: analytic_flops_per_iter.map(|f| f as f64 / median_s),
            efficiency_ratio: None,
            allocs_per_iter: None,
            alloc_bytes_per_iter: None,
            peak_alloc_bytes: None,
        }
    }

    /// Attaches the allocation delta measured around the timed loop,
    /// amortised per iteration. A `None` delta (counting disabled) leaves
    /// the result untouched.
    pub fn with_alloc(
        mut self,
        delta: Option<hqnn_telemetry::alloc::AllocDelta>,
        iters: u64,
    ) -> Self {
        if let Some(delta) = delta {
            let iters = iters.max(1);
            self.allocs_per_iter = Some(delta.count / iters);
            self.alloc_bytes_per_iter = Some(delta.bytes / iters);
            self.peak_alloc_bytes = Some(delta.peak_bytes);
        }
        self
    }
}

/// A full benchmark run: provenance manifest + per-benchmark results.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version of this document.
    pub schema_version: u64,
    /// Provenance of the run (git SHA, build profile, host, threads, …).
    pub manifest: RunManifest,
    /// Results in suite order.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// Assembles a report and fills in the efficiency ratios.
    pub fn new(manifest: RunManifest, results: Vec<BenchResult>) -> Self {
        let mut report = Self {
            schema_version: SCHEMA_VERSION,
            manifest,
            results,
        };
        report.compute_efficiency();
        report
    }

    /// Normalises every result's measured FLOPs/sec by the reference
    /// bench's (`tensor.matmul` ≡ 1.0). No-op for results without analytic
    /// FLOPs, or when the reference was filtered out of the run.
    pub fn compute_efficiency(&mut self) {
        let reference = self
            .results
            .iter()
            .find(|r| r.id == REFERENCE_BENCH)
            .and_then(|r| r.measured_flops_per_sec);
        let Some(reference) = reference else { return };
        if reference <= 0.0 {
            return;
        }
        for result in &mut self.results {
            result.efficiency_ratio = result.measured_flops_per_sec.map(|f| f / reference);
        }
    }

    /// Looks up a result by benchmark id.
    pub fn result(&self, id: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.id == id)
    }

    /// Writes the report as pretty-printed JSON, atomically (temp file +
    /// rename).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        hqnn_telemetry::write_atomic(path, json + "\n")
    }

    /// Loads a report written by [`BenchReport::save`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The `BENCH_<stamp>.json` file name for this report's capture time.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", stamp(self.manifest.timestamp_unix))
    }

    /// Renders the human-readable result table (stdout companion of the
    /// JSON artifact).
    pub fn human_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "benchmarks @ {} ({}, {} threads, {})\n",
            self.manifest.git_sha,
            self.manifest.cargo_profile,
            self.manifest.threads,
            self.manifest.profile,
        ));
        // Alloc columns only when the run carried alloc data (HQNN_ALLOC=1).
        let has_alloc = self.results.iter().any(|r| r.allocs_per_iter.is_some());
        out.push_str(&format!(
            "{:<26} {:>12} {:>10} {:>26} {:>12} {:>11}",
            "benchmark", "median", "mad", "throughput", "mflops/s", "efficiency"
        ));
        if has_alloc {
            out.push_str(&format!(
                " {:>10} {:>12} {:>10}",
                "allocs/it", "alloc-b/it", "peak-b"
            ));
        }
        out.push('\n');
        for r in &self.results {
            out.push_str(&format!(
                "{:<26} {:>12} {:>10} {:>26} {:>12} {:>11}",
                r.id,
                fmt_ns(r.median_ns),
                fmt_ns(r.mad_ns),
                format!("{}/s {}", fmt_count(r.ops_per_sec), r.throughput_unit),
                r.measured_flops_per_sec
                    .map(|f| format!("{:.1}", f / 1e6))
                    .unwrap_or_else(|| "-".to_string()),
                r.efficiency_ratio
                    .map(|e| format!("{e:.3}"))
                    .unwrap_or_else(|| "-".to_string()),
            ));
            if has_alloc {
                let opt =
                    |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_else(|| "-".to_string());
                out.push_str(&format!(
                    " {:>10} {:>12} {:>10}",
                    opt(r.allocs_per_iter),
                    opt(r.alloc_bytes_per_iter),
                    opt(r.peak_alloc_bytes),
                ));
            }
            out.push('\n');
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_count(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// `YYYYMMDD-HHMMSS` (UTC) for a Unix timestamp — the `BENCH_<stamp>` part
/// of emitted file names. Civil-date conversion after Howard Hinnant's
/// `civil_from_days` algorithm.
pub fn stamp(unix_secs: u64) -> String {
    let days = unix_secs / 86_400;
    let secs_of_day = unix_secs % 86_400;
    let (y, m, d) = civil_from_days(days as i64);
    format!(
        "{y:04}{m:02}{d:02}-{:02}{:02}{:02}",
        secs_of_day / 3600,
        (secs_of_day % 3600) / 60,
        secs_of_day % 60
    )
}

fn civil_from_days(z: i64) -> (i64, u64, u64) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &str, median_ns: u64, flops: Option<u64>) -> BenchResult {
        BenchResult::from_summary(
            id,
            2,
            Summary {
                iters: 10,
                median_ns,
                mad_ns: median_ns / 100,
                min_ns: median_ns - 5,
                max_ns: median_ns + 5,
                mean_ns: median_ns,
            },
            4,
            "ops",
            flops,
        )
    }

    #[test]
    fn throughput_and_flops_derive_from_median() {
        let r = result("x", 2_000_000, Some(8_000_000)); // 2 ms/iter
        assert!((r.ops_per_sec - 2000.0).abs() < 1e-6); // 4 ops / 2 ms
        assert!((r.measured_flops_per_sec.unwrap() - 4e9).abs() < 1.0);
        let none = result("y", 2_000_000, None);
        assert_eq!(none.measured_flops_per_sec, None);
    }

    #[test]
    fn efficiency_is_relative_to_matmul() {
        let mut report = BenchReport::new(
            RunManifest::capture("test"),
            vec![
                result(REFERENCE_BENCH, 1_000, Some(10_000)), // 1e13 F/s
                result("half", 1_000, Some(5_000)),           // 5e12 F/s
                result("unmodelled", 1_000, None),
            ],
        );
        report.compute_efficiency();
        let eff = |id: &str| report.result(id).unwrap().efficiency_ratio;
        assert!((eff(REFERENCE_BENCH).unwrap() - 1.0).abs() < 1e-12);
        assert!((eff("half").unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(eff("unmodelled"), None);
    }

    #[test]
    fn stamps_render_utc_dates() {
        assert_eq!(stamp(0), "19700101-000000");
        // 2026-08-06 00:00:00 UTC.
        assert_eq!(stamp(1_785_974_400), "20260806-000000");
        // Leap-year boundary: 2024-02-29 23:59:59.
        assert_eq!(stamp(1_709_251_199), "20240229-235959");
    }

    #[test]
    fn report_round_trips_through_files() {
        let report = BenchReport::new(
            RunManifest::capture("test"),
            vec![result("a", 500, Some(1000))],
        );
        let path =
            std::env::temp_dir().join(format!("hqnn-perfbench-test-{}.json", std::process::id()));
        report.save(&path).unwrap();
        let back = BenchReport::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(report, back);
        assert!(back.file_name().starts_with("BENCH_"));
        assert!(back.file_name().ends_with(".json"));
    }
}
