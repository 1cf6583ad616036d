//! Run manifests: the provenance record stamped into every measured artifact.
//!
//! A benchmark number without its context — which commit, which build
//! profile, how many hardware threads, which protocol — cannot be compared
//! against anything later. [`RunManifest::capture`] gathers that context once
//! per run so bench JSON, cached study JSON, and JSONL run logs all carry it.

use crate::event::FieldValue;
use serde::{Deserialize, Serialize};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Provenance of one measured run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// `git rev-parse HEAD` (abbreviated), or `"unknown"` outside a repo.
    pub git_sha: String,
    /// Whether the working tree had uncommitted changes.
    pub git_dirty: bool,
    /// Protocol/scale tag the binary ran with (`fast`, `smoke`, `bench`, …).
    pub profile: String,
    /// Cargo build profile the binary was compiled under.
    pub cargo_profile: String,
    /// Operating system (`std::env::consts::OS`).
    pub host_os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub host_arch: String,
    /// Host name, or `"unknown"` when undiscoverable.
    pub hostname: String,
    /// Worker threads the run's parallel runtime was configured with:
    /// `HQNN_THREADS` when set (and valid), otherwise the hardware threads
    /// available to the process. Published numbers are only comparable
    /// between runs with equal `threads`.
    pub threads: usize,
    /// Whether the run counted allocations (`HQNN_ALLOC=1`/`true`/`on`).
    /// Counting never changes numerics, but it adds allocator bookkeeping
    /// that can perturb timings, so timed comparisons should match on
    /// `alloc` too. Defaults to `false` when absent (pre-alloc manifests).
    #[serde(default)]
    pub alloc: bool,
    /// Shard plan the run's study was scheduled with, as the compact
    /// `"cells=N;outer=O;inner=I"` descriptor. `""` means the study ran
    /// sequentially (or predates sharding). Sharding is bitwise neutral —
    /// results stay comparable across plans — but the stamp qualifies
    /// wall-clock numbers, which are only comparable between equal plans.
    /// Defaults to `""` when absent (pre-sharding manifests).
    #[serde(default)]
    pub shard_plan: String,
    /// Kernel set the dense matmuls and qsim kernels ran on: `"avx2"` when
    /// the CPU has AVX2,
    /// else `"baseline"` (`hqnn_runtime::simd`'s dispatch rule). The kernels
    /// return the same bits either way, but published wall-clock numbers
    /// are only comparable between runs with equal `simd`. Defaults to `""`
    /// when absent (manifests from before the dispatch).
    #[serde(default)]
    pub simd: String,
    /// FNV-1a hash of the run's configuration JSON (`"-"` when not set).
    pub config_hash: String,
    /// Seconds since the Unix epoch at capture time.
    pub timestamp_unix: u64,
}

impl RunManifest {
    /// Captures the current process/host/repo context. `profile` tags which
    /// protocol or benchmark scale the run used.
    pub fn capture(profile: &str) -> Self {
        Self {
            git_sha: git_stdout(&["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
            git_dirty: git_stdout(&["status", "--porcelain"])
                .map(|s| !s.is_empty())
                .unwrap_or(false),
            profile: profile.to_string(),
            cargo_profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            host_os: std::env::consts::OS.to_string(),
            host_arch: std::env::consts::ARCH.to_string(),
            hostname: hostname(),
            threads: configured_threads(),
            alloc: configured_alloc(),
            shard_plan: String::new(),
            simd: simd_level().to_string(),
            config_hash: "-".to_string(),
            timestamp_unix: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// Stamps the manifest with the hash of the run's configuration, so two
    /// runs are comparable only when their configs hash identically.
    pub fn with_config_hash<T: Serialize + ?Sized>(mut self, config: &T) -> Self {
        self.config_hash = config_hash(config);
        self
    }

    /// Stamps the manifest with the shard plan descriptor the run's study
    /// was scheduled with (see `ShardPlan::descriptor` in `hqnn-search`).
    pub fn with_shard_plan(mut self, plan: &str) -> Self {
        self.shard_plan = plan.to_string();
        self
    }

    /// The manifest as telemetry event fields (for `run.manifest` events in
    /// JSONL logs).
    pub fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        vec![
            ("git_sha", self.git_sha.clone().into()),
            ("git_dirty", self.git_dirty.into()),
            ("profile", self.profile.clone().into()),
            ("cargo_profile", self.cargo_profile.clone().into()),
            ("host_os", self.host_os.clone().into()),
            ("host_arch", self.host_arch.clone().into()),
            ("hostname", self.hostname.clone().into()),
            ("threads", self.threads.into()),
            ("alloc", self.alloc.into()),
            ("shard_plan", self.shard_plan.clone().into()),
            ("simd", self.simd.clone().into()),
            ("config_hash", self.config_hash.clone().into()),
            ("timestamp_unix", self.timestamp_unix.into()),
        ]
    }
}

/// FNV-1a (64-bit) over a value's compact JSON rendering, as a fixed-width
/// hex string. Stable across runs: the vendored serde writes struct fields
/// in declaration order.
pub fn config_hash<T: Serialize + ?Sized>(config: &T) -> String {
    let json = serde_json::to_string(config).unwrap_or_default();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in json.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Whether the environment enables allocation counting (`HQNN_ALLOC`).
fn configured_alloc() -> bool {
    crate::env::var("HQNN_ALLOC")
        .map(|raw| crate::env::parse_flag(&raw))
        .unwrap_or(false)
}

/// Thread count the run executes with. Mirrors `hqnn-runtime`'s resolution
/// order (`HQNN_THREADS` env, then hardware parallelism) through the same
/// central [`crate::env`] parsers `hqnn-runtime` uses.
fn configured_threads() -> usize {
    crate::env::var("HQNN_THREADS")
        .and_then(|raw| crate::env::parse_threads(&raw))
        .unwrap_or_else(crate::env::hardware_parallelism)
}

/// Kernel set the run's dense matmuls use. Mirrors the rule
/// `hqnn_runtime::simd` dispatches on (this crate sits below the runtime, so
/// it cannot call it); a runtime test pins the two to the same answer.
fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "baseline"
}

fn git_stdout(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn hostname() -> String {
    if let Ok(name) = std::fs::read_to_string("/etc/hostname") {
        let name = name.trim();
        if !name.is_empty() {
            return name.to_string();
        }
    }
    std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_fills_every_field() {
        let m = RunManifest::capture("test-profile");
        assert_eq!(m.profile, "test-profile");
        assert!(!m.git_sha.is_empty());
        assert!(!m.cargo_profile.is_empty());
        assert!(m.threads >= 1);
        assert_eq!(m.config_hash, "-");
        assert!(m.timestamp_unix > 1_600_000_000, "clock is sane");
    }

    #[test]
    fn config_hash_is_deterministic_and_sensitive() {
        let a = config_hash("same config");
        let b = config_hash("same config");
        let c = config_hash("other config");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = RunManifest::capture("rt").with_config_hash(&42u64);
        let json = serde_json::to_string(&m).expect("serialize");
        let back: RunManifest = serde_json::from_str(&json).expect("parse");
        assert_eq!(m, back);
        assert_ne!(m.config_hash, "-");
    }

    #[test]
    fn fields_cover_the_manifest() {
        let m = RunManifest::capture("f");
        let fields = m.fields();
        let names: Vec<&str> = fields.iter().map(|(k, _)| *k).collect();
        for key in [
            "git_sha",
            "profile",
            "threads",
            "alloc",
            "simd",
            "config_hash",
        ] {
            assert!(names.contains(&key), "missing {key}");
        }
    }

    #[test]
    fn older_manifests_parse_with_retired_keys_ignored() {
        // Committed bench baselines and history carry keys this struct no
        // longer has — the retired `batch` layout key and the `fuse` stamp
        // of the removed gate-fusion path — and may lack later fields.
        // Unknown keys are ignored and missing ones default.
        for extra in [r#""batch": "row","#, r#""fuse": true,"#] {
            let json = format!(
                r#"{{
                "git_sha": "abc123",
                "git_dirty": false,
                "profile": "perfbench-full",
                "cargo_profile": "release",
                "host_os": "linux",
                "host_arch": "x86_64",
                "hostname": "vm",
                "threads": 1,
                {extra}
                "config_hash": "-",
                "timestamp_unix": 1700000000
            }}"#
            );
            let m: RunManifest = serde_json::from_str(&json).expect("parse");
            assert_eq!(m.threads, 1, "{extra}");
            assert_eq!(m.config_hash, "-");
            assert!(!m.alloc);
            // Pre-sharding manifests default to "" — those studies ran
            // sequentially.
            assert_eq!(m.shard_plan, "");
            assert_eq!(m.simd, "");
        }
    }

    #[test]
    fn with_shard_plan_stamps_the_descriptor() {
        let m = RunManifest::capture("s").with_shard_plan("cells=6;outer=3;inner=2");
        assert_eq!(m.shard_plan, "cells=6;outer=3;inner=2");
        let names: Vec<&str> = m.fields().iter().map(|(k, _)| *k).collect();
        assert!(names.contains(&"shard_plan"));
    }
}
