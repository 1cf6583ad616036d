//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary accepts the same flags:
//!
//! * `--paper` — the paper's full protocol (all 11 levels, 5 runs × 5
//!   repetitions; hours on one core);
//! * `--fast` — the default: 3 levels, 2 runs × 2 repetitions (minutes);
//! * `--smoke` — a seconds-scale miniature (CI / demos);
//! * `--cache <dir>` — where the study JSON is stored (default
//!   `experiment-results/`);
//! * `--fresh` — ignore any cached study and re-run;
//! * `--log-json <path>` — write every telemetry event as one JSON object
//!   per line to `path`;
//! * `--trace-out <path>` — write a Chrome trace-event JSON of every span
//!   (plus a sibling `.folded` flamegraph input) at exit;
//! * `--quiet` — suppress stderr progress (result tables still print).
//!
//! Every invocation emits a `run.manifest` event (git SHA, build profile,
//! thread count, config hash) into its JSONL log, and stamps the same
//! manifest into the cached study JSON it writes.
//!
//! Progress goes through [`hqnn_telemetry`]: stderr verbosity follows
//! `HQNN_LOG` (default `info` for binaries), and every binary ends by
//! printing a span-tree profile via [`Cli::finish`].
//!
//! Search results are cached per profile in a single JSON file, so running
//! `fig6` then `fig9` reuses the classical search instead of repeating it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::exit;

use hqnn_search::experiments::Family;
use hqnn_search::{ExperimentConfig, ShardPlan, StudyResult};
use hqnn_telemetry as telemetry;

/// Which protocol profile a binary runs with.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Profile {
    /// The paper's full protocol.
    Paper,
    /// Reduced protocol (default).
    Fast,
    /// Fast statistical power (2 runs × 2 repetitions) but all 11 of the
    /// paper's complexity levels — the full Fig. 6–10 x-axis in a fraction
    /// of the paper protocol's time.
    FullLevels,
    /// Miniature protocol for CI.
    Smoke,
}

impl Profile {
    /// The experiment configuration for this profile.
    pub fn experiment_config(self) -> ExperimentConfig {
        match self {
            Profile::Paper => ExperimentConfig::paper(),
            Profile::Fast => ExperimentConfig::fast(),
            Profile::FullLevels => {
                let mut config = ExperimentConfig::fast();
                config.levels = hqnn_data::complexity_levels();
                config
            }
            Profile::Smoke => ExperimentConfig::smoke(),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Profile::Paper => "paper",
            Profile::Fast => "fast",
            Profile::FullLevels => "full-levels",
            Profile::Smoke => "smoke",
        }
    }
}

/// Parsed command-line options shared by every binary.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Selected protocol profile.
    pub profile: Profile,
    /// Directory holding cached study JSON.
    pub cache_dir: PathBuf,
    /// Ignore caches and re-run searches.
    pub fresh: bool,
    /// Mirror every telemetry event to this JSONL file.
    pub log_json: Option<PathBuf>,
    /// Write a Chrome trace-event JSON of every span to this file (plus a
    /// sibling `.folded` collapsed-stack file for flamegraphs).
    pub trace_out: Option<PathBuf>,
    /// Suppress stderr progress output.
    pub quiet: bool,
}

impl Cli {
    /// Parses `std::env::args`, exiting with usage text on `--help` or an
    /// unknown flag.
    pub fn parse() -> Self {
        let mut cli = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper" => cli.profile = Profile::Paper,
                "--fast" => cli.profile = Profile::Fast,
                "--full-levels" => cli.profile = Profile::FullLevels,
                "--smoke" => cli.profile = Profile::Smoke,
                "--fresh" => cli.fresh = true,
                "--quiet" | "-q" => cli.quiet = true,
                "--cache" => {
                    let Some(dir) = args.next() else {
                        eprintln!("--cache requires a directory argument");
                        exit(2);
                    };
                    cli.cache_dir = PathBuf::from(dir);
                }
                "--log-json" => {
                    let Some(path) = args.next() else {
                        eprintln!("--log-json requires a file argument");
                        exit(2);
                    };
                    cli.log_json = Some(PathBuf::from(path));
                }
                "--trace-out" => {
                    let Some(path) = args.next() else {
                        eprintln!("--trace-out requires a file argument");
                        exit(2);
                    };
                    cli.trace_out = Some(PathBuf::from(path));
                }
                "--help" | "-h" => {
                    println!(
                        "usage: <figure-binary> [--paper|--fast|--full-levels|--smoke] [--cache DIR] [--fresh]\n\
                         \n\
                         --paper        full protocol from the paper (hours)\n\
                         --fast         reduced protocol, same shape (default, minutes)\n\
                         --full-levels  fast protocol over all 11 complexity levels\n\
                         --smoke        miniature protocol (seconds)\n\
                         --cache        study cache directory (default experiment-results/)\n\
                         --fresh        ignore cached results and re-run\n\
                         --log-json     mirror telemetry events to a JSONL file\n\
                         --trace-out    write a Chrome trace JSON (+ .folded flamegraph input)\n\
                         --quiet        suppress stderr progress (tables still print)"
                    );
                    exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    exit(2);
                }
            }
        }
        cli.init_telemetry();
        cli
    }

    /// Applies this invocation's telemetry policy: `--quiet` silences the
    /// console, otherwise binaries default to `info` when `HQNN_LOG` is
    /// unset (libraries and tests keep the quieter `error` default), and
    /// `--log-json` attaches the JSONL sink.
    fn init_telemetry(&self) {
        if self.quiet {
            telemetry::set_level(telemetry::Level::Off);
        } else if !telemetry::env::is_set("HQNN_LOG") {
            telemetry::set_level(telemetry::Level::Info);
        }
        if let Some(path) = &self.log_json {
            if let Err(e) = telemetry::add_jsonl_sink(path) {
                eprintln!("could not open --log-json file {}: {e}", path.display());
                exit(2);
            }
        }
        if self.trace_out.is_some() {
            telemetry::trace::enable();
        }
        // Stamp provenance into the run log before any measurement happens,
        // so every JSONL file is self-describing.
        telemetry::event(
            telemetry::Level::Info,
            "run.manifest",
            &self.manifest().fields(),
        );
    }

    /// The provenance record for this invocation: host/git/build context plus
    /// the hash of the selected profile's experiment configuration.
    pub fn manifest(&self) -> telemetry::RunManifest {
        telemetry::RunManifest::capture(self.profile.tag())
            .with_config_hash(&self.profile.experiment_config())
    }

    /// Flushes sinks and prints the end-of-run span-tree profile to stderr
    /// (suppressed by `--quiet` / `HQNN_LOG=off`). Call last in every
    /// binary, after the result tables.
    pub fn finish(&self) {
        telemetry::flush();
        if let Some(path) = &self.trace_out {
            match std::fs::write(path, telemetry::trace::chrome_trace_json()) {
                Ok(()) => telemetry::event(
                    telemetry::Level::Info,
                    "trace.written",
                    &[
                        ("path", path.display().to_string().into()),
                        ("dropped", telemetry::trace::dropped().into()),
                    ],
                ),
                Err(e) => telemetry::event(
                    telemetry::Level::Error,
                    "trace.write_failed",
                    &[
                        ("path", path.display().to_string().into()),
                        ("error", e.to_string().into()),
                    ],
                ),
            }
            let folded = path.with_extension("folded");
            if let Err(e) = std::fs::write(&folded, telemetry::trace::collapsed_stacks()) {
                telemetry::event(
                    telemetry::Level::Error,
                    "trace.write_failed",
                    &[
                        ("path", folded.display().to_string().into()),
                        ("error", e.to_string().into()),
                    ],
                );
            }
        }
        if telemetry::enabled(telemetry::Level::Error) {
            eprintln!("{}", telemetry::report());
        }
    }

    /// The cache path for this profile's study JSON.
    pub fn study_path(&self) -> PathBuf {
        self.cache_dir
            .join(format!("study-{}.json", self.profile.tag()))
    }

    /// Loads the cached study if compatible, otherwise starts a fresh one.
    /// A cache file that exists but does not parse (truncated write,
    /// hand edit) also starts fresh, after a `bench.cache_unreadable`
    /// error event naming the path and the parse error.
    pub fn load_study(&self) -> StudyResult {
        let config = self.profile.experiment_config();
        let path = self.study_path();
        if !self.fresh && path.exists() {
            match StudyResult::load(&path) {
                Ok(study) if study.config == config => {
                    telemetry::event(
                        telemetry::Level::Info,
                        "bench.cache_hit",
                        &[("path", path.display().to_string().into())],
                    );
                    return study;
                }
                Ok(_) => telemetry::event(
                    telemetry::Level::Info,
                    "bench.cache_stale",
                    &[("path", path.display().to_string().into())],
                ),
                Err(e) => telemetry::event(
                    telemetry::Level::Error,
                    "bench.cache_unreadable",
                    &[
                        ("path", path.display().to_string().into()),
                        ("error", e.to_string().into()),
                    ],
                ),
            }
        }
        StudyResult::new(config)
    }

    /// Saves the study back to the cache, stamping it with this run's
    /// manifest — including the [`ShardPlan`] the searches were scheduled
    /// with, in its `shard_plan` field — first; failures warn rather than
    /// abort (the printed tables are the primary output).
    pub fn save_study_sharded(&self, study: &mut StudyResult, plan: &ShardPlan) {
        study.manifest = Some(self.manifest().with_shard_plan(&plan.descriptor()));
        if let Err(e) = study.save(self.study_path()) {
            telemetry::event(
                telemetry::Level::Error,
                "bench.cache_write_failed",
                &[
                    ("path", self.study_path().display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    }
}

impl Default for Cli {
    /// The defaults `parse()` starts from: fast profile, cache in
    /// `experiment-results/`, caches honoured.
    fn default() -> Self {
        Self {
            profile: Profile::Fast,
            cache_dir: PathBuf::from("experiment-results"),
            fresh: false,
            log_json: None,
            trace_out: None,
            quiet: false,
        }
    }
}

/// Ensures every listed family's search results are present in the study,
/// running all the missing ones together as one sharded study — their
/// (family × level) cells fan out over `hqnn_runtime::par_map_budgeted`, so
/// a multi-family regeneration parallelises across the study's outermost
/// loop instead of only within levels. Bitwise identical to running
/// [`StudyResult::run_family`] per family, at any thread budget.
///
/// Returns the [`ShardPlan`] the missing families were scheduled with, or
/// `None` when every family was already cached (pass it to
/// [`Cli::save_study_sharded`] to record the provenance).
pub fn ensure_families(study: &mut StudyResult, families: &[Family]) -> Option<ShardPlan> {
    let missing: Vec<Family> = families
        .iter()
        .copied()
        .filter(|&family| study.family(family).is_empty())
        .collect();
    if missing.is_empty() {
        return None;
    }
    for &family in &missing {
        telemetry::event(
            telemetry::Level::Info,
            "search.family_start",
            &[
                ("family", family.name().into()),
                ("levels", format!("{:?}", study.config.levels).into()),
                ("threshold", study.config.search.accuracy_threshold.into()),
                ("runs", study.config.search.runs_per_combo.into()),
                ("reps", study.config.search.repetitions.into()),
            ],
        );
    }
    Some(study.run_study_sharded(&missing, &mut |_, _, _, _| {}))
}

/// Writes a generated artifact (markdown report, CSV export) and reports
/// the outcome as a telemetry event; failures warn rather than abort, since
/// the stdout tables are the primary output.
pub fn write_artifact(path: &std::path::Path, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => telemetry::event(
            telemetry::Level::Info,
            "bench.artifact",
            &[("path", path.display().to_string().into())],
        ),
        Err(e) => telemetry::event(
            telemetry::Level::Error,
            "bench.artifact_write_failed",
            &[
                ("path", path.display().to_string().into()),
                ("error", e.to_string().into()),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_map_to_configs() {
        assert_eq!(
            Profile::Paper.experiment_config(),
            ExperimentConfig::paper()
        );
        assert_eq!(Profile::Fast.experiment_config(), ExperimentConfig::fast());
        assert_eq!(
            Profile::Smoke.experiment_config(),
            ExperimentConfig::smoke()
        );
    }

    #[test]
    fn study_path_encodes_profile() {
        let mut cli = Cli::default();
        assert!(cli.study_path().ends_with("study-fast.json"));
        cli.profile = Profile::Paper;
        assert!(cli.study_path().ends_with("study-paper.json"));
        cli.profile = Profile::Smoke;
        cli.cache_dir = PathBuf::from("/tmp/x");
        assert_eq!(cli.study_path(), PathBuf::from("/tmp/x/study-smoke.json"));
    }

    #[test]
    fn load_study_falls_back_to_fresh_on_missing_cache() {
        let cli = Cli {
            cache_dir: PathBuf::from("/nonexistent-hqnn-cache"),
            ..Cli::default()
        };
        let study = cli.load_study();
        assert!(study.classical.is_empty());
        assert_eq!(study.config, ExperimentConfig::fast());
    }

    #[test]
    fn load_study_reports_a_corrupt_cache_and_starts_fresh() {
        let dir = std::env::temp_dir().join(format!(
            "hqnn-bench-corrupt-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp cache dir");
        let cli = Cli {
            profile: Profile::Smoke,
            cache_dir: dir.clone(),
            ..Cli::default()
        };
        let path = cli.study_path();
        std::fs::write(&path, "{\"config\": {\"levels\": [4").expect("write truncated JSON");
        let mem = telemetry::add_memory_sink();
        let study = cli.load_study();
        assert!(study.classical.is_empty());
        assert_eq!(study.config, ExperimentConfig::smoke());
        let shown = telemetry::FieldValue::Str(path.display().to_string());
        let events: Vec<_> = mem
            .events_named("bench.cache_unreadable")
            .into_iter()
            .filter(|e| e.fields.iter().any(|(k, v)| k == "path" && *v == shown))
            .collect();
        assert_eq!(events.len(), 1, "one event for the corrupt cache");
        assert_eq!(events[0].level, telemetry::Level::Error);
        assert!(events[0].fields.iter().any(|(k, _)| k == "error"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ensure_families_shards_only_the_missing_ones() {
        let mut study = StudyResult::new(ExperimentConfig::smoke());
        study.run_classical();
        let cached = study.clone();
        let plan = ensure_families(&mut study, &[Family::Classical, Family::HybridBel])
            .expect("BEL was missing, a search must run");
        // Only BEL's cells were scheduled; classical results are untouched.
        assert!(plan.cells.iter().all(|c| c.family == Family::HybridBel));
        assert_eq!(plan.cells.len(), study.config.levels.len());
        assert_eq!(study.classical, cached.classical);
        assert!(!study.hybrid_bel.is_empty());
        // Second call: everything present, nothing runs.
        assert!(ensure_families(&mut study, &[Family::Classical, Family::HybridBel]).is_none());
    }
}
