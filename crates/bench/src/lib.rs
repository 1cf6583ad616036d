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
use hqnn_search::{ExperimentConfig, ShardPlan, StudyResult, NUMERICS_VERSION};
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
            match telemetry::write_atomic(path, telemetry::trace::chrome_trace_json()) {
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
            if let Err(e) = telemetry::write_atomic(&folded, telemetry::trace::collapsed_stacks()) {
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
    /// A cache computed under another configuration, another
    /// [`NUMERICS_VERSION`] or the retired gate-fusion path is stale: a
    /// warn-level `bench.cache_stale` event names the differing field
    /// (`config`, `numerics` or `fusion`) with its cached and current values.
    /// A cache file that exists but does not load (truncated write, hand
    /// edit, a `winner` that is not a passing combo) also starts fresh,
    /// after a `bench.cache_unreadable` error event naming the path and the
    /// error.
    pub fn load_study(&self) -> StudyResult {
        let config = self.profile.experiment_config();
        let path = self.study_path();
        if !self.fresh && path.exists() {
            match StudyResult::load(&path) {
                Ok(study) => match stale_field(&study, &config) {
                    None => {
                        telemetry::event(
                            telemetry::Level::Info,
                            "bench.cache_hit",
                            &[("path", path.display().to_string().into())],
                        );
                        return study;
                    }
                    Some((field, old, new)) => telemetry::event(
                        telemetry::Level::Warn,
                        "bench.cache_stale",
                        &[
                            ("path", path.display().to_string().into()),
                            ("field", field.into()),
                            ("old", old.into()),
                            ("new", new.into()),
                        ],
                    ),
                },
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

/// The first field in which a cached study differs from what this build
/// would compute, as `(field, cached value, current value)`; `None` when
/// the cache is current. Configurations are shown by their hash.
fn stale_field(
    study: &StudyResult,
    config: &ExperimentConfig,
) -> Option<(&'static str, String, String)> {
    if study.config != *config {
        return Some((
            "config",
            telemetry::config_hash(&study.config),
            telemetry::config_hash(config),
        ));
    }
    if study.numerics != NUMERICS_VERSION {
        return Some((
            "numerics",
            study.numerics.to_string(),
            NUMERICS_VERSION.to_string(),
        ));
    }
    // Levels 1 and 2 ran the retired fused simulator, whose forward bits
    // this build does not reproduce.
    if study.fusion_level != 0 {
        return Some(("fusion", study.fusion_level.to_string(), "0".to_string()));
    }
    None
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

/// Writes a generated artifact (markdown report, CSV export) atomically —
/// an existing file is replaced whole or left untouched — and reports the
/// outcome as a telemetry event; failures warn rather than abort, since the
/// stdout tables are the primary output.
pub fn write_artifact(path: &std::path::Path, contents: &str) {
    match telemetry::write_atomic(path, contents) {
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

    /// A smoke-profile CLI over a fresh temp cache dir named by `tag`.
    fn smoke_cli_in_temp_dir(tag: &str) -> Cli {
        let dir = std::env::temp_dir().join(format!(
            "hqnn-bench-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("create temp cache dir");
        Cli {
            profile: Profile::Smoke,
            cache_dir: dir,
            ..Cli::default()
        }
    }

    /// The `bench.cache_*` events named `name` that concern `cli`'s cache.
    fn cache_events(mem: &telemetry::MemorySink, cli: &Cli, name: &str) -> Vec<telemetry::Event> {
        let shown = telemetry::FieldValue::Str(cli.study_path().display().to_string());
        mem.events_named(name)
            .into_iter()
            .filter(|e| e.fields.iter().any(|(k, v)| k == "path" && *v == shown))
            .collect()
    }

    fn field<'a>(event: &'a telemetry::Event, key: &str) -> Option<&'a telemetry::FieldValue> {
        event.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    #[test]
    fn load_study_reports_a_corrupt_cache_and_starts_fresh() {
        let cli = smoke_cli_in_temp_dir("corrupt-cache");
        std::fs::write(cli.study_path(), "{\"config\": {\"levels\": [4")
            .expect("write truncated JSON");
        let mem = telemetry::add_memory_sink();
        let study = cli.load_study();
        assert!(study.classical.is_empty());
        assert_eq!(study.config, ExperimentConfig::smoke());
        let events = cache_events(&mem, &cli, "bench.cache_unreadable");
        assert_eq!(events.len(), 1, "one event for the corrupt cache");
        assert_eq!(events[0].level, telemetry::Level::Error);
        assert!(field(&events[0], "error").is_some());
        let _ = std::fs::remove_dir_all(&cli.cache_dir);
    }

    #[test]
    fn load_study_reports_an_out_of_range_winner_and_starts_fresh() {
        let cli = smoke_cli_in_temp_dir("bad-winner-cache");
        let mut cached = StudyResult::new(ExperimentConfig::smoke());
        cached.run_family(Family::Classical, &mut |_, _, _| {});
        cached.classical[0].repetitions[0].winner = Some(999);
        cached.save(cli.study_path()).expect("save cache");
        let mem = telemetry::add_memory_sink();
        let study = cli.load_study();
        assert!(study.classical.is_empty(), "the bad cache is not reused");
        let events = cache_events(&mem, &cli, "bench.cache_unreadable");
        assert_eq!(events.len(), 1, "one event for the bad winner");
        assert!(cache_events(&mem, &cli, "bench.cache_hit").is_empty());
        let _ = std::fs::remove_dir_all(&cli.cache_dir);
    }

    #[test]
    fn load_study_treats_a_cache_without_numerics_stamp_as_stale() {
        let cli = smoke_cli_in_temp_dir("unstamped-cache");
        let mut cached = StudyResult::new(ExperimentConfig::smoke());
        cached.run_family(Family::Classical, &mut |_, _, _| {});
        // Drop the stamp, as in a study saved before it existed.
        let mut json = serde_json::to_value(&cached).expect("study serializes");
        if let serde_json::Value::Map(fields) = &mut json {
            fields.retain(|(k, _)| k != "numerics");
        }
        std::fs::write(
            cli.study_path(),
            serde_json::to_string_pretty(&json).unwrap(),
        )
        .expect("write unstamped cache");
        assert_eq!(StudyResult::load(cli.study_path()).unwrap().numerics, 0);

        let mem = telemetry::add_memory_sink();
        let study = cli.load_study();
        assert!(study.classical.is_empty(), "stale cache must not be reused");
        assert_eq!(study.numerics, NUMERICS_VERSION);
        let stale = cache_events(&mem, &cli, "bench.cache_stale");
        assert_eq!(stale.len(), 1, "one stale event");
        assert_eq!(stale[0].level, telemetry::Level::Warn);
        let s = |v: &str| telemetry::FieldValue::Str(v.to_string());
        assert_eq!(field(&stale[0], "field"), Some(&s("numerics")));
        assert_eq!(field(&stale[0], "old"), Some(&s("0")));
        assert_eq!(
            field(&stale[0], "new"),
            Some(&s(&NUMERICS_VERSION.to_string()))
        );
        assert!(cache_events(&mem, &cli, "bench.cache_hit").is_empty());
        let _ = std::fs::remove_dir_all(&cli.cache_dir);
    }

    #[test]
    fn load_study_names_a_config_mismatch() {
        let cli = smoke_cli_in_temp_dir("other-config-cache");
        let mut other = ExperimentConfig::smoke();
        other.levels = vec![4];
        StudyResult::new(other.clone())
            .save(cli.study_path())
            .expect("save cache");
        let mem = telemetry::add_memory_sink();
        let study = cli.load_study();
        assert_eq!(study.config, ExperimentConfig::smoke());
        let stale = cache_events(&mem, &cli, "bench.cache_stale");
        assert_eq!(stale.len(), 1);
        let hash = |c: &ExperimentConfig| telemetry::FieldValue::Str(telemetry::config_hash(c));
        assert_eq!(
            field(&stale[0], "field"),
            Some(&telemetry::FieldValue::Str("config".into()))
        );
        assert_eq!(field(&stale[0], "old"), Some(&hash(&other)));
        assert_eq!(
            field(&stale[0], "new"),
            Some(&hash(&ExperimentConfig::smoke()))
        );
        let _ = std::fs::remove_dir_all(&cli.cache_dir);
    }

    #[test]
    fn load_study_treats_another_fusion_level_as_stale() {
        // Studies cached under the retired fused path (levels 1 and 2)
        // carry forward bits the gate-by-gate simulator does not reproduce.
        for level in [1u64, 2] {
            let cli = smoke_cli_in_temp_dir(&format!("fusion-{level}-cache"));
            let mut cached = StudyResult::new(ExperimentConfig::smoke());
            cached.run_family(Family::Classical, &mut |_, _, _| {});
            let mut json = serde_json::to_value(&cached).expect("study serializes");
            if let serde_json::Value::Map(fields) = &mut json {
                let stamp = fields
                    .iter_mut()
                    .find(|(k, _)| k == "fusion_level")
                    .expect("the stamp is serialized");
                stamp.1 = serde_json::Value::U64(level);
            }
            std::fs::write(
                cli.study_path(),
                serde_json::to_string_pretty(&json).unwrap(),
            )
            .expect("write fused cache");
            let mem = telemetry::add_memory_sink();
            let study = cli.load_study();
            assert!(study.classical.is_empty(), "stale cache must not be reused");
            assert_eq!(study.fusion_level, 0);
            let stale = cache_events(&mem, &cli, "bench.cache_stale");
            assert_eq!(stale.len(), 1, "one stale event at level {level}");
            assert_eq!(stale[0].level, telemetry::Level::Warn);
            let s = |v: &str| telemetry::FieldValue::Str(v.to_string());
            assert_eq!(field(&stale[0], "field"), Some(&s("fusion")));
            assert_eq!(field(&stale[0], "old"), Some(&s(&level.to_string())));
            assert_eq!(field(&stale[0], "new"), Some(&s("0")));
            assert!(cache_events(&mem, &cli, "bench.cache_hit").is_empty());
            let _ = std::fs::remove_dir_all(&cli.cache_dir);
        }
    }

    #[test]
    fn a_cache_without_fusion_stamp_loads_as_level_zero() {
        let cli = smoke_cli_in_temp_dir("unstamped-fusion-cache");
        let cached = StudyResult::new(ExperimentConfig::smoke());
        let mut json = serde_json::to_value(&cached).expect("study serializes");
        if let serde_json::Value::Map(fields) = &mut json {
            let before = fields.len();
            fields.retain(|(k, _)| k != "fusion_level");
            assert_eq!(fields.len(), before - 1, "the stamp is serialized");
        }
        std::fs::write(
            cli.study_path(),
            serde_json::to_string_pretty(&json).unwrap(),
        )
        .expect("write unstamped cache");
        let loaded = StudyResult::load(cli.study_path()).expect("old JSON loads");
        assert_eq!(loaded.fusion_level, 0);
        assert_eq!(loaded, cached);
        let mem = telemetry::add_memory_sink();
        let study = cli.load_study();
        assert_eq!(study, cached, "an unstamped cache is current");
        assert_eq!(cache_events(&mem, &cli, "bench.cache_hit").len(), 1);
        let _ = std::fs::remove_dir_all(&cli.cache_dir);
    }

    #[test]
    fn load_study_reuses_a_current_cache() {
        let cli = smoke_cli_in_temp_dir("current-cache");
        let mut cached = StudyResult::new(ExperimentConfig::smoke());
        cached.run_family(Family::Classical, &mut |_, _, _| {});
        cached.save(cli.study_path()).expect("save cache");
        let mem = telemetry::add_memory_sink();
        let study = cli.load_study();
        assert_eq!(study, cached, "a matching cache is a hit");
        assert_eq!(cache_events(&mem, &cli, "bench.cache_hit").len(), 1);
        assert!(cache_events(&mem, &cli, "bench.cache_stale").is_empty());
        let _ = std::fs::remove_dir_all(&cli.cache_dir);
    }

    #[test]
    fn ensure_families_shards_only_the_missing_ones() {
        let mut study = StudyResult::new(ExperimentConfig::smoke());
        study.run_family(Family::Classical, &mut |_, _, _| {});
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
