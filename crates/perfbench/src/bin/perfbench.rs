//! The `perfbench` binary: runs the microbenchmark suite, emits a stamped
//! `BENCH_<stamp>.json` with a run manifest, and optionally gates against a
//! committed baseline.
//!
//! ```text
//! perfbench                          # full scale, writes bench/BENCH_<stamp>.json
//! perfbench --smoke                  # CI scale (same workloads, fewer iters)
//! perfbench --check                  # also compare against bench/baseline.json,
//!                                    # exit 1 on regression
//! perfbench --check --advisory       # report regressions but exit 0
//! perfbench --update-baseline        # rewrite bench/baseline.json from this run
//! perfbench --filter qsim            # only benchmarks whose id contains "qsim"
//! perfbench --trace-out trace.json   # Chrome trace + .folded flamegraph input
//! perfbench --trend                  # no benches: report trajectories over the
//!                                    # committed bench/history/ series
//! ```

use hqnn_perfbench::{
    compare, gate, has_regressions, missing_ids, run_suite, trend, BenchReport, Scale,
};
use hqnn_telemetry as telemetry;
use std::path::PathBuf;
use std::process::exit;

const DEFAULT_OUT_DIR: &str = "bench";
const DEFAULT_BASELINE: &str = "bench/baseline.json";
const DEFAULT_HISTORY_DIR: &str = "bench/history";

struct Args {
    smoke: bool,
    filter: Option<String>,
    out_dir: PathBuf,
    check: Option<PathBuf>,
    advisory: bool,
    allow_missing: bool,
    update_baseline: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    log_json: Option<PathBuf>,
    quiet: bool,
    trend: Option<PathBuf>,
    trend_out: Option<PathBuf>,
}

fn usage() -> ! {
    println!(
        "usage: perfbench [--smoke] [--filter SUBSTR] [--out DIR] [--check [BASELINE]]\n\
         \x20                [--advisory] [--update-baseline [PATH]] [--trace-out PATH]\n\
         \x20                [--log-json PATH] [--quiet]\n\
         \n\
         --smoke             CI scale: same workloads, fewer warmup/timed iterations\n\
         --filter SUBSTR     only run benchmarks whose id contains SUBSTR\n\
         --out DIR           directory for BENCH_<stamp>.json (default bench/)\n\
         --check [BASELINE]  compare against a baseline (default bench/baseline.json)\n\
         \x20                    and exit 1 when any benchmark regresses\n\
         --advisory          with --check: report regressions but always exit 0\n\
         --allow-missing     with --check: tolerate baseline benchmarks absent from\n\
         \x20                    this run (renamed/removed/filtered); fails otherwise\n\
         --update-baseline   rewrite the baseline (default bench/baseline.json) from this run\n\
         --trace-out PATH    write a Chrome trace JSON (+ PATH.folded flamegraph input)\n\
         --log-json PATH     mirror telemetry events to a JSONL file\n\
         --quiet             suppress stderr progress (tables still print)\n\
         --trend [DIR]       run no benchmarks; render per-benchmark trajectories\n\
         \x20                    from the BENCH_*.json series in DIR (default bench/history)\n\
         --trend-out PATH    with --trend: also write the trajectory report to PATH"
    );
    exit(0);
}

/// Parses a flag's optional path operand: consumed only when the next
/// argument exists and is not itself a flag.
fn optional_path(args: &[String], i: &mut usize, default: &str) -> PathBuf {
    if let Some(next) = args.get(*i + 1) {
        if !next.starts_with('-') {
            *i += 1;
            return PathBuf::from(next);
        }
    }
    PathBuf::from(default)
}

fn required_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => {
            eprintln!("{flag} requires an argument");
            exit(2);
        }
    }
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        smoke: false,
        filter: None,
        out_dir: PathBuf::from(DEFAULT_OUT_DIR),
        check: None,
        advisory: false,
        allow_missing: false,
        update_baseline: None,
        trace_out: None,
        log_json: None,
        quiet: false,
        trend: None,
        trend_out: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--filter" => args.filter = Some(required_value(&argv, &mut i, "--filter")),
            "--out" => args.out_dir = PathBuf::from(required_value(&argv, &mut i, "--out")),
            "--check" => args.check = Some(optional_path(&argv, &mut i, DEFAULT_BASELINE)),
            "--advisory" => args.advisory = true,
            "--allow-missing" => args.allow_missing = true,
            "--update-baseline" => {
                args.update_baseline = Some(optional_path(&argv, &mut i, DEFAULT_BASELINE))
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(required_value(&argv, &mut i, "--trace-out")))
            }
            "--log-json" => {
                args.log_json = Some(PathBuf::from(required_value(&argv, &mut i, "--log-json")))
            }
            "--trend" => args.trend = Some(optional_path(&argv, &mut i, DEFAULT_HISTORY_DIR)),
            "--trend-out" => {
                args.trend_out = Some(PathBuf::from(required_value(&argv, &mut i, "--trend-out")))
            }
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}; try --help");
                exit(2);
            }
        }
        i += 1;
    }
    args
}

/// `--trend` mode: fold the committed history series into a trajectory
/// report, print it (and optionally write it), run no benchmarks.
fn run_trend(dir: &PathBuf, out: Option<&PathBuf>) -> ! {
    // A missing or empty history directory is the normal state of a fresh
    // clone (or a CI cache miss), not an error: report it and exit cleanly.
    let history = match trend::load_history(dir) {
        Ok(history) => history,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            eprintln!("could not read history dir {}: {e}", dir.display());
            exit(2);
        }
    };
    if history.is_empty() {
        println!(
            "no history yet: no BENCH_*.json entries in {}; run `make bench` to append one",
            dir.display()
        );
        if let Some(path) = out {
            if let Err(e) = telemetry::write_atomic(path, "no history yet\n") {
                eprintln!("could not write trend report {}: {e}", path.display());
                exit(1);
            }
        }
        exit(0);
    }
    let trends = trend::trends(&history);
    let rendered = trend::render(&trends);
    print!("{rendered}");
    if let Some(path) = out {
        if let Err(e) = telemetry::write_atomic(path, &rendered) {
            eprintln!("could not write trend report {}: {e}", path.display());
            exit(1);
        }
        println!("trend report written: {}", path.display());
    }
    exit(0);
}

fn main() {
    let args = parse();

    if let Some(dir) = &args.trend {
        run_trend(dir, args.trend_out.as_ref());
    }

    if args.quiet {
        telemetry::set_level(telemetry::Level::Off);
    } else if !telemetry::env::is_set("HQNN_LOG") {
        telemetry::set_level(telemetry::Level::Info);
    }
    if let Some(path) = &args.log_json {
        if let Err(e) = telemetry::add_jsonl_sink(path) {
            eprintln!("could not open --log-json file {}: {e}", path.display());
            exit(2);
        }
    }
    if args.trace_out.is_some() {
        telemetry::trace::enable();
    }

    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let profile = if args.smoke {
        "perfbench-smoke"
    } else {
        "perfbench-full"
    };
    let manifest = telemetry::RunManifest::capture(profile)
        .with_config_hash(&(profile, args.filter.as_deref().unwrap_or("")));
    telemetry::event(telemetry::Level::Info, "run.manifest", &manifest.fields());

    let results = run_suite(scale, args.filter.as_deref());
    if results.is_empty() {
        eprintln!(
            "no benchmark matches filter {:?}",
            args.filter.as_deref().unwrap_or("")
        );
        exit(2);
    }
    let report = BenchReport::new(manifest, results);

    print!("{}", report.human_table());

    let out_path = args.out_dir.join(report.file_name());
    match report.save(&out_path) {
        Ok(()) => telemetry::event(
            telemetry::Level::Info,
            "perfbench.report_written",
            &[("path", out_path.display().to_string().into())],
        ),
        Err(e) => {
            eprintln!("could not write {}: {e}", out_path.display());
            exit(1);
        }
    }

    if let Some(path) = &args.update_baseline {
        if let Err(e) = report.save(path) {
            eprintln!("could not write baseline {}: {e}", path.display());
            exit(1);
        }
        println!("baseline updated: {}", path.display());
    }

    let mut failed = false;
    if let Some(baseline_path) = &args.check {
        match BenchReport::load(baseline_path) {
            Ok(baseline) => {
                if baseline.manifest.hostname != report.manifest.hostname
                    || baseline.manifest.cargo_profile != report.manifest.cargo_profile
                {
                    eprintln!(
                        "note: baseline from {}/{} vs current {}/{} — thresholds may not transfer",
                        baseline.manifest.hostname,
                        baseline.manifest.cargo_profile,
                        report.manifest.hostname,
                        report.manifest.cargo_profile,
                    );
                }
                let comparisons = compare(&baseline, &report, &gate::GateConfig::default());
                println!("\nregression gate vs {}:", baseline_path.display());
                print!("{}", gate::render(&comparisons));
                let missing = missing_ids(&comparisons);
                if !missing.is_empty() {
                    println!(
                        "baseline benchmarks missing from this run: {}",
                        missing.join(", ")
                    );
                    if args.allow_missing {
                        println!("missing benchmarks tolerated (--allow-missing)");
                    } else if args.advisory {
                        println!("missing benchmarks detected (advisory mode: not failing)");
                    } else {
                        println!(
                            "missing benchmarks drop baseline coverage; pass --allow-missing to tolerate"
                        );
                        failed = true;
                    }
                }
                if has_regressions(&comparisons) {
                    if args.advisory {
                        println!("regressions detected (advisory mode: not failing)");
                    } else {
                        println!("regressions detected");
                        failed = true;
                    }
                } else if !failed {
                    println!("gate passed");
                }
            }
            Err(e) => {
                eprintln!("could not load baseline {}: {e}", baseline_path.display());
                if !args.advisory {
                    failed = true;
                }
            }
        }
    }

    telemetry::flush();
    if let Some(path) = &args.trace_out {
        if let Err(e) = telemetry::write_atomic(path, telemetry::trace::chrome_trace_json()) {
            eprintln!("could not write trace {}: {e}", path.display());
        }
        let folded = path.with_extension("folded");
        if let Err(e) = telemetry::write_atomic(&folded, telemetry::trace::collapsed_stacks()) {
            eprintln!("could not write {}: {e}", folded.display());
        }
    }
    if telemetry::enabled(telemetry::Level::Error) {
        eprintln!("{}", telemetry::report());
    }
    if failed {
        exit(1);
    }
}
