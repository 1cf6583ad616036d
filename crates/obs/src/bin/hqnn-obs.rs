//! `hqnn-obs` — trace analysis for hqnn JSONL telemetry logs.
//!
//! ```text
//! hqnn-obs critical-path trace.jsonl
//! hqnn-obs tree trace.jsonl
//! hqnn-obs diff baseline.jsonl current.jsonl
//! hqnn-obs grep trace.jsonl event=span level=debug
//! hqnn-obs flamegraph-diff baseline.jsonl current.jsonl --weight bytes
//! ```

use hqnn_obs::{critical_path, diff, flamegraph_diff, grep, tree, Filter, FlameWeight, Trace};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: hqnn-obs <subcommand> [args]\n\
     \n\
     subcommands:\n\
     \x20 critical-path <trace.jsonl>              longest causal span chain with per-hop self time\n\
     \x20 tree <trace.jsonl>                       span tree with p50/p95/p99, alloc columns, counters\n\
     \x20 diff <a.jsonl> <b.jsonl>                 per-span-path median deltas with a MAD noise band\n\
     \x20 grep <trace.jsonl> key=value [key=value ...]\n\
     \x20                                          filter events; emits matching JSONL lines\n\
     \x20 flamegraph-diff <a.jsonl> <b.jsonl> [--weight time|bytes]\n\
     \x20                                          collapsed stacks with base/current self weights";

fn load(path: &str) -> Result<Trace, String> {
    Trace::load(Path::new(path)).map_err(|e| e.to_string())
}

fn run(argv: &[String]) -> Result<String, String> {
    let sub = argv.first().map(String::as_str).ok_or(USAGE)?;
    match (sub, &argv[1..]) {
        ("critical-path", [trace]) => Ok(critical_path(&load(trace)?)),
        ("tree", [trace]) => Ok(tree(&load(trace)?)),
        ("diff", [a, b]) => Ok(diff(&load(a)?, &load(b)?)),
        ("grep", [trace, specs @ ..]) if !specs.is_empty() => {
            let filters = specs
                .iter()
                .map(|s| Filter::parse(s).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            grep(&load(trace)?, &filters).map_err(|e| e.to_string())
        }
        ("flamegraph-diff", rest) => {
            let mut paths = Vec::new();
            let mut weight = FlameWeight::TimeUs;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                if arg == "--weight" {
                    let raw = it.next().ok_or("--weight needs a value (time|bytes)")?;
                    weight = FlameWeight::parse(raw)
                        .ok_or_else(|| format!("unknown weight {raw:?} (time|bytes)"))?;
                } else {
                    paths.push(arg.clone());
                }
            }
            match paths.as_slice() {
                [a, b] => Ok(flamegraph_diff(&load(a)?, &load(b)?, weight)),
                _ => Err(USAGE.to_string()),
            }
        }
        ("--help" | "-h" | "help", _) => Ok(format!("{USAGE}\n")),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("hqnn-obs: {msg}");
            ExitCode::from(2)
        }
    }
}
