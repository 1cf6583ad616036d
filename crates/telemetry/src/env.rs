//! Central registry and parsers for `HQNN_*` environment variables.
//!
//! Every knob this workspace reads from the environment is declared in
//! [`REGISTRY`], and every read goes through [`var`]/[`is_set`]. That buys
//! three things:
//!
//! 1. **One source of truth.** The accepted spellings and semantics of each
//!    variable live next to its name, so `--help`-style tooling and docs can
//!    enumerate them (see [`REGISTRY`]).
//! 2. **Typo detection.** The first read scans the process environment for
//!    `HQNN_*` names that are *not* registered and emits a loud
//!    `env.unknown_var` event naming the closest registered variable —
//!    `HQNN_THREAD=8` used to silently run with default parallelism; now it
//!    suggests `HQNN_THREADS`.
//! 3. **Static enforcement.** `hqnn-lint`'s `env-registry` rule checks that
//!    every `"HQNN_*"` string literal in the workspace appears in this
//!    file's registry, so a new knob cannot be added without declaring it
//!    here (and a typo'd name in code cannot compile past CI).
//!
//! This module lives in `hqnn-telemetry` because that is the root of the
//! workspace dependency graph (everything else depends on it); `hqnn-core`
//! re-exports it as `hqnn_core::env` for downstream users.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::{event, Level};

/// One registered environment variable: its name, what it does, and the
/// values it accepts.
#[derive(Copy, Clone, Debug)]
pub struct EnvVar {
    /// The variable name (always `HQNN_`-prefixed).
    pub name: &'static str,
    /// One-line description of what the variable controls.
    pub purpose: &'static str,
    /// Human-readable description of accepted values.
    pub accepted: &'static str,
}

/// Every `HQNN_*` environment variable the workspace reads. `hqnn-lint`
/// checks all `"HQNN_*"` string literals in the workspace against this list.
pub const REGISTRY: &[EnvVar] = &[
    EnvVar {
        name: "HQNN_LOG",
        purpose: "console log level for telemetry events",
        accepted: "off|error|warn|info|debug|trace",
    },
    EnvVar {
        name: "HQNN_THREADS",
        purpose: "thread budget for the deterministic parallel runtime",
        accepted: "positive integer",
    },
    EnvVar {
        name: "HQNN_HEALTH",
        purpose: "training-health sentinel action on NaN/Inf loss or exploding gradients",
        accepted: "off|warn|abort (default warn)",
    },
    EnvVar {
        name: "HQNN_ALLOC",
        purpose:
            "opt-in allocation counting attributed to spans (counting only; numerics untouched)",
        accepted: "1|true|on to enable; anything else (or unset) disables",
    },
];

/// What the training-health sentinels do when a monitor trips
/// (`HQNN_HEALTH`). The checks themselves never alter training numerics —
/// the action only controls whether a violation is reported or fatal.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HealthAction {
    /// Monitors disabled entirely.
    Off,
    /// Emit an `*.health_*` error event and keep training (default).
    Warn,
    /// Emit the event, then panic — fail fast instead of polluting results.
    Abort,
}

/// Parses an `HQNN_HEALTH` value, or `None` when invalid.
pub fn parse_health(raw: &str) -> Option<HealthAction> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => Some(HealthAction::Off),
        "warn" => Some(HealthAction::Warn),
        "abort" => Some(HealthAction::Abort),
        _ => None,
    }
}

/// `true` when `name` is declared in [`REGISTRY`].
pub fn is_registered(name: &str) -> bool {
    REGISTRY.iter().any(|v| v.name == name)
}

/// Reads a registered `HQNN_*` variable from the environment. The first
/// call (of any read in this module) also scans the environment for unknown
/// `HQNN_*` names and warns about each one.
///
/// # Panics
///
/// Debug builds panic when `name` is not in [`REGISTRY`] — register the
/// variable instead of reading it ad hoc.
pub fn var(name: &str) -> Option<String> {
    debug_assert!(
        is_registered(name),
        "{name} is not in hqnn_telemetry::env::REGISTRY; declare it there before reading it"
    );
    warn_unknown_vars();
    std::env::var(name).ok()
}

/// `true` when the registered variable is present in the environment (with
/// any value). Same registration contract as [`var`].
pub fn is_set(name: &str) -> bool {
    debug_assert!(
        is_registered(name),
        "{name} is not in hqnn_telemetry::env::REGISTRY; declare it there before reading it"
    );
    warn_unknown_vars();
    std::env::var_os(name).is_some()
}

/// Parses a boolean opt-in flag: `1`/`true`/`on` (case-insensitive,
/// whitespace-trimmed) enable, anything else disables.
pub fn parse_flag(raw: &str) -> bool {
    matches!(
        raw.trim().to_ascii_lowercase().as_str(),
        "1" | "true" | "on"
    )
}

/// Parses a thread budget: a positive integer, or `None` when invalid.
pub fn parse_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// The machine's available parallelism (≥ 1), the fallback when
/// `HQNN_THREADS` is unset.
pub fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Scans the process environment for `HQNN_*` variables that are not in
/// [`REGISTRY`] and emits one `env.unknown_var` error event per offender,
/// naming the closest registered variable when one is plausibly intended.
/// Runs at most once per process; later calls are free.
pub fn warn_unknown_vars() {
    // An atomic swap (not a OnceLock) so the re-entrant call made while
    // emitting the events (event → init → var("HQNN_LOG") → here) returns
    // immediately instead of deadlocking on its own initialisation.
    static SCANNED: AtomicBool = AtomicBool::new(false);
    if SCANNED.swap(true, Ordering::SeqCst) {
        return;
    }
    let mut unknown: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| {
            let key = key.to_string_lossy().into_owned();
            (key.starts_with("HQNN_") && !is_registered(&key)).then_some(key)
        })
        .collect();
    unknown.sort();
    for name in unknown {
        let hint = match closest_registered(&name) {
            Some(suggestion) => format!("did you mean {suggestion}?"),
            None => format!(
                "not a recognised variable; known: {}",
                registered_names().join(", ")
            ),
        };
        event(
            Level::Error,
            "env.unknown_var",
            &[("var", name.into()), ("hint", hint.into())],
        );
    }
}

/// The registered variable names, in declaration order.
pub fn registered_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|v| v.name).collect()
}

/// The registered name within Levenshtein distance 2 of `name`, if any
/// (ties broken by declaration order).
fn closest_registered(name: &str) -> Option<&'static str> {
    REGISTRY
        .iter()
        .map(|v| (v.name, edit_distance(name, v.name)))
        .filter(|&(_, d)| d <= 2)
        .min_by_key(|&(_, d)| d)
        .map(|(n, _)| n)
}

/// Plain Levenshtein distance over bytes (env names are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_declares_the_known_knobs() {
        assert!(is_registered("HQNN_LOG"));
        assert!(is_registered("HQNN_THREADS"));
        assert!(is_registered("HQNN_HEALTH"));
        assert!(is_registered("HQNN_ALLOC"));
        assert!(!is_registered("HQNN_THREAD"));
        assert_eq!(REGISTRY.len(), 4, "a new knob must earn its place");
        assert!(REGISTRY.iter().all(|v| v.name.starts_with("HQNN_")));
    }

    #[test]
    fn registry_names_are_unique() {
        // hqnn-lint's `load_registry` refuses duplicate entries outright (a
        // shadowed copy would let the did-you-mean hint point at a stale
        // declaration); this guards the real registry against ever
        // tripping that error.
        let mut names: Vec<&str> = REGISTRY.iter().map(|v| v.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "REGISTRY lists a name twice");
    }

    #[test]
    fn health_parsing_accepts_documented_spellings() {
        assert_eq!(parse_health("off"), Some(HealthAction::Off));
        assert_eq!(parse_health("0"), Some(HealthAction::Off));
        assert_eq!(parse_health("warn"), Some(HealthAction::Warn));
        assert_eq!(parse_health(" ABORT "), Some(HealthAction::Abort));
        assert_eq!(parse_health("panic"), None);
        assert_eq!(parse_health(""), None);
    }

    #[test]
    fn flag_parsing_accepts_documented_spellings() {
        for on in ["1", "true", "on", " TRUE ", "On"] {
            assert!(parse_flag(on), "{on:?} should enable");
        }
        for off in ["0", "false", "off", "", "yes", "2"] {
            assert!(!parse_flag(off), "{off:?} should disable");
        }
    }

    #[test]
    fn thread_parsing_requires_positive_integer() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("four"), None);
        assert!(hardware_parallelism() >= 1);
    }

    #[test]
    fn typo_suggestions_find_the_nearest_name() {
        assert_eq!(closest_registered("HQNN_THREAD"), Some("HQNN_THREADS"));
        assert_eq!(closest_registered("HQNN_LGO"), Some("HQNN_LOG"));
        // The satellite case from the issue: a dropped letter still maps home.
        assert_eq!(closest_registered("HQNN_HEALT"), Some("HQNN_HEALTH"));
        assert_eq!(closest_registered("HQNN_ALOC"), Some("HQNN_ALLOC"));
        assert_eq!(closest_registered("HQNN_ALLOCS"), Some("HQNN_ALLOC"));
        assert_eq!(closest_registered("HQNN_COMPLETELY_ELSE"), None);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abcd", "acd"), 1);
    }

    #[test]
    fn registered_reads_do_not_panic() {
        // Whatever the ambient environment, reading registered names is fine.
        let _ = var("HQNN_LOG");
        let _ = is_set("HQNN_ALLOC");
        let _ = var("HQNN_THREADS");
    }
}
