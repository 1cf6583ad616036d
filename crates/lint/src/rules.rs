//! The rule set: each rule is a pure function over a lexed file plus its
//! workspace context (crate name, path, whether it is binary code).
//!
//! Rules are deny-by-default: a finding is an error unless the offending
//! line carries a `// lint:allow(<rule>): <reason>` annotation. Adding a
//! rule means adding a `Rule` entry to [`RULES`] and a check arm in
//! [`check_file`] — the fixture tests in `tests/fixtures_detect.rs` will
//! refuse to pass until the new rule has a violation/allowed fixture pair.

use crate::lexer::{Lexed, TokKind};
use crate::parse;

/// Crates whose numeric results must be bitwise deterministic: unordered
/// iteration (HashMap/HashSet) and ad-hoc float reductions are banned there.
pub const NUMERIC_CRATES: &[&str] = &["tensor", "qsim", "nn", "search", "autodiff"];

/// Crates allowed to read wall-clock time.
pub const WALLCLOCK_CRATES: &[&str] = &["telemetry"];

/// Crates allowed to branch on thread identity.
pub const THREAD_ID_CRATES: &[&str] = &["runtime"];

/// Crates allowed to use `Ordering::Relaxed` / `Ordering::AcqRel`: the two
/// whose atomics are *infrastructure* (work-stealing cursors, allocation
/// counters) rather than observable program state. Everywhere else the
/// weakest permitted orderings are `Acquire`/`Release`/`SeqCst`.
pub const ATOMIC_CRATES: &[&str] = &["runtime", "alloc"];

/// Crates where RNG construction must flow from a salt-derived seed — the
/// numeric crates plus the layers that build models and datasets from the
/// study's per-combo `(level, rep, combo)` salts.
pub const RNG_CRATES: &[&str] = &["tensor", "qsim", "nn", "search", "autodiff", "core", "data"];

/// Files exempt from `float-fold`: the sanctioned ordered-reduction helpers
/// themselves (they *are* the left folds everything else must call).
pub const ORDERED_FOLD_FILES: &[&str] = &["crates/tensor/src/fold.rs"];

/// Files exempt from `unsalted-rng`: the RNG implementation itself.
pub const RNG_IMPL_FILES: &[&str] = &["crates/tensor/src/rng.rs"];

/// Rules whose `lint:allow` escape suppresses anywhere in the file rather
/// than on one line (the finding has no meaningful line to sit on).
pub const FILE_SCOPED_RULES: &[&str] = &["forbid-unsafe"];

/// Crates exempt from span-name format checking (telemetry itself takes
/// caller-supplied names as arguments).
pub const SPAN_NAMING_EXEMPT: &[&str] = &["telemetry"];

/// The single file allowed to mention unregistered `HQNN_*` names: the
/// registry itself.
pub const REGISTRY_FILE: &str = "crates/telemetry/src/env.rs";

/// Static description of one rule, surfaced by `hqnn-lint --list-rules` and
/// the README table.
pub struct Rule {
    /// Stable kebab-case name used in `lint:allow(...)`.
    pub name: &'static str,
    /// One-line summary of what the rule flags.
    pub summary: &'static str,
    /// Why the invariant matters for this workspace.
    pub rationale: &'static str,
}

/// All rules, in the order findings are reported.
pub const RULES: &[Rule] = &[
    Rule {
        name: "hash-iter",
        summary: "HashMap/HashSet in numeric crates (tensor, qsim, nn, search, autodiff)",
        rationale: "unordered iteration breaks bitwise-deterministic results; use BTreeMap/Vec",
    },
    Rule {
        name: "wall-clock",
        summary: "Instant/SystemTime outside telemetry",
        rationale: "timing reads in numeric code invite time-dependent control flow; route timing through hqnn-telemetry",
    },
    Rule {
        name: "thread-id",
        summary: "thread-identity queries (ThreadId, thread::current().id()) outside runtime",
        rationale: "logic keyed on thread identity breaks the determinism-across-HQNN_THREADS guarantee",
    },
    Rule {
        name: "panic",
        summary: "unwrap/expect/panic!/todo!/unimplemented! in non-test library code",
        rationale: "library code must surface errors as Result; annotated panics document why they are unreachable",
    },
    Rule {
        name: "forbid-unsafe",
        summary: "crate root missing #![forbid(unsafe_code)]",
        rationale: "the workspace is 100% safe Rust; forbid (not deny) makes that unoverridable downstream",
    },
    Rule {
        name: "env-registry",
        summary: "HQNN_* environment variable not present in the central registry",
        rationale: "unregistered names are invisible to env::warn_unknown_vars, so typos (HQNN_THREAD) fail silently",
    },
    Rule {
        name: "span-naming",
        summary: "telemetry span/metric name not matching crate.noun_verb (one dot, lowercase)",
        rationale: "trace tooling groups by the dotted prefix; free-form names fragment profiles",
    },
    Rule {
        name: "float-fold",
        summary: "ad-hoc .sum()/fold/reduce over float iterators in numeric crates",
        rationale: "float addition is non-associative, so re-associated reductions silently break byte-identical results; use hqnn_tensor::fold::ordered_* (or annotate an integer sum with ::<u64>-style turbofish)",
    },
    Rule {
        name: "atomic-ordering",
        summary: "Ordering::Relaxed/AcqRel outside hqnn-runtime and hqnn-alloc",
        rationale: "relaxed atomics make cross-thread visibility schedule-dependent; observable state uses SeqCst (or Acquire/Release), leaving weak orderings to the runtime's own cursors",
    },
    Rule {
        name: "unsalted-rng",
        summary: "RNG built from a literal seed or an entropy source in salted crates",
        rationale: "every stream must flow from the study's salt derivation (SeededRng::split or a config seed) so outcomes stay schedule- and replay-independent",
    },
    Rule {
        name: "stale-allow",
        summary: "lint:allow naming an unknown rule, suppressing nothing, or missing a reason",
        rationale: "dead escapes hide real regressions: an allow that no longer fires would silently swallow the next genuine violation on its line",
    },
];

/// `true` if `name` is a known rule.
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable description with the fix.
    pub message: String,
}

/// Per-file context the engine computes while walking the workspace.
pub struct FileCtx<'a> {
    /// Crate directory name (`qsim`, `telemetry`, …).
    pub crate_name: &'a str,
    /// Path relative to the workspace root, forward slashes.
    pub rel_path: &'a str,
    /// `true` for binary code (`src/main.rs`, `src/bin/*`): exempt from the
    /// panic rule — binaries may crash on startup errors.
    pub is_bin: bool,
    /// `true` when this file is a crate root (`src/lib.rs`) that must carry
    /// `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// Registered HQNN_* names (lexed from [`REGISTRY_FILE`]).
    pub registry: &'a [String],
}

/// Runs every rule over one lexed file, honoring `lint:allow` annotations.
///
/// Raw findings are collected first, then [`apply_allows`] filters them and
/// audits the escapes themselves — an allow naming an unknown rule, an allow
/// whose rule no longer fires on its line, or an allow without a reason is a
/// `stale-allow` finding.
pub fn check_file(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let mut raw = Vec::new();
    check_hash_iter(lexed, ctx, &mut raw);
    check_wall_clock(lexed, ctx, &mut raw);
    check_thread_id(lexed, ctx, &mut raw);
    check_panic(lexed, ctx, &mut raw);
    check_forbid_unsafe(lexed, ctx, &mut raw);
    check_env_registry(lexed, ctx, &mut raw);
    check_span_naming(lexed, ctx, &mut raw);
    check_float_fold(lexed, ctx, &mut raw);
    check_atomic_ordering(lexed, ctx, &mut raw);
    check_unsalted_rng(lexed, ctx, &mut raw);
    apply_allows(lexed, ctx, raw, out);
}

/// Filters `raw` findings through the file's `lint:allow` annotations,
/// scoping each escape to the rules it names, and emits `stale-allow`
/// findings for escapes that are unknown, unused, or reason-less.
pub fn apply_allows(lexed: &Lexed, ctx: &FileCtx<'_>, raw: Vec<Finding>, out: &mut Vec<Finding>) {
    // used[allow_index] — per-rule-name usage so a multi-rule escape is
    // audited per name, not as a block.
    let mut used: Vec<Vec<bool>> = lexed
        .allows
        .iter()
        .map(|a| vec![false; a.rules.len()])
        .collect();
    for f in raw {
        let suppressed = lexed.allows.iter().enumerate().any(|(ai, a)| {
            let scope_ok = FILE_SCOPED_RULES.contains(&f.rule) || a.applies_to == f.line;
            if !scope_ok {
                return false;
            }
            match a.rules.iter().position(|r| r == f.rule) {
                Some(ri) => {
                    used[ai][ri] = true;
                    true
                }
                None => false,
            }
        });
        if !suppressed {
            out.push(f);
        }
    }
    // Audit the escapes themselves. `stale-allow` findings sit on the
    // comment's own line and can only be suppressed by a `stale-allow`
    // escape there (those escapes are exempt from the unused audit to keep
    // the audit from chasing its own tail).
    for (ai, a) in lexed.allows.iter().enumerate() {
        let mut stale: Vec<String> = Vec::new();
        for (ri, rule) in a.rules.iter().enumerate() {
            if !is_rule(rule) {
                stale.push(format!(
                    "`{rule}` is not a rule (see --list-rules); fix or remove the escape"
                ));
            } else if rule != "stale-allow" && !used[ai][ri] {
                stale.push(format!(
                    "escape for `{rule}` suppresses nothing on its line; the code it covered is gone — remove it"
                ));
            }
        }
        if !a.has_reason {
            stale.push(
                "escape has no reason; write `lint:allow(<rule>): <why this is sound>`".to_string(),
            );
        }
        // A stale finding about escape `a` is suppressed by any
        // `lint:allow(stale-allow)` on the same comment line or covering the
        // same code line (stacked standalone comments share an applies_to).
        let suppressed = lexed.allows.iter().any(|b| {
            b.rules.iter().any(|r| r == "stale-allow")
                && (b.line == a.line || (a.applies_to != 0 && b.applies_to == a.applies_to))
        });
        for message in stale {
            if !suppressed {
                out.push(Finding {
                    file: ctx.rel_path.to_string(),
                    line: a.line,
                    rule: "stale-allow",
                    message,
                });
            }
        }
    }
}

fn push(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
    out.push(Finding {
        file: ctx.rel_path.to_string(),
        line,
        rule,
        message,
    });
}

fn check_hash_iter(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !NUMERIC_CRATES.contains(&ctx.crate_name) {
        return;
    }
    for t in &lexed.tokens {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            push(
                ctx,
                out,
                "hash-iter",
                t.line,
                format!(
                    "{} in deterministic numeric crate `{}`; iteration order varies across runs — use BTreeMap/BTreeSet or a Vec",
                    t.text, ctx.crate_name
                ),
            );
        }
    }
}

fn check_wall_clock(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if WALLCLOCK_CRATES.contains(&ctx.crate_name) {
        return;
    }
    for t in &lexed.tokens {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Instant" || t.text == "SystemTime" {
            push(
                ctx,
                out,
                "wall-clock",
                t.line,
                format!(
                    "{} outside telemetry; route timing through hqnn-telemetry spans so numeric code stays time-independent",
                    t.text
                ),
            );
        }
    }
}

fn check_thread_id(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if THREAD_ID_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let hit = t.text == "ThreadId"
            || (t.text == "current" && matches(toks, i + 1, &["(", ")", ".", "id", "("]));
        if hit {
            push(
                ctx,
                out,
                "thread-id",
                t.line,
                format!(
                    "thread-identity query in `{}`; results must not depend on which worker ran the task — pass an explicit task index instead",
                    ctx.crate_name
                ),
            );
        }
    }
}

fn check_panic(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.is_bin {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let method_call = |name: &str| {
            t.text == name && i >= 1 && toks[i - 1].is_punct(".") && matches(toks, i + 1, &["("])
        };
        let macro_call = |name: &str| t.text == name && matches(toks, i + 1, &["!"]);
        let what = if method_call("unwrap") {
            Some(".unwrap()")
        } else if method_call("expect") {
            Some(".expect()")
        } else if macro_call("panic") {
            Some("panic!")
        } else if macro_call("unimplemented") {
            Some("unimplemented!")
        } else if macro_call("todo") {
            Some("todo!")
        } else {
            None
        };
        if let Some(what) = what {
            push(
                ctx,
                out,
                "panic",
                t.line,
                format!(
                    "{what} in library code; return a Result, or annotate with `// lint:allow(panic): <why this is unreachable>`"
                ),
            );
        }
    }
}

fn check_forbid_unsafe(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.is_crate_root {
        return;
    }
    let toks = &lexed.tokens;
    let has = toks.iter().enumerate().any(|(i, t)| {
        t.is_punct("#")
            && matches(
                toks,
                i + 1,
                &["!", "[", "forbid", "(", "unsafe_code", ")", "]"],
            )
    });
    if !has {
        // File-scoped rule: apply_allows suppresses on any line.
        push(
            ctx,
            out,
            "forbid-unsafe",
            1,
            "crate root missing `#![forbid(unsafe_code)]`; every workspace crate must forbid unsafe"
                .to_string(),
        );
    }
}

fn check_env_registry(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.rel_path == REGISTRY_FILE {
        return;
    }
    for t in &lexed.tokens {
        if t.in_test || t.kind != TokKind::Str {
            continue;
        }
        if !is_env_name(&t.text) {
            continue;
        }
        if !ctx.registry.iter().any(|r| r == &t.text) {
            push(
                ctx,
                out,
                "env-registry",
                t.line,
                format!(
                    "`{}` is not in the central registry ({REGISTRY_FILE}); register it so warn_unknown_vars can catch typos",
                    t.text
                ),
            );
        }
    }
}

/// `true` for a plausible HQNN env-var name: `HQNN_` followed by at least
/// one `[A-Z0-9_]` character and nothing else. The bare prefix `"HQNN_"`
/// (used in scanning code) does not count.
pub fn is_env_name(s: &str) -> bool {
    let Some(rest) = s.strip_prefix("HQNN_") else {
        return false;
    };
    !rest.is_empty()
        && rest
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

fn check_span_naming(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if SPAN_NAMING_EXEMPT.contains(&ctx.crate_name) {
        return;
    }
    const EMITTERS: &[&str] = &["span", "event", "counter", "gauge", "gauge_max"];
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident || !EMITTERS.contains(&t.text.as_str()) {
            continue;
        }
        // Skip definitions (`fn span(...)`) and field positions
        // (`counter: u64`) that are not calls. A *single* preceding colon is
        // a field; `::` lexes as two `:` tokens, so path-qualified calls
        // like `telemetry::counter("…")` must still be checked.
        if i >= 1 && toks[i - 1].is_ident("fn") {
            continue;
        }
        if i >= 1 && toks[i - 1].is_punct(":") && !(i >= 2 && toks[i - 2].is_punct(":")) {
            continue;
        }
        if !matches(toks, i + 1, &["("]) {
            continue;
        }
        // First string literal among the next few tokens is the name
        // argument; calls that build names dynamically are not checked.
        let Some(name_tok) = toks[i + 2..]
            .iter()
            .take(4)
            .find(|n| n.kind == TokKind::Str)
        else {
            continue;
        };
        if !is_span_name(&name_tok.text) {
            push(
                ctx,
                out,
                "span-naming",
                name_tok.line,
                format!(
                    "telemetry name `{}` does not match `crate.noun_verb` (lowercase, exactly one dot)",
                    name_tok.text
                ),
            );
        }
    }
}

fn check_float_fold(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !NUMERIC_CRATES.contains(&ctx.crate_name) || ORDERED_FOLD_FILES.contains(&ctx.rel_path) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if !(name == "sum" || name == "fold" || name == "reduce") {
            continue;
        }
        if !parse::is_method_call(toks, i) {
            continue;
        }
        let turbofish = parse::turbofish_idents(toks, i);
        let chain = parse::receiver_chain(toks, i);
        let chain_iterates = chain.iter().any(|m| parse::ITERATOR_ADAPTERS.contains(m));
        if name == "sum" {
            if turbofish.iter().any(|id| *id == "f64" || *id == "f32") {
                push(
                    ctx,
                    out,
                    "float-fold",
                    t.line,
                    format!(
                        ".sum::<{}>() re-associates under par_map; use hqnn_tensor::fold::ordered_sum_f64 so the grouping is pinned left-to-right",
                        turbofish.join(", ")
                    ),
                );
                continue;
            }
            if !turbofish.is_empty() {
                continue; // explicitly integer (or exotic) — fine
            }
            if !chain_iterates {
                continue; // `m.sum()` — a container method, not a reduction
            }
            // Bare `.sum()` over an iterator: its element type is invisible
            // at token level, so demand visible integer evidence; ambiguity
            // is a violation (annotate or use the ordered helpers).
            let stmt = parse::statement_context(toks, i, 60);
            // Integer evidence wins over float evidence: a statement-local
            // `: u64` ascription is deliberate, while a stray `f64` may come
            // from the enclosing signature (e.g. an int count summed inside
            // a fn returning f64).
            if parse::has_int_evidence(stmt.iter().copied()) {
                continue;
            }
            if parse::has_float_evidence(stmt.iter().copied()) {
                push(
                    ctx,
                    out,
                    "float-fold",
                    t.line,
                    "float .sum() over an iterator re-associates under par_map; use hqnn_tensor::fold::ordered_sum_f64".to_string(),
                );
            } else {
                push(
                    ctx,
                    out,
                    "float-fold",
                    t.line,
                    "bare .sum() with no visible element type; annotate an integer sum with ::<u64>-style turbofish, or use hqnn_tensor::fold for floats".to_string(),
                );
            }
            continue;
        }
        // fold / reduce: flag only reductions whose arguments carry float
        // evidence (identity literal, f64/f32, ±INFINITY, complex C64) —
        // structural folds over non-numeric accumulators are fine.
        if !chain_iterates {
            continue;
        }
        let Some(open) = parse::call_open_paren(toks, i) else {
            continue;
        };
        let close = parse::matching_close(toks, open);
        if parse::has_float_evidence(toks[open..=close].iter()) {
            push(
                ctx,
                out,
                "float-fold",
                t.line,
                format!(
                    ".{name}() over float values re-associates under par_map; use the left folds in hqnn_tensor::fold (ordered_sum / ordered_max_f64 / …)"
                ),
            );
        }
    }
}

fn check_atomic_ordering(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ATOMIC_CRATES.contains(&ctx.crate_name) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        if t.text != "Relaxed" && t.text != "AcqRel" {
            continue;
        }
        // Only the path form `Ordering::Relaxed` counts — a stray ident
        // named Relaxed (or a doc string) is not an ordering choice.
        let is_path = i >= 3
            && toks[i - 1].is_punct(":")
            && toks[i - 2].is_punct(":")
            && toks[i - 3].is_ident("Ordering");
        if !is_path {
            continue;
        }
        push(
            ctx,
            out,
            "atomic-ordering",
            t.line,
            format!(
                "Ordering::{} in `{}`; weak orderings are reserved for runtime/alloc infrastructure — use SeqCst (or Acquire/Release), or annotate a proven-hot flag load",
                t.text, ctx.crate_name
            ),
        );
    }
}

fn check_unsalted_rng(lexed: &Lexed, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !RNG_CRATES.contains(&ctx.crate_name) || RNG_IMPL_FILES.contains(&ctx.rel_path) {
        return;
    }
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        // Entropy-based construction is never deterministic.
        if (t.text == "from_entropy" || t.text == "thread_rng" || t.text == "OsRng")
            && matches(toks, i + 1, &["("])
        {
            push(
                ctx,
                out,
                "unsalted-rng",
                t.line,
                format!(
                    "`{}` draws nondeterministic entropy; every stream must derive from the study seed via SeededRng::split",
                    t.text
                ),
            );
            continue;
        }
        // `SeededRng::new(<literal>)`: a hard-coded seed bypasses the salt
        // derivation, so two call sites can silently share a stream.
        if t.text == "new"
            && i >= 3
            && toks[i - 1].is_punct(":")
            && toks[i - 2].is_punct(":")
            && toks[i - 3].is_ident("SeededRng")
        {
            let Some(open) = parse::call_open_paren(toks, i) else {
                continue;
            };
            let close = parse::matching_close(toks, open);
            let args = &toks[open + 1..close];
            let literal_only = !args.is_empty()
                && args
                    .iter()
                    .all(|a| a.kind == TokKind::Number || a.is_punct("-") || a.is_punct("+"));
            if literal_only {
                push(
                    ctx,
                    out,
                    "unsalted-rng",
                    t.line,
                    "SeededRng::new(<literal>) does not flow from the salt derivation; pass a config seed or derive the stream with .split(salt)".to_string(),
                );
            }
        }
    }
}

/// `true` for a well-formed telemetry name: `seg.seg` where each segment is
/// `[a-z][a-z0-9_]*` and there is exactly one dot.
pub fn is_span_name(s: &str) -> bool {
    let mut parts = s.split('.');
    let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
        return false;
    };
    let seg_ok = |seg: &str| {
        seg.as_bytes()
            .first()
            .is_some_and(|c| c.is_ascii_lowercase())
            && seg
                .bytes()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_')
    };
    seg_ok(a) && seg_ok(b)
}

/// `true` when the tokens starting at `from` match `pattern` texts exactly
/// (kind-insensitive; used for punctuation/ident sequences).
fn matches(toks: &[crate::lexer::Tok], from: usize, pattern: &[&str]) -> bool {
    pattern
        .iter()
        .enumerate()
        .all(|(k, p)| toks.get(from + k).is_some_and(|t| t.text == *p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx<'a>(crate_name: &'a str, rel_path: &'a str, registry: &'a [String]) -> FileCtx<'a> {
        FileCtx {
            crate_name,
            rel_path,
            is_bin: false,
            is_crate_root: false,
            registry,
        }
    }

    fn run(src: &str, ctx: &FileCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        check_file(&lex(src), ctx, &mut out);
        out
    }

    #[test]
    fn hash_iter_only_in_numeric_crates() {
        let src = "use std::collections::HashMap;\n";
        let reg: Vec<String> = Vec::new();
        assert_eq!(
            run(src, &ctx("qsim", "crates/qsim/src/x.rs", &reg)).len(),
            1
        );
        assert_eq!(
            run(src, &ctx("telemetry", "crates/telemetry/src/x.rs", &reg)).len(),
            0
        );
    }

    #[test]
    fn panic_rule_exempts_tests_and_bins() {
        let reg: Vec<String> = Vec::new();
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }\n";
        let findings = run(src, &ctx("qsim", "crates/qsim/src/x.rs", &reg));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 1);

        let mut c = ctx("qsim", "crates/qsim/src/bin/tool.rs", &reg);
        c.is_bin = true;
        assert_eq!(run(src, &c).len(), 0);
    }

    #[test]
    fn panic_rule_ignores_non_call_uses() {
        let reg: Vec<String> = Vec::new();
        // `unwrap_or` / field named panic / `panic` without `!` are fine.
        let src = "fn f() { x.unwrap_or(0); let panic = 1; s.expect_err(\"e\"); }\n";
        assert_eq!(
            run(src, &ctx("qsim", "crates/qsim/src/x.rs", &reg)).len(),
            0
        );
    }

    #[test]
    fn thread_id_sequence_detection() {
        let reg: Vec<String> = Vec::new();
        let src = "fn f() { let id = std::thread::current().id(); }\n";
        assert_eq!(run(src, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 1);
        assert_eq!(
            run(src, &ctx("runtime", "crates/runtime/src/x.rs", &reg)).len(),
            0
        );
        // `current()` without `.id()` is fine.
        let benign = "fn f() { let t = std::thread::current(); name(&t); }\n";
        assert_eq!(run(benign, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 0);
    }

    #[test]
    fn env_registry_checks_string_literals() {
        let reg = vec!["HQNN_LOG".to_string()];
        let good = "fn f() { var(\"HQNN_LOG\"); }\n";
        assert_eq!(run(good, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 0);
        let typo = "fn f() { var(\"HQNN_LGO\"); }\n";
        let findings = run(typo, &ctx("nn", "crates/nn/src/x.rs", &reg));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("HQNN_LGO"));
        // The bare prefix used by scanning code is not an env name.
        let prefix = "fn f() { s.starts_with(\"HQNN_\"); }\n";
        assert_eq!(run(prefix, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 0);
    }

    #[test]
    fn span_naming_shapes() {
        assert!(is_span_name("qsim.state_apply"));
        assert!(is_span_name("search.trial_run"));
        assert!(!is_span_name("no_dot"));
        assert!(!is_span_name("two.dots.here"));
        assert!(!is_span_name("Upper.case"));
        assert!(!is_span_name("qsim."));
        let reg: Vec<String> = Vec::new();
        let bad = "fn f(t: &Telemetry) { t.span(\"badname\"); }\n";
        assert_eq!(run(bad, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 1);
        let good = "fn f(t: &Telemetry) { t.span(\"nn.forward_pass\"); }\n";
        assert_eq!(run(good, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 0);
        // Declaring a fn named span is not a call site.
        let decl = "fn span(&self, name: &str) {}\n";
        assert_eq!(run(decl, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 0);
        // Path-qualified metric calls are call sites: `::` lexes as two `:`
        // tokens and must not be skipped as a field position.
        let qualified = "fn f() { telemetry::counter(\"BadName\", 1); }\n";
        assert_eq!(
            run(qualified, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(),
            1
        );
        let qualified_ok = "fn f() { telemetry::gauge_max(\"nn.grad_peak\", x); }\n";
        assert_eq!(
            run(qualified_ok, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(),
            0
        );
        // A lone colon before the ident (type/field position) still skips.
        let field = "fn f(kind: counter) { other(kind); }\n";
        assert_eq!(run(field, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 0);
    }

    #[test]
    fn forbid_unsafe_detects_presence_and_absence() {
        let reg: Vec<String> = Vec::new();
        let mut c = ctx("foo", "crates/foo/src/lib.rs", &reg);
        c.is_crate_root = true;
        let with = "#![forbid(unsafe_code)]\nfn f() {}\n";
        assert_eq!(run(with, &c).len(), 0);
        let without = "fn f() {}\n";
        let findings = run(without, &c);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "forbid-unsafe");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn allow_annotation_suppresses() {
        let reg: Vec<String> = Vec::new();
        let src = "fn f() { x.unwrap(); } // lint:allow(panic): invariant upheld by caller\n";
        assert_eq!(
            run(src, &ctx("qsim", "crates/qsim/src/x.rs", &reg)).len(),
            0
        );
    }

    #[test]
    fn float_fold_flags_float_reductions_only() {
        let reg: Vec<String> = Vec::new();
        let qsim = ctx("qsim", "crates/qsim/src/x.rs", &reg);
        let hits = |src: &str| {
            run(src, &qsim)
                .iter()
                .filter(|f| f.rule == "float-fold")
                .count()
        };
        assert_eq!(hits("fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }"), 1);
        assert_eq!(
            hits("fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }"),
            1
        );
        assert_eq!(
            hits("fn f(v: &[X]) -> X { v.iter().map(|x| x.w()).sum() }"),
            1,
            "ambiguous bare sum over an iterator is a violation"
        );
        assert_eq!(hits("fn f(v: &[u64]) -> u64 { v.iter().sum::<u64>() }"), 0);
        assert_eq!(
            hits("fn f(v: &[u64]) -> u64 { let t: u64 = v.iter().sum(); t }"),
            0
        );
        assert_eq!(
            hits("fn f(m: &Matrix) -> f64 { m.sum() }"),
            0,
            "container method"
        );
        // Out-of-scope crate and the sanctioned helper file are exempt.
        let telemetry = ctx("telemetry", "crates/telemetry/src/x.rs", &reg);
        assert_eq!(
            run(
                "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }",
                &telemetry
            )
            .len(),
            0
        );
        let fold_file = ctx("tensor", "crates/tensor/src/fold.rs", &reg);
        assert_eq!(
            run(
                "pub fn ordered_sum_f64(it: I) -> f64 { it.fold(0.0, |a, x| a + x) }",
                &fold_file
            )
            .len(),
            0
        );
    }

    #[test]
    fn atomic_ordering_scoped_to_infrastructure_crates() {
        let reg: Vec<String> = Vec::new();
        let src = "fn f(c: &AtomicUsize) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(run(src, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 1);
        assert_eq!(
            run(src, &ctx("runtime", "crates/runtime/src/x.rs", &reg)).len(),
            0
        );
        assert_eq!(
            run(src, &ctx("alloc", "crates/alloc/src/x.rs", &reg)).len(),
            0
        );
        let acqrel = "fn f(c: &AtomicUsize) { c.swap(1, Ordering::AcqRel); }\n";
        assert_eq!(run(acqrel, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 1);
        let seqcst = "fn f(c: &AtomicUsize) { c.load(Ordering::SeqCst); }\n";
        assert_eq!(run(seqcst, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 0);
        // A stray ident named Relaxed without the Ordering:: path is fine.
        let stray = "fn f() { let Relaxed = 1; }\n";
        assert_eq!(run(stray, &ctx("nn", "crates/nn/src/x.rs", &reg)).len(), 0);
    }

    #[test]
    fn unsalted_rng_requires_flowing_seeds() {
        let reg: Vec<String> = Vec::new();
        let search = ctx("search", "crates/search/src/x.rs", &reg);
        assert_eq!(run("fn f() { SeededRng::new(42); }", &search).len(), 1);
        assert_eq!(
            run("fn f() { SeededRng::from_entropy(); }", &search).len(),
            1
        );
        assert_eq!(run("fn f(s: u64) { SeededRng::new(s); }", &search).len(), 0);
        assert_eq!(
            run(
                "fn f(c: &Cfg) { SeededRng::new(c.seed).split(3); }",
                &search
            )
            .len(),
            0,
            "salt flows from config"
        );
        // Out-of-scope crates (telemetry) and the RNG impl file are exempt.
        assert_eq!(
            run(
                "fn f() { SeededRng::new(42); }",
                &ctx("telemetry", "crates/telemetry/src/x.rs", &reg)
            )
            .len(),
            0
        );
        assert_eq!(
            run(
                "fn f() { SeededRng::new(42); }",
                &ctx("tensor", "crates/tensor/src/rng.rs", &reg)
            )
            .len(),
            0
        );
    }

    #[test]
    fn stale_allow_audits_escapes() {
        let reg: Vec<String> = Vec::new();
        let qsim = ctx("qsim", "crates/qsim/src/x.rs", &reg);
        // Unknown rule name.
        let unknown = "// lint:allow(no-such-rule): whatever\nfn f() {}\n";
        let findings = run(unknown, &qsim);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "stale-allow");
        assert_eq!(findings[0].line, 1, "finding sits on the comment line");
        // Live escape with a reason: clean.
        let live = "fn f() { x.unwrap(); } // lint:allow(panic): caller guarantees Some\n";
        assert_eq!(run(live, &qsim).len(), 0);
        // Escape whose violation is gone: stale.
        let dead = "fn f() { x.unwrap_or(0); } // lint:allow(panic): outdated\n";
        let findings = run(dead, &qsim);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("suppresses nothing"));
        // Live escape without a reason: flagged.
        let bare = "fn f() { x.unwrap(); } // lint:allow(panic)\n";
        let findings = run(bare, &qsim);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("no reason"));
        // Multi-rule escape audited per name: panic live, hash-iter dead.
        let multi = "fn f() { x.unwrap(); } // lint:allow(panic, hash-iter): both named\n";
        let findings = run(multi, &qsim);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("hash-iter"));
    }

    #[test]
    fn allow_scope_is_per_rule_on_shared_lines() {
        let reg: Vec<String> = Vec::new();
        let nn = ctx("nn", "crates/nn/src/x.rs", &reg);
        // Instant and unwrap on one line; escape names only panic.
        let src = "fn f() { let t = Instant::now(); x.unwrap(); } // lint:allow(panic): scoped\n";
        let findings = run(src, &nn);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "wall-clock");
    }

    #[test]
    fn rule_table_is_consistent() {
        assert!(is_rule("panic") && is_rule("hash-iter") && !is_rule("nonsense"));
        // Names are kebab-case and unique.
        for (i, r) in RULES.iter().enumerate() {
            assert!(r.name.bytes().all(|b| b.is_ascii_lowercase() || b == b'-'));
            assert!(!RULES[i + 1..].iter().any(|o| o.name == r.name));
        }
    }
}
