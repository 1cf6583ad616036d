//! Fixture corpus test: every rule must catch its seeded violation fixture
//! and must pass the `lint:allow`-annotated twin. A rule added to RULES
//! without a fixture pair fails `every_rule_has_a_fixture_pair`, so the
//! corpus can never silently fall behind the rule set.

use std::path::{Path, PathBuf};

use hqnn_lint::engine::lint_file;
use hqnn_lint::RULES;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Per-rule fixture context: the crate identity each fixture is linted as.
/// Violations must trigger under these contexts; the annotated twins must
/// not, under the same contexts.
fn fixture_ctx(rule: &str) -> (&'static str, bool, bool) {
    // (crate_name, is_bin, is_crate_root)
    match rule {
        "hash-iter" => ("qsim", false, false),
        "wall-clock" => ("nn", false, false),
        "thread-id" => ("search", false, false),
        "panic" => ("tensor", false, false),
        "forbid-unsafe" => ("qsim", false, true),
        "env-registry" => ("runtime", false, false),
        "span-naming" => ("nn", false, false),
        "float-fold" => ("qsim", false, false),
        "atomic-ordering" => ("nn", false, false),
        "unsalted-rng" => ("search", false, false),
        "stale-allow" => ("qsim", false, false),
        other => panic!("no fixture context for rule {other}"),
    }
}

fn registry() -> Vec<String> {
    vec![
        "HQNN_LOG".to_string(),
        "HQNN_THREADS".to_string(),
        "HQNN_BATCH".to_string(),
        "HQNN_HEALTH".to_string(),
        "HQNN_ALLOC".to_string(),
    ]
}

#[test]
fn every_rule_has_a_fixture_pair() {
    for rule in RULES {
        let stem = rule.name.replace('-', "_");
        for suffix in ["violation", "allowed"] {
            let path = fixtures_dir().join(format!("{stem}_{suffix}.rs"));
            assert!(
                path.is_file(),
                "rule `{}` is missing fixture {}; every rule needs a violation + allowed pair",
                rule.name,
                path.display()
            );
        }
    }
}

#[test]
fn every_violation_fixture_is_detected() {
    let reg = registry();
    for rule in RULES {
        let stem = rule.name.replace('-', "_");
        let path = fixtures_dir().join(format!("{stem}_violation.rs"));
        let (crate_name, is_bin, is_root) = fixture_ctx(rule.name);
        let findings = lint_file(&path, crate_name, is_bin, is_root, &reg)
            .unwrap_or_else(|e| panic!("lint {}: {e}", path.display()));
        assert!(
            findings.iter().any(|f| f.rule == rule.name),
            "rule `{}` did not fire on its violation fixture; findings: {:?}",
            rule.name,
            findings
        );
    }
}

#[test]
fn every_allowed_fixture_passes() {
    let reg = registry();
    for rule in RULES {
        let stem = rule.name.replace('-', "_");
        let path = fixtures_dir().join(format!("{stem}_allowed.rs"));
        let (crate_name, is_bin, is_root) = fixture_ctx(rule.name);
        let findings = lint_file(&path, crate_name, is_bin, is_root, &reg)
            .unwrap_or_else(|e| panic!("lint {}: {e}", path.display()));
        let residual: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == rule.name || f.rule == "stale-allow")
            .collect();
        assert!(
            residual.is_empty(),
            "annotated fixture for `{}` still produced findings: {residual:?}",
            rule.name
        );
    }
}

#[test]
fn allow_escapes_are_scoped_to_the_named_rule() {
    // One line, two violations of different rules: an escape naming only
    // `panic` must leave the wall-clock finding standing…
    let reg = registry();
    let path = fixtures_dir().join("allow_scope_violation.rs");
    let findings = lint_file(&path, "nn", false, false, &reg).expect("lint");
    assert!(
        !findings.iter().any(|f| f.rule == "panic"),
        "named rule should be suppressed: {findings:?}"
    );
    assert_eq!(
        findings.iter().filter(|f| f.rule == "wall-clock").count(),
        1,
        "unnamed rule must still fire: {findings:?}"
    );
    assert!(
        !findings.iter().any(|f| f.rule == "stale-allow"),
        "the panic escape is live, not stale: {findings:?}"
    );

    // …and naming both rules silences the whole line.
    let path = fixtures_dir().join("allow_scope_allowed.rs");
    let findings = lint_file(&path, "nn", false, false, &reg).expect("lint");
    assert!(
        findings.is_empty(),
        "dual-rule escape should clear the line: {findings:?}"
    );
}

#[test]
fn violation_messages_are_actionable() {
    // Each violation message should tell the user what to do, not just
    // what is wrong — spot-check that messages mention a remedy.
    let reg = registry();
    let path = fixtures_dir().join("panic_violation.rs");
    let findings = lint_file(&path, "tensor", false, false, &reg).expect("lint");
    let f = findings
        .iter()
        .find(|f| f.rule == "panic")
        .expect("panic finding");
    assert!(
        f.message.contains("lint:allow") || f.message.contains("Result"),
        "message should point at the fix: {}",
        f.message
    );
    assert!(f.line > 0);
}
