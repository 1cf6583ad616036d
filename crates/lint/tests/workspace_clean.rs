//! The workspace lints clean. This test makes `cargo test` itself enforce
//! the invariants: introducing an unannotated HashMap into qsim, a bare
//! unwrap into library code, or an unregistered HQNN_* read fails the
//! tier-1 test suite, not just the separate `make lint` step.

use std::path::Path;

use hqnn_lint::{lint_workspace, load_registry};

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root")
}

#[test]
fn workspace_lints_clean() {
    let report = lint_workspace(workspace_root()).expect("lint run");
    assert!(
        report.files_scanned > 20,
        "suspiciously few files scanned ({}) — walker broken?",
        report.files_scanned
    );
    assert!(
        report.crates.iter().any(|c| c == "qsim") && report.crates.iter().any(|c| c == "lint"),
        "expected workspace crates missing from scan: {:?}",
        report.crates
    );
    assert!(
        report.clean(),
        "workspace has lint findings:\n{}",
        report.render_text()
    );
}

#[test]
fn registry_contains_the_known_vars() {
    let reg = load_registry(workspace_root()).expect("registry load");
    for name in ["HQNN_LOG", "HQNN_THREADS", "HQNN_HEALTH", "HQNN_ALLOC"] {
        assert!(
            reg.iter().any(|r| r == name),
            "{name} missing from registry {reg:?}"
        );
    }
}
