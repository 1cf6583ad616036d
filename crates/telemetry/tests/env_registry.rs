//! End-to-end checks of the central `HQNN_*` registry: a typo'd variable in
//! the environment produces a loud `env.unknown_var` event with a
//! did-you-mean hint, exactly once per process.

use hqnn_telemetry as telemetry;

#[test]
fn unknown_hqnn_variable_warns_once_with_suggestion() {
    // Safe in edition 2021; this test binary is single-threaded at this
    // point (one #[test] in the file touches the environment).
    std::env::set_var("HQNN_THREAD", "8");
    std::env::set_var("HQNN_LOG", "off");

    let mem = telemetry::add_memory_sink();
    telemetry::env::warn_unknown_vars();

    let warnings = mem.events_named("env.unknown_var");
    assert_eq!(warnings.len(), 1, "one event per unknown variable");
    let rendered = warnings[0].human_readable();
    assert!(
        rendered.contains("HQNN_THREAD"),
        "names the offender: {rendered}"
    );
    assert!(
        rendered.contains("HQNN_THREADS"),
        "suggests the nearest registered name: {rendered}"
    );

    // The scan is once-per-process: a second call must not re-warn.
    telemetry::env::warn_unknown_vars();
    assert_eq!(mem.events_named("env.unknown_var").len(), 1);
}

#[test]
fn registry_is_the_single_source_of_truth() {
    let names = telemetry::env::registered_names();
    for expected in ["HQNN_LOG", "HQNN_THREADS", "HQNN_HEALTH", "HQNN_ALLOC"] {
        assert!(names.contains(&expected), "{expected} must be registered");
    }
    for var in telemetry::env::REGISTRY {
        assert!(!var.purpose.is_empty() && !var.accepted.is_empty());
    }
}
