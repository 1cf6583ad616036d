//! Acceptance test for allocation counting: `HQNN_ALLOC=1` is observation
//! only. A study serialised with counting enabled must be byte-identical to
//! the same study with counting disabled — the instrumented allocator may
//! count, but it must never change a number.

use hqnn_search::experiments::Family;
use hqnn_search::{ExperimentConfig, StudyResult};
use hqnn_telemetry as telemetry;

/// One smoke-scale study with the allocator counting switch in the given
/// state, serialised exactly as `StudyResult::save` writes it. The manifest
/// stays `None` so the comparison covers computed numbers only (provenance
/// carries timestamps, which differ by construction).
fn study_json(alloc_counting: bool) -> String {
    let was_enabled = telemetry::alloc::is_enabled();
    telemetry::alloc::set_enabled(alloc_counting);
    let json = {
        let mut config = ExperimentConfig::smoke();
        config.levels = vec![4];
        let mut study = StudyResult::new(config);
        study.run_family(Family::Classical, &mut |_, _, _| {});
        study.run_family(Family::HybridBel, &mut |_, _, _| {});
        serde_json::to_string_pretty(&study).expect("serialize study")
    };
    telemetry::alloc::set_enabled(was_enabled);
    json
}

#[test]
fn study_json_is_bitwise_unchanged_by_alloc_counting() {
    let without = study_json(false);
    let with = study_json(true);
    assert!(
        without == with,
        "HQNN_ALLOC counting changed study output\n\
         first differing byte at offset {:?}",
        without.bytes().zip(with.bytes()).position(|(a, b)| a != b)
    );
    assert!(without.contains("\"classical\""));
    assert!(without.len() > 1_000);

    // And the counting run did actually attribute allocations to spans —
    // the invariance above must not hold vacuously.
    let snap = telemetry::snapshot();
    assert!(
        snap.spans.values().any(|s| s.alloc_count > 0),
        "no span recorded any allocations while counting was enabled"
    );
}
