//! Acceptance test for the batch execution engine: a full study produces
//! **byte-identical** JSON at `HQNN_THREADS=1` and `HQNN_THREADS=8` with the
//! same seeds, run sequentially or through the sharded scheduler. This is
//! the end-to-end determinism requirement — every parallel seam (qsim
//! gate-major batches, nn reductions, tensor matmul, search combo waves,
//! study sharding) sits under this study, and none may change a byte of it.

use hqnn_search::experiments::Family;
use hqnn_search::{ExperimentConfig, StudyResult};

/// One smoke-scale study at the given thread budget, serialised to the same
/// pretty JSON that `StudyResult::save` writes. `sharded` selects the
/// sharded scheduler (`run_study_sharded`) instead of the sequential
/// per-family loops. The manifest stays `None` (as `StudyResult::new`
/// leaves it), so the comparison covers every computed number without
/// provenance noise like timestamps.
fn study_json(threads: usize, sharded: bool) -> String {
    hqnn_runtime::with_threads(threads, || {
        let mut config = ExperimentConfig::smoke();
        config.levels = vec![4];
        let mut study = StudyResult::new(config);
        if sharded {
            study.run_study_sharded(
                &[Family::Classical, Family::HybridBel],
                &mut |_, _, _, _| {},
            );
        } else {
            study.run_family(Family::Classical, &mut |_, _, _| {});
            study.run_family(Family::HybridBel, &mut |_, _, _| {});
        }
        serde_json::to_string_pretty(&study).expect("serialize study")
    })
}

/// Asserts `other` equals the 1-thread sequential `reference` byte for byte.
fn assert_identical(reference: &str, other: &str, threads: usize, sharded: bool) {
    assert!(
        reference == other,
        "study JSON diverged from the 1-thread sequential reference at \
         (threads={threads}, sharded={sharded})\nfirst differing byte at offset {:?}",
        reference
            .bytes()
            .zip(other.bytes())
            .position(|(a, b)| a != b)
    );
}

#[test]
fn study_json_is_byte_identical_across_threads_and_layouts() {
    let reference = study_json(1, false);
    assert_identical(&reference, &study_json(8, false), 8, false);
    // Sanity: the study actually ran something.
    assert!(reference.contains("\"classical\""));
    assert!(reference.len() > 1_000);
}

#[test]
fn sharded_study_json_is_byte_identical_to_sequential() {
    // The sequential runner at one thread is the ground truth; the sharded
    // scheduler must reproduce it byte for byte at every thread budget.
    // This is the acceptance gate for study-level sharding.
    let reference = study_json(1, false);
    for threads in [1, 8] {
        assert_identical(&reference, &study_json(threads, true), threads, true);
    }
}
