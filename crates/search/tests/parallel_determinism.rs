//! Acceptance test for the batch execution engine: a full study produces
//! **byte-identical** JSON at `HQNN_THREADS=1` and `HQNN_THREADS=8` with the
//! same seeds, run sequentially or through the sharded scheduler. This is
//! the end-to-end determinism requirement — every parallel seam (qsim
//! gate-major batches, nn reductions, tensor matmul, search combo waves,
//! study sharding) sits under this study, and none may change a byte of it.

use hqnn_search::experiments::Family;
use hqnn_search::{ComboOutcome, ExperimentConfig, StudyResult};

/// The smoke study at level 4 over the classical and BEL families.
const SMOKE_FAMILIES: [Family; 2] = [Family::Classical, Family::HybridBel];

fn smoke_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::smoke();
    config.levels = vec![4];
    config
}

/// One study at the given thread budget, serialised to the same pretty JSON
/// that `StudyResult::save` writes, plus every retained evaluation as the
/// `progress` callback saw it (family, level, repetition and the combo's
/// JSON, one line each). `sharded` selects the sharded scheduler
/// (`run_study_sharded`) instead of the sequential per-family loops. The
/// manifest stays `None` (as `StudyResult::new` leaves it), so the
/// comparison covers every computed number without provenance noise like
/// timestamps.
fn run_study(
    config: &ExperimentConfig,
    families: &[Family],
    threads: usize,
    sharded: bool,
) -> (String, Vec<String>) {
    let line = |family: Family, n_features: usize, rep: usize, combo: &ComboOutcome| {
        let combo = serde_json::to_string(combo).expect("serialize combo");
        format!("{family:?} {n_features} {rep} {combo}")
    };
    hqnn_runtime::with_threads(threads, || {
        let mut study = StudyResult::new(config.clone());
        let mut progress = Vec::new();
        if sharded {
            let plan = study.run_study_sharded(families, &mut |family, n, rep, combo| {
                progress.push(line(family, n, rep, combo));
            });
            let shards = families.len() * config.levels.len() * config.search.repetitions;
            assert_eq!(plan.shards.len(), shards);
        } else {
            for &family in families {
                study.run_family(family, &mut |n, rep, combo| {
                    progress.push(line(family, n, rep, combo));
                });
            }
        }
        let json = serde_json::to_string_pretty(&study).expect("serialize study");
        (json, progress)
    })
}

fn study_json(threads: usize, sharded: bool) -> String {
    run_study(&smoke_config(), &SMOKE_FAMILIES, threads, sharded).0
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

#[test]
fn repetition_shards_reproduce_the_sequential_study_and_progress() {
    // Two repetitions over two levels and every family: enough shards that
    // repetitions of one cell run concurrently and the claim order differs
    // from the sequential one. The replayed progress must match too.
    let mut config = ExperimentConfig::smoke();
    config.search.repetitions = 2;
    config.levels = vec![4, 8];
    let (reference, reference_progress) = run_study(&config, &Family::ALL, 1, false);
    assert!(reference_progress.iter().any(|line| line.contains(" 8 1 ")));
    for threads in [1, 2, 3, 8] {
        let (json, progress) = run_study(&config, &Family::ALL, threads, true);
        assert_identical(&reference, &json, threads, true);
        assert!(
            progress == reference_progress,
            "replayed progress diverged from the sequential sequence at threads={threads}"
        );
    }
}
