//! Pins of the training step's numbers and allocations.
//!
//! The fingerprints are the bits a short training run produces for two
//! classical and two hybrid models at the paper's hardest level. Any change
//! to the dense kernels, the loss, Adam or the training loop that moves a
//! single bit fails here, in tier-1, instead of surfacing as drift in a
//! regenerated study. The allocation pin keeps the classical step from
//! sliding back to per-step copies.

use hqnn_core::{ClassicalSpec, HybridSpec, ModelSpec};
use hqnn_nn::{train, Adam, Sequential, TrainConfig, TrainReport};
use hqnn_qsim::{EntanglerKind, QnnTemplate};
use hqnn_search::protocol::{prepare_level_data, PreparedData};
use hqnn_search::SearchConfig;
use hqnn_telemetry::alloc;
use hqnn_tensor::SeededRng;

const FEATURES: usize = 110;
const CLASSES: usize = 3;

fn config(epochs: usize) -> SearchConfig {
    SearchConfig {
        runs_per_combo: 1,
        repetitions: 1,
        train: TrainConfig::paper().with_epochs(epochs),
        seed: 5001,
        ..SearchConfig::paper()
    }
}

/// Builds `spec` from salt `salt` of the config's seed, as `evaluate_combo`
/// does for run 0; returns the model and the stream that drives its
/// shuffles.
fn build(spec: &ModelSpec, salt: u64, cfg: &SearchConfig) -> (Sequential, SeededRng) {
    let mut rng = SeededRng::new(cfg.seed).split(salt).split(0);
    let model = spec.build(&mut rng);
    (model, rng)
}

fn fit(
    model: &mut Sequential,
    rng: &mut SeededRng,
    cfg: &SearchConfig,
    data: &PreparedData,
) -> TrainReport {
    let mut optimizer = Adam::new(cfg.learning_rate);
    train(
        model,
        &mut optimizer,
        &data.x_train,
        &data.y_train,
        &data.x_val,
        &data.y_val,
        data.n_classes,
        &cfg.train,
        rng,
    )
}

/// FNV-1a over the bits of every parameter, in `visit_params` order.
fn param_hash(model: &mut Sequential) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    model.visit_params(&mut |value, _grad| {
        for v in value.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    });
    hash
}

/// `[best_train, best_val, final_train, final_val, final_loss, params]`
/// bits of one trained model.
fn fingerprint(report: &TrainReport, model: &mut Sequential) -> [u64; 6] {
    [
        report.best_train_accuracy.to_bits(),
        report.best_val_accuracy.to_bits(),
        report.final_train_accuracy.to_bits(),
        report.final_val_accuracy.to_bits(),
        report.final_train_loss.to_bits(),
        param_hash(model),
    ]
}

#[test]
fn trained_model_bits_match_the_pinned_fingerprints() {
    let cfg = config(2);
    let data = prepare_level_data(&cfg, FEATURES);
    let hybrid = |q, kind| -> ModelSpec {
        HybridSpec::new(FEATURES, CLASSES, QnnTemplate::new(q, 2, kind)).into()
    };
    // Captured before the fixed-width kernels landed; they must not move.
    let cases: [(ModelSpec, [u64; 6]); 4] = [
        (
            ClassicalSpec::new(FEATURES, vec![2], CLASSES).into(),
            [
                0x3fe60da740da740e,
                0x3fe5555555555555,
                0x3fe60da740da740e,
                0x3fe5555555555555,
                0x3fe5a3bb9ef00b25,
                0x9872575dd861df80,
            ],
        ),
        (
            ClassicalSpec::new(FEATURES, vec![10, 10, 10], CLASSES).into(),
            [
                0x3feeeeeeeeeeeeef,
                0x3fed0369d0369d03,
                0x3feeeeeeeeeeeeef,
                0x3fed0369d0369d03,
                0x3fc51b1bb8cfdc20,
                0x7f378af934306167,
            ],
        ),
        (
            hybrid(3, EntanglerKind::Basic),
            [
                0x3fe3bbbbbbbbbbbc,
                0x3fe17e4b17e4b17e,
                0x3fe3bbbbbbbbbbbc,
                0x3fe17e4b17e4b17e,
                0x3fec1bcd734f5d3d,
                0x1665ac75b7789af1,
            ],
        ),
        (
            hybrid(5, EntanglerKind::Strong),
            [
                0x3fe9777777777777,
                0x3fe792c5f92c5f93,
                0x3fe9777777777777,
                0x3fe792c5f92c5f93,
                0x3fea543e643589b7,
                0xe3f8ab76c23ffffe,
            ],
        ),
    ];
    for (salt, (spec, want)) in cases.iter().enumerate() {
        let (mut model, mut rng) = build(spec, salt as u64, &cfg);
        let report = fit(&mut model, &mut rng, &cfg, &data);
        let got = fingerprint(&report, &mut model);
        assert_eq!(
            got,
            *want,
            "{}: trained bits moved; got [{}]",
            spec.label(),
            got.map(|b| format!("{b:#018x}")).join(", ")
        );
    }
}

#[test]
fn classical_epoch_stays_within_the_allocation_budget() {
    // One epoch of C[10,10,10] at 110 features: 150 steps of batch 8 plus
    // the two full-set evaluations. Counting is per thread, so the run is
    // pinned to one thread to keep every allocation on this one.
    const STEPS: u64 = 150;
    const MAX_PER_STEP: u64 = 25;
    let cfg = config(1);
    let data = prepare_level_data(&cfg, FEATURES);
    assert_eq!(data.x_train.rows() as u64, STEPS * 8);
    let spec: ModelSpec = ClassicalSpec::new(FEATURES, vec![10, 10, 10], CLASSES).into();
    let (mut model, mut rng) = build(&spec, 0, &cfg);
    let was_enabled = alloc::is_enabled();
    alloc::set_enabled(true);
    let (_, delta) = hqnn_runtime::with_threads(1, || {
        alloc::measure(|| fit(&mut model, &mut rng, &cfg, &data))
    });
    alloc::set_enabled(was_enabled);
    let delta = delta.expect("allocation counting was enabled");
    assert!(
        delta.count <= MAX_PER_STEP * STEPS,
        "{} allocations in one epoch ({:.1} per step, budget {MAX_PER_STEP})",
        delta.count,
        delta.count as f64 / STEPS as f64
    );
}

#[test]
fn training_past_adams_exact_bias_correction_matches_the_pinned_fingerprints() {
    // Three epochs are 450 Adam steps. From t ≈ 356 on, `1 − β₁ᵗ` rounds
    // to exactly 1.0 and Adam skips dividing by it; the two-epoch pins
    // above stop at step 300 and never get there.
    let cfg = config(3);
    let data = prepare_level_data(&cfg, FEATURES);
    // Captured before the optimizer skipped the exact-one division.
    let cases: [(ModelSpec, [u64; 6]); 2] = [
        (
            ClassicalSpec::new(FEATURES, vec![10, 10, 10], CLASSES).into(),
            [
                0x3fef7e4b17e4b17e,
                0x3fee147ae147ae14,
                0x3fef7e4b17e4b17e,
                0x3fee147ae147ae14,
                0x3fb1378e5590cb35,
                0x5d161f217cfa1a20,
            ],
        ),
        (
            HybridSpec::new(
                FEATURES,
                CLASSES,
                QnnTemplate::new(3, 2, EntanglerKind::Basic),
            )
            .into(),
            [
                0x3feb7e4b17e4b17e,
                0x3fe9b4e81b4e81b5,
                0x3feb7e4b17e4b17e,
                0x3fe9b4e81b4e81b5,
                0x3fe1a5a08ce1c748,
                0x3e87b4610097a4a1,
            ],
        ),
    ];
    for (salt, (spec, want)) in cases.iter().enumerate() {
        let (mut model, mut rng) = build(spec, salt as u64, &cfg);
        let report = fit(&mut model, &mut rng, &cfg, &data);
        let got = fingerprint(&report, &mut model);
        assert_eq!(
            got,
            *want,
            "{}: trained bits moved; got [{}]",
            spec.label(),
            got.map(|b| format!("{b:#018x}")).join(", ")
        );
    }
}
