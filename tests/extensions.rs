//! Integration tests of the extension modules working together: alternative
//! datasets → hybrid and classical training → confusion-matrix evaluation.

use hqnn_core::prelude::*;
use hqnn_data::synthetic::{circles, gaussian_blobs, two_moons, xor};
use hqnn_nn::ConfusionMatrix;

#[test]
fn hybrid_model_solves_two_moons() {
    let mut rng = SeededRng::new(31);
    let ds = two_moons(300, 0.1, &mut rng);
    let (train_set, val_set) = ds.split(0.8, &mut rng);
    let (standardizer, x_train) = Standardizer::fit_transform(train_set.features());
    let x_val = standardizer.transform(val_set.features());

    let spec = HybridSpec::new(2, 2, QnnTemplate::new(2, 2, EntanglerKind::Strong));
    let mut model = spec.build(&mut rng);
    let mut opt = Adam::new(0.02);
    let config = TrainConfig::fast().with_epochs(50);
    let report = train(
        &mut model,
        &mut opt,
        &x_train,
        train_set.labels(),
        &x_val,
        val_set.labels(),
        2,
        &config,
        &mut rng,
    );
    assert!(
        report.best_val_accuracy >= 0.88,
        "hybrid failed two moons: {report:?}"
    );

    // Confusion matrix of the final model is consistent with accuracy.
    let logits = model.predict(&x_val);
    let cm = ConfusionMatrix::from_logits(&logits, val_set.labels(), 2);
    assert!((cm.accuracy() - accuracy(&logits, val_set.labels())).abs() < 1e-12);
    assert!(cm.macro_f1() > 0.7);
}

#[test]
fn classical_model_solves_circles_and_blobs() {
    for (name, ds) in [
        ("circles", circles(240, 0.45, 0.05, &mut SeededRng::new(5))),
        (
            "blobs",
            gaussian_blobs(240, 3, 0.15, &mut SeededRng::new(6)),
        ),
    ] {
        let mut rng = SeededRng::new(7);
        let (train_set, val_set) = ds.split(0.8, &mut rng);
        let (standardizer, x_train) = Standardizer::fit_transform(train_set.features());
        let x_val = standardizer.transform(val_set.features());
        let spec = ClassicalSpec::new(2, vec![8], ds.n_classes());
        let mut model = spec.build(&mut rng);
        let mut opt = Adam::new(0.02);
        let config = TrainConfig::fast().with_epochs(40);
        let report = train(
            &mut model,
            &mut opt,
            &x_train,
            train_set.labels(),
            &x_val,
            val_set.labels(),
            ds.n_classes(),
            &config,
            &mut rng,
        );
        assert!(
            report.best_val_accuracy > 0.9,
            "{name} not solved: {report:?}"
        );
    }
}

#[test]
fn xor_needs_nonlinearity() {
    // A linear classifier cannot beat chance by much on XOR; one hidden
    // layer cracks it — the textbook sanity check of the whole stack.
    let mut rng = SeededRng::new(17);
    let ds = xor(320, 0.15, &mut rng);
    let (train_set, val_set) = ds.split(0.8, &mut rng);
    let (standardizer, x_train) = Standardizer::fit_transform(train_set.features());
    let x_val = standardizer.transform(val_set.features());
    let run = |hidden: Vec<usize>, rng: &mut SeededRng| {
        let spec = ClassicalSpec::new(2, hidden, 2);
        let mut model = spec.build(rng);
        let mut opt = Adam::new(0.02);
        let config = TrainConfig::fast().with_epochs(40);
        train(
            &mut model,
            &mut opt,
            &x_train,
            train_set.labels(),
            &x_val,
            val_set.labels(),
            2,
            &config,
            rng,
        )
        .best_train_accuracy
    };
    // Judge on training accuracy over the full train split. The best
    // linear boundary on 4-cluster XOR gets exactly 3 of the 4 clusters
    // right (75%); a hidden layer should clear 90%.
    let linear = run(vec![], &mut rng);
    let nonlinear = run(vec![8], &mut rng);
    assert!(
        linear <= 0.78,
        "linear model beat the XOR ceiling: {linear}"
    );
    assert!(nonlinear > 0.9, "MLP should crack XOR, got {nonlinear}");
}
