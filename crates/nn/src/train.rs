//! Mini-batch training loop implementing the paper's protocol (§III-F, §IV):
//! shuffled mini-batches of 8, Adam at `lr = 0.001`, 100 epochs, recording
//! the **best** train/validation accuracy across epochs.

use hqnn_telemetry as telemetry;
use hqnn_tensor::{Matrix, SeededRng};
use serde::{Deserialize, Serialize};

use crate::loss::{accuracy, one_hot_into, SoftmaxCrossEntropy};
use crate::model::Sequential;
use crate::optimizer::Optimizer;

/// Hyperparameters for one training run.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the paper uses 8).
    pub batch_size: usize,
    /// Whether to reshuffle sample order every epoch.
    pub shuffle: bool,
    /// Record per-epoch metrics in the report's `history` (costs one extra
    /// forward pass over train+val per epoch either way; disabling only
    /// drops the stored rows).
    pub record_history: bool,
    /// Stop early once training accuracy (and validation accuracy, when a
    /// validation set is present) reaches this threshold. `None` (the
    /// paper's protocol) always runs the full epoch budget.
    pub early_stop_acc: Option<f64>,
}

impl TrainConfig {
    /// The paper's training setup: 100 epochs, batch size 8, shuffling.
    pub fn paper() -> Self {
        Self {
            epochs: 100,
            batch_size: 8,
            shuffle: true,
            record_history: false,
            early_stop_acc: None,
        }
    }

    /// A reduced setup for fast experimentation and tests.
    pub fn fast() -> Self {
        Self {
            epochs: 25,
            batch_size: 8,
            shuffle: true,
            record_history: false,
            early_stop_acc: None,
        }
    }

    /// Overrides the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Enables early stopping at the given accuracy threshold.
    pub fn with_early_stop(mut self, acc: f64) -> Self {
        self.early_stop_acc = Some(acc);
        self
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Metrics measured at the end of one epoch.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's mini-batches.
    pub train_loss: f64,
    /// Accuracy on the full training set after the epoch.
    pub train_accuracy: f64,
    /// Accuracy on the validation set after the epoch.
    pub val_accuracy: f64,
}

/// Outcome of one training run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Highest training accuracy observed across epochs — the quantity the
    /// paper averages over runs and thresholds at 90%.
    pub best_train_accuracy: f64,
    /// Highest validation accuracy observed across epochs.
    pub best_val_accuracy: f64,
    /// Training accuracy after the final epoch.
    pub final_train_accuracy: f64,
    /// Validation accuracy after the final epoch.
    pub final_val_accuracy: f64,
    /// Mean training loss of the final epoch.
    pub final_train_loss: f64,
    /// Number of epochs run.
    pub epochs_run: usize,
    /// Per-epoch metrics (empty unless `record_history` was set).
    pub history: Vec<EpochMetrics>,
}

/// Trains `model` on `(x_train, y_train)` and evaluates on `(x_val, y_val)`.
///
/// `y_*` are integer class labels in `0..n_classes`. The RNG drives the
/// per-epoch shuffles only — parameter initialisation happens at model
/// construction.
///
/// # Panics
///
/// Panics if the training set is empty, sample counts disagree with label
/// counts, a label is `>= n_classes`, or `config.batch_size == 0`.
#[allow(clippy::too_many_arguments)]
pub fn train(
    model: &mut Sequential,
    optimizer: &mut dyn Optimizer,
    x_train: &Matrix,
    y_train: &[usize],
    x_val: &Matrix,
    y_val: &[usize],
    n_classes: usize,
    config: &TrainConfig,
    rng: &mut SeededRng,
) -> TrainReport {
    assert!(x_train.rows() > 0, "empty training set");
    assert_eq!(x_train.rows(), y_train.len(), "train sample/label mismatch");
    assert_eq!(x_val.rows(), y_val.len(), "val sample/label mismatch");
    assert!(config.batch_size > 0, "batch size must be positive");

    let _train_span = telemetry::span("nn.train");
    let loss_fn = SoftmaxCrossEntropy::new();
    let n = x_train.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let mut step = 0u64;
    // Per-step buffers, reused across every mini-batch of the run.
    let mut xb = Matrix::zeros(0, 0);
    let mut labels = Vec::with_capacity(config.batch_size);
    let mut targets = Matrix::zeros(0, 0);
    let mut grad = Matrix::zeros(0, 0);

    let mut report = TrainReport {
        best_train_accuracy: 0.0,
        best_val_accuracy: 0.0,
        final_train_accuracy: 0.0,
        final_val_accuracy: 0.0,
        final_train_loss: f64::INFINITY,
        epochs_run: 0,
        history: Vec::new(),
    };

    for epoch in 0..config.epochs {
        let _epoch_span = telemetry::span("nn.epoch");
        if config.shuffle {
            rng.shuffle(&mut order);
        }
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            x_train.select_rows_into(chunk, &mut xb);
            labels.clear();
            labels.extend(chunk.iter().map(|&i| y_train[i]));
            one_hot_into(&labels, n_classes, &mut targets);
            let logits = model.forward(&xb, true);
            let loss = loss_fn.loss_and_grad_into(&logits, &targets, &mut grad);
            model.backward(&grad);
            // Health sentinels run between backward and the optimizer step:
            // read-only checks on the loss and the freshly-stored gradients
            // (`HQNN_HEALTH=abort` makes a trip fatal before the bad step
            // is applied).
            if crate::health::enabled() {
                crate::health::check_loss(loss, epoch, step);
                crate::health::check_grad_norm(model.grad_norm(), epoch, step);
            }
            model.apply_gradients(optimizer);
            telemetry::counter("nn.train_steps", 1);
            step += 1;
            epoch_loss += loss;
            batches += 1;
        }
        epoch_loss /= batches.max(1) as f64;

        // Full-dataset forward passes: the allocation-heaviest stretch of
        // an epoch, so it gets its own span for HQNN_ALLOC attribution.
        let (train_acc, val_acc) = {
            let _eval_span = telemetry::span("nn.evaluate");
            let train_acc = accuracy(&model.predict(x_train), y_train);
            let val_acc = if y_val.is_empty() {
                0.0
            } else {
                accuracy(&model.predict(x_val), y_val)
            };
            (train_acc, val_acc)
        };
        report.best_train_accuracy = report.best_train_accuracy.max(train_acc);
        report.best_val_accuracy = report.best_val_accuracy.max(val_acc);
        report.final_train_accuracy = train_acc;
        report.final_val_accuracy = val_acc;
        report.final_train_loss = epoch_loss;
        report.epochs_run = epoch + 1;
        if config.record_history {
            report.history.push(EpochMetrics {
                epoch,
                train_loss: epoch_loss,
                train_accuracy: train_acc,
                val_accuracy: val_acc,
            });
        }
        telemetry::counter("nn.epochs", 1);
        telemetry::event(
            telemetry::Level::Debug,
            "nn.epoch",
            &[
                ("epoch", epoch.into()),
                ("train_loss", epoch_loss.into()),
                ("train_acc", train_acc.into()),
                ("val_acc", val_acc.into()),
            ],
        );
        if let Some(threshold) = config.early_stop_acc {
            let val_ok = y_val.is_empty() || val_acc >= threshold;
            if train_acc >= threshold && val_ok {
                telemetry::event(
                    telemetry::Level::Info,
                    "nn.early_stop",
                    &[
                        ("epoch", epoch.into()),
                        ("train_acc", train_acc.into()),
                        ("val_acc", val_acc.into()),
                    ],
                );
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, Dense};
    use crate::optimizer::Adam;

    /// A linearly separable two-class blob problem.
    fn blobs(rng: &mut SeededRng, n_per_class: usize) -> (Matrix, Vec<usize>) {
        let mut x = Matrix::zeros(2 * n_per_class, 2);
        let mut y = Vec::with_capacity(2 * n_per_class);
        for i in 0..2 * n_per_class {
            let class = i % 2;
            let cx = if class == 0 { -1.0 } else { 1.0 };
            x[(i, 0)] = cx + rng.normal(0.0, 0.3);
            x[(i, 1)] = cx + rng.normal(0.0, 0.3);
            y.push(class);
        }
        (x, y)
    }

    fn classifier(rng: &mut SeededRng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Dense::new(2, 6, rng));
        m.push(Activation::relu());
        m.push(Dense::new(6, 2, rng));
        m
    }

    #[test]
    fn train_reaches_high_accuracy_on_blobs() {
        let mut rng = SeededRng::new(100);
        let (x_train, y_train) = blobs(&mut rng, 40);
        let (x_val, y_val) = blobs(&mut rng, 10);
        let mut model = classifier(&mut rng);
        let mut opt = Adam::new(0.01);
        let config = TrainConfig::fast().with_epochs(40);
        let report = train(
            &mut model, &mut opt, &x_train, &y_train, &x_val, &y_val, 2, &config, &mut rng,
        );
        assert!(report.best_train_accuracy > 0.95, "{report:?}");
        assert!(report.best_val_accuracy > 0.9, "{report:?}");
        assert_eq!(report.epochs_run, 40);
    }

    #[test]
    fn history_is_recorded_when_requested() {
        let mut rng = SeededRng::new(101);
        let (x, y) = blobs(&mut rng, 8);
        let mut model = classifier(&mut rng);
        let mut opt = Adam::new(0.01);
        let mut config = TrainConfig::fast().with_epochs(5);
        config.record_history = true;
        let report = train(&mut model, &mut opt, &x, &y, &x, &y, 2, &config, &mut rng);
        assert_eq!(report.history.len(), 5);
        assert!(report.history.iter().all(|m| m.train_loss.is_finite()));
        // best >= final by construction.
        assert!(report.best_train_accuracy >= report.final_train_accuracy);
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let run = || {
            let mut rng = SeededRng::new(7);
            let (x, y) = blobs(&mut rng, 12);
            let mut model = classifier(&mut rng);
            let mut opt = Adam::new(0.005);
            let config = TrainConfig::fast().with_epochs(8);
            train(&mut model, &mut opt, &x, &y, &x, &y, 2, &config, &mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn early_stop_halts_before_epoch_budget() {
        let mut rng = SeededRng::new(100);
        let (x, y) = blobs(&mut rng, 40);
        let mut model = classifier(&mut rng);
        let mut opt = Adam::new(0.01);
        // Separable blobs hit 90% long before 200 epochs.
        let config = TrainConfig::fast().with_epochs(200).with_early_stop(0.9);
        let report = train(&mut model, &mut opt, &x, &y, &x, &y, 2, &config, &mut rng);
        assert!(report.epochs_run < 200, "{report:?}");
        assert!(report.best_train_accuracy >= 0.9, "{report:?}");
    }

    #[test]
    fn empty_validation_set_is_allowed() {
        let mut rng = SeededRng::new(9);
        let (x, y) = blobs(&mut rng, 6);
        let mut model = classifier(&mut rng);
        let mut opt = Adam::new(0.01);
        let config = TrainConfig::fast().with_epochs(2);
        let report = train(
            &mut model,
            &mut opt,
            &x,
            &y,
            &Matrix::zeros(0, 2),
            &[],
            2,
            &config,
            &mut rng,
        );
        assert_eq!(report.best_val_accuracy, 0.0);
        assert!(report.best_train_accuracy > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_rejected() {
        let mut rng = SeededRng::new(0);
        let mut model = classifier(&mut rng);
        let mut opt = Adam::new(0.01);
        let _ = train(
            &mut model,
            &mut opt,
            &Matrix::zeros(0, 2),
            &[],
            &Matrix::zeros(0, 2),
            &[],
            2,
            &TrainConfig::fast(),
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let mut rng = SeededRng::new(0);
        let (x, y) = blobs(&mut rng, 4);
        let mut model = classifier(&mut rng);
        let mut opt = Adam::new(0.01);
        let config = TrainConfig::fast().with_batch_size(0);
        let _ = train(&mut model, &mut opt, &x, &y, &x, &y, 2, &config, &mut rng);
    }

    #[test]
    fn paper_config_matches_section_iv() {
        let c = TrainConfig::paper();
        assert_eq!(c.epochs, 100);
        assert_eq!(c.batch_size, 8);
        assert_eq!(TrainConfig::default(), c);
    }
}
