//! Losses, label encoding and classification metrics.

use hqnn_tensor::Matrix;

/// Row-wise softmax of a logits matrix (numerically stabilised).
///
/// # Example
///
/// ```
/// use hqnn_nn::softmax;
/// use hqnn_tensor::Matrix;
///
/// let p = softmax(&Matrix::row_vector(&[0.0, 0.0]));
/// assert!((p[(0, 0)] - 0.5).abs() < 1e-12);
/// ```
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for (r, row) in logits.iter_rows().enumerate() {
        softmax_row(row, out.row_mut(r));
    }
    out
}

/// Writes the softmax of one logits row into `dst`: shift by the row max,
/// exponentiate, then divide by the left-folded sum.
fn softmax_row(row: &[f64], dst: &mut [f64]) {
    let max = hqnn_tensor::fold::ordered_max_f64(row.iter().copied());
    for (d, v) in dst.iter_mut().zip(row) {
        *d = (v - max).exp();
    }
    let denom = hqnn_tensor::fold::ordered_sum_f64(dst.iter().copied());
    for d in dst.iter_mut() {
        *d /= denom;
    }
}

/// One-hot encodes integer class labels into a `(batch, n_classes)` matrix.
///
/// # Panics
///
/// Panics if any label is `>= n_classes`.
pub fn one_hot(labels: &[usize], n_classes: usize) -> Matrix {
    let mut out = Matrix::zeros(labels.len(), n_classes);
    one_hot_into(labels, n_classes, &mut out);
    out
}

/// Writes [`one_hot`] into `out`, reusing its allocation.
///
/// # Panics
///
/// Panics if any label is `>= n_classes`.
pub fn one_hot_into(labels: &[usize], n_classes: usize, out: &mut Matrix) {
    out.reset_zeros(labels.len(), n_classes);
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < n_classes, "label {label} >= n_classes {n_classes}");
        out[(r, label)] = 1.0;
    }
}

/// Fraction of rows whose argmax matches the label — the paper's accuracy
/// metric. Returns `0.0` for an empty batch.
///
/// # Panics
///
/// Panics if `logits.rows() != labels.len()`.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "batch size mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    // Same argmax rule as `Matrix::argmax_rows`; the hit count is an
    // integer sum.
    let correct = logits
        .iter_rows()
        .zip(labels)
        .filter(|(row, &label)| {
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            pred == label
        })
        .count();
    correct as f64 / labels.len() as f64
}

/// Batch-mean softmax cross-entropy with its analytically fused gradient,
/// the classification loss used throughout the study.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        Self
    }

    /// Returns `(mean loss, dL/d(logits))` for one-hot `targets`; the
    /// allocating form of [`SoftmaxCrossEntropy::loss_and_grad_into`].
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or the batch is empty.
    pub fn loss_and_grad(&self, logits: &Matrix, targets: &Matrix) -> (f64, Matrix) {
        let mut grad = Matrix::zeros(0, 0);
        let loss = self.loss_and_grad_into(logits, targets, &mut grad);
        (loss, grad)
    }

    /// Returns the mean loss and writes `dL/d(logits)` into `grad`,
    /// reshaping it and reusing its allocation.
    ///
    /// The gradient is the classic fused form `(softmax − targets) / batch`.
    /// Row losses left-fold in row order, so every loss bit is fixed.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or the batch is empty.
    pub fn loss_and_grad_into(&self, logits: &Matrix, targets: &Matrix, grad: &mut Matrix) -> f64 {
        assert_eq!(logits.shape(), targets.shape(), "targets must match logits");
        assert!(logits.rows() > 0, "empty batch");
        let batch = logits.rows() as f64;
        let scale = 1.0 / batch;
        grad.reset_zeros(logits.rows(), logits.cols());
        let mut sum = 0.0;
        for (r, (row, target)) in logits.iter_rows().zip(targets.iter_rows()).enumerate() {
            let probs = grad.row_mut(r);
            softmax_row(row, probs);
            let mut part = 0.0;
            for (&p, &t) in probs.iter().zip(target) {
                if t != 0.0 {
                    part += t * p.max(1e-300).ln();
                }
            }
            sum += part;
            for (p, &t) in probs.iter_mut().zip(target) {
                *p = (*p - t) * scale;
            }
        }
        -sum / batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let p = softmax(&m);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&Matrix::row_vector(&[1.0, 2.0, 3.0]));
        let b = softmax(&Matrix::row_vector(&[101.0, 102.0, 103.0]));
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let p = softmax(&Matrix::row_vector(&[1000.0, -1000.0]));
        assert!(p.all_finite());
        assert!((p[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_hot_layout() {
        let t = one_hot(&[2, 0, 1], 3);
        assert_eq!(t.row(0), &[0.0, 0.0, 1.0]);
        assert_eq!(t.row(1), &[1.0, 0.0, 0.0]);
        assert_eq!(t.row(2), &[0.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = ">= n_classes")]
    fn one_hot_rejects_out_of_range() {
        let _ = one_hot(&[3], 3);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.8], &[0.6, 0.4]]);
        assert_eq!(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
        assert_eq!(accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    fn uniform_logits_loss_is_log_n() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = Matrix::zeros(4, 3);
        let targets = one_hot(&[0, 1, 2, 0], 3);
        let (loss, _grad) = loss_fn.loss_and_grad(&logits, &targets);
        assert!((loss - (3.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn gradient_is_softmax_minus_target_over_batch() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[&[2.0, -1.0, 0.5], &[0.0, 0.0, 0.0]]);
        let targets = one_hot(&[0, 2], 3);
        let (_loss, grad) = loss_fn.loss_and_grad(&logits, &targets);
        let expected = (&softmax(&logits) - &targets).scale(0.5);
        assert!(grad.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[&[1.2, -0.3, 0.7], &[-2.0, 0.1, 0.4]]);
        let targets = one_hot(&[1, 0], 3);
        let (_l, grad) = loss_fn.loss_and_grad(&logits, &targets);
        let eps = 1e-6;
        for r in 0..2 {
            for c in 0..3 {
                let mut up = logits.clone();
                up[(r, c)] += eps;
                let mut dn = logits.clone();
                dn[(r, c)] -= eps;
                let (lu, _) = loss_fn.loss_and_grad(&up, &targets);
                let (ld, _) = loss_fn.loss_and_grad(&dn, &targets);
                let fd = (lu - ld) / (2.0 * eps);
                assert!((grad[(r, c)] - fd).abs() < 1e-7, "({r},{c})");
            }
        }
    }

    #[test]
    fn loss_softmax_accuracy_bitwise_invariant_across_threads() {
        // A batch as large as any full-set evaluation in the study.
        let mut rng = hqnn_tensor::SeededRng::new(9);
        let rows = 1024;
        let logits = Matrix::uniform(rows, 8, -4.0, 4.0, &mut rng);
        let labels: Vec<usize> = (0..rows).map(|r| r % 8).collect();
        let targets = one_hot(&labels, 8);
        let loss_fn = SoftmaxCrossEntropy::new();

        let (loss1, grad1, p1, acc1) = hqnn_runtime::with_threads(1, || {
            let (l, g) = loss_fn.loss_and_grad(&logits, &targets);
            (l, g, softmax(&logits), accuracy(&logits, &labels))
        });
        for threads in [2, 7] {
            let (l, g, p, acc) = hqnn_runtime::with_threads(threads, || {
                let (l, g) = loss_fn.loss_and_grad(&logits, &targets);
                (l, g, softmax(&logits), accuracy(&logits, &labels))
            });
            assert_eq!(l.to_bits(), loss1.to_bits(), "loss, threads={threads}");
            assert_eq!(acc.to_bits(), acc1.to_bits(), "accuracy, threads={threads}");
            for (a, b) in g.as_slice().iter().zip(grad1.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "grad, threads={threads}");
            }
            for (a, b) in p.as_slice().iter().zip(p1.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "softmax, threads={threads}");
            }
        }
    }

    #[test]
    fn perfect_prediction_has_near_zero_loss_and_gradient() {
        let loss_fn = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[&[100.0, 0.0, 0.0]]);
        let targets = one_hot(&[0], 3);
        let (loss, grad) = loss_fn.loss_and_grad(&logits, &targets);
        assert!(loss < 1e-12);
        assert!(grad.frobenius_norm() < 1e-12);
    }
}
