//! Additional synthetic classification benchmarks.
//!
//! The spiral is the paper's workload, but the QML benchmarking literature
//! it builds on (Bowles et al. 2024, cited as \[27\]) evaluates across a
//! family of controllable toy tasks. This module supplies the common ones —
//! two moons, concentric circles, Gaussian blobs and noisy XOR — all
//! returning the same [`Dataset`] type, so every model/search facility in
//! the workspace works on them unchanged.

use hqnn_tensor::{Matrix, SeededRng};

use crate::Dataset;

fn finish(x: Matrix, y: Vec<usize>, n_classes: usize, rng: &mut SeededRng) -> Dataset {
    let mut ds = Dataset::new(x, y, n_classes);
    ds.shuffle(rng);
    ds
}

/// The classic two-moons task: two interleaved half-circles with Gaussian
/// jitter `noise`.
///
/// # Panics
///
/// Panics if `n_samples < 2` or `noise < 0`.
///
/// # Example
///
/// ```
/// use hqnn_data::synthetic::two_moons;
/// use hqnn_tensor::SeededRng;
///
/// let ds = two_moons(200, 0.1, &mut SeededRng::new(0));
/// assert_eq!(ds.n_features(), 2);
/// assert_eq!(ds.n_classes(), 2);
/// assert_eq!(ds.class_counts(), vec![100, 100]);
/// ```
pub fn two_moons(n_samples: usize, noise: f64, rng: &mut SeededRng) -> Dataset {
    assert!(n_samples >= 2, "need at least one sample per moon");
    assert!(noise >= 0.0, "noise must be non-negative");
    let per_class = n_samples / 2;
    let mut x = Matrix::zeros(2 * per_class, 2);
    // Rows 0..per_class are the upper moon (class 0), the rest the lower.
    let mut y = vec![0; per_class];
    y.extend(std::iter::repeat_n(1, per_class));
    for i in 0..per_class {
        let t = std::f64::consts::PI * (i as f64 + 0.5) / per_class as f64;
        // Upper moon.
        x[(i, 0)] = t.cos() + rng.normal(0.0, noise);
        x[(i, 1)] = t.sin() + rng.normal(0.0, noise);
        // Lower moon, shifted to interleave.
        let j = per_class + i;
        x[(j, 0)] = 1.0 - t.cos() + rng.normal(0.0, noise);
        x[(j, 1)] = 0.5 - t.sin() + rng.normal(0.0, noise);
    }
    finish(x, y, 2, rng)
}

/// Concentric circles: class 0 on a circle of radius `inner_radius`,
/// class 1 on radius 1, each with Gaussian jitter `noise`.
///
/// # Panics
///
/// Panics if `n_samples < 2`, `noise < 0`, or
/// `inner_radius ∉ (0, 1)`.
pub fn circles(n_samples: usize, inner_radius: f64, noise: f64, rng: &mut SeededRng) -> Dataset {
    assert!(n_samples >= 2, "need at least one sample per circle");
    assert!(noise >= 0.0, "noise must be non-negative");
    assert!(
        inner_radius > 0.0 && inner_radius < 1.0,
        "inner radius must be in (0, 1)"
    );
    let per_class = n_samples / 2;
    let mut x = Matrix::zeros(2 * per_class, 2);
    // Rows 0..per_class are the inner circle (class 0), the rest the outer.
    let mut y = vec![0; per_class];
    y.extend(std::iter::repeat_n(1, per_class));
    for i in 0..per_class {
        let t = 2.0 * std::f64::consts::PI * (i as f64 + 0.5) / per_class as f64;
        x[(i, 0)] = inner_radius * t.cos() + rng.normal(0.0, noise);
        x[(i, 1)] = inner_radius * t.sin() + rng.normal(0.0, noise);
        let j = per_class + i;
        x[(j, 0)] = t.cos() + rng.normal(0.0, noise);
        x[(j, 1)] = t.sin() + rng.normal(0.0, noise);
    }
    finish(x, y, 2, rng)
}

/// Isotropic Gaussian blobs: one cluster per class, centres equally spaced
/// on the unit circle, each with std `spread`.
///
/// # Panics
///
/// Panics if `n_classes == 0`, `n_samples < n_classes`, or `spread < 0`.
pub fn gaussian_blobs(
    n_samples: usize,
    n_classes: usize,
    spread: f64,
    rng: &mut SeededRng,
) -> Dataset {
    assert!(n_classes > 0, "need at least one class");
    assert!(n_samples >= n_classes, "need one sample per class");
    assert!(spread >= 0.0, "spread must be non-negative");
    let per_class = n_samples / n_classes;
    let mut x = Matrix::zeros(per_class * n_classes, 2);
    let mut y = Vec::with_capacity(per_class * n_classes);
    for class in 0..n_classes {
        let angle = 2.0 * std::f64::consts::PI * class as f64 / n_classes as f64;
        let (cx, cy) = (angle.cos(), angle.sin());
        for i in 0..per_class {
            let row = class * per_class + i;
            x[(row, 0)] = cx + rng.normal(0.0, spread);
            x[(row, 1)] = cy + rng.normal(0.0, spread);
            y.push(class);
        }
    }
    finish(x, y, n_classes, rng)
}

/// Noisy XOR: four Gaussian clusters at `(±1, ±1)`, labelled by the sign
/// product — not linearly separable by construction.
///
/// # Panics
///
/// Panics if `n_samples < 4` or `noise < 0`.
pub fn xor(n_samples: usize, noise: f64, rng: &mut SeededRng) -> Dataset {
    assert!(n_samples >= 4, "need at least one sample per quadrant");
    assert!(noise >= 0.0, "noise must be non-negative");
    let per_quadrant = n_samples / 4;
    let mut x = Matrix::zeros(4 * per_quadrant, 2);
    let mut y = Vec::with_capacity(4 * per_quadrant);
    for (q, (sx, sy)) in [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]
        .into_iter()
        .enumerate()
    {
        for i in 0..per_quadrant {
            let row = q * per_quadrant + i;
            x[(row, 0)] = sx + rng.normal(0.0, noise);
            x[(row, 1)] = sy + rng.normal(0.0, noise);
            // Same-sign quadrants are class 0, mixed-sign class 1.
            y.push(if sx * sy > 0.0 { 0 } else { 1 });
        }
    }
    finish(x, y, 2, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SeededRng {
        SeededRng::new(99)
    }

    #[test]
    fn moons_shapes_and_balance() {
        let ds = two_moons(300, 0.05, &mut rng());
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.class_counts(), vec![150, 150]);
        assert!(ds.features().all_finite());
    }

    #[test]
    fn moons_are_vertically_offset_and_interleaved() {
        let ds = two_moons(400, 0.02, &mut rng());
        // Mean height separates the classes (upper moon ≈ +0.64, lower ≈ -0.14)…
        let mean_y = |class: usize| {
            let rows: Vec<f64> = ds
                .features()
                .iter_rows()
                .zip(ds.labels())
                .filter(|(_, &l)| l == class)
                .map(|(row, _)| row[1])
                .collect();
            rows.iter().sum::<f64>() / rows.len() as f64
        };
        assert!(
            mean_y(0) > mean_y(1) + 0.5,
            "{} vs {}",
            mean_y(0),
            mean_y(1)
        );
        // …but no horizontal line does: both classes cross y = 0.25
        // (the interleaving that makes the task non-linear).
        let crossings = |class: usize| {
            let (mut above, mut below) = (false, false);
            for (row, &l) in ds.features().iter_rows().zip(ds.labels()) {
                if l == class {
                    if row[1] > 0.25 {
                        above = true;
                    } else {
                        below = true;
                    }
                }
            }
            above && below
        };
        assert!(crossings(0) && crossings(1), "moons do not interleave");
    }

    #[test]
    fn circles_radii_separate_classes() {
        let ds = circles(400, 0.4, 0.01, &mut rng());
        for (row, &label) in ds.features().iter_rows().zip(ds.labels()) {
            let r = (row[0] * row[0] + row[1] * row[1]).sqrt();
            if label == 0 {
                assert!(r < 0.7, "inner point at r = {r}");
            } else {
                assert!(r > 0.7, "outer point at r = {r}");
            }
        }
    }

    #[test]
    fn blobs_cluster_around_centres() {
        let ds = gaussian_blobs(300, 3, 0.05, &mut rng());
        assert_eq!(ds.class_counts(), vec![100, 100, 100]);
        for (row, &label) in ds.features().iter_rows().zip(ds.labels()) {
            let angle = 2.0 * std::f64::consts::PI * label as f64 / 3.0;
            let d = ((row[0] - angle.cos()).powi(2) + (row[1] - angle.sin()).powi(2)).sqrt();
            assert!(d < 0.5, "point {d} from its centre");
        }
    }

    #[test]
    fn xor_labels_follow_sign_product() {
        let ds = xor(400, 0.1, &mut rng());
        assert_eq!(ds.n_classes(), 2);
        let mut consistent = 0;
        for (row, &label) in ds.features().iter_rows().zip(ds.labels()) {
            let expected = if row[0] * row[1] > 0.0 { 0 } else { 1 };
            if expected == label {
                consistent += 1;
            }
        }
        // Noise 0.1 rarely flips a quadrant.
        assert!(consistent as f64 / ds.len() as f64 > 0.97);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let a = two_moons(100, 0.1, &mut SeededRng::new(5));
        let b = two_moons(100, 0.1, &mut SeededRng::new(5));
        assert_eq!(a, b);
        let c = circles(100, 0.5, 0.1, &mut SeededRng::new(5));
        let d = circles(100, 0.5, 0.1, &mut SeededRng::new(5));
        assert_eq!(c, d);
    }

    #[test]
    #[should_panic(expected = "inner radius")]
    fn circles_validates_radius() {
        let _ = circles(100, 1.5, 0.1, &mut rng());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn moons_validates_noise() {
        let _ = two_moons(100, -0.1, &mut rng());
    }

    #[test]
    fn hybrid_model_learns_two_moons() {
        // Cross-module smoke: the new datasets feed the existing stack.
        let mut r = rng();
        let ds = two_moons(240, 0.1, &mut r);
        let (train_set, val_set) = ds.split(0.8, &mut r);
        let (s, x_train) = crate::Standardizer::fit_transform(train_set.features());
        let _x_val = s.transform(val_set.features());
        assert_eq!(x_train.cols(), 2);
    }
}
