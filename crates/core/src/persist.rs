//! Model persistence: extracting, restoring and serialising trained weights.
//!
//! `Sequential` holds type-erased layers, so persistence goes through the
//! declarative [`ModelSpec`]: a [`SavedModel`] records the spec plus the
//! flat weight vector (in the model's stable parameter-visit order) and can
//! rebuild the trained model anywhere — e.g. train once in an experiment,
//! reuse in an example.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use hqnn_nn::Sequential;
use hqnn_tensor::SeededRng;
use serde::{Deserialize, Serialize};

use crate::model_spec::ModelSpec;

/// Error restoring weights into a model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadWeightsError {
    expected: usize,
    got: usize,
}

impl fmt::Display for LoadWeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "weight count mismatch: model has {} trainable scalars, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for LoadWeightsError {}

/// Error rebuilding a [`SavedModel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The stored spec breaks a rule its constructor enforces (e.g. zero
    /// classes in a hand-edited file); carries the broken rule.
    InvalidSpec(&'static str),
    /// The stored weight vector does not match the spec.
    Weights(LoadWeightsError),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::InvalidSpec(rule) => write!(f, "invalid model spec: {rule}"),
            RestoreError::Weights(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<LoadWeightsError> for RestoreError {
    fn from(e: LoadWeightsError) -> Self {
        RestoreError::Weights(e)
    }
}

/// Flattens every trainable scalar of the model into one vector, in the
/// model's stable parameter-visit order.
pub fn extract_weights(model: &mut Sequential) -> Vec<f64> {
    let mut weights = Vec::with_capacity(model.param_count());
    model.visit_params(&mut |value, _grad| weights.extend_from_slice(value.as_slice()));
    weights
}

/// Writes a flat weight vector back into the model (inverse of
/// [`extract_weights`]).
///
/// # Errors
///
/// Returns [`LoadWeightsError`] when the vector length does not match the
/// model's parameter count; the model is left unchanged in that case.
pub fn load_weights(model: &mut Sequential, weights: &[f64]) -> Result<(), LoadWeightsError> {
    if weights.len() != model.param_count() {
        return Err(LoadWeightsError {
            expected: model.param_count(),
            got: weights.len(),
        });
    }
    let mut offset = 0;
    model.visit_params(&mut |value, _grad| {
        let n = value.len();
        value
            .as_mut_slice()
            .copy_from_slice(&weights[offset..offset + n]);
        offset += n;
    });
    Ok(())
}

/// A trained model in portable form: its architecture spec plus flat
/// weights.
///
/// # Example
///
/// ```
/// use hqnn_core::persist::SavedModel;
/// use hqnn_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec: ModelSpec = ClassicalSpec::new(4, vec![6], 3).into();
/// let mut rng = SeededRng::new(0);
/// let mut model = spec.build(&mut rng);
/// let saved = SavedModel::capture(spec, &mut model);
/// let mut restored = saved.restore()?;
/// let x = Matrix::zeros(1, 4);
/// assert_eq!(model.forward(&x, false), restored.forward(&x, false));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SavedModel {
    /// The architecture.
    pub spec: ModelSpec,
    /// Flat weights in parameter-visit order.
    pub weights: Vec<f64>,
}

impl SavedModel {
    /// Captures the current weights of `model`, which must have been built
    /// from `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the model's parameter count disagrees with the spec's.
    pub fn capture(spec: ModelSpec, model: &mut Sequential) -> Self {
        assert_eq!(
            model.param_count(),
            spec.param_count(),
            "model was not built from this spec"
        );
        Self {
            weights: extract_weights(model),
            spec,
        }
    }

    /// Rebuilds the trained model.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError::InvalidSpec`] when the stored spec breaks a
    /// constructor rule and [`RestoreError::Weights`] when the stored weight
    /// vector does not match the spec — both only happen to hand-edited or
    /// corrupted files, since [`SavedModel::load`] deserializes the spec
    /// without going through its constructor.
    pub fn restore(&self) -> Result<Sequential, RestoreError> {
        self.spec.validate().map_err(RestoreError::InvalidSpec)?;
        // lint:allow(unsalted-rng): seed is irrelevant — every weight the
        // builder draws is overwritten by the stored vector on the next line
        let mut model = self.spec.build(&mut SeededRng::new(0));
        load_weights(&mut model, &self.weights)?;
        Ok(model)
    }

    /// Writes the model as pretty JSON, atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        hqnn_telemetry::write_atomic(path, json)
    }

    /// Loads a model previously written by [`SavedModel::save`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file is missing or not valid JSON.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_spec::{ClassicalSpec, HybridSpec};
    use hqnn_qsim::{EntanglerKind, QnnTemplate};
    use hqnn_tensor::Matrix;

    fn specs() -> Vec<ModelSpec> {
        vec![
            ClassicalSpec::new(5, vec![6, 4], 3).into(),
            HybridSpec::new(5, 3, QnnTemplate::new(3, 2, EntanglerKind::Strong)).into(),
        ]
    }

    #[test]
    fn extract_load_round_trip() {
        for spec in specs() {
            let mut rng = SeededRng::new(7);
            let mut model = spec.build(&mut rng);
            let weights = extract_weights(&mut model);
            assert_eq!(weights.len(), spec.param_count());

            let mut other = spec.build(&mut SeededRng::new(999));
            load_weights(&mut other, &weights).expect("matching count");
            let x = Matrix::uniform(3, 5, -1.0, 1.0, &mut rng);
            assert_eq!(model.forward(&x, false), other.forward(&x, false));
        }
    }

    #[test]
    fn load_rejects_wrong_length() {
        let spec: ModelSpec = ClassicalSpec::new(3, vec![2], 2).into();
        let mut model = spec.build(&mut SeededRng::new(0));
        let before = extract_weights(&mut model);
        let err = load_weights(&mut model, &[1.0, 2.0]).expect_err("length mismatch");
        assert!(err.to_string().contains("mismatch"));
        // Model unchanged on error.
        assert_eq!(extract_weights(&mut model), before);
    }

    #[test]
    fn saved_model_restores_identically() {
        for spec in specs() {
            let mut rng = SeededRng::new(11);
            let mut model = spec.build(&mut rng);
            let saved = SavedModel::capture(spec, &mut model);
            let mut restored = saved.restore().expect("restore");
            let x = Matrix::uniform(4, 5, -1.0, 1.0, &mut rng);
            assert_eq!(model.forward(&x, false), restored.forward(&x, false));
        }
    }

    #[test]
    fn saved_model_file_round_trip() {
        let spec: ModelSpec = ClassicalSpec::new(4, vec![3], 2).into();
        let mut model = spec.build(&mut SeededRng::new(2));
        let saved = SavedModel::capture(spec, &mut model);
        let path = std::env::temp_dir()
            .join("hqnn-core-test")
            .join("model.json");
        saved.save(&path).expect("save");
        let loaded = SavedModel::load(&path).expect("load");
        assert_eq!(saved, loaded);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn restore_rejects_corrupted_weights() {
        let spec: ModelSpec = ClassicalSpec::new(4, vec![3], 2).into();
        let mut model = spec.build(&mut SeededRng::new(2));
        let mut saved = SavedModel::capture(spec, &mut model);
        saved.weights.pop();
        assert!(saved.restore().is_err());
    }

    #[test]
    fn restore_rejects_hand_edited_specs_instead_of_panicking() {
        let hybrid = || HybridSpec::new(4, 2, QnnTemplate::new(3, 1, EntanglerKind::Basic)).into();
        let cases: [(ModelSpec, &str, &str); 3] = [
            (
                ClassicalSpec::new(4, vec![3], 2).into(),
                "\"n_classes\": 2",
                "\"n_classes\": 0",
            ),
            (hybrid(), "\"n_qubits\": 3", "\"n_qubits\": 0"),
            (hybrid(), "\"n_qubits\": 3", "\"n_qubits\": 25"),
        ];
        let dir = std::env::temp_dir().join(format!("hqnn-core-edited-{}", std::process::id()));
        for (i, (spec, field, edited)) in cases.into_iter().enumerate() {
            let mut model = spec.build(&mut SeededRng::new(2));
            let path = dir.join(format!("model-{i}.json"));
            SavedModel::capture(spec, &mut model)
                .save(&path)
                .expect("save");
            let json = std::fs::read_to_string(&path).expect("read");
            assert_eq!(json.matches(field).count(), 1, "{field} is stored once");
            std::fs::write(&path, json.replace(field, edited)).expect("edit");
            let loaded = SavedModel::load(&path).expect("edited JSON still parses");
            let err = loaded
                .restore()
                .expect_err("an invalid spec must not restore");
            assert!(err.to_string().contains("invalid model spec"), "{err}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "not built from this spec")]
    fn capture_validates_spec() {
        let spec_a: ModelSpec = ClassicalSpec::new(4, vec![3], 2).into();
        let spec_b: ModelSpec = ClassicalSpec::new(4, vec![8], 2).into();
        let mut model = spec_a.build(&mut SeededRng::new(2));
        let _ = SavedModel::capture(spec_b, &mut model);
    }
}
