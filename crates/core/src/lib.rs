//! Hybrid quantum–classical neural networks (HQNNs).
//!
//! This is the headline crate of the workspace: the Rust equivalent of
//! PennyLane's `qml.qnn.KerasLayer` pipeline the paper builds on. It provides
//!
//! * [`QuantumLayer`] — a simulated variational quantum circuit (angle
//!   encoding → BEL/SEL ansatz → one `⟨Z⟩` per wire) that implements
//!   [`hqnn_nn::Layer`], so it slots into a [`hqnn_nn::Sequential`] next to
//!   dense layers and backpropagates via adjoint differentiation;
//! * [`HybridSpec`] / [`ClassicalSpec`] / [`ModelSpec`] — declarative model
//!   descriptions that build trainable models, count parameters, and price
//!   themselves under a [`hqnn_flops::CostModel`] — the two complexity
//!   metrics (FLOPs, #params) the paper compares classical and hybrid
//!   networks on;
//! * a [`prelude`] re-exporting the workspace types downstream code needs.
//!
//! # Quickstart
//!
//! ```
//! use hqnn_core::prelude::*;
//!
//! // A hybrid model for 4 input features: Dense(4→3) → SEL(3q,2l) → Dense(3→3).
//! let spec = HybridSpec::new(4, 3, QnnTemplate::new(3, 2, EntanglerKind::Strong));
//! let mut rng = SeededRng::new(0);
//! let mut model = spec.build(&mut rng);
//! assert_eq!(model.param_count(), spec.param_count());
//!
//! let x = Matrix::zeros(2, 4);
//! let logits = model.forward(&x, false);
//! assert_eq!(logits.shape(), (2, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model_spec;
pub mod persist;
pub mod quantum_layer;

pub use model_spec::{ClassicalSpec, HybridSpec, ModelSpec};
pub use persist::SavedModel;
pub use quantum_layer::{GradientMethod, QuantumLayer};

/// The central `HQNN_*` environment-variable registry and parsers.
///
/// Hosted by `hqnn-telemetry` (the root of the workspace dependency graph,
/// so every crate can read through it) and re-exported here as the
/// user-facing entry point: `hqnn_core::env::REGISTRY` lists every variable
/// the workspace understands, and unknown `HQNN_*` names in the process
/// environment trigger a one-time `env.unknown_var` warning.
pub use hqnn_telemetry::env;

/// Training-health sentinels (NaN/Inf loss, gradient-norm monitors).
///
/// Hosted by `hqnn-nn` where the training loop lives; re-exported here so
/// hybrid-model drivers configure them through the same front door as the
/// rest of the workspace (`hqnn_core::health::set_action`, or the
/// registered `HQNN_HEALTH` env var).
pub use hqnn_nn::health;

/// One-stop imports for applications using the workspace.
pub mod prelude {
    pub use crate::{ClassicalSpec, GradientMethod, HybridSpec, ModelSpec, QuantumLayer};
    pub use hqnn_data::{complexity_levels, noise_level, Dataset, SpiralConfig, Standardizer};
    pub use hqnn_flops::{CostModel, FlopsBreakdown};
    pub use hqnn_nn::{
        accuracy, one_hot, train, Activation, ActivationKind, Adam, Dense, Layer, Optimizer,
        Sequential, Sgd, TrainConfig, TrainReport,
    };
    pub use hqnn_qsim::{Circuit, EntanglerKind, Observable, QnnTemplate, RotationAxis};
    pub use hqnn_tensor::{Matrix, SeededRng};
}
