//! Statevector quantum circuit simulator with analytic gradients.
//!
//! This crate is the Rust replacement for PennyLane's `default.qubit` device
//! used by the paper: a dense statevector simulator over a standard gate set,
//! circuit IR distinguishing **encoded inputs** from **trainable parameters**,
//! the two variational templates the paper evaluates —
//! [`ansatz::basic_entangler_layers`] (BEL) and
//! [`ansatz::strongly_entangling_layers`] (SEL) — and two independent
//! differentiation engines:
//!
//! * [`gradient::adjoint_vjp`] — O(gates · 2ⁿ) reverse-pass differentiation
//!   of the loss-weighted observable sum, one sweep per sample. This is the
//!   training path ([`batch::vjp_batch`]), and what makes hybrid backprop
//!   tractable; [`gradient::adjoint`] runs the same sweep once per
//!   observable to return the full Jacobian, the oracle the examples,
//!   benchmarks and property tests use, and
//! * [`gradient::parameter_shift`] — the textbook two-term shift rule, used to
//!   cross-check the adjoint engines and for the gradient-cost ablation
//!   bench.
//!
//! Qubit ordering is **little-endian**: wire `q` corresponds to bit `q` of the
//! amplitude index, so `|q1 q0⟩ = |10⟩` is amplitude index `2`.
//!
//! # Example
//!
//! ```
//! use hqnn_qsim::{Circuit, Observable, ParamSource};
//!
//! // ⟨Z⟩ after RX(θ) on |0⟩ is cos(θ).
//! let mut c = Circuit::new(1);
//! c.rx(0, ParamSource::Trainable(0));
//! let theta = 0.3_f64;
//! let e = c.expectations(&[], &[theta], &[Observable::z(0)]);
//! assert!((e[0] - theta.cos()).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ansatz;
pub mod batch;
pub mod batch_state;
pub mod circuit;
pub mod complex;
pub mod density;
pub mod fuse;
pub mod gates;
pub mod gradient;
pub mod measurement;
pub mod metrics;
pub mod noise;
pub mod observable;
pub mod render;
pub mod state;
pub mod verify;

pub use ansatz::{EntanglerKind, QnnTemplate, RotationAxis};
pub use batch::{gradients_batch, vjp_batch, GradEngine};
pub use batch_state::BatchState;
pub use circuit::{Circuit, Op, ParamSource, Wires};
pub use complex::C64;
pub use density::DensityMatrix;
pub use fuse::{fusion_enabled, fusion_level, with_fusion, with_fusion_level, FusePlan};
pub use gates::GateKind;
pub use gradient::{adjoint, adjoint_vjp, finite_diff, parameter_shift, Gradients, Vjp};
pub use noise::{NoiseChannel, NoiseModel};
pub use observable::{Observable, Pauli};
pub use state::StateVector;
pub use verify::{unitarity_deviation, unitarity_deviation4, VerifyError, UNITARITY_TOL};

/// Maximum supported qubit count. A 2²⁴-amplitude state is ~256 MiB of
/// complex doubles — beyond that a dense simulator stops being the right
/// tool, so construction is rejected early instead of OOM-ing later.
pub const MAX_QUBITS: usize = 24;
