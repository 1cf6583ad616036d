//! Semantic verification of the circuit IR.
//!
//! [`Circuit::push`] validates ops as they are appended, but that guard is
//! easy to bypass: a circuit deserialized from JSON (saved models, cached
//! studies) never went through `push`, and future IR transformations could
//! emit op lists directly. [`Circuit::verify`] re-checks the *whole*
//! invariant set on a finished circuit, returning a typed, actionable
//! [`VerifyError`] instead of panicking mid-simulation:
//!
//! * every wire index is in bounds and two-qubit ops use distinct wires;
//! * every op's wire arity matches its gate kind;
//! * parameter sources are present exactly on parametrized gates, and
//!   `Input`/`Trainable` indices fall inside the circuit's declared counts;
//! * every gate matrix the simulator will apply is unitary to ≤ 1e-12
//!   (fixed angles are checked at their actual value, so a `NaN` smuggled
//!   in through JSON is rejected before it poisons a statevector);
//! * the gradient engines can handle the circuit: differentiable parameters
//!   only appear on gates with an analytic `dU/dθ` (the adjoint engine's
//!   requirement), and nonunitary ops are rejected outright.
//!
//! Ansatz constructors run `verify` in debug builds, and `hqnn-lint`'s CI
//! gate runs the qsim verifier suite, so malformed IR is caught at build
//! time rather than after a grid search diverges.

use std::fmt;

use crate::circuit::{Circuit, ParamSource, Wires};
use crate::complex::C64;
use crate::gates::{dagger, matmul2, GateKind, Matrix2};

/// Maximum tolerated deviation of `U·U†` from the identity.
pub const UNITARITY_TOL: f64 = 1e-12;

/// A semantic defect found in a circuit's IR. Every variant names the
/// offending op index (as reported by [`Circuit::ops`]) so the message is
/// actionable.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// An op references a wire `>= n_qubits`.
    WireOutOfRange {
        /// Index of the offending op.
        op: usize,
        /// Gate kind of the offending op.
        kind: GateKind,
        /// The out-of-range wire index.
        wire: usize,
        /// The circuit's wire count.
        n_qubits: usize,
    },
    /// A two-qubit op uses the same wire for control and target.
    DuplicateWires {
        /// Index of the offending op.
        op: usize,
        /// Gate kind of the offending op.
        kind: GateKind,
        /// The coincident wire.
        wire: usize,
    },
    /// An op's wire count does not match its gate's arity.
    ArityMismatch {
        /// Index of the offending op.
        op: usize,
        /// Gate kind of the offending op.
        kind: GateKind,
        /// Wires the gate requires.
        expected: usize,
        /// Wires the op supplies.
        got: usize,
    },
    /// A parametrized gate has `ParamSource::None`.
    MissingParam {
        /// Index of the offending op.
        op: usize,
        /// Gate kind of the offending op.
        kind: GateKind,
    },
    /// A fixed gate carries a parameter.
    UnexpectedParam {
        /// Index of the offending op.
        op: usize,
        /// Gate kind of the offending op.
        kind: GateKind,
    },
    /// An `Input`/`Trainable` index is outside the circuit's declared count.
    ParamIndexOutOfRange {
        /// Index of the offending op.
        op: usize,
        /// Gate kind of the offending op.
        kind: GateKind,
        /// `"input"` or `"trainable"`.
        source: &'static str,
        /// The out-of-range slot index.
        index: usize,
        /// The circuit's declared slot count for that source.
        declared: usize,
    },
    /// A fixed angle is `NaN` or infinite.
    NonFiniteAngle {
        /// Index of the offending op.
        op: usize,
        /// Gate kind of the offending op.
        kind: GateKind,
        /// The non-finite angle.
        theta: f64,
    },
    /// A gate matrix deviates from unitarity beyond [`UNITARITY_TOL`].
    NonUnitary {
        /// Index of the offending op.
        op: usize,
        /// Gate kind of the offending op.
        kind: GateKind,
        /// Angle at which the matrix was evaluated.
        theta: f64,
        /// Max elementwise deviation of `U·U†` from `I`.
        deviation: f64,
    },
    /// A differentiable parameter sits on a gate the adjoint engine cannot
    /// differentiate (no analytic `dU/dθ`).
    AdjointIncompatible {
        /// Index of the offending op.
        op: usize,
        /// Gate kind of the offending op.
        kind: GateKind,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::WireOutOfRange { op, kind, wire, n_qubits } => write!(
                f,
                "op {op} ({kind:?}): wire {wire} out of range for a {n_qubits}-qubit circuit \
                 (valid wires are 0..{n_qubits})"
            ),
            VerifyError::DuplicateWires { op, kind, wire } => write!(
                f,
                "op {op} ({kind:?}): control and target are both wire {wire}; \
                 two-qubit ops need distinct wires"
            ),
            VerifyError::ArityMismatch { op, kind, expected, got } => write!(
                f,
                "op {op} ({kind:?}): gate acts on {expected} wire(s) but the op supplies {got}"
            ),
            VerifyError::MissingParam { op, kind } => write!(
                f,
                "op {op} ({kind:?}): rotation gate requires a parameter source, got None"
            ),
            VerifyError::UnexpectedParam { op, kind } => write!(
                f,
                "op {op} ({kind:?}): fixed gate takes no parameter but one is attached"
            ),
            VerifyError::ParamIndexOutOfRange { op, kind, source, index, declared } => write!(
                f,
                "op {op} ({kind:?}): {source} slot {index} out of range; the circuit declares \
                 only {declared} {source} slot(s)"
            ),
            VerifyError::NonFiniteAngle { op, kind, theta } => write!(
                f,
                "op {op} ({kind:?}): fixed angle {theta} is not finite"
            ),
            VerifyError::NonUnitary { op, kind, theta, deviation } => write!(
                f,
                "op {op} ({kind:?}): matrix at θ={theta} deviates from unitarity by {deviation:.3e} \
                 (tolerance {UNITARITY_TOL:.0e}); the adjoint engine requires unitary gates"
            ),
            VerifyError::AdjointIncompatible { op, kind } => write!(
                f,
                "op {op} ({kind:?}): differentiable parameter on a gate with no analytic dU/dθ; \
                 the adjoint engine cannot differentiate it"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Max elementwise deviation of `m·m†` from the identity — `0.0` for an
/// exactly unitary matrix.
pub fn unitarity_deviation(m: &Matrix2) -> f64 {
    let p = matmul2(m, &dagger(m));
    let mut worst = 0.0f64;
    for (r, row) in p.iter().enumerate() {
        for (c, entry) in row.iter().enumerate() {
            let expected = if r == c { C64::ONE } else { C64::ZERO };
            let mag = (*entry - expected).norm();
            // A NaN deviation propagates as +∞ (definitely non-unitary).
            if mag.is_nan() {
                return f64::INFINITY;
            }
            worst = worst.max(mag);
        }
    }
    worst
}

impl Circuit {
    /// Verifies the whole IR invariant set (see the [module docs](self)).
    ///
    /// Returns the **first** defect in op order, so fixing errors one at a
    /// time converges. A circuit built exclusively through [`Circuit::push`]
    /// and the typed append methods always verifies; the interesting inputs
    /// are deserialized or programmatically transformed circuits.
    pub fn verify(&self) -> Result<(), VerifyError> {
        for (i, op) in self.ops().iter().enumerate() {
            let kind = op.kind;
            // Wire arity, bounds, and distinctness.
            match op.wires {
                Wires::One(w) => {
                    if kind.arity() != 1 {
                        return Err(VerifyError::ArityMismatch {
                            op: i,
                            kind,
                            expected: kind.arity(),
                            got: 1,
                        });
                    }
                    if w >= self.n_qubits() {
                        return Err(VerifyError::WireOutOfRange {
                            op: i,
                            kind,
                            wire: w,
                            n_qubits: self.n_qubits(),
                        });
                    }
                }
                Wires::Two(a, b) => {
                    if kind.arity() != 2 {
                        return Err(VerifyError::ArityMismatch {
                            op: i,
                            kind,
                            expected: kind.arity(),
                            got: 2,
                        });
                    }
                    for w in [a, b] {
                        if w >= self.n_qubits() {
                            return Err(VerifyError::WireOutOfRange {
                                op: i,
                                kind,
                                wire: w,
                                n_qubits: self.n_qubits(),
                            });
                        }
                    }
                    if a == b {
                        return Err(VerifyError::DuplicateWires {
                            op: i,
                            kind,
                            wire: a,
                        });
                    }
                }
            }
            // Parameter presence and slot bounds.
            if kind.is_parametrized() && op.param == ParamSource::None {
                return Err(VerifyError::MissingParam { op: i, kind });
            }
            if !kind.is_parametrized() && op.param != ParamSource::None {
                return Err(VerifyError::UnexpectedParam { op: i, kind });
            }
            match op.param {
                ParamSource::Input(idx) if idx >= self.input_count() => {
                    return Err(VerifyError::ParamIndexOutOfRange {
                        op: i,
                        kind,
                        source: "input",
                        index: idx,
                        declared: self.input_count(),
                    });
                }
                ParamSource::Trainable(idx) if idx >= self.trainable_count() => {
                    return Err(VerifyError::ParamIndexOutOfRange {
                        op: i,
                        kind,
                        source: "trainable",
                        index: idx,
                        declared: self.trainable_count(),
                    });
                }
                _ => {}
            }
            // Unitarity of the matrix the simulator will actually apply.
            // SWAP has no 2×2 matrix (and is exactly unitary by
            // construction); everything else is checked — fixed gates and
            // runtime-bound rotations at a probe angle, fixed angles at
            // their real value so non-finite angles are caught here.
            if kind != GateKind::Swap {
                let theta = match op.param {
                    ParamSource::Fixed(t) => {
                        if !t.is_finite() {
                            return Err(VerifyError::NonFiniteAngle {
                                op: i,
                                kind,
                                theta: t,
                            });
                        }
                        t
                    }
                    // Probe angle: irrational-ish, avoids the θ=0 identity
                    // special case masking a broken matrix entry.
                    _ => 0.731,
                };
                let deviation = unitarity_deviation(&kind.matrix(theta));
                if deviation > UNITARITY_TOL {
                    return Err(VerifyError::NonUnitary {
                        op: i,
                        kind,
                        theta,
                        deviation,
                    });
                }
            }
            // Gradient-engine compatibility: the adjoint walk needs an
            // analytic derivative for every differentiable parameter.
            if op.param.is_differentiable() && kind.dmatrix(0.731).is_none() {
                return Err(VerifyError::AdjointIncompatible { op: i, kind });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{EntanglerKind, QnnTemplate};

    #[test]
    fn every_template_the_search_space_can_emit_verifies() {
        for kind in [EntanglerKind::Basic, EntanglerKind::Strong] {
            for n_qubits in 1..=6 {
                for depth in 1..=4 {
                    let c = QnnTemplate::new(n_qubits, depth, kind).build();
                    assert_eq!(
                        c.verify(),
                        Ok(()),
                        "{kind:?}({n_qubits}q,{depth}l) must verify"
                    );
                }
            }
        }
    }

    #[test]
    fn pushed_circuits_always_verify() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.rx(1, ParamSource::Input(0));
        c.rot(
            2,
            ParamSource::Trainable(0),
            ParamSource::Trainable(1),
            ParamSource::Trainable(2),
        );
        c.cnot(0, 2);
        c.swap(1, 2);
        c.cz(0, 1);
        c.controlled_rotation(GateKind::Crz, 0, 1, ParamSource::Fixed(0.4));
        assert_eq!(c.verify(), Ok(()));
    }

    #[test]
    fn unitarity_deviation_is_zero_for_rotations() {
        assert_eq!(unitarity_deviation(&GateKind::RX.matrix(0.0)), 0.0);
        assert!(unitarity_deviation(&GateKind::RY.matrix(1.3)) <= UNITARITY_TOL);
        // A NaN angle produces an unambiguously non-unitary matrix.
        assert!(unitarity_deviation(&GateKind::RX.matrix(f64::NAN)) > 1.0);
    }
}
