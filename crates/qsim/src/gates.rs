//! Gate set and gate matrices.
//!
//! The set covers everything PennyLane's `AngleEmbedding`,
//! `BasicEntanglerLayers` and `StronglyEntanglingLayers` templates emit
//! (rotations + CNOT), plus the common fixed gates and controlled rotations
//! so the simulator is useful beyond the paper's two ansätze.

use serde::{Deserialize, Serialize};

use crate::complex::C64;

/// A 2×2 complex matrix (row-major), the unitary of a single-qubit gate.
pub type Matrix2 = [[C64; 2]; 2];

/// The supported gate kinds.
///
/// Single-qubit fixed gates, single-qubit rotations (one parameter each), and
/// two-qubit gates. `Rot(φ, θ, ω)` from PennyLane is intentionally absent: the
/// ansatz builders decompose it into `RZ(φ)·RY(θ)·RZ(ω)` so that every
/// parametrized op carries exactly one parameter — which keeps both the
/// parameter-shift rule and the adjoint recursion per-gate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Identity.
    I,
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg,
    /// `T = diag(1, e^{iπ/4})`.
    T,
    /// `T† = diag(1, e^{-iπ/4})`.
    Tdg,
    /// X-rotation `RX(θ) = e^{-iθX/2}`.
    RX,
    /// Y-rotation `RY(θ) = e^{-iθY/2}`.
    RY,
    /// Z-rotation `RZ(θ) = e^{-iθZ/2}`.
    RZ,
    /// Phase shift `diag(1, e^{iθ})`.
    PhaseShift,
    /// Controlled-NOT (control, target).
    Cnot,
    /// Controlled-Z.
    Cz,
    /// Swap.
    Swap,
    /// Controlled `RX(θ)`.
    Crx,
    /// Controlled `RY(θ)`.
    Cry,
    /// Controlled `RZ(θ)`.
    Crz,
}

impl GateKind {
    /// Number of wires the gate acts on (1 or 2).
    pub fn arity(self) -> usize {
        match self {
            GateKind::Cnot
            | GateKind::Cz
            | GateKind::Swap
            | GateKind::Crx
            | GateKind::Cry
            | GateKind::Crz => 2,
            _ => 1,
        }
    }

    /// `true` when the gate takes a rotation angle.
    pub fn is_parametrized(self) -> bool {
        matches!(
            self,
            GateKind::RX
                | GateKind::RY
                | GateKind::RZ
                | GateKind::PhaseShift
                | GateKind::Crx
                | GateKind::Cry
                | GateKind::Crz
        )
    }

    /// `true` when the gate is a controlled single-qubit operation (its
    /// action on the target subspace is given by [`GateKind::matrix`]).
    pub fn is_controlled(self) -> bool {
        matches!(
            self,
            GateKind::Cnot | GateKind::Cz | GateKind::Crx | GateKind::Cry | GateKind::Crz
        )
    }

    /// `true` when the two-term parameter-shift rule
    /// `dE/dθ = (E(θ+π/2) − E(θ−π/2)) / 2` is exact for this gate.
    ///
    /// Controlled rotations need the four-term rule and are excluded; the
    /// paper's templates only use uncontrolled rotations, which are covered.
    pub fn supports_two_term_shift(self) -> bool {
        matches!(
            self,
            GateKind::RX | GateKind::RY | GateKind::RZ | GateKind::PhaseShift
        )
    }

    /// The 2×2 unitary of the gate (for controlled gates, the unitary applied
    /// to the target when the control is `|1⟩`).
    ///
    /// `theta` is ignored by non-parametrized gates.
    ///
    /// # Panics
    ///
    /// Panics for [`GateKind::Swap`], which has no single-qubit matrix.
    pub fn matrix(self, theta: f64) -> Matrix2 {
        let z = C64::ZERO;
        let o = C64::ONE;
        let i = C64::i();
        let half = theta / 2.0;
        match self {
            GateKind::I => [[o, z], [z, o]],
            GateKind::H => {
                let h = C64::from(std::f64::consts::FRAC_1_SQRT_2);
                [[h, h], [h, -h]]
            }
            GateKind::X | GateKind::Cnot => [[z, o], [o, z]],
            GateKind::Y => [[z, -i], [i, z]],
            GateKind::Z | GateKind::Cz => [[o, z], [z, -o]],
            GateKind::S => [[o, z], [z, i]],
            GateKind::Sdg => [[o, z], [z, -i]],
            GateKind::T => [
                [o, z],
                [z, C64::from_polar_unit(std::f64::consts::FRAC_PI_4)],
            ],
            GateKind::Tdg => [
                [o, z],
                [z, C64::from_polar_unit(-std::f64::consts::FRAC_PI_4)],
            ],
            GateKind::RX | GateKind::Crx => {
                let c = C64::from(half.cos());
                let s = C64::new(0.0, -half.sin());
                [[c, s], [s, c]]
            }
            GateKind::RY | GateKind::Cry => {
                let c = C64::from(half.cos());
                let s = C64::from(half.sin());
                [[c, -s], [s, c]]
            }
            GateKind::RZ | GateKind::Crz => [
                [C64::from_polar_unit(-half), z],
                [z, C64::from_polar_unit(half)],
            ],
            GateKind::PhaseShift => [[o, z], [z, C64::from_polar_unit(theta)]],
            // lint:allow(panic): callers route Swap via apply_swap, never matrix()
            GateKind::Swap => panic!("SWAP has no single-qubit matrix"),
        }
    }

    /// Derivative `dU/dθ` of a parametrized gate's 2×2 matrix, used by the
    /// adjoint differentiation pass. Returns `None` for fixed gates.
    ///
    /// It is `GateKind::dmatrix_from` applied to `self.matrix(theta)`,
    /// which is what the adjoint backward does with the matrices its
    /// forward recorded, so the two agree bit for bit at every angle.
    pub fn dmatrix(self, theta: f64) -> Option<Matrix2> {
        self.dmatrix_from(&self.stored_matrix(theta))
    }

    /// [`GateKind::matrix`] behind a call the optimiser cannot see into,
    /// so its entries reach [`GateKind::dmatrix_from`] as the stored
    /// values a recorded forward holds: a negation inside `matrix` cannot
    /// be folded into the derivative's arithmetic, which could flip the
    /// sign of a NaN entry (from a non-finite `θ`) against the backward's.
    #[inline(never)]
    fn stored_matrix(self, theta: f64) -> Matrix2 {
        self.matrix(theta)
    }

    /// `dU/dθ` of the gate whose matrix at `θ` is `u`, read off `u` instead
    /// of re-evaluating `sin`/`cos`: each entry is `±½` times, or `∓i/2`
    /// times, the entry of `u` holding `sin(θ/2)`, `cos(θ/2)` or
    /// `e^{±iθ/2}`. `None` for fixed gates.
    pub(crate) fn dmatrix_from(self, u: &Matrix2) -> Option<Matrix2> {
        let z = C64::ZERO;
        match self {
            GateKind::RX | GateKind::Crx => {
                // u01 = -i·sin(θ/2), u00 = cos(θ/2).
                let dc = C64::from(u[0][1].im / 2.0);
                let ds = C64::new(0.0, -u[0][0].re / 2.0);
                Some([[dc, ds], [ds, dc]])
            }
            GateKind::RY | GateKind::Cry => {
                // u10 = sin(θ/2), u00 = cos(θ/2).
                let dc = C64::from(-u[1][0].re / 2.0);
                let ds = C64::from(u[0][0].re / 2.0);
                Some([[dc, -ds], [ds, dc]])
            }
            GateKind::RZ | GateKind::Crz => Some([
                [u[0][0] * C64::new(0.0, -0.5), z],
                [z, u[1][1] * C64::new(0.0, 0.5)],
            ]),
            GateKind::PhaseShift => Some([[z, z], [z, u[1][1] * C64::i()]]),
            _ => None,
        }
    }
}

/// Conjugate transpose of a 2×2 matrix.
pub fn dagger(m: &Matrix2) -> Matrix2 {
    [
        [m[0][0].conj(), m[1][0].conj()],
        [m[0][1].conj(), m[1][1].conj()],
    ]
}

/// Product `a · b` of two 2×2 complex matrices.
pub fn matmul2(a: &Matrix2, b: &Matrix2) -> Matrix2 {
    let mut out = [[C64::ZERO; 2]; 2];
    for (r, out_row) in out.iter_mut().enumerate() {
        for (c, out_rc) in out_row.iter_mut().enumerate() {
            *out_rc = a[r][0] * b[0][c] + a[r][1] * b[1][c];
        }
    }
    out
}

/// `true` when `m` is unitary to within `tol` (i.e. `m·m† ≈ I`).
pub fn is_unitary(m: &Matrix2, tol: f64) -> bool {
    let p = matmul2(m, &dagger(m));
    p[0][0].approx_eq(C64::ONE, tol)
        && p[1][1].approx_eq(C64::ONE, tol)
        && p[0][1].approx_eq(C64::ZERO, tol)
        && p[1][0].approx_eq(C64::ZERO, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_SINGLE: &[GateKind] = &[
        GateKind::I,
        GateKind::H,
        GateKind::X,
        GateKind::Y,
        GateKind::Z,
        GateKind::S,
        GateKind::Sdg,
        GateKind::T,
        GateKind::Tdg,
        GateKind::RX,
        GateKind::RY,
        GateKind::RZ,
        GateKind::PhaseShift,
    ];

    #[test]
    fn all_matrices_are_unitary() {
        for &g in ALL_SINGLE {
            for k in 0..8 {
                let theta = k as f64 * 0.7 - 2.0;
                assert!(is_unitary(&g.matrix(theta), 1e-12), "{g:?} θ={theta}");
            }
        }
    }

    #[test]
    fn rotation_at_zero_is_identity() {
        for g in [
            GateKind::RX,
            GateKind::RY,
            GateKind::RZ,
            GateKind::PhaseShift,
        ] {
            let m = g.matrix(0.0);
            assert!(m[0][0].approx_eq(C64::ONE, 1e-12));
            assert!(m[1][1].approx_eq(C64::ONE, 1e-12));
            assert!(m[0][1].approx_eq(C64::ZERO, 1e-12));
        }
    }

    #[test]
    fn rx_pi_is_minus_i_x() {
        let m = GateKind::RX.matrix(std::f64::consts::PI);
        assert!(m[0][1].approx_eq(C64::new(0.0, -1.0), 1e-12));
        assert!(m[0][0].approx_eq(C64::ZERO, 1e-12));
    }

    #[test]
    fn s_squared_is_z() {
        let s = GateKind::S.matrix(0.0);
        let z = GateKind::Z.matrix(0.0);
        let s2 = matmul2(&s, &s);
        for r in 0..2 {
            for c in 0..2 {
                assert!(s2[r][c].approx_eq(z[r][c], 1e-12));
            }
        }
    }

    #[test]
    fn t_squared_is_s() {
        let t = GateKind::T.matrix(0.0);
        let s = GateKind::S.matrix(0.0);
        let t2 = matmul2(&t, &t);
        for r in 0..2 {
            for c in 0..2 {
                assert!(t2[r][c].approx_eq(s[r][c], 1e-12));
            }
        }
    }

    #[test]
    fn dagger_inverts_unitaries() {
        let m = GateKind::RY.matrix(1.23);
        let p = matmul2(&m, &dagger(&m));
        assert!(p[0][0].approx_eq(C64::ONE, 1e-12));
        assert!(p[0][1].approx_eq(C64::ZERO, 1e-12));
    }

    #[test]
    fn dmatrix_matches_finite_difference() {
        let eps = 1e-6;
        for g in [
            GateKind::RX,
            GateKind::RY,
            GateKind::RZ,
            GateKind::PhaseShift,
            GateKind::Crx,
            GateKind::Cry,
            GateKind::Crz,
        ] {
            let theta = 0.9;
            let d = g.dmatrix(theta).expect("parametrized");
            let up = g.matrix(theta + eps);
            let dn = g.matrix(theta - eps);
            for r in 0..2 {
                for c in 0..2 {
                    let fd = (up[r][c] - dn[r][c]).scale(1.0 / (2.0 * eps));
                    assert!(d[r][c].approx_eq(fd, 1e-6), "{g:?} [{r}][{c}]");
                }
            }
        }
    }

    #[test]
    fn dmatrix_none_for_fixed_gates() {
        assert!(GateKind::H.dmatrix(0.0).is_none());
        assert!(GateKind::Cnot.dmatrix(0.0).is_none());
    }

    #[test]
    fn arity_and_flags() {
        assert_eq!(GateKind::H.arity(), 1);
        assert_eq!(GateKind::Cnot.arity(), 2);
        assert!(GateKind::Crx.is_parametrized());
        assert!(!GateKind::Crx.supports_two_term_shift());
        assert!(GateKind::RZ.supports_two_term_shift());
        assert!(GateKind::Cz.is_controlled());
        assert!(!GateKind::Swap.is_controlled());
    }

    #[test]
    #[should_panic(expected = "SWAP")]
    fn swap_matrix_panics() {
        let _ = GateKind::Swap.matrix(0.0);
    }
}
