//! Mixed-state simulation: density matrices and Kraus channels.
//!
//! The paper frames HQNNs as a NISQ-era architecture (§I) where real quantum
//! layers would run on *noisy* hardware; its evaluation simulates ideal
//! circuits. This module supplies the machinery to drop that idealisation:
//! a dense density-matrix simulator with the standard single-qubit noise
//! channels, so the workspace can quantify how much of the ideal layers'
//! behaviour survives decoherence (see the `noisy_circuits` example and the
//! `noise` bench).
//!
//! Memory is O(4ⁿ); [`MAX_DENSITY_QUBITS`] caps construction at a size where
//! a dense mixed-state simulator is still the right tool.

use std::fmt;

use crate::circuit::{Circuit, Op, ParamSource, Wires};
use crate::complex::C64;
use crate::gates::{dagger, GateKind, Matrix2};
use crate::noise::NoiseModel;
use crate::observable::Observable;
use crate::state::StateVector;

/// Maximum qubit count for density-matrix simulation (a 2¹⁰×2¹⁰ complex
/// matrix is 16 MiB; beyond that dense mixed-state simulation stops being
/// sensible here).
pub const MAX_DENSITY_QUBITS: usize = 10;

/// A density matrix `ρ` over `n` qubits, stored dense row-major
/// (`2ⁿ × 2ⁿ` complex entries, little-endian wire order like
/// [`StateVector`]).
///
/// # Example
///
/// ```
/// use hqnn_qsim::{DensityMatrix, StateVector};
///
/// let rho = DensityMatrix::from_state(&StateVector::new(2));
/// assert!((rho.trace().re - 1.0).abs() < 1e-12);
/// assert!((rho.purity() - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    elems: Vec<C64>,
}

impl DensityMatrix {
    /// The ground state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > MAX_DENSITY_QUBITS`.
    pub fn new(n_qubits: usize) -> Self {
        Self::from_state(&StateVector::new(Self::checked(n_qubits)))
    }

    fn checked(n_qubits: usize) -> usize {
        assert!(n_qubits > 0, "density matrix needs at least one qubit");
        assert!(
            n_qubits <= MAX_DENSITY_QUBITS,
            "{n_qubits} qubits exceeds MAX_DENSITY_QUBITS = {MAX_DENSITY_QUBITS}"
        );
        n_qubits
    }

    /// The pure state `|ψ⟩⟨ψ|`.
    ///
    /// # Panics
    ///
    /// Panics if the state has more than [`MAX_DENSITY_QUBITS`] qubits.
    pub fn from_state(state: &StateVector) -> Self {
        let n = Self::checked(state.n_qubits());
        let dim = 1usize << n;
        let amps = state.amplitudes();
        let mut elems = vec![C64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                elems[r * dim + c] = amps[r] * amps[c].conj();
            }
        }
        Self {
            n_qubits: n,
            dim,
            elems,
        }
    }

    /// The maximally mixed state `I / 2ⁿ`.
    ///
    /// # Panics
    ///
    /// As for [`DensityMatrix::new`].
    pub fn maximally_mixed(n_qubits: usize) -> Self {
        let n = Self::checked(n_qubits);
        let dim = 1usize << n;
        let mut elems = vec![C64::ZERO; dim * dim];
        let p = 1.0 / dim as f64;
        for r in 0..dim {
            elems[r * dim + r] = C64::from(p);
        }
        Self {
            n_qubits: n,
            dim,
            elems,
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension `2ⁿ`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Matrix element `ρ[r][c]`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn element(&self, r: usize, c: usize) -> C64 {
        assert!(r < self.dim && c < self.dim, "index out of bounds");
        self.elems[r * self.dim + c]
    }

    /// `Tr ρ` — exactly 1 for any physical state.
    pub fn trace(&self) -> C64 {
        hqnn_tensor::fold::ordered_sum(
            C64::ZERO,
            (0..self.dim).map(|i| self.elems[i * self.dim + i]),
        )
    }

    /// Purity `Tr ρ²` — 1 for pure states, `1/2ⁿ` for the maximally mixed
    /// state.
    pub fn purity(&self) -> f64 {
        // Tr ρ² = Σ_{rc} ρ_{rc} ρ_{cr} = Σ_{rc} |ρ_{rc}|² for Hermitian ρ.
        hqnn_tensor::fold::ordered_sum_f64(self.elems.iter().map(|e| e.norm_sqr()))
    }

    /// Probability of measuring basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= dim`.
    pub fn probability(&self, index: usize) -> f64 {
        self.element(index, index).re
    }

    /// Expectation `Tr(Oρ)` of a Pauli-string observable.
    ///
    /// # Panics
    ///
    /// Panics if the observable touches a wire outside the state.
    pub fn expectation(&self, observable: &Observable) -> f64 {
        // Apply O to ρ from the left by acting on the *row* index, then trace.
        let mut transformed = self.clone();
        for &(wire, p) in observable.factors() {
            let gate = match p {
                crate::observable::Pauli::X => GateKind::X,
                crate::observable::Pauli::Y => GateKind::Y,
                crate::observable::Pauli::Z => GateKind::Z,
            };
            transformed.left_multiply_single(&gate.matrix(0.0), wire);
        }
        let t = transformed.trace();
        debug_assert!(t.im.abs() < 1e-9, "expectation should be real, got {t}");
        t.re
    }

    /// `⟨Z_wire⟩` via the diagonal (cheaper than the generic path).
    ///
    /// # Panics
    ///
    /// Panics if `wire >= n_qubits`.
    pub fn expectation_z(&self, wire: usize) -> f64 {
        assert!(wire < self.n_qubits, "wire {wire} out of range");
        let mask = 1usize << wire;
        hqnn_tensor::fold::ordered_sum_f64((0..self.dim).map(|i| {
            let sign = if i & mask == 0 { 1.0 } else { -1.0 };
            sign * self.elems[i * self.dim + i].re
        }))
    }

    /// Applies `M` (2×2) to the row index on `target` — `ρ → (M ⊗ I) ρ`.
    fn left_multiply_single(&mut self, m: &Matrix2, target: usize) {
        let stride = 1usize << target;
        for col in 0..self.dim {
            let mut row = 0;
            while row < self.dim {
                for r in row..row + stride {
                    let a = self.elems[r * self.dim + col];
                    let b = self.elems[(r + stride) * self.dim + col];
                    self.elems[r * self.dim + col] = m[0][0] * a + m[0][1] * b;
                    self.elems[(r + stride) * self.dim + col] = m[1][0] * a + m[1][1] * b;
                }
                row += stride << 1;
            }
        }
    }

    /// Applies `M†` (2×2) to the column index on `target` — `ρ → ρ (M† ⊗ I)`.
    fn right_multiply_single_dagger(&mut self, m: &Matrix2, target: usize) {
        let md = dagger(m);
        let stride = 1usize << target;
        for row in 0..self.dim {
            let base = row * self.dim;
            let mut col = 0;
            while col < self.dim {
                for c in col..col + stride {
                    let a = self.elems[base + c];
                    let b = self.elems[base + c + stride];
                    // ρ·M†: columns combine with M† entries transposed.
                    self.elems[base + c] = a * md[0][0] + b * md[1][0];
                    self.elems[base + c + stride] = a * md[0][1] + b * md[1][1];
                }
                col += stride << 1;
            }
        }
    }

    /// Unitary conjugation `ρ → U ρ U†` for a single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if `target >= n_qubits`.
    pub fn apply_single(&mut self, m: &Matrix2, target: usize) {
        assert!(target < self.n_qubits, "target wire out of range");
        self.left_multiply_single(m, target);
        self.right_multiply_single_dagger(m, target);
    }

    /// Unitary conjugation for a controlled single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics if the wires coincide or are out of range.
    pub fn apply_controlled(&mut self, m: &Matrix2, control: usize, target: usize) {
        assert!(
            control < self.n_qubits && target < self.n_qubits,
            "wire out of range"
        );
        assert_ne!(control, target, "control and target must differ");
        // Build the full 4-dim controlled action via the |1⟩⟨1| projector
        // trick on both sides: apply to rows where control bit is 1.
        let c_mask = 1usize << control;
        let t_stride = 1usize << target;
        // Left multiply on rows with control = 1.
        for col in 0..self.dim {
            let mut row = 0;
            while row < self.dim {
                for r in row..row + t_stride {
                    if r & c_mask == 0 {
                        continue;
                    }
                    let a = self.elems[r * self.dim + col];
                    let b = self.elems[(r + t_stride) * self.dim + col];
                    self.elems[r * self.dim + col] = m[0][0] * a + m[0][1] * b;
                    self.elems[(r + t_stride) * self.dim + col] = m[1][0] * a + m[1][1] * b;
                }
                row += t_stride << 1;
            }
        }
        // Right multiply by U† on columns with control = 1.
        let md = dagger(m);
        for row in 0..self.dim {
            let base = row * self.dim;
            let mut col = 0;
            while col < self.dim {
                for c in col..col + t_stride {
                    if c & c_mask == 0 {
                        continue;
                    }
                    let a = self.elems[base + c];
                    let b = self.elems[base + c + t_stride];
                    self.elems[base + c] = a * md[0][0] + b * md[1][0];
                    self.elems[base + c + t_stride] = a * md[0][1] + b * md[1][1];
                }
                col += t_stride << 1;
            }
        }
    }

    /// Applies a Kraus channel `ρ → Σ_k K_k ρ K_k†` on one wire.
    ///
    /// # Panics
    ///
    /// Panics if `target >= n_qubits` or `kraus` is empty.
    pub fn apply_kraus(&mut self, kraus: &[Matrix2], target: usize) {
        assert!(target < self.n_qubits, "target wire out of range");
        assert!(
            !kraus.is_empty(),
            "channel needs at least one Kraus operator"
        );
        let mut acc = vec![C64::ZERO; self.elems.len()];
        for k in kraus {
            let mut term = self.clone();
            term.left_multiply_single(k, target);
            term.right_multiply_single_dagger(k, target);
            for (a, t) in acc.iter_mut().zip(&term.elems) {
                *a += *t;
            }
        }
        self.elems = acc;
    }

    /// Runs a circuit on `|0…0⟩⟨0…0|`, interleaving each gate with the noise
    /// model's channels (noise is applied to every wire the gate touched,
    /// after the gate — the standard gate-error model).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Circuit::run`], or if the
    /// circuit is wider than [`MAX_DENSITY_QUBITS`].
    pub fn run_noisy(
        circuit: &Circuit,
        inputs: &[f64],
        params: &[f64],
        noise: &NoiseModel,
    ) -> Self {
        let mut rho = DensityMatrix::new(circuit.n_qubits());
        for op in circuit.ops() {
            rho.apply_op(op, inputs, params);
            match op.wires {
                Wires::One(w) => noise.apply_after_gate(&mut rho, w),
                Wires::Two(a, b) => {
                    noise.apply_after_gate(&mut rho, a);
                    noise.apply_after_gate(&mut rho, b);
                }
            }
        }
        rho
    }

    fn apply_op(&mut self, op: &Op, inputs: &[f64], params: &[f64]) {
        let theta = if op.kind.is_parametrized() {
            match op.param {
                ParamSource::None => 0.0,
                _ => op.param.resolve(inputs, params),
            }
        } else {
            0.0
        };
        match op.wires {
            Wires::One(w) => self.apply_single(&op.kind.matrix(theta), w),
            Wires::Two(a, b) => match op.kind {
                GateKind::Swap => {
                    // SWAP = 3 CNOTs; cheap at these sizes and reuses the
                    // controlled kernel.
                    let x = GateKind::X.matrix(0.0);
                    self.apply_controlled(&x, a, b);
                    self.apply_controlled(&x, b, a);
                    self.apply_controlled(&x, a, b);
                }
                _ => self.apply_controlled(&op.kind.matrix(theta), a, b),
            },
        }
    }
}

impl fmt::Display for DensityMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DensityMatrix({} qubits, purity {:.4}) diag [",
            self.n_qubits,
            self.purity()
        )?;
        for i in 0..self.dim {
            let p = self.probability(i);
            if p > 1e-12 {
                writeln!(f, "  |{:0width$b}⟩: {p:.6}", i, width = self.n_qubits)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::noise::NoiseModel;

    #[test]
    fn ground_state_is_pure_and_normalised() {
        let rho = DensityMatrix::new(3);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert_eq!(rho.probability(0), 1.0);
        assert_eq!(rho.n_qubits(), 3);
        assert_eq!(rho.dim(), 8);
    }

    #[test]
    fn maximally_mixed_has_min_purity() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 0.25).abs() < 1e-12);
        for wire in 0..2 {
            assert!(rho.expectation_z(wire).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_evolution_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.rx(1, ParamSource::Fixed(0.7));
        c.cnot(0, 2);
        c.rz(2, ParamSource::Fixed(-0.4));
        c.ry(0, ParamSource::Fixed(1.1));
        c.swap(1, 2);
        let psi = c.run(&[], &[]);
        let rho = DensityMatrix::run_noisy(&c, &[], &[], &NoiseModel::noiseless());
        assert!((rho.purity() - 1.0).abs() < 1e-10);
        for wire in 0..3 {
            assert!(
                (rho.expectation_z(wire) - psi.expectation_z(wire)).abs() < 1e-10,
                "wire {wire}"
            );
        }
        for i in 0..8 {
            assert!(
                (rho.probability(i) - psi.probability(i)).abs() < 1e-10,
                "idx {i}"
            );
        }
    }

    #[test]
    fn expectation_matches_fast_path() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cnot(0, 1);
        let rho = DensityMatrix::run_noisy(&c, &[], &[], &NoiseModel::noiseless());
        for wire in 0..2 {
            let generic = rho.expectation(&Observable::z(wire));
            assert!((generic - rho.expectation_z(wire)).abs() < 1e-12);
        }
        // Bell state: ⟨X⟩ = 0 per qubit, but ⟨XX⟩ = +1.
        let xx = Observable::pauli_string([
            (0, crate::observable::Pauli::X),
            (1, crate::observable::Pauli::X),
        ]);
        assert!((rho.expectation(&xx) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn from_state_outer_product() {
        let mut c = Circuit::new(1);
        c.h(0);
        let psi = c.run(&[], &[]);
        let rho = DensityMatrix::from_state(&psi);
        // |+⟩⟨+| has all entries 1/2.
        for r in 0..2 {
            for c_ in 0..2 {
                assert!((rho.element(r, c_).re - 0.5).abs() < 1e-12);
                assert!(rho.element(r, c_).im.abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "MAX_DENSITY_QUBITS")]
    fn too_wide_rejected() {
        let _ = DensityMatrix::new(MAX_DENSITY_QUBITS + 1);
    }
}
