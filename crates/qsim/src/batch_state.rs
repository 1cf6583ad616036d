//! Contiguous multi-row amplitude storage for gate-major batch execution.
//!
//! A [`BatchState`] holds the statevectors of a chunk of batch rows in one
//! allocation — row `r`'s amplitudes occupy the stride
//! `r·2^n .. (r+1)·2^n` — so the gate-major driver can sweep one gate
//! across every row while its matrix is hot. Because each shared-matrix
//! kernel in [`crate::state`] only requires the buffer length to be a
//! multiple of its largest block, sweeping the *whole* buffer in one kernel
//! call transforms every row exactly as a per-row call would, amplitude
//! pair for amplitude pair: the per-row FP operation sequence — and
//! therefore the result — is bitwise identical to running each row alone.

use crate::complex::C64;
use crate::gates::Matrix2;
use crate::state::{apply_single_amps, apply_swap_amps, transform_control1_pairs_amps};
use crate::{StateVector, MAX_QUBITS};

/// A chunk of batch rows stored as one contiguous amplitude buffer, each
/// row initialised to `|0…0⟩`.
#[derive(Clone, Debug)]
pub struct BatchState {
    n_qubits: usize,
    rows: usize,
    amps: Vec<C64>,
}

impl BatchState {
    /// Allocates `rows` ground-state rows of `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > MAX_QUBITS`.
    pub fn new(n_qubits: usize, rows: usize) -> Self {
        assert!(n_qubits > 0, "state needs at least one qubit");
        assert!(
            n_qubits <= MAX_QUBITS,
            "{n_qubits} qubits exceeds MAX_QUBITS = {MAX_QUBITS}"
        );
        let dim = 1usize << n_qubits;
        let mut amps = vec![C64::ZERO; rows * dim];
        for r in 0..rows {
            amps[r * dim] = C64::ONE;
        }
        Self {
            n_qubits,
            rows,
            amps,
        }
    }

    /// Allocates `rows` all-zero (unnormalised) rows — the accumulator the
    /// adjoint sweep sums each row's seed `λ = Σ_o w_o·O_o|ψ⟩` into.
    pub(crate) fn zeroed(n_qubits: usize, rows: usize) -> Self {
        let mut batch = Self::new(n_qubits, rows);
        batch.amps.fill(C64::ZERO);
        batch
    }

    /// Overwrites every row with `other`'s amplitudes without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if the two chunks differ in shape.
    pub(crate) fn copy_from(&mut self, other: &Self) {
        assert_eq!(
            (self.n_qubits, self.rows),
            (other.n_qubits, other.rows),
            "batch shape mismatch"
        );
        self.amps.copy_from_slice(&other.amps);
    }

    /// Number of qubits per row.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of rows in the chunk.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Amplitudes per row (`2^n_qubits`).
    pub fn row_dim(&self) -> usize {
        1usize << self.n_qubits
    }

    /// Borrow of row `r`'s amplitudes.
    pub fn row(&self, r: usize) -> &[C64] {
        let dim = self.row_dim();
        &self.amps[r * dim..(r + 1) * dim]
    }

    /// Mutable borrow of row `r`'s amplitudes, for per-row (input-dependent)
    /// gate applications.
    pub fn row_mut(&mut self, r: usize) -> &mut [C64] {
        let dim = self.row_dim();
        &mut self.amps[r * dim..(r + 1) * dim]
    }

    /// Applies a single-qubit unitary on `target` to every row in one
    /// kernel sweep over the whole buffer.
    pub fn apply_single_all(&mut self, m: &Matrix2, target: usize) {
        debug_assert!(target < self.n_qubits);
        apply_single_amps(&mut self.amps, m, target);
    }

    /// Applies a controlled single-qubit unitary to every row in one sweep.
    pub fn apply_controlled_all(&mut self, m: &Matrix2, control: usize, target: usize) {
        debug_assert!(control < self.n_qubits && target < self.n_qubits && control != target);
        transform_control1_pairs_amps(&mut self.amps, m, 1usize << control, 1usize << target);
    }

    /// Swaps two wires in every row in one sweep.
    pub fn apply_swap_all(&mut self, a: usize, b: usize) {
        debug_assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        apply_swap_amps(&mut self.amps, a, b);
    }

    /// Splits the chunk into per-row [`StateVector`]s, preserving row order.
    pub fn into_states(mut self) -> Vec<StateVector> {
        let dim = self.row_dim();
        let mut out = Vec::with_capacity(self.rows);
        // Split rows off the tail so each split copies exactly one row.
        for r in (0..self.rows).rev() {
            let tail = self.amps.split_off(r * dim);
            out.push(StateVector::from_raw(self.n_qubits, tail));
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::GateKind;

    #[test]
    fn rows_start_in_ground_state() {
        let b = BatchState::new(3, 4);
        for r in 0..4 {
            assert_eq!(b.row(r)[0], C64::ONE);
            assert!(b.row(r)[1..].iter().all(|&a| a == C64::ZERO));
        }
    }

    #[test]
    fn shared_sweeps_match_per_row_statevectors_bitwise() {
        let n = 4;
        let rows = 3;
        let h = GateKind::H.matrix(0.0);
        let ry = GateKind::RY.matrix(0.81);
        let x = GateKind::X.matrix(0.0);

        let mut batch = BatchState::new(n, rows);
        batch.apply_single_all(&h, 0);
        batch.apply_single_all(&ry, 3);
        batch.apply_controlled_all(&x, 0, 2);
        batch.apply_swap_all(1, 3);

        let mut want = StateVector::new(n);
        want.apply_single(&h, 0);
        want.apply_single(&ry, 3);
        want.apply_controlled(&x, 0, 2);
        want.apply_swap(1, 3);

        let states = batch.into_states();
        assert_eq!(states.len(), rows);
        for (r, s) in states.iter().enumerate() {
            assert_eq!(s.amplitudes(), want.amplitudes(), "row {r}");
        }
    }

    #[test]
    fn per_row_applies_touch_only_their_row() {
        let mut batch = BatchState::new(2, 3);
        let x = GateKind::X.matrix(0.0);
        crate::state::apply_single_amps(batch.row_mut(1), &x, 0);
        assert_eq!(batch.row(0)[0], C64::ONE);
        assert_eq!(batch.row(1)[1], C64::ONE);
        assert_eq!(batch.row(1)[0], C64::ZERO);
        assert_eq!(batch.row(2)[0], C64::ONE);
    }

    #[test]
    fn zero_rows_is_fine() {
        let b = BatchState::new(2, 0);
        assert_eq!(b.rows(), 0);
        assert!(b.into_states().is_empty());
    }
}
