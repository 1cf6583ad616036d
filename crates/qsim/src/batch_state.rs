//! Row-lane split-complex amplitude storage for gate-major batch execution.
//!
//! A [`BatchState`] holds the statevectors of a chunk of `R` batch rows
//! (*lanes*) in two allocations of plain `f64`s: amplitude `k` of row `r`
//! sits at `re[k·R + r]` and `im[k·R + r]`. So the `R` lanes of one
//! amplitude are adjacent, and the amplitude pair `(k, k + s)` a gate on a
//! wire of stride `s` transforms is, across the chunk, two runs `s·R` apart.
//! A gate that every row shares sweeps runs of `s·R` contiguous `f64`s in
//! one kernel call; an input-fed gate sweeps the same runs with one matrix
//! per lane. Every kernel in [`crate::state`] runs each lane through the
//! exact per-pair expressions a lone row would, and folds each lane in
//! amplitude-index order, so the result is bitwise identical to running
//! each row alone. [`StateVector`] is the one-lane case of this storage.

use crate::complex::C64;
use crate::gates::Matrix2;
use crate::kernels::baseline::{apply_controlled, apply_single};
use crate::state::{apply_swap, Mats};
use crate::{StateVector, MAX_QUBITS};

/// A chunk of batch rows in the row-lane split-complex layout, each row
/// initialised to `|0…0⟩`.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchState {
    n_qubits: usize,
    rows: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl BatchState {
    /// Allocates `rows` ground-state rows of `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > MAX_QUBITS`.
    pub fn new(n_qubits: usize, rows: usize) -> Self {
        let mut batch = Self::zeroed(n_qubits, rows);
        // Amplitude 0 of every lane: the first `rows` entries.
        batch.re[..rows].fill(1.0);
        batch
    }

    /// Allocates `rows` all-zero (unnormalised) rows — the accumulator the
    /// adjoint sweep sums each row's seed `λ = Σ_o w_o·O_o|ψ⟩` into.
    pub(crate) fn zeroed(n_qubits: usize, rows: usize) -> Self {
        assert!(n_qubits > 0, "state needs at least one qubit");
        assert!(
            n_qubits <= MAX_QUBITS,
            "{n_qubits} qubits exceeds MAX_QUBITS = {MAX_QUBITS}"
        );
        let len = rows << n_qubits;
        Self {
            n_qubits,
            rows,
            re: vec![0.0; len],
            im: vec![0.0; len],
        }
    }

    /// Stacks one-lane states into the lanes of one chunk, in order.
    #[cfg(test)]
    pub(crate) fn from_states(states: &[StateVector]) -> Self {
        let n = states.first().map_or(1, StateVector::n_qubits);
        let mut batch = Self::zeroed(n, states.len());
        for (r, s) in states.iter().enumerate() {
            let (re, im) = s.lane().parts();
            for (k, (re, im)) in re.iter().zip(im).enumerate() {
                batch.re[k * states.len() + r] = *re;
                batch.im[k * states.len() + r] = *im;
            }
        }
        batch
    }

    /// Returns every row to `|0…0⟩` without reallocating.
    pub(crate) fn reset(&mut self) {
        self.zero();
        self.re[..self.rows].fill(1.0);
    }

    /// Sets every amplitude of every row to `+0` without reallocating.
    pub(crate) fn zero(&mut self) {
        self.re.fill(0.0);
        self.im.fill(0.0);
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
        self.re.copy_from_slice(&other.re);
        self.im.copy_from_slice(&other.im);
    }

    /// Number of qubits per row.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of rows (lanes) in the chunk.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Amplitudes per row (`2^n_qubits`).
    pub fn row_dim(&self) -> usize {
        1usize << self.n_qubits
    }

    /// Row `r`'s amplitudes, gathered from its lane in index order.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> Vec<C64> {
        assert!(r < self.rows, "row {r} out of range");
        (0..self.row_dim())
            .map(|k| C64::new(self.re[k * self.rows + r], self.im[k * self.rows + r]))
            .collect()
    }

    /// The real and imaginary component buffers, lane-interleaved.
    pub(crate) fn parts(&self) -> (&[f64], &[f64]) {
        (&self.re, &self.im)
    }

    /// Mutable [`Self::parts`], for the kernels.
    pub(crate) fn parts_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// Applies a single-qubit unitary on `target` to every row in one
    /// kernel sweep over the whole chunk.
    pub fn apply_single_all(&mut self, m: &Matrix2, target: usize) {
        debug_assert!(target < self.n_qubits);
        apply_single(self, Mats::Shared(m), target);
    }

    /// Applies a controlled single-qubit unitary to every row in one sweep.
    pub fn apply_controlled_all(&mut self, m: &Matrix2, control: usize, target: usize) {
        debug_assert!(control < self.n_qubits && target < self.n_qubits && control != target);
        apply_controlled(self, Mats::Shared(m), control, target);
    }

    /// Swaps two wires in every row in one sweep.
    pub fn apply_swap_all(&mut self, a: usize, b: usize) {
        debug_assert!(a < self.n_qubits && b < self.n_qubits && a != b);
        apply_swap(self, a, b);
    }

    /// Splits the chunk into per-row [`StateVector`]s, preserving row order.
    pub fn into_states(self) -> Vec<StateVector> {
        (0..self.rows)
            .map(|r| {
                let mut lane = Self::zeroed(self.n_qubits, 1);
                for (k, (re, im)) in lane.re.iter_mut().zip(&mut lane.im).enumerate() {
                    (*re, *im) = (self.re[k * self.rows + r], self.im[k * self.rows + r]);
                }
                StateVector::from_lane(lane)
            })
            .collect()
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
        let (x, id) = (GateKind::X.matrix(0.0), GateKind::I.matrix(0.0));
        apply_single(&mut batch, Mats::per_lane(&[id, x, id]), 0);
        assert_eq!(batch.row(0)[0], C64::ONE);
        assert_eq!(batch.row(1)[1], C64::ONE);
        assert_eq!(batch.row(1)[0], C64::ZERO);
        assert_eq!(batch.row(2)[0], C64::ONE);
    }

    #[test]
    fn lanes_are_interleaved_per_amplitude() {
        let mut batch = BatchState::new(1, 2);
        batch.apply_single_all(&GateKind::X.matrix(0.0), 0);
        // Amplitude 1 of both lanes sits at indices 2 and 3.
        assert_eq!(batch.parts().0, &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn zero_rows_is_fine() {
        let mut b = BatchState::new(2, 0);
        assert_eq!(b.rows(), 0);
        b.apply_single_all(&GateKind::H.matrix(0.0), 1);
        b.apply_controlled_all(&GateKind::X.matrix(0.0), 0, 1);
        b.apply_swap_all(0, 1);
        assert!(b.into_states().is_empty());
    }
}
