//! Dense statevector and gate application kernels.
//!
//! The kernels live as free functions over `&mut [C64]` so the same code —
//! and therefore the exact same per-amplitude FP expressions — runs whether
//! the buffer is one row's `StateVector` or a whole batch chunk's contiguous
//! [`crate::BatchState`]. Every kernel only requires the buffer length to be
//! a multiple of its largest block (`2·stride`), which a concatenation of
//! `2^n`-amplitude rows always satisfies for in-row wires; applied to such a
//! buffer, a kernel transforms every row exactly as it would transform each
//! row individually, pair for pair, in the same in-row order.

use std::fmt;

use crate::complex::C64;
use crate::gates::{Matrix2, Matrix4};
use crate::MAX_QUBITS;

/// Applies a single-qubit unitary on wire `target` to every `2^n`-row of
/// `amps` (see module docs). Walks `2·stride` blocks, splitting each into
/// its target-0 / target-1 halves so the inner pair loop runs over two
/// contiguous slices with no per-iteration bounds checks — shaped for
/// autovectorisation. Arithmetic is the exact `m·(a, b)ᵀ` expression per
/// pair, bitwise identical to a scalar reference loop.
pub(crate) fn apply_single_amps(amps: &mut [C64], m: &Matrix2, target: usize) {
    let stride = 1usize << target;
    debug_assert_eq!(amps.len() % (stride << 1), 0);
    let (m00, m01, m10, m11) = (m[0][0], m[0][1], m[1][0], m[1][1]);
    for block in amps.chunks_exact_mut(stride << 1) {
        let (lo, hi) = block.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (x, y) = (*a, *b);
            *a = m00 * x + m01 * y;
            *b = m10 * x + m11 * y;
        }
    }
}

/// Applies `m` to every amplitude pair whose index has the control bit set
/// and the target bit clear — the shared pair walk behind
/// [`StateVector::apply_controlled`] and
/// [`StateVector::apply_controlled_projected`]. Only control-1 pairs (a
/// quarter of the buffer) are enumerated, never the control-0 subspace.
///
/// Two enumeration shapes, picked by the larger pinned-bit stride. When it
/// is small (adjacent low wires — the ring-entangler common case) a nested
/// block walk degenerates into per-pair loop setup, so a single flat loop
/// reconstructs each pair index by depositing the two pinned bits. When it
/// is large, blocks are long and a nested walk with contiguous branch-free
/// inner runs wins. Both shapes visit the same pairs with the same
/// expressions, so the choice never affects results.
pub(crate) fn transform_control1_pairs_amps(
    amps: &mut [C64],
    m: &Matrix2,
    c_stride: usize,
    t_stride: usize,
) {
    let run = t_stride.min(c_stride);
    let big = t_stride.max(c_stride);
    let len = amps.len();
    debug_assert_eq!(len % (big << 1), 0);
    let (m00, m01, m10, m11) = (m[0][0], m[0][1], m[1][0], m[1][1]);
    if big <= 64 {
        // Flat walk: pair p's index is p's bits with a 0 deposited at
        // the target bit position and a 1 at the control bit position.
        let a_bit = run.trailing_zeros();
        let b_bit = big.trailing_zeros();
        let low_mask = run - 1;
        let mid_mask = (big >> 1) - 1;
        for p in 0..len >> 2 {
            let lo = p & low_mask;
            let mid = (p & mid_mask) >> a_bit;
            let hi = p >> (b_bit - 1);
            let i = lo | (mid << (a_bit + 1)) | (hi << (b_bit + 1)) | c_stride;
            let (x, y) = (amps[i], amps[i + t_stride]);
            amps[i] = m00 * x + m01 * y;
            amps[i + t_stride] = m10 * x + m11 * y;
        }
        return;
    }
    let mut hi = 0;
    while hi < len {
        let mut mid = 0;
        while mid < big {
            let base = hi + mid + c_stride;
            let block = &mut amps[base..base + t_stride + run];
            let (lo_half, hi_half) = block.split_at_mut(t_stride);
            for (a, b) in lo_half[..run].iter_mut().zip(hi_half.iter_mut()) {
                let (x, y) = (*a, *b);
                *a = m00 * x + m01 * y;
                *b = m10 * x + m11 * y;
            }
            mid += run << 1;
        }
        hi += big << 1;
    }
}

/// Zeroes every amplitude whose control bit is clear (both target halves) —
/// the projection step of [`StateVector::apply_controlled_projected`].
pub(crate) fn zero_control0_amps(amps: &mut [C64], c_stride: usize) {
    for block in amps.chunks_exact_mut(c_stride << 1) {
        block[..c_stride].fill(C64::ZERO);
    }
}

/// Swaps wires `a` and `b` in every row of `amps`.
pub(crate) fn apply_swap_amps(amps: &mut [C64], a: usize, b: usize) {
    let (ma, mb) = (1usize << a, 1usize << b);
    for i in 0..amps.len() {
        // Visit each (01, 10) pair exactly once.
        if i & ma != 0 && i & mb == 0 {
            let j = (i & !ma) | mb;
            amps.swap(i, j);
        }
    }
}

/// Applies a 4×4 unitary on the wire pair `(low, high)` (`low < high`) to
/// every row of `amps` — the dedicated pair-quad kernel behind fused
/// two-qubit ops.
///
/// Two enumeration shapes, picked by the high-wire stride (the same policy
/// as [`transform_control1_pairs_amps`]). Adjacent low wires — the
/// ring-entangler common case — make the nested block walk degenerate into
/// per-quad loop setup over one-element slices, so a flat loop reconstructs
/// each quad's base index by depositing zero bits at both wire positions.
/// Large strides get the nested walk: `2·high_stride` super-blocks split
/// into high-0/high-1 halves, whose aligned `2·low_stride` sub-blocks split
/// again into low-0/low-1 quarters, giving four zipped branch-free slices.
/// Both shapes visit the same quads with the same expressions — quad basis
/// `(b_hi b_lo) = 00, 01, 10, 11` matching the [`Matrix4`] layout — so the
/// choice never affects results.
pub(crate) fn apply_pair_amps(amps: &mut [C64], m: &Matrix4, low: usize, high: usize) {
    debug_assert!(low < high);
    let sl = 1usize << low;
    let sh = 1usize << high;
    let len = amps.len();
    debug_assert_eq!(len % (sh << 1), 0);
    let [r0, r1, r2, r3] = *m;
    if sh <= 64 {
        // Flat walk: quad q's base index is q's bits with a 0 deposited at
        // each of the two wire bit positions.
        let a_bit = low as u32;
        let b_bit = high as u32;
        let low_mask = sl - 1;
        let mid_mask = (sh >> 1) - 1;
        for q in 0..len >> 2 {
            let lo = q & low_mask;
            let mid = (q & mid_mask) >> a_bit;
            let hi = q >> (b_bit - 1);
            let i = lo | (mid << (a_bit + 1)) | (hi << (b_bit + 1));
            let (x0, x1, x2, x3) = (amps[i], amps[i + sl], amps[i + sh], amps[i + sl + sh]);
            amps[i] = r0[0] * x0 + r0[1] * x1 + r0[2] * x2 + r0[3] * x3;
            amps[i + sl] = r1[0] * x0 + r1[1] * x1 + r1[2] * x2 + r1[3] * x3;
            amps[i + sh] = r2[0] * x0 + r2[1] * x1 + r2[2] * x2 + r2[3] * x3;
            amps[i + sl + sh] = r3[0] * x0 + r3[1] * x1 + r3[2] * x2 + r3[3] * x3;
        }
        return;
    }
    for super_block in amps.chunks_exact_mut(sh << 1) {
        let (h0, h1) = super_block.split_at_mut(sh);
        for (b0, b1) in h0
            .chunks_exact_mut(sl << 1)
            .zip(h1.chunks_exact_mut(sl << 1))
        {
            let (q00, q01) = b0.split_at_mut(sl);
            let (q10, q11) = b1.split_at_mut(sl);
            for (((a00, a01), a10), a11) in q00
                .iter_mut()
                .zip(q01.iter_mut())
                .zip(q10.iter_mut())
                .zip(q11.iter_mut())
            {
                let (x0, x1, x2, x3) = (*a00, *a01, *a10, *a11);
                *a00 = r0[0] * x0 + r0[1] * x1 + r0[2] * x2 + r0[3] * x3;
                *a01 = r1[0] * x0 + r1[1] * x1 + r1[2] * x2 + r1[3] * x3;
                *a10 = r2[0] * x0 + r2[1] * x1 + r2[2] * x2 + r2[3] * x3;
                *a11 = r3[0] * x0 + r3[1] * x1 + r3[2] * x2 + r3[3] * x3;
            }
        }
    }
}

/// Expectation value `⟨ψ|Z_wire|ψ⟩` over one row's amplitudes.
pub(crate) fn expectation_z_amps(amps: &[C64], wire: usize) -> f64 {
    let mask = 1usize << wire;
    hqnn_tensor::fold::ordered_sum_f64(amps.iter().enumerate().map(|(i, a)| {
        let sign = if i & mask == 0 { 1.0 } else { -1.0 };
        sign * a.norm_sqr()
    }))
}

/// A pure quantum state over `n` qubits, stored as 2ⁿ complex amplitudes in
/// little-endian wire order (wire `q` is bit `q` of the amplitude index).
///
/// # Example
///
/// ```
/// use hqnn_qsim::{GateKind, StateVector};
///
/// // Build the Bell state (|00⟩ + |11⟩)/√2.
/// let mut s = StateVector::new(2);
/// s.apply_single(&GateKind::H.matrix(0.0), 0);
/// s.apply_controlled(&GateKind::X.matrix(0.0), 0, 1);
/// assert!((s.probability(0) - 0.5).abs() < 1e-12);
/// assert!((s.probability(3) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the computational basis state `|0…0⟩` on `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > MAX_QUBITS`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "state needs at least one qubit");
        assert!(
            n_qubits <= MAX_QUBITS,
            "{n_qubits} qubits exceeds MAX_QUBITS = {MAX_QUBITS}"
        );
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        amps[0] = C64::ONE;
        Self { n_qubits, amps }
    }

    /// Creates a state from explicit amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the amplitude count is not a power of two ≥ 2, exceeds
    /// `2^MAX_QUBITS`, or the vector is not normalised to within `1e-9`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(
            len >= 2 && len.is_power_of_two(),
            "amplitude count {len} is not a power of two >= 2"
        );
        let n_qubits = len.trailing_zeros() as usize;
        assert!(n_qubits <= MAX_QUBITS, "too many qubits");
        let norm: f64 = hqnn_tensor::fold::ordered_sum_f64(amps.iter().map(|a| a.norm_sqr()));
        assert!(
            (norm - 1.0).abs() < 1e-9,
            "state is not normalised: |ψ|² = {norm}"
        );
        Self { n_qubits, amps }
    }

    /// Wraps amplitudes produced by an internal evolution path without the
    /// O(2ⁿ) normalisation re-check of [`StateVector::from_amplitudes`] —
    /// for [`crate::BatchState`] rows, which are unitary images of `|0…0⟩`.
    pub(crate) fn from_raw(n_qubits: usize, amps: Vec<C64>) -> Self {
        debug_assert_eq!(amps.len(), 1usize << n_qubits);
        Self { n_qubits, amps }
    }

    /// Overwrites this state's amplitudes with `other`'s without
    /// reallocating — the adjoint engine's per-gate scratch buffer reuse.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different qubit counts.
    pub(crate) fn copy_amps_from(&mut self, other: &Self) {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit count mismatch");
        self.amps.copy_from_slice(&other.amps);
    }

    /// The all-zero (unnormalised) vector on `n_qubits` qubits — the empty
    /// accumulator [`crate::gradient::adjoint_vjp`] sums its seed into.
    pub(crate) fn zeroed(n_qubits: usize) -> Self {
        Self::from_raw(n_qubits, vec![C64::ZERO; 1 << n_qubits])
    }

    /// `self ← self + w·other`, amplitude by amplitude.
    ///
    /// # Panics
    ///
    /// Panics if the two states have different qubit counts.
    pub(crate) fn add_scaled(&mut self, w: f64, other: &Self) {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit count mismatch");
        for (a, b) in self.amps.iter_mut().zip(&other.amps) {
            *a += b.scale(w);
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Borrow of the amplitude vector (length `2^n_qubits`).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn inner(&self, other: &Self) -> C64 {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit count mismatch");
        hqnn_tensor::fold::ordered_sum(
            C64::ZERO,
            self.amps.iter().zip(&other.amps).map(|(a, b)| a.conj() * *b),
        )
    }

    /// `|ψ|²` — should be 1 for any state produced by unitary evolution.
    pub fn norm_sqr(&self) -> f64 {
        hqnn_tensor::fold::ordered_sum_f64(self.amps.iter().map(|a| a.norm_sqr()))
    }

    /// Probability of measuring computational basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n_qubits`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// All basis-state probabilities, in index order.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Fidelity `|⟨self|other⟩|²` between two pure states.
    pub fn fidelity(&self, other: &Self) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Applies a single-qubit unitary to `target`.
    ///
    /// The kernel walks the state in `2·stride` blocks and splits each block
    /// into its target-0 / target-1 halves, so the inner amplitude-pair loop
    /// runs over two contiguous slices with no per-iteration bounds checks
    /// or index arithmetic — shaped for autovectorisation. The arithmetic is
    /// the exact expression `m·(a, b)ᵀ` per pair, so results are bitwise
    /// identical to the scalar reference loop.
    ///
    /// # Panics
    ///
    /// Panics if `target >= n_qubits`.
    pub fn apply_single(&mut self, m: &Matrix2, target: usize) {
        assert!(target < self.n_qubits, "target wire {target} out of range");
        apply_single_amps(&mut self.amps, m, target);
    }

    /// Applies a single-qubit unitary to `target`, conditioned on `control`
    /// being `|1⟩` (covers CNOT, CZ, CRX, …).
    ///
    /// Only the control-1 amplitude pairs (a quarter of the state) are
    /// enumerated; the control-0 subspace is never touched or scanned.
    ///
    /// # Panics
    ///
    /// Panics if the wires coincide or are out of range.
    pub fn apply_controlled(&mut self, m: &Matrix2, control: usize, target: usize) {
        assert!(control < self.n_qubits, "control wire out of range");
        assert!(target < self.n_qubits, "target wire out of range");
        assert_ne!(control, target, "control and target must differ");
        transform_control1_pairs_amps(&mut self.amps, m, 1usize << control, 1usize << target);
    }

    /// Applies a 4×4 unitary to the wire pair `(low, high)`, with the
    /// [`Matrix4`] basis convention `b = 2·b_high + b_low` (little-endian,
    /// matching the global amplitude order). Used by fused two-qubit ops.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high < n_qubits`.
    pub fn apply_two(&mut self, m: &Matrix4, low: usize, high: usize) {
        assert!(high < self.n_qubits, "wire {high} out of range");
        assert!(low < high, "pair wires must satisfy low < high");
        apply_pair_amps(&mut self.amps, m, low, high);
    }

    /// Applies `(|1⟩⟨1| on control) ⊗ M` — the controlled *derivative*
    /// operator used by adjoint differentiation of controlled rotations.
    /// Unlike [`StateVector::apply_controlled`] this zeroes the control-0
    /// subspace instead of leaving it untouched.
    ///
    /// # Panics
    ///
    /// Panics if the wires coincide or are out of range.
    pub fn apply_controlled_projected(&mut self, m: &Matrix2, control: usize, target: usize) {
        assert!(control < self.n_qubits, "control wire out of range");
        assert!(target < self.n_qubits, "target wire out of range");
        assert_ne!(control, target, "control and target must differ");
        let c_stride = 1usize << control;
        // Zero every control-0 amplitude (both target halves), then
        // transform the surviving control-1 pairs.
        zero_control0_amps(&mut self.amps, c_stride);
        transform_control1_pairs_amps(&mut self.amps, m, c_stride, 1usize << target);
    }

    /// Swaps wires `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the wires coincide or are out of range.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits, "wire out of range");
        assert_ne!(a, b, "swap wires must differ");
        apply_swap_amps(&mut self.amps, a, b);
    }

    /// Expectation value `⟨ψ|Z_wire|ψ⟩ ∈ [-1, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= n_qubits`.
    pub fn expectation_z(&self, wire: usize) -> f64 {
        assert!(wire < self.n_qubits, "wire {wire} out of range");
        expectation_z_amps(&self.amps, wire)
    }

    /// `true` when all amplitudes are finite.
    pub fn all_finite(&self) -> bool {
        self.amps.iter().all(|a| a.is_finite())
    }

    /// Elementwise approximate equality of amplitudes.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.n_qubits == other.n_qubits
            && self
                .amps
                .iter()
                .zip(&other.amps)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "StateVector({} qubits) [", self.n_qubits)?;
        for (i, a) in self.amps.iter().enumerate() {
            if a.norm_sqr() > 1e-12 {
                writeln!(f, "  |{:0width$b}⟩: {a}", i, width = self.n_qubits)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::GateKind;

    #[test]
    fn new_state_is_ground() {
        let s = StateVector::new(3);
        assert_eq!(s.amplitudes()[0], C64::ONE);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(s.probability(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn zero_qubits_rejected() {
        let _ = StateVector::new(0);
    }

    #[test]
    #[should_panic(expected = "MAX_QUBITS")]
    fn too_many_qubits_rejected() {
        let _ = StateVector::new(25);
    }

    #[test]
    fn x_flips_target_wire() {
        let mut s = StateVector::new(2);
        s.apply_single(&GateKind::X.matrix(0.0), 1);
        // |q1 q0⟩ = |10⟩ → index 2.
        assert_eq!(s.probability(2), 1.0);
    }

    #[test]
    fn hadamard_makes_uniform_superposition() {
        let mut s = StateVector::new(1);
        s.apply_single(&GateKind::H.matrix(0.0), 0);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cnot_truth_table() {
        // For each basis input, CNOT(control=0, target=1) flips bit 1 iff bit 0 set.
        for input in 0..4usize {
            let mut amps = vec![C64::ZERO; 4];
            amps[input] = C64::ONE;
            let mut s = StateVector::from_amplitudes(amps);
            s.apply_controlled(&GateKind::X.matrix(0.0), 0, 1);
            let expected = if input & 1 != 0 { input ^ 2 } else { input };
            assert!(
                (s.probability(expected) - 1.0).abs() < 1e-12,
                "input {input}"
            );
        }
    }

    #[test]
    fn bell_state_expectations() {
        let mut s = StateVector::new(2);
        s.apply_single(&GateKind::H.matrix(0.0), 0);
        s.apply_controlled(&GateKind::X.matrix(0.0), 0, 1);
        assert!(s.expectation_z(0).abs() < 1e-12);
        assert!(s.expectation_z(1).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rx_expectation_is_cosine() {
        for k in 0..10 {
            let theta = k as f64 * 0.37;
            let mut s = StateVector::new(1);
            s.apply_single(&GateKind::RX.matrix(theta), 0);
            assert!((s.expectation_z(0) - theta.cos()).abs() < 1e-12);
        }
    }

    #[test]
    fn swap_exchanges_wires() {
        let mut s = StateVector::new(2);
        s.apply_single(&GateKind::X.matrix(0.0), 0); // |01⟩ (index 1)
        s.apply_swap(0, 1);
        assert_eq!(s.probability(2), 1.0); // |10⟩
    }

    #[test]
    fn swap_matches_three_cnots() {
        let mut a = StateVector::new(3);
        a.apply_single(&GateKind::H.matrix(0.0), 0);
        a.apply_single(&GateKind::RY.matrix(0.7), 2);
        let mut b = a.clone();
        a.apply_swap(0, 2);
        let x = GateKind::X.matrix(0.0);
        b.apply_controlled(&x, 0, 2);
        b.apply_controlled(&x, 2, 0);
        b.apply_controlled(&x, 0, 2);
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn inner_product_and_fidelity() {
        let s = StateVector::new(2);
        let mut t = StateVector::new(2);
        assert!((s.fidelity(&t) - 1.0).abs() < 1e-12);
        t.apply_single(&GateKind::X.matrix(0.0), 0);
        assert!(s.fidelity(&t) < 1e-12);
        assert_eq!(s.inner(&s), C64::ONE);
    }

    #[test]
    fn controlled_projected_zeroes_control_zero_subspace() {
        let mut s = StateVector::new(2);
        s.apply_single(&GateKind::H.matrix(0.0), 0);
        // After projection onto control=|1⟩ with identity on target,
        // only index 1 (|01⟩: q0=1) survives with amplitude 1/√2.
        s.apply_controlled_projected(&GateKind::I.matrix(0.0), 0, 1);
        assert!((s.amplitudes()[1].norm_sqr() - 0.5).abs() < 1e-12);
        assert_eq!(s.amplitudes()[0], C64::ZERO);
        assert_eq!(s.amplitudes()[2], C64::ZERO);
    }

    #[test]
    fn from_amplitudes_validates_norm() {
        let ok = StateVector::from_amplitudes(vec![C64::ONE, C64::ZERO]);
        assert_eq!(ok.n_qubits(), 1);
    }

    #[test]
    #[should_panic(expected = "not normalised")]
    fn from_amplitudes_rejects_unnormalised() {
        let _ = StateVector::from_amplitudes(vec![C64::ONE, C64::ONE]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_bad_length() {
        let _ = StateVector::from_amplitudes(vec![C64::ONE, C64::ZERO, C64::ZERO]);
    }

    #[test]
    fn display_shows_nonzero_amplitudes() {
        let s = StateVector::new(2);
        let txt = s.to_string();
        assert!(txt.contains("|00⟩"));
        assert!(!txt.contains("|01⟩"));
    }

    #[test]
    fn apply_two_matches_embedded_singles() {
        use crate::gates::{embed_controlled, embed_single, matmul4};
        // RX on low wire, RY on high wire, then CNOT(high→low), fused into
        // one Matrix4, must match the sequential applications exactly.
        let rx = GateKind::RX.matrix(0.9);
        let ry = GateKind::RY.matrix(-0.4);
        let x = GateKind::X.matrix(0.0);
        for (low, high, n) in [(0usize, 1usize, 2usize), (0, 2, 3), (1, 2, 4)] {
            let mut a = StateVector::new(n);
            a.apply_single(&GateKind::H.matrix(0.0), 0);
            let mut b = a.clone();

            a.apply_single(&rx, low);
            a.apply_single(&ry, high);
            a.apply_controlled(&x, high, low);

            let mut m = embed_single(&rx, 0);
            m = matmul4(&embed_single(&ry, 1), &m);
            m = matmul4(&embed_controlled(&x, 1, 0), &m);
            b.apply_two(&m, low, high);

            assert!(a.approx_eq(&b, 1e-12), "pair ({low},{high}) on {n} qubits");
        }
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn apply_two_rejects_unsorted_wires() {
        let mut s = StateVector::new(2);
        s.apply_two(&crate::gates::identity4(), 1, 0);
    }

    #[test]
    fn kernels_treat_batch_buffer_as_independent_rows() {
        // Applying a kernel to a concatenation of rows must equal applying
        // it to each row individually, bitwise.
        let n = 3usize;
        let rows = 5usize; // deliberately not a power of two
        let dim = 1usize << n;
        let mk_row = |r: usize| {
            let mut s = StateVector::new(n);
            s.apply_single(&GateKind::RY.matrix(0.3 + r as f64), 0);
            s.apply_single(&GateKind::H.matrix(0.0), 2);
            s.apply_controlled(&GateKind::X.matrix(0.0), 2, 1);
            s
        };
        let mut batch: Vec<C64> = Vec::with_capacity(rows * dim);
        for r in 0..rows {
            batch.extend_from_slice(mk_row(r).amplitudes());
        }
        let m = GateKind::RZ.matrix(0.77);
        let m4 = crate::gates::embed_controlled(&GateKind::X.matrix(0.0), 0, 1);

        let mut per_row: Vec<StateVector> = (0..rows).map(mk_row).collect();
        for s in &mut per_row {
            s.apply_single(&m, 1);
            s.apply_controlled(&m, 0, 2);
            s.apply_swap(0, 1);
            s.apply_two(&m4, 1, 2);
        }
        apply_single_amps(&mut batch, &m, 1);
        transform_control1_pairs_amps(&mut batch, &m, 1 << 0, 1 << 2);
        apply_swap_amps(&mut batch, 0, 1);
        apply_pair_amps(&mut batch, &m4, 1, 2);

        for (r, want) in per_row.iter().enumerate() {
            let got = &batch[r * dim..(r + 1) * dim];
            assert_eq!(got, want.amplitudes(), "row {r}");
            assert_eq!(
                expectation_z_amps(got, 1).to_bits(),
                want.expectation_z(1).to_bits(),
                "row {r} expectation"
            );
        }
    }
}
