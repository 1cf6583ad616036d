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
//!
//! The 2×2 kernels pick their per-pair arithmetic from the matrix values
//! they are given ([`Shape`]): a diagonal, real, or imaginary-off-diagonal
//! matrix skips the products its zero entries would contribute. Callers
//! never choose, so a gate takes the same path in [`crate::Circuit::run`],
//! the batched sweeps, the observables and the adjoint reverse pass.

use std::fmt;

use crate::complex::C64;
use crate::gates::Matrix2;
use crate::MAX_QUBITS;

/// Which of `m`'s products are structurally zero, read from its entry
/// values. Each shape's per-pair transform (see [`with_pair_transform`])
/// drops exactly the products with a zero matrix factor; the general
/// shape keeps every product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// `m01 == m10 == 0`: RZ, Z, S, T, PhaseShift, `dRZ/dθ`, I.
    Diagonal,
    /// Every imaginary part is 0: RY, H, X, `dRY/dθ`.
    Real,
    /// Real diagonal, purely imaginary off-diagonal: RX, Y, `dRX/dθ`.
    ImagOffDiagonal,
    /// Anything else, including any matrix with a NaN entry.
    General,
}

impl Shape {
    /// The shape of `m`. Signed zeros of either sign count as zero.
    pub(crate) fn of(m: &Matrix2) -> Self {
        let [[m00, m01], [m10, m11]] = *m;
        let entries = [m00, m01, m10, m11];
        if entries.iter().any(|z| z.re.is_nan() || z.im.is_nan()) {
            Shape::General
        } else if m01 == C64::ZERO && m10 == C64::ZERO {
            Shape::Diagonal
        } else if entries.iter().all(|z| z.im == 0.0) {
            Shape::Real
        } else if m00.im == 0.0 && m11.im == 0.0 && m01.re == 0.0 && m10.re == 0.0 {
            Shape::ImagOffDiagonal
        } else {
            Shape::General
        }
    }
}

/// Binds `$pair` to the transform `(x, y) ↦ (m00·x + m01·y, m10·x + m11·y)`
/// specialised to `$m`'s [`Shape`], then evaluates `$walk`, so every pair
/// walk is written once and monomorphised per shape.
///
/// A specialised expression is the general one minus products with a zero
/// matrix factor. For finite amplitudes such a product is `±0`, and adding
/// `±0` leaves every nonzero value unchanged, so each nonzero component is
/// bitwise the general loop's; only an exactly-zero component may carry
/// the other sign (DESIGN.md §9 shows why no returned value can see it).
macro_rules! with_pair_transform {
    ($m:expr, |$pair:ident| $walk:expr) => {{
        let m: &Matrix2 = $m;
        let [[m00, m01], [m10, m11]] = *m;
        match Shape::of(m) {
            Shape::Diagonal => {
                let $pair = move |x: C64, y: C64| (m00 * x, m11 * y);
                $walk
            }
            Shape::Real => {
                let (r00, r01, r10, r11) = (m00.re, m01.re, m10.re, m11.re);
                let $pair = move |x: C64, y: C64| {
                    (
                        C64::new(r00 * x.re + r01 * y.re, r00 * x.im + r01 * y.im),
                        C64::new(r10 * x.re + r11 * y.re, r10 * x.im + r11 * y.im),
                    )
                };
                $walk
            }
            Shape::ImagOffDiagonal => {
                let (r00, s01, s10, r11) = (m00.re, m01.im, m10.im, m11.re);
                let $pair = move |x: C64, y: C64| {
                    (
                        C64::new(r00 * x.re - s01 * y.im, r00 * x.im + s01 * y.re),
                        C64::new(r11 * y.re - s10 * x.im, s10 * x.re + r11 * y.im),
                    )
                };
                $walk
            }
            Shape::General => {
                let $pair = move |x: C64, y: C64| (m00 * x + m01 * y, m10 * x + m11 * y);
                $walk
            }
        }
    }};
}

/// Applies a single-qubit unitary on wire `target` to every `2^n`-row of
/// `amps` (see module docs), with the per-pair arithmetic of `m`'s
/// [`Shape`].
pub(crate) fn apply_single_amps(amps: &mut [C64], m: &Matrix2, target: usize) {
    with_pair_transform!(m, |pair| single_walk(amps, target, pair))
}

/// Walks `2·stride` blocks, splitting each into its target-0 / target-1
/// halves so the inner pair loop runs over two contiguous slices with no
/// per-iteration bounds checks — shaped for autovectorisation.
fn single_walk(amps: &mut [C64], target: usize, pair: impl Fn(C64, C64) -> (C64, C64)) {
    let stride = 1usize << target;
    debug_assert_eq!(amps.len() % (stride << 1), 0);
    for block in amps.chunks_exact_mut(stride << 1) {
        let (lo, hi) = block.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            (*a, *b) = pair(*a, *b);
        }
    }
}

/// Applies `m` to every amplitude pair whose index has the control bit set
/// and the target bit clear — the shared pair walk behind
/// [`StateVector::apply_controlled`] and
/// [`StateVector::apply_controlled_projected`]. Only control-1 pairs (a
/// quarter of the buffer) are enumerated, never the control-0 subspace.
pub(crate) fn transform_control1_pairs_amps(
    amps: &mut [C64],
    m: &Matrix2,
    c_stride: usize,
    t_stride: usize,
) {
    with_pair_transform!(m, |pair| control1_walk(amps, c_stride, t_stride, pair))
}

/// Two enumeration shapes, picked by the larger pinned-bit stride. When it
/// is small (adjacent low wires — the ring-entangler common case) a nested
/// block walk degenerates into per-pair loop setup, so a single flat loop
/// reconstructs each pair index by depositing the two pinned bits. When it
/// is large, blocks are long and a nested walk with contiguous branch-free
/// inner runs wins. Both shapes visit the same pairs with the same
/// expressions, so the choice never affects results.
fn control1_walk(
    amps: &mut [C64],
    c_stride: usize,
    t_stride: usize,
    pair: impl Fn(C64, C64) -> (C64, C64),
) {
    let run = t_stride.min(c_stride);
    let big = t_stride.max(c_stride);
    let len = amps.len();
    debug_assert_eq!(len % (big << 1), 0);
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
            (amps[i], amps[i + t_stride]) = pair(amps[i], amps[i + t_stride]);
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
                (*a, *b) = pair(*a, *b);
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

/// `⟨λ|M_target|ψ⟩` over one row, without materialising `M·ψ` — the fused
/// read-only kernel behind the adjoint sweep's per-gate derivative term.
/// Each `(M·ψ)_k` is the exact expression [`apply_single_amps`] writes for
/// `m`'s [`Shape`], and the products fold left to right in index order
/// (each `2·stride` block's target-0 half, then its target-1 half) like
/// [`StateVector::inner`], so the result is bitwise `λ.inner(&mu)` for
/// `mu = ψ` with `M` applied, minus the scratch copy and its write pass.
pub(crate) fn inner_single_amps(lambda: &[C64], psi: &[C64], m: &Matrix2, target: usize) -> C64 {
    with_pair_transform!(m, |pair| inner_single_walk(lambda, psi, target, pair))
}

/// The block walk of [`inner_single_amps`]: no per-amplitude branch or
/// bounds check. Each half uses one output of `pair`; the other is dead
/// code once the transform is inlined.
fn inner_single_walk(
    lambda: &[C64],
    psi: &[C64],
    target: usize,
    pair: impl Fn(C64, C64) -> (C64, C64),
) -> C64 {
    debug_assert_eq!(lambda.len(), psi.len());
    let stride = 1usize << target;
    let mut acc = C64::ZERO;
    for (lb, pb) in lambda
        .chunks_exact(stride << 1)
        .zip(psi.chunks_exact(stride << 1))
    {
        let (p0, p1) = pb.split_at(stride);
        let (l0, l1) = lb.split_at(stride);
        for ((l, x), y) in l0.iter().zip(p0).zip(p1) {
            acc += l.conj() * pair(*x, *y).0;
        }
        for ((l, x), y) in l1.iter().zip(p0).zip(p1) {
            acc += l.conj() * pair(*x, *y).1;
        }
    }
    acc
}

/// `⟨λ|(|1⟩⟨1|_control ⊗ M_target)|ψ⟩` over one row — the fused counterpart
/// of [`StateVector::apply_controlled_projected`] followed by
/// [`StateVector::inner`]. Control-0 indices contribute `λ_k* · 0`, control-1
/// pairs the exact [`transform_control1_pairs_amps`] expressions, folded in
/// index order: bitwise the copy-apply-inner result.
pub(crate) fn inner_controlled_projected_amps(
    lambda: &[C64],
    psi: &[C64],
    m: &Matrix2,
    control: usize,
    target: usize,
) -> C64 {
    debug_assert_eq!(lambda.len(), psi.len());
    let (c_mask, t_stride) = (1usize << control, 1usize << target);
    with_pair_transform!(m, |pair| hqnn_tensor::fold::ordered_sum(
        C64::ZERO,
        lambda.iter().enumerate().map(|(k, l)| {
            let mu = if k & c_mask == 0 {
                C64::ZERO
            } else if k & t_stride == 0 {
                pair(psi[k], psi[k | t_stride]).0
            } else {
                pair(psi[k ^ t_stride], psi[k]).1
            };
            l.conj() * mu
        }),
    ))
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
    /// `m·(a, b)ᵀ` per pair, minus the products with a zero entry of `m`, so
    /// for finite amplitudes every nonzero component is bitwise the scalar
    /// reference loop's and an exactly-zero one may differ only in sign. A
    /// dense matrix, or one with a NaN entry, runs the full expression.
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

        let mut per_row: Vec<StateVector> = (0..rows).map(mk_row).collect();
        for s in &mut per_row {
            s.apply_single(&m, 1);
            s.apply_controlled(&m, 0, 2);
            s.apply_swap(0, 1);
        }
        apply_single_amps(&mut batch, &m, 1);
        transform_control1_pairs_amps(&mut batch, &m, 1 << 0, 1 << 2);
        apply_swap_amps(&mut batch, 0, 1);

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

    #[test]
    fn fused_inner_kernels_match_copy_apply_inner_bitwise() {
        // ⟨λ|dU|ψ⟩ without the scratch state must reproduce the
        // copy + apply + `inner` sequence bit for bit, on every wire
        // combination and on both pair-walk shapes of the controlled kernel.
        let n = 8;
        let mk = |seed: f64| {
            let mut s = StateVector::new(n);
            for w in 0..n {
                s.apply_single(&GateKind::RY.matrix(seed + 0.37 * w as f64), w);
                s.apply_single(&GateKind::RZ.matrix(seed * 1.3 - 0.21 * w as f64), w);
            }
            for w in 0..n - 1 {
                s.apply_controlled(&GateKind::X.matrix(0.0), w, w + 1);
            }
            s
        };
        let (psi, lambda) = (mk(0.4), mk(-1.1));
        let dm = GateKind::RX.dmatrix(0.83).unwrap();
        let bits = |z: C64| (z.re.to_bits(), z.im.to_bits());
        for t in 0..n {
            let mut mu = psi.clone();
            mu.apply_single(&dm, t);
            let want = lambda.inner(&mu);
            let got = inner_single_amps(lambda.amplitudes(), psi.amplitudes(), &dm, t);
            assert_eq!(bits(got), bits(want), "t={t}");
            for c in (0..n).filter(|&c| c != t) {
                let mut mu = psi.clone();
                mu.apply_controlled_projected(&dm, c, t);
                let want = lambda.inner(&mu);
                let got = inner_controlled_projected_amps(
                    lambda.amplitudes(),
                    psi.amplitudes(),
                    &dm,
                    c,
                    t,
                );
                assert_eq!(bits(got), bits(want), "c={c} t={t}");
            }
        }
    }

    /// The general `inner_single_amps` loop, every product kept.
    fn reference_inner_single(lambda: &[C64], psi: &[C64], m: &Matrix2, target: usize) -> C64 {
        let stride = 1usize << target;
        let (m00, m01, m10, m11) = (m[0][0], m[0][1], m[1][0], m[1][1]);
        let mut acc = C64::ZERO;
        for (lb, pb) in lambda
            .chunks_exact(stride << 1)
            .zip(psi.chunks_exact(stride << 1))
        {
            let (p0, p1) = pb.split_at(stride);
            let (l0, l1) = lb.split_at(stride);
            for ((l, x), y) in l0.iter().zip(p0).zip(p1) {
                acc += l.conj() * (m00 * *x + m01 * *y);
            }
            for ((l, x), y) in l1.iter().zip(p0).zip(p1) {
                acc += l.conj() * (m10 * *x + m11 * *y);
            }
        }
        acc
    }

    /// The general `inner_controlled_projected_amps` fold, every product kept.
    fn reference_inner_controlled_projected(
        lambda: &[C64],
        psi: &[C64],
        m: &Matrix2,
        control: usize,
        target: usize,
    ) -> C64 {
        let (c_mask, t_stride) = (1usize << control, 1usize << target);
        let (m00, m01, m10, m11) = (m[0][0], m[0][1], m[1][0], m[1][1]);
        let mut acc = C64::ZERO;
        for (k, l) in lambda.iter().enumerate() {
            let mu = if k & c_mask == 0 {
                C64::ZERO
            } else if k & t_stride == 0 {
                m00 * psi[k] + m01 * psi[k | t_stride]
            } else {
                m10 * psi[k ^ t_stride] + m11 * psi[k]
            };
            acc += l.conj() * mu;
        }
        acc
    }

    #[test]
    fn shape_is_read_from_the_matrix_values() {
        use Shape::*;
        let theta = 0.83;
        let expect = [
            (GateKind::I, Diagonal, None),
            (GateKind::H, Real, None),
            (GateKind::X, Real, None),
            (GateKind::Y, ImagOffDiagonal, None),
            (GateKind::Z, Diagonal, None),
            (GateKind::S, Diagonal, None),
            (GateKind::T, Diagonal, None),
            (GateKind::RX, ImagOffDiagonal, Some(ImagOffDiagonal)),
            (GateKind::RY, Real, Some(Real)),
            (GateKind::RZ, Diagonal, Some(Diagonal)),
            (GateKind::PhaseShift, Diagonal, Some(Diagonal)),
            (GateKind::Cnot, Real, None),
            (GateKind::Cz, Diagonal, None),
            (GateKind::Crx, ImagOffDiagonal, Some(ImagOffDiagonal)),
            (GateKind::Cry, Real, Some(Real)),
            (GateKind::Crz, Diagonal, Some(Diagonal)),
        ];
        for (kind, shape, dshape) in expect {
            let m = kind.matrix(theta);
            assert_eq!(Shape::of(&m), shape, "{kind:?}");
            assert_eq!(Shape::of(&crate::gates::dagger(&m)), shape, "{kind:?}†");
            assert_eq!(
                kind.dmatrix(theta).map(|d| Shape::of(&d)),
                dshape,
                "d{kind:?}"
            );
        }
        // A rotation at angle 0 is the identity, hence diagonal.
        assert_eq!(Shape::of(&GateKind::RX.matrix(0.0)), Diagonal);
        let dense = [
            [C64::new(0.6, 0.1), C64::new(-0.2, 0.7)],
            [C64::new(0.3, -0.4), C64::new(0.5, 0.2)],
        ];
        assert_eq!(Shape::of(&dense), General);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut m = GateKind::I.matrix(0.0);
            m[r][c].im = f64::NAN;
            assert_eq!(Shape::of(&m), General, "NaN at ({r}, {c})");
        }
    }

    #[test]
    fn structured_inner_kernels_match_the_general_fold_bitwise() {
        // The specialised `(M·ψ)_k` may differ from the general one only
        // in the sign of an exact zero, and the fold starts at +0, so the
        // inner products must match to the bit — on dense states and on
        // encoded product states full of exact zeros.
        let n = 7;
        let dense = |seed: f64| {
            let mut s = StateVector::new(n);
            for w in 0..n {
                s.apply_single(&GateKind::RY.matrix(seed + 0.37 * w as f64), w);
                s.apply_single(&GateKind::RZ.matrix(seed * 1.3 - 0.21 * w as f64), w);
            }
            for w in 0..n - 1 {
                s.apply_controlled(&GateKind::X.matrix(0.0), w, w + 1);
            }
            s
        };
        let encoded = |kind: GateKind, seed: f64| {
            let mut s = StateVector::new(n);
            for w in 0..n {
                s.apply_single(&kind.matrix(seed - 0.53 * w as f64), w);
            }
            s
        };
        let states = [
            (dense(0.4), dense(-1.1)),
            (encoded(GateKind::RY, 0.9), encoded(GateKind::RX, -0.6)),
            (encoded(GateKind::RX, 1.7), dense(0.2)),
        ];
        let bits = |z: C64| (z.re.to_bits(), z.im.to_bits());
        for kind in [
            GateKind::H,
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::T,
            GateKind::RX,
            GateKind::RY,
            GateKind::RZ,
            GateKind::PhaseShift,
        ] {
            let m = kind.matrix(1.234);
            let mut ms = vec![m, crate::gates::dagger(&m)];
            ms.extend(kind.dmatrix(1.234));
            for m in &ms {
                for (psi, lambda) in &states {
                    let (l, p) = (lambda.amplitudes(), psi.amplitudes());
                    for t in 0..n {
                        let want = reference_inner_single(l, p, m, t);
                        let got = inner_single_amps(l, p, m, t);
                        assert_eq!(bits(got), bits(want), "{kind:?} t={t}");
                        for c in (0..n).filter(|&c| c != t) {
                            let want = reference_inner_controlled_projected(l, p, m, c, t);
                            let got = inner_controlled_projected_amps(l, p, m, c, t);
                            assert_eq!(bits(got), bits(want), "{kind:?} c={c} t={t}");
                        }
                    }
                }
            }
        }
    }
}
