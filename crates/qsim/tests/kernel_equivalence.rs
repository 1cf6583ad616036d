//! Property tests: the chunked amplitude-pair kernels in `state.rs` are
//! **bitwise** equal to the scalar reference loops they replaced.
//!
//! The rewrite restructured the index walks (`apply_single` into
//! contiguous half-block sweeps; `apply_controlled` from a scan of the
//! whole state with a `continue` on control-0 indices to a walk that
//! enumerates only control-1 pairs) but kept the per-pair arithmetic as
//! the exact expression `m·(a, b)ᵀ`. Same pairs, same expressions → the
//! outputs must match to the bit, which is what pins the workspace-wide
//! determinism contract through the kernel swap. The reference
//! implementations below are verbatim copies of the pre-rewrite loops.
//!
//! The kernels also skip the products a diagonal, real or
//! imaginary-off-diagonal matrix contributes as exact zeros. The
//! `structured_*` properties pin that: against the same general
//! reference loops, every nonzero component stays bitwise equal and a zero
//! component may differ only in its sign, over every gate matrix, its
//! adjoint and its derivative, on dense states and on encoded product
//! states full of exact zeros.
//!
//! `templates_match_reference_loop_up_to_zero_sign` is the whole-circuit
//! oracle: random BEL/SEL templates with random bindings, simulated op by
//! op through the reference loops, against [`hqnn_qsim::Circuit::run`].

use hqnn_qsim::gates::dagger;
use hqnn_qsim::{EntanglerKind, GateKind, QnnTemplate, RotationAxis, StateVector, Wires, C64};
use proptest::prelude::*;

type Matrix2 = [[C64; 2]; 2];

/// Pre-rewrite `apply_single`: per-block index loop with per-iteration
/// bounds checks.
fn reference_apply_single(amps: &mut [C64], m: &Matrix2, target: usize) {
    let stride = 1usize << target;
    let len = amps.len();
    let mut base = 0;
    while base < len {
        for i in base..base + stride {
            let a = amps[i];
            let b = amps[i + stride];
            amps[i] = m[0][0] * a + m[0][1] * b;
            amps[i + stride] = m[1][0] * a + m[1][1] * b;
        }
        base += stride << 1;
    }
}

/// Pre-rewrite `apply_controlled`: scans every target-0 index and skips the
/// control-0 half with `continue`.
fn reference_apply_controlled(amps: &mut [C64], m: &Matrix2, control: usize, target: usize) {
    let t_stride = 1usize << target;
    let c_mask = 1usize << control;
    let len = amps.len();
    let mut base = 0;
    while base < len {
        for i in base..base + t_stride {
            if i & c_mask == 0 {
                continue;
            }
            let a = amps[i];
            let b = amps[i + t_stride];
            amps[i] = m[0][0] * a + m[0][1] * b;
            amps[i + t_stride] = m[1][0] * a + m[1][1] * b;
        }
        base += t_stride << 1;
    }
}

/// Pre-rewrite `apply_controlled_projected`: same scan, zeroing the
/// control-0 subspace instead of skipping it.
fn reference_apply_controlled_projected(
    amps: &mut [C64],
    m: &Matrix2,
    control: usize,
    target: usize,
) {
    let t_stride = 1usize << target;
    let c_mask = 1usize << control;
    let len = amps.len();
    let mut base = 0;
    while base < len {
        for i in base..base + t_stride {
            if i & c_mask == 0 {
                amps[i] = C64::ZERO;
                amps[i + t_stride] = C64::ZERO;
                continue;
            }
            let a = amps[i];
            let b = amps[i + t_stride];
            amps[i] = m[0][0] * a + m[0][1] * b;
            amps[i + t_stride] = m[1][0] * a + m[1][1] * b;
        }
        base += t_stride << 1;
    }
}

/// A random normalised state on `n` qubits. Normalisation divides every
/// component by the same norm, so both the kernel and the reference see
/// identical input bits.
fn state(n: usize) -> impl Strategy<Value = Vec<C64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1 << n).prop_map(|pairs| {
        let norm_sqr: f64 = pairs.iter().map(|(re, im)| re * re + im * im).sum();
        if norm_sqr < 1e-9 {
            // Degenerate draw (shrinking drives everything to 0): fall back
            // to the basis state instead of dividing by ~0.
            let mut amps = vec![C64::ZERO; pairs.len()];
            amps[0] = C64::ONE;
            return amps;
        }
        let scale = norm_sqr.sqrt().recip();
        pairs
            .into_iter()
            .map(|(re, im)| C64::new(re * scale, im * scale))
            .collect()
    })
}

/// An arbitrary (not necessarily unitary) 2×2 complex matrix — the kernels
/// never assume unitarity, and the adjoint pass feeds them non-unitary
/// `dU/dθ` matrices.
fn matrix() -> impl Strategy<Value = Matrix2> {
    proptest::collection::vec((-1.5f64..1.5, -1.5f64..1.5), 4).prop_map(|e| {
        [
            [C64::new(e[0].0, e[0].1), C64::new(e[1].0, e[1].1)],
            [C64::new(e[2].0, e[2].1), C64::new(e[3].0, e[3].1)],
        ]
    })
}

/// A random state plus one wire on it.
fn state_and_wire() -> impl Strategy<Value = (Vec<C64>, usize)> {
    (1usize..=10).prop_flat_map(|n| (state(n), 0..n))
}

/// A random state plus two distinct wires on it. Up to 10 qubits so wire
/// strides cross the controlled kernel's flat-walk/nested-walk threshold
/// and both enumeration shapes get exercised.
fn state_and_wire_pair() -> impl Strategy<Value = (Vec<C64>, usize, usize)> {
    with_wire_pair(state)
}

/// A state drawn by `states` plus two distinct wires on it.
fn with_wire_pair<S: Strategy<Value = Vec<C64>>>(
    states: fn(usize) -> S,
) -> impl Strategy<Value = (Vec<C64>, usize, usize)> {
    (2usize..=10).prop_flat_map(move |n| {
        (states(n), 0..n, 0..n - 1).prop_map(|(amps, a, b)| {
            // Map b away from a so the pair is always distinct.
            let b = if b >= a { b + 1 } else { b };
            (amps, a, b)
        })
    })
}

fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
    amps.iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// Like [`bits`], with both zeros mapped to `+0`: equal vectors mean every
/// nonzero component matches to the bit and zeros match up to sign.
fn bits_up_to_zero_sign(amps: &[C64]) -> Vec<(u64, u64)> {
    let canon = |v: f64| if v == 0.0 { 0 } else { v.to_bits() };
    amps.iter().map(|a| (canon(a.re), canon(a.im))).collect()
}

/// Every gate with a 2×2 matrix (SWAP has none); X, Y and Z double as the
/// Pauli observables.
const MATRIX_GATES: [GateKind; 18] = [
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
    GateKind::Cnot,
    GateKind::Cz,
    GateKind::Crx,
    GateKind::Cry,
    GateKind::Crz,
];

/// A gate matrix the simulator really applies: `U(θ)`, its adjoint (the
/// reverse sweep's un-apply) or `dU/dθ` (fixed gates fall back to `U`).
/// One angle in four is exactly 0, where rotations turn diagonal.
fn structured_matrix() -> impl Strategy<Value = Matrix2> {
    (0..MATRIX_GATES.len(), 0usize..3, -7.0f64..7.0, 0usize..4).prop_map(
        |(g, variant, theta, zero)| {
            let (kind, theta) = (MATRIX_GATES[g], if zero == 0 { 0.0 } else { theta });
            match variant {
                0 => kind.matrix(theta),
                1 => dagger(&kind.matrix(theta)),
                _ => kind.dmatrix(theta).unwrap_or_else(|| kind.matrix(theta)),
            }
        },
    )
}

/// An angle-encoded product state: RX or RY per wire on `|0…0⟩`, built with
/// the reference loop. RY rows are real and RX amplitudes are purely real
/// or purely imaginary, so half the components are exact zeros.
fn encoded_state(n: usize) -> impl Strategy<Value = Vec<C64>> {
    (
        proptest::collection::vec(-3.2f64..3.2, n),
        proptest::collection::vec(0usize..2, n),
    )
        .prop_map(move |(angles, axes)| {
            let mut amps = vec![C64::ZERO; 1 << n];
            amps[0] = C64::ONE;
            for (w, (theta, axis)) in angles.into_iter().zip(axes).enumerate() {
                let kind = if axis == 0 {
                    GateKind::RX
                } else {
                    GateKind::RY
                };
                reference_apply_single(&mut amps, &kind.matrix(theta), w);
            }
            amps
        })
}

/// A dense random state or an encoded product state.
fn any_state(n: usize) -> impl Strategy<Value = Vec<C64>> {
    prop_oneof![state(n), encoded_state(n)]
}

fn any_state_and_wire() -> impl Strategy<Value = (Vec<C64>, usize)> {
    (1usize..=10).prop_flat_map(|n| (any_state(n), 0..n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apply_single_bitwise_matches_reference(
        (amps, target) in state_and_wire(),
        m in matrix(),
    ) {
        let mut reference = amps.clone();
        reference_apply_single(&mut reference, &m, target);
        let mut sv = StateVector::from_amplitudes(amps);
        sv.apply_single(&m, target);
        prop_assert_eq!(bits(&sv.amplitudes()), bits(&reference));
    }

    #[test]
    fn apply_controlled_bitwise_matches_reference(
        (amps, control, target) in state_and_wire_pair(),
        m in matrix(),
    ) {
        let mut reference = amps.clone();
        reference_apply_controlled(&mut reference, &m, control, target);
        let mut sv = StateVector::from_amplitudes(amps);
        sv.apply_controlled(&m, control, target);
        prop_assert_eq!(bits(&sv.amplitudes()), bits(&reference));
    }

    #[test]
    fn apply_controlled_projected_bitwise_matches_reference(
        (amps, control, target) in state_and_wire_pair(),
        m in matrix(),
    ) {
        let mut reference = amps.clone();
        reference_apply_controlled_projected(&mut reference, &m, control, target);
        let mut sv = StateVector::from_amplitudes(amps);
        sv.apply_controlled_projected(&m, control, target);
        prop_assert_eq!(bits(&sv.amplitudes()), bits(&reference));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn structured_apply_single_matches_reference_up_to_zero_sign(
        (amps, target) in any_state_and_wire(),
        m in structured_matrix(),
    ) {
        let mut reference = amps.clone();
        reference_apply_single(&mut reference, &m, target);
        let mut sv = StateVector::from_amplitudes(amps);
        sv.apply_single(&m, target);
        prop_assert_eq!(bits_up_to_zero_sign(&sv.amplitudes()), bits_up_to_zero_sign(&reference));
    }

    #[test]
    fn structured_apply_controlled_matches_reference_up_to_zero_sign(
        (amps, control, target) in with_wire_pair(any_state),
        m in structured_matrix(),
    ) {
        let mut reference = amps.clone();
        reference_apply_controlled(&mut reference, &m, control, target);
        let mut sv = StateVector::from_amplitudes(amps);
        sv.apply_controlled(&m, control, target);
        prop_assert_eq!(bits_up_to_zero_sign(&sv.amplitudes()), bits_up_to_zero_sign(&reference));
    }

    #[test]
    fn structured_apply_controlled_projected_matches_reference_up_to_zero_sign(
        (amps, control, target) in with_wire_pair(any_state),
        m in structured_matrix(),
    ) {
        let mut reference = amps.clone();
        reference_apply_controlled_projected(&mut reference, &m, control, target);
        let mut sv = StateVector::from_amplitudes(amps);
        sv.apply_controlled_projected(&m, control, target);
        prop_assert_eq!(bits_up_to_zero_sign(&sv.amplitudes()), bits_up_to_zero_sign(&reference));
    }

    #[test]
    fn dense_matrix_on_zero_rich_states_matches_reference_bitwise(
        (amps, control, target) in with_wire_pair(encoded_state),
        m in matrix(),
    ) {
        // A dense matrix has no zero products to skip: the general loop
        // runs, so even the signs of zero components match.
        let mut reference = amps.clone();
        reference_apply_single(&mut reference, &m, target);
        let mut sv = StateVector::from_amplitudes(amps.clone());
        sv.apply_single(&m, target);
        prop_assert_eq!(bits(&sv.amplitudes()), bits(&reference));
        let mut reference = amps.clone();
        reference_apply_controlled(&mut reference, &m, control, target);
        let mut sv = StateVector::from_amplitudes(amps);
        sv.apply_controlled(&m, control, target);
        prop_assert_eq!(bits(&sv.amplitudes()), bits(&reference));
    }
}

/// A random BEL/SEL template (1–5 qubits, depth 1–3, any encoding axis)
/// with random input and trainable bindings.
fn bound_template() -> impl Strategy<Value = (QnnTemplate, Vec<f64>, Vec<f64>)> {
    let axes = [RotationAxis::X, RotationAxis::Y, RotationAxis::Z];
    (1usize..=5, 1usize..=3, proptest::bool::ANY, 0..axes.len()).prop_flat_map(
        move |(q, d, strong, axis)| {
            let kind = if strong {
                EntanglerKind::Strong
            } else {
                EntanglerKind::Basic
            };
            let t = QnnTemplate::new(q, d, kind).with_encoding_axis(axes[axis]);
            (
                Just(t),
                proptest::collection::vec(-3.2f64..3.2, q),
                proptest::collection::vec(-7.0f64..7.0, t.param_count()),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn templates_match_reference_loop_up_to_zero_sign(
        (t, inputs, params) in bound_template(),
    ) {
        let circuit = t.build();
        let mut reference = vec![C64::ZERO; 1 << t.n_qubits()];
        reference[0] = C64::ONE;
        for op in circuit.ops() {
            let theta = if op.kind.is_parametrized() {
                op.param.resolve(&inputs, &params)
            } else {
                0.0
            };
            let m = op.kind.matrix(theta);
            match op.wires {
                Wires::One(w) => reference_apply_single(&mut reference, &m, w),
                Wires::Two(c, w) => reference_apply_controlled(&mut reference, &m, c, w),
            }
        }
        let sv = circuit.run(&inputs, &params);
        prop_assert_eq!(bits_up_to_zero_sign(&sv.amplitudes()), bits_up_to_zero_sign(&reference));
    }
}

#[test]
fn nan_entry_takes_the_general_path_bit_for_bit() {
    // On (1, -0), the diagonal transform writes m11·(-0) = -0 where the
    // general loop adds the +0 product m10·1 and writes +0. So the zero's
    // sign shows which path ran: the identity takes the diagonal one, and
    // the same matrix with a NaN entry must take the general one.
    let amps = vec![C64::ONE, C64::new(-0.0, 0.0)];
    let identity = GateKind::I.matrix(0.0);
    let mut nan_diag = identity;
    nan_diag[0][0] = C64::new(f64::NAN, 0.0);
    let mut nan_off_diag = identity;
    nan_off_diag[0][1] = C64::new(0.0, f64::NAN);

    let mut reference = amps.clone();
    reference_apply_single(&mut reference, &identity, 0);
    let mut sv = StateVector::from_amplitudes(amps.clone());
    sv.apply_single(&identity, 0);
    assert_eq!(
        bits_up_to_zero_sign(&sv.amplitudes()),
        bits_up_to_zero_sign(&reference)
    );
    assert_ne!(
        bits(&sv.amplitudes()),
        bits(&reference),
        "identity runs the diagonal transform"
    );

    for m in [nan_diag, nan_off_diag] {
        let mut reference = amps.clone();
        reference_apply_single(&mut reference, &m, 0);
        let mut sv = StateVector::from_amplitudes(amps.clone());
        sv.apply_single(&m, 0);
        assert_eq!(bits(&sv.amplitudes()), bits(&reference));
    }
}
