//! The vector-Jacobian adjoint against its oracles on random circuits:
//! the full-Jacobian [`adjoint`] contracted by the weights, and the
//! parameter-shift rule. One-hot weights must reproduce an `adjoint` row
//! bit for bit — both engines share one reverse sweep. A per-row
//! reference sweep written here from public calls pins the gate-major
//! batch sweep's bits to the textbook per-row formulation, including when
//! it starts from the states a recorded forward kept (`BatchTape`) and
//! the batch spans several chunks.

use hqnn_qsim::gates::{dagger, Matrix2};
use hqnn_qsim::{
    adjoint, adjoint_vjp, parameter_shift, vjp_batch, Circuit, EntanglerKind, GateKind, Observable,
    ParamSource, Pauli, QnnTemplate, StateVector, Wires, C64,
};
use hqnn_tensor::{Matrix, SeededRng};
use proptest::prelude::*;

/// A random circuit over 2–4 wires mixing encoded inputs, trainable and
/// fixed rotations, controlled rotations, fixed gates and SWAPs, with its
/// inputs and parameters. Slots may feed several gates.
fn random_case(seed: u64) -> (Circuit, Vec<f64>, Vec<f64>) {
    let mut rng = SeededRng::new(seed);
    let n = 2 + rng.index(3);
    let n_inputs = 1 + rng.index(n);
    let n_params = 1 + rng.index(6);
    let mut c = Circuit::new(n);
    let n_ops = 1 + rng.index(14);
    for _ in 0..n_ops {
        let a = rng.index(n);
        let b = (a + 1 + rng.index(n - 1)) % n;
        let src = match rng.index(3) {
            0 => ParamSource::Input(rng.index(n_inputs)),
            1 => ParamSource::Trainable(rng.index(n_params)),
            _ => ParamSource::Fixed(rng.uniform(-3.0, 3.0)),
        };
        match rng.index(11) {
            0 => c.h(a),
            1 => c.x(a),
            2 => c.rx(a, src),
            3 => c.ry(a, src),
            4 => c.rz(a, src),
            5 => c.phase_shift(a, src),
            6 => c.cnot(a, b),
            7 => c.cz(a, b),
            8 => c.swap(a, b),
            9 => c.controlled_rotation(GateKind::Crx, a, b, src),
            _ => c.controlled_rotation(
                if rng.index(2) == 0 {
                    GateKind::Cry
                } else {
                    GateKind::Crz
                },
                a,
                b,
                src,
            ),
        }
    }
    let inputs = (0..c.input_count())
        .map(|_| rng.uniform(-2.0, 2.0))
        .collect();
    let params = (0..c.trainable_count())
        .map(|_| rng.uniform(-3.0, 3.0))
        .collect();
    (c, inputs, params)
}

/// Single-wire X/Y/Z readouts on every wire plus a random multi-factor
/// Pauli string, each with a random weight — about a quarter exactly 0.
fn random_readout(n: usize, seed: u64) -> (Vec<Observable>, Vec<f64>) {
    let mut rng = SeededRng::new(seed ^ 0x5eed);
    let mut obs = Vec::new();
    for w in 0..n {
        obs.push(match rng.index(3) {
            0 => Observable::x(w),
            1 => Observable::y(w),
            _ => Observable::z(w),
        });
    }
    let paulis = [Pauli::X, Pauli::Y, Pauli::Z];
    obs.push(Observable::pauli_string(
        (0..n).map(|w| (w, paulis[rng.index(3)])),
    ));
    let weights = obs
        .iter()
        .map(|_| {
            if rng.index(4) == 0 {
                0.0
            } else {
                rng.uniform(-1.5, 1.5)
            }
        })
        .collect();
    (obs, weights)
}

/// `Σ_o w_o · J[o, ·]` in observable order.
fn contract(jacobian: &hqnn_tensor::Matrix, weights: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; jacobian.cols()];
    for (o, &w) in weights.iter().enumerate() {
        for (acc, j) in out.iter_mut().zip(jacobian.row(o)) {
            *acc += w * j;
        }
    }
    out
}

fn assert_close(got: &[f64], want: &[f64], tol: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!((g - w).abs() <= tol, "{what}[{i}]: {g} vs {w}");
    }
}

/// `m` on every `(i, i | 2^target)` amplitude pair, restricted to indices
/// with the `control` bit set when there is one — the scalar form of the
/// simulator's gate kernels (same per-pair expressions).
fn apply_2x2(amps: &mut [C64], m: &Matrix2, target: usize, control: Option<usize>) {
    let t = 1usize << target;
    for i in 0..amps.len() {
        let controlled_off = control.is_some_and(|c| i & (1usize << c) == 0);
        if i & t != 0 || controlled_off {
            continue;
        }
        let (x, y) = (amps[i], amps[i | t]);
        amps[i] = m[0][0] * x + m[0][1] * y;
        amps[i | t] = m[1][0] * x + m[1][1] * y;
    }
}

/// Un-applies one op: SWAP is self-inverse, everything else gets `U(θ)†`.
fn un_apply(amps: &mut [C64], wires: Wires, kind: GateKind, theta: f64) {
    match wires {
        Wires::Two(a, b) if kind == GateKind::Swap => {
            let (ma, mb) = (1usize << a, 1usize << b);
            for i in 0..amps.len() {
                if i & ma != 0 && i & mb == 0 {
                    amps.swap(i, (i & !ma) | mb);
                }
            }
        }
        Wires::One(w) => apply_2x2(amps, &dagger(&kind.matrix(theta)), w, None),
        Wires::Two(c, t) => apply_2x2(amps, &dagger(&kind.matrix(theta)), t, Some(c)),
    }
}

/// `⟨l|r⟩`, folded left to right in index order.
fn inner(l: &[C64], r: &[C64]) -> C64 {
    let mut acc = C64::ZERO;
    for (a, b) in l.iter().zip(r) {
        acc += a.conj() * *b;
    }
    acc
}

/// The per-row adjoint reverse sweep: from the final state `psi` and the
/// seed `lambda`, un-apply each op from `ψ`, add `2·Re⟨λ|μ⟩` with `μ` a
/// fresh copy of `ψ` with `dU` applied (`|1⟩⟨1| ⊗ dU` for controlled
/// rotations), then un-apply it from `λ`. Returns `(d_params, d_inputs)`.
fn reference_sweep(
    c: &Circuit,
    inputs: &[f64],
    params: &[f64],
    mut psi: Vec<C64>,
    mut lambda: Vec<C64>,
) -> (Vec<f64>, Vec<f64>) {
    let mut d_params = vec![0.0; c.trainable_count()];
    let mut d_inputs = vec![0.0; c.input_count()];
    for op in c.ops().iter().rev() {
        let theta = if op.kind.is_parametrized() {
            op.param.resolve(inputs, params)
        } else {
            0.0
        };
        un_apply(&mut psi, op.wires, op.kind, theta);
        if op.param.is_differentiable() {
            let dm = op.kind.dmatrix(theta).expect("parametrized");
            let mut mu = psi.clone();
            match op.wires {
                Wires::One(w) => apply_2x2(&mut mu, &dm, w, None),
                Wires::Two(ctl, t) => {
                    for (i, a) in mu.iter_mut().enumerate() {
                        if i & (1usize << ctl) == 0 {
                            *a = C64::ZERO;
                        }
                    }
                    apply_2x2(&mut mu, &dm, t, Some(ctl));
                }
            }
            let g = 2.0 * inner(&lambda, &mu).re;
            match op.param {
                ParamSource::Trainable(i) => d_params[i] += g,
                ParamSource::Input(i) => d_inputs[i] += g,
                _ => unreachable!(),
            }
        }
        un_apply(&mut lambda, op.wires, op.kind, theta);
    }
    (d_params, d_inputs)
}

/// Reference VJP of one row: re-simulate, seed `λ = Σ_o w_o·O_o|ψ⟩` from
/// zero (zero weights skipped), sweep.
fn reference_vjp(
    c: &Circuit,
    inputs: &[f64],
    params: &[f64],
    obs: &[Observable],
    weights: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let psi = c.run(inputs, params);
    let mut lambda = vec![C64::ZERO; psi.amplitudes().len()];
    for (o, &w) in obs.iter().zip(weights) {
        if w == 0.0 {
            continue;
        }
        let mut term = psi.clone();
        o.apply_to(&mut term);
        for (a, b) in lambda.iter_mut().zip(term.amplitudes()) {
            *a += b.scale(w);
        }
    }
    reference_sweep(c, inputs, params, psi.amplitudes().to_vec(), lambda)
}

/// Asserts `got` and `want` are the same floats bit for bit.
fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

/// A random readout for `c` and a `(rows, observables)` weight matrix for
/// it, about a quarter of the weights exactly 0.
fn random_weights(c: &Circuit, rows: usize, seed: u64) -> (Vec<Observable>, Matrix) {
    let (obs, _) = random_readout(c.n_qubits(), seed);
    let mut rng = SeededRng::new(seed ^ 0xb17);
    let w = Matrix::from_vec(
        rows,
        obs.len(),
        (0..rows * obs.len())
            .map(|_| {
                if rng.index(4) == 0 {
                    0.0
                } else {
                    rng.uniform(-1.5, 1.5)
                }
            })
            .collect(),
    );
    (obs, w)
}

/// The per-row reference VJP of every row of `x`.
fn reference_rows(
    c: &Circuit,
    params: &[f64],
    x: &Matrix,
    obs: &[Observable],
    w: &Matrix,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    (0..x.rows())
        .map(|r| reference_vjp(c, x.row(r), params, obs, w.row(r)))
        .collect()
}

/// Asserts each row's VJP equals the reference bit for bit.
fn assert_rows(got: &[hqnn_qsim::Vjp], want: &[(Vec<f64>, Vec<f64>)], at: &str) {
    assert_eq!(got.len(), want.len(), "{at}: rows");
    for (r, (vjp, (d_params, d_inputs))) in got.iter().zip(want).enumerate() {
        assert_bits(&vjp.d_params, d_params, &format!("{at} row={r} d_params"));
        assert_bits(&vjp.d_inputs, d_inputs, &format!("{at} row={r} d_inputs"));
    }
}

/// `vjp_batch` at every thread budget, and `adjoint` per
/// row, against the per-row reference sweep — bit for bit.
fn assert_matches_reference(c: &Circuit, params: &[f64], x: &Matrix, seed: u64) {
    let (obs, w) = random_weights(c, x.rows(), seed);
    let want = reference_rows(c, params, x, &obs, &w);
    for threads in [1, 2, 7] {
        let got = hqnn_runtime::with_threads(threads, || vjp_batch(c, x, params, &obs, &w));
        assert_rows(&got, &want, &format!("threads={threads}"));
    }
    for r in 0..x.rows() {
        let jac = adjoint(c, x.row(r), params, &obs);
        let psi: StateVector = c.run(x.row(r), params);
        for (o, ob) in obs.iter().enumerate() {
            assert_eq!(
                jac.expectations[o].to_bits(),
                ob.expectation(&psi).to_bits()
            );
            let mut lambda = psi.clone();
            ob.apply_to(&mut lambda);
            let (d_params, d_inputs) = reference_sweep(
                c,
                x.row(r),
                params,
                psi.amplitudes().to_vec(),
                lambda.amplitudes().to_vec(),
            );
            assert_bits(
                jac.d_params.row(o),
                &d_params,
                &format!("adjoint row={r} obs={o}"),
            );
            assert_bits(
                jac.d_inputs.row(o),
                &d_inputs,
                &format!("adjoint row={r} obs={o}"),
            );
        }
    }
}

/// The recorded-forward path at every thread budget: `record_batch`'s
/// expectations equal `expectations_batch`'s, and the tape's VJP — taken
/// twice, since a backward must not consume the tape — equals the per-row
/// reference sweep, bit for bit.
fn assert_tape_matches_reference(c: &Circuit, params: &[f64], x: &Matrix, seed: u64) {
    let (obs, w) = random_weights(c, x.rows(), seed);
    let want = reference_rows(c, params, x, &obs, &w);
    let want_exp = hqnn_runtime::with_threads(1, || c.expectations_batch(x, params, &obs));
    for threads in [1, 2, 7] {
        let at = format!("threads={threads}");
        let (exp, tape) = hqnn_runtime::with_threads(threads, || c.record_batch(x, params, &obs));
        assert_bits(
            exp.as_slice(),
            want_exp.as_slice(),
            &format!("{at} expectations"),
        );
        for pass in 0..2 {
            let got = hqnn_runtime::with_threads(threads, || tape.vjp(c, x, &obs, &w));
            assert_rows(&got, &want, &format!("{at} pass={pass}"));
        }
    }
}

/// Rows per gate-major chunk of an `n`-qubit circuit: the simulator's
/// 2⁹-amplitude chunk rule, mirrored so batches can be sized to straddle
/// chunk boundaries.
fn chunk_rows(n: usize) -> usize {
    (512 >> n).max(1)
}

/// `rows` input rows for `c`, drawn from `seed`.
fn input_batch(c: &Circuit, rows: usize, seed: u64) -> Matrix {
    let mut rng = SeededRng::new(seed ^ 0x1a9e);
    let cols = c.input_count();
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.uniform(-2.0, 2.0)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batch_sweep_matches_per_row_reference_on_random_circuits(
        seed in 0u64..1_000_000,
        rows in 1usize..=9,
    ) {
        let (c, _, params) = random_case(seed);
        let x = input_batch(&c, rows, seed);
        assert_matches_reference(&c, &params, &x, seed);
    }

    #[test]
    fn batch_sweep_matches_per_row_reference_on_templates(
        seed in 0u64..1_000_000,
        n in 2usize..=5,
        depth in 1usize..=3,
        strong in proptest::bool::ANY,
        rows in 1usize..=9,
    ) {
        let kind = if strong { EntanglerKind::Strong } else { EntanglerKind::Basic };
        let c = QnnTemplate::new(n, depth, kind).build();
        let mut rng = SeededRng::new(seed);
        let params: Vec<f64> = (0..c.trainable_count()).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let x = input_batch(&c, rows, seed);
        assert_matches_reference(&c, &params, &x, seed);
    }

    #[test]
    fn vjp_matches_contracted_adjoint_and_parameter_shift(seed in 0u64..1_000_000) {
        let (c, inputs, params) = random_case(seed);
        let (obs, weights) = random_readout(c.n_qubits(), seed);
        let vjp = adjoint_vjp(&c, &inputs, &params, &obs, &weights);

        let jac = adjoint(&c, &inputs, &params, &obs);
        assert_close(&vjp.d_params, &contract(&jac.d_params, &weights), 1e-12, "d_params vs adjoint");
        assert_close(&vjp.d_inputs, &contract(&jac.d_inputs, &weights), 1e-12, "d_inputs vs adjoint");

        // The two-term shift rule covers every gate but the controlled
        // rotations, which need the four-term rule.
        if c.ops().iter().all(|op| !op.param.is_differentiable() || op.kind.supports_two_term_shift()) {
            let shift = parameter_shift(&c, &inputs, &params, &obs);
            assert_close(&vjp.d_params, &contract(&shift.d_params, &weights), 1e-12, "d_params vs shift");
            assert_close(&vjp.d_inputs, &contract(&shift.d_inputs, &weights), 1e-12, "d_inputs vs shift");
        }
    }

    #[test]
    fn one_hot_vjp_reproduces_adjoint_rows_bitwise(seed in 0u64..1_000_000) {
        let (c, inputs, params) = random_case(seed);
        let (obs, _) = random_readout(c.n_qubits(), seed);
        let jac = adjoint(&c, &inputs, &params, &obs);
        for o in 0..obs.len() {
            let mut one_hot = vec![0.0; obs.len()];
            one_hot[o] = 1.0;
            let vjp = adjoint_vjp(&c, &inputs, &params, &obs, &one_hot);
            for (a, b) in vjp.d_params.iter().zip(jac.d_params.row(o)) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in vjp.d_inputs.iter().zip(jac.d_inputs.row(o)) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tape_matches_per_row_reference_across_chunks(
        seed in 0u64..1_000_000,
        full in 0usize..=3,
        tail in 0usize..512,
    ) {
        // Up to three full chunks plus a ragged tail.
        let (c, _, params) = random_case(seed);
        let chunk = chunk_rows(c.n_qubits());
        let rows = (full * chunk + tail % chunk).max(1);
        let x = input_batch(&c, rows, seed);
        assert_tape_matches_reference(&c, &params, &x, seed);
    }

    #[test]
    fn tape_matches_per_row_reference_on_one_row_chunks(
        seed in 0u64..1_000_000,
        n in 9usize..=10,
        strong in proptest::bool::ANY,
        rows in 1usize..=4,
    ) {
        // Wide enough that every chunk holds a single row.
        let kind = if strong { EntanglerKind::Strong } else { EntanglerKind::Basic };
        let c = QnnTemplate::new(n, 1, kind).build();
        let mut rng = SeededRng::new(seed);
        let params: Vec<f64> = (0..c.trainable_count()).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let x = input_batch(&c, rows, seed);
        assert_tape_matches_reference(&c, &params, &x, seed);
    }
}

#[test]
fn all_zero_weights_give_zero_gradients() {
    let (c, inputs, params) = random_case(7);
    let obs: Vec<_> = (0..c.n_qubits()).map(Observable::z).collect();
    let vjp = adjoint_vjp(&c, &inputs, &params, &obs, &vec![0.0; obs.len()]);
    assert!(vjp.d_params.iter().chain(&vjp.d_inputs).all(|&g| g == 0.0));
    assert_eq!(vjp.d_params.len(), c.trainable_count());
    assert_eq!(vjp.d_inputs.len(), c.input_count());
}

#[test]
#[should_panic(expected = "one weight per observable")]
fn weight_count_must_match_observables() {
    let (c, inputs, params) = random_case(3);
    let _ = adjoint_vjp(&c, &inputs, &params, &[Observable::z(0)], &[1.0, 2.0]);
}

/// A 3-qubit circuit whose input-fed gates include plain and controlled
/// rotations, so a chunk of rows sweeps per-lane matrices through every
/// kernel, the projected-derivative one included; trainable controlled
/// rotations cover it with a shared matrix.
fn lane_case() -> (Circuit, Vec<f64>) {
    let mut c = Circuit::new(3);
    c.rx(0, ParamSource::Input(0));
    c.ry(1, ParamSource::Input(1));
    c.rz(2, ParamSource::Input(2));
    c.controlled_rotation(GateKind::Crx, 0, 1, ParamSource::Input(1));
    c.ry(0, ParamSource::Trainable(0));
    c.cnot(1, 2);
    c.controlled_rotation(GateKind::Cry, 2, 0, ParamSource::Trainable(1));
    c.controlled_rotation(GateKind::Crz, 1, 2, ParamSource::Input(0));
    c.rx(2, ParamSource::Trainable(2));
    c.swap(0, 2);
    c.h(1);
    (c, vec![0.4, -1.3, 2.2])
}

/// `rows` input rows cycling through the edge angles 0 (where a rotation
/// is diagonal), ±π and NaN among ordinary values, so one chunk mixes
/// lanes of different matrix shapes.
fn edge_inputs(rows: usize, cols: usize) -> Matrix {
    let pi = std::f64::consts::PI;
    let angles = [0.0, 0.7, pi, -pi, f64::NAN, -1.9, 0.0, 2.5, 1.2];
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| angles[(i * 5 + i / cols) % angles.len()])
            .collect(),
    )
}

/// Asserts `got` and `want` are the same floats bit for bit, any NaN
/// standing for any other.
fn assert_bits_or_nan(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        assert!(same, "{what}[{i}]: {g} vs {w}");
    }
}

#[test]
fn lane_edge_cases_match_per_row_engines_bitwise() {
    // Chunks of 1, 3, 8 and 64 lanes (a 3-qubit chunk holds 64 rows), each
    // mixing angles 0, ±π and NaN: every row's expectations and VJP must
    // equal the row run alone — through `adjoint_vjp` and through the
    // per-row reference sweep — bit for bit.
    let (c, params) = lane_case();
    let obs: Vec<Observable> = (0..3)
        .map(Observable::z)
        .chain([Observable::x(1)])
        .collect();
    for rows in [1, 3, 8, 64] {
        let x = edge_inputs(rows, c.input_count());
        let mut rng = SeededRng::new(rows as u64);
        let w = Matrix::from_vec(
            rows,
            obs.len(),
            (0..rows * obs.len())
                .map(|_| rng.uniform(-1.5, 1.5))
                .collect(),
        );
        for threads in [1, 2] {
            let (exp, tape) =
                hqnn_runtime::with_threads(threads, || c.record_batch(&x, &params, &obs));
            let got = hqnn_runtime::with_threads(threads, || tape.vjp(&c, &x, &obs, &w));
            assert_eq!(got.len(), rows);
            for (r, vjp) in got.iter().enumerate() {
                let at = format!("rows={rows} threads={threads} row={r}");
                let want = c.expectations(x.row(r), &params, &obs);
                assert_bits_or_nan(exp.row(r), &want, &format!("{at} expectations"));
                let solo = adjoint_vjp(&c, x.row(r), &params, &obs, w.row(r));
                assert_bits_or_nan(&vjp.d_params, &solo.d_params, &format!("{at} d_params"));
                assert_bits_or_nan(&vjp.d_inputs, &solo.d_inputs, &format!("{at} d_inputs"));
                let (d_params, d_inputs) = reference_vjp(&c, x.row(r), &params, &obs, w.row(r));
                assert_bits_or_nan(
                    &vjp.d_params,
                    &d_params,
                    &format!("{at} reference d_params"),
                );
                assert_bits_or_nan(
                    &vjp.d_inputs,
                    &d_inputs,
                    &format!("{at} reference d_inputs"),
                );
            }
        }
    }
}
