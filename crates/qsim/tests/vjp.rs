//! The vector-Jacobian adjoint against its oracles on random circuits:
//! the full-Jacobian [`adjoint`] contracted by the weights, and the
//! parameter-shift rule. One-hot weights must reproduce an `adjoint` row
//! bit for bit — both engines share one reverse sweep.

use hqnn_qsim::{
    adjoint, adjoint_vjp, parameter_shift, Circuit, GateKind, Observable, ParamSource, Pauli,
};
use hqnn_tensor::SeededRng;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

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
