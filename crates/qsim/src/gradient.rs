//! Differentiation engines for variational circuits.
//!
//! Four ways to compute `d⟨O⟩/dθ` for every trainable parameter **and**
//! every encoded input of a [`Circuit`] — two adjoint engines and two
//! oracles for them:
//!
//! * [`adjoint`] — reverse-pass differentiation in O(gates · 2ⁿ) per
//!   observable with three statevectors of working memory. Exact (no shots,
//!   no truncation). It returns the full `n_obs × n_params` Jacobian and is
//!   the oracle the examples, the benchmarks and the property tests use.
//! * [`adjoint_vjp`] — the same reverse pass seeded with the weighted sum
//!   `λ = Σ_o w_o·O_o|ψ⟩`, returning the vector-Jacobian product
//!   `Σ_o w_o·d⟨O_o⟩/dθ` from **one** sweep instead of one per observable.
//!   This is what hybrid training uses (batched as [`crate::Plan::vjp_into`],
//!   from the tape its forward recorded): the loss is scalar, so the
//!   upstream gradient can be contracted before the sweep rather than after
//!   it.
//! * [`parameter_shift`] — the hardware-compatible two-term shift rule,
//!   `dE/dθ = (E(θ+π/2) − E(θ−π/2))/2`, costing two circuit executions per
//!   parametrized gate. Used to cross-check the adjoint engines and for the
//!   gradient-cost ablation.
//! * [`finite_diff`] — central differences; a test oracle only.
//!
//! There is one reverse-sweep routine, in [`crate::plan`], and it runs
//! gate-major over a chunk of rows from their final states: the chunks a
//! training forward recorded ([`crate::BatchTape`]), or one freshly
//! simulated row for the single-row engines. It takes every `U†` and `dU`
//! from the gate matrices the forward built, and each `⟨λ|dU|ψ⟩` comes from
//! a fused read-only kernel. [`crate::Plan::vjp_into`] drives it per
//! chunk, [`adjoint_vjp`] is its 1-row case, and [`adjoint`] is a loop of
//! per-observable seeds over it — every row gets the bits of the textbook
//! per-row sweep. All engines agree to numerical precision on every
//! supported circuit, which the test-suite and the workspace's property
//! tests enforce.

use hqnn_tensor::Matrix;

use crate::circuit::{Circuit, ParamSource};
use crate::observable::Observable;
use crate::plan::Plan;
use crate::state::StateVector;

/// Expectation values and their derivatives for one circuit evaluation.
///
/// Row `o` of each matrix corresponds to `observables[o]`; columns index the
/// trainable-parameter / input slots.
#[derive(Clone, Debug, PartialEq)]
pub struct Gradients {
    /// `⟨O_o⟩` for each observable.
    pub expectations: Vec<f64>,
    /// `d⟨O_o⟩ / dθ_t` — shape `(n_observables, trainable_count)`.
    pub d_params: Matrix,
    /// `d⟨O_o⟩ / dx_i` — shape `(n_observables, input_count)`.
    pub d_inputs: Matrix,
}

/// A vector-Jacobian product for one circuit evaluation: the observable
/// axis of the Jacobian contracted with a weight vector `w`.
#[derive(Clone, Debug, PartialEq)]
pub struct Vjp {
    /// `Σ_o w_o · d⟨O_o⟩ / dθ_t` — one entry per trainable slot.
    pub d_params: Vec<f64>,
    /// `Σ_o w_o · d⟨O_o⟩ / dx_i` — one entry per input slot.
    pub d_inputs: Vec<f64>,
}

/// Computes expectations and gradients with the adjoint method.
///
/// One forward pass builds the final state; then, per observable, a single
/// reverse sweep seeded with `λ = O|ψ⟩` walks the circuit backwards,
/// un-applying each gate and accumulating `2·Re⟨λ|dU|ψ⟩` for every
/// differentiable gate. Gradients are produced for both
/// [`ParamSource::Trainable`] and [`ParamSource::Input`] slots, so a
/// classical layer feeding the encoding can be backpropagated into.
///
/// Training needs only the contraction of this Jacobian with the upstream
/// gradient — [`adjoint_vjp`] computes that from one sweep.
///
/// # Panics
///
/// Panics if `inputs`/`params` are shorter than the circuit requires, or an
/// observable touches a wire outside the circuit.
pub fn adjoint(
    circuit: &Circuit,
    inputs: &[f64],
    params: &[f64],
    observables: &[Observable],
) -> Gradients {
    circuit.check_bindings(inputs, params);
    let _span = hqnn_telemetry::span("qsim.adjoint");
    hqnn_telemetry::counter("qsim.adjoint_passes", 1);
    let n_obs = observables.len();
    let mut grads = Gradients {
        expectations: Vec::with_capacity(n_obs),
        d_params: Matrix::zeros(n_obs, circuit.trainable_count()),
        d_inputs: Matrix::zeros(n_obs, circuit.input_count()),
    };
    Plan::new(circuit).jacobian_row(&Matrix::row_vector(inputs), params, observables, &mut grads);
    grads
}

/// Computes the vector-Jacobian product `Σ_o w_o · d⟨O_o⟩/d(θ, x)` with a
/// single adjoint sweep.
///
/// The adjoint gradient `2·Re⟨λ|dU|ψ⟩` is linear in the seed `λ`, so seeding
/// the sweep with `λ = Σ_o w_o·O_o|ψ⟩` yields the contracted gradient
/// directly: one forward simulation, one Pauli application per nonzero
/// weight, and one reverse sweep — independent of the observable count.
/// Observables whose weight is exactly `0` are skipped. Agrees with the
/// [`adjoint`] Jacobian contracted by `weights` to rounding (the observable
/// sum is re-associated), and bit for bit when `weights` is one-hot.
///
/// This is the 1-row case of [`crate::vjp_batch`]: both run the same
/// plan's forward and chunk routines, so a row's result does not depend on which
/// entry computed it.
///
/// # Panics
///
/// As for [`adjoint`]; additionally if `weights.len() != observables.len()`.
pub fn adjoint_vjp(
    circuit: &Circuit,
    inputs: &[f64],
    params: &[f64],
    observables: &[Observable],
    weights: &[f64],
) -> Vjp {
    assert_eq!(
        weights.len(),
        observables.len(),
        "one weight per observable"
    );
    circuit.check_bindings(inputs, params);
    Plan::new(circuit).vjp_row(
        &Matrix::row_vector(inputs),
        params,
        observables,
        &Matrix::row_vector(weights),
    )
}

/// Computes expectations and gradients with the two-term parameter-shift rule.
///
/// Each differentiable gate contributes
/// `(E(θ_g + π/2) − E(θ_g − π/2)) / 2` to the gradient of its parameter slot
/// (slots feeding several gates sum their per-gate contributions, as the
/// product rule requires).
///
/// # Panics
///
/// Panics under the same conditions as [`adjoint`], and additionally when a
/// differentiable gate does not admit the two-term rule (e.g. controlled
/// rotations, which need the four-term rule — use [`adjoint`] for those).
pub fn parameter_shift(
    circuit: &Circuit,
    inputs: &[f64],
    params: &[f64],
    observables: &[Observable],
) -> Gradients {
    let _span = hqnn_telemetry::span("qsim.parameter_shift");
    hqnn_telemetry::counter("qsim.parameter_shift_passes", 1);
    let n_obs = observables.len();
    let base_state = circuit.run(inputs, params);
    let mut grads = Gradients {
        expectations: observables
            .iter()
            .map(|o| o.expectation(&base_state))
            .collect(),
        d_params: Matrix::zeros(n_obs, circuit.trainable_count()),
        d_inputs: Matrix::zeros(n_obs, circuit.input_count()),
    };
    const SHIFT: f64 = std::f64::consts::FRAC_PI_2;

    for (k, op) in circuit.ops().iter().enumerate() {
        if !op.param.is_differentiable() {
            continue;
        }
        assert!(
            op.kind.supports_two_term_shift(),
            "{:?} does not admit the two-term shift rule; use adjoint()",
            op.kind
        );
        let plus = expectations_with_shift(circuit, inputs, params, observables, k, SHIFT);
        let minus = expectations_with_shift(circuit, inputs, params, observables, k, -SHIFT);
        for o in 0..n_obs {
            let g = (plus[o] - minus[o]) / 2.0;
            match op.param {
                ParamSource::Trainable(i) => grads.d_params[(o, i)] += g,
                ParamSource::Input(i) => grads.d_inputs[(o, i)] += g,
                _ => unreachable!(),
            }
        }
    }
    grads
}

/// Runs the circuit with gate `shifted_op`'s angle offset by `delta` and
/// returns the observable expectations.
fn expectations_with_shift(
    circuit: &Circuit,
    inputs: &[f64],
    params: &[f64],
    observables: &[Observable],
    shifted_op: usize,
    delta: f64,
) -> Vec<f64> {
    let mut state = StateVector::new(circuit.n_qubits());
    for (k, op) in circuit.ops().iter().enumerate() {
        if k == shifted_op {
            let theta = op.param.resolve(inputs, params) + delta;
            Circuit::apply_op_resolved(op, &mut state, theta);
        } else {
            Circuit::apply_op(op, &mut state, inputs, params);
        }
    }
    observables.iter().map(|o| o.expectation(&state)).collect()
}

/// Central-difference gradients with step `eps` — a slow, approximate oracle
/// used to validate the exact engines in tests.
///
/// # Panics
///
/// As for [`adjoint`]. Also panics if `eps <= 0`.
pub fn finite_diff(
    circuit: &Circuit,
    inputs: &[f64],
    params: &[f64],
    observables: &[Observable],
    eps: f64,
) -> Gradients {
    assert!(eps > 0.0, "finite-difference step must be positive");
    let n_obs = observables.len();
    let mut grads = Gradients {
        expectations: circuit.expectations(inputs, params, observables),
        d_params: Matrix::zeros(n_obs, circuit.trainable_count()),
        d_inputs: Matrix::zeros(n_obs, circuit.input_count()),
    };
    let mut p = params.to_vec();
    for t in 0..circuit.trainable_count() {
        p[t] += eps;
        let up = circuit.expectations(inputs, &p, observables);
        p[t] -= 2.0 * eps;
        let down = circuit.expectations(inputs, &p, observables);
        p[t] += eps;
        for o in 0..n_obs {
            grads.d_params[(o, t)] = (up[o] - down[o]) / (2.0 * eps);
        }
    }
    let mut x = inputs.to_vec();
    for i in 0..circuit.input_count() {
        x[i] += eps;
        let up = circuit.expectations(&x, params, observables);
        x[i] -= 2.0 * eps;
        let down = circuit.expectations(&x, params, observables);
        x[i] += eps;
        for o in 0..n_obs {
            grads.d_inputs[(o, i)] = (up[o] - down[o]) / (2.0 * eps);
        }
    }
    grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::GateKind;

    fn z_all(n: usize) -> Vec<Observable> {
        (0..n).map(Observable::z).collect()
    }

    #[test]
    fn adjoint_single_rx_gradient_is_minus_sine() {
        let mut c = Circuit::new(1);
        c.rx(0, ParamSource::Trainable(0));
        for k in 0..8 {
            let theta = k as f64 * 0.4 - 1.5;
            let g = adjoint(&c, &[], &[theta], &z_all(1));
            assert!((g.expectations[0] - theta.cos()).abs() < 1e-12);
            assert!(
                (g.d_params[(0, 0)] + theta.sin()).abs() < 1e-12,
                "θ={theta}"
            );
        }
    }

    #[test]
    fn parameter_shift_single_rx_gradient_is_minus_sine() {
        let mut c = Circuit::new(1);
        c.rx(0, ParamSource::Trainable(0));
        let theta = 0.9;
        let g = parameter_shift(&c, &[], &[theta], &z_all(1));
        assert!((g.d_params[(0, 0)] + theta.sin()).abs() < 1e-12);
    }

    #[test]
    fn input_gradients_flow() {
        let mut c = Circuit::new(1);
        c.ry(0, ParamSource::Input(0));
        let x = 0.6;
        let g = adjoint(&c, &[x], &[], &z_all(1));
        assert!((g.d_inputs[(0, 0)] + x.sin()).abs() < 1e-12);
        let ps = parameter_shift(&c, &[x], &[], &z_all(1));
        assert!((ps.d_inputs[(0, 0)] + x.sin()).abs() < 1e-12);
    }

    fn entangled_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.rx(0, ParamSource::Input(0));
        c.ry(1, ParamSource::Input(1));
        c.rz(2, ParamSource::Input(2));
        c.cnot(0, 1);
        c.rx(0, ParamSource::Trainable(0));
        c.ry(1, ParamSource::Trainable(1));
        c.rz(2, ParamSource::Trainable(2));
        c.cnot(1, 2);
        c.cnot(2, 0);
        c.ry(0, ParamSource::Trainable(3));
        c.h(1);
        c.phase_shift(2, ParamSource::Trainable(4));
        c
    }

    #[test]
    fn adjoint_matches_parameter_shift_on_entangled_circuit() {
        let c = entangled_circuit();
        let inputs = [0.3, -0.7, 1.1];
        let params = [0.5, -0.2, 0.9, 1.4, -0.8];
        let obs = z_all(3);
        let a = adjoint(&c, &inputs, &params, &obs);
        let p = parameter_shift(&c, &inputs, &params, &obs);
        assert!(a.d_params.approx_eq(&p.d_params, 1e-10));
        assert!(a.d_inputs.approx_eq(&p.d_inputs, 1e-10));
        for (ea, ep) in a.expectations.iter().zip(&p.expectations) {
            assert!((ea - ep).abs() < 1e-12);
        }
    }

    #[test]
    fn adjoint_matches_finite_diff_on_entangled_circuit() {
        let c = entangled_circuit();
        let inputs = [0.3, -0.7, 1.1];
        let params = [0.5, -0.2, 0.9, 1.4, -0.8];
        let obs = z_all(3);
        let a = adjoint(&c, &inputs, &params, &obs);
        let f = finite_diff(&c, &inputs, &params, &obs, 1e-6);
        assert!(a.d_params.approx_eq(&f.d_params, 1e-6));
        assert!(a.d_inputs.approx_eq(&f.d_inputs, 1e-6));
    }

    #[test]
    fn adjoint_differentiates_controlled_rotations() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.controlled_rotation(GateKind::Crx, 0, 1, ParamSource::Trainable(0));
        let obs = z_all(2);
        let a = adjoint(&c, &[], &[0.7], &obs);
        let f = finite_diff(&c, &[], &[0.7], &obs, 1e-6);
        assert!(a.d_params.approx_eq(&f.d_params, 1e-6));
    }

    #[test]
    #[should_panic(expected = "two-term shift rule")]
    fn parameter_shift_rejects_controlled_rotations() {
        let mut c = Circuit::new(2);
        c.controlled_rotation(GateKind::Crz, 0, 1, ParamSource::Trainable(0));
        let _ = parameter_shift(&c, &[], &[0.4], &z_all(2));
    }

    #[test]
    fn shared_parameter_slot_sums_contributions() {
        // Same trainable slot feeds two RX gates on different wires.
        let mut c = Circuit::new(2);
        c.rx(0, ParamSource::Trainable(0));
        c.rx(1, ParamSource::Trainable(0));
        let theta = 0.4;
        let obs = z_all(2);
        let a = adjoint(&c, &[], &[theta], &obs);
        let p = parameter_shift(&c, &[], &[theta], &obs);
        let f = finite_diff(&c, &[], &[theta], &obs, 1e-6);
        assert!(a.d_params.approx_eq(&p.d_params, 1e-10));
        assert!(a.d_params.approx_eq(&f.d_params, 1e-6));
        // Each wire's ⟨Z⟩ = cos θ so each row gradient is -sin θ.
        assert!((a.d_params[(0, 0)] + theta.sin()).abs() < 1e-12);
    }

    #[test]
    fn gradient_of_fixed_circuit_is_empty() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cnot(0, 1);
        let g = adjoint(&c, &[], &[], &z_all(2));
        assert_eq!(g.d_params.shape(), (2, 0));
        assert_eq!(g.d_inputs.shape(), (2, 0));
        assert_eq!(g.expectations.len(), 2);
    }

    #[test]
    fn finite_diff_rejects_nonpositive_eps() {
        let c = Circuit::new(1);
        let result = std::panic::catch_unwind(|| finite_diff(&c, &[], &[], &[], 0.0));
        assert!(result.is_err());
    }
}
