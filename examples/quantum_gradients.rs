//! Compare the three differentiation engines on one variational circuit:
//! adjoint, parameter-shift, and central finite differences. All three must
//! agree — the example exits non-zero when the adjoint gradients differ from
//! the shift rule by more than 1e-9 or from finite differences by more than
//! 1e-6 — and the interesting part is the cost gap (adjoint is linear in
//! gate count, parameter-shift re-simulates twice per parameter).
//!
//! ```sh
//! cargo run -p hqnn-core --release --example quantum_gradients
//! ```

use std::process::ExitCode;
use std::time::Instant;

use hqnn_core::prelude::*;
use hqnn_qsim::{adjoint, finite_diff, parameter_shift};

/// Largest admissible max |adjoint − parameter-shift|: both are exact, so
/// they differ only by rounding.
const SHIFT_TOL: f64 = 1e-9;
/// Largest admissible max |adjoint − finite-diff|: central differences with
/// step 1e-5 carry O(1e-10) truncation and rounding error.
const FD_TOL: f64 = 1e-6;

fn main() -> ExitCode {
    let template = QnnTemplate::new(4, 6, EntanglerKind::Strong);
    let circuit = template.build();
    let mut rng = SeededRng::new(11);
    let inputs: Vec<f64> = (0..4).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let params: Vec<f64> = (0..template.param_count())
        .map(|_| rng.uniform(0.0, std::f64::consts::TAU))
        .collect();
    let observables: Vec<Observable> = (0..4).map(Observable::z).collect();

    println!(
        "circuit: {} — {} gates, {} trainable parameters, {} observables",
        template.label(),
        circuit.ops().len(),
        template.param_count(),
        observables.len()
    );

    let reps = 50;
    let t0 = Instant::now();
    let mut adj = None;
    for _ in 0..reps {
        adj = Some(adjoint(&circuit, &inputs, &params, &observables));
    }
    let adj_time = t0.elapsed() / reps;
    let adj = adj.expect("computed");

    let t0 = Instant::now();
    let mut shift = None;
    for _ in 0..reps {
        shift = Some(parameter_shift(&circuit, &inputs, &params, &observables));
    }
    let shift_time = t0.elapsed() / reps;
    let shift = shift.expect("computed");

    let fd = finite_diff(&circuit, &inputs, &params, &observables, 1e-5);

    let max_dev_shift = max_abs_dev(&adj.d_params, &shift.d_params);
    let max_dev_fd = max_abs_dev(&adj.d_params, &fd.d_params);
    println!();
    println!("max |adjoint − parameter-shift| over all gradients: {max_dev_shift:.2e}");
    println!("max |adjoint − finite-diff|     over all gradients: {max_dev_fd:.2e}");
    println!();
    println!("mean wall time per full gradient:");
    println!("  adjoint        : {adj_time:?}");
    println!(
        "  parameter-shift: {shift_time:?}  ({:.1}× adjoint)",
        shift_time.as_secs_f64() / adj_time.as_secs_f64()
    );

    // The analytic FLOPs model predicts the same ordering.
    let cost = CostModel::simulation();
    let census = circuit.op_census();
    let adj_flops = cost.circuit_backward_adjoint(&census, 4, 4).total();
    let shift_flops = cost.circuit_backward_parameter_shift(&census, 4, 4);
    println!();
    println!(
        "analytic backward FLOPs: adjoint {adj_flops}, parameter-shift {shift_flops} \
         ({:.1}× adjoint)",
        shift_flops as f64 / adj_flops as f64
    );

    // `!(dev <= tol)` also fails a NaN deviation.
    if !(max_dev_shift <= SHIFT_TOL && max_dev_fd <= FD_TOL) {
        eprintln!(
            "error: the engines disagree (allowed: {SHIFT_TOL:e} against the shift rule, \
             {FD_TOL:e} against finite differences)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn max_abs_dev(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}
