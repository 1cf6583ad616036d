//! Design-choice ablations beyond the paper's Table I:
//!
//! 1. **FLOPs accounting convention** — profiler-calibrated vs honest
//!    simulation cost, for the paper's hybrid configurations;
//! 2. **Gradient engine** — adjoint vs parameter-shift backward FLOPs as
//!    circuits grow (why the workspace trains with adjoint);
//! 3. **Template expressibility** — the quantitative version of the paper's
//!    "SEL is more expressive" claim.
//!
//! ```sh
//! cargo run -p hqnn-bench --release --bin ablation
//! ```

use hqnn_bench::Cli;
use hqnn_core::prelude::*;
use hqnn_qsim::metrics::expressibility;

fn main() {
    let cli = Cli::parse();
    convention_ablation();
    gradient_engine_ablation();
    expressibility_ablation();
    cli.finish();
}

fn convention_ablation() {
    println!("— ablation 1: FLOPs accounting convention —\n");
    let profiler = CostModel::default();
    let simulation = CostModel::simulation();
    println!(
        "{:<16} {:>14} {:>16} {:>8}",
        "model", "profiler-style", "simulation-cost", "ratio"
    );
    for (label, spec) in [
        (
            "SEL(3,2)@110f",
            HybridSpec::new(110, 3, QnnTemplate::new(3, 2, EntanglerKind::Strong)),
        ),
        (
            "BEL(4,4)@110f",
            HybridSpec::new(110, 3, QnnTemplate::new(4, 4, EntanglerKind::Basic)),
        ),
    ] {
        let p = spec.flops(&profiler).total();
        let s = spec.flops(&simulation).total();
        println!("{label:<16} {p:>14} {s:>16} {:>7.1}×", s as f64 / p as f64);
    }
    println!(
        "\nthe honest convention makes the simulated quantum layer ~10× the profiler\n\
         numbers — the \"simulation overhead\" the paper's argument discounts.\n"
    );
}

fn gradient_engine_ablation() {
    println!("— ablation 2: adjoint vs parameter-shift backward FLOPs —\n");
    let cost = CostModel::simulation();
    println!(
        "{:<14} {:>8} {:>14} {:>16} {:>8}",
        "template", "params", "adjoint", "param-shift", "ratio"
    );
    for (q, d) in [(3usize, 2usize), (4, 4), (5, 6), (5, 10)] {
        let t = QnnTemplate::new(q, d, EntanglerKind::Strong);
        let census = t.build().op_census();
        let adj = cost.circuit_backward_adjoint(&census, q, q).total();
        let shift = cost.circuit_backward_parameter_shift(&census, q, q);
        println!(
            "{:<14} {:>8} {adj:>14} {shift:>16} {:>7.1}×",
            t.label(),
            t.param_count(),
            shift as f64 / adj as f64
        );
    }
    println!(
        "\nthe shift rule re-simulates twice per parameter, so its cost ratio grows\n\
         with depth — adjoint keeps hybrid training linear in gate count.\n"
    );
}

fn expressibility_ablation() {
    println!("— ablation 3: template expressibility (KL to Haar, lower = better) —\n");
    println!("{:<10} {:>10} {:>10}", "shape", "BEL", "SEL");
    for (q, d) in [(3usize, 1usize), (3, 2), (4, 2)] {
        let mut rng = SeededRng::new(77);
        let bel = expressibility(
            &QnnTemplate::new(q, d, EntanglerKind::Basic),
            4000,
            20,
            &mut rng,
        );
        let sel = expressibility(
            &QnnTemplate::new(q, d, EntanglerKind::Strong),
            4000,
            20,
            &mut rng,
        );
        println!("({q},{d})      {bel:>10.4} {sel:>10.4}");
    }
    println!(
        "\nSEL dominates at every shape — the structural reason its (3,2) instance\n\
         keeps passing the accuracy threshold where BEL's must grow."
    );
}
