//! The benchmark suite: deterministic workloads over the workspace's hot
//! paths, each paired with its `hqnn-flops` analytic cost where one exists.
//!
//! Workloads are **identical** at every scale — `--smoke` only reduces the
//! warmup/iteration counts — so a smoke run's per-iteration medians are
//! directly comparable against a full-scale baseline (noisier, but the same
//! quantity).

use crate::report::BenchResult;
use crate::stats;
use hqnn_core::{ClassicalSpec, HybridSpec};
use hqnn_flops::CostModel;
use hqnn_nn::{one_hot, Adam, SoftmaxCrossEntropy};
use hqnn_qsim::{
    adjoint, parameter_shift, with_fusion, with_fusion_level, EntanglerKind, GateKind, Observable,
    QnnTemplate, StateVector,
};
use hqnn_search::protocol::{evaluate_combo, evaluate_combo_wave, prepare_level_data};
use hqnn_search::SearchConfig;
use hqnn_telemetry as telemetry;
use hqnn_tensor::{Matrix, SeededRng};
use std::hint::black_box;
use std::time::Instant;

/// How many warmup and timed iterations each benchmark runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Untimed warmup iterations for light benchmarks.
    pub light_warmup: u32,
    /// Timed iterations for light benchmarks.
    pub light_iters: u32,
    /// Untimed warmup iterations for heavy (seconds-per-iteration) benchmarks.
    pub heavy_warmup: u32,
    /// Timed iterations for heavy benchmarks.
    pub heavy_iters: u32,
}

impl Scale {
    /// The default scale: enough timed iterations for a stable median.
    pub fn full() -> Self {
        Self {
            light_warmup: 5,
            light_iters: 40,
            heavy_warmup: 1,
            heavy_iters: 7,
        }
    }

    /// CI scale: same workloads, minimum iteration counts (seconds total).
    pub fn smoke() -> Self {
        Self {
            light_warmup: 2,
            light_iters: 8,
            heavy_warmup: 1,
            heavy_iters: 3,
        }
    }
}

/// One benchmark: a named, repeatable workload plus its reporting metadata.
pub struct Benchmark {
    /// Stable identifier (`qsim.adjoint_grad`), the key baselines match on.
    pub id: &'static str,
    /// What one unit of throughput means (`gate-applies`, `train-steps`, …).
    pub throughput_unit: &'static str,
    /// Units of work performed per timed iteration.
    pub ops_per_iter: u64,
    /// Analytic FLOPs per iteration from `hqnn-flops` under the simulation
    /// cost convention, when the workload has a modelled cost.
    pub analytic_flops_per_iter: Option<u64>,
    /// Heavy benchmarks (≳1 s/iteration) get the reduced iteration plan.
    pub heavy: bool,
    run: Box<dyn FnMut()>,
}

impl Benchmark {
    /// Runs warmup + timed iterations and summarises into a [`BenchResult`]
    /// (without an efficiency ratio — that needs the whole suite; see
    /// [`crate::report::BenchReport::compute_efficiency`]).
    pub fn run(&mut self, scale: Scale) -> BenchResult {
        let _span = telemetry::span("perfbench.bench");
        let (warmup, iters) = if self.heavy {
            (scale.heavy_warmup, scale.heavy_iters)
        } else {
            (scale.light_warmup, scale.light_iters)
        };
        for _ in 0..warmup {
            (self.run)();
        }
        let mut samples = Vec::with_capacity(iters as usize);
        // With HQNN_ALLOC=1 the timed loop runs inside an allocation
        // window, adding alloc columns to the report; counting never
        // perturbs the workload itself (see hqnn-alloc), and `samples` is
        // preallocated so the loop's own bookkeeping stays out of the
        // numbers.
        let (_, alloc) = telemetry::alloc::measure(|| {
            for _ in 0..iters {
                let start = Instant::now();
                (self.run)();
                samples.push(start.elapsed().as_nanos() as u64);
            }
        });
        let summary = stats::summarize(&samples);
        telemetry::event(
            telemetry::Level::Info,
            "perfbench.result",
            &[
                ("id", self.id.into()),
                ("median_ns", summary.median_ns.into()),
                ("mad_ns", summary.mad_ns.into()),
                ("iters", summary.iters.into()),
            ],
        );
        BenchResult::from_summary(
            self.id,
            warmup as u64,
            summary,
            self.ops_per_iter,
            self.throughput_unit,
            self.analytic_flops_per_iter,
        )
        .with_alloc(alloc, iters as u64)
    }
}

/// The id of the benchmark every efficiency ratio is normalised against.
pub const REFERENCE_BENCH: &str = "tensor.matmul";

/// Builds the default suite covering the workspace's hot paths. Every
/// workload is seeded, so run-to-run variation is timing noise only.
pub fn default_suite() -> Vec<Benchmark> {
    let cost = CostModel::simulation();
    let mut suite = Vec::new();

    // -- tensor.matmul: the reference point for efficiency ratios ---------
    // A dense 64×64×64 matmul is the closest this workspace gets to peak
    // arithmetic throughput; every other benchmark's measured FLOPs/sec is
    // reported relative to it.
    {
        const N: usize = 64;
        let mut rng = SeededRng::new(11);
        let a = Matrix::uniform(N, N, -1.0, 1.0, &mut rng);
        let b = Matrix::uniform(N, N, -1.0, 1.0, &mut rng);
        suite.push(Benchmark {
            id: REFERENCE_BENCH,
            throughput_unit: "matmuls",
            ops_per_iter: 1,
            analytic_flops_per_iter: Some(2 * (N * N * N) as u64),
            heavy: false,
            run: Box::new(move || {
                black_box(black_box(&a).matmul(black_box(&b)));
            }),
        });
    }

    // -- qsim.gate_apply: raw single-qubit gate application ---------------
    {
        const QUBITS: usize = 10;
        const APPLIES: u64 = 64;
        let gate = GateKind::RY.matrix(0.3);
        let mut state = StateVector::new(QUBITS);
        suite.push(Benchmark {
            id: "qsim.gate_apply",
            throughput_unit: "gate-applies",
            ops_per_iter: APPLIES,
            analytic_flops_per_iter: Some(APPLIES * cost.single_qubit_gate(QUBITS)),
            heavy: false,
            run: Box::new(move || {
                for i in 0..APPLIES {
                    state.apply_single(black_box(&gate), (i as usize) % QUBITS);
                }
                black_box(&state);
            }),
        });
    }

    // -- qsim.statevector_evolve: full circuit forward pass ---------------
    {
        let template = QnnTemplate::new(6, 4, EntanglerKind::Strong);
        let circuit = template.build();
        let inputs: Vec<f64> = (0..circuit.input_count())
            .map(|i| 0.1 + i as f64 * 0.2)
            .collect();
        let params: Vec<f64> = (0..circuit.trainable_count())
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let flops = cost
            .circuit_forward(&circuit.op_census(), circuit.n_qubits())
            .total();
        suite.push(Benchmark {
            id: "qsim.statevector_evolve",
            throughput_unit: "circuit-runs",
            ops_per_iter: 1,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                black_box(circuit.run(black_box(&inputs), black_box(&params)));
            }),
        });
    }

    // -- qsim.statevector_evolve_fused: same circuit, fused gate runs -----
    // The opt-in `HQNN_FUSE` path over the identical workload: encoding RX +
    // Rot runs collapse into one matrix apply per wire per layer. Has its
    // own baseline entry because fused output is rounding-equal (not
    // bitwise) to the scalar path.
    {
        let template = QnnTemplate::new(6, 4, EntanglerKind::Strong);
        let circuit = template.build();
        let inputs: Vec<f64> = (0..circuit.input_count())
            .map(|i| 0.1 + i as f64 * 0.2)
            .collect();
        let params: Vec<f64> = (0..circuit.trainable_count())
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let flops = cost
            .circuit_forward(&circuit.op_census(), circuit.n_qubits())
            .total();
        suite.push(Benchmark {
            id: "qsim.statevector_evolve_fused",
            throughput_unit: "circuit-runs",
            ops_per_iter: 1,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                with_fusion(true, || {
                    black_box(circuit.run(black_box(&inputs), black_box(&params)));
                });
            }),
        });
    }

    // -- qsim.run_batch: batched forward pass through the runtime ---------
    // The batch seam the thread-scaling gate watches: one iteration evolves
    // a whole batch of rows through the same circuit via `run_batch`, which
    // fans rows out across `HQNN_THREADS`. Compare against a threads=1 run
    // of the same bench to measure scaling.
    {
        const BATCH: usize = 16;
        let template = QnnTemplate::new(6, 4, EntanglerKind::Strong);
        let circuit = template.build();
        let mut rng = SeededRng::new(31);
        let inputs = Matrix::uniform(BATCH, circuit.input_count(), -1.0, 1.0, &mut rng);
        let params: Vec<f64> = (0..circuit.trainable_count())
            .map(|i| (i as f64 * 0.53).sin())
            .collect();
        let flops = BATCH as u64
            * cost
                .circuit_forward(&circuit.op_census(), circuit.n_qubits())
                .total();
        suite.push(Benchmark {
            id: "qsim.run_batch",
            throughput_unit: "circuit-runs",
            ops_per_iter: BATCH as u64,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                black_box(circuit.run_batch(black_box(&inputs), black_box(&params)));
            }),
        });
    }

    // -- qsim.run_batch_fused: the same batch through the fused path ------
    // One shared `FusePlan` serves every row (it is a pure function of the
    // circuit), so this measures fusion's win on the batch seam itself.
    {
        const BATCH: usize = 16;
        let template = QnnTemplate::new(6, 4, EntanglerKind::Strong);
        let circuit = template.build();
        let mut rng = SeededRng::new(31);
        let inputs = Matrix::uniform(BATCH, circuit.input_count(), -1.0, 1.0, &mut rng);
        let params: Vec<f64> = (0..circuit.trainable_count())
            .map(|i| (i as f64 * 0.53).sin())
            .collect();
        let flops = BATCH as u64
            * cost
                .circuit_forward(&circuit.op_census(), circuit.n_qubits())
                .total();
        suite.push(Benchmark {
            id: "qsim.run_batch_fused",
            throughput_unit: "circuit-runs",
            ops_per_iter: BATCH as u64,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                with_fusion(true, || {
                    black_box(circuit.run_batch(black_box(&inputs), black_box(&params)));
                });
            }),
        });
    }

    // -- qsim.run_batch_fused2q: pair fusion on the batch seam ------------
    // `HQNN_FUSE=2` over the `qsim.run_batch_fused` workload: CNOT-adjacent
    // single-qubit runs additionally collapse into 4×4 pair applies. The
    // ratio against `qsim.run_batch_fused` is the two-qubit-fusion win.
    {
        const BATCH: usize = 16;
        let template = QnnTemplate::new(6, 4, EntanglerKind::Strong);
        let circuit = template.build();
        let mut rng = SeededRng::new(31);
        let inputs = Matrix::uniform(BATCH, circuit.input_count(), -1.0, 1.0, &mut rng);
        let params: Vec<f64> = (0..circuit.trainable_count())
            .map(|i| (i as f64 * 0.53).sin())
            .collect();
        let flops = BATCH as u64
            * cost
                .circuit_forward(&circuit.op_census(), circuit.n_qubits())
                .total();
        suite.push(Benchmark {
            id: "qsim.run_batch_fused2q",
            throughput_unit: "circuit-runs",
            ops_per_iter: BATCH as u64,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                with_fusion_level(2, || {
                    black_box(circuit.run_batch(black_box(&inputs), black_box(&params)));
                });
            }),
        });
    }

    // -- qsim.batch_sweep: the gate-major sweep engine under load ---------
    // The sweep engine's showcase configuration — a larger batch than
    // `qsim.run_batch` (several chunks' worth) at fusion level 2, where the
    // per-row matrix-resolution cost the gate-major sweep hoists (fused matmul
    // chains and 4×4 pair matrices, trig and all) is at its highest. Named
    // for the `qsim.batch_sweep` span each chunk opens.
    {
        const BATCH: usize = 64;
        let template = QnnTemplate::new(6, 4, EntanglerKind::Strong);
        let circuit = template.build();
        let mut rng = SeededRng::new(31);
        let inputs = Matrix::uniform(BATCH, circuit.input_count(), -1.0, 1.0, &mut rng);
        let params: Vec<f64> = (0..circuit.trainable_count())
            .map(|i| (i as f64 * 0.53).sin())
            .collect();
        let flops = BATCH as u64
            * cost
                .circuit_forward(&circuit.op_census(), circuit.n_qubits())
                .total();
        suite.push(Benchmark {
            id: "qsim.batch_sweep",
            throughput_unit: "circuit-runs",
            ops_per_iter: BATCH as u64,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                with_fusion_level(2, || {
                    black_box(circuit.run_batch(black_box(&inputs), black_box(&params)));
                });
            }),
        });
    }

    // -- qsim.adjoint_grad: the full-Jacobian adjoint engine -------------
    // One reverse sweep per observable. Training runs the one-sweep
    // `adjoint_vjp`, which is what the analytic FLOPs price, so this
    // benchmark's efficiency ratio understates the engine's throughput.
    {
        let template = QnnTemplate::new(4, 3, EntanglerKind::Strong);
        let circuit = template.build();
        let inputs: Vec<f64> = (0..circuit.input_count())
            .map(|i| 0.2 + i as f64 * 0.15)
            .collect();
        let params: Vec<f64> = (0..circuit.trainable_count())
            .map(|i| (i as f64 * 0.61).cos())
            .collect();
        let observables: Vec<Observable> = (0..4).map(Observable::z).collect();
        let flops = cost.circuit_total(&circuit, observables.len()).total();
        suite.push(Benchmark {
            id: "qsim.adjoint_grad",
            throughput_unit: "grad-evals",
            ops_per_iter: 1,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                black_box(adjoint(black_box(&circuit), &inputs, &params, &observables));
            }),
        });
    }

    // -- qsim.param_shift_grad: the 2-evals-per-parameter alternative -----
    {
        let template = QnnTemplate::new(3, 2, EntanglerKind::Strong);
        let circuit = template.build();
        let inputs: Vec<f64> = (0..circuit.input_count())
            .map(|i| 0.3 + i as f64 * 0.25)
            .collect();
        let params: Vec<f64> = (0..circuit.trainable_count())
            .map(|i| (i as f64 * 0.43).sin())
            .collect();
        let observables: Vec<Observable> = (0..3).map(Observable::z).collect();
        let census = circuit.op_census();
        let n = circuit.n_qubits();
        let fwd = cost.circuit_forward(&census, n).total();
        let flops = fwd
            + cost.circuit_backward_parameter_shift(&census, n, observables.len())
            + cost.circuit_readout(n, observables.len());
        suite.push(Benchmark {
            id: "qsim.param_shift_grad",
            throughput_unit: "grad-evals",
            ops_per_iter: 1,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                black_box(parameter_shift(
                    black_box(&circuit),
                    &inputs,
                    &params,
                    &observables,
                ));
            }),
        });
    }

    // -- nn.train_step_classical: one forward/backward/update -------------
    {
        const BATCH: usize = 8;
        let spec = ClassicalSpec::new(8, vec![16], 3);
        let mut rng = SeededRng::new(23);
        let mut model = spec.build(&mut rng);
        let mut optimizer = Adam::new(0.005);
        let loss_fn = SoftmaxCrossEntropy;
        let xb = Matrix::uniform(BATCH, 8, -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..BATCH).map(|i| i % 3).collect();
        let targets = one_hot(&labels, 3);
        let flops = BATCH as u64 * cost.mlp(8, &[16], 3);
        suite.push(Benchmark {
            id: "nn.train_step_classical",
            throughput_unit: "train-steps",
            ops_per_iter: 1,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                let logits = model.forward(black_box(&xb), true);
                let (loss, grad) = loss_fn.loss_and_grad(&logits, &targets);
                black_box(loss);
                model.backward(&grad);
                model.apply_gradients(&mut optimizer);
            }),
        });
    }

    // -- nn.train_step_hybrid: the same step through a quantum layer ------
    {
        const BATCH: usize = 4;
        let spec = HybridSpec::new(6, 3, QnnTemplate::new(3, 2, EntanglerKind::Strong));
        let mut rng = SeededRng::new(29);
        let mut model = spec.build(&mut rng);
        let mut optimizer = Adam::new(0.005);
        let loss_fn = SoftmaxCrossEntropy;
        let xb = Matrix::uniform(BATCH, 6, -1.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..BATCH).map(|i| i % 3).collect();
        let targets = one_hot(&labels, 3);
        let flops = BATCH as u64 * spec.flops(&cost).total();
        suite.push(Benchmark {
            id: "nn.train_step_hybrid",
            throughput_unit: "train-steps",
            ops_per_iter: 1,
            analytic_flops_per_iter: Some(flops),
            heavy: false,
            run: Box::new(move || {
                let logits = model.forward(black_box(&xb), true);
                let (loss, grad) = loss_fn.loss_and_grad(&logits, &targets);
                black_box(loss);
                model.backward(&grad);
                model.apply_gradients(&mut optimizer);
            }),
        });
    }

    // -- search.combo: one full protocol combination evaluation -----------
    // The end-to-end unit the experiment runtime is made of: generate data,
    // train a candidate to completion, aggregate accuracies. No analytic
    // FLOPs — accuracy evaluation and data prep are outside the cost model.
    {
        let mut config = SearchConfig::smoke();
        config.dataset_samples = 90;
        config.train = config.train.with_epochs(4);
        let data = prepare_level_data(&config, 4);
        let spec = hqnn_core::ModelSpec::from(ClassicalSpec::new(4, vec![8], 3));
        let cost_model = cost;
        suite.push(Benchmark {
            id: "search.combo",
            throughput_unit: "combos",
            ops_per_iter: 1,
            analytic_flops_per_iter: None,
            heavy: true,
            run: Box::new(move || {
                black_box(evaluate_combo(
                    black_box(&spec),
                    &data,
                    &config,
                    &cost_model,
                    17,
                ));
            }),
        });
    }

    // -- search.combo_parallel: one speculative wave of combo trainings ---
    // The exact unit `search_level` speculates on: a wave of candidate
    // specs trained concurrently through `evaluate_combo_wave`. At
    // threads=1 this degenerates to sequential `search.combo` × wave size;
    // the ratio between the two thread settings is the search-layer scaling
    // number the CI smoke gate asserts on.
    {
        let mut config = SearchConfig::smoke();
        config.dataset_samples = 90;
        config.train = config.train.with_epochs(4);
        let data = prepare_level_data(&config, 4);
        let specs: Vec<hqnn_core::ModelSpec> = [vec![4], vec![8], vec![16], vec![8, 8]]
            .into_iter()
            .map(|hidden| hqnn_core::ModelSpec::from(ClassicalSpec::new(4, hidden, 3)))
            .collect();
        let salts: Vec<u64> = (0..specs.len() as u64).map(|i| 17 + i).collect();
        let cost_model = cost;
        let wave = specs.len() as u64;
        suite.push(Benchmark {
            id: "search.combo_parallel",
            throughput_unit: "combos",
            ops_per_iter: wave,
            analytic_flops_per_iter: None,
            heavy: true,
            run: Box::new(move || {
                let refs: Vec<&hqnn_core::ModelSpec> = specs.iter().collect();
                black_box(evaluate_combo_wave(
                    black_box(&refs),
                    &data,
                    &config,
                    &cost_model,
                    &salts,
                ));
            }),
        });
    }

    // -- search.study_seq / search.study_sharded: the whole-study seam ----
    // A miniature two-family study (the smallest shape with more than one
    // (family × level) cell), run once through the sequential per-family
    // loops and once through `run_study_sharded`. Both are bitwise
    // identical by construction; their wall-clock ratio is the study-level
    // sharding win the CI smoke gate reads out (≈1.0 at one thread, where
    // the outer fan-out degenerates to the same sequential order).
    {
        let study_config = || {
            let mut config = hqnn_search::ExperimentConfig::smoke();
            config.levels = vec![4];
            config.search.dataset_samples = 90;
            config.search.train = config.search.train.with_epochs(4);
            config.search.max_combos_per_repetition = 2;
            config
        };
        const FAMILIES: [hqnn_search::Family; 2] = [
            hqnn_search::Family::Classical,
            hqnn_search::Family::HybridBel,
        ];
        let config_seq = study_config();
        suite.push(Benchmark {
            id: "search.study_seq",
            throughput_unit: "studies",
            ops_per_iter: 1,
            analytic_flops_per_iter: None,
            heavy: true,
            run: Box::new(move || {
                let mut study = hqnn_search::StudyResult::new(config_seq.clone());
                for family in FAMILIES {
                    study.run_family(family, &mut |_, _, _| {});
                }
                black_box(study);
            }),
        });
        let config_sharded = study_config();
        suite.push(Benchmark {
            id: "search.study_sharded",
            throughput_unit: "studies",
            ops_per_iter: 1,
            analytic_flops_per_iter: None,
            heavy: true,
            run: Box::new(move || {
                let mut study = hqnn_search::StudyResult::new(config_sharded.clone());
                black_box(study.run_study_sharded(&FAMILIES, &mut |_, _, _, _| {}));
                black_box(study);
            }),
        });
    }

    // -- telemetry.counter_hot: metric hot path ---------------------------
    // Four workers hammering one counter name — the contention shape of
    // `qsim.gate_applies` under the parallel runtime. Each increment lands
    // in the calling thread's shard behind an uncontended per-thread lock.
    {
        const WORKERS: u64 = 4;
        const INCS_PER_WORKER: u64 = 50_000;
        suite.push(Benchmark {
            id: "telemetry.counter_hot",
            throughput_unit: "counter-incs",
            ops_per_iter: WORKERS * INCS_PER_WORKER,
            analytic_flops_per_iter: None,
            heavy: false,
            run: Box::new(move || {
                hqnn_runtime::with_threads(WORKERS as usize, || {
                    hqnn_runtime::par_map_range(WORKERS as usize, |_| {
                        for _ in 0..INCS_PER_WORKER {
                            telemetry::counter("perfbench.hot_ticks", 1);
                        }
                    })
                });
            }),
        });
    }

    suite
}

/// Runs every benchmark whose id contains `filter` (all when `None`),
/// returning results in suite order.
pub fn run_suite(scale: Scale, filter: Option<&str>) -> Vec<BenchResult> {
    let _span = telemetry::span("perfbench.suite");
    let mut results = Vec::new();
    for mut bench in default_suite() {
        if let Some(f) = filter {
            if !bench.id.contains(f) {
                continue;
            }
        }
        telemetry::event(
            telemetry::Level::Info,
            "perfbench.start",
            &[("id", bench.id.into())],
        );
        results.push(bench.run(scale));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_ids_are_unique_and_reference_exists() {
        let suite = default_suite();
        let ids: Vec<&str> = suite.iter().map(|b| b.id).collect();
        let mut deduped = ids.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), ids.len(), "duplicate bench ids");
        assert!(ids.contains(&REFERENCE_BENCH));
        assert!(suite.len() >= 10);
    }

    #[test]
    fn filter_selects_by_substring() {
        let results = run_suite(Scale::smoke(), Some("tensor.matmul"));
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.id, "tensor.matmul");
        assert_eq!(r.iters, 8);
        assert!(r.median_ns > 0);
        assert!(r.ops_per_sec > 0.0);
        assert_eq!(r.analytic_flops_per_iter, Some(2 * 64 * 64 * 64));
        assert!(r.measured_flops_per_sec.unwrap() > 0.0);
    }
}
