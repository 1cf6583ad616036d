//! Grid-search protocol and experiment drivers — the paper's evaluation
//! methodology (§III) as a library.
//!
//! The pipeline mirrors Fig. 3 of the paper:
//!
//! 1. [`space`] enumerates the model search spaces — 155 classical MLP
//!    combinations (≤ 3 hidden layers over widths {2,4,6,8,10}, §III-B) and
//!    30 hybrid combinations per entangler kind (qubits {3,4,5} × depth
//!    1..=10, §III-C);
//! 2. specs are **sorted by FLOPs ascending** (§III-E) so the first
//!    threshold-passing model is automatically the cheapest;
//! 3. [`protocol`] trains each combo `runs_per_combo` times, averages the
//!    best train/val accuracies, stops at the first combo whose averages
//!    reach the threshold (≥ 90%), and repeats the whole procedure
//!    `repetitions` times (§III-F);
//! 4. [`experiments`] packages the per-figure drivers (Figs. 6–10, Table I)
//!    and [`report`] renders them as the tables the binaries print.
//!
//! Everything is deterministic given [`SearchConfig::seed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod protocol;
pub mod report;
pub mod space;

pub use experiments::{
    ExperimentConfig, Family, Shard, ShardPlan, StudyResult, TableOneRow, NUMERICS_VERSION,
};
pub use protocol::{ComboOutcome, LevelResult, RepetitionOutcome, RunSummary, SearchConfig};
pub use space::{classical_space, combination_count, hybrid_space};
