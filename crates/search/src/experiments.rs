//! Experiment drivers for the paper's figures and table.
//!
//! | Paper artifact | Driver |
//! |----------------|--------|
//! | Fig. 6 (classical FLOPs scaling)   | [`StudyResult::run_study_sharded`] over [`Family::Classical`] |
//! | Fig. 7 (hybrid BEL FLOPs scaling)  | [`StudyResult::run_study_sharded`] over [`Family::HybridBel`] |
//! | Fig. 8 (hybrid SEL FLOPs scaling)  | [`StudyResult::run_study_sharded`] over [`Family::HybridSel`] |
//! | Fig. 9 (parameter counts)          | winners of the above |
//! | Fig. 10 (comparative rates)        | smallest winners of the above |
//! | Table I (Enc/CL/QL ablation)       | [`table_one_paper_combos`], [`table_one_from_study`] |
//!
//! A [`StudyResult`] is serialisable; the figure binaries cache it as JSON
//! so Fig. 9/10 reuse the searches Figs. 6–8 ran. [`StudyResult::run_family`]
//! is the sequential oracle the sharded study is tested against.

use std::fs;
use std::io;
use std::path::Path;

use hqnn_core::HybridSpec;
use hqnn_flops::CostModel;
use hqnn_qsim::{EntanglerKind, QnnTemplate};
use hqnn_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::protocol::{search_level, ComboOutcome, LevelResult, SearchConfig};
use crate::space::{classical_space, hybrid_space};

/// Number of classes in the study's task (3-arm spiral).
pub const N_CLASSES: usize = 3;

/// Which model family an experiment searches over.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Family {
    /// Classical MLPs (Fig. 6).
    Classical,
    /// BEL-based hybrids (Fig. 7).
    HybridBel,
    /// SEL-based hybrids (Fig. 8).
    HybridSel,
}

impl Family {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Classical => "classical",
            Family::HybridBel => "hybrid (BEL)",
            Family::HybridSel => "hybrid (SEL)",
        }
    }

    /// All three families in the order the paper's study runs them.
    pub const ALL: [Family; 3] = [Family::Classical, Family::HybridBel, Family::HybridSel];

    /// The search space of this family at one complexity level.
    pub fn space(self, n_features: usize) -> Vec<hqnn_core::ModelSpec> {
        match self {
            Family::Classical => classical_space(n_features, N_CLASSES),
            Family::HybridBel => hybrid_space(n_features, N_CLASSES, EntanglerKind::Basic),
            Family::HybridSel => hybrid_space(n_features, N_CLASSES, EntanglerKind::Strong),
        }
    }
}

/// One independent (family × level) cell of a sharded study run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCell {
    /// The model family this shard searches.
    pub family: Family,
    /// The complexity level (feature count) it searches at.
    pub n_features: usize,
}

/// The schedule a sharded study executed with: the ordered cell list plus
/// the [`hqnn_runtime::split_budget`] factors that bounded its concurrency
/// (`outer` concurrent shards × `inner` threads each ≤ the thread budget).
/// Recorded into [`hqnn_telemetry::RunManifest::shard_plan`] via
/// [`ShardPlan::descriptor`] so cached studies state how they were
/// scheduled.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Every (family, level) cell, in sequential replay order
    /// (family-major, levels ascending within a family).
    pub cells: Vec<ShardCell>,
    /// Concurrent shard workers the run fanned out.
    pub outer: usize,
    /// Thread budget each shard's nested parallel maps ran under.
    pub inner: usize,
}

impl ShardPlan {
    /// Compact provenance string (`"cells=6;outer=4;inner=2"`) stamped into
    /// run manifests. Sharding is bitwise neutral, so the plan qualifies
    /// wall-clock claims only — see EXPERIMENTS.md.
    pub fn descriptor(&self) -> String {
        format!(
            "cells={};outer={};inner={}",
            self.cells.len(),
            self.outer,
            self.inner
        )
    }
}

/// Configuration of a full study (all levels, one or more families).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The search protocol.
    pub search: SearchConfig,
    /// Complexity levels (feature counts) to sweep.
    pub levels: Vec<usize>,
    /// FLOPs accounting convention.
    pub cost: CostModel,
}

impl ExperimentConfig {
    /// The paper's full sweep: features 10, 20, …, 110 with the paper
    /// protocol.
    pub fn paper() -> Self {
        Self {
            search: SearchConfig::paper(),
            levels: hqnn_data::complexity_levels(),
            cost: CostModel::default(),
        }
    }

    /// A reduced sweep (three levels, fast protocol) that regenerates every
    /// figure's shape in minutes on one core.
    pub fn fast() -> Self {
        Self {
            search: SearchConfig::fast(),
            levels: vec![10, 60, 110],
            cost: CostModel::default(),
        }
    }

    /// A miniature sweep for tests and benches.
    pub fn smoke() -> Self {
        Self {
            search: SearchConfig::smoke(),
            levels: vec![4, 8],
            cost: CostModel::default(),
        }
    }
}

/// Version of the numeric code paths a study's results depend on. Bumped
/// whenever a change moves trained results in the last bits (a declared
/// one-time bit change), so a cached study computed by older numerics is
/// recognised as stale instead of being mixed into new figures.
///
/// - 0: studies saved before the stamp existed.
/// - 1: hybrid training backpropagates through the vector-Jacobian adjoint
///   (`hqnn_qsim::adjoint_vjp`), which re-associates the observable sum.
pub const NUMERICS_VERSION: u32 = 1;

/// The collected outcome of the study: one [`LevelResult`] per complexity
/// level per family that was run (empty `Vec` for families not yet run).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StudyResult {
    /// The configuration the study ran with.
    pub config: ExperimentConfig,
    /// Fig. 6 data.
    pub classical: Vec<LevelResult>,
    /// Fig. 7 data.
    pub hybrid_bel: Vec<LevelResult>,
    /// Fig. 8 data.
    pub hybrid_sel: Vec<LevelResult>,
    /// Provenance of the run that produced these numbers (git SHA, build
    /// profile, thread count, …). `None` in studies cached before manifests
    /// existed — `Option` keeps old JSON loadable.
    pub manifest: Option<hqnn_telemetry::RunManifest>,
    /// The [`NUMERICS_VERSION`] the results were computed with; 0 in
    /// studies saved before the stamp existed.
    #[serde(default)]
    pub numerics: u32,
    /// Legacy stamp of the retired gate-fusion path: always 0 now. A study
    /// cached under fusion level 1 or 2 carries different forward bits, and
    /// the cache loader rejects it as stale; the field stays because
    /// unknown JSON keys are ignored, so dropping it would let such a study
    /// load as fresh. 0 in studies saved before the stamp existed.
    #[serde(default)]
    pub fusion_level: u8,
}

impl StudyResult {
    /// Creates an empty study for the given configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        Self {
            config,
            classical: Vec::new(),
            hybrid_bel: Vec::new(),
            hybrid_sel: Vec::new(),
            manifest: None,
            numerics: NUMERICS_VERSION,
            fusion_level: 0,
        }
    }

    /// Runs one family's search over every configured level, one level after
    /// another, storing (and returning a reference to) its per-level results.
    /// `progress` receives `(n_features, repetition, combo)` after each
    /// evaluation.
    ///
    /// This is the sequential oracle: no figure binary calls it, but
    /// [`StudyResult::run_study_sharded`] must reproduce its results byte for
    /// byte at every thread budget, and the tests compare the two.
    pub fn run_family(
        &mut self,
        family: Family,
        progress: &mut dyn FnMut(usize, usize, &ComboOutcome),
    ) -> &[LevelResult] {
        let config = self.config.clone();
        let mut results = Vec::with_capacity(config.levels.len());
        for &n_features in &config.levels {
            let space = family.space(n_features);
            let result = search_level(
                &space,
                n_features,
                &config.search,
                &config.cost,
                &mut |rep, combo| progress(n_features, rep, combo),
            );
            results.push(result);
        }
        let slot = match family {
            Family::Classical => &mut self.classical,
            Family::HybridBel => &mut self.hybrid_bel,
            Family::HybridSel => &mut self.hybrid_sel,
        };
        *slot = results;
        slot
    }

    /// Runs the given families across every configured level as independent
    /// (family × level) shards fanned out over
    /// [`hqnn_runtime::par_map_budgeted`] — the study's outermost (and
    /// longest) loop parallelised, while each shard's inner combo waves
    /// still get threads through the nested budget split.
    ///
    /// **Bitwise-determinism guarantee**: every stored number is identical
    /// to the sequential [`StudyResult::run_family`] loop at every thread
    /// budget. Per-combo `(level, repetition, combo)` RNG salts make each
    /// outcome independent of scheduling, `search_level`'s evaluated
    /// list/winner are wave-size invariant, and shard results are
    /// reassembled in cell order — so study JSON is byte-identical between
    /// sequential and sharded execution (pinned by
    /// `crates/search/tests/parallel_determinism.rs`).
    ///
    /// `progress` receives `(family, n_features, repetition, combo)` for
    /// every retained evaluation. Shards buffer their callbacks and this
    /// method replays them after the fan-out in sequential order
    /// (family-major, levels ascending, FLOPs-ascending combos within a
    /// level) — the exact sequence the sequential loop would have emitted.
    ///
    /// Returns the [`ShardPlan`] the run was scheduled with, for manifest
    /// provenance.
    pub fn run_study_sharded(
        &mut self,
        families: &[Family],
        progress: &mut dyn FnMut(Family, usize, usize, &ComboOutcome),
    ) -> ShardPlan {
        let config = self.config.clone();
        let cells: Vec<ShardCell> = families
            .iter()
            .flat_map(|&family| {
                config
                    .levels
                    .iter()
                    .map(move |&n_features| ShardCell { family, n_features })
            })
            .collect();
        let (outer, inner) = hqnn_runtime::split_budget(hqnn_runtime::threads(), cells.len());
        let plan = ShardPlan {
            cells,
            outer,
            inner,
        };
        let _study_span = telemetry::span("search.study");
        telemetry::event(
            telemetry::Level::Info,
            "search.shard_plan",
            &[
                ("cells", plan.cells.len().into()),
                ("families", families.len().into()),
                ("levels", config.levels.len().into()),
                ("outer", plan.outer.into()),
                ("inner", plan.inner.into()),
                ("plan", plan.descriptor().into()),
            ],
        );
        // Fan the cells out. Each shard buffers its progress callbacks
        // (retained combos only, cheap next to training) so they can be
        // replayed in sequential order below.
        let sharded: Vec<(LevelResult, Vec<(usize, ComboOutcome)>)> =
            hqnn_runtime::par_map_budgeted(plan.cells.len(), |i| {
                let cell = plan.cells[i];
                let _shard_span = telemetry::span("search.shard");
                let space = cell.family.space(cell.n_features);
                let mut buffered: Vec<(usize, ComboOutcome)> = Vec::new();
                let result = search_level(
                    &space,
                    cell.n_features,
                    &config.search,
                    &config.cost,
                    &mut |rep, combo| buffered.push((rep, combo.clone())),
                );
                (result, buffered)
            });
        // Replay progress and store per-family results in cell order —
        // exactly the order the sequential family loop produces.
        let mut shards = sharded.into_iter();
        for &family in families {
            let mut results = Vec::with_capacity(config.levels.len());
            for &n_features in &config.levels {
                // lint:allow(panic): par_map_budgeted returns one entry per cell
                let (result, buffered) = shards.next().expect("one shard per cell");
                for (rep, combo) in &buffered {
                    progress(family, n_features, *rep, combo);
                }
                results.push(result);
            }
            let slot = match family {
                Family::Classical => &mut self.classical,
                Family::HybridBel => &mut self.hybrid_bel,
                Family::HybridSel => &mut self.hybrid_sel,
            };
            *slot = results;
        }
        plan
    }

    /// The stored results for a family (may be empty if not run).
    pub fn family(&self, family: Family) -> &[LevelResult] {
        match family {
            Family::Classical => &self.classical,
            Family::HybridBel => &self.hybrid_bel,
            Family::HybridSel => &self.hybrid_sel,
        }
    }

    /// Serialises the study as pretty JSON, atomically (temp file + rename)
    /// so a killed run never leaves a truncated cache behind.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        hqnn_telemetry::write_atomic(path, json)
    }

    /// Loads a study previously written by [`StudyResult::save`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file is missing or not valid study JSON,
    /// including a repetition whose `winner` does not index a passing
    /// combination of its `evaluated` list.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = fs::read_to_string(path)?;
        let study: Self = serde_json::from_str(&json).map_err(io::Error::other)?;
        study.check_winners()?;
        Ok(study)
    }

    /// Rejects a repetition whose `winner` is out of range or names a combo
    /// that did not pass — either would make [`RepetitionOutcome::winning_combo`]
    /// panic or report a failed model as the level's winner.
    fn check_winners(&self) -> io::Result<()> {
        for family in Family::ALL {
            for level in self.family(family) {
                for rep in &level.repetitions {
                    let Some(w) = rep.winner else { continue };
                    if !rep.evaluated.get(w).is_some_and(|c| c.passed) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "{} level {} repetition {}: winner {w} is not a passing \
                                 combo of the {} evaluated",
                                family.name(),
                                level.n_features,
                                rep.repetition,
                                rep.evaluated.len()
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One row of the paper's Table I: per-sample FLOPs of a hybrid model
/// decomposed into total / encoding+classical / classical / encoding /
/// quantum-layer shares.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableOneRow {
    /// `"Hybrid (BEL)"` or `"Hybrid (SEL)"`.
    pub model: String,
    /// Feature size (problem complexity).
    pub feature_size: usize,
    /// Best combination `(qubits, layers)` the row describes.
    pub best_combo: (usize, usize),
    /// Total FLOPs ("TF").
    pub total: u64,
    /// Encoding + classical layers ("Enc+CL").
    pub enc_plus_cl: u64,
    /// Classical layers only ("CL").
    pub classical: u64,
    /// Encoding only ("Enc").
    pub encoding: u64,
    /// Quantum layer ("QL").
    pub quantum: u64,
}

fn table_row(
    kind: EntanglerKind,
    features: usize,
    combo: (usize, usize),
    cost: &CostModel,
) -> TableOneRow {
    let spec = HybridSpec::new(
        features,
        N_CLASSES,
        QnnTemplate::new(combo.0, combo.1, kind),
    );
    let f = spec.flops(cost);
    TableOneRow {
        model: format!("Hybrid ({})", kind.short_name()),
        feature_size: features,
        best_combo: combo,
        total: f.total(),
        enc_plus_cl: f.encoding + f.classical,
        classical: f.classical,
        encoding: f.encoding,
        quantum: f.quantum,
    }
}

/// Table I priced at the paper's reported best combinations:
/// BEL (3,2)/(3,2)/(3,4)/(4,4) and SEL (3,2) throughout, at feature sizes
/// 10/40/80/110.
pub fn table_one_paper_combos(cost: &CostModel) -> Vec<TableOneRow> {
    let mut rows = Vec::with_capacity(8);
    let bel = [(10, (3, 2)), (40, (3, 2)), (80, (3, 4)), (110, (4, 4))];
    for (features, combo) in bel {
        rows.push(table_row(EntanglerKind::Basic, features, combo, cost));
    }
    for features in [10, 40, 80, 110] {
        rows.push(table_row(EntanglerKind::Strong, features, (3, 2), cost));
    }
    rows
}

/// Table I priced at the combinations *this* study's searches actually
/// selected (the smallest winner per level). Levels with no winner are
/// skipped.
pub fn table_one_from_study(study: &StudyResult) -> Vec<TableOneRow> {
    let mut rows = Vec::new();
    for (family, results) in [
        (EntanglerKind::Basic, &study.hybrid_bel),
        (EntanglerKind::Strong, &study.hybrid_sel),
    ] {
        for level in results {
            let Some(winner) = level.smallest_winner() else {
                continue;
            };
            let hqnn_core::ModelSpec::Hybrid(h) = &winner.spec else {
                continue;
            };
            rows.push(table_row(
                family,
                level.n_features,
                (h.template.n_qubits(), h.template.depth()),
                &study.config.cost,
            ));
        }
    }
    rows
}

/// Evaluates **every** combination of a space at one level (no early stop,
/// up to `max_combos`), cheapest first — the exhaustive counterpart of the
/// paper's greedy protocol, used to chart the accuracy-vs-FLOPs landscape.
pub fn accuracy_frontier(
    space: &[hqnn_core::ModelSpec],
    n_features: usize,
    config: &SearchConfig,
    cost: &hqnn_flops::CostModel,
    progress: &mut dyn FnMut(&ComboOutcome),
) -> Vec<ComboOutcome> {
    let mut sorted: Vec<&hqnn_core::ModelSpec> = space.iter().collect();
    sorted.sort_by_key(|s| s.flops(cost).total());
    let data = crate::protocol::prepare_level_data(config, n_features);
    let mut outcomes = Vec::new();
    for (idx, spec) in sorted
        .iter()
        .take(config.max_combos_per_repetition)
        .enumerate()
    {
        let salt = 0xF00D_0000 | idx as u64;
        let outcome = crate::protocol::evaluate_combo(spec, &data, config, cost, salt);
        progress(&outcome);
        outcomes.push(outcome);
    }
    outcomes
}

/// The Pareto-optimal subset of outcomes under the dominance rule: outcome
/// `a` dominates `b` iff `a.flops.total() <= b.flops.total()` and
/// `a.avg_val_accuracy >= b.avg_val_accuracy` with at least one inequality
/// strict. In particular, of two outcomes tied on total FLOPs only the
/// higher-accuracy one can be on the front; outcomes tied on *both* axes
/// are represented once, by the earliest in input order (the sort is
/// stable). Returned sorted by FLOPs ascending with accuracy strictly
/// increasing along the front.
pub fn pareto_front(outcomes: &[ComboOutcome]) -> Vec<&ComboOutcome> {
    let mut sorted: Vec<&ComboOutcome> = outcomes.iter().collect();
    // (FLOPs asc, accuracy desc): the best outcome of a FLOPs tie class is
    // scanned first, so its lower-accuracy tie-mates are correctly rejected
    // as dominated instead of sneaking onto the front ahead of it.
    sorted.sort_by(|a, b| {
        a.flops
            .total()
            .cmp(&b.flops.total())
            .then_with(|| b.avg_val_accuracy.total_cmp(&a.avg_val_accuracy))
    });
    let mut front: Vec<&ComboOutcome> = Vec::new();
    let mut best_acc = f64::NEG_INFINITY;
    for o in sorted {
        if o.avg_val_accuracy > best_acc {
            best_acc = o.avg_val_accuracy;
            front.push(o);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_runs_all_families() {
        let mut study = StudyResult::new(ExperimentConfig::smoke());
        study.run_family(Family::Classical, &mut |_, _, _| {});
        study.run_family(Family::HybridBel, &mut |_, _, _| {});
        study.run_family(Family::HybridSel, &mut |_, _, _| {});
        assert_eq!(study.classical.len(), 2);
        assert_eq!(study.hybrid_bel.len(), 2);
        assert_eq!(study.hybrid_sel.len(), 2);
        assert_eq!(study.family(Family::Classical).len(), 2);
        for level in &study.classical {
            assert_eq!(level.repetitions.len(), 1);
            assert!(!level.repetitions[0].evaluated.is_empty());
        }
    }

    #[test]
    fn study_round_trips_through_json() {
        let mut study = StudyResult::new(ExperimentConfig::smoke());
        study.run_family(Family::Classical, &mut |_, _, _| {});
        let dir = std::env::temp_dir().join("hqnn-search-test");
        let path = dir.join("study.json");
        study.save(&path).expect("save study");
        let loaded = StudyResult::load(&path).expect("load study");
        assert_eq!(study, loaded);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_a_winner_that_is_not_a_passing_combo() {
        let mut study = StudyResult::new(ExperimentConfig::smoke());
        study.run_family(Family::Classical, &mut |_, _, _| {});
        let path = std::env::temp_dir().join(format!(
            "hqnn-search-bad-winner-{}.json",
            std::process::id()
        ));
        // Out of range: the loaded study would panic in `winning_combo`.
        let mut out_of_range = study.clone();
        out_of_range.classical[0].repetitions[0].winner = Some(999);
        out_of_range.save(&path).expect("save study");
        let err = StudyResult::load(&path).expect_err("winner 999 is out of range");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("winner 999"), "{err}");
        // In range but failed: it would be reported as the level's winner.
        let mut failed = study;
        let rep = &mut failed.classical[0].repetitions[0];
        rep.evaluated[0].passed = false;
        rep.winner = Some(0);
        failed.save(&path).expect("save study");
        assert!(StudyResult::load(&path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(StudyResult::load("/nonexistent/study.json").is_err());
    }

    #[test]
    fn table_one_paper_combos_structure() {
        let rows = table_one_paper_combos(&CostModel::default());
        assert_eq!(rows.len(), 8);
        // Column identity: TF = Enc+CL + QL and Enc+CL = Enc + CL.
        for row in &rows {
            assert_eq!(row.total, row.enc_plus_cl + row.quantum);
            assert_eq!(row.enc_plus_cl, row.encoding + row.classical);
        }
        // SEL rows share a constant QL (the paper's key observation).
        let sel: Vec<&TableOneRow> = rows.iter().filter(|r| r.model.contains("SEL")).collect();
        assert_eq!(sel.len(), 4);
        assert!(sel.iter().all(|r| r.quantum == sel[0].quantum));
        // BEL QL grows once the architecture grows.
        let bel: Vec<&TableOneRow> = rows.iter().filter(|r| r.model.contains("BEL")).collect();
        assert!(bel[3].quantum > bel[0].quantum);
        // CL grows with feature size in both blocks.
        assert!(sel[3].classical > sel[0].classical);
    }

    #[test]
    fn table_one_from_study_uses_winners() {
        let mut study = StudyResult::new(ExperimentConfig::smoke());
        study.run_family(Family::HybridSel, &mut |_, _, _| {});
        let rows = table_one_from_study(&study);
        // Smoke protocol may or may not find winners; rows must be
        // structurally valid either way.
        for row in rows {
            assert!(row.model.contains("SEL"));
            assert_eq!(row.total, row.enc_plus_cl + row.quantum);
            assert!(study.config.levels.contains(&row.feature_size));
        }
    }

    #[test]
    fn accuracy_frontier_evaluates_in_flops_order() {
        let config = SearchConfig::smoke();
        let cost = CostModel::default();
        let space = crate::space::classical_space(4, 3);
        let mut seen = 0;
        let outcomes = accuracy_frontier(&space, 4, &config, &cost, &mut |_| seen += 1);
        assert_eq!(
            outcomes.len(),
            config.max_combos_per_repetition.min(space.len())
        );
        assert_eq!(seen, outcomes.len());
        let flops: Vec<u64> = outcomes.iter().map(|o| o.flops.total()).collect();
        assert!(flops.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn pareto_front_is_nondominated_and_monotone() {
        let config = SearchConfig::smoke();
        let cost = CostModel::default();
        let space = crate::space::classical_space(4, 3);
        let outcomes = accuracy_frontier(&space, 4, &config, &cost, &mut |_| {});
        let front = pareto_front(&outcomes);
        assert!(!front.is_empty());
        // Monotone: FLOPs ascending and accuracy strictly ascending.
        for pair in front.windows(2) {
            assert!(pair[0].flops.total() <= pair[1].flops.total());
            assert!(pair[0].avg_val_accuracy < pair[1].avg_val_accuracy);
        }
        // Non-dominated: nothing in the full set beats a front member on
        // both axes.
        for member in &front {
            for o in &outcomes {
                assert!(
                    !(o.flops.total() < member.flops.total()
                        && o.avg_val_accuracy > member.avg_val_accuracy),
                    "{} dominates front member {}",
                    o.spec.label(),
                    member.spec.label()
                );
            }
        }
    }

    #[test]
    fn sharded_study_matches_sequential_and_replays_progress_in_order() {
        let config = ExperimentConfig::smoke();
        let families = [Family::Classical, Family::HybridBel];
        let mut seq = StudyResult::new(config.clone());
        let mut seq_calls = Vec::new();
        for family in families {
            seq.run_family(family, &mut |n, rep, combo| {
                seq_calls.push((family, n, rep, combo.spec.label()));
            });
        }
        let mut sharded = StudyResult::new(config);
        let mut shard_calls = Vec::new();
        let plan = hqnn_runtime::with_threads(4, || {
            sharded.run_study_sharded(&families, &mut |family, n, rep, combo| {
                shard_calls.push((family, n, rep, combo.spec.label()));
            })
        });
        assert_eq!(seq, sharded);
        assert_eq!(seq_calls, shard_calls);
        assert_eq!(
            plan.cells.len(),
            families.len() * sharded.config.levels.len()
        );
        assert!(plan.outer * plan.inner <= 4);
        assert_eq!(
            plan.descriptor(),
            format!(
                "cells={};outer={};inner={}",
                plan.cells.len(),
                plan.outer,
                plan.inner
            )
        );
    }

    #[test]
    fn pareto_front_drops_dominated_flops_ties() {
        // Regression: two outcomes tied on total FLOPs, the lower-accuracy
        // one listed first. The old FLOPs-only sort scanned it first and
        // kept the dominated point on the front.
        let spec = crate::space::classical_space(4, 3)[0].clone();
        let outcome = |flops: u64, acc: f64| ComboOutcome {
            spec: spec.clone(),
            flops: hqnn_flops::FlopsBreakdown {
                classical: flops,
                encoding: 0,
                quantum: 0,
            },
            param_count: 1,
            runs: Vec::new(),
            avg_train_accuracy: acc,
            avg_val_accuracy: acc,
            passed: false,
        };
        let outcomes = vec![
            outcome(100, 0.50), // dominated by its 0.90 tie-mate
            outcome(100, 0.90),
            outcome(200, 0.70), // dominated outright
            outcome(200, 0.95),
            outcome(300, 0.95), // equal accuracy at higher cost: dominated
        ];
        let front = pareto_front(&outcomes);
        let kept: Vec<(u64, f64)> = front
            .iter()
            .map(|o| (o.flops.total(), o.avg_val_accuracy))
            .collect();
        assert_eq!(kept, vec![(100, 0.90), (200, 0.95)]);
        // Exact ties on both axes keep a single representative.
        let dup = vec![outcome(100, 0.80), outcome(100, 0.80)];
        assert_eq!(pareto_front(&dup).len(), 1);
    }

    #[test]
    fn experiment_profiles() {
        assert_eq!(ExperimentConfig::paper().levels.len(), 11);
        assert_eq!(ExperimentConfig::fast().levels, vec![10, 60, 110]);
        assert!(ExperimentConfig::smoke().levels.len() < 3);
        assert_eq!(Family::Classical.name(), "classical");
        assert_eq!(Family::HybridSel.name(), "hybrid (SEL)");
    }
}
