//! Text rendering of experiment results — the tables the figure binaries
//! print, mirroring what the paper plots.

use std::fmt::Write as _;

use crate::experiments::{StudyResult, TableOneRow};
use crate::protocol::LevelResult;

/// Percentage rate of increase from `first` to `last`
/// (the paper's §IV-E metric, e.g. "+88.5%").
///
/// # Example
///
/// ```
/// assert_eq!(hqnn_search::report::rate_of_increase(100.0, 150.0), 50.0);
/// ```
pub fn rate_of_increase(first: f64, last: f64) -> f64 {
    if first == 0.0 {
        return f64::NAN;
    }
    100.0 * (last - first) / first
}

/// Formats a [`rate_of_increase`] for the tables: `"+88.5%"` for finite
/// rates, `"n/a"` when the rate is undefined (NaN/∞ from a zero or missing
/// baseline) — matching the `—` convention for absent cells.
fn fmt_rate(rate: f64) -> String {
    if rate.is_finite() {
        format!("{rate:+.1}%")
    } else {
        "n/a".to_string()
    }
}

/// Renders one family's per-level winners — the content of one of the
/// paper's Fig. 6/7/8 panels: per complexity level, each repetition's
/// winning architecture with its FLOPs, plus the level mean.
pub fn scaling_table(family_name: &str, levels: &[LevelResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "FLOPs of best-performing {family_name} models per complexity level"
    );
    let _ = writeln!(
        out,
        "{:>9} | {:<18} {:>10} {:>9} {:>11} {:>9}",
        "features", "winner", "FLOPs", "params", "train acc", "val acc"
    );
    for level in levels {
        if level.winners().is_empty() {
            let _ = writeln!(
                out,
                "{:>9} | (no combination reached the threshold)",
                level.n_features
            );
            continue;
        }
        for rep in &level.repetitions {
            if let Some(w) = rep.winning_combo() {
                let _ = writeln!(
                    out,
                    "{:>9} | {:<18} {:>10} {:>9} {:>10.1}% {:>8.1}%",
                    level.n_features,
                    w.spec.label(),
                    w.flops.total(),
                    w.param_count,
                    100.0 * w.avg_train_accuracy,
                    100.0 * w.avg_val_accuracy,
                );
            }
        }
        if let (Some(mf), Some(mp)) = (level.mean_winner_flops(), level.mean_winner_params()) {
            let _ = writeln!(
                out,
                "{:>9} | {:<18} {:>10.1} {:>9.1}",
                level.n_features, "  → mean", mf, mp
            );
        }
    }
    out
}

/// Renders the paper's Fig. 9: parameter counts of the winners for all three
/// families at each level.
pub fn parameter_table(study: &StudyResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Trainable parameters of winning models (mean over repetitions)"
    );
    let _ = writeln!(
        out,
        "{:>9} | {:>12} {:>14} {:>14}",
        "features", "classical", "hybrid (BEL)", "hybrid (SEL)"
    );
    for (i, &features) in study.config.levels.iter().enumerate() {
        let cell = |levels: &[LevelResult]| -> String {
            levels
                .get(i)
                .and_then(|l| l.mean_winner_params())
                .map(|p| format!("{p:.1}"))
                .unwrap_or_else(|| "—".to_string())
        };
        let _ = writeln!(
            out,
            "{:>9} | {:>12} {:>14} {:>14}",
            features,
            cell(&study.classical),
            cell(&study.hybrid_bel),
            cell(&study.hybrid_sel),
        );
    }
    out
}

/// Renders the paper's Fig. 10: the smallest winner per level per family
/// (FLOPs and parameters), followed by the low→high rates of increase.
pub fn comparative_table(study: &StudyResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Smallest winning model per complexity level (paper §IV-E selection)"
    );
    let _ = writeln!(
        out,
        "{:>9} | {:>22} | {:>22} | {:>22}",
        "features", "classical", "hybrid BEL", "hybrid SEL"
    );
    let _ = writeln!(
        out,
        "{:>9} | {:>10} {:>11} | {:>10} {:>11} | {:>10} {:>11}",
        "", "FLOPs", "params", "FLOPs", "params", "FLOPs", "params"
    );

    let families = [&study.classical, &study.hybrid_bel, &study.hybrid_sel];
    let mut series: [Vec<Option<(u64, usize)>>; 3] = Default::default();
    for (f, family) in families.iter().enumerate() {
        for i in 0..study.config.levels.len() {
            series[f].push(
                family
                    .get(i)
                    .and_then(|l| l.smallest_winner())
                    .map(|w| (w.flops.total(), w.param_count)),
            );
        }
    }
    for (i, &features) in study.config.levels.iter().enumerate() {
        let cell = |v: &Option<(u64, usize)>| match v {
            Some((flops, params)) => format!("{flops:>10} {params:>11}"),
            None => format!("{:>10} {:>11}", "—", "—"),
        };
        let _ = writeln!(
            out,
            "{:>9} | {} | {} | {}",
            features,
            cell(&series[0][i]),
            cell(&series[1][i]),
            cell(&series[2][i]),
        );
    }

    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "rate of increase, {} → {} features (paper: classical +88.5% FLOPs, BEL +80.1%, SEL +53.1%):",
        study.config.levels.first().copied().unwrap_or(0),
        study.config.levels.last().copied().unwrap_or(0),
    );
    let names = ["classical ", "hybrid BEL", "hybrid SEL"];
    for (f, name) in names.iter().enumerate() {
        let first = series[f].first().and_then(|v| *v);
        let last = series[f].last().and_then(|v| *v);
        match (first, last) {
            (Some((f0, p0)), Some((f1, p1))) => {
                let _ = writeln!(
                    out,
                    "  {name}: FLOPs {}  params {}",
                    fmt_rate(rate_of_increase(f0 as f64, f1 as f64)),
                    fmt_rate(rate_of_increase(p0 as f64, p1 as f64)),
                );
            }
            _ => {
                let _ = writeln!(out, "  {name}: (incomplete — some level had no winner)");
            }
        }
    }
    out
}

/// Renders Table I (the Enc/CL/QL ablation).
pub fn table_one(rows: &[TableOneRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Breakdown of per-sample FLOPs across hybrid model stages (Table I)"
    );
    let _ = writeln!(
        out,
        "{:<13} {:>6} {:>8} {:>7} {:>8} {:>6} {:>6} {:>6}",
        "Model", "FS", "BC", "TF", "Enc+CL", "CL", "Enc", "QL"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<13} {:>6} {:>8} {:>7} {:>8} {:>6} {:>6} {:>6}",
            r.model,
            r.feature_size,
            format!("({},{})", r.best_combo.0, r.best_combo.1),
            r.total,
            r.enc_plus_cl,
            r.classical,
            r.encoding,
            r.quantum,
        );
    }
    out
}

/// Serialises every winner of a study as CSV
/// (`family,features,repetition,label,flops,params,train_acc,val_acc`) —
/// the machine-readable companion of the printed tables, convenient for
/// replotting the figures with external tooling. Commas inside model labels
/// (e.g. `SEL(3q,2l)`) are replaced by `;` so rows split cleanly.
pub fn winners_csv(study: &StudyResult) -> String {
    let mut out = String::from("family,features,repetition,label,flops,params,train_acc,val_acc\n");
    for (family, levels) in [
        ("classical", &study.classical),
        ("hybrid_bel", &study.hybrid_bel),
        ("hybrid_sel", &study.hybrid_sel),
    ] {
        for level in levels.iter() {
            for rep in &level.repetitions {
                if let Some(w) = rep.winning_combo() {
                    let _ = writeln!(
                        out,
                        "{family},{},{},{},{},{},{:.6},{:.6}",
                        level.n_features,
                        rep.repetition,
                        w.spec.label().replace(',', ";"),
                        w.flops.total(),
                        w.param_count,
                        w.avg_train_accuracy,
                        w.avg_val_accuracy,
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{table_one_paper_combos, ExperimentConfig, Family, StudyResult};
    use hqnn_flops::CostModel;

    fn smoke_study() -> StudyResult {
        let mut study = StudyResult::new(ExperimentConfig::smoke());
        study.run_family(Family::Classical, &mut |_, _, _| {});
        study.run_family(Family::HybridSel, &mut |_, _, _| {});
        study
    }

    #[test]
    fn rate_of_increase_formula() {
        assert_eq!(rate_of_increase(100.0, 188.5), 88.5);
        assert_eq!(rate_of_increase(200.0, 100.0), -50.0);
        assert!(rate_of_increase(0.0, 5.0).is_nan());
    }

    #[test]
    fn scaling_table_renders_every_level() {
        let study = smoke_study();
        let txt = scaling_table("classical", &study.classical);
        for level in &study.config.levels {
            assert!(txt.contains(&level.to_string()), "missing level {level}");
        }
        assert!(txt.contains("FLOPs"));
    }

    #[test]
    fn parameter_table_has_three_family_columns() {
        let study = smoke_study();
        let txt = parameter_table(&study);
        assert!(txt.contains("classical"));
        assert!(txt.contains("hybrid (BEL)"));
        assert!(txt.contains("hybrid (SEL)"));
        // BEL was not run → its cells render as em-dashes.
        assert!(txt.contains('—'));
    }

    #[test]
    fn comparative_table_includes_rates() {
        let study = smoke_study();
        let txt = comparative_table(&study);
        assert!(txt.contains("rate of increase"));
        assert!(txt.contains("classical"));
    }

    #[test]
    fn comparative_table_renders_undefined_rate_as_na() {
        // Regression: a zero-FLOPs baseline winner used to print
        // "FLOPs NaN%". The rate is undefined there and must render "n/a".
        use crate::protocol::{ComboOutcome, LevelResult, RepetitionOutcome};
        let spec = crate::space::classical_space(4, 3)[0].clone();
        let level = |n_features: usize, flops: u64, params: usize| LevelResult {
            n_features,
            repetitions: vec![RepetitionOutcome {
                repetition: 0,
                evaluated: vec![ComboOutcome {
                    spec: spec.clone(),
                    flops: hqnn_flops::FlopsBreakdown {
                        classical: flops,
                        encoding: 0,
                        quantum: 0,
                    },
                    param_count: params,
                    runs: Vec::new(),
                    avg_train_accuracy: 1.0,
                    avg_val_accuracy: 1.0,
                    passed: true,
                }],
                winner: Some(0),
            }],
        };
        let mut study = StudyResult::new(ExperimentConfig::smoke());
        let (first, last) = (study.config.levels[0], *study.config.levels.last().unwrap());
        study.classical = vec![level(first, 0, 5), level(last, 10, 5)];
        let txt = comparative_table(&study);
        assert!(
            txt.contains("  classical : FLOPs n/a  params +0.0%"),
            "golden line missing from:\n{txt}"
        );
        assert!(!txt.contains("NaN"), "NaN leaked into:\n{txt}");
    }

    #[test]
    fn winners_csv_has_header_and_valid_rows() {
        let study = smoke_study();
        let csv = winners_csv(&study);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("family,features,repetition,label,flops,params,train_acc,val_acc")
        );
        for line in lines {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 8, "bad row: {line}");
            assert!(["classical", "hybrid_bel", "hybrid_sel"].contains(&fields[0]));
            assert!(fields[4].parse::<u64>().is_ok());
            assert!(fields[6].parse::<f64>().is_ok());
        }
    }

    #[test]
    fn table_one_renders_all_rows() {
        let rows = table_one_paper_combos(&CostModel::default());
        let txt = table_one(&rows);
        assert_eq!(txt.lines().count(), 2 + rows.len());
        assert!(txt.contains("Hybrid (SEL)"));
        assert!(txt.contains("(4,4)"));
    }
}
