//! Per-span-path median comparison of two traces, with a MAD noise band.

use crate::model::{fmt_us, mad_u64, median_u64, Trace};
use std::collections::BTreeSet;

/// Relative delta below which a path is never flagged (`0.10` = 10 %).
const REL_FLOOR: f64 = 0.10;
/// How many MADs (the larger of the two traces', relative to the baseline
/// median) of slack the noise term grants.
const MAD_MULTIPLIER: f64 = 4.0;
/// Median (µs) past which a path whose baseline median is 0 µs is flagged:
/// a relative delta from zero is undefined, so an absolute floor stands in.
const ZERO_BASELINE_FLOOR_US: u64 = 10;

/// Compares span durations between a baseline and a current trace.
///
/// For every span path present in either trace, the per-occurrence duration
/// medians are compared; the relative delta is judged against the noise band
/// `max(REL_FLOOR, MAD_MULTIPLIER × max(MAD_a, MAD_b) / median_a)`
/// (±10 %, 4×MAD): a path must move by more than its own jitter. Paths
/// outside the band are flagged `REGRESSION`/`IMPROVEMENT`; inside it,
/// `within noise`. A path whose baseline median is 0 µs (sub-µs spans) has
/// no relative delta: it is flagged `REGRESSION` (delta `inf`) once its
/// current median exceeds 10 µs, else `within noise`. Paths on only one
/// side are listed as `new`/`gone` (never flagged: a renamed span is not a
/// perf change).
pub fn diff(baseline: &Trace, current: &Trace) -> String {
    let base = baseline.durations_by_path();
    let cur = current.durations_by_path();
    let paths: BTreeSet<&str> = base.keys().chain(cur.keys()).copied().collect();

    let mut out = String::new();
    if paths.is_empty() {
        out.push_str("no spans in either trace\n");
        return out;
    }
    out.push_str(&format!(
        "{:<44} {:>7} {:>10} {:>10} {:>8} {:>8}  {}\n",
        "span path", "n(a/b)", "median a", "median b", "delta", "band", "verdict"
    ));
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    for path in paths {
        match (base.get(path), cur.get(path)) {
            (Some(a), Some(b)) => {
                let med_a = median_u64(a);
                let med_b = median_u64(b);
                let (rel, allowed) = band(a, b, med_a, med_b);
                let verdict = if rel > allowed {
                    regressions += 1;
                    "REGRESSION"
                } else if rel < -allowed {
                    improvements += 1;
                    "IMPROVEMENT"
                } else {
                    "within noise"
                };
                out.push_str(&format!(
                    "{:<44} {:>7} {:>10} {:>10} {:>7.1}% {:>7.1}%  {}\n",
                    path,
                    format!("{}/{}", a.len(), b.len()),
                    fmt_us(med_a),
                    fmt_us(med_b),
                    rel * 100.0,
                    allowed * 100.0,
                    verdict
                ));
            }
            (None, Some(b)) => {
                out.push_str(&format!(
                    "{:<44} {:>7} {:>10} {:>10} {:>8} {:>8}  new\n",
                    path,
                    format!("0/{}", b.len()),
                    "-",
                    fmt_us(median_u64(b)),
                    "-",
                    "-"
                ));
            }
            (Some(a), None) => {
                out.push_str(&format!(
                    "{:<44} {:>7} {:>10} {:>10} {:>8} {:>8}  gone\n",
                    path,
                    format!("{}/0", a.len()),
                    fmt_us(median_u64(a)),
                    "-",
                    "-",
                    "-"
                ));
            }
            (None, None) => {}
        }
    }
    out.push_str(&format!(
        "summary: {regressions} regression(s), {improvements} improvement(s)\n"
    ));
    out
}

/// `(relative delta, allowed band)` for one path's sample sets.
fn band(a: &[u64], b: &[u64], med_a: u64, med_b: u64) -> (f64, f64) {
    if med_a == 0 {
        // A zero baseline median (sub-µs spans) has no relative delta, so
        // growth is judged against an absolute floor instead.
        let rel = if med_b > ZERO_BASELINE_FLOOR_US {
            f64::INFINITY
        } else {
            0.0
        };
        return (rel, REL_FLOOR);
    }
    let rel = (med_b as f64 - med_a as f64) / med_a as f64;
    let mad = mad_u64(a).max(mad_u64(b)) as f64;
    let allowed = REL_FLOOR.max(MAD_MULTIPLIER * mad / med_a as f64);
    (rel, allowed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_line(ts: u64, path: &str, dur: u64) -> String {
        format!(r#"{{"ts_us":{ts},"level":"debug","event":"span","path":"{path}","dur_us":{dur}}}"#)
    }

    fn trace_of(durs: &[(&str, u64)]) -> Trace {
        let lines: Vec<String> = durs
            .iter()
            .enumerate()
            .map(|(i, (p, d))| span_line(i as u64, p, *d))
            .collect();
        Trace::parse(&lines.join("\n")).expect("parse")
    }

    #[test]
    fn flags_large_deltas_and_tolerates_noise() {
        let a = trace_of(&[("run/hot", 100), ("run/hot", 102), ("run/cold", 50)]);
        let b = trace_of(&[("run/hot", 160), ("run/hot", 158), ("run/cold", 52)]);
        let report = diff(&a, &b);
        assert!(report.contains("REGRESSION"), "{report}");
        assert!(report.contains("within noise"), "{report}");
        assert!(
            report.contains("summary: 1 regression(s), 0 improvement(s)"),
            "{report}"
        );
    }

    #[test]
    fn improvements_and_membership_changes_are_reported() {
        let a = trace_of(&[("run/slow", 200), ("run/gone", 10)]);
        let b = trace_of(&[("run/slow", 100), ("run/new", 10)]);
        let report = diff(&a, &b);
        assert!(report.contains("IMPROVEMENT"), "{report}");
        assert!(report.contains("new"), "{report}");
        assert!(report.contains("gone"), "{report}");
        assert!(report.contains("1 improvement(s)"), "{report}");
    }

    #[test]
    fn wide_mad_widens_the_band() {
        // Baseline is noisy (MAD 40 around median 100 → band 160%), so even
        // a 50% delta stays within noise.
        let a = trace_of(&[("p", 60), ("p", 100), ("p", 140)]);
        let b = trace_of(&[("p", 150), ("p", 150), ("p", 150)]);
        let report = diff(&a, &b);
        assert!(report.contains("within noise"), "{report}");
    }

    #[test]
    fn zero_baseline_median_that_grows_past_the_floor_is_a_regression() {
        // Sub-µs spans record 0; no relative delta exists, so a jump to
        // 500 µs is judged against the absolute floor and flagged.
        let a = trace_of(&[("run/tiny", 0), ("run/tiny", 0), ("run/tiny", 3)]);
        let b = trace_of(&[("run/tiny", 500), ("run/tiny", 500)]);
        let report = diff(&a, &b);
        assert!(report.contains("    inf%    10.0%  REGRESSION"), "{report}");
        assert!(
            report.contains("summary: 1 regression(s), 0 improvement(s)"),
            "{report}"
        );
    }

    #[test]
    fn zero_baseline_median_that_stays_zero_is_within_noise() {
        let a = trace_of(&[("run/tiny", 0), ("run/tiny", 0), ("run/tiny", 3)]);
        let b = trace_of(&[("run/tiny", 0), ("run/tiny", 0)]);
        let report = diff(&a, &b);
        assert!(
            report.contains("    0.0%    10.0%  within noise"),
            "{report}"
        );
        assert!(
            report.contains("summary: 0 regression(s), 0 improvement(s)"),
            "{report}"
        );
    }

    #[test]
    fn empty_traces_say_so() {
        let empty = Trace::parse("").expect("parse");
        assert_eq!(diff(&empty, &empty), "no spans in either trace\n");
    }
}
