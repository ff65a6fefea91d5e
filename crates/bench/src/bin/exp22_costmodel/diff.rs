//! `--diff A.json B.json`: B against A, metric by metric per workload,
//! judged by the bounds `BENCHMARK.json` carries.

use std::fmt::Write as _;

use crate::doc;
use crate::spec::{Better, END_TO_END};
use crate::sut::Json;

/// How one metric of B stands against A.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The inter-quartile spread of either side exceeds the bound, so
    /// the medians cannot be told apart at it.
    Unresolved,
}

/// Median and inter-quartile spread (as a share of the median) of a
/// metric in a run entry.
fn summary(run: &Json, metric: &str) -> Option<(f64, f64)> {
    let m = run.get("metrics")?.get(metric)?;
    let median = m.get("median")?.as_f64()?;
    let (q1, q3) = (m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?);
    Some((median, if median == 0.0 { 0.0 } else { (q3 - q1) / median.abs() }))
}

pub fn judge(base: (f64, f64), new: (f64, f64), better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (new.0 - base.0) / base.0.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (base.0 - new.0) / base.0.abs().max(f64::MIN_POSITIVE),
    };
    if base.1.max(new.1) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison as text, and whether B regressed: a metric beyond its
/// bound, a higher `failed_frac`, or a workload or metric of A that B no
/// longer has. `Err` when a document is not one of ours.
pub fn diff(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let untraced = |doc| -> Result<Vec<&Json>, String> {
        Ok(doc::runs(doc)?.iter().filter(|r| r.get("traced") == Some(&Json::Bool(false))).collect())
    };
    let (runs_a, runs_b) = (untraced(a)?, untraced(b)?);
    fn workload_of(run: &Json) -> Option<&str> {
        run.get("workload").and_then(Json::as_str)
    }
    let mut out = String::new();
    let (mut regressed, mut unresolved, mut compared) = (false, 0, 0);
    for run_a in &runs_a {
        let name = workload_of(run_a).ok_or("a run without a workload")?;
        let Some(run_b) = runs_b.iter().find(|r| workload_of(r) == Some(name)) else {
            writeln!(out, "{name}: only in A  Regressed").expect("write to String");
            regressed = true;
            continue;
        };
        if run_a.get("oversubscribed") != run_b.get("oversubscribed") {
            writeln!(
                out,
                "{name}: not compared: one run had fewer cores than clients and the other did not"
            )
            .expect("write to String");
            unresolved += END_TO_END.len();
            continue;
        }
        writeln!(out, "{name}").expect("write to String");
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let Some(base) = summary(run_a, m.name) else {
                writeln!(out, "  {:<14} not in A", m.name).expect("write to String");
                continue;
            };
            let Some(new) = summary(run_b, m.name) else {
                writeln!(out, "  {:<14} missing in B  Regressed", m.name).expect("write to String");
                regressed = true;
                continue;
            };
            let verdict = judge(base, new, m.better, bound);
            compared += 1;
            regressed |= verdict == Verdict::Regressed;
            unresolved += usize::from(verdict == Verdict::Unresolved);
            writeln!(
                out,
                "  {:<14} B/A = {:.4} (A = {:.4} {}, B = {:.4}; spread A {:.1}% B {:.1}%; bound {:.0}%)  {:?}",
                m.name,
                new.0 / base.0,
                base.0,
                m.unit,
                new.0,
                100.0 * base.1,
                100.0 * new.1,
                100.0 * bound,
                verdict
            )
            .expect("write to String");
        }
        let frac = |run: &Json| run.get("failed_frac").and_then(Json::as_f64).unwrap_or(0.0);
        let (fa, fb) = (frac(run_a), frac(run_b));
        let more_failures = fb > fa;
        regressed |= more_failures;
        writeln!(
            out,
            "  {:<14} A = {fa}, B = {fb}  {}",
            "failed_frac",
            if more_failures { "Regressed" } else { "Unchanged" }
        )
        .expect("write to String");
    }
    for run_b in &runs_b {
        let name = workload_of(run_b).ok_or("a run without a workload")?;
        if !runs_a.iter().any(|r| workload_of(r) == Some(name)) {
            writeln!(out, "{name}: only in B").expect("write to String");
        }
    }
    writeln!(
        out,
        "{compared} metrics compared, {unresolved} unresolved, {}",
        if regressed { "REGRESSION" } else { "no regression" }
    )
    .expect("write to String");
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Report, Stat};
    use crate::sut::{Counters, Levels};

    /// A document holding one untraced run with the first `metrics`
    /// end-to-end metrics, whose timings are `scale` times a fixed set of
    /// slice values.
    fn document_of(metrics: usize, scale: f64, host_cpus: usize, failed_calls: u64) -> Json {
        let slices = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0];
        let metrics = END_TO_END[..metrics]
            .iter()
            .map(|m| Stat {
                name: m.name,
                unit: m.unit,
                values: slices.iter().map(|v| v * scale).collect(),
            })
            .collect();
        let report = Report {
            workload: crate::spec::workload("transfer_uniform_2t").expect("in the table"),
            traced: false,
            seed: 1,
            seconds: 10.0,
            slice_txns: 1000,
            host_cpus,
            host_parallelism: 2.0,
            wal_fs: "none".to_string(),
            clock_read_ns: 25.0,
            attempted: 10_000,
            failed_calls,
            checks: Vec::new(),
            metrics,
            unreconciled: Vec::new(),
            counts: Counters::default(),
            levels: Levels::default(),
            warm_row_chunks: 0,
        };
        Json::obj(vec![
            ("schema", Json::str(doc::SCHEMA)),
            ("runs", Json::Arr(vec![doc::entry(&report)])),
        ])
    }

    fn document(scale: f64, host_cpus: usize, failed_calls: u64) -> Json {
        document_of(END_TO_END.len(), scale, host_cpus, failed_calls)
    }

    #[test]
    fn what_b_no_longer_reports_is_a_regression() {
        let base = document(1.0, 2, 0);
        let (text, regressed) =
            diff(&base, &document_of(END_TO_END.len() - 1, 1.0, 2, 0)).expect("comparable");
        assert!(regressed && text.contains("setup_s        missing in B"), "{text}");
        let empty =
            Json::obj(vec![("schema", Json::str(doc::SCHEMA)), ("runs", Json::Arr(vec![]))]);
        let (text, regressed) = diff(&base, &empty).expect("comparable");
        assert!(regressed && text.contains("transfer_uniform_2t: only in A"), "{text}");
        let (text, regressed) = diff(&empty, &base).expect("comparable");
        assert!(!regressed && text.contains("transfer_uniform_2t: only in B"), "{text}");
    }

    #[test]
    fn documents_compare_metric_by_metric() {
        let base = document(1.0, 2, 0);
        let (text, regressed) = diff(&base, &document(1.03, 2, 0)).expect("comparable");
        assert!(!regressed && text.contains("0 unresolved"), "{text}");
        let (text, regressed) = diff(&base, &document(1.3, 2, 0)).expect("comparable");
        assert!(regressed && text.contains("commit_ns") && text.contains("Regressed"), "{text}");
        // More failures regress a run whatever its timings.
        let (_, regressed) = diff(&base, &document(1.0, 2, 3)).expect("comparable");
        assert!(regressed);
        // Two clients on one CPU measure something else.
        let (text, regressed) = diff(&base, &document(1.3, 1, 0)).expect("comparable");
        assert!(!regressed && text.contains("not compared") && text.contains("5 unresolved"));
        // A document survives its own rendering.
        let reparsed = Json::parse(&base.render()).expect("valid JSON");
        assert!(!diff(&base, &reparsed).expect("comparable").1);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight = 0.01;
        assert_eq!(judge((100.0, tight), (104.0, tight), Better::Lower, 0.05), Verdict::Unchanged);
        assert_eq!(judge((100.0, tight), (106.0, tight), Better::Lower, 0.05), Verdict::Regressed);
        assert_eq!(judge((100.0, tight), (90.0, tight), Better::Lower, 0.05), Verdict::Improved);
        assert_eq!(judge((100.0, tight), (90.0, tight), Better::Higher, 0.05), Verdict::Regressed);
        // A spread wider than the bound hides any difference of that size.
        assert_eq!(judge((100.0, 0.08), (120.0, tight), Better::Lower, 0.05), Verdict::Unresolved);
        assert_eq!(judge((100.0, tight), (100.0, 0.08), Better::Lower, 0.05), Verdict::Unresolved);
    }
}
