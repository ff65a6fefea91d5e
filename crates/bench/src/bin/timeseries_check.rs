//! timeseries_check — schema validator for `mdts-timeseries/v1` JSONL
//! documents, plus the stall-detector regression fixtures.
//!
//! `timeseries_check FILE` parses every line and enforces the document
//! contract the CI bench-smoke step relies on:
//!
//! * line 1 is a `header` carrying the exact schema id;
//! * `window` lines have dense, monotone indices starting at 0, strictly
//!   increasing edges, and every counter key present as a non-negative
//!   integer (deltas are unsigned by construction — a negative delta
//!   parses as a signed value and fails here);
//! * rates, gauges, both histograms, and the per-phase totals are present
//!   on every window;
//! * the `trailer` agrees with the body: window/alert counts match, and
//!   for every counter key baseline + Σ window deltas == final.
//!
//! The counter keys are the engine's metrics table
//! (`mdts_engine::COUNTER_KEYS`), so a counter added there is checked
//! here with no edit.
//!
//! `timeseries_check --stall-fixture` runs the detector over the PR 6
//! writer-starvation regression fixture (must fire both the starvation
//! and collapse rules, only after the healthy prefix), over the healthy
//! fixture (must stay silent), and over the drained-tail fixture (must
//! stay silent, and fire once commits resume), exiting nonzero otherwise.

use mdts_engine::COUNTER_KEYS;
use mdts_telemetry::{
    drained_tail_fixture, healthy_fixture, writer_starvation_fixture, StallConfig, StallDetector,
    StallRule, TIMESERIES_SCHEMA,
};
use mdts_trace::Json;

fn fail(msg: &str) -> ! {
    eprintln!("timeseries_check: {msg}");
    std::process::exit(1);
}

/// Extracts the value of every counter key from the `section` object,
/// failing on a missing key or a non-u64 (i.e. negative) value.
fn counters(line: usize, obj: &Json, section: &str) -> Result<Vec<u64>, String> {
    let c = obj.get(section).ok_or(format!("line {line}: missing {section} object"))?;
    COUNTER_KEYS
        .iter()
        .map(|key| {
            c.get(key)
                .ok_or(format!("line {line}: missing counter {key}"))?
                .as_u64()
                .ok_or(format!("line {line}: counter {key} is not a non-negative integer"))
        })
        .collect()
}

/// Checks the document contract; `Ok((windows, alerts))`.
fn validate(doc: &str) -> Result<(u64, u64), String> {
    let mut lines = doc.lines().enumerate();
    let (_, first) = lines.next().ok_or("document is empty")?;
    let header = Json::parse(first).map_err(|e| format!("line 1: {e}"))?;
    if header.get("schema").and_then(Json::as_str) != Some(TIMESERIES_SCHEMA) {
        return Err(format!("header does not carry schema {TIMESERIES_SCHEMA:?}"));
    }
    if header.get("kind").and_then(Json::as_str) != Some("header") {
        return Err("first line is not the header".to_string());
    }
    let mut windows = 0u64;
    let mut alerts = 0u64;
    let mut sums = vec![0u64; COUNTER_KEYS.len()];
    let mut prev_end = 0u64;
    for (i, line) in lines {
        let n = i + 1;
        let obj = Json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        match obj.get("kind").and_then(Json::as_str) {
            Some("window") => {
                if alerts > 0 {
                    return Err(format!("line {n}: window after the alert block"));
                }
                let index = obj
                    .get("window")
                    .and_then(Json::as_u64)
                    .ok_or(format!("line {n}: missing window index"))?;
                if index != windows {
                    return Err(format!(
                        "line {n}: window index {index} is not dense (expected {windows})"
                    ));
                }
                let start = obj.get("t_start_ms").and_then(Json::as_u64);
                let end = obj.get("t_end_ms").and_then(Json::as_u64);
                match (start, end) {
                    (Some(s), Some(e)) if e > s && s >= prev_end => prev_end = e,
                    _ => return Err(format!("line {n}: window edges are not monotone")),
                }
                for (sum, v) in sums.iter_mut().zip(counters(n, &obj, "counters")?) {
                    *sum += v;
                }
                for section in ["rates", "gauges", "histograms", "phase_total_ns"] {
                    if obj.get(section).is_none() {
                        return Err(format!("line {n}: window is missing {section}"));
                    }
                }
                for hist in ["commit_latency_ticks", "block_wait_ticks"] {
                    let h = obj.get("histograms").and_then(|hs| hs.get(hist));
                    if h.and_then(|h| h.get("count")).and_then(Json::as_u64).is_none() {
                        return Err(format!("line {n}: window is missing histogram {hist}"));
                    }
                }
                windows += 1;
            }
            Some("alert") => {
                for key in ["window", "rule", "value", "baseline"] {
                    if obj.get(key).is_none() {
                        return Err(format!("line {n}: alert is missing {key}"));
                    }
                }
                alerts += 1;
            }
            Some("trailer") => {
                if obj.get("windows").and_then(Json::as_u64) != Some(windows) {
                    return Err(format!(
                        "trailer window count disagrees with {windows} window lines"
                    ));
                }
                if obj.get("alerts").and_then(Json::as_u64) != Some(alerts) {
                    return Err(format!("trailer alert count disagrees with {alerts} alert lines"));
                }
                let base = counters(n, &obj, "baseline")?;
                let fin = counters(n, &obj, "counters")?;
                for (((key, &sum), b), f) in COUNTER_KEYS.iter().zip(&sums).zip(base).zip(fin) {
                    if b + sum != f {
                        return Err(format!(
                            "counter {key}: baseline {b} + window deltas {sum} != final {f}"
                        ));
                    }
                }
                return Ok((windows, alerts));
            }
            other => return Err(format!("line {n}: unknown line kind {other:?}")),
        }
    }
    Err("document has no trailer line".to_string())
}

/// Certifies the stall-detector regression fixtures: the PR 6
/// writer-starvation collapse must fire both rules (never inside the
/// healthy prefix), the healthy series and a drained tail must stay
/// silent, and the drained tail's empty window must fire once commits
/// resume.
fn check_fixtures() {
    let fired = StallDetector::scan(StallConfig::default(), &writer_starvation_fixture());
    if !fired.iter().any(|a| a.rule == StallRule::WriterStarvation) {
        fail("writer-starvation fixture: starvation rule did not fire");
    }
    if !fired.iter().any(|a| a.rule == StallRule::ThroughputCollapse) {
        fail("writer-starvation fixture: collapse rule did not fire");
    }
    if fired.iter().any(|a| a.window < 10) {
        fail("writer-starvation fixture: a rule fired during the healthy prefix");
    }
    let quiet = StallDetector::scan(StallConfig::default(), &healthy_fixture());
    if !quiet.is_empty() {
        fail(&format!("healthy fixture raised {} spurious alerts", quiet.len()));
    }
    let mut tail = drained_tail_fixture();
    if !StallDetector::scan(StallConfig::default(), &tail).is_empty() {
        fail("drained-tail fixture: the drained workload's empty window raised an alert");
    }
    tail.push(healthy_fixture()[0]);
    let resumed = StallDetector::scan(StallConfig::default(), &tail);
    if !resumed.iter().any(|a| a.rule == StallRule::ThroughputCollapse) {
        fail("drained-tail fixture: the empty window did not fire once commits resumed");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--stall-fixture") {
        check_fixtures();
        println!("timeseries_check: stall-detector fixtures OK");
        return;
    }
    let path = args.first().unwrap_or_else(|| {
        fail("usage: timeseries_check <FILE> | timeseries_check --stall-fixture")
    });
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let (windows, alerts) = validate(&doc).unwrap_or_else(|e| fail(&e));
    println!("timeseries_check: {path} OK ({windows} windows, {alerts} alerts)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The telemetry crate's golden document: two windows, one alert.
    const GOLDEN: &str = include_str!("../../../telemetry/src/testdata/timeseries_golden.jsonl");

    #[test]
    fn golden_document_validates() {
        assert_eq!(validate(GOLDEN), Ok((2, 1)));
    }

    /// Every counter of the table recomposes, `batched_compares` included:
    /// a trailer whose `batched_compares` is not baseline + Σ window
    /// deltas fails.
    #[test]
    fn batched_compares_must_recompose() {
        let key = "\"batched_compares\":";
        let trailer = GOLDEN.lines().last().unwrap();
        // The trailer's final counters come after its baseline.
        let at = trailer.rfind(key).unwrap() + key.len();
        let tampered = format!("{}1{}", &trailer[..at], &trailer[at..]);
        let err = validate(&GOLDEN.replace(trailer, &tampered)).unwrap_err();
        assert!(err.starts_with("counter batched_compares:"), "{err}");
    }
}
