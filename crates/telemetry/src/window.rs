//! Windows and the `mdts-timeseries/v1` JSONL schema.
//!
//! A window is the engine's activity between two consecutive samples of
//! its cumulative counters: every counter and histogram bucket is the
//! *delta* over the interval, while gauges are the level at the window's
//! closing edge. Because deltas are exact bucket/counter subtractions,
//! summing every window on top of the baseline snapshot reproduces the
//! final cumulative [`MetricsSnapshot`] bit for bit — the invariant
//! [`TimeSeries::verify_sum`] checks and `exp17 --telemetry` asserts.
//!
//! The JSONL document is a stream of discriminated lines:
//!
//! 1. one `header` line — schema id, experiment, label, interval;
//! 2. one `window` line per interval — counters (deltas), derived rates,
//!    gauges (levels), histograms (delta buckets + per-window quantiles),
//!    phase totals;
//! 3. zero or more `alert` lines — stall-detector firings;
//! 4. one `trailer` line — window count, the baseline counters, and the
//!    final cumulative counters, making the document self-checking.

use mdts_engine::{LatencySnapshot, MetricsSnapshot, Phase};
use mdts_trace::Json;

use crate::stall::Alert;

/// Schema identifier stamped on the header line.
pub const TIMESERIES_SCHEMA: &str = "mdts-timeseries/v1";

/// One sampling window: the engine's activity over `[t_start_ms,
/// t_end_ms)` as a delta snapshot (gauges are levels at `t_end_ms`).
#[derive(Clone, Debug)]
pub struct Window {
    /// Zero-based window index, dense and monotone.
    pub index: u64,
    /// Window open, milliseconds since the sampler started.
    pub t_start_ms: u64,
    /// Window close, milliseconds since the sampler started.
    pub t_end_ms: u64,
    /// Counter/histogram deltas over the window; gauges as sampled at
    /// the close.
    pub delta: MetricsSnapshot,
}

impl Window {
    /// Window length in seconds (floored at 1 µs so rates stay finite).
    pub fn seconds(&self) -> f64 {
        ((self.t_end_ms - self.t_start_ms) as f64 / 1e3).max(1e-6)
    }

    /// Committed transactions per second in this window.
    pub fn commits_per_sec(&self) -> f64 {
        self.delta.commits as f64 / self.seconds()
    }
}

/// A complete sampling run: baseline, windows, alerts, and the final
/// cumulative snapshot.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    /// Experiment name for the header (e.g. `exp17`).
    pub experiment: String,
    /// Free-form run label (protocol, thread count, …).
    pub label: String,
    /// Nominal sampling interval.
    pub interval_ms: u64,
    /// Counters when [`crate::Sampler::start`] was called (all-zero for a
    /// fresh database).
    pub baseline: MetricsSnapshot,
    /// Per-interval deltas, dense in `index`.
    pub windows: Vec<Window>,
    /// Stall-detector firings, in window order.
    pub alerts: Vec<Alert>,
    /// Cumulative counters at sampler stop.
    pub final_snapshot: MetricsSnapshot,
}

fn histogram_json(h: &LatencySnapshot) -> Json {
    Json::obj(vec![
        ("count", Json::U64(h.count)),
        ("p50", Json::U64(h.p50)),
        ("p95", Json::U64(h.p95)),
        ("p99", Json::U64(h.p99)),
        ("buckets", Json::Arr(h.buckets.iter().map(|&n| Json::U64(n)).collect())),
    ])
}

impl TimeSeries {
    /// The header line.
    pub fn header_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(TIMESERIES_SCHEMA)),
            ("kind", Json::str("header")),
            ("experiment", Json::str(self.experiment.as_str())),
            ("label", Json::str(self.label.as_str())),
            ("interval_ms", Json::U64(self.interval_ms)),
        ])
    }

    /// One window line.
    pub fn window_json(w: &Window) -> Json {
        let d = &w.delta;
        let secs = w.seconds();
        let cache_lookups = d.order_cache_hits + d.order_cache_misses;
        Json::obj(vec![
            ("kind", Json::str("window")),
            ("window", Json::U64(w.index)),
            ("t_start_ms", Json::U64(w.t_start_ms)),
            ("t_end_ms", Json::U64(w.t_end_ms)),
            ("counters", d.counters_json()),
            (
                "rates",
                Json::obj(vec![
                    ("commits_per_sec", Json::F64(d.commits as f64 / secs)),
                    ("aborts_per_sec", Json::F64(d.aborts as f64 / secs)),
                    ("blocked_waits_per_sec", Json::F64(d.blocked_waits as f64 / secs)),
                    ("abort_rate", Json::F64(d.abort_rate())),
                    (
                        "order_cache_hit_rate",
                        Json::F64(if cache_lookups == 0 {
                            0.0
                        } else {
                            d.order_cache_hits as f64 / cache_lookups as f64
                        }),
                    ),
                ]),
            ),
            ("gauges", d.gauges.to_json()),
            (
                "histograms",
                Json::obj(vec![
                    ("commit_latency_ticks", histogram_json(&d.latency)),
                    ("block_wait_ticks", histogram_json(&d.block_wait)),
                ]),
            ),
            (
                "phase_total_ns",
                Json::Obj(
                    Phase::ALL
                        .iter()
                        .zip(&d.phases.total_ns)
                        .map(|(p, &ns)| (p.name().to_string(), Json::U64(ns)))
                        .collect(),
                ),
            ),
        ])
    }

    /// One alert line.
    pub fn alert_json(a: &Alert) -> Json {
        Json::obj(vec![
            ("kind", Json::str("alert")),
            ("window", Json::U64(a.window)),
            ("rule", Json::str(a.rule.name())),
            ("value", Json::F64(a.value)),
            ("baseline", Json::F64(a.baseline)),
        ])
    }

    /// The trailer line: window count plus baseline and final cumulative
    /// counters, so a consumer can re-check the sum without any other
    /// document.
    pub fn trailer_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str("trailer")),
            ("windows", Json::U64(self.windows.len() as u64)),
            ("alerts", Json::U64(self.alerts.len() as u64)),
            ("baseline", self.baseline.counters_json()),
            ("counters", self.final_snapshot.counters_json()),
        ])
    }

    /// The full document: header, windows, alerts, trailer — one JSON
    /// object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header_json().render());
        out.push('\n');
        for w in &self.windows {
            out.push_str(&Self::window_json(w).render());
            out.push('\n');
        }
        for a in &self.alerts {
            out.push_str(&Self::alert_json(a).render());
            out.push('\n');
        }
        out.push_str(&self.trailer_json().render());
        out.push('\n');
        out
    }

    /// Baseline plus every window delta, recomposed: counters and
    /// histogram buckets add; gauges and phase `enabled` come from the
    /// last window (levels, not totals).
    pub fn sum_of_deltas(&self) -> MetricsSnapshot {
        let mut acc = self.baseline;
        for w in &self.windows {
            acc.accumulate(&w.delta);
        }
        acc
    }

    /// Checks the recomposition invariant: baseline + Σ window deltas ==
    /// final cumulative snapshot, field for field (counters, histogram
    /// buckets, quantiles, phase totals).
    pub fn verify_sum(&self) -> Result<(), String> {
        let sum = self.sum_of_deltas();
        let mut fin = self.final_snapshot;
        // Gauges are levels: the sum carries the last window's sample,
        // which may legitimately differ from the stop-time sample.
        fin.gauges = sum.gauges;
        if sum == fin {
            Ok(())
        } else {
            Err(format!(
                "window deltas do not recompose: sum commits={} aborts={} latency.count={} \
                 vs final commits={} aborts={} latency.count={}",
                sum.commits,
                sum.aborts,
                sum.latency.count,
                fin.commits,
                fin.aborts,
                fin.latency.count,
            ))
        }
    }
}
