//! Telemetry-instrumented experiment runs: the `--telemetry out.jsonl` /
//! `--telemetry-strict` flags shared by exp17 and exp19.
//!
//! An instrumented run attaches a [`Sampler`] to a [`Database`] built by
//! [`Database::open`] (the workload's `bank_database*` helpers wrap it),
//! turns phase timing on, drives the bank mix, and returns both the
//! ordinary [`BankReport`] and the completed [`TimeSeries`]. The
//! recomposition invariant (baseline + Σ window deltas == final
//! cumulative counters) is asserted here, so every `--telemetry` run is
//! self-checking before the file is written.

use std::time::Duration;

use mdts_engine::{run_bank_mix_db, BankConfig, BankReport, Database};
use mdts_telemetry::{Sampler, SamplerConfig, StallConfig, TimeSeries};

/// Value of a `--flag value` argument, if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Parsed telemetry CLI flags.
#[derive(Clone, Debug, Default)]
pub struct TelemetryOpts {
    /// `--telemetry FILE`: where to write the `mdts-timeseries/v1` JSONL.
    pub out: Option<String>,
    /// `--telemetry-strict`: exit nonzero if any stall alert fired.
    pub strict: bool,
}

impl TelemetryOpts {
    /// Reads `--telemetry` / `--telemetry-strict` from the process args.
    pub fn from_args() -> TelemetryOpts {
        TelemetryOpts {
            out: arg_value("--telemetry"),
            strict: std::env::args().any(|a| a == "--telemetry-strict"),
        }
    }

    /// Whether an instrumented run was requested at all.
    pub fn requested(&self) -> bool {
        self.out.is_some() || self.strict
    }
}

/// Runs the bank mix on `db` with the sampler attached and phase timing
/// on. Panics if the window deltas fail to recompose the final counters.
pub fn run_instrumented(
    db: &Database<i64>,
    cfg: &BankConfig,
    experiment: &str,
    label: &str,
    interval: Duration,
) -> (BankReport, TimeSeries) {
    db.set_phase_timing(true);
    let sampler = Sampler::start(
        db,
        SamplerConfig {
            interval,
            experiment: experiment.into(),
            label: label.into(),
            stall: Some(StallConfig::default()),
        },
    );
    let report = run_bank_mix_db(db, cfg);
    let ts = sampler.stop();
    ts.verify_sum().expect("telemetry window deltas must sum to the final counters");
    assert_eq!(
        ts.final_snapshot.commits,
        report.metrics.commits + ts.baseline.commits,
        "sampler's final snapshot must agree with the report's counters"
    );
    (report, ts)
}

/// Writes the series as `mdts-timeseries/v1` JSONL.
pub fn write_timeseries(path: &str, ts: &TimeSeries) {
    std::fs::write(path, ts.to_jsonl()).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Enforces `--telemetry-strict`: any stall-detector firing fails the
/// run with a nonzero exit after printing each alert.
pub fn enforce_strict(ts: &TimeSeries) {
    if ts.alerts.is_empty() {
        return;
    }
    for a in &ts.alerts {
        eprintln!(
            "telemetry-strict: {} fired on window {} (value {:.0}, trailing mean {:.0})",
            a.rule.name(),
            a.window,
            a.value,
            a.baseline,
        );
    }
    std::process::exit(1);
}
