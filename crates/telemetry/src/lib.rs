//! Time-resolved telemetry for the transaction engine (DESIGN.md §6).
//!
//! The paper's VI-B guidelines make protocol choice a function of
//! *runtime-observable* quantities — conflict rate, transaction length,
//! vector size — and the cumulative counters the experiments print at
//! process exit cannot show how those quantities shift mid-run. This
//! crate adds the time axis:
//!
//! * [`Sampler`] — a background thread snapshotting the engine's
//!   cumulative counters every N ms into per-window deltas;
//! * [`Window`] / [`TimeSeries`] — the windowed model and its
//!   schema-stable `mdts-timeseries/v1` JSONL export, self-checking via
//!   a baseline + trailer pair (Σ window deltas == final counters);
//! * [`StallDetector`] — an online rule engine over the window stream
//!   (throughput collapse, abort spikes, the PR 6 writer-starvation
//!   signature) whose firings land in the decision trace as typed
//!   `telemetry_alert` events.
//!
//! The engine side (phase spans, the blocked-wait histogram, subsystem
//! gauges) lives in `mdts-engine`'s metrics module and is always
//! compiled; everything here reads those counters from outside the hot
//! path.

pub mod sampler;
pub mod stall;
pub mod window;

pub use sampler::{Sampler, SamplerConfig};
pub use stall::{
    drained_tail_fixture, healthy_fixture, writer_starvation_fixture, Alert, StallDetector,
    StallRule,
};
pub use window::{TimeSeries, Window, TIMESERIES_SCHEMA};

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use mdts_engine::{
        bank_database_multiversion, run_bank_mix_db, BankConfig, LatencySnapshot, MetricsSnapshot,
        LATENCY_BUCKETS,
    };
    use mdts_trace::Json;
    use proptest::prelude::*;

    use super::*;

    /// Synthesizes a cumulative snapshot stream from per-window activity
    /// batches and returns (windows, final cumulative).
    fn windows_from_batches(batches: &[(u64, u64, Vec<u64>)]) -> (Vec<Window>, MetricsSnapshot) {
        let mut cumulative = MetricsSnapshot::default();
        let mut windows = Vec::new();
        let mut prev = cumulative;
        for (i, (commits, aborts, latencies)) in batches.iter().enumerate() {
            cumulative.commits += commits;
            cumulative.aborts += aborts;
            let mut buckets = cumulative.latency.buckets;
            for &ticks in latencies {
                let idx = (u64::BITS - ticks.leading_zeros()) as usize;
                buckets[idx.min(LATENCY_BUCKETS - 1)] += 1;
            }
            cumulative.latency = LatencySnapshot::from_buckets(buckets);
            windows.push(Window {
                index: i as u64,
                t_start_ms: i as u64 * 10,
                t_end_ms: (i as u64 + 1) * 10,
                delta: cumulative.delta(&prev),
            });
            prev = cumulative;
        }
        (windows, cumulative)
    }

    fn series(windows: Vec<Window>, fin: MetricsSnapshot) -> TimeSeries {
        TimeSeries {
            experiment: "test".into(),
            label: "unit".into(),
            interval_ms: 10,
            baseline: MetricsSnapshot::default(),
            windows,
            alerts: Vec::new(),
            final_snapshot: fin,
        }
    }

    /// A window delta with every counter, histogram and gauge non-zero
    /// and no two counters equal (`n` offsets them per window).
    fn full_delta(n: u64) -> MetricsSnapshot {
        let hist =
            |seed: u64| LatencySnapshot::from_buckets(std::array::from_fn(|b| seed + b as u64 % 5));
        let mut s = MetricsSnapshot::default();
        for (i, c) in s.counters_mut().into_iter().enumerate() {
            *c = 1_000 * n + i as u64 + 1;
        }
        s.latency = hist(10 * n);
        s.block_wait = hist(20 * n);
        s.shard_accesses = std::array::from_fn(|i| n + i as u64);
        s.phases.enabled = true;
        s.phases.total_ns = std::array::from_fn(|p| 100 * n + p as u64);
        s.phases.spans = std::array::from_fn(|p| hist(30 * n + p as u64));
        let g = &mut s.gauges;
        g.mv_chains = 100 * n + 21;
        g.mv_versions = 100 * n + 22;
        g.mv_max_chain = 100 * n + 23;
        g.mv_chain_len_buckets = std::array::from_fn(|b| 100 * n + 50 + b as u64);
        g.mv_install_seq = 100 * n + 24;
        g.mv_watermark_lag = 100 * n + 25;
        g.mv_active_snapshots = 100 * n + 26;
        g.mv_pruned = 100 * n + 27;
        g.sched_live_rows = 100 * n + 28;
        g.sched_row_chunks = 100 * n + 29;
        g.sched_row_slots = 100 * n + 30;
        g.sched_index_released_ids = 100 * n + 42;
        g.order_cache_epoch_flushes = 100 * n + 31;
        g.batched_chain_batches = 100 * n + 33;
        g.batched_size_buckets = std::array::from_fn(|b| 100 * n + 70 + b as u64);
        g.wal_durable_epoch = 100 * n + 34;
        g.wal_pending_bytes = 100 * n + 35;
        g.wal_checkpoints = 100 * n + 36;
        g.wal_truncations = 100 * n + 37;
        s
    }

    /// The `mdts-timeseries/v1` document of a fixed two-window series
    /// with one alert, byte for byte.
    #[test]
    fn timeseries_document_is_golden() {
        let window = |index: u64| Window {
            index,
            t_start_ms: 10 * index,
            t_end_ms: 10 * index + 10,
            delta: full_delta(index + 1),
        };
        let mut ts = series(vec![window(0), window(1)], MetricsSnapshot::default());
        ts.baseline = full_delta(7);
        ts.final_snapshot = ts.sum_of_deltas();
        ts.alerts.push(Alert {
            window: 1,
            rule: StallRule::AbortSpike,
            value: 2_002.0,
            baseline: 40.5,
        });
        assert_eq!(ts.to_jsonl(), include_str!("testdata/timeseries_golden.jsonl"));
    }

    #[test]
    fn jsonl_document_parses_line_by_line() {
        let (windows, fin) = windows_from_batches(&[(5, 1, vec![3, 900]), (7, 0, vec![12])]);
        let ts = series(windows, fin);
        let doc = ts.to_jsonl();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 windows + trailer");
        let header = Json::parse(lines[0]).unwrap();
        assert_eq!(header.get("schema").unwrap().as_str(), Some(TIMESERIES_SCHEMA));
        let w0 = Json::parse(lines[1]).unwrap();
        assert_eq!(w0.get("kind").unwrap().as_str(), Some("window"));
        assert_eq!(w0.get("counters").unwrap().get("commits").unwrap().as_u64(), Some(5));
        let trailer = Json::parse(lines[3]).unwrap();
        assert_eq!(trailer.get("windows").unwrap().as_u64(), Some(2));
        assert_eq!(trailer.get("counters").unwrap().get("commits").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn verify_sum_accepts_exact_windows_and_rejects_tampering() {
        let (windows, fin) = windows_from_batches(&[(5, 1, vec![3]), (7, 2, vec![900, 12])]);
        let ts = series(windows, fin);
        assert!(ts.verify_sum().is_ok());
        let mut bad = ts.clone();
        bad.windows[1].delta.commits += 1;
        assert!(bad.verify_sum().is_err());
        let mut bad = ts;
        bad.windows[0].delta.latency =
            bad.windows[0].delta.latency.merge(&bad.windows[1].delta.latency);
        assert!(bad.verify_sum().is_err(), "histogram buckets are checked too");
    }

    #[test]
    fn sampler_on_a_live_workload_recomposes_exactly() {
        let cfg = BankConfig {
            accounts: 64,
            threads: 4,
            txns_per_thread: 400,
            read_only_fraction: 0.3,
            ..BankConfig::default()
        };
        let db = bank_database_multiversion(2, &cfg);
        db.set_phase_timing(true);
        let sampler = Sampler::start(
            &db,
            SamplerConfig {
                interval: Duration::from_millis(5),
                experiment: "unit".into(),
                label: "bank".into(),
            },
        );
        let report = run_bank_mix_db(&db, &cfg);
        assert!(report.invariant_holds());
        let ts = sampler.stop();
        assert!(!ts.windows.is_empty());
        ts.verify_sum().expect("window deltas must sum to the final counters");
        assert_eq!(ts.final_snapshot.commits, report.metrics.commits + ts.baseline.commits);
        // Window indices are dense and monotone; every delta is a real
        // subtraction of monotone counters.
        for (i, w) in ts.windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            assert!(w.t_end_ms > w.t_start_ms);
        }
        // Phase timing was on: the commit span must have samples.
        let commit = mdts_engine::Phase::Commit as usize;
        assert!(ts.final_snapshot.phases.spans[commit].count > 0);
        // The document round-trips through the parser.
        for line in ts.to_jsonl().lines() {
            Json::parse(line).expect("every emitted line is valid JSON");
        }
    }

    proptest! {
        /// Satellite: per-window deltas sum exactly to the final
        /// cumulative snapshot — counters and histogram buckets — for
        /// arbitrary activity splits, including empty windows.
        #[test]
        fn window_deltas_sum_to_cumulative(
            batches in proptest::collection::vec(
                (0u64..500, 0u64..100, proptest::collection::vec(0u64..1_000_000, 0..20)),
                0..24,
            ),
        ) {
            let (windows, fin) = windows_from_batches(&batches);
            let ts = series(windows, fin);
            prop_assert!(ts.verify_sum().is_ok());
            let sum = ts.sum_of_deltas();
            prop_assert_eq!(sum.commits, fin.commits);
            prop_assert_eq!(sum.latency.count, fin.latency.count);
            prop_assert_eq!(sum.latency.buckets, fin.latency.buckets);
        }
    }
}
