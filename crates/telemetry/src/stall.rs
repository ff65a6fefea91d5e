//! Online stall detection over the window stream.
//!
//! Three rules, evaluated per window against a trailing-mean baseline of
//! the preceding windows (after a warmup period):
//!
//! * **throughput collapse** — window commits fall below a fraction of
//!   the trailing mean: the metastable-regime signature (the order-cache
//!   restart storm of PR 3, the bimodal MV hotspot of PR 6);
//! * **abort spike** — window aborts exceed a multiple of the trailing
//!   mean: a restart storm building before throughput visibly dips;
//! * **writer starvation** — the PR 6 pre-fix signature: the snapshot
//!   lane keeps serving reads (`snapshot_reads` holds up) while *update*
//!   commits (commits − snapshot transactions) flatline — read-only
//!   traffic healthy, writers starved.
//!
//! A window without a commit is judged like any other, but what fires on
//! it is held until a later window commits: a workload that drained
//! before the sampler stopped leaves such windows at the tail of a run,
//! and they are not a stall. Held alerts still open when the stream ends
//! are dropped.
//!
//! The detector is deliberately cheap and deterministic: it reads the
//! window's [`MetricsSnapshot`] delta, keeps a short ring of past windows,
//! no clock, no allocation after construction beyond the alerts.

use mdts_engine::MetricsSnapshot;
pub use mdts_trace::StallRule;

/// One stall-detector firing.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Alert {
    /// Window index the rule fired on.
    pub window: u64,
    /// Which rule fired.
    pub rule: StallRule,
    /// The window's observed value (rule-specific unit).
    pub value: f64,
    /// The trailing-mean baseline it was judged against.
    pub baseline: f64,
}

/// Detector thresholds. The defaults are tuned to fire on the PR 6
/// collapse fixture (70k → 2k txn/s) while staying silent through the
/// ordinary window-to-window noise of a healthy saturated run.
#[derive(Clone, Copy, Debug)]
pub struct StallConfig {
    /// Windows to observe before any rule may fire.
    pub warmup_windows: usize,
    /// Trailing windows in the baseline mean.
    pub trailing_windows: usize,
    /// Collapse fires when window commits < `collapse_factor` × mean.
    pub collapse_factor: f64,
    /// Minimum mean commits per window for collapse to be meaningful
    /// (an idle engine is not a stalled one).
    pub min_mean_commits: f64,
    /// Abort spike fires when window aborts > `abort_spike_factor` ×
    /// max(mean aborts, 1).
    pub abort_spike_factor: f64,
    /// Minimum window aborts for a spike to fire.
    pub min_spike_aborts: u64,
    /// Starvation fires when update commits < `starvation_factor` ×
    /// their mean while snapshot reads hold above half their mean.
    pub starvation_factor: f64,
    /// Minimum mean update commits for starvation to be meaningful.
    pub min_mean_updates: f64,
}

impl Default for StallConfig {
    fn default() -> Self {
        StallConfig {
            warmup_windows: 4,
            trailing_windows: 8,
            collapse_factor: 0.35,
            min_mean_commits: 50.0,
            abort_spike_factor: 4.0,
            min_spike_aborts: 50,
            starvation_factor: 0.25,
            min_mean_updates: 50.0,
        }
    }
}

/// Update (writer) commits: total commits minus the snapshot lane.
fn update_commits(w: &MetricsSnapshot) -> u64 {
    w.commits.saturating_sub(w.snapshot_txns)
}

/// Online rule engine; feed windows in order with [`StallDetector::observe`].
#[derive(Clone, Debug)]
pub struct StallDetector {
    cfg: StallConfig,
    /// Trailing window ring, newest last.
    history: Vec<MetricsSnapshot>,
    seen: usize,
    /// Alerts fired on windows without a commit, held until a later
    /// window commits.
    held: Vec<Alert>,
}

impl StallDetector {
    /// Detector with the given thresholds.
    pub fn new(cfg: StallConfig) -> Self {
        StallDetector {
            cfg,
            history: Vec::with_capacity(cfg.trailing_windows),
            seen: 0,
            held: Vec::new(),
        }
    }

    fn mean(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
        if self.history.is_empty() {
            return 0.0;
        }
        self.history.iter().map(|w| f(w) as f64).sum::<f64>() / self.history.len() as f64
    }

    /// Evaluates one window's delta against the trailing baseline and
    /// rolls the baseline forward. Returns every alert released by this
    /// window (possibly none): its own firings, after those held on
    /// earlier windows without a commit — or nothing, holding its own
    /// firings, if this window has no commit either.
    pub fn observe(&mut self, index: u64, stats: &MetricsSnapshot) -> Vec<Alert> {
        let mut alerts = Vec::new();
        if self.seen >= self.cfg.warmup_windows {
            let mean_commits = self.mean(|w| w.commits);
            let mean_aborts = self.mean(|w| w.aborts);
            let mean_updates = self.mean(update_commits);
            let mean_snap_reads = self.mean(|w| w.snapshot_reads);

            if mean_commits >= self.cfg.min_mean_commits
                && (stats.commits as f64) < self.cfg.collapse_factor * mean_commits
            {
                alerts.push(Alert {
                    window: index,
                    rule: StallRule::ThroughputCollapse,
                    value: stats.commits as f64,
                    baseline: mean_commits,
                });
            }
            if stats.aborts >= self.cfg.min_spike_aborts
                && stats.aborts as f64 > self.cfg.abort_spike_factor * mean_aborts.max(1.0)
            {
                alerts.push(Alert {
                    window: index,
                    rule: StallRule::AbortSpike,
                    value: stats.aborts as f64,
                    baseline: mean_aborts,
                });
            }
            if mean_updates >= self.cfg.min_mean_updates
                && (update_commits(stats) as f64) < self.cfg.starvation_factor * mean_updates
                && stats.snapshot_reads as f64 >= 0.5 * mean_snap_reads
                && stats.snapshot_reads > 0
            {
                alerts.push(Alert {
                    window: index,
                    rule: StallRule::WriterStarvation,
                    value: update_commits(stats) as f64,
                    baseline: mean_updates,
                });
            }
        }
        self.seen += 1;
        if self.history.len() == self.cfg.trailing_windows {
            self.history.remove(0);
        }
        self.history.push(*stats);
        if stats.commits == 0 {
            self.held.append(&mut alerts);
            return alerts;
        }
        let mut released = std::mem::take(&mut self.held);
        released.append(&mut alerts);
        released
    }

    /// Runs a whole fixture through a fresh detector, collecting every
    /// released alert.
    pub fn scan(cfg: StallConfig, series: &[MetricsSnapshot]) -> Vec<Alert> {
        let mut det = StallDetector::new(cfg);
        series.iter().enumerate().flat_map(|(i, s)| det.observe(i as u64, s)).collect()
    }
}

/// A fixture window: only the figures the rules read are set.
fn window(commits: u64, aborts: u64, snapshot_txns: u64, snapshot_reads: u64) -> MetricsSnapshot {
    MetricsSnapshot { commits, aborts, snapshot_txns, snapshot_reads, ..MetricsSnapshot::default() }
}

/// The PR 6 pre-fix writer-starvation collapse, reduced to per-window
/// figures (250 ms windows at the 16-thread read-heavy hotspot): ~70k
/// txn/s while healthy, then update commits collapse to the 2–30k txn/s
/// bimodal floor while the snapshot lane keeps streaming reads. The
/// detector must fire [`StallRule::ThroughputCollapse`] *and*
/// [`StallRule::WriterStarvation`] on this series.
pub fn writer_starvation_fixture() -> Vec<MetricsSnapshot> {
    let healthy = |i: u64| {
        window(
            17_500 + (i % 3) * 400,
            210 + (i % 5) * 22,
            8_600 + (i % 4) * 120,
            34_400 + (i % 4) * 480,
        )
    };
    // Starvation onset: the snapshot lane still streams at full rate
    // while the update lane flatlines.
    let starved = |i: u64| {
        window(
            9_000 + (i % 3) * 90,
            260 + (i % 4) * 18,
            8_700 + (i % 4) * 110,
            34_800 + (i % 3) * 390,
        )
    };
    // Full bimodal floor: the whole system drops to the 2–30k txn/s
    // band (≈1.5k per 250 ms window at the bottom).
    let collapsed = |i: u64| {
        window(
            1_400 + (i % 3) * 60,
            240 + (i % 4) * 16,
            1_100 + (i % 3) * 40,
            4_400 + (i % 3) * 160,
        )
    };
    (0..10).map(healthy).chain((10..13).map(starved)).chain((13..16).map(collapsed)).collect()
}

/// Four consecutive healthy 16-thread read-heavy runs' worth of windows:
/// saturated throughput with ordinary noise. The detector must stay
/// silent on this series.
pub fn healthy_fixture() -> Vec<MetricsSnapshot> {
    (0..64u64)
        .map(|i| {
            window(
                17_000 + (i * 467 % 1_900),
                180 + (i * 83 % 120),
                8_400 + (i * 211 % 700),
                33_600 + (i * 661 % 2_600),
            )
        })
        .collect()
}

/// Sixteen healthy windows, then one without a commit: the workload
/// drained and a window closed before the sampler stopped (the exp17
/// tail flake). The detector must stay silent on this series — and fire
/// [`StallRule::ThroughputCollapse`] on the empty window once a later
/// window commits again.
pub fn drained_tail_fixture() -> Vec<MetricsSnapshot> {
    let mut series = healthy_fixture();
    series.truncate(16);
    series.push(MetricsSnapshot::default());
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_the_pr6_collapse_fixture() {
        let alerts = StallDetector::scan(StallConfig::default(), &writer_starvation_fixture());
        assert!(
            alerts.iter().any(|a| a.rule == StallRule::WriterStarvation),
            "starvation rule must fire on the PR 6 signature: {alerts:?}"
        );
        assert!(
            alerts.iter().any(|a| a.rule == StallRule::ThroughputCollapse),
            "collapse rule must fire on the bimodal floor: {alerts:?}"
        );
        assert!(
            alerts.iter().all(|a| a.window >= 10),
            "no rule may fire during the healthy prefix: {alerts:?}"
        );
    }

    #[test]
    fn silent_on_healthy_runs() {
        for series in [healthy_fixture(), drained_tail_fixture()] {
            let alerts = StallDetector::scan(StallConfig::default(), &series);
            assert!(alerts.is_empty(), "a healthy run must not alert: {alerts:?}");
        }
    }

    #[test]
    fn collapse_fires_on_throughput_cliff() {
        let mut series: Vec<MetricsSnapshot> = (0..8).map(|_| window(10_000, 0, 0, 0)).collect();
        series.push(window(800, 0, 0, 0));
        let alerts = StallDetector::scan(StallConfig::default(), &series);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, StallRule::ThroughputCollapse);
        assert_eq!(alerts[0].window, 8);
        assert_eq!(alerts[0].value, 800.0);
        assert_eq!(alerts[0].baseline, 10_000.0);
    }

    #[test]
    fn abort_spike_fires_before_throughput_dips() {
        let mut series: Vec<MetricsSnapshot> = (0..8).map(|_| window(10_000, 40, 0, 0)).collect();
        series.push(window(9_500, 2_000, 0, 0));
        let alerts = StallDetector::scan(StallConfig::default(), &series);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, StallRule::AbortSpike);
    }

    #[test]
    fn idle_engine_never_alerts() {
        let series = vec![MetricsSnapshot::default(); 32];
        assert!(StallDetector::scan(StallConfig::default(), &series).is_empty());
    }

    #[test]
    fn warmup_suppresses_early_windows() {
        // A cliff inside the warmup period is not judged.
        let series = vec![window(10_000, 0, 0, 0), window(100, 0, 0, 0)];
        assert!(StallDetector::scan(StallConfig::default(), &series).is_empty());
    }

    #[test]
    fn an_empty_window_fires_once_commits_resume() {
        let mut series = drained_tail_fixture();
        series.push(healthy_fixture()[16]);
        let alerts = StallDetector::scan(StallConfig::default(), &series);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].rule, StallRule::ThroughputCollapse);
        assert_eq!(alerts[0].window, 16);
        assert_eq!(alerts[0].value, 0.0);
    }
}
