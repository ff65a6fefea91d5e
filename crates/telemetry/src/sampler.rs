//! The sampler thread: periodic cumulative-snapshot capture, delta
//! windowing, and online stall detection against a live [`Database`].
//!
//! One background thread wakes every `interval`, samples
//! [`Database::metrics`] (a handful of relaxed loads plus the gauge
//! scans), subtracts the previous sample into a [`Window`], and feeds the
//! window to the stall detector; firings go back into the engine's
//! decision trace as `telemetry_alert` events. The engine's hot path is
//! untouched — worker threads never synchronize with the sampler beyond
//! the relaxed counter loads they already do.
//!
//! [`Sampler::stop`] closes one final partial window *after* the caller
//! has joined its workers, so baseline + Σ window deltas equals the final
//! cumulative snapshot exactly (see [`TimeSeries::verify_sum`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdts_engine::{Database, MetricsSnapshot};

use crate::stall::StallDetector;
use crate::window::{TimeSeries, Window};

/// Sampler parameters.
#[derive(Clone, Debug)]
pub struct SamplerConfig {
    /// Sampling interval (window length).
    pub interval: Duration,
    /// Experiment name stamped on the header line.
    pub experiment: String,
    /// Free-form run label (protocol, thread count, …).
    pub label: String,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: Duration::from_millis(250),
            experiment: String::new(),
            label: String::new(),
        }
    }
}

/// A running sampler; [`Sampler::stop`] joins the thread and returns the
/// completed [`TimeSeries`].
pub struct Sampler {
    stop: Arc<AtomicBool>,
    /// Interruptible sleep: `stop` sends one unit so a long interval
    /// never delays shutdown.
    wake_tx: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<TimeSeries>,
}

impl Sampler {
    /// Starts sampling `db` on a background thread. The database handle
    /// is cloned (cheap: it is an `Arc` internally). The baseline is taken
    /// here, on the caller's thread, so work the caller starts after this
    /// returns falls inside the windows however late the sampler thread
    /// is first scheduled.
    pub fn start<V: Clone + Send + Sync + 'static>(
        db: &Database<V>,
        cfg: SamplerConfig,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let db = db.clone();
        let (t0, baseline) = (Instant::now(), db.metrics());
        let (wake_tx, wake_rx) = mpsc::channel::<()>();
        let handle = std::thread::Builder::new()
            .name("mdts-telemetry".into())
            .spawn(move || sample_loop(&db, cfg, t0, baseline, &flag, &wake_rx))
            .expect("spawn telemetry sampler");
        Sampler { stop, wake_tx, handle }
    }

    /// Stops sampling, closes the final partial window, and returns the
    /// series. Call after joining the workload's workers so the final
    /// window captures everything.
    pub fn stop(self) -> TimeSeries {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.wake_tx.send(());
        self.handle.join().expect("telemetry sampler panicked")
    }
}

fn sample_loop<V: Clone + Send + Sync + 'static>(
    db: &Database<V>,
    cfg: SamplerConfig,
    t0: Instant,
    baseline: MetricsSnapshot,
    stop: &AtomicBool,
    wake: &mpsc::Receiver<()>,
) -> TimeSeries {
    let mut detector = StallDetector::new();
    let mut series = TimeSeries {
        experiment: cfg.experiment,
        label: cfg.label,
        interval_ms: cfg.interval.as_millis() as u64,
        baseline,
        windows: Vec::new(),
        alerts: Vec::new(),
        final_snapshot: baseline,
    };
    let mut prev = baseline;
    let mut prev_ms = 0u64;
    loop {
        let mut done = stop.load(Ordering::SeqCst);
        if !done {
            // Returns on timeout (a normal tick) or on the stop signal.
            let _ = wake.recv_timeout(cfg.interval);
            done = stop.load(Ordering::SeqCst);
        }
        let now_ms = t0.elapsed().as_millis() as u64;
        // When `done`, this sample happens after `stop()` was called —
        // i.e. after the caller joined its workers — so it is the final
        // cumulative state, and the last window closes exactly on it.
        let cur = db.metrics();
        let window = Window {
            index: series.windows.len() as u64,
            t_start_ms: prev_ms,
            t_end_ms: now_ms.max(prev_ms + 1),
            delta: cur.delta(&prev),
        };
        // The final window (after `stop()`) is a partial shutdown window
        // — the workload has already drained, so its low counts are not a
        // stall. It closes the recomposition sum but is never judged.
        if !done {
            for alert in detector.observe(window.index, &window.delta) {
                db.emit_telemetry_alert(alert.window, alert.rule, alert.value, alert.baseline);
                series.alerts.push(alert);
            }
        }
        prev_ms = window.t_end_ms;
        prev = cur;
        series.windows.push(window);
        if done {
            series.final_snapshot = cur;
            return series;
        }
    }
}
