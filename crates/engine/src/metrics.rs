//! Engine metrics: lock-free counters, commit-latency and blocked-wait
//! histograms, per-phase wall-time spans, point-in-time subsystem gauges,
//! and a per-store-shard access breakdown — sampled into snapshots,
//! subtractable into per-window deltas for the telemetry layer, and
//! exportable as an `mdts-trace` [`MetricsRegistry`] (the experiment
//! binaries' `--json` document). Every counter and gauge is declared
//! once, as a row of the `metrics_table!` invocation below; the
//! snapshot, its arithmetic and both documents are generated from it.
//!
//! Everything a transaction writes here — the counters, the logical
//! clock, the histograms' buckets — is a per-thread cell
//! ([`mdts_vector::Striped`]), `Relaxed` and summed on read: two clients
//! that never conflict write no common cache line on account of being
//! counted.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use mdts_core::BATCH_SIZE_BUCKETS;
use mdts_storage::{MvStoreStats, MV_CHAIN_LEN_BUCKETS};
use mdts_trace::{HistogramExport, Json, MetricsRegistry};
use mdts_vector::Striped;

/// Number of per-shard access counters (accesses are striped by store
/// shard index modulo this, matching the store's default shard count).
pub const SHARD_SLOTS: usize = 64;

/// `N` zeroed `Relaxed` counters (arrays this long have no `Default`).
#[derive(Debug)]
pub(crate) struct Counters<const N: usize>([AtomicU64; N]);

impl<const N: usize> Default for Counters<N> {
    fn default() -> Self {
        Counters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// Declares the engine's metrics table (invoked once, below). A counter
/// row is `cell NAME` — a per-thread `Relaxed` cell of [`MetricCells`],
/// summed at snapshot time — or `sampled NAME`, a cumulative figure the
/// database reads from the protocol's `sample` hook or the write-ahead
/// log. A gauge row is `NAME: TYPE [= SOURCE] => BREAKDOWN.KEY`: a level
/// (a `u64`, or power-of-two buckets whose registry keys append `2^b` to
/// `KEY`), filed under `BREAKDOWN` in `mdts-metrics/v1` and under `NAME`
/// in the `mdts-timeseries/v1` window; `SOURCE` is what `apply_mv` copies
/// from the MV store's stats. `frozen` fields stay outside the table.
/// Everything that lists the counters or gauges is generated here, so a
/// new one is one row plus the line that bumps (or samples) it.
macro_rules! metrics_table {
    (
        counters { $( $(#[doc = $cdoc:literal])* $kind:ident $counter:ident, )* }
        gauges($mv:ident) {
            $( $(#[doc = $gdoc:literal])* $gauge:ident: $gty:ty $(= $src:expr)? => $bd:ident.$key:ident, )*
        }
        frozen { $($frozen:tt)* }
    ) => {
        metric_cells!([] $( $(#[doc = $cdoc])* $kind $counter, )*);

        /// Every counter's key, in document order: the `counters` object
        /// of both documents, and what `timeseries_check` requires on
        /// every window and trailer line.
        pub const COUNTER_KEYS: &[&str] = &[$( stringify!($counter), )*];

        const COUNTERS: usize = COUNTER_KEYS.len();

        const GAUGES: usize = [$( stringify!($gauge), )*].len();

        /// A point-in-time (or, via [`MetricsSnapshot::delta`], per-window)
        /// view of the engine counters.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $cdoc])* pub $counter: u64, )*
            /// Commit latency, in logical ticks.
            pub latency: LatencySnapshot,
            /// Blocked-wait durations, in logical ticks.
            pub block_wait: LatencySnapshot,
            /// Granted accesses per store shard (index modulo [`SHARD_SLOTS`]).
            pub shard_accesses: [u64; SHARD_SLOTS],
            /// Wall-time phase spans (all-zero unless phase timing was enabled).
            pub phases: PhaseSnapshot,
            /// Subsystem gauges (levels at sample time, not cumulative totals;
            /// [`MetricsSnapshot::delta`] carries them through unchanged).
            pub gauges: EngineGauges,
        }

        impl Default for MetricsSnapshot {
            fn default() -> Self {
                MetricsSnapshot {
                    $( $counter: 0, )*
                    latency: LatencySnapshot::default(),
                    block_wait: LatencySnapshot::default(),
                    shard_accesses: [0; SHARD_SLOTS],
                    phases: PhaseSnapshot::default(),
                    gauges: EngineGauges::default(),
                }
            }
        }

        impl Metrics {
            /// The cell counters and histograms, summed over the stripes;
            /// sampled counters and gauges are left 0 for the database to
            /// fill.
            pub(crate) fn snapshot(&self) -> MetricsSnapshot {
                let sum = |f: &dyn Fn(&MetricCells) -> &AtomicU64| {
                    self.cells.sum(|c| f(c).load(Ordering::Relaxed))
                };
                let histogram = |f: fn(&MetricCells) -> &LatencyHistogram| {
                    LatencySnapshot::from_buckets(std::array::from_fn(|b| {
                        sum(&|c| &f(c).buckets.0[b])
                    }))
                };
                MetricsSnapshot {
                    $( $counter: cell_sum!($kind, sum, $counter), )*
                    latency: histogram(|c| &c.latency),
                    block_wait: histogram(|c| &c.block_wait_ticks),
                    shard_accesses: std::array::from_fn(|i| sum(&|c| &c.shard_accesses.0[i])),
                    phases: self.phases.snapshot(),
                    gauges: EngineGauges::default(),
                }
            }
        }

        impl MetricsSnapshot {
            /// Every counter as `(key, value)`, in document order.
            pub fn counters(&self) -> [(&'static str, u64); COUNTERS] {
                [$( (stringify!($counter), self.$counter), )*]
            }

            /// Every counter, mutably, in document order.
            pub fn counters_mut(&mut self) -> [&mut u64; COUNTERS] {
                [$( &mut self.$counter, )*]
            }
        }

        /// Point-in-time gauges for the subsystems behind the counters: the
        /// MV store's chains and GC, the scheduler's row table, the batched
        /// compare path and the write-ahead log. Gauges are *levels*, not
        /// totals — a windowed sampler reports them as-is rather than
        /// subtracting.
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
        pub struct EngineGauges {
            $( $(#[doc = $gdoc])* pub $gauge: $gty, )*
            $($frozen)*
        }

        impl EngineGauges {
            /// Folds an MV-store stats sample into the MV gauge fields.
            pub fn apply_mv(&mut self, $mv: &MvStoreStats) {
                $( $( self.$gauge = $src; )? )*
            }

            /// Every table gauge as `(field, breakdown, key, level)`, in
            /// table order.
            fn rows(&self) -> [(&'static str, &'static str, &'static str, &dyn Level); GAUGES] {
                [$( (stringify!($gauge), stringify!($bd), stringify!($key), &self.$gauge), )*]
            }
        }
    };
}

/// Emits [`MetricCells`]: one `AtomicU64` per `cell` row of the table, in
/// table order, then the clock, the histograms and the shard counters.
macro_rules! metric_cells {
    ([$($field:tt)*]) => {
        /// One thread's share of the engine counters (one stripe of
        /// [`Metrics`]): every field is written by the transactions running
        /// on that thread and read only by a sampler.
        #[derive(Debug, Default)]
        pub(crate) struct MetricCells {
            $($field)*
            /// This thread's share of the logical clock (see [`Metrics::now`]).
            clock: AtomicU64,
            pub latency: LatencyHistogram,
            /// Blocked-wait *durations* in logical ticks (one sample per
            /// `blocked_waits` event), not just the event count.
            pub block_wait_ticks: LatencyHistogram,
            /// Granted accesses per store shard (reads at fetch, writes at apply).
            shard_accesses: Counters<SHARD_SLOTS>,
        }
    };
    ([$($field:tt)*] $(#[$doc:meta])* cell $name:ident, $($rest:tt)*) => {
        metric_cells!([$($field)* $(#[$doc])* pub $name: AtomicU64,] $($rest)*);
    };
    ([$($field:tt)*] $(#[$doc:meta])* sampled $name:ident, $($rest:tt)*) => {
        metric_cells!([$($field)*] $($rest)*);
    };
}

/// A counter's value in [`Metrics::snapshot`]: its cells summed, or 0 for
/// a sampled counter (the database fills it from its source).
macro_rules! cell_sum {
    (cell, $sum:ident, $name:ident) => {
        $sum(&|c| &c.$name)
    };
    (sampled, $sum:ident, $name:ident) => {
        0
    };
}

metrics_table! {
    counters {
        /// Committed transactions.
        cell commits,
        /// Aborted transaction incarnations (each restart counts its abort).
        cell aborts,
        /// Restarts performed by `Database::run`'s retry loop.
        cell restarts,
        /// Read accesses granted.
        cell reads,
        /// Write accesses granted.
        cell writes,
        /// Writes dropped by the Thomas rule.
        cell ignored_writes,
        /// Times a transaction had to wait for a lock.
        cell blocked_waits,
        /// Aborts from a rejected read/write access.
        cell access_aborts,
        /// Aborts from a failed commit validation (deferred writes).
        cell validation_aborts,
        /// Aborts caused by a composite abort-all epoch.
        cell epoch_aborts,
        /// Transactions that exhausted their restart budget.
        cell gave_up,
        /// Read-only snapshot transactions served by the multiversion path
        /// (they never abort, restart or block, so they appear in no other
        /// abort/restart counter).
        cell snapshot_txns,
        /// Item reads served from version chains by snapshot transactions.
        cell snapshot_reads,
        /// Comparisons served by the protocol's write-once order cache
        /// (0 for protocols without one).
        sampled order_cache_hits,
        /// Comparisons that missed the order cache and walked the vectors.
        sampled order_cache_misses,
        /// Candidate vectors compared through the batched SIMD one-vs-many
        /// path (MV chain scans).
        sampled batched_compares,
        /// Commit records framed into the write-ahead log (0 without
        /// durability).
        sampled wal_commits,
        /// Group-commit epochs fsynced.
        sampled wal_fsyncs,
        /// Bytes fsynced into the write-ahead log.
        sampled wal_bytes,
        /// Transactions applied in memory whose durability acknowledgement
        /// never arrived (the WAL halted mid-wait): reported as
        /// `TxError::DurabilityUnknown`, never retried.
        cell wal_unacked,
    }
    gauges(mv) {
        /// Non-empty MV version chains.
        mv_chains: u64 = mv.chains => mv_store.chains,
        /// Total MV versions currently kept.
        mv_versions: u64 = mv.versions => mv_store.versions,
        /// Longest MV chain.
        mv_max_chain: u64 = mv.max_chain => mv_store.max_chain,
        /// MV chain counts by power-of-two length bucket.
        mv_chain_len_buckets: [u64; MV_CHAIN_LEN_BUCKETS] = mv.chain_len_buckets
            => mv_chain_lengths.le_,
        /// MV install ticket frontier.
        mv_install_seq: u64 = mv.install_seq => mv_store.install_seq,
        /// How far the GC watermark trails the install frontier.
        mv_watermark_lag: u64 = mv.watermark_lag() => mv_store.watermark_lag,
        /// Occupied MV snapshot-registry slots.
        mv_active_snapshots: u64 = mv.active_snapshots => mv_store.active_snapshots,
        /// Cumulative MV versions reclaimed by pruning.
        mv_pruned: u64 = mv.pruned => mv_store.pruned,
        /// Live timestamp-vector rows in the scheduler (including `T₀`).
        sched_live_rows: u64 => scheduler.live_rows,
        /// Id-index chunks of the scheduler's row table (they grow with the
        /// ids issued, 4 bytes per id).
        sched_row_chunks: u64 => scheduler.row_chunks,
        /// Row slots the scheduler's row arena has built: the most rows ever
        /// live at once.
        sched_row_slots: u64 => scheduler.row_slots,
        /// Order-cache epoch flushes (cumulative invalidation count); live
        /// for as long as the MT(k) schedulers keep their order cache.
        order_cache_epoch_flushes: u64 => scheduler.order_cache_epoch_flushes,
        /// Batched SIMD compares issued on the MV chain-walk path.
        batched_chain_batches: u64 => batched_compare.chain_batches,
        /// Batch-size distribution by power-of-two bucket (`le_1`, `le_2`,
        /// `le_4`, …; the last bucket absorbs everything larger).
        batched_size_buckets: [u64; BATCH_SIZE_BUCKETS] => batched_compare.size_le_,
        /// Highest WAL epoch fsynced so far (0 without durability).
        wal_durable_epoch: u64 => wal.durable_epoch,
        /// Bytes framed into the open WAL epoch but not yet fsynced.
        wal_pending_bytes: u64 => wal.pending_bytes,
        /// WAL checkpoint frames written by the daemon (cumulative; 0 with
        /// checkpointing off).
        wal_checkpoints: u64 => wal.checkpoints,
        /// WAL prefix truncations performed after those checkpoints.
        wal_truncations: u64 => wal.truncations,
    }
    frozen {
        /// Always 0: the prewarm probe that issued these batches is gone.
        /// Kept only for the frozen benchmark harness, which reads it.
        pub batched_probe_batches: u64,
        /// Always 0: the batched admission queue these four counted is gone
        /// (admission is one id `fetch_add` and a scheduler `begin` on the
        /// caller's thread). Kept only for the frozen benchmark harness,
        /// whose `admission.*` metrics are the count gate that it is gone.
        pub admit_batches: u64,
        /// Always 0 (see `admit_batches`).
        pub admit_batched_txns: u64,
        /// Always 0 (see `admit_batches`).
        pub admit_parked: u64,
        /// Always 0 (see `admit_batches`).
        pub admit_prewarm_pairs: u64,
    }
}

// A stripe is its 14 cell counters, the clock and three 64-slot blocks,
// unpadded: 1,656 bytes. A new `cell` row moves this by 8.
const _: () = assert!(std::mem::size_of::<MetricCells>() == 1656);

impl MetricCells {
    pub(crate) fn bump_shard(&self, shard: usize) {
        self.shard_accesses.0[shard % SHARD_SLOTS].fetch_add(1, Ordering::Relaxed);
    }

    /// Advances the logical clock by one tick.
    pub(crate) fn tick(&self) {
        self.clock.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared counters, updated by all client threads — each through its own
/// stripe of cells.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    cells: Striped<MetricCells>,
    /// Wall-time phase spans (zero-cost until enabled).
    pub phases: PhaseTimers,
}

impl Metrics {
    /// Counters whose logical clock starts at `clock` (a recovered
    /// database resumes from its log's last sequence number).
    pub(crate) fn starting_at(clock: u64) -> Self {
        let metrics = Metrics::default();
        metrics.cells().clock.store(clock, Ordering::Relaxed);
        metrics
    }

    /// The calling thread's cells.
    #[inline]
    pub(crate) fn cells(&self) -> &MetricCells {
        self.cells.mine()
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The logical clock: one tick per granted access and per applied
    /// commit, engine-wide. Commit latency is measured in these ticks
    /// (deterministic per interleaving, no wall clock). Each thread ticks
    /// its own cell, so a reading is a sum over the stripes — monotone,
    /// and exact whenever no other thread is mid-tick.
    pub(crate) fn now(&self) -> u64 {
        self.cells.sum(|c| c.clock.load(Ordering::Relaxed))
    }
}

/// Number of phases in the span taxonomy.
pub const PHASE_COUNT: usize = 6;

/// Where a transaction's wall time goes (DESIGN.md §6). Each phase has
/// its own nanosecond histogram and striped running total.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Scheduler admission: `begin`/`begin_at_least` through grant.
    Admission = 0,
    /// Blocked in `WakeSeq::wait_past` behind an uncommitted writer.
    BlockWait = 1,
    /// Version-chain walk in the snapshot read path.
    ChainWalk = 2,
    /// Restart backoff sleep between incarnations.
    Backoff = 3,
    /// Commit critical section (validation, apply, stamp, wake).
    Commit = 4,
    /// Parked after the in-memory commit, waiting for the group-commit
    /// daemon to fsync this transaction's epoch (durable databases only).
    FsyncWait = 5,
}

impl Phase {
    /// All phases, in index order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Admission,
        Phase::BlockWait,
        Phase::ChainWalk,
        Phase::Backoff,
        Phase::Commit,
        Phase::FsyncWait,
    ];

    /// Stable schema name (`phase_<name>_ns` in exports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::BlockWait => "block_wait",
            Phase::ChainWalk => "chain_walk",
            Phase::Backoff => "backoff",
            Phase::Commit => "commit",
            Phase::FsyncWait => "fsync_wait",
        }
    }
}

/// Lock-free wall-time phase spans. Always compiled in; when disabled
/// (the default) [`PhaseTimers::start`] returns `None` without reading
/// the clock, so the hot path pays one relaxed load per span. Recording
/// is a handful of relaxed `fetch_add`s into striped cells and a
/// fixed-size histogram — no locks, no allocation.
#[derive(Debug, Default)]
pub struct PhaseTimers {
    enabled: AtomicBool,
    /// Running total nanoseconds per phase, one cell block per thread.
    total_ns: Striped<[AtomicU64; PHASE_COUNT]>,
    /// Span-duration histograms, in nanoseconds.
    spans: [LatencyHistogram; PHASE_COUNT],
}

impl PhaseTimers {
    /// Turns span timing on or off (off by default).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span: the clock is read only when timing is enabled.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a span opened by [`Self::start`]; a `None` start (timing
    /// disabled) is a no-op.
    #[inline]
    pub fn record_since(&self, phase: Phase, start: Option<Instant>) {
        if let Some(t0) = start {
            self.record_ns(phase, u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Records a span duration directly (testing and replay).
    pub fn record_ns(&self, phase: Phase, ns: u64) {
        let p = phase as usize;
        self.total_ns.mine()[p].fetch_add(ns, Ordering::Relaxed);
        self.spans[p].record(ns);
    }

    /// Point-in-time view: per-phase totals and span histograms.
    pub fn snapshot(&self) -> PhaseSnapshot {
        let mut out = PhaseSnapshot { enabled: self.enabled(), ..PhaseSnapshot::default() };
        for p in 0..PHASE_COUNT {
            out.total_ns[p] = self.total_ns.sum(|c| c[p].load(Ordering::Relaxed));
            out.spans[p] = self.spans[p].snapshot();
        }
        out
    }
}

/// A point-in-time (or, via [`MetricsSnapshot::delta`], per-window) view
/// of the phase timers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhaseSnapshot {
    /// Whether timing was enabled when sampled.
    pub enabled: bool,
    /// Total nanoseconds per phase (index = `Phase as usize`).
    pub total_ns: [u64; PHASE_COUNT],
    /// Span-duration histograms per phase, in nanoseconds.
    pub spans: [LatencySnapshot; PHASE_COUNT],
}

impl PhaseSnapshot {
    /// The spans recorded since `prev` (totals and buckets subtract;
    /// `enabled` reflects the newer snapshot).
    pub fn delta(&self, prev: &PhaseSnapshot) -> PhaseSnapshot {
        let mut out = PhaseSnapshot { enabled: self.enabled, ..PhaseSnapshot::default() };
        for p in 0..PHASE_COUNT {
            out.total_ns[p] = self.total_ns[p].saturating_sub(prev.total_ns[p]);
            out.spans[p] = self.spans[p].diff(&prev.spans[p]);
        }
        out
    }

    /// Adds a window's [`delta`](Self::delta) on top (totals and buckets
    /// add; `enabled` comes from `window`).
    pub fn accumulate(&mut self, window: &PhaseSnapshot) {
        for p in 0..PHASE_COUNT {
            self.total_ns[p] += window.total_ns[p];
            self.spans[p] = self.spans[p].merge(&window.spans[p]);
        }
        self.enabled = window.enabled;
    }
}

/// A gauge's value in the documents: a scalar, or power-of-two buckets.
trait Level {
    /// The window document's JSON value.
    fn json(&self) -> Json;
    /// The registry entries under `key`; buckets append `2^b` to it.
    fn entries(&self, key: &str, out: &mut Vec<(String, u64)>);
}

impl Level for u64 {
    fn json(&self) -> Json {
        Json::U64(*self)
    }

    fn entries(&self, key: &str, out: &mut Vec<(String, u64)>) {
        out.push((key.to_string(), *self));
    }
}

impl<const N: usize> Level for [u64; N] {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(|&n| Json::U64(n)).collect())
    }

    fn entries(&self, key: &str, out: &mut Vec<(String, u64)>) {
        out.extend(self.iter().enumerate().map(|(b, &n)| (format!("{key}{}", 1u64 << b), n)));
    }
}

impl EngineGauges {
    /// The `gauges` object of an `mdts-timeseries/v1` window: every table
    /// gauge under its field name.
    pub fn to_json(&self) -> Json {
        Json::obj(self.rows().iter().map(|&(field, _, _, level)| (field, level.json())).collect())
    }

    /// The `mdts-metrics/v1` gauge breakdowns: every table gauge under its
    /// key, grouped by breakdown in order of first appearance.
    fn breakdowns(&self) -> Vec<(&'static str, Vec<(String, u64)>)> {
        let mut out: Vec<(&'static str, Vec<(String, u64)>)> = Vec::new();
        for (_, breakdown, key, level) in self.rows() {
            let at = out.iter().position(|&(b, _)| b == breakdown).unwrap_or_else(|| {
                out.push((breakdown, Vec::new()));
                out.len() - 1
            });
            level.entries(key, &mut out[at].1);
        }
        out
    }
}

/// Number of latency buckets (powers of two).
pub const LATENCY_BUCKETS: usize = 64;

/// Commit-latency histogram over *logical ticks* — the engine-wide count
/// of scheduled accesses, not wall-clock time, so the figures are
/// deterministic per interleaving and immune to machine noise. A
/// transaction's latency is the number of ticks between its first
/// incarnation's begin and its commit; restarts therefore lengthen it,
/// which is exactly the starvation behaviour worth measuring.
///
/// Buckets are powers of two (bucket `b` holds latencies in
/// `[2^(b-1), 2^b)`), recorded with one relaxed `fetch_add` — no lock on
/// the commit path.
#[derive(Debug, Default)]
pub(crate) struct LatencyHistogram {
    buckets: Counters<LATENCY_BUCKETS>,
}

impl LatencyHistogram {
    pub(crate) fn record(&self, ticks: u64) {
        let idx = (u64::BITS - ticks.leading_zeros()) as usize;
        self.buckets.0[idx.min(LATENCY_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> LatencySnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets.0) {
            *out = b.load(Ordering::Relaxed);
        }
        LatencySnapshot::from_buckets(buckets)
    }
}

/// Commit-latency figures in logical ticks: the full power-of-two bucket
/// counts plus the headline quantiles (each figure is its bucket's upper
/// bound).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencySnapshot {
    /// Number of recorded commits.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Raw bucket counts; bucket `b` holds latencies in `[2^(b-1), 2^b)`
    /// (bucket 0: latency 0; the last bucket also absorbs saturation).
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        LatencySnapshot { count: 0, p50: 0, p95: 0, p99: 0, buckets: [0; LATENCY_BUCKETS] }
    }
}

impl LatencySnapshot {
    /// Builds a snapshot (count and headline quantiles) from raw bucket
    /// counts. An all-zero input yields `LatencySnapshot::default()` —
    /// every quantile 0 — by an explicit guard, not by falling through
    /// the quantile scan.
    pub fn from_buckets(buckets: [u64; LATENCY_BUCKETS]) -> Self {
        let count: u64 = buckets.iter().sum();
        if count == 0 {
            return LatencySnapshot::default();
        }
        let mut s = LatencySnapshot { count, p50: 0, p95: 0, p99: 0, buckets };
        s.p50 = s.quantile(0.50);
        s.p95 = s.quantile(0.95);
        s.p99 = s.quantile(0.99);
        s
    }

    /// The samples recorded since `prev`: bucket-wise subtraction, with
    /// quantiles recomputed over the difference. Saturating, so a stale
    /// `prev` (racy reads across buckets) clamps at zero instead of
    /// wrapping.
    pub fn diff(&self, prev: &LatencySnapshot) -> LatencySnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (out, (&a, &b)) in buckets.iter_mut().zip(self.buckets.iter().zip(&prev.buckets)) {
            *out = a.saturating_sub(b);
        }
        LatencySnapshot::from_buckets(buckets)
    }

    /// The union of two sample sets: bucket-wise addition, with quantiles
    /// recomputed over the merge. Merging with an empty snapshot is the
    /// identity.
    pub fn merge(&self, other: &LatencySnapshot) -> LatencySnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (out, (&a, &b)) in buckets.iter_mut().zip(self.buckets.iter().zip(&other.buckets)) {
            *out = a.saturating_add(b);
        }
        LatencySnapshot::from_buckets(buckets)
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) as its bucket's upper bound: the
    /// smallest bucket bound below which at least `⌈q·count⌉` (at least
    /// one) samples fall. Returns 0 for an empty histogram; monotone
    /// non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank.max(1) {
                // Upper bound of bucket idx: latencies < 2^idx.
                return (1u64 << idx.min(63)) - 1;
            }
        }
        u64::MAX
    }
}

impl MetricsSnapshot {
    /// Aborts per commit — the abort-rate figure the experiments report.
    pub fn abort_rate(&self) -> f64 {
        if self.commits == 0 {
            return 0.0;
        }
        self.aborts as f64 / self.commits as f64
    }

    /// The activity between `prev` and `self`: every counter and histogram
    /// bucket subtracts (saturating); gauges, being levels, come through
    /// from `self` unchanged. This is the windowed-sampler primitive —
    /// summing consecutive deltas from a zero baseline reproduces the
    /// cumulative snapshot exactly (counters and buckets; quantiles are
    /// recomputed per window).
    pub fn delta(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot {
            latency: self.latency.diff(&prev.latency),
            block_wait: self.block_wait.diff(&prev.block_wait),
            shard_accesses: std::array::from_fn(|i| {
                self.shard_accesses[i].saturating_sub(prev.shard_accesses[i])
            }),
            phases: self.phases.delta(&prev.phases),
            ..*self
        };
        for (n, (_, p)) in out.counters_mut().into_iter().zip(prev.counters()) {
            *n = n.saturating_sub(p);
        }
        out
    }

    /// Adds a window's [`delta`](Self::delta) on top: counters and
    /// histogram buckets add; gauges and phase `enabled` come from
    /// `window` (levels, not totals).
    pub fn accumulate(&mut self, window: &MetricsSnapshot) {
        for (n, (_, d)) in self.counters_mut().into_iter().zip(window.counters()) {
            *n += d;
        }
        self.latency = self.latency.merge(&window.latency);
        self.block_wait = self.block_wait.merge(&window.block_wait);
        for (a, &b) in self.shard_accesses.iter_mut().zip(&window.shard_accesses) {
            *a += b;
        }
        self.phases.accumulate(&window.phases);
        self.gauges = window.gauges;
    }

    /// The `counters` object shared by the `mdts-timeseries/v1` window
    /// (deltas) and trailer (cumulative) lines.
    pub fn counters_json(&self) -> Json {
        Json::obj(self.counters().iter().map(|&(key, n)| (key, Json::U64(n))).collect())
    }

    /// Converts the snapshot into the serializable registry behind the
    /// experiment binaries' `--json` output: every counter, the full
    /// commit-latency histogram, and the per-shard access breakdown.
    pub fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for (key, n) in self.counters() {
            reg = reg.counter(key, n);
        }
        reg = reg
            .histogram(histogram_export("commit_latency_ticks".to_string(), &self.latency))
            .histogram(histogram_export("block_wait_ticks".to_string(), &self.block_wait));
        for (p, span) in Phase::ALL.iter().zip(&self.phases.spans) {
            reg = reg.histogram(histogram_export(format!("phase_{}_ns", p.name()), span));
        }
        reg = reg.breakdown(
            "abort_reasons",
            vec![
                ("access_rejected".to_string(), self.access_aborts),
                ("validation_rejected".to_string(), self.validation_aborts),
                ("epoch".to_string(), self.epoch_aborts),
            ],
        );
        reg = reg.breakdown(
            "phase_total_ns",
            Phase::ALL
                .iter()
                .zip(&self.phases.total_ns)
                .map(|(p, &ns)| (p.name().to_string(), ns))
                .collect(),
        );
        for (name, entries) in self.gauges.breakdowns() {
            reg = reg.breakdown(name, entries);
        }
        reg.breakdown(
            "shard_accesses",
            self.shard_accesses
                .iter()
                .enumerate()
                .map(|(i, &n)| (format!("shard{i}"), n))
                .collect(),
        )
    }

    /// The registry rendered as a JSON value.
    pub fn to_json(&self) -> Json {
        self.registry().to_json()
    }
}

/// A histogram's registry export: count, headline quantiles, buckets.
fn histogram_export(name: String, h: &LatencySnapshot) -> HistogramExport {
    HistogramExport {
        name,
        count: h.count,
        quantiles: vec![
            ("p50".to_string(), h.p50),
            ("p95".to_string(), h.p95),
            ("p99".to_string(), h.p99),
        ],
        buckets: h.buckets.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = LatencyHistogram::default();
        // 90 fast commits (≤ 4 ticks), 10 slow ones (~1000 ticks).
        for _ in 0..90 {
            h.record(3);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.p50 <= 7, "median in the fast band, got {}", s.p50);
        assert!(s.p95 >= 512, "p95 must reach the slow band, got {}", s.p95);
        assert!(s.p99 >= 512 && s.p99 <= 2047, "p99 brackets 1000, got {}", s.p99);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::default().snapshot();
        assert_eq!(s, LatencySnapshot::default());
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 0);
    }

    #[test]
    fn zero_and_one_land_in_low_buckets() {
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(1);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert!(s.p99 <= 1);
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let h = LatencyHistogram::default();
        h.record(5); // bucket 3: [4, 8), upper bound 7
        let s = h.snapshot();
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 7, "q = {q}");
        }
        assert_eq!((s.p50, s.p95, s.p99), (7, 7, 7));
    }

    #[test]
    fn bucket_boundary_splits_adjacent_powers() {
        // 2^b − 1 and 2^b land in adjacent buckets: 7 → [4,8), 8 → [8,16).
        let h = LatencyHistogram::default();
        h.record(7);
        h.record(8);
        let s = h.snapshot();
        assert_eq!(s.buckets[3], 1);
        assert_eq!(s.buckets[4], 1);
        assert_eq!(s.quantile(0.5), 7, "lower half reports the lower bucket");
        assert_eq!(s.quantile(1.0), 15, "upper tail reports the upper bucket");
    }

    #[test]
    fn saturating_sample_lands_in_the_last_bucket() {
        let h = LatencyHistogram::default();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(s.quantile(1.0), (1u64 << 63) - 1);
    }

    #[test]
    fn registry_carries_all_counters_and_buckets() {
        let mut snap = MetricsSnapshot { commits: 3, aborts: 1, ..MetricsSnapshot::default() };
        snap.shard_accesses[5] = 9;
        snap.gauges.mv_versions = 17;
        let reg = snap.registry();
        assert_eq!(reg.counter_value("commits"), Some(3));
        assert_eq!(reg.counter_value("aborts"), Some(1));
        assert_eq!(reg.counter_value("gave_up"), Some(0));
        let rendered = reg.to_json().render();
        assert!(rendered.contains("\"commit_latency_ticks\""), "{rendered}");
        assert!(rendered.contains("\"block_wait_ticks\""), "{rendered}");
        assert!(rendered.contains("\"phase_block_wait_ns\""), "{rendered}");
        assert!(rendered.contains("\"mv_store\""), "{rendered}");
        assert!(rendered.contains("\"versions\":17"), "{rendered}");
        assert!(rendered.contains("\"shard5\":9"), "{rendered}");
    }

    /// A snapshot with every field non-zero and no two counters equal, so
    /// a dropped, renamed or swapped key changes its rendering.
    pub(crate) fn full_snapshot() -> MetricsSnapshot {
        let hist =
            |seed: u64| LatencySnapshot::from_buckets(std::array::from_fn(|b| seed + b as u64 % 7));
        let mut s = MetricsSnapshot::default();
        for (i, n) in s.counters_mut().into_iter().enumerate() {
            *n = i as u64 + 1;
        }
        s.latency = hist(100);
        s.block_wait = hist(200);
        s.shard_accesses = std::array::from_fn(|i| 300 + i as u64);
        s.phases.enabled = true;
        s.phases.total_ns = std::array::from_fn(|p| 1_000 + p as u64);
        s.phases.spans = std::array::from_fn(|p| hist(400 + 10 * p as u64));
        let g = &mut s.gauges;
        g.mv_chains = 21;
        g.mv_versions = 22;
        g.mv_max_chain = 23;
        g.mv_chain_len_buckets = std::array::from_fn(|b| 500 + b as u64);
        g.mv_install_seq = 24;
        g.mv_watermark_lag = 25;
        g.mv_active_snapshots = 26;
        g.mv_pruned = 27;
        g.sched_live_rows = 28;
        g.sched_row_chunks = 29;
        g.sched_row_slots = 30;
        g.order_cache_epoch_flushes = 31;
        g.batched_probe_batches = 32;
        g.batched_chain_batches = 33;
        g.batched_size_buckets = std::array::from_fn(|b| 600 + b as u64);
        g.wal_durable_epoch = 34;
        g.wal_pending_bytes = 35;
        g.wal_checkpoints = 36;
        g.wal_truncations = 37;
        g.admit_batches = 38;
        g.admit_batched_txns = 39;
        g.admit_parked = 40;
        g.admit_prewarm_pairs = 41;
        s
    }

    /// The `mdts-metrics/v1` registry of [`full_snapshot`], byte for byte.
    #[test]
    fn registry_document_is_golden() {
        let rendered = full_snapshot().to_json().render();
        assert_eq!(rendered, include_str!("testdata/registry_golden.json").trim_end());
    }

    #[test]
    fn from_buckets_guards_empty_input_explicitly() {
        let s = LatencySnapshot::from_buckets([0; LATENCY_BUCKETS]);
        assert_eq!(s, LatencySnapshot::default());
        assert_eq!((s.count, s.p50, s.p95, s.p99), (0, 0, 0, 0));
    }

    #[test]
    fn empty_window_diff_is_default() {
        let h = LatencyHistogram::default();
        h.record(5);
        h.record(500);
        let s = h.snapshot();
        // A window in which nothing happened: diff with itself is the
        // explicit empty snapshot, and merging it back is the identity.
        assert_eq!(s.diff(&s), LatencySnapshot::default());
        assert_eq!(s.merge(&LatencySnapshot::default()), s);
        assert_eq!(LatencySnapshot::default().merge(&s), s);
    }

    #[test]
    fn single_bucket_window_diff_and_merge() {
        let h = LatencyHistogram::default();
        h.record(5); // bucket 3
        let before = h.snapshot();
        h.record(6); // same bucket
        let after = h.snapshot();
        let window = after.diff(&before);
        assert_eq!(window.count, 1);
        assert_eq!(window.buckets[3], 1);
        assert_eq!((window.p50, window.p99), (7, 7));
        assert_eq!(before.merge(&window), after);
    }

    #[test]
    fn phase_timers_are_inert_until_enabled() {
        let t = PhaseTimers::default();
        assert_eq!(t.start(), None, "disabled timers never read the clock");
        t.record_since(Phase::Commit, None);
        assert_eq!(t.snapshot(), PhaseSnapshot::default());

        t.set_enabled(true);
        let span = t.start();
        assert!(span.is_some());
        t.record_since(Phase::Commit, span);
        t.record_ns(Phase::Backoff, 1_000);
        let s = t.snapshot();
        assert!(s.enabled);
        assert_eq!(s.spans[Phase::Commit as usize].count, 1);
        assert_eq!(s.total_ns[Phase::Backoff as usize], 1_000);
        assert_eq!(s.spans[Phase::Admission as usize].count, 0);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_keeps_gauges() {
        let m = Metrics::default();
        let cells = m.cells();
        Metrics::bump(&cells.commits);
        Metrics::bump(&cells.commits);
        cells.latency.record(3);
        cells.block_wait_ticks.record(9);
        let prev = m.snapshot();
        Metrics::bump(&cells.commits);
        Metrics::bump(&cells.aborts);
        cells.latency.record(700);
        let mut cur = m.snapshot();
        cur.gauges.mv_versions = 5;
        let d = cur.delta(&prev);
        assert_eq!((d.commits, d.aborts), (1, 1));
        assert_eq!(d.latency.count, 1);
        assert_eq!(d.block_wait.count, 0, "no waits in the window");
        assert_eq!(d.gauges.mv_versions, 5, "gauges are levels, not deltas");
    }

    proptest! {
        /// Window deltas recompose: for any split of a sample stream into
        /// two windows, diff-then-merge reproduces the cumulative
        /// histogram exactly (buckets, count, and quantiles).
        #[test]
        fn window_diff_merge_recomposes(
            first in proptest::collection::vec(0u64..100_000, 0..100),
            second in proptest::collection::vec(0u64..100_000, 0..100),
        ) {
            let h = LatencyHistogram::default();
            for &x in &first {
                h.record(x);
            }
            let w1 = h.snapshot();
            for &x in &second {
                h.record(x);
            }
            let cumulative = h.snapshot();
            let w2 = cumulative.diff(&w1);
            prop_assert_eq!(w2.count, second.len() as u64);
            prop_assert_eq!(w1.merge(&w2), cumulative);
            // Summing from a zero baseline is the same recomposition.
            prop_assert_eq!(LatencySnapshot::default().merge(&w1).merge(&w2), cumulative);
        }
    }

    proptest! {
        /// Quantiles are monotone non-decreasing in q, for any sample set.
        #[test]
        fn quantiles_monotone_in_q(
            samples in proptest::collection::vec(0u64..100_000, 0..200),
            qa in 0.0f64..=1.0,
            qb in 0.0f64..=1.0,
        ) {
            let h = LatencyHistogram::default();
            for &x in &samples {
                h.record(x);
            }
            let s = h.snapshot();
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            prop_assert!(
                s.quantile(lo) <= s.quantile(hi),
                "q{lo} = {} > q{hi} = {}", s.quantile(lo), s.quantile(hi)
            );
            // And every quantile is bracketed by the data's bucket bounds.
            if !samples.is_empty() {
                prop_assert!(s.quantile(1.0) >= *samples.iter().max().unwrap() / 2);
            }
        }
    }
}
