//! Engine metrics: lock-free counters, commit-latency and blocked-wait
//! histograms, per-phase wall-time spans, point-in-time subsystem gauges,
//! and a per-store-shard access breakdown — sampled into snapshots,
//! subtractable into per-window deltas for the telemetry layer, and
//! exportable as an `mdts-trace` [`MetricsRegistry`] (the experiment
//! binaries' `--json` document).
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

/// One thread's share of the engine counters (one stripe of
/// [`Metrics`]): every field is written by the transactions running on
/// that thread and read only by a sampler.
#[derive(Debug, Default)]
pub(crate) struct MetricCells {
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    pub restarts: AtomicU64,
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub ignored_writes: AtomicU64,
    pub blocked_waits: AtomicU64,
    /// Aborts by reason (the trace layer's taxonomy): an access verdict,
    /// a failed commit validation, or a composite abort-all epoch.
    pub access_aborts: AtomicU64,
    pub validation_aborts: AtomicU64,
    pub epoch_aborts: AtomicU64,
    /// Transactions that exhausted their restart budget.
    pub gave_up: AtomicU64,
    /// Read-only snapshot transactions served by the multiversion path
    /// (they never abort, restart or block, so they appear in no other
    /// abort/restart counter).
    pub snapshot_txns: AtomicU64,
    /// Item reads served from version chains by snapshot transactions.
    pub snapshot_reads: AtomicU64,
    /// Transactions applied in memory whose durability acknowledgement
    /// never arrived (the WAL halted mid-wait): reported as
    /// `TxError::DurabilityUnknown`, never retried.
    pub wal_unacked: AtomicU64,
    /// This thread's share of the logical clock (see [`Metrics::now`]).
    clock: AtomicU64,
    pub latency: LatencyHistogram,
    /// Blocked-wait *durations* in logical ticks (one sample per
    /// `blocked_waits` event), not just the event count.
    pub block_wait_ticks: LatencyHistogram,
    /// Granted accesses per store shard (reads at fetch, writes at apply).
    shard_accesses: Counters<SHARD_SLOTS>,
}

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

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let sum = |f: &dyn Fn(&MetricCells) -> &AtomicU64| {
            self.cells.sum(|c| f(c).load(Ordering::Relaxed))
        };
        let histogram = |f: fn(&MetricCells) -> &LatencyHistogram| {
            LatencySnapshot::from_buckets(std::array::from_fn(|b| sum(&|c| &f(c).buckets.0[b])))
        };
        MetricsSnapshot {
            commits: sum(&|c| &c.commits),
            aborts: sum(&|c| &c.aborts),
            restarts: sum(&|c| &c.restarts),
            reads: sum(&|c| &c.reads),
            writes: sum(&|c| &c.writes),
            ignored_writes: sum(&|c| &c.ignored_writes),
            blocked_waits: sum(&|c| &c.blocked_waits),
            access_aborts: sum(&|c| &c.access_aborts),
            validation_aborts: sum(&|c| &c.validation_aborts),
            epoch_aborts: sum(&|c| &c.epoch_aborts),
            gave_up: sum(&|c| &c.gave_up),
            snapshot_txns: sum(&|c| &c.snapshot_txns),
            snapshot_reads: sum(&|c| &c.snapshot_reads),
            wal_unacked: sum(&|c| &c.wal_unacked),
            latency: histogram(|c| &c.latency),
            block_wait: histogram(|c| &c.block_wait_ticks),
            shard_accesses: std::array::from_fn(|i| sum(&|c| &c.shard_accesses.0[i])),
            phases: self.phases.snapshot(),
            ..MetricsSnapshot::default()
        }
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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PhaseSnapshot {
    /// Whether timing was enabled when sampled.
    pub enabled: bool,
    /// Total nanoseconds per phase (index = `Phase as usize`).
    pub total_ns: [u64; PHASE_COUNT],
    /// Span-duration histograms per phase, in nanoseconds.
    pub spans: [LatencySnapshot; PHASE_COUNT],
}

impl Default for PhaseSnapshot {
    fn default() -> Self {
        PhaseSnapshot {
            enabled: false,
            total_ns: [0; PHASE_COUNT],
            spans: [LatencySnapshot::default(); PHASE_COUNT],
        }
    }
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
}

/// Point-in-time gauges for the subsystems behind the counters: the MV
/// store's chains and GC, the scheduler's row table, and the order
/// cache's epoch flushes. Gauges are *levels*, not totals — a windowed
/// sampler reports them as-is rather than subtracting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineGauges {
    /// Non-empty MV version chains.
    pub mv_chains: u64,
    /// Total MV versions currently kept.
    pub mv_versions: u64,
    /// Longest MV chain.
    pub mv_max_chain: u64,
    /// MV chain counts by power-of-two length bucket.
    pub mv_chain_len_buckets: [u64; MV_CHAIN_LEN_BUCKETS],
    /// MV install ticket frontier.
    pub mv_install_seq: u64,
    /// How far the GC watermark trails the install frontier.
    pub mv_watermark_lag: u64,
    /// Occupied MV snapshot-registry slots.
    pub mv_active_snapshots: u64,
    /// Cumulative MV versions reclaimed by pruning.
    pub mv_pruned: u64,
    /// Live timestamp-vector rows in the scheduler (including `T₀`).
    pub sched_live_rows: u64,
    /// Id-index chunks of the scheduler's row table (they grow with the
    /// ids issued, 4 bytes per id).
    pub sched_row_chunks: u64,
    /// Row slots the scheduler's row arena has built: the most rows ever
    /// live at once.
    pub sched_row_slots: u64,
    /// Order-cache epoch flushes (cumulative invalidation count).
    pub order_cache_epoch_flushes: u64,
    /// Always 0: the prewarm probe that issued these batches is gone. The
    /// frozen benchmark harness still reads the field.
    pub batched_probe_batches: u64,
    /// Batched SIMD compares issued on the MV chain-walk path.
    pub batched_chain_batches: u64,
    /// Batch-size distribution by power-of-two bucket (`le_1`, `le_2`,
    /// `le_4`, …; the last bucket absorbs everything larger).
    pub batched_size_buckets: [u64; BATCH_SIZE_BUCKETS],
    /// Highest WAL epoch fsynced so far (0 without durability).
    pub wal_durable_epoch: u64,
    /// Bytes framed into the open WAL epoch but not yet fsynced.
    pub wal_pending_bytes: u64,
    /// WAL checkpoint frames written by the daemon (cumulative; ISSUE
    /// 10 periodic checkpointing, 0 with checkpointing off).
    pub wal_checkpoints: u64,
    /// WAL prefix truncations performed after those checkpoints.
    pub wal_truncations: u64,
    /// Always 0: the batched admission queue these four counted was
    /// removed in PR 22 (admission is one id `fetch_add` and a scheduler
    /// `begin` on the caller's thread). The fields stay because the
    /// frozen benchmark harness reads them — its `admission.*` metrics
    /// are the count gate that the queue is gone.
    pub admit_batches: u64,
    /// Always 0 (see `admit_batches`).
    pub admit_batched_txns: u64,
    /// Always 0 (see `admit_batches`).
    pub admit_parked: u64,
    /// Always 0 (see `admit_batches`).
    pub admit_prewarm_pairs: u64,
}

impl EngineGauges {
    /// Folds an MV-store stats sample into the MV gauge fields.
    pub fn apply_mv(&mut self, stats: &MvStoreStats) {
        self.mv_chains = stats.chains;
        self.mv_versions = stats.versions;
        self.mv_max_chain = stats.max_chain;
        self.mv_chain_len_buckets = stats.chain_len_buckets;
        self.mv_install_seq = stats.install_seq;
        self.mv_watermark_lag = stats.watermark_lag();
        self.mv_active_snapshots = stats.active_snapshots;
        self.mv_pruned = stats.pruned;
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

/// A point-in-time view of the engine counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction incarnations (each restart counts its abort).
    pub aborts: u64,
    /// Restarts performed by the retry driver.
    pub restarts: u64,
    /// Read accesses granted.
    pub reads: u64,
    /// Write accesses granted.
    pub writes: u64,
    /// Writes dropped by the Thomas rule.
    pub ignored_writes: u64,
    /// Times a transaction had to wait for a lock.
    pub blocked_waits: u64,
    /// Aborts from a rejected read/write access.
    pub access_aborts: u64,
    /// Aborts from a failed commit validation (deferred writes).
    pub validation_aborts: u64,
    /// Aborts caused by a composite abort-all epoch.
    pub epoch_aborts: u64,
    /// Transactions that exhausted their restart budget.
    pub gave_up: u64,
    /// Read-only snapshot transactions served by the multiversion path.
    pub snapshot_txns: u64,
    /// Item reads served from version chains by snapshot transactions.
    pub snapshot_reads: u64,
    /// Comparisons served by the protocol's write-once order cache
    /// (0 for protocols without one; sampled from the protocol, not a
    /// client-side counter).
    pub order_cache_hits: u64,
    /// Comparisons that missed the order cache and walked the vectors.
    pub order_cache_misses: u64,
    /// Candidate vectors compared through the batched SIMD one-vs-many
    /// path (MV chain scans; sampled from the protocol like the
    /// order-cache figures).
    pub batched_compares: u64,
    /// Commit records framed into the write-ahead log (0 without
    /// durability; sampled from the group-commit core, like the
    /// order-cache figures).
    pub wal_commits: u64,
    /// Group-commit epochs fsynced.
    pub wal_fsyncs: u64,
    /// Bytes fsynced into the write-ahead log.
    pub wal_bytes: u64,
    /// Transactions applied in memory whose durability acknowledgement
    /// never arrived (`TxError::DurabilityUnknown`).
    pub wal_unacked: u64,
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
            commits: 0,
            aborts: 0,
            restarts: 0,
            reads: 0,
            writes: 0,
            ignored_writes: 0,
            blocked_waits: 0,
            access_aborts: 0,
            validation_aborts: 0,
            epoch_aborts: 0,
            gave_up: 0,
            snapshot_txns: 0,
            snapshot_reads: 0,
            order_cache_hits: 0,
            order_cache_misses: 0,
            batched_compares: 0,
            wal_commits: 0,
            wal_fsyncs: 0,
            wal_bytes: 0,
            wal_unacked: 0,
            latency: LatencySnapshot::default(),
            block_wait: LatencySnapshot::default(),
            shard_accesses: [0; SHARD_SLOTS],
            phases: PhaseSnapshot::default(),
            gauges: EngineGauges::default(),
        }
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

    /// The activity between `prev` and `self`: every counter and
    /// histogram bucket subtracts (saturating); gauges, being levels,
    /// come through from `self` unchanged. This is the windowed-sampler
    /// primitive — summing consecutive deltas from a zero baseline
    /// reproduces the cumulative snapshot exactly (counters and buckets;
    /// quantiles are recomputed per window).
    pub fn delta(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let mut shard_accesses = [0u64; SHARD_SLOTS];
        for (out, (&a, &b)) in
            shard_accesses.iter_mut().zip(self.shard_accesses.iter().zip(&prev.shard_accesses))
        {
            *out = a.saturating_sub(b);
        }
        MetricsSnapshot {
            commits: self.commits.saturating_sub(prev.commits),
            aborts: self.aborts.saturating_sub(prev.aborts),
            restarts: self.restarts.saturating_sub(prev.restarts),
            reads: self.reads.saturating_sub(prev.reads),
            writes: self.writes.saturating_sub(prev.writes),
            ignored_writes: self.ignored_writes.saturating_sub(prev.ignored_writes),
            blocked_waits: self.blocked_waits.saturating_sub(prev.blocked_waits),
            access_aborts: self.access_aborts.saturating_sub(prev.access_aborts),
            validation_aborts: self.validation_aborts.saturating_sub(prev.validation_aborts),
            epoch_aborts: self.epoch_aborts.saturating_sub(prev.epoch_aborts),
            gave_up: self.gave_up.saturating_sub(prev.gave_up),
            snapshot_txns: self.snapshot_txns.saturating_sub(prev.snapshot_txns),
            snapshot_reads: self.snapshot_reads.saturating_sub(prev.snapshot_reads),
            order_cache_hits: self.order_cache_hits.saturating_sub(prev.order_cache_hits),
            order_cache_misses: self.order_cache_misses.saturating_sub(prev.order_cache_misses),
            batched_compares: self.batched_compares.saturating_sub(prev.batched_compares),
            wal_commits: self.wal_commits.saturating_sub(prev.wal_commits),
            wal_fsyncs: self.wal_fsyncs.saturating_sub(prev.wal_fsyncs),
            wal_bytes: self.wal_bytes.saturating_sub(prev.wal_bytes),
            wal_unacked: self.wal_unacked.saturating_sub(prev.wal_unacked),
            latency: self.latency.diff(&prev.latency),
            block_wait: self.block_wait.diff(&prev.block_wait),
            shard_accesses,
            phases: self.phases.delta(&prev.phases),
            gauges: self.gauges,
        }
    }

    /// Converts the snapshot into the serializable registry behind the
    /// experiment binaries' `--json` output: every counter, the full
    /// commit-latency histogram, and the per-shard access breakdown.
    pub fn registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new()
            .counter("commits", self.commits)
            .counter("aborts", self.aborts)
            .counter("restarts", self.restarts)
            .counter("reads", self.reads)
            .counter("writes", self.writes)
            .counter("ignored_writes", self.ignored_writes)
            .counter("blocked_waits", self.blocked_waits)
            .counter("access_aborts", self.access_aborts)
            .counter("validation_aborts", self.validation_aborts)
            .counter("epoch_aborts", self.epoch_aborts)
            .counter("gave_up", self.gave_up)
            .counter("snapshot_txns", self.snapshot_txns)
            .counter("snapshot_reads", self.snapshot_reads)
            .counter("order_cache_hits", self.order_cache_hits)
            .counter("order_cache_misses", self.order_cache_misses)
            .counter("batched_compares", self.batched_compares)
            .counter("wal_commits", self.wal_commits)
            .counter("wal_fsyncs", self.wal_fsyncs)
            .counter("wal_bytes", self.wal_bytes)
            .counter("wal_unacked", self.wal_unacked)
            .histogram(HistogramExport {
                name: "commit_latency_ticks".to_string(),
                count: self.latency.count,
                quantiles: vec![
                    ("p50".to_string(), self.latency.p50),
                    ("p95".to_string(), self.latency.p95),
                    ("p99".to_string(), self.latency.p99),
                ],
                buckets: self.latency.buckets.to_vec(),
            })
            .histogram(HistogramExport {
                name: "block_wait_ticks".to_string(),
                count: self.block_wait.count,
                quantiles: vec![
                    ("p50".to_string(), self.block_wait.p50),
                    ("p95".to_string(), self.block_wait.p95),
                    ("p99".to_string(), self.block_wait.p99),
                ],
                buckets: self.block_wait.buckets.to_vec(),
            });
        for (p, span) in Phase::ALL.iter().zip(&self.phases.spans) {
            reg = reg.histogram(HistogramExport {
                name: format!("phase_{}_ns", p.name()),
                count: span.count,
                quantiles: vec![
                    ("p50".to_string(), span.p50),
                    ("p95".to_string(), span.p95),
                    ("p99".to_string(), span.p99),
                ],
                buckets: span.buckets.to_vec(),
            });
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
        let g = &self.gauges;
        reg = reg.breakdown(
            "mv_store",
            vec![
                ("chains".to_string(), g.mv_chains),
                ("versions".to_string(), g.mv_versions),
                ("max_chain".to_string(), g.mv_max_chain),
                ("install_seq".to_string(), g.mv_install_seq),
                ("watermark_lag".to_string(), g.mv_watermark_lag),
                ("active_snapshots".to_string(), g.mv_active_snapshots),
                ("pruned".to_string(), g.mv_pruned),
            ],
        );
        reg = reg.breakdown(
            "mv_chain_lengths",
            g.mv_chain_len_buckets
                .iter()
                .enumerate()
                .map(|(b, &n)| (format!("le_{}", 1u64 << b), n))
                .collect(),
        );
        reg = reg.breakdown(
            "scheduler",
            vec![
                ("live_rows".to_string(), g.sched_live_rows),
                ("row_chunks".to_string(), g.sched_row_chunks),
                ("row_slots".to_string(), g.sched_row_slots),
                ("order_cache_epoch_flushes".to_string(), g.order_cache_epoch_flushes),
            ],
        );
        let mut batched = vec![("chain_batches".to_string(), g.batched_chain_batches)];
        batched.extend(
            g.batched_size_buckets
                .iter()
                .enumerate()
                .map(|(b, &n)| (format!("size_le_{}", 1u64 << b), n)),
        );
        reg = reg.breakdown("batched_compare", batched);
        reg = reg.breakdown(
            "wal",
            vec![
                ("durable_epoch".to_string(), g.wal_durable_epoch),
                ("pending_bytes".to_string(), g.wal_pending_bytes),
                ("checkpoints".to_string(), g.wal_checkpoints),
                ("truncations".to_string(), g.wal_truncations),
            ],
        );
        let entries: Vec<(String, u64)> = self
            .shard_accesses
            .iter()
            .enumerate()
            .map(|(i, &n)| (format!("shard{i}"), n))
            .collect();
        reg = reg.breakdown("shard_accesses", entries);
        reg
    }

    /// The registry rendered as a JSON value.
    pub fn to_json(&self) -> Json {
        self.registry().to_json()
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
