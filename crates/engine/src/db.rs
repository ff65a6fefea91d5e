//! The database: transaction-local write buffers over one of two
//! engines, with a transaction runner that retries aborts.
//!
//! Concurrency model — no global mutex:
//!
//! * **Values** live in the engine's sharded store, and the store's shard
//!   lock is the item lock. A read holds its item's shard across the
//!   protocol grant *and* the value fetch; a commit holds every shard of
//!   its write set (ascending, deadlock-free) across validation *and*
//!   apply. Grants and the data accesses they authorize are therefore
//!   atomic, and a commit becomes visible all-or-nothing — but
//!   transactions touching disjoint shards never serialize on the engine.
//!   - Under [`Protocol::Multiversion`] a [`ConcurrentMvStore`] is the
//!     value store, and one record per item holds its `RT`/`WT` holders
//!     beside its version chain. A read, a snapshot read and each item of
//!     a commit take that record's shard lock and nothing else per item:
//!     the engine hands the scheduler the record's holder pair, and the
//!     chain as the stamps its committed holders are compared through
//!     (a committed writer's row is reclaimed at its commit). No
//!     `ShardedStore` is built, and the scheduler's own holder tables
//!     stay empty.
//!   - Under [`Protocol::Concurrent`] the newest values sit in a
//!     [`ShardedStore`], and the protocol keeps its per-item state itself.
//! * **Write buffers are transaction-local** (the deferred-write scheme
//!   of VI-C-2): each [`Tx`] carries its own workspace, so buffering a
//!   write touches no shared state at all.
//! * **Protocol state**: the multiversion engine calls its sharded MT(k)
//!   scheduler ([`SharedMtScheduler`], built by [`ShardedMtCc`])
//!   directly; it synchronizes itself. Every other protocol is a mutex
//!   adapter behind [`ConcurrentCc`], holding its sequential scheduler
//!   behind one mutex of its own — the protocol decision is then
//!   serialized, but store access, buffering and waiting still are not.
//! * **Blocking** (2PL) parks on a wake-sequence condvar: waiters sample
//!   the sequence before asking for the lock and sleep only while it is
//!   unchanged, so a release between decision and sleep is never lost.
//!   Only the adapter path has one: MT(k) orders or refuses every access
//!   and never waits, so the multiversion path neither samples nor bumps
//!   it, and has no abort-all epoch to re-check either.
//! * **Admission is serial and shares one word**: a transaction takes its
//!   id with one `fetch_add` on a counter that has a cache line to itself
//!   and registers with the protocol on its own thread. Everything else a
//!   transaction writes on account of the engine — counters, the logical
//!   clock, latency buckets — is a per-thread cell summed on read
//!   (`mdts-engine::metrics`), so two clients that never conflict meet
//!   only inside the protocol.
//! * **Durability** (optional, see [`crate::DurabilityConfig`]) frames
//!   every committed write set into a group-commit write-ahead log: the
//!   commit applies in memory first, and `run` acknowledges only after
//!   the commit's epoch is fsynced (`mdts-engine::durability`).
//!
//! Lock order on the adapter path: store shards (ascending) → protocol
//! internals → wake sequence → WAL epoch buffer. On the multiversion
//! path: chain shards (ascending) → the scheduler's row slots (ascending
//! id), then its order cache → WAL epoch buffer. Nothing sleeps while
//! holding a store shard.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use mdts_core::{Decision, HolderPair, MtOptions, SharedMtScheduler};
use mdts_model::{ItemId, OpKind, TxId};
use mdts_storage::{
    recover, ConcurrentMvStore, CrashPoint, MvVersion, Recovered, ShardedStore, Store, WalValue,
    DEFAULT_STORE_SHARDS,
};
use mdts_trace::{AbortReason, StallRule, TraceEvent, TraceSink};
use mdts_vector::{CachePadded, Mine, Stamp};

use crate::cc::{CommitDecision, ConcurrentCc, Verdict};
use crate::durability::{CheckpointFn, Durability, DurabilityConfig, CHECKPOINT_TX};
use crate::metrics::{EngineGauges, MetricCells, Metrics, MetricsSnapshot, Phase};

/// Terminal failure of [`Database::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxError {
    /// The transaction aborted more than `max_restarts` times.
    RetriesExhausted,
    /// The transaction committed *in memory* but the write-ahead log
    /// halted (crash injection or a real I/O failure) before its epoch
    /// was fsynced, so its durability acknowledgement never arrived.
    /// The commit is visible to later transactions in this process and
    /// is **not** retried — a retry would apply it twice; after a
    /// restart it may or may not be recovered.
    DurabilityUnknown,
    /// The database has issued every transaction id it has (they stop
    /// 2¹⁶ short of `u32::MAX`); nothing was run. Every later call fails
    /// the same way — ids never wrap around to `T₀`.
    IdsExhausted,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::RetriesExhausted => write!(f, "transaction retries exhausted"),
            TxError::DurabilityUnknown => {
                write!(f, "committed in memory but the write-ahead log halted unacknowledged")
            }
            TxError::IdsExhausted => write!(f, "transaction ids exhausted"),
        }
    }
}

impl std::error::Error for TxError {}

/// Control-flow marker: the current transaction incarnation has been
/// aborted; propagate with `?` out of the transaction closure. A body
/// may also return it on its own: the engine then aborts the incarnation
/// at the protocol and retries, as after a refused access.
#[derive(Debug)]
pub struct Aborted;

use crate::wakeseq::WakeSeq;

/// The multiversion serving path (MV-MT(k), III-D-6d). The version
/// chains are the value store, and each item's chain record also holds
/// its `RT`/`WT` for `sched`, which the engine drives through its
/// caller-held-pair entry points. Versions store `Option<V>` so the
/// floor of a never-written item is `None`, matching [`Tx::read`]'s
/// "never written" convention.
struct MvState<V> {
    /// Behind an `Arc` so the WAL checkpoint encoder holds a handle of
    /// its own.
    store: Arc<ConcurrentMvStore<Option<V>, HolderPair>>,
    /// Owned: every word it writes on the hot path is `CachePadded`, so
    /// inlining it shares no written line with [`Shared`]'s read-mostly
    /// fields.
    sched: SharedMtScheduler,
}

impl<V: Clone> MvState<V> {
    /// Fills the scheduler's and the chains' rows of the metrics table.
    fn sample(&self, snap: &mut MetricsSnapshot) {
        let sched = &self.sched;
        let cache = sched.order_cache_stats();
        let batched = sched.batched_compare_stats();
        snap.order_cache_hits = cache.hits;
        snap.order_cache_misses = cache.misses;
        snap.batched_compares = batched.candidates;
        let g = &mut snap.gauges;
        g.sched_live_rows = sched.live_rows() as u64;
        g.sched_row_chunks = sched.resident_row_chunks() as u64;
        g.sched_row_slots = sched.row_arena_len() as u64;
        g.sched_index_released_ids = sched.released_index_ids() as u64;
        g.order_cache_epoch_flushes = cache.invalidations;
        g.batched_chain_batches = batched.chain_batches;
        g.batched_size_buckets = batched.size_buckets;
        g.apply_mv(&self.store.stats());
    }
}

// An `i64` item's record — holders, writer, ticket, packed stamp and value
// — is one 64-byte line, line-aligned, at every k (a stamp past k = 3
// spills its values to the heap).
const _: () = {
    type Record = ConcurrentMvStore<Option<i64>, HolderPair>;
    assert!(Record::RECORD_BYTES == 64 && Record::RECORD_ALIGN == 64);
};

/// The one engine a database runs: where committed values live, and
/// with them the item locks, beside the protocol that orders them. It
/// lives once, inside the shared state, so the inline scheduler's size
/// costs nothing, and boxing it would add a load to every access.
#[allow(clippy::large_enum_variant)]
enum Engine<V> {
    /// A mutex adapter over the newest values; the protocol keeps its
    /// per-item state itself, and may block or abort everyone.
    Adapter { cc: Box<dyn ConcurrentCc>, store: ShardedStore<V> },
    /// Version chains whose records also hold the holders: built under
    /// [`Protocol::Multiversion`], the database then serves read-only
    /// snapshot transactions ([`Database::run_read_only`]).
    Chains(MvState<V>),
}

struct Shared<V> {
    engine: Engine<V>,
    /// Last transaction id issued. Every admission writes it, so it has
    /// a cache line to itself: the read-mostly `engine` before it stays
    /// in every client's cache.
    next_tx: CachePadded<AtomicU32>,
    /// Blocked adapter transactions park here; the multiversion path
    /// never touches it.
    wake: WakeSeq,
    /// Counters and the logical clock ([`Metrics::now`]).
    metrics: Metrics,
    /// Engine-level decision trace (begin/abort/block/wake edges);
    /// disabled by default. The protocol's own events go to whatever sink
    /// is attached to it — point both at one buffer for a merged trace.
    trace: TraceSink,
    /// `Some` when commits are framed into a group-commit write-ahead
    /// log and acknowledged only once fsynced (built by
    /// [`Database::open_durable`]; [`Database::open`] leaves it `None`).
    durability: Option<Durability<V>>,
}

// The id counter starts a cache line of its own.
const _: () = assert!(std::mem::offset_of!(Shared<i64>, next_tx).is_multiple_of(128));

/// Transaction ids are issued strictly below this bound, 2¹⁶ short of
/// where the `u32` counter would wrap to `T₀`'s id: every refused
/// admission still adds one to the counter before pinning it back, and
/// the headroom is what those in-flight additions can use up — far more
/// than a host has threads.
const TX_ID_LIMIT: u32 = u32::MAX - (1 << 16);

impl<V> Shared<V> {
    /// The next transaction id, or `None` once they are used up.
    #[inline]
    fn next_id(&self) -> Option<TxId> {
        let last = self.next_tx.fetch_add(1, Ordering::Relaxed);
        if last < TX_ID_LIMIT - 1 {
            return Some(TxId(last + 1));
        }
        self.next_tx.store(TX_ID_LIMIT - 1, Ordering::Relaxed);
        None
    }

    /// Registers `tx` with the protocol — as the `attempt`th consecutive
    /// restart of `prev`, if any — and returns the abort-all epoch it
    /// starts under (always 0 on the multiversion path, which has none).
    fn begin(&self, tx: TxId, prev: Option<TxId>, attempt: usize) -> u64 {
        match &self.engine {
            Engine::Chains(mv) => {
                match prev {
                    Some(p) => mv.sched.begin_restarted_nth(tx, p, attempt),
                    None => mv.sched.begin(tx),
                }
                0
            }
            Engine::Adapter { cc, .. } => {
                match prev {
                    Some(p) => cc.begin_restarted(tx, p),
                    None => cc.begin(tx),
                }
                cc.epoch()
            }
        }
    }

    /// Releases a finished incarnation at the protocol. The engine
    /// journals a commit itself, so the scheduler does not.
    fn release(&self, tx: TxId, committed: bool) {
        match &self.engine {
            Engine::Chains(mv) if committed => {
                mv.sched.commit_unjournaled(tx);
            }
            Engine::Chains(mv) => mv.sched.abort(tx),
            Engine::Adapter { cc, .. } if committed => cc.committed(tx),
            Engine::Adapter { cc, .. } => cc.aborted(tx),
        }
    }

    /// Wakes every blocked transaction after a release. Only an adapter
    /// blocks: the multiversion path has no waiter to wake.
    fn wake_all(&self) {
        if let Engine::Adapter { .. } = self.engine {
            let seq = self.wake.bump();
            self.trace.emit(|| TraceEvent::Wake { wake_seq: seq });
        }
    }
}

/// The stamp of `writer`'s version on `chain`, if the chain keeps one: a
/// holder of the item that the scheduler finds here is stamp-backed.
fn kept_stamp<V>(chain: &[MvVersion<V>], writer: TxId) -> Option<&Stamp> {
    chain.iter().rev().find(|v| v.writer == writer).map(|v| &v.stamp)
}

/// Every item's newest committed value on the multiversion path, in
/// ascending item order (the order [`ShardedStore::snapshot`] yields).
fn chain_tails<V: Clone>(
    store: &ConcurrentMvStore<Option<V>, HolderPair>,
    out: &mut Vec<(ItemId, V)>,
) {
    store.for_each_newest(|item, newest| {
        if let Some(value) = &newest.value {
            out.push((item, value.clone()));
        }
    });
    out.sort_unstable_by_key(|&(item, _)| item);
}

/// A transactional database over values `V`.
pub struct Database<V> {
    shared: Arc<Shared<V>>,
}

impl<V> Clone for Database<V> {
    fn clone(&self) -> Self {
        Database { shared: Arc::clone(&self.shared) }
    }
}

/// The protocol a [`Database`] runs, and with it which engine serves it.
/// The one argument of [`Database::open`] and
/// [`Database::open_durable`]; the `From` impls let a call site pass any
/// protocol value, or a boxed adapter, directly.
pub enum Protocol {
    /// A mutex adapter over a single-version sharded store.
    Concurrent(Box<dyn ConcurrentCc>),
    /// Sharded MT(k) plus the multiversion serving path (MV-MT(k),
    /// III-D-6d, [`Database::run_read_only`]), whose snapshot readers
    /// order themselves through the scheduler the write path validates.
    Multiversion(ShardedMtCc),
}

impl<C: ConcurrentCc + 'static> From<C> for Protocol {
    fn from(cc: C) -> Self {
        Protocol::Concurrent(Box::new(cc))
    }
}

impl From<Box<dyn ConcurrentCc>> for Protocol {
    fn from(cc: Box<dyn ConcurrentCc>) -> Self {
        Protocol::Concurrent(cc)
    }
}

/// A sharded MT(k) scheduler is only ever served by the multiversion
/// engine: this yields [`Protocol::Multiversion`].
impl From<ShardedMtCc> for Protocol {
    fn from(cc: ShardedMtCc) -> Self {
        Protocol::Multiversion(cc)
    }
}

/// Builds the multiversion engine's MT(k) scheduler, the concurrent
/// [`SharedMtScheduler`]: item-sharded `RT`/`WT`, read-mostly vector
/// rows, lock-free k-th-column counters and O(1) refcount reclamation —
/// no mutex spans two different items' decisions. Deferred writes as in
/// [`MtCc`](crate::MtCc): reads validate when issued, writes at commit
/// (VI-C-2).
///
/// It is not a [`ConcurrentCc`]: the engine calls the scheduler
/// directly, so a sharded MT(k) cannot be put behind the adapter path.
///
/// ```compile_fail,E0277
/// use mdts_engine::{Protocol, ShardedMtCc};
/// let _ = Protocol::Concurrent(Box::new(ShardedMtCc::new(3)));
/// ```
pub struct ShardedMtCc {
    /// Boxed while it travels: the scheduler is ≈ 9 KiB inline.
    sched: Box<SharedMtScheduler>,
}

impl ShardedMtCc {
    /// Sharded MT(k) with default Algorithm 1 options plus the starvation
    /// fix (engines restart transactions, so the fix is the sensible
    /// default).
    pub fn new(k: usize) -> Self {
        ShardedMtCc::with_options(MtOptions { starvation_flush: true, ..MtOptions::new(k) })
    }

    /// Sharded MT(k) with explicit options (hot-item encoding and the
    /// event journal are not supported by the concurrent scheduler).
    pub fn with_options(opts: MtOptions) -> Self {
        ShardedMtCc { sched: Box::new(SharedMtScheduler::new(opts)) }
    }

    /// Routes the scheduler's decision trace to `sink` (see
    /// [`SharedMtScheduler::attach_trace`]). [`Database`] hands the
    /// scheduler its own sink when it opens, which replaces this one;
    /// this stays for callers that attach by hand.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.sched.attach_trace(sink);
    }
}

impl<V: Clone + Send + 'static> Database<V> {
    /// A database over the pre-populated `store` under `protocol`, with
    /// the decision trace routed to `trace` ([`TraceSink::disabled`] for
    /// none). The engine owns the sink: it hands it to the protocol, so
    /// the protocol's and the engine's events land in one auditable
    /// stream.
    pub fn open(protocol: impl Into<Protocol>, store: Store<V>, trace: TraceSink) -> Self {
        Database::assemble(protocol.into(), store, trace, (0, 0), None)
    }

    /// [`open`](Self::open) with a **write-ahead log**: any existing log
    /// at `config.wal_path` is recovered first (its sealed epochs replayed
    /// over `store`), then a fresh log is started with a checkpoint of the
    /// merged state, and every subsequent commit is acknowledged only
    /// after its group-commit epoch is fsynced.
    ///
    /// Returns the database plus the [`Recovered`] report (what the old
    /// log contributed). When `config.journal_path` is set and `trace`
    /// is enabled on an **unbounded** buffer, the daemon also persists
    /// the decision trace epoch by epoch, fsynced before the epoch's WAL
    /// write, so a post-crash auditor can certify the recovered state.
    pub fn open_durable(
        protocol: impl Into<Protocol>,
        store: Store<V>,
        trace: TraceSink,
        config: &DurabilityConfig,
    ) -> std::io::Result<(Self, Recovered<V>)>
    where
        V: WalValue,
    {
        let (store, resume, durability, recovered) = durable_parts(store, &trace, config)?;
        let db = Database::assemble(protocol.into(), store, trace, resume, Some(durability));
        db.install_wal_checkpoint();
        Ok((db, recovered))
    }

    /// [`open`](Self::open) under [`Protocol::Multiversion`].
    pub fn with_store_multiversion_traced(
        cc: ShardedMtCc,
        store: Store<V>,
        trace: TraceSink,
    ) -> Self {
        Database::open(Protocol::Multiversion(cc), store, trace)
    }

    /// The one place a `Shared` is put together. `resume` is the
    /// `(last transaction id, logical clock)` pair a recovered log left
    /// behind — zeros for a fresh database.
    fn assemble(
        protocol: Protocol,
        store: Store<V>,
        trace: TraceSink,
        resume: (u32, u64),
        durability: Option<Durability<V>>,
    ) -> Self {
        let engine = match protocol {
            Protocol::Concurrent(mut cc) => {
                cc.attach_trace(trace.clone());
                Engine::Adapter { cc, store: ShardedStore::from_store(store, DEFAULT_STORE_SHARDS) }
            }
            Protocol::Multiversion(ShardedMtCc { sched }) => {
                let mut sched = *sched;
                sched.attach_trace(trace.clone());
                // Every chain starts from the initial (or recovered)
                // value: the chains are the only value store.
                let chains = ConcurrentMvStore::new();
                for (item, value) in store.iter() {
                    chains.seed(item, Some(value.clone()), sched.k());
                }
                Engine::Chains(MvState { store: Arc::new(chains), sched })
            }
        };
        Database {
            shared: Arc::new(Shared {
                engine,
                next_tx: CachePadded(AtomicU32::new(resume.0)),
                wake: WakeSeq::default(),
                metrics: Metrics::starting_at(resume.1),
                trace,
                durability,
            }),
        }
    }

    /// Hands the group-commit daemon its checkpoint snapshot encoder (a
    /// no-op without durability). The closure captures a handle of the
    /// value store's own — [`ShardedStore::shard_handle`], or the chain
    /// store's `Arc` — rather than any reference to `Shared`, so it never
    /// entangles the engine's reference counts: a rotation racing
    /// database teardown snapshots a still-valid store instead of a
    /// dangling engine. Either store yields the newest values in
    /// ascending item order, so the checkpoint bytes do not depend on
    /// which one the database runs.
    fn install_wal_checkpoint(&self)
    where
        V: WalValue,
    {
        let Some(durability) = &self.shared.durability else {
            return;
        };
        let mut writes: Vec<(ItemId, V)> = Vec::new();
        let encoder: CheckpointFn = match &self.shared.engine {
            Engine::Adapter { store, .. } => {
                let store = store.shard_handle();
                Box::new(move |buf, lsn| {
                    writes.clear();
                    writes.extend(store.snapshot());
                    mdts_storage::wal::encode_commit(buf, lsn, CHECKPOINT_TX, &writes, &[]);
                    true
                })
            }
            Engine::Chains(mv) => {
                let store = Arc::clone(&mv.store);
                Box::new(move |buf, lsn| {
                    writes.clear();
                    chain_tails(&store, &mut writes);
                    mdts_storage::wal::encode_commit(buf, lsn, CHECKPOINT_TX, &writes, &[]);
                    true
                })
            }
        };
        durability.install_checkpoint(encoder);
    }

    /// Whether the multiversion serving path is enabled.
    pub fn has_multiversion(&self) -> bool {
        matches!(self.shared.engine, Engine::Chains(_))
    }

    /// The multiversion engine's scheduler, for tests that inspect its
    /// own tables.
    #[cfg(test)]
    pub(crate) fn mv_scheduler(&self) -> &SharedMtScheduler {
        let Engine::Chains(mv) = &self.shared.engine else { panic!("no multiversion engine") };
        &mv.sched
    }

    /// Whether commits are framed into a write-ahead log.
    pub fn has_durability(&self) -> bool {
        self.shared.durability.is_some()
    }

    /// Flushes the open WAL epoch (if any) and waits for it: `true` when
    /// everything committed so far is durable. Trivially `true` for a
    /// database without durability.
    pub fn sync(&self) -> bool {
        self.shared.durability.as_ref().is_none_or(Durability::sync)
    }

    /// Highest fsynced WAL epoch (0 without durability or before the
    /// first fsync).
    pub fn durable_epoch(&self) -> u64 {
        self.shared.durability.as_ref().map_or(0, Durability::durable_epoch)
    }

    /// Whether the write-ahead log halted on an append failure or an
    /// injected crash (later commits get
    /// [`TxError::DurabilityUnknown`]).
    pub fn wal_crashed(&self) -> bool {
        self.shared.durability.as_ref().is_some_and(Durability::crashed)
    }

    /// Arms a WAL crash-injection site (test hook; the group-commit
    /// daemon applies it before its next append). No-op without
    /// durability.
    pub fn set_crash_point(&self, point: CrashPoint) {
        if let Some(wal) = &self.shared.durability {
            wal.set_crash_point(point);
        }
    }

    /// The protocol's display name.
    pub fn protocol_name(&self) -> &'static str {
        match &self.shared.engine {
            Engine::Adapter { cc, .. } => cc.name(),
            Engine::Chains(_) => "MV-MT(k)",
        }
    }

    /// Current committed contents (per-shard consistent; run an auditing
    /// transaction for a transactionally consistent view while writers
    /// are active).
    pub fn snapshot(&self) -> std::collections::BTreeMap<ItemId, V> {
        match &self.shared.engine {
            Engine::Adapter { store, .. } => store.snapshot(),
            Engine::Chains(mv) => {
                let mut newest = Vec::new();
                chain_tails(&mv.store, &mut newest);
                newest.into_iter().collect()
            }
        }
    }

    /// Current counters and gauges: the engine's cell counters summed,
    /// then every sampled row of the metrics table filled from its source
    /// — an adapter's [`ConcurrentCc::sample`], or the MV engine's
    /// scheduler and chains — and the write-ahead log. Cheap relative to a
    /// window interval (one registry scan and per-shard read locks), but
    /// not a per-transaction call.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot();
        match &self.shared.engine {
            Engine::Adapter { cc, .. } => cc.sample(&mut snap),
            Engine::Chains(mv) => mv.sample(&mut snap),
        }
        if let Some(wal) = &self.shared.durability {
            wal.sample(&mut snap);
        }
        snap
    }

    /// The subsystem gauges of [`metrics`](Self::metrics): MV chains and
    /// GC, the scheduler's row table, the MV chain walk, the WAL.
    pub fn gauges(&self) -> EngineGauges {
        self.metrics().gauges
    }

    /// Turns wall-time phase-span timing on or off (off by default; when
    /// off the spans cost one relaxed load each and never read the
    /// clock).
    pub fn set_phase_timing(&self, on: bool) {
        self.shared.metrics.phases.set_enabled(on);
    }

    /// Records a stall-detector alert in the engine's decision trace
    /// (no-op when no sink is attached). The telemetry layer calls this
    /// so alerts interleave, sequence-stamped, with the protocol events
    /// they explain.
    pub fn emit_telemetry_alert(&self, window: u64, rule: StallRule, value: f64, baseline: f64) {
        self.shared.trace.emit(|| TraceEvent::TelemetryAlert { window, rule, value, baseline });
    }

    /// Runs `body` as a transaction, retrying on abort up to
    /// `max_restarts` times. The closure reads and writes through the
    /// [`Tx`] handle and must propagate [`Aborted`] with `?`.
    ///
    /// An incarnation the body abandons — by returning [`Aborted`] on its
    /// own or by panicking — is aborted at the protocol exactly once; a
    /// panic then propagates.
    ///
    /// The transaction's workspace is this thread's recycled scratch
    /// buffer: once a thread has run one transaction of a given shape,
    /// `run` allocates nothing.
    pub fn run<T>(
        &self,
        max_restarts: usize,
        body: impl FnMut(&mut Tx<'_, V>) -> Result<T, Aborted>,
    ) -> Result<T, TxError> {
        let mut scratch = take_scratch::<V>();
        let result = self.run_attempts(max_restarts, &mut scratch, body);
        SPARE_SCRATCH.set(Some(scratch));
        result
    }

    /// [`run`](Self::run); the declared footprint is ignored. It fed the
    /// batched admission queue's prewarm, removed in PR 22 because every
    /// batch it formed on a measured lane was a singleton; the signature
    /// stays for callers that still declare one (the frozen benchmark
    /// harness does).
    pub fn run_with_footprint<T>(
        &self,
        max_restarts: usize,
        _footprint: &[ItemId],
        body: impl FnMut(&mut Tx<'_, V>) -> Result<T, Aborted>,
    ) -> Result<T, TxError> {
        self.run(max_restarts, body)
    }

    /// The retry loop of [`run`](Self::run), over a caller-owned
    /// workspace: a restarted incarnation re-fills the buffers its
    /// predecessor already grew, so a restart storm does not churn the
    /// allocator.
    fn run_attempts<T>(
        &self,
        max_restarts: usize,
        scratch: &mut TxScratch<V>,
        mut body: impl FnMut(&mut Tx<'_, V>) -> Result<T, Aborted>,
    ) -> Result<T, TxError> {
        let shared = &*self.shared;
        let cells = shared.metrics.cells();
        let start_tick = shared.metrics.now();
        let mut prev: Option<TxId> = None;
        for attempt in 0..=max_restarts {
            let span = shared.metrics.phases.start();
            let id = shared.next_id().ok_or(TxError::IdsExhausted)?;
            shared.trace.emit(|| TraceEvent::Begin { tx: id });
            let epoch = shared.begin(id, prev, attempt);
            shared.metrics.phases.record_since(Phase::Admission, span);
            let mut tx = Tx { shared, cells, id, epoch, scratch: &mut *scratch, armed: true };
            if let Ok(value) = body(&mut tx) {
                let span = shared.metrics.phases.start();
                let outcome = tx.commit();
                shared.metrics.phases.record_since(Phase::Commit, span);
                if let CommitOutcome::Committed { wal_epoch } = outcome {
                    cells.add(|c| &c.commits, 1);
                    let end_tick = shared.metrics.now();
                    cells.add(|c| c.latency.bucket(end_tick.saturating_sub(start_tick)), 1);
                    let durable = match wal_epoch {
                        None => true,
                        Some(epoch) => {
                            let wal =
                                shared.durability.as_ref().expect("a WAL epoch implies durability");
                            let span = shared.metrics.phases.start();
                            let ok = wal.wait_durable(epoch);
                            shared.metrics.phases.record_since(Phase::FsyncWait, span);
                            ok
                        }
                    };
                    if durable {
                        return Ok(value);
                    }
                    // Applied in memory but never acknowledged: surface
                    // the uncertainty instead of retrying — a retry
                    // would apply the transaction twice.
                    cells.add(|c| &c.wal_unacked, 1);
                    return Err(TxError::DurabilityUnknown);
                }
            }
            // Releases an incarnation the body abandoned before backing off.
            drop(tx);
            prev = Some(id);
            if attempt < max_restarts {
                cells.add(|c| &c.restarts, 1);
                let span = shared.metrics.phases.start();
                restart_backoff(attempt, id.0);
                shared.metrics.phases.record_since(Phase::Backoff, span);
            }
        }
        cells.add(|c| &c.gave_up, 1);
        shared.trace.emit(|| TraceEvent::GaveUp {
            tx: prev.expect("at least one attempt ran"),
            restarts: max_restarts as u64,
        });
        Err(TxError::RetriesExhausted)
    }

    /// Runs `body` as a read-only snapshot transaction on the
    /// multiversion serving path. The reader takes one position `b` at
    /// its begin — column 0's published commit maximum + 1
    /// ([`SharedMtScheduler::begin_snapshot_reader`]) — and each read
    /// serves the newest version whose writer's column 0 is below `b`
    /// (III-D-6d's multiversion idea over committed stamps). What pins its
    /// reads against future writers is the read bound on each item's chain
    /// shard, which a read raises to `b` and which refuses, at commit, a
    /// writer whose column 0 is below it. The reader keeps no row, takes no
    /// `RT` entry and joins no order, so a finished reader constrains no
    /// later writer. Snapshot transactions **never abort, never restart
    /// and never block**; `body` runs exactly once and its value is
    /// returned directly.
    ///
    /// # Panics
    /// Panics if the database was not built with the multiversion path
    /// (see [`Protocol::Multiversion`]), or with
    /// [`TxError::IdsExhausted`]'s message once the transaction ids are
    /// used up.
    pub fn run_read_only<T>(&self, body: impl FnOnce(&mut SnapshotTx<'_, V>) -> T) -> T
    where
        V: Sync,
    {
        let shared = &*self.shared;
        let Engine::Chains(mv) = &shared.engine else {
            panic!("snapshot transactions need the multiversion path");
        };
        let cells = shared.metrics.cells();
        let start_tick = shared.metrics.now();
        let id = shared.next_id().unwrap_or_else(|| panic!("{}", TxError::IdsExhausted));
        shared.trace.emit(|| TraceEvent::Begin { tx: id });
        let span = shared.metrics.phases.start();
        // Register with GC *before* the position is taken: every version
        // installed before the captured ticket is then visible at the
        // position, so pruning keeps every version this reader may read.
        let guard = mv.store.begin_snapshot();
        let bound = mv.sched.begin_snapshot_reader(id);
        shared.metrics.phases.record_since(Phase::Admission, span);
        let mut tx = SnapshotTx { shared, mv, cells, id, bound, _guard: guard };
        let out = body(&mut tx);
        let span = shared.metrics.phases.start();
        drop(tx); // ends the snapshot's GC registration
        cells.add(|c| &c.snapshot_txns, 1);
        cells.add(|c| &c.commits, 1);
        let end_tick = shared.metrics.now();
        cells.add(|c| c.latency.bucket(end_tick.saturating_sub(start_tick)), 1);
        shared.trace.emit(|| TraceEvent::Commit { tx: id });
        shared.metrics.phases.record_since(Phase::Commit, span);
        out
    }
}

/// A live read-only snapshot transaction (see
/// [`Database::run_read_only`]): a position and a GC registration, which
/// a body that panics drops like any other. Reads cannot fail, so there is
/// no [`Aborted`] plumbing, and a read makes no allocation (one chain
/// shard lock and a compare per version walked).
pub struct SnapshotTx<'a, V> {
    shared: &'a Shared<V>,
    mv: &'a MvState<V>,
    cells: Mine<'a, MetricCells>,
    id: TxId,
    /// The reader's position: it reads versions whose writer's column 0 is
    /// below it.
    bound: i64,
    _guard: mdts_storage::SnapshotGuard<'a>,
}

impl<V: Clone + Send + Sync + 'static> SnapshotTx<'_, V> {
    /// This snapshot transaction's id (unique, for trace attribution).
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Reads `item`: the newest committed version whose writer's column 0
    /// is below this reader's position. `None` means the item had never
    /// been written below it.
    pub fn read(&mut self, item: ItemId) -> Option<V> {
        let (shared, mv, id) = (self.shared, self.mv, self.id);
        self.cells.add(|c| &c.snapshot_reads, 1);
        self.cells.add(|c| &c.clock, 1);
        // One lock for the bound and the version: commits hold every
        // write-set chain shard across validation and install, so a writer
        // below the raised bound is refused, and one that validated before
        // the raise has installed already.
        let mut shard = mv.store.lock_shard(mv.store.shard_index(item));
        let (read_bound, chain) = shard.read_bound_and_chain(item);
        let span = shared.metrics.phases.start();
        let visible =
            mv.sched.snapshot_visible(self.bound, read_bound, chain.len(), |i| &chain[i].stamp);
        shared.metrics.phases.record_since(Phase::ChainWalk, span);
        // The walk always selects from a non-empty chain: the reader's GC
        // pivot — the newest version installed before its ticket, which
        // pruning keeps — published its stamp's column 0 before the
        // reader's position was read, so it lies below the position (the
        // T₀ floor, column 0 = 0, is the degenerate case). An empty chain
        // is an item never written: no version, `None`.
        let version = visible.map(|i| &chain[i]).or_else(|| {
            // Unreachable per the GC contract; serve the oldest retained
            // version, attributed truthfully so an audit flags the breach
            // instead of masking it.
            debug_assert!(chain.is_empty(), "snapshot walk descended past its pivot");
            chain.first()
        });
        let writer = version.map_or(TxId::VIRTUAL, |v| v.writer);
        shared.trace.emit(|| TraceEvent::VersionRead { tx: id, item, writer });
        version.and_then(|v| v.value.clone())
    }
}

/// Bounded exponential backoff between restart attempts.
///
/// A restarted transaction re-enters the conflict window immediately, and
/// under a hot-spot restart storm every retry adds load exactly where the
/// system is already saturated: each extra abort increases the reference
/// churn every *other* in-flight validation sees, so the storm feeds
/// itself. Yielding for the first couple of attempts keeps short conflicts
/// cheap; after that the loser sleeps, doubling from 25 µs up to ~1.6 ms,
/// shedding load instead of re-adding it. The jitter (derived from the
/// aborted incarnation's id — this crate deliberately has no `rand`
/// dependency) keeps a crowd of losers from re-colliding in lockstep.
fn restart_backoff(attempt: usize, id_salt: u32) {
    if attempt < 3 {
        std::thread::yield_now();
        return;
    }
    let shift = (attempt - 3).min(4) as u32;
    let base = 25u64 << shift;
    let jitter = (u64::from(id_salt.wrapping_mul(0x9E37_79B9)) >> 16 << shift) >> 11;
    std::thread::sleep(std::time::Duration::from_micros(base + jitter));
}

/// Recover + checkpoint + daemon start for [`Database::open_durable`]:
/// replay any sealed epochs at `config.wal_path` over `store`, start a
/// fresh log whose first epoch checkpoints the merged state under
/// [`crate::durability::CHECKPOINT_TX`], and hand back the `(last id,
/// clock)` pair the counters resume from so recovered history stays
/// monotone.
#[allow(clippy::type_complexity)]
fn durable_parts<V: Clone + Send + WalValue>(
    mut store: Store<V>,
    trace: &TraceSink,
    config: &DurabilityConfig,
) -> std::io::Result<(Store<V>, (u32, u64), Durability<V>, Recovered<V>)> {
    let recovered = recover::<V>(&config.wal_path)?;
    for (item, value) in recovered.store.iter() {
        store.set(item, value.clone());
    }
    let checkpoint: Vec<(ItemId, V)> =
        store.iter().map(|(item, value)| (item, value.clone())).collect();
    let durability =
        Durability::start(config, &checkpoint, recovered.last_lsn + 1, trace.buffer().cloned())?;
    let resume = (recovered.max_tx, recovered.last_lsn);
    Ok((store, resume, durability, recovered))
}

/// What [`Tx::commit`] produced.
enum CommitOutcome {
    /// Committed in memory; on a durable database `wal_epoch` carries the
    /// group-commit epoch whose fsync must be awaited before the commit
    /// may be acknowledged.
    Committed { wal_epoch: Option<u64> },
    /// This incarnation aborted (cleanup already ran).
    Aborted,
}

/// Reusable transaction-local buffers, recycled across restart attempts
/// and — through [`SPARE_SCRATCH`] — across [`Database::run`] calls: after
/// a thread's first transaction grows them, the engine layer runs
/// allocation-free.
struct TxScratch<V> {
    /// Deferred-write workspace (last write per item wins); applied at
    /// commit, cleared on abort.
    writes: Vec<(ItemId, V)>,
    /// Commit-time write-set items, in validation order.
    items: Vec<ItemId>,
    /// Commit-time store-shard indices (sorted, deduped).
    shard_idxs: Vec<usize>,
    /// The values a commit's writes displaced — the value a store insert
    /// replaced, or a version an install overwrote or pruned — held past
    /// the shard locks: their `Drop` is user code, and runs only once the
    /// commit is applied and released.
    displaced: Vec<Option<V>>,
}

impl<V> Default for TxScratch<V> {
    fn default() -> Self {
        TxScratch {
            writes: Vec::new(),
            items: Vec::new(),
            shard_idxs: Vec::new(),
            displaced: Vec::new(),
        }
    }
}

thread_local! {
    /// The workspace this thread's last [`Database::run`] finished with.
    /// Type-erased because a thread-local cannot be generic over `V`; a
    /// thread alternating between value types re-allocates on each switch.
    static SPARE_SCRATCH: Cell<Option<Box<dyn Any>>> = const { Cell::new(None) };
}

/// This thread's spare workspace, or a fresh one when there is none of
/// this type — the first call on a thread, or a `run` nested inside
/// another's body (the outer call holds the spare).
fn take_scratch<V: 'static>() -> Box<TxScratch<V>> {
    SPARE_SCRATCH.take().and_then(|spare| spare.downcast().ok()).unwrap_or_default()
}

/// Write-set sizes up to this many store shards lock without allocating.
const INLINE_SHARDS: usize = 4;

/// The shard guards a commit holds — [`ShardedStore`] shards or chain
/// shards — in the order of `TxScratch::shard_idxs`: the first
/// [`INLINE_SHARDS`] inline, the rest on the heap.
struct HeldShards<G> {
    inline: [Option<G>; INLINE_SHARDS],
    spill: Vec<G>,
}

impl<G> HeldShards<G> {
    /// Locks `idxs` (ascending — the deadlock-freedom order) in turn.
    fn lock(idxs: &[usize], mut lock: impl FnMut(usize) -> G) -> Self {
        let mut held = HeldShards { inline: Default::default(), spill: Vec::new() };
        for (slot, &idx) in idxs.iter().enumerate() {
            let guard = lock(idx);
            match held.inline.get_mut(slot) {
                Some(cell) => *cell = Some(guard),
                None => held.spill.push(guard),
            }
        }
        held
    }

    /// The guard of shard `idx`, one of the locked `idxs`.
    fn shard(&mut self, idxs: &[usize], idx: usize) -> &mut G {
        let slot = idxs.binary_search(&idx).expect("shard of a write-set item was locked");
        match self.inline.get_mut(slot) {
            Some(cell) => cell.as_mut().expect("slot below the locked count"),
            None => &mut self.spill[slot - INLINE_SHARDS],
        }
    }
}

/// A live transaction handle.
pub struct Tx<'a, V> {
    shared: &'a Shared<V>,
    /// The running thread's metric cells (looked up once per `run`).
    cells: Mine<'a, MetricCells>,
    id: TxId,
    epoch: u64,
    scratch: &'a mut TxScratch<V>,
    /// Set from `begin` until the commit or [`cleanup`](Self::cleanup):
    /// while set, dropping the handle aborts the incarnation at the
    /// protocol — the body returned [`Aborted`] on its own or panicked.
    armed: bool,
}

impl<V> Drop for Tx<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            self.scratch.writes.clear();
            self.shared.release(self.id, false);
            self.shared.wake_all();
        }
    }
}

impl<V: Clone + Send + 'static> Tx<'_, V> {
    /// This incarnation's transaction id.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Counts and traces a blocked access of `item`, parks on the wake
    /// sequence until it moves past `seen`, and charges the wait: its
    /// duration in logical ticks goes to the always-on `block_wait_ticks`
    /// histogram (two clock readings), its wall time to the `BlockWait`
    /// phase span when timing is enabled.
    fn blocked_wait(&self, item: ItemId, kind: OpKind, seen: u64) {
        self.cells.add(|c| &c.blocked_waits, 1);
        let tx = self.id;
        self.shared.trace.emit(|| TraceEvent::Blocked { tx, item, kind, wake_seen: seen });
        let t0 = self.shared.metrics.now();
        let span = self.shared.metrics.phases.start();
        self.shared.wake.wait_past(seen);
        self.shared.metrics.phases.record_since(Phase::BlockWait, span);
        let t1 = self.shared.metrics.now();
        self.cells.add(|c| c.block_wait_ticks.bucket(t1.saturating_sub(t0)), 1);
    }

    /// Abort bookkeeping for this incarnation, attributed to `reason`
    /// (the trace layer's abort taxonomy). The workspace is
    /// transaction-local, so dropping the handle discards it.
    fn cleanup(&mut self, reason: AbortReason) {
        self.armed = false;
        self.scratch.writes.clear();
        self.shared.release(self.id, false);
        self.cells.add(|c| &c.aborts, 1);
        self.cells.add(
            |c| match reason {
                AbortReason::AccessRejected => &c.access_aborts,
                // A read-bound refusal is a commit-time validation abort.
                AbortReason::ValidationRejected | AbortReason::ReadBound => &c.validation_aborts,
                AbortReason::Epoch => &c.epoch_aborts,
            },
            1,
        );
        let tx = self.id;
        self.shared.trace.emit(|| TraceEvent::EngineAbort { tx, reason });
        self.shared.wake_all();
    }

    /// Detects an adapter's abort-all epoch change since this incarnation
    /// began. Called once per operation up front, and again after any
    /// grant — the protocol bumps its epoch inside its own critical
    /// section, so a grant obtained from post-reset protocol state is
    /// always detected by the re-check.
    fn epoch_ok(&mut self, cc: &dyn ConcurrentCc) -> bool {
        if cc.epoch() == self.epoch {
            return true;
        }
        self.cleanup(AbortReason::Epoch);
        false
    }

    /// Reads an item (own uncommitted writes are visible; nobody else's
    /// are). `Ok(None)` means the item has never been written.
    pub fn read(&mut self, item: ItemId) -> Result<Option<V>, Aborted> {
        // An incarnation already aborted has no row left to read with.
        if !self.armed {
            return Err(Aborted);
        }
        let (shard_idx, stored) = match &self.shared.engine {
            Engine::Chains(mv) => self.read_chains(mv, item)?,
            Engine::Adapter { cc, store } => {
                // The grant and the fetch it authorizes share the item's
                // shard lock, so a commit of the item cannot apply between.
                let (idx, mut stored) = (store.shard_index(item), None);
                self.adapter_access(&**cc, item, OpKind::Read, |tx| {
                    let shard = store.lock_shard(idx);
                    stored = shard.get(item).cloned();
                    cc.read(tx, item)
                })?;
                (idx, stored)
            }
        };
        self.cells.add(|c| &c.reads, 1);
        self.cells.add(|c| c.shard(shard_idx), 1);
        self.cells.add(|c| &c.clock, 1);
        let own =
            self.scratch.writes.iter().rev().find(|(i, _)| *i == item).map(|(_, v)| v.clone());
        Ok(own.or(stored))
    }

    /// [`read`](Self::read) on the multiversion path: one decision on
    /// the holders in the item's chain record and the newest version,
    /// under that record's shard lock. Returns the shard and the value.
    fn read_chains(
        &mut self,
        mv: &MvState<V>,
        item: ItemId,
    ) -> Result<(usize, Option<V>), Aborted> {
        let idx = mv.store.shard_index(item);
        let mut shard = mv.store.lock_shard(idx);
        let bound = shard.read_bound();
        let (holders, chain) = shard.holders_and_chain(item);
        let stamps = |writer| kept_stamp(chain, writer);
        match mv.sched.access_held(self.id, item, OpKind::Read, holders, bound, stamps) {
            Decision::Accept { .. } => {
                Ok((idx, chain.last().and_then(|newest| newest.value.clone())))
            }
            Decision::Reject(_) => {
                drop(shard);
                self.cleanup(AbortReason::AccessRejected);
                Err(Aborted)
            }
        }
    }

    /// Asks an adapter for this incarnation's access of `item` through
    /// `ask`, waiting out each block: `Ok(true)` when it is granted,
    /// `Ok(false)` when the Thomas rule ignores it, `Err` once the
    /// incarnation is aborted.
    fn adapter_access(
        &mut self,
        cc: &dyn ConcurrentCc,
        item: ItemId,
        kind: OpKind,
        mut ask: impl FnMut(TxId) -> Verdict,
    ) -> Result<bool, Aborted> {
        loop {
            if !self.epoch_ok(cc) {
                return Err(Aborted);
            }
            let seen = self.shared.wake.current();
            let reason = match ask(self.id) {
                Verdict::Blocked => {
                    self.blocked_wait(item, kind, seen);
                    continue;
                }
                Verdict::Abort => AbortReason::AccessRejected,
                Verdict::AbortAll => AbortReason::Epoch,
                // Granted or ignored: a grant from post-reset state shows
                // as a changed epoch.
                verdict if self.epoch_ok(cc) => return Ok(verdict == Verdict::Granted),
                _ => return Err(Aborted), // the re-check aborted it
            };
            self.cleanup(reason);
            return Err(Aborted);
        }
    }

    /// Writes an item into the private workspace (applied at commit). On
    /// the multiversion path that is all it does: MT(k) validates the
    /// write at commit. An adapter is told of the write first, and may
    /// block it, ignore it (Thomas rule) or refuse it.
    pub fn write(&mut self, item: ItemId, value: V) -> Result<(), Aborted> {
        // An incarnation already aborted must not buffer into the
        // workspace its successor inherits.
        if !self.armed {
            return Err(Aborted);
        }
        if let Engine::Adapter { cc, .. } = &self.shared.engine {
            if !self.adapter_access(&**cc, item, OpKind::Write, |tx| cc.write(tx, item))? {
                self.cells.add(|c| &c.ignored_writes, 1);
                return Ok(());
            }
        }
        self.cells.add(|c| &c.writes, 1);
        self.cells.add(|c| &c.clock, 1);
        match self.scratch.writes.iter_mut().find(|(i, _)| *i == item) {
            Some(slot) => slot.1 = value,
            None => self.scratch.writes.push((item, value)),
        }
        Ok(())
    }

    /// Commit: validate deferred writes, frame into the WAL epoch (when
    /// durable), apply, release. The caller awaits the returned WAL
    /// epoch *outside* the commit critical section.
    ///
    /// Every shard of the write set is held, in ascending order, across
    /// validation, WAL framing and apply: the commit is atomic against
    /// any reader (readers hold their item's shard across grant + fetch)
    /// — visible entirely or not at all.
    fn commit(&mut self) -> CommitOutcome {
        if !self.armed {
            return CommitOutcome::Aborted;
        }
        // Deterministic order for validation and apply. The item and
        // shard-index buffers are recycled across restart attempts.
        self.scratch.writes.sort_by_key(|(item, _)| *item);
        self.scratch.items.clear();
        self.scratch.items.extend(self.scratch.writes.iter().map(|(item, _)| *item));
        let shared = self.shared;
        let outcome = match &shared.engine {
            Engine::Adapter { cc, store } => self.commit_adapter(&**cc, store),
            Engine::Chains(mv) => self.commit_chains(mv),
        };
        // The shards are released and the commit is finished: a panicking
        // `Drop` of a displaced value can no longer tear it.
        self.scratch.displaced.clear();
        outcome
    }

    /// [`commit`](Self::commit) into a [`ShardedStore`], validated by the
    /// adapter's own state.
    fn commit_adapter(&mut self, cc: &dyn ConcurrentCc, store: &ShardedStore<V>) -> CommitOutcome {
        if !self.epoch_ok(cc) {
            return CommitOutcome::Aborted;
        }
        self.lock_order(|item| store.shard_index(item));
        let idxs = &self.scratch.shard_idxs;
        let mut held = HeldShards::lock(idxs, |idx| store.lock_shard(idx));
        // A commit granted after an abort-all since begin aborts too.
        let reason = match cc.validate_commit(self.id, &self.scratch.items) {
            CommitDecision::Commit { skip } if cc.epoch() == self.epoch => Ok(skip),
            CommitDecision::Abort => Err(AbortReason::ValidationRejected),
            CommitDecision::Commit { .. } | CommitDecision::AbortAll => Err(AbortReason::Epoch),
        };
        let skip = match reason {
            Ok(skip) => skip,
            Err(reason) => {
                drop(held);
                self.cleanup(reason);
                return CommitOutcome::Aborted;
            }
        };
        let wal_epoch = self.enqueue_wal(&skip);
        for (item, value) in self.scratch.writes.drain(..) {
            if skip.contains(&item) {
                self.cells.add(|c| &c.ignored_writes, 1);
                continue;
            }
            let idx = store.shard_index(item);
            let old = held.shard(&self.scratch.shard_idxs, idx).insert(item, value);
            self.scratch.displaced.push(old);
            self.cells.add(|c| c.shard(idx), 1);
        }
        self.cells.add(|c| &c.clock, 1);
        drop(held);
        self.finish_commit(wal_epoch)
    }

    /// [`commit`](Self::commit) on the multiversion path: each write is
    /// validated against the holders in its item's chain record — the
    /// first refusal aborts the commit — and installed as a version
    /// through the same held guard.
    fn commit_chains(&mut self, mv: &MvState<V>) -> CommitOutcome {
        let store = &*mv.store;
        self.lock_order(|item| store.shard_index(item));
        let (id, idxs) = (self.id, &self.scratch.shard_idxs);
        let mut held = HeldShards::lock(idxs, |idx| store.lock_shard(idx));
        // Writes the Thomas rule ignored are skipped at install.
        let mut skip = Vec::new();
        let refused = self.scratch.items.iter().find_map(|&item| {
            let shard = held.shard(idxs, store.shard_index(item));
            let bound = shard.read_bound();
            let (holders, chain) = shard.holders_and_chain(item);
            let stamps = |writer| kept_stamp(chain, writer);
            match mv.sched.access_held(id, item, OpKind::Write, holders, bound, stamps) {
                Decision::Accept { ignored } => {
                    skip.extend(ignored);
                    None
                }
                Decision::Reject(reject) if reject.by_read_bound() => Some(AbortReason::ReadBound),
                Decision::Reject(_) => Some(AbortReason::ValidationRejected),
            }
        });
        if let Some(reason) = refused {
            drop(held);
            self.cleanup(reason);
            return CommitOutcome::Aborted;
        }
        let wal_epoch = self.enqueue_wal(&skip);
        // Saturate this writer's vector into a frozen stamp once, then
        // install one version per applied write: chain append order
        // equals write-grant order per item, and Thomas-ignored writes
        // install nothing. Each install keeps the version the item's `RT`
        // may be served from (a blind write leaves `RT` naming an older
        // writer), and turns the entries naming this writer stamp-backed:
        // they give up their row references, so the row goes at `finish`.
        if !self.scratch.writes.is_empty() {
            let stamp = Stamp::from(mv.sched.stamp_commit(id));
            let trace = &self.shared.trace;
            for (item, value) in self.scratch.writes.drain(..) {
                if skip.contains(&item) {
                    self.cells.add(|c| &c.ignored_writes, 1);
                    continue;
                }
                let idx = store.shard_index(item);
                let displaced = &mut self.scratch.displaced;
                let shard = held.shard(&self.scratch.shard_idxs, idx);
                let rt = shard.holders(item).rt();
                shard.install(
                    item,
                    id,
                    stamp.clone(),
                    Some(value),
                    (!rt.is_virtual()).then_some(rt),
                    |old| displaced.push(old),
                    |_seq| trace.emit(|| TraceEvent::VersionInstall { writer: id, item }),
                );
                mv.sched.version_installed(id, shard.holders(item));
                self.cells.add(|c| c.shard(idx), 1);
            }
        }
        self.cells.add(|c| &c.clock, 1);
        drop(held);
        self.finish_commit(wal_epoch)
    }

    /// Fills `TxScratch::shard_idxs` with the write set's shards,
    /// ascending and deduplicated: the order a commit locks them in.
    fn lock_order(&mut self, shard_index: impl Fn(ItemId) -> usize) {
        let idxs = &mut self.scratch.shard_idxs;
        idxs.clear();
        idxs.extend(self.scratch.items.iter().map(|&item| shard_index(item)));
        idxs.sort_unstable();
        idxs.dedup();
    }

    /// Durable path: emits the commit event *before* framing the record
    /// — the daemon journals and fsyncs the trace slice ahead of the
    /// epoch's WAL fsync, so every WAL-durable transaction's commit event
    /// reaches the journal first. Then frames the still-undrained write
    /// set (minus the Thomas-skipped items) into the open epoch. Called
    /// under every write-set shard, so log order equals apply order on
    /// every item. `None` without durability.
    fn enqueue_wal(&self, skip: &[ItemId]) -> Option<u64> {
        self.shared.durability.as_ref().map(|wal| {
            let tx = self.id;
            self.shared.trace.emit(|| TraceEvent::Commit { tx });
            wal.enqueue(tx, &self.scratch.writes, skip)
        })
    }

    /// Releases a commit applied in memory, its shards already released:
    /// the protocol's bookkeeping, the commit event (the durable path
    /// emitted it before framing) and, on the adapter path, the wake.
    fn finish_commit(&mut self, wal_epoch: Option<u64>) -> CommitOutcome {
        self.armed = false;
        self.shared.release(self.id, true);
        if wal_epoch.is_none() {
            let tx = self.id;
            self.shared.trace.emit(|| TraceEvent::Commit { tx });
        }
        self.shared.wake_all();
        CommitOutcome::Committed { wal_epoch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A database resumed 3 ids below the limit commits two transfers, then
    /// refuses every admission with a typed error: no id wraps around to
    /// `T₀`'s, and a refused call moves no money.
    #[test]
    fn id_exhaustion_is_fail_stop() {
        // Basic TO keys its state by id in maps, so ids near `u32::MAX` cost
        // nothing (the MT(k) row tables are indexed by id).
        let db: Database<i64> = Database::open(
            crate::cc::BasicToCc::new(true),
            Store::with_items(2, 50),
            TraceSink::disabled(),
        );
        db.shared.next_tx.store(TX_ID_LIMIT - 3, Ordering::Relaxed);
        let transfer = || {
            db.run(0, |tx| {
                let (a, b) = (tx.read(ItemId(0))?.unwrap_or(0), tx.read(ItemId(1))?.unwrap_or(0));
                tx.write(ItemId(0), a - 1)?;
                tx.write(ItemId(1), b + 1)?;
                Ok(tx.id().0)
            })
        };
        assert_eq!(transfer(), Ok(TX_ID_LIMIT - 2));
        assert_eq!(transfer(), Ok(TX_ID_LIMIT - 1));
        assert_eq!(transfer(), Err(TxError::IdsExhausted));
        assert_eq!(transfer(), Err(TxError::IdsExhausted));
        assert_eq!(db.metrics().commits, 2);
        assert_eq!(db.snapshot().into_values().collect::<Vec<_>>(), [48, 52]);
    }

    /// A snapshot transaction has no error to return, so at the limit it
    /// panics — before it asks the scheduler for a row, which is why an
    /// MT(k) database (row table indexed by id) can stand at the limit here.
    #[test]
    #[should_panic(expected = "transaction ids exhausted")]
    fn run_read_only_panics_at_the_id_limit() {
        let db: Database<i64> = Database::open(
            Protocol::Multiversion(ShardedMtCc::new(3)),
            Store::with_items(2, 50),
            TraceSink::disabled(),
        );
        db.shared.next_tx.store(TX_ID_LIMIT - 1, Ordering::Relaxed);
        db.run_read_only(|tx| tx.read(ItemId(0)));
    }
}
