//! The database: sharded store + transaction-local write buffers + a
//! concurrent protocol, with a retrying transaction driver.
//!
//! Concurrency model — no global mutex:
//!
//! * **Values** live in a [`ShardedStore`]: items striped over
//!   independently locked shards. A read holds its item's shard across
//!   the protocol grant *and* the value fetch; a commit holds every shard
//!   of its write set (ascending, deadlock-free) across validation *and*
//!   apply. Grants and the data accesses they authorize are therefore
//!   atomic, and a commit becomes visible all-or-nothing — but
//!   transactions touching disjoint shards never serialize on the engine.
//! * **Write buffers are transaction-local** (the deferred-write scheme
//!   of VI-C-2): each [`Tx`] carries its own workspace, so buffering a
//!   write touches no shared state at all.
//! * **Protocol state** is behind [`ConcurrentCc`]: natively concurrent
//!   for the sharded MT(k) ([`crate::ShardedMtCc`]), or a sequential
//!   protocol wrapped in one mutex ([`SerializedCc`]) — the protocol
//!   decision is then serialized, but store access, buffering and waiting
//!   still are not.
//! * **Blocking** (2PL) parks on a wake-sequence condvar: waiters sample
//!   the sequence before asking for the lock and sleep only while it is
//!   unchanged, so a release between decision and sleep is never lost.
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
//! Lock order: store shards (ascending) → protocol internals → wake
//! sequence → WAL epoch buffer. Nothing sleeps while holding a store
//! shard.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use mdts_core::{SharedMtScheduler, SnapshotRead};
use mdts_model::{ItemId, OpKind, TxId};
use mdts_storage::{
    recover, ConcurrentMvStore, CrashPoint, Recovered, Shard, ShardGuard, ShardedStore, Store,
    WalValue, DEFAULT_STORE_SHARDS,
};
use mdts_trace::{AbortReason, StallRule, TraceEvent, TraceSink};
use mdts_vector::CachePadded;

use crate::cc::{
    CommitDecision, ConcurrencyControl, ConcurrentCc, SerializedCc, ShardedMtCc, Verdict,
};
use crate::durability::{Durability, DurabilityConfig, CHECKPOINT_TX};
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

/// The multiversion serving path (MV-MT(k), III-D-6d): a concurrent
/// version-chain store stamped by — and a second handle to — the same
/// sharded MT(k) scheduler the write path validates against. Versions
/// store `Option<V>` so the floor of a never-written item is `None`,
/// matching [`Tx::read`]'s "never written" convention.
struct MvState<V> {
    store: ConcurrentMvStore<Option<V>>,
    sched: Arc<SharedMtScheduler>,
}

struct Shared<V> {
    store: ShardedStore<V>,
    cc: Box<dyn ConcurrentCc>,
    /// `Some` when the database serves read-only snapshot transactions
    /// from version chains (see [`Database::run_read_only`]): built
    /// under [`Protocol::Multiversion`] by [`Database::open`] or
    /// [`Database::open_durable`].
    mv: Option<MvState<V>>,
    /// Last transaction id issued. Every admission writes it, so it has
    /// a cache line to itself: the read-mostly fields around it (`cc`,
    /// `store`, `mv`) stay in every client's cache.
    next_tx: CachePadded<AtomicU32>,
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

    fn wake_all(&self) {
        let seq = self.wake.bump();
        self.trace.emit(|| TraceEvent::Wake { seq });
    }
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

/// The protocol a [`Database`] runs, and with it which serving paths it
/// has. The one argument of [`Database::open`] and
/// [`Database::open_durable`]; the `From` impls let a call site pass a
/// sequential protocol directly.
pub enum Protocol {
    /// A sequential protocol, wrapped in one [`SerializedCc`] mutex.
    Serialized(Box<dyn ConcurrencyControl>),
    /// A natively concurrent protocol.
    Concurrent(Box<dyn ConcurrentCc>),
    /// Sharded MT(k) plus the multiversion serving path (MV-MT(k),
    /// III-D-6d, [`Database::run_read_only`]), whose snapshot readers
    /// order themselves through the scheduler the write path validates.
    Multiversion(ShardedMtCc),
}

impl<C: ConcurrencyControl + 'static> From<C> for Protocol {
    fn from(cc: C) -> Self {
        Protocol::Serialized(Box::new(cc))
    }
}

impl From<Box<dyn ConcurrencyControl>> for Protocol {
    fn from(cc: Box<dyn ConcurrencyControl>) -> Self {
        Protocol::Serialized(cc)
    }
}

impl Protocol {
    /// Hands the database's trace sink to the protocol, before its
    /// scheduler is shared with the multiversion path.
    fn attach_trace(&mut self, sink: TraceSink) {
        match self {
            Protocol::Serialized(cc) => cc.attach_trace(sink),
            Protocol::Concurrent(cc) => cc.attach_trace(sink),
            Protocol::Multiversion(cc) => cc.attach_trace(sink),
        }
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
        mut protocol: Protocol,
        store: Store<V>,
        trace: TraceSink,
        resume: (u32, u64),
        durability: Option<Durability<V>>,
    ) -> Self {
        protocol.attach_trace(trace.clone());
        let (cc, mv): (Box<dyn ConcurrentCc>, _) = match protocol {
            Protocol::Serialized(cc) => (Box::new(SerializedCc::new(cc)), None),
            Protocol::Concurrent(cc) => (cc, None),
            Protocol::Multiversion(cc) => {
                let mv = MvState { store: ConcurrentMvStore::new(), sched: cc.scheduler_arc() };
                (Box::new(cc), Some(mv))
            }
        };
        Database {
            shared: Arc::new(Shared {
                store: ShardedStore::from_store(store, DEFAULT_STORE_SHARDS),
                cc,
                mv,
                next_tx: CachePadded(AtomicU32::new(resume.0)),
                wake: WakeSeq::default(),
                metrics: Metrics::starting_at(resume.1),
                trace,
                durability,
            }),
        }
    }

    /// Hands the group-commit daemon its checkpoint snapshot encoder (a
    /// no-op without durability). The closure captures the store's own
    /// [`ShardedStore::shard_handle`] rather than any reference to
    /// `Shared`, so it never entangles the engine's reference counts — a
    /// rotation racing database teardown snapshots a still-valid store
    /// instead of a dangling engine.
    fn install_wal_checkpoint(&self)
    where
        V: WalValue,
    {
        let Some(durability) = &self.shared.durability else {
            return;
        };
        let store = self.shared.store.shard_handle();
        let mut writes: Vec<(ItemId, V)> = Vec::new();
        durability.install_checkpoint(Box::new(move |buf, lsn| {
            writes.clear();
            writes.extend(store.snapshot());
            mdts_storage::wal::encode_commit(buf, lsn, CHECKPOINT_TX, &writes, &[]);
            true
        }));
    }

    /// Whether the multiversion serving path is enabled.
    pub fn has_multiversion(&self) -> bool {
        self.shared.mv.is_some()
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
        if self.has_multiversion() {
            "MV-MT(k)"
        } else {
            self.shared.cc.name()
        }
    }

    /// Current committed contents (per-shard consistent; run an auditing
    /// transaction for a transactionally consistent view while writers
    /// are active).
    pub fn snapshot(&self) -> std::collections::BTreeMap<ItemId, V> {
        self.shared.store.snapshot()
    }

    /// Current counters and gauges: the engine's cell counters summed,
    /// then every sampled row of the metrics table filled from its source
    /// — the protocol's [`ConcurrentCc::sample`], the MV store and the
    /// write-ahead log. Cheap relative to a window interval (one registry
    /// scan and per-shard read locks), but not a per-transaction call.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot();
        self.shared.cc.sample(&mut snap);
        if let Some(mv) = &self.shared.mv {
            snap.gauges.apply_mv(&mv.store.stats());
        }
        if let Some(wal) = &self.shared.durability {
            wal.sample(&mut snap);
        }
        snap
    }

    /// The subsystem gauges of [`metrics`](Self::metrics): MV chains and
    /// GC, the scheduler's row table, the batched compare path, the WAL.
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
            match prev {
                Some(p) => shared.cc.begin_restarted(id, p),
                None => shared.cc.begin(id),
            }
            shared.metrics.phases.record_since(Phase::Admission, span);
            let epoch = shared.cc.epoch();
            let mut tx = Tx { shared, cells, id, epoch, scratch: &mut *scratch, armed: true };
            if let Ok(value) = body(&mut tx) {
                let span = shared.metrics.phases.start();
                let outcome = tx.commit();
                shared.metrics.phases.record_since(Phase::Commit, span);
                if let CommitOutcome::Committed { wal_epoch } = outcome {
                    Metrics::bump(&cells.commits);
                    let end_tick = shared.metrics.now();
                    cells.latency.record(end_tick.saturating_sub(start_tick));
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
                    Metrics::bump(&cells.wal_unacked);
                    return Err(TxError::DurabilityUnknown);
                }
            }
            // Releases an incarnation the body abandoned before backing off.
            drop(tx);
            prev = Some(id);
            if attempt < max_restarts {
                Metrics::bump(&cells.restarts);
                let span = shared.metrics.phases.start();
                restart_backoff(attempt, id.0);
                shared.metrics.phases.record_since(Phase::Backoff, span);
            }
        }
        Metrics::bump(&cells.gave_up);
        shared.trace.emit(|| TraceEvent::GaveUp {
            tx: prev.expect("at least one attempt ran"),
            restarts: max_restarts as u64,
        });
        Err(TxError::RetriesExhausted)
    }

    /// Runs `body` as a read-only snapshot transaction on the
    /// multiversion serving path: every read slots the reader into the
    /// gap between two chain writers — the MV-MT(k) rule of III-D-6d.
    /// The reader is a real (visible) transaction: it takes `RT`
    /// entries like any reader, which is what pins its reads against
    /// future writers, but a read that cannot be ordered after the
    /// current holders is served from an *older* version instead of
    /// rejected. Snapshot transactions therefore **never abort, never
    /// restart and never block a writer**; `body` runs exactly once and
    /// its value is returned directly.
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
        let mv = shared.mv.as_ref().expect("snapshot transactions need the multiversion path");
        let cells = shared.metrics.cells();
        let start_tick = shared.metrics.now();
        let id = shared.next_id().unwrap_or_else(|| panic!("{}", TxError::IdsExhausted));
        shared.trace.emit(|| TraceEvent::Begin { tx: id });
        // Allocate the reader's row up front so the reads themselves
        // stay allocation-free.
        let span = shared.metrics.phases.start();
        mv.sched.begin(id);
        shared.metrics.phases.record_since(Phase::Admission, span);
        // Register with GC *before* the first read (and therefore before
        // the reader's first vector element is defined): the captured
        // ticket is what keeps pruning away from every version this
        // reader may still descend to.
        let guard = mv.store.begin_snapshot();
        let mut tx = SnapshotTx { shared, mv, cells, id, _guard: guard, armed: true };
        let out = body(&mut tx);
        tx.armed = false;
        let span = shared.metrics.phases.start();
        mv.sched.commit(id);
        shared.metrics.phases.record_since(Phase::Commit, span);
        Metrics::bump(&cells.snapshot_txns);
        Metrics::bump(&cells.commits);
        let end_tick = shared.metrics.now();
        cells.latency.record(end_tick.saturating_sub(start_tick));
        shared.trace.emit(|| TraceEvent::Commit { tx: id });
        out
    }
}

/// A live read-only snapshot transaction (see
/// [`Database::run_read_only`]). Reads cannot fail, so there is no
/// [`Aborted`] plumbing; at `k ≤ 6` a steady-state read makes zero
/// allocations (shard mutexes, row locks, inline vector elements).
pub struct SnapshotTx<'a, V> {
    shared: &'a Shared<V>,
    mv: &'a MvState<V>,
    cells: &'a MetricCells,
    id: TxId,
    _guard: mdts_storage::SnapshotGuard<'a>,
    /// Set from `begin` until the body returns: a body that panics
    /// instead has its reader aborted, so its row does not outlive it.
    armed: bool,
}

impl<V> Drop for SnapshotTx<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            self.mv.sched.abort(self.id);
        }
    }
}

impl<V: Clone + Send + Sync + 'static> SnapshotTx<'_, V> {
    /// This snapshot transaction's id (unique, for trace attribution).
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Reads `item`: the current committed value when the reader orders
    /// after the item's holders ([`SnapshotRead::Current`]), else the
    /// newest chain version whose writer's stamp orders before this
    /// reader. `None` means the item had never been written below the
    /// reader's position.
    pub fn read(&mut self, item: ItemId) -> Option<V> {
        let shared = self.shared;
        let id = self.id;
        let sched = &self.mv.sched;
        Metrics::bump(&self.cells.snapshot_reads);
        self.cells.tick();
        // Pin the item's store shard first (the engine's read lock
        // order). Commits hold every write-set shard across validate +
        // install + apply, so under the shard lock the `RT`/`WT`
        // holders, the version chain and the stored value are mutually
        // consistent: the `WT` holder's version *is* the chain tail and
        // the stored value.
        let shard_idx = shared.store.shard_index(item);
        let shard = shared.store.lock_shard(shard_idx);
        match sched.snapshot_read(id, item) {
            SnapshotRead::Current => {
                // Ordered after both holders and now the RT holder: the
                // current committed value is this reader's version, and
                // every future writer is forced above the reader (or
                // refused without installing), so the read stays the
                // newest one below the reader forever.
                let mv = &self.mv;
                shared.trace.emit(|| {
                    // Chain walk only when a sink is attached — the hot
                    // path never takes the chain lock for tracing.
                    let writer = mv
                        .store
                        .with_chain(item, |chain| chain.last().map(|v| v.writer))
                        .unwrap_or(TxId::VIRTUAL);
                    TraceEvent::VersionRead { tx: id, item, writer }
                });
                shard.get(item).cloned()
            }
            SnapshotRead::Older => {
                // Decided below one of the current holders — protected
                // transitively, but the current value may be too new.
                // Walk the chain newest → oldest: the first version
                // whose (saturated) stamp orders before the reader is
                // the one to serve; every newer version's stamp was
                // decided *greater*, and write-once vectors keep those
                // decisions stable. The walk always selects: the
                // reader's pivot — the newest version installed before
                // its begin ticket, which GC never reclaims —
                // fetch-maxed its stamp into the column maxima before
                // the reader's first (boosted) element was defined, so
                // the reader orders strictly after it (the T₀ floor,
                // stamped ⟨0,*,…⟩, is the degenerate case).
                let span = shared.metrics.phases.start();
                let selected = self.mv.store.with_chain(item, |chain| {
                    // ISSUE 8: one batched SIMD compare of the reader
                    // against the whole segment replaces per-version
                    // lock/compare round-trips; only a version whose
                    // order is still open falls back to the define loop.
                    if let Some(i) = sched.snapshot_newest_visible(
                        id,
                        chain.len(),
                        |i| &chain[i].stamp,
                        |i| chain[i].writer,
                    ) {
                        let writer = chain[i].writer;
                        shared.trace.emit(|| TraceEvent::VersionRead { tx: id, item, writer });
                        return Some(chain[i].value.clone());
                    }
                    let oldest = chain.first()?;
                    // Unreachable per the GC contract; serve the oldest
                    // retained version, attributed truthfully so an
                    // audit flags the ordering breach instead of
                    // masking it.
                    debug_assert!(false, "snapshot walk descended past its pivot");
                    let writer = oldest.writer;
                    shared.trace.emit(|| TraceEvent::VersionRead { tx: id, item, writer });
                    Some(oldest.value.clone())
                });
                shared.metrics.phases.record_since(Phase::ChainWalk, span);
                selected.unwrap_or_else(|| {
                    // Empty chain: the item has never been written (the
                    // outranking holder is a reader, or a writer whose
                    // write was Thomas-ignored), so the base value is
                    // the one below every transaction.
                    let base = shard.get(item).cloned();
                    shared.trace.emit(|| TraceEvent::VersionRead {
                        tx: id,
                        item,
                        writer: TxId::VIRTUAL,
                    });
                    base
                })
            }
        }
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
}

impl<V> Default for TxScratch<V> {
    fn default() -> Self {
        TxScratch { writes: Vec::new(), items: Vec::new(), shard_idxs: Vec::new() }
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

/// The store-shard guards a commit holds, in the order of
/// `TxScratch::shard_idxs`: the first [`INLINE_SHARDS`] inline, the rest
/// on the heap.
struct HeldShards<'a, V> {
    inline: [Option<ShardGuard<'a, V>>; INLINE_SHARDS],
    spill: Vec<ShardGuard<'a, V>>,
}

impl<'a, V: Clone> HeldShards<'a, V> {
    /// Locks `idxs` (ascending — the deadlock-freedom order) in turn.
    fn lock(store: &'a ShardedStore<V>, idxs: &[usize]) -> Self {
        let mut held = HeldShards { inline: Default::default(), spill: Vec::new() };
        for (slot, &idx) in idxs.iter().enumerate() {
            let guard = store.lock_shard(idx);
            match held.inline.get_mut(slot) {
                Some(cell) => *cell = Some(guard),
                None => held.spill.push(guard),
            }
        }
        held
    }

    /// The shard locked for position `slot` of the index list.
    fn shard(&mut self, slot: usize) -> &mut Shard<V> {
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
    cells: &'a MetricCells,
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
            self.shared.cc.aborted(self.id);
            self.shared.wake_all();
        }
    }
}

impl<V: Clone + Send + 'static> Tx<'_, V> {
    /// This incarnation's transaction id.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Parks on the wake sequence and charges the wait: its duration in
    /// logical ticks goes to the always-on `block_wait_ticks` histogram
    /// (two clock readings), its wall time to the `BlockWait` phase span
    /// when timing is enabled.
    fn blocked_wait(&self, seen: u64) {
        let t0 = self.shared.metrics.now();
        let span = self.shared.metrics.phases.start();
        self.shared.wake.wait_past(seen);
        self.shared.metrics.phases.record_since(Phase::BlockWait, span);
        let t1 = self.shared.metrics.now();
        self.cells.block_wait_ticks.record(t1.saturating_sub(t0));
    }

    /// Abort bookkeeping for this incarnation, attributed to `reason`
    /// (the trace layer's abort taxonomy). The workspace is
    /// transaction-local, so dropping the handle discards it.
    fn cleanup(&mut self, reason: AbortReason) {
        self.armed = false;
        self.scratch.writes.clear();
        self.shared.cc.aborted(self.id);
        Metrics::bump(&self.cells.aborts);
        Metrics::bump(match reason {
            AbortReason::AccessRejected => &self.cells.access_aborts,
            AbortReason::ValidationRejected => &self.cells.validation_aborts,
            AbortReason::Epoch => &self.cells.epoch_aborts,
        });
        let tx = self.id;
        self.shared.trace.emit(|| TraceEvent::EngineAbort { tx, reason });
        self.shared.wake_all();
    }

    /// Detects an abort-all epoch change since this incarnation began.
    /// Called once per operation up front, and again after any grant —
    /// the protocol bumps its epoch inside its own critical section, so a
    /// grant obtained from post-reset protocol state is always detected
    /// by the re-check.
    fn epoch_ok(&mut self) -> bool {
        if self.shared.cc.epoch() == self.epoch {
            return true;
        }
        self.cleanup(AbortReason::Epoch);
        false
    }

    /// Reads an item (own uncommitted writes are visible; nobody else's
    /// are). `Ok(None)` means the item has never been written.
    pub fn read(&mut self, item: ItemId) -> Result<Option<V>, Aborted> {
        loop {
            if !self.epoch_ok() {
                return Err(Aborted);
            }
            let seen = self.shared.wake.current();
            // Hold the item's store shard across grant + fetch: a
            // concurrent commit of this item cannot apply in between, so
            // the value read is exactly the one the grant authorized.
            let verdict = {
                let shard_idx = self.shared.store.shard_index(item);
                let shard = self.shared.store.lock_shard(shard_idx);
                let v = self.shared.cc.read(self.id, item);
                if matches!(v, Verdict::Granted | Verdict::Ignored) {
                    let stored = shard.get(item).cloned();
                    drop(shard);
                    if !self.epoch_ok() {
                        return Err(Aborted);
                    }
                    Metrics::bump(&self.cells.reads);
                    self.cells.bump_shard(shard_idx);
                    self.cells.tick();
                    let own = self
                        .scratch
                        .writes
                        .iter()
                        .rev()
                        .find(|(i, _)| *i == item)
                        .map(|(_, v)| v.clone());
                    return Ok(own.or(stored));
                }
                v
            };
            match verdict {
                Verdict::Blocked => {
                    Metrics::bump(&self.cells.blocked_waits);
                    let tx = self.id;
                    self.shared.trace.emit(|| TraceEvent::Blocked {
                        tx,
                        item,
                        kind: OpKind::Read,
                        wake_seen: seen,
                    });
                    self.blocked_wait(seen);
                }
                Verdict::Abort => {
                    self.cleanup(AbortReason::AccessRejected);
                    return Err(Aborted);
                }
                Verdict::AbortAll => {
                    self.cleanup(AbortReason::Epoch);
                    return Err(Aborted);
                }
                Verdict::Granted | Verdict::Ignored => unreachable!("handled under the shard"),
            }
        }
    }

    /// Writes an item into the private workspace (applied at commit).
    pub fn write(&mut self, item: ItemId, value: V) -> Result<(), Aborted> {
        loop {
            if !self.epoch_ok() {
                return Err(Aborted);
            }
            let seen = self.shared.wake.current();
            // No store access here — the value stays transaction-local
            // until commit, so no shard lock is needed either.
            match self.shared.cc.write(self.id, item) {
                Verdict::Granted => {
                    if !self.epoch_ok() {
                        return Err(Aborted);
                    }
                    Metrics::bump(&self.cells.writes);
                    self.cells.tick();
                    match self.scratch.writes.iter_mut().find(|(i, _)| *i == item) {
                        Some(slot) => slot.1 = value,
                        None => self.scratch.writes.push((item, value)),
                    }
                    return Ok(());
                }
                Verdict::Ignored => {
                    Metrics::bump(&self.cells.ignored_writes);
                    return Ok(());
                }
                Verdict::Blocked => {
                    Metrics::bump(&self.cells.blocked_waits);
                    let tx = self.id;
                    self.shared.trace.emit(|| TraceEvent::Blocked {
                        tx,
                        item,
                        kind: OpKind::Write,
                        wake_seen: seen,
                    });
                    self.blocked_wait(seen);
                }
                Verdict::Abort => {
                    self.cleanup(AbortReason::AccessRejected);
                    return Err(Aborted);
                }
                Verdict::AbortAll => {
                    self.cleanup(AbortReason::Epoch);
                    return Err(Aborted);
                }
            }
        }
    }

    /// Commit: validate deferred writes, frame into the WAL epoch (when
    /// durable), apply, release. The caller awaits the returned WAL
    /// epoch *outside* the commit critical section.
    fn commit(&mut self) -> CommitOutcome {
        if !self.epoch_ok() {
            return CommitOutcome::Aborted;
        }
        // Deterministic order for validation and apply, and the ascending
        // shard order the deadlock-freedom argument needs. The item and
        // shard-index buffers are recycled across restart attempts.
        self.scratch.writes.sort_by_key(|(item, _)| *item);
        self.scratch.items.clear();
        self.scratch.items.extend(self.scratch.writes.iter().map(|(item, _)| *item));
        self.scratch.shard_idxs.clear();
        self.scratch
            .shard_idxs
            .extend(self.scratch.items.iter().map(|&i| self.shared.store.shard_index(i)));
        self.scratch.shard_idxs.sort_unstable();
        self.scratch.shard_idxs.dedup();
        // Hold every write-set shard across validate + apply: the commit
        // is atomic against any reader (readers hold their item's shard
        // across grant + fetch) — visible entirely or not at all.
        let mut guards = HeldShards::lock(&self.shared.store, &self.scratch.shard_idxs);
        match self.shared.cc.validate_commit(self.id, &self.scratch.items) {
            CommitDecision::Commit { skip } => {
                if self.shared.cc.epoch() != self.epoch {
                    drop(guards);
                    self.cleanup(AbortReason::Epoch);
                    return CommitOutcome::Aborted;
                }
                // Durable path: emit the commit event *before* framing
                // the record — the daemon journals and fsyncs the trace
                // slice ahead of the epoch's WAL fsync, so every
                // WAL-durable transaction's commit event reaches the
                // journal first. Then frame the still-undrained write
                // set (minus the Thomas-skipped items) into the open
                // epoch. Both happen under every write-set shard, so
                // log order equals apply order on every item.
                let wal_epoch = self.shared.durability.as_ref().map(|wal| {
                    let tx = self.id;
                    self.shared.trace.emit(|| TraceEvent::Commit { tx });
                    wal.enqueue(tx, &self.scratch.writes, &skip)
                });
                // Multiversion path: saturate this writer's vector into a
                // frozen stamp once, then install one version per applied
                // write. Still under every write-set store shard, so chain
                // append order equals write-grant order per item, and
                // Thomas-ignored writes install nothing.
                let mv_stamp = match &self.shared.mv {
                    Some(mv) if !self.scratch.writes.is_empty() => {
                        Some((mv, mv.sched.stamp_commit(self.id)))
                    }
                    _ => None,
                };
                for (item, value) in self.scratch.writes.drain(..) {
                    if skip.contains(&item) {
                        Metrics::bump(&self.cells.ignored_writes);
                        continue;
                    }
                    let shard_idx = self.shared.store.shard_index(item);
                    let slot = self
                        .scratch
                        .shard_idxs
                        .binary_search(&shard_idx)
                        .expect("shard of a write-set item was locked");
                    if let Some((mv, stamp)) = &mv_stamp {
                        let id = self.id;
                        let trace = &self.shared.trace;
                        mv.store.install_with(
                            item,
                            id,
                            stamp.clone(),
                            Some(value.clone()),
                            // The pre-apply store value seeds the chain
                            // floor (attributed to T₀) — read from the
                            // held guard on a chain's first install only.
                            || guards.shard(slot).get(item).cloned(),
                            |_seq| trace.emit(|| TraceEvent::VersionInstall { writer: id, item }),
                        );
                    }
                    guards.shard(slot).insert(item, value);
                    self.cells.bump_shard(shard_idx);
                }
                self.cells.tick();
                drop(guards);
                self.armed = false;
                self.shared.cc.committed(self.id);
                if wal_epoch.is_none() {
                    let tx = self.id;
                    self.shared.trace.emit(|| TraceEvent::Commit { tx });
                }
                self.shared.wake_all();
                CommitOutcome::Committed { wal_epoch }
            }
            CommitDecision::Abort => {
                drop(guards);
                self.cleanup(AbortReason::ValidationRejected);
                CommitOutcome::Aborted
            }
            CommitDecision::AbortAll => {
                drop(guards);
                self.cleanup(AbortReason::Epoch);
                CommitOutcome::Aborted
            }
        }
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
