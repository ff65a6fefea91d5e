//! The [`ConcurrencyControl`] trait and one adapter per protocol.
//!
//! All adapters work in the deferred-write discipline (VI-C-2): `write`
//! *announces* a write (locks under 2PL, records elsewhere); value
//! visibility is the engine's business, and the protocols validate the
//! deferred writes in [`ConcurrencyControl::validate_commit`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use mdts_baselines::basic_to::ToVerdict;
use mdts_baselines::{
    BasicTimestampOrdering, IntervalScheduler, LockManager, LockMode, LockOutcome,
    MvTimestampOrdering, Occ,
};
use mdts_core::{
    BatchedCompareStats, Decision, MtOptions, MtScheduler, NaiveComposite, SharedMtScheduler,
};
use mdts_model::{ItemId, TxId};
use mdts_vector::OrderCacheStats;

/// Verdict for one access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Proceed.
    Granted,
    /// Proceed, but the write's value will be discarded (Thomas rule).
    Ignored,
    /// Wait and retry (a lock is held by someone else).
    Blocked,
    /// The transaction must abort and may restart.
    Abort,
    /// Every active transaction must abort (the composite protocol's
    /// all-subprotocols-stopped rule, Algorithm 2 step 4-i).
    AbortAll,
}

/// Verdict at commit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CommitDecision {
    /// Commit; the listed deferred writes are dropped (Thomas rule), the
    /// rest are applied.
    Commit {
        /// Items whose buffered write must not be applied.
        skip: Vec<ItemId>,
    },
    /// The transaction must abort.
    Abort,
    /// Every active transaction must abort.
    AbortAll,
}

impl CommitDecision {
    /// Plain commit.
    pub fn commit() -> Self {
        CommitDecision::Commit { skip: Vec::new() }
    }
}

/// A pluggable concurrency-control protocol.
///
/// Item-granular; value management is the engine's job. Implementations
/// are driven under the engine's global lock, so they need no internal
/// synchronization.
pub trait ConcurrencyControl: Send {
    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// A new transaction begins.
    fn begin(&mut self, tx: TxId);

    /// A restart of `aborted` begins as `new_tx` (protocols with restart
    /// hints — the MT(k) starvation fix, TO's fresh timestamps — use this).
    fn begin_restarted(&mut self, new_tx: TxId, aborted: TxId) {
        let _ = aborted;
        self.begin(new_tx);
    }

    /// Client reads `item`.
    fn read(&mut self, tx: TxId, item: ItemId) -> Verdict;

    /// Client announces a write of `item` (value stays in the private
    /// workspace until commit).
    fn write(&mut self, tx: TxId, item: ItemId) -> Verdict;

    /// Validate the deferred writes and decide the commit.
    fn validate_commit(&mut self, tx: TxId, writes: &[ItemId]) -> CommitDecision;

    /// The transaction committed; release its resources. Returns
    /// transactions whose blocked requests may now proceed.
    fn committed(&mut self, tx: TxId) -> Vec<TxId>;

    /// The transaction aborted; release its resources.
    fn aborted(&mut self, tx: TxId) -> Vec<TxId>;

    /// Write-once order-cache counters, for protocols that keep one
    /// (the MT(k) schedulers). `None` means "no such cache", which the
    /// metrics layer reports as zeros.
    fn order_cache_stats(&self) -> Option<OrderCacheStats> {
        None
    }
}

// ---------------------------------------------------------------------
// MT(k)
// ---------------------------------------------------------------------

/// MT(k) under deferred writes: reads are validated when issued (orders
/// against `RT`/`WT`), writes when the transaction commits — exactly the
/// two-phase-commit variant of Section VI-C-2.
pub struct MtCc {
    sched: MtScheduler,
}

impl MtCc {
    /// MT(k) with default Algorithm 1 options plus the starvation fix
    /// (engines restart transactions, so the fix is the sensible default).
    pub fn new(k: usize) -> Self {
        MtCc::with_options(MtOptions { starvation_flush: true, ..MtOptions::new(k) })
    }

    /// MT(k) with explicit options.
    pub fn with_options(opts: MtOptions) -> Self {
        MtCc { sched: MtScheduler::new(opts) }
    }

    /// Routes the scheduler's decision trace to `sink` (see
    /// [`MtScheduler::attach_trace`]). Attach before handing the protocol
    /// to a [`crate::Database`].
    pub fn attach_trace(&mut self, sink: mdts_trace::TraceSink) {
        self.sched.attach_trace(sink);
    }
}

impl ConcurrencyControl for MtCc {
    fn name(&self) -> &'static str {
        "MT(k)"
    }

    fn begin(&mut self, tx: TxId) {
        self.sched.begin(tx);
    }

    fn begin_restarted(&mut self, new_tx: TxId, aborted: TxId) {
        self.sched.begin_restarted(new_tx, aborted);
    }

    fn read(&mut self, tx: TxId, item: ItemId) -> Verdict {
        match self.sched.read(tx, item) {
            Decision::Accept { .. } => Verdict::Granted,
            Decision::Reject(_) => Verdict::Abort,
        }
    }

    fn write(&mut self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted // deferred: validated at commit
    }

    fn validate_commit(&mut self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        let mut skip = Vec::new();
        for &item in writes {
            match self.sched.write(tx, item) {
                Decision::Accept { ignored } => skip.extend(ignored),
                Decision::Reject(_) => return CommitDecision::Abort,
            }
        }
        CommitDecision::Commit { skip }
    }

    fn committed(&mut self, tx: TxId) -> Vec<TxId> {
        self.sched.commit(tx);
        Vec::new()
    }

    fn aborted(&mut self, tx: TxId) -> Vec<TxId> {
        self.sched.abort(tx);
        Vec::new()
    }

    fn order_cache_stats(&self) -> Option<OrderCacheStats> {
        Some(self.sched.order_cache_stats())
    }
}

// ---------------------------------------------------------------------
// MT(k+)
// ---------------------------------------------------------------------

/// MT(k⁺) under deferred writes, with the paper's rule that when every
/// subprotocol has been stopped, *all* active transactions abort and the
/// subprotocols restart (Algorithm 2, step 4-i).
pub struct CompositeCc {
    k: usize,
    inner: NaiveComposite,
}

impl CompositeCc {
    /// MT(k⁺).
    pub fn new(k: usize) -> Self {
        CompositeCc { k, inner: NaiveComposite::new(k) }
    }

    fn reset(&mut self) {
        self.inner = NaiveComposite::new(self.k);
    }

    fn map(&mut self, d: Decision) -> Verdict {
        match d {
            Decision::Accept { .. } => Verdict::Granted,
            Decision::Reject(_) => {
                // All subprotocols stopped: restart them and signal the
                // epoch change to the engine.
                self.reset();
                Verdict::AbortAll
            }
        }
    }
}

impl ConcurrencyControl for CompositeCc {
    fn name(&self) -> &'static str {
        "MT(k+)"
    }

    fn begin(&mut self, _tx: TxId) {}

    fn read(&mut self, tx: TxId, item: ItemId) -> Verdict {
        let d = self.inner.process(&mdts_model::Operation::read(tx, item));
        self.map(d)
    }

    fn write(&mut self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted
    }

    fn validate_commit(&mut self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        for &item in writes {
            let d = self.inner.process(&mdts_model::Operation::write(tx, item));
            if self.map(d) == Verdict::AbortAll {
                return CommitDecision::AbortAll;
            }
        }
        CommitDecision::commit()
    }

    fn committed(&mut self, _tx: TxId) -> Vec<TxId> {
        Vec::new()
    }

    fn aborted(&mut self, _tx: TxId) -> Vec<TxId> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Strict 2PL
// ---------------------------------------------------------------------

/// Strict two-phase locking: read/write acquire locks (blocking), all
/// locks released at commit or abort; deadlock victims abort.
pub struct TwoPlCc {
    locks: LockManager,
}

impl TwoPlCc {
    /// Fresh lock-based protocol.
    pub fn new() -> Self {
        TwoPlCc { locks: LockManager::new() }
    }
}

impl Default for TwoPlCc {
    fn default() -> Self {
        TwoPlCc::new()
    }
}

impl ConcurrencyControl for TwoPlCc {
    fn name(&self) -> &'static str {
        "2PL"
    }

    fn begin(&mut self, _tx: TxId) {}

    fn read(&mut self, tx: TxId, item: ItemId) -> Verdict {
        match self.locks.request(tx, item, LockMode::Shared) {
            LockOutcome::Granted => Verdict::Granted,
            LockOutcome::Blocked => Verdict::Blocked,
            LockOutcome::Deadlock => Verdict::Abort,
        }
    }

    fn write(&mut self, tx: TxId, item: ItemId) -> Verdict {
        match self.locks.request(tx, item, LockMode::Exclusive) {
            LockOutcome::Granted => Verdict::Granted,
            LockOutcome::Blocked => Verdict::Blocked,
            LockOutcome::Deadlock => Verdict::Abort,
        }
    }

    fn validate_commit(&mut self, _tx: TxId, _writes: &[ItemId]) -> CommitDecision {
        CommitDecision::commit() // exclusive locks already held
    }

    fn committed(&mut self, tx: TxId) -> Vec<TxId> {
        self.locks.release_all(tx)
    }

    fn aborted(&mut self, tx: TxId) -> Vec<TxId> {
        self.locks.release_all(tx)
    }
}

// ---------------------------------------------------------------------
// Basic TO
// ---------------------------------------------------------------------

/// Single-valued timestamp ordering under deferred writes.
pub struct BasicToCc {
    sched: BasicTimestampOrdering,
}

impl BasicToCc {
    /// Basic TO (optionally with the Thomas write rule).
    pub fn new(thomas: bool) -> Self {
        BasicToCc {
            sched: if thomas {
                BasicTimestampOrdering::with_thomas_rule()
            } else {
                BasicTimestampOrdering::new()
            },
        }
    }
}

impl ConcurrencyControl for BasicToCc {
    fn name(&self) -> &'static str {
        "TO(1)"
    }

    fn begin(&mut self, tx: TxId) {
        let _ = self.sched.timestamp(tx);
    }

    fn read(&mut self, tx: TxId, item: ItemId) -> Verdict {
        match self.sched.read(tx, item) {
            ToVerdict::Granted => Verdict::Granted,
            ToVerdict::Ignored => Verdict::Ignored,
            ToVerdict::Abort => Verdict::Abort,
        }
    }

    fn write(&mut self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted
    }

    fn validate_commit(&mut self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        let mut skip = Vec::new();
        for &item in writes {
            match self.sched.write(tx, item) {
                ToVerdict::Granted => {}
                ToVerdict::Ignored => skip.push(item),
                ToVerdict::Abort => return CommitDecision::Abort,
            }
        }
        CommitDecision::Commit { skip }
    }

    fn committed(&mut self, _tx: TxId) -> Vec<TxId> {
        Vec::new()
    }

    fn aborted(&mut self, tx: TxId) -> Vec<TxId> {
        self.sched.forget(tx);
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// OCC
// ---------------------------------------------------------------------

/// Optimistic concurrency control (backward validation).
pub struct OccCc {
    sched: Occ,
}

impl OccCc {
    /// Fresh optimistic protocol.
    pub fn new() -> Self {
        OccCc { sched: Occ::new() }
    }
}

impl Default for OccCc {
    fn default() -> Self {
        OccCc::new()
    }
}

impl ConcurrencyControl for OccCc {
    fn name(&self) -> &'static str {
        "OCC"
    }

    fn begin(&mut self, tx: TxId) {
        self.sched.begin(tx);
    }

    fn read(&mut self, tx: TxId, item: ItemId) -> Verdict {
        self.sched.read(tx, item);
        Verdict::Granted
    }

    fn write(&mut self, tx: TxId, item: ItemId) -> Verdict {
        self.sched.write(tx, item);
        Verdict::Granted
    }

    fn validate_commit(&mut self, tx: TxId, _writes: &[ItemId]) -> CommitDecision {
        if self.sched.commit(tx) {
            CommitDecision::commit()
        } else {
            CommitDecision::Abort
        }
    }

    fn committed(&mut self, _tx: TxId) -> Vec<TxId> {
        Vec::new() // commit already recorded in validate_commit
    }

    fn aborted(&mut self, tx: TxId) -> Vec<TxId> {
        self.sched.abort(tx);
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Intervals
// ---------------------------------------------------------------------

/// Bayer-style dynamic timestamp intervals under deferred writes.
pub struct IntervalCc {
    sched: IntervalScheduler,
}

impl IntervalCc {
    /// Fresh interval protocol. Uses the renormalizing variant: a
    /// long-running engine would otherwise fragment the line to exhaustion
    /// (the Section VI-A critique, reproduced by exp13); renumbering is
    /// the standard remedy and preserves every encoded order.
    pub fn new() -> Self {
        IntervalCc { sched: IntervalScheduler::with_renormalization() }
    }

    /// Shrink statistics (for the Section VI-A comparison).
    pub fn stats(&self) -> mdts_baselines::IntervalStats {
        self.sched.stats()
    }
}

impl Default for IntervalCc {
    fn default() -> Self {
        IntervalCc::new()
    }
}

impl ConcurrencyControl for IntervalCc {
    fn name(&self) -> &'static str {
        "Intervals"
    }

    fn begin(&mut self, _tx: TxId) {}

    fn read(&mut self, tx: TxId, item: ItemId) -> Verdict {
        if self.sched.read(tx, item) {
            Verdict::Granted
        } else {
            Verdict::Abort
        }
    }

    fn write(&mut self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted
    }

    fn validate_commit(&mut self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        for &item in writes {
            if !self.sched.write(tx, item) {
                return CommitDecision::Abort;
            }
        }
        CommitDecision::commit()
    }

    fn committed(&mut self, tx: TxId) -> Vec<TxId> {
        self.sched.finish(tx);
        Vec::new()
    }

    fn aborted(&mut self, tx: TxId) -> Vec<TxId> {
        self.sched.finish(tx);
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// MVTO
// ---------------------------------------------------------------------

/// Reed-style multiversion timestamp ordering (III-D-6d) under deferred
/// writes — the single-valued-timestamp baseline for the engine's
/// multiversion lane. Reads never abort at the protocol level (an old
/// reader is served an old version); only a write that would invalidate
/// an already-served read aborts.
///
/// Scheduling-only, like every other adapter: the engine's single-version
/// store serves the *values*, so a read here may return a newer value
/// than the version MVTO notionally served. The adapter measures MVTO's
/// *acceptance and abort behaviour* (the paper's comparison axis), not
/// value-level multiversion semantics — those live in the engine's own
/// snapshot path.
pub struct MvToCc {
    sched: MvTimestampOrdering,
}

impl MvToCc {
    /// Fresh multiversion TO protocol.
    pub fn new() -> Self {
        MvToCc { sched: MvTimestampOrdering::new() }
    }
}

impl Default for MvToCc {
    fn default() -> Self {
        MvToCc::new()
    }
}

impl ConcurrencyControl for MvToCc {
    fn name(&self) -> &'static str {
        "MVTO"
    }

    fn begin(&mut self, tx: TxId) {
        let _ = self.sched.timestamp(tx);
    }

    fn read(&mut self, tx: TxId, item: ItemId) -> Verdict {
        let _ = self.sched.read(tx, item);
        Verdict::Granted // an old version is always servable
    }

    fn write(&mut self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted // deferred: validated at commit
    }

    fn validate_commit(&mut self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        for &item in writes {
            if !self.sched.write(tx, item) {
                return CommitDecision::Abort;
            }
        }
        CommitDecision::commit()
    }

    fn committed(&mut self, _tx: TxId) -> Vec<TxId> {
        Vec::new()
    }

    fn aborted(&mut self, tx: TxId) -> Vec<TxId> {
        self.sched.purge(tx);
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Concurrent protocols
// ---------------------------------------------------------------------

/// A concurrency-control protocol safe to drive from many threads at
/// once — the sharded engine's native interface.
///
/// Same contract as [`ConcurrencyControl`], but through `&self`:
/// implementations synchronize internally (or wrap a sequential protocol
/// in one mutex, see [`SerializedCc`]). The engine calls `read` while
/// holding the item's *store* shard lock and `validate_commit` while
/// holding every store shard of the write set, so a grant and the value
/// access it authorizes are atomic; implementations must therefore never
/// acquire store shards themselves.
pub trait ConcurrentCc: Send + Sync {
    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// A new transaction begins.
    fn begin(&self, tx: TxId);

    /// A restart of `aborted` begins as `new_tx`.
    fn begin_restarted(&self, new_tx: TxId, aborted: TxId) {
        let _ = aborted;
        self.begin(new_tx);
    }

    /// Client reads `item`.
    fn read(&self, tx: TxId, item: ItemId) -> Verdict;

    /// Client announces a write of `item` (value stays in the private
    /// workspace until commit).
    fn write(&self, tx: TxId, item: ItemId) -> Verdict;

    /// Validate the deferred writes and decide the commit.
    fn validate_commit(&self, tx: TxId, writes: &[ItemId]) -> CommitDecision;

    /// The transaction committed; release its resources.
    fn committed(&self, tx: TxId);

    /// The transaction aborted; release its resources.
    fn aborted(&self, tx: TxId);

    /// Abort-all epoch counter. Protocols that can demand an abort of
    /// every active transaction (the composite's all-subprotocols-stopped
    /// rule) bump this *before* returning the fencing verdict, inside
    /// their own critical section — so any later protocol call by another
    /// thread observes the new epoch. A transaction that was granted an
    /// access or a commit re-checks the epoch it started under and aborts
    /// on mismatch, which closes the race between a reset and in-flight
    /// grants from the fresh state.
    fn epoch(&self) -> u64 {
        0
    }

    /// Write-once order-cache counters, for protocols that keep one.
    /// `None` means "no such cache"; the metrics layer reports zeros.
    fn order_cache_stats(&self) -> Option<OrderCacheStats> {
        None
    }

    /// Point-in-time scheduler gauges, for protocols backed by the
    /// sharded scheduler. `None` means "no such scheduler"; the metrics
    /// layer reports zeros.
    fn scheduler_gauges(&self) -> Option<SchedulerGauges> {
        None
    }

    /// Batched SIMD compare counters (ISSUE 8), for protocols backed by
    /// the sharded scheduler. `None` means "no batched path"; the
    /// metrics layer reports zeros.
    fn batched_compare_stats(&self) -> Option<BatchedCompareStats> {
        None
    }
}

/// Point-in-time occupancy gauges of a concurrent scheduler (see
/// [`ConcurrentCc::scheduler_gauges`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SchedulerGauges {
    /// Live timestamp-vector rows (including `T₀`).
    pub live_rows: u64,
    /// Id-index chunks of the row table built so far (they grow with the
    /// ids issued, 4 bytes per id).
    pub row_chunks: u64,
    /// Row slots the row table's arena has built: the most rows ever live
    /// at once.
    pub row_slots: u64,
}

/// Adapter running any sequential [`ConcurrencyControl`] under one mutex
/// — the drop-in way to use the blocking and optimistic baselines (2PL,
/// TO(1), OCC, intervals, the composite) in the sharded engine. The
/// protocol decision itself is serialized; store access, write buffering
/// and waiting all happen outside the mutex.
pub struct SerializedCc {
    name: &'static str,
    epoch: AtomicU64,
    inner: Mutex<Box<dyn ConcurrencyControl>>,
}

impl SerializedCc {
    /// Wraps a sequential protocol.
    pub fn new(cc: Box<dyn ConcurrencyControl>) -> Self {
        SerializedCc { name: cc.name(), epoch: AtomicU64::new(0), inner: Mutex::new(cc) }
    }

    fn with_inner<T>(&self, f: impl FnOnce(&mut dyn ConcurrencyControl) -> T) -> T {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(g.as_mut())
    }
}

impl ConcurrentCc for SerializedCc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn begin(&self, tx: TxId) {
        self.with_inner(|cc| cc.begin(tx));
    }

    fn begin_restarted(&self, new_tx: TxId, aborted: TxId) {
        self.with_inner(|cc| cc.begin_restarted(new_tx, aborted));
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        self.with_inner(|cc| {
            let v = cc.read(tx, item);
            if v == Verdict::AbortAll {
                // Bumped while still inside the mutex: see ConcurrentCc::epoch.
                self.epoch.fetch_add(1, Ordering::SeqCst);
            }
            v
        })
    }

    fn write(&self, tx: TxId, item: ItemId) -> Verdict {
        self.with_inner(|cc| {
            let v = cc.write(tx, item);
            if v == Verdict::AbortAll {
                self.epoch.fetch_add(1, Ordering::SeqCst);
            }
            v
        })
    }

    fn validate_commit(&self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        self.with_inner(|cc| {
            let d = cc.validate_commit(tx, writes);
            if d == CommitDecision::AbortAll {
                self.epoch.fetch_add(1, Ordering::SeqCst);
            }
            d
        })
    }

    fn committed(&self, tx: TxId) {
        self.with_inner(|cc| cc.committed(tx));
    }

    fn aborted(&self, tx: TxId) {
        self.with_inner(|cc| cc.aborted(tx));
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn order_cache_stats(&self) -> Option<OrderCacheStats> {
        self.with_inner(|cc| cc.order_cache_stats())
    }
}

// ---------------------------------------------------------------------
// Sharded MT(k)
// ---------------------------------------------------------------------

/// MT(k) over the concurrent [`SharedMtScheduler`]: item-sharded
/// `RT`/`WT`, read-mostly vector rows, lock-free k-th-column counters and
/// O(1) refcount reclamation — no mutex spans two different items'
/// decisions. Deferred-write discipline as in [`MtCc`]: reads validate
/// when issued, writes at commit (VI-C-2).
pub struct ShardedMtCc {
    /// Shared with the engine's multiversion serving path (if enabled):
    /// snapshot readers order themselves against writer stamps through the
    /// same scheduler instance the write path validates against.
    sched: Arc<SharedMtScheduler>,
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
        ShardedMtCc { sched: Arc::new(SharedMtScheduler::new(opts)) }
    }

    /// A second handle to the underlying scheduler.
    pub fn scheduler_arc(&self) -> Arc<SharedMtScheduler> {
        Arc::clone(&self.sched)
    }

    /// Routes the scheduler's decision trace to `sink` (see
    /// [`SharedMtScheduler::attach_trace`]). Attach before handing the
    /// protocol to a [`crate::Database`] — the scheduler must not be
    /// shared yet (panics if another handle exists).
    pub fn attach_trace(&mut self, sink: mdts_trace::TraceSink) {
        Arc::get_mut(&mut self.sched)
            .expect("attach_trace before sharing the scheduler")
            .attach_trace(sink);
    }
}

impl ConcurrentCc for ShardedMtCc {
    fn name(&self) -> &'static str {
        "MT(k) sharded"
    }

    fn begin(&self, tx: TxId) {
        self.sched.begin(tx);
    }

    fn begin_restarted(&self, new_tx: TxId, aborted: TxId) {
        self.sched.begin_restarted(new_tx, aborted);
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        match self.sched.read(tx, item) {
            Decision::Accept { .. } => Verdict::Granted,
            Decision::Reject(_) => Verdict::Abort,
        }
    }

    fn write(&self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted // deferred: validated at commit
    }

    fn validate_commit(&self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        let mut skip = Vec::new();
        for &item in writes {
            match self.sched.write(tx, item) {
                Decision::Accept { ignored } => skip.extend(ignored),
                Decision::Reject(_) => return CommitDecision::Abort,
            }
        }
        CommitDecision::Commit { skip }
    }

    fn committed(&self, tx: TxId) {
        self.sched.commit(tx);
    }

    fn aborted(&self, tx: TxId) {
        self.sched.abort(tx);
    }

    fn order_cache_stats(&self) -> Option<OrderCacheStats> {
        Some(self.sched.order_cache_stats())
    }

    fn scheduler_gauges(&self) -> Option<SchedulerGauges> {
        Some(SchedulerGauges {
            live_rows: self.sched.live_rows() as u64,
            row_chunks: self.sched.resident_row_chunks() as u64,
            row_slots: self.sched.row_arena_len() as u64,
        })
    }

    fn batched_compare_stats(&self) -> Option<BatchedCompareStats> {
        Some(self.sched.batched_compare_stats())
    }
}
