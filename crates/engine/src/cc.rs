//! The [`ConcurrentCc`] trait and one adapter per protocol.
//!
//! All adapters work in the deferred-write discipline (VI-C-2): `write`
//! *announces* a write (locks under 2PL, records elsewhere); value
//! visibility is the engine's business, and the protocols validate the
//! deferred writes in [`ConcurrentCc::validate_commit`]. Each adapter
//! holds its sequential scheduler behind one mutex of its own.
//!
//! The multiversion engine's MT(k) is not an adapter: MT(k) never waits
//! and has no abort-all epoch, so that engine calls its
//! [`mdts_core::SharedMtScheduler`] directly (built by
//! [`ShardedMtCc`](crate::ShardedMtCc)) and never reaches this trait.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use mdts_baselines::basic_to::ToVerdict;
use mdts_baselines::{
    BasicTimestampOrdering, IntervalScheduler, LockManager, LockMode, LockOutcome,
    MvTimestampOrdering, Occ,
};
use mdts_core::{Decision, MtOptions, MtScheduler, NaiveComposite};
use mdts_model::{ItemId, Operation, TxId};
use mdts_trace::TraceSink;

use crate::metrics::MetricsSnapshot;

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

/// A concurrency-control protocol behind a mutex adapter, driven from
/// many client threads at once.
///
/// Item-granular; value management is the engine's job. Every adapter
/// keeps its sequential scheduler behind a mutex of its own, so its
/// decisions are serialized while store access, write buffering and
/// waiting are not. The engine calls `read` while holding the item's
/// *store* shard lock and `validate_commit` while holding every store
/// shard of the write set, so a grant and the value access it authorizes
/// are atomic; implementations must therefore never acquire store shards
/// themselves. The trait carries what only some adapters need — 2PL's
/// [`Verdict::Blocked`], MT(k⁺)'s abort-all [`epoch`](Self::epoch) —
/// which is why the multiversion engine does not go through it.
pub trait ConcurrentCc: Send + Sync {
    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// A new transaction begins. Protocols with nothing to register keep
    /// the default, which does nothing.
    fn begin(&self, tx: TxId) {
        let _ = tx;
    }

    /// A restart of `aborted` begins as `new_tx` (protocols with restart
    /// hints — the MT(k) starvation fix, TO's fresh timestamps — use this).
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

    /// The transaction committed; release its resources (the engine wakes
    /// any blocked waiters itself). The default does nothing.
    fn committed(&self, tx: TxId) {
        let _ = tx;
    }

    /// The transaction aborted; release its resources. The default does
    /// nothing.
    fn aborted(&self, tx: TxId) {
        let _ = tx;
    }

    /// Abort-all epoch counter. Only MT(k⁺) ([`CompositeCc`]) overrides
    /// it: its all-subprotocols-stopped rule demands an abort of every
    /// active transaction, and it bumps the epoch *before* returning that
    /// verdict, inside its own critical section — so any later protocol
    /// call by another thread observes the new epoch. A transaction that
    /// was granted an access or a commit re-checks the epoch it started
    /// under and aborts on mismatch, which closes the race between a reset
    /// and in-flight grants from the fresh state.
    fn epoch(&self) -> u64 {
        0
    }

    /// Routes the protocol's decision trace to `sink`. [`crate::Database`]
    /// calls this with its own sink before the protocol is shared;
    /// protocols that trace nothing ignore it.
    fn attach_trace(&mut self, sink: TraceSink) {
        let _ = sink;
    }

    /// Fills the protocol's own rows of the metrics table (sampled
    /// counters and gauges); protocols that keep none leave `snap` alone.
    fn sample(&self, snap: &mut MetricsSnapshot) {
        let _ = snap;
    }
}

/// Locks a sequential scheduler. Poison-tolerant: a panic inside one
/// protocol call must not take every later client down with it.
fn lock<T>(sched: &Mutex<T>) -> MutexGuard<'_, T> {
    sched.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// MT(k)
// ---------------------------------------------------------------------

/// MT(k) under deferred writes: reads are validated when issued (orders
/// against `RT`/`WT`), writes when the transaction commits — exactly the
/// two-phase-commit variant of Section VI-C-2.
pub struct MtCc {
    sched: Mutex<MtScheduler>,
}

impl MtCc {
    /// MT(k) with default Algorithm 1 options plus the starvation fix
    /// (engines restart transactions, so the fix is the sensible default).
    pub fn new(k: usize) -> Self {
        MtCc::with_options(MtOptions { starvation_flush: true, ..MtOptions::new(k) })
    }

    /// MT(k) with explicit options.
    pub fn with_options(opts: MtOptions) -> Self {
        MtCc { sched: Mutex::new(MtScheduler::new(opts)) }
    }
}

impl ConcurrentCc for MtCc {
    fn name(&self) -> &'static str {
        "MT(k)"
    }

    fn begin(&self, tx: TxId) {
        lock(&self.sched).begin(tx);
    }

    fn begin_restarted(&self, new_tx: TxId, aborted: TxId) {
        lock(&self.sched).begin_restarted(new_tx, aborted);
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        match lock(&self.sched).read(tx, item) {
            Decision::Accept { .. } => Verdict::Granted,
            Decision::Reject(_) => Verdict::Abort,
        }
    }

    fn write(&self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted // deferred: validated at commit
    }

    fn validate_commit(&self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        let mut sched = lock(&self.sched);
        let mut skip = Vec::new();
        for &item in writes {
            match sched.write(tx, item) {
                Decision::Accept { ignored } => skip.extend(ignored),
                Decision::Reject(_) => return CommitDecision::Abort,
            }
        }
        CommitDecision::Commit { skip }
    }

    fn committed(&self, tx: TxId) {
        // The engine journals the commit.
        lock(&self.sched).commit_unjournaled(tx);
    }

    fn aborted(&self, tx: TxId) {
        lock(&self.sched).abort(tx);
    }

    fn attach_trace(&mut self, sink: TraceSink) {
        self.sched.get_mut().unwrap_or_else(PoisonError::into_inner).attach_trace(sink);
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
    inner: Mutex<NaiveComposite>,
    /// Abort-all verdicts so far ([`ConcurrentCc::epoch`]), bumped while
    /// `inner` is still locked.
    epoch: AtomicU64,
}

impl CompositeCc {
    /// MT(k⁺).
    pub fn new(k: usize) -> Self {
        CompositeCc { k, inner: Mutex::new(NaiveComposite::new(k)), epoch: AtomicU64::new(0) }
    }

    /// Runs `op` through the subprotocols; `false` when every one of them
    /// has stopped. The subprotocols then restart and the epoch advances,
    /// both before the caller's lock on `inner` is released.
    fn accept(&self, inner: &mut NaiveComposite, op: &Operation) -> bool {
        match inner.process(op) {
            Decision::Accept { .. } => true,
            Decision::Reject(_) => {
                *inner = NaiveComposite::new(self.k);
                self.epoch.fetch_add(1, Ordering::SeqCst);
                false
            }
        }
    }
}

impl ConcurrentCc for CompositeCc {
    fn name(&self) -> &'static str {
        "MT(k+)"
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        if self.accept(&mut lock(&self.inner), &Operation::read(tx, item)) {
            Verdict::Granted
        } else {
            Verdict::AbortAll
        }
    }

    fn write(&self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted
    }

    fn validate_commit(&self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        let mut inner = lock(&self.inner);
        for &item in writes {
            if !self.accept(&mut inner, &Operation::write(tx, item)) {
                return CommitDecision::AbortAll;
            }
        }
        CommitDecision::commit()
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Strict 2PL
// ---------------------------------------------------------------------

/// Strict two-phase locking: read/write acquire locks (blocking), all
/// locks released at commit or abort; deadlock victims abort.
pub struct TwoPlCc {
    locks: Mutex<LockManager>,
}

impl TwoPlCc {
    /// Fresh lock-based protocol.
    pub fn new() -> Self {
        TwoPlCc { locks: Mutex::new(LockManager::new()) }
    }

    fn request(&self, tx: TxId, item: ItemId, mode: LockMode) -> Verdict {
        match lock(&self.locks).request(tx, item, mode) {
            LockOutcome::Granted => Verdict::Granted,
            LockOutcome::Blocked => Verdict::Blocked,
            LockOutcome::Deadlock => Verdict::Abort,
        }
    }
}

impl Default for TwoPlCc {
    fn default() -> Self {
        TwoPlCc::new()
    }
}

impl ConcurrentCc for TwoPlCc {
    fn name(&self) -> &'static str {
        "2PL"
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        self.request(tx, item, LockMode::Shared)
    }

    fn write(&self, tx: TxId, item: ItemId) -> Verdict {
        self.request(tx, item, LockMode::Exclusive)
    }

    fn validate_commit(&self, _tx: TxId, _writes: &[ItemId]) -> CommitDecision {
        CommitDecision::commit() // exclusive locks already held
    }

    fn committed(&self, tx: TxId) {
        lock(&self.locks).release_all(tx);
    }

    fn aborted(&self, tx: TxId) {
        lock(&self.locks).release_all(tx);
    }
}

// ---------------------------------------------------------------------
// Basic TO
// ---------------------------------------------------------------------

/// Single-valued timestamp ordering under deferred writes.
pub struct BasicToCc {
    sched: Mutex<BasicTimestampOrdering>,
}

impl BasicToCc {
    /// Basic TO (optionally with the Thomas write rule).
    pub fn new(thomas: bool) -> Self {
        let sched = if thomas {
            BasicTimestampOrdering::with_thomas_rule()
        } else {
            BasicTimestampOrdering::new()
        };
        BasicToCc { sched: Mutex::new(sched) }
    }
}

impl ConcurrentCc for BasicToCc {
    fn name(&self) -> &'static str {
        "TO(1)"
    }

    fn begin(&self, tx: TxId) {
        let _ = lock(&self.sched).timestamp(tx);
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        match lock(&self.sched).read(tx, item) {
            ToVerdict::Granted => Verdict::Granted,
            ToVerdict::Ignored => Verdict::Ignored,
            ToVerdict::Abort => Verdict::Abort,
        }
    }

    fn write(&self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted
    }

    fn validate_commit(&self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        let mut sched = lock(&self.sched);
        let mut skip = Vec::new();
        for &item in writes {
            match sched.write(tx, item) {
                ToVerdict::Granted => {}
                ToVerdict::Ignored => skip.push(item),
                ToVerdict::Abort => return CommitDecision::Abort,
            }
        }
        CommitDecision::Commit { skip }
    }

    fn aborted(&self, tx: TxId) {
        lock(&self.sched).forget(tx);
    }
}

// ---------------------------------------------------------------------
// OCC
// ---------------------------------------------------------------------

/// Optimistic concurrency control (backward validation).
pub struct OccCc {
    sched: Mutex<Occ>,
}

impl OccCc {
    /// Fresh optimistic protocol.
    pub fn new() -> Self {
        OccCc { sched: Mutex::new(Occ::new()) }
    }
}

impl Default for OccCc {
    fn default() -> Self {
        OccCc::new()
    }
}

impl ConcurrentCc for OccCc {
    fn name(&self) -> &'static str {
        "OCC"
    }

    fn begin(&self, tx: TxId) {
        lock(&self.sched).begin(tx);
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        lock(&self.sched).read(tx, item);
        Verdict::Granted
    }

    fn write(&self, tx: TxId, item: ItemId) -> Verdict {
        lock(&self.sched).write(tx, item);
        Verdict::Granted
    }

    /// Validates and records the commit; `committed` has nothing left to do.
    fn validate_commit(&self, tx: TxId, _writes: &[ItemId]) -> CommitDecision {
        if lock(&self.sched).commit(tx) {
            CommitDecision::commit()
        } else {
            CommitDecision::Abort
        }
    }

    fn aborted(&self, tx: TxId) {
        lock(&self.sched).abort(tx);
    }
}

// ---------------------------------------------------------------------
// Intervals
// ---------------------------------------------------------------------

/// Bayer-style dynamic timestamp intervals under deferred writes.
pub struct IntervalCc {
    sched: Mutex<IntervalScheduler>,
}

impl IntervalCc {
    /// Fresh interval protocol. Uses the renormalizing variant: a
    /// long-running engine would otherwise fragment the line to exhaustion
    /// (the Section VI-A critique, reproduced by exp13); renumbering is
    /// the standard remedy and preserves every encoded order.
    pub fn new() -> Self {
        IntervalCc { sched: Mutex::new(IntervalScheduler::with_renormalization()) }
    }

    /// Shrink statistics (for the Section VI-A comparison).
    pub fn stats(&self) -> mdts_baselines::IntervalStats {
        lock(&self.sched).stats()
    }
}

impl Default for IntervalCc {
    fn default() -> Self {
        IntervalCc::new()
    }
}

impl ConcurrentCc for IntervalCc {
    fn name(&self) -> &'static str {
        "Intervals"
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        if lock(&self.sched).read(tx, item) {
            Verdict::Granted
        } else {
            Verdict::Abort
        }
    }

    fn write(&self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted
    }

    fn validate_commit(&self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        let mut sched = lock(&self.sched);
        if writes.iter().all(|&item| sched.write(tx, item)) {
            CommitDecision::commit()
        } else {
            CommitDecision::Abort
        }
    }

    fn committed(&self, tx: TxId) {
        lock(&self.sched).finish(tx);
    }

    fn aborted(&self, tx: TxId) {
        lock(&self.sched).finish(tx);
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
    sched: Mutex<MvTimestampOrdering>,
}

impl MvToCc {
    /// Fresh multiversion TO protocol.
    pub fn new() -> Self {
        MvToCc { sched: Mutex::new(MvTimestampOrdering::new()) }
    }
}

impl Default for MvToCc {
    fn default() -> Self {
        MvToCc::new()
    }
}

impl ConcurrentCc for MvToCc {
    fn name(&self) -> &'static str {
        "MVTO"
    }

    fn begin(&self, tx: TxId) {
        let _ = lock(&self.sched).timestamp(tx);
    }

    fn read(&self, tx: TxId, item: ItemId) -> Verdict {
        let _ = lock(&self.sched).read(tx, item);
        Verdict::Granted // an old version is always servable
    }

    fn write(&self, _tx: TxId, _item: ItemId) -> Verdict {
        Verdict::Granted // deferred: validated at commit
    }

    fn validate_commit(&self, tx: TxId, writes: &[ItemId]) -> CommitDecision {
        let mut sched = lock(&self.sched);
        if writes.iter().all(|&item| sched.write(tx, item)) {
            CommitDecision::commit()
        } else {
            CommitDecision::Abort
        }
    }

    fn aborted(&self, tx: TxId) {
        lock(&self.sched).purge(tx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// MT(1⁺) driven through the trait: grants leave the epoch alone, each
    /// all-subprotocols-stopped verdict advances it by exactly one — from
    /// `read` and from `validate_commit` — and the call after it runs
    /// against fresh subprotocols.
    #[test]
    fn composite_owns_its_abort_all_epoch() {
        let composite = CompositeCc::new(1);
        let cc: &dyn ConcurrentCc = &composite;
        let [t1, t2, t3, t4] = [1, 2, 3, 4].map(TxId);
        let [x, y, a, b] = [0, 1, 2, 3].map(ItemId);

        // R1(x) W2(x) orders T1 before T2; R1(y) after W2(y) needs T2 first.
        assert_eq!(cc.read(t1, x), Verdict::Granted);
        assert_eq!(cc.validate_commit(t2, &[x, y]), CommitDecision::commit());
        assert_eq!(cc.epoch(), 0);
        assert_eq!(cc.read(t1, y), Verdict::AbortAll);
        assert_eq!(cc.epoch(), 1);
        assert_eq!(cc.read(t1, y), Verdict::Granted, "the reset forgot W2(y)");
        assert_eq!(cc.epoch(), 1);

        // R3(a) R4(b) W4(a) orders T3 before T4; W3(b) needs T4 first.
        assert_eq!(cc.read(t3, a), Verdict::Granted);
        assert_eq!(cc.read(t4, b), Verdict::Granted);
        assert_eq!(cc.validate_commit(t4, &[a]), CommitDecision::commit());
        assert_eq!(cc.epoch(), 1);
        assert_eq!(cc.validate_commit(t3, &[b]), CommitDecision::AbortAll);
        assert_eq!(cc.epoch(), 2);
        assert_eq!(
            cc.validate_commit(t3, &[b]),
            CommitDecision::commit(),
            "the reset forgot R4(b)"
        );
        assert_eq!(cc.epoch(), 2);
    }
}
