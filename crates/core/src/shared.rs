//! A concurrent MT(k) scheduler: Algorithm 1 behind `&self`.
//!
//! [`MtScheduler`](crate::MtScheduler) keeps the whole timestamp table
//! behind one `&mut self` — fine for log recognition, but an engine that
//! wants to schedule operations from many threads would have to serialize
//! every operation through one mutex. [`SharedMtScheduler`] splits the
//! table's state along the axes it is actually accessed on:
//!
//! * **`RT(x)`/`WT(x)` live in item shards** — a power-of-two array of
//!   mutexes, striped by item id, each holding a flat dense table of
//!   [`HolderPair`]s indexed by the item's high id bits (no hashing on
//!   the access path). An operation on `x` holds only the shard of `x`;
//!   operations on items in different shards never contend here.
//!   Holding the shard across the whole pick–Set–update sequence is what
//!   makes an operation atomic with respect to other accesses of `x` — the
//!   shard mutex plays the role of Algorithm 1's implicit critical section,
//!   but per item group instead of global.
//! * **…or with the caller.** A caller that already keeps a record and a
//!   lock per item — the engine's multiversion path keeps each item's
//!   pair in its version-chain record — passes the pair in under its own
//!   lock ([`access_held`](SharedMtScheduler::access_held)); the caller's
//!   lock is then the critical section, and the scheduler's shard tables
//!   stay empty. [`read`](SharedMtScheduler::read) and
//!   [`write`](SharedMtScheduler::write) are the same entry points over
//!   the scheduler's own tables.
//! * **Snapshot readers write nothing shared but a read bound.** A
//!   read-only transaction is no MT(k) transaction: it takes a fixed
//!   position `b` — column 0's published commit maximum + 1, read once at
//!   its begin — and reads each item's newest version whose stamp's column
//!   0 is below `b`, raising the read bound kept beside the item
//!   (Basic T/O's read timestamp, per lock) to `b`. A write whose column 0
//!   is below the bound is refused at validation
//!   ([`access_held`](SharedMtScheduler::access_held)). The reader keeps
//!   no row, takes no `RT` entry and probes no order memo
//!   ([`begin_snapshot_reader`](SharedMtScheduler::begin_snapshot_reader),
//!   [`snapshot_visible`](SharedMtScheduler::snapshot_visible); the
//!   scheduler's own tables keep a bound per shard for
//!   [`snapshot_read`](SharedMtScheduler::snapshot_read)).
//! * **Vector rows live in a recycled [`RowTable`] arena** behind a 4-byte
//!   id index — slots are addressed lock-free (chunks are published once
//!   via atomic pointers and never move), and each slot carries its own
//!   small `RwLock` around the vector. `begin`/`commit`/`abort` and every
//!   comparison touch only the slots involved; there is no global rows
//!   lock to stall on. The arena holds the live rows only: a reclaimed
//!   row's slot goes to the next `begin`. Encoding (defining vector
//!   elements) takes the two slots' write locks in ascending transaction
//!   id order, re-compares, and defines. The re-comparison under the
//!   write locks is essential: between the optimistic read-locked pass
//!   and the write acquisition, an encoder working on behalf of another
//!   item may have closed the very same open order (the two transactions
//!   can be `RT`/`WT` of many items at once). Re-deciding under the write locks preserves the write-once
//!   discipline of [`TsVec::define`].
//! * **Decided orders are memoized in a write-once [`OrderCache`]** —
//!   under the write-once element discipline a decided `TS(a) < TS(b)` can
//!   never be contradicted, so `Set(j, i)` first probes the cache and
//!   serves hits without touching any row lock. Only *decided* results are
//!   cached; the cache is flushed (epoch bump) whenever a transaction id
//!   is begun again after its row was reclaimed — the one event that can
//!   invalidate a memoized order (recycling a *slot* cannot: the cache is
//!   keyed by id). Inserts carry the epoch observed *before* the vectors
//!   were read, so an insert racing with an invalidation is dropped rather
//!   than resurrected.
//! * **The k-th-column counters draw through `&self`** — the
//!   `ucount`/`lcount` of [`KthCounters`] are atomics, so draws need no
//!   lock at all; distinctness, not program order, is the invariant
//!   Algorithm 1 needs of them.
//! * **Reclamation (III-D-6b) is refcount-driven and O(1)** — each slot
//!   carries an atomic count of the `RT`/`WT` entries naming it, bumped on
//!   displacement under the owning shard's lock. `commit` marks the slot
//!   finished; whoever drops the last reference frees the row (under that
//!   slot's write lock alone) and recycles the slot. The III-D-4 restart
//!   hint must outlive the row, so it lives in a per-stripe cell instead
//!   (see [`SharedMtScheduler::begin_restarted`]).
//! * **…and a committed writer's entries need no row at all.** A caller
//!   that keeps each item's versions beside its holders (the engine's MV
//!   chains) hands the entry points a stamp lookup: a holder with a
//!   version of the item on the chain is *stamp-backed* — compared through
//!   that version's packed stamp, the writer's saturated row cloned once
//!   it could no longer change, so every decision, element and event is
//!   the one its row would give. Such an entry holds no reference: the
//!   install gives the writer's references on the item up
//!   ([`SharedMtScheduler::version_installed`]), so a writer whose every
//!   entry is on items it wrote is reclaimed at its `commit`, and no
//!   compare against it touches the id index, the arena or a row lock
//!   again. The caller keeps a stamp while an entry names its writer.
//!
//! **Lock order** (deadlock freedom): item shard (or the caller's item
//! lock) → row-slot locks in ascending transaction id → order-cache shard
//! (leaf; nothing is acquired while it is held). A thread holds at most
//! one item shard at a time (multi-item operations take them one by one)
//! and at most two slot locks at a time, always acquired low id first.
//! Both transactions are pinned while their slots are locked together, so
//! no slot changes hands while it takes part in that order. A
//! stamp-backed holder takes no slot lock: its stamp is read under the
//! caller's item lock, and a compare or `Set` against it locks only the
//! other transaction's slot (a stamp is saturated, so `Set` defines none
//! of its elements). The row
//! table's sweep lock is taken only in `begin`, before any of these: a
//! reuse holds it across the new row's slot lock and the `on_reuse` flush
//! (order cache, hint cell).
//!
//! # One rule, two instantiations
//!
//! The access rule and `Set`'s element choice are the `algo1` module's,
//! shared with the sequential [`MtScheduler`](crate::MtScheduler): driven
//! single-threaded, the two make the same decisions, define the same
//! elements and emit the same `Access` and `SetEdge` events
//! (`sequential_equivalence*`). The access rule orders `T_i` after the
//! larger holder, and after the smaller one too only when `pick` found
//! their order undecided. `pick` runs under the item's shard, so the
//! holders cannot change between the pick and the `Set`s; their vectors
//! may gain elements from concurrent encoders, but a decided order never
//! flips, so `smaller < larger < T_i` needs no second `Set`. What differs
//! is what this scheduler owns around the rule:
//!
//! * `abort` does not roll `RT`/`WT` back to previous holders; the aborted
//!   transaction's vector stays behind as an inert anchor until displaced
//!   (the sequential scheduler's fallback behaviour, here unconditional).
//!   Anchors only add ordering constraints, which never endangers
//!   serializability.
//! * `Set`'s column floor is the published maximum of commit stamps
//!   ([`stamp_commit`](SharedMtScheduler::stamp_commit)); it starts at
//!   `T₀`'s stamp, the sequential scheduler's floor for good, so an
//!   unstamped scheduler chooses the sequential scheduler's values.
//! * Hot-item right-end encoding (III-D-5) is not supported — the
//!   donor-prefix copy would have to hold both write locks for O(k) defines
//!   per access. Decision tracing *is* supported:
//!   [`SharedMtScheduler::attach_trace`] routes typed [`TraceEvent`]s to an
//!   `mdts-trace` buffer. Events are stamped inside the critical section
//!   that made the decision (row-slot locks for `Set`, item shard for
//!   accesses), so the merged sequence shows every decision after the
//!   encodes that justify it — the property the trace auditor relies on.
//!   Cache hits are stamped lock-free, but stay sound for the same reason:
//!   an entry is inserted only *after* the events justifying it were
//!   emitted, and reading the entry synchronizes with that insert, so the
//!   hit's sequence number lands after the justifying encode's.
//!
//! [`OrderCache`]: mdts_vector::OrderCache

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

// The row-slot guards come from the cfg(loom)-switched layer so this
// module still compiles when `rowtable` runs under the model checker;
// the shard tables stay on `std::sync::Mutex` — they are plain dense
// arrays, not a lock-free protocol, and no loom model drives them.
use crate::sync::{RwLockReadGuard, RwLockWriteGuard};

use mdts_model::{ItemId, OpKind, Operation, TxId};
use mdts_trace::event::{scalar_cost, tree_cost, AccessOutcome, RejectRule};
use mdts_trace::{TraceEvent, TraceSink};
use mdts_vector::{
    CachePadded, CmpResult, Count, KthCounters, OrderCache, OrderCacheStats, Stamp, StampView,
    Striped, TsVec,
};

use crate::algo1::{self, Encoding};
use crate::mtk::{Decision, MtOptions};
use crate::rowtable::{RowSlot, RowTable};

/// `RT(x)` and `WT(x)` of one item. They are always read together (the
/// pick path consults both holders), so they share an 8-byte slot — one
/// cache line covers 8 items.
///
/// The scheduler keeps one per item in its own shard tables, and a caller
/// may keep them instead, beside whatever else it stores per item, and
/// hand them in under its own lock ([`SharedMtScheduler::access_held`]).
/// A fresh pair names `T₀` twice. Every non-`T₀` holder in a pair counts
/// one reference to its row (III-D-6b reclamation) — unless it is
/// *stamp-backed*: a holder whose version of the item the caller still
/// keeps is compared through that
/// version's stamp and holds no reference (see
/// [`SharedMtScheduler::version_installed`]). So a pair may only be
/// changed by the scheduler, and dropping one that still names a live row
/// leaks it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HolderPair {
    rt: TxId,
    wt: TxId,
}

impl Default for HolderPair {
    fn default() -> Self {
        HolderPair { rt: TxId::VIRTUAL, wt: TxId::VIRTUAL }
    }
}

impl HolderPair {
    /// `RT(x)`, the item's reader.
    pub fn rt(&self) -> TxId {
        self.rt
    }
}

/// A holder of an item as the access rule compares it: its transaction,
/// and — when it is stamp-backed — the stamp of its version of the item,
/// which stands for its row (a stamp is the writer's saturated row,
/// cloned once nothing can change it).
#[derive(Clone, Copy, Debug)]
struct Holder<'s> {
    tx: TxId,
    stamp: Option<&'s Stamp>,
}

impl Holder<'_> {
    /// A holder compared through its row.
    fn row(tx: TxId) -> Self {
        Holder { tx, stamp: None }
    }
}

/// The access rule's view of one item, and the scheduler's one
/// [`algo1::OrderTable`] instantiation: memo-backed compares and `Set`
/// under the row locks, called with the item's lock held, with the item's
/// two holders resolved once — each to its stamp, if the item's caller
/// keeps a version of theirs, else to its row. Every other transaction,
/// the accessing one included, is compared through its row.
struct ItemView<'a, 's> {
    sched: &'a SharedMtScheduler,
    rt: Holder<'s>,
    wt: Holder<'s>,
}

impl<'a, 's> ItemView<'a, 's> {
    /// `pair` as `tx` meets it, each holder looked up in `stamps` — but
    /// never `tx` itself, so a reused id cannot alias an old version, and
    /// never `T₀`, whose floor stamp is not saturated.
    fn new(
        sched: &'a SharedMtScheduler,
        tx: TxId,
        pair: HolderPair,
        stamps: impl Fn(TxId) -> Option<&'s Stamp>,
    ) -> Self {
        let resolve = |t: TxId| Holder {
            tx: t,
            stamp: if t == tx || t.is_virtual() { None } else { stamps(t) },
        };
        let rt = resolve(pair.rt);
        let wt = if pair.wt == pair.rt { rt } else { resolve(pair.wt) };
        ItemView { sched, rt, wt }
    }

    /// How `t` is compared.
    #[inline]
    fn holder(&self, t: TxId) -> Holder<'s> {
        if t == self.rt.tx {
            self.rt
        } else if t == self.wt.tx {
            self.wt
        } else {
            Holder::row(t)
        }
    }

    /// Makes `tx` the item's reader (line 7) or writer (line 12), moving
    /// the reference from the previous holder — which has none to give up
    /// if it is stamp-backed.
    fn set_holder(&self, pair: &mut HolderPair, kind: OpKind, tx: TxId) {
        let slot = match kind {
            OpKind::Read => &mut pair.rt,
            OpKind::Write => &mut pair.wt,
        };
        let prev = std::mem::replace(slot, tx);
        if prev != tx {
            self.sched.inc_ref(tx);
            if self.holder(prev).stamp.is_none() {
                self.sched.dec_ref(prev);
            }
        }
    }
}

impl algo1::OrderTable for ItemView<'_, '_> {
    fn order_of(&mut self, a: TxId, b: TxId) -> CmpResult {
        self.sched.compare_quick(self.holder(a), self.holder(b))
    }

    fn set(&mut self, j: TxId, i: TxId) -> Result<(), usize> {
        self.sched.set_less(self.holder(j), i)
    }

    fn note_reject(&mut self, tx: TxId, against: TxId) {
        self.sched.note_reject(tx, self.holder(against));
    }
}

/// Per-shard `RT`/`WT` table. Items are striped over shards by the low
/// bits of their id, so the high bits form a dense per-shard index — no
/// hashing on the access path, just one bounds-checked load. The table
/// grows on first touch of an item and never shrinks; untouched entries
/// read as `T₀` (exactly the absent-key semantics of the old `HashMap`s),
/// so steady state performs no allocation at all.
#[derive(Debug)]
struct ShardItems {
    slots: Vec<HolderPair>,
    /// The shard's read bound (see
    /// [`snapshot_read`](SharedMtScheduler::snapshot_read)).
    read_bound: i64,
}

impl Default for ShardItems {
    fn default() -> Self {
        ShardItems { slots: Vec::new(), read_bound: i64::MIN }
    }
}

impl ShardItems {
    /// Both holders of the item at dense per-shard index `local`.
    #[inline]
    fn pair(&self, local: usize) -> HolderPair {
        self.slots.get(local).copied().unwrap_or_default()
    }

    /// Runs `f` on a copy of `local`'s pair and stores it back if `f`
    /// changed it, growing the table only then.
    #[inline]
    fn update<R>(&mut self, local: usize, f: impl FnOnce(&mut HolderPair) -> R) -> R {
        let mut pair = self.pair(local);
        let out = f(&mut pair);
        if pair != self.pair(local) {
            if local >= self.slots.len() {
                self.slots.resize(local + 1, HolderPair::default());
            }
            self.slots[local] = pair;
        }
        out
    }
}

/// Which version a snapshot read over the scheduler's own tables must be
/// served from ([`SharedMtScheduler::snapshot_read`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotRead {
    /// The item's writer sits below the reader's position: the reader
    /// reads the *current* committed value.
    Current,
    /// The item's writer sits at or above the reader's position: the
    /// reader is served the newest older version below it
    /// ([`SharedMtScheduler::snapshot_newest_visible`]).
    Older,
}

/// Number of power-of-two buckets in the chain-walk length
/// distribution: bucket `i` counts walks that compared `2^i ..=
/// 2^(i+1) - 1` versions, the last bucket absorbing everything from 64
/// up.
pub const BATCH_SIZE_BUCKETS: usize = 7;

/// Counters of the MV snapshot chain walk
/// ([`SharedMtScheduler::snapshot_newest_visible`]). The names predate
/// the walk; the metrics documents and the benchmark harness read them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchedCompareStats {
    /// Newest-below-reader walks over MV chains, one per call.
    pub chain_batches: u64,
    /// Versions those walks compared the reader against.
    pub candidates: u64,
    /// Walk-length distribution (see [`BATCH_SIZE_BUCKETS`]).
    pub size_buckets: [u64; BATCH_SIZE_BUCKETS],
}

/// Backing of [`BatchedCompareStats`]: one stripe's cells.
#[derive(Debug, Default)]
struct BatchedCounters {
    chain_batches: Count,
    candidates: Count,
    size_buckets: [Count; BATCH_SIZE_BUCKETS],
}

/// The concurrent MT(k) scheduler. All methods take `&self`; the type is
/// `Send + Sync` and meant to be shared across worker threads (e.g. behind
/// an `Arc`).
#[derive(Debug)]
pub struct SharedMtScheduler {
    opts: MtOptions,
    shard_mask: usize,
    /// `log₂(#shards)` — item id low bits select the shard, the remaining
    /// high bits are the dense index within it.
    shard_bits: u32,
    shards: Box<[Mutex<ShardItems>]>,
    /// Vector rows of the live transactions, found by transaction id.
    /// Id 0 is `T₀` (`⟨0, *, …⟩`), never reclaimed.
    rows: RowTable,
    /// III-D-4 restart hints, one cell per stripe: the refused
    /// transaction's id and the first element its restart begins with.
    hints: Striped<Mutex<Option<(TxId, i64)>>>,
    /// Memoized decided comparisons (see the module docs).
    cache: OrderCache,
    /// Drawn from by every commit stamp, so on a line of its own — the
    /// fields around it are read on every access and never written.
    counters: CachePadded<KthCounters>,
    /// Per-column running maximum over every *saturated* commit stamp
    /// published by [`stamp_commit`](Self::stamp_commit) — and by nothing
    /// else: `Set`'s column floor. It starts at `T₀`'s stamp `⟨0, *, …⟩`:
    /// 0 in column 0, where every holder's element is at least that, and
    /// `i64::MIN` (no stamp has an element there yet) elsewhere — the
    /// sequential scheduler's floor, so a scheduler that never stamps (the
    /// single-version engine, the sequential-equivalence oracle) chooses
    /// exactly its values. A snapshot reader's position is column 0's
    /// maximum + 1, read after its GC ticket, which places the reader
    /// after every version published before it began — the monotonicity
    /// that makes seq-watermark version GC sound (DESIGN.md §8). Update
    /// transactions floor their open non-last elements on it (`Set`'s
    /// `RightUndefined` arm), so committed history never refuses a fresh
    /// transaction. Nothing reads the last column when k ≥ 2, so it is
    /// never published and stays at `i64::MIN`. `SeqCst`,
    /// matching the MV store's install/registry counters the soundness
    /// argument chains through. One cache line per column: a commit that
    /// raises one column leaves the others' readers undisturbed.
    col_max: Box<[CachePadded<AtomicI64>]>,
    /// Chain-walk counters, per-thread cells summed on read.
    batched: Striped<BatchedCounters>,
    /// Decision-trace sink (disabled by default; see `mdts-trace`).
    trace: TraceSink,
}

// The k-th-column counters start a cache line of their own, and adjacent
// `col_max` columns never share one.
const _: () = {
    assert!(std::mem::offset_of!(SharedMtScheduler, counters).is_multiple_of(128));
    assert!(std::mem::size_of::<CachePadded<AtomicI64>>().is_multiple_of(128));
};

/// Default number of item shards (power of two).
pub const DEFAULT_SHARDS: usize = 64;

/// From this consecutive restart of one transaction on, a restart's
/// first element is also floored above the published column-0 maximum
/// (see [`SharedMtScheduler::begin_restarted_nth`]). Earlier restarts keep
/// III-D-4's `TS(blocker, 1) + 1`, whose low values the contended lanes'
/// latency rests on.
pub const RESTART_FLOOR_FROM: usize = 64;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The vector inside a slot guard, panicking if the row is absent
/// (protocol invariant: every transaction referenced by `RT`/`WT` or being
/// scheduled has a live vector).
fn vec_of(guard: &Option<TsVec>, tx: TxId) -> &TsVec {
    guard.as_ref().unwrap_or_else(|| panic!("no live timestamp vector for {tx}"))
}

impl SharedMtScheduler {
    /// Creates a scheduler with [`DEFAULT_SHARDS`] item shards.
    ///
    /// # Panics
    /// Panics if `opts.k == 0`, or if `opts` requests hot-item encoding
    /// (unsupported here, see the module docs).
    pub fn new(opts: MtOptions) -> Self {
        Self::with_shards(opts, DEFAULT_SHARDS)
    }

    /// Algorithm 1 defaults for dimension `k`.
    pub fn with_k(k: usize) -> Self {
        Self::new(MtOptions::new(k))
    }

    /// Creates a scheduler with at least `shards` item shards (rounded up
    /// to a power of two so striping is a mask).
    pub fn with_shards(opts: MtOptions, shards: usize) -> Self {
        assert!(opts.k >= 1, "vector dimension k must be at least 1");
        assert!(
            opts.hot_encoding.is_none(),
            "hot-item encoding is not supported by the concurrent scheduler"
        );
        let n = shards.max(1).next_power_of_two();
        let shards: Box<[Mutex<ShardItems>]> =
            (0..n).map(|_| Mutex::new(ShardItems::default())).collect();
        let rows = RowTable::new();
        rows.begin(TxId::VIRTUAL.index(), || TsVec::origin(opts.k), || {});
        let k = opts.k;
        SharedMtScheduler {
            opts,
            shard_mask: n - 1,
            shard_bits: n.trailing_zeros(),
            shards,
            rows,
            hints: Striped::default(),
            cache: OrderCache::new(),
            counters: CachePadded(KthCounters::new()),
            // T₀'s stamp ⟨0, *, …⟩ is published from the start.
            col_max: (0..k).map(|m| CachePadded(AtomicI64::new(algo1::origin_floor(m)))).collect(),
            batched: Striped::default(),
            trace: TraceSink::disabled(),
        }
    }

    /// Routes the scheduler's decision trace to `sink`. Call before the
    /// scheduler is shared across threads (the handle itself is cheap to
    /// clone and thread-safe once installed).
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The trace sink in force.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The configuration.
    pub fn options(&self) -> &MtOptions {
        &self.opts
    }

    /// Vector dimension `k`.
    pub fn k(&self) -> usize {
        self.opts.k
    }

    /// Number of item shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hit/miss/insert/invalidation counters of the write-once order
    /// cache.
    pub fn order_cache_stats(&self) -> OrderCacheStats {
        self.cache.stats()
    }

    /// Counters of the MV snapshot chain walk.
    pub fn batched_compare_stats(&self) -> BatchedCompareStats {
        BatchedCompareStats {
            chain_batches: self.batched.sum(|b| &b.chain_batches),
            candidates: self.batched.sum(|b| &b.candidates),
            size_buckets: std::array::from_fn(|i| self.batched.sum(|b| &b.size_buckets[i])),
        }
    }

    /// Ticks the chain-walk counters for one walk that compared `n`
    /// versions.
    #[inline]
    fn note_walk(&self, n: usize) {
        debug_assert!(n >= 1);
        let b = self.batched.mine();
        b.add(|b| &b.chain_batches, 1);
        b.add(|b| &b.candidates, n as u64);
        let bucket = (usize::BITS - 1 - n.leading_zeros()) as usize;
        b.add(|b| &b.size_buckets[bucket.min(BATCH_SIZE_BUCKETS - 1)], 1);
    }

    /// The shard owning `item` and the item's dense index within it.
    #[inline]
    fn shard_of(&self, item: ItemId) -> (&Mutex<ShardItems>, usize) {
        let idx = item.index();
        (&self.shards[idx & self.shard_mask], idx >> self.shard_bits)
    }

    fn slot_expect(&self, tx: TxId) -> &RowSlot {
        self.rows
            .slot(tx.index())
            .unwrap_or_else(|| panic!("no row slot for referenced transaction {tx}"))
    }

    /// Read guards for two distinct slots, returned in `(a, b)` order but
    /// acquired in ascending transaction id (the lock order).
    fn read_pair(
        &self,
        a: TxId,
        b: TxId,
    ) -> (RwLockReadGuard<'_, Option<TsVec>>, RwLockReadGuard<'_, Option<TsVec>>) {
        debug_assert_ne!(a, b, "a slot lock is not reentrant");
        let (sa, sb) = (self.slot_expect(a), self.slot_expect(b));
        if a.index() < b.index() {
            let ga = sa.read();
            (ga, sb.read())
        } else {
            let gb = sb.read();
            (sa.read(), gb)
        }
    }

    /// Write guards for two distinct slots, ascending acquisition as in
    /// [`read_pair`](Self::read_pair).
    fn write_pair(
        &self,
        a: TxId,
        b: TxId,
    ) -> (RwLockWriteGuard<'_, Option<TsVec>>, RwLockWriteGuard<'_, Option<TsVec>>) {
        debug_assert_ne!(a, b, "a slot lock is not reentrant");
        let (sa, sb) = (self.slot_expect(a), self.slot_expect(b));
        if a.index() < b.index() {
            let ga = sa.write();
            (ga, sb.write())
        } else {
            let gb = sb.write();
            (sa.write(), gb)
        }
    }

    // ---- order cache -----------------------------------------------------

    fn cache_get(&self, a: TxId, b: TxId) -> Option<CmpResult> {
        if !self.opts.order_cache {
            return None;
        }
        self.cache.get(a.0, b.0)
    }

    /// Inserts a comparison result observed at `epoch` (sampled *before*
    /// the vectors were read). Undecided results are ignored by the cache;
    /// a stale epoch drops the insert.
    fn cache_put(&self, epoch: u64, a: TxId, b: TxId, result: CmpResult) {
        if self.opts.order_cache {
            self.cache.insert(epoch, a.0, b.0, result);
        }
    }

    // ---- lifecycle -------------------------------------------------------

    /// Ensures a (fully undefined) vector row exists for `tx`.
    pub fn begin(&self, tx: TxId) {
        self.ensure_tx(tx);
    }

    fn ensure_tx(&self, tx: TxId) {
        self.begin_with(tx, || TsVec::undefined(self.opts.k));
    }

    /// Gives `tx` a row holding `ts()` unless it has one.
    fn begin_with(&self, tx: TxId, ts: impl FnOnce() -> TsVec) {
        self.rows.begin(tx.index(), ts, || {
            // The id is being reused after reclamation: memoized orders
            // naming it, and any restart hint it left, are about a dead
            // incarnation. Flush *before* the new row becomes reachable,
            // so any insert racing with us carries a stale epoch and is
            // dropped.
            self.cache.invalidate_all();
            self.take_hint(tx);
        });
    }

    /// Registers a restart of `aborted` under a fresh id: if the
    /// starvation fix recorded a hint, the new incarnation starts with
    /// `TS = ⟨TS(blocker,1)+1, *, …⟩` (Section III-D-4).
    ///
    /// Unlike the sequential scheduler, the in-place flush (`new_tx ==
    /// aborted`) is not supported: the aborted row may still anchor
    /// ordering constraints other threads encoded against it, so the new
    /// incarnation must use a fresh id.
    ///
    /// The aborted row may be reclaimed, and its slot recycled, before the
    /// restart, so the hint is not kept in it: the refusal leaves it in
    /// the refusing thread's stripe cell, and the restart looks there. The
    /// refusal and the restart both run on the thread driving the
    /// transaction (the engine's retry loop), which restarts before it can
    /// be refused again, and a live thread's stripe is its own
    /// ([`mdts_vector::stripe`]), so the hint is found. Two cases find
    /// none: a restart issued from another thread, and a refusal in between
    /// on another thread of the shared stripe, which the threads beyond
    /// `STRIPES - 1` live ones write. That costs the new incarnation the
    /// boost and nothing else — it begins undefined, as without the fix.
    pub fn begin_restarted(&self, new_tx: TxId, aborted: TxId) {
        self.begin_restarted_nth(new_tx, aborted, 1);
    }

    /// [`begin_restarted`](Self::begin_restarted) as the `nth` consecutive
    /// restart of one transaction. From the [`RESTART_FLOOR_FROM`]th on, a
    /// hinted restart begins with `max(TS(blocker, 1) + 1, col_max[0] + 1)`:
    /// still after its blocker, and also after every writer whose stamp was
    /// published before it began — those that committed during its backoff
    /// included, which would otherwise refuse each restart at its first
    /// access (DESIGN.md §5). The [`TraceEvent::Restart`] hint is the
    /// value used.
    pub fn begin_restarted_nth(&self, new_tx: TxId, aborted: TxId, nth: usize) {
        assert_ne!(new_tx, aborted, "concurrent restarts must use a fresh transaction id");
        let hint = self.take_hint(aborted).map(|first| {
            if nth < RESTART_FLOOR_FROM {
                first
            } else {
                first.max(self.floor(0) + 1)
            }
        });
        self.trace.emit(|| TraceEvent::Restart { tx: new_tx, aborted, hint });
        debug_assert!(
            hint.is_none() || self.rows.slot(new_tx.index()).is_none(),
            "restart id {new_tx} already in use"
        );
        self.begin_with(new_tx, || {
            let mut v = TsVec::undefined(self.opts.k);
            if let Some(first) = hint {
                v.define(0, first);
            }
            v
        });
    }

    /// Takes the restart hint this thread's stripe holds for `aborted`.
    fn take_hint(&self, aborted: TxId) -> Option<i64> {
        let mut cell = lock(self.hints.mine().cell());
        match *cell {
            Some((tx, first)) if tx == aborted => {
                *cell = None;
                Some(first)
            }
            _ => None,
        }
    }

    /// Notes a commit, journals it, and attempts reclamation (III-D-6b).
    /// Returns whether the row could be dropped already; otherwise it is
    /// dropped — in O(1) — by whoever displaces its last `RT`/`WT`
    /// reference.
    pub fn commit(&self, tx: TxId) -> bool {
        self.trace.emit(|| TraceEvent::Commit { tx });
        self.commit_unjournaled(tx)
    }

    /// [`commit`](Self::commit) without the journal record, for a caller
    /// that journals the commit itself: the engine, whose durable path
    /// must journal it before the write-ahead log frames it.
    pub fn commit_unjournaled(&self, tx: TxId) -> bool {
        self.finish(tx)
    }

    /// Notes an abort. `RT`/`WT` entries naming `tx` are *not* rolled
    /// back; the row stays as an inert ordering anchor until displaced.
    /// The starvation hint (if any) is kept for `begin_restarted`.
    pub fn abort(&self, tx: TxId) {
        self.trace.emit(|| TraceEvent::Abort { tx });
        self.finish(tx);
    }

    /// Marks `tx` finished and reclaims its row if already unreferenced.
    ///
    /// The `finished` store and `refs` load are `SeqCst`, as are
    /// `dec_ref`'s `refs` decrement and `finished` load: the classic
    /// store-then-load on two locations needs the single total order so
    /// that at least one of the two parties (finisher or last
    /// dereferencer) observes the other and performs the reclaim
    /// (audited in PR 4; the Dekker invariant is checked by
    /// `rowtable_reclaim_dekker` in tests/loom_models.rs).
    fn finish(&self, tx: TxId) -> bool {
        if tx.is_virtual() {
            return false;
        }
        let Some(slot) = self.rows.slot(tx.index()) else {
            return false; // finished before, and reclaimed
        };
        slot.finished().store(true, Ordering::SeqCst);
        if slot.refs().load(Ordering::SeqCst) == 0 {
            self.try_reclaim(tx)
        } else {
            false
        }
    }

    /// Drops `tx`'s row and recycles its slot if (still) unreferenced and
    /// finished ([`RowTable::reclaim`] re-checks both under the slot's
    /// write lock, which keeps the drop exactly-once). A finished
    /// transaction never gains references (only a live accessor can
    /// become `RT`/`WT`), so a row observed unreferenced here cannot be
    /// resurrected.
    fn try_reclaim(&self, tx: TxId) -> bool {
        debug_assert!(!tx.is_virtual(), "T₀ is never finished");
        self.rows.reclaim(tx.index(), |slot| {
            slot.refs().load(Ordering::SeqCst) == 0 && slot.finished().load(Ordering::SeqCst)
        })
    }

    /// `writer` has just installed its version of an item whose holders
    /// are `pair`, under the lock every access of the item takes: from
    /// now on the entries of `pair` naming `writer` are stamp-backed —
    /// served from that version's stamp, which the caller must keep while
    /// they name it — and they give up their row references here. With
    /// no other reference the row is reclaimed at the writer's
    /// [`commit`](Self::commit) (III-D-6b).
    pub fn version_installed(&self, writer: TxId, pair: &HolderPair) {
        for holder in [pair.rt, pair.wt] {
            if holder == writer {
                self.dec_ref(writer);
            }
        }
    }

    fn inc_ref(&self, tx: TxId) {
        if tx.is_virtual() {
            return; // T₀ is never reclaimed; skip the bookkeeping.
        }
        self.slot_expect(tx).refs().fetch_add(1, Ordering::SeqCst);
    }

    fn dec_ref(&self, tx: TxId) {
        if tx.is_virtual() {
            return;
        }
        let slot = self.slot_expect(tx);
        let prev = slot.refs().fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "refcount underflow for {tx}");
        // Past the decrement `tx` is no longer pinned: its owner may
        // reclaim it and the slot go to another transaction, whose flag
        // this load may read. `try_reclaim` re-checks the link, so that
        // costs a wasted lock at most.
        if prev == 1 && slot.finished().load(Ordering::SeqCst) {
            self.try_reclaim(tx);
        }
    }

    // ---- procedure Set ---------------------------------------------------

    /// Public form of procedure `Set(j, i)`: try to establish (or verify)
    /// `TS(j) < TS(i)`. Returns `false` iff the vectors already say
    /// `TS(j) > TS(i)`.
    pub fn order(&self, j: TxId, i: TxId) -> bool {
        self.set_less(Holder::row(j), i).is_ok()
    }

    /// Emits a [`TraceEvent::Compare`]. For a fresh comparison the caller
    /// must still hold the locks under which `result` was computed:
    /// decided results are stable (write-once elements), so stamping the
    /// sequence number before the locks are released keeps every decision
    /// event after the encodes that justify it. A cache hit is emitted
    /// lock-free but inherits the same guarantee transitively — the entry
    /// was inserted after the justifying events were emitted, and reading
    /// it synchronizes with that insert.
    #[inline]
    fn emit_compare(&self, a: TxId, b: TxId, result: CmpResult, cached: bool) {
        let k = self.opts.k;
        self.trace.emit(|| TraceEvent::Compare {
            a,
            b,
            result,
            // A hit costs one memo-table probe instead of a column walk.
            scalar_ops: if cached { 1 } else { scalar_cost(result, k) },
            tree_steps: tree_cost(k),
            cached,
        });
    }

    /// `Set`'s column floor: the published maximum of commit stamps.
    #[inline]
    fn floor(&self, m: usize) -> i64 {
        self.col_max[m].load(Ordering::SeqCst)
    }

    /// Procedure `Set(j, i)`: [`algo1::set`] under this scheduler's locks
    /// and memo. `Err` carries the refusing column. An open non-last
    /// element defined against a holder is floored on the published
    /// per-column maximum (`col_max`); the `=` case and the last column
    /// keep the paper's minimal values.
    fn set_less(&self, j: Holder<'_>, i: TxId) -> Result<(), usize> {
        let jt = j.tx;
        if jt == i {
            return Ok(()); // line 15
        }
        // Cache fast path: a decided order is immutable, so a hit resolves
        // the call without touching any row lock.
        if let Some(cmp) = self.cache_get(jt, i) {
            self.emit_compare(jt, i, cmp, true);
            let outcome = algo1::decided(cmp).expect("the order cache holds decided orders only");
            return algo1::emit_set(&self.trace, jt, i, outcome);
        }
        // The epoch must be sampled before the vectors are read, so an
        // invalidation racing with this call drops our insert.
        let epoch = self.cache.epoch();
        // Optimistic pass: most Set calls find the order already decided,
        // and the read locks let them run in parallel. The memo insert
        // happens after both the justifying emits (see emit_compare) and
        // the release of the row locks — the cache must never be touched
        // while protocol locks are held.
        let decided = self.compare_held(j, Holder::row(i), |cmp| {
            algo1::decided(cmp).map(|outcome| {
                self.emit_compare(jt, i, cmp, false);
                (cmp, algo1::emit_set(&self.trace, jt, i, outcome))
            })
        });
        if let Some((cmp, result)) = decided {
            self.cache_put(epoch, jt, i, cmp);
            return result;
        }
        // The order looked open: re-decide under the write locks (a
        // concurrent encoder may have closed it meanwhile) and encode.
        let encode = |cmp: CmpResult, tj: &TsVec, ti: &TsVec| {
            self.emit_compare(jt, i, cmp, false);
            algo1::set(cmp, (jt, tj), (i, ti), |m| self.floor(m), Encoding::Plain, &self.counters)
        };
        let (memo, result) = match j.stamp {
            None => {
                let (mut gj, mut gi) = self.write_pair(jt, i);
                let cmp = vec_of(&gj, jt).compare(vec_of(&gi, i));
                let outcome = encode(cmp, vec_of(&gj, jt), vec_of(&gi, i));
                let memo = algo1::apply(&outcome, cmp, |t, m, v| {
                    vec_of_mut(if t == jt { &mut gj } else { &mut gi }, t).define(m, v)
                });
                (memo, algo1::emit_set(&self.trace, jt, i, outcome))
            }
            // A stamp is saturated, so `Set` can define only `i`'s
            // elements: `i`'s write lock alone covers the encode.
            Some(stamp) => {
                let tj = stamp.to_vec();
                let mut gi = self.slot_expect(i).write();
                let cmp = tj.compare(vec_of(&gi, i));
                let outcome = encode(cmp, &tj, vec_of(&gi, i));
                let memo = algo1::apply(&outcome, cmp, |t, m, v| {
                    assert_eq!(t, i, "Set({jt}, {i}) defined an element of stamp-backed {jt}");
                    vec_of_mut(&mut gi, i).define(m, v)
                });
                (memo, algo1::emit_set(&self.trace, jt, i, outcome))
            }
        };
        self.cache_put(epoch, jt, i, memo);
        result
    }

    /// Runs `f` on Definition 6 of `a` against `b` while the rows it was
    /// computed from are still read-locked: a stamp-backed holder is
    /// compared through its stamp, lock-free, and two rows are locked in
    /// ascending transaction id.
    fn compare_held<R>(&self, a: Holder<'_>, b: Holder<'_>, f: impl FnOnce(CmpResult) -> R) -> R {
        match (a.stamp, b.stamp) {
            (None, None) => {
                let (ga, gb) = self.read_pair(a.tx, b.tx);
                f(vec_of(&ga, a.tx).compare(vec_of(&gb, b.tx)))
            }
            (Some(sa), None) => {
                let gb = self.slot_expect(b.tx).read();
                f(sa.compare_reader(vec_of(&gb, b.tx)))
            }
            (None, Some(sb)) => {
                let ga = self.slot_expect(a.tx).read();
                f(sb.compare_reader(vec_of(&ga, a.tx)).flip())
            }
            (Some(sa), Some(sb)) => f(sa.to_vec().compare(&sb.to_vec())),
        }
    }

    // ---- scheduling ------------------------------------------------------

    /// Definition 6 comparison via the cache, else under the two slots'
    /// read locks (inserting any fresh decided result). Does not emit a
    /// trace event — the access rule's `pick` and line 9 consults.
    fn compare_quick(&self, a: Holder<'_>, b: Holder<'_>) -> CmpResult {
        if let Some(cmp) = self.cache_get(a.tx, b.tx) {
            return cmp;
        }
        let epoch = self.cache.epoch();
        let cmp = self.compare_held(a, b, |cmp| cmp);
        // After the row locks are released: a memo insert must never
        // stall a thread that holds protocol state.
        self.cache_put(epoch, a.tx, b.tx, cmp);
        cmp
    }

    fn note_reject(&self, tx: TxId, against: Holder<'_>) {
        if self.opts.starvation_flush {
            // Blocker's first element is defined whenever Set refused (the
            // deciding column has both elements defined; column 0 is at or
            // before it). A stamp-backed blocker's row may be reclaimed
            // already: its stamp holds the same element.
            let first = match against.stamp {
                Some(stamp) => stamp.get(0),
                None => self.with_ts(against.tx, |v| {
                    v.unwrap_or_else(|| panic!("no live timestamp vector for {}", against.tx))
                        .get(0)
                }),
            };
            if let Some(first) = first {
                *lock(self.hints.mine().cell()) = Some((tx, first + 1));
            }
        }
    }

    /// Was the footprint prewarm of the order cache; does nothing. Every
    /// batch it probed on the benchmark's lanes held ≤ 2 candidates and
    /// nothing has called it since the admission queue went, so the probe
    /// and its bulk cache fill are deleted. The method stays, like the
    /// engine's `run_with_footprint`, because the frozen benchmark harness
    /// names it; delete it with the next change to that harness.
    pub fn warm_probes(&self, _pairs: &mut [(ItemId, TxId)]) {}

    #[inline]
    fn emit_access(
        &self,
        tx: TxId,
        item: ItemId,
        kind: OpKind,
        rt: TxId,
        wt: TxId,
        outcome: AccessOutcome,
    ) {
        self.trace.emit(|| TraceEvent::Access { tx, item, kind, rt, wt, outcome });
    }

    /// Schedules a read of `item` by `tx` (the `read` arm of `Scheduler`).
    pub fn read(&self, tx: TxId, item: ItemId) -> Decision {
        self.access(tx, item, OpKind::Read)
    }

    /// Schedules a write of `item` by `tx` (the `write` arm of
    /// `Scheduler`).
    pub fn write(&self, tx: TxId, item: ItemId) -> Decision {
        self.access(tx, item, OpKind::Write)
    }

    /// [`access_held`](Self::access_held) over the scheduler's own shard
    /// table, with the item's shard held from the pick to the holder
    /// update — the shard mutex is Algorithm 1's critical section, per
    /// item group.
    fn access(&self, tx: TxId, item: ItemId, kind: OpKind) -> Decision {
        self.ensure_tx(tx);
        let (shard, local) = self.shard_of(item);
        let mut shard = lock(shard);
        let bound = shard.read_bound;
        shard.update(local, |pair| self.access_held(tx, item, kind, pair, bound, |_| None))
    }

    /// `algo1::access` on a holder pair the caller keeps: `pair` is
    /// `item`'s `RT`/`WT`, and a grant moves `tx` into it. The caller must
    /// hold one lock across the whole call that every other access of
    /// `item` takes too — that lock is Algorithm 1's critical section —
    /// and must have [`begin`](Self::begin)-ed `tx`. An item's pair lives
    /// in one place: never mix this with [`read`](Self::read)/
    /// [`write`](Self::write) on the same item.
    ///
    /// `read_bound` is the read bound that lock guards beside the pair
    /// (see [`snapshot_visible`](Self::snapshot_visible)): a write the
    /// access rule grants or ignores is still refused when the writer's
    /// column 0 lies below it — the write would land below a position a snapshot reader
    /// already read at. The refusal is a [`Reject`](crate::Reject) against
    /// `T₀` (see [`Reject::by_read_bound`](crate::Reject::by_read_bound));
    /// it leaves no restart hint, because a restart that begins undefined
    /// defines its column 0 above the published maximum, hence at or above
    /// every bound. A read ignores the bound.
    ///
    /// `stamps(w)` is the stamp of `w`'s version of `item` if the caller
    /// keeps one (the version chain, under the same lock), else `None`; a
    /// holder it finds is stamp-backed (see
    /// [`version_installed`](Self::version_installed)). A caller that
    /// never calls `version_installed` passes `|_| None`.
    pub fn access_held<'s>(
        &self,
        tx: TxId,
        item: ItemId,
        kind: OpKind,
        pair: &mut HolderPair,
        read_bound: i64,
        stamps: impl Fn(TxId) -> Option<&'s Stamp>,
    ) -> Decision {
        let HolderPair { rt, wt } = *pair;
        let mut view = ItemView::new(self, tx, *pair, stamps);
        let mut outcome = algo1::access(&mut view, &self.opts, tx, kind, rt, wt);
        // The bound is `i64::MIN` until a snapshot reader raises it, so a
        // shard no reader touched costs this one compare. A write the
        // Thomas rule would ignore is held to the bound too: ignoring it
        // orders the writer before `WT` all the same, and a reader above
        // the writer that was served an older version would miss it.
        if read_bound != i64::MIN
            && kind == OpKind::Write
            && matches!(outcome, AccessOutcome::Granted | AccessOutcome::GrantedIgnored)
            && self.first_element(tx) < read_bound
        {
            outcome = AccessOutcome::Rejected {
                against: TxId::VIRTUAL,
                column: 0,
                rule: RejectRule::ReadBound,
            };
        }
        self.emit_access(tx, item, kind, rt, wt, outcome);
        if outcome == AccessOutcome::Granted {
            view.set_holder(pair, kind, tx);
        }
        algo1::decision(tx, item, outcome)
    }

    /// Schedules a whole (possibly multi-item) operation. Items are
    /// processed in ascending order (the access set is sorted), taking the
    /// shards one at a time; the first rejection rejects the operation.
    /// Element definitions made for earlier items remain — they are valid
    /// constraints regardless, and the issuing transaction aborts anyway.
    pub fn process(&self, op: &Operation) -> Decision {
        algo1::process(op, |tx, item, kind| self.access(tx, item, kind))
    }

    // ---- multi-version snapshot support ----------------------------------

    /// Freezes the committing writer's vector into a **saturated** version
    /// stamp: every still-undefined element is defined — non-last columns
    /// to `0` (column 0 is never open here: a committing writer was
    /// granted at least one access, which ordered it after `T₀`), the
    /// k-th column to a fresh upper counter draw — and the per-column
    /// maxima of the columns anyone reads are advanced to cover the final
    /// vector (see the loop). A fully defined row
    /// can never gain elements, so the returned clone *is* the writer's
    /// final vector forever: every later comparison against the stamp is
    /// decidable, which is what lets snapshot readers walk version chains
    /// without ever aborting or blocking.
    ///
    /// The fill and its [`TraceEvent::StampFill`] event happen inside the
    /// row's write critical section, so the auditor's replayed vector
    /// agrees with every comparison emitted after this point.
    ///
    /// Call once per committing MV writer, after commit-time validation
    /// granted its writes and before its versions are installed.
    pub fn stamp_commit(&self, tx: TxId) -> TsVec {
        let k = self.opts.k;
        let slot = self.slot_expect(tx);
        let mut row = slot.write();
        let v = vec_of_mut(&mut row, tx);
        if v.defined_count() < k {
            let last = if v.is_defined(k - 1) { 0 } else { self.counters.fresh_upper() };
            let fill = |m: usize| if m == k - 1 { last } else { 0 };
            // The change list exists only for a sink: built inside the
            // closure, from the still-open columns, before they are filled.
            self.trace.emit(|| TraceEvent::StampFill {
                tx,
                changes: (0..k).filter(|&m| !v.is_defined(m)).map(|m| (tx, m, fill(m))).collect(),
            });
            for m in 0..k {
                if !v.is_defined(m) {
                    v.define(m, fill(m));
                }
            }
        }
        // Only the columns someone reads are published: `Set` floors the
        // columns below the last, and restarts and snapshot positions read
        // column 0 — which is the last one when k = 1.
        for m in 0..(k - 1).max(1) {
            let value = v.get(m).expect("saturated above");
            // The maximum is monotone, so a load that already covers
            // `value` stands for the `fetch_max` in the SeqCst order and
            // the column's line stays shared; only a rising column is
            // written.
            if self.col_max[m].load(Ordering::SeqCst) < value {
                self.col_max[m].fetch_max(value, Ordering::SeqCst);
            }
        }
        v.clone()
    }

    // ---- snapshot readers -------------------------------------------------

    /// Begins the snapshot (read-only) transaction `tx` on a caller that
    /// keeps each item's versions and a read bound per lock (the engine's
    /// MV chains) and returns its position `b`: column 0's published
    /// maximum + 1. The reader sits after every committed stamp whose
    /// column 0 is below `b` and before every other one — Definition 6
    /// orders saturated stamps totally, so that is a cut of the commit
    /// order. It keeps no row, takes no `RT` entry and joins no order:
    /// `tx`'s id is retired in the row table at once, and the reader is
    /// journaled as a [`TraceEvent::ReaderBound`].
    ///
    /// Call after the reader's GC ticket is drawn
    /// (`ConcurrentMvStore::begin_snapshot`): every version installed
    /// before the ticket had its stamp's column 0 published first, so it is
    /// visible at `b`, and the chain walk ends at or above the GC pivot
    /// (DESIGN.md §8).
    pub fn begin_snapshot_reader(&self, tx: TxId) -> i64 {
        self.rows.retire(tx.index());
        let bound = self.floor(0) + 1;
        self.trace.emit(|| TraceEvent::ReaderBound { tx, bound });
        bound
    }

    /// A snapshot read at position `bound` of an item whose lock the caller
    /// holds, with `read_bound` the bound that lock guards and `stamp_of(i)`
    /// the item's kept versions' stamps, oldest first: raises `read_bound`
    /// to `bound` and returns the newest version whose stamp's column 0 is
    /// below `bound` (`None` for an empty chain, or one newer than the
    /// reader throughout).
    ///
    /// The read stays the newest version below the reader for good: a
    /// writer validates under the same lock ([`access_held`](Self::access_held))
    /// and is refused if its column 0 is below the raised bound, so no
    /// version the reader should have seen is installed after the read.
    /// Basic T/O's read timestamp, taken over committed stamps.
    pub fn snapshot_visible<'a, S: StampView + 'a>(
        &self,
        bound: i64,
        read_bound: &mut i64,
        n: usize,
        stamp_of: impl Fn(usize) -> &'a S,
    ) -> Option<usize> {
        *read_bound = (*read_bound).max(bound);
        self.newest_below(bound, n, stamp_of)
    }

    /// The newest of `n` versions whose stamp's column 0 is below `bound`,
    /// tested newest first; ticks the chain-walk counters.
    fn newest_below<'a, S: StampView + 'a>(
        &self,
        bound: i64,
        n: usize,
        stamp_of: impl Fn(usize) -> &'a S,
    ) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let found = (0..n).rev().find(|&i| stamp_of(i).first() < bound);
        self.note_walk(n - found.unwrap_or(0));
        found
    }

    /// Schedules a snapshot read of `item` by `tx` over the scheduler's own
    /// tables — the same rule as [`snapshot_visible`](Self::snapshot_visible),
    /// for a caller that begins its reader's row and keeps its values
    /// beside the scheduler. The reader's position `b` lives in its row as
    /// its column 0, defined at its first snapshot read (after the caller
    /// registered the reader with GC) to column 0's published maximum + 1.
    /// The read raises the item's shard bound to `b`, and reads the current
    /// value when the item's writer `WT(x)` sits below `b`
    /// ([`SnapshotRead::Current`]), else an older version
    /// ([`SnapshotRead::Older`], served by
    /// [`snapshot_newest_visible`](Self::snapshot_newest_visible)). Never
    /// rejects, and leaves the holders as they are.
    ///
    /// The caller must install each write's version in the same critical
    /// section, with respect to this call, as the write's grant (a serial
    /// caller does), and [`commit`](Self::commit) the reader once done.
    pub fn snapshot_read(&self, tx: TxId, item: ItemId) -> SnapshotRead {
        let bound = self.reader_position(tx);
        let (shard, local) = self.shard_of(item);
        let mut shard = lock(shard);
        shard.read_bound = shard.read_bound.max(bound);
        // The writer is pinned by its `WT` entry while the shard is held
        // (`T₀`'s row, ⟨0, *, …⟩, is never reclaimed).
        let wt = shard.pair(local).wt;
        if self.first_element(wt) < bound {
            SnapshotRead::Current
        } else {
            SnapshotRead::Older
        }
    }

    /// The newest of `n` chain versions below the own-table snapshot reader
    /// `reader` (see [`snapshot_read`](Self::snapshot_read)): `stamp_of(i)`
    /// yields version `i`'s stamp, oldest first — a chain's packed
    /// [`Stamp`]s or `TsVec`s. `None` when even the oldest is newer. The
    /// writers are not consulted.
    pub fn snapshot_newest_visible<'a, S: StampView + 'a>(
        &self,
        reader: TxId,
        n: usize,
        stamp_of: impl Fn(usize) -> &'a S,
        _writer_of: impl Fn(usize) -> TxId,
    ) -> Option<usize> {
        self.newest_below(self.reader_position(reader), n, stamp_of)
    }

    /// The own-table snapshot reader `tx`'s position: its row's column 0,
    /// defined on first use (see [`snapshot_read`](Self::snapshot_read)).
    fn reader_position(&self, tx: TxId) -> i64 {
        let slot = self.slot_expect(tx);
        if let Some(bound) = vec_of(&slot.read(), tx).get(0) {
            return bound;
        }
        let mut row = slot.write();
        let v = vec_of_mut(&mut row, tx);
        let bound = self.floor(0) + 1;
        v.define(0, bound);
        self.trace.emit(|| TraceEvent::ReaderBound { tx, bound });
        bound
    }

    /// `TS(tx, 1)`, which is defined: `tx` is a holder, or was just granted
    /// an access.
    fn first_element(&self, tx: TxId) -> i64 {
        let row = self.slot_expect(tx).read();
        vec_of(&row, tx).get(0).unwrap_or_else(|| panic!("{tx}'s column 0 is undefined"))
    }

    // ---- inspection ------------------------------------------------------

    /// Runs `f` on a borrow of `TS(tx)` (or `None` if the transaction has
    /// no live row) under the slot's read lock — the allocation-free form
    /// of [`ts`](Self::ts) for metrics and trace paths that only need a
    /// look.
    pub fn with_ts<R>(&self, tx: TxId, f: impl FnOnce(Option<&TsVec>) -> R) -> R {
        match self.rows.slot(tx.index()) {
            Some(slot) => {
                let row = slot.read();
                // The caller need not pin `tx`: its row may have been
                // reclaimed, and the slot recycled, since the lookup.
                f(row.as_ref().filter(|_| self.rows.owns(tx.index(), slot)))
            }
            None => f(None),
        }
    }

    /// `TS(tx)` (a clone), if the transaction has a live row.
    pub fn ts(&self, tx: TxId) -> Option<TsVec> {
        self.with_ts(tx, |v| v.cloned())
    }

    /// Whether `TS(a) < TS(b)` under Definition 6 (cache-accelerated).
    pub fn is_less(&self, a: TxId, b: TxId) -> bool {
        if a == b {
            return false;
        }
        matches!(self.compare_quick(Holder::row(a), Holder::row(b)), CmpResult::Less { .. })
    }

    /// `RT(item)`.
    pub fn rt(&self, item: ItemId) -> TxId {
        let (shard, local) = self.shard_of(item);
        lock(shard).pair(local).rt
    }

    /// `WT(item)`.
    pub fn wt(&self, item: ItemId) -> TxId {
        let (shard, local) = self.shard_of(item);
        lock(shard).pair(local).wt
    }

    /// Number of `RT`/`WT` entries naming `tx` (0 for `T₀` and reclaimed
    /// rows — `T₀`'s references are not tracked; it is never reclaimed).
    pub fn ref_count(&self, tx: TxId) -> u32 {
        self.rows.slot(tx.index()).map_or(0, |slot| {
            let _row = slot.read();
            if self.rows.owns(tx.index(), slot) {
                slot.refs().load(Ordering::SeqCst)
            } else {
                0
            }
        })
    }

    /// Number of live vector rows (including `T₀`).
    pub fn live_rows(&self) -> usize {
        self.rows.live_rows()
    }

    /// Number of id-index chunks currently built (telemetry gauge: their
    /// address space grows with the ids issued, 4 bytes per id; their
    /// resident pages follow the live ids).
    pub fn resident_row_chunks(&self) -> usize {
        self.rows.resident_chunks()
    }

    /// Row slots the arena has built: the most rows ever live at once,
    /// whatever the number of ids issued.
    pub fn row_arena_len(&self) -> usize {
        self.rows.arena_len()
    }

    /// Ids whose id-index entries the row table has released (telemetry
    /// gauge: every id from 1,024 up to the release cursor was reclaimed,
    /// and the index pages holding only their entries were given back).
    pub fn released_index_ids(&self) -> usize {
        self.rows.released_ids()
    }

    /// A serial order consistent with the final vectors: the given
    /// transactions (all of which must have live rows) sorted by
    /// [`TsVec::serial_cmp`] — a linear extension of the strict vector
    /// order, cf.
    /// [`TimestampTable::serial_order`](crate::TimestampTable::serial_order).
    pub fn serial_order(&self, txns: &[TxId]) -> Vec<TxId> {
        // Snapshot the vectors slot by slot: decided prefixes are stable
        // (write-once), so any interleaving of concurrent defines yields a
        // valid linear extension of the orders decided so far.
        let mut pairs: Vec<(TxId, TsVec)> = txns
            .iter()
            .map(|&t| (t, self.ts(t).unwrap_or_else(|| panic!("no live timestamp vector for {t}"))))
            .collect();
        pairs.sort_by(|(_, va), (_, vb)| va.serial_cmp(vb));
        // The O(n²) pairwise verification the sort replaced; debug-only.
        // Goes through the cache-accelerated is_less on purpose — it
        // cross-checks the cache against the final vectors too.
        debug_assert!(
            pairs
                .iter()
                .enumerate()
                .all(|(p, (a, _))| { pairs[p + 1..].iter().all(|(b, _)| !self.is_less(*b, *a)) }),
            "sorted order contradicts the strict vector order"
        );
        pairs.into_iter().map(|(t, _)| t).collect()
    }
}

/// Mutable form of [`vec_of`].
fn vec_of_mut(guard: &mut Option<TsVec>, tx: TxId) -> &mut TsVec {
    guard.as_mut().unwrap_or_else(|| panic!("no live timestamp vector for {tx}"))
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use mdts_model::{Log, MultiStepConfig};

    use super::*;
    use crate::mtk::{MtScheduler, Reject};

    #[test]
    fn first_op_defines_first_element() {
        let s = SharedMtScheduler::with_k(2);
        assert!(s.read(TxId(1), ItemId(0)).is_accept());
        assert_eq!(s.ts(TxId(1)).unwrap().to_string(), "<1,*>");
        assert_eq!(s.rt(ItemId(0)), TxId(1));
    }

    #[test]
    fn conflicting_write_after_later_writer_rejected() {
        let s = SharedMtScheduler::with_k(2);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        let d = s.write(TxId(1), ItemId(0));
        assert_eq!(
            d,
            Decision::Reject(Reject { tx: TxId(1), against: TxId(2), item: ItemId(0), column: 0 })
        );
    }

    /// Lines 9–10: a read refused against a later reader proceeds when
    /// already ordered after the latest writer — without becoming `RT`.
    #[test]
    fn reader_rule_lets_read_slip_before_later_reader() {
        let run = |reader_rule: bool| {
            let opts = MtOptions { reader_rule, ..MtOptions::new(2) };
            let s = SharedMtScheduler::new(opts);
            let (x, y) = (ItemId(0), ItemId(1));
            // Pre-order T1 < T2 < T3 on y.
            assert!(s.write(TxId(1), y).is_accept());
            assert!(s.write(TxId(2), y).is_accept());
            assert!(s.write(TxId(3), y).is_accept());
            // x: WT = T1, RT = T3.
            assert!(s.write(TxId(1), x).is_accept());
            assert!(s.read(TxId(3), x).is_accept());
            (s.read(TxId(2), x), s.rt(x))
        };
        let (d, rt) = run(true);
        assert_eq!(d, Decision::accept(), "ordered after WT=T1, slips before RT=T3");
        assert_eq!(rt, TxId(3), "the slipped read must not displace RT");
        let (d, _) = run(false);
        assert!(!d.is_accept(), "without lines 9-10 the read is rejected");
    }

    /// III-D-6c: a write ordered after all readers but before the newer
    /// writer is ignored, not aborted.
    #[test]
    fn thomas_write_rule_ignores_obsolete_write() {
        let run = |thomas: bool| {
            let opts = MtOptions { thomas_write_rule: thomas, ..MtOptions::new(2) };
            let s = SharedMtScheduler::new(opts);
            let (x, y) = (ItemId(0), ItemId(1));
            assert!(s.write(TxId(1), y).is_accept());
            assert!(s.write(TxId(2), y).is_accept()); // T1 < T2
            assert!(s.write(TxId(2), x).is_accept()); // WT(x) = T2
            (s.write(TxId(1), x), s.wt(x))
        };
        let (d, wt) = run(true);
        assert_eq!(d, Decision::Accept { ignored: vec![ItemId(0)] });
        assert_eq!(wt, TxId(2), "the ignored write must not displace WT");
        let (d, _) = run(false);
        assert!(!d.is_accept());
    }

    /// III-D-4: a rejected transaction restarts above its blocker's first
    /// element and cannot hit the same refusal again.
    #[test]
    fn starvation_flush_restarts_above_blocker() {
        let opts = MtOptions { starvation_flush: true, ..MtOptions::new(2) };
        let s = SharedMtScheduler::new(opts);
        let (x, y) = (ItemId(0), ItemId(1));
        assert!(s.write(TxId(2), y).is_accept()); // TS(2) = <1,*>
        assert!(s.write(TxId(3), y).is_accept()); // TS(3) = <2,*>
        assert!(s.write(TxId(3), x).is_accept()); // WT(x) = T3
        assert!(!s.write(TxId(2), x).is_accept()); // refused against T3
        s.abort(TxId(2));
        s.begin_restarted(TxId(4), TxId(2));
        assert_eq!(s.ts(TxId(4)).unwrap(), TsVec::from_elems(&[Some(3), None]));
        assert!(s.write(TxId(4), x).is_accept(), "the restart clears the blocker");
    }

    /// A restart chain on one item while writers commit during every
    /// backoff: each writer's stamp lands above the restart's III-D-4
    /// hint, so the paper-rule restart is refused at its first read, again
    /// and again. The [`RESTART_FLOOR_FROM`]th restart begins above the
    /// published column-0 maximum and is granted. The trace, restart
    /// values included, certifies.
    #[test]
    fn a_long_restart_chain_begins_above_committed_history() {
        let buffer = mdts_trace::TraceBuffer::journal();
        let mut s =
            SharedMtScheduler::new(MtOptions { starvation_flush: true, ..MtOptions::new(3) });
        s.attach_trace(TraceSink::to(&buffer));
        let (x, y) = (ItemId(0), ItemId(1));
        let mut next = 1u32;
        let mut fresh = move || {
            next += 1;
            TxId(next)
        };
        // Two writers commit on `x`, each above the last at column 0.
        fn commit_two_writers(s: &SharedMtScheduler, x: ItemId, fresh: &mut impl FnMut() -> TxId) {
            for _ in 0..2 {
                let w = fresh();
                s.begin(w);
                assert!(s.write(w, x).is_accept());
                s.stamp_commit(w);
                s.commit(w);
            }
        }
        let mut tx = fresh();
        s.begin(tx);
        assert!(s.read(tx, y).is_accept());
        commit_two_writers(&s, x, &mut fresh);
        assert!(!s.read(tx, x).is_accept(), "refused by a writer above it");
        for nth in 1..=RESTART_FLOOR_FROM {
            s.abort(tx);
            commit_two_writers(&s, x, &mut fresh); // during the backoff
            let restart = fresh();
            s.begin_restarted_nth(restart, tx, nth);
            tx = restart;
            let granted = s.read(tx, x).is_accept();
            if nth < RESTART_FLOOR_FROM {
                assert!(!granted, "restart {nth} is born below committed history");
            } else {
                assert!(granted, "restart {nth} begins above committed history");
                assert_eq!(s.ts(tx).unwrap().get(0), Some(s.floor(0) + 1));
            }
        }
        let report = mdts_trace::audit(&buffer.snapshot(), 3);
        assert!(report.is_clean(), "{}", report.summary());
    }

    /// III-D-6b: commit alone cannot reclaim a row that is still `RT`/`WT`
    /// somewhere; the displacement drops it in O(1).
    #[test]
    fn commit_reclaims_on_displacement() {
        let s = SharedMtScheduler::with_k(2);
        let x = ItemId(0);
        assert!(s.write(TxId(1), x).is_accept());
        assert_eq!(s.ref_count(TxId(1)), 1);
        assert!(!s.commit(TxId(1)), "still WT(x): not reclaimable yet");
        assert!(s.ts(TxId(1)).is_some());
        assert!(s.write(TxId(2), x).is_accept()); // displaces WT(x)
        assert_eq!(s.ts(TxId(1)), None, "displacement reclaimed the row");
        // An unreferenced committer reclaims immediately.
        s.begin(TxId(3));
        assert!(s.commit(TxId(3)));
        assert_eq!(s.ts(TxId(3)), None);
    }

    /// `with_ts` exposes the row under the slot lock without cloning, and
    /// handles never-begun and reclaimed transactions as `None`.
    #[test]
    fn with_ts_borrows_the_row() {
        let s = SharedMtScheduler::with_k(2);
        assert!(s.with_ts(TxId(9), |v| v.is_none()), "never begun");
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        let first = s.with_ts(TxId(1), |v| v.unwrap().get(0));
        assert_eq!(first, Some(1));
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        s.commit(TxId(1)); // displaced → reclaimed
        assert!(s.with_ts(TxId(1), |v| v.is_none()), "reclaimed row reads as None");
    }

    /// The chain walk serves the newest version whose stamp's column 0
    /// lies below the reader's position, testing versions newest first
    /// and stopping there — over `TsVec` stamps and over the chain's
    /// packed ones alike, for a bounded reader (`snapshot_visible`) and an
    /// own-table one (`snapshot_read` + `snapshot_newest_visible`).
    #[test]
    fn snapshot_walks_serve_the_newest_version_below_the_position() {
        walks_newest_first(|stamp| stamp);
        walks_newest_first(mdts_vector::Stamp::from);
    }

    /// [`snapshot_walks_serve_the_newest_version_below_the_position`]
    /// over the stamps `pack` makes of the writers' saturated vectors.
    fn walks_newest_first<S: StampView>(pack: impl Fn(TsVec) -> S) {
        let s = SharedMtScheduler::with_k(3);
        let x = ItemId(0);
        let (mut stamps, mut writers) = (Vec::new(), Vec::new());
        for id in 1..=3 {
            let w = TxId(id);
            s.begin(w);
            assert!(s.write(w, x).is_accept());
            stamps.push(s.stamp_commit(w));
            s.commit(w);
            writers.push(w);
        }
        let packed: Vec<S> = stamps.iter().cloned().map(pack).collect();
        let first = |i: usize| stamps[i].get(0).expect("saturated stamp");
        assert!(first(0) < first(1) && first(1) < first(2), "decided at column 0");
        assert_eq!(s.floor(0), first(2), "column 0's maximum is the newest stamp's");
        // Walks at `bound`: the served index and the versions the walk
        // compared, which the counters must equal.
        let mut read_bound = i64::MIN;
        let mut walk = |bound: i64, compared: u64| {
            let before = s.batched_compare_stats();
            let got = s.snapshot_visible(bound, &mut read_bound, 3, |i| &packed[i]);
            let after = s.batched_compare_stats();
            assert_eq!(after.chain_batches - before.chain_batches, 1, "one walk at {bound}");
            assert_eq!(after.candidates - before.candidates, compared, "versions at {bound}");
            let bucket = (u64::BITS - 1 - compared.leading_zeros()) as usize;
            assert_eq!(after.size_buckets[bucket] - before.size_buckets[bucket], 1);
            for (i, stamp) in packed.iter().enumerate() {
                assert_eq!(got.is_some_and(|g| i <= g), stamp.first() < bound, "stamp {i}");
            }
            got
        };

        // A reader begun after all three writers: the newest version, one
        // compare.
        let after_all = s.begin_snapshot_reader(TxId(4));
        assert_eq!(after_all, first(2) + 1);
        assert_eq!(s.ts(TxId(4)), None, "a bounded reader keeps no row");
        assert_eq!(walk(after_all, 1), Some(2));
        // At writer 3's column 0: writer 2's version, after two compares
        // — a position excludes every stamp at or above it.
        assert_eq!(walk(first(2), 2), Some(1));
        assert_eq!(walk(first(1), 3), Some(0));
        // At or below the oldest: nothing, after all three.
        assert_eq!(walk(first(0), 3), None);
        assert_eq!(read_bound, after_all, "the bound is the largest position read at");

        // The own-table reader takes the same position in its row, at its
        // first snapshot read, and reads the current value.
        let own = TxId(5);
        s.begin(own);
        assert_eq!(s.snapshot_read(own, x), SnapshotRead::Current);
        assert_eq!(s.ts(own).unwrap().get(0), Some(first(2) + 1));
        assert_eq!(s.snapshot_newest_visible(own, 3, |i| &packed[i], |i| writers[i]), Some(2));
        assert!(s.commit(own), "the reader's row goes at its commit");
    }

    /// A write the access rule grants is refused when its column 0 lies
    /// below a read bound a snapshot reader raised on the item's shard —
    /// and only then: the refusal is typed, and a restart is granted.
    #[test]
    fn a_write_below_a_read_bound_is_refused() {
        let s = SharedMtScheduler::with_k(3);
        let (x, y) = (ItemId(0), ItemId(1));
        let old = TxId(1);
        assert!(s.read(old, x).is_accept()); // column 0 defined to 1
        let w = TxId(2);
        assert!(s.write(w, y).is_accept());
        s.stamp_commit(w); // publishes column 0 = 1
        s.commit(w);
        let reader = TxId(3);
        s.begin(reader);
        assert_eq!(s.snapshot_read(reader, x), SnapshotRead::Current);
        s.commit(reader);
        let refused = s.write(old, x);
        match &refused {
            Decision::Reject(reject) => assert!(reject.by_read_bound(), "{reject:?}"),
            accept => panic!("a write below the bound was granted: {accept:?}"),
        }
        assert_eq!(s.wt(x), TxId::VIRTUAL, "a refused write takes no WT entry");
        s.abort(old);
        let restart = TxId(4);
        s.begin_restarted(restart, old);
        assert!(s.read(restart, x).is_accept() && s.write(restart, x).is_accept());
        assert_eq!(s.ts(restart).unwrap().get(0), Some(2), "at the reader's position");
    }

    /// A finished snapshot reader constrains no later writer: at one
    /// client every writer begins after the reader ended, so its column 0,
    /// defined against a holder above the published maximum, is at or
    /// above every position taken before — for every k, k = 1 included.
    #[test]
    fn a_finished_reader_never_refuses_a_later_writer() {
        for k in 1..=4 {
            let s = SharedMtScheduler::with_k(k);
            let mut read_bounds = [i64::MIN; 4];
            let mut id = 0u32;
            let mut fresh = || {
                id += 1;
                TxId(id)
            };
            for round in 0..200usize {
                let items = [ItemId((round % 4) as u32), ItemId(((round + 1) % 4) as u32)];
                let reader = fresh();
                let bound = s.begin_snapshot_reader(reader);
                for item in items {
                    let no_chain: [Stamp; 0] = [];
                    s.snapshot_visible(bound, &mut read_bounds[item.index()], 0, |i| &no_chain[i]);
                }
                let w = fresh();
                s.begin(w);
                for item in items {
                    assert!(s.read(w, item).is_accept(), "k = {k}, round {round}");
                }
                for item in items {
                    let (shard, local) = s.shard_of(item);
                    let mut shard = lock(shard);
                    let bound = read_bounds[item.index()];
                    let d = shard.update(local, |pair| {
                        s.access_held(w, item, OpKind::Write, pair, bound, |_| None)
                    });
                    assert!(d.is_accept(), "k = {k}, round {round}: {d:?}");
                }
                s.stamp_commit(w);
                s.commit(w);
            }
        }
    }

    /// Repeat consults of a decided order are served by the write-once
    /// cache, and reusing a reclaimed id flushes it.
    #[test]
    fn slot_reuse_invalidates_cached_orders() {
        let s = SharedMtScheduler::with_k(2);
        let x = ItemId(0);
        assert!(s.write(TxId(1), x).is_accept());
        assert!(s.write(TxId(2), x).is_accept()); // encodes T1 < T2
        assert!(s.order(TxId(1), TxId(2)), "repeat consult");
        let stats = s.order_cache_stats();
        assert!(stats.hits > 0, "the repeat consult must hit the cache: {stats:?}");
        s.commit(TxId(1)); // unreferenced (displaced) → reclaimed
        assert_eq!(s.ts(TxId(1)), None);
        s.begin(TxId(1)); // id reuse: must flush the cache
        assert!(s.order_cache_stats().invalidations > 0, "reuse must invalidate");
        assert!(
            s.order(TxId(2), TxId(1)),
            "fresh incarnation is unordered; the stale T1 < T2 must not refuse"
        );
    }

    /// Reusing an id whose index entry the sweep released is still a
    /// reuse: its entry reads `0`, as a fresh id's does, but it lies below
    /// the release cursor, so the order cache is flushed and the restart
    /// hint the id left is taken.
    #[test]
    fn reusing_a_released_id_flushes_the_cache_and_takes_the_hint() {
        let s = SharedMtScheduler::with_k(2);
        for id in 1..=8192 {
            s.begin(TxId(id));
            assert!(s.commit(TxId(id)), "an unreferenced commit is reclaimed at once");
        }
        assert!(s.released_index_ids() >= 6 * 1024, "the sweep passed {}", s.released_index_ids());
        *lock(s.hints.mine().cell()) = Some((TxId(2048), 7));
        let flushes = s.order_cache_stats().invalidations;
        s.begin(TxId(2048));
        assert_eq!(s.order_cache_stats().invalidations, flushes + 1, "reuse must invalidate");
        assert_eq!(*lock(s.hints.mine().cell()), None, "reuse must take the hint");
        assert_eq!(s.ts(TxId(2048)).map(|v| v.to_string()).as_deref(), Some("<*,*>"));
    }

    /// Commit-aware `Set`: a serial stream of stamped transfers — begin,
    /// R, R, W, W, `stamp_commit`, `commit`, next — is never rejected.
    /// Every holder a fresh transaction meets has committed, so its
    /// elements sit at or below the published column maxima the fresh
    /// transaction's first element is chosen above. With the paper's
    /// minimal `TS(j,m) + 1` the second read is refused whenever its
    /// holder committed after the first read's.
    #[test]
    fn serial_stamped_transfers_are_never_rejected() {
        for k in [2, 3, 4] {
            let opts = MtOptions { starvation_flush: true, ..MtOptions::new(k) };
            let s = SharedMtScheduler::new(opts);
            let mut rng = StdRng::seed_from_u64(0x5E71A1 + k as u64);
            for id in 1..=5_000u32 {
                let tx = TxId(id);
                let src = ItemId(rng.gen_range(0u32..300));
                let dst = ItemId((src.0 + rng.gen_range(1u32..300)) % 300);
                s.begin(tx);
                for (n, d) in [s.read(tx, src), s.read(tx, dst), s.write(tx, src), s.write(tx, dst)]
                    .into_iter()
                    .enumerate()
                {
                    assert!(d.is_accept(), "k = {k}: access {n} of {tx} ({src}, {dst}): {d:?}");
                }
                s.stamp_commit(tx);
                s.commit(tx);
            }
        }
    }

    /// The commit floor is inert until a stamp is published: against a
    /// holder whose element is negative (`LeftUndefined` defines
    /// `bound − 1`), an unstamped scheduler still defines the paper's
    /// `bound + 1` — not a value above some initial floor of 0. This is
    /// what keeps `sequential_equivalence*` an exact oracle.
    #[test]
    fn unstamped_scheduler_defines_the_papers_value_above_a_negative_holder() {
        let s = SharedMtScheduler::with_k(3);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert!(s.write(TxId(2), ItemId(1)).is_accept());
        assert!(s.write(TxId(2), ItemId(0)).is_accept()); // T1 = <1,1,*>, T2 = <1,2,*>
        assert!(s.write(TxId(3), ItemId(2)).is_accept());
        assert!(s.read(TxId(1), ItemId(2)).is_accept()); // T3 = <1,0,*>
        assert!(s.write(TxId(4), ItemId(3)).is_accept());
        assert!(s.write(TxId(4), ItemId(4)).is_accept());
        assert!(s.read(TxId(3), ItemId(3)).is_accept()); // T4 below T3
        assert_eq!(s.ts(TxId(4)).unwrap(), TsVec::from_elems(&[Some(1), Some(-1), None]));
        assert!(s.write(TxId(5), ItemId(5)).is_accept()); // T5 = <1,*,*>
        assert!(s.write(TxId(5), ItemId(4)).is_accept()); // after WT = T4
        assert_eq!(s.ts(TxId(5)).unwrap(), TsVec::from_elems(&[Some(1), Some(0), None]));
    }

    /// Drives Algorithm 1 through `log` three ways — the sequential
    /// scheduler, the concurrent one over its own shard tables, and the
    /// concurrent one over holder pairs a caller keeps (here a test-local
    /// map, as the engine keeps them in its chain records): the same
    /// decisions, the same `Access` and `SetEdge` events in the same
    /// order, and byte-identical vectors left behind.
    fn run_all(log: &Log, opts: MtOptions) {
        let journals = [(); 3].map(|_| mdts_trace::TraceBuffer::journal());
        let mut seq = MtScheduler::new(opts);
        seq.attach_trace(TraceSink::to(&journals[0]));
        let mut shr = SharedMtScheduler::new(opts);
        shr.attach_trace(TraceSink::to(&journals[1]));
        let mut held = SharedMtScheduler::new(opts);
        held.attach_trace(TraceSink::to(&journals[2]));
        let mut pairs: HashMap<ItemId, HolderPair> = HashMap::new();
        for (pos, op) in log.ops().iter().enumerate() {
            let d = seq.process(op);
            let ds = shr.process(op);
            held.begin(op.tx);
            let dh = algo1::process(op, |tx, item, kind| {
                let pair = pairs.entry(item).or_default();
                held.access_held(tx, item, kind, pair, i64::MIN, |_| None)
            });
            assert_eq!(d, ds, "decision differs at op {pos} of {log}");
            assert_eq!(d, dh, "caller-held pairs decide differently at op {pos} of {log}");
            if !d.is_accept() {
                break;
            }
        }
        for (&item, pair) in &pairs {
            assert_eq!((pair.rt, pair.wt), (shr.rt(item), shr.wt(item)), "holders of {item}");
            assert_eq!((held.rt(item), held.wt(item)), (TxId::VIRTUAL, TxId::VIRTUAL));
        }
        let [a, b, c] = journals.map(|j| {
            let events: Vec<TraceEvent> = j
                .snapshot()
                .events()
                .filter(|e| matches!(e, TraceEvent::Access { .. } | TraceEvent::SetEdge { .. }))
                .cloned()
                .collect();
            events
        });
        assert_eq!(a, b, "Access/SetEdge streams differ on {log}");
        assert_eq!(a, c, "Access/SetEdge streams differ over caller-held pairs on {log}");
        for tx in log.transactions() {
            assert_eq!(seq.table().ts(tx).cloned(), shr.ts(tx), "vectors differ for {tx} on {log}");
            assert_eq!(shr.ts(tx), held.ts(tx), "vectors differ for {tx} over held pairs on {log}");
        }
    }

    /// Drives `log` through two schedulers over caller-held pairs, each
    /// transaction committed after its last operation (a writer stamped
    /// first, as the engine does) and aborted at its first refusal, its
    /// later operations skipped. Transactions that only read are bounded
    /// snapshot readers: they take a position at their first read and
    /// raise a per-item read bound, which the writers' accesses consult;
    /// both schedulers must serve them the same versions. One scheduler
    /// compares every holder through its
    /// row; the other keeps each committed writer's stamp in a per-item
    /// chain, calls `version_installed`, and is handed the chain: its
    /// committed writers are stamp-backed. Stamps stand for rows exactly,
    /// so both make the same decisions, emit the same `Access`, `Compare`
    /// and `SetEdge` events and leave the same vectors — and the stamped
    /// one keeps no more rows.
    fn run_stamped(log: &Log, opts: MtOptions) {
        let journals = [(); 2].map(|_| mdts_trace::TraceBuffer::journal());
        let scheds = [0, 1].map(|i| {
            let mut s = SharedMtScheduler::new(opts);
            s.attach_trace(TraceSink::to(&journals[i]));
            s
        });
        let mut pairs: [HashMap<ItemId, HolderPair>; 2] = Default::default();
        let mut bounds: [HashMap<ItemId, i64>; 2] = Default::default();
        let mut positions: HashMap<TxId, [i64; 2]> = HashMap::new();
        let mut served: [Vec<Option<usize>>; 2] = Default::default();
        let mut chains: HashMap<ItemId, Vec<(TxId, Stamp)>> = HashMap::new();
        let ops = log.ops();
        let last: HashMap<TxId, usize> = ops.iter().enumerate().map(|(p, op)| (op.tx, p)).collect();
        let writers: std::collections::HashSet<TxId> =
            ops.iter().filter(|op| op.kind == OpKind::Write).map(|op| op.tx).collect();
        let mut written: HashMap<TxId, Vec<ItemId>> = HashMap::new();
        let mut aborted = std::collections::HashSet::new();
        for (pos, op) in ops.iter().enumerate() {
            let tx = op.tx;
            if aborted.contains(&tx) {
                continue;
            }
            let reader = !writers.contains(&tx);
            if reader && !positions.contains_key(&tx) {
                positions.insert(tx, scheds.each_ref().map(|s| s.begin_snapshot_reader(tx)));
            }
            let mut decisions = Vec::new();
            for (side, s) in scheds.iter().enumerate() {
                if !reader {
                    s.begin(tx);
                }
                let kept = |item: ItemId| {
                    let chain = chains.get(&item).filter(|_| side == 1);
                    move |w: TxId| chain?.iter().rev().find(|(t, _)| *t == w).map(|(_, s)| s)
                };
                let (pairs, bounds) = (&mut pairs[side], &mut bounds[side]);
                let served = &mut served[side];
                decisions.push(algo1::process(op, |tx, item, kind| {
                    let bound = bounds.entry(item).or_insert(i64::MIN);
                    if reader {
                        let chain = chains.get(&item).map_or(&[][..], Vec::as_slice);
                        let position = positions[&tx][side];
                        served.push(
                            s.snapshot_visible(position, bound, chain.len(), |i| &chain[i].1),
                        );
                        return Decision::accept();
                    }
                    let pair = pairs.entry(item).or_default();
                    s.access_held(tx, item, kind, pair, *bound, kept(item))
                }));
            }
            assert_eq!(decisions[0], decisions[1], "decision differs at op {pos} of {log}");
            match &decisions[0] {
                Decision::Accept { ignored } if op.kind == OpKind::Write => {
                    let items = op.items().iter().filter(|item| !ignored.contains(item));
                    written.entry(tx).or_default().extend(items);
                }
                Decision::Accept { .. } => {}
                Decision::Reject(_) => {
                    aborted.insert(tx);
                    scheds.iter().for_each(|s| s.abort(tx));
                    continue;
                }
            }
            if last[&tx] != pos {
                continue;
            }
            let mut items = written.remove(&tx).unwrap_or_default();
            items.sort_unstable();
            items.dedup();
            if writers.contains(&tx) {
                let [a, b] = [0, 1].map(|side| scheds[side].stamp_commit(tx));
                assert_eq!(a, b, "stamps differ for {tx} on {log}");
                for item in items {
                    chains.entry(item).or_default().push((tx, Stamp::from(b.clone())));
                    scheds[1].version_installed(tx, &pairs[1][&item]);
                }
            }
            scheds.iter().for_each(|s| {
                s.commit(tx);
            });
        }
        assert_eq!(pairs[0], pairs[1], "holders differ on {log}");
        assert_eq!(positions.values().find(|p| p[0] != p[1]), None, "positions differ on {log}");
        assert_eq!(served[0], served[1], "snapshot reads differ on {log}");
        let [a, b] = journals.map(|j| {
            let events: Vec<TraceEvent> = j
                .snapshot()
                .events()
                .filter(|e| {
                    matches!(
                        e,
                        TraceEvent::Access { .. }
                            | TraceEvent::Compare { .. }
                            | TraceEvent::SetEdge { .. }
                    )
                })
                .cloned()
                .collect();
            events
        });
        assert_eq!(a, b, "event streams differ on {log}");
        for tx in log.transactions() {
            if let Some(v) = scheds[1].ts(tx) {
                assert_eq!(scheds[0].ts(tx), Some(v), "vectors differ for {tx} on {log}");
            }
        }
        assert!(scheds[1].live_rows() <= scheds[0].live_rows());
    }

    fn arb_log() -> impl Strategy<Value = Log> {
        (2usize..7, 2usize..8, 0.2f64..0.8, any::<u64>()).prop_map(
            |(n_txns, n_items, p_write, seed)| {
                let mut rng = StdRng::seed_from_u64(seed);
                MultiStepConfig {
                    n_txns,
                    n_items,
                    p_write,
                    min_ops: 1,
                    max_ops: 4,
                    ..Default::default()
                }
                .generate(&mut rng)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Driven single-threaded, the concurrent scheduler is
        /// operation-for-operation identical to Algorithm 1's sequential
        /// implementation — same decisions, same final vectors.
        #[test]
        fn sequential_equivalence(log in arb_log(), k in 1usize..6) {
            run_all(&log, MtOptions::new(k));
        }

        /// ... with the refinement options on as well.
        #[test]
        fn sequential_equivalence_with_refinements(log in arb_log(), k in 2usize..5) {
            let opts = MtOptions {
                relaxed_reader_rule: true,
                thomas_write_rule: true,
                starvation_flush: true,
                ..MtOptions::new(k)
            };
            run_all(&log, opts);
        }

        /// ... and with the concurrent scheduler's order cache disabled,
        /// pinning that the cache changes no decision (the sequential
        /// scheduler keeps none).
        #[test]
        fn sequential_equivalence_cache_off(log in arb_log(), k in 1usize..6) {
            run_all(&log, MtOptions { order_cache: false, ..MtOptions::new(k) });
        }

        /// Stamp-backed holders decide, define and emit exactly as rows
        /// do ([`run_stamped`]), with the refinement options off and on.
        #[test]
        fn stamp_backed_holders_stand_for_their_rows(log in arb_log(), k in 1usize..6) {
            run_stamped(&log, MtOptions::new(k));
            let refined = MtOptions {
                relaxed_reader_rule: true,
                thomas_write_rule: true,
                starvation_flush: true,
                ..MtOptions::new(k)
            };
            run_stamped(&log, refined);
        }
    }

    /// Disjoint working sets scale without interference: every operation
    /// accepts, and the k-th-column values drawn concurrently stay
    /// distinct.
    #[test]
    fn concurrent_disjoint_transactions_all_accept() {
        const THREADS: u32 = 8;
        const TXNS_PER_THREAD: u32 = 50;
        let s = SharedMtScheduler::with_k(3);
        let rejected = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                let rejected = &rejected;
                scope.spawn(move || {
                    for n in 0..TXNS_PER_THREAD {
                        let tx = TxId(1 + t * TXNS_PER_THREAD + n);
                        let item = ItemId(t); // one private item per thread
                        s.begin(tx);
                        let ok = s.read(tx, item).is_accept() && s.write(tx, item).is_accept();
                        if ok {
                            s.commit(tx);
                        } else {
                            rejected.fetch_add(1, Ordering::Relaxed);
                            s.abort(tx);
                        }
                    }
                });
            }
        });
        assert_eq!(rejected.load(Ordering::Relaxed), 0, "disjoint items never conflict");
        // Each item's final RT/WT pin at most two rows per thread; all
        // other committed rows were reclaimed on displacement.
        assert!(
            s.live_rows() <= 1 + 2 * THREADS as usize,
            "reclamation fell behind: {} live rows",
            s.live_rows()
        );
        // Reclaimed slots were recycled: at most one running and one
        // pinned row per thread at any instant, plus `T₀` — doubled for
        // the slots a thread can build while another's reclaim is between
        // dropping a row and pushing its slot.
        assert!(
            s.row_arena_len() <= 2 * (1 + 2 * THREADS as usize),
            "the arena grew past the live rows: {} slots",
            s.row_arena_len()
        );
    }

    /// Contended smoke test: threads hammer a tiny hot set; whatever
    /// commits must leave mutually consistent vectors (the debug verify in
    /// `serial_order` cross-checks the linear extension quadratically).
    #[test]
    fn concurrent_hotspot_is_consistent() {
        const THREADS: u32 = 8;
        const TXNS_PER_THREAD: u32 = 40;
        let s = SharedMtScheduler::with_shards(MtOptions::new(4), 4);
        let committed = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                let committed = &committed;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE + t as u64);
                    for n in 0..TXNS_PER_THREAD {
                        let tx = TxId(1 + t * TXNS_PER_THREAD + n);
                        s.begin(tx);
                        let mut ok = true;
                        for _ in 0..3 {
                            let item = ItemId(rng.gen_range(0u32..3));
                            let d = if rng.gen_bool(0.5) {
                                s.read(tx, item)
                            } else {
                                s.write(tx, item)
                            };
                            if !d.is_accept() {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            lock(committed).push(tx);
                        }
                    }
                });
            }
        });
        // Commit nothing until the end so every vector stays live for the
        // final cross-check; then the sort's debug_assert verifies no pair
        // contradicts the strict order.
        let committed = lock(&committed);
        assert!(!committed.is_empty(), "some transactions must get through");
        let order = s.serial_order(&committed);
        assert_eq!(order.len(), committed.len());
        for &tx in committed.iter() {
            s.commit(tx);
        }
    }

    /// The hotspot workload again, now traced: the independent auditor
    /// replays the merged event sequence from 8 threads and re-confirms
    /// every comparison, encode, and accept/reject decision, plus the
    /// committed prefix being in TO(k). Cache-served comparisons carry the
    /// `cached` flag and must agree with the auditor's replayed vectors.
    #[test]
    fn concurrent_trace_audits_clean() {
        const THREADS: u32 = 8;
        const TXNS_PER_THREAD: u32 = 40;
        let buffer = mdts_trace::TraceBuffer::unbounded(16);
        let opts = MtOptions { thomas_write_rule: true, ..MtOptions::new(4) };
        let mut s = SharedMtScheduler::with_shards(opts, 4);
        s.attach_trace(mdts_trace::TraceSink::to(&buffer));
        let s = s;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let s = &s;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBADC0DE + t as u64);
                    for n in 0..TXNS_PER_THREAD {
                        let tx = TxId(1 + t * TXNS_PER_THREAD + n);
                        s.begin(tx);
                        let mut ok = true;
                        for _ in 0..3 {
                            let item = ItemId(rng.gen_range(0u32..3));
                            let d = if rng.gen_bool(0.5) {
                                s.read(tx, item)
                            } else {
                                s.write(tx, item)
                            };
                            if !d.is_accept() {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            s.commit(tx);
                        } else {
                            s.abort(tx);
                        }
                    }
                });
            }
        });
        let trace = buffer.snapshot();
        let report = mdts_trace::audit(&trace, 4);
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.committed > 0, "some transactions must commit");
        assert!(report.decisions > 0 && report.comparisons > 0);
        assert!(report.cached_comparisons > 0, "the hot set must produce cache hits");
        assert_eq!(buffer.dropped(), 0, "unbounded buffer never drops");
    }

    /// Recomputes what the O(#items) reclamation scan would: for every
    /// transaction, the number of `RT`/`WT` entries naming it.
    fn scan_refs(s: &SharedMtScheduler, items: &[ItemId]) -> HashMap<TxId, u32> {
        let mut counts = HashMap::new();
        for &item in items {
            for holder in [s.rt(item), s.wt(item)] {
                if holder != TxId::VIRTUAL {
                    *counts.entry(holder).or_insert(0) += 1;
                }
            }
        }
        counts
    }

    /// The O(1) refcount invariants, checkable at any quiescent point:
    /// the maintained counts equal the scan, every `RT`/`WT` entry names
    /// a live row, and every finished unreferenced row is reclaimed.
    fn check_reclaim_invariants(
        s: &SharedMtScheduler,
        txns: &[TxId],
        items: &[ItemId],
        finished: &std::collections::HashSet<TxId>,
    ) {
        let scan = scan_refs(s, items);
        for (&tx, &n) in &scan {
            assert!(s.ts(tx).is_some(), "{tx} is RT/WT of something but has no row");
            assert_eq!(s.ref_count(tx), n, "refcount of {tx} diverged from the scan");
        }
        for &tx in txns {
            if !scan.contains_key(&tx) {
                assert_eq!(s.ref_count(tx), 0, "{tx} counts references the scan cannot see");
                if finished.contains(&tx) {
                    assert_eq!(s.ts(tx), None, "finished unreferenced {tx} was not reclaimed");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// III-D-6b: after *every* step of a random schedule with random
        /// interleaved commits and aborts, the O(1) refcounts agree with
        /// the O(#items) scan they replaced, and rows are reclaimed
        /// exactly when finished and unreferenced.
        #[test]
        fn refcount_reclaim_matches_scan(log in arb_log(), k in 1usize..5, seed in any::<u64>()) {
            let opts = MtOptions {
                thomas_write_rule: true,
                starvation_flush: true,
                ..MtOptions::new(k)
            };
            let s = SharedMtScheduler::with_shards(opts, 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let txns = log.transactions();
            let items: Vec<ItemId> = {
                let mut v: Vec<ItemId> =
                    log.ops().iter().flat_map(|op| op.items().iter().copied()).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let mut dead = std::collections::HashSet::new();
            let mut finished = std::collections::HashSet::new();
            for op in log.ops() {
                if dead.contains(&op.tx) {
                    continue;
                }
                if s.process(op).is_accept() {
                    if rng.gen_bool(0.2) {
                        s.commit(op.tx);
                        dead.insert(op.tx);
                        finished.insert(op.tx);
                    }
                } else {
                    s.abort(op.tx);
                    dead.insert(op.tx);
                    finished.insert(op.tx);
                }
                check_reclaim_invariants(&s, &txns, &items, &finished);
            }
            for &tx in &txns {
                if !dead.contains(&tx) {
                    if rng.gen_bool(0.5) {
                        s.commit(tx);
                    } else {
                        s.abort(tx);
                    }
                    finished.insert(tx);
                    check_reclaim_invariants(&s, &txns, &items, &finished);
                }
            }
            // Everything is finished: the live rows are T₀ plus exactly
            // the rows still pinned by an RT/WT reference.
            let pinned = scan_refs(&s, &items).len();
            prop_assert_eq!(s.live_rows(), 1 + pinned, "reclamation left orphan rows behind");
        }
    }
}
