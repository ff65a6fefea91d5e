//! Multiversion storage — the paper's implementation idea III-D-6d:
//! "Reed proposed a multiple version concurrency control mechanism using
//! single-valued timestamps. The idea can be extended to timestamp
//! vectors."
//!
//! A chain holds one item's committed versions in install order, each
//! tagged with a global install ticket and the writer's timestamp vector
//! frozen at commit — saturated, so packed to its k values as a
//! [`Stamp`]; snapshot readers slot themselves into the gap between two
//! writers by comparing against those frozen stamps.
//!
//! **One record per item.** Each item has one record in its shard's
//! table, and the record is the one place the item's state lives: the
//! protocol's per-item state `H` (the engine keeps `RT(x)`/`WT(x)` there,
//! as Basic T/O keeps R-TS, W-TS and the value in one record per object)
//! beside the item's chain. The shard lock guards both, so a caller that
//! holds a [`ChainShard`] can run the access rule on an item's holders
//! and read or install its versions under one lock.
//!
//! **Layout: memory follows what a reader can reach.** An old version is
//! needed only while a live snapshot's watermark keeps it, and with no
//! snapshot live every install prunes its chain to the new version alone.
//! So the record holds the item's newest version *inline*. A chain spills
//! to a heap `Vec` only while a live snapshot keeps an older version, and
//! goes back inline at the first install that prunes it to one version.
//! An install whose watermark keeps only the new version overwrites the
//! record in place: no push, no drain, no allocation. A shard's records
//! sit in pages of 16, each built on the first touch of one of its items
//! and never moved or regrown, so the table costs one record per item
//! touched rather than a `Vec` header plus a heap block.
//!
//! **A read bound per shard.** Each shard also holds one `i64` the
//! protocol keeps for its snapshot readers (Basic T/O's read timestamp,
//! per shard rather than per item, since a record is one line already):
//! a reader raises it and a writer's validation consults it under the
//! same lock ([`ChainShard::read_bound_and_chain`],
//! [`ChainShard::read_bound`]). The lock, the page list and the bound
//! share one cache line per shard.
//!
//! **One record, one line.** A record is 64-byte aligned, and at k ≤ 3
//! with an `Option<i64>` value and two 4-byte holder ids it is exactly one
//! 64-byte line: holders 8, writer 4, ticket 8, stamp 28 (k's 24 bytes
//! and a head word that fills what was the writer's padding), value 16.
//! A stamp of larger k spills its values to the heap (see [`Stamp`]), so
//! the record stays one line at any k.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::PoisonError;

// The shard lock comes from the loom shim under `cfg(loom)`, so
// `tests/loom_models.rs` can drive a real shard against the scheduler.
#[cfg(loom)]
use loom::sync::{Mutex, MutexGuard};
#[cfg(not(loom))]
use std::sync::{Mutex, MutexGuard};

use mdts_model::{ItemId, TxId};
use mdts_vector::{CachePadded, Stamp};

/// One version in a chain. Ordering is *positional*: chains append in
/// the writers' grant order (which under MT(k) equals their vector order
/// for the same item), and the full timestamp vector of the writer —
/// frozen at commit stamp time — rides along so snapshot readers can slot
/// themselves into the gap between two writers per the MV-MT(k) rule.
#[derive(Clone, Debug)]
pub struct MvVersion<V> {
    /// Writer, or [`TxId::VIRTUAL`] for the floor version (the initial
    /// value T₀ wrote, which makes reads total: III-D-6d's guarantee that
    /// a reader can always fall back to an old-enough version).
    pub writer: TxId,
    /// Global install ticket: monotone within a chain, and comparable to
    /// snapshot begin tickets for GC watermarking.
    pub seq: u64,
    /// The writer's timestamp vector, saturated (fully defined) at stamp
    /// time and packed to its k values; `⟨0, *, …⟩` ([`Stamp::floor`]) for
    /// the floor version.
    pub stamp: Stamp,
    /// The value.
    pub value: V,
}

/// One item's chain: its newest version inline, or the whole chain on
/// the heap while a live snapshot keeps an older version.
enum Chain<V> {
    /// Never installed or seeded.
    Empty,
    /// One version: the newest, and the only one any reader can reach.
    Inline(MvVersion<V>),
    /// Two or more versions, oldest first: a live snapshot's pivot and
    /// everything installed after it.
    Spilled(Vec<MvVersion<V>>),
}

impl<V> Chain<V> {
    fn versions(&self) -> &[MvVersion<V>] {
        match self {
            Chain::Empty => &[],
            Chain::Inline(v) => std::slice::from_ref(v),
            Chain::Spilled(chain) => chain,
        }
    }

    /// The chain as a heap `Vec`, moving an inline version into one.
    fn spill(&mut self) -> &mut Vec<MvVersion<V>> {
        if !matches!(self, Chain::Spilled(_)) {
            // Room for the inline version and the one being installed.
            let mut chain = Vec::with_capacity(2);
            if let Chain::Inline(only) = std::mem::replace(self, Chain::Empty) {
                chain.push(only);
            }
            *self = Chain::Spilled(chain);
        }
        let Chain::Spilled(chain) = self else { unreachable!("spilled above") };
        chain
    }
}

/// One item's record: the protocol's per-item state and the chain, on a
/// cache line of its own.
#[repr(align(64))]
struct MvRecord<V, H> {
    holders: H,
    chain: Chain<V>,
}

/// Records per page of a shard's table. Small, because a page is built
/// whole on the first touch of any of its items: a table of a few
/// hundred items then holds few records nobody touched, while a large one
/// pays one page pointer per 16 records.
const PAGE: usize = 16;

// A chain is no larger than the version it holds inline, and a record of
// two 4-byte holder ids beside an `Option<i64>` version is one line.
const _: () = {
    use std::mem::{align_of, size_of};
    type Version = MvVersion<Option<i64>>;
    assert!(size_of::<Version>() == 56);
    assert!(size_of::<Chain<Option<i64>>>() == size_of::<Version>());
    assert!(size_of::<MvRecord<Option<i64>, [TxId; 2]>>() == 64);
    assert!(align_of::<MvRecord<Option<i64>, [TxId; 2]>>() == 64);
    #[cfg(not(loom))]
    assert!(size_of::<ShardLock<Option<i64>, [TxId; 2]>>() == 64);
};

/// A page of records, built whole.
type Page<V, H> = Box<[MvRecord<V, H>; PAGE]>;

struct MvShard<V, H> {
    /// Per-shard record table, indexed by `item >> shard_bits`: a dense
    /// layout, so steady-state accesses never touch a map. Pages are
    /// boxed, so growing the page list never moves a record, and a page
    /// nobody touched is not built.
    pages: Vec<Option<Page<V, H>>>,
    /// The shard's read bound: Basic T/O's read timestamp, kept per shard
    /// for the snapshot readers of all its items (`i64::MIN` until one
    /// reads). The protocol raises and consults it under the shard lock
    /// ([`ChainShard::read_bound`], [`ChainShard::read_bound_and_chain`]);
    /// it sits here, beside the page list on the lock's own line, because
    /// a record is exactly one line already.
    read_bound: i64,
}

/// A shard's lock and what it guards, on a cache line of its own: the
/// lock word, the page list and the read bound share the line every
/// access of the shard dirties, and no other shard's.
#[repr(align(64))]
struct ShardLock<V, H>(Mutex<MvShard<V, H>>);

impl<V, H: Default> MvShard<V, H> {
    fn record(&self, idx: usize) -> Option<&MvRecord<V, H>> {
        self.pages.get(idx / PAGE)?.as_ref().map(|page| &page[idx % PAGE])
    }

    /// `idx`'s record, building its page on first touch.
    fn record_mut(&mut self, idx: usize) -> &mut MvRecord<V, H> {
        let at = idx / PAGE;
        if self.pages.len() <= at {
            self.pages.resize_with(at + 1, || None);
        }
        let page = self.pages[at].get_or_insert_with(|| {
            Box::new(std::array::from_fn(|_| MvRecord {
                holders: H::default(),
                chain: Chain::Empty,
            }))
        });
        &mut page[idx % PAGE]
    }

    /// Every record with its dense index, in index order.
    fn records(&self) -> impl Iterator<Item = (usize, &MvRecord<V, H>)> {
        self.pages.iter().enumerate().flat_map(|(at, page)| {
            page.iter().flat_map(move |page| {
                page.iter().enumerate().map(move |(i, record)| (at * PAGE + i, record))
            })
        })
    }
}

/// Shard count. Power of two; matches the scheduler / store default.
pub const DEFAULT_MV_SHARDS: usize = 64;

/// Fixed slots in the active-snapshot registry. A snapshot read is a few
/// microseconds; 1024 concurrent ones is far beyond any thread count we
/// run, and a fixed array keeps registration allocation-free.
const SNAPSHOT_SLOTS: usize = 1024;

/// A claimed slot in the snapshot registry. Dropping it deregisters the
/// snapshot (allocation-free: the guard is two words on the stack).
pub struct SnapshotGuard<'a> {
    slot: &'a AtomicU64,
    begin_seq: u64,
}

impl SnapshotGuard<'_> {
    /// The install ticket captured at registration: every version with
    /// `seq <= begin_seq` was fully published before this snapshot began.
    pub fn begin_seq(&self) -> u64 {
        self.begin_seq
    }
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        self.slot.store(0, Ordering::SeqCst);
    }
}

/// A sharded, concurrently readable version-chain store, with a slot of
/// per-item protocol state `H` in every record (`()` for none).
///
/// * Writers install under the item's shard lock, inside the engine's
///   commit critical section, so chain append order equals write-grant
///   order equals (per item) the writers' vector order.
/// * Snapshot readers walk chains under the same lock. They never block
///   or abort writers: a walk is a few compares against frozen stamps.
/// * Every install garbage-collects its chain against a watermark over
///   the active-snapshot registry: it keeps the newest version with
///   `seq <= watermark` (the oldest live snapshot's pivot) plus everything
///   newer. With no snapshot live a chain is its newest version alone.
///
/// Memory ordering: `install_seq`, the claimed-slot mark, the registry
/// slots and the engine's per-column maxima are all `SeqCst`. The GC
/// soundness argument leans on the single total order over those
/// operations — see DESIGN.md §8.
pub struct ConcurrentMvStore<V, H = ()> {
    shards: Box<[ShardLock<V, H>]>,
    shard_bits: u32,
    mask: u32,
    /// Monotone install ticket source. Incremented under the chain-shard
    /// lock, so tickets are monotone along every chain. Every install
    /// writes it, so it has a cache line to itself — the fields around it
    /// are read on every access and never written.
    install_seq: CachePadded<AtomicU64>,
    /// One past the highest registry slot ever claimed: the watermark
    /// scans only the slots below it, so a client or two read a slot or
    /// two on every install instead of the whole registry. Raised by
    /// snapshot registrations and read by every install, so it too has a
    /// line of its own.
    claimed: CachePadded<AtomicUsize>,
    /// Active snapshot registry: `0` = free, else `begin_seq + 1`.
    snapshots: Box<[AtomicU64]>,
}

// The install ticket and the claimed-slot mark each start a cache line of
// their own.
const _: () = {
    assert!(std::mem::offset_of!(ConcurrentMvStore<u64>, install_seq).is_multiple_of(128));
    assert!(std::mem::offset_of!(ConcurrentMvStore<u64>, claimed).is_multiple_of(128));
};

/// One locked shard of a [`ConcurrentMvStore`]: the records of every item
/// striped to it, readable and writable until the guard drops. The engine
/// holds one across an access decision and the value it authorizes, and a
/// commit holds every shard of its write set across validation and
/// install.
pub struct ChainShard<'a, V, H> {
    store: &'a ConcurrentMvStore<V, H>,
    index: usize,
    guard: MutexGuard<'a, MvShard<V, H>>,
}

impl<V: Clone, H: Default> ChainShard<'_, V, H> {
    /// `item`'s dense index in this shard.
    #[inline]
    fn local(&self, item: ItemId) -> usize {
        let (shard, idx) = self.store.locate(item);
        debug_assert_eq!(shard, self.index, "{item} is not in the locked shard");
        idx
    }

    /// `item`'s protocol state, building its record on first touch.
    pub fn holders(&mut self, item: ItemId) -> &mut H {
        let idx = self.local(item);
        &mut self.guard.record_mut(idx).holders
    }

    /// `item`'s chain, oldest first (empty if it was never installed).
    pub fn chain(&self, item: ItemId) -> &[MvVersion<V>] {
        let idx = self.local(item);
        self.guard.record(idx).map_or(&[], |record| record.chain.versions())
    }

    /// `item`'s protocol state and its chain at once, the record built on
    /// first touch: a snapshot read decides on the one and reads the
    /// other under the same lock.
    pub fn holders_and_chain(&mut self, item: ItemId) -> (&mut H, &[MvVersion<V>]) {
        let idx = self.local(item);
        let record = self.guard.record_mut(idx);
        (&mut record.holders, record.chain.versions())
    }

    /// The shard's read bound: the largest position a snapshot reader of
    /// any of its items has raised it to (`i64::MIN` before the first).
    #[inline]
    pub fn read_bound(&self) -> i64 {
        self.guard.read_bound
    }

    /// The shard's read bound, to raise, and `item`'s chain, oldest first
    /// (empty if it was never installed; no record is built): a snapshot
    /// read raises the one and selects from the other under one lock.
    pub fn read_bound_and_chain(&mut self, item: ItemId) -> (&mut i64, &[MvVersion<V>]) {
        let idx = self.local(item);
        let MvShard { pages, read_bound } = &mut *self.guard;
        let record = pages.get(idx / PAGE).and_then(Option::as_ref).map(|page| &page[idx % PAGE]);
        (read_bound, record.map_or(&[], |record| record.chain.versions()))
    }

    /// Installs a committed version at the tail of `item`'s chain through
    /// this guard, then prunes the chain to what a live or future snapshot
    /// can reach (DESIGN.md §8) — all but `keep`'s version: the one the
    /// item's protocol state may still be served from, which stays on the
    /// chain below the new version whatever the watermark says. A chain
    /// neither seeded nor installed before gets a `V::default()` floor
    /// first. The values of the versions the install overwrites or prunes
    /// go to `displaced`, not dropped, so the caller can drop them once it
    /// has released the shard. `installed` runs with the ticket before the
    /// version is stored: no reader can observe the version before it
    /// returns, so an event it emits is sequenced before every read of the
    /// version. Returns the ticket.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        &mut self,
        item: ItemId,
        writer: TxId,
        stamp: impl Into<Stamp>,
        value: V,
        keep: Option<TxId>,
        displaced: impl FnMut(V),
        installed: impl FnOnce(u64),
    ) -> u64
    where
        V: Default,
    {
        let idx = self.local(item);
        let record = self.guard.record_mut(idx);
        let version = (writer, stamp.into(), value);
        let chain = &mut record.chain;
        self.store.install_into(chain, version, keep, V::default, displaced, installed)
    }
}

impl<V: Clone, H: Default> ConcurrentMvStore<V, H> {
    /// Store with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_MV_SHARDS)
    }

    /// Store with `shards` chain shards (power of two).
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards.is_power_of_two(), "shard count must be a power of two");
        let table = (0..shards)
            .map(|_| ShardLock(Mutex::new(MvShard { pages: Vec::new(), read_bound: i64::MIN })))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ConcurrentMvStore {
            shards: table,
            shard_bits: shards.trailing_zeros(),
            mask: (shards - 1) as u32,
            install_seq: CachePadded(AtomicU64::new(0)),
            claimed: CachePadded(AtomicUsize::new(0)),
            snapshots: (0..SNAPSHOT_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn locate(&self, item: ItemId) -> (usize, usize) {
        ((item.0 & self.mask) as usize, (item.0 >> self.shard_bits) as usize)
    }

    /// The shard holding `item`.
    #[inline]
    pub fn shard_index(&self, item: ItemId) -> usize {
        self.locate(item).0
    }

    /// Locks one shard. Several are locked in ascending index order — the
    /// engine's deadlock-freedom order.
    pub fn lock_shard(&self, index: usize) -> ChainShard<'_, V, H> {
        let guard = self.shards[index].0.lock().unwrap_or_else(PoisonError::into_inner);
        ChainShard { store: self, index, guard }
    }

    /// Seeds `item`'s chain with a floor version holding `value`,
    /// attributed to T₀ and stamped `TS(T₀) = ⟨0, *, …⟩` of dimension `k`.
    /// The floor draws its ticket as a first install's floor does. Seed
    /// an item before anything else installs into it; a seeded chain is
    /// never empty.
    pub fn seed(&self, item: ItemId, value: V, k: usize) {
        let mut shard = self.lock_shard(self.shard_index(item));
        let idx = shard.local(item);
        let chain = &mut shard.guard.record_mut(idx).chain;
        assert!(matches!(chain, Chain::Empty), "{item} seeded after its chain began");
        *chain = Chain::Inline(self.floor(value, k));
    }

    /// A floor version with a fresh ticket.
    fn floor(&self, value: V, k: usize) -> MvVersion<V> {
        let seq = self.install_seq.fetch_add(1, Ordering::SeqCst) + 1;
        MvVersion { writer: TxId::VIRTUAL, seq, stamp: Stamp::floor(k), value }
    }

    /// Registers a snapshot reader. Must be called before the reader's
    /// first chain walk (and before its first timestamp element is
    /// defined): the captured ticket is what keeps GC from reclaiming
    /// versions the reader may still descend to.
    pub fn begin_snapshot(&self) -> SnapshotGuard<'_> {
        // Capture the ticket BEFORE claiming the slot: the GC watermark
        // is also bounded by install_seq-at-scan, so a pruner that misses
        // this registration (slot CAS after its scan) still keeps the
        // newest version published before the scan. That version may be
        // newer than this ticket, but its stamp reached the column maxima
        // before the reader defines an element, so the reader orders
        // above it (DESIGN.md §8).
        let begin_seq = self.install_seq.load(Ordering::SeqCst);
        loop {
            for (i, slot) in self.snapshots.iter().enumerate() {
                // Raise the claimed-slot mark before the claim: a pruner
                // whose bound hides slot `i` loaded the mark before this
                // `fetch_max`, hence before the CAS — the case above of a
                // pruner that missed the slot itself.
                self.claimed.fetch_max(i + 1, Ordering::SeqCst);
                if slot
                    .compare_exchange(0, begin_seq + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    return SnapshotGuard { slot, begin_seq };
                }
            }
            // All slots busy (absurdly many concurrent snapshots): yield
            // and retry rather than growing the registry.
            std::thread::yield_now();
        }
    }

    /// GC watermark: versions with `seq <= watermark` are only needed as
    /// the fall-back pivot (the newest such version per chain); anything
    /// older is unreachable by every live and future snapshot.
    fn watermark(&self) -> u64 {
        // install_seq first, then the claimed-slot mark, then the slots
        // below it — see begin_snapshot.
        let mut w = self.install_seq.load(Ordering::SeqCst);
        for slot in self.claimed_slots() {
            let v = slot.load(Ordering::SeqCst);
            if v != 0 {
                w = w.min(v - 1);
            }
        }
        w
    }

    /// The registry slots ever claimed; every other slot is free.
    fn claimed_slots(&self) -> &[AtomicU64] {
        &self.snapshots[..self.claimed.load(Ordering::SeqCst)]
    }

    /// Runs `f` on the version chain of `item` under its shard lock
    /// (empty slice if the item has no chain yet). Readers select a
    /// version inside `f` and clone the value out while the guard pins
    /// the chain.
    pub fn with_chain<R>(&self, item: ItemId, f: impl FnOnce(&[MvVersion<V>]) -> R) -> R {
        f(self.lock_shard(self.shard_index(item)).chain(item))
    }

    /// Installs a committed version at the tail of `item`'s chain under
    /// its shard lock. Must be called inside the engine's commit critical
    /// section for `item` so tail order equals write-grant order. A chain
    /// neither seeded nor installed before is first given a floor version
    /// carrying `floor_value` (the pre-write value, attributed to T₀) so
    /// snapshot reads are total. Then prunes the chain to what a live or
    /// future snapshot can reach (DESIGN.md §8), dropping what it prunes
    /// under the shard lock. Returns the install ticket.
    pub fn install(
        &self,
        item: ItemId,
        writer: TxId,
        stamp: impl Into<Stamp>,
        value: V,
        floor_value: impl FnOnce() -> V,
    ) -> u64 {
        let version = (writer, stamp.into(), value);
        let mut shard = self.lock_shard(self.shard_index(item));
        let idx = shard.local(item);
        let chain = &mut shard.guard.record_mut(idx).chain;
        self.install_into(chain, version, None, floor_value, drop, |_| {})
    }

    /// The install itself, into a chain its caller holds locked: the
    /// values of the versions it overwrites or prunes go to `displaced`,
    /// and `keep`'s version is never pruned.
    fn install_into(
        &self,
        chain: &mut Chain<V>,
        (writer, stamp, value): (TxId, Stamp, V),
        keep: Option<TxId>,
        floor_value: impl FnOnce() -> V,
        mut displaced: impl FnMut(V),
        installed: impl FnOnce(u64),
    ) -> u64 {
        if let Chain::Empty = chain {
            *chain = Chain::Inline(self.floor(floor_value(), stamp.k()));
        }
        let seq = self.install_seq.fetch_add(1, Ordering::SeqCst) + 1;
        installed(seq);
        let w = self.watermark();
        let version = MvVersion { writer, seq, stamp, value };
        let kept = |v: &MvVersion<V>| keep == Some(v.writer);
        // The chain is now the kept versions followed by `version`: keep
        // the newest version with `seq <= w`, everything after it, and
        // `keep`'s version.
        if seq <= w {
            // The watermark keeps the new version alone (beside `keep`'s).
            match chain {
                Chain::Inline(old) if !kept(old) => {
                    displaced(std::mem::replace(old, version).value)
                }
                _ => Self::replace_keeping(chain, version, kept, &mut displaced),
            }
            return seq;
        }
        // A live snapshot began before this ticket, so the chain keeps at
        // least one older version beside the new one and lives on the heap.
        let versions = chain.spill();
        versions.push(version);
        let pivot = versions.partition_point(|v| v.seq <= w).saturating_sub(1);
        match versions[..pivot].iter().position(kept) {
            None => versions.drain(..pivot).for_each(|v| displaced(v.value)),
            Some(held) => {
                versions.drain(held + 1..pivot).for_each(|v| displaced(v.value));
                versions.drain(..held).for_each(|v| displaced(v.value));
            }
        }
        debug_assert!(versions.len() >= 2, "a one-version chain stays inline");
        seq
    }

    /// An install the watermark lets keep only the new `version`, into a
    /// spilled chain or over a kept one: every old version goes to
    /// `displaced` but the one `kept` picks, which stays below `version`
    /// on the heap.
    #[cold]
    fn replace_keeping(
        chain: &mut Chain<V>,
        version: MvVersion<V>,
        kept: impl Fn(&MvVersion<V>) -> bool,
        displaced: &mut impl FnMut(V),
    ) {
        let mut versions = match std::mem::replace(chain, Chain::Empty) {
            Chain::Empty => Vec::new(),
            Chain::Inline(only) => {
                let mut versions = Vec::with_capacity(2);
                versions.push(only);
                versions
            }
            Chain::Spilled(versions) => versions,
        };
        let held = versions.iter().position(kept).map(|at| versions.remove(at));
        versions.drain(..).for_each(|v| displaced(v.value));
        *chain = match held {
            Some(held) => {
                versions.extend([held, version]);
                Chain::Spilled(versions)
            }
            None => Chain::Inline(version),
        };
    }

    /// Bytes of one item's record: its holders `H` and its chain.
    pub const RECORD_BYTES: usize = std::mem::size_of::<MvRecord<V, H>>();

    /// Alignment of one item's record.
    pub const RECORD_ALIGN: usize = std::mem::align_of::<MvRecord<V, H>>();

    /// Number of versions currently kept for `item`.
    pub fn version_count(&self, item: ItemId) -> usize {
        self.with_chain(item, <[MvVersion<V>]>::len)
    }

    /// Runs `f` on every item's newest version, one shard at a time in
    /// ascending shard order (the order a commit locks them in), each
    /// shard's items in ascending id order. Items with no chain are
    /// skipped. Taken while commits run, the view is per-shard consistent.
    pub fn for_each_newest(&self, mut f: impl FnMut(ItemId, &MvVersion<V>)) {
        for index in 0..self.shards.len() {
            let shard = self.lock_shard(index);
            for (idx, record) in shard.guard.records() {
                if let Some(newest) = record.chain.versions().last() {
                    f(ItemId(((idx as u32) << self.shard_bits) | index as u32), newest);
                }
            }
        }
    }

    /// Live registered snapshots (test hook).
    pub fn active_snapshots(&self) -> usize {
        self.claimed_slots().iter().filter(|s| s.load(Ordering::SeqCst) != 0).count()
    }

    /// Point-in-time internals for telemetry: chain-length distribution,
    /// GC watermark lag, registry occupancy. The walk takes each shard's
    /// lock in turn, so the numbers are per-shard consistent but the
    /// cross-shard view is a racy (monotone-safe) composite — fine for
    /// gauges, not for invariants.
    pub fn stats(&self) -> MvStoreStats {
        let mut stats = MvStoreStats {
            install_seq: self.install_seq.load(Ordering::SeqCst),
            watermark: self.watermark(),
            active_snapshots: self.active_snapshots() as u64,
            ..MvStoreStats::default()
        };
        for index in 0..self.shards.len() {
            let shard = self.lock_shard(index);
            let chains = shard.guard.records().map(|(_, record)| record.chain.versions());
            for chain in chains.filter(|c| !c.is_empty()) {
                let len = chain.len();
                stats.chains += 1;
                stats.versions += len as u64;
                stats.max_chain = stats.max_chain.max(len as u64);
                // Power-of-two length buckets, same scheme as
                // `LatencyHistogram`: bucket b holds lengths in
                // [2^(b-1)+1 … 2^b] — i.e. bucket 0 is empty chains,
                // bucket 1 is length 1, bucket 2 is 2, bucket 3 is 3-4 …
                // and the last bucket absorbs every longer chain.
                let bucket =
                    ((usize::BITS - len.leading_zeros()) as usize).min(MV_CHAIN_LEN_BUCKETS - 1);
                stats.chain_len_buckets[bucket] += 1;
            }
        }
        // Every ticket created one version and only pruning removes one.
        stats.pruned = stats.install_seq.saturating_sub(stats.versions);
        stats
    }
}

/// Bucket count for [`MvStoreStats::chain_len_buckets`]. With no snapshot
/// live every chain has length 1; a chain grows by one version per
/// install while a snapshot older than them is live, so only a snapshot
/// held across more than 2^14 installs of one item reaches the last
/// bucket, which absorbs every longer chain.
pub const MV_CHAIN_LEN_BUCKETS: usize = 16;

/// A point-in-time snapshot of [`ConcurrentMvStore`] internals, produced
/// by [`ConcurrentMvStore::stats`] and exported as telemetry gauges.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MvStoreStats {
    /// Non-empty version chains.
    pub chains: u64,
    /// Total versions across all chains (including floor versions).
    pub versions: u64,
    /// Length of the longest chain.
    pub max_chain: u64,
    /// Chain counts by power-of-two length bucket (bucket `b` covers
    /// lengths `2^(b-1)+1 ..= 2^b`; the last one every longer chain too).
    pub chain_len_buckets: [u64; MV_CHAIN_LEN_BUCKETS],
    /// Current global install ticket.
    pub install_seq: u64,
    /// Current GC watermark (`install_seq` when no snapshot is live).
    pub watermark: u64,
    /// Occupied slots in the snapshot registry.
    pub active_snapshots: u64,
    /// Cumulative versions reclaimed by pruning: one per ticket drawn,
    /// less the versions still kept.
    pub pruned: u64,
}

impl MvStoreStats {
    /// How far the GC watermark trails the install frontier — the
    /// "visibility lag" a long-lived snapshot imposes on reclamation.
    pub fn watermark_lag(&self) -> u64 {
        self.install_seq.saturating_sub(self.watermark)
    }
}

impl<V: Clone, H: Default> Default for ConcurrentMvStore<V, H> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;

    use mdts_vector::TsVec;

    use super::*;

    const X: ItemId = ItemId(0);

    fn stamp(k: usize, vals: &[i64]) -> TsVec {
        let mut v = TsVec::undefined(k);
        for (i, &x) in vals.iter().enumerate() {
            v.define(i, x);
        }
        v
    }

    #[test]
    fn concurrent_install_seeds_floor_and_appends_in_order() {
        let s: ConcurrentMvStore<i64> = ConcurrentMvStore::new();
        // A snapshot that began before the first install keeps the floor
        // and both versions reachable.
        let snap = s.begin_snapshot();
        s.install(X, TxId(1), stamp(2, &[1, 1]), 100, || 0);
        s.install(X, TxId(2), stamp(2, &[2, 1]), 200, || panic!("floor already seeded"));
        s.with_chain(X, |chain| {
            assert_eq!(chain.len(), 3);
            assert_eq!(chain[0].writer, TxId::VIRTUAL);
            assert_eq!(chain[0].value, 0);
            assert_eq!(chain[1].writer, TxId(1));
            assert_eq!(chain[2].writer, TxId(2));
            assert!(chain.windows(2).all(|w| w[0].seq < w[1].seq), "tickets monotone");
        });
        assert_eq!(s.version_count(ItemId(7)), 0, "untouched item has no chain");
        // Once it is released, the next install keeps its own version only:
        // the floor and both earlier versions go.
        drop(snap);
        s.install(X, TxId(3), stamp(2, &[3, 1]), 300, || unreachable!());
        s.with_chain(X, |chain| {
            assert_eq!(chain.len(), 1);
            assert_eq!((chain[0].writer, chain[0].value), (TxId(3), 300));
        });
        assert_eq!(s.stats().pruned, 3);
    }

    /// Through a held shard: the holders and the chain share the item's
    /// record, a seeded chain starts from its floor, a chain neither
    /// seeded nor installed gets a default floor, and the newest versions
    /// come back in shard order, each shard's items ascending.
    #[test]
    fn a_held_shard_reads_and_writes_one_record_per_item() {
        let s: ConcurrentMvStore<Option<i64>, [TxId; 2]> = ConcurrentMvStore::with_shards(4);
        let (seeded, fresh) = (ItemId(5), ItemId(9));
        s.seed(seeded, Some(50), 2);
        assert_eq!(s.stats().install_seq, 1, "a seeded floor draws a ticket");
        let mut shard = s.lock_shard(s.shard_index(seeded));
        assert_eq!(s.shard_index(fresh), s.shard_index(seeded));
        *shard.holders(seeded) = [TxId(3), TxId(4)];
        let (holders, chain) = shard.holders_and_chain(seeded);
        assert_eq!(*holders, [TxId(3), TxId(4)]);
        assert_eq!((chain.len(), chain[0].writer, chain[0].value), (1, TxId::VIRTUAL, Some(50)));
        assert_eq!(chain[0].stamp, Stamp::floor(2));
        let (mut tickets, mut displaced) = (Vec::new(), Vec::new());
        let mut install = |shard: &mut ChainShard<'_, _, _>, item, value| {
            let push = |old| displaced.push(old);
            shard.install(item, TxId(4), stamp(2, &[1, 1]), value, None, push, |seq| {
                tickets.push(seq)
            });
        };
        install(&mut shard, seeded, Some(49));
        install(&mut shard, fresh, Some(1));
        assert_eq!(tickets, [2, 4], "the fresh chain's floor took ticket 3");
        assert_eq!(displaced, [Some(50), None], "the overwritten floors are handed back");
        assert_eq!(shard.chain(seeded).len(), 1, "no snapshot live: the floor went");
        assert_eq!(*shard.holders(seeded), [TxId(3), TxId(4)], "an install keeps the holders");
        assert!(shard.chain(ItemId(13)).is_empty());
        drop(shard);
        s.install(ItemId(2), TxId(6), stamp(2, &[2, 1]), Some(2), || None);
        let mut newest = Vec::new();
        s.for_each_newest(|item, v| newest.push((item, v.value)));
        assert_eq!(newest, [(seeded, Some(49)), (fresh, Some(1)), (ItemId(2), Some(2))]);
    }

    /// An install through a held shard hands back every value it
    /// overwrites or prunes instead of dropping it under the lock: the
    /// pruned prefix while a snapshot keeps the chain on the heap, and the
    /// whole chain when it goes back inline.
    #[test]
    fn a_held_install_hands_back_what_it_displaces() {
        let s: ConcurrentMvStore<i64> = ConcurrentMvStore::new();
        s.seed(X, 0, 1);
        let mut displaced = Vec::new();
        let mut install = |n: u32| {
            let mut shard = s.lock_shard(s.shard_index(X));
            let push = |old| displaced.push(old);
            shard.install(X, TxId(n), stamp(1, &[n.into()]), n.into(), None, push, |_| {});
        };
        let snap = s.begin_snapshot();
        (1..4).for_each(&mut install);
        assert_eq!(s.version_count(X), 4, "the held snapshot keeps the floor and every version");
        drop(snap);
        let snap = s.begin_snapshot();
        install(4);
        install(5);
        assert_eq!(s.version_count(X), 3, "the new snapshot's pivot and the two after it");
        drop(snap);
        install(6);
        assert_eq!(s.version_count(X), 1);
        assert_eq!(displaced, [0, 1, 2, 3, 4, 5], "pruned oldest first, then the whole chain");
    }

    /// `keep`'s version outlives every prune that would take it — inline
    /// with no snapshot live, and on the heap below a live snapshot's
    /// pivot — and goes at the first install that no longer keeps it.
    #[test]
    fn an_install_keeps_the_kept_writers_version() {
        let s: ConcurrentMvStore<i64> = ConcurrentMvStore::new();
        s.seed(X, 0, 1);
        let mut displaced = Vec::new();
        let mut install = |n: u32, keep: Option<u32>| {
            let mut shard = s.lock_shard(s.shard_index(X));
            let push = |old| displaced.push(old);
            let keep = keep.map(TxId);
            shard.install(X, TxId(n), stamp(1, &[n.into()]), n.into(), keep, push, |_| {});
            shard.chain(X).iter().map(|v| v.writer.0).collect::<Vec<_>>()
        };
        assert_eq!(install(1, Some(9)), [1], "no version of 9's to keep");
        assert_eq!(install(2, Some(1)), [1, 2], "the kept version spills below the new one");
        assert_eq!(install(3, Some(1)), [1, 3], "a spilled chain keeps it too");
        let snap = s.begin_snapshot();
        assert_eq!(install(4, Some(1)), [1, 3, 4], "below the live snapshot's pivot");
        assert_eq!(install(5, Some(1)), [1, 3, 4, 5]);
        drop(snap);
        let snap = s.begin_snapshot();
        assert_eq!(install(6, Some(1)), [1, 5, 6], "the pivot is 5's, and 1's stays below it");
        drop(snap);
        assert_eq!(install(7, Some(6)), [6, 7]);
        assert_eq!(install(8, None), [8], "an install that keeps nothing goes back inline");
        assert_eq!(displaced, [0, 2, 3, 4, 1, 5, 6, 7]);
    }

    #[test]
    fn prune_respects_live_snapshot_watermark() {
        let s: ConcurrentMvStore<i64> = ConcurrentMvStore::new();
        s.install(X, TxId(1), stamp(1, &[1]), 100, || 0);
        assert_eq!(s.version_count(X), 1, "no snapshot live: the floor goes at once");
        let snap = s.begin_snapshot();
        assert_eq!(s.active_snapshots(), 1);
        // Every install prunes, and each must keep the live snapshot's
        // pivot (the newest version with seq <= its ticket).
        for n in 2..10u32 {
            s.install(X, TxId(n), stamp(1, &[n as i64]), 100 * n as i64, || unreachable!());
        }
        s.with_chain(X, |chain| {
            assert_eq!(chain.len(), 9, "the pivot and every version after it");
            assert_eq!(chain[0].writer, TxId(1));
            assert!(chain[0].seq <= snap.begin_seq(), "pivot for the live snapshot was reclaimed");
        });
        drop(snap);
        assert_eq!(s.active_snapshots(), 0);
        // With no readers the next install prunes down to itself.
        s.install(X, TxId(99), stamp(1, &[99]), 1, || unreachable!());
        assert_eq!(s.version_count(X), 1, "chain shrinks once snapshots end");
        assert_eq!(s.stats().pruned, 10);
    }

    /// Two installers move chains between the inline record and the heap
    /// while two readers hold snapshots over the same 8 items. Every walk
    /// of a held snapshot finds the same pivot, tickets ascend along every
    /// chain, and once the readers stop, one install per item leaves every
    /// chain at one version.
    ///
    /// The pivot is the newest version whose ticket is at most the one
    /// current once the snapshot's slot is claimed — not `begin_seq`: a
    /// pruner that scanned the registry before the claim keeps only the
    /// newest version below its scan, which may be ticketed between the
    /// two (its stamp still orders below the reader, DESIGN.md §8).
    #[test]
    fn chains_spill_and_return_inline_under_concurrent_snapshots() {
        const ITEMS: u32 = 8;
        const SNAPSHOTS: usize = 2_000;
        let s: ConcurrentMvStore<i64> = ConcurrentMvStore::new();
        let items = || (0..ITEMS).map(ItemId);
        for item in items() {
            s.install(item, TxId(1), stamp(1, &[1]), 1, || 0);
        }
        let stop = AtomicBool::new(false);
        let longest = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..2u32 {
                let (s, stop) = (&s, &stop);
                scope.spawn(move || {
                    let mut n = 0;
                    while !stop.load(Ordering::SeqCst) {
                        let item = ItemId((n + w) % ITEMS);
                        s.install(item, TxId(2 + w), stamp(1, &[n.into()]), n.into(), || {
                            unreachable!("every chain was seeded")
                        });
                        n += 1;
                    }
                });
            }
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..SNAPSHOTS {
                            let _snap = s.begin_snapshot();
                            let registered = s.install_seq.load(Ordering::SeqCst);
                            let pivot = |item| {
                                s.with_chain(item, |chain| {
                                    assert!(
                                        chain.windows(2).all(|w| w[0].seq < w[1].seq),
                                        "tickets must ascend along a chain"
                                    );
                                    longest.fetch_max(chain.len(), Ordering::Relaxed);
                                    chain.iter().rev().find(|v| v.seq <= registered).map(|v| v.seq)
                                })
                                .expect("a held snapshot lost its pivot")
                            };
                            let first: Vec<u64> = items().map(pivot).collect();
                            for _ in 0..2 {
                                // Let the installers run under the snapshot
                                // even on one CPU.
                                std::thread::yield_now();
                                assert!(
                                    items().map(pivot).eq(first.iter().copied()),
                                    "a pivot moved"
                                );
                            }
                        }
                    })
                })
                .collect();
            let joined: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
            stop.store(true, Ordering::SeqCst);
            joined.into_iter().for_each(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p)));
        });
        assert!(longest.into_inner() > 1, "no chain spilled under a held snapshot");
        assert_eq!(s.active_snapshots(), 0);
        for item in items() {
            s.install(item, TxId(9), stamp(1, &[9]), 9, || unreachable!());
            assert_eq!(s.version_count(item), 1, "a chain outlived its readers");
        }
        assert_eq!(s.stats().max_chain, 1);
    }

    #[test]
    fn watermark_scans_every_claimed_slot() {
        let s: ConcurrentMvStore<i64> = ConcurrentMvStore::new();
        s.install(X, TxId(1), stamp(1, &[1]), 100, || 0);
        // Claim slots 0-3 in order, then free 0-2: only slot 3 is live,
        // above a scan that stopped at the first free slot.
        let mut guards: Vec<_> = (0..4).map(|_| s.begin_snapshot()).collect();
        assert_eq!(s.claimed_slots().len(), 4);
        let live = guards.pop().unwrap();
        drop(guards);
        assert_eq!(s.active_snapshots(), 1);
        for n in 2..6u32 {
            s.install(X, TxId(n), stamp(1, &[n as i64]), 100 * n as i64, || unreachable!());
        }
        s.with_chain(X, |chain| {
            assert!(
                chain.iter().any(|v| v.seq <= live.begin_seq()),
                "slot 3's pivot was reclaimed"
            );
        });
        drop(live);
        assert_eq!(s.claimed_slots().len(), 4, "the mark never falls");
        assert_eq!(s.stats().watermark, s.stats().install_seq);
    }
}
