//! Multiversion storage — the paper's implementation idea III-D-6d:
//! "Reed proposed a multiple version concurrency control mechanism using
//! single-valued timestamps. The idea can be extended to timestamp
//! vectors."
//!
//! A chain holds one item's committed versions in install order, each
//! tagged with a global install ticket and the writer's timestamp vector
//! frozen at commit; snapshot readers slot themselves into the gap
//! between two writers by comparing against those frozen stamps.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::RwLock;

use mdts_model::{ItemId, TxId};
use mdts_vector::{CachePadded, TsVec};

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
    /// time. Unused for the floor version.
    pub stamp: TsVec,
    /// The value.
    pub value: V,
}

struct MvShard<V> {
    /// Dense per-shard chain table, indexed by `item >> shard_bits` —
    /// same flat layout as the scheduler's shard tables, so steady-state
    /// reads never touch a map.
    chains: Vec<Vec<MvVersion<V>>>,
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

/// A sharded, concurrently readable version-chain store.
///
/// * Writers install under the item's chain-shard **write** lock, inside
///   the engine's commit critical section, so chain append order equals
///   write-grant order equals (per item) the writers' vector order.
/// * Snapshot readers walk chains under the **read** lock only — they
///   never touch the single-version scheduler state and never block or
///   abort writers.
/// * Every install garbage-collects its chain against a watermark over
///   the active-snapshot registry: it keeps the newest version with
///   `seq <= watermark` (the oldest live snapshot's pivot) plus everything
///   newer. With no snapshot live a chain is its newest version alone.
///
/// Memory ordering: `install_seq`, the claimed-slot mark, the registry
/// slots and the engine's per-column maxima are all `SeqCst`. The GC
/// soundness argument leans on the single total order over those
/// operations — see DESIGN.md §8.
pub struct ConcurrentMvStore<V> {
    shards: Box<[RwLock<MvShard<V>>]>,
    shard_bits: u32,
    mask: u32,
    /// Monotone install ticket source. Incremented under the chain-shard
    /// write lock, so tickets are monotone along every chain. Every
    /// install writes it, so it has a cache line to itself — the fields
    /// around it are read on every access and never written.
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

impl<V: Clone> ConcurrentMvStore<V> {
    /// Store with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_MV_SHARDS)
    }

    /// Store with `shards` chain shards (power of two).
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards.is_power_of_two(), "shard count must be a power of two");
        let table = (0..shards)
            .map(|_| RwLock::new(MvShard { chains: Vec::new() }))
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

    /// Registers a snapshot reader. Must be called before the reader's
    /// first chain walk (and before its first timestamp element is
    /// defined): the captured ticket is what keeps GC from reclaiming
    /// versions the reader may still descend to.
    pub fn begin_snapshot(&self) -> SnapshotGuard<'_> {
        // Capture the ticket BEFORE claiming the slot: the GC watermark
        // is also bounded by install_seq-at-scan, so a pruner that misses
        // this registration (slot CAS after its scan) still keeps every
        // version published before the scan — which covers this ticket.
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

    /// Runs `f` on the version chain of `item` under the shard read lock
    /// (empty slice if the item has no chain yet). Readers select a
    /// version inside `f` and clone the value out while the guard pins
    /// the chain.
    pub fn with_chain<R>(&self, item: ItemId, f: impl FnOnce(&[MvVersion<V>]) -> R) -> R {
        let (shard, idx) = self.locate(item);
        let guard = self.shards[shard].read().unwrap_or_else(|e| e.into_inner());
        let chain: &[MvVersion<V>] = match guard.chains.get(idx) {
            Some(c) => c,
            None => &[],
        };
        f(chain)
    }

    /// Installs a committed version at the tail of `item`'s chain. Must
    /// be called inside the engine's commit critical section for `item`
    /// so tail order equals write-grant order. On the first install the
    /// chain is seeded with a floor version carrying `floor_value` (the
    /// pre-write base-store value, attributed to T₀) so snapshot reads
    /// are total. Then prunes the chain to what a live or future snapshot
    /// can reach (DESIGN.md §8). Returns the install ticket.
    pub fn install(
        &self,
        item: ItemId,
        writer: TxId,
        stamp: TsVec,
        value: V,
        floor_value: impl FnOnce() -> V,
    ) -> u64 {
        self.install_with(item, writer, stamp, value, floor_value, |_| {})
    }

    /// [`Self::install`], plus an `installed` hook run with the ticket
    /// while the chain-shard write lock is still held. The engine emits
    /// its `version_install` trace event from the hook: no reader can
    /// observe the version before the event is sequenced, so trace order
    /// equals chain order.
    pub fn install_with(
        &self,
        item: ItemId,
        writer: TxId,
        stamp: TsVec,
        value: V,
        floor_value: impl FnOnce() -> V,
        installed: impl FnOnce(u64),
    ) -> u64 {
        let (shard, idx) = self.locate(item);
        let mut guard = self.shards[shard].write().unwrap_or_else(|e| e.into_inner());
        if guard.chains.len() <= idx {
            guard.chains.resize_with(idx + 1, Vec::new);
        }
        let k = stamp.k();
        let chain = &mut guard.chains[idx];
        if chain.is_empty() {
            // Room for the floor and the first version: with no snapshot
            // live a chain never holds more than the version being
            // installed and its predecessor.
            chain.reserve_exact(2);
            let seq = self.install_seq.fetch_add(1, Ordering::SeqCst) + 1;
            chain.push(MvVersion {
                writer: TxId::VIRTUAL,
                seq,
                stamp: TsVec::origin(k),
                value: floor_value(),
            });
        }
        let seq = self.install_seq.fetch_add(1, Ordering::SeqCst) + 1;
        chain.push(MvVersion { writer, seq, stamp, value });
        installed(seq);
        let w = self.watermark();
        let keep_from = chain.partition_point(|v| v.seq <= w).saturating_sub(1);
        chain.drain(..keep_from);
        seq
    }

    /// Number of versions currently kept for `item`.
    pub fn version_count(&self, item: ItemId) -> usize {
        self.with_chain(item, <[MvVersion<V>]>::len)
    }

    /// Live registered snapshots (test hook).
    pub fn active_snapshots(&self) -> usize {
        self.claimed_slots().iter().filter(|s| s.load(Ordering::SeqCst) != 0).count()
    }

    /// Point-in-time internals for telemetry: chain-length distribution,
    /// GC watermark lag, registry occupancy. The walk takes each shard's
    /// read lock in turn, so the numbers are per-shard consistent but the
    /// cross-shard view is a racy (monotone-safe) composite — fine for
    /// gauges, not for invariants.
    pub fn stats(&self) -> MvStoreStats {
        let mut stats = MvStoreStats {
            install_seq: self.install_seq.load(Ordering::SeqCst),
            watermark: self.watermark(),
            active_snapshots: self.active_snapshots() as u64,
            ..MvStoreStats::default()
        };
        for shard in self.shards.iter() {
            let guard = shard.read().unwrap_or_else(|e| e.into_inner());
            for chain in guard.chains.iter().filter(|c| !c.is_empty()) {
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

impl<V: Clone> Default for ConcurrentMvStore<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
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
