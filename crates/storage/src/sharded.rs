//! A sharded single-version store: the engine's value state split into
//! independently locked partitions.
//!
//! [`Store`] is a plain map the engine used to keep behind
//! one global mutex together with everything else. [`ShardedStore`]
//! stripes items over a power-of-two number of shards, each behind its own
//! `Mutex`, so accesses to items in different shards never contend.
//!
//! Each shard is a **flat table**: the low bits of an item id select the
//! shard, the remaining high bits (`item >> shard_bits`) are the dense
//! index into the shard's `Vec<Option<V>>` — one bounds-checked load per
//! access, no tree walk and no hashing, the same layout as the
//! scheduler's `RT`/`WT` shard tables and [`ConcurrentMvStore`]'s chain
//! tables. A table grows on the first write of an item and never shrinks;
//! slots never written read as absent.
//!
//! **Dense-id contract.** A shard's table is as long as its largest
//! written `item >> shard_bits`, so memory is proportional to the largest
//! item id ever stored, not to the number of items: ids are expected to be
//! small dense integers (`0..n`), which is what `SharedMtScheduler`'s shard
//! tables and `ConcurrentMvStore` already require of every item the engine
//! touches.
//!
//! The locking is *exposed* rather than hidden: the engine must hold an
//! item's shard across a protocol grant **and** the value fetch (so a
//! concurrent committer cannot apply between the two), and hold all of a
//! write-set's shards across commit validation **and** apply (so the
//! commit becomes visible atomically). [`ShardedStore::lock_shard`] hands
//! out the guard; convenience accessors ([`ShardedStore::get_cloned`],
//! [`ShardedStore::snapshot`]) lock internally for callers outside the
//! critical path.
//!
//! Lock order: shard indices ascending. `snapshot` and multi-shard commits
//! follow it; single-shard accesses trivially comply.
//!
//! [`ConcurrentMvStore`]: crate::ConcurrentMvStore

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mdts_model::ItemId;

use crate::store::Store;

/// Default shard count (power of two).
pub const DEFAULT_STORE_SHARDS: usize = 64;

/// One shard's items: a dense table indexed by `item >> shard_bits`.
#[derive(Debug)]
pub struct Shard<V> {
    /// `slots[item >> bits]`; `None` = never written.
    slots: Vec<Option<V>>,
    /// Number of `Some` slots.
    live: usize,
    /// This shard's position in the store: the low `bits` bits of every
    /// item it holds.
    index: usize,
    bits: u32,
}

impl<V> Shard<V> {
    /// Dense index of `item`, which must belong to this shard — a foreign
    /// item would alias one of this shard's own.
    #[inline]
    fn local(&self, item: ItemId) -> usize {
        let idx = item.index();
        assert_eq!(idx & ((1 << self.bits) - 1), self.index, "{item} is not in this shard");
        idx >> self.bits
    }

    /// The item stored at dense index `local`.
    #[inline]
    fn item_at(&self, local: usize) -> ItemId {
        ItemId(((local << self.bits) | self.index) as u32)
    }

    /// Reads an item of this shard (`None` if never written, including
    /// beyond the table).
    #[inline]
    pub fn get(&self, item: ItemId) -> Option<&V> {
        self.slots.get(self.local(item))?.as_ref()
    }

    /// Writes an item of this shard, returning the before-image. The
    /// table grows on the first write past its end.
    #[inline]
    pub fn insert(&mut self, item: ItemId, value: V) -> Option<V> {
        let local = self.local(item);
        if local >= self.slots.len() {
            self.slots.resize_with(local + 1, || None);
        }
        let prev = self.slots[local].replace(value);
        self.live += usize::from(prev.is_none());
        prev
    }

    /// Number of items stored in this shard.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff nothing is stored in this shard.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The shard's items in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(local, v)| Some((self.item_at(local), v.as_ref()?)))
    }

    /// The shard's item ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.iter().map(|(item, _)| item)
    }
}

/// Guard over one shard's items.
pub type ShardGuard<'a, V> = MutexGuard<'a, Shard<V>>;

/// A single-version key-value store striped over independently locked
/// shards.
/// The shard array sits behind an `Arc` so long-lived background work
/// (the WAL checkpoint encoder) can hold its own [`shard_handle`] to the
/// same shards without entangling the owning engine's reference counts.
///
/// [`shard_handle`]: ShardedStore::shard_handle
#[derive(Debug, Default)]
pub struct ShardedStore<V> {
    mask: usize,
    shards: Arc<[Mutex<Shard<V>>]>,
}

impl<V: Clone> ShardedStore<V> {
    /// Empty store with at least `shards` shards (rounded up to a power of
    /// two so striping is a mask).
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let bits = n.trailing_zeros();
        ShardedStore {
            mask: n - 1,
            shards: (0..n)
                .map(|index| Mutex::new(Shard { slots: Vec::new(), live: 0, index, bits }))
                .collect(),
        }
    }

    /// Pre-populates items `0..n` with a value.
    pub fn with_items(n: u32, value: V, shards: usize) -> Self {
        Self::from_store(Store::with_items(n, value), shards)
    }

    /// Partitions a flat [`Store`] into shards.
    pub fn from_store(store: Store<V>, shards: usize) -> Self {
        let out = Self::new(shards);
        for (item, value) in store.iter() {
            out.set(item, value.clone());
        }
        out
    }

    /// A second handle onto the **same** shards — not a copy. Writes
    /// through either handle are visible through both; the shard data
    /// stays alive until the last handle drops. Deliberately not `Clone`:
    /// aliasing a store is an explicit act.
    pub fn shard_handle(&self) -> ShardedStore<V> {
        ShardedStore { mask: self.mask, shards: Arc::clone(&self.shards) }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `item`.
    pub fn shard_index(&self, item: ItemId) -> usize {
        item.index() & self.mask
    }

    /// Locks one shard. The caller decides how long to hold it; see the
    /// module docs for the two critical sections the engine needs.
    pub fn lock_shard(&self, index: usize) -> ShardGuard<'_, V> {
        self.shards[index].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reads one item, locking its shard just for the lookup.
    pub fn get_cloned(&self, item: ItemId) -> Option<V> {
        self.lock_shard(self.shard_index(item)).get(item).cloned()
    }

    /// Writes one item, locking its shard just for the insert.
    pub fn set(&self, item: ItemId, value: V) -> Option<V> {
        self.lock_shard(self.shard_index(item)).insert(item, value)
    }

    /// Total number of stored items (locks each shard in turn).
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.lock_shard(i).len()).sum()
    }

    /// True iff nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the whole store in ascending item order, shards locked
    /// in ascending order.
    ///
    /// Taken concurrently with commits this is a *per-shard* consistent
    /// view; for a transactionally consistent read the caller should run
    /// an auditing transaction instead.
    pub fn snapshot(&self) -> BTreeMap<ItemId, V> {
        let mut out = BTreeMap::new();
        for i in 0..self.shards.len() {
            out.extend(self.lock_shard(i).iter().map(|(item, value)| (item, value.clone())));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_and_reads_back() {
        let s: ShardedStore<i64> = ShardedStore::new(4);
        for i in 0..100u32 {
            s.set(ItemId(i), i as i64 * 3);
        }
        assert_eq!(s.len(), 100);
        for i in 0..100u32 {
            assert_eq!(s.get_cloned(ItemId(i)), Some(i as i64 * 3));
        }
        assert_eq!(s.get_cloned(ItemId(100)), None);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedStore::<i64>::new(1).shard_count(), 1);
        assert_eq!(ShardedStore::<i64>::new(5).shard_count(), 8);
        assert_eq!(ShardedStore::<i64>::new(64).shard_count(), 64);
    }

    /// `snapshot()` equals the source `Store` in content *and* in
    /// ascending order, although it is assembled shard by shard.
    #[test]
    fn from_store_partitions_everything() {
        let mut flat = Store::with_items(33, 7i64);
        flat.set(ItemId(1000), 11); // a gap: slots 33..1000 stay absent
        let s = ShardedStore::from_store(flat.clone(), 8);
        assert_eq!(s.snapshot(), flat.snapshot());
        assert!(s.snapshot().into_iter().eq(flat.iter().map(|(item, v)| (item, *v))));
        assert_eq!(s.len(), 34);
        // Items actually land in distinct shards.
        let occupied = (0..s.shard_count()).filter(|&i| !s.lock_shard(i).is_empty()).count();
        assert_eq!(occupied, 8);
    }

    #[test]
    fn guard_holds_items_of_its_shard_only() {
        let s: ShardedStore<i64> = ShardedStore::new(4);
        for i in 0..16u32 {
            s.set(ItemId(i), i as i64);
        }
        let g = s.lock_shard(2);
        assert!(g.keys().eq([2, 6, 10, 14].map(ItemId)), "ascending, this shard's only");
        assert!(g.iter().all(|(item, &v)| s.shard_index(item) == 2 && v == item.0 as i64));
        assert_eq!(g.len(), 4);
    }

    /// Reads beyond the table and of never-written slots inside it are
    /// absent; `len` counts first inserts, not overwrites.
    #[test]
    fn flat_table_absence_and_live_count() {
        let s: ShardedStore<i64> = ShardedStore::new(4);
        assert!(s.is_empty());
        assert_eq!(s.get_cloned(ItemId(7)), None, "empty table");
        assert_eq!(s.set(ItemId(42), 1), None);
        assert_eq!(s.get_cloned(ItemId(2)), None, "same shard, slot inside the table");
        assert_eq!(s.get_cloned(ItemId(402)), None, "same shard, beyond the table");
        assert_eq!(s.set(ItemId(42), 2), Some(1), "overwrite returns the before-image");
        assert_eq!(s.len(), 1, "an overwrite is not a new item");
        assert_eq!(s.set(ItemId(2), 3), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.lock_shard(2).len(), 2);
    }

    #[test]
    #[should_panic(expected = "is not in this shard")]
    fn a_guard_refuses_items_of_another_shard() {
        let s: ShardedStore<i64> = ShardedStore::new(4);
        s.lock_shard(1).insert(ItemId(2), 0);
    }
}
