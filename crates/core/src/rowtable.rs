//! A chunked, append-only concurrent row table for timestamp vectors.
//!
//! The concurrent scheduler used to keep every transaction's vector in one
//! `RwLock<Vec<Option<Row>>>`: every `begin`/`commit`/`abort` took the
//! *write* lock (to resize or reclaim) and stalled all concurrent
//! Definition 6 decisions. This table removes the global lock entirely:
//!
//! * **Chunked, append-only storage.** Slots live in geometrically growing
//!   chunks (`BASE << b` slots each), published once through an
//!   `AtomicPtr` spine and never moved or freed before drop. A `&RowSlot`
//!   therefore stays valid for the table's lifetime — no lock is needed to
//!   *address* a slot, only to touch its row.
//! * **Per-slot interior locking.** Each slot carries its own small
//!   `RwLock<Option<TsVec>>`. Creating, reading, defining into, and
//!   reclaiming a row touch exactly the slots involved; transactions on
//!   different rows never contend. Multi-slot acquisitions (the
//!   comparison/encode paths) order locks by ascending slot index for
//!   deadlock freedom.
//! * **Slab-style reuse.** Reclamation (III-D-6b) just sets the row back
//!   to `None` and flags the slot; the slot's atomics (refcount, finished,
//!   restart hint) survive so O(1) reclamation and the III-D-4 hint
//!   hand-off need no side tables. [`RowSlot::arm`] reports whether a
//!   previous incarnation lived in the slot, so callers can invalidate
//!   anything keyed by the transaction id (e.g. the order cache).
//!
//! The spine covers the whole `u32` id space (the last chunk is merely
//! never fully resident on real workloads); `ensure_slot` materializes a
//! chunk on first touch under the table's grow lock, so concurrent
//! `begin`s at a doubling point build the chunk once — the large chunks
//! are hundreds of MiB, and a second, discarded copy was resident memory
//! the process never gave back.

use std::sync::PoisonError;

use mdts_vector::{CachePadded, TsVec};

use crate::sync::{
    AtomicBool, AtomicI64, AtomicPtr, AtomicU32, AtomicUsize, Mutex, Ordering, RwLock,
    RwLockReadGuard, RwLockWriteGuard,
};

/// Slots in the first chunk; chunk `b` holds `BASE << b` slots.
#[cfg(not(loom))]
const BASE: usize = 1024;
/// Under loom a chunk is two slots, so a model touching indices 0 and 2
/// exercises chunk materialization without registering a thousand model
/// objects.
#[cfg(loom)]
const BASE: usize = 2;

/// Granularity of the inspection watermark ([`RowTable::high`]): a power
/// of two, so concurrent `begin`s write the mark once per this many ids
/// instead of once each.
const HIGH_STEP: usize = 64;

/// Chunks in the spine. `BASE * (2^BUCKETS − 1) > u32::MAX`, so every
/// possible transaction id has a slot.
const BUCKETS: usize = 23;

/// One slot of the row table: the vector row plus the per-transaction
/// state that must survive the row itself (reclamation bookkeeping and
/// the III-D-4 restart hint).
#[derive(Debug)]
pub struct RowSlot {
    /// The timestamp vector; `None` = never begun, or reclaimed.
    row: RwLock<Option<TsVec>>,
    /// Number of `RT`/`WT` entries naming this transaction.
    refs: AtomicU32,
    /// Set when the transaction committed or aborted.
    finished: AtomicBool,
    /// Set by reclamation; consumed by [`arm`](Self::arm) on reuse.
    reclaimed: AtomicBool,
    /// Starvation-avoidance restart hint (III-D-4), valid iff `hint_set`.
    hint: AtomicI64,
    hint_set: AtomicBool,
}

impl RowSlot {
    fn new() -> Self {
        #[cfg(test)]
        tests::SLOTS_BUILT.with(|n| n.set(n.get() + 1));
        RowSlot {
            row: RwLock::new(None),
            refs: AtomicU32::new(0),
            finished: AtomicBool::new(false),
            reclaimed: AtomicBool::new(false),
            hint: AtomicI64::new(0),
            hint_set: AtomicBool::new(false),
        }
    }

    /// Read access to the row (poison-transparent).
    pub fn read(&self) -> RwLockReadGuard<'_, Option<TsVec>> {
        self.row.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to the row (poison-transparent).
    pub fn write(&self) -> RwLockWriteGuard<'_, Option<TsVec>> {
        self.row.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `RT`/`WT` reference count.
    pub fn refs(&self) -> &AtomicU32 {
        &self.refs
    }

    /// The committed/aborted flag.
    pub fn finished(&self) -> &AtomicBool {
        &self.finished
    }

    /// Prepares the slot for a new incarnation (caller must hold the
    /// write guard on an empty row): clears `finished` and the reclaim
    /// flag. Returns whether a previous incarnation was reclaimed from
    /// this slot — if so, any state keyed by the transaction id outside
    /// the slot (such as memoized orders) is stale and must be
    /// invalidated before the new row becomes visible.
    pub fn arm(&self) -> bool {
        debug_assert_eq!(self.refs.load(Ordering::SeqCst), 0, "arming a referenced slot");
        self.finished.store(false, Ordering::SeqCst);
        self.reclaimed.swap(false, Ordering::Relaxed)
    }

    /// Marks the slot as torn down (caller must hold the write guard and
    /// have just taken the row).
    pub fn retire(&self) {
        self.reclaimed.store(true, Ordering::Relaxed);
    }

    /// Records the III-D-4 restart hint, overwriting any previous one.
    ///
    /// Ordering contract (audited in PR 4, checked by
    /// `rowtable_hint_handoff` in tests/loom_models.rs): classic message
    /// passing — the payload store may be Relaxed because the flag store
    /// is Release, and [`take_hint`](Self::take_hint) consumes the flag
    /// with an Acquire swap, so a taker that observes `hint_set == true`
    /// also observes the hint value that Release-preceded it.
    pub fn set_hint(&self, first: i64) {
        self.hint.store(first, Ordering::Relaxed);
        self.hint_set.store(true, Ordering::Release);
    }

    /// Consumes the restart hint, if one was recorded.
    pub fn take_hint(&self) -> Option<i64> {
        if self.hint_set.swap(false, Ordering::Acquire) {
            Some(self.hint.load(Ordering::Relaxed))
        } else {
            None
        }
    }

    /// Discards the restart hint (a committed transaction needs none).
    pub fn clear_hint(&self) {
        self.hint_set.store(false, Ordering::Relaxed);
    }
}

/// The lock-free-addressable row table. See the module docs.
pub struct RowTable {
    spine: [AtomicPtr<RowSlot>; BUCKETS],
    /// Serializes chunk materialization; taken only when a spine entry
    /// was observed null, never on the addressing path.
    grow: Mutex<()>,
    /// An exclusive upper bound (rounded up to `HIGH_STEP`) of the slot
    /// indices ever materialized — bounds the inspection scans;
    /// correctness never depends on it. `begin`s raise it, so it sits
    /// apart from the read-mostly spine.
    high: CachePadded<AtomicUsize>,
}

// The high-water mark starts a cache line of its own, past the spine.
const _: () = assert!(std::mem::offset_of!(RowTable, high).is_multiple_of(128));

impl std::fmt::Debug for RowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowTable").field("high", &self.high.load(Ordering::Relaxed)).finish()
    }
}

/// Chunk index, chunk length, and offset within the chunk for a slot.
#[inline]
fn locate(idx: usize) -> (usize, usize, usize) {
    let b = (usize::BITS - 1 - (idx / BASE + 1).leading_zeros()) as usize;
    let start = ((1usize << b) - 1) * BASE;
    (b, BASE << b, idx - start)
}

impl RowTable {
    /// An empty table (no chunks resident).
    pub fn new() -> Self {
        RowTable {
            spine: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            grow: Mutex::new(()),
            high: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// The slot for `idx`, if its chunk has been materialized.
    ///
    /// Ordering contract (audited in PR 4, checked by
    /// `rowtable_chunk_publication` in tests/loom_models.rs): the spine
    /// load must be Acquire to pair with the Release publishing store in
    /// [`ensure_slot`](Self::ensure_slot) — it synchronizes-with the
    /// publication, so the chunk's initialized slot contents (written
    /// before the store) are visible before any access through the
    /// returned reference.
    pub fn slot(&self, idx: usize) -> Option<&RowSlot> {
        let (b, _, off) = locate(idx);
        let chunk = self.spine[b].load(Ordering::Acquire);
        if chunk.is_null() {
            None
        } else {
            // SAFETY: a published chunk is never moved or freed before
            // drop, and `off < len` by construction of `locate`.
            Some(unsafe { &*chunk.add(off) })
        }
    }

    /// The slot for `idx`, materializing its chunk on first touch.
    pub fn ensure_slot(&self, idx: usize) -> &RowSlot {
        let (b, len, off) = locate(idx);
        assert!(b < BUCKETS, "slot index {idx} beyond table capacity");
        let mut chunk = self.spine[b].load(Ordering::Acquire);
        if chunk.is_null() {
            chunk = self.materialize(b, len);
        }
        // Ids are issued in ascending order and the mark rises in steps
        // of `HIGH_STEP`, so nearly every call finds it already past
        // `idx`: load first, write only to raise it.
        if self.high.load(Ordering::Relaxed) <= idx {
            self.high.fetch_max((idx | (HIGH_STEP - 1)) + 1, Ordering::Relaxed);
        }
        // SAFETY: as in `slot`.
        unsafe { &*chunk.add(off) }
    }

    /// Builds and publishes chunk `b` unless another thread got there
    /// first. The re-check under the grow lock is what makes the chunk be
    /// built once: a thread that lost the race to the lock finds the
    /// winner's pointer (the lock orders the winner's store before the
    /// re-check) and allocates nothing. The store is `Release` for the
    /// lock-free Acquire loads in [`slot`](Self::slot) and on
    /// `ensure_slot`'s fast path.
    #[cold]
    fn materialize(&self, b: usize, len: usize) -> *mut RowSlot {
        let _grow = self.grow.lock().unwrap_or_else(PoisonError::into_inner);
        let chunk = self.spine[b].load(Ordering::Acquire);
        if !chunk.is_null() {
            return chunk;
        }
        let fresh: Box<[RowSlot]> = (0..len).map(|_| RowSlot::new()).collect();
        let ptr = Box::into_raw(fresh) as *mut RowSlot;
        self.spine[b].store(ptr, Ordering::Release);
        ptr
    }

    /// An exclusive upper bound of ever-materialized slot indices.
    pub fn high(&self) -> usize {
        self.high.load(Ordering::Relaxed)
    }

    /// Iterates the materialized slots in index order (inspection only:
    /// the bound is a racy watermark).
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, &RowSlot)> {
        (0..self.high()).filter_map(|idx| self.slot(idx).map(|s| (idx, s)))
    }

    /// Number of spine chunks currently materialized (telemetry gauge;
    /// chunks are never freed before drop, so this only grows).
    pub fn resident_chunks(&self) -> usize {
        self.spine.iter().filter(|cell| !cell.load(Ordering::Acquire).is_null()).count()
    }
}

impl Default for RowTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for RowTable {
    fn drop(&mut self) {
        for (b, cell) in self.spine.iter().enumerate() {
            // `&mut self` already guarantees exclusive access; the load
            // is Acquire (not `get_mut`, which the loom shim cannot
            // offer) so the publishing store is visible even when the
            // drop happens on a thread that never touched the spine.
            let ptr = cell.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: `ptr` came from `Box::into_raw` of a `BASE << b`
                // slice and was published exactly once.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, BASE << b)) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// `RowSlot::new` calls made by this thread.
        pub(super) static SLOTS_BUILT: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, BASE, 0));
        assert_eq!(locate(BASE - 1), (0, BASE, BASE - 1));
        assert_eq!(locate(BASE), (1, 2 * BASE, 0));
        assert_eq!(locate(3 * BASE - 1), (1, 2 * BASE, 2 * BASE - 1));
        assert_eq!(locate(3 * BASE), (2, 4 * BASE, 0));
        // The whole u32 id space stays within the spine.
        let (b, len, off) = locate(u32::MAX as usize);
        assert!(b < BUCKETS && off < len);
    }

    #[test]
    fn slots_are_stable_and_lazy() {
        let t = RowTable::new();
        assert!(t.slot(5).is_none(), "chunks materialize on demand");
        let a = t.ensure_slot(5) as *const RowSlot;
        *t.ensure_slot(5).write() = Some(TsVec::undefined(2));
        let b = t.ensure_slot(5) as *const RowSlot;
        assert_eq!(a, b, "a slot address never changes");
        assert!((6..=HIGH_STEP).contains(&t.high()));
        assert_eq!(t.iter_slots().filter(|(_, s)| s.read().is_some()).count(), 1);
    }

    #[test]
    fn arm_reports_previous_incarnation() {
        let t = RowTable::new();
        let slot = t.ensure_slot(7);
        {
            let mut row = slot.write();
            assert!(!slot.arm(), "first incarnation is clean");
            *row = Some(TsVec::undefined(2));
        }
        slot.finished().store(true, Ordering::SeqCst);
        {
            let mut row = slot.write();
            *row = None;
            slot.retire();
        }
        let mut row = slot.write();
        assert!(slot.arm(), "reuse after reclamation must be reported");
        assert!(!slot.finished().load(Ordering::SeqCst));
        *row = Some(TsVec::undefined(2));
        drop(row);
        assert!(!slot.arm(), "the reclaim flag is consumed");
    }

    #[test]
    fn hints_survive_reclamation() {
        let t = RowTable::new();
        let slot = t.ensure_slot(3);
        assert_eq!(slot.take_hint(), None);
        slot.set_hint(4);
        slot.set_hint(9); // overwrites
        *slot.write() = None;
        slot.retire();
        assert_eq!(slot.take_hint(), Some(9), "hints outlive the row");
        assert_eq!(slot.take_hint(), None, "taking consumes");
        slot.set_hint(2);
        slot.clear_hint();
        assert_eq!(slot.take_hint(), None);
    }

    /// The spine teardown in `Drop` is the table's one `Box::from_raw`:
    /// it must not free memory another thread can still reach. Threads
    /// race chunk materialization (one builds under the grow lock, the
    /// rest find its pointer) while others hold `with_ts`-style read
    /// borrows into slots of the *same contested chunk* and write through
    /// them; the table drops only after every borrow ends. Run under
    /// `cargo miri test` (the CI miri lane does) to prove the absence of
    /// use-after-free rather than just the absence of a crash.
    #[test]
    fn retire_paths_never_free_reachable_memory() {
        for _ in 0..8 {
            let t = RowTable::new();
            std::thread::scope(|scope| {
                // Racers: all try to materialize the same second chunk
                // while the builder's slots are already in use.
                for i in 0..4 {
                    let t = &t;
                    scope.spawn(move || {
                        let slot = t.ensure_slot(BASE + i);
                        *slot.write() = Some(TsVec::undefined(2));
                    });
                }
                // Borrowers: hold read guards into the contested chunk
                // and look at the rows mid-race, `with_ts`-style.
                for i in 0..4 {
                    let t = &t;
                    scope.spawn(move || {
                        let slot = t.ensure_slot(BASE + i);
                        for _ in 0..16 {
                            let row = slot.read();
                            if let Some(ts) = row.as_ref() {
                                assert_eq!(ts.k(), 2);
                            }
                        }
                    });
                }
            });
            // `t` drops here: the spine teardown `Box::from_raw` runs
            // with no outstanding borrows.
        }
    }

    /// Eight `begin`s arriving together at a doubling point build the new
    /// chunk once: across all racers `RowSlot::new` runs exactly
    /// `BASE << b` times, however the race for the grow lock resolves.
    #[test]
    fn racing_threads_build_a_fresh_chunk_exactly_once() {
        let b = if cfg!(miri) { 1 } else { 3 };
        let first = ((1usize << b) - 1) * BASE;
        assert_eq!(locate(first), (b, BASE << b, 0));
        for _ in 0..8 {
            let t = RowTable::new();
            let gate = std::sync::Barrier::new(8);
            let built: usize = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..8)
                    .map(|i| {
                        let (t, gate) = (&t, &gate);
                        scope.spawn(move || {
                            gate.wait();
                            t.ensure_slot(first + i);
                            SLOTS_BUILT.with(Cell::get)
                        })
                    })
                    .collect();
                racers.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(built, BASE << b, "a racing begin built a second copy of the chunk");
            assert_eq!(t.resident_chunks(), 1);
        }
    }

    #[test]
    fn concurrent_ensure_publishes_one_chunk() {
        let t = RowTable::new();
        let addrs: Vec<usize> = std::thread::scope(|scope| {
            (0..8)
                .map(|i| {
                    let t = &t;
                    scope.spawn(move || {
                        let slot = t.ensure_slot(BASE + 17 + (i % 2));
                        slot as *const RowSlot as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let first_even = addrs[0];
        for (i, &a) in addrs.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(a, first_even, "all threads must see the same chunk");
            }
        }
    }
}
