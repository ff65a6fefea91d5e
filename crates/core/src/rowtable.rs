//! The scheduler's row table: a 4-byte id index over a recycled arena of
//! vector rows.
//!
//! Every transaction id ever issued must answer "where is your row?", but
//! only the *live* transactions — running, or still named by an `RT`/`WT`
//! entry — have one, and on a serving workload those are a few per
//! client plus one per recently written item. So the table is two parts:
//!
//! * **The id index**: one `AtomicU32` per id — `0` for an id never
//!   begun, `DEAD` for one whose row was reclaimed, otherwise its arena
//!   slot + 1. Its address space grows with the ids issued, at 4 bytes
//!   each, but its resident pages follow the live ids: a chunk is one
//!   zeroed allocation, and zero already means "never begun", so the
//!   kernel backs its pages only as ids in them are begun, and building a
//!   chunk writes none of it; the sweep below gives them back once every
//!   id in them is reclaimed. Each block of 256 ids is laid out
//!   transposed, so that the consecutive ids concurrent clients begin
//!   together do not share a cache line.
//! * **The arena** of [`RowSlot`]s. Reclamation (III-D-6b) drops the row
//!   and puts the slot on a free list, and the next `begin` takes it, so
//!   the arena is as large as the most rows ever live at once, however
//!   many ids have been issued.
//!
//! Both live in `Spine`s: geometrically growing chunks (`BASE << b`
//! elements each), published once through an `AtomicPtr` and never moved
//! or freed before drop. A `&RowSlot` therefore stays *valid* for the
//! table's lifetime — no lock is needed to address a slot, only to touch
//! its row — but it does not stay *the same transaction's*: once the row
//! is reclaimed, the slot may hold another transaction's row.
//!
//! **Ownership.** A slot is `id`'s exactly while the index links `id` to
//! it. The link is published after the row is installed and replaced by
//! `DEAD` under the slot's write lock, in the same critical section
//! that drops the row. So:
//!
//! * a caller that pins `id` — it runs `id`, or it holds an item shard
//!   where `id` is `RT`/`WT`, whose reference keeps the row from being
//!   reclaimed — may use the linked slot as `id`'s without a check;
//! * anyone else re-checks the link under the slot's lock
//!   ([`RowTable::owns`]): if `id` was reclaimed after the lookup, the
//!   link no longer names the slot, whoever holds it now.
//!
//! **Free lists.** One Treiber stack per stripe (`mdts_vector::stripe`),
//! linked through [`RowSlot`]'s `next` index, with a change counter in the
//! head's high half against ABA. A thread pushes the slots it reclaims
//! and pops from its own stripe first, so clients that never conflict
//! write no common free-list word; it takes from the other stripes before
//! it grows the arena.
//!
//! **Release.** The ids linked at any instant sit, apart from `T₀`, in a
//! window behind the newest id (the oldest holder still named by an
//! `RT`/`WT` entry trails it), so the index pages below that window hold
//! only `DEAD` entries. A release cursor follows the window: every begin
//! of a fresh id that is a multiple of `BASE` runs one sweep step, which,
//! under the sweep lock, moves the cursor over the whole `BASE`-id blocks
//! whose every entry is `DEAD` (it starts at chunk 1, past `T₀`'s entry,
//! and stops at the first block holding any other entry), publishes it,
//! and gives the pages wholly below it back to the kernel
//! (`madvise(MADV_DONTNEED)`). The chunks stay mapped and are never freed,
//! so nothing needs a reclamation protocol: a released page reads `0`,
//! which means "no row" to `link`, `slot` and `owns` exactly as `DEAD`
//! does. The one writer that can land in a released page is a `begin` of
//! a reclaimed id, so `begin` treats an entry that is `DEAD`, or `0` below
//! the cursor, as a reuse, and relinks it under the sweep lock so that no
//! sweep can release the new link. A fresh id's entry is `0` above the
//! cursor, and it stops the sweep, so a fresh `begin` takes no lock. An id
//! drawn by a transaction that keeps no row (a snapshot reader) is
//! [`retire`](RowTable::retire)d instead: its entry goes straight to
//! `DEAD`, so it never holds the cursor back.

use std::marker::PhantomData;
use std::sync::PoisonError;

use mdts_vector::stripe::{stripe, STRIPES};
use mdts_vector::{CachePadded, TsVec};

use crate::sync::{
    AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Mutex, Ordering, RwLock,
    RwLockReadGuard, RwLockWriteGuard,
};

/// Elements in a spine's first chunk; chunk `b` holds `BASE << b`.
#[cfg(not(loom))]
const BASE: usize = 1024;
/// Under loom a chunk is two elements, so a model touching indices 0 and
/// 2 exercises chunk materialization without registering a thousand model
/// objects.
#[cfg(loom)]
const BASE: usize = 2;

/// Chunks in a spine. `BASE * (2^BUCKETS − 1) > u32::MAX`, so every
/// possible transaction id has an index entry.
const BUCKETS: usize = 23;

/// Where id `id`'s entry sits in the index: within each aligned block of
/// 256 ids, at `16 · (id mod 16) + (id / 16 mod 16)` — the block seen as a
/// 16 × 16 matrix, transposed. Concurrent clients draw consecutive ids
/// from one counter, and sixteen 4-byte entries share a 64-byte line, so
/// in id order every client's `begin` would write, and every lookup read,
/// the line the others are writing. Transposed, consecutive ids sit a
/// line apart. Chunks start at multiples of 256 ids, so every id keeps its
/// chunk. (Under loom the first chunk is two ids long, so the map is the
/// identity there.)
#[inline]
fn index_pos(id: usize) -> usize {
    if cfg!(loom) {
        id
    } else {
        (id & !0xFF) | ((id & 0xF) << 4) | ((id >> 4) & 0xF)
    }
}

/// The index entry of an id whose row was reclaimed. Beginning such an id
/// again is a reuse ([`RowTable::begin`]'s `on_reuse`).
const DEAD: u32 = u32::MAX;

/// One arena slot: a vector row plus the reclamation state that belongs
/// to the transaction holding it.
#[derive(Debug)]
pub struct RowSlot {
    /// The timestamp vector; `None` while the slot is free.
    row: RwLock<Option<TsVec>>,
    /// Number of `RT`/`WT` entries naming the holder.
    refs: AtomicU32,
    /// Set when the holder committed or aborted.
    finished: AtomicBool,
    /// Free-list link: the next free slot + 1, 0 at the bottom. Read only
    /// while the slot is on a free list (or by a pop about to fail its
    /// CAS).
    next: AtomicU32,
}

impl Default for RowSlot {
    fn default() -> Self {
        #[cfg(test)]
        tests::SLOTS_BUILT.with(|n| n.set(n.get() + 1));
        RowSlot {
            row: RwLock::new(None),
            refs: AtomicU32::new(0),
            finished: AtomicBool::new(false),
            next: AtomicU32::new(0),
        }
    }
}

impl RowSlot {
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
}

/// A spine element: how a fresh chunk of them is built.
trait Element: Default {
    /// A fresh chunk of `len > 0` elements, allocated from the global
    /// allocator with `Layout::array::<Self>(len)` — the layout
    /// [`Spine`]'s `Drop` frees it with, as a `Box<[Self]>`. By default
    /// every element is constructed.
    fn chunk(len: usize) -> *mut Self {
        let fresh: Box<[Self]> = (0..len).map(|_| Self::default()).collect();
        Box::into_raw(fresh) as *mut Self
    }
}

/// Zero is not a documented valid `RwLock`: every slot is constructed.
impl Element for RowSlot {}

impl Element for AtomicU32 {
    /// One zeroed allocation: every entry reads `0`, "never begun", and
    /// the kernel backs a page only once an id in it is begun — 4 bytes
    /// per id used, and no `begin` stalls writing a whole chunk. (The
    /// model's atomics under `cfg(loom)` are not plain words, so they keep
    /// the default.)
    #[cfg(not(loom))]
    fn chunk(len: usize) -> *mut Self {
        let layout = std::alloc::Layout::array::<AtomicU32>(len).expect("a chunk fits in memory");
        // SAFETY: `layout` is non-zero-sized (`len > 0`). `AtomicU32` has
        // the size, alignment and bit validity of `u32`, so the zeroed
        // block is `len` initialized `AtomicU32::new(0)`s.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        ptr.cast()
    }
}

/// A chunked array that grows in place: chunk `b` holds `BASE << b`
/// elements, is built on first touch under a grow lock, published once
/// through an `AtomicPtr`, and never moved or freed before drop.
struct Spine<T> {
    chunks: [AtomicPtr<T>; BUCKETS],
    /// The spine owns (and drops) the `T`s its chunks hold, so it is
    /// `Send`/`Sync` only when `T` is.
    owns: PhantomData<T>,
}

/// Chunk index, chunk length, and offset within the chunk for an element.
#[inline]
fn locate(idx: usize) -> (usize, usize, usize) {
    let b = (usize::BITS - 1 - (idx / BASE + 1).leading_zeros()) as usize;
    let start = ((1usize << b) - 1) * BASE;
    (b, BASE << b, idx - start)
}

impl<T: Element> Spine<T> {
    fn new() -> Self {
        Spine {
            chunks: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            owns: PhantomData,
        }
    }

    /// Element `idx`, if its chunk has been built.
    ///
    /// Ordering contract (checked by `rowtable_chunk_publication` in
    /// tests/loom_models.rs): the chunk load is Acquire to pair with the
    /// Release publishing store in [`materialize`](Self::materialize), so
    /// the chunk's initialized contents are visible before any access
    /// through the returned reference.
    #[inline]
    fn get(&self, idx: usize) -> Option<&T> {
        let (b, _, off) = locate(idx);
        let chunk = self.chunks[b].load(Ordering::Acquire);
        // SAFETY: a published chunk is never moved or freed before drop,
        // and `off < len` by construction of `locate`.
        (!chunk.is_null()).then(|| unsafe { &*chunk.add(off) })
    }

    /// The `n` elements from `idx` on, which lie in one chunk, if that
    /// chunk has been built (Acquire, as in [`get`](Self::get)).
    fn run(&self, idx: usize, n: usize) -> Option<&[T]> {
        let (b, len, off) = locate(idx);
        assert!(off + n <= len, "a run crosses a chunk boundary");
        let chunk = self.chunks.get(b)?.load(Ordering::Acquire);
        // SAFETY: as in `get`, and `off + n <= len` by the assertion.
        (!chunk.is_null()).then(|| unsafe { std::slice::from_raw_parts(chunk.add(off), n) })
    }

    /// Element `idx`, building its chunk on first touch.
    #[inline]
    fn ensure(&self, idx: usize, grow: &Mutex<()>) -> &T {
        let (b, len, off) = locate(idx);
        assert!(b < BUCKETS, "index {idx} beyond the spine's capacity");
        let mut chunk = self.chunks[b].load(Ordering::Acquire);
        if chunk.is_null() {
            chunk = self.materialize(b, len, grow);
        }
        // SAFETY: as in `get`.
        unsafe { &*chunk.add(off) }
    }

    /// Builds and publishes chunk `b` unless another thread got there
    /// first. The re-check under the grow lock makes the chunk be built
    /// once: a thread that lost the race to the lock finds the winner's
    /// pointer (the lock orders the winner's store before the re-check)
    /// and allocates nothing.
    #[cold]
    fn materialize(&self, b: usize, len: usize, grow: &Mutex<()>) -> *mut T {
        let _grow = grow.lock().unwrap_or_else(PoisonError::into_inner);
        let chunk = self.chunks[b].load(Ordering::Acquire);
        if !chunk.is_null() {
            return chunk;
        }
        let ptr = T::chunk(len);
        self.chunks[b].store(ptr, Ordering::Release);
        ptr
    }

    /// Chunks built so far (they are never freed before drop).
    fn resident(&self) -> usize {
        self.chunks.iter().filter(|c| !c.load(Ordering::Acquire).is_null()).count()
    }
}

impl<T> Drop for Spine<T> {
    fn drop(&mut self) {
        for (b, cell) in self.chunks.iter().enumerate() {
            // `&mut self` already guarantees exclusive access; the load is
            // Acquire (not `get_mut`, which the loom shim cannot offer) so
            // the publishing store is visible even when the drop happens
            // on a thread that never touched the spine.
            let ptr = cell.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: `ptr` came from `Element::chunk(BASE << b)`, a
                // global allocation with the layout of a `BASE << b`
                // slice — the one a `Box<[T]>` of that length frees — and
                // was published exactly once.
                drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, BASE << b)) });
            }
        }
    }
}

/// The id index and the row arena. See the module docs.
pub struct RowTable {
    /// Transaction id → arena slot + 1 (or `0`/`DEAD`).
    index: Spine<AtomicU32>,
    arena: Spine<RowSlot>,
    /// Serializes chunk building in both spines; taken only when a chunk
    /// pointer was observed null, never on the addressing path.
    grow: Mutex<()>,
    /// The release cursor, an index position and a multiple of `BASE`:
    /// every id from `BASE` up to it was reclaimed when a sweep passed it,
    /// and the index pages holding only such entries are given back.
    /// Written (Release) only under `sweep`, before the pages it covers
    /// are released; read (Acquire) by a `begin` that found an entry `0`.
    released: AtomicUsize,
    /// Serializes the sweep with a reuse `begin`'s relink. Lock order:
    /// sweep → grow, slot write lock, `on_reuse`.
    sweep: Mutex<()>,
    /// Arena slots handed out so far — the arena's high-water mark.
    /// Raised only when every free list is empty.
    built: CachePadded<AtomicU32>,
    /// Free-list heads, one per stripe: the change counter in the high
    /// half, the top slot + 1 (0 = empty) in the low half.
    free: [CachePadded<AtomicU64>; STRIPES],
}

impl std::fmt::Debug for RowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowTable").field("arena_len", &self.arena_len()).finish()
    }
}

/// The free-list head that follows `head` with `top` on top: the counter
/// in the high half moves on every change, so a pop that read a stale
/// `next` fails its CAS instead of linking a slot that was taken and
/// given back meanwhile.
#[inline]
fn tagged(head: u64, top: u32) -> u64 {
    ((head >> 32).wrapping_add(1) << 32) | u64::from(top)
}

impl RowTable {
    /// An empty table (no chunks built).
    pub fn new() -> Self {
        RowTable {
            index: Spine::new(),
            arena: Spine::new(),
            grow: Mutex::new(()),
            released: AtomicUsize::new(BASE),
            sweep: Mutex::new(()),
            built: CachePadded(AtomicU32::new(0)),
            free: std::array::from_fn(|_| CachePadded(AtomicU64::new(0))),
        }
    }

    /// The arena slot at `at` (which has been handed out, so its chunk
    /// is built).
    #[inline]
    fn slot_at(&self, at: u32) -> &RowSlot {
        self.arena.get(at as usize).expect("a handed-out slot's chunk is built")
    }

    /// The slot `id` is linked to, with its arena index.
    #[inline]
    fn link(&self, id: usize) -> Option<(u32, &RowSlot)> {
        let entry = self.index.get(index_pos(id))?.load(Ordering::Acquire);
        (entry != 0 && entry != DEAD).then(|| (entry - 1, self.slot_at(entry - 1)))
    }

    /// The slot holding `id`'s row, if `id` has one. The slot is `id`'s
    /// for as long as the caller pins `id`; otherwise check
    /// [`owns`](Self::owns) under the slot's lock (see the module docs).
    #[inline]
    pub fn slot(&self, id: usize) -> Option<&RowSlot> {
        self.link(id).map(|(_, slot)| slot)
    }

    /// Whether `slot` holds `id`'s row. The answer is stable while the
    /// caller holds `slot`'s lock: the link changes only under it.
    pub fn owns(&self, id: usize, slot: &RowSlot) -> bool {
        self.slot(id).is_some_and(|s| std::ptr::eq(s, slot))
    }

    /// Gives `id` a row holding `ts()` unless it has one, and returns its
    /// slot. If `id` had a row before that was reclaimed, `on_reuse` runs
    /// before the new row becomes reachable through the index. One thread
    /// begins a given id at a time.
    pub fn begin(
        &self,
        id: usize,
        ts: impl FnOnce() -> TsVec,
        on_reuse: impl FnOnce(),
    ) -> &RowSlot {
        let pos = index_pos(id);
        let entry = self.index.ensure(pos, &self.grow);
        let old = entry.load(Ordering::Acquire);
        if old != 0 && old != DEAD {
            return self.slot_at(old - 1);
        }
        // A reclaimed id's entry reads `DEAD`, or `0` once a sweep released
        // it. The sweep publishes its cursor before it releases, so an
        // entry read as released comes with a cursor above it. Relinking
        // holds the sweep lock: a sweep that saw `DEAD` here cannot release
        // the new link.
        let reuse = old == DEAD || (pos >= BASE && pos < self.released.load(Ordering::Acquire));
        let relink = reuse.then(|| self.sweep.lock().unwrap_or_else(PoisonError::into_inner));
        let (at, slot) = self.take_free();
        {
            let mut row = slot.write();
            debug_assert!(row.is_none(), "a free slot holds a row");
            debug_assert_eq!(slot.refs.load(Ordering::SeqCst), 0, "a free slot is referenced");
            slot.finished.store(false, Ordering::SeqCst);
            *row = Some(ts());
        }
        if reuse {
            on_reuse();
        }
        let prev = entry.swap(at + 1, Ordering::AcqRel);
        // A reuse may find its `DEAD` released to `0` by the time it links.
        debug_assert!(prev == old || prev == 0, "two threads began transaction {id}");
        drop(relink);
        if !reuse && id.is_multiple_of(BASE) {
            self.sweep();
        }
        slot
    }

    /// Marks the fresh `id` reclaimed without giving it a row: an id drawn
    /// by a transaction that keeps none (a snapshot reader) is retired at
    /// once, so its entry reads `DEAD` and no sweep stops at it. A later
    /// `begin` of it is a reuse. Like a fresh `begin`, a retire of a
    /// multiple of `BASE` runs the sweep step. One thread retires a given
    /// id, and never one it began.
    pub fn retire(&self, id: usize) {
        let entry = self.index.ensure(index_pos(id), &self.grow);
        let prev = entry.swap(DEAD, Ordering::AcqRel);
        debug_assert_eq!(prev, 0, "transaction {id} retired after a begin");
        if id.is_multiple_of(BASE) {
            self.sweep();
        }
    }

    /// One sweep step: moves the release cursor over the whole blocks of
    /// `BASE` ids whose every entry is `DEAD`, stopping at the first block
    /// that holds any other entry or whose chunk is not built, publishes
    /// it, and releases what it passed. Runs once per `BASE` fresh ids.
    #[cold]
    fn sweep(&self) {
        let _sweep = self.sweep.lock().unwrap_or_else(PoisonError::into_inner);
        // Only this lock's holder writes the cursor.
        let from = self.released.load(Ordering::Relaxed);
        let mut to = from;
        while self
            .index
            .run(to, BASE)
            .is_some_and(|block| block.iter().all(|e| e.load(Ordering::Acquire) == DEAD))
        {
            to += BASE;
        }
        if to > from {
            self.released.store(to, Ordering::Release);
            self.release(from, to);
        }
    }

    /// Gives back the index pages that hold only entries of positions
    /// `from..to` (just passed: all `DEAD`, and no reuse can relink one
    /// while the caller holds the sweep lock) and of released positions
    /// below `from` that no reuse has relinked since. A chunk's first and
    /// last page may hold bytes of other allocations, and a page that also
    /// holds positions at or above `to` waits for a later step; the rest
    /// go back to the kernel and read `0` from then on.
    #[cfg(all(target_os = "linux", not(loom)))]
    fn release(&self, from: usize, to: usize) {
        let entry_size = std::mem::size_of::<AtomicU32>();
        let page_bytes = os::page_size();
        let page = page_bytes / entry_size;
        let mut pos = from;
        while pos < to {
            let (_, len, off) = locate(pos);
            let start = pos - off;
            let chunk = self.index.run(start, len).expect("the sweep passed a built chunk");
            // Entry counts from the page boundary at or below the chunk's
            // first entry, so multiples of `page` are page boundaries.
            let lead = chunk.as_ptr().addr() % page_bytes / entry_size;
            let end = (start + len).min(to) - start;
            let mut lo = (lead + off) / page * page;
            let relinked = |below: &[AtomicU32]| {
                below.iter().any(|e| {
                    let entry = e.load(Ordering::Acquire);
                    entry != 0 && entry != DEAD
                })
            };
            if lo < lead + off && (lo < lead || relinked(&chunk[lo - lead..off])) {
                lo += page;
            }
            let hi = (lead + end) / page * page;
            if lo < hi {
                os::give_back(&chunk[lo - lead..hi - lead]);
            }
            pos = start + len;
        }
    }

    /// Under loom the release stores `0` into each entry it passed (Release,
    /// so a `begin` that reads one also reads the cursor above it).
    #[cfg(loom)]
    fn release(&self, from: usize, to: usize) {
        for pos in from..to {
            self.index
                .get(pos)
                .expect("the sweep passed a built chunk")
                .store(0, Ordering::Release);
        }
    }

    /// Elsewhere the passed entries stay `DEAD`, which reads the same.
    #[cfg(not(any(target_os = "linux", loom)))]
    fn release(&self, _from: usize, _to: usize) {}

    /// Drops `id`'s row and recycles its slot if `id` still has one and
    /// `dead` holds of it under the slot's write lock. The lock serializes
    /// racing reclaimers, and the link re-check under it keeps the drop
    /// exactly-once even if the slot was recycled since the caller looked.
    /// Returns whether it dropped the row.
    pub fn reclaim(&self, id: usize, dead: impl FnOnce(&RowSlot) -> bool) -> bool {
        let Some((at, slot)) = self.link(id) else {
            return false;
        };
        let mut row = slot.write();
        if !self.owns(id, slot) || !dead(slot) {
            return false;
        }
        debug_assert!(row.is_some(), "a linked slot holds a row");
        *row = None;
        let entry = self.index.get(index_pos(id)).expect("a linked id has an index entry");
        entry.store(DEAD, Ordering::Release);
        drop(row);
        self.push_free(at, slot);
        true
    }

    /// A free slot: from this thread's stripe, else another stripe's,
    /// else a fresh one at the end of the arena.
    fn take_free(&self) -> (u32, &RowSlot) {
        let mine = stripe();
        for s in (0..STRIPES).map(|n| (mine + n) % STRIPES) {
            if let Some(at) = self.pop_free(s) {
                return (at, self.slot_at(at));
            }
        }
        let at = self.built.fetch_add(1, Ordering::Relaxed);
        assert!(at < DEAD - 1, "row arena exhausted");
        (at, self.arena.ensure(at as usize, &self.grow))
    }

    /// Pushes the just-emptied slot `at` on this thread's free list. The
    /// Release CAS publishes the `next` link with it.
    fn push_free(&self, at: u32, slot: &RowSlot) {
        let head = &self.free[stripe()].0;
        let mut cur = head.load(Ordering::Relaxed);
        loop {
            slot.next.store(cur as u32, Ordering::Relaxed);
            match head.compare_exchange(
                cur,
                tagged(cur, at + 1),
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Pops a slot off stripe `s`'s free list. The Acquire loads pair with
    /// the pushes' Release, so the `next` read belongs to the head seen; a
    /// head that moved meanwhile fails the CAS (see [`tagged`]).
    fn pop_free(&self, s: usize) -> Option<u32> {
        let head = &self.free[s].0;
        let mut cur = head.load(Ordering::Acquire);
        loop {
            let top = cur as u32;
            if top == 0 {
                return None;
            }
            let next = self.slot_at(top - 1).next.load(Ordering::Relaxed);
            match head.compare_exchange(
                cur,
                tagged(cur, next),
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(top - 1),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Arena slots handed out so far: the most rows ever live at once,
    /// give or take the slots in flight between a free list and a
    /// `begin`.
    pub fn arena_len(&self) -> usize {
        self.built.load(Ordering::Relaxed) as usize
    }

    /// Slots holding a row right now (inspection: each slot is looked at
    /// under its own read lock, at its own instant).
    pub fn live_rows(&self) -> usize {
        (0..self.arena_len())
            .filter(|&at| self.arena.get(at).is_some_and(|slot| slot.read().is_some()))
            .count()
    }

    /// Chunks of the id index built so far. Their address space grows with
    /// the ids issued — chunk `b` reserves `1024 << b` ids at 4 bytes
    /// each, backed as those ids are begun and given back as they are all
    /// reclaimed — and they are never freed before drop.
    pub fn resident_chunks(&self) -> usize {
        self.index.resident()
    }

    /// Ids whose index entries the sweep has released: every id from
    /// `BASE` (chunk 1; chunk 0 holds `T₀`'s entry) up to the cursor.
    pub fn released_ids(&self) -> usize {
        self.released.load(Ordering::Acquire) - BASE
    }

    /// Chunks of the row arena built so far.
    pub fn arena_chunks(&self) -> usize {
        self.arena.resident()
    }
}

impl Default for RowTable {
    fn default() -> Self {
        Self::new()
    }
}

/// The two system calls the release makes, declared here so the table
/// needs no bindings crate.
#[cfg(all(target_os = "linux", not(loom)))]
mod os {
    use std::ffi::{c_int, c_long, c_void};

    use crate::sync::AtomicU32;

    extern "C" {
        fn sysconf(name: c_int) -> c_long;
        #[cfg(not(miri))]
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// `sysconf`'s name for the page size.
    const SC_PAGESIZE: c_int = 30;
    /// `madvise`'s advice to drop a private mapping's pages: the next
    /// touch of one maps a zero-filled page.
    #[cfg(not(miri))]
    const MADV_DONTNEED: c_int = 4;

    /// The size of a memory page in bytes.
    pub(super) fn page_size() -> usize {
        // SAFETY: `sysconf` only reads its argument.
        let page = unsafe { sysconf(SC_PAGESIZE) };
        usize::try_from(page).expect("the system reports its page size")
    }

    /// Gives the pages `entries` spans back to the kernel: they read `0`
    /// from then on. `entries` starts and ends on page boundaries, and no
    /// entry in it may be written concurrently.
    #[cfg(not(miri))]
    pub(super) fn give_back(entries: &[AtomicU32]) {
        // SAFETY: `entries` spans whole pages of a private, read-write
        // mapping of this process, and every value those pages may hold
        // is valid as zero: an `AtomicU32` holds any bit pattern, and
        // `0` is the entry of an id without a row. Accessing a page after
        // `MADV_DONTNEED` maps a fresh zero page, so no reference dangles.
        let done = unsafe {
            madvise(
                entries.as_ptr().cast_mut().cast(),
                std::mem::size_of_val(entries),
                MADV_DONTNEED,
            )
        };
        // A failed release leaves the pages resident with their entries
        // `DEAD`, which reads the same; only the memory is not given back.
        debug_assert_eq!(done, 0, "madvise failed");
    }

    /// Under Miri, which cannot run `madvise`, the release writes the
    /// zeros itself, so the page arithmetic is still checked against the
    /// chunk's bounds.
    #[cfg(miri)]
    pub(super) fn give_back(entries: &[AtomicU32]) {
        for entry in entries {
            entry.store(0, crate::sync::Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// `RowSlot` constructions made by this thread.
        pub(super) static SLOTS_BUILT: Cell<usize> = const { Cell::new(0) };
    }

    fn undefined() -> TsVec {
        TsVec::undefined(2)
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
    fn index_positions_permute_each_block_and_keep_chunks() {
        for block in [0, 256, 3 * BASE, (1 << 20) * BASE] {
            let mut seen: Vec<usize> = (block..block + 256).map(index_pos).collect();
            assert_eq!(locate(seen[1]).0, locate(block).0, "an id keeps its chunk");
            assert_ne!(seen[0] / 16, seen[1] / 16, "consecutive ids share a line");
            seen.sort_unstable();
            assert_eq!(seen, (block..block + 256).collect::<Vec<_>>(), "not a permutation");
        }
    }

    #[test]
    fn begin_links_a_row_once() {
        let t = RowTable::new();
        assert!(t.slot(5).is_none(), "no row before begin");
        let a = t.begin(5, undefined, || panic!("first incarnation")) as *const RowSlot;
        let b = t.begin(5, || unreachable!("already begun"), || unreachable!()) as *const RowSlot;
        assert_eq!(a, b, "a second begin finds the first row");
        assert!(t.owns(5, t.slot(5).unwrap()));
        assert_eq!((t.live_rows(), t.arena_len()), (1, 1));
    }

    /// The arena holds the most rows ever live at once: a thousand
    /// transactions that each finish before the next begins share one
    /// slot, while their ids fill the index.
    #[test]
    fn reclaimed_slots_are_reused() {
        let t = RowTable::new();
        for id in 1..3 * BASE {
            let slot = t.begin(id, undefined, || panic!("ids are fresh"));
            slot.finished().store(true, Ordering::SeqCst);
            assert!(t.reclaim(id, |s| s.finished().load(Ordering::SeqCst)));
            assert!(t.slot(id).is_none());
        }
        assert_eq!(t.arena_len(), 1);
        assert_eq!(t.resident_chunks(), 2, "the index grows with the ids");
        assert_eq!(t.arena_chunks(), 1);
        assert_eq!(t.live_rows(), 0);
    }

    /// A reclaimed id keeps no claim on its old slot: the slot's next
    /// holder is not the id's, the reclaim is exactly-once, and beginning
    /// the id again reports the reuse.
    #[test]
    fn a_recycled_slot_is_not_the_old_ids() {
        let t = RowTable::new();
        let old = t.begin(7, undefined, || unreachable!());
        assert!(!t.reclaim(7, |_| false), "the predicate vetoes");
        assert!(t.reclaim(7, |_| true));
        assert!(!t.reclaim(7, |_| true), "exactly once");
        let new = t.begin(8, undefined, || unreachable!());
        assert!(std::ptr::eq(old, new), "the freed slot is taken first");
        assert!(!t.owns(7, new) && t.owns(8, new));
        let reused = Cell::new(false);
        t.begin(7, undefined, || reused.set(true));
        assert!(reused.get(), "beginning a reclaimed id is a reuse");
        assert_eq!(t.arena_len(), 2);
    }

    /// Many threads begin and reclaim at once, each on its own ids: every
    /// id ends up reclaimed once, no slot is handed to two live ids, and
    /// the arena stays within the rows live at any instant.
    #[test]
    fn concurrent_recycling_hands_each_slot_to_one_id() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2000;
        const LIVE: usize = 3;
        let t = RowTable::new();
        std::thread::scope(|scope| {
            for n in 0..THREADS {
                let t = &t;
                scope.spawn(move || {
                    let ids = (0..PER_THREAD).map(|i| 1 + n + i * THREADS);
                    let mut live = std::collections::VecDeque::new();
                    for id in ids {
                        let slot = t.begin(
                            id,
                            || TsVec::from_elems(&[Some(id as i64)]),
                            || unreachable!(),
                        );
                        live.push_back(id);
                        assert_eq!(slot.read().as_ref().unwrap().get(0), Some(id as i64));
                        if live.len() > LIVE {
                            let done = live.pop_front().unwrap();
                            let slot = t.slot(done).unwrap();
                            assert_eq!(slot.read().as_ref().unwrap().get(0), Some(done as i64));
                            assert!(t.reclaim(done, |_| true));
                        }
                    }
                    for done in live {
                        assert!(t.reclaim(done, |_| true));
                    }
                });
            }
        });
        assert_eq!(t.live_rows(), 0);
        // A fresh slot is built only when every free list looked empty; a
        // push racing that scan can add at most one slot per thread.
        assert!(t.arena_len() <= 2 * THREADS * (LIVE + 1), "arena grew to {}", t.arena_len());
    }

    /// The spine teardown in `Drop` is the table's one `Box::from_raw`:
    /// it must not free memory another thread can still reach. Threads
    /// race chunk materialization (one builds under the grow lock, the
    /// rest find its pointer) while others hold read borrows into slots
    /// of the *same contested chunk* and write through them; the table
    /// drops only after every borrow ends. Run under `cargo miri test`
    /// (the CI miri lane does) to prove the absence of use-after-free
    /// rather than just the absence of a crash.
    #[test]
    fn retire_paths_never_free_reachable_memory() {
        for _ in 0..8 {
            let t = RowTable::new();
            std::thread::scope(|scope| {
                for i in 0..4 {
                    let t = &t;
                    scope.spawn(move || {
                        let slot = t.begin(BASE + i, undefined, || unreachable!());
                        for _ in 0..16 {
                            let row = slot.read();
                            assert_eq!(row.as_ref().map(TsVec::k), Some(2));
                        }
                        *slot.write() = Some(undefined());
                    });
                }
            });
            // `t` drops here: the spine teardown runs with no borrows.
        }
    }

    /// An index chunk is one zeroed allocation. Across the boundary into
    /// a fresh chunk every entry reads as never begun, `begin`, `reclaim`
    /// and `DEAD` work there as in the first chunk, and the table's drop
    /// frees the chunk with the layout it was allocated with — a mismatch
    /// is undefined behaviour that the CI Miri lane reports.
    #[test]
    fn a_fresh_index_chunk_reads_as_never_begun() {
        let entry = |t: &RowTable, id: usize| {
            t.index.get(index_pos(id)).expect("chunk built").load(Ordering::Relaxed)
        };
        let t = RowTable::new();
        t.begin(BASE - 1, undefined, || unreachable!("fresh id"));
        assert_eq!(t.resident_chunks(), 1);
        let (b, len, off) = locate(BASE);
        assert_eq!((b, off), (1, 0), "id BASE starts chunk 1");
        assert!(t.index.get(index_pos(BASE)).is_none(), "chunk 1 is not built yet");
        t.begin(BASE, undefined, || unreachable!("fresh id"));
        assert_eq!(t.resident_chunks(), 2);
        assert!((BASE + 1..BASE + len).all(|id| entry(&t, id) == 0), "an entry is not zero");
        assert_eq!(entry(&t, BASE), 2, "the chunk's first id links the second slot");

        let last = BASE + len - 1;
        t.begin(last, undefined, || unreachable!("fresh id"));
        for id in [BASE, last] {
            assert!(t.reclaim(id, |_| true));
            assert_eq!(entry(&t, id), DEAD);
            assert!(t.slot(id).is_none());
        }
        let reused = Cell::new(false);
        t.begin(last, undefined, || reused.set(true));
        assert!(reused.get(), "beginning a reclaimed id is a reuse");
        assert!(t.owns(last, t.slot(last).unwrap()));
        assert_eq!(t.resident_chunks(), 2);
        drop(t);
    }

    /// Eight `begin`s arriving together at a doubling point of the index
    /// build the new chunk once: across all racers the entries are
    /// constructed `BASE << b` times in the index and once per arena
    /// slot, however the race for the grow lock resolves.
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
                            t.begin(first + i, undefined, || unreachable!());
                            SLOTS_BUILT.with(Cell::get)
                        })
                    })
                    .collect();
                racers.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(built, BASE, "a racing begin built a second copy of the arena chunk");
            assert_eq!((t.resident_chunks(), t.arena_chunks()), (1, 1));
        }
    }

    /// The cursor follows the live ids: with a window of `BASE + 100`
    /// linked ids sliding up the index, it never passes the oldest of them
    /// and trails it by at most one block, every id below it reads as
    /// rowless, and every id in the window keeps its link.
    #[test]
    fn the_cursor_trails_the_oldest_linked_id_by_at_most_one_block() {
        const WINDOW: usize = BASE + 100;
        let t = RowTable::new();
        t.begin(0, undefined, || unreachable!("T₀ is begun once"));
        for id in 1..6 * BASE {
            t.begin(id, undefined, || unreachable!("ids are fresh"));
            if id > WINDOW {
                assert!(t.reclaim(id - WINDOW, |_| true));
            }
            let oldest = id.saturating_sub(WINDOW) + 1;
            let cursor = t.released.load(Ordering::Relaxed);
            assert!(cursor <= (oldest / BASE * BASE).max(BASE), "{cursor} passed {oldest}");
            assert!(cursor + BASE >= oldest / BASE * BASE, "{cursor} trails {oldest}");
        }
        let cursor = t.released.load(Ordering::Relaxed);
        assert_eq!(cursor, (5 * BASE - WINDOW) / BASE * BASE, "the last sweep ran at 5 · BASE");
        assert!((BASE..cursor).all(|id| t.slot(id).is_none()));
        assert!((6 * BASE - WINDOW..6 * BASE).all(|id| t.owns(id, t.slot(id).unwrap())));
        assert!(t.slot(0).is_some(), "T₀ keeps its row");
    }

    /// A table whose only live id is `T₀` releases every index page above
    /// chunk 0 but a chunk's partial first and last page; a released id
    /// begun again is a reuse, and a later sweep leaves its new link alone
    /// even on the page it shares with the ids the sweep passes.
    #[test]
    fn a_table_holding_only_t0_releases_everything_above_chunk_0() {
        let t = RowTable::new();
        t.begin(0, undefined, || unreachable!("T₀ is begun once"));
        // Id `5 · BASE − 1` sits at index position `5 · BASE − 1` (the
        // last of its 256-id block), just below where the first sweep
        // stops, on the page that block shares with the next one.
        let (pin, reused) = (5 * BASE + 10, 5 * BASE - 1);
        for id in 1..7 * BASE {
            t.begin(id, undefined, || unreachable!("ids are fresh"));
            if id != pin {
                assert!(t.reclaim(id, |_| true));
            }
        }
        t.sweep();
        assert_eq!(t.released_ids(), 4 * BASE, "the sweep stops at the pinned id's block");
        let again = Cell::new(false);
        t.begin(reused, undefined, || again.set(true));
        assert!(again.get(), "beginning a released id is a reuse");
        assert!(t.reclaim(pin, |_| true));
        t.sweep();
        assert_eq!(t.released_ids(), 6 * BASE, "chunk 3 is not built: the sweep stops there");
        assert!(t.owns(reused, t.slot(reused).unwrap()), "the sweep released a relinked entry");
        assert!(t.slot(0).is_some(), "T₀ keeps its row");
        assert_eq!(t.resident_chunks(), 3);
        // A chunk's partial first and last page hold one page of entries
        // between them; chunk 2 also keeps the page the relinked id shares
        // with the ids the first sweep stopped at.
        #[cfg(all(target_os = "linux", not(loom)))]
        let page = os::page_size() / std::mem::size_of::<AtomicU32>();
        #[cfg(not(all(target_os = "linux", not(loom))))]
        let page = usize::MAX / 2;
        for (b, kept) in [(1, page), (2, 2 * page)] {
            let chunk = t.index.run(((1 << b) - 1) * BASE, BASE << b).expect("chunk built");
            let dead = chunk.iter().filter(|e| e.load(Ordering::Relaxed) == DEAD).count();
            assert!(dead <= kept, "chunk {b} keeps {dead} entries resident");
        }
        let fresh = Cell::new(false);
        t.begin(2 * BASE, undefined, || fresh.set(true));
        assert!(fresh.get(), "beginning a released id is a reuse");
        assert_eq!((t.live_rows(), t.arena_len()), (3, 3));
    }
}
