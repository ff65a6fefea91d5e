//! Zero-allocation assertion for the steady-state concurrent scheduler
//! path (ISSUE 5): with k ≤ INLINE_K every `TsVec` is a single inline
//! cache line, the `RT`/`WT` shard tables are flat dense arrays, the
//! order cache is a fixed-size direct-mapped table, the row table's
//! chunks are published once and its reclaimed slots go back on intrusive
//! free lists — so after a warmup that materializes the storage,
//! begin/access/commit/abort/restart through
//! [`SharedMtScheduler`] must perform **zero** heap allocations.
//!
//! The whole scenario lives in ONE `#[test]`, and the counter is
//! **per-thread**: every measured path below runs entirely on the
//! calling thread (the scheduler, the engine's `run`/`run_read_only`, and
//! the WAL framing never delegate allocation to another thread), so a
//! thread-local count is exactly as strong a gate — and it is immune to
//! the one background thread that does exist, libtest's harness thread,
//! which lazily initializes its result-channel receiver context (two
//! small `Arc` allocations) at a scheduling-dependent instant that can
//! land inside any window on a busy host.
//!
//! A second test is the memory-layout gate: the multiversion store keeps
//! each item's newest version inline in its record, so with no snapshot
//! live it allocates only its record pages, and the row table's id index
//! takes each chunk from one zeroed allocation, which the kernel backs as
//! ids are used. The counter also tracks this thread's live heap bytes
//! and its `alloc_zeroed` calls for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdts::core::{MtOptions, SharedMtScheduler};
use mdts::engine::{Phase, PhaseTimers};
use mdts::model::{ItemId, TxId};
use mdts::vector::{TsVec, INLINE_K};

/// `System`, with every allocating entry point counted. Deallocations
/// only lower the live-byte count: dropping warmed-up storage is free to
/// happen whenever, it is *acquiring* memory on the hot path that
/// regresses.
struct CountingAlloc;

/// What this thread has allocated so far.
#[derive(Clone, Copy, Debug)]
struct Counts {
    /// Allocating calls: `alloc`, `alloc_zeroed` and `realloc`.
    allocs: u64,
    /// `alloc_zeroed` calls alone, and the bytes they asked for.
    zeroed: u64,
    zeroed_bytes: u64,
    /// Bytes allocated less bytes freed.
    live_bytes: i64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;

    fn sub(self, before: Counts) -> Counts {
        Counts {
            allocs: self.allocs - before.allocs,
            zeroed: self.zeroed - before.zeroed,
            zeroed_bytes: self.zeroed_bytes - before.zeroed_bytes,
            live_bytes: self.live_bytes - before.live_bytes,
        }
    }
}

std::thread_local! {
    // A `const`-initialized `Cell` of a `Copy` struct has no destructor
    // and no lazy registration, so touching it from inside the allocator
    // cannot recurse or itself allocate.
    static COUNTS: Cell<Counts> =
        const { Cell::new(Counts { allocs: 0, zeroed: 0, zeroed_bytes: 0, live_bytes: 0 }) };
}

fn note(f: impl FnOnce(&mut Counts)) {
    let _ = COUNTS.try_with(|c| {
        let mut counts = c.get();
        f(&mut counts);
        c.set(counts);
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(|c| {
            c.allocs += 1;
            c.live_bytes += layout.size() as i64;
        });
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(|c| {
            c.allocs += 1;
            c.zeroed += 1;
            c.zeroed_bytes += layout.size() as u64;
            c.live_bytes += layout.size() as i64;
        });
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(|c| {
            c.allocs += 1;
            c.live_bytes += new_size as i64 - layout.size() as i64;
        });
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(|c| c.live_bytes -= layout.size() as i64);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// What this thread has allocated so far.
fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// What `f` allocated on this thread.
fn measure(f: impl FnOnce()) -> Counts {
    let before = counts();
    f();
    counts() - before
}

fn allocations(f: impl FnOnce()) -> u64 {
    measure(f).allocs
}

/// The item working set. Ids spread over every shard (64 by default) and
/// over several dense per-shard slots, so the warmup grows each shard's
/// flat table past everything the measured phase touches.
const ITEMS: usize = 512;

fn item(n: usize) -> ItemId {
    ItemId((n % ITEMS) as u32)
}

/// One steady-state round: transaction `id` reads a couple of items,
/// writes one back, and commits. A rejection (which does occur in this
/// workload — restarted incarnations carry III-D-4 starvation hints that
/// pre-date later transactions' element 0) takes the full abort →
/// `begin_restarted` → retry → commit detour, so both the happy path and
/// the reject/restart path are inside the measured window. Returns the
/// next free transaction id.
fn round(s: &SharedMtScheduler, id: u32, n: usize) -> u32 {
    let tx = TxId(id);
    s.begin(tx);
    let ok = s.read(tx, item(n)).is_accept()
        && s.read(tx, item(n + 7)).is_accept()
        && s.write(tx, item(n)).is_accept();
    if ok {
        s.commit(tx);
        id + 1
    } else {
        s.abort(tx);
        // Fresh id, carrying the starvation hint when one was recorded.
        let fresh = TxId(id + 1);
        s.begin_restarted(fresh, tx);
        if s.read(fresh, item(n)).is_accept() {
            let _ = s.write(fresh, item(n));
        }
        s.commit(fresh);
        id + 2
    }
}

#[test]
fn steady_state_scheduler_path_is_allocation_free_for_inline_k() {
    let mut opts = MtOptions::new(INLINE_K);
    opts.starvation_flush = true;
    let s = SharedMtScheduler::new(opts);

    // Warmup: materialize the row table's first index and arena chunks
    // (transaction ids < 1024, fewer than 1024 rows live at once) and
    // grow every item shard's dense table — one scanning transaction
    // touches the whole working set, so the flat tables reach their
    // steady-state size on a tiny id budget.
    let scan = TxId(1);
    s.begin(scan);
    for n in 0..ITEMS {
        assert!(s.read(scan, item(n)).is_accept());
    }
    s.commit(scan);
    // Then a stretch of the mixed workload to warm the order cache and
    // the reject/restart machinery.
    let mut id = 2u32;
    for n in 0..150 {
        id = round(&s, id, n);
    }
    assert!(id < 450, "warmup must leave the measured phase inside row chunk 0");

    // Measured steady state: same shape, fresh transaction ids (all still
    // inside the already-materialized chunk 0).
    let mut n = 0usize;
    let count = allocations(|| {
        while id < 980 {
            id = round(&s, id, n);
            n += 1;
        }
    });
    assert_eq!(
        count, 0,
        "steady-state begin/read/write/commit/abort/restart must not allocate for k = {INLINE_K}"
    );

    // The snapshot serving path: a read-only transaction takes a position
    // and raises read bounds. Over the scheduler's own tables its row is
    // allocated by `begin`, after which `snapshot_read` (the position
    // defined in the row, the shard bound raised) and the chain walk
    // `snapshot_newest_visible` work entirely in already-materialized
    // storage; a reader over caller-kept chains
    // (`begin_snapshot_reader` + `snapshot_visible`) keeps no row at all.
    // Build frozen commit stamps in warmup, then measure whole read-only
    // rounds.
    let mut stamps = Vec::new();
    let mut writers = Vec::new();
    for _ in 0..3 {
        let w = TxId(id);
        s.begin(w);
        assert!(s.write(w, item(3)).is_accept());
        stamps.push(s.stamp_commit(w));
        s.commit(w);
        writers.push(w);
        id += 1;
    }
    // The MV commit itself: a write → `stamp_commit` → `commit` round
    // saturates the open columns and publishes the column maxima without
    // touching the heap — the fill's change list is built only for an
    // attached trace sink.
    let stamping = allocations(|| {
        for n in 0..16usize {
            let w = TxId(id);
            s.begin(w);
            assert!(s.write(w, item(n * 67)).is_accept());
            std::hint::black_box(s.stamp_commit(w));
            s.commit(w);
            id += 1;
        }
    });
    assert_eq!(stamping, 0, "stamp_commit must not allocate for k = {INLINE_K}");
    let snapshot = allocations(|| {
        let mut read_bound = i64::MIN;
        while id < 1015 {
            let reader = TxId(id);
            s.begin(reader);
            for n in 0..8usize {
                let _ = s.snapshot_read(reader, item(n * 67));
            }
            // The newest-first chain walk over all three frozen stamps,
            // its first call included: the walk keeps no state that could
            // grow lazily.
            let _ = s.snapshot_newest_visible(reader, stamps.len(), |i| &stamps[i], |i| writers[i]);
            s.commit(reader);
            id += 1;
            let bounded = TxId(id);
            let bound = s.begin_snapshot_reader(bounded);
            let _ = s.snapshot_visible(bound, &mut read_bound, stamps.len(), |i| &stamps[i]);
            id += 1;
        }
    });
    assert_eq!(snapshot, 0, "steady-state snapshot reads must not allocate for k = {INLINE_K}");

    // The phase-timing cells (ISSUE 7). Disabled — the compiled-in
    // default — a span start is one relaxed load and recording is a
    // no-op; enabled, recording is an add into this thread's stripe and
    // a `fetch_add` into the phase's shared histogram, both fixed arrays.
    // Neither side may touch the heap: the thread's stripe claim is a
    // const-initialized thread local, made here by the first enabled
    // record before the window opens (the fresh-thread leg below counts
    // what a claim itself allocates).
    let timers = PhaseTimers::default();
    let disabled = allocations(|| {
        for _ in 0..256 {
            let span = timers.start();
            assert!(span.is_none(), "disabled timers must not produce spans");
            timers.record_since(Phase::Commit, span);
        }
    });
    assert_eq!(disabled, 0, "disabled phase timers must not allocate");
    timers.set_enabled(true);
    timers.record_since(Phase::Commit, timers.start());
    let enabled = allocations(|| {
        for _ in 0..256 {
            let span = timers.start();
            assert!(span.is_some());
            timers.record_since(Phase::ChainWalk, span);
            timers.record_ns(Phase::BlockWait, 17);
        }
    });
    assert_eq!(enabled, 0, "enabled phase-timing records must not allocate");
    assert!(timers.snapshot().spans[Phase::ChainWalk as usize].count >= 256);

    // The WAL commit-framing path (ISSUE 9). `Durability::enqueue`
    // encodes the write set into the long-lived, double-buffered epoch
    // buffer; once that buffer has grown to its steady-state capacity, a
    // commit's framing must not touch the heap. Warm a buffer with one
    // epoch's worth of frames, then measure re-framing into it.
    {
        use mdts::storage::wal;
        let writes: Vec<(ItemId, i64)> = (0..8).map(|n| (item(n), n as i64)).collect();
        let skip = [item(3)];
        let mut frames: Vec<u8> = Vec::new();
        wal::encode_epoch_begin(&mut frames, 1);
        for lsn in 0..32u64 {
            wal::encode_commit(&mut frames, lsn, TxId(lsn as u32 + 1), &writes, &skip);
        }
        wal::encode_epoch_seal(&mut frames, 1, 32);
        frames.clear(); // capacity retained — the daemon's double buffer
        let framing = allocations(|| {
            wal::encode_epoch_begin(&mut frames, 2);
            for lsn in 32..64u64 {
                wal::encode_commit(&mut frames, lsn, TxId(lsn as u32 + 1), &writes, &skip);
            }
            wal::encode_epoch_seal(&mut frames, 2, 32);
        });
        assert_eq!(framing, 0, "framing a commit into a warmed epoch buffer must not allocate");
    }

    // The engine's own path (PR 22). `Database::run` used to make four
    // allocations per committed transfer: the workspace's three buffers
    // were rebuilt on every call, and the commit collected its shard
    // guards into a `Vec`. The workspace is now this thread's recycled
    // scratch and the guards are held inline, so warmed `run` transfers —
    // admission, two reads, two writes, commit-time validation, stamp,
    // two version installs, apply — and warmed `run_read_only` scans must
    // not touch the heap at all. With no snapshot live, a version install
    // overwrites the item's inline chain record in place.
    {
        use mdts::engine::{bank_database_multiversion, BankConfig};

        const ACCOUNTS: u32 = 64;
        let cfg = BankConfig { accounts: ACCOUNTS, ..BankConfig::default() };
        let db = bank_database_multiversion(3, &cfg);
        let transfer = |n: u32| {
            let (src, dst) = (ItemId(n % ACCOUNTS), ItemId((n * 7 + 1) % ACCOUNTS));
            if src == dst {
                return;
            }
            db.run(8, |tx| {
                let a = tx.read(src)?.unwrap_or(0);
                let b = tx.read(dst)?.unwrap_or(0);
                tx.write(src, a - 1)?;
                tx.write(dst, b + 1)
            })
            .expect("an uncontended transfer commits");
        };
        let scan = |n: u32| {
            db.run_read_only(|tx| {
                for i in 0..8 {
                    std::hint::black_box(tx.read(ItemId((n + i * 9) % ACCOUNTS)));
                }
            })
        };
        // Transaction ids 1..=1023 live in row chunk 0; the two windows
        // and their warm-up stay inside it.
        for n in 0..300 {
            transfer(n);
            if n % 4 == 0 {
                scan(n);
            }
        }
        let before = db.metrics();
        let transfers = allocations(|| (300..500).for_each(transfer));
        assert_eq!(transfers, 0, "a warmed Database::run transfer must not allocate");
        let scans = allocations(|| (0..100).for_each(scan));
        assert_eq!(scans, 0, "a warmed Database::run_read_only scan must not allocate");
        let m = db.metrics();
        assert!(m.commits - before.commits >= 290, "the windows must have committed their work");
        assert_eq!((m.aborts, m.restarts), (0, 0));

        // A fresh thread: its first statistic claims a stripe, which
        // registers the thread-local destructor that gives the stripe
        // back at exit. On Linux with glibc the standard library registers
        // it with `__cxa_thread_atexit_impl`, whose bookkeeping comes from
        // libc's `malloc`, not this process's global allocator: the claim
        // makes 0 counted allocations. After one warming `run` and
        // `run_read_only` (the thread's workspace is built by the first),
        // the thread's transactions allocate nothing. Its windows stay
        // inside one id-index chunk: first move the ids past chunk 0.
        let chunks = db.metrics().gauges.sched_row_chunks;
        let mut n = 500;
        while db.metrics().gauges.sched_row_chunks == chunks {
            transfer(n);
            n += 1;
        }
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let claim = allocations(|| {
                        std::hint::black_box(mdts::vector::stripe::stripe());
                    });
                    if cfg!(all(target_os = "linux", target_env = "gnu")) {
                        assert_eq!(claim, 0, "a stripe claim allocated");
                    }
                    transfer(0);
                    scan(0);
                    let transfers = allocations(|| (0..256).for_each(transfer));
                    assert_eq!(transfers, 0, "a fresh thread's warmed run must not allocate");
                    let scans = allocations(|| (0..256).for_each(scan));
                    assert_eq!(scans, 0, "a fresh thread's warmed run_read_only must not allocate");
                })
                .join()
                .expect("the fresh thread's windows pass");
        });
    }

    // Sanity check that the counter actually observes the scheduler: one
    // dimension past the inline capacity spills to boxed storage, so the
    // same path must allocate.
    let spill = SharedMtScheduler::new(MtOptions::new(INLINE_K + 1));
    let spilled = allocations(|| {
        s_begin_spilled(&spill);
    });
    assert!(spilled > 0, "k = INLINE_K + 1 must spill to heap-backed vectors");

    // And the vector type itself agrees about the boundary.
    let inline_vec = allocations(|| {
        let v = TsVec::undefined(INLINE_K);
        assert!(!v.is_spilled());
        std::mem::forget(v); // nothing to free anyway
    });
    assert_eq!(inline_vec, 0, "TsVec::undefined({INLINE_K}) must not touch the heap");
}

#[inline(never)]
fn s_begin_spilled(s: &SharedMtScheduler) {
    s.begin(TxId(1));
    assert!(s.read(TxId(1), ItemId(0)).is_accept());
    s.commit(TxId(1));
}

/// The memory-layout gate: the multiversion store and the row table's id
/// index hold only memory in use.
#[test]
fn mv_chain_records_and_id_index_chunks_hold_only_live_memory() {
    use mdts::core::RowTable;
    use mdts::storage::ConcurrentMvStore;

    const ITEMS: u32 = 8192;
    let store: ConcurrentMvStore<Option<i64>> = ConcurrentMvStore::new();
    let mut writer = 0;
    let mut install_all = || {
        for n in 0..ITEMS {
            writer += 1;
            let stamp = TsVec::from_elems(&[Some(writer.into()), Some(1), Some(1)]);
            store.install(ItemId(n), TxId(writer), stamp, Some(n.into()), || None);
        }
    };
    let live_per_item = |c: Counts| c.live_bytes / i64::from(ITEMS);

    // No snapshot live: every install prunes its chain to the new version,
    // which the item's record holds inline — the store allocates its
    // record pages and page lists, and nothing per item or per install.
    // A record is one 64-byte line (packed stamp, holders and value), so
    // with the page lists an item costs a little over 64 bytes.
    let empty = counts();
    let installs = measure(|| (0..4).for_each(|_| install_all()));
    assert!(installs.allocs <= 1024, "{} allocations for {ITEMS} items", installs.allocs);
    assert!(
        live_per_item(installs) <= 72,
        "{} live heap bytes per item with no snapshot live",
        live_per_item(installs)
    );

    // A held snapshot keeps each chain's older versions on the heap; the
    // first install after it is dropped prunes every chain back to one
    // version, inline, without allocating, and frees the heap blocks.
    let snapshot = store.begin_snapshot();
    (0..3).for_each(|_| install_all());
    assert_eq!(store.stats().max_chain, 4, "a held snapshot keeps every version since it began");
    drop(snapshot);
    let after = measure(install_all);
    assert_eq!(after.allocs, 0, "an install after the snapshot was dropped allocated");
    assert_eq!(store.stats().max_chain, 1);
    let since_empty = counts() - empty;
    assert!(
        live_per_item(since_empty) <= 72,
        "{} live heap bytes per item after the snapshot was dropped",
        live_per_item(since_empty)
    );

    // The id index: beginning the first id of a fresh chunk (chunk 1,
    // 2048 ids at 4 bytes) takes the chunk from one zeroed allocation,
    // and is the window's only allocation.
    let rows = RowTable::new();
    rows.begin(1023, || TsVec::undefined(3), || unreachable!("a fresh id"));
    let chunk = measure(|| {
        rows.begin(1024, || TsVec::undefined(3), || unreachable!("a fresh id"));
    });
    assert_eq!(rows.resident_chunks(), 2);
    assert_eq!(
        (chunk.zeroed, chunk.zeroed_bytes, chunk.allocs),
        (1, 2048 * 4, 1),
        "a fresh index chunk must be one zeroed allocation of its size"
    );
}
