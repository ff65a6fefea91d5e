//! Placement helpers for words that many threads write: a cache-line pad
//! and per-thread striped statistics.
//!
//! Two transactions that never conflict should share no written cache
//! line. The engine's statistics (commit counters, the logical clock,
//! latency buckets, order-cache hit counts) are written by every
//! transaction and read only by a sampler, so each is kept as
//! [`STRIPES`] per-thread cells summed on read ([`Striped`]); a word that
//! must stay one word (an id counter, an epoch, a sequence) sits alone on
//! its line instead ([`CachePadded`]), so bumping it never invalidates
//! the read-mostly fields beside it.
//!
//! A stripe has one writer. A thread claims the lowest free *ownable*
//! stripe on its first [`stripe`] call and gives it back when it exits;
//! while it holds it, no other thread writes that stripe's cells, so a
//! bump is a plain `Relaxed` load and store ([`Mine::add`]) instead of a
//! lock-prefixed read-modify-write. The claim is an `Acquire` CAS on an
//! ownership bitmask and the give-back a `Release` on it, so the next
//! owner's first load sees every count the previous owner stored, and
//! the sums stay exact. A thread that finds every ownable stripe taken
//! writes the one [`SHARED`] stripe, whose bumps stay `fetch_add`.
//! Words that several threads write by design are not [`Count`]s and have
//! no plain path.
//!
//! This module lives in the lowest crate of the workspace because the
//! scheduler, the stores and the engine all stripe through it: there is
//! one thread → stripe claim, and the stripe count is a constant.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64 as StatCell, Ordering};

use crate::sync::AtomicU64;

/// Number of stripes: [`SHARED`] plus `STRIPES - 1` ownable ones, so up
/// to `STRIPES - 1` live threads write cells no other thread writes.
pub const STRIPES: usize = 16;

/// The stripe of threads that found every ownable stripe taken. Its
/// cells have several writers, so they are bumped with `fetch_add`.
pub const SHARED: usize = STRIPES - 1;

/// A thread that has not called [`stripe`] yet.
#[cfg(not(loom))]
const UNCLAIMED: usize = usize::MAX;

/// Which ownable stripes are held: bit `s` set = stripe `s` has an owner.
#[cfg(not(loom))]
static OWNED: AtomicU64 = AtomicU64::new(0);

/// The calling thread's stripe; its destructor gives an ownable stripe
/// back when the thread exits.
#[cfg(not(loom))]
struct Claim(std::cell::Cell<usize>);

#[cfg(not(loom))]
impl Drop for Claim {
    fn drop(&mut self) {
        let s = self.0.get();
        if s < SHARED {
            release(&OWNED, s);
        }
    }
}

#[cfg(not(loom))]
thread_local! {
    /// Const-initialized: reading it takes no lock. The first read
    /// registers the destructor (`tests/alloc_zero.rs` counts what that
    /// allocates).
    static CLAIM: Claim = const { Claim(std::cell::Cell::new(UNCLAIMED)) };
}

/// Claims the lowest free ownable stripe in `owned`, or `None` when all
/// `STRIPES - 1` are taken. The `Acquire` CAS pairs with the `Release`
/// of the [`release`] that freed the stripe, so everything its previous
/// owner stored into its cells happens before this thread's first load.
pub fn claim(owned: &AtomicU64) -> Option<usize> {
    let mut seen = owned.load(Ordering::Relaxed);
    loop {
        let s = (!seen).trailing_zeros() as usize;
        if s >= SHARED {
            return None;
        }
        match owned.compare_exchange(seen, seen | 1 << s, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => return Some(s),
            Err(now) => seen = now,
        }
    }
}

/// Gives back stripe `s`, claimed by this thread from `owned` and
/// written by it for the last time (see [`claim`]). The bit is set, so
/// subtracting it clears it.
pub fn release(owned: &AtomicU64, s: usize) {
    let before = owned.fetch_sub(1 << s, Ordering::Release);
    debug_assert!(before & 1 << s != 0, "stripe {s} released but not held");
}

/// The calling thread's stripe index, in `0..STRIPES`: an ownable stripe
/// claimed on the first call and held until the thread exits, or
/// [`SHARED`] if none was free then (the thread stays there). During
/// thread-local destruction it is [`SHARED`].
#[cfg(not(loom))]
#[inline]
pub fn stripe() -> usize {
    CLAIM
        .try_with(|cell| {
            let mut s = cell.0.get();
            if s == UNCLAIMED {
                s = claim(&OWNED).unwrap_or(SHARED);
                cell.0.set(s);
            }
            s
        })
        .unwrap_or(SHARED)
}

/// Under `cfg(loom)` every thread writes the shared stripe: the shim has
/// no thread-locals that start over with each explored execution, and a
/// claim that persisted across them would make executions differ.
/// `tests/loom_models.rs` drives [`claim`] and [`release`] directly.
#[cfg(loom)]
#[inline]
pub fn stripe() -> usize {
    SHARED
}

/// `T` alone on its cache line: 128-byte aligned (two 64-byte lines — the
/// adjacent-line prefetcher pulls them as a pair) and padded to a
/// multiple of that, so no neighbouring field shares the line.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

const _: () = {
    assert!(std::mem::align_of::<CachePadded<u64>>() == 128);
    assert!(std::mem::size_of::<CachePadded<u64>>() == 128);
    assert!(std::mem::size_of::<CachePadded<[u64; 17]>>() == 256);
};

/// A monotone statistic in one stripe of a [`Striped`] block: anyone
/// reads it, and only [`Mine::add`] writes it. It publishes nothing, so
/// it stays a `std` atomic under `cfg(loom)`.
#[derive(Debug, Default)]
pub struct Count(StatCell);

impl Count {
    /// The value now.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One `T` per stripe, each on its own cache line(s). `T` is usually a
/// block of [`Count`]s: a writer bumps them through
/// [`mine`](Self::mine), a reader folds [`sum`](Self::sum) over every
/// stripe. Each count is monotone, so a sum taken later is never smaller
/// than one taken earlier, and once the writers are quiescent the sum is
/// exact. (The scheduler also keeps a small per-thread cell this way,
/// read through [`Mine::cell`] alone.)
#[derive(Debug)]
pub struct Striped<T> {
    cells: [CachePadded<T>; STRIPES],
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped { cells: std::array::from_fn(|_| CachePadded(T::default())) }
    }
}

impl<T> Striped<T> {
    /// The calling thread's cell.
    #[inline]
    pub fn mine(&self) -> Mine<'_, T> {
        let s = stripe();
        Mine { cell: &self.cells[s].0, owned: s != SHARED, _not_send: PhantomData }
    }

    /// Sum of the count `f` picks over every stripe's cell.
    pub fn sum(&self, f: impl Fn(&T) -> &Count) -> u64 {
        self.cells.iter().map(|c| f(&c.0).get()).sum()
    }
}

/// The calling thread's cell of a [`Striped`] block, read through
/// [`cell`](Self::cell). Its [`Count`]s are bumped with
/// [`add`](Self::add), which knows whether this thread owns the stripe. Neither `Send` nor `Sync`: used on
/// another thread it would give an owned stripe a second writer.
#[derive(Debug)]
pub struct Mine<'a, T> {
    cell: &'a T,
    owned: bool,
    _not_send: PhantomData<*const ()>,
}

impl<T> Clone for Mine<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Mine<'_, T> {}

impl<'a, T> Mine<'a, T> {
    /// The cell, to read.
    #[inline]
    pub fn cell(&self) -> &'a T {
        self.cell
    }

    /// Adds `n` to the count `f` picks: a plain load and store on an
    /// owned stripe (this thread is its one writer), `fetch_add` on the
    /// shared one.
    #[inline]
    pub fn add(&self, f: impl FnOnce(&T) -> &Count, n: u64) {
        let cell = &f(self.cell).0;
        if self.owned {
            cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        } else {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use std::sync::{Barrier, Mutex};

    use super::*;

    #[test]
    fn eight_threads_of_bumps_sum_exactly() {
        const THREADS: u64 = 8;
        // Miri interprets every atomic: keep its lane short.
        const BUMPS: u64 = if cfg!(miri) { 200 } else { 100_000 };
        let cells: Striped<[Count; 2]> = Striped::default();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..BUMPS {
                        cells.mine().add(|c| &c[0], 1);
                        cells.mine().add(|c| &c[1], i & 1);
                    }
                });
            }
        });
        assert_eq!(cells.sum(|c| &c[0]), THREADS * BUMPS);
        assert_eq!(cells.sum(|c| &c[1]), THREADS * BUMPS / 2);
    }

    /// Three waves of `2 × STRIPES` threads, each wave joined before the
    /// next starts, so every wave overflows onto the shared stripe and
    /// every later wave reclaims stripes the earlier one gave back. All
    /// threads of a wave hold their stripe at once (a barrier), which is
    /// when two owners of one stripe would show.
    #[test]
    fn churning_threads_keep_sums_exact_and_stripes_exclusive() {
        const WAVES: u64 = 3;
        const THREADS: usize = 2 * STRIPES;
        const BUMPS: u64 = if cfg!(miri) { 50 } else { 200_000 };
        let cells: Striped<Count> = Striped::default();
        for wave in 1..=WAVES {
            let held = Mutex::new(Vec::new());
            let all_claimed = Barrier::new(THREADS);
            std::thread::scope(|scope| {
                let wave: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            held.lock().expect("no holder panics").push(stripe());
                            all_claimed.wait();
                            for _ in 0..BUMPS {
                                cells.mine().add(|c| c, 1);
                            }
                        })
                    })
                    .collect();
                // An explicit join waits for the thread to exit, its
                // thread-local destructors (the stripe's release)
                // included; the scope's own join waits only for the
                // closure.
                for thread in wave {
                    thread.join().expect("no holder panics");
                }
            });
            assert_eq!(cells.sum(|c| c), wave * THREADS as u64 * BUMPS, "counts were lost");
            let mut owned: Vec<usize> = held
                .into_inner()
                .expect("no holder panics")
                .into_iter()
                .filter(|&s| s != SHARED)
                .collect();
            let claimed = owned.len();
            owned.sort_unstable();
            owned.dedup();
            assert_eq!(owned.len(), claimed, "two live threads held one ownable stripe");
            // Other tests' threads may hold some stripes meanwhile, but the
            // wave always finds room for at least one of its own.
            assert!(claimed >= 1, "a wave after a joined wave must get an ownable stripe");
        }
        let fresh = std::thread::spawn(stripe).join().expect("a fresh thread claims");
        assert_ne!(fresh, SHARED, "a thread started after the waves joined gets an ownable stripe");
    }

    #[test]
    fn a_thread_keeps_its_stripe_and_cells_do_not_share_lines() {
        assert_eq!(stripe(), stripe());
        assert!(stripe() < STRIPES);
        let cells: Striped<Count> = Striped::default();
        let base = &cells.cells[0] as *const _ as usize;
        assert_eq!(base % 128, 0);
        for (i, cell) in cells.cells.iter().enumerate() {
            assert_eq!(cell as *const _ as usize, base + i * 128);
        }
    }

    #[test]
    fn claims_take_the_lowest_free_stripe_and_stop_at_the_shared_one() {
        let owned = AtomicU64::new(0);
        for s in 0..SHARED {
            assert_eq!(claim(&owned), Some(s));
        }
        assert_eq!(claim(&owned), None, "the shared stripe is never claimed");
        release(&owned, 4);
        assert_eq!(claim(&owned), Some(4));
    }
}
