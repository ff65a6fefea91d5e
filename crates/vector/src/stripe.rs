//! Placement helpers for words that many threads write: a cache-line pad
//! and per-thread striped cells.
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
//! This module lives in the lowest crate of the workspace because the
//! scheduler, the stores and the engine all stripe through it: there is
//! one thread → stripe assignment, and the stripe count is a constant.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of stripes. Threads are assigned round-robin, so up to this
/// many concurrent threads write disjoint cells; more share (the cells
/// are atomics, so sharing costs contention, never correctness).
pub const STRIPES: usize = 16;

thread_local! {
    /// This thread's stripe index, assigned round-robin on first use.
    /// Const-initialized: reading it never allocates or locks.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Round-robin stripe assignment source.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's stripe index, in `0..STRIPES`.
#[inline]
pub fn stripe() -> usize {
    STRIPE.with(|cell| {
        let mut s = cell.get();
        if s == usize::MAX {
            s = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
            cell.set(s);
        }
        s
    })
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

/// One `T` per stripe, each on its own cache line(s). `T` is usually a
/// block of `Relaxed` atomic counters: a writer bumps
/// [`mine`](Self::mine), a reader folds [`sum`](Self::sum) over every
/// stripe. Each counter cell is monotone, so a sum taken later is never
/// smaller than one taken earlier, and once the writers are quiescent the
/// sum is exact. (The scheduler also keeps a small per-thread cell this
/// way, read through `mine` alone.)
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
    pub fn mine(&self) -> &T {
        &self.cells[stripe()].0
    }

    /// Sum of `f` over every stripe's cell.
    pub fn sum(&self, f: impl Fn(&T) -> u64) -> u64 {
        self.cells.iter().map(|c| f(&c.0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use super::*;

    #[test]
    fn eight_threads_of_bumps_sum_exactly() {
        const THREADS: u64 = 8;
        // Miri interprets every atomic: keep its lane short.
        const BUMPS: u64 = if cfg!(miri) { 200 } else { 100_000 };
        let cells: Striped<[AtomicU64; 2]> = Striped::default();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for i in 0..BUMPS {
                        cells.mine()[0].fetch_add(1, Ordering::Relaxed);
                        cells.mine()[1].fetch_add(i & 1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(cells.sum(|c| c[0].load(Ordering::Relaxed)), THREADS * BUMPS);
        assert_eq!(cells.sum(|c| c[1].load(Ordering::Relaxed)), THREADS * BUMPS / 2);
    }

    #[test]
    fn a_thread_keeps_its_stripe_and_cells_do_not_share_lines() {
        assert_eq!(stripe(), stripe());
        assert!(stripe() < STRIPES);
        let cells: Striped<AtomicU64> = Striped::default();
        let base = &cells.cells[0] as *const _ as usize;
        assert_eq!(base % 128, 0);
        for (i, cell) in cells.cells.iter().enumerate() {
            assert_eq!(cell as *const _ as usize, base + i * 128);
        }
    }
}
