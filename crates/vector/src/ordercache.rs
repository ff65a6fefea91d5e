//! A write-once order cache: memoized Definition 6 strict orders.
//!
//! Algorithm 1 only ever *defines* vector elements, it never overwrites
//! them (procedure `Set(j, i)` fills undefined columns; [`TsVec::define`]
//! asserts the discipline). That gives decided comparisons an unusual
//! stability guarantee: once `ScalarComparator::compare(a, b)` returns
//! [`CmpResult::Less`] or [`CmpResult::Greater`], the deciding column has
//! both elements defined and every earlier column is a defined, equal
//! pair — all frozen forever — so the same comparison can never return
//! anything else. The strict order, *and* the column that decided it, are
//! immutable facts that can be cached for the lifetime of the vectors.
//!
//! The undecided results ([`CmpResult::EqualUndefined`],
//! [`CmpResult::LeftUndefined`], [`CmpResult::RightUndefined`],
//! [`CmpResult::Identical`]) carry no such guarantee — the next `define`
//! can turn any of them into `Less` or `Greater` — and are **never**
//! cached.
//!
//! Two events break the write-once premise and require invalidation:
//!
//! * the Section III-D-4 starvation `flush`, which *overwrites* a
//!   transaction's vector with `⟨first, 0, …, 0⟩`, and
//! * id reuse — a reclaimed transaction id beginning again as a fresh,
//!   fully undefined vector.
//!
//! Both are handled with one global epoch: [`OrderCache::invalidate_all`]
//! bumps it, and entries stamped with an older epoch are treated as
//! misses. To stay sound against an invalidation racing with an in-flight
//! comparison, callers sample [`OrderCache::epoch`] *before* reading the
//! vectors and pass the sample to [`OrderCache::insert`]; a result
//! computed from pre-flush vectors then lands with a stale stamp and is
//! never served.
//!
//! The cache is advisory: dropping entries (a collision overwriting a
//! slot, epoch bumps) only costs recomputation. That licenses two design
//! choices that keep it off the protocol's critical path:
//!
//! * the table is *direct-mapped* (transposition-table style): each key
//!   hashes to exactly one preallocated slot and an insert overwrites
//!   whatever lives there. Every operation is O(1) with no probing, no
//!   rehashing, and — crucially — no eviction scan. An earlier
//!   `HashMap`-per-shard design evicted by scanning full shards; under a
//!   restart storm (every restart is a fresh transaction id, so misses
//!   vastly outnumber live pairs) those scans burned enough CPU to
//!   lengthen the read→validate window of every in-flight transaction
//!   and measurably *feed* the storm they rode in on; and
//! * slots are individual *seqlocks*, so the cache takes no lock at all:
//!   a lookup is three plain atomic loads (no read-modify-write — the
//!   version word is read twice around the data words and a change means
//!   "miss"), and an insert claims the slot with a single CAS on the
//!   version word, dropping the insert if another writer holds it.
//!   Schedulers consult the cache from inside hot critical sections — an
//!   item-shard lock, a pair of row locks — and a memo table must never
//!   park a thread that is holding real protocol state.
//!
//! Seqlock consistency is what makes the torn-write question moot: a
//! reader accepts the `(key, payload)` words only if the version word is
//! even and unchanged across both data loads, i.e. they belong to one
//! completed insert.
//!
//! [`TsVec::define`]: crate::TsVec::define

use std::sync::atomic::AtomicU64 as StatCell;

use crate::compare::CmpResult;
use crate::stripe::{CachePadded, Count, Striped};
use crate::sync::{fence, AtomicU64, Ordering};

/// Direct-mapped slot count (power of two). The cache holds at most this
/// many entries in fixed, preallocated storage (~1.5 MiB); the useful
/// working set is pairs of *live* transactions (a few hundred at
/// realistic multiprogramming levels), so collisions mostly overwrite
/// entries about transactions that already finished.
#[cfg(not(loom))]
const SLOTS: usize = 1 << 16;
/// Under loom every pair must land in the same slot so the model
/// exercises collisions and the seqlock protocol, not the hash.
#[cfg(loom)]
const SLOTS: usize = 1;

/// Number of payload bits holding the deciding column (below the
/// `lo_less` bit; the epoch stamp takes the rest).
const AT_BITS: u32 = 15;

/// One memoized strict order between the canonical pair `(lo, hi)`,
/// `lo < hi` as raw ids, guarded by a per-slot seqlock.
///
/// `key == 0` marks a never-written slot — a real key is
/// `(lo << 32) | hi` with `hi > lo`, which is never zero. The payload
/// word packs `epoch << 16 | at << 1 | lo_less` (see [`pack`]): `lo_less`
/// is whether `lo`'s vector is the lexicographically smaller one, `at`
/// the deciding column (stable: the prefix before it is frozen), and the
/// 48-bit epoch stamp makes entries from older epochs read as misses.
#[derive(Debug)]
struct Slot {
    /// Seqlock word: odd while an insert is in flight, bumped by two when
    /// it completes. Readers reject a slot whose version is odd or moves
    /// between their two loads.
    version: AtomicU64,
    key: AtomicU64,
    payload: AtomicU64,
}

impl Slot {
    // Not `const`: loom's `AtomicU64::new` registers with the model.
    fn empty() -> Self {
        Slot { version: AtomicU64::new(0), key: AtomicU64::new(0), payload: AtomicU64::new(0) }
    }
}

/// Packs an entry's data word. The deciding column must fit its field;
/// dimensions anywhere near `2^15` columns are far beyond any MT(k)
/// configuration this crate supports elsewhere.
fn pack(epoch: u64, at: u32, lo_less: bool) -> u64 {
    debug_assert!(at < (1 << AT_BITS), "deciding column {at} overflows the payload field");
    debug_assert!(epoch < (1 << (64 - AT_BITS - 1)), "epoch overflows the payload stamp");
    (epoch << (AT_BITS + 1)) | (u64::from(at) << 1) | u64::from(lo_less)
}

fn unpack(payload: u64) -> (u64, u32, bool) {
    (payload >> (AT_BITS + 1), ((payload >> 1) & ((1 << AT_BITS) - 1)) as u32, payload & 1 == 1)
}

/// Counters describing how the cache has been doing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to fall through to a real comparison.
    pub misses: u64,
    /// Decided results stored (undecided results are dropped silently).
    pub inserts: u64,
    /// Epoch bumps ([`OrderCache::invalidate_all`]).
    pub invalidations: u64,
}

/// A concurrent memo table for decided (strict) Definition 6 orders,
/// keyed by unordered pairs of transaction ids. See the module docs for
/// the soundness argument.
#[derive(Debug)]
pub struct OrderCache {
    slots: Box<[Slot]>,
    /// Alone on its line: every probe loads it, and only an invalidation
    /// writes it, so the probing threads keep it in shared state.
    epoch: CachePadded<AtomicU64>,
    /// Per-thread probe/insert counts, summed by [`stats`](Self::stats)
    /// — a probe writes no line another thread's probe writes.
    counts: Striped<Counts>,
    /// Bumped by whichever thread invalidates, so a shared `fetch_add`.
    invalidations: StatCell,
}

// The epoch starts a cache line of its own.
const _: () = assert!(std::mem::offset_of!(OrderCache, epoch).is_multiple_of(128));

/// One stripe of the traffic counters.
#[derive(Debug, Default)]
struct Counts {
    hits: Count,
    misses: Count,
    inserts: Count,
}

impl Default for OrderCache {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderCache {
    /// An empty cache at epoch 0.
    pub fn new() -> Self {
        OrderCache {
            slots: (0..SLOTS).map(|_| Slot::empty()).collect(),
            epoch: CachePadded(AtomicU64::new(0)),
            counts: Striped::default(),
            invalidations: StatCell::new(0),
        }
    }

    /// The canonical key of the unordered pair, plus whether the arguments
    /// arrived swapped.
    #[inline]
    fn key(a: u32, b: u32) -> (u64, bool) {
        if a < b {
            ((u64::from(a) << 32) | u64::from(b), false)
        } else {
            ((u64::from(b) << 32) | u64::from(a), true)
        }
    }

    /// The direct-mapped slot for a canonical key. Fibonacci hashing: the
    /// low key half is the larger id, whose low bits alone would stripe
    /// poorly for clustered id ranges.
    #[inline]
    fn place(&self, key: u64) -> &Slot {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.slots[(h >> 32) as usize & (SLOTS - 1)]
    }

    /// The current epoch. Sample it *before* reading the vectors whose
    /// comparison you intend to [`insert`](Self::insert).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Looks up the memoized strict order between `a` and `b`, from `a`'s
    /// perspective: `Some(Less { at })` means `a`'s vector is smaller.
    /// Only ever returns `Less` or `Greater`. Counts a hit or miss. A
    /// slot mid-insert (odd or moving version) counts as a miss — the
    /// caller falls back to a real comparison rather than waiting.
    pub fn get(&self, a: u32, b: u32) -> Option<CmpResult> {
        if a == b {
            return None; // compare(v, v) is Identical — never cached.
        }
        let epoch = self.epoch();
        let (key, swapped) = Self::key(a, b);
        let slot = self.place(key);

        // Seqlock two-version-read protocol: the data words are only
        // trusted if the version is even and unchanged around them, i.e.
        // both came from a single completed insert. Each ordering is
        // load-bearing (regression: PR 4, checked exhaustively by
        // `loom_ordercache_*` in tests/loom_models.rs):
        //
        //  * `v1` is an Acquire load, so it synchronizes-with the
        //    Release publication of the insert it observes — the data
        //    loads below cannot see values *older* than that insert;
        //  * the data loads stay Relaxed (this is the whole point of a
        //    seqlock: no RMW, no ordered data access on the fast path);
        //  * the Acquire fence upgrades them after the fact — any store
        //    whose value they read is Release-ordered before everything
        //    the fence-ordered `v2` re-read can miss;
        //  * `v2` is an Acquire load as well, pairing with the writer's
        //    Release fence: if a data load observed a claim's store, the
        //    re-read is guaranteed to observe the odd claim (or a later
        //    version) and reject. With a Relaxed re-read *and* no writer
        //    fence, a reader could accept a torn (key, payload) pair
        //    whose halves came from different inserts.
        let v1 = slot.version.load(Ordering::Acquire);
        let stored_key = slot.key.load(Ordering::Relaxed);
        let payload = slot.payload.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        let consistent = v1 & 1 == 0 && slot.version.load(Ordering::Acquire) == v1;

        let (stored_epoch, at, lo_less) = unpack(payload);
        if consistent && stored_key == key && stored_epoch == epoch {
            self.counts.mine().add(|c| &c.hits, 1);
            let at = at as usize;
            Some(if lo_less != swapped {
                CmpResult::Less { at }
            } else {
                CmpResult::Greater { at }
            })
        } else {
            self.counts.mine().add(|c| &c.misses, 1);
            None
        }
    }

    /// Stores `result = compare(a, b)` if it is a decided strict order;
    /// undecided results are ignored. `observed_epoch` must be the value
    /// of [`epoch`](Self::epoch) sampled before the vectors were read —
    /// if an invalidation has intervened, the result may describe
    /// pre-flush vectors and is dropped. A slot another writer holds also
    /// drops the insert: memoization must not park the caller. A colliding
    /// key simply loses its slot — the table is direct-mapped.
    pub fn insert(&self, observed_epoch: u64, a: u32, b: u32, result: CmpResult) {
        let (lo_less_as_given, at) = match result {
            CmpResult::Less { at } => (true, at),
            CmpResult::Greater { at } => (false, at),
            _ => return, // undecided orders can still flip: never cache
        };
        if self.epoch.load(Ordering::Acquire) != observed_epoch {
            return;
        }
        let (key, swapped) = Self::key(a, b);
        let payload = pack(observed_epoch, at as u32, lo_less_as_given != swapped);
        let slot = self.place(key);

        // Seqlock write: claim the slot by making the version odd. Losing
        // the claim (another insert in flight) drops ours.
        let v = slot.version.load(Ordering::Relaxed);
        if v & 1 != 0
            || slot
                .version
                .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        // Regression (PR 4): this Release fence is the writer half of the
        // seqlock contract and was originally missing. It orders the odd
        // claim above before the data stores below: a reader whose
        // Relaxed data load observes one of these stores is then
        // guaranteed (via its Acquire fence + Acquire version re-read)
        // to also observe the odd version and reject the slot. Without
        // the fence the claim and the data stores are mutually
        // unordered, and loom finds an interleaving where a reader
        // accepts a (key, payload) pair whose halves belong to two
        // different inserts — a wrong but "consistent-looking"
        // Definition 6 verdict. Witness: `seqlock_unfenced_writer_is_torn`
        // in tests/loom_models.rs.
        fence(Ordering::Release);
        debug_assert!(
            {
                let (old_epoch, old_at, old_lo_less) = unpack(slot.payload.load(Ordering::Relaxed));
                slot.key.load(Ordering::Relaxed) != key
                    || old_epoch != observed_epoch
                    || (old_lo_less == (lo_less_as_given != swapped) && old_at == at as u32)
            },
            "a decided order flipped: write-once discipline violated for ({a}, {b})"
        );
        slot.key.store(key, Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        slot.version.store(v + 2, Ordering::Release);
        self.counts.mine().add(|c| &c.inserts, 1);
    }

    /// Invalidates every entry by bumping the epoch. Required after any
    /// vector *overwrite*: the III-D-4 starvation flush, or reuse of a
    /// reclaimed transaction id.
    pub fn invalidate_all(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> OrderCacheStats {
        OrderCacheStats {
            hits: self.counts.sum(|c| &c.hits),
            misses: self.counts.sum(|c| &c.misses),
            inserts: self.counts.sum(|c| &c.inserts),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Total slots ever written (including epoch-stale ones — they are
    /// misses but still occupy their slot until a collision overwrites
    /// them). Diagnostic use, not a hot path.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|slot| slot.key.load(Ordering::Relaxed) != 0).count()
    }

    /// Whether the cache holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::compare::ScalarComparator;
    use crate::tsvec::TsVec;

    #[test]
    fn decided_orders_round_trip_both_directions() {
        let cache = OrderCache::new();
        let e = cache.epoch();
        cache.insert(e, 3, 7, CmpResult::Less { at: 2 });
        assert_eq!(cache.get(3, 7), Some(CmpResult::Less { at: 2 }));
        assert_eq!(cache.get(7, 3), Some(CmpResult::Greater { at: 2 }));
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().inserts, 1);
    }

    #[test]
    fn undecided_results_are_never_stored() {
        let cache = OrderCache::new();
        let e = cache.epoch();
        cache.insert(e, 1, 2, CmpResult::EqualUndefined { at: 0 });
        cache.insert(e, 1, 2, CmpResult::LeftUndefined { at: 1 });
        cache.insert(e, 1, 2, CmpResult::RightUndefined { at: 1 });
        cache.insert(e, 1, 2, CmpResult::Identical);
        assert!(cache.is_empty());
        assert_eq!(cache.get(1, 2), None);
        assert_eq!(cache.get(5, 5), None, "self-comparison is never cached");
    }

    #[test]
    fn invalidation_hides_old_entries_and_stale_inserts_are_dropped() {
        let cache = OrderCache::new();
        let e = cache.epoch();
        cache.insert(e, 1, 2, CmpResult::Less { at: 0 });
        assert!(cache.get(1, 2).is_some());
        cache.invalidate_all();
        assert_eq!(cache.get(1, 2), None, "epoch bump must hide the entry");
        // An insert stamped with the pre-flush epoch must not resurface.
        cache.insert(e, 1, 2, CmpResult::Less { at: 0 });
        assert_eq!(cache.get(1, 2), None);
        // A fresh observation at the new epoch works again.
        let e2 = cache.epoch();
        cache.insert(e2, 1, 2, CmpResult::Greater { at: 0 });
        assert_eq!(cache.get(1, 2), Some(CmpResult::Greater { at: 0 }));
        assert_eq!(cache.stats().invalidations, 1);
    }

    /// The III-D-4 regression in miniature: a cached order goes stale the
    /// moment a flush overwrites one of the vectors, and only the epoch
    /// bump keeps the cache honest.
    #[test]
    fn flush_invalidation_regression() {
        let cache = OrderCache::new();
        let mut a = TsVec::undefined(3);
        let mut b = TsVec::undefined(3);
        a.define(0, 1);
        b.define(0, 2);
        let e = cache.epoch();
        let cmp = ScalarComparator::compare(&a, &b);
        assert_eq!(cmp, CmpResult::Less { at: 0 });
        cache.insert(e, 10, 11, cmp);
        assert_eq!(cache.get(10, 11), Some(CmpResult::Less { at: 0 }));
        // The starvation fix restarts `a` above its blocker: overwrite.
        a.flush(5);
        assert_eq!(ScalarComparator::compare(&a, &b), CmpResult::Greater { at: 0 });
        cache.invalidate_all();
        assert_eq!(cache.get(10, 11), None, "flushed order must not be served");
        let e = cache.epoch();
        cache.insert(e, 10, 11, ScalarComparator::compare(&a, &b));
        assert_eq!(cache.get(10, 11), Some(CmpResult::Greater { at: 0 }));
    }

    /// Random write-once define steps `(tx, column, value)`, derived from
    /// a seed with a splitmix-style generator (the proptest shim has no
    /// flat-map, and this crate deliberately has no `rand` dependency).
    fn defines_from_seed(
        n: usize,
        k: usize,
        mut seed: u64,
        steps: usize,
    ) -> Vec<(usize, usize, i64)> {
        let mut next = move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..steps)
            .map(|_| {
                let r = next();
                (r as usize % n, (r >> 16) as usize % k, ((r >> 32) % 9) as i64 - 4)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite: under random interleaved write-once define
        /// sequences, a consulted-and-filled cache always agrees — result
        /// *and* deciding column — with a fresh `ScalarComparator`
        /// comparison of the live vectors.
        #[test]
        fn cache_always_agrees_with_fresh_compare(
            n in 2usize..6,
            k in 1usize..5,
            seed in any::<u64>(),
            steps in 1usize..40,
        ) {
            let steps = defines_from_seed(n, k, seed, steps);
            let mut vecs: Vec<TsVec> = (0..n).map(|_| TsVec::undefined(k)).collect();
            let cache = OrderCache::new();
            for (tx, col, val) in steps {
                if vecs[tx].get(col).is_none() {
                    vecs[tx].define(col, val);
                }
                for a in 0..n {
                    for b in 0..n {
                        if a == b {
                            continue;
                        }
                        let epoch = cache.epoch();
                        let fresh = ScalarComparator::compare(&vecs[a], &vecs[b]);
                        match cache.get(a as u32, b as u32) {
                            Some(cached) => prop_assert_eq!(
                                cached, fresh,
                                "cache diverged for ({}, {})", a, b
                            ),
                            None => cache.insert(epoch, a as u32, b as u32, fresh),
                        }
                    }
                }
            }
        }
    }
}
