//! The `ucount`/`lcount` counters for the k-th column (Algorithm 1).
//!
//! The last element of every vector must be *distinct* across transactions:
//! once all k elements of two vectors are defined, no further dependency
//! between the two transactions could otherwise be encoded, so the vectors
//! must already be totally ordered. `ucount` hands out fresh values above
//! everything assigned so far, `lcount` below.

use std::sync::atomic::AtomicI64;
use std::sync::atomic::Ordering::Relaxed;

/// Counter pair for one timestamp table's k-th column.
///
/// Initial state is `lcount = 0`, `ucount = 1` (Algorithm 1, line 4): the
/// origin vector `TS(0) = ⟨0, *, …⟩` occupies 0 in the first column, and the
/// invariant `lcount < ucount` keeps lower and upper assignments disjoint.
///
/// Draws take `&self`: the two counters are atomics, so the sequential
/// table and the concurrent scheduler share one type. Plain draws are
/// single `fetch_add`s; bounded draws
/// ([`KthCounters::fresh_upper_above`] / [`KthCounters::fresh_lower_below`])
/// ratchet the counter past the bound in a compare-exchange loop.
/// Interleaved draws hand out *distinct* values, which is the invariant the
/// protocol needs; the numeric order of values drawn by different threads
/// follows the interleaving, not program order.
#[derive(Debug)]
pub struct KthCounters {
    ucount: AtomicI64,
    lcount: AtomicI64,
    /// Multiplier applied to raw counter values before handing them out;
    /// DMT(k) uses `stride > 1` to reserve low bits for the site id
    /// (Section V-B-1).
    stride: i64,
    /// Added to scaled values (the site id in DMT(k)).
    tag: i64,
}

impl Default for KthCounters {
    fn default() -> Self {
        KthCounters::new()
    }
}

impl Clone for KthCounters {
    /// Counters continuing from this one's current state.
    fn clone(&self) -> Self {
        KthCounters {
            ucount: AtomicI64::new(self.ucount()),
            lcount: AtomicI64::new(self.lcount()),
            stride: self.stride,
            tag: self.tag,
        }
    }
}

impl KthCounters {
    /// Fresh counters: `lcount = 0`, `ucount = 1`.
    pub fn new() -> Self {
        Self::site_tagged(1, 0)
    }

    /// Counters whose values are `raw * stride + tag` — the DMT(k) site
    /// tagging scheme: `stride` = number of sites (rounded up to a power of
    /// two by the caller if desired), `tag` = this site's id.
    ///
    /// # Panics
    /// Panics unless `0 ≤ tag < stride`.
    pub fn site_tagged(stride: i64, tag: i64) -> Self {
        assert!(stride >= 1 && (0..stride).contains(&tag));
        KthCounters { ucount: AtomicI64::new(1), lcount: AtomicI64::new(0), stride, tag }
    }

    #[inline]
    fn scale(&self, raw: i64) -> i64 {
        raw * self.stride + self.tag
    }

    /// The `=` case at the k-th column: both elements undefined. Returns
    /// `(for_j, for_i)` with `for_j < for_i`, consuming two fresh upper
    /// values (`TS(j,k) := ucount; TS(i,k) := ucount + 1; ucount += 2`).
    pub fn fresh_pair(&self) -> (i64, i64) {
        let u = self.ucount.fetch_add(2, Relaxed);
        (self.scale(u), self.scale(u + 1))
    }

    /// The `?` case with the *later* vector's k-th element undefined:
    /// `TS(i,k) := ucount; ucount += 1`.
    pub fn fresh_upper(&self) -> i64 {
        self.scale(self.ucount.fetch_add(1, Relaxed))
    }

    /// The `?` case with the *earlier* vector's k-th element undefined:
    /// `TS(j,k) := lcount; lcount -= 1`.
    pub fn fresh_lower(&self) -> i64 {
        self.scale(self.lcount.fetch_sub(1, Relaxed))
    }

    /// Like [`KthCounters::fresh_upper`], but guaranteed to return a value
    /// strictly above `bound`. A centralized table's `ucount` is monotone,
    /// so the bound is automatic there; a DMT(k) site whose local clock
    /// lags must jump its counter forward to keep the `Set` postcondition
    /// `TS(j,k) < TS(i,k)` (Section V-B-1).
    pub fn fresh_upper_above(&self, bound: i64) -> i64 {
        let need = (bound - self.tag).div_euclid(self.stride) + 1;
        let mut cur = self.ucount.load(Relaxed);
        loop {
            let raw = cur.max(need);
            match self.ucount.compare_exchange_weak(cur, raw + 1, Relaxed, Relaxed) {
                Ok(_) => return self.scale(raw),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Like [`KthCounters::fresh_lower`], but guaranteed to return a value
    /// strictly below `bound`.
    pub fn fresh_lower_below(&self, bound: i64) -> i64 {
        let need = (bound - self.tag - 1).div_euclid(self.stride);
        let mut cur = self.lcount.load(Relaxed);
        loop {
            let raw = cur.min(need);
            match self.lcount.compare_exchange_weak(cur, raw - 1, Relaxed, Relaxed) {
                Ok(_) => return self.scale(raw),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current `ucount` (next upper raw value).
    pub fn ucount(&self) -> i64 {
        self.ucount.load(Relaxed)
    }

    /// Current `lcount` (next lower raw value).
    pub fn lcount(&self) -> i64 {
        self.lcount.load(Relaxed)
    }

    /// Synchronizes this site's counters with a global bound, as the paper
    /// suggests doing periodically under unbalanced load (Section V-B-1):
    /// `ucount` jumps up to at least `global_u`, `lcount` down to at most
    /// `global_l`.
    pub fn synchronize(&self, global_u: i64, global_l: i64) {
        self.ucount.fetch_max(global_u, Relaxed);
        self.lcount.fetch_min(global_l, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_matches_algorithm1() {
        let c = KthCounters::new();
        assert_eq!(c.ucount(), 1);
        assert_eq!(c.lcount(), 0);
    }

    #[test]
    fn fresh_values_are_distinct_and_ordered() {
        let c = KthCounters::new();
        let (a, b) = c.fresh_pair();
        assert!(a < b);
        let up = c.fresh_upper();
        assert!(b < up);
        let lo = c.fresh_lower();
        assert!(lo < a);
        let lo2 = c.fresh_lower();
        assert!(lo2 < lo);
        // All five values distinct.
        let mut all = vec![a, b, up, lo, lo2];
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn site_tagging_keeps_sites_disjoint() {
        let s0 = KthCounters::site_tagged(4, 0);
        let s3 = KthCounters::site_tagged(4, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(s0.fresh_upper()));
            assert!(seen.insert(s3.fresh_upper()));
            assert!(seen.insert(s0.fresh_lower()));
            assert!(seen.insert(s3.fresh_lower()));
        }
    }

    #[test]
    fn site_tag_is_low_order() {
        let s2 = KthCounters::site_tagged(8, 2);
        let v = s2.fresh_upper();
        assert_eq!(v % 8, 2, "site id occupies the low-order bits");
    }

    #[test]
    fn synchronize_only_widens() {
        let c = KthCounters::new();
        c.synchronize(10, -5);
        assert_eq!(c.ucount(), 10);
        assert_eq!(c.lcount(), -5);
        c.synchronize(3, -1); // stale bounds are ignored
        assert_eq!(c.ucount(), 10);
        assert_eq!(c.lcount(), -5);
    }

    #[test]
    #[should_panic]
    fn bad_site_tag_rejected() {
        let _ = KthCounters::site_tagged(4, 4);
    }

    #[test]
    fn bounded_draws_respect_bounds() {
        for (stride, tag) in [(1, 0), (4, 0), (4, 3), (7, 2)] {
            let c = KthCounters::site_tagged(stride, tag);
            for bound in [-100i64, -1, 0, 1, 5, 63, 1000] {
                let up = c.fresh_upper_above(bound);
                assert!(up > bound, "stride {stride} tag {tag} bound {bound}: {up}");
                assert_eq!(up.rem_euclid(stride), tag);
                let lo = c.fresh_lower_below(bound);
                assert!(lo < bound, "stride {stride} tag {tag} bound {bound}: {lo}");
                assert_eq!(lo.rem_euclid(stride), tag);
            }
        }
    }

    #[test]
    fn bounded_draw_matches_plain_when_clock_ahead() {
        let a = KthCounters::new();
        let b = KthCounters::new();
        let _ = a.fresh_upper();
        let _ = b.fresh_upper();
        // ucount already above the bound: bounded draw = plain draw.
        assert_eq!(a.fresh_upper_above(0), b.fresh_upper());
    }

    #[test]
    fn a_clone_continues_from_the_current_state() {
        let c = KthCounters::site_tagged(4, 1);
        let _ = c.fresh_pair();
        let _ = c.fresh_lower();
        let d = c.clone();
        assert_eq!((d.ucount(), d.lcount()), (c.ucount(), c.lcount()));
        assert_eq!(d.fresh_upper(), c.fresh_upper(), "same stride and tag");
    }

    #[test]
    fn atomic_concurrent_draws_are_distinct() {
        use std::collections::HashSet;
        let c = KthCounters::new();
        let per_thread = 2_000;
        let all: Vec<i64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let c = &c;
                    s.spawn(move || {
                        let mut mine = Vec::with_capacity(per_thread * 3);
                        for i in 0..per_thread {
                            match (t + i) % 4 {
                                0 => {
                                    let (a, b) = c.fresh_pair();
                                    assert!(a < b);
                                    mine.extend([a, b]);
                                }
                                1 => mine.push(c.fresh_upper()),
                                2 => mine.push(c.fresh_lower()),
                                _ => {
                                    let v = c.fresh_upper_above(i as i64);
                                    assert!(v > i as i64);
                                    mine.push(v);
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let unique: HashSet<i64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "concurrent draws must never collide");
    }
}
