//! Definition 6 comparison: the scalar O(k) scan and the simulated
//! vector-processor comparison of Figs. 6–7 (O(log k) parallel steps).

use crate::tsvec::TsVec;

/// Outcome of comparing `a` against `b` per Definition 6.
///
/// `at` is the 0-based index `m − 1` of the first position where the
/// elements are not both-defined-and-equal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpResult {
    /// Both elements at `at` are defined and `a[at] < b[at]`: `TS(a) < TS(b)`.
    Less {
        /// Deciding position.
        at: usize,
    },
    /// Both elements at `at` are defined and `a[at] > b[at]`: `TS(a) > TS(b)`.
    Greater {
        /// Deciding position.
        at: usize,
    },
    /// Both elements at `at` are undefined: `TS(a) = TS(b)` (the `=` case of
    /// procedure `Set` — a new dependency may be encoded at `at`).
    EqualUndefined {
        /// First position where both are undefined.
        at: usize,
    },
    /// `a[at]` is undefined, `b[at]` is defined (the `?` case; `a` is the
    /// vector with room to encode below/above).
    LeftUndefined {
        /// Deciding position.
        at: usize,
    },
    /// `b[at]` is undefined, `a[at]` is defined (the `?` case).
    RightUndefined {
        /// Deciding position.
        at: usize,
    },
    /// Every element is defined and pairwise equal. The protocols keep the
    /// k-th column globally distinct, so this never arises between distinct
    /// transactions; it does arise when comparing a vector with itself.
    Identical,
}

impl CmpResult {
    /// Swaps the roles of the two operands.
    pub fn flip(self) -> CmpResult {
        match self {
            CmpResult::Less { at } => CmpResult::Greater { at },
            CmpResult::Greater { at } => CmpResult::Less { at },
            CmpResult::LeftUndefined { at } => CmpResult::RightUndefined { at },
            CmpResult::RightUndefined { at } => CmpResult::LeftUndefined { at },
            other => other,
        }
    }

    /// The deciding position; `None` for [`CmpResult::Identical`], the one
    /// order no position decides.
    pub fn at(self) -> Option<usize> {
        match self {
            CmpResult::Less { at }
            | CmpResult::Greater { at }
            | CmpResult::EqualUndefined { at }
            | CmpResult::LeftUndefined { at }
            | CmpResult::RightUndefined { at } => Some(at),
            CmpResult::Identical => None,
        }
    }

    /// `Some(true)` if strictly less, `Some(false)` if strictly greater,
    /// `None` when the order is not (yet) determined.
    pub fn strict_less(self) -> Option<bool> {
        match self {
            CmpResult::Less { .. } => Some(true),
            CmpResult::Greater { .. } => Some(false),
            _ => None,
        }
    }
}

/// The sequential comparator: for `k ≤ 64` a one-word path that locates the
/// first not-both-defined position with a single AND + `trailing_zeros` on
/// the definedness words; for larger `k`, O(1) fast paths off the cached
/// first-defined index, then a chunked scan over 64-element bitmap words.
///
/// The reported `ops` count keeps the semantics of the naive left-to-right
/// scan — `deciding index + 1`, or `k` for `Identical` — so the cost
/// accounting of Figs. 6–7 is unchanged; only the constant factor drops.
pub struct ScalarComparator;

impl ScalarComparator {
    /// Definition 6 comparison.
    pub fn compare(a: &TsVec, b: &TsVec) -> CmpResult {
        Self::compare_counted(a, b).0
    }

    /// Comparison plus the number of element comparisons performed — the
    /// sequential cost that Figs. 6–7 set out to beat.
    pub fn compare_counted(a: &TsVec, b: &TsVec) -> (CmpResult, usize) {
        assert_eq!(a.k(), b.k(), "vectors of different dimension are never compared");
        let k = a.k();
        let (av, bv) = (a.values_raw(), b.values_raw());

        // One-word fast path (k ≤ 64, i.e. every inline vector and most
        // spilled ones): the entire definedness picture is a single pair of
        // words, so the first not-both-defined position falls out of one
        // AND + trailing_zeros with no per-element branching, and a `?`/`=`
        // outcome at position 0 never touches the value arrays at all. The
        // `ops` count keeps the naive-scan semantics (deciding index + 1).
        if k <= 64 {
            let (da, db) = (a.defined_word0(), b.defined_word0());
            let mask = if k == 64 { !0u64 } else { (1u64 << k) - 1 };
            // First position where not both are defined (k if none).
            let cand = (((da & db) ^ mask).trailing_zeros() as usize).min(k);
            // First value difference inside the both-defined run [0, cand).
            let (run_a, run_b) = (&av[..cand], &bv[..cand]);
            for (m, (&x, &y)) in run_a.iter().zip(run_b).enumerate() {
                if x != y {
                    let r = if x < y {
                        CmpResult::Less { at: m }
                    } else {
                        CmpResult::Greater { at: m }
                    };
                    return (r, m + 1);
                }
            }
            if cand == k {
                return (CmpResult::Identical, k);
            }
            let r = match (da >> cand & 1 == 1, db >> cand & 1 == 1) {
                (false, false) => CmpResult::EqualUndefined { at: cand },
                (false, true) => CmpResult::LeftUndefined { at: cand },
                (true, false) => CmpResult::RightUndefined { at: cand },
                (true, true) => unreachable!("bit {cand} counted as not-both-defined"),
            };
            return (r, cand + 1);
        }

        // Multi-word path (k > 64, always spilled). Fast path: unless both
        // vectors define element 0, the comparison is decided there.
        let fa = a.first_defined().unwrap_or(k);
        let fb = b.first_defined().unwrap_or(k);
        match (fa == 0, fb == 0) {
            (false, false) => return (CmpResult::EqualUndefined { at: 0 }, 1),
            (false, true) => return (CmpResult::LeftUndefined { at: 0 }, 1),
            (true, false) => return (CmpResult::RightUndefined { at: 0 }, 1),
            (true, true) => {}
        }
        // Both defined at 0 — the protocol's common case (every vector the
        // scheduler compares is ordered against T₀ first).
        if av[0] != bv[0] {
            return if av[0] < bv[0] {
                (CmpResult::Less { at: 0 }, 1)
            } else {
                (CmpResult::Greater { at: 0 }, 1)
            };
        }

        // Chunked scan: per 64-element word, the definedness bitmaps locate
        // the first position that is not both-defined; the both-defined run
        // before it is compared as plain i64 slices (memcmp when equal).
        let (da, db) = (a.defined_words(), b.defined_words());
        for w in 0..da.len() {
            let s = w * 64;
            let len = 64.min(k - s);
            let mask = if len == 64 { !0u64 } else { (1u64 << len) - 1 };
            let not_both = (da[w] & db[w]) ^ mask;
            let cand = (not_both.trailing_zeros() as usize).min(len);
            let (run_a, run_b) = (&av[s..s + cand], &bv[s..s + cand]);
            if run_a != run_b {
                let p = run_a.iter().zip(run_b).position(|(x, y)| x != y).unwrap();
                let m = s + p;
                return if av[m] < bv[m] {
                    (CmpResult::Less { at: m }, m + 1)
                } else {
                    (CmpResult::Greater { at: m }, m + 1)
                };
            }
            if cand < len {
                let m = s + cand;
                let bit = |word: u64| word >> cand & 1 == 1;
                let r = match (bit(da[w]), bit(db[w])) {
                    (false, false) => CmpResult::EqualUndefined { at: m },
                    (false, true) => CmpResult::LeftUndefined { at: m },
                    (true, false) => CmpResult::RightUndefined { at: m },
                    (true, true) => unreachable!("bit {m} counted as not-both-defined"),
                };
                return (r, m + 1);
            }
        }
        (CmpResult::Identical, k)
    }
}

/// Cost of one simulated parallel comparison (Figs. 6–7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParallelCost {
    /// Parallel time steps: 4 constant phases + ⌈log₂ k⌉ for the prefix-OR
    /// tree of phase 3.
    pub steps: usize,
    /// Processors used (one per element, as in Fig. 6).
    pub processors: usize,
}

/// The five-phase vector-processor comparison of Fig. 6, with explicit
/// parallel-step accounting.
///
/// Phases:
/// 1. load both vectors into processor rows `a`, `b`;
/// 2. difference row `c`: `c_m = 0` iff `a_m` and `b_m` are both defined and
///    equal, else `1` (the paper ignores undefined elements in the figure
///    and notes the refinement does not change the complexity — this is
///    that refinement);
/// 3. prefix-OR row `d` via a binary tree (Fig. 7), ⌈log₂ k⌉ steps;
/// 4. the unique processor with `d_m = 1 ∧ d_{m−1} = 0` identifies the first
///    difference;
/// 5. the order is read off `a_m` vs `b_m` at that position.
///
/// The decision itself comes from [`ScalarComparator`] (the paper's claim
/// is about parallel *steps*, not a host's wall clock), and the phases are
/// *costed* arithmetically rather than simulated with heap-allocated
/// processor rows: phase 3's Hillis–Steele doubling over k processors
/// performs exactly ⌈log₂ k⌉ rounds (`shift` doubling from 1 until it
/// covers `k`), and phases 1/2/4/5 are one step each regardless of the
/// outcome. The reported [`ParallelCost`] is unchanged for every input —
/// exp09/exp10 depend on that.
pub struct TreeComparator;

impl TreeComparator {
    /// Definition 6 comparison via the parallel algorithm.
    pub fn compare(a: &TsVec, b: &TsVec) -> CmpResult {
        Self::compare_counted(a, b).0
    }

    /// Comparison plus the simulated parallel cost.
    pub fn compare_counted(a: &TsVec, b: &TsVec) -> (CmpResult, ParallelCost) {
        assert_eq!(a.k(), b.k(), "vectors of different dimension are never compared");
        let k = a.k();
        let result = ScalarComparator::compare(a, b);
        // ⌈log₂ k⌉ doubling rounds of the Fig. 7 tree (0 for k = 1).
        let tree_steps = k.next_power_of_two().trailing_zeros() as usize;
        (result, ParallelCost { steps: 4 + tree_steps, processors: k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(elems: &[Option<i64>]) -> TsVec {
        TsVec::from_elems(elems)
    }

    #[test]
    fn paper_figure6_example() {
        // TS(1) = <1,3,2,2>, TS(2) = <1,3,5,2>: first difference at the 3rd
        // element, TS(1) < TS(2).
        let a = v(&[Some(1), Some(3), Some(2), Some(2)]);
        let b = v(&[Some(1), Some(3), Some(5), Some(2)]);
        assert_eq!(ScalarComparator::compare(&a, &b), CmpResult::Less { at: 2 });
        let (r, cost) = TreeComparator::compare_counted(&a, &b);
        assert_eq!(r, CmpResult::Less { at: 2 });
        assert_eq!(cost.processors, 4);
        assert_eq!(cost.steps, 4 + 2, "k = 4 gives log2(4) = 2 tree steps");
    }

    #[test]
    fn definition6_cases() {
        // <2,1,*> vs <2,*,*> — the second example in Section I-A.
        let ti = v(&[Some(2), Some(1), None]);
        let tj = v(&[Some(2), None, None]);
        assert_eq!(ScalarComparator::compare(&ti, &tj), CmpResult::RightUndefined { at: 1 });
        assert_eq!(ScalarComparator::compare(&tj, &ti), CmpResult::LeftUndefined { at: 1 });

        let t2 = v(&[Some(2), None]);
        let t3 = v(&[Some(2), None]);
        assert_eq!(ScalarComparator::compare(&t2, &t3), CmpResult::EqualUndefined { at: 1 });

        let lo = v(&[Some(1), None]);
        let hi = v(&[Some(2), None]);
        assert_eq!(ScalarComparator::compare(&lo, &hi), CmpResult::Less { at: 0 });
        assert_eq!(ScalarComparator::compare(&hi, &lo), CmpResult::Greater { at: 0 });
    }

    #[test]
    fn identical_only_for_fully_equal_defined() {
        let a = v(&[Some(1), Some(2)]);
        assert_eq!(ScalarComparator::compare(&a, &a.clone()), CmpResult::Identical);
    }

    #[test]
    fn scalar_cost_is_prefix_length() {
        let a = v(&[Some(1), Some(2), Some(9), Some(9)]);
        let b = v(&[Some(1), Some(2), Some(3), None]);
        let (r, ops) = ScalarComparator::compare_counted(&a, &b);
        assert_eq!(r, CmpResult::Greater { at: 2 });
        assert_eq!(ops, 3);
    }

    #[test]
    fn tree_steps_grow_logarithmically() {
        for (k, expect_tree) in [(1, 0), (2, 1), (4, 2), (8, 3), (1024, 10)] {
            let a = TsVec::undefined(k);
            let b = TsVec::undefined(k);
            let (_, cost) = TreeComparator::compare_counted(&a, &b);
            assert_eq!(cost.steps, 4 + expect_tree, "k = {k}");
        }
    }

    #[test]
    fn flip_is_involutive_and_correct() {
        let a = v(&[Some(1), None]);
        let b = v(&[Some(2), None]);
        let r = ScalarComparator::compare(&a, &b);
        assert_eq!(r.flip(), ScalarComparator::compare(&b, &a));
        assert_eq!(r.flip().flip(), r);
        assert_eq!(r.strict_less(), Some(true));
    }

    #[test]
    #[should_panic(expected = "different dimension")]
    fn dimension_mismatch_panics() {
        let _ = ScalarComparator::compare(&TsVec::undefined(2), &TsVec::undefined(3));
    }

    /// The naive per-element scan the chunked comparator replaced; kept as
    /// the test oracle for both the result and the `ops` accounting.
    fn naive_counted(a: &TsVec, b: &TsVec) -> (CmpResult, usize) {
        let mut ops = 0;
        for m in 0..a.k() {
            ops += 1;
            match (a.get(m), b.get(m)) {
                (Some(x), Some(y)) if x == y => continue,
                (Some(x), Some(y)) if x < y => return (CmpResult::Less { at: m }, ops),
                (Some(_), Some(_)) => return (CmpResult::Greater { at: m }, ops),
                (None, None) => return (CmpResult::EqualUndefined { at: m }, ops),
                (None, Some(_)) => return (CmpResult::LeftUndefined { at: m }, ops),
                (Some(_), None) => return (CmpResult::RightUndefined { at: m }, ops),
            }
        }
        (CmpResult::Identical, ops)
    }

    #[test]
    fn chunked_scan_matches_naive_around_word_boundaries() {
        // Equal defined prefix of length `p`, then every way the pair can
        // diverge, with p swept across the 64-element word boundaries.
        for p in [0usize, 1, 5, 62, 63, 64, 65, 126, 127, 128, 129, 190] {
            let k = 192;
            let base: Vec<Option<i64>> = (0..k).map(|m| Some(m as i64)).collect();
            let mut prefix = vec![None; k];
            prefix[..p].copy_from_slice(&base[..p]);
            for (da, db) in [
                (Some(7), Some(9)), // Less / Greater
                (Some(9), Some(7)),
                (None, None),    // EqualUndefined
                (None, Some(1)), // LeftUndefined
                (Some(1), None), // RightUndefined
            ] {
                let mut ea = prefix.clone();
                let mut eb = prefix.clone();
                if p < k {
                    ea[p] = da;
                    eb[p] = db;
                }
                let a = TsVec::from_elems(&ea);
                let b = TsVec::from_elems(&eb);
                assert_eq!(
                    ScalarComparator::compare_counted(&a, &b),
                    naive_counted(&a, &b),
                    "p = {p}, divergence {da:?}/{db:?}"
                );
            }
            // Fully identical defined prefix with undefined tail.
            let a = TsVec::from_elems(&prefix);
            let b = TsVec::from_elems(&prefix);
            assert_eq!(ScalarComparator::compare_counted(&a, &b), naive_counted(&a, &b));
        }
        // Fully defined identical vectors.
        let full = TsVec::from_elems(&(0..192).map(|m| Some(m as i64)).collect::<Vec<_>>());
        assert_eq!(
            ScalarComparator::compare_counted(&full, &full.clone()),
            (CmpResult::Identical, 192)
        );
    }

    #[test]
    fn one_word_path_matches_naive_for_small_k() {
        // Deterministic sweep of the k ≤ 64 path (inline and spilled) with
        // every divergence class at every position; the proptests in
        // `tsvec_props` cover the randomized version.
        for k in [1usize, 2, 5, 6, 7, 8, 63, 64] {
            for p in 0..k {
                for (da, db) in [
                    (Some(7), Some(9)),
                    (Some(9), Some(7)),
                    (None, None),
                    (None, Some(1)),
                    (Some(1), None),
                ] {
                    let mut ea: Vec<Option<i64>> = (0..k).map(|m| Some(m as i64)).collect();
                    let mut eb = ea.clone();
                    ea[p] = da;
                    eb[p] = db;
                    for m in p + 1..k {
                        ea[m] = None;
                        eb[m] = None;
                    }
                    let a = TsVec::from_elems(&ea);
                    let b = TsVec::from_elems(&eb);
                    let expect = naive_counted(&a, &b);
                    assert_eq!(ScalarComparator::compare_counted(&a, &b), expect, "k={k} p={p}");
                    // Forced-spilled twins must agree with the inline result.
                    let (sa, sb) = (spilled_twin(&a), spilled_twin(&b));
                    assert_eq!(
                        ScalarComparator::compare_counted(&sa, &sb),
                        expect,
                        "spilled k={k} p={p}"
                    );
                }
            }
            let full = TsVec::from_elems(&(0..k).map(|m| Some(m as i64)).collect::<Vec<_>>());
            assert_eq!(
                ScalarComparator::compare_counted(&full, &full.clone()),
                (CmpResult::Identical, k)
            );
        }
    }

    fn spilled_twin(v: &TsVec) -> TsVec {
        let mut s = TsVec::undefined_spilled(v.k());
        for m in 0..v.k() {
            if let Some(x) = v.get(m) {
                s.define(m, x);
            }
        }
        s
    }

    #[test]
    fn fast_path_decides_element_zero_in_one_op() {
        // Both defined at 0 with distinct values.
        let a = TsVec::from_elems(&[Some(1), Some(8), None]);
        let b = TsVec::from_elems(&[Some(2), None, Some(3)]);
        assert_eq!(ScalarComparator::compare_counted(&a, &b), (CmpResult::Less { at: 0 }, 1));
        // One side undefined at 0.
        let u = TsVec::from_elems(&[None, Some(8), None]);
        assert_eq!(
            ScalarComparator::compare_counted(&u, &b),
            (CmpResult::LeftUndefined { at: 0 }, 1)
        );
        assert_eq!(
            ScalarComparator::compare_counted(&b, &u),
            (CmpResult::RightUndefined { at: 0 }, 1)
        );
        // Both undefined at 0.
        let v = TsVec::from_elems(&[None, None, Some(3)]);
        assert_eq!(
            ScalarComparator::compare_counted(&u, &v),
            (CmpResult::EqualUndefined { at: 0 }, 1)
        );
    }
}
