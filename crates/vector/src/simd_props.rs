//! SIMD-equivalence property tests: [`SimdComparator`] must agree with
//! [`ScalarComparator`] on the comparison result *and* the deciding index
//! (and hence the `ops` accounting) for the whole inline range 1..=8, the
//! one-word/multi-word boundary 63/64/65, the two-word boundary 127/128
//! and a wide 200 — in every representation pairing (inline vs
//! forced-spilled), with the divergence position swept across word
//! boundaries and undefined holes anywhere. That property holds for the
//! dispatched entry point *and* for every kernel tier the CPU supports
//! ([`on_tier`]: scalar, SSE2, AVX2, AVX-512), so the tiers dispatch
//! never picks on this host stay bit-identical too. A second property
//! checks flip symmetry on the dispatched entry point.

use proptest::prelude::*;

use crate::compare::{CmpResult, ScalarComparator};
use crate::simd::{on_tier, SimdComparator};
use crate::tsvec::TsVec;

/// Every k under test: the full small range, plus the 64-element
/// word boundaries and a wide multi-word case.
const KS: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, 127, 128, 200];

const MAX_K: usize = 200;

/// Element pool: small values collide often (deep equal prefixes), `None`
/// punches undefined holes anywhere, including inside every bitmap word.
fn arb_elems() -> impl Strategy<Value = Vec<Option<i64>>> {
    proptest::collection::vec(
        (0..5usize, -3i64..4).prop_map(|(sel, v)| if sel == 0 { None } else { Some(v) }),
        MAX_K..MAX_K + 1,
    )
}

fn spilled_twin(elems: &[Option<i64>]) -> TsVec {
    let mut s = TsVec::undefined_spilled(elems.len());
    for (m, e) in elems.iter().enumerate() {
        if let Some(x) = *e {
            s.define(m, x);
        }
    }
    s
}

/// Builds `b` as `a` with one controlled divergence at `p`, so the
/// deciding position lands exactly where the sweep points it (random
/// pairs almost always decide at element 0).
fn diverge(a: &[Option<i64>], p: usize, class: usize) -> Vec<Option<i64>> {
    let mut b = a.to_vec();
    // Equal-defined prefix up to p: every comparison before p continues.
    b[p] = match class {
        0 => b[p],     // no divergence at p — decided later (or Identical)
        1 => Some(9),  // Greater/RightUndefined at p
        2 => Some(-9), // Less/LeftUndefined at p
        _ => None,     // EqualUndefined/LeftUndefined at p
    };
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Result, deciding index and ops of the SIMD comparator equal the
    /// scalar comparator's for every k, divergence position and
    /// representation pairing.
    #[test]
    fn simd_single_matches_scalar(seed in arb_elems(), pfrac in 0..MAX_K, class in 0..4usize) {
        for k in KS {
            let ea = &seed[..k];
            let eb = diverge(ea, pfrac % k, class);
            let a = TsVec::from_elems(ea);
            let b = TsVec::from_elems(&eb);
            let (sa, sb) = (spilled_twin(ea), spilled_twin(&eb));
            for (x, y) in [(&a, &b), (&a, &sb), (&sa, &b), (&sa, &sb), (&b, &a), (&a, &a)] {
                let want = ScalarComparator::compare_counted(x, y);
                prop_assert_eq!(SimdComparator::compare_counted(x, y), want, "k = {}", k);
                for tier in on_tier::supported() {
                    let got = on_tier::compare_counted(tier, x, y);
                    prop_assert_eq!(got, want, "{:?}, k = {}", tier, k);
                }
            }
        }
    }

    /// Flip symmetry survives the SIMD path: compare(a, b) is the flip of
    /// compare(b, a), and Identical only for logically equal vectors.
    #[test]
    fn simd_flip_symmetry(seed in arb_elems(), pfrac in 0..MAX_K, class in 0..4usize) {
        for k in KS {
            let ea = &seed[..k];
            let eb = diverge(ea, pfrac % k, class);
            let a = TsVec::from_elems(ea);
            let b = TsVec::from_elems(&eb);
            let r = SimdComparator::compare(&a, &b);
            prop_assert_eq!(r.flip(), SimdComparator::compare(&b, &a));
            if r == CmpResult::Identical {
                prop_assert_eq!(&a, &b);
            }
        }
    }
}
