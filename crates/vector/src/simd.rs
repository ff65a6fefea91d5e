//! SIMD Definition-6 comparison (ROADMAP item 5(b)): the real data-parallel
//! counterpart of the Figs. 6–7 tree comparator that [`TreeComparator`]
//! only *costs*.
//!
//! [`SimdComparator::compare`] is a single Definition 6 comparison for
//! arbitrary `k`. Per 64-element definedness word the first
//! not-both-defined position falls out of one AND + `trailing_zeros`
//! (exactly as the scalar one-word fast path), and the both-defined run
//! before it is scanned for the first value difference eight `i64` lanes
//! per instruction (AVX-512F), four (AVX2) or two (SSE2), instead of the
//! scalar element-at-a-time loop.
//!
//! Dispatch is by runtime feature detection (`is_x86_feature_detected!`),
//! cached in an atomic; there is no nightly portable-SIMD dependency. On
//! non-x86_64 targets and under Miri (which does not model the `std::arch`
//! intrinsics) every path falls back to a scalar kernel that is
//! bit-identical by construction — the SIMD kernels only accelerate the
//! "first differing lane" search, they never change which position
//! decides. The tier is what the CPU reports; the unit and property tests
//! drive every tier the CPU supports, not only the one dispatch picks.
//!
//! The engine does not come through here: at k = 3 the one-word scalar
//! [`TsVec::compare`] (6.9 ns) beats this dispatch (11.5 ns), so every
//! engine compare, the MV snapshot chain walk included, is scalar. This
//! comparator is for wide k (exp06, `bench_compare`: Figs. 6–7).
//!
//! The reported `ops` count keeps the naive-scan semantics of
//! [`ScalarComparator`] — deciding index + 1, or `k` for `Identical` — so
//! the cost accounting of Figs. 6–7 (exp09/exp10) is unchanged; only the
//! wall-clock constant drops.
//!
//! [`TreeComparator`]: crate::compare::TreeComparator
//! [`ScalarComparator`]: crate::compare::ScalarComparator

use crate::compare::CmpResult;
use crate::tsvec::TsVec;

/// Ops with the naive left-to-right scan semantics (`at + 1`, or `k` for
/// `Identical`) — derived from the result, hence identical to
/// [`ScalarComparator::compare_counted`]'s accounting by construction.
///
/// [`ScalarComparator::compare_counted`]: crate::compare::ScalarComparator::compare_counted
#[inline]
fn scan_ops(r: CmpResult, k: usize) -> usize {
    match r {
        CmpResult::Identical => k,
        CmpResult::Less { at }
        | CmpResult::Greater { at }
        | CmpResult::EqualUndefined { at }
        | CmpResult::LeftUndefined { at }
        | CmpResult::RightUndefined { at } => at + 1,
    }
}

// ---------------------------------------------------------------------------
// Kernel tiers.
//
// The only data-parallel primitive the comparison needs is "first differing
// i64 lane of two equal-length runs". Everything else is word arithmetic on
// the definedness bitmaps.
// ---------------------------------------------------------------------------

/// Resolved kernel tier, cached after the first query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdTier {
    /// Scalar fallback: non-x86_64 or Miri.
    Scalar,
    /// SSE2 (baseline on every x86_64): two `i64` lanes per instruction.
    Sse2,
    /// AVX2: four `i64` lanes per instruction.
    Avx2,
    /// AVX-512F: eight `i64` lanes per instruction, with the inequality
    /// mask coming straight out of the compare (no movemask/AND-tree).
    Avx512,
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86 {
    use super::SimdTier;
    use std::arch::x86_64::*;
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = undetected, then `SimdTier` + 1.
    static LEVEL: AtomicU8 = AtomicU8::new(0);

    #[inline]
    pub fn tier() -> SimdTier {
        match LEVEL.load(Ordering::Relaxed) {
            0 => detect(),
            1 => SimdTier::Scalar,
            2 => SimdTier::Sse2,
            3 => SimdTier::Avx2,
            _ => SimdTier::Avx512,
        }
    }

    /// The x86 tiers in ascending order, each with whether this CPU runs
    /// it — the one detection ladder (dispatch takes the last supported
    /// entry, the tests walk all of them).
    pub fn ladder() -> [(SimdTier, bool); 3] {
        [
            (SimdTier::Sse2, true),
            (SimdTier::Avx2, std::is_x86_feature_detected!("avx2")),
            (SimdTier::Avx512, std::is_x86_feature_detected!("avx512f")),
        ]
    }

    #[cold]
    fn detect() -> SimdTier {
        let tier = ladder().iter().rev().find(|t| t.1).map_or(SimdTier::Sse2, |t| t.0);
        let code = match tier {
            SimdTier::Scalar => 1,
            SimdTier::Sse2 => 2,
            SimdTier::Avx2 => 3,
            SimdTier::Avx512 => 4,
        };
        LEVEL.store(code, Ordering::Relaxed);
        tier
    }

    /// One 8-lane inequality mask at offset `i`: bit `l` set iff
    /// `a[i + l] != b[i + l]`.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support;
    /// `i + 8 <= a.len().min(b.len())`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn neq8(a: &[i64], b: &[i64], i: usize) -> u8 {
        let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const __m512i);
        let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const __m512i);
        _mm512_cmpneq_epi64_mask(va, vb)
    }

    /// First index where `a[i] != b[i]`, eight lanes per compare. The
    /// compare writes a mask register directly, so the all-equal spine
    /// needs no movemask or AND-tree — the four stride masks OR together
    /// in scalar registers and `trailing_zeros` locates the lane.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support; `a` and `b` must be
    /// the same length.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn first_diff_avx512(a: &[i64], b: &[i64]) -> Option<usize> {
        let n = a.len();
        let mut i = 0;
        // 32 elements (256 bytes per side) per branch: the four stride
        // masks pack into one word whose trailing_zeros is the lane. (A
        // 64-element stride was measured and lost — the longer
        // mask-combine chain serializes without saving loads.)
        while i + 32 <= n {
            let m0 = neq8(a, b, i) as u64;
            let m1 = neq8(a, b, i + 8) as u64;
            let m2 = neq8(a, b, i + 16) as u64;
            let m3 = neq8(a, b, i + 24) as u64;
            let comb = m0 | m1 << 8 | m2 << 16 | m3 << 24;
            if comb != 0 {
                return Some(i + comb.trailing_zeros() as usize);
            }
            i += 32;
        }
        while i + 8 <= n {
            let m = neq8(a, b, i);
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 8;
        }
        while i < n {
            if *a.get_unchecked(i) != *b.get_unchecked(i) {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// One 4-lane equality vector at offset `i`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `i + 4 <= a.len().min(b.len())`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eq4(a: &[i64], b: &[i64], i: usize) -> __m256i {
        let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
        let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
        _mm256_cmpeq_epi64(va, vb)
    }

    /// First index where `a[i] != b[i]`, four lanes per compare.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support; `a` and `b` must be the
    /// same length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn first_diff_avx2(a: &[i64], b: &[i64]) -> Option<usize> {
        let n = a.len();
        let mut i = 0;
        // For long scans, peel to a 32-byte boundary on the `a` side:
        // spilled values are only 16-aligned, so without peeling half the
        // allocations split every 32-byte load across two cache lines for
        // the whole scan. Short scans don't amortize the peel's branches.
        let mis = (a.as_ptr() as usize) & 31;
        if mis != 0 && n >= 128 {
            let peel = (32 - mis) / 8;
            while i < peel {
                if *a.get_unchecked(i) != *b.get_unchecked(i) {
                    return Some(i);
                }
                i += 1;
            }
        }
        let ones = _mm256_set1_epi64x(-1);
        // 32 elements (256 bytes per side) per branch: the eight equality
        // vectors AND together and one VPTEST answers "any lane differs?",
        // so the all-equal spine — the protocol's worst case is an equal
        // prefix of length k−1 — stays load-port bound at one test per 32
        // lanes (k = 64 is exactly two clean iterations); only a
        // mismatching stride re-examines its 4-lane blocks.
        while i + 32 <= n {
            let e0 = eq4(a, b, i);
            let e1 = eq4(a, b, i + 4);
            let e2 = eq4(a, b, i + 8);
            let e3 = eq4(a, b, i + 12);
            let e4 = eq4(a, b, i + 16);
            let e5 = eq4(a, b, i + 20);
            let e6 = eq4(a, b, i + 24);
            let e7 = eq4(a, b, i + 28);
            let lo = _mm256_and_si256(_mm256_and_si256(e0, e1), _mm256_and_si256(e2, e3));
            let hi = _mm256_and_si256(_mm256_and_si256(e4, e5), _mm256_and_si256(e6, e7));
            if _mm256_testc_si256(_mm256_and_si256(lo, hi), ones) == 0 {
                for (q, eq) in [e0, e1, e2, e3, e4, e5, e6, e7].into_iter().enumerate() {
                    let m = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
                    if m != 0xF {
                        return Some(i + 4 * q + (!m & 0xF).trailing_zeros() as usize);
                    }
                }
            }
            i += 32;
        }
        while i + 16 <= n {
            let e0 = eq4(a, b, i);
            let e1 = eq4(a, b, i + 4);
            let e2 = eq4(a, b, i + 8);
            let e3 = eq4(a, b, i + 12);
            let all = _mm256_and_si256(_mm256_and_si256(e0, e1), _mm256_and_si256(e2, e3));
            if _mm256_testc_si256(all, ones) == 0 {
                for (q, eq) in [e0, e1, e2, e3].into_iter().enumerate() {
                    let m = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
                    if m != 0xF {
                        return Some(i + 4 * q + (!m & 0xF).trailing_zeros() as usize);
                    }
                }
            }
            i += 16;
        }
        while i + 4 <= n {
            let va = _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i);
            let eq = _mm256_cmpeq_epi64(va, vb);
            let m = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32;
            if m != 0xF {
                return Some(i + (!m & 0xF).trailing_zeros() as usize);
            }
            i += 4;
        }
        while i < n {
            if *a.get_unchecked(i) != *b.get_unchecked(i) {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// First index where `a[i] != b[i]`, two lanes per compare. SSE2 has no
    /// 64-bit integer compare, so 64-bit lane equality is the AND of the
    /// 32-bit compare with its pair-swapped self.
    ///
    /// # Safety
    /// `a` and `b` must be the same length (SSE2 itself is x86_64
    /// baseline).
    #[target_feature(enable = "sse2")]
    pub unsafe fn first_diff_sse2(a: &[i64], b: &[i64]) -> Option<usize> {
        let n = a.len();
        let mut i = 0;
        while i + 2 <= n {
            let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
            let vb = _mm_loadu_si128(b.as_ptr().add(i) as *const __m128i);
            let eq32 = _mm_cmpeq_epi32(va, vb);
            let eq64 = _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, 0b1011_0001));
            let m = _mm_movemask_pd(_mm_castsi128_pd(eq64)) as u32;
            if m != 0x3 {
                return Some(i + (!m & 0x3).trailing_zeros() as usize);
            }
            i += 2;
        }
        if i < n && *a.get_unchecked(i) != *b.get_unchecked(i) {
            return Some(i);
        }
        None
    }

    /// [`compare_parts_inner`] monomorphized under the AVX-512F feature.
    ///
    /// # Safety
    /// Caller must have verified AVX-512F support.
    ///
    /// [`compare_parts_inner`]: super::compare_parts_inner
    #[target_feature(enable = "avx512f")]
    pub unsafe fn compare_parts_avx512(
        k: usize,
        av: &[i64],
        da: &[u64],
        bv: &[i64],
        db: &[u64],
    ) -> super::CmpResult {
        super::compare_parts_inner(k, av, da, bv, db, |a, b| first_diff_avx512(a, b))
    }

    /// [`compare_parts_inner`] monomorphized under the AVX2 feature, so
    /// [`first_diff_avx2`] inlines into it.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support.
    ///
    /// [`compare_parts_inner`]: super::compare_parts_inner
    #[target_feature(enable = "avx2")]
    pub unsafe fn compare_parts_avx2(
        k: usize,
        av: &[i64],
        da: &[u64],
        bv: &[i64],
        db: &[u64],
    ) -> super::CmpResult {
        super::compare_parts_inner(k, av, da, bv, db, |a, b| first_diff_avx2(a, b))
    }

    /// SSE2 variant of [`compare_parts_avx2`].
    ///
    /// # Safety
    /// SSE2 is x86_64 baseline; callable on any x86_64.
    #[target_feature(enable = "sse2")]
    pub unsafe fn compare_parts_sse2(
        k: usize,
        av: &[i64],
        da: &[u64],
        bv: &[i64],
        db: &[u64],
    ) -> super::CmpResult {
        super::compare_parts_inner(k, av, da, bv, db, |a, b| first_diff_sse2(a, b))
    }
}

/// The resolved kernel tier for this process (scalar everywhere except
/// x86_64 outside Miri). Exposed so benches and CI legs can label runs.
#[inline]
pub fn simd_tier() -> SimdTier {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        x86::tier()
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        SimdTier::Scalar
    }
}

#[inline]
fn first_diff_scalar(a: &[i64], b: &[i64]) -> Option<usize> {
    a.iter().zip(b).position(|(x, y)| x != y)
}

/// Definition 6 on pre-fetched raw parts, on the given tier. The tier
/// match is the only dispatch: each arm enters a `#[target_feature]`
/// monomorphization of [`compare_parts_inner`] with the matching kernel
/// inlined.
#[inline]
fn compare_parts(
    tier: SimdTier,
    k: usize,
    av: &[i64],
    da: &[u64],
    bv: &[i64],
    db: &[u64],
) -> CmpResult {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    match tier {
        SimdTier::Avx512 => return unsafe { x86::compare_parts_avx512(k, av, da, bv, db) },
        SimdTier::Avx2 => return unsafe { x86::compare_parts_avx2(k, av, da, bv, db) },
        SimdTier::Sse2 => return unsafe { x86::compare_parts_sse2(k, av, da, bv, db) },
        SimdTier::Scalar => {}
    }
    let _ = tier;
    compare_parts_inner(k, av, da, bv, db, first_diff_scalar)
}

/// The data-parallel Definition 6 comparator. Result *and* deciding index
/// are bit-identical to [`ScalarComparator`] on every input — the SIMD
/// kernels only accelerate the first-differing-lane search.
///
/// [`ScalarComparator`]: crate::compare::ScalarComparator
pub struct SimdComparator;

/// Definition 6 on pre-fetched raw parts, generic over the
/// first-difference kernel so
/// each [`compare_parts`] tier arm gets a copy with its kernel inlined
/// (the memchr pattern: `#[inline(always)]` inner, `#[target_feature]`
/// wrappers).
#[inline(always)]
fn compare_parts_inner(
    k: usize,
    av: &[i64],
    da: &[u64],
    bv: &[i64],
    db: &[u64],
    first_diff: impl FnOnce(&[i64], &[i64]) -> Option<usize>,
) -> CmpResult {
    // First not-both-defined position, off the bitmap words alone:
    // one AND + XOR + trailing_zeros per 64 elements. Fully-defined
    // complete words — the protocol's common case — are skipped four at
    // a time before the word-exact scan. Bits at or above `k` in the
    // last word are zero on both sides, so the XOR mask bounds the scan
    // without a per-word length clamp.
    let mut undef = k;
    let full = k / 64;
    let mut skip = 0;
    while skip + 4 <= full
        && (da[skip] & db[skip])
            & (da[skip + 1] & db[skip + 1])
            & (da[skip + 2] & db[skip + 2])
            & (da[skip + 3] & db[skip + 3])
            == !0
    {
        skip += 4;
    }
    for (w, (&wa, &wb)) in da.iter().zip(db).enumerate().skip(skip) {
        let s = w * 64;
        let len = 64.min(k - s);
        let mask = if len == 64 { !0u64 } else { (1u64 << len) - 1 };
        let not_both = (wa & wb) ^ mask;
        if not_both != 0 {
            undef = s + not_both.trailing_zeros() as usize;
            break;
        }
    }
    // One unbroken SIMD scan over the whole both-defined prefix (no
    // per-word re-dispatch): the first value difference inside it
    // decides; past it, the bitmap bits at `undef` classify.
    if let Some(p) = first_diff(&av[..undef], &bv[..undef]) {
        // SAFETY: p < undef ≤ k and both value slices hold k elements.
        debug_assert!(p < av.len() && p < bv.len());
        return if unsafe { av.get_unchecked(p) < bv.get_unchecked(p) } {
            CmpResult::Less { at: p }
        } else {
            CmpResult::Greater { at: p }
        };
    }
    if undef < k {
        let bit = |words: &[u64]| words[undef / 64] >> (undef % 64) & 1 == 1;
        return match (bit(da), bit(db)) {
            (false, false) => CmpResult::EqualUndefined { at: undef },
            (false, true) => CmpResult::LeftUndefined { at: undef },
            (true, false) => CmpResult::RightUndefined { at: undef },
            (true, true) => unreachable!("bit {undef} counted as not-both-defined"),
        };
    }
    CmpResult::Identical
}

impl SimdComparator {
    /// Definition 6 comparison.
    pub fn compare(a: &TsVec, b: &TsVec) -> CmpResult {
        assert_eq!(a.k(), b.k(), "vectors of different dimension are never compared");
        compare_parts(
            simd_tier(),
            a.k(),
            a.values_raw(),
            a.defined_words(),
            b.values_raw(),
            b.defined_words(),
        )
    }

    /// Comparison plus the sequential-scan `ops` count (deciding index +
    /// 1, or `k` for `Identical`) — the same accounting as
    /// [`ScalarComparator::compare_counted`], derived from the result.
    ///
    /// [`ScalarComparator::compare_counted`]: crate::compare::ScalarComparator::compare_counted
    pub fn compare_counted(a: &TsVec, b: &TsVec) -> (CmpResult, usize) {
        let r = Self::compare(a, b);
        (r, scan_ops(r, a.k()))
    }
}

/// The kernels of one named tier, for tests: dispatch only ever runs the
/// best tier the CPU reports, so the equivalence tests drive each
/// supported tier through [`compare_parts`] here.
#[cfg(test)]
pub(crate) mod on_tier {
    use super::*;

    /// Every tier this CPU can run, scalar first.
    pub(crate) fn supported() -> Vec<SimdTier> {
        let mut tiers = vec![SimdTier::Scalar];
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        tiers.extend(x86::ladder().iter().filter(|t| t.1).map(|t| t.0));
        tiers
    }

    /// [`SimdComparator::compare_counted`] on `tier`.
    pub(crate) fn compare_counted(tier: SimdTier, a: &TsVec, b: &TsVec) -> (CmpResult, usize) {
        assert!(supported().contains(&tier), "{tier:?} is not supported by this CPU");
        assert_eq!(a.k(), b.k());
        let (av, da, bv, db) =
            (a.values_raw(), a.defined_words(), b.values_raw(), b.defined_words());
        let r = compare_parts(tier, a.k(), av, da, bv, db);
        (r, scan_ops(r, a.k()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::ScalarComparator;

    fn v(elems: &[Option<i64>]) -> TsVec {
        TsVec::from_elems(elems)
    }

    #[test]
    fn single_compare_matches_scalar_on_definition6_cases() {
        let ti = v(&[Some(2), Some(1), None]);
        let tj = v(&[Some(2), None, None]);
        for (a, b) in [(&ti, &tj), (&tj, &ti), (&ti, &ti)] {
            let want = ScalarComparator::compare_counted(a, b);
            assert_eq!(SimdComparator::compare_counted(a, b), want);
            for tier in on_tier::supported() {
                assert_eq!(on_tier::compare_counted(tier, a, b), want, "{tier:?}");
            }
        }
        assert_eq!(SimdComparator::compare(&ti, &tj), CmpResult::RightUndefined { at: 1 });
    }

    #[test]
    fn wide_k_divergence_sweep_matches_scalar() {
        for k in [63usize, 64, 65, 127, 128, 200] {
            for p in [0usize, 1, 62, 63, 64, 65, 126, 127, 128, 199] {
                if p >= k {
                    continue;
                }
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
                    let a = TsVec::from_elems(&ea);
                    let b = TsVec::from_elems(&eb);
                    let want = ScalarComparator::compare_counted(&a, &b);
                    assert_eq!(
                        SimdComparator::compare_counted(&a, &b),
                        want,
                        "k={k} p={p} {da:?}/{db:?}"
                    );
                    for tier in on_tier::supported() {
                        assert_eq!(
                            on_tier::compare_counted(tier, &a, &b),
                            want,
                            "{tier:?} k={k} p={p} {da:?}/{db:?}"
                        );
                    }
                }
            }
            let full = TsVec::from_elems(&(0..k).map(|m| Some(m as i64)).collect::<Vec<_>>());
            assert_eq!(
                SimdComparator::compare_counted(&full, &full.clone()),
                (CmpResult::Identical, k)
            );
            for tier in on_tier::supported() {
                assert_eq!(
                    on_tier::compare_counted(tier, &full, &full.clone()),
                    (CmpResult::Identical, k),
                    "{tier:?}"
                );
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn x86_kernels_agree_with_scalar_helpers() {
        let a: Vec<i64> = (0..67).collect();
        for p in 0..67usize {
            let mut b = a.clone();
            b[p] = -1;
            assert_eq!(unsafe { x86::first_diff_sse2(&a, &b) }, Some(p));
            if std::is_x86_feature_detected!("avx2") {
                assert_eq!(unsafe { x86::first_diff_avx2(&a, &b) }, Some(p));
            }
            if std::is_x86_feature_detected!("avx512f") {
                assert_eq!(unsafe { x86::first_diff_avx512(&a, &b) }, Some(p));
            }
        }
        assert_eq!(unsafe { x86::first_diff_sse2(&a, &a.clone()) }, None);
        if std::is_x86_feature_detected!("avx2") {
            assert_eq!(unsafe { x86::first_diff_avx2(&a, &a.clone()) }, None);
        }
        if std::is_x86_feature_detected!("avx512f") {
            assert_eq!(unsafe { x86::first_diff_avx512(&a, &a.clone()) }, None);
        }
    }

    #[test]
    fn tier_is_detected_and_stable() {
        let t = simd_tier();
        assert_eq!(simd_tier(), t);
        assert_eq!(on_tier::supported().last(), Some(&t), "dispatch picks the best tier");
    }
}
