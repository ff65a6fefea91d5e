//! The timestamp vector `TS(i)` and Definition 6.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::ManuallyDrop;
use std::num::NonZeroU32;

use crate::compare::{CmpResult, ScalarComparator};

/// Largest dimension stored inline: with `INLINE_K` `i64` values, one `u64`
/// definedness word, and the `k`/`first_defined` header, the whole vector is
/// exactly one 64-byte cache line (`6 × 8 + 8 + 4 + 4`). The paper's
/// examples use k = 2–4, so the realistic case is always inline.
pub const INLINE_K: usize = 6;

/// High bit of the `k_tag` header word: set when the vector uses the boxed
/// large-k representation. The dimension occupies the low 31 bits, so
/// `k_tag` is never zero (k ≥ 1) and `Option<TsVec>` gets a niche.
const SPILLED_TAG: u32 = 1 << 31;

/// A k-dimensional timestamp vector. The paper's undefined element `*` is
/// represented by a cleared bit in a definedness bitmap.
///
/// # Layout
///
/// A small-vector union, sized to one 64-byte cache line:
///
/// * for `k ≤ INLINE_K` the values live in an inline `[i64; INLINE_K]` and
///   the definedness bitmap is the single header word `defined0` — no heap
///   pointers at all, so the scheduler's hot compare loop never chases a
///   `Box` and cloning/creating a vector never allocates;
/// * for larger `k` the union holds the boxed layout (dense `i64` values
///   plus `u64` bitmap words). `defined0` then mirrors bitmap word 0, so
///   the one-word comparator fast path reads the same field for both
///   representations.
///
/// The representation is chosen by `k` alone (`k ≤ INLINE_K` ⇒ inline);
/// [`TsVec::undefined_spilled`] forces the boxed form for benchmarks and
/// the representation-agreement proptests. `Eq`/`Hash` are representation
/// agnostic: a forced-spilled vector equals its inline twin.
///
/// In both forms:
///
/// * comparisons (the scheduler's hot loop) test whole 64-element words of
///   the bitmap instead of branching per `Option`;
/// * the index of the first defined element is cached, so Definition 6
///   cases decided at element 0 resolve in O(1) without a scan.
///
/// # Invariants
///
/// Undefined slots hold value `0` and bitmap bits past `k` are clear, so
/// `Eq`/`Hash` agree with element-wise comparison of `Option<i64>`s.
/// `first_defined` is `k` when nothing is defined. For the spilled form,
/// `defined0 == defined[0]` always.
///
/// Elements are write-once: the protocols only ever *define* an undefined
/// element; they never overwrite a defined one ([`TsVec::define`] enforces
/// this). The one exception is the starvation fix of Section III-D-4, which
/// flushes the whole vector ([`TsVec::flush`]).
pub struct TsVec {
    /// Dimension in the low 31 bits; [`SPILLED_TAG`] selects the union arm.
    k_tag: NonZeroU32,
    /// Cached index of the first defined element; `k` when none is.
    first_defined: u32,
    /// Definedness bits for elements 0–63 (the whole bitmap when inline; a
    /// mirror of `defined[0]` when spilled).
    defined0: u64,
    data: Data,
}

/// Storage arm, discriminated by `SPILLED_TAG` in `k_tag`.
union Data {
    inline: [i64; INLINE_K],
    spilled: ManuallyDrop<Spill>,
}

/// One cache line of spilled values. Spilled storage is a boxed slice of
/// these, so the value array always starts on (and is padded to) a
/// 64-byte boundary: the scalar compare's large-k slice equality (libc's
/// vectorized memcmp) then never splits a cache line, which DESIGN.md §5
/// measured against a `Box<[i64]>`'s 16-byte alignment. The padding tail
/// (up to seven values) stays zero and is never part of `values_raw`.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct ValChunk([i64; 8]);

/// The boxed large-k storage (the pre-inline layout, values now
/// line-aligned — see [`ValChunk`]).
#[derive(Clone)]
struct Spill {
    values: Box<[ValChunk]>,
    defined: Box<[u64]>,
}

impl Spill {
    /// The value array, length `k`.
    #[inline]
    fn values(&self, k: usize) -> &[i64] {
        debug_assert!(k <= self.values.len() * 8);
        // SAFETY: `ValChunk` is `repr(C, align(64))` with size 64, so the
        // boxed chunks are `8 × len` contiguous `i64`s and `k` never
        // exceeds that (the constructor rounds up).
        unsafe { std::slice::from_raw_parts(self.values.as_ptr() as *const i64, k) }
    }
}

#[cfg(target_pointer_width = "64")]
const _: () = {
    assert!(std::mem::size_of::<TsVec>() == 64, "TsVec must stay one cache line");
    assert!(std::mem::size_of::<Option<TsVec>>() == 64, "k_tag niche must cover Option");
};

/// Number of `u64` bitmap words covering `k` elements.
#[inline]
fn words(k: usize) -> usize {
    k.div_ceil(64)
}

impl TsVec {
    /// A fully undefined vector `⟨*, …, *⟩` of dimension `k` (Algorithm 1,
    /// line 1). Allocation-free for `k ≤ INLINE_K`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn undefined(k: usize) -> Self {
        assert!(k >= 1, "timestamp vectors need at least one dimension");
        if k <= INLINE_K {
            TsVec {
                k_tag: NonZeroU32::new(k as u32).unwrap(),
                first_defined: k as u32,
                defined0: 0,
                data: Data { inline: [0; INLINE_K] },
            }
        } else {
            Self::undefined_spilled(k)
        }
    }

    /// A fully undefined vector in the boxed representation regardless of
    /// `k` — the baseline for benchmarks and the representation-agreement
    /// proptests. Logically identical (`Eq`/`Hash`/`compare`) to
    /// [`TsVec::undefined`]; the protocols themselves never need it.
    pub fn undefined_spilled(k: usize) -> Self {
        assert!(k >= 1, "timestamp vectors need at least one dimension");
        assert!((k as u64) < SPILLED_TAG as u64, "dimension too large");
        TsVec {
            k_tag: NonZeroU32::new(k as u32 | SPILLED_TAG).unwrap(),
            first_defined: k as u32,
            defined0: 0,
            data: Data {
                spilled: ManuallyDrop::new(Spill {
                    values: vec![ValChunk([0; 8]); k.div_ceil(8)].into_boxed_slice(),
                    defined: vec![0; words(k)].into_boxed_slice(),
                }),
            },
        }
    }

    /// The virtual transaction's vector `⟨0, *, …, *⟩` (Algorithm 1,
    /// line 2).
    pub fn origin(k: usize) -> Self {
        let mut v = TsVec::undefined(k);
        v.define(0, 0);
        v
    }

    /// Builds a vector from explicit elements; handy in tests and the
    /// paper's table reproductions.
    pub fn from_elems(elems: &[Option<i64>]) -> Self {
        assert!(!elems.is_empty());
        let mut v = TsVec::undefined(elems.len());
        for (m, e) in elems.iter().enumerate() {
            if let Some(x) = *e {
                v.define(m, x);
            }
        }
        v
    }

    /// Whether the boxed large-k representation is in use.
    #[inline]
    pub fn is_spilled(&self) -> bool {
        self.k_tag.get() & SPILLED_TAG != 0
    }

    /// Dimension `k`.
    #[inline]
    pub fn k(&self) -> usize {
        (self.k_tag.get() & !SPILLED_TAG) as usize
    }

    /// Whether element `m` is defined (0-based).
    #[inline]
    pub fn is_defined(&self, m: usize) -> bool {
        debug_assert!(m < self.k());
        if m < 64 {
            self.defined0 >> m & 1 == 1
        } else {
            self.defined_words()[m / 64] >> (m % 64) & 1 == 1
        }
    }

    /// `TS(i, m)` with `m` 0-based (the paper indexes from 1).
    #[inline]
    pub fn get(&self, m: usize) -> Option<i64> {
        assert!(m < self.k(), "element {m} out of range for k = {}", self.k());
        if self.is_defined(m) {
            Some(self.values_raw()[m])
        } else {
            None
        }
    }

    /// Index of the first defined element, or `None` for a fully undefined
    /// vector. O(1) — maintained on [`TsVec::define`] and [`TsVec::flush`].
    #[inline]
    pub fn first_defined(&self) -> Option<usize> {
        let f = self.first_defined as usize;
        if f < self.k() {
            Some(f)
        } else {
            None
        }
    }

    /// Index of the first undefined element, or `None` for a fully defined
    /// vector.
    #[inline]
    pub fn first_undefined(&self) -> Option<usize> {
        let k = self.k();
        // Bits at and past `k` are zero, so a complemented word always
        // has a set bit at or below `k`'s position in it.
        let m = if k <= 64 {
            (!self.defined0).trailing_zeros() as usize
        } else {
            let words = self.defined_words();
            let w = words.iter().position(|&w| w != !0).unwrap_or(words.len());
            words.get(w).map_or(k, |&word| w * 64 + (!word).trailing_zeros() as usize)
        };
        (m < k).then_some(m)
    }

    /// Definedness bits for elements 0–63 in one word — the whole bitmap
    /// for `k ≤ 64`, valid for both representations (the comparator's
    /// one-word fast path reads only this).
    #[inline]
    pub fn defined_word0(&self) -> u64 {
        self.defined0
    }

    /// The raw definedness bitmap (64 elements per word, LSB-first; bits at
    /// and past `k` are zero).
    #[inline]
    pub fn defined_words(&self) -> &[u64] {
        if self.is_spilled() {
            // SAFETY: the tag says the spilled arm is initialised.
            unsafe { &self.data.spilled.defined }
        } else {
            std::slice::from_ref(&self.defined0)
        }
    }

    /// The raw value array (length `k`); entries at undefined positions
    /// hold `0`.
    #[inline]
    pub fn values_raw(&self) -> &[i64] {
        // SAFETY: the tag says which arm is initialised; the inline arm is
        // meaningful only up to k.
        let k = self.k();
        unsafe {
            if self.is_spilled() {
                self.data.spilled.values(k)
            } else {
                &self.data.inline[..k]
            }
        }
    }

    /// Elements as `Option`s. Allocates — for tests and table displays
    /// only, never the scheduler paths (kept cold so it cannot creep back
    /// into them unnoticed).
    #[cold]
    pub fn elems(&self) -> Vec<Option<i64>> {
        (0..self.k()).map(|m| self.get(m)).collect()
    }

    /// Defines element `m` (0-based).
    ///
    /// # Panics
    /// Panics if the element is already defined — the protocol never
    /// overwrites encoded dependency information.
    #[inline]
    pub fn define(&mut self, m: usize, value: i64) {
        debug_assert!(
            !self.is_defined(m),
            "element {m} already defined to {:?}; write-once discipline violated",
            self.values_raw()[m]
        );
        if m < 64 {
            self.defined0 |= 1 << m;
        }
        if self.is_spilled() {
            // SAFETY: tag-checked arm; defined[0] mirrors defined0.
            unsafe {
                let spill = &mut self.data.spilled;
                spill.values[m / 8].0[m % 8] = value;
                spill.defined[m / 64] |= 1 << (m % 64);
            }
        } else {
            debug_assert!(m < self.k());
            // SAFETY: tag-checked arm; m < k ≤ INLINE_K.
            unsafe {
                self.data.inline[m] = value;
            }
        }
        if (m as u32) < self.first_defined {
            self.first_defined = m as u32;
        }
    }

    /// Number of defined elements.
    pub fn defined_count(&self) -> usize {
        self.defined_words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every element is still undefined (a transaction that has not
    /// yet been ordered against anything).
    #[inline]
    pub fn is_fully_undefined(&self) -> bool {
        self.first_defined as usize >= self.k()
    }

    /// Resets to fully undefined *in place*, reusing any spilled storage —
    /// the restart paths use this instead of building a fresh vector.
    pub fn clear(&mut self) {
        self.defined0 = 0;
        self.first_defined = self.k() as u32;
        if self.is_spilled() {
            // SAFETY: tag-checked arm.
            unsafe {
                let spill = &mut self.data.spilled;
                spill.values.fill(ValChunk([0; 8]));
                spill.defined.fill(0);
            }
        } else {
            // Writing a `Copy` union field is safe.
            self.data.inline = [0; INLINE_K];
        }
    }

    /// Starvation fix (Section III-D-4): flush the vector and pre-set the
    /// first element, so the restarted transaction is already ordered after
    /// the transaction that aborted it. In place — no allocation.
    pub fn flush(&mut self, first: i64) {
        self.clear();
        self.define(0, first);
    }

    /// The prefix `⟨t₁ … t_l⟩` as `Option`s. Allocates — test/display-only
    /// like [`TsVec::elems`] (the composite tables keep their own rows).
    #[cold]
    pub fn prefix(&self, len: usize) -> Vec<Option<i64>> {
        (0..len).map(|m| self.get(m)).collect()
    }

    /// Definition 6 comparison against `other` (scalar path).
    pub fn compare(&self, other: &TsVec) -> CmpResult {
        ScalarComparator::compare(self, other)
    }

    /// `TS(self) < TS(other)` in the strict sense of Definition 6 (both
    /// deciding elements defined).
    pub fn is_less(&self, other: &TsVec) -> bool {
        matches!(self.compare(other), CmpResult::Less { .. })
    }
}

impl Drop for TsVec {
    fn drop(&mut self) {
        if self.is_spilled() {
            // SAFETY: tag-checked arm, dropped exactly once here.
            unsafe { ManuallyDrop::drop(&mut self.data.spilled) }
        }
    }
}

impl Clone for TsVec {
    fn clone(&self) -> Self {
        let data = if self.is_spilled() {
            // SAFETY: tag-checked arm.
            Data { spilled: ManuallyDrop::new(unsafe { Spill::clone(&self.data.spilled) }) }
        } else {
            // SAFETY: tag-checked arm; [i64; 6] is plain data.
            Data { inline: unsafe { self.data.inline } }
        };
        TsVec {
            k_tag: self.k_tag,
            first_defined: self.first_defined,
            defined0: self.defined0,
            data,
        }
    }
}

// Representation-agnostic equality/hash: `k`, the bitmap words, and the
// value array (undefined slots pinned to 0 by invariant) — a forced-spilled
// vector equals its inline twin.
impl PartialEq for TsVec {
    fn eq(&self, other: &Self) -> bool {
        self.k() == other.k()
            && self.defined_words() == other.defined_words()
            && self.values_raw() == other.values_raw()
    }
}

impl Eq for TsVec {}

impl Hash for TsVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.k().hash(state);
        self.defined_words().hash(state);
        self.values_raw().hash(state);
    }
}

impl fmt::Debug for TsVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TsVec({self}{})", if self.is_spilled() { ", spilled" } else { "" })
    }
}

impl fmt::Display for TsVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for m in 0..self.k() {
            if m > 0 {
                write!(f, ",")?;
            }
            match self.get(m) {
                Some(v) => write!(f, "{v}")?,
                None => write!(f, "*")?,
            }
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runtime twin of the const layout asserts, so a layout regression
    /// shows up as a named test failure and not just a compile error
    /// (ISSUE 8: any touch to the spilled accessors must keep the niche).
    #[test]
    fn option_tsvec_stays_one_cache_line() {
        assert_eq!(std::mem::size_of::<TsVec>(), 64);
        assert_eq!(std::mem::size_of::<Option<TsVec>>(), 64);
    }

    #[test]
    fn origin_is_zero_then_undefined() {
        let v = TsVec::origin(3);
        assert_eq!(v.get(0), Some(0));
        assert_eq!(v.get(1), None);
        assert_eq!(v.to_string(), "<0,*,*>");
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dimension_rejected() {
        let _ = TsVec::undefined(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "write-once")]
    fn define_is_write_once() {
        let mut v = TsVec::undefined(2);
        v.define(0, 1);
        v.define(0, 2);
    }

    #[test]
    fn flush_resets_and_presets_first() {
        let mut v = TsVec::from_elems(&[Some(1), Some(4), None]);
        v.flush(7);
        assert_eq!(v.to_string(), "<7,*,*>");
        assert_eq!(v.defined_count(), 1);
        assert_eq!(v.first_defined(), Some(0));
    }

    #[test]
    fn display_matches_paper() {
        let v = TsVec::from_elems(&[Some(2), None]);
        assert_eq!(v.to_string(), "<2,*>");
    }

    #[test]
    fn repr_follows_dimension() {
        assert!(!TsVec::undefined(1).is_spilled());
        assert!(!TsVec::undefined(INLINE_K).is_spilled());
        assert!(TsVec::undefined(INLINE_K + 1).is_spilled());
        assert!(TsVec::undefined_spilled(2).is_spilled());
    }

    #[test]
    fn spilled_and_inline_twins_are_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |v: &TsVec| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        for k in 1..=INLINE_K {
            let mut a = TsVec::undefined(k);
            let mut b = TsVec::undefined_spilled(k);
            assert_eq!(a, b, "fully undefined, k = {k}");
            for m in (0..k).rev() {
                a.define(m, m as i64 * 3 - 1);
                b.define(m, m as i64 * 3 - 1);
                assert_eq!(a, b, "k = {k}, defined down to {m}");
                assert_eq!(hash(&a), hash(&b));
                assert_eq!(a.first_defined(), b.first_defined());
                assert_eq!(a.defined_words(), b.defined_words());
                assert_eq!(a.values_raw(), b.values_raw());
            }
            let (mut ca, mut cb) = (a.clone(), b.clone());
            assert_eq!(ca, cb);
            ca.flush(9);
            cb.flush(9);
            assert_eq!(ca, cb);
            assert_eq!(ca.to_string(), cb.to_string());
        }
    }

    #[test]
    fn clear_reuses_storage_and_fully_undefines() {
        for mut v in [TsVec::from_elems(&[Some(1), Some(2)]), {
            let mut s = TsVec::undefined_spilled(70);
            s.define(0, 4);
            s.define(69, 5);
            s
        }] {
            let spilled = v.is_spilled();
            v.clear();
            assert!(v.is_fully_undefined());
            assert_eq!(v.defined_count(), 0);
            assert_eq!(v.is_spilled(), spilled, "clear must not change representation");
            assert!(v.values_raw().iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn first_defined_cache_tracks_defines() {
        let mut v = TsVec::undefined(130);
        assert_eq!(v.first_defined(), None);
        assert!(v.is_fully_undefined());
        v.define(100, 5);
        assert_eq!(v.first_defined(), Some(100));
        v.define(129, 6);
        assert_eq!(v.first_defined(), Some(100));
        v.define(3, 7);
        assert_eq!(v.first_defined(), Some(3));
        assert!(!v.is_fully_undefined());
        assert_eq!(v.defined_count(), 3);
    }

    #[test]
    fn bitmap_matches_get_across_word_boundaries() {
        let mut v = TsVec::undefined(200);
        for m in [0usize, 63, 64, 65, 127, 128, 199] {
            v.define(m, m as i64);
        }
        for m in 0..200 {
            let expect = [0usize, 63, 64, 65, 127, 128, 199].contains(&m);
            assert_eq!(v.is_defined(m), expect, "element {m}");
            assert_eq!(v.get(m), expect.then_some(m as i64), "element {m}");
        }
        // Bits past k stay clear, words cover exactly ⌈k/64⌉, and the
        // word-0 mirror matches the boxed bitmap.
        assert_eq!(v.defined_words().len(), 4);
        assert_eq!(v.defined_words()[3] >> (200 - 192), 0);
        assert_eq!(v.defined_word0(), v.defined_words()[0]);
    }

    #[test]
    fn eq_and_hash_ignore_undefined_values() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Two vectors that went through different define histories but end
        // in the same logical state must be equal with equal hashes.
        let mut a = TsVec::undefined(3);
        a.define(1, 9);
        let b = TsVec::from_elems(&[None, Some(9), None]);
        assert_eq!(a, b);
        let hash = |v: &TsVec| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn elems_round_trips() {
        let elems = [Some(3), None, Some(-2), None, None];
        assert_eq!(TsVec::from_elems(&elems).elems(), elems);
    }
}
