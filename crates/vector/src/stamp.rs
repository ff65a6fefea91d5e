//! The packed version stamp: a committed writer's saturated timestamp
//! vector as its k values alone.
//!
//! `stamp_commit` defines every element of a committing writer's vector,
//! so a version's stamp has no undefined element and needs no definedness
//! bitmap: Definition 6 between a saturated stamp and a reader stops at
//! the first value that differs or at the first element the *reader*
//! leaves open, so the reader's mask decides alone
//! ([`Stamp::compare_reader`]). A snapshot reader compares a stamp's
//! column 0 alone ([`StampView`]).
//!
//! # Layout
//!
//! A [`Stamp`] is a 4-byte head word and 24 bytes of payload, packed to
//! 4-byte alignment (28 bytes): beside a 4-byte writer id it fills the
//! 32 bytes a 64-bit ticket-aligned record would give the two anyway, so a
//! multiversion record of holders, writer, ticket, stamp and an
//! `Option<i64>` value is exactly one 64-byte line.
//!
//! * `k ≤ INLINE_STAMP_K` (3): the values sit inline, unused slots zero.
//! * `k > INLINE_STAMP_K`: the values spill to a heap block of `k` values
//!   and the payload holds its pointer. Such a stamp costs one allocation
//!   when built or cloned; the inline layout does not grow to pay for it.
//! * The floor — T₀'s `⟨0, *, …⟩`, the one stamp that is not saturated —
//!   is recognised by its head word alone: [`Stamp::floor`] sets a flag
//!   bit there, and no other constructor does. Its payload is unused (the
//!   one defined element is 0), so a floor never allocates.

use std::fmt;
use std::mem::size_of;
use std::num::NonZeroU32;
use std::ptr;

use crate::compare::CmpResult;
use crate::tsvec::TsVec;

/// Largest dimension whose stamp is stored inline.
pub const INLINE_STAMP_K: usize = 3;

/// Head-word flag of the floor stamp `⟨0, *, …⟩`. The dimension occupies
/// the low 31 bits, so the head is never zero (k ≥ 1) and `Option`-like
/// enums around a stamp find a niche in it.
const FLOOR_FLAG: u32 = 1 << 31;

/// The payload: inline values, or the pointer to a spilled block of `k`.
#[derive(Clone, Copy)]
#[repr(C, packed(4))]
union Payload {
    inline: [i64; INLINE_STAMP_K],
    spilled: *mut i64,
}

/// A committed writer's saturated timestamp vector, packed: its `k`
/// values and no bitmap (module docs). Built from a saturated [`TsVec`]
/// through `From`, or as the floor by [`Stamp::floor`].
#[repr(C)]
pub struct Stamp {
    /// `k` in the low 31 bits; [`FLOOR_FLAG`] marks the floor.
    head: NonZeroU32,
    payload: Payload,
}

// SAFETY: `head` is a plain integer. `payload` is plain `i64`s, or the
// pointer to a heap block of `i64`s that this stamp owns exclusively
// (`Clone` copies the block, `Drop` frees it) and never hands out a
// mutable view of, so a stamp is as thread-safe as the `Box<[i64]>` it
// stands for.
unsafe impl Send for Stamp {}
// SAFETY: as above; `&Stamp` only reads `head` and the values.
unsafe impl Sync for Stamp {}

const _: () = {
    assert!(size_of::<Stamp>() == 4 + 8 * INLINE_STAMP_K);
    assert!(std::mem::align_of::<Stamp>() == 4);
    assert!(size_of::<Option<Stamp>>() == size_of::<Stamp>(), "the head word is a niche");
};

impl Stamp {
    /// T₀'s stamp `⟨0, *, …, *⟩` of dimension `k` — the floor version's,
    /// and the only stamp with undefined elements. Never allocates.
    ///
    /// # Panics
    /// Panics if `k` is 0 or does not fit in 31 bits.
    pub fn floor(k: usize) -> Stamp {
        Stamp { head: head(k, FLOOR_FLAG), payload: Payload { inline: [0; INLINE_STAMP_K] } }
    }

    /// Dimension `k`.
    #[inline]
    pub fn k(&self) -> usize {
        (self.head.get() & !FLOOR_FLAG) as usize
    }

    /// Whether this is the floor `⟨0, *, …⟩`.
    #[inline]
    pub(crate) fn is_floor(&self) -> bool {
        self.head.get() & FLOOR_FLAG != 0
    }

    /// Whether the values live on the heap (`k > INLINE_STAMP_K`, floor
    /// excluded).
    #[inline]
    fn is_spilled(&self) -> bool {
        self.head.get() > INLINE_STAMP_K as u32 && !self.is_floor()
    }

    /// Element `m` (0-based): defined for every `m < k`, except the
    /// floor's elements past the first.
    pub fn get(&self, m: usize) -> Option<i64> {
        assert!(m < self.k(), "element {m} out of range for k = {}", self.k());
        match (self.is_floor(), m) {
            (true, 0) => Some(0),
            (true, _) => None,
            (false, _) => Some(self.with_values(|values| values[m])),
        }
    }

    /// Runs `f` on the `k` values of a saturated stamp.
    #[inline]
    fn with_values<R>(&self, f: impl FnOnce(&[i64]) -> R) -> R {
        debug_assert!(!self.is_floor());
        let k = self.k();
        if self.is_spilled() {
            // SAFETY: a spilled stamp's payload is the pointer to its own
            // block of `k` values (`From<TsVec>`), live until `Drop`; the
            // packed field is read by value, unaligned.
            let values = unsafe { ptr::addr_of!(self.payload.spilled).read_unaligned() };
            // SAFETY: as above.
            f(unsafe { std::slice::from_raw_parts(values, k) })
        } else {
            // SAFETY: an inline stamp's payload is its values; read by
            // value, unaligned.
            let values = unsafe { ptr::addr_of!(self.payload.inline).read_unaligned() };
            f(&values[..k])
        }
    }
}

/// The head word for dimension `k` with `flags`.
fn head(k: usize, flags: u32) -> NonZeroU32 {
    assert!(k >= 1, "timestamp vectors need at least one dimension");
    assert!((k as u64) < FLOOR_FLAG as u64, "dimension too large");
    NonZeroU32::new(k as u32 | flags).expect("k ≥ 1")
}

impl From<TsVec> for Stamp {
    /// Packs a saturated vector: `stamp_commit`'s output.
    ///
    /// # Panics
    /// Panics if an element of `v` is undefined.
    fn from(v: TsVec) -> Stamp {
        let k = v.k();
        assert!(v.first_undefined().is_none(), "a version stamp is saturated, not {v}");
        let values = v.values_raw();
        let payload = if k <= INLINE_STAMP_K {
            let mut inline = [0; INLINE_STAMP_K];
            inline[..k].copy_from_slice(values);
            Payload { inline }
        } else {
            let block: Box<[i64]> = values.into();
            Payload { spilled: Box::into_raw(block).cast::<i64>() }
        };
        Stamp { head: head(k, 0), payload }
    }
}

impl Drop for Stamp {
    fn drop(&mut self) {
        if self.is_spilled() {
            // SAFETY: the block was made by `Box::into_raw` of a `k`-value
            // boxed slice and is freed only here.
            unsafe {
                let values = ptr::addr_of!(self.payload.spilled).read_unaligned();
                drop(Box::from_raw(ptr::slice_from_raw_parts_mut(values, self.k())));
            }
        }
    }
}

impl Clone for Stamp {
    fn clone(&self) -> Stamp {
        if !self.is_spilled() {
            return Stamp { head: self.head, payload: self.payload };
        }
        let block: Box<[i64]> = self.with_values(|values| values.into());
        Stamp { head: self.head, payload: Payload { spilled: Box::into_raw(block).cast::<i64>() } }
    }
}

impl PartialEq for Stamp {
    fn eq(&self, other: &Stamp) -> bool {
        let (k, head) = (self.k(), self.head);
        head == other.head && (0..k).all(|m| self.get(m) == other.get(m))
    }
}

impl Eq for Stamp {}

impl fmt::Debug for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stamp({})", self.to_vec())
    }
}

/// A committed writer's stamp as the snapshot chain walk reads it: its
/// column 0, which a reader's position is compared with. Implemented by
/// the packed [`Stamp`] and by [`TsVec`] itself.
pub trait StampView {
    /// Column 0, which every stamp defines (the floor's is 0).
    fn first(&self) -> i64;
}

impl StampView for TsVec {
    fn first(&self) -> i64 {
        self.get(0).expect("a stamp defines column 0")
    }
}

impl Stamp {
    /// Definition 6 with the stamp on the left: `TS(stamp)` against
    /// `TS(reader)`, both of the same dimension. Only the reader's mask is
    /// consulted: the stamp's values are all defined (the floor's past the
    /// first are not, and are decided by hand), so the scan stops at the
    /// first differing value or at the reader's first open element.
    #[inline]
    pub fn compare_reader(&self, reader: &TsVec) -> CmpResult {
        let k = self.k();
        debug_assert_eq!(k, reader.k(), "vectors of different dimension are never compared");
        let open = reader.first_undefined().unwrap_or(k);
        let run = &reader.values_raw()[..open];
        if self.is_floor() {
            return match run.first() {
                None => CmpResult::RightUndefined { at: 0 },
                Some(&r) if r > 0 => CmpResult::Less { at: 0 },
                Some(&r) if r < 0 => CmpResult::Greater { at: 0 },
                Some(_) if k == 1 => CmpResult::Identical,
                Some(_) if reader.is_defined(1) => CmpResult::LeftUndefined { at: 1 },
                Some(_) => CmpResult::EqualUndefined { at: 1 },
            };
        }
        self.with_values(|values| {
            for (m, (&s, &r)) in values.iter().zip(run).enumerate() {
                if s != r {
                    return if s < r {
                        CmpResult::Less { at: m }
                    } else {
                        CmpResult::Greater { at: m }
                    };
                }
            }
            if open == k {
                CmpResult::Identical
            } else {
                CmpResult::RightUndefined { at: open }
            }
        })
    }

    /// The stamp as a vector, for the rare open case where `Set` defines
    /// an element against it (on the stack for `k ≤ INLINE_K`).
    pub fn to_vec(&self) -> TsVec {
        let k = self.k();
        if self.is_floor() {
            return TsVec::origin(k);
        }
        let mut v = TsVec::undefined(k);
        self.with_values(|values| values.iter().enumerate().for_each(|(m, &x)| v.define(m, x)));
        v
    }
}

impl StampView for Stamp {
    #[inline]
    fn first(&self) -> i64 {
        if self.is_floor() {
            0
        } else {
            self.with_values(|values| values[0])
        }
    }
}
