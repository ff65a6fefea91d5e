//! Algorithm 1, stated once.
//!
//! The paper gives MT(k) as one procedure: pick the larger of `RT(x)` and
//! `WT(x)` (lines 5–6), order the requester after it with `Set` (lines
//! 15–20), and on success make the requester the item's reader or writer
//! (lines 7 and 12) — with the line 9–10 reader rule and the Thomas write
//! rule (III-D-6c) as the two ways a refused access may still proceed.
//! This module is that procedure, and every MT variant decides through
//! it:
//!
//! * `Set`'s element choice — given the Definition 6 result of `TS(j)`
//!   against `TS(i)`, the two vectors, the column floor and the
//!   k-th-column counters, the element definitions that encode
//!   `TS(j) < TS(i)` (or that the order is already decided either way).
//!   It is crate-private: the two MT(k) tables call it inside their own
//!   `Set`, and everyone else reaches it through
//!   [`MtScheduler::order`](crate::MtScheduler::order).
//! * [`access`] — the access rule, generic over an [`OrderTable`] that
//!   offers the instantiation's compare, its `Set` and its III-D-4 restart
//!   hint. It returns the [`AccessOutcome`] and leaves the holder update
//!   to the caller; [`decision`] turns the outcome into the verdict and
//!   [`process`] runs a multi-item operation.
//!
//! What the instantiations own is everything around the rule:
//! [`MtScheduler`](crate::MtScheduler) its footprint rollback, shielded `RT`
//! slots and the III-D-5 hot-item trigger;
//! [`SharedMtScheduler`](crate::SharedMtScheduler) the shard guard it holds
//! across the whole access, the row locks (an optimistic read-locked
//! compare, then a re-decide under the write locks), the order memo and the
//! refcounts. MT(k₁, …, k_l) (`mdts-nested`'s `HierarchyScheduler`) is an
//! [`OrderTable`] over one `MtScheduler` per level, deciding each pair in
//! the table of the level where the two paths diverge; DMT(k)
//! (`mdts-dist`) runs an `MtScheduler` over its logically shared table.

use mdts_model::{ItemId, OpKind, Operation, TxId};
use mdts_trace::event::{AccessOutcome, Change, EncodedChanges, RejectRule, SetEdgeOutcome};
use mdts_trace::{TraceEvent, TraceSink};
use mdts_vector::{CmpResult, KthCounters, TsVec};

use crate::mtk::{Decision, MtOptions, Reject};

/// The column floor before any commit stamp is published: `T₀`'s stamp
/// `⟨0, *, …⟩` — 0 in column 0, where every holder's element is at least
/// that, and no element anywhere else. The sequential scheduler never
/// stamps, so this is its floor for good; the concurrent scheduler's
/// published maxima start here.
pub(crate) fn origin_floor(m: usize) -> i64 {
    if m == 0 {
        0
    } else {
        i64::MIN
    }
}

/// How [`set`] chooses the elements `i` gains.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Encoding {
    /// The paper's values, except that an open non-last element defined
    /// against a defined one is chosen above the column floor too, so
    /// committed history never refuses a fresh transaction (PR 12).
    Plain,
    /// III-D-5's right-end encoding: an open order is encoded only after
    /// `TS(j)`'s defined prefix was copied into `TS(i)`.
    RightEnd,
}

/// Procedure `Set(j, i)` (lines 15–20): what `cmp` — Definition 6 of
/// `TS(j)` against `TS(i)` — leaves to do so that `TS(j) < TS(i)`.
/// A decided order is reported as it is; an open one yields the element
/// definitions that close it, drawn from `counters` in the k-th column.
/// `floor(m)` is column `m`'s floor ([`origin_floor`], or the published
/// maxima of commit stamps); it is consulted only where `encoding` needs
/// it. Only undefined elements are ever defined (write-once).
pub(crate) fn set(
    cmp: CmpResult,
    (j, tj): (TxId, &TsVec),
    (i, ti): (TxId, &TsVec),
    floor: impl Fn(usize) -> i64,
    encoding: Encoding,
    counters: &KthCounters,
) -> SetEdgeOutcome {
    let last = tj.k() - 1;
    let changes = match cmp {
        CmpResult::Less { .. } => return SetEdgeOutcome::AlreadyOrdered,
        CmpResult::Greater { at } => return SetEdgeOutcome::Refused { at },
        CmpResult::Identical => {
            // Unreachable between distinct transactions: the k-th column
            // always holds globally distinct counter values.
            debug_assert!(false, "identical fully-defined vectors for {j} and {i}");
            return SetEdgeOutcome::Refused { at: last };
        }
        CmpResult::EqualUndefined { at } => {
            let (a, b) = if at < last { (1, 2) } else { counters.fresh_pair() };
            EncodedChanges::pair((j, at, a), (i, at, b))
        }
        CmpResult::RightUndefined { at }
            if encoding == Encoding::RightEnd && tj.defined_count() < tj.k() =>
        {
            // Copy TS(j)'s defined columns from `at` on, then encode the
            // order at the first column both leave open. Protocol vectors
            // are prefix-shaped, so that column is TS(j)'s defined count.
            let p = tj.defined_count();
            let mut changes: Vec<Change> =
                (at..p).map(|m| (i, m, tj.get(m).expect("within j's prefix"))).collect();
            let open = CmpResult::EqualUndefined { at: p };
            if let SetEdgeOutcome::Encoded { changes: pair } =
                set(open, (j, tj), (i, ti), floor, Encoding::Plain, counters)
            {
                changes.extend_from_slice(&pair);
            }
            changes.into()
        }
        CmpResult::RightUndefined { at } => {
            // TS(i, at) undefined; TS(j, at) defined. Any value above
            // TS(j, at) encodes the order — the element was open, so no
            // decision at or after this column has involved `i` yet — and
            // choosing it above the floor as well leaves `i` below no
            // writer that committed before this define. The last column's
            // counter draws are globally fresh already, so it is not
            // floored.
            let mut bound = tj.get(at).expect("defined by case");
            if at < last {
                bound = bound.max(floor(at));
            }
            // The bounded draw keeps TS(j,k) < TS(i,k) even when a DMT(k)
            // site's clock lags (Section V-B-1).
            let value = if at == last { counters.fresh_upper_above(bound) } else { bound + 1 };
            EncodedChanges::one((i, at, value))
        }
        CmpResult::LeftUndefined { at } => {
            // TS(j, at) undefined; TS(i, at) defined.
            let bound = ti.get(at).expect("defined by case");
            let value = if at == last { counters.fresh_lower_below(bound) } else { bound - 1 };
            EncodedChanges::one((j, at, value))
        }
    };
    SetEdgeOutcome::Encoded { changes }
}

/// `Some` when `cmp` already decides `Set(j, i)` — no element to define.
pub(crate) fn decided(cmp: CmpResult) -> Option<SetEdgeOutcome> {
    match cmp {
        CmpResult::Less { .. } => Some(SetEdgeOutcome::AlreadyOrdered),
        CmpResult::Greater { at } => Some(SetEdgeOutcome::Refused { at }),
        _ => None,
    }
}

/// Performs `outcome`'s element definitions through `define` and returns
/// the pair's order afterwards: `Less` at the last column defined after an
/// encode (where the order is now decided), `cmp` otherwise.
pub(crate) fn apply(
    outcome: &SetEdgeOutcome,
    cmp: CmpResult,
    mut define: impl FnMut(TxId, usize, i64),
) -> CmpResult {
    match outcome {
        SetEdgeOutcome::Encoded { changes } => {
            for &(tx, m, value) in changes.iter() {
                define(tx, m, value);
            }
            CmpResult::Less { at: changes.last().expect("an encode defines an element").1 }
        }
        _ => cmp,
    }
}

/// Emits `outcome` as the `Set(j, i)` edge and returns the refusing column
/// as the error. The caller still holds whatever made the outcome true.
pub(crate) fn emit_set(
    trace: &TraceSink,
    j: TxId,
    i: TxId,
    outcome: SetEdgeOutcome,
) -> Result<(), usize> {
    let result = match outcome {
        SetEdgeOutcome::Refused { at } => Err(at),
        _ => Ok(()),
    };
    trace.emit(|| TraceEvent::SetEdge { from: j, to: i, outcome });
    result
}

/// What an instantiation offers the access rule.
pub trait OrderTable {
    /// Definition 6 of `TS(a)` against `TS(b)`, with no side effect on the
    /// vectors (`pick` and the line 9 condition).
    fn order_of(&mut self, a: TxId, b: TxId) -> CmpResult;
    /// Procedure `Set(j, i)`; `Err` carries the column that refused.
    fn set(&mut self, j: TxId, i: TxId) -> Result<(), usize>;
    /// III-D-4: `tx` was refused against `against`.
    fn note_reject(&mut self, tx: TxId, against: TxId);
}

/// Lines 5–6: the larger and the smaller of `RT(x)` and `WT(x)` under the
/// vector order, and whether their mutual order is decided. An undecided
/// pair reads as `RT` first.
pub(crate) fn pick(t: &mut impl OrderTable, rt: TxId, wt: TxId) -> (TxId, TxId, bool) {
    if rt == wt {
        return (rt, wt, true);
    }
    match t.order_of(rt, wt) {
        CmpResult::Less { .. } => (wt, rt, true),
        CmpResult::Greater { .. } => (rt, wt, true),
        _ => (rt, wt, false),
    }
}

/// Algorithm 1's access rule for `tx`'s `kind` access to an item held by
/// `rt`/`wt` (lines 5–12). `tx` is ordered after the larger holder, and
/// after the smaller one as well only when `pick` found their order
/// undecided: a decided `smaller < larger < tx` is transitive over
/// write-once vectors. A refusal may still proceed by the line 9–10
/// reader rule (a read ordered after `WT(x)`, refused by a distinct
/// `RT(x)`: granted invisibly) or the Thomas write rule (a write ordered
/// after `RT(x)`, refused by a distinct `WT(x)`: granted and ignored).
/// The caller makes `tx` the item's reader or writer on
/// [`AccessOutcome::Granted`].
pub fn access(
    t: &mut impl OrderTable,
    opts: &MtOptions,
    tx: TxId,
    kind: OpKind,
    rt: TxId,
    wt: TxId,
) -> AccessOutcome {
    let (larger, smaller, decided) = pick(t, rt, wt);
    let refused = match t.set(larger, tx) {
        Err(at) => Some((larger, at)),
        Ok(()) if !decided => t.set(smaller, tx).err().map(|at| (smaller, at)),
        Ok(()) => None,
    };
    let Some((against, column)) = refused else {
        return AccessOutcome::Granted;
    };
    let rule = match kind {
        OpKind::Read if opts.reader_rule && against == rt && rt != wt => {
            let after_writer = if opts.relaxed_reader_rule {
                t.set(wt, tx).is_ok()
            } else {
                wt == tx || matches!(t.order_of(wt, tx), CmpResult::Less { .. })
            };
            if after_writer {
                return AccessOutcome::GrantedInvisible;
            }
            RejectRule::ReaderRule
        }
        OpKind::Write if opts.thomas_write_rule && against == wt && rt != wt => {
            // Refused by the smaller holder: `Set(rt, tx)` succeeded first.
            if larger == rt || t.set(rt, tx).is_ok() {
                return AccessOutcome::GrantedIgnored;
            }
            RejectRule::ThomasRule
        }
        _ => RejectRule::VectorOrder,
    };
    t.note_reject(tx, against);
    AccessOutcome::Rejected { against, column, rule }
}

/// The scheduler verdict an access outcome stands for.
pub fn decision(tx: TxId, item: ItemId, outcome: AccessOutcome) -> Decision {
    match outcome {
        AccessOutcome::Rejected { against, column, .. } => {
            Decision::Reject(Reject { tx, against, item, column })
        }
        AccessOutcome::GrantedIgnored => Decision::Accept { ignored: vec![item] },
        _ => Decision::accept(),
    }
}

/// Runs `access` over the operation's items in order; the first rejection
/// rejects the operation, and the ignored writes of the rest are gathered.
pub fn process(
    op: &Operation,
    mut access: impl FnMut(TxId, ItemId, OpKind) -> Decision,
) -> Decision {
    let mut ignored = Vec::new();
    for &item in op.items() {
        match access(op.tx, item, op.kind) {
            Decision::Accept { ignored: ig } => ignored.extend(ig),
            reject => return reject,
        }
    }
    Decision::Accept { ignored }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// A prefix-shaped vector: `len` leading columns defined, drawn from a
    /// narrow range so equal prefixes (and so open orders) are common.
    fn prefix_vec(rng: &mut StdRng, k: usize, len: usize) -> TsVec {
        let mut v = TsVec::undefined(k);
        for m in 0..len {
            v.define(m, rng.gen_range(-3i64..4));
        }
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `set` on its own over random prefix-shaped pairs, column
        /// floors, encodings and counter states — the commit-floor path,
        /// which the sequential oracle never takes, included. Unless the
        /// vectors already said `TS(j) > TS(i)`: afterwards
        /// `TS(j) < TS(i)`; only undefined elements were defined; every
        /// non-last element a floored (`Plain`, open against a defined
        /// element) `i` gained lies above the floor; and no last-column
        /// draw repeats.
        #[test]
        fn set_orders_write_once_above_the_floor(
            seed in any::<u64>(),
            k in 1usize..6,
            stride in 1i64..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let counters = KthCounters::site_tagged(stride, rng.gen_range(0..stride));
            counters.synchronize(rng.gen_range(-4i64..8), rng.gen_range(-8i64..1));
            let floors: Vec<i64> = (0..k)
                .map(|_| if rng.gen_bool(0.3) { i64::MIN } else { rng.gen_range(-4i64..6) })
                .collect();
            let floor = |m: usize| floors[m];
            let (j, i) = (TxId(1), TxId(2));
            let mut draws = HashSet::new();
            for _ in 0..8 {
                let (lj, li) = (rng.gen_range(0..=k), rng.gen_range(0..=k));
                let (mut tj, mut ti) = (prefix_vec(&mut rng, k, lj), prefix_vec(&mut rng, k, li));
                if tj.is_defined(k - 1) && tj.get(k - 1) == ti.get(k - 1) {
                    continue; // the k-th column is distinct between transactions
                }
                let encoding = [Encoding::Plain, Encoding::RightEnd][rng.gen_range(0..2usize)];
                let cmp = tj.compare(&ti);
                let outcome = set(cmp, (j, &tj), (i, &ti), floor, encoding, &counters);
                if let CmpResult::Greater { at } = cmp {
                    prop_assert_eq!(outcome, SetEdgeOutcome::Refused { at });
                    continue;
                }
                let changes: Vec<Change> = match &outcome {
                    SetEdgeOutcome::Encoded { changes } => changes.to_vec(),
                    _ => Vec::new(),
                };
                let mut seen = HashSet::new();
                for &(t, m, v) in &changes {
                    let before = if t == j { &tj } else { &ti };
                    prop_assert!(!before.is_defined(m) && seen.insert((t, m)), "{t}[{m}] redefined");
                    let floored = encoding == Encoding::Plain
                        && matches!(cmp, CmpResult::RightUndefined { .. })
                        && m < k - 1;
                    if t == i && floored {
                        prop_assert!(v > floor(m), "{t}[{m}] = {v} not above {}", floor(m));
                    }
                    if m == k - 1 {
                        prop_assert!(draws.insert(v), "last-column draw {v} handed out twice");
                    }
                }
                let (was_j, was_i) = (tj.clone(), ti.clone());
                let now = apply(&outcome, cmp, |t, m, v| {
                    if t == j { tj.define(m, v) } else { ti.define(m, v) }
                });
                prop_assert!(
                    matches!(now, CmpResult::Less { .. }) && now == tj.compare(&ti),
                    "{was_j} vs {was_i} ({cmp:?}, {encoding:?}) left {tj} vs {ti}"
                );
            }
        }
    }
}
