//! The trace auditor: replays a captured trace and independently re-checks
//! every scheduler decision against the Definition 6
//! lexicographic-wildcard comparison rules, plus a committed-prefix TO(k)
//! check — without any access to the scheduler that produced the trace.
//!
//! # Why this is sound under concurrency
//!
//! Timestamp elements are write-once, so a *decided* order (`Less` /
//! `Greater`) between two vectors never changes once established, and the
//! deciding position is stable too (the prefix before it is
//! both-defined-equal, hence frozen). Every emitting scheduler stamps its
//! events inside the critical section that made the decision, so by the
//! time a decision event appears in the merged sequence, all the `Set`
//! encodes it depends on appear before it. The auditor therefore replays
//! encodes in sequence order into its own vector table and demands that
//! each decision is *already justified* when its event arrives:
//!
//! * `Set` refused at `ℓ` → the auditor's vectors compare `Greater` at `ℓ`;
//! * an accepted access → the requester compares `Greater` than each
//!   holder it was ordered after (strictly: holder `Less` requester);
//! * a line 9–10 invisible read → RT really is ordered *after* the reader
//!   and the reader really is ordered after WT;
//! * a Thomas-ignored write → WT really is ordered after the writer and
//!   the writer after RT;
//! * a snapshot reader at position `b` (a `ReaderBound` record) → the
//!   version it read has a writer whose column 0 is below `b`, and every
//!   later writer on the chain, then or installed afterwards, has column 0
//!   at or above `b` (the auditor keeps the largest bound read per item,
//!   stricter than the engine's per-lock bound), and so has every writer
//!   the Thomas rule ignores on the item afterwards; a write refused by the
//!   read bound → its column 0 is below some bound a reader took;
//! * every recorded element definition respects write-once.
//!
//! Checks that would involve a *not yet decided* order (anything passing
//! through an undefined element) are exactly the ones concurrency could
//! change between decision and audit, and the protocol never bases an
//! accept/reject on them — so the auditor never needs them either.
//!
//! The final pass checks the committed prefix is in TO(k): for every item,
//! conflicting committed accesses (visible ones — invisible readers are
//! deliberately unordered against later writers, that is the point of the
//! reader rule) must be pairwise *decided* by the final vectors, which by
//! transitivity of the decided order yields a serialization order.

use std::collections::{HashMap, HashSet};

use mdts_model::{ItemId, OpKind, TxId};
use mdts_vector::{CmpResult, TsVec};

use crate::event::{AccessOutcome, RejectRule, SetEdgeOutcome, TraceEvent};
use crate::sink::Trace;

/// What the auditor verified and what it found.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Accept/reject decisions re-checked (accesses + refused/ordered sets).
    pub decisions: usize,
    /// Element definitions checked for write-once and bounds.
    pub assignments: usize,
    /// Recorded comparisons re-executed and matched.
    pub comparisons: usize,
    /// Of those, comparisons served from the write-once order cache (they
    /// are re-verified from the replayed vectors all the same).
    pub cached_comparisons: usize,
    /// Committed transactions seen.
    pub committed: usize,
    /// Conflicting committed pairs checked for a decided order.
    pub conflict_pairs: usize,
    /// Snapshot version selections re-derived from the replayed vectors
    /// and chain append order (MV path).
    pub version_reads: usize,
    /// Every discrepancy found, human-readable.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Whether the trace audited clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line summary plus the first few violations, for assertion
    /// messages.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "audited {} decisions, {} assignments, {} comparisons, {} committed, \
             {} conflict pairs, {} version reads: {} violation(s)",
            self.decisions,
            self.assignments,
            self.comparisons,
            self.committed,
            self.conflict_pairs,
            self.version_reads,
            self.violations.len()
        );
        for v in self.violations.iter().take(8) {
            s.push_str("\n  - ");
            s.push_str(v);
        }
        if self.violations.len() > 8 {
            s.push_str(&format!("\n  … and {} more", self.violations.len() - 8));
        }
        s
    }
}

struct Auditor {
    k: usize,
    vectors: HashMap<u32, TsVec>,
    committed: HashSet<u32>,
    /// Per item: committed-or-pending visible accesses `(tx, kind)`;
    /// invisible readers are excluded by construction. Snapshot readers
    /// are excluded too: like line 9–10 readers, they are deliberately
    /// unordered against writers that never crossed their walk.
    accesses: HashMap<ItemId, Vec<(TxId, OpKind)>>,
    /// Per item: the version chain's writers in append order, replayed
    /// from `VersionInstall` events (the floor T₀ version is implicit).
    chains: HashMap<ItemId, Vec<TxId>>,
    /// Each bounded snapshot reader's position (`ReaderBound` events).
    reader_bounds: HashMap<u32, i64>,
    /// Per item: the largest position a bounded reader read it at.
    item_bounds: HashMap<ItemId, i64>,
    /// The largest position any bounded reader took.
    max_bound: i64,
    report: AuditReport,
}

impl Auditor {
    fn new(k: usize) -> Self {
        Auditor {
            k,
            vectors: HashMap::new(),
            committed: HashSet::new(),
            accesses: HashMap::new(),
            chains: HashMap::new(),
            reader_bounds: HashMap::new(),
            item_bounds: HashMap::new(),
            max_bound: i64::MIN,
            report: AuditReport::default(),
        }
    }

    fn vec_of(&mut self, tx: TxId) -> &TsVec {
        let k = self.k;
        self.vectors.entry(tx.0).or_insert_with(|| {
            if tx.is_virtual() {
                TsVec::origin(k)
            } else {
                TsVec::undefined(k)
            }
        })
    }

    fn compare(&mut self, a: TxId, b: TxId) -> CmpResult {
        self.vec_of(a);
        self.vec_of(b);
        self.vectors[&a.0].compare(&self.vectors[&b.0])
    }

    /// `holder < tx` strictly, or the holder *is* tx (re-access).
    fn ordered_before(&mut self, holder: TxId, tx: TxId) -> bool {
        holder == tx || matches!(self.compare(holder, tx), CmpResult::Less { .. })
    }

    fn violation(&mut self, msg: String) {
        self.report.violations.push(msg);
    }

    fn apply_set_edge(&mut self, from: TxId, to: TxId, outcome: &SetEdgeOutcome) {
        match outcome {
            SetEdgeOutcome::Encoded { changes } => {
                for &(tx, element, value) in changes.iter() {
                    self.report.assignments += 1;
                    if element >= self.k {
                        self.violation(format!(
                            "Set(T{},T{}): element {element} out of range for k = {}",
                            from.0, to.0, self.k
                        ));
                        continue;
                    }
                    self.vec_of(tx);
                    let v = self.vectors.get_mut(&tx.0).expect("just ensured");
                    if v.get(element).is_some() {
                        self.violation(format!(
                            "Set(T{},T{}): TS(T{},{}) redefined to {value} — write-once \
                             discipline violated",
                            from.0,
                            to.0,
                            tx.0,
                            element + 1
                        ));
                    } else {
                        v.define(element, value);
                    }
                }
                // After the encode the requested order must actually hold.
                self.report.decisions += 1;
                if !matches!(self.compare(from, to), CmpResult::Less { .. }) {
                    let c = self.compare(from, to);
                    self.violation(format!(
                        "Set(T{},T{}): encode did not establish TS(T{}) < TS(T{}) (got {c:?})",
                        from.0, to.0, from.0, to.0
                    ));
                }
            }
            SetEdgeOutcome::AlreadyOrdered => {
                self.report.decisions += 1;
                if from != to && !matches!(self.compare(from, to), CmpResult::Less { .. }) {
                    let c = self.compare(from, to);
                    self.violation(format!(
                        "Set(T{},T{}) claimed already-ordered but vectors say {c:?}",
                        from.0, to.0
                    ));
                }
            }
            SetEdgeOutcome::Refused { at } => {
                self.report.decisions += 1;
                match self.compare(from, to) {
                    CmpResult::Greater { at: got } if got == *at => {}
                    other => self.violation(format!(
                        "Set(T{},T{}) refused at {} but vectors say {other:?}",
                        from.0,
                        to.0,
                        at + 1
                    )),
                }
            }
        }
    }

    /// Commit-time stamp saturation (MV path): the writer's remaining
    /// undefined elements were defined before its vector was frozen into a
    /// version stamp. Replays the definitions write-once and demands the
    /// vector really is saturated afterwards — a partially defined stamp
    /// could still gain elements and flip a reader's version selection.
    fn apply_stamp_fill(&mut self, tx: TxId, changes: &crate::event::EncodedChanges) {
        for &(target, element, value) in changes.iter() {
            self.report.assignments += 1;
            if target != tx {
                self.violation(format!(
                    "StampFill(T{}): defines a different transaction T{}",
                    tx.0, target.0
                ));
                continue;
            }
            if element >= self.k {
                self.violation(format!(
                    "StampFill(T{}): element {element} out of range for k = {}",
                    tx.0, self.k
                ));
                continue;
            }
            self.vec_of(tx);
            let v = self.vectors.get_mut(&tx.0).expect("just ensured");
            if v.get(element).is_some() {
                self.violation(format!(
                    "StampFill(T{}): TS(T{},{}) redefined to {value} — write-once \
                     discipline violated",
                    tx.0,
                    tx.0,
                    element + 1
                ));
            } else {
                v.define(element, value);
            }
        }
        self.report.decisions += 1;
        let k = self.k;
        if self.vec_of(tx).defined_count() != k {
            self.violation(format!(
                "StampFill(T{}): vector still has undefined elements after saturation",
                tx.0
            ));
        }
    }

    /// A snapshot read selected `writer`'s version of `item`. Re-derives
    /// the MV-MT(k) gap rule from the replayed vectors and the chain
    /// append order: the reader sits strictly *after* the selected writer
    /// and strictly *before* every writer above it in the chain. Selecting
    /// the floor (T₀) requires the reader to sit below the whole chain.
    fn check_version_read(&mut self, tx: TxId, item: ItemId, writer: TxId) {
        self.report.decisions += 1;
        self.report.version_reads += 1;
        if let Some(&bound) = self.reader_bounds.get(&tx.0) {
            self.check_bounded_read(tx, item, writer, bound);
            return;
        }
        let chain = self.chains.get(&item).cloned().unwrap_or_default();
        let from = if writer.is_virtual() {
            // Floor (or never-written base value): the reader descended
            // past every version that was in the chain when it walked.
            0
        } else {
            match chain.iter().position(|&w| w == writer) {
                Some(p) => {
                    if !matches!(self.compare(writer, tx), CmpResult::Less { .. }) {
                        let c = self.compare(writer, tx);
                        self.violation(format!(
                            "R{}[{}] selected T{}'s version but the writer is not ordered \
                             before the reader ({c:?})",
                            tx.0, item.0, writer.0
                        ));
                    }
                    p + 1
                }
                None => {
                    self.violation(format!(
                        "R{}[{}] selected T{}'s version but T{} never installed one",
                        tx.0, item.0, writer.0, writer.0
                    ));
                    return;
                }
            }
        };
        for &succ in &chain[from.min(chain.len())..] {
            if !matches!(self.compare(tx, succ), CmpResult::Less { .. }) {
                let c = self.compare(tx, succ);
                self.violation(format!(
                    "R{}[{}] selected T{}'s version but the reader is not ordered before \
                     the later chain writer T{} ({c:?})",
                    tx.0,
                    item.0,
                    if writer.is_virtual() { 0 } else { writer.0 },
                    succ.0
                ));
            }
        }
    }

    /// `TS(tx, 1)` as replayed, if defined.
    fn first(&mut self, tx: TxId) -> Option<i64> {
        self.vec_of(tx).get(0)
    }

    /// A read by the snapshot reader `tx` at position `bound`: the
    /// selected writer's column 0 is below `bound`, every later chain
    /// writer's is at or above it, and the item's read bound rises to
    /// `bound` for the installs that follow.
    fn check_bounded_read(&mut self, tx: TxId, item: ItemId, writer: TxId, bound: i64) {
        let chain = self.chains.get(&item).cloned().unwrap_or_default();
        let from = if writer.is_virtual() {
            0
        } else {
            let Some(p) = chain.iter().position(|&w| w == writer) else {
                self.violation(format!(
                    "R{}[{}] selected T{}'s version but T{} never installed one",
                    tx.0, item.0, writer.0, writer.0
                ));
                return;
            };
            let first = self.first(writer);
            if first.is_none_or(|c| c >= bound) {
                self.violation(format!(
                    "R{}[{}] at position {bound} selected T{}'s version, whose column 0 is \
                     {first:?}",
                    tx.0, item.0, writer.0
                ));
            }
            p + 1
        };
        for &succ in &chain[from..] {
            let first = self.first(succ);
            if first.is_none_or(|c| c < bound) {
                self.violation(format!(
                    "R{}[{}] at position {bound} passed over T{}'s version, whose column 0 is \
                     {first:?}",
                    tx.0, item.0, succ.0
                ));
            }
        }
        let raised = self.item_bounds.entry(item).or_insert(bound);
        *raised = (*raised).max(bound);
    }

    /// `writer` installed a version of `item`: it must sit at or above
    /// every position a bounded reader read the item at.
    fn check_install(&mut self, writer: TxId, item: ItemId) {
        if let Some(&bound) = self.item_bounds.get(&item) {
            self.report.decisions += 1;
            let first = self.first(writer);
            if first.is_none_or(|c| c < bound) {
                self.violation(format!(
                    "W{}[{}] installed below the read bound {bound}: column 0 is {first:?}",
                    writer.0, item.0
                ));
            }
        }
        self.chains.entry(item).or_default().push(writer);
    }

    fn check_compare(
        &mut self,
        a: TxId,
        b: TxId,
        recorded: CmpResult,
        scalar_ops: usize,
        tree_steps: usize,
        cached: bool,
    ) {
        self.report.comparisons += 1;
        if cached {
            self.report.cached_comparisons += 1;
            // The cache may only ever serve decided strict orders — an
            // undecided result can still flip, so caching one would be a
            // soundness bug in the scheduler, not a stale entry.
            if !matches!(recorded, CmpResult::Less { .. } | CmpResult::Greater { .. }) {
                self.violation(format!(
                    "compare(T{},T{}): cache served the undecided result {recorded:?}",
                    a.0, b.0
                ));
            }
        }
        // Only decided results are stable across the decision→audit gap;
        // undefined-involving results may legitimately have changed.
        match recorded {
            CmpResult::Less { .. } | CmpResult::Greater { .. } | CmpResult::Identical => {
                let now = self.compare(a, b);
                if now != recorded {
                    self.violation(format!(
                        "compare(T{},T{}) recorded {recorded:?} but replays as {now:?}",
                        a.0, b.0
                    ));
                }
            }
            _ => {}
        }
        if scalar_ops > self.k || tree_steps != crate::event::tree_cost(self.k) {
            self.violation(format!(
                "compare(T{},T{}): implausible cost (scalar {scalar_ops}, tree {tree_steps}) \
                 for k = {}",
                a.0, b.0, self.k
            ));
        }
    }

    fn check_access(
        &mut self,
        tx: TxId,
        item: ItemId,
        kind: OpKind,
        rt: TxId,
        wt: TxId,
        outcome: &AccessOutcome,
    ) {
        self.report.decisions += 1;
        match outcome {
            AccessOutcome::Granted => {
                for holder in [rt, wt] {
                    if !self.ordered_before(holder, tx) {
                        let c = self.compare(holder, tx);
                        self.violation(format!(
                            "{}{}[{}] granted but holder T{} is not ordered before it ({c:?})",
                            kind.letter(),
                            tx.0,
                            item.0,
                            holder.0
                        ));
                    }
                }
                self.accesses.entry(item).or_default().push((tx, kind));
            }
            AccessOutcome::GrantedInvisible => {
                // Lines 9–10: the read was refused by RT but the reader is
                // ordered after the writer whose value it sees.
                if !matches!(self.compare(rt, tx), CmpResult::Greater { .. }) {
                    let c = self.compare(rt, tx);
                    self.violation(format!(
                        "R{}[{}] invisible but RT = T{} is not ordered after it ({c:?})",
                        tx.0, item.0, rt.0
                    ));
                }
                if !self.ordered_before(wt, tx) {
                    let c = self.compare(wt, tx);
                    self.violation(format!(
                        "R{}[{}] invisible but WT = T{} is not ordered before it ({c:?})",
                        tx.0, item.0, wt.0
                    ));
                }
            }
            AccessOutcome::GrantedIgnored => {
                // Thomas write rule: the write is stale (WT after the
                // writer) and safe to discard (RT before the writer).
                if !matches!(self.compare(wt, tx), CmpResult::Greater { .. }) {
                    let c = self.compare(wt, tx);
                    self.violation(format!(
                        "W{}[{}] ignored but WT = T{} is not ordered after it ({c:?})",
                        tx.0, item.0, wt.0
                    ));
                }
                if !self.ordered_before(rt, tx) {
                    let c = self.compare(rt, tx);
                    self.violation(format!(
                        "W{}[{}] ignored but RT = T{} is not ordered before it ({c:?})",
                        tx.0, item.0, rt.0
                    ));
                }
                // An ignored write installs nothing, yet its writer still
                // sits before `WT`: a bounded reader above it, served an
                // older version, would have missed it.
                if let Some(&bound) = self.item_bounds.get(&item) {
                    let first = self.first(tx);
                    if first.is_none_or(|c| c < bound) {
                        self.violation(format!(
                            "W{}[{}] ignored below the read bound {bound}: column 0 is {first:?}",
                            tx.0, item.0
                        ));
                    }
                }
            }
            AccessOutcome::Rejected { against, rule: RejectRule::ReadBound, .. } => {
                // No holder refused it: some reader's position lies above
                // the writer's column 0.
                let first = self.first(tx);
                let max_bound = self.max_bound;
                if !against.is_virtual() || first.is_none_or(|c| c >= max_bound) {
                    self.violation(format!(
                        "W{}[{}] refused by the read bound against T{} with column 0 {first:?}, \
                         but no reader took a position above it (largest {max_bound})",
                        tx.0, item.0, against.0
                    ));
                }
            }
            AccessOutcome::Rejected { against, column, rule: _ } => {
                match self.compare(*against, tx) {
                    CmpResult::Greater { at } if at == *column => {}
                    other => self.violation(format!(
                        "{}{}[{}] rejected against T{} at column {} but vectors say {other:?}",
                        kind.letter(),
                        tx.0,
                        item.0,
                        against.0,
                        column + 1
                    )),
                }
            }
        }
    }

    /// Committed-prefix TO(k): conflicting committed visible accesses must
    /// be pairwise decided by the final vectors. Transitivity of the
    /// decided order (write-once elements) then gives a serialization.
    fn check_committed_prefix(&mut self) {
        let committed = std::mem::take(&mut self.committed);
        let accesses = std::mem::take(&mut self.accesses);
        for (item, list) in accesses {
            let mut seen: Vec<(TxId, OpKind)> = Vec::new();
            for &(tx, kind) in &list {
                if committed.contains(&tx.0) && !seen.contains(&(tx, kind)) {
                    seen.push((tx, kind));
                }
            }
            for i in 0..seen.len() {
                for j in i + 1..seen.len() {
                    let (a, ka) = seen[i];
                    let (b, kb) = seen[j];
                    if a == b || !ka.conflicts_with(kb) {
                        continue;
                    }
                    self.report.conflict_pairs += 1;
                    let c = self.compare(a, b);
                    if !matches!(c, CmpResult::Less { .. } | CmpResult::Greater { .. }) {
                        self.violation(format!(
                            "committed conflict T{} {}–{} T{} on item {} is undecided ({c:?}) — \
                             the committed prefix is not in TO({})",
                            a.0,
                            ka.letter(),
                            kb.letter(),
                            b.0,
                            item.0,
                            self.k
                        ));
                    }
                }
            }
        }
    }
}

/// Audits `trace` (from schedulers of dimension `k`). See the module docs
/// for what is checked.
pub fn audit(trace: &Trace, k: usize) -> AuditReport {
    let mut a = Auditor::new(k);
    for event in trace.events() {
        match event {
            TraceEvent::SetEdge { from, to, outcome } => a.apply_set_edge(*from, *to, outcome),
            TraceEvent::Compare { a: x, b: y, result, scalar_ops, tree_steps, cached } => {
                a.check_compare(*x, *y, *result, *scalar_ops, *tree_steps, *cached);
            }
            TraceEvent::Access { tx, item, kind, rt, wt, outcome } => {
                a.check_access(*tx, *item, *kind, *rt, *wt, outcome);
            }
            TraceEvent::Restart { tx, hint, .. } => {
                let mut v = TsVec::undefined(k);
                if let Some(h) = hint {
                    v.define(0, *h);
                }
                a.vectors.insert(tx.0, v);
            }
            TraceEvent::StampFill { tx, changes } => a.apply_stamp_fill(*tx, changes),
            TraceEvent::VersionInstall { writer, item } => a.check_install(*writer, *item),
            TraceEvent::ReaderBound { tx, bound } => {
                a.reader_bounds.insert(tx.0, *bound);
                a.max_bound = a.max_bound.max(*bound);
            }
            TraceEvent::VersionRead { tx, item, writer } => {
                a.check_version_read(*tx, *item, *writer);
            }
            // Merged engine+protocol traces legitimately record the same
            // commit at both layers — count each transaction once.
            TraceEvent::Commit { tx } => {
                a.report.committed += usize::from(a.committed.insert(tx.0));
            }
            _ => {}
        }
    }
    a.check_committed_prefix();
    a.report
}

#[cfg(test)]
mod tests {
    use crate::event::{TraceEvent, TraceRecord};

    use super::*;

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, event }
    }

    fn encode(seq: u64, from: u32, to: u32, changes: Vec<(u32, usize, i64)>) -> TraceRecord {
        rec(
            seq,
            TraceEvent::SetEdge {
                from: TxId(from),
                to: TxId(to),
                outcome: SetEdgeOutcome::Encoded {
                    changes: changes.into_iter().map(|(t, m, v)| (TxId(t), m, v)).collect(),
                },
            },
        )
    }

    fn access(seq: u64, tx: u32, item: u32, kind: OpKind, rt: u32, wt: u32) -> TraceRecord {
        rec(
            seq,
            TraceEvent::Access {
                tx: TxId(tx),
                item: ItemId(item),
                kind,
                rt: TxId(rt),
                wt: TxId(wt),
                outcome: AccessOutcome::Granted,
            },
        )
    }

    #[test]
    fn clean_two_writer_history_audits_clean() {
        let trace = Trace::from_records(vec![
            encode(0, 0, 1, vec![(1, 0, 1)]),
            access(1, 1, 0, OpKind::Write, 0, 0),
            encode(2, 1, 2, vec![(2, 0, 2)]),
            access(3, 2, 0, OpKind::Write, 0, 1),
            rec(4, TraceEvent::Commit { tx: TxId(1) }),
            rec(5, TraceEvent::Commit { tx: TxId(2) }),
        ]);
        let report = audit(&trace, 2);
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.decisions, 4);
        assert_eq!(report.assignments, 2);
        assert_eq!(report.committed, 2);
        assert_eq!(report.conflict_pairs, 1);
    }

    #[test]
    fn granted_access_without_encoded_order_is_flagged() {
        // W2 claims WT = T1 was a holder, but nothing ordered T1 < T2.
        let trace = Trace::from_records(vec![
            encode(0, 0, 1, vec![(1, 0, 1)]),
            access(1, 1, 0, OpKind::Write, 0, 0),
            access(2, 2, 0, OpKind::Write, 0, 1),
        ]);
        let report = audit(&trace, 2);
        assert!(!report.is_clean());
        assert!(report.violations[0].contains("not ordered before"));
    }

    #[test]
    fn write_once_violation_is_flagged() {
        let trace = Trace::from_records(vec![
            encode(0, 0, 1, vec![(1, 0, 1)]),
            encode(1, 0, 1, vec![(1, 0, 5)]),
        ]);
        let report = audit(&trace, 2);
        assert!(!report.is_clean());
        assert!(report.violations[0].contains("write-once"));
    }

    #[test]
    fn refusal_must_match_the_vectors() {
        // T1 is encoded *below* nothing — a refusal at element 1 is bogus.
        let trace = Trace::from_records(vec![
            encode(0, 0, 1, vec![(1, 0, 1)]),
            rec(
                1,
                TraceEvent::SetEdge {
                    from: TxId(1),
                    to: TxId(2),
                    outcome: SetEdgeOutcome::Refused { at: 0 },
                },
            ),
        ]);
        let report = audit(&trace, 2);
        assert!(!report.is_clean());
        assert!(report.violations[0].contains("refused"));
    }

    #[test]
    fn version_read_in_the_gap_audits_clean() {
        // Chain on item 0: T1 (stamp [1,1]) then T2 (stamp [3,1]). A
        // snapshot reader T5 slots into the gap: after T1, before T2.
        let trace = Trace::from_records(vec![
            encode(0, 0, 1, vec![(1, 0, 1), (1, 1, 1)]),
            rec(1, TraceEvent::VersionInstall { writer: TxId(1), item: ItemId(0) }),
            encode(2, 1, 2, vec![(2, 0, 3), (2, 1, 1)]),
            rec(3, TraceEvent::VersionInstall { writer: TxId(2), item: ItemId(0) }),
            encode(4, 1, 5, vec![(5, 0, 2)]),
            rec(5, TraceEvent::VersionRead { tx: TxId(5), item: ItemId(0), writer: TxId(1) }),
        ]);
        let report = audit(&trace, 2);
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.version_reads, 1);
    }

    #[test]
    fn version_read_outside_the_gap_is_flagged() {
        // Reader T5 is ordered after BOTH writers but claims T1's version:
        // it is not below the later chain writer T2.
        let trace = Trace::from_records(vec![
            encode(0, 0, 1, vec![(1, 0, 1), (1, 1, 1)]),
            rec(1, TraceEvent::VersionInstall { writer: TxId(1), item: ItemId(0) }),
            encode(2, 1, 2, vec![(2, 0, 3), (2, 1, 1)]),
            rec(3, TraceEvent::VersionInstall { writer: TxId(2), item: ItemId(0) }),
            encode(4, 2, 5, vec![(5, 0, 4)]),
            rec(5, TraceEvent::VersionRead { tx: TxId(5), item: ItemId(0), writer: TxId(1) }),
        ]);
        let report = audit(&trace, 2);
        assert!(!report.is_clean());
        assert!(report.violations[0].contains("not ordered before"), "{}", report.summary());
    }

    #[test]
    fn an_ignored_write_below_a_read_bound_is_flagged() {
        // T3 ([3,1]) wrote item 0 blind over T1 ([1,1]); reader T5 at
        // position 3 was served T1's version. A writer the Thomas rule then
        // ignores under WT = T3 sits between T1 and T3: at column 0 = 2 it
        // is below the reader, whose read missed it; at [3,0] it is above.
        let history = |writer_first: Vec<(u32, usize, i64)>| {
            Trace::from_records(vec![
                encode(0, 0, 1, vec![(1, 0, 1), (1, 1, 1)]),
                rec(1, TraceEvent::VersionInstall { writer: TxId(1), item: ItemId(0) }),
                encode(2, 0, 3, vec![(3, 0, 3), (3, 1, 1)]),
                rec(3, TraceEvent::VersionInstall { writer: TxId(3), item: ItemId(0) }),
                rec(4, TraceEvent::ReaderBound { tx: TxId(5), bound: 3 }),
                rec(5, TraceEvent::VersionRead { tx: TxId(5), item: ItemId(0), writer: TxId(1) }),
                encode(6, 0, 2, writer_first),
                rec(
                    7,
                    TraceEvent::Access {
                        tx: TxId(2),
                        item: ItemId(0),
                        kind: OpKind::Write,
                        rt: TxId(0),
                        wt: TxId(3),
                        outcome: AccessOutcome::GrantedIgnored,
                    },
                ),
            ])
        };
        let above = audit(&history(vec![(2, 0, 3), (2, 1, 0)]), 2);
        assert!(above.is_clean(), "{}", above.summary());
        let below = audit(&history(vec![(2, 0, 2)]), 2);
        assert!(!below.is_clean());
        assert!(
            below.violations[0].contains("ignored below the read bound"),
            "{}",
            below.summary()
        );
    }

    #[test]
    fn stamp_fill_must_saturate_and_respect_write_once() {
        use crate::event::EncodedChanges;
        // T1 has element 0 defined; the fill defines element 1 → clean.
        let ok = Trace::from_records(vec![
            encode(0, 0, 1, vec![(1, 0, 1)]),
            rec(
                1,
                TraceEvent::StampFill {
                    tx: TxId(1),
                    changes: EncodedChanges::one((TxId(1), 1, 7)),
                },
            ),
        ]);
        assert!(audit(&ok, 2).is_clean());
        // Redefining element 0 is a write-once violation, and the vector
        // is still unsaturated.
        let bad = Trace::from_records(vec![
            encode(0, 0, 1, vec![(1, 0, 1)]),
            rec(
                1,
                TraceEvent::StampFill {
                    tx: TxId(1),
                    changes: EncodedChanges::one((TxId(1), 0, 9)),
                },
            ),
        ]);
        let report = audit(&bad, 2);
        assert!(report.violations.iter().any(|v| v.contains("write-once")));
        assert!(report.violations.iter().any(|v| v.contains("undefined elements")));
    }

    #[test]
    fn undecided_committed_conflict_is_flagged() {
        // Two writers on one item committed without ever being ordered.
        let trace = Trace::from_records(vec![
            access(0, 1, 0, OpKind::Write, 1, 1),
            access(1, 2, 0, OpKind::Write, 2, 2),
            rec(2, TraceEvent::Commit { tx: TxId(1) }),
            rec(3, TraceEvent::Commit { tx: TxId(2) }),
        ]);
        let report = audit(&trace, 2);
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| v.contains("not in TO(2)")));
    }
}
