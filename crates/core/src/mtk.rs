//! Algorithm 1 — the protocol MT(k), as the sequential oracle.
//!
//! The scheduler keeps the timestamp table of Fig. 2 and, for each arriving
//! operation by `T_i` on item `x`, runs the access rule of the `algo1`
//! module:
//!
//! 1. picks `j` — the *larger* of `RT(x)` and `WT(x)` under the vector
//!    order (lines 5–6);
//! 2. calls `Set(j, i)` to check or encode the dependency `T_j → T_i`
//!    (procedure `Set`, lines 15–20);
//! 3. on success updates `RT(x)`/`WT(x)` and accepts; a read that cannot be
//!    ordered after the latest *reader* may still proceed if it is ordered
//!    after the latest *writer* (lines 9–10); otherwise the transaction
//!    must abort.
//!
//! What is this scheduler's own is the state around the rule: one
//! `&mut self` table, the per-transaction footprint an abort rolls back,
//! the shielded `RT` slots that rollback must not touch, and the access
//! counts behind the III-D-5 hot-item trigger.
//!
//! Optional refinements from the paper are behind [`MtOptions`]:
//! the Thomas write rule (III-D-6c), the starvation-avoidance flush
//! (III-D-4), the relaxed reader rule (remark after Theorem 3), and the
//! hot-item right-end encoding (III-D-5).

use std::collections::HashMap;

use mdts_model::{ItemId, OpKind, Operation, TxId};
use mdts_trace::event::{scalar_cost, tree_cost, AccessOutcome};
use mdts_trace::{TraceEvent, TraceSink};
use mdts_vector::{CmpResult, TsVec};

use crate::algo1::{self, Encoding};
use crate::table::TimestampTable;

/// Hot-item encoding configuration (Section III-D-5).
///
/// When a dependency is created by an access to an item whose observed
/// access count is at least `threshold`, the dependency is encoded *near
/// the right end* of the vectors: the already-defined prefix of the earlier
/// transaction's vector is copied into the later one's, and the order is
/// encoded at the first column where both are then undefined. Vectors that
/// shared the old prefix remain unordered with respect to the later
/// transaction, preserving concurrency.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HotEncoding {
    /// Minimum access count for an item to be treated as hot.
    pub threshold: u64,
}

/// Configuration for [`MtScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct MtOptions {
    /// Vector dimension `k ≥ 1`. Theorem 3: `k = 2q − 1` suffices for
    /// transactions of at most `q` operations.
    pub k: usize,
    /// Enable lines 9–10 (a read that cannot be ordered after the latest
    /// reader proceeds if already ordered after the latest writer). On by
    /// default — this is Algorithm 1 as published. The composite protocol
    /// runs with it off (the paper's simplifying assumption for
    /// Theorem 5).
    pub reader_rule: bool,
    /// Replace the line-9 condition `TS(WT(x)) < TS(i)` by `Set(WT(x), i)`
    /// — the higher-concurrency variant noted after Theorem 3 (it may
    /// *encode* the order rather than require it pre-existing).
    pub relaxed_reader_rule: bool,
    /// Thomas write rule (III-D-6c): a write that is ordered after all
    /// readers but before the latest writer is *ignored* instead of
    /// aborting the transaction.
    pub thomas_write_rule: bool,
    /// Starvation avoidance (III-D-4): on abort, remember the blocker's
    /// first timestamp element so the restart begins with
    /// `TS(i) = ⟨TS(j,1) + 1, *, …⟩` and cannot hit the same rejection.
    pub starvation_flush: bool,
    /// Hot-item right-end encoding (III-D-5).
    pub hot_encoding: Option<HotEncoding>,
    /// Memoize *decided* comparisons (`TS(a) < TS(b)` / `>`) in a write-once
    /// [`OrderCache`](mdts_vector::OrderCache). Read only by
    /// [`SharedMtScheduler`](crate::SharedMtScheduler); this sequential
    /// scheduler compares the vectors every time. On by default.
    pub order_cache: bool,
}

impl MtOptions {
    /// Algorithm 1 defaults for dimension `k`.
    pub fn new(k: usize) -> Self {
        MtOptions {
            k,
            reader_rule: true,
            relaxed_reader_rule: false,
            thomas_write_rule: false,
            starvation_flush: false,
            hot_encoding: None,
            order_cache: true,
        }
    }

    /// The configuration the composite protocol uses for its subprotocols:
    /// lines 9–10 disabled.
    pub fn for_composite(k: usize) -> Self {
        MtOptions { reader_rule: false, ..MtOptions::new(k) }
    }
}

/// Why an operation was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Reject {
    /// The transaction whose operation was rejected (it must abort).
    pub tx: TxId,
    /// The transaction whose timestamp vector blocked it (`TS(against) >
    /// TS(tx)` at the deciding column) — or `T₀` when no holder did: a
    /// snapshot reader's read bound refused the write (see
    /// [`by_read_bound`](Self::by_read_bound)).
    pub against: TxId,
    /// The item whose access created the impossible dependency.
    pub item: ItemId,
    /// The vector column whose already-encoded order decided the refusal.
    pub column: usize,
}

impl Reject {
    /// Whether a snapshot reader's read bound refused the write rather
    /// than a holder's vector (`SharedMtScheduler::access_held`). `T₀`'s
    /// `⟨0, *, …⟩` is below every vector the access rule grants, so it never
    /// refuses by Definition 6 and can stand for the bound.
    pub fn by_read_bound(&self) -> bool {
        self.against.is_virtual()
    }
}

/// Scheduler verdict for one operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Operation accepted. `ignored` lists items whose writes were dropped
    /// by the Thomas write rule (empty in the common case).
    Accept {
        /// Items whose write was ignored rather than applied.
        ignored: Vec<ItemId>,
    },
    /// Operation rejected; the transaction must abort (and may restart).
    Reject(Reject),
}

impl Decision {
    /// Plain full acceptance.
    pub fn accept() -> Decision {
        Decision::Accept { ignored: Vec::new() }
    }

    /// Whether the operation may proceed.
    pub fn is_accept(&self) -> bool {
        matches!(self, Decision::Accept { .. })
    }
}

/// Which table slot a footprint entry refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Slot {
    Rt,
    Wt,
}

/// The MT(k) scheduler.
#[derive(Clone, Debug)]
pub struct MtScheduler {
    opts: MtOptions,
    table: TimestampTable,
    /// Per-item access counts for hot-item detection.
    access_counts: Vec<u64>,
    /// Starvation-restart hints: aborted tx → first element for its restart.
    restart_hints: HashMap<TxId, i64>,
    /// Per-transaction undo information for the `RT`/`WT` indices: the
    /// `(item, slot, previous holder)` triples this transaction displaced.
    /// An abort rolls these back so a restart re-derives its timestamps
    /// from the pre-abort state — the semantics the Fig. 5 starvation
    /// scenario assumes.
    footprint: HashMap<TxId, Vec<(ItemId, Slot, TxId)>>,
    /// Finished (committed or abort-anchored) transactions whose vectors
    /// are still pinned by `RT`/`WT` references; reclaimed the moment they
    /// are displaced (III-D-6b).
    finished: std::collections::HashSet<TxId>,
    /// Items whose `RT` chain shields invisible readers: a lines-9–10
    /// acceptance did not update `RT`, so the accepted reader's only
    /// protection against later writers is the decided order
    /// `reader < RT(x)`. Rolling `RT(x)` back on abort can erase it — a
    /// later writer could then slip *between* the invisible reader's read
    /// and its own write-validation without ever being compared against
    /// either (a lost update). For these items an aborting `RT` holder is
    /// left in place as an inert anchor instead. The mark is sticky:
    /// displacing the holder transfers the protection to the new holder,
    /// but a rollback of *that* holder's abort would silently restore the
    /// old anchor, so rollback stays disabled for the item's `RT` slot for
    /// good.
    shielded: std::collections::HashSet<ItemId>,
    /// Decision-trace sink (disabled by default; see `mdts-trace`).
    /// Cloning the scheduler shares the sink's buffer.
    trace: TraceSink,
}

impl MtScheduler {
    /// New scheduler with the given options.
    pub fn new(opts: MtOptions) -> Self {
        assert!(opts.k >= 1);
        MtScheduler {
            table: TimestampTable::new(opts.k),
            opts,
            access_counts: Vec::new(),
            restart_hints: HashMap::new(),
            footprint: HashMap::new(),
            finished: std::collections::HashSet::new(),
            shielded: std::collections::HashSet::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// MT(k) with default options.
    pub fn with_k(k: usize) -> Self {
        MtScheduler::new(MtOptions::new(k))
    }

    /// The options in force.
    pub fn options(&self) -> &MtOptions {
        &self.opts
    }

    /// The timestamp table (read-only).
    pub fn table(&self) -> &TimestampTable {
        &self.table
    }

    /// Mutable access to the timestamp table — for harnesses and the
    /// distributed protocol, which seed tables with pre-existing vectors
    /// or site-tagged counters. Mutations must respect the write-once
    /// element discipline or the protocol's guarantees are void.
    pub fn table_mut(&mut self) -> &mut TimestampTable {
        &mut self.table
    }

    /// Installs an explicit vector for `tx`, replacing any existing row —
    /// used to seed scenarios (e.g. the paper's Table II bystander `T₄`)
    /// and by DMT(k)'s remote-vector cache.
    pub fn install_vector(&mut self, tx: TxId, vector: TsVec) {
        self.table.install(tx, vector);
    }

    /// Routes the scheduler's decision trace to `sink` (replacing any
    /// previous sink). A [`TraceBuffer::journal`](mdts_trace::TraceBuffer::journal)
    /// keeps every event — the `Set` edges of the paper's tables included.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// The trace sink in force.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Registers a transaction (idempotent). Operations register their
    /// transaction implicitly; this exists for symmetry with the engine.
    pub fn begin(&mut self, tx: TxId) {
        self.table.ensure_tx(tx);
    }

    /// Registers a restart of `aborted`: if the starvation fix recorded a
    /// hint for it, the new incarnation starts with
    /// `TS = ⟨TS(blocker,1)+1, *, …⟩` (Section III-D-4). `new_tx` may equal
    /// `aborted` (the paper's in-place flush) or be a fresh id (the
    /// engine's restart style).
    pub fn begin_restarted(&mut self, new_tx: TxId, aborted: TxId) {
        let hint = self.restart_hints.get(&aborted).copied();
        self.trace.emit(|| TraceEvent::Restart { tx: new_tx, aborted, hint });
        // The III-D-4 flush reuses the aborted incarnation's vector storage
        // in place (spilled rows keep their boxes) instead of reallocating.
        match self.restart_hints.remove(&aborted) {
            Some(first) => self.table.flush_in_place(new_tx, Some(first)),
            None => {
                if new_tx == aborted {
                    self.table.flush_in_place(new_tx, None);
                } else {
                    self.table.ensure_tx(new_tx);
                }
            }
        }
    }

    /// Notes a commit, journals it, and attempts storage reclamation
    /// (III-D-6b). Returns whether the vector row could be dropped
    /// already.
    pub fn commit(&mut self, tx: TxId) -> bool {
        self.trace.emit(|| TraceEvent::Commit { tx });
        self.commit_unjournaled(tx)
    }

    /// [`commit`](Self::commit) without the journal record, for a caller
    /// that journals the commit itself (the engine).
    pub fn commit_unjournaled(&mut self, tx: TxId) -> bool {
        self.restart_hints.remove(&tx);
        self.footprint.remove(&tx);
        if self.table.reclaim(tx) {
            return true;
        }
        // Still the most recent reader/writer of some item: remember it so
        // the row is reclaimed as soon as it is displaced.
        self.finished.insert(tx);
        false
    }

    /// Reclaims `prev` if it finished earlier and is no longer referenced.
    fn reclaim_if_superseded(&mut self, prev: TxId) {
        if self.finished.contains(&prev) && self.table.reclaim(prev) {
            self.finished.remove(&prev);
        }
    }

    /// Notes an abort: rolls the transaction's `RT`/`WT` footprint back to
    /// the previous holders, then drops its vector if nothing references it
    /// anymore.
    ///
    /// Two cases keep the slot pointing at the aborted transaction instead,
    /// its vector staying behind as an inert anchor for the ordering
    /// constraints other transactions already encoded against it
    /// (conservative but safe — extra constraints never violate
    /// serializability):
    ///
    /// * the previous holder's vector has since been reclaimed, or
    /// * the slot is a *shielded* `RT` — an invisible lines-9–10 reader
    ///   depends on the decided order `reader < RT(x)`, and rolling the
    ///   slot back past its anchor would let a later writer slip between
    ///   that reader's read and its write-validation unchecked (a lost
    ///   update). See [`MtScheduler::read`].
    pub fn abort(&mut self, tx: TxId) {
        self.trace.emit(|| TraceEvent::Abort { tx });
        if let Some(entries) = self.footprint.remove(&tx) {
            for (item, slot, prev) in entries.into_iter().rev() {
                let current = match slot {
                    Slot::Rt => self.table.rt(item),
                    Slot::Wt => self.table.wt(item),
                };
                if slot == Slot::Rt && self.shielded.contains(&item) {
                    continue;
                }
                if current == tx && self.table.ts(prev).is_some() {
                    match slot {
                        Slot::Rt => self.table.set_rt(item, prev),
                        Slot::Wt => self.table.set_wt(item, prev),
                    }
                }
            }
        }
        if !self.table.reclaim(tx) {
            // Left behind as an anchor somewhere: reclaim on displacement.
            self.finished.insert(tx);
        }
    }

    fn set_rt_tracked(&mut self, item: ItemId, tx: TxId) {
        let prev = self.table.rt(item);
        if prev != tx {
            // Note the shield stays even though the new holder is ordered
            // after the old one (protections transfer): if the new holder
            // aborts, its rollback would restore the old anchor with no
            // record that invisible readers still hide behind it.
            self.footprint.entry(tx).or_default().push((item, Slot::Rt, prev));
            self.table.set_rt(item, tx);
            self.reclaim_if_superseded(prev);
        }
    }

    fn set_wt_tracked(&mut self, item: ItemId, tx: TxId) {
        let prev = self.table.wt(item);
        if prev != tx {
            self.footprint.entry(tx).or_default().push((item, Slot::Wt, prev));
            self.table.set_wt(item, tx);
            self.reclaim_if_superseded(prev);
        }
    }

    /// Public form of procedure `Set(j, i)`: try to establish (or verify)
    /// `TS(j) < TS(i)`, encoding a new dependency if the order is open.
    /// Returns `false` iff the vectors already say `TS(j) > TS(i)`.
    ///
    /// This is the building block the hierarchical protocol MT(k₁,k₂) and
    /// the decentralized DMT(k) reuse for their own tables.
    pub fn order(&mut self, j: TxId, i: TxId) -> bool {
        self.set_less(j, i, false).is_ok()
    }

    fn bump_access(&mut self, item: ItemId) -> bool {
        let idx = item.index();
        if idx >= self.access_counts.len() {
            self.access_counts.resize(idx + 1, 0);
        }
        self.access_counts[idx] += 1;
        match self.opts.hot_encoding {
            Some(h) => self.access_counts[idx] >= h.threshold,
            None => false,
        }
    }

    /// Procedure `Set(j, i)`: ensure `TS(j) < TS(i)`, encoding a new
    /// dependency if the order is still open ([`algo1::set`] with the
    /// origin floor — this table never stamps — and, for a `hot` item,
    /// III-D-5's right-end encoding). `Err` carries the refusing column.
    fn set_less(&mut self, j: TxId, i: TxId, hot: bool) -> Result<(), usize> {
        if j == i {
            return Ok(()); // line 15
        }
        self.table.ensure_tx(j);
        self.table.ensure_tx(i);
        let k = self.opts.k;
        let cmp = self.table.compare(j, i);
        self.trace.emit(|| TraceEvent::Compare {
            a: j,
            b: i,
            result: cmp,
            scalar_ops: scalar_cost(cmp, k),
            tree_steps: tree_cost(k),
            cached: false,
        });
        let outcome = algo1::set(
            cmp,
            (j, self.table.ts_expect(j)),
            (i, self.table.ts_expect(i)),
            algo1::origin_floor,
            if hot { Encoding::RightEnd } else { Encoding::Plain },
            self.table.counters(),
        );
        algo1::apply(&outcome, cmp, |t, m, v| self.table.ts_mut(t).define(m, v));
        algo1::emit_set(&self.trace, j, i, outcome)
    }

    fn note_reject(&mut self, tx: TxId, against: TxId) {
        if self.opts.starvation_flush {
            // Blocker's first element is defined whenever Set refused (the
            // deciding column has both elements defined; column 0 is at or
            // before it and hence defined-equal or the decider itself).
            if let Some(first) = self.table.ts_expect(against).get(0) {
                self.restart_hints.insert(tx, first + 1);
            }
        }
    }

    /// Schedules a read of `item` by `tx` (the `read` arm of `Scheduler`).
    pub fn read(&mut self, tx: TxId, item: ItemId) -> Decision {
        self.access(tx, item, OpKind::Read)
    }

    /// Schedules a write of `item` by `tx` (the `write` arm of `Scheduler`).
    pub fn write(&mut self, tx: TxId, item: ItemId) -> Decision {
        self.access(tx, item, OpKind::Write)
    }

    /// [`algo1::access`] on this table, then the holder update: line 7 or
    /// 12 on a grant; on an invisible lines 9–10 read, the shield. Such a
    /// read does not update `RT(x)`, so its only protection against later
    /// writers is the decided order `tx < RT(x)` — an abort of the holder
    /// must not roll that anchor away.
    fn access(&mut self, tx: TxId, item: ItemId, kind: OpKind) -> Decision {
        self.table.ensure_tx(tx);
        let hot = self.bump_access(item);
        let (rt, wt) = (self.table.rt(item), self.table.wt(item));
        let opts = self.opts;
        let outcome = algo1::access(&mut Oracle { s: self, hot }, &opts, tx, kind, rt, wt);
        self.trace.emit(|| TraceEvent::Access { tx, item, kind, rt, wt, outcome });
        match (outcome, kind) {
            (AccessOutcome::Granted, OpKind::Read) => self.set_rt_tracked(item, tx), // line 7
            (AccessOutcome::Granted, OpKind::Write) => self.set_wt_tracked(item, tx), // line 12
            (AccessOutcome::GrantedInvisible, _) => {
                self.shielded.insert(item);
            }
            _ => {}
        }
        algo1::decision(tx, item, outcome)
    }

    /// Schedules a whole (possibly multi-item) operation. Items are
    /// processed in ascending order; the first rejection rejects the
    /// operation (element definitions made for earlier items remain — they
    /// are valid constraints regardless, and the issuing transaction aborts
    /// anyway).
    pub fn process(&mut self, op: &Operation) -> Decision {
        algo1::process(op, |tx, item, kind| self.access(tx, item, kind))
    }
}

/// The oracle as the access rule sees it. `hot` (III-D-5) applies to the
/// access's first `Set` — the one against the larger holder.
struct Oracle<'a> {
    s: &'a mut MtScheduler,
    hot: bool,
}

impl algo1::OrderTable for Oracle<'_> {
    fn order_of(&mut self, a: TxId, b: TxId) -> CmpResult {
        // RT/WT always point at live vectors (reclamation refuses while
        // referenced), but a defensive ensure keeps the invariant local.
        self.s.table.ensure_tx(a);
        self.s.table.ensure_tx(b);
        self.s.table.compare(a, b)
    }

    fn set(&mut self, j: TxId, i: TxId) -> Result<(), usize> {
        let hot = std::mem::take(&mut self.hot);
        self.s.set_less(j, i, hot)
    }

    fn note_reject(&mut self, tx: TxId, against: TxId) {
        self.s.note_reject(tx, against);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdts_model::Log;
    use mdts_trace::event::{EncodedChanges, SetEdgeOutcome};

    fn run(sched: &mut MtScheduler, log: &Log) -> Option<usize> {
        for (pos, op) in log.ops().iter().enumerate() {
            if !sched.process(op).is_accept() {
                return Some(pos);
            }
        }
        None
    }

    #[test]
    fn first_op_defines_first_element() {
        let mut s = MtScheduler::with_k(2);
        assert!(s.read(TxId(1), ItemId(0)).is_accept());
        assert_eq!(s.table().ts_expect(TxId(1)).to_string(), "<1,*>");
        assert_eq!(s.table().rt(ItemId(0)), TxId(1));
    }

    #[test]
    fn conflicting_write_after_later_writer_rejected() {
        // W1[x] W2[x] then W1[x] again: T1 < T2 already encoded, so T1's
        // second write (needing T2 → T1) is refused.
        let mut s = MtScheduler::with_k(2);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        let d = s.write(TxId(1), ItemId(0));
        assert_eq!(
            d,
            Decision::Reject(Reject { tx: TxId(1), against: TxId(2), item: ItemId(0), column: 0 })
        );
    }

    #[test]
    fn reader_rule_lets_late_reader_through() {
        // W1[x], R2[x], R3[x], then R2[x] again: RT(x) = T3 > T2, but T2 is
        // ordered after the writer T1, so lines 9–10 accept the re-read
        // without updating RT.
        let mut s = MtScheduler::with_k(3);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert!(s.read(TxId(2), ItemId(0)).is_accept());
        assert!(s.read(TxId(3), ItemId(0)).is_accept());
        assert!(s.read(TxId(2), ItemId(0)).is_accept(), "line 9 applies");
        assert_eq!(s.table().rt(ItemId(0)), TxId(3), "RT unchanged by line 10");

        // Without the reader rule the same re-read aborts.
        let mut s2 = MtScheduler::new(MtOptions { reader_rule: false, ..MtOptions::new(3) });
        assert!(s2.write(TxId(1), ItemId(0)).is_accept());
        assert!(s2.read(TxId(2), ItemId(0)).is_accept());
        assert!(s2.read(TxId(3), ItemId(0)).is_accept());
        assert!(!s2.read(TxId(2), ItemId(0)).is_accept());
    }

    #[test]
    fn example1_vectors_match_paper() {
        // Section I-A: after W1[x] W1[y] R3[x] R2[y] the vectors are
        // T1 = <1,*>, T2 = <2,*>, T3 = <2,*> — T2 and T3 share a value.
        let mut s = MtScheduler::with_k(2);
        let log = Log::parse("W1[x] W1[y] R3[x] R2[y]").unwrap();
        assert_eq!(run(&mut s, &log), None);
        assert_eq!(s.table().ts_expect(TxId(1)).to_string(), "<1,*>");
        assert_eq!(s.table().ts_expect(TxId(2)).to_string(), "<2,*>");
        assert_eq!(s.table().ts_expect(TxId(3)).to_string(), "<2,*>");

        // Continue with R2[y'] W3[y]: the 2nd dimension encodes T2 → T3.
        assert!(s.read(TxId(2), ItemId(2)).is_accept()); // y'
        assert!(s.write(TxId(3), ItemId(1)).is_accept()); // y
        assert_eq!(s.table().ts_expect(TxId(2)).to_string(), "<2,1>");
        assert_eq!(s.table().ts_expect(TxId(3)).to_string(), "<2,2>");
        let order = s.table().serial_order(&[TxId(1), TxId(2), TxId(3)]).unwrap();
        assert_eq!(order, vec![TxId(1), TxId(2), TxId(3)], "serializability order T1 T2 T3");
    }

    #[test]
    fn mt1_rejects_what_mt2_accepts() {
        // The same Example 1 log needs dimension 2: MT(1) must abort T3 at
        // W3[y] (T2 and T3 got totally ordered T3 < T2 up front).
        let log = Log::parse("W1[x] W1[y] R3[x] R2[y] R2[y'] W3[y]").unwrap();
        let mut k1 = MtScheduler::with_k(1);
        assert_eq!(run(&mut k1, &log), Some(5), "MT(1) rejects at W3[y]");
        let mut k2 = MtScheduler::with_k(2);
        assert_eq!(run(&mut k2, &log), None, "MT(2) accepts");
    }

    #[test]
    fn thomas_write_rule_ignores_obsolete_write() {
        // W1[x] W2[x] W1[x]: T1's late write is older than T2's — with the
        // rule on, it is ignored; WT stays T2.
        let opts = MtOptions { thomas_write_rule: true, ..MtOptions::new(2) };
        let mut s = MtScheduler::new(opts);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        let d = s.write(TxId(1), ItemId(0));
        assert_eq!(d, Decision::Accept { ignored: vec![ItemId(0)] });
        assert_eq!(s.table().wt(ItemId(0)), TxId(2));
    }

    #[test]
    fn thomas_rule_does_not_mask_reader_conflicts() {
        // The rule only applies when the *writer* blocks (j = WT). If the
        // latest reader is ordered after the incoming write, ignoring the
        // write would lose an update that the reader should have seen, so
        // the transaction must abort: W2[x] R1[z] W3[z] R3[x] then W1[x].
        let opts = MtOptions { thomas_write_rule: true, ..MtOptions::new(3) };
        let mut s = MtScheduler::new(opts);
        assert!(s.write(TxId(2), ItemId(0)).is_accept()); // W2[x]
        assert!(s.read(TxId(1), ItemId(2)).is_accept()); // R1[z]
        assert!(s.write(TxId(3), ItemId(2)).is_accept()); // W3[z]: T1 < T3
        assert!(s.read(TxId(3), ItemId(0)).is_accept()); // R3[x]: RT(x)=T3 > WT(x)=T2
        let d = s.write(TxId(1), ItemId(0));
        assert!(
            matches!(d, Decision::Reject(Reject { against: TxId(3), .. })),
            "reader T3 blocks: {d:?}"
        );
    }

    #[test]
    fn starvation_hint_recorded_and_used() {
        // Fig. 5: W1[x] W2[x] R3[y] W3[x] — T3 rejected; with the fix its
        // restart is pre-ordered after T2 and succeeds.
        let opts = MtOptions { starvation_flush: true, ..MtOptions::new(2) };
        let mut s = MtScheduler::new(opts);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        assert!(s.read(TxId(3), ItemId(1)).is_accept());
        assert!(!s.write(TxId(3), ItemId(0)).is_accept());
        // Abort, then restart in place (the paper's flush).
        s.abort(TxId(3));
        s.begin_restarted(TxId(3), TxId(3));
        assert_eq!(s.table().ts_expect(TxId(3)).to_string(), "<3,*>");
        assert!(s.read(TxId(3), ItemId(1)).is_accept());
        assert!(s.write(TxId(3), ItemId(0)).is_accept(), "restart proceeds to the end");
    }

    #[test]
    fn without_fix_restart_starves_again() {
        let mut s = MtScheduler::with_k(2);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        assert!(s.read(TxId(3), ItemId(1)).is_accept());
        assert!(!s.write(TxId(3), ItemId(0)).is_accept());
        // Abort rolls RT(y) back to T0, so the restarted T3 re-derives the
        // very same TS(3) = <1,*> and hits the very same rejection.
        s.abort(TxId(3));
        assert_eq!(s.table().rt(ItemId(1)), TxId(0), "footprint rolled back");
        s.begin_restarted(TxId(3), TxId(3)); // plain flush, no hint
        assert!(s.read(TxId(3), ItemId(1)).is_accept());
        assert_eq!(s.table().ts_expect(TxId(3)).to_string(), "<1,*>");
        assert!(!s.write(TxId(3), ItemId(0)).is_accept(), "same situation repeats");
    }

    #[test]
    fn hot_encoding_copies_prefix() {
        // Section III-D-5's illustration: T1 = <1,3,*,*>, T2 fresh; hot
        // encoding yields T1 = <1,3,1,*>, T2 = <1,3,2,*>.
        let opts =
            MtOptions { hot_encoding: Some(HotEncoding { threshold: 0 }), ..MtOptions::new(4) };
        let mut s = MtScheduler::new(opts);
        s.table.install(TxId(1), TsVec::from_elems(&[Some(1), Some(3), None, None]));
        s.table.set_wt(ItemId(0), TxId(1));
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        assert_eq!(s.table().ts_expect(TxId(1)).to_string(), "<1,3,1,*>");
        assert_eq!(s.table().ts_expect(TxId(2)).to_string(), "<1,3,2,*>");
    }

    #[test]
    fn commit_reclaims_unreferenced_rows() {
        let mut s = MtScheduler::with_k(2);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert!(!s.commit(TxId(1)), "still WT(x): row pinned");
        assert_eq!(s.table().live_rows(), 2);
        // Being displaced as WT(x) reclaims the committed row eagerly.
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        assert_eq!(s.table().live_rows(), 2, "only T0 and T2 remain");
        assert!(s.table().ts(TxId(1)).is_none(), "T1 reclaimed on displacement");
    }

    #[test]
    fn events_journal_records_encodings() {
        let journal = mdts_trace::TraceBuffer::journal();
        let mut s = MtScheduler::with_k(2);
        s.attach_trace(TraceSink::to(&journal));
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        let edges: Vec<TraceEvent> = journal
            .snapshot()
            .events()
            .filter(|e| matches!(e, TraceEvent::SetEdge { .. }))
            .cloned()
            .collect();
        assert_eq!(
            edges,
            [TraceEvent::SetEdge {
                from: TxId(0),
                to: TxId(1),
                outcome: SetEdgeOutcome::Encoded { changes: EncodedChanges::one((TxId(1), 0, 1)) },
            }]
        );
    }

    #[test]
    fn multi_item_op_rejects_atomically() {
        let mut s = MtScheduler::with_k(1);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert!(s.write(TxId(2), ItemId(1)).is_accept());
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        // T1 writing {y, x}: y fine, x refused (T2 is newer) → whole op rejected.
        let op = Operation::new(TxId(1), OpKind::Write, vec![ItemId(1), ItemId(0)]);
        assert!(!s.process(&op).is_accept());
    }
}
