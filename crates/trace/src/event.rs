//! The typed event vocabulary every scheduler layer reports in.
//!
//! One enum covers the whole stack: `Set(j, i)` edges and element
//! assignments from the core protocol, access decisions with the structured
//! abort-reason taxonomy, engine-level block/wake and abort events, and
//! DMT(k) site/lock/message hops. Events carry transaction and item ids
//! plus the raw decision operands, so the [`crate::audit`](mod@crate::audit) module can
//! re-check every decision without access to the scheduler that made it.
//!
//! [`TraceEvent`] and the tag enums inside it are declared through
//! `journal_enum!`: each variant's journal tag (`Begin = "begin"`) and
//! fields are stated once, and the variant's `name`, its JSONL encoding
//! and its decoding all follow from that statement.

use mdts_model::{ItemId, OpKind, TxId};
use mdts_vector::CmpResult;

use crate::codec::journal_enum;

journal_enum! {
    /// Which protocol rule decided a rejected access (the fine-grained half
    /// of the abort-reason taxonomy; the engine-level half is
    /// [`AbortReason`]).
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub enum RejectRule {
        /// A plain Definition 6 reject: the holder is already ordered after
        /// the requester and no relaxation applied.
        VectorOrder = "vector_order",
        /// The line 9–10 reader rule was attempted (the read was rejected by
        /// RT) but the requester could not be ordered after the writer.
        ReaderRule = "reader_rule",
        /// The Thomas write rule was attempted (the write was rejected by
        /// WT) but the requester could not be ordered after the reader.
        ThomasRule = "thomas_rule",
        /// A write the access rule granted lands below the read bound a
        /// snapshot reader raised (`against` is `T₀`): the reader already
        /// read the item at a position above the writer's column 0.
        ReadBound = "read_bound",
    }
}

journal_enum! {
    /// Why the engine tore down a transaction incarnation.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub enum AbortReason {
        /// A read or write was refused by the protocol mid-transaction.
        AccessRejected = "access_rejected",
        /// Commit-time validation (the deferred-write schedule) was refused.
        ValidationRejected = "validation_rejected",
        /// The transaction straddled an `AbortAll` epoch fence.
        Epoch = "epoch",
        /// Commit-time validation found a write below the read bound a
        /// snapshot reader raised on the item's lock.
        ReadBound = "read_bound",
    }
}

journal_enum! {
    /// Which telemetry rule raised an alert (the stall detector's taxonomy;
    /// the detector itself lives in `mdts-telemetry`, but the rule names
    /// are part of the trace vocabulary so alerts can ride the event
    /// stream).
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub enum StallRule {
        /// Per-window commit throughput collapsed versus its trailing mean.
        ThroughputCollapse = "throughput_collapse",
        /// Per-window aborts spiked versus their trailing mean.
        AbortSpike = "abort_spike",
        /// The PR 6 starved-writer signature: snapshot reads keep rising
        /// while update-lane commits flatline.
        WriterStarvation = "writer_starvation",
    }
}

/// One timestamp-element assignment: `(transaction, 0-based element,
/// value)` — the paper's "(transaction, dimension, value)" triple.
pub type Change = (TxId, usize, i64);

/// The element definitions one `Set` edge performed, in order.
///
/// Algorithm 1 defines at most two elements per call (the two sides of an
/// `EqualUndefined`), so the common case is stored inline and emitting a
/// `SetEdge` event allocates nothing; only the III-D-5 hot-item prefix
/// copy (up to k assignments) spills to a heap vector. Dereferences to a
/// `[Change]` slice, so consumers iterate it like the `Vec` it replaced.
#[derive(Clone)]
pub struct EncodedChanges {
    /// Inline storage, valid for `..len` when `spill` is empty.
    inline: [Change; 2],
    len: u8,
    /// Overflow storage; when non-empty it holds *all* the changes.
    spill: Vec<Change>,
}

impl EncodedChanges {
    const EMPTY: Change = (TxId::VIRTUAL, 0, 0);

    /// A single assignment (the `?` cases of procedure `Set`).
    pub fn one(c: Change) -> Self {
        EncodedChanges { inline: [c, Self::EMPTY], len: 1, spill: Vec::new() }
    }

    /// Two assignments (the `=` case: both sides of the open column).
    pub fn pair(a: Change, b: Change) -> Self {
        EncodedChanges { inline: [a, b], len: 2, spill: Vec::new() }
    }

    /// The assignments as a slice, in encode order.
    #[inline]
    pub fn as_slice(&self) -> &[Change] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }
}

impl From<Vec<Change>> for EncodedChanges {
    /// Packs short change lists inline; longer ones (the hot-item prefix
    /// copy) keep the vector as spill storage.
    fn from(v: Vec<Change>) -> Self {
        match *v.as_slice() {
            [] => EncodedChanges { inline: [Self::EMPTY; 2], len: 0, spill: Vec::new() },
            [a] => Self::one(a),
            [a, b] => Self::pair(a, b),
            _ => EncodedChanges { inline: [Self::EMPTY; 2], len: 0, spill: v },
        }
    }
}

impl FromIterator<Change> for EncodedChanges {
    fn from_iter<I: IntoIterator<Item = Change>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<_>>().into()
    }
}

impl std::ops::Deref for EncodedChanges {
    type Target = [Change];

    fn deref(&self) -> &[Change] {
        self.as_slice()
    }
}

impl PartialEq for EncodedChanges {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for EncodedChanges {}

impl std::fmt::Debug for EncodedChanges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

journal_enum! {
    /// What a `Set(j, i)` call did.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum SetEdgeOutcome {
        /// New dependency information was written: each change is
        /// `(tx, element, value)` — the paper's "timestamp-element
        /// assignment (transaction, dimension, value)", with the triggering
        /// conflict given by the edge's `from`/`to` pair.
        Encoded = "encoded" {
            /// The element definitions performed, in order.
            changes: EncodedChanges,
        },
        /// The vectors already said `from < to`; nothing was written.
        AlreadyOrdered = "already_ordered",
        /// The vectors already said `from > to`, decided at element `at`;
        /// the requested order cannot be encoded.
        Refused = "refused" {
            /// Deciding element (0-based).
            at: usize,
        },
    }
}

journal_enum! {
    /// How an access decision came out.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum AccessOutcome {
        /// Accepted normally: the requester is ordered after both holders.
        Granted = "granted",
        /// Accepted *invisibly* by the line 9–10 reader rule: the read is
        /// served but the reader is not recorded as RT.
        GrantedInvisible = "granted_invisible",
        /// Accepted with the write discarded by the Thomas write rule
        /// (Section III-D-6c).
        GrantedIgnored = "granted_ignored",
        /// Rejected: the holder `against` is already ordered after the
        /// requester, decided at `column`.
        Rejected = "rejected" {
            /// The holder whose order forced the reject.
            against: TxId,
            /// Deciding element of the comparison (0-based).
            column: usize,
            /// Which rule (or failed relaxation) produced the reject.
            rule: RejectRule,
        },
    }
}

/// An object in the distributed protocol's lock space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DmtObj {
    /// An item's RT/WT pair.
    Item(ItemId),
    /// A transaction's timestamp vector.
    Vector(TxId),
}

journal_enum! {
    /// Where a DMT(k) lock acquisition was served from.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub enum DmtSource {
        /// The object lives at the accessing site.
        Local = "local",
        /// A previously fetched lock was retained and reused.
        Retained = "retained",
        /// The object was fetched from a remote site (request + reply).
        Remote = "remote",
    }
}

journal_enum! {
    /// One trace event. See the variant docs for which layer emits what.
    #[derive(Clone, PartialEq, Debug)]
    pub enum TraceEvent {
        /// A fresh transaction incarnation entered the engine.
        Begin = "begin" {
            /// The new transaction.
            tx: TxId,
        },
        /// A restarted incarnation replaced an aborted one; `hint` is the
        /// first element it begins with, if any: the starvation restart hint
        /// `TS(blocker, 1) + 1` (Section III-D-4), raised above the published
        /// column-0 maximum once a restart chain grows long.
        Restart = "restart" {
            /// The replacement transaction.
            tx: TxId,
            /// The incarnation it replaces.
            aborted: TxId,
            /// First element installed, if a hint was recorded.
            hint: Option<i64>,
        },
        /// A `Set(from, to)` edge: the scheduler tried to order `from < to`.
        SetEdge = "set_edge" {
            /// Transaction required to come first.
            from: TxId,
            /// Transaction required to come second.
            to: TxId,
            /// What happened.
            outcome: SetEdgeOutcome,
        },
        /// A Definition 6 vector comparison, with the step cost a scalar scan
        /// pays for it and what the k-processor tree comparator would pay.
        Compare = "compare" {
            /// Left operand.
            a: TxId,
            /// Right operand.
            b: TxId,
            /// The comparison result, deciding position included.
            result: CmpResult,
            /// Elements a sequential scan inspects (deciding index + 1), or 1
            /// for a cache hit (one memo-table probe).
            scalar_ops: usize,
            /// Parallel steps of the Figs. 6–7 tree comparator (4 + ⌈log₂ k⌉).
            tree_steps: usize,
            /// Whether the result was served from the write-once order cache
            /// instead of a live vector scan. Cached results are always
            /// *decided* (`Less`/`Greater`) — decided orders are stable under
            /// the write-once discipline — and the auditor re-verifies them
            /// from its replayed vectors like any other comparison.
            cached: bool,
        },
        /// An access decision, with the RT/WT holders observed when it was
        /// made (the operands the auditor re-checks the decision against).
        Access = "access" {
            /// Requesting transaction.
            tx: TxId,
            /// Item accessed.
            item: ItemId,
            /// Read or write.
            kind: OpKind,
            /// Read-timestamp holder at decision time.
            rt: TxId,
            /// Write-timestamp holder at decision time.
            wt: TxId,
            /// How the decision came out.
            outcome: AccessOutcome,
        },
        /// The scheduler committed `tx` (its slots become reclaimable).
        Commit = "commit" {
            /// The committed transaction.
            tx: TxId,
        },
        /// The scheduler aborted `tx` and rolled its RT/WT slots back.
        Abort = "abort" {
            /// The aborted transaction.
            tx: TxId,
        },
        /// The engine aborted an incarnation, with the coarse reason.
        EngineAbort = "engine_abort" {
            /// The aborted incarnation.
            tx: TxId,
            /// Why the engine gave up on it.
            reason: AbortReason,
        },
        /// `run` exhausted its restart budget and surfaced the abort.
        GaveUp = "gave_up" {
            /// The last incarnation tried.
            tx: TxId,
            /// How many restarts were burned.
            restarts: u64,
        },
        /// A transaction parked on the engine's eventcount (`WakeSeq`).
        Blocked = "blocked" {
            /// The blocked transaction.
            tx: TxId,
            /// The item it is waiting to access.
            item: ItemId,
            /// The kind of access that blocked.
            kind: OpKind,
            /// The wake sequence number observed before parking.
            wake_seen: u64,
        },
        /// A commit/abort bumped the eventcount while someone was parked.
        Wake = "wake" {
            /// The new wake sequence number (not the record's `seq`).
            wake_seq: u64,
        },
        /// A DMT(k) site started scheduling one operation (the events up to
        /// the next `DmtOp` belong to this site).
        DmtOp = "dmt_op" {
            /// Accessing site.
            site: u32,
            /// Issuing transaction.
            tx: TxId,
            /// Item accessed.
            item: ItemId,
            /// Read or write.
            kind: OpKind,
        },
        /// A DMT(k) lock acquisition and where it was served from.
        DmtLock = "dmt_lock" {
            /// Acquiring site.
            site: u32,
            /// The locked object.
            obj: DmtObj,
            /// Local, retained, or a two-message remote fetch.
            source: DmtSource,
        },
        /// A DMT(k) write-back of a dirtied object to its home site.
        DmtWriteBack = "dmt_write_back" {
            /// Site sending the update.
            site: u32,
            /// The object written back.
            obj: DmtObj,
            /// Whether the home site is remote (one message) or local (free).
            remote: bool,
        },
        /// A DMT(k) counter-synchronisation broadcast round.
        DmtSync = "dmt_sync" {
            /// Initiating site.
            site: u32,
            /// Messages spent on the broadcast (`2 · (n_sites − 1)`).
            messages: u64,
        },
        /// Commit-time stamp saturation on the MV path: every still-undefined
        /// element of the committing writer's vector was defined (non-last
        /// columns to the origin value, the k-th column to a fresh upper
        /// counter draw) before the vector was frozen into a version stamp.
        /// Emitted inside the writer's row critical section, so the auditor's
        /// replayed vector agrees with every later comparison against it.
        StampFill = "stamp_fill" {
            /// The committing writer.
            tx: TxId,
            /// The element definitions performed, in order.
            changes: EncodedChanges,
        },
        /// A committed version was appended to an item's chain. Emitted inside
        /// the chain-shard critical section, so chain order in the trace equals
        /// chain order in the store.
        VersionInstall = "version_install" {
            /// The writer whose version was installed.
            writer: TxId,
            /// The item whose chain grew.
            item: ItemId,
        },
        /// A snapshot read selected a version: reader `tx` sits above
        /// `writer`'s version of `item` and below every later chain writer —
        /// by its position (a `ReaderBound` record) or, without one, by the
        /// vector order. `writer` is [`TxId::VIRTUAL`] when the floor version
        /// (or the never-written base value) was read.
        VersionRead = "version_read" {
            /// The snapshot reader.
            tx: TxId,
            /// The item read.
            item: ItemId,
            /// Writer of the selected version.
            writer: TxId,
        },
        /// A snapshot reader began at position `bound`: it reads, of every
        /// item, the newest version whose writer's column 0 is below
        /// `bound`, and raises the item's read bound to `bound`, so no
        /// writer whose column 0 is below it installs afterwards.
        ReaderBound = "reader_bound" {
            /// The snapshot reader.
            tx: TxId,
            /// Its position: column 0's published commit maximum + 1.
            bound: i64,
        },
        /// The online stall detector fired on a telemetry window: `value` is
        /// the offending per-window figure, `baseline` the trailing mean it
        /// was judged against.
        TelemetryAlert = "telemetry_alert" {
            /// Index of the telemetry window the rule fired on.
            window: u64,
            /// Which rule fired.
            rule: StallRule,
            /// The per-window figure that tripped the rule.
            value: f64,
            /// The trailing baseline the figure was compared to.
            baseline: f64,
        },
    }
}

/// A sequenced event: `seq` is a global total order over the buffer the
/// event was pushed to (assigned inside the emitting critical section, so
/// causally dependent decisions never appear before the edges they depend
/// on).
#[derive(Clone, PartialEq, Debug)]
pub struct TraceRecord {
    /// Global sequence number within the owning buffer.
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Elements a sequential Definition 6 scan inspects to reach `result`:
/// deciding index + 1, or `k` when the vectors are identical (the same
/// accounting as `ScalarComparator::compare_counted`).
pub fn scalar_cost(result: CmpResult, k: usize) -> usize {
    result.at().map_or(k, |at| at + 1)
}

/// Parallel steps the Figs. 6–7 tree comparator pays for any comparison of
/// dimension `k`: four constant phases plus ⌈log₂ k⌉ for the prefix-OR.
pub fn tree_cost(k: usize) -> usize {
    4 + k.next_power_of_two().trailing_zeros() as usize
}
