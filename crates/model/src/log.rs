//! The log: a finite sequence of atomic operations over a set of
//! transactions, i.e. the paper's quintuple `⟨D, T, Σ, S, π⟩`.
//!
//! `D` is [`Log::items`], `T` is [`Log::transactions`], `Σ` with `S` is the
//! operation sequence itself ([`Log::ops`]), and `π` is the position of an
//! operation in that sequence (0-based here; the paper counts from 1).

use std::collections::BTreeSet;
use std::fmt;

use crate::ops::{ItemId, OpId, OpKind, Operation, TxId};

/// Errors detected by [`Log::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogError {
    /// An operation belongs to the reserved virtual transaction `T₀`.
    VirtualTransactionOp(OpId),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::VirtualTransactionOp(pos) => {
                write!(f, "operation at position {pos} belongs to the virtual transaction T0")
            }
        }
    }
}

impl std::error::Error for LogError {}

/// Per-transaction summary derived from a log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxSummary {
    /// The transaction.
    pub tx: TxId,
    /// Positions (π values, 0-based) of this transaction's operations.
    pub positions: Vec<OpId>,
    /// Union of access sets of its reads, `S(R_i)`.
    pub read_set: Vec<ItemId>,
    /// Union of access sets of its writes, `S(W_i)`.
    pub write_set: Vec<ItemId>,
}

impl TxSummary {
    /// Number of operations `q_i` of the transaction.
    pub fn num_ops(&self) -> usize {
        self.positions.len()
    }

    /// Position of the transaction's first operation.
    pub fn first_pos(&self) -> OpId {
        self.positions[0]
    }

    /// Position of the transaction's last operation.
    pub fn last_pos(&self) -> OpId {
        *self.positions.last().expect("summary has at least one op")
    }
}

/// A log: an interleaved sequence of operations.
///
/// Logs are immutable once built (builder-style [`Log::push`] during
/// construction); all protocol and classifier code reads them through
/// `&Log`. Item names (for the paper's `x, y, z…` notation) are kept so
/// parsed logs round-trip through [`fmt::Display`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Log {
    ops: Vec<Operation>,
    /// Optional item names, indexed by `ItemId`; generated logs leave this
    /// empty and display items numerically.
    item_names: Vec<String>,
}

impl Log {
    /// Empty log.
    pub fn new() -> Self {
        Log::default()
    }

    /// Builds a log from operations.
    pub fn from_ops(ops: Vec<Operation>) -> Self {
        Log { ops, item_names: Vec::new() }
    }

    /// Appends an operation (builder use only).
    pub fn push(&mut self, op: Operation) {
        self.ops.push(op);
    }

    /// Installs item names (index = `ItemId.0`); used by the parser.
    pub fn set_item_names(&mut self, names: Vec<String>) {
        self.item_names = names;
    }

    /// The display name of an item, or `i<n>` if unnamed.
    pub fn item_name(&self, item: ItemId) -> String {
        self.item_names.get(item.index()).cloned().unwrap_or_else(|| format!("i{}", item.0))
    }

    /// Item names table (may be shorter than the item count).
    pub fn item_names(&self) -> &[String] {
        &self.item_names
    }

    /// The operation sequence `Σ` in `π` order.
    #[inline]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the log has no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation at position `pos` (`π(op) = pos`, 0-based).
    #[inline]
    pub fn op(&self, pos: OpId) -> &Operation {
        &self.ops[pos]
    }

    /// All distinct transactions, ascending (excludes `T₀`, which never
    /// appears in a valid log).
    pub fn transactions(&self) -> Vec<TxId> {
        let set: BTreeSet<TxId> = self.ops.iter().map(|o| o.tx).collect();
        set.into_iter().collect()
    }

    /// The largest transaction id appearing in the log (0 if empty).
    pub fn max_tx(&self) -> TxId {
        self.ops.iter().map(|o| o.tx).max().unwrap_or(TxId(0))
    }

    /// The item set `D` (ascending).
    pub fn items(&self) -> Vec<ItemId> {
        let set: BTreeSet<ItemId> =
            self.ops.iter().flat_map(|o| o.items().iter().copied()).collect();
        set.into_iter().collect()
    }

    /// The largest item id appearing in the log (`None` if empty).
    pub fn max_item(&self) -> Option<ItemId> {
        self.ops.iter().flat_map(|o| o.items().iter().copied()).max()
    }

    /// Per-transaction summaries, in ascending `TxId` order.
    pub fn tx_summaries(&self) -> Vec<TxSummary> {
        let mut out: Vec<TxSummary> = Vec::new();
        for tx in self.transactions() {
            let mut positions = Vec::new();
            let mut read_set = BTreeSet::new();
            let mut write_set = BTreeSet::new();
            for (pos, op) in self.ops.iter().enumerate() {
                if op.tx != tx {
                    continue;
                }
                positions.push(pos);
                let dst = match op.kind {
                    OpKind::Read => &mut read_set,
                    OpKind::Write => &mut write_set,
                };
                dst.extend(op.items().iter().copied());
            }
            out.push(TxSummary {
                tx,
                positions,
                read_set: read_set.into_iter().collect(),
                write_set: write_set.into_iter().collect(),
            });
        }
        out
    }

    /// Maximum number of operations in a single transaction — the paper's
    /// `q`. Theorem 3 bounds the useful vector size by `2q − 1`.
    pub fn max_ops_per_txn(&self) -> usize {
        self.tx_summaries().iter().map(|s| s.num_ops()).max().unwrap_or(0)
    }

    /// Whether the log fits the *two-step* model: every transaction is one
    /// read followed by one write (Section II).
    pub fn is_two_step(&self) -> bool {
        self.tx_summaries().iter().all(|s| {
            s.positions.len() == 2
                && self.op(s.positions[0]).kind == OpKind::Read
                && self.op(s.positions[1]).kind == OpKind::Write
        })
    }

    /// Checks model well-formedness.
    pub fn validate(&self) -> Result<(), LogError> {
        for (pos, op) in self.ops.iter().enumerate() {
            if op.tx.is_virtual() {
                return Err(LogError::VirtualTransactionOp(pos));
            }
        }
        Ok(())
    }

    /// All conflicting operation pairs `(p1, p2)` with `p1 < p2`
    /// (Definition 1). Quadratic; intended for analysis of modest logs.
    pub fn conflicting_pairs(&self) -> Vec<(OpId, OpId)> {
        let mut out = Vec::new();
        for p2 in 0..self.ops.len() {
            for p1 in 0..p2 {
                if self.ops[p1].conflicts_with(&self.ops[p2]) {
                    out.push((p1, p2));
                }
            }
        }
        out
    }

    /// The paper's log concatenation `L₁ · L₂` (used to build the composite
    /// witness logs of Fig. 4, e.g. `L₅ = L₄ · L₆`).
    ///
    /// The second log's transactions and items are renamed to fresh ids so
    /// the two parts share nothing; membership in each conflict-based class
    /// is then decided part by part.
    pub fn concat(&self, other: &Log) -> Log {
        let tx_base = self.max_tx().0;
        let item_base = self.max_item().map(|i| i.0 + 1).unwrap_or(0);
        let mut ops = self.ops.clone();
        for op in other.ops() {
            let items = op.items().iter().map(|i| ItemId(i.0 + item_base)).collect::<Vec<_>>();
            ops.push(Operation::new(TxId(op.tx.0 + tx_base), op.kind, items));
        }
        let mut log = Log::from_ops(ops);
        // Preserve names where available: self's names, then other's shifted.
        if !self.item_names.is_empty() || !other.item_names.is_empty() {
            let mut names = Vec::new();
            for i in 0..item_base {
                names.push(
                    self.item_names.get(i as usize).cloned().unwrap_or_else(|| format!("i{i}")),
                );
            }
            for (i, n) in other.item_names.iter().enumerate() {
                if names.len() == (item_base as usize) + i {
                    names.push(format!("{n}'"));
                }
            }
            log.set_item_names(names);
        }
        log
    }

    /// A prefix of the log (first `len` operations), e.g. the mid-log states
    /// discussed in Example 1.
    pub fn prefix(&self, len: usize) -> Log {
        Log {
            ops: self.ops[..len.min(self.ops.len())].to_vec(),
            item_names: self.item_names.clone(),
        }
    }
}

impl fmt::Display for Log {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, op) in self.ops.iter().enumerate() {
            if n > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}{}[", op.kind.letter(), op.tx.0)?;
            for (m, it) in op.items().iter().enumerate() {
                if m > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.item_name(*it))?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_rwrw() -> Log {
        // R1[x] R2[y] W1[y] W2[x]
        Log::from_ops(vec![
            Operation::read(TxId(1), ItemId(0)),
            Operation::read(TxId(2), ItemId(1)),
            Operation::write(TxId(1), ItemId(1)),
            Operation::write(TxId(2), ItemId(0)),
        ])
    }

    #[test]
    fn summaries_and_sets() {
        let log = log_rwrw();
        let sums = log.tx_summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].tx, TxId(1));
        assert_eq!(sums[0].positions, vec![0, 2]);
        assert_eq!(sums[0].read_set, vec![ItemId(0)]);
        assert_eq!(sums[0].write_set, vec![ItemId(1)]);
        assert_eq!(log.max_ops_per_txn(), 2);
        assert!(log.is_two_step());
    }

    #[test]
    fn two_step_detection_rejects_write_first() {
        let log = Log::from_ops(vec![
            Operation::write(TxId(1), ItemId(0)),
            Operation::read(TxId(1), ItemId(0)),
        ]);
        assert!(!log.is_two_step());
    }

    #[test]
    fn conflicting_pairs_found() {
        let log = log_rwrw();
        // R1[x]–W2[x] (0,3) and R2[y]–W1[y] (1,2)
        assert_eq!(log.conflicting_pairs(), vec![(1, 2), (0, 3)]);
    }

    #[test]
    fn validate_rejects_virtual_tx() {
        let log = Log::from_ops(vec![Operation::read(TxId(0), ItemId(0))]);
        assert!(matches!(log.validate(), Err(LogError::VirtualTransactionOp(0))));
    }

    #[test]
    fn concat_renames_disjointly() {
        let a = log_rwrw();
        let b = log_rwrw();
        let c = a.concat(&b);
        assert_eq!(c.len(), 8);
        assert_eq!(c.transactions(), vec![TxId(1), TxId(2), TxId(3), TxId(4)]);
        assert_eq!(c.items().len(), 4, "items of the parts must be disjoint");
        // No conflicts across the two halves.
        for (p1, p2) in c.conflicting_pairs() {
            assert_eq!(p1 < 4, p2 < 4, "conflict crosses concat boundary");
        }
    }

    #[test]
    fn prefix_truncates() {
        let log = log_rwrw();
        assert_eq!(log.prefix(2).len(), 2);
        assert_eq!(log.prefix(99).len(), 4);
    }
}
