//! Deferred (two-phase-commit) writes — Section VI-C-2.
//!
//! "In the first phase of a transaction, each write produces a temporary
//! copy invisible to all the other transactions. In the commit phase, each
//! write operation is validated … If all the writes of a transaction still
//! preserve the serializability property, updated values are all written to
//! the database."
//!
//! Consequences the paper lists, which the engine's tests verify:
//! (a) aborts of uncommitted transactions never affect others (no dirty
//! reads → no cascading aborts); (b) a committed transaction is never
//! aborted; (c) the workspace of an aborted transaction is simply dropped.

use std::collections::BTreeMap;

use mdts_model::{ItemId, TxId};

use crate::store::Store;

/// Private deferred-write workspaces, one per active transaction.
#[derive(Clone, Debug, Default)]
pub struct WriteBuffer<V> {
    buffers: BTreeMap<TxId, BTreeMap<ItemId, V>>,
}

impl<V: Clone> WriteBuffer<V> {
    /// Empty buffer set.
    pub fn new() -> Self {
        WriteBuffer { buffers: BTreeMap::new() }
    }

    /// Buffers `tx`'s write (later writes to the same item overwrite
    /// earlier ones within the workspace).
    pub fn write(&mut self, tx: TxId, item: ItemId, value: V) {
        self.buffers.entry(tx).or_default().insert(item, value);
    }

    /// Read-your-own-writes: `tx`'s buffered value, if any. Other
    /// transactions never see it.
    pub fn own_read(&self, tx: TxId, item: ItemId) -> Option<&V> {
        self.buffers.get(&tx).and_then(|b| b.get(&item))
    }

    /// The items `tx` has buffered writes for (commit-time validation
    /// iterates these in ascending order).
    pub fn write_set(&self, tx: TxId) -> Vec<ItemId> {
        self.buffers.get(&tx).map(|b| b.keys().copied().collect()).unwrap_or_default()
    }

    /// Applies `tx`'s workspace to the store and drops it (the commit
    /// phase, after validation succeeded).
    ///
    /// Returns whether a workspace existed. `false` means the caller is
    /// committing a transaction that never prepared any write — a replay
    /// or engine bug this used to swallow silently (ISSUE 9 satellite):
    /// a recovery path that "applies" a never-staged commit would lose
    /// its writes without a trace. Callers must check the result.
    #[must_use = "an absent workspace means the commit applied nothing"]
    pub fn apply(&mut self, tx: TxId, store: &mut Store<V>) -> bool {
        match self.buffers.remove(&tx) {
            Some(buffer) => {
                for (item, value) in buffer {
                    store.set(item, value);
                }
                true
            }
            None => false,
        }
    }

    /// Discards `tx`'s workspace (abort) — nothing ever reached the
    /// store. Returns whether a workspace existed (a transaction that
    /// buffered no write legitimately discards nothing, so unlike
    /// [`WriteBuffer::apply`] this does not `debug_assert`).
    pub fn discard(&mut self, tx: TxId) -> bool {
        self.buffers.remove(&tx).is_some()
    }

    /// Number of active workspaces.
    pub fn active(&self) -> usize {
        self.buffers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: ItemId = ItemId(0);
    const T1: TxId = TxId(1);
    const T2: TxId = TxId(2);

    #[test]
    fn writes_invisible_until_commit() {
        let mut store = Store::with_items(1, 0i64);
        let mut wb = WriteBuffer::new();
        wb.write(T1, X, 99);
        assert_eq!(store.get(X), Some(&0), "store untouched");
        assert_eq!(wb.own_read(T2, X), None, "T2 cannot see T1's workspace");
        assert_eq!(wb.own_read(T1, X), Some(&99), "read-your-writes");
        assert!(wb.apply(T1, &mut store));
        assert_eq!(store.get(X), Some(&99));
        assert_eq!(wb.active(), 0);
    }

    #[test]
    fn discard_leaves_no_trace() {
        let mut store = Store::with_items(1, 0i64);
        let mut wb = WriteBuffer::new();
        wb.write(T1, X, 5);
        assert!(wb.discard(T1));
        assert!(!wb.apply(T1, &mut store), "apply after discard must report the lost workspace");
        assert_eq!(store.get(X), Some(&0));
    }

    #[test]
    fn unknown_transaction_apply_and_discard_report_false() {
        // The ISSUE 9 satellite: both used to silently no-op, so a replay
        // committing a never-prepared transaction passed undetected.
        let mut store = Store::with_items(1, 0i64);
        let mut wb: WriteBuffer<i64> = WriteBuffer::new();
        assert!(!wb.apply(T2, &mut store));
        assert!(!wb.discard(T2));
        assert_eq!(store.get(X), Some(&0));
    }

    #[test]
    fn later_write_wins_within_workspace() {
        let mut wb = WriteBuffer::new();
        wb.write(T1, X, 1);
        wb.write(T1, X, 2);
        assert_eq!(wb.own_read(T1, X), Some(&2));
        assert_eq!(wb.write_set(T1), vec![X]);
    }
}
