//! Before-image undo logging with savepoints — the substrate for the
//! paper's *partial rollback* (Section VI-C-1): "a transaction may be
//! rolled back to an earlier operation where serializability of the log is
//! assured … the computation results up to the restart point are
//! preserved."

use mdts_model::ItemId;

use crate::store::Store;

/// An opaque savepoint token: an index into the undo log, tagged with
/// the log *generation* it was taken in. [`UndoLog::clear`] starts a new
/// generation, so a savepoint held across a commit cannot silently
/// truncate the next transaction's log to an arbitrary index (the
/// ISSUE 9 satellite bugfix) — [`UndoLog::rollback_to`] panics instead.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Savepoint {
    index: usize,
    generation: u64,
}

/// One transaction's undo log of before-images.
///
/// Records are appended by [`UndoLog::write_through`] *before* the write is
/// applied; [`UndoLog::rollback_to`] replays them in reverse onto the
/// store, restoring exactly the state at the savepoint.
#[derive(Clone, Debug, Default)]
pub struct UndoLog<V> {
    entries: Vec<(ItemId, Option<V>)>,
    generation: u64,
}

impl<V: Clone> UndoLog<V> {
    /// Empty log.
    pub fn new() -> Self {
        UndoLog { entries: Vec::new(), generation: 0 }
    }

    /// Marks the current position — typically taken before each operation
    /// so any operation boundary can become a restart point.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint { index: self.entries.len(), generation: self.generation }
    }

    /// Performs `store[item] = value`, remembering the before-image.
    pub fn write_through(&mut self, store: &mut Store<V>, item: ItemId, value: V) {
        let before = store.set(item, value);
        self.entries.push((item, before));
    }

    /// Rolls the store back to `sp`, discarding the undone entries.
    ///
    /// # Panics
    /// Panics if `sp` was taken in a different log generation — i.e.
    /// before the last [`UndoLog::clear`]. Such a savepoint's index is
    /// meaningless against the current entries; truncating to it would
    /// roll back an arbitrary suffix of a *different* transaction.
    pub fn rollback_to(&mut self, store: &mut Store<V>, sp: Savepoint) {
        assert_eq!(
            sp.generation, self.generation,
            "savepoint from log generation {} used against generation {} — \
             savepoints do not survive clear()",
            sp.generation, self.generation
        );
        while self.entries.len() > sp.index {
            let (item, before) = self.entries.pop().expect("len > sp");
            match before {
                Some(v) => {
                    store.set(item, v);
                }
                None => {
                    store.remove(item);
                }
            }
        }
    }

    /// Rolls everything back (full abort).
    pub fn rollback_all(&mut self, store: &mut Store<V>) {
        self.rollback_to(store, Savepoint { index: 0, generation: self.generation });
    }

    /// Forgets the undo information (commit) and starts a new generation:
    /// savepoints taken before this call become invalid.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.generation += 1;
    }

    /// Number of logged writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no writes are logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: ItemId = ItemId(0);
    const Y: ItemId = ItemId(1);

    #[test]
    fn rollback_all_restores_initial_state() {
        let mut store = Store::with_items(2, 10i64);
        let before = store.snapshot();
        let mut undo = UndoLog::new();
        undo.write_through(&mut store, X, 1);
        undo.write_through(&mut store, Y, 2);
        undo.write_through(&mut store, X, 3);
        undo.rollback_all(&mut store);
        assert_eq!(store.snapshot(), before);
        assert!(undo.is_empty());
    }

    #[test]
    fn partial_rollback_keeps_earlier_writes() {
        let mut store = Store::with_items(2, 0i64);
        let mut undo = UndoLog::new();
        undo.write_through(&mut store, X, 1);
        let sp = undo.savepoint();
        undo.write_through(&mut store, Y, 2);
        undo.write_through(&mut store, X, 3);
        undo.rollback_to(&mut store, sp);
        assert_eq!(store.get(X), Some(&1), "pre-savepoint write preserved");
        assert_eq!(store.get(Y), Some(&0), "post-savepoint writes undone");
        assert_eq!(undo.len(), 1);
    }

    #[test]
    fn rollback_restores_absence() {
        let mut store: Store<i64> = Store::new();
        let mut undo = UndoLog::new();
        undo.write_through(&mut store, X, 7);
        undo.rollback_all(&mut store);
        assert_eq!(store.get(X), None, "item created by the txn vanishes again");
    }

    #[test]
    fn clear_commits_without_touching_store() {
        let mut store = Store::with_items(1, 0i64);
        let mut undo = UndoLog::new();
        undo.write_through(&mut store, X, 42);
        undo.clear();
        undo.rollback_all(&mut store); // no-op now
        assert_eq!(store.get(X), Some(&42));
    }

    #[test]
    #[should_panic(expected = "savepoints do not survive clear()")]
    fn stale_savepoint_after_clear_is_rejected() {
        // Regression (ISSUE 9 satellite): a savepoint held across a
        // commit used to silently truncate the *next* transaction's log
        // to an arbitrary index, partially rolling it back.
        let mut store = Store::with_items(2, 0i64);
        let mut undo = UndoLog::new();
        undo.write_through(&mut store, X, 1);
        let stale = undo.savepoint();
        undo.clear(); // commit — the log starts a new generation
        undo.write_through(&mut store, X, 2);
        undo.write_through(&mut store, Y, 3);
        undo.rollback_to(&mut store, stale);
    }

    #[test]
    fn savepoints_stay_valid_within_a_generation() {
        let mut store = Store::with_items(1, 0i64);
        let mut undo = UndoLog::new();
        undo.clear();
        let sp = undo.savepoint();
        undo.write_through(&mut store, X, 9);
        undo.rollback_to(&mut store, sp);
        assert_eq!(store.get(X), Some(&0));
    }
}
