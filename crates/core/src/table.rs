//! The timestamp table of Fig. 2: one vector row per transaction, plus the
//! per-item `RT(x)`/`WT(x)` indices locating the most recent reader and
//! writer, plus the k-th-column counters.

use std::fmt;

use mdts_model::{ItemId, TxId};
use mdts_vector::{CmpResult, KthCounters, ScalarComparator, TsVec};

/// The MT(k) timestamp table (Fig. 2).
///
/// Rows are timestamp vectors indexed by transaction id; row 0 is the
/// virtual transaction `T₀` with `TS(0) = ⟨0, *, …⟩`, which "reads and
/// writes all data items before any other transaction" and is never
/// reclaimed. `RT(x)`/`WT(x)` start at 0 for every item accordingly
/// (Algorithm 1, lines 2–3).
#[derive(Clone, Debug)]
pub struct TimestampTable {
    k: usize,
    /// Vector per transaction id; `None` = never begun or reclaimed.
    vectors: Vec<Option<TsVec>>,
    /// `RT(x)` per item id.
    rt: Vec<TxId>,
    /// `WT(x)` per item id.
    wt: Vec<TxId>,
    /// Per-transaction count of `RT`/`WT` entries naming it, maintained by
    /// [`TimestampTable::set_rt`]/[`TimestampTable::set_wt`] — makes the
    /// reclamation check of Section III-D-6b O(1) instead of a scan over
    /// every item.
    refs: Vec<u32>,
    counters: KthCounters,
}

impl TimestampTable {
    /// Fresh table for vectors of dimension `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        TimestampTable {
            k,
            vectors: vec![Some(TsVec::origin(k))],
            rt: Vec::new(),
            wt: Vec::new(),
            refs: Vec::new(),
            counters: KthCounters::new(),
        }
    }

    /// Vector dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The k-th-column counters (draws take `&self`).
    pub fn counters(&self) -> &KthCounters {
        &self.counters
    }

    /// Swaps the table's counters with `other` — DMT(k) swaps in the
    /// *scheduling site's* site-tagged counters for the duration of each
    /// operation, so k-th-column values carry that site's tag
    /// (Section V-B-1).
    pub fn swap_counters(&mut self, other: &mut KthCounters) {
        std::mem::swap(&mut self.counters, other);
    }

    /// Ensures a (fully undefined) vector exists for `tx`.
    pub fn ensure_tx(&mut self, tx: TxId) {
        let idx = tx.index();
        if idx >= self.vectors.len() {
            self.vectors.resize(idx + 1, None);
        }
        if self.vectors[idx].is_none() {
            self.vectors[idx] = Some(TsVec::undefined(self.k));
        }
    }

    /// Installs an explicit initial vector for `tx` — used by the
    /// starvation-avoidance restart, which pre-sets the first element
    /// (Section III-D-4).
    pub fn install(&mut self, tx: TxId, vector: TsVec) {
        assert_eq!(vector.k(), self.k);
        let idx = tx.index();
        if idx >= self.vectors.len() {
            self.vectors.resize(idx + 1, None);
        }
        self.vectors[idx] = Some(vector);
    }

    /// The III-D-4 restart flush, storage-reusing form: resets `tx`'s
    /// existing row to fully undefined in place (pre-defining element 0
    /// with `first` when the starvation fix recorded a hint) instead of
    /// allocating a replacement vector. Falls back to
    /// [`install`](Self::install) when the transaction has no live row.
    pub fn flush_in_place(&mut self, tx: TxId, first: Option<i64>) {
        let idx = tx.index();
        if let Some(Some(v)) = self.vectors.get_mut(idx) {
            match first {
                Some(f) => v.flush(f),
                None => v.clear(),
            }
            return;
        }
        let mut v = TsVec::undefined(self.k);
        if let Some(f) = first {
            v.define(0, f);
        }
        self.install(tx, v);
    }

    /// `TS(tx)`, if the transaction has a live vector.
    pub fn ts(&self, tx: TxId) -> Option<&TsVec> {
        self.vectors.get(tx.index()).and_then(|v| v.as_ref())
    }

    /// `TS(tx)`, panicking if absent (protocol invariant: every transaction
    /// referenced by `RT`/`WT` or being scheduled has a vector).
    pub fn ts_expect(&self, tx: TxId) -> &TsVec {
        self.ts(tx).unwrap_or_else(|| panic!("no live timestamp vector for {tx}"))
    }

    /// Mutable `TS(tx)`.
    pub fn ts_mut(&mut self, tx: TxId) -> &mut TsVec {
        self.vectors
            .get_mut(tx.index())
            .and_then(|v| v.as_mut())
            .unwrap_or_else(|| panic!("no live timestamp vector for {tx}"))
    }

    fn ensure_item(&mut self, item: ItemId) {
        let idx = item.index();
        if idx >= self.rt.len() {
            // Every new item starts with RT = WT = T₀ (Algorithm 1 line 3),
            // so T₀ gains two references per item.
            let added = idx + 1 - self.rt.len();
            self.rt.resize(idx + 1, TxId::VIRTUAL);
            self.wt.resize(idx + 1, TxId::VIRTUAL);
            self.bump_ref(TxId::VIRTUAL, 2 * added as i64);
        }
    }

    fn bump_ref(&mut self, tx: TxId, delta: i64) {
        let idx = tx.index();
        if idx >= self.refs.len() {
            self.refs.resize(idx + 1, 0);
        }
        let r = i64::from(self.refs[idx]) + delta;
        debug_assert!(r >= 0, "reference count for {tx} went negative");
        self.refs[idx] = r as u32;
    }

    /// `RT(x)` — index of the most recent reader (Algorithm 1 line 3
    /// default: `T₀`).
    pub fn rt(&self, item: ItemId) -> TxId {
        self.rt.get(item.index()).copied().unwrap_or(TxId::VIRTUAL)
    }

    /// `WT(x)` — index of the most recent writer.
    pub fn wt(&self, item: ItemId) -> TxId {
        self.wt.get(item.index()).copied().unwrap_or(TxId::VIRTUAL)
    }

    /// Sets `RT(x) := tx` (Algorithm 1 line 7).
    pub fn set_rt(&mut self, item: ItemId, tx: TxId) {
        self.ensure_item(item);
        let old = std::mem::replace(&mut self.rt[item.index()], tx);
        if old != tx {
            self.bump_ref(old, -1);
            self.bump_ref(tx, 1);
        }
    }

    /// Sets `WT(x) := tx` (Algorithm 1 line 12).
    pub fn set_wt(&mut self, item: ItemId, tx: TxId) {
        self.ensure_item(item);
        let old = std::mem::replace(&mut self.wt[item.index()], tx);
        if old != tx {
            self.bump_ref(old, -1);
            self.bump_ref(tx, 1);
        }
    }

    /// Definition 6 comparison of two transactions' vectors.
    pub fn compare(&self, a: TxId, b: TxId) -> CmpResult {
        ScalarComparator::compare(self.ts_expect(a), self.ts_expect(b))
    }

    /// Strict `TS(a) < TS(b)`.
    pub fn is_less(&self, a: TxId, b: TxId) -> bool {
        matches!(self.compare(a, b), CmpResult::Less { .. })
    }

    /// Whether `tx` is currently the most recent reader or writer of any
    /// item — if so its vector must not be reclaimed (Section III-D-6b).
    /// O(1) off the maintained reference count.
    pub fn is_referenced(&self, tx: TxId) -> bool {
        let counted = self.refs.get(tx.index()).copied().unwrap_or(0) > 0;
        debug_assert_eq!(
            counted,
            self.is_referenced_scan(tx),
            "reference count for {tx} disagrees with the RT/WT scan"
        );
        counted
    }

    /// The original O(#items) reference check, scanning every `RT`/`WT`
    /// entry. Kept as the oracle for the refcount (debug assertions and the
    /// equivalence property test).
    pub fn is_referenced_scan(&self, tx: TxId) -> bool {
        self.rt.iter().chain(self.wt.iter()).any(|&t| t == tx)
    }

    /// Reference count for `tx` (number of `RT`/`WT` entries naming it).
    pub fn ref_count(&self, tx: TxId) -> u32 {
        self.refs.get(tx.index()).copied().unwrap_or(0)
    }

    /// Storage reclamation (Section III-D-6b): drops the vector of a
    /// committed transaction if it is no longer any item's most recent
    /// read/write timestamp. Returns whether the row was reclaimed. `T₀` is
    /// never reclaimed.
    pub fn reclaim(&mut self, tx: TxId) -> bool {
        if tx.is_virtual() || self.is_referenced(tx) {
            return false;
        }
        let idx = tx.index();
        if let Some(slot) = self.vectors.get_mut(idx) {
            if slot.is_some() {
                *slot = None;
                return true;
            }
        }
        false
    }

    /// Number of live vector rows (including `T₀`) — the table footprint
    /// the paper argues "normally fits in main memory" (III-D-6a).
    pub fn live_rows(&self) -> usize {
        self.vectors.iter().filter(|v| v.is_some()).count()
    }

    /// A serialization order for the given transactions: a topological sort
    /// of the strict vector order (Theorem 2's witness). Returns `None` if
    /// some needed vector is missing.
    ///
    /// One stable O(n log n · k) sort by [`TsVec::serial_cmp`], a total
    /// order that linearly extends the strict vector order; unordered pairs
    /// land in key (or, for equal keys, input) order, which the partial
    /// order leaves free.
    pub fn serial_order(&self, txns: &[TxId]) -> Option<Vec<TxId>> {
        for &t in txns {
            self.ts(t)?;
        }
        let mut order: Vec<TxId> = txns.to_vec();
        order.sort_by(|&a, &b| self.ts_expect(a).serial_cmp(self.ts_expect(b)));
        // The O(n²) pairwise verification the sort replaced; debug-only.
        debug_assert!(
            (0..order.len())
                .all(|a| { (a + 1..order.len()).all(|b| !self.is_less(order[b], order[a])) }),
            "sorted order contradicts the strict vector order"
        );
        Some(order)
    }
}

impl fmt::Display for TimestampTable {
    /// Renders the table in the paper's style: one `TS(i) = ⟨…⟩` row per
    /// live transaction, then the `RT`/`WT` columns per touched item.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "timestamp table (k = {}):", self.k)?;
        for (i, v) in self.vectors.iter().enumerate() {
            if let Some(ts) = v {
                writeln!(f, "  TS({i}) = {ts}")?;
            }
        }
        for idx in 0..self.rt.len() {
            writeln!(f, "  item {idx}: RT = {}, WT = {}", self.rt[idx].0, self.wt[idx].0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_matches_algorithm1() {
        let t = TimestampTable::new(2);
        assert_eq!(t.ts_expect(TxId::VIRTUAL).to_string(), "<0,*>");
        assert_eq!(t.rt(ItemId(5)), TxId::VIRTUAL);
        assert_eq!(t.wt(ItemId(5)), TxId::VIRTUAL);
        assert_eq!(t.counters().ucount(), 1);
        assert_eq!(t.counters().lcount(), 0);
    }

    #[test]
    fn ensure_tx_is_idempotent() {
        let mut t = TimestampTable::new(2);
        t.ensure_tx(TxId(3));
        t.ts_mut(TxId(3)).define(0, 7);
        t.ensure_tx(TxId(3));
        assert_eq!(t.ts_expect(TxId(3)).get(0), Some(7), "existing vector untouched");
    }

    #[test]
    fn flush_in_place_reuses_row() {
        // k = 70 forces the spilled representation, so storage reuse is
        // observable: the flushed row must still be the boxed form.
        let mut t = TimestampTable::new(70);
        t.ensure_tx(TxId(1));
        t.ts_mut(TxId(1)).define(0, 3);
        t.ts_mut(TxId(1)).define(7, 9);
        t.flush_in_place(TxId(1), Some(5));
        let v = t.ts_expect(TxId(1));
        assert!(v.is_spilled());
        assert_eq!(v.get(0), Some(5));
        assert_eq!(v.defined_count(), 1);
        // Plain flush (no hint): fully undefined again.
        t.flush_in_place(TxId(1), None);
        assert!(t.ts_expect(TxId(1)).is_fully_undefined());
        // No live row: falls back to install.
        t.flush_in_place(TxId(9), Some(2));
        assert_eq!(t.ts_expect(TxId(9)).get(0), Some(2));
    }

    #[test]
    fn reclaim_respects_references_and_t0() {
        let mut t = TimestampTable::new(2);
        t.ensure_tx(TxId(1));
        t.set_rt(ItemId(0), TxId(1));
        assert!(!t.reclaim(TxId(1)), "still RT(x)");
        t.set_rt(ItemId(0), TxId(2));
        assert!(t.reclaim(TxId(1)));
        assert!(!t.reclaim(TxId(1)), "already gone");
        assert!(!t.reclaim(TxId::VIRTUAL), "T0 is permanent");
        assert_eq!(t.live_rows(), 1);
    }

    #[test]
    fn serial_order_sorts_by_vector_order() {
        let mut t = TimestampTable::new(2);
        // Example 2's resulting vectors: T1=<1,2>, T2=<1,1>, T3=<1,0>.
        t.install(TxId(1), TsVec::from_elems(&[Some(1), Some(2)]));
        t.install(TxId(2), TsVec::from_elems(&[Some(1), Some(1)]));
        t.install(TxId(3), TsVec::from_elems(&[Some(1), Some(0)]));
        let order = t.serial_order(&[TxId(1), TxId(2), TxId(3)]).unwrap();
        assert_eq!(order, vec![TxId(3), TxId(2), TxId(1)]);
    }

    #[test]
    fn serial_order_keeps_unordered_pairs_free() {
        let mut t = TimestampTable::new(2);
        t.install(TxId(1), TsVec::from_elems(&[Some(1), None]));
        t.install(TxId(2), TsVec::from_elems(&[Some(2), None]));
        t.install(TxId(3), TsVec::from_elems(&[Some(2), None])); // equal to T2
        let order = t.serial_order(&[TxId(3), TxId(1), TxId(2)]).unwrap();
        assert_eq!(order[0], TxId(1), "T1 precedes both");
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn ref_counts_track_rt_wt_chains() {
        let mut t = TimestampTable::new(2);
        // Touching two new items references T₀ four times (RT+WT each).
        t.set_rt(ItemId(0), TxId(1));
        t.set_wt(ItemId(1), TxId(1));
        assert_eq!(t.ref_count(TxId::VIRTUAL), 2, "T0 keeps WT(0) and RT(1)");
        assert_eq!(t.ref_count(TxId(1)), 2);
        assert!(t.is_referenced(TxId(1)));
        // Re-assigning the same transaction is a no-op on the count.
        t.set_rt(ItemId(0), TxId(1));
        assert_eq!(t.ref_count(TxId(1)), 2);
        // Displacement moves the reference.
        t.set_rt(ItemId(0), TxId(2));
        assert_eq!(t.ref_count(TxId(1)), 1);
        assert_eq!(t.ref_count(TxId(2)), 1);
        t.set_wt(ItemId(1), TxId(2));
        assert_eq!(t.ref_count(TxId(1)), 0);
        assert!(!t.is_referenced(TxId(1)));
        // And agrees with the scan oracle throughout.
        for tx in [TxId::VIRTUAL, TxId(1), TxId(2), TxId(3)] {
            assert_eq!(t.is_referenced(tx), t.is_referenced_scan(tx));
        }
    }

    #[test]
    fn reclaim_uses_refcount_not_scan() {
        // The same end state as reclaim_respects_references_and_t0, but
        // verifying the refcount index directly drives the decision.
        let mut t = TimestampTable::new(2);
        t.ensure_tx(TxId(1));
        t.set_rt(ItemId(0), TxId(1));
        assert_eq!(t.ref_count(TxId(1)), 1);
        assert!(!t.reclaim(TxId(1)));
        t.set_rt(ItemId(0), TxId(2));
        assert_eq!(t.ref_count(TxId(1)), 0);
        assert!(t.reclaim(TxId(1)));
    }

    #[test]
    fn display_renders_rows() {
        let mut t = TimestampTable::new(2);
        t.ensure_tx(TxId(1));
        t.set_wt(ItemId(0), TxId(1));
        let s = t.to_string();
        assert!(s.contains("TS(0) = <0,*>"));
        assert!(s.contains("TS(1) = <*,*>"));
        assert!(s.contains("WT = 1"));
    }
}
