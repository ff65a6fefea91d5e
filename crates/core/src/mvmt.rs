//! MV-MT(k): the paper's extension idea III-D-6d realized — "Reed proposed
//! a multiple version concurrency control mechanism using single-valued
//! timestamps. The idea can be extended to timestamp vectors."
//!
//! Writes append versions to a per-item chain. Successive writers of one
//! item are always strictly ordered by MT(k)'s own rules, so the chain is
//! totally ordered even though the global vector order is partial. A read
//! by `T_i` walks the chain from the newest version down and takes the
//! first version `v` (written by `w`, with successor writer `s`) such that
//! `TS(w) < TS(i)` and `TS(i) < TS(s)` hold or can be *encoded* — slotting
//! the reader into the gap between two writers. The floor version belongs
//! to `T₀`, so **reads never abort**; only writes can be rejected (they
//! must be orderable after the newest version's writer and readers).
//!
//! The result is one-copy serializable: the final vector order is a serial
//! order under which every read observes exactly the version it was
//! served — the `mv_props` tests check this reads-from equality on random
//! logs.

use std::collections::BTreeMap;

use mdts_model::{ItemId, Log, OpKind, TxId};

use crate::mtk::{MtOptions, MtScheduler};

/// One version of an item (scheduling view: writers and their readers).
#[derive(Clone, Debug)]
struct MvVersion {
    writer: TxId,
    readers: Vec<TxId>,
}

/// The multiversion MT(k) scheduler.
#[derive(Clone, Debug)]
pub struct MvMtScheduler {
    /// The vector machinery (tables, `Set`, counters). The reader rule is
    /// irrelevant here — version selection replaces it.
    inner: MtScheduler,
    chains: BTreeMap<ItemId, Vec<MvVersion>>,
}

impl MvMtScheduler {
    /// MV-MT(k) with vector dimension `k`.
    pub fn new(k: usize) -> Self {
        MvMtScheduler {
            inner: MtScheduler::new(MtOptions::for_composite(k)),
            chains: BTreeMap::new(),
        }
    }

    /// The underlying vector scheduler (for table access in tests).
    pub fn inner(&self) -> &MtScheduler {
        &self.inner
    }

    fn chain(&mut self, item: ItemId) -> &mut Vec<MvVersion> {
        self.chains
            .entry(item)
            .or_insert_with(|| vec![MvVersion { writer: TxId::VIRTUAL, readers: Vec::new() }])
    }

    /// Number of versions currently kept for `item` (incl. the floor).
    pub fn version_count(&self, item: ItemId) -> usize {
        self.chains.get(&item).map(Vec::len).unwrap_or(1)
    }

    /// Serves a read: returns the writer whose version `tx` observes.
    /// Never fails.
    pub fn read(&mut self, tx: TxId, item: ItemId) -> TxId {
        self.inner.begin(tx);
        self.chain(item); // materialize the floor
        let n = self.chains[&item].len();
        for idx in (0..n).rev() {
            let writer = self.chains[&item][idx].writer;
            // Order after this version's writer…
            if self.inner.order(writer, tx).is_err() {
                continue; // writer is after tx: version too new
            }
            // …and before the successor's writer (vacuous for the newest):
            // version idx+1 was skipped because `Set(s, tx)` was refused,
            // so `TS(tx) < TS(s)` is already decided.
            debug_assert!(
                self.chains[&item]
                    .get(idx + 1)
                    .is_none_or(|s| self.inner.table().is_less(tx, s.writer)),
                "{tx} reads below a successor it is not ordered before"
            );
            self.chains.get_mut(&item).expect("chain exists").index_readers(idx, tx);
            return writer;
        }
        unreachable!("the floor version (T0) is always readable");
    }

    /// Schedules a write: `tx`'s version appends to the chain iff `tx` can
    /// be ordered after the newest version's writer and all its readers.
    pub fn write(&mut self, tx: TxId, item: ItemId) -> bool {
        self.inner.begin(tx);
        self.chain(item);
        let newest = self.chains[&item].last().expect("floor exists").clone();
        if newest.writer != tx && self.inner.order(newest.writer, tx).is_err() {
            return false;
        }
        for r in &newest.readers {
            if *r != tx && self.inner.order(*r, tx).is_err() {
                return false;
            }
        }
        if newest.writer == tx {
            return true; // overwrite own newest version in place
        }
        self.chain(item).push(MvVersion { writer: tx, readers: Vec::new() });
        true
    }

    /// Prunes versions no longer reachable by any transaction ordered
    /// before `horizon` — the multiversion analogue of III-D-6b's storage
    /// reclamation. Keeps at least the newest version per item. Returns
    /// versions dropped.
    pub fn prune_before(&mut self, horizon: TxId) -> usize {
        let mut dropped = 0;
        // A version is reclaimable if its *successor's* writer is already
        // ordered before the horizon: no transaction serialized after the
        // horizon can ever be slotted before that successor.
        let items: Vec<ItemId> = self.chains.keys().copied().collect();
        for item in items {
            loop {
                let chain = &self.chains[&item];
                if chain.len() < 2 {
                    break;
                }
                let successor = chain[1].writer;
                let ordered = !successor.is_virtual()
                    && self.inner.table().ts(successor).is_some()
                    && self.inner.table().ts(horizon).is_some()
                    && self.inner.table().is_less(successor, horizon);
                if !ordered {
                    break;
                }
                self.chains.get_mut(&item).expect("exists").remove(0);
                dropped += 1;
            }
        }
        dropped
    }

    /// Log recognition: only writes can fail (`Err(pos)`).
    pub fn recognize(log: &Log) -> Result<(), usize> {
        let mut s = MvMtScheduler::new(2 * log.max_ops_per_txn().max(1) - 1);
        for (pos, op) in log.ops().iter().enumerate() {
            for &item in op.items() {
                match op.kind {
                    OpKind::Read => {
                        let _ = s.read(op.tx, item);
                    }
                    OpKind::Write => {
                        if !s.write(op.tx, item) {
                            return Err(pos);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Convenience boolean form.
    pub fn accepts(log: &Log) -> bool {
        Self::recognize(log).is_ok()
    }

    /// The reads-from relation of the multiversion execution, or `None` if
    /// a write was rejected.
    #[allow(clippy::type_complexity)]
    pub fn reads_from(log: &Log, k: usize) -> Option<(MvMtScheduler, Vec<(TxId, ItemId, TxId)>)> {
        let mut s = MvMtScheduler::new(k);
        let mut out = Vec::new();
        for op in log.ops() {
            for &item in op.items() {
                match op.kind {
                    OpKind::Read => {
                        let from = s.read(op.tx, item);
                        out.push((op.tx, item, from));
                    }
                    OpKind::Write => {
                        if !s.write(op.tx, item) {
                            return None;
                        }
                    }
                }
            }
        }
        Some((s, out))
    }
}

trait IndexReaders {
    fn index_readers(&mut self, idx: usize, tx: TxId);
}

impl IndexReaders for Vec<MvVersion> {
    fn index_readers(&mut self, idx: usize, tx: TxId) {
        let readers = &mut self[idx].readers;
        if !readers.contains(&tx) {
            readers.push(tx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdts_model::MultiStepConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn old_reader_is_served_an_old_version() {
        let mut s = MvMtScheduler::new(3);
        // Order T1 < T2 via y, then both write x.
        assert!(s.write(TxId(1), ItemId(1)));
        assert!(s.write(TxId(2), ItemId(1)));
        assert!(s.write(TxId(1), ItemId(0)));
        assert!(s.write(TxId(2), ItemId(0)));
        // T1 reads x: single-version MT would order T1 after WT(x) = T2 —
        // impossible — and abort. MV-MT serves T1 its own version.
        assert_eq!(s.read(TxId(1), ItemId(0)), TxId(1));
        assert_eq!(s.read(TxId(2), ItemId(0)), TxId(2));
        assert_eq!(s.version_count(ItemId(0)), 3, "floor + two versions");
    }

    #[test]
    fn fresh_reader_slots_between_writers() {
        let mut s = MvMtScheduler::new(3);
        assert!(s.write(TxId(1), ItemId(0)));
        assert!(s.write(TxId(2), ItemId(0)));
        // A fresh T3 reads x: the newest version (T2's) is eligible — T3
        // just gets ordered after T2.
        assert_eq!(s.read(TxId(3), ItemId(0)), TxId(2));
        assert!(s.inner().table().is_less(TxId(2), TxId(3)));
    }

    #[test]
    fn reads_never_abort_writes_may() {
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = MultiStepConfig { n_txns: 5, n_items: 4, ..Default::default() };
        for _ in 0..500 {
            let log = cfg.generate(&mut rng);
            if let Err(pos) = MvMtScheduler::recognize(&log) {
                assert_eq!(log.op(pos).kind, OpKind::Write, "only writes reject: {log}");
            }
        }
    }

    #[test]
    fn mv_mt_accepts_more_than_mt() {
        use crate::recognize::to_k;
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = MultiStepConfig { n_txns: 5, n_items: 4, ..Default::default() };
        let (mut mv, mut sv) = (0u32, 0u32);
        for _ in 0..1500 {
            let log = cfg.generate(&mut rng);
            let k = 2 * log.max_ops_per_txn().max(1) - 1;
            mv += MvMtScheduler::accepts(&log) as u32;
            sv += to_k(&log, k) as u32;
        }
        assert!(mv > sv, "versioning must buy acceptance ({mv} vs {sv})");
    }

    /// One-copy serializability: the final vector order is a serial order
    /// under which every read observes exactly the version it was served.
    #[test]
    fn reads_from_matches_vector_serial_order() {
        let mut rng = StdRng::seed_from_u64(43);
        let cfg = MultiStepConfig { n_txns: 4, n_items: 4, ..Default::default() };
        let mut checked = 0;
        for _ in 0..800 {
            let log = cfg.generate(&mut rng);
            let k = 2 * log.max_ops_per_txn().max(1) - 1;
            let Some((s, rf)) = MvMtScheduler::reads_from(&log, k) else { continue };
            checked += 1;
            let order =
                s.inner().table().serial_order(&log.transactions()).expect("vector order sortable");
            // Serial replay in the vector order.
            let mut last_writer: BTreeMap<ItemId, TxId> = BTreeMap::new();
            let mut serial_first_read: BTreeMap<(TxId, ItemId), TxId> = BTreeMap::new();
            for &tx in &order {
                for op in log.ops().iter().filter(|o| o.tx == tx) {
                    for &item in op.items() {
                        match op.kind {
                            OpKind::Read => {
                                serial_first_read.entry((tx, item)).or_insert_with(|| {
                                    last_writer.get(&item).copied().unwrap_or(TxId::VIRTUAL)
                                });
                            }
                            OpKind::Write => {
                                last_writer.insert(item, tx);
                            }
                        }
                    }
                }
            }
            for (tx, item, from) in rf {
                if let Some(&serial_from) = serial_first_read.get(&(tx, item)) {
                    assert!(
                        from == serial_from || from == tx,
                        "{log}: T{} read {item} from T{}, serial order says T{}",
                        tx.0,
                        from.0,
                        serial_from.0
                    );
                }
            }
        }
        assert!(checked > 100, "too few accepted logs ({checked})");
    }

    #[test]
    fn pruning_keeps_newest_and_counts() {
        let mut s = MvMtScheduler::new(3);
        for t in 1..=4u32 {
            assert!(s.write(TxId(t), ItemId(0)));
        }
        assert_eq!(s.version_count(ItemId(0)), 5);
        // Horizon T4: every version whose successor precedes T4 goes.
        let dropped = s.prune_before(TxId(4));
        assert!(dropped >= 2, "old versions reclaimed ({dropped})");
        assert!(s.version_count(ItemId(0)) >= 1);
        // The newest version must survive for future readers.
        assert_eq!(s.read(TxId(9), ItemId(0)), TxId(4));
    }
}
