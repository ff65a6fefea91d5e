//! The hierarchical schedulers.
//!
//! [`HierarchyScheduler`] implements the generalized MT(k₁, …, k_l): each
//! transaction carries a *path* through the group hierarchy (top-level
//! group, …, leaf transaction). A dependency between two transactions is
//! encoded at the **topmost level where their paths diverge**, in that
//! level's timestamp table — exactly Section V-A's rule that "the group
//! timestamps will be involved if and only if two immediately dependent
//! transactions are in two different groups", generalized to deeper
//! nestings ("G₁, …, G_m can be further grouped into supergroups, and the
//! same idea applies").
//!
//! [`NestedScheduler`] is the paper's two-level MT(k₁, k₂) over a
//! [`Partition`].

use std::collections::BTreeMap;

use mdts_core::algo1::{self, OrderTable};
use mdts_core::{Decision, LogScheduler, MtOptions, MtScheduler};
use mdts_model::{ItemId, OpKind, Operation, TxId};
use mdts_vector::{CmpResult, TsVec};

use crate::partition::{GroupId, Partition};

/// Offset for auto-assigned singleton paths of unregistered transactions,
/// keeping them clear of explicitly registered group ids.
const SINGLETON_BASE: u32 = 1 << 20;

/// The generalized hierarchical scheduler MT(k₁, …, k_l).
///
/// Level 0 is the outermost grouping; the last level is the transactions
/// themselves. `dims[v]` is the timestamp-vector dimension of level `v`'s
/// table (so for the paper's MT(k₁, k₂), `dims = [k₂, k₁]`: groups outer,
/// transactions inner).
#[derive(Clone, Debug)]
pub struct HierarchyScheduler {
    /// One ordering engine per level; engine `v` keeps the level-`v`
    /// timestamp table (node 0 = the virtual group/transaction).
    engines: Vec<MtScheduler>,
    /// Full path per transaction, including the leaf (`path[last] = tx`).
    paths: BTreeMap<TxId, Vec<u32>>,
    rt: BTreeMap<ItemId, TxId>,
    wt: BTreeMap<ItemId, TxId>,
}

impl HierarchyScheduler {
    /// Builds a hierarchy with the given per-level vector dimensions
    /// (outermost first, transactions last).
    ///
    /// # Panics
    /// Panics if `dims` is empty or any dimension is 0.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty());
        HierarchyScheduler {
            engines: dims.iter().map(|&k| MtScheduler::new(MtOptions::for_composite(k))).collect(),
            paths: BTreeMap::new(),
            rt: BTreeMap::new(),
            wt: BTreeMap::new(),
        }
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.engines.len()
    }

    /// Registers a transaction under the given group path (`groups.len()`
    /// must be `levels − 1`; the leaf is the transaction itself). Group
    /// membership is static (Section V-A): re-registration panics.
    pub fn register(&mut self, tx: TxId, groups: &[u32]) {
        assert_eq!(groups.len(), self.levels() - 1, "one group id per non-leaf level");
        assert!(!tx.is_virtual());
        assert!(groups.iter().all(|&g| g >= 1), "group 0 is the virtual group");
        let mut path = groups.to_vec();
        path.push(tx.0);
        let prev = self.paths.insert(tx, path);
        assert!(prev.is_none(), "{tx} already registered: groups are static");
    }

    fn path_of(&mut self, tx: TxId) -> Vec<u32> {
        if tx.is_virtual() {
            return vec![0; self.levels()];
        }
        if let Some(p) = self.paths.get(&tx) {
            return p.clone();
        }
        // Unregistered: a singleton group per level, disjoint from explicit ids.
        let mut path = vec![SINGLETON_BASE + tx.0; self.levels() - 1];
        path.push(tx.0);
        self.paths.insert(tx, path.clone());
        path
    }

    /// Timestamp vector of a node at `level` (for tests and table dumps).
    pub fn level_ts(&self, level: usize, id: u32) -> Option<&TsVec> {
        self.engines[level].table().ts(TxId(id))
    }

    /// The level whose table orders `a` against `b` — the first at which
    /// their paths diverge — and their two nodes there (`None` = same path).
    fn nodes(&mut self, a: TxId, b: TxId) -> Option<(usize, TxId, TxId)> {
        let (pa, pb) = (self.path_of(a), self.path_of(b));
        let v = pa.iter().zip(&pb).position(|(x, y)| x != y)?;
        Some((v, TxId(pa[v]), TxId(pb[v])))
    }

    /// Schedules one access of `tx` to `item`: [`algo1::access`] over the
    /// hierarchy's tables with the composite options every level runs, then
    /// line 7 or 12. With the reader and Thomas rules off, every accepted
    /// access is a plain grant.
    fn access(&mut self, tx: TxId, item: ItemId, kind: OpKind) -> Decision {
        let rt = self.rt.get(&item).copied().unwrap_or(TxId::VIRTUAL);
        let wt = self.wt.get(&item).copied().unwrap_or(TxId::VIRTUAL);
        let opts = *self.engines[0].options();
        let decision = algo1::decision(tx, item, algo1::access(self, &opts, tx, kind, rt, wt));
        if decision.is_accept() {
            match kind {
                OpKind::Read => self.rt.insert(item, tx),
                OpKind::Write => self.wt.insert(item, tx),
            };
        }
        decision
    }

    /// Schedules a read.
    pub fn read(&mut self, tx: TxId, item: ItemId) -> Decision {
        self.access(tx, item, OpKind::Read)
    }

    /// Schedules a write.
    pub fn write(&mut self, tx: TxId, item: ItemId) -> Decision {
        self.access(tx, item, OpKind::Write)
    }

    /// Schedules a whole operation (first rejection rejects it).
    pub fn process(&mut self, op: &Operation) -> Decision {
        algo1::process(op, |tx, item, kind| self.access(tx, item, kind))
    }
}

/// The hierarchy as Algorithm 1 sees it: each pair is ordered in the table
/// of the level where the two paths diverge (Section V-A).
impl OrderTable for HierarchyScheduler {
    fn order_of(&mut self, a: TxId, b: TxId) -> CmpResult {
        match self.nodes(a, b) {
            // One path is one transaction: the same vector.
            None => CmpResult::Identical,
            Some((v, a, b)) => {
                let table = self.engines[v].table_mut();
                table.ensure_tx(a);
                table.ensure_tx(b);
                table.compare(a, b)
            }
        }
    }

    fn set(&mut self, j: TxId, i: TxId) -> Result<(), usize> {
        match self.nodes(j, i) {
            None => Ok(()),
            Some((v, j, i)) => self.engines[v].order(j, i),
        }
    }

    /// The hierarchy keeps no restart hints.
    fn note_reject(&mut self, _tx: TxId, _against: TxId) {}
}

/// The paper's MT(k₁, k₂): transactions inside groups.
///
/// `k1` is the transaction-table dimension, `k2` the group-table dimension
/// (Fig. 11). Dependencies within a group use transaction timestamps;
/// dependencies across groups use group timestamps only.
#[derive(Clone, Debug)]
pub struct NestedScheduler {
    inner: HierarchyScheduler,
    partition: Partition,
}

impl NestedScheduler {
    /// Builds MT(k₁, k₂) over a static partition.
    pub fn new(k1: usize, k2: usize, partition: Partition) -> Self {
        NestedScheduler { inner: HierarchyScheduler::new(&[k2, k1]), partition }
    }

    fn ensure(&mut self, tx: TxId) {
        if tx.is_virtual() || self.inner.paths.contains_key(&tx) {
            return;
        }
        let g = self.partition.group_of(tx);
        self.inner.register(tx, &[g.0]);
    }

    /// Group timestamp `GS(g)`.
    pub fn group_ts(&self, g: GroupId) -> Option<&TsVec> {
        self.inner.level_ts(0, g.0)
    }

    /// Transaction timestamp `TS(i)`.
    pub fn tx_ts(&self, tx: TxId) -> Option<&TsVec> {
        self.inner.level_ts(1, tx.0)
    }

    /// Schedules a read.
    pub fn read(&mut self, tx: TxId, item: ItemId) -> Decision {
        self.ensure(tx);
        self.inner.read(tx, item)
    }

    /// Schedules a write.
    pub fn write(&mut self, tx: TxId, item: ItemId) -> Decision {
        self.ensure(tx);
        self.inner.write(tx, item)
    }

    /// Schedules a whole operation.
    pub fn process(&mut self, op: &Operation) -> Decision {
        self.ensure(op.tx);
        self.inner.process(op)
    }
}

impl LogScheduler for NestedScheduler {
    fn process_op(&mut self, op: &Operation) -> Decision {
        self.process(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdts_core::recognize;
    use mdts_model::Log;

    /// Example 4 / Table III: G₁ = {T₁, T₂}, G₂ = {T₃}, k₁ = k₂ = 2.
    #[test]
    fn example4_table3_vectors() {
        let partition = Partition::from_pairs([
            (TxId(1), GroupId(1)),
            (TxId(2), GroupId(1)),
            (TxId(3), GroupId(2)),
        ]);
        let mut s = NestedScheduler::new(2, 2, partition);
        // a: R1[x] → G0→G1 (group encode); b: R2[y] → implied, no change;
        // c: W2[x] → T1→T2 within G1 (transaction encode);
        // d: R3[x] → G1→G2 (group encode).
        let log = Log::parse("R1[x] R2[y] W2[x] R3[x]").unwrap();
        assert!(recognize(&mut s, &log).accepted);

        assert_eq!(s.group_ts(GroupId::VIRTUAL).unwrap().to_string(), "<0,*>");
        assert_eq!(s.group_ts(GroupId(1)).unwrap().to_string(), "<1,*>");
        assert_eq!(s.group_ts(GroupId(2)).unwrap().to_string(), "<2,*>");
        assert_eq!(s.tx_ts(TxId(1)).unwrap().to_string(), "<1,*>");
        assert_eq!(s.tx_ts(TxId(2)).unwrap().to_string(), "<2,*>");
        // T3 never conflicted within its group: transaction vector untouched.
        assert!(s.tx_ts(TxId(3)).is_none() || s.tx_ts(TxId(3)).unwrap().is_fully_undefined());
    }

    /// "If in the future a new dependency T₃ → T₂ is created due to some
    /// conflict, it is disallowed since it also implies G₂ → G₁."
    #[test]
    fn group_order_is_antisymmetric() {
        let partition = Partition::from_pairs([
            (TxId(1), GroupId(1)),
            (TxId(2), GroupId(1)),
            (TxId(3), GroupId(2)),
        ]);
        let mut s = NestedScheduler::new(2, 2, partition);
        let log = Log::parse("R1[x] R2[y] W2[x] R3[x]").unwrap();
        assert!(recognize(&mut s, &log).accepted);
        // T3 reads z, then T2 writes z: would need T3 → T2 i.e. G2 → G1.
        assert!(s.read(TxId(3), ItemId(9)).is_accept());
        let d = s.write(TxId(2), ItemId(9));
        assert!(!d.is_accept(), "G2 → G1 contradicts GS(1) < GS(2)");
    }

    /// With all transactions in one group, MT(k₁, k₂) behaves as MT(k₁)
    /// over the real inter-transaction dependencies, with the T₀
    /// bootstrapping dependencies absorbed by the group table (exactly as
    /// Table III routes edge *a* into `GS(1)` rather than `TS(1)`). The
    /// two are therefore not log-for-log identical — the transaction
    /// vectors keep an extra column of freedom — but the single-group
    /// scheduler stays sound and accepts everything serial.
    #[test]
    fn single_group_is_sound_and_origin_goes_to_group_table() {
        use mdts_graph::is_dsr;
        use mdts_model::MultiStepConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Structural check: the very first operation orders G0 → G1 in the
        // group table and leaves the transaction vector untouched.
        let partition = Partition::from_pairs([(TxId(1), GroupId(1)), (TxId(2), GroupId(1))]);
        let mut s = NestedScheduler::new(3, 2, partition);
        assert!(s.write(TxId(1), ItemId(0)).is_accept());
        assert_eq!(s.group_ts(GroupId(1)).unwrap().to_string(), "<1,*>");
        assert!(s.tx_ts(TxId(1)).is_none() || s.tx_ts(TxId(1)).unwrap().is_fully_undefined());
        // The first real conflict encodes in the transaction table.
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        assert_eq!(s.tx_ts(TxId(1)).unwrap().to_string(), "<1,*,*>");
        assert_eq!(s.tx_ts(TxId(2)).unwrap().to_string(), "<2,*,*>");

        // Soundness on random logs. Acceptance of a random interleaving is
        // rare (~1–2%), so draw enough samples that some acceptances are
        // near-certain regardless of the RNG stream.
        let mut rng = StdRng::seed_from_u64(21);
        let mut accepted = 0;
        for _ in 0..2000 {
            let log =
                MultiStepConfig { n_txns: 4, n_items: 4, ..Default::default() }.generate(&mut rng);
            let partition =
                Partition::from_pairs(log.transactions().into_iter().map(|t| (t, GroupId(1))));
            let mut nested = NestedScheduler::new(3, 2, partition);
            if recognize(&mut nested, &log).accepted {
                accepted += 1;
                assert!(is_dsr(&log), "accepted non-DSR log: {log}");
            }
        }
        assert!(accepted > 0);
        // Serial logs are always accepted, independent of sampling luck.
        let serial = Log::parse("R1[x] W1[y] R2[y] W2[x]").unwrap();
        let partition =
            Partition::from_pairs(serial.transactions().into_iter().map(|t| (t, GroupId(1))));
        assert!(recognize(&mut NestedScheduler::new(3, 2, partition), &serial).accepted);
    }

    /// With one transaction per group, MT(k₁, k₂) reduces to MT(k₂) over
    /// the groups.
    #[test]
    fn singleton_groups_reduce_to_group_mtk() {
        use mdts_model::MultiStepConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..200 {
            let log =
                MultiStepConfig { n_txns: 4, n_items: 4, ..Default::default() }.generate(&mut rng);
            let partition =
                Partition::from_pairs(log.transactions().into_iter().map(|t| (t, GroupId(t.0))));
            let mut nested = NestedScheduler::new(2, 3, partition);
            let mut flat = MtScheduler::new(MtOptions::for_composite(3));
            assert_eq!(
                recognize(&mut nested, &log).accepted,
                recognize(&mut flat, &log).accepted,
                "log: {log}"
            );
        }
    }

    /// A one-level hierarchy is MT(k) with the composite options: the same
    /// kernel over one table, so the same verdict on every operation —
    /// the refusing holder and column included — and the same vectors.
    #[test]
    fn one_level_hierarchy_is_composite_mtk_decision_for_decision() {
        use mdts_model::MultiStepConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(24);
        let mut rejections = 0;
        for round in 0..3000 {
            let k = 1 + round % 4;
            let log =
                MultiStepConfig { n_txns: 4, n_items: 4, ..Default::default() }.generate(&mut rng);
            let mut hierarchy = HierarchyScheduler::new(&[k]);
            let mut flat = MtScheduler::new(MtOptions::for_composite(k));
            for op in log.ops() {
                let d = hierarchy.process(op);
                assert_eq!(d, flat.process(op), "k = {k}, {op} in {log}");
                rejections += usize::from(!d.is_accept());
            }
            for tx in log.transactions() {
                assert_eq!(hierarchy.level_ts(0, tx.0), flat.table().ts(tx), "k = {k}, {tx}");
            }
        }
        assert!(rejections > 100, "only {rejections} rejections");
    }

    /// Accepted logs are serializable (nested soundness).
    #[test]
    fn nested_accepts_only_serializable_logs() {
        use mdts_graph::is_dsr;
        use mdts_model::MultiStepConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // With only 4 items, 5-transaction conflict chains exhaust the
        // 2-dimensional group vectors and acceptance mass is ~zero (the
        // paper's Fig. 4 non-inclusion at work), which would leave the
        // soundness assertion vacuous. 16 items keeps conflicts sparse
        // enough that ~10% of interleavings are accepted.
        let mut rng = StdRng::seed_from_u64(23);
        let mut accepted = 0;
        for round in 0..2000 {
            let log =
                MultiStepConfig { n_txns: 5, n_items: 16, ..Default::default() }.generate(&mut rng);
            // Two groups, split by parity.
            let partition = Partition::from_pairs(
                log.transactions().into_iter().map(|t| (t, GroupId(1 + t.0 % 2))),
            );
            let mut nested = NestedScheduler::new(2, 2, partition);
            if recognize(&mut nested, &log).accepted {
                accepted += 1;
                assert!(is_dsr(&log), "round {round}: accepted non-DSR log {log}");
            }
        }
        assert!(accepted > 0, "sampler never accepted");
    }

    /// Three-level hierarchy: supergroups work the same way.
    #[test]
    fn three_level_hierarchy() {
        let mut s = HierarchyScheduler::new(&[2, 2, 2]);
        s.register(TxId(1), &[1, 1]);
        s.register(TxId(2), &[1, 2]);
        s.register(TxId(3), &[2, 1]);
        // T1 → T2 diverge at level 1 (same supergroup): level-1 encode.
        assert!(s.read(TxId(1), ItemId(0)).is_accept());
        assert!(s.write(TxId(2), ItemId(0)).is_accept());
        assert_eq!(s.level_ts(1, 1).unwrap().to_string(), "<1,*>");
        assert_eq!(s.level_ts(1, 2).unwrap().to_string(), "<2,*>");
        // T2 → T3 diverge at level 0: supergroup encode.
        assert!(s.read(TxId(3), ItemId(0)).is_accept());
        assert_eq!(s.level_ts(0, 1).unwrap().to_string(), "<1,*>");
        assert_eq!(s.level_ts(0, 2).unwrap().to_string(), "<2,*>");
        // And the reverse supergroup dependency is now impossible.
        assert!(s.read(TxId(3), ItemId(5)).is_accept());
        assert!(!s.write(TxId(1), ItemId(5)).is_accept(), "would imply SG2 → SG1");
    }

    #[test]
    #[should_panic(expected = "static")]
    fn reregistration_panics() {
        let mut s = HierarchyScheduler::new(&[2, 2]);
        s.register(TxId(1), &[1]);
        s.register(TxId(1), &[2]);
    }
}
