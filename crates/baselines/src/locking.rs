//! Strict two-phase locking: a shared/exclusive lock manager with FIFO
//! queuing and waits-for deadlock detection, plus a non-blocking recognizer
//! for the class experiments.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mdts_model::{ItemId, Log, OpKind, TxId};

/// Lock mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode {
    /// Whether two holders of these modes may coexist on one item.
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    /// The mode an operation kind needs.
    pub fn for_op(kind: OpKind) -> LockMode {
        match kind {
            OpKind::Read => LockMode::Shared,
            OpKind::Write => LockMode::Exclusive,
        }
    }
}

/// Result of a lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockOutcome {
    /// Lock granted (or already held in a sufficient mode).
    Granted,
    /// The requester must wait; it has been queued.
    Blocked,
    /// Granting would deadlock; the requester was chosen as victim and its
    /// queued request discarded. The caller must abort it.
    Deadlock,
}

#[derive(Clone, Debug, Default)]
struct ItemLocks {
    /// Current holders and their strongest mode.
    holders: BTreeMap<TxId, LockMode>,
    /// FIFO wait queue.
    queue: VecDeque<(TxId, LockMode)>,
}

/// A shared/exclusive lock manager with FIFO fairness and waits-for
/// deadlock detection at request time.
#[derive(Clone, Debug, Default)]
pub struct LockManager {
    items: BTreeMap<ItemId, ItemLocks>,
    /// Items each transaction currently holds or waits for.
    touched: BTreeMap<TxId, BTreeSet<ItemId>>,
}

impl LockManager {
    /// Empty lock manager.
    pub fn new() -> Self {
        LockManager::default()
    }

    fn can_grant(locks: &ItemLocks, tx: TxId, mode: LockMode) -> bool {
        locks.holders.iter().all(|(&h, &m)| h == tx || m.compatible(mode) && mode.compatible(m))
    }

    /// Whether `tx` currently holds the item in a mode covering `mode`.
    pub fn holds(&self, tx: TxId, item: ItemId, mode: LockMode) -> bool {
        self.items
            .get(&item)
            .and_then(|l| l.holders.get(&tx))
            .is_some_and(|&m| m == LockMode::Exclusive || mode == LockMode::Shared)
    }

    /// Transactions `tx` would wait for if it requested `mode` on `item`:
    /// incompatible holders plus queued requests ahead of it.
    fn blockers(&self, tx: TxId, item: ItemId, mode: LockMode) -> Vec<TxId> {
        let Some(locks) = self.items.get(&item) else { return Vec::new() };
        let mut out: Vec<TxId> = locks
            .holders
            .iter()
            .filter(|&(&h, &m)| h != tx && !(m.compatible(mode) && mode.compatible(m)))
            .map(|(&h, _)| h)
            .collect();
        for &(q, _) in &locks.queue {
            if q != tx && !out.contains(&q) {
                out.push(q);
            }
        }
        out
    }

    /// Waits-for reachability: can `from` reach `to` through blocked
    /// transactions? Used for deadlock detection.
    fn waits_for_reaches(&self, from: TxId, to: TxId) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            // t waits for the blockers of each request it has queued.
            for (item, locks) in &self.items {
                if locks.queue.iter().any(|&(q, _)| q == t) {
                    let mode = locks
                        .queue
                        .iter()
                        .find(|&&(q, _)| q == t)
                        .map(|&(_, m)| m)
                        .expect("just matched");
                    stack.extend(self.blockers(t, *item, mode));
                }
            }
        }
        false
    }

    /// Requests `mode` on `item` for `tx`.
    ///
    /// Lock upgrades (shared → exclusive by the sole holder) are granted in
    /// place; an upgrade that must wait behind other holders queues like
    /// any other request.
    pub fn request(&mut self, tx: TxId, item: ItemId, mode: LockMode) -> LockOutcome {
        let locks = self.items.entry(item).or_default();
        // Already held in a sufficient mode?
        if let Some(&held) = locks.holders.get(&tx) {
            if held == LockMode::Exclusive || mode == LockMode::Shared {
                return LockOutcome::Granted;
            }
        }
        let fifo_clear = locks.queue.is_empty()
            || locks.queue.iter().all(|&(q, _)| q == tx)
            // An upgrade request by a current holder may jump the queue —
            // standard treatment that avoids trivial upgrade deadlocks.
            || locks.holders.contains_key(&tx);
        if fifo_clear && Self::can_grant(locks, tx, mode) {
            locks.holders.insert(tx, mode);
            self.touched.entry(tx).or_default().insert(item);
            return LockOutcome::Granted;
        }
        // Would waiting deadlock? tx waits for blockers; if any blocker
        // (transitively) waits for tx, abort tx.
        let blockers = self.blockers(tx, item, mode);
        for b in &blockers {
            if *b == tx || self.waits_for_reaches(*b, tx) {
                return LockOutcome::Deadlock;
            }
        }
        let locks = self.items.get_mut(&item).expect("created above");
        if !locks.queue.iter().any(|&(q, m)| q == tx && m == mode) {
            locks.queue.push_back((tx, mode));
        }
        self.touched.entry(tx).or_default().insert(item);
        LockOutcome::Blocked
    }

    /// Releases everything `tx` holds or waits for (strictness: called at
    /// commit or abort). Returns the transactions whose queued requests can
    /// now be granted, in grant order.
    pub fn release_all(&mut self, tx: TxId) -> Vec<TxId> {
        let mut woken = Vec::new();
        let Some(items) = self.touched.remove(&tx) else { return woken };
        for item in items {
            let Some(locks) = self.items.get_mut(&item) else { continue };
            locks.holders.remove(&tx);
            locks.queue.retain(|&(q, _)| q != tx);
            // Grant from the queue head while compatible.
            while let Some(&(q, m)) = locks.queue.front() {
                if Self::can_grant(locks, q, m) {
                    locks.queue.pop_front();
                    locks.holders.insert(q, m);
                    if !woken.contains(&q) {
                        woken.push(q);
                    }
                } else {
                    break;
                }
            }
            if locks.holders.is_empty() && locks.queue.is_empty() {
                self.items.remove(&item);
            }
        }
        woken
    }
}

/// The class recognized by an online strict-2PL scheduler that never
/// reorders: a log is accepted iff no operation ever has to wait.
///
/// This is the executable counterpart of `mdts_graph::is_2pl_arrival`
/// *restricted to locks held until end of transaction* (strictness), i.e.
/// the class actually realized by production 2PL systems.
#[derive(Clone, Debug, Default)]
pub struct StrictTwoPhaseLocking;

impl StrictTwoPhaseLocking {
    /// Fresh recognizer.
    pub fn new() -> Self {
        StrictTwoPhaseLocking
    }

    /// Runs the log, releasing each transaction's locks after its last
    /// operation. Returns the position of the first operation that would
    /// block (`Err(pos)`) or `Ok(())` when the log is accepted as-is.
    pub fn recognize(log: &Log) -> Result<(), usize> {
        let mut lm = LockManager::new();
        let last_pos: BTreeMap<TxId, usize> =
            log.tx_summaries().iter().map(|s| (s.tx, s.last_pos())).collect();
        for (pos, op) in log.ops().iter().enumerate() {
            let mode = LockMode::for_op(op.kind);
            for &item in op.items() {
                match lm.request(op.tx, item, mode) {
                    LockOutcome::Granted => {}
                    _ => return Err(pos),
                }
            }
            if last_pos[&op.tx] == pos {
                lm.release_all(op.tx);
            }
        }
        Ok(())
    }

    /// Convenience boolean form.
    pub fn accepts(log: &Log) -> bool {
        Self::recognize(log).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: ItemId = ItemId(0);
    const Y: ItemId = ItemId(1);

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(TxId(1), X, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(TxId(2), X, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(TxId(3), X, LockMode::Exclusive), LockOutcome::Blocked);
    }

    #[test]
    fn release_wakes_fifo_order() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(TxId(1), X, LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.request(TxId(2), X, LockMode::Exclusive), LockOutcome::Blocked);
        assert_eq!(lm.request(TxId(3), X, LockMode::Shared), LockOutcome::Blocked);
        let woken = lm.release_all(TxId(1));
        assert_eq!(woken, vec![TxId(2)], "only the queue head is compatible");
        let woken = lm.release_all(TxId(2));
        assert_eq!(woken, vec![TxId(3)]);
        assert!(lm.holds(TxId(3), X, LockMode::Shared));
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(TxId(1), X, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(TxId(1), X, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(
            lm.request(TxId(1), X, LockMode::Exclusive),
            LockOutcome::Granted,
            "sole-holder upgrade"
        );
        assert_eq!(
            lm.request(TxId(1), X, LockMode::Shared),
            LockOutcome::Granted,
            "exclusive covers shared"
        );
    }

    #[test]
    fn deadlock_detected() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(TxId(1), X, LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.request(TxId(2), Y, LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(lm.request(TxId(1), Y, LockMode::Exclusive), LockOutcome::Blocked);
        assert_eq!(lm.request(TxId(2), X, LockMode::Exclusive), LockOutcome::Deadlock);
        // Victim aborts; T1 proceeds.
        let woken = lm.release_all(TxId(2));
        assert_eq!(woken, vec![TxId(1)]);
        assert!(lm.holds(TxId(1), Y, LockMode::Exclusive));
    }

    #[test]
    fn upgrade_deadlock_between_two_readers() {
        let mut lm = LockManager::new();
        assert_eq!(lm.request(TxId(1), X, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(TxId(2), X, LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.request(TxId(1), X, LockMode::Exclusive), LockOutcome::Blocked);
        assert_eq!(lm.request(TxId(2), X, LockMode::Exclusive), LockOutcome::Deadlock);
    }

    #[test]
    fn recognizer_accepts_serial_rejects_interleaved_conflicts() {
        let serial = Log::parse("R1[x] W1[x] R2[x] W2[x]").unwrap();
        assert!(StrictTwoPhaseLocking::accepts(&serial));
        // T2 still holds its shared lock when T1 tries to upgrade.
        let blocked = Log::parse("R1[x] R2[x] W1[x] W2[y]").unwrap();
        assert_eq!(StrictTwoPhaseLocking::recognize(&blocked), Err(2), "upgrade must wait for T2");
        let fine = Log::parse("R1[x] R2[y] W1[x] W2[y]").unwrap();
        assert!(StrictTwoPhaseLocking::accepts(&fine));
    }

    #[test]
    fn strict_2pl_accepted_logs_are_serializable() {
        use mdts_graph::is_dsr;
        use mdts_model::MultiStepConfig;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let mut checked = 0;
        for _ in 0..400 {
            let log =
                MultiStepConfig { n_txns: 4, n_items: 4, ..Default::default() }.generate(&mut rng);
            if StrictTwoPhaseLocking::accepts(&log) {
                checked += 1;
                assert!(is_dsr(&log), "strict 2PL accepted a non-serializable log: {log}");
            }
        }
        assert!(checked > 0, "sampler found no accepted logs");
    }

    /// Lock *upgrades* let the executable strict-2PL scheduler accept logs
    /// that the no-upgrade lock-interval model of
    /// `mdts_graph::is_2pl_arrival` classifies as non-2PL — the two sit on
    /// either side of the upgrade modeling choice (documented in
    /// `mdts-graph::classes`).
    #[test]
    fn upgrades_distinguish_executable_and_model_classes() {
        use mdts_graph::is_2pl_arrival;
        // T2's shared lock on x is released (end of T2) before T1 upgrades.
        let log = Log::parse("R1[x] R2[x] W1[x]").unwrap();
        assert!(StrictTwoPhaseLocking::accepts(&log), "upgrade after T2 finished");
        assert!(!is_2pl_arrival(&log), "no-upgrade model sees interleaved exclusive spans");
    }
}
