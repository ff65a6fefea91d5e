//! The DMT(k) scheduler: MT(k) over a logically shared table, with
//! per-site counters, ordered locking and message accounting.
//!
//! Each access decides through the inner MT(k) scheduler, and so through
//! `mdts-core`'s one statement of Algorithm 1. `Set` defines elements only
//! of `RT(x)`, `WT(x)` and the issuer — the vectors the access locked — so
//! the write-back accounting reads each locked vector's defined count
//! before and after the decision.
//!
//! Observability: a [`TraceSink`] attached with
//! [`DmtScheduler::attach_trace`] receives the merged stream — each
//! operation's `DmtOp`/`DmtLock` hops, the inner scheduler's decision
//! events (the sink is attached to it too), then the
//! `DmtWriteBack`/`DmtSync` message traffic.

use std::collections::BTreeMap;

use mdts_core::{algo1, Decision, LogScheduler, MtOptions, MtScheduler};
use mdts_model::{ItemId, OpKind, Operation, TxId};
use mdts_trace::{DmtObj, DmtSource, TraceEvent, TraceSink};
use mdts_vector::KthCounters;

use crate::topology::Topology;

/// A lockable object of the distributed table: an item record (its
/// `RT`/`WT` indices and data) or a transaction's timestamp vector.
///
/// The derived `Ord` is the *predefined linear order* in which locks are
/// acquired (V-B-2): all item records before all vectors, each ascending by
/// id. Any global total order works; it only has to be agreed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ObjectId {
    /// An item record.
    Item(ItemId),
    /// A transaction's timestamp vector.
    Vector(TxId),
}

impl From<ObjectId> for DmtObj {
    fn from(obj: ObjectId) -> DmtObj {
        match obj {
            ObjectId::Item(item) => DmtObj::Item(item),
            ObjectId::Vector(tx) => DmtObj::Vector(tx),
        }
    }
}

/// Message and locking statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DmtStats {
    /// Operations scheduled.
    pub ops: u64,
    /// Messages sent (2 per remote lock+fetch, 1 per remote write-back;
    /// unlocks piggyback on write-backs or are free for clean objects).
    pub messages: u64,
    /// Remote objects fetched.
    pub remote_fetches: u64,
    /// Remote fetches avoided by the lock-retention optimization.
    pub retained: u64,
    /// Objects that were local to the scheduling site.
    pub local_hits: u64,
    /// Largest lock set any single operation needed (paper: "at most three
    /// or four objects").
    pub max_locks_per_op: usize,
    /// Counter synchronization rounds performed.
    pub syncs: u64,
    /// Timestamp-element assignments performed (vector elements defined).
    pub assignments: u64,
    /// Dirtied objects written back to their home sites (remote and local).
    pub write_backs: u64,
}

/// The [`DmtStats`] dimensions that attribute to a single scheduling site.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DmtSiteStats {
    /// Operations this site scheduled.
    pub ops: u64,
    /// Messages this site's operations cost.
    pub messages: u64,
    /// Remote objects this site fetched.
    pub remote_fetches: u64,
    /// Fetches this site avoided by lock retention.
    pub retained: u64,
    /// Lock-set objects that were local to this site.
    pub local_hits: u64,
    /// Timestamp-element assignments performed by this site's operations.
    pub assignments: u64,
    /// Objects this site's operations dirtied and wrote back.
    pub write_backs: u64,
}

/// Configuration for [`DmtScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct DmtConfig {
    /// Vector dimension.
    pub k: usize,
    /// Number of sites.
    pub n_sites: u32,
    /// Synchronize the per-site counters every this many operations
    /// (0 = never). Affects fairness of k-th column values, not safety.
    pub sync_interval: u64,
    /// Keep a remote lock when the next operation scheduled by the same
    /// site needs the same object and nobody touched it in between
    /// ("a scheduler may retain the same lock for the next operation").
    pub retain_locks: bool,
}

impl DmtConfig {
    /// A sensible default: sync every 16 operations, retention on.
    pub fn new(k: usize, n_sites: u32) -> Self {
        DmtConfig { k, n_sites, sync_interval: 16, retain_locks: true }
    }
}

/// The decentralized scheduler.
#[derive(Clone, Debug)]
pub struct DmtScheduler {
    /// The logically shared MT(k) table. Per-operation, the scheduling
    /// site's counters are swapped in so k-th column values carry its tag.
    inner: MtScheduler,
    site_counters: Vec<KthCounters>,
    topology: Topology,
    config: DmtConfig,
    stats: DmtStats,
    site_stats: Vec<DmtSiteStats>,
    /// Which site last held a lock on each object (for retention).
    last_locker: BTreeMap<ObjectId, u32>,
    /// External sink for the merged DMT + protocol event stream.
    trace: TraceSink,
}

impl DmtScheduler {
    /// Builds DMT(k) over `n_sites` sites.
    pub fn new(config: DmtConfig) -> Self {
        let n = config.n_sites;
        DmtScheduler {
            inner: MtScheduler::new(MtOptions::new(config.k)),
            site_counters: (0..n).map(|s| KthCounters::site_tagged(n as i64, s as i64)).collect(),
            topology: Topology::new(n),
            config,
            stats: DmtStats::default(),
            site_stats: vec![DmtSiteStats::default(); n as usize],
            last_locker: BTreeMap::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Routes the merged decision trace — site/lock/message hops plus the
    /// inner protocol's events, interleaved per operation — to `sink`.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        self.inner.attach_trace(sink.clone());
        self.trace = sink;
    }

    /// Statistics so far.
    pub fn stats(&self) -> DmtStats {
        self.stats
    }

    /// Per-site breakdown of [`DmtScheduler::stats`], indexed by site id.
    pub fn site_stats(&self) -> &[DmtSiteStats] {
        &self.site_stats
    }

    /// The logical table (for equivalence checks against centralized MT(k)).
    pub fn inner(&self) -> &MtScheduler {
        &self.inner
    }

    /// The lock set one access needs: the item record plus the `RT`, `WT`
    /// and issuer vectors, in the predefined order.
    fn lock_set(&self, tx: TxId, item: ItemId) -> Vec<ObjectId> {
        let mut objs = vec![
            ObjectId::Item(item),
            ObjectId::Vector(self.inner.table().rt(item)),
            ObjectId::Vector(self.inner.table().wt(item)),
            ObjectId::Vector(tx),
        ];
        objs.sort_unstable();
        objs.dedup();
        objs
    }

    fn acquire(&mut self, site: u32, objs: &[ObjectId]) {
        debug_assert!(objs.windows(2).all(|w| w[0] < w[1]), "lock order violated");
        self.stats.max_locks_per_op = self.stats.max_locks_per_op.max(objs.len());
        for &obj in objs {
            let per_site = &mut self.site_stats[site as usize];
            let source = if self.topology.site_of_object(obj) == site {
                self.stats.local_hits += 1;
                per_site.local_hits += 1;
                DmtSource::Local
            } else if self.config.retain_locks && self.last_locker.get(&obj) == Some(&site) {
                self.stats.retained += 1;
                per_site.retained += 1;
                DmtSource::Retained
            } else {
                self.stats.remote_fetches += 1;
                per_site.remote_fetches += 1;
                self.stats.messages += 2; // lock+fetch request, reply
                per_site.messages += 2;
                DmtSource::Remote
            };
            self.last_locker.insert(obj, site);
            self.trace.emit(|| TraceEvent::DmtLock { site, obj: obj.into(), source });
        }
    }

    /// Defined elements per vector of `objs` (0 for a vector with no row).
    fn defined_counts(&self, objs: &[ObjectId]) -> Vec<usize> {
        let table = self.inner.table();
        let count = |obj| match obj {
            ObjectId::Vector(tx) => table.ts(tx).map_or(0, |v| v.defined_count()),
            ObjectId::Item(_) => 0,
        };
        objs.iter().map(|&obj| count(obj)).collect()
    }

    /// Write-backs for the objects this access modified: every locked
    /// vector that gained elements (`before`: the defined counts ahead of
    /// the decision), then the item record if `RT`/`WT` changed.
    fn write_back(&mut self, site: u32, objs: &[ObjectId], before: &[usize], item_changed: bool) {
        let after = self.defined_counts(objs);
        let gained: Vec<u64> = after.iter().zip(before).map(|(a, b)| (a - b) as u64).collect();
        let assignments = gained.iter().sum::<u64>();
        self.stats.assignments += assignments;
        self.site_stats[site as usize].assignments += assignments;
        let dirty = objs.iter().zip(&gained).filter(|&(_, &g)| g > 0).map(|(&obj, _)| obj);
        // The item record leads the lock order.
        for obj in dirty.chain(item_changed.then_some(objs[0])) {
            let remote = self.topology.site_of_object(obj) != site;
            if remote {
                self.stats.messages += 1; // combined write-back + unlock
                self.site_stats[site as usize].messages += 1;
            }
            self.stats.write_backs += 1;
            self.site_stats[site as usize].write_backs += 1;
            self.trace.emit(|| TraceEvent::DmtWriteBack { site, obj: obj.into(), remote });
        }
    }

    fn maybe_sync(&mut self, site: u32) {
        if self.config.sync_interval == 0
            || !self.stats.ops.is_multiple_of(self.config.sync_interval)
        {
            return;
        }
        let global_u = self.site_counters.iter().map(|c| c.ucount()).max().expect("≥1 site");
        let global_l = self.site_counters.iter().map(|c| c.lcount()).min().expect("≥1 site");
        for c in &self.site_counters {
            c.synchronize(global_u, global_l);
        }
        self.stats.syncs += 1;
        // Synchronization itself costs a broadcast round.
        let messages = 2 * (self.config.n_sites as u64 - 1);
        self.stats.messages += messages;
        self.site_stats[site as usize].messages += messages;
        self.trace.emit(|| TraceEvent::DmtSync { site, messages });
    }

    fn access(&mut self, tx: TxId, item: ItemId, kind: OpKind) -> Decision {
        let site = self.topology.site_of_tx(tx);
        self.trace.emit(|| TraceEvent::DmtOp { site, tx, item, kind });
        let objs = self.lock_set(tx, item);
        self.acquire(site, &objs);

        // Run the MT(k) decision with this site's counters swapped in.
        let before = self.defined_counts(&objs);
        self.inner.table_mut().swap_counters(&mut self.site_counters[site as usize]);
        let before_rt = self.inner.table().rt(item);
        let before_wt = self.inner.table().wt(item);
        let decision = match kind {
            OpKind::Read => self.inner.read(tx, item),
            OpKind::Write => self.inner.write(tx, item),
        };
        self.inner.table_mut().swap_counters(&mut self.site_counters[site as usize]);
        let item_changed =
            self.inner.table().rt(item) != before_rt || self.inner.table().wt(item) != before_wt;
        self.write_back(site, &objs, &before, item_changed);

        self.stats.ops += 1;
        self.site_stats[site as usize].ops += 1;
        self.maybe_sync(site);
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

    /// Schedules a whole operation.
    pub fn process(&mut self, op: &Operation) -> Decision {
        algo1::process(op, |tx, item, kind| self.access(tx, item, kind))
    }
}

impl LogScheduler for DmtScheduler {
    fn process_op(&mut self, op: &Operation) -> Decision {
        self.process(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdts_core::recognize;
    use mdts_graph::{dependency_graph, is_dsr};
    use mdts_model::{Log, MultiStepConfig};
    use mdts_trace::{SetEdgeOutcome, TraceBuffer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_log(seed: u64) -> Log {
        let mut rng = StdRng::seed_from_u64(seed);
        // Moderate contention: enough conflicts to exercise encoding,
        // enough items that a fair share of interleavings is accepted.
        MultiStepConfig { n_txns: 5, n_items: 16, max_ops: 4, ..Default::default() }
            .generate(&mut rng)
    }

    #[test]
    fn single_site_equals_centralized() {
        for seed in 0..150 {
            let log = random_log(seed);
            let mut dmt = DmtScheduler::new(DmtConfig { sync_interval: 0, ..DmtConfig::new(3, 1) });
            let mut central = MtScheduler::with_k(3);
            let d = recognize(&mut dmt, &log).accepted;
            let c = recognize(&mut central, &log);
            assert_eq!(d, c.accepted, "seed {seed}: {log}");
            if d {
                for tx in log.transactions() {
                    assert_eq!(
                        dmt.inner().table().ts(tx),
                        central.table().ts(tx),
                        "seed {seed}, {tx}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_site_sends_no_messages_except_syncs() {
        let log = random_log(7);
        let mut dmt = DmtScheduler::new(DmtConfig { sync_interval: 0, ..DmtConfig::new(2, 1) });
        let _ = recognize(&mut dmt, &log);
        assert_eq!(dmt.stats().messages, 0);
        assert_eq!(dmt.stats().remote_fetches, 0);
        assert!(dmt.stats().local_hits > 0);
    }

    #[test]
    fn multi_site_is_sound() {
        let mut accepted = 0;
        for seed in 0..200 {
            let log = random_log(seed);
            let mut dmt = DmtScheduler::new(DmtConfig::new(3, 4));
            if recognize(&mut dmt, &log).accepted {
                accepted += 1;
                assert!(is_dsr(&log), "seed {seed}: accepted non-DSR log {log}");
                // Vector order must cover every dependency edge.
                let dep = dependency_graph(&log, false);
                for e in &dep.edges {
                    assert!(
                        dmt.inner().table().is_less(e.from, e.to),
                        "seed {seed}: {} → {} unordered",
                        e.from,
                        e.to
                    );
                }
            }
        }
        assert!(accepted > 20, "only {accepted} accepted — sampler too harsh");
    }

    #[test]
    fn kth_column_values_are_globally_unique() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..50 {
            let log = random_log(seed);
            let mut dmt = DmtScheduler::new(DmtConfig::new(2, 3));
            let _ = recognize(&mut dmt, &log);
            for tx in log.transactions() {
                if let Some(ts) = dmt.inner().table().ts(tx) {
                    if let Some(v) = ts.get(1) {
                        assert!(seen.insert((seed, v)), "duplicate k-th value {v} (seed {seed})");
                    }
                }
            }
            seen.clear();
        }
    }

    #[test]
    fn lock_sets_are_small_and_ordered() {
        let log = random_log(3);
        let mut dmt = DmtScheduler::new(DmtConfig::new(2, 3));
        let _ = recognize(&mut dmt, &log);
        assert!(dmt.stats().max_locks_per_op <= 4, "paper: at most 3–4 objects");
    }

    #[test]
    fn retention_saves_messages() {
        let log = random_log(11);
        let mut with = DmtScheduler::new(DmtConfig {
            retain_locks: true,
            sync_interval: 0,
            ..DmtConfig::new(2, 3)
        });
        let mut without = DmtScheduler::new(DmtConfig {
            retain_locks: false,
            sync_interval: 0,
            ..DmtConfig::new(2, 3)
        });
        let _ = recognize(&mut with, &log);
        let _ = recognize(&mut without, &log);
        assert!(with.stats().messages <= without.stats().messages);
        assert!(with.stats().retained > 0, "some lock was retained");
    }

    #[test]
    fn sync_rounds_are_counted_and_bound_fairness() {
        let log = random_log(5);
        let mut dmt = DmtScheduler::new(DmtConfig { sync_interval: 4, ..DmtConfig::new(2, 3) });
        let _ = recognize(&mut dmt, &log);
        assert!(dmt.stats().syncs > 0);
    }

    /// The external trace carries the whole story: per-site totals tie out
    /// against the aggregate stats, the message bill re-derives from the
    /// `DmtLock`/`DmtWriteBack`/`DmtSync` events alone, and the forwarded
    /// protocol events audit clean.
    #[test]
    fn merged_trace_accounts_for_messages_and_audits() {
        let log = random_log(9);
        let buffer = TraceBuffer::journal();
        let mut dmt = DmtScheduler::new(DmtConfig::new(2, 3));
        dmt.attach_trace(TraceSink::to(&buffer));
        let _ = recognize(&mut dmt, &log);

        let stats = dmt.stats();
        let per_site = dmt.site_stats();
        assert_eq!(per_site.len(), 3);
        assert_eq!(per_site.iter().map(|s| s.ops).sum::<u64>(), stats.ops);
        assert_eq!(per_site.iter().map(|s| s.messages).sum::<u64>(), stats.messages);
        assert_eq!(per_site.iter().map(|s| s.local_hits).sum::<u64>(), stats.local_hits);
        assert_eq!(per_site.iter().map(|s| s.remote_fetches).sum::<u64>(), stats.remote_fetches);
        assert_eq!(per_site.iter().map(|s| s.assignments).sum::<u64>(), stats.assignments);
        assert_eq!(per_site.iter().map(|s| s.write_backs).sum::<u64>(), stats.write_backs);
        assert!(stats.assignments > 0, "conflicts encoded element assignments");

        let trace = buffer.snapshot();
        let (mut ops, mut messages) = (0u64, 0u64);
        for e in trace.events() {
            match e {
                TraceEvent::DmtOp { .. } => ops += 1,
                TraceEvent::DmtLock { source: DmtSource::Remote, .. } => messages += 2,
                TraceEvent::DmtWriteBack { remote: true, .. } => messages += 1,
                TraceEvent::DmtSync { messages: m, .. } => messages += m,
                _ => {}
            }
        }
        assert_eq!(ops, stats.ops);
        assert_eq!(messages, stats.messages, "the trace re-derives the message bill");

        let report = mdts_trace::audit(&trace, 2);
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.decisions > 0 && report.assignments > 0);
    }

    /// The lock-set accounting bills exactly the elements the inner
    /// scheduler's `Set` encodes define, as the merged trace shows them.
    #[test]
    fn assignments_match_the_encodes_in_the_merged_trace() {
        for k in 1..=3 {
            for seed in 0..40 {
                let log = random_log(seed);
                let buffer = TraceBuffer::journal();
                let mut dmt = DmtScheduler::new(DmtConfig::new(k, 3));
                dmt.attach_trace(TraceSink::to(&buffer));
                let _ = recognize(&mut dmt, &log);
                let encoded: usize = buffer
                    .snapshot()
                    .events()
                    .map(|e| match e {
                        TraceEvent::SetEdge {
                            outcome: SetEdgeOutcome::Encoded { changes },
                            ..
                        } => changes.len(),
                        _ => 0,
                    })
                    .sum();
                assert!(encoded > 0, "k = {k}, seed {seed}: nothing encoded");
                assert_eq!(dmt.stats().assignments, encoded as u64, "k = {k}, seed {seed}");
            }
        }
    }

    /// Unbalanced load with lagging clocks still encodes correct orders —
    /// bounded draws keep the Set postcondition.
    #[test]
    fn lagging_site_clock_cannot_invert_orders() {
        // All conflicts funnel through item 0; transactions alternate
        // between a busy site and an idle one, never syncing.
        let mut dmt = DmtScheduler::new(DmtConfig { sync_interval: 0, ..DmtConfig::new(1, 2) });
        // k = 1: every encoding uses counters. Busy site 1 (odd txs) mints
        // many values; site 0's clock stays behind.
        for t in 1..=6u32 {
            let d = dmt.write(TxId(2 * t + 1), ItemId(0)); // site 1
            assert!(d.is_accept());
        }
        // Now an even (site-0) transaction joins the chain; its value must
        // still land above the last writer's despite the lagging clock.
        assert!(dmt.write(TxId(2), ItemId(0)).is_accept());
        let last = dmt.inner().table().ts(TxId(13)).unwrap();
        let joined = dmt.inner().table().ts(TxId(2)).unwrap();
        assert!(last.is_less(joined), "bounded draw respected the chain");
    }
}
