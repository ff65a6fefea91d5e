//! Multi-threaded stress: 8–16 client threads hammer a Zipf hotspot and
//! the committed history must stay serializable, protocol by protocol —
//! including MT(k) on the natively concurrent sharded scheduler.
//!
//! Beyond the usual total-balance invariant (which a pair of compensating
//! lost updates could mask), every committed transfer reports the value it
//! read and the value it wrote, and the test checks per item that those
//! edges can chain from the opening balance to the final stored value:
//! for a serializable history the committed writes on an item form a path
//! `v₀ → … → v_f` in the value graph, so each value's out-degree minus
//! in-degree must be +1 at `v₀`, −1 at `v_f`, and 0 elsewhere. Two
//! transactions that both read balance `v` and both commit `v − 1` (a
//! classic lost update) give `v` out-degree 2 and fail the condition even
//! though the doubly-spent unit may be restored elsewhere.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mdts::core::MtOptions;
use mdts::engine::{
    BasicToCc, CompositeCc, Database, MtCc, Protocol, ShardedMtCc, TwoPlCc, TxError,
};
use mdts::model::{ItemId, Zipf};
use mdts::storage::Store;
use mdts::trace::{audit, TraceBuffer, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ACCOUNTS: u32 = 64;
const INITIAL: i64 = 100;
const ZIPF_THETA: f64 = 0.9;
const MAX_RESTARTS: usize = 5_000;

/// Work per client thread. ThreadSanitizer instruments every memory
/// access (~10–20x slowdown) and keeps per-access shadow state, so the
/// `--cfg tsan` short mode trims the per-thread transaction count to
/// keep the suite inside CI timeouts. Everything else — thread counts,
/// the Zipf hotspot, value-chain checks, and auditor certification —
/// runs unreduced: TSan needs racing *access pairs*, not long histories,
/// and the races all live in begin/access/commit interleavings that a
/// few dozen transactions per thread already exercise thousands of
/// times.
#[cfg(not(tsan))]
const TXNS_PER_THREAD: usize = 120;
#[cfg(tsan)]
const TXNS_PER_THREAD: usize = 24;

/// A committed transfer's footprint on one item: `(item, read, written)`.
type Edge = (ItemId, i64, i64);

/// Verifies the Eulerian-path degree condition of the per-item value
/// graphs (a necessary condition for the committed writes to form a
/// chain from the opening balance to the final state).
fn check_value_chains(name: &str, db: &Database<i64>, edges: &[Edge]) {
    let snapshot = db.snapshot();
    let mut per_item: HashMap<ItemId, HashMap<i64, i64>> = HashMap::new();
    for &(item, from, to) in edges {
        let net = per_item.entry(item).or_default();
        *net.entry(from).or_insert(0) += 1;
        *net.entry(to).or_insert(0) -= 1;
    }
    for i in 0..ACCOUNTS {
        let item = ItemId(i);
        let v0 = INITIAL;
        let vf = snapshot.get(&item).copied().unwrap_or(INITIAL);
        let net = per_item.remove(&item).unwrap_or_default();
        for (value, degree) in net {
            let expected = i64::from(value == v0) - i64::from(value == vf);
            assert_eq!(
                degree, expected,
                "{name}: committed writes on {item} cannot chain {v0} → {vf}: \
                 value {value} has out−in = {degree}, expected {expected} \
                 (a lost or phantom update)"
            );
        }
    }
}

fn stress(name: &str, db: Database<i64>, threads: usize) {
    stress_with_audit(name, db, threads, None);
}

/// What an audited run expects of the write-once order cache: hotspot
/// workloads with the cache on must actually hit it, and runs with the
/// cache off must trace zero cached comparisons.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CacheExpectation {
    Hits,
    Disabled,
}

/// Like [`stress`], but afterwards replays the captured MT(k) decision
/// trace through the independent auditor: every accept/reject must be
/// justified by the Definition 6 vectors, and the committed prefix must be
/// in TO(k).
fn stress_with_audit(
    name: &str,
    db: Database<i64>,
    threads: usize,
    auditing: Option<(Arc<TraceBuffer>, usize, CacheExpectation)>,
) {
    let zipf = Zipf::new(ACCOUNTS as usize, ZIPF_THETA);
    let edges: Mutex<Vec<Edge>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = db.clone();
            let zipf = zipf.clone();
            let edges = &edges;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF ^ (t as u64) << 8);
                let mut mine: Vec<Edge> = Vec::new();
                for n in 0..TXNS_PER_THREAD {
                    if n % 8 == 0 {
                        // Full-scan audit: any committed snapshot must show
                        // the invariant total.
                        let audited: Result<i64, TxError> = db.run(MAX_RESTARTS, |tx| {
                            let mut sum = 0i64;
                            for i in 0..ACCOUNTS {
                                sum += tx.read(ItemId(i))?.unwrap_or(0);
                            }
                            Ok(sum)
                        });
                        if let Ok(total) = audited {
                            assert_eq!(
                                total,
                                ACCOUNTS as i64 * INITIAL,
                                "{name}: audit saw a torn state"
                            );
                        }
                        continue;
                    }
                    let src = zipf.sample(&mut rng);
                    let mut dst = zipf.sample(&mut rng);
                    while dst == src {
                        dst = zipf.sample(&mut rng);
                    }
                    // Only the committed attempt's values escape `run`, so
                    // restarted attempts never contribute edges.
                    let committed: Result<(i64, i64), TxError> = db.run(MAX_RESTARTS, |tx| {
                        let a = tx.read(src)?.unwrap_or(0);
                        let b = tx.read(dst)?.unwrap_or(0);
                        std::thread::sleep(Duration::from_micros(5));
                        tx.write(src, a - 1)?;
                        tx.write(dst, b + 1)?;
                        Ok((a, b))
                    });
                    if let Ok((a, b)) = committed {
                        mine.push((src, a, a - 1));
                        mine.push((dst, b, b + 1));
                    }
                }
                edges.lock().unwrap().extend(mine);
            });
        }
    });
    let edges = edges.into_inner().unwrap();
    assert!(!edges.is_empty(), "{name}: nothing committed under contention");
    let total: i64 = db.snapshot().values().sum();
    assert_eq!(total, ACCOUNTS as i64 * INITIAL, "{name}: total drifted");
    check_value_chains(name, &db, &edges);
    // Each edge pair is one committed transfer (audits commit on top).
    assert!(db.metrics().commits >= edges.len() as u64 / 2, "{name}: commit metric undercounts");
    if let Some((buffer, k, cache)) = auditing {
        assert_eq!(buffer.dropped(), 0, "{name}: audit needs the complete trace");
        let report = audit(&buffer.snapshot(), k);
        assert!(report.is_clean(), "{name}: {}", report.summary());
        assert!(report.committed as u64 >= db.metrics().commits, "{name}: commits untraced");
        assert!(report.decisions > 0 && report.comparisons > 0 && report.conflict_pairs > 0);
        match cache {
            CacheExpectation::Hits => {
                assert!(
                    db.metrics().order_cache_hits > 0,
                    "{name}: a Zipf hotspot must produce order-cache hits"
                );
                assert!(
                    report.cached_comparisons > 0,
                    "{name}: cache hits must surface as cached Compare events"
                );
            }
            CacheExpectation::Disabled => {
                assert_eq!(
                    db.metrics().order_cache_hits,
                    0,
                    "{name}: cache disabled yet the metrics report hits"
                );
                assert_eq!(
                    report.cached_comparisons, 0,
                    "{name}: cache disabled yet the trace has cached compares"
                );
            }
        }
    }
}

fn store() -> Store<i64> {
    Store::with_items(ACCOUNTS, INITIAL)
}

/// A sharded-MT(3) database with the protocol and the engine tracing into
/// one shared buffer, so the auditor sees the merged decision stream.
fn traced_sharded(order_cache: bool) -> (Database<i64>, Arc<TraceBuffer>) {
    let buffer = TraceBuffer::unbounded(16);
    let opts = MtOptions { starvation_flush: true, order_cache, ..MtOptions::new(3) };
    let cc = ShardedMtCc::with_options(opts);
    let db = Database::open(Protocol::Concurrent(Box::new(cc)), store(), TraceSink::to(&buffer));
    (db, buffer)
}

#[test]
fn sharded_mtk_survives_zipf_hotspot_8_threads() {
    let (db, buffer) = traced_sharded(true);
    stress_with_audit("MT(3)-sharded/8t", db, 8, Some((buffer, 3, CacheExpectation::Hits)));
}

#[test]
fn sharded_mtk_survives_zipf_hotspot_16_threads() {
    let (db, buffer) = traced_sharded(true);
    stress_with_audit("MT(3)-sharded/16t", db, 16, Some((buffer, 3, CacheExpectation::Hits)));
}

/// The same hotspot with the order cache switched off: every comparison
/// walks the vectors, the auditor must still certify the committed
/// prefix, and no Compare event may claim a cached cost.
#[test]
fn sharded_mtk_without_order_cache_survives_zipf_hotspot() {
    let (db, buffer) = traced_sharded(false);
    stress_with_audit(
        "MT(3)-sharded-nocache/8t",
        db,
        8,
        Some((buffer, 3, CacheExpectation::Disabled)),
    );
}

#[test]
fn serialized_mtk_survives_zipf_hotspot() {
    let buffer = TraceBuffer::unbounded(4);
    let cc = MtCc::new(3);
    stress_with_audit(
        "MT(3)/8t",
        Database::open(cc, store(), TraceSink::to(&buffer)),
        8,
        Some((buffer, 3, CacheExpectation::Hits)),
    );
}

#[test]
fn composite_mtk_star_survives_zipf_hotspot() {
    stress("MT(2*)/8t", Database::open(CompositeCc::new(2), store(), TraceSink::disabled()), 8);
}

#[test]
fn two_phase_locking_survives_zipf_hotspot() {
    stress("2PL/8t", Database::open(TwoPlCc::new(), store(), TraceSink::disabled()), 8);
}

#[test]
fn basic_timestamp_ordering_survives_zipf_hotspot() {
    stress("TO(1)/8t", Database::open(BasicToCc::new(true), store(), TraceSink::disabled()), 8);
}
