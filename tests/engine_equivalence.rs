//! Engine-level integration: the committed execution must equal *some*
//! serial execution of the committed transactions, protocol by protocol.

use mdts::engine::{
    BasicToCc, CompositeCc, Database, IntervalCc, MtCc, OccCc, Protocol, ShardedMtCc, TwoPlCc,
};
use mdts::model::ItemId;
use mdts::storage::Store;
use mdts::trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every `Protocol` variant; sequential MT(3) first.
fn protocols() -> Vec<Protocol> {
    vec![
        MtCc::new(3).into(),
        CompositeCc::new(2).into(),
        TwoPlCc::new().into(),
        BasicToCc::new(true).into(),
        OccCc::new().into(),
        IntervalCc::new().into(),
        Protocol::Multiversion(ShardedMtCc::new(3)),
    ]
}

fn open(protocol: Protocol, store: Store<i64>) -> Database<i64> {
    Database::open(protocol, store, TraceSink::disabled())
}

/// Sequentially issued transactions must behave exactly like direct
/// sequential execution — no protocol may corrupt a contention-free run,
/// and each commits the final state sequential MT(3) does.
#[test]
fn sequential_runs_match_direct_execution() {
    let mut reference = None;
    for protocol in protocols() {
        let n_items = 8u32;
        let db = open(protocol, Store::with_items(n_items, 0));
        let name = db.protocol_name();
        // Reference model.
        let mut model = vec![0i64; n_items as usize];
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..300 {
            let a = rng.gen_range(0..n_items);
            let b = rng.gen_range(0..n_items);
            let add = rng.gen_range(-5..=5i64);
            db.run(100, |tx| {
                let va = tx.read(ItemId(a))?.unwrap_or(0);
                tx.write(ItemId(a), va + add)?;
                let vb = tx.read(ItemId(b))?.unwrap_or(0);
                tx.write(ItemId(b), (vb + va).rem_euclid(997))?;
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{name}: sequential txn failed: {e}"));
            // Mirror on the model (read of b happens after a's write, and
            // if a == b the transaction sees its own write; `va` stays the
            // originally read value, exactly as the closure captured it).
            let va = model[a as usize];
            model[a as usize] = va + add;
            let vb = model[b as usize];
            model[b as usize] = (vb + va).rem_euclid(997);
        }
        let snap = db.snapshot();
        for i in 0..n_items {
            assert_eq!(
                snap.get(&ItemId(i)).copied().unwrap_or(0),
                model[i as usize],
                "{name}: divergence at item {i}"
            );
        }
        let reference = reference.get_or_insert_with(|| snap.clone());
        assert_eq!(&snap, reference, "{name}: final state differs from serialized MT(3)'s");
    }
}

/// Concurrent counter increments from many threads: the final value equals
/// the number of committed increments (no lost updates, no phantom
/// commits) for every protocol.
#[test]
fn concurrent_increments_are_exact() {
    for protocol in protocols() {
        let db = open(protocol, Store::with_items(4, 0));
        let name = db.protocol_name();
        let committed = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..4 {
                let db = db.clone();
                handles.push(s.spawn(move || {
                    let mut mine = 0u64;
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    for _ in 0..60 {
                        let item = ItemId(rng.gen_range(0..4));
                        if db
                            .run(2000, |tx| {
                                let v = tx.read(item)?.unwrap_or(0);
                                tx.write(item, v + 1)?;
                                Ok(())
                            })
                            .is_ok()
                        {
                            mine += 1;
                        }
                    }
                    mine
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        });
        let total: i64 = db.snapshot().values().sum();
        assert_eq!(total as u64, committed, "{name}: increments lost or duplicated");
        assert_eq!(db.metrics().commits, committed, "{name}: commit metric mismatch");
    }
}

/// Read-only transactions never block progress permanently and always see
/// a consistent (committed) state: with transfers preserving the total,
/// every audit of *all* accounts must observe the invariant total.
#[test]
fn audits_see_consistent_snapshots() {
    // This is the strongest observable consequence of serializability for
    // this workload: a non-serializable interleaving could expose a
    // mid-transfer state where the total is off by one.
    for protocol in protocols() {
        let accounts = 6u32;
        let db = open(protocol, Store::with_items(accounts, 50));
        let name = db.protocol_name();
        let expected: i64 = accounts as i64 * 50;
        std::thread::scope(|s| {
            // Two transfer threads.
            for t in 0..2u64 {
                let db = db.clone();
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..150 {
                        let a = ItemId(rng.gen_range(0..accounts));
                        let mut b = ItemId(rng.gen_range(0..accounts));
                        while b == a {
                            b = ItemId(rng.gen_range(0..accounts));
                        }
                        let _ = db.run(500, |tx| {
                            let va = tx.read(a)?.unwrap_or(0);
                            let vb = tx.read(b)?.unwrap_or(0);
                            tx.write(a, va - 1)?;
                            tx.write(b, vb + 1)?;
                            Ok(())
                        });
                    }
                });
            }
            // One auditing thread checking the invariant transactionally.
            let db2 = db.clone();
            s.spawn(move || {
                for _ in 0..60 {
                    if let Ok(total) = db2.run(500, |tx| {
                        let mut sum = 0i64;
                        for i in 0..accounts {
                            sum += tx.read(ItemId(i))?.unwrap_or(0);
                        }
                        Ok(sum)
                    }) {
                        assert_eq!(total, expected, "{name}: audit saw a torn state");
                    }
                }
            });
        });
        let final_total: i64 = db.snapshot().values().sum();
        assert_eq!(final_total, expected, "{name}: final total drifted");
    }
}
