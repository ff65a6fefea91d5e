//! Engine integration tests: serializability under real concurrency for
//! every protocol, deferred-write semantics, blocking, deadlocks, and the
//! composite abort-all epoch.

use mdts_model::{ItemId, TxId};
use mdts_storage::Store;

use mdts_trace::TraceSink;

use crate::cc::{BasicToCc, CompositeCc, IntervalCc, MtCc, MvToCc, OccCc, TwoPlCc};
use crate::db::{Database, Protocol, ShardedMtCc};
use crate::workload::{run_bank_mix, run_bank_mix_db, BankConfig};

/// A database over `store` under `protocol`, engine trace off.
fn open(protocol: impl Into<Protocol>, store: Store<i64>) -> Database<i64> {
    Database::open(protocol, store, TraceSink::disabled())
}

/// Every mutex adapter, then the multiversion engine.
fn all_protocols() -> Vec<Protocol> {
    vec![
        MtCc::new(3).into(),
        CompositeCc::new(3).into(),
        TwoPlCc::new().into(),
        BasicToCc::new(false).into(),
        BasicToCc::new(true).into(),
        OccCc::new().into(),
        IntervalCc::new().into(),
        Protocol::Multiversion(ShardedMtCc::new(3)),
    ]
}

#[test]
fn bank_invariant_holds_under_every_protocol() {
    let cfg = BankConfig {
        accounts: 16,
        threads: 4,
        txns_per_thread: 100,
        zipf_theta: 0.8,
        ..Default::default()
    };
    for cc in all_protocols() {
        let report = run_bank_mix(cc, &cfg);
        assert!(
            report.invariant_holds(),
            "{}: total {} != expected {} (metrics {:?})",
            report.protocol,
            report.final_total,
            report.expected_total,
            report.metrics
        );
        assert!(report.metrics.commits > 0, "{}: nothing committed", report.protocol);
    }
}

#[test]
fn uncommitted_writes_are_invisible() {
    let db = open(MtCc::new(2), Store::with_items(1, 7));
    // A transaction writes but never commits (closure aborts by running
    // out of retries after a forced user-side bail).
    let _: Result<(), _> = db.run(0, |tx| {
        tx.write(ItemId(0), 999)?;
        // Check read-your-writes inside the transaction…
        assert_eq!(tx.read(ItemId(0))?, Some(999));
        // …then bail out before commit.
        Err(crate::db::Aborted)
    });
    assert_eq!(db.snapshot()[&ItemId(0)], 7, "abandoned workspace never applied");
}

#[test]
fn committed_writes_are_visible_and_durable() {
    let db = open(MtCc::new(2), Store::with_items(2, 0));
    db.run(4, |tx| {
        let v = tx.read(ItemId(0))?.unwrap_or(0);
        tx.write(ItemId(0), v + 5)?;
        tx.write(ItemId(1), 11)?;
        Ok(())
    })
    .unwrap();
    let snap = db.snapshot();
    assert_eq!(snap[&ItemId(0)], 5);
    assert_eq!(snap[&ItemId(1)], 11);
    assert_eq!(db.metrics().commits, 1);
}

#[test]
fn lost_update_is_prevented_by_every_protocol() {
    // Two threads increment the same counter 50 times each; a lost update
    // would leave the counter below 100.
    for cc in all_protocols() {
        let db = open(cc, Store::with_items(1, 0));
        let name = db.protocol_name();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let db = db.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        db.run(1000, |tx| {
                            let v = tx.read(ItemId(0))?.unwrap_or(0);
                            tx.write(ItemId(0), v + 1)?;
                            Ok(())
                        })
                        .expect("increment must eventually commit");
                    }
                });
            }
        });
        assert_eq!(db.snapshot()[&ItemId(0)], 100, "{name}: lost update");
    }
}

#[test]
fn two_pl_blocks_and_wakes() {
    let db = open(TwoPlCc::new(), Store::with_items(1, 0));
    // Writer thread holds the lock briefly; reader must block then proceed.
    std::thread::scope(|s| {
        let db2 = db.clone();
        s.spawn(move || {
            db2.run(8, |tx| {
                let v = tx.read(ItemId(0))?.unwrap_or(0);
                tx.write(ItemId(0), v + 1)?;
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(())
            })
            .unwrap();
        });
        let db3 = db.clone();
        s.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            db3.run(8, |tx| {
                let _ = tx.read(ItemId(0))?;
                Ok(())
            })
            .unwrap();
        });
    });
    assert_eq!(db.metrics().commits, 2);
}

#[test]
fn deadlock_victims_restart_and_finish() {
    // Classic crossing transfers: T_a: x→y, T_b: y→x, repeatedly.
    let db = open(TwoPlCc::new(), Store::with_items(2, 50));
    std::thread::scope(|s| {
        for (a, b) in [(0u32, 1u32), (1, 0)] {
            let db = db.clone();
            s.spawn(move || {
                for _ in 0..30 {
                    db.run(1000, |tx| {
                        let va = tx.read(ItemId(a))?.unwrap_or(0);
                        let vb = tx.read(ItemId(b))?.unwrap_or(0);
                        tx.write(ItemId(a), va - 1)?;
                        tx.write(ItemId(b), vb + 1)?;
                        Ok(())
                    })
                    .expect("transfer must eventually commit");
                }
            });
        }
    });
    let snap = db.snapshot();
    assert_eq!(snap[&ItemId(0)] + snap[&ItemId(1)], 100, "money conserved");
    assert_eq!(db.metrics().commits, 60);
}

#[test]
fn thomas_rule_counts_ignored_writes() {
    // Single-threaded deterministic sequence is hard to force through the
    // retry driver; assert at the workload level instead: the TO+Thomas
    // engine stays correct and reports the counter.
    let cfg =
        BankConfig { threads: 4, txns_per_thread: 150, zipf_theta: 1.2, ..Default::default() };
    let report = run_bank_mix(BasicToCc::new(true), &cfg);
    assert!(report.invariant_holds(), "{:?}", report);
}

#[test]
fn composite_abort_all_recovers() {
    // MT(1+) under heavy contention triggers all-subprotocols-stopped
    // regularly; the epoch mechanism must keep the invariant intact.
    let cfg = BankConfig {
        accounts: 4,
        threads: 4,
        txns_per_thread: 60,
        zipf_theta: 1.0,
        max_restarts: 5000,
        ..Default::default()
    };
    let report = run_bank_mix(CompositeCc::new(1), &cfg);
    assert!(report.invariant_holds(), "{:?}", report);
    assert!(report.metrics.commits > 0);
}

#[test]
fn retries_exhausted_is_reported() {
    let db = open(MtCc::new(2), Store::with_items(1, 0));
    let err =
        db.run(2, |_tx| -> Result<(), crate::db::Aborted> { Err(crate::db::Aborted) }).unwrap_err();
    assert_eq!(err, crate::db::TxError::RetriesExhausted);
    assert_eq!(db.metrics().commits, 0);
}

/// A body that reads `x` under 2PL and then returns `Aborted` on its own
/// must not keep its read lock: a later writer of `x` commits. The writer
/// runs on a thread of its own so that a leaked lock fails the test by
/// timeout instead of hanging it.
#[test]
fn an_abandoned_incarnation_releases_its_locks() {
    let db = open(TwoPlCc::new(), Store::with_items(1, 0));
    let x = ItemId(0);
    let abandoned = db.run(0, |tx| {
        tx.read(x)?;
        Err::<(), _>(crate::db::Aborted)
    });
    assert_eq!(abandoned, Err(crate::db::TxError::RetriesExhausted));
    let (done, finished) = std::sync::mpsc::channel();
    let writer = db.clone();
    let writer = std::thread::spawn(move || {
        let _ = done.send(writer.run(0, |tx| tx.write(x, 1)));
    });
    let committed = finished
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the writer of x is blocked behind the abandoned reader's lock");
    writer.join().expect("the writer thread finished");
    assert_eq!(committed, Ok(()));
    assert_eq!(db.snapshot()[&x], 1);
}

/// Live scheduler rows around a call of `abandon`, which panics after
/// reading item 0. A reader of item 0 commits before and after it: the
/// later one displaces the abandoned reader as the item's `RT` holder,
/// which reclaims the abandoned row only if the engine finished it.
fn live_rows_across_a_panic(abandon: impl FnOnce(&Database<i64>)) -> (u64, u64) {
    let db = open(Protocol::Multiversion(ShardedMtCc::new(3)), Store::with_items(2, 0));
    let read = || db.run(0, |tx| tx.read(ItemId(0))).expect("a lone reader commits");
    read();
    let before = db.gauges().sched_live_rows;
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| abandon(&db)));
    assert!(caught.is_err(), "the body's panic propagates out of the engine");
    read();
    (before, db.gauges().sched_live_rows)
}

#[test]
fn a_panicking_body_releases_its_row() {
    let (before, after) = live_rows_across_a_panic(|db| {
        let _ = db.run(0, |tx| -> Result<(), _> {
            tx.read(ItemId(0))?;
            panic!("the body fails after a read")
        });
    });
    assert_eq!(after, before);
}

/// A snapshot reader keeps no row, so a body that panics leaves the
/// scheduler's rows as they were; its GC registration ends with the
/// unwinding, so the next install prunes the chain to one version.
#[test]
fn a_panicking_snapshot_body_ends_its_snapshot() {
    let (before, after) = live_rows_across_a_panic(|db| {
        db.run_read_only(|tx| {
            tx.read(ItemId(0));
            assert_eq!(db.gauges().mv_active_snapshots, 1);
            panic!("the snapshot body fails after a read")
        });
    });
    assert_eq!(after, before);
    let db = open(Protocol::Multiversion(ShardedMtCc::new(3)), Store::with_items(2, 0));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        db.run_read_only(|tx| -> () {
            tx.read(ItemId(0));
            panic!("the snapshot body fails after a read")
        })
    }));
    assert!(caught.is_err());
    db.run(0, |tx| tx.write(ItemId(0), 1)).expect("a lone writer commits");
    let g = db.gauges();
    assert_eq!((g.mv_active_snapshots, g.mv_max_chain, g.sched_live_rows), (0, 1, 1), "{g:?}");
}

std::thread_local! {
    /// Set to make this thread's next [`Bomb`] drop panic.
    static ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A value whose `Drop` panics once [`ARMED`]: user code a commit runs
/// when it displaces a value.
#[derive(Clone, Debug, PartialEq)]
struct Bomb(i64);

impl Drop for Bomb {
    fn drop(&mut self) {
        if ARMED.replace(false) {
            panic!("an armed value was dropped");
        }
    }
}

/// A transfer of items 0 and 1 whose displaced old values panic when
/// dropped: the panic leaves the engine only once both writes are applied
/// and the shards released, so a later reader sees the whole transfer.
fn a_panicking_displaced_drop_leaves_the_commit_whole(protocol: Protocol) {
    let db = Database::open(protocol, Store::with_items(2, Bomb(0)), TraceSink::disabled());
    let (x, y) = (ItemId(0), ItemId(1));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        db.run(0, |tx| {
            let (a, b) = (tx.read(x)?.expect("seeded").0, tx.read(y)?.expect("seeded").0);
            tx.write(x, Bomb(a + 1))?;
            tx.write(y, Bomb(b - 1))?;
            ARMED.set(true);
            Ok(())
        })
    }));
    assert!(caught.is_err(), "the displaced value's panic propagates out of the engine");
    assert!(!ARMED.get(), "the armed drop ran");
    let read = db.run(0, |tx| Ok((tx.read(x)?, tx.read(y)?))).expect("a lone reader commits");
    assert_eq!(read, (Some(Bomb(1)), Some(Bomb(-1))), "a reader sees both writes");
    if db.has_multiversion() {
        let snapshot = db.run_read_only(|tx| (tx.read(x), tx.read(y)));
        assert_eq!(snapshot, (Some(Bomb(1)), Some(Bomb(-1))), "a snapshot sees both writes");
    }
}

#[test]
fn a_panicking_displaced_drop_leaves_the_mv_commit_whole() {
    a_panicking_displaced_drop_leaves_the_commit_whole(Protocol::Multiversion(ShardedMtCc::new(3)));
}

#[test]
fn a_panicking_displaced_drop_leaves_the_sharded_commit_whole() {
    a_panicking_displaced_drop_leaves_the_commit_whole(MtCc::new(3).into());
}

/// A body that swallows a refused read and writes on: the outer
/// transaction reads `x`, a nested transaction on the same thread writes
/// `x` and `y` and commits, so MT(k) orders the outer one before it and
/// refuses its read of `y`. The write of `z` that follows is refused too,
/// and leaves nothing behind: the next incarnation writes nothing, commits,
/// and `z` keeps its opening value. The abort is counted once.
#[test]
fn a_write_after_the_abort_is_refused() {
    for protocol in [Protocol::Multiversion(ShardedMtCc::new(3)), MtCc::new(3).into()] {
        let db = open(protocol, Store::with_items(3, 0));
        let [x, y, z] = [0, 1, 2].map(ItemId);
        let mut first = true;
        let outcome = db.run(1, |tx| {
            tx.read(x)?;
            if std::mem::take(&mut first) {
                db.run(0, |nested| nested.write(x, 1).and_then(|()| nested.write(y, 1))).unwrap();
                assert!(tx.read(y).is_err(), "the read of y is refused");
                assert!(tx.write(z, 9).is_err(), "the write after the abort is refused");
            }
            Ok(())
        });
        let (name, m) = (db.protocol_name(), db.metrics());
        assert_eq!(outcome, Ok(()), "{name}");
        assert_eq!(db.snapshot().get(&z).copied().unwrap_or(0), 0, "{name}: z was written");
        assert_eq!((m.commits, m.aborts, m.restarts), (2, 1, 1), "{name}");
    }
}

/// A sharded MT(k) is served by the multiversion engine, whichever way it
/// is handed to [`Database::open`].
#[test]
fn a_sharded_mtk_opens_the_multiversion_engine() {
    let db = open(ShardedMtCc::new(3), Store::with_items(2, 0));
    assert!(db.has_multiversion());
    assert_eq!(db.protocol_name(), "MV-MT(k)");
}

#[test]
fn mt_engine_is_faster_to_accept_than_restart_heavy_protocols_on_example1() {
    // Sanity: the MT(2) engine commits Example 1's interleaving without
    // any restarts when driven single-threaded in that exact order.
    let db = open(MtCc::new(2), Store::with_items(3, 0));
    // T1: W[x] W[y]; T3: R[x] W[y later]... replay as three transactions
    // in the paper's operation order is inherently interleaved; here we
    // just confirm sequential transactions never restart.
    for _ in 0..5 {
        db.run(0, |tx| {
            let v = tx.read(ItemId(0))?.unwrap_or(0);
            tx.write(ItemId(0), v + 1)?;
            Ok(())
        })
        .unwrap();
    }
    let m = db.metrics();
    assert_eq!(m.commits, 5);
    assert_eq!(m.aborts, 0);
}

// ---------------------------------------------------------------------
// Multiversion serving path (MV-MT(k), ISSUE 6)
// ---------------------------------------------------------------------

#[test]
fn mvto_baseline_holds_invariant() {
    let cfg =
        BankConfig { threads: 4, txns_per_thread: 150, zipf_theta: 0.8, ..Default::default() };
    let report = run_bank_mix(MvToCc::new(), &cfg);
    assert!(report.invariant_holds(), "{report:?}");
    assert!(report.metrics.commits > 0);
}

#[test]
fn snapshot_reads_never_abort_and_keep_the_invariant() {
    let cfg = BankConfig {
        accounts: 16,
        threads: 4,
        txns_per_thread: 250,
        zipf_theta: 1.0,
        read_only_fraction: 0.5,
        scan_len: 16, // full-table audits against hot writers
        ..Default::default()
    };
    let report = run_bank_mix(Protocol::Multiversion(ShardedMtCc::new(4)), &cfg);
    assert!(report.invariant_holds(), "{report:?}");
    assert!(report.metrics.snapshot_txns > 0, "snapshot lane never exercised: {report:?}");
    assert!(report.metrics.snapshot_reads >= report.metrics.snapshot_txns * 16);
    // Never-abort: every abort/restart must be attributable to the
    // update lane; the snapshot lane adds commits without adding aborts.
    assert_eq!(report.gave_up, 0, "a read-only transaction gave up: {report:?}");
}

/// Commit-aware `Set`: with one client nothing is concurrent, so no
/// transfer may be refused — every holder it meets has committed, and a
/// fresh transaction's first element is chosen above the published
/// commit stamps. The paper's minimal values abort ≈ 0.42 times per
/// commit here: the second read meets a holder that committed later than
/// the first read's.
#[test]
fn one_client_transfers_never_abort_or_restart() {
    use rand::{Rng, SeedableRng};

    let accounts = 512u32;
    let cfg = BankConfig { accounts, ..Default::default() };
    let db = crate::workload::bank_database_multiversion(3, &cfg);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for _ in 0..20_000 {
        let src = ItemId(rng.gen_range(0..accounts));
        let dst = ItemId((src.0 + rng.gen_range(1..accounts)) % accounts);
        db.run(cfg.max_restarts, |tx| {
            let a = tx.read(src)?.unwrap_or(0);
            let b = tx.read(dst)?.unwrap_or(0);
            tx.write(src, a - 1)?;
            tx.write(dst, b + 1)
        })
        .expect("an uncontended transfer commits");
    }
    let m = db.metrics();
    assert_eq!((m.commits, m.aborts, m.restarts), (20_000, 0, 0));
    assert_eq!(db.snapshot().values().sum::<i64>(), accounts as i64 * cfg.initial_balance);
}

#[test]
fn snapshot_scan_is_transactionally_consistent() {
    // Writers preserve a total-sum invariant; any snapshot scan must see
    // exactly that total even while transfers are mid-flight. A
    // single-version read-committed scan would fail this regularly.
    let accounts = 8u32;
    let per = 100i64;
    let db = open(Protocol::Multiversion(ShardedMtCc::new(4)), Store::with_items(accounts, per));
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..3usize {
            let db = db.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let src = ItemId((i + t as u32) % accounts);
                    let dst = ItemId((i + t as u32 + 1) % accounts);
                    let _ = db.run(1_000, |tx| {
                        let a = tx.read(src)?.unwrap_or(0);
                        let b = tx.read(dst)?.unwrap_or(0);
                        tx.write(src, a - 1)?;
                        tx.write(dst, b + 1)?;
                        Ok(())
                    });
                    i += 1;
                }
            });
        }
        for _ in 0..2000 {
            let total: i64 = db
                .run_read_only(|tx| (0..accounts).map(|a| tx.read(ItemId(a)).unwrap_or(per)).sum());
            assert_eq!(total, accounts as i64 * per, "snapshot saw a torn transfer");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
}

#[test]
fn gc_never_reclaims_a_version_visible_to_a_live_snapshot() {
    // A long-running snapshot scan overlapped by many writers: pruning
    // must keep each reader's pivot version, so every read still returns
    // a value from the reader's consistent position (the totals check
    // proves the served versions stayed mutually consistent).
    let accounts = 4u32;
    let per = 50i64;
    let db = open(Protocol::Multiversion(ShardedMtCc::new(3)), Store::with_items(accounts, per));
    let churn = |rounds: u32| {
        for _ in 0..rounds {
            for a in 0..accounts {
                db.run(1_000, |w| {
                    let src = ItemId(a);
                    let dst = ItemId((a + 1) % accounts);
                    let x = w.read(src)?.unwrap_or(0);
                    let y = w.read(dst)?.unwrap_or(0);
                    w.write(src, x - 1)?;
                    w.write(dst, y + 1)?;
                    Ok(())
                })
                .unwrap();
            }
        }
    };
    // Phase 1: no live snapshots — the watermark is the install frontier,
    // so every install must shed the version it supersedes.
    churn(40);
    assert!(db.gauges().mv_pruned > 0, "no install reclaimed a version with no snapshot live");
    // Phase 2: pin a snapshot with one read, churn again, and check the
    // remaining reads still form a consistent cut with the first — GC
    // kept every reader-visible pivot.
    db.run_read_only(|tx| {
        let first = tx.read(ItemId(0)).unwrap_or(per);
        churn(40);
        let rest: i64 = (1..accounts).map(|a| tx.read(ItemId(a)).unwrap_or(per)).sum();
        assert_eq!(first + rest, accounts as i64 * per, "GC broke the snapshot's cut");
    });
}

#[test]
fn chains_hold_one_version_with_no_snapshot_live() {
    // Every install prunes to what a live snapshot can reach; with none
    // live that is the newest version alone, however long the history.
    let accounts = 16u32;
    let db = open(Protocol::Multiversion(ShardedMtCc::new(3)), Store::with_items(accounts, 50));
    for n in 0..300u32 {
        let (src, dst) = (ItemId(n % accounts), ItemId((n * 7 + 3) % accounts));
        if src == dst {
            continue;
        }
        db.run(8, |tx| {
            let a = tx.read(src)?.unwrap_or(0);
            let b = tx.read(dst)?.unwrap_or(0);
            tx.write(src, a - 1)?;
            tx.write(dst, b + 1)
        })
        .unwrap();
    }
    let g = db.gauges();
    assert_eq!(g.mv_chains, accounts as u64, "every account was written");
    assert_eq!(g.mv_max_chain, 1);
    assert_eq!(g.mv_versions, g.mv_chains);
}

/// On the multiversion path each item's chain record holds its `RT`/`WT`,
/// and the chains are the value store: transfers, read-write and
/// read-only scans leave the scheduler's own holder tables empty, every
/// account's chain starts from its seeded opening balance, and the
/// database's contents are the chain tails.
#[test]
fn mv_holders_and_values_live_in_the_chain_records() {
    let accounts = 8u32;
    let db = open(Protocol::Multiversion(ShardedMtCc::new(3)), Store::with_items(accounts, 100));
    let g = db.gauges();
    assert_eq!((g.mv_chains, g.mv_versions), (8, 8), "one seeded floor per account");
    for n in 0..40u32 {
        let (src, dst) = (ItemId(n % 5), ItemId(n % 5 + 1));
        db.run(8, |tx| {
            let a = tx.read(src)?.unwrap_or(0);
            let b = tx.read(dst)?.unwrap_or(0);
            tx.write(src, a - 1)?;
            tx.write(dst, b + 1)
        })
        .unwrap();
    }
    let scan = |tx: &mut crate::SnapshotTx<'_, i64>| -> i64 {
        (0..accounts).map(|a| tx.read(ItemId(a)).unwrap_or(0)).sum()
    };
    assert_eq!(db.run_read_only(scan), 800);
    let total = db.run(8, |tx| (0..accounts).map(|a| Ok(tx.read(ItemId(a))?.unwrap_or(0))).sum());
    assert_eq!(total, Ok(800));
    let sched = db.mv_scheduler();
    for a in 0..accounts + 4 {
        let item = ItemId(a);
        assert_eq!((sched.rt(item), sched.wt(item)), (TxId::VIRTUAL, TxId::VIRTUAL), "{item}");
    }
    let values = db.snapshot();
    assert_eq!(values.len(), accounts as usize);
    assert_eq!(values[&ItemId(0)], 100 - 8);
    assert_eq!(values[&ItemId(5)], 100 + 8);
    assert_eq!(values[&ItemId(7)], 100, "a never-written account keeps its seeded floor");
}

#[test]
fn row_slots_follow_live_rows_not_ids() {
    // A row is live while its transaction runs or an item names it as
    // `RT`/`WT`: at most two holders per account, `T₀` and the running
    // transaction. The arena holds no more slots than that however many
    // ids the run uses; the id index grows with the ids.
    let accounts = 16u32;
    let db = open(Protocol::Multiversion(ShardedMtCc::new(3)), Store::with_items(accounts, 50));
    for n in 0..20_000u32 {
        let (src, dst) = (ItemId(n % accounts), ItemId((n * 7 + 3) % accounts));
        if n % 8 == 0 {
            let total: i64 =
                db.run_read_only(|tx| (0..accounts).map(|a| tx.read(ItemId(a)).unwrap_or(0)).sum());
            assert_eq!(total, 50 * i64::from(accounts));
        } else if src != dst {
            db.run(8, |tx| {
                let a = tx.read(src)?.unwrap_or(0);
                let b = tx.read(dst)?.unwrap_or(0);
                tx.write(src, a - 1)?;
                tx.write(dst, b + 1)
            })
            .unwrap();
        }
    }
    let g = db.gauges();
    assert!(g.sched_row_chunks >= 5, "20,000 ids span 5 index chunks: {}", g.sched_row_chunks);
    assert!(
        g.sched_row_slots <= 2 * u64::from(accounts) + 2,
        "arena grew to {}",
        g.sched_row_slots
    );
    assert!(g.sched_live_rows <= g.sched_row_slots);
}

/// The row arena's first chunk: the slots it builds before it grows.
const ARENA_FIRST_CHUNK: u64 = 1024;

/// A committed writer's holder entries are served from its version's
/// stamp and hold no reference to its row, so on the transfer lanes a row
/// lives exactly as long as its transaction: after 10,000 transfers over
/// 4,096 accounts the only row left is `T₀`'s, and the arena never built
/// more than its first chunk — with one client, and with two (each on a
/// half of the accounts of its own, so that no refused incarnation is
/// left behind as an anchor). Were every finished holder still pinned,
/// ≈ 4,000 rows would be live.
#[test]
fn mv_transfers_keep_only_the_live_rows() {
    use rand::{Rng, SeedableRng};

    const ACCOUNTS: u32 = 4_096;
    const TRANSFERS: u32 = 10_000;
    for clients in [1u32, 2] {
        let cfg = BankConfig { accounts: ACCOUNTS, ..Default::default() };
        let db = crate::workload::bank_database_multiversion(3, &cfg);
        let half = ACCOUNTS / clients;
        std::thread::scope(|scope| {
            for c in 0..clients {
                let db = db.clone();
                scope.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(c));
                    for _ in 0..TRANSFERS / clients {
                        let src = rng.gen_range(0..half);
                        let (src, dst) = (src, (src + rng.gen_range(1..half)) % half);
                        let (src, dst) = (ItemId(c * half + src), ItemId(c * half + dst));
                        db.run(cfg.max_restarts, |tx| {
                            let a = tx.read(src)?.unwrap_or(0);
                            let b = tx.read(dst)?.unwrap_or(0);
                            tx.write(src, a - 1)?;
                            tx.write(dst, b + 1)
                        })
                        .expect("a transfer commits");
                    }
                });
            }
        });
        let (g, m) = (db.gauges(), db.metrics());
        assert_eq!(m.commits, u64::from(TRANSFERS));
        assert!(g.sched_live_rows <= 1 + u64::from(clients), "{clients}: {g:?}");
        assert!(g.sched_row_slots <= ARENA_FIRST_CHUNK, "{clients}: {g:?}");
        assert_eq!(g.mv_max_chain, 1, "no blind write, so no kept version");
        let total = ACCOUNTS as i64 * cfg.initial_balance;
        assert_eq!(db.snapshot().values().sum::<i64>(), total);
    }
}

/// An MV-MT(3) database journaling protocol and engine events into one
/// buffer, with the Thomas write rule as given.
fn journaled_mv(
    thomas: bool,
    items: u32,
) -> (Database<i64>, std::sync::Arc<mdts_trace::TraceBuffer>) {
    let buffer = mdts_trace::TraceBuffer::journal();
    let opts = mdts_core::MtOptions {
        thomas_write_rule: thomas,
        starvation_flush: true,
        ..mdts_core::MtOptions::new(3)
    };
    let db = Database::open(
        Protocol::Multiversion(ShardedMtCc::with_options(opts)),
        Store::with_items(items, 100),
        TraceSink::to(&buffer),
    );
    (db, buffer)
}

/// The auditor's verdict on everything `buffer` journaled: no violation,
/// and the version reads it checked.
fn certify(buffer: &mdts_trace::TraceBuffer) -> mdts_trace::Trace {
    let trace = buffer.drain();
    let report = mdts_trace::audit(&trace, 3);
    assert!(report.violations.is_empty(), "audit violations: {:?}", report.violations);
    assert!(report.version_reads > 0, "no version reads audited");
    trace
}

/// The blind-write rule: `T1` reads and writes `x`, so once it commits
/// `RT(x)` and `WT(x)` are stamp-backed and its row is gone. `T2` then
/// writes `x` blind: `WT(x)` moves to `T2`, but `RT(x)` still names `T1`,
/// so the install keeps `T1`'s version on the chain below `T2`'s. A
/// writer that began before a third blind write is then refused by `WT`
/// and ordered after `RT` — ignored under the Thomas rule, restarted
/// without it — and later reads (whose `pick` compares two stamps) and a
/// snapshot scan stay certified by the auditor.
#[test]
fn a_blind_write_keeps_the_version_its_reader_is_served_from() {
    for thomas in [true, false] {
        let (db, buffer) = journaled_mv(thomas, 3);
        let (x, y, z) = (ItemId(0), ItemId(1), ItemId(2));
        let bump = |item: ItemId| {
            db.run(0, |tx| {
                let v = tx.read(item)?.unwrap_or(0);
                tx.write(item, v + 1)
            })
            .unwrap()
        };
        bump(x);
        db.run(0, |tx| tx.write(x, 7)).unwrap();
        let g = db.gauges();
        assert_eq!((g.mv_max_chain, g.sched_live_rows), (2, 1), "thomas {thomas}: {g:?}");
        let mut first = true;
        db.run(4, |tx| {
            tx.read(y)?;
            if std::mem::take(&mut first) {
                // Raise the published column maximum above this reader's
                // first element, then write `x` blind above it.
                bump(z);
                db.run(0, |t| t.write(x, 9)).unwrap();
            }
            tx.write(x, 5)?;
            tx.write(y, 5)
        })
        .unwrap();
        let m = db.metrics();
        assert_eq!((m.ignored_writes, m.restarts), if thomas { (1, 0) } else { (0, 1) });
        assert_eq!(db.run(0, |tx| tx.read(x)).unwrap(), Some(if thomas { 9 } else { 5 }));
        let scan = db.run_read_only(|tx| [x, y, z].map(|item| tx.read(item)));
        assert_eq!(scan, [Some(if thomas { 9 } else { 5 }), Some(5), Some(101)]);
        certify(&buffer);
    }
}

/// III-D-4 against a stamp-backed blocker: the refusing holder committed,
/// so its row is reclaimed, and the restart hint is read from its stamp —
/// the restarted incarnation begins above the blocker's first element
/// and commits at its first retry.
#[test]
fn a_refusal_against_a_stamp_backed_blocker_sets_the_restart_hint() {
    use mdts_trace::TraceEvent;
    let (db, buffer) = journaled_mv(false, 3);
    let (x, y, z) = (ItemId(0), ItemId(1), ItemId(2));
    let mut blocker = None;
    db.run(4, |tx| {
        // This reader's first element is 1.
        tx.read(y)?;
        if blocker.is_none() {
            // A commit publishes 1 as column 0's maximum, so the blocker's
            // first element is 2: it refuses this writer at column 0.
            db.run(0, |t| t.write(z, 1)).unwrap();
            let id = db
                .run(0, |t| {
                    let v = t.read(x)?.unwrap_or(0);
                    t.write(x, v + 1)?;
                    Ok(t.id())
                })
                .unwrap();
            assert!(db.mv_scheduler().ts(id).is_none(), "the blocker's row went at its commit");
            blocker = Some(id);
        }
        tx.write(x, 5)
    })
    .unwrap();
    assert_eq!(db.metrics().restarts, 1);
    assert_eq!(
        db.run_read_only(|tx| [x, y, z].map(|item| tx.read(item))),
        [Some(5), Some(100), Some(1)]
    );
    let trace = certify(&buffer);
    let hint = trace.events().find_map(|e| match e {
        TraceEvent::Restart { hint, .. } => Some(*hint),
        _ => None,
    });
    assert_eq!(hint, Some(Some(3)), "no hint from {blocker:?}'s stamp");
}

/// A snapshot reader reads below its position: a version committed before
/// it began is current to it, and one a writer commits while it runs —
/// whose column 0 is defined above the published maximum, hence at or
/// above the position — is not; the reader walks down the chain to the
/// version below. The writer commits at its first attempt: a reader
/// refuses no writer that began after it, and keeps no row of its own.
#[test]
fn a_snapshot_reader_reads_below_its_position() {
    let (db, buffer) = journaled_mv(true, 2);
    let (x, y) = (ItemId(0), ItemId(1));
    let bump = |item: ItemId| {
        db.run(0, |tx| {
            let v = tx.read(item)?.unwrap_or(0);
            tx.write(item, v + 1)?;
            Ok(tx.id())
        })
        .unwrap()
    };
    let writers = [bump(x)];
    let (current, older, writers) = db.run_read_only(|tx| {
        let current = tx.read(x);
        tx.read(y);
        let writers = [writers[0], bump(y)];
        (current, tx.read(y), writers)
    });
    assert_eq!((current, older), (Some(101), Some(100)));
    let m = db.metrics();
    assert_eq!((m.aborts, m.restarts, db.gauges().sched_live_rows), (0, 0, 1), "T₀'s row alone");
    assert_eq!(db.run(0, |tx| tx.read(y)).unwrap(), Some(101));
    for writer in writers {
        assert!(db.mv_scheduler().ts(writer).is_none(), "{writer}'s row outlived its commit");
    }
    certify(&buffer);
}

/// The read bound at work: a writer whose column 0 was defined before a
/// snapshot reader took its position, and who writes an item the reader
/// has read since, is refused at commit — a typed `read_bound`
/// validation abort — and commits at its restart, which begins above the
/// position. The reader's scan and the journal stay certified.
#[test]
fn a_writer_below_a_snapshot_readers_position_restarts() {
    use mdts_trace::event::AbortReason;
    use mdts_trace::TraceEvent;
    let (db, buffer) = journaled_mv(true, 3);
    let (x, y, z) = (ItemId(0), ItemId(1), ItemId(2));
    let mut first = true;
    let mut scan = None;
    db.run(4, |tx| {
        let v = tx.read(y)?.unwrap_or(0); // column 0 defined to 1
        if std::mem::take(&mut first) {
            // A commit publishes column 0's maximum 1: the reader's
            // position is 2, and it reads `x` at it.
            db.run(0, |t| t.write(z, 7)).unwrap();
            scan = Some(db.run_read_only(|r| [x, y, z].map(|item| r.read(item))));
        }
        tx.write(x, v)?;
        tx.write(y, v + 1)
    })
    .unwrap();
    assert_eq!(scan, Some([Some(100), Some(100), Some(7)]));
    let m = db.metrics();
    assert_eq!((m.restarts, m.validation_aborts), (1, 1));
    let trace = certify(&buffer);
    let reasons: Vec<AbortReason> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::EngineAbort { reason, .. } => Some(*reason),
            _ => None,
        })
        .collect();
    assert_eq!(reasons, [AbortReason::ReadBound]);
}

/// The read bound holds a write the Thomas rule would ignore, too. `W`'s
/// column 0 is defined, then a commit publishes it as the maximum and a
/// snapshot reader takes its position above `W`. Inside the reader, `X`
/// writes `x` blind above the position, and the reader is served the older
/// version of `x`. `W`'s write of `x` lands below `WT(x) = X` and above
/// `RT(x)`: ignoring it would let `W` commit below the reader, and the
/// reader's later read of `u` — in a shard it had not read — would see
/// `W`'s value there while it missed `W`'s `x`. `W` is refused instead,
/// and its restart commits above the reader.
#[test]
fn an_ignored_write_below_a_read_bound_is_refused() {
    use mdts_trace::event::AbortReason;
    use mdts_trace::TraceEvent;
    use std::sync::mpsc;
    let (db, buffer) = journaled_mv(true, 4);
    let (x, y, z, u) = (ItemId(0), ItemId(1), ItemId(2), ItemId(3));
    let bump = |item: ItemId| {
        db.run(0, |tx| {
            let v = tx.read(item)?.unwrap_or(0);
            tx.write(item, v + 1)
        })
        .unwrap()
    };
    bump(x);
    let (defined_tx, defined) = mpsc::channel();
    let (go_tx, go) = mpsc::channel::<()>();
    let (done_tx, done) = mpsc::channel();
    let scan = std::thread::scope(|scope| {
        let writer_db = db.clone();
        scope.spawn(move || {
            let mut first = true;
            writer_db
                .run(4, |tx| {
                    tx.read(y)?; // column 0 defined
                    if std::mem::take(&mut first) {
                        defined_tx.send(()).unwrap();
                        go.recv().unwrap();
                    }
                    tx.write(x, 5)?;
                    tx.write(u, 5)
                })
                .unwrap();
            done_tx.send(()).unwrap();
        });
        defined.recv().unwrap();
        bump(z); // publishes W's column 0 as the maximum
        db.run_read_only(|r| {
            db.run(0, |t| t.write(x, 9)).unwrap(); // X: blind, above the position
            let vx = r.read(x);
            go_tx.send(()).unwrap();
            done.recv().unwrap();
            (vx, r.read(u))
        })
    });
    assert_eq!(scan, (Some(101), Some(100)), "the reader saw W's u but not W's x");
    let m = db.metrics();
    assert_eq!((m.ignored_writes, m.restarts), (0, 1));
    assert_eq!(db.run(0, |tx| Ok([tx.read(x)?, tx.read(u)?])).unwrap(), [Some(5), Some(5)]);
    let trace = certify(&buffer);
    let reasons: Vec<AbortReason> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::EngineAbort { reason, .. } => Some(*reason),
            _ => None,
        })
        .collect();
    assert_eq!(reasons, [AbortReason::ReadBound]);
}

/// The engine hands its sink to the protocol: without any `attach_trace`
/// by the caller the buffer holds the protocol's `Set` edges next to the
/// engine's `Begin`s, and attaching the same sink by hand first changes
/// nothing — the journal of the same single-client run is event for event
/// the same.
#[test]
fn the_database_owns_the_trace_sink_and_a_second_attach_is_harmless() {
    use mdts_trace::{TraceBuffer, TraceEvent};
    let run = |attach_first: bool| {
        let buffer = TraceBuffer::journal();
        let mut cc = ShardedMtCc::new(3);
        if attach_first {
            cc.attach_trace(TraceSink::to(&buffer));
        }
        let db = Database::open(
            Protocol::Multiversion(cc),
            Store::with_items(4, 100i64),
            TraceSink::to(&buffer),
        );
        for i in 0..8u32 {
            db.run(4, |tx| {
                let (a, b) = (ItemId(i % 4), ItemId((i + 1) % 4));
                let (va, vb) = (tx.read(a)?.unwrap_or(0), tx.read(b)?.unwrap_or(0));
                tx.write(a, va - 1)?;
                tx.write(b, vb + 1)
            })
            .unwrap();
        }
        buffer.drain().events().cloned().collect::<Vec<_>>()
    };
    let once = run(false);
    assert!(once.iter().any(|e| matches!(e, TraceEvent::SetEdge { .. })), "no protocol event");
    assert!(once.iter().any(|e| matches!(e, TraceEvent::Begin { .. })), "no engine event");
    assert_eq!(run(true), once);

    let buffer = TraceBuffer::journal();
    let db = Database::open(MtCc::new(3), Store::with_items(4, 100i64), TraceSink::to(&buffer));
    db.run(4, |tx| tx.write(ItemId(0), 1)).unwrap();
    assert!(buffer.drain().events().any(|e| matches!(e, TraceEvent::SetEdge { .. })));
}

#[test]
fn mv_trace_is_audit_certified() {
    use mdts_trace::{audit, TraceBuffer};
    // An MV-MT(3) database whose protocol and engine journal into one
    // buffer, and the auditor's check of what it recorded.
    let journaled = |store: Store<i64>| {
        let buffer = TraceBuffer::journal();
        let cc = ShardedMtCc::new(3);
        let db = Database::open(Protocol::Multiversion(cc), store, TraceSink::to(&buffer));
        (db, buffer)
    };
    let certify = |buffer: &TraceBuffer| {
        let report = audit(&buffer.drain(), 3);
        assert!(report.violations.is_empty(), "audit violations: {:?}", report.violations);
        assert!(report.version_reads > 0, "no version reads audited");
    };

    // Four clients over eight items, every third transaction a full scan.
    let (db, buffer) = journaled(Store::with_items(8, 100));
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let db = db.clone();
            scope.spawn(move || {
                for i in 0..60u32 {
                    if i % 3 == 0 {
                        let sum = db.run_read_only(|tx| {
                            (0..8).map(|a| tx.read(ItemId(a)).unwrap_or(0)).sum::<i64>()
                        });
                        assert_eq!(sum, 800);
                    } else {
                        let src = ItemId((i + t as u32) % 8);
                        let dst = ItemId((i + t as u32 + 3) % 8);
                        let _ = db.run(1_000, |tx| {
                            let a = tx.read(src)?.unwrap_or(0);
                            let b = tx.read(dst)?.unwrap_or(0);
                            tx.write(src, a - 1)?;
                            tx.write(dst, b + 1)?;
                            Ok(())
                        });
                    }
                }
            });
        }
    });
    certify(&buffer);

    // The read-heavy serving shape: eight clients, 95 % snapshot scans of
    // eight accounts beside transfers on a Zipf 0.9 hotspot.
    let cfg = BankConfig {
        accounts: 256,
        threads: 8,
        txns_per_thread: 500,
        zipf_theta: 0.9,
        read_only_fraction: 0.95,
        scan_len: 8,
        max_restarts: 2_000,
        ..BankConfig::default()
    };
    let (db, buffer) = journaled(Store::with_items(cfg.accounts, cfg.initial_balance));
    let report = run_bank_mix_db(&db, &cfg);
    assert!(report.invariant_holds(), "read-heavy MV run violated conservation");
    certify(&buffer);
}

// ---------------------------------------------------------------------
// MV-MT(k) property tests: the concurrent serving path vs. the
// sequential `MvMtScheduler` oracle (ISSUE 6, satellite 3)
// ---------------------------------------------------------------------

mod mv_props {
    use std::sync::mpsc;

    use mdts_core::MvMtScheduler;
    use mdts_model::{ItemId, Log, OpKind, Operation, TxId};
    use mdts_storage::Store;
    use mdts_trace::{audit, TraceBuffer, TraceSink};
    use proptest::prelude::*;

    use super::open;
    use crate::db::{Database, Protocol, ShardedMtCc};

    const ITEMS: u32 = 4;

    #[derive(Clone, Debug)]
    enum MvOp {
        /// A single-write updater transaction `W[i]`.
        Write(u32),
        /// A read-only snapshot transaction scanning the given items.
        Scan(Vec<u32>),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<MvOp>> {
        // The proptest shim has no `prop_oneof!`; a selector column picks
        // the variant (two thirds updaters, one third scans).
        proptest::collection::vec(
            (0u8..3, 0..ITEMS, proptest::collection::vec(0..ITEMS, 1..5)).prop_map(
                |(sel, w, mut scan)| {
                    if sel < 2 {
                        MvOp::Write(w)
                    } else {
                        scan.sort_unstable();
                        scan.dedup();
                        MvOp::Scan(scan)
                    }
                },
            ),
            1..24,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn snapshot_path_matches_sequential_mv_oracle(ops in arb_ops(), k in 2usize..5) {
            // One transaction at a time: single-write updaters and
            // multi-item snapshot scans. Both realizations of MV-MT(k)
            // must accept every such log (no rejects, no restarts), and
            // both reads-from relations must certify against the same
            // serial replay: each scan is a *consistent cut* of the
            // commit order (there is one serial position at which every
            // served version is the item's latest). Exact triple
            // equality is NOT required — which gap a reader slots into
            // depends on incidental `Set` value choices, and the two
            // schedulers pick values differently. The concurrent path is
            // pinned tighter: a reader's position lies above every stamp
            // committed before it began, so quiescent scans must serve
            // exactly the newest committed version.
            let mut log = Log::new();
            for (i, op) in ops.iter().enumerate() {
                let tx = TxId(i as u32 + 1);
                match op {
                    MvOp::Write(item) => log.push(Operation::write(tx, ItemId(*item))),
                    MvOp::Scan(items) => log.push(Operation::new(
                        tx,
                        OpKind::Read,
                        items.iter().map(|&i| ItemId(i)).collect(),
                    )),
                }
            }
            // The oracle may refuse a write: it orders the writer above
            // the newest version's writer and then its readers in
            // arrival order, so an early small define can collide with a
            // later reader's larger value. The engine orders above the
            // decided-larger holder first (the smaller follows by
            // transitivity), so sequentially it never refuses — compare
            // reads-from only on logs the oracle accepts.
            let oracle = MvMtScheduler::reads_from(&log, k).map(|(_, r)| r);

            // Writers record their log TxId as the stored value, so each
            // engine read names the version writer it was served.
            let db = open(Protocol::Multiversion(ShardedMtCc::new(k)), Store::with_items(ITEMS, 0));
            let mut got = Vec::new();
            // Last committed writer per item as the driver proceeds: the
            // deterministic spec for the concurrent path's scans.
            let mut newest = vec![TxId::VIRTUAL; ITEMS as usize];
            for (i, op) in ops.iter().enumerate() {
                let tx = TxId(i as u32 + 1);
                match op {
                    MvOp::Write(item) => {
                        let item = ItemId(*item);
                        let value = i64::from(tx.0);
                        db.run(0, |t| {
                            t.write(item, value)?;
                            Ok(())
                        })
                        .expect("a lone updater must never restart");
                        newest[item.index()] = tx;
                    }
                    MvOp::Scan(items) => {
                        let values = db.run_read_only(|t| {
                            items
                                .iter()
                                .map(|&i| t.read(ItemId(i)).unwrap_or(0))
                                .collect::<Vec<_>>()
                        });
                        for (&i, v) in items.iter().zip(values) {
                            let from = TxId(v as u32);
                            prop_assert!(
                                from == newest[i as usize],
                                "quiescent scan not served the newest version: \
                                 T{} read i{i} from T{} (newest committed T{})\n  ops: {ops:?}",
                                tx.0, from.0, newest[i as usize].0
                            );
                            got.push((tx, ItemId(i), from));
                        }
                    }
                }
            }
            if let Some(oracle) = &oracle {
                prop_assert!(
                    got.iter().map(|&(tx, item, _)| (tx, item)).eq(
                        oracle.iter().map(|&(tx, item, _)| (tx, item))),
                    "oracle and engine disagree on the read sequence itself"
                );
            }
            // Serial-replay certification of BOTH reads-from relations:
            // the serialization graph — per-item version-chain edges plus,
            // for every read, `from → scan → successor-of-from` — must be
            // acyclic, i.e. some serial order of the writers serves every
            // scan a consistent cut. (Commit order is NOT that order in
            // general: MT(k) serializes in the vector order.)
            let mut item_writers: Vec<Vec<TxId>> = vec![Vec::new(); ITEMS as usize];
            for (i, op) in ops.iter().enumerate() {
                if let MvOp::Write(item) = op {
                    item_writers[*item as usize].push(TxId(i as u32 + 1));
                }
            }
            for reads in std::iter::once(&got).chain(oracle.as_ref()) {
                let n = ops.len() + 1;
                let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
                let mut indeg = vec![0usize; n];
                let mut edge = |from: usize, to: usize| {
                    if from != to && !succs[from].contains(&to) {
                        succs[from].push(to);
                        indeg[to] += 1;
                    }
                };
                for chain in &item_writers {
                    for pair in chain.windows(2) {
                        edge(pair[0].index(), pair[1].index());
                    }
                }
                for &(tx, item, from) in reads.iter() {
                    let writers = &item_writers[item.index()];
                    let idx = if from.is_virtual() {
                        None
                    } else {
                        Some(writers.iter().position(|&w| w == from).expect("served a writer"))
                    };
                    if idx.is_some() {
                        edge(from.index(), tx.index());
                    }
                    if let Some(&s) = writers.get(idx.map_or(0, |j| j + 1)) {
                        edge(tx.index(), s.index());
                    }
                }
                // Kahn's algorithm: all nodes must drain.
                let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
                let mut drained = 0usize;
                while let Some(v) = queue.pop() {
                    drained += 1;
                    for &w in &succs[v] {
                        indeg[w] -= 1;
                        if indeg[w] == 0 {
                            queue.push(w);
                        }
                    }
                }
                prop_assert!(
                    drained == n,
                    "reads-from admits no serial order (cycle in the serialization graph)\n  \
                     reads: {reads:?}\n  ops: {ops:?}  k: {k}"
                );
            }
        }

        #[test]
        fn overlapping_snapshots_stay_audit_certified(
            steps in proptest::collection::vec(
                // (selector, reader, item, delta): selector 0 is a transfer
                // from `item` to `(item + delta) % ITEMS`, selector 1 a
                // lockstep read of `item` by `reader`.
                (0u8..2, 0..2usize, 0..ITEMS, 1..ITEMS).prop_map(|(sel, r, i, d)| {
                    if sel == 0 {
                        (usize::MAX, i, (i + d) % ITEMS)
                    } else {
                        (r, i, 0)
                    }
                }),
                1..32,
            ),
            k in 2usize..4,
        ) {
            // Two snapshot transactions stay open across the whole step
            // sequence (driven in lockstep over channels) while transfers
            // commit between their reads — the regime where reads are
            // served from *older* versions. Reader-side `Set` edges make
            // the engine's reads-from legitimately diverge from the
            // sequential oracle here, so the bar is the auditor's: the
            // final vector order must certify every served version
            // (reader above its writer, below every later chain writer).
            let buffer = TraceBuffer::journal();
            let cc = ShardedMtCc::new(k);
            let db: Database<i64> = Database::open(
                Protocol::Multiversion(cc),
                Store::with_items(ITEMS, 100),
                TraceSink::to(&buffer),
            );
            std::thread::scope(|scope| {
                let mut cmds = Vec::new();
                let mut answers = Vec::new();
                for _ in 0..2 {
                    let (cmd_tx, cmd_rx) = mpsc::channel::<Option<ItemId>>();
                    let (ans_tx, ans_rx) = mpsc::channel::<i64>();
                    let db = db.clone();
                    scope.spawn(move || {
                        db.run_read_only(move |t| {
                            while let Ok(Some(item)) = cmd_rx.recv() {
                                ans_tx.send(t.read(item).unwrap_or(0)).unwrap();
                            }
                        });
                    });
                    cmds.push(cmd_tx);
                    answers.push(ans_rx);
                }
                for &(reader, a, b) in &steps {
                    if reader == usize::MAX {
                        let (src, dst) = (ItemId(a), ItemId(b));
                        db.run(1_000, |t| {
                            let x = t.read(src)?.unwrap_or(0);
                            let y = t.read(dst)?.unwrap_or(0);
                            t.write(src, x - 1)?;
                            t.write(dst, y + 1)?;
                            Ok(())
                        })
                        .expect("updater exhausted restarts");
                    } else {
                        cmds[reader].send(Some(ItemId(a))).unwrap();
                        let _ = answers[reader].recv().unwrap();
                    }
                }
                for cmd in &cmds {
                    cmd.send(None).unwrap();
                }
            });
            let trace = buffer.drain();
            let report = audit(&trace, k);
            prop_assert!(report.violations.is_empty(), "audit violations: {:?}", report.violations);
        }
    }
}

// ---------------------------------------------------------------------
// striped counters: exact once quiescent, monotone while sampled
// ---------------------------------------------------------------------

mod striped_metrics {
    use std::sync::atomic::{AtomicBool, Ordering};

    use mdts_model::ItemId;

    use crate::db::Database;
    use crate::metrics::MetricsSnapshot;
    use crate::workload::{bank_database_multiversion, BankConfig};

    const ACCOUNTS: u32 = 64;

    /// `n` transfers walking the accounts from `first`; returns how many
    /// were acknowledged.
    fn transfers(db: &Database<i64>, first: u32, n: u32) -> u64 {
        let mut acked = 0;
        for i in 0..n {
            let src = ItemId((first + i) % ACCOUNTS);
            let dst = ItemId((first + i + 1 + i % 7) % ACCOUNTS);
            let done = db.run(10_000, |tx| {
                let a = tx.read(src)?.unwrap_or(0);
                let b = tx.read(dst)?.unwrap_or(0);
                tx.write(src, a - 1)?;
                tx.write(dst, b + 1)
            });
            acked += u64::from(done.is_ok());
        }
        acked
    }

    fn bank() -> Database<i64> {
        bank_database_multiversion(3, &BankConfig { accounts: ACCOUNTS, ..Default::default() })
    }

    /// Sixteen threads — as many as there are stripes — each count into
    /// their own cells; summed after the join, the program's commits are
    /// exactly the transactions the clients saw acknowledged, and every
    /// derived count agrees with them.
    #[test]
    fn commits_equal_acknowledged_at_16_threads() {
        let db = bank();
        let acked: u64 = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..16u32)
                .map(|t| {
                    let db = db.clone();
                    scope.spawn(move || transfers(&db, t * 4, 400))
                })
                .collect();
            clients.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let m = db.metrics();
        assert_eq!(m.commits, acked);
        assert_eq!(m.commits + m.gave_up, 16 * 400);
        assert_eq!(m.latency.count, m.commits, "one latency sample per commit");
        assert_eq!(m.aborts, m.access_aborts + m.validation_aborts + m.epoch_aborts);
        assert_eq!(m.restarts + m.gave_up, m.aborts, "every abort restarts or gives up");
        assert!(m.reads >= 2 * m.commits && m.writes >= 2 * m.commits);
        assert_eq!(
            m.shard_accesses.iter().sum::<u64>(),
            m.reads + 2 * m.commits - m.ignored_writes
        );
        let total: i64 = db.snapshot().values().sum();
        assert_eq!(total, i64::from(ACCOUNTS) * BankConfig::default().initial_balance);
    }

    /// Every cumulative component of `cur`, against `prev`.
    fn assert_monotone(prev: &MetricsSnapshot, cur: &MetricsSnapshot) {
        let pairs = [
            (prev.commits, cur.commits),
            (prev.aborts, cur.aborts),
            (prev.restarts, cur.restarts),
            (prev.reads, cur.reads),
            (prev.writes, cur.writes),
            (prev.access_aborts, cur.access_aborts),
            (prev.validation_aborts, cur.validation_aborts),
            (prev.order_cache_hits, cur.order_cache_hits),
            (prev.order_cache_misses, cur.order_cache_misses),
            (prev.latency.count, cur.latency.count),
        ];
        assert!(pairs.iter().all(|(p, c)| p <= c), "a counter went backwards: {pairs:?}");
        assert!(prev.latency.buckets.iter().zip(&cur.latency.buckets).all(|(p, c)| p <= c));
        assert!(prev.shard_accesses.iter().zip(&cur.shard_accesses).all(|(p, c)| p <= c));
    }

    /// A sampler reading while four clients write: each cell only grows,
    /// so successive snapshots are component-wise monotone, and the last
    /// one — taken after the join — is exact.
    #[test]
    fn a_samplers_successive_snapshots_are_monotone() {
        let db = bank();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..4u32)
                .map(|t| {
                    let db = db.clone();
                    scope.spawn(move || transfers(&db, t * 16, 2_000))
                })
                .collect();
            let sampler = scope.spawn(|| {
                let mut prev = db.metrics();
                let mut samples = 0u32;
                while !done.load(Ordering::Acquire) {
                    let cur = db.metrics();
                    assert_monotone(&prev, &cur);
                    prev = cur;
                    samples += 1;
                }
                (prev, samples)
            });
            let acked: u64 = clients.into_iter().map(|h| h.join().unwrap()).sum();
            done.store(true, Ordering::Release);
            let (last_sampled, samples) = sampler.join().unwrap();
            let last = db.metrics();
            assert!(samples > 0);
            assert_monotone(&last_sampled, &last);
            assert_eq!(last.commits, acked);
        });
    }
}

mod durability_tests {
    use mdts_model::{ItemId, TxId};
    use mdts_storage::{recover, CrashPoint, Recovered, Store};
    use mdts_trace::{audit, TraceBuffer, TraceSink};

    use crate::cc::MtCc;
    use crate::db::{Database, Protocol, ShardedMtCc, TxError};
    use crate::durability::{DurabilityConfig, CHECKPOINT_TX};

    /// A scratch directory unique to this test, wiped at entry.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mdts-eng-dur-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(
        protocol: impl Into<Protocol>,
        store: Store<i64>,
        trace: TraceSink,
        config: &DurabilityConfig,
    ) -> (Database<i64>, Recovered<i64>) {
        Database::open_durable(protocol, store, trace, config).expect("durable open")
    }

    /// Serialized MT(3) over the single-version sharded store: a
    /// checkpoint encodes the store's shards.
    fn sharded() -> Protocol {
        MtCc::new(3).into()
    }

    /// Sharded MV-MT(3): the version chains are the value store, so a
    /// checkpoint encodes the chain tails.
    fn multiversion() -> Protocol {
        Protocol::Multiversion(ShardedMtCc::new(3))
    }

    fn durable_db(dir: &std::path::Path, trace: TraceSink) -> Database<i64> {
        let config = DurabilityConfig::new(dir.join("wal.log")).journal(dir.join("journal.jsonl"));
        open(sharded(), Store::with_items(8, 100), trace, &config).0
    }

    #[test]
    fn acknowledged_commits_survive_a_restart() {
        let dir = scratch("restart");
        {
            let db = durable_db(&dir, TraceSink::disabled());
            for i in 0..8u32 {
                db.run(16, |tx| {
                    let src = ItemId(i % 8);
                    let v = tx.read(src)?.unwrap_or(0);
                    tx.write(src, v + 1)?;
                    Ok(())
                })
                .expect("commit acknowledged");
            }
            assert!(db.sync(), "all acknowledged epochs must be durable");
            assert!(db.has_durability());
            let m = db.metrics();
            assert_eq!(m.wal_commits, 8 + 1, "8 transactions plus the checkpoint");
            assert!(m.wal_fsyncs >= 1);
            assert_eq!(m.wal_unacked, 0);
        }
        // "Restart": recover the log directly and check the state.
        let recovered = recover::<i64>(&dir.join("wal.log")).unwrap();
        assert!(recovered.committed.contains(&CHECKPOINT_TX));
        assert_eq!(recovered.committed.len(), 9);
        let total: i64 = recovered.store.iter().map(|(_, v)| *v).sum();
        assert_eq!(total, 8 * 100 + 8, "each commit incremented one account");
        assert_eq!(recovered.report.dropped_commits, 0);

        // Re-open durable on the same path: the recovered state seeds the
        // store and the checkpoint epoch re-persists it.
        let config = DurabilityConfig::new(dir.join("wal.log"));
        let (db2, rec2) = open(sharded(), Store::new(), TraceSink::disabled(), &config);
        assert_eq!(rec2.committed.len(), 9);
        let total2: i64 = db2.snapshot().values().sum();
        assert_eq!(total2, 8 * 100 + 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sharded MV-MT(k) with the log: commits survive a reopen on the
    /// same log, and the reopened database still serves snapshots.
    #[test]
    fn multiversion_durable_reopens_with_its_commits() {
        let dir = scratch("mv");
        let config = DurabilityConfig::new(dir.join("wal.log"));
        let mv = |store| {
            open(Protocol::Multiversion(ShardedMtCc::new(3)), store, TraceSink::disabled(), &config)
        };
        {
            let (db, _) = mv(Store::with_items(8, 100));
            for i in 0..6u32 {
                let (src, dst) = (ItemId(i), ItemId(i + 1));
                db.run(16, |tx| {
                    let a = tx.read(src)?.unwrap_or(0);
                    let b = tx.read(dst)?.unwrap_or(0);
                    tx.write(src, a - 1)?;
                    tx.write(dst, b + 1)
                })
                .expect("commit acknowledged");
            }
            assert!(db.sync());
        }
        let (db, recovered) = mv(Store::new());
        assert!(db.has_multiversion() && db.has_durability());
        assert_eq!(db.protocol_name(), "MV-MT(k)");
        assert_eq!(recovered.committed.len(), 6 + 1, "6 transfers plus the checkpoint");
        let total: i64 =
            db.run_read_only(|tx| (0..8).map(|a| tx.read(ItemId(a)).unwrap_or(0)).sum());
        assert_eq!(total, 8 * 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_reports_durability_unknown_and_never_loses_acked() {
        let dir = scratch("crash");
        let mut acked: Vec<u32> = Vec::new();
        {
            let db = durable_db(&dir, TraceSink::disabled());
            for i in 0..4u32 {
                let id = std::cell::Cell::new(0u32);
                db.run(16, |tx| {
                    id.set(tx.id().0);
                    let v = tx.read(ItemId(i))?.unwrap_or(0);
                    tx.write(ItemId(i), v + 1)?;
                    Ok(())
                })
                .expect("pre-crash commit acknowledged");
                acked.push(id.get());
            }
            assert!(db.sync());
            db.set_crash_point(CrashPoint::MidEpoch);
            // The next commits hit the torn epoch: DurabilityUnknown, and
            // the engine must not retry them.
            let mut unknown = 0;
            for i in 0..4u32 {
                match db.run(16, |tx| {
                    let v = tx.read(ItemId(i))?.unwrap_or(0);
                    tx.write(ItemId(i), v + 10)?;
                    Ok(())
                }) {
                    Err(TxError::DurabilityUnknown) => unknown += 1,
                    Ok(()) => {}
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            assert!(unknown >= 1, "the crash must surface at least once");
            assert!(db.wal_crashed());
            assert!(!db.sync(), "sync must report the halt");
            assert!(db.metrics().wal_unacked >= 1);
        }
        let recovered = recover::<i64>(&dir.join("wal.log")).unwrap();
        for id in acked {
            assert!(
                recovered.committed.contains(&TxId(id)),
                "acknowledged T{id} lost by the crash"
            );
        }
        assert!(recovered.report.unsealed_tail, "the torn epoch is discarded as the tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn post_fsync_pre_ack_crash_is_durable_but_unacknowledged() {
        let dir = scratch("postfsync");
        let tx_id = std::cell::Cell::new(0u32);
        {
            let db = durable_db(&dir, TraceSink::disabled());
            db.set_crash_point(CrashPoint::PostFsyncPreAck);
            let r = db.run(16, |tx| {
                tx_id.set(tx.id().0);
                let v = tx.read(ItemId(0))?.unwrap_or(0);
                tx.write(ItemId(0), v + 7)?;
                Ok(())
            });
            assert_eq!(r, Err(TxError::DurabilityUnknown), "fsynced but never acknowledged");
        }
        // One-directional guarantee: the unacknowledged epoch WAS fsynced,
        // so recovery replays it (acked ⊆ recovered, never the reverse).
        let recovered = recover::<i64>(&dir.join("wal.log")).unwrap();
        assert!(recovered.committed.contains(&TxId(tx_id.get())));
        assert_eq!(recovered.store.get(ItemId(0)), Some(&107));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotation_truncates_the_log_and_preserves_state() {
        checkpoint_rotation("checkpoint", sharded);
        checkpoint_rotation("checkpoint-mv", multiversion);
    }

    fn checkpoint_rotation(name: &str, protocol: fn() -> Protocol) {
        let dir = scratch(name);
        let snapshot;
        {
            let config = DurabilityConfig::new(dir.join("wal.log")).checkpoint_every(4);
            let (db, _) =
                open(protocol(), Store::with_items(8, 100i64), TraceSink::disabled(), &config);
            for i in 0..40u32 {
                db.run(16, |tx| {
                    let item = ItemId(i % 8);
                    let v = tx.read(item)?.unwrap_or(0);
                    tx.write(item, v + 1)?;
                    Ok(())
                })
                .expect("commit acknowledged");
                // One sealed epoch per commit, so the 4-epoch cadence
                // fires repeatedly.
                assert!(db.sync());
            }
            let g = db.gauges();
            assert!(g.wal_truncations >= 1, "40 sealed epochs at cadence 4 must rotate");
            assert_eq!(g.wal_checkpoints, g.wal_truncations);
            snapshot = db.snapshot();
        }
        // Truncation subsumes pre-checkpoint transactions into
        // CHECKPOINT_TX, so the post-restart contract is store equality,
        // not committed-set membership.
        let recovered = recover::<i64>(&dir.join("wal.log")).unwrap();
        assert!(recovered.committed.contains(&CHECKPOINT_TX));
        assert!(
            recovered.report.sealed_epochs < 40,
            "the log retained all {} epochs — never truncated",
            recovered.report.sealed_epochs
        );
        assert_eq!(recovered.store.len(), snapshot.len());
        for (item, value) in &snapshot {
            assert_eq!(recovered.store.get(*item), Some(value));
        }
        // Reopen over the truncated log: state carries forward.
        let config = DurabilityConfig::new(dir.join("wal.log"));
        let (db2, _) = open(protocol(), Store::new(), TraceSink::disabled(), &config);
        let total: i64 = db2.snapshot().values().sum();
        assert_eq!(total, 8 * 100 + 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_race_concurrent_commits_without_losing_state() {
        checkpoints_race("checkpoint-race", sharded);
        checkpoints_race("checkpoint-race-mv", multiversion);
    }

    fn checkpoints_race(name: &str, protocol: fn() -> Protocol) {
        let dir = scratch(name);
        let snapshot;
        {
            let config = DurabilityConfig::new(dir.join("wal.log")).checkpoint_every(2);
            let (db, _) =
                open(protocol(), Store::with_items(16, 0i64), TraceSink::disabled(), &config);
            std::thread::scope(|s| {
                for t in 0..4u32 {
                    let db = &db;
                    s.spawn(move || {
                        for i in 0..50u32 {
                            db.run(64, |tx| {
                                let item = ItemId((t * 50 + i) % 16);
                                let v = tx.read(item)?.unwrap_or(0);
                                tx.write(item, v + 1)?;
                                Ok(())
                            })
                            .expect("commit acknowledged");
                        }
                    });
                }
            });
            assert!(db.sync());
            snapshot = db.snapshot();
            let total: i64 = snapshot.values().sum();
            assert_eq!(total, 200, "every acknowledged increment is in memory");
        }
        // Rotations raced the committers; the recovered store must still
        // equal the final in-memory state exactly.
        let recovered = recover::<i64>(&dir.join("wal.log")).unwrap();
        assert_eq!(recovered.store.len(), snapshot.len());
        for (item, value) in &snapshot {
            assert_eq!(recovered.store.get(*item), Some(value));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every commit is journaled once, by the engine: five commits leave
    /// five `Commit` records on MV-MT(3) (four transfers and a snapshot
    /// scan), on durable MV-MT(3) (read from the journal file the daemon
    /// fsyncs ahead of the log) and on the serialized MT(3) adapter.
    #[test]
    fn each_commit_is_journaled_once() {
        use mdts_trace::TraceEvent;
        let five = |db: &Database<i64>| {
            for i in 0..5u32 {
                let (a, b) = (ItemId(i % 8), ItemId((i + 1) % 8));
                if i == 2 && db.has_multiversion() {
                    db.run_read_only(|tx| (tx.read(a), tx.read(b)));
                    continue;
                }
                db.run(4, |tx| {
                    let (x, y) = (tx.read(a)?.unwrap_or(0), tx.read(b)?.unwrap_or(0));
                    tx.write(a, x - 1)?;
                    tx.write(b, y + 1)
                })
                .expect("commit acknowledged");
            }
        };
        let commits = |trace: &mdts_trace::Trace| {
            trace.events().filter(|e| matches!(e, TraceEvent::Commit { .. })).count()
        };
        for protocol in [multiversion(), sharded()] {
            let buffer = TraceBuffer::journal();
            let db = Database::open(protocol, Store::with_items(8, 100), TraceSink::to(&buffer));
            five(&db);
            assert_eq!(commits(&buffer.drain()), 5, "{}", db.protocol_name());
        }
        let dir = scratch("journal-once");
        {
            let buffer = TraceBuffer::unbounded(4);
            let config =
                DurabilityConfig::new(dir.join("wal.log")).journal(dir.join("journal.jsonl"));
            let trace = TraceSink::to(&buffer);
            let (db, _) = open(multiversion(), Store::with_items(8, 100i64), trace, &config);
            five(&db);
            assert!(db.sync());
        }
        let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let (trace, _) = mdts_trace::from_jsonl(&text).expect("journal parses");
        assert_eq!(commits(&trace), 5, "durable MV-MT(3)");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_trace_certifies_the_recovered_committed_set() {
        let dir = scratch("certify");
        {
            let buffer = TraceBuffer::unbounded(4);
            let cc = ShardedMtCc::new(3);
            let config =
                DurabilityConfig::new(dir.join("wal.log")).journal(dir.join("journal.jsonl"));
            let (db, _) = open(cc, Store::with_items(8, 100i64), TraceSink::to(&buffer), &config);
            for i in 0..6u32 {
                db.run(16, |tx| {
                    let a = ItemId(i % 8);
                    let b = ItemId((i + 1) % 8);
                    let x = tx.read(a)?.unwrap_or(0);
                    let y = tx.read(b)?.unwrap_or(0);
                    tx.write(a, x - 1)?;
                    tx.write(b, y + 1)?;
                    Ok(())
                })
                .expect("commit acknowledged");
            }
            assert!(db.sync());
        } // drop flushes the final journal slice and joins the daemon
        let recovered = recover::<i64>(&dir.join("wal.log")).unwrap();
        let text = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
        let (trace, report) = mdts_trace::from_jsonl(&text).expect("journal parses");
        assert!(!report.torn_tail, "clean shutdown leaves no torn tail");
        let verdict = audit(&trace, 3);
        assert!(verdict.violations.is_empty(), "auditor: {:?}", verdict.violations);
        // Every WAL-recovered transaction (checkpoint aside) has its
        // commit event in the journal: the journal fsync precedes the
        // epoch fsync.
        let journaled: std::collections::BTreeSet<TxId> = trace
            .events()
            .filter_map(|e| match e {
                mdts_trace::TraceEvent::Commit { tx } => Some(*tx),
                _ => None,
            })
            .collect();
        for tx in recovered.committed.iter().filter(|t| **t != CHECKPOINT_TX) {
            assert!(journaled.contains(tx), "recovered {tx:?} missing from the journaled trace");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
