//! exp21 — certified restart and checkpoint truncation (ISSUE 10).
//!
//! Two lanes:
//!
//! * **certified restart** — a durable MV-MT(k) bank runs concurrent
//!   transfers, is shut down, and the log is recovered: the recovery
//!   must contain every acknowledged commit and conserve the bank total,
//!   and the journaled decision trace must certify the restart through
//!   the Definition-6 auditor — the exp20 contract.
//! * **checkpoint truncation** — the same bank with
//!   [`DurabilityConfig::checkpoint_every`] set: after hundreds of
//!   sealed epochs the log must have rotated, recovery must see a
//!   bounded epoch count, and the recovered store must still conserve
//!   the bank total.
//!
//! `--smoke` shrinks the budgets to CI size; `--json` emits one
//! `mdts-metrics/v1` document.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mdts_bench::{json_mode, metrics_document, print_table, Table};
use mdts_engine::{Database, DurabilityConfig, Protocol, ShardedMtCc, TxError};
use mdts_model::{ItemId, TxId};
use mdts_storage::recover;
use mdts_trace::{audit, from_jsonl, MetricsRegistry, TraceBuffer, TraceEvent, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 3;
const ACCOUNTS: u32 = 64;
const INITIAL: i64 = 1_000;
const THREADS: usize = 4;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdts-exp21-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("exp21 scratch dir");
    dir
}

/// One transfer; returns the acknowledged id.
fn transfer(db: &Database<i64>, rng: &mut StdRng) -> Result<Option<u32>, TxError> {
    let from = rng.gen_range(0..ACCOUNTS);
    let to = (from + 1 + rng.gen_range(0..ACCOUNTS - 1)) % ACCOUNTS;
    let (from, to) = (ItemId(from), ItemId(to));
    let id = std::cell::Cell::new(0u32);
    match db.run(2_000, |tx| {
        id.set(tx.id().0);
        let x = tx.read(from)?.unwrap_or(0);
        let y = tx.read(to)?.unwrap_or(0);
        tx.write(from, x - 1)?;
        tx.write(to, y + 1)?;
        Ok(())
    }) {
        Ok(()) => Ok(Some(id.get())),
        Err(TxError::RetriesExhausted) => Ok(None),
        Err(e) => Err(e),
    }
}

fn open_durable(
    dir: &Path,
    checkpoint_every: u64,
) -> std::io::Result<(Database<i64>, mdts_storage::Recovered<i64>)> {
    let buffer = TraceBuffer::unbounded(4);
    let cc = ShardedMtCc::new(K);
    let config = DurabilityConfig::new(dir.join("wal.log"))
        .journal(dir.join("journal.jsonl"))
        .checkpoint_every(checkpoint_every);
    Database::open_durable(
        Protocol::Multiversion(cc),
        mdts_storage::Store::with_items(ACCOUNTS, INITIAL),
        TraceSink::to(&buffer),
        &config,
    )
}

fn certified_restart_lane(smoke: bool, table: &mut Table, runs: &mut Vec<MetricsRegistry>) {
    let txns = if smoke { 40 } else { 300 };
    let dir = scratch("certify");
    let acked = Mutex::new(BTreeSet::new());
    {
        let (db, fresh) = open_durable(&dir, 0).expect("open durable bank");
        assert!(fresh.committed.is_empty(), "lane started on a stale log");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (db, acked) = (db.clone(), &acked);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x21_00 + t as u64);
                    for _ in 0..txns {
                        if let Some(id) = transfer(&db, &mut rng).expect("commit acknowledged") {
                            acked.lock().unwrap().insert(id);
                        }
                    }
                });
            }
        });
        assert!(db.sync(), "all acknowledged epochs must be durable");
    }
    let acked = acked.into_inner().unwrap();
    assert!(!acked.is_empty());

    // Recovery must keep every acknowledged commit and conserve the
    // bank total.
    let recovered = recover::<i64>(&dir.join("wal.log")).expect("recovery scan");
    for id in &acked {
        assert!(recovered.committed.contains(&TxId(*id)), "acknowledged T{id} lost");
    }
    let total: i64 = recovered.store.iter().map(|(_, v)| *v).sum();
    assert_eq!(total, ACCOUNTS as i64 * INITIAL, "recovered store lost conservation");

    // Auditor certification over the journaled decision trace.
    let text = std::fs::read_to_string(dir.join("journal.jsonl")).expect("journal readable");
    let (trace, _) = from_jsonl(&text).expect("journal parses");
    let verdict = audit(&trace, K);
    assert!(verdict.violations.is_empty(), "auditor rejected the restart: {}", verdict.summary());
    let journaled: BTreeSet<TxId> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::Commit { tx } => Some(*tx),
            _ => None,
        })
        .collect();
    for tx in recovered.committed.iter().filter(|t| t.0 != 0) {
        assert!(journaled.contains(tx), "recovered {tx:?} missing from the journal");
    }

    table.row(&[
        "certified restart".into(),
        recovered.report.sealed_epochs.to_string(),
        acked.len().to_string(),
        "-".into(),
        format!("{THREADS} clients"),
        "certified".into(),
    ]);
    runs.push(
        MetricsRegistry::default()
            .label("lane", "certified-restart")
            .counter("acked_commits", acked.len() as u64)
            .counter("recovered_commits", recovered.committed.len() as u64)
            .counter("audit_violations", verdict.violations.len() as u64),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn truncation_lane(smoke: bool, table: &mut Table, runs: &mut Vec<MetricsRegistry>) {
    let commits = if smoke { 80 } else { 400 };
    let dir = scratch("truncate");
    let truncations;
    {
        let (db, _) = open_durable(&dir, 8).expect("open durable bank");
        let mut rng = StdRng::seed_from_u64(0x21_77);
        for n in 0..commits {
            transfer(&db, &mut rng).expect("commit acknowledged");
            if n % 2 == 0 {
                // Force epochs to seal often so the 8-epoch cadence fires
                // many times within the budget.
                assert!(db.sync());
            }
        }
        assert!(db.sync());
        let g = db.gauges();
        truncations = g.wal_truncations;
        assert!(truncations >= 1, "hundreds of sealed epochs never triggered a rotation");
        assert_eq!(g.wal_checkpoints, truncations);
    }
    let recovered = recover::<i64>(&dir.join("wal.log")).expect("recovery scan");
    let total: i64 = recovered.store.iter().map(|(_, v)| *v).sum();
    assert_eq!(total, ACCOUNTS as i64 * INITIAL, "truncated log lost conservation");
    assert!(
        recovered.report.sealed_epochs < commits,
        "log kept {} epochs across {} forced seals — never truncated",
        recovered.report.sealed_epochs,
        commits
    );
    let wal_bytes = std::fs::metadata(dir.join("wal.log")).map(|m| m.len()).unwrap_or(0);
    table.row(&[
        "checkpoint truncation".into(),
        recovered.report.sealed_epochs.to_string(),
        commits.to_string(),
        format!("{:.1} KiB", wal_bytes as f64 / 1024.0),
        format!("{truncations} rotations"),
        "conserved".into(),
    ]);
    runs.push(
        MetricsRegistry::default()
            .label("lane", "truncation")
            .counter("commits", commits)
            .counter("recovered_epochs", recovered.report.sealed_epochs)
            .counter("truncations", truncations)
            .counter("wal_bytes", wal_bytes),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = json_mode();
    let smoke = args.iter().any(|a| a == "--smoke");
    if !json {
        println!("== exp21: certified restart + checkpoint truncation (ISSUE 10) ==\n");
    }
    let mut t = Table::new(&["lane", "epochs", "commits", "wall / size", "detail", "verdict"]);
    let mut runs = Vec::new();
    certified_restart_lane(smoke, &mut t, &mut runs);
    truncation_lane(smoke, &mut t, &mut runs);
    if json {
        println!("{}", metrics_document("exp21", &runs).render());
        return;
    }
    print_table(&t);
    println!(
        "\nreading the shape: the restart lane drives the bank from concurrent\n\
         clients and then certifies the recovered state against the journaled\n\
         decision trace; the truncation lane shows the checkpoint rotation\n\
         holding recovery work at the checkpoint interval instead of the\n\
         log's lifetime."
    );
}
