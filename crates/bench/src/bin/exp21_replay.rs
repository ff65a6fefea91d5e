//! exp21 — parallel sealed-epoch replay and checkpoint truncation
//! (ISSUE 10).
//!
//! Three lanes:
//!
//! * **replay scaling** — a synthetic many-epoch redo log is recovered
//!   with 1, 2, and 4 replay workers. The recovered state must be
//!   **bit-identical** across every thread count (always asserted); the
//!   ≥2× speedup assertion at 4 workers only arms when the host actually
//!   has ≥4 CPUs *and* the full-size log is in play — on a 1-core
//!   container the partitioned replay cannot beat the serial loop, and
//!   pretending otherwise would just institutionalize a flaky gate. The
//!   measured wall times and the host CPU count are recorded either way.
//! * **certified restart** — a durable MV-MT(k) bank runs concurrent
//!   transfers, is shut down, and the log
//!   is recovered serially and in parallel: both recoveries must agree
//!   bit for bit, contain every acknowledged commit, and the journaled
//!   decision trace must certify the restart through the Definition-6
//!   auditor — the exp20 contract, now covering the parallel replayer.
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
use std::time::{Duration, Instant};

use mdts_bench::{json_mode, metrics_document, print_table, Table};
use mdts_engine::{Database, DurabilityConfig, ShardedMtCc, TxError};
use mdts_model::{ItemId, TxId};
use mdts_storage::wal::{encode_commit, encode_epoch_begin, encode_epoch_seal};
use mdts_storage::{recover_with, Recovered, WalWriter};
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

/// Writes a synthetic sealed log: `epochs` epochs of `commits_per`
/// multi-item commits over `items` hot items, so last-writer-wins
/// crosses every partition boundary the parallel replayer can draw.
fn synth_log(path: &Path, epochs: u64, commits_per: u64, items: u32) {
    let mut w = WalWriter::create(path).expect("synth log create");
    let mut rng = StdRng::seed_from_u64(0x21_21);
    let (mut lsn, mut tx) = (0u64, 1u32);
    let mut frames = Vec::new();
    for epoch in 0..epochs {
        frames.clear();
        encode_epoch_begin(&mut frames, epoch);
        for _ in 0..commits_per {
            let writes: Vec<(ItemId, i64)> = (0..rng.gen_range(1..4u32))
                .map(|_| (ItemId(rng.gen_range(0..items)), rng.gen_range(-1_000..1_000i64)))
                .collect();
            encode_commit(&mut frames, lsn, TxId(tx), &writes, &[]);
            lsn += 1;
            tx += 1;
        }
        let seal = encode_epoch_seal(&mut frames, epoch, commits_per);
        assert!(w.append_epoch(&frames, seal).expect("synth append"));
    }
}

/// Recovers `path` with `threads` workers `reps` times, returning the
/// best wall time and the (identical) last recovery.
fn timed_recover(path: &Path, threads: usize, reps: usize) -> (Duration, Recovered<i64>) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = recover_with::<i64>(path, threads).expect("recovery scan");
        best = best.min(t0.elapsed());
        last = Some(r);
    }
    (best, last.expect("at least one rep"))
}

fn assert_identical(a: &Recovered<i64>, b: &Recovered<i64>, label: &str) {
    assert_eq!(a.committed, b.committed, "{label}: committed sets diverged");
    assert_eq!(a.last_epoch, b.last_epoch, "{label}: last epoch diverged");
    assert_eq!(a.last_lsn, b.last_lsn, "{label}: last lsn diverged");
    assert_eq!(a.max_tx, b.max_tx, "{label}: max tx diverged");
    assert_eq!(a.store.len(), b.store.len(), "{label}: store sizes diverged");
    for (item, value) in a.store.iter() {
        assert_eq!(b.store.get(item), Some(value), "{label}: {item:?} diverged");
    }
}

fn replay_lane(smoke: bool, table: &mut Table, runs: &mut Vec<MetricsRegistry>) {
    let (epochs, commits_per, reps) = if smoke { (150, 8, 2) } else { (1_200, 24, 3) };
    let dir = scratch("replay");
    let path = dir.join("wal.log");
    synth_log(&path, epochs, commits_per, 256);

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (serial, base) = timed_recover(&path, 1, reps);
    assert_eq!(base.report.sealed_epochs, epochs);
    assert_eq!(base.report.replay_threads, 1);
    for &threads in &[2usize, 4] {
        let (took, r) = timed_recover(&path, threads, reps);
        assert_identical(&base, &r, &format!("{threads}-thread replay"));
        assert_eq!(r.report.replay_threads as usize, threads);
        let speedup = serial.as_secs_f64() / took.as_secs_f64().max(1e-9);
        // The scaling gate needs real cores under it; everywhere else
        // the lane still proves bit-identity and records the numbers.
        if threads == 4 && host_cpus >= 4 && !smoke {
            assert!(
                speedup >= 2.0,
                "4-thread replay managed only {speedup:.2}x over serial on {host_cpus} CPUs"
            );
        }
        table.row(&[
            format!("replay x{threads}"),
            epochs.to_string(),
            (epochs * commits_per).to_string(),
            format!("{:.2}", took.as_secs_f64() * 1e3),
            format!("{speedup:.2}x"),
            "identical".into(),
        ]);
        runs.push(
            MetricsRegistry::default()
                .label("lane", "replay")
                .label("threads", threads.to_string())
                .counter("epochs", epochs)
                .counter("commits", epochs * commits_per)
                .counter("replay_us", took.as_micros() as u64)
                .counter("serial_us", serial.as_micros() as u64)
                .counter("speedup_milli", (speedup * 1_000.0) as u64)
                .counter("host_cpus", host_cpus as u64),
        );
    }
    table.row(&[
        "replay x1".into(),
        epochs.to_string(),
        (epochs * commits_per).to_string(),
        format!("{:.2}", serial.as_secs_f64() * 1e3),
        "1.00x".into(),
        "baseline".into(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
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
    let mut cc = ShardedMtCc::new(K);
    cc.attach_trace(TraceSink::to(&buffer));
    let config = DurabilityConfig::new(dir.join("wal.log"))
        .journal(dir.join("journal.jsonl"))
        .checkpoint_every(checkpoint_every);
    Database::with_store_multiversion_durable(
        cc,
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

    // Serial and parallel recovery of the same log must agree bit for
    // bit, keep every acknowledged commit, and conserve the bank total.
    let (_, serial) = timed_recover(&dir.join("wal.log"), 1, 1);
    let (_, parallel) = timed_recover(&dir.join("wal.log"), 4, 1);
    assert_identical(&serial, &parallel, "certified restart");
    for id in &acked {
        assert!(parallel.committed.contains(&TxId(*id)), "acknowledged T{id} lost");
    }
    let total: i64 = parallel.store.iter().map(|(_, v)| *v).sum();
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
    for tx in parallel.committed.iter().filter(|t| t.0 != 0) {
        assert!(journaled.contains(tx), "recovered {tx:?} missing from the journal");
    }

    table.row(&[
        "certified restart".into(),
        parallel.report.sealed_epochs.to_string(),
        acked.len().to_string(),
        "-".into(),
        format!("{THREADS} clients"),
        "certified".into(),
    ]);
    runs.push(
        MetricsRegistry::default()
            .label("lane", "certified-restart")
            .counter("acked_commits", acked.len() as u64)
            .counter("recovered_commits", parallel.committed.len() as u64)
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
    let (_, recovered) = timed_recover(&dir.join("wal.log"), 4, 1);
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
        println!("== exp21: parallel sealed-epoch replay + checkpoint truncation (ISSUE 10) ==\n");
    }
    let mut t = Table::new(&["lane", "epochs", "commits", "wall / size", "detail", "verdict"]);
    let mut runs = Vec::new();
    replay_lane(smoke, &mut t, &mut runs);
    certified_restart_lane(smoke, &mut t, &mut runs);
    truncation_lane(smoke, &mut t, &mut runs);
    if json {
        println!("{}", metrics_document("exp21", &runs).render());
        return;
    }
    print_table(&t);
    println!(
        "\nreading the shape: the replay lanes prove the partitioned replayer is\n\
         an *identity-preserving* optimization — every thread count rebuilds the\n\
         same store, committed set and high-water marks, and the speedup gate\n\
         arms only when the host has the cores to honor it. The restart lane\n\
         drives the bank from concurrent clients and then\n\
         certifies the recovered state against the journaled decision trace;\n\
         the truncation lane shows the checkpoint rotation holding recovery\n\
         work at the checkpoint interval instead of the log's lifetime."
    );
}
