//! exp19 — multicore scaling of the sharded engine: MT(k) on the
//! item-sharded scheduler against the same protocol serialized behind one
//! mutex, plus 2PL and TO(1), from 1 to 16 client threads.
//!
//! Total work is held constant (the thread count divides a fixed
//! transaction budget), so a flat protocol shows flat throughput and a
//! scalable one shows wall-clock speedup. Transactions carry a sleep-based
//! think time between their read and write phases — the I/O wait of the
//! paper's transactions — so overlapping them is what buys throughput, and
//! anything that serializes transactions across the wait (a global engine
//! mutex, 2PL's read locks on a hot item) caps the speedup regardless of
//! core count. The uniform/low-contention sweep measures the engine's own
//! scalability (conflicts are rare — any flattening is engine overhead);
//! the Zipf sweep measures how much of that headroom survives a contended
//! hotspot.

//! The third sweep is the MV-MT(k) serving-path lane (ISSUE 6): a 95/5
//! read-heavy mix where read-only audits run as snapshot transactions on
//! version chains — they never abort, restart, or block writers — against
//! single-version MT(k) (same protocol, scans on the write path) and the
//! serialized `mvto` baseline. `--read-only-fraction F` and `--scan-len N`
//! reshape that lane from the CLI. Read-mostly serving is an order of
//! magnitude faster than the contended transfer mixes, so on the shared
//! budget this sweep would be a sub-100 ms flash run measuring startup
//! effects; it runs a 10× budget instead, long enough that steady-state
//! costs — version-chain growth, timestamp-table growth, GC and row
//! reclamation — sit inside the measurement window.
//!
//! `--json` replaces the human tables with one `mdts-metrics/v1` document
//! on stdout (full counters, breakdowns, and latency histograms per run).
//! `--quick` shrinks the budget and the thread sweep to a CI-sized smoke
//! run: same code paths and invariant checks, no statistical weight.
//! `--telemetry out.jsonl` adds a sampler-instrumented read-heavy run and
//! writes its `mdts-timeseries/v1` window stream (see DESIGN.md §6);
//! `--telemetry-strict` additionally fails the process when the online
//! stall detector fired during that run. `--durable` adds the ISSUE 9
//! group-commit lane: the uniform mix (with the 1 ms I/O-bound think time
//! of the paper's transaction model) with a write-ahead log at 1 ms
//! epochs against its in-memory twin, asserting group commit holds ≥ 70%
//! of in-memory throughput at the widest matched sweep point, then
//! recovering the log cold and re-checking conservation over the rebuilt
//! store.

use std::time::Duration;

use mdts_bench::{
    arg_value, enforce_strict, json_mode, metrics_document, print_table, run_instrumented,
    write_timeseries, Table, TelemetryOpts,
};
use mdts_engine::{
    bank_database_durable, bank_database_multiversion, run_bank_mix, run_bank_mix_db,
    run_bank_mix_multiversion_audited, BankConfig, BankReport, BasicToCc, DurabilityConfig, MtCc,
    MvToCc, Protocol as Engine, ShardedMtCc, TwoPlCc,
};
use mdts_storage::recover;

const TOTAL_TXNS: usize = 4_000;
const THREADS: [usize; 5] = [1, 2, 4, 8, 16];
const QUICK_TXNS: usize = 400;
const QUICK_THREADS: [usize; 2] = [1, 4];
const K: usize = 3;
const THINK_SLEEP_US: u64 = 100;
/// Think time for the `--durable` lane: the paper's transactions wait on
/// I/O mid-flight, and a 1 ms wait is the budget group commit hides its
/// fsync inside. See the lane comment at the `durable` block.
const DURABLE_THINK_US: u64 = 1_000;

#[derive(Clone, Copy, PartialEq)]
enum Protocol {
    MvMtSnapshot,
    MtSharded,
    MtSerialized,
    Mvto,
    TwoPl,
    To1,
}

impl Protocol {
    fn scaling() -> [Protocol; 4] {
        [Protocol::MtSharded, Protocol::MtSerialized, Protocol::TwoPl, Protocol::To1]
    }

    fn read_heavy() -> [Protocol; 4] {
        [Protocol::MvMtSnapshot, Protocol::MtSharded, Protocol::Mvto, Protocol::To1]
    }

    fn run(self, cfg: &BankConfig) -> BankReport {
        let sharded = || {
            ShardedMtCc::with_options(mdts_core::MtOptions {
                starvation_flush: true,
                order_cache: cfg.order_cache,
                ..mdts_core::MtOptions::new(K)
            })
        };
        match self {
            Protocol::MvMtSnapshot => run_bank_mix(Engine::Multiversion(sharded()), cfg),
            Protocol::MtSharded => run_bank_mix(Engine::Concurrent(Box::new(sharded())), cfg),
            Protocol::MtSerialized => run_bank_mix(MtCc::new(K), cfg),
            Protocol::Mvto => run_bank_mix(MvToCc::new(), cfg),
            Protocol::TwoPl => run_bank_mix(TwoPlCc::new(), cfg),
            Protocol::To1 => run_bank_mix(BasicToCc::new(true), cfg),
        }
    }
}

fn main() {
    let json = json_mode();
    let quick = std::env::args().any(|a| a == "--quick");
    // `--nocache` switches the sharded lanes' write-once order cache off:
    // every access walks the vectors — the configuration the bench.sh
    // smoke step pins down.
    let nocache = std::env::args().any(|a| a == "--nocache");
    // `--durable` adds the ISSUE 9 group-commit lane: the same mix with
    // every commit acknowledged only after its WAL epoch is fsynced.
    let durable = std::env::args().any(|a| a == "--durable");
    let telemetry = TelemetryOpts::from_args();
    let read_only_fraction: f64 = arg_value("--read-only-fraction")
        .map(|v| v.parse().expect("--read-only-fraction expects a float in [0,1]"))
        .unwrap_or(0.95);
    let scan_len: usize = arg_value("--scan-len")
        .map(|v| v.parse().expect("--scan-len expects a positive integer"))
        .unwrap_or(8);
    let (total_txns, thread_sweep): (usize, &[usize]) =
        if quick { (QUICK_TXNS, &QUICK_THREADS) } else { (TOTAL_TXNS, &THREADS) };
    let mut runs = Vec::new();
    if !json {
        println!("== exp19: multicore scaling, sharded vs serialized engine ==\n");
    }
    let read_heavy_label = format!(
        "read-heavy {:.0}/{:.0} (256 accounts, theta 0.9, scans of {scan_len})",
        read_only_fraction * 100.0,
        (1.0 - read_only_fraction) * 100.0
    );
    let (scaling, read_heavy) = (Protocol::scaling(), Protocol::read_heavy());
    let read_heavy_txns = total_txns * 10;
    #[allow(clippy::type_complexity)]
    let sweeps: [(&str, u32, f64, f64, usize, usize, &[Protocol]); 3] = [
        ("uniform low contention (4096 accounts)", 4096, 0.0, 0.25, 4, total_txns, &scaling),
        ("Zipf hotspot (256 accounts, theta 0.9)", 256, 0.9, 0.25, 4, total_txns, &scaling),
        (&read_heavy_label, 256, 0.9, read_only_fraction, scan_len, read_heavy_txns, &read_heavy),
    ];
    for (label, accounts, theta, ro_fraction, scan, budget, protocols) in sweeps {
        if !json {
            println!("{label}:");
        }
        let mut t = Table::new(&[
            "protocol",
            "threads",
            "commits",
            "aborts/commit",
            "blocked",
            "snapshots",
            "txn/s",
            "speedup",
            "p50",
            "p99",
            "invariant",
        ]);
        for &protocol in protocols {
            let mut base_tps = None;
            for &threads in thread_sweep {
                let cfg = BankConfig {
                    accounts,
                    threads,
                    txns_per_thread: budget / threads,
                    zipf_theta: theta,
                    read_only_fraction: ro_fraction,
                    scan_len: scan,
                    think_sleep_us: THINK_SLEEP_US,
                    max_restarts: 2_000,
                    order_cache: !nocache,
                    ..Default::default()
                };
                let r = protocol.run(&cfg);
                let base = *base_tps.get_or_insert(r.throughput);
                t.row(&[
                    r.protocol.into(),
                    threads.to_string(),
                    r.metrics.commits.to_string(),
                    format!("{:.2}", r.metrics.abort_rate()),
                    r.metrics.blocked_waits.to_string(),
                    r.metrics.snapshot_txns.to_string(),
                    format!("{:.0}", r.throughput),
                    format!("{:.2}x", r.throughput / base.max(1e-9)),
                    r.metrics.latency.p50.to_string(),
                    r.metrics.latency.p99.to_string(),
                    if r.invariant_holds() { "ok" } else { "VIOLATED" }.into(),
                ]);
                assert!(r.invariant_holds(), "{} violated serializability", r.protocol);
                if protocol == Protocol::MvMtSnapshot {
                    // The serving-path contract: read-only transactions
                    // never abort or restart, so every failure budget
                    // spent belongs to the update lane.
                    assert!(
                        r.metrics.snapshot_txns > 0,
                        "multiversion lane never served a snapshot transaction"
                    );
                }
                if protocol == Protocol::MvMtSnapshot {
                    // The sharded scheduler's batched SIMD lane — the MV
                    // chain walk — runs whether or not the order cache
                    // memoizes its verdicts: `--nocache` must not silently
                    // switch it off.
                    assert!(
                        r.metrics.batched_compares > 0,
                        "{} issued no batched SIMD compares",
                        r.protocol
                    );
                }
                runs.push(
                    r.metrics
                        .registry()
                        .label("protocol", r.protocol)
                        .label("sweep", label)
                        .label("threads", threads.to_string())
                        .label("accounts", accounts.to_string())
                        .label("zipf_theta", format!("{theta}"))
                        .label("read_only_fraction", format!("{ro_fraction}"))
                        .label("scan_len", scan.to_string())
                        .label("order_cache", if nocache { "off" } else { "on" })
                        .counter("throughput_txn_per_s", r.throughput as u64),
                );
            }
        }
        if !json {
            print_table(&t);
            println!();
        }
    }
    // Durability lane (`--durable`, ISSUE 9): the uniform transfer mix
    // on MV-MT(k), in-memory versus write-ahead-logged with 1 ms
    // group-commit epochs. The daemon flushes the moment commits pend,
    // so the interval only bounds idle latency. The lane runs a 1 ms
    // think time — the paper's transactions wait on I/O mid-flight, and
    // that wait is exactly what group commit hides the fsync inside.
    // (At a ~100 µs think time on a small host both lanes are CPU-bound
    // and the comparison measures context-switch tax, not logging.)
    // The acceptance point: at the widest matched thread count the
    // durable run must hold ≥ 70% of its in-memory twin — one fsync per
    // *epoch*, amortized over the batch, inside a latency budget the
    // transaction already pays. An extra oversubscribed row shows the
    // headroom: with 3× the committers piling whole batches behind each
    // fsync, the durable engine overtakes the 16-thread in-memory
    // baseline outright. After each run the log is recovered cold and
    // the rebuilt store re-checked for conservation — the recovery path
    // runs inside the benchmark, not only in the test suite.
    if durable {
        let dir = std::env::temp_dir().join(format!("mdts-exp19-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("durability scratch dir");
        if !json {
            println!("durable group commit (4096 accounts, uniform, 1 ms epochs):");
        }
        let mut t = Table::new(&[
            "lane",
            "threads",
            "commits",
            "txn/s",
            "vs memory",
            "wal commits",
            "fsyncs",
            "epochs",
            "invariant",
        ]);
        let bank_cfg = |threads: usize| BankConfig {
            accounts: 4096,
            threads,
            txns_per_thread: total_txns / threads,
            zipf_theta: 0.0,
            read_only_fraction: 0.25,
            scan_len: 4,
            think_sleep_us: DURABLE_THINK_US,
            max_restarts: 2_000,
            order_cache: !nocache,
            ..Default::default()
        };
        // One durable run with the full checklist: the WAL framed every
        // update commit (plus the checkpoint), nothing acknowledged was
        // left un-fsynced, and a cold recovery of the log the lane just
        // wrote conserves the bank total (the checkpoint epoch seeds
        // all accounts, so the recovered store is the whole bank).
        let durable_run =
            |threads: usize| -> (BankReport, mdts_engine::MetricsSnapshot, u64, usize) {
                let cfg = bank_cfg(threads);
                let wal_path = dir.join(format!("wal-{threads}.log"));
                let (db, recovered) = bank_database_durable(
                    K,
                    &cfg,
                    mdts_trace::TraceSink::disabled(),
                    &DurabilityConfig::new(&wal_path),
                )
                .expect("open write-ahead log");
                assert!(
                    recovered.committed.is_empty(),
                    "fresh durability lane recovered stale commits"
                );
                let r = run_bank_mix_db(&db, &cfg);
                assert!(r.invariant_holds(), "durable lane violated conservation");
                assert!(db.sync(), "group-commit daemon halted during the lane");
                let m = db.metrics();
                let epochs = db.gauges().wal_durable_epoch;
                let updates = r.metrics.commits - r.metrics.snapshot_txns;
                assert_eq!(
                    m.wal_commits,
                    updates + 1,
                    "WAL records != update commits + checkpoint"
                );
                assert!(m.wal_fsyncs > 0 && epochs > 0, "no epoch was ever fsynced");
                assert_eq!(m.wal_unacked, 0, "an acknowledged commit was never made durable");
                drop(db);
                let cold = recover::<i64>(&wal_path).expect("recover the lane's log");
                assert!(!cold.report.scan.torn, "clean shutdown left a torn log");
                assert_eq!(cold.store.len(), cfg.accounts as usize);
                let total: i64 = cold.store.iter().map(|(_, v)| *v).sum();
                assert_eq!(
                    total,
                    cfg.accounts as i64 * cfg.initial_balance,
                    "recovered store does not conserve the bank total"
                );
                (r, m, epochs, cold.committed.len())
            };
        let durable_row = |label: String,
                           report: &BankReport,
                           base: f64,
                           wal: Option<(&mdts_engine::MetricsSnapshot, u64)>,
                           t: &mut Table| {
            t.row(&[
                if wal.is_some() { "wal 1ms" } else { "in-memory" }.into(),
                label,
                report.metrics.commits.to_string(),
                format!("{:.0}", report.throughput),
                format!("{:.2}x", report.throughput / base.max(1e-9)),
                wal.map_or_else(|| "-".into(), |(m, _)| m.wal_commits.to_string()),
                wal.map_or_else(|| "-".into(), |(m, _)| m.wal_fsyncs.to_string()),
                wal.map_or_else(|| "-".into(), |(_, e)| e.to_string()),
                if report.invariant_holds() { "ok" } else { "VIOLATED" }.into(),
            ]);
        };
        let wide = *thread_sweep.last().unwrap();
        let mut base_mem = 0.0f64;
        for &threads in thread_sweep {
            let mem = Protocol::MvMtSnapshot.run(&bank_cfg(threads));
            assert!(mem.invariant_holds(), "in-memory baseline violated conservation");
            base_mem = mem.throughput;
            let (r, m, epochs, recovered_commits) = durable_run(threads);
            let ratio = r.throughput / mem.throughput.max(1e-9);
            // The acceptance point (ISSUE 9): at the widest matched
            // thread count, group commit holds ≥ 70% of the in-memory
            // throughput — the per-epoch fsync amortizes over the batch
            // and hides inside the transactions' own I/O wait.
            if !quick && threads == wide {
                assert!(
                    ratio >= 0.70,
                    "group commit at {threads} matched threads held only {:.0}% \
                     of the in-memory throughput",
                    ratio * 100.0
                );
            }
            durable_row(threads.to_string(), &mem, mem.throughput, None, &mut t);
            durable_row(threads.to_string(), &r, mem.throughput, Some((&m, epochs)), &mut t);
            runs.push(
                r.metrics
                    .registry()
                    .label("protocol", r.protocol)
                    .label("sweep", "durable group commit (1 ms epochs)")
                    .label("threads", threads.to_string())
                    .label("accounts", "4096")
                    .counter("throughput_txn_per_s", r.throughput as u64)
                    .counter("memory_throughput_txn_per_s", mem.throughput as u64)
                    .counter("throughput_vs_memory_pct", (ratio * 100.0) as u64)
                    .counter("durable_epochs", epochs)
                    .counter("recovered_commits", recovered_commits as u64),
            );
        }
        // Headroom demonstration: the committers spend most of their
        // life in the 1 ms think wait, so 3× the clients pile whole
        // batches behind each fsync and the durable engine overtakes
        // the in-memory baseline at the widest matched point outright
        // (measured ~1.7–2.3× on the reference host).
        let over = wide * 3;
        let (r, m, epochs, recovered_commits) = durable_run(over);
        let ratio = r.throughput / base_mem.max(1e-9);
        if !quick {
            assert!(
                ratio >= 1.0,
                "oversubscribed group commit at {over} clients fell below the \
                 in-memory {wide}-thread throughput ({:.0}%)",
                ratio * 100.0
            );
        }
        durable_row(format!("{over} (3x)"), &r, base_mem, Some((&m, epochs)), &mut t);
        runs.push(
            r.metrics
                .registry()
                .label("protocol", r.protocol)
                .label("sweep", "durable group commit (1 ms epochs)")
                .label("threads", format!("{over} (oversubscribed 3x)"))
                .label("accounts", "4096")
                .counter("throughput_txn_per_s", r.throughput as u64)
                .counter("memory_throughput_txn_per_s", base_mem as u64)
                .counter("throughput_vs_memory_pct", (ratio * 100.0) as u64)
                .counter("durable_epochs", epochs)
                .counter("recovered_commits", recovered_commits as u64),
        );
        let _ = std::fs::remove_dir_all(&dir);
        if !json {
            print_table(&t);
            println!();
        }
    }
    // Certification pass: the measurement runs above are untraced (a
    // full mdts-trace journal costs real throughput), so re-run the
    // read-heavy mix scaled down with the journal attached and hand the
    // committed prefix to the auditor — every snapshot read must name a
    // version whose stamp the re-derived Definition-6 order places below
    // the reader.
    let audit_cfg = BankConfig {
        accounts: 256,
        threads: 8,
        txns_per_thread: (total_txns / 8).max(50),
        zipf_theta: 0.9,
        read_only_fraction,
        scan_len,
        think_sleep_us: 0,
        max_restarts: 2_000,
        ..Default::default()
    };
    let (audited, verdict) = run_bank_mix_multiversion_audited(K, &audit_cfg);
    assert!(audited.invariant_holds(), "audited MV run violated conservation");
    assert!(
        verdict.violations.is_empty(),
        "MV read-heavy run failed certification: {}",
        verdict.summary()
    );
    assert!(verdict.version_reads > 0, "auditor saw no version reads");
    runs.push(
        audited
            .metrics
            .registry()
            .label("protocol", audited.protocol)
            .label("sweep", "read-heavy certification (traced)")
            .label("threads", audit_cfg.threads.to_string())
            .counter("audited_version_reads", verdict.version_reads as u64)
            .counter("audit_violations", verdict.violations.len() as u64),
    );
    // Telemetry lane (`--telemetry out.jsonl` / `--telemetry-strict`):
    // one more read-heavy MV run with the windowed sampler attached,
    // phase timing on, and the stall detector live. The sampler asserts
    // the recomposition invariant (Σ window deltas == final counters)
    // before the JSONL is written, the run's cumulative counters join the
    // `mdts-metrics/v1` document like any other, and under strict mode
    // any stall-detector firing fails the process.
    if telemetry.requested() {
        let tl_cfg = BankConfig {
            accounts: 256,
            threads: 8,
            txns_per_thread: read_heavy_txns / 8,
            zipf_theta: 0.9,
            read_only_fraction,
            scan_len,
            think_sleep_us: THINK_SLEEP_US,
            max_restarts: 2_000,
            ..Default::default()
        };
        let db = bank_database_multiversion(K, &tl_cfg);
        let interval = Duration::from_millis(if quick { 10 } else { 50 });
        let (r, ts) =
            run_instrumented(&db, &tl_cfg, "exp19", "MV-MT(k) read-heavy telemetry", interval);
        assert!(r.invariant_holds(), "telemetry lane violated conservation");
        runs.push(
            r.metrics
                .registry()
                .label("protocol", r.protocol)
                .label("sweep", "read-heavy telemetry (sampled)")
                .label("threads", tl_cfg.threads.to_string())
                .counter("telemetry_windows", ts.windows.len() as u64)
                .counter("telemetry_alerts", ts.alerts.len() as u64),
        );
        if let Some(path) = &telemetry.out {
            write_timeseries(path, &ts);
            if !json {
                println!(
                    "telemetry: wrote {path} ({} windows, {} alerts)\n",
                    ts.windows.len(),
                    ts.alerts.len()
                );
            }
        }
        if telemetry.strict {
            enforce_strict(&ts);
        }
    }
    if json {
        println!("{}", metrics_document("exp19", &runs).render());
        return;
    }
    println!(
        "auditor: committed prefix of a traced read-heavy MV run certified\n\
         ({} version reads, 0 violations)\n",
        verdict.version_reads
    );
    println!(
        "reading the shape: under uniform load MT(k)'s throughput climbs with the\n\
         thread count — transactions overlap their think/I/O waits because nothing\n\
         in the engine serializes them (the old global-mutex engine held every wait\n\
         under one lock). Under the Zipf hotspot the timestamp protocols keep\n\
         overlapping and pay in aborts, while 2PL holds read locks across the wait\n\
         and pays in blocked time on the hot items. The sharded scheduler adds\n\
         per-access headroom over the serialized protocol mutex that one core\n\
         cannot show in wall-clock figures, but the abort/blocked columns are\n\
         hardware-independent. Latencies are logical ticks, comparable across rows\n\
         of the same sweep. On the read-heavy lane the MV-MT(k) snapshot path\n\
         serves every audit from version chains (the snapshots column) — read-only\n\
         transactions never abort, restart, or block writers, so its abort rate\n\
         tracks the 5% update lane alone while single-version MT(k) pays for scan\n\
         admission at the hotspot. Serialized mvto wins the single-thread race on\n\
         raw per-op simplicity but convoys on its global mutex as threads grow,\n\
         and its unpruned timestamp table and version vectors drift upward over\n\
         the steady-state budget; the sharded snapshot path holds flat latency\n\
         (p99 ticks) and takes the 16-thread row."
    );
}
