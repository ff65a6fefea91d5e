//! exp17 — engine-level evaluation: throughput and abort behavior of
//! MT(k) against 2PL, TO(1), OCC, intervals and MT(k⁺) across contention
//! levels, at the paper's "multiprogramming level of 8–10" (III-D-6a).
//!
//! `--json` replaces the human tables with one `mdts-metrics/v1` document
//! on stdout: full counters, abort-reason and shard breakdowns, and the
//! complete latency histogram per run. `--telemetry out.jsonl` adds one
//! sampler-instrumented run of the read-heavy MV-MT(3) serving mix and
//! writes its `mdts-timeseries/v1` window stream (see DESIGN.md §6.1).
//! `--telemetry-strict` fails the process when the online stall detector
//! fired during that run, or when the run formed too few windows for the
//! detector to judge any.

use std::time::Duration;

use mdts_bench::{json_mode, metrics_document, print_table, Table};
use mdts_engine::{
    bank_database_multiversion, run_bank_mix, run_bank_mix_db, BankConfig, BasicToCc, CompositeCc,
    ConcurrentCc, IntervalCc, MtCc, OccCc, TwoPlCc,
};
use mdts_telemetry::stall::{TRAILING_WINDOWS, WARMUP_WINDOWS};
use mdts_telemetry::{Sampler, SamplerConfig};

/// The telemetry lane's window length.
const TELEMETRY_INTERVAL: Duration = Duration::from_millis(10);
/// The telemetry lane's sampled transactions per client: 28–36 windows on
/// a 2-vCPU host, against the 13 the strict gate asks for. The lane
/// samples from the database's first transaction: the row table's index
/// chunks reserve 4 bytes per id, backed only as ids are begun, and its
/// arena grows by the rows live at once, so no chunk build is large
/// enough to stall a window.
const TELEMETRY_TXNS_PER_THREAD: usize = 24_000;

fn protocols() -> Vec<Box<dyn ConcurrentCc>> {
    vec![
        Box::new(MtCc::new(3)),
        Box::new(CompositeCc::new(3)),
        Box::new(TwoPlCc::new()),
        Box::new(BasicToCc::new(false)),
        Box::new(BasicToCc::new(true)),
        Box::new(OccCc::new()),
        Box::new(IntervalCc::new()),
    ]
}

fn main() {
    let json = json_mode();
    let mut runs = Vec::new();
    if !json {
        println!("== exp17: engine throughput & abort behavior ==\n");
    }
    for (label, accounts, theta) in [
        ("low contention (256 accounts, uniform)", 256u32, 0.0f64),
        ("medium contention (64 accounts, Zipf 0.8)", 64, 0.8),
        ("high contention (16 accounts, Zipf 1.1)", 16, 1.1),
    ] {
        if !json {
            println!("{label}:");
        }
        let cfg = BankConfig {
            accounts,
            threads: 8,
            txns_per_thread: 400,
            zipf_theta: theta,
            read_only_fraction: 0.25,
            think: 2_000,
            max_restarts: 2000,
            ..Default::default()
        };
        let mut t = Table::new(&[
            "protocol",
            "commits",
            "aborts",
            "aborts/commit",
            "blocked",
            "ignored",
            "txn/s",
            "p50",
            "p95",
            "p99",
            "invariant",
        ]);
        for cc in protocols() {
            let r = run_bank_mix(cc, &cfg);
            t.row(&[
                r.protocol.into(),
                r.metrics.commits.to_string(),
                r.metrics.aborts.to_string(),
                format!("{:.2}", r.metrics.abort_rate()),
                r.metrics.blocked_waits.to_string(),
                r.metrics.ignored_writes.to_string(),
                format!("{:.0}", r.throughput),
                r.metrics.latency.p50.to_string(),
                r.metrics.latency.p95.to_string(),
                r.metrics.latency.p99.to_string(),
                if r.invariant_holds() { "ok" } else { "VIOLATED" }.into(),
            ]);
            assert!(r.invariant_holds(), "{} violated serializability", r.protocol);
            runs.push(
                r.metrics
                    .registry()
                    .label("protocol", r.protocol)
                    .label("contention", label)
                    .label("threads", cfg.threads.to_string())
                    .label("accounts", accounts.to_string())
                    .label("zipf_theta", format!("{theta}"))
                    .counter("throughput_txn_per_s", r.throughput as u64),
            );
        }
        if !json {
            print_table(&t);
            println!();
        }
    }
    // Telemetry lane (`--telemetry out.jsonl` / `--telemetry-strict`):
    // the read-heavy MV-MT(3) serving mix — 95 % snapshot scans beside
    // 5 % transfers on a Zipf hotspot, so the writer-starvation rule sees
    // snapshot traffic — with the windowed sampler attached, phase timing
    // on and the stall detector live. Its cumulative counters join the
    // `mdts-metrics/v1` document and the window stream goes to the file.
    let telemetry_out = std::env::args().skip_while(|a| a != "--telemetry").nth(1);
    let strict = std::env::args().any(|a| a == "--telemetry-strict");
    if telemetry_out.is_some() || strict {
        let tl_cfg = BankConfig {
            accounts: 256,
            threads: 8,
            txns_per_thread: TELEMETRY_TXNS_PER_THREAD,
            zipf_theta: 0.9,
            read_only_fraction: 0.95,
            scan_len: 8,
            max_restarts: 2000,
            ..Default::default()
        };
        let db = bank_database_multiversion(3, &tl_cfg);
        db.set_phase_timing(true);
        let sampler = Sampler::start(
            &db,
            SamplerConfig {
                interval: TELEMETRY_INTERVAL,
                experiment: "exp17".into(),
                label: "MV-MT(3) read-heavy telemetry".into(),
            },
        );
        let r = run_bank_mix_db(&db, &tl_cfg);
        let ts = sampler.stop();
        ts.verify_sum().expect("telemetry window deltas must sum to the final counters");
        assert_eq!(
            ts.final_snapshot.commits, r.metrics.commits,
            "sampler's final snapshot must agree with the report's counters"
        );
        assert!(r.invariant_holds(), "telemetry lane violated conservation");
        assert!(r.metrics.snapshot_txns > 0, "telemetry lane served no snapshot transaction");
        runs.push(
            r.metrics
                .registry()
                .label("protocol", r.protocol)
                .label("contention", "read-heavy telemetry (sampled)")
                .label("threads", tl_cfg.threads.to_string())
                .label("accounts", tl_cfg.accounts.to_string())
                .label("zipf_theta", format!("{}", tl_cfg.zipf_theta))
                .counter("telemetry_windows", ts.windows.len() as u64)
                .counter("telemetry_alerts", ts.alerts.len() as u64),
        );
        if let Some(path) = &telemetry_out {
            std::fs::write(path, ts.to_jsonl()).unwrap_or_else(|e| panic!("write {path}: {e}"));
            if !json {
                println!(
                    "telemetry: wrote {path} ({} windows, {} alerts)\n",
                    ts.windows.len(),
                    ts.alerts.len()
                );
            }
        }
        if strict {
            // The detector judges nothing during its warm-up and never the
            // final partial window. Without room for a full trailing
            // baseline on top of those, the gate passes on next to nothing.
            let needed = WARMUP_WINDOWS + TRAILING_WINDOWS + 1;
            for a in &ts.alerts {
                eprintln!(
                    "telemetry-strict: {} fired on window {} (value {:.0}, trailing mean {:.0})",
                    a.rule.name(),
                    a.window,
                    a.value,
                    a.baseline,
                );
            }
            if ts.windows.len() < needed {
                eprintln!(
                    "telemetry-strict: {} windows formed, the stall detector needs {needed}",
                    ts.windows.len()
                );
            }
            if !ts.alerts.is_empty() || ts.windows.len() < needed {
                std::process::exit(1);
            }
        }
    }
    if json {
        println!("{}", metrics_document("exp17", &runs).render());
        return;
    }
    println!(
        "reading the shape: 2PL pays in blocked waits, the optimistic and timestamp\n\
         protocols pay in aborts; MT(k) trades a higher abort count (its dynamically\n\
         pinned element values age — see EXPERIMENTS.md) for never blocking, and the\n\
         starvation flush keeps every restart making progress. p50/p95/p99 are\n\
         commit latencies in logical ticks (granted accesses engine-wide between a\n\
         transaction's first begin and its commit) — restart-heavy protocols show\n\
         their starvation tail in p99, with no wall-clock noise."
    );
}
