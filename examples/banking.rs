//! A concurrent banking workload across every protocol in the engine.
//!
//! Forty accounts, four client threads moving money (plus read-only
//! audits); the total balance is a serializability invariant. The run
//! prints commits, aborts, blocked waits and throughput per protocol —
//! the engine-level counterpart of the paper's degree-of-concurrency
//! argument.
//!
//! Run with: `cargo run --release --example banking`

use mdts::engine::{
    run_bank_mix, BankConfig, BasicToCc, CompositeCc, IntervalCc, MtCc, OccCc, Protocol,
    ShardedMtCc, TwoPlCc,
};

fn protocols() -> Vec<Protocol> {
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

fn main() {
    let cfg = BankConfig {
        accounts: 40,
        threads: 4,
        txns_per_thread: 500,
        zipf_theta: 0.9,
        read_only_fraction: 0.25,
        ..Default::default()
    };
    println!(
        "banking: {} accounts, {} threads x {} txns, Zipf({}) hot accounts\n",
        cfg.accounts, cfg.threads, cfg.txns_per_thread, cfg.zipf_theta
    );
    println!(
        "{:<14} {:>8} {:>8} {:>9} {:>9} {:>12} {:>10}",
        "protocol", "commits", "aborts", "blocked", "ignored", "txn/s", "invariant"
    );
    for cc in protocols() {
        let r = run_bank_mix(cc, &cfg);
        println!(
            "{:<14} {:>8} {:>8} {:>9} {:>9} {:>12.0} {:>10}",
            r.protocol,
            r.metrics.commits,
            r.metrics.aborts,
            r.metrics.blocked_waits,
            r.metrics.ignored_writes,
            r.throughput,
            if r.invariant_holds() { "ok" } else { "VIOLATED" },
        );
        assert!(r.invariant_holds(), "{}: serializability violated!", r.protocol);
    }
    println!("\nall protocols conserved the total balance.");
}
