//! exp14 — Section VI-B: guidelines to choose the vector size.
//!
//! Two measurements behind the paper's guidelines:
//!
//! * (a)/(c) acceptance rate vs k under varying conflict levels and
//!   transaction lengths — more conflict and longer transactions benefit
//!   from larger k, saturating at 2q−1;
//! * engine-level abort rate vs k on the bank mix — the live counterpart.

use mdts_bench::{print_table, Table};
use mdts_core::to_k;
use mdts_engine::{run_bank_mix, BankConfig, MtCc};
use mdts_model::{MultiStepConfig, WorkloadKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("== exp14: Section VI-B — choosing the vector size ==\n");

    // Recognition-level sweep: acceptance vs k across workloads.
    let trials = 3000u64;
    println!("acceptance rate vs k ({} random logs each):", trials);
    let mut t = Table::new(&["workload", "q", "k=1", "k=2", "k=3", "k=2q-1", "k=2q+1"]);
    for (kind, q) in [
        (WorkloadKind::Uniform, 3usize),
        (WorkloadKind::Hotspot, 3),
        (WorkloadKind::WriteHeavy, 3),
        (WorkloadKind::LongLived, 10),
    ] {
        let mut cfg: MultiStepConfig = kind.config(5, 12);
        cfg.min_ops = q;
        cfg.max_ops = q;
        let rate = |k: usize| {
            let mut ok = 0u64;
            for seed in 0..trials {
                let mut rng = StdRng::seed_from_u64(seed);
                let log = cfg.generate(&mut rng);
                if to_k(&log, k) {
                    ok += 1;
                }
            }
            format!("{:.1}%", ok as f64 / trials as f64 * 100.0)
        };
        t.row(&[
            kind.name().into(),
            q.to_string(),
            rate(1),
            rate(2),
            rate(3),
            rate(2 * q - 1),
            rate(2 * q + 1),
        ]);
    }
    print_table(&t);
    println!(
        "\nexpected shape: acceptance is non-trivial already at small k, grows with k,\n\
         and k = 2q-1 equals k = 2q+1 (Theorem 3); long-lived transactions gain the most.\n"
    );

    // Engine-level: abort rate vs k under contention.
    println!("engine abort rate vs k (bank mix, 12 hot accounts, 4 threads):");
    let mut t = Table::new(&["k", "commits", "aborts", "aborts/commit"]);
    for k in [1usize, 2, 3, 5, 9] {
        let cfg = BankConfig {
            accounts: 12,
            threads: 4,
            txns_per_thread: 250,
            zipf_theta: 1.0,
            think: 2_000,
            max_restarts: 500,
            ..Default::default()
        };
        let r = run_bank_mix(MtCc::new(k), &cfg);
        assert!(r.invariant_holds(), "k = {k}: serializability violated");
        t.row(&[
            k.to_string(),
            r.metrics.commits.to_string(),
            r.metrics.aborts.to_string(),
            format!("{:.2}", r.metrics.abort_rate()),
        ]);
    }
    print_table(&t);
    println!(
        "\nobserved engine shape (an honest reproduction finding): k = 1 assigns every\n\
         element from the global counters, which are monotone — so a long-running MT(1)\n\
         engine behaves like fresh-arrival TO and rarely aborts. k >= 2 exploits *equal*\n\
         interior elements for concurrency (the paper's Example 1), but the exact\n\
         `TS(j,m)+1` interior values age across item chains in a long-running engine,\n\
         which raises the abort rate; the starvation flush keeps restarts progressing.\n\
         The paper's degree-of-concurrency claim concerns *log acceptance* (table above),\n\
         where larger k strictly helps and saturates at 2q-1 exactly as Theorem 3 says."
    );
}
