//! DMT(k): the decentralized protocol over simulated sites (Section V-B).
//!
//! The same workload is scheduled over 1, 2, 4 and 8 sites; the run
//! reports acceptance, message counts, the effect of the lock-retention
//! optimization, and the size of the per-operation lock sets (the paper's
//! "at most three or four objects").
//!
//! Run with: `cargo run --release --example distributed`

use mdts::core::recognize;
use mdts::dist::{DmtConfig, DmtScheduler};
use mdts::model::MultiStepConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = MultiStepConfig { n_txns: 12, n_items: 32, max_ops: 4, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(2026);
    let log = cfg.generate(&mut rng);
    println!("workload: {} transactions, {} operations\n", log.transactions().len(), log.len());

    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "sites", "accepted", "messages", "fetches", "retained", "locks/op", "syncs"
    );
    for n_sites in [1u32, 2, 4, 8] {
        for retain in [false, true] {
            let mut dmt =
                DmtScheduler::new(DmtConfig { retain_locks: retain, ..DmtConfig::new(3, n_sites) });
            let accepted = recognize(&mut dmt, &log).accepted;
            let s = dmt.stats();
            println!(
                "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}{}",
                n_sites,
                if accepted { "yes" } else { "no" },
                s.messages,
                s.remote_fetches,
                s.retained,
                s.max_locks_per_op,
                s.syncs,
                if retain { "  (lock retention on)" } else { "" },
            );
        }
    }
    println!(
        "\nOne site sends no data messages at all; message volume grows with \
         the number of sites\nand shrinks again with the paper's lock-retention \
         optimization (Section V-B-2)."
    );
}
