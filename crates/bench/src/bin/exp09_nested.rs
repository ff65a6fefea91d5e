//! exp09 — Figs. 11–12 + Table III: MT(k₁, k₂) on Example 4.
//!
//! Regenerates Table III (group and transaction vectors as the
//! dependencies a–d are established), demonstrates group antisymmetry,
//! and sweeps acceptance against partition granularity.

use mdts_bench::{print_table, Table};
use mdts_core::{recognize, MtOptions, MtScheduler};
use mdts_model::{ItemId, Log, MultiStepConfig, TxId};
use mdts_nested::{GroupId, NestedScheduler, Partition};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn example4_partition() -> Partition {
    Partition::from_pairs([(TxId(1), GroupId(1)), (TxId(2), GroupId(1)), (TxId(3), GroupId(2))])
}

fn main() {
    println!("== exp09: Figs. 11–12 / Table III — MT(k1,k2) on Example 4 ==\n");
    println!("G1 = {{T1, T2}}, G2 = {{T3}}, k1 = k2 = 2");
    let log = Log::parse("R1[x] R2[y] W2[x] R3[x]").unwrap();
    println!("log: {log}\n");

    let mut s = NestedScheduler::new(2, 2, example4_partition());
    let mut t = Table::new(&["op", "GS(0)", "GS(1)", "GS(2)", "TS(1)", "TS(2)", "TS(3)"]);
    let show = |s: &NestedScheduler| -> Vec<String> {
        let g = |g: u32| {
            s.group_ts(GroupId(g)).map(|v| v.to_string()).unwrap_or_else(|| "<*,*>".into())
        };
        let x = |t: u32| s.tx_ts(TxId(t)).map(|v| v.to_string()).unwrap_or_else(|| "<*,*>".into());
        vec![g(0), g(1), g(2), x(1), x(2), x(3)]
    };
    for op in log.ops() {
        assert!(s.process(op).is_accept());
        let mut cells = vec![op.to_string()];
        cells.extend(show(&s));
        t.row(&cells);
    }
    print_table(&t);

    // Paper's resulting vectors: GS(1) = <1,*>, GS(2) = <2,*>,
    // TS(1) = <1,*>, TS(2) = <2,*>, TS(3) untouched.
    assert_eq!(s.group_ts(GroupId(1)).unwrap().to_string(), "<1,*>");
    assert_eq!(s.group_ts(GroupId(2)).unwrap().to_string(), "<2,*>");
    assert_eq!(s.tx_ts(TxId(1)).unwrap().to_string(), "<1,*>");
    assert_eq!(s.tx_ts(TxId(2)).unwrap().to_string(), "<2,*>");
    println!("\nTable III reproduced (edge b set nothing: G0 → G1 was already encoded).");

    // "If in the future a new dependency T3 → T2 is created, it is
    // disallowed since it also implies G2 → G1."
    assert!(s.read(TxId(3), ItemId(9)).is_accept());
    let d = s.write(TxId(2), ItemId(9));
    println!(
        "\nlate T3 → T2 dependency: {} (group antisymmetry)",
        if d.is_accept() { "ACCEPTED (violation!)" } else { "rejected" }
    );
    assert!(!d.is_accept());

    // Acceptance vs partition granularity on random workloads.
    println!("\nacceptance vs partition granularity (6 txns, 8 items, 4000 logs):");
    let trials = 4000u64;
    let mut t = Table::new(&["partitioning", "accepted"]);
    let cfg = MultiStepConfig { n_txns: 6, n_items: 8, max_ops: 3, ..Default::default() };
    type Run = Box<dyn Fn(&Log) -> bool>;
    let runs: Vec<(&str, Run)> = vec![
        (
            "flat MT(3) (reference)",
            Box::new(|log: &Log| {
                let mut s = MtScheduler::new(MtOptions::for_composite(3));
                recognize(&mut s, log).accepted
            }),
        ),
        (
            "one group per tx (≡ MT(k2) over groups)",
            Box::new(|log: &Log| {
                let p = Partition::from_pairs(
                    log.transactions().into_iter().map(|t| (t, GroupId(t.0))),
                );
                recognize(&mut NestedScheduler::new(2, 3, p), log).accepted
            }),
        ),
        (
            "two groups (parity split)",
            Box::new(|log: &Log| {
                let p = Partition::from_pairs(
                    log.transactions().into_iter().map(|t| (t, GroupId(1 + t.0 % 2))),
                );
                recognize(&mut NestedScheduler::new(3, 3, p), log).accepted
            }),
        ),
        (
            "single group",
            Box::new(|log: &Log| {
                let p =
                    Partition::from_pairs(log.transactions().into_iter().map(|t| (t, GroupId(1))));
                recognize(&mut NestedScheduler::new(3, 2, p), log).accepted
            }),
        ),
    ];
    for (name, f) in runs {
        let mut ok = 0u64;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            let log = cfg.generate(&mut rng);
            if f(&log) {
                ok += 1;
            }
        }
        t.row(&[name.into(), format!("{:.1}%", ok as f64 / trials as f64 * 100.0)]);
    }
    print_table(&t);
    println!(
        "\nobserved shape: singleton groups equal flat MT(k) exactly (the group level\n\
         is a renaming); a two-group split accepts least, because every cross-group\n\
         pair is forced through the low-dimensional antisymmetric group order; a\n\
         single group accepts slightly MORE than flat MT(k) — the T0 bootstrap edges\n\
         are absorbed by the group table (exactly as in Table III), leaving all k1\n\
         transaction columns free for real dependencies."
    );
}
