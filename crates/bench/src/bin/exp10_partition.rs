//! exp10 — Table IV + Examples 5–6: partition rules for MT(k₁, k₂).
//!
//! Reconstructs Table IV's read/write-set partition (`G₁` reads {x,z}
//! writes {y,z}; `G₂` reads {y,w} writes {x,w}), shows the rule grouping
//! transactions automatically, and contrasts with the by-site rule of
//! Example 5.

use mdts_bench::{print_table, Table};
use mdts_core::recognize;
use mdts_model::{Log, TxId};
use mdts_nested::{partition_by_rw_sets, partition_by_site, GroupId, NestedScheduler};

fn main() {
    println!("== exp10: Table IV / Examples 5–6 — partition rules ==\n");

    // Table IV's two shapes: G1 = read {x,z} write {y,z};
    //                        G2 = read {y,w} write {x,w}.
    // Two transactions of each shape:
    let log =
        Log::parse("R1[x,z] W1[y,z] R2[y,w] W2[x,w] R3[x,z] W3[y,z] R4[y,w] W4[x,w]").unwrap();
    println!("workload: {log}\n");

    let partition = partition_by_rw_sets(&log);
    let mut t = Table::new(&["tx", "read set", "write set", "group"]);
    for s in log.tx_summaries() {
        t.row(&[
            format!("T{}", s.tx.0),
            format!("{:?}", s.read_set.iter().map(|i| log.item_name(*i)).collect::<Vec<_>>()),
            format!("{:?}", s.write_set.iter().map(|i| log.item_name(*i)).collect::<Vec<_>>()),
            format!("G{}", partition.group_of(s.tx).0),
        ]);
    }
    print_table(&t);
    assert_eq!(partition.group_of(TxId(1)), partition.group_of(TxId(3)));
    assert_eq!(partition.group_of(TxId(2)), partition.group_of(TxId(4)));
    assert_ne!(partition.group_of(TxId(1)), partition.group_of(TxId(2)));
    println!("\nidentical read/write sets → same group, as Table IV prescribes.");

    // Run the log under the derived partition; the scheduler enforces the
    // antisymmetric inter-group order the paper says is "sometimes
    // semantically required".
    let mut sched = NestedScheduler::new(2, 2, partition);
    match recognize(&mut sched, &log).rejected_at {
        None => {
            println!("\nthe workload itself is accepted; group order fixed as:");
            for g in 1..=2u32 {
                if let Some(ts) = sched.group_ts(GroupId(g)) {
                    println!("  GS({g}) = {ts}");
                }
            }
        }
        Some(pos) => {
            println!("\nrejected at {pos}: the interleaving crossed the group order twice")
        }
    }

    // Example 5: by initiation site.
    println!("\nExample 5 — by-site partition (txs 1,3 at site 0; txs 2,4 at site 1):");
    let p = partition_by_site([(TxId(1), 0), (TxId(3), 0), (TxId(2), 1), (TxId(4), 1)]);
    let mut t = Table::new(&["tx", "group"]);
    for tx in [1u32, 2, 3, 4] {
        t.row(&[format!("T{tx}"), format!("G{}", p.group_of(TxId(tx)).0)]);
    }
    print_table(&t);
    assert_eq!(p.group_of(TxId(1)), p.group_of(TxId(3)));
    assert_ne!(p.group_of(TxId(1)), p.group_of(TxId(2)));
}
