//! Nested transactions with MT(k₁, k₂) (Section V-A).
//!
//! A document-processing workflow: two departments (groups) whose internal
//! steps run concurrently. Intra-department conflicts are ordered by
//! transaction timestamps; cross-department conflicts by group timestamps
//! only — and once Editing precedes Publishing, no later conflict may
//! invert the departments.
//!
//! Run with: `cargo run --example nested_workflow`

use mdts::core::recognize;
use mdts::model::{ItemId, Log, TxId};
use mdts::nested::{GroupId, NestedScheduler, Partition};

fn main() {
    // Departments: Editing = {T1, T2}, Publishing = {T3, T4}.
    let partition = Partition::from_pairs([
        (TxId(1), GroupId(1)),
        (TxId(2), GroupId(1)),
        (TxId(3), GroupId(2)),
        (TxId(4), GroupId(2)),
    ]);
    let mut sched = NestedScheduler::new(2, 2, partition);

    // draft, toc, layout, index
    let log = Log::parse("R1[draft] R2[toc] W2[draft] R3[draft] W3[layout] R4[layout] W4[index]")
        .expect("valid notation");
    println!("workflow log: {log}\n");

    match recognize(&mut sched, &log).rejected_at {
        None => println!("accepted: departments serialize cleanly"),
        Some(pos) => println!("rejected at {pos}"),
    }

    println!("\ngroup timestamps:");
    for g in [GroupId(0), GroupId(1), GroupId(2)] {
        if let Some(ts) = sched.group_ts(g) {
            println!("  GS({}) = {ts}", g.0);
        }
    }
    println!("transaction timestamps (within groups):");
    for t in 1..=4u32 {
        if let Some(ts) = sched.tx_ts(TxId(t)) {
            println!("  TS({t}) = {ts}");
        }
    }

    // Editing already precedes Publishing (T2's draft flowed into T3's
    // layout). A late attempt to push publishing output back into editing
    // would invert the groups — the scheduler must refuse it.
    println!("\nlate reverse flow: T4 reads 'notes', then T1 (Editing) rewrites it…");
    assert!(sched.read(TxId(4), ItemId(9)).is_accept());
    let d = sched.write(TxId(1), ItemId(9));
    println!(
        "  W1[notes] → {}",
        if d.is_accept() {
            "accepted (?!)".to_string()
        } else {
            "rejected: would imply Publishing → Editing".to_string()
        }
    );
    assert!(!d.is_accept(), "group antisymmetry must hold");
}
