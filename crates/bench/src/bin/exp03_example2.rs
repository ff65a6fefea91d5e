//! exp03 — Fig. 3 + Table I: Example 2 under MT(2).
//!
//! Regenerates Table I row by row: the dependency edges a–e in the order
//! they are established, and the vector cells each one sets. The expected
//! values (from the paper) are asserted, so this binary doubles as a
//! golden test.

use mdts_bench::{print_table, replay_with_snapshots, Table};
use mdts_core::MtScheduler;
use mdts_model::{Log, TxId};
use mdts_trace::event::SetEdgeOutcome;
use mdts_trace::{TraceBuffer, TraceEvent, TraceSink};

fn main() {
    println!("== exp03: Fig. 3 / Table I — Example 2 ==\n");
    let log = Log::parse("R1[x] R2[y] R3[z] W1[y] W1[z]").unwrap();
    println!("log L = {log}  (k = 2)\n");

    let txns = [TxId(0), TxId(1), TxId(2), TxId(3)];
    let journal = TraceBuffer::journal();
    let mut s = MtScheduler::with_k(2);
    s.attach_trace(TraceSink::to(&journal));
    let snaps = replay_with_snapshots(&mut s, &log, &txns);

    let mut table = Table::new(&["op", "TS(0)", "TS(1)", "TS(2)", "TS(3)"]);
    table.row(&["(init)".into(), "<0,*>".into(), "<*,*>".into(), "<*,*>".into(), "<*,*>".into()]);
    for (op, row, ok) in &snaps {
        assert!(ok);
        let mut cells = vec![op.clone()];
        cells.extend(row.clone());
        table.row(&cells);
    }
    print_table(&table);

    println!("\ndependency edges in establishment order (Table I's a–e):");
    for ev in journal.snapshot().events() {
        if let TraceEvent::SetEdge { from, to, outcome: SetEdgeOutcome::Encoded { changes } } = ev {
            let cells: Vec<String> = changes
                .iter()
                .map(|(t, col, v)| format!("TS({},{}) := {}", t.0, col + 1, v))
                .collect();
            println!("  T{} → T{}: {}", from.0, to.0, cells.join(", "));
        }
    }

    // Paper's resulting vectors.
    assert_eq!(s.table().ts_expect(TxId(1)).to_string(), "<1,2>");
    assert_eq!(s.table().ts_expect(TxId(2)).to_string(), "<1,1>");
    assert_eq!(s.table().ts_expect(TxId(3)).to_string(), "<1,0>");
    let order = s.table().serial_order(&[TxId(1), TxId(2), TxId(3)]).unwrap();
    println!(
        "\nserialization order: {} (paper: T3 T2 T1 or T2 T3 T1)",
        order.iter().map(|t| format!("T{}", t.0)).collect::<Vec<_>>().join(" ")
    );
    assert_eq!(*order.last().unwrap(), TxId(1));
    println!("\nTable I reproduced exactly.");
}
