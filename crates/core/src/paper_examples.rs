//! Golden tests reproducing the paper's worked examples cell by cell:
//! Example 1 (Fig. 1), Example 2 (Fig. 3 + Table I), Example 3 (Table II),
//! and the starvation case (Fig. 5).

use mdts_model::{ItemId, Log, TxId};
use mdts_trace::event::{Change, SetEdgeOutcome};
use mdts_trace::{TraceBuffer, TraceEvent, TraceSink};
use mdts_vector::TsVec;

use crate::mtk::{HotEncoding, MtOptions, MtScheduler};
use crate::recognize::recognize;

fn ts(s: &MtScheduler, i: u32) -> String {
    s.table().ts_expect(TxId(i)).to_string()
}

/// Example 2 / Table I: dependencies a…e encode exactly the table's values.
#[test]
fn table1_example2_vectors() {
    let journal = TraceBuffer::journal();
    let mut s = MtScheduler::with_k(2);
    s.attach_trace(TraceSink::to(&journal));
    let log = Log::parse("R1[x] R2[y] R3[z] W1[y] W1[z]").unwrap();
    assert!(recognize(&mut s, &log).accepted);

    // Resulting vectors row of Table I.
    assert_eq!(ts(&s, 0), "<0,*>");
    assert_eq!(ts(&s, 1), "<1,2>");
    assert_eq!(ts(&s, 2), "<1,1>");
    assert_eq!(ts(&s, 3), "<1,0>");

    // The dependency edges a–e in order, with their encodings.
    let trace = journal.snapshot();
    let encoded: Vec<(TxId, TxId, &[Change])> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::SetEdge { from, to, outcome: SetEdgeOutcome::Encoded { changes } } => {
                Some((*from, *to, changes.as_slice()))
            }
            _ => None,
        })
        .collect();
    let expect: [(TxId, TxId, &[Change]); 5] = [
        // a: T0 → T1 sets TS(1,1) = 1
        (TxId(0), TxId(1), &[(TxId(1), 0, 1)]),
        // b: T0 → T2
        (TxId(0), TxId(2), &[(TxId(2), 0, 1)]),
        // c: T0 → T3
        (TxId(0), TxId(3), &[(TxId(3), 0, 1)]),
        // d: T2 → T1 via R2[y]–W1[y]: both 2nd elements set from ucount
        (TxId(2), TxId(1), &[(TxId(2), 1, 1), (TxId(1), 1, 2)]),
        // e: T3 → T1 via R3[z]–W1[z]: TS(3,2) = 0 from lcount, to stay
        // distinguishable from TS(2)
        (TxId(3), TxId(1), &[(TxId(3), 1, 0)]),
    ];
    assert_eq!(encoded, expect);

    // "The log L is equivalent to the serial log T3 T2 T1 or T2 T3 T1."
    let order = s.table().serial_order(&[TxId(1), TxId(2), TxId(3)]).unwrap();
    assert_eq!(*order.last().unwrap(), TxId(1));
}

/// Example 2 again, through the trace layer: the captured trace renders
/// as the paper's Table I layout (op rows, vector columns, encoding
/// notes) and the independent auditor re-confirms every decision.
#[test]
fn table1_example2_trace_renders_and_audits() {
    let buffer = TraceBuffer::journal();
    let mut s = MtScheduler::with_k(2);
    s.attach_trace(TraceSink::to(&buffer));
    let log = Log::parse("R1[x] R2[y] R3[z] W1[y] W1[z]").unwrap();
    assert!(recognize(&mut s, &log).accepted);
    for tx in [1, 2, 3] {
        s.commit(TxId(tx));
    }

    let trace = buffer.snapshot();
    let txns = [TxId(0), TxId(1), TxId(2), TxId(3)];
    let table = mdts_trace::render_decision_table(&trace, 2, &txns, &|item| log.item_name(item));
    let lines: Vec<&str> = table.lines().collect();
    // One row per operation of the log, plus header and separator.
    assert_eq!(lines.len(), 2 + log.len(), "{table}");
    // Table I's final row: after W1[z] the vectors read
    // TS(0) = <0,*>, TS(1) = <1,2>, TS(2) = <1,1>, TS(3) = <1,0>.
    let last = lines.last().unwrap();
    assert!(last.starts_with("W1[z]"), "{table}");
    for cell in ["<0,*>", "<1,2>", "<1,1>", "<1,0>"] {
        assert!(last.contains(cell), "missing {cell} in final row:\n{table}");
    }
    // Edge d's double encoding shows up as the W1[y] row's note.
    let w1y = lines.iter().find(|l| l.starts_with("W1[y]")).unwrap();
    assert!(w1y.contains("TS(T2,2):=1"), "{table}");
    assert!(w1y.contains("TS(T1,2):=2"), "{table}");

    let report = mdts_trace::audit(&trace, 2);
    assert!(report.is_clean(), "{}", report.summary());
    assert_eq!(report.committed, 3);
    assert!(report.decisions >= log.len(), "every op decision was audited");
}

/// Example 1 (Section I-A): T2 and T3 share a first element; the 2nd
/// dimension later encodes T2 → T3 with no abort.
#[test]
fn example1_full_run() {
    let mut s = MtScheduler::with_k(2);
    let log = Log::parse("W1[x] W1[y] R3[x] R2[y] R2[y'] W3[y]").unwrap();
    assert!(recognize(&mut s, &log).accepted);
    assert_eq!(ts(&s, 1), "<1,*>");
    assert_eq!(ts(&s, 2), "<2,1>");
    assert_eq!(ts(&s, 3), "<2,2>");
    let order = s.table().serial_order(&[TxId(1), TxId(2), TxId(3)]).unwrap();
    assert_eq!(order, vec![TxId(1), TxId(2), TxId(3)], "serializability order T1 T2 T3");
}

/// Table II / Example 3: the frequently-accessed item x creates a chain
/// T1 = <1,*>, T2 = <2,*>, T3 = <3,*> while the bystander T4 = <1,4> is
/// untouched — the total-order tendency the optimized encoding avoids.
#[test]
fn table2_example3_normal_encoding() {
    // Bystander T4 from earlier activity, with both elements set.
    let mut pre = TsVec::undefined(2);
    pre.define(0, 1);
    pre.define(1, 4);
    let mut s = MtScheduler::with_k(2);
    s.install_vector(TxId(4), pre);
    assert!(s.read(TxId(1), ItemId(0)).is_accept()); // R1[x]
    assert!(s.write(TxId(2), ItemId(0)).is_accept()); // W2[x]
    assert!(s.write(TxId(3), ItemId(0)).is_accept()); // W3[x]
    assert_eq!(ts(&s, 1), "<1,*>");
    assert_eq!(ts(&s, 2), "<2,*>");
    assert_eq!(ts(&s, 3), "<3,*>");
    assert_eq!(ts(&s, 4), "<1,4>", "T4 unchanged, but now totally ordered vs T2, T3");
}

/// Section III-D-5: the optimized right-end encoding keeps T2 unordered
/// with respect to vectors that shared T1's prefix.
#[test]
fn optimized_encoding_preserves_partial_order() {
    let opts = MtOptions { hot_encoding: Some(HotEncoding { threshold: 1 }), ..MtOptions::new(4) };
    let mut s = MtScheduler::new(opts);
    let mut t1 = TsVec::undefined(4);
    t1.define(0, 1);
    t1.define(1, 3);
    s.install_vector(TxId(1), t1);
    // A bystander that shares the prefix <1,3,…>.
    let mut t9 = TsVec::undefined(4);
    t9.define(0, 1);
    t9.define(1, 3);
    s.install_vector(TxId(9), t9);
    s.table_mut().set_wt(ItemId(0), TxId(1));

    assert!(s.write(TxId(2), ItemId(0)).is_accept());
    assert_eq!(ts(&s, 1), "<1,3,1,*>");
    assert_eq!(ts(&s, 2), "<1,3,2,*>");
    // T9 and T2 remain unordered — with the normal encoding T2 = <2,*,*,*>
    // would have been totally ordered after T9 = <1,3,*,*>.
    assert!(matches!(
        s.table().compare(TxId(9), TxId(2)),
        mdts_vector::CmpResult::LeftUndefined { at: 2 }
    ));
}

/// Fig. 5 starvation: without the fix the restart re-derives the same
/// timestamps and aborts again, forever; with the fix it completes.
#[test]
fn starvation_loop_and_fix() {
    let log = Log::parse("W1[x] W2[x] R3[y] W3[x]").unwrap();

    // Without the fix: three identical abort cycles.
    let mut s = MtScheduler::with_k(2);
    for (pos, op) in log.ops().iter().enumerate().take(3) {
        assert!(s.process(op).is_accept(), "op {pos}");
    }
    for _round in 0..3 {
        assert!(!s.process(log.op(3)).is_accept());
        s.abort(TxId(3));
        s.begin_restarted(TxId(3), TxId(3));
        assert!(s.process(log.op(2)).is_accept(), "re-read of y");
    }

    // With the fix: one abort, then done.
    let mut s = MtScheduler::new(MtOptions { starvation_flush: true, ..MtOptions::new(2) });
    for op in log.ops().iter().take(3) {
        assert!(s.process(op).is_accept());
    }
    assert!(!s.process(log.op(3)).is_accept());
    s.abort(TxId(3));
    s.begin_restarted(TxId(3), TxId(3));
    assert_eq!(ts(&s, 3), "<3,*>", "TS(3) flushed to <TS(2,1)+1, *>");
    assert!(s.process(log.op(2)).is_accept());
    assert!(s.process(log.op(3)).is_accept(), "restart runs to completion");
}
