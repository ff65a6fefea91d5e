//! Pretty-printer reproducing the paper's Table I–IV layout from a
//! captured trace: one row per scheduled operation, one column per
//! transaction's timestamp vector, and a note column showing the `Set`
//! encodings the operation triggered.

use std::collections::HashMap;

use mdts_model::{ItemId, TxId};
use mdts_vector::TsVec;

use crate::event::{AccessOutcome, SetEdgeOutcome, TraceEvent};
use crate::sink::Trace;

/// Replays `trace` and renders the Table-I-style decision table.
///
/// * `k` — vector dimension;
/// * `txns` — the transactions to show as columns, in order (include
///   `TxId::VIRTUAL` to show the virtual transaction `T0`);
/// * `item_name` — maps items to display names (`x`, `y`, …); use
///   `Log::item_name` when the log carries names.
pub fn render_decision_table(
    trace: &Trace,
    k: usize,
    txns: &[TxId],
    item_name: &dyn Fn(ItemId) -> String,
) -> String {
    let mut vectors: HashMap<u32, TsVec> = HashMap::new();
    let vector = |vectors: &mut HashMap<u32, TsVec>, tx: TxId| {
        vectors
            .entry(tx.0)
            .or_insert_with(|| if tx.is_virtual() { TsVec::origin(k) } else { TsVec::undefined(k) })
            .clone()
    };
    for &tx in txns {
        vector(&mut vectors, tx);
    }

    let mut header = vec!["op".to_string()];
    header.extend(txns.iter().map(|tx| format!("TS(T{})", tx.0)));
    header.push("note".to_string());
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut notes: Vec<String> = Vec::new();

    for event in trace.events() {
        match event {
            TraceEvent::SetEdge { from, to, outcome } => match outcome {
                SetEdgeOutcome::Encoded { changes } => {
                    let mut parts = Vec::new();
                    for &(tx, element, value) in changes.iter() {
                        let v = vectors.entry(tx.0).or_insert_with(|| TsVec::undefined(k));
                        if v.get(element).is_none() {
                            v.define(element, value);
                        }
                        // The paper indexes elements from 1.
                        parts.push(format!("TS(T{},{}):={value}", tx.0, element + 1));
                    }
                    notes.push(format!("Set(T{},T{}): {}", from.0, to.0, parts.join(" ")));
                }
                SetEdgeOutcome::AlreadyOrdered => {}
                SetEdgeOutcome::Refused { at } => {
                    notes.push(format!("Set(T{},T{}) refused at {}", from.0, to.0, at + 1));
                }
            },
            TraceEvent::Restart { tx, hint, .. } => {
                let mut v = TsVec::undefined(k);
                if let Some(h) = hint {
                    v.define(0, *h);
                }
                vectors.insert(tx.0, v);
                notes.push(format!("restart T{}", tx.0));
            }
            TraceEvent::Access { tx, item, kind, outcome, .. } => {
                let marker = match outcome {
                    AccessOutcome::Granted => "",
                    AccessOutcome::GrantedInvisible => " (invisible)",
                    AccessOutcome::GrantedIgnored => " (ignored)",
                    AccessOutcome::Rejected { .. } => " (rejected)",
                };
                let mut row =
                    vec![format!("{}{}[{}]{marker}", kind.letter(), tx.0, item_name(*item))];
                row.extend(txns.iter().map(|&t| vector(&mut vectors, t).to_string()));
                row.push(notes.join("; "));
                notes.clear();
                rows.push(row);
            }
            _ => {}
        }
    }

    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let render_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let mut out = String::new();
    out.push_str(&render_row(&header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in &rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use mdts_model::OpKind;

    use super::*;
    use crate::event::TraceRecord;

    #[test]
    fn renders_rows_with_vector_columns_and_notes() {
        // A hand-built two-op trace: R1[x] orders T1 after T0, then W2[x]
        // orders T2 after T1 with a two-element encode.
        let records = vec![
            TraceRecord {
                seq: 0,
                event: TraceEvent::SetEdge {
                    from: TxId::VIRTUAL,
                    to: TxId(1),
                    outcome: SetEdgeOutcome::Encoded { changes: vec![(TxId(1), 0, 1)].into() },
                },
            },
            TraceRecord {
                seq: 1,
                event: TraceEvent::Access {
                    tx: TxId(1),
                    item: ItemId(0),
                    kind: OpKind::Read,
                    rt: TxId::VIRTUAL,
                    wt: TxId::VIRTUAL,
                    outcome: AccessOutcome::Granted,
                },
            },
            TraceRecord {
                seq: 2,
                event: TraceEvent::SetEdge {
                    from: TxId(1),
                    to: TxId(2),
                    outcome: SetEdgeOutcome::Encoded {
                        changes: vec![(TxId(1), 1, 1), (TxId(2), 1, 2)].into(),
                    },
                },
            },
            TraceRecord {
                seq: 3,
                event: TraceEvent::Access {
                    tx: TxId(2),
                    item: ItemId(0),
                    kind: OpKind::Write,
                    rt: TxId(1),
                    wt: TxId::VIRTUAL,
                    outcome: AccessOutcome::Granted,
                },
            },
        ];
        let trace = Trace::from_records(records);
        let names = |item: ItemId| if item.0 == 0 { "x".to_string() } else { "?".to_string() };
        let txns = [TxId::VIRTUAL, TxId(1), TxId(2)];
        let table = render_decision_table(&trace, 2, &txns, &names);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("op"));
        assert!(lines[0].contains("TS(T1)"));
        assert!(lines[2].starts_with("R1[x]"));
        assert!(!lines[2].contains("<1,1>"), "R1 row shows <1,*> before the W2 encode");
        assert!(lines[2].contains("<1,*>"));
        assert!(lines[2].contains("Set(T0,T1): TS(T1,1):=1"));
        assert!(lines[3].starts_with("W2[x]"));
        assert!(lines[3].contains("<1,1>"), "T1 after the second encode");
        assert!(lines[3].contains("<*,2>"), "T2 encoded below at element 2");
    }
}
