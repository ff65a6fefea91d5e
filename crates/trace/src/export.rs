//! The trace exporter: JSON Lines, one record object per line (for
//! grep/jq-style digging, and the durability daemon's journal). The
//! format is declared once, with the events, in `codec`.

use crate::codec::Value;
use crate::event::TraceRecord;
use crate::json::Json;
use crate::sink::Trace;

/// One record as a flat JSON object: `{"seq":…,"type":…,…fields}`.
pub fn record_json(record: &TraceRecord) -> Json {
    record.to_json()
}

/// The whole trace as JSON Lines: one record object per line.
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for record in trace.records() {
        out.push_str(&record_json(record).render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use mdts_model::{ItemId, OpKind, TxId};

    use super::*;
    use crate::event::{AccessOutcome, SetEdgeOutcome, TraceEvent};

    fn sample() -> Trace {
        Trace::from_records(vec![
            TraceRecord { seq: 0, event: TraceEvent::Begin { tx: TxId(1) } },
            TraceRecord {
                seq: 1,
                event: TraceEvent::Access {
                    tx: TxId(1),
                    item: ItemId(0),
                    kind: OpKind::Read,
                    rt: TxId(0),
                    wt: TxId(0),
                    outcome: AccessOutcome::Granted,
                },
            },
            TraceRecord {
                seq: 2,
                event: TraceEvent::SetEdge {
                    from: TxId(0),
                    to: TxId(1),
                    outcome: SetEdgeOutcome::Encoded { changes: vec![(TxId(1), 0, 1)].into() },
                },
            },
        ])
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let out = to_jsonl(&sample());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], r#"{"seq":0,"type":"begin","tx":1}"#);
        assert!(lines[1].contains(r#""outcome":"granted""#));
        assert!(lines[2].contains(r#""changes":[{"tx":1,"element":0,"value":1}]"#));
    }
}
