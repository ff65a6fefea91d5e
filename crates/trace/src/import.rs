//! Trace import: the JSONL exporter's inverse, derived from the same
//! declaration in `codec`.
//!
//! Crash recovery replays the persisted trace journal back into a
//! [`Trace`] so the independent auditor can certify that the recovered
//! store is a committed TO(k) prefix. The loader is deliberately strict
//! about everything *except* the final line: a crash mid-append tears at
//! most the last record, so a malformed last line is dropped (and
//! reported) while a malformed interior line is an error — interior
//! damage means the file is not the journal the daemon wrote.
//!
//! Records are deduplicated by sequence number (a re-delivered journal
//! slice replays idempotently, mirroring the WAL's duplicate-LSN rule).

use crate::codec::Value;
use crate::event::TraceRecord;
use crate::json::Json;
use crate::sink::Trace;

/// What a journal load saw besides the records themselves.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct JournalReport {
    /// Well-formed records loaded (duplicates excluded).
    pub records: usize,
    /// Whether a malformed final line was dropped (a torn append).
    pub torn_tail: bool,
    /// Records dropped because an earlier line carried the same seq.
    pub duplicates: usize,
}

/// Loads a JSONL trace journal, inverting [`crate::export::to_jsonl`].
///
/// A malformed *final* line is dropped as a torn append; a malformed
/// interior line is an error (`"line N: why"`). Records sharing a seq
/// with an earlier line are dropped and counted.
pub fn from_jsonl(text: &str) -> Result<(Trace, JournalReport), String> {
    let lines: Vec<(usize, &str)> =
        text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).collect();
    let mut report = JournalReport::default();
    let mut records: Vec<TraceRecord> = Vec::with_capacity(lines.len());
    let last = lines.len().checked_sub(1);
    for (at, (lineno, line)) in lines.iter().enumerate() {
        match Json::parse(line).and_then(|v| TraceRecord::from_json(&v)) {
            Ok(record) => records.push(record),
            Err(_) if Some(at) == last => {
                report.torn_tail = true;
            }
            Err(why) => return Err(format!("line {}: {why}", lineno + 1)),
        }
    }
    records.sort_by_key(|r| r.seq);
    let before = records.len();
    records.dedup_by_key(|r| r.seq);
    report.duplicates = before - records.len();
    report.records = records.len();
    Ok((Trace::from_records(records), report))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use mdts_model::{ItemId, OpKind, TxId};
    use mdts_vector::CmpResult;

    use super::*;
    use crate::codec::{ORDERS, SEQ, TYPE};
    use crate::event::{
        AbortReason, AccessOutcome, DmtObj, DmtSource, EncodedChanges, RejectRule, SetEdgeOutcome,
        StallRule, TraceEvent,
    };
    use crate::export::to_jsonl;

    /// Every event kind, and every tag of every declared enum, at least
    /// once. The first 24 records predate the rest; their lines are pinned
    /// with the others by `testdata/journal_golden.jsonl`.
    fn one_of_each() -> Trace {
        let events = vec![
            TraceEvent::Begin { tx: TxId(1) },
            TraceEvent::Restart { tx: TxId(2), aborted: TxId(1), hint: Some(-7) },
            TraceEvent::Restart { tx: TxId(3), aborted: TxId(2), hint: None },
            TraceEvent::SetEdge {
                from: TxId(1),
                to: TxId(2),
                outcome: SetEdgeOutcome::Encoded {
                    changes: EncodedChanges::pair((TxId(1), 0, 5), (TxId(2), 1, -2)),
                },
            },
            TraceEvent::SetEdge {
                from: TxId(2),
                to: TxId(3),
                outcome: SetEdgeOutcome::AlreadyOrdered,
            },
            TraceEvent::SetEdge {
                from: TxId(3),
                to: TxId(1),
                outcome: SetEdgeOutcome::Refused { at: 2 },
            },
            TraceEvent::Compare {
                a: TxId(1),
                b: TxId(2),
                result: CmpResult::Less { at: 1 },
                scalar_ops: 2,
                tree_steps: 6,
                cached: true,
            },
            TraceEvent::Compare {
                a: TxId(2),
                b: TxId(3),
                result: CmpResult::Identical,
                scalar_ops: 3,
                tree_steps: 6,
                cached: false,
            },
            TraceEvent::Access {
                tx: TxId(1),
                item: ItemId(4),
                kind: OpKind::Read,
                rt: TxId(0),
                wt: TxId(2),
                outcome: AccessOutcome::Granted,
            },
            TraceEvent::Access {
                tx: TxId(2),
                item: ItemId(4),
                kind: OpKind::Write,
                rt: TxId(1),
                wt: TxId(0),
                outcome: AccessOutcome::Rejected {
                    against: TxId(1),
                    column: 0,
                    rule: RejectRule::ThomasRule,
                },
            },
            TraceEvent::Commit { tx: TxId(1) },
            TraceEvent::Abort { tx: TxId(2) },
            TraceEvent::EngineAbort { tx: TxId(2), reason: AbortReason::ValidationRejected },
            TraceEvent::GaveUp { tx: TxId(2), restarts: 9 },
            TraceEvent::Blocked { tx: TxId(3), item: ItemId(4), kind: OpKind::Read, wake_seen: 5 },
            TraceEvent::Wake { wake_seq: 6 },
            TraceEvent::DmtOp { site: 1, tx: TxId(3), item: ItemId(4), kind: OpKind::Write },
            TraceEvent::DmtLock {
                site: 1,
                obj: DmtObj::Item(ItemId(4)),
                source: DmtSource::Remote,
            },
            TraceEvent::DmtWriteBack { site: 1, obj: DmtObj::Vector(TxId(3)), remote: true },
            TraceEvent::DmtSync { site: 2, messages: 14 },
            TraceEvent::StampFill { tx: TxId(3), changes: EncodedChanges::one((TxId(3), 2, 11)) },
            TraceEvent::VersionInstall { writer: TxId(3), item: ItemId(4) },
            TraceEvent::VersionRead { tx: TxId(4), item: ItemId(4), writer: TxId(3) },
            TraceEvent::TelemetryAlert {
                window: 3,
                rule: StallRule::AbortSpike,
                value: 12.5,
                baseline: 2.25,
            },
            TraceEvent::Compare {
                a: TxId(3),
                b: TxId(1),
                result: CmpResult::Greater { at: 0 },
                scalar_ops: 1,
                tree_steps: 6,
                cached: true,
            },
            TraceEvent::Compare {
                a: TxId(3),
                b: TxId(4),
                result: CmpResult::EqualUndefined { at: 2 },
                scalar_ops: 3,
                tree_steps: 6,
                cached: false,
            },
            TraceEvent::Compare {
                a: TxId(4),
                b: TxId(1),
                result: CmpResult::LeftUndefined { at: 1 },
                scalar_ops: 2,
                tree_steps: 6,
                cached: false,
            },
            TraceEvent::Compare {
                a: TxId(1),
                b: TxId(4),
                result: CmpResult::RightUndefined { at: 1 },
                scalar_ops: 2,
                tree_steps: 6,
                cached: false,
            },
            TraceEvent::Access {
                tx: TxId(4),
                item: ItemId(5),
                kind: OpKind::Read,
                rt: TxId(3),
                wt: TxId(1),
                outcome: AccessOutcome::GrantedInvisible,
            },
            TraceEvent::Access {
                tx: TxId(4),
                item: ItemId(5),
                kind: OpKind::Write,
                rt: TxId(0),
                wt: TxId(3),
                outcome: AccessOutcome::GrantedIgnored,
            },
            TraceEvent::Access {
                tx: TxId(5),
                item: ItemId(5),
                kind: OpKind::Write,
                rt: TxId(4),
                wt: TxId(4),
                outcome: AccessOutcome::Rejected {
                    against: TxId(0),
                    column: 0,
                    rule: RejectRule::ReadBound,
                },
            },
            TraceEvent::Access {
                tx: TxId(5),
                item: ItemId(6),
                kind: OpKind::Write,
                rt: TxId(4),
                wt: TxId(0),
                outcome: AccessOutcome::Rejected {
                    against: TxId(4),
                    column: 1,
                    rule: RejectRule::VectorOrder,
                },
            },
            TraceEvent::Access {
                tx: TxId(6),
                item: ItemId(6),
                kind: OpKind::Read,
                rt: TxId(0),
                wt: TxId(7),
                outcome: AccessOutcome::Rejected {
                    against: TxId(7),
                    column: 2,
                    rule: RejectRule::ReaderRule,
                },
            },
            TraceEvent::EngineAbort { tx: TxId(5), reason: AbortReason::AccessRejected },
            TraceEvent::EngineAbort { tx: TxId(6), reason: AbortReason::Epoch },
            TraceEvent::DmtLock { site: 0, obj: DmtObj::Vector(TxId(6)), source: DmtSource::Local },
            TraceEvent::DmtLock {
                site: 3,
                obj: DmtObj::Item(ItemId(u32::MAX)),
                source: DmtSource::Retained,
            },
            TraceEvent::TelemetryAlert {
                window: 9,
                rule: StallRule::ThroughputCollapse,
                value: 329.0,
                baseline: 2006.5,
            },
            TraceEvent::TelemetryAlert {
                window: 10,
                rule: StallRule::WriterStarvation,
                value: 0.0,
                baseline: 1e-3,
            },
            TraceEvent::ReaderBound { tx: TxId(8), bound: 12 },
            TraceEvent::EngineAbort { tx: TxId(5), reason: AbortReason::ReadBound },
        ];
        Trace::from_records(
            events
                .into_iter()
                .enumerate()
                .map(|(seq, event)| TraceRecord { seq: seq as u64, event })
                .collect(),
        )
    }

    /// Every declared enum's tags with their field keys.
    fn declared() -> [&'static [(&'static str, &'static [&'static str])]; 7] {
        [
            TraceEvent::TAGS,
            SetEdgeOutcome::TAGS,
            AccessOutcome::TAGS,
            RejectRule::TAGS,
            AbortReason::TAGS,
            DmtSource::TAGS,
            StallRule::TAGS,
        ]
    }

    /// Every string value in `v`, nested ones included.
    fn strings<'a>(v: &'a Json, out: &mut BTreeSet<&'a str>) {
        match v {
            Json::Str(s) => {
                out.insert(s);
            }
            Json::Arr(items) => items.iter().for_each(|item| strings(item, out)),
            Json::Obj(pairs) => pairs.iter().for_each(|(_, item)| strings(item, out)),
            _ => {}
        }
    }

    #[test]
    fn round_trips_every_event_kind() {
        let trace = one_of_each();
        let jsonl = to_jsonl(&trace);
        let (back, report) = from_jsonl(&jsonl).unwrap();
        assert_eq!(back.records(), trace.records());
        assert_eq!(report.records, trace.len());
        assert!(!report.torn_tail);
        assert_eq!(report.duplicates, 0);

        // The fixture exercises every declared tag: each event kind, each
        // outcome and rule, each Definition 6 order, each operation letter.
        let docs: Vec<Json> = jsonl.lines().map(|l| Json::parse(l).unwrap()).collect();
        let mut seen = BTreeSet::new();
        docs.iter().for_each(|doc| strings(doc, &mut seen));
        let letters = [OpKind::Read, OpKind::Write].map(|kind| kind.letter().to_string());
        let tags = declared().into_iter().flatten().map(|&(tag, _)| tag);
        let orders = ORDERS.iter().map(|&(name, _)| name);
        for tag in tags.chain(orders).chain(letters.iter().map(String::as_str)) {
            assert!(seen.contains(tag), "the fixture never exports '{tag}'");
        }
    }

    #[test]
    fn the_journal_format_is_pinned() {
        assert_eq!(to_jsonl(&one_of_each()), include_str!("testdata/journal_golden.jsonl"));
    }

    #[test]
    fn every_record_has_distinct_keys() {
        for (tag, keys) in declared().into_iter().flatten() {
            assert!(
                !keys.contains(&SEQ) && !keys.contains(&TYPE),
                "'{tag}' redeclares a record key"
            );
        }
        fn distinct(v: &Json, line: &str) {
            match v {
                Json::Obj(pairs) => {
                    let keys: BTreeSet<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(keys.len(), pairs.len(), "duplicate key in {line}");
                    pairs.iter().for_each(|(_, item)| distinct(item, line));
                }
                Json::Arr(items) => items.iter().for_each(|item| distinct(item, line)),
                _ => {}
            }
        }
        for line in to_jsonl(&one_of_each()).lines() {
            distinct(&Json::parse(line).unwrap(), line);
        }
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let jsonl = to_jsonl(&one_of_each());
        let torn = &jsonl[..jsonl.len() - 20]; // tear the last record mid-object
        let (back, report) = from_jsonl(torn).unwrap();
        assert_eq!(back.len(), one_of_each().len() - 1);
        assert!(report.torn_tail);
    }

    #[test]
    fn malformed_interior_line_is_an_error() {
        let jsonl = to_jsonl(&one_of_each());
        let broken = jsonl.replacen(r#""type":"begin""#, r#""type":"bogus""#, 1);
        let err = from_jsonl(&broken).unwrap_err();
        assert!(err.contains("line 1"), "err was: {err}");
        assert!(err.contains("bogus"), "err was: {err}");
    }

    #[test]
    fn duplicate_seq_records_are_dropped() {
        let line = r#"{"seq":0,"type":"begin","tx":1}"#;
        let (back, report) = from_jsonl(&format!("{line}\n{line}\n")).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(report.duplicates, 1);
    }

    #[test]
    fn empty_input_loads_an_empty_trace() {
        let (back, report) = from_jsonl("").unwrap();
        assert!(back.is_empty());
        assert_eq!(report, JournalReport::default());
    }
}
