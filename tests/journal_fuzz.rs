//! The trace journal loader returns a typed result for every byte
//! sequence: arbitrary lines, and truncations, byte flips and corrupted
//! fields of a real journal, load as `Ok` or `Err` and never panic. A
//! journal cut inside its last line loads with `torn_tail` set and every
//! whole line kept.

use std::sync::OnceLock;

use mdts::engine::{Database, Protocol, ShardedMtCc};
use mdts::model::ItemId;
use mdts::storage::Store;
use mdts::trace::{from_jsonl, to_jsonl, Json, TraceBuffer, TraceSink};
use proptest::collection::vec;
use proptest::prelude::*;

/// The journal of a traced MV-MT(3) run: transfers, each followed by a
/// snapshot scan of every account.
fn journal() -> &'static str {
    static JOURNAL: OnceLock<String> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let buffer = TraceBuffer::journal();
        let protocol = Protocol::Multiversion(ShardedMtCc::new(3));
        let db = Database::open(protocol, Store::with_items(4, 10i64), TraceSink::to(&buffer));
        for i in 0..6u32 {
            db.run(8, |tx| {
                let (a, b) = (ItemId(i % 4), ItemId((i + 1) % 4));
                let x = tx.read(a)?.unwrap_or(0);
                let y = tx.read(b)?.unwrap_or(0);
                tx.write(a, x - 1)?;
                tx.write(b, y + 1)?;
                Ok(())
            })
            .expect("an uncontended transfer commits");
            let total: i64 =
                db.run_read_only(|snap| (0..4).filter_map(|n| snap.read(ItemId(n))).sum());
            assert_eq!(total, 40);
        }
        to_jsonl(&buffer.drain())
    })
}

/// Loads `journal` cut at byte `cut`: the load must succeed, keep every
/// whole line, and report a torn tail exactly when the cut falls inside
/// the last line.
fn check_cut(journal: &str, cut: usize) -> Result<(), String> {
    let (trace, report) = from_jsonl(&journal[..cut]).map_err(|e| format!("cut {cut}: {e}"))?;
    let line_start = journal[..cut].rfind('\n').map_or(0, |n| n + 1);
    let line_end = journal[cut..].find('\n').map_or(journal.len(), |n| cut + n);
    let inside = cut != line_start && cut != line_end;
    let whole = journal[..line_start].lines().count() + usize::from(cut > line_start);
    let kept = trace.len() + usize::from(report.torn_tail);
    if report.torn_tail != inside || kept != whole {
        return Err(format!(
            "cut {cut}: torn {} (want {inside}), kept {kept} of {whole} lines",
            report.torn_tail
        ));
    }
    Ok(())
}

/// Fragments a line is built from: JSON punctuation, the journal's own
/// keys and tags, and numbers and escapes at the edges of their types.
const TOKENS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"seq\"",
    "\"type\"",
    "\"wake\"",
    "\"set_edge\"",
    "\"outcome\"",
    "\"changes\"",
    "0",
    "-1",
    "4294967296",
    "18446744073709551616",
    "1e999",
    "null",
    "true",
    "\\u12",
    "\\",
    " ",
    "é",
];

/// Values no field of a well-formed record holds, or holds only for some
/// keys: out-of-range and negative integers, fractions, and wrong shapes.
const ODD_VALUES: [&str; 12] = [
    "-1",
    "4294967296",
    "18446744073709551616",
    "0.5",
    "1e999",
    "null",
    "true",
    "\"\"",
    "\"R\"",
    "[]",
    "{}",
    "[{}]",
];

/// Replaces (with `odd`) or, given `None`, deletes one member of `v`:
/// each pick chooses a member one level further down; the last pick's
/// member is the one hit.
fn corrupt(v: &mut Json, picks: &[u64], odd: Option<&Json>) {
    let Some((&pick, rest)) = picks.split_first() else { return };
    match v {
        Json::Obj(pairs) if !pairs.is_empty() => {
            let at = (pick % pairs.len() as u64) as usize;
            match (rest.is_empty(), odd) {
                (true, None) => drop(pairs.remove(at)),
                (true, Some(odd)) => pairs[at].1 = odd.clone(),
                (false, _) => corrupt(&mut pairs[at].1, rest, odd),
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            let at = (pick % items.len() as u64) as usize;
            match (rest.is_empty(), odd) {
                (true, None) => drop(items.remove(at)),
                (true, Some(odd)) => items[at] = odd.clone(),
                (false, _) => corrupt(&mut items[at], rest, odd),
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_lines_load_or_fail(
        lines in vec(vec(0..TOKENS.len(), 0..48), 0..6),
        bytes in vec(0u8..=255, 0..64),
    ) {
        let mut text: String = lines
            .iter()
            .map(|line| line.iter().map(|&t| TOKENS[t]).collect::<String>() + "\n")
            .collect();
        text.push_str(&String::from_utf8_lossy(&bytes));
        if let Ok((trace, report)) = from_jsonl(&text) {
            prop_assert_eq!(report.records, trace.len());
        }
    }

    #[test]
    fn a_cut_journal_keeps_every_whole_line(cut in any::<u64>()) {
        let journal = journal();
        let cut = (cut % (journal.len() as u64 + 1)) as usize;
        check_cut(journal, cut).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn flipped_bytes_load_or_fail(flips in vec((any::<u64>(), 1u8..=255), 1..4)) {
        let mut bytes = journal().as_bytes().to_vec();
        for (at, mask) in flips {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= mask;
        }
        let _ = from_jsonl(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn corrupted_fields_load_or_fail(
        line in any::<u64>(),
        picks in vec(any::<u64>(), 1..4),
        odd in 0..=ODD_VALUES.len(),
    ) {
        let lines: Vec<&str> = journal().lines().collect();
        let at = (line % lines.len() as u64) as usize;
        let mut record = Json::parse(lines[at]).unwrap();
        let odd = ODD_VALUES.get(odd).map(|v| Json::parse(v).unwrap());
        corrupt(&mut record, &picks, odd.as_ref());
        let record = record.render();
        let text: String = lines
            .iter()
            .enumerate()
            .map(|(n, l)| if n == at { record.as_str() } else { l })
            .flat_map(|l| [l, "\n"])
            .collect();
        let _ = from_jsonl(&text);
    }
}

#[test]
fn cuts_at_every_line_edge_keep_every_whole_line() {
    let journal = journal();
    assert!(journal.lines().count() > 50, "a journal of {} lines", journal.lines().count());
    let ends = journal.match_indices('\n').map(|(n, _)| n);
    for end in std::iter::once(0).chain(ends).chain([journal.len()]) {
        for cut in end.saturating_sub(1)..=(end + 1).min(journal.len()) {
            check_cut(journal, cut).unwrap();
        }
    }
}
