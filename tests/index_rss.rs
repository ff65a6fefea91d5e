//! The row table's id index follows the live ids: beginning and
//! finishing 4 M ids through [`SharedMtScheduler`], with at most 64 live
//! at once, grows the process's resident set by at most 4 MiB. An index
//! that kept a resident page for every id ever issued would grow by
//! 4 bytes per id, ≈ 16 MiB over this loop. A second leg draws 4 M more
//! ids of which 19 in 20 are snapshot readers', which keep no row: each is
//! retired in the index at once, so the release sweep passes it like a
//! reclaimed id, and the same bound holds.
//!
//! One test in a binary of its own, so that no other test's memory moves
//! the reading. Linux only: the resident set is read from
//! `/proc/self/status`.

#![cfg(target_os = "linux")]

use std::collections::VecDeque;
use std::ops::RangeInclusive;

use mdts::core::SharedMtScheduler;
use mdts::model::TxId;

/// Ids begun and finished per leg.
const IDS: u32 = 4 << 20;
/// The most ids live at once.
const LIVE: usize = 64;
/// Ids run before a leg's first reading, so the row arena, the
/// scheduler's other tables and the allocator's arenas are built by then.
const WARM: u32 = 1 << 16;

/// This process's resident set in KiB (`VmRSS`).
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("a VmRSS line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmRSS in kB")
}

/// Runs `ids`, each a snapshot reader's if `reader(id)`, else begun and
/// committed with at most [`LIVE`] live, and returns how far the resident
/// set grew after the first [`WARM`] of them.
fn leg(s: &SharedMtScheduler, ids: RangeInclusive<u32>, reader: impl Fn(u32) -> bool) -> u64 {
    let warm = ids.start() + WARM;
    let mut live = VecDeque::with_capacity(LIVE + 1);
    let mut before = 0;
    for id in ids {
        if id == warm {
            before = rss_kib();
        }
        if reader(id) {
            s.begin_snapshot_reader(TxId(id));
            continue;
        }
        s.begin(TxId(id));
        live.push_back(TxId(id));
        if live.len() > LIVE {
            let done = live.pop_front().expect("more than 64 live");
            assert!(s.commit(done), "an unreferenced commit is reclaimed at once");
        }
    }
    for done in live {
        assert!(s.commit(done), "an unreferenced commit is reclaimed at once");
    }
    rss_kib().saturating_sub(before)
}

#[test]
fn four_million_ids_with_64_live_keep_the_index_resident_set_flat() {
    let s = SharedMtScheduler::with_k(3);
    let grown = leg(&s, 1..=IDS, |_| false);
    assert!(s.live_rows() <= 1, "{} rows live", s.live_rows());
    assert!(
        grown <= 4 << 10,
        "the resident set grew {grown} KiB over {IDS} ids ({} released)",
        s.released_index_ids()
    );
    let grown = leg(&s, IDS + 1..=2 * IDS, |id| id % 20 != 0);
    assert!(s.live_rows() <= 1, "{} rows live", s.live_rows());
    assert!(
        grown <= 4 << 10,
        "the resident set grew {grown} KiB over {IDS} ids, 19 in 20 a reader's ({} released)",
        s.released_index_ids()
    );
    assert!(s.released_index_ids() as u64 > u64::from(2 * IDS) - (1 << 20));
}
