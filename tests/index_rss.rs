//! The row table's id index follows the live ids: beginning and
//! finishing 4 M ids through [`SharedMtScheduler`], with at most 64 live
//! at once, grows the process's resident set by at most 4 MiB. An index
//! that kept a resident page for every id ever issued would grow by
//! 4 bytes per id, ≈ 16 MiB over this loop.
//!
//! One test in a binary of its own, so that no other test's memory moves
//! the reading. Linux only: the resident set is read from
//! `/proc/self/status`.

#![cfg(target_os = "linux")]

use std::collections::VecDeque;

use mdts::core::SharedMtScheduler;
use mdts::model::TxId;

/// Ids begun and finished.
const IDS: u32 = 4 << 20;
/// The most ids live at once.
const LIVE: usize = 64;
/// Ids run before the first reading, so the row arena, the scheduler's
/// other tables and the allocator's arenas are built by then.
const WARM: u32 = 1 << 16;

/// This process's resident set in KiB (`VmRSS`).
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("a VmRSS line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmRSS in kB")
}

#[test]
fn four_million_ids_with_64_live_keep_the_index_resident_set_flat() {
    let s = SharedMtScheduler::with_k(3);
    let mut live = VecDeque::with_capacity(LIVE + 1);
    let mut before = 0;
    for id in 1..=IDS {
        if id == WARM {
            before = rss_kib();
        }
        s.begin(TxId(id));
        live.push_back(TxId(id));
        if live.len() > LIVE {
            let done = live.pop_front().expect("more than 64 live");
            assert!(s.commit(done), "an unreferenced commit is reclaimed at once");
        }
    }
    let grown = rss_kib().saturating_sub(before);
    assert!(s.live_rows() <= LIVE + 1, "{} rows live", s.live_rows());
    assert!(
        grown <= 4 << 10,
        "the resident set grew {grown} KiB over {IDS} ids ({} released)",
        s.released_index_ids()
    );
}
