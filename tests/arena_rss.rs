//! The row arena follows the live transactions: 2²⁰ multiversion
//! transfers over 131,072 accounts, one client, grow the process's
//! resident set by at most 4 MiB past what `Database::open` and a short
//! warm-up built (the chain records among it). A committed writer's
//! `RT`/`WT` entries are served from its version's stamp and hold no
//! reference to its row, so the row is reclaimed at its commit. Were it
//! pinned until both entries were displaced, ≈ 98 k rows would stay live
//! at once — ≈ 9 MiB of arena, and the id-index pages their ids keep
//! resident.
//!
//! One test in a binary of its own, so that no other test's memory moves
//! the reading. Linux only: the resident set is read from
//! `/proc/self/status`.

#![cfg(target_os = "linux")]

use mdts::engine::{Database, Protocol, ShardedMtCc};
use mdts::model::ItemId;
use mdts::storage::Store;
use mdts::trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Accounts, as on the benchmark's uniform transfer lanes.
const ACCOUNTS: u32 = 131_072;
/// Transfers run.
const TRANSFERS: u32 = 1 << 20;
/// Transfers run before the first reading, so the client's workspace,
/// the arena's first slots and the allocator's arenas are built by then.
const WARM: u32 = 1 << 12;

/// This process's resident set in KiB (`VmRSS`).
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("a VmRSS line");
    line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmRSS in kB")
}

#[test]
fn a_million_transfers_keep_the_row_arena_resident_set_flat() {
    let db = Database::open(
        Protocol::Multiversion(ShardedMtCc::new(3)),
        Store::with_items(ACCOUNTS, 100i64),
        TraceSink::disabled(),
    );
    let mut rng = StdRng::seed_from_u64(42);
    let mut before = 0;
    for n in 0..TRANSFERS {
        if n == WARM {
            before = rss_kib();
        }
        let src = rng.gen_range(0..ACCOUNTS);
        let (src, dst) = (ItemId(src), ItemId((src + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS));
        db.run(8, |tx| {
            let a = tx.read(src)?.unwrap_or(0);
            let b = tx.read(dst)?.unwrap_or(0);
            tx.write(src, a - 1)?;
            tx.write(dst, b + 1)
        })
        .expect("an uncontended transfer commits");
    }
    let grown = rss_kib().saturating_sub(before);
    let g = db.gauges();
    assert!(
        grown <= 4 << 10,
        "the resident set grew {grown} KiB over {TRANSFERS} transfers \
         ({} rows live, {} arena slots built)",
        g.sched_live_rows,
        g.sched_row_slots
    );
}
