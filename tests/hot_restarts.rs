//! No transfer gives up on a hot set: two clients run transfers over 16
//! multiversion MT(3) accounts, spinning between the reads and the
//! writes so that transactions overlap, each allowed 256 restarts. Under
//! III-D-4's restart rule alone a restart begins with `TS(blocker, 1) + 1`,
//! below the writers that committed during its backoff, and such a chain
//! can be refused 256 times in a row. From the `RESTART_FLOOR_FROM`th
//! restart on, a restart begins above the published column-0 maximum, so
//! every transfer commits.
//!
//! One test in a binary of its own, run in release by `scripts/verify.sh`
//! (≈ 1 s a round there).

use std::hint::black_box;

use mdts::engine::{Database, Protocol, ShardedMtCc};
use mdts::model::ItemId;
use mdts::storage::Store;
use mdts::trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Accounts, as on the benchmark's `transfer_hot_2t` lane.
const ACCOUNTS: u32 = 16;
/// Client threads.
const CLIENTS: u64 = 2;
/// Transfers per client per round.
const TRANSFERS: u32 = 200_000;
/// Spin iterations between a transfer's reads and its writes.
const SPIN: u32 = 2_000;
/// Restarts a transfer may take before it gives up.
const MAX_RESTARTS: usize = 256;
/// Rounds, each on a fresh database.
const ROUNDS: u64 = 3;

#[test]
fn hot_transfers_never_give_up() {
    for round in 0..ROUNDS {
        let db = Database::open(
            Protocol::Multiversion(ShardedMtCc::new(3)),
            Store::with_items(ACCOUNTS, 100i64),
            TraceSink::disabled(),
        );
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let db = db.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(42 + round * CLIENTS + client);
                    for _ in 0..TRANSFERS {
                        let src = rng.gen_range(0..ACCOUNTS);
                        let dst = (src + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
                        let (src, dst) = (ItemId(src), ItemId(dst));
                        let _ = db.run(MAX_RESTARTS, |tx| {
                            let a = tx.read(src)?.unwrap_or(0);
                            let b = tx.read(dst)?.unwrap_or(0);
                            for i in 0..SPIN {
                                black_box(i);
                            }
                            tx.write(src, a - 1)?;
                            tx.write(dst, b + 1)
                        });
                    }
                });
            }
        });
        let m = db.metrics();
        assert_eq!(
            m.gave_up,
            0,
            "round {round}: {} of {} transfers gave up after {MAX_RESTARTS} restarts \
             ({} restarts in all)",
            m.gave_up,
            CLIENTS * u64::from(TRANSFERS),
            m.restarts
        );
        let total: i64 = db.snapshot().values().sum();
        assert_eq!(total, i64::from(ACCOUNTS) * 100, "round {round}: money was made or lost");
    }
}
