//! The wake-sequence eventcount behind [`Database`](crate::Database)'s
//! blocking paths, in its own module so the `cfg(loom)` sync layer can
//! swap its primitives and `tests/loom_models.rs` can model-check the
//! lost-wakeup window between [`WakeSeq::current`] and the park. Only the
//! mutex adapters use it: the multiversion engine's MT(k) never waits.

use std::sync::PoisonError;

use mdts_vector::CachePadded;

use crate::sync::{AtomicU64, Condvar, Mutex, Ordering};

/// Wake-sequence eventcount: blocked transactions wait for the sequence
/// to move past the value they sampled *before* their failed attempt, so
/// a release landing between decision and sleep is never lost.
///
/// The fast paths are lock-free — [`WakeSeq::current`] is one atomic load
/// (taken before every adapter read and write) and [`WakeSeq::bump`] is an
/// atomic increment plus a waiter check (taken on every adapter commit and
/// abort); the condvar's mutex is touched only when somebody actually
/// blocks. The adapters that never block therefore never contend here.
///
/// Lost-wakeup argument (all accesses `SeqCst`; audited in PR 4 and
/// checked exhaustively by `wakeseq_no_lost_wakeup` in
/// tests/loom_models.rs): a waiter publishes itself in `waiters` *before*
/// re-reading `seq` under the gate; a bumper increments `seq` *before*
/// reading `waiters`. This store-then-load pair on two locations is a
/// Dekker handshake — it needs the `SeqCst` total order (Release/Acquire
/// alone admits the both-miss outcome, see `sb_release_acquire_caught`
/// in the loom shim's litmus suite). If the waiter saw the old `seq`,
/// its `waiters` increment precedes the bumper's read in that total
/// order, so the bumper sees it, takes the gate (serializing with the
/// waiter being either not-yet-asleep — then the waiter re-reads the new
/// `seq` under the gate — or parked in `wait`) and notifies.
///
/// Placement: `seq` is written by every adapter commit and abort and sits
/// alone on its cache line; `waiters`, which every bump *reads* and only a
/// blocking transaction writes, is on the next one with the gate.
#[derive(Default)]
pub struct WakeSeq {
    seq: CachePadded<AtomicU64>,
    waiters: AtomicU64,
    gate: Mutex<()>,
    cond: Condvar,
}

// `seq` starts a cache line of its own; `waiters` is on a later one.
const _: () = {
    assert!(std::mem::offset_of!(WakeSeq, seq).is_multiple_of(128));
    assert!(
        std::mem::offset_of!(WakeSeq, waiters) / 128 != std::mem::offset_of!(WakeSeq, seq) / 128
    );
};

impl WakeSeq {
    /// The current sequence value. Sample it *before* the attempt whose
    /// failure might make you wait.
    pub fn current(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Advances the sequence and wakes every waiter. Returns the new
    /// value.
    pub fn bump(&self) -> u64 {
        let new = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Taking and dropping the gate before notifying closes the
            // race with a waiter that has passed its `seq` re-check but
            // not yet parked: either it re-reads `seq` under the gate
            // after our increment, or it is already in `wait` when the
            // notification fires.
            drop(self.gate.lock().unwrap_or_else(PoisonError::into_inner));
            self.cond.notify_all();
        }
        new
    }

    /// Parks until the sequence moves past `seen` (sampled via
    /// [`current`](Self::current) before the failed attempt).
    pub fn wait_past(&self, seen: u64) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        while self.seq.load(Ordering::SeqCst) == seen {
            g = self.cond.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        drop(g);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}
