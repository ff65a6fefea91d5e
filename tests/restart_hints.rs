//! The III-D-4 restart hint is kept in the refusing thread's stripe cell
//! (`SharedMtScheduler::begin_restarted`). A stripe belongs to one live
//! thread at a time, so two live threads never share a hint cell, however
//! many threads came and went between them: thread A holds a stripe while
//! `STRIPES - 1` threads each take one and exit, and then thread B starts.
//! Were stripes dealt round-robin, B would land on A's, and B's refusal
//! would overwrite the hint A's restart is about to take.
//!
//! One test in a binary of its own, so that no other test's threads hold
//! stripes meanwhile.

use std::sync::mpsc;
use std::sync::{Arc, Barrier};

use mdts::core::{MtOptions, SharedMtScheduler};
use mdts::model::{ItemId, TxId};
use mdts::trace::{TraceBuffer, TraceEvent, TraceSink};
use mdts::vector::stripe::{stripe, STRIPES};

/// Begins `tx` on this thread and has it refused: it reads `y`, two
/// writers then commit on `x` above it, and its read of `x` is refused,
/// which leaves a hint for `tx` in this thread's stripe cell.
fn refuse(s: &SharedMtScheduler, tx: TxId, writers: [TxId; 2], x: ItemId, y: ItemId) {
    s.begin(tx);
    assert!(s.read(tx, y).is_accept());
    for w in writers {
        s.begin(w);
        assert!(s.write(w, x).is_accept());
        s.stamp_commit(w);
        s.commit(w);
    }
    assert!(!s.read(tx, x).is_accept(), "{tx} is refused by a writer above it");
    s.abort(tx);
}

#[test]
fn two_live_threads_keep_their_own_restart_hints() {
    let buffer = TraceBuffer::journal();
    let mut s = SharedMtScheduler::new(MtOptions { starvation_flush: true, ..MtOptions::new(3) });
    s.attach_trace(TraceSink::to(&buffer));
    let s = Arc::new(s);
    // Both refusals happen before either restart.
    let refused = Arc::new(Barrier::new(2));
    let client = |first: u32, x: u32| {
        let (s, refused) = (Arc::clone(&s), Arc::clone(&refused));
        let (stripe_tx, stripe_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            stripe_tx.send(stripe()).expect("the test waits for the stripe");
            go_rx.recv().expect("the test says when to run");
            let tx = TxId(first);
            refuse(&s, tx, [TxId(first + 1), TxId(first + 2)], ItemId(x), ItemId(x + 1));
            refused.wait();
            s.begin_restarted(TxId(first + 3), tx);
        });
        (stripe_rx.recv().expect("the client reports its stripe"), go_tx, handle)
    };

    let (a_stripe, go_a, a) = client(10, 0);
    for _ in 0..STRIPES - 1 {
        std::thread::spawn(stripe).join().expect("a passing thread takes a stripe");
    }
    let (b_stripe, go_b, b) = client(20, 2);
    assert_ne!(a_stripe, b_stripe, "two live threads share stripe {a_stripe}");

    go_a.send(()).expect("A waits");
    go_b.send(()).expect("B waits");
    a.join().expect("A finishes");
    b.join().expect("B finishes");

    let trace = buffer.snapshot();
    let hints: Vec<(TxId, Option<i64>)> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::Restart { aborted, hint, .. } => Some((*aborted, *hint)),
            _ => None,
        })
        .collect();
    assert_eq!(hints.len(), 2, "{hints:?}");
    for (aborted, hint) in hints {
        assert!(hint.is_some(), "the restart of {aborted} lost its hint");
    }
}
