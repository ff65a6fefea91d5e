//! The event sink: a lane-sharded buffer behind a cheap cloneable handle.
//!
//! # Design
//!
//! * [`TraceSink`] is the handle schedulers hold. Disabled it is a `None`
//!   and [`TraceSink::emit`] never runs the event-constructing closure, so
//!   an untraced scheduler pays one branch per call site and allocates
//!   nothing.
//! * [`TraceBuffer`] is the shared sink: a global atomic sequence counter
//!   plus a power-of-two number of *lanes*, each a mutex-protected ring.
//!   Threads are spread round-robin over lanes, so concurrent emitters
//!   rarely contend on the same mutex (lock-free *enough*: the lane lock
//!   is held only for a push). Sequence numbers are taken inside the
//!   emitting scheduler's critical section, so the merged order respects
//!   the causal order of decisions on any one item or vector row.
//! * Unbounded *journal* buffers keep everything (for audits and table
//!   rendering); bounded *ring* buffers drop the oldest records per lane
//!   and count the drops (for flight-recorder use in long runs).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::{TraceEvent, TraceRecord};

/// Round-robin lane assignment for emitting threads.
static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LANE_TAG: usize = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// Locks a mutex, riding through poisoning (a panicking emitter must not
/// take the trace down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct Lane {
    records: VecDeque<TraceRecord>,
}

/// The shared event buffer. See the module docs for the lane/ring design.
#[derive(Debug)]
pub struct TraceBuffer {
    lanes: Box<[Mutex<Lane>]>,
    lane_mask: usize,
    next_seq: AtomicU64,
    dropped: AtomicU64,
    /// Per-lane capacity; `0` means unbounded.
    capacity: usize,
}

impl TraceBuffer {
    fn with_shape(lanes: usize, capacity: usize) -> Arc<Self> {
        let lanes = lanes.max(1).next_power_of_two();
        Arc::new(TraceBuffer {
            lanes: (0..lanes).map(|_| Mutex::new(Lane::default())).collect(),
            lane_mask: lanes - 1,
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            capacity,
        })
    }

    /// A single-lane unbounded buffer: the cheapest complete journal, right
    /// for sequential schedulers.
    pub fn journal() -> Arc<Self> {
        TraceBuffer::with_shape(1, 0)
    }

    /// A multi-lane unbounded buffer for multi-threaded runs that need the
    /// complete trace (the stress-test auditor).
    pub fn unbounded(lanes: usize) -> Arc<Self> {
        TraceBuffer::with_shape(lanes, 0)
    }

    /// A multi-lane flight recorder keeping at most `capacity` records per
    /// lane; the oldest records are dropped (and counted) beyond that.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — use [`TraceBuffer::unbounded`].
    pub fn ring(lanes: usize, capacity: usize) -> Arc<Self> {
        assert!(capacity > 0, "a ring needs capacity; use `unbounded` for a journal");
        TraceBuffer::with_shape(lanes, capacity)
    }

    /// Appends one event, stamping it with the next global sequence number.
    ///
    /// The sequence number is taken *inside* the lane lock, which makes
    /// [`TraceBuffer::next_seq`] a true completeness watermark: a reader
    /// that loads `next_seq() == n` and then takes the lane locks sees
    /// every record with `seq < n` fully inserted (any push that drew a
    /// smaller seq either released its lane lock before the reader's load
    /// — its insert is visible — or still holds the lock the reader is
    /// about to take). The group-commit daemon relies on this to journal
    /// a prefix-complete trace slice per epoch.
    pub fn push(&self, event: TraceEvent) {
        let tag = LANE_TAG.with(|t| *t);
        let mut lane = lock(&self.lanes[tag & self.lane_mask]);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        if self.capacity != 0 && lane.records.len() >= self.capacity {
            lane.records.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        lane.records.push_back(TraceRecord { seq, event });
    }

    /// The sequence number the *next* push will get — a watermark for
    /// [`TraceBuffer::records_since`].
    pub fn next_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Acquire)
    }

    /// Records dropped so far by bounded lanes.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently buffered across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| lock(l).records.len()).sum()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out everything buffered, merged into sequence order.
    pub fn snapshot(&self) -> Trace {
        let mut records = Vec::with_capacity(self.len());
        for lane in self.lanes.iter() {
            records.extend(lock(lane).records.iter().cloned());
        }
        Trace::from_records(records)
    }

    /// Moves out everything buffered, merged into sequence order; the
    /// buffer is left empty (sequence numbers keep counting up).
    pub fn drain(&self) -> Trace {
        let mut records = Vec::with_capacity(self.len());
        for lane in self.lanes.iter() {
            records.extend(std::mem::take(&mut lock(lane).records));
        }
        Trace::from_records(records)
    }

    /// Copies out the records with `seq >= mark`, in sequence order — the
    /// "what happened since" slice the durability daemon appends to its
    /// journal.
    pub fn records_since(&self, mark: u64) -> Vec<TraceRecord> {
        let mut records: Vec<TraceRecord> = Vec::new();
        for lane in self.lanes.iter() {
            records.extend(lock(lane).records.iter().filter(|r| r.seq >= mark).cloned());
        }
        records.sort_unstable_by_key(|r| r.seq);
        records
    }
}

/// The handle a scheduler holds. Cloning shares the underlying buffer.
#[derive(Clone, Default, Debug)]
pub struct TraceSink {
    inner: Option<Arc<TraceBuffer>>,
}

impl TraceSink {
    /// A sink that discards everything without constructing events.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// A sink feeding `buffer`.
    pub fn to(buffer: &Arc<TraceBuffer>) -> Self {
        TraceSink { inner: Some(Arc::clone(buffer)) }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The buffer behind the sink, if enabled.
    pub fn buffer(&self) -> Option<&Arc<TraceBuffer>> {
        self.inner.as_ref()
    }

    /// Records the event produced by `f` — which is *not called* when the
    /// sink is disabled, so event construction (allocation included) costs
    /// nothing on the untraced path.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(buffer) = &self.inner {
            buffer.push(f());
        }
    }
}

/// A captured trace: records in global sequence order.
#[derive(Clone, Default, Debug)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Builds a trace from records in any order (sorts by sequence).
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        records.sort_unstable_by_key(|r| r.seq);
        Trace { records }
    }

    /// The records, in sequence order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The events, in sequence order.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.records.iter().map(|r| &r.event)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use mdts_model::TxId;

    use super::*;

    #[test]
    fn disabled_sink_never_constructs_the_event() {
        let sink = TraceSink::disabled();
        let mut called = false;
        sink.emit(|| {
            called = true;
            TraceEvent::Begin { tx: TxId(1) }
        });
        assert!(!called, "a disabled sink must not run the event closure");
        assert!(!sink.enabled());
    }

    #[test]
    fn journal_preserves_order_and_drains() {
        let buf = TraceBuffer::journal();
        let sink = TraceSink::to(&buf);
        for i in 1..=5 {
            sink.emit(|| TraceEvent::Begin { tx: TxId(i) });
        }
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.next_seq(), 5);
        let trace = buf.drain();
        assert!(buf.is_empty());
        let txs: Vec<u32> = trace
            .events()
            .map(|e| match e {
                TraceEvent::Begin { tx } => tx.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(txs, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let buf = TraceBuffer::ring(1, 3);
        let sink = TraceSink::to(&buf);
        for i in 1..=10 {
            sink.emit(|| TraceEvent::Begin { tx: TxId(i) });
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 7);
        let trace = buf.snapshot();
        let first = match &trace.records()[0].event {
            TraceEvent::Begin { tx } => tx.0,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(first, 8, "the ring keeps the newest records");
    }

    #[test]
    fn concurrent_pushes_merge_into_one_sequence() {
        let buf = TraceBuffer::unbounded(8);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let sink = TraceSink::to(&buf);
                scope.spawn(move || {
                    for i in 0..100u32 {
                        sink.emit(|| TraceEvent::Begin { tx: TxId(t * 1000 + i) });
                    }
                });
            }
        });
        let trace = buf.snapshot();
        assert_eq!(trace.len(), 800);
        let seqs: Vec<u64> = trace.records().iter().map(|r| r.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(seqs, sorted, "sequence numbers are unique and merged in order");
    }

    #[test]
    fn records_since_slices_by_watermark() {
        let buf = TraceBuffer::journal();
        let sink = TraceSink::to(&buf);
        sink.emit(|| TraceEvent::Begin { tx: TxId(1) });
        let mark = buf.next_seq();
        sink.emit(|| TraceEvent::Begin { tx: TxId(2) });
        sink.emit(|| TraceEvent::Commit { tx: TxId(2) });
        let tail = buf.records_since(mark);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].event, TraceEvent::Begin { tx: TxId(2) });
    }
}
