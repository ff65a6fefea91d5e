//! ISSUE 10: the epoch-batched admission pipeline.
//!
//! PR 9's group-commit daemon batches commits on the way *out*; this
//! module batches transactions on the way *in*. A bounded staging queue
//! collects admission requests, and one **leader** thread drains it in
//! batches: the whole batch's transaction ids are taken from the global
//! counter in a single fenced `fetch_add(n)` block, every incarnation is
//! registered with the protocol, and the batch's declared first-access
//! items are prewarmed through [`ConcurrentCc::warm_probes`] — grouped by
//! scheduler shard, so each `RT`/`WT` flat-table region and order-cache
//! line is touched once per batch instead of once per transaction, and
//! driven through the fused one-vs-many compare lane of PR 8.
//!
//! The design is flat combining:
//!
//! * **Fast path** — the queue is empty and no leader is active: the
//!   caller becomes leader, admits itself as a batch of one (exactly the
//!   serial admission sequence), drains any stragglers that arrived
//!   meanwhile, and leaves. Uncontended admission costs two short mutex
//!   sections on top of the serial path; there is no new bottleneck.
//! * **Slow path** — a leader is active: the caller stages a request
//!   slot and parks. The leader batch-admits it, publishes the assigned
//!   id into the parker's per-thread cell (`Release`), and unparks it —
//!   publish-before-unpark, the same protocol as the WAL's
//!   `wait_durable`. Restart re-admission flows through the same queue,
//!   which is what lets a Zipf hot spot stop re-probing cold: a
//!   restarted incarnation has its first vector element defined by the
//!   starvation hint (III-D-4), so its prewarmed Definition-6 compares
//!   are *decided* and land in the order cache before the access path
//!   ever runs.
//!
//! The prewarm is decision-neutral by construction — it only memoizes
//! compares that are already decided and writes no holder or vector
//! state — so batched admission is decision-for-decision identical to
//! serial admission (the `admission_oracle` proptest in
//! `engine_tests.rs` pins this against random schedules).
//!
//! Memory ordering (see DESIGN.md §9 for the full table): the id handoff
//! is `AdmitCell::id` `store(Release)` by the leader, `load(Acquire)` by
//! the parked follower — the follower's subsequent protocol calls must
//! happen-after the leader's `begin` for its id. The leader/queue state
//! itself is mutex-protected; the statistics counters are `Relaxed`
//! (monotone, read only by the metrics sampler).

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

use mdts_model::{ItemId, TxId};
use mdts_trace::{TraceEvent, TraceSink};

use crate::cc::ConcurrentCc;

/// Maximum declared first-access items carried inline in a staging slot.
/// Larger footprints are truncated — the prewarm is a cache warm-up, not
/// a correctness requirement, so dropping the tail only costs a row-lock
/// compare on the access path.
pub const ADMIT_FOOTPRINT: usize = 4;

/// Hard bound of the staging queue. An arrival finding the queue at
/// capacity spins (yielding) until the leader drains; in practice the
/// depth never exceeds the number of client threads, each of which has
/// at most one admission in flight.
pub const ADMIT_QUEUE_CAP: usize = 1024;

/// Admission-pipeline configuration (see the module docs and README's
/// knob table).
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Maximum transactions admitted in one fenced id block. Larger
    /// drains are split into chunks of this size.
    pub batch_max: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { batch_max: 32 }
    }
}

impl AdmissionConfig {
    /// Reads the knobs from the environment: `MDTS_ADMIT_MODE`
    /// (`batched` — the default — or `off`) and `MDTS_ADMIT_BATCH`
    /// (batch cap, default 32). Returns `None` when admission batching
    /// is disabled, which restores the serial pre-ISSUE-10 admission
    /// path exactly.
    pub fn from_env() -> Option<Self> {
        match std::env::var("MDTS_ADMIT_MODE").as_deref() {
            Ok("off") | Ok("0") => return None,
            _ => {}
        }
        let mut cfg = AdmissionConfig::default();
        if let Ok(v) = std::env::var("MDTS_ADMIT_BATCH") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.batch_max = n.clamp(1, ADMIT_QUEUE_CAP);
            }
        }
        Some(cfg)
    }
}

/// Cumulative admission-pipeline counters plus the point-in-time queue
/// depth, surfaced through `Database::gauges` into `mdts-metrics/v1`
/// and the telemetry windows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Fenced id blocks issued (each covers one admitted batch,
    /// including every batch-of-one fast path).
    pub batches: u64,
    /// Transactions admitted through those blocks.
    pub batched_txns: u64,
    /// Admissions that parked in the staging queue (slow path).
    pub parked: u64,
    /// High-water batch size.
    pub max_batch: u64,
    /// `(item, tx)` pairs prewarmed through the shard-grouped probe.
    pub prewarm_pairs: u64,
    /// Staged requests at sample time (occupancy gauge).
    pub queue_depth: u64,
}

/// Per-thread id handoff cell: the leader publishes the assigned id with
/// `Release` and unparks; the staged thread spins on `park` until it
/// observes a non-zero id with `Acquire`. One cell per thread, allocated
/// on the thread's first parked admission and reused forever after —
/// the steady state stays allocation-free.
struct AdmitCell {
    /// 0 = not yet assigned, else the assigned transaction id.
    id: AtomicU32,
    thread: Thread,
}

std::thread_local! {
    static ADMIT_CELL: OnceCell<Arc<AdmitCell>> = const { OnceCell::new() };
}

fn my_cell() -> Arc<AdmitCell> {
    ADMIT_CELL.with(|c| {
        Arc::clone(c.get_or_init(|| {
            Arc::new(AdmitCell { id: AtomicU32::new(0), thread: std::thread::current() })
        }))
    })
}

/// One staged admission request.
struct Slot {
    cell: Arc<AdmitCell>,
    /// Predecessor incarnation for a restart re-admission.
    prev: Option<TxId>,
    items: [ItemId; ADMIT_FOOTPRINT],
    n_items: u8,
}

/// Queue state under the staging mutex.
struct Pending {
    slots: Vec<Slot>,
    /// A leader is currently admitting batches outside this mutex.
    /// Invariant: `!leader` implies `slots.is_empty()` — slots are only
    /// pushed while a leader is active, and the leader clears the flag
    /// only after observing the queue empty (under this mutex), so every
    /// staged request is drained by the leader that was active when it
    /// was pushed.
    leader: bool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The staging queue (see the module docs). One per [`crate::Database`].
pub struct Admission {
    batch_max: usize,
    pending: Mutex<Pending>,
    /// Drain double-buffer. Only the active leader touches it (the
    /// `leader` flag serializes leaders), so the lock is uncontended; it
    /// exists to let the leader release the staging mutex — and keep
    /// accepting arrivals — while it admits the drained batch. Both
    /// vectors retain their capacity across batches.
    drain: Mutex<Vec<Slot>>,
    batches: AtomicU64,
    batched_txns: AtomicU64,
    parked: AtomicU64,
    max_batch: AtomicU64,
    prewarm_pairs: AtomicU64,
}

impl Admission {
    /// Fresh queue with warmed buffers.
    pub fn new(config: AdmissionConfig) -> Self {
        let cap = config.batch_max.min(64);
        Admission {
            batch_max: config.batch_max.max(1),
            pending: Mutex::new(Pending { slots: Vec::with_capacity(cap), leader: false }),
            drain: Mutex::new(Vec::with_capacity(cap)),
            batches: AtomicU64::new(0),
            batched_txns: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            prewarm_pairs: AtomicU64::new(0),
        }
    }

    /// Current counters plus the live queue depth.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            batches: self.batches.load(Ordering::Relaxed),
            batched_txns: self.batched_txns.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            prewarm_pairs: self.prewarm_pairs.load(Ordering::Relaxed),
            queue_depth: lock(&self.pending).slots.len() as u64,
        }
    }

    /// Admits one transaction (registering it with `cc` under a fresh id
    /// from `next_tx`), possibly as part of a batch. Returns the id and
    /// whether this admission parked in the staging queue — the restart
    /// loop uses the flag to skip the jittered backoff (the queue wait
    /// already staggered the thread) and to reset its escalation counter.
    ///
    /// `pairs` is a caller-owned scratch buffer for the prewarm probe
    /// pairs (recycled across restarts, so the steady state allocates
    /// nothing). Public so the allocation gate can drive the warmed fast
    /// path directly; engine code goes through
    /// [`crate::Database::run_with_footprint`].
    pub fn admit(
        &self,
        cc: &dyn ConcurrentCc,
        next_tx: &AtomicU32,
        trace: &TraceSink,
        prev: Option<TxId>,
        footprint: &[ItemId],
        pairs: &mut Vec<(ItemId, TxId)>,
    ) -> (TxId, bool) {
        loop {
            let mut p = lock(&self.pending);
            if !p.leader {
                debug_assert!(p.slots.is_empty(), "stale slots without an active leader");
                p.leader = true;
                drop(p);
                let id = self.admit_leader(cc, next_tx, trace, prev, footprint, pairs);
                return (id, false);
            }
            if p.slots.len() >= ADMIT_QUEUE_CAP {
                drop(p);
                std::thread::yield_now();
                continue;
            }
            // Slow path: stage a slot and park until the leader publishes
            // the assigned id.
            let cell = my_cell();
            debug_assert_eq!(cell.id.load(Ordering::Relaxed), 0, "one admission per thread");
            let mut items = [ItemId(0); ADMIT_FOOTPRINT];
            let n = footprint.len().min(ADMIT_FOOTPRINT);
            items[..n].copy_from_slice(&footprint[..n]);
            p.slots.push(Slot { cell: Arc::clone(&cell), prev, items, n_items: n as u8 });
            drop(p);
            self.parked.fetch_add(1, Ordering::Relaxed);
            loop {
                let got = cell.id.load(Ordering::Acquire);
                if got != 0 {
                    cell.id.store(0, Ordering::Relaxed);
                    return (TxId(got), true);
                }
                std::thread::park();
            }
        }
    }

    /// Leader service: admit the caller itself (a batch of one, exactly
    /// the serial admission sequence), then drain staged arrivals in
    /// fenced batches until the queue is observed empty.
    fn admit_leader(
        &self,
        cc: &dyn ConcurrentCc,
        next_tx: &AtomicU32,
        trace: &TraceSink,
        prev: Option<TxId>,
        footprint: &[ItemId],
        pairs: &mut Vec<(ItemId, TxId)>,
    ) -> TxId {
        let id = TxId(next_tx.fetch_add(1, Ordering::Relaxed) + 1);
        trace.emit(|| TraceEvent::Begin { tx: id });
        match prev {
            Some(p) => cc.begin_restarted(id, p),
            None => cc.begin(id),
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_txns.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(1, Ordering::Relaxed);
        // Prewarm the caller's own footprint only on a restart: the
        // hint-defined first element (III-D-4) is what makes the probed
        // compares decidable, so a fresh batch-of-one would probe for
        // nothing: its orders are all still open.
        if prev.is_some() && !footprint.is_empty() {
            pairs.clear();
            pairs.extend(footprint.iter().map(|&item| (item, id)));
            self.prewarm_pairs.fetch_add(pairs.len() as u64, Ordering::Relaxed);
            cc.warm_probes(pairs);
        }
        // Drain stragglers until the queue is empty; only then may the
        // leader flag clear (see the `Pending::leader` invariant).
        loop {
            let mut drained = lock(&self.drain);
            {
                let mut p = lock(&self.pending);
                if p.slots.is_empty() {
                    p.leader = false;
                    return id;
                }
                std::mem::swap(&mut p.slots, &mut *drained);
            }
            for chunk in drained.chunks(self.batch_max) {
                self.admit_batch(cc, next_tx, trace, chunk, pairs);
            }
            drained.clear();
        }
    }

    /// Admits one staged batch: a single fenced `fetch_add(n)` id block,
    /// per-incarnation protocol registration, one shard-grouped prewarm
    /// over the batch's declared footprints, then publish + unpark.
    fn admit_batch(
        &self,
        cc: &dyn ConcurrentCc,
        next_tx: &AtomicU32,
        trace: &TraceSink,
        batch: &[Slot],
        pairs: &mut Vec<(ItemId, TxId)>,
    ) {
        let n = batch.len();
        let base = next_tx.fetch_add(n as u32, Ordering::Relaxed) + 1;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_txns.fetch_add(n as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
        pairs.clear();
        for (i, slot) in batch.iter().enumerate() {
            let id = TxId(base + i as u32);
            trace.emit(|| TraceEvent::Begin { tx: id });
            match slot.prev {
                Some(p) => cc.begin_restarted(id, p),
                None => cc.begin(id),
            }
            for &item in &slot.items[..slot.n_items as usize] {
                pairs.push((item, id));
            }
        }
        if !pairs.is_empty() {
            self.prewarm_pairs.fetch_add(pairs.len() as u64, Ordering::Relaxed);
            cc.warm_probes(pairs);
        }
        // Publish each id before unparking its owner; a parked thread
        // that wakes spuriously just re-parks until its cell is set.
        for (i, slot) in batch.iter().enumerate() {
            slot.cell.id.store(base + i as u32, Ordering::Release);
            slot.cell.thread.unpark();
        }
    }
}
