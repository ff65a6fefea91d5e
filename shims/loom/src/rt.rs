//! The model-checking runtime.
//!
//! Three cooperating pieces:
//!
//! * **A baton-passing scheduler.** Model threads are real OS threads, but
//!   exactly one is ever runnable: before every visible operation (an
//!   atomic access, a fence, a lock acquisition/release, a spawn/join) the
//!   running thread reaches a *scheduling point*, consults the explorer
//!   for who runs next, and parks itself if the baton moves. Execution is
//!   therefore fully serialized and — given the same decision sequence —
//!   fully deterministic, which is what makes replay-based DFS possible.
//! * **A DFS path explorer.** Every nondeterministic decision (which
//!   enabled thread runs next, which store a weak load reads) is a branch
//!   recorded on the current *path*. An execution replays the recorded
//!   prefix and extends it with first choices; when it finishes, the
//!   deepest decision with untried alternatives is bumped and everything
//!   after it is discarded. The model has been checked *exhaustively*
//!   (within the optional preemption bound) when no decision has
//!   alternatives left.
//! * **A vector-clock weak-memory model.** Each atomic carries its full
//!   modification order (every store ever made, with the storer's
//!   happens-before clock and its release clock). A load may read any
//!   store not hidden by coherence: nothing older than the last store this
//!   thread has seen of this atomic, and nothing older than the newest
//!   store that happens-before the load. Acquire loads join the store's
//!   release clock; relaxed loads buffer it until an acquire fence;
//!   release fences stamp subsequent relaxed stores; RMWs read the newest
//!   store and continue its release sequence. SeqCst is modeled
//!   conservatively: all SeqCst operations are totally ordered by
//!   execution order through a global SC clock, and a SeqCst load must not
//!   read anything older than the newest SeqCst store to its atomic —
//!   slightly stronger than C++20 SC (it cannot produce some exotic IRIW
//!   outcomes), never weaker on the store-buffering/Dekker patterns the
//!   workspace relies on.
//!
//! Preemption bounding (CHESS-style): schedule branches that take the
//! baton away from a thread that could have continued are *preemptions*;
//! when a bound is set, exploration only branches over schedules with at
//! most that many. Forced switches (the running thread blocked or
//! finished) and load-value branches are always explored in full.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::panic_any;
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

pub(crate) use std::sync::atomic::Ordering;

/// Panic payload used to unwind model threads when an execution aborts
/// (a failure was recorded or the iteration is being torn down). Never
/// reported as a failure itself.
pub(crate) struct AbortToken;

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A per-thread vector clock; index = model thread id.
#[derive(Clone, Debug, Default)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, t: usize) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    fn tick(&mut self, t: usize) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] += 1;
    }

    /// `self` happens-before-or-equals `other` (pointwise ≤).
    fn le(&self, other: &VClock) -> bool {
        self.0.iter().enumerate().all(|(i, &v)| v <= other.get(i))
    }
}

// ---------------------------------------------------------------------------
// DFS path
// ---------------------------------------------------------------------------

/// One recorded decision: `(chosen, alternatives)`.
#[derive(Debug)]
struct Path {
    decisions: Vec<(u32, u32)>,
    pos: usize,
}

impl Path {
    fn new() -> Self {
        Path { decisions: Vec::new(), pos: 0 }
    }

    /// Takes (or records) the next decision among `n` alternatives.
    fn branch(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        if self.pos == self.decisions.len() {
            self.decisions.push((0, n as u32));
        }
        let (chosen, max) = self.decisions[self.pos];
        assert_eq!(
            max as usize, n,
            "loom shim: nondeterministic replay (branch arity changed mid-exploration)"
        );
        self.pos += 1;
        chosen as usize
    }

    /// Advances to the next unexplored leaf; `false` when exhausted.
    fn advance(&mut self) -> bool {
        while let Some((chosen, max)) = self.decisions.pop() {
            if chosen + 1 < max {
                self.decisions.push((chosen + 1, max));
                self.pos = 0;
                return true;
            }
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Objects
// ---------------------------------------------------------------------------

/// One store in an atomic's modification order.
#[derive(Debug)]
struct StoreRec {
    val: u64,
    /// The storer's happens-before clock at the store (coherence:
    /// obscures older stores from any load that has this clock).
    hb: VClock,
    /// What an acquire load of this store joins (release semantics,
    /// release fences, release-sequence continuation).
    rel: VClock,
}

#[derive(Debug)]
struct AtomicObj {
    stores: Vec<StoreRec>,
    /// Index + 1 of the newest SeqCst store (0 = none): a SeqCst load may
    /// not read anything older.
    last_sc: usize,
}

#[derive(Debug)]
struct MutexObj {
    locked: bool,
    clock: VClock,
}

#[derive(Debug)]
struct RwObj {
    writer: bool,
    readers: usize,
    clock: VClock,
}

#[derive(Debug, Default)]
struct CondObj {
    /// Parked waiters as `(thread, mutex object)`.
    waiters: Vec<(usize, usize)>,
}

#[derive(Debug)]
enum Object {
    Atomic(AtomicObj),
    Mutex(MutexObj),
    Rw(RwObj),
    Cond(CondObj),
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// What a blocked thread is waiting for. A blocked thread is *enabled*
/// (schedulable) once the condition holds; the scheduler only hands it
/// the baton then, and nothing can run in between, so the condition still
/// holds when it resumes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Wait {
    MutexFree(usize),
    RwRead(usize),
    RwWrite(usize),
    /// Parked in a condvar wait; never enabled until a notify rewrites
    /// the status to `MutexFree` of the remembered mutex.
    CondNotified(#[allow(dead_code)] usize),
    Join(usize),
}

#[derive(Debug)]
enum Status {
    Ready,
    Blocked(Wait),
    Finished,
}

struct ThreadSt {
    status: Status,
    clock: VClock,
    /// Release clocks of relaxed loads, joined at the next acquire fence.
    acq_pending: VClock,
    /// This thread's clock at its last release fence; stamped onto
    /// subsequent relaxed stores.
    rel_fence: VClock,
    /// Newest store index this thread has observed, per atomic
    /// (coherence floor).
    last_seen: HashMap<usize, usize>,
    /// Value returned by the thread's closure, for `join`.
    result: Option<Box<dyn Any + Send>>,
}

impl ThreadSt {
    fn new(clock: VClock) -> Self {
        ThreadSt {
            status: Status::Ready,
            clock,
            acq_pending: VClock::default(),
            rel_fence: VClock::default(),
            last_seen: HashMap::new(),
            result: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

struct State {
    /// Iteration number, used to tag lazily-registered object ids.
    iteration: u64,
    path: Path,
    threads: Vec<ThreadSt>,
    current: usize,
    objects: Vec<Object>,
    sc_clock: VClock,
    preemptions: usize,
    abort: bool,
    failure: Option<String>,
    unfinished: usize,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Rt {
    state: StdMutex<State>,
    cv: StdCondvar,
    preemption_bound: Option<usize>,
    pub(crate) max_iterations: u64,
}

thread_local! {
    static TLS: RefCell<Option<(Arc<Rt>, usize)>> = const { RefCell::new(None) };
}

/// The current model runtime and thread id; panics outside `loom::model`.
pub(crate) fn with_rt<R>(f: impl FnOnce(&Arc<Rt>, usize) -> R) -> R {
    TLS.with(|t| {
        let b = t.borrow();
        let (rt, me) = b.as_ref().expect("loom synchronization primitive used outside loom::model");
        f(rt, *me)
    })
}

pub(crate) fn try_rt() -> Option<(Arc<Rt>, usize)> {
    TLS.with(|t| t.borrow().clone())
}

fn set_tls(v: Option<(Arc<Rt>, usize)>) {
    TLS.with(|t| *t.borrow_mut() = v);
}

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------------
// Object-id cells
// ---------------------------------------------------------------------------

/// Maps a primitive to its model object, lazily re-registered each
/// iteration. Packs `(iteration + 1) << 24 | id` into one word; tag 0
/// means "never registered".
pub(crate) struct ObjCell(StdAtomicU64);

const ID_BITS: u64 = 24;

impl ObjCell {
    pub(crate) const fn new() -> Self {
        ObjCell(StdAtomicU64::new(0))
    }

    fn resolve(&self, st: &mut State, me: usize, make: impl FnOnce(VClock) -> Object) -> usize {
        let v = self.0.load(StdOrdering::Relaxed);
        if v >> ID_BITS == st.iteration + 1 {
            return (v & ((1 << ID_BITS) - 1)) as usize;
        }
        let id = st.objects.len();
        assert!(id < (1 << ID_BITS) as usize, "loom shim: too many model objects");
        let clock = st.threads[me].clock.clone();
        st.objects.push(make(clock));
        self.0.store(((st.iteration + 1) << ID_BITS) | id as u64, StdOrdering::Relaxed);
        id
    }
}

fn make_atomic(init: u64) -> impl FnOnce(VClock) -> Object {
    move |clock| {
        Object::Atomic(AtomicObj {
            stores: vec![StoreRec { val: init, hb: clock.clone(), rel: clock }],
            last_sc: 0,
        })
    }
}

fn make_mutex(clock: VClock) -> Object {
    Object::Mutex(MutexObj { locked: false, clock })
}

fn make_rw(clock: VClock) -> Object {
    Object::Rw(RwObj { writer: false, readers: 0, clock })
}

fn make_cond(_clock: VClock) -> Object {
    Object::Cond(CondObj::default())
}

macro_rules! obj {
    ($st:expr, $id:expr, $variant:ident) => {
        match &mut $st.objects[$id] {
            Object::$variant(o) => o,
            other => panic!("loom shim: object {} used as two kinds: {:?}", $id, other),
        }
    };
}

// ---------------------------------------------------------------------------
// Scheduler core
// ---------------------------------------------------------------------------

fn is_enabled(st: &State, i: usize) -> bool {
    match st.threads[i].status {
        Status::Ready => true,
        Status::Finished => false,
        Status::Blocked(w) => match w {
            Wait::MutexFree(o) => match &st.objects[o] {
                Object::Mutex(m) => !m.locked,
                _ => unreachable!(),
            },
            Wait::RwRead(o) => match &st.objects[o] {
                Object::Rw(rw) => !rw.writer,
                _ => unreachable!(),
            },
            Wait::RwWrite(o) => match &st.objects[o] {
                Object::Rw(rw) => !rw.writer && rw.readers == 0,
                _ => unreachable!(),
            },
            Wait::CondNotified(_) => false,
            Wait::Join(t) => matches!(st.threads[t].status, Status::Finished),
        },
    }
}

type Guard<'a> = StdMutexGuard<'a, State>;

impl Rt {
    pub(crate) fn new(preemption_bound: Option<usize>, max_iterations: u64) -> Self {
        Rt {
            state: StdMutex::new(State {
                iteration: 0,
                path: Path::new(),
                threads: Vec::new(),
                current: 0,
                objects: Vec::new(),
                sc_clock: VClock::default(),
                preemptions: 0,
                abort: false,
                failure: None,
                unfinished: 0,
                os_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
            preemption_bound,
            max_iterations,
        }
    }

    fn lock(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parks until the baton returns (or the execution aborts).
    fn park<'a>(&'a self, mut st: Guard<'a>, me: usize) -> Guard<'a> {
        loop {
            if st.abort {
                drop(st);
                panic_any(AbortToken);
            }
            if st.current == me {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Records a failure and unwinds the calling thread.
    fn fail(&self, st: &mut Guard<'_>, msg: String) -> ! {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.abort = true;
        self.cv.notify_all();
        panic_any(AbortToken);
    }

    /// Picks who runs the next operation. `me` is the caller (possibly
    /// just blocked or finished).
    fn reschedule(&self, st: &mut Guard<'_>, me: usize) {
        let enabled: Vec<usize> = (0..st.threads.len()).filter(|&i| is_enabled(st, i)).collect();
        if enabled.is_empty() {
            if st.unfinished == 0 {
                return;
            }
            let stuck: Vec<usize> = (0..st.threads.len())
                .filter(|&i| !matches!(st.threads[i].status, Status::Finished))
                .collect();
            self.fail(
                st,
                format!("deadlock: every unfinished thread is blocked (threads {stuck:?})"),
            );
        }
        let me_enabled = enabled.contains(&me);
        let choice = if enabled.len() == 1 {
            enabled[0]
        } else if me_enabled && self.preemption_bound.is_some_and(|b| st.preemptions >= b) {
            // Out of preemptions: the running thread keeps the baton.
            me
        } else {
            enabled[st.path.branch(enabled.len())]
        };
        if me_enabled && choice != me {
            st.preemptions += 1;
        }
        st.current = choice;
    }

    /// A scheduling point before a visible operation. Returns with the
    /// baton held (`current == me`), the thread's clock ticked, and the
    /// state lock held for the caller to apply its operation atomically.
    fn yield_point(&self, me: usize) -> Guard<'_> {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            panic_any(AbortToken);
        }
        debug_assert_eq!(st.current, me, "baton discipline violated");
        self.reschedule(&mut st, me);
        if st.current != me {
            self.cv.notify_all();
            st = self.park(st, me);
        }
        st.threads[me].clock.tick(me);
        st
    }

    /// Blocks `me` on `wait` and hands the baton away; returns once the
    /// scheduler selects `me` again (the wait condition then holds).
    fn block_on<'a>(&'a self, mut st: Guard<'a>, me: usize, wait: Wait) -> Guard<'a> {
        st.threads[me].status = Status::Blocked(wait);
        self.reschedule(&mut st, me);
        self.cv.notify_all();
        st = self.park(st, me);
        st.threads[me].status = Status::Ready;
        st
    }

    // -- atomics ----------------------------------------------------------

    /// An atomic operation's scheduling point. A thread unwinding an ended
    /// execution (a destructor's store) applies it without scheduling, as
    /// the unlocks do: `yield_point` would panic again mid-unwind.
    fn atomic_point(&self, me: usize) -> Guard<'_> {
        if std::thread::panicking() {
            return self.lock();
        }
        self.yield_point(me)
    }

    pub(crate) fn register_atomic(&self, cell: &ObjCell, init: u64) {
        let mut st = self.lock();
        let me = st.current;
        cell.resolve(&mut st, me, make_atomic(init));
    }

    /// Joins the global SC clock both ways: all SeqCst operations are
    /// totally ordered by execution order (conservative SC model).
    fn sc_sync(st: &mut Guard<'_>, me: usize) {
        let c = st.threads[me].clock.clone();
        st.sc_clock.join(&c);
        let sc = st.sc_clock.clone();
        st.threads[me].clock.join(&sc);
    }

    pub(crate) fn atomic_load(&self, me: usize, cell: &ObjCell, init: u64, ord: Ordering) -> u64 {
        assert!(
            !matches!(ord, Ordering::Release | Ordering::AcqRel),
            "invalid ordering for an atomic load"
        );
        let mut st = self.atomic_point(me);
        let id = cell.resolve(&mut st, me, make_atomic(init));
        let clock = st.threads[me].clock.clone();
        let seen = st.threads[me].last_seen.get(&id).copied();
        let (floor, n) = {
            let a = obj!(st, id, Atomic);
            let mut floor = 0;
            // Coherence: nothing older than the newest store that
            // happens-before this load...
            for i in (0..a.stores.len()).rev() {
                if a.stores[i].hb.le(&clock) {
                    floor = i;
                    break;
                }
            }
            // ...nor older than what this thread has already seen.
            if let Some(seen) = seen {
                floor = floor.max(seen);
            }
            // SC reads-before: an SC load never reads past the newest SC
            // store.
            if ord == Ordering::SeqCst && a.last_sc > 0 {
                floor = floor.max(a.last_sc - 1);
            }
            (floor, a.stores.len() - floor)
        };
        // Which visible store to read is a genuine branch point, except
        // while unwinding: that execution is over, so the newest is read.
        let pick = if n == 1 || std::thread::panicking() {
            floor + n - 1
        } else {
            floor + st.path.branch(n)
        };
        let (val, rel) = {
            let a = obj!(st, id, Atomic);
            (a.stores[pick].val, a.stores[pick].rel.clone())
        };
        st.threads[me].last_seen.insert(id, pick);
        match ord {
            Ordering::Acquire | Ordering::SeqCst => st.threads[me].clock.join(&rel),
            _ => st.threads[me].acq_pending.join(&rel),
        }
        if ord == Ordering::SeqCst {
            Self::sc_sync(&mut st, me);
        }
        val
    }

    pub(crate) fn atomic_store(
        &self,
        me: usize,
        cell: &ObjCell,
        init: u64,
        val: u64,
        ord: Ordering,
    ) {
        assert!(
            !matches!(ord, Ordering::Acquire | Ordering::AcqRel),
            "invalid ordering for an atomic store"
        );
        let mut st = self.atomic_point(me);
        let id = cell.resolve(&mut st, me, make_atomic(init));
        if ord == Ordering::SeqCst {
            Self::sc_sync(&mut st, me);
        }
        let hb = st.threads[me].clock.clone();
        let rel = match ord {
            Ordering::Release | Ordering::SeqCst => hb.clone(),
            _ => st.threads[me].rel_fence.clone(),
        };
        let a = obj!(st, id, Atomic);
        a.stores.push(StoreRec { val, hb, rel });
        let idx = a.stores.len() - 1;
        if ord == Ordering::SeqCst {
            a.last_sc = idx + 1;
        }
        st.threads[me].last_seen.insert(id, idx);
    }

    /// Read-modify-write: reads the newest store in modification order
    /// (as C++20 requires of RMWs) and continues its release sequence.
    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        cell: &ObjCell,
        init: u64,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> u64 {
        let mut st = self.atomic_point(me);
        let id = cell.resolve(&mut st, me, make_atomic(init));
        if ord == Ordering::SeqCst {
            Self::sc_sync(&mut st, me);
        }
        let (old, prev_rel, idx) = {
            let a = obj!(st, id, Atomic);
            let s = a.stores.last().expect("atomic has an initial store");
            (s.val, s.rel.clone(), a.stores.len())
        };
        match ord {
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst => {
                st.threads[me].clock.join(&prev_rel)
            }
            _ => st.threads[me].acq_pending.join(&prev_rel),
        }
        let hb = st.threads[me].clock.clone();
        let mut rel = match ord {
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => hb.clone(),
            _ => st.threads[me].rel_fence.clone(),
        };
        rel.join(&prev_rel); // release-sequence continuation
        let a = obj!(st, id, Atomic);
        a.stores.push(StoreRec { val: f(old), hb, rel });
        if ord == Ordering::SeqCst {
            a.last_sc = idx + 1;
        }
        st.threads[me].last_seen.insert(id, idx);
        old
    }

    /// Strong compare-exchange. A failure is a load of the newest store
    /// with the failure ordering.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn atomic_cas(
        &self,
        me: usize,
        cell: &ObjCell,
        init: u64,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        let mut st = self.atomic_point(me);
        let id = cell.resolve(&mut st, me, make_atomic(init));
        let (old, prev_rel, idx) = {
            let a = obj!(st, id, Atomic);
            let s = a.stores.last().expect("atomic has an initial store");
            (s.val, s.rel.clone(), a.stores.len())
        };
        if old != current {
            match failure {
                Ordering::Acquire | Ordering::SeqCst => st.threads[me].clock.join(&prev_rel),
                _ => st.threads[me].acq_pending.join(&prev_rel),
            }
            if failure == Ordering::SeqCst {
                Self::sc_sync(&mut st, me);
            }
            st.threads[me].last_seen.insert(id, idx - 1);
            return Err(old);
        }
        if success == Ordering::SeqCst {
            Self::sc_sync(&mut st, me);
        }
        match success {
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst => {
                st.threads[me].clock.join(&prev_rel)
            }
            _ => st.threads[me].acq_pending.join(&prev_rel),
        }
        let hb = st.threads[me].clock.clone();
        let mut rel = match success {
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => hb.clone(),
            _ => st.threads[me].rel_fence.clone(),
        };
        rel.join(&prev_rel);
        let a = obj!(st, id, Atomic);
        a.stores.push(StoreRec { val: new, hb, rel });
        if success == Ordering::SeqCst {
            a.last_sc = idx + 1;
        }
        st.threads[me].last_seen.insert(id, idx);
        Ok(old)
    }

    pub(crate) fn fence(&self, me: usize, ord: Ordering) {
        assert!(ord != Ordering::Relaxed, "fence(Relaxed) is invalid");
        let mut st = self.atomic_point(me);
        if matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst) {
            let pending = std::mem::take(&mut st.threads[me].acq_pending);
            st.threads[me].clock.join(&pending);
        }
        if ord == Ordering::SeqCst {
            Self::sc_sync(&mut st, me);
        }
        if matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst) {
            st.threads[me].rel_fence = st.threads[me].clock.clone();
        }
    }

    // -- mutex / condvar / rwlock ----------------------------------------

    pub(crate) fn register_obj(&self, cell: &ObjCell, kind: ObjKind) {
        let mut st = self.lock();
        let me = st.current;
        cell.resolve(&mut st, me, kind.maker());
    }

    pub(crate) fn mutex_lock(&self, me: usize, cell: &ObjCell) {
        let mut st = self.yield_point(me);
        let id = cell.resolve(&mut st, me, make_mutex);
        if obj!(st, id, Mutex).locked {
            st = self.block_on(st, me, Wait::MutexFree(id));
        }
        let m = obj!(st, id, Mutex);
        debug_assert!(!m.locked);
        m.locked = true;
        let c = m.clock.clone();
        st.threads[me].clock.join(&c);
    }

    pub(crate) fn mutex_unlock(&self, me: usize, cell: &ObjCell) {
        if std::thread::panicking() {
            // Unwinding (abort or failure): release without scheduling.
            let mut st = self.lock();
            let id = cell.resolve(&mut st, me, make_mutex);
            obj!(st, id, Mutex).locked = false;
            self.cv.notify_all();
            return;
        }
        let mut st = self.yield_point(me);
        let id = cell.resolve(&mut st, me, make_mutex);
        let c = st.threads[me].clock.clone();
        let m = obj!(st, id, Mutex);
        debug_assert!(m.locked);
        m.locked = false;
        m.clock.join(&c);
    }

    pub(crate) fn cond_wait(&self, me: usize, cv_cell: &ObjCell, mutex_cell: &ObjCell) {
        let mut st = self.yield_point(me);
        let cv_id = cv_cell.resolve(&mut st, me, make_cond);
        let m_id = mutex_cell.resolve(&mut st, me, make_mutex);
        // Atomically: release the mutex and park on the condvar.
        let c = st.threads[me].clock.clone();
        let m = obj!(st, m_id, Mutex);
        debug_assert!(m.locked, "condvar wait without holding the mutex");
        m.locked = false;
        m.clock.join(&c);
        obj!(st, cv_id, Cond).waiters.push((me, m_id));
        st = self.block_on(st, me, Wait::CondNotified(cv_id));
        // Notified and scheduled: the mutex is free, reacquire it.
        let m = obj!(st, m_id, Mutex);
        debug_assert!(!m.locked);
        m.locked = true;
        let c = m.clock.clone();
        st.threads[me].clock.join(&c);
    }

    pub(crate) fn cond_notify(&self, me: usize, cv_cell: &ObjCell, all: bool) {
        let mut st = self.yield_point(me);
        let cv_id = cv_cell.resolve(&mut st, me, make_cond);
        let woken: Vec<(usize, usize)> = {
            let cv = obj!(st, cv_id, Cond);
            if all {
                std::mem::take(&mut cv.waiters)
            } else if cv.waiters.is_empty() {
                Vec::new()
            } else {
                // FIFO; which waiter wins the reacquire race is still a
                // scheduling branch.
                vec![cv.waiters.remove(0)]
            }
        };
        for (t, m_id) in woken {
            st.threads[t].status = Status::Blocked(Wait::MutexFree(m_id));
        }
    }

    pub(crate) fn rw_lock(&self, me: usize, cell: &ObjCell, write: bool) {
        let mut st = self.yield_point(me);
        let id = cell.resolve(&mut st, me, make_rw);
        let blocked = {
            let rw = obj!(st, id, Rw);
            if write {
                rw.writer || rw.readers > 0
            } else {
                rw.writer
            }
        };
        if blocked {
            let wait = if write { Wait::RwWrite(id) } else { Wait::RwRead(id) };
            st = self.block_on(st, me, wait);
        }
        let rw = obj!(st, id, Rw);
        if write {
            debug_assert!(!rw.writer && rw.readers == 0);
            rw.writer = true;
        } else {
            debug_assert!(!rw.writer);
            rw.readers += 1;
        }
        let c = rw.clock.clone();
        st.threads[me].clock.join(&c);
    }

    pub(crate) fn rw_unlock(&self, me: usize, cell: &ObjCell, write: bool) {
        if std::thread::panicking() {
            let mut st = self.lock();
            let id = cell.resolve(&mut st, me, make_rw);
            let rw = obj!(st, id, Rw);
            if write {
                rw.writer = false;
            } else {
                rw.readers = rw.readers.saturating_sub(1);
            }
            self.cv.notify_all();
            return;
        }
        let mut st = self.yield_point(me);
        let id = cell.resolve(&mut st, me, make_rw);
        let c = st.threads[me].clock.clone();
        let rw = obj!(st, id, Rw);
        if write {
            debug_assert!(rw.writer);
            rw.writer = false;
        } else {
            debug_assert!(rw.readers > 0);
            rw.readers -= 1;
        }
        rw.clock.join(&c);
    }

    // -- threads ----------------------------------------------------------

    pub(crate) fn spawn_thread(
        self: &Arc<Self>,
        me: usize,
        f: Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>,
    ) -> usize {
        let mut st = self.yield_point(me);
        let id = st.threads.len();
        let mut clock = st.threads[me].clock.clone();
        clock.tick(id);
        st.threads.push(ThreadSt::new(clock));
        st.unfinished += 1;
        let rt = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("loom-{id}"))
            .spawn(move || model_thread_main(rt, id, f))
            .expect("failed to spawn a model thread");
        st.os_handles.push(handle);
        id
    }

    /// Joins a model thread: blocks until it finishes, adopts its final
    /// clock, and takes its result (None if already taken or never set).
    pub(crate) fn join_thread(&self, me: usize, target: usize) -> Option<Box<dyn Any + Send>> {
        let mut st = self.yield_point(me);
        if !matches!(st.threads[target].status, Status::Finished) {
            st = self.block_on(st, me, Wait::Join(target));
        }
        let c = st.threads[target].clock.clone();
        st.threads[me].clock.join(&c);
        st.threads[target].result.take()
    }

    pub(crate) fn op_yield(&self, me: usize) {
        drop(self.yield_point(me));
    }

    fn finish(&self, me: usize, result: Option<Box<dyn Any + Send>>) {
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        st.threads[me].result = result;
        st.unfinished -= 1;
        if !st.abort && st.unfinished > 0 {
            // Catching AbortToken here would be wrong: reschedule only
            // fails on deadlock, which must surface.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.reschedule(&mut st, me);
            }));
            if caught.is_err() {
                // fail() already recorded the deadlock and set abort.
            }
        }
        self.cv.notify_all();
    }

    // -- driver entry points ----------------------------------------------

    pub(crate) fn begin_iteration(self: &Arc<Self>, iteration: u64) {
        let mut st = self.lock();
        st.iteration = iteration;
        st.path.pos = 0;
        st.threads.clear();
        let mut clock = VClock::default();
        clock.tick(0);
        st.threads.push(ThreadSt::new(clock));
        st.current = 0;
        st.objects.clear();
        st.sc_clock = VClock::default();
        st.preemptions = 0;
        st.abort = false;
        st.unfinished = 1;
        debug_assert!(st.os_handles.is_empty());
        drop(st);
        set_tls(Some((Arc::clone(self), 0)));
    }

    /// After the model closure returns on the main thread: join every
    /// thread the closure spawned but never joined.
    pub(crate) fn drain(&self, me: usize) {
        loop {
            let target = {
                let st = self.lock();
                if st.abort {
                    drop(st);
                    panic_any(AbortToken);
                }
                (1..st.threads.len()).find(|&t| !matches!(st.threads[t].status, Status::Finished))
            };
            match target {
                Some(t) => {
                    self.join_thread(me, t);
                }
                None => return,
            }
        }
    }

    /// Records a panic that escaped the main closure and aborts the
    /// execution so parked threads unwind.
    pub(crate) fn record_panic(&self, payload: &(dyn Any + Send)) {
        let mut st = self.lock();
        if !payload.is::<AbortToken>() && st.failure.is_none() {
            st.failure = Some(panic_message(payload));
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// Ends the iteration: clears the TLS hook and joins the OS threads
    /// (parked ones unwind via the abort flag).
    pub(crate) fn end_iteration(&self) -> Option<String> {
        set_tls(None);
        let handles = std::mem::take(&mut self.lock().os_handles);
        for h in handles {
            let _ = h.join();
        }
        self.lock().failure.take()
    }

    pub(crate) fn advance_path(&self) -> bool {
        self.lock().path.advance()
    }
}

/// What `register_obj` should create.
#[derive(Clone, Copy)]
pub(crate) enum ObjKind {
    Mutex,
    Rw,
    Cond,
}

impl ObjKind {
    fn maker(self) -> fn(VClock) -> Object {
        match self {
            ObjKind::Mutex => make_mutex,
            ObjKind::Rw => make_rw,
            ObjKind::Cond => make_cond,
        }
    }
}

fn model_thread_main(rt: Arc<Rt>, me: usize, f: Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>) {
    set_tls(Some((Arc::clone(&rt), me)));
    // Park until first scheduled; unwind quietly if the iteration aborts
    // before that.
    let parked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let st = rt.lock();
        drop(rt.park(st, me));
    }));
    if parked.is_err() {
        rt.finish(me, None);
        set_tls(None);
        return;
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(val) => rt.finish(me, Some(val)),
        Err(payload) => {
            rt.record_panic(payload.as_ref());
            rt.finish(me, None);
        }
    }
    set_tls(None);
}
