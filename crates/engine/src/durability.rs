//! Group-commit durability: a write-ahead redo log behind the commit
//! path (ISSUE 9).
//!
//! # Design
//!
//! The engine commits **in memory first**: a committing transaction
//! frames its write set into the open *epoch buffer* while it still
//! holds its write-set store shards (so log order agrees with apply
//! order item by item), finishes its in-memory commit, and only then
//! blocks on the epoch's durability notification. A single daemon
//! thread seals and fsyncs epochs:
//!
//! * **Immediate flush under load** — the daemon sleeps on a condvar and
//!   is notified the moment an epoch opens, so acknowledgement latency
//!   is one fsync, not one interval; the configured interval is only the
//!   idle heartbeat bound. While an fsync is in flight, later commits
//!   pile into the next epoch buffer — that batch *is* the group commit.
//! * **Crash safety is one-directional** — a transaction is acknowledged
//!   (its `run` call returns `Ok`) only after its epoch's seal is
//!   fsynced. Recovery replays sealed epochs only, so everything
//!   acknowledged is recovered; recovering *more* than was acknowledged
//!   (a fsynced epoch whose waiters were never woken) is safe.
//! * **Trace journal first** — when a journal path is configured, the
//!   daemon writes and fsyncs the trace slice below the epoch's
//!   watermark *before* the epoch's WAL fsync. Every WAL-durable
//!   transaction's commit event is therefore journaled (commits are
//!   emitted to the trace before they are framed), so an auditor can
//!   re-check the recovered store against a decision trace that covers
//!   it. Journaling needs an unbounded trace buffer — a ring that
//!   drops records voids the completeness argument.
//! * **Crash injection** — [`CrashPoint`]s tear the log mid-record,
//!   mid-epoch, or after the fsync but before the acknowledgement; the
//!   daemon halts and every in-flight and later waiter gets
//!   [`crate::TxError::DurabilityUnknown`] instead of hanging.
//! * **Checkpoint + truncation** (ISSUE 10) — with
//!   [`DurabilityConfig::checkpoint_every`] set, every N sealed epochs
//!   the daemon snapshots the committed store into a fresh log — one
//!   sealed epoch under [`CHECKPOINT_TX`] — and atomically renames it
//!   over the live file, bounding both the log size and the replay work
//!   a restart has to do. The rename is the commit point: a crash before
//!   it recovers the old full log, after it the checkpointed one.
//!
//! Lock order: store shards (ascending) → the epoch-buffer mutex. The
//! daemon takes the epoch-buffer mutex alone and never touches engine
//! state — except during a checkpoint, where it snapshots the store
//! shards *without* holding the epoch-buffer mutex (the same
//! shards-before-buffer order committers use, so no cycle).

use std::fs::File;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use mdts_model::{ItemId, TxId};
use mdts_storage::wal::{self, CrashPoint, WalValue, WalWriter};
use mdts_trace::{export, TraceBuffer};

use crate::metrics::MetricsSnapshot;

/// The pseudo-transaction id under which a durable database checkpoints
/// its initial (or recovered) store contents into the fresh log's first
/// epoch. Recovery reports it in the committed set like any other
/// transaction; real ids start at 1, so it never collides.
pub const CHECKPOINT_TX: TxId = TxId(0);

/// Where and how a durable database logs (see
/// [`crate::Database::open_durable`]).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// The redo-log file. Recovered on open, then truncated and rebuilt
    /// from a checkpoint of the recovered state.
    pub wal_path: PathBuf,
    /// Optional trace-journal file (JSONL), fsynced per epoch *before*
    /// the epoch itself; requires a trace sink on an unbounded buffer.
    pub journal_path: Option<PathBuf>,
    /// Idle heartbeat bound for the group-commit daemon. Flushes are
    /// immediate whenever commits are pending; this only bounds how long
    /// the daemon sleeps when the database is idle.
    pub interval: Duration,
    /// Crash-injection site for the durability tests (defaults to none).
    pub crash_point: CrashPoint,
    /// Checkpoint-and-truncate the log every this many sealed epochs
    /// (0 = never, the default). Each checkpoint rewrites the log as a
    /// single sealed epoch holding the committed store under
    /// [`CHECKPOINT_TX`], so log length and restart replay time stay
    /// proportional to the checkpoint interval, not the database's
    /// lifetime.
    pub checkpoint_every: u64,
}

impl DurabilityConfig {
    /// Config with a WAL path, no journal, a 1 ms heartbeat, and no
    /// crash injection.
    pub fn new(wal_path: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            wal_path: wal_path.into(),
            journal_path: None,
            interval: Duration::from_millis(1),
            crash_point: CrashPoint::None,
            checkpoint_every: 0,
        }
    }

    /// Adds a trace-journal file.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal_path = Some(path.into());
        self
    }

    /// Checkpoints and truncates the log every `epochs` sealed epochs
    /// (0 disables).
    pub fn checkpoint_every(mut self, epochs: u64) -> Self {
        self.checkpoint_every = epochs;
        self
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The open epoch's accumulating state, under one mutex.
struct EpochBuf {
    /// Number of the epoch currently accepting commits.
    epoch: u64,
    /// Encoded frames: an `EpochBegin` once the first commit lands, then
    /// one `Commit` record per enqueued transaction.
    frames: Vec<u8>,
    /// Commit records framed into the open epoch.
    commits: u64,
    /// Next log sequence number (monotone across epochs and restarts).
    next_lsn: u64,
    /// Whether the open epoch has begun (any commit framed yet).
    begun: bool,
}

/// State shared between the commit path and the daemon (value-type
/// agnostic: the commit path encodes, the daemon only moves bytes).
struct Core {
    state: Mutex<EpochBuf>,
    /// Kicks the daemon the moment an epoch opens (and on shutdown).
    tick: Condvar,
    interval: Duration,
    /// Highest fsynced epoch (0 = none yet; epochs start at 1).
    durable_epoch: AtomicU64,
    /// Set when an append failed or a crash point fired: the log is
    /// halted and no further acknowledgement will ever arrive.
    crashed: AtomicBool,
    shutdown: AtomicBool,
    /// Committers parked for an epoch's fsync, unparked directly by the
    /// daemon. A condvar broadcast here would wake *every* waiter per
    /// epoch and convoy them through the condvar's mutex — on a loaded
    /// box that herd is a measurable slice of the epoch cycle — whereas
    /// the epoch-bucketed list wakes exactly the satisfied waiters, each
    /// with one `unpark`, and next-epoch waiters sleep through.
    waiters: Mutex<Vec<(u64, Thread)>>,
    /// Crash-injection site, applied by the daemon before each append.
    crash: Mutex<CrashPoint>,
    wal_commits: AtomicU64,
    wal_fsyncs: AtomicU64,
    wal_bytes: AtomicU64,
    /// The live log file, needed by the daemon's checkpoint rotation.
    wal_path: PathBuf,
    /// Checkpoint-and-truncate cadence in sealed epochs (0 = never).
    checkpoint_every: u64,
    /// Snapshot encoder, installed by the engine after construction
    /// (it captures a `Weak` back-reference to the engine's store, which
    /// does not exist yet when the daemon starts). Only the daemon takes
    /// this lock after installation.
    checkpoint: Mutex<Option<CheckpointFn>>,
    wal_checkpoints: AtomicU64,
    wal_truncations: AtomicU64,
}

type EncodeFn<V> = fn(&mut Vec<u8>, u64, TxId, &[(ItemId, V)], &[ItemId]) -> usize;

/// Encodes one [`CHECKPOINT_TX`] commit record carrying the committed
/// store's snapshot at `lsn` into the buffer; returns `false` when the
/// engine is gone (rotation is then skipped). Installed by the engine
/// via [`Durability::install_checkpoint`].
pub(crate) type CheckpointFn = Box<dyn FnMut(&mut Vec<u8>, u64) -> bool + Send>;

/// The engine-side durability handle: owns the daemon and the epoch
/// buffer. Dropping it flushes the open epoch and joins the daemon.
pub(crate) struct Durability<V> {
    core: Arc<Core>,
    /// Monomorphized commit encoder, captured at construction so the
    /// generic commit path needs no `WalValue` bound of its own.
    encode: EncodeFn<V>,
    handle: Option<JoinHandle<()>>,
}

impl<V: WalValue> Durability<V> {
    /// Creates the log (truncating any previous file — recover first),
    /// writes `checkpoint` as a synchronously fsynced first epoch under
    /// [`CHECKPOINT_TX`], and starts the group-commit daemon.
    pub(crate) fn start(
        config: &DurabilityConfig,
        checkpoint: &[(ItemId, V)],
        first_lsn: u64,
        journal_buffer: Option<Arc<TraceBuffer>>,
    ) -> io::Result<Self> {
        let mut writer = WalWriter::create(&config.wal_path)?;
        let mut next_lsn = first_lsn;
        let mut epoch = 1u64;
        let core_counters = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        if !checkpoint.is_empty() {
            let mut frames = Vec::new();
            wal::encode_epoch_begin(&mut frames, epoch);
            wal::encode_commit(&mut frames, next_lsn, CHECKPOINT_TX, checkpoint, &[]);
            let seal = wal::encode_epoch_seal(&mut frames, epoch, 1);
            if !writer.append_epoch(&frames, seal)? {
                return Err(io::Error::other("crash injected during the checkpoint epoch"));
            }
            core_counters.0.fetch_add(1, Ordering::Relaxed);
            core_counters.1.fetch_add(1, Ordering::Relaxed);
            core_counters.2.fetch_add(frames.len() as u64, Ordering::Relaxed);
            next_lsn += 1;
            epoch += 1;
        }
        let journal = match (&config.journal_path, journal_buffer) {
            (Some(path), Some(buffer)) => Some((buffer, File::create(path)?)),
            _ => None,
        };
        let core = Arc::new(Core {
            state: Mutex::new(EpochBuf {
                epoch,
                frames: Vec::new(),
                commits: 0,
                next_lsn,
                begun: false,
            }),
            tick: Condvar::new(),
            interval: config.interval.max(Duration::from_micros(50)),
            durable_epoch: AtomicU64::new(epoch - 1),
            crashed: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            waiters: Mutex::new(Vec::new()),
            crash: Mutex::new(config.crash_point),
            wal_commits: core_counters.0,
            wal_fsyncs: core_counters.1,
            wal_bytes: core_counters.2,
            wal_path: config.wal_path.clone(),
            checkpoint_every: config.checkpoint_every,
            checkpoint: Mutex::new(None),
            wal_checkpoints: AtomicU64::new(0),
            wal_truncations: AtomicU64::new(0),
        });
        let daemon_core = Arc::clone(&core);
        let handle = std::thread::Builder::new()
            .name("mdts-wal".into())
            .spawn(move || daemon(daemon_core, writer, journal))?;
        Ok(Durability { core, encode: wal::encode_commit::<V>, handle: Some(handle) })
    }
}

impl<V> Durability<V> {
    /// Frames `tx`'s commit record (minus Thomas-skipped items) into the
    /// open epoch, assigns its LSN, and kicks the daemon. Returns the
    /// epoch to wait on. Called with the write-set store shards held, so
    /// log order equals apply order on every item; the encode itself
    /// writes into the long-lived epoch buffer (no steady-state
    /// allocation).
    pub(crate) fn enqueue(&self, tx: TxId, writes: &[(ItemId, V)], skip: &[ItemId]) -> u64 {
        let mut st = lock(&self.core.state);
        let opened = !st.begun;
        if opened {
            let epoch = st.epoch;
            wal::encode_epoch_begin(&mut st.frames, epoch);
            st.begun = true;
        }
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        let epoch = st.epoch;
        (self.encode)(&mut st.frames, lsn, tx, writes, skip);
        st.commits += 1;
        drop(st);
        self.core.wal_commits.fetch_add(1, Ordering::Relaxed);
        // The daemon only sleeps on `tick` when no epoch is open (it is
        // mid-fsync otherwise and will swap this epoch out on its next
        // loop), so only the commit that opened the epoch needs to kick
        // it — later commits in the same epoch skip the syscall.
        if opened {
            self.core.tick.notify_one();
        }
        epoch
    }

    /// Parks until `epoch` is fsynced (true) or the log has crashed
    /// (false: the commit is applied in memory but was never
    /// acknowledged — [`crate::TxError::DurabilityUnknown`]).
    pub(crate) fn wait_durable(&self, epoch: u64) -> bool {
        loop {
            if self.core.durable_epoch.load(Ordering::Acquire) >= epoch {
                return true;
            }
            if self.core.crashed.load(Ordering::Acquire) {
                return false;
            }
            // Lost-wakeup argument: the daemon publishes `durable_epoch`
            // (or `crashed`) *before* taking the waiters lock to drain,
            // so a re-check under the lock here either sees the publish
            // (return without parking) or this registration strictly
            // precedes the daemon's drain, which will unpark us. A
            // spurious `park` return just re-runs the loop; the stale
            // list entry costs one extra token, never a lost waiter.
            {
                let mut w = lock(&self.core.waiters);
                if self.core.durable_epoch.load(Ordering::Acquire) >= epoch {
                    return true;
                }
                if self.core.crashed.load(Ordering::Acquire) {
                    return false;
                }
                w.push((epoch, std::thread::current()));
            }
            std::thread::park();
        }
    }

    /// Flushes the open epoch (if any) and waits for it; returns whether
    /// everything enqueued so far is durable.
    pub(crate) fn sync(&self) -> bool {
        let target = {
            let st = lock(&self.core.state);
            if st.begun {
                st.epoch
            } else {
                st.epoch - 1
            }
        };
        self.core.tick.notify_one();
        self.wait_durable(target)
    }

    /// Highest fsynced epoch (0 before the first).
    pub(crate) fn durable_epoch(&self) -> u64 {
        self.core.durable_epoch.load(Ordering::Acquire)
    }

    /// Whether the log halted on an append failure or injected crash.
    pub(crate) fn crashed(&self) -> bool {
        self.core.crashed.load(Ordering::Acquire)
    }

    /// Fills the log's rows of the metrics table: its cumulative
    /// counters, and the durable epoch, the bytes framed into the open
    /// epoch but not yet handed to the daemon, and the checkpoint figures.
    pub(crate) fn sample(&self, snap: &mut MetricsSnapshot) {
        let core = &self.core;
        snap.wal_commits = core.wal_commits.load(Ordering::Relaxed);
        snap.wal_fsyncs = core.wal_fsyncs.load(Ordering::Relaxed);
        snap.wal_bytes = core.wal_bytes.load(Ordering::Relaxed);
        let g = &mut snap.gauges;
        g.wal_durable_epoch = self.durable_epoch();
        g.wal_pending_bytes = lock(&core.state).frames.len() as u64;
        g.wal_checkpoints = core.wal_checkpoints.load(Ordering::Relaxed);
        g.wal_truncations = core.wal_truncations.load(Ordering::Relaxed);
    }

    /// Arms a crash-injection site; the daemon applies it before its
    /// next append.
    pub(crate) fn set_crash_point(&self, point: CrashPoint) {
        *lock(&self.core.crash) = point;
    }

    /// Installs the snapshot encoder the daemon's checkpoint rotation
    /// uses. Without one (or with `checkpoint_every == 0`) the log only
    /// ever grows.
    pub(crate) fn install_checkpoint(&self, f: CheckpointFn) {
        *lock(&self.core.checkpoint) = Some(f);
    }
}

impl<V> Drop for Durability<V> {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.tick.notify_one();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Journals the trace slice below the buffer's current watermark:
/// everything with `seq < next_seq()` is fully inserted (the sink takes
/// sequence numbers inside the lane lock), so consecutive slices form a
/// gapless prefix of the decision trace.
fn journal_slice(
    mark: &mut u64,
    buffer: &TraceBuffer,
    file: &mut File,
    text: &mut String,
) -> io::Result<()> {
    let hi = buffer.next_seq();
    if hi <= *mark {
        return Ok(());
    }
    text.clear();
    for record in buffer.records_since(*mark) {
        if record.seq >= hi {
            continue;
        }
        text.push_str(&export::record_json(&record).render());
        text.push('\n');
    }
    file.write_all(text.as_bytes())?;
    file.sync_data()?;
    *mark = hi;
    Ok(())
}

/// The group-commit daemon: swap the open epoch out under the mutex,
/// journal the trace slice, seal, append, fsync, publish, notify.
fn daemon(core: Arc<Core>, mut writer: WalWriter, mut journal: Option<(Arc<TraceBuffer>, File)>) {
    let mut spare: Vec<u8> = Vec::new();
    let mut mark = 0u64;
    let mut text = String::new();
    let mut since_checkpoint = 0u64;
    loop {
        let (mut frames, epoch, commits) = {
            let mut st = lock(&core.state);
            loop {
                if st.begun {
                    break;
                }
                if core.shutdown.load(Ordering::Acquire) {
                    drop(st);
                    // Final journal slice: events emitted after the last
                    // epoch (aborts, telemetry) still reach the file.
                    if let Some((buffer, file)) = journal.as_mut() {
                        let _ = journal_slice(&mut mark, buffer, file, &mut text);
                    }
                    return;
                }
                let (g, _) = core
                    .tick
                    .wait_timeout(st, core.interval)
                    .unwrap_or_else(PoisonError::into_inner);
                st = g;
            }
            // Double-buffer: the committers keep filling `spare` (now
            // installed as the open buffer) while this epoch fsyncs.
            let frames = std::mem::replace(&mut st.frames, std::mem::take(&mut spare));
            let epoch = st.epoch;
            let commits = st.commits;
            st.epoch += 1;
            st.commits = 0;
            st.begun = false;
            (frames, epoch, commits)
        };
        // Journal before the WAL fsync: every transaction whose commit
        // becomes durable below has its commit event on disk first.
        let mut halted = false;
        if let Some((buffer, file)) = journal.as_mut() {
            halted = journal_slice(&mut mark, buffer, file, &mut text).is_err();
        }
        writer.set_crash_point(*lock(&core.crash));
        let seal = wal::encode_epoch_seal(&mut frames, epoch, commits);
        let total = frames.len() as u64;
        let acked = !halted && writer.append_epoch(&frames, seal).unwrap_or(false);
        if acked {
            core.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            core.wal_bytes.fetch_add(total, Ordering::Relaxed);
            // Publish before draining: see the lost-wakeup argument in
            // `wait_durable`. Only waiters at or below the sealed epoch
            // wake; pipelined next-epoch waiters stay parked.
            core.durable_epoch.store(epoch, Ordering::Release);
            let mut w = lock(&core.waiters);
            w.retain(|(e, t)| {
                if *e <= epoch {
                    t.unpark();
                    false
                } else {
                    true
                }
            });
        } else {
            // Injected crash or real I/O failure: the log is halted.
            // Everything already fsynced stays acknowledged; every
            // later waiter learns its durability is unknown.
            core.crashed.store(true, Ordering::Release);
            for (_, t) in lock(&core.waiters).drain(..) {
                t.unpark();
            }
            return;
        }
        frames.clear();
        spare = frames;
        since_checkpoint += 1;
        if core.checkpoint_every > 0
            && since_checkpoint >= core.checkpoint_every
            && rotate(&core, &mut writer, epoch)
        {
            since_checkpoint = 0;
        }
    }
}

/// Checkpoint-and-truncate: writes a fresh log holding one sealed epoch
/// — the committed store under [`CHECKPOINT_TX`] — and atomically
/// renames it over the live file, then swaps the daemon's writer to it.
/// Returns whether the rotation completed (a failure leaves the old log
/// in place and just means rotation is retried after the next epoch).
///
/// The new file's checkpoint epoch reuses `sealed_epoch` — the number
/// just fsynced — so the still-open epoch (`sealed_epoch + 1`) appends
/// to the new file with the monotonicity the recovery scan demands.
///
/// Snapshot consistency: the checkpoint's LSN is consumed under the
/// epoch-buffer mutex *before* the snapshot closure runs. Every commit
/// framed earlier holds all its write-set store shards from enqueue
/// through apply, so the per-shard snapshot observes it in full; any
/// commit framed later lands in an epoch at or past `sealed_epoch + 1`
/// with a higher LSN and replays after the checkpoint regardless of how
/// much of it the snapshot caught.
fn rotate(core: &Core, writer: &mut WalWriter, sealed_epoch: u64) -> bool {
    let mut cp = lock(&core.checkpoint);
    let Some(encode_checkpoint) = cp.as_mut() else {
        return false;
    };
    let lsn = {
        let mut st = lock(&core.state);
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        lsn
    };
    let mut frames = Vec::new();
    wal::encode_epoch_begin(&mut frames, sealed_epoch);
    if !encode_checkpoint(&mut frames, lsn) {
        // The engine is gone (shutdown race): keep the old log.
        return false;
    }
    let seal = wal::encode_epoch_seal(&mut frames, sealed_epoch, 1);
    let tmp = core.wal_path.with_extension("rotate");
    let swapped = (|| -> io::Result<bool> {
        let mut w = WalWriter::create(&tmp)?;
        if !w.append_epoch(&frames, seal)? {
            return Ok(false);
        }
        // The rename is the commit point: before it a crash recovers the
        // old full log, after it the checkpointed one. Then best-effort
        // fsync of the directory so the rename itself is durable.
        std::fs::rename(&tmp, &core.wal_path)?;
        if let Some(dir) = core.wal_path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        *writer = w;
        Ok(true)
    })()
    .unwrap_or(false);
    if swapped {
        core.wal_checkpoints.fetch_add(1, Ordering::Relaxed);
        core.wal_truncations.fetch_add(1, Ordering::Relaxed);
        core.wal_bytes.fetch_add(frames.len() as u64, Ordering::Relaxed);
    } else {
        std::fs::remove_file(&tmp).ok();
    }
    swapped
}
