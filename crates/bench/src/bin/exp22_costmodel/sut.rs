//! The system under test, and the only module of the benchmark that
//! names a `mdts-*` crate. A later change to how a `Database` is built
//! (ROADMAP item 2) or to where Algorithm 1 lives (item 3) edits this
//! file and nothing else in the directory.
//!
//! Public functions driven, by layer:
//!
//! * engine — `bank_database_multiversion`, `bank_database_durable`,
//!   `bank_database`, `Database::{with_store_multiversion_traced,
//!   run_with_footprint, run, run_read_only, metrics, set_phase_timing,
//!   snapshot, sync}`, `Tx::{read, write}`, `SnapshotTx::read`,
//!   `ShardedMtCc::{with_options, attach_trace}`, `BasicToCc::new`,
//!   `MtCc::new`, `MvToCc::new`, `DurabilityConfig::new`;
//! * core — `SharedMtScheduler::{new, begin, begin_restarted,
//!   warm_probes, read, write, stamp_commit, commit, abort,
//!   snapshot_read, snapshot_newest_visible, ts}`;
//! * vector — `TsVec::compare`, `SimdComparator::compare`,
//!   `OrderCache::{new, epoch, insert, get}`;
//! * storage — `ShardedStore::{with_items, shard_index, lock_shard,
//!   get_cloned, set}`, `ConcurrentMvStore::{new, begin_snapshot,
//!   install, with_chain}`, `wal::{encode_epoch_begin, encode_commit,
//!   encode_epoch_seal}`, `WalWriter::{create, append_epoch}`, `recover`;
//! * trace — `TraceBuffer::journal`, `TraceSink::to`, `audit`, `Json`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mdts_core::{MtOptions, SharedMtScheduler, SnapshotRead};
use mdts_engine::{
    bank_database, bank_database_durable, bank_database_multiversion, BankConfig, BasicToCc,
    Database, DurabilityConfig, MtCc, MvToCc, ShardedMtCc,
};
use mdts_model::{ItemId, TxId};
use mdts_storage::{wal, ConcurrentMvStore, ShardedStore, Store, WalWriter, DEFAULT_STORE_SHARDS};
use mdts_trace::{TraceBuffer, TraceSink};
use mdts_vector::{CmpResult, OrderCache, SimdComparator, TsVec};

pub use mdts_trace::Json;

use crate::spans::{Kind, Probe};
use crate::spec::{INITIAL_BALANCE, K, MAX_RESTARTS};

/// Runtime knobs the program reads from the environment; cleared at
/// start so a run measures the defaults whatever shell launched it.
pub const ENV_KNOBS: [&str; 4] =
    ["MDTS_ADMIT_MODE", "MDTS_ADMIT_BATCH", "MDTS_REPLAY_THREADS", "MDTS_SIMD"];

pub fn clear_env_knobs() {
    for knob in ENV_KNOBS {
        std::env::remove_var(knob);
    }
}

/// The protocols the same inputs are also driven through, as the cost
/// floor and the alternatives ROADMAP items 2–3 weigh.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Baseline {
    /// Basic timestamp ordering with the Thomas write rule, serialized.
    To1,
    /// The sequential MT(3) scheduler behind the engine's protocol mutex.
    SerializedMt,
    /// Reed's multiversion timestamp ordering, serialized.
    Mvto,
}

macro_rules! counters {
    ($($name:ident),* $(,)?) => {
        /// Cumulative counts read from `Database::metrics()`.
        #[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
        pub struct Counters { $(pub $name: u64),* }

        impl Counters {
            /// The activity since `prev`.
            pub fn since(&self, prev: &Counters) -> Counters {
                Counters { $($name: self.$name.saturating_sub(prev.$name)),* }
            }

            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($name: self.$name + other.$name),* }
            }

            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name)),*]
            }
        }
    };
}

counters! {
    commits, aborts, restarts, reads, writes, snapshot_txns, snapshot_reads, blocked_waits,
    access_aborts, validation_aborts, gave_up, order_cache_hits, order_cache_misses,
    batched_compares, wal_commits, wal_fsyncs, wal_bytes,
    phase_admission_ns, phase_block_wait_ns, phase_chain_walk_ns, phase_backoff_ns,
    phase_commit_ns, phase_fsync_wait_ns,
    epoch_flushes, mv_pruned, probe_batches, chain_batches, batches_le2,
    admit_batches, admit_txns, admit_parked, admit_prewarm_pairs,
}

/// Point-in-time levels read from `Database::gauges()`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Levels {
    pub mv_versions: u64,
    pub mv_max_chain: u64,
    pub live_rows: u64,
    pub row_chunks: u64,
}

/// A database under test: the default serving engine, or a baseline.
#[derive(Clone)]
pub struct Db {
    inner: Database<i64>,
    accounts: u32,
}

fn bank_config(accounts: u32) -> BankConfig {
    BankConfig { accounts, initial_balance: INITIAL_BALANCE, ..BankConfig::default() }
}

impl Db {
    /// The default serving engine: sharded MV-MT(3), order cache on,
    /// default admission.
    pub fn open_memory(accounts: u32) -> Db {
        Db { inner: bank_database_multiversion(K, &bank_config(accounts)), accounts }
    }

    /// The same engine with a write-ahead log at `wal_path` (1 ms
    /// heartbeat, no checkpointing): a commit returns once its epoch is
    /// fsynced.
    pub fn open_durable(accounts: u32, wal_path: &Path) -> std::io::Result<Db> {
        let (inner, _) = bank_database_durable(
            K,
            &bank_config(accounts),
            TraceSink::disabled(),
            &DurabilityConfig::new(wal_path),
        )?;
        Ok(Db { inner, accounts })
    }

    pub fn open_baseline(which: Baseline, accounts: u32) -> Db {
        let cfg = bank_config(accounts);
        let inner = match which {
            Baseline::To1 => bank_database(Box::new(BasicToCc::new(true)), &cfg),
            Baseline::SerializedMt => bank_database(Box::new(MtCc::new(K)), &cfg),
            Baseline::Mvto => bank_database(Box::new(MvToCc::new()), &cfg),
        };
        Db { inner, accounts }
    }

    /// The default engine with the full decision-trace journal attached
    /// (protocol and engine events in one buffer), for [`Audit::verdict`].
    pub fn open_audited(accounts: u32) -> (Db, Audit) {
        let buffer = TraceBuffer::journal();
        let mut cc = ShardedMtCc::with_options(MtOptions {
            starvation_flush: true,
            order_cache: true,
            ..MtOptions::new(K)
        });
        cc.attach_trace(TraceSink::to(&buffer));
        let inner = Database::with_store_multiversion_traced(
            cc,
            Store::with_items(accounts, INITIAL_BALANCE),
            TraceSink::to(&buffer),
        );
        (Db { inner, accounts }, Audit { buffer })
    }

    /// One transfer of one unit from `src` to `dst` — R, R, W, W with the
    /// footprint declared — spinning `spin` iterations between the reads
    /// and the writes. Returns whether it was acknowledged. `probe`
    /// marks every boundary crossed into the engine.
    #[inline]
    pub fn transfer<P: Probe>(&self, src: u32, dst: u32, spin: u32, probe: &mut P) -> bool {
        let (src, dst) = (ItemId(src), ItemId(dst));
        let mut attempts = 0u32;
        let result = self.inner.run_with_footprint(MAX_RESTARTS, &[src, dst], |tx| {
            probe.mark(if attempts == 0 { Kind::Admit } else { Kind::Retry });
            attempts += 1;
            let a = tx.read(src);
            probe.mark(Kind::Read);
            let a = a?.unwrap_or(0);
            let b = tx.read(dst);
            probe.mark(Kind::Read);
            let b = b?.unwrap_or(0);
            if spin > 0 {
                for i in 0..spin {
                    black_box(i);
                }
                probe.mark(Kind::Body);
            }
            let w = tx.write(src, a - 1);
            probe.mark(Kind::Write);
            w?;
            let w = tx.write(dst, b + 1);
            probe.mark(Kind::Write);
            w
        });
        probe.call_end(if result.is_ok() { Kind::Commit } else { Kind::Retry });
        result.is_ok()
    }

    /// A read-only scan summing `items`: a snapshot transaction on the
    /// multiversion engine, an ordinary retried transaction on a
    /// baseline. `None` when the call failed.
    #[inline]
    pub fn scan<P: Probe>(
        &self,
        items: impl Iterator<Item = u32> + Clone,
        probe: &mut P,
    ) -> Option<i64> {
        let sum = if self.inner.has_multiversion() {
            Some(self.inner.run_read_only(|tx| {
                probe.mark(Kind::Admit);
                let mut sum = 0i64;
                for item in items {
                    sum += tx.read(ItemId(item)).unwrap_or(0);
                    probe.mark(Kind::SnapshotRead);
                }
                sum
            }))
        } else {
            let mut attempts = 0u32;
            self.inner
                .run(MAX_RESTARTS, |tx| {
                    probe.mark(if attempts == 0 { Kind::Admit } else { Kind::Retry });
                    attempts += 1;
                    let mut sum = 0i64;
                    for item in items.clone() {
                        let v = tx.read(ItemId(item));
                        probe.mark(Kind::Read);
                        sum += v?.unwrap_or(0);
                    }
                    Ok(sum)
                })
                .ok()
        };
        probe.call_end(if sum.is_some() { Kind::Commit } else { Kind::Retry });
        sum
    }

    pub fn accounts(&self) -> u32 {
        self.accounts
    }

    /// Turns the program's own phase timers on or off.
    pub fn set_phase_timing(&self, on: bool) {
        self.inner.set_phase_timing(on);
    }

    /// Waits until everything committed so far is durable.
    pub fn sync(&self) -> bool {
        self.inner.sync()
    }

    /// Committed balances, ascending by account.
    pub fn balances(&self) -> Vec<(u32, i64)> {
        self.inner.snapshot().into_iter().map(|(item, v)| (item.0, v)).collect()
    }

    /// Deposits `amount` into `account` out of nowhere, which breaks
    /// conservation: the tests use it to show that a wrong output fails
    /// the run.
    #[cfg(test)]
    pub fn deposit(&self, account: u32, amount: i64) {
        let item = ItemId(account);
        self.inner
            .run(MAX_RESTARTS, |tx| {
                let v = tx.read(item)?.unwrap_or(0);
                tx.write(item, v + amount)
            })
            .expect("an uncontended deposit commits");
    }

    /// Every count and level the program publishes, in one reading.
    pub fn observe(&self) -> (Counters, Levels) {
        let m = self.inner.metrics();
        let g = m.gauges;
        let phase = |p: mdts_engine::Phase| m.phases.total_ns[p as usize];
        let counters = Counters {
            commits: m.commits,
            aborts: m.aborts,
            restarts: m.restarts,
            reads: m.reads,
            writes: m.writes,
            snapshot_txns: m.snapshot_txns,
            snapshot_reads: m.snapshot_reads,
            blocked_waits: m.blocked_waits,
            access_aborts: m.access_aborts,
            validation_aborts: m.validation_aborts,
            gave_up: m.gave_up,
            order_cache_hits: m.order_cache_hits,
            order_cache_misses: m.order_cache_misses,
            batched_compares: m.batched_compares,
            wal_commits: m.wal_commits,
            wal_fsyncs: m.wal_fsyncs,
            wal_bytes: m.wal_bytes,
            phase_admission_ns: phase(mdts_engine::Phase::Admission),
            phase_block_wait_ns: phase(mdts_engine::Phase::BlockWait),
            phase_chain_walk_ns: phase(mdts_engine::Phase::ChainWalk),
            phase_backoff_ns: phase(mdts_engine::Phase::Backoff),
            phase_commit_ns: phase(mdts_engine::Phase::Commit),
            phase_fsync_wait_ns: phase(mdts_engine::Phase::FsyncWait),
            epoch_flushes: g.order_cache_epoch_flushes,
            mv_pruned: g.mv_pruned,
            probe_batches: g.batched_probe_batches,
            chain_batches: g.batched_chain_batches,
            batches_le2: g.batched_size_buckets[0] + g.batched_size_buckets[1],
            admit_batches: g.admit_batches,
            admit_txns: g.admit_batched_txns,
            admit_parked: g.admit_parked,
            admit_prewarm_pairs: g.admit_prewarm_pairs,
        };
        let levels = Levels {
            mv_versions: g.mv_versions,
            mv_max_chain: g.mv_max_chain,
            live_rows: g.sched_live_rows,
            row_chunks: g.sched_row_chunks,
        };
        (counters, levels)
    }
}

/// The journal of an audited database.
pub struct Audit {
    buffer: std::sync::Arc<TraceBuffer>,
}

impl Audit {
    /// Re-derives every recorded decision and the committed prefix's
    /// TO(k) membership; `Err` carries the auditor's summary.
    pub fn verdict(self) -> Result<usize, String> {
        let report = mdts_trace::audit(&self.buffer.drain(), K);
        if report.is_clean() {
            Ok(report.decisions)
        } else {
            Err(report.summary())
        }
    }
}

/// What a cold recovery of a log found.
#[derive(Clone, Debug)]
pub struct Recovery {
    pub balances: Vec<(u32, i64)>,
    pub replayed_commits: u64,
    pub dropped_commits: u64,
    pub unsealed_tail: bool,
    pub malformed: bool,
    pub elapsed_ns: u64,
}

/// Replays the log at `path` into a fresh store, as a restart would.
pub fn recover(path: &Path) -> std::io::Result<Recovery> {
    let start = Instant::now();
    let recovered = mdts_storage::recover::<i64>(path)?;
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let r = recovered.report;
    Ok(Recovery {
        balances: recovered.store.iter().map(|(item, v)| (item.0, *v)).collect(),
        replayed_commits: r.replayed_commits,
        dropped_commits: r.dropped_commits,
        unsealed_tail: r.unsealed_tail,
        malformed: r.malformed,
        elapsed_ns,
    })
}

/// Layer replay: the layers under the engine — scheduler, value store,
/// version store — driven with the call sequence the engine makes for
/// the same operation stream, single-threaded, with no engine above
/// them. Every call is a tile of its own layer.
pub struct Layers {
    sched: SharedMtScheduler,
    store: ShardedStore<i64>,
    mv: ConcurrentMvStore<Option<i64>>,
    next_id: u32,
    pairs: Vec<(ItemId, TxId)>,
    pub commits: u64,
    pub aborts: u64,
}

impl Layers {
    pub fn new(accounts: u32) -> Layers {
        Layers {
            sched: SharedMtScheduler::new(MtOptions {
                starvation_flush: true,
                order_cache: true,
                ..MtOptions::new(K)
            }),
            store: ShardedStore::with_items(accounts, INITIAL_BALANCE, DEFAULT_STORE_SHARDS),
            mv: ConcurrentMvStore::new(),
            next_id: 0,
            pairs: Vec::with_capacity(2),
            commits: 0,
            aborts: 0,
        }
    }

    fn fresh_id(&mut self) -> TxId {
        self.next_id += 1;
        TxId(self.next_id)
    }

    /// The engine's transfer, layer by layer: begin (a restart also
    /// prewarms its footprint), two reads each followed by the value
    /// fetch, commit-time validation of both writes in item order, the
    /// commit stamp, a version install and a value store per write, and
    /// the commit — or an abort and another incarnation.
    pub fn transfer<P: Probe>(&mut self, src: u32, dst: u32, probe: &mut P) -> bool {
        let (src, dst) = (ItemId(src), ItemId(dst));
        let mut prev: Option<TxId> = None;
        for _ in 0..=MAX_RESTARTS {
            let id = self.fresh_id();
            match prev {
                Some(aborted) => {
                    self.sched.begin_restarted(id, aborted);
                    self.pairs.clear();
                    self.pairs.extend([(src, id), (dst, id)]);
                    self.sched.warm_probes(&mut self.pairs);
                }
                None => self.sched.begin(id),
            }
            probe.mark(Kind::CoreBegin);
            if let Some(writes) = self.attempt(id, src, dst, probe) {
                let stamp = self.sched.stamp_commit(id);
                probe.mark(Kind::CoreCommit);
                for (item, value) in writes {
                    let pre = self.store.get_cloned(item);
                    probe.mark(Kind::StoreGet);
                    self.mv.install(item, id, stamp.clone(), Some(value), || pre);
                    probe.mark(Kind::MvInstall);
                    self.store.set(item, value);
                    probe.mark(Kind::StoreSet);
                }
                self.sched.commit(id);
                probe.call_end(Kind::CoreCommit);
                self.commits += 1;
                return true;
            }
            self.sched.abort(id);
            probe.mark(Kind::CoreAbort);
            self.aborts += 1;
            prev = Some(id);
        }
        probe.call_end(Kind::CoreAbort);
        false
    }

    /// Reads and validation of one incarnation; the writes to apply when
    /// every access was granted (Thomas-ignored ones left out).
    fn attempt<P: Probe>(
        &self,
        id: TxId,
        src: ItemId,
        dst: ItemId,
        probe: &mut P,
    ) -> Option<impl Iterator<Item = (ItemId, i64)>> {
        let mut balance = [0i64; 2];
        for (slot, item) in [src, dst].into_iter().enumerate() {
            let granted = self.sched.read(id, item).is_accept();
            probe.mark(Kind::CoreRead);
            if !granted {
                return None;
            }
            balance[slot] = self.store.get_cloned(item).unwrap_or(0);
            probe.mark(Kind::StoreGet);
        }
        let mut writes = [(src, balance[0] - 1), (dst, balance[1] + 1)];
        writes.sort_by_key(|(item, _)| *item);
        let mut skip: Vec<ItemId> = Vec::new();
        for (item, _) in writes {
            let decision = self.sched.write(id, item);
            probe.mark(Kind::CoreWrite);
            match decision {
                mdts_core::Decision::Accept { ignored } => skip.extend(ignored),
                mdts_core::Decision::Reject(_) => return None,
            }
        }
        Some(writes.into_iter().filter(move |(item, _)| !skip.contains(item)))
    }

    /// The engine's snapshot scan, layer by layer: begin, register the
    /// snapshot, then per item the scheduler's verdict and either the
    /// current value or a walk down the version chain; commit.
    pub fn scan<P: Probe>(&mut self, items: impl Iterator<Item = u32>, probe: &mut P) -> i64 {
        let id = self.fresh_id();
        self.sched.begin(id);
        probe.mark(Kind::CoreBegin);
        let guard = self.mv.begin_snapshot();
        probe.mark(Kind::MvChainRead);
        let mut sum = 0i64;
        for item in items.map(ItemId) {
            let verdict = self.sched.snapshot_read(id, item);
            probe.mark(Kind::CoreSnapshotRead);
            let older = match verdict {
                SnapshotRead::Current => None,
                SnapshotRead::Older => {
                    let sched = &self.sched;
                    let version = self.mv.with_chain(item, |chain| {
                        sched
                            .snapshot_newest_visible(
                                id,
                                chain.len(),
                                |i| &chain[i].stamp,
                                |i| chain[i].writer,
                            )
                            .map(|i| chain[i].value)
                    });
                    probe.mark(Kind::MvChainRead);
                    version
                }
            };
            sum += match older {
                Some(value) => value.unwrap_or(0),
                None => {
                    let value = self.store.get_cloned(item).unwrap_or(0);
                    probe.mark(Kind::StoreGet);
                    value
                }
            };
        }
        self.sched.commit(id);
        probe.call_end(Kind::CoreCommit);
        drop(guard);
        self.commits += 1;
        sum
    }

    pub fn total_balance(&self) -> i64 {
        self.store.snapshot().values().sum()
    }

    /// Timestamp vectors of up to `max` of the most recent transactions
    /// that still have a live row, as the scheduler left them.
    pub fn sample_vectors(&self, max: usize) -> Vectors {
        let ids = (1..=self.next_id).rev().take(max * 64);
        Vectors(ids.filter_map(|id| self.sched.ts(TxId(id))).take(max).collect())
    }
}

/// Vectors sampled from a scheduler, for the `vector` layer's figures
/// (each ns per call, over `calls` calls cycling through the sample).
pub struct Vectors(Vec<TsVec>);

impl Vectors {
    fn per_call(&self, calls: usize, mut f: impl FnMut(&TsVec, &TsVec, usize)) -> f64 {
        let n = self.0.len();
        if n < 2 {
            return 0.0;
        }
        let start = Instant::now();
        for i in 0..calls {
            f(&self.0[i % n], &self.0[(i + 1) % n], i);
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    }

    /// `TsVec::compare` (the one-word scalar path at k = 3).
    pub fn compare_ns(&self, calls: usize) -> f64 {
        self.per_call(calls, |a, b, _| {
            black_box(black_box(a).compare(black_box(b)));
        })
    }

    /// `SimdComparator::compare` at the tier the host resolved.
    pub fn simd_compare_ns(&self, calls: usize) -> f64 {
        self.per_call(calls, |a, b, _| {
            black_box(SimdComparator::compare(black_box(a), black_box(b)));
        })
    }

    /// `OrderCache::insert` of decided orders over distinct id pairs,
    /// then `OrderCache::get` on the pairs just inserted (all hits while
    /// `calls` stays below the table's 65,536 slots).
    pub fn ordercache_ns(&self, calls: usize) -> (f64, f64) {
        let cache = OrderCache::new();
        let epoch = cache.epoch();
        let decided = CmpResult::Less { at: 0 };
        let insert = self.per_call(calls, |_, _, i| {
            cache.insert(epoch, i as u32 + 1, i as u32 + 2, black_box(decided));
        });
        let get = self.per_call(calls, |_, _, i| {
            black_box(cache.get(i as u32 + 1, i as u32 + 2));
        });
        (insert, get)
    }
}

/// The log layer on its own: `encode_commit` per two-write record, and
/// `append_epoch` (write + fsync) per epoch of `commits_per_epoch`
/// records on the file system holding `path`. Returns ns per record and
/// ns per epoch.
pub fn wal_layer_ns(
    path: &Path,
    transfers: &[(u32, u32)],
    commits_per_epoch: usize,
) -> std::io::Result<(f64, f64)> {
    let per_epoch = commits_per_epoch.max(1);
    let mut frames: Vec<u8> = Vec::with_capacity(64 * per_epoch + 64);
    let mut writer = WalWriter::create(path)?;
    let (mut encode_ns, mut append_ns, mut epochs, mut lsn) = (0u64, 0u64, 0u64, 0u64);
    for (n, chunk) in transfers.chunks(per_epoch).enumerate() {
        let epoch = n as u64 + 1;
        frames.clear();
        wal::encode_epoch_begin(&mut frames, epoch);
        let start = Instant::now();
        for &(src, dst) in chunk {
            lsn += 1;
            let writes = [(ItemId(src), INITIAL_BALANCE - 1), (ItemId(dst), INITIAL_BALANCE + 1)];
            wal::encode_commit(&mut frames, lsn, TxId(lsn as u32), &writes, &[]);
        }
        encode_ns += start.elapsed().as_nanos() as u64;
        let seal = wal::encode_epoch_seal(&mut frames, epoch, chunk.len() as u64);
        let start = Instant::now();
        if !writer.append_epoch(&frames, seal)? {
            return Err(std::io::Error::other("the log writer refused an epoch"));
        }
        append_ns += start.elapsed().as_nanos() as u64;
        epochs += 1;
    }
    Ok((encode_ns as f64 / lsn.max(1) as f64, append_ns as f64 / epochs.max(1) as f64))
}
