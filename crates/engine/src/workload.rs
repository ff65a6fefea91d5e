//! A reusable concurrent bank-transfer workload: the engine-level
//! evaluation harness behind exp14/exp17 and the examples.
//!
//! Each transfer reads two accounts and moves one unit between them; an
//! optional fraction of transactions are read-only audits. The total
//! balance is a global invariant — any serializability violation shows up
//! as a changed total.

use std::time::Instant;

use mdts_model::ItemId;
use mdts_storage::Store;
use mdts_trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cc::ConcurrentCc;
use crate::db::{Database, Protocol, ShardedMtCc, TxError};
use crate::metrics::MetricsSnapshot;

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct BankConfig {
    /// Number of accounts.
    pub accounts: u32,
    /// Concurrent client threads.
    pub threads: usize,
    /// Transactions each thread issues.
    pub txns_per_thread: usize,
    /// Opening balance per account.
    pub initial_balance: i64,
    /// Zipf skew for account selection (0 = uniform; higher = hotter).
    pub zipf_theta: f64,
    /// Fraction of transactions that are read-only audits.
    pub read_only_fraction: f64,
    /// Accounts scanned by each read-only audit.
    pub scan_len: usize,
    /// Spin-loop iterations between the read phase and the write phase —
    /// widens the window in which transactions genuinely overlap, so the
    /// protocols' contention behavior (blocking, validation aborts)
    /// becomes visible.
    pub think: u32,
    /// Retry budget per transaction.
    pub max_restarts: usize,
    /// RNG seed (per-thread streams derived from it).
    pub seed: u64,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            accounts: 32,
            threads: 4,
            txns_per_thread: 200,
            initial_balance: 100,
            zipf_theta: 0.0,
            read_only_fraction: 0.2,
            scan_len: 4,
            think: 0,
            max_restarts: 64,
            seed: 42,
        }
    }
}

/// Outcome of one workload run.
#[derive(Clone, Debug)]
pub struct BankReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Engine counters at the end.
    pub metrics: MetricsSnapshot,
    /// Wall-clock seconds.
    pub elapsed_secs: f64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Transactions that exhausted their retry budget.
    pub gave_up: u64,
    /// Sum of all balances at the end.
    pub final_total: i64,
    /// What the sum must be (serializability invariant).
    pub expected_total: i64,
}

impl BankReport {
    /// Whether the invariant held.
    pub fn invariant_holds(&self) -> bool {
        self.final_total == self.expected_total
    }
}

/// Runs the workload against a fresh database (accounts pre-funded)
/// under `protocol`. Under [`Protocol::Multiversion`] the read-only audits
/// run as snapshot transactions ([`Database::run_read_only`]) and never
/// abort or restart.
pub fn run_bank_mix(protocol: impl Into<Protocol>, cfg: &BankConfig) -> BankReport {
    run_bank_mix_db(&Database::open(protocol, bank_store(cfg), TraceSink::disabled()), cfg)
}

/// The workload's pre-funded accounts.
fn bank_store(cfg: &BankConfig) -> Store<i64> {
    Store::with_items(cfg.accounts, cfg.initial_balance)
}

/// Builds the workload's database (accounts pre-funded) under `cc`,
/// without running anything — callers that need a handle before the run
/// (e.g. to attach a telemetry sampler) build here, then drive
/// [`run_bank_mix_db`].
pub fn bank_database(cc: Box<dyn ConcurrentCc>, cfg: &BankConfig) -> Database<i64> {
    Database::open(cc, bank_store(cfg), TraceSink::disabled())
}

/// The workload's database on the multiversion engine: MV-MT(k) over a
/// sharded MT(k) scheduler ([`ShardedMtCc::new`]).
pub fn bank_database_multiversion(k: usize, cfg: &BankConfig) -> Database<i64> {
    let protocol = Protocol::Multiversion(ShardedMtCc::new(k));
    Database::open(protocol, bank_store(cfg), TraceSink::disabled())
}

/// [`bank_database_multiversion`] with a **write-ahead log**: any sealed
/// epochs at the configured path are recovered over the pre-funded store
/// first, and every commit is acknowledged only after its group-commit
/// epoch is fsynced (exp20's crash harness and exp22's durable lane).
/// Pass a traced sink plus `durability.journal_path` to persist the
/// decision trace for post-crash certification.
pub fn bank_database_durable(
    k: usize,
    cfg: &BankConfig,
    trace: TraceSink,
    durability: &crate::DurabilityConfig,
) -> std::io::Result<(Database<i64>, mdts_storage::Recovered<i64>)> {
    let protocol = Protocol::Multiversion(ShardedMtCc::new(k));
    Database::open_durable(protocol, bank_store(cfg), trace, durability)
}

/// Runs the workload against a caller-built database (see
/// [`bank_database`] and friends). The expected-total invariant assumes
/// the store was seeded with `cfg.accounts × cfg.initial_balance`.
pub fn run_bank_mix_db(db: &Database<i64>, cfg: &BankConfig) -> BankReport {
    let protocol = db.protocol_name();
    let zipf = mdts_model::Zipf::new(cfg.accounts as usize, cfg.zipf_theta);

    let start = Instant::now();
    let gave_up = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let db = db.clone();
            let zipf = zipf.clone();
            let cfg = cfg.clone();
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9e37));
                let mut gave_up = 0u64;
                let mut who: Vec<ItemId> = Vec::with_capacity(cfg.scan_len);
                for _ in 0..cfg.txns_per_thread {
                    let result: Result<(), TxError> = if rng.gen_bool(cfg.read_only_fraction) {
                        who.clear();
                        who.extend((0..cfg.scan_len).map(|_| zipf.sample(&mut rng)));
                        if db.has_multiversion() {
                            // Snapshot lane: served from version chains,
                            // cannot abort or restart.
                            let sum = db.run_read_only(|tx| {
                                who.iter().map(|&a| tx.read(a).unwrap_or(0)).sum::<i64>()
                            });
                            std::hint::black_box(sum);
                            Ok(())
                        } else {
                            db.run(cfg.max_restarts, |tx| {
                                let mut sum = 0i64;
                                for &a in &who {
                                    sum += tx.read(a)?.unwrap_or(0);
                                }
                                std::hint::black_box(sum);
                                Ok(())
                            })
                        }
                    } else {
                        let src = zipf.sample(&mut rng);
                        let mut dst = zipf.sample(&mut rng);
                        while dst == src {
                            dst = zipf.sample(&mut rng);
                        }
                        db.run(cfg.max_restarts, |tx| {
                            let a = tx.read(src)?.unwrap_or(0);
                            let b = tx.read(dst)?.unwrap_or(0);
                            for i in 0..cfg.think {
                                std::hint::black_box(i);
                            }
                            tx.write(src, a - 1)?;
                            tx.write(dst, b + 1)?;
                            Ok(())
                        })
                    };
                    if result.is_err() {
                        gave_up += 1;
                    }
                }
                gave_up
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).sum::<u64>()
    });
    let elapsed_secs = start.elapsed().as_secs_f64();

    let metrics = db.metrics();
    let final_total: i64 = db.snapshot().values().sum();
    BankReport {
        protocol,
        metrics,
        elapsed_secs,
        throughput: metrics.commits as f64 / elapsed_secs.max(1e-9),
        gave_up,
        final_total,
        expected_total: cfg.accounts as i64 * cfg.initial_balance,
    }
}
