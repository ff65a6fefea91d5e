//! The executable transaction engine.
//!
//! Where the other crates treat the protocols as *log recognizers*, this
//! crate runs them: a [`Database`] holds the store and a protocol; client
//! threads run closures against transaction handles; aborted
//! transactions are rolled back and retried with fresh ids.
//!
//! Writes are **deferred** throughout, the paper's preferred scheme
//! (VI-C-2): every write goes to a transaction-private workspace, is
//! validated by the protocol at commit and only then applied.
//! Consequently no transaction ever observes uncommitted data — there are
//! no dirty reads, no cascading aborts, and a committed transaction can
//! never be undone.
//!
//! A database runs one of two engines, and neither has a global mutex.
//! Under [`Protocol::Multiversion`] (MV-MT(k), III-D-6d) the values live
//! in version chains whose per-item records also hold the MT(k) holders,
//! and the engine calls its concurrent sharded MT(k) scheduler
//! ([`mdts_core::SharedMtScheduler`], built by [`ShardedMtCc`]) directly:
//! item-sharded timestamp table, O(1) reclamation, and nothing that
//! waits. Under [`Protocol::Concurrent`] the values live in a
//! [`mdts_storage::ShardedStore`] and a mutex adapter — a sequential
//! scheduler behind one mutex of its own — implements [`ConcurrentCc`]:
//!
//! | adapter | protocol |
//! |---|---|
//! | [`MtCc`] | MT(k), with all [`mdts_core::MtOptions`] refinements |
//! | [`CompositeCc`] | MT(k⁺) with the paper's abort-all-and-restart rule |
//! | [`TwoPlCc`] | strict two-phase locking (blocking, deadlock victims) |
//! | [`BasicToCc`] | single-valued timestamp ordering |
//! | [`MvToCc`] | Reed-style multiversion timestamp ordering |
//! | [`OccCc`] | optimistic with backward validation |
//! | [`IntervalCc`] | Bayer-style dynamic timestamp intervals |
//!
//! A database is built one way, [`Database::open`] over a [`Protocol`].
//! The multiversion engine also serves **read-only snapshot
//! transactions** ([`Database::run_read_only`]): they never abort,
//! restart or block, and keep no protocol state but a read bound per
//! chain shard, which refuses at commit a writer ordered below a position
//! a reader already read at.
//!
//! [`Database::open_durable`] adds a [`DurabilityConfig`]: commits are
//! also framed into a group-commit **write-ahead log** and acknowledged
//! only once fsynced; a restart recovers the sealed epochs and an auditor
//! can certify the recovered state against the persisted decision-trace
//! journal.

pub mod cc;
pub mod db;
pub mod durability;
pub mod metrics;
pub(crate) mod sync;
pub mod wakeseq;
pub mod workload;

pub use cc::{
    BasicToCc, CommitDecision, CompositeCc, ConcurrentCc, IntervalCc, MtCc, MvToCc, OccCc, TwoPlCc,
    Verdict,
};
pub use db::{Database, Protocol, ShardedMtCc, SnapshotTx, Tx, TxError};
pub use durability::{DurabilityConfig, CHECKPOINT_TX};
pub use metrics::{
    EngineGauges, LatencySnapshot, MetricsSnapshot, Phase, PhaseSnapshot, PhaseTimers,
    COUNTER_KEYS, LATENCY_BUCKETS, PHASE_COUNT,
};
pub use workload::{
    bank_database, bank_database_durable, bank_database_multiversion, run_bank_mix,
    run_bank_mix_db, BankConfig, BankReport,
};

#[cfg(test)]
mod engine_tests;
