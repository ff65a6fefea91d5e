//! The executable transaction engine.
//!
//! Where the other crates treat the protocols as *log recognizers*, this
//! crate runs them: a [`Database`] holds the store and a pluggable
//! [`ConcurrencyControl`]; client threads run closures against
//! transaction handles; aborted transactions are rolled back and retried
//! with fresh ids.
//!
//! Writes are **deferred** throughout, the paper's preferred scheme
//! (VI-C-2): every write goes to a transaction-private workspace, is
//! validated by the protocol at commit and only then applied.
//! Consequently no transaction ever observes uncommitted data — there are
//! no dirty reads, no cascading aborts, and a committed transaction can
//! never be undone.
//!
//! The engine itself has **no global mutex**: values live in a
//! [`mdts_storage::ShardedStore`], write buffers are transaction-local,
//! and the protocol sits behind the [`ConcurrentCc`] interface — natively
//! concurrent for [`ShardedMtCc`], or any sequential
//! [`ConcurrencyControl`] wrapped in a [`SerializedCc`] mutex.
//!
//! Protocols available as [`ConcurrencyControl`] implementations:
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
//! …and natively concurrent, as [`ConcurrentCc`]:
//!
//! | adapter | protocol |
//! |---|---|
//! | [`ShardedMtCc`] | MT(k) on [`mdts_core::SharedMtScheduler`] — item-sharded timestamp table, O(1) reclamation |
//!
//! A database is built one way, [`Database::open`] over a [`Protocol`].
//! Under [`Protocol::Multiversion`] it also serves **read-only snapshot
//! transactions** from MV-MT(k) version chains
//! ([`Database::run_read_only`]): they never abort, restart or block
//! writers.
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
    BasicToCc, CommitDecision, CompositeCc, ConcurrencyControl, ConcurrentCc, IntervalCc, MtCc,
    MvToCc, OccCc, SerializedCc, ShardedMtCc, TwoPlCc, Verdict,
};
pub use db::{Database, Protocol, SnapshotTx, Tx, TxError};
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
