//! Database storage substrate for the transaction engine.
//!
//! The paper's rollback section (VI-C) sketches two schemes; both are
//! implemented here as reusable building blocks:
//!
//! * **Partial rollback** (VI-C-1): [`UndoLog`] records before-images with
//!   per-operation savepoints, so a transaction can roll back to the last
//!   point where serializability was still assured and keep its earlier
//!   computation.
//! * **Two-phase commit for writes** (VI-C-2): [`WriteBuffer`] keeps each
//!   transaction's writes in a private workspace invisible to everyone
//!   else; at commit the scheduler validates each buffered write and only
//!   then are the values applied. An abort of a not-yet-committed
//!   transaction therefore never affects others (no cascading aborts), and
//!   a committed transaction is never aborted.
//! * **Multiversion storage** (III-D-6d): [`ConcurrentMvStore`] keeps
//!   per-item version chains stamped with the writers' timestamp vectors,
//!   so snapshot readers can be served a consistent older version instead
//!   of aborting, and prunes each chain to what a live snapshot can reach;
//!   a chain no snapshot needs is its newest version, inline in the item's
//!   record.
//! * **Sharded value state**: [`ShardedStore`] stripes the single-version
//!   store over independently locked shards — each a flat table indexed
//!   by the item id's high bits — so the engine's reads and commits on
//!   disjoint items proceed in parallel instead of funnelling through one
//!   global mutex.
//! * **Durability** (ISSUE 9): [`wal`] is a binary redo log with
//!   per-record CRC framing, monotone LSNs and epoch (group-commit)
//!   frames; [`recovery`] replays every sealed epoch back into a
//!   [`Store`], discarding torn and unsealed tails.
//!
//! Values are generic (`Clone`); the engine instantiates with `i64` for
//! the bank-style examples and benchmarks.

pub mod mvstore;
pub mod recovery;
pub mod sharded;
pub mod store;
pub mod twophase;
pub mod undo;
pub mod wal;

pub use mvstore::{
    ChainShard, ConcurrentMvStore, MvStoreStats, MvVersion, SnapshotGuard, MV_CHAIN_LEN_BUCKETS,
};
pub use recovery::{recover, Recovered, RecoveryReport};
pub use sharded::{Shard, ShardGuard, ShardedStore, DEFAULT_STORE_SHARDS};
pub use store::Store;
pub use twophase::WriteBuffer;
pub use undo::{Savepoint, UndoLog};
pub use wal::{CrashPoint, ScanReport, WalPayload, WalValue, WalWriter};
