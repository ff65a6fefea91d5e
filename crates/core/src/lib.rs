//! The paper's primary contribution: the multidimensional timestamp
//! protocols **MT(k)** (Algorithm 1) and the composite **MT(k\*)**
//! (Algorithm 2) of Leu & Bhargava, *Multidimensional Timestamp Protocols
//! for Concurrency Control* (ICDE 1986).
//!
//! # The idea
//!
//! Every transaction `T_i` carries a k-dimensional timestamp vector
//! `TS(i)` whose elements start *undefined*. Each accepted operation may
//! discover a new dependency `T_j → T_i` (against the latest reader or
//! writer of the item); the dependency is *encoded* by defining one element
//! in each vector so that `TS(j) < TS(i)` under the lexicographic order of
//! Definition 6. Earlier-assigned elements are more significant, so
//! previously encoded dependencies can never be contradicted — an incoming
//! operation whose dependency would require `TS(j) < TS(i)` while the
//! vectors already say `TS(j) > TS(i)` is rejected. The class of logs
//! accepted, **TO(k)**, grows with the freedom the undefined elements
//! leave: vectors stay *equal* (mutually unordered) until a real conflict
//! forces an order — unlike single-valued timestamps, which fix a total
//! order at start time.
//!
//! # Entry points
//!
//! * [`MtScheduler`] — MT(k) as an online scheduler with the paper's
//!   optional refinements ([`MtOptions`]): the Thomas write rule
//!   (III-D-6c), the starvation-avoidance flush (III-D-4), the relaxed
//!   reader rule (noted after Theorem 3), and the hot-item right-end
//!   encoding (III-D-5). It and [`SharedMtScheduler`] instantiate the one
//!   statement of Algorithm 1, the [`algo1`] module: `Set`'s element
//!   choice and the access rule. Its [`OrderTable`](algo1::OrderTable),
//!   [`access`](algo1::access) and [`process`](algo1::process) are public,
//!   so the hierarchical MT(k₁, …, k_l) (`mdts-nested`) decides through
//!   the same rule over its per-level tables.
//! * [`NaiveComposite`] and [`SharedPrefixComposite`] — MT(k\*) both as the
//!   specification (k independent subprotocols) and as Algorithm 2's
//!   shared PREFIX/LASTCOL implementation; Theorem 5 says they coincide,
//!   and the test-suite checks it.
//! * [`recognize()`], [`to_k`], [`to_k_star`] — log-recognition helpers used
//!   by the class-hierarchy experiments (Fig. 4).
//! * [`MvMtScheduler`] — the multiversion extension of III-D-6d: version
//!   chains per item under the vector order; reads never abort.
//! * [`SharedMtScheduler`] — MT(k) behind `&self`: item-sharded `RT`/`WT`,
//!   per-slot-locked rows in a recycled [`RowTable`] arena behind a 4-byte
//!   id index, a write-once [`OrderCache`] for decided comparisons,
//!   lock-free k-th-column counters and O(1) refcount reclamation, for
//!   multi-threaded engines.
//!
//! [`OrderCache`]: mdts_vector::OrderCache

pub mod algo1;
pub mod composite;
pub mod mtk;
pub mod mvmt;
pub mod recognize;
pub mod rowtable;
pub mod shared;
pub mod sync;
pub mod table;

pub use composite::{NaiveComposite, SharedPrefixComposite};
pub use mtk::{Decision, HotEncoding, MtOptions, MtScheduler, Reject};
pub use mvmt::MvMtScheduler;
pub use recognize::{recognize, to_k, to_k_star, LogScheduler, Recognition};
pub use rowtable::{RowSlot, RowTable};
pub use shared::{
    BatchedCompareStats, HolderPair, SharedMtScheduler, SnapshotRead, BATCH_SIZE_BUCKETS,
};
pub use table::TimestampTable;

#[cfg(test)]
mod paper_examples;
#[cfg(test)]
mod protocol_props;
