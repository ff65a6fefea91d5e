//! Multidimensional timestamp vectors (Leu & Bhargava, ICDE 1986).
//!
//! A transaction's timestamp is a vector `TS(i) = ⟨t₁, …, t_k⟩` whose
//! elements are integers or *undefined* (`*`). Vectors are compared
//! lexicographically, but — crucially — scanning stops at the first position
//! where the elements are not both defined and equal (Definition 6):
//!
//! * both defined, unequal → the vectors are strictly ordered;
//! * both undefined → the vectors are *equal* (still unordered — a future
//!   dependency may order them either way);
//! * exactly one undefined → the order is *open*: the protocol may encode a
//!   new dependency by defining the missing element above or below its
//!   counterpart.
//!
//! This crate provides:
//!
//! * [`TsVec`] and [`CmpResult`] — the vectors and Definition 6;
//! * [`KthCounters`] — the `ucount`/`lcount` discipline that keeps the k-th
//!   column globally distinct (Algorithm 1, line 4 and procedure `Set`),
//!   drawn through `&self` by the sequential and the concurrent scheduler
//!   alike;
//! * [`ScalarComparator`] — the O(k) sequential comparison;
//! * [`TreeComparator`] — the five-phase vector-processor comparison of
//!   Figs. 6–7, deciding with the scalar scan and costing its O(log k)
//!   parallel steps arithmetically. Every compare, the engine's and the MV
//!   chain walk's included, is the scalar [`TsVec::compare`];
//! * [`Stamp`] — a committed writer's saturated vector packed to its k
//!   values, and Definition 6 against it from a reader's mask alone (the
//!   MV chain's version stamps); [`StampView`] is its column 0, which the
//!   snapshot chain walk reads;
//! * [`interval_view`] — the Section VI-A reading of a vector as a shrinking
//!   timestamp interval;
//! * [`OrderCache`] — a concurrent memo table for *decided* strict orders,
//!   sound because elements are write-once (see `ordercache` module docs);
//! * [`CachePadded`] and [`Striped`] — placement for the words every
//!   transaction writes (see the `stripe` module docs).

pub mod compare;
pub mod counters;
pub mod interval;
pub mod ordercache;
pub mod stamp;
pub mod stripe;
pub(crate) mod sync;
pub mod tsvec;

/// The frozen cost-model harness's name for the scalar compare (it times
/// `SimdComparator::compare`); delete it with that harness's next change
/// (ROADMAP item 1(c)).
pub use compare::ScalarComparator as SimdComparator;
pub use compare::{CmpResult, ParallelCost, ScalarComparator, TreeComparator};
pub use counters::KthCounters;
pub use interval::interval_view;
pub use ordercache::{OrderCache, OrderCacheStats};
pub use stamp::{Stamp, StampView, INLINE_STAMP_K};
pub use stripe::{CachePadded, Count, Mine, Striped};
pub use tsvec::{TsVec, INLINE_K};

#[cfg(test)]
mod order_props;
#[cfg(test)]
mod stamp_props;
#[cfg(test)]
mod tsvec_props;
