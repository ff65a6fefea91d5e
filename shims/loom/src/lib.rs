//! Offline drop-in subset of the [loom](https://crates.io/crates/loom)
//! model checker, vendored because this workspace builds without network
//! access.
//!
//! Usage matches real loom: code under test imports its atomics and
//! locks from `loom::sync` when built with `--cfg loom`, and tests wrap
//! concurrent scenarios in [`model()`], which runs the closure under every
//! thread interleaving (and every weak-memory read-from choice) that the
//! C11-style vector-clock semantics in [`rt`](crate) admit.
//!
//! Differences from the real crate, all on the conservative side:
//! * SeqCst is modeled as a total order following execution order, which
//!   is slightly stronger than C++20 SC (store-buffering/Dekker outcomes
//!   are exact; some exotic IRIW outcomes are not generated).
//! * `compare_exchange_weak` never fails spuriously.
//! * Exploration is plain DFS with optional CHESS-style preemption
//!   bounding — no partial-order reduction, so keep models small.

mod rt;

pub mod hint;
pub mod model;
pub mod sync;
pub mod thread;

pub use model::model;
