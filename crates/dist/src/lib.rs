//! **DMT(k)** — the decentralized concurrency controller of Section V-B.
//!
//! Each site runs the MT(k) machinery — `mdts-core`'s one statement of
//! Algorithm 1, through an inner `MtScheduler` — over a timestamp table
//! that is logically one table whose rows (vectors) and item records live
//! on *home sites*. The coordination rules of the paper are modeled
//! explicitly:
//!
//! 1. **Globally unique k-th elements** (V-B-1): the k-th column values are
//!    drawn from the scheduling site's counters with the site number
//!    concatenated as the low-order bits (`value = raw·S + site`), so two
//!    sites can never mint the same value. `ucount` tracks a per-site
//!    logical clock; the clocks are synchronized every `sync_interval`
//!    operations, which keeps value assignment *fair* under unbalanced
//!    load — correctness never depends on it, because bounded draws
//!    ([`mdts_vector::KthCounters::fresh_upper_above`]) always respect an
//!    already-defined neighbor.
//! 2. **Ordered locking on timestamp vectors** (V-B-2): to schedule one
//!    operation a site locks at most four objects — the item record and the
//!    `RT`/`WT`/issuer vectors — acquiring them in a predefined linear
//!    order over object ids, so deadlock is impossible and no lock-request
//!    synchronization is needed. Message costs are counted per remote
//!    fetch and write-back, including the paper's lock-retention
//!    optimization for consecutive operations touching the same objects.
//!    `Set` defines elements only of the vectors the access locked, so a
//!    vector is written back when its defined count rose.
//!
//! The simulation is sequential and deterministic (the protocol itself is
//! what is distributed, not the test harness); [`DmtStats`] exposes the
//! message/locking behavior the paper reasons about.

pub mod scheduler;
pub mod topology;

pub use scheduler::{DmtConfig, DmtScheduler, DmtStats, ObjectId};
pub use topology::Topology;
