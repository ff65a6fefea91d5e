//! Baseline concurrency-control protocols, implemented from scratch, that
//! the paper's protocols are measured against:
//!
//! * [`LockManager`] / strict two-phase locking with shared/exclusive
//!   modes, FIFO queuing and waits-for deadlock detection — the "first
//!   basic approach" of the introduction;
//! * [`BasicTimestampOrdering`] — conventional single-valued timestamp
//!   ordering (the protocol P4 of SDD-1 referenced in Example 1), with an
//!   optional Thomas write rule;
//! * [`Occ`] — optimistic concurrency control with backward validation
//!   (Kung–Robinson), the "waits till the end of the transaction" approach
//!   of the introduction;
//! * [`IntervalScheduler`] — dynamic timestamp-interval allocation in the
//!   style of Bayer et al. \[1\], the Section VI-A comparison target, with
//!   fragmentation accounting;
//! * [`MvTimestampOrdering`] — Reed-style multiversion TO, the substrate
//!   behind the paper's III-D-6d extension idea (reads never abort).
//!
//! Each protocol exposes both an online decision API (used by the
//! `mdts-engine` drivers) and a log-recognition helper (used by the class
//! and acceptance-rate experiments).

pub mod basic_to;
pub mod interval;
pub mod locking;
pub mod mvto;
pub mod occ;

pub use basic_to::BasicTimestampOrdering;
pub use interval::{IntervalScheduler, IntervalStats};
pub use locking::{LockManager, LockMode, LockOutcome, StrictTwoPhaseLocking};
pub use mvto::MvTimestampOrdering;
pub use occ::Occ;
