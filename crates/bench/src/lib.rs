//! Shared machinery for the experiment harnesses (`src/bin/expNN_*.rs`).
//!
//! Each binary regenerates one table or figure of the paper; see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results. Run any of them with
//! `cargo run -p mdts-bench --release --bin <exp-id>`.

pub mod accept;
pub mod regions;
pub mod report;

pub use accept::{acceptance_rate, AcceptanceSweep, Recognizer};
pub use regions::{classify_region, region_table, RegionFlags};
pub use report::{
    json_mode, metrics_document, print_table, replay_with_snapshots, Table, METRICS_SCHEMA,
};
