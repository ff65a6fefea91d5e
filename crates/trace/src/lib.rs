//! Structured decision traces for the multidimensional timestamp
//! protocols (DESIGN.md §6).
//!
//! The paper's evidence is traces — Tables I–IV tabulate how the
//! timestamp table evolves decision by decision — so this crate makes the
//! trace the first-class observability object:
//!
//! * [`TraceEvent`] / [`TraceRecord`] — the typed event vocabulary shared
//!   by `MtScheduler`, `SharedMtScheduler`, the engine, and `DmtScheduler`,
//!   including the structured abort-reason taxonomy ([`RejectRule`],
//!   [`AbortReason`]);
//! * [`TraceSink`] / [`TraceBuffer`] — a zero-cost-when-disabled handle in
//!   front of a lane-sharded sequence-stamped buffer (journal or ring);
//! * [`export`] / [`import`] — the JSONL journal format and its inverse,
//!   so crash recovery can replay a persisted journal back through the
//!   auditor. Each event kind, and each tag of the enums inside it, is
//!   declared once (tag, field keys, codecs) with the [`event`] types;
//!   the encoder, the decoder and every `name` are derived from that one
//!   statement;
//! * [`table`] — a pretty-printer reproducing the paper's Table I–IV
//!   layout from a captured trace;
//! * [`registry`] — a serializable counters/histograms/breakdowns registry
//!   behind the experiment binaries' `--json` output;
//! * [`audit`](mod@audit) — an independent auditor that re-checks every recorded
//!   accept/reject decision against Definition 6 and the committed prefix
//!   against TO(k).

pub mod audit;
mod codec;
pub mod event;
pub mod export;
pub mod import;
pub mod json;
pub mod registry;
pub mod sink;
pub mod table;

pub use audit::{audit, AuditReport};
pub use event::{
    scalar_cost, tree_cost, AbortReason, AccessOutcome, DmtObj, DmtSource, RejectRule,
    SetEdgeOutcome, StallRule, TraceEvent, TraceRecord,
};
pub use export::to_jsonl;
pub use import::{from_jsonl, JournalReport};
pub use json::Json;
pub use registry::{Breakdown, HistogramExport, MetricsRegistry};
pub use sink::{Trace, TraceBuffer, TraceSink};
pub use table::render_decision_table;
