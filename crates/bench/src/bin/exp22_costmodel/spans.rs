//! Harness-side timing around public calls. Untraced runs take one
//! clock read per call (the latency sample); traced runs take one per
//! layer boundary and attribute the interval since the previous
//! boundary to a span kind, so the spans of a call tile it.

use std::time::Instant;

/// What the interval ending at a boundary was spent on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    /// `run*` entry → first body entry.
    Admit = 0,
    /// Around `Tx::read` (aborted attempts included).
    Read,
    /// Around `Tx::write`.
    Write,
    /// Around `SnapshotTx::read`.
    SnapshotRead,
    /// The harness closure's own work (the spin, summing a scan).
    Body,
    /// Successful body exit → `run*` return.
    Commit,
    /// Failed body exit → next body entry (cleanup, backoff,
    /// re-admission), or → `run*` returning an error. A commit whose
    /// validation failed after a successful body lands here too.
    Retry,
    // Layer replay (`sut::Layers`): one tile per call into a layer.
    /// `SharedMtScheduler::{begin, begin_restarted + warm_probes}`.
    CoreBegin,
    CoreRead,
    CoreWrite,
    /// `SharedMtScheduler::{stamp_commit, commit}`.
    CoreCommit,
    CoreAbort,
    CoreSnapshotRead,
    /// `ShardedStore::get_cloned` (lock, look up, unlock).
    StoreGet,
    /// `ShardedStore::set`.
    StoreSet,
    /// `ConcurrentMvStore::install`.
    MvInstall,
    /// `ConcurrentMvStore::{begin_snapshot, with_chain}`, the latter
    /// around `SharedMtScheduler::snapshot_newest_visible`.
    MvChainRead,
}

pub const KINDS: usize = Kind::MvChainRead as usize + 1;

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Admit => "engine.admit",
            Kind::Read => "engine.read",
            Kind::Write => "engine.write",
            Kind::SnapshotRead => "engine.snapshot_read",
            Kind::Body => "engine.body",
            Kind::Commit => "engine.commit",
            Kind::Retry => "engine.retry",
            Kind::CoreBegin => "core.begin",
            Kind::CoreRead => "core.read",
            Kind::CoreWrite => "core.write",
            Kind::CoreCommit => "core.commit",
            Kind::CoreAbort => "core.abort",
            Kind::CoreSnapshotRead => "core.snapshot_read",
            Kind::StoreGet => "storage.sharded_get",
            Kind::StoreSet => "storage.sharded_set",
            Kind::MvInstall => "storage.mv_install",
            Kind::MvChainRead => "storage.mv_chain_read",
        }
    }
}

/// The boundary hooks the transaction bodies in `sut.rs` call.
pub trait Probe {
    /// A layer boundary: the interval since the previous one was `kind`.
    fn mark(&mut self, kind: Kind);
    /// The call returned: closes its last span (`kind`) and takes the
    /// latency sample (end of the previous call → now).
    fn call_end(&mut self, kind: Kind);
    /// Starts a slice: forgets the previous slice's latency samples and
    /// restarts the clock.
    fn restart(&mut self);
    /// Per-call latencies of the current slice (ns, saturating at 4.29 s).
    fn samples(&self) -> &[u32];
}

/// Measures nothing (warm-up of the layer replay).
impl Probe for () {
    fn mark(&mut self, _kind: Kind) {}
    fn call_end(&mut self, _kind: Kind) {}
    fn restart(&mut self) {}
    fn samples(&self) -> &[u32] {
        &[]
    }
}

fn ns_since(later: Instant, earlier: Instant) -> u32 {
    u32::try_from(later.duration_since(earlier).as_nanos()).unwrap_or(u32::MAX)
}

/// Untraced: one clock read per call, nothing else.
pub struct Latency {
    last: Instant,
    samples: Vec<u32>,
}

impl Latency {
    pub fn with_capacity(calls: usize) -> Self {
        Latency { last: Instant::now(), samples: Vec::with_capacity(calls) }
    }
}

impl Probe for Latency {
    #[inline(always)]
    fn mark(&mut self, _kind: Kind) {}

    #[inline(always)]
    fn call_end(&mut self, _kind: Kind) {
        let now = Instant::now();
        self.samples.push(ns_since(now, self.last));
        self.last = now;
    }

    fn restart(&mut self) {
        self.samples.clear();
        self.last = Instant::now();
    }

    fn samples(&self) -> &[u32] {
        &self.samples
    }
}

/// One recorded span, as written to `--spans-out`.
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    pub kind: Option<Kind>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing call's root span (`None` for a root).
    pub parent: Option<u32>,
    /// Ordinal of the call within its client's run.
    pub txn: u32,
}

/// How many raw spans a client keeps for `--spans-out`; totals are kept
/// for every span regardless.
pub const RAW_SPAN_CAPACITY: usize = 1 << 16;

/// Traced: per-kind totals over every call, plus the first
/// [`RAW_SPAN_CAPACITY`] spans verbatim.
pub struct Spans {
    origin: Instant,
    last: Instant,
    call_start: Instant,
    /// Summed span time per [`Kind`].
    pub total_ns: [u64; KINDS],
    /// Spans recorded per [`Kind`].
    pub count: [u64; KINDS],
    /// Summed call time (call start → call end), measured independently
    /// of the tiles.
    pub call_ns: u64,
    pub calls: u64,
    latency: Vec<u32>,
    pub raw: Vec<RawSpan>,
    /// Index in `raw` of the current call's root span.
    root: Option<u32>,
}

impl Spans {
    pub fn with_capacity(origin: Instant, calls: usize) -> Self {
        Spans {
            origin,
            last: origin,
            call_start: origin,
            total_ns: [0; KINDS],
            count: [0; KINDS],
            call_ns: 0,
            calls: 0,
            latency: Vec::with_capacity(calls),
            raw: Vec::with_capacity(RAW_SPAN_CAPACITY),
            root: None,
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(&mut self, kind: Kind, now: Instant) {
        self.total_ns[kind as usize] += u64::from(ns_since(now, self.last));
        self.count[kind as usize] += 1;
        // Keep a call's spans together: open a root only while a whole
        // call's worth of room is left.
        if self.root.is_none() && self.raw.len() + 64 < RAW_SPAN_CAPACITY {
            self.root = Some(self.raw.len() as u32);
            let start = self.offset(self.call_start);
            self.raw.push(RawSpan {
                kind: None,
                start_ns: start,
                end_ns: start,
                parent: None,
                txn: self.calls as u32,
            });
        }
        if let Some(root) = self.root {
            if self.raw.len() < RAW_SPAN_CAPACITY {
                self.raw.push(RawSpan {
                    kind: Some(kind),
                    start_ns: self.offset(self.last),
                    end_ns: self.offset(now),
                    parent: Some(root),
                    txn: self.calls as u32,
                });
            }
        }
        self.last = now;
    }
}

impl Probe for Spans {
    #[inline]
    fn mark(&mut self, kind: Kind) {
        let now = Instant::now();
        self.record(kind, now);
    }

    #[inline]
    fn call_end(&mut self, kind: Kind) {
        let now = Instant::now();
        self.record(kind, now);
        if let Some(root) = self.root.take() {
            self.raw[root as usize].end_ns = self.offset(now);
        }
        let call = ns_since(now, self.call_start);
        self.call_ns += u64::from(call);
        self.calls += 1;
        self.latency.push(call);
        self.call_start = now;
    }

    fn restart(&mut self) {
        self.latency.clear();
        self.last = Instant::now();
        self.call_start = self.last;
    }

    fn samples(&self) -> &[u32] {
        &self.latency
    }
}

/// Cost of one clock read (ns), the floor under every span: the median
/// of several back-to-back batches.
pub fn clock_read_ns() -> f64 {
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            let mut last = start;
            for _ in 0..10_000 {
                last = std::hint::black_box(Instant::now());
            }
            last.duration_since(start).as_nanos() as f64 / 10_000.0
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(iterations: u32) {
        for i in 0..iterations {
            std::hint::black_box(i);
        }
    }

    /// A synthetic body with known spin lengths: spans must tile the
    /// call, and each kind's share must follow the spin it covered.
    #[test]
    fn spans_tile_a_synthetic_body() {
        let mut spans = Spans::with_capacity(Instant::now(), 2_000);
        spans.restart();
        for _ in 0..2_000 {
            spin(2_000);
            spans.mark(Kind::Admit);
            spin(4_000);
            spans.mark(Kind::Read);
            spin(2_000);
            spans.call_end(Kind::Commit);
        }
        let ratio = spans.total_ns.iter().sum::<u64>() as f64 / spans.call_ns as f64;
        assert!((ratio - 1.0).abs() <= 0.02, "span_sum_over_txn = {ratio}");
        assert_eq!((spans.calls, spans.samples().len()), (2_000, 2_000));
        // The median span of each kind: one preemption on a shared host
        // outweighs the whole test in a total, and moves no median.
        let median_ns = |kind: Kind| {
            let mut ns: Vec<u64> = spans
                .raw
                .iter()
                .filter(|s| s.kind == Some(kind))
                .map(|s| s.end_ns - s.start_ns)
                .collect();
            ns.sort_unstable();
            ns[ns.len() / 2] as f64
        };
        let (admit, read, commit) =
            (median_ns(Kind::Admit), median_ns(Kind::Read), median_ns(Kind::Commit));
        assert!((1.4..2.8).contains(&(read / admit)), "read/admit = {}", read / admit);
        assert!((0.6..1.6).contains(&(commit / admit)), "commit/admit = {}", commit / admit);
        assert_eq!(spans.total_ns[Kind::Retry as usize], 0);
        // Raw spans: every child lies inside its root, roots do not overlap.
        let roots: Vec<&RawSpan> = spans.raw.iter().filter(|s| s.parent.is_none()).collect();
        assert!(roots.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
        for s in spans.raw.iter().filter(|s| s.parent.is_some()) {
            let root = spans.raw[s.parent.expect("child") as usize];
            assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns && root.txn == s.txn);
        }
    }

    #[test]
    fn latency_takes_one_sample_per_call() {
        let mut lat = Latency::with_capacity(16);
        lat.restart();
        for _ in 0..16 {
            lat.mark(Kind::Read);
            spin(100);
            lat.call_end(Kind::Commit);
        }
        assert_eq!(lat.samples().len(), 16);
        assert!(clock_read_ns() > 0.0);
    }
}
