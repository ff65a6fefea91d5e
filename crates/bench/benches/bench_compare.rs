//! Criterion bench for Figs. 6–7: scalar vs simulated-parallel vector
//! comparison across dimensions, on the protocol's worst case (equal
//! prefix of length k−1) — plus the ISSUE-5 small-k sweep pitting the
//! inline (cache-resident) representation against the forced-spilled one
//! and against a replica of the pre-inline boxed comparator.
//!
//! `--json` (e.g. `cargo bench -p mdts-bench --bench bench_compare --
//! --json`) skips criterion and emits one `mdts-metrics/v1` document
//! with directly measured per-compare timings of the wide-k lane.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mdts_vector::{CmpResult, ScalarComparator, TreeComparator, TsVec};

fn worst_case_pair(k: usize) -> (TsVec, TsVec) {
    let mut a = TsVec::undefined(k);
    let mut b = TsVec::undefined(k);
    for m in 0..k {
        a.define(m, 1);
        b.define(m, if m == k - 1 { 2 } else { 1 });
    }
    (a, b)
}

fn worst_case_pair_spilled(k: usize) -> (TsVec, TsVec) {
    let mut a = TsVec::undefined_spilled(k);
    let mut b = TsVec::undefined_spilled(k);
    for m in 0..k {
        a.define(m, 1);
        b.define(m, if m == k - 1 { 2 } else { 1 });
    }
    (a, b)
}

/// The pre-ISSUE-5 comparator, kept verbatim as the baseline: a
/// first-element fast path plus the chunked per-word bitmap scan, with no
/// one-word specialization. Run on forced-spilled vectors it reproduces
/// the old boxed `TsVec`'s compare cost.
mod boxed_baseline {
    use super::{CmpResult, TsVec};

    pub fn compare(a: &TsVec, b: &TsVec) -> CmpResult {
        let k = a.k();
        let (av, bv) = (a.values_raw(), b.values_raw());
        let fa = a.first_defined().unwrap_or(k);
        let fb = b.first_defined().unwrap_or(k);
        match (fa == 0, fb == 0) {
            (false, false) => return CmpResult::EqualUndefined { at: 0 },
            (false, true) => return CmpResult::LeftUndefined { at: 0 },
            (true, false) => return CmpResult::RightUndefined { at: 0 },
            (true, true) => {}
        }
        if av[0] != bv[0] {
            return if av[0] < bv[0] {
                CmpResult::Less { at: 0 }
            } else {
                CmpResult::Greater { at: 0 }
            };
        }
        let (da, db) = (a.defined_words(), b.defined_words());
        for w in 0..da.len() {
            let s = w * 64;
            let len = 64.min(k - s);
            let mask = if len == 64 { !0u64 } else { (1u64 << len) - 1 };
            let not_both = (da[w] & db[w]) ^ mask;
            let cand = (not_both.trailing_zeros() as usize).min(len);
            let (run_a, run_b) = (&av[s..s + cand], &bv[s..s + cand]);
            if run_a != run_b {
                let p = run_a.iter().zip(run_b).position(|(x, y)| x != y).unwrap();
                let m = s + p;
                return if av[m] < bv[m] {
                    CmpResult::Less { at: m }
                } else {
                    CmpResult::Greater { at: m }
                };
            }
            if cand < len {
                let m = s + cand;
                return match (da[w] >> cand & 1 == 1, db[w] >> cand & 1 == 1) {
                    (false, false) => CmpResult::EqualUndefined { at: m },
                    (false, true) => CmpResult::LeftUndefined { at: m },
                    (true, false) => CmpResult::RightUndefined { at: m },
                    (true, true) => unreachable!(),
                };
            }
        }
        CmpResult::Identical
    }
}

/// ISSUE-5 sweep: the same worst-case comparison at each k, in three
/// forms — the natural representation (inline for k ≤ INLINE_K), the
/// forced-spilled representation under the new one-word comparator, and
/// the forced-spilled representation under the old comparator (the boxed
/// baseline the ≥ 2x acceptance criterion is measured against).
fn bench_smallk_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("compare_smallk");
    for k in [2usize, 4, 8, 16, 64, 128] {
        let (a, b) = worst_case_pair(k);
        let (sa, sb) = worst_case_pair_spilled(k);
        group.bench_with_input(BenchmarkId::new("natural", k), &k, |bench, _| {
            bench.iter(|| {
                ScalarComparator::compare(std::hint::black_box(&a), std::hint::black_box(&b))
            })
        });
        group.bench_with_input(BenchmarkId::new("spilled", k), &k, |bench, _| {
            bench.iter(|| {
                ScalarComparator::compare(std::hint::black_box(&sa), std::hint::black_box(&sb))
            })
        });
        group.bench_with_input(BenchmarkId::new("boxed_baseline", k), &k, |bench, _| {
            bench.iter(|| {
                boxed_baseline::compare(std::hint::black_box(&sa), std::hint::black_box(&sb))
            })
        });
    }
    group.finish();
}

fn bench_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_compare");
    for k in [4usize, 16, 64, 256, 1024] {
        let (a, b) = worst_case_pair(k);
        group.bench_with_input(BenchmarkId::new("scalar", k), &k, |bench, _| {
            bench.iter(|| {
                ScalarComparator::compare(std::hint::black_box(&a), std::hint::black_box(&b))
            })
        });
        group.bench_with_input(BenchmarkId::new("tree_simulated", k), &k, |bench, _| {
            bench.iter(|| {
                TreeComparator::compare(std::hint::black_box(&a), std::hint::black_box(&b))
            })
        });
    }
    group.finish();
}

/// Pairs in the cold-ish working set of [`bench_working_set`]. Power of
/// two so the strided traversal can wrap with a mask.
const PAIRS: usize = 4096;

/// Builds `PAIRS` worst-case pairs. For the spilled form, interleaved
/// junk allocations (kept alive) scatter the boxes the way a real
/// scheduler's mixed allocation traffic does, so the pointer chase costs
/// what it costs in production rather than in a fresh arena.
#[allow(clippy::type_complexity)]
fn build_pairs(k: usize, spilled: bool) -> (Vec<(TsVec, TsVec)>, Vec<Box<[u8]>>) {
    let mut junk: Vec<Box<[u8]>> = Vec::new();
    let mut out = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let mk = |last: i64| {
            let mut v = if spilled { TsVec::undefined_spilled(k) } else { TsVec::undefined(k) };
            for m in 0..k {
                v.define(m, if m == k - 1 { last } else { 1 });
            }
            v
        };
        let a = mk(1);
        if spilled {
            junk.push(vec![0u8; (i % 7 + 1) * 32].into_boxed_slice());
        }
        out.push((a, mk(2)));
    }
    (out, junk)
}

/// The cache-residency claim itself: one strided pass over 4096
/// worst-case pairs per iteration (divide ns/iter by 4096 for the
/// per-compare cost). Inline vectors are one line each; boxed ones add a
/// pointer chase to a scattered values box, which is where the old
/// representation actually lost on the scheduler's hot path.
fn bench_working_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("compare_workingset");
    let pass = |pairs: &[(TsVec, TsVec)], cmp: fn(&TsVec, &TsVec) -> CmpResult| {
        let mut acc = 0usize;
        let mut i = 0usize;
        for _ in 0..PAIRS {
            i = (i + 1031) & (PAIRS - 1);
            let (a, b) = &pairs[i];
            if let CmpResult::Greater { at } = cmp(a, b) {
                acc += at;
            }
        }
        std::hint::black_box(acc)
    };
    for k in [2usize, 4, 8, 16] {
        let (inline_pairs, _keep_a) = build_pairs(k, false);
        let (spilled_pairs, _keep_b) = build_pairs(k, true);
        group.bench_with_input(BenchmarkId::new("natural", k), &k, |bench, _| {
            bench.iter(|| pass(&inline_pairs, ScalarComparator::compare))
        });
        group.bench_with_input(BenchmarkId::new("spilled", k), &k, |bench, _| {
            bench.iter(|| pass(&spilled_pairs, ScalarComparator::compare))
        });
        group.bench_with_input(BenchmarkId::new("boxed_baseline", k), &k, |bench, _| {
            bench.iter(|| pass(&spilled_pairs, boxed_baseline::compare))
        });
    }
    group.finish();
}

mod json_report {
    //! The `--json` lane: direct `Instant`-timed minima (no criterion
    //! output parsing) rendered as an `mdts-metrics/v1` document, so the
    //! wide-k figures land in a machine-checkable artifact
    //! (`scripts/bench.sh` writes it to `target/bench/bench_compare.json`).

    use std::time::Instant;

    use mdts_bench::metrics_document;
    use mdts_trace::MetricsRegistry;
    use mdts_vector::{CmpResult, ScalarComparator};

    use super::worst_case_pair;

    /// Minimum ns/op over `REPS` timed passes of `iters` calls each: each
    /// lane reports its least-disturbed pass, the standard
    /// microbenchmark estimator on a host whose medians swing with
    /// co-tenant load.
    fn time_ns_per_op(iters: usize, mut f: impl FnMut() -> usize) -> f64 {
        const REPS: usize = 15;
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let start = Instant::now();
            let mut acc = 0usize;
            for _ in 0..iters {
                acc = acc.wrapping_add(f());
            }
            std::hint::black_box(acc);
            best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        best
    }

    fn sink(r: CmpResult) -> usize {
        match r {
            CmpResult::Greater { at } | CmpResult::Less { at } => at,
            _ => 0,
        }
    }

    pub fn run() {
        let mut runs = Vec::new();
        // Wide-k single compares. Beyond k = 128 the per-word
        // `run_a != run_b` slice equality compiles to the libc vectorized
        // memcmp, so the scalar scan already streams at vector width.
        for k in [64usize, 128, 256, 1024] {
            let (a, b) = worst_case_pair(k);
            let iters = 4_000_000usize / k.max(16);
            let scalar = time_ns_per_op(iters, || sink(ScalarComparator::compare(&a, &b)));
            runs.push(
                MetricsRegistry::new()
                    .label("lane", "single_wide_k")
                    .label("k", k.to_string())
                    .counter("scalar_ps_per_op", (scalar * 1000.0) as u64),
            );
        }
        println!("{}", metrics_document("bench_compare", &runs).render());
    }
}

criterion_group!(benches, bench_compare, bench_smallk_sweep, bench_working_set);

fn main() {
    if std::env::args().any(|a| a == "--json") {
        json_report::run();
        return;
    }
    benches();
}
