//! Criterion bench for the sharded engine's thread scaling: the exp19
//! sweep as a benchmark — MT(k) on the sharded scheduler vs the same
//! protocol serialized behind one mutex, at 1/4/8 threads, uniform
//! low-contention (so any gap is engine overhead, not conflicts). The
//! sharded protocol also runs with its write-once order cache switched
//! off, so the cache's cost/benefit on the compare path is a first-class
//! bench line rather than a derived number.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mdts_core::MtOptions;
use mdts_engine::{run_bank_mix, BankConfig, MtCc, Protocol, ShardedMtCc};

fn cfg(threads: usize) -> BankConfig {
    BankConfig {
        accounts: 1024,
        threads,
        txns_per_thread: 400 / threads,
        zipf_theta: 0.0,
        read_only_fraction: 0.25,
        think_sleep_us: 50,
        max_restarts: 2000,
        ..Default::default()
    }
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        group.bench_function(format!("mt3_sharded/{threads}t"), |b| {
            b.iter_batched(
                || Protocol::Concurrent(Box::new(ShardedMtCc::new(3))),
                |cc| {
                    let r = run_bank_mix(cc, &cfg(threads));
                    assert!(r.invariant_holds());
                    r.metrics.commits
                },
                BatchSize::PerIteration,
            )
        });
        group.bench_function(format!("mt3_sharded_nocache/{threads}t"), |b| {
            b.iter_batched(
                || {
                    let opts = MtOptions {
                        starvation_flush: true,
                        order_cache: false,
                        ..MtOptions::new(3)
                    };
                    Protocol::Concurrent(Box::new(ShardedMtCc::with_options(opts)))
                },
                |cc| {
                    let r = run_bank_mix(cc, &cfg(threads));
                    assert!(r.invariant_holds());
                    r.metrics.commits
                },
                BatchSize::PerIteration,
            )
        });
        group.bench_function(format!("mt3_serialized/{threads}t"), |b| {
            b.iter_batched(
                || MtCc::new(3),
                |cc| {
                    let r = run_bank_mix(cc, &cfg(threads));
                    assert!(r.invariant_holds());
                    r.metrics.commits
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
