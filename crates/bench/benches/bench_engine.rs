//! Criterion bench for the engine: committed-transaction throughput of
//! each protocol on the bank mix (medium contention).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mdts_engine::{
    run_bank_mix, BankConfig, BasicToCc, ConcurrentCc, IntervalCc, MtCc, OccCc, TwoPlCc,
};

fn cfg() -> BankConfig {
    BankConfig {
        accounts: 64,
        threads: 4,
        txns_per_thread: 100,
        zipf_theta: 0.8,
        read_only_fraction: 0.25,
        max_restarts: 2000,
        ..Default::default()
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_bank_mix");
    group.sample_size(10);
    type Make = fn() -> Box<dyn ConcurrentCc>;
    let cases: Vec<(&str, Make)> = vec![
        ("mt3", || Box::new(MtCc::new(3))),
        ("2pl", || Box::new(TwoPlCc::new())),
        ("to1", || Box::new(BasicToCc::new(true))),
        ("occ", || Box::new(OccCc::new())),
        ("intervals", || Box::new(IntervalCc::new())),
    ];
    for (name, make) in cases {
        group.bench_function(name, |b| {
            b.iter_batched(
                make,
                |cc| {
                    let r = run_bank_mix(cc, &cfg());
                    assert!(r.invariant_holds());
                    r.metrics.commits
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
