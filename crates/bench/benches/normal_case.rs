//! Criterion benchmark for experiment E1/E12 companion: the XPaxos
//! normal-case pipeline — host time to commit 20 operations in a
//! fault-free cluster, stopping at the last commit, for both cluster
//! shapes the paper discusses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsel_simnet::SimTime;
use qsel_types::ClusterConfig;
use qsel_xpaxos::harness::{total_committed, ClusterBuilder};

/// Simulated-time bound on one iteration (the 20 ops commit well inside).
const HORIZON: SimTime = SimTime::from_micros(2_000_000);

fn bench_normal_case(c: &mut Criterion) {
    let mut group = c.benchmark_group("xpaxos_normal_case_20ops");
    group.sample_size(10);
    for f in [1u32, 2] {
        let n = 3 * f + 1;
        let cfg = ClusterConfig::new(n, f).expect("valid config");
        group.bench_with_input(BenchmarkId::from_parameter(format!("f{f}")), &cfg, |b, &cfg| {
            b.iter(|| {
                let mut sim = ClusterBuilder::new(cfg, 8).clients(1, 20).build();
                // Stop at the last commit: running on to a fixed horizon
                // would mostly time idle heartbeats.
                while total_committed(&sim) < 20 {
                    assert!(sim.step(), "event queue drained before 20 commits");
                    assert!(sim.now() < HORIZON, "20 ops did not commit within the horizon");
                }
                std::hint::black_box(sim.stats().messages_sent)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_normal_case);
criterion_main!(benches);
