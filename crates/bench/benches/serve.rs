//! Criterion: serving-pool throughput — jobs per second pushing a
//! mixed-length rv32i corpus through `ServerPool` across worker counts,
//! and the per-request latency of the submit→wait round trip. On a
//! 1-CPU container extra workers only add coordination overhead; on a
//! multi-core host the worker sweep shows the sharding payoff.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rteaal_core::Compiler;
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{JobHandle, ServeConfig, ServerPool};

const JOBS: usize = 16;

fn job_for(k: u64) -> Job {
    let mut job = Job::new(format!("sum-{k}"), Workload::param_sum_budget(k));
    job.state_pokes = vec![("x15".to_string(), k)];
    job.probes = vec!["a0".to_string()];
    job
}

fn bench_pool_throughput(c: &mut Criterion) {
    let ks = Workload::corpus_params(JOBS, 0xbe4c4);
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let mut group = c.benchmark_group("serve-pool-rv32i");
    group.throughput(Throughput::Elements(JOBS as u64));
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("workers", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut cfg = ServeConfig::with_workers(workers);
                    cfg.lanes = 4;
                    let pool = ServerPool::new(&compiled, cfg, "halt").expect("halt resolves");
                    let handles: Vec<JobHandle> =
                        ks.iter().map(|&k| pool.submit(job_for(k))).collect();
                    let done = handles.iter().filter(|h| h.wait().completed()).count();
                    assert_eq!(done, JOBS);
                    pool.shutdown().merged.cycles
                });
            },
        );
    }
    group.finish();
}

fn bench_submit_wait_latency(c: &mut Criterion) {
    // One short job end to end: submission dispatch, lane admission,
    // harvest, result publication, handle wakeup.
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let mut cfg = ServeConfig::with_workers(1);
    cfg.lanes = 1;
    let pool = ServerPool::new(&compiled, cfg, "halt").expect("halt resolves");
    let mut group = c.benchmark_group("serve-latency");
    group.throughput(Throughput::Elements(1));
    group.bench_function("submit-wait-k1", |b| {
        b.iter(|| {
            let r = pool.submit(job_for(1)).wait();
            assert!(r.completed());
            r.cycles
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_pool_throughput, bench_submit_wait_latency
}
criterion_main!(benches);
