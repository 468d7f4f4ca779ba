//! Criterion: RepCut partition-parallel cycle latency — one lane, the
//! partition count as the parallelism axis. Partitioning splits each
//! layer's op schedule across worker threads that own disjoint replicas
//! of the LI tensor, so on a many-core box ns/cycle should fall with
//! the partition count until the replication overhead (the RUM sync and
//! the replicated fan-in cones) catches up. On a small box the curve is
//! flat-to-rising; the interesting measurement is where the crossover
//! sits for a given replication factor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rteaal_bench::{driven, experiments::graph_of};
use rteaal_designs::{rocket, ChipConfig};
use rteaal_dfg::partition::PartitionedPlan;
use rteaal_dfg::plan::plan;
use rteaal_kernels::{BatchKernel, BatchLiState, KernelConfig, KernelKind};

const CYCLES: u64 = 50;

fn bench_repcut_partitions(c: &mut Criterion) {
    let circuit = rocket(ChipConfig::new(4));
    let sim_plan = plan(&graph_of(&circuit));
    let mut group = c.benchmark_group("repcut-partitions-rocket4");
    group.throughput(Throughput::Elements(CYCLES));
    for parts in [1usize, 2, 4, 8] {
        let pp = PartitionedPlan::new(&sim_plan, parts);
        let kernel = BatchKernel::compile_partitioned(&pp, KernelConfig::new(KernelKind::Psu));
        let mut st = BatchLiState::new_partitioned(&sim_plan, 1, &pp);
        st.set_input_all(0, 0xdead_beef);
        group.bench_with_input(BenchmarkId::new("parts", parts), &parts, |b, _| {
            b.iter(|| driven(&kernel, &mut st, CYCLES, parts, 0xdead_beef));
        });
    }
    group.finish();
}

fn bench_repcut_partitions_batched(c: &mut Criterion) {
    // Partitioning composed with lanes: the 2-D (partition x lane-chunk)
    // decomposition the engine actually schedules. Threads outnumber
    // partitions here, so lane chunks subdivide each partition's rows.
    let circuit = rocket(ChipConfig::new(4));
    let sim_plan = plan(&graph_of(&circuit));
    let lanes = 16usize;
    let mut group = c.benchmark_group("repcut-partitions-batched-rocket4");
    group.throughput(Throughput::Elements(CYCLES * lanes as u64));
    for parts in [1usize, 2, 4] {
        let pp = PartitionedPlan::new(&sim_plan, parts);
        let kernel = BatchKernel::compile_partitioned(&pp, KernelConfig::new(KernelKind::Psu));
        let mut st = BatchLiState::new_partitioned(&sim_plan, lanes, &pp);
        st.set_input_all(0, 0xdead_beef);
        group.bench_with_input(BenchmarkId::new("parts", parts), &parts, |b, _| {
            b.iter(|| driven(&kernel, &mut st, CYCLES, 8, 0xdead_beef));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_repcut_partitions, bench_repcut_partitions_batched
}
criterion_main!(benches);
