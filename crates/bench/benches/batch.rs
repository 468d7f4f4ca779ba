//! Criterion: batched multi-stimulus throughput — simulated cycles per
//! second as a function of batch size (lanes) and worker threads, on a
//! mid-size RocketChip. The batch engine's point is that one OIM
//! traversal amortizes over `B` lanes, so lane-cycles/second should grow
//! with `B` well past the single-lane rate, and threads should scale it
//! further on wide layers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rteaal_bench::{driven, experiments::graph_of};
use rteaal_designs::{rocket, ChipConfig, Workload};
use rteaal_dfg::plan::plan;
use rteaal_kernels::{BatchEngine, BatchKernel, BatchLiState, KernelConfig, KernelKind};

const CYCLES: u64 = 50;

fn bench_batch_engines(c: &mut Criterion) {
    // The engine axis: per-lane interpreted dispatch vs the compiled
    // lane kernels, single-threaded, on the RV32I core. The compiled
    // path's target is >= 1.3x lane throughput at B=64.
    let workload = Workload::rv32i_sum_loop();
    let sim_plan = plan(&graph_of(&workload.circuit));
    let mut group = c.benchmark_group("batch-engine-rv32i");
    for lanes in [16usize, 64] {
        group.throughput(Throughput::Elements(CYCLES * lanes as u64));
        for (label, engine) in [
            ("interpreted", BatchEngine::Interpreted),
            ("compiled", BatchEngine::Compiled),
        ] {
            let kernel = BatchKernel::compile_with_engine(
                &sim_plan,
                KernelConfig::new(KernelKind::Psu),
                engine,
            );
            let mut st = BatchLiState::new(&sim_plan, lanes);
            st.set_input_all(0, 0); // running past reset
            group.bench_with_input(BenchmarkId::new(label, lanes), &lanes, |b, _| {
                b.iter(|| driven(&kernel, &mut st, CYCLES, 1, 0));
            });
        }
    }
    group.finish();
}

fn bench_batch_lanes(c: &mut Criterion) {
    let circuit = rocket(ChipConfig::new(2));
    let sim_plan = plan(&graph_of(&circuit));
    let kernel = BatchKernel::compile(&sim_plan, KernelConfig::new(KernelKind::Psu));
    let mut group = c.benchmark_group("batch-lanes-rocket2");
    for lanes in [1usize, 4, 16, 64] {
        // Lane-cycles per iteration: the throughput the batch amortizes.
        group.throughput(Throughput::Elements(CYCLES * lanes as u64));
        let mut st = BatchLiState::new(&sim_plan, lanes);
        st.set_input_all(0, 0xdead_beef);
        group.bench_with_input(BenchmarkId::new("seq", lanes), &lanes, |b, _| {
            b.iter(|| driven(&kernel, &mut st, CYCLES, 1, 0xdead_beef));
        });
    }
    group.finish();
}

fn bench_batch_threads(c: &mut Criterion) {
    let circuit = rocket(ChipConfig::new(4));
    let sim_plan = plan(&graph_of(&circuit));
    let kernel = BatchKernel::compile(&sim_plan, KernelConfig::new(KernelKind::Psu));
    let mut group = c.benchmark_group("batch-threads-rocket4");
    let lanes = 16usize;
    group.throughput(Throughput::Elements(CYCLES * lanes as u64));
    for threads in [1usize, 2, 4, 8] {
        let mut st = BatchLiState::new(&sim_plan, lanes);
        st.set_input_all(0, 0xdead_beef);
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| driven(&kernel, &mut st, CYCLES, threads, 0xdead_beef));
        });
    }
    group.finish();
}

fn bench_batch_with_workload_stimulus(c: &mut Criterion) {
    // Per-lane stimulus from the designs crate's workload streams: the
    // full per-cycle drive path, not just free-running state update.
    let workload = Workload::rocket(1);
    let sim_plan = plan(&graph_of(&workload.circuit));
    let kernel = BatchKernel::compile(&sim_plan, KernelConfig::new(KernelKind::Psu));
    let mut group = c.benchmark_group("batch-stimulus-rocket1");
    let lanes = 8usize;
    group.throughput(Throughput::Elements(CYCLES * lanes as u64));
    let num_inputs = sim_plan.input_slots.len();
    let mut st = BatchLiState::new(&sim_plan, lanes);
    group.bench_function("driven", |b| {
        b.iter(|| {
            let mut streams: Vec<_> = (0..lanes)
                .map(|lane| workload.lane_stimulus(lane))
                .collect();
            kernel.run_with_stimulus(&mut st, CYCLES, 2, |_, poker| {
                for (lane, stream) in streams.iter_mut().enumerate() {
                    for idx in 0..num_inputs {
                        poker.set_input(idx, lane, stream.next_value());
                    }
                }
            });
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_batch_engines, bench_batch_lanes, bench_batch_threads, bench_batch_with_workload_stimulus
}
criterion_main!(benches);
