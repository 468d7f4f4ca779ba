//! Criterion: the whole-design specialization tier on the control-heavy
//! RV32I core — interpreted dispatch vs compiled lane kernels vs the
//! specialized program (the folded/deduped/pruned plan through the same
//! lane kernels, plus bit-packed 1-bit lanes where they pay).
//!
//! Two regimes matter and are benched separately: the pre-halt walk
//! (every register toggling, so every layer does real work each cycle)
//! and the free run (the design halts around cycle 67, the
//! registers reach a fixed point, and the activity gate turns the
//! remaining steps into clock-only skips). The specialization build tax
//! is timed on its own so the serve layer can weigh it against
//! amortization across a job corpus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rteaal_bench::experiments::graph_of;
use rteaal_designs::Workload;
use rteaal_dfg::plan::plan;
use rteaal_dfg::specialize::{specialize, SpecProgram, SpecializedPlan};
use rteaal_dfg::SimPlan;
use rteaal_kernels::{BatchEngine, BatchKernel, BatchLiState, KernelConfig, KernelKind};

/// Short of the ~67-cycle halt: the pre-halt group measures the real
/// combinational walk, not the post-halt activity skip.
const PRE_HALT_CYCLES: u64 = 50;
/// Well past the halt: the free-run group shows what the activity gate
/// buys once every lane's registers freeze.
const FREE_RUN_CYCLES: u64 = 300;

/// The serving observability contract the experiment uses: inputs,
/// registers, and the job-visible signals stay probed; every other
/// named node is anonymous (a probe is pokeable, so a probed op can
/// never be folded or packed).
fn serving_plan() -> SimPlan {
    let w = Workload::rv32i_sum_loop();
    let mut p = plan(&graph_of(&w.circuit));
    let keep_names = ["a0", "pc_out", "halt"];
    let keep_slots: std::collections::HashSet<u32> = p
        .input_slots
        .iter()
        .copied()
        .chain(p.commits.iter().map(|&(d, _)| d))
        .collect();
    p.probes
        .retain(|(name, s, _)| keep_slots.contains(s) || keep_names.contains(&name.as_str()));
    p
}

fn engines(p: &SimPlan, sp: &SpecializedPlan) -> Vec<(&'static str, BatchKernel, bool)> {
    let cfg = KernelConfig::new(KernelKind::Psu);
    vec![
        (
            "interpreted",
            BatchKernel::compile_with_engine(p, cfg, BatchEngine::Interpreted),
            false,
        ),
        (
            "compiled",
            BatchKernel::compile_with_engine(p, cfg, BatchEngine::Compiled),
            false,
        ),
        (
            "specialized",
            BatchKernel::compile_specialized(sp, cfg, true),
            true,
        ),
    ]
}

fn bench_pre_halt_walk(c: &mut Criterion) {
    let p = serving_plan();
    let sp = specialize(&p);
    let mut group = c.benchmark_group("specialize-pre-halt-rv32i");
    for lanes in [16usize, 64] {
        group.throughput(Throughput::Elements(PRE_HALT_CYCLES * lanes as u64));
        for (label, kernel, spec) in engines(&p, &sp) {
            let plan_for_state = if spec { &sp.plan } else { &p };
            let mut st = BatchLiState::new(plan_for_state, lanes);
            group.bench_with_input(BenchmarkId::new(label, lanes), &lanes, |b, _| {
                b.iter(|| {
                    // Reset keeps every iteration pre-halt: the walk is
                    // measured with registers toggling each cycle.
                    st.reset();
                    kernel.run(&mut st, PRE_HALT_CYCLES);
                });
            });
        }
    }
    group.finish();
}

fn bench_free_run(c: &mut Criterion) {
    let p = serving_plan();
    let sp = specialize(&p);
    let lanes = 64usize;
    let mut group = c.benchmark_group("specialize-free-run-rv32i");
    group.throughput(Throughput::Elements(FREE_RUN_CYCLES * lanes as u64));
    for (label, kernel, spec) in engines(&p, &sp) {
        let plan_for_state = if spec { &sp.plan } else { &p };
        let mut st = BatchLiState::new(plan_for_state, lanes);
        group.bench_with_input(BenchmarkId::new(label, lanes), &lanes, |b, _| {
            b.iter(|| {
                st.reset();
                kernel.run(&mut st, FREE_RUN_CYCLES);
            });
        });
    }
    group.finish();
}

fn bench_build_tax(c: &mut Criterion) {
    let p = serving_plan();
    let sp = specialize(&p);
    let mut group = c.benchmark_group("specialize-build-rv32i");
    group.bench_function("transform", |b| b.iter(|| specialize(&p)));
    group.bench_function("program", |b| b.iter(|| SpecProgram::build(&sp.plan, true)));
    group.finish();
}

criterion_group!(
    benches,
    bench_pre_halt_walk,
    bench_free_run,
    bench_build_tax
);
criterion_main!(benches);
