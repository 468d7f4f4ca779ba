//! Per-layer probes: each times one layer's public function from
//! outside, on the workload's design (engine layers) or on the shared
//! `param_sum` core (service layers), and reports the median of up to 21
//! calls — fewer only when 21 would not fit the probe's time cap — or an
//! exact count.

use crate::engine::{compiler, kernel_config, Checks, Design, Limit, LANES};
use crate::inputs;
use crate::report::Metrics;
use crate::service::{self, job_for, pool_config, ClosedShape, SvcSeg, Window};
use crate::stats::{median, Better, Summary};
use crate::trace::Tracer;
use crate::workloads::{quiet_of, windows};
use rteaal_baselines::{EssentLike, VerilatorLike};
use rteaal_core::{BatchSimulation, Compiled};
use rteaal_dfg::analyze::{analyze_design, analyze_graph};
use rteaal_dfg::passes::{optimize, PassOptions};
use rteaal_dfg::plan::{plan, SimPlan};
use rteaal_dfg::specialize::{specialize, SpecProgram};
use rteaal_dfg::{BatchEngine, Graph, PartitionedPlan};
use rteaal_kernels::{
    BatchKernel, BatchLiState, Kernel, KernelConfig, KernelKind, OptLevel, ALL_KERNELS,
};
use rteaal_perfmodel::{ExecProfile, Machine};
use rteaal_sched::{JobId, JobOutcome, JobResult, Scheduler};
use rteaal_serve::{
    JobHandle, Request, Response, ServeClient, ServerPool, ShardConfig, ShardRouter, WireJob,
    WireResult,
};
use rteaal_telemetry::{JobStage, MetricsRegistry, MetricsSnapshot, ALL_STAGES};
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A loop bound no probe ever reaches: keeps every lane pre-halt.
const NEVER_HALTS: u64 = 1 << 30;
/// Segment coordinate of probe stimulus, apart from any workload's.
const PROBE_SEG: u64 = 1 << 40;

/// How hard one probe tries.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Calls wanted.
    pub repeats: usize,
    /// Stop early (but not before three calls) once this has passed.
    pub cap: Duration,
    /// Jobs per service probe.
    pub jobs: usize,
    /// Segments per service block.
    pub segments: usize,
}

impl Effort {
    pub fn new(seconds: f64, quick: bool) -> Effort {
        if quick {
            Effort {
                repeats: 3,
                cap: Duration::from_secs_f64(0.01 * seconds),
                jobs: 300,
                segments: 3,
            }
        } else {
            Effort {
                repeats: 21,
                cap: Duration::from_secs_f64(0.02 * seconds),
                jobs: 2000,
                segments: 10,
            }
        }
    }

    fn with_cap(self, cap: Duration) -> Effort {
        Effort { cap, ..self }
    }
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Calls `call` until `effort` is spent; each call returns its own
/// measurement.
fn sample(effort: Effort, mut call: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(effort.repeats);
    while out.len() < effort.repeats && (out.len() < 3 || t0.elapsed() < effort.cap) {
        out.push(call());
    }
    out
}

/// Everything later probes need from the compile flow.
pub struct Built {
    pub graph: Graph,
    pub plan: SimPlan,
    pub compiled: Compiled,
}

/// firrtl / dfg / tensor / kernels / core set-up stages, one column of
/// samples per stage, and the plan-shape counts.
pub fn compile_stages(text: &str, effort: Effort, m: &mut Metrics) -> Result<Built, String> {
    const STAGES: [&str; 13] = [
        "firrtl.parse_s",
        "firrtl.lower_s",
        "dfg.build_s",
        "dfg.optimize_s",
        "dfg.plan_s",
        "dfg.analyze_s",
        "dfg.specialize_s",
        "dfg.partition_s",
        "tensor.oim_build_s",
        "kernels.scalar_compile_s",
        "kernels.batch_compile_s",
        "core.compile_s",
        "core.batch_new_s",
    ];
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut built = None;
    let t0 = Instant::now();
    while columns[0].len() < effort.repeats && (columns[0].len() < 3 || t0.elapsed() < effort.cap) {
        let e = |e: &dyn std::fmt::Display| format!("compile stage failed: {e}");
        let (circuit, parse_s) = secs(|| rteaal_firrtl::parser::parse(text));
        let circuit = circuit.map_err(|x| e(&x))?;
        let (flat, lower_s) = secs(|| rteaal_firrtl::lower::lower_typed(&circuit));
        let flat = flat.map_err(|x| e(&x))?;
        let (graph, build_s) = secs(|| rteaal_dfg::build(&flat));
        let graph = graph.map_err(|x| e(&x))?;
        let ((graph, _), optimize_s) = secs(|| optimize(&graph, &PassOptions::default()));
        let (_, analyze_graph_s) = secs(|| black_box(analyze_graph(&graph)));
        let (sim_plan, plan_s) = secs(|| plan(&graph));
        let (_, analyze_design_s) = secs(|| black_box(analyze_design(&sim_plan)));
        let (spec, specialize_s) = secs(|| specialize(&sim_plan));
        let (pp, partition_s) = secs(|| PartitionedPlan::new(&sim_plan, 2));
        let (_, oim_s) = secs(|| black_box(rteaal_tensor::oim::OimOptimized::from_plan(&sim_plan)));
        let (_, scalar_s) = secs(|| black_box(Kernel::compile(&sim_plan, kernel_config())));
        let (_, batch_s) = secs(|| black_box(BatchKernel::compile(&sim_plan, kernel_config())));
        let (compiled, compile_s) = secs(|| compiler().compile_str(text));
        let compiled = compiled.map_err(|x| e(&x))?;
        let (_, new_s) = secs(|| black_box(BatchSimulation::new(&compiled, LANES)));
        let row = [
            parse_s,
            lower_s,
            build_s,
            optimize_s,
            plan_s,
            analyze_graph_s + analyze_design_s,
            specialize_s,
            partition_s,
            oim_s,
            scalar_s,
            batch_s,
            compile_s,
            new_s,
        ];
        for (column, value) in columns.iter_mut().zip(row) {
            column.push(value);
        }
        if built.is_none() {
            let stats = compiled.plan_stats();
            m.exact("dfg.plan_ops", stats.effectual_ops as f64);
            m.exact("dfg.plan_layers", stats.layers as f64);
            m.exact("dfg.plan_slots", stats.slots as f64);
            m.exact(
                "dfg.spec_ops_changed",
                (spec.stats.ops_before - spec.stats.ops_after) as f64,
            );
            m.exact(
                "dfg.spec_rows_packed",
                SpecProgram::build(&spec.plan, true).bit_rows() as f64,
            );
            m.exact("dfg.part2_replication", pp.replication_factor());
            m.exact("firrtl.src_bytes", text.len() as f64);
            let json = compiled.oim_json().map_err(|x| e(&x))?;
            m.exact("tensor.oim_json_bytes", json.len() as f64);
            built = Some(Built {
                graph,
                plan: sim_plan,
                compiled,
            });
        }
    }
    let medians: Vec<Summary> = columns.iter().map(|c| median(c)).collect();
    for (name, summary) in STAGES.iter().zip(&medians) {
        m.set(name, *summary);
    }
    // What compile_str spends outside the stages timed one by one.
    let explained: f64 = [0, 1, 2, 3, 4, 5, 9]
        .iter()
        .map(|&i| medians[i].value)
        .sum();
    let whole = medians[11].value;
    m.exact("core.compile_residual_frac", (whole - explained) / whole);
    built.ok_or_else(|| "no compile stage ran".to_string())
}

/// A batch kernel with its state armed in the workload's regime: every
/// lane live and nowhere near its halt.
struct Rig {
    design: Design,
    kernel: BatchKernel,
    state: BatchLiState,
    threads: usize,
}

impl Rig {
    fn new(design: Design, plan: &SimPlan, kernel: BatchKernel, state: BatchLiState) -> Rig {
        let mut rig = Rig {
            design,
            kernel,
            state,
            threads: 1,
        };
        rig.arm(plan, NEVER_HALTS);
        rig
    }

    /// Gives every `rv32i` lane the loop bound `k` (the chip has no
    /// state to arm: its stimulus arrives cycle by cycle).
    fn arm(&mut self, plan: &SimPlan, k: u64) {
        if self.design == Design::Rv32i {
            let x15 = plan.signal_slot("x15").expect("x15 is probed");
            for lane in 0..self.state.lanes() {
                self.state.poke_slot(x15, lane, k);
            }
        }
    }

    fn flat(design: Design, plan: &SimPlan, kernel: BatchKernel, lanes: usize) -> Rig {
        Rig::new(design, plan, kernel, BatchLiState::new(plan, lanes))
    }

    /// `cycles` cycles; `chip_stim` rewrites every lane's input before
    /// each, as the workload does.
    fn run(&mut self, cycles: u64) {
        let design = self.design;
        self.kernel
            .run_with_stimulus(&mut self.state, cycles, self.threads, |cycle, poker| {
                if design == Design::Chip {
                    for lane in 0..poker.lanes() {
                        poker.set_input(
                            0,
                            lane,
                            inputs::chip_stim(0, PROBE_SEG, lane as u64, cycle),
                        );
                    }
                }
            });
    }

    /// Cycles per timed block: a few milliseconds of stepping.
    fn block(&self) -> u64 {
        match self.design {
            Design::Rv32i => 200,
            Design::Chip => 4,
        }
    }

    /// Median host nanoseconds per cycle.
    fn step_ns(&mut self, effort: Effort) -> Summary {
        let n = self.block();
        self.run(n);
        median(&sample(effort, || secs(|| self.run(n)).1 * 1e9 / n as f64))
    }
}

/// Batch-engine probes: step time per tier and width, threads and
/// partitions, the profiled walk, and the settled-step share.
pub fn batch_kernels(design: Design, plan: &SimPlan, effort: Effort, m: &mut Metrics) {
    let cfg = kernel_config();
    let compiled = |lanes| Rig::flat(design, plan, BatchKernel::compile(plan, cfg), lanes);
    let interpreted = BatchKernel::compile_with_engine(plan, cfg, BatchEngine::Interpreted);
    m.set(
        "kernels.step_ns.interpreted",
        Rig::flat(design, plan, interpreted, LANES).step_ns(effort),
    );
    let b64 = compiled(LANES).step_ns(effort);
    m.set("kernels.step_ns.compiled", b64);
    m.set(
        "kernels.ns_per_op_lane.compiled",
        b64.map(|ns| ns / (plan.total_ops() * LANES) as f64),
    );
    for (name, lanes) in [
        ("kernels.lane_cycles_per_s.b1", 1),
        ("kernels.lane_cycles_per_s.b16", 16),
    ] {
        let step = compiled(lanes).step_ns(effort);
        m.set(name, median_rate(step, lanes));
    }
    m.set("kernels.lane_cycles_per_s.b64", median_rate(b64, LANES));

    let spec_kernel = BatchKernel::compile_specialized(&specialize(plan), cfg, true);
    let mut spec = Rig::flat(design, plan, spec_kernel, LANES);
    m.set("kernels.step_ns.specialized", spec.step_ns(effort));
    // Pre-halt, the specialized tier's settled-batch gate must never
    // fire: a non-zero share means the measured regime is not steady.
    let probe_steps = spec.block() * 8;
    let mut settled = 0;
    for _ in 0..probe_steps {
        spec.run(1);
        settled += u64::from(spec.state.settled());
    }
    m.exact(
        "kernels.settled_step_frac.specialized",
        settled as f64 / probe_steps as f64,
    );

    let mut threaded = compiled(LANES);
    threaded.threads = 2;
    m.exact(
        "kernels.threads2_speedup",
        b64.value / threaded.step_ns(effort).value,
    );
    let pp = PartitionedPlan::new(plan, 2);
    let mut parted = Rig::new(
        design,
        plan,
        BatchKernel::compile_partitioned(&pp, cfg),
        BatchLiState::new_partitioned(plan, LANES, &pp),
    );
    parted.threads = 2;
    m.exact(
        "kernels.part2_speedup",
        b64.value / parted.step_ns(effort).value,
    );

    // The profiled walk models every lane's loads: a handful of steps.
    let mut profiled = compiled(LANES);
    let mut mem = Machine::intel_xeon().mem_sim();
    let few = Effort {
        repeats: effort.repeats.min(5),
        ..effort
    };
    let profiled_ns = median(&sample(few, || {
        let mut profile = ExecProfile::default();
        secs(|| {
            black_box(
                profiled
                    .kernel
                    .step_profiled(&mut profiled.state, &mut mem, &mut profile),
            )
        })
        .1 * 1e9
    }));
    m.exact(
        "kernels.step_profiled_overhead_ratio",
        profiled_ns.value / b64.value,
    );
}

fn median_rate(step_ns: Summary, lanes: usize) -> Summary {
    let rate = step_ns.map(|ns| lanes as f64 * 1e9 / ns);
    Summary {
        q1: rate.q3,
        q3: rate.q1,
        ..rate
    }
}

/// What the scalar kernels and the baselines have in common.
trait ScalarEngine {
    fn drive(&mut self, value: u64);
    fn advance(&mut self);
}

impl ScalarEngine for Kernel {
    fn drive(&mut self, value: u64) {
        self.set_input(0, value);
    }
    fn advance(&mut self) {
        self.step();
    }
}

impl ScalarEngine for VerilatorLike {
    fn drive(&mut self, value: u64) {
        self.set_input(0, value);
    }
    fn advance(&mut self) {
        self.step();
    }
}

impl ScalarEngine for EssentLike {
    fn drive(&mut self, value: u64) {
        self.set_input(0, value);
    }
    fn advance(&mut self) {
        self.step();
    }
}

/// Median simulated cycles per host second of one scalar engine.
fn scalar_rate(design: Design, engine: &mut impl ScalarEngine, effort: Effort) -> Summary {
    let n: u64 = match design {
        Design::Rv32i => 2000,
        Design::Chip => 16,
    };
    let mut cycle = 0;
    let mut block = || {
        for _ in 0..n {
            if design == Design::Chip {
                engine.drive(inputs::chip_stim(0, PROBE_SEG, 0, cycle));
            }
            engine.advance();
            cycle += 1;
        }
    };
    block();
    median(&sample(effort, || n as f64 / secs(&mut block).1))
}

/// The seven scalar kernels and the two baselines on the same plan.
pub fn scalar_kernels(design: Design, built: &Built, effort: Effort, m: &mut Metrics) {
    const NAMES: [&str; 7] = [
        "kernels.scalar_cycles_per_s.ru",
        "kernels.scalar_cycles_per_s.ou",
        "kernels.scalar_cycles_per_s.nu",
        "kernels.scalar_cycles_per_s.psu",
        "kernels.scalar_cycles_per_s.iu",
        "kernels.scalar_cycles_per_s.su",
        "kernels.scalar_cycles_per_s.ti",
    ];
    let x15 = built.plan.signal_slot("x15");
    let mut psu = f64::NAN;
    for (name, kind) in NAMES.iter().zip(ALL_KERNELS) {
        let mut kernel = Kernel::compile(&built.plan, KernelConfig::new(kind));
        if let (Design::Rv32i, Some(slot)) = (design, x15) {
            kernel.poke_slot(slot, NEVER_HALTS);
        }
        let rate = scalar_rate(design, &mut kernel, effort);
        if kind == KernelKind::Psu {
            psu = rate.value;
        }
        m.set(name, rate);
    }
    // The baselines run the power-on program: on rv32i a zero loop bound
    // wraps, so they too stay pre-halt for the whole probe.
    let mut verilator = VerilatorLike::compile(&built.graph, OptLevel::Full);
    let v = scalar_rate(design, &mut verilator, effort);
    m.set("baselines.verilator_like.cycles_per_s", v);
    let mut essent = EssentLike::compile(&built.graph, OptLevel::Full);
    m.set(
        "baselines.essent_like.cycles_per_s",
        scalar_rate(design, &mut essent, effort),
    );
    m.exact("kernels.psu_vs_verilator_ratio", psu / v.value);
}

/// `BatchSimulation`'s own cost over the kernel it wraps, and its
/// per-lane poke and recycle calls.
pub fn front_door(design: Design, built: &Built, effort: Effort, m: &mut Metrics) {
    let mut sim = BatchSimulation::new(&built.compiled, LANES);
    let mut rig = Rig::flat(
        design,
        &built.plan,
        BatchKernel::compile(&built.plan, kernel_config()),
        LANES,
    );
    let n = rig.block();
    let input = match design {
        Design::Rv32i => {
            sim.watch_halt("halt").expect("rv32i has a halt output");
            for lane in 0..LANES {
                sim.poke_state("x15", lane, NEVER_HALTS)
                    .expect("x15 is probed");
            }
            "reset"
        }
        Design::Chip => "stim",
    };
    let stim_input = sim.input_index(input).expect("the design has this input");
    let front = |sim: &mut BatchSimulation| match design {
        Design::Rv32i => {
            sim.run_until_halt(n);
        }
        Design::Chip => sim.run_with_stimulus(n, |cycle, poker| {
            for lane in 0..LANES {
                poker.set_input(
                    stim_input,
                    lane,
                    inputs::chip_stim(0, PROBE_SEG, lane as u64, cycle),
                );
            }
        }),
    };
    front(&mut sim);
    rig.run(n);
    // Interleaved, so that both sides see the same host.
    let mut front_ns = Vec::new();
    let kernel_ns = sample(effort, || {
        front_ns.push(secs(|| front(&mut sim)).1);
        secs(|| rig.run(n)).1
    });
    let (f, k) = (median(&front_ns).value, median(&kernel_ns).value);
    m.exact("core.front_door_overhead_frac", (f - k) / k);

    let rounds = 50;
    let poke_ns = median(&sample(effort, || {
        secs(|| {
            for round in 0..rounds {
                for lane in 0..LANES {
                    sim.poke(input, lane, 0).expect("input exists");
                    black_box(round);
                }
            }
        })
        .1 * 1e9
            / (rounds * LANES) as f64
    }));
    m.set("core.poke_ns", poke_ns);
    let recycle_ns = median(&sample(effort, || {
        secs(|| {
            for lane in 0..LANES {
                sim.admit(lane, [(input, 0)]).expect("input exists");
            }
        })
        .1 * 1e9
            / LANES as f64
    }));
    m.set("core.recycle_ns", recycle_ns);
}

fn check_job(k: u64, r: &JobResult, checks: &mut Checks) {
    let a0 = r.outputs.iter().find(|(n, _)| n == "a0").map(|(_, v)| *v);
    let expected = rteaal_designs::Workload::param_sum_expected(k);
    if r.outcome == JobOutcome::Completed && a0 == Some(expected) {
        checks.pass(1);
    } else {
        checks.fail(|| format!("probe job k {k}: {:?}, a0 {a0:?}", r.outcome));
    }
}

/// What the scheduler probe hands to the budget.
pub struct SchedCost {
    pub us_per_job: f64,
    pub engine_us_per_job: f64,
}

/// The scheduler driven directly on this thread, every job queued up
/// front: deterministic, so its counts repeat exactly.
pub fn scheduler(
    compiled: &Compiled,
    seed: u64,
    effort: Effort,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<SchedCost, String> {
    let lanes = pool_config().lanes;
    let ks = inputs::corpus(seed, PROBE_SEG, effort.jobs);
    let mut first = None;
    let few = Effort {
        repeats: effort.repeats.min(5),
        ..effort
    };
    let mut failure = None;
    let us_per_job = median(&sample(few, || {
        let mut sched = match Scheduler::new(compiled, lanes, "halt") {
            Ok(s) => s,
            Err(e) => {
                failure = Some(format!("scheduler failed: {e}"));
                return f64::NAN;
            }
        };
        let jobs: Vec<_> = ks.iter().enumerate().map(|(i, &k)| job_for(k, i)).collect();
        let (_, s) = secs(|| {
            for job in jobs {
                sched.submit(job);
            }
            while sched.has_work() {
                sched.run(u64::MAX);
            }
        });
        if first.is_none() {
            let mut results = sched.take_results();
            results.sort_by_key(|r| r.id);
            for r in &results {
                let JobId(i) = r.id;
                check_job(ks[i as usize], r, checks);
            }
            first = Some((sched.stats(), sched.utilization()));
        }
        s * 1e6 / ks.len() as f64
    }));
    if let Some(e) = failure {
        return Err(e);
    }
    let (stats, utilization) = first.ok_or("the scheduler probe did not run")?;
    // Engine-only time for the same busy lane-cycles, at the pool's
    // width with every lane live.
    let step_ns = Rig::flat(
        Design::Rv32i,
        &compiled.plan,
        BatchKernel::compile(&compiled.plan, kernel_config()),
        lanes,
    )
    .step_ns(effort)
    .value;
    let engine_us_per_job =
        stats.busy_lane_cycles as f64 * step_ns / lanes as f64 / 1e3 / ks.len() as f64;
    m.set("sched.us_per_job", us_per_job);
    m.exact(
        "sched.self_us_per_job",
        us_per_job.value - engine_us_per_job,
    );
    m.exact("sched.utilization", utilization);
    m.exact("sched.cycles", stats.cycles as f64);
    m.exact("sched.busy_lane_cycles", stats.busy_lane_cycles as f64);
    m.exact("sched.admitted", stats.admitted as f64);
    m.exact("sched.evicted", stats.evicted as f64);
    m.exact("sched.rejected", stats.rejected as f64);
    Ok(SchedCost {
        us_per_job: us_per_job.value,
        engine_us_per_job,
    })
}

fn counter_total(snapshot: &MetricsSnapshot) -> u64 {
    snapshot
        .counters
        .iter()
        // Counts cycles, not calls.
        .filter(|c| !c.name.starts_with("sched.busy_cycles"))
        .map(|c| c.value)
        .sum()
}

fn histogram_total(snapshot: &MetricsSnapshot) -> u64 {
    snapshot.histograms.iter().map(|h| h.hist.count).sum()
}

/// What the pool probe hands to the budget.
pub struct PoolCost {
    pub us_per_job: f64,
}

/// The pool driven in process, 16 jobs in flight: cost per job, cost of
/// `submit`, the six-stage timeline of every eighth job, and how many
/// telemetry updates a job causes.
pub fn pool(
    pool: &ServerPool,
    seed: u64,
    effort: Effort,
    sched: &SchedCost,
    m: &mut Metrics,
    checks: &mut Checks,
) -> PoolCost {
    const IN_FLIGHT: usize = 16;
    let ks = inputs::corpus(seed, PROBE_SEG + 1, effort.jobs);
    let mut jobs: Vec<_> = ks
        .iter()
        .enumerate()
        .map(|(i, &k)| Some(job_for(k, i)))
        .collect();
    let before = pool.metrics().snapshot();
    let mut handles: Vec<JobHandle> = Vec::with_capacity(IN_FLIGHT);
    let mut meta: Vec<(usize, Instant)> = Vec::with_capacity(IN_FLIGHT);
    let mut submit_us = Vec::with_capacity(ks.len());
    let mut stages: Vec<Vec<f64>> = vec![Vec::new(); ALL_STAGES.len() - 1];
    let mut residuals = Vec::new();
    let mut next = 0;
    let t0 = Instant::now();
    let mut timeline_s = 0.0;
    while next < ks.len() || !handles.is_empty() {
        if next < ks.len() && handles.len() < IN_FLIGHT {
            let job = jobs[next].take().expect("each job is submitted once");
            let sent = Instant::now();
            handles.push(pool.submit(job));
            submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            meta.push((next, sent));
            next += 1;
            continue;
        }
        let (at, r) = JobHandle::wait_any(&handles).expect("handles is not empty");
        let seen_us = meta[at].1.elapsed().as_secs_f64() * 1e6;
        let handle = handles.swap_remove(at);
        let (index, _) = meta.swap_remove(at);
        check_job(ks[index], &r, checks);
        if index % 8 == 0 {
            // Reading a timeline scans the event ring: keep it out of
            // the per-job cost.
            let (events, s) = secs(|| pool.timeline(handle.id()));
            timeline_s += s;
            let at_us = |stage: JobStage| {
                events
                    .iter()
                    .find(|e| e.stage == stage)
                    .map(|e| e.at_us as f64)
            };
            let marks: Vec<Option<f64>> = ALL_STAGES.iter().map(|&s| at_us(s)).collect();
            if let Some(marks) = marks.into_iter().collect::<Option<Vec<f64>>>() {
                for (column, pair) in stages.iter_mut().zip(marks.windows(2)) {
                    column.push(pair[1] - pair[0]);
                }
                let staged = marks[marks.len() - 1] - marks[0];
                residuals.push((seen_us - staged) / seen_us);
            }
        }
    }
    let us_per_job = (t0.elapsed().as_secs_f64() - timeline_s) * 1e6 / ks.len() as f64;
    let after = pool.metrics().snapshot();
    m.exact("serve.pool.us_per_job", us_per_job);
    m.exact("serve.pool.self_us_per_job", us_per_job - sched.us_per_job);
    m.set("serve.pool.submit_us", median(&submit_us));
    const STAGE_NAMES: [&str; 5] = [
        "serve.stage_us.submitted_queued",
        "serve.stage_us.queued_admitted",
        "serve.stage_us.admitted_halted",
        "serve.stage_us.halted_published",
        "serve.stage_us.published_delivered",
    ];
    for (name, column) in STAGE_NAMES.iter().zip(&stages) {
        m.set(name, median(column));
    }
    m.set("serve.stage_sum_residual_frac", median(&residuals));

    // Telemetry: what one update costs, times how many a job causes.
    let registry = MetricsRegistry::new();
    let (counter, hist) = (registry.counter("probe"), registry.histogram("probe"));
    let per_call = |calls: u64, f: &dyn Fn(u64)| {
        median(&sample(effort, || {
            secs(|| {
                for i in 0..calls {
                    f(i);
                }
            })
            .1 * 1e9
                / calls as f64
        }))
    };
    let inc = per_call(100_000, &|_| counter.inc());
    let record = per_call(100_000, &|i| hist.record(i));
    let event = per_call(20_000, &|i| {
        registry.record_event(i, JobStage::Queued, Some(0), Some(1), None);
    });
    m.set("telemetry.counter_inc_ns", inc);
    m.set("telemetry.hist_record_ns", record);
    m.set("telemetry.event_record_ns", event);
    let per_job = |total: u64| total as f64 / ks.len() as f64;
    let est_ns = per_job(counter_total(&after) - counter_total(&before)) * inc.value
        + per_job(histogram_total(&after) - histogram_total(&before)) * record.value
        + per_job(after.events_recorded - before.events_recorded) * event.value;
    m.exact("telemetry.est_us_per_job", est_ns / 1e3);
    PoolCost { us_per_job }
}

/// Host microseconds per job of a closed-loop block.
pub fn us_per_job(segs: &[SvcSeg]) -> f64 {
    let (ns, jobs) = segs
        .iter()
        .fold((0u64, 0u64), |(ns, jobs), s| (ns + s.ns, jobs + s.jobs));
    ns as f64 / 1e3 / jobs as f64
}

/// The wire around the pool: the loaded closed loop's cost per job, the
/// JSON codec's share of it, bytes, a bare round trip, and the budget's
/// unexplained remainder.
pub fn wire(
    addr: SocketAddr,
    loaded: &[SvcSeg],
    sched: &SchedCost,
    pool: &PoolCost,
    effort: Effort,
    m: &mut Metrics,
) -> Result<(), String> {
    let socket_us = us_per_job(loaded);
    m.exact("serve.socket.us_per_job", socket_us);
    m.exact("serve.wire.self_us_per_job", socket_us - pool.us_per_job);
    // What a caller sees on the wall: reported, too unsteady on a shared
    // host to be gated.
    let windows = windows(loaded);
    m.set(
        "serve.closed.jobs_per_s",
        quiet_of(&windows, Window::jobs_per_s, Better::Higher),
    );
    m.set(
        "serve.closed.p50_us",
        quiet_of(&windows, |w| w.p50_us, Better::Lower),
    );
    m.set(
        "serve.closed.p90_us",
        quiet_of(&windows, |w| w.p90_us, Better::Lower),
    );
    let p99: Vec<f64> = loaded.iter().map(|s| s.p99_us).collect();
    m.set("serve.closed.p99_us", median(&p99));

    // The four lines one job puts on the wire, each written and read.
    let job = job_for(40, 0);
    let result = WireResult {
        id: 123_456,
        name: job.name.clone(),
        outcome: "completed".to_string(),
        error: None,
        outputs: vec![rteaal_serve::WireBinding {
            name: "a0".to_string(),
            value: 820,
        }],
        cycles: 125,
        admitted_at: 1_000_000,
        finished_at: 1_000_125,
    };
    let requests = [Request::submit(WireJob::from(&job)), Request::result(None)];
    let responses = [Response::submitted(123_456), Response::result(result)];
    let e = |e: serde_json::Error| format!("codec failed: {e}");
    let mut bytes = 0;
    for r in &requests {
        bytes += serde_json::to_string(r).map_err(e)?.len() + 1;
    }
    for r in &responses {
        bytes += serde_json::to_string(r).map_err(e)?.len() + 1;
    }
    m.exact("serve.wire.bytes_per_job", bytes as f64);
    let rounds = 200;
    let codec = median(&sample(effort, || {
        secs(|| {
            for _ in 0..rounds {
                for r in &requests {
                    let line = serde_json::to_string(r).expect("requests serialize");
                    black_box(serde_json::from_str::<Request>(&line).expect("and parse back"));
                }
                for r in &responses {
                    let line = serde_json::to_string(r).expect("responses serialize");
                    black_box(serde_json::from_str::<Response>(&line).expect("and parse back"));
                }
            }
        })
        .1 * 1e6
            / rounds as f64
    }));
    m.set("serve.wire.codec_us_per_job", codec);

    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    let mut failure = None;
    let few = effort.with_cap(effort.cap.min(Duration::from_millis(200)));
    let rtt = median(&sample(
        Effort {
            repeats: 200,
            ..few
        },
        || {
            let (pong, s) = secs(|| client.ping());
            if let Err(e) = pong {
                failure = Some(format!("ping failed: {e}"));
            }
            s * 1e6
        },
    ));
    if let Some(e) = failure {
        return Err(e);
    }
    m.set("serve.net.rtt_us", rtt);

    // Engine, scheduler, pool and codec are each measured on their own;
    // what the socket costs beyond their sum is system calls, thread
    // hand-offs and waiting.
    let explained = sched.engine_us_per_job
        + (sched.us_per_job - sched.engine_us_per_job)
        + (pool.us_per_job - sched.us_per_job)
        + codec.value;
    m.exact(
        "serve.budget_residual_frac",
        (socket_us - explained) / socket_us,
    );
    Ok(())
}

/// One shard behind the router against one connection straight to it,
/// both keeping eight jobs in flight.
pub fn router(
    addr: SocketAddr,
    seed: u64,
    effort: Effort,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    const IN_FLIGHT: usize = 8;
    let jobs = effort.jobs / 2;
    let ks = inputs::corpus(seed, PROBE_SEG + 2, jobs);
    let mut router = ShardRouter::connect(&[addr], ShardConfig::default())
        .map_err(|e| format!("router failed: {e}"))?;
    let mut k_of = std::collections::HashMap::new();
    let mut next = 0;
    let t0 = Instant::now();
    while next < jobs || router.pending() > 0 {
        if next < jobs && router.pending() < IN_FLIGHT {
            let id = router
                .submit(job_for(ks[next], next))
                .map_err(|e| format!("router submit failed: {e}"))?;
            k_of.insert(id, ks[next]);
            next += 1;
            continue;
        }
        let routed = router
            .next_result()
            .map_err(|e| format!("router result failed: {e}"))?;
        let k = k_of
            .remove(&routed.id)
            .ok_or("router returned an unknown id")?;
        let expected = rteaal_designs::Workload::param_sum_expected(k);
        if routed.result.completed() && routed.result.output("a0") == Some(expected) {
            checks.pass(1);
        } else {
            checks.fail(|| format!("routed job k {k}: {:?}", routed.result));
        }
    }
    let routed_us = t0.elapsed().as_secs_f64() * 1e6 / jobs as f64;
    let shape = ClosedShape {
        inflight: IN_FLIGHT,
        jobs_per_seg: jobs,
    };
    let direct = service::closed_phase(
        addr,
        seed ^ 0xd1,
        shape,
        0,
        Limit::segments(1),
        &mut Tracer::off(),
        checks,
    );
    m.exact("serve.router.us_per_job", routed_us);
    m.exact(
        "serve.router.overhead_us_per_job",
        routed_us - us_per_job(&direct),
    );
    Ok(())
}

/// The open loop's tails and overload behaviour.
pub fn open_loop(
    pool: &ServerPool,
    light: &[SvcSeg],
    loaded: &[SvcSeg],
    capacity_jobs_per_s: f64,
    seed: u64,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let column =
        |segs: &[SvcSeg], f: fn(&SvcSeg) -> f64| -> Vec<f64> { segs.iter().map(f).collect() };
    // Latency from the scheduled arrival, on the wall: reported, too
    // unsteady on a shared host to be gated.
    let (light_windows, loaded_windows) = (windows(light), windows(loaded));
    let latency = |windows: &[Window], f: fn(&Window) -> f64| quiet_of(windows, f, Better::Lower);
    m.set(
        "serve.open.p50_us.r4000",
        latency(&light_windows, |w| w.p50_us),
    );
    m.set(
        "serve.open.p50_us.r12000",
        latency(&loaded_windows, |w| w.p50_us),
    );
    m.set(
        "serve.open.p90_us.r12000",
        latency(&loaded_windows, |w| w.p90_us),
    );
    m.set(
        "serve.open.p99_us.r4000",
        median(&column(light, |s| s.p99_us)),
    );
    m.set(
        "serve.open.p99_us.r12000",
        median(&column(loaded, |s| s.p99_us)),
    );
    let outstanding = column(loaded, |s| s.max_outstanding as f64);
    m.exact(
        "serve.open.max_outstanding.r12000",
        outstanding.iter().copied().fold(0.0, f64::max),
    );
    // A segment whose backlog outgrew four jobs per lane was saturated.
    let limit = (4 * pool_config().lanes) as f64;
    let saturated = outstanding.iter().filter(|&&o| o >= limit).count();
    m.exact(
        "serve.open.saturated_seg_frac",
        saturated as f64 / outstanding.len() as f64,
    );
    m.set(
        "gen.lateness_p99_us",
        median(&column(loaded, |s| s.lateness_p99_us)),
    );
    // One burst at twice the measured in-process capacity: how long
    // after the last arrival the backlog is gone. Its jobs are checked
    // but not counted as attempted.
    let (rate, n, seg) = (2.0 * capacity_jobs_per_s, 2000, PROBE_SEG + 3);
    let mut burst_checks = Checks::default();
    let burst = service::open_segment(
        pool,
        seed,
        seg,
        rate,
        n,
        &mut Tracer::off(),
        &mut burst_checks,
    );
    if burst_checks.failed > 0 {
        checks.abort(format!("overload burst: {:?}", burst_checks.errors));
    }
    let last_due_ns = *inputs::poisson_offsets_ns(seed, seg, rate, n)
        .last()
        .expect("the burst has arrivals");
    m.exact(
        "serve.open.overload_drain_ms",
        burst.ns.saturating_sub(last_due_ns) as f64 / 1e6,
    );
}

/// Every probe of the engine layers, on one design.
pub fn engine_layers(
    design: Design,
    text: &str,
    seconds: f64,
    quick: bool,
    m: &mut Metrics,
) -> Result<Built, String> {
    let effort = Effort::new(seconds, quick);
    // The chip's set-up stages take a second a round: they get the
    // largest share of the run.
    let stages = effort.with_cap(Duration::from_secs_f64(0.2 * seconds));
    let built = compile_stages(text, stages, m)?;
    batch_kernels(design, &built.plan, effort, m);
    scalar_kernels(design, &built, effort, m);
    front_door(design, &built, effort, m);
    Ok(built)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three batch tiers must leave every lane of both engine
    /// designs in the same observable state: the digest the benchmark
    /// pins across commits does not depend on the tier.
    #[test]
    fn state_digest_agrees_across_tiers_on_both_engine_designs() {
        for (design, output, cycles) in [(Design::Rv32i, "a0", 60), (Design::Chip, "digest", 5)] {
            let compiled = compiler().compile(&design.circuit()).expect("compiles");
            let plan = &compiled.plan;
            let cfg = kernel_config();
            let tiers = [
                BatchKernel::compile_with_engine(plan, cfg, BatchEngine::Interpreted),
                BatchKernel::compile(plan, cfg),
                BatchKernel::compile_specialized(&specialize(plan), cfg, true),
            ];
            let digests: Vec<u64> = tiers
                .into_iter()
                .map(|kernel| {
                    let mut rig = Rig::flat(design, plan, kernel, LANES);
                    // k = 9 halts within the 60 cycles: a0 is final.
                    rig.arm(plan, 9);
                    rig.run(cycles);
                    let mut digest = crate::stats::Digest::default();
                    for lane in 0..LANES {
                        let out = rig.state.output_by_name(output, lane);
                        digest.push(out.expect("the design has this output"));
                    }
                    digest.finish()
                })
                .collect();
            assert_eq!(digests[0], digests[1], "{design:?} interpreted vs compiled");
            assert_eq!(
                digests[0], digests[2],
                "{design:?} interpreted vs specialized"
            );
            if design == Design::Rv32i {
                let mut expected = crate::stats::Digest::default();
                for _ in 0..LANES {
                    expected.push(rteaal_designs::Workload::param_sum_expected(9));
                }
                assert_eq!(digests[0], expected.finish());
            }
        }
    }
}
