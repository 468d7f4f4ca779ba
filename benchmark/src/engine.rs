//! The two engine workloads: a loaded phase through `BatchSimulation`
//! (64 lanes, default compiled tier, one thread) and a light phase
//! through the scalar `Simulation` (PSU kernel, one testbench alone),
//! both timed on the stepping thread's CPU clock (`clock.rs`).
//!
//! The scalar phase replays single lanes of the batch phase, so the two
//! golden-check each other at no extra cost: on `rv32i_steady` both are
//! also checked against the closed form `k(k+1)/2`. The service
//! workloads borrow the scalar front door for their own
//! `scalar_cycles_per_s` ([`scalar_jobs_phase`]).

use crate::clock::ThreadCpu;
use crate::inputs;
use crate::stats::Digest;
use crate::trace::Tracer;
use rteaal_core::{BatchSimulation, Compiled, Compiler, DebugModule, Simulation};
use rteaal_designs::{rocket, ChipConfig, Workload};
use rteaal_firrtl::ast::Circuit;
use rteaal_kernels::{KernelConfig, KernelKind};
use std::time::Instant;

/// Stimulus lanes of the loaded phase.
pub const LANES: usize = 64;
/// Cycles of one `chip_stim` segment (every lane, fresh stimulus each).
pub const CHIP_CYCLES: u64 = 32;
/// Segment index of the untimed warm-up segment.
const WARM_UP: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// `Workload::param_sum_circuit()`: 282 ops, state fits the L2.
    Rv32i,
    /// `rocket(4 cores, scale 0.5)`: about 23 k ops, state 3x the L2.
    Chip,
}

impl Design {
    pub fn circuit(self) -> Circuit {
        match self {
            Design::Rv32i => Workload::param_sum_circuit(),
            Design::Chip => rocket(ChipConfig::new(4).with_scale(0.5)),
        }
    }

    /// The design as FIRRTL text: set-up is timed from text.
    pub fn firrtl(self) -> String {
        rteaal_firrtl::parser::emit(&self.circuit())
    }

    /// Cycles a loop bound `k` takes to raise `halt`.
    pub fn rv32i_budget(k: u64) -> u64 {
        3 * k + 64
    }
}

pub fn kernel_config() -> KernelConfig {
    KernelConfig::new(KernelKind::Psu)
}

pub fn compiler() -> Compiler {
    Compiler::new(kernel_config())
}

/// Stops a phase after a number of segments, at a deadline, or both.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub max_segments: usize,
    pub deadline: Option<Instant>,
}

impl Limit {
    pub fn segments(n: usize) -> Limit {
        Limit {
            max_segments: n,
            deadline: None,
        }
    }

    pub fn until(deadline: Instant) -> Limit {
        Limit {
            max_segments: 1 << 20,
            deadline: Some(deadline),
        }
    }

    pub fn reached(&self, done: usize) -> bool {
        done >= self.max_segments || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn pass(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why());
        }
    }

    /// A failure of the harness itself rather than of one operation.
    pub fn abort(&mut self, why: String) {
        self.fail(|| why);
    }
}

/// One segment of the loaded phase: all lanes, one testbench each.
#[derive(Debug, Clone)]
pub struct BatchSeg {
    /// Cycles every lane was live for.
    pub cycles: u64,
    /// CPU time of the stepping call alone.
    pub ns: u64,
    /// Loop bound (`rv32i_steady`; 0 on `chip_stim`).
    pub k: u64,
    /// Per lane: `a0` or `digest` when the lane finished.
    pub outputs: Vec<u64>,
    /// `chip_stim`: CPU time of each cycle (its 64 pokes and its step).
    pub cycle_ns: Vec<u64>,
}

impl BatchSeg {
    pub fn lane_cycles_per_s(&self) -> f64 {
        (self.cycles * LANES as u64) as f64 / self.ns as f64 * 1e9
    }

    /// The lane-rate samples of this segment: one per cycle where every
    /// cycle was timed (a `chip_stim` cycle takes 1.7 ms, short enough to
    /// fall between two disturbances of the host), else the segment's.
    pub fn lane_rate_samples(&self) -> Vec<f64> {
        if self.cycle_ns.is_empty() {
            return vec![self.lane_cycles_per_s()];
        }
        self.cycle_ns
            .iter()
            .map(|&ns| LANES as f64 / ns as f64 * 1e9)
            .collect()
    }
}

/// One segment of the light phase: one testbench on the scalar kernel.
#[derive(Debug, Clone, Copy)]
pub struct ScalarSeg {
    pub cycles: u64,
    pub ns: u64,
}

impl ScalarSeg {
    pub fn cycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.ns as f64 * 1e9
    }
}

fn batch_segment(
    design: Design,
    sim: &mut BatchSimulation,
    stim_input: usize,
    seed: u64,
    seg: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> BatchSeg {
    tracer.span("core.reset", seg, |_| sim.reset());
    match design {
        Design::Rv32i => {
            let k = inputs::steady_k(seed, seg);
            tracer.span("core.poke_state", seg, |_| {
                for lane in 0..LANES {
                    sim.poke_state("x15", lane, k).expect("x15 is probed");
                }
            });
            let t0 = ThreadCpu::start();
            let stepped = tracer.span("core.run_until_halt", seg, |_| {
                sim.run_until_halt(Design::rv32i_budget(k))
            });
            let ns = t0.elapsed_ns();
            let outputs: Vec<u64> = tracer.span("core.peek", seg, |_| {
                (0..LANES)
                    .map(|lane| sim.peek("a0", lane).unwrap_or(u64::MAX))
                    .collect()
            });
            for (lane, &a0) in outputs.iter().enumerate() {
                let done = sim.completion_cycle(lane);
                if a0 == Workload::param_sum_expected(k) && done == Some(stepped) {
                    checks.pass(1);
                } else {
                    checks.fail(|| {
                        format!("rv32i seg {seg} lane {lane} k {k}: a0 {a0}, done {done:?}")
                    });
                }
            }
            BatchSeg {
                cycles: stepped,
                ns,
                k,
                outputs,
                cycle_ns: Vec::new(),
            }
        }
        Design::Chip => {
            let mut marks = Vec::with_capacity(CHIP_CYCLES as usize + 1);
            let t0 = ThreadCpu::start();
            tracer.span("core.run_with_stimulus", seg, |_| {
                sim.run_with_stimulus(CHIP_CYCLES, |cycle, poker| {
                    marks.push(t0.elapsed_ns());
                    for lane in 0..LANES {
                        let stim = inputs::chip_stim(seed, seg, lane as u64, cycle);
                        poker.set_input(stim_input, lane, stim);
                    }
                });
            });
            let ns = t0.elapsed_ns();
            marks.push(ns);
            let outputs: Vec<u64> = tracer.span("core.peek", seg, |_| {
                (0..LANES)
                    .map(|lane| sim.peek("digest", lane).unwrap_or(u64::MAX))
                    .collect()
            });
            // Each lane's digest is checked when the scalar phase
            // replays it; until then it only counts as attempted.
            checks.pass(LANES as u64);
            BatchSeg {
                cycles: CHIP_CYCLES,
                ns,
                k: 0,
                outputs,
                cycle_ns: marks.windows(2).map(|w| w[1] - w[0]).collect(),
            }
        }
    }
}

/// What the two engine phases measured.
pub struct EngineRun {
    pub batch: Vec<BatchSeg>,
    pub scalar: Vec<ScalarSeg>,
}

/// One segment of the light phase: replays one lane of a batch segment
/// on the scalar `Simulation` and checks the two against each other.
#[allow(clippy::too_many_arguments)]
fn scalar_segment(
    design: Design,
    sim: &mut Simulation,
    seed: u64,
    seg: u64,
    lane: usize,
    b: &BatchSeg,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> ScalarSeg {
    sim.kernel_mut().reset();
    let (ns, got) = match design {
        Design::Rv32i => {
            DebugModule::new(sim)
                .poke_reg("x15", b.k)
                .expect("x15 is probed");
            let t0 = ThreadCpu::start();
            tracer.span("core.step_cycles", seg, |_| sim.step_cycles(b.cycles));
            let ns = t0.elapsed_ns();
            let halted = sim.peek("halt") == Some(1);
            (ns, sim.peek("a0").filter(|_| halted))
        }
        Design::Chip => {
            let t0 = ThreadCpu::start();
            tracer.span("core.poke_step", seg, |_| {
                for cycle in 0..b.cycles {
                    let stim = inputs::chip_stim(seed, seg, lane as u64, cycle);
                    sim.poke("stim", stim).expect("chip has a stim input");
                    sim.step();
                }
            });
            (t0.elapsed_ns(), sim.peek("digest"))
        }
    };
    if got == Some(b.outputs[lane]) {
        checks.pass(1);
    } else {
        checks.fail(|| {
            format!(
                "{design:?} scalar replay of seg {seg} lane {lane}: {got:?} != batch {}",
                b.outputs[lane]
            )
        });
    }
    ScalarSeg {
        cycles: b.cycles,
        ns,
    }
}

/// Both engine phases until `limit` batch segments or its deadline,
/// after one untimed warm-up segment. The phases are interleaved — each
/// batch segment is followed by the scalar replays of a few of its lanes,
/// about a third of the time — so that a slow spell of the host costs
/// each phase some segments instead of costing one phase all of them.
pub fn engine_phases(
    design: Design,
    compiled: &Compiled,
    seed: u64,
    limit: Limit,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> EngineRun {
    let mut sim = tracer.span("core.batch_new", 0, |_| {
        BatchSimulation::new(compiled, LANES)
    });
    let mut scalar_sim = tracer.span("core.simulation_new", 0, |_| {
        Simulation::new(compiled.clone())
    });
    let (stim_input, replays) = match design {
        Design::Rv32i => {
            sim.watch_halt("halt").expect("rv32i has a halt output");
            (0, 2)
        }
        Design::Chip => (sim.input_index("stim").expect("chip has a stim input"), 3),
    };
    let (mut off, mut discard) = (Tracer::off(), Checks::default());
    batch_segment(
        design,
        &mut sim,
        stim_input,
        seed,
        WARM_UP,
        &mut off,
        &mut discard,
    );
    let mut run = EngineRun {
        batch: Vec::new(),
        scalar: Vec::new(),
    };
    while !limit.reached(run.batch.len()) {
        let seg = run.batch.len() as u64;
        let b = tracer.span("bench.batch_segment", seg, |tracer| {
            batch_segment(design, &mut sim, stim_input, seed, seg, tracer, checks)
        });
        for r in 0..replays {
            // Walks the lanes, so that every lane is replayed in turn.
            let lane = (seg as usize * replays + r) % LANES;
            run.scalar.push(scalar_segment(
                design,
                &mut scalar_sim,
                seed,
                seg,
                lane,
                &b,
                tracer,
                checks,
            ));
        }
        run.batch.push(b);
    }
    run
}

/// Corpus jobs one scalar segment of a service workload replays.
const SCALAR_JOBS_PER_SEG: usize = 16;

/// The scalar front door on a service workload: the same `param_sum`
/// jobs the service runs, one at a time on the scalar `Simulation`, each
/// for its declared cycle budget and checked like a served job. Appends
/// to `segs`: a run spreads this short phase over its rounds.
pub fn scalar_jobs_phase(
    compiled: &Compiled,
    seed: u64,
    limit: Limit,
    segs: &mut Vec<ScalarSeg>,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let mut sim = Simulation::new(compiled.clone());
    let already = segs.len();
    while !limit.reached(segs.len() - already) {
        let seg = segs.len() as u64;
        let ks = inputs::corpus(seed, seg, SCALAR_JOBS_PER_SEG);
        let mut cycles = 0;
        let t0 = ThreadCpu::start();
        for &k in &ks {
            sim.kernel_mut().reset();
            DebugModule::new(&mut sim)
                .poke_reg("x15", k)
                .expect("x15 is probed");
            let budget = Workload::param_sum_budget(k);
            tracer.span("core.step_cycles", seg, |_| sim.step_cycles(budget));
            cycles += budget;
            if sim.peek("halt") == Some(1)
                && sim.peek("a0") == Some(Workload::param_sum_expected(k))
            {
                checks.pass(1);
            } else {
                checks.fail(|| format!("scalar job k {k}: a0 {:?}", sim.peek("a0")));
            }
        }
        segs.push(ScalarSeg {
            cycles,
            ns: t0.elapsed_ns(),
        });
    }
}

/// Simulated cycles and a digest of every checked output of the batch
/// segments: identical across commits, tiers and repeats.
pub fn simulated_stats(batch: &[BatchSeg]) -> (u64, u64) {
    let mut digest = Digest::default();
    let mut cycles = 0;
    for seg in batch {
        cycles += seg.cycles * LANES as u64;
        digest.push(seg.k);
        digest.push(seg.cycles);
        for &out in &seg.outputs {
            digest.push(out);
        }
    }
    (cycles, digest.finish())
}

/// One cold set-up of an engine workload: FIRRTL text to a batch
/// simulation that has taken its first step. Returns the compile result
/// and the host seconds.
pub fn setup_once(text: &str, tracer: &mut Tracer) -> Result<(Compiled, f64), String> {
    let t0 = ThreadCpu::start();
    let compiled = tracer
        .span("core.compile_str", 0, |_| compiler().compile_str(text))
        .map_err(|e| format!("compile failed: {e}"))?;
    let mut sim = tracer.span("core.batch_new", 0, |_| {
        BatchSimulation::new(&compiled, LANES)
    });
    tracer.span("core.step", 0, |_| sim.step());
    Ok((compiled, t0.elapsed_s()))
}
