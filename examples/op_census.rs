//! Per-opcode time census of the compiled lane kernels — the first
//! answer to "why is this design slow" — opened, per design, by the first
//! answer to "why is this design slow to set up": the compile budget from
//! FIRRTL text, stage by stage (best of five compiles), with the rate each
//! front-end stage works at — MB/s of source and ns per expression node
//! for the parser and the lowering, ns per graph node for graph
//! construction and the passes — the graph's node count before and after
//! each of the passes' two rebuilds, the allocations each stage makes
//! (counted by a global allocator of this example's own), and set-up the
//! way the benchmark's `setup_s` counts it: `compile_str`, then
//! `BatchSimulation::new` and the first step, with what `compile_str`
//! spends outside its stages — the drops of the levels it is done with —
//! and what each drop costs. Then what rows the plan runs in
//! (`u32` or `u64`, and if `u64`, which slot or op said so), the slot
//! width histogram and how many truncations the graph pass fused. Then
//! the scalar side ("why is the scalar kernel slow on this design"): how
//! much of format (c)'s `N` rank is occupied — `(layer, type)` groups with
//! an op, of layers × 40 — how many ops a group holds, and the step of
//! NU, PSU and IU per cycle, per group and per op (one walk, so the three
//! read alike), with the share of groups and of ops whose loop
//! canonicalizes by the mask alone (no signed op narrower than 64 bits in
//! the group) and how many operands a mux chain reads, on the warmed-up
//! image, up to its first true condition. Then every `CompiledOp` of a
//! design is grouped by opcode and timed over a live 64-lane `LI` image:
//! op count, share of the summed walk, ns per op and per op-lane; then
//! the walk of one call per op in plan order against a whole `step` (the
//! rest is the stimulus and the commit, less what the engine's run walk
//! saves; the two are timed apart, so a few percent either way is noise)
//! — in the plan's own lane type, and for a narrow plan also forced onto
//! `u64` rows, which splits what the smaller plan buys from what the
//! narrower rows buy. Last, the one-thread step of the plan (the
//! numbering `BatchSimulation` runs) at 1, 2, 4, 5, 7, 8, 16 and 64 live
//! lanes, with the entry of the lane kernels each window takes (whole
//! chunks or any window) — the crossover table a few-lane window is
//! judged by. Then the lane walk: its runs (one kernel call each: count,
//! mean and longest), the median distance in ops from a value's
//! producer to its readers, and the pair census, what fused op pairs
//! would have to work with: every two ops adjacent in the walk where the
//! second reads the first, grouped by (producer, consumer, operand), and
//! how many such pairs a greedy pass can take without two sharing an op
//! — the dispatches pair kernels could save at most.
//!
//! ```text
//! cargo run --release --example op_census
//! ```

use rteaal_core::{BatchSimulation, Compiled, Compiler};
use rteaal_designs::{rocket, sha3, ChipConfig, Stimulus, Workload};
use rteaal_dfg::analyze::{analyze_design, analyze_graph};
use rteaal_dfg::lane_kernel::{
    compile_layer, BatchEngine, CompiledOp, Entry, Lane, LaneLayout, LaneType, LaneWindow,
};
use rteaal_dfg::op::{DfgOp, NUM_OPCODES};
use rteaal_dfg::passes::{optimize, PassOptions};
use rteaal_dfg::{OpInst, SimPlan};
use rteaal_firrtl::ast::{Expr, Stmt};
use rteaal_firrtl::Circuit;
use rteaal_kernels::state::Canon;
use rteaal_kernels::{BatchKernel, BatchLiState, Kernel, KernelConfig, KernelKind, LanePoker};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const LANES: usize = 64;

/// Fastest of `passes` timed calls, in ns (the host is shared: the
/// minimum is the pass nothing interrupted).
fn best_ns(passes: usize, mut pass: impl FnMut()) -> f64 {
    let timed = (0..passes).map(|_| {
        let t = Instant::now();
        pass();
        t.elapsed().as_nanos() as f64
    });
    timed.fold(f64::INFINITY, f64::min)
}

/// Times the compiled walk of `plan`'s ops over `image` (every slot's
/// canonical value, slot-major, `LANES` per slot) held in rows of `T`:
/// with `detail`, per opcode — op count, share of the summed walk, ns per
/// op and per op-lane; always the walk of one call per op in plan order.
/// Returns the walk's ns.
fn timed_walk<T: Lane>(plan: &SimPlan, image: &[u64], detail: bool) -> f64 {
    let layout = LaneLayout::of_as(plan, T::TYPE);
    let flat: Vec<OpInst> = plan.layers.iter().flatten().cloned().collect();
    let ops = compile_layer(&flat, &layout);
    // Rows on a cache line, as the engine's state keeps them: a row split
    // across two lines walks ≈ 25 % slower.
    let pad = 64 / std::mem::size_of::<T>();
    let mut rows: Vec<T> = Vec::with_capacity(image.len() + pad);
    let start = rows.as_ptr().align_offset(64).min(pad);
    rows.resize(start, T::default());
    rows.extend(image.iter().map(|&v| T::truncate(v)));
    let li = &mut rows[start..];
    let w = LaneWindow::full(LANES);
    let mut walk = |ops: &[&CompiledOp]| {
        let passes = (200_000 / ops.len()).clamp(5, 2_000);
        best_ns(passes, || {
            ops.iter()
                .for_each(|op| op.eval_lanes(black_box(&mut *li), w))
        })
    };
    let mut sum_ns = 0.0;
    if detail {
        let mut groups: BTreeMap<String, Vec<&CompiledOp>> = BTreeMap::new();
        for op in &ops {
            let name = op.opcode().expect("valid opcode").to_string();
            groups.entry(name).or_default().push(op);
        }
        let count: usize = groups.values().map(Vec::len).sum();
        assert_eq!(
            count,
            plan.total_ops(),
            "every scheduled op is in one group"
        );
        let rows: Vec<(&String, usize, f64)> = groups
            .iter()
            .map(|(name, ops)| (name, ops.len(), walk(ops)))
            .collect();
        sum_ns = rows.iter().map(|r| r.2).sum();
        println!(
            "  {:<10} {:>6} {:>7} {:>9} {:>11}",
            "opcode", "ops", "share", "ns/op", "ns/op-lane"
        );
        for (name, n, ns) in rows {
            let per_op = ns / n as f64;
            let share = 100.0 * ns / sum_ns;
            println!(
                "  {name:<10} {n:>6} {share:>6.1}% {per_op:>9.1} {:>11.3}",
                per_op / LANES as f64
            );
        }
    }
    let walk_ns = walk(&ops.iter().collect::<Vec<_>>());
    if detail {
        println!(
            "  walk {:.1} us (groups sum to {:.1})",
            walk_ns / 1e3,
            sum_ns / 1e3
        );
    }
    walk_ns
}

/// The scalar side of `plan`: occupancy of format (c)'s `N` rank, ops per
/// occupied group, and the step of the three kernels that walk those
/// groups — lane 0's stimulus for `warm` cycles, then timed with the
/// inputs held — with the groups and ops that take the mask-only body,
/// and how many operands a mux chain reads on the image after `warm`
/// cycles: its conditions up to the first true one and that one's value,
/// or every condition and the default (against its length).
fn scalar_census(
    plan: &SimPlan,
    x15: Option<u64>,
    ports: &[usize],
    warm: u64,
    value: &mut dyn FnMut(u64, usize, usize) -> u64,
) {
    // Per group: its op count, and whether every op is mask-only.
    let mut per_group: BTreeMap<(usize, u16), (usize, bool)> = BTreeMap::new();
    for (i, layer) in plan.layers.iter().enumerate() {
        for op in layer {
            let group = per_group.entry((i, op.n)).or_insert((0, true));
            group.0 += 1;
            group.1 &= Canon::new(op.width as u32, op.signed).is_mask_only();
        }
    }
    let mask_only: Vec<usize> = per_group.values().filter(|g| g.1).map(|g| g.0).collect();
    let mut sizes: Vec<usize> = per_group.into_values().map(|g| g.0).collect();
    sizes.sort_unstable();
    let (groups, rank) = (sizes.len(), plan.layers.len() * NUM_OPCODES);
    let at = |q: usize| sizes.get((groups.max(1) - 1) * q / 4).copied().unwrap_or(0);
    println!(
        "  N rank: {groups} of {rank} (layer, type) groups occupied ({:.1}%), \
         ops per group min/q1/median/q3/max {}/{}/{}/{}/{}",
        100.0 * groups as f64 / rank.max(1) as f64,
        at(0),
        at(1),
        at(2),
        at(3),
        at(4)
    );
    let cycles = (100_000 / plan.total_ops().max(1)).clamp(4, 256);
    let mut line = String::from("  scalar step:");
    // Mux chains on the warmed-up image: count, operands read, operands.
    let (mut chains, mut read, mut operands) = (0, 0, 0);
    for kind in [KernelKind::Nu, KernelKind::Psu, KernelKind::Iu] {
        let mut kernel = Kernel::compile(plan, KernelConfig::new(kind));
        if let Some(k) = x15 {
            kernel.poke_slot(plan.signal_slot("x15").expect("probed"), k);
        }
        for cycle in 0..warm {
            for (k, &port) in ports.iter().enumerate() {
                kernel.set_input(port, value(cycle, 0, k));
            }
            kernel.step();
        }
        if kind == KernelKind::Nu {
            for chain in plan.layers.iter().flatten() {
                if chain.op() != DfgOp::MuxChain {
                    continue;
                }
                let pairs = (chain.ins.len() - 1) / 2;
                let mut conditions = chain.ins.chunks_exact(2).take(pairs);
                let taken = conditions.position(|pair| kernel.slot(pair[0]) != 0);
                chains += 1;
                read += taken.map_or(pairs + 1, |k| k + 2);
                operands += chain.ins.len();
            }
        }
        let ns = best_ns(50, || black_box(&mut kernel).run(cycles as u64)) / cycles as f64;
        line += &format!(
            " {kind:?} {ns:.0} ns/cycle ({:.1} per group, {:.2} per op);",
            ns / groups.max(1) as f64,
            ns / plan.total_ops().max(1) as f64
        );
    }
    let ops: usize = mask_only.iter().sum();
    let per_chain = |n: usize| n as f64 / chains.max(1) as f64;
    println!(
        "{}; mask-only bodies: {} of {groups} groups ({:.1}%), {ops} of {} ops ({:.1}%); \
         {chains} mux chains read {:.2} of {:.2} operands to the first true condition",
        line.trim_end_matches(';'),
        mask_only.len(),
        100.0 * mask_only.len() as f64 / groups.max(1) as f64,
        plan.total_ops(),
        100.0 * ops as f64 / plan.total_ops().max(1) as f64,
        per_chain(read),
        per_chain(operands)
    );
}

fn expr_nodes(e: &Expr) -> usize {
    1 + match e {
        Expr::Ref(_) | Expr::UIntLit { .. } | Expr::SIntLit { .. } => 0,
        Expr::Mux { cond, tval, fval } => expr_nodes(cond) + expr_nodes(tval) + expr_nodes(fval),
        Expr::ValidIf { cond, value } => expr_nodes(cond) + expr_nodes(value),
        Expr::Prim { args, .. } => args.iter().map(expr_nodes).sum(),
    }
}

fn stmt_expr_nodes(body: &[Stmt]) -> usize {
    let of = |stmt: &Stmt| match stmt {
        Stmt::Node { value, .. } | Stmt::Connect { value, .. } => expr_nodes(value),
        Stmt::Reg { reset, .. } => {
            let reset = reset.iter().map(|(r, i)| expr_nodes(r) + expr_nodes(i));
            reset.sum()
        }
        Stmt::When {
            cond,
            then_body,
            else_body,
        } => expr_nodes(cond) + stmt_expr_nodes(then_body) + stmt_expr_nodes(else_body),
        _ => 0,
    };
    body.iter().map(of).sum()
}

/// Counts the program's allocations (`alloc`, `alloc_zeroed` and
/// `realloc` calls), so the compile budget can say how many each stage
/// makes.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is handed on to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, the seconds it took and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    (out, secs, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The set-up stages of one design, timed one by one as the benchmark's
/// `compile_stages` probe times them (no level's drop inside a stage),
/// the drops apart, then `setup_s`'s three parts.
#[derive(Clone, Copy)]
struct Budget {
    /// Seconds per stage: parse, lower, graph, optimize, plan (the graph
    /// check included), verify, kernel.
    stages: [f64; 7],
    /// Allocations per stage, same order.
    allocs: [u64; 7],
    /// Seconds to drop the flat module, the raw graph, the optimized graph
    /// and the parsed circuit.
    drops: [f64; 4],
    compile_str: f64,
    compile_allocs: u64,
    batch_new: f64,
    first_step: f64,
}

impl Budget {
    fn measure(compiler: &Compiler, text: &str) -> (Budget, Compiled) {
        let (circuit, parse, parse_n) = counted(|| rteaal_firrtl::parser::parse(text));
        let circuit = circuit.expect("parses");
        let (flat, lower, lower_n) = counted(|| rteaal_firrtl::lower_typed(&circuit));
        let flat = flat.expect("lowers");
        let (raw, graph, graph_n) = counted(|| rteaal_dfg::build(&flat));
        let raw = raw.expect("builds");
        let ((), drop_flat, _) = counted(|| drop(flat));
        let ((opt, _), optimize_s, optimize_n) = counted(|| optimize(&raw, &compiler.passes));
        let ((), drop_raw, _) = counted(|| drop(raw));
        let (plan, plan_s, plan_n) = counted(|| {
            assert!(analyze_graph(&opt).is_clean());
            rteaal_dfg::plan::plan(&opt)
        });
        let ((), drop_graph, _) = counted(|| drop(opt));
        let (report, verify, verify_n) = counted(|| analyze_design(&plan));
        assert!(report.is_clean());
        let (kernel, kernel_s, kernel_n) = counted(|| Kernel::compile(&plan, compiler.kernel));
        black_box(kernel);
        let ((), drop_circuit, _) = counted(|| drop(circuit));
        let (compiled, compile_str, compile_allocs) = counted(|| compiler.compile_str(text));
        let compiled = compiled.expect("compiles");
        let (mut sim, batch_new, _) = counted(|| BatchSimulation::new(&compiled, LANES));
        let ((), first_step, _) = counted(|| sim.step());
        let budget = Budget {
            stages: [parse, lower, graph, optimize_s, plan_s, verify, kernel_s],
            allocs: [
                parse_n, lower_n, graph_n, optimize_n, plan_n, verify_n, kernel_n,
            ],
            drops: [drop_flat, drop_raw, drop_graph, drop_circuit],
            compile_str,
            compile_allocs,
            batch_new,
            first_step,
        };
        (budget, compiled)
    }

    /// The fastest of two budgets, column by column (allocation counts
    /// repeat exactly).
    fn min(self, other: Budget) -> Budget {
        let min = |a: f64, b: f64| a.min(b);
        Budget {
            stages: std::array::from_fn(|i| min(self.stages[i], other.stages[i])),
            drops: std::array::from_fn(|i| min(self.drops[i], other.drops[i])),
            compile_str: min(self.compile_str, other.compile_str),
            batch_new: min(self.batch_new, other.batch_new),
            first_step: min(self.first_step, other.first_step),
            ..self
        }
    }

    fn setup(&self) -> f64 {
        self.compile_str + self.batch_new + self.first_step
    }
}

/// Compiles `circuit` from its FIRRTL text five times and prints the best
/// time and the allocations of every stage, what each front-end stage
/// costs per unit of its input, the node counts around the passes' two
/// rebuilds, and set-up as `setup_s` counts it: `compile_str`, then
/// `BatchSimulation::new` and the first step; what `compile_str` spends
/// outside the stages is the drops of the levels it is done with.
fn compile_budget(compiler: &Compiler, circuit: &Circuit) -> Compiled {
    let text = rteaal_firrtl::parser::emit(circuit);
    let (mut best, mut compiled) = Budget::measure(compiler, &text);
    for _ in 0..4 {
        let (budget, again) = Budget::measure(compiler, &text);
        best = best.min(budget);
        compiled = again;
    }
    let exprs: usize = circuit
        .modules
        .iter()
        .map(|m| stmt_expr_nodes(&m.body))
        .sum();
    let flat = rteaal_firrtl::lower_typed(circuit).expect("lowers");
    let raw = rteaal_dfg::build(&flat).expect("builds");
    let unfused = PassOptions {
        fuse_mux_chains: false,
        ..compiler.passes
    };
    let (first, last) = (
        optimize(&raw, &unfused).0,
        optimize(&raw, &compiler.passes).0,
    );
    let [parse, lower, graph, optimize_s, plan, verify, kernel] = best.stages;
    let stages: f64 = best.stages.iter().sum();
    println!(
        "{}: compile from {} bytes of FIRRTL, {:.2} ms in stages ({exprs} expression nodes, {} graph nodes)",
        circuit.name,
        text.len(),
        stages * 1e3,
        raw.len()
    );
    let per = |secs: f64, n: usize| secs * 1e9 / n.max(1) as f64;
    println!(
        "  parse {:.2} ms ({:.0} MB/s, {:.0} ns per expression node), lower {:.2} ms ({:.0})",
        parse * 1e3,
        text.len() as f64 / parse / 1e6,
        per(parse, exprs),
        lower * 1e3,
        per(lower, exprs)
    );
    println!(
        "  graph {:.2} ms ({:.0} ns per graph node), optimize {:.2} ms ({:.0}): \
         {} nodes -> {} after fold/copy/truncate -> {} after chain fusion",
        graph * 1e3,
        per(graph, raw.len()),
        optimize_s * 1e3,
        per(optimize_s, raw.len()),
        raw.len(),
        first.len(),
        last.len()
    );
    println!(
        "  plan {:.2} ms, verify {:.2} ms, kernel {:.2} ms",
        plan * 1e3,
        verify * 1e3,
        kernel * 1e3
    );
    let [a_parse, a_lower, a_graph, a_optimize, a_plan, a_verify, a_kernel] = best.allocs;
    println!(
        "  allocations: parse {a_parse}, lower {a_lower}, graph {a_graph}, \
         optimize {a_optimize}, plan {a_plan}, verify {a_verify}, kernel {a_kernel}; \
         compile_str {}",
        best.compile_allocs
    );
    let [flat_d, raw_d, graph_d, circuit_d] = best.drops;
    let residual = best.compile_str - stages;
    println!(
        "  set-up {:.2} ms = compile_str {:.2} + BatchSimulation::new {:.2} + first step {:.2}; \
         compile_str outside the stages {:.2} ms ({:.2} of it), the drops of the flat module \
         {:.2}, the raw graph {:.2}, the graph {:.2}, the circuit {:.2}",
        best.setup() * 1e3,
        best.compile_str * 1e3,
        best.batch_new * 1e3,
        best.first_step * 1e3,
        residual * 1e3,
        residual / best.compile_str,
        flat_d * 1e3,
        raw_d * 1e3,
        graph_d * 1e3,
        circuit_d * 1e3
    );
    compiled
}

/// Compiles `circuit`, says what rows its plan runs in and why, takes
/// the scalar census, then — in each lane type the plan supports, its own
/// last and in detail — pokes `x15` on every lane (RV32I's loop bound),
/// drives the `k`-th of `inputs` with `value(cycle, lane, k)` for `warm`
/// cycles to a live image, and takes the lane census; with `crossover`,
/// also the step by live lanes (a design whose image stays live with its
/// inputs held).
fn census(
    circuit: &Circuit,
    x15: Option<u64>,
    inputs: &[&str],
    warm: u64,
    value: &mut dyn FnMut(u64, usize, usize) -> u64,
    crossover: bool,
) {
    let config = KernelConfig::new(KernelKind::Psu);
    let compiled = compile_budget(&Compiler::new(config), circuit);
    let plan = &compiled.plan;
    let own = LaneLayout::of(plan);
    println!("  {} ops, B = {LANES}", plan.total_ops());
    println!(
        "  lane type {:?}: {} bytes per row of {LANES} lanes, {} slots{}",
        own.lane_type(),
        own.lane_type().bytes() * LANES,
        plan.num_slots,
        own.why_wide()
            .map_or(String::new(), |why| format!(" (u64 rows because {why})"))
    );
    let mut hist = [0usize; 5];
    for &(w, _) in own.slot_types() {
        hist[[1, 8, 16, 32].iter().filter(|&&top| w > top).count()] += 1;
    }
    println!(
        "  slot widths: {} x 1, {} x 2-8, {} x 9-16, {} x 17-32, {} x 33-64; \
         {} truncation(s) fused into their producer",
        hist[0], hist[1], hist[2], hist[3], hist[4], compiled.pass_stats.truncs_fused
    );
    let ports: Vec<usize> = inputs
        .iter()
        .map(|name| {
            let slot = plan.signal_slot(name).expect("input is probed");
            let port = plan.input_slots.iter().position(|&s| s == slot);
            port.expect("an input")
        })
        .collect();
    scalar_census(plan, x15, &ports, warm, value);
    let mut drive = |cycle: u64, poker: &mut LanePoker| {
        for (k, &port) in ports.iter().enumerate() {
            (0..LANES).for_each(|lane| poker.set_input(port, lane, value(cycle, lane, k)));
        }
    };
    for lane in LaneType::supported_for(plan) {
        let layout = LaneLayout::of_as(plan, lane);
        let kernel = BatchKernel::compile_in(plan, config, BatchEngine::Compiled, &layout);
        let mut st = BatchLiState::new_in(plan, LANES, &layout);
        if let Some(k) = x15 {
            let x15 = plan.signal_slot("x15").expect("probed");
            (0..LANES).for_each(|lane| st.poke_slot(x15, lane, k));
        }
        kernel.run_with_stimulus(&mut st, warm, 1, &mut drive);
        let image: Vec<u64> = (0..plan.num_slots as u32)
            .flat_map(|s| (0..LANES).map(move |lane| (s, lane)))
            .map(|(s, lane)| st.slot(s, lane))
            .collect();
        let detail = lane == own.lane_type();
        let walk_ns = match lane {
            LaneType::Narrow => timed_walk::<u32>(plan, &image, detail),
            LaneType::Wide => timed_walk::<u64>(plan, &image, detail),
        };
        let step_ns = best_ns(100, || kernel.run_with_stimulus(&mut st, 4, 1, &mut drive)) / 4.0;
        assert!(!st.settled(), "the timed steps ran on a live image");
        println!(
            "  in {lane:?} rows: walk {:.1} us, step {:.1} us: stimulus + commit + loop = {:.1}%",
            walk_ns / 1e3,
            step_ns / 1e3,
            100.0 * (step_ns - walk_ns) / step_ns
        );
    }
    if crossover {
        live_lane_steps(plan, config, x15.is_some(), warm, &mut drive);
    }
    walk_census(plan, config);
    println!();
}

/// How many pair kinds [`walk_census`] lists by name.
const TOP_PAIRS: usize = 8;

/// The lane walk over `plan`: its runs — how many kernel calls a step
/// makes, and how many ops a run holds on average and at most — and the
/// median distance from a value's producer to its readers, then its
/// adjacent producer→consumer pairs: their kinds by count, and the pairs
/// a greedy left-to-right pass takes when no op may be in two.
fn walk_census(plan: &SimPlan, config: KernelConfig) {
    let kernel = BatchKernel::compile(plan, config);
    let runs: Vec<&[OpInst]> = kernel.runs().collect();
    let walk: Vec<&OpInst> = runs.iter().copied().flatten().collect();
    println!(
        "  lane walk: {} runs over {} ops in {} layers (one kernel call each): \
         {:.2} ops per run, at most {}; median producer-to-reader distance {} ops",
        runs.len(),
        walk.len(),
        plan.layers.len(),
        walk.len() as f64 / runs.len().max(1) as f64,
        runs.iter().map(|run| run.len()).max().unwrap_or(0),
        median_distance(&walk, plan.num_slots)
    );
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let (mut pairs, mut disjoint, mut taken_until) = (0, 0, 0);
    for (k, w) in walk.windows(2).enumerate() {
        let (producer, consumer) = (w[0], w[1]);
        let Some(operand) = consumer.ins.iter().position(|&r| r == producer.out) else {
            continue;
        };
        pairs += 1;
        *kinds
            .entry(format!("{}->{}@{operand}", producer.op(), consumer.op()))
            .or_default() += 1;
        if k >= taken_until {
            disjoint += 1;
            taken_until = k + 2;
        }
    }
    let mut by_count: Vec<(&String, &usize)> = kinds.iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let top: Vec<String> = (by_count.iter().take(TOP_PAIRS))
        .map(|(kind, n)| format!("{kind} {n}"))
        .collect();
    println!(
        "  pair census (run walk): {pairs} adjacent producer->consumer pairs of {} kinds; \
         {disjoint} greedy disjoint pairs, so {} -> {} dispatches at most",
        kinds.len(),
        walk.len(),
        walk.len() - disjoint
    );
    println!(
        "  top pairs (producer->consumer@operand): {}",
        top.join(", ")
    );
}

/// The live-lane counts of the crossover table: ragged windows below a
/// chunk, whole ones, and the full batch.
const LIVE: [usize; 8] = [1, 2, 4, 5, 7, 8, 16, 64];

/// A loop bound RV32I's sum loop takes three billion cycles to reach.
const ENDLESS: u64 = 1 << 30;

/// The one-thread step of `plan` with each of [`LIVE`] lanes live:
/// warmed up `warm` cycles under `drive` on every lane to a live image,
/// then timed with the inputs held (the walk, not the stimulus) in
/// interleaved blocks, each window's best block; and the entry of the
/// lane kernels each window takes. With `endless`, RV32I's loop bound
/// `x15` is [`ENDLESS`], so that no timed cycle reaches the end of the
/// loop.
fn live_lane_steps(
    plan: &SimPlan,
    config: KernelConfig,
    endless: bool,
    warm: u64,
    drive: &mut dyn FnMut(u64, &mut LanePoker),
) {
    let kernel = BatchKernel::compile(plan, config);
    let mut st = BatchLiState::new(plan, LANES);
    if endless {
        let x15 = plan.signal_slot("x15").expect("probed");
        (0..LANES).for_each(|lane| st.poke_slot(x15, lane, ENDLESS));
    }
    kernel.run_with_stimulus(&mut st, warm, 1, drive);
    let mut best = [f64::INFINITY; LIVE.len()];
    for _ in 0..50 {
        for (best, &live) in best.iter_mut().zip(&LIVE) {
            st.set_live(live);
            *best = best.min(best_ns(2, || kernel.run(&mut st, 4)) / 4.0);
        }
    }
    assert!(!st.settled(), "the timed steps ran on a live image");
    println!("  one-thread step by live lanes (inputs held):");
    println!(
        "  {:>6} {:>6} {:>10} {:>16}",
        "live", "entry", "step us", "ns/lane-cycle"
    );
    for (ns, &live) in best.iter().zip(&LIVE) {
        let entry = Entry::of(LaneWindow {
            stride: LANES,
            active: live,
        });
        println!(
            "  {live:>6} {:>6} {:>10.2} {:>16.1}",
            format!("{entry:?}"),
            ns / 1e3,
            ns / live as f64
        );
    }
}

/// The median, over every operand an op reads from another op, of how
/// many ops apart the two run in `walk`.
fn median_distance(walk: &[&OpInst], num_slots: usize) -> usize {
    let mut at = vec![None; num_slots];
    for (k, op) in walk.iter().enumerate() {
        at[op.out as usize] = Some(k);
    }
    let mut distances: Vec<usize> = (walk.iter().enumerate())
        .flat_map(|(k, op)| {
            op.ins
                .iter()
                .filter_map(|&r| at[r as usize])
                .map(move |j| k - j)
        })
        .collect();
    distances.sort_unstable();
    distances.get(distances.len() / 2).copied().unwrap_or(0)
}

fn main() {
    // The benchmark's two engine designs (`rv32i_steady`, `chip_stim`):
    // the core mid-loop on every lane, the chip under fresh random
    // stimulus every cycle — and `sha3`, a 64-bit design, for a plan
    // that stays on `u64` rows.
    let core = Workload::param_sum_circuit();
    let reset = &mut |cycle, _, _| u64::from(cycle < 2);
    census(&core, Some(200), &["reset"], 40, reset, true);
    let chip = rocket(ChipConfig::new(4).with_scale(0.5));
    let mut streams: Vec<Stimulus> = (0..LANES as u64).map(Stimulus::from_seed).collect();
    let stim = &mut |_, lane: usize, _| streams[lane].next_value();
    census(&chip, None, &["stim"], 8, stim, true);
    // A fresh block absorbed every 25 cycles keeps the permutation busy.
    let names: Vec<String> = (0..17).map(|i| format!("in{i}")).collect();
    let mut inputs = vec!["start"];
    inputs.extend(names.iter().map(String::as_str));
    let absorb = &mut |cycle, lane: usize, k| match k {
        0 => u64::from(cycle % 25 == 0),
        _ => streams[lane].next_value(),
    };
    census(&sha3(), None, &inputs, 30, absorb, false);
}
