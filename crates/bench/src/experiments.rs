//! Experiment implementations: one function per paper table/figure.
//!
//! Each function returns formatted rows (so the `tables` binary, the
//! integration tests, and EXPERIMENTS.md all consume the same code path).
//! Absolute numbers will not match the paper (our substrate is a model,
//! not the authors' testbed); the *shape* — who wins, by what rough
//! factor, where crossovers fall — is the reproduction target.

use crate::driven;
use rteaal_baselines::{EssentLike, VerilatorLike};
use rteaal_designs::{rocket, small_boom, ChipConfig, Workload};
use rteaal_dfg::graph::Graph;
use rteaal_dfg::level::levelize;
use rteaal_dfg::passes::{optimize, PassOptions};
use rteaal_dfg::plan::{plan, SimPlan};
use rteaal_firrtl::lower::lower_typed;
use rteaal_kernels::{codegen, Kernel, KernelConfig, KernelKind, OptLevel, ALL_KERNELS};
use rteaal_perfmodel::topdown::{analyze, TopDown};
use rteaal_perfmodel::Machine;

/// Run-size knobs. `quick()` finishes the full suite in minutes on a
/// laptop; `full()` pushes core counts and cycle counts up.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Design scale relative to the paper's RTL.
    pub scale: f64,
    /// Profiled (cache-simulated) cycles per measurement.
    pub profile_cycles: u64,
    /// Core counts used for scaling sweeps.
    pub max_cores: usize,
}

impl Ctx {
    /// Laptop-quick settings.
    pub fn quick() -> Self {
        Ctx {
            scale: 0.03,
            profile_cycles: 30,
            max_cores: 8,
        }
    }

    /// Heavier settings (slower, smoother curves).
    pub fn full() -> Self {
        Ctx {
            scale: 0.12,
            profile_cycles: 60,
            max_cores: 24,
        }
    }

    fn core_sweep(&self) -> Vec<usize> {
        [1usize, 2, 4, 8, 12, 16, 20, 24]
            .into_iter()
            .filter(|&c| c <= self.max_cores)
            .collect()
    }
}

/// Builds the optimized graph of a circuit.
pub fn graph_of(circuit: &rteaal_firrtl::Circuit) -> Graph {
    let g =
        rteaal_dfg::build(&lower_typed(circuit).expect("designs lower")).expect("designs build");
    optimize(&g, &PassOptions::default()).0
}

/// Graph without optimization (for Table 1's raw counts).
pub fn raw_graph_of(circuit: &rteaal_firrtl::Circuit) -> Graph {
    rteaal_dfg::build(&lower_typed(circuit).expect("designs lower")).expect("designs build")
}

fn plan_of(circuit: &rteaal_firrtl::Circuit) -> SimPlan {
    plan(&graph_of(circuit))
}

/// Profiles `cycles` of a kernel on a machine and scales the modeled time
/// to `full_cycles`.
pub fn kernel_run(
    plan: &SimPlan,
    cfg: KernelConfig,
    machine: &Machine,
    cycles: u64,
    full_cycles: u64,
) -> (TopDown, rteaal_perfmodel::topdown::ExecProfile) {
    let mut kernel = Kernel::compile(plan, cfg);
    let mut mem = machine.mem_sim();
    let profile = kernel.run_profiled(&mut mem, cycles);
    let mut td = analyze(&profile, machine);
    td.seconds *= full_cycles as f64 / cycles as f64;
    (td, profile)
}

/// Profiles the Verilator baseline.
pub fn verilator_run(
    graph: &Graph,
    machine: &Machine,
    cycles: u64,
    full_cycles: u64,
    opt: OptLevel,
) -> (TopDown, VerilatorLike) {
    let mut v = VerilatorLike::compile(graph, opt);
    let mut mem = machine.mem_sim();
    let profile = v.run_profiled(&mut mem, cycles);
    let mut td = analyze(&profile, machine);
    td.seconds *= full_cycles as f64 / cycles as f64;
    (td, v)
}

/// Profiles the ESSENT baseline.
pub fn essent_run(
    graph: &Graph,
    machine: &Machine,
    cycles: u64,
    full_cycles: u64,
    opt: OptLevel,
) -> (TopDown, EssentLike) {
    let mut e = EssentLike::compile(graph, opt);
    let mut mem = machine.mem_sim();
    let profile = e.run_profiled(&mut mem, cycles);
    let mut td = analyze(&profile, machine);
    td.seconds *= full_cycles as f64 / cycles as f64;
    (td, e)
}

fn header(title: &str) -> Vec<String> {
    vec![format!("== {title} =="), String::new()]
}

/// Table 1: effectual vs identity operations.
pub fn table1(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Table 1: required identity operations (before elision)");
    out.push(format!(
        "{:<12} {:>14} {:>16} {:>8}",
        "design", "effectual ops", "identity ops", "ratio"
    ));
    for (name, circuit) in [
        (
            "rocket-1c",
            rocket(ChipConfig::new(1).with_scale(ctx.scale)),
        ),
        (
            "small-1c",
            small_boom(ChipConfig::new(1).with_scale(ctx.scale)),
        ),
        (
            "rocket-8c",
            rocket(ChipConfig::new(8).with_scale(ctx.scale)),
        ),
        (
            "small-8c",
            small_boom(ChipConfig::new(8).with_scale(ctx.scale)),
        ),
    ] {
        let lv = levelize(&raw_graph_of(&circuit));
        let (e, i) = (lv.effectual_ops(), lv.identities.total());
        out.push(format!(
            "{name:<12} {e:>14} {i:>16} {:>8.1}x",
            i as f64 / e.max(1) as f64
        ));
    }
    out
}

/// Figure 7: top-down breakdown for Verilator vs ESSENT.
pub fn fig7(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Figure 7: top-down breakdown, Verilator vs ESSENT (Graviton 4)");
    let machine = Machine::aws_graviton4();
    out.push(format!(
        "{:<12} {:>22} {:>22}",
        "design", "Verilator FE/BS/other %", "ESSENT FE/BS/other %"
    ));
    for cores in ctx.core_sweep().into_iter().filter(|&c| c <= 12) {
        for (tag, circuit) in [
            (
                format!("rocket-{cores}"),
                rocket(ChipConfig::new(cores).with_scale(ctx.scale)),
            ),
            (
                format!("small-{cores}"),
                small_boom(ChipConfig::new(cores).with_scale(ctx.scale)),
            ),
        ] {
            let g = graph_of(&circuit);
            let (v, _) = verilator_run(&g, &machine, ctx.profile_cycles, 1, OptLevel::Full);
            let (e, _) = essent_run(&g, &machine, ctx.profile_cycles, 1, OptLevel::Full);
            out.push(format!(
                "{tag:<12} {:>7.1}/{:>4.1}/{:>5.1}   {:>7.1}/{:>4.1}/{:>5.1}",
                v.frontend_bound * 100.0,
                v.bad_speculation * 100.0,
                v.others() * 100.0,
                e.frontend_bound * 100.0,
                e.bad_speculation * 100.0,
                e.others() * 100.0,
            ));
        }
    }
    out.push(String::new());
    out.push("shape check: ESSENT frontend+badspec <= Verilator's on every row".into());
    out
}

/// Figure 8: compile time and peak memory, Verilator vs ESSENT.
pub fn fig8(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Figure 8: compilation cost, Verilator vs ESSENT (measured)");
    out.push(format!(
        "{:<12} {:>12} {:>12} {:>14} {:>14}",
        "design", "V time (ms)", "E time (ms)", "V peak (MB)", "E peak (MB)"
    ));
    for cores in ctx.core_sweep().into_iter().filter(|&c| c <= 12) {
        let circuit = rocket(ChipConfig::new(cores).with_scale(ctx.scale));
        let g = raw_graph_of(&circuit);
        let v = VerilatorLike::compile(&g, OptLevel::Full);
        let e = EssentLike::compile(&g, OptLevel::Full);
        let (vr, er) = (v.compile_report(), e.compile_report());
        out.push(format!(
            "rocket-{cores:<5} {:>12.2} {:>12.2} {:>14} {:>14}",
            vr.seconds * 1e3,
            er.seconds * 1e3,
            mb_or_na(vr.peak_bytes),
            mb_or_na(er.peak_bytes),
        ));
    }
    out.push(String::new());
    out.push("shape check: ESSENT compile time grows faster than Verilator's".into());
    out
}

fn mb_or_na(bytes: usize) -> String {
    if bytes == 0 {
        "n/a*".to_string() // counting allocator not installed
    } else {
        format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
    }
}

/// Table 3: simulation cycles per design.
pub fn table3(_ctx: &Ctx) -> Vec<String> {
    let mut out = header("Table 3: simulation cycles (K)");
    out.push(format!("{:<12} {:>12}", "design", "cycles (K)"));
    for (name, k) in rteaal_designs::workload::TABLE3_KCYCLES {
        out.push(format!("{name:<12} {k:>12}"));
    }
    out
}

/// Table 4: kernel binary size.
pub fn table4(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Table 4: kernel code footprint, 8-core RocketChip");
    let p = plan_of(&rocket(ChipConfig::new(8).with_scale(ctx.scale)));
    out.push(format!(
        "{:<8} {:>14} {:>14} {:>16}",
        "kernel", "code (KB)", "OIM data (KB)", "C++ source (KB)"
    ));
    for &kind in &ALL_KERNELS {
        let k = Kernel::compile(&p, KernelConfig::new(kind));
        let r = k.compile_report();
        let cpp = codegen::emit_cpp(&p, KernelConfig::new(kind)).len();
        out.push(format!(
            "{:<8} {:>14.1} {:>14.1} {:>16.1}",
            kind.label(),
            r.code_bytes as f64 / 1024.0,
            r.data_bytes as f64 / 1024.0,
            cpp as f64 / 1024.0,
        ));
    }
    out.push(String::new());
    out.push("shape check: code is flat RU..PSU, grows at IU, largest at SU; TI < SU".into());
    out
}

/// Figure 15: kernel compile time and peak memory.
pub fn fig15(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Figure 15: kernel compile cost, 8-core RocketChip (measured)");
    let p = plan_of(&rocket(ChipConfig::new(8).with_scale(ctx.scale)));
    out.push(format!(
        "{:<8} {:>14} {:>14}",
        "kernel", "time (ms)", "peak (MB)"
    ));
    for &kind in &ALL_KERNELS {
        let k = Kernel::compile(&p, KernelConfig::new(kind));
        let r = k.compile_report();
        out.push(format!(
            "{:<8} {:>14.3} {:>14}",
            kind.label(),
            r.seconds * 1e3,
            mb_or_na(r.peak_bytes)
        ));
    }
    out
}

/// Table 5: dynamic instructions and IPC per kernel.
pub fn table5(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Table 5: dynamic instructions and IPC, 8-core RocketChip on Intel Xeon");
    let p = plan_of(&rocket(ChipConfig::new(8).with_scale(ctx.scale)));
    let machine = Machine::intel_xeon();
    out.push(format!(
        "{:<8} {:>18} {:>8}",
        "kernel", "dyn instr (M/cyc*)", "IPC"
    ));
    for &kind in &ALL_KERNELS {
        let (td, profile) =
            kernel_run(&p, KernelConfig::new(kind), &machine, ctx.profile_cycles, 1);
        out.push(format!(
            "{:<8} {:>18.3} {:>8.2}",
            kind.label(),
            profile.instructions as f64 / ctx.profile_cycles as f64 / 1e6,
            td.ipc
        ));
    }
    out.push(String::new());
    out.push("shape check: instructions fall monotonically RU->TI; IPC falls for SU/TI".into());
    out
}

/// Table 6: cache profiling per kernel.
pub fn table6(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Table 6: cache behavior per kernel, 8-core RocketChip on Intel Xeon");
    let p = plan_of(&rocket(ChipConfig::new(8).with_scale(ctx.scale)));
    let machine = Machine::intel_xeon();
    out.push(format!(
        "{:<8} {:>12} {:>12} {:>12} {:>10}",
        "kernel", "L1I miss", "L1D load", "L1D miss", "L1I MPKI"
    ));
    for &kind in &ALL_KERNELS {
        let (td, profile) =
            kernel_run(&p, KernelConfig::new(kind), &machine, ctx.profile_cycles, 1);
        out.push(format!(
            "{:<8} {:>12} {:>12} {:>12} {:>10.2}",
            kind.label(),
            profile.mem.l1i.misses,
            profile.mem.l1d.accesses,
            profile.mem.l1d.misses,
            td.l1i_mpki
        ));
    }
    out.push(String::new());
    out.push("shape check: L1D loads collapse and L1I misses jump between IU and SU".into());
    out
}

/// Figure 16: simulation time per kernel across machines.
pub fn fig16(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Figure 16: modeled simulation time (s) per kernel, 8-core RocketChip");
    let p = plan_of(&rocket(ChipConfig::new(8).with_scale(ctx.scale)));
    let full = 540_000;
    out.push(format!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "kernel", "core", "xeon", "amd", "aws"
    ));
    let mut best: Vec<(String, f64)> = Vec::new();
    for &kind in &ALL_KERNELS {
        let mut row = format!("{:<8}", kind.label());
        for machine in Machine::all() {
            let (td, _) = kernel_run(
                &p,
                KernelConfig::new(kind),
                &machine,
                ctx.profile_cycles,
                full,
            );
            row.push_str(&format!(" {:>10.2}", td.seconds));
            if machine.id == "xeon" {
                best.push((kind.label().to_string(), td.seconds));
            }
        }
        out.push(row);
    }
    best.sort_by(|a, b| a.1.total_cmp(&b.1));
    out.push(String::new());
    out.push(format!(
        "fastest kernel on Xeon: {} (sweet spot in the middle of the spectrum)",
        best[0].0
    ));
    out
}

/// Figure 17: kernel scaling across design sizes.
pub fn fig17(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Figure 17: modeled sim time (s) vs design size, Intel Xeon");
    let kinds = [
        KernelKind::Ou,
        KernelKind::Nu,
        KernelKind::Psu,
        KernelKind::Iu,
        KernelKind::Su,
        KernelKind::Ti,
    ];
    let mut head = format!("{:<8}", "design");
    for k in kinds {
        head.push_str(&format!(" {:>9}", k.label()));
    }
    out.push(head);
    let machine = Machine::intel_xeon();
    for cores in ctx.core_sweep() {
        let p = plan_of(&rocket(ChipConfig::new(cores).with_scale(ctx.scale)));
        let mut row = format!("r{cores:<7}");
        for kind in kinds {
            let (td, _) = kernel_run(
                &p,
                KernelConfig::new(kind),
                &machine,
                ctx.profile_cycles,
                540_000,
            );
            row.push_str(&format!(" {:>9.2}", td.seconds));
        }
        out.push(row);
    }
    out.push(String::new());
    out.push("shape check: TI wins small designs; PSU/NU overtake as cores grow".into());
    out
}

/// Table 7: compile cost scaling for Verilator, ESSENT, PSU.
pub fn table7(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Table 7: compile cost scaling (measured)");
    out.push(format!(
        "{:<8} {:>12} {:>12} {:>12}",
        "design", "Verilator ms", "ESSENT ms", "PSU ms"
    ));
    for cores in ctx.core_sweep() {
        let circuit = rocket(ChipConfig::new(cores).with_scale(ctx.scale));
        let g = raw_graph_of(&circuit);
        let v = VerilatorLike::compile(&g, OptLevel::Full)
            .compile_report()
            .seconds;
        let e = EssentLike::compile(&g, OptLevel::Full)
            .compile_report()
            .seconds;
        let p = plan(&optimize(&g, &PassOptions::default()).0);
        let k = Kernel::compile(&p, KernelConfig::new(KernelKind::Psu))
            .compile_report()
            .seconds;
        out.push(format!(
            "r{cores:<7} {:>12.2} {:>12.2} {:>12.3}",
            v * 1e3,
            e * 1e3,
            k * 1e3
        ));
    }
    out.push(String::new());
    out.push("shape check: PSU kernel generation is near-constant; ESSENT grows fastest".into());
    out
}

/// Figures 18/19: simulation time scaling for the three simulators.
pub fn fig18_19(ctx: &Ctx, opt: OptLevel) -> Vec<String> {
    let title = match opt {
        OptLevel::Full => "Figure 18: modeled sim time (s), clang -O3 analog, Intel Xeon",
        OptLevel::None => "Figure 19: modeled sim time (s), clang -O0 analog, Intel Xeon",
    };
    let mut out = header(title);
    out.push(format!(
        "{:<8} {:>12} {:>12} {:>12}",
        "design", "Verilator", "PSU", "ESSENT"
    ));
    let machine = Machine::intel_xeon();
    for cores in ctx.core_sweep() {
        let circuit = rocket(ChipConfig::new(cores).with_scale(ctx.scale));
        let g = graph_of(&circuit);
        let p = plan(&g);
        let full = 540_000;
        let (v, _) = verilator_run(&g, &machine, ctx.profile_cycles, full, opt);
        let mut cfg = KernelConfig::new(KernelKind::Psu);
        cfg.opt = opt;
        let (k, _) = kernel_run(&p, cfg, &machine, ctx.profile_cycles, full);
        let (e, _) = essent_run(&g, &machine, ctx.profile_cycles, full, opt);
        out.push(format!(
            "r{cores:<7} {:>12.2} {:>12.2} {:>12.2}",
            v.seconds, k.seconds, e.seconds
        ));
    }
    out.push(String::new());
    out.push(match opt {
        OptLevel::Full => "shape check: ESSENT < PSU < Verilator".into(),
        OptLevel::None => "shape check: ESSENT degrades far more than PSU/Verilator".into(),
    });
    out
}

/// Figure 20: speedup over Verilator across designs and machines.
pub fn fig20(ctx: &Ctx) -> Vec<String> {
    let mut out = header("Figure 20: speedup over Verilator (best RTeAAL kernel | ESSENT)");
    out.push(format!(
        "{:<8} {:>16} {:>16} {:>16} {:>16}",
        "design", "core", "xeon", "amd", "aws"
    ));
    let kinds = [
        KernelKind::Nu,
        KernelKind::Psu,
        KernelKind::Iu,
        KernelKind::Su,
        KernelKind::Ti,
    ];
    for w in Workload::main_grid() {
        let g = graph_of(&w.circuit);
        let p = plan(&g);
        let mut row = format!("{:<8}", w.id);
        for machine in Machine::all() {
            let (v, _) = verilator_run(
                &g,
                &machine,
                ctx.profile_cycles,
                w.full_cycles,
                OptLevel::Full,
            );
            let best = kinds
                .iter()
                .map(|&k| {
                    kernel_run(
                        &p,
                        KernelConfig::new(k),
                        &machine,
                        ctx.profile_cycles,
                        w.full_cycles,
                    )
                    .0
                    .seconds
                })
                .fold(f64::INFINITY, f64::min);
            let (e, _) = essent_run(
                &g,
                &machine,
                ctx.profile_cycles,
                w.full_cycles,
                OptLevel::Full,
            );
            row.push_str(&format!(
                " {:>7.2}|{:<7.2}",
                v.seconds / best,
                v.seconds / e.seconds
            ));
        }
        out.push(row);
    }
    out.push(String::new());
    out.push("shape check: RTeAAL >= 1x vs Verilator on most rows; ESSENT usually fastest".into());
    out
}

/// Figure 21: LLC capacity sweep on 8-core SmallBOOM.
pub fn fig21(ctx: &Ctx) -> Vec<String> {
    let mut out =
        header("Figure 21: speedup over Verilator as LLC shrinks (8-core SmallBOOM, Xeon)");
    // LLC effects only appear once the straight-line code footprints
    // exceed the 2 MB L2, so this experiment runs near paper scale
    // regardless of the quick/full setting (with fewer cycles to
    // compensate).
    let circuit = small_boom(ChipConfig::new(8).with_scale(ctx.scale.max(0.8)));
    let g = graph_of(&circuit);
    let p = plan(&g);
    let cycles = 6;
    out.push(format!(
        "{:<10} {:>12} {:>12}",
        "LLC (MB)", "RTeAAL/V", "ESSENT/V"
    ));
    for mb in [10.5f64, 7.0, 3.5, 1.75, 0.875] {
        let machine = Machine::intel_xeon().with_llc_capacity((mb * 1024.0 * 1024.0) as usize);
        let (v, _) = verilator_run(&g, &machine, cycles, 1, OptLevel::Full);
        let (k, _) = kernel_run(&p, KernelConfig::new(KernelKind::Psu), &machine, cycles, 1);
        let (e, _) = essent_run(&g, &machine, cycles, 1, OptLevel::Full);
        out.push(format!(
            "{mb:<10} {:>12.2} {:>12.2}",
            v.seconds / k.seconds,
            v.seconds / e.seconds
        ));
    }
    out.push(String::new());
    out.push("shape check: RTeAAL's relative speedup grows as the LLC shrinks".into());
    out
}

/// Ablation: identity elision on/off (DESIGN.md §5). Makes Table 1's cost
/// executable: the strict cascade with materialized identity ops vs the
/// coordinate-assigned plan.
pub fn ablation_elision(ctx: &Ctx) -> Vec<String> {
    use rteaal_dfg::plan::{plan_unelided, PlanSim};
    let mut out = header("Ablation: identity elision (paper §4.3 / §6.1)");
    out.push(format!(
        "{:<12} {:>10} {:>12} {:>12} {:>12}",
        "design", "eff. ops", "identities", "ops/cycle", "slowdown"
    ));
    for (name, circuit) in [
        ("rocket-1", rocket(ChipConfig::new(1).with_scale(ctx.scale))),
        (
            "small-1",
            small_boom(ChipConfig::new(1).with_scale(ctx.scale)),
        ),
    ] {
        let g = graph_of(&circuit);
        let elided = plan(&g);
        let unelided = plan_unelided(&g);
        // Wall-clock ratio of the two plan interpreters.
        let time = |p: &rteaal_dfg::SimPlan| {
            let mut sim = PlanSim::new(p);
            let t = std::time::Instant::now();
            for _ in 0..200 {
                sim.step();
            }
            t.elapsed().as_secs_f64()
        };
        let slowdown = time(&unelided) / time(&elided).max(1e-9);
        out.push(format!(
            "{name:<12} {:>10} {:>12} {:>12} {:>11.2}x",
            elided.stats.effectual_ops,
            unelided.stats.identity_ops,
            unelided.total_ops(),
            slowdown
        ));
    }
    out.push(String::new());
    out.push("shape check: eliding identities removes the majority of per-cycle work".into());
    out
}

/// Ablation: OIM storage format (Figure 12 a/b/c) packed sizes.
pub fn ablation_format(ctx: &Ctx) -> Vec<String> {
    use rteaal_tensor::oim::{OimOptimized, OimSwizzled, OimUnoptimized};
    let mut out = header("Ablation: OIM format compression (Figure 12)");
    out.push(format!(
        "{:<12} {:>16} {:>16} {:>16}",
        "design", "(a) packed KB", "(b) packed KB", "(c) packed KB"
    ));
    for (name, circuit) in [
        ("rocket-1", rocket(ChipConfig::new(1).with_scale(ctx.scale))),
        ("rocket-8", rocket(ChipConfig::new(8).with_scale(ctx.scale))),
    ] {
        let p = plan(&graph_of(&circuit));
        let a = OimUnoptimized::from_plan(&p).packed_bytes();
        let b = OimOptimized::from_plan(&p).packed_bytes();
        let c = OimSwizzled::from_plan(&p).packed_bytes();
        out.push(format!(
            "{name:<12} {:>16.1} {:>16.1} {:>16.1}",
            a as f64 / 1024.0,
            b as f64 / 1024.0,
            c as f64 / 1024.0
        ));
    }
    out.push(String::new());
    out.push("shape check: eliminating one-hot/mask payloads shrinks (a) -> (b)".into());
    out
}

/// Batched multi-stimulus throughput: wall-clock lane-cycles/second as
/// batch size (stimulus lanes) and worker threads sweep — the two
/// scaling axes the batched engine adds on top of the paper's
/// single-stimulus evaluation.
pub fn batch_throughput(ctx: &Ctx) -> Vec<String> {
    use rteaal_kernels::{BatchKernel, BatchLiState};
    let mut out =
        header("Batch: lane-cycles/second, batch size x threads (2-core RocketChip, PSU)");
    let circuit = rocket(ChipConfig::new(2).with_scale(ctx.scale.max(0.05)));
    let p = plan_of(&circuit);
    let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
    let cycles = 200u64;
    let thread_sweep = [1usize, 2, 4, 8];
    let mut head = format!("{:<8}", "lanes");
    for t in thread_sweep {
        head.push_str(&format!(" {:>10}", format!("T={t}")));
    }
    out.push(format!("{head} {:>12}", "amortization"));
    let mut single_lane_rate = 0.0f64;
    for lanes in [1usize, 4, 16, 64] {
        let mut row = format!("{lanes:<8}");
        let mut best = 0.0f64;
        for threads in thread_sweep {
            let mut st = BatchLiState::new(&p, lanes);
            st.set_input_all(0, 0xdead_beef);
            // Warm once, then time.
            driven(&kernel, &mut st, 10, threads, 0xdead_beef);
            let t0 = std::time::Instant::now();
            driven(&kernel, &mut st, cycles, threads, 0xdead_beef);
            let rate = (cycles * lanes as u64) as f64 / t0.elapsed().as_secs_f64();
            best = best.max(rate);
            row.push_str(&format!(" {:>10.2e}", rate));
        }
        if lanes == 1 {
            single_lane_rate = best;
        }
        row.push_str(&format!(" {:>11.1}x", best / single_lane_rate.max(1.0)));
        out.push(row);
    }
    out.push(String::new());
    out.push("shape check: lane-cycles/s grows with batch size; threads help wide designs".into());
    out
}

/// Batch execution engines: the interpreted per-lane dispatch vs the
/// compiled lane kernels vs compiled + lane-liveness early exit, on the
/// halting RV32I workload at B = 64.
///
/// The first two rows walk the same cycle budget — a per-cycle stimulus
/// write keeps the settled-batch gate disarmed past the halt, as a driven
/// testbench would — so their ratio is the pure compile-the-hot-loop
/// speedup; the early-exit row
/// instead runs each lane only to its halt cycle, so its win shows up as
/// evaluated lane-cycles (work skipped), on top of the compiled rate.
pub fn batch_engine(_ctx: &Ctx) -> Vec<String> {
    use rteaal_core::{BatchSimulation, Compiler};
    use rteaal_kernels::{BatchEngine, BatchKernel, BatchLiState};
    use std::time::Instant;
    let mut out =
        header("Batch engines: interpreted vs compiled vs compiled+early-exit (RV32I, B=64)");
    let w = Workload::rv32i_sum_loop();
    let p = plan_of(&w.circuit);
    let lanes = 64usize;
    let cycles = 300u64; // comfortably past the ~67-cycle halt point
    out.push(format!(
        "{:<22} {:>10} {:>14} {:>10}",
        "engine", "cycles", "lane-cyc/s", "speedup"
    ));
    let time_engine = |engine: BatchEngine| {
        let kernel =
            BatchKernel::compile_with_engine(&p, KernelConfig::new(KernelKind::Psu), engine);
        let mut st = BatchLiState::new(&p, lanes);
        driven(&kernel, &mut st, 20, 1, 0); // warm
        let t = Instant::now();
        driven(&kernel, &mut st, cycles, 1, 0);
        t.elapsed().as_secs_f64()
    };
    let ti = time_engine(BatchEngine::Interpreted);
    let tc = time_engine(BatchEngine::Compiled);
    let rate = |secs: f64, lane_cycles: f64| lane_cycles / secs.max(1e-12);
    let full = (cycles * lanes as u64) as f64;
    out.push(format!(
        "{:<22} {:>10} {:>14.3e} {:>9.2}x",
        "interpreted",
        cycles,
        rate(ti, full),
        1.0
    ));
    out.push(format!(
        "{:<22} {:>10} {:>14.3e} {:>9.2}x",
        "compiled",
        cycles,
        rate(tc, full),
        ti / tc
    ));
    // Compiled + early exit, through the front door the halt probe
    // plumbing serves.
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&w.circuit)
        .expect("rv32i compiles");
    let mut sim = BatchSimulation::new(&compiled, lanes);
    sim.watch_halt(w.halt_signal.expect("halting workload"))
        .expect("halt probe resolves");
    let run_to_halt = |sim: &mut BatchSimulation| {
        sim.reset();
        sim.poke_all("reset", 1).expect("reset");
        sim.step_cycles(2);
        sim.poke_all("reset", 0).expect("reset");
        sim.run_until_halt(cycles)
    };
    run_to_halt(&mut sim); // warm, like the free-running rows
    let t = Instant::now();
    let stepped = run_to_halt(&mut sim);
    let te = t.elapsed().as_secs_f64();
    out.push(format!(
        "{:<22} {:>10} {:>14.3e} {:>9.2}x",
        "compiled+early-exit",
        stepped,
        rate(te, (stepped * lanes as u64) as f64),
        ti / (te * cycles as f64 / stepped.max(1) as f64)
    ));
    out.push(String::new());
    out.push(format!(
        "all {lanes} lanes halted within {stepped} cycles (budget {cycles}); \
         shape check: compiled >= 1.3x interpreted"
    ));
    out
}

/// Serving: static early-exit batching vs continuous batching on a
/// mixed-length rv32i corpus (short sum loops interleaved with long
/// ones, one compiled circuit, job length poked through the DMI path at
/// admission). Static batching pays every batch's straggler; the
/// continuous scheduler refills each lane the moment its halt probe
/// fires, so the corpus drains in fewer engine cycles at higher lane
/// utilization — the `rteaal-sched` subsystem's claim, measured.
pub fn sched_serving(ctx: &Ctx) -> Vec<String> {
    use rteaal_core::{Compiler, Simulation};
    use rteaal_sched::{AdmitPolicy, Job, Scheduler};
    use std::time::Instant;
    /// Harvested outputs per job id, for one policy.
    type JobOutputs = Vec<(u64, Vec<(String, u64)>)>;
    let mut out = header("Serving: static vs continuous batching (mixed-length rv32i corpus)");
    // Quick ≈ laptop-size; full pushes the corpus.
    let (jobs, lanes) = if ctx.max_cores > 8 { (96, 16) } else { (24, 8) };
    let corpus = Workload::corpus(jobs, 0x5eed);
    let compiler = Compiler::new(KernelConfig::new(KernelKind::Psu));
    let compiled = compiler
        .compile(&corpus[0].circuit)
        .expect("rv32i compiles");
    let probes = ["a0", "pc_out", "halt"];
    out.push(format!(
        "{:<12} {:>6} {:>6} {:>10} {:>12} {:>8} {:>10} {:>10}",
        "policy", "jobs", "lanes", "cycles", "busy l-cyc", "util%", "wall ms", "jobs/s"
    ));
    let mut cycles_by_policy = Vec::new();
    let mut outputs_by_policy: Vec<JobOutputs> = Vec::new();
    for (label, policy) in [
        ("static", AdmitPolicy::StaticBatches),
        ("continuous", AdmitPolicy::Continuous),
    ] {
        let mut sched = Scheduler::new(&compiled, lanes, "halt")
            .expect("halt probe resolves")
            .with_policy(policy);
        for w in &corpus {
            sched.submit(Job::from_workload(w, &probes));
        }
        let t0 = Instant::now();
        sched.run(10_000_000);
        let wall = t0.elapsed().as_secs_f64();
        let stats = sched.stats();
        assert_eq!(stats.completed, jobs, "every job completes");
        out.push(format!(
            "{label:<12} {jobs:>6} {lanes:>6} {:>10} {:>12} {:>8.1} {:>10.2} {:>10.1}",
            stats.cycles,
            stats.busy_lane_cycles,
            sched.utilization() * 100.0,
            wall * 1e3,
            jobs as f64 / wall.max(1e-9),
        ));
        cycles_by_policy.push(stats.cycles);
        outputs_by_policy.push(
            sched
                .results()
                .iter()
                .map(|r| (r.id.0, r.outputs.clone()))
                .collect(),
        );
    }
    // Bit-exactness gate: every job's harvested outputs equal a scalar
    // run of the same testbench (and both policies agree).
    let mut matches = 0;
    for (id, w) in corpus.iter().enumerate() {
        // Every corpus job shares the one compiled circuit — the job
        // parameter arrives through the DMI poke below.
        let mut scalar = Simulation::new(compiled.clone());
        {
            let mut dmi = rteaal_core::DebugModule::new(&mut scalar);
            for (name, value) in &w.state_pokes {
                dmi.poke_reg(name, *value).expect("register probed");
            }
        }
        while scalar.peek("halt") != Some(1) && scalar.cycle() < w.full_cycles {
            scalar.step();
        }
        let want: Vec<(String, u64)> = probes
            .iter()
            .map(|p| ((*p).to_string(), scalar.peek(p).expect("probed")))
            .collect();
        let id = id as u64;
        if outputs_by_policy
            .iter()
            .all(|outs| outs.iter().any(|(i, o)| *i == id && *o == want))
        {
            matches += 1;
        }
    }
    out.push(String::new());
    out.push(format!(
        "scalar-exactness: {matches}/{jobs} jobs bit-identical to their scalar runs (both policies)"
    ));
    out.push(format!(
        "shape check: continuous < static engine cycles ({} < {}), higher utilization",
        cycles_by_policy[1], cycles_by_policy[0]
    ));
    assert!(
        cycles_by_policy[1] < cycles_by_policy[0],
        "continuous batching must beat the static baseline"
    );
    assert_eq!(
        matches, jobs,
        "a scheduled job diverged from its scalar run"
    );
    out
}

/// Serving front end: a multi-client corpus pushed through the
/// `rteaal-serve` worker pool across worker counts, with a built-in
/// bit-exactness gate (every job's pool result equals its scalar
/// `Simulation` run), plus a 3-job loopback round trip through the
/// socket protocol — the CI smoke of the full socket-bytes-to-lanes
/// path.
pub fn serve_frontend(ctx: &Ctx) -> Vec<String> {
    use rteaal_core::{Compiler, DebugModule, Simulation};
    use rteaal_sched::Job;
    use rteaal_serve::{JobHandle, ServeClient, ServeConfig, ServerPool, SocketServer};
    use std::time::Instant;
    let mut out = header("Serve: multi-client worker pool + socket front end (rv32i corpus)");
    let (jobs, clients, lanes) = if ctx.max_cores > 8 {
        (96, 8, 8)
    } else {
        (24, 4, 4)
    };
    let ks = Workload::corpus_params(jobs, 0x5eed);
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let probes = ["a0", "pc_out"];
    let job_for = |k: u64| {
        let mut job = Job::new(format!("sum-{k}"), Workload::param_sum_budget(k));
        job.state_pokes = vec![("x15".to_string(), k)];
        job.probes = probes.iter().map(|p| (*p).to_string()).collect();
        job
    };
    // Scalar references, one per distinct loop bound.
    let scalar_for = |k: u64| -> Vec<(String, u64)> {
        let mut sim = Simulation::new(compiled.clone());
        DebugModule::new(&mut sim)
            .poke_reg("x15", k)
            .expect("x15 probed");
        while sim.peek("halt") != Some(1) {
            sim.step();
        }
        probes
            .iter()
            .map(|p| ((*p).to_string(), sim.peek(p).expect("probed")))
            .collect()
    };
    let mut scalar: std::collections::HashMap<u64, Vec<(String, u64)>> =
        std::collections::HashMap::new();
    for &k in &ks {
        scalar.entry(k).or_insert_with(|| scalar_for(k));
    }
    out.push(format!(
        "{:<8} {:>8} {:>8} {:>10} {:>8} {:>10} {:>10} {:>10}",
        "workers", "jobs", "clients", "cycles", "util%", "wall ms", "jobs/s", "exact"
    ));
    for workers in [1usize, 2, 4] {
        let mut cfg = ServeConfig::with_workers(workers);
        cfg.lanes = lanes;
        let pool = ServerPool::new(&compiled, cfg, "halt").expect("halt resolves");
        let t0 = Instant::now();
        // `clients` threads submit interleaved slices of the corpus
        // concurrently and wait for their own results.
        let results: Vec<(u64, rteaal_sched::JobResult)> = std::thread::scope(|scope| {
            let (pool, ks, job_for) = (&pool, &ks, &job_for);
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mine: Vec<(u64, JobHandle)> = ks
                            .iter()
                            .skip(c)
                            .step_by(clients)
                            .map(|&k| (k, pool.submit(job_for(k))))
                            .collect();
                        mine.into_iter()
                            .map(|(k, h)| (k, h.wait()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let stats = pool.shutdown();
        let exact = results
            .iter()
            .filter(|(k, r)| r.completed() && r.outputs == scalar[k])
            .count();
        out.push(format!(
            "{workers:<8} {jobs:>8} {clients:>8} {:>10} {:>8.1} {:>10.2} {:>10.1} {:>7}/{jobs}",
            stats.merged.cycles,
            stats.utilization() * 100.0,
            wall * 1e3,
            jobs as f64 / wall.max(1e-9),
            exact,
        ));
        assert_eq!(exact, jobs, "a served job diverged from its scalar run");
        assert_eq!(stats.merged.completed, jobs);
    }
    // Socket leg: 3 jobs over loopback through the line-JSON protocol.
    let pool =
        ServerPool::new(&compiled, ServeConfig::with_workers(2), "halt").expect("halt resolves");
    let addr = SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns");
    let mut client = ServeClient::connect(addr).expect("connects");
    let socket_ks = [5u64, 30, 2];
    for &k in &socket_ks {
        scalar.entry(k).or_insert_with(|| scalar_for(k));
    }
    let ids: Vec<u64> = socket_ks
        .iter()
        .map(|&k| client.submit(&job_for(k)).expect("submits"))
        .collect();
    let mut socket_exact = 0;
    for _ in &socket_ks {
        let r = client.next_result().expect("streams a result");
        let k = socket_ks[ids.iter().position(|&i| i == r.id).expect("known id")];
        let want = &scalar[&k];
        if r.completed()
            && want
                .iter()
                .all(|(name, value)| r.output(name) == Some(*value))
        {
            socket_exact += 1;
        }
    }
    out.push(String::new());
    out.push(format!(
        "socket round trip: {socket_exact}/{} jobs bit-identical over loopback (verbs: submit/result/stats)",
        socket_ks.len()
    ));
    let wire_stats = client.stats().expect("stats verb");
    out.push(format!(
        "shape check: every row {jobs}/{jobs} exact; socket pool completed {} jobs",
        wire_stats.completed
    ));
    assert_eq!(
        socket_exact,
        socket_ks.len(),
        "socket results must be bit-exact"
    );
    out
}

/// The `tables -- shard-server` process body: a single-design serve
/// process over the corpus circuit on an OS-picked loopback port.
/// Prints `LISTENING <addr>` on stdout once ready, then serves forever
/// — the `shard` experiment spawns two of these as *real child
/// processes*, so the router is exercised against genuine process and
/// socket boundaries (and a genuine `SIGKILL`), not in-process stand-ins.
pub fn shard_server_process() {
    use rteaal_core::Compiler;
    use rteaal_serve::{ServeConfig, ServerPool, SocketServer};
    use std::io::Write;
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let mut cfg = ServeConfig::with_workers(2);
    cfg.lanes = 4;
    let pool = ServerPool::new(&compiled, cfg, "halt").expect("halt resolves");
    let server = SocketServer::bind(pool, "127.0.0.1:0").expect("binds loopback");
    let addr = server.local_addr().expect("bound address");
    println!("LISTENING {addr}");
    std::io::stdout().flush().expect("handshake flushes");
    server.serve_forever().expect("accept loop");
}

/// Cross-host sharding: a 2-process loopback fleet (two real
/// `shard-server` children of this binary) driven by the
/// [`ShardRouter`](rteaal_serve::ShardRouter) — consistent-hash
/// partitioning, per-shard accounting, merged completion-ordered
/// results. Two rows: a healthy fleet, and a fleet whose busiest shard
/// is `SIGKILL`ed mid-corpus, forcing the router's dead-shard
/// detection and automatic resubmission. Gates: every corpus job is
/// delivered exactly once and bit-identical to a scalar `Simulation`
/// run in *both* rows, and the kill row must log resubmissions.
pub fn shard_fleet(ctx: &Ctx) -> Vec<String> {
    use rteaal_core::{Compiler, DebugModule, Simulation};
    use rteaal_sched::Job;
    use rteaal_serve::{ShardConfig, ShardRouter};
    use std::collections::{HashMap, HashSet};
    use std::io::BufRead;
    use std::net::SocketAddr;
    use std::process::{Child, Command, Stdio};

    let mut out = header("Shard: cross-host router over a 2-process loopback fleet");
    let jobs = if ctx.max_cores > 8 { 64usize } else { 24 };
    let ks = Workload::corpus_params(jobs, 0x5eed);
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let probes = ["a0", "pc_out"];
    let job_for = |k: u64| {
        let mut job = Job::new(format!("sum-{k}"), Workload::param_sum_budget(k));
        job.state_pokes = vec![("x15".to_string(), k)];
        job.probes = probes.iter().map(|p| (*p).to_string()).collect();
        job
    };
    // Scalar references, one per distinct loop bound.
    let mut scalar: HashMap<u64, Vec<(String, u64)>> = HashMap::new();
    for &k in &ks {
        scalar.entry(k).or_insert_with(|| {
            let mut sim = Simulation::new(compiled.clone());
            DebugModule::new(&mut sim)
                .poke_reg("x15", k)
                .expect("x15 probed");
            while sim.peek("halt") != Some(1) {
                sim.step();
            }
            probes
                .iter()
                .map(|p| ((*p).to_string(), sim.peek(p).expect("probed")))
                .collect()
        });
    }

    // Kills its server process on scope exit — including panic unwinds
    // from a failed gate — so a red run can never leak children that
    // hold CI's inherited pipes open.
    struct ShardProc(Child);
    impl Drop for ShardProc {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    // Spawns one real server process (this binary, `shard-server`
    // mode) and reads its LISTENING handshake.
    let spawn_shard = || -> (ShardProc, SocketAddr) {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("shard-server")
            .stdout(Stdio::piped())
            .spawn()
            .expect("shard server spawns (the shard experiment must run via the tables binary)");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("handshake line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .expect("handshake format")
            .parse()
            .expect("valid loopback address");
        (ShardProc(child), addr)
    };

    out.push(format!(
        "{:<10} {:>6} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8} {:>10}",
        "scenario", "jobs", "s0 jobs", "s1 jobs", "resub", "deaths", "util0%", "util1%", "exact"
    ));
    for kill_one in [false, true] {
        let (mut child0, addr0) = spawn_shard();
        let (mut child1, addr1) = spawn_shard();
        // Hedging off: this experiment gates the *resubmission* path,
        // and a hedged job lost to the kill would be promoted in place
        // instead of resubmitted (the `fleet` experiment owns hedging).
        let config = ShardConfig {
            hedge: false,
            ..ShardConfig::default()
        };
        let mut router = ShardRouter::connect(&[addr0, addr1], config).expect("fleet connects");
        for &k in &ks {
            router.submit(job_for(k)).expect("fleet takes the job");
        }
        let mut results = Vec::new();
        if kill_one {
            // Drain a third, then SIGKILL the shard holding the most
            // undelivered jobs — a genuine mid-corpus host loss.
            for _ in 0..jobs / 3 {
                results.push(router.next_result().expect("stream survives"));
            }
            let loads = router.stats().per_shard;
            let victim = if loads[0].in_flight >= loads[1].in_flight {
                0
            } else {
                1
            };
            let child = if victim == 0 {
                &mut child0
            } else {
                &mut child1
            };
            child.0.kill().expect("kill shard process");
            child.0.wait().expect("reap shard process");
        }
        results.extend(router.drain().expect("drain completes"));
        // Health-poll *after* the drain so utilization covers the whole
        // corpus; a dead shard reports no stats.
        let health = router.poll_health().expect("health poll");
        let stats = router.stats();

        // Gate: exactly-once delivery, bit-identical to scalar runs.
        // Router ids are assigned in submission order, so id i ran ks[i].
        let mut seen: HashSet<u64> = HashSet::new();
        let mut exact = 0usize;
        for routed in &results {
            assert!(seen.insert(routed.id), "job {} delivered twice", routed.id);
            let want = &scalar[&ks[routed.id as usize]];
            if routed.result.completed()
                && want
                    .iter()
                    .all(|(name, value)| routed.result.output(name) == Some(*value))
            {
                exact += 1;
            }
        }
        let util = |s: usize| {
            health[s].as_ref().map_or_else(
                || "dead".to_string(),
                |w| format!("{:.1}", w.utilization * 100.0),
            )
        };
        out.push(format!(
            "{:<10} {jobs:>6} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8} {:>7}/{jobs}",
            if kill_one { "kill-one" } else { "healthy" },
            stats.per_shard[0].delivered,
            stats.per_shard[1].delivered,
            stats.resubmitted,
            stats.shard_deaths,
            util(0),
            util(1),
            exact,
        ));
        assert_eq!(results.len(), jobs, "every job delivered exactly once");
        assert_eq!(exact, jobs, "a routed job diverged from its scalar run");
        if kill_one {
            assert_eq!(
                stats.shard_deaths, 1,
                "the killed shard must register as dead"
            );
            assert!(
                stats.resubmitted > 0,
                "the killed shard's jobs must be resubmitted"
            );
        } else {
            assert_eq!(stats.shard_deaths, 0, "a healthy fleet loses nobody");
            assert!(
                stats.per_shard.iter().all(|s| s.delivered > 0),
                "consistent hashing spread the corpus: {:?}",
                stats.per_shard
            );
        }
        // child0/child1 drop here, killing the servers — the same path
        // a failed gate's unwind takes.
    }
    out.push(String::new());
    out.push(format!(
        "gate: {jobs}/{jobs} exact in both rows; kill-one row resubmitted lost jobs to the survivor"
    ));
    out
}

/// Elastic fleet under open-loop load: a 2-process fleet (one shard
/// slowed by a [`ChaosShard`](rteaal_serve::ChaosShard) proxy) driven
/// by a Poisson arrival schedule with a mid-run burst phase and a
/// mixed design/length corpus, measuring p50/p99/p999 latency **from
/// each job's scheduled arrival** (open-loop: queueing a struggling
/// fleet builds up is charged to the jobs that suffered it, no
/// coordinated omission). Two legs over the *identical* schedule:
///
/// - `healthy` — both shards up throughout.
/// - `kill+revive` — the *fast* shard is killed a third of the way in
///   and revived at two thirds; the router's breaker must open,
///   degrade onto the slow survivor (the tail visibly rises), and the
///   `ping` probe loop must rejoin the shard (replaying the
///   fan-out-registered design) before the run ends.
///
/// Gates: every arrival is delivered exactly once and bit-identical
/// to a scalar `Simulation` run in both legs; the fault leg logs ≥ 1
/// rejoin and ≥ 1 won hedge (the slow shard's stragglers are hedged
/// onto the fast one, first result wins, the duplicate discarded by
/// the exactly-once path).
pub fn elastic_fleet(ctx: &Ctx) -> Vec<String> {
    use crate::openloop::{ArrivalPlan, LatencyReport, Phase};
    use rteaal_core::{Compiler, DebugModule, Simulation};
    use rteaal_sched::Job;
    use rteaal_serve::{ChaosPlan, ChaosShard, ShardConfig, ShardRouter};
    use std::collections::{HashMap, HashSet};
    use std::io::BufRead;
    use std::net::SocketAddr;
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    let mut out = header("Fleet: elastic 2-shard serving under open-loop Poisson load");
    let arrivals = if ctx.max_cores > 8 { 180usize } else { 72 };

    // Mixed corpus: half the variants run on the fan-out-registered
    // `twin` design (same circuit, so one scalar reference per k).
    let ks = Workload::corpus_params(12, 0xf1ee7);
    let corpus: Vec<(u64, Option<&str>)> = ks
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, if i % 2 == 1 { Some("twin") } else { None }))
        .collect();
    let twin_src = rteaal_firrtl::parser::emit(&Workload::param_sum_circuit());
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let probes = ["a0", "pc_out"];
    let job_for = |k: u64| {
        let mut job = Job::new(format!("sum-{k}"), Workload::param_sum_budget(k));
        job.state_pokes = vec![("x15".to_string(), k)];
        job.probes = probes.iter().map(|p| (*p).to_string()).collect();
        job
    };
    let mut scalar: HashMap<u64, Vec<(String, u64)>> = HashMap::new();
    for &k in &ks {
        scalar.entry(k).or_insert_with(|| {
            let mut sim = Simulation::new(compiled.clone());
            DebugModule::new(&mut sim)
                .poke_reg("x15", k)
                .expect("x15 probed");
            while sim.peek("halt") != Some(1) {
                sim.step();
            }
            probes
                .iter()
                .map(|p| ((*p).to_string(), sim.peek(p).expect("probed")))
                .collect()
        });
    }

    // The identical offered load for both legs: steady, 3x burst,
    // steady.
    let phases = [
        Phase {
            arrivals: arrivals * 2 / 5,
            rate_multiplier: 1.0,
        },
        Phase {
            arrivals: arrivals / 5,
            rate_multiplier: 3.0,
        },
        Phase {
            arrivals: arrivals - arrivals * 2 / 5 - arrivals / 5,
            rate_multiplier: 1.0,
        },
    ];
    let plan = ArrivalPlan::poisson(0x0411a7, 150.0, corpus.len(), &phases);
    let kill_at = plan.len() / 3;
    let revive_at = 2 * plan.len() / 3;

    struct ShardProc(Child);
    impl Drop for ShardProc {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let spawn_shard = || -> (ShardProc, SocketAddr) {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("shard-server")
            .stdout(Stdio::piped())
            .spawn()
            .expect("shard server spawns (the fleet experiment must run via the tables binary)");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("handshake line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .expect("handshake format")
            .parse()
            .expect("valid loopback address");
        (ShardProc(child), addr)
    };

    out.push(format!(
        "open-loop schedule: {} arrivals over ~{:.0} ms ({}+{}+{} steady/burst/steady), corpus of {} (k, design) variants",
        plan.len(),
        plan.span().as_secs_f64() * 1e3,
        phases[0].arrivals,
        phases[1].arrivals,
        phases[2].arrivals,
        corpus.len(),
    ));
    out.push(format!(
        "{:<12} {:>7} {:>8} {:>8} {:>8} {:>6} {:>6} {:>6} {:>7} {:>7} {:>9}",
        "leg",
        "p50ms",
        "p99ms",
        "p999ms",
        "maxms",
        "hedge",
        "won",
        "lost",
        "deaths",
        "rejoins",
        "exact"
    ));

    for fault in [false, true] {
        let (_child0, addr0) = spawn_shard();
        let (_child1, addr1) = spawn_shard();
        // Shard 0 (fast) sits behind a transparent chaos proxy so the
        // fault leg can kill and revive it; shard 1 sits behind a
        // delay proxy in *both* legs, so its stragglers exercise
        // hedging onto the fast shard.
        let breaker = ChaosShard::spawn(addr0, ChaosPlan::default()).expect("kill proxy spawns");
        let slow = ChaosShard::spawn(
            addr1,
            ChaosPlan {
                response_delay: Duration::from_millis(2),
                ..ChaosPlan::default()
            },
        )
        .expect("delay proxy spawns");
        let config = ShardConfig {
            read_timeout: Duration::from_secs(20),
            // Probe fast enough that the rejoin lands within the leg.
            backoff_base: Duration::from_millis(15),
            backoff_cap: Duration::from_millis(120),
            // Hedge aggressively: the threshold tracks the *lower*
            // quantile of the latency window (fast-shard territory)
            // with a floor below the delay proxy's per-response cost,
            // so every job the slow shard owns is a straggler by the
            // time its delayed submit response even returns.
            hedge_min_samples: 8,
            hedge_quantile: 0.25,
            hedge_multiplier: 1.0,
            hedge_floor: Duration::from_millis(1),
            ..ShardConfig::default()
        };
        let mut router =
            ShardRouter::connect(&[breaker.addr(), slow.addr()], config).expect("connects");
        router
            .register("twin", &twin_src, "halt")
            .expect("fan-out registers");

        let start = Instant::now();
        let deadline = start + Duration::from_secs(180);
        let mut submitted: HashMap<u64, usize> = HashMap::new(); // id -> arrival index
        let mut done: Vec<(u64, rteaal_serve::WireResult, Duration)> = Vec::new();
        let mut next = 0usize;
        while next < plan.len() || router.pending() > 0 {
            assert!(Instant::now() < deadline, "fleet leg exceeded its deadline");
            while next < plan.len() && start.elapsed() >= plan.arrivals[next].at {
                if fault && next == kill_at {
                    breaker.kill();
                }
                if fault && next == revive_at {
                    breaker.revive();
                }
                let arrival = plan.arrivals[next];
                let (k, design) = corpus[arrival.corpus_index];
                let id = router
                    .submit_on(design, job_for(k))
                    .expect("fleet takes the job");
                submitted.insert(id, next);
                next += 1;
            }
            match router.poll_once().expect("pump survives the leg") {
                Some(routed) => done.push((routed.id, routed.result, start.elapsed())),
                None => {
                    // Nothing finished: sleep to the next arrival (or a
                    // poll tick) instead of spinning.
                    let tick = Duration::from_micros(200);
                    let until_due = if next < plan.len() {
                        plan.arrivals[next].at.saturating_sub(start.elapsed())
                    } else {
                        tick
                    };
                    std::thread::sleep(until_due.min(tick));
                }
            }
        }
        // The fault leg must witness the rejoin, even if the drain
        // outran the probe loop.
        if fault {
            while router.fleet_stats().rejoins < 1 {
                assert!(Instant::now() < deadline, "the killed shard never rejoined");
                router.poll_once().expect("idle pump");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let fleet = router.fleet_stats();

        // Gates: exactly-once, bit-exact, and (fault leg) rejoin +
        // won hedge.
        let mut seen: HashSet<u64> = HashSet::new();
        let mut exact = 0usize;
        let mut latencies: Vec<Duration> = Vec::new();
        for (id, result, finished) in &done {
            assert!(seen.insert(*id), "job {id} delivered twice");
            let arrival = plan.arrivals[submitted[id]];
            latencies.push(finished.saturating_sub(arrival.at));
            let (k, _) = corpus[arrival.corpus_index];
            let want = &scalar[&k];
            if result.completed()
                && want
                    .iter()
                    .all(|(name, value)| result.output(name) == Some(*value))
            {
                exact += 1;
            }
        }
        let report = LatencyReport::from_sample(&latencies);
        out.push(format!(
            "{:<12} {} {:>6} {:>6} {:>6} {:>7} {:>7} {:>6}/{}",
            if fault { "kill+revive" } else { "healthy" },
            report.row(),
            fleet.hedges,
            fleet.hedges_won,
            fleet.hedges_lost,
            fleet.shard_deaths,
            fleet.rejoins,
            exact,
            plan.len(),
        ));
        assert_eq!(
            done.len(),
            plan.len(),
            "every arrival delivered exactly once"
        );
        assert_eq!(
            exact,
            plan.len(),
            "a routed job diverged from its scalar run"
        );
        if fault {
            assert!(fleet.rejoins >= 1, "the revived shard must rejoin the ring");
            assert!(
                fleet.hedges_won >= 1,
                "at least one hedge must win: {fleet:?}"
            );
            assert!(fleet.shard_deaths >= 1, "the kill must open the breaker");
        }
    }
    out.push(String::new());
    out.push(format!(
        "gate: {0}/{0} exact in both legs; kill+revive leg rejoined the revived shard and won hedges off the slow one",
        plan.len()
    ));
    out
}

/// Unified telemetry, end to end: an open-loop Poisson load against a
/// healthy 2-process fleet, then the whole story read back *through the
/// wire*: the `metrics` verb (registry snapshot + Prometheus text) and
/// the `timeline` verb (each job's six-stage lifecycle) on every shard.
/// Latency is attributed stage by stage from the timelines — queue
/// (submitted→admitted), engine (admitted→halted), network (the
/// router-observed span minus the shard-observed span) — and printed as
/// p50/p99 per stage. Alongside, the opt-in engine probe: the same
/// design's [`BatchKernel`](rteaal_kernels::BatchKernel) profiled per
/// layer through `step_profiled`, with the accumulated reference stream
/// driven through the top-down model for bottleneck attribution.
///
/// Gates: every job bit-identical to a scalar `Simulation` run; every
/// timeline complete (all six stages, in order, monotonic timestamps);
/// the `metrics` verb parses with nonzero job counters that agree with
/// the delivered count; the perf-model probe reports a nonzero,
/// normalized top-down breakdown for the engine stage.
pub fn telemetry_stack(ctx: &Ctx) -> Vec<String> {
    use crate::openloop::{quantiles, ArrivalPlan, Phase};
    use rteaal_core::{Compiler, DebugModule, Simulation};
    use rteaal_kernels::{BatchKernel, BatchLiState};
    use rteaal_perfmodel::topdown::ExecProfile;
    use rteaal_sched::Job;
    use rteaal_serve::{ServeClient, ShardConfig, ShardRouter};
    use rteaal_telemetry::ALL_STAGES;
    use std::collections::HashMap;
    use std::io::BufRead;
    use std::net::SocketAddr;
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    let mut out = header("Telemetry: stage-attributed latency and perf-model probes, end to end");
    let arrivals = if ctx.max_cores > 8 { 96usize } else { 40 };

    let ks = Workload::corpus_params(10, 0x7e1e);
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let probes = ["a0", "pc_out"];
    let job_for = |k: u64| {
        let mut job = Job::new(format!("sum-{k}"), Workload::param_sum_budget(k));
        job.state_pokes = vec![("x15".to_string(), k)];
        job.probes = probes.iter().map(|p| (*p).to_string()).collect();
        job
    };
    let mut scalar: HashMap<u64, Vec<(String, u64)>> = HashMap::new();
    for &k in &ks {
        scalar.entry(k).or_insert_with(|| {
            let mut sim = Simulation::new(compiled.clone());
            DebugModule::new(&mut sim)
                .poke_reg("x15", k)
                .expect("x15 probed");
            while sim.peek("halt") != Some(1) {
                sim.step();
            }
            probes
                .iter()
                .map(|p| ((*p).to_string(), sim.peek(p).expect("probed")))
                .collect()
        });
    }

    struct ShardProc(Child);
    impl Drop for ShardProc {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let spawn_shard = || -> (ShardProc, SocketAddr) {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("shard-server")
            .stdout(Stdio::piped())
            .spawn()
            .expect(
                "shard server spawns (the telemetry experiment must run via the tables binary)",
            );
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("handshake line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .expect("handshake format")
            .parse()
            .expect("valid loopback address");
        (ShardProc(child), addr)
    };

    // A healthy 2-shard fleet under one steady open-loop phase. Hedging
    // off so every job lives on exactly one shard — its timeline has one
    // unambiguous home.
    let (_child0, addr0) = spawn_shard();
    let (_child1, addr1) = spawn_shard();
    let addrs = [addr0, addr1];
    let config = ShardConfig {
        hedge: false,
        read_timeout: Duration::from_secs(20),
        ..ShardConfig::default()
    };
    let mut router = ShardRouter::connect(&addrs, config).expect("fleet connects");
    let phases = [Phase {
        arrivals,
        rate_multiplier: 1.0,
    }];
    let plan = ArrivalPlan::poisson(0x7e1e_5eed, 250.0, ks.len(), &phases);

    let start = Instant::now();
    let deadline = start + Duration::from_secs(120);
    let mut submitted: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut done: Vec<(u64, usize, rteaal_serve::WireResult, Duration)> = Vec::new();
    let mut next = 0usize;
    while next < plan.len() || router.pending() > 0 {
        assert!(
            Instant::now() < deadline,
            "telemetry leg exceeded its deadline"
        );
        while next < plan.len() && start.elapsed() >= plan.arrivals[next].at {
            let arrival = plan.arrivals[next];
            let submit_at = Instant::now();
            let id = router
                .submit(job_for(ks[arrival.corpus_index]))
                .expect("fleet takes the job");
            submitted.insert(id, (arrival.corpus_index, submit_at));
            next += 1;
        }
        match router.poll_once().expect("pump survives") {
            Some(routed) => {
                let (_, submit_at) = submitted[&routed.id];
                done.push((routed.id, routed.shard, routed.result, submit_at.elapsed()));
            }
            None => {
                let tick = Duration::from_micros(200);
                let until_due = if next < plan.len() {
                    plan.arrivals[next].at.saturating_sub(start.elapsed())
                } else {
                    tick
                };
                std::thread::sleep(until_due.min(tick));
            }
        }
    }
    assert_eq!(done.len(), plan.len(), "every arrival delivered");

    // Gate 1: bit-exact against the scalar references.
    let mut exact = 0usize;
    for (id, _, result, _) in &done {
        let (corpus_index, _) = submitted[id];
        let want = &scalar[&ks[corpus_index]];
        if result.completed()
            && want
                .iter()
                .all(|(name, value)| result.output(name) == Some(*value))
        {
            exact += 1;
        }
    }
    assert_eq!(
        exact,
        done.len(),
        "a routed job diverged from its scalar run"
    );

    // Read the story back through the wire: per shard, the `timeline`
    // verb for every job it ran, and the `metrics` verb snapshot.
    let mut queue_lat: Vec<Duration> = Vec::new();
    let mut engine_lat: Vec<Duration> = Vec::new();
    let mut network_lat: Vec<Duration> = Vec::new();
    let mut wire_completed = 0u64;
    let mut wire_submitted = 0u64;
    for (s, addr) in addrs.iter().enumerate() {
        let mut client = ServeClient::connect(*addr).expect("shard reachable");
        for (_, shard, result, router_latency) in done.iter().filter(|(_, sh, _, _)| *sh == s) {
            let timeline = client.timeline(result.id).expect("timeline verb");
            // Gate 2: six stages, in order, monotonic timestamps.
            let stages: Vec<_> = timeline.iter().map(|e| e.stage).collect();
            assert_eq!(
                stages,
                ALL_STAGES.to_vec(),
                "shard {shard} job {} has an incomplete timeline",
                result.id
            );
            assert!(
                timeline.windows(2).all(|w| w[0].at_us <= w[1].at_us),
                "timeline timestamps regress: {timeline:?}"
            );
            let at = |i: usize| timeline[i].at_us;
            // submitted=0 queued=1 admitted=2 halted=3 published=4.
            queue_lat.push(Duration::from_micros(at(2) - at(0)));
            engine_lat.push(Duration::from_micros(at(3) - at(2)));
            let shard_span = Duration::from_micros(at(4) - at(0));
            network_lat.push(router_latency.saturating_sub(shard_span));
        }
        // Gate 3: the metrics verb parses, counters are live, and the
        // Prometheus exposition carries the same instruments.
        let (snapshot, exposition) = client.metrics().expect("metrics verb");
        wire_completed += snapshot.counter("sched.completed");
        wire_submitted += snapshot
            .counter("router.submitted")
            .max(snapshot.counter("sched.admitted"));
        assert!(snapshot.uptime_ms > 0 || snapshot.events_recorded > 0);
        assert!(
            exposition.contains("# TYPE sched_completed counter"),
            "exposition must carry the scheduler counters"
        );
        let wire_stats = client.stats().expect("stats verb");
        assert_eq!(wire_stats.queue_depth, 0, "drained fleet has empty queues");
        assert!(wire_stats.uptime_ms > 0, "uptime is reported");
    }
    assert_eq!(
        wire_completed,
        done.len() as u64,
        "the fleet's registries account for every job"
    );
    assert!(
        wire_submitted > 0,
        "metrics verb shows nonzero job counters"
    );

    let q = |sample: &[Duration]| quantiles(sample, &[0.5, 0.99]);
    let (qq, qe, qn) = (&q(&queue_lat), &q(&engine_lat), &q(&network_lat));
    out.push(format!(
        "open-loop: {} arrivals over ~{:.0} ms against 2 shards; {}/{} bit-exact",
        plan.len(),
        plan.span().as_secs_f64() * 1e3,
        exact,
        plan.len(),
    ));
    out.push(format!("{:<10} {:>9} {:>9}", "stage", "p50 ms", "p99 ms"));
    for (name, qs) in [("queue", qq), ("engine", qe), ("network", qn)] {
        out.push(format!(
            "{name:<10} {:>9.3} {:>9.3}",
            qs[0].as_secs_f64() * 1e3,
            qs[1].as_secs_f64() * 1e3,
        ));
    }
    out.push(format!(
        "metrics-verb: ok (completed={wire_completed}, timelines complete on all {} jobs)",
        done.len()
    ));

    // The opt-in engine probe: the same design's batched kernel,
    // profiled layer by layer, feeding the top-down bottleneck model.
    let machine = Machine::intel_core();
    let kernel = BatchKernel::compile(&compiled.plan, KernelConfig::new(KernelKind::Psu));
    let mut st = BatchLiState::new(&compiled.plan, 8);
    let mut mem = machine.mem_sim();
    let mut profile = ExecProfile::default();
    let mut layer_instr: Vec<u64> = Vec::new();
    for _ in 0..ctx.profile_cycles {
        for s in kernel.step_profiled(&mut st, &mut mem, &mut profile) {
            if layer_instr.len() <= s.layer {
                layer_instr.resize(s.layer + 1, 0);
            }
            layer_instr[s.layer] += s.instructions;
        }
    }
    let td = analyze(&profile, &machine);
    // Gate 4: a nonzero, normalized breakdown for the engine stage.
    assert!(
        profile.instructions > 0 && td.cycles > 0.0 && td.retiring > 0.0,
        "engine probe must produce a nonzero top-down breakdown: {td:?}"
    );
    let total = td.frontend_bound + td.bad_speculation + td.backend_bound + td.retiring;
    assert!(
        (total - 1.0).abs() < 1e-6,
        "top-down must normalize: {td:?}"
    );
    let hottest = layer_instr
        .iter()
        .enumerate()
        .max_by_key(|(_, i)| **i)
        .map_or(0, |(l, _)| l);
    out.push(String::new());
    out.push(format!(
        "engine probe ({} cycles x 8 lanes, {} layers): fe {:.1}% badspec {:.1}% be {:.1}% ret {:.1}%, ipc {:.2}, hottest layer {hottest}",
        ctx.profile_cycles,
        layer_instr.len(),
        td.frontend_bound * 100.0,
        td.bad_speculation * 100.0,
        td.backend_bound * 100.0,
        td.retiring * 100.0,
        td.ipc,
    ));
    out.push(String::new());
    out.push(format!(
        "gate: {0}/{0} exact; all timelines six-stage monotonic; metrics verb nonzero; top-down normalized",
        plan.len()
    ));
    out
}

/// RepCut partition parallelism (paper Appendix C, Cascade 2): sweep
/// the partition count on a chip-scale design and measure single-lane
/// cycle latency through the threaded partition engine. Every row is
/// gated bit-identical against the unpartitioned engine on all named
/// outputs, every cycle — partitioning must never change results, only
/// latency. On a box with few cores the latency column flattens (the
/// replication overhead has nothing to hide behind); the gate still
/// binds.
pub fn repcut_partitions(ctx: &Ctx) -> Vec<String> {
    use rteaal_core::{BatchSimulation, Compiler, EngineConfig, PartitionedPlan, Partitioning};
    use std::time::Instant;
    let mut out = header("RepCut: partition-parallel cycle latency, bit-exact (4-core chip, PSU)");
    let circuit = rocket(ChipConfig::new(4).with_scale(ctx.scale.max(0.05)));
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&circuit)
        .expect("chip-scale design compiles");
    let stim = compiled
        .plan
        .probes
        .iter()
        .find(|(_, s, _)| compiled.plan.input_slots.contains(s))
        .map(|(n, _, _)| n.clone())
        .expect("design has a named input");
    let verify_cycles = 50u64;
    let timed_cycles = (ctx.profile_cycles * 10).max(200);
    out.push(format!(
        "{:<12} {:>12} {:>12} {:>14} {:>10}",
        "partitions", "replication", "cross-regs", "ns/cycle", "exact"
    ));
    let mut flat_ns = 0.0f64;
    for parts in [1usize, 2, 4, 8] {
        if parts > ctx.max_cores {
            continue;
        }
        let pp = PartitionedPlan::new(&compiled.plan, parts);
        let cross = pp.rum.iter().filter(|e| !e.readers.is_empty()).count();
        let config = EngineConfig {
            threads: parts,
            partitioning: Partitioning::Fixed(parts),
            ..EngineConfig::new(1)
        };
        let mut sim = BatchSimulation::build(&compiled, config).expect("RepCut plan verifies");
        let mut reference = BatchSimulation::new(&compiled, 1);
        // The gate: lock-step against the unpartitioned engine on every
        // named output, every cycle, under a varying stimulus.
        let mut exact = 0u64;
        for c in 0..verify_cycles {
            let x = c.wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995;
            sim.poke(&stim, 0, x).expect("input pokes");
            reference.poke(&stim, 0, x).expect("input pokes");
            sim.step();
            reference.step();
            let all_match = compiled
                .plan
                .output_slots
                .iter()
                .all(|(name, _)| sim.peek(name, 0) == reference.peek(name, 0));
            assert!(
                all_match,
                "partitioned run diverged from flat at cycle {c} with {parts} partitions"
            );
            exact += 1;
        }
        let t = Instant::now();
        sim.step_cycles(timed_cycles);
        let ns = t.elapsed().as_secs_f64() * 1e9 / timed_cycles as f64;
        if parts == 1 {
            flat_ns = ns;
        }
        out.push(format!(
            "{parts:<12} {:>11.2}x {:>12} {:>14.0} {:>4}/{verify_cycles}",
            pp.replication_factor(),
            cross,
            ns,
            exact
        ));
    }
    out.push(String::new());
    out.push(format!(
        "gate: every partition count bit-identical to the flat engine for {verify_cycles} cycles; \
         flat baseline {flat_ns:.0} ns/cycle"
    ));
    out
}

/// `lint`: the static plan verifier ([`rteaal_dfg::analyze`]) across the
/// design corpus — graph, plan, kernel tables, and RepCut decompositions
/// at 2 and 4 partitions must all come back with zero Error-level
/// diagnostics — plus seeded-violation mutants proving each corruption
/// class is caught with the right diagnostic kind (the no-false-negative
/// gate CI runs as "Lint smoke").
pub fn lint_corpus(ctx: &Ctx) -> Vec<String> {
    use rteaal_designs::{gemmini, pipeline, sha3};
    use rteaal_dfg::analyze::{
        analyze_compiled, analyze_design, analyze_graph, analyze_partitioned, analyze_plan,
        DiagKind,
    };
    use rteaal_dfg::lane_kernel::{compile_plan, LaneType};
    use rteaal_dfg::op::DfgOp;
    use rteaal_dfg::partition::PartitionedPlan;

    let mut out = header("Plan verifier: corpus lint + seeded-violation mutants");
    let corpus: Vec<(&str, rteaal_firrtl::Circuit)> = vec![
        (
            "rocket-1c",
            rocket(ChipConfig::new(1).with_scale(ctx.scale)),
        ),
        (
            "boom-1c",
            small_boom(ChipConfig::new(1).with_scale(ctx.scale)),
        ),
        ("sha3", sha3()),
        ("gemmini-2", gemmini(2)),
        ("pipeline-3", pipeline(3, 16)),
    ];
    out.push(format!(
        "{:<12} {:>8} {:>8} {:>7} {:>6} {:>10} {:>10} {:>6} {:>7}",
        "design", "ops", "slots", "layers", "dead", "nontoggle", "activity", "rows", "status"
    ));
    let mut all_clean = true;
    let mut plans = Vec::new();
    for (name, circuit) in &corpus {
        let mut report = analyze_graph(&raw_graph_of(circuit));
        let p = plan_of(circuit);
        report.merge(analyze_design(&p));
        for parts in [2usize, 4] {
            report.merge(analyze_partitioned(&p, &PartitionedPlan::new(&p, parts)));
        }
        let clean = report.is_clean();
        all_clean &= clean;
        out.push(format!(
            "{name:<12} {:>8} {:>8} {:>7} {:>6} {:>10} {:>10.0} {:>6} {:>7}",
            report.stats.ops,
            report.stats.slots,
            report.stats.layers,
            report.stats.dead_ops,
            report.stats.never_toggling,
            report.stats.total_activity,
            match LaneType::of(&p) {
                LaneType::Narrow => "u32",
                LaneType::Wide => "u64",
            },
            if clean { "clean" } else { "ERROR" },
        ));
        if !clean {
            for d in report.errors().take(5) {
                out.push(format!("  {d}"));
            }
        }
        plans.push(p);
    }
    assert!(all_clean, "corpus lint found Error-level diagnostics");

    // Seeded-violation mutants: each corruption class a buggy pass (or a
    // hostile plan) could introduce must be caught, with the right kind.
    out.push(String::new());
    out.push("seeded mutants (each must be caught):".to_string());
    let base = &plans[0];
    let mut caught = 0usize;

    // 1. Shuffled layer order — a later layer's results consumed before
    //    they exist.
    let mut shuffled = base.clone();
    shuffled.layers.reverse();
    let report = analyze_plan(&shuffled);
    assert!(
        report.has(DiagKind::UseBeforeDef),
        "reversed layers must be use-before-def: {report}"
    );
    caught += 1;
    out.push("  shuffled-layers      -> use-before-def".to_string());

    // 2. Out-of-bounds operand offset — caught in the plan *and* in the
    //    compiled kernel table (the bound the unsafe kernels rely on).
    let mut oob = base.clone();
    let (l, o) = oob
        .layers
        .iter()
        .enumerate()
        .find_map(|(l, layer)| {
            layer
                .iter()
                .position(|op| !op.ins.is_empty())
                .map(|o| (l, o))
        })
        .expect("corpus plans have ops with operands");
    oob.layers[l][o].ins[0] = oob.num_slots as u32 + 7;
    let report = analyze_design(&oob);
    assert!(
        report.has(DiagKind::SlotOutOfBounds) && report.has(DiagKind::KernelOutOfBounds),
        "oob operand must be caught in plan and kernel table: {report}"
    );
    caught += 1;
    out.push("  oob-operand          -> slot-out-of-bounds + kernel-out-of-bounds".to_string());

    // 3. Corrupted RUM ownership — a partition now commits a register it
    //    does not own.
    let mut pp = PartitionedPlan::new(base, 2);
    if let Some(entry) = pp.rum.first_mut() {
        entry.owner = (entry.owner + 1) % 2;
    }
    let report = analyze_partitioned(base, &pp);
    assert!(
        report.has(DiagKind::ForeignCommit) || report.has(DiagKind::RumOwnerMismatch),
        "corrupted rum owner must be caught: {report}"
    );
    caught += 1;
    out.push("  corrupt-rum-owner    -> foreign-commit".to_string());

    // 4. Dropped RUM reader — a cross-partition consumer loses its
    //    replica updates.
    let mut pp = PartitionedPlan::new(base, 2);
    if let Some(entry) = pp.rum.iter_mut().find(|e| !e.readers.is_empty()) {
        entry.readers.clear();
        let report = analyze_partitioned(base, &pp);
        assert!(
            report.has(DiagKind::MissingRumReader),
            "dropped rum reader must be caught: {report}"
        );
        caught += 1;
        out.push("  dropped-rum-reader   -> missing-rum-reader".to_string());
    }

    // 5. Injected combinational cycle — the corruption that used to
    //    panic deep in levelization, now a named-signal trace.
    let mut g = Graph::new("cyclic");
    let x = g.add_source(DfgOp::Input, 8, false, "x".into());
    g.inputs.push(x);
    let a = g.add_op(DfgOp::Add, vec![], vec![x, x], 8, false);
    let b = g.add_op(DfgOp::Not, vec![], vec![a], 8, false);
    g.set_name(a, "sig_a");
    g.set_name(b, "sig_b");
    g.outputs.push(("y".into(), b));
    g.node_mut(a).operands[0] = b;
    let report = analyze_graph(&g);
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.kind == DiagKind::CombCycle)
        .expect("injected cycle must be caught");
    assert!(
        diag.message.contains("sig_a") && diag.message.contains("sig_b"),
        "cycle trace names its signals: {}",
        diag.message
    );
    caught += 1;
    out.push("  injected-comb-cycle  -> comb-cycle (named trace)".to_string());

    // 6./7. A kernel table compiled for `u32` rows, checked against a
    //    plan that no longer allows them: one result grown to 33 bits,
    //    then one `bits` reaching past bit 31 (which `narrow_exact`
    //    rejects). The table is the clean plan's, as a stale or hostile
    //    one would be.
    let narrow = plans
        .iter()
        .find(|p| LaneType::of(p) == LaneType::Narrow)
        .expect("the corpus has a design that runs in u32 rows");
    let table = compile_plan(narrow);
    assert!(analyze_compiled(narrow, &table).is_clean());
    let mut grown = narrow.clone();
    grown.layers[0][0].width = 33;
    let report = analyze_compiled(&grown, &table);
    assert!(
        report.has(DiagKind::KernelLaneMismatch),
        "a u32 kernel writing a 33-bit slot must be caught: {report}"
    );
    caught += 1;
    out.push("  narrow-kernel-33-bit -> kernel-lane-mismatch".to_string());
    let mut reaching = narrow.clone();
    let bits = reaching
        .layers
        .iter_mut()
        .flatten()
        .find(|op| op.op() == DfgOp::Bits)
        .expect("corpus plans extract bit fields");
    bits.params[0] = 32;
    let report = analyze_compiled(&reaching, &table);
    assert!(
        report.has(DiagKind::KernelLaneMismatch),
        "a narrow kernel for an op the predicate rejects must be caught: {report}"
    );
    caught += 1;
    out.push("  inexact-op-narrow    -> kernel-lane-mismatch".to_string());

    // 8. A static shift past the widest signal — every consumer shifts
    //    by its parameters (the scalar kernels narrow them to a byte).
    let mut shifted = base.clone();
    let mut ops = shifted.layers.iter_mut().flatten();
    let shl = ops.find(|op| op.op() == DfgOp::Shl);
    shl.expect("corpus plans shift by constants").params[0] = 70;
    let report = analyze_plan(&shifted);
    assert!(
        report.has(DiagKind::MalformedOp),
        "shl by 70 must be malformed: {report}"
    );
    caught += 1;
    out.push("  shl-by-70            -> malformed-op".to_string());

    out.push(String::new());
    out.push(format!(
        "gate: {} designs clean at 1/2/4 partitions; {caught} seeded mutants caught",
        corpus.len()
    ));
    out
}

/// Whole-design specialization: interpreted vs compiled vs specialized
/// (fold + dedup + DCE + bit-packed 1-bit lanes) on the
/// control-heavy halting RV32I workload at B = 64, with a hard 100%
/// bit-exactness gate against the interpreted golden model, pre-halt
/// (lanes live) and free-run throughput per engine — gated on the
/// settled-batch gate buying >= 1.5x over the same kernel's pre-halt
/// walk — and the predicted-vs-measured bottleneck movement from
/// `step_profiled`.
///
/// The plan is specialized under a serving observability contract:
/// probes are kept on inputs, registers (the DMI poke surface), and the
/// signals a job would actually harvest — every other named node is
/// anonymous, which is what gives the fold/dedup/pack passes their
/// headroom (a probe is pokeable, so a probed op can never be removed).
pub fn specialize_tier(ctx: &Ctx) -> Vec<String> {
    use rteaal_dfg::specialize;
    use rteaal_kernels::{BatchEngine, BatchKernel, BatchLiState};
    use std::time::Instant;
    let mut out = header("Specialize: interpreted vs compiled vs specialized lanes (RV32I, B=64)");
    let w = Workload::rv32i_sum_loop();
    let mut p = plan_of(&w.circuit);
    // The observability contract: inputs, registers, outputs, and the
    // job-visible signals stay probed; anonymous intermediates don't.
    let keep_names = ["a0", "pc_out", "halt"];
    let keep_slots: std::collections::HashSet<u32> = p
        .input_slots
        .iter()
        .copied()
        .chain(p.commits.iter().map(|&(d, _)| d))
        .collect();
    p.probes
        .retain(|(name, s, _)| keep_slots.contains(s) || keep_names.contains(&name.as_str()));
    let sp = specialize(&p);
    let lanes = 64usize;
    let cycles = ctx.profile_cycles.max(30) * 10; // 300 in quick mode
    let cfg = KernelConfig::new(KernelKind::Psu);

    // Engines: (label, kernel, state). The specialized state is built
    // from the *transformed* plan (folds live in its init values).
    let mut engines: Vec<(&str, BatchKernel, BatchLiState)> = vec![
        (
            "interpreted",
            BatchKernel::compile_with_engine(&p, cfg, BatchEngine::Interpreted),
            BatchLiState::new(&p, lanes),
        ),
        (
            "compiled",
            BatchKernel::compile_with_engine(&p, cfg, BatchEngine::Compiled),
            BatchLiState::new(&p, lanes),
        ),
        (
            "specialized",
            BatchKernel::compile_specialized(&sp, cfg, true),
            BatchLiState::new(&sp.plan, lanes),
        ),
    ];

    // Bit-exactness gate first, on fresh states: every observable slot
    // of every lane must agree with the interpreted golden model after
    // every one of the first 80 cycles (past the ~67-cycle halt).
    let mut golden = rteaal_dfg::BatchPlanSim::interpreted(&p, lanes);
    let obs: Vec<u32> = {
        let mut seen = std::collections::HashSet::new();
        p.probes
            .iter()
            .map(|&(_, s, _)| s)
            .chain(p.output_slots.iter().map(|&(_, s)| s))
            .chain(p.commits.iter().flat_map(|&(d, s)| [d, s]))
            .filter(|&s| seen.insert(s))
            .collect()
    };
    let mut checked = 0u64;
    for cycle in 0..80u64 {
        golden.step();
        for (label, k, st) in &mut engines {
            k.step(st);
            for lane in 0..lanes {
                for &slot in &obs {
                    assert_eq!(
                        st.slot(slot, lane),
                        golden.slot_lanes(slot)[lane],
                        "{label}: slot {slot} lane {lane} cycle {cycle} diverged"
                    );
                    checked += 1;
                }
            }
        }
    }

    // Throughput, per engine, in two regimes. Pre-halt: fresh states
    // walked only until their register fixed point — lanes live, every
    // cycle evaluated, the regime a steady-state claim is about. Free-run:
    // the whole budget, most of it past the halt, where the settled-batch
    // gate (every engine has it) turns cycles into clock ticks.
    let fresh = |label: &str| {
        if label == "specialized" {
            BatchLiState::new(&sp.plan, lanes)
        } else {
            BatchLiState::new(&p, lanes)
        }
    };
    out.push(format!(
        "{:<14} {:>16} {:>11} {:>16} {:>13}",
        "engine", "pre-halt l-cyc/s", "vs interp", "free-run l-cyc/s", "vs pre-halt"
    ));
    let mut pre_halt = Vec::new();
    let mut gate_gain = Vec::new();
    let mut settle = None;
    for (label, k, _) in &engines {
        let (mut walked, mut spent) = (0u64, std::time::Duration::ZERO);
        for _ in 0..10 {
            let mut st = fresh(label);
            let t = Instant::now();
            let mut n = 0;
            while !st.settled() && n < cycles {
                k.step(&mut st);
                n += 1;
            }
            spent += t.elapsed();
            walked += n;
            settle = st.settled().then_some(n);
        }
        let pre = (walked * lanes as u64) as f64 / spent.as_secs_f64().max(1e-12);
        let mut st = fresh(label);
        let t = Instant::now();
        k.run(&mut st, cycles);
        let free = (cycles * lanes as u64) as f64 / t.elapsed().as_secs_f64().max(1e-12);
        pre_halt.push(pre);
        gate_gain.push(free / pre);
        out.push(format!(
            "{:<14} {:>16.3e} {:>10.2}x {:>16.3e} {:>12.2}x",
            label,
            pre,
            pre / pre_halt[0],
            free,
            free / pre
        ));
    }

    // Predicted vs measured: the transform's static op removal and the
    // packed-op census predict where the walk's work went; the profiled
    // per-layer samples confirm the modeled work moved the same way.
    let machine = Machine::intel_core();
    let modeled = |kernel: &BatchKernel, st: &mut BatchLiState| -> u64 {
        let mut mem = machine.mem_sim();
        let mut profile = rteaal_perfmodel::topdown::ExecProfile::default();
        let samples = kernel.step_profiled(st, &mut mem, &mut profile);
        samples.iter().map(|s| s.instructions).sum()
    };
    let mi = modeled(&engines[1].1, &mut BatchLiState::new(&p, lanes));
    let ms = modeled(&engines[2].1, &mut BatchLiState::new(&sp.plan, lanes));
    let prog = engines[2].1.specialized().expect("specialized kernel");
    out.push(String::new());
    out.push(format!(
        "transform: {} -> {} ops (folded {}, deduped {}, dead {}, layers dropped {})",
        sp.stats.ops_before,
        sp.stats.ops_after,
        sp.stats.folded,
        sp.stats.deduped,
        sp.stats.dead_removed,
        sp.stats.layers_dropped
    ));
    let (packs, unpacks) = prog.boundary_moves();
    out.push(format!(
        "packing: {} 1-bit ops packed 64-lanes/word ({} bit rows, {packs}+{unpacks} \
         pack/unpack boundary moves)",
        prog.packed_ops(),
        prog.bit_rows()
    ));
    out.push(format!(
        "bottleneck: modeled instructions/cycle {mi} -> {ms} \
         (predicted {:.2}x less wide work; measured pre-halt specialized/compiled {:.2}x)",
        mi as f64 / ms.max(1) as f64,
        pre_halt[2] / pre_halt[1]
    ));
    // The settled gate is where a halting design's free-run throughput
    // comes from: once every lane's registers stop toggling, whole
    // cycles are clock-only. Report the settle point so the free-run
    // column is attributable.
    out.push(match settle {
        Some(c) => format!(
            "activity gate: register fixed point at cycle {c}/{cycles}; \
             every later cycle is skipped (clock-only) until an input or poke"
        ),
        None => format!("activity gate: no fixed point within {cycles} cycles"),
    });
    let (compiled_gain, spec_gain) = (gate_gain[1], gate_gain[2]);
    out.push(String::new());
    out.push(format!(
        "gate: bit-exact on 100% of {checked} observable slot-lane-cycle checks; \
         free-run with the settled gate {compiled_gain:.2}x (compiled) / {spec_gain:.2}x \
         (specialized) the same kernel's pre-halt walk (target >= 1.5x)"
    ));
    if compiled_gain.min(spec_gain) < 1.5 {
        for row in &out {
            eprintln!("{row}");
        }
        panic!(
            "free-run {compiled_gain:.2}x / {spec_gain:.2}x the pre-halt walk misses the 1.5x target"
        );
    }
    out
}

/// All experiment ids in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "fig7",
    "fig8",
    "table3",
    "table4",
    "fig15",
    "table5",
    "table6",
    "fig16",
    "fig17",
    "table7",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "ablation-elision",
    "ablation-format",
    "batch",
    "batch-engine",
    "specialize",
    "sched",
    "serve",
    "shard",
    "fleet",
    "telemetry",
    "repcut",
    "lint",
];

/// Dispatches one experiment by id.
pub fn run_experiment(id: &str, ctx: &Ctx) -> Option<Vec<String>> {
    Some(match id {
        "table1" => table1(ctx),
        "fig7" => fig7(ctx),
        "fig8" => fig8(ctx),
        "table3" => table3(ctx),
        "table4" => table4(ctx),
        "fig15" => fig15(ctx),
        "table5" => table5(ctx),
        "table6" => table6(ctx),
        "fig16" => fig16(ctx),
        "fig17" => fig17(ctx),
        "table7" => table7(ctx),
        "fig18" => fig18_19(ctx, OptLevel::Full),
        "fig19" => fig18_19(ctx, OptLevel::None),
        "fig20" => fig20(ctx),
        "fig21" => fig21(ctx),
        "ablation-elision" => ablation_elision(ctx),
        "ablation-format" => ablation_format(ctx),
        "batch" => batch_throughput(ctx),
        "batch-engine" => batch_engine(ctx),
        "specialize" => specialize_tier(ctx),
        "sched" => sched_serving(ctx),
        "serve" => serve_frontend(ctx),
        "shard" => shard_fleet(ctx),
        "fleet" => elastic_fleet(ctx),
        "telemetry" => telemetry_stack(ctx),
        "repcut" => repcut_partitions(ctx),
        "lint" => lint_corpus(ctx),
        _ => return None,
    })
}
