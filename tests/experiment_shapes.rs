//! Shape checks for the paper's evaluation claims, run at a reduced
//! scale: these are the assertions behind README's "Benchmarks and
//! paper experiments" section. Each test
//! encodes the *qualitative* result of a table or figure — who wins, in
//! which direction a trend moves — using the same code paths as the
//! `tables` binary.

use rteaal_baselines::{EssentLike, VerilatorLike};
use rteaal_bench::experiments::{essent_run, graph_of, kernel_run, raw_graph_of, verilator_run};
use rteaal_designs::{rocket, small_boom, ChipConfig};
use rteaal_dfg::level::levelize;
use rteaal_dfg::plan::plan;
use rteaal_kernels::{Kernel, KernelConfig, KernelKind, OptLevel, ALL_KERNELS};
use rteaal_perfmodel::Machine;

const SCALE: f64 = 0.03;
const CYCLES: u64 = 25;

fn rocket_plan(cores: usize) -> rteaal_dfg::SimPlan {
    plan(&graph_of(&rocket(ChipConfig::new(cores).with_scale(SCALE))))
}

/// Table 1: identity operations dominate effectual operations.
#[test]
fn table1_identity_ops_dominate() {
    for circuit in [
        rocket(ChipConfig::new(1).with_scale(SCALE)),
        small_boom(ChipConfig::new(1).with_scale(SCALE)),
    ] {
        let lv = levelize(&raw_graph_of(&circuit));
        assert!(lv.identities.total() > 2 * lv.effectual_ops());
    }
}

/// Figure 7: ESSENT has lower frontend-bound + bad-speculation fractions
/// than Verilator.
#[test]
fn fig7_essent_beats_verilator_on_frontend_and_speculation() {
    // Frontend/speculation pressure needs a design whose generated code
    // stresses the L1I; x86 makes Verilator's branchy dispatch visible.
    let g = graph_of(&rocket(ChipConfig::new(4).with_scale(0.15)));
    let machine = Machine::intel_xeon();
    let (v, _) = verilator_run(&g, &machine, CYCLES, 1, OptLevel::Full);
    let (e, _) = essent_run(&g, &machine, CYCLES, 1, OptLevel::Full);
    assert!(e.bad_speculation <= v.bad_speculation);
    assert!(e.frontend_bound + e.bad_speculation <= v.frontend_bound + v.bad_speculation + 1e-9);
}

/// Figure 8 / Table 7: ESSENT compiles slower than Verilator, and both
/// grow with design size while the PSU kernel generation stays flat.
#[test]
fn fig8_table7_compile_cost_scaling() {
    let mut essent_times = Vec::new();
    let mut psu_times = Vec::new();
    for cores in [1usize, 4] {
        let g = raw_graph_of(&rocket(ChipConfig::new(cores).with_scale(SCALE)));
        let e = EssentLike::compile(&g, OptLevel::Full)
            .compile_report()
            .seconds;
        let v = VerilatorLike::compile(&g, OptLevel::Full)
            .compile_report()
            .seconds;
        assert!(e > v, "cores={cores}: essent {e} !> verilator {v}");
        essent_times.push(e);
        let p = plan(&g);
        psu_times.push(
            Kernel::compile(&p, KernelConfig::new(KernelKind::Psu))
                .compile_report()
                .seconds,
        );
    }
    // ESSENT's compile grows markedly with the design...
    assert!(essent_times[1] > 2.0 * essent_times[0]);
    // ...while PSU kernel generation stays orders of magnitude cheaper.
    assert!(psu_times[1] < essent_times[1] / 10.0);
}

/// Table 4: code footprint is flat across the rolled kernels, then jumps
/// at IU and peaks at SU, with TI slightly smaller.
#[test]
fn table4_code_footprint_shape() {
    // Large enough that the straight-line stream dwarfs IU's per-group
    // bodies (as in the paper's designs).
    let p = plan(&graph_of(&rocket(ChipConfig::new(8).with_scale(0.08))));
    let code: Vec<u64> = ALL_KERNELS
        .iter()
        .map(|&k| {
            Kernel::compile(&p, KernelConfig::new(k))
                .compile_report()
                .code_bytes
        })
        .collect();
    let [ru, ou, nu, psu, iu, su, ti] = code[..] else {
        panic!()
    };
    assert_eq!(ru, ou);
    assert_eq!(nu, psu);
    assert!(iu > psu);
    assert!(su > iu);
    assert!(ti < su);
    // Rolled kernels keep the OIM as data instead.
    let psu_data = Kernel::compile(&p, KernelConfig::new(KernelKind::Psu))
        .compile_report()
        .data_bytes;
    assert!(psu_data > 0);
}

/// Table 5: dynamic instructions fall monotonically from RU to TI.
#[test]
fn table5_dynamic_instructions_fall_with_unrolling() {
    let p = plan(&graph_of(&rocket(ChipConfig::new(8).with_scale(0.08))));
    let machine = Machine::intel_xeon();
    let counts: Vec<u64> = ALL_KERNELS
        .iter()
        .map(|&k| {
            kernel_run(&p, KernelConfig::new(k), &machine, CYCLES, 1)
                .1
                .instructions
        })
        .collect();
    // Monotone within a small tolerance: at reduced design scale the
    // per-layer type sweep of NU/PSU is proportionally larger than in
    // the paper's 100K+-op designs.
    for w in counts.windows(2) {
        assert!(
            w[0] as f64 >= w[1] as f64 * 0.8,
            "dyn instr not (near-)monotone: {counts:?}"
        );
    }
    // RU to TI spans a large factor (paper: 26.9T -> 0.476T, ~56x; here
    // the staging + dispatch overheads give a smaller but clear gap).
    assert!(counts[0] as f64 > 2.5 * counts[6] as f64);
}

/// Table 6: SU/TI trade D-cache pressure for I-cache pressure.
#[test]
fn table6_pressure_shift() {
    let p = rocket_plan(8);
    let machine = Machine::intel_xeon();
    let (_, psu) = kernel_run(&p, KernelConfig::new(KernelKind::Psu), &machine, CYCLES, 1);
    let (_, su) = kernel_run(&p, KernelConfig::new(KernelKind::Su), &machine, CYCLES, 1);
    assert!(su.mem.l1d.accesses < psu.mem.l1d.accesses);
    assert!(su.mem.l1i.misses > 2 * psu.mem.l1i.misses);
}

/// Figures 16/17: a mid-spectrum kernel is fastest at 8 cores on the
/// Xeon, and TI is best for the 1-core design (the sweet spot moves).
#[test]
fn fig16_17_sweet_spot() {
    let machine = Machine::intel_xeon();
    let time = |cores: usize, kind: KernelKind| {
        kernel_run(
            &rocket_plan(cores),
            KernelConfig::new(kind),
            &machine,
            CYCLES,
            540_000,
        )
        .0
        .seconds
    };
    // 8 cores: PSU beats both extremes.
    let (ru8, psu8, ti8) = (
        time(8, KernelKind::Ru),
        time(8, KernelKind::Psu),
        time(8, KernelKind::Ti),
    );
    assert!(psu8 < ru8, "PSU {psu8} !< RU {ru8}");
    assert!(psu8 < ti8, "PSU {psu8} !< TI {ti8}");
    // 1 core: TI wins (straight-line code fits the caches).
    let (psu1, ti1) = (time(1, KernelKind::Psu), time(1, KernelKind::Ti));
    assert!(ti1 < psu1, "TI {ti1} !< PSU {psu1}");
}

/// Figure 18: at -O3, ESSENT simulates fastest, Verilator slowest, PSU
/// in between.
#[test]
fn fig18_ordering_at_o3() {
    let circuit = rocket(ChipConfig::new(4).with_scale(SCALE));
    let g = graph_of(&circuit);
    let p = plan(&g);
    let machine = Machine::intel_xeon();
    let (v, _) = verilator_run(&g, &machine, CYCLES, 1, OptLevel::Full);
    let (k, _) = kernel_run(&p, KernelConfig::new(KernelKind::Psu), &machine, CYCLES, 1);
    let (e, _) = essent_run(&g, &machine, CYCLES, 1, OptLevel::Full);
    assert!(
        e.seconds < k.seconds,
        "essent {} !< psu {}",
        e.seconds,
        k.seconds
    );
    assert!(
        k.seconds < v.seconds,
        "psu {} !< verilator {}",
        k.seconds,
        v.seconds
    );
}

/// Figure 19: at -O0, ESSENT's advantage collapses hardest.
#[test]
fn fig19_essent_collapses_at_o0() {
    let circuit = rocket(ChipConfig::new(2).with_scale(SCALE));
    let g = graph_of(&circuit);
    let p = plan(&g);
    let machine = Machine::intel_xeon();
    let degradation = |o3: f64, o0: f64| o0 / o3;
    let (e3, _) = essent_run(&g, &machine, CYCLES, 1, OptLevel::Full);
    let (e0, _) = essent_run(&g, &machine, CYCLES, 1, OptLevel::None);
    let (k3, _) = kernel_run(&p, KernelConfig::new(KernelKind::Psu), &machine, CYCLES, 1);
    let (k0, _) = kernel_run(
        &p,
        KernelConfig::unoptimized(KernelKind::Psu),
        &machine,
        CYCLES,
        1,
    );
    let essent_deg = degradation(e3.seconds, e0.seconds);
    let psu_deg = degradation(k3.seconds, k0.seconds);
    assert!(
        essent_deg > 1.4 * psu_deg,
        "essent degradation {essent_deg:.1}x !>> psu {psu_deg:.1}x"
    );
}

/// Figure 21: the RTeAAL kernel's advantage over the baselines grows as
/// the LLC shrinks.
#[test]
fn fig21_llc_sensitivity() {
    // LLC effects only appear once code footprints exceed the 2 MB L2:
    // this is the one shape test that needs a near-paper-scale design.
    let circuit = small_boom(ChipConfig::new(8).with_scale(1.0));
    let g = graph_of(&circuit);
    let p = plan(&g);
    let speedup_at = |mb: f64| {
        let machine = Machine::intel_xeon().with_llc_capacity((mb * 1024.0 * 1024.0) as usize);
        let (e, _) = essent_run(&g, &machine, 6, 1, OptLevel::Full);
        let (k, _) = kernel_run(&p, KernelConfig::new(KernelKind::Psu), &machine, 6, 1);
        e.seconds / k.seconds // >1 means RTeAAL faster than ESSENT
    };
    // Our straight-line footprint is ~2.3 MB (vs the paper's 11 MB), so
    // the crossover sits at a proportionally smaller LLC.
    let large = speedup_at(10.5);
    let small = speedup_at(1.75);
    assert!(
        small > large,
        "RTeAAL should gain on ESSENT as LLC shrinks: {large:.3} -> {small:.3}"
    );
}
