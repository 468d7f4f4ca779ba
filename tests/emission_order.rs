//! The batched front door's row numbering: `SimPlan::in_emission_order`
//! renumbers a plan's op outputs in depth-first post-order from the
//! roots, so that a value's row sits next to its readers' rows. The lane
//! walk does not follow the numbering: it runs layer-major runs (each
//! layer's ops sorted by kernel, one call per run), which is topological
//! under any numbering. Checked on the RV32I core, SHA3, the benchmark's
//! chip and 64 generated circuits: the renaming is one to one and moves
//! only op outputs, ascending output slot is a topological order, the
//! renamed plan verifies clean with the same stats, every name resolves
//! to its renamed slot (through `BatchSimulation` too), and the
//! one-thread run walk over the renamed plan is bit-exact, slot for slot
//! through the renaming, to the walk over the plan and to the interpreted
//! golden model — under release codegen too, where the kernels vectorize.

// Only the generator's circuits are used here, not its respelling.
#[allow(dead_code)]
#[path = "../crates/firrtl/tests/gen/mod.rs"]
mod gen;

use rteaal_core::{BatchSimulation, Compiled, Compiler};
use rteaal_designs::{rocket, sha3, ChipConfig, Stimulus, Workload};
use rteaal_dfg::analyze::analyze_design;
use rteaal_dfg::plan::ascends_topologically;
use rteaal_dfg::{BatchPlanSim, OpInst, SimPlan};
use rteaal_kernels::{BatchKernel, BatchLiState, KernelConfig, KernelKind};
use std::sync::OnceLock;

/// The core, SHA3, the chip, then 64 generated circuits, compiled once.
fn corpus() -> &'static [Compiled] {
    static CORPUS: OnceLock<Vec<Compiled>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let compiler = Compiler::new(KernelConfig::new(KernelKind::Psu));
        let designs = [
            Workload::param_sum_circuit(),
            sha3(),
            rocket(ChipConfig::new(4).with_scale(0.5)),
        ];
        let generated = (0..64).map(gen::random_circuit);
        (designs.into_iter().chain(generated))
            .map(|circuit| compiler.compile(&circuit).expect("compiles"))
            .collect()
    })
}

/// Every slot an op writes.
fn op_outputs(plan: &SimPlan) -> Vec<bool> {
    let mut written = vec![false; plan.num_slots];
    for op in plan.layers.iter().flatten() {
        written[op.out as usize] = true;
    }
    written
}

#[test]
fn the_renaming_is_one_to_one_and_moves_only_op_outputs() {
    for compiled in corpus() {
        let plan = &compiled.plan;
        let to = plan.emission_order();
        let mut image = to.clone();
        image.sort_unstable();
        assert!(
            image.iter().copied().eq(0..plan.num_slots as u32),
            "{}: not one to one",
            plan.name
        );
        for (s, written) in op_outputs(plan).into_iter().enumerate() {
            assert!(
                written || to[s] == s as u32,
                "{}: slot {s} moved",
                plan.name
            );
        }
        // What the renamed plan holds is the plan through the renaming.
        let at = |s: u32| to[s as usize];
        let renamed = plan.in_emission_order();
        for (i, (got, was)) in renamed.layers.iter().zip(&plan.layers).enumerate() {
            let mut want: Vec<OpInst> = (was.iter().cloned())
                .map(|op| OpInst {
                    out: at(op.out),
                    ins: op.ins.iter().map(|&r| at(r)).collect(),
                    ..op
                })
                .collect();
            want.sort_unstable_by_key(|op| op.out);
            assert_eq!(got, &want, "{} layer {i}", plan.name);
        }
        assert_eq!(renamed.layers.len(), plan.layers.len());
        let commits: Vec<(u32, u32)> = plan.commits.iter().map(|&(d, s)| (d, at(s))).collect();
        assert_eq!(renamed.commits, commits, "{}", plan.name);
        assert_eq!(renamed.input_slots, plan.input_slots, "{}", plan.name);
        for (s, &v) in plan.init_values.iter().enumerate() {
            assert_eq!(
                renamed.init_values[at(s as u32) as usize],
                v,
                "{}",
                plan.name
            );
        }
        let mut signed: Vec<u32> = plan.signed_probes.iter().map(|&s| at(s)).collect();
        signed.sort_unstable();
        assert_eq!(renamed.signed_probes, signed, "{}", plan.name);
        assert_eq!(
            (&renamed.name, renamed.num_slots, renamed.const_slots),
            (&plan.name, plan.num_slots, plan.const_slots)
        );
    }
}

#[test]
fn ascending_op_output_slot_is_a_topological_order() {
    for compiled in corpus() {
        let renamed = compiled.plan.in_emission_order();
        let walk = renamed.layers.iter().flatten();
        assert!(
            ascends_topologically(walk, renamed.num_slots),
            "{}: a row is read before it is written",
            renamed.name
        );
    }
}

#[test]
fn the_renamed_plan_verifies_clean_with_the_same_stats() {
    for compiled in corpus() {
        let (plan, renamed) = (&compiled.plan, compiled.plan.in_emission_order());
        let report = analyze_design(&renamed);
        assert!(report.is_clean(), "{}: {report}", plan.name);
        assert_eq!(renamed.stats, plan.stats, "{}", plan.name);
        assert_eq!(report.stats, analyze_design(plan).stats, "{}", plan.name);
    }
}

#[test]
fn every_name_resolves_to_its_renamed_slot() {
    for compiled in corpus() {
        let plan = &compiled.plan;
        let to = plan.emission_order();
        let renamed = plan.in_emission_order();
        let names =
            (plan.probes.iter().map(|p| &p.0)).chain(plan.output_slots.iter().map(|o| &o.0));
        for name in names {
            let want = plan.signal_slot(name).map(|s| to[s as usize]);
            assert_eq!(renamed.signal_slot(name), want, "{}: {name}", plan.name);
        }
        for (was, got) in plan.typed_probes().zip(renamed.typed_probes()) {
            let (name, slot, width, signed) = was;
            assert_eq!(
                got,
                (name, to[slot as usize], width, signed),
                "{}",
                plan.name
            );
        }
        let sim = BatchSimulation::new(compiled, 1);
        assert_eq!(sim.plan(), &renamed, "{}: the front door's plan", plan.name);
    }
}

#[test]
fn the_one_thread_walk_over_the_renamed_plan_is_bit_exact() {
    const LANES: usize = 3;
    let cfg = KernelConfig::new(KernelKind::Psu);
    for (k, compiled) in corpus().iter().enumerate() {
        let plan = &compiled.plan;
        let (to, renamed) = (plan.emission_order(), plan.in_emission_order());
        let (kernel, depth_first) = (
            BatchKernel::compile(plan, cfg),
            BatchKernel::compile(&renamed, cfg),
        );
        let mut st = BatchLiState::new(plan, LANES);
        let mut renamed_st = BatchLiState::new(&renamed, LANES);
        let mut golden = BatchPlanSim::interpreted(plan, LANES);
        let mut streams: Vec<Stimulus> = (0..LANES as u64)
            .map(|lane| Stimulus::from_seed(k as u64 ^ lane << 16))
            .collect();
        let cycles = if plan.total_ops() > 5_000 { 12 } else { 40 };
        for cycle in 0..cycles {
            for (lane, stream) in streams.iter_mut().enumerate() {
                for idx in 0..plan.input_slots.len() {
                    let v = stream.next_value();
                    st.set_input(idx, lane, v);
                    renamed_st.set_input(idx, lane, v);
                    golden.set_input(idx, lane, v);
                }
            }
            kernel.step(&mut st);
            depth_first.step(&mut renamed_st);
            golden.step();
            for s in 0..plan.num_slots as u32 {
                for lane in 0..LANES {
                    let want = golden.slot(s, lane);
                    let at = format!("{} slot {s} lane {lane} @ cycle {cycle}", plan.name);
                    assert_eq!(st.slot(s, lane), want, "plan order, {at}");
                    assert_eq!(renamed_st.slot(to[s as usize], lane), want, "renamed, {at}");
                }
            }
        }
    }
}
