//! The static plan verifier ([`rteaal_dfg::analyze`]) as a tier-1 gate,
//! in two halves. No false positive: across the design corpus the graph,
//! the plan, the kernel tables and the RepCut decompositions at 2 and 4
//! partitions come back with zero Error-level diagnostics, and every
//! design runs in the lane type its widths call for. No false negative:
//! each corruption class a buggy pass (or a hostile plan) could introduce
//! is seeded into a clean plan and must be caught with its [`DiagKind`].
//!
//! This file is the home of the verifier's mutants: the "aliasing map"
//! mutant ROADMAP item 2 asks for — a slot→row map that puts two live
//! slots on one row — is added here, next to the eight below, when
//! `LaneLayout` grows that map.

use rteaal_designs::{gemmini, pipeline, rocket, sha3, small_boom, ChipConfig};
use rteaal_dfg::analyze::{
    analyze_compiled, analyze_design, analyze_graph, analyze_partitioned, analyze_plan, DiagKind,
};
use rteaal_dfg::graph::Graph;
use rteaal_dfg::lane_kernel::{compile_plan, LaneType};
use rteaal_dfg::op::DfgOp;
use rteaal_dfg::partition::PartitionedPlan;
use rteaal_dfg::passes::{optimize, PassOptions};
use rteaal_dfg::plan::{plan, SimPlan};
use rteaal_firrtl::lower::lower_typed;
use rteaal_firrtl::Circuit;

/// The design scale `tables -- <id>` runs the chips at by default.
const SCALE: f64 = 0.03;

fn raw_graph_of(circuit: &Circuit) -> Graph {
    rteaal_dfg::build(&lower_typed(circuit).expect("designs lower")).expect("designs build")
}

fn plan_of(circuit: &Circuit) -> SimPlan {
    plan(&optimize(&raw_graph_of(circuit), &PassOptions::default()).0)
}

fn rocket_1c() -> Circuit {
    rocket(ChipConfig::new(1).with_scale(SCALE))
}

#[test]
fn the_corpus_lints_clean_at_1_2_and_4_partitions_in_its_lane_type() {
    let corpus = [
        ("rocket-1c", rocket_1c(), LaneType::Narrow),
        (
            "boom-1c",
            small_boom(ChipConfig::new(1).with_scale(SCALE)),
            LaneType::Narrow,
        ),
        ("sha3", sha3(), LaneType::Wide),
        ("gemmini-2", gemmini(2), LaneType::Narrow),
        ("pipeline-3", pipeline(3, 16), LaneType::Narrow),
    ];
    for (name, circuit, lane) in &corpus {
        let mut report = analyze_graph(&raw_graph_of(circuit));
        let p = plan_of(circuit);
        report.merge(analyze_design(&p));
        for parts in [2usize, 4] {
            report.merge(analyze_partitioned(&p, &PartitionedPlan::new(&p, parts)));
        }
        let errors: Vec<String> = report.errors().take(5).map(|d| d.to_string()).collect();
        assert!(
            report.is_clean(),
            "{name}: corpus lint found Error-level diagnostics: {errors:#?}"
        );
        assert_eq!(LaneType::of(&p), *lane, "{name}: lane type");
    }
}

#[test]
fn every_seeded_mutant_is_caught_with_its_diagnostic_kind() {
    let base = &plan_of(&rocket_1c());
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
    }

    // 5. Injected combinational cycle — the corruption that used to
    //    panic deep in levelization, now a named-signal trace.
    let mut g = Graph::new("cyclic");
    let x = g.add_source(DfgOp::Input, 8, false, "x".into());
    g.inputs.push(x);
    let a = g.add_op(DfgOp::Add, &[], &[x, x], 8, false);
    let b = g.add_op(DfgOp::Not, &[], &[a], 8, false);
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

    // 6./7. A kernel table compiled for `u32` rows, checked against a
    //    plan that no longer allows them: one result grown to 33 bits,
    //    then one `bits` reaching past bit 31 (which `narrow_exact`
    //    rejects). The table is the clean plan's, as a stale or hostile
    //    one would be.
    assert_eq!(
        LaneType::of(base),
        LaneType::Narrow,
        "the mutated design runs in u32 rows"
    );
    let table = compile_plan(base);
    assert!(analyze_compiled(base, &table).is_clean());
    let mut grown = base.clone();
    grown.layers[0][0].width = 33;
    let report = analyze_compiled(&grown, &table);
    assert!(
        report.has(DiagKind::KernelLaneMismatch),
        "a u32 kernel writing a 33-bit slot must be caught: {report}"
    );
    caught += 1;
    let mut reaching = base.clone();
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

    assert_eq!(caught, 8, "a seeded mutant was skipped");
}
