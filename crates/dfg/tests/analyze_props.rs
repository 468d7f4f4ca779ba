//! Property-based coverage of the static plan verifier:
//!
//! 1. **No false positives, and clean means correct**: every randomly
//!    generated, valid-by-construction plan comes back analyzer-clean,
//!    and every analyzer-clean plan runs bit-exact between the compiled
//!    lane kernels and the interpreted lane walk over multiple cycles of
//!    random stimulus (registers committed identically on both paths).
//! 2. **No false negatives**: each seeded violation class — shuffled
//!    layer order, corrupted RUM ownership, out-of-bounds operand
//!    offset, injected combinational cycle — is caught with the right
//!    [`DiagKind`].

use proptest::prelude::*;
use rteaal_dfg::analyze::{
    analyze_design, analyze_graph, analyze_partitioned, analyze_plan, DiagKind,
};
use rteaal_dfg::graph::Graph;
use rteaal_dfg::lane_kernel::{compile_plan, LaneWindow};
use rteaal_dfg::op::{canonicalize, DfgOp};
use rteaal_dfg::partition::PartitionedPlan;
use rteaal_dfg::plan::{split_commits, OpInst, PlanStats, SimPlan};

/// splitmix64 — dependent random values derived from one generated seed.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Opcodes the random scheduler draws from (sources excluded; everything
/// here evaluates through both the interpreter and a compiled kernel).
const SCHEDULABLE: &[DfgOp] = &[
    DfgOp::Add,
    DfgOp::Sub,
    DfgOp::And,
    DfgOp::Or,
    DfgOp::Xor,
    DfgOp::Not,
    DfgOp::Eq,
    DfgOp::Ltu,
    DfgOp::Gts,
    DfgOp::Mux,
    DfgOp::Shl,
    DfgOp::Shr,
    DfgOp::Bits,
    DfgOp::Cat,
    DfgOp::Andr,
    DfgOp::Xorr,
];

/// Valid-by-construction arity and parameters for one opcode.
fn arity_and_params(op: DfgOp, seed: &mut u64) -> (usize, Vec<u64>) {
    match op {
        DfgOp::Andr | DfgOp::Xorr => (1, vec![1 + mix(seed) % 64]),
        DfgOp::Shl | DfgOp::Shr => (1, vec![(mix(seed) % 70).min(64)]),
        DfgOp::Bits => {
            let lo = mix(seed) % 63;
            let hi = lo + mix(seed) % (63 - lo + 1);
            (1, vec![hi, lo])
        }
        DfgOp::Cat => (2, vec![1 + mix(seed) % 64, 1 + mix(seed) % 64]),
        _ => (op.arity().expect("fixed arity"), vec![]),
    }
}

/// Builds a random, legal-by-construction plan: register/input/const
/// source slots, then layers of ops whose operands only reference slots
/// produced strictly earlier (plus an explicit cross-layer dependency so
/// layer shuffling is always detectable), then one commit per register.
fn random_plan(seed: u64) -> SimPlan {
    let mut s = seed;
    let regs = 1 + (mix(&mut s) % 3) as u32;
    let inputs = 1 + (mix(&mut s) % 3) as u32;
    let consts = (mix(&mut s) % 3) as u32;
    let n_layers = 2 + (mix(&mut s) % 3) as usize;

    let mut init_values = Vec::new();
    for _ in 0..regs {
        init_values.push(mix(&mut s) % 1000);
    }
    init_values.extend(std::iter::repeat_n(0, inputs as usize));
    let const_start = init_values.len() as u32;
    for _ in 0..consts {
        init_values.push(mix(&mut s));
    }
    let const_end = init_values.len() as u32;

    // Slots usable as operands; grows by one layer at a time so the
    // strictly-earlier-layer rule holds by construction.
    let mut available: Vec<u32> = (0..const_end).collect();
    let mut layers = Vec::new();
    let mut next_slot = const_end;
    let mut prev_layer_out = None;
    for l in 0..n_layers {
        let n_ops = 1 + (mix(&mut s) % 4) as usize;
        let mut layer = Vec::new();
        for o in 0..n_ops {
            let op = SCHEDULABLE[(mix(&mut s) as usize) % SCHEDULABLE.len()];
            let (arity, params) = arity_and_params(op, &mut s);
            let mut ins: Vec<u32> = (0..arity)
                .map(|_| available[(mix(&mut s) as usize) % available.len()])
                .collect();
            // First op of every non-first layer consumes the previous
            // layer's first result: reversing the schedule is then
            // guaranteed to be a use-before-def, and the dependency
            // chain keeps most of the plan live.
            if l > 0 && o == 0 && arity > 0 {
                ins[0] = prev_layer_out.expect("previous layer produced a slot");
            }
            let width = 1 + (mix(&mut s) % 64) as u8;
            layer.push(OpInst {
                n: op.n_coord(),
                out: next_slot,
                ins,
                params,
                width,
                signed: mix(&mut s).is_multiple_of(2),
            });
            init_values.push(0);
            next_slot += 1;
        }
        prev_layer_out = Some(next_slot - 1);
        let new: Vec<u32> = layer.iter().map(|op| op.out).collect();
        available.extend(new);
        layers.push(layer);
    }

    let commits: Vec<(u32, u32)> = (0..regs)
        .map(|r| (r, available[(mix(&mut s) as usize) % available.len()]))
        .collect();
    let num_slots = next_slot as usize;
    let output_slots = vec![("y".to_string(), next_slot - 1)];
    let probes = (0..regs).map(|r| (format!("r{r}"), r, 64u8)).collect();
    SimPlan {
        name: "random".to_string(),
        num_slots,
        input_slots: (regs..regs + inputs).collect(),
        input_types: (0..inputs).map(|_| (64u8, false)).collect(),
        output_slots,
        const_slots: (const_start, const_end),
        commits,
        init_values,
        stats: PlanStats {
            effectual_ops: layers.iter().map(Vec::len).sum(),
            identity_ops: 0,
            layers: layers.len(),
            slots: num_slots,
        },
        layers,
        probes,
        signed_probes: vec![],
    }
}

/// Steps `cycles` of a plan over `lanes` lanes of random stimulus on
/// both execution paths — compiled lane kernels vs the interpreted lane
/// walk — with identical commit handling, and demands bit-identical `LI`
/// contents after every cycle.
fn run_differential(plan: &SimPlan, lanes: usize, cycles: usize, seed: u64) -> Result<(), String> {
    let mut s = seed;
    let compiled = compile_plan(plan);
    let w = LaneWindow::full(lanes);
    let mut li_int: Vec<u64> = Vec::with_capacity(plan.num_slots * lanes);
    for &v in &plan.init_values {
        li_int.extend(std::iter::repeat_n(v, lanes));
    }
    let mut li_cmp = li_int.clone();
    let (direct, staged) = split_commits(&plan.commits);
    let mut buf = Vec::new();
    for cycle in 0..cycles {
        for (idx, &slot) in plan.input_slots.iter().enumerate() {
            let (width, signed) = plan.input_types[idx];
            for lane in 0..lanes {
                let v = canonicalize(mix(&mut s), width as u32, signed);
                li_int[slot as usize * lanes + lane] = v;
                li_cmp[slot as usize * lanes + lane] = v;
            }
        }
        for (layer, clayer) in plan.layers.iter().zip(&compiled) {
            for op in layer {
                op.eval_lanes(&mut li_int, w, &mut buf);
            }
            for op in clayer {
                op.eval_lanes(&mut li_cmp, w);
            }
        }
        if li_int != li_cmp {
            return Err(format!("divergence after layers of cycle {cycle}"));
        }
        for li in [&mut li_int, &mut li_cmp] {
            for &(dst, src) in &direct {
                for lane in 0..lanes {
                    li[dst as usize * lanes + lane] = li[src as usize * lanes + lane];
                }
            }
            let stage: Vec<u64> = staged
                .iter()
                .flat_map(|&(_, src)| (0..lanes).map(move |lane| (src, lane)))
                .map(|(src, lane)| li[src as usize * lanes + lane])
                .collect();
            for (i, &(dst, _)) in staged.iter().enumerate() {
                for lane in 0..lanes {
                    li[dst as usize * lanes + lane] = stage[i * lanes + lane];
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn clean_random_plans_run_bit_exact(
        seed in any::<u64>(),
        lanes in 1usize..5,
    ) {
        let plan = random_plan(seed);
        let report = analyze_design(&plan);
        prop_assert!(
            report.is_clean(),
            "generated plan must be analyzer-clean: {}", report
        );
        prop_assert_eq!(report.stats.ops, plan.total_ops());
        prop_assert_eq!(report.stats.layers, plan.layers.len());
        let outcome = run_differential(&plan, lanes, 4, seed ^ 0xabcd);
        prop_assert!(
            outcome.is_ok(),
            "analyzer-clean plan diverged: {:?}", outcome
        );
        // The partitioned schedule of a clean plan is clean too.
        for parts in [2usize, 3] {
            let pp = PartitionedPlan::new(&plan, parts);
            let report = analyze_partitioned(&plan, &pp);
            prop_assert!(report.is_clean(), "{} partitions: {}", parts, report);
        }
    }

    #[test]
    fn shuffled_layers_are_use_before_def(seed in any::<u64>()) {
        let mut plan = random_plan(seed);
        plan.layers.reverse();
        let report = analyze_plan(&plan);
        prop_assert!(
            report.has(DiagKind::UseBeforeDef),
            "reversed layers must be use-before-def: {}", report
        );
        prop_assert!(!report.is_clean());
    }

    #[test]
    fn corrupted_rum_owner_is_caught(seed in any::<u64>()) {
        let plan = random_plan(seed);
        let mut pp = PartitionedPlan::new(&plan, 2);
        let entry = pp.rum.first_mut().expect("plans have registers");
        entry.owner = (entry.owner + 1) % 2;
        let report = analyze_partitioned(&plan, &pp);
        prop_assert!(
            report.has(DiagKind::ForeignCommit) || report.has(DiagKind::RumOwnerMismatch),
            "corrupted owner must be caught: {}", report
        );
        prop_assert!(!report.is_clean());
    }

    #[test]
    fn out_of_bounds_operand_is_caught(seed in any::<u64>()) {
        let mut plan = random_plan(seed);
        let mut s = seed;
        let op = loop {
            let l = (mix(&mut s) as usize) % plan.layers.len();
            let o = (mix(&mut s) as usize) % plan.layers[l].len();
            if !plan.layers[l][o].ins.is_empty() {
                break &mut plan.layers[l][o];
            }
        };
        op.ins[0] = plan.num_slots as u32 + 1 + (mix(&mut s) % 100) as u32;
        let report = analyze_design(&plan);
        prop_assert!(
            report.has(DiagKind::SlotOutOfBounds),
            "oob operand must be caught in the plan: {}", report
        );
        prop_assert!(
            report.has(DiagKind::KernelOutOfBounds),
            "oob operand must be caught in the kernel table: {}", report
        );
        prop_assert!(!report.is_clean());
    }

    #[test]
    fn injected_comb_cycles_are_caught_with_a_named_trace(
        chain_len in 2usize..8,
        back_to in any::<u64>(),
    ) {
        // A chain x -> op0 -> op1 -> ... -> opN, then one back-edge from
        // an earlier op to a later one — the shape a buggy pass could
        // produce, which used to panic in levelization.
        let mut g = Graph::new("cyclic");
        let x = g.add_source(DfgOp::Input, 8, false, "x".into());
        g.inputs.push(x);
        let mut chain = Vec::new();
        let mut prev = x;
        for i in 0..chain_len {
            let n = g.add_op(DfgOp::Not, &[], &[prev], 8, false);
            g.set_name(n, format!("sig_{i}"));
            chain.push(n);
            prev = n;
        }
        g.outputs.push(("y".into(), prev));
        let from = (back_to as usize) % (chain_len - 1);
        let to = from + 1 + (back_to as usize >> 8) % (chain_len - from - 1);
        g.node_mut(chain[from]).operands[0] = chain[to];
        let report = analyze_graph(&g);
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagKind::CombCycle);
        prop_assert!(diag.is_some(), "injected cycle must be caught: {}", report);
        let diag = diag.unwrap();
        prop_assert!(
            diag.message.contains(&format!("sig_{from}"))
                && diag.message.contains(&format!("sig_{to}")),
            "trace must name both ends of the back-edge: {}", diag.message
        );
    }
}
