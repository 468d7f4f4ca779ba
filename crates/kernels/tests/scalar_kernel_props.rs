//! Differential tests of the seven scalar kernels, per opcode: for every
//! schedulable opcode × result width × signedness × kernel × `-O3`/`-O0`
//! analog, one cycle of the kernel must be bit-identical to `eval_raw` +
//! `canonicalize` and to `PlanSim`; and whole layers that mix a mux chain
//! with several fixed-arity groups must match `PlanSim` cycle by cycle.
//!
//! NU, PSU and IU walk a kernel-side schedule of the occupied `(layer,
//! type)` groups over one packed record per op (operands by arity,
//! canonicalization pair, parameters narrowed to a byte); SU/TI read
//! operands from one stream beside the instruction list. This is the sweep
//! that pins all of that to the one definition of op semantics — and, for
//! the grouped three, slot for slot to `PlanSim` on the shapes a schedule
//! can get wrong: a layer that is only a mux chain, one-op groups, the
//! last group of the last layer, no ops at all, signed results at every
//! width.

use proptest::prelude::*;
use rteaal_dfg::op::{canonicalize, eval_raw, DfgOp, OpClass, ALL_OPS};
use rteaal_dfg::plan::{OpInst, PlanSim, PlanStats, SimPlan};
use rteaal_kernels::{Kernel, KernelConfig, ALL_KERNELS};

/// Every opcode a verified plan can schedule into a layer.
fn schedulable_ops() -> Vec<DfgOp> {
    ALL_OPS
        .iter()
        .copied()
        .filter(|op| op.class() != OpClass::Source)
        .collect()
}

/// Widths around the canonicalization edge cases (byte, word and
/// full-register boundaries).
const WIDTHS: [u8; 8] = [1, 7, 8, 31, 32, 33, 63, 64];

/// Operand slots available to the op under test (a 4-pair mux chain).
const INPUTS: u32 = 9;

/// splitmix64 — dependent random values derived from one seed.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Valid-by-construction arity and parameters for one opcode (shift
/// amounts deliberately reach 64, the verifier's bound, to hit the
/// out-of-range paths).
fn arity_and_params(op: DfgOp, seed: &mut u64) -> (usize, Vec<u64>) {
    match op {
        DfgOp::Andr | DfgOp::Orr | DfgOp::Xorr => (1, vec![1 + mix(seed) % 64]),
        DfgOp::Shl | DfgOp::Shr => (1, vec![(mix(seed) % 80).min(64)]),
        DfgOp::Bits => {
            let lo = mix(seed) % 63;
            let hi = lo + mix(seed) % (63 - lo + 1);
            (1, vec![hi, lo])
        }
        DfgOp::Head => {
            let wa = 1 + mix(seed) % 64;
            let n = 1 + mix(seed) % wa;
            (1, vec![n, wa])
        }
        DfgOp::Cat => (2, vec![1 + mix(seed) % 64, 1 + mix(seed) % 64]),
        DfgOp::MuxChain => (3 + 2 * (mix(seed) % 4) as usize, vec![]),
        _ => (op.arity().expect("fixed arity"), vec![]),
    }
}

/// A plan over `INPUTS` 64-bit inputs in which every op (already given an
/// `out` slot from `INPUTS` upwards) is an output port, plus one register
/// per entry of `reg_sources`, committed from that slot. Registers take
/// the slots after the ops, so input and op slot numbers stay put.
fn plan_of(layers: Vec<Vec<OpInst>>, reg_sources: &[u32]) -> SimPlan {
    let ops: usize = layers.iter().map(Vec::len).sum();
    let first_reg = INPUTS + ops as u32;
    let num_slots = first_reg as usize + reg_sources.len();
    SimPlan {
        name: "props".to_string(),
        num_slots,
        input_slots: (0..INPUTS).collect(),
        input_types: vec![(64, false); INPUTS as usize],
        output_slots: (INPUTS..first_reg).map(|s| (format!("o{s}"), s)).collect(),
        const_slots: (0, 0),
        commits: reg_sources
            .iter()
            .enumerate()
            .map(|(r, &src)| (first_reg + r as u32, src))
            .collect(),
        init_values: vec![0; num_slots],
        stats: PlanStats {
            effectual_ops: ops,
            identity_ops: 0,
            layers: layers.len(),
            slots: num_slots,
        },
        layers,
        probes: vec![],
        signed_probes: vec![],
    }
}

/// All seven kernels at both compile analogs.
fn all_configs() -> impl Iterator<Item = KernelConfig> {
    ALL_KERNELS
        .into_iter()
        .flat_map(|k| [KernelConfig::new(k), KernelConfig::unoptimized(k)])
}

/// Operand values that stress canonicalization: all-zeros, all-ones, the
/// sign bit, small values (shift amounts on both sides of 64, which make
/// the dynamic shifts order-sensitive), then noise.
fn stimulus(round: usize, seed: &mut u64) -> u64 {
    match round {
        0 => 0,
        1 => u64::MAX,
        2 => 1 << 63,
        3 => mix(seed) % 67,
        _ => mix(seed),
    }
}

#[test]
fn every_opcode_width_and_sign_matches_eval_raw_on_every_kernel() {
    let mut seed = 0x5eed_u64;
    for op in schedulable_ops() {
        for width in WIDTHS {
            for signed in [false, true] {
                let (arity, params) = arity_and_params(op, &mut seed);
                let inst = OpInst {
                    n: op.n_coord(),
                    out: INPUTS,
                    ins: (0..arity as u32).collect(),
                    params,
                    width,
                    signed,
                };
                let plan = plan_of(vec![vec![inst.clone()]], &[]);
                let mut kernels: Vec<Kernel> =
                    all_configs().map(|c| Kernel::compile(&plan, c)).collect();
                let mut golden = PlanSim::new(&plan);
                for round in 0..6 {
                    let ins: Vec<u64> = (0..INPUTS).map(|_| stimulus(round, &mut seed)).collect();
                    let raw = eval_raw(op, &inst.params, &ins[..arity]);
                    let want = canonicalize(raw, width as u32, signed);
                    for (i, &v) in ins.iter().enumerate() {
                        golden.set_input(i, v);
                    }
                    golden.step();
                    assert_eq!(golden.output(0), want, "PlanSim: {op} w{width} s{signed}");
                    for kernel in &mut kernels {
                        for (i, &v) in ins.iter().enumerate() {
                            kernel.set_input(i, v);
                        }
                        kernel.step();
                        assert_eq!(
                            kernel.output(0),
                            want,
                            "{}: {op} width {width} signed {signed} ins {:x?}",
                            kernel.config(),
                            &ins[..arity]
                        );
                    }
                }
            }
        }
    }
}

/// Random layers in which every opcode drawn appears several times (so
/// the per-type groups hold more than one op and the swizzle really
/// regroups), always with a mux chain too wide for the stack beside the
/// fixed-arity groups, feeding registers so later cycles see earlier
/// results.
fn mixed_plan(seed: &mut u64) -> SimPlan {
    let ops = schedulable_ops();
    let mut available: Vec<u32> = (0..INPUTS).collect();
    let mut next_slot = INPUTS;
    let mut layers = Vec::new();
    for _ in 0..1 + mix(seed) % 3 {
        let mut kinds = vec![DfgOp::MuxChain];
        for _ in 0..2 + mix(seed) % 4 {
            kinds.push(ops[mix(seed) as usize % ops.len()]);
        }
        let mut layer = Vec::new();
        for _ in 0..4 + mix(seed) % 12 {
            // Every layer opens with a chain too wide to stage on the stack.
            let wide_chain = layer.is_empty();
            let op = if wide_chain {
                DfgOp::MuxChain
            } else {
                kinds[mix(seed) as usize % kinds.len()]
            };
            let (mut arity, params) = arity_and_params(op, seed);
            if wide_chain {
                arity = 9;
            }
            layer.push(OpInst {
                n: op.n_coord(),
                out: next_slot,
                ins: (0..arity)
                    .map(|_| available[mix(seed) as usize % available.len()])
                    .collect(),
                params,
                width: WIDTHS[mix(seed) as usize % WIDTHS.len()],
                signed: mix(seed).is_multiple_of(2),
            });
            next_slot += 1;
        }
        available.extend(layer.iter().map(|op| op.out));
        layers.push(layer);
    }
    let reg_sources: Vec<u32> = (0..3)
        .map(|_| available[mix(seed) as usize % available.len()])
        .collect();
    let mut plan = plan_of(layers, &reg_sources);
    // Let the first layer read last cycle's register values.
    let first_reg = plan.commits[0].0;
    for (r, op) in plan.layers[0].iter_mut().enumerate() {
        if let Some(operand) = op.ins.first_mut() {
            *operand = first_reg + (r % reg_sources.len()) as u32;
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn mixed_mux_chain_and_fixed_arity_layers_match_plan_sim(seed in any::<u64>()) {
        let mut seed = seed;
        let plan = mixed_plan(&mut seed);
        let mut golden = PlanSim::new(&plan);
        let mut kernels: Vec<Kernel> = all_configs().map(|c| Kernel::compile(&plan, c)).collect();
        for cycle in 0..4 {
            let ins: Vec<u64> = (0..INPUTS).map(|_| mix(&mut seed)).collect();
            for (i, &v) in ins.iter().enumerate() {
                golden.set_input(i, v);
            }
            golden.step();
            for kernel in &mut kernels {
                for (i, &v) in ins.iter().enumerate() {
                    kernel.set_input(i, v);
                }
                kernel.step();
                // Outputs and registers: TI elides stores of forwarded
                // internal values, so those are the architectural state.
                for (idx, (name, _)) in plan.output_slots.iter().enumerate() {
                    prop_assert_eq!(
                        kernel.output(idx), golden.output(idx),
                        "{} cycle {} output {}", kernel.config(), cycle, name
                    );
                }
                for &(reg, _) in &plan.commits {
                    prop_assert_eq!(
                        kernel.slot(reg), golden.slot(reg),
                        "{} cycle {} register slot {}", kernel.config(), cycle, reg
                    );
                }
            }
        }
    }
}

/// One op over the given operand slots, its parameters drawn as
/// [`arity_and_params`] draws them (a chain keeps the operands it is
/// given).
fn inst(op: DfgOp, out: u32, ins: &[u32], width: u8, signed: bool, seed: &mut u64) -> OpInst {
    let (arity, params) = arity_and_params(op, seed);
    let arity = op.arity().map_or(ins.len(), |_| arity);
    OpInst {
        n: op.n_coord(),
        out,
        ins: ins[..arity].to_vec(),
        params,
        width,
        signed,
    }
}

/// Six cycles of `plan` on NU, PSU and IU at both compile analogs — the
/// kernels that walk the occupied-group schedule, none of which elides a
/// store — against `PlanSim`, every slot, every cycle.
fn assert_grouped_kernels_match_slot_for_slot(plan: &SimPlan, what: &str) {
    let mut seed = 0xface_u64;
    let inputs = (0..6)
        .map(|cycle| (0..INPUTS).map(|_| stimulus(cycle, &mut seed)).collect())
        .collect();
    assert_grouped_kernels_match_under(plan, what, inputs);
}

/// [`assert_grouped_kernels_match_slot_for_slot`] with the inputs of
/// every cycle given.
fn assert_grouped_kernels_match_under(plan: &SimPlan, what: &str, inputs: Vec<Vec<u64>>) {
    let mut golden = PlanSim::new(plan);
    let mut kernels: Vec<Kernel> = all_configs()
        .filter(|c| c.kind.is_swizzled())
        .map(|c| Kernel::compile(plan, c))
        .collect();
    assert_eq!(kernels.len(), 6);
    for (cycle, ins) in inputs.into_iter().enumerate() {
        for (i, &v) in ins.iter().enumerate() {
            golden.set_input(i, v);
        }
        golden.step();
        for kernel in &mut kernels {
            for (i, &v) in ins.iter().enumerate() {
                kernel.set_input(i, v);
            }
            kernel.step();
            for s in 0..plan.num_slots as u32 {
                assert_eq!(
                    kernel.slot(s),
                    golden.slot(s),
                    "{what}: {} cycle {cycle} slot {s}",
                    kernel.config()
                );
            }
        }
    }
}

#[test]
fn a_layer_whose_only_op_is_a_mux_chain() {
    // First, middle-free and last: the schedule's chain groups stand
    // alone, the last one closing the `N` rank of the last layer.
    let mut seed = 1;
    let all: Vec<u32> = (0..INPUTS).collect();
    let s = INPUTS;
    let layers = vec![
        vec![inst(DfgOp::MuxChain, s, &all, 33, true, &mut seed)],
        vec![inst(DfgOp::Sub, s + 1, &[s, 0], 64, false, &mut seed)],
        vec![inst(
            DfgOp::MuxChain,
            s + 2,
            &[1, s, 2, s + 1, 3],
            7,
            false,
            &mut seed,
        )],
    ];
    assert_grouped_kernels_match_slot_for_slot(&plan_of(layers, &[s + 2, s]), "chain-only layers");
}

#[test]
fn one_op_groups_down_to_the_last_group_of_the_last_layer() {
    // Every schedulable type once per layer: 37 one-op groups, the second
    // layer reading the first. With two layers the last group is the last
    // type of the last layer (nothing left to scan after it); a third
    // layer of one `sub` leaves 37 empty counts behind the last group.
    let mut seed = 2;
    let ops = schedulable_ops();
    let mut layers: Vec<Vec<OpInst>> = Vec::new();
    let mut next = INPUTS;
    for layer in 0..2 {
        let mut insts = Vec::new();
        for (k, &op) in ops.iter().enumerate() {
            // Operands rotate over the inputs, then over the layer below.
            let base = if layer == 0 { 0 } else { INPUTS };
            let span = if layer == 0 { INPUTS } else { ops.len() as u32 };
            let ins: Vec<u32> = (0..9).map(|o| base + (k as u32 + 3 * o) % span).collect();
            let width = WIDTHS[(k + layer) % WIDTHS.len()];
            insts.push(inst(op, next, &ins, width, k % 2 == 0, &mut seed));
            next += 1;
        }
        layers.push(insts);
    }
    let last = next - 1;
    assert_eq!(layers[1].last().map(OpInst::op), Some(DfgOp::MuxChain));
    assert_grouped_kernels_match_slot_for_slot(
        &plan_of(layers.clone(), &[last, INPUTS]),
        "one-op groups, chain last",
    );
    layers.push(vec![inst(
        DfgOp::Sub,
        next,
        &[last, last - 1],
        64,
        true,
        &mut seed,
    )]);
    assert_grouped_kernels_match_slot_for_slot(
        &plan_of(layers, &[next, last]),
        "one-op groups, sub last",
    );
}

#[test]
fn a_design_with_no_ops_at_all() {
    // Pure wire: registers committed straight from inputs, no layer or
    // one empty layer — an empty schedule either way.
    for layers in [vec![], vec![vec![]]] {
        assert_grouped_kernels_match_slot_for_slot(&plan_of(layers, &[0, 3]), "pure wire");
    }
}

#[test]
fn signed_results_at_every_width_reach_their_readers_sign_extended() {
    let mut seed = 3;
    let producers = [
        DfgOp::Add,
        DfgOp::Sub,
        DfgOp::Mul,
        DfgOp::Dshl,
        DfgOp::Neg,
        DfgOp::Not,
        DfgOp::Mux,
        DfgOp::MuxChain,
    ];
    let mut first = Vec::new();
    let mut next = INPUTS;
    for width in [1, 2, 31, 32, 33, 63, 64] {
        for (k, &op) in producers.iter().enumerate() {
            let ins: Vec<u32> = (0..5).map(|o| (k as u32 + o) % INPUTS).collect();
            first.push(inst(op, next, &ins, width, true, &mut seed));
            next += 1;
        }
    }
    // Readers that tell a sign-extended operand from a masked one.
    let mut second = Vec::new();
    for (k, producer) in first.iter().enumerate() {
        let op = [DfgOp::Lts, DfgOp::Dshr, DfgOp::Ges, DfgOp::Resize][k % 4];
        second.push(inst(
            op,
            next,
            &[producer.out, 0],
            64,
            k % 3 == 0,
            &mut seed,
        ));
        next += 1;
    }
    let plan = plan_of(vec![first, second], &[next - 1, INPUTS]);
    assert_grouped_kernels_match_slot_for_slot(&plan, "signed widths");
}

#[test]
fn a_group_of_signed_and_unsigned_ops_takes_the_general_body() {
    // One layer: per opcode, every width signed and unsigned in one
    // group (a signed op narrower than 64 bits makes it general), beside
    // an all-unsigned group and an all-64-bit signed one (mask-only);
    // then readers that tell a sign-extended operand from a masked one.
    let mut seed = 4;
    let mut first = Vec::new();
    let mut next = INPUTS;
    let mut push = |layer: &mut Vec<OpInst>, op, width, signed, seed: &mut u64| {
        let ins: Vec<u32> = (0..3).map(|o| (next + o) % INPUTS).collect();
        layer.push(inst(op, next, &ins, width, signed, seed));
        next += 1;
    };
    for op in [DfgOp::Add, DfgOp::Neg, DfgOp::Mux, DfgOp::Shr, DfgOp::Bits] {
        for width in WIDTHS {
            for signed in [false, true] {
                push(&mut first, op, width, signed, &mut seed);
            }
        }
    }
    for width in WIDTHS {
        push(&mut first, DfgOp::Sub, width, false, &mut seed);
    }
    for _ in 0..3 {
        push(&mut first, DfgOp::Mul, 64, true, &mut seed);
    }
    let mut second = Vec::new();
    for (k, producer) in first.iter().enumerate() {
        let op = [DfgOp::Lts, DfgOp::Dshr, DfgOp::Ges, DfgOp::Resize][k % 4];
        second.push(inst(
            op,
            next,
            &[producer.out, 0],
            64,
            k % 3 == 0,
            &mut seed,
        ));
        next += 1;
    }
    let plan = plan_of(vec![first, second], &[next - 1, INPUTS]);
    assert_grouped_kernels_match_slot_for_slot(&plan, "mixed signedness");
}

#[test]
fn mux_chains_stop_at_their_first_true_condition() {
    // Chains over the inputs `[c0, v0, c1, v1, c2, v2, c3, v3, default]`
    // and a one-pair `[c0, v0, default]`, at widths 1, 32 and 64, signed
    // and unsigned; unsigned chains share a mask-only layer, signed ones
    // a general one. The cycles make the first, a middle, the last or no
    // condition true, with a condition true only in its sign bit, before
    // random cycles.
    let mut seed = 5;
    let all: Vec<u32> = (0..INPUTS).collect();
    let mut layers = Vec::new();
    let mut next = INPUTS;
    for signed in [false, true] {
        let mut layer = Vec::new();
        for width in [1, 32, 64] {
            for ins in [&all[..], &[0, 1, 8]] {
                layer.push(inst(DfgOp::MuxChain, next, ins, width, signed, &mut seed));
                next += 1;
            }
        }
        layers.push(layer);
    }
    let conditions: [[u64; 4]; 5] = [
        [1, 1, 1, 1],
        [0, 0, 1 << 63, 1],
        [0, 0, 0, 3],
        [0, 0, 0, 0],
        [1 << 63, 0, 0, 0],
    ];
    let mut inputs: Vec<Vec<u64>> = conditions
        .iter()
        .map(|conds| {
            let mut ins: Vec<u64> = (0..INPUTS).map(|_| mix(&mut seed)).collect();
            for (k, &c) in conds.iter().enumerate() {
                ins[2 * k] = c;
            }
            ins
        })
        .collect();
    for _ in 0..3 {
        inputs.push(
            (0..INPUTS)
                .map(|_| mix(&mut seed) & mix(&mut seed))
                .collect(),
        );
    }
    let plan = plan_of(layers, &[next - 1, INPUTS]);
    assert_grouped_kernels_match_under(&plan, "chain priority", inputs);
}
