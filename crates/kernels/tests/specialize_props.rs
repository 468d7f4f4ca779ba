//! Property-based bit-exactness proof for the whole-design
//! specialization tier: for random register networks rich in 1-bit
//! control signals, the specialized engine — with and without
//! bit-packed lanes, flat and RepCut-partitioned {1, 2} — must be
//! bit-identical to the interpreted golden model on every observable
//! slot of every lane of every cycle, across live-window shrinks and
//! DMI-style architectural pokes.

use proptest::prelude::*;
use rteaal_dfg::partition::PartitionedPlan;
use rteaal_dfg::plan::plan;
use rteaal_dfg::{specialize, BatchPlanSim, SimPlan};
use rteaal_firrtl::{lower::lower_typed, parser::parse};
use rteaal_kernels::{BatchKernel, BatchLiState, KernelConfig, KernelKind};

/// splitmix64 — dependent random values derived from one generated seed.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random control-heavy network: wide registers cross-coupled through
/// arithmetic, plus 1-bit flag registers fed by *inline* comparison and
/// boolean expressions — the anonymous 1-bit intermediates those create
/// are exactly what the bit-packing pass hunts for.
fn random_design(seed: u64, regs: usize, flags: usize) -> String {
    let mut s = seed;
    let mut src = String::from(
        "\
circuit S :
  module S :
    input clock : Clock
    input x : UInt<16>
    input en : UInt<1>
    output out : UInt<16>
    output flag : UInt<1>
",
    );
    for i in 0..regs {
        src.push_str(&format!("    reg r{i} : UInt<16>, clock\n"));
    }
    for i in 0..flags {
        src.push_str(&format!("    reg b{i} : UInt<1>, clock\n"));
    }
    for i in 0..regs {
        let a = mix(&mut s) as usize % regs;
        let b = mix(&mut s) as usize % regs;
        match mix(&mut s) % 4 {
            0 => src.push_str(&format!("    r{i} <= xor(r{a}, x)\n")),
            1 => src.push_str(&format!("    r{i} <= and(r{a}, not(r{b}))\n")),
            2 => src.push_str(&format!("    r{i} <= mux(en, or(r{a}, x), r{b})\n")),
            _ => src.push_str(&format!("    r{i} <= tail(add(r{a}, r{b}), 1)\n")),
        }
    }
    for i in 0..flags {
        let a = mix(&mut s) as usize % regs;
        let b = mix(&mut s) as usize % regs;
        let c = mix(&mut s) as usize % flags;
        match mix(&mut s) % 4 {
            0 => src.push_str(&format!("    b{i} <= and(eq(r{a}, r{b}), en)\n")),
            1 => src.push_str(&format!("    b{i} <= or(neq(r{a}, r{b}), b{c})\n")),
            2 => src.push_str(&format!("    b{i} <= xor(lt(r{a}, r{b}), not(b{c}))\n")),
            _ => src.push_str(&format!("    b{i} <= mux(en, geq(r{a}, r{b}), b{c})\n")),
        }
    }
    // Fold everything into the outputs so no register is trivially dead.
    src.push_str("    node f0 = r0\n");
    for i in 1..regs {
        src.push_str(&format!("    node f{i} = xor(f{}, r{i})\n", i - 1));
    }
    src.push_str(&format!("    out <= f{}\n", regs - 1));
    src.push_str("    node g0 = b0\n");
    for i in 1..flags {
        src.push_str(&format!("    node g{i} = xor(g{}, b{i})\n", i - 1));
    }
    src.push_str(&format!("    flag <= g{}\n", flags - 1));
    src
}

fn plan_of(src: &str) -> SimPlan {
    plan(&rteaal_dfg::build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap())
}

/// Strips probes down to inputs and register slots. `plan()` probes
/// every named node, and probed slots are pokeable — so observable —
/// which would leave the specializer nothing to fold, dedup, or pack.
fn anonymized(mut p: SimPlan) -> SimPlan {
    let keep: std::collections::HashSet<u32> = p
        .input_slots
        .iter()
        .copied()
        .chain(p.commits.iter().map(|&(d, _)| d))
        .collect();
    p.probes.retain(|&(_, s, _)| keep.contains(&s));
    p
}

/// Every slot whose value survives specialization with its meaning
/// intact: inputs, probes, outputs, and both ends of register commits.
fn observables(p: &SimPlan) -> Vec<u32> {
    let mut seen = std::collections::HashSet::new();
    p.input_slots
        .iter()
        .copied()
        .chain(p.probes.iter().map(|&(_, s, _)| s))
        .chain(p.output_slots.iter().map(|&(_, s)| s))
        .chain(p.commits.iter().flat_map(|&(d, s)| [d, s]))
        .filter(|&s| seen.insert(s))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn specialized_engines_match_the_interpreted_golden_model(
        seed in any::<u64>(),
        regs in 2usize..10,
        flags in 2usize..8,
        lanes in 1usize..7,
    ) {
        let src = random_design(seed, regs, flags);
        let p = anonymized(plan_of(&src));
        let sp = specialize(&p);
        prop_assert!(sp.stats.ops_after <= sp.stats.ops_before);
        let cfg = KernelConfig::new(KernelKind::Psu);

        // The interpreted walk of the *original* plan is the golden
        // model; observables share slot numbering across the transform.
        let mut golden = BatchPlanSim::interpreted(&p, lanes);
        let obs = observables(&p);

        // Engines under test: specialization off (the plain compiled
        // walk), on without packing, on with packing, and the
        // specialized plan through RepCut partitions {1, 2}.
        let plain_kernel = BatchKernel::compile(&p, cfg);
        let mut plain = BatchLiState::new(&p, lanes);
        let mut spec: Vec<(String, BatchKernel, BatchLiState)> = [false, true]
            .iter()
            .map(|&pack| {
                (
                    format!("spec pack={pack}"),
                    BatchKernel::compile_specialized(&sp, cfg, pack),
                    BatchLiState::new(&sp.plan, lanes),
                )
            })
            .collect();
        for parts in [1usize, 2] {
            let pp = PartitionedPlan::new(&sp.plan, parts);
            spec.push((
                format!("spec parts={parts}"),
                BatchKernel::compile_partitioned(&pp, cfg),
                BatchLiState::new_partitioned(&sp.plan, lanes, &pp),
            ));
        }

        let mut s = seed ^ 0xd1b5_4a32_d192_ed03;
        let (x_slot, en_slot) = (0usize, 1usize);

        // Phase 1: full window, fresh stimulus every cycle.
        for cycle in 0..10u64 {
            for lane in 0..lanes {
                let x = mix(&mut s);
                let en = mix(&mut s) & 1;
                golden.set_input(x_slot, lane, x);
                golden.set_input(en_slot, lane, en);
                plain.set_input(x_slot, lane, x);
                plain.set_input(en_slot, lane, en);
                for (_, _, st) in &mut spec {
                    st.set_input(x_slot, lane, x);
                    st.set_input(en_slot, lane, en);
                }
            }
            golden.step();
            plain_kernel.step(&mut plain);
            for (label, k, st) in &mut spec {
                k.step(st);
                for lane in 0..lanes {
                    for &slot in &obs {
                        prop_assert_eq!(
                            st.slot(slot, lane),
                            golden.slot_lanes(slot)[lane],
                            "{} vs golden: slot {} lane {} cycle {}",
                            label, slot, lane, cycle
                        );
                        prop_assert_eq!(
                            st.slot(slot, lane),
                            plain.slot(slot, lane),
                            "{} vs plain: slot {} lane {} cycle {}",
                            label, slot, lane, cycle
                        );
                    }
                }
            }
        }

        // Phase 2: shrink the live window (halt-compaction's engine
        // face) and poke architectural state mid-flight (the DMI path).
        // The interpreted model has no partial-window mode, so the
        // plain compiled walk is the reference.
        let live = 1 + mix(&mut s) as usize % lanes;
        plain.set_live(live);
        for (_, _, st) in &mut spec {
            st.set_live(live);
        }
        let poke_reg = p.commits[mix(&mut s) as usize % p.commits.len()].0;
        for cycle in 0..10u64 {
            let x = mix(&mut s);
            plain.set_input_live(x_slot, x);
            for (_, _, st) in &mut spec {
                st.set_input_live(x_slot, x);
            }
            if cycle == 4 {
                let v = mix(&mut s) & 0xffff;
                plain.poke_slot(poke_reg, 0, v);
                for (_, _, st) in &mut spec {
                    st.poke_slot(poke_reg, 0, v);
                }
            }
            plain_kernel.step(&mut plain);
            for (label, k, st) in &mut spec {
                k.step(st);
                for lane in 0..lanes {
                    for &slot in &obs {
                        prop_assert_eq!(
                            st.slot(slot, lane),
                            plain.slot(slot, lane),
                            "partial window {}: slot {} lane {} cycle {}",
                            label, slot, lane, cycle
                        );
                    }
                }
            }
        }
    }
}

/// The hold-when-`en = 0` accumulator the gate regressions run on.
const HOLD: &str = "\
circuit S :
  module S :
    input clock : Clock
    input x : UInt<16>
    input en : UInt<1>
    output out : UInt<16>
    reg acc : UInt<16>, clock
    acc <= mux(en, tail(add(acc, x), 1), acc)
    out <= acc
";

/// A 1-bit control network whose packed interior mixes an input-only
/// cone (`t*`) into register-dependent logic (`u*`); `tick` keeps the
/// registers moving, so no batch of it ever settles.
const MIXED: &str = "\
circuit M :
  module M :
    input clock : Clock
    input en : UInt<1>
    input sel : UInt<1>
    output hit : UInt<1>
    reg flag : UInt<1>, clock
    reg tick : UInt<1>, clock
    node t0 = or(en, sel)
    node t1 = xor(t0, sel)
    node t2 = or(t1, en)
    node t3 = and(t2, t0)
    node t4 = xor(t3, t1)
    node t5 = or(t4, t2)
    node u0 = xor(tick, t3)
    node u1 = and(u0, t5)
    node u2 = or(u1, t4)
    node u3 = xor(u2, flag)
    node u4 = mux(u0, u3, t4)
    node u5 = xor(u4, u1)
    node u6 = or(u5, u2)
    node u7 = and(u6, u3)
    node u8 = xor(u7, t5)
    flag <= u8
    tick <= not(tick)
    hit <= flag
";

/// One state, two kernels: a specialized kernel taking over a state a
/// compiled kernel has walked must not depend on rows of a bit-plane
/// matrix it did not fill this cycle (nor the reverse hand-over on
/// anything else).
#[test]
fn kernels_can_hand_a_state_to_each_other() {
    let p = anonymized(plan_of(MIXED));
    let sp = specialize(&p);
    let cfg = KernelConfig::new(KernelKind::Psu);
    let spec = BatchKernel::compile_specialized(&sp, cfg, true);
    let packed = spec.specialized().expect("a packed program");
    assert!(packed.bit_rows() > 0, "the control interior packs");
    let plain = BatchKernel::compile(&sp.plan, cfg);
    let obs = observables(&p);
    const LANES: usize = 4;
    let mut st = BatchLiState::new(&sp.plan, LANES);
    let mut golden = BatchPlanSim::interpreted(&p, LANES);
    // Inputs change only under the compiled kernel: the packed rows the
    // specialized kernel left behind two rounds (and one input value)
    // ago are stale, and every one of its walks must repack them.
    for (round, kernel) in [&plain, &spec, &plain, &spec].into_iter().enumerate() {
        for lane in (0..LANES).filter(|_| round % 2 == 0) {
            for (idx, v) in [(0, (lane + round) as u64 >> 1 & 1), (1, lane as u64 & 1)] {
                st.set_input(idx, lane, v);
                golden.set_input(idx, lane, v);
            }
        }
        kernel.eval_comb(&mut st);
        for cycle in 0..3 {
            kernel.step(&mut st);
            golden.step();
            for lane in 0..LANES {
                for &slot in &obs {
                    assert_eq!(
                        st.slot(slot, lane),
                        golden.slot_lanes(slot)[lane],
                        "slot {slot} lane {lane}, round {round} cycle {cycle}"
                    );
                }
            }
        }
    }
}

/// One engine shape of the gate regressions: a kernel, its state, and
/// the thread count its cycles run across.
struct Shape {
    label: String,
    kernel: BatchKernel,
    st: BatchLiState,
    threads: usize,
}

impl Shape {
    fn step(&mut self) {
        self.kernel.run_parallel(&mut self.st, 1, self.threads);
    }
}

/// {compiled, specialized} × threads {1, 2} × partitions {1, 2} over
/// plan `p` (a specialized kernel is unpartitioned, so its partitioned
/// shapes run the specialized plan through the RepCut walk).
fn gate_shapes(p: &SimPlan, lanes: usize) -> Vec<Shape> {
    let cfg = KernelConfig::new(KernelKind::Psu);
    let sp = specialize(p);
    let mut shapes = Vec::new();
    for (tier, plan) in [("compiled", p), ("specialized", &sp.plan)] {
        for threads in [1usize, 2] {
            for parts in [1usize, 2] {
                let (kernel, st) = match (tier, parts) {
                    ("specialized", 1) => (
                        BatchKernel::compile_specialized(&sp, cfg, true),
                        BatchLiState::new(plan, lanes),
                    ),
                    (_, 1) => (
                        BatchKernel::compile(plan, cfg),
                        BatchLiState::new(plan, lanes),
                    ),
                    _ => {
                        let pp = PartitionedPlan::new(plan, parts);
                        (
                            BatchKernel::compile_partitioned(&pp, cfg),
                            BatchLiState::new_partitioned(plan, lanes, &pp),
                        )
                    }
                };
                shapes.push(Shape {
                    label: format!("{tier} threads={threads} parts={parts}"),
                    kernel,
                    st,
                    threads,
                });
            }
        }
    }
    shapes
}

/// Asserts every observable of every lane matches the golden model.
fn assert_matches_golden(shape: &Shape, golden: &BatchPlanSim, obs: &[u32], when: &str) {
    for lane in 0..shape.st.lanes() {
        for &slot in obs {
            assert_eq!(
                shape.st.slot(slot, lane),
                golden.slot_lanes(slot)[lane],
                "{}: slot {slot} lane {lane} {when}",
                shape.label
            );
        }
    }
}

/// An ungated reference for [`HOLD`] that shares nothing with the
/// batched cycle loop: one slot image per lane, stepped by the design's
/// two equations, with the lane-axis events the golden model has no API
/// for (pokes, the live window, swaps, per-lane reset) as plain field
/// edits. Cross-checked against the golden model before it is relied on.
struct HoldModel {
    /// Slots: the inputs, the register, its commit source, the output.
    x: usize,
    en: usize,
    acc: usize,
    next: usize,
    out: usize,
    init: Vec<u64>,
    lanes: Vec<Vec<u64>>,
    live: usize,
}

impl HoldModel {
    fn new(p: &SimPlan, lanes: usize) -> Self {
        let fresh = BatchPlanSim::interpreted(p, 1);
        let init: Vec<u64> = (0..p.num_slots as u32).map(|s| fresh.slot(s, 0)).collect();
        let (acc, next) = p.commits[0];
        HoldModel {
            x: p.input_slots[0] as usize,
            en: p.input_slots[1] as usize,
            acc: acc as usize,
            next: next as usize,
            out: p.output_slots[0].1 as usize,
            lanes: vec![init.clone(); lanes],
            init,
            live: lanes,
        }
    }

    /// One cycle on the live lanes: wires from the pre-commit register,
    /// then the commit.
    fn step(&mut self) {
        for v in &mut self.lanes[..self.live] {
            let next = if v[self.en] == 1 {
                (v[self.acc] + v[self.x]) & 0xffff
            } else {
                v[self.acc]
            };
            v[self.next] = next;
            v[self.out] = v[self.acc];
            v[self.acc] = next;
        }
    }

    /// Asserts every observable of every lane (frozen ones included).
    fn assert_matches(&self, shape: &Shape, obs: &[u32], when: &str) {
        for (lane, v) in self.lanes.iter().enumerate() {
            for &slot in obs {
                assert_eq!(
                    shape.st.slot(slot, lane),
                    v[slot as usize],
                    "{}: slot {slot} lane {lane} {when}",
                    shape.label
                );
            }
        }
    }
}

/// Gate soundness: `set_input → eval_comb → step` on a settled batch
/// must run the cycle. `eval_comb` re-evaluates the wires without
/// committing, so it may not leave the settled gate armed against an
/// input it has just absorbed — the enable-counter reads `out = 1`
/// after the sequence, not the `0` a skipped cycle leaves behind.
#[test]
fn eval_comb_after_an_input_change_does_not_skip_the_cycle() {
    let p = anonymized(plan_of(HOLD));
    let obs = observables(&p);
    const LANES: usize = 4;
    for mut shape in gate_shapes(&p, LANES) {
        let mut golden = BatchPlanSim::interpreted(&p, LANES);
        let drive = |shape: &mut Shape, golden: &mut BatchPlanSim, x: u64, en: u64| {
            for lane in 0..LANES {
                for (idx, v) in [(0usize, x), (1, en)] {
                    shape.st.set_input(idx, lane, v);
                    golden.set_input(idx, lane, v);
                }
            }
        };
        // Settle: en = 0 holds the accumulator.
        drive(&mut shape, &mut golden, 1, 0);
        for _ in 0..3 {
            shape.step();
            golden.step();
        }
        // Enable, refresh the wires, step: the golden model (which has
        // no `eval_comb` and no gate) sees the same cycle.
        drive(&mut shape, &mut golden, 1, 1);
        shape.kernel.eval_comb(&mut shape.st);
        shape.step();
        golden.step();
        assert_matches_golden(&shape, &golden, &obs, "after set_input/eval_comb/step");
        assert_eq!(shape.st.cycle(), golden.cycle(), "{}", shape.label);
        // Refresh again: `out` now shows the accumulator the cycle moved.
        shape.kernel.eval_comb(&mut shape.st);
        for lane in 0..LANES {
            let out = shape.st.output(0, lane);
            assert_eq!(out, 1, "{}: lane {lane} ran the cycle", shape.label);
        }
    }
}

/// Deterministic regression for the settled-batch gate, over every
/// engine shape: a design whose registers freeze when `en` drops must
/// arm the whole-cycle skip (a threaded run that reaches the fixed point
/// included), stay bit-exact against the golden model that keeps walking
/// (and keep its cycle counter advancing), disarm on every kind of
/// external event, and re-arm at the next fixed point.
#[test]
fn activity_skip_settles_and_stays_bit_exact() {
    let p = anonymized(plan_of(HOLD));
    let obs = observables(&p);
    const LANES: usize = 4;
    let acc = p.commits[0].0;
    for mut shape in gate_shapes(&p, LANES) {
        let label = shape.label.clone();
        let mut golden = BatchPlanSim::interpreted(&p, LANES);
        let mut model = HoldModel::new(&p, LANES);
        let drive = |shape: &mut Shape, golden: &mut BatchPlanSim, x: u64, en: u64| {
            for lane in 0..LANES {
                for (idx, v) in [(0usize, x), (1, en)] {
                    shape.st.set_input(idx, lane, v);
                    golden.set_input(idx, lane, v);
                }
            }
        };
        // The hand model runs the same stimulus alongside; the golden
        // model vouches for it before the events only it can mirror.
        for (x, en, cycles) in [(7, 1, 5), (7, 0, 1 + 8 + 5)] {
            for v in &mut model.lanes {
                (v[model.x], v[model.en]) = (x, en);
            }
            (0..cycles).for_each(|_| model.step());
        }

        // Accumulating phase: registers toggle every cycle, no settling.
        drive(&mut shape, &mut golden, 7, 1);
        for _ in 0..5 {
            shape.step();
            golden.step();
        }
        assert!(
            !shape.st.settled(),
            "{label}: toggling registers must not settle"
        );

        // Freeze: one tracked commit sees no change and arms the gate;
        // the skipped cycles stay bit-exact while the golden model keeps
        // walking, and the clock keeps counting.
        drive(&mut shape, &mut golden, 7, 0);
        shape.step();
        golden.step();
        assert!(shape.st.settled(), "{label}: frozen registers arm the gate");
        for cycle in 0..8u64 {
            shape.step();
            golden.step();
            assert!(
                shape.st.settled(),
                "{label}: no external event, still armed"
            );
            assert_matches_golden(&shape, &golden, &obs, &format!("skip-cycle {cycle}"));
        }
        assert_eq!(
            shape.st.cycle(),
            golden.cycle(),
            "{label}: skipped cycles count"
        );

        // A multi-cycle run skips inside the loop just the same.
        shape.kernel.run_parallel(&mut shape.st, 5, shape.threads);
        for _ in 0..5 {
            golden.step();
        }
        assert_matches_golden(&shape, &golden, &obs, "after a settled run");
        assert_eq!(
            shape.st.cycle(),
            golden.cycle(),
            "{label}: skipped cycles count"
        );

        model.assert_matches(&shape, &obs, "hand model vs golden-checked state");

        // Every external event disarms the gate, and the re-walk must
        // propagate what the event changed: four cycles against the hand
        // model, every observable of every lane. With `en = 0` the first
        // commit finds the fixed point again and re-arms the gate.
        let rewalk = |shape: &mut Shape, model: &mut HoldModel, what: &str| {
            assert!(!shape.st.settled(), "{label}: {what} disarms the gate");
            for cycle in 0..4 {
                shape.step();
                model.step();
                assert!(shape.st.settled(), "{label}: re-armed after {what}");
                model.assert_matches(shape, &obs, &format!("{what}, cycle {cycle}"));
            }
        };
        shape.st.poke_slot(acc, 2, 99);
        model.lanes[2][model.acc] = 99;
        rewalk(&mut shape, &mut model, "poke_slot");
        assert_eq!(shape.st.output(0, 2), 99, "{label}: the poke reached `out`");
        shape.st.set_live(3);
        model.live = 3;
        rewalk(&mut shape, &mut model, "set_live");
        shape.st.swap_lanes(0, 2);
        model.lanes.swap(0, 2);
        rewalk(&mut shape, &mut model, "swap_lanes");
        shape.st.reset_lane(1);
        model.lanes[1] = model.init.clone();
        rewalk(&mut shape, &mut model, "reset_lane");
        // A stimulus write lands before its cycle's gate check: enabling
        // lane 0 must run that cycle and the ones after (`acc += 7`), not
        // skip them.
        let (threads, at) = (shape.threads, shape.st.cycle() + 1);
        shape
            .kernel
            .run_with_stimulus(&mut shape.st, 3, threads, |cycle, poker| {
                if cycle == at {
                    poker.set_input(1, 0, 1)
                }
            });
        model.step();
        model.lanes[0][model.en] = 1;
        model.step();
        model.step();
        model.assert_matches(&shape, &obs, "after a LanePoker write");
        assert_eq!(shape.st.slot(acc, 0), 99 + 2 * 7, "{label}: lane 0 moved");
        assert!(
            !shape.st.settled(),
            "{label}: a moving register is not settled"
        );
    }
}
