//! Batched-vs-sequential equivalence: a `B`-lane [`BatchSimulation`]
//! must match `B` independent [`Simulation`] runs bit-for-bit, on the
//! real evaluation designs (the RV32I core and the SHA3 datapath), at
//! every lane count and in both lane types, under per-lane divergent
//! stimulus, halt compaction and mid-run DMI pokes: one differential
//! oracle, [`assert_bit_exact`], that every row goes through — and that
//! asserts the lane type (`u32` or `u64` rows) the engine picked for the
//! design, so an engine that silently always ran `u64` rows would fail
//! here. Plus the compiled-vs-interpreted engine differential — on the
//! core, SHA3, the benchmark's chip and 64 generated circuits too — and
//! the kernel-level one for the two axes the front door does not have:
//! worker threads and the RepCut decomposition
//! ([`assert_kernel_shapes_match_the_serial_walk`]).

// Only the generator's circuits are used here, not its respelling.
#[allow(dead_code)]
#[path = "../crates/firrtl/tests/gen/mod.rs"]
mod gen;

use rteaal_core::{BatchSimulation, Compiler, DebugModule, Simulation};
use rteaal_designs::rv32i::{asm::*, rv32i};
use rteaal_designs::{rocket, sha3, ChipConfig, Stimulus, Workload};
use rteaal_dfg::lane_kernel::{BatchEngine, LaneLayout, LaneType};
use rteaal_dfg::partition::PartitionedPlan;
use rteaal_dfg::specialize::specialize;
use rteaal_dfg::{BatchPlanSim, SimPlan};
use rteaal_firrtl::Circuit;
use rteaal_kernels::{BatchKernel, BatchLiState, KernelConfig, KernelKind};

/// A design under differential test: the circuit, the scalar kernel kind
/// it compiles under, the halt signal to watch (if any), and the lane
/// type its plan must run in.
struct Design {
    circuit: Circuit,
    kind: KernelKind,
    halt: Option<&'static str>,
    lane: LaneType,
}

/// Per-lane stimulus for `cycles` cycles: `drive(lane, cycle, input)`
/// yields each input value, `poke_state` the DMI writes `(cycle, signal,
/// lane, value)` made on the way.
struct Stim<'a> {
    cycles: u64,
    drive: &'a mut dyn FnMut(usize, u64, &str) -> u64,
    poke_state: &'a [(u64, &'static str, usize, u64)],
}

/// Independent per-lane random streams (reset toggles randomly too, so
/// the lanes genuinely diverge).
fn random(seed: u64, lanes: usize) -> impl FnMut(usize, u64, &str) -> u64 {
    let mut streams: Vec<Stimulus> = (0..lanes)
        .map(|lane| Stimulus::from_seed(seed ^ (lane as u64) << 20))
        .collect();
    move |lane, _, _| streams[lane].next_value()
}

/// The probe name of each input port, in port order.
fn input_names(plan: &SimPlan) -> Vec<&str> {
    let name_of = |slot| plan.probes.iter().find(|p| p.1 == slot);
    plan.input_slots
        .iter()
        .map(|&slot| name_of(slot).expect("every input is probed").0.as_str())
        .collect()
}

/// The differential oracle: drives a `lanes`-wide batch simulation and
/// `lanes` scalar simulations with the same per-lane stimulus and asserts
/// every probed signal is bit-identical on every lane after every
/// cycle. With a halt signal the batch compacts halted
/// lanes out of its window; each scalar run stops at its own halt, and
/// the completion cycles must agree. The engine must have picked
/// `design.lane` rows by itself. Returns the batch for further
/// (architectural) checks.
fn assert_bit_exact(design: &Design, stim: Stim<'_>, lanes: usize) -> BatchSimulation {
    assert_bit_exact_in(design, stim, lanes, None)
}

/// [`assert_bit_exact`], with the engine built in `lane` rows through
/// the test witness when given (`LaneType::supported_for`).
fn assert_bit_exact_in(
    design: &Design,
    stim: Stim<'_>,
    lanes: usize,
    lane: Option<LaneType>,
) -> BatchSimulation {
    let kind = design.kind;
    let compiled = Compiler::new(KernelConfig::new(kind))
        .compile(&design.circuit)
        .expect("compiles");
    let plan = &compiled.plan;
    let inputs = input_names(plan);
    // TI elides stores of forwarded intermediate nodes, so the *scalar*
    // TI kernel leaves those LI slots stale (observability traded for
    // speed, as in the paper); compare the architectural surface —
    // outputs, registers, inputs — for TI and every probe otherwise.
    let architectural: Vec<u32> = plan
        .output_slots
        .iter()
        .map(|&(_, s)| s)
        .chain(plan.commits.iter().map(|&(dst, _)| dst))
        .chain(plan.input_slots.iter().copied())
        .collect();
    let signals: Vec<&String> = plan
        .probes
        .iter()
        .filter(|(_, s, _)| kind != KernelKind::Ti || architectural.contains(s))
        .map(|(n, _, _)| n)
        .collect();

    let mut batch = match lane {
        None => BatchSimulation::new(&compiled, lanes),
        Some(lane) => BatchSimulation::new_in(&compiled, lanes, lane),
    };
    assert_eq!(
        batch.lane_type(),
        lane.unwrap_or(design.lane),
        "{} at {lanes} lanes runs in the wrong rows",
        plan.name
    );
    if let Some(halt) = design.halt {
        batch.watch_halt(halt).expect("halt signal resolves");
    }
    let mut singles: Vec<Simulation> = (0..lanes)
        .map(|_| Simulation::new(compiled.clone()))
        .collect();
    let mut halted = vec![false; lanes];

    for cycle in 0..stim.cycles {
        for &(_, name, lane, value) in stim.poke_state.iter().filter(|p| p.0 == cycle) {
            batch.poke_state(name, lane, value).expect("probed");
            DebugModule::new(&mut singles[lane])
                .poke_reg(name, value)
                .expect("probed");
        }
        for (lane, single) in singles.iter_mut().enumerate() {
            if halted[lane] {
                continue;
            }
            for name in &inputs {
                let v = (stim.drive)(lane, cycle, name);
                batch.poke(name, lane, v).unwrap();
                single.poke(name, v).unwrap();
            }
        }
        batch.step();
        for (lane, single) in singles.iter_mut().enumerate() {
            if !halted[lane] {
                single.step();
                halted[lane] = design.halt.is_some_and(|h| single.peek(h) == Some(1));
            }
            let ctx = format!("{kind:?} lane {lane} of {lanes} @ cycle {cycle}");
            assert_eq!(
                batch.completion_cycle(lane).is_some(),
                halted[lane],
                "halt {ctx}"
            );
            if halted[lane] {
                assert_eq!(
                    batch.completion_cycle(lane),
                    Some(single.cycle()),
                    "halt cycle {ctx}"
                );
            }
            for name in &signals {
                assert_eq!(
                    batch.peek(name, lane),
                    single.peek(name),
                    "signal `{name}` {ctx}"
                );
            }
        }
        if halted.iter().all(|&h| h) {
            break;
        }
    }
    if design.halt.is_none() {
        assert_eq!(batch.cycle(), stim.cycles);
    }
    batch
}

/// The random-stimulus row shape the per-design tests below share.
fn assert_batch_matches_sequential(
    (circuit, lane): (Circuit, LaneType),
    kind: KernelKind,
    lanes: usize,
    cycles: u64,
    seed: u64,
) {
    let design = Design {
        circuit,
        kind,
        halt: None,
        lane,
    };
    let stim = Stim {
        cycles,
        drive: &mut random(seed, lanes),
        poke_state: &[],
    };
    assert_bit_exact(&design, stim, lanes);
}

/// The two evaluation designs with the rows each must run in: the core
/// is a 32-bit machine, Keccak lanes are 64 bits wide.
fn rv32i_narrow() -> (Circuit, LaneType) {
    (rv32i_circuit(), LaneType::Narrow)
}

fn sha3_wide() -> (Circuit, LaneType) {
    (sha3(), LaneType::Wide)
}

/// The RV32I test program: sum 1..=20 into a0, then halt.
fn rv32i_circuit() -> Circuit {
    let program = vec![
        addi(1, 0, 0),
        addi(2, 0, 20),
        add(1, 1, 2),
        addi(2, 2, -1),
        bne(2, 0, -2),
        add(10, 1, 0),
        jal(0, 6),
    ];
    rv32i(&program)
}

#[test]
fn rv32i_batch_matches_sequential() {
    // Random reset toggling makes the lanes genuinely diverge.
    assert_batch_matches_sequential(rv32i_narrow(), KernelKind::Psu, 4, 120, 0xb001);
}

#[test]
fn rv32i_batch_matches_sequential_single_thread() {
    assert_batch_matches_sequential(rv32i_narrow(), KernelKind::Ti, 3, 120, 0xb002);
}

#[test]
fn sha3_batch_matches_sequential() {
    assert_batch_matches_sequential(sha3_wide(), KernelKind::Psu, 4, 60, 0xb003);
}

#[test]
fn sha3_batch_matches_sequential_swizzled_vs_plain() {
    // Both traversal orders of the batch engine against the scalar path.
    assert_batch_matches_sequential(sha3_wide(), KernelKind::Ru, 2, 40, 0xb004);
    assert_batch_matches_sequential(sha3_wide(), KernelKind::Iu, 2, 40, 0xb005);
}

/// Runs the compiled batch kernel and the interpreted golden model of
/// one design side by side under identical per-lane random stimulus and
/// asserts the *entire* `LI` state matches slot-for-slot every cycle.
fn assert_compiled_matches_interpreted(plan: &SimPlan, lanes: usize, cycles: u64, seed: u64) {
    let kernel = BatchKernel::compile(plan, KernelConfig::new(KernelKind::Psu));
    let mut compiled = BatchLiState::new(plan, lanes);
    let mut interpreted = BatchPlanSim::interpreted(plan, lanes);
    let mut streams: Vec<Stimulus> = (0..lanes)
        .map(|lane| Stimulus::from_seed(seed ^ (lane as u64) << 24))
        .collect();
    for cycle in 0..cycles {
        for (lane, stream) in streams.iter_mut().enumerate() {
            for idx in 0..plan.input_slots.len() {
                let v = stream.next_value();
                compiled.set_input(idx, lane, v);
                interpreted.set_input(idx, lane, v);
            }
        }
        kernel.step(&mut compiled);
        interpreted.step();
        for s in 0..plan.num_slots as u32 {
            for lane in 0..lanes {
                assert_eq!(
                    compiled.slot(s, lane),
                    interpreted.slot(s, lane),
                    "{} slot {s} lane {lane} @ cycle {cycle}",
                    plan.name
                );
            }
        }
    }
}

fn plan_of(circuit: &Circuit) -> SimPlan {
    rteaal_dfg::plan::plan(
        &rteaal_dfg::build(&rteaal_firrtl::lower::lower_typed(circuit).unwrap()).unwrap(),
    )
}

/// The plan `Compiler::compile` builds: the default passes first.
fn optimized_plan_of(circuit: &Circuit) -> SimPlan {
    let compiler = Compiler::new(KernelConfig::new(KernelKind::Psu));
    compiler.compile(circuit).expect("compiles").plan
}

#[test]
fn rv32i_compiled_kernels_match_interpreted_walk() {
    // Unoptimized, the core still has its 33-bit sums and runs in `u64`
    // rows; optimized, it is all 32-bit and the compiled side runs in
    // `u32` rows — against the same 64-bit interpreted walk, slot by slot.
    let (raw, optimized) = (
        plan_of(&rv32i_circuit()),
        optimized_plan_of(&rv32i_circuit()),
    );
    assert_eq!(LaneType::of(&raw), LaneType::Wide);
    assert_eq!(LaneType::of(&optimized), LaneType::Narrow);
    assert_compiled_matches_interpreted(&raw, 5, 150, 0xc001);
    assert_compiled_matches_interpreted(&optimized, 5, 150, 0xc001);
}

#[test]
fn sha3_compiled_kernels_match_interpreted_walk() {
    assert_compiled_matches_interpreted(&plan_of(&sha3()), 3, 60, 0xc002);
}

#[test]
fn the_one_thread_walk_is_bit_exact_on_the_corpus() {
    // Each plan as `Compiler::compile` builds it, the numbering the front
    // door runs: the core, SHA3, the benchmark's chip at half scale and
    // 64 generated circuits, at 3 lanes (the any-window entry) and at 8
    // (the whole-chunk entry).
    let compiler = Compiler::new(KernelConfig::new(KernelKind::Psu));
    let designs = [
        Workload::param_sum_circuit(),
        sha3(),
        rocket(ChipConfig::new(4).with_scale(0.5)),
    ];
    let generated = (0..64).map(gen::random_circuit);
    for (k, circuit) in designs.into_iter().chain(generated).enumerate() {
        let plan = compiler.compile(&circuit).expect("compiles").plan;
        let cycles = if plan.total_ops() > 5_000 { 12 } else { 40 };
        for lanes in [3, 8] {
            assert_compiled_matches_interpreted(&plan, lanes, cycles, k as u64);
        }
    }
}

#[test]
fn a_window_shrinking_from_64_lanes_to_1_matches_the_interpreted_walk() {
    // The front door's window passes through whole chunks (64, 40, 8) and
    // ragged ones (5, 1), so the walk runs each op's whole-chunk kernel
    // and then its any-window one: every live lane matches the
    // interpreted walk every cycle, and every retired lane keeps what it
    // held when it left the window. Random reset toggling keeps the
    // lanes apart and keeps any of them from reaching its halt.
    const LANES: usize = 64;
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&rv32i_circuit())
        .expect("compiles");
    let plan = &compiled.plan;
    let mut batch = BatchSimulation::new(&compiled, LANES);
    assert_eq!(batch.lane_type(), LaneType::Narrow);
    batch.watch_halt("halt").expect("halt signal resolves");
    let mut golden = BatchPlanSim::interpreted(plan, LANES);
    let inputs = input_names(plan);
    let mut drive = random(0xc0de, LANES);
    // Lanes leave in a scattered order, so compaction moves columns.
    let leaving: Vec<usize> = (0..LANES).map(|k| k * 37 % LANES).collect();
    let mut frozen: Vec<Option<Vec<Option<u64>>>> = vec![None; LANES];
    let mut cycle = 0;
    for live in [64, 40, 8, 5, 1] {
        for &lane in &leaving[..LANES - live] {
            if frozen[lane].is_none() {
                frozen[lane] = Some(plan.probes.iter().map(|p| batch.peek(&p.0, lane)).collect());
                batch.retire_lane(lane);
            }
        }
        for _ in 0..12 {
            for lane in (0..LANES).filter(|&lane| frozen[lane].is_none()) {
                for (idx, name) in inputs.iter().enumerate() {
                    let v = drive(lane, cycle, name);
                    batch.poke(name, lane, v).expect("an input");
                    golden.set_input(idx, lane, v);
                }
            }
            batch.step();
            golden.step();
            assert_eq!(batch.live_lanes(), live, "no lane halted @ cycle {cycle}");
            for (lane, frozen) in frozen.iter().enumerate() {
                for (k, (name, slot, _)) in plan.probes.iter().enumerate() {
                    let want = match frozen {
                        Some(held) => held[k],
                        None => Some(golden.slot(*slot, lane)),
                    };
                    let at = format!("`{name}` lane {lane} @ cycle {cycle}, {live} live");
                    assert_eq!(batch.peek(name, lane), want, "{at}");
                }
            }
            cycle += 1;
        }
    }
}

/// The halting RV32I workload under a *different* reset-release cycle
/// per lane, so the lanes halt at different cycles and the batch
/// compacts them out one by one.
fn staggered_reset(lane: usize, cycle: u64, _input: &str) -> u64 {
    u64::from(cycle < lane as u64 + 2)
}

fn halting_rv32i() -> Design {
    let workload = Workload::rv32i_sum_loop();
    Design {
        circuit: workload.circuit,
        kind: KernelKind::Psu,
        halt: workload.halt_signal,
        lane: LaneType::Narrow,
    }
}

#[test]
fn rv32i_early_exit_matches_scalar_runs() {
    // Lane-liveness early exit: per-lane halt cycles and every signal,
    // frozen at the halt cycle, must match dedicated scalar runs with
    // the same reset schedule — and the program's result must be right.
    const LANES: usize = 4;
    let stim = Stim {
        cycles: 400,
        drive: &mut staggered_reset,
        poke_state: &[],
    };
    let batch = assert_bit_exact(&halting_rv32i(), stim, LANES);
    assert_eq!(batch.live_lanes(), 0, "every lane halts within the budget");
    for lane in 0..LANES {
        assert!(batch.halted(lane));
        assert_eq!(batch.peek("a0", lane), Some(210), "lane {lane} result");
    }
}

#[test]
fn rv32i_halting_at_19_lanes_runs_chunked_kernels_and_ragged_tails() {
    // The rows above run 3-5 lanes, below any chunk of the lane kernels:
    // 19 lanes is whole chunks plus a ragged tail, and a different loop
    // bound per lane (`x15`, in no lane order) halts the lanes one by
    // one, so the compacted window passes through every length from 19
    // down — chunk multiples and ragged ones — on the default engine, in
    // the `u32` rows it picks for the core and in `u64` ones.
    const LANES: usize = 19;
    let workload = Workload::rv32i_param_sum(1);
    let design = Design {
        circuit: workload.circuit,
        kind: KernelKind::Psu,
        halt: workload.halt_signal,
        lane: LaneType::Narrow,
    };
    let bound = |lane: usize| 1 + (lane as u64 * 7) % LANES as u64;
    let pokes: Vec<_> = (0..LANES)
        .map(|lane| (0, "x15", lane, bound(lane)))
        .collect();
    for lane_type in [None, Some(LaneType::Wide)] {
        let stim = Stim {
            cycles: 100,
            drive: &mut |_, cycle, _| u64::from(cycle < 2),
            poke_state: &pokes,
        };
        let batch = assert_bit_exact_in(&design, stim, LANES, lane_type);
        assert_eq!(batch.live_lanes(), 0, "every lane halts within the budget");
        for lane in 0..LANES {
            let sum = Workload::param_sum_expected(bound(lane));
            assert_eq!(batch.peek("a0", lane), Some(sum), "lane {lane} result");
        }
    }
}

/// The halting core plus one live 33-bit counter on an output of its
/// own: a single signal past 32 bits.
fn rv32i_with_a_33_bit_counter() -> Circuit {
    let text = rteaal_firrtl::parser::emit(&Workload::rv32i_sum_loop().circuit);
    let port = "    output halt : UInt<1>\n";
    assert_eq!(text.matches(port).count(), 1, "the core's port list moved");
    let text = text.replace(port, &format!("{port}    output ticks : UInt<33>\n"));
    let counter = "    reg tick : UInt<33>, clock
    tick <= tail(add(tick, UInt<33>(1)), 1)
    ticks <= tick
";
    rteaal_firrtl::parser::parse(&format!("{text}{counter}")).expect("parses")
}

#[test]
fn one_33_bit_signal_keeps_the_whole_core_on_u64_rows_bit_exact() {
    // The fallback is per plan, not per slot: the counter alone moves
    // every row of the core to `u64`, which is the engine every design
    // ran on before narrow rows — bit-exact, halting, same result.
    const LANES: usize = 4;
    let design = Design {
        circuit: rv32i_with_a_33_bit_counter(),
        kind: KernelKind::Psu,
        halt: Some("halt"),
        lane: LaneType::Wide,
    };
    let compiled = Compiler::new(KernelConfig::new(design.kind))
        .compile(&design.circuit)
        .expect("compiles");
    let why = LaneLayout::of(&compiled.plan).why_wide().map(str::to_owned);
    assert!(
        why.as_deref().is_some_and(|w| w.contains("33 bits wide")),
        "the counter is the reason: {why:?}"
    );
    let stim = Stim {
        cycles: 400,
        drive: &mut staggered_reset,
        poke_state: &[(30, "x1", 1, 1000)],
    };
    let batch = assert_bit_exact(&design, stim, LANES);
    assert_eq!(batch.live_lanes(), 0, "every lane halts within the budget");
}

#[test]
fn rv32i_batch_runs_the_program_on_every_lane() {
    // Functional check on top of the bit-level one: every lane of a
    // free-running batch executes the program to the architectural
    // result (a0 = sum(1..=20) = 210).
    let design = Design {
        circuit: rv32i_circuit(),
        kind: KernelKind::Psu,
        halt: None,
        lane: LaneType::Narrow,
    };
    let stim = Stim {
        cycles: 202,
        drive: &mut |_, cycle, _| u64::from(cycle < 2),
        poke_state: &[],
    };
    let batch = assert_bit_exact(&design, stim, 5);
    for lane in 0..5 {
        assert_eq!(batch.peek("halt", lane), Some(1), "lane {lane} halted");
        assert_eq!(batch.peek("a0", lane), Some(210), "lane {lane} result");
    }
}

/// The kernel-level companion of the front-door rows, for the two axes
/// only `BatchKernel` has: the RepCut decomposition at two partitions
/// (one replica of `LI` each) walked by one worker and by two, and the
/// flat kernel with each layer split across two workers, against the
/// flat serial walk — every slot of every lane after every cycle, frozen
/// columns included, in rows of `lane`. On the way every state makes
/// the lane-axis moves the front door makes for a served run, by hand:
/// at cycle 12 column 1 is swapped behind the live window and the window
/// shrinks over it (a halt), at cycle 22 the window grows back and the
/// column restarts from power-on (a recycled lane), and `stim.poke_state`
/// are DMI writes of canonical values into *columns*.
fn assert_kernel_shapes_match_the_serial_walk(
    plan: &SimPlan,
    lane: LaneType,
    lanes: usize,
    stim: Stim<'_>,
) {
    const FREEZE_AT: u64 = 12;
    const REVIVE_AT: u64 = 22;
    let cfg = KernelConfig::new(KernelKind::Psu);
    let layout = &LaneLayout::of_as(plan, lane);
    let mut pp = PartitionedPlan::new(plan, 2);
    pp.lanes = layout.clone();
    let flat = || {
        (
            BatchKernel::compile_in(plan, cfg, BatchEngine::Compiled, layout),
            BatchLiState::new_in(plan, lanes, layout),
        )
    };
    let parted = || {
        (
            BatchKernel::compile_partitioned(&pp, cfg),
            BatchLiState::new_partitioned(plan, lanes, &pp),
        )
    };
    // (what, threads, (kernel, state)); the serial flat walk leads.
    let mut shapes = [
        ("flat, 1 thread", 1, flat()),
        ("flat, 2 threads", 2, flat()),
        ("2 partitions, 1 thread", 1, parted()),
        ("2 partitions, 2 threads", 2, parted()),
    ];
    let inputs = input_names(plan);
    let num_inputs = inputs.len();
    for cycle in 0..stim.cycles {
        for (_, _, (_, st)) in &mut shapes {
            let live = st.live();
            if cycle == FREEZE_AT {
                st.swap_lanes(1, live - 1);
                st.set_live(live - 1);
            }
            if cycle == REVIVE_AT {
                st.set_live(live + 1);
                st.reset_lane(live);
            }
            for &(_, signal, column, value) in stim.poke_state.iter().filter(|p| p.0 == cycle) {
                st.poke_slot(plan.signal_slot(signal).expect("probed"), column, value);
            }
        }
        let live = shapes[0].2 .1.live();
        let values: Vec<u64> = (0..live * num_inputs)
            .map(|at| (stim.drive)(at / num_inputs, cycle, inputs[at % num_inputs]))
            .collect();
        for (_, threads, (kernel, st)) in &mut shapes {
            kernel.run_with_stimulus(st, 1, *threads, |_, poker| {
                for (at, &v) in values.iter().enumerate() {
                    poker.set_input(at % num_inputs, at / num_inputs, v);
                }
            });
        }
        let [(_, _, (_, serial)), others @ ..] = &shapes;
        for (what, _, (_, st)) in others {
            for slot in 0..plan.num_slots as u32 {
                for lane in 0..lanes {
                    assert_eq!(
                        st.slot(slot, lane),
                        serial.slot(slot, lane),
                        "{}, {what}: slot {slot} lane {lane} @ cycle {cycle}",
                        plan.name
                    );
                }
            }
        }
    }
}

#[test]
fn every_engine_shape_is_bit_exact_on_rv32i_and_sha3() {
    // The tier-1 sweep, on the halting core (halt compaction, a DMI write
    // into the accumulator mid-loop; `u32` rows, and `u64` ones through
    // the witness) and on the free-running SHA3 datapath (random
    // stimulus, a DMI write into the Keccak state; `u64` rows): the front
    // door against scalar runs, then the threaded and the RepCut kernels
    // against the serial walk on the same designs, stimulus and writes.
    const LANES: usize = 4;
    let rv32i = halting_rv32i();
    let sha3 = Design {
        circuit: sha3(),
        kind: KernelKind::Psu,
        halt: None,
        lane: LaneType::Wide,
    };
    let core_pokes = [(30, "x1", 1, 1000)];
    let sha3_pokes = [(17, "s_1_2", 2, 0x0123_4567_89ab_cdef)];
    let core = optimized_plan_of(&rv32i.circuit);
    for lane_type in [None, Some(LaneType::Wide)] {
        let stim = Stim {
            cycles: 400,
            drive: &mut staggered_reset,
            poke_state: &core_pokes,
        };
        let batch = assert_bit_exact_in(&rv32i, stim, LANES, lane_type);
        assert_eq!(batch.live_lanes(), 0, "{lane_type:?}: every lane halts");
        let stim = Stim {
            cycles: 120,
            drive: &mut staggered_reset,
            poke_state: &core_pokes,
        };
        let lane = lane_type.unwrap_or(rv32i.lane);
        assert_kernel_shapes_match_the_serial_walk(&core, lane, LANES, stim);
    }
    let stim = Stim {
        cycles: 40,
        drive: &mut random(0xb006, LANES),
        poke_state: &sha3_pokes,
    };
    assert_bit_exact(&sha3, stim, LANES);
    let stim = Stim {
        cycles: 40,
        drive: &mut random(0xb006, LANES),
        poke_state: &sha3_pokes,
    };
    let keccak = optimized_plan_of(&sha3.circuit);
    assert_kernel_shapes_match_the_serial_walk(&keccak, sha3.lane, LANES, stim);
}

#[test]
fn the_renamed_core_is_bit_exact_in_every_engine_shape() {
    // The core with its op outputs numbered backwards, so that ops read
    // rows numbered above their own: a layer's output rows lie
    // scattered, and every walk runs the layer as one stretch of kernel
    // runs — at 64 lanes the threaded walks split the wider layers'
    // stretches across both workers, cutting runs — and each partition's
    // one-thread walk runs its replica's runs.
    let core = optimized_plan_of(&halting_rv32i().circuit);
    let mut outs: Vec<u32> = core.layers.iter().flatten().map(|op| op.out).collect();
    outs.sort_unstable();
    let mut to: Vec<u32> = (0..core.num_slots as u32).collect();
    for (&from, &into) in outs.iter().zip(outs.iter().rev()) {
        to[from as usize] = into;
    }
    let core = core.renamed(&to);
    for (lanes, lane) in [(64, LaneType::Narrow), (4, LaneType::Wide)] {
        let stim = Stim {
            cycles: 120,
            drive: &mut staggered_reset,
            poke_state: &[(30, "x1", 1, 1000)],
        };
        assert_kernel_shapes_match_the_serial_walk(&core, lane, lanes, stim);
    }
}

#[test]
fn a_specialized_kernel_over_the_plain_plans_state_agrees_on_the_lane_type() {
    // The shape `benchmark/src/probes.rs` builds: the kernel from
    // `specialize(plan)`, the state from `plan`. Folding turns op outputs
    // into power-on constants, typed by value instead of by op — the lane
    // type must come out the same on every corpus design, and the pair
    // must step.
    let cfg = KernelConfig::new(KernelKind::Psu);
    let chip = rocket(ChipConfig::new(4).with_scale(0.5));
    for (circuit, lane) in [
        (Workload::param_sum_circuit(), LaneType::Narrow),
        (chip, LaneType::Narrow),
        (sha3(), LaneType::Wide),
    ] {
        let plan = Compiler::new(cfg).compile(&circuit).expect("compiles").plan;
        assert_eq!(LaneType::of(&plan), lane, "{}", plan.name);
        let kernel = BatchKernel::compile_specialized(&specialize(&plan), cfg, true);
        let mut state = BatchLiState::new(&plan, 2);
        assert_eq!(kernel.lane_type(), lane, "{} kernel", plan.name);
        assert_eq!(state.lane_type(), lane, "{} state", plan.name);
        kernel.run(&mut state, 2);
        assert_eq!(state.cycle(), 2);
    }
}

#[test]
#[should_panic(expected = "kernel/state lane type mismatch")]
fn a_kernel_never_walks_a_state_of_the_other_lane_type() {
    // A `u64` kernel over `u32` rows would read two lanes as one: the
    // first step refuses, with a message, instead of reinterpreting.
    let cfg = KernelConfig::new(KernelKind::Psu);
    let plan = optimized_plan_of(&rv32i_circuit());
    let wide = LaneLayout::of_as(&plan, LaneType::Wide);
    let kernel = BatchKernel::compile_in(&plan, cfg, BatchEngine::Compiled, &wide);
    let mut state = BatchLiState::new(&plan, 4);
    assert_eq!(state.lane_type(), LaneType::Narrow);
    kernel.step(&mut state);
}
