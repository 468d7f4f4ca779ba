//! DMI pokes are canonicalized at every front door: poking `v` and
//! `v + 2^width` leaves identical state on the scalar `Simulation`, on a
//! `BatchSimulation` lane, and in a served job whose `state_pokes` come
//! off the wire — the kernels assume every `LI` value is canonical, so a
//! raw out-of-range poke used to read back wrong and compare wrong.

use rteaal_core::{BatchSimulation, Compiled, Compiler, DebugModule, Simulation};
use rteaal_dfg::lane_kernel::{LaneLayout, LaneType};
use rteaal_kernels::{BatchLiState, KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{ServeConfig, ServerPool};

const SRC: &str = "\
circuit P :
  module P :
    input clock : Clock
    output big : UInt<1>
    output neg : UInt<1>
    output halt : UInt<1>
    reg acc : UInt<8>, clock
    reg sacc : SInt<8>, clock
    reg n : UInt<4>, clock
    acc <= acc
    sacc <= sacc
    n <= tail(add(n, UInt<4>(1)), 1)
    big <= gt(acc, UInt<8>(200))
    neg <= lt(sacc, SInt<8>(0))
    halt <= eq(n, UInt<4>(5))
";

const SIGNALS: [&str; 4] = ["acc", "sacc", "big", "neg"];

/// `(acc, sacc)` pokes that must be indistinguishable: in range, and the
/// same values plus `2^8`. `0x80` is `-128` as an `SInt<8>`.
const POKES: [(u64, u64); 2] = [(0x05, 0x80), (0x105, 0x180)];

/// What every front door must read back, whichever poke pair was used.
const EXPECTED: [u64; 4] = [5, (-128i64) as u64, 0, 1];

fn compiled() -> Compiled {
    Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile_str(SRC)
        .expect("design compiles")
}

#[test]
fn scalar_dmi_pokes_are_canonicalized() {
    for (acc, sacc) in POKES {
        let mut sim = Simulation::new(compiled());
        let mut dmi = DebugModule::new(&mut sim);
        dmi.poke_reg("acc", acc).expect("acc is probed");
        dmi.poke_reg("sacc", sacc).expect("sacc is probed");
        sim.step();
        let got = SIGNALS.map(|name| sim.peek(name).expect("probed"));
        assert_eq!(got, EXPECTED, "scalar, pokes ({acc:#x}, {sacc:#x})");
    }
}

#[test]
fn batch_state_pokes_are_canonicalized() {
    let mut sim = BatchSimulation::new(&compiled(), POKES.len());
    for (lane, (acc, sacc)) in POKES.into_iter().enumerate() {
        sim.poke_state("acc", lane, acc).expect("acc is probed");
        sim.poke_state("sacc", lane, sacc).expect("sacc is probed");
    }
    sim.step();
    for lane in 0..POKES.len() {
        let got = SIGNALS.map(|name| sim.peek(name, lane).expect("probed"));
        assert_eq!(got, EXPECTED, "batch lane {lane}");
    }
}

#[test]
fn served_job_state_pokes_are_canonicalized() {
    let pool =
        ServerPool::new(&compiled(), ServeConfig::with_workers(1), "halt").expect("halt resolves");
    for (acc, sacc) in POKES {
        let mut job = Job::new("poke", 20)
            .with_state_poke("acc", acc)
            .with_state_poke("sacc", sacc);
        job.probes = SIGNALS.iter().map(|s| s.to_string()).collect();
        let result = pool.submit(job).wait();
        assert!(result.completed(), "{result:?}");
        let got: Vec<u64> = result.outputs.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, EXPECTED, "served, pokes ({acc:#x}, {sacc:#x})");
    }
    pool.shutdown();
}

/// A signed 12-bit register that holds its value, a counter that halts
/// the job, and — `wide` — one live 40-bit counter, which alone puts the
/// whole plan on `u64` rows.
fn signed_design(wide: bool) -> Compiled {
    let (port, counter) = if wide {
        (
            "    output w : UInt<40>\n",
            "    reg big : UInt<40>, clock
    big <= tail(add(big, UInt<40>(1)), 1)
    w <= big
",
        )
    } else {
        ("", "")
    };
    let src = format!(
        "\
circuit S :
  module S :
    input clock : Clock
    output neg : UInt<1>
    output halt : UInt<1>
{port}    reg s12 : SInt<12>, clock
    reg n : UInt<4>, clock
    s12 <= s12
    n <= tail(add(n, UInt<4>(1)), 1)
    neg <= lt(s12, SInt<12>(0))
    halt <= eq(n, UInt<4>(5))
{counter}"
    );
    Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile_str(&src)
        .expect("design compiles")
}

#[test]
fn a_negative_poke_reads_back_sign_extended_through_every_door_in_both_lane_types() {
    // A narrow row keeps the low 32 bits of a value and widens them back
    // by the slot's signedness: -5 in a signed 12-bit register must come
    // out as `0xffff_ffff_ffff_fffb` — not `0xffff_fffb`, not `0xffb` —
    // from `slot`, `peek`, the VCD and a served job's outputs, whatever
    // rows the engine holds, on the poked lane only.
    const MINUS_5: u64 = (-5i64) as u64;
    let narrow = signed_design(false);
    assert_eq!(
        LaneType::supported_for(&narrow.plan),
        [LaneType::Wide, LaneType::Narrow]
    );
    let s12 = narrow.plan.signal_slot("s12").expect("probed");
    for lane_type in LaneType::supported_for(&narrow.plan) {
        // `slot`, under `poke_slot`'s contract: the value is canonical.
        let layout = LaneLayout::of_as(&narrow.plan, lane_type);
        let mut st = BatchLiState::new_in(&narrow.plan, 3, &layout);
        assert_eq!(st.lane_type(), lane_type);
        st.poke_slot(s12, 1, MINUS_5);
        let read: Vec<u64> = (0..3).map(|lane| st.slot(s12, lane)).collect();
        assert_eq!(read, [0, MINUS_5, 0], "{lane_type:?} slot");

        // `peek` and the VCD, under `poke_state`'s: any 12-bit pattern.
        let mut sim = BatchSimulation::new_in(&narrow, 3, lane_type);
        assert_eq!(sim.lane_type(), lane_type);
        sim.enable_lane_waveforms(1);
        sim.poke_state("s12", 1, 0xffb).expect("s12 is probed");
        sim.step();
        for (lane, want) in [(0, (0, 0)), (1, (MINUS_5, 1)), (2, (0, 0))] {
            let got = (sim.peek("s12", lane), sim.peek("neg", lane));
            assert_eq!(
                got,
                (Some(want.0), Some(want.1)),
                "{lane_type:?} lane {lane}"
            );
        }
        let vcd = sim.take_vcd().expect("capture was enabled");
        assert!(
            vcd.contains(&format!("b{MINUS_5:b} ")),
            "{lane_type:?}: {vcd}"
        );
    }
    // A served job's outputs, on a design of each lane type.
    for (compiled, lane_type) in [
        (narrow, LaneType::Narrow),
        (signed_design(true), LaneType::Wide),
    ] {
        assert_eq!(LaneType::of(&compiled.plan), lane_type);
        let pool = ServerPool::new(&compiled, ServeConfig::with_workers(1), "halt")
            .expect("halt resolves");
        let mut job = Job::new("minus-5", 20).with_state_poke("s12", 0xffb);
        job.probes = vec!["s12".into(), "neg".into()];
        let result = pool.submit(job).wait();
        assert!(result.completed(), "{result:?}");
        let got: Vec<u64> = result.outputs.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, [MINUS_5, 1], "served on {lane_type:?} rows");
        pool.shutdown();
    }
}
