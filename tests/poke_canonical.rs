//! DMI pokes are canonicalized at every front door: poking `v` and
//! `v + 2^width` leaves identical state on the scalar `Simulation`, on a
//! `BatchSimulation` lane, and in a served job whose `state_pokes` come
//! off the wire — the kernels assume every `LI` value is canonical, so a
//! raw out-of-range poke used to read back wrong and compare wrong.

use rteaal_core::{BatchSimulation, Compiled, Compiler, DebugModule, Simulation};
use rteaal_kernels::{KernelConfig, KernelKind};
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
