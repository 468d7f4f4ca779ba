//! Pins the *modeled* reference streams of the seven kernels.
//!
//! The scalar kernels run one walk that is generic over the probe: the
//! wall-clock path (`NoProbe`) and the instrumented path (`MemProbe`)
//! are the same code. Restructuring that walk for speed must leave every
//! `probe.*` call where it was — same order, same addresses — or the
//! inputs of Tables 5–6, `tests/experiment_shapes.rs` and the `tables --`
//! gates move with it. This test records those inputs for the RV32I
//! `param_sum` core (the `rv32i_steady` benchmark design, mux chains
//! included) as recorded at 7d5ed36, the commit before the per-type loop
//! bodies became real: event counts, L1 access/miss counts, and a hash of
//! every probe call in issue order. The table is not to be edited by a
//! change that only claims speed.

use rteaal_designs::Workload;
use rteaal_dfg::passes::{optimize, PassOptions};
use rteaal_dfg::plan::{plan, SimPlan};
use rteaal_firrtl::lower::lower_typed;
use rteaal_kernels::profile::{Counters, MemProbe, Probe};
use rteaal_kernels::rolled::RolledKernel;
use rteaal_kernels::unrolled::UnrolledKernel;
use rteaal_kernels::{KernelConfig, KernelKind, LiState, ALL_KERNELS};
use rteaal_perfmodel::Machine;

const CYCLES: usize = 50;

/// The plan `Compiler::compile` builds for the core: default passes
/// (mux-chain fusion included), then levelization.
fn core_plan() -> SimPlan {
    let flat = lower_typed(&Workload::param_sum_circuit()).expect("core lowers");
    let graph = rteaal_dfg::build(&flat).expect("core builds");
    let (graph, _) = optimize(&graph, &PassOptions::default());
    plan(&graph)
}

/// `CYCLES` cycles from power-on under `probe`.
fn run<P: Probe>(p: &SimPlan, cfg: KernelConfig, st: &mut LiState, probe: &mut P) {
    if cfg.kind.is_unrolled() {
        let k = UnrolledKernel::compile(p, cfg);
        for _ in 0..CYCLES {
            k.step(st, probe);
        }
    } else {
        let k = RolledKernel::compile(p, cfg);
        for _ in 0..CYCLES {
            k.step(st, probe);
        }
    }
}

/// `(counters, [l1i accesses, l1i misses, l1d accesses, l1d misses])`
/// after `CYCLES` instrumented cycles from power-on.
fn modeled(p: &SimPlan, cfg: KernelConfig) -> (Counters, [u64; 4]) {
    let mut st = LiState::new(p);
    let mut mem = Machine::intel_core().mem_sim();
    let mut probe = MemProbe::new(&mut mem);
    run(p, cfg, &mut st, &mut probe);
    let counters = probe.counters;
    let s = mem.stats();
    (
        counters,
        [s.l1i.accesses, s.l1i.misses, s.l1d.accesses, s.l1d.misses],
    )
}

/// FNV-1a over every probe event `(kind, address, count)` in issue
/// order: equal hashes mean the same calls in the same order.
struct HashProbe(u64);

impl HashProbe {
    fn mix(&mut self, tag: u64, addr: u64, count: u32) {
        for word in [tag, addr, count as u64] {
            for byte in word.to_le_bytes() {
                self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

impl Probe for HashProbe {
    fn exec(&mut self, addr: u64, count: u32) {
        self.mix(0, addr, count);
    }
    fn load(&mut self, addr: u64) {
        self.mix(1, addr, 1);
    }
    fn store(&mut self, addr: u64) {
        self.mix(2, addr, 1);
    }
    fn branch(&mut self, addr: u64) {
        self.mix(3, addr, 1);
    }
}

fn stream_hash(p: &SimPlan, cfg: KernelConfig) -> u64 {
    let mut st = LiState::new(p);
    let mut probe = HashProbe(0xcbf2_9ce4_8422_2325);
    run(p, cfg, &mut st, &mut probe);
    probe.0
}

const fn row(instructions: u64, branches: u64, loads: u64, stores: u64) -> Counters {
    Counters {
        instructions,
        branches,
        loads,
        stores,
    }
}

#[test]
fn modeled_streams_are_unchanged() {
    let p = core_plan();
    assert_eq!((p.total_ops(), p.layers.len()), (282, 23), "design moved");
    let o3 = ALL_KERNELS.map(KernelConfig::new);
    let o0 = [KernelKind::Ru, KernelKind::Psu, KernelKind::Ti].map(KernelConfig::unoptimized);
    let pinned = PINNED_O3.iter().chain(&PINNED_O0);
    for (cfg, &(counters, caches, hash)) in o3.iter().chain(&o0).zip(pinned) {
        assert_eq!(modeled(&p, *cfg), (counters, caches), "{cfg}: counts moved");
        assert_eq!(stream_hash(&p, *cfg), hash, "{cfg}: probe order moved");
    }
}

type Pinned = (Counters, [u64; 4], u64);

const PINNED_O3: [Pinned; 7] = [
    (
        row(299900, 68350, 148450, 50700),
        [83450, 22, 199150, 82],
        0x1a2d34bfead0879d,
    ), // RU
    (
        row(197300, 34150, 114250, 16500),
        [49250, 21, 130750, 81],
        0x05b9b4e2faa4072d,
    ), // OU
    (
        row(248450, 20050, 133500, 16500),
        [81150, 61, 150000, 75],
        0x811888185c5d4975,
    ), // NU
    (
        row(233750, 5350, 133500, 16500),
        [66450, 61, 150000, 75],
        0x9bbcf9f36aafe2bd,
    ), // PSU
    (
        row(140600, 4200, 87500, 16500),
        [19300, 66, 104000, 55],
        0x6160b9d01d9a4815,
    ), // IU
    (
        row(85600, 100, 36600, 16500),
        [15200, 103, 53100, 20],
        0xe3753af1392e33d5,
    ), // SU
    (
        row(81650, 100, 32800, 16350),
        [15200, 98, 49150, 16],
        0xf148eb0e5fac3b71,
    ), // TI
];

/// RU, PSU and TI at the `-O0` analog (spill and result round-trips).
const PINNED_O0: [Pinned; 3] = [
    (
        row(578300, 68350, 196750, 99000),
        [128950, 25, 295750, 84],
        0x4855d2978f259b25,
    ),
    (
        row(650150, 5350, 181800, 64800),
        [111950, 63, 246600, 77],
        0x5701a2addda7c91d,
    ),
    (
        row(182800, 100, 36600, 16500),
        [32500, 103, 53100, 20],
        0x134012d67cd9cfad,
    ),
];
