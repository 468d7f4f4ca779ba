//! Pins the *modeled* reference streams of the seven kernels.
//!
//! The scalar kernels run one walk that is generic over the probe: the
//! wall-clock path (`NoProbe`) and the instrumented path (`MemProbe`)
//! are the same code. Restructuring that walk for speed must leave every
//! `probe.*` call where it was — same order, same addresses — or the
//! inputs of Tables 5–6, `tests/experiment_shapes.rs` and the `tables --`
//! gates move with it. This test records those inputs for the RV32I
//! `param_sum` core (the `rv32i_steady` benchmark design, mux chains
//! included): event counts, L1 access/miss counts, and a hash of every
//! probe call in issue order. First recorded at 7d5ed36, the commit before
//! the per-type loop bodies became real; re-recorded once since, in the
//! commit that added truncation fusion to `dfg::passes` — a graph pass, so
//! the *plan* shrank (282 ops in 23 layers to 274 in 22: eight `u33`/`u63`
//! producers absorbed their `resize`) and every stream with it, by the
//! per-kernel deltas listed in that commit's CHANGES.md entry. The table
//! is not to be edited by a change that only claims speed in the kernels.

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
    assert_eq!((p.total_ops(), p.layers.len()), (274, 22), "design moved");
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
        row(294600, 67100, 146000, 49900),
        [81800, 22, 195900, 81],
        0x8d23349d8eb1820d,
    ), // RU
    (
        row(193200, 33300, 112200, 16100),
        [48000, 21, 128300, 80],
        0xc17b6dc55f484e3d,
    ), // OU
    (
        row(241600, 19600, 130300, 16100),
        [78300, 61, 146400, 71],
        0x6479a8f162d269fd,
    ), // NU
    (
        row(226950, 4950, 130300, 16100),
        [63650, 61, 146400, 71],
        0x568553d5a4297b7d,
    ), // PSU
    (
        row(137850, 3850, 86300, 16100),
        [18550, 59, 102400, 52],
        0xc827c0b6de7d0071,
    ), // IU
    (
        row(84000, 100, 36200, 16100),
        [14800, 101, 52300, 20],
        0x537452f9a0569cb5,
    ), // SU
    (
        row(80050, 100, 32400, 15950),
        [14800, 96, 48350, 16],
        0x37d472d84a3e5641,
    ), // TI
];

/// RU, PSU and TI at the `-O0` analog (spill and result round-trips).
const PINNED_O0: [Pinned; 3] = [
    (
        row(566600, 67100, 193500, 97400),
        [126100, 25, 290900, 83],
        0xbedc036149a60ba5,
    ),
    (
        row(630950, 4950, 177800, 63600),
        [107950, 63, 241400, 73],
        0x7a75002684169105,
    ),
    (
        row(178800, 100, 36200, 16100),
        [31700, 101, 52300, 20],
        0xc856a59b52961125,
    ),
];
