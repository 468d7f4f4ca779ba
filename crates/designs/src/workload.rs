//! Workload definitions: the designs × benchmarks grid of paper §7.1.
//!
//! Table 3 gives the simulation cycle counts (dhrystone on RocketChip and
//! BOOM, `matrix_add` on Gemmini, `sha3-rocc` on SHA3). The real
//! testbenches need a software stack we cannot ship, so each workload
//! pairs a design with a deterministic stimulus driver (reset followed by
//! pseudo-random input toggling from a splitmix generator) and a *scaled*
//! cycle budget (`cycles = table3 / divisor`), per DESIGN.md §4.2.

use crate::chip::{gemmini, rocket, small_boom, ChipConfig};
use crate::rv32i::{asm, rv32i};
use crate::sha3::sha3;
use rteaal_firrtl::ast::Circuit;

/// Table 3 simulation cycle counts (thousands).
pub const TABLE3_KCYCLES: [(&str, u64); 6] = [
    ("rocket", 540),
    ("boom", 750),
    ("gemmini-8", 160),
    ("gemmini-16", 350),
    ("gemmini-32", 1100),
    ("sha3", 1200),
];

/// A design paired with its benchmark stimulus.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short id (`r1`, `s8`, `g16`, `sha3`, …).
    pub id: String,
    /// Human-readable description.
    pub description: String,
    /// The design.
    pub circuit: Circuit,
    /// Full (paper-scale) cycle budget.
    pub full_cycles: u64,
    /// Output that goes high when a lane's benchmark is architecturally
    /// finished — the probe lane-liveness early exit watches. `None` for
    /// free-running workloads.
    pub halt_signal: Option<&'static str>,
    /// Architectural state pokes applied through the DMI path before the
    /// benchmark starts (after power-on / per-lane reset). This is how
    /// one compiled circuit serves jobs of many lengths: the parameter
    /// lives in a register, not in the ROM (see
    /// [`rv32i_param_sum`](Self::rv32i_param_sum)).
    pub state_pokes: Vec<(String, u64)>,
    /// Seed of the lane stimulus streams.
    seed: u64,
}

impl Workload {
    fn new(id: impl Into<String>, desc: impl Into<String>, circuit: Circuit, kcycles: u64) -> Self {
        let id = id.into();
        let seed = 0x5eed
            ^ id.bytes()
                .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
        Workload {
            id,
            description: desc.into(),
            circuit,
            full_cycles: kcycles * 1000,
            halt_signal: None,
            state_pokes: Vec::new(),
            seed,
        }
    }

    /// The RV32I core running its sum-loop benchmark to completion: sum
    /// `1..=20` into `a0`, then spin on a self-jump that raises the
    /// `halt` output — the workload that exercises lane-liveness early
    /// exit (per-lane completion around cycle 65 after reset release).
    pub fn rv32i_sum_loop() -> Workload {
        let program = vec![
            asm::addi(1, 0, 0),
            asm::addi(2, 0, 20),
            asm::add(1, 1, 2),
            asm::addi(2, 2, -1),
            asm::bne(2, 0, -2),
            asm::add(10, 1, 0),
            asm::jal(0, 6),
        ];
        let mut w = Workload::new("rv32i", "RV32I core, sum loop to halt", rv32i(&program), 1);
        w.halt_signal = Some("halt");
        w
    }

    /// A *parameterized* sum loop: sum `k..=1` into `a0`, where the loop
    /// bound `k` is read from register `x15` instead of being baked into
    /// the ROM. Every job produced by this constructor shares the exact
    /// same circuit — `k` arrives as a DMI state poke (`state_pokes`) at
    /// admission — which is what lets a continuously-batched scheduler
    /// pack jobs of different lengths into the lanes of ONE compiled
    /// design. Runs ~`3k + 5` cycles to halt; `a0 = k(k+1)/2`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero (the loop decrements before testing, so a
    /// zero bound would wrap through 2^32 iterations).
    pub fn rv32i_param_sum(k: u64) -> Workload {
        assert!(k > 0, "parameterized sum loop needs k >= 1");
        let mut w = Workload::new(
            format!("rv32i-k{k}"),
            format!("RV32I core, parameterized sum loop (k = {k})"),
            Self::param_sum_circuit(),
            1,
        );
        w.halt_signal = Some("halt");
        w.state_pokes = vec![("x15".to_string(), k)];
        // Tight per-job budget.
        w.full_cycles = Self::param_sum_budget(k);
        w
    }

    /// Expected `a0` of [`rv32i_param_sum`](Self::rv32i_param_sum)`(k)`.
    pub fn param_sum_expected(k: u64) -> u64 {
        (k * (k + 1) / 2) & 0xffff_ffff
    }

    /// The loop bounds of [`corpus`](Self::corpus)`(n, seed)`, without
    /// building any circuit: short loops (`k` in 1..=8) interleaved with
    /// long ones (`k` in 24..=63), deterministically seeded. This is the
    /// client-side corpus helper — a serving client only needs the `k`
    /// parameters (the server owns the one compiled circuit), so it
    /// should not pay `n` circuit constructions to enumerate its jobs.
    pub fn corpus_params(n: usize, seed: u64) -> Vec<u64> {
        let mut stream = Stimulus::from_seed(seed);
        (0..n)
            .map(|i| {
                let r = stream.next_value();
                if i % 2 == 0 {
                    1 + r % 8
                } else {
                    24 + r % 40
                }
            })
            .collect()
    }

    /// The one circuit every [`rv32i_param_sum`](Self::rv32i_param_sum)
    /// job runs on (the loop bound arrives through the DMI poke, never
    /// the ROM) — compile this once to serve a whole corpus.
    pub fn param_sum_circuit() -> Circuit {
        rv32i(&param_sum_program())
    }

    /// The cycle budget [`rv32i_param_sum`](Self::rv32i_param_sum)`(k)`
    /// declares: 3 cycles per iteration plus prologue, epilogue, and the
    /// halt-observation cycle.
    pub fn param_sum_budget(k: u64) -> u64 {
        3 * k + 12
    }

    /// A mixed-length job corpus for scheduler benches and tests: `n`
    /// parameterized sum-loop jobs with the bounds of
    /// [`corpus_params`](Self::corpus_params). All jobs share one
    /// circuit (see [`rv32i_param_sum`](Self::rv32i_param_sum)), so a
    /// static batch's wall time is dominated by its longest member —
    /// exactly the utilization gap continuous batching closes.
    pub fn corpus(n: usize, seed: u64) -> Vec<Workload> {
        Self::corpus_params(n, seed)
            .into_iter()
            .map(Workload::rv32i_param_sum)
            .collect()
    }

    /// RocketChip running the dhrystone analog.
    pub fn rocket(cores: usize) -> Workload {
        Workload::new(
            format!("r{cores}"),
            format!("{cores}-core RocketChip, dhrystone"),
            rocket(ChipConfig::new(cores)),
            540,
        )
    }

    /// SmallBOOM running the dhrystone analog.
    pub(crate) fn small_boom(cores: usize) -> Workload {
        Workload::new(
            format!("s{cores}"),
            format!("{cores}-core SmallBOOM, dhrystone"),
            small_boom(ChipConfig::new(cores)),
            750,
        )
    }

    /// Gemmini running `matrix_add` on a `dim × dim` mesh.
    pub(crate) fn gemmini(dim: usize) -> Workload {
        let kcycles = match dim {
            d if d <= 8 => 160,
            d if d <= 16 => 350,
            _ => 1100,
        };
        Workload::new(
            format!("g{dim}"),
            format!("{dim}x{dim} Gemmini, matrix_add"),
            gemmini(dim.min(16)), // mesh capped for laptop-scale runs
            kcycles,
        )
    }

    /// SHA3 running `sha3-rocc`.
    pub(crate) fn sha3() -> Workload {
        Workload::new("sha3", "SHA3 accelerator, sha3-rocc", sha3(), 1200)
    }

    /// The paper's main-evaluation grid (Figure 20 x-axis): RocketChips,
    /// SmallBOOMs, Gemminis, SHA3.
    pub fn main_grid() -> Vec<Workload> {
        vec![
            Workload::rocket(1),
            Workload::rocket(4),
            Workload::rocket(8),
            Workload::small_boom(1),
            Workload::small_boom(4),
            Workload::small_boom(8),
            Workload::gemmini(8),
            Workload::gemmini(16),
            Workload::sha3(),
        ]
    }

    /// An independent deterministic stimulus stream for one batch lane.
    ///
    /// Lane 0 runs on this workload's own seed;
    /// other lanes decorrelate the seed, so a `B`-lane batch run sees `B`
    /// distinct but reproducible testbenches — the batched analog of
    /// running the benchmark grid `B` times with different seeds.
    pub fn lane_stimulus(&self, lane: usize) -> Stimulus {
        let mut seed = self.seed;
        if lane > 0 {
            seed ^= (lane as u64)
                .wrapping_mul(0xd6e8_feb8_6659_fd93)
                .rotate_left(17);
        }
        Stimulus { seed }
    }
}

/// The parameterized sum-loop program behind
/// [`Workload::rv32i_param_sum`]: sum `x15..=1` into `a0`, then halt on
/// a self-jump. One function so the circuit and the ISA-golden-model
/// test run the identical program.
fn param_sum_program() -> Vec<u32> {
    vec![
        asm::addi(1, 0, 0),  // sum = 0
        asm::add(2, 15, 0),  // counter = x15 (poked at admission)
        asm::add(1, 1, 2),   // loop: sum += counter
        asm::addi(2, 2, -1), //       counter -= 1
        asm::bne(2, 0, -2),  //       until counter == 0
        asm::add(10, 1, 0),  // a0 = sum
        asm::jal(0, 6),      // halt: jump-to-self
    ]
}

/// A deterministic splitmix64 stimulus stream (one batch lane's
/// testbench input sequence).
#[derive(Debug, Clone)]
pub struct Stimulus {
    seed: u64,
}

impl Stimulus {
    /// A stream from a raw seed (for testbenches not tied to a
    /// [`Workload`]).
    pub fn from_seed(seed: u64) -> Self {
        Stimulus { seed }
    }

    /// The next input vector value.
    pub fn next_value(&mut self) -> u64 {
        self.seed = self.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_budgets() {
        assert_eq!(Workload::rocket(1).full_cycles, 540_000);
        assert_eq!(Workload::small_boom(8).full_cycles, 750_000);
        assert_eq!(Workload::gemmini(8).full_cycles, 160_000);
        assert_eq!(Workload::sha3().full_cycles, 1_200_000);
    }

    #[test]
    fn stimulus_is_deterministic_per_workload() {
        let mut a = Workload::rocket(1).lane_stimulus(0);
        let mut b = Workload::rocket(1).lane_stimulus(0);
        let xs: Vec<u64> = (0..10).map(|_| a.next_value()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.next_value()).collect();
        assert_eq!(xs, ys);
        // Different workloads diverge.
        let mut c = Workload::rocket(4).lane_stimulus(0);
        assert_ne!(xs[0], c.next_value());
    }

    #[test]
    fn lane_streams_are_deterministic_and_distinct() {
        let w = Workload::sha3();
        // Lane 0 runs on the workload's own seed.
        let mut own = Stimulus::from_seed(w.seed);
        let mut lane0 = w.lane_stimulus(0);
        for _ in 0..20 {
            assert_eq!(lane0.next_value(), own.next_value());
        }
        // Lanes are reproducible and pairwise distinct.
        for lane in 0..8 {
            let mut a = w.lane_stimulus(lane);
            let mut b = w.lane_stimulus(lane);
            let xs: Vec<u64> = (0..10).map(|_| a.next_value()).collect();
            let ys: Vec<u64> = (0..10).map(|_| b.next_value()).collect();
            assert_eq!(xs, ys);
        }
        let firsts: std::collections::HashSet<u64> = (0..8)
            .map(|lane| w.lane_stimulus(lane).next_value())
            .collect();
        assert_eq!(firsts.len(), 8, "lane streams should decorrelate");
    }

    #[test]
    fn rv32i_workload_declares_its_halt_probe() {
        let w = Workload::rv32i_sum_loop();
        assert_eq!(w.halt_signal, Some("halt"));
        assert!(w.circuit.modules[0].name.contains("Rv32i"));
        // The grid workloads are free-running.
        for w in Workload::main_grid() {
            assert_eq!(w.halt_signal, None, "{}", w.id);
        }
    }

    #[test]
    fn param_sum_matches_the_isa_golden_model() {
        use crate::rv32i::GoldenCpu;
        for k in [1u64, 2, 7, 31, 63] {
            let w = Workload::rv32i_param_sum(k);
            assert_eq!(w.halt_signal, Some("halt"));
            assert_eq!(w.state_pokes, vec![("x15".to_string(), k)]);
            // Run the ISA model on the *same* program the circuit was
            // built from, with the same architectural poke.
            let mut sw = GoldenCpu::new(&param_sum_program());
            sw.x[15] = k as u32;
            for _ in 0..w.full_cycles {
                sw.step();
            }
            assert_eq!(sw.pc, 6, "k={k} halted on the self-jump");
            assert_eq!(
                u64::from(sw.x[10]),
                Workload::param_sum_expected(k),
                "k={k}"
            );
        }
    }

    #[test]
    fn corpus_params_match_the_built_corpus() {
        let ks = Workload::corpus_params(12, 0xfeed);
        let corpus = Workload::corpus(12, 0xfeed);
        assert_eq!(ks.len(), 12);
        for (k, w) in ks.iter().zip(&corpus) {
            assert_eq!(w.state_pokes, vec![("x15".to_string(), *k)]);
            assert_eq!(w.full_cycles, Workload::param_sum_budget(*k));
        }
        // The shared-circuit helper is the corpus circuit.
        assert_eq!(
            format!("{:?}", Workload::param_sum_circuit()),
            format!("{:?}", corpus[0].circuit)
        );
    }

    #[test]
    fn corpus_is_deterministic_mixed_and_single_circuit() {
        let a = Workload::corpus(8, 0xc0ffee);
        let b = Workload::corpus(8, 0xc0ffee);
        assert_eq!(a.len(), 8);
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.id, wb.id);
            assert_eq!(wa.state_pokes, wb.state_pokes);
            assert_eq!(wa.full_cycles, wb.full_cycles);
        }
        // Different seeds give a different mix.
        let c = Workload::corpus(8, 1);
        assert!(a.iter().zip(&c).any(|(x, y)| x.id != y.id));
        // Short jobs interleave with long ones.
        let ks: Vec<u64> = a.iter().map(|w| w.state_pokes[0].1).collect();
        assert!(ks.iter().step_by(2).all(|&k| (1..=8).contains(&k)));
        assert!(ks
            .iter()
            .skip(1)
            .step_by(2)
            .all(|&k| (24..=63).contains(&k)));
        // Every job shares the same circuit — the parameter travels in
        // the state poke, never in the ROM.
        let body = format!("{:?}", a[0].circuit);
        for w in &a[1..] {
            assert_eq!(format!("{:?}", w.circuit), body, "{} circuit differs", w.id);
        }
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn param_sum_rejects_zero() {
        let _ = Workload::rv32i_param_sum(0);
    }

    #[test]
    fn main_grid_covers_all_designs() {
        let grid = Workload::main_grid();
        assert_eq!(grid.len(), 9);
        let ids: Vec<&str> = grid.iter().map(|w| w.id.as_str()).collect();
        assert!(ids.contains(&"r8"));
        assert!(ids.contains(&"s4"));
        assert!(ids.contains(&"g16"));
        assert!(ids.contains(&"sha3"));
    }
}
