//! The unified kernel facade: compile any of the seven configurations and
//! simulate with or without instrumentation.

use crate::config::{KernelConfig, KernelKind};
use crate::profile::{MemProbe, NoProbe};
use crate::rolled::RolledKernel;
use crate::state::LiState;
use crate::unrolled::UnrolledKernel;
use rteaal_dfg::SimPlan;
use rteaal_perfmodel::cache::MemSim;
use rteaal_perfmodel::topdown::ExecProfile;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// What compiling a kernel cost (Figure 15 / Table 7 inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CompileReport {
    /// Wall-clock seconds for kernel generation (excludes the shared
    /// front-end: parse / graph / plan).
    pub seconds: f64,
    /// Peak heap bytes during kernel generation (0 unless the counting
    /// allocator is installed; see `rteaal_perfmodel::memtrack`).
    pub peak_bytes: usize,
    /// Static code footprint (Table 4 analog).
    pub code_bytes: u64,
    /// OIM data resident in memory (0 for SU/TI — embedded in code).
    pub data_bytes: u64,
}

/// A compiled RTeAAL Sim kernel plus its simulation state.
#[derive(Debug, Clone)]
pub struct Kernel {
    config: KernelConfig,
    inner: Inner,
    state: LiState,
    report: CompileReport,
    /// Intrinsic branch-misprediction entropy of this kernel's dynamic
    /// branches (loop back-edges and a stable per-cycle dispatch pattern
    /// predict extremely well; the paper measures 0.12% for PSU).
    pub branch_entropy: f64,
}

#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one kernel per design, never collections
enum Inner {
    Rolled(RolledKernel),
    Unrolled(UnrolledKernel),
}

impl Kernel {
    /// Compiles a plan under a kernel configuration, measuring the
    /// generation cost.
    pub fn compile(plan: &SimPlan, config: KernelConfig) -> Kernel {
        let t0 = Instant::now();
        let (inner, peak_bytes) = rteaal_perfmodel::memtrack::measure(|| {
            if config.kind.is_unrolled() {
                Inner::Unrolled(UnrolledKernel::compile(plan, config))
            } else {
                Inner::Rolled(RolledKernel::compile(plan, config))
            }
        });
        let seconds = t0.elapsed().as_secs_f64();
        let (code_bytes, data_bytes) = match &inner {
            Inner::Rolled(k) => (k.code_bytes(), k.data_bytes()),
            Inner::Unrolled(k) => (k.code_bytes(), k.data_bytes()),
        };
        let branch_entropy = match config.kind {
            // Dispatch on a per-cycle-stable opcode sequence plus loop
            // back-edges: highly predictable, but RU/OU's indirect jumps
            // retain a little entropy.
            KernelKind::Ru | KernelKind::Ou => 0.012,
            KernelKind::Nu | KernelKind::Psu | KernelKind::Iu => 0.0012,
            // Straight-line code barely branches at all.
            KernelKind::Su | KernelKind::Ti => 0.001,
        };
        Kernel {
            config,
            inner,
            state: LiState::new(plan),
            report: CompileReport {
                seconds,
                peak_bytes,
                code_bytes,
                data_bytes,
            },
            branch_entropy,
        }
    }

    /// The configuration this kernel was compiled under.
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// The compile-cost report.
    pub fn compile_report(&self) -> CompileReport {
        self.report
    }

    /// Drives an input port for subsequent cycles.
    pub fn set_input(&mut self, idx: usize, value: u64) {
        self.state.set_input(idx, value);
    }

    /// Output value by port index.
    pub fn output(&self, idx: usize) -> u64 {
        self.state.output(idx)
    }

    /// The slot of the output port `name`.
    pub fn output_slot(&self, name: &str) -> Option<u32> {
        self.state.output_slot(name)
    }

    /// Reads a slot (probes / waveforms / DMI peek).
    pub fn slot(&self, s: u32) -> u64 {
        self.state.slot(s)
    }

    /// Writes a slot (DMI poke); `value` must be canonical for the signal
    /// (see [`LiState::poke_slot`]).
    pub fn poke_slot(&mut self, s: u32, value: u64) {
        self.state.poke_slot(s, value);
    }

    /// Cycles simulated.
    pub fn cycle(&self) -> u64 {
        self.state.cycle()
    }

    /// Resets registers to power-on values.
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// One cycle on the fast path.
    pub fn step(&mut self) {
        match &self.inner {
            Inner::Rolled(k) => k.step(&mut self.state, &mut NoProbe),
            Inner::Unrolled(k) => k.step(&mut self.state, &mut NoProbe),
        }
    }

    /// `n` cycles on the fast path.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// One cycle with full instrumentation into `mem`; counters accumulate
    /// into `profile`.
    pub fn step_profiled(&mut self, mem: &mut MemSim, profile: &mut ExecProfile) {
        let mut probe = MemProbe::new(mem);
        match &self.inner {
            Inner::Rolled(k) => k.step(&mut self.state, &mut probe),
            Inner::Unrolled(k) => k.step(&mut self.state, &mut probe),
        }
        profile.instructions += probe.counters.instructions;
        profile.branches += probe.counters.branches;
        profile.branch_entropy = self.branch_entropy;
        profile.mem = mem.stats();
    }

    /// Runs `n` instrumented cycles and returns the accumulated profile.
    pub fn run_profiled(&mut self, mem: &mut MemSim, n: u64) -> ExecProfile {
        let mut profile = ExecProfile::default();
        for _ in 0..n {
            self.step_profiled(mem, &mut profile);
        }
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ALL_KERNELS;
    use rand::{Rng, SeedableRng};
    use rteaal_dfg::plan::{plan, PlanSim};
    use rteaal_firrtl::{lower::lower_typed, parser::parse};
    use rteaal_perfmodel::Machine;

    const DESIGN: &str = "\
circuit K :
  module K :
    input clock : Clock
    input x : UInt<32>
    input en : UInt<1>
    output out : UInt<32>
    reg acc : UInt<32>, clock
    reg cnt : UInt<8>, clock
    node nxt = tail(add(acc, x), 1)
    acc <= mux(en, nxt, acc)
    cnt <= tail(add(cnt, UInt<8>(1)), 1)
    out <= xor(acc, cat(cnt, bits(acc, 23, 0)))
";

    fn plan_of() -> SimPlan {
        plan(&rteaal_dfg::build(&lower_typed(&parse(DESIGN).unwrap()).unwrap()).unwrap())
    }

    #[test]
    fn all_seven_kernels_agree_with_golden() {
        let p = plan_of();
        let mut kernels: Vec<Kernel> = ALL_KERNELS
            .iter()
            .map(|&k| Kernel::compile(&p, KernelConfig::new(k)))
            .collect();
        let mut golden = PlanSim::new(&p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let x: u64 = rng.gen();
            let en: u64 = rng.gen();
            golden.set_input(0, x);
            golden.set_input(1, en);
            golden.step();
            for kernel in &mut kernels {
                kernel.set_input(0, x);
                kernel.set_input(1, en);
                kernel.step();
                assert_eq!(
                    kernel.output(0),
                    golden.output(0),
                    "{} diverged",
                    kernel.config()
                );
            }
        }
    }

    #[test]
    fn compile_reports_populated() {
        let p = plan_of();
        for &kind in &ALL_KERNELS {
            let k = Kernel::compile(&p, KernelConfig::new(kind));
            let r = k.compile_report();
            assert!(r.code_bytes > 0, "{kind:?}");
            if kind.is_unrolled() {
                assert_eq!(r.data_bytes, 0);
            } else {
                assert!(r.data_bytes > 0);
            }
        }
    }

    #[test]
    fn unrolled_kernels_shift_pressure_from_dcache_to_icache() {
        // Table 6's central phenomenon, on a design big enough to see it.
        let mut src = String::from(
            "\
circuit Big :
  module Big :
    input clock : Clock
    input x : UInt<32>
    output out : UInt<32>
",
        );
        for i in 0..400 {
            src.push_str(&format!("    reg r{i} : UInt<32>, clock\n"));
        }
        src.push_str("    r0 <= tail(add(r399, x), 1)\n");
        for i in 1..400 {
            src.push_str(&format!("    r{i} <= xor(r{}, x)\n", i - 1));
        }
        src.push_str("    out <= r399\n");
        let p = plan(&rteaal_dfg::build(&lower_typed(&parse(&src).unwrap()).unwrap()).unwrap());
        let machine = Machine::amd_ryzen(); // small caches show it fastest
        let run = |kind| {
            let mut k = Kernel::compile(&p, KernelConfig::new(kind));
            let mut mem = machine.mem_sim();
            k.run_profiled(&mut mem, 10)
        };
        let psu = run(KernelKind::Psu);
        let su = run(KernelKind::Su);
        // SU does far fewer data accesses (no OIM coordinate traversal) ...
        assert!(
            (su.mem.l1d.accesses as f64) < psu.mem.l1d.accesses as f64 * 0.75,
            "SU {} !<< PSU {}",
            su.mem.l1d.accesses,
            psu.mem.l1d.accesses
        );
        // ... but touches far more instruction bytes.
        assert!(
            su.mem.l1i.misses > 2 * psu.mem.l1i.misses,
            "SU {} !>> PSU {}",
            su.mem.l1i.misses,
            psu.mem.l1i.misses
        );
    }

    #[test]
    fn run_profiled_accumulates() {
        let p = plan_of();
        let mut k = Kernel::compile(&p, KernelConfig::new(KernelKind::Nu));
        let mut mem = Machine::intel_core().mem_sim();
        let p1 = k.run_profiled(&mut mem, 5);
        let mut mem2 = Machine::intel_core().mem_sim();
        let mut k2 = Kernel::compile(&p, KernelConfig::new(KernelKind::Nu));
        let p10 = k2.run_profiled(&mut mem2, 10);
        assert_eq!(p10.instructions, 2 * p1.instructions);
    }

    #[test]
    fn reset_and_poke_roundtrip() {
        let p = plan_of();
        let mut k = Kernel::compile(&p, KernelConfig::new(KernelKind::Ti));
        k.set_input(1, 1);
        k.set_input(0, 5);
        k.run(3);
        assert_eq!(k.cycle(), 3);
        k.reset();
        assert_eq!(k.cycle(), 0);
        k.poke_slot(0, 42); // register slots come first
        assert_eq!(k.slot(0), 42);
    }
}
