//! The user-facing simulation handle: named I/O, XMR-style probing,
//! waveforms, and DMI.

use crate::compiler::Compiled;
use crate::waveform::VcdWriter;
use rteaal_dfg::op::canonicalize;
use rteaal_dfg::plan::SimPlan;
use rteaal_kernels::Kernel;
use std::collections::HashMap;

/// A running simulation of one compiled design.
///
/// # Examples
///
/// ```
/// use rteaal_core::{Compiler, Simulation};
/// use rteaal_kernels::{KernelConfig, KernelKind};
///
/// let src = "\
/// circuit Acc :
///   module Acc :
///     input clock : Clock
///     input x : UInt<8>
///     output out : UInt<8>
///     reg acc : UInt<8>, clock
///     acc <= tail(add(acc, x), 1)
///     out <= acc
/// ";
/// let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu)).compile_str(src)?;
/// let mut sim = Simulation::new(compiled);
/// sim.poke("x", 7)?;
/// sim.step_cycles(3);
/// assert_eq!(sim.peek("out"), Some(21));
/// assert_eq!(sim.peek("acc"), Some(21)); // internal signal (XMR)
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulation {
    kernel: Kernel,
    plan: SimPlan,
    signals: SignalIndex,
    vcd: Option<VcdWriter>,
}

/// The name tables of one plan, shared by both front doors: which input
/// port and which probe a name stands for.
#[derive(Debug)]
pub(crate) struct SignalIndex {
    /// Input name → index into the plan's `input_slots`.
    inputs: HashMap<String, usize>,
    /// Probe name → `(slot, width, signed)`.
    probes: HashMap<String, (u32, u8, bool)>,
}

impl SignalIndex {
    pub(crate) fn of(plan: &SimPlan) -> Self {
        // An input answers to the first probe that names its slot.
        let mut unnamed: HashMap<u32, usize> = plan
            .input_slots
            .iter()
            .enumerate()
            .map(|(idx, &slot)| (slot, idx))
            .collect();
        let mut inputs = HashMap::new();
        let mut probes = HashMap::with_capacity(plan.probes.len());
        for (name, slot, width, signed) in plan.typed_probes() {
            if let Some(idx) = unnamed.remove(&slot) {
                inputs.insert(name.to_string(), idx);
            }
            probes.insert(name.to_string(), (slot, width, signed));
        }
        SignalIndex { inputs, probes }
    }

    pub(crate) fn input(&self, name: &str) -> Option<usize> {
        self.inputs.get(name).copied()
    }

    pub(crate) fn probe(&self, name: &str) -> Option<(u32, u8, bool)> {
        self.probes.get(name).copied()
    }

    /// All probe names, sorted.
    pub(crate) fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.probes.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

/// Error for unknown signal names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSignal(pub String);

impl std::fmt::Display for UnknownSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown signal: {}", self.0)
    }
}

impl std::error::Error for UnknownSignal {}

impl Simulation {
    /// Wraps a compile result.
    pub fn new(compiled: Compiled) -> Self {
        Simulation {
            signals: SignalIndex::of(&compiled.plan),
            kernel: compiled.kernel,
            plan: compiled.plan,
            vcd: None,
        }
    }

    /// Drives an input port by name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignal`] if no input port has this name.
    pub fn poke(&mut self, name: &str, value: u64) -> Result<(), UnknownSignal> {
        let idx = self
            .signals
            .input(name)
            .ok_or_else(|| UnknownSignal(name.to_string()))?;
        self.kernel.set_input(idx, value);
        Ok(())
    }

    /// Reads any probed signal — output ports, registers, inputs, or named
    /// internal nodes (the XMR front door, §6.2).
    pub fn peek(&self, name: &str) -> Option<u64> {
        self.slot_of(name).map(|slot| self.kernel.slot(slot))
    }

    /// The slot [`Simulation::peek`] reads for `name`: a probe's, else
    /// an output port's.
    fn slot_of(&self, name: &str) -> Option<u32> {
        match self.signals.probe(name) {
            Some((slot, _, _)) => Some(slot),
            None => self.kernel.output_slot(name),
        }
    }

    /// Advances one clock cycle (and records waveform changes if enabled).
    pub fn step(&mut self) {
        self.kernel.step();
        if let Some(vcd) = &mut self.vcd {
            vcd.sample(self.kernel.cycle(), |slot| self.kernel.slot(slot));
        }
    }

    /// Advances `n` cycles.
    pub fn step_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.kernel.cycle()
    }

    /// Enables VCD waveform capture over all probed signals.
    pub fn enable_waveforms(&mut self) {
        let signals: Vec<(String, u32, u8)> = self.plan.probes.clone();
        let mut vcd = VcdWriter::new(&self.plan.name, &signals);
        vcd.sample(self.kernel.cycle(), |slot| self.kernel.slot(slot));
        self.vcd = Some(vcd);
    }

    /// Finishes waveform capture and returns the VCD text.
    pub fn take_vcd(&mut self) -> Option<String> {
        self.vcd.take().map(VcdWriter::finish)
    }

    /// The underlying kernel (for profiled runs).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The plan (OIM content) this simulation executes.
    pub fn plan(&self) -> &SimPlan {
        &self.plan
    }

    /// All probe names (sorted) — the visible signal namespace.
    pub fn signals(&self) -> Vec<&str> {
        self.signals.names()
    }
}

/// The Debug Module Interface analog (§6.2 "Host–DUT Communication"):
/// reads and updates DTM-like signals in the `LI` at cycle boundaries.
#[derive(Debug)]
pub struct DebugModule<'sim> {
    sim: &'sim mut Simulation,
}

impl<'sim> DebugModule<'sim> {
    /// Attaches to a simulation.
    pub fn new(sim: &'sim mut Simulation) -> Self {
        DebugModule { sim }
    }

    /// Writes a register's architectural state directly (between
    /// cycles), canonicalized to the register's width and signedness as
    /// [`Simulation::poke`] does for inputs: the kernels assume every
    /// `LI` value is canonical.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignal`] if the name is not a probed register.
    pub fn poke_reg(&mut self, name: &str, value: u64) -> Result<(), UnknownSignal> {
        let (slot, width, signed) = self
            .sim
            .signals
            .probe(name)
            .ok_or_else(|| UnknownSignal(name.to_string()))?;
        let value = canonicalize(value, width as u32, signed);
        self.sim.kernel.poke_slot(slot, value);
        Ok(())
    }

    /// Runs the DUT until `signal` becomes nonzero or `max_cycles`
    /// elapse; returns the cycle count if the condition was met. The
    /// name is resolved once; an unknown one never becomes nonzero.
    pub fn run_until(&mut self, signal: &str, max_cycles: u64) -> Option<u64> {
        let slot = self.sim.slot_of(signal);
        for _ in 0..max_cycles {
            if slot.is_some_and(|slot| self.sim.kernel.slot(slot) != 0) {
                return Some(self.sim.cycle());
            }
            self.sim.step();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use rteaal_kernels::{KernelConfig, KernelKind};

    const SRC: &str = "\
circuit S :
  module S :
    input clock : Clock
    input x : UInt<8>
    output out : UInt<8>
    output big : UInt<1>
    reg acc : UInt<8>, clock
    node sum = tail(add(acc, x), 1)
    acc <= sum
    out <= acc
    big <= gt(acc, UInt<8>(100))
";

    fn sim(kind: KernelKind) -> Simulation {
        Simulation::new(
            Compiler::new(KernelConfig::new(kind))
                .compile_str(SRC)
                .unwrap(),
        )
    }

    #[test]
    fn poke_peek_roundtrip() {
        let mut s = sim(KernelKind::Psu);
        s.poke("x", 10).unwrap();
        s.step_cycles(5);
        assert_eq!(s.peek("out"), Some(50));
        assert_eq!(s.peek("acc"), Some(50));
        assert!(s.poke("nope", 1).is_err());
        assert_eq!(s.peek("ghost"), None);
    }

    #[test]
    fn signals_enumerates_namespace() {
        let s = sim(KernelKind::Ti);
        let names = s.signals();
        assert!(names.contains(&"acc"));
        assert!(names.contains(&"x"));
    }

    #[test]
    fn dmi_poke_and_run_until() {
        let mut s = sim(KernelKind::Nu);
        s.poke("x", 1).unwrap();
        let mut dmi = DebugModule::new(&mut s);
        dmi.poke_reg("acc", 95).unwrap();
        // acc crosses 100 within a few cycles.
        let cycle = dmi.run_until("big", 20).expect("condition reached");
        assert!(cycle <= 10);
        assert!(s.peek("acc").unwrap() > 100);
    }

    #[test]
    fn run_until_an_unknown_signal_runs_out_its_cycles() {
        let mut s = sim(KernelKind::Psu);
        s.poke("x", 1).unwrap();
        let mut dmi = DebugModule::new(&mut s);
        assert_eq!(dmi.run_until("ghost", 7), None);
        assert_eq!(s.cycle(), 7);
        assert_eq!(s.peek("acc"), Some(7));
    }

    #[test]
    fn run_until_stops_where_a_peek_loop_stops() {
        // Output ports and internal probes, on every kernel kind.
        for kind in rteaal_kernels::ALL_KERNELS {
            for signal in ["big", "acc", "out", "sum"] {
                let mut a = sim(kind);
                let mut b = sim(kind);
                a.poke("x", 9).unwrap();
                b.poke("x", 9).unwrap();
                let mut by_peek = None;
                for _ in 0..30 {
                    if b.peek(signal).unwrap_or(0) != 0 {
                        by_peek = Some(b.cycle());
                        break;
                    }
                    b.step();
                }
                let got = DebugModule::new(&mut a).run_until(signal, 30);
                assert_eq!(got, by_peek, "{kind:?} {signal}");
                assert_eq!(a.cycle(), b.cycle(), "{kind:?} {signal}");
            }
        }
    }

    #[test]
    fn vcd_capture_produces_transitions() {
        let mut s = sim(KernelKind::Su);
        s.enable_waveforms();
        s.poke("x", 3).unwrap();
        s.step_cycles(4);
        let vcd = s.take_vcd().unwrap();
        assert!(vcd.contains("$var"));
        assert!(vcd.contains("acc"));
        assert!(vcd.contains("#1"));
        assert!(vcd.contains("#4"));
    }
}
