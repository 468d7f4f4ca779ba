//! The user-facing batched simulation handle: one compiled design, `B`
//! independent stimulus lanes, named per-lane poke/peek, and cycle
//! stepping over the lanes still live.
//!
//! [`BatchSimulation`] is the throughput front door: where
//! [`Simulation`](crate::Simulation) answers "what does this design do
//! under this stimulus", `BatchSimulation` answers it for `B` stimulus
//! vectors at once — regression suites, fuzz corpora, or parameter
//! sweeps — while paying the compile and coordinate-traversal cost once.
//!
//! Workloads with a halt condition (the RV32I core's `halt` output, or
//! any probed signal) can additionally enable **lane-liveness early
//! exit** via [`BatchSimulation::watch_halt`]: after every cycle the
//! engine probes the halt row, records each finished lane's completion
//! cycle, and compacts it out of the evaluated lane window, so the
//! remaining cycles are spent only on lanes still running. Lane indices
//! seen by [`poke`](BatchSimulation::poke) /
//! [`peek`](BatchSimulation::peek) stay stable across compaction; a
//! finished lane's state is frozen at its halt cycle.
//!
//! Freed lanes need not stay frozen: `BatchSimulation::reset_lane`
//! revives a compacted-out lane at the power-on state and
//! [`BatchSimulation::admit`] binds fresh stimulus to it, so new
//! testbenches can enter mid-run the moment a lane drains — the
//! continuous-batching substrate the `rteaal-sched` scheduler is built
//! on. [`BatchSimulation::enable_lane_waveforms`] additionally records a
//! per-cycle VCD of one chosen lane through the same compaction-stable
//! lane addressing.

use crate::compiler::Compiled;
use crate::simulation::{SignalIndex, UnknownSignal};
use crate::waveform::VcdWriter;
use rteaal_dfg::lane_kernel::{BatchEngine, LaneLayout, LaneType};
use rteaal_dfg::op::canonicalize;
use rteaal_dfg::plan::SimPlan;
use rteaal_kernels::{BatchKernel, BatchLiState, LanePoker};

/// A running batched simulation of one compiled design.
///
/// # Examples
///
/// ```
/// use rteaal_core::{BatchSimulation, Compiler};
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
/// let mut sim = BatchSimulation::new(&compiled, 4);
/// for lane in 0..4 {
///     sim.poke("x", lane, lane as u64 + 1)?;
/// }
/// sim.step_cycles(3);
/// for lane in 0..4 {
///     assert_eq!(sim.peek("out", lane), Some(3 * (lane as u64 + 1)));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BatchSimulation {
    kernel: BatchKernel,
    state: BatchLiState,
    plan: SimPlan,
    signals: SignalIndex,
    liveness: Option<LaneLiveness>,
    vcd: Option<LaneVcd>,
}

/// Single-lane VCD capture state: the chosen user-facing lane and the
/// incremental writer (the batched analog of the scalar
/// [`Simulation`](crate::Simulation) waveform path, scoped to one lane).
#[derive(Debug)]
struct LaneVcd {
    lane: usize,
    writer: VcdWriter,
}

/// Lane-liveness bookkeeping for halt-condition early exit.
///
/// The engine evaluates the live *prefix* of the physical lane columns;
/// when a lane's halt probe fires it is swapped past the prefix and the
/// prefix shrinks. These tables keep the user-facing lane numbering
/// stable across those swaps.
#[derive(Debug)]
struct LaneLiveness {
    /// Slot whose nonzero value marks a finished lane.
    halt_slot: u32,
    /// Physical column of each original lane.
    phys_of: Vec<usize>,
    /// Original lane of each physical column.
    orig_of: Vec<usize>,
    /// Cycle at which each original lane halted (by original index).
    done_at: Vec<Option<u64>>,
}

impl LaneLiveness {
    fn new(halt_slot: u32, lanes: usize) -> Self {
        LaneLiveness {
            halt_slot,
            phys_of: (0..lanes).collect(),
            orig_of: (0..lanes).collect(),
            done_at: vec![None; lanes],
        }
    }

    /// Swaps two physical columns' occupants in the lane maps. The
    /// caller swaps the state columns (`BatchLiState::swap_lanes`) and
    /// adjusts the live window; this keeps the original↔physical
    /// permutation consistent — the one invariant every lane-indexed
    /// read depends on.
    fn swap_phys(&mut self, a: usize, b: usize) {
        self.orig_of.swap(a, b);
        self.phys_of[self.orig_of[a]] = a;
        self.phys_of[self.orig_of[b]] = b;
    }

    /// Records the occupant of live column `phys` as finished at the
    /// current cycle and swaps it out of the evaluated window.
    fn freeze(&mut self, state: &mut BatchLiState, phys: usize) {
        self.done_at[self.orig_of[phys]] = Some(state.cycle());
        let last = state.live() - 1;
        state.swap_lanes(phys, last);
        self.swap_phys(phys, last);
        state.set_live(last);
    }
}

impl BatchSimulation {
    /// Builds a `lanes`-wide simulation from a compile result — the one
    /// constructor.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(compiled: &Compiled, lanes: usize) -> Self {
        Self::with_layout(compiled, lanes, LaneLayout::of)
    }

    /// [`new`](Self::new) with the rows held in `lane` instead of the
    /// plan's own lane type — the witness through which tests run one
    /// design in both.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new), and unless `lane` is in
    /// `LaneType::supported_for` of the plan.
    #[doc(hidden)]
    pub fn new_in(compiled: &Compiled, lanes: usize, lane: LaneType) -> Self {
        Self::with_layout(compiled, lanes, |plan| LaneLayout::of_as(plan, lane))
    }

    fn with_layout(
        compiled: &Compiled,
        lanes: usize,
        layout: impl FnOnce(&SimPlan) -> LaneLayout,
    ) -> Self {
        // The plan as compiled: the kernel, the rows and every name
        // address the slots `Compiled::plan` and the scalar
        // `Simulation` address.
        let plan = compiled.plan.clone();
        let layout = layout(&plan);
        let config = compiled.kernel.config();
        let kernel = BatchKernel::compile_in(&plan, config, BatchEngine::Compiled, &layout);
        let state = BatchLiState::new_in(&plan, lanes, &layout);
        BatchSimulation {
            signals: SignalIndex::of(&plan),
            kernel,
            state,
            plan,
            liveness: None,
            vcd: None,
        }
    }

    /// The lane type the engine holds its rows in — `u32` when every
    /// signal of the plan fits 32 bits, else `u64`
    /// (see `rteaal_dfg::lane_kernel`). Never a setting.
    pub fn lane_type(&self) -> LaneType {
        self.state.lane_type()
    }

    /// Physical lane column of a user-facing lane index (identity until
    /// liveness compaction starts swapping finished lanes out of the
    /// evaluated window).
    fn phys(&self, lane: usize) -> usize {
        self.liveness.as_ref().map_or(lane, |lv| lv.phys_of[lane])
    }

    fn input(&self, name: &str) -> Result<usize, UnknownSignal> {
        self.signals
            .input(name)
            .ok_or_else(|| UnknownSignal(name.to_string()))
    }

    /// Drives an input port on one lane, by name.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignal`] if no input port has this name.
    pub fn poke(&mut self, name: &str, lane: usize, value: u64) -> Result<(), UnknownSignal> {
        let idx = self.input(name)?;
        self.state.set_input(idx, self.phys(lane), value);
        Ok(())
    }

    /// Reads any probed signal on one lane — output ports, registers,
    /// inputs, or named internal nodes (the XMR path, per lane). A
    /// halted lane reads its state frozen at the halt cycle.
    pub fn peek(&self, name: &str, lane: usize) -> Option<u64> {
        let phys = self.phys(lane);
        if let Some((slot, _, _)) = self.signals.probe(name) {
            return Some(self.state.slot(slot, phys));
        }
        self.state.output_by_name(name, phys)
    }

    /// Advances one clock cycle on the live lanes. With a halt watch
    /// enabled, finished lanes are compacted out of the evaluated window
    /// after the cycle; once every lane has halted this is a no-op.
    pub fn step(&mut self) {
        if self.liveness.is_some() && self.state.live() == 0 {
            return;
        }
        self.kernel.step(&mut self.state);
        self.probe_halts();
        self.sample_vcd();
    }

    /// Advances `n` cycles on the live lanes. Inputs hold their last
    /// poked values. With a halt watch enabled, stops early once every
    /// lane has halted.
    pub fn step_cycles(&mut self, n: u64) {
        if self.liveness.is_none() && self.vcd.is_none() {
            self.kernel.run(&mut self.state, n);
            return;
        }
        for _ in 0..n {
            if self.liveness.is_some() && self.state.live() == 0 {
                break;
            }
            self.step();
        }
    }

    /// Advances `n` cycles, invoking `stimulus` before each cycle so
    /// every lane can be driven independently mid-run (the batched
    /// analog of a per-cycle testbench loop). The poker addresses
    /// physical lane columns and no halt probing happens mid-run, so
    /// combine with [`watch_halt`](Self::watch_halt) only before the
    /// first compaction (or use [`step`](Self::step) /
    /// [`run_until_halt`](Self::run_until_halt) instead). With lane
    /// waveform capture enabled the run is driven cycle-by-cycle so
    /// every cycle gets sampled, but halt probing still happens only at
    /// the end — enabling capture never changes which physical columns
    /// the stimulus closure drives.
    pub fn run_with_stimulus(&mut self, n: u64, mut stimulus: impl FnMut(u64, &mut LanePoker<'_>)) {
        if self.vcd.is_none() {
            self.kernel
                .run_with_stimulus(&mut self.state, n, 1, stimulus);
            self.probe_halts();
            return;
        }
        for _ in 0..n {
            self.kernel
                .run_with_stimulus(&mut self.state, 1, 1, &mut stimulus);
            self.sample_vcd();
        }
        self.probe_halts();
    }

    /// Enables lane-liveness early exit: after every cycle, any live lane
    /// whose `signal` probe reads nonzero is recorded as finished at the
    /// current cycle and compacted out of the evaluated lane window.
    ///
    /// Re-arming with a different signal mid-run only switches the
    /// watched probe: the lane permutation, live window, and completion
    /// records all carry over (use [`reset`](Self::reset) to start
    /// fresh).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignal`] if `signal` names neither a probe nor an
    /// output port.
    pub fn watch_halt(&mut self, signal: &str) -> Result<(), UnknownSignal> {
        let slot = self
            .plan
            .signal_slot(signal)
            .ok_or_else(|| UnknownSignal(signal.to_string()))?;
        match &mut self.liveness {
            // Keep the lane maps and live window: resetting them to
            // identity under already-permuted columns would corrupt
            // every lane-indexed read.
            Some(lv) => lv.halt_slot = slot,
            None => self.liveness = Some(LaneLiveness::new(slot, self.state.lanes())),
        }
        Ok(())
    }

    /// Re-evaluates the combinational network on the live lanes without
    /// committing registers or advancing the cycle counter: afterwards
    /// every live lane's wire slots reflect its *current* registers and
    /// inputs. The next [`step`](Self::step) recomputes the same wires
    /// from the same registers, so this never changes where a run ends
    /// up — but note the refreshed wires are one commit *ahead* of what
    /// the last step left in the slots, which is exactly why no halt
    /// probing happens here: pair with
    /// [`probe_halt_lane`](Self::probe_halt_lane) on the specific lanes
    /// whose halt should be (re)checked between cycles — e.g. freshly
    /// admitted testbenches whose halt output is combinationally high at
    /// power-on.
    pub fn eval_comb(&mut self) {
        if self.liveness.is_some() && self.state.live() == 0 {
            return;
        }
        self.kernel.eval_comb(&mut self.state);
    }

    /// Checks ONE lane's halt probe against the current slot values,
    /// between cycles: if the probe reads nonzero (and the lane is live),
    /// the lane is recorded as finished at the current cycle and
    /// compacted out of the evaluated window — without spending a cycle
    /// on it. Returns whether the lane is (now) halted. Combine with
    /// [`eval_comb`](Self::eval_comb) so the probe reflects the lane's
    /// current registers and inputs rather than the previous step's.
    ///
    /// # Panics
    ///
    /// Panics unless [`watch_halt`](Self::watch_halt) was enabled.
    pub fn probe_halt_lane(&mut self, lane: usize) -> bool {
        let lv = self
            .liveness
            .as_mut()
            .expect("probe_halt_lane needs a watch_halt signal");
        if lv.done_at[lane].is_some() {
            return true;
        }
        let phys = lv.phys_of[lane];
        if phys >= self.state.live() || self.state.slot(lv.halt_slot, phys) == 0 {
            return false;
        }
        lv.freeze(&mut self.state, phys);
        true
    }

    /// Steps until every lane has halted or `max_cycles` have elapsed,
    /// whichever comes first. Returns the number of cycles stepped.
    ///
    /// # Panics
    ///
    /// Panics unless [`watch_halt`](Self::watch_halt) was enabled.
    pub fn run_until_halt(&mut self, max_cycles: u64) -> u64 {
        assert!(
            self.liveness.is_some(),
            "run_until_halt needs a watch_halt signal"
        );
        let mut stepped = 0;
        while stepped < max_cycles && self.state.live() > 0 {
            self.step();
            stepped += 1;
        }
        stepped
    }

    /// Whether a lane's halt condition has fired (always `false` without
    /// a halt watch). Refers to the lane's *current* occupant: recycling
    /// the lane with `reset_lane` /
    /// [`admit`](Self::admit) clears the record.
    pub fn halted(&self, lane: usize) -> bool {
        self.completion_cycle(lane).is_some()
    }

    /// The cycle at which a lane halted, or `None` while it is still
    /// running (or without a halt watch). Completion records belong to
    /// lane *occupants*, not lanes: after `reset_lane`
    /// this reports `None` until the new testbench halts — it never
    /// leaks the previous occupant's completion. Durable results must be
    /// keyed by a job id harvested before recycling (see `rteaal-sched`).
    pub fn completion_cycle(&self, lane: usize) -> Option<u64> {
        self.liveness.as_ref().and_then(|lv| lv.done_at[lane])
    }

    /// Number of lanes still being evaluated (all of them without a halt
    /// watch).
    pub fn live_lanes(&self) -> usize {
        self.state.live()
    }

    /// Probes the halt row and compacts finished lanes out of the
    /// evaluated window, keeping the original↔physical lane maps in
    /// sync.
    fn probe_halts(&mut self) {
        let Some(lv) = &mut self.liveness else {
            return;
        };
        let mut phys = 0;
        while phys < self.state.live() {
            if self.state.slot(lv.halt_slot, phys) == 0 {
                phys += 1;
            } else {
                // The swapped-in occupant of `phys` still needs probing,
                // so don't advance.
                lv.freeze(&mut self.state, phys);
            }
        }
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.state.cycle()
    }

    /// Resets every lane to the power-on state (reviving halted lanes
    /// and clearing completion records).
    pub fn reset(&mut self) {
        self.state.reset();
        if let Some(lv) = &mut self.liveness {
            *lv = LaneLiveness::new(lv.halt_slot, self.state.lanes());
        }
    }

    /// Resets ONE lane to the power-on state, leaving every other lane's
    /// state, the cycle counter, and the halt watch untouched — the
    /// enabling primitive for continuous batching (recycling a drained
    /// lane under a new testbench mid-run, see `rteaal-sched`).
    ///
    /// If the lane had halted, it is revived back into the evaluated
    /// window and its completion record is cleared: after this call
    /// [`halted`](Self::halted) / [`completion_cycle`](Self::completion_cycle)
    /// refer to the lane's *new* occupant and report "still running" —
    /// never the previous testbench's completion. Callers that need the
    /// old result must harvest it first (keyed by their own job id, as
    /// the scheduler does).
    pub(crate) fn reset_lane(&mut self, lane: usize) {
        let mut phys = self.phys(lane);
        if let Some(lv) = &mut self.liveness {
            lv.done_at[lane] = None;
            let live = self.state.live();
            if phys >= live {
                // Swap the frozen column back to the live frontier and
                // grow the window over it.
                self.state.swap_lanes(phys, live);
                lv.swap_phys(phys, live);
                self.state.set_live(live + 1);
                phys = live;
            }
        }
        self.state.reset_lane(phys);
        // Record the reset-to-power-on transition at the admission
        // cycle, so a recycled lane's capture doesn't show the previous
        // occupant's frozen values bleeding into the new job (a no-op
        // when another lane is being watched: nothing changed there).
        self.sample_vcd();
    }

    /// Admits a fresh testbench into a lane: per-lane power-on reset
    /// (reviving the lane if it had halted) followed by the given input
    /// bindings, which hold until re-poked. The batch keeps running from
    /// its current cycle — other lanes are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignal`] on the first binding that names no
    /// input port (the lane is still reset, remaining bindings are not
    /// applied).
    pub fn admit<'a>(
        &mut self,
        lane: usize,
        inputs: impl IntoIterator<Item = (&'a str, u64)>,
    ) -> Result<(), UnknownSignal> {
        self.reset_lane(lane);
        for (name, value) in inputs {
            self.poke(name, lane, value)?;
        }
        Ok(())
    }

    /// Forcibly freezes a lane out of the evaluated window, as if its
    /// halt condition had fired this cycle (budget eviction: a runaway
    /// testbench stops consuming compute). Recorded as completed at the
    /// current cycle; a no-op if the lane has already halted.
    ///
    /// # Panics
    ///
    /// Panics unless [`watch_halt`](Self::watch_halt) was enabled.
    pub fn retire_lane(&mut self, lane: usize) {
        let lv = self
            .liveness
            .as_mut()
            .expect("retire_lane needs a watch_halt signal");
        if lv.done_at[lane].is_none() {
            lv.freeze(&mut self.state, lv.phys_of[lane]);
        }
    }

    /// Writes a probed signal's state directly on one lane, between
    /// cycles — the per-lane DMI analog of
    /// [`DebugModule::poke_reg`](crate::DebugModule::poke_reg). Like the
    /// scalar DMI, the value is canonicalized to the signal's width and
    /// signedness, so architectural pre-loading matches a scalar run
    /// poking the same slot and no lane ever holds a non-canonical value.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignal`] if the name is not probed.
    pub fn poke_state(&mut self, name: &str, lane: usize, value: u64) -> Result<(), UnknownSignal> {
        let (slot, width, signed) = self
            .signals
            .probe(name)
            .ok_or_else(|| UnknownSignal(name.to_string()))?;
        let phys = self.phys(lane);
        let value = canonicalize(value, width as u32, signed);
        self.state.poke_slot(slot, phys, value);
        Ok(())
    }

    /// Whether `name` is a probed signal — the namespace
    /// [`poke_state`](Self::poke_state) accepts. Lets callers validate a
    /// testbench's bindings before mutating any lane (see the
    /// `rteaal-sched` admission path).
    pub fn probed(&self, name: &str) -> bool {
        self.signals.probe(name).is_some()
    }

    /// Enables VCD waveform capture of ONE user-facing lane, over all
    /// probed signals (the ROADMAP "batched waveforms" path: the scalar
    /// change-detecting writer, addressed through the lane permutation,
    /// so compaction never changes which testbench is being recorded).
    /// Capture follows the lane across recycling: after
    /// [`admit`](Self::admit) the same writer keeps recording the new
    /// occupant.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn enable_lane_waveforms(&mut self, lane: usize) {
        assert!(lane < self.state.lanes(), "lane {lane} out of range");
        let writer = VcdWriter::new(&self.plan.name, &self.plan.probes);
        self.vcd = Some(LaneVcd { lane, writer });
        self.sample_vcd();
    }

    /// Finishes lane waveform capture and returns the VCD text.
    pub fn take_vcd(&mut self) -> Option<String> {
        self.vcd.take().map(|v| v.writer.finish())
    }

    /// Samples the watched lane into the VCD (after each cycle, and once
    /// at enable time).
    fn sample_vcd(&mut self) {
        let Some(v) = &mut self.vcd else {
            return;
        };
        let phys = self
            .liveness
            .as_ref()
            .map_or(v.lane, |lv| lv.phys_of[v.lane]);
        let state = &self.state;
        v.writer
            .sample(state.cycle(), |slot| state.slot(slot, phys));
    }

    /// Index of a named input port (for driving through a
    /// [`LanePoker`] inside [`run_with_stimulus`](Self::run_with_stimulus)).
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.signals.input(name)
    }

    /// All probe names (sorted) — the visible signal namespace.
    pub fn signals(&self) -> Vec<&str> {
        self.signals.names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use crate::simulation::Simulation;
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

    fn compiled(kind: KernelKind) -> Compiled {
        Compiler::new(KernelConfig::new(kind))
            .compile_str(SRC)
            .unwrap()
    }

    #[test]
    fn per_lane_poke_peek() {
        let c = compiled(KernelKind::Psu);
        let mut batch = BatchSimulation::new(&c, 3);
        for lane in 0..3 {
            batch.poke("x", lane, 10 * (lane as u64 + 1)).unwrap();
        }
        batch.step_cycles(4);
        for lane in 0..3 {
            assert_eq!(batch.peek("out", lane), Some(40 * (lane as u64 + 1)));
            assert_eq!(batch.peek("acc", lane), Some(40 * (lane as u64 + 1)));
        }
        assert!(batch.poke("nope", 0, 1).is_err());
        assert_eq!(batch.peek("ghost", 0), None);
        assert_eq!(batch.cycle(), 4);
    }

    #[test]
    fn lanes_match_scalar_simulations() {
        let c = compiled(KernelKind::Nu);
        const LANES: usize = 5;
        let mut batch = BatchSimulation::new(&c, LANES);
        let x_idx = batch.input_index("x").unwrap();
        batch.run_with_stimulus(50, |cycle, poker| {
            for lane in 0..LANES {
                poker.set_input(x_idx, lane, cycle ^ (lane as u64) << 3);
            }
        });
        for lane in 0..LANES {
            let mut single = Simulation::new(compiled(KernelKind::Nu));
            for cycle in 0..50 {
                single.poke("x", cycle ^ (lane as u64) << 3).unwrap();
                single.step();
            }
            for name in ["out", "big", "acc"] {
                assert_eq!(
                    batch.peek(name, lane),
                    single.peek(name),
                    "lane {lane} signal {name}"
                );
            }
        }
    }

    /// A counter that raises `done` once it reaches a per-lane limit —
    /// the minimal halt-condition workload.
    const HALT_SRC: &str = "\
circuit H :
  module H :
    input clock : Clock
    input limit : UInt<8>
    output cnt : UInt<8>
    output done : UInt<1>
    reg acc : UInt<8>, clock
    acc <= tail(add(acc, UInt<8>(1)), 1)
    cnt <= acc
    done <= geq(acc, limit)
";

    #[test]
    fn early_exit_records_per_lane_completion_and_freezes_state() {
        let c = Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(HALT_SRC)
            .unwrap();
        const LANES: usize = 6;
        let mut sim = BatchSimulation::new(&c, LANES);
        sim.watch_halt("done").unwrap();
        for lane in 0..LANES {
            // `done` compares the committed acc, so lane L's halt is
            // observed at cycle L + 3: acc reaches L + 2 after step
            // L + 2, and the comparison sees it one step later.
            sim.poke("limit", lane, lane as u64 + 2).unwrap();
        }
        assert_eq!(sim.live_lanes(), LANES);
        let stepped = sim.run_until_halt(100);
        assert_eq!(stepped, LANES as u64 + 2);
        assert_eq!(sim.live_lanes(), 0);
        for lane in 0..LANES {
            assert!(sim.halted(lane));
            assert_eq!(sim.completion_cycle(lane), Some(lane as u64 + 3));
            // Frozen at the halt cycle (acc committed once more during
            // the halting step).
            assert_eq!(sim.peek("cnt", lane), Some(lane as u64 + 3), "lane {lane}");
            assert_eq!(sim.peek("done", lane), Some(1));
        }
        // Fully-halted batches no-op instead of burning cycles.
        let cycle = sim.cycle();
        sim.step_cycles(50);
        assert_eq!(sim.cycle(), cycle);
        // Reset revives every lane and clears the completion records.
        sim.reset();
        assert_eq!(sim.live_lanes(), LANES);
        assert!(!sim.halted(0));
        assert_eq!(sim.completion_cycle(3), None);
    }

    #[test]
    fn early_exit_lane_indexing_is_stable_across_compaction() {
        let c = Compiler::new(KernelConfig::new(KernelKind::Nu))
            .compile_str(HALT_SRC)
            .unwrap();
        const LANES: usize = 5;
        let mut sim = BatchSimulation::new(&c, LANES);
        sim.watch_halt("done").unwrap();
        // Lane 0 halts *last*, so compaction reorders the physical
        // columns under every earlier lane.
        for lane in 0..LANES {
            let limit = (LANES - lane) as u64 + 1;
            sim.poke("limit", lane, limit).unwrap();
        }
        sim.run_until_halt(100);
        for lane in 0..LANES {
            let limit = (LANES - lane) as u64 + 1;
            assert_eq!(sim.completion_cycle(lane), Some(limit + 1), "lane {lane}");
            assert_eq!(sim.peek("cnt", lane), Some(limit + 1), "lane {lane}");
            assert_eq!(sim.peek("limit", lane), Some(limit), "lane {lane}");
        }
    }

    #[test]
    fn reset_lane_revives_and_forgets_the_previous_occupant() {
        let c = Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(HALT_SRC)
            .unwrap();
        const LANES: usize = 4;
        let mut sim = BatchSimulation::new(&c, LANES);
        sim.watch_halt("done").unwrap();
        for lane in 0..LANES {
            sim.poke("limit", lane, lane as u64 + 2).unwrap();
        }
        sim.run_until_halt(100);
        assert_eq!(sim.live_lanes(), 0);
        let frozen: Vec<Option<u64>> = (0..LANES).map(|l| sim.peek("cnt", l)).collect();
        // Recycle lane 1 under a fresh, longer testbench.
        sim.admit(1, [("limit", 9u64)]).unwrap();
        assert_eq!(sim.live_lanes(), 1);
        // Stale queries must not report the previous occupant.
        assert!(!sim.halted(1));
        assert_eq!(sim.completion_cycle(1), None);
        assert_eq!(sim.peek("cnt", 1), Some(0), "power-on state");
        assert_eq!(sim.peek("limit", 1), Some(9));
        let admitted_at = sim.cycle();
        sim.run_until_halt(100);
        // The recycled lane ran its own full job length from admission.
        let local = sim.completion_cycle(1).unwrap() - admitted_at;
        assert_eq!(local, 9 + 1);
        assert_eq!(sim.peek("cnt", 1), Some(9 + 1));
        // Every other lane stayed frozen at its own halt state.
        for lane in [0usize, 2, 3] {
            assert_eq!(sim.peek("cnt", lane), frozen[lane], "lane {lane}");
            assert_eq!(sim.completion_cycle(lane), Some(lane as u64 + 3));
        }
    }

    #[test]
    fn retire_lane_evicts_a_running_lane() {
        let c = Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(HALT_SRC)
            .unwrap();
        let mut sim = BatchSimulation::new(&c, 3);
        sim.watch_halt("done").unwrap();
        // Unreachable limits: nothing halts on its own.
        for lane in 0..3 {
            sim.poke("limit", lane, 200).unwrap();
        }
        sim.step_cycles(5);
        sim.retire_lane(1);
        assert_eq!(sim.live_lanes(), 2);
        assert_eq!(sim.completion_cycle(1), Some(5));
        let frozen = sim.peek("cnt", 1);
        sim.step_cycles(4);
        // Retired lane is frozen; survivors kept counting.
        assert_eq!(sim.peek("cnt", 1), frozen);
        assert_eq!(sim.peek("cnt", 0), Some(9));
        // Retiring twice is a no-op; admit revives the lane.
        sim.retire_lane(1);
        assert_eq!(sim.completion_cycle(1), Some(5));
        sim.admit(1, [("limit", 3u64)]).unwrap();
        assert_eq!(sim.live_lanes(), 3);
        let admitted_at = sim.cycle();
        sim.step_cycles(10);
        assert_eq!(sim.completion_cycle(1), Some(admitted_at + 4));
    }

    #[test]
    fn eval_comb_refreshes_wires_and_probe_halt_lane_is_selective() {
        let c = Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(HALT_SRC)
            .unwrap();
        let mut sim = BatchSimulation::new(&c, 2);
        sim.watch_halt("done").unwrap();
        sim.poke("limit", 0, 0).unwrap(); // done is true of the power-on state
        sim.poke("limit", 1, 5).unwrap();
        // Before any step the done slot still holds its power-on value;
        // eval_comb computes it from the current registers and inputs.
        sim.eval_comb();
        assert_eq!(sim.peek("done", 0), Some(1));
        assert_eq!(sim.peek("done", 1), Some(0));
        // Probing is per-lane: lane 0 compacts out at cycle 0, lane 1
        // stays live and un-probed.
        assert!(sim.probe_halt_lane(0));
        assert!(!sim.probe_halt_lane(1));
        assert_eq!(sim.completion_cycle(0), Some(0));
        assert_eq!(sim.completion_cycle(1), None);
        assert_eq!(sim.live_lanes(), 1);
        // Re-probing a halted lane is a cheap no-op that stays true.
        assert!(sim.probe_halt_lane(0));
        // eval_comb between cycles is invisible to the run: lane 1 still
        // halts at its normal post-step observation cycle.
        let mut undisturbed = BatchSimulation::new(&c, 1);
        undisturbed.watch_halt("done").unwrap();
        undisturbed.poke("limit", 0, 5).unwrap();
        undisturbed.run_until_halt(100);
        while sim.live_lanes() > 0 {
            sim.eval_comb();
            sim.step();
        }
        assert_eq!(sim.completion_cycle(1), undisturbed.completion_cycle(0));
        assert_eq!(sim.peek("cnt", 1), undisturbed.peek("cnt", 0));
    }

    #[test]
    fn poke_state_is_a_per_lane_dmi() {
        let c = compiled(KernelKind::Psu);
        let mut sim = BatchSimulation::new(&c, 2);
        for lane in 0..2 {
            sim.poke("x", lane, 1).unwrap();
        }
        sim.poke_state("acc", 1, 90).unwrap();
        assert!(sim.poke_state("nope", 0, 1).is_err());
        sim.step_cycles(3);
        assert_eq!(sim.peek("out", 0), Some(3));
        assert_eq!(sim.peek("out", 1), Some(93));
    }

    #[test]
    fn lane_waveform_follows_one_lane_across_compaction() {
        let c = Compiler::new(KernelConfig::new(KernelKind::Nu))
            .compile_str(HALT_SRC)
            .unwrap();
        const LANES: usize = 3;
        let mut sim = BatchSimulation::new(&c, LANES);
        sim.watch_halt("done").unwrap();
        // Lane 2 halts last, so compaction moves its physical column.
        for lane in 0..LANES {
            sim.poke("limit", lane, 3 * (lane as u64 + 1)).unwrap();
        }
        sim.enable_lane_waveforms(2);
        sim.run_until_halt(50);
        let vcd = sim.take_vcd().unwrap();
        assert!(vcd.contains("$var"));
        assert!(vcd.contains("acc"));
        // The watched lane counts to its own limit: its last acc change
        // lands at its halt cycle, past the other lanes' halts.
        let halt = sim.completion_cycle(2).unwrap();
        assert!(
            vcd.contains(&format!("#{halt}")),
            "vcd reaches lane 2's halt"
        );
        // Scalar-equivalent content: a 1-lane batch of the same
        // testbench produces the identical VCD body.
        let mut solo = BatchSimulation::new(&c, 1);
        solo.watch_halt("done").unwrap();
        solo.poke("limit", 0, 3 * LANES as u64).unwrap();
        solo.enable_lane_waveforms(0);
        solo.run_until_halt(50);
        let solo_vcd = solo.take_vcd().unwrap();
        assert_eq!(vcd, solo_vcd, "compaction must not leak into the capture");
        assert_eq!(sim.take_vcd(), None, "take_vcd drains the writer");
    }

    #[test]
    fn watch_halt_rejects_unknown_signals() {
        let c = compiled(KernelKind::Psu);
        let mut sim = BatchSimulation::new(&c, 2);
        assert!(sim.watch_halt("no_such_signal").is_err());
        // Output ports resolve even when not probed by name.
        assert!(sim.watch_halt("big").is_ok());
    }

    #[test]
    fn poke_all_and_reset() {
        let c = compiled(KernelKind::Ti);
        let mut batch = BatchSimulation::new(&c, 4);
        for lane in 0..4 {
            batch.poke("x", lane, 5).unwrap();
        }
        batch.step_cycles(3);
        for lane in 0..4 {
            assert_eq!(batch.peek("out", lane), Some(15));
        }
        batch.reset();
        assert_eq!(batch.cycle(), 0);
        assert_eq!(batch.peek("acc", 2), Some(0));
        assert!(batch.signals().contains(&"acc"));
    }
}
