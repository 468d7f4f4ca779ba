//! Batched plan simulation: one [`SimPlan`], `B` stimulus lanes.
//!
//! Layer-at-a-time evaluation is data-parallel in two independent
//! directions: *within* a layer every operation is independent (the
//! levelization barrier guarantees operands come from strictly earlier
//! layers), and *across lanes* the same operation applied to independent
//! stimulus vectors shares all of its coordinate metadata. Batching
//! exploits the second direction: the `LI` slot array is widened from one
//! `u64` per slot to `B` lanes per slot in **slot-major** layout (slot
//! `s` occupies `li[s * B .. (s + 1) * B]`), so one traversal of the
//! `OIM` amortizes coordinate reads, dispatch, and loop overhead over `B`
//! simulations while every data stream stays stride-1.
//!
//! [`BatchPlanSim`] is the sequential reference for this execution
//! model and nothing else: the **interpreted** per-lane `eval_raw` walk —
//! bit-exact against `B` independent [`PlanSim`](crate::plan::PlanSim)
//! runs by construction, and the golden model both the compiled lane
//! kernels ([`crate::lane_kernel`]) and the thread-parallel engine in
//! `rteaal-kernels` are differentially tested against.

use crate::lane_kernel::{Lane, LaneWindow};
use crate::op::canonicalize;
use crate::plan::{split_commits, SimPlan};

/// Replicates a plan's initial `LI` contents across `lanes` lanes in
/// slot-major layout, in rows of `T` (a plan's own lane type is
/// [`LaneType::of`](crate::lane_kernel::LaneType::of); `u64` rows hold
/// any plan).
pub fn init_lanes<T: Lane>(plan: &SimPlan, lanes: usize) -> Vec<T> {
    let mut li = Vec::with_capacity(plan.num_slots * lanes);
    for &v in &plan.init_values {
        li.extend(std::iter::repeat_n(T::truncate(v), lanes));
    }
    li
}

/// The batched plan simulator (Algorithm 3 with a lane inner loop).
#[derive(Debug, Clone)]
pub struct BatchPlanSim<'p> {
    plan: &'p SimPlan,
    lanes: usize,
    li: Vec<u64>,
    buf: Vec<u64>,
    /// Alias-free commits, copied row-to-row without staging.
    commit_direct: Vec<(u32, u32)>,
    /// Overlapping commits, staged through `commit_buf`.
    commit_staged: Vec<(u32, u32)>,
    commit_buf: Vec<u64>,
    cycle: u64,
}

impl<'p> BatchPlanSim<'p> {
    /// Creates a `lanes`-wide simulator with every lane at the plan's
    /// initial state, walking the layers with the interpreted per-lane
    /// dispatch — the golden model for differential tests.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn interpreted(plan: &'p SimPlan, lanes: usize) -> Self {
        assert!(lanes > 0, "batch needs at least one lane");
        let (commit_direct, commit_staged) = split_commits(&plan.commits);
        BatchPlanSim {
            plan,
            lanes,
            li: init_lanes(plan, lanes),
            buf: Vec::with_capacity(8),
            commit_buf: vec![0; commit_staged.len() * lanes],
            commit_direct,
            commit_staged,
            cycle: 0,
        }
    }

    /// Number of stimulus lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Drives input port `idx` on one lane (canonicalized to the port
    /// type).
    pub fn set_input(&mut self, idx: usize, lane: usize, value: u64) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let (w, signed) = self.plan.input_types[idx];
        self.li[self.plan.input_slots[idx] as usize * self.lanes + lane] =
            canonicalize(value, w as u32, signed);
    }

    /// Drives input port `idx` identically on every lane: canonicalizes
    /// once and fills the lane row.
    pub fn set_input_all(&mut self, idx: usize, value: u64) {
        let (w, signed) = self.plan.input_types[idx];
        let v = canonicalize(value, w as u32, signed);
        let s0 = self.plan.input_slots[idx] as usize * self.lanes;
        self.li[s0..s0 + self.lanes].fill(v);
    }

    /// Resets one lane's column to the plan's power-on state — register
    /// init values, constants, and zeroed inputs/nodes — leaving every
    /// other lane untouched. This is the per-lane analog of re-creating
    /// the simulator: the enabling primitive for recycling a finished
    /// lane under a new testbench mid-run (continuous batching).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn reset_lane(&mut self, lane: usize) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        for (s, &v) in self.plan.init_values.iter().enumerate() {
            self.li[s * self.lanes + lane] = v;
        }
    }

    /// One clock cycle on every lane: evaluate each layer lane-wise, then
    /// commit registers lane-wise.
    pub fn step(&mut self) {
        let w = LaneWindow::full(self.lanes);
        for layer in &self.plan.layers {
            for op in layer {
                op.eval_lanes(&mut self.li, w, &mut self.buf);
            }
        }
        let lanes = self.lanes;
        // Stage the overlapping pairs' sources first, ...
        for (k, &(_, src)) in self.commit_staged.iter().enumerate() {
            let s0 = src as usize * lanes;
            self.commit_buf[k * lanes..(k + 1) * lanes].copy_from_slice(&self.li[s0..s0 + lanes]);
        }
        // ... then copy the alias-free rows directly (their destinations
        // are outside the source set, so no read is clobbered), ...
        for &(dst, src) in &self.commit_direct {
            let (d0, s0) = (dst as usize * lanes, src as usize * lanes);
            self.li.copy_within(s0..s0 + lanes, d0);
        }
        // ... then land the staged values.
        for (k, &(dst, _)) in self.commit_staged.iter().enumerate() {
            let d0 = dst as usize * lanes;
            self.li[d0..d0 + lanes].copy_from_slice(&self.commit_buf[k * lanes..(k + 1) * lanes]);
        }
        self.cycle += 1;
    }

    /// Output value of one lane, by port index.
    pub fn output(&self, idx: usize, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.li[self.plan.output_slots[idx].1 as usize * self.lanes + lane]
    }

    /// Reads any `LI` slot on one lane (probe / XMR path).
    pub fn slot(&self, s: u32, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.li[s as usize * self.lanes + lane]
    }

    /// The full lane row of a slot.
    pub fn slot_lanes(&self, s: u32) -> &[u64] {
        let s0 = s as usize * self.lanes;
        &self.li[s0..s0 + self.lanes]
    }

    /// Cycles simulated.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::plan::{plan, PlanSim};
    use rand::{Rng, SeedableRng};
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    const MIXED: &str = "\
circuit Mixed :
  module Mixed :
    input clock : Clock
    input x : UInt<8>
    input sel : UInt<1>
    output out : UInt<8>
    output flag : UInt<1>
    reg acc : UInt<8>, clock
    reg cnt : UInt<4>, clock
    node nx = tail(add(acc, x), 1)
    node alt = xor(acc, x)
    acc <= mux(sel, nx, alt)
    cnt <= tail(add(cnt, UInt<4>(1)), 1)
    out <= acc
    flag <= andr(cnt)
";

    fn plan_of(src: &str) -> SimPlan {
        plan(&build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap())
    }

    #[test]
    fn lanes_match_independent_plan_sims() {
        let p = plan_of(MIXED);
        const LANES: usize = 7;
        let mut batch = BatchPlanSim::interpreted(&p, LANES);
        let mut singles: Vec<PlanSim> = (0..LANES).map(|_| PlanSim::new(&p)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for cycle in 0..200 {
            for (lane, single) in singles.iter_mut().enumerate() {
                let x: u64 = rng.gen();
                let sel: u64 = rng.gen();
                single.set_input(0, x);
                single.set_input(1, sel);
                batch.set_input(0, lane, x);
                batch.set_input(1, lane, sel);
            }
            batch.step();
            for (lane, single) in singles.iter_mut().enumerate() {
                single.step();
                for idx in 0..p.output_slots.len() {
                    assert_eq!(
                        batch.output(idx, lane),
                        single.output(idx),
                        "lane {lane} output {idx} @ cycle {cycle}"
                    );
                }
                // Internal state agrees slot-by-slot, not just at
                // outputs.
                for s in 0..p.num_slots as u32 {
                    assert_eq!(batch.slot(s, lane), single.slot(s), "slot {s} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn set_input_all_broadcasts() {
        let p = plan_of(MIXED);
        let mut batch = BatchPlanSim::interpreted(&p, 4);
        batch.set_input_all(0, 3);
        batch.set_input_all(1, 1);
        for _ in 0..5 {
            batch.step();
        }
        let first = batch.output(0, 0);
        for lane in 1..4 {
            assert_eq!(batch.output(0, lane), first);
        }
        assert_eq!(batch.cycle(), 5);
        assert_eq!(batch.slot_lanes(p.output_slots[0].1), &[first; 4]);
    }

    #[test]
    fn set_input_all_canonicalizes_the_fill_value() {
        let p = plan_of(MIXED);
        let mut batch = BatchPlanSim::interpreted(&p, 3);
        batch.set_input_all(0, 0xfff); // x is 8 bits wide
        assert_eq!(batch.slot_lanes(p.input_slots[0]), &[0xff; 3]);
    }

    #[test]
    fn inputs_canonicalized_per_lane() {
        let p = plan_of(MIXED);
        let mut batch = BatchPlanSim::interpreted(&p, 2);
        batch.set_input(0, 1, 0xfff); // x is 8 bits wide
        let x_slot = p.input_slots[0];
        assert_eq!(batch.slot(x_slot, 0), 0);
        assert_eq!(batch.slot(x_slot, 1), 0xff);
    }

    #[test]
    fn commit_split_is_exhaustive_and_disjoint() {
        let p = plan_of(MIXED);
        let batch = BatchPlanSim::interpreted(&p, 2);
        let mut all: Vec<(u32, u32)> = batch
            .commit_direct
            .iter()
            .chain(&batch.commit_staged)
            .copied()
            .collect();
        all.sort_unstable();
        let mut want = p.commits.clone();
        want.sort_unstable();
        assert_eq!(all, want);
        // MIXED's register next-values are fresh op outputs, never
        // another commit's source, so every pair is alias-free.
        assert!(batch.commit_staged.is_empty());
        assert_eq!(batch.commit_buf.len(), 0);
    }

    #[test]
    fn overlapping_commits_are_staged() {
        // b <= a and a <= b swap through each other: both pairs overlap,
        // so both must go through the staging buffer.
        let p = plan_of(
            "\
circuit Swap :
  module Swap :
    input clock : Clock
    output out : UInt<4>
    reg a : UInt<4>, clock
    reg b : UInt<4>, clock
    a <= b
    b <= a
    out <= a
",
        );
        let mut batch = BatchPlanSim::interpreted(&p, 2);
        assert_eq!(batch.commit_staged.len(), 2);
        assert!(batch.commit_direct.is_empty());
        // And the swap semantics hold: power-on values circulate.
        let (a0, b0) = (batch.slot(p.commits[0].0, 0), batch.slot(p.commits[1].0, 0));
        batch.step();
        assert_eq!(batch.slot(p.commits[0].0, 0), b0);
        assert_eq!(batch.slot(p.commits[1].0, 0), a0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let p = plan_of(MIXED);
        let _ = BatchPlanSim::interpreted(&p, 0);
    }

    #[test]
    fn reset_lane_restores_power_on_and_spares_neighbors() {
        let p = plan_of(MIXED);
        const LANES: usize = 4;
        let mut batch = BatchPlanSim::interpreted(&p, LANES);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..20 {
            for lane in 0..LANES {
                batch.set_input(0, lane, rng.gen());
                batch.set_input(1, lane, rng.gen());
            }
            batch.step();
        }
        let before: Vec<Vec<u64>> = (0..p.num_slots as u32)
            .map(|s| batch.slot_lanes(s).to_vec())
            .collect();
        batch.reset_lane(2);
        for s in 0..p.num_slots as u32 {
            for (lane, &prev) in before[s as usize].iter().enumerate() {
                let want = if lane == 2 {
                    p.init_values[s as usize]
                } else {
                    prev
                };
                assert_eq!(batch.slot(s, lane), want, "slot {s} lane {lane}");
            }
        }
        // The reset lane now evolves exactly like a fresh simulator.
        let mut fresh = BatchPlanSim::interpreted(&p, 1);
        for cycle in 0..30 {
            let (x, sel) = (cycle * 3 + 1, cycle & 1);
            batch.set_input(0, 2, x);
            batch.set_input(1, 2, sel);
            fresh.set_input(0, 0, x);
            fresh.set_input(1, 0, sel);
            batch.step();
            fresh.step();
            for s in 0..p.num_slots as u32 {
                assert_eq!(batch.slot(s, 2), fresh.slot(s, 0), "slot {s} @ {cycle}");
            }
        }
    }
}
