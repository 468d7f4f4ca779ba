//! RepCut partition decomposition of a levelized [`SimPlan`] (paper
//! Appendix C, Cascade 2) — the plan-level stage the whole execution
//! stack threads through.
//!
//! RepCut [Wang & Beamer 2023] splits the dataflow graph into `C` fully
//! decoupled sectors by *replicating* each sector's shared fan-in cone.
//! Every register is *updated* in exactly one partition; at the end of
//! each cycle the register update map (`RUM`) tensor propagates the
//! committed values to every partition that reads them — the extra
//! `LI_{c+1} = LI_{c,I} · RUM` Einsum that distinguishes Cascade 2 from
//! Cascade 1.
//!
//! [`PartitionedPlan`] is the *compiler artifact* of that cascade (and
//! the stack's one RepCut implementation — the scalar executable model
//! `rteaal_einsum::RepCutSim` runs it too): pure per-partition op
//! schedules (same layer structure as the source plan, so the
//! levelization barrier argument carries over unchanged), the owned
//! commit list of each partition, the RUM, and a per-slot *home* map
//! naming the partition whose replica holds each slot's authoritative
//! value. `rteaal_kernels::BatchKernel` consumes it to run a 2-D
//! partition × lane work decomposition; `rteaal_core`, `rteaal-sched`,
//! and `rteaal-serve` thread it upward from there.
//!
//! The schedules cover **every** op of the plan: ops reachable from
//! neither a register nor an output (named probe cones kept for
//! waveforms and halt conditions) are folded into partition 0, so any
//! probed slot reads the same value a scalar run would report.

use crate::lane_kernel::LaneLayout;
use crate::plan::SimPlan;
use crate::OpInst;
use std::collections::HashSet;

/// One partition's op schedule: the replicated cone needed to update its
/// owned registers (plus, for partition 0, the design outputs and any
/// probe-only cones).
#[derive(Debug, Clone)]
pub struct PartitionSchedule {
    /// Filtered layers, same layer count and intra-layer order as the
    /// source plan.
    pub layers: Vec<Vec<OpInst>>,
    /// Registers *owned* (updated) by this partition: `(slot, next slot)`
    /// pairs in plan commit order.
    pub commits: Vec<(u32, u32)>,
}

impl PartitionSchedule {
    /// Ops this partition evaluates per cycle.
    pub(crate) fn total_ops(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }
}

/// One entry of the register update map: where a register is committed
/// and which partitions read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RumEntry {
    /// The register's `LI` slot.
    pub slot: u32,
    /// Partition that commits it.
    pub owner: u32,
    /// Partitions that read it (differential exchange: only actual
    /// readers receive the committed value).
    pub readers: Vec<u32>,
}

/// A RepCut decomposition of one [`SimPlan`]: per-partition schedules,
/// the register update map, and the per-slot home map.
///
/// Invariants the execution layers rely on:
///
/// - every op of the source plan appears in at least one partition, at
///   its original layer;
/// - each register is committed by exactly `partitions[home]`, and every
///   partition whose cone reads it appears in that register's
///   [`RumEntry::readers`];
/// - `home[s]` names a partition whose schedule computes slot `s` (for
///   register slots: the owner; for source slots — inputs, constants —
///   partition 0, since those rows are replicated identically).
#[derive(Debug, Clone)]
pub struct PartitionedPlan {
    /// The per-partition schedules; `[0]` additionally carries the
    /// design outputs and probe-only cones.
    pub partitions: Vec<PartitionSchedule>,
    /// The register update map, one entry per plan commit, in plan
    /// order.
    pub rum: Vec<RumEntry>,
    /// `slot -> partition` whose replica holds the slot's authoritative
    /// value (the read-indirection map for probes, outputs, and halt
    /// conditions).
    pub home: Vec<u32>,
    /// Total ops across partitions (>= the unpartitioned op count).
    pub replicated_ops: usize,
    /// Ops in the unpartitioned plan.
    pub base_ops: usize,
    /// The source plan's slot types and lane type: the schedules alone do
    /// not type registers, inputs and constants, and the kernel and the
    /// state built from this decomposition must agree on the rows.
    pub lanes: LaneLayout,
}

impl PartitionedPlan {
    /// Runs RepCut on a levelized plan: round-robin register ownership,
    /// backward cone closure per partition, RUM construction, and a
    /// final sweep folding uncovered (probe-only) ops into partition 0.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions` is zero.
    pub fn new(plan: &SimPlan, num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        // Producer map: slot -> (layer, index within layer).
        let mut producer: Vec<Option<(usize, usize)>> = vec![None; plan.num_slots];
        for (i, layer) in plan.layers.iter().enumerate() {
            for (k, op) in layer.iter().enumerate() {
                producer[op.out as usize] = Some((i, k));
            }
        }
        // Round-robin register ownership; outputs belong to partition 0.
        let mut roots: Vec<Vec<u32>> = vec![Vec::new(); num_partitions];
        let mut commits: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_partitions];
        for (r, &(dst, src)) in plan.commits.iter().enumerate() {
            let p = r % num_partitions;
            roots[p].push(src);
            commits[p].push((dst, src));
        }
        for (_, s) in &plan.output_slots {
            roots[0].push(*s);
        }
        let reg_slots: HashSet<u32> = plan.commits.iter().map(|&(dst, _)| dst).collect();
        // Backward closure per partition. Partitions 1.. first, so the
        // union of their cones tells partition 0 which leftover (probe
        // or otherwise unreachable) ops it must also carry.
        let mut included: Vec<HashSet<(usize, usize)>> = vec![HashSet::new(); num_partitions];
        let mut read_regs: Vec<HashSet<u32>> = vec![HashSet::new(); num_partitions];
        let mut seen0 = HashSet::new();
        for p in (0..num_partitions).rev() {
            let mut work = std::mem::take(&mut roots[p]);
            let mut seen: HashSet<u32> = HashSet::new();
            while let Some(slot) = work.pop() {
                if !seen.insert(slot) {
                    continue;
                }
                if reg_slots.contains(&slot) {
                    read_regs[p].insert(slot);
                }
                if let Some(loc) = producer[slot as usize] {
                    if included[p].insert(loc) {
                        work.extend(plan.layers[loc.0][loc.1].ins.iter().copied());
                    }
                }
            }
            if p == 0 {
                seen0 = seen;
            }
        }
        // Full coverage: ops in no partition (probe-only cones the plan
        // keeps for waveforms and halt conditions) close into partition
        // 0, so every slot has a partition that computes it.
        let mut uncovered: Vec<u32> = Vec::new();
        for (i, layer) in plan.layers.iter().enumerate() {
            for (k, op) in layer.iter().enumerate() {
                if !included.iter().any(|inc| inc.contains(&(i, k))) {
                    uncovered.push(op.out);
                }
            }
        }
        {
            let mut work = uncovered;
            while let Some(slot) = work.pop() {
                if !seen0.insert(slot) {
                    continue;
                }
                if reg_slots.contains(&slot) {
                    read_regs[0].insert(slot);
                }
                if let Some(loc) = producer[slot as usize] {
                    if included[0].insert(loc) {
                        work.extend(plan.layers[loc.0][loc.1].ins.iter().copied());
                    }
                }
            }
        }
        // Materialize the filtered schedules (plan order preserved).
        let mut replicated_ops = 0;
        let partitions: Vec<PartitionSchedule> = (0..num_partitions)
            .map(|p| {
                let layers: Vec<Vec<OpInst>> = plan
                    .layers
                    .iter()
                    .enumerate()
                    .map(|(i, layer)| {
                        layer
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| included[p].contains(&(i, *k)))
                            .map(|(_, op)| op.clone())
                            .collect()
                    })
                    .collect();
                replicated_ops += included[p].len();
                PartitionSchedule {
                    layers,
                    commits: std::mem::take(&mut commits[p]),
                }
            })
            .collect();
        // The RUM: owner plus actual readers, per register.
        let rum: Vec<RumEntry> = plan
            .commits
            .iter()
            .enumerate()
            .map(|(r, &(dst, _))| {
                let owner = (r % num_partitions) as u32;
                let readers: Vec<u32> = (0..num_partitions as u32)
                    .filter(|&q| q != owner && read_regs[q as usize].contains(&dst))
                    .collect();
                RumEntry {
                    slot: dst,
                    owner,
                    readers,
                }
            })
            .collect();
        // Home map: registers live with their owner; computed slots with
        // the lowest partition that computes them; sources (inputs,
        // constants — replicated identically) with partition 0.
        let mut home = vec![0u32; plan.num_slots];
        for (i, layer) in plan.layers.iter().enumerate() {
            for (k, op) in layer.iter().enumerate() {
                let p = (0..num_partitions)
                    .find(|&p| included[p].contains(&(i, k)))
                    .expect("coverage sweep left no orphan ops");
                home[op.out as usize] = p as u32;
            }
        }
        for entry in &rum {
            home[entry.slot as usize] = entry.owner;
        }
        PartitionedPlan {
            partitions,
            rum,
            home,
            replicated_ops,
            base_ops: plan.total_ops(),
            lanes: LaneLayout::of(plan),
        }
    }

    /// Replication overhead: total replicated ops over the unpartitioned
    /// op count (1.0 = no replication).
    pub fn replication_factor(&self) -> f64 {
        if self.base_ops == 0 {
            1.0
        } else {
            self.replicated_ops as f64 / self.base_ops as f64
        }
    }

    /// Ops evaluated per cycle by each partition.
    pub fn op_counts(&self) -> Vec<usize> {
        self.partitions
            .iter()
            .map(PartitionSchedule::total_ops)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    const CROSS: &str = "\
circuit X :
  module X :
    input clock : Clock
    input a : UInt<8>
    input b : UInt<8>
    output o1 : UInt<8>
    output o2 : UInt<8>
    reg r1 : UInt<8>, clock
    reg r2 : UInt<8>, clock
    reg r3 : UInt<8>, clock
    reg r4 : UInt<8>, clock
    node s = tail(add(r1, r2), 1)
    node d = tail(sub(r3, r4), 1)
    r1 <= tail(add(s, a), 1)
    r2 <= xor(d, b)
    r3 <= and(s, d)
    r4 <= or(r1, r2)
    o1 <= s
    o2 <= d
";

    fn plan_of(src: &str) -> SimPlan {
        plan(&crate::build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap())
    }

    #[test]
    fn single_partition_covers_the_whole_plan_without_replication() {
        let p = plan_of(CROSS);
        let pp = PartitionedPlan::new(&p, 1);
        assert_eq!(pp.partitions.len(), 1);
        assert_eq!(pp.replicated_ops, p.total_ops());
        assert!((pp.replication_factor() - 1.0).abs() < 1e-12);
        assert_eq!(pp.partitions[0].commits, p.commits);
        assert!(pp.rum.iter().all(|e| e.owner == 0 && e.readers.is_empty()));
        assert!(pp.home.iter().all(|&h| h == 0));
        // Same layer structure, same per-layer op counts.
        for (filtered, original) in pp.partitions[0].layers.iter().zip(&p.layers) {
            assert_eq!(filtered.len(), original.len());
        }
    }

    #[test]
    fn every_op_is_covered_and_every_register_owned_once() {
        let p = plan_of(CROSS);
        for parts in [2usize, 3, 4, 8] {
            let pp = PartitionedPlan::new(&p, parts);
            assert_eq!(pp.partitions.len(), parts);
            // Each op location appears in >= 1 partition: per-layer union
            // of outs covers the plan layer's outs.
            for (i, layer) in p.layers.iter().enumerate() {
                let mut outs: HashSet<u32> = HashSet::new();
                for sched in &pp.partitions {
                    outs.extend(sched.layers[i].iter().map(|op| op.out));
                }
                for op in layer {
                    assert!(outs.contains(&op.out), "op at layer {i} uncovered");
                }
            }
            // Commits partition the plan's commit list.
            let mut all: Vec<(u32, u32)> = pp
                .partitions
                .iter()
                .flat_map(|s| s.commits.iter().copied())
                .collect();
            all.sort_unstable();
            let mut expect = p.commits.clone();
            expect.sort_unstable();
            assert_eq!(all, expect);
            // RUM: one entry per commit, owner round-robin, no
            // self-reads.
            assert_eq!(pp.rum.len(), p.commits.len());
            for (r, e) in pp.rum.iter().enumerate() {
                assert_eq!(e.owner as usize, r % parts);
                assert!(!e.readers.contains(&e.owner));
            }
            // Homes point at partitions that actually compute the slot.
            for (i, layer) in p.layers.iter().enumerate() {
                for op in layer {
                    let h = pp.home[op.out as usize] as usize;
                    assert!(
                        pp.partitions[h].layers[i].iter().any(|o| o.out == op.out),
                        "home of slot {} does not compute it",
                        op.out
                    );
                }
            }
            for e in &pp.rum {
                assert_eq!(pp.home[e.slot as usize], e.owner);
            }
        }
    }

    #[test]
    fn cross_coupled_registers_force_replication() {
        let p = plan_of(CROSS);
        let pp = PartitionedPlan::new(&p, 4);
        assert!(
            pp.replication_factor() > 1.0,
            "factor = {}",
            pp.replication_factor()
        );
        assert!(pp.rum.iter().any(|e| !e.readers.is_empty()));
        // Differential exchange: not every register is broadcast.
        assert!(pp.rum.iter().any(|e| e.readers.len() < 3));
    }

    #[test]
    fn dangling_probe_cones_fold_into_partition_zero() {
        // A hand-built plan with an op reachable from neither a register
        // next-value nor an output — the shape a probe-keeping compile
        // mode produces. `build` prunes such nodes today, so this guards
        // the coverage sweep directly: the dangling cone must land in
        // partition 0, and the register it reads must gain partition 0
        // as a RUM reader.
        use crate::op::DfgOp;
        use crate::plan::PlanStats;
        // Slots: 0 = input a, 1 = reg r0, 2 = reg r1, 3 = r0.next,
        // 4 = r1.next, 5 = dangling = xor(a, r1).
        let mk = |op: DfgOp, out: u32, ins: Vec<u32>| OpInst {
            n: op.n_coord(),
            out,
            ins,
            params: Vec::new(),
            width: 8,
            signed: false,
        };
        let p = SimPlan {
            name: "dangling".to_string(),
            num_slots: 6,
            input_slots: vec![0],
            input_types: vec![(8, false)],
            output_slots: vec![("o".to_string(), 1)],
            const_slots: (0, 0),
            commits: vec![(1, 3), (2, 4)],
            init_values: vec![0; 6],
            layers: vec![vec![
                mk(DfgOp::Add, 3, vec![1, 0]),
                mk(DfgOp::Add, 4, vec![2, 0]),
                mk(DfgOp::Xor, 5, vec![0, 2]),
            ]],
            stats: PlanStats::default(),
            probes: vec![("dangling".to_string(), 5, 8)],
            signed_probes: vec![],
        };
        let pp = PartitionedPlan::new(&p, 2);
        // r0 -> partition 0, r1 -> partition 1; the dangling xor is in
        // neither cone and must fold into partition 0.
        assert_eq!(pp.home[5], 0);
        assert!(
            pp.partitions[0].layers[0].iter().any(|op| op.out == 5),
            "dangling cone unscheduled"
        );
        assert_eq!(pp.op_counts(), vec![2, 1]);
        // The fold makes partition 0 a genuine reader of r1: its
        // committed value must be RUM-delivered every cycle.
        let r1 = pp.rum.iter().find(|e| e.slot == 2).expect("r1 entry");
        assert_eq!(r1.owner, 1);
        assert_eq!(r1.readers, vec![0]);
    }

    #[test]
    fn more_partitions_than_registers_leaves_empty_schedules() {
        let p = plan_of(CROSS); // 4 registers
        let pp = PartitionedPlan::new(&p, 8);
        assert_eq!(pp.partitions.len(), 8);
        let counts = pp.op_counts();
        assert_eq!(counts.len(), 8);
        // Ownerless partitions carry no commits and (here) no ops.
        for sched in &pp.partitions[4..] {
            assert!(sched.commits.is_empty());
        }
        assert_eq!(pp.op_counts().iter().sum::<usize>(), pp.replicated_ops);
    }
}
