//! Executable model of the RepCut simulation cascade (paper Appendix C,
//! Cascade 2).
//!
//! RepCut [Wang & Beamer 2023] partitions the dataflow graph into `C`
//! fully decoupled sectors by *replicating* the shared fan-in of each
//! sector (a data-level optimization in the extended TeAAL hierarchy,
//! Box 1). Every register is *updated* in exactly one partition; at the
//! end of each cycle the `RUM` (register update map) tensor propagates the
//! updated values to every partition that reads them — the extra
//! `LI_{c+1} = LI_{c,I} · RUM` Einsum that distinguishes Cascade 2 from
//! Cascade 1.
//!
//! [`RepCutSim`] executes exactly that cascade over the decomposition
//! the compiler produces ([`PartitionedPlan`] — the one RepCut
//! implementation of the stack: ownership, cone replication, `RUM`):
//! per-partition `LI` copies, a `RUM`-driven synchronization step, and
//! an optional threaded execution path ("parallelize across
//! partitions", Box 1 mapping level).

use rteaal_dfg::partition::{PartitionSchedule, PartitionedPlan, RumEntry};
use rteaal_dfg::SimPlan;

/// One RepCut partition at run time: its schedule (the replicated cone
/// needed to update its registers plus, for partition 0, the design
/// outputs) and its private `LI` copy.
#[derive(Debug, Clone)]
struct Partition {
    schedule: PartitionSchedule,
    li: Vec<u64>,
}

/// Partitioned, replication-aided simulator (Cascade 2).
#[derive(Debug, Clone)]
pub struct RepCutSim {
    partitions: Vec<Partition>,
    rum: Vec<RumEntry>,
    input_slots: Vec<u32>,
    input_types: Vec<(u8, bool)>,
    output_slots: Vec<(String, u32)>,
    replication: f64,
    cycle: u64,
}

impl RepCutSim {
    /// Partitions a plan into `num_partitions` sectors
    /// ([`PartitionedPlan::new`]: round-robin register assignment, each
    /// sector's full fan-in cone replicated).
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions` is zero.
    pub fn new(plan: &SimPlan, num_partitions: usize) -> Self {
        let pp = PartitionedPlan::new(plan, num_partitions);
        RepCutSim {
            replication: pp.replication_factor(),
            partitions: pp
                .partitions
                .into_iter()
                .map(|schedule| Partition {
                    schedule,
                    li: plan.init_values.clone(),
                })
                .collect(),
            rum: pp.rum,
            input_slots: plan.input_slots.clone(),
            input_types: plan.input_types.clone(),
            output_slots: plan.output_slots.clone(),
            cycle: 0,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Replication overhead: total replicated ops over the unpartitioned
    /// op count (1.0 = no replication).
    pub fn replication_factor(&self) -> f64 {
        self.replication
    }

    /// Drives an input (canonicalized, replicated into every partition).
    pub fn set_input(&mut self, idx: usize, value: u64) {
        let (w, signed) = self.input_types[idx];
        let value = rteaal_dfg::op::canonicalize(value, w as u32, signed);
        let slot = self.input_slots[idx] as usize;
        for p in &mut self.partitions {
            p.li[slot] = value;
        }
    }

    /// One cycle, partitions evaluated sequentially.
    pub fn step(&mut self) {
        for p in &mut self.partitions {
            Self::eval_partition(p);
        }
        self.synchronize();
        self.cycle += 1;
    }

    /// One cycle, partitions evaluated on scoped threads (the Box 1
    /// "parallelize across partitions" mapping optimization).
    pub fn step_parallel(&mut self) {
        std::thread::scope(|scope| {
            for p in &mut self.partitions {
                scope.spawn(|| Self::eval_partition(p));
            }
        });
        self.synchronize();
        self.cycle += 1;
    }

    fn eval_partition(p: &mut Partition) {
        let mut buf = Vec::with_capacity(8);
        for layer in &p.schedule.layers {
            for op in layer {
                op.eval_into(&mut p.li, &mut buf);
            }
        }
        // Commit owned registers (two-phase within the partition).
        let commits = &p.schedule.commits;
        let staged: Vec<u64> = commits.iter().map(|&(_, src)| p.li[src as usize]).collect();
        for (&(dst, _), v) in commits.iter().zip(staged) {
            p.li[dst as usize] = v;
        }
    }

    /// The synchronization step: the final Einsum of Cascade 2
    /// (`LI_{c+1} = LI_{c,I} · RUM :: ∧←(→)`).
    fn synchronize(&mut self) {
        for entry in &self.rum {
            let value = self.partitions[entry.owner as usize].li[entry.slot as usize];
            for &q in &entry.readers {
                self.partitions[q as usize].li[entry.slot as usize] = value;
            }
        }
    }

    /// Output value by port index (outputs live in partition 0).
    pub fn output(&self, idx: usize) -> u64 {
        self.partitions[0].li[self.output_slots[idx].1 as usize]
    }

    /// The register update map.
    pub fn rum(&self) -> &[RumEntry] {
        &self.rum
    }

    /// Cycles simulated.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rteaal_dfg::interp::Interpreter;
    use rteaal_dfg::plan::plan;
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

    fn setup(n: usize) -> (rteaal_dfg::Graph, RepCutSim) {
        let g = rteaal_dfg::build(&lower_typed(&parse(CROSS).unwrap()).unwrap()).unwrap();
        let p = plan(&g);
        let rc = RepCutSim::new(&p, n);
        (g, rc)
    }

    fn check_equiv(n: usize, parallel: bool, cycles: u64) {
        let (g, mut rc) = setup(n);
        let mut golden = Interpreter::new(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        for _ in 0..cycles {
            for i in 0..g.inputs.len() {
                let v: u64 = rng.gen();
                golden.set_input(i, v);
                rc.set_input(i, v);
            }
            golden.step();
            if parallel {
                rc.step_parallel();
            } else {
                rc.step();
            }
            for i in 0..g.outputs.len() {
                assert_eq!(golden.output(i), rc.output(i), "output {i} diverged");
            }
        }
    }

    #[test]
    fn single_partition_is_identity() {
        let (_, rc) = setup(1);
        assert!((rc.replication_factor() - 1.0).abs() < 1e-9);
        check_equiv(1, false, 100);
    }

    #[test]
    fn two_partitions_match_golden() {
        check_equiv(2, false, 200);
    }

    #[test]
    fn four_partitions_match_golden() {
        check_equiv(4, false, 200);
    }

    #[test]
    fn parallel_execution_matches() {
        check_equiv(3, true, 100);
    }

    #[test]
    fn replication_overhead_is_visible() {
        // With cross-coupled registers, partitioning must replicate shared
        // cones (RepCut's fundamental trade-off).
        let (_, rc) = setup(4);
        assert!(
            rc.replication_factor() > 1.0,
            "factor = {}",
            rc.replication_factor()
        );
    }

    #[test]
    fn rum_owners_cover_all_registers() {
        let (g, rc) = setup(3);
        assert_eq!(rc.rum().len(), g.regs.len());
        for (r, entry) in rc.rum().iter().enumerate() {
            assert_eq!(entry.owner as usize, r % 3);
            assert!(!entry.readers.contains(&entry.owner));
        }
    }

    #[test]
    fn rum_readers_are_selective() {
        // Differential exchange: at least one register should *not* be
        // broadcast to every other partition.
        let (_, rc) = setup(4);
        assert!(rc.rum().iter().any(|e| e.readers.len() < 3));
    }
}
