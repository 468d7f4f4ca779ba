//! RepCut partition-parallel execution (paper Appendix C, Cascade 2)
//! through the production engine stack: run RepCut on the levelized
//! plan with [`PartitionedPlan`], report the replication factor and
//! per-partition op schedules, execute the decomposition through
//! [`BatchSimulation`] with `Partitioning::Fixed(p)`, and verify every
//! partition count bit-exact against the scalar [`Simulation`] — then
//! wall-clock the partitioned cycle walk.
//!
//! ```text
//! cargo run --release --example repcut_partition
//! ```

use rteaal_core::{
    BatchSimulation, Compiler, EngineConfig, PartitionedPlan, Partitioning, Simulation,
};
use rteaal_designs::{rocket, ChipConfig};
use rteaal_kernels::{KernelConfig, KernelKind};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = rocket(ChipConfig::new(4));
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu)).compile(&circuit)?;
    println!(
        "4-core RocketChip analog: {} ops/cycle over {} layers",
        compiled.plan.total_ops(),
        compiled.plan.stats.layers
    );

    for partitions in [1usize, 2, 4, 8] {
        // The decomposition itself: per-partition schedules + the RUM.
        let pp = PartitionedPlan::new(&compiled.plan, partitions);
        let counts = pp.op_counts();
        println!(
            "{partitions} partition(s): replication factor {:.2}x, ops per partition {:?}",
            pp.replication_factor(),
            counts
        );
        let cross = pp.rum.iter().filter(|e| !e.readers.is_empty()).count();
        println!(
            "    RUM: {} of {} registers are read across partition boundaries",
            cross,
            pp.rum.len()
        );

        // Execute it through the engine stack and verify 50 cycles in
        // lock-step against the scalar reference simulation.
        let config = EngineConfig {
            threads: partitions,
            partitioning: Partitioning::Fixed(partitions),
            ..EngineConfig::new(1)
        };
        let mut sim = BatchSimulation::build(&compiled, config).map_err(|r| r.to_string())?;
        let mut reference = Simulation::new(compiled.clone());
        let stim = compiled
            .plan
            .probes
            .iter()
            .find(|(_, s, _)| compiled.plan.input_slots.contains(s))
            .map(|(n, _, _)| n.clone())
            .expect("design has a named input");
        for c in 0..50u64 {
            let x = c.wrapping_mul(0x9e37_79b9);
            reference.poke(&stim, x)?;
            sim.poke(&stim, 0, x)?;
            reference.step();
            sim.step();
            for (name, _) in &compiled.plan.output_slots {
                assert_eq!(
                    sim.peek(name, 0),
                    reference.peek(name),
                    "output {name} diverged at cycle {c}"
                );
            }
        }

        // Wall-clock the partitioned threaded walk.
        let t = Instant::now();
        sim.step_cycles(500);
        println!("    500 cycles in {:>8.2?}", t.elapsed());
    }
    Ok(())
}
