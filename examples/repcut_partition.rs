//! RepCut partition-parallel execution (paper Appendix C, Cascade 2) at
//! the kernel level, where the reproduction lives: run RepCut on the
//! levelized plan with [`PartitionedPlan`], report the replication
//! factor and per-partition op schedules, compile the decomposition with
//! [`BatchKernel::compile_partitioned`] over a
//! [`BatchLiState::new_partitioned`] state (one `LI` replica per
//! partition), and verify every partition count bit-exact against the
//! scalar [`Simulation`] — then wall-clock the partitioned cycle walk,
//! one worker per partition as far as the host has CPUs. No front door
//! offers this: so far the partitioned walk is *slower* than the flat
//! one wherever measured (`kernels.part2_speedup` < 1 in the benchmark).
//!
//! ```text
//! cargo run --release --example repcut_partition
//! ```

use rteaal_core::{Compiler, Simulation};
use rteaal_designs::{rocket, ChipConfig};
use rteaal_dfg::partition::PartitionedPlan;
use rteaal_kernels::{BatchKernel, BatchLiState, KernelConfig, KernelKind};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = rocket(ChipConfig::new(4));
    let config = KernelConfig::new(KernelKind::Psu);
    let compiled = Compiler::new(config).compile(&circuit)?;
    let plan = &compiled.plan;
    println!(
        "4-core RocketChip analog: {} ops/cycle over {} layers",
        plan.total_ops(),
        plan.stats.layers
    );
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);

    for partitions in [1usize, 2, 4, 8] {
        // The decomposition itself: per-partition schedules + the RUM.
        let pp = PartitionedPlan::new(plan, partitions);
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

        // Execute it on one lane and verify 50 cycles in lock-step
        // against the scalar reference simulation.
        let kernel = BatchKernel::compile_partitioned(&pp, config);
        let mut state = BatchLiState::new_partitioned(plan, 1, &pp);
        let mut reference = Simulation::new(compiled.clone());
        let first_input = plan.probes.iter().find(|p| p.1 == plan.input_slots[0]);
        let stim = &first_input.expect("inputs are probed").0;
        for c in 0..50u64 {
            let x = c.wrapping_mul(0x9e37_79b9);
            reference.poke(stim, x)?;
            state.set_input(0, 0, x);
            reference.step();
            kernel.step(&mut state);
            for (name, _) in &plan.output_slots {
                assert_eq!(
                    state.output_by_name(name, 0),
                    reference.peek(name),
                    "output {name} diverged at cycle {c}"
                );
            }
        }

        // Wall-clock the partitioned threaded walk.
        let threads = partitions.min(cpus);
        let t = Instant::now();
        kernel.run_parallel(&mut state, 500, threads);
        println!(
            "    500 cycles in {:>8.2?} on {threads} thread(s)",
            t.elapsed()
        );
    }
    Ok(())
}
