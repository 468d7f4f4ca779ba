//! # rteaal-bench
//!
//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation (§7) from the workspace's own simulators and
//! machine models.
//!
//! - [`experiments`]: one function per table/figure, returning formatted
//!   rows; consumed by the `tables` binary, the shape-check integration
//!   tests, and `EXPERIMENTS.md`.
//! - [`openloop`]: the open-loop (Poisson, bursty, mixed-corpus)
//!   traffic generator and tail-latency reporting used by the serving
//!   experiments.
//! - `src/bin/tables.rs`: `cargo run -p rteaal-bench --release --bin
//!   tables -- <id|all> [--full]`.
//! - `benches/`: Criterion micro-benchmarks for the wall-clock-sensitive
//!   subset (kernel throughput, scaling, format/pass ablations).

pub mod experiments;
pub mod openloop;

pub use experiments::{run_experiment, Ctx, ALL_EXPERIMENTS};

use rteaal_kernels::{BatchKernel, BatchLiState};

/// `cycles` cycles across `threads` workers with one input write per
/// cycle (`value` on port 0 of lane 0), as a driven testbench makes: the
/// write keeps the settled-batch gate disarmed, so every timed cycle is
/// walked. The one timed loop of the batched benches and experiments.
pub fn driven(
    kernel: &BatchKernel,
    st: &mut BatchLiState,
    cycles: u64,
    threads: usize,
    value: u64,
) {
    kernel.run_with_stimulus(st, cycles, threads, |_, poker| {
        poker.set_input(0, 0, value);
    });
}
