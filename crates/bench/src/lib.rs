//! # rteaal-bench
//!
//! The paper-artifact crate: regenerates every table and figure of the
//! paper's evaluation (§7) from the workspace's own simulators and
//! machine models. Performance numbers of this reproduction itself live
//! in the repo benchmark (`benchmark/`, `BENCHMARK.json`), not here.
//!
//! - [`experiments`]: one function per table/figure, returning formatted
//!   rows; consumed by the `tables` binary and the shape-check
//!   integration tests (`tests/experiment_shapes.rs`). Plus `fleet`, the
//!   gate of the sharded serving stack over real child processes.
//! - [`openloop`]: the open-loop (Poisson, bursty, mixed-corpus) arrival
//!   schedule the `fleet` experiment offers its load with.
//! - `src/bin/tables.rs`: `cargo run -p rteaal-bench --release --bin
//!   tables -- <id|all> [--full]`.

pub mod experiments;
pub mod openloop;

pub use experiments::{run_experiment, Ctx, ALL_EXPERIMENTS};
