//! # rteaal-dfg
//!
//! Dataflow-graph middle end of the RTeAAL Sim reproduction.
//!
//! Implements the compiler pipeline of paper Figure 14 between the FIRRTL
//! front end and `OIM` generation:
//!
//! - [`mod@build`]: dataflow-graph construction from a flattened module, with
//!   hash-consing (CSE) and monomorphization of FIRRTL's polymorphic ops
//!   into the [`op::DfgOp`] set.
//! - [`passes`]: constant folding, copy propagation, mux-chain operator
//!   fusion, and dead-code elimination (paper §6.1, Box 1, Appendix B).
//! - [`level`]: levelization (§4.2) and identity-operation accounting
//!   (§4.3, Table 1).
//! - [`plan`]: coordinate assignment for the `I, S, N, O, R` ranks with
//!   identity elision, producing a [`plan::SimPlan`] — the logical content
//!   of the `OIM` tensor, whose slot numbering the scalar and the batched
//!   simulators both address.
//! - [`partition`]: the RepCut decomposition of a plan (Appendix C,
//!   Cascade 2) — per-partition op schedules with replicated fan-in
//!   cones, the register update map, and the per-slot home map the
//!   partition-parallel engine in `rteaal-kernels` executes.
//! - [`interp`]: the reference cycle-level interpreter every other
//!   simulator in the workspace is differentially tested against.
//! - [`batch`]: the lane-batched plan simulator — `B` independent
//!   stimulus vectors evaluated through one slot-major `LI` matrix, the
//!   reference model for the parallel engine in `rteaal-kernels`.
//! - [`lane_kernel`]: the kernel-compilation stage between a
//!   [`plan::SimPlan`] and execution — every operation lowered once into
//!   a specialized, autovectorizable lane kernel with dispatch, operand
//!   offsets, and canonicalization folded in, over lane rows of the
//!   plan's own element type (`u32` when every signal fits 32 bits and
//!   every op is provably exact there, else `u64`).
//! - [`analyze`]: the static plan verifier — schedule legality,
//!   combinational-cycle traces, RUM ownership/coverage, kernel-table
//!   bounds, and dataflow statistics as typed [`analyze::Diagnostic`]s
//!   instead of panics.
//!
//! ## Example
//!
//! ```
//! use rteaal_firrtl::{parser::parse, lower::lower_typed};
//! use rteaal_dfg::{build, passes, plan};
//!
//! let src = "\
//! circuit Blinky :
//!   module Blinky :
//!     input clock : Clock
//!     output led : UInt<1>
//!     reg r : UInt<4>, clock
//!     r <= tail(add(r, UInt<4>(1)), 1)
//!     led <= bits(r, 3, 3)
//! ";
//! let graph = build(&lower_typed(&parse(src)?)?)?;
//! let (graph, stats) = passes::optimize(&graph, &passes::PassOptions::default());
//! assert_eq!(stats.chains_fused, 0);
//! let plan = plan::plan(&graph);
//! assert!(plan.stats.layers >= 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod analyze;
pub mod batch;
pub mod build;
pub mod error;
pub mod graph;
pub mod interp;
pub mod lane_kernel;
pub mod level;
pub mod op;
pub mod partition;
pub mod passes;
pub mod plan;
pub mod specialize;

pub use analyze::{AnalysisReport, AnalysisStats, Diagnostic, Severity};
pub use batch::BatchPlanSim;
pub use build::build;
pub use error::DfgError;
pub use graph::{Graph, Node, NodeId, RegDef};
pub use lane_kernel::{BatchEngine, LaneLayout, LaneType};
pub use partition::{PartitionSchedule, PartitionedPlan, RumEntry};
pub use plan::{OpInst, SimPlan};
pub use specialize::{specialize, SpecStats};
