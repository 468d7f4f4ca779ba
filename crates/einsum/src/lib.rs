//! # rteaal-einsum
//!
//! The RTeAAL Sim Einsum cascades as executable golden models.
//!
//! - [`cascade`]: [`cascade::CascadeSim`], a golden model that simulates a
//!   design by *traversing the OIM fibertree* per Cascade 1 — a second,
//!   independent implementation of RTL-simulation-as-tensor-algebra that
//!   the optimized kernels are differentially tested against.
//! - [`repcut`]: the RepCut cascade of Appendix C (Cascade 2) as an
//!   executable partitioned simulator with replication and `RUM`-driven
//!   synchronization.
//!
//! ## Example
//!
//! ```
//! use rteaal_dfg::{build, plan::plan};
//! use rteaal_einsum::CascadeSim;
//! use rteaal_firrtl::{lower::lower_typed, parser::parse};
//!
//! let src = "\
//! circuit Acc :
//!   module Acc :
//!     input clock : Clock
//!     input x : UInt<8>
//!     output out : UInt<8>
//!     reg acc : UInt<8>, clock
//!     acc <= tail(add(acc, x), 1)
//!     out <= acc
//! ";
//! let plan = plan(&build(&lower_typed(&parse(src)?)?)?);
//! // Cascade 1 by fiber traversal: the accumulator adds 5 per cycle.
//! let mut sim = CascadeSim::new(&plan);
//! sim.set_input(0, 5);
//! for _ in 0..3 {
//!     sim.step();
//! }
//! assert_eq!(sim.output(0), 15);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cascade;
pub mod repcut;

pub use cascade::CascadeSim;
pub use repcut::RepCutSim;
