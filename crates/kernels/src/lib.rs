//! # rteaal-kernels
//!
//! The seven RTeAAL Sim kernels (paper §5.2) and their instrumentation.
//!
//! - [`config`]: kernel configurations — RU/OU/NU/PSU/IU/SU/TI, the
//!   `-O3`/`-O0` compile analog, and the 8/24 partial-unroll factors.
//! - [`rolled`]: the OIM-traversing kernels (Algorithms 3 and 4).
//! - [`unrolled`]: the straight-line kernels, including TI's tensor
//!   inlining (immediates, accumulator forwarding, dead-store elision).
//! - [`kernel`]: the [`Kernel`] facade — compile, simulate, and profile.
//! - [`profile`]: the probe interface and address-space model that feed
//!   the `rteaal-perfmodel` cache hierarchy with real reference streams.
//! - [`codegen`]: C++ source emission (the Figure 14 artifact).
//! - [`batch`]: the batched, layer-parallel engine — `B` stimulus lanes
//!   per `LI` slot, ops split across threads within each layer, each op
//!   pre-lowered to a specialized lane kernel (with the interpreted walk
//!   retained as the differential golden model).
//!
//! ## Example
//!
//! ```
//! use rteaal_firrtl::{parser::parse, lower::lower_typed};
//! use rteaal_dfg::{build, plan::plan};
//! use rteaal_kernels::{Kernel, KernelConfig, KernelKind};
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
//! let mut kernel = Kernel::compile(&plan, KernelConfig::new(KernelKind::Psu));
//! kernel.set_input(0, 3);
//! kernel.run(4);
//! assert_eq!(kernel.output(0), 12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod codegen;
pub mod config;
pub mod kernel;
mod parallel;
pub mod profile;
pub mod rolled;
pub mod state;
pub mod unrolled;

pub use batch::{BatchKernel, BatchLiState, LanePoker, LayerSample};
pub use config::{KernelConfig, KernelKind, OptLevel, ALL_KERNELS};
pub use kernel::{CompileReport, Kernel};
pub use rteaal_dfg::lane_kernel::BatchEngine;
pub use state::LiState;
