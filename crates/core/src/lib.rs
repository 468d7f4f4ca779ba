//! # rteaal-core
//!
//! The public API of the RTeAAL Sim reproduction: a tensor-algebra RTL
//! simulator (ASPLOS 2026).
//!
//! RTeAAL Sim reformulates full-cycle RTL simulation as a sparse tensor
//! algebra problem: the dataflow graph becomes the 5-rank `OIM` tensor
//! and a cycle of simulation becomes a cascade of extended Einsums
//! evaluated by one of seven progressively unrolled kernels
//! (RU/OU/NU/PSU/IU/SU/TI). This crate is the front door:
//!
//! - [`compiler::Compiler`] — FIRRTL in, compiled kernel + OIM JSON out
//!   (the full Figure 14 flow, with per-stage timings).
//! - [`simulation::Simulation`] — named poke/peek (including internal
//!   signals, the XMR path), cycle stepping, and profiled runs.
//! - [`batch::BatchSimulation`] — the same design over `B` independent
//!   stimulus lanes at once: one compile and one traversal of the OIM
//!   per cycle for the whole batch, with halted lanes compacted out of
//!   the evaluated window and freed lanes recycled mid-run. Lanes are
//!   the only axis of the engine.
//! - VCD waveforms (§6.2): `Simulation::enable_waveforms` and
//!   `BatchSimulation::enable_lane_waveforms` record change-detected dumps.
//! - [`simulation::DebugModule`] — the DMI-style host↔DUT channel (§6.2).
//!
//! ## Quickstart
//!
//! ```
//! use rteaal_core::{Compiler, Simulation};
//! use rteaal_kernels::{KernelConfig, KernelKind};
//!
//! let src = "\
//! circuit Counter :
//!   module Counter :
//!     input clock : Clock
//!     input reset : UInt<1>
//!     output out : UInt<8>
//!     regreset count : UInt<8>, clock, reset, UInt<8>(0)
//!     count <= tail(add(count, UInt<8>(1)), 1)
//!     out <= count
//! ";
//! let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu)).compile_str(src)?;
//! let mut sim = Simulation::new(compiled);
//! sim.step_cycles(41);
//! assert_eq!(sim.peek("out"), Some(41));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod batch;
pub mod compiler;
pub mod simulation;
mod waveform;

pub use batch::BatchSimulation;
pub use compiler::{CompileError, Compiled, Compiler, StageTimings};
pub use rteaal_dfg::analyze::{
    analyze_design, AnalysisReport, AnalysisStats, Diagnostic, Severity,
};
pub use simulation::{DebugModule, Simulation, UnknownSignal};
