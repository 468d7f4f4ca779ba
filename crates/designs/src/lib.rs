//! # rteaal-designs
//!
//! RTL designs for the RTeAAL Sim evaluation (paper §7.1), as documented
//! substitutions for the Chipyard designs (DESIGN.md §4.1):
//!
//! - [`chip`]: synthetic RocketChip-like and SmallBOOM-like multicores
//!   (calibrated to Table 1 op-count ratios) and a *real* Gemmini-like
//!   weight-stationary systolic MAC array.
//! - [`mod@sha3`]: a *real* Keccak-f\[1600\] round datapath validated against
//!   a software golden model.
//! - [`rv32i`]: a single-cycle RV32I-subset core with an ISA-level golden
//!   model and a tiny assembler (used by the examples).
//! - [`blocks`]: the reusable logic blocks (ALUs, mux trees/chains,
//!   decoders, LFSRs) the generators are built from.
//! - [`workload`]: the designs × benchmarks grid with Table 3 cycle
//!   budgets and deterministic stimulus.

pub mod blocks;
pub mod chip;
pub mod rv32i;
pub mod sha3;
pub mod workload;

pub use chip::{gemmini, pipeline, rocket, small_boom, ChipConfig};
pub use sha3::sha3;
pub use workload::{Stimulus, Workload};
