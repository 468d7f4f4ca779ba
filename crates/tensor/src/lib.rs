//! # rteaal-tensor
//!
//! Tensor abstractions for the RTeAAL Sim reproduction.
//!
//! - [`fibertree`]: the fibertree view of tensors (paper §2.2) used by the
//!   Einsum interpreter and the paper's worked examples.
//! - [`mod@format`]: TeAAL per-rank format specifications with `cbits`/`pbits`
//!   size accounting (§2.5.2, Figure 6).
//! - [`oim`]: the three concrete encodings of the `OIM` operation-input-
//!   mask tensor from Figure 12 — unoptimized (a), optimized (b), and
//!   `S`/`N`-swizzled (c) — that the kernels in `rteaal-kernels`
//!   traverse. The `OIM` serializes to JSON, matching the paper's compiler
//!   output ("OIM tensors stored in JSON files", Figure 14).
//!
//! ## Example
//!
//! ```
//! use rteaal_firrtl::{parser::parse, lower::lower_typed};
//! use rteaal_dfg::{build, plan::plan};
//! use rteaal_tensor::oim::OimOptimized;
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
//! let oim = OimOptimized::from_plan(&plan);
//! assert_eq!(oim.num_ops(), plan.total_ops());
//! let json = serde_json::to_string(&oim)?; // the Figure-14 JSON artifact
//! assert!(json.contains("s_coords"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod fibertree;
pub mod format;
pub mod oim;

pub use fibertree::{Fiber, Payload, Tensor};
pub use oim::{OimOptimized, OimSwizzled, OimUnoptimized, OpMeta, OpRef};
