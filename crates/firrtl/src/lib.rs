//! # rteaal-firrtl
//!
//! FIRRTL-subset frontend for the RTeAAL Sim reproduction.
//!
//! RTeAAL Sim (paper §6.1) "takes an RTL design described in FIRRTL and
//! generates the corresponding tensors and a sparse tensor algebra kernel".
//! This crate provides everything up to the dataflow graph:
//!
//! - [`ast`]: the circuit/module/statement/expression AST (ground types
//!   only, widths 1..=64).
//! - [`parser`]: the indentation-structured text syntax, plus [`parser::emit`]
//!   for round-tripping.
//! - [`builder`]: a programmatic construction API used by the synthetic
//!   design generators.
//! - [`ops`] / [`value`]: the full FIRRTL primitive-op set with
//!   width-inference rules and a typed, bit-accurate reference evaluator
//!   (the one the root test `op_semantics` holds the simulators'
//!   `rteaal_dfg::op::eval_raw` against; no simulator calls it).
//! - [`infer`]: type checking, width inference and name resolution: every
//!   signal of a module gets a dense id, every expression becomes
//!   [`term`]s over those ids.
//! - [`lower`]: instance flattening, memory lowering, and `when` resolution
//!   into a [`lower::FlatModule`] — one name table, one term arena — the
//!   hand-off point to `rteaal-dfg`.
//!
//! ## Example
//!
//! ```
//! use rteaal_firrtl::{parser, lower};
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
//! let circuit = parser::parse(src)?;
//! let flat = lower::lower_typed(&circuit)?;
//! assert_eq!(flat.regs.len(), 1);
//! assert_eq!(flat.inputs.len(), 1); // clock is tracked separately
//! # Ok::<(), rteaal_firrtl::error::FirrtlError>(())
//! ```

pub mod ast;
pub mod builder;
pub mod error;
pub mod infer;
pub mod lower;
pub mod ops;
pub mod parser;
pub mod term;
pub mod ty;
pub mod value;

pub use ast::{Circuit, Module, Port, Stmt};
pub use error::FirrtlError;
pub use lower::{lower_typed, FlatReg};
