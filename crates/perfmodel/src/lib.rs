//! # rteaal-perfmodel
//!
//! Host-machine performance models for the RTeAAL Sim reproduction.
//!
//! The paper's evaluation ran on four physical machines (Table 2). This
//! crate substitutes machine *models* fed with *measured* reference
//! streams (DESIGN.md §4.3): the instrumented simulators drive their real
//! instruction-fetch and data accesses through a set-associative cache
//! hierarchy, and a top-down pipeline model converts the measured miss
//! counts into the slot breakdowns, IPC, and modeled run times the paper
//! reports.
//!
//! - [`cache`]: LRU set-associative caches and the split-L1 hierarchy.
//! - [`machine`]: the four Table 2 machines (plus the Figure 21 LLC
//!   restriction knob).
//! - [`topdown`]: frontend-bound / bad-speculation / others analysis
//!   (Yasin's top-down method, as used in paper Figure 7).
//! - [`memtrack`]: a counting global allocator for measured peak
//!   compile memory (Figures 8/15, Table 7b).

pub mod cache;
pub mod machine;
pub mod memtrack;
pub mod topdown;

pub use cache::{CacheConfig, CacheStats, MemStats};
pub use machine::Machine;
pub use topdown::{analyze, ExecProfile, TopDown};
