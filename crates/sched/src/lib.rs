//! # rteaal-sched
//!
//! Continuous-batching lane scheduler: the "simulation as a service"
//! core on top of [`rteaal_core::BatchSimulation`].
//!
//! A batched run's wall time is its slowest lane; on a corpus of
//! variable-length testbenches, lane-liveness early exit alone still
//! leaves freed lanes frozen while stragglers finish, so utilization
//! decays toward zero. This crate closes the loop the way
//! continuous-batching LLM servers do: a FIFO queue of testbench jobs,
//! a [`Scheduler`] that packs jobs into lanes, and — the moment a lane's
//! halt probe fires — per-[`JobId`] harvesting of the finished job's
//! outputs followed by mid-run admission of the next queued job into the
//! freed lane (built on `BatchSimulation::{reset_lane, admit}`, the
//! per-lane power-on reset threaded through all three engine layers).
//!
//! Results are keyed by [`JobId`], never by lane: lanes are *slots* that
//! get recycled, and a recycled lane's completion records always refer
//! to its current occupant. Lanes are also the scheduler's only sizing
//! axis: [`Scheduler::new`] is its one constructor and the lane count its
//! one engine parameter.
//!
//! ## Example
//!
//! ```
//! use rteaal_core::Compiler;
//! use rteaal_kernels::{KernelConfig, KernelKind};
//! use rteaal_sched::{Job, Scheduler};
//!
//! // A counter that raises `done` at a per-job limit.
//! let src = "\
//! circuit H :
//!   module H :
//!     input clock : Clock
//!     input limit : UInt<8>
//!     output cnt : UInt<8>
//!     output done : UInt<1>
//!     reg acc : UInt<8>, clock
//!     acc <= tail(add(acc, UInt<8>(1)), 1)
//!     cnt <= acc
//!     done <= geq(acc, limit)
//! ";
//! let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu)).compile_str(src)?;
//! // Six variable-length jobs over two lanes: lanes recycle mid-run.
//! let mut sched = Scheduler::new(&compiled, 2, "done")?;
//! for limit in [7u64, 25, 3, 9, 4, 11] {
//!     sched.submit(
//!         Job::new(format!("count-{limit}"), limit + 8)
//!             .with_input("limit", limit)
//!             .with_probe("cnt"),
//!     );
//! }
//! sched.run(10_000);
//! assert_eq!(sched.results().len(), 6);
//! for r in sched.results() {
//!     assert!(r.completed());
//!     assert_eq!(r.outputs[0].1, r.cycles); // cnt froze at its own halt
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A job that fails validation (unknown input, state poke, or harvest
//! probe) becomes a [`JobOutcome::Rejected`] result instead of an error:
//! one poison job can never wedge the queue behind it. The `rteaal-serve`
//! crate puts this scheduler behind a thread pool and a socket front end.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod job;
pub mod scheduler;

pub use job::{Job, JobId, JobOutcome, JobResult};
pub use scheduler::{AdmitPolicy, SchedStats, Scheduler};
