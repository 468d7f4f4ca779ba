//! # rteaal-serve
//!
//! The concurrent serving front end over the `rteaal-sched`
//! continuous-batching scheduler: many clients, many jobs, one (or a
//! few) compiled designs, results streamed back the cycle each job's
//! halt probe fires.
//!
//! Five layers:
//!
//! - [`ServerPool`] — N worker threads, each running one
//!   [`Scheduler`](rteaal_sched::Scheduler) per registered design, fed
//!   from mpsc submission queues with least-loaded dispatch. Submission
//!   returns a [`JobHandle`] that can [`poll`](JobHandle::poll) or
//!   [`wait`](JobHandle::wait) (or [`JobHandle::wait_any`] across
//!   handles) for the job's [`JobResult`](rteaal_sched::JobResult).
//!   `register` grows the design registry at
//!   runtime; jobs route by design name.
//! - [`protocol`] — the line-delimited-JSON wire format:
//!   `submit` / `reserve` / `poll` / `result` / `stats` / `register` /
//!   `designs` / `ping` / `metrics` / `timeline` verbs, and the typed
//!   [`ProtocolError`] every client exchange can surface. The last two
//!   expose the pool's `rteaal-telemetry` registry: a full counters /
//!   gauges / histograms snapshot (JSON plus Prometheus text), and one
//!   job's six-stage lifecycle timeline.
//! - [`SocketServer`] / [`ServeClient`] — a `std::net::TcpListener`
//!   front end speaking that protocol, one connection per client, and
//!   its blocking client, which stamps its submits with reserved ids and
//!   sends them with its next request instead of waiting for each ack,
//!   and fetches every finished job of its connection in one `result`
//!   exchange and buffers the rest.
//! - [`ShardRouter`] — the cross-host supervisor: least-in-flight job
//!   placement over a fleet of server processes. A shard leaves the
//!   live set on its first transport fault and its jobs are
//!   resubmitted to the survivors; every sweep probes each down shard
//!   (connect, `ping`, registry replay), the only way back into
//!   placement. Results merge into one completion-ordered stream, and
//!   [`FleetStats`] is the snapshot.
//! - [`chaos`] — the fault-injection harness ([`ChaosShard`]): a
//!   line-level TCP proxy that delays, drops, truncates, kills — and
//!   revives — so the router's failure *and recovery* paths are
//!   testable against real sockets.
//!
//! The scheduler hardening that makes this safe to put behind a socket
//! lives in `rteaal-sched`: a job that fails validation becomes a
//! `Rejected` result (never a wedged queue), budget-0 and
//! already-halted admissions finish at zero cycles, and eviction
//! records its own cycle.
//!
//! ## Example
//!
//! ```
//! use rteaal_core::Compiler;
//! use rteaal_kernels::{KernelConfig, KernelKind};
//! use rteaal_sched::Job;
//! use rteaal_serve::{ServeClient, ServeConfig, ServerPool, SocketServer};
//!
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
//! let pool = ServerPool::new(&compiled, ServeConfig::with_workers(2), "done")?;
//! let addr = SocketServer::bind(pool, "127.0.0.1:0")?.spawn()?;
//!
//! let mut client = ServeClient::connect(addr)?;
//! for k in [3u64, 9, 5] {
//!     client.submit(
//!         &Job::new(format!("count-{k}"), k + 8)
//!             .with_input("limit", k)
//!             .with_probe("cnt"),
//!     )?;
//! }
//! for _ in 0..3 {
//!     let r = client.next_result()?; // completion order, not submission order
//!     assert!(r.completed());
//! }
//! assert_eq!(client.stats()?.completed, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chaos;
pub mod net;
pub mod pool;
pub mod protocol;
pub mod shard;

pub use chaos::{ChaosPlan, ChaosShard};
pub use net::{ServeClient, SocketServer, MAX_LINE};
pub use pool::{
    DesignInfo, JobHandle, RegisterError, Reservation, ServeConfig, ServeStats, ServerPool,
    DEFAULT_DESIGN,
};
pub use protocol::{
    ProtocolError, Request, Response, Verb, WireAnalysis, WireBinding, WireDesign, WireJob,
    WirePong, WireResult, WireStats,
};
pub use shard::{FleetShard, FleetStats, Routed, RouterError, ShardConfig, ShardRouter};
