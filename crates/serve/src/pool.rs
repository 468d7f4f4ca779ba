//! The multi-worker serving pool: N threads, each running one
//! [`Scheduler`] per registered design, fed from mpsc submission
//! queues with least-loaded dispatch.
//!
//! [`ServerPool`] is the in-process front door of the serving layer.
//! Submission returns immediately with a [`JobHandle`]; each worker
//! drives its schedulers one [`Scheduler::run_quantum`] at a time — a
//! quantum ends the cycle a job finishes, or when a lane is free with
//! nothing queued — interleaving mid-run admissions from its queue with
//! harvests, and publishes every finished job's [`JobResult`] — keyed
//! by a pool-global id — the cycle the lane's halt probe fires, into
//! its submitter's *inbox*. Clients [`poll`](JobHandle::poll) or
//! [`wait`](JobHandle::wait) on their handles; nothing blocks the
//! workers.
//!
//! Every socket session has an inbox of its own, and the handles of
//! [`ServerPool::submit`] share one. An inbox holds its finished
//! results, its count of jobs still waiting for a lane, and its own
//! condvar; a worker moves each round's results and admissions into
//! their inboxes under each inbox's lock once, and wakes an inbox only
//! when a thread blocks on it and that thread's answer is due (the
//! socket's batched rule is in [`crate::protocol`]).
//!
//! Sharding is one `Scheduler` (and one `BatchSimulation`) per worker
//! thread: the slot-major lane matrix splits on the lane axis, so W
//! workers × L lanes behave like one W·L-lane engine whose lanes drain
//! and refill independently — the multi-worker shape the ROADMAP pairs
//! with the async front end. Workers and lanes are the pool's only
//! sizing axes ([`ServeConfig`]): every job of every design goes to the
//! least-loaded live worker, and a job's cycles run on that worker's
//! thread alone.
//!
//! A pool starts with one design (the *default*, the compile it was
//! constructed over) and grows by `register`:
//! every worker gains a scheduler for the new design, and jobs route by
//! design name through `submit_named` (or
//! the wire protocol's `"design"` job field). One server process can
//! therefore hold a whole registry of compiled circuits — the
//! multi-design shape a cross-host [`ShardRouter`](crate::ShardRouter)
//! fleet is built from.

use rteaal_core::{analyze_design, AnalysisReport, AnalysisStats, Compiled, UnknownSignal};
use rteaal_sched::{Job, JobId, JobOutcome, JobResult, SchedStats, Scheduler};
use rteaal_telemetry::{Gauge, JobStage, MetricsRegistry};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poison instead of propagating it.
///
/// Every critical section in this module leaves its table in a
/// consistent state at any panic point (inserts/removes on std
/// collections are atomic operations), so data behind a poisoned lock
/// is still serviceable. Refusing to serve results because one worker
/// panicked would turn a single lost worker into a wedged pool — every
/// blocked `wait` would panic instead of draining.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The name of the design every pool starts with (the compile passed to
/// [`ServerPool::new`]); jobs that name no design run on it.
pub(crate) const DEFAULT_DESIGN: &str = "default";

/// How many ids one [`ServerPool::reserve`] sets aside.
pub(crate) const RESERVE_BLOCK: u64 = 1024;

/// Longest quantum a worker gives one design's scheduler when no job
/// finishes and every lane stays busy: bounds how long the worker's
/// other designs and its inbox wait behind a long-running batch.
const QUANTUM_CAP: u64 = 64;

/// Worker-pool sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads, one `Scheduler` each.
    pub workers: usize,
    /// Stimulus lanes per worker.
    pub lanes: usize,
    /// Per-job cycle cap: a submitted job's budget is clamped to this
    /// (guards a server against unhaltable testbenches with huge
    /// budgets).
    pub max_budget: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            lanes: 8,
            max_budget: 1 << 20,
        }
    }
}

impl ServeConfig {
    /// A config with a given worker count (other knobs default).
    pub fn with_workers(workers: usize) -> Self {
        ServeConfig {
            workers,
            ..ServeConfig::default()
        }
    }
}

/// Where one submitter's finished jobs wait to be claimed: a socket
/// session's, or the one every [`JobHandle`] of [`ServerPool::submit`]
/// shares. Workers [`deliver`](Self::deliver) into it; its claimers
/// take, and block, under its own lock and condvar.
#[derive(Debug)]
pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    /// Signalled when a blocked claimer's answer is due.
    due: Condvar,
    telemetry: Arc<MetricsRegistry>,
    /// `serve.unclaimed`: finished results parked in any inbox.
    unclaimed: Arc<Gauge>,
}

#[derive(Debug, Default)]
struct InboxState {
    /// Finished jobs by pool-global id, removed when claimed.
    ready: HashMap<u64, JobResult>,
    /// Ids whose handle was dropped before publication: the result is
    /// discarded on arrival instead of parked forever (a long-running
    /// server's in-process clients may give up on a job).
    abandoned: HashSet<u64>,
    /// Jobs submitted into this inbox that are neither admitted into a
    /// lane nor finished.
    queued: usize,
    /// Claimers blocked until any result lands.
    any_waiters: usize,
    /// The `max` of the claimer blocked in [`Inbox::wait_batch`]; 0 when
    /// none is.
    batch_max: usize,
    /// A wake-up is out that no blocked claimer has answered yet: a
    /// second one would only cost a futex call.
    signalled: bool,
}

impl InboxState {
    /// The batched claimer's rule: at least one finished job, and at
    /// least as many as the inbox's jobs still waiting for a lane (or as
    /// `max`, past which waiting cannot grow the answer).
    fn batch_due(&self) -> bool {
        let n = self.ready.len();
        n > 0 && (n >= self.queued || n >= self.batch_max)
    }
}

impl Inbox {
    fn new(telemetry: &Arc<MetricsRegistry>) -> Inbox {
        Inbox {
            state: Mutex::new(InboxState::default()),
            due: Condvar::new(),
            unclaimed: telemetry.gauge("serve.unclaimed"),
            telemetry: Arc::clone(telemetry),
        }
    }

    fn lock(&self) -> MutexGuard<'_, InboxState> {
        lock_or_recover(&self.state)
    }

    /// Blocks on the condvar, first marking that the next due answer
    /// needs a fresh wake-up.
    fn block<'a>(&self, mut st: MutexGuard<'a, InboxState>) -> MutexGuard<'a, InboxState> {
        st.signalled = false;
        self.due.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one job dispatched into this inbox's name, before any
    /// worker can see it.
    fn enqueue(&self) {
        self.lock().queued += 1;
    }

    /// One worker round's share for this inbox, in one lock section:
    /// `left_queue` of its jobs stopped waiting for a lane (admitted, or
    /// finished without one) and `results` finished. A result whose
    /// handle was dropped is discarded. A blocked claimer is woken only
    /// if its answer is now due.
    fn deliver(&self, results: impl IntoIterator<Item = JobResult>, left_queue: usize) {
        let mut st = self.lock();
        // Saturating: a miscount must never leave a claimer waiting on a
        // backlog that is gone.
        debug_assert!(st.queued >= left_queue, "inbox queue count underflow");
        st.queued = st.queued.saturating_sub(left_queue);
        let before = st.ready.len();
        for r in results {
            if !st.abandoned.remove(&r.trace) {
                st.ready.insert(r.trace, r);
            }
        }
        let added = st.ready.len() - before;
        self.unclaimed.add(added as i64);
        let wake = !st.signalled
            && ((added > 0 && st.any_waiters > 0) || (st.batch_max > 0 && st.batch_due()));
        st.signalled |= wake;
        drop(st);
        if wake {
            self.due.notify_all();
        }
    }

    fn record_delivered<'a>(&self, results: impl IntoIterator<Item = &'a JobResult>) {
        let mut n = 0;
        for r in results {
            n += 1;
            self.telemetry
                .record_event(r.id.0, JobStage::Delivered, None, None, None);
        }
        self.unclaimed.sub(n);
    }

    /// Takes job `id`'s result if it has finished, without blocking.
    pub(crate) fn take(&self, id: u64) -> Option<JobResult> {
        let r = self.lock().ready.remove(&id)?;
        self.record_delivered([&r]);
        Some(r)
    }

    /// Blocks until one of `ids` has finished and takes it.
    fn wait_any<I: IntoIterator<Item = u64> + Clone>(&self, ids: I) -> JobResult {
        let mut st = self.lock();
        let r = loop {
            if let Some(r) = ids.clone().into_iter().find_map(|id| st.ready.remove(&id)) {
                break r;
            }
            st.any_waiters += 1;
            st = self.block(st);
            st.any_waiters -= 1;
        };
        drop(st);
        self.record_delivered([&r]);
        r
    }

    /// Blocks until job `id` has finished and takes it.
    pub(crate) fn wait_for(&self, id: u64) -> JobResult {
        self.wait_any([id])
    }

    /// The socket's batched claim: blocks until at least one job of the
    /// inbox has finished *and* at least as many have as are still
    /// waiting for a lane (or `max` have), then takes up to `max` of
    /// them (at least one, whatever `max` says). Without a backlog that
    /// is the first completion; with one, an earlier answer would buy no
    /// throughput, since every lane that frees already has one of the
    /// inbox's jobs queued for it. Every job of the inbox must be
    /// outstanding, or this waits forever.
    ///
    /// `fits` is asked about each finished job in turn, before it is
    /// taken; the batch ends at the first it refuses, and that job stays
    /// unclaimed. The first job is taken whatever `fits` answers.
    pub(crate) fn wait_batch(
        &self,
        max: usize,
        mut fits: impl FnMut(&JobResult) -> bool,
    ) -> Vec<JobResult> {
        let max = max.max(1);
        let mut st = self.lock();
        debug_assert_eq!(st.batch_max, 0, "one batched claimer per inbox");
        st.batch_max = max;
        while !st.batch_due() {
            st = self.block(st);
        }
        st.batch_max = 0;
        let (mut first, mut refused) = (true, false);
        let batch: Vec<JobResult> = st
            .ready
            .extract_if(|_, r| {
                let take = !refused && (fits(r) || first);
                (first, refused) = (false, !take);
                take
            })
            .take(max)
            .map(|(_, r)| r)
            .collect();
        drop(st);
        self.record_delivered(&batch);
        batch
    }

    /// A handle gave up on job `id`: its result is freed now if it is
    /// here, or discarded when it lands.
    fn abandon(&self, id: u64) {
        let mut st = self.lock();
        if st.ready.remove(&id).is_some() {
            self.unclaimed.sub(1);
        } else {
            st.abandoned.insert(id);
        }
    }
}

impl Drop for Inbox {
    /// A session's inbox outlives the session until its last job is
    /// published; what it still holds then was never claimed.
    fn drop(&mut self) {
        let st = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        self.unclaimed.sub(st.ready.len() as i64);
    }
}

/// State shared between workers, handles, and the pool front end.
#[derive(Debug)]
struct Shared {
    /// The inbox every [`JobHandle`] of [`ServerPool::submit`] shares.
    inbox: Arc<Inbox>,
    /// The pool's one account of its jobs.
    ledger: Mutex<Ledger>,
    /// The pool-wide metrics registry and per-job event ring.
    telemetry: Arc<MetricsRegistry>,
    /// `sched.queue_depth.w{n}`: each worker's queued backlog, which its
    /// schedulers keep and a dead worker's sweep zeroes.
    queue_depth: Vec<Arc<Gauge>>,
}

/// The pool's accounting. Every term of the identity `submitted ==
/// completed + evicted + rejected + in_flight` lives here, so one
/// critical section on [`Shared::ledger`] sees every job in exactly one
/// state; no section on it takes another lock.
///
/// A dispatched job has an `assigned` record until it finishes. Whoever
/// removes the record — the worker publishing the job, a submission
/// whose send failed, or a dead worker's sweep — publishes the job's
/// result into the record's inbox, so it is published exactly once and
/// a dying worker fails exactly the jobs that will never publish.
#[derive(Debug)]
struct Ledger {
    /// The next id nobody holds: every id below it went to a job or to
    /// a [`Reservation`].
    next_id: u64,
    /// Jobs submitted so far: `next_id` less the reserved ids not (or
    /// not yet) stamped on a job.
    submitted: u64,
    /// Per worker: jobs dispatched to it and not yet finished.
    in_flight: Vec<usize>,
    /// Per worker: set when its thread panicked or its queue was found
    /// disconnected. Dispatch skips dead workers.
    dead: Vec<bool>,
    /// Dispatched-but-unfinished jobs by id.
    assigned: HashMap<u64, Assignment>,
    /// Per worker: its schedulers' counters, merged across designs.
    stats: Vec<SchedStats>,
    /// Jobs rejected without a worker's scheduler counting them
    /// (unknown design, no live worker, stranded by a worker's death).
    unrouted: usize,
    /// `serve.worker_inflight.w{n}`, written from `in_flight`.
    occupancy: Vec<Arc<Gauge>>,
}

/// A dispatched job's record in the [`Ledger`].
#[derive(Debug)]
struct Assignment {
    /// The worker that owns the job.
    worker: usize,
    /// The job's name, parked here while the job runs nameless.
    name: String,
    /// Where the job's result goes.
    inbox: Arc<Inbox>,
    /// Whether the job has left its worker's queue for a lane; until
    /// then it counts in its inbox's `queued`.
    admitted: bool,
}

impl Ledger {
    /// Counts one job submitted under `reserved`, or under a fresh id.
    fn take_id(&mut self, reserved: Option<u64>) -> u64 {
        self.submitted += 1;
        reserved.unwrap_or_else(|| {
            self.next_id += 1;
            self.next_id - 1
        })
    }

    /// Dispatches a job to the least-loaded live worker (ties go to the
    /// lowest index) and returns its id and worker, or hands the name
    /// back if every worker is dead.
    fn assign(
        &mut self,
        name: String,
        reserved: Option<u64>,
        inbox: &Arc<Inbox>,
    ) -> Result<(u64, usize), String> {
        let live = (0..self.dead.len()).filter(|&w| !self.dead[w]);
        let Some(w) = live.min_by_key(|&w| self.in_flight[w]) else {
            return Err(name);
        };
        let id = self.take_id(reserved);
        let inbox = Arc::clone(inbox);
        let record = Assignment {
            worker: w,
            name,
            inbox,
            admitted: false,
        };
        self.assigned.insert(id, record);
        self.in_flight[w] += 1;
        self.occupancy[w].set(self.in_flight[w] as i64);
        Ok((id, w))
    }

    /// Removes a job's record and returns it, or `None` if someone else
    /// removed it first (and so publishes it).
    fn settle(&mut self, id: u64) -> Option<Assignment> {
        let record = self.assigned.remove(&id)?;
        let w = record.worker;
        self.in_flight[w] -= 1;
        self.occupancy[w].set(self.in_flight[w] as i64);
        Some(record)
    }

    /// [`settle`](Self::settle) for a job that will never run.
    fn strand(&mut self, id: u64) -> Option<Assignment> {
        let record = self.settle(id)?;
        self.unrouted += 1;
        Some(record)
    }
}

/// Aggregate pool statistics (the `stats` verb's payload).
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Worker threads.
    pub workers: usize,
    /// Lanes per worker.
    pub lanes: usize,
    /// Registered designs (including the default).
    pub designs: usize,
    /// Jobs submitted through the pool so far.
    pub submitted: u64,
    /// Results finished but not yet claimed, in any inbox.
    pub unclaimed: usize,
    /// Jobs dispatched to workers but not yet finished.
    pub in_flight: usize,
    /// Jobs sitting in worker queues, not yet admitted into lanes.
    pub queue_depth: usize,
    /// Milliseconds since the pool was constructed.
    pub uptime_ms: u64,
    /// All workers' counters merged.
    pub merged: SchedStats,
    /// Each worker's own counters.
    pub per_worker: Vec<SchedStats>,
}

impl ServeStats {
    /// Occupied-lane cycles over total lane cycles stepped, across all
    /// workers (`merged.cycles` already sums every worker's cycles, so
    /// the lane width here is per-worker).
    pub(crate) fn utilization(&self) -> f64 {
        self.merged.utilization_of(self.lanes)
    }

    /// The pool ledger identity: every submitted job is exactly one of
    /// finished (completed / evicted / rejected) or still in flight.
    /// Because `stats()` samples every term inside one ledger critical
    /// section, this closes at *every* snapshot, not just at shutdown.
    pub(crate) fn accounting_balanced(&self) -> bool {
        self.submitted as usize
            == self.merged.completed + self.merged.evicted + self.merged.rejected + self.in_flight
    }
}

/// Why a design registration was refused.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RegisterError {
    /// The halt signal names neither a probe nor an output port of the
    /// design being registered.
    UnknownHalt(UnknownSignal),
    /// The name is already taken. Replacing a design in place would
    /// strand its in-flight jobs, so re-registration is refused.
    DuplicateDesign(String),
    /// The static plan verifier found Error-level diagnostics — the
    /// design's plan or kernel table violates a structural invariant and
    /// must never reach a worker's engine.
    Rejected(AnalysisReport),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::UnknownHalt(UnknownSignal(name)) => {
                write!(f, "unknown halt signal `{name}`")
            }
            RegisterError::DuplicateDesign(name) => {
                write!(f, "design `{name}` is already registered")
            }
            RegisterError::Rejected(report) => {
                write!(f, "design failed verification: {report}")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Why [`ServerPool::new`] refused to start a pool.
#[derive(Debug)]
pub enum PoolError {
    /// The halt signal names neither a probe nor an output port of the
    /// design.
    UnknownHalt(UnknownSignal),
    /// [`ServeConfig::workers`] is zero.
    NoWorkers,
    /// [`ServeConfig::lanes`] is zero.
    NoLanes,
    /// The host refused a worker thread. The workers spawned before it
    /// were stopped and joined.
    Spawn(std::io::Error),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnknownHalt(UnknownSignal(name)) => {
                write!(f, "unknown halt signal `{name}`")
            }
            PoolError::NoWorkers => write!(f, "a pool needs at least one worker"),
            PoolError::NoLanes => write!(f, "a pool needs at least one lane per worker"),
            PoolError::Spawn(e) => write!(f, "a worker thread failed to spawn: {e}"),
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Spawn(e) => Some(e),
            _ => None,
        }
    }
}

/// A block of pool-global ids set aside by `ServerPool::reserve` for
/// `ServerPool::submit_reserved`, which takes them in order. Ids
/// never taken are never used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Reservation {
    ids: Range<u64>,
}

impl Reservation {
    /// The ids not taken yet; the first is the next one
    /// [`ServerPool::submit_reserved`] accepts.
    pub(crate) fn ids(&self) -> Range<u64> {
        self.ids.clone()
    }
}

/// A claim on one submitted job's eventual [`JobResult`].
///
/// The result is delivered exactly once: the first successful
/// [`poll`](Self::poll) or [`wait`](Self::wait) takes it. Handles are
/// independent of the pool's lifetime — results published before a
/// [`ServerPool::shutdown`] stay claimable afterwards. Dropping a
/// handle *unclaimed* releases its result slot (the result is
/// discarded when it lands, rather than parked forever).
#[derive(Debug)]
pub struct JobHandle {
    id: u64,
    inbox: Arc<Inbox>,
    claimed: AtomicBool,
}

impl JobHandle {
    /// The pool-global job id (also [`JobResult::id`] in the delivered
    /// result).
    pub fn id(&self) -> u64 {
        self.id
    }

    fn mark_claimed(&self) {
        self.claimed.store(true, Ordering::Release);
    }

    /// Takes the result if the job has finished, without blocking.
    pub fn poll(&self) -> Option<JobResult> {
        let r = self.inbox.take(self.id);
        if r.is_some() {
            self.mark_claimed();
        }
        r
    }

    /// Blocks until the job finishes and takes its result. Never wedges
    /// on a dead worker: a panicking worker's unwind guard publishes
    /// [`JobOutcome::Rejected`] results for every job it strands.
    pub fn wait(&self) -> JobResult {
        let r = self.inbox.wait_for(self.id);
        self.mark_claimed();
        r
    }

    /// Blocks until *any* of the given handles' jobs finishes and takes
    /// that result, returning it with the index of the handle it
    /// belongs to — the "stream results as they complete" primitive.
    /// Returns `None` if `handles` is empty. All handles must come from
    /// the same pool.
    pub fn wait_any(handles: &[JobHandle]) -> Option<(usize, JobResult)> {
        let first = handles.first()?;
        debug_assert!(
            handles.iter().all(|h| Arc::ptr_eq(&h.inbox, &first.inbox)),
            "wait_any handles must share one pool"
        );
        let r = first.inbox.wait_any(handles.iter().map(JobHandle::id));
        let at = handles.iter().position(|h| h.id == r.id.0)?;
        handles[at].mark_claimed();
        Some((at, r))
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        if !self.claimed.load(Ordering::Acquire) {
            self.inbox.abandon(self.id);
        }
    }
}

/// A pool of scheduler workers serving one compiled design.
///
/// # Examples
///
/// ```
/// use rteaal_core::Compiler;
/// use rteaal_kernels::{KernelConfig, KernelKind};
/// use rteaal_sched::Job;
/// use rteaal_serve::{ServeConfig, ServerPool};
///
/// let src = "\
/// circuit H :
///   module H :
///     input clock : Clock
///     input limit : UInt<8>
///     output cnt : UInt<8>
///     output done : UInt<1>
///     reg acc : UInt<8>, clock
///     acc <= tail(add(acc, UInt<8>(1)), 1)
///     cnt <= acc
///     done <= geq(acc, limit)
/// ";
/// let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu)).compile_str(src)?;
/// let pool = ServerPool::new(&compiled, ServeConfig::with_workers(2), "done")?;
/// let handles: Vec<_> = (1u64..=6)
///     .map(|k| {
///         pool.submit(
///             Job::new(format!("count-{k}"), k + 8)
///                 .with_input("limit", k)
///                 .with_probe("cnt"),
///         )
///     })
///     .collect();
/// for (k, h) in (1u64..=6).zip(&handles) {
///     let r = h.wait();
///     assert!(r.completed());
///     assert_eq!(r.outputs[0].1, k + 1);
/// }
/// pool.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ServerPool {
    shared: Arc<Shared>,
    /// Design names and per-worker submission queues, under one lock:
    /// holding it across channel sends guarantees a design's `Register`
    /// message reaches every worker queue before any job naming it —
    /// and dropping the senders signals shutdown.
    routing: Mutex<Routing>,
    workers: Vec<JoinHandle<()>>,
    config: ServeConfig,
    /// When the pool was constructed — the `ping` verb's uptime origin,
    /// which lets a health prober distinguish a host that recovered
    /// from one that restarted (and so lost its design registry).
    started: Instant,
}

/// One registered design's registry entry: its name plus the static
/// verifier's per-design statistics (what the `designs` verb reports).
#[derive(Debug, Clone)]
pub(crate) struct DesignInfo {
    /// Registry name.
    pub name: String,
    /// The verifier's dataflow statistics for the design (activity,
    /// dead ops, never-toggling signals, shape counts).
    pub analysis: AnalysisStats,
}

/// The registry + submission queues (see [`ServerPool::routing`]).
#[derive(Debug)]
struct Routing {
    /// Registered designs in registration order (`[0]` is
    /// [`DEFAULT_DESIGN`]).
    designs: Vec<DesignInfo>,
    /// Per-worker submission queues (cleared to signal shutdown).
    senders: Vec<Sender<WorkerMsg>>,
}

/// What the pool front end sends a worker.
enum WorkerMsg {
    /// Run a job on a registered design.
    Job {
        /// Pool-global id.
        id: u64,
        /// Registry index: designs reach every worker in registration
        /// order, so the pool's index is the worker's.
        design: usize,
        /// The job itself; its name waits in [`Ledger::assigned`].
        job: Job,
        /// Registry timestamp at submission, for the dispatch-latency
        /// histogram (time from front-end submit to worker pickup).
        submitted_at_us: u64,
    },
    /// Add a design: build a scheduler for it.
    Register {
        /// Registry name.
        design: String,
        /// The compile every worker shares.
        compiled: Arc<Compiled>,
        /// Per-lane completion probe.
        halt: String,
    },
    /// Test-only: panic the worker thread while it holds the ledger
    /// lock — the worst-case stand-in for an engine bug killing a
    /// worker mid-corpus (poisons the lock *and* strands every job the
    /// worker owns).
    #[cfg(test)]
    Die,
    /// Test-only: park the worker at a barrier, so a test can queue
    /// several submissions behind it and have the worker pick them all
    /// up at once.
    #[cfg(test)]
    Hold(Arc<std::sync::Barrier>),
}

impl ServerPool {
    /// Spawns `config.workers` scheduler threads over a shared compile,
    /// each watching `halt_signal` for per-lane completion.
    ///
    /// # Errors
    ///
    /// [`PoolError::UnknownHalt`] if `halt_signal` names neither a probe
    /// nor an output port of the design, [`PoolError::NoWorkers`] or
    /// [`PoolError::NoLanes`] for a zero in `config`, and
    /// [`PoolError::Spawn`] if the host refuses a worker thread (the
    /// workers already running are stopped and joined first).
    pub fn new(
        compiled: &Compiled,
        config: ServeConfig,
        halt_signal: &str,
    ) -> Result<Self, PoolError> {
        if config.workers == 0 {
            return Err(PoolError::NoWorkers);
        }
        if config.lanes == 0 {
            return Err(PoolError::NoLanes);
        }
        // Validate the halt probe before spawning anything, through the
        // same resolver `BatchSimulation::watch_halt` uses.
        if compiled.plan.signal_slot(halt_signal).is_none() {
            return Err(PoolError::UnknownHalt(UnknownSignal(
                halt_signal.to_string(),
            )));
        }
        let telemetry = Arc::new(MetricsRegistry::new());
        let gauges = |prefix: &str| -> Vec<Arc<Gauge>> {
            let gauge = |w| telemetry.gauge(&format!("{prefix}.w{w}"));
            (0..config.workers).map(gauge).collect()
        };
        let ledger = Ledger {
            next_id: 0,
            submitted: 0,
            in_flight: vec![0; config.workers],
            dead: vec![false; config.workers],
            assigned: HashMap::new(),
            stats: vec![SchedStats::default(); config.workers],
            unrouted: 0,
            occupancy: gauges("serve.worker_inflight"),
        };
        let shared = Arc::new(Shared {
            inbox: Arc::new(Inbox::new(&telemetry)),
            ledger: Mutex::new(ledger),
            queue_depth: gauges("sched.queue_depth"),
            telemetry,
        });
        let compiled = Arc::new(compiled.clone());
        let halt = halt_signal.to_string();
        let mut senders = Vec::with_capacity(config.workers);
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            let (compiled, halt) = (Arc::clone(&compiled), halt.clone());
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("rteaal-serve-{w}"))
                .spawn(move || worker_loop(&compiled, &halt, config, rx, &shared, w));
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(e) => {
                    // Hanging up their queues stops the idle workers.
                    drop(senders);
                    for worker in workers {
                        let _ = worker.join();
                    }
                    return Err(PoolError::Spawn(e));
                }
            }
        }
        Ok(ServerPool {
            shared,
            routing: Mutex::new(Routing {
                designs: vec![DesignInfo {
                    name: DEFAULT_DESIGN.to_string(),
                    analysis: compiled.analysis.stats.clone(),
                }],
                senders,
            }),
            workers,
            config,
            started: Instant::now(),
        })
    }

    /// Time since the pool was constructed.
    pub(crate) fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Adds a design to the registry: every worker gains a scheduler
    /// for it, and jobs reach it through
    /// [`submit_named`](Self::submit_named) (or the wire protocol's
    /// `"design"` job field).
    ///
    /// # Errors
    ///
    /// [`RegisterError::UnknownHalt`] if `halt_signal` resolves on
    /// neither a probe nor an output port of `compiled`;
    /// [`RegisterError::DuplicateDesign`] if the name is taken;
    /// [`RegisterError::Rejected`] if the static plan verifier finds
    /// Error-level diagnostics (the plan never reaches a worker engine).
    pub(crate) fn register(
        &self,
        name: &str,
        compiled: &Compiled,
        halt_signal: &str,
    ) -> Result<(), RegisterError> {
        if compiled.plan.signal_slot(halt_signal).is_none() {
            return Err(RegisterError::UnknownHalt(UnknownSignal(
                halt_signal.to_string(),
            )));
        }
        // Re-verify at the trust boundary: `Compiled` values from the
        // compiler are clean by construction, but `register` accepts any
        // caller-built plan and workers would otherwise panic on a
        // corrupt one mid-run.
        let report = analyze_design(&compiled.plan);
        if !report.is_clean() {
            return Err(RegisterError::Rejected(report));
        }
        let mut routing = lock_or_recover(&self.routing);
        if routing.designs.iter().any(|d| d.name == name) {
            return Err(RegisterError::DuplicateDesign(name.to_string()));
        }
        routing.designs.push(DesignInfo {
            name: name.to_string(),
            analysis: report.stats,
        });
        // Broadcast under the lock: no job naming this design can be
        // sent until we release it, so every worker sees the
        // registration first.
        let compiled = Arc::new(compiled.clone());
        for (w, tx) in routing.senders.iter().enumerate() {
            // A dead worker's receiver is gone; the design still
            // registers on every survivor, and jobs that would have
            // landed on the dead worker are rejected at dispatch.
            if tx
                .send(WorkerMsg::Register {
                    design: name.to_string(),
                    compiled: Arc::clone(&compiled),
                    halt: halt_signal.to_string(),
                })
                .is_err()
            {
                lock_or_recover(&self.shared.ledger).dead[w] = true;
            }
        }
        Ok(())
    }

    /// The full registry entries — name and the static verifier's
    /// per-design statistics — in registration order.
    pub(crate) fn design_infos(&self) -> Vec<DesignInfo> {
        lock_or_recover(&self.routing).designs.clone()
    }

    /// Enqueues a job onto the least-loaded worker and returns a handle
    /// to its eventual result. Never blocks on the simulation.
    pub fn submit(&self, job: Job) -> JobHandle {
        self.submit_named(None, job)
    }

    /// Enqueues a job for a registered design (`None` = the default).
    /// A job naming an unregistered design comes back through its
    /// handle as a [`JobOutcome::Rejected`] result — submission itself
    /// never fails.
    pub(crate) fn submit_named(&self, design: Option<&str>, job: Job) -> JobHandle {
        let inbox = &self.shared.inbox;
        JobHandle {
            id: self.submit_as(inbox, None, design, job),
            inbox: Arc::clone(inbox),
            claimed: AtomicBool::new(false),
        }
    }

    /// A new, empty inbox for one socket session's jobs.
    pub(crate) fn open_inbox(&self) -> Arc<Inbox> {
        Arc::new(Inbox::new(&self.shared.telemetry))
    }

    /// [`submit_named`](Self::submit_named) into `inbox`: the job's id,
    /// under which its result lands there.
    pub(crate) fn submit_into(&self, inbox: &Arc<Inbox>, design: Option<&str>, job: Job) -> u64 {
        self.submit_as(inbox, None, design, job)
    }

    /// Sets aside 1 024 consecutive ids, none of which any other
    /// submission will get, for [`submit_reserved`](Self::submit_reserved).
    /// A reservation counts as no job: only the submissions stamped with
    /// its ids do.
    pub(crate) fn reserve(&self) -> Reservation {
        let mut ledger = lock_or_recover(&self.shared.ledger);
        let first = ledger.next_id;
        ledger.next_id += RESERVE_BLOCK;
        Reservation {
            ids: first..ledger.next_id,
        }
    }

    /// [`submit_into`](Self::submit_into) under a reserved id: the job
    /// gets `id` if `id` is the next id of `reservation`, which then
    /// moves past it. Any other id submits nothing and returns `None`.
    pub(crate) fn submit_reserved(
        &self,
        reservation: &mut Reservation,
        id: u64,
        inbox: &Arc<Inbox>,
        design: Option<&str>,
        job: Job,
    ) -> Option<u64> {
        if reservation.ids.is_empty() || reservation.ids.start != id {
            return None;
        }
        reservation.ids.start += 1;
        Some(self.submit_as(inbox, Some(id), design, job))
    }

    /// Submits into `inbox` under `reserved`, or under a fresh id.
    fn submit_as(
        &self,
        inbox: &Arc<Inbox>,
        reserved: Option<u64>,
        design: Option<&str>,
        mut job: Job,
    ) -> u64 {
        job.budget = job.budget.min(self.config.max_budget);
        // The job runs nameless: its name is parked in the assignment
        // record and rejoins the result at publication.
        let name = std::mem::take(&mut job.name);
        let routing = lock_or_recover(&self.routing);
        let index = match design {
            None => 0,
            Some(design) => match routing.designs.iter().position(|d| d.name == design) {
                Some(index) => index,
                None => {
                    drop(routing);
                    let error = format!("unknown design `{design}`");
                    return self.reject_unrouted(inbox, name, error, reserved, 0);
                }
            },
        };
        // Counted waiting for a lane before any worker can admit it.
        inbox.enqueue();
        // One ledger section picks the worker and records the job on it.
        let assigned = lock_or_recover(&self.shared.ledger).assign(name, reserved, inbox);
        let (id, w) = match assigned {
            Ok(dispatch) => dispatch,
            Err(name) => {
                let design = &routing.designs[index].name;
                let error = format!("no live worker can run design `{design}`");
                drop(routing);
                return self.reject_unrouted(inbox, name, error, reserved, 1);
            }
        };
        let submitted_at_us = self.shared.telemetry.now_us();
        self.shared
            .telemetry
            .record_event(id, JobStage::Submitted, Some(w as u64), None, None);
        // Sent under the routing lock, after the membership check: the
        // design's `Register` broadcast is already in this worker's
        // queue, so the job can never outrun its scheduler.
        let sent = routing.senders[w].send(WorkerMsg::Job {
            id,
            design: index,
            job,
            submitted_at_us,
        });
        drop(routing);
        if sent.is_err() {
            // The worker died between dispatch and the send: reject the
            // job, unless the worker's sweep removed its record first.
            let stranded = {
                let mut ledger = lock_or_recover(&self.shared.ledger);
                ledger.dead[w] = true;
                ledger.strand(id)
            };
            if let Some(record) = stranded {
                let error = format!("worker {w} is no longer running");
                publish_rejected(&self.shared, id, record, error);
            }
        }
        id
    }

    /// Rejects a job that cannot be dispatched at all (unknown design,
    /// no live worker): its id is counted rejected in the same ledger
    /// section that issues it, then the structured result is published,
    /// taking `left_queue` jobs off the inbox's count of waiting ones.
    fn reject_unrouted(
        &self,
        inbox: &Inbox,
        name: String,
        error: String,
        reserved: Option<u64>,
        left_queue: usize,
    ) -> u64 {
        let id = {
            let mut ledger = lock_or_recover(&self.shared.ledger);
            ledger.unrouted += 1;
            ledger.take_id(reserved)
        };
        let telemetry = &self.shared.telemetry;
        telemetry.record_event(id, JobStage::Submitted, None, None, None);
        telemetry.record_event(id, JobStage::Published, None, None, None);
        inbox.deliver([rejected(id, name, error)], left_queue);
        id
    }

    /// The pool's metrics registry: counters, gauges, latency
    /// histograms, and the per-job event ring every layer records into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.telemetry
    }

    /// One job's retained event timeline (the `timeline` verb payload).
    pub fn timeline(&self, id: u64) -> Vec<rteaal_telemetry::JobEvent> {
        self.shared.telemetry.timeline(id)
    }

    /// A snapshot of the pool's counters.
    ///
    /// Every term of the ledger identity (`submitted`, `in_flight`, the
    /// finished counters) is sampled inside one critical section on the
    /// ledger lock, so [`ServeStats::accounting_balanced`] holds for
    /// every snapshot — debug builds assert it here, and that the
    /// `serve.worker_inflight.w{n}` gauges sum to `in_flight`.
    pub(crate) fn stats(&self) -> ServeStats {
        let designs = lock_or_recover(&self.routing).designs.len();
        let ledger = lock_or_recover(&self.shared.ledger);
        let in_flight: usize = ledger.in_flight.iter().sum();
        debug_assert_eq!(
            ledger.occupancy.iter().map(|g| g.get()).sum::<i64>(),
            in_flight as i64,
            "serve.worker_inflight gauges disagree with the ledger"
        );
        let (submitted, per_worker) = (ledger.submitted, ledger.stats.clone());
        // Pool-side rejections never touch a worker's scheduler; they
        // start the fold so the finished counters cover every job.
        let mut merged = SchedStats {
            rejected: ledger.unrouted,
            ..SchedStats::default()
        };
        drop(ledger);
        for s in &per_worker {
            merged.merge(s);
        }
        let queue_depth = self.shared.queue_depth.iter();
        let queue_depth = queue_depth.map(|g| g.get().max(0) as usize).sum();
        let stats = ServeStats {
            workers: self.config.workers,
            lanes: self.config.lanes,
            designs,
            submitted,
            unclaimed: self.shared.inbox.unclaimed.get().max(0) as usize,
            in_flight,
            queue_depth,
            uptime_ms: self.uptime().as_millis() as u64,
            merged,
            per_worker,
        };
        debug_assert!(
            stats.accounting_balanced(),
            "pool ledger broken: submitted {} != completed {} + evicted {} + \
             rejected {} + in_flight {}",
            stats.submitted,
            stats.merged.completed,
            stats.merged.evicted,
            stats.merged.rejected,
            stats.in_flight,
        );
        stats
    }

    /// Stops accepting submissions, lets every worker drain its
    /// outstanding jobs, joins the threads, and returns the final
    /// counters. Already-issued [`JobHandle`]s stay valid — results
    /// published during the drain remain claimable.
    pub fn shutdown(mut self) -> ServeStats {
        lock_or_recover(&self.routing).senders.clear();
        for (w, handle) in self.workers.drain(..).enumerate() {
            // A worker that panicked mid-run already failed its jobs
            // through its unwind guard; the drain must not turn one
            // lost worker into a pool-wide panic.
            if handle.join().is_err() {
                lock_or_recover(&self.shared.ledger).dead[w] = true;
            }
        }
        self.stats()
    }
}

impl Drop for ServerPool {
    fn drop(&mut self) {
        lock_or_recover(&self.routing).senders.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: a scheduler per design driven a quantum at a time, fed
/// from its queue, publishing results as lanes drain. Exits once the pool
/// disconnects the queue *and* all outstanding work is done.
fn worker_loop(
    compiled: &Compiled,
    halt: &str,
    config: ServeConfig,
    rx: Receiver<WorkerMsg>,
    shared: &Shared,
    w: usize,
) {
    // Armed first and owning the queue: if anything below panics, the
    // guard's Drop runs during unwind, disconnects the queue, and fails
    // every job this worker owns, so no handle ever wedges on a dead
    // worker.
    let watch = Deathwatch { shared, w, rx };
    // The pool resolved `halt` on the design before sending it here.
    let build = |compiled: &Compiled, halt: &str, design: &str| {
        let mut sched = Scheduler::new(compiled, config.lanes, halt)
            .expect("halt signal validated by the pool");
        sched.attach_telemetry(Arc::clone(&shared.telemetry), w, design);
        sched
    };
    // A Vec, not a map: designs stay in registration order (determinism
    // for the multiplexed drive below) and the registry is small.
    let mut designs: Vec<Scheduler> = vec![build(compiled, halt, DEFAULT_DESIGN)];
    let dispatch_latency = shared.telemetry.histogram("serve.dispatch_latency_us");
    let apply = |designs: &mut Vec<Scheduler>, msg: WorkerMsg| match msg {
        WorkerMsg::Register {
            design,
            compiled,
            halt,
        } => designs.push(build(&compiled, &halt, &design)),
        WorkerMsg::Job {
            id,
            design,
            job,
            submitted_at_us,
        } => {
            dispatch_latency.record(shared.telemetry.now_us().saturating_sub(submitted_at_us));
            let Some(sched) = designs.get_mut(design) else {
                // Unreachable through the public API (registration is
                // broadcast under the routing lock before any job can
                // name the design), but a broken invariant must fail
                // one job, not the worker.
                debug_assert!(false, "job for unregistered design #{design}");
                let stranded = lock_or_recover(&shared.ledger).strand(id);
                if let Some(record) = stranded {
                    let error = format!("design #{design} is not registered on worker {w}");
                    publish_rejected(shared, id, record, error);
                }
                return;
            };
            // Trace under the pool-global id: the scheduler's queued /
            // admitted / halted events join the pool's submitted /
            // published / delivered ones on one timeline, and the
            // result comes back carrying it.
            sched.submit_traced(job, id);
        }
        #[cfg(test)]
        WorkerMsg::Die => {
            let _poison = shared.ledger.lock();
            panic!("worker {w} killed by test");
        }
        #[cfg(test)]
        WorkerMsg::Hold(gate) => {
            gate.wait();
        }
    };
    loop {
        // Idle workers block on their queue instead of spinning; a
        // disconnected queue with no work left means shutdown.
        if !designs.iter().any(Scheduler::has_work) {
            match watch.rx.recv() {
                Ok(msg) => apply(&mut designs, msg),
                Err(_) => break,
            }
        }
        // Opportunistically drain whatever else has queued up — mid-run
        // admission packs new jobs into lanes freed this quantum.
        while let Ok(msg) = watch.rx.try_recv() {
            apply(&mut designs, msg);
        }
        // Multiplex: each design with work gets one quantum in turn.
        let mut stepped = 0;
        for sched in &mut designs {
            if sched.has_work() {
                stepped += sched.run_quantum(QUANTUM_CAP);
            }
        }
        publish(&mut designs, shared, w, stepped);
    }
}

/// One inbox's share of a worker round.
struct Delivery {
    inbox: Arc<Inbox>,
    /// Its jobs that stopped waiting for a lane this round.
    left_queue: usize,
    results: Vec<JobResult>,
}

/// The entry of `inbox` in `round`, made if it is not there yet.
fn delivery<'a>(round: &'a mut Vec<Delivery>, inbox: &Arc<Inbox>) -> &'a mut Delivery {
    let at = round.iter().position(|d| Arc::ptr_eq(&d.inbox, inbox));
    let at = at.unwrap_or_else(|| {
        round.push(Delivery {
            inbox: Arc::clone(inbox),
            left_queue: 0,
            results: Vec::new(),
        });
        round.len() - 1
    });
    &mut round[at]
}

/// Publishes a round of quanta's admissions and harvested results
/// under their pool-global ids. One ledger section stores the worker's
/// counters (merged across designs), marks each admitted job, and
/// settles each harvested one, whose record hands its name back to the
/// result and names its inbox; then each inbox of the round takes its
/// share under its own lock once. A round that stepped nothing and
/// admitted or finished nothing moved no counter and takes no lock.
fn publish(designs: &mut [Scheduler], shared: &Shared, w: usize, stepped: u64) {
    // Harvest before taking a lock: quanta that finished nothing must
    // not contend with the claimers.
    let mut harvested: Vec<JobResult> = Vec::new();
    let mut admitted: Vec<u64> = Vec::new();
    for sched in designs.iter_mut() {
        harvested.append(&mut sched.take_results());
        admitted.extend(sched.drain_admitted());
    }
    if stepped == 0 && harvested.is_empty() && admitted.is_empty() {
        return;
    }
    let mut merged = SchedStats::default();
    for sched in designs.iter() {
        merged.merge(&sched.stats());
    }
    let mut round: Vec<Delivery> = Vec::new();
    {
        let mut ledger = lock_or_recover(&shared.ledger);
        ledger.stats[w] = merged;
        // Admissions first: a job admitted and finished in one round
        // leaves its inbox's queue once.
        for trace in admitted {
            if let Some(record) = ledger.assigned.get_mut(&trace) {
                record.admitted = true;
                delivery(&mut round, &record.inbox).left_queue += 1;
            }
        }
        for mut r in harvested {
            // From here on the result goes by its pool-global id, the
            // one its scheduler traced it under. A job with no record
            // was settled, and published, by whoever removed it.
            let Some(record) = ledger.settle(r.trace) else {
                continue;
            };
            r.id = JobId(r.trace);
            r.name = record.name;
            let d = delivery(&mut round, &record.inbox);
            d.left_queue += usize::from(!record.admitted);
            d.results.push(r);
        }
    }
    for d in round {
        for r in &d.results {
            let lane = (r.lane != usize::MAX).then_some(r.lane as u64);
            shared
                .telemetry
                .record_event(r.trace, JobStage::Published, Some(w as u64), lane, None);
        }
        d.inbox.deliver(d.results, d.left_queue);
    }
}

/// A structured [`JobOutcome::Rejected`] result for a job that never
/// ran.
fn rejected(id: u64, name: String, error: String) -> JobResult {
    JobResult {
        id: JobId(id),
        trace: id,
        name,
        outputs: Vec::new(),
        outcome: JobOutcome::Rejected,
        error: Some(error),
        cycles: 0,
        admitted_at: 0,
        finished_at: 0,
        lane: usize::MAX,
    }
}

/// Publishes a rejection for a job whose record was settled before it
/// could finish (dead worker, stranded by a worker panic, a design the
/// worker does not hold) into the record's inbox.
fn publish_rejected(shared: &Shared, id: u64, record: Assignment, error: String) {
    shared
        .telemetry
        .record_event(id, JobStage::Published, None, None, None);
    let left_queue = usize::from(!record.admitted);
    let result = rejected(id, record.name, error);
    record.inbox.deliver([result], left_queue);
}

/// The unwind guard armed at the top of every worker thread, owning
/// the worker's submission queue. If the worker panics (an engine bug,
/// a poisoned invariant), the guard runs during unwind: it disconnects
/// the queue, so racing submissions fail their sends instead of landing
/// messages nobody will read, then in one ledger section marks the
/// worker dead, strands every job the worker still owns — queued or
/// mid-run — and zeroes its queue-depth gauge, and last publishes a
/// rejection for each stranded job. A submission records its job in
/// the ledger before its send, so a job that slips past the disconnect
/// is either swept here or rolled back by its submitter.
struct Deathwatch<'a> {
    shared: &'a Shared,
    w: usize,
    rx: Receiver<WorkerMsg>,
}

impl Drop for Deathwatch<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let w = self.w;
        // Disconnect the queue *now* — struct fields would only drop
        // after this function returns, which would be after the sweep.
        let (_tx, dummy) = mpsc::channel();
        drop(std::mem::replace(&mut self.rx, dummy));
        let stranded: Vec<(u64, Assignment)> = {
            let mut ledger = lock_or_recover(&self.shared.ledger);
            ledger.dead[w] = true;
            self.shared.queue_depth[w].set(0);
            let owned = ledger
                .assigned
                .iter()
                .filter(|(_, record)| record.worker == w);
            let ids: Vec<u64> = owned.map(|(&id, _)| id).collect();
            ids.into_iter()
                .filter_map(|id| Some((id, ledger.strand(id)?)))
                .collect()
        };
        for (id, record) in stranded {
            let error = format!("worker {w} died before the job could finish");
            publish_rejected(self.shared, id, record, error);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rteaal_core::Compiler;
    use rteaal_kernels::{KernelConfig, KernelKind};
    use rteaal_sched::JobOutcome;
    use std::sync::atomic::AtomicU64;

    const HALT_SRC: &str = "\
circuit H :
  module H :
    input clock : Clock
    input limit : UInt<8>
    output cnt : UInt<8>
    output done : UInt<1>
    reg acc : UInt<8>, clock
    acc <= tail(add(acc, UInt<8>(1)), 1)
    cnt <= acc
    done <= geq(acc, limit)
";

    fn compiled() -> Compiled {
        Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(HALT_SRC)
            .unwrap()
    }

    fn count_job(limit: u64) -> Job {
        Job::new(format!("count-{limit}"), limit + 8)
            .with_input("limit", limit)
            .with_probe("cnt")
    }

    #[test]
    fn pool_serves_many_clients_worth_of_jobs() {
        let c = compiled();
        for workers in [1usize, 2, 3] {
            let mut cfg = ServeConfig::with_workers(workers);
            cfg.lanes = 2;
            let pool = ServerPool::new(&c, cfg, "done").unwrap();
            let limits: Vec<u64> = (0..20).map(|i| 2 + (i * 7) % 23).collect();
            let handles: Vec<JobHandle> =
                limits.iter().map(|&l| pool.submit(count_job(l))).collect();
            for (&limit, h) in limits.iter().zip(&handles) {
                let r = h.wait();
                assert!(r.completed(), "{}", r.name);
                assert_eq!(r.id.0, h.id());
                assert_eq!(r.name, format!("count-{limit}"));
                assert_eq!(r.outputs[0], ("cnt".to_string(), limit + 1));
                assert_eq!(r.cycles, limit + 1);
            }
            // Delivery is exactly-once.
            assert!(handles[0].poll().is_none());
            let stats = pool.shutdown();
            assert_eq!(stats.submitted, limits.len() as u64);
            assert_eq!(stats.merged.completed, limits.len());
            assert_eq!(stats.unclaimed, 0);
            assert_eq!(stats.per_worker.len(), workers);
            if workers > 1 {
                // Least-loaded dispatch spread the corpus around.
                assert!(
                    stats.per_worker.iter().all(|s| s.admitted > 0),
                    "{:?}",
                    stats.per_worker
                );
            }
        }
    }

    #[test]
    fn poison_jobs_come_back_rejected_without_stalling_the_pool() {
        let c = compiled();
        let pool = ServerPool::new(&c, ServeConfig::with_workers(1), "done").unwrap();
        let good_before = pool.submit(count_job(3));
        let bad = pool.submit(Job::new("poison", 10).with_input("nope", 1));
        let good_after = pool.submit(count_job(5));
        let r = bad.wait();
        assert_eq!(r.outcome, JobOutcome::Rejected);
        assert!(r.error.unwrap().contains("nope"));
        assert!(good_before.wait().completed());
        assert!(good_after.wait().completed());
        let stats = pool.shutdown();
        assert_eq!(stats.merged.rejected, 1);
        assert_eq!(stats.merged.completed, 2);
    }

    #[test]
    fn poll_is_nonblocking_and_shutdown_drains() {
        let c = compiled();
        let pool = ServerPool::new(&c, ServeConfig::with_workers(2), "done").unwrap();
        let handles: Vec<JobHandle> = (0..10).map(|i| pool.submit(count_job(4 + i))).collect();
        // Results stay claimable after shutdown (which drains workers).
        let stats = pool.shutdown();
        assert_eq!(stats.merged.completed, 10);
        assert!(stats.utilization() > 0.0);
        for (i, h) in handles.iter().enumerate() {
            let r = h.poll().expect("drained before shutdown returned");
            assert_eq!(r.outputs[0].1, 4 + i as u64 + 1);
        }
    }

    #[test]
    fn dropping_an_unclaimed_handle_frees_its_result_slot() {
        let c = compiled();
        let pool = ServerPool::new(&c, ServeConfig::with_workers(1), "done").unwrap();
        // Dropped before the job can have finished: the publication is
        // discarded via the tombstone.
        drop(pool.submit(count_job(30)));
        // Dropped after the result landed: the slot is freed directly.
        let parked = pool.submit(count_job(2));
        let kept = pool.submit(count_job(25));
        assert!(kept.wait().completed());
        drop(parked);
        let stats = pool.shutdown();
        assert_eq!(stats.merged.completed, 3, "abandoned jobs still ran");
        assert_eq!(stats.unclaimed, 0, "no parked results leak");
    }

    #[test]
    fn registered_designs_route_jobs_by_name() {
        // A second design: the same counter stepping by 2, so results
        // provably come from the right scheduler.
        const DOUBLE_SRC: &str = "\
circuit D :
  module D :
    input clock : Clock
    input limit : UInt<8>
    output cnt : UInt<8>
    output done : UInt<1>
    reg acc : UInt<8>, clock
    acc <= tail(add(acc, UInt<8>(2)), 1)
    cnt <= acc
    done <= geq(acc, limit)
";
        let c = compiled();
        let c2 = Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(DOUBLE_SRC)
            .unwrap();
        let pool = ServerPool::new(&c, ServeConfig::with_workers(2), "done").unwrap();
        pool.register("double", &c2, "done").unwrap();
        assert_eq!(
            pool.design_infos()
                .into_iter()
                .map(|d| d.name)
                .collect::<Vec<_>>(),
            vec![DEFAULT_DESIGN.to_string(), "double".to_string()]
        );
        // Re-registration and unknown halts are refused.
        assert_eq!(
            pool.register("double", &c2, "done"),
            Err(RegisterError::DuplicateDesign("double".to_string()))
        );
        assert_eq!(
            pool.register("broken", &c2, "ghost"),
            Err(RegisterError::UnknownHalt(UnknownSignal(
                "ghost".to_string()
            )))
        );
        // Jobs route by design name; the default is untouched.
        let on_default = pool.submit(count_job(5));
        let on_double = pool.submit_named(Some("double"), count_job(5));
        let unknown = pool.submit_named(Some("nope"), count_job(5));
        let r = on_default.wait();
        assert!(r.completed());
        assert_eq!(r.outputs[0], ("cnt".to_string(), 6), "step-by-1 counter");
        let d = on_double.wait();
        assert!(d.completed());
        // done rises at acc = 6 and is observed one commit later, so
        // the step-by-2 counter harvests 8 after 4 cycles (the
        // step-by-1 counter harvests limit + 1 the same way).
        assert_eq!(d.outputs[0], ("cnt".to_string(), 8), "step-by-2 counter");
        assert_eq!(d.cycles, 4, "halted in 4 cycles instead of 6");
        let u = unknown.wait();
        assert_eq!(u.outcome, JobOutcome::Rejected);
        assert!(u.error.unwrap().contains("unknown design `nope`"));
        let stats = pool.shutdown();
        assert_eq!(stats.designs, 2);
        assert_eq!(stats.merged.completed, 2);
        // The unknown-design rejection counts as finished work: the
        // submitted/finished ledger closes.
        assert_eq!(stats.merged.rejected, 1);
        assert_eq!(stats.submitted, 3);
    }

    #[test]
    fn unknown_halt_signal_is_rejected_up_front() {
        let c = compiled();
        match ServerPool::new(&c, ServeConfig::default(), "ghost") {
            Err(PoolError::UnknownHalt(UnknownSignal(name))) => assert_eq!(name, "ghost"),
            other => panic!("expected an unknown halt, got {other:?}"),
        }
    }

    #[test]
    fn a_pool_without_workers_or_lanes_is_refused() {
        let c = compiled();
        let refused = |workers, lanes| {
            let config = ServeConfig {
                workers,
                lanes,
                ..ServeConfig::default()
            };
            ServerPool::new(&c, config, "done").err()
        };
        assert!(matches!(refused(0, 8), Some(PoolError::NoWorkers)));
        assert!(matches!(refused(2, 0), Some(PoolError::NoLanes)));
        assert!(refused(1, 1).is_none());
    }

    #[test]
    fn budgets_are_clamped_to_the_server_cap() {
        let c = compiled();
        let mut cfg = ServeConfig::with_workers(1);
        cfg.max_budget = 6;
        let pool = ServerPool::new(&c, cfg, "done").unwrap();
        // limit 200 is unreachable; the clamped budget evicts at 6.
        let h = pool.submit(
            Job::new("runaway", u64::MAX)
                .with_input("limit", 200)
                .with_probe("cnt"),
        );
        let r = h.wait();
        assert_eq!(r.outcome, JobOutcome::Evicted);
        assert_eq!(r.cycles, 6);
        pool.shutdown();
    }

    /// The counter of [`HALT_SRC`] at 32 bits: jobs long enough to
    /// still be running while a test looks at their neighbours.
    const WIDE_SRC: &str = "\
circuit W :
  module W :
    input clock : Clock
    input limit : UInt<32>
    output cnt : UInt<32>
    output done : UInt<1>
    reg acc : UInt<32>, clock
    acc <= tail(add(acc, UInt<32>(1)), 1)
    cnt <= acc
    done <= geq(acc, limit)
";

    fn wide() -> Compiled {
        Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(WIDE_SRC)
            .unwrap()
    }

    /// When one stage of a job's timeline was recorded.
    fn stage_at(pool: &ServerPool, handle: &JobHandle, stage: JobStage) -> u64 {
        let timeline = pool.timeline(handle.id());
        let event = timeline.iter().find(|e| e.stage == stage);
        event.expect("the stage was recorded").at_us
    }

    #[test]
    fn a_short_job_is_published_the_cycle_it_halts_beside_a_long_one() {
        let c = wide();
        let mut cfg = ServeConfig::with_workers(1);
        cfg.lanes = 2;
        let pool = ServerPool::new(&c, cfg, "done").unwrap();
        // Park the worker until all three jobs are in its inbox: the
        // long and the short one then start in the same cycle and the
        // third waits for the short one's lane.
        let gate = Arc::new(std::sync::Barrier::new(2));
        lock_or_recover(&pool.routing).senders[0]
            .send(WorkerMsg::Hold(Arc::clone(&gate)))
            .unwrap();
        let wide_job = |name: &str, limit: u64, budget: u64| {
            Job::new(name, budget)
                .with_input("limit", limit)
                .with_probe("cnt")
        };
        let long = pool.submit(wide_job("long", 1 << 18, 1 << 19));
        let short = pool.submit(wide_job("short", 40, 64));
        // The timeline's only cycle-granular clock: a job evicted one
        // engine cycle after it takes over the short job's lane.
        let tick = pool.submit(wide_job("tick", u64::from(u32::MAX), 1));
        gate.wait();
        let s = short.wait();
        let t = tick.wait();
        let l = long.wait();
        assert!(s.completed() && l.completed());
        assert_eq!((s.name.as_str(), s.cycles), ("short", 41));
        assert_eq!(l.cycles, (1 << 18) + 1);
        assert_eq!(t.outcome, JobOutcome::Evicted);
        assert_eq!(
            (t.admitted_at, t.finished_at),
            (s.finished_at, s.finished_at + 1),
            "the tick ran the one cycle after the short job halted"
        );
        // Published no later than the next engine cycle's harvest, not
        // at the end of some longer quantum...
        assert!(
            stage_at(&pool, &short, JobStage::Published)
                <= stage_at(&pool, &tick, JobStage::Halted)
        );
        // ...and claimed while its neighbour was still running.
        assert!(
            stage_at(&pool, &short, JobStage::Delivered) < stage_at(&pool, &long, JobStage::Halted)
        );
        pool.shutdown();
    }

    #[test]
    fn an_inbox_without_a_backlog_is_answered_at_its_first_completion_beside_one_with() {
        // One worker, two lanes, held until every job is queued. Inbox
        // `a`'s one short job and `b`'s first long job take the lanes;
        // `b`'s second long job takes the short job's lane when it
        // finishes, and its three short ones wait behind both.
        let mut cfg = ServeConfig::with_workers(1);
        cfg.lanes = 2;
        let pool = ServerPool::new(&wide(), cfg, "done").unwrap();
        let gate = Arc::new(std::sync::Barrier::new(2));
        lock_or_recover(&pool.routing).senders[0]
            .send(WorkerMsg::Hold(Arc::clone(&gate)))
            .unwrap();
        let long = || {
            Job::new("long", 1 << 19)
                .with_input("limit", u64::from(u32::MAX))
                .with_probe("cnt")
        };
        let (a, b) = (pool.open_inbox(), pool.open_inbox());
        let short = pool.submit_into(&a, None, count_job(5));
        pool.submit_into(&b, None, long());
        pool.submit_into(&b, None, long());
        for limit in 1..=3 {
            pool.submit_into(&b, None, count_job(limit));
        }
        assert_eq!(b.lock().queued, 5);
        gate.wait();
        let answer = a.wait_batch(16, |_| true);
        assert_eq!(answer.len(), 1);
        assert_eq!((answer[0].id.0, answer[0].outputs[0].1), (short, 6));
        // Answered while `b` has none finished and its three short jobs
        // still wait behind the long ones (five, if the worker has not
        // yet moved the round's admissions into `b`): its own batched
        // claim is not due.
        let b_state = b.lock();
        assert!(b_state.queued >= 3 && b_state.ready.is_empty());
        drop(b_state);
        // `b`'s first answer waits past its first completion: one long
        // job finished leaves two short ones waiting.
        let rest = b.wait_batch(16, |_| true);
        assert!(rest.len() >= 2, "{} of b's jobs", rest.len());
        pool.shutdown();
    }

    #[test]
    fn a_job_that_never_halts_does_not_starve_the_worker_s_other_design() {
        // One worker, one lane, two designs. The default design's only
        // job fills the lane and runs out its whole budget: no finish
        // and no free lane ever ends its quanta, so the cap alone gives
        // the other design's jobs their turns.
        let mut cfg = ServeConfig::with_workers(1);
        cfg.lanes = 1;
        let pool = ServerPool::new(&wide(), cfg, "done").unwrap();
        pool.register("other", &compiled(), "done").unwrap();
        let hog = pool.submit(
            Job::new("hog", 1 << 18)
                .with_input("limit", u64::from(u32::MAX))
                .with_probe("cnt"),
        );
        let others: Vec<JobHandle> = (0..5)
            .map(|i| pool.submit_named(Some("other"), count_job(3 + i)))
            .collect();
        for (i, h) in others.iter().enumerate() {
            let r = h.wait();
            assert!(r.completed(), "{}", r.name);
            assert_eq!(r.outputs[0].1, 3 + i as u64 + 1);
        }
        let r = hog.wait();
        assert_eq!((r.outcome, r.cycles), (JobOutcome::Evicted, 1 << 18));
        let evicted_at = stage_at(&pool, &hog, JobStage::Halted);
        for h in &others {
            assert!(stage_at(&pool, h, JobStage::Published) < evicted_at);
        }
        pool.shutdown();
    }

    #[test]
    fn accounting_closes_at_every_snapshot_under_concurrent_polling() {
        // Hammer stats() from another thread while jobs flow: every
        // snapshot must satisfy the ledger identity (stats() itself
        // debug-asserts it; this test also checks from outside).
        let c = compiled();
        let mut cfg = ServeConfig::with_workers(2);
        cfg.lanes = 2;
        let pool = Arc::new(ServerPool::new(&c, cfg, "done").unwrap());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let snapshots = Arc::new(AtomicU64::new(0));
        let poller = {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            let snapshots = Arc::clone(&snapshots);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let s = pool.stats();
                    assert!(
                        s.accounting_balanced(),
                        "submitted {} != {} + {} + {} + in_flight {}",
                        s.submitted,
                        s.merged.completed,
                        s.merged.evicted,
                        s.merged.rejected,
                        s.in_flight
                    );
                    snapshots.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        let submit = |i: u64| {
            if i % 10 == 9 {
                // Unknown designs exercise the unrouted leg.
                pool.submit_named(Some("ghost"), count_job(3))
            } else {
                pool.submit(count_job(2 + (i * 7) % 23))
            }
        };
        let mut handles: Vec<JobHandle> = (0..20).map(submit).collect();
        // The poller observes at least one snapshot mid-corpus: the
        // second half is held back until it has.
        let seen = snapshots.load(Ordering::Relaxed);
        while snapshots.load(Ordering::Relaxed) == seen {
            assert!(!poller.is_finished(), "the poller died on a snapshot");
            std::thread::yield_now();
        }
        handles.extend((20..40).map(submit));
        for h in &handles {
            h.wait();
        }
        stop.store(true, Ordering::Relaxed);
        poller.join().unwrap();
        let final_stats = pool.stats();
        assert!(final_stats.accounting_balanced());
        assert_eq!(final_stats.submitted, 40);
        assert_eq!(final_stats.merged.rejected, 4);
    }

    #[test]
    fn a_killed_worker_fails_its_jobs_and_the_pool_stays_drainable() {
        // Satellite regression: a worker panicking mid-corpus (here:
        // while holding the ledger lock, the worst case — the lock is
        // poisoned *and* every job it owns is stranded) must neither
        // wedge `wait` nor panic the pool front end.
        let c = compiled();
        let mut cfg = ServeConfig::with_workers(1);
        cfg.lanes = 2;
        let pool = ServerPool::new(&c, cfg, "done").unwrap();
        // One job completes normally first, so the corpus provably
        // spans the death.
        assert!(pool.submit(count_job(3)).wait().completed());
        // Kill the worker, then keep submitting: the Die message
        // precedes the jobs in its queue, so none of them can run.
        lock_or_recover(&pool.routing).senders[0]
            .send(WorkerMsg::Die)
            .unwrap();
        let doomed: Vec<JobHandle> = (0..6).map(|i| pool.submit(count_job(4 + i))).collect();
        for h in &doomed {
            // Every handle resolves — no wedge — with a structured
            // rejection, whichever race it lost (dead-flag dispatch,
            // failed send, or the unwind guard's strand sweep).
            let r = h.wait();
            assert_eq!(r.outcome, JobOutcome::Rejected, "{}", r.name);
            let err = r.error.expect("rejections carry a reason");
            assert!(
                err.contains("worker") || err.contains("no live worker"),
                "unexpected reason: {err}"
            );
        }
        // The front end still works over the poisoned ledger lock, and
        // the accounting identity still closes: 1 completed + 6
        // rejected + 0 in flight.
        let stats = pool.stats();
        assert!(stats.accounting_balanced());
        assert_eq!(stats.submitted, 7);
        assert_eq!(stats.merged.completed, 1);
        assert_eq!(stats.merged.rejected, 6);
        assert_eq!(stats.in_flight, 0);
        // Shutdown joins the panicked worker without panicking itself.
        let final_stats = pool.shutdown();
        assert_eq!(final_stats.merged.rejected, 6);
    }

    #[test]
    fn a_dead_worker_leaves_no_phantom_backlog() {
        // Jobs sitting in a worker's scheduler queue when it dies are
        // rejected by its sweep, and must leave the reported backlog.
        let c = compiled();
        let mut cfg = ServeConfig::with_workers(1);
        cfg.lanes = 2;
        let pool = ServerPool::new(&c, cfg, "done").unwrap();
        let gate = Arc::new(std::sync::Barrier::new(2));
        let send = |msg| lock_or_recover(&pool.routing).senders[0].send(msg).unwrap();
        send(WorkerMsg::Hold(Arc::clone(&gate)));
        let doomed: Vec<JobHandle> = (0..5).map(|_| pool.submit(count_job(200))).collect();
        send(WorkerMsg::Die);
        gate.wait();
        for h in &doomed {
            assert_eq!(h.wait().outcome, JobOutcome::Rejected);
        }
        let stats = pool.stats();
        assert_eq!((stats.in_flight, stats.merged.rejected), (0, 5));
        assert_eq!(stats.queue_depth, 0, "the dead worker's queue is gone");
        pool.shutdown();
    }

    #[test]
    fn surviving_workers_keep_serving_after_one_dies() {
        let c = compiled();
        let mut cfg = ServeConfig::with_workers(2);
        cfg.lanes = 2;
        let pool = ServerPool::new(&c, cfg, "done").unwrap();
        lock_or_recover(&pool.routing).senders[0]
            .send(WorkerMsg::Die)
            .unwrap();
        // Wait for the unwind guard to mark the worker dead so the
        // whole corpus provably dispatches against a one-worker pool.
        while !lock_or_recover(&pool.shared.ledger).dead[0] {
            std::thread::yield_now();
        }
        let handles: Vec<JobHandle> = (0..10).map(|i| pool.submit(count_job(2 + i))).collect();
        for (i, h) in handles.iter().enumerate() {
            let r = h.wait();
            assert!(r.completed(), "{}", r.name);
            assert_eq!(r.outputs[0].1, 2 + i as u64 + 1);
        }
        // Registration also survives: the design lands on worker 1 and
        // serves jobs, while the dead worker's send is skipped.
        pool.register("again", &c, "done").unwrap();
        assert!(pool
            .submit_named(Some("again"), count_job(5))
            .wait()
            .completed());
        let stats = pool.shutdown();
        assert!(stats.accounting_balanced());
        assert_eq!(stats.merged.completed, 11);
        assert_eq!(stats.per_worker[1].admitted, 11, "all work moved to w1");
    }

    #[test]
    fn timelines_and_metrics_cover_the_whole_job_lifecycle() {
        let c = compiled();
        let mut cfg = ServeConfig::with_workers(2);
        cfg.lanes = 2;
        let pool = ServerPool::new(&c, cfg, "done").unwrap();
        let handles: Vec<JobHandle> = (1u64..=6).map(|k| pool.submit(count_job(k))).collect();
        for h in &handles {
            assert!(h.wait().completed());
        }
        // Every job's timeline has all six stages, in order, with
        // non-decreasing timestamps and consistent attribution.
        use rteaal_telemetry::ALL_STAGES;
        for h in &handles {
            let t = pool.timeline(h.id());
            let stages: Vec<_> = t.iter().map(|e| e.stage).collect();
            assert_eq!(stages, ALL_STAGES.to_vec(), "job {}", h.id());
            assert!(t.windows(2).all(|w| w[0].at_us <= w[1].at_us));
            let worker = t[0].worker.expect("submit records the worker");
            // Queued/admitted/halted/published all happened on the
            // worker submit dispatched to.
            assert!(t[1..5].iter().all(|e| e.worker == Some(worker)));
            // Admitted, halted, and published agree on the lane.
            assert!(t[2].lane.is_some());
            assert_eq!(t[2].lane, t[3].lane);
            assert_eq!(t[3].lane, t[4].lane);
        }
        let snap = pool.metrics().snapshot();
        assert_eq!(snap.counter("sched.completed"), 6);
        assert_eq!(snap.counter("sched.admitted"), 6);
        assert_eq!(
            snap.counter("sched.busy_cycles.default"),
            pool.stats().merged.busy_lane_cycles
        );
        let dispatch = snap.histogram("serve.dispatch_latency_us").unwrap();
        assert_eq!(dispatch.hist.count, 6);
        // Quiescent: occupancy gauges and queue depths are back to zero.
        assert_eq!(snap.gauge("serve.worker_inflight.w0"), 0);
        assert_eq!(snap.gauge("serve.worker_inflight.w1"), 0);
        assert_eq!(pool.stats().queue_depth, 0);
        assert_eq!(pool.stats().in_flight, 0);
        pool.shutdown();
    }
}
