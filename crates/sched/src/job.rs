//! Jobs, stable job identities, per-job results, and the FIFO queue.
//!
//! A [`Job`] is one self-contained testbench for the scheduler's
//! compiled design: the input bindings to hold, the architectural state
//! pokes to apply after the per-lane power-on reset (the DMI path that
//! lets one circuit serve jobs of many lengths), the signals to harvest
//! at completion, and a cycle budget after which the job is evicted.
//! Results are keyed by [`JobId`], never by lane: lanes are recycled the
//! moment a job drains, so a physical lane index identifies a *slot*,
//! not a testbench.

use rteaal_designs::Workload;
use std::collections::VecDeque;

/// Stable identity of one submitted job, assigned by the queue in
/// submission order and decoupled from the physical lane the job
/// eventually runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One testbench job for the scheduler's design.
#[derive(Debug, Clone)]
pub struct Job {
    /// Human-readable tag (carried into the result).
    pub name: String,
    /// Input-port bindings applied at admission and held until the job
    /// finishes (re-admissions re-apply them onto the power-on state).
    pub inputs: Vec<(String, u64)>,
    /// Architectural state pokes (DMI path) applied after the per-lane
    /// reset, before the first cycle — e.g. a loop bound pre-loaded into
    /// a register.
    pub state_pokes: Vec<(String, u64)>,
    /// Probed signals harvested into [`JobResult::outputs`] when the job
    /// halts (or is evicted).
    pub probes: Vec<String>,
    /// Maximum cycles the job may run after admission; past this it is
    /// forcibly retired with [`JobResult::completed`] = `false`.
    pub budget: u64,
}

impl Job {
    /// A job with no bindings yet (builder style).
    pub fn new(name: impl Into<String>, budget: u64) -> Self {
        Job {
            name: name.into(),
            inputs: Vec::new(),
            state_pokes: Vec::new(),
            probes: Vec::new(),
            budget,
        }
    }

    /// Adds a held input binding.
    #[must_use]
    pub fn with_input(mut self, name: impl Into<String>, value: u64) -> Self {
        self.inputs.push((name.into(), value));
        self
    }

    /// Adds an admission-time architectural state poke.
    #[must_use]
    pub fn with_state_poke(mut self, name: impl Into<String>, value: u64) -> Self {
        self.state_pokes.push((name.into(), value));
        self
    }

    /// Adds a signal to harvest at completion.
    #[must_use]
    pub fn with_probe(mut self, name: impl Into<String>) -> Self {
        self.probes.push(name.into());
        self
    }

    /// Builds a job from a halting [`Workload`]: the workload's state
    /// pokes become the admission pokes, its (scaled) cycle count the
    /// budget, and `probes` the harvested outputs. The caller compiles
    /// the workload's circuit once for the whole corpus — see
    /// [`Workload::corpus`].
    pub fn from_workload(w: &Workload, probes: &[&str]) -> Self {
        let mut job = Job::new(w.id.clone(), w.full_cycles);
        job.state_pokes = w.state_pokes.clone();
        job.probes = probes.iter().map(|p| (*p).to_string()).collect();
        job
    }
}

/// How one job left the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobOutcome {
    /// The halt condition fired within budget.
    Completed,
    /// The budget elapsed first; the lane was forcibly retired.
    Evicted,
    /// The job never reached a lane: a binding failed validation at
    /// admission (see [`JobResult::error`]). Rejection is a per-job
    /// verdict, not a scheduler failure — later jobs keep being served.
    Rejected,
}

/// What one job produced, harvested the cycle it finished — before its
/// lane is handed to the next job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The submission-order identity.
    pub id: JobId,
    /// The id the job's lifecycle events were recorded under: the one
    /// given to [`Scheduler::submit_traced`](crate::Scheduler::submit_traced),
    /// else `id`'s own number.
    pub trace: u64,
    /// The job's tag.
    pub name: String,
    /// Harvested `(signal, value)` pairs, in the job's probe order
    /// (empty for rejected jobs, which never touch a lane).
    pub outputs: Vec<(String, u64)>,
    /// How the job left the scheduler.
    pub outcome: JobOutcome,
    /// Why the job was rejected (`None` unless
    /// [`outcome`](Self::outcome) is [`JobOutcome::Rejected`]).
    pub error: Option<String>,
    /// Local cycles from admission to halt (or eviction); zero for
    /// rejected jobs and for jobs whose halt condition was already true
    /// at admission.
    pub cycles: u64,
    /// Global engine cycle at admission (at rejection, for rejected
    /// jobs).
    pub admitted_at: u64,
    /// Global engine cycle at halt/eviction/rejection.
    pub finished_at: u64,
    /// User-facing lane the job occupied (informational: lanes are
    /// recycled, so this does not identify the job; `usize::MAX` for
    /// rejected jobs).
    pub lane: usize,
}

impl JobResult {
    /// Whether the halt condition fired within budget.
    pub fn completed(&self) -> bool {
        self.outcome == JobOutcome::Completed
    }
}

/// One pending job: its identity, the id its lifecycle events are
/// recorded under, and the job itself.
#[derive(Debug)]
pub struct Queued {
    /// The submission-order identity.
    pub id: JobId,
    /// External trace id for event attribution across layers (the serve
    /// pool keys events by its pool-global id; standalone schedulers use
    /// the local id).
    pub trace: u64,
    /// The testbench.
    pub job: Job,
}

/// FIFO of pending jobs with stable id assignment.
#[derive(Debug, Default)]
pub struct JobQueue {
    next: u64,
    pending: VecDeque<Queued>,
}

impl JobQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        JobQueue::default()
    }

    /// Enqueues a job, assigning the next [`JobId`]; `trace` defaults
    /// to that id.
    pub(crate) fn push(&mut self, job: Job, trace: Option<u64>) -> JobId {
        let id = JobId(self.next);
        self.next += 1;
        self.pending.push_back(Queued {
            id,
            trace: trace.unwrap_or(id.0),
            job,
        });
        id
    }

    /// Dequeues the oldest pending job.
    pub(crate) fn pop(&mut self) -> Option<Queued> {
        self.pending.pop_front()
    }

    /// The oldest pending job, without dequeuing it (so a scheduler can
    /// validate its bindings before committing a lane to it).
    pub(crate) fn front(&self) -> Option<&Queued> {
        self.pending.front()
    }

    /// Pending jobs.
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no jobs are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total jobs ever submitted (the next id's index).
    pub(crate) fn submitted(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_assigns_fifo_ids() {
        let mut q = JobQueue::new();
        let a = q.push(Job::new("a", 10), None);
        let b = q.push(Job::new("b", 10), Some(77));
        assert_eq!((a, b), (JobId(0), JobId(1)));
        assert_eq!(q.len(), 2);
        let front = q.front().unwrap();
        assert_eq!((front.id, front.job.name.as_str()), (JobId(0), "a"));
        let first = q.pop().unwrap();
        assert_eq!((first.id, first.job.name.as_str()), (JobId(0), "a"));
        assert_eq!(first.trace, 0, "untraced jobs trace under their own id");
        assert_eq!(q.submitted(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap().trace, 77);
        assert!(q.pop().is_none());
        // Ids keep advancing after a drain.
        assert_eq!(q.push(Job::new("c", 1), None), JobId(2));
    }

    #[test]
    fn job_builder_and_workload_conversion() {
        let job = Job::new("j", 64)
            .with_input("reset", 0)
            .with_state_poke("x15", 7)
            .with_probe("a0");
        assert_eq!(job.inputs, vec![("reset".to_string(), 0)]);
        assert_eq!(job.state_pokes, vec![("x15".to_string(), 7)]);
        assert_eq!(job.probes, vec!["a0".to_string()]);
        assert_eq!(job.budget, 64);

        let w = Workload::rv32i_param_sum(5);
        let job = Job::from_workload(&w, &["a0", "pc_out"]);
        assert_eq!(job.name, "rv32i-k5");
        assert_eq!(job.budget, w.full_cycles);
        assert_eq!(job.state_pokes, vec![("x15".to_string(), 5)]);
        assert_eq!(job.probes.len(), 2);
        assert_eq!(format!("{}", JobId(3)), "job#3");
    }
}
