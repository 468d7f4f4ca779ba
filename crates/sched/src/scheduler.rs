//! The continuous-batching lane scheduler.
//!
//! [`Scheduler`] turns a [`BatchSimulation`] into a continuously-fed
//! simulation service: jobs are submitted into a [`JobQueue`], packed
//! into lanes, and run under the engine's lane-liveness early exit; the
//! moment a lane's halt probe fires, the finished job's outputs and
//! completion cycle are harvested under its stable [`JobId`] and a
//! queued job is admitted into the freed lane *mid-run* — the engine
//! never waits on stragglers with idle capacity, exactly the
//! continuous-batching discipline LLM-serving systems use to keep
//! hardware saturated under variable-length requests.
//!
//! The static alternative ([`AdmitPolicy::StaticBatches`]) admits a full
//! batch, drains it completely (early exit still compacts finished lanes
//! out of the evaluated window), and only then admits the next batch —
//! the baseline whose utilization decays toward zero as the batch's
//! stragglers dominate. `tests/corpus_equivalence.rs` gates the gap on
//! a mixed-length rv32i corpus.

use crate::job::{Job, JobId, JobOutcome, JobQueue, JobResult, Queued};
use rteaal_core::{BatchSimulation, Compiled, UnknownSignal};
use rteaal_telemetry::{Counter, Gauge, JobStage, MetricsRegistry};
use std::sync::Arc;

/// When freed lanes accept new jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitPolicy {
    /// Admit into any freed lane immediately, mid-run (continuous
    /// batching).
    Continuous,
    /// Admit only when *every* lane is free: classic static batching
    /// with early exit, the straggler-bound baseline.
    StaticBatches,
}

/// Aggregate counters of one scheduler run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Engine cycles stepped.
    pub cycles: u64,
    /// Sum over stepped cycles of occupied lanes — the useful work.
    pub busy_lane_cycles: u64,
    /// Jobs admitted into lanes.
    pub admitted: usize,
    /// Jobs whose halt condition fired within budget.
    pub completed: usize,
    /// Jobs forcibly retired at their budget.
    pub evicted: usize,
    /// Jobs rejected at validation, without ever occupying a lane.
    pub rejected: usize,
}

impl SchedStats {
    /// Folds another scheduler's counters into this one (the
    /// multi-worker aggregation the serve layer reports).
    pub fn merge(&mut self, other: &SchedStats) {
        // Saturating throughout: counters merged across many long-lived
        // workers can approach `u64::MAX`, and a wrapped counter turns
        // every downstream ratio into garbage — a pegged one stays an
        // upper bound.
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.busy_lane_cycles = self.busy_lane_cycles.saturating_add(other.busy_lane_cycles);
        self.admitted = self.admitted.saturating_add(other.admitted);
        self.completed = self.completed.saturating_add(other.completed);
        self.evicted = self.evicted.saturating_add(other.evicted);
        self.rejected = self.rejected.saturating_add(other.rejected);
    }

    /// Occupied-lane cycles over total lane cycles stepped across
    /// `lanes` lanes (1.0 = every lane busy every cycle; 0.0 before any
    /// step). The one utilization formula the scheduler, the serving
    /// pool, and the shard router's health reports all share.
    pub fn utilization_of(&self, lanes: usize) -> f64 {
        // `lanes == 0` or `cycles == 0` short-circuits to 0.0 (a pool
        // that stepped nothing did no useful work), and the saturating
        // product keeps near-`u64::MAX` merged counters from wrapping
        // into a bogus denominator — at worst the ratio is clamped, it
        // can never be NaN, infinite, or a division by zero.
        let total = self.cycles.saturating_mul(lanes as u64);
        if total == 0 {
            return 0.0;
        }
        (self.busy_lane_cycles as f64 / total as f64).min(1.0)
    }
}

/// A job currently occupying a lane.
#[derive(Debug)]
struct Running {
    id: JobId,
    /// The id this job's lifecycle events are recorded under.
    trace: u64,
    job: Job,
    admitted_at: u64,
}

/// Interned telemetry handles, looked up once at attach time. The
/// counters are written from [`SchedStats`] once per drive call.
#[derive(Debug)]
struct SchedTelemetry {
    registry: Arc<MetricsRegistry>,
    /// Worker index stamped onto every event this scheduler records.
    worker: u64,
    /// `sched.queue_depth.w{worker}` — additive, shared by every design
    /// this worker serves.
    queue_depth: Arc<Gauge>,
    /// `sched.busy_cycles.{design}` — per-design useful work.
    busy_cycles: Arc<Counter>,
    admitted: Arc<Counter>,
    completed: Arc<Counter>,
    evicted: Arc<Counter>,
    rejected: Arc<Counter>,
}

/// A continuously-fed batched simulation of one compiled design.
///
/// Construction parks every lane (zero lanes evaluated); admission
/// revives lanes one by one, so a half-full scheduler only pays for the
/// lanes it actually occupies.
#[derive(Debug)]
pub struct Scheduler {
    sim: BatchSimulation,
    policy: AdmitPolicy,
    queue: JobQueue,
    running: Vec<Option<Running>>,
    /// Occupied entries of `running`, kept so the per-cycle loop and
    /// `has_work` do not rescan the lanes.
    busy: usize,
    results: Vec<JobResult>,
    stats: SchedStats,
    /// Lanes admitted since the last harvest-check (scratch, reused).
    newly_admitted: Vec<usize>,
    /// Optional metrics/event sink (see [`attach_telemetry`](Self::attach_telemetry)).
    telemetry: Option<SchedTelemetry>,
}

impl Scheduler {
    /// Builds a `lanes`-wide scheduler over a compile result, watching
    /// `halt_signal` for per-lane completion — the one constructor.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSignal`] if `halt_signal` names neither a probe
    /// nor an output port.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(
        compiled: &Compiled,
        lanes: usize,
        halt_signal: &str,
    ) -> Result<Self, UnknownSignal> {
        let mut sim = BatchSimulation::new(compiled, lanes);
        sim.watch_halt(halt_signal)?;
        // Park every lane out of the evaluated window until a job claims
        // it (retired-at-cycle-0 records are cleared on admission).
        for lane in 0..lanes {
            sim.retire_lane(lane);
        }
        Ok(Scheduler {
            sim,
            policy: AdmitPolicy::Continuous,
            queue: JobQueue::new(),
            running: (0..lanes).map(|_| None).collect(),
            busy: 0,
            results: Vec::new(),
            stats: SchedStats::default(),
            newly_admitted: Vec::new(),
            telemetry: None,
        })
    }

    /// Connects this scheduler to a [`MetricsRegistry`]: lifecycle
    /// events (queued/admitted/halted) flow into the registry's event
    /// ring keyed by trace id, the queue-depth gauge
    /// (`sched.queue_depth.w{worker}`) tracks this worker's backlog, and
    /// each drive call adds its [`SchedStats`] delta to the
    /// admit/complete/evict/reject counters and the per-design busy-cycle
    /// counter (`sched.busy_cycles.{design}`).
    pub fn attach_telemetry(
        &mut self,
        registry: Arc<MetricsRegistry>,
        worker: usize,
        design: &str,
    ) {
        self.telemetry = Some(SchedTelemetry {
            queue_depth: registry.gauge(&format!("sched.queue_depth.w{worker}")),
            busy_cycles: registry.counter(&format!("sched.busy_cycles.{design}")),
            admitted: registry.counter("sched.admitted"),
            completed: registry.counter("sched.completed"),
            evicted: registry.counter("sched.evicted"),
            rejected: registry.counter("sched.rejected"),
            worker: worker as u64,
            registry,
        });
    }

    /// Selects the admission policy (defaults to
    /// [`AdmitPolicy::Continuous`]).
    #[must_use]
    pub fn with_policy(mut self, policy: AdmitPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enqueues a job; it is admitted the next time a lane frees up
    /// under the active policy.
    pub fn submit(&mut self, job: Job) -> JobId {
        // Standalone schedulers trace under the local id; the serve
        // pool overrides this via `submit_traced`.
        self.enqueue(job, None)
    }

    /// Enqueues a job under an external trace id (the serve pool's
    /// global id), so its timeline events join the ones other layers
    /// record for the same job.
    pub fn submit_traced(&mut self, job: Job, trace: u64) -> JobId {
        self.enqueue(job, Some(trace))
    }

    fn enqueue(&mut self, job: Job, trace: Option<u64>) -> JobId {
        let id = self.queue.push(job, trace);
        if let Some(t) = &self.telemetry {
            t.queue_depth.add(1);
            t.registry.record_event(
                trace.unwrap_or(id.0),
                JobStage::Queued,
                Some(t.worker),
                None,
                None,
            );
        }
        id
    }

    /// Lane capacity.
    pub(crate) fn lanes(&self) -> usize {
        self.running.len()
    }

    /// Jobs currently occupying lanes.
    pub(crate) fn running(&self) -> usize {
        self.busy
    }

    /// Results harvested so far, in completion order.
    pub fn results(&self) -> &[JobResult] {
        &self.results
    }

    /// Drains the harvested results.
    pub fn take_results(&mut self) -> Vec<JobResult> {
        std::mem::take(&mut self.results)
    }

    /// Counters of the run so far.
    pub fn stats(&self) -> SchedStats {
        self.stats.clone()
    }

    /// Occupied-lane cycles over total lane cycles stepped (1.0 = every
    /// lane busy every cycle).
    pub fn utilization(&self) -> f64 {
        self.stats.utilization_of(self.lanes())
    }

    /// The underlying batched simulation (e.g. to enable per-lane
    /// waveform capture before running).
    pub fn sim_mut(&mut self) -> &mut BatchSimulation {
        &mut self.sim
    }

    /// Whether any job is still queued or occupying a lane (the serve
    /// layer's "keep driving me" signal).
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || self.busy > 0
    }

    /// Runs until the queue is drained and every admitted job has
    /// finished, or `max_cycles` engine cycles have been stepped.
    /// Returns the number of cycles stepped by this call.
    ///
    /// A job that fails validation (unknown input, state poke, or
    /// harvest probe) is *rejected*: it is popped into a
    /// [`JobOutcome::Rejected`] result with the offending name in
    /// [`JobResult::error`], no lane is touched, and the scheduler keeps
    /// serving the jobs behind it — a poison job can never wedge the
    /// queue.
    ///
    /// Chunks compose: draining [`take_results`](Self::take_results)
    /// and calling [`submit`](Self::submit) between calls feeds lanes
    /// exactly like submissions made before the run.
    pub fn run(&mut self, max_cycles: u64) -> u64 {
        self.drive(max_cycles, false)
    }

    /// One quantum of a caller that has other things to look at: like
    /// [`run`](Self::run), but control also comes back the cycle
    /// a job finishes — so its result can be handed on while its
    /// neighbours keep running — and, after at least one step, whenever
    /// a lane is free with nothing queued, so the caller can look for
    /// new work to put in it. `cap` bounds the quantum when neither
    /// happens. Returns the number of cycles stepped.
    ///
    /// This is the drive hook the serve layer uses: a worker drains
    /// [`take_results`](Self::take_results) and its inbox between
    /// quanta.
    pub fn run_quantum(&mut self, cap: u64) -> u64 {
        self.drive(cap, true)
    }

    /// The one cycle loop behind [`run`](Self::run) and
    /// [`run_quantum`](Self::run_quantum): admit, step, harvest, until
    /// idle or `cycles` — or, with `stop_at_event`, until the caller has
    /// something to do.
    fn drive(&mut self, cycles: u64, stop_at_event: bool) -> u64 {
        let was = self.stats.clone();
        let results0 = self.results.len();
        let mut stepped = 0;
        loop {
            let admitted = self.admit_free();
            if admitted > 0 {
                // Harvest-check the admissions *before* stepping: a job
                // whose halt condition is combinationally true at
                // admission, or whose budget is zero, finishes at zero
                // local cycles instead of being charged a cycle it never
                // needed. Only the admitted lanes are probed — running
                // lanes' halts stay observed on the engine's post-step
                // schedule (the refreshed wires are one commit ahead of
                // what their last step reported).
                self.sim.eval_comb();
                let lanes = std::mem::take(&mut self.newly_admitted);
                for lane in &lanes {
                    self.sim.probe_halt_lane(*lane);
                }
                self.newly_admitted = lanes;
                self.newly_admitted.clear();
                self.harvest();
                // Instant completions may have freed lanes with jobs
                // still queued — admit again before deciding to step.
                if !self.queue.is_empty() {
                    continue;
                }
            }
            let busy = self.busy as u64;
            if busy == 0 || stepped >= cycles {
                break;
            }
            if stop_at_event
                && (self.results.len() > results0
                    || (stepped > 0 && self.busy < self.running.len() && self.queue.is_empty()))
            {
                break;
            }
            self.stats.busy_lane_cycles += busy;
            self.sim.step();
            self.stats.cycles += 1;
            stepped += 1;
            self.harvest();
        }
        if let Some(t) = &self.telemetry {
            let s = &self.stats;
            t.busy_cycles.add(s.busy_lane_cycles - was.busy_lane_cycles);
            t.admitted.add((s.admitted - was.admitted) as u64);
            t.completed.add((s.completed - was.completed) as u64);
            t.evicted.add((s.evicted - was.evicted) as u64);
            t.rejected.add((s.rejected - was.rejected) as u64);
        }
        self.debug_assert_accounting();
        stepped
    }

    /// Ledger identity: every job ever submitted is in exactly one
    /// place — still queued, occupying a lane, or finished under one of
    /// the three outcomes. Holds at every quiescent point, not just at
    /// shutdown; every drive call checks it on return in debug builds.
    pub(crate) fn accounting_balanced(&self) -> bool {
        self.queue.submitted() as usize
            == self.queue.len()
                + self.running()
                + self.stats.completed
                + self.stats.evicted
                + self.stats.rejected
    }

    fn debug_assert_accounting(&self) {
        debug_assert!(
            self.accounting_balanced(),
            "sched ledger broken: submitted {} != queued {} + running {} + \
             completed {} + evicted {} + rejected {}",
            self.queue.submitted(),
            self.queue.len(),
            self.running(),
            self.stats.completed,
            self.stats.evicted,
            self.stats.rejected,
        );
    }

    /// Fills freed lanes from the queue under the active policy,
    /// rejecting jobs that fail validation. Returns how many jobs were
    /// admitted into lanes.
    fn admit_free(&mut self) -> usize {
        let mut admitted = 0;
        if self.policy == AdmitPolicy::StaticBatches && self.busy > 0 {
            return admitted;
        }
        for lane in 0..self.running.len() {
            if self.running[lane].is_some() {
                continue;
            }
            // Validate every binding — inputs, state pokes, harvest
            // probes — before touching the engine: a bad name must never
            // leave a lane half-admitted to a dropped job. The offender
            // is popped into a rejected result (not left at the front,
            // where it would wedge every later job) and the freed slot
            // is offered to the job behind it.
            let Queued { id, trace, job } = loop {
                let Some(front) = self.queue.front() else {
                    return admitted;
                };
                let verdict = Self::validate(&self.sim, &front.job);
                let queued = self.queue.pop().expect("front() was Some");
                match verdict {
                    Ok(()) => break queued,
                    Err(UnknownSignal(name)) => self.reject(queued, &name),
                }
            };
            self.sim
                .admit(lane, job.inputs.iter().map(|(n, v)| (n.as_str(), *v)))
                .expect("inputs validated");
            for (name, value) in &job.state_pokes {
                self.sim
                    .poke_state(name, lane, *value)
                    .expect("pokes validated");
            }
            self.stats.admitted += 1;
            admitted += 1;
            if let Some(t) = &self.telemetry {
                t.queue_depth.sub(1);
                t.registry.record_event(
                    trace,
                    JobStage::Admitted,
                    Some(t.worker),
                    Some(lane as u64),
                    None,
                );
            }
            self.newly_admitted.push(lane);
            self.busy += 1;
            self.running[lane] = Some(Running {
                id,
                trace,
                job,
                admitted_at: self.sim.cycle(),
            });
        }
        admitted
    }

    /// Records a validation failure as a per-job rejected result.
    fn reject(&mut self, queued: Queued, unknown: &str) {
        let Queued { id, trace, job } = queued;
        let now = self.sim.cycle();
        self.stats.rejected += 1;
        if let Some(t) = &self.telemetry {
            t.queue_depth.sub(1);
        }
        self.results.push(JobResult {
            id,
            trace,
            name: job.name,
            outputs: Vec::new(),
            outcome: JobOutcome::Rejected,
            error: Some(format!("unknown signal: {unknown}")),
            cycles: 0,
            admitted_at: now,
            finished_at: now,
            lane: usize::MAX,
        });
    }

    /// Checks that every name a job binds resolves on the design (pure
    /// lookups, no engine mutation).
    fn validate(sim: &BatchSimulation, job: &Job) -> Result<(), UnknownSignal> {
        for (name, _) in &job.inputs {
            if sim.input_index(name).is_none() {
                return Err(UnknownSignal(name.clone()));
            }
        }
        for (name, _) in &job.state_pokes {
            if !sim.probed(name) {
                return Err(UnknownSignal(name.clone()));
            }
        }
        for name in &job.probes {
            if sim.peek(name, 0).is_none() {
                return Err(UnknownSignal(name.clone()));
            }
        }
        Ok(())
    }

    /// Harvests halted and budget-exhausted lanes into results.
    fn harvest(&mut self) {
        let now = self.sim.cycle();
        for lane in 0..self.running.len() {
            let Some(running) = &self.running[lane] else {
                continue;
            };
            let halted = self.sim.halted(lane);
            if !halted && now - running.admitted_at < running.job.budget {
                continue;
            }
            // An evicted job finishes *now*, by definition — never at
            // whatever completion cycle the engine might report for the
            // lane. Reading the record before `retire_lane` (and pinning
            // the halted read to the occupant's own record) guarantees a
            // recycled lane's previous occupant can never leak its
            // completion cycle into this job's `finished_at`; see the
            // `eviction_uses_its_own_cycle_...` regression test.
            let finished_at = if halted {
                self.sim
                    .completion_cycle(lane)
                    .expect("halted implies a completion record")
            } else {
                self.sim.retire_lane(lane);
                now
            };
            let Running {
                id,
                trace,
                job,
                admitted_at,
            } = self.running[lane].take().expect("checked above");
            self.busy -= 1;
            let outputs = job
                .probes
                .iter()
                .map(|name| {
                    let value = self.sim.peek(name, lane).expect("validated at admission");
                    (name.clone(), value)
                })
                .collect();
            let outcome = if halted {
                self.stats.completed += 1;
                JobOutcome::Completed
            } else {
                self.stats.evicted += 1;
                JobOutcome::Evicted
            };
            if let Some(t) = &self.telemetry {
                t.registry.record_event(
                    trace,
                    JobStage::Halted,
                    Some(t.worker),
                    Some(lane as u64),
                    None,
                );
            }
            self.results.push(JobResult {
                id,
                trace,
                name: job.name,
                outputs,
                outcome,
                error: None,
                cycles: finished_at - admitted_at,
                admitted_at,
                finished_at,
                lane,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rteaal_core::Compiler;
    use rteaal_kernels::{KernelConfig, KernelKind};

    /// A counter that raises `done` at a per-lane limit — the minimal
    /// variable-length job.
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
            .with_probe("done")
    }

    #[test]
    fn sched_stats_utilization_survives_every_edge() {
        // cycles == 0: no work stepped, utilization is exactly 0.0.
        let mut s = SchedStats::default();
        assert_eq!(s.utilization_of(8), 0.0);
        // lanes == 0: a lane-less pool did no useful work per lane;
        // 0.0, never a division by zero.
        s.cycles = 100;
        s.busy_lane_cycles = 500;
        assert_eq!(s.utilization_of(0), 0.0);
        assert!((s.utilization_of(8) - 500.0 / 800.0).abs() < 1e-12);

        // Near-MAX merged counters saturate instead of wrapping.
        let mut a = SchedStats {
            cycles: u64::MAX - 5,
            busy_lane_cycles: u64::MAX - 5,
            admitted: usize::MAX - 1,
            ..SchedStats::default()
        };
        let b = SchedStats {
            cycles: 100,
            busy_lane_cycles: 200,
            admitted: 5,
            completed: 3,
            ..SchedStats::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, u64::MAX, "cycles pegged, not wrapped");
        assert_eq!(a.busy_lane_cycles, u64::MAX);
        assert_eq!(a.admitted, usize::MAX);
        assert_eq!(a.completed, 3);
        // And the pegged counters can never produce NaN/inf/out-of-range
        // utilization, whatever the lane count.
        for lanes in [0usize, 1, 3, 64, usize::MAX] {
            let u = a.utilization_of(lanes);
            assert!(
                u.is_finite() && (0.0..=1.0).contains(&u),
                "lanes={lanes}: {u}"
            );
        }
    }

    #[test]
    fn continuous_scheduler_drains_a_queue_wider_than_the_lanes() {
        let c = compiled();
        let mut sched = Scheduler::new(&c, 2, "done").unwrap();
        let limits = [5u64, 20, 3, 4, 9, 2, 11];
        let ids: Vec<JobId> = limits.iter().map(|&l| sched.submit(count_job(l))).collect();
        assert_eq!(sched.queue.len(), limits.len());
        let stepped = sched.run(10_000);
        assert!(stepped > 0);
        assert_eq!(sched.queue.len(), 0);
        assert_eq!(sched.running(), 0);
        let stats = sched.stats();
        assert_eq!(stats.admitted, limits.len());
        assert_eq!(stats.completed, limits.len());
        assert_eq!(stats.evicted, 0);
        // Results are keyed by id: every job's count matches its own
        // limit regardless of lane reuse or completion order.
        assert_eq!(sched.results().len(), limits.len());
        for (&limit, &id) in limits.iter().zip(&ids) {
            let r = sched
                .results()
                .iter()
                .find(|r| r.id == id)
                .expect("result per id");
            assert!(r.completed());
            assert_eq!(r.name, format!("count-{limit}"));
            assert_eq!(r.outputs[0], ("cnt".to_string(), limit + 1));
            assert_eq!(r.outputs[1], ("done".to_string(), 1));
            assert_eq!(r.cycles, limit + 1, "local completion cycle");
            assert_eq!(r.finished_at - r.admitted_at, r.cycles);
        }
        // Lanes were genuinely recycled: 7 jobs on 2 lanes.
        assert!(sched.results().iter().all(|r| r.lane < 2));
        assert!(sched.utilization() > 0.8, "{}", sched.utilization());
    }

    #[test]
    fn continuous_beats_static_on_a_mixed_corpus() {
        let c = compiled();
        // One straggler per pair: static batches serialize on it.
        let limits = [30u64, 2, 3, 28, 2, 3, 32, 2];
        let run = |policy: AdmitPolicy| {
            let mut sched = Scheduler::new(&c, 4, "done").unwrap().with_policy(policy);
            for &l in &limits {
                sched.submit(count_job(l));
            }
            sched.run(100_000);
            let outs: Vec<(JobId, Vec<(String, u64)>)> = sched
                .results()
                .iter()
                .map(|r| (r.id, r.outputs.clone()))
                .collect();
            (sched.stats(), sched.utilization(), outs)
        };
        let (cont, cont_util, mut cont_outs) = run(AdmitPolicy::Continuous);
        let (stat, stat_util, mut stat_outs) = run(AdmitPolicy::StaticBatches);
        assert_eq!(cont.completed, limits.len());
        assert_eq!(stat.completed, limits.len());
        // Same per-job outputs under both policies...
        cont_outs.sort_by_key(|(id, _)| *id);
        stat_outs.sort_by_key(|(id, _)| *id);
        assert_eq!(cont_outs, stat_outs);
        // ...but continuous finishes in fewer engine cycles at higher
        // lane utilization.
        assert!(
            cont.cycles < stat.cycles,
            "continuous {} vs static {}",
            cont.cycles,
            stat.cycles
        );
        assert!(cont_util > stat_util, "{cont_util} vs {stat_util}");
    }

    #[test]
    fn budget_eviction_retires_runaway_jobs() {
        let c = compiled();
        let mut sched = Scheduler::new(&c, 2, "done").unwrap();
        // Limit 200 can't be reached by an 8-bit counter within budget
        // 10: evicted. The short job completes normally.
        sched.submit(
            Job::new("runaway", 10)
                .with_input("limit", 200)
                .with_probe("cnt"),
        );
        sched.submit(count_job(4));
        sched.run(1_000);
        let stats = sched.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.evicted, 1);
        let runaway = &sched.results()[sched
            .results()
            .iter()
            .position(|r| r.name == "runaway")
            .unwrap()];
        assert!(!runaway.completed());
        assert_eq!(runaway.outcome, JobOutcome::Evicted);
        assert_eq!(runaway.cycles, 10, "evicted exactly at budget");
        assert_eq!(runaway.outputs[0], ("cnt".to_string(), 10));
    }

    #[test]
    fn poison_job_is_rejected_and_later_jobs_keep_flowing() {
        // Regression: a validation-failing job at the queue front used
        // to return Err with the job left in place, so every later run()
        // failed identically and nothing behind it could ever be
        // admitted. It must instead become a Rejected result.
        let c = compiled();
        assert!(Scheduler::new(&c, 1, "ghost").is_err());
        for poison in [
            Job::new("bad-input", 10).with_input("nope", 1),
            Job::new("bad-poke", 10).with_state_poke("ghost", 1),
            // A misspelled harvest probe fails like every other binding
            // — it must never silently harvest a fabricated value.
            Job::new("bad-probe", 10).with_probe("cnt_typo"),
        ] {
            let mut sched = Scheduler::new(&c, 1, "done").unwrap();
            // Good jobs sandwich the poison one.
            let before = sched.submit(count_job(3));
            let bad = sched.submit(poison);
            let after = sched.submit(count_job(5));
            sched.run(10_000);
            assert_eq!(sched.queue.len(), 0);
            assert_eq!(sched.running(), 0);
            let stats = sched.stats();
            assert_eq!((stats.admitted, stats.completed, stats.rejected), (2, 2, 1));
            let by_id = |id: JobId| {
                sched
                    .results()
                    .iter()
                    .find(|r| r.id == id)
                    .expect("result per id")
            };
            let rejected = by_id(bad);
            assert_eq!(rejected.outcome, JobOutcome::Rejected);
            assert_eq!(rejected.cycles, 0);
            assert!(rejected.outputs.is_empty(), "never touched a lane");
            assert!(
                rejected
                    .error
                    .as_deref()
                    .unwrap()
                    .contains("unknown signal"),
                "{:?}",
                rejected.error
            );
            // Both good jobs ran to completion with correct results.
            for (id, limit) in [(before, 3u64), (after, 5)] {
                let r = by_id(id);
                assert!(r.completed(), "{}", r.name);
                assert_eq!(r.outputs[0], ("cnt".to_string(), limit + 1));
            }
        }
    }

    #[test]
    fn zero_budget_jobs_are_evicted_without_consuming_a_cycle() {
        // Regression: a budget-0 job used to burn one engine cycle
        // before its eviction was noticed, reporting cycles = 1.
        let c = compiled();
        let mut sched = Scheduler::new(&c, 2, "done").unwrap();
        let zero = sched.submit(
            Job::new("no-budget", 0)
                .with_input("limit", 50)
                .with_probe("cnt"),
        );
        let normal = sched.submit(count_job(4));
        sched.run(1_000);
        let r = sched.results().iter().find(|r| r.id == zero).unwrap();
        assert_eq!(r.outcome, JobOutcome::Evicted);
        assert_eq!(r.cycles, 0, "evicted before its first cycle");
        assert_eq!(r.finished_at, r.admitted_at);
        assert_eq!(r.outputs[0], ("cnt".to_string(), 0), "power-on state");
        let n = sched.results().iter().find(|r| r.id == normal).unwrap();
        assert!(n.completed());
        assert_eq!(n.cycles, 5);
    }

    #[test]
    fn combinationally_halted_jobs_complete_at_zero_cycles() {
        // Regression: a job whose halt probe is already high at
        // admission (limit = 0: done = geq(acc, 0) is true of the
        // power-on state) used to be harvested only after one engine
        // cycle, inflating cycles and busy_lane_cycles.
        let c = compiled();
        let mut sched = Scheduler::new(&c, 1, "done").unwrap();
        let instant = sched.submit(
            Job::new("instant", 10)
                .with_input("limit", 0)
                .with_probe("cnt")
                .with_probe("done"),
        );
        let normal = sched.submit(count_job(3));
        sched.run(1_000);
        let stats = sched.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.evicted, 0);
        let r = sched.results().iter().find(|r| r.id == instant).unwrap();
        assert_eq!(r.outcome, JobOutcome::Completed);
        assert_eq!(r.cycles, 0, "halted before its first cycle");
        assert_eq!(r.finished_at, r.admitted_at);
        assert_eq!(r.outputs[0], ("cnt".to_string(), 0));
        assert_eq!(r.outputs[1], ("done".to_string(), 1));
        // The lane freed instantly: the queued job was admitted the same
        // round and ran normally, with no cycle charged to the instant
        // job (1 busy lane * its own cycles only).
        let n = sched.results().iter().find(|r| r.id == normal).unwrap();
        assert!(n.completed());
        assert_eq!(n.cycles, 4);
        assert_eq!(stats.busy_lane_cycles, n.cycles);
    }

    #[test]
    fn eviction_uses_its_own_cycle_never_a_previous_occupants() {
        // Pins the recycled-lane eviction path: the first occupant of
        // the single lane halts early; the second is admitted into the
        // same lane and runs past its budget. Its finished_at must be
        // its own eviction cycle, never the previous occupant's halt
        // record.
        let c = compiled();
        let mut sched = Scheduler::new(&c, 1, "done").unwrap();
        let first = sched.submit(count_job(2));
        let runaway = sched.submit(
            Job::new("runaway", 7)
                .with_input("limit", 200)
                .with_probe("cnt"),
        );
        sched.run(1_000);
        let f = sched.results().iter().find(|r| r.id == first).unwrap();
        assert!(f.completed());
        let r = sched.results().iter().find(|r| r.id == runaway).unwrap();
        assert_eq!(r.outcome, JobOutcome::Evicted);
        assert_eq!(r.lane, f.lane, "same lane, recycled");
        assert!(r.admitted_at >= f.finished_at);
        assert_eq!(r.cycles, 7, "evicted exactly at its own budget");
        assert_eq!(
            r.finished_at,
            r.admitted_at + 7,
            "eviction cycle is the evicted job's own, not the previous occupant's"
        );
    }

    #[test]
    fn run_chunks_compose_with_mid_run_submission() {
        // A chunked drive: small `run` chunks with
        // submissions and result drains interleaved.
        let c = compiled();
        let mut sched = Scheduler::new(&c, 2, "done").unwrap();
        sched.submit(count_job(6));
        sched.submit(count_job(9));
        assert!(sched.has_work());
        let mut harvested = Vec::new();
        let mut submitted_late = false;
        let mut guard = 0;
        while sched.has_work() {
            sched.run(3);
            harvested.extend(sched.take_results());
            if !submitted_late {
                // A job arriving mid-run is served like any other.
                sched.submit(count_job(4));
                submitted_late = true;
            }
            guard += 1;
            assert!(guard < 100, "chunked drive must make progress");
        }
        assert_eq!(harvested.len(), 3);
        assert!(harvested.iter().all(JobResult::completed));
        for limit in [6u64, 9, 4] {
            let r = harvested
                .iter()
                .find(|h| h.name == format!("count-{limit}"))
                .expect("one result per job");
            assert_eq!(r.cycles, limit + 1);
        }
    }

    #[test]
    fn a_quantum_ends_at_a_halt_a_free_lane_or_the_cap() {
        let c = compiled();
        let mut sched = Scheduler::new(&c, 2, "done").unwrap();
        let short = sched.submit(count_job(3));
        sched.submit(count_job(40));
        sched.submit(count_job(30));
        // Both lanes busy, one job queued: the quantum ends the cycle
        // the short job halts, with the queued job already in its lane.
        assert_eq!(sched.run_quantum(64), 4);
        let done = sched.take_results();
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].id, done[0].cycles), (short, 4));
        assert_eq!((sched.running(), sched.queue.len()), (2, 0));
        // Lanes full, nothing queued, nothing due: only the cap ends it.
        assert_eq!(sched.run_quantum(5), 5);
        assert!(sched.results().is_empty());
        // The 30-cycle job finishes first (admitted at 4, done at 35).
        assert_eq!(sched.run_quantum(64), 26);
        assert_eq!(sched.take_results()[0].cycles, 31);
        // A lane is free and the queue is empty: every quantum is one
        // step, so the caller can refill the lane from outside.
        assert_eq!(sched.run_quantum(64), 1);
        assert!(sched.results().is_empty());
        // And a submission made between quanta is admitted by the next.
        sched.submit(count_job(2));
        assert_eq!(sched.run_quantum(64), 3);
        assert_eq!(sched.take_results()[0].cycles, 3);
        // Instant finishes at admission end a quantum without a step.
        sched.submit(Job::new("no-budget", 0).with_input("limit", 9));
        assert_eq!(sched.run_quantum(64), 0);
        assert_eq!(sched.take_results()[0].outcome, JobOutcome::Evicted);
    }

    #[test]
    fn quanta_compose_into_exactly_the_drained_run() {
        let c = compiled();
        let limits = [5u64, 20, 3, 4, 9, 2, 11, 0, 17];
        let mk = || {
            let mut sched = Scheduler::new(&c, 3, "done").unwrap();
            for &l in &limits {
                sched.submit(count_job(l));
            }
            sched
        };
        let mut whole = mk();
        whole.run(10_000);
        let mut pieces = mk();
        let mut harvested = Vec::new();
        while pieces.has_work() {
            pieces.run_quantum(4);
            harvested.extend(pieces.take_results());
        }
        assert_eq!(pieces.stats(), whole.stats());
        assert_eq!(harvested.len(), limits.len());
        for (a, b) in harvested.iter().zip(whole.results()) {
            assert_eq!((a.id, a.cycles, a.lane), (b.id, b.cycles, b.lane));
            assert_eq!(
                (a.admitted_at, a.finished_at),
                (b.admitted_at, b.finished_at)
            );
            assert_eq!(a.outputs, b.outputs);
        }
    }

    #[test]
    fn empty_scheduler_is_a_no_op_and_partial_fills_stay_cheap() {
        let c = compiled();
        let mut sched = Scheduler::new(&c, 4, "done").unwrap();
        assert_eq!(sched.run(100), 0);
        assert_eq!(sched.stats(), SchedStats::default());
        assert_eq!(sched.lanes(), 4);
        assert!(!sched.has_work());
        // One job on four lanes: only the occupied lane is evaluated.
        sched.submit(count_job(5));
        sched.run(100);
        let stats = sched.stats();
        assert_eq!(stats.busy_lane_cycles, stats.cycles, "1 busy lane/cycle");
        assert!((sched.utilization() - 0.25).abs() < 1e-9);
        // take_results drains.
        assert_eq!(sched.take_results().len(), 1);
        assert!(sched.results().is_empty());
    }

    #[test]
    fn accounting_closes_at_every_snapshot() {
        // The ledger identity must hold mid-run — after every chunk, at
        // every queue depth — not just once the scheduler drains, and
        // the registry counters must equal SchedStats after every chunk.
        let c = compiled();
        let mut sched = Scheduler::new(&c, 2, "done").unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        sched.attach_telemetry(Arc::clone(&registry), 0, "count");
        for limit in [3u64, 9, 1, 14, 6, 2, 11, 5] {
            sched.submit(count_job(limit));
            assert!(sched.accounting_balanced(), "after submit {limit}");
        }
        // A poison job in the middle exercises the rejected leg.
        sched.submit(Job::new("poison", 8).with_input("nope", 1));
        // A zero-budget job exercises the evicted leg.
        sched.submit(Job::new("starved", 0).with_input("limit", 200));
        while sched.has_work() {
            sched.run(1);
            assert!(
                sched.accounting_balanced(),
                "mid-run: submitted {} queued {} running {} stats {:?}",
                sched.queue.submitted(),
                sched.queue.len(),
                sched.running(),
                sched.stats(),
            );
            let (snap, s) = (registry.snapshot(), sched.stats());
            let counter = |name: &str| snap.counter(name);
            assert_eq!(
                [
                    counter("sched.admitted"),
                    counter("sched.completed"),
                    counter("sched.evicted"),
                    counter("sched.rejected"),
                    counter("sched.busy_cycles.count"),
                ],
                [
                    s.admitted as u64,
                    s.completed as u64,
                    s.evicted as u64,
                    s.rejected as u64,
                    s.busy_lane_cycles,
                ],
                "registry counters after cycle {}",
                s.cycles
            );
        }
        let stats = sched.stats();
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.evicted, 1);
        // Telemetry counters mirror SchedStats exactly.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sched.completed"), 8);
        assert_eq!(snap.counter("sched.rejected"), 1);
        assert_eq!(snap.counter("sched.evicted"), 1);
        assert_eq!(snap.counter("sched.admitted"), stats.admitted as u64);
        assert_eq!(
            snap.counter("sched.busy_cycles.count"),
            stats.busy_lane_cycles
        );
        assert_eq!(snap.gauge("sched.queue_depth.w0"), 0);
    }

    #[test]
    fn timelines_record_queued_admitted_halted_with_lane_attribution() {
        let c = compiled();
        let mut sched = Scheduler::new(&c, 2, "done").unwrap();
        let registry = Arc::new(MetricsRegistry::new());
        sched.attach_telemetry(Arc::clone(&registry), 3, "count");
        // Trace under external ids, as the serve pool does.
        sched.submit_traced(count_job(5), 100);
        sched.submit_traced(count_job(2), 101);
        sched.run(100);
        for trace in [100u64, 101] {
            let t = registry.timeline(trace);
            let stages: Vec<_> = t.iter().map(|e| e.stage).collect();
            use rteaal_telemetry::JobStage::*;
            assert_eq!(stages, vec![Queued, Admitted, Halted], "job {trace}");
            assert!(t.windows(2).all(|w| w[0].at_us <= w[1].at_us));
            assert!(t.iter().all(|e| e.worker == Some(3)));
            // Queued has no lane; admitted/halted agree on one.
            assert_eq!(t[0].lane, None);
            assert!(t[1].lane.is_some());
            assert_eq!(t[1].lane, t[2].lane);
        }
    }
}
