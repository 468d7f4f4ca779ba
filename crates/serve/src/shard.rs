//! Cross-host shard routing over the serve protocol.
//!
//! [`ShardRouter`] is the client-side supervisor of a fleet of server
//! processes: it holds one [`ServeClient`] connection per shard, places
//! each submitted job on the live shard with the fewest jobs in flight
//! (ties go to the shard dispatched to less, then to the lower slot),
//! merges every shard's results into a single completion-ordered stream,
//! and runs the elastic-fleet loop:
//!
//! - **Down on the first fault.** A connection that errors, times out,
//!   or dies mid-line takes its shard out of placement at once — one
//!   down episode — and the jobs in flight on it are resubmitted to the
//!   survivors. Every poll sweep probes each down shard once, and
//!   probing never stops, because hosts come back. Every connect gives
//!   up after [`ShardConfig::read_timeout`], so a host that drops
//!   connection attempts cannot hold the router for the kernel's
//!   connect timeout.
//! - **One way back.** The probe is the only path into the live set:
//!   connect, the `ping` verb, then a replay of the router's design
//!   registry (registration fan-out — see
//!   [`register`](ShardRouter::register)), and only then placements. A
//!   host that rebooted with an empty registry therefore never sees a
//!   job for a design it lacks. A rejoiner has nothing in flight, so it
//!   takes the next placements.
//!
//! A job lives on exactly one shard at a time and moves only when that
//! shard fails. Delivery is **exactly once** even under at-least-once
//! execution: a result can only be claimed over the connection that
//! submitted its job (the serve protocol's per-connection handle
//! scope), so the copy of a job rerun after a shard death is
//! unreachable — its connection died with the shard.
//!
//! The router is deliberately synchronous and single-threaded: one
//! poll sweep across the fleet per [`poll_once`](ShardRouter::poll_once)
//! call. The concurrency that matters lives server-side (worker pools
//! and lanes); the router only moves envelopes, which keeps its
//! failure handling — the hard part — sequentially testable under the
//! [`chaos`](crate::chaos) harness.

use crate::net::ServeClient;
use crate::protocol::{ProtocolError, WireResult, WireStats};
use rteaal_sched::Job;
use rteaal_telemetry::{Counter, JobStage, MetricsRegistry};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sleep between poll sweeps that found nothing finished.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// The placement rule over each shard's `(live, in_flight, dispatched)`,
/// by slot: the live shard with the fewest jobs in flight, ties to the
/// one with fewer dispatches, then to the lower slot — the pool's
/// least-loaded rule plus one tie key, so a light load still spreads.
/// `None` when no shard is live.
fn place(shards: impl IntoIterator<Item = (bool, usize, u64)>) -> Option<usize> {
    shards
        .into_iter()
        .enumerate()
        .filter(|&(_, (live, _, _))| live)
        .min_by_key(|&(slot, (_, in_flight, dispatched))| (in_flight, dispatched, slot))
        .map(|(slot, _)| slot)
}

/// The router's failure-tolerance knobs.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// How long a connect, or any single exchange, may wait for a
    /// shard before the host counts as hung (a fatal fault).
    pub read_timeout: Duration,
    /// *Consecutive failed* placements one job may burn before the
    /// router gives up on it — the backstop against a host that passes
    /// the probe but dies on every `submit`, which would otherwise
    /// cycle the job forever. A successful placement resets the count,
    /// so honest resubmission churn under flapping shards never
    /// exhausts a job.
    pub max_attempts: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            read_timeout: Duration::from_secs(5),
            max_attempts: 16,
        }
    }
}

/// One shard's connection and accounting.
#[derive(Debug)]
struct ShardState {
    addr: SocketAddr,
    /// `Some` iff the shard is live (takes placements).
    client: Option<ServeClient>,
    /// Router ids currently awaiting results on this shard.
    inflight: Vec<u64>,
    /// Jobs ever dispatched here (including resubmissions).
    dispatched: u64,
    /// Results this shard delivered.
    delivered: u64,
    /// Times this shard went live again after being down.
    rejoins: u64,
}

impl ShardState {
    fn live(&self) -> bool {
        self.client.is_some()
    }
}

/// One job awaiting its result.
#[derive(Debug)]
struct PendingJob {
    /// Kept for resubmission after a shard death.
    job: Job,
    /// Registered design the job targets (`None` = each shard's
    /// default).
    design: Option<String>,
    /// The id the owning shard's pool assigned; the owner is the shard
    /// whose in-flight list holds the job.
    remote_id: u64,
    /// Placements so far.
    attempts: usize,
    /// When the router first accepted the job — the origin of its
    /// delivery latency, preserved across resubmissions.
    submitted_at: Instant,
}

/// A result delivered by the router's merged stream.
#[derive(Debug, Clone)]
pub struct Routed {
    /// Router-global job id (what [`ShardRouter::submit`] returned).
    pub id: u64,
    /// The shard that produced the result.
    pub shard: usize,
    /// The wire result (its `id` field is the *shard-local* pool id).
    pub result: WireResult,
}

/// Why the router could not make progress.
#[derive(Debug)]
pub enum RouterError {
    /// Every shard is down; `stranded` jobs cannot currently be
    /// placed. The jobs stay pending, and every later router call
    /// reports this error again for them — but probing continues, so
    /// a host that comes back can still unblock the fleet.
    NoLiveShards {
        /// Jobs that were pending when the last shard went down.
        stranded: usize,
    },
    /// One job exhausted [`ShardConfig::max_attempts`] placements and
    /// was removed from the router's books — the rest of the corpus
    /// keeps flowing.
    JobLost {
        /// The router-global id of the abandoned job.
        id: u64,
        /// How many placements it burned.
        attempts: usize,
    },
    /// [`next_result`](ShardRouter::next_result) with nothing pending.
    Idle,
    /// A shard answered a request about this router's own job with a
    /// server-side refusal — a protocol violation, not a transport
    /// fault (those are handled by resubmission).
    Shard {
        /// The offending shard slot.
        shard: usize,
        /// What it said.
        error: ProtocolError,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::NoLiveShards { stranded } => {
                write!(f, "every shard is down ({stranded} jobs stranded)")
            }
            RouterError::JobLost { id, attempts } => {
                write!(f, "job {id} abandoned after {attempts} placements")
            }
            RouterError::Idle => write!(f, "no jobs outstanding"),
            RouterError::Shard { shard, error } => {
                write!(f, "shard {shard} protocol violation: {error}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// One shard's slice of a [`FleetStats`] snapshot.
#[derive(Debug, Clone)]
pub struct FleetShard {
    /// The shard's address.
    pub addr: SocketAddr,
    /// Whether it takes placements; a down shard is probed every
    /// sweep.
    pub live: bool,
    /// Jobs currently awaiting results on it.
    pub in_flight: usize,
    /// Jobs ever dispatched to it (including resubmissions).
    pub dispatched: u64,
    /// Results it delivered.
    pub delivered: u64,
    /// Times it went live again after being down.
    pub rejoins: u64,
}

/// The router's snapshot: fleet-wide counters plus each shard's
/// liveness and load. With no job lost, every placement is a first
/// dispatch or a resubmission, so the per-shard `dispatched` counts sum
/// to `submitted + resubmitted`.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Jobs accepted by [`ShardRouter::submit`].
    pub submitted: u64,
    /// Results delivered through the merged stream.
    pub delivered: u64,
    /// Job placements repeated because their shard's connection was
    /// lost (each orphaned job counts once per loss).
    pub resubmitted: u64,
    /// Down episodes: times a shard left the live set on a transport
    /// fault (a later rejoin starts a fresh episode).
    pub shard_deaths: u64,
    /// Shards that went live again after being down, fleet-wide.
    pub rejoins: u64,
    /// Per-shard accounting, by slot.
    pub per_shard: Vec<FleetShard>,
}

/// The cross-host supervisor: least-in-flight job placement over a
/// fleet of serve processes, with probe-driven shard rejoin,
/// registration fan-out, and automatic resubmission. See
/// the [module docs](self) for the design.
///
/// ```no_run
/// use rteaal_sched::Job;
/// use rteaal_serve::{ShardConfig, ShardRouter};
///
/// let addrs: Vec<std::net::SocketAddr> =
///     vec!["10.0.0.1:7700".parse()?, "10.0.0.2:7700".parse()?];
/// let mut router = ShardRouter::connect(&addrs, ShardConfig::default())?;
/// for k in 1u64..=24 {
///     router.submit(Job::new(format!("sum-{k}"), 3 * k + 12).with_probe("a0"))?;
/// }
/// for routed in router.drain()? {
///     println!("job {} on shard {}: {:?}", routed.id, routed.shard, routed.result.outputs);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardRouter {
    config: ShardConfig,
    shards: Vec<ShardState>,
    /// Router id -> its pending job, across all shards.
    pending: HashMap<u64, PendingJob>,
    /// Designs registered through the router, in order — replayed to
    /// every rejoiner before it takes placements again.
    registry: Vec<(String, String, String)>,
    telemetry: RouterTelemetry,
}

/// The router's slice of the metrics registry: every fleet-level
/// counter lives in the registry (so [`FleetStats`] is a *view* over
/// it, and the `tables -- fleet` experiment reads one coherent
/// snapshot), with the hot-path handles interned once here.
#[derive(Debug)]
struct RouterTelemetry {
    registry: Arc<MetricsRegistry>,
    /// Jobs accepted by `submit` / `submit_on`; its value before a
    /// submission is that job's router-global id.
    submitted: Arc<Counter>,
    /// Results delivered through the merged stream.
    delivered: Arc<Counter>,
    /// Jobs abandoned (placement budget exhausted, or a protocol
    /// violation on submit) — the third leg of the accounting identity
    /// `submitted == delivered + pending + lost`.
    lost: Arc<Counter>,
    /// Placements repeated after a shard's connection was lost.
    resubmitted: Arc<Counter>,
    /// Live→down edges.
    shard_deaths: Arc<Counter>,
    /// Down→live edges (probe answered; registry replayed).
    rejoins: Arc<Counter>,
    /// Probe attempts, answered or not.
    probes: Arc<Counter>,
}

impl RouterTelemetry {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        RouterTelemetry {
            submitted: registry.counter("router.submitted"),
            delivered: registry.counter("router.delivered"),
            lost: registry.counter("router.jobs_lost"),
            resubmitted: registry.counter("router.resubmitted"),
            shard_deaths: registry.counter("router.shard_deaths"),
            rejoins: registry.counter("router.rejoins"),
            probes: registry.counter("router.probe_attempts"),
            registry,
        }
    }
}

impl ShardRouter {
    /// Connects one client per shard address. All shards must accept
    /// the initial connection — a fleet that starts degraded is a
    /// deployment error, not a runtime fault.
    ///
    /// # Errors
    ///
    /// [`RouterError::Shard`] naming the first address that refused.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn connect(addrs: &[SocketAddr], config: ShardConfig) -> Result<Self, RouterError> {
        assert!(!addrs.is_empty(), "a fleet needs at least one shard");
        let mut shards = Vec::with_capacity(addrs.len());
        for (slot, &addr) in addrs.iter().enumerate() {
            let client = ServeClient::connect_timeout(addr, config.read_timeout)
                .map_err(|error| RouterError::Shard { shard: slot, error })?;
            shards.push(ShardState {
                addr,
                client: Some(client),
                inflight: Vec::new(),
                dispatched: 0,
                delivered: 0,
                rejoins: 0,
            });
        }
        Ok(ShardRouter {
            config,
            shards,
            pending: HashMap::new(),
            registry: Vec::new(),
            telemetry: RouterTelemetry::new(),
        })
    }

    /// The router's metrics registry: fleet counters, the delivery
    /// latency histogram, and router-side job events (submitted /
    /// delivered, with shard attribution).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.telemetry.registry
    }

    /// The accounting identity every snapshot must satisfy: each
    /// accepted job is delivered, still pending, or counted lost —
    /// never silently dropped.
    pub fn accounting_balanced(&self) -> bool {
        self.telemetry.submitted.get()
            == self.telemetry.delivered.get()
                + self.pending.len() as u64
                + self.telemetry.lost.get()
    }

    /// Where the next job goes: see [`place`].
    fn placement(&self) -> Option<usize> {
        place(
            self.shards
                .iter()
                .map(|st| (st.live(), st.inflight.len(), st.dispatched)),
        )
    }

    /// Submits a job to every shard's default design: assigns a
    /// router-global id, places it on the least-loaded live shard, and
    /// returns the id. Placement failures cascade through the failure
    /// path (the shard goes down, the job goes to a survivor) before
    /// this returns.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoLiveShards`] / [`RouterError::JobLost`] when
    /// the fleet cannot take the job at all.
    pub fn submit(&mut self, job: Job) -> Result<u64, RouterError> {
        self.submit_on(None, job)
    }

    /// Submits a job to a named registered design (`None` = each
    /// shard's default design). The design should have been registered
    /// through [`register`](Self::register) so every shard — including
    /// future rejoiners — can run it.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoLiveShards`] / [`RouterError::JobLost`] when
    /// the fleet cannot take the job at all.
    pub fn submit_on(&mut self, design: Option<&str>, job: Job) -> Result<u64, RouterError> {
        let id = self.telemetry.submitted.get();
        self.telemetry.submitted.inc();
        self.telemetry
            .registry
            .record_event(id, JobStage::Submitted, None, None, None);
        self.pending.insert(
            id,
            PendingJob {
                job,
                design: design.map(str::to_string),
                remote_id: 0,
                attempts: 0,
                submitted_at: Instant::now(),
            },
        );
        self.dispatch(vec![id])?;
        Ok(id)
    }

    /// Registers a design fleet-wide: records it in the router's
    /// registry (replayed to every future rejoiner before it takes
    /// jobs) and broadcasts it to every live shard. A shard whose
    /// connection fails mid-broadcast takes the usual failure path and
    /// will receive the design when it rejoins.
    ///
    /// # Errors
    ///
    /// [`RouterError::Shard`] on the first server-side refusal (compile
    /// failure, duplicate name) — the design is then dropped from the
    /// registry, since replaying a design no server accepts would wedge
    /// every rejoin. Fleet-exhaustion errors propagate from the failure
    /// path.
    pub fn register(&mut self, design: &str, source: &str, halt: &str) -> Result<(), RouterError> {
        self.registry
            .push((design.to_string(), source.to_string(), halt.to_string()));
        for shard in 0..self.shards.len() {
            if !self.shards[shard].live() {
                continue;
            }
            let outcome = self.shards[shard]
                .client
                .as_mut()
                .expect("live shards have clients")
                .register(design, source, halt);
            match outcome {
                Ok(()) => {}
                Err(error) if error.is_fatal() => {
                    let orphans = self.shard_failed(shard);
                    self.dispatch(orphans)?;
                }
                Err(error) => {
                    self.registry.pop();
                    return Err(RouterError::Shard { shard, error });
                }
            }
        }
        Ok(())
    }

    /// Places every job in `work` on the least-loaded live shard,
    /// walking the failure path (the shard goes down, the job goes
    /// elsewhere) as shards fall over.
    ///
    /// A job that fails *individually* — placement budget exhausted, or
    /// a protocol violation on submit — is removed from the router's
    /// books entirely, and the rest of the worklist is still placed
    /// before its error is returned: one abandoned job must never
    /// strand the others in a pending-but-nowhere limbo that
    /// [`drain`](Self::drain) would wait on forever. Only a fleet-wide
    /// failure (no live shard) aborts immediately; the jobs it leaves
    /// pending are the `stranded` count, and every later call keeps
    /// reporting [`RouterError::NoLiveShards`] for them.
    fn dispatch(&mut self, mut work: Vec<u64>) -> Result<(), RouterError> {
        let mut first_failure: Option<RouterError> = None;
        while let Some(id) = work.pop() {
            loop {
                let mut placed = self.placement();
                if placed.is_none() {
                    // Give the probes one chance to revive the fleet
                    // before declaring it exhausted.
                    self.run_probes();
                    placed = self.placement();
                }
                let Some(shard) = placed else {
                    return Err(RouterError::NoLiveShards {
                        stranded: self.pending.len(),
                    });
                };
                let attempts = {
                    let p = self.pending.get_mut(&id).expect("dispatching a known job");
                    p.attempts += 1;
                    p.attempts
                };
                if attempts > self.config.max_attempts {
                    self.pending.remove(&id);
                    self.telemetry.lost.inc();
                    first_failure.get_or_insert(RouterError::JobLost { id, attempts });
                    break;
                }
                let outcome = {
                    let p = &self.pending[&id];
                    let st = &mut self.shards[shard];
                    let idle = st.inflight.is_empty();
                    let client = st.client.as_mut().expect("placement picks live shards");
                    let submitted = match &p.design {
                        Some(d) => client.submit_to(d, &p.job),
                        None => client.submit(&p.job),
                    };
                    // The first job on an idle shard waits for its ack:
                    // nothing else would tell a dead shard from a live
                    // one before its result is asked for.
                    submitted.and_then(|remote_id| {
                        if idle {
                            client.flush()?;
                        }
                        Ok(remote_id)
                    })
                };
                match outcome {
                    Ok(remote_id) => {
                        let p = self.pending.get_mut(&id).expect("dispatching a known job");
                        p.remote_id = remote_id;
                        // A successful placement clears the job's
                        // failure streak: `max_attempts` guards against
                        // a job no host will *take*, not against honest
                        // resubmission churn when shards flap.
                        p.attempts = 0;
                        let st = &mut self.shards[shard];
                        st.dispatched += 1;
                        st.inflight.push(id);
                        break;
                    }
                    Err(error) if error.is_fatal() => {
                        // The shard is down; its orphans (and this job)
                        // go back on the worklist.
                        work.extend(self.shard_failed(shard));
                        continue;
                    }
                    Err(error) => {
                        self.pending.remove(&id);
                        self.telemetry.lost.inc();
                        first_failure.get_or_insert(RouterError::Shard { shard, error });
                        break;
                    }
                }
            }
        }
        match first_failure {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// Handles a fatal transport fault on one live shard: it leaves the
    /// live set — one down episode, however many probes fail before it
    /// rejoins — and comes back only through
    /// [`run_probes`](Self::run_probes). Its in-flight jobs are
    /// orphaned — their handles lived on the broken connection — and
    /// are returned for redispatch.
    fn shard_failed(&mut self, shard: usize) -> Vec<u64> {
        let st = &mut self.shards[shard];
        st.client = None;
        let orphans = std::mem::take(&mut st.inflight);
        self.telemetry.shard_deaths.inc();
        self.telemetry.resubmitted.add(orphans.len() as u64);
        orphans
    }

    /// Probes every down shard: connect, `ping`, replay the design
    /// registry, and only then mark the shard live (the rejoin). A
    /// failed probe leaves the shard down until the next sweep.
    fn run_probes(&mut self) {
        for shard in 0..self.shards.len() {
            if self.shards[shard].live() {
                continue;
            }
            let addr = self.shards[shard].addr;
            self.telemetry.probes.inc();
            let probe = ServeClient::connect_timeout(addr, self.config.read_timeout);
            let probe = probe.and_then(|mut client| {
                client.ping()?;
                for (design, source, halt) in &self.registry {
                    match client.register(design, source, halt) {
                        Ok(()) => {}
                        // Non-fatal refusal: the host kept its registry
                        // through the outage (duplicate design).
                        Err(error) if !error.is_fatal() => {}
                        Err(error) => return Err(error),
                    }
                }
                Ok(client)
            });
            if let Ok(client) = probe {
                let st = &mut self.shards[shard];
                st.client = Some(client);
                st.rejoins += 1;
                self.telemetry.rejoins.inc();
            }
        }
    }

    /// Records one delivery of `id` by `shard`.
    fn deliver(&mut self, id: u64, shard: usize, result: WireResult) -> Routed {
        let p = self.pending.remove(&id).expect("delivering a pending job");
        let st = &mut self.shards[shard];
        st.inflight.retain(|&i| i != id);
        st.delivered += 1;
        self.telemetry.delivered.inc();
        self.telemetry.registry.record_event(
            id,
            JobStage::Delivered,
            None,
            None,
            Some(shard as u64),
        );
        self.telemetry
            .registry
            .histogram("router.delivery_latency_us")
            .record(p.submitted_at.elapsed().as_micros() as u64);
        Routed { id, shard, result }
    }

    /// One non-blocking pass over the fleet: probe every down shard
    /// (rejoins happen here) and poll every in-flight job once. Returns
    /// the first finished job found, `Ok(None)` if nothing finished —
    /// including when nothing is pending, which makes this the
    /// idle-safe pump for open-loop drivers that interleave submission
    /// with collection.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoLiveShards`] / [`RouterError::JobLost`] when a
    /// failure cascade exhausts the fleet;
    /// [`RouterError::Shard`] on a protocol violation.
    pub fn poll_once(&mut self) -> Result<Option<Routed>, RouterError> {
        self.run_probes();
        for shard in 0..self.shards.len() {
            // An earlier failure in this sweep can cascade (via
            // resubmission) into the death of a later shard.
            if !self.shards[shard].live() {
                continue;
            }
            // Snapshot: a fatal fault mid-sweep takes the inflight list.
            let ids = self.shards[shard].inflight.clone();
            for id in ids {
                let remote_id = self
                    .pending
                    .get(&id)
                    .expect("in-flight jobs are pending")
                    .remote_id;
                let polled = self.shards[shard]
                    .client
                    .as_mut()
                    .expect("live shards have clients")
                    .poll(remote_id);
                match polled {
                    Ok(Some(result)) => return Ok(Some(self.deliver(id, shard, result))),
                    Ok(None) => {}
                    Err(error) if error.is_fatal() => {
                        let orphans = self.shard_failed(shard);
                        self.dispatch(orphans)?;
                        break; // this shard's snapshot is stale
                    }
                    Err(error) => return Err(RouterError::Shard { shard, error }),
                }
            }
        }
        Ok(None)
    }

    /// Blocks until the next job — from any shard — finishes, and
    /// returns it: the fleet's single completion-ordered stream.
    /// Shards that fail mid-wait are handled inline (their jobs
    /// resubmitted) without disturbing the stream.
    ///
    /// # Errors
    ///
    /// [`RouterError::Idle`] with nothing pending;
    /// [`RouterError::NoLiveShards`] / [`RouterError::JobLost`] when a
    /// failure cascade exhausts the fleet.
    pub fn next_result(&mut self) -> Result<Routed, RouterError> {
        loop {
            if self.pending.is_empty() {
                return Err(RouterError::Idle);
            }
            // Pending jobs with no fleet left can never complete *now*:
            // report that instead of sleeping (probes still got their
            // chance through the dispatch/poll paths).
            if self.live_shards() == 0 {
                self.run_probes();
            }
            if self.live_shards() == 0 {
                return Err(RouterError::NoLiveShards {
                    stranded: self.pending.len(),
                });
            }
            if let Some(routed) = self.poll_once()? {
                return Ok(routed);
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }

    /// Drains every outstanding job, in completion order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`next_result`](Self::next_result) failure.
    pub fn drain(&mut self) -> Result<Vec<Routed>, RouterError> {
        let mut out = Vec::new();
        while !self.pending.is_empty() {
            out.push(self.next_result()?);
        }
        Ok(out)
    }

    /// Jobs awaiting results, fleet-wide.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Live shard count.
    pub fn live_shards(&self) -> usize {
        self.shards.iter().filter(|st| st.live()).count()
    }

    /// A snapshot of the router's counters and each shard's liveness —
    /// a view over the metrics registry.
    pub fn stats(&self) -> FleetStats {
        let t = &self.telemetry;
        debug_assert!(
            self.accounting_balanced(),
            "router accounting leak: submitted {} != delivered {} + pending {} + lost {}",
            t.submitted.get(),
            t.delivered.get(),
            self.pending.len(),
            t.lost.get(),
        );
        let per_shard = |count: fn(&ShardState) -> u64| self.shards.iter().map(count).sum();
        debug_assert_eq!(
            (per_shard(|st| st.delivered), per_shard(|st| st.rejoins)),
            (t.delivered.get(), t.rejoins.get()),
            "per-shard delivered/rejoins disagree with router.delivered/router.rejoins"
        );
        FleetStats {
            submitted: t.submitted.get(),
            delivered: t.delivered.get(),
            resubmitted: t.resubmitted.get(),
            shard_deaths: t.shard_deaths.get(),
            rejoins: t.rejoins.get(),
            per_shard: self
                .shards
                .iter()
                .map(|st| FleetShard {
                    addr: st.addr,
                    live: st.live(),
                    in_flight: st.inflight.len(),
                    dispatched: st.dispatched,
                    delivered: st.delivered,
                    rejoins: st.rejoins,
                })
                .collect(),
        }
    }

    /// Polls every live shard's `stats` verb: the load probe. A shard
    /// that fails the probe takes the usual failure path (the shard
    /// goes down, its jobs are resubmitted) and reports `None`, as do
    /// shards currently down.
    ///
    /// # Errors
    ///
    /// [`RouterError::NoLiveShards`] / [`RouterError::JobLost`] if a
    /// probe-triggered failure cascade exhausts the fleet.
    pub fn poll_health(&mut self) -> Result<Vec<Option<WireStats>>, RouterError> {
        let mut out = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            if !self.shards[shard].live() {
                out.push(None);
                continue;
            }
            let polled = self.shards[shard]
                .client
                .as_mut()
                .expect("live shards have clients")
                .stats();
            match polled {
                Ok(stats) => out.push(Some(stats)),
                Err(error) if error.is_fatal() => {
                    let orphans = self.shard_failed(shard);
                    self.dispatch(orphans)?;
                    out.push(None);
                }
                Err(error) => return Err(RouterError::Shard { shard, error }),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_never_picks_a_down_shard() {
        // The down shard is the idlest; the live ones are busy.
        assert_eq!(place([(true, 3, 9), (false, 0, 0), (true, 2, 40)]), Some(2));
        // Every shape of three shards: the pick is live and holds the
        // fewest jobs in flight of the live ones.
        for mask in 0u32..1 << 9 {
            let shards: Vec<(bool, usize, u64)> = (0..3)
                .map(|s| {
                    let bits = mask >> (3 * s);
                    (
                        bits & 1 == 1,
                        (bits >> 1 & 1) as usize,
                        u64::from(bits >> 2 & 1),
                    )
                })
                .collect();
            let least = shards.iter().filter(|s| s.0).map(|s| s.1).min();
            match place(shards.iter().copied()) {
                Some(slot) => {
                    assert!(shards[slot].0, "{shards:?} placed on down shard {slot}");
                    assert_eq!(Some(shards[slot].1), least, "{shards:?}");
                }
                None => assert_eq!(least, None, "{shards:?} has a live shard"),
            }
        }
    }

    #[test]
    fn placement_ties_go_to_fewer_dispatches_then_the_lower_slot() {
        // Fewer in flight beats fewer dispatches.
        assert_eq!(place([(true, 2, 0), (true, 1, 100)]), Some(1));
        // Equal in flight: fewer dispatches wins.
        assert_eq!(place([(true, 1, 7), (true, 1, 3), (true, 1, 5)]), Some(1));
        // Equal on both: the lower slot wins.
        assert_eq!(place([(false, 0, 0), (true, 1, 3), (true, 1, 3)]), Some(1));
        // A light load alternates between two idle shards.
        let mut dispatched = [0u64; 2];
        for _ in 0..10 {
            let slot = place([(true, 0, dispatched[0]), (true, 0, dispatched[1])])
                .expect("both shards are live");
            dispatched[slot] += 1;
        }
        assert_eq!(dispatched, [5, 5]);
    }

    #[test]
    fn placement_is_none_when_no_shard_is_live() {
        assert_eq!(place([]), None);
        assert_eq!(place([(false, 0, 0), (false, 3, 1)]), None);
    }
}
