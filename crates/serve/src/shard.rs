//! Cross-host shard routing over the serve protocol.
//!
//! [`ShardRouter`] is the client-side supervisor of a fleet of server
//! processes: it holds one [`ServeClient`] connection per shard,
//! partitions submitted jobs with **consistent hashing** keyed by the
//! router-global job id ([`HashRing`], stable under shard add/remove),
//! dispatches with per-shard in-flight accounting, merges every shard's
//! results into a single completion-ordered stream, and runs the
//! elastic-fleet loop:
//!
//! - **Circuit breaker per shard.** A connection that errors, times
//!   out, or dies mid-line gets one immediate reconnect (the cheap
//!   retry for a transient blip); if that fails, the breaker *opens*:
//!   the shard leaves the ring and is probed on a capped exponential
//!   backoff with deterministic jitter instead of being hammered. A
//!   shard whose consecutive failures exceed
//!   [`ShardConfig::reconnects`] is reported dead — but probing never
//!   stops, because hosts come back.
//! - **Rejoin.** The half-open probe is the `ping` verb; when it
//!   answers, the router replays its design registry to the host
//!   (registration fan-out — see [`register`](ShardRouter::register))
//!   and only then re-adds the shard to the ring. The ring's points
//!   are deterministic, so a rejoiner gets back *exactly* its old
//!   partition: only the keys the ring math assigns it move, and only
//!   for placements made after the rejoin — jobs in flight elsewhere
//!   stay put.
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

/// Finalizes `splitmix64`: a deterministic, well-mixed 64-bit hash.
/// Used for ring points, key placement, and backoff jitter so the
/// partition is reproducible across processes and runs (no
/// `RandomState`).
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Virtual ring points per shard in the router's [`HashRing`].
pub const RING_POINTS: usize = 64;

/// Sleep between poll sweeps that found nothing finished.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// A consistent-hash ring over shard slots, with virtual nodes.
///
/// Each shard contributes `replicas` points (hashes of `(shard,
/// replica)`); a key maps to the shard owning the first point at or
/// after the key's hash, wrapping. Removing a shard removes only its
/// points, so every key it did *not* own keeps its owner — the
/// stability property that makes mid-corpus shard loss cheap: only the
/// dead shard's jobs move. Because the points are pure hashes of the
/// slot, re-adding a shard restores its old partition *exactly* — the
/// rejoin path's bounded-movement guarantee. The router's ring has
/// [`RING_POINTS`] points per shard.
#[derive(Debug, Clone)]
pub struct HashRing {
    replicas: usize,
    /// `(point hash, shard)`, sorted; ties broken by shard index so the
    /// mapping is deterministic.
    points: Vec<(u64, usize)>,
    /// Sorted live shard slots.
    live: Vec<usize>,
}

impl HashRing {
    /// An empty ring with `replicas` virtual nodes per shard.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "a shard needs at least one ring point");
        HashRing {
            replicas,
            points: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Adds a shard slot (no-op if already present).
    pub fn add(&mut self, shard: usize) {
        if self.live.contains(&shard) {
            return;
        }
        for replica in 0..self.replicas {
            let point = mix64(mix64(shard as u64 + 1) ^ replica as u64);
            self.points.push((point, shard));
        }
        self.points.sort_unstable();
        self.live.push(shard);
        self.live.sort_unstable();
    }

    /// Removes a shard slot and every point it owns.
    pub fn remove(&mut self, shard: usize) {
        self.points.retain(|&(_, s)| s != shard);
        self.live.retain(|&s| s != shard);
    }

    /// The shard owning `key`, or `None` on an empty ring.
    pub fn shard_for(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let hash = mix64(key);
        let idx = self.points.partition_point(|&(p, _)| p < hash);
        Some(self.points[idx % self.points.len()].1)
    }

    /// The live shard slots, sorted.
    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// Live shard count.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no shard is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

/// The router's failure-tolerance knobs.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// How long any single exchange may wait for a shard's response
    /// before the host counts as hung (a fatal fault).
    pub read_timeout: Duration,
    /// Consecutive failures (transport faults and failed probes) a
    /// shard is allowed before it is *reported* dead. Delivering a
    /// result resets the count — a host must prove it can finish work,
    /// not merely accept connections — and probing continues past
    /// death: a dead shard that answers a probe rejoins.
    pub reconnects: usize,
    /// *Consecutive failed* placements one job may burn before the
    /// router gives up on it — a backstop against a job no host will
    /// take. A successful placement resets the count, so honest
    /// resubmission churn under flapping shards never exhausts a job.
    pub max_attempts: usize,
    /// First open-breaker probe delay; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Ceiling on the probe delay, whatever the failure count.
    pub backoff_cap: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            read_timeout: Duration::from_secs(5),
            reconnects: 2,
            max_attempts: 16,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// One shard's connection, breaker, and accounting.
#[derive(Debug)]
struct ShardState {
    addr: SocketAddr,
    /// `Some` iff the shard is in the ring (breaker closed).
    client: Option<ServeClient>,
    /// Consecutive failures since the last successful exchange.
    failures: u32,
    /// Whether `failures` has crossed the death threshold (reported in
    /// stats; probing continues regardless).
    dead: bool,
    /// When the breaker next half-opens for a probe (down shards only).
    retry_at: Option<Instant>,
    /// Router ids currently awaiting results on this shard.
    inflight: Vec<u64>,
    /// Jobs ever dispatched here (including resubmissions).
    dispatched: u64,
    /// Results this shard delivered.
    delivered: u64,
    /// Times this shard re-entered the ring after being down.
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

/// Where one shard's circuit breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Breaker closed: connected and in the ring.
    Live,
    /// Breaker open: out of the ring, awaiting its next half-open
    /// probe.
    Open {
        /// Consecutive failures so far.
        failures: u32,
    },
    /// Failures crossed [`ShardConfig::reconnects`]; still probed (a
    /// dead host that answers rejoins), but reported as dead.
    Dead {
        /// Consecutive failures so far.
        failures: u32,
    },
}

/// One shard's slice of a [`FleetStats`] snapshot.
#[derive(Debug, Clone)]
pub struct FleetShard {
    /// The shard's address.
    pub addr: SocketAddr,
    /// Breaker phase.
    pub phase: ShardPhase,
    /// Jobs currently awaiting results on it.
    pub in_flight: usize,
    /// Jobs ever dispatched to it (including resubmissions).
    pub dispatched: u64,
    /// Results it delivered.
    pub delivered: u64,
    /// Times it re-entered the ring after being down.
    pub rejoins: u64,
}

/// The router's snapshot: fleet-wide counters plus each shard's
/// breaker phase and load. With no job lost, every placement is a first
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
    /// Down episodes: times a shard's breaker opened and it left the
    /// ring (a later rejoin starts a fresh episode).
    pub shard_deaths: u64,
    /// Shards that re-entered the ring after being down, fleet-wide.
    pub rejoins: u64,
    /// Per-shard accounting, by slot.
    pub per_shard: Vec<FleetShard>,
}

/// The cross-host supervisor: consistent-hash job placement over a
/// fleet of serve processes, with circuit-breaker health tracking,
/// shard rejoin, registration fan-out, and automatic resubmission. See the [module docs](self) for the design.
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
    ring: HashRing,
    /// Router id -> its pending job, across all shards.
    pending: HashMap<u64, PendingJob>,
    /// Designs registered through the router, in order — replayed to
    /// every rejoiner before it re-enters the ring.
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
    /// Breaker closed→open edges (shard left the ring).
    shard_deaths: Arc<Counter>,
    /// Breaker open→closed edges (probe answered; registry replayed).
    rejoins: Arc<Counter>,
    /// Half-open probe attempts, answered or not.
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
        let mut ring = HashRing::new(RING_POINTS);
        for (slot, &addr) in addrs.iter().enumerate() {
            let client = Self::open(addr, config.read_timeout)
                .map_err(|error| RouterError::Shard { shard: slot, error })?;
            ring.add(slot);
            shards.push(ShardState {
                addr,
                client: Some(client),
                failures: 0,
                dead: false,
                retry_at: None,
                inflight: Vec::new(),
                dispatched: 0,
                delivered: 0,
                rejoins: 0,
            });
        }
        Ok(ShardRouter {
            config,
            shards,
            ring,
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

    /// Connects to one shard with the router's read deadline applied.
    fn open(addr: SocketAddr, timeout: Duration) -> Result<ServeClient, ProtocolError> {
        let client = ServeClient::connect(addr)?;
        client.set_read_timeout(Some(timeout))?;
        Ok(client)
    }

    /// The backoff before failure number `failures`' next probe:
    /// exponential in the failure count, capped, with deterministic
    /// jitter in `[0.5, 1.0)` of the nominal delay so a fleet of
    /// routers probing the same revived host decorrelate.
    fn backoff_for(config: &ShardConfig, shard: usize, failures: u32) -> Duration {
        let exp = failures.saturating_sub(1).min(12);
        let mut delay = config.backoff_base.saturating_mul(1u32 << exp);
        if delay > config.backoff_cap {
            delay = config.backoff_cap;
        }
        let jitter = mix64(((shard as u64) << 32) ^ u64::from(failures)) as f64 / u64::MAX as f64;
        delay.mul_f64(0.5 + 0.5 * jitter)
    }

    /// Submits a job to every shard's default design: assigns a
    /// router-global id, places it on the shard the ring maps that id
    /// to, and returns the id. Placement failures cascade through the
    /// failure path (reconnect, then rehash to survivors) before this
    /// returns.
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

    /// Places every job in `work` on the shard its id hashes to,
    /// walking the failure path (reconnect, rehash) as shards fall
    /// over.
    ///
    /// A job that fails *individually* — placement budget exhausted, or
    /// a protocol violation on submit — is removed from the router's
    /// books entirely, and the rest of the worklist is still placed
    /// before its error is returned: one abandoned job must never
    /// strand the others in a pending-but-nowhere limbo that
    /// [`drain`](Self::drain) would wait on forever. Only a fleet-wide
    /// failure (empty ring) aborts immediately; the jobs it leaves
    /// pending are the `stranded` count, and every later call keeps
    /// reporting [`RouterError::NoLiveShards`] for them.
    fn dispatch(&mut self, mut work: Vec<u64>) -> Result<(), RouterError> {
        let mut first_failure: Option<RouterError> = None;
        while let Some(id) = work.pop() {
            loop {
                if self.ring.is_empty() {
                    // Give due probes one chance to revive the fleet
                    // before declaring it exhausted.
                    self.run_probes();
                }
                if self.ring.is_empty() {
                    return Err(RouterError::NoLiveShards {
                        stranded: self.pending.len(),
                    });
                }
                let shard = self.ring.shard_for(id).expect("ring is non-empty");
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
                    let client = self.shards[shard]
                        .client
                        .as_mut()
                        .expect("ring only maps live shards");
                    match &p.design {
                        Some(d) => client.submit_to(d, &p.job),
                        None => client.submit(&p.job),
                    }
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
                        // The shard's orphans (and this job) go back on
                        // the worklist; the ring may or may not still
                        // contain the shard depending on whether the
                        // immediate reconnect lands.
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

    /// Handles a fatal transport fault on one shard: the breaker's
    /// closed→open edge. The shard gets one immediate reconnect (if
    /// its consecutive-failure count is still within budget); if that
    /// fails it leaves the ring (one counted down episode) and is
    /// probed on capped exponential backoff with jitter by
    /// [`run_probes`](Self::run_probes). Crossing the failure budget
    /// additionally reports it dead — probing continues regardless.
    ///
    /// Either way the shard's in-flight jobs are orphaned — their
    /// handles lived on the broken connection — and are returned for
    /// redispatch.
    fn shard_failed(&mut self, shard: usize) -> Vec<u64> {
        let st = &mut self.shards[shard];
        st.client = None;
        st.failures += 1;
        let failures = st.failures;
        let was_inflight = std::mem::take(&mut st.inflight);
        if failures <= self.config.reconnects as u32 {
            if let Ok(client) = Self::open(st.addr, self.config.read_timeout) {
                st.client = Some(client);
            }
        }
        if self.shards[shard].client.is_none() {
            self.ring.remove(shard);
            // One down episode = one death, counted at the moment the
            // shard leaves the ring (probe failures while it stays out
            // are the same episode).
            self.telemetry.shard_deaths.inc();
            let retry_at = Instant::now() + Self::backoff_for(&self.config, shard, failures);
            let st = &mut self.shards[shard];
            st.retry_at = Some(retry_at);
            if failures > self.config.reconnects as u32 {
                st.dead = true;
            }
        }
        self.telemetry.resubmitted.add(was_inflight.len() as u64);
        was_inflight
    }

    /// Half-open probes for every down shard whose backoff has lapsed:
    /// connect, `ping`, replay the design registry, and only then
    /// re-add the shard to the ring (the rejoin). A failed probe
    /// doubles the backoff; crossing the failure budget marks the
    /// shard dead, but probing never stops.
    fn run_probes(&mut self) {
        let now = Instant::now();
        for shard in 0..self.shards.len() {
            if self.shards[shard].live() {
                continue;
            }
            if self.shards[shard].retry_at.is_some_and(|t| t > now) {
                continue;
            }
            let addr = self.shards[shard].addr;
            self.telemetry.probes.inc();
            let probe = Self::open(addr, self.config.read_timeout).and_then(|mut client| {
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
            match probe {
                Ok(client) => {
                    let st = &mut self.shards[shard];
                    st.client = Some(client);
                    st.failures = 0;
                    st.dead = false;
                    st.retry_at = None;
                    st.rejoins += 1;
                    self.telemetry.rejoins.inc();
                    self.ring.add(shard);
                }
                Err(_) => {
                    let st = &mut self.shards[shard];
                    st.failures += 1;
                    let failures = st.failures;
                    st.retry_at = Some(now + Self::backoff_for(&self.config, shard, failures));
                    if failures > self.config.reconnects as u32 {
                        self.shards[shard].dead = true;
                    }
                }
            }
        }
    }

    /// Records one delivery of `id` by `shard`.
    fn deliver(&mut self, id: u64, shard: usize, result: WireResult) -> Routed {
        let p = self.pending.remove(&id).expect("delivering a pending job");
        let st = &mut self.shards[shard];
        st.inflight.retain(|&i| i != id);
        st.delivered += 1;
        st.failures = 0;
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

    /// One non-blocking pass over the fleet: run due probes (rejoins
    /// happen here) and poll every in-flight job once. Returns the
    /// first finished job found, `Ok(None)` if nothing finished —
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
        for shard in self.ring.live().to_vec() {
            // Re-check against the *current* ring: an earlier failure
            // in this sweep can cascade (via resubmission) into the
            // death of a shard later in the snapshot.
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
            if self.ring.is_empty() {
                self.run_probes();
            }
            if self.ring.is_empty() {
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
        self.ring.len()
    }

    /// A snapshot of the router's counters and each shard's breaker
    /// phase — a view over the metrics registry.
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
                    phase: if st.live() {
                        ShardPhase::Live
                    } else if st.dead {
                        ShardPhase::Dead {
                            failures: st.failures,
                        }
                    } else {
                        ShardPhase::Open {
                            failures: st.failures,
                        }
                    },
                    in_flight: st.inflight.len(),
                    dispatched: st.dispatched,
                    delivered: st.delivered,
                    rejoins: st.rejoins,
                })
                .collect(),
        }
    }

    /// Polls every live shard's `stats` verb: the load probe. A shard
    /// that fails the probe takes the usual failure path (breaker
    /// opens, jobs resubmitted) and reports `None`, as do shards
    /// currently down.
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
    fn ring_is_deterministic_and_covers_all_live_shards() {
        let mut ring = HashRing::new(64);
        for s in 0..4 {
            ring.add(s);
        }
        let owners: Vec<usize> = (0..256)
            .map(|k| ring.shard_for(k).expect("non-empty ring"))
            .collect();
        // Deterministic: a second pass agrees.
        for (k, &owner) in owners.iter().enumerate() {
            assert_eq!(ring.shard_for(k as u64), Some(owner));
            assert!(ring.live().contains(&owner));
        }
        // Every shard owns a reasonable share of 256 keys.
        for s in 0..4 {
            let share = owners.iter().filter(|&&o| o == s).count();
            assert!(share > 16, "shard {s} owns only {share}/256 keys");
        }
    }

    #[test]
    fn removing_a_shard_moves_only_its_keys() {
        let mut ring = HashRing::new(64);
        for s in 0..3 {
            ring.add(s);
        }
        let before: Vec<usize> = (0..200).map(|k| ring.shard_for(k).unwrap()).collect();
        ring.remove(1);
        for (k, &owner) in before.iter().enumerate() {
            let now = ring.shard_for(k as u64).unwrap();
            if owner == 1 {
                assert_ne!(now, 1, "key {k} still maps to the removed shard");
            } else {
                assert_eq!(now, owner, "key {k} moved without cause");
            }
        }
        // Adding it back restores the original partition exactly.
        ring.add(1);
        for (k, &owner) in before.iter().enumerate() {
            assert_eq!(ring.shard_for(k as u64), Some(owner));
        }
    }

    #[test]
    fn empty_and_single_shard_rings() {
        let mut ring = HashRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.shard_for(7), None);
        ring.add(5);
        assert_eq!(ring.len(), 1);
        for k in 0..32 {
            assert_eq!(ring.shard_for(k), Some(5));
        }
        ring.remove(5);
        assert_eq!(ring.shard_for(7), None);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let config = ShardConfig::default();
        let mut prev = Duration::ZERO;
        for failures in 1..6 {
            let d = ShardRouter::backoff_for(&config, 0, failures);
            // Jitter keeps it within [0.5, 1.0) of the nominal delay.
            let nominal = config.backoff_base * (1 << (failures - 1));
            assert!(d >= nominal.mul_f64(0.5), "failure {failures}: {d:?}");
            assert!(d < nominal, "failure {failures}: {d:?} >= {nominal:?}");
            assert!(d > prev, "backoff must grow");
            prev = d;
        }
        // Capped however high the failure count climbs.
        let huge = ShardRouter::backoff_for(&config, 0, 1000);
        assert!(huge <= config.backoff_cap);
        // Deterministic per (shard, failures).
        assert_eq!(
            ShardRouter::backoff_for(&config, 3, 4),
            ShardRouter::backoff_for(&config, 3, 4)
        );
        // Different shards decorrelate.
        assert_ne!(
            ShardRouter::backoff_for(&config, 0, 4),
            ShardRouter::backoff_for(&config, 1, 4)
        );
    }
}
