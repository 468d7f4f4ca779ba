//! The service over one compiled `param_sum` core, loaded two ways.
//!
//! Closed loop (the `svc_closed` workload): a client over the socket
//! keeping a fixed number of jobs in flight (a caller that waits for
//! replies). Open loop (a per-layer probe of every traced run): one
//! generator submitting straight into the pool on a Poisson schedule and
//! timing every job from its *scheduled* arrival (independent users), so
//! queueing is charged to the jobs that suffer it.

use crate::clock::ProgramCpu;
use crate::engine::{compiler, Checks, Limit};
use crate::inputs;
use crate::stats::{quantile_sorted, Digest};
use crate::trace::Tracer;
use rteaal_core::Compiled;
use rteaal_designs::Workload;
use rteaal_sched::{Job, JobResult};
use rteaal_serve::{JobHandle, ServeClient, ServeConfig, ServerPool, SocketServer, WireResult};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A job that has not come back after this long has failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(10);
/// The open-loop generator looks for finished jobs this often.
const POLL_EVERY: Duration = Duration::from_micros(10);

/// One worker with eight lanes, other knobs default: the load
/// generators take the host's other CPU.
pub fn pool_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        lanes: 8,
        ..ServeConfig::default()
    }
}

/// The job that sums `k..=1` on the shared core.
pub fn job_for(k: u64, index: usize) -> Job {
    Job::new(format!("j{index}"), Workload::param_sum_budget(k))
        .with_state_poke("x15", k)
        .with_probe("a0")
}

/// How the closed loop loads the server, over one connection: with the
/// connection's server thread and the pool's worker that is as many busy
/// threads as the host has CPUs.
#[derive(Debug, Clone, Copy)]
pub struct ClosedShape {
    /// Jobs the connection keeps in flight.
    pub inflight: usize,
    pub jobs_per_seg: usize,
}

impl ClosedShape {
    /// The loaded phase: 16 jobs in flight, twice the pool's lanes.
    pub const LOADED: ClosedShape = ClosedShape {
        inflight: 16,
        jobs_per_seg: 2000,
    };
}

/// How the open loop loads the pool.
#[derive(Debug, Clone, Copy)]
pub struct OpenShape {
    /// Poisson arrivals per second.
    pub rate: f64,
    /// Arrivals per drained segment.
    pub arrivals: usize,
}

impl OpenShape {
    /// `r12000`: meant as about half the in-process capacity, so that
    /// queueing in pool and scheduler shows.
    pub const LOADED: OpenShape = OpenShape {
        rate: 12_000.0,
        arrivals: 2000,
    };
    /// `r4000`: the wake-up path.
    pub const LIGHT: OpenShape = OpenShape {
        rate: 4000.0,
        arrivals: 200,
    };
}

/// Completions per [`Window`]: the fewest that leave ten beyond a p90.
pub const WINDOW_JOBS: usize = 100;
/// Jobs of the untimed warm-up segment of a phase, at most.
const WARM_UP_JOBS: usize = 200;

/// A run of [`WINDOW_JOBS`] consecutive completions inside a segment,
/// 5 to 8 ms of service: short enough that some windows of a run fall
/// between two disturbances of the host, which the segments never do.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Host time from the completion before the window's first to its
    /// last.
    pub ns: u64,
    /// CPU time of the program's threads over the same stretch.
    pub cpu_ns: u64,
    /// Simulated cycles of the window's jobs.
    pub cycles: u64,
    pub p50_us: f64,
    pub p90_us: f64,
}

impl Window {
    pub fn jobs_per_s(&self) -> f64 {
        WINDOW_JOBS as f64 / self.ns as f64 * 1e9
    }

    /// CPU microseconds the program spent per job.
    pub fn job_cpu_us(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / WINDOW_JOBS as f64
    }

    /// Simulated cycles delivered per CPU second of the program.
    pub fn cycles_per_cpu_s(&self) -> f64 {
        self.cycles as f64 / self.cpu_ns.max(1) as f64 * 1e9
    }
}

/// One completion: when (from the segment's start), after what latency,
/// of how many simulated cycles.
#[derive(Debug, Clone, Copy)]
struct Completion {
    at_ns: u64,
    lat_us: f64,
    cycles: u64,
}

/// What a segment's load generator saw, in the order jobs came back.
struct Finished {
    clock: ProgramCpu,
    /// The program's CPU clock when the segment started.
    cpu_start_ns: u64,
    /// And at every [`WINDOW_JOBS`]th completion.
    cpu_marks_ns: Vec<u64>,
    done: Vec<Completion>,
}

impl Finished {
    fn start(clock: ProgramCpu, jobs: usize) -> Finished {
        Finished {
            cpu_start_ns: clock.now_ns(),
            clock,
            cpu_marks_ns: Vec::with_capacity(jobs / WINDOW_JOBS),
            done: Vec::with_capacity(jobs),
        }
    }

    fn push(&mut self, completion: Completion) {
        self.done.push(completion);
        if self.done.len().is_multiple_of(WINDOW_JOBS) {
            self.cpu_marks_ns.push(self.clock.now_ns());
        }
    }

    /// The segment cut into windows; what does not fill a last window is
    /// left out.
    fn windows(&self) -> Vec<Window> {
        let (mut from_ns, mut from_cpu_ns) = (0, self.cpu_start_ns);
        let chunks = self.done.chunks_exact(WINDOW_JOBS);
        chunks
            .zip(&self.cpu_marks_ns)
            .map(|(chunk, &to_cpu_ns)| {
                let to_ns = chunk[WINDOW_JOBS - 1].at_ns;
                let mut lat_us: Vec<f64> = chunk.iter().map(|c| c.lat_us).collect();
                lat_us.sort_by(f64::total_cmp);
                let window = Window {
                    ns: to_ns.saturating_sub(from_ns).max(1),
                    cpu_ns: to_cpu_ns.saturating_sub(from_cpu_ns),
                    cycles: chunk.iter().map(|c| c.cycles).sum(),
                    p50_us: quantile_sorted(&lat_us, 0.50),
                    p90_us: quantile_sorted(&lat_us, 0.90),
                };
                (from_ns, from_cpu_ns) = (to_ns, to_cpu_ns);
                window
            })
            .collect()
    }
}

/// One equal-work segment of a service phase.
#[derive(Debug, Clone, Default)]
pub struct SvcSeg {
    /// From the segment's start to its last completion.
    pub ns: u64,
    pub jobs: u64,
    /// Simulated cycles of the segment's jobs.
    pub cycles: u64,
    pub p99_us: f64,
    /// Open loop only: most jobs outstanding at once.
    pub max_outstanding: usize,
    /// Open loop only: how late the generator submitted, 99th percentile.
    pub lateness_p99_us: f64,
    /// Digest of (k, a0, cycles) in job order.
    pub digest: u64,
    /// The segment in windows of [`WINDOW_JOBS`] completions.
    pub windows: Vec<Window>,
}

impl SvcSeg {
    /// Takes `finished`'s jobs, windows and tail, and `outcomes`' cycles
    /// and digest: (k, a0, cycles) per job in job order.
    fn close(&mut self, finished: &Finished, outcomes: &[(u64, u64, u64)]) {
        let mut lat_us: Vec<f64> = finished.done.iter().map(|c| c.lat_us).collect();
        lat_us.sort_by(f64::total_cmp);
        self.p99_us = quantile_sorted(&lat_us, 0.99);
        self.jobs = finished.done.len() as u64;
        self.windows = finished.windows();
        let mut digest = Digest::default();
        for &(k, a0, cycles) in outcomes {
            self.cycles += cycles;
            digest.push(k);
            digest.push(a0);
            digest.push(cycles);
        }
        self.digest = digest.finish();
    }
}

/// What a finished job must look like.
fn check_result(k: u64, completed: bool, a0: Option<u64>, cycles: u64, checks: &mut Checks) {
    if completed && a0 == Some(Workload::param_sum_expected(k)) && cycles > 0 {
        checks.pass(1);
    } else {
        checks.fail(|| format!("job k {k}: completed {completed}, a0 {a0:?}, cycles {cycles}"));
    }
}

/// One cold set-up of the pool alone: FIRRTL text to a pool ready to take
/// jobs.
pub fn setup_pool(text: &str, tracer: &mut Tracer) -> Result<(ServerPool, Compiled, f64), String> {
    let t0 = Instant::now();
    let compiled = tracer
        .span("core.compile_str", 0, |_| compiler().compile_str(text))
        .map_err(|e| format!("compile failed: {e}"))?;
    let pool = tracer
        .span("serve.pool.new", 0, |_| {
            ServerPool::new(&compiled, pool_config(), "halt")
        })
        .map_err(|e| format!("pool failed: {e}"))?;
    Ok((pool, compiled, t0.elapsed().as_secs_f64()))
}

fn connect(addr: SocketAddr) -> Result<ServeClient, String> {
    let client = ServeClient::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    client
        .set_read_timeout(Some(JOB_TIMEOUT))
        .map_err(|e| format!("set timeout failed: {e}"))?;
    Ok(client)
}

/// One cold set-up of `svc_closed`: FIRRTL text to a served socket that
/// has answered its first `ping`. The accept thread keeps the pool alive
/// until the process exits (the server has no stop call).
pub fn setup_socket(
    text: &str,
    tracer: &mut Tracer,
) -> Result<(SocketAddr, Compiled, f64), String> {
    let t0 = Instant::now();
    let (pool, compiled, _) = setup_pool(text, tracer)?;
    let addr = tracer
        .span("serve.socket.bind_spawn", 0, |_| {
            SocketServer::bind(pool, "127.0.0.1:0").and_then(SocketServer::spawn)
        })
        .map_err(|e| format!("bind failed: {e}"))?;
    let mut client = tracer.span("serve.client.connect", 0, |_| connect(addr))?;
    tracer
        .span("serve.client.ping", 0, |_| client.ping())
        .map_err(|e| format!("ping failed: {e}"))?;
    Ok((addr, compiled, t0.elapsed().as_secs_f64()))
}

/// One closed-loop segment: keeps `inflight` jobs outstanding until all
/// of `ks` came back.
fn closed_segment(
    client: &mut ServeClient,
    ks: &[u64],
    inflight: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Result<SvcSeg, String> {
    let jobs: Vec<Job> = ks.iter().enumerate().map(|(i, &k)| job_for(k, i)).collect();
    let mut window: Vec<(u64, usize, Instant)> = Vec::with_capacity(inflight);
    let mut outcomes: Vec<(u64, u64, u64)> = ks.iter().map(|&k| (k, 0, 0)).collect();
    let mut next = 0;
    // The client is part of the program: its thread counts.
    let mut finished = Finished::start(ProgramCpu::of_process(), ks.len());
    let start = Instant::now();
    while next < jobs.len() || !window.is_empty() {
        if next < jobs.len() && window.len() < inflight {
            let sent = Instant::now();
            let id = tracer
                .span("serve.client.submit", next as u64, |_| {
                    client.submit(&jobs[next])
                })
                .map_err(|e| format!("submit failed: {e}"))?;
            window.push((id, next, sent));
            next += 1;
            continue;
        }
        let r: WireResult = tracer
            .span("serve.client.next_result", 0, |_| client.next_result())
            .map_err(|e| format!("next_result failed: {e}"))?;
        let done = Instant::now();
        let at = window
            .iter()
            .position(|w| w.0 == r.id)
            .ok_or_else(|| format!("result for unknown job {}", r.id))?;
        let (id, index, sent) = window.swap_remove(at);
        tracer.record("serve.job", id, sent, done);
        finished.push(Completion {
            at_ns: done.duration_since(start).as_nanos() as u64,
            lat_us: done.duration_since(sent).as_secs_f64() * 1e6,
            cycles: r.cycles,
        });
        check_result(ks[index], r.completed(), r.output("a0"), r.cycles, checks);
        outcomes[index] = (ks[index], r.output("a0").unwrap_or(u64::MAX), r.cycles);
    }
    let mut seg = SvcSeg {
        ns: start.elapsed().as_nanos() as u64,
        ..SvcSeg::default()
    };
    seg.close(&finished, &outcomes);
    Ok(seg)
}

/// A closed-loop phase against the server at `addr`: segments of
/// `shape.jobs_per_seg` jobs over one connection until `limit`, after one
/// untimed warm-up segment. The segments draw the corpora `first_seg..`,
/// so that the rounds of a run do not repeat inputs.
pub fn closed_phase(
    addr: SocketAddr,
    seed: u64,
    shape: ClosedShape,
    first_seg: u64,
    limit: Limit,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Vec<SvcSeg> {
    let mut segs = Vec::new();
    let mut run = || -> Result<(), String> {
        let mut client = connect(addr)?;
        let warm_up = inputs::corpus(seed, u64::MAX, shape.jobs_per_seg.min(WARM_UP_JOBS));
        let (mut off, mut discard) = (Tracer::off(), Checks::default());
        closed_segment(
            &mut client,
            &warm_up,
            shape.inflight,
            &mut off,
            &mut discard,
        )?;
        while !limit.reached(segs.len()) {
            let seg = first_seg + segs.len() as u64;
            let ks = inputs::corpus(seed, seg, shape.jobs_per_seg);
            segs.push(tracer.span("bench.closed_segment", seg, |tracer| {
                closed_segment(&mut client, &ks, shape.inflight, tracer, checks)
            })?);
        }
        Ok(())
    };
    if let Err(e) = run() {
        checks.abort(e);
    }
    segs
}

/// An outstanding open-loop job.
struct Pending {
    handle: JobHandle,
    index: usize,
    due_ns: u64,
}

/// One drained open-loop segment: `n` arrivals on the Poisson schedule
/// of (`seed`, `seg`, `rate`), then wait for the last completion.
pub fn open_segment(
    pool: &ServerPool,
    seed: u64,
    seg: u64,
    rate: f64,
    n: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> SvcSeg {
    // The rate is part of the draw: segments of the two rates must not
    // share schedules or corpora.
    let seed = seed ^ rate.to_bits();
    let ks = inputs::corpus(seed, seg, n);
    let due = inputs::poisson_offsets_ns(seed, seg, rate, n);
    let mut jobs: Vec<Option<Job>> = ks
        .iter()
        .enumerate()
        .map(|(i, &k)| Some(job_for(k, i)))
        .collect();
    let mut pending: Vec<Pending> = Vec::with_capacity(64);
    // The generator spins by design: its thread is left out.
    let mut finished = Finished::start(ProgramCpu::without_calling_thread(), n);
    let mut late_us = Vec::with_capacity(n);
    let mut outcomes: Vec<(u64, u64, u64)> = ks.iter().map(|&k| (k, 0, 0)).collect();
    let mut out = SvcSeg::default();
    let mut next = 0;
    let mut last_poll_ns = 0;
    let mut last_done_ns = 0;
    let t0 = Instant::now();
    let now_ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
    let give_up_ns = due[n - 1] + JOB_TIMEOUT.as_nanos() as u64;
    loop {
        let mut now = now_ns(t0);
        while next < n && due[next] <= now {
            let job = jobs[next].take().expect("each job is submitted once");
            let handle = tracer.span("serve.pool.submit", next as u64, |_| pool.submit(job));
            late_us.push((now - due[next]) as f64 / 1e3);
            pending.push(Pending {
                handle,
                index: next,
                due_ns: due[next],
            });
            out.max_outstanding = out.max_outstanding.max(pending.len());
            next += 1;
            now = now_ns(t0);
        }
        if now - last_poll_ns >= POLL_EVERY.as_nanos() as u64 {
            last_poll_ns = now;
            let mut i = 0;
            while i < pending.len() {
                // Only the poll that finds the result becomes a span: the
                // empty ones outnumber it a hundred to one.
                let asked = tracer.enabled().then(Instant::now);
                let polled: Option<JobResult> = pending[i].handle.poll();
                let Some(r) = polled else {
                    i += 1;
                    continue;
                };
                let done = now_ns(t0);
                let p = pending.swap_remove(i);
                if let Some(asked) = asked {
                    let id = p.handle.id();
                    tracer.record("serve.handle.poll", id, asked, Instant::now());
                    let due = t0 + Duration::from_nanos(p.due_ns);
                    tracer.record("serve.job", id, due, t0 + Duration::from_nanos(done));
                }
                last_done_ns = done;
                finished.push(Completion {
                    at_ns: done,
                    lat_us: (done - p.due_ns) as f64 / 1e3,
                    cycles: r.cycles,
                });
                let a0 = r.outputs.iter().find(|(n, _)| n == "a0").map(|(_, v)| *v);
                check_result(ks[p.index], r.completed(), a0, r.cycles, checks);
                outcomes[p.index] = (ks[p.index], a0.unwrap_or(u64::MAX), r.cycles);
            }
        }
        if next == n && pending.is_empty() {
            break;
        }
        if now > give_up_ns {
            for p in pending.drain(..) {
                checks.fail(|| format!("open-loop job {} timed out", p.index));
            }
            break;
        }
        std::hint::spin_loop();
    }
    out.ns = last_done_ns.max(1);
    late_us.sort_by(f64::total_cmp);
    out.lateness_p99_us = quantile_sorted(&late_us, 0.99);
    out.close(&finished, &outcomes);
    out
}

/// An open-loop phase at one fixed rate: drained segments until `limit`,
/// after one untimed warm-up segment. The segments draw the schedules
/// and corpora `first_seg..`.
pub fn open_phase(
    pool: &ServerPool,
    seed: u64,
    shape: OpenShape,
    first_seg: u64,
    limit: Limit,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Vec<SvcSeg> {
    open_segment(
        pool,
        seed,
        u64::MAX,
        shape.rate,
        shape.arrivals.min(WARM_UP_JOBS),
        &mut Tracer::off(),
        &mut Checks::default(),
    );
    let mut segs = Vec::new();
    while !limit.reached(segs.len()) {
        let seg = first_seg + segs.len() as u64;
        segs.push(tracer.span("bench.open_segment", seg, |tracer| {
            open_segment(pool, seed, seg, shape.rate, shape.arrivals, tracer, checks)
        }));
    }
    segs
}

/// Simulated cycles and a digest of the segments' outputs.
pub fn simulated_stats<'a>(segs: impl IntoIterator<Item = &'a SvcSeg>) -> (u64, u64) {
    let mut digest = Digest::default();
    let mut cycles = 0;
    for seg in segs {
        cycles += seg.cycles;
        digest.push(seg.digest);
    }
    (cycles, digest.finish())
}
