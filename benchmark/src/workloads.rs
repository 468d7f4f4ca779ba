//! The untraced run of each workload: cold set-ups, the measured phases,
//! more set-ups, and the five end-to-end metrics — all inside `--seconds`.
//!
//! Every workload reports every metric, by one definition, and every one
//! but the set-up of a service is measured on a CPU-time clock
//! (`clock.rs`): the host's wall clock is not the program's.
//!
//! - *loaded phase* (the batch, or the service under its load):
//!   `lane_cycles_per_s` is simulated lane-cycles delivered per CPU
//!   second of the program's threads, and `job_cpu_us` the CPU
//!   microseconds they spend on one checked testbench run;
//! - `scalar_cycles_per_s` is the scalar `Simulation` (PSU kernel) on the
//!   workload's design and inputs: on the engine workloads it replays
//!   lanes of the batch, on the service workloads corpus jobs.
//!
//! On the engine workloads a job is one lane's testbench run and all 64
//! finish together, so `job_cpu_us` follows from the lane rate; on the
//! service workloads `lane_cycles_per_s` follows from the cycle counts
//! of the jobs served.

use crate::engine::{self, BatchSeg, Checks, Design, EngineRun, Limit, ScalarSeg};
use crate::report::{peak_rss_mb, write_out, Metrics, RunConfig};
use crate::service::{self, ClosedShape, SvcSeg, Window};
use crate::spec::WorkloadId;
use crate::stats::{quiet, Better, Summary};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

impl WorkloadId {
    /// The design the engine phases and probes of this workload run.
    pub fn design(self) -> Design {
        match self {
            WorkloadId::ChipStim => Design::Chip,
            _ => Design::Rv32i,
        }
    }
}

/// A service run goes round its phases this many times, so that a slow
/// spell of the host costs each phase some segments instead of costing
/// one phase all of them. (The engine phases interleave per segment.)
const ROUNDS: usize = 5;

/// Where in `--seconds` the parts of a run end, as shares of it.
struct Plan {
    /// Engine workloads: cold set-ups before the phases, until here. A
    /// spell of slow memory on the host lasts seconds, so the set-ups
    /// are made at both ends of the run.
    setups_before: f64,
    /// One (loaded, scalar) phase; of each round on the service
    /// workloads.
    phases: [f64; 2],
    /// Cold set-ups after the phases, until here: the rest is for
    /// printing.
    setups_after: f64,
}

fn plan(id: WorkloadId) -> Plan {
    let rounds = ROUNDS as f64;
    let (setups_before, phases) = match id {
        // Interleaved per segment: one limit covers both phases. The
        // chip's set-up takes 0.2 s a time, the others' 2 ms.
        WorkloadId::Rv32iSteady => (0.03, [0.90, 0.0]),
        WorkloadId::ChipStim => (0.10, [0.75, 0.0]),
        WorkloadId::SvcClosed => (0.0, [0.78 / rounds, 0.12 / rounds]),
    };
    Plan {
        setups_before,
        phases,
        setups_after: 0.98,
    }
}

fn after(seconds: f64) -> Limit {
    Limit::until(Instant::now() + Duration::from_secs_f64(seconds))
}

/// The cold set-ups of a run.
struct Setups {
    times_s: Vec<f64>,
    /// Every socket set-up leaves a listener and two threads behind (the
    /// server has no stop call), so those are few.
    max: usize,
}

impl Setups {
    fn new(id: WorkloadId) -> Setups {
        Setups {
            times_s: Vec::new(),
            max: if id == WorkloadId::SvcClosed { 60 } else { 400 },
        }
    }

    /// Sets up again and again until `deadline` or until `share` of the
    /// run's `max` set-ups are made, but three times in all at the least.
    fn repeat(
        &mut self,
        share: f64,
        deadline: Instant,
        mut once: impl FnMut() -> Result<f64, String>,
    ) -> Result<(), String> {
        let max = (self.max as f64 * share) as usize;
        while self.times_s.len() < 3 || (self.times_s.len() < max && Instant::now() < deadline) {
            self.times_s.push(once()?);
        }
        Ok(())
    }

    /// The quiet-host estimate: set-up is interfered with like anything
    /// else.
    fn estimate(&self) -> Summary {
        quiet(&self.times_s, Better::Lower)
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}

/// The three phase metrics of an engine workload.
pub fn engine_metrics(run: &EngineRun, m: &mut Metrics) {
    let rates: Vec<f64> = run
        .batch
        .iter()
        .flat_map(BatchSeg::lane_rate_samples)
        .collect();
    let lane_rate = quiet(&rates, Better::Higher);
    // A job is one lane's testbench run; all lanes finish together.
    let job_cycles = mean(run.batch.iter().map(|s| s.cycles as f64));
    let scalar_rates: Vec<f64> = run.scalar.iter().map(ScalarSeg::cycles_per_s).collect();
    m.set("lane_cycles_per_s", lane_rate);
    m.set("job_cpu_us", invert(lane_rate, job_cycles * 1e6));
    m.set("scalar_cycles_per_s", quiet(&scalar_rates, Better::Higher));
}

/// `numerator / rate`, keeping the quartiles on their own sides.
fn invert(rate: Summary, numerator: f64) -> Summary {
    let inv = rate.map(|r| numerator / r);
    Summary {
        q1: inv.q3,
        q3: inv.q1,
        ..inv
    }
}

/// The windows of a block of segments.
pub fn windows(segs: &[SvcSeg]) -> Vec<Window> {
    segs.iter()
        .flat_map(|s| s.windows.iter().copied())
        .collect()
}

/// The quiet-host estimate of one statistic of `windows`.
pub fn quiet_of(windows: &[Window], f: fn(&Window) -> f64, better: Better) -> Summary {
    quiet(&windows.iter().map(f).collect::<Vec<f64>>(), better)
}

/// The three phase metrics of a service workload, from the windows of its
/// loaded segments.
pub fn service_metrics(loaded: &[SvcSeg], scalar: &[ScalarSeg], m: &mut Metrics) {
    let windows = windows(loaded);
    m.set(
        "lane_cycles_per_s",
        quiet_of(&windows, Window::cycles_per_cpu_s, Better::Higher),
    );
    m.set(
        "job_cpu_us",
        quiet_of(&windows, Window::job_cpu_us, Better::Lower),
    );
    let scalar_rates: Vec<f64> = scalar.iter().map(ScalarSeg::cycles_per_s).collect();
    m.set("scalar_cycles_per_s", quiet(&scalar_rates, Better::Higher));
}

/// Keeps the samples behind the gated values in
/// `out/<workload>.series.json`, in the order they were measured: what
/// an estimator or a segment size is chosen from.
fn write_series(config: &RunConfig, series: &[(&str, Vec<f64>)]) {
    let body: Vec<String> = series
        .iter()
        .map(|(name, values)| format!("\"{name}\": {values:?}"))
        .collect();
    write_out(
        &format!("{}.series.json", config.workload.name),
        &format!("{{\"seed\": {}, {}}}\n", config.seed, body.join(", ")),
    );
}

fn engine_series(config: &RunConfig, run: &EngineRun, setups: &[f64]) {
    let lane = run.batch.iter().flat_map(BatchSeg::lane_rate_samples);
    let scalar = run.scalar.iter().map(ScalarSeg::cycles_per_s);
    write_series(
        config,
        &[
            ("lane_cycles_per_s", lane.collect()),
            ("scalar_cycles_per_s", scalar.collect()),
            ("setup_s", setups.to_vec()),
        ],
    );
}

fn service_series(config: &RunConfig, loaded: &[SvcSeg], scalar: &[ScalarSeg], setups: &[f64]) {
    let of = |f: fn(&Window) -> f64| {
        let windows = loaded.iter().flat_map(|s| &s.windows);
        windows.map(f).collect::<Vec<f64>>()
    };
    let scalar = scalar.iter().map(ScalarSeg::cycles_per_s);
    write_series(
        config,
        &[
            ("job_cpu_us", of(Window::job_cpu_us)),
            ("jobs_per_s", of(Window::jobs_per_s)),
            ("p50_us", of(|w| w.p50_us)),
            ("p90_us", of(|w| w.p90_us)),
            ("scalar_cycles_per_s", scalar.collect()),
            ("setup_s", setups.to_vec()),
        ],
    );
}

/// The untraced run: every end-to-end metric of `config.workload`.
///
/// Peak memory is read after the measured phases and before the set-ups
/// that follow them: what a socket set-up leaves behind must share
/// neither the host with a measured phase nor the peak with the program.
pub fn run_untraced(config: &RunConfig, checks: &mut Checks) -> Result<Metrics, String> {
    let start = Instant::now();
    let id = config.workload.id;
    let seed = config.seed;
    let mut m = Metrics::default();
    let mut off = Tracer::off();
    // Generated before any set-up clock starts.
    let text = id.design().firrtl();
    let plan = plan(id);
    let at = |share: f64| start + Duration::from_secs_f64(share * config.seconds);
    let [loaded_s, scalar_s] = plan.phases.map(|share| share * config.seconds);
    let mut setups = Setups::new(id);
    match id {
        WorkloadId::Rv32iSteady | WorkloadId::ChipStim => {
            let once = || engine::setup_once(&text, &mut Tracer::off());
            setups.repeat(0.5, at(plan.setups_before), || once().map(|(_, s)| s))?;
            let (compiled, s) = once()?;
            setups.times_s.push(s);
            let limit = after(loaded_s);
            let run = engine::engine_phases(id.design(), &compiled, seed, limit, &mut off, checks);
            engine_metrics(&run, &mut m);
            drop(compiled);
            m.exact("peak_rss_mb", peak_rss_mb());
            setups.repeat(1.0, at(plan.setups_after), || once().map(|(_, s)| s))?;
            engine_series(config, &run, &setups.times_s);
        }
        WorkloadId::SvcClosed => {
            let (addr, compiled, s) = service::setup_socket(&text, &mut off)?;
            setups.times_s.push(s);
            let (mut loaded, mut scalar) = (Vec::new(), Vec::new());
            for _ in 0..ROUNDS {
                let limit = after(scalar_s);
                engine::scalar_jobs_phase(&compiled, seed, limit, &mut scalar, &mut off, checks);
                let (first, limit) = (loaded.len() as u64, after(loaded_s));
                let shape = ClosedShape::LOADED;
                loaded.extend(service::closed_phase(
                    addr, seed, shape, first, limit, &mut off, checks,
                ));
            }
            service_metrics(&loaded, &scalar, &mut m);
            m.exact("peak_rss_mb", peak_rss_mb());
            setups.repeat(1.0, at(plan.setups_after), || {
                service::setup_socket(&text, &mut Tracer::off()).map(|(_, _, s)| s)
            })?;
            service_series(config, &loaded, &scalar, &setups.times_s);
        }
    }
    m.set("setup_s", setups.estimate());
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::OpenShape;

    /// A seed never used while the harness was written: every operation
    /// of every workload must check out against its golden model.
    #[test]
    fn a_held_back_seed_is_correct_on_every_workload() {
        const HELD_BACK: u64 = 0x0dd_ba11_5eed;
        let mut off = Tracer::off();
        let mut checks = Checks::default();
        for design in [Design::Rv32i, Design::Chip] {
            let (compiled, _) = engine::setup_once(&design.firrtl(), &mut off).expect("sets up");
            let two = Limit::segments(2);
            let run =
                engine::engine_phases(design, &compiled, HELD_BACK, two, &mut off, &mut checks);
            assert_eq!(run.batch.len(), 2);
            assert!(run.scalar.len() >= 4);
            let mut m = Metrics::default();
            engine_metrics(&run, &mut m);
            assert!(m.value("lane_cycles_per_s") > 0.0 && m.value("scalar_cycles_per_s") > 0.0);
        }
        let text = Design::Rv32i.firrtl();
        let (addr, compiled, _) = service::setup_socket(&text, &mut off).expect("serves");
        let two = Limit::segments(2);
        let loaded = service::closed_phase(
            addr,
            HELD_BACK,
            ClosedShape::LOADED,
            0,
            two,
            &mut off,
            &mut checks,
        );
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].jobs, ClosedShape::LOADED.jobs_per_seg as u64);
        let mut scalar = Vec::new();
        engine::scalar_jobs_phase(
            &compiled,
            HELD_BACK,
            two,
            &mut scalar,
            &mut off,
            &mut checks,
        );
        let (pool, _, _) = service::setup_pool(&text, &mut off).expect("pools");
        let open = service::open_phase(
            &pool,
            HELD_BACK,
            OpenShape::LIGHT,
            0,
            two,
            &mut off,
            &mut checks,
        );
        pool.shutdown();
        assert_eq!(
            open.iter().map(|s| s.jobs).sum::<u64>(),
            2 * OpenShape::LIGHT.arrivals as u64
        );
        let mut m = Metrics::default();
        service_metrics(&loaded, &scalar, &mut m);
        assert!(m.value("job_cpu_us") > 0.0 && m.value("scalar_cycles_per_s") > 0.0);
        assert!(checks.attempted > 2000, "{}", checks.attempted);
        assert_eq!(checks.failed, 0, "{:?}", checks.errors);
    }

    #[test]
    fn set_ups_stop_at_their_deadline_or_count_but_three_are_made() {
        let mut setups = Setups::new(WorkloadId::Rv32iSteady);
        let soon = Instant::now() + Duration::from_secs(10);
        // Instant set-ups: the share of `max` ends it.
        setups.repeat(0.1, soon, || Ok(3.0)).expect("runs");
        assert_eq!(setups.times_s.len(), 40);
        setups.repeat(0.1, soon, || Ok(1.0)).expect("runs");
        assert_eq!(setups.times_s.len(), 40);
        // Ten of the 40 lie beyond the estimate.
        assert_eq!((setups.estimate().n, setups.estimate().value), (40, 3.0));
        // A deadline already past: three all the same.
        let mut late = Setups::new(WorkloadId::SvcClosed);
        late.repeat(1.0, Instant::now(), || Ok(2.0)).expect("runs");
        assert_eq!((late.times_s.len(), late.estimate().median), (3, 2.0));
        assert!(late.repeat(1.0, soon, || Err("boom".to_string())).is_err());
    }
}
