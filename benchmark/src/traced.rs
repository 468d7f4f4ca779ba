//! The traced run: the workload again with spans recorded around every
//! call into a layer, then the layer probes. It prints every per-layer
//! metric, a per-name aggregate of the spans, and writes a span dump.
//! End-to-end values never come from here.

use crate::engine::{self, Checks, Design, Limit};
use crate::probes::{self, Effort};
use crate::report::{self, Metrics, RunConfig};
use crate::service::{self, ClosedShape, OpenShape, SvcSeg, Window};
use crate::spec::WorkloadId;
use crate::stats::Better;
use crate::trace::{self, Span, Tracer, DUMP_CAP};
use crate::workloads::{self, quiet_of, windows};
use rteaal_serve::ServerPool;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Instant;

/// Segments of the workload's own traced (and untraced twin) block.
fn own_segments(quick: bool) -> usize {
    if quick {
        4
    } else {
        50
    }
}

/// Both open-loop rates over one pool.
fn open_blocks(
    pool: &ServerPool,
    seed: u64,
    segments: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (Vec<SvcSeg>, Vec<SvcSeg>) {
    let limit = Limit::segments(segments);
    let loaded = service::open_phase(pool, seed, OpenShape::LOADED, 0, limit, tracer, checks);
    let light = service::open_phase(pool, seed, OpenShape::LIGHT, 0, limit, tracer, checks);
    (loaded, light)
}

/// The loaded closed loop against one server.
fn closed_block(
    addr: SocketAddr,
    seed: u64,
    segments: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Vec<SvcSeg> {
    let limit = Limit::segments(segments);
    service::closed_phase(addr, seed, ClosedShape::LOADED, 0, limit, tracer, checks)
}

/// The gated cost of a block of segments: the program's CPU per job.
fn job_cpu_us(segs: &[SvcSeg]) -> f64 {
    quiet_of(&windows(segs), Window::job_cpu_us, Better::Lower).value
}

/// Prints the per-name aggregate and writes the dump (at most
/// [`DUMP_CAP`] spans) to `benchmark/out/<workload>.spans.json`.
fn publish_spans(workload: &str, threads: &[Vec<Span>]) {
    let totals = trace::aggregate(threads);
    let mut json = String::from("{\"aggregate\": [");
    println!("# spans by name: calls, total ms, self ms (duration minus what child spans cover)");
    for (i, (name, t)) in totals.iter().enumerate() {
        println!(
            "# span {name:<28} calls={:<8} total_ms={:<12.3} self_ms={:.3}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{{\"name\": \"{name}\", \"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            t.calls, t.total_ns, t.self_ns
        );
    }
    json.push_str("], \"spans\": [");
    let mut written = 0;
    'dump: for (thread, spans) in threads.iter().enumerate() {
        for s in spans {
            if written == DUMP_CAP {
                break 'dump;
            }
            let sep = if written == 0 { "" } else { ", " };
            let parent = if s.parent == trace::NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                json,
                "{sep}{{\"name\": \"{}\", \"thread\": {thread}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
            written += 1;
        }
    }
    let total: usize = threads.iter().map(Vec::len).sum();
    let _ = writeln!(json, "], \"spans_recorded\": {total}}}");
    report::write_out(&format!("{workload}.spans.json"), &json);
}

/// The traced run: every per-layer metric of the contract.
pub fn run_traced(config: &RunConfig, checks: &mut Checks) -> Result<Metrics, String> {
    let id = config.workload.id;
    let (seed, quick) = (config.seed, config.quick);
    let design = id.design();
    let effort = Effort::new(config.seconds, quick);
    let own = own_segments(quick);
    let mut m = Metrics::default();
    let mut tracer = Tracer::on(Instant::now());
    let mut off = Tracer::off();

    // The workload's own set-up, traced; then the service stack the
    // service-layer probes need on every workload.
    let text = design.firrtl();
    let core_text = Design::Rv32i.firrtl();
    let (engine_compiled, _) = engine::setup_once(&text, &mut tracer)?;
    let (addr, core, _) = service::setup_socket(&core_text, &mut tracer)?;
    let (pool, _, _) = service::setup_pool(&core_text, &mut tracer)?;

    // The workload's own block twice, spans off then on; the other
    // phases' blocks short and untraced.
    let short = effort.segments;
    let overhead;
    let (sim_cycles, digest);
    let closed_loaded;
    match id {
        WorkloadId::Rv32iSteady | WorkloadId::ChipStim => {
            let block = |tracer: &mut Tracer, checks: &mut Checks| {
                let limit = Limit::segments(own);
                engine::engine_phases(design, &engine_compiled, seed, limit, tracer, checks)
            };
            let plain = block(&mut off, checks);
            let traced = block(&mut tracer, checks);
            let rate = |run: &engine::EngineRun| {
                let mut m = Metrics::default();
                workloads::engine_metrics(run, &mut m);
                m.value("lane_cycles_per_s")
            };
            overhead = 1.0 - rate(&traced) / rate(&plain);
            let (cycles, d) = engine::simulated_stats(&traced.batch);
            let scalar: u64 = traced.scalar.iter().map(|s| s.cycles).sum();
            (sim_cycles, digest) = (cycles + scalar, d);
            closed_loaded = closed_block(addr, seed, short, &mut off, checks);
        }
        WorkloadId::SvcClosed => {
            let plain = closed_block(addr, seed, own, &mut off, checks);
            let traced = closed_block(addr, seed, own, &mut tracer, checks);
            overhead = job_cpu_us(&traced) / job_cpu_us(&plain) - 1.0;
            (sim_cycles, digest) = service::simulated_stats(&traced);
            // The wall-clock numbers of the probes come from the block
            // with spans off.
            closed_loaded = plain;
        }
    }
    let (open_loaded, open_light) = open_blocks(&pool, seed, short, &mut off, checks);
    m.exact("trace.overhead_frac", overhead);
    m.exact("core.sim_cycles", sim_cycles as f64);
    m.exact("core.state_digest", digest as f64);
    publish_spans(config.workload.name, &[tracer.into_spans()]);

    // Layer probes: engine layers on the workload's design, service
    // layers on the shared core.
    probes::engine_layers(design, &text, config.seconds, quick, &mut m)?;
    let sched = probes::scheduler(&core, seed, effort, &mut m, checks)?;
    let pool_cost = probes::pool(&pool, seed, effort, &sched, &mut m, checks);
    probes::wire(addr, &closed_loaded, &sched, &pool_cost, effort, &mut m)?;
    probes::router(addr, seed, effort, &mut m, checks)?;
    probes::open_loop(
        &pool,
        &open_light,
        &open_loaded,
        1e6 / pool_cost.us_per_job,
        seed,
        &mut m,
        checks,
    );
    pool.shutdown();
    Ok(m)
}
