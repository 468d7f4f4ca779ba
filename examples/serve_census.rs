//! Where a served job's time goes: the benchmark's `svc_closed` shape in
//! one process — a socket server over one worker with eight lanes, and
//! one `ServeClient` keeping 16 sum-loop jobs of
//! `Workload::corpus_params` in flight — then the census of the run:
//! socket exchanges per job and results per answer (from the server's
//! `serve.socket.*` counters), and per thread the CPU microseconds and
//! voluntary context switches per job (from
//! `/proc/self/task/*/{schedstat,status}`; Linux only).
//!
//! ```text
//! cargo run --release --example serve_census            # 200 000 jobs
//! cargo run --release --example serve_census -- --quick # 2 000 jobs, a smoke
//! ```

use rteaal_core::Compiler;
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{ServeClient, ServeConfig, ServerPool, SocketServer};
use rteaal_telemetry::MetricsSnapshot;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Jobs the client keeps in flight: twice the pool's lanes.
const IN_FLIGHT: usize = 16;
/// Untimed jobs before the census starts.
const WARM_UP: usize = 1_000;

fn job(k: u64) -> Job {
    Job::new(format!("sum-{k}"), Workload::param_sum_budget(k))
        .with_state_poke("x15", k)
        .with_probe("a0")
}

/// Runs `ks` with [`IN_FLIGHT`] jobs outstanding; checks every result
/// and returns each job's latency in microseconds.
fn closed_loop(
    client: &mut ServeClient,
    ks: &[u64],
) -> Result<Vec<f64>, Box<dyn std::error::Error>> {
    let mut window: HashMap<u64, (u64, Instant)> = HashMap::with_capacity(IN_FLIGHT);
    let mut latencies = Vec::with_capacity(ks.len());
    let mut next = 0;
    while next < ks.len() || !window.is_empty() {
        if next < ks.len() && window.len() < IN_FLIGHT {
            let id = client.submit(&job(ks[next]))?;
            window.insert(id, (ks[next], Instant::now()));
            next += 1;
            continue;
        }
        let r = client.next_result()?;
        let (k, sent) = window.remove(&r.id).ok_or("a result for an unknown job")?;
        latencies.push(sent.elapsed().as_secs_f64() * 1e6);
        assert!(r.completed(), "sum-{k}: {r:?}");
        assert_eq!(
            r.output("a0"),
            Some(Workload::param_sum_expected(k)),
            "sum-{k}"
        );
    }
    Ok(latencies)
}

/// Which part of the program a thread is, by its name.
fn role(tid: u32, name: &str) -> &'static str {
    match name {
        "rteaal-serve-0" => "worker",
        "rteaal-conn" => "connection",
        _ if tid == std::process::id() => "client",
        _ => "other",
    }
}

/// One thread's counters: CPU nanoseconds and voluntary switches.
#[derive(Debug, Clone, Copy, Default)]
struct Usage {
    cpu_ns: u64,
    voluntary: u64,
}

/// Every thread of this process by id, with its role, or `None` where
/// `/proc` does not have them.
fn threads() -> Option<HashMap<u32, (&'static str, Usage)>> {
    let mut out = HashMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path();
        let Some(tid) = path.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
            continue;
        };
        // A thread that exits between the listing and the reads is
        // skipped.
        let (Ok(comm), Ok(schedstat), Ok(status)) = (
            std::fs::read_to_string(path.join("comm")),
            std::fs::read_to_string(path.join("schedstat")),
            std::fs::read_to_string(path.join("status")),
        ) else {
            continue;
        };
        let cpu_ns = schedstat.split_whitespace().next()?.parse().ok()?;
        let voluntary = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
            .trim()
            .parse()
            .ok()?;
        out.insert(tid, (role(tid, comm.trim()), Usage { cpu_ns, voluntary }));
    }
    Some(out)
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name) - before.counter(name)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let jobs = if quick { 2_000 } else { 200_000 };
    let compiled =
        Compiler::new(KernelConfig::new(KernelKind::Psu)).compile(&Workload::param_sum_circuit())?;
    let config = ServeConfig {
        workers: 1,
        lanes: 8,
        ..ServeConfig::default()
    };
    let pool = ServerPool::new(&compiled, config, "halt")?;
    let metrics = Arc::clone(pool.metrics());
    let addr = SocketServer::bind(pool, "127.0.0.1:0")?.spawn()?;
    let mut client = ServeClient::connect(addr)?;
    closed_loop(&mut client, &Workload::corpus_params(WARM_UP, 1))?;

    let (threads0, metrics0) = (threads(), metrics.snapshot());
    let started = Instant::now();
    let mut latencies = closed_loop(&mut client, &Workload::corpus_params(jobs, 7))?;
    let wall = started.elapsed().as_secs_f64();
    let (threads1, metrics1) = (threads(), metrics.snapshot());

    let n = jobs as f64;
    println!(
        "svc_closed in process: 1 worker x 8 lanes, {IN_FLIGHT} jobs in flight, \
         {jobs} jobs in {wall:.2} s ({:.0} jobs/s)",
        n / wall
    );
    let answers = counter_delta(&metrics0, &metrics1, "serve.socket.answers");
    let answered = counter_delta(&metrics0, &metrics1, "serve.socket.results_answered");
    println!(
        "socket: {:.3} exchanges per job ({answers} answers), {:.2} results per answer",
        answers as f64 / n,
        answered as f64 / answers.max(1) as f64
    );
    latencies.sort_by(f64::total_cmp);
    println!(
        "latency: p50 {:.0} us, p99 {:.0} us",
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.99)
    );
    let (Some(threads0), Some(threads1)) = (threads0, threads1) else {
        println!("per-thread census: /proc/self/task is not readable here");
        return Ok(());
    };
    let mut by_role: Vec<(&str, Usage)> = Vec::new();
    for (tid, (role, after)) in &threads1 {
        let before = threads0.get(tid).map(|t| t.1).unwrap_or_default();
        let at = match by_role.iter().position(|(r, _)| r == role) {
            Some(at) => at,
            None => {
                by_role.push((role, Usage::default()));
                by_role.len() - 1
            }
        };
        by_role[at].1.cpu_ns += after.cpu_ns - before.cpu_ns;
        by_role[at].1.voluntary += after.voluntary - before.voluntary;
    }
    by_role.sort_by_key(|(role, _)| {
        ["worker", "connection", "client", "other"]
            .iter()
            .position(|r| r == role)
    });
    println!(
        "{:<12} {:>12} {:>24}",
        "thread", "CPU us/job", "voluntary switches/job"
    );
    let mut total = Usage::default();
    for (role, usage) in &by_role {
        total.cpu_ns += usage.cpu_ns;
        total.voluntary += usage.voluntary;
        println!(
            "{role:<12} {:>12.2} {:>24.3}",
            usage.cpu_ns as f64 / 1e3 / n,
            usage.voluntary as f64 / n
        );
    }
    println!(
        "{:<12} {:>12.2} {:>24.3}",
        "total",
        total.cpu_ns as f64 / 1e3 / n,
        total.voluntary as f64 / n
    );
    Ok(())
}
