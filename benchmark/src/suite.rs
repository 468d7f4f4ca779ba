//! `rteaal-benchmark suite`: every workload untraced then traced,
//! one process per run (peak memory is per process), each result checked
//! against `BENCHMARK.json` as it is on disk. `--aa` does it twice on
//! the same seed and compares the two sets.

use crate::spec;
use crate::stats::Better;
use crate::{report, Args};
use serde::Content;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// Per-layer metrics that must repeat exactly for a given seed.
const EXACT: [&str; 16] = [
    "firrtl.src_bytes",
    "tensor.oim_json_bytes",
    "dfg.plan_ops",
    "dfg.plan_layers",
    "dfg.plan_slots",
    "dfg.spec_ops_changed",
    "dfg.spec_rows_packed",
    "dfg.part2_replication",
    "sched.cycles",
    "sched.busy_lane_cycles",
    "sched.admitted",
    "sched.evicted",
    "sched.rejected",
    "serve.wire.bytes_per_job",
    "core.sim_cycles",
    "core.state_digest",
];

/// Any JSON value, as the vendored `serde` parses it.
struct Json(Content);

impl serde::Deserialize for Json {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        Ok(Json(content.clone()))
    }
}

fn number(c: &Content) -> Option<f64> {
    match c {
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        Content::F64(v) => Some(*v),
        _ => None,
    }
}

fn text(c: &Content) -> Option<&str> {
    match c {
        Content::Str(s) => Some(s),
        _ => None,
    }
}

/// Name → unit of one section of `BENCHMARK.json`.
fn section(doc: &Content, key: &str) -> Result<BTreeMap<String, String>, String> {
    let items = doc
        .field(key)
        .and_then(Content::seq)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    items
        .iter()
        .map(|item| {
            let name = item.field("name").and_then(text);
            let unit = item.field("unit").and_then(text);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!(
                    "BENCHMARK.json `{key}` entry without name and unit"
                )),
            }
        })
        .collect()
}

fn benchmark_json() -> Result<Content, String> {
    let candidates = [
        "BENCHMARK.json".to_string(),
        concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_string(),
    ];
    let raw = candidates
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found")?;
    serde_json::from_str::<Json>(&raw)
        .map(|j| j.0)
        .map_err(|e| format!("BENCHMARK.json does not parse: {e}"))
}

/// One run's result line, parsed.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

/// Runs one workload in a child process and checks its last line against
/// the contract: exactly the four keys, `correct`, every metric of the
/// mode present under its unit with a well-formed name, nothing extra.
fn run_child(
    workload: &str,
    seed: u64,
    trace: bool,
    quick: bool,
    wanted: &BTreeMap<String, String>,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    } else {
        cmd.args(["--seconds", &spec::RUN_SECONDS.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("spawn failed: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let what = format!("{workload} trace={}", u8::from(trace));
    if !out.status.success() {
        return Err(format!(
            "{what}: exit {:?}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = stdout.lines().last().ok_or(format!("{what}: no output"))?;
    let doc = serde_json::from_str::<Json>(last)
        .map_err(|e| format!("{what}: last line is not JSON: {e}"))?
        .0;
    let Content::Map(entries) = &doc else {
        return Err(format!("{what}: last line is not an object"));
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("{what}: keys {keys:?}"));
    }
    let count = |key: &str| match doc.field(key) {
        Some(Content::U64(v)) => Ok(*v),
        other => Err(format!("{what}: `{key}` is {other:?}")),
    };
    let Some(Content::Map(metrics)) = doc.field("metrics") else {
        return Err(format!("{what}: `metrics` is not an object"));
    };
    let mut values = BTreeMap::new();
    for (name, entry) in metrics {
        if !spec::well_formed(name) {
            return Err(format!("{what}: malformed metric name `{name}`"));
        }
        let unit = entry.field("unit").and_then(text);
        match wanted.get(name) {
            None => return Err(format!("{what}: `{name}` is not in BENCHMARK.json")),
            Some(u) if Some(u.as_str()) != unit => {
                return Err(format!("{what}: `{name}` has unit {unit:?}, not {u}"))
            }
            Some(_) => {}
        }
        let value = entry
            .field("value")
            .and_then(number)
            .ok_or_else(|| format!("{what}: `{name}` has no numeric value"))?;
        values.insert(name.clone(), value);
    }
    if let Some(missing) = wanted.keys().find(|n| !values.contains_key(*n)) {
        return Err(format!("{what}: `{missing}` is missing"));
    }
    let result = RunResult {
        correct: doc.field("correct") == Some(&Content::Bool(true)),
        attempted: count("attempted")?,
        failed: count("failed")?,
        values,
    };
    println!(
        "ok  {what:<24} correct={} attempted={} failed={} metrics={}",
        result.correct,
        result.attempted,
        result.failed,
        result.values.len()
    );
    if !result.correct || result.failed > 0 || result.attempted == 0 {
        return Err(format!("{what}: incorrect result"));
    }
    Ok(result)
}

type SuiteResults = BTreeMap<(String, bool), RunResult>;

fn run_all(seed: u64, quick: bool, doc: &Content) -> Result<SuiteResults, String> {
    let end_to_end = section(doc, "end_to_end")?;
    let per_layer = section(doc, "per_layer")?;
    let workloads = doc
        .field("workloads")
        .and_then(Content::seq)
        .ok_or("BENCHMARK.json has no `workloads` list")?;
    let mut results = BTreeMap::new();
    for trace in [false, true] {
        for w in workloads {
            let name = w
                .field("name")
                .and_then(text)
                .ok_or("workload without a name")?;
            let wanted = if trace { &per_layer } else { &end_to_end };
            let r = run_child(name, seed, trace, quick, wanted)?;
            results.insert((name.to_string(), trace), r);
        }
    }
    Ok(results)
}

/// Compares two sets of runs of one commit and seed. Returns whether
/// every gated metric agreed within its bound and every exact count was
/// identical, and the observed differences as JSON.
fn compare(a: &SuiteResults, b: &SuiteResults) -> (bool, String) {
    let mut agree = true;
    let mut json = String::from("[");
    println!("\nA/A: second set against the first, same commit and seed");
    for ((workload, trace), first) in a {
        let second = &b[&(workload.clone(), *trace)];
        for (name, &x) in &first.values {
            let y = second.values[name];
            if let Some(m) = spec::end_to_end(name) {
                // Positive = the second run is worse.
                let worse = match m.better {
                    Better::Higher => (x - y) / x,
                    Better::Lower => (y - x) / x,
                };
                let ok = worse.abs() <= m.bound;
                agree &= ok;
                println!(
                    "{} {workload:<13} {name:<26} {x:>16.4} {y:>16.4} {:>+7.2} % of bound {:>4.0} %",
                    if ok { "ok  " } else { "FAIL" },
                    worse * 100.0,
                    m.bound * 100.0
                );
                let sep = if json.len() == 1 { "" } else { ", " };
                let _ = write!(
                    json,
                    "{sep}{{\"workload\": \"{workload}\", \"metric\": \"{name}\", \"first\": {x:?}, \"second\": {y:?}, \"worse_frac\": {worse:?}, \"bound\": {}}}",
                    m.bound
                );
            } else if EXACT.contains(&name.as_str()) && x != y {
                agree = false;
                println!("FAIL {workload:<13} {name:<26} {x} != {y} (must repeat exactly)");
            }
        }
    }
    json.push_str("]\n");
    (agree, json)
}

pub fn run(args: &Args) -> Result<i32, String> {
    let seed = args.seed.unwrap_or(1);
    let doc = benchmark_json()?;
    println!(
        "suite seed={seed} quick={} aa={} cpus={} commit={}",
        args.quick,
        args.aa,
        report::cpus(),
        report::commit()
    );
    let first = run_all(seed, args.quick, &doc)?;
    if !args.aa {
        return Ok(0);
    }
    let second = run_all(seed, args.quick, &doc)?;
    let (agree, json) = compare(&first, &second);
    report::write_out("aa.json", &json);
    Ok(i32::from(!agree))
}
