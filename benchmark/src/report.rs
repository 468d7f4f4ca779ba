//! What one run prints: every metric by name and unit with the ungated
//! shape beside it, then — as the last line of standard output — the one
//! JSON object the driver reads.

use crate::engine::Checks;
use crate::spec;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// What was asked of this run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static spec::WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fewer repeats and segments, for a smoke run; never a baseline.
    pub quick: bool,
}

/// Metric values by name, filled by a workload and checked against the
/// contract when printed.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Summary>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        let unknown = spec::end_to_end(name).is_none() && spec::per_layer(name).is_none();
        assert!(!unknown, "metric {name} is not in the contract");
        let twice = self.0.insert(name, summary).is_some();
        assert!(!twice, "metric {name} set twice");
    }

    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<Summary> {
        self.0.get(name).copied()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(f64::NAN, |s| s.value)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// The commit of the enclosing git checkout, if there is one (the
/// driver's checkout is not a repository).
pub fn commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        if let Ok(head) = std::fs::read_to_string(d.join(".git/HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            return std::fs::read_to_string(d.join(".git").join(reference))
                .map_or_else(|_| reference.to_string(), |s| s.trim().to_string());
        }
        dir = d.parent().map(PathBuf::from);
    }
    "unknown".to_string()
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `benchmark/out/`, next to this package's manifest when run from a
/// checkout, for the detail and span files.
pub fn out_dir() -> PathBuf {
    let local = PathBuf::from("benchmark");
    if local.join("Cargo.toml").exists() {
        local.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Writes a detail file under [`out_dir`]; a failure is reported on
/// standard error and changes nothing else.
pub fn write_out(name: &str, contents: &str) {
    let dir = out_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("note: could not write {}: {e}", dir.join(name).display());
    }
}

fn json_number(v: f64) -> String {
    // Shortest text that reads back as the same double: all its digits.
    format!("{v:?}")
}

/// Prints the run. Returns the process exit code: 0 for a printed
/// result (correct or not), 2 when the harness could not produce every
/// metric of the contract.
pub fn print(config: &RunConfig, metrics: &Metrics, checks: &Checks) -> i32 {
    let wanted: Vec<(&str, &str)> = if config.trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut broken = Vec::new();
    for (name, _) in &wanted {
        match metrics.get(name) {
            Some(s) if s.value.is_finite() => {}
            Some(_) => broken.push(format!("{name} is not a finite number")),
            None => broken.push(format!("{name} was not measured")),
        }
    }
    for name in metrics.0.keys() {
        if !wanted.iter().any(|(w, _)| w == name) {
            broken.push(format!("{name} does not belong to this mode"));
        }
    }
    for e in &checks.errors {
        eprintln!("failed: {e}");
    }
    if !broken.is_empty() || checks.attempted == 0 {
        for b in &broken {
            eprintln!("harness error: {b}");
        }
        if checks.attempted == 0 {
            eprintln!("harness error: no operation was attempted");
        }
        return 2;
    }
    let commit = commit();
    let header = format!(
        "workload={} seed={} seconds={} trace={} quick={} cpus={} commit={commit}",
        config.workload.name,
        config.seed,
        config.seconds,
        u8::from(config.trace),
        config.quick,
        cpus(),
    );
    println!("# rteaal-benchmark {header}");
    println!(
        "# value is the gated quiet-host estimate; median/q1/q3/n describe its samples, ungated"
    );
    let mut detail = String::new();
    let mut last = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let s = metrics.get(name).expect("checked above");
        println!(
            "{name:<42} {:>16} {unit:<6} median={} q1={} q3={} n={}",
            json_number(s.value),
            json_number(s.median),
            json_number(s.q1),
            json_number(s.q3),
            s.n
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            last,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(s.value)
        );
        let _ = write!(
            detail,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            json_number(s.value),
            json_number(s.median),
            json_number(s.q1),
            json_number(s.q3),
            s.n
        );
    }
    let correct = checks.failed == 0;
    let verdict = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}",
        checks.attempted, checks.failed
    );
    write_out(
        &format!(
            "{}.{}.json",
            config.workload.name,
            if config.trace { "traced" } else { "untraced" }
        ),
        &format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \"cpus\": {}, \"commit\": \"{commit}\", {verdict}, \"metrics\": {{{detail}}}}}\n",
            config.workload.name,
            config.seed,
            config.seconds,
            config.trace,
            config.quick,
            cpus(),
        ),
    );
    println!("{{{verdict}, \"metrics\": {{{last}}}}}");
    0
}
