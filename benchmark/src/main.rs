//! `rteaal-benchmark`: the repo's benchmark (see `README.md` beside the
//! manifest and `BENCHMARK.json` at the repo root).
//!
//! ```text
//! rteaal-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! rteaal-benchmark suite --seed <n> [--quick] [--aa]
//! rteaal-benchmark spec
//! ```

mod clock;
mod engine;
mod inputs;
mod probes;
mod report;
mod service;
mod spec;
mod stats;
mod suite;
mod trace;
mod traced;
mod workloads;

use report::RunConfig;

const USAGE: &str = "usage:
  rteaal-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  rteaal-benchmark suite --seed <n> [--quick] [--aa]
  rteaal-benchmark spec
workloads: rv32i_steady chip_stim svc_closed";

/// The flags of one invocation, each at most once.
#[derive(Debug, Default)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub quick: bool,
    pub aa: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                out.seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad seconds `{v}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds `{v}` out of range"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace `{v}`")),
                });
            }
            "--quick" => out.quick = true,
            "--aa" => out.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn run_one(args: &Args) -> Result<i32, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let config = RunConfig {
        workload,
        seed: args.seed.ok_or("--seed is required")?,
        seconds: args.seconds.unwrap_or(if args.quick {
            1.0
        } else {
            spec::RUN_SECONDS as f64
        }),
        trace: args.trace.unwrap_or(false),
        quick: args.quick,
    };
    let mut checks = engine::Checks::default();
    let metrics = if config.trace {
        traced::run_traced(&config, &mut checks)?
    } else {
        workloads::run_untraced(&config, &mut checks)?
    };
    Ok(report::print(&config, &metrics, &checks))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(0)
        }
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            Ok(0)
        }
        Some("suite") => parse(&argv[1..]).and_then(|args| suite::run(&args)),
        Some(_) => parse(&argv).and_then(|args| run_one(&args)),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
