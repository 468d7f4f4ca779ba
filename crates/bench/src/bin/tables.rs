//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p rteaal-bench --release --bin tables -- all
//! cargo run -p rteaal-bench --release --bin tables -- table5 fig16
//! cargo run -p rteaal-bench --release --bin tables -- all --full
//! ```

use rteaal_bench::{run_experiment, Ctx, ALL_EXPERIMENTS};

// Peak-memory numbers in Figures 8/15 and Table 7 are *measured* through
// this counting allocator.
#[global_allocator]
static ALLOC: rteaal_perfmodel::memtrack::CountingAlloc = rteaal_perfmodel::memtrack::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden mode: the `fleet` experiment re-launches this binary as
    // real serve processes for its loopback fleet.
    if args.first().map(String::as_str) == Some("shard-server") {
        rteaal_bench::experiments::shard_server_process();
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let ctx = if full { Ctx::full() } else { Ctx::quick() };
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let ids: Vec<&str> = if ids.is_empty() || ids.contains(&"all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        ids
    };
    // Every id is checked before the first experiment runs: a typo at
    // the end of the list must not cost the minutes before it.
    if let Some(id) = ids.iter().find(|id| !ALL_EXPERIMENTS.contains(id)) {
        eprintln!("unknown experiment `{id}`; known: {ALL_EXPERIMENTS:?}");
        std::process::exit(2);
    }
    for id in ids {
        let rows = run_experiment(id, &ctx).expect("every listed id is dispatched");
        for row in rows {
            println!("{row}");
        }
        println!();
    }
}
