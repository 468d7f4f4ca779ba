//! The contract: workload names, metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repo root is generated from these
//! tables (`rteaal-benchmark spec`) and a unit test keeps the two equal.

use crate::stats::Better::{self, Higher, Lower};

/// The program and arguments `BENCHMARK.json` names; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["benchmark"];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    Rv32iSteady,
    ChipStim,
    SvcClosed,
}

#[derive(Debug)]
pub struct WorkloadSpec {
    pub id: WorkloadId,
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        id: WorkloadId::Rv32iSteady,
        name: "rv32i_steady",
        why: "small L2-resident core, 64 lanes live to the last cycle: per-op dispatch and walk overhead dominate; firrtl, sched and serve do nothing",
    },
    WorkloadSpec {
        id: WorkloadId::ChipStim,
        name: "chip_stim",
        why: "23k-op design, state 3x the L2, every input rewritten every cycle: memory-bound, activity gates disarmed, and the only workload whose compile is large enough to move",
    },
    WorkloadSpec {
        id: WorkloadId::SvcClosed,
        name: "svc_closed",
        why: "closed loop over the socket, 1 connection keeping 16 jobs in flight, ~100-cycle jobs: wire codec, thread hand-offs, pool dispatch and recycling dominate, the engine is a minority",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lane_cycles_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.24,
    },
    EndToEnd {
        name: "scalar_cycles_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "job_cpu_us",
        unit: "us",
        better: Lower,
        bound: 0.24,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.2,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate. Counts that must repeat exactly carry the unit
/// `count`; for those and for sizes "better" only names the direction an
/// optimisation would move them.
pub const PER_LAYER: [PerLayer; 91] = [
    // firrtl: text in, flat module out.
    layer("firrtl.parse_s", "s", Lower),
    layer("firrtl.lower_s", "s", Lower),
    layer("firrtl.src_bytes", "count", Lower),
    // dfg / tensor / kernels / core: the rest of set-up.
    layer("dfg.build_s", "s", Lower),
    layer("dfg.optimize_s", "s", Lower),
    layer("dfg.plan_s", "s", Lower),
    layer("dfg.analyze_s", "s", Lower),
    layer("dfg.specialize_s", "s", Lower),
    layer("dfg.partition_s", "s", Lower),
    layer("tensor.oim_build_s", "s", Lower),
    layer("tensor.oim_json_bytes", "count", Lower),
    layer("kernels.scalar_compile_s", "s", Lower),
    layer("kernels.batch_compile_s", "s", Lower),
    layer("core.compile_s", "s", Lower),
    layer("core.compile_residual_frac", "ratio", Lower),
    layer("core.batch_new_s", "s", Lower),
    // Plan shape: explains lane_cycles_per_s as ns per op-lane.
    layer("dfg.plan_ops", "count", Lower),
    layer("dfg.plan_layers", "count", Lower),
    layer("dfg.plan_slots", "count", Lower),
    layer("dfg.spec_ops_changed", "count", Higher),
    layer("dfg.spec_rows_packed", "count", Higher),
    layer("dfg.part2_replication", "ratio", Lower),
    // Batch engine, per tier and per width, live lanes only.
    layer("kernels.step_ns.interpreted", "ns", Lower),
    layer("kernels.step_ns.compiled", "ns", Lower),
    layer("kernels.step_ns.specialized", "ns", Lower),
    layer("kernels.ns_per_op_lane.compiled", "ns", Lower),
    layer("kernels.lane_cycles_per_s.b1", "1/s", Higher),
    layer("kernels.lane_cycles_per_s.b16", "1/s", Higher),
    layer("kernels.lane_cycles_per_s.b64", "1/s", Higher),
    layer("kernels.settled_step_frac.specialized", "ratio", Lower),
    // Scalar kernels and the two baselines.
    layer("kernels.scalar_cycles_per_s.ru", "1/s", Higher),
    layer("kernels.scalar_cycles_per_s.ou", "1/s", Higher),
    layer("kernels.scalar_cycles_per_s.nu", "1/s", Higher),
    layer("kernels.scalar_cycles_per_s.psu", "1/s", Higher),
    layer("kernels.scalar_cycles_per_s.iu", "1/s", Higher),
    layer("kernels.scalar_cycles_per_s.su", "1/s", Higher),
    layer("kernels.scalar_cycles_per_s.ti", "1/s", Higher),
    layer("baselines.verilator_like.cycles_per_s", "1/s", Higher),
    layer("baselines.essent_like.cycles_per_s", "1/s", Higher),
    layer("kernels.psu_vs_verilator_ratio", "ratio", Higher),
    // Front door over the kernel.
    layer("core.front_door_overhead_frac", "ratio", Lower),
    layer("core.poke_ns", "ns", Lower),
    layer("core.recycle_ns", "ns", Lower),
    // Informational on a 2-CPU host.
    layer("kernels.step_profiled_overhead_ratio", "ratio", Lower),
    layer("kernels.threads2_speedup", "ratio", Higher),
    layer("kernels.part2_speedup", "ratio", Higher),
    // Scheduler, driven directly on one thread: counts repeat exactly.
    layer("sched.us_per_job", "us", Lower),
    layer("sched.self_us_per_job", "us", Lower),
    layer("sched.utilization", "ratio", Higher),
    layer("sched.cycles", "count", Lower),
    layer("sched.busy_lane_cycles", "count", Lower),
    layer("sched.admitted", "count", Higher),
    layer("sched.evicted", "count", Lower),
    layer("sched.rejected", "count", Lower),
    // Pool, socket, wire, router.
    layer("serve.pool.us_per_job", "us", Lower),
    layer("serve.pool.self_us_per_job", "us", Lower),
    layer("serve.pool.submit_us", "us", Lower),
    layer("serve.socket.us_per_job", "us", Lower),
    layer("serve.wire.self_us_per_job", "us", Lower),
    layer("serve.wire.codec_us_per_job", "us", Lower),
    layer("serve.wire.bytes_per_job", "count", Lower),
    layer("serve.net.rtt_us", "us", Lower),
    layer("serve.router.us_per_job", "us", Lower),
    layer("serve.router.overhead_us_per_job", "us", Lower),
    // Where a job's latency goes, from the pool's own timeline.
    layer("serve.stage_us.submitted_queued", "us", Lower),
    layer("serve.stage_us.queued_admitted", "us", Lower),
    layer("serve.stage_us.admitted_halted", "us", Lower),
    layer("serve.stage_us.halted_published", "us", Lower),
    layer("serve.stage_us.published_delivered", "us", Lower),
    layer("serve.stage_sum_residual_frac", "ratio", Lower),
    layer("serve.budget_residual_frac", "ratio", Lower),
    // What a caller sees on the wall, tails and overload: reported,
    // never gated.
    layer("serve.closed.jobs_per_s", "1/s", Higher),
    layer("serve.closed.p50_us", "us", Lower),
    layer("serve.closed.p90_us", "us", Lower),
    layer("serve.closed.p99_us", "us", Lower),
    layer("serve.open.p50_us.r4000", "us", Lower),
    layer("serve.open.p50_us.r12000", "us", Lower),
    layer("serve.open.p90_us.r12000", "us", Lower),
    layer("serve.open.p99_us.r4000", "us", Lower),
    layer("serve.open.p99_us.r12000", "us", Lower),
    layer("serve.open.max_outstanding.r12000", "count", Lower),
    layer("serve.open.saturated_seg_frac", "ratio", Lower),
    layer("serve.open.overload_drain_ms", "ms", Lower),
    layer("gen.lateness_p99_us", "us", Lower),
    // Telemetry's own cost.
    layer("telemetry.counter_inc_ns", "ns", Lower),
    layer("telemetry.hist_record_ns", "ns", Lower),
    layer("telemetry.event_record_ns", "ns", Lower),
    layer("telemetry.est_us_per_job", "us", Lower),
    // Simulated statistics: identical across commits, tiers, repeats.
    layer("core.sim_cycles", "count", Lower),
    layer("core.state_digest", "hash", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether a workload or metric name meets the contract: at most 64 of
/// letters, digits, `_`, `.`, `-`, starting with a letter or a digit.
pub fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    fn strings(items: &[&str]) -> String {
        let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        format!("[{}]", quoted.join(", "))
    }
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        // setup_s carries the largest bound, and none exceeds a quarter.
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.name == "setup_s" || m.bound < setup.bound);
        }
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn benchmark_json_in_the_repo_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `rteaal-benchmark spec`"
        );
        assert!(on_disk.len() < 64 * 1024);
    }
}
