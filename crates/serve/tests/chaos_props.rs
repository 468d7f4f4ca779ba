//! Fault-injection property test of the shard router: a 3-shard
//! loopback fleet where one shard is flaky (randomized response delays
//! and connection drops behind a [`ChaosShard`] proxy) and one is
//! doomed (killed mid-corpus, by plan or by an explicit mid-drain
//! `kill()`, dying mid-line when it goes). The property: **every
//! submitted job completes exactly once and bit-identical to a scalar
//! [`Simulation`] run** despite the chaos, with no job stranded on a
//! dead shard — the router's probe/resubmission machinery must be
//! invisible in the merged result stream.

use proptest::prelude::*;
use rteaal_core::{Compiled, Compiler, DebugModule, Simulation};
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{
    ChaosPlan, ChaosShard, RouterError, ServeConfig, ServerPool, ShardConfig, ShardRouter,
    SocketServer,
};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::Duration;

const PROBES: [&str; 2] = ["a0", "pc_out"];

/// The one corpus circuit, compiled once for the whole test binary.
fn compiled() -> &'static Compiled {
    static COMPILED: OnceLock<Compiled> = OnceLock::new();
    COMPILED.get_or_init(|| {
        Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile(&Workload::param_sum_circuit())
            .expect("rv32i compiles")
    })
}

/// Boots one real socket server over the corpus design and returns its
/// loopback address.
fn spawn_server() -> SocketAddr {
    let mut cfg = ServeConfig::with_workers(2);
    cfg.lanes = 4;
    let pool = ServerPool::new(compiled(), cfg, "halt").expect("halt resolves");
    SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns")
}

/// A param-sum job for loop bound `k`.
fn job_for(k: u64) -> Job {
    let mut job = Job::new(format!("sum-{k}"), Workload::param_sum_budget(k));
    job.state_pokes = vec![("x15".to_string(), k)];
    job.probes = PROBES.iter().map(|p| (*p).to_string()).collect();
    job
}

/// Scalar reference for loop bound `k`: probe values at halt plus the
/// completion cycle.
fn scalar_reference(k: u64) -> (Vec<(String, u64)>, u64) {
    let mut sim = Simulation::new(compiled().clone());
    DebugModule::new(&mut sim)
        .poke_reg("x15", k)
        .expect("x15 probed");
    while sim.peek("halt") != Some(1) {
        sim.step();
    }
    let outputs = PROBES
        .iter()
        .map(|p| ((*p).to_string(), sim.peek(p).expect("probed")))
        .collect();
    (outputs, sim.cycle())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn every_job_completes_exactly_once_and_bit_exact_despite_chaos(
        jobs in 9usize..16,
        corpus_seed in any::<u64>(),
        delay_us in prop::sample::select(vec![0u64, 300, 1500]),
        drop_every in prop::sample::select(vec![2u64, 3, 5]),
        kill_margin in 1u64..8,
    ) {
        // Shard 0 is healthy and immortal; shard 1 is flaky; shard 2 is
        // doomed to die mid-corpus (and dies *mid-line*).
        let healthy = spawn_server();
        let flaky = ChaosShard::spawn(
            spawn_server(),
            ChaosPlan {
                response_delay: Duration::from_micros(delay_us),
                drop_every: Some(drop_every),
                ..ChaosPlan::default()
            },
        )
        .expect("flaky proxy spawns");
        let doomed = ChaosShard::spawn(
            spawn_server(),
            ChaosPlan {
                kill_after: Some(jobs as u64 / 2 + kill_margin),
                truncate_on_kill: true,
                ..ChaosPlan::default()
            },
        )
        .expect("doomed proxy spawns");

        let addrs = vec![healthy, flaky.addr(), doomed.addr()];
        let config = ShardConfig {
            read_timeout: Duration::from_secs(20),
            ..ShardConfig::default()
        };
        let mut router = ShardRouter::connect(&addrs, config).expect("fleet connects");

        let ks = Workload::corpus_params(jobs, corpus_seed);
        let mut id_to_k: HashMap<u64, u64> = HashMap::new();
        for &k in &ks {
            let id = router.submit(job_for(k)).expect("fleet takes the job");
            id_to_k.insert(id, k);
        }

        // Drain a third of the corpus, then force the doomed shard down
        // if its plan hasn't already tripped — the kill must land *mid*
        // corpus either way.
        let mut results = Vec::new();
        for _ in 0..jobs / 3 {
            results.push(router.next_result().expect("stream survives chaos"));
            // The accounting identity must close at *every* snapshot,
            // not just at shutdown — mid-chaos included.
            prop_assert!(
                router.accounting_balanced(),
                "router accounting leaked mid-drain"
            );
        }
        doomed.kill();
        results.extend(router.drain().expect("drain survives chaos"));
        prop_assert!(router.accounting_balanced());
        // A death is an event, not a deadline: the drain noticed the kill
        // only if it still had a job on the doomed shard. One health
        // probe makes the router touch it — one fault takes it down.
        router.poll_health().expect("the healthy shard holds the fleet up");

        // Exactly once: every submitted id appears exactly one time.
        prop_assert_eq!(results.len(), jobs);
        let mut seen: HashSet<u64> = HashSet::new();
        for routed in &results {
            prop_assert!(seen.insert(routed.id), "job {} delivered twice", routed.id);
            prop_assert!(id_to_k.contains_key(&routed.id), "unknown id {}", routed.id);
        }

        // Bit-exact: outputs and completion cycle match a dedicated
        // scalar run of the same testbench.
        let mut reference: HashMap<u64, (Vec<(String, u64)>, u64)> = HashMap::new();
        for routed in &results {
            let k = id_to_k[&routed.id];
            let (outputs, cycles) =
                reference.entry(k).or_insert_with(|| scalar_reference(k));
            prop_assert!(routed.result.completed(), "k={k} completed");
            for (name, value) in outputs.iter() {
                prop_assert_eq!(
                    routed.result.output(name),
                    Some(*value),
                    "k={} signal {}", k, name
                );
            }
            prop_assert_eq!(routed.result.cycles, *cycles, "k={} cycles", k);
        }

        // Accounting closes: nothing in flight, nothing stranded, and
        // the doomed shard's loss shows up as death + resubmission.
        let stats = router.stats();
        prop_assert_eq!(stats.delivered, jobs as u64);
        prop_assert_eq!(router.pending(), 0);
        prop_assert!(
            stats.per_shard.iter().all(|s| s.in_flight == 0),
            "{:?}", stats.per_shard
        );
        prop_assert!(doomed.is_killed());
        prop_assert!(stats.shard_deaths >= 1, "the doomed shard must register as dead");
        prop_assert!(
            stats.per_shard.iter().any(|s| !s.live),
            "{:?}", stats.per_shard
        );

        // The stats struct is a view over the metrics registry: the
        // registry snapshot must agree counter for counter.
        let snap = router.metrics().snapshot();
        let fleet = router.stats();
        prop_assert_eq!(snap.counter("router.submitted"), fleet.submitted);
        prop_assert_eq!(snap.counter("router.delivered"), fleet.delivered);
        prop_assert_eq!(snap.counter("router.resubmitted"), fleet.resubmitted);
        prop_assert_eq!(snap.counter("router.shard_deaths"), fleet.shard_deaths);
        prop_assert_eq!(snap.counter("router.rejoins"), fleet.rejoins);
        // With no job lost, every placement is a first dispatch or a
        // resubmission.
        prop_assert_eq!(
            fleet.per_shard.iter().map(|s| s.dispatched).sum::<u64>(),
            fleet.submitted + fleet.resubmitted,
            "{:?}", fleet
        );
        prop_assert_eq!(
            snap.histogram("router.delivery_latency_us")
                .map_or(0, |h| h.hist.count),
            fleet.delivered,
            "every delivery was timed"
        );
        // Router-side timelines: each delivered job has a Submitted and
        // a Delivered breadcrumb (the ring retains this corpus whole).
        for routed in &results {
            let timeline = router.metrics().timeline(routed.id);
            let stages: Vec<_> = timeline.iter().map(|e| e.stage).collect();
            prop_assert_eq!(
                stages,
                vec![
                    rteaal_telemetry::JobStage::Submitted,
                    rteaal_telemetry::JobStage::Delivered
                ],
                "job {}", routed.id
            );
            prop_assert_eq!(
                timeline[1].shard,
                Some(routed.shard as u64),
                "delivery attributes its shard"
            );
        }
    }
}

#[test]
fn exhausted_fleet_reports_no_live_shards_instead_of_hanging() {
    // Regression: with jobs pending and every shard dead, next_result
    // used to sleep-spin forever (the empty ring made each sweep a
    // no-op). It must report NoLiveShards — on the call that kills the
    // last shard *and* on every call after it.
    let chaos =
        ChaosShard::spawn(spawn_server(), ChaosPlan::default()).expect("chaos proxy spawns");
    let config = ShardConfig {
        read_timeout: Duration::from_secs(2),
        ..ShardConfig::default()
    };
    let mut router = ShardRouter::connect(&[chaos.addr()], config).expect("fleet connects");
    router.submit(job_for(30)).expect("fleet takes the job");
    chaos.kill();
    match router.next_result() {
        Err(RouterError::NoLiveShards { stranded }) => assert_eq!(stranded, 1),
        other => panic!("expected NoLiveShards, got {other:?}"),
    }
    // The stranded job stays on the books and the condition keeps being
    // reported immediately.
    assert_eq!(router.pending(), 1);
    assert_eq!(router.live_shards(), 0);
    match router.next_result() {
        Err(RouterError::NoLiveShards { stranded }) => assert_eq!(stranded, 1),
        other => panic!("expected NoLiveShards again, got {other:?}"),
    }
}

#[test]
fn a_job_that_exhausts_its_placements_is_abandoned_not_stranded() {
    // Regression: a job hitting max_attempts used to stay in `pending`
    // while belonging to no shard's in-flight list, so drain() (and
    // every next_result) waited on a ghost forever. It must be removed
    // from the books when JobLost is reported.
    // Every connection answers exactly one exchange: the probe's `ping`
    // passes, so the shard rejoins, and every `submit` dies — the host
    // that would cycle a job forever without the placement budget.
    let plan = ChaosPlan {
        drop_every: Some(1),
        ..ChaosPlan::default()
    };
    let chaos = ChaosShard::spawn(spawn_server(), plan).expect("chaos proxy spawns");
    let config = ShardConfig {
        max_attempts: 3,
        read_timeout: Duration::from_secs(2),
    };
    let mut router = ShardRouter::connect(&[chaos.addr()], config).expect("fleet connects");
    // Spend the first connection's one exchange.
    router.poll_health().expect("the first exchange answers");
    match router.submit(job_for(5)) {
        Err(RouterError::JobLost { attempts, .. }) => assert_eq!(attempts, 4),
        other => panic!("expected JobLost, got {other:?}"),
    }
    assert_eq!(router.pending(), 0, "the abandoned job left the books");
    match router.next_result() {
        Err(RouterError::Idle) => {}
        other => panic!("expected Idle, got {other:?}"),
    }
}
