//! Property test of the elastic-fleet rejoin path: a 3-shard loopback
//! fleet where one shard is killed mid-run and later revived — behind
//! a *fresh, empty* server (the rebooted-host case). The properties:
//!
//! 1. **No placement reaches the down shard.** While the shard is down
//!    its dispatch count stands still and none of the wave's results
//!    comes from it.
//! 2. **Rejoin with registry replay.** The rejoined shard has nothing
//!    in flight and the fewest dispatches, so the first job placed
//!    after the rejoin lands on it. That job targets a design
//!    registered through the router before the outage, which the
//!    revived host never saw: it runs only because the probe loop
//!    replayed the registry before the shard took placements.
//! 3. **Exactly-once bit-exactness.** Every job in every wave
//!    completes exactly once, bit-identical to a scalar
//!    [`Simulation`] run, throughout the kill/revive cycle.
//!
//! A second test pins the one way back on its own: a shard whose host
//! reboots between two exchanges must rejoin through the probe's
//! registry replay, never straight back into placement.

use proptest::prelude::*;
use rteaal_core::{Compiled, Compiler, DebugModule, Simulation};
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{
    ChaosPlan, ChaosShard, Routed, ServeConfig, ServerPool, ShardConfig, ShardRouter, SocketServer,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const PROBES: [&str; 2] = ["a0", "pc_out"];

fn compiled() -> &'static Compiled {
    static COMPILED: OnceLock<Compiled> = OnceLock::new();
    COMPILED.get_or_init(|| {
        Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile(&Workload::param_sum_circuit())
            .expect("rv32i compiles")
    })
}

fn spawn_server() -> SocketAddr {
    let mut cfg = ServeConfig::with_workers(2);
    cfg.lanes = 4;
    let pool = ServerPool::new(compiled(), cfg, "halt").expect("halt resolves");
    SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns")
}

fn job_for(k: u64) -> Job {
    let mut job = Job::new(format!("sum-{k}"), Workload::param_sum_budget(k));
    job.state_pokes = vec![("x15".to_string(), k)];
    job.probes = PROBES.iter().map(|p| (*p).to_string()).collect();
    job
}

/// Per-`k` scalar reference: probed outputs + completion cycle.
type Reference = (Vec<(String, u64)>, u64);

fn scalar_reference(k: u64) -> Reference {
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

/// Asserts one wave's results are exactly-once and bit-exact, caching
/// scalar references by `k`.
fn check_wave(
    results: &[Routed],
    id_to_k: &HashMap<u64, u64>,
    reference: &mut HashMap<u64, Reference>,
) {
    let mut seen = std::collections::HashSet::new();
    for routed in results {
        assert!(seen.insert(routed.id), "job {} delivered twice", routed.id);
        let k = id_to_k[&routed.id];
        let (outputs, cycles) = reference.entry(k).or_insert_with(|| scalar_reference(k));
        assert!(routed.result.completed(), "k={k} completed");
        for (name, value) in outputs.iter() {
            assert_eq!(routed.result.output(name), Some(*value), "k={k} {name}");
        }
        assert_eq!(routed.result.cycles, *cycles, "k={k} cycles");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn kill_revive_skips_the_down_shard_and_replays_the_registry(
        wave in 6usize..10,
        corpus_seed in any::<u64>(),
    ) {
        // Shards 0 and 1 are plain servers; shard 2 sits behind a
        // chaos proxy so it can die and come back.
        let chaos = ChaosShard::spawn(spawn_server(), ChaosPlan::default())
            .expect("chaos proxy spawns");
        let addrs = vec![spawn_server(), spawn_server(), chaos.addr()];
        let config = ShardConfig {
            read_timeout: Duration::from_secs(20),
            ..ShardConfig::default()
        };
        let mut router = ShardRouter::connect(&addrs, config).expect("fleet connects");

        // Register a second design through the router *before* the
        // outage; the revived host must receive it by replay.
        let twin_src = rteaal_firrtl::parser::emit(&Workload::param_sum_circuit());
        router
            .register("twin", &twin_src, "halt")
            .expect("fan-out registers");

        let ks = Workload::corpus_params(3 * wave, corpus_seed);
        let mut id_to_k: HashMap<u64, u64> = HashMap::new();
        let mut reference: HashMap<u64, Reference> = HashMap::new();

        // ---- Wave 1: healthy fleet.
        for &k in &ks[..wave] {
            let id = router.submit(job_for(k)).expect("fleet takes the job");
            id_to_k.insert(id, k);
        }
        let wave1 = router.drain().expect("healthy drain");
        check_wave(&wave1, &id_to_k, &mut reference);
        let before = router.stats().per_shard[2].dispatched;
        prop_assert!(before > 0, "a light healthy load reaches every shard");

        // ---- Wave 2: shard 2 is down. Nothing is placed on it.
        chaos.kill();
        for &k in &ks[wave..2 * wave] {
            let id = router.submit(job_for(k)).expect("degraded fleet takes the job");
            id_to_k.insert(id, k);
        }
        let wave2 = router.drain().expect("degraded drain");
        check_wave(&wave2, &id_to_k, &mut reference);
        for routed in &wave2 {
            prop_assert_ne!(routed.shard, 2, "job {} placed on the down shard", routed.id);
        }
        let mid = router.stats();
        prop_assert!(mid.shard_deaths >= 1, "the outage must register");
        prop_assert!(!mid.per_shard[2].live, "shard 2 must be down");
        prop_assert_eq!(mid.per_shard[2].dispatched, before, "a placement reached the down shard");

        // ---- Revive behind a *fresh* pool: the host rebooted with an
        // empty registry. The probe loop must replay `twin` before the
        // shard takes placements again.
        chaos.retarget(spawn_server());
        chaos.revive();
        let deadline = Instant::now() + Duration::from_secs(30);
        while router.stats().rejoins < 1 {
            prop_assert!(Instant::now() < deadline, "shard 2 never rejoined");
            router.poll_once().expect("idle pump");
            std::thread::sleep(Duration::from_millis(2));
        }

        // ---- Wave 3: full fleet again, every job on the replayed
        // design. The first one lands on the rejoined shard.
        let mut first = None;
        for &k in &ks[2 * wave..] {
            let id = router
                .submit_on(Some("twin"), job_for(k))
                .expect("restored fleet takes the job");
            first.get_or_insert(id);
            id_to_k.insert(id, k);
        }
        let wave3 = router.drain().expect("restored drain");
        check_wave(&wave3, &id_to_k, &mut reference);
        let first = wave3
            .iter()
            .find(|routed| Some(routed.id) == first)
            .expect("the first job is delivered");
        prop_assert_eq!(first.shard, 2, "the first job after the rejoin lands on the rejoiner");

        let end = router.stats();
        prop_assert_eq!(end.delivered, (3 * wave) as u64);
        prop_assert!(end.rejoins >= 1);
        prop_assert!(end.per_shard[2].live);
        prop_assert!(end.per_shard.iter().all(|s| s.in_flight == 0));
        prop_assert_eq!(router.pending(), 0);
    }
}

#[test]
fn a_rebooted_shard_rejoins_only_through_the_registry_replaying_probe() {
    // Regression: a transport fault used to buy the shard one immediate
    // reconnect — a bare TCP connect, no `ping`, no registry replay —
    // so a host that rebooted with an empty registry went straight back
    // into placement and rejected every job on a design registered
    // through the router.
    let chaos =
        ChaosShard::spawn(spawn_server(), ChaosPlan::default()).expect("chaos proxy spawns");
    let config = ShardConfig {
        read_timeout: Duration::from_secs(20),
        ..ShardConfig::default()
    };
    let mut router = ShardRouter::connect(&[chaos.addr()], config).expect("fleet connects");
    let twin_src = rteaal_firrtl::parser::emit(&Workload::param_sum_circuit());
    router
        .register("twin", &twin_src, "halt")
        .expect("fan-out registers");
    let mut id_to_k = HashMap::new();
    let mut reference = HashMap::new();
    let id = router
        .submit_on(Some("twin"), job_for(7))
        .expect("fleet takes the job");
    id_to_k.insert(id, 7);
    let before = router.drain().expect("healthy drain");
    check_wave(&before, &id_to_k, &mut reference);

    // The host reboots behind the same address with an empty registry;
    // the router touches it while it is down.
    chaos.retarget(spawn_server());
    chaos.kill();
    router
        .poll_health()
        .expect("a fault with nothing in flight");
    chaos.revive();

    let id = router
        .submit_on(Some("twin"), job_for(9))
        .expect("the rejoined shard takes the job");
    id_to_k.insert(id, 9);
    let after = router.drain().expect("drain after the reboot");
    assert_eq!(
        after[0].result.outcome, "completed",
        "the job after the reboot ran on a host without `twin`: {:?}",
        after[0].result.error
    );
    check_wave(&after, &id_to_k, &mut reference);

    let stats = router.stats();
    assert_eq!(stats.shard_deaths, 1, "{stats:?}");
    assert_eq!(stats.rejoins, 1, "{stats:?}");
    assert!(stats.per_shard[0].live);
    assert_eq!(router.pending(), 0);
}
