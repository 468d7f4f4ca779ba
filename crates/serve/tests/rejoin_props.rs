//! Property test of the elastic-fleet rejoin path: a 3-shard loopback
//! fleet where one shard is killed mid-run and later revived — behind
//! a *fresh, empty* server (the rebooted-host case). The properties:
//!
//! 1. **Ring-math-bounded movement.** While the shard is down, only
//!    the keys the ring assigned to it move, and they move exactly
//!    where a client-side ring without that shard says they should;
//!    every other key keeps its owner.
//! 2. **Restored partition.** After the rejoin, placements match the
//!    original 3-shard ring exactly — the deterministic ring points
//!    give the shard back its old keys and nothing else.
//! 3. **Registry replay.** A design registered through the router
//!    before the outage runs on the rejoined shard even though the
//!    revived host never saw the registration — the probe loop must
//!    have replayed it before routing jobs.
//! 4. **Exactly-once bit-exactness.** Every job in every wave
//!    completes exactly once, bit-identical to a scalar
//!    [`Simulation`] run, throughout the kill/revive cycle.

use proptest::prelude::*;
use rteaal_core::{Compiled, Compiler, DebugModule, Simulation};
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{
    ChaosPlan, ChaosShard, HashRing, Routed, ServeConfig, ServerPool, ShardConfig, ShardPhase,
    ShardRouter, SocketServer, RING_POINTS,
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
    fn kill_revive_moves_only_ring_bounded_keys_and_replays_the_registry(
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
            // Probe fast so the rejoin happens within the test.
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(25),
            ..ShardConfig::default()
        };
        let mut router = ShardRouter::connect(&addrs, config).expect("fleet connects");

        // Client-side oracles: the same deterministic ring math the
        // router uses, with and without shard 2.
        let mut full_ring = HashRing::new(RING_POINTS);
        let mut degraded_ring = HashRing::new(RING_POINTS);
        for s in 0..3 {
            full_ring.add(s);
        }
        for s in 0..2 {
            degraded_ring.add(s);
        }

        // Register a second design through the router *before* the
        // outage; the revived host must receive it by replay.
        let twin_src = rteaal_firrtl::parser::emit(&Workload::param_sum_circuit());
        router
            .register("twin", &twin_src, "halt")
            .expect("fan-out registers");

        let ks = Workload::corpus_params(3 * wave, corpus_seed);
        let mut id_to_k: HashMap<u64, u64> = HashMap::new();
        let mut reference: HashMap<u64, Reference> = HashMap::new();

        // ---- Wave 1: healthy fleet. Placements follow the full ring.
        for &k in &ks[..wave] {
            let id = router.submit(job_for(k)).expect("fleet takes the job");
            id_to_k.insert(id, k);
        }
        let wave1 = router.drain().expect("healthy drain");
        check_wave(&wave1, &id_to_k, &mut reference);
        for routed in &wave1 {
            prop_assert_eq!(
                Some(routed.shard),
                full_ring.shard_for(routed.id),
                "healthy placement must follow the ring"
            );
        }

        // ---- Wave 2: shard 2 is down. Only its keys move, and they
        // move exactly where the degraded ring says.
        chaos.kill();
        for &k in &ks[wave..2 * wave] {
            let id = router.submit(job_for(k)).expect("degraded fleet takes the job");
            id_to_k.insert(id, k);
        }
        let wave2 = router.drain().expect("degraded drain");
        check_wave(&wave2, &id_to_k, &mut reference);
        for routed in &wave2 {
            prop_assert_eq!(
                Some(routed.shard),
                degraded_ring.shard_for(routed.id),
                "degraded placement must follow the 2-shard ring"
            );
            // Keys the dead shard never owned must not move at all.
            if full_ring.shard_for(routed.id) != Some(2) {
                prop_assert_eq!(
                    full_ring.shard_for(routed.id),
                    Some(routed.shard),
                    "key moved without cause"
                );
            } else {
                prop_assert_ne!(routed.shard, 2, "key routed to a dead shard");
            }
        }
        let mid = router.stats();
        prop_assert!(mid.shard_deaths >= 1, "the outage must register");
        prop_assert!(
            matches!(mid.per_shard[2].phase, ShardPhase::Open { .. } | ShardPhase::Dead { .. }),
            "shard 2 must be out of the ring: {:?}",
            mid.per_shard[2].phase
        );

        // ---- Revive behind a *fresh* pool: the host rebooted with an
        // empty registry. The probe loop must replay `twin` before the
        // ring takes the shard back.
        chaos.retarget(spawn_server());
        chaos.revive();
        let deadline = Instant::now() + Duration::from_secs(30);
        while router.stats().rejoins < 1 {
            prop_assert!(Instant::now() < deadline, "shard 2 never rejoined");
            router.poll_once().expect("idle pump");
            std::thread::sleep(Duration::from_millis(2));
        }

        // ---- Wave 3: full fleet again. The original partition is
        // restored exactly, and the replayed design runs on shard 2.
        for &k in &ks[2 * wave..] {
            let id = router
                .submit_on(Some("twin"), job_for(k))
                .expect("restored fleet takes the job");
            id_to_k.insert(id, k);
        }
        let wave3 = router.drain().expect("restored drain");
        check_wave(&wave3, &id_to_k, &mut reference);
        let mut on_rejoined = 0usize;
        for routed in &wave3 {
            prop_assert_eq!(
                Some(routed.shard),
                full_ring.shard_for(routed.id),
                "rejoin must restore the original partition"
            );
            if routed.shard == 2 {
                on_rejoined += 1;
            }
        }
        // The replay property needs at least one `twin` job to land on
        // the rejoined shard. Ids are sequential, so if the wave's keys
        // all hashed elsewhere, keep submitting until one is *ring-
        // guaranteed* to hit shard 2.
        let mut extra = 0usize;
        while on_rejoined == 0 {
            prop_assert!(extra < 64, "no key ever hashes to shard 2");
            let k = ks[extra % ks.len()];
            let id = router
                .submit_on(Some("twin"), job_for(k))
                .expect("restored fleet takes the job");
            id_to_k.insert(id, k);
            extra += 1;
            let tail = router.drain().expect("restored drain");
            check_wave(&tail, &id_to_k, &mut reference);
            for routed in &tail {
                prop_assert_eq!(Some(routed.shard), full_ring.shard_for(routed.id));
                if routed.shard == 2 {
                    on_rejoined += 1;
                }
            }
        }

        let end = router.stats();
        prop_assert_eq!(end.delivered, (3 * wave + extra) as u64);
        prop_assert!(end.rejoins >= 1);
        prop_assert_eq!(end.per_shard[2].phase, ShardPhase::Live);
        prop_assert!(end.per_shard.iter().all(|s| s.in_flight == 0));
        prop_assert_eq!(router.pending(), 0);
    }
}
