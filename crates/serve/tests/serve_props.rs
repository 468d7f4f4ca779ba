//! Property-based end-to-end correctness of the serving pool: N
//! concurrent clients submitting a *shuffled* mixed-length corpus
//! through a [`ServerPool`] must get back, job for job, results
//! bit-identical to dedicated scalar [`Simulation`] runs of the same
//! testbenches — same architectural outputs, same completion cycle —
//! regardless of worker count, lane count, submission interleaving, or
//! which worker's lane a job lands on.

use proptest::prelude::*;
use rteaal_core::{Compiled, Compiler, DebugModule, Simulation};
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{JobHandle, ServeConfig, ServerPool};
use std::collections::HashMap;
use std::sync::OnceLock;

const PROBES: [&str; 3] = ["a0", "pc_out", "halt"];

/// The one corpus circuit, compiled once for the whole test binary
/// (every param-sum job shares it; the loop bound travels in the DMI
/// poke).
fn compiled() -> &'static Compiled {
    static COMPILED: OnceLock<Compiled> = OnceLock::new();
    COMPILED.get_or_init(|| {
        Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile(&Workload::param_sum_circuit())
            .expect("rv32i compiles")
    })
}

/// Scalar reference for loop bound `k`: probe values at halt and the
/// cycle count, memoizable because jobs are fully determined by `k`.
fn scalar_reference(k: u64) -> (Vec<(String, u64)>, u64) {
    let mut sim = Simulation::new(compiled().clone());
    {
        let mut dmi = DebugModule::new(&mut sim);
        dmi.poke_reg("x15", k).expect("x15 is probed");
    }
    for _ in 0..Workload::param_sum_budget(k) {
        sim.step();
        if sim.peek("halt") == Some(1) {
            break;
        }
    }
    assert_eq!(sim.peek("halt"), Some(1), "k={k} halts within budget");
    let outputs = PROBES
        .iter()
        .map(|p| ((*p).to_string(), sim.peek(p).expect("probed")))
        .collect();
    (outputs, sim.cycle())
}

/// A param-sum job for loop bound `k` (what a serving client builds
/// from `Workload::corpus_params` without constructing circuits).
fn job_for(k: u64) -> Job {
    let mut job = Job::new(format!("rv32i-k{k}"), Workload::param_sum_budget(k));
    job.state_pokes = vec![("x15".to_string(), k)];
    job.probes = PROBES.iter().map(|p| (*p).to_string()).collect();
    job
}

/// Deterministically shuffles the corpus (Fisher–Yates over splitmix).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut stream = rteaal_designs::workload::Stimulus::from_seed(seed);
    for i in (1..items.len()).rev() {
        let j = (stream.next_value() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_clients_get_scalar_identical_results(
        workers in prop::sample::select(vec![1usize, 2, 4]),
        clients in 1usize..4,
        jobs_per_client in 1usize..6,
        corpus_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        lanes in 1usize..5,
    ) {
        let total = clients * jobs_per_client;
        let mut ks = Workload::corpus_params(total, corpus_seed);
        shuffle(&mut ks, shuffle_seed);

        let mut cfg = ServeConfig::with_workers(workers);
        cfg.lanes = lanes;
        let pool = ServerPool::new(compiled(), cfg, "halt").expect("halt resolves");

        // Each client thread submits its slice of the shuffled corpus
        // and waits for its own results, concurrently with the others.
        let client_results: Vec<Vec<(u64, rteaal_sched::JobResult)>> =
            std::thread::scope(|scope| {
                let pool = &pool;
                let handles: Vec<_> = ks
                    .chunks(jobs_per_client)
                    .map(|slice| {
                        scope.spawn(move || {
                            let submitted: Vec<(u64, JobHandle)> = slice
                                .iter()
                                .map(|&k| (k, pool.submit(job_for(k))))
                                .collect();
                            submitted
                                .into_iter()
                                .map(|(k, h)| (k, h.wait()))
                                .collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });

        // Every job's harvested outputs and local cycle count are
        // bit-identical to its scalar reference run.
        let mut reference: HashMap<u64, (Vec<(String, u64)>, u64)> = HashMap::new();
        for (k, result) in client_results.into_iter().flatten() {
            let (outputs, cycles) = reference
                .entry(k)
                .or_insert_with(|| scalar_reference(k));
            prop_assert!(result.completed(), "k={k} completed");
            prop_assert_eq!(&result.outputs, outputs, "k={} outputs", k);
            prop_assert_eq!(result.cycles, *cycles, "k={} cycles", k);
            prop_assert_eq!(
                result.outputs[0].1,
                Workload::param_sum_expected(k),
                "k={} closed form", k
            );
        }

        let stats = pool.shutdown();
        prop_assert_eq!(stats.submitted, total as u64);
        prop_assert_eq!(stats.merged.completed, total);
        prop_assert_eq!(stats.merged.evicted, 0);
        prop_assert_eq!(stats.unclaimed, 0, "every handle claimed its result");
    }
}
