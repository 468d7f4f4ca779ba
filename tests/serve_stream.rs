//! The served path over a real loopback socket: one `ServeClient`
//! keeps 16 corpus jobs in flight, twice the pool's lanes, so most
//! `next_result` calls are answered from a batch an earlier exchange
//! brought. Every job must come back exactly once, with the sum its
//! loop bound fixes.

use rteaal_core::Compiler;
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{ServeClient, ServeConfig, ServerPool, SocketServer};
use std::collections::HashMap;

const JOBS: usize = 512;
const IN_FLIGHT: usize = 16;

#[test]
fn a_closed_loop_of_corpus_jobs_streams_every_result_exactly_once() {
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let pool = ServerPool::new(&compiled, config, "halt").expect("halt resolves");
    let addr = SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns");
    let mut client = ServeClient::connect(addr).expect("connects");

    let ks = Workload::corpus_params(JOBS, 7);
    let mut k_of: HashMap<u64, u64> = HashMap::new();
    let (mut next, mut delivered) = (0, 0);
    while delivered < JOBS {
        if next < JOBS && k_of.len() < IN_FLIGHT {
            let k = ks[next];
            let mut job = Job::new(format!("sum-{k}"), Workload::param_sum_budget(k));
            job.state_pokes = vec![("x15".to_string(), k)];
            job.probes = vec!["a0".to_string()];
            let id = client.submit(&job).expect("submits");
            assert!(k_of.insert(id, k).is_none(), "id {id} handed out twice");
            next += 1;
            continue;
        }
        let r = client.next_result().expect("streams a result");
        let k = k_of
            .remove(&r.id)
            .unwrap_or_else(|| panic!("job {} was not outstanding", r.id));
        assert!(r.completed(), "k={k}: {r:?}");
        assert_eq!(
            r.output("a0"),
            Some(Workload::param_sum_expected(k)),
            "k={k}"
        );
        delivered += 1;
    }
    assert!(k_of.is_empty());
    assert_eq!(client.stats().expect("stats").completed, JOBS as u64);
}
