//! End-to-end loopback smoke of the socket front end: a real
//! `TcpListener`, real corpus jobs over the wire, and a bit-exactness
//! check of every streamed result against scalar runs.

use rteaal_core::{Compiler, DebugModule, Simulation};
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{ProtocolError, ServeClient, ServeConfig, ServerPool, SocketServer};

fn corpus_job(k: u64) -> Job {
    let mut job = Job::new(format!("sum-{k}"), Workload::param_sum_budget(k));
    job.state_pokes = vec![("x15".to_string(), k)];
    job.probes = vec!["a0".to_string(), "pc_out".to_string()];
    job
}

#[test]
fn three_jobs_over_loopback_are_bit_exact() {
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let pool =
        ServerPool::new(&compiled, ServeConfig::with_workers(2), "halt").expect("halt resolves");
    let addr = SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns");

    let mut client = ServeClient::connect(addr).expect("connects");
    let ks = [5u64, 30, 2];
    let ids: Vec<u64> = ks
        .iter()
        .map(|&k| client.submit(&corpus_job(k)).expect("submits"))
        .collect();

    // Results stream back in completion order; collect all three.
    let mut results = Vec::new();
    for _ in &ks {
        results.push(client.next_result().expect("streams a result"));
    }
    for (&k, &id) in ks.iter().zip(&ids) {
        let r = results
            .iter()
            .find(|r| r.id == id)
            .expect("one result per submitted id");
        assert!(r.completed(), "k={k}");
        // Closed form and scalar run agree with the wire result.
        assert_eq!(r.output("a0"), Some(Workload::param_sum_expected(k)));
        let mut scalar = Simulation::new(compiled.clone());
        DebugModule::new(&mut scalar)
            .poke_reg("x15", k)
            .expect("x15 probed");
        while scalar.peek("halt") != Some(1) {
            scalar.step();
        }
        assert_eq!(r.output("a0"), scalar.peek("a0"), "k={k} a0");
        assert_eq!(r.output("pc_out"), scalar.peek("pc_out"), "k={k} pc");
        assert_eq!(r.cycles, scalar.cycle(), "k={k} completion cycle");
    }

    // The stats verb aggregates across workers.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.workers, 2);

    // Poll on a drained id errors (already claimed); a fresh submission
    // polls pending-then-done.
    assert!(client.poll(ids[0]).is_err(), "claimed ids are gone");
    let id = client.submit(&corpus_job(40)).expect("submits");
    let result = loop {
        if let Some(r) = client.poll(id).expect("polls") {
            break r;
        }
        std::thread::yield_now();
    };
    assert_eq!(result.output("a0"), Some(Workload::param_sum_expected(40)));

    // A malformed line errors without poisoning the connection.
    let mut raw = ServeClient::connect(addr).expect("second client connects");
    assert!(raw.poll(12345).is_err(), "unknown id on a fresh connection");
    assert!(raw.stats().is_ok(), "connection stays usable after errors");
}

/// A design whose one output is `expr` over its input `a`.
fn design_driving_o_with(expr: &str) -> String {
    format!(
        "circuit H :\n  module H :\n    input a : UInt<8>\n    output o : UInt<8>\n    o <= {expr}\n"
    )
}

#[test]
fn a_hostile_register_is_a_structured_error_and_the_server_keeps_serving() {
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let pool =
        ServerPool::new(&compiled, ServeConfig::with_workers(1), "halt").expect("halt resolves");
    let addr = SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns");
    let mut client = ServeClient::connect(addr).expect("connects");
    // Nesting no stack would hold (the compile runs on this connection's
    // thread, and an overflow there is an abort, not an unwind), a literal
    // wider than a signal can be, parentheses that close nothing.
    let deep = format!("{}a{}", "not(".repeat(100_000), ")".repeat(100_000));
    for (expr, what) in [
        (deep.as_str(), "nests deeper than"),
        ("tail(UInt<200>(1), 56)", "width 200 out of range 1..=64"),
        (
            "or(a, UInt<8>(1))))))",
            "unexpected text after the expression at `))))`",
        ),
    ] {
        match client.register("hostile", &design_driving_o_with(expr), "o") {
            Err(ProtocolError::Server(message)) => {
                assert!(message.contains("parse error at line 5"), "{message}");
                assert!(message.contains(what), "{message}");
            }
            other => panic!("a hostile design should fail server-side: {other:?}"),
        }
    }
    // Same connection, same server: the next requests are served — a
    // design at the nesting bound among them, compiled on the connection
    // thread's default stack.
    let depth = rteaal_firrtl::parser::MAX_EXPR_DEPTH;
    let at_bound = format!("{}a{}", "not(".repeat(depth), ")".repeat(depth));
    client
        .register("at-the-bound", &design_driving_o_with(&at_bound), "o")
        .expect("registers");
    let id = client.submit(&corpus_job(7)).expect("submits");
    let result = client.result(id).expect("streams the result");
    assert_eq!(result.output("a0"), Some(Workload::param_sum_expected(7)));
}

#[test]
fn registering_a_deep_chain_of_named_nodes_leaves_the_server_serving() {
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile(&Workload::param_sum_circuit())
        .expect("rv32i compiles");
    let pool =
        ServerPool::new(&compiled, ServeConfig::with_workers(1), "halt").expect("halt resolves");
    let addr = SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns");
    let mut client = ServeClient::connect(addr).expect("connects");
    // 100 000 links of `node n_k = not(n_{k-1})`, compiled on the
    // connection thread's default stack: graph construction walks the
    // chain from the output down to the input.
    let mut chain = String::from("circuit C :\n  module C :\n    input a : UInt<8>\n    output o : UInt<8>\n    node n0 = not(a)\n");
    for k in 1..100_000 {
        chain += &format!("    node n{k} = not(n{})\n", k - 1);
    }
    chain += "    o <= n99999\n";
    client.register("chain", &chain, "o").expect("registers");
    let designs = client.designs().expect("the server still answers");
    let names: Vec<&str> = designs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names.len(), 2);
    assert!(names.contains(&"chain"), "{names:?}");
}
