//! The pipelined submit path: a client that stamps its submits with
//! reserved ids and sends them with its next request, and the server
//! that takes a stamped id only as the next of the connection's
//! reservation. Each test drives a real socket; the last pins the two
//! new wire lines against the `serde_json` reference.

use rteaal_core::{Compiled, Compiler};
use rteaal_designs::Workload;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{
    ChaosPlan, ChaosShard, ProtocolError, Request, Response, ServeClient, ServeConfig, ServerPool,
    ShardConfig, ShardRouter, SocketServer, Verb, WireJob,
};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A counter that raises `done` once it reaches `limit`: the cheapest
/// job there is, for the tests that need many.
const COUNTER_SRC: &str = "\
circuit H :
  module H :
    input clock : Clock
    input limit : UInt<8>
    output cnt : UInt<8>
    output done : UInt<1>
    reg acc : UInt<8>, clock
    acc <= tail(add(acc, UInt<8>(1)), 1)
    cnt <= acc
    done <= geq(acc, limit)
";

fn counter() -> &'static Compiled {
    static COMPILED: OnceLock<Compiled> = OnceLock::new();
    COMPILED.get_or_init(|| {
        Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(COUNTER_SRC)
            .expect("the counter compiles")
    })
}

fn param_sum() -> &'static Compiled {
    static COMPILED: OnceLock<Compiled> = OnceLock::new();
    COMPILED.get_or_init(|| {
        Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile(&Workload::param_sum_circuit())
            .expect("rv32i compiles")
    })
}

fn serve(compiled: &Compiled, halt: &str) -> SocketAddr {
    let pool =
        ServerPool::new(compiled, ServeConfig::with_workers(1), halt).expect("halt resolves");
    SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns")
}

/// Counts to `limit`; its `cnt` reads `limit + 1` at the halt.
fn count_job(limit: u64) -> Job {
    Job::new(format!("count-{limit}"), limit + 8)
        .with_input("limit", limit)
        .with_probe("cnt")
}

fn sum_job(k: u64) -> Job {
    Job::new(format!("sum-{k}"), Workload::param_sum_budget(k))
        .with_state_poke("x15", k)
        .with_probe("a0")
}

/// Writes `lines` in one write and reads one answer per line.
fn burst(stream: &mut TcpStream, reader: &mut impl BufRead, lines: &[String]) -> Vec<Response> {
    let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
    stream
        .write_all(text.as_bytes())
        .expect("the burst is written");
    lines
        .iter()
        .map(|_| {
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("an answer line");
            Response::decode(answer.trim_end()).expect("a response")
        })
        .collect()
}

fn line(request: &Request) -> String {
    let mut out = String::new();
    request.encode(&mut out);
    out
}

#[test]
fn a_ten_thousand_submit_burst_with_no_read_in_between_completes() {
    const JOBS: u64 = 10_000;
    let mut client = ServeClient::connect(serve(counter(), "done")).expect("connects");
    let mut limit_of = std::collections::HashMap::new();
    for n in 0..JOBS {
        let limit = 1 + n % 7;
        let id = client.submit(&count_job(limit)).expect("submits");
        assert!(
            limit_of.insert(id, limit).is_none(),
            "id {id} handed out twice"
        );
    }
    for _ in 0..JOBS {
        let r = client.next_result().expect("streams a result");
        let limit = limit_of.remove(&r.id).expect("a job of this burst, once");
        assert!(r.completed(), "{r:?}");
        assert_eq!(r.output("cnt"), Some(limit + 1));
    }
    let stats = client.stats().expect("stats");
    assert_eq!((stats.submitted, stats.completed), (JOBS, JOBS));
}

#[test]
fn a_stamped_id_outside_the_reservation_is_refused_and_the_connection_lives_on() {
    let mut stream = TcpStream::connect(serve(counter(), "done")).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let job = || WireJob::from(&count_job(3));

    // No reservation yet: every stamped id is refused.
    let refused = &burst(
        &mut stream,
        &mut reader,
        &[line(&Request::submit_reserved(job(), 0))],
    )[0];
    assert_eq!((refused.ok, refused.kind.as_str()), (false, "error"));
    assert!(refused
        .error
        .as_deref()
        .unwrap()
        .contains("not the next id reserved"));

    let reserved = &burst(&mut stream, &mut reader, &[line(&Request::reserve())])[0];
    assert_eq!(reserved.kind, "reserved");
    let first = reserved.id.expect("the reservation's first id");

    // Ahead of the next id, past the block, the next id, the same id
    // again, the next: only the in-order ids go through.
    let answers = burst(
        &mut stream,
        &mut reader,
        &[
            line(&Request::submit_reserved(job(), first + 1)),
            line(&Request::submit_reserved(job(), first + 1024)),
            line(&Request::submit_reserved(job(), first)),
            line(&Request::submit_reserved(job(), first)),
            line(&Request::submit_reserved(job(), first + 1)),
        ],
    );
    let kinds: Vec<_> = answers.iter().map(|a| (a.kind.as_str(), a.id)).collect();
    assert_eq!(
        kinds,
        [
            ("error", None),
            ("error", None),
            ("submitted", Some(first)),
            ("error", None),
            ("submitted", Some(first + 1)),
        ]
    );

    // A new reservation replaces the old: the old block's next id is
    // refused, the new block's first is taken.
    let answers = burst(
        &mut stream,
        &mut reader,
        &[
            line(&Request::reserve()),
            line(&Request::submit_reserved(job(), first + 2)),
        ],
    );
    assert_eq!(answers[0].kind, "reserved");
    let second = answers[0].id.expect("the second reservation's first id");
    assert!(second >= first + 1024, "the blocks overlap");
    assert_eq!(answers[1].kind, "error");
    let taken = &burst(
        &mut stream,
        &mut reader,
        &[line(&Request::submit_reserved(job(), second))],
    )[0];
    assert_eq!((taken.kind.as_str(), taken.id), ("submitted", Some(second)));

    // Still usable: the stamped jobs deliver, and an unstamped submit
    // is answered with a fresh id past both reservations.
    let answers = burst(
        &mut stream,
        &mut reader,
        &[
            line(&Request::result(Some(first))),
            line(&Request::result(Some(first + 1))),
            line(&Request::result(Some(second))),
            line(&Request::submit(job())),
        ],
    );
    for (answer, id) in answers[..3].iter().zip([first, first + 1, second]) {
        let r = answer.result.as_ref().expect("a result");
        assert_eq!((r.id, r.completed(), r.output("cnt")), (id, true, Some(4)));
    }
    assert_eq!(answers[3].kind, "submitted");
    assert!(answers[3].id.expect("an id") >= second + 1024);
    let mut client = ServeClient::connect(stream.peer_addr().expect("peer")).expect("connects");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.submitted, 4, "refusals and reservations are no jobs");
}

#[test]
fn an_unstamped_submit_is_answered_byte_for_byte_as_before() {
    let mut stream = TcpStream::connect(serve(counter(), "done")).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let submit = line(&Request::submit(WireJob::from(&count_job(2))));
    stream
        .write_all(format!("{submit}\n").as_bytes())
        .expect("writes");
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("an answer");
    assert_eq!(answer, "{\"ok\":true,\"kind\":\"submitted\",\"id\":0}\n");
}

#[test]
fn a_client_dropped_straight_after_submit_still_has_its_jobs_run() {
    // All 63 submits are still queued when the client drops, more bytes
    // than the server reads at a time.
    const JOBS: u64 = 63;
    let addr = serve(counter(), "done");
    let mut client = ServeClient::connect(addr).expect("connects");
    let ids: Vec<u64> = (0..JOBS)
        .map(|n| {
            let mut job = count_job(20 + n % 30);
            job.name = format!("{}-{}", job.name, "x".repeat(200));
            client.submit(&job).expect("submits")
        })
        .collect();
    drop(client);

    let mut watcher = ServeClient::connect(addr).expect("connects");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = watcher.stats().expect("stats");
        if stats.completed == JOBS {
            assert_eq!(
                stats.submitted, JOBS,
                "every queued submit reached the pool"
            );
            break;
        }
        assert!(Instant::now() < deadline, "the jobs never ran: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Ids are pool-global: another connection reads their timelines.
    for id in ids {
        let timeline = watcher.timeline(id).expect("timeline");
        assert!(timeline.len() >= 3, "job {id}: {timeline:?}");
    }
}

#[test]
fn dropping_a_client_never_waits_on_a_server_that_stops_answering() {
    // A server that answers the `reserve` and the first submit, then
    // reads on and answers nothing.
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let (lines_tx, lines) = mpsc::channel();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accepts");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let mut seen = Vec::new();
        let mut request = String::new();
        while matches!(reader.read_line(&mut request), Ok(n) if n > 0) {
            let decoded = Request::decode(request.trim_end()).expect("a request");
            let answer = match seen.len() {
                0 => Some(Response::reserved(0)),
                1 => Some(Response::submitted(0)),
                _ => None,
            };
            if let Some(answer) = answer {
                let mut out = String::new();
                answer.encode(&mut out);
                out.push('\n');
                writer.write_all(out.as_bytes()).expect("answers");
            }
            seen.push((decoded.verb, decoded.id));
            request.clear();
        }
        let _ = lines_tx.send(seen);
    });
    let mut client = ServeClient::connect(addr).expect("connects");
    for n in 0..3 {
        assert_eq!(client.submit(&count_job(1)).expect("submits"), n);
    }
    let (dropped_tx, dropped) = mpsc::channel();
    std::thread::spawn(move || {
        drop(client);
        let _ = dropped_tx.send(());
    });
    dropped
        .recv_timeout(Duration::from_secs(10))
        .expect("drop returns without the server's answers");
    let seen = lines
        .recv_timeout(Duration::from_secs(10))
        .expect("the server sees the connection close");
    assert_eq!(
        seen,
        [
            (Verb::Reserve, None),
            (Verb::Submit, Some(0)),
            (Verb::Submit, Some(1)),
            (Verb::Submit, Some(2)),
        ],
        "drop wrote the queued submits"
    );
}

#[test]
fn a_line_that_ends_the_session_still_lets_the_burst_before_it_be_answered() {
    let mut stream = TcpStream::connect(serve(counter(), "done")).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let first = burst(&mut stream, &mut reader, &[line(&Request::reserve())])[0]
        .id
        .expect("a reservation");
    // A stamped submit and a line that is not UTF-8, in one write.
    let mut bytes = line(&Request::submit_reserved(
        WireJob::from(&count_job(2)),
        first,
    ))
    .into_bytes();
    bytes.extend_from_slice(b"\n\xff\xfe\n");
    stream.write_all(&bytes).expect("writes");
    let mut answer = String::new();
    reader.read_line(&mut answer).expect("the ack arrives");
    let ack = Response::decode(answer.trim_end()).expect("a response");
    assert_eq!((ack.kind.as_str(), ack.id), ("submitted", Some(first)));
    answer.clear();
    assert_eq!(reader.read_line(&mut answer).expect("a clean close"), 0);
}

#[test]
fn a_refused_reserve_fails_the_submit_and_leaves_the_client_usable() {
    // A server that refuses every line, and counts what it reads.
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    let (lines_tx, lines) = mpsc::channel();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accepts");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let mut seen = Vec::new();
        let mut request = String::new();
        while matches!(reader.read_line(&mut request), Ok(n) if n > 0) {
            seen.push(Request::decode(request.trim_end()).expect("a request").verb);
            writer
                .write_all(b"{\"ok\":false,\"kind\":\"error\",\"error\":\"no\"}\n")
                .expect("answers");
            request.clear();
        }
        let _ = lines_tx.send(seen);
    });
    let mut client = ServeClient::connect(addr).expect("connects");
    for _ in 0..2 {
        match client.submit(&count_job(1)) {
            Err(ProtocolError::Server(reason)) => assert_eq!(reason, "no"),
            other => panic!("expected the server's refusal, got {other:?}"),
        }
    }
    drop(client);
    let seen = lines
        .recv_timeout(Duration::from_secs(10))
        .expect("the server sees the connection close");
    assert_eq!(
        seen,
        [Verb::Reserve, Verb::Reserve],
        "each submit asked for a reservation, and none was sent"
    );
}

#[test]
fn a_shard_killed_mid_burst_loses_no_job_and_delivers_none_twice() {
    const JOBS: u64 = 90;
    // The doomed shard's first two answers are the `reserve` and the
    // burst's first submit; every kill point lands among the acks of the
    // rest of its burst, which go out with the router's first poll.
    for kill_after in [3, 9, 20] {
        let doomed = ChaosShard::spawn(
            serve(param_sum(), "halt"),
            ChaosPlan {
                kill_after: Some(kill_after),
                truncate_on_kill: true,
                ..ChaosPlan::default()
            },
        )
        .expect("the doomed proxy spawns");
        let addrs = [serve(param_sum(), "halt"), doomed.addr()];
        let config = ShardConfig {
            read_timeout: Duration::from_secs(20),
            ..ShardConfig::default()
        };
        let mut router = ShardRouter::connect(&addrs, config).expect("the fleet connects");
        let ks = Workload::corpus_params(JOBS as usize, kill_after);
        let mut k_of = std::collections::HashMap::new();
        for &k in &ks {
            let id = router.submit(sum_job(k)).expect("the fleet takes the job");
            k_of.insert(id, k);
        }
        let mut delivered = HashSet::new();
        for routed in router.drain().expect("the drain survives the kill") {
            assert!(
                delivered.insert(routed.id),
                "job {} delivered twice",
                routed.id
            );
            let k = k_of[&routed.id];
            assert!(routed.result.completed(), "k={k}: {:?}", routed.result);
            assert_eq!(
                routed.result.output("a0"),
                Some(Workload::param_sum_expected(k))
            );
        }
        assert_eq!(delivered.len(), JOBS as usize, "kill after {kill_after}");
        let stats = router.stats();
        assert!(
            doomed.is_killed(),
            "kill after {kill_after}: the plan fired"
        );
        assert_eq!(stats.shard_deaths, 1, "kill after {kill_after}: {stats:?}");
        assert_eq!((stats.delivered, router.pending()), (JOBS, 0));
        assert!(router.accounting_balanced());
    }
}

#[test]
fn the_reserve_lines_cross_the_two_codecs_unchanged() {
    let job = WireJob::from(&count_job(3)).on_design("twin");
    let requests = [
        Request::reserve(),
        Request::submit_reserved(job.clone(), 0),
        Request::submit_reserved(job, u64::MAX),
    ];
    for request in requests {
        let reference = serde_json::to_string(&request).unwrap();
        assert_eq!(line(&request), reference);
        assert_eq!(Request::decode(&reference).unwrap(), request);
        assert_eq!(
            serde_json::from_str::<Request>(&reference).unwrap(),
            request
        );
    }
    for response in [Response::reserved(0), Response::reserved(u64::MAX)] {
        let reference = serde_json::to_string(&response).unwrap();
        let mut typed = String::new();
        response.encode(&mut typed);
        assert_eq!(typed, reference);
        assert_eq!(Response::decode(&reference).unwrap(), response);
    }
    // Respelled and broken lines read the same through either reader.
    let lines = [
        r#"{"verb":"reserve","max":16}"#,
        r#" { "max" : 16 , "verb" : "reserve" } "#,
        r#"{"verb":"reserve"}"#,
        r#"{"verb":"reserve","max":16,"max":16}"#,
        r#"{"verb":"reserve","max":-1}"#,
        r#"{"verb":"reserve","max":null}"#,
        r#"{"verb":"reserve","id":3,"max":16}"#,
        r#"{"verb":"reserve","max":18446744073709551616}"#,
        r#"{"verb":"submit","job":{"name":"n","budget":1},"id":7}"#,
        r#"{"verb":"submit","id":7,"job":{"name":"n","budget":1}}"#,
        r#"{"verb":"submit","job":{"name":"n","budget":1},"id":7,"id":8}"#,
        r#"{"verb":"submit","job":{"name":"n","budget":1},"id":"7"}"#,
        r#"{"verb":"submit","job":{"name":"n","budget":1},"id":null}"#,
    ];
    for line in lines {
        let typed = Request::decode(line).map_err(|e| e.to_string());
        let reference = serde_json::from_str::<Request>(line).map_err(|e| e.to_string());
        assert_eq!(typed, reference, "{line}");
    }
    let lines = [
        r#"{"ok":true,"kind":"reserved","id":5}"#,
        r#"{"id":5,"kind":"reserved","ok":true}"#,
        r#"{"ok":true,"kind":"reserved","id":-5}"#,
        r#"{"ok":true,"kind":"reserved"}"#,
    ];
    for line in lines {
        let typed = Response::decode(line).map_err(|e| e.to_string());
        let reference = serde_json::from_str::<Response>(line).map_err(|e| e.to_string());
        assert_eq!(typed, reference, "{line}");
    }
}
