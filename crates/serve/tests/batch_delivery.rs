//! Batched `result` delivery over a live socket: a no-`id` `result`
//! with `max` answers with every finished job of the connection that
//! fits under [`MAX_LINE`], one without `max` is the one-job exchange
//! byte for byte, and `ServeClient` hands a batch out one call at a
//! time, finding a buffered job for `poll` and `result` too.
//!
//! Each test makes its finished jobs deterministic with a *sentinel*: a
//! long job submitted last, on a one-worker pool with a lane for every
//! job, and claimed by id. The worker admits in submission order and
//! publishes every job that halts before the sentinel in an earlier
//! round, so once the sentinel is claimed all the others are waiting.

use rteaal_core::Compiler;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{
    ProtocolError, Request, Response, ServeClient, ServeConfig, ServerPool, SocketServer, WireJob,
    MAX_LINE,
};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

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

fn spawn_server() -> SocketAddr {
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile_str(COUNTER_SRC)
        .expect("counter compiles");
    let pool =
        ServerPool::new(&compiled, ServeConfig::with_workers(1), "done").expect("done resolves");
    SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns")
}

/// A job that counts to `limit` and harvests `cnt` `probes` times.
fn count_job(limit: u64, probes: usize) -> Job {
    let mut job = Job::new(format!("count-{limit}"), limit + 8).with_input("limit", limit);
    job.probes = vec!["cnt".to_string(); probes];
    job
}

/// The job every test submits last and claims by id: 250 cycles, where
/// the others take at most 8.
fn sentinel() -> Job {
    count_job(250, 1)
}

/// One raw line exchange; the answer comes back exactly as sent.
fn raw_call(stream: &mut TcpStream, reader: &mut impl BufRead, request: &Request) -> String {
    let mut line = String::new();
    request.encode(&mut line);
    line.push('\n');
    stream.write_all(line.as_bytes()).expect("writes");
    line.clear();
    reader.read_line(&mut line).expect("reads");
    line
}

fn raw_submit(stream: &mut TcpStream, reader: &mut impl BufRead, job: &Job) -> u64 {
    let line = raw_call(stream, reader, &Request::submit(WireJob::from(job)));
    let response = Response::decode(line.trim_end()).expect("a submitted line");
    response.id.expect("the job's id")
}

#[test]
fn a_result_without_max_is_the_one_job_exchange() {
    let addr = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut ids: BTreeSet<u64> = (1..=3)
        .map(|limit| raw_submit(&mut stream, &mut reader, &count_job(limit, 1)))
        .collect();
    let sentinel = raw_submit(&mut stream, &mut reader, &sentinel());
    raw_call(&mut stream, &mut reader, &Request::result(Some(sentinel)));

    // Three jobs are finished; a hand-typed `result` still takes one,
    // in the line the reference writes for a lone result.
    stream
        .write_all(b"{\"verb\":\"result\"}\n")
        .expect("writes");
    let mut line = String::new();
    reader.read_line(&mut line).expect("reads");
    let response: Response = serde_json::from_str(line.trim_end()).expect("a response");
    assert_eq!(response.more, None, "{line}");
    let first = response.result.expect("a result");
    let expected = serde_json::to_string(&Response::result(first.clone())).expect("serializes");
    assert_eq!(line, expected + "\n");
    assert!(ids.remove(&first.id));

    // The other two are still there, and one batch takes both.
    let line = raw_call(&mut stream, &mut reader, &Request::results(16));
    let response = Response::decode(line.trim_end()).expect("a response");
    let rest: BTreeSet<u64> = response
        .result
        .into_iter()
        .chain(response.more.into_iter().flatten())
        .map(|r| r.id)
        .collect();
    assert_eq!(rest, ids);
}

#[test]
fn megabyte_results_batch_under_the_line_bound_and_all_arrive() {
    // 42 000 probes of `cnt` make a result of about 1.1 MB: three fit
    // under the 4 MiB bound, four do not.
    const PROBES: usize = 42_000;
    const JOBS: usize = 7;
    let addr = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clones"));
    let mut ids: BTreeSet<u64> = (1..=JOBS as u64)
        .map(|limit| raw_submit(&mut stream, &mut reader, &count_job(limit, PROBES)))
        .collect();
    let sentinel = raw_submit(&mut stream, &mut reader, &sentinel());
    raw_call(&mut stream, &mut reader, &Request::result(Some(sentinel)));

    let mut per_line = Vec::new();
    while !ids.is_empty() {
        let line = raw_call(&mut stream, &mut reader, &Request::results(64));
        assert!(line.len() < MAX_LINE, "a {} byte line", line.len());
        let response = Response::decode(line.trim_end()).expect("a response");
        let batch: Vec<_> = response
            .result
            .into_iter()
            .chain(response.more.into_iter().flatten())
            .collect();
        for r in &batch {
            assert!(ids.remove(&r.id), "job {} delivered twice", r.id);
            assert!(r.completed());
            assert_eq!(r.outputs.len(), PROBES);
        }
        per_line.push(batch.len());
    }
    assert_eq!(per_line, [3, 3, 1], "each line holds what fits");
}

#[test]
fn poll_and_result_find_a_job_the_client_already_holds() {
    let addr = spawn_server();
    let mut client = ServeClient::connect(addr).expect("connects");
    let ids: Vec<u64> = (1..=3)
        .map(|limit| client.submit(&count_job(limit, 1)).expect("submits"))
        .collect();
    let sentinel = client.submit(&sentinel()).expect("submits");
    client.result(sentinel).expect("the sentinel finishes");

    // One exchange brings all three; the two not returned are buffered,
    // and the server no longer knows them. Job `ids[i]` counted to `i + 1`, so its `cnt` reads `i + 2`.
    let cnt = |id: u64| ids.iter().position(|&i| i == id).map(|i| i as u64 + 2);
    let first = client.next_result().expect("a result");
    let rest: Vec<u64> = ids.iter().copied().filter(|&id| id != first.id).collect();
    assert_eq!(rest.len(), 2);
    let polled = client.poll(rest[0]).expect("answers").expect("finished");
    assert_eq!((polled.id, polled.output("cnt")), (rest[0], cnt(rest[0])));
    let waited = client.result(rest[1]).expect("answers");
    assert_eq!((waited.id, waited.output("cnt")), (rest[1], cnt(rest[1])));
    // Taken once: neither the buffer nor the server holds them now.
    match client.poll(rest[0]) {
        Err(ProtocolError::Server(message)) => assert!(message.contains("unknown job id")),
        other => panic!("a delivered job came back: {other:?}"),
    }
    match client.next_result() {
        Err(ProtocolError::Server(message)) => assert!(message.contains("no outstanding")),
        other => panic!("nothing should be outstanding: {other:?}"),
    }
}
