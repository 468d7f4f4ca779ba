//! The batched `result`'s backlog rule over a live socket: a no-`id`
//! `result` with `max` > 1 is answered once the connection has a
//! finished job and at least as many finished as still wait for a
//! lane. Without `max` (or with `max` 1) it is still the first
//! completion, and a backlog that can only end in rejections, or whose
//! results the line bound splits, is still answered.
//!
//! Every test runs a one-worker pool whose lanes are fewer than the
//! jobs it is sent, and sends its submits and the `result` in one
//! write, so the server has queued them all before it answers.

use rteaal_core::Compiler;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_sched::Job;
use rteaal_serve::{
    Request, Response, ServeClient, ServeConfig, ServerPool, SocketServer, WireJob, WireResult,
    MAX_LINE,
};
use rteaal_telemetry::JobStage;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// A 32-bit counter that raises `done` at a per-job limit: jobs from one
/// cycle to millions.
const COUNTER_SRC: &str = "\
circuit W :
  module W :
    input clock : Clock
    input limit : UInt<32>
    output cnt : UInt<32>
    output done : UInt<1>
    reg acc : UInt<32>, clock
    acc <= tail(add(acc, UInt<32>(1)), 1)
    cnt <= acc
    done <= geq(acc, limit)
";

fn spawn_server(lanes: usize) -> SocketAddr {
    let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
        .compile_str(COUNTER_SRC)
        .expect("counter compiles");
    let config = ServeConfig {
        workers: 1,
        lanes,
        ..ServeConfig::default()
    };
    let pool = ServerPool::new(&compiled, config, "done").expect("done resolves");
    SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns")
}

/// A job that counts to `limit`, harvesting `cnt`.
fn count_job(limit: u64) -> Job {
    Job::new(format!("count-{limit}"), limit + 8)
        .with_input("limit", limit)
        .with_probe("cnt")
}

/// A raw connection: lines go out exactly as the tests write them.
struct Raw {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connects");
        let reader = BufReader::new(stream.try_clone().expect("clones"));
        Raw { stream, reader }
    }

    /// Sends `requests` in one write.
    fn send(&mut self, requests: &[Request]) {
        let mut burst = String::new();
        for request in requests {
            request.encode(&mut burst);
            burst.push('\n');
        }
        self.stream.write_all(burst.as_bytes()).expect("writes");
    }

    /// The next answer line, decoded, and its length.
    fn answer(&mut self) -> (Response, usize) {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reads");
        let response = Response::decode(line.trim_end()).expect("a response line");
        assert!(response.ok, "{line}");
        (response, line.len())
    }

    /// Submits `jobs` and asks for a batched `result` in one write;
    /// returns the jobs' ids and the `result`'s answer.
    fn burst(&mut self, jobs: &[WireJob], result: Request) -> (Vec<u64>, Vec<WireResult>) {
        let mut requests: Vec<Request> = jobs.iter().cloned().map(Request::submit).collect();
        requests.push(result);
        self.send(&requests);
        let ids = jobs
            .iter()
            .map(|_| self.answer().0.id.expect("a submitted id"))
            .collect();
        (ids, batch(self.answer().0))
    }
}

/// Every result an answer carries.
fn batch(response: Response) -> Vec<WireResult> {
    let more = response.more.into_iter().flatten();
    response.result.into_iter().chain(more).collect()
}

/// When `stage` was recorded for job `id`, if it has been, read
/// through the `timeline` verb.
fn stage_at(client: &mut ServeClient, id: u64, stage: JobStage) -> Option<u64> {
    let timeline = client.timeline(id).expect("a timeline");
    timeline.iter().find(|e| e.stage == stage).map(|e| e.at_us)
}

#[test]
fn a_backlog_is_answered_with_more_than_its_first_completion() {
    // Two lanes: the long job holds one, the five shorter ones take
    // turns in the other. Three of them wait for a lane when the first
    // finishes, so an answer of one while two or more still wait is
    // what the rule forbids. The shorter jobs run 32 768 cycles each, so
    // the server has read the whole burst before the first finishes, and
    // a first-completion answer would hold exactly one.
    let addr = spawn_server(2);
    let mut raw = Raw::connect(addr);
    let mut jobs = vec![WireJob::from(&count_job(1 << 19))];
    jobs.extend((0..5).map(|_| WireJob::from(&count_job(1 << 15))));
    let (ids, first) = raw.burst(&jobs, Request::results(16));
    assert!(first.len() >= 2, "answered with {} result(s)", first.len());
    let mut left: BTreeSet<u64> = ids.into_iter().collect();
    for r in &first {
        assert!(r.completed() && left.remove(&r.id), "{r:?}");
    }
    while !left.is_empty() {
        raw.send(&[Request::results(16)]);
        for r in batch(raw.answer().0) {
            assert!(r.completed() && left.remove(&r.id), "{r:?}");
        }
    }
}

#[test]
fn a_result_without_max_or_with_max_one_is_the_first_completion_under_a_backlog() {
    // One lane: the one-cycle job runs first, then three long ones take
    // turns. The answer comes while the first long job still runs,
    // though two more wait for the lane behind it.
    for result in [Request::result(None), Request::results(1)] {
        let addr = spawn_server(1);
        let mut raw = Raw::connect(addr);
        let mut jobs = vec![WireJob::from(&count_job(1))];
        jobs.extend((0..3).map(|_| WireJob::from(&count_job(1 << 19))));
        let (ids, answer) = raw.burst(&jobs, result);
        assert_eq!(answer.len(), 1);
        assert_eq!(answer[0].id, ids[0], "the first completion");
        let mut client = ServeClient::connect(addr).expect("connects");
        let delivered = stage_at(&mut client, ids[0], JobStage::Delivered).expect("delivered");
        let halted = stage_at(&mut client, ids[1], JobStage::Halted);
        assert!(
            halted.is_none_or(|halted| delivered < halted),
            "answered at {delivered} us, after the next job halted at {halted:?} us"
        );
    }
}

#[test]
fn a_backlog_of_rejections_is_still_answered() {
    // Two lanes held by counting jobs; behind them three jobs that poke
    // a state no design has, rejected only when a lane frees, and one
    // for a design nobody registered, rejected at once.
    let addr = spawn_server(2);
    let mut raw = Raw::connect(addr);
    let mut jobs: Vec<WireJob> = (0..2).map(|_| WireJob::from(&count_job(200))).collect();
    let poison = count_job(3).with_state_poke("ghost", 1);
    jobs.extend((0..3).map(|_| WireJob::from(&poison)));
    jobs.push(WireJob::from(&count_job(3)).on_design("nope"));
    let (ids, mut results) = raw.burst(&jobs, Request::results(16));
    assert!(!results.is_empty());
    while results.len() < ids.len() {
        raw.send(&[Request::results(16)]);
        results.extend(batch(raw.answer().0));
    }
    let got: BTreeSet<u64> = results.iter().map(|r| r.id).collect();
    assert_eq!(got, ids.iter().copied().collect());
    for r in &results {
        let counting = r.id == ids[0] || r.id == ids[1];
        assert_eq!(r.completed(), counting, "{r:?}");
    }
}

#[test]
fn a_backlog_whose_results_the_line_bound_splits_is_still_answered() {
    // 84 000 probes make a result of about 2.2 MB: one fits under the
    // 4 MiB bound, two do not. One lane is held by a long job; the six
    // big jobs take turns in the other, so every answer the rule allows
    // is one the bound closes at its first job.
    const PROBES: usize = 84_000;
    let addr = spawn_server(2);
    let mut raw = Raw::connect(addr);
    let big = |limit| {
        let mut job = count_job(limit);
        job.probes = vec!["cnt".to_string(); PROBES];
        WireJob::from(&job)
    };
    let mut jobs = vec![big(1), WireJob::from(&count_job(1 << 16))];
    jobs.extend((2..=6).map(big));
    let (ids, first) = raw.burst(&jobs, Request::results(64));
    assert_eq!(first.len(), 1, "one 2.2 MB result per line");
    let mut left: BTreeSet<u64> = ids.into_iter().collect();
    left.remove(&first[0].id);
    while !left.is_empty() {
        raw.send(&[Request::results(64)]);
        let (answer, len) = raw.answer();
        assert!(len < MAX_LINE, "a {len} byte line");
        for r in batch(answer) {
            assert!(r.completed() && left.remove(&r.id), "{r:?}");
        }
    }
}
