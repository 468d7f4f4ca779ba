//! Exhaustive wire-protocol coverage: every verb round-trips through
//! the line-JSON envelope, every malformed-envelope shape is refused
//! with a per-request error (never a dropped connection), and the
//! client-side transport faults — truncated line, clean close, garbage
//! response — surface as the right typed [`ProtocolError`]. The happy
//! path is smoked in `socket_smoke.rs`; this module owns the edges.

use rteaal_sched::Job;
use rteaal_serve::{
    ProtocolError, Request, Response, ServeClient, ServeConfig, ServerPool, SocketServer, Verb,
    WireAnalysis, WireBinding, WireDesign, WireJob, WirePong, WireResult, WireStats,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// The counter design used for live register/designs coverage.
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
    let compiled = rteaal_core::Compiler::new(rteaal_kernels::KernelConfig::new(
        rteaal_kernels::KernelKind::Psu,
    ))
    .compile_str(COUNTER_SRC)
    .expect("counter compiles");
    let pool =
        ServerPool::new(&compiled, ServeConfig::with_workers(1), "done").expect("done resolves");
    SocketServer::bind(pool, "127.0.0.1:0")
        .expect("binds loopback")
        .spawn()
        .expect("accept loop spawns")
}

#[test]
fn every_verb_round_trips_through_the_envelope() {
    let job = WireJob {
        name: "sum-5".to_string(),
        budget: 27,
        inputs: vec![WireBinding {
            name: "limit".to_string(),
            value: 5,
        }],
        state_pokes: vec![WireBinding {
            name: "x15".to_string(),
            value: 5,
        }],
        probes: vec!["a0".to_string()],
        design: None,
    };
    let requests = [
        Request::submit(job.clone()),
        Request::submit(job.clone().on_design("sha3")),
        Request::poll(3),
        Request::result(None),
        Request::result(Some(7)),
        Request::stats(),
        Request::register("sha3", COUNTER_SRC, "done"),
        Request::designs(),
        Request::ping(),
        Request::metrics(),
        Request::timeline(7),
    ];
    for request in requests {
        let line = serde_json::to_string(&request).expect("serializes");
        let back: Request = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, request, "{line}");
    }

    let result = WireResult {
        id: 4,
        name: "sum-5".to_string(),
        outcome: "completed".to_string(),
        error: None,
        outputs: vec![WireBinding {
            name: "a0".to_string(),
            value: 15,
        }],
        cycles: 20,
        admitted_at: 2,
        finished_at: 22,
    };
    let stats = WireStats {
        workers: 2,
        lanes: 4,
        designs: 2,
        submitted: 9,
        cycles: 100,
        busy_lane_cycles: 320,
        admitted: 9,
        completed: 8,
        evicted: 1,
        rejected: 0,
        utilization: 0.8,
        uptime_ms: 42,
        queue_depth: 1,
    };
    let responses = [
        Response::submitted(4),
        Response::pending(4),
        Response::result(result),
        Response::stats(stats),
        Response::registered("sha3"),
        Response::designs(vec![
            WireDesign {
                name: "default".to_string(),
                default: true,
                analysis: WireAnalysis {
                    ops: 5,
                    layers: 2,
                    slots: 9,
                    registers: 1,
                    dead_ops: 0,
                    never_toggling: 0,
                    warnings: 0,
                    activity: 12.0,
                },
            },
            WireDesign {
                name: "sha3".to_string(),
                default: false,
                analysis: WireAnalysis::default(),
            },
        ]),
        Response::pong(WirePong { uptime_ms: 12_345 }),
        Response::error("no such job"),
    ];
    for response in responses {
        let line = serde_json::to_string(&response).expect("serializes");
        let back: Response = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, response, "{line}");
    }
}

#[test]
fn malformed_envelopes_are_refused_at_parse_time() {
    // Every shape a confused (or hostile) client might send. Each must
    // fail as a parse error — the server turns these into per-request
    // `kind:"error"` responses, never a crash.
    let bad = [
        "{}",                                               // no verb
        r#"{"id":3}"#,                                      // no verb, other fields
        r#"{"verb":42}"#,                                   // verb wrong type
        r#"{"verb":"zap"}"#,                                // unknown verb
        r#"{"verb":"submit","job":{}}"#,                    // job missing name/budget
        r#"{"verb":"submit","job":{"name":"j"}}"#,          // job missing budget
        r#"{"verb":"submit","job":{"name":7,"budget":1}}"#, // name wrong type
        r#"{"verb":"poll","id":"seven"}"#,                  // id wrong type
        r#"{"verb":"poll","id":-1}"#,                       // id negative
        "not json at all",
        r#"["verb","poll"]"#, // array, not map
    ];
    for line in bad {
        assert!(
            serde_json::from_str::<Request>(line).is_err(),
            "{line} should not parse"
        );
    }
    // Responses are parsed just as strictly client-side.
    assert!(serde_json::from_str::<Response>(r#"{"kind":"result"}"#).is_err());
    assert!(serde_json::from_str::<Response>(r#"{"ok":true}"#).is_err());
    assert!(
        serde_json::from_str::<Response>(r#"{"ok":true,"kind":"result","result":{"id":1}}"#)
            .is_err(),
        "truncated result payloads must not parse"
    );
    // Pong payloads are validated field-by-field like every other kind.
    assert!(
        serde_json::from_str::<Response>(r#"{"ok":true,"kind":"pong","pong":{}}"#).is_err(),
        "empty pong payloads must not parse"
    );
    assert!(
        serde_json::from_str::<Response>(r#"{"ok":true,"kind":"pong","pong":{"uptime_ms":-5}}"#)
            .is_err(),
        "negative uptime must not parse"
    );
}

/// Sends one raw line to a live server and parses the response line.
fn raw_call(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Response {
    writer.write_all(line.as_bytes()).expect("writes");
    writer.write_all(b"\n").expect("writes newline");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reads");
    serde_json::from_str(reply.trim_end()).expect("server lines always parse")
}

#[test]
fn bad_requests_get_error_responses_and_the_connection_survives() {
    let addr = spawn_server();
    let stream = TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    let cases = [
        ("garbage", "bad request"),
        (r#"{"verb":"zap"}"#, "unknown verb"),
        (r#"{"verb":"submit"}"#, "submit needs"),
        (r#"{"verb":"poll"}"#, "poll needs"),
        (r#"{"verb":"poll","id":12345}"#, "unknown job id"),
        (r#"{"verb":"register"}"#, "register needs"),
        (
            r#"{"verb":"register","design":"d","source":"circuit nope","halt":"done"}"#,
            "failed to compile",
        ),
    ];
    for (line, want) in cases {
        let response = raw_call(&mut writer, &mut reader, line);
        assert!(!response.ok, "{line}");
        assert_eq!(response.kind, "error");
        let error = response.error.expect("error responses carry a message");
        assert!(error.contains(want), "{line}: {error}");
    }
    // After all that abuse, the connection still serves real requests.
    let response = raw_call(&mut writer, &mut reader, r#"{"verb":"stats"}"#);
    assert!(response.ok);
    assert_eq!(response.stats.expect("stats payload").designs, 1);
}

/// A combinationally cyclic design: `a` and `b` feed each other with no
/// register in the loop.
const CYCLIC_SRC: &str = "\
circuit Loop :
  module Loop :
    input clock : Clock
    input x : UInt<1>
    output y : UInt<1>
    node a = not(b)
    node b = not(a)
    y <= and(a, x)
";

#[test]
fn cyclic_design_register_is_a_structured_error_and_the_connection_survives() {
    // Regression for the `register` hardening: a malformed/cyclic design
    // must come back as a per-request server error — never a panic that
    // tears down the connection thread mid-session.
    let addr = spawn_server();
    let stream = TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);

    let request = serde_json::to_string(&Request::register("loopy", CYCLIC_SRC, "y"))
        .expect("request serializes");
    let response = raw_call(&mut writer, &mut reader, &request);
    assert!(!response.ok, "cyclic designs must be refused");
    assert_eq!(response.kind, "error");
    let error = response.error.expect("refusals carry a message");
    assert!(error.contains("failed to compile"), "{error}");

    // The refusal never entered the registry, and the same connection
    // keeps serving requests.
    let response = raw_call(&mut writer, &mut reader, r#"{"verb":"designs"}"#);
    assert!(response.ok);
    let designs = response.designs.expect("designs payload");
    assert_eq!(designs.len(), 1, "only the default design is registered");
    // The registry exposes the verifier's per-design statistics.
    assert!(designs[0].analysis.ops > 0);
    assert!(designs[0].analysis.activity > 0.0);
    assert_eq!(designs[0].analysis.registers, 1);
}

#[test]
fn register_and_designs_flow_over_a_live_socket() {
    let addr = spawn_server();
    let mut client = ServeClient::connect(addr).expect("connects");
    // Initially only the default design exists.
    let designs = client.designs().expect("designs verb");
    assert_eq!(designs.len(), 1);
    assert!(designs[0].default);
    assert_eq!(designs[0].name, "default");

    // Register a second copy of the counter under a new name; bad
    // registrations are per-request server errors.
    client
        .register("twin", COUNTER_SRC, "done")
        .expect("registers");
    match client.register("twin", COUNTER_SRC, "done") {
        Err(ProtocolError::Server(message)) => {
            assert!(message.contains("already registered"), "{message}");
        }
        other => panic!("duplicate register should fail server-side: {other:?}"),
    }
    match client.register("ghosted", COUNTER_SRC, "ghost") {
        Err(ProtocolError::Server(message)) => {
            assert!(message.contains("unknown halt"), "{message}");
        }
        other => panic!("unknown halt should fail server-side: {other:?}"),
    }
    let names: Vec<String> = client
        .designs()
        .expect("designs verb")
        .into_iter()
        .map(|d| d.name)
        .collect();
    assert_eq!(names, vec!["default".to_string(), "twin".to_string()]);

    // Jobs route to the named design and come back bit-identical to
    // the default (it is the same circuit).
    let job = Job::new("count-5", 13)
        .with_input("limit", 5)
        .with_probe("cnt");
    let on_twin = client.submit_to("twin", &job).expect("submits to twin");
    let on_default = client.submit(&job).expect("submits to default");
    let mut results = vec![
        client.next_result().expect("streams"),
        client.next_result().expect("streams"),
    ];
    results.sort_by_key(|r| r.id);
    assert_eq!(results[0].id, on_twin.min(on_default));
    assert_eq!(results[1].id, on_twin.max(on_default));
    for result in &results {
        assert!(result.completed());
        assert_eq!(result.output("cnt"), Some(6));
    }

    // A job naming an unregistered design is accepted on the wire but
    // comes back rejected — never silently run on the wrong circuit.
    let id = client.submit_to("nope", &job).expect("submission succeeds");
    let rejected = client.result(id).expect("result arrives");
    assert_eq!(rejected.outcome, "rejected");
    assert!(rejected.error.expect("reason").contains("unknown design"));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.designs, 2);
}

#[test]
fn ping_reports_a_monotonic_uptime() {
    let addr = spawn_server();
    let mut client = ServeClient::connect(addr).expect("connects");
    let first = client.ping().expect("ping answers");
    let second = client.ping().expect("ping answers");
    assert!(second.uptime_ms >= first.uptime_ms, "uptime is monotonic");
}

#[test]
fn metrics_and_timeline_flow_over_a_live_socket() {
    let addr = spawn_server();
    let mut client = ServeClient::connect(addr).expect("connects");

    // Run one job end to end so every lifecycle stage gets recorded.
    let id = client
        .submit(
            &Job::new("count-5", 32)
                .with_input("limit", 5)
                .with_probe("cnt"),
        )
        .expect("submits");
    let result = client.result(id).expect("finishes");
    assert!(result.completed());

    let (snapshot, exposition) = client.metrics().expect("metrics verb answers");
    assert_eq!(snapshot.counter("sched.completed"), 1);
    assert_eq!(snapshot.counter("sched.admitted"), 1);
    assert!(
        snapshot
            .histogram("serve.dispatch_latency_us")
            .is_some_and(|h| h.hist.count == 1),
        "dispatch latency was sampled"
    );
    assert!(snapshot.uptime_ms <= client.stats().expect("stats").uptime_ms);
    // The Prometheus rendering names the same instruments.
    assert!(exposition.contains("# TYPE sched_completed counter"));
    assert!(exposition.contains("serve_dispatch_latency_us_bucket"));

    let timeline = client.timeline(id).expect("timeline verb answers");
    let stages: Vec<_> = timeline.iter().map(|e| e.stage).collect();
    assert_eq!(
        stages,
        rteaal_telemetry::ALL_STAGES.to_vec(),
        "all six stages present in pipeline order"
    );
    assert!(
        timeline.windows(2).all(|w| w[0].at_us <= w[1].at_us),
        "timestamps are non-decreasing"
    );

    // An id the server never saw answers with an empty timeline, not
    // an error — absence of history is a valid observation.
    assert!(client.timeline(10_000).expect("answers").is_empty());
}

/// A fake server for client-side fault coverage: accepts one
/// connection, reads one request line, then answers with `reply` —
/// verbatim, no newline added — and closes.
fn fake_server(reply: &'static [u8]) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accepts");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads the request");
        writer.write_all(reply).expect("writes the reply");
        // Dropping both halves closes the connection.
    });
    addr
}

#[test]
fn mid_line_eof_surfaces_as_truncated_line_with_the_partial() {
    // Regression: a server dying mid-response used to surface as an
    // opaque io error. It must be a typed `TruncatedLine` carrying the
    // bytes that did arrive.
    let partial = br#"{"ok":true,"kind":"stat"#;
    let addr = fake_server(partial);
    let mut client = ServeClient::connect(addr).expect("connects");
    match client.stats() {
        Err(error @ ProtocolError::TruncatedLine { .. }) => {
            assert_eq!(
                error.truncated_partial(),
                Some(r#"{"ok":true,"kind":"stat"#),
                "the partial line is preserved verbatim"
            );
            assert!(error.is_fatal(), "a truncated connection is unusable");
            let shown = error.to_string();
            assert!(shown.contains("mid-line"), "{shown}");
        }
        other => panic!("expected TruncatedLine, got {other:?}"),
    }
}

#[test]
fn clean_close_and_garbage_replies_get_their_own_typed_errors() {
    // EOF at a line boundary (the server closed without answering).
    let mut client = ServeClient::connect(fake_server(b"")).expect("connects");
    match client.stats() {
        Err(ProtocolError::ConnectionClosed) => {}
        other => panic!("expected ConnectionClosed, got {other:?}"),
    }

    // A complete line that is not a protocol envelope.
    let mut client = ServeClient::connect(fake_server(b"not json\n")).expect("connects");
    match client.stats() {
        Err(ProtocolError::Malformed { line, .. }) => assert_eq!(line, "not json"),
        other => panic!("expected Malformed, got {other:?}"),
    }

    // A server-side refusal is the one *non-fatal* kind.
    let addr = spawn_server();
    let mut client = ServeClient::connect(addr).expect("connects");
    match client.poll(99) {
        Err(error @ ProtocolError::Server(_)) => assert!(!error.is_fatal()),
        other => panic!("expected Server, got {other:?}"),
    }
    // ...and the connection survives it.
    assert!(client.stats().is_ok());
    assert_eq!(client.stats().unwrap().workers, 1);
}

#[test]
fn verb_constructors_match_their_wire_names() {
    for (verb, name) in [
        (Verb::Submit, "submit"),
        (Verb::Poll, "poll"),
        (Verb::Result, "result"),
        (Verb::Stats, "stats"),
        (Verb::Register, "register"),
        (Verb::Designs, "designs"),
        (Verb::Ping, "ping"),
        (Verb::Metrics, "metrics"),
        (Verb::Timeline, "timeline"),
    ] {
        let line = serde_json::to_string(&verb).expect("serializes");
        assert_eq!(line, format!("\"{name}\""));
        let back: Verb = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, verb);
    }
}
