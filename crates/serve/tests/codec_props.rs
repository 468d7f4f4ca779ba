//! Differential properties of the wire codec: the typed hot-verb path
//! of [`Request::encode`]/[`Request::decode`] and
//! [`Response::encode`]/[`Response::decode`] against the `serde_json`
//! reference it sits in front of.
//!
//! Three families, each over every verb and every response kind:
//! generated values encode to the reference's bytes and decode back
//! through either reader; the same values *respelled* — keys reordered,
//! whitespace added, absent options written as `null` and `null`s
//! dropped, characters written as escapes — decode identically or fail
//! identically; and valid lines with bytes flipped, cut, doubled or
//! spliced never panic a reader and never make the two disagree.

use proptest::prelude::*;
use rteaal_designs::workload::Stimulus;
use rteaal_serve::{
    Request, Response, Verb, WireAnalysis, WireBinding, WireDesign, WireJob, WirePong, WireResult,
    WireStats,
};
use rteaal_telemetry::{JobEvent, JobStage, MetricsRegistry};
use serde::{Content, Serialize};

/// Characters a name can hurt a JSON codec with: the two that must be
/// escaped, the named and the unnamed controls, the solidus, DEL,
/// two- three- and four-byte characters, the line separators some
/// parsers choke on, and structural bytes that mean nothing in a string.
const PALETTE: [char; 24] = [
    '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\0', '\u{1f}', '\u{7f}', 'a', 'Z', '7',
    ' ', 'é', '→', '𝄞', '\u{2028}', 'u', '{', ']', ',', ':',
];

fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(PALETTE.to_vec()), 0..10)
        .prop_map(|chars| chars.into_iter().collect())
}

fn number() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just(1u64 << 63),
        0u64..1000,
        any::<u64>()
    ]
}

fn option<T: Clone + 'static>(
    some: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Option<T>> {
    prop_oneof![Just(None), some.prop_map(Some)]
}

fn bindings() -> impl Strategy<Value = Vec<WireBinding>> {
    prop::collection::vec(
        (name(), number()).prop_map(|(name, value)| WireBinding { name, value }),
        0..4,
    )
}

fn job() -> impl Strategy<Value = WireJob> {
    (
        ((name(), number()), (bindings(), bindings())),
        (prop::collection::vec(name(), 0..4), option(name())),
    )
        .prop_map(
            |(((name, budget), (inputs, state_pokes)), (probes, design))| WireJob {
                name,
                budget,
                inputs,
                state_pokes,
                probes,
                design,
            },
        )
}

fn result() -> impl Strategy<Value = WireResult> {
    (
        ((number(), name()), (name(), option(name()))),
        (bindings(), (number(), (number(), number()))),
    )
        .prop_map(
            |(((id, name), (outcome, error)), (outputs, (cycles, (admitted_at, finished_at))))| {
                WireResult {
                    id,
                    name,
                    outcome,
                    error,
                    outputs,
                    cycles,
                    admitted_at,
                    finished_at,
                }
            },
        )
}

/// Every verb, hot and cold, and the off-shape requests the constructors
/// never build but the wire can carry (a `poll` with a job attached).
fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        job().prop_map(Request::submit),
        number().prop_map(Request::poll),
        option(number()).prop_map(Request::result),
        number().prop_map(Request::results),
        // A `max` beside an id, or on a verb that ignores it.
        (
            option(number()),
            number(),
            prop::sample::select(vec![Verb::Result, Verb::Poll])
        )
            .prop_map(|(id, max, verb)| Request {
                verb,
                id,
                max: Some(max),
                ..Request::result(None)
            }),
        (job(), number()).prop_map(|(job, id)| Request {
            job: Some(job),
            ..Request::poll(id)
        }),
        (name(), (name(), name()))
            .prop_map(|(design, (source, halt))| Request::register(design, source, halt)),
        (name(), number()).prop_map(|(design, id)| Request {
            design: Some(design),
            ..Request::result(Some(id))
        }),
        number().prop_map(Request::timeline),
        Just(Request::stats()),
        Just(Request::designs()),
        Just(Request::ping()),
        Just(Request::metrics()),
    ]
}

fn stats(n: u64) -> WireStats {
    WireStats {
        workers: 2,
        lanes: 8,
        designs: 1,
        submitted: n,
        cycles: n.wrapping_mul(75),
        busy_lane_cycles: n,
        admitted: n,
        completed: n / 2,
        evicted: 1,
        rejected: 0,
        utilization: 0.625,
        uptime_ms: n,
        queue_depth: 3,
    }
}

fn events(id: u64) -> Vec<JobEvent> {
    let event = |stage, at_us, worker, lane| JobEvent {
        job: id,
        stage,
        at_us,
        worker,
        lane,
        shard: None,
    };
    vec![
        event(JobStage::Submitted, 10, Some(0), None),
        event(JobStage::Halted, 90, Some(0), Some(3)),
        event(JobStage::Delivered, u64::MAX, None, None),
    ]
}

/// Every response kind; the hot four carry generated payloads.
fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        number().prop_map(Response::submitted),
        number().prop_map(Response::pending),
        result().prop_map(Response::result),
        (result(), prop::collection::vec(result(), 0..4))
            .prop_map(|(first, more)| Response::results(first, more)),
        // Off-shape: an empty `more`, which `results` never writes.
        result().prop_map(|first| Response {
            more: Some(Vec::new()),
            ..Response::result(first)
        }),
        name().prop_map(Response::error),
        // Off-shape but on the typed path: an error that names an id.
        (name(), number()).prop_map(|(message, id)| Response {
            id: Some(id),
            ..Response::error(message)
        }),
        number().prop_map(|n| Response::stats(stats(n))),
        name().prop_map(Response::registered),
        name().prop_map(|name| Response::designs(vec![WireDesign {
            name,
            default: true,
            analysis: WireAnalysis {
                ops: 12,
                activity: 31.0,
                ..WireAnalysis::default()
            },
        }])),
        number().prop_map(|n| Response::pong(WirePong { uptime_ms: n })),
        number().prop_map(|n| {
            let registry = MetricsRegistry::new();
            registry.counter("sched.admitted").add(n % 1000);
            registry.histogram("serve.dispatch_latency_us").record(17);
            let snapshot = registry.snapshot();
            let text = snapshot.prometheus();
            Response::metrics(snapshot, text)
        }),
        number().prop_map(|id| Response::timeline(id, events(id))),
    ]
}

static NULL: Content = Content::Null;

/// Writes a `Content` tree as JSON the way a different, equally valid
/// writer might: object keys in another order, whitespace between
/// tokens, characters as `\u` or solidus escapes, `null`-valued keys
/// dropped, and (at the top level) absent keys spelled `"key":null`.
struct Respeller {
    dice: Stimulus,
    out: String,
}

impl Respeller {
    fn roll(&mut self, sides: u64) -> u64 {
        self.dice.next_value() % sides
    }

    fn gap(&mut self) {
        for _ in 0..self.roll(3) {
            let ws = [' ', '\t', '\r', '\n'][self.roll(4) as usize];
            self.out.push(ws);
        }
    }

    /// `optional_escapes` off: only what must be escaped is.
    fn string(&mut self, s: &str, optional_escapes: bool) {
        self.out.push('"');
        for c in s.chars() {
            let style = if optional_escapes { self.roll(4) } else { 3 };
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '/' if style == 0 => self.out.push_str("\\/"),
                '\u{8}' if style == 0 => self.out.push_str("\\b"),
                '\u{c}' if style == 0 => self.out.push_str("\\f"),
                '\n' if style == 0 => self.out.push_str("\\n"),
                // Controls must be escaped; anything else in the BMP
                // may be.
                c if (c as u32) < 0x20 || (style == 1 && (c as u32) < 0xd800) => {
                    let escape = if self.roll(2) == 0 {
                        format!("\\u{:04x}", c as u32)
                    } else {
                        format!("\\u{:04X}", c as u32)
                    };
                    self.out.push_str(&escape);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn value(&mut self, content: &Content, absent: &[&str]) {
        match content {
            Content::Null => self.out.push_str("null"),
            Content::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Content::U64(v) if self.roll(8) == 0 => self.out.push_str(&format!("0{v}")),
            Content::U64(v) => self.out.push_str(&v.to_string()),
            Content::I64(v) => self.out.push_str(&v.to_string()),
            Content::F64(v) => self.out.push_str(&format!("{v:?}")),
            Content::Str(s) => self.string(s, true),
            Content::Seq(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.gap();
                    self.value(item, &[]);
                    self.gap();
                }
                self.out.push(']');
            }
            Content::Map(entries) => {
                let mut entries: Vec<(&str, &Content)> =
                    entries.iter().map(|(k, v)| (k.as_str(), v)).collect();
                // Drop some nulls, spell some absences, then shuffle.
                entries.retain(|(_, v)| **v != Content::Null || self.roll(3) > 0);
                for key in absent {
                    if entries.iter().all(|(k, _)| k != key) && self.roll(4) == 0 {
                        entries.push((key, &NULL));
                    }
                }
                for i in (1..entries.len()).rev() {
                    entries.swap(i, self.roll(i as u64 + 1) as usize);
                }
                self.out.push('{');
                for (i, (key, value)) in entries.into_iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.gap();
                    // An escaped key is rare in the wild and sends the
                    // whole line to the reference: keep most lines typed.
                    let escape_key = self.roll(16) == 0;
                    self.string(key, escape_key);
                    self.gap();
                    self.out.push(':');
                    self.gap();
                    self.value(value, &[]);
                    self.gap();
                }
                self.out.push('}');
            }
        }
    }
}

fn respell(value: &impl Serialize, optional_keys: &[&str], seed: u64) -> String {
    let mut speller = Respeller {
        dice: Stimulus::from_seed(seed),
        out: String::new(),
    };
    speller.gap();
    speller.value(&value.to_content(), optional_keys);
    speller.gap();
    speller.out
}

/// Flips, cuts, doubles and splices bytes of a valid line. The splice
/// set leans on what steers a JSON reader: structure, escapes, digits,
/// signs, exponents, the start of `null`/`true`, and a key to repeat.
fn mutate(line: &str, seed: u64) -> String {
    const SPLICES: [&str; 20] = [
        "\"",
        "\\",
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "0",
        "9",
        "-",
        ".",
        "e",
        "n",
        "t",
        "\\u",
        "\\ud800",
        "null",
        "\"id\":1,",
        " ",
    ];
    let mut dice = Stimulus::from_seed(seed);
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..1 + dice.next_value() % 3 {
        let at = (dice.next_value() % (bytes.len() as u64 + 1)) as usize;
        let len = (dice.next_value() % 4) as usize;
        let to = (at + len).min(bytes.len());
        match dice.next_value() % 5 {
            0 => drop(bytes.drain(at..to)),
            1 => {
                let span = bytes[at..to].to_vec();
                bytes.splice(at..at, span);
            }
            2 if at < bytes.len() => bytes[at] ^= 1 << (dice.next_value() % 7),
            3 => bytes.truncate(at),
            _ => {
                let splice = SPLICES[(dice.next_value() % SPLICES.len() as u64) as usize];
                bytes.splice(at..at, splice.bytes());
            }
        }
    }
    // Both readers take `&str`: a cut through a character is respelled
    // the way `from_utf8_lossy` does it.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The two readers' verdicts on one line, comparable: the value, or the
/// error text.
fn verdicts<T>(
    typed: Result<T, serde_json::Error>,
    reference: Result<T, serde_json::Error>,
) -> (Result<T, String>, Result<T, String>) {
    (
        typed.map_err(|e| e.to_string()),
        reference.map_err(|e| e.to_string()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 400, ..ProptestConfig::default() })]

    #[test]
    fn requests_cross_the_two_codecs_unchanged(request in request()) {
        let reference = serde_json::to_string(&request).unwrap();
        let mut typed = String::new();
        request.encode(&mut typed);
        // typed-encode is the reference's bytes, so typed -> serde,
        // serde -> typed and typed -> typed are one line three ways.
        prop_assert_eq!(&typed, &reference);
        prop_assert_eq!(&serde_json::from_str::<Request>(&typed).unwrap(), &request);
        prop_assert_eq!(&Request::decode(&reference).unwrap(), &request);
        // `encode` appends: a reused buffer is the caller's to clear.
        request.encode(&mut typed);
        prop_assert_eq!(typed, reference.repeat(2));
    }

    #[test]
    fn responses_cross_the_two_codecs_unchanged(response in response()) {
        let reference = serde_json::to_string(&response).unwrap();
        let mut typed = String::new();
        response.encode(&mut typed);
        prop_assert_eq!(&typed, &reference);
        prop_assert_eq!(&serde_json::from_str::<Response>(&typed).unwrap(), &response);
        prop_assert_eq!(&Response::decode(&reference).unwrap(), &response);
    }

    #[test]
    fn respelled_requests_read_the_same_or_fail_the_same(
        request in request(),
        seed in any::<u64>(),
    ) {
        let line = respell(&request, &["job", "id", "max", "design", "source", "halt"], seed);
        let (typed, reference) = verdicts(Request::decode(&line), serde_json::from_str(&line));
        prop_assert_eq!(&typed, &reference, "{}", line);
        // Dropping a `null` the reference requires is the one respelling
        // that may fail; everything else must still be the request.
        if let Ok(decoded) = typed {
            prop_assert_eq!(decoded, request, "{}", line);
        }
    }

    #[test]
    fn respelled_responses_read_the_same_or_fail_the_same(
        response in response(),
        seed in any::<u64>(),
    ) {
        let line = respell(&response, &["id", "result", "more", "stats", "design", "error"], seed);
        let (typed, reference) = verdicts(Response::decode(&line), serde_json::from_str(&line));
        prop_assert_eq!(&typed, &reference, "{}", line);
        if let Ok(decoded) = typed {
            prop_assert_eq!(decoded, response, "{}", line);
        }
    }

    #[test]
    fn mutated_request_lines_never_split_the_readers(
        request in request(),
        seed in any::<u64>(),
    ) {
        let line = mutate(&serde_json::to_string(&request).unwrap(), seed);
        let (typed, reference) = verdicts(Request::decode(&line), serde_json::from_str(&line));
        prop_assert_eq!(typed, reference, "{}", line);
    }

    #[test]
    fn mutated_response_lines_never_split_the_readers(
        response in response(),
        seed in any::<u64>(),
    ) {
        let line = mutate(&serde_json::to_string(&response).unwrap(), seed);
        let (typed, reference) = verdicts(Response::decode(&line), serde_json::from_str(&line));
        prop_assert_eq!(typed, reference, "{}", line);
    }
}

/// The cases the generators reach only by luck, pinned: the numbers on
/// either side of `u64::MAX`, every escape the reference knows, the
/// surrogate it refuses, and the two places a key can repeat.
#[test]
fn the_edges_of_numbers_escapes_and_keys_agree() {
    let lines = [
        r#"{"verb":"poll","id":18446744073709551615}"#,
        r#"{"verb":"poll","id":18446744073709551616}"#,
        r#"{"verb":"poll","id":99999999999999999999999999}"#,
        r#"{"verb":"poll","id":00000000000000000000000007}"#,
        r#"{"verb":"poll","id":-0}"#,
        r#"{"verb":"poll","id":7.0}"#,
        r#"{"verb":"poll","id":7e0}"#,
        r#"{"verb":"poll","id":7,"id":8}"#,
        r#"{"verb":"poll","verb":"stats","id":7}"#,
        r#"{"verb":"poll","id":7,"extra":[1,{"a":null}]}"#,
        r#"{"verb":"poll","id":7} x"#,
        r#"{"verb":"poll","id":7,}"#,
        r#"{"verb":"poll","id":7}"#,
        r#"{"verb":"submit","job":{"name":"\"\\\/\b\f\n\r\té→","budget":1}}"#,
        r#"{"verb":"submit","job":{"name":"𝄞","budget":1}}"#,
        r#"{"verb":"submit","job":{"name":"\u+123","budget":1}}"#,
        r#"{"verb":"submit","job":{"name":"\x","budget":1}}"#,
        r#"{"verb":"submit","job":{"name":"n","budget":1,"inputs":null}}"#,
        r#"{"verb":"submit","job":{"name":"n","budget":1,"design":null,"probes":[]}}"#,
        r#"{"verb":"submit","job":{"name":"n","budget":1,"probes":["a",]}}"#,
        r#"{"verb":"submit","job":{"name":"n","name":"m","budget":1}}"#,
        r#"{"verb":"submit","job":null}"#,
        r#"{"verb":"submit","job":7}"#,
        "  {\t\"verb\" :\r\"result\" }  ",
        "",
        "{",
        r#"{"verb":"result""#,
        r#"{"verb":"result","max":0}"#,
        r#"{"verb":"result","max":18446744073709551616}"#,
        r#"{"verb":"result","max":16,"max":16}"#,
        r#"{"verb":"result","max":"16"}"#,
        r#"{"verb":"result","id":3,"max":16}"#,
    ];
    for line in lines {
        let (typed, reference) = verdicts(Request::decode(line), serde_json::from_str(line));
        assert_eq!(typed, reference, "{line}");
    }
    assert_eq!(
        Request::decode(lines[0]).unwrap(),
        Request::poll(u64::MAX),
        "the largest id is still a plain number"
    );
    assert!(Request::decode(lines[1]).is_err(), "one more is not");
    let escaped = Request::decode(lines[13]).unwrap().job.unwrap().name;
    assert_eq!(escaped, "\"\\/\u{8}\u{c}\n\r\té→");

    let lines = [
        r#"{"ok":true,"kind":"submitted","id":18446744073709551616}"#,
        r#"{"ok":true,"kind":"submitted","id":null}"#,
        r#"{"ok":1,"kind":"submitted","id":3}"#,
        r#"{"ok":truth,"kind":"submitted","id":3}"#,
        r#"{"kind":"submitted","id":3}"#,
        r#"{"ok":false,"kind":"error","error":null}"#,
        r#"{"ok":false,"kind":"error","error":"a","error":"b"}"#,
        r#"{"ok":true,"kind":"result","id":1,"result":{"id":1}}"#,
        r#"{"ok":true,"kind":"result","id":1,"more":[]}"#,
        r#"{"ok":true,"kind":"result","id":1,"more":[{"id":1}]}"#,
        r#"{"ok":true,"kind":"result","id":1,"more":[],"more":[]}"#,
        r#"{"ok":true,"kind":"result","id":1,"more":{}}"#,
        r#"{"ok":true,"kind":"result","id":1,"result":{"id":1,"name":"","outcome":"completed","outputs":[],"cycles":1,"admitted_at":0,"finished_at":1}}"#,
        r#"{"ok":true,"kind":"result","id":1,"result":{"id":1,"name":"","outcome":"completed","error":null,"outputs":[{"name":"a","value":1,"value":2}],"cycles":1,"admitted_at":0,"finished_at":1}}"#,
        r#"{"ok":true,"kind":"result","id":1,"result":{"id":1,"name":"","outcome":"completed","error":null,"outputs":[{"value":18446744073709551615,"name":" "}],"cycles":1,"admitted_at":0,"finished_at":1,"lane":3}}"#,
    ];
    for line in lines {
        let (typed, reference) = verdicts(Response::decode(line), serde_json::from_str(line));
        assert_eq!(typed, reference, "{line}");
    }
}
