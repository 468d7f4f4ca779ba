//! The line-delimited-JSON wire protocol of the socket front end.
//!
//! One request per line, one response per line, one connection per
//! client. Ten verbs:
//!
//! | verb       | request fields | response |
//! |------------|----------------|----------|
//! | `submit`   | `job`, optional `id` | `{"ok":true,"kind":"submitted","id":N}`; with `id`, N is that id, which must be the next unused id this connection reserved |
//! | `reserve`  | —              | `{"ok":true,"kind":"reserved","id":N}`: the 1 024 pool-global ids from N on are this connection's to stamp its submits with, in order |
//! | `poll`     | `id`           | `kind:"result"` if finished, else `kind:"pending"` |
//! | `result`   | `id` or `max` (both optional) | blocks; with no `id` and no `max`, the *next* of this connection's jobs to finish; with `max` > 1, once the connection has a finished job and at least as many finished as still wait for a lane, up to `max` of them, the rest in `more` |
//! | `stats`    | —              | `kind:"stats"` with pool counters |
//! | `register` | `design`, `source`, `halt` | compiles the FIRRTL `source` server-side and adds it to the design registry |
//! | `designs`  | —              | `kind:"designs"` listing every registered design |
//! | `ping`     | —              | `kind:"pong"` with server uptime — the health probe |
//! | `metrics`  | —              | `kind:"metrics"`: the full registry snapshot (counters, gauges, histograms) plus a Prometheus-style text exposition |
//! | `timeline` | `id`           | `kind:"timeline"`: one job's retained lifecycle events (submitted → ... → delivered) |
//!
//! A submitted job may name the design it runs on (`"job":{...,
//! "design":"sha3"}`); with no `design` field it runs on the server's
//! default design — the one the pool was constructed over.
//!
//! Example session (client lines prefixed `>`):
//!
//! ```text
//! > {"verb":"submit","job":{"name":"sum-5","budget":27,"state_pokes":[{"name":"x15","value":5}],"probes":["a0"]}}
//! {"ok":true,"kind":"submitted","id":0}
//! > {"verb":"result","id":0}
//! {"ok":true,"kind":"result","id":0,"result":{"id":0,"name":"sum-5","outcome":"completed",...,"outputs":[{"name":"a0","value":15}]}}
//! > {"verb":"submit","job":{"name":"sum-6","budget":27,"state_pokes":[{"name":"x15","value":6}],"probes":["a0"]}}
//! {"ok":true,"kind":"submitted","id":1}
//! > {"verb":"submit","job":{"name":"sum-7","budget":27,"state_pokes":[{"name":"x15","value":7}],"probes":["a0"]}}
//! {"ok":true,"kind":"submitted","id":2}
//! > {"verb":"result","max":16}
//! {"ok":true,"kind":"result","id":2,"result":{"id":2,"name":"sum-7",...},"more":[{"id":1,"name":"sum-6",...}]}
//! > {"verb":"reserve"}
//! {"ok":true,"kind":"reserved","id":3}
//! > {"verb":"submit","job":{"name":"sum-8",...},"id":3}
//! > {"verb":"submit","job":{"name":"sum-9",...},"id":4}
//! > {"verb":"result","max":16}
//! {"ok":true,"kind":"submitted","id":3}
//! {"ok":true,"kind":"submitted","id":4}
//! {"ok":true,"kind":"result","id":4,"result":{"id":4,"name":"sum-9",...}}
//! ```
//!
//! The last three client lines are one pipelined burst, sent in one
//! write: the client knew the ids of its submits before their acks came
//! (they are the ids it reserved, taken in order), so it did not wait
//! for them. The server answers requests strictly in order and writes
//! its answers when no complete request line is left unread, so the
//! burst comes back in one write too — the acks, then the `result`
//! answer. A stamped `id` that is not the next id of the connection's
//! latest reservation is refused with a `kind:"error"` line (the
//! connection stays usable), and a `submit` without `id` is answered
//! exactly as before reservations existed. Reserved ids that are never
//! stamped are never used, and a stamped job's id is as unique and
//! pool-global as any other: its `timeline` works from any connection.
//!
//! A no-`id` `result` takes finished jobs of the connection in batches,
//! one round trip per batch. It blocks until the connection has at
//! least one finished job *and* at least as many finished jobs as jobs
//! of its own still waiting for a lane (or `max` finished ones), then
//! answers with one of them in `result` and up to `max − 1` more in
//! `more` (omitted when empty). With no backlog that is the first
//! completion; with one, an earlier answer buys no throughput, because
//! every lane that frees already has one of the connection's jobs
//! queued for it. Without `max` (or with `max` 0 or 1) the exchange is
//! the one-job answer at the first completion, byte for byte, backlog
//! or not. The server stops filling `more` before the line would reach
//! [`MAX_LINE`](crate::MAX_LINE); what does not fit waits, unclaimed,
//! for the next call. An `id` wins over `max`, which is then ignored.
//!
//! Envelope (de)serialization is hand-written against the vendored
//! serde's [`Content`] tree so optional fields may simply be omitted —
//! a hand-typed `{"verb":"stats"}` is a valid request; inner payload
//! structs use the derive.
//!
//! # Two codecs, one format
//!
//! The `Serialize`/`Deserialize` impls here are the *reference*: they
//! define the wire format, and every line can be written and read
//! through `serde_json` alone. The socket front end goes through
//! [`Request::encode`]/[`Request::decode`] and
//! [`Response::encode`]/[`Response::decode`] instead, which put a typed
//! codec in front of the reference for the lines a job costs — its
//! `submit` and `submitted`, and its share of a `result` exchange:
//!
//! - requests whose verb is `submit`, `reserve`, `poll` or `result` and
//!   whose only keys are `verb`, `job`, `id` and `max` (inside `job`:
//!   `name`, `budget`, `inputs`, `state_pokes`, `probes`, `design`);
//! - responses whose only keys are `ok`, `kind`, `id`, `result`, `more`
//!   and `error` — the `submitted`, `reserved`, `pending`, `result` and
//!   `error` kinds.
//!
//! Those are written straight into the caller's line buffer, byte for
//! byte what `serde_json` writes, and read by a pull parser that builds
//! the value without the [`Content`] tree in between. The typed reader
//! either accepts a line or *defers*: any other verb, a key it does not
//! own, a repeated key, a `null` where the writer never puts one, an
//! escaped key, a number that is not a plain `u64`, a syntax error,
//! trailing bytes — the same line then goes through `serde_json`, whose
//! value or error is the answer. So the typed path can only ever be
//! wrong by accepting, and `tests/codec_props.rs` holds it against the
//! reference on generated and on mutated lines.

use rteaal_sched::{Job, JobOutcome, JobResult};
use rteaal_telemetry::{JobEvent, MetricsSnapshot};
use serde::{Content, Deserialize, Serialize};
use std::fmt::Write as _;

use crate::pool::ServeStats;

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Enqueue a job; responds immediately with its id.
    Submit,
    /// Set aside a block of pool-global ids for this connection's
    /// stamped submits.
    Reserve,
    /// Non-blocking result check for an id.
    Poll,
    /// Blocking result fetch (by id, or the next to finish).
    Result,
    /// Pool counters.
    Stats,
    /// Compile a FIRRTL source and add it to the design registry.
    Register,
    /// List the registered designs.
    Designs,
    /// Liveness probe: the server's uptime.
    Ping,
    /// Full metrics-registry snapshot plus Prometheus text exposition.
    Metrics,
    /// One job's retained lifecycle event timeline.
    Timeline,
}

impl Verb {
    fn as_str(self) -> &'static str {
        match self {
            Verb::Submit => "submit",
            Verb::Reserve => "reserve",
            Verb::Poll => "poll",
            Verb::Result => "result",
            Verb::Stats => "stats",
            Verb::Register => "register",
            Verb::Designs => "designs",
            Verb::Ping => "ping",
            Verb::Metrics => "metrics",
            Verb::Timeline => "timeline",
        }
    }
}

impl Serialize for Verb {
    fn to_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Deserialize for Verb {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        match content {
            Content::Str(s) => match s.as_str() {
                "submit" => Ok(Verb::Submit),
                "reserve" => Ok(Verb::Reserve),
                "poll" => Ok(Verb::Poll),
                "result" => Ok(Verb::Result),
                "stats" => Ok(Verb::Stats),
                "register" => Ok(Verb::Register),
                "designs" => Ok(Verb::Designs),
                "ping" => Ok(Verb::Ping),
                "metrics" => Ok(Verb::Metrics),
                "timeline" => Ok(Verb::Timeline),
                other => Err(serde::Error(format!("unknown verb `{other}`"))),
            },
            other => Err(serde::Error::expected("verb string", other)),
        }
    }
}

/// A named 64-bit value — input bindings, state pokes, and harvested
/// outputs all cross the wire in this shape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireBinding {
    /// Signal name.
    pub name: String,
    /// Bound or harvested value.
    pub value: u64,
}

/// A job as submitted over the wire (mirrors [`Job`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WireJob {
    /// Human-readable tag.
    pub name: String,
    /// Cycle budget (clamped by the server's `max_budget`).
    pub budget: u64,
    /// Held input bindings.
    pub inputs: Vec<WireBinding>,
    /// Admission-time architectural state pokes.
    pub state_pokes: Vec<WireBinding>,
    /// Signals to harvest at completion.
    pub probes: Vec<String>,
    /// Registered design to run on (`None` = the server's default).
    pub design: Option<String>,
}

// Hand-written so hand-typed submissions may omit the empty lists and
// the design name.
impl Deserialize for WireJob {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let req = |field: &str| {
            content
                .field(field)
                .ok_or_else(|| serde::Error(format!("job is missing field `{field}`")))
        };
        let opt_list = |field: &str| match content.field(field) {
            Some(c) => Deserialize::from_content(c),
            None => Ok(Vec::new()),
        };
        Ok(WireJob {
            name: Deserialize::from_content(req("name")?)?,
            budget: Deserialize::from_content(req("budget")?)?,
            inputs: opt_list("inputs")?,
            state_pokes: opt_list("state_pokes")?,
            probes: match content.field("probes") {
                Some(c) => Deserialize::from_content(c)?,
                None => Vec::new(),
            },
            design: opt_field(content, "design")?,
        })
    }
}

fn bindings(pairs: &[(String, u64)]) -> Vec<WireBinding> {
    pairs
        .iter()
        .map(|(name, value)| WireBinding {
            name: name.clone(),
            value: *value,
        })
        .collect()
}

impl From<&Job> for WireJob {
    fn from(job: &Job) -> Self {
        WireJob {
            name: job.name.clone(),
            budget: job.budget,
            inputs: bindings(&job.inputs),
            state_pokes: bindings(&job.state_pokes),
            probes: job.probes.clone(),
            design: None,
        }
    }
}

impl WireJob {
    /// Targets a registered design by name (builder style).
    #[must_use]
    pub fn on_design(mut self, design: impl Into<String>) -> Self {
        self.design = Some(design.into());
        self
    }
}

impl From<WireJob> for Job {
    fn from(w: WireJob) -> Self {
        let mut job = Job::new(w.name, w.budget);
        job.inputs = w.inputs.into_iter().map(|b| (b.name, b.value)).collect();
        job.state_pokes = w
            .state_pokes
            .into_iter()
            .map(|b| (b.name, b.value))
            .collect();
        job.probes = w.probes;
        job
    }
}

/// A finished job as reported over the wire (mirrors [`JobResult`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireResult {
    /// Pool-global job id.
    pub id: u64,
    /// The job's tag.
    pub name: String,
    /// `"completed"`, `"evicted"`, or `"rejected"`.
    pub outcome: String,
    /// Rejection reason (`null` otherwise).
    pub error: Option<String>,
    /// Harvested outputs in probe order.
    pub outputs: Vec<WireBinding>,
    /// Local cycles from admission to halt/eviction.
    pub cycles: u64,
    /// Global engine cycle at admission.
    pub admitted_at: u64,
    /// Global engine cycle at halt/eviction/rejection.
    pub finished_at: u64,
}

impl WireResult {
    /// Whether the halt condition fired within budget.
    pub fn completed(&self) -> bool {
        self.outcome == "completed"
    }

    /// The harvested value of one probe, if present.
    pub fn output(&self, name: &str) -> Option<u64> {
        self.outputs
            .iter()
            .find(|b| b.name == name)
            .map(|b| b.value)
    }
}

fn outcome_str(outcome: JobOutcome) -> &'static str {
    match outcome {
        JobOutcome::Completed => "completed",
        JobOutcome::Evicted => "evicted",
        JobOutcome::Rejected => "rejected",
    }
}

impl From<JobResult> for WireResult {
    fn from(r: JobResult) -> Self {
        WireResult {
            id: r.id.0,
            name: r.name,
            outcome: outcome_str(r.outcome).to_string(),
            error: r.error,
            outputs: r
                .outputs
                .into_iter()
                .map(|(name, value)| WireBinding { name, value })
                .collect(),
            cycles: r.cycles,
            admitted_at: r.admitted_at,
            finished_at: r.finished_at,
        }
    }
}

/// One registry entry as reported by the `designs` verb.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireDesign {
    /// Registered design name.
    pub name: String,
    /// Whether this is the server's default design (the one jobs with
    /// no `design` field run on).
    pub default: bool,
    /// The static plan verifier's statistics for the design.
    pub analysis: WireAnalysis,
}

/// The static verifier's per-design statistics as reported by the
/// `designs` verb (a flat wire projection of
/// [`rteaal_core::AnalysisStats`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WireAnalysis {
    /// Scheduled operations.
    pub ops: u64,
    /// Schedule layers.
    pub layers: u64,
    /// `LI` slots.
    pub slots: u64,
    /// Registers (commits).
    pub registers: u64,
    /// Ops whose result reaches no output, probe, or commit.
    pub dead_ops: u64,
    /// Ops constant-propagation proves never toggle.
    pub never_toggling: u64,
    /// Warn-level diagnostics the verifier reported at registration.
    pub warnings: u64,
    /// Fan-in-weighted static activity estimate, summed over layers.
    pub activity: f64,
}

impl From<&rteaal_core::AnalysisStats> for WireAnalysis {
    fn from(s: &rteaal_core::AnalysisStats) -> Self {
        WireAnalysis {
            ops: s.ops as u64,
            layers: s.layers as u64,
            slots: s.slots as u64,
            registers: s.registers as u64,
            dead_ops: s.dead_ops as u64,
            never_toggling: s.never_toggling as u64,
            warnings: s.warnings as u64,
            activity: s.total_activity,
        }
    }
}

/// Pool counters as reported by the `stats` verb.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireStats {
    /// Worker threads.
    pub workers: u64,
    /// Lanes per worker.
    pub lanes: u64,
    /// Registered designs.
    pub designs: u64,
    /// Jobs submitted through the pool.
    pub submitted: u64,
    /// Engine cycles stepped, all workers.
    pub cycles: u64,
    /// Occupied-lane cycles, all workers.
    pub busy_lane_cycles: u64,
    /// Jobs admitted into lanes.
    pub admitted: u64,
    /// Jobs completed within budget.
    pub completed: u64,
    /// Jobs evicted at budget.
    pub evicted: u64,
    /// Jobs rejected at validation.
    pub rejected: u64,
    /// Occupied-lane cycles over total lane cycles.
    pub utilization: f64,
    /// Milliseconds since the server's pool was constructed.
    pub uptime_ms: u64,
    /// Jobs sitting in scheduler queues, not yet admitted to a lane.
    pub queue_depth: u64,
}

impl From<&ServeStats> for WireStats {
    fn from(s: &ServeStats) -> Self {
        WireStats {
            workers: s.workers as u64,
            lanes: s.lanes as u64,
            designs: s.designs as u64,
            submitted: s.submitted,
            cycles: s.merged.cycles,
            busy_lane_cycles: s.merged.busy_lane_cycles,
            admitted: s.merged.admitted as u64,
            completed: s.merged.completed as u64,
            evicted: s.merged.evicted as u64,
            rejected: s.merged.rejected as u64,
            utilization: s.utilization(),
            uptime_ms: s.uptime_ms,
            queue_depth: s.queue_depth as u64,
        }
    }
}

/// The `ping` verb's payload. A freshly restarted process shows a
/// small `uptime_ms`; the router's probe does not compare anything — an
/// answer is enough, and it replays its registry unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WirePong {
    /// Milliseconds since the server's pool was constructed.
    pub uptime_ms: u64,
}

/// One client request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What to do.
    pub verb: Verb,
    /// The job to submit (`submit` only).
    pub job: Option<WireJob>,
    /// The job id to check (`poll`; optional for `result`), or the
    /// reserved id a `submit` is stamped with (optional).
    pub id: Option<u64>,
    /// The most finished jobs one answer may carry (`result` without an
    /// `id`; absent means 1).
    pub max: Option<u64>,
    /// The design name to register (`register` only).
    pub design: Option<String>,
    /// The FIRRTL source to compile (`register` only).
    pub source: Option<String>,
    /// The registered design's halt signal (`register` only).
    pub halt: Option<String>,
}

impl Request {
    fn base(verb: Verb) -> Self {
        Request {
            verb,
            job: None,
            id: None,
            max: None,
            design: None,
            source: None,
            halt: None,
        }
    }

    /// A `submit` request.
    pub fn submit(job: WireJob) -> Self {
        Request {
            job: Some(job),
            ..Self::base(Verb::Submit)
        }
    }

    /// A `submit` stamped with `id`, the next unused id of the
    /// connection's reservation.
    pub fn submit_reserved(job: WireJob, id: u64) -> Self {
        Request {
            id: Some(id),
            ..Self::submit(job)
        }
    }

    /// A `reserve` request.
    pub fn reserve() -> Self {
        Self::base(Verb::Reserve)
    }

    /// A `poll` request.
    pub fn poll(id: u64) -> Self {
        Request {
            id: Some(id),
            ..Self::base(Verb::Poll)
        }
    }

    /// A blocking `result` request (`None` = next job to finish).
    pub fn result(id: Option<u64>) -> Self {
        Request {
            id,
            ..Self::base(Verb::Result)
        }
    }

    /// A blocking `result` request for a batch of up to `max` of the
    /// connection's finished jobs, answered once at least as many have
    /// finished as still wait for a lane (see the module docs).
    pub fn results(max: u64) -> Self {
        Request {
            max: Some(max),
            ..Self::base(Verb::Result)
        }
    }

    /// A `stats` request.
    pub fn stats() -> Self {
        Self::base(Verb::Stats)
    }

    /// A `register` request: compile `source` server-side under `design`,
    /// watching `halt` for per-lane completion.
    pub fn register(
        design: impl Into<String>,
        source: impl Into<String>,
        halt: impl Into<String>,
    ) -> Self {
        Request {
            design: Some(design.into()),
            source: Some(source.into()),
            halt: Some(halt.into()),
            ..Self::base(Verb::Register)
        }
    }

    /// A `designs` request.
    pub fn designs() -> Self {
        Self::base(Verb::Designs)
    }

    /// A `ping` request.
    pub fn ping() -> Self {
        Self::base(Verb::Ping)
    }

    /// A `metrics` request.
    pub fn metrics() -> Self {
        Self::base(Verb::Metrics)
    }

    /// A `timeline` request for one job's lifecycle events.
    pub fn timeline(id: u64) -> Self {
        Request {
            id: Some(id),
            ..Self::base(Verb::Timeline)
        }
    }
}

/// Appends `(key, value)` if the value is present.
fn push_opt<T: Serialize>(entries: &mut Vec<(String, Content)>, key: &str, value: &Option<T>) {
    if let Some(v) = value {
        entries.push((key.to_string(), v.to_content()));
    }
}

/// Reads an optional field: absent and explicit `null` both mean
/// `None` (the mirror of [`push_opt`], which omits absent fields).
fn opt_field<T: Deserialize>(content: &Content, field: &str) -> Result<Option<T>, serde::Error> {
    match content.field(field) {
        None | Some(Content::Null) => Ok(None),
        Some(c) => T::from_content(c).map(Some),
    }
}

impl Serialize for Request {
    fn to_content(&self) -> Content {
        let mut entries = vec![("verb".to_string(), self.verb.to_content())];
        push_opt(&mut entries, "job", &self.job);
        push_opt(&mut entries, "id", &self.id);
        push_opt(&mut entries, "max", &self.max);
        push_opt(&mut entries, "design", &self.design);
        push_opt(&mut entries, "source", &self.source);
        push_opt(&mut entries, "halt", &self.halt);
        Content::Map(entries)
    }
}

impl Deserialize for Request {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let verb = Verb::from_content(
            content
                .field("verb")
                .ok_or_else(|| serde::Error("request is missing `verb`".to_string()))?,
        )?;
        Ok(Request {
            verb,
            job: opt_field(content, "job")?,
            id: opt_field(content, "id")?,
            max: opt_field(content, "max")?,
            design: opt_field(content, "design")?,
            source: opt_field(content, "source")?,
            halt: opt_field(content, "halt")?,
        })
    }
}

/// One server response line.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// `false` only for `kind:"error"`.
    pub ok: bool,
    /// `submitted`, `reserved`, `pending`, `result`, `stats`,
    /// `registered`, `designs`, `pong`, `metrics`, `timeline`, or
    /// `error`.
    pub kind: String,
    /// The id the response refers to (submit/poll/result kinds), or the
    /// first of the ids a `reserve` set aside.
    pub id: Option<u64>,
    /// The finished job (`kind:"result"`).
    pub result: Option<WireResult>,
    /// Further finished jobs a batched `result` delivers with the first
    /// (never `Some` of an empty list from [`Response::results`]).
    pub more: Option<Vec<WireResult>>,
    /// Pool counters (`kind:"stats"`).
    pub stats: Option<WireStats>,
    /// Liveness payload (`kind:"pong"`).
    pub pong: Option<WirePong>,
    /// The design a `register` added (`kind:"registered"`).
    pub design: Option<String>,
    /// The registry listing (`kind:"designs"`).
    pub designs: Option<Vec<WireDesign>>,
    /// The full metrics-registry snapshot (`kind:"metrics"`).
    pub metrics: Option<MetricsSnapshot>,
    /// Prometheus-style text exposition of the same snapshot
    /// (`kind:"metrics"`).
    pub exposition: Option<String>,
    /// One job's lifecycle events, oldest first (`kind:"timeline"`).
    pub timeline: Option<Vec<JobEvent>>,
    /// What went wrong (`kind:"error"`).
    pub error: Option<String>,
}

impl Response {
    fn base(ok: bool, kind: impl Into<String>) -> Self {
        Response {
            ok,
            kind: kind.into(),
            id: None,
            result: None,
            more: None,
            stats: None,
            pong: None,
            design: None,
            designs: None,
            metrics: None,
            exposition: None,
            timeline: None,
            error: None,
        }
    }

    /// Acknowledges a submission.
    pub fn submitted(id: u64) -> Self {
        Response {
            id: Some(id),
            ..Self::base(true, "submitted")
        }
    }

    /// Grants a reservation: the 1 024 ids from `first` on.
    pub fn reserved(first: u64) -> Self {
        Response {
            id: Some(first),
            ..Self::base(true, "reserved")
        }
    }

    /// A poll on a still-running job.
    pub fn pending(id: u64) -> Self {
        Response {
            id: Some(id),
            ..Self::base(true, "pending")
        }
    }

    /// Delivers a finished job.
    pub fn result(r: WireResult) -> Self {
        Response {
            id: Some(r.id),
            result: Some(r),
            ..Self::base(true, "result")
        }
    }

    /// Delivers a batch of finished jobs: `first` as
    /// [`result`](Self::result) does, the rest in `more` (left out when
    /// there is none, so a batch of one is the one-job line).
    pub fn results(first: WireResult, more: Vec<WireResult>) -> Self {
        Response {
            more: (!more.is_empty()).then_some(more),
            ..Self::result(first)
        }
    }

    /// Delivers pool counters.
    pub fn stats(s: WireStats) -> Self {
        Response {
            stats: Some(s),
            ..Self::base(true, "stats")
        }
    }

    /// Acknowledges a design registration.
    pub fn registered(design: impl Into<String>) -> Self {
        Response {
            design: Some(design.into()),
            ..Self::base(true, "registered")
        }
    }

    /// Delivers the design registry listing.
    pub fn designs(designs: Vec<WireDesign>) -> Self {
        Response {
            designs: Some(designs),
            ..Self::base(true, "designs")
        }
    }

    /// Answers a liveness probe.
    pub fn pong(pong: WirePong) -> Self {
        Response {
            pong: Some(pong),
            ..Self::base(true, "pong")
        }
    }

    /// Delivers a metrics snapshot plus its Prometheus rendering.
    pub fn metrics(snapshot: MetricsSnapshot, exposition: impl Into<String>) -> Self {
        Response {
            metrics: Some(snapshot),
            exposition: Some(exposition.into()),
            ..Self::base(true, "metrics")
        }
    }

    /// Delivers one job's retained lifecycle events.
    pub fn timeline(id: u64, events: Vec<JobEvent>) -> Self {
        Response {
            id: Some(id),
            timeline: Some(events),
            ..Self::base(true, "timeline")
        }
    }

    /// Reports a per-request failure (the connection stays usable).
    pub fn error(message: impl Into<String>) -> Self {
        Response {
            error: Some(message.into()),
            ..Self::base(false, "error")
        }
    }
}

impl Serialize for Response {
    fn to_content(&self) -> Content {
        let mut entries = vec![
            ("ok".to_string(), self.ok.to_content()),
            ("kind".to_string(), self.kind.to_content()),
        ];
        push_opt(&mut entries, "id", &self.id);
        push_opt(&mut entries, "result", &self.result);
        push_opt(&mut entries, "more", &self.more);
        push_opt(&mut entries, "stats", &self.stats);
        push_opt(&mut entries, "pong", &self.pong);
        push_opt(&mut entries, "design", &self.design);
        push_opt(&mut entries, "designs", &self.designs);
        push_opt(&mut entries, "metrics", &self.metrics);
        push_opt(&mut entries, "exposition", &self.exposition);
        push_opt(&mut entries, "timeline", &self.timeline);
        push_opt(&mut entries, "error", &self.error);
        Content::Map(entries)
    }
}

impl Deserialize for Response {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let req = |field: &str| {
            content
                .field(field)
                .ok_or_else(|| serde::Error(format!("response is missing `{field}`")))
        };
        Ok(Response {
            ok: Deserialize::from_content(req("ok")?)?,
            kind: Deserialize::from_content(req("kind")?)?,
            id: opt_field(content, "id")?,
            result: opt_field(content, "result")?,
            more: opt_field(content, "more")?,
            stats: opt_field(content, "stats")?,
            pong: opt_field(content, "pong")?,
            design: opt_field(content, "design")?,
            designs: opt_field(content, "designs")?,
            metrics: opt_field(content, "metrics")?,
            exposition: opt_field(content, "exposition")?,
            timeline: opt_field(content, "timeline")?,
            error: opt_field(content, "error")?,
        })
    }
}

impl Request {
    /// Appends this request's wire line (without the newline) to `out`:
    /// typed for the hot verbs, through `serde_json` otherwise, the
    /// same bytes either way.
    pub fn encode(&self, out: &mut String) {
        if !write_request(self, out) {
            out.push_str(&serde_json::to_string(self).expect("requests always serialize"));
        }
    }

    /// Parses one wire line: the typed reader first, `serde_json` on
    /// the same line whenever that defers.
    ///
    /// # Errors
    ///
    /// `serde_json`'s, for a line that is no valid request.
    pub fn decode(line: &str) -> Result<Self, serde_json::Error> {
        match Reader::new(line).request() {
            Some(request) => Ok(request),
            None => serde_json::from_str(line),
        }
    }
}

impl Response {
    /// Appends this response's wire line (without the newline) to
    /// `out`; see [`Request::encode`].
    pub fn encode(&self, out: &mut String) {
        if !write_response(self, out) {
            out.push_str(&serde_json::to_string(self).expect("responses always serialize"));
        }
    }

    /// Parses one wire line; see [`Request::decode`].
    ///
    /// # Errors
    ///
    /// `serde_json`'s, for a line that is no valid response.
    pub fn decode(line: &str) -> Result<Self, serde_json::Error> {
        match Reader::new(line).response() {
            Some(response) => Ok(response),
            None => serde_json::from_str(line),
        }
    }
}

/// Writes a JSON string exactly as `serde_json` does: `"`, `\` and the
/// three named controls escaped, other controls as `\u00xx`, the rest
/// verbatim.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a character boundary.
        out.push_str(&s[copied..i]);
        match named {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

fn write_u64(v: u64, out: &mut String) {
    let _ = write!(out, "{v}");
}

fn write_opt_str(s: Option<&str>, out: &mut String) {
    match s {
        Some(s) => write_str(s, out),
        None => out.push_str("null"),
    }
}

fn write_bindings(bindings: &[WireBinding], out: &mut String) {
    out.push('[');
    for (i, b) in bindings.iter().enumerate() {
        out.push_str(if i == 0 { "{\"name\":" } else { ",{\"name\":" });
        write_str(&b.name, out);
        out.push_str(",\"value\":");
        write_u64(b.value, out);
        out.push('}');
    }
    out.push(']');
}

/// Writes `request` if it is one of the typed lines; `false` (and `out`
/// untouched) if it is `serde_json`'s.
fn write_request(request: &Request, out: &mut String) -> bool {
    let hot = matches!(
        request.verb,
        Verb::Submit | Verb::Reserve | Verb::Poll | Verb::Result
    );
    if !hot || request.design.is_some() || request.source.is_some() || request.halt.is_some() {
        return false;
    }
    out.push_str("{\"verb\":\"");
    out.push_str(request.verb.as_str());
    out.push('"');
    if let Some(job) = &request.job {
        out.push_str(",\"job\":{\"name\":");
        write_str(&job.name, out);
        out.push_str(",\"budget\":");
        write_u64(job.budget, out);
        out.push_str(",\"inputs\":");
        write_bindings(&job.inputs, out);
        out.push_str(",\"state_pokes\":");
        write_bindings(&job.state_pokes, out);
        out.push_str(",\"probes\":[");
        for (i, probe) in job.probes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(probe, out);
        }
        out.push_str("],\"design\":");
        write_opt_str(job.design.as_deref(), out);
        out.push('}');
    }
    if let Some(id) = request.id {
        out.push_str(",\"id\":");
        write_u64(id, out);
    }
    if let Some(max) = request.max {
        out.push_str(",\"max\":");
        write_u64(max, out);
    }
    out.push('}');
    true
}

fn write_result(r: &WireResult, out: &mut String) {
    out.push_str("{\"id\":");
    write_u64(r.id, out);
    out.push_str(",\"name\":");
    write_str(&r.name, out);
    out.push_str(",\"outcome\":");
    write_str(&r.outcome, out);
    out.push_str(",\"error\":");
    write_opt_str(r.error.as_deref(), out);
    out.push_str(",\"outputs\":");
    write_bindings(&r.outputs, out);
    out.push_str(",\"cycles\":");
    write_u64(r.cycles, out);
    out.push_str(",\"admitted_at\":");
    write_u64(r.admitted_at, out);
    out.push_str(",\"finished_at\":");
    write_u64(r.finished_at, out);
    out.push('}');
}

/// The bytes [`write_str`] writes for `s`.
fn str_len(s: &str) -> usize {
    let escaped: usize = s
        .bytes()
        .map(|b| match b {
            b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
            0..=0x1f => 6,
            _ => 1,
        })
        .sum();
    escaped + 2
}

fn u64_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |digits| digits as usize + 1)
}

/// The bytes the typed writer spends on `r` as one element of a
/// response's `result` or `more`: what a batch counts against
/// [`MAX_LINE`](crate::MAX_LINE) before it claims the job.
pub(crate) fn result_len(r: &JobResult) -> usize {
    let outputs: usize = r
        .outputs
        .iter()
        .map(|(name, value)| r#"{"name":,"value":}"#.len() + str_len(name) + u64_len(*value))
        .sum();
    r#"{"id":,"name":,"outcome":,"error":,"outputs":[],"cycles":,"admitted_at":,"finished_at":}"#
        .len()
        + u64_len(r.id.0)
        + str_len(&r.name)
        + str_len(outcome_str(r.outcome))
        + r.error.as_deref().map_or("null".len(), str_len)
        + outputs
        + r.outputs.len().saturating_sub(1)
        + u64_len(r.cycles)
        + u64_len(r.admitted_at)
        + u64_len(r.finished_at)
}

/// Writes `response` if it is one of the typed lines; `false` (and
/// `out` untouched) if it is `serde_json`'s.
fn write_response(response: &Response, out: &mut String) -> bool {
    let Response {
        ok,
        kind,
        id,
        result,
        more,
        stats: None,
        pong: None,
        design: None,
        designs: None,
        metrics: None,
        exposition: None,
        timeline: None,
        error,
    } = response
    else {
        return false;
    };
    out.push_str(if *ok {
        "{\"ok\":true,\"kind\":"
    } else {
        "{\"ok\":false,\"kind\":"
    });
    write_str(kind, out);
    if let Some(id) = id {
        out.push_str(",\"id\":");
        write_u64(*id, out);
    }
    if let Some(r) = result {
        out.push_str(",\"result\":");
        write_result(r, out);
    }
    if let Some(more) = more {
        out.push_str(",\"more\":[");
        for (i, r) in more.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_result(r, out);
        }
        out.push(']');
    }
    if let Some(error) = error {
        out.push_str(",\"error\":");
        write_str(error, out);
    }
    out.push('}');
    true
}

/// Stores a field's value; `None` if the key already had one (the
/// reference keeps the first of a repeated key — its call).
fn set<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    slot.replace(value).is_none().then_some(())
}

/// The typed reader: a pull parser over one line that builds the hot
/// envelopes directly. Every method returns `None` to *defer* — the
/// caller then hands the whole line to `serde_json` — so nothing here
/// produces an error of its own, and everything it does accept must be
/// what the reference would have decoded.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Option<()> {
        (self.peek()? == byte).then(|| self.pos += 1)
    }

    fn literal(&mut self, word: &str) -> Option<()> {
        self.text.as_bytes()[self.pos..]
            .starts_with(word.as_bytes())
            .then(|| self.pos += word.len())
    }

    /// Only trailing whitespace may follow the value.
    fn end(&mut self) -> Option<()> {
        self.ws();
        (self.pos == self.text.len()).then_some(())
    }

    /// The text up to the next `"` or `\`, and which of the two ended
    /// it; the reader moves past both. Neither byte occurs inside a
    /// multi-byte character, so the cut is a character boundary.
    fn plain_run(&mut self) -> Option<(&'a str, u8)> {
        let rest = self.text.get(self.pos..)?;
        let n = rest.bytes().position(|b| b == b'"' || b == b'\\')?;
        self.pos += n + 1;
        Some((&rest[..n], rest.as_bytes()[n]))
    }

    /// An object key, borrowed: an escaped key is the reference's.
    fn key(&mut self) -> Option<&'a str> {
        self.eat(b'"')?;
        match self.plain_run()? {
            (key, b'"') => Some(key),
            _ => None,
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let (run, end) = self.plain_run()?;
            out.push_str(run);
            if end == b'"' {
                return Some(out);
            }
            out.push(match self.peek()? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self.text.as_bytes().get(self.pos + 1..self.pos + 5)?;
                    let mut code = 0;
                    for &h in hex {
                        code = code * 16 + char::from(h).to_digit(16)?;
                    }
                    self.pos += 4;
                    // A surrogate half is no character: the reference
                    // rejects it.
                    char::from_u32(code)?
                }
                _ => return None,
            });
            self.pos += 1;
        }
    }

    /// A run of digits that fits a `u64`; a sign, a fraction, an
    /// exponent or an overflow is the reference's to judge.
    fn u64(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut value = 0u64;
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            value = value
                .checked_mul(10)?
                .checked_add(u64::from(digit - b'0'))?;
            self.pos += 1;
        }
        (self.pos > start && !matches!(self.peek(), Some(b'.' | b'e' | b'E'))).then_some(value)
    }

    fn nullable<T>(&mut self, value: impl FnOnce(&mut Self) -> Option<T>) -> Option<Option<T>> {
        if self.peek()? == b'n' {
            self.literal("null").map(|()| None)
        } else {
            value(self).map(Some)
        }
    }

    /// `{ "key": <field(key)>, ... }`.
    fn object(&mut self, mut field: impl FnMut(&mut Self, &'a str) -> Option<()>) -> Option<()> {
        self.eat(b'{')?;
        self.ws();
        if self.eat(b'}').is_some() {
            return Some(());
        }
        loop {
            self.ws();
            let key = self.key()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            field(self, key)?;
            self.ws();
            if self.eat(b'}').is_some() {
                return Some(());
            }
            self.eat(b',')?;
        }
    }

    /// `[ <item>, ... ]`.
    fn array<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.eat(b'[')?;
        self.ws();
        let mut items = Vec::new();
        if self.eat(b']').is_some() {
            return Some(items);
        }
        loop {
            self.ws();
            items.push(item(self)?);
            self.ws();
            if self.eat(b']').is_some() {
                return Some(items);
            }
            self.eat(b',')?;
        }
    }

    fn bindings(&mut self) -> Option<Vec<WireBinding>> {
        self.array(|r| {
            let (mut name, mut value) = (None, None);
            r.object(|r, key| match key {
                "name" => set(&mut name, r.string()?),
                "value" => set(&mut value, r.u64()?),
                _ => None,
            })?;
            Some(WireBinding {
                name: name?,
                value: value?,
            })
        })
    }

    fn job(&mut self) -> Option<WireJob> {
        let (mut name, mut budget, mut design) = (None, None, None);
        let (mut inputs, mut state_pokes, mut probes) = (None, None, None);
        self.object(|r, key| match key {
            "name" => set(&mut name, r.string()?),
            "budget" => set(&mut budget, r.u64()?),
            "inputs" => set(&mut inputs, r.bindings()?),
            "state_pokes" => set(&mut state_pokes, r.bindings()?),
            "probes" => set(&mut probes, r.array(Self::string)?),
            "design" => set(&mut design, r.nullable(Self::string)?),
            _ => None,
        })?;
        Some(WireJob {
            name: name?,
            budget: budget?,
            inputs: inputs.unwrap_or_default(),
            state_pokes: state_pokes.unwrap_or_default(),
            probes: probes.unwrap_or_default(),
            design: design.flatten(),
        })
    }

    fn result(&mut self) -> Option<WireResult> {
        let (mut id, mut name, mut outcome, mut error) = (None, None, None, None);
        let (mut outputs, mut cycles, mut admitted_at, mut finished_at) = (None, None, None, None);
        self.object(|r, key| match key {
            "id" => set(&mut id, r.u64()?),
            "name" => set(&mut name, r.string()?),
            "outcome" => set(&mut outcome, r.string()?),
            "error" => set(&mut error, r.nullable(Self::string)?),
            "outputs" => set(&mut outputs, r.bindings()?),
            "cycles" => set(&mut cycles, r.u64()?),
            "admitted_at" => set(&mut admitted_at, r.u64()?),
            "finished_at" => set(&mut finished_at, r.u64()?),
            _ => None,
        })?;
        Some(WireResult {
            id: id?,
            name: name?,
            outcome: outcome?,
            error: error?,
            outputs: outputs?,
            cycles: cycles?,
            admitted_at: admitted_at?,
            finished_at: finished_at?,
        })
    }

    fn request(mut self) -> Option<Request> {
        let (mut verb, mut job, mut id, mut max) = (None, None, None, None);
        self.ws();
        self.object(|r, key| match key {
            "verb" => set(
                &mut verb,
                match r.key()? {
                    "submit" => Verb::Submit,
                    "reserve" => Verb::Reserve,
                    "poll" => Verb::Poll,
                    "result" => Verb::Result,
                    _ => return None,
                },
            ),
            "job" => set(&mut job, r.job()?),
            "id" => set(&mut id, r.u64()?),
            "max" => set(&mut max, r.u64()?),
            _ => None,
        })?;
        self.end()?;
        Some(Request {
            job,
            id,
            max,
            ..Request::base(verb?)
        })
    }

    fn response(mut self) -> Option<Response> {
        let (mut ok, mut kind, mut id, mut error) = (None, None, None, None);
        let (mut result, mut more) = (None, None);
        self.ws();
        self.object(|r, key| match key {
            "ok" => {
                let value = r.peek()? == b't';
                r.literal(if value { "true" } else { "false" })?;
                set(&mut ok, value)
            }
            "kind" => set(&mut kind, r.string()?),
            "id" => set(&mut id, r.u64()?),
            "result" => set(&mut result, r.result()?),
            "more" => set(&mut more, r.array(Self::result)?),
            "error" => set(&mut error, r.string()?),
            _ => None,
        })?;
        self.end()?;
        Some(Response {
            id,
            result,
            more,
            error,
            ..Response::base(ok?, kind?)
        })
    }
}

/// What can go wrong on one client-side protocol exchange.
///
/// Every failure mode a [`ServeClient`](crate::ServeClient) call can hit
/// is distinguished here, so callers routing across many servers (the
/// [`ShardRouter`](crate::ShardRouter)) can tell a transport fault —
/// which condemns the whole connection — from a per-request server-side
/// verdict, which leaves the connection healthy.
#[derive(Debug)]
pub enum ProtocolError {
    /// Transport-level failure (connect, write, or read).
    Io(std::io::Error),
    /// The peer closed the connection cleanly at a line boundary.
    ConnectionClosed,
    /// The peer died *mid-line*: EOF arrived before the terminating
    /// newline. The partial line is preserved for diagnosis — it shows
    /// exactly how far the peer got before the cut.
    TruncatedLine {
        /// The bytes received before EOF, newline never seen.
        partial: String,
    },
    /// A complete line arrived but is not a valid protocol envelope.
    Malformed {
        /// The offending line (trimmed).
        line: String,
        /// Why it failed to parse.
        reason: String,
    },
    /// The server answered `ok:false`: a per-request failure. The
    /// connection stays usable.
    Server(String),
    /// A well-formed `ok:true` response was missing the payload its
    /// kind promises (a server bug, not a transport fault).
    MissingPayload {
        /// The response kind that arrived without its payload.
        kind: &'static str,
    },
    /// A pipelined submit's ack was not `submitted` with the id the
    /// client stamped it with. The client had already returned that id,
    /// so it no longer agrees with the server on what it submitted.
    SubmitRefused {
        /// The id the submit was stamped with.
        id: u64,
        /// The server's error, or what it answered instead.
        reason: String,
    },
    /// An earlier fatal error condemned this connection, so the call
    /// was refused without writing anything: after a reply cut short or
    /// left partly unread, the next line read would be the wrong
    /// request's answer.
    Broken {
        /// The error that condemned the connection, as displayed.
        cause: String,
    },
}

impl ProtocolError {
    /// Whether this error condemns the connection: everything except a
    /// per-request [`Server`](Self::Server) verdict means the transport
    /// or the peer can no longer be trusted, and a router should treat
    /// the host as failed.
    pub fn is_fatal(&self) -> bool {
        !matches!(self, ProtocolError::Server(_))
    }

    /// The partial line of a [`TruncatedLine`](Self::TruncatedLine),
    /// if that is what this is.
    pub fn truncated_partial(&self) -> Option<&str> {
        match self {
            ProtocolError::TruncatedLine { partial } => Some(partial),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o failure: {e}"),
            ProtocolError::ConnectionClosed => {
                write!(f, "server closed the connection")
            }
            ProtocolError::TruncatedLine { partial } => write!(
                f,
                "connection died mid-line after {} bytes: {partial:?}",
                partial.len()
            ),
            ProtocolError::Malformed { line, reason } => {
                write!(f, "malformed response line {line:?}: {reason}")
            }
            ProtocolError::Server(message) => write!(f, "server error: {message}"),
            ProtocolError::MissingPayload { kind } => {
                write!(f, "`{kind}` response arrived without its payload")
            }
            ProtocolError::SubmitRefused { id, reason } => {
                write!(f, "pipelined submit {id} was not acknowledged: {reason}")
            }
            ProtocolError::Broken { cause } => {
                write!(f, "connection unusable after an earlier failure: {cause}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_and_tolerate_omitted_fields() {
        let job = WireJob {
            name: "sum-5".to_string(),
            budget: 27,
            inputs: vec![],
            state_pokes: vec![WireBinding {
                name: "x15".to_string(),
                value: 5,
            }],
            probes: vec!["a0".to_string()],
            design: None,
        };
        for req in [
            Request::submit(job.clone()),
            Request::submit(job.clone().on_design("sha3")),
            Request::poll(3),
            Request::result(None),
            Request::result(Some(7)),
            Request::results(16),
            Request::stats(),
            Request::register("sha3", "circuit S :\n  ...", "done"),
            Request::designs(),
            Request::ping(),
            Request::metrics(),
            Request::timeline(12),
        ] {
            let line = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req, "{line}");
        }
        // A minimal hand-typed submission parses: empty lists omitted.
        let hand = r#"{"verb":"submit","job":{"name":"j","budget":9}}"#;
        let req: Request = serde_json::from_str(hand).unwrap();
        assert_eq!(req.verb, Verb::Submit);
        let j = req.job.unwrap();
        assert_eq!((j.name.as_str(), j.budget), ("j", 9));
        assert!(j.inputs.is_empty() && j.state_pokes.is_empty() && j.probes.is_empty());
        // Unknown verbs fail loudly.
        assert!(serde_json::from_str::<Request>(r#"{"verb":"zap"}"#).is_err());
        assert!(serde_json::from_str::<Request>(r#"{"id":3}"#).is_err());
    }

    #[test]
    fn responses_round_trip_and_omit_absent_fields() {
        let r = WireResult {
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
        assert!(r.completed());
        assert_eq!(r.output("a0"), Some(15));
        assert_eq!(r.output("a1"), None);
        for resp in [
            Response::submitted(4),
            Response::pending(4),
            Response::result(r.clone()),
            Response::results(r.clone(), vec![r.clone(), r]),
            Response::registered("sha3"),
            Response::designs(vec![
                WireDesign {
                    name: "default".to_string(),
                    default: true,
                    analysis: WireAnalysis {
                        ops: 12,
                        layers: 3,
                        slots: 20,
                        registers: 2,
                        dead_ops: 0,
                        never_toggling: 1,
                        warnings: 0,
                        activity: 31.0,
                    },
                },
                WireDesign {
                    name: "sha3".to_string(),
                    default: false,
                    analysis: WireAnalysis::default(),
                },
            ]),
            Response::pong(WirePong { uptime_ms: 1234 }),
            {
                let reg = rteaal_telemetry::MetricsRegistry::new();
                reg.counter("sched.admitted").add(3);
                reg.gauge("sched.queue_depth.w0").set(2);
                reg.histogram("serve.dispatch_latency_us").record(17);
                let snap = reg.snapshot();
                let text = snap.prometheus();
                Response::metrics(snap, text)
            },
            Response::timeline(
                9,
                vec![
                    JobEvent {
                        job: 9,
                        stage: rteaal_telemetry::JobStage::Submitted,
                        at_us: 10,
                        worker: Some(0),
                        lane: None,
                        shard: None,
                    },
                    JobEvent {
                        job: 9,
                        stage: rteaal_telemetry::JobStage::Delivered,
                        at_us: 80,
                        worker: None,
                        lane: None,
                        shard: Some(1),
                    },
                ],
            ),
            Response::error("unknown id"),
        ] {
            let line = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, resp, "{line}");
        }
        // Compactness: absent options leave no key behind.
        let line = serde_json::to_string(&Response::submitted(4)).unwrap();
        assert_eq!(line, r#"{"ok":true,"kind":"submitted","id":4}"#);
    }

    #[test]
    fn a_jobs_lines_take_the_typed_path_and_the_rest_defer() {
        // `tests/codec_props.rs` holds the typed path to the reference
        // from outside, where a path that always deferred would pass
        // too: pin here which lines it owns.
        let job = WireJob {
            name: "j\"7".to_string(),
            budget: 27,
            inputs: vec![],
            state_pokes: vec![WireBinding {
                name: "x15".to_string(),
                value: u64::MAX,
            }],
            probes: vec!["a0".to_string()],
            design: None,
        };
        let result = WireResult {
            id: 4,
            name: "j\"7".to_string(),
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
        for request in [
            Request::submit(job.clone()),
            Request::submit(job.on_design("sha3")),
            Request::poll(3),
            Request::result(None),
            Request::result(Some(7)),
            Request::results(16),
        ] {
            let mut line = String::new();
            assert!(write_request(&request, &mut line), "{request:?}");
            assert_eq!(line, serde_json::to_string(&request).unwrap());
            assert_eq!(Reader::new(&line).request(), Some(request), "{line}");
        }
        for response in [
            Response::submitted(4),
            Response::pending(4),
            Response::result(result.clone()),
            Response::results(result.clone(), vec![result]),
            Response::error("unknown id"),
        ] {
            let mut line = String::new();
            assert!(write_response(&response, &mut line), "{response:?}");
            assert_eq!(line, serde_json::to_string(&response).unwrap());
            assert_eq!(Reader::new(&line).response(), Some(response), "{line}");
        }
        // Cold verbs and kinds are the reference's, both ways...
        let mut line = String::new();
        assert!(!write_request(&Request::timeline(7), &mut line));
        assert!(!write_request(&Request::register("d", "s", "h"), &mut line));
        assert!(!write_response(&Response::registered("d"), &mut line));
        assert!(line.is_empty(), "a deferred write leaves the buffer alone");
        for deferred in [
            r#"{"verb":"stats"}"#,
            r#"{"verb":"timeline","id":7}"#,
            // ...and so is anything odd about a hot one.
            r#"{"verb":"poll","id":7,"halt":"h"}"#,
            r#"{"verb":"poll","id":7,"id":7}"#,
            r#"{"verb":"poll","id":null}"#,
            r#"{"verb":"poll","\u0069d":7}"#,
            r#"{"verb":"poll","id":18446744073709551616}"#,
            r#"{"verb":"poll","id":7} {}"#,
            r#"{"verb":"result","max":null}"#,
            r#"{"verb":"result","max":-1}"#,
        ] {
            assert_eq!(Reader::new(deferred).request(), None, "{deferred}");
        }
        for deferred in [
            r#"{"ok":true,"kind":"registered","design":"d"}"#,
            r#"{"ok":true,"kind":"submitted","id":4,"pong":null}"#,
            r#"{"ok":true,"kind":"result","id":4,"result":null}"#,
            r#"{"ok":true,"kind":"result","id":4,"more":null}"#,
            r#"{"ok":true,"kind":"result","id":4,"more":[null]}"#,
        ] {
            assert_eq!(Reader::new(deferred).response(), None, "{deferred}");
        }
    }

    #[test]
    fn the_typed_reader_takes_a_batched_result_line() {
        let line = concat!(
            r#"{"ok":true,"kind":"result","id":4,"result":{"id":4,"name":"a","#,
            r#""outcome":"completed","error":null,"outputs":[{"name":"a0","value":15}],"#,
            r#""cycles":20,"admitted_at":2,"finished_at":22},"more":[{"id":9,"name":"b","#,
            r#""outcome":"evicted","error":null,"outputs":[],"cycles":64,"admitted_at":0,"#,
            r#""finished_at":64},{"id":2,"name":"c","outcome":"rejected","error":"no","#,
            r#""outputs":[],"cycles":0,"admitted_at":0,"finished_at":0}]}"#
        );
        let response = Reader::new(line).response().expect("typed, not deferred");
        assert_eq!(response, serde_json::from_str::<Response>(line).unwrap());
        assert_eq!(response.result.map(|r| r.id), Some(4));
        let more: Vec<u64> = response.more.unwrap().iter().map(|r| r.id).collect();
        assert_eq!(more, [9, 2]);
        let request = Reader::new(r#"{"verb":"result","max":16}"#).request();
        assert_eq!(request, Some(Request::results(16)));
    }

    #[test]
    fn a_batch_of_one_is_the_one_job_line() {
        let r = WireResult::from(job_result(3, "one", vec![("a0".to_string(), 15)]));
        let (mut one, mut batch) = (String::new(), String::new());
        Response::result(r.clone()).encode(&mut one);
        Response::results(r, Vec::new()).encode(&mut batch);
        assert_eq!(one, batch);
        assert!(!batch.contains("more"), "{batch}");
    }

    fn job_result(id: u64, name: &str, outputs: Vec<(String, u64)>) -> JobResult {
        JobResult {
            id: rteaal_sched::JobId(id),
            trace: id,
            name: name.to_string(),
            outputs,
            outcome: JobOutcome::Completed,
            error: None,
            cycles: 20,
            admitted_at: 2,
            finished_at: 22,
            lane: 0,
        }
    }

    #[test]
    fn result_len_is_the_bytes_the_writer_spends() {
        let nasty = "\"\\\n\r\t\u{0}\u{1f}\u{7f}é→𝄞/ ";
        let mut cases = vec![
            job_result(0, "", Vec::new()),
            job_result(u64::MAX, nasty, vec![(nasty.to_string(), u64::MAX)]),
            job_result(
                10,
                "sum-7",
                (0..5).map(|i| (format!("x{i}"), 10u64.pow(i))).collect(),
            ),
        ];
        let mut rejected = job_result(9, "r", Vec::new());
        rejected.outcome = JobOutcome::Rejected;
        rejected.error = Some(nasty.to_string());
        cases.push(rejected);
        let mut evicted = job_result(99_999, "e", Vec::new());
        evicted.outcome = JobOutcome::Evicted;
        evicted.finished_at = 1 << 40;
        cases.push(evicted);
        for r in cases {
            let mut line = String::new();
            let expected = result_len(&r);
            write_result(&WireResult::from(r), &mut line);
            assert_eq!(expected, line.len(), "{line}");
        }
    }

    #[test]
    fn wire_job_converts_to_and_from_sched_jobs() {
        let job: Job = Job::new("j", 64)
            .with_input("limit", 5)
            .with_state_poke("x15", 7)
            .with_probe("a0");
        let wire = WireJob::from(&job);
        let back: Job = wire.into();
        assert_eq!(back.name, job.name);
        assert_eq!(back.budget, job.budget);
        assert_eq!(back.inputs, job.inputs);
        assert_eq!(back.state_pokes, job.state_pokes);
        assert_eq!(back.probes, job.probes);
    }
}
