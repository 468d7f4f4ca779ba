//! The TCP front end: a listener that speaks the line-delimited-JSON
//! protocol of [`crate::protocol`] over one thread per connection, plus
//! the matching blocking client.
//!
//! The server is deliberately plain `std::net` — the build environment
//! vendors no async runtime, and the pool's workers are already the
//! concurrency that matters; connection threads only parse lines and
//! block on their session's inbox of finished jobs.
//!
//! Both ends write once per exchange: the client sends its queued
//! submits with the request that follows them, and the server answers a
//! burst of requests with one write, made when no complete request line
//! is left unread. Neither end ever has a small write in flight when it
//! makes the next, so Nagle's algorithm never holds one back for a
//! delayed ACK; both set `TCP_NODELAY` all the same.

use crate::pool::{Inbox, Reservation, ServerPool, RESERVE_BLOCK};
use crate::protocol::{
    result_len, ProtocolError, Request, Response, Verb, WireAnalysis, WireDesign, WireJob,
    WirePong, WireResult, WireStats,
};
use rteaal_core::Compiler;
use rteaal_kernels::{KernelConfig, KernelKind};
use rteaal_telemetry::{Counter, JobEvent, MetricsSnapshot};
use std::collections::{HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// A socket front end over a [`ServerPool`].
#[derive(Debug)]
pub struct SocketServer {
    pool: Arc<ServerPool>,
    listener: TcpListener,
}

impl SocketServer {
    /// Binds a listener (use port 0 to let the OS pick) over a pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(pool: ServerPool, addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(SocketServer {
            pool: Arc::new(pool),
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (tells clients the OS-picked port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections forever, one handler thread per client, named
    /// `rteaal-conn`. Accept errors on individual connections are
    /// skipped, and a connection the host refuses a thread for is
    /// closed; the loop only ends (with an error) if the listener itself
    /// fails.
    pub fn serve_forever(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let Ok(stream) = stream else { continue };
            let pool = Arc::clone(&self.pool);
            let _ = std::thread::Builder::new()
                .name("rteaal-conn".to_string())
                .spawn(move || {
                    let _ = handle_client(&pool, stream);
                });
        }
        Ok(())
    }

    /// Detaches the accept loop onto a background thread and returns
    /// the bound address — the one-call server start for tests, smokes,
    /// and examples.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn spawn(self) -> io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        std::thread::Builder::new()
            .name("rteaal-serve-accept".to_string())
            .spawn(move || {
                let _ = self.serve_forever();
            })?;
        Ok(addr)
    }
}

/// Longest line either end will buffer, newline included: over three
/// times the largest `register` line of the design corpus (the 23 k-op
/// chip's FIRRTL source is 1.1 MB; a test below holds that margin). A
/// batched `result` answer stays under it.
pub const MAX_LINE: usize = 4 << 20;

/// What a batched `result` line spends besides its results: the
/// envelope around them at its widest id, and the newline.
const BATCH_ENVELOPE: usize =
    r#"{"ok":true,"kind":"result","id":18446744073709551615,"result":,"more":[]}"#.len() + 1;

/// How many finished jobs [`ServeClient::next_result`] asks for in one
/// exchange; the server sends only those already finished.
const RESULT_BATCH: u64 = 64;

/// How many submits [`ServeClient`] queues before it sends them and
/// reads their acks on its own: a burst never leaves more unread acks
/// than fit in the socket buffers, so it cannot wedge both ends in
/// `write`.
const PIPELINE_DEPTH: usize = 64;

/// The longest a dropped [`ServeClient`] waits on the socket at a time
/// while it hands the server its queued submits.
const DROP_WAIT: Duration = Duration::from_secs(1);

/// How [`read_line`] left the buffer.
#[derive(Debug, PartialEq, Eq)]
enum Line {
    /// Nothing before the end of the stream.
    Eof,
    /// A line, its `\n` included.
    Complete,
    /// The stream ended mid-line: the buffer holds what came.
    Partial,
    /// No `\n` within [`MAX_LINE`] bytes; the buffer holds those bytes
    /// and the rest of the line is still unread.
    Oversize,
}

/// Reads the next line into `buf` (cleared first), never buffering more
/// than [`MAX_LINE`] bytes of it.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<Line> {
    buf.clear();
    reader
        .by_ref()
        .take(MAX_LINE as u64)
        .read_until(b'\n', buf)?;
    Ok(match buf.last() {
        None => Line::Eof,
        Some(b'\n') => Line::Complete,
        Some(_) if buf.len() == MAX_LINE => Line::Oversize,
        Some(_) => Line::Partial,
    })
}

/// The line as text, or the `InvalidData` error `BufRead::read_line`
/// reports for the same bytes.
fn utf8(line: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// One connection's server-side state.
struct Session {
    /// Where this connection's finished jobs wait. It lives on after the
    /// session until the last of them is published.
    inbox: Arc<Inbox>,
    /// This connection's submissions not claimed yet, by pool-global id.
    /// `poll`/`result` resolve ids against these (one connection per
    /// client: a client can only claim results it submitted).
    outstanding: HashSet<u64>,
    /// The ids of its latest `reserve` not stamped on a submit yet.
    reserved: Option<Reservation>,
    /// Results the session's answers have carried
    /// (`serve.socket.results_answered`).
    results_answered: Arc<Counter>,
}

/// Serves one client connection: a response line for every request
/// line, in order, until EOF. The answers to a burst of requests go out
/// in one write, once no complete request line is left in the read
/// buffer — never between the acks of pipelined submits and the
/// blocking `result` after them. Malformed requests get `kind:"error"`
/// responses and the connection stays usable; only I/O failures and a
/// line longer than [`MAX_LINE`] end the session.
fn handle_client(pool: &ServerPool, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let metrics = pool.metrics();
    let mut session = Session {
        inbox: pool.open_inbox(),
        outstanding: HashSet::new(),
        reserved: None,
        results_answered: metrics.counter("serve.socket.results_answered"),
    };
    let answers = metrics.counter("serve.socket.answers");
    // One buffer per direction for the whole session; `out` holds the
    // answers not written yet.
    let (mut line, mut out) = (Vec::new(), String::new());
    loop {
        if !out.is_empty() && !reader.buffer().contains(&b'\n') {
            writer.write_all(out.as_bytes())?;
            out.clear();
            answers.inc();
        }
        let text = match read_line(&mut reader, &mut line) {
            Ok(Line::Eof) => return Ok(()),
            Ok(Line::Oversize) => {
                pool.metrics().counter("serve.rejected_oversize").inc();
                Response::error(format!("request line exceeds {MAX_LINE} bytes")).encode(&mut out);
                out.push('\n');
                writer.write_all(out.as_bytes())?;
                // Closing with the rest of the line unread would reset
                // the connection under the answer: end our side, then
                // let a bounded stretch of what the client already sent
                // drain.
                writer.shutdown(Shutdown::Write)?;
                io::copy(&mut reader.take(MAX_LINE as u64), &mut io::sink())?;
                return Ok(());
            }
            Ok(Line::Complete | Line::Partial) => utf8(&line),
            Err(e) => Err(e),
        };
        let text = match text {
            Ok(text) => text,
            Err(e) => {
                // The session ends on this line, but the pool has taken
                // the jobs of the lines before it: answer those first.
                let _ = writer.write_all(out.as_bytes());
                return Err(e);
            }
        };
        if text.trim().is_empty() {
            continue;
        }
        let response = match Request::decode(text) {
            Ok(request) => respond(pool, &mut session, request),
            Err(e) => Response::error(format!("bad request: {e}")),
        };
        response.encode(&mut out);
        out.push('\n');
    }
}

/// Executes one request against the pool and this connection's state.
fn respond(pool: &ServerPool, session: &mut Session, request: Request) -> Response {
    let outstanding = &mut session.outstanding;
    match request.verb {
        Verb::Submit => {
            let Some(job) = request.job else {
                return Response::error("submit needs a `job`");
            };
            let design = job.design.clone();
            let inbox = &session.inbox;
            let id = match request.id {
                None => pool.submit_into(inbox, design.as_deref(), job.into()),
                Some(id) => {
                    let stamped = session.reserved.as_mut().and_then(|reservation| {
                        pool.submit_reserved(reservation, id, inbox, design.as_deref(), job.into())
                    });
                    let Some(id) = stamped else {
                        return Response::error(format!(
                            "id {id} is not the next id reserved on this connection"
                        ));
                    };
                    id
                }
            };
            outstanding.insert(id);
            Response::submitted(id)
        }
        Verb::Reserve => {
            let reservation = pool.reserve();
            let first = reservation.ids().start;
            session.reserved = Some(reservation);
            Response::reserved(first)
        }
        Verb::Poll => {
            let Some(id) = request.id else {
                return Response::error("poll needs an `id`");
            };
            if !outstanding.contains(&id) {
                return Response::error(format!("unknown job id {id} on this connection"));
            }
            match session.inbox.take(id) {
                Some(result) => {
                    outstanding.remove(&id);
                    session.results_answered.inc();
                    Response::result(WireResult::from(result))
                }
                None => Response::pending(id),
            }
        }
        Verb::Result => match request.id {
            Some(id) => {
                if !outstanding.remove(&id) {
                    return Response::error(format!("unknown job id {id} on this connection"));
                }
                session.results_answered.inc();
                Response::result(WireResult::from(session.inbox.wait_for(id)))
            }
            // No id: once the connection has a finished job and at least
            // as many finished as still wait for a lane, up to `max` of
            // them, while the line stays under `MAX_LINE` (each job after
            // the first pays a comma).
            None => {
                if outstanding.is_empty() {
                    return Response::error("no outstanding jobs on this connection");
                }
                let max = request
                    .max
                    .map_or(1, |max| usize::try_from(max).unwrap_or(usize::MAX));
                let mut room = MAX_LINE - BATCH_ENVELOPE;
                let batch = session.inbox.wait_batch(max, |r| {
                    let cost = result_len(r) + 1;
                    let fits = cost < room;
                    room = room.saturating_sub(cost);
                    fits
                });
                for r in &batch {
                    outstanding.remove(&r.id.0);
                }
                session.results_answered.add(batch.len() as u64);
                let mut batch = batch.into_iter().map(WireResult::from);
                let Some(first) = batch.next() else {
                    return Response::error("no outstanding jobs on this connection");
                };
                Response::results(first, batch.collect())
            }
        },
        Verb::Stats => Response::stats(WireStats::from(&pool.stats())),
        Verb::Register => {
            let (Some(design), Some(source), Some(halt)) =
                (request.design, request.source, request.halt)
            else {
                return Response::error("register needs `design`, `source`, and `halt`");
            };
            // Compiling in the connection thread keeps workers serving;
            // the design becomes routable the moment `register` returns.
            // Every failure of the compiler, the static verifier's
            // included, is a typed error, and no stage of it recurses on
            // anything the parser does not bound: a hostile source comes
            // back as a refusal on this thread's default stack.
            let compiled =
                match Compiler::new(KernelConfig::new(KernelKind::Psu)).compile_str(&source) {
                    Ok(compiled) => compiled,
                    Err(e) => {
                        return Response::error(format!("design `{design}` failed to compile: {e}"))
                    }
                };
            match pool.register(&design, &compiled, &halt) {
                Ok(()) => Response::registered(design),
                Err(e) => Response::error(e.to_string()),
            }
        }
        Verb::Designs => Response::designs(
            pool.design_infos()
                .into_iter()
                .enumerate()
                .map(|(i, info)| WireDesign {
                    name: info.name,
                    default: i == 0,
                    analysis: WireAnalysis::from(&info.analysis),
                })
                .collect(),
        ),
        Verb::Ping => Response::pong(WirePong {
            uptime_ms: pool.uptime().as_millis() as u64,
        }),
        Verb::Metrics => {
            let snapshot = pool.metrics().snapshot();
            let exposition = snapshot.prometheus();
            Response::metrics(snapshot, exposition)
        }
        Verb::Timeline => {
            let Some(id) = request.id else {
                return Response::error("timeline needs an `id`");
            };
            Response::timeline(id, pool.timeline(id))
        }
    }
}

/// A blocking client for the socket protocol — submit jobs, poll or
/// wait for results, register designs, read server stats. One instance
/// per connection.
///
/// Every exchange returns a typed [`ProtocolError`] on failure: a
/// connection that dies mid-response surfaces as
/// [`ProtocolError::TruncatedLine`] carrying the partial line, a clean
/// close as [`ProtocolError::ConnectionClosed`], and a per-request
/// server-side refusal as [`ProtocolError::Server`] (the only
/// non-fatal kind — the connection stays usable after it). Every other
/// error condemns the connection: each later call fails with
/// [`ProtocolError::Broken`] and writes nothing, since a reply left
/// partly unread would otherwise answer the next request.
///
/// [`submit`](Self::submit) never waits for the server's ack: the
/// client reserves a block of pool-global ids (one `reserve` exchange
/// per 1 024 submits), stamps each submit with the next of them,
/// returns that id at once and queues the line. A queued submit reaches
/// the wire with the client's next request — whichever call makes it —
/// or on `flush`, on drop, or when 64 submits are
/// queued; its ack is read just before that request's answer, and a
/// fault the ack would have shown surfaces on that call. Until then the
/// returned id is only a promise: a client that submits and then waits
/// elsewhere leaves the job unsent, so call `flush` first. A caller
/// that must know at once whether the connection is alive flushes too:
/// the [`ShardRouter`](crate::ShardRouter) does after placing the
/// first job on an idle shard, so a dead shard fails that placement
/// rather than a later poll. Drop sends what is still queued and waits
/// at most a second at a time for the server to take it, without
/// learning whether it did. A server that refuses `reserve` fails the
/// submit with [`ProtocolError::Server`].
///
/// [`next_result`](Self::next_result) takes the connection's finished
/// jobs a batch per exchange and hands them out one call at a time. The
/// server answers the exchange once the connection has a finished job
/// and at least as many finished as still wait for a lane: at the first
/// completion when nothing waits, later under a backlog, when an
/// earlier answer would not free a lane any sooner. With 16 jobs in
/// flight on 8 lanes that is about four jobs per exchange.
/// [`poll`](Self::poll) and [`result`](Self::result) find a job already
/// delivered that way without asking the server.
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The queued submit lines, then the request that carries them:
    /// what the next write sends.
    outgoing: String,
    /// The ids the queued submits are stamped with, in order.
    queued: Vec<u64>,
    /// Reserved ids not stamped on a submit yet.
    reserved: Range<u64>,
    /// The incoming line, reused across calls.
    reply: Vec<u8>,
    /// Finished jobs a batched `result` delivered ahead of the calls
    /// that return them, oldest first.
    ready: VecDeque<WireResult>,
    /// The fatal error that condemned the connection, once one has.
    broken: Option<String>,
}

impl ServeClient {
    /// Connects to a running [`SocketServer`].
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] on connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ProtocolError> {
        Self::over(TcpStream::connect(addr)?)
    }

    /// Connects with a deadline on the connect itself, then bounds every
    /// exchange by the same `timeout` (see
    /// [`set_read_timeout`](Self::set_read_timeout)). A host that drops
    /// connection attempts fails this call after about `timeout`, not
    /// after the kernel's connect timeout of minutes.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] on connect failure or a lapsed deadline.
    pub(crate) fn connect_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<Self, ProtocolError> {
        let client = Self::over(TcpStream::connect_timeout(&addr, timeout)?)?;
        client.set_read_timeout(Some(timeout))?;
        Ok(client)
    }

    /// A client over an open connection.
    fn over(stream: TcpStream) -> Result<Self, ProtocolError> {
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            outgoing: String::new(),
            queued: Vec::new(),
            reserved: 0..0,
            reply: Vec::new(),
            ready: VecDeque::new(),
            broken: None,
        })
    }

    /// Bounds how long any single exchange may wait for the server's
    /// response line (`None` = wait forever). A lapsed deadline
    /// surfaces as a fatal [`ProtocolError::Io`] — the router's
    /// hung-host detector.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Io`] if the socket rejects the option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ProtocolError> {
        // Reader and writer are clones of one socket, so setting the
        // option on either side covers both.
        self.writer.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Refuses every call once a fatal error has condemned the
    /// connection.
    fn usable(&self) -> Result<(), ProtocolError> {
        match &self.broken {
            Some(cause) => Err(ProtocolError::Broken {
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Runs `step` unless the connection is condemned (then nothing is
    /// written), and lets a fatal error of its own condemn it.
    fn guarded<T>(
        &mut self,
        step: impl FnOnce(&mut Self) -> Result<T, ProtocolError>,
    ) -> Result<T, ProtocolError> {
        self.usable()?;
        let outcome = step(self);
        if let Err(error) = &outcome {
            if error.is_fatal() {
                self.broken = Some(error.to_string());
            }
        }
        outcome
    }

    /// One round trip: the queued submits and `request` in one write,
    /// then the submits' acks and `request`'s answer.
    fn call(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        self.guarded(|client| {
            request.encode(&mut client.outgoing);
            client.outgoing.push('\n');
            client.send_and_ack()?;
            let response = client.read_response()?;
            if !response.ok {
                return Err(ProtocolError::Server(
                    response.error.unwrap_or_else(|| "server error".to_string()),
                ));
            }
            Ok(response)
        })
    }

    /// Writes everything outgoing, then reads the queued submits' acks.
    fn send_and_ack(&mut self) -> Result<(), ProtocolError> {
        let sent = self.writer.write_all(self.outgoing.as_bytes());
        self.outgoing.clear();
        sent?;
        for id in std::mem::take(&mut self.queued) {
            let ack = self.read_response()?;
            if !(ack.ok && ack.kind == "submitted" && ack.id == Some(id)) {
                let reason = ack
                    .error
                    .unwrap_or_else(|| format!("{} {:?}", ack.kind, ack.id));
                return Err(ProtocolError::SubmitRefused { id, reason });
            }
        }
        Ok(())
    }

    /// Sends the queued submits now and reads their acks; a no-op when
    /// none is queued. The caller learns here, not at its next request,
    /// whether the server took its jobs (the
    /// [`ShardRouter`](crate::ShardRouter) flushes a shard's first
    /// placement).
    ///
    /// # Errors
    ///
    /// Transport faults, and [`ProtocolError::SubmitRefused`] for a
    /// submit the server did not take under its id.
    pub(crate) fn flush(&mut self) -> Result<(), ProtocolError> {
        if self.queued.is_empty() {
            return Ok(());
        }
        self.guarded(Self::send_and_ack)
    }

    /// Reads and decodes the next response line, `ok` or not.
    fn read_response(&mut self) -> Result<Response, ProtocolError> {
        let trimmed = match read_line(&mut self.reader, &mut self.reply)? {
            Line::Complete => utf8(&self.reply)?.trim_end(),
            Line::Eof => return Err(ProtocolError::ConnectionClosed),
            // EOF mid-line: the peer died between writing and
            // terminating its response.
            Line::Partial => {
                return Err(ProtocolError::TruncatedLine {
                    partial: utf8(&self.reply)?.to_string(),
                })
            }
            Line::Oversize => {
                return Err(ProtocolError::Malformed {
                    line: String::from_utf8_lossy(&self.reply[..80]).into_owned(),
                    reason: format!("response line exceeds {MAX_LINE} bytes"),
                })
            }
        };
        Response::decode(trimmed).map_err(|e| ProtocolError::Malformed {
            line: trimmed.to_string(),
            reason: e.to_string(),
        })
    }

    /// Submits a job to the server's default design; returns its
    /// pool-global id. The submit is queued, not sent (see
    /// [`ServeClient`]): the server has the job only once a later call
    /// or `flush` returns `Ok`.
    ///
    /// # Errors
    ///
    /// Transport faults and server-side errors, as [`ProtocolError`]:
    /// a refused `reserve` is [`ProtocolError::Server`], and the submit
    /// after it asks for a reservation again.
    pub fn submit(&mut self, job: &rteaal_sched::Job) -> Result<u64, ProtocolError> {
        self.submit_wire(WireJob::from(job))
    }

    /// Submits a job to a named registered design.
    ///
    /// # Errors
    ///
    /// Transport faults and server-side errors, as [`ProtocolError`].
    /// An unknown design name is *not* an error here — it comes back
    /// through the result as a rejected outcome.
    pub fn submit_to(
        &mut self,
        design: &str,
        job: &rteaal_sched::Job,
    ) -> Result<u64, ProtocolError> {
        self.submit_wire(WireJob::from(job).on_design(design))
    }

    fn submit_wire(&mut self, job: WireJob) -> Result<u64, ProtocolError> {
        if self.reserved.is_empty() {
            let first = self
                .call(&Request::reserve())?
                .id
                .ok_or(ProtocolError::MissingPayload { kind: "reserved" })?;
            self.reserved = first..first.saturating_add(RESERVE_BLOCK);
        }
        self.usable()?;
        let id = self.reserved.start;
        self.reserved.start += 1;
        Request::submit_reserved(job, id).encode(&mut self.outgoing);
        self.outgoing.push('\n');
        self.queued.push(id);
        if self.queued.len() >= PIPELINE_DEPTH {
            self.flush()?;
        }
        Ok(id)
    }

    /// Non-blocking result check; `None` while the job is running.
    ///
    /// # Errors
    ///
    /// Transport faults and server-side errors (e.g. an id this
    /// connection never submitted), as [`ProtocolError`].
    pub fn poll(&mut self, id: u64) -> Result<Option<WireResult>, ProtocolError> {
        if let Some(r) = self.take_ready(id) {
            return Ok(Some(r));
        }
        Ok(self.call(&Request::poll(id))?.result)
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    ///
    /// Transport faults and server-side errors, as [`ProtocolError`].
    pub fn result(&mut self, id: u64) -> Result<WireResult, ProtocolError> {
        if let Some(r) = self.take_ready(id) {
            return Ok(r);
        }
        self.call(&Request::result(Some(id)))?
            .result
            .ok_or(ProtocolError::MissingPayload { kind: "result" })
    }

    /// Blocks until *any* of this connection's outstanding jobs
    /// finishes and returns it — results stream back in completion
    /// order, not submission order. One exchange fetches up to 64
    /// finished jobs, answered once at least as many of the
    /// connection's jobs have finished as still wait for a lane (at the
    /// first completion when none waits); the calls after it return
    /// those without touching the socket.
    ///
    /// # Errors
    ///
    /// Transport faults, and a server-side error when nothing is
    /// outstanding, as [`ProtocolError`].
    pub fn next_result(&mut self) -> Result<WireResult, ProtocolError> {
        if let Some(r) = self.ready.pop_front() {
            return Ok(r);
        }
        let response = self.call(&Request::results(RESULT_BATCH))?;
        self.ready.extend(response.more.into_iter().flatten());
        response
            .result
            .ok_or(ProtocolError::MissingPayload { kind: "result" })
    }

    /// Removes job `id` from the delivered-ahead buffer, if it is there.
    fn take_ready(&mut self, id: u64) -> Option<WireResult> {
        let at = self.ready.iter().position(|r| r.id == id)?;
        self.ready.remove(at)
    }

    /// Fetches the pool's counters.
    ///
    /// # Errors
    ///
    /// Transport faults and server-side errors, as [`ProtocolError`].
    pub fn stats(&mut self) -> Result<WireStats, ProtocolError> {
        let response = self.call(&Request::stats())?;
        response
            .stats
            .ok_or(ProtocolError::MissingPayload { kind: "stats" })
    }

    /// Registers a design: the server compiles `source` (FIRRTL text)
    /// under `design`, watching `halt` for per-lane completion.
    ///
    /// # Errors
    ///
    /// Transport faults, compile failures, duplicate names, and unknown
    /// halt signals, as [`ProtocolError`].
    pub fn register(
        &mut self,
        design: &str,
        source: &str,
        halt: &str,
    ) -> Result<(), ProtocolError> {
        self.call(&Request::register(design, source, halt))?;
        Ok(())
    }

    /// Lists the server's registered designs.
    ///
    /// # Errors
    ///
    /// Transport faults and server-side errors, as [`ProtocolError`].
    pub fn designs(&mut self) -> Result<Vec<WireDesign>, ProtocolError> {
        let response = self.call(&Request::designs())?;
        response
            .designs
            .ok_or(ProtocolError::MissingPayload { kind: "designs" })
    }

    /// Liveness probe: the server's uptime. The cheapest full round
    /// trip the protocol offers — what the
    /// [`ShardRouter`](crate::ShardRouter)'s probe uses to decide a host
    /// is really back.
    ///
    /// # Errors
    ///
    /// Transport faults and server-side errors, as [`ProtocolError`].
    pub fn ping(&mut self) -> Result<WirePong, ProtocolError> {
        let response = self.call(&Request::ping())?;
        response
            .pong
            .ok_or(ProtocolError::MissingPayload { kind: "pong" })
    }

    /// Fetches the server's full metrics snapshot plus its
    /// Prometheus-style text exposition.
    ///
    /// # Errors
    ///
    /// Transport faults and server-side errors, as [`ProtocolError`].
    pub fn metrics(&mut self) -> Result<(MetricsSnapshot, String), ProtocolError> {
        let response = self.call(&Request::metrics())?;
        match (response.metrics, response.exposition) {
            (Some(snapshot), Some(exposition)) => Ok((snapshot, exposition)),
            _ => Err(ProtocolError::MissingPayload { kind: "metrics" }),
        }
    }

    /// Fetches one job's retained lifecycle events, oldest first. An
    /// empty vector means the server no longer retains (or never saw)
    /// events for that id.
    ///
    /// # Errors
    ///
    /// Transport faults and server-side errors, as [`ProtocolError`].
    pub fn timeline(&mut self, id: u64) -> Result<Vec<JobEvent>, ProtocolError> {
        let response = self.call(&Request::timeline(id))?;
        response
            .timeline
            .ok_or(ProtocolError::MissingPayload { kind: "timeline" })
    }
}

impl Drop for ServeClient {
    /// Sends what is still queued, ends the client's side, and reads
    /// until the server hangs up: the server answers the queued submits
    /// and closes once it has read them all. Hanging up with those
    /// answers unread would reset the connection, and a reset discards
    /// whatever lines the server has not read yet. Each write and read
    /// here waits at most a second.
    fn drop(&mut self) {
        if self.broken.is_some() || self.queued.is_empty() {
            return;
        }
        let _ = self.writer.set_write_timeout(Some(DROP_WAIT));
        let _ = self.writer.set_read_timeout(Some(DROP_WAIT));
        if self.writer.write_all(self.outgoing.as_bytes()).is_ok()
            && self.writer.shutdown(Shutdown::Write).is_ok()
        {
            let _ = io::copy(&mut self.reader, &mut io::sink());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ServeConfig;
    use std::io::Cursor;
    use std::net::TcpListener;

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

    #[test]
    fn read_line_never_buffers_past_the_bound() {
        let mut buf = Vec::new();
        let mut two = Cursor::new(b"first\nsecond".to_vec());
        assert_eq!(read_line(&mut two, &mut buf).unwrap(), Line::Complete);
        assert_eq!(buf, b"first\n");
        assert_eq!(read_line(&mut two, &mut buf).unwrap(), Line::Partial);
        assert_eq!(buf, b"second");
        assert_eq!(read_line(&mut two, &mut buf).unwrap(), Line::Eof);
        assert!(buf.is_empty());

        // The longest line that fits, then one byte more.
        let mut fits = vec![b'x'; MAX_LINE - 1];
        fits.push(b'\n');
        let mut fits = Cursor::new(fits);
        assert_eq!(read_line(&mut fits, &mut buf).unwrap(), Line::Complete);
        assert_eq!(buf.len(), MAX_LINE);
        let mut long = vec![b'x'; MAX_LINE];
        long.extend_from_slice(b"\nnext\n");
        let mut long = Cursor::new(long);
        assert_eq!(read_line(&mut long, &mut buf).unwrap(), Line::Oversize);
        assert_eq!(buf.len(), MAX_LINE, "the rest stays unread");
    }

    #[test]
    fn the_largest_corpus_design_registers_within_the_bound() {
        let chip = rteaal_designs::rocket(rteaal_designs::ChipConfig::new(4).with_scale(0.5));
        let source = rteaal_firrtl::parser::emit(&chip);
        let mut line = String::new();
        Request::register("chip", source, "halt").encode(&mut line);
        assert!(
            line.len() > 1 << 20,
            "still the 1 MB design: {}",
            line.len()
        );
        assert!(3 * line.len() < MAX_LINE, "{} bytes", line.len());
    }

    #[test]
    fn an_oversize_request_is_answered_counted_and_hung_up_on() {
        let compiled = Compiler::new(KernelConfig::new(KernelKind::Psu))
            .compile_str(COUNTER_SRC)
            .unwrap();
        let pool = ServerPool::new(&compiled, ServeConfig::with_workers(1), "done").unwrap();
        let addr = SocketServer::bind(pool, "127.0.0.1:0")
            .unwrap()
            .spawn()
            .unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&vec![b'x'; MAX_LINE + 1]).unwrap();
        let mut reader = BufReader::new(raw);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let response = Response::decode(reply.trim_end()).unwrap();
        assert_eq!((response.ok, response.kind.as_str()), (false, "error"));
        assert!(response.error.unwrap().contains("exceeds"));
        // The server's side of the connection is closed.
        assert_eq!(reader.read_line(&mut reply).unwrap(), 0);
        // Other connections are unaffected, and the refusal is counted.
        let mut client = ServeClient::connect(addr).unwrap();
        let (snapshot, _) = client.metrics().unwrap();
        assert_eq!(snapshot.counter("serve.rejected_oversize"), 1);
    }

    #[test]
    fn an_oversize_reply_is_malformed_not_buffered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut request)
                .unwrap();
            // The client hangs up mid-write: the error is expected.
            let _ = (&stream).write_all(&vec![b'y'; MAX_LINE + 1]);
        });
        let mut client = ServeClient::connect(addr).unwrap();
        match client.ping() {
            Err(ProtocolError::Malformed { line, reason }) => {
                assert!(reason.contains("exceeds"), "{reason}");
                assert_eq!(line, "y".repeat(80));
            }
            other => panic!("expected a malformed reply, got {other:?}"),
        }
        assert_eq!(client.reply.len(), MAX_LINE);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn a_reply_left_partly_unread_condemns_the_client() {
        // An oversize line, then a valid answer the client must never
        // take for a later request's.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (written_tx, written) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut request = String::new();
            reader.read_line(&mut request).unwrap();
            let mut reply = vec![b'y'; MAX_LINE + 1];
            reply.push(b'\n');
            let mut pong = String::new();
            Response::pong(WirePong { uptime_ms: 1 }).encode(&mut pong);
            reply.extend_from_slice(pong.as_bytes());
            reply.push(b'\n');
            (&stream).write_all(&reply).unwrap();
            written_tx.send(()).unwrap();
            // Count what the client sends after that until it hangs up;
            // closing with the pong unread, it resets the connection.
            let mut later = 0;
            request.clear();
            while matches!(reader.read_line(&mut request), Ok(n) if n > 0) {
                later += 1;
                request.clear();
            }
            later
        });
        let mut client = ServeClient::connect(addr).unwrap();
        assert!(matches!(
            client.ping(),
            Err(ProtocolError::Malformed { .. })
        ));
        written.recv().unwrap();
        for _ in 0..3 {
            match client.ping() {
                Err(ProtocolError::Broken { cause }) => {
                    assert!(cause.contains("exceeds"), "{cause}");
                }
                other => panic!("a condemned client answered {other:?}"),
            }
        }
        assert!(client.stats().is_err() && client.poll(0).is_err());
        drop(client);
        assert_eq!(
            server.join().unwrap(),
            0,
            "a condemned client writes nothing"
        );
    }

    /// Linux drops a SYN once a listener's accept queue is full, so a
    /// listener that never accepts stands in for a host that drops
    /// connection attempts.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_connect_to_a_host_that_drops_syns_gives_up_at_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // std listens with a backlog of 128: fill the queue until a
        // connect goes unanswered.
        let mut held = Vec::new();
        let full = (0..1024).any(|_| {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
                Ok(stream) => {
                    held.push(stream);
                    false
                }
                Err(_) => true,
            }
        });
        assert!(full, "the accept queue never filled ({} held)", held.len());
        let timeout = Duration::from_millis(200);
        let start = std::time::Instant::now();
        let outcome = ServeClient::connect_timeout(addr, timeout);
        let waited = start.elapsed();
        assert!(outcome.is_err(), "a full accept queue took a connection");
        assert!(
            waited >= timeout / 2 && waited < timeout * 5,
            "gave up after {waited:?}, deadline {timeout:?}"
        );
    }
}
