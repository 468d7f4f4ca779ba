//! Fault injection for the serve protocol: a line-level TCP proxy that
//! sits between a [`ShardRouter`](crate::ShardRouter) (or any
//! [`ServeClient`](crate::ServeClient)) and a real
//! [`SocketServer`](crate::SocketServer), and misbehaves on demand.
//!
//! [`ChaosShard`] understands just enough of the protocol to be cruel
//! at realistic boundaries: it forwards one request line upstream,
//! reads the one response line, and only *then* consults its
//! [`ChaosPlan`] — delaying the response, dropping the connection
//! after it, truncating it mid-line, or dying outright. Because every
//! fault lands at a request/response boundary (or mid-line, which is
//! the interesting EOF case), the chaos tests exercise exactly the
//! failure surface a flaky host or network presents, while the server
//! behind the proxy stays healthy and deterministic.
//!
//! Hosts also *recover*: [`revive`](ChaosShard::revive) brings a dead
//! proxy back (the router's rejoin path needs exactly this), a plan's
//! [`revive_after`](ChaosPlan::revive_after) models a bounded outage
//! window, and [`retarget`](ChaosShard::retarget) points the revived
//! address at a *fresh* upstream — a host that rebooted with empty
//! state, which is what makes registry-replay testable.
//!
//! This is a *test harness*, shipped in the library so the
//! fault-injection proptests, the `tables -- fleet` experiment, and
//! downstream users hardening their own deployments can all share it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What misfortunes to inject, counted in forwarded responses.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosPlan {
    /// Added latency before each response is forwarded.
    pub response_delay: Duration,
    /// Close the client connection after every N forwarded responses
    /// (the "flaky network" fault: the peer must reconnect and
    /// resubmit).
    pub drop_every: Option<u64>,
    /// Die once N responses have been forwarded in total, across all
    /// connections (the "host crash" fault). Fires exactly once — a
    /// revived host does not re-crash on its next response.
    pub kill_after: Option<u64>,
    /// When dying, emit *half* of the final response line with no
    /// newline first — the mid-line EOF that must surface as
    /// [`ProtocolError::TruncatedLine`](crate::ProtocolError::TruncatedLine).
    pub truncate_on_kill: bool,
    /// The plan-driven down-window: how long after the plan's
    /// [`kill_after`](Self::kill_after) crash the host stays dead
    /// before reviving on its own. `None` = dead until someone calls
    /// [`revive`](ChaosShard::revive).
    pub revive_after: Option<Duration>,
}

/// A chaos proxy for one upstream server. Listens on its own loopback
/// port; point the router at [`addr`](Self::addr) instead of the real
/// server.
///
/// Once killed — by plan or by [`kill`](Self::kill) — the proxy severs
/// every active connection and answers new ones with an immediate
/// close, which is what a crashed host looks like to a client that
/// still resolves its address. [`revive`](Self::revive) flips it back:
/// the same address starts answering again, as a rebooted host would.
#[derive(Debug)]
pub struct ChaosShard {
    addr: SocketAddr,
    upstream: Arc<Mutex<SocketAddr>>,
    killed: Arc<AtomicBool>,
    responses: Arc<AtomicU64>,
}

impl ChaosShard {
    /// Spawns the proxy in front of `upstream`, on an OS-picked
    /// loopback port.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let upstream = Arc::new(Mutex::new(upstream));
        let killed = Arc::new(AtomicBool::new(false));
        let responses = Arc::new(AtomicU64::new(0));
        let (upstream_l, killed_l, responses_l) = (
            Arc::clone(&upstream),
            Arc::clone(&killed),
            Arc::clone(&responses),
        );
        std::thread::Builder::new()
            .name("rteaal-chaos-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    if killed_l.load(Ordering::Acquire) {
                        // A dead host: accept at the TCP level (the
                        // backlog does that anyway), then slam shut.
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    // Each connection pins the upstream it was accepted
                    // under; a retarget applies to connections made
                    // after it.
                    let target = *upstream_l.lock().expect("upstream lock");
                    let (killed, responses) = (Arc::clone(&killed_l), Arc::clone(&responses_l));
                    std::thread::Builder::new()
                        .name("rteaal-chaos-pump".to_string())
                        .spawn(move || {
                            let _ = pump(stream, target, plan, killed, &responses);
                        })
                        .expect("pump thread spawns");
                }
            })?;
        Ok(ChaosShard {
            addr,
            upstream,
            killed,
            responses,
        })
    }

    /// Where clients should connect (the proxy's own port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Kills the host *now*: every connection breaks at its next
    /// response, and new connections are slammed shut. The mid-corpus
    /// kill switch.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::Release);
    }

    /// Revives a killed host: new connections flow to the upstream
    /// again, from the same address a rebooted host would keep.
    /// Connections severed by the kill stay severed — recovery does
    /// not resurrect sockets.
    pub fn revive(&self) {
        self.killed.store(false, Ordering::Release);
    }

    /// Points future connections at a different upstream. Combined
    /// with [`revive`](Self::revive), this models the harshest rejoin:
    /// the host came back with a *fresh, empty* server behind it, so
    /// anything the client assumed it remembered (registered designs)
    /// must be replayed.
    pub fn retarget(&self, upstream: SocketAddr) {
        *self.upstream.lock().expect("upstream lock") = upstream;
    }

    /// Whether the host is dead (by plan or by [`kill`](Self::kill)).
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    /// Responses forwarded so far, across all connections.
    pub fn responses(&self) -> u64 {
        self.responses.load(Ordering::Acquire)
    }
}

/// Forwards request/response lines for one client connection, applying
/// the plan at each response boundary. Returning closes both sockets.
fn pump(
    client: TcpStream,
    upstream: SocketAddr,
    plan: ChaosPlan,
    killed: Arc<AtomicBool>,
    responses: &AtomicU64,
) -> io::Result<()> {
    // Each forwarded line is a write of its own: without `TCP_NODELAY`,
    // Nagle's algorithm would hold the second of two back-to-back answers
    // to a pipelining client until the client's delayed ACK of the first.
    client.set_nodelay(true)?;
    let up = TcpStream::connect(upstream)?;
    up.set_nodelay(true)?;
    let mut up_writer = up.try_clone()?;
    let mut up_reader = BufReader::new(up);
    let mut client_writer = client.try_clone()?;
    let mut client_reader = BufReader::new(client);
    let mut conn_responses = 0u64;
    loop {
        let mut request = String::new();
        if client_reader.read_line(&mut request)? == 0 {
            return Ok(()); // client went away
        }
        if killed.load(Ordering::Acquire) {
            return Ok(()); // died while idle: drop without answering
        }
        up_writer.write_all(request.as_bytes())?;
        let mut response = String::new();
        if up_reader.read_line(&mut response)? == 0 {
            return Ok(()); // upstream itself went away
        }
        if !plan.response_delay.is_zero() {
            std::thread::sleep(plan.response_delay);
        }
        let total = responses.fetch_add(1, Ordering::AcqRel) + 1;
        // `==` makes the plan kill fire exactly once: exactly one pump
        // observes the crossing count, and a revived host keeps
        // counting past it without re-crashing.
        let plan_kill = plan.kill_after.is_some_and(|after| total == after);
        let killing = killed.load(Ordering::Acquire) || plan_kill;
        if killing {
            killed.store(true, Ordering::Release);
            if plan_kill {
                if let Some(down) = plan.revive_after {
                    // The plan-driven down-window: dead for `down`,
                    // then back as if rebooted.
                    let killed = Arc::clone(&killed);
                    std::thread::Builder::new()
                        .name("rteaal-chaos-revive".to_string())
                        .spawn(move || {
                            std::thread::sleep(down);
                            killed.store(false, Ordering::Release);
                        })
                        .expect("revive timer spawns");
                }
            }
            if plan.truncate_on_kill {
                // Die mid-line: half the response, no newline, gone.
                let cut = response.trim_end().len() / 2;
                client_writer.write_all(&response.as_bytes()[..cut])?;
                client_writer.flush()?;
            }
            return Ok(());
        }
        client_writer.write_all(response.as_bytes())?;
        conn_responses += 1;
        if plan
            .drop_every
            .is_some_and(|every| conn_responses.is_multiple_of(every))
        {
            return Ok(()); // flaky network: clean close after the reply
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    /// A minimal line server: echoes each line back, uppercased.
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let reader = BufReader::new(stream);
                    for line in reader.lines() {
                        let Ok(line) = line else { return };
                        let _ = writer.write_all(line.to_uppercase().as_bytes());
                        let _ = writer.write_all(b"\n");
                    }
                });
            }
        });
        addr
    }

    fn call(stream: &mut TcpStream, line: &str) -> io::Result<String> {
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut reply = String::new();
        reader.read_line(&mut reply)?;
        Ok(reply)
    }

    #[test]
    fn healthy_proxy_is_transparent() {
        let chaos = ChaosShard::spawn(echo_server(), ChaosPlan::default()).unwrap();
        let mut conn = TcpStream::connect(chaos.addr()).unwrap();
        assert_eq!(call(&mut conn, "hello").unwrap(), "HELLO\n");
        assert_eq!(call(&mut conn, "again").unwrap(), "AGAIN\n");
        assert_eq!(chaos.responses(), 2);
        assert!(!chaos.is_killed());
    }

    #[test]
    fn drop_every_closes_the_connection_after_the_reply() {
        let plan = ChaosPlan {
            drop_every: Some(2),
            ..ChaosPlan::default()
        };
        let chaos = ChaosShard::spawn(echo_server(), plan).unwrap();
        let mut conn = TcpStream::connect(chaos.addr()).unwrap();
        assert_eq!(call(&mut conn, "one").unwrap(), "ONE\n");
        assert_eq!(call(&mut conn, "two").unwrap(), "TWO\n");
        // Third exchange: the proxy closed after the second reply (the
        // write may also fail outright with a broken pipe).
        assert_eq!(call(&mut conn, "three").unwrap_or_default(), "");
        // Reconnecting works: a drop is not a death.
        let mut fresh = TcpStream::connect(chaos.addr()).unwrap();
        assert_eq!(call(&mut fresh, "back").unwrap(), "BACK\n");
    }

    #[test]
    fn kill_after_truncates_mid_line_and_stays_dead() {
        let plan = ChaosPlan {
            kill_after: Some(2),
            truncate_on_kill: true,
            ..ChaosPlan::default()
        };
        let chaos = ChaosShard::spawn(echo_server(), plan).unwrap();
        let mut conn = TcpStream::connect(chaos.addr()).unwrap();
        assert_eq!(call(&mut conn, "first").unwrap(), "FIRST\n");
        // The killing response arrives cut in half, newline never seen.
        conn.write_all(b"seconds\n").unwrap();
        let mut tail = String::new();
        conn.read_to_string(&mut tail).unwrap();
        assert_eq!(tail, "SEC", "half of `SECONDS`, no newline");
        assert!(chaos.is_killed());
        // New connections are slammed shut: a dead host.
        let mut fresh = TcpStream::connect(chaos.addr()).unwrap();
        assert_eq!(call(&mut fresh, "ping").unwrap_or_default(), "");
    }

    #[test]
    fn manual_kill_breaks_idle_connections_at_their_next_exchange() {
        let chaos = ChaosShard::spawn(echo_server(), ChaosPlan::default()).unwrap();
        let mut conn = TcpStream::connect(chaos.addr()).unwrap();
        assert_eq!(call(&mut conn, "pre").unwrap(), "PRE\n");
        chaos.kill();
        assert_eq!(call(&mut conn, "post").unwrap_or_default(), "");
    }

    #[test]
    fn revive_brings_a_killed_host_back_without_recrashing() {
        let plan = ChaosPlan {
            kill_after: Some(1),
            ..ChaosPlan::default()
        };
        let chaos = ChaosShard::spawn(echo_server(), plan).unwrap();
        let mut conn = TcpStream::connect(chaos.addr()).unwrap();
        // First response trips the plan kill (no truncation: the reply
        // is simply never delivered).
        assert_eq!(call(&mut conn, "boom").unwrap_or_default(), "");
        assert!(chaos.is_killed());
        chaos.revive();
        assert!(!chaos.is_killed());
        // Back from the dead — and the once-fired plan kill does not
        // re-trigger even though the total is now past `kill_after`.
        let mut fresh = TcpStream::connect(chaos.addr()).unwrap();
        assert_eq!(call(&mut fresh, "alive").unwrap(), "ALIVE\n");
        assert_eq!(call(&mut fresh, "still").unwrap(), "STILL\n");
        assert!(!chaos.is_killed());
    }

    #[test]
    fn retarget_points_new_connections_at_a_fresh_upstream() {
        let chaos = ChaosShard::spawn(echo_server(), ChaosPlan::default()).unwrap();
        let mut conn = TcpStream::connect(chaos.addr()).unwrap();
        assert_eq!(call(&mut conn, "old").unwrap(), "OLD\n");
        // Reverse-echo upstream: proves the swap actually took.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let fresh_addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let reader = BufReader::new(stream);
                    for line in reader.lines() {
                        let Ok(line) = line else { return };
                        let rev: String = line.chars().rev().collect();
                        let _ = writer.write_all(rev.as_bytes());
                        let _ = writer.write_all(b"\n");
                    }
                });
            }
        });
        chaos.retarget(fresh_addr);
        // The old connection still pumps to the old upstream…
        assert_eq!(call(&mut conn, "still").unwrap(), "STILL\n");
        // …but new connections reach the fresh one.
        let mut fresh = TcpStream::connect(chaos.addr()).unwrap();
        assert_eq!(call(&mut fresh, "abc").unwrap(), "cba\n");
    }
}
