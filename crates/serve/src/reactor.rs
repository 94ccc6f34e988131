//! Nonblocking TCP front end: one reactor thread multiplexing every
//! connection onto the shared worker pool.
//!
//! The previous serving layer spent one OS thread per connection, blocked in
//! `read_line` — a few hundred mostly-idle clients meant a few hundred
//! parked threads and their stacks. The reactor replaces that with a single
//! loop over nonblocking sockets (`set_nonblocking` + `WouldBlock`, no
//! platform poll/epoll dependency): each tick accepts new connections,
//! drains completed predict responses from the workers' inbox, reads
//! whatever bytes are available per connection, dispatches complete lines
//! through [`Server::process`], and flushes pending writes. Connections
//! carry their own read/write buffers, so a slow reader never blocks the
//! reactor or a worker.
//!
//! Lifecycle rules:
//! - At `max_conns` open connections, a fresh accept is answered with a
//!   single `conn_limit` error line and closed immediately.
//! - A connection with no queued work and nothing buffered in either
//!   direction for `idle_timeout_ms` is closed (`idle_disconnects` metric).
//! - Peer EOF with predict batches still in flight keeps the connection
//!   until their responses are written out; only then is it reaped.
//! - Once the server leaves `Running` (a `shutdown` request on any
//!   connection — processed inline on the reactor thread, which makes the
//!   drain safe because workers deliver completions to an unbounded inbox
//!   and never block on the reactor), accepts stop, in-flight responses are
//!   flushed with a bounded grace period, and every connection is closed.

use crate::metrics::Metrics;
use crate::protocol::{error_reply, ErrorKind};
use crate::server::{Dispatch, ReplySink, Server, RETRY_AFTER_MS};
use std::collections::HashMap;
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long the reactor keeps flushing buffered responses after the server
/// stops before giving up on unresponsive peers.
const STOP_GRACE: Duration = Duration::from_secs(5);

/// Reactor sleep when a tick made no progress (no readable bytes, no
/// completions, no accepts).
const IDLE_TICK: Duration = Duration::from_millis(1);

struct Conn {
    stream: TcpStream,
    /// Admission fairness key: the peer's `ip:port`.
    peer: String,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    written: usize,
    last_activity: Instant,
    /// Predict batches queued on this connection's behalf whose responses
    /// have not yet arrived from the workers.
    pending: usize,
    /// Peer closed its write half; serve out pending work, then reap.
    eof: bool,
    /// Socket error; reap at the next sweep.
    dead: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.pending == 0 && self.write_buf.is_empty()
    }
}

/// Runs the reactor until the server stops. See the module docs for the
/// event loop's phases.
pub(crate) fn run(server: &Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let (tx, rx) = mpsc::channel::<(u64, String)>();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let max_conns = server.config().max_conns;
    let idle_timeout = match server.config().idle_timeout_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let mut stop_deadline: Option<Instant> = None;

    loop {
        let mut progressed = false;

        if server.is_running() {
            progressed |= accept_new(server, &listener, &mut conns, &mut next_id, max_conns)?;
        } else if stop_deadline.is_none() {
            stop_deadline = Some(Instant::now() + STOP_GRACE);
        }

        // Deliver worker completions into their connections' write buffers.
        // A completion for an already-reaped connection is simply dropped.
        while let Ok((id, response)) = rx.try_recv() {
            progressed = true;
            if let Some(c) = conns.get_mut(&id) {
                c.write_buf.extend_from_slice(response.as_bytes());
                c.write_buf.push(b'\n');
                c.pending = c.pending.saturating_sub(1);
                c.last_activity = Instant::now();
            }
        }

        for (&id, c) in conns.iter_mut() {
            if !c.dead && !c.eof {
                progressed |= pump_reads(server, id, c, &tx);
            }
            if !c.dead {
                progressed |= pump_writes(c);
            }
        }

        let metrics = server.metrics();
        conns.retain(|_, c| {
            if c.dead || (c.eof && c.flushed()) {
                metrics.conn_closed();
                return false;
            }
            if let Some(limit) = idle_timeout {
                if c.flushed() && c.read_buf.is_empty() && c.last_activity.elapsed() >= limit {
                    Metrics::bump(&metrics.idle_disconnects);
                    metrics.conn_closed();
                    return false;
                }
            }
            true
        });

        if let Some(deadline) = stop_deadline {
            let all_flushed = conns.values().all(Conn::flushed);
            if (server.is_stopped() && all_flushed) || Instant::now() >= deadline {
                for (_, c) in conns.drain() {
                    let _ = c.stream.shutdown(std::net::Shutdown::Both);
                    metrics.conn_closed();
                }
                return Ok(());
            }
        }

        if !progressed {
            std::thread::sleep(IDLE_TICK);
        }
    }
}

/// Accepts until the listener would block. Connections past `max_conns` get
/// one `conn_limit` error line (best effort) and are closed.
fn accept_new(
    server: &Arc<Server>,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_id: &mut u64,
    max_conns: usize,
) -> std::io::Result<bool> {
    let mut progressed = false;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                progressed = true;
                if conns.len() >= max_conns {
                    Metrics::bump(&server.metrics().conn_limit_rejects);
                    refuse(stream, max_conns);
                    continue;
                }
                if prepare_stream(&stream).is_err() {
                    continue;
                }
                server.metrics().conn_opened();
                conns.insert(
                    *next_id,
                    Conn {
                        stream,
                        peer: peer.to_string(),
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        written: 0,
                        last_activity: Instant::now(),
                        pending: 0,
                        eof: false,
                        dead: false,
                    },
                );
                *next_id += 1;
            }
            Err(e) if e.kind() == IoKind::WouldBlock => return Ok(progressed),
            Err(e) if e.kind() == IoKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Readies an accepted connection for the reactor: nonblocking, and with
/// Nagle's algorithm off (`TCP_NODELAY`). Without the latter, a response
/// written while an earlier one is still unacknowledged waits for the
/// client's delayed ACK instead of leaving at once.
fn prepare_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

/// Tells a rejected peer why it was refused. The socket is still in its
/// default blocking mode; the payload is one short line, so this cannot
/// stall the reactor meaningfully.
fn refuse(mut stream: TcpStream, max_conns: usize) {
    let line = error_reply(
        ErrorKind::ConnLimit,
        &format!("server at its {max_conns}-connection cap"),
        None,
        [("retry_after_ms", crate::json::Value::Int(RETRY_AFTER_MS as i64))],
    );
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Reads available bytes and dispatches every complete line. Immediate
/// responses append to the write buffer; queued predicts bump `pending`.
fn pump_reads(
    server: &Arc<Server>,
    id: u64,
    c: &mut Conn,
    tx: &mpsc::Sender<(u64, String)>,
) -> bool {
    let mut progressed = false;
    let mut buf = [0u8; 4096];
    loop {
        match c.stream.read(&mut buf) {
            Ok(0) => {
                c.eof = true;
                progressed = true;
                break;
            }
            Ok(n) => {
                progressed = true;
                c.last_activity = Instant::now();
                c.read_buf.extend_from_slice(&buf[..n]);
            }
            Err(e) if e.kind() == IoKind::WouldBlock => break,
            Err(e) if e.kind() == IoKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return true;
            }
        }
    }
    while let Some(pos) = c.read_buf.iter().position(|&b| b == b'\n') {
        progressed = true;
        let rest = c.read_buf.split_off(pos + 1);
        let mut line_bytes = std::mem::replace(&mut c.read_buf, rest);
        line_bytes.pop();
        let line = String::from_utf8_lossy(&line_bytes);
        if line.trim().is_empty() {
            continue;
        }
        let sink = ReplySink::Conn { conn: id, tx: tx.clone() };
        match server.process(&line, &c.peer, sink) {
            Dispatch::Immediate(response) => {
                c.write_buf.extend_from_slice(response.as_bytes());
                c.write_buf.push(b'\n');
            }
            Dispatch::Queued => c.pending += 1,
        }
    }
    progressed
}

/// Writes as much of the buffered output as the socket accepts.
fn pump_writes(c: &mut Conn) -> bool {
    if c.write_buf.is_empty() {
        return false;
    }
    let mut progressed = false;
    loop {
        match c.stream.write(&c.write_buf[c.written..]) {
            Ok(0) => {
                c.dead = true;
                return true;
            }
            Ok(n) => {
                progressed = true;
                c.written += n;
                c.last_activity = Instant::now();
                if c.written == c.write_buf.len() {
                    c.write_buf.clear();
                    c.written = 0;
                    return true;
                }
            }
            Err(e) if e.kind() == IoKind::WouldBlock => return progressed,
            Err(e) if e.kind() == IoKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, ServeConfig};

    #[test]
    fn accepted_connections_are_nonblocking_with_nodelay() {
        let server = Arc::new(Server::new(Registry::new(), ServeConfig::default()).unwrap());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conns = HashMap::new();
        let mut next_id = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while conns.is_empty() && Instant::now() < deadline {
            accept_new(&server, &listener, &mut conns, &mut next_id, 8).unwrap();
        }
        let conn = conns.get(&0).expect("the connection was accepted");
        assert!(conn.stream.nodelay().unwrap(), "TCP_NODELAY must be set");
        let mut byte = [0u8; 1];
        let err = (&conn.stream).read(&mut byte).unwrap_err();
        assert_eq!(err.kind(), IoKind::WouldBlock, "the stream must be nonblocking");
        server.drain();
    }
}
