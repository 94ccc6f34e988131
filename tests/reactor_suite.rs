//! Stress tests for the nonblocking TCP reactor: connection scaling without
//! thread growth, idle timeouts, the connection cap, per-client fairness,
//! and clean drains with partially-read requests in flight.
//!
//! Like `serve_suite`, these run against the public crate surface only, so
//! they pin the behavior a deployment actually observes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tiara::{ClassifierConfig, Tiara, TiaraConfig};
use tiara_serve::json::{parse, Value};
use tiara_serve::protocol::hex_encode;
use tiara_serve::{ServeConfig, Server};
use tiara_synth::{generate, Binary, ProjectSpec, TypeCounts};

/// The tests here run one at a time: the thread-growth check counts every
/// thread in the process, so a sibling test slicing, training or serving at
/// the same moment would show up in it.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn trained() -> (Tiara, Binary) {
    let bin = generate(&ProjectSpec {
        name: "reactor".into(),
        index: 4,
        seed: 53,
        counts: TypeCounts { list: 3, vector: 4, map: 3, primitive: 8, ..Default::default() },
    });
    let mut tiara = Tiara::new(TiaraConfig::new().with_classifier(ClassifierConfig {
        epochs: 3,
        batch_size: 8,
        ..Default::default()
    }));
    tiara.train(&[("reactor", &bin.program, &bin.debug)]).unwrap();
    (tiara, bin)
}

type ReactorHandle = std::thread::JoinHandle<std::io::Result<()>>;

fn start(config: ServeConfig) -> (Arc<Server>, std::net::SocketAddr, ReactorHandle, Binary) {
    let (tiara, bin) = trained();
    let server = Arc::new(Server::with_model(tiara, config).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run_tcp(listener))
    };
    (server, addr, handle, bin)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        let _ = stream.set_nodelay(true);
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> String {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        assert!(resp.ends_with('\n'), "server closed mid-response");
        resp.trim_end().to_owned()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn upload_line(bin: &Binary, handle: &str) -> String {
    let hex = hex_encode(&tiara_ir::assemble(&bin.program));
    format!("{{\"op\":\"upload\",\"handle\":\"{handle}\",\"program_hex\":\"{hex}\"}}")
}

fn predict_req(bin: &Binary, n: usize, extra: &str) -> String {
    let addrs: Vec<String> = bin
        .debug
        .vars
        .iter()
        .take(n)
        .map(|v| match v.addr {
            tiara_ir::VarAddr::Global(m) => format!("0x{:x}", m.0),
            tiara_ir::VarAddr::Stack { func, offset } => {
                let name = &bin.program.funcs()[func.0 as usize].name;
                if offset < 0 {
                    format!("func:{name}:-0x{:x}", -offset)
                } else {
                    format!("func:{name}:0x{offset:x}")
                }
            }
            tiara_ir::VarAddr::Heap { site } => format!("heap:0x{:x}", site.0),
        })
        .collect();
    format!(
        "{{\"op\":\"predict\",\"program\":\"p\",\"addrs\":[{}]{extra}}}",
        addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(",")
    )
}

/// OS threads in this process, from /proc (Linux); None elsewhere.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

#[test]
fn multiplexes_256_idle_connections_without_thread_growth() {
    let _serial = serial();
    let (server, addr, reactor, bin) =
        start(ServeConfig { idle_timeout_ms: 0, ..ServeConfig::default() });
    let mut main = Client::connect(addr);
    assert!(main.roundtrip(&upload_line(&bin, "p")).contains("\"ok\":true"));
    let threads_before = os_threads();

    let idle: Vec<TcpStream> = (0..256).map(|_| TcpStream::connect(addr).unwrap()).collect();
    // Connections are accepted asynchronously; wait for all of them to land.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let v = parse(&main.roundtrip("{\"op\":\"stats\"}")).unwrap();
        let open =
            v.get("connections").and_then(|c| c.get("open")).and_then(Value::as_i64).unwrap_or(0);
        if open >= 257 {
            break;
        }
        assert!(Instant::now() < deadline, "reactor accepted only {open} of 257 connections");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Mostly-idle connections must cost buffers, not threads: the worker
    // pool is fixed and the reactor is one loop.
    if let (Some(before), Some(after)) = (threads_before, os_threads()) {
        assert!(
            after <= before + 2,
            "thread count grew from {before} to {after} under 256 idle connections"
        );
    }

    // The daemon still answers real work while holding all of them.
    let resp = main.roundtrip(&predict_req(&bin, 3, ""));
    let v = parse(&resp).unwrap();
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("answered").and_then(Value::as_i64), Some(3));

    let bye = main.roundtrip("{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"ok\":true"));
    reactor.join().unwrap().unwrap();
    assert!(server.is_stopped());
    drop(idle);
}

#[test]
fn idle_connections_are_closed_after_the_timeout() {
    let _serial = serial();
    let (_server, addr, reactor, _bin) =
        start(ServeConfig { idle_timeout_ms: 100, ..ServeConfig::default() });

    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut buf = [0u8; 8];
    // The blocking read returns 0 when the reactor closes the idle
    // connection — it must not sit open forever.
    let n = idle.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "reactor must close idle connections");

    // An active connection stays alive past the timeout as long as it keeps
    // talking.
    let mut active = Client::connect(addr);
    for _ in 0..4 {
        std::thread::sleep(Duration::from_millis(60));
        assert!(active.roundtrip("{\"op\":\"ping\"}").contains("\"ok\":true"));
    }
    let v = parse(&active.roundtrip("{\"op\":\"stats\"}")).unwrap();
    let disconnects = v
        .get("connections")
        .and_then(|c| c.get("idle_disconnects"))
        .and_then(Value::as_i64)
        .unwrap_or(0);
    assert!(disconnects >= 1, "idle disconnect was not recorded");

    assert!(active.roundtrip("{\"op\":\"shutdown\"}").contains("\"ok\":true"));
    reactor.join().unwrap().unwrap();
}

#[test]
fn connections_past_the_cap_get_a_structured_refusal() {
    let _serial = serial();
    let (_server, addr, reactor, _bin) =
        start(ServeConfig { max_conns: 2, idle_timeout_ms: 0, ..ServeConfig::default() });
    let mut main = Client::connect(addr);
    assert!(main.roundtrip("{\"op\":\"ping\"}").contains("\"ok\":true"));
    let _second = Client::connect(addr);
    // Give the reactor a tick to register the second connection so the cap
    // is actually reached before the over-cap attempt.
    std::thread::sleep(Duration::from_millis(50));

    let over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut line = String::new();
    BufReader::new(over).read_line(&mut line).unwrap();
    let v = parse(line.trim_end()).expect("refusal is a structured error line");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        v.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str),
        Some("conn_limit")
    );
    assert!(v.get("retry_after_ms").and_then(Value::as_i64).is_some());

    let v = parse(&main.roundtrip("{\"op\":\"stats\"}")).unwrap();
    let rejects = v
        .get("connections")
        .and_then(|c| c.get("conn_limit_rejects"))
        .and_then(Value::as_i64)
        .unwrap_or(0);
    assert!(rejects >= 1, "conn_limit reject was not recorded");

    assert!(main.roundtrip("{\"op\":\"shutdown\"}").contains("\"ok\":true"));
    reactor.join().unwrap().unwrap();
}

#[test]
fn two_pipelining_clients_finish_within_2x_of_each_other() {
    let _serial = serial();
    let (_server, addr, reactor, bin) = start(ServeConfig::default());
    let mut main = Client::connect(addr);
    assert!(main.roundtrip(&upload_line(&bin, "p")).contains("\"ok\":true"));
    // Warm the slice cache so both clients measure serving, not first-touch
    // slicing.
    assert!(main.roundtrip(&predict_req(&bin, 4, "")).contains("\"ok\":true"));

    const REQS: usize = 8;
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let req = predict_req(&bin, 4, "");
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                barrier.wait();
                let t0 = Instant::now();
                // Pipeline: all requests up front, then collect — this is
                // what fills a per-client lane and exercises the WRR
                // rotation between the two lanes.
                for _ in 0..REQS {
                    c.send(&req);
                }
                for _ in 0..REQS {
                    let v = parse(&c.recv()).unwrap();
                    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
                }
                t0.elapsed().as_secs_f64()
            })
        })
        .collect();
    let times: Vec<f64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let (fast, slow) = (times[0].min(times[1]), times[0].max(times[1]));
    assert!(
        slow / fast.max(1e-9) <= 2.0,
        "round-robin dequeue must keep equal clients within 2x: {times:?}"
    );

    assert!(main.roundtrip("{\"op\":\"shutdown\"}").contains("\"ok\":true"));
    reactor.join().unwrap().unwrap();
}

#[test]
fn a_burst_after_a_stall_is_answered_without_refusals() {
    // What a reactor resuming from a 100 ms pause reads off one connection
    // sending 1000 requests per second: 100 predicts in a single read. The
    // default lane must hold all of them; none may be refused.
    let _serial = serial();
    let (_server, addr, reactor, bin) = start(ServeConfig::default());
    let mut main = Client::connect(addr);
    assert!(main.roundtrip(&upload_line(&bin, "p")).contains("\"ok\":true"));
    let req = predict_req(&bin, 1, "");
    assert!(main.roundtrip(&req).contains("\"ok\":true"), "warming the slice cache");

    const BURST: usize = 100;
    let burst = format!("{req}\n").repeat(BURST);
    main.writer.write_all(burst.as_bytes()).unwrap();
    for k in 0..BURST {
        let resp = main.recv();
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "answer {k}: {resp}");
    }

    assert!(main.roundtrip("{\"op\":\"shutdown\"}").contains("\"ok\":true"));
    reactor.join().unwrap().unwrap();
}

#[test]
fn drain_with_a_partial_line_in_flight_closes_cleanly() {
    let _serial = serial();
    let (server, addr, reactor, _bin) = start(ServeConfig::default());

    // A connection stuck mid-request: bytes sent, newline never arrives.
    let mut partial = TcpStream::connect(addr).unwrap();
    partial.write_all(b"{\"op\":\"ping\"").unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let mut main = Client::connect(addr);
    let bye = main.roundtrip("{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"ok\":true"), "shutdown must answer before the reactor exits: {bye}");
    reactor.join().unwrap().unwrap();
    assert!(server.is_stopped());

    // The half-written connection was closed, not leaked: its read sees EOF
    // (or a reset), never a hang.
    partial.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 8];
    match partial.read(&mut buf) {
        Ok(n) => assert_eq!(n, 0, "no response should arrive for a partial line"),
        Err(e) => assert_ne!(
            e.kind(),
            std::io::ErrorKind::WouldBlock,
            "read timed out: connection was leaked open"
        ),
    }
}
