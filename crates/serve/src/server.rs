//! The daemon itself: model registry, program store, worker pool, admission
//! control, and the stdio/TCP front ends.
//!
//! One [`Server`] owns a [`Registry`] of trained models and a pool of worker
//! threads behind a cost-aware [`AdmissionQueue`]. Every front end funnels
//! through [`Server::process`] — one request line in, one response line out
//! — so protocol behavior is identical (and testable) without sockets.
//! [`Server::handle_line`] is the synchronous wrapper (stdio, tests); the
//! TCP front end is the nonblocking reactor in `crate::reactor`, which
//! parks queued predicts and delivers their responses when workers finish.
//!
//! Shutdown discipline: a `shutdown` request (or stdio EOF) moves the server
//! `Running → Draining` (new predict work is refused with `shutting_down`,
//! queued and in-flight work completes), then `Draining → Stopped` once the
//! queue and in-flight counters hit zero. The reactor stops accepting as
//! soon as the server leaves `Running`, flushes buffered responses, and
//! closes every connection.

use crate::admission::{AdmissionQueue, AdmitError};
use crate::json::Value;
use crate::metrics::Metrics;
use crate::protocol::{
    error_reply, hex_decode, ok_reply_base, parse_request, Envelope, ErrorKind, ProgramRef, Request,
};
use crate::registry::{ModelEntry, ModelHandle, Registry};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tiara::{slice_cache, Error, Tiara};
use tiara_ir::{parse_var_addr, Program, VarAddr, MAGIC};
use tiara_slice::SliceStats;

/// Server lifecycle states (stored in an `AtomicU8`).
const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

/// The alias v1 requests (no `model` field) resolve against.
pub const DEFAULT_ALIAS: &str = "default";

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum predict jobs waiting per client lane; further requests from
    /// that client are rejected with `queue_full` (other clients are
    /// unaffected). The default of 256 holds 100 ms of requests from a
    /// client sending 2,500 per second, so a reactor that stalls for 100 ms
    /// (a descheduled process) refuses nothing when it resumes.
    pub queue_capacity: usize,
    /// Worker threads draining the queue. Each worker answers one batch at a
    /// time; within a batch, slicing runs on the shared `tiara_par`
    /// executor.
    pub workers: usize,
    /// Maximum addresses per predict request.
    pub max_batch: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`. `None` means no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Maximum simultaneously open reactor connections; further accepts are
    /// answered with a `conn_limit` error line and closed.
    pub max_conns: usize,
    /// Idle reactor connections (no pending work, empty buffers) are closed
    /// after this long. Zero disables the idle timeout.
    pub idle_timeout_ms: u64,
}

/// The retry hint attached to `queue_full`, `overloaded` and `conn_limit`
/// rejections.
pub(crate) const RETRY_AFTER_MS: u64 = 50;

/// Addresses classified between deadline checks. Smaller chunks honor
/// deadlines more precisely at slightly more scheduling overhead.
const CHUNK: usize = 8;

/// Total queued admission cost (estimated slicer steps) where probabilistic
/// shedding starts.
const SOFT_COST: u64 = 32 << 20;

/// Total queued admission cost where every request is rejected.
const HARD_COST: u64 = 64 << 20;

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            workers: 2,
            max_batch: 4096,
            default_deadline_ms: None,
            max_conns: 1024,
            idle_timeout_ms: 30_000,
        }
    }
}

/// A resident program: decoded once, fingerprinted once, shared by every
/// request that names its handle.
struct StoredProgram {
    prog: Program,
    fingerprint: u64,
}

impl StoredProgram {
    fn new(prog: Program) -> StoredProgram {
        let fingerprint = slice_cache::program_fingerprint(&prog);
        StoredProgram { prog, fingerprint }
    }
}

/// Where a worker delivers a finished response.
pub(crate) enum ReplySink {
    /// A synchronous caller blocked on the receiving end (stdio, tests).
    Channel(mpsc::Sender<String>),
    /// A reactor connection: the completion lands in the reactor's inbox
    /// tagged with the connection id.
    Conn {
        /// Reactor connection id.
        conn: u64,
        /// The reactor's completion inbox.
        tx: mpsc::Sender<(u64, String)>,
    },
}

impl ReplySink {
    fn send(&self, response: String) {
        // A receiver that gave up (reactor shut down, caller dropped) just
        // loses the line; nothing to do.
        match self {
            ReplySink::Channel(tx) => drop(tx.send(response)),
            ReplySink::Conn { conn, tx } => drop(tx.send((*conn, response))),
        }
    }
}

/// How [`Server::process`] answered a request line.
pub(crate) enum Dispatch {
    /// The response is ready now.
    Immediate(String),
    /// A predict batch was queued; the response arrives through the
    /// [`ReplySink`] when a worker finishes.
    Queued,
}

/// One queued predict batch.
struct Job {
    /// In-flight guard: keeps the model resident and its refcount up.
    model: ModelHandle,
    prog: Arc<StoredProgram>,
    /// `(input notation, parsed address)` pairs — responses echo the
    /// client's own notation.
    addrs: Vec<(String, VarAddr)>,
    deadline: Option<Instant>,
    started: Instant,
    id: Option<Value>,
    reply: ReplySink,
}

struct Inner {
    registry: Registry,
    config: ServeConfig,
    programs: Mutex<HashMap<String, Arc<StoredProgram>>>,
    queue: AdmissionQueue<Job>,
    metrics: Metrics,
    state: AtomicU8,
    in_flight: AtomicU64,
    /// Field-wise rollup of every slice computed by this server (cache hits
    /// contribute zeros — no slicing ran).
    slice_rollup: Mutex<SliceStats>,
}

/// A running inference daemon.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Builds a server around a model registry and spawns its worker pool.
    /// The registry may start empty — models arrive via `model_load`.
    ///
    /// # Errors
    ///
    /// [`Error::Serve`] for a zero-worker configuration.
    pub fn new(registry: Registry, config: ServeConfig) -> Result<Server, Error> {
        if config.workers == 0 {
            return Err(Error::Serve("server needs at least one worker".into()));
        }
        let inner = Arc::new(Inner {
            queue: AdmissionQueue::new(config.queue_capacity.max(1), SOFT_COST, HARD_COST),
            registry,
            config,
            programs: Mutex::new(HashMap::new()),
            metrics: Metrics::new(),
            state: AtomicU8::new(RUNNING),
            in_flight: AtomicU64::new(0),
            slice_rollup: Mutex::new(SliceStats::default()),
        });
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tiara-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Server { inner, workers: Mutex::new(workers) })
    }

    /// Convenience: a server whose registry holds one model under the
    /// `default` alias — the v1 single-model shape.
    ///
    /// # Errors
    ///
    /// [`Error::Untrained`] if the model cannot answer queries, plus
    /// everything [`Server::new`] rejects.
    pub fn with_model(tiara: Tiara, config: ServeConfig) -> Result<Server, Error> {
        Server::new(Registry::with_default(tiara)?, config)
    }

    /// The model registry this server answers from. The CLI holds a clone
    /// of the same registry to persist slice caches after a drain.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    pub(crate) fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Answers one protocol line synchronously. The returned string is a
    /// complete response line (no trailing newline). Never panics on client
    /// input.
    pub fn handle_line(&self, line: &str) -> String {
        let (tx, rx) = mpsc::channel();
        match self.process(line, "local", ReplySink::Channel(tx)) {
            Dispatch::Immediate(response) => response,
            Dispatch::Queued => rx.recv().unwrap_or_else(|_| {
                error_reply(ErrorKind::Internal, "worker dropped the request", None, [])
            }),
        }
    }

    /// Dispatches one request line for `client` (the fairness key). Predict
    /// batches queue and answer through `sink`; everything else answers
    /// immediately.
    pub(crate) fn process(&self, line: &str, client: &str, sink: ReplySink) -> Dispatch {
        let inner = &self.inner;
        Metrics::bump(&inner.metrics.requests_total);
        let started = Instant::now();
        let Envelope { request, id } = match parse_request(line) {
            Ok(env) => env,
            Err((kind, msg, id)) => {
                Metrics::bump(&inner.metrics.malformed);
                return Dispatch::Immediate(error_reply(kind, &msg, id.as_ref(), []));
            }
        };
        let reply = match request {
            Request::Hello => self.hello_reply(id.as_ref()),
            Request::Ping => render_ok("ping", [], id.as_ref()),
            Request::Stats => self.stats_reply(id.as_ref()),
            Request::Shutdown => {
                self.drain();
                render_ok("shutdown", [], id.as_ref())
            }
            Request::Upload { handle, source } => self.handle_upload(&handle, &source, id.as_ref()),
            Request::ModelLoad { model, path } => {
                self.handle_model_load(&model, &path, id.as_ref())
            }
            Request::ModelUnload { model, force } => {
                self.handle_model_unload(&model, force, id.as_ref())
            }
            Request::ModelAlias { alias, model } => {
                self.handle_model_alias(&alias, &model, id.as_ref())
            }
            Request::ModelList => self.model_list_reply(id.as_ref()),
            Request::Predict { program, addrs, model, deadline_ms } => {
                return self.handle_predict(
                    &program,
                    &addrs,
                    model.as_deref(),
                    deadline_ms,
                    id.as_ref(),
                    client,
                    sink,
                    started,
                )
            }
        };
        Dispatch::Immediate(reply)
    }

    fn hello_reply(&self, id: Option<&Value>) -> String {
        let models: Vec<Value> =
            self.inner.registry.list().into_iter().map(|(alias, _)| Value::Str(alias)).collect();
        // Keep this list sorted: it is part of the wire fixture.
        let capabilities = [
            "admission_control",
            "deadlines",
            "model_registry",
            "multiplexed_tcp",
            "predict_batch",
            "slice_cache",
        ];
        render_ok(
            "hello",
            [
                ("server", Value::Str("tiara-serve".to_owned())),
                ("version", Value::Str(env!("CARGO_PKG_VERSION").to_owned())),
                ("models", Value::Array(models)),
                (
                    "capabilities",
                    Value::Array(
                        capabilities.iter().map(|c| Value::Str((*c).to_owned())).collect(),
                    ),
                ),
                ("max_batch", Value::Int(self.inner.config.max_batch as i64)),
            ],
            id,
        )
    }

    fn handle_upload(&self, handle: &str, source: &ProgramRef, id: Option<&Value>) -> String {
        let inner = &self.inner;
        if inner.state.load(Ordering::SeqCst) != RUNNING {
            Metrics::bump(&inner.metrics.rejected_shutting_down);
            return error_reply(ErrorKind::ShuttingDown, "server is draining", id, []);
        }
        let stored = match load_program(source) {
            Ok(p) => Arc::new(p),
            Err((kind, msg)) => {
                Metrics::bump(&inner.metrics.malformed);
                return error_reply(kind, &msg, id, []);
            }
        };
        let funcs = stored.prog.funcs().len();
        let insts = stored.prog.num_insts();
        let fingerprint = format!("{:016x}", stored.fingerprint);
        inner
            .programs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(handle.to_owned(), stored);
        Metrics::bump(&inner.metrics.uploads);
        render_ok(
            "upload",
            [
                ("handle", Value::Str(handle.to_owned())),
                ("funcs", Value::Int(funcs as i64)),
                ("insts", Value::Int(insts as i64)),
                ("fingerprint", Value::Str(fingerprint)),
            ],
            id,
        )
    }

    fn handle_model_load(&self, alias: &str, path: &str, id: Option<&Value>) -> String {
        let inner = &self.inner;
        if inner.state.load(Ordering::SeqCst) != RUNNING {
            Metrics::bump(&inner.metrics.rejected_shutting_down);
            return error_reply(ErrorKind::ShuttingDown, "server is draining", id, []);
        }
        let tiara = match Tiara::load(std::path::Path::new(path)) {
            Ok(t) => t,
            Err(e) => {
                return error_reply(
                    ErrorKind::BadModel,
                    &format!("cannot load `{path}`: {e}"),
                    id,
                    [("path", Value::Str(path.to_owned()))],
                )
            }
        };
        let cached_slices = tiara.restored_cache_entries();
        match inner.registry.insert(alias, tiara, Some(path.to_owned())) {
            Ok((entry, fresh)) => {
                Metrics::bump(&inner.metrics.model_loads);
                render_ok(
                    "model_load",
                    [
                        ("model", Value::Str(alias.to_owned())),
                        ("digest", Value::Str(format!("{:016x}", entry.digest()))),
                        ("fresh", Value::Bool(fresh)),
                        ("cached_slices", Value::Int(cached_slices as i64)),
                    ],
                    id,
                )
            }
            Err(e) => {
                error_reply(ErrorKind::BadModel, &format!("cannot serve `{path}`: {e}"), id, [])
            }
        }
    }

    fn handle_model_unload(&self, alias: &str, force: bool, id: Option<&Value>) -> String {
        let inner = &self.inner;
        match inner.registry.unload(alias, force) {
            Ok(out) => {
                if out.dropped {
                    Metrics::bump(&inner.metrics.model_unloads);
                }
                render_ok(
                    "model_unload",
                    [
                        ("model", Value::Str(alias.to_owned())),
                        ("digest", Value::Str(format!("{:016x}", out.digest))),
                        ("dropped", Value::Bool(out.dropped)),
                        ("aliases_left", Value::Int(out.aliases_left as i64)),
                    ],
                    id,
                )
            }
            Err(Error::ModelBusy(msg)) => error_reply(
                ErrorKind::ModelBusy,
                &format!("model has requests in flight: {msg}"),
                id,
                [("model", Value::Str(alias.to_owned()))],
            ),
            Err(e) => {
                Metrics::bump(&inner.metrics.rejected_unknown_model);
                error_reply(
                    ErrorKind::UnknownModel,
                    &e.to_string(),
                    id,
                    [("model", Value::Str(alias.to_owned()))],
                )
            }
        }
    }

    fn handle_model_alias(&self, alias: &str, model: &str, id: Option<&Value>) -> String {
        match self.inner.registry.alias(alias, model) {
            Ok(entry) => render_ok(
                "model_alias",
                [
                    ("alias", Value::Str(alias.to_owned())),
                    ("model", Value::Str(model.to_owned())),
                    ("digest", Value::Str(format!("{:016x}", entry.digest()))),
                ],
                id,
            ),
            Err(e) => {
                Metrics::bump(&self.inner.metrics.rejected_unknown_model);
                error_reply(
                    ErrorKind::UnknownModel,
                    &e.to_string(),
                    id,
                    [("model", Value::Str(model.to_owned()))],
                )
            }
        }
    }

    fn model_list_reply(&self, id: Option<&Value>) -> String {
        let models: Vec<Value> = self
            .inner
            .registry
            .list()
            .into_iter()
            .map(|(alias, entry)| model_value(&alias, &entry))
            .collect();
        let count = models.len();
        render_ok(
            "model_list",
            [("count", Value::Int(count as i64)), ("models", Value::Array(models))],
            id,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_predict(
        &self,
        program: &ProgramRef,
        addrs: &[String],
        model: Option<&str>,
        deadline_ms: Option<u64>,
        id: Option<&Value>,
        client: &str,
        sink: ReplySink,
        started: Instant,
    ) -> Dispatch {
        let inner = &self.inner;
        let fail = |resp: String| Dispatch::Immediate(resp);
        if inner.state.load(Ordering::SeqCst) != RUNNING {
            Metrics::bump(&inner.metrics.rejected_shutting_down);
            return fail(error_reply(ErrorKind::ShuttingDown, "server is draining", id, []));
        }
        if addrs.len() > inner.config.max_batch {
            Metrics::bump(&inner.metrics.rejected_oversized);
            return fail(error_reply(
                ErrorKind::OversizedBatch,
                &format!("batch of {} exceeds max_batch {}", addrs.len(), inner.config.max_batch),
                id,
                [("max_batch", Value::Int(inner.config.max_batch as i64))],
            ));
        }
        let alias = model.unwrap_or(DEFAULT_ALIAS);
        let handle = match inner.registry.resolve(alias) {
            Ok(h) => h,
            Err(e) => {
                Metrics::bump(&inner.metrics.rejected_unknown_model);
                return fail(error_reply(
                    ErrorKind::UnknownModel,
                    &e.to_string(),
                    id,
                    [("model", Value::Str(alias.to_owned()))],
                ));
            }
        };
        let stored = match program {
            ProgramRef::Handle(h) => {
                let got =
                    inner.programs.lock().unwrap_or_else(PoisonError::into_inner).get(h).cloned();
                match got {
                    Some(p) => p,
                    None => {
                        return fail(error_reply(
                            ErrorKind::UnknownProgram,
                            &format!("no uploaded program `{h}`"),
                            id,
                            [],
                        ))
                    }
                }
            }
            other => match load_program(other) {
                Ok(p) => Arc::new(p),
                Err((kind, msg)) => {
                    Metrics::bump(&inner.metrics.malformed);
                    return fail(error_reply(kind, &msg, id, []));
                }
            },
        };
        let mut parsed = Vec::with_capacity(addrs.len());
        for a in addrs {
            match parse_var_addr(&stored.prog, a) {
                Ok(addr) => parsed.push((a.clone(), addr)),
                Err(msg) => {
                    Metrics::bump(&inner.metrics.malformed);
                    return fail(error_reply(
                        ErrorKind::BadAddress,
                        &format!("bad address `{a}`: {msg}"),
                        id,
                        [("addr", Value::Str(a.clone()))],
                    ));
                }
            }
        }
        let deadline = deadline_ms
            .or(inner.config.default_deadline_ms)
            .map(|ms| started + Duration::from_millis(ms));
        let n_addrs = parsed.len() as u64;
        let cost = n_addrs.max(1) * handle.est_steps_per_addr();
        let job = Job {
            model: handle,
            prog: stored,
            addrs: parsed,
            deadline,
            started,
            id: id.cloned(),
            reply: sink,
        };
        match inner.queue.try_push(client, cost, job) {
            Ok(()) => {}
            Err(AdmitError::QueueFull) => {
                Metrics::bump(&inner.metrics.rejected_queue_full);
                return fail(error_reply(
                    ErrorKind::QueueFull,
                    "client lane at capacity",
                    id,
                    [("retry_after_ms", Value::Int(RETRY_AFTER_MS as i64))],
                ));
            }
            Err(AdmitError::Overloaded { queued_cost }) => {
                Metrics::bump(&inner.metrics.rejected_overloaded);
                return fail(error_reply(
                    ErrorKind::Overloaded,
                    "admission cost budget exhausted",
                    id,
                    [
                        ("queued_cost", Value::Int(queued_cost as i64)),
                        ("retry_after_ms", Value::Int(RETRY_AFTER_MS as i64)),
                    ],
                ));
            }
            Err(AdmitError::Closed) => {
                Metrics::bump(&inner.metrics.rejected_shutting_down);
                return fail(error_reply(ErrorKind::ShuttingDown, "server is draining", id, []));
            }
        }
        Metrics::bump(&inner.metrics.predict_requests);
        Metrics::add(&inner.metrics.addrs_total, n_addrs);
        Dispatch::Queued
    }

    fn stats_reply(&self, id: Option<&Value>) -> String {
        let inner = &self.inner;
        let m = &inner.metrics;
        let cache = slice_cache::stats();
        let rollup = *inner.slice_rollup.lock().unwrap_or_else(PoisonError::into_inner);
        let load = |c: &AtomicU64| Value::Int(c.load(Ordering::Relaxed) as i64);
        let models: Vec<Value> = inner
            .registry
            .list()
            .into_iter()
            .map(|(alias, entry)| model_value(&alias, &entry))
            .collect();
        render_ok(
            "stats",
            [
                ("requests_total", load(&m.requests_total)),
                ("predict_requests", load(&m.predict_requests)),
                ("addrs_total", load(&m.addrs_total)),
                ("uploads", load(&m.uploads)),
                ("programs", {
                    let n = inner.programs.lock().unwrap_or_else(PoisonError::into_inner).len();
                    Value::Int(n as i64)
                }),
                ("models", Value::Array(models)),
                (
                    "rejected",
                    Value::obj([
                        ("queue_full", load(&m.rejected_queue_full)),
                        ("overloaded", load(&m.rejected_overloaded)),
                        ("oversized_batch", load(&m.rejected_oversized)),
                        ("shutting_down", load(&m.rejected_shutting_down)),
                        ("unknown_model", load(&m.rejected_unknown_model)),
                        ("malformed", load(&m.malformed)),
                    ]),
                ),
                ("deadline_partial", load(&m.deadline_partial)),
                (
                    "queue",
                    Value::obj([
                        ("depth", Value::Int(inner.queue.depth() as i64)),
                        ("max_depth", Value::Int(inner.queue.max_depth() as i64)),
                        ("capacity", Value::Int(inner.queue.capacity() as i64)),
                        ("in_flight", Value::Int(inner.in_flight.load(Ordering::SeqCst) as i64)),
                    ]),
                ),
                (
                    "admission",
                    Value::obj([
                        ("queued_cost", Value::Int(inner.queue.queued_cost() as i64)),
                        ("soft_cost", Value::Int(inner.queue.soft_cost() as i64)),
                        ("hard_cost", Value::Int(inner.queue.hard_cost() as i64)),
                        ("active_clients", Value::Int(inner.queue.active_clients() as i64)),
                    ]),
                ),
                (
                    "connections",
                    Value::obj([
                        ("open", load(&m.conns_open)),
                        ("peak", load(&m.conns_peak)),
                        ("idle_disconnects", load(&m.idle_disconnects)),
                        ("conn_limit_rejects", load(&m.conn_limit_rejects)),
                    ]),
                ),
                (
                    "latency_us",
                    Value::obj([
                        ("count", Value::Int(m.latency_count() as i64)),
                        ("p50", Value::Int(m.latency_quantile_us(0.5) as i64)),
                        ("p99", Value::Int(m.latency_quantile_us(0.99) as i64)),
                    ]),
                ),
                (
                    "slice_cache",
                    Value::obj([
                        ("hits", Value::Int(cache.hits as i64)),
                        ("misses", Value::Int(cache.misses as i64)),
                        ("entries", Value::Int(cache.entries as i64)),
                    ]),
                ),
                (
                    "slice_stats",
                    Value::obj([
                        ("steps", Value::Int(rollup.steps as i64)),
                        ("faith_cut_pops", Value::Int(rollup.faith_cut_pops as i64)),
                        ("merges_skipped", Value::Int(rollup.merges_skipped as i64)),
                        (
                            "snapshot_bytes_avoided",
                            Value::Int(rollup.snapshot_bytes_avoided as i64),
                        ),
                        ("set_spills", Value::Int(rollup.set_spills as i64)),
                        ("worklist_hits", Value::Int(rollup.worklist_hits as i64)),
                    ]),
                ),
            ],
            id,
        )
    }

    /// `Running → Draining → Stopped`: refuse new predict work, let queued
    /// and in-flight batches finish, stop the workers. Idempotent;
    /// concurrent callers all block until the drain completes.
    pub fn drain(&self) {
        let inner = &self.inner;
        let _ = inner.state.compare_exchange(RUNNING, DRAINING, Ordering::SeqCst, Ordering::SeqCst);
        while inner.queue.depth() > 0 || inner.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        inner.queue.close();
        inner.state.store(STOPPED, Ordering::SeqCst);
        let handles: Vec<_> =
            self.workers.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Whether the server still accepts new predict work.
    pub fn is_running(&self) -> bool {
        self.inner.state.load(Ordering::SeqCst) == RUNNING
    }

    /// Whether the server has fully stopped (drained and workers joined).
    pub fn is_stopped(&self) -> bool {
        self.inner.state.load(Ordering::SeqCst) == STOPPED
    }

    /// Serves newline-delimited requests from `reader`, writing one response
    /// line per request to `writer`. EOF triggers a graceful drain; an
    /// explicit `shutdown` request drains and then returns after its reply.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the transport.
    pub fn run_stdio(&self, reader: impl BufRead, mut writer: impl Write) -> std::io::Result<()> {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let response = self.handle_line(&line);
            writer.write_all(response.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            if self.is_stopped() {
                return Ok(());
            }
        }
        self.drain();
        Ok(())
    }

    /// Runs the nonblocking reactor: accepts TCP connections and multiplexes
    /// them onto the worker pool until a `shutdown` request arrives (from
    /// any connection), then flushes and closes every connection. See
    /// `crate::reactor`.
    ///
    /// # Errors
    ///
    /// Propagates listener/socket errors other than the nonblocking poll's
    /// `WouldBlock`.
    pub fn run_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        crate::reactor::run(self, listener)
    }
}

/// The per-model object rendered into `stats` and `model_list` replies.
fn model_value(alias: &str, entry: &ModelEntry) -> Value {
    let stats = entry.stats();
    Value::obj([
        ("model", Value::Str(alias.to_owned())),
        ("digest", Value::Str(format!("{:016x}", entry.digest()))),
        ("requests", Value::Int(stats.requests.load(Ordering::Relaxed) as i64)),
        ("addrs", Value::Int(stats.addrs.load(Ordering::Relaxed) as i64)),
        ("in_flight", Value::Int(entry.in_flight() as i64)),
        ("est_steps_per_addr", Value::Int(entry.est_steps_per_addr() as i64)),
        (
            "latency_us",
            Value::obj([
                ("count", Value::Int(stats.latency.count() as i64)),
                ("p50", Value::Int(stats.latency.quantile_us(0.5) as i64)),
                ("p99", Value::Int(stats.latency.quantile_us(0.99) as i64)),
            ]),
        ),
    ])
}

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        inner.in_flight.fetch_add(1, Ordering::SeqCst);
        let (response, slice_steps) = answer(inner, &job);
        let elapsed_us = job.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        inner.metrics.observe_latency_us(elapsed_us);
        job.model.stats().record(job.addrs.len() as u64, slice_steps, elapsed_us);
        // Release the model handle and the in-flight slot BEFORE delivering
        // the response: a caller that sees its reply must also see the
        // counters settled (stats right after a predict reads in_flight 0).
        let Job { model, reply, .. } = job;
        drop(model);
        inner.in_flight.fetch_sub(1, Ordering::SeqCst);
        reply.send(response);
    }
}

/// Classifies one batch, honoring its deadline between fixed-size chunks.
/// Returns the response line and the slicer steps spent (for the model's
/// cost estimator).
fn answer(inner: &Inner, job: &Job) -> (String, u64) {
    let exec = tiara_par::global();
    let mut results = Vec::with_capacity(job.addrs.len());
    let mut expired = false;
    let mut slice_steps = 0u64;
    for slab in job.addrs.chunks(CHUNK) {
        if let Some(deadline) = job.deadline {
            if Instant::now() >= deadline {
                expired = true;
                break;
            }
        }
        let addrs: Vec<VarAddr> = slab.iter().map(|(_, a)| *a).collect();
        let preds = match job.model.tiara().predict_batch_fingerprinted(
            &job.prog.prog,
            job.prog.fingerprint,
            &addrs,
            &exec,
        ) {
            Ok(p) => p,
            Err(e) => {
                return (
                    error_reply(
                        ErrorKind::Internal,
                        &format!("prediction failed: {e}"),
                        job.id.as_ref(),
                        [],
                    ),
                    slice_steps,
                )
            }
        };
        let mut rollup = inner.slice_rollup.lock().unwrap_or_else(PoisonError::into_inner);
        for p in &preds {
            rollup.absorb(&p.stats);
            slice_steps += p.stats.steps;
        }
        drop(rollup);
        for ((text, _), p) in slab.iter().zip(preds) {
            // SliceStats are deliberately NOT serialized per result: a cache
            // hit zeroes them, which would make the same request render
            // differently on repeat. Everything below is cache-invariant.
            results.push(Value::obj([
                ("addr", Value::Str(text.clone())),
                ("class", Value::Str(p.class.to_string())),
                ("class_index", Value::Int(p.class.index() as i64)),
                (
                    "probs",
                    Value::Array(p.probs.iter().map(|&f| Value::Float(f64::from(f))).collect()),
                ),
                ("slice_nodes", Value::Int(p.slice_nodes as i64)),
                ("slice_edges", Value::Int(p.slice_edges as i64)),
            ]));
        }
    }
    if expired {
        Metrics::bump(&inner.metrics.deadline_partial);
    }
    let answered = results.len();
    let mut pairs = ok_reply_base("predict");
    pairs.push(("complete".to_owned(), Value::Bool(!expired)));
    pairs.push(("answered".to_owned(), Value::Int(answered as i64)));
    pairs.push(("requested".to_owned(), Value::Int(job.addrs.len() as i64)));
    if expired {
        pairs.push(("deadline_exceeded".to_owned(), Value::Bool(true)));
    }
    pairs.push(("results".to_owned(), Value::Array(results)));
    if let Some(id) = &job.id {
        pairs.push(("id".to_owned(), id.clone()));
    }
    (Value::Object(pairs).render(), slice_steps)
}

fn render_ok(
    op: &str,
    fields: impl IntoIterator<Item = (&'static str, Value)>,
    id: Option<&Value>,
) -> String {
    let mut pairs = ok_reply_base(op);
    for (k, v) in fields {
        pairs.push((k.to_owned(), v));
    }
    if let Some(id) = id {
        pairs.push(("id".to_owned(), id.clone()));
    }
    Value::Object(pairs).render()
}

/// Decodes a program from a request's inline hex or a server-side path
/// (assembled `TIRA` image, or textual assembly as a fallback).
fn load_program(source: &ProgramRef) -> Result<StoredProgram, (ErrorKind, String)> {
    match source {
        ProgramRef::Handle(h) => Err((
            ErrorKind::Malformed,
            format!("`{h}` is a handle; upload needs `program_hex` or `program_path`"),
        )),
        ProgramRef::InlineHex(hex) => {
            let bytes = hex_decode(hex).map_err(|e| (ErrorKind::BadProgram, e))?;
            let prog = tiara_ir::disassemble(&bytes)
                .map_err(|e| (ErrorKind::BadProgram, format!("bad TIRA image: {e}")))?;
            Ok(StoredProgram::new(prog))
        }
        ProgramRef::Path(path) => {
            let bytes = std::fs::read(path)
                .map_err(|e| (ErrorKind::BadProgram, format!("cannot read `{path}`: {e}")))?;
            let prog = if bytes.starts_with(MAGIC) {
                tiara_ir::disassemble(&bytes)
                    .map_err(|e| (ErrorKind::BadProgram, format!("bad TIRA image: {e}")))?
            } else {
                let text = String::from_utf8(bytes).map_err(|_| {
                    (ErrorKind::BadProgram, "file is neither TIRA nor UTF-8 asm".to_owned())
                })?;
                tiara_ir::parse_program(&text)
                    .map_err(|e| (ErrorKind::BadProgram, format!("bad asm: {e}")))?
            };
            Ok(StoredProgram::new(prog))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use tiara::{ClassifierConfig, TiaraConfig};
    use tiara_synth::{generate, ProjectSpec, TypeCounts};

    fn trained() -> (Tiara, tiara_synth::Binary) {
        let bin = generate(&ProjectSpec {
            name: "srv".into(),
            index: 3,
            seed: 41,
            counts: TypeCounts { list: 3, vector: 4, map: 3, primitive: 8, ..Default::default() },
        });
        let mut tiara = Tiara::new(TiaraConfig::new().with_classifier(ClassifierConfig {
            epochs: 3,
            batch_size: 8,
            ..Default::default()
        }));
        tiara.train(&[("srv", &bin.program, &bin.debug)]).unwrap();
        (tiara, bin)
    }

    fn upload_line(bin: &tiara_synth::Binary, handle: &str) -> String {
        let hex = crate::protocol::hex_encode(&tiara_ir::assemble(&bin.program));
        format!("{{\"op\":\"upload\",\"handle\":\"{handle}\",\"program_hex\":\"{hex}\"}}")
    }

    fn addr_strings(bin: &tiara_synth::Binary, n: usize) -> Vec<String> {
        bin.debug
            .vars
            .iter()
            .take(n)
            .map(|v| match v.addr {
                VarAddr::Global(m) => format!("0x{:x}", m.0),
                VarAddr::Stack { func, offset } => {
                    let name = &bin.program.funcs()[func.0 as usize].name;
                    if offset < 0 {
                        format!("func:{name}:-0x{:x}", -offset)
                    } else {
                        format!("func:{name}:0x{offset:x}")
                    }
                }
                VarAddr::Heap { site } => format!("heap:0x{:x}", site.0),
            })
            .collect()
    }

    #[test]
    fn untrained_models_cannot_serve() {
        let t = Tiara::new(TiaraConfig::new());
        assert!(matches!(Server::with_model(t, ServeConfig::default()), Err(Error::Untrained)));
    }

    #[test]
    fn empty_registries_answer_unknown_model() {
        let server = Server::new(Registry::new(), ServeConfig::default()).unwrap();
        let resp = server.handle_line("{\"op\":\"predict\",\"program_hex\":\"\",\"addrs\":[]}");
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Value::as_str),
            Some("unknown_model")
        );
        assert_eq!(v.get("model").and_then(Value::as_str), Some("default"));
        server.drain();
    }

    #[test]
    fn upload_predict_and_handle_reuse() {
        let (tiara, bin) = trained();
        let server = Server::with_model(tiara, ServeConfig::default()).unwrap();

        let up = server.handle_line(&upload_line(&bin, "p"));
        let up = parse(&up).unwrap();
        assert_eq!(up.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(up.get("proto").and_then(Value::as_i64), Some(2));
        assert!(up.get("insts").and_then(Value::as_i64).unwrap() > 0);

        let addrs = addr_strings(&bin, 4);
        let req = format!(
            "{{\"op\":\"predict\",\"program\":\"p\",\"addrs\":[{}],\"id\":1}}",
            addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(",")
        );
        let resp = server.handle_line(&req);
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("complete").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("answered").and_then(Value::as_i64), Some(4));
        let results = v.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 4);
        for (r, a) in results.iter().zip(&addrs) {
            assert_eq!(r.get("addr").and_then(Value::as_str), Some(a.as_str()));
            assert!(
                r.get("class").and_then(Value::as_str).unwrap().starts_with("std::")
                    || r.get("class").and_then(Value::as_str).is_some()
            );
            let probs = r.get("probs").and_then(Value::as_array).unwrap();
            let sum: f64 = probs.iter().map(|p| p.as_f64().unwrap()).sum();
            assert!((sum - 1.0).abs() < 1e-4, "probs sum to 1, got {sum}");
        }

        // Same request twice: byte-identical (cache hits must not leak into
        // the response). Naming the default alias explicitly (a v2 request)
        // answers identically to the v1 request that omits it.
        let again = server.handle_line(&req);
        assert_eq!(resp, again, "repeat responses must be byte-identical");
        let v2_req = req.replace("\"id\":1", "\"model\":\"default\",\"id\":1");
        assert_eq!(resp, server.handle_line(&v2_req), "v1 and v2 requests answer identically");

        server.drain();
    }

    #[test]
    fn unknown_handles_bad_addresses_and_oversized_batches_are_structured_errors() {
        let (tiara, bin) = trained();
        let server =
            Server::with_model(tiara, ServeConfig { max_batch: 2, ..ServeConfig::default() })
                .unwrap();
        server.handle_line(&upload_line(&bin, "p"));

        let resp = server.handle_line("{\"op\":\"predict\",\"program\":\"ghost\",\"addrs\":[]}");
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Value::as_str),
            Some("unknown_program")
        );

        let resp = server
            .handle_line("{\"op\":\"predict\",\"program\":\"p\",\"addrs\":[\"func:nope:8\"]}");
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Value::as_str),
            Some("bad_address")
        );

        let resp = server.handle_line(
            "{\"op\":\"predict\",\"program\":\"p\",\"addrs\":[\"0x1\",\"0x2\",\"0x3\"]}",
        );
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Value::as_str),
            Some("oversized_batch")
        );
        assert_eq!(v.get("max_batch").and_then(Value::as_i64), Some(2));

        let resp = server
            .handle_line("{\"op\":\"predict\",\"program\":\"p\",\"addrs\":[],\"model\":\"ghost\"}");
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Value::as_str),
            Some("unknown_model")
        );
        server.drain();
    }

    #[test]
    fn expired_deadline_yields_a_deterministic_partial_response() {
        let (tiara, bin) = trained();
        let server = Server::with_model(tiara, ServeConfig::default()).unwrap();
        server.handle_line(&upload_line(&bin, "p"));
        let addrs = addr_strings(&bin, 3);
        let req = format!(
            "{{\"op\":\"predict\",\"program\":\"p\",\"addrs\":[{}],\"deadline_ms\":0}}",
            addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(",")
        );
        let resp = server.handle_line(&req);
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("complete").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("deadline_exceeded").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("answered").and_then(Value::as_i64), Some(0));
        assert_eq!(v.get("requested").and_then(Value::as_i64), Some(3));
        assert_eq!(resp, server.handle_line(&req), "expired responses are deterministic too");
        server.drain();
    }

    #[test]
    fn shutdown_drains_and_refuses_new_work() {
        let (tiara, bin) = trained();
        let server = Server::with_model(tiara, ServeConfig::default()).unwrap();
        server.handle_line(&upload_line(&bin, "p"));
        let resp = server.handle_line("{\"op\":\"shutdown\",\"id\":\"bye\"}");
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert!(server.is_stopped());
        let resp = server.handle_line("{\"op\":\"predict\",\"program\":\"p\",\"addrs\":[\"0x1\"]}");
        let v = parse(&resp).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("kind").and_then(Value::as_str),
            Some("shutting_down")
        );
        // Shutdown is idempotent.
        let resp = server.handle_line("{\"op\":\"shutdown\"}");
        assert_eq!(parse(&resp).unwrap().get("ok").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn stats_reports_counters_queue_shape_and_models() {
        let (tiara, bin) = trained();
        let server = Server::with_model(tiara, ServeConfig::default()).unwrap();
        server.handle_line(&upload_line(&bin, "p"));
        let addrs = addr_strings(&bin, 2);
        let req = format!(
            "{{\"op\":\"predict\",\"program\":\"p\",\"addrs\":[{}]}}",
            addrs.iter().map(|a| format!("\"{a}\"")).collect::<Vec<_>>().join(",")
        );
        server.handle_line(&req);
        server.handle_line("definitely not json");
        let v = parse(&server.handle_line("{\"op\":\"stats\"}")).unwrap();
        assert_eq!(v.get("proto").and_then(Value::as_i64), Some(2));
        assert_eq!(v.get("predict_requests").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("addrs_total").and_then(Value::as_i64), Some(2));
        assert_eq!(v.get("uploads").and_then(Value::as_i64), Some(1));
        assert_eq!(v.get("programs").and_then(Value::as_i64), Some(1));
        let models = v.get("models").and_then(Value::as_array).unwrap();
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].get("model").and_then(Value::as_str), Some("default"));
        assert_eq!(models[0].get("requests").and_then(Value::as_i64), Some(1));
        assert_eq!(models[0].get("addrs").and_then(Value::as_i64), Some(2));
        assert_eq!(models[0].get("in_flight").and_then(Value::as_i64), Some(0));
        let rejected = v.get("rejected").unwrap();
        assert_eq!(rejected.get("malformed").and_then(Value::as_i64), Some(1));
        let queue = v.get("queue").unwrap();
        assert_eq!(queue.get("capacity").and_then(Value::as_i64), Some(256));
        assert_eq!(queue.get("depth").and_then(Value::as_i64), Some(0));
        let admission = v.get("admission").unwrap();
        assert_eq!(admission.get("queued_cost").and_then(Value::as_i64), Some(0));
        assert!(admission.get("hard_cost").and_then(Value::as_i64).unwrap() > 0);
        let lat = v.get("latency_us").unwrap();
        assert_eq!(lat.get("count").and_then(Value::as_i64), Some(1));
        assert!(v.get("slice_stats").unwrap().get("steps").and_then(Value::as_i64).is_some());
        assert!(v.get("connections").unwrap().get("open").and_then(Value::as_i64).is_some());
        server.drain();
    }

    #[test]
    fn hello_reports_version_models_and_capabilities() {
        let (tiara, _) = trained();
        let server = Server::with_model(tiara, ServeConfig::default()).unwrap();
        let v = parse(&server.handle_line("{\"op\":\"hello\",\"id\":1}")).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("proto").and_then(Value::as_i64), Some(2));
        assert_eq!(v.get("server").and_then(Value::as_str), Some("tiara-serve"));
        assert_eq!(v.get("version").and_then(Value::as_str), Some(env!("CARGO_PKG_VERSION")));
        let models = v.get("models").and_then(Value::as_array).unwrap();
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].as_str(), Some("default"));
        let caps: Vec<&str> = v
            .get("capabilities")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert!(caps.contains(&"model_registry"));
        let mut sorted = caps.clone();
        sorted.sort_unstable();
        assert_eq!(caps, sorted, "capabilities stay sorted — they are a wire fixture");
        server.drain();
    }

    #[test]
    fn stdio_loop_answers_and_drains_on_eof() {
        let (tiara, bin) = trained();
        let server = Server::with_model(tiara, ServeConfig::default()).unwrap();
        let input = format!("{}\n{}\n", upload_line(&bin, "p"), "{\"op\":\"ping\",\"id\":9}");
        let mut out = Vec::new();
        server.run_stdio(std::io::BufReader::new(input.as_bytes()), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1], "{\"ok\":true,\"proto\":2,\"op\":\"ping\",\"id\":9}");
        assert!(server.is_stopped(), "EOF drains the server");
    }
}
