//! The daemon: accept loop, per-connection pipelining, admission control,
//! worker pool, and graceful drain.
//!
//! ## Thread architecture
//!
//! ```text
//!             accept loop (Server::run, the calling thread)
//!                  │ one pair per connection
//!        ┌─────────┴──────────┐
//!   reader thread        writer thread
//!   parse / validate     reorder by seq,
//!   admit or reject      write + flush in
//!        │               request order
//!        ▼                    ▲
//!   bounded pending queue ────┘ (mpsc per connection)
//!        │
//!   fixed worker pool (cfg.jobs threads)
//!   evaluate_many_controlled / run_search
//! ```
//!
//! * **Pipelining with in-order responses.** A client may write many
//!   request lines without waiting. The reader stamps each request with a
//!   per-connection sequence number; fast responses (status, rejections)
//!   and slow ones (evaluations) all funnel through the connection's
//!   writer, which buffers out-of-order completions and writes strictly in
//!   request order — the protocol's ordering guarantee costs one
//!   `BTreeMap`, not a round trip.
//! * **Admission control.** Work requests are admitted into one bounded
//!   process-wide queue. At capacity the request is answered immediately
//!   with a typed [`ERR_OVERLOADED`] rejection — the server's memory is
//!   bounded by `queue_cap`, not by how fast clients can write.
//! * **Session caching.** All workers share one process-wide
//!   [`ArtifactCache`], so repeated queries against the same topology (the
//!   interactive design-assistant pattern) skip regeneration across
//!   connections, and queries that agree on what a stage tier reads —
//!   same placement, different fault ensemble — adopt that tier's cached
//!   artifacts and run only the stages that differ. Caching never changes response
//!   bytes — cached artifacts are byte-identical to recomputation — it
//!   only changes latency. Per-tier hit/miss/eviction counts are exposed
//!   through the `status` op.
//! * **Resilience inheritance.** Every job — evaluate, batch and search
//!   alike — runs through [`evaluate_many_controlled`] under a
//!   [`BatchControl`] derived from the server config and the request's
//!   `deadline_ms` (a search hands it to [`run_search`], which uses it
//!   for every batch and every wave edge), so per-spec timeouts,
//!   deadlines, retries, and watchdog supervision behave exactly as they
//!   do in the batch CLI — one enforcement path, not two.
//! * **Graceful drain.** `shutdown` (or [`ServerHandle::shutdown`]) stops
//!   the accept loop, half-closes every connection's read side, lets the
//!   workers finish every admitted job, flushes every writer, and returns
//!   from [`Server::run`] — the bin then exits 0. Requests arriving after
//!   the drain begins get a typed [`ERR_SHUTTING_DOWN`] rejection.
//!
//! [`ERR_OVERLOADED`]: crate::proto::ERR_OVERLOADED
//! [`ERR_SHUTTING_DOWN`]: crate::proto::ERR_SHUTTING_DOWN

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pd_core::batch::{evaluate_many_controlled, ArtifactCache, BatchControl, BatchOptions};
use pd_core::resilience::{CancelToken, Deadline, RetryPolicy, WatchdogConfig};
use pd_core::DesignSpec;
use pd_metrics::json::Value;
use pd_metrics::{Counter, Gauge, Histogram};
use pd_search::{run_search, ParamSpace, SearchConfig, Strategy};

use crate::proto::{
    parse_request, read_bounded_line, salvage_id, BatchItem, LineRead, Op, Request, Response,
    StatusBody, DEFAULT_MAX_LINE_BYTES,
};

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` = loopback, OS-assigned port).
    pub addr: String,
    /// Worker threads (0 = one per core). This is the evaluation
    /// parallelism cap; connections are unbounded threads but do no
    /// evaluation work themselves.
    pub jobs: usize,
    /// Admission cap on the pending queue: jobs admitted beyond what the
    /// worker pool can run at once. At most `jobs + queue_cap` work
    /// requests are admitted and unfinished at any moment, however fast
    /// the workers pick them up; requests past that get a typed
    /// `overloaded` rejection.
    pub queue_cap: usize,
    /// Per-spec wall-clock budget, as the batch CLI's `--spec-timeout`.
    pub spec_timeout: Option<Duration>,
    /// Default per-request deadline when the request carries no
    /// `deadline_ms` (measured from admission, queue wait included).
    pub default_deadline: Option<Duration>,
    /// Extra attempts for transient failures, as the CLI's `--retries`.
    pub retries: u32,
    /// Watchdog stall threshold; `None` disables supervision.
    pub watchdog: Option<Duration>,
    /// Session-cache bound: at most this many entries in each tier of the
    /// [`ArtifactCache`], the Generate tier included (`None` = unbounded —
    /// fine for tests, not for a long-lived daemon).
    pub cache_cap: Option<usize>,
    /// Bound on one request line, bytes (oversized lines get a typed
    /// `bad_request`; the connection survives).
    pub max_line_bytes: usize,
    /// Most specs accepted in one `batch` request.
    pub max_batch_specs: usize,
    /// Largest `search` space accepted, in grid points.
    pub max_search_points: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            jobs: 0,
            queue_cap: 64,
            spec_timeout: None,
            default_deadline: None,
            retries: 0,
            watchdog: None,
            cache_cap: Some(512),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_batch_specs: 256,
            max_search_points: 4096,
        }
    }
}

/// What the daemon did over its lifetime, returned by [`Server::run`]
/// after a graceful drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines received (all ops, malformed included).
    pub requests: u64,
    /// Work requests completed.
    pub completed: u64,
    /// Work requests rejected by admission control.
    pub rejected: u64,
}

/// Registry handles for the serving layer's global metrics.
///
/// `serve.{connections,requests}` are **counts**: they are driven by what
/// clients send, the workload itself. Everything observing timing or
/// scheduling is a **diagnostic**: `serve.rejected` (whether a burst
/// overflows the queue depends on how fast workers drain it),
/// `serve.inflight` (instantaneous), `serve.queue.depth` (depth at each
/// admission), and `serve.request.wall_ns` (admission-to-response wall
/// clock, queue wait included). See `docs/OBSERVABILITY.md`.
struct ServeMetrics {
    connections: Arc<Counter>,
    requests: Arc<Counter>,
    rejected: Arc<Counter>,
    inflight: Arc<Gauge>,
    queue_depth: Arc<Histogram>,
    request_wall_ns: Arc<Counter>,
}

/// Inclusive power-of-two bucket bounds for admission-time queue depths.
const QUEUE_DEPTH_BUCKETS: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

fn serve_metrics() -> &'static ServeMetrics {
    static CELLS: OnceLock<ServeMetrics> = OnceLock::new();
    CELLS.get_or_init(|| {
        let reg = pd_metrics::global();
        ServeMetrics {
            connections: reg.counter("serve.connections"),
            requests: reg.counter("serve.requests"),
            rejected: reg.diagnostic_counter("serve.rejected"),
            inflight: reg.diagnostic_gauge("serve.inflight"),
            queue_depth: reg.diagnostic_histogram("serve.queue.depth", &QUEUE_DEPTH_BUCKETS),
            request_wall_ns: reg.diagnostic_counter("serve.request.wall_ns"),
        }
    })
}

/// An admitted work request, waiting for (or running on) a worker.
struct Job {
    id: Value,
    seq: u64,
    work: Work,
    deadline: Option<Deadline>,
    accepted: Instant,
    tx: Sender<(u64, String)>,
}

/// The resolved payload of a work request — validation happened at
/// admission, so workers never see a malformed request.
enum Work {
    Evaluate(Box<DesignSpec>),
    Batch(Vec<DesignSpec>),
    Search {
        space: ParamSpace,
        strategy: Strategy,
    },
}

/// The pending queue and its drain latch, guarded together.
#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Jobs a worker has popped and not yet finished.
    running: usize,
    /// Once true (and the queue empty), workers exit.
    closed: bool,
}

/// Exact lifetime counters backing `status` responses and [`ServerStats`].
/// The global `serve.*` registry cells aggregate over every server in the
/// process; these are this server's own numbers.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    live: AtomicU64,
    requests: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    inflight: AtomicU64,
}

/// A count-based wait group (std has no join handle for a dynamic set of
/// detached connection threads).
#[derive(Default)]
struct WaitGroup {
    count: Mutex<usize>,
    cv: Condvar,
}

impl WaitGroup {
    fn enter(&self) {
        *self.count.lock().expect("waitgroup lock") += 1;
    }

    fn leave(&self) {
        let mut n = self.count.lock().expect("waitgroup lock");
        *n -= 1;
        if *n == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut n = self.count.lock().expect("waitgroup lock");
        while *n > 0 {
            n = self.cv.wait(n).expect("waitgroup lock");
        }
    }
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    cache: Arc<ArtifactCache>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    /// Set once by the first shutdown trigger; never cleared.
    draining: AtomicBool,
    /// Root of every evaluation's cancel tree. Deliberately **not**
    /// cancelled on drain: drain means "finish admitted work", and
    /// admitted jobs keep their deadlines as their only bound.
    root: CancelToken,
    started: Instant,
    workers: usize,
    counters: Counters,
    /// Read-side handles of live connections, for unblocking readers at
    /// drain time.
    conns: Mutex<HashMap<u64, TcpStream>>,
    readers: WaitGroup,
    writers: WaitGroup,
}

impl Shared {
    /// The per-job resilience controls: server knobs + the request's
    /// deadline, on a fresh child of the server's root token.
    fn control(&self, deadline: Option<Deadline>) -> BatchControl {
        BatchControl {
            cancel: self.root.child(),
            spec_timeout: self.cfg.spec_timeout,
            batch_deadline: deadline,
            retry: RetryPolicy::retries(self.cfg.retries),
            watchdog: self
                .cfg
                .watchdog
                .map(|stall_threshold| WatchdogConfig { stall_threshold }),
            chaos: None,
        }
    }

    /// Starts the drain exactly once: raise the latch, then poke the
    /// accept loop awake with a throwaway self-connection.
    fn begin_shutdown(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
    }

    /// Admission control: queue the job and return `None`, or return the
    /// rejection saying exactly why not.
    fn submit(&self, job: Job) -> Option<Response> {
        if self.draining.load(Ordering::Acquire) {
            return Some(Response::shutting_down(job.id));
        }
        let mut q = self.queue.lock().expect("queue lock");
        if q.closed || self.draining.load(Ordering::Acquire) {
            return Some(Response::shutting_down(job.id));
        }
        // Count running jobs with queued ones, so a job an idle worker has
        // not yet woken for does not take a pending slot.
        if q.jobs.len() + q.running >= self.workers + self.cfg.queue_cap {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            serve_metrics().rejected.incr();
            return Some(Response::overloaded(job.id, self.cfg.queue_cap));
        }
        q.jobs.push_back(job);
        serve_metrics().queue_depth.record(q.jobs.len() as u64);
        drop(q);
        self.queue_cv.notify_one();
        None
    }

    fn status_body(&self) -> StatusBody {
        let queued = self.queue.lock().expect("queue lock").jobs.len() as u64;
        StatusBody {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            connections: self.counters.connections.load(Ordering::Relaxed),
            live_connections: self.counters.live.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            inflight: self.counters.inflight.load(Ordering::Relaxed),
            queued,
            workers: self.workers,
            queue_cap: self.cfg.queue_cap,
            draining: self.draining.load(Ordering::Acquire),
            cache_entries: self.cache.generate().len(),
            cache_hits: self.cache.generate().hits(),
            cache_misses: self.cache.generate().misses(),
            artifact_tiers: self
                .cache
                .tier_stats()
                .into_iter()
                .map(|t| crate::proto::TierStatus {
                    stage: t.stage.name().to_string(),
                    entries: t.entries as u64,
                    hits: t.hits as u64,
                    misses: t.misses as u64,
                    evictions: t.evictions as u64,
                })
                .collect(),
        }
    }
}

/// A handle for triggering the drain from outside the protocol (tests,
/// signal handlers). Cheap to clone.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins the graceful drain, exactly as a `shutdown` request would.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

/// A bound-but-not-yet-running daemon. [`Server::bind`] then
/// [`Server::run`]; `run` blocks until a graceful drain completes.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the shared state. No threads start
    /// until [`Server::run`].
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = if cfg.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.jobs
        };
        let cache = Arc::new(match cfg.cache_cap {
            Some(cap) => ArtifactCache::with_capacity(cap),
            None => ArtifactCache::new(),
        });
        let shared = Arc::new(Shared {
            cfg,
            addr,
            cache,
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            root: CancelToken::new(),
            started: Instant::now(),
            workers,
            counters: Counters::default(),
            conns: Mutex::new(HashMap::new()),
            readers: WaitGroup::default(),
            writers: WaitGroup::default(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A drain trigger usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the daemon on the calling thread until a graceful drain
    /// completes: accept → serve → (shutdown request) → stop accepting →
    /// finish every admitted job → flush every connection → return.
    pub fn run(self) -> std::io::Result<ServerStats> {
        let Server { listener, shared } = self;
        let worker_handles: Vec<_> = (0..shared.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pd-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let mut next_conn = 0u64;
        for stream in listener.incoming() {
            if shared.draining.load(Ordering::Acquire) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            if shared.draining.load(Ordering::Acquire) {
                break; // the drain's own wake-up poke lands here
            }
            let conn_id = next_conn;
            next_conn += 1;
            if let Err(e) = spawn_connection(&shared, conn_id, stream) {
                // A clone failure only loses this one connection.
                eprintln!("pd-serve: connection {conn_id} setup failed: {e}");
            }
        }

        // Drain, in dependency order: close the listener (no new
        // connections), half-close every reader (no new requests), wait
        // for the readers to retire, close the queue (workers finish the
        // admitted backlog and exit), then wait for the writers to flush
        // the last responses.
        drop(listener);
        for stream in shared.conns.lock().expect("conns lock").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        shared.readers.wait();
        shared.queue.lock().expect("queue lock").closed = true;
        shared.queue_cv.notify_all();
        for h in worker_handles {
            let _ = h.join();
        }
        shared.writers.wait();

        Ok(ServerStats {
            connections: shared.counters.connections.load(Ordering::Relaxed),
            requests: shared.counters.requests.load(Ordering::Relaxed),
            completed: shared.counters.completed.load(Ordering::Relaxed),
            rejected: shared.counters.rejected.load(Ordering::Relaxed),
        })
    }
}

/// Registers a connection and spawns its reader/writer pair.
fn spawn_connection(shared: &Arc<Shared>, conn_id: u64, stream: TcpStream) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone()?;
    let registry_half = stream.try_clone()?;

    shared.counters.connections.fetch_add(1, Ordering::Relaxed);
    serve_metrics().connections.incr();
    shared.counters.live.fetch_add(1, Ordering::Relaxed);
    shared
        .conns
        .lock()
        .expect("conns lock")
        .insert(conn_id, registry_half);

    let (tx, rx) = mpsc::channel::<(u64, String)>();

    shared.writers.enter();
    let writer_shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("pd-serve-writer-{conn_id}"))
        .spawn(move || {
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| writer_loop(stream, rx)));
            writer_shared.writers.leave();
            drop(result);
        })
        .expect("spawn writer");

    shared.readers.enter();
    let reader_shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("pd-serve-reader-{conn_id}"))
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                reader_loop(&reader_shared, read_half, tx)
            }));
            reader_shared
                .conns
                .lock()
                .expect("conns lock")
                .remove(&conn_id);
            reader_shared.counters.live.fetch_sub(1, Ordering::Relaxed);
            reader_shared.readers.leave();
            drop(result);
        })
        .expect("spawn reader");
    Ok(())
}

/// One connection's request side: bounded reads, parse, validate, then
/// answer inline (status, rejections, shutdown) or admit to the queue.
/// Every request — even a malformed one — produces exactly one response
/// at its sequence slot, so pipelined responses can never skew.
fn reader_loop(shared: &Arc<Shared>, stream: TcpStream, tx: Sender<(u64, String)>) {
    let mut reader = BufReader::new(stream);
    let mut seq = 0u64;
    loop {
        let line = match read_bounded_line(&mut reader, shared.cfg.max_line_bytes) {
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::TooLong { discarded }) => {
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                serve_metrics().requests.incr();
                let resp = Response::bad_request(
                    Value::Null,
                    format!(
                        "request line exceeds {} bytes ({} discarded); connection kept",
                        shared.cfg.max_line_bytes, discarded
                    ),
                );
                if tx.send((seq, resp.to_json_line())).is_err() {
                    break;
                }
                seq += 1;
                continue;
            }
            Ok(LineRead::Line(l)) => l,
        };
        if line.trim().is_empty() {
            continue; // blank keep-alive lines get no response
        }
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        serve_metrics().requests.incr();

        let direct = match parse_request(&line) {
            Err(e) => Some(Response::bad_request(salvage_id(&line), e)),
            Ok(req) => handle_request(shared, req, seq, &tx),
        };
        if let Some(resp) = direct {
            if tx.send((seq, resp.to_json_line())).is_err() {
                break;
            }
        }
        seq += 1;
    }
}

/// Fields that only make sense for some ops are rejected loudly — a
/// `spec` on a `status` request is a caller bug, not noise to ignore.
fn payload_misuse(req: &Request) -> Option<String> {
    let fields = [
        ("spec", req.spec.is_some()),
        ("specs", req.specs.is_some()),
        ("space", req.space.is_some()),
        ("strategy", req.strategy.is_some()),
        ("budget", req.budget.is_some()),
        ("seed", req.seed.is_some()),
        ("eta", req.eta.is_some()),
        ("deadline_ms", req.deadline_ms.is_some()),
    ];
    let allowed: &[&str] = match req.op {
        Op::Evaluate => &["spec", "deadline_ms"],
        Op::Batch => &["specs", "deadline_ms"],
        Op::Search => &["space", "strategy", "budget", "seed", "eta", "deadline_ms"],
        Op::Status | Op::Shutdown => &[],
    };
    fields
        .iter()
        .find(|(name, set)| *set && !allowed.contains(name))
        .map(|(name, _)| format!("field {name:?} does not apply to op {:?}", req.op.name()))
}

/// Validates and dispatches one parsed request. Returns the response to
/// send at this sequence slot, or `None` when a job was admitted (the
/// worker will send it).
fn handle_request(
    shared: &Arc<Shared>,
    req: Request,
    seq: u64,
    tx: &Sender<(u64, String)>,
) -> Option<Response> {
    if let Some(misuse) = payload_misuse(&req) {
        return Some(Response::bad_request(req.id, misuse));
    }
    let deadline = req
        .deadline_ms
        .map(Duration::from_millis)
        .or(shared.cfg.default_deadline)
        .map(Deadline::after);

    let work = match req.op {
        Op::Status => return Some(Response::status(req.id, shared.status_body())),
        Op::Shutdown => {
            shared.begin_shutdown();
            return Some(Response::draining(req.id));
        }
        Op::Evaluate => {
            let Some(wire) = req.spec else {
                return Some(Response::bad_request(
                    req.id,
                    "op \"evaluate\" needs \"spec\"",
                ));
            };
            match wire.resolve() {
                Ok((point, trials)) => Work::Evaluate(Box::new(point.spec(&trials))),
                Err(e) => return Some(Response::bad_request(req.id, e)),
            }
        }
        Op::Batch => {
            let Some(wires) = req.specs else {
                return Some(Response::bad_request(
                    req.id,
                    "op \"batch\" needs \"specs\"",
                ));
            };
            if wires.len() > shared.cfg.max_batch_specs {
                return Some(Response::bad_request(
                    req.id,
                    format!(
                        "batch of {} specs exceeds the cap of {}",
                        wires.len(),
                        shared.cfg.max_batch_specs
                    ),
                ));
            }
            let mut specs = Vec::with_capacity(wires.len());
            for (i, wire) in wires.iter().enumerate() {
                match wire.resolve() {
                    Ok((point, trials)) => specs.push(point.spec(&trials)),
                    Err(e) => {
                        return Some(Response::bad_request(req.id, format!("specs[{i}]: {e}")))
                    }
                }
            }
            Work::Batch(specs)
        }
        Op::Search => {
            let space = match req.space.unwrap_or_default().resolve() {
                Ok(space) => space,
                Err(e) => return Some(Response::bad_request(req.id, e)),
            };
            if space.len() > shared.cfg.max_search_points {
                return Some(Response::bad_request(
                    req.id,
                    format!(
                        "search space of {} points exceeds the cap of {}",
                        space.len(),
                        shared.cfg.max_search_points
                    ),
                ));
            }
            let strategy =
                match Strategy::resolve(req.strategy.as_deref(), req.budget, req.seed, req.eta) {
                    Ok(s) => s,
                    Err(e) => return Some(Response::bad_request(req.id, e)),
                };
            Work::Search { space, strategy }
        }
    };

    let job = Job {
        id: req.id,
        seq,
        work,
        deadline,
        accepted: Instant::now(),
        tx: tx.clone(),
    };
    shared.submit(job)
}

/// One connection's response side: receive `(seq, line)` completions in
/// any order, write them in sequence order, flush after each so a
/// waiting client sees its response without batching delay. A broken
/// pipe stops writing but keeps consuming, so workers never block on a
/// dead client.
fn writer_loop(stream: TcpStream, rx: Receiver<(u64, String)>) {
    let mut w = BufWriter::new(stream);
    let mut next = 0u64;
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    let mut dead = false;
    for (seq, line) in rx {
        pending.insert(seq, line);
        while let Some(line) = pending.remove(&next) {
            next += 1;
            if dead {
                continue;
            }
            let wrote = w
                .write_all(line.as_bytes())
                .and_then(|_| w.write_all(b"\n"))
                .and_then(|_| w.flush());
            if wrote.is_err() {
                dead = true;
            }
        }
    }
    let _ = w.flush();
    let _ = w.get_ref().shutdown(Shutdown::Write);
}

/// A worker: pop admitted jobs until the queue is closed and empty, then
/// exit. One `catch_unwind` per job keeps a pathological request from
/// taking the pool down.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    q.running += 1;
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                q = shared.queue_cv.wait(q).expect("queue lock");
            }
        };
        let Some(job) = job else { return };

        shared.counters.inflight.fetch_add(1, Ordering::Relaxed);
        serve_metrics().inflight.add(1);
        let seq = job.seq;
        let tx = job.tx.clone();
        let accepted = job.accepted;
        let fallback_id = job.id.clone();
        let resp = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(shared, job)))
            .unwrap_or_else(|_| {
                Response::error(fallback_id, "evaluation panicked: serve worker crashed")
            });
        shared.queue.lock().expect("queue lock").running -= 1;
        shared.counters.inflight.fetch_sub(1, Ordering::Relaxed);
        serve_metrics().inflight.add(-1);
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        serve_metrics()
            .request_wall_ns
            .add(accepted.elapsed().as_nanos() as u64);
        let _ = tx.send((seq, resp.to_json_line()));
    }
}

/// Runs one admitted job to its response, under the job's
/// [`Shared::control`] and against the process-wide cache. Evaluate/batch
/// go through [`evaluate_many_controlled`], search through
/// [`run_search`].
fn execute(shared: &Shared, job: Job) -> Response {
    let control = shared.control(job.deadline);
    match job.work {
        Work::Evaluate(spec) => {
            let mut results = evaluate_many_controlled(
                std::slice::from_ref(&spec),
                &BatchOptions::jobs(1),
                &shared.cache,
                None,
                &control,
            );
            match results.pop().expect("one result per spec") {
                Ok(ev) => Response::report(job.id, ev.report),
                Err(e) => Response::error(job.id, e.to_string()),
            }
        }
        Work::Batch(specs) => {
            let results = evaluate_many_controlled(
                &specs,
                &BatchOptions::jobs(1),
                &shared.cache,
                None,
                &control,
            );
            let items: Vec<BatchItem> = results
                .into_iter()
                .map(|r| match r {
                    Ok(ev) => BatchItem::ok(ev.report),
                    Err(e) => BatchItem::err(e.to_string()),
                })
                .collect();
            Response::results(job.id, items)
        }
        Work::Search { space, strategy } => {
            let cfg = SearchConfig {
                space,
                strategy,
                jobs: 1,
                cache: Some(Arc::clone(&shared.cache)),
                progress: false,
                control,
                ..SearchConfig::default()
            };
            let out = run_search(&cfg);
            Response::records(job.id, out.records, out.interrupted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert!(cfg.queue_cap > 0);
        assert_eq!(cfg.max_line_bytes, DEFAULT_MAX_LINE_BYTES);
    }

    #[test]
    fn payload_misuse_is_detected_per_op() {
        let mut req = Request::bare(Value::Null, Op::Status);
        assert_eq!(payload_misuse(&req), None);
        req.budget = Some(4);
        let msg = payload_misuse(&req).expect("budget on status is misuse");
        assert!(msg.contains("budget"), "{msg}");
        assert!(msg.contains("status"), "{msg}");

        let mut req = Request::bare(Value::Null, Op::Evaluate);
        req.deadline_ms = Some(5);
        assert_eq!(payload_misuse(&req), None, "deadline rides on work ops");
        req.specs = Some(Vec::new());
        assert!(
            payload_misuse(&req).is_some(),
            "specs does not fit evaluate"
        );
    }

    /// A search job, like evaluate and batch jobs, runs under
    /// [`Shared::control`]: the request deadline and the server's
    /// `spec_timeout` both interrupt it, and no interrupted point comes
    /// back as a record.
    #[test]
    fn search_jobs_run_under_the_server_control() {
        let run = |cfg: ServerConfig, deadline: Option<Deadline>| {
            let server = Server::bind(cfg).expect("bind loopback");
            let (tx, _rx) = mpsc::channel();
            let space = ParamSpace {
                families: vec![pd_search::Family::FatTree],
                servers: vec![64],
                fault_scenarios: vec![0],
                ..ParamSpace::default()
            };
            let job = Job {
                id: Value::Null,
                seq: 0,
                work: Work::Search {
                    space,
                    strategy: Strategy::Grid { budget: None },
                },
                deadline,
                accepted: Instant::now(),
                tx,
            };
            execute(&server.shared, job)
        };
        let expired = run(
            ServerConfig::default(),
            Some(Deadline::after(Duration::ZERO)),
        );
        let spec_timeout = run(
            ServerConfig {
                spec_timeout: Some(Duration::from_nanos(1)),
                ..ServerConfig::default()
            },
            None,
        );
        for resp in [expired, spec_timeout] {
            assert!(resp.ok);
            assert_eq!(resp.interrupted, Some(true));
            assert_eq!(resp.records.map(|r| r.len()), Some(0));
        }
    }

    #[test]
    fn waitgroup_blocks_until_everyone_leaves() {
        let wg = Arc::new(WaitGroup::default());
        for _ in 0..3 {
            wg.enter();
        }
        let waiter = {
            let wg = Arc::clone(&wg);
            std::thread::spawn(move || wg.wait())
        };
        for _ in 0..3 {
            wg.leave();
        }
        waiter.join().expect("waiter returns");
        wg.wait(); // zero members: returns immediately
    }
}
