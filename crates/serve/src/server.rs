//! The daemon: a sharded, nonblocking serving core with admission
//! control, request pipelining, work stealing, and graceful shutdown.
//!
//! Thread layout: one acceptor (the caller of [`Server::run`]), a small
//! set of IO event-loop threads, and one worker thread per shard.
//! Accepted connections are handed round-robin to the IO loops, which
//! run **nonblocking** sockets (`std::net` + `set_nonblocking`, no
//! dependencies): a loop pass flushes buffered responses, reads what
//! has arrived, and parses complete NDJSON lines. A connection may have
//! many requests in flight (`pipeline_depth`); responses are delivered
//! strictly in request order because only the owning IO loop writes the
//! socket, popping per-request response cells FIFO.
//!
//! Readiness: no thread waits on a timer. A loop pass that moved
//! nothing blocks in `poll(2)` over its connections — read interest
//! exactly when the pass would read, write interest only with bytes to
//! flush — plus a wake pipe that a worker writes when it fills one of
//! the loop's response cells. The acceptor polls the listener plus its
//! own wake pipe, and idle shard workers park on a condition that every
//! push signals ([`crate::shard`]).
//!
//! Sharding: every work request is routed to a *home* shard by a
//! deterministic hash of its operations' canonical shapes (see
//! [`crate::shard`]). Each shard owns its own schedulers — a slice of
//! the memo cache — so repeated shapes always hit a warm cache without
//! any cross-shard locking. The IO loop answers a `check` whose pair is
//! already memoized, or that the sound pre-filter decides, *inline* (one
//! brief `try_lock` on the home shard — no queue round-trip); other
//! misses are queued to the home shard, where the
//! detector runs with **no scheduler lock held**
//! ([`cxu_sched::PairTask`]) and only the commit re-takes it; the
//! store's merge and transaction pair checks take the same path
//! (`Shard::decide`). Only a `schedule` batch runs its detectors under
//! the home shard's lock. Idle
//! shard workers steal queued jobs from other shards, committing stolen
//! verdicts back to the home shard's cache, so one NP-side straggler
//! can't head-of-line-block its shard.
//!
//! Admission: a work request is queued only if its home shard's bounded
//! queue has room; otherwise the client gets `overloaded` on the spot.
//! `health`, `metrics`, and `shutdown` are answered inline on the IO
//! thread — a health probe must succeed precisely when the server is
//! overloaded.
//!
//! Metrics isolation: every server owns a private
//! [`cxu_obs::Registry`], and every thread it spawns binds to it, so
//! *all* metrics the server's activity produces (serve, sched, store
//! layers alike) land in that registry. Two servers in one process —
//! concurrent or sequential — never bleed counters into each other;
//! the `metrics` route snapshots the server's own registry directly.
//!
//! Read-timeout accounting: the slow-loris guard measures how long a
//! connection has stalled on a *partial* request line, but only while
//! the server owes that connection nothing — a pipelined client slowly
//! draining responses (or waiting on in-flight work) is not a stalled
//! writer and is never misclassified as a `timeout`.
//!
//! Shutdown (`shutdown` route, [`ServerHandle::shutdown`], or the CLI's
//! signal hook): the acceptor stops accepting and closes the shard
//! queues; workers drain every already-admitted job; IO loops stop
//! reading, flush every pending response, then close. New work arriving
//! during the drain is answered `shutting-down`.

use crate::proto::{self, Request, Route};
use crate::shard::{Job, PushError, RespCell, ShardSet};
use cxu_gen::wire::TxnWire;
use cxu_obs::Registry;
use cxu_runtime::{failpoints, Deadline};
use cxu_sched::{Op, PairLookup, SchedConfig, Scheduler};
use cxu_store::{DurabilityConfig, FsyncPolicy, Store, StoreConfig, StoreError};
use cxu_txn::Txn;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Shard count (≥ 1): each shard owns one worker thread, one
    /// bounded queue, and its own schedulers (a slice of the memo
    /// cache). The CLI exposes this as `--shards` (with `--workers`
    /// kept as an alias).
    pub workers: usize,
    /// Bounded queue depth *per shard*; a request arriving when its
    /// home shard already has `queue_depth` jobs waiting is rejected
    /// `overloaded` (≥ 1).
    pub queue_depth: usize,
    /// Maximum queued-but-unanswered requests per connection; the IO
    /// loop stops reading from a connection at this depth until
    /// responses drain (≥ 1).
    pub pipeline_depth: usize,
    /// Default per-request deadline (overridable per request with
    /// `deadline_ms`). `None` runs unbounded.
    pub default_deadline: Option<Duration>,
    /// Base scheduler configuration. `semantics` is overridden per
    /// request; a `schedule` batch's pairs stop at the request deadline
    /// or at `pair_deadline`, whichever comes first.
    pub sched: SchedConfig,
    /// Document store configuration (admission bound, merge retries).
    pub store: StoreConfig,
    /// Data directory for the document store's WAL and snapshots.
    /// `None` (the default) keeps the store purely in-memory.
    pub data_dir: Option<PathBuf>,
    /// Fsync policy for the WAL (meaningful only with `data_dir`). A
    /// `doc_put` is acked only after its record is durable per this
    /// policy.
    pub fsync: FsyncPolicy,
    /// Compact the WAL every this many records (0 disables).
    pub snapshot_every: u64,
    /// How long a connection may sit on a *partial* request line — with
    /// no responses owed to it — before the server answers `timeout`
    /// and closes it (the slow-loris guard). Idle connections with no
    /// partial line are never timed out, and neither is a pipelined
    /// connection the server still owes responses. `None` disables the
    /// guard.
    pub read_timeout: Option<Duration>,
    /// Maximum request-line length; longer lines are answered
    /// `bad-request` and the connection closed (instead of buffering
    /// without bound).
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            queue_depth: 64,
            pipeline_depth: 64,
            default_deadline: Some(Duration::from_millis(100)),
            data_dir: None,
            fsync: FsyncPolicy::Always,
            snapshot_every: 1024,
            read_timeout: Some(Duration::from_secs(10)),
            max_line_bytes: proto::MAX_LINE_BYTES,
            sched: SchedConfig {
                // Single-pair checks run on the worker thread itself;
                // batch fan-out inside one request would oversubscribe
                // the pool.
                jobs: 1,
                // A latency-oriented budget for the NP-side searches.
                // The batch default (200 000 trees) can burn hundreds of
                // milliseconds on one exotic update–update pair; under a
                // request deadline that degrades to conservative-deadline,
                // which is *never memoized* — so the server would re-pay
                // the full search on every repeat of the pair. A small
                // budget exhausts in single-digit milliseconds and lands
                // on conservative-undecided, which is memoized and still
                // sound (degraded, so clients can see it was not exact).
                np_max_trees: 5_000,
                ..SchedConfig::default()
            },
            store: StoreConfig::default(),
        }
    }
}

/// Totals for one server lifetime, returned by [`Server::run`].
/// Satisfies `accepted == completed + rejected_overload + failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections served.
    pub connections: u64,
    /// Complete request lines received.
    pub accepted: u64,
    /// Requests answered `ok: true`.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected_overload: u64,
    /// Requests that failed for any other reason (bad request, internal
    /// error, shutdown race).
    pub failed: u64,
}

/// State shared by the acceptor, IO loops, and shard workers.
struct Shared {
    cfg: ServeConfig,
    start: Instant,
    shutdown: AtomicBool,
    /// Wakes the acceptor out of `poll` when shutdown begins.
    wake: WakePipe,
    /// One injector per IO loop.
    loops: Vec<Injector>,
    shards: ShardSet,
    /// The document store behind the `doc_*` routes (internally
    /// synchronized; shared by all shards).
    store: Store,
    /// This server's private metrics registry. Every thread the server
    /// spawns binds to it, so serve/sched/store metrics all isolate per
    /// server even when two servers overlap in one process.
    registry: &'static Registry,
    connections: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Sets the flag, then wakes the acceptor and every IO loop so each
    /// sees it without waiting for traffic.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.wake.wake();
        for inj in &self.loops {
            inj.wake.wake();
        }
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A handle for requesting graceful shutdown from another thread (the
/// CLI's signal hook, a test harness).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful shutdown: stop accepting, drain in-flight work.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` for an
    /// ephemeral port) without starting the loops.
    pub fn bind(cfg: ServeConfig, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let registry = Registry::leak();
        // Recover (or initialize) the durable store before accepting a
        // single connection — under the server's own registry, so
        // recovery counters are part of this server's metrics.
        let store = cxu_obs::with_registry(registry, || match &cfg.data_dir {
            Some(dir) => Store::open(
                cfg.store,
                DurabilityConfig {
                    dir: dir.clone(),
                    fsync: cfg.fsync,
                    snapshot_every: cfg.snapshot_every,
                },
            )
            .map_err(|e| std::io::Error::other(e.to_string())),
            None => Ok(Store::new(cfg.store)),
        })?;
        let shards = ShardSet::new(cfg.workers, cfg.queue_depth, cfg.sched, registry);
        let loops = (0..io_thread_count(shards.len()))
            .map(|_| Injector::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let shared = Arc::new(Shared {
            wake: WakePipe::new()?,
            loops,
            shards,
            store,
            registry,
            cfg,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// What startup recovery found (durable stores only) — the CLI
    /// prints this before announcing the listening address.
    pub fn recovery_report(&self) -> Option<cxu_store::RecoveryReport> {
        self.shared.store.recovery_report()
    }

    /// Runs the accept loop until shutdown, then drains and joins every
    /// thread the server started. No thread outlives this call.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let Server { listener, shared } = self;
        cxu_obs::with_registry(shared.registry, || run_inner(listener, shared))
    }
}

/// How many IO event-loop threads to run: enough to spread readiness
/// polling across cores, never more than the shard count, capped small
/// (each loop multiplexes many connections).
fn io_thread_count(shards: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(shards)
        .clamp(1, 4)
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs and
/// macOS.
#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

impl PollFd {
    fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// Blocks until one of `fds` is ready or `timeout` passes (`None`
/// waits indefinitely), filling each `revents`. An interrupted call
/// just returns: every caller re-runs its pass and polls again.
/// `poll` is declared directly (as the CLI declares `signal`), so the
/// crate stays dependency-free.
fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }
    let ms = match timeout {
        None => -1,
        // Rounded up: waking a hair before a stall deadline would only
        // buy a pass that finds nothing due.
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `struct pollfd`
    // values, and `nfds` is its length.
    unsafe {
        poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms);
    }
}

/// A self-pipe that wakes a thread blocked in `poll`: any thread may
/// `wake` it; its owner polls the read end and `drain`s it.
pub(crate) struct WakePipe {
    rx: UnixStream,
    tx: UnixStream,
}

impl WakePipe {
    fn new() -> std::io::Result<WakePipe> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakePipe { rx, tx })
    }

    /// Makes the read end readable. A full pipe already holds a pending
    /// wake-up, so a write that would block is simply dropped.
    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn poll_fd(&self) -> PollFd {
        PollFd::new(self.rx.as_raw_fd(), POLLIN)
    }

    /// Consumes every pending wake-up.
    fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// Hands accepted connections from the acceptor to one IO loop, and
/// owns that loop's wake pipe.
struct Injector {
    streams: Mutex<Vec<TcpStream>>,
    closed: AtomicBool,
    wake: Arc<WakePipe>,
}

impl Injector {
    fn new() -> std::io::Result<Injector> {
        Ok(Injector {
            streams: Mutex::new(Vec::new()),
            closed: AtomicBool::new(false),
            wake: Arc::new(WakePipe::new()?),
        })
    }

    fn push(&self, s: TcpStream) {
        lock(&self.streams).push(s);
        self.wake.wake();
    }

    fn drain(&self) -> Vec<TcpStream> {
        let mut guard = lock(&self.streams);
        std::mem::take(&mut *guard)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.wake.wake();
    }
}

fn run_inner(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let nshards = shared.shards.len();

    let mut workers = Vec::with_capacity(nshards);
    for me in 0..nshards {
        let shared = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || {
            cxu_obs::bind_thread_registry(shared.registry);
            worker_loop(&shared, me)
        }));
    }

    let mut io_threads = Vec::with_capacity(shared.loops.len());
    for me in 0..shared.loops.len() {
        let shared = Arc::clone(&shared);
        io_threads.push(std::thread::spawn(move || {
            cxu_obs::bind_thread_registry(shared.registry);
            io_loop(&shared, &shared.loops[me])
        }));
    }

    let drain = |shared: &Shared| {
        for inj in &shared.loops {
            inj.close();
        }
        shared.shards.close_all();
    };

    // The acceptor's wake pipe is written only by `begin_shutdown`, so
    // it never needs draining: the loop ends on its next check.
    let mut fds = [
        PollFd::new(listener.as_raw_fd(), POLLIN),
        shared.wake.poll_fd(),
    ];
    let mut next_io = 0usize;
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                cxu_obs::counter!("serve.connections").inc();
                shared.loops[next_io].push(stream);
                next_io = (next_io + 1) % shared.loops.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => poll_fds(&mut fds, None),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                shared.begin_shutdown();
                drain(&shared);
                for h in workers.drain(..).chain(io_threads.drain(..)) {
                    let _ = h.join();
                }
                return Err(e);
            }
        }
    }

    // Drain: stop accepting (drop the listener), let workers finish
    // every admitted job, then let IO loops flush the responses and
    // close their connections.
    drop(listener);
    drain(&shared);
    for h in workers {
        let _ = h.join();
    }
    for h in io_threads {
        let _ = h.join();
    }
    // Graceful drain leaves nothing for the next boot to replay:
    // flush buffered records, then snapshot and reset the log.
    if shared.store.is_durable() {
        let _ = shared.store.flush();
        let _ = shared.store.compact();
    }
    // The CLI disables (and thereby flushes) the trace sink after
    // this returns; the event marks the drain as complete.
    if cxu_obs::trace::enabled() {
        cxu_obs::trace::event(
            "serve.shutdown",
            &[(
                "accepted",
                (shared.accepted.load(Ordering::Relaxed) as usize).into(),
            )],
        );
    }

    Ok(ServeSummary {
        connections: shared.connections.load(Ordering::Relaxed),
        accepted: shared.accepted.load(Ordering::Relaxed),
        completed: shared.completed.load(Ordering::Relaxed),
        rejected_overload: shared.rejected.load(Ordering::Relaxed),
        failed: shared.failed.load(Ordering::Relaxed),
    })
}

/// Counts one request outcome (the accounting identity's right side).
enum Outcome {
    Completed,
    RejectedOverload,
    Failed,
}

fn tally(shared: &Shared, o: Outcome) {
    match o {
        Outcome::Completed => {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            cxu_obs::counter!("serve.completed").inc();
        }
        Outcome::RejectedOverload => {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            cxu_obs::counter!("serve.rejected_overload").inc();
        }
        Outcome::Failed => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            cxu_obs::counter!("serve.failed").inc();
        }
    }
}

// ---------------------------------------------------------------------
// Shard workers
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared, me: usize) {
    while let Some(job) = shared.shards.next_job(me) {
        let home = shared.shards.get(job.home);
        home.executed.inc();
        if job.home != me {
            home.stolen.inc();
        }
        let resp = process_job(shared, &job);
        cxu_obs::gauge!("serve.in_flight").dec();
        cxu_obs::histogram!("serve.request_ns").record_since(job.received);
        job.cell.fill(resp);
    }
}

/// Decides one admitted job on a worker thread. Panics (real or
/// injected at the `serve::request` site) are caught here: the request
/// fails, the worker survives.
fn process_job(shared: &Shared, job: &Job) -> String {
    if job.req.delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(job.req.delay_ms));
    }
    let run = || -> Result<String, String> {
        if !job.fired && failpoints::fire("serve::request") {
            return Err("injected budget exhaustion".to_owned());
        }
        let deadline = match job.deadline {
            Some(at) => Deadline::at(at),
            None => Deadline::never(),
        };
        let home = shared.shards.get(job.home);
        let sem = job.req.semantics;
        // How the store's write path consults the routed detectors for a
        // stale `doc_put` or `txn` (the store holds no lock of its own
        // while this closure runs).
        let mut check = |a: &Op, b: &Op| home.decide(sem, a, b, &deadline);
        match &job.req.route {
            Route::Check { a, b } => {
                // A task means the IO loop already looked the pair up
                // and missed.
                let d = match &job.prepared {
                    Some(task) => home.finish(sem, task, &deadline),
                    None => home.decide(sem, a, b, &deadline),
                };
                cxu_obs::histogram!("serve.check_ns").record_since(job.received);
                Ok(proto::render_check(job.req.id, &d))
            }
            Route::Schedule { ops } => {
                // The batch runs under the home shard's lock; each pair
                // stops at the request deadline (or its configured
                // slice, if earlier), so the batch ends near it too.
                let out = lock(home.sched(sem)).run_until(ops, &deadline);
                cxu_obs::histogram!("serve.schedule_ns").record_since(job.received);
                Ok(proto::render_schedule(
                    job.req.id,
                    &out.schedule.rounds,
                    &out.stats,
                ))
            }
            Route::DocPut {
                doc,
                base_rev,
                payload,
            } => {
                let out = shared
                    .store
                    .put(doc, *base_rev, (**payload).clone(), &mut check);
                cxu_obs::histogram!("serve.doc_put_ns").record_since(job.received);
                Ok(match out {
                    Ok(o) => proto::render_doc_put(job.req.id, "doc_put", doc, &o),
                    Err(e) => proto::render_doc_rejected(job.req.id, "doc_put", doc, &e),
                })
            }
            Route::DocDelete { doc, rev } => {
                let out = shared.store.delete(doc, *rev);
                cxu_obs::histogram!("serve.doc_put_ns").record_since(job.received);
                Ok(match out {
                    Ok(o) => proto::render_doc_put(job.req.id, "doc_delete", doc, &o),
                    Err(e) => proto::render_doc_rejected(job.req.id, "doc_delete", doc, &e),
                })
            }
            Route::DocGet {
                doc,
                rev,
                conflicts,
            } => {
                let out = shared.store.get(doc, *rev, *conflicts);
                cxu_obs::histogram!("serve.doc_get_ns").record_since(job.received);
                Ok(match out {
                    Ok(o) => proto::render_doc_get(job.req.id, doc, &o),
                    Err(e @ (StoreError::NotFound(_) | StoreError::UnknownRev(_))) => {
                        proto::render_doc_not_found(job.req.id, doc, &e)
                    }
                    Err(e) => proto::render_doc_rejected(job.req.id, "doc_get", doc, &e),
                })
            }
            Route::DocChanges { since, limit } => {
                let (entries, last_seq) = shared.store.changes(*since, *limit);
                cxu_obs::histogram!("serve.doc_get_ns").record_since(job.received);
                Ok(proto::render_doc_changes(job.req.id, &entries, last_seq))
            }
            Route::DocCheck {
                doc,
                rev,
                read,
                update,
            } => {
                // Grounded check: answer from the stored document's
                // structural index (cached per winner revision, built on
                // first use). The index is immutable once built, so the
                // detector runs with no store lock held.
                let out = shared.store.indexed(doc, *rev);
                let resp = match out {
                    Ok(idoc) => {
                        let conflict = cxu_index::detect_grounded(
                            read,
                            update,
                            &idoc.tree,
                            &idoc.index,
                            job.req.semantics,
                        );
                        proto::render_doc_check(
                            job.req.id,
                            doc,
                            &idoc.rev,
                            job.req.semantics,
                            conflict,
                            idoc.index.len(),
                        )
                    }
                    Err(e) => proto::render_doc_rejected(job.req.id, "doc_check", doc, &e),
                };
                cxu_obs::histogram!("serve.doc_check_ns").record_since(job.received);
                Ok(resp)
            }
            Route::Txn { txn } => {
                let out = shared.store.apply_txn(&txn.guards, &txn.writes, &mut check);
                cxu_obs::histogram!("serve.txn_ns").record_since(job.received);
                Ok(match out {
                    Ok(o) => proto::render_txn_applied(job.req.id, &o),
                    Err(e) => proto::render_txn_denied(job.req.id, &e),
                })
            }
            // Admin routes are answered inline on the IO thread (and
            // the txn accumulator routes on their connection) — none of
            // them ever enters a queue.
            Route::TxnBegin
            | Route::TxnSubmit { .. }
            | Route::TxnCommit
            | Route::Metrics
            | Route::Health
            | Route::Shutdown => Err("admin route reached the worker pool".to_owned()),
        }
    };
    let result = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
        cxu_obs::counter!("serve.panics").inc();
        Err("request panicked (isolated)".to_owned())
    });
    match result {
        Ok(resp) => {
            tally(shared, Outcome::Completed);
            resp
        }
        Err(detail) => {
            // A document mutation that died (panic, injected fault)
            // before the store could answer still counts in the store
            // partition: `store.puts` moves together with
            // `store.put.failed`, preserving the identity
            // `puts == applied + merged + branched + rejected + noop +
            // failed` (the store itself tallies only at success or
            // rejection, never on an unwound put).
            if matches!(
                job.req.route,
                Route::DocPut { .. } | Route::DocDelete { .. }
            ) {
                cxu_obs::counter!("store.puts").inc();
                cxu_obs::counter!("store.put.failed").inc();
            }
            // Same discipline for the transaction partition:
            // `txn.commits == applied + conflicted + rejected + failed`,
            // and `failed` is owned by this panic path (the store never
            // tallies an unwound commit).
            if matches!(job.req.route, Route::Txn { .. }) {
                cxu_obs::counter!("txn.commits").inc();
                cxu_obs::counter!("txn.failed").inc();
            }
            tally(shared, Outcome::Failed);
            proto::render_error(job.req.id, "internal", &detail)
        }
    }
}

// ---------------------------------------------------------------------
// IO event loops
// ---------------------------------------------------------------------

/// A response owed to a connection, in request order.
enum Pending {
    /// Computed inline; ready to flush.
    Ready(String),
    /// Admitted to a shard queue; the worker fills the cell.
    Waiting(Arc<RespCell>),
}

/// One nonblocking connection owned by an IO loop.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet parsed into a complete line.
    pending_in: Vec<u8>,
    /// Responses owed, FIFO in request order.
    out: VecDeque<Pending>,
    /// Rendered bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// The open `txn_begin`/`txn_submit` accumulator, if any. Purely
    /// per-connection state: a connection that closes mid-transaction
    /// leaves nothing behind (nothing reaches the store before
    /// `txn_commit`).
    txn_acc: Option<TxnWire>,
    /// When the connection entered its current quiet partial-line
    /// stall (slow-loris clock; see `ServeConfig::read_timeout`).
    stall_since: Option<Instant>,
    /// Stop reading (EOF, fatal request, or timeout); flush then close.
    closing: bool,
    /// Fully finished; the IO loop drops the connection.
    done: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            pending_in: Vec::new(),
            out: VecDeque::new(),
            wbuf: Vec::new(),
            txn_acc: None,
            stall_since: None,
            closing: false,
            done: false,
        })
    }

    /// The read gate: false while closing or draining, or while the
    /// pipeline is full. The `pending_in` bound matters: when the
    /// pipeline cap (not a missing newline) is what stalls parsing,
    /// reading further would grow an unbounded parse backlog — the
    /// socket is the backpressure. The `out.is_empty()` escape keeps one
    /// oversized line (bigger than the read buffer) able to complete.
    fn wants_read(&self, shared: &Shared, buf_len: usize, draining: bool) -> bool {
        !self.closing
            && !draining
            && self.out.len() < shared.cfg.pipeline_depth.max(1)
            && self.wbuf.len() < 64 * 1024
            && (self.out.is_empty() || self.pending_in.len() < buf_len)
    }

    /// This connection's `poll` entry after a pass that moved nothing:
    /// read interest exactly when `pump` would read, write interest only
    /// with bytes to flush, and fd −1 (skipped by `poll`) when it wants
    /// neither. Such a connection waits on its response cells, whose
    /// `fill` wakes the loop; polling its socket anyway would let a
    /// hung-up peer spin the loop.
    fn interest(&self, shared: &Shared, buf_len: usize, draining: bool) -> PollFd {
        let mut events = 0;
        if self.wants_read(shared, buf_len, draining) {
            events |= POLLIN;
        }
        if !self.wbuf.is_empty() {
            events |= POLLOUT;
        }
        let fd = if events == 0 {
            -1
        } else {
            self.stream.as_raw_fd()
        };
        PollFd::new(fd, events)
    }

    /// When the slow-loris guard fires if nothing arrives first.
    fn stall_deadline(&self, shared: &Shared) -> Option<Instant> {
        self.stall_since?.checked_add(shared.cfg.read_timeout?)
    }

    /// One pass: flush what's ready, read what's there, parse complete
    /// lines, keep the stall clock honest. Returns true if any progress
    /// was made; a pass that made none lets the IO loop block in `poll`.
    fn pump(
        &mut self,
        shared: &Shared,
        buf: &mut [u8],
        draining: bool,
        wake: &Arc<WakePipe>,
    ) -> bool {
        if self.done {
            return false;
        }
        let mut progress = false;

        // Move in-order ready responses into the write buffer.
        loop {
            match self.out.front() {
                Some(Pending::Ready(_)) => {
                    if let Some(Pending::Ready(s)) = self.out.pop_front() {
                        self.wbuf.extend_from_slice(s.as_bytes());
                        self.wbuf.push(b'\n');
                        progress = true;
                    }
                }
                Some(Pending::Waiting(cell)) => match cell.take() {
                    Some(s) => {
                        self.out.pop_front();
                        self.wbuf.extend_from_slice(s.as_bytes());
                        self.wbuf.push(b'\n');
                        progress = true;
                    }
                    None => break,
                },
                None => break,
            }
        }

        // Flush.
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => {
                    self.done = true;
                    return true;
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                    progress = true;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.done = true;
                    return true;
                }
            }
        }

        // Read, unless the gate says otherwise.
        if self.wants_read(shared, buf.len(), draining) {
            match self.stream.read(buf) {
                Ok(0) => {
                    self.closing = true;
                    progress = true;
                }
                Ok(n) => {
                    self.pending_in.extend_from_slice(&buf[..n]);
                    progress = true;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.done = true;
                    return true;
                }
            }
        }

        // Parse complete lines (also while draining: lines already
        // buffered still get answers — typically `shutting-down`).
        // Consumed bytes are drained once at the end: a per-line drain
        // would memmove the whole remaining backlog for every request.
        let mut consumed = 0usize;
        while !self.closing && self.out.len() < shared.cfg.pipeline_depth.max(1) {
            let Some(rel) = self.pending_in[consumed..].iter().position(|&b| b == b'\n') else {
                break;
            };
            if rel > shared.cfg.max_line_bytes {
                cxu_obs::counter!("serve.oversized_line").inc();
                self.reject_at_socket(shared, "bad-request", "request line too long");
                return true;
            }
            let line_end = consumed + rel;
            let outcome = handle_line(
                shared,
                &self.pending_in[consumed..line_end],
                &mut self.txn_acc,
                wake,
            );
            match outcome {
                LineOutcome::Ready(resp) => self.out.push_back(Pending::Ready(resp)),
                LineOutcome::Queued(cell) => self.out.push_back(Pending::Waiting(cell)),
            }
            consumed = line_end + 1;
            progress = true;
        }
        if consumed > 0 {
            self.pending_in.drain(..consumed);
        }
        // Only the current *partial line* is bounded by max_line_bytes —
        // the buffer as a whole may legitimately hold many complete
        // pipelined lines waiting behind the pipeline-depth cap.
        let partial_len = self
            .pending_in
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(self.pending_in.len(), |p| self.pending_in.len() - p - 1);
        if partial_len > shared.cfg.max_line_bytes {
            cxu_obs::counter!("serve.oversized_line").inc();
            self.reject_at_socket(shared, "bad-request", "request line too long");
            return true;
        }

        // The slow-loris clock runs only while the server owes this
        // connection *nothing*: a partial line alongside in-flight
        // responses (a pipelined client pausing between batches) is not
        // a stall — the clock starts, with a full budget, once the last
        // owed byte is flushed.
        let quiet = self.out.is_empty() && self.wbuf.is_empty();
        if self.pending_in.is_empty() || !quiet || self.closing || draining {
            self.stall_since = None;
        } else if self.stall_since.is_none() {
            self.stall_since = Some(Instant::now());
        }
        if let (Some(since), Some(limit)) = (self.stall_since, shared.cfg.read_timeout) {
            if since.elapsed() >= limit {
                cxu_obs::counter!("serve.read_timeouts").inc();
                self.reject_at_socket(shared, "timeout", "request line stalled");
                return true;
            }
        }

        if (self.closing || draining) && self.out.is_empty() && self.wbuf.is_empty() {
            self.done = true;
            progress = true;
        }
        progress
    }

    /// Counts a request the socket layer itself rejects (oversized
    /// line, stalled partial line): it enters the accounting identity
    /// as accepted + failed, exactly like a request a worker failed.
    fn reject_at_socket(&mut self, shared: &Shared, code: &str, detail: &str) {
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        cxu_obs::counter!("serve.accepted").inc();
        tally(shared, Outcome::Failed);
        self.out
            .push_back(Pending::Ready(proto::render_error(None, code, detail)));
        self.pending_in.clear();
        self.stall_since = None;
        self.closing = true;
    }
}

fn io_loop(shared: &Shared, inj: &Injector) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        let mut progress = false;
        for stream in inj.drain() {
            if let Ok(conn) = Conn::new(stream) {
                conns.push(conn);
            }
            progress = true;
        }
        let draining = shared.shutting_down();
        for conn in conns.iter_mut() {
            progress |= conn.pump(shared, &mut buf, draining, &inj.wake);
        }
        conns.retain(|c| !c.done);
        if draining && conns.is_empty() && inj.closed.load(Ordering::Acquire) {
            let leftovers = inj.drain(); // races with the acceptor's last pushes
            if leftovers.is_empty() {
                return;
            }
            drop(leftovers);
            progress = true;
        }
        if progress {
            continue;
        }
        // Nothing moved: block until a wanted socket is ready, a worker
        // fills a cell, the acceptor hands over a stream, shutdown
        // begins, or the nearest stall deadline falls due. Every waker
        // writes the pipe *after* publishing its change, and the pipe
        // is drained before the next pass looks, so no wake-up is lost.
        fds.clear();
        fds.push(inj.wake.poll_fd());
        let mut due: Option<Instant> = None;
        for conn in &conns {
            fds.push(conn.interest(shared, buf.len(), draining));
            if let Some(at) = conn.stall_deadline(shared) {
                due = Some(due.map_or(at, |d| d.min(at)));
            }
        }
        poll_fds(
            &mut fds,
            due.map(|at| at.saturating_duration_since(Instant::now())),
        );
        if fds[0].revents != 0 {
            inj.wake.drain();
        }
    }
}

/// What one parsed request line turned into.
enum LineOutcome {
    Ready(String),
    Queued(Arc<RespCell>),
}

/// The inline fast path's verdict on a `check` request.
enum InlineCheck {
    /// Answered from the home shard's warm cache, trivially, or by the
    /// pre-filter.
    Answered(String),
    /// The `serve::request` failpoint fired.
    Injected(String),
    /// Cache miss: the detached task goes to the home shard's queue.
    Miss(Box<cxu_sched::PairTask>),
    /// The home shard's scheduler was busy; queue without interning.
    Busy,
}

/// Handles one complete request line on the IO thread: admin routes,
/// the connection's transaction accumulator, and checks the lookup
/// decides inline; everything else through shard admission.
fn handle_line(
    shared: &Shared,
    line: &[u8],
    txn_acc: &mut Option<TxnWire>,
    wake: &Arc<WakePipe>,
) -> LineOutcome {
    let received = Instant::now();
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    cxu_obs::counter!("serve.accepted").inc();
    cxu_obs::gauge!("serve.in_flight").inc();
    let finish = |outcome: Outcome, resp: String| -> LineOutcome {
        tally(shared, outcome);
        cxu_obs::gauge!("serve.in_flight").dec();
        cxu_obs::histogram!("serve.request_ns").record_since(received);
        LineOutcome::Ready(resp)
    };
    let text = match std::str::from_utf8(line) {
        Ok(t) => t,
        Err(_) => {
            return finish(
                Outcome::Failed,
                proto::render_error(None, "bad-request", "request line is not UTF-8"),
            )
        }
    };
    let mut req = match proto::parse_request(text) {
        Ok(r) => r,
        Err(e) => {
            return finish(
                Outcome::Failed,
                proto::render_error(None, "bad-request", &e),
            )
        }
    };
    // The accumulator routes run right here on the connection's state:
    // `txn_begin`/`txn_submit` answer inline, and a valid `txn_commit`
    // rewrites itself into a one-shot `txn` before dispatch.
    if matches!(req.route, Route::TxnBegin) {
        return if txn_acc.is_some() {
            finish(
                Outcome::Failed,
                proto::render_error(
                    req.id,
                    "bad-request",
                    "a transaction is already open on this connection",
                ),
            )
        } else {
            *txn_acc = Some(TxnWire::default());
            finish(
                Outcome::Completed,
                proto::render_txn_pending(req.id, "txn_begin", 0, 0),
            )
        };
    }
    if let Route::TxnSubmit { frag } = &req.route {
        return match txn_acc.as_mut() {
            None => finish(
                Outcome::Failed,
                proto::render_error(req.id, "bad-request", "txn_submit without txn_begin"),
            ),
            Some(acc) => {
                acc.guards.extend(frag.guards.iter().cloned());
                acc.ops.extend(frag.ops.iter().cloned());
                finish(
                    Outcome::Completed,
                    proto::render_txn_pending(
                        req.id,
                        "txn_submit",
                        acc.guards.len(),
                        acc.ops.len(),
                    ),
                )
            }
        };
    }
    if matches!(req.route, Route::TxnCommit) {
        // Commit consumes the accumulator whether or not it converts —
        // a malformed transaction leaves the connection clean.
        match txn_acc.take() {
            None => {
                return finish(
                    Outcome::Failed,
                    proto::render_error(req.id, "bad-request", "txn_commit without txn_begin"),
                )
            }
            Some(w) if w.ops.is_empty() => {
                return finish(
                    Outcome::Failed,
                    proto::render_error(req.id, "bad-request", "transaction has no ops"),
                )
            }
            Some(w) => match Txn::from_wire(&w) {
                Err(e) => {
                    return finish(
                        Outcome::Failed,
                        proto::render_error(req.id, "bad-request", &e.to_string()),
                    )
                }
                Ok(t) => req.route = Route::Txn { txn: Box::new(t) },
            },
        }
    }
    match &req.route {
        // Admin routes bypass the queues: they must answer precisely
        // when the pool is saturated.
        Route::Health => finish(
            Outcome::Completed,
            proto::render_health(
                req.id,
                shared.start.elapsed().as_millis().min(u64::MAX as u128) as u64,
                cxu_obs::gauge!("serve.in_flight").get(),
                shared.shards.queued_total(),
                shared.shutting_down(),
            ),
        ),
        Route::Metrics => {
            tally(shared, Outcome::Completed);
            cxu_obs::gauge!("serve.in_flight").dec();
            cxu_obs::histogram!("serve.request_ns").record_since(received);
            // This server's own registry: counters and histograms are
            // its activity from birth (no baseline subtraction needed),
            // gauges are current levels, refreshed for the store just
            // now. Another server in the same process — even a
            // concurrent one — contributes nothing here.
            shared.store.set_gauges();
            let snap = shared.registry.snapshot();
            LineOutcome::Ready(proto::render_metrics(req.id, &snap.to_json()))
        }
        Route::Shutdown => {
            let resp = finish(Outcome::Completed, proto::render_shutdown(req.id));
            shared.begin_shutdown();
            resp
        }
        // The accumulator routes were consumed above; reaching dispatch
        // with one would be a bug in this function.
        Route::TxnBegin | Route::TxnSubmit { .. } | Route::TxnCommit => finish(
            Outcome::Failed,
            proto::render_error(req.id, "internal", "txn accumulator route reached dispatch"),
        ),
        Route::Check { .. }
        | Route::Schedule { .. }
        | Route::DocPut { .. }
        | Route::DocGet { .. }
        | Route::DocDelete { .. }
        | Route::DocChanges { .. }
        | Route::DocCheck { .. }
        | Route::Txn { .. } => {
            let deadline = req
                .deadline_ms
                .map(Duration::from_millis)
                .or(shared.cfg.default_deadline)
                .map(|d| received + d);
            let home = shared.shards.route(&req);
            shared.shards.get(home).routed.inc();
            let mut fired = false;
            let mut prepared = None;
            if matches!(req.route, Route::Check { .. }) && req.delay_ms == 0 {
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    inline_check(shared, &req, home, received)
                }));
                match attempt {
                    Err(_) => {
                        cxu_obs::counter!("serve.panics").inc();
                        return finish(
                            Outcome::Failed,
                            proto::render_error(req.id, "internal", "request panicked (isolated)"),
                        );
                    }
                    Ok(InlineCheck::Answered(resp)) => return finish(Outcome::Completed, resp),
                    Ok(InlineCheck::Injected(detail)) => {
                        return finish(
                            Outcome::Failed,
                            proto::render_error(req.id, "internal", &detail),
                        )
                    }
                    Ok(InlineCheck::Miss(task)) => {
                        fired = true;
                        prepared = Some(task);
                    }
                    Ok(InlineCheck::Busy) => fired = true,
                }
            }
            let cell = RespCell::new(Arc::clone(wake));
            let id = req.id;
            let job = Job {
                req,
                received,
                deadline,
                home,
                fired,
                prepared,
                cell: Arc::clone(&cell),
            };
            match shared.shards.push(home, job) {
                Ok(()) => LineOutcome::Queued(cell),
                Err(PushError::Full) => finish(
                    Outcome::RejectedOverload,
                    proto::render_error(id, "overloaded", "queue full"),
                ),
                Err(PushError::Closed) => finish(
                    Outcome::Failed,
                    proto::render_error(id, "shutting-down", "server is draining"),
                ),
            }
        }
    }
}

/// The warm-shard fast path, run on the IO thread: fire the request
/// failpoint, then try a brief lookup on the home shard. A cache hit, a
/// trivial pair, or a miss the pre-filter decides renders right here —
/// no queue round-trip, no worker wakeup. `try_lock` keeps the IO loop wait-free: if the home
/// shard is mid-batch, the request just queues.
fn inline_check(shared: &Shared, req: &Request, home: usize, received: Instant) -> InlineCheck {
    if failpoints::fire("serve::request") {
        return InlineCheck::Injected("injected budget exhaustion".to_owned());
    }
    let Route::Check { a, b } = &req.route else {
        return InlineCheck::Busy;
    };
    let shard = shared.shards.get(home);
    let mut sched: MutexGuard<'_, Scheduler> = match shard.sched(req.semantics).try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => return InlineCheck::Busy,
    };
    match sched.lookup_pair(a, b) {
        PairLookup::Ready(d) => {
            drop(sched);
            shard.inline_hits.inc();
            cxu_obs::histogram!("serve.check_ns").record_since(received);
            InlineCheck::Answered(proto::render_check(req.id, &d))
        }
        PairLookup::Miss(task) => InlineCheck::Miss(task),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxu_gen::json::Json;
    use std::io::BufRead;

    fn roundtrip(stream: &mut TcpStream, req: &str) -> Json {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim_end()).unwrap()
    }

    #[test]
    fn smoke_check_and_shutdown() {
        let server = Server::bind(ServeConfig::default(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run().unwrap());
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        let req = r#"{"route": "check", "id": 1,
                "a": {"kind": "read", "pattern": "*//C"},
                "b": {"kind": "insert", "pattern": "*/B", "subtree": "C"}}"#
            .replace('\n', " ");
        let v = roundtrip(&mut c, &req);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("conflict").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));

        let v = roundtrip(&mut c, r#"{"route": "health"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));

        let v = roundtrip(&mut c, r#"{"route": "shutdown"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("draining"));
        drop(c);
        let summary = t.join().unwrap();
        assert_eq!(summary.connections, 1);
        assert_eq!(
            summary.accepted,
            summary.completed + summary.rejected_overload + summary.failed
        );
        assert_eq!(summary.failed, 0);
    }

    #[test]
    fn bad_requests_fail_without_closing_the_connection() {
        let server = Server::bind(ServeConfig::default(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let t = std::thread::spawn(move || server.run().unwrap());
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        let v = roundtrip(&mut c, "this is not json");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad-request"));

        // The same connection still serves good requests afterwards.
        let v = roundtrip(&mut c, r#"{"route": "health"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

        handle.shutdown();
        drop(c);
        let summary = t.join().unwrap();
        assert_eq!(summary.failed, 1);
        assert_eq!(
            summary.accepted,
            summary.completed + summary.rejected_overload + summary.failed
        );
    }

    #[test]
    fn txn_routes_commit_atomically_and_lose_retryably() {
        let server = Server::bind(ServeConfig::default(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run().unwrap());
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        let put = |c: &mut TcpStream, doc: &str, content: &str| -> String {
            let v = roundtrip(
                c,
                &format!(r#"{{"route": "doc_put", "doc": "{doc}", "content": "{content}"}}"#),
            );
            assert_eq!(v.get("result").and_then(Json::as_str), Some("created"));
            v.get("rev").and_then(Json::as_str).unwrap().to_owned()
        };
        let r1 = put(&mut c, "d1", "a(b c)");
        let r2 = put(&mut c, "d2", "a(x)");

        // One-shot txn: two documents, both guarded, all-or-nothing.
        let txn = format!(
            r#"{{"route": "txn", "id": 5,
                "guards": [{{"doc": "d1", "rev": "{r1}"}}, {{"doc": "d2", "rev": "{r2}"}}],
                "ops": [
                  {{"doc": "d1", "op": {{"kind": "insert", "pattern": "a/b", "subtree": "x"}}}},
                  {{"doc": "d2", "op": {{"kind": "delete", "pattern": "a/x"}}}}]}}"#
        )
        .replace('\n', " ");
        let v = roundtrip(&mut c, &txn);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
        assert_eq!(v.get("result").and_then(Json::as_str), Some("applied"));
        assert_eq!(v.get("replayed").and_then(Json::as_bool), Some(false));
        let revs = v.get("revs").and_then(Json::as_arr).unwrap();
        assert_eq!(revs.len(), 2);
        let g = roundtrip(&mut c, r#"{"route": "doc_get", "doc": "d1"}"#);
        assert_eq!(
            g.get("content").and_then(Json::as_str),
            Some("a(b(x) c)"),
            "{g}"
        );

        // A verbatim retry of a fully-guarded transaction is an
        // idempotent replay: the original revisions come back.
        let v2 = roundtrip(&mut c, &txn);
        assert_eq!(v2.get("result").and_then(Json::as_str), Some("applied"));
        assert_eq!(
            v2.get("replayed").and_then(Json::as_bool),
            Some(true),
            "{v2}"
        );
        assert_eq!(v2.get("revs").map(Json::to_string), revs_json(&v));

        // A stale guard whose chain does NOT commute with the program
        // loses retryably: delete a/b conflicts with the intervening
        // insert under a/b.
        let stale = format!(
            r#"{{"route": "txn", "guards": [{{"doc": "d1", "rev": "{r1}"}}],
                "ops": [{{"doc": "d1", "op": {{"kind": "delete", "pattern": "a/b"}}}}]}}"#
        )
        .replace('\n', " ");
        let v = roundtrip(&mut c, &stale);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
        assert_eq!(v.get("result").and_then(Json::as_str), Some("conflict"));
        assert_eq!(v.get("retryable").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("reason").and_then(Json::as_str), Some("txn-conflict"));

        // The accumulator form: begin, submit fragments, commit.
        let v = roundtrip(&mut c, r#"{"route": "txn_begin"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("open"));
        let v = roundtrip(
            &mut c,
            r#"{"route": "txn_submit",
                "ops": [{"doc": "d2", "op": {"kind": "insert", "pattern": "a", "subtree": "y"}}]}"#
                .replace('\n', " ")
                .as_str(),
        );
        assert_eq!(v.get("ops").and_then(Json::as_u64), Some(1));
        let v = roundtrip(&mut c, r#"{"route": "txn_commit"}"#);
        assert_eq!(
            v.get("result").and_then(Json::as_str),
            Some("applied"),
            "{v}"
        );

        // Commit without an open transaction is a client error, and the
        // connection keeps serving.
        let v = roundtrip(&mut c, r#"{"route": "txn_commit"}"#);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Json::as_str), Some("bad-request"));

        roundtrip(&mut c, r#"{"route": "shutdown"}"#);
        drop(c);
        t.join().unwrap();
    }

    fn revs_json(v: &Json) -> Option<String> {
        v.get("revs").map(Json::to_string)
    }

    #[test]
    fn repeated_pairs_are_answered_inline_from_the_warm_shard() {
        let server = Server::bind(ServeConfig::default(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || server.run().unwrap());
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        let req = |id: u64| {
            format!(
                r#"{{"route": "check", "id": {id}, "a": {{"kind": "read", "pattern": "*//C"}}, "b": {{"kind": "insert", "pattern": "*/B", "subtree": "C"}}}}"#
            )
        };
        for id in 0..4 {
            let v = roundtrip(&mut c, &req(id));
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(v.get("cached").and_then(Json::as_bool), Some(id > 0));
        }
        let m = roundtrip(&mut c, r#"{"route": "metrics"}"#);
        let counters = m.get("metrics").and_then(|m| m.get("counters")).unwrap();
        let inline: u64 = (0..4)
            .filter_map(|i| {
                counters
                    .get(&format!("serve.shard.{i}.inline_hits"))
                    .and_then(Json::as_u64)
            })
            .sum();
        assert!(
            inline >= 3,
            "repeats should be served inline from the warm shard: {m}"
        );
        roundtrip(&mut c, r#"{"route": "shutdown"}"#);
        drop(c);
        let summary = t.join().unwrap();
        assert_eq!(summary.failed, 0);
        assert_eq!(summary.completed, summary.accepted);
    }
}
