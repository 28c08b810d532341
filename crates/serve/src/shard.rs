//! Sharded scheduler state: per-shard memo caches, bounded job queues,
//! and the work-stealing pop path.
//!
//! Each shard owns one [`Scheduler`] per semantics (a slice of the
//! process's memo cache) plus one bounded queue. Requests are routed to
//! a *home* shard by a deterministic hash of their operations' canonical
//! shapes ([`cxu_sched::pair_route_hash`]), so repeated traffic always
//! lands on the shard whose cache is warm for it — across connections,
//! processes, and restarts. Document routes hash the document id
//! instead, and batch (`schedule`) routes fold their operations' shape
//! hashes order-independently.
//!
//! Stealing: an idle shard worker that finds its own queue empty pops
//! the oldest job from another shard's queue. The stolen job still
//! carries its home shard id, and its verdict is committed to the
//! *home* shard's cache ([`Scheduler::commit_pair`], first writer
//! wins), so stealing moves CPU work — never cache entries — and the
//! memo cache can never hold two conflicting verdicts for one pair.
//!
//! Parking: a worker with nothing to pop or steal parks on one
//! set-wide condition (an epoch counter plus a condvar) that every push
//! and `close_all` bumps. A job queued behind a busy home worker is
//! therefore stolen the moment it is pushed, with no polling interval.

use crate::proto::{Request, Route};
use crate::server::{lock, WakePipe};
use cxu_obs::{Counter, Registry};
use cxu_ops::Semantics;
use cxu_sched::{op_route_hash, pair_route_hash, PairTask, SchedConfig, Scheduler};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

pub(crate) fn sem_index(s: Semantics) -> usize {
    match s {
        Semantics::Node => 0,
        Semantics::Tree => 1,
        Semantics::Value => 2,
    }
}

/// Where a worker deposits the response for a queued request. The
/// owning IO loop takes cells in per-connection FIFO order, which is
/// what keeps pipelined responses in request order; `fill` wakes that
/// loop through its wake pipe.
pub(crate) struct RespCell {
    resp: Mutex<Option<String>>,
    wake: Arc<WakePipe>,
}

impl RespCell {
    pub(crate) fn new(wake: Arc<WakePipe>) -> Arc<RespCell> {
        Arc::new(RespCell {
            resp: Mutex::new(None),
            wake,
        })
    }

    /// Stores the response, then wakes the owning IO loop (in that
    /// order: the loop must find the response once it is awake).
    pub(crate) fn fill(&self, s: String) {
        *lock(&self.resp) = Some(s);
        self.wake.wake();
    }

    pub(crate) fn take(&self) -> Option<String> {
        lock(&self.resp).take()
    }
}

/// One admitted unit of work, bound for `home`'s queue (but possibly
/// executed elsewhere via stealing).
pub(crate) struct Job {
    pub req: Request,
    pub received: Instant,
    pub deadline: Option<Instant>,
    /// The shard whose cache owns this request's verdict.
    pub home: usize,
    /// Whether the `serve::request` failpoint already fired for this
    /// request on the IO thread (inline-lookup path) — a worker must
    /// not fire it a second time.
    pub fired: bool,
    /// A detached pair task produced by an inline cache-miss lookup;
    /// the worker runs it lock-free and commits to `home`.
    pub prepared: Option<Box<PairTask>>,
    pub cell: Arc<RespCell>,
}

pub(crate) enum PushError {
    Full,
    Closed,
}

/// A bounded MPMC queue. `close` flips `closed`; `try_pop` keeps
/// handing out already-admitted jobs until empty — the drain guarantee.
/// Waiting for work is the [`ShardSet`]'s business, not the queue's.
pub(crate) struct Queue {
    state: Mutex<QueueState>,
    depth: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Queue {
    fn new(depth: usize) -> Queue {
        Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            depth: depth.max(1),
        }
    }

    fn try_push(&self, job: Job) -> Result<(), PushError> {
        let mut st = lock(&self.state);
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.jobs.len() >= self.depth {
            return Err(PushError::Full);
        }
        st.jobs.push_back(job);
        Ok(())
    }

    fn try_pop(&self) -> Option<Job> {
        lock(&self.state).jobs.pop_front()
    }

    fn close(&self) {
        lock(&self.state).closed = true;
    }

    fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }

    pub(crate) fn len(&self) -> usize {
        lock(&self.state).jobs.len()
    }
}

/// One shard: a queue, three schedulers (one per semantics — their memo
/// caches must not mix), and the `serve.shard.<i>.*` counters, resolved
/// against the owning server's registry at construction.
pub(crate) struct Shard {
    pub queue: Queue,
    scheds: [Mutex<Scheduler>; 3],
    /// Requests whose home is this shard (inline + queued + rejected).
    pub routed: &'static Counter,
    /// Check requests answered on the IO thread from this shard's warm
    /// cache (no queue round-trip).
    pub inline_hits: &'static Counter,
    /// Queued jobs with this home shard completed by any worker.
    pub executed: &'static Counter,
    /// Of `executed`, jobs run by a *different* shard's worker.
    pub stolen: &'static Counter,
}

impl Shard {
    pub(crate) fn sched(&self, sem: Semantics) -> &Mutex<Scheduler> {
        &self.scheds[sem_index(sem)]
    }
}

fn fnv_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The set of shards plus deterministic request routing.
pub(crate) struct ShardSet {
    shards: Vec<Shard>,
    /// Bumped by every push and by `close_all`; an idle worker parks on
    /// `parked` until it moves past the value it saw before its scan.
    epoch: Mutex<u64>,
    parked: Condvar,
}

impl ShardSet {
    pub(crate) fn new(n: usize, queue_depth: usize, base: SchedConfig, reg: &Registry) -> ShardSet {
        let n = n.max(1);
        let shards = (0..n)
            .map(|i| {
                let mk = |sem: Semantics| {
                    Mutex::new(Scheduler::new(SchedConfig {
                        semantics: sem,
                        ..base
                    }))
                };
                Shard {
                    queue: Queue::new(queue_depth),
                    scheds: [
                        mk(Semantics::Node),
                        mk(Semantics::Tree),
                        mk(Semantics::Value),
                    ],
                    routed: reg.counter_dyn(&format!("serve.shard.{i}.routed")),
                    inline_hits: reg.counter_dyn(&format!("serve.shard.{i}.inline_hits")),
                    executed: reg.counter_dyn(&format!("serve.shard.{i}.executed")),
                    stolen: reg.counter_dyn(&format!("serve.shard.{i}.stolen")),
                }
            })
            .collect();
        ShardSet {
            shards,
            epoch: Mutex::new(0),
            parked: Condvar::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn get(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// The home shard of a request: pair hash for checks, folded op
    /// hashes for batches, document-id hash for store routes. Admin
    /// routes never reach a shard; they report 0 harmlessly.
    pub(crate) fn route(&self, req: &Request) -> usize {
        let n = self.shards.len() as u64;
        let h = match &req.route {
            Route::Check { a, b } => pair_route_hash(a, b),
            Route::Schedule { ops } => {
                // Commutative fold: the same batch in any order lands on
                // the same shard.
                ops.iter()
                    .fold(0u64, |acc, op| acc.wrapping_add(op_route_hash(op)))
            }
            Route::DocPut { doc, .. }
            | Route::DocGet { doc, .. }
            | Route::DocDelete { doc, .. }
            | Route::DocCheck { doc, .. } => fnv_str(doc),
            // A transaction routes like its first written document, so
            // single-doc transactions share their document's warm shard.
            Route::Txn { txn } => fnv_str(&txn.writes[0].doc),
            Route::DocChanges { .. } => fnv_str("doc_changes"),
            Route::TxnBegin | Route::TxnSubmit { .. } | Route::TxnCommit => 0,
            Route::Metrics | Route::Health | Route::Shutdown => 0,
        };
        (h % n) as usize
    }

    pub(crate) fn queued_total(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Admits `job` to shard `home`'s queue and wakes one parked
    /// worker — any worker may take it, the home one or a thief.
    pub(crate) fn push(&self, home: usize, job: Job) -> Result<(), PushError> {
        self.shards[home].queue.try_push(job)?;
        *lock(&self.epoch) += 1;
        self.parked.notify_one();
        Ok(())
    }

    pub(crate) fn close_all(&self) {
        for s in &self.shards {
            s.queue.close();
        }
        *lock(&self.epoch) += 1;
        self.parked.notify_all();
    }

    /// The worker pop path: own queue first; when it is empty, steal
    /// the oldest job from another shard (scanning from `me + 1` so two
    /// idle workers don't always raid the same victim). Returns `None`
    /// only when every queue is closed *and* empty — admitted jobs are
    /// always drained, even across shards. With nothing to take, the
    /// worker parks until the epoch moves: a push or close that lands
    /// after the epoch was read cannot be missed.
    pub(crate) fn next_job(&self, me: usize) -> Option<Job> {
        let n = self.shards.len();
        loop {
            let seen = *lock(&self.epoch);
            if let Some(job) = self.shards[me].queue.try_pop() {
                return Some(job);
            }
            for off in 1..n {
                let victim = (me + off) % n;
                if let Some(job) = self.shards[victim].queue.try_pop() {
                    return Some(job);
                }
            }
            if self
                .shards
                .iter()
                .all(|s| s.queue.is_closed() && s.queue.len() == 0)
            {
                return None;
            }
            let mut epoch = lock(&self.epoch);
            while *epoch == seen {
                epoch = self.parked.wait(epoch).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}
