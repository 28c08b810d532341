//! # cxu-serve — the conflict-detection daemon
//!
//! The paper casts conflict detection as the check a transaction
//! processor runs *online*, before interleaving concurrent XML updates
//! (§1, §3). This crate is that online layer: a long-running TCP
//! server exposing the sched/runtime/obs stack to clients, plus the
//! seeded load generator that drives it.
//!
//! Hermetic by construction: `std::net` + `std::thread` only — no
//! tokio, no serde (the wire format is [`cxu_gen::json`]).
//!
//! ## Wire protocol
//!
//! Newline-delimited JSON both ways: one request object per line, one
//! response object per line, in order, per connection. Routes:
//!
//! * `check` — one operation pair under any semantics → verdict;
//! * `schedule` — a batch of operations → conflict-free rounds;
//! * `doc_put` / `doc_get` / `doc_delete` / `doc_changes` — the
//!   multi-version document store ([`cxu_store`]): MVCC puts with
//!   commutativity-aware auto-merge, winner reads, tombstones, and the
//!   monotonic changes feed;
//! * `metrics` — this server's own [`cxu_obs`] registry (every server
//!   instance owns a private registry; two servers in one process never
//!   bleed counters into each other);
//! * `health` — liveness plus queue/in-flight levels;
//! * `shutdown` — begin graceful shutdown (equivalent to SIGTERM).
//!
//! The full grammar lives in `DESIGN.md` ("Serving") and in
//! [`proto`]'s docs.
//!
//! ## Sharded nonblocking core
//!
//! The server is sharded: N shards (CLI `--shards`) each own their own
//! schedulers — a slice of the memo cache — and a bounded queue drained
//! by one worker. Requests are routed to a home shard by a
//! deterministic hash of their operations' canonical shapes, so
//! repeated shapes always hit a warm cache; idle workers steal queued
//! jobs from other shards but commit stolen verdicts back to the home
//! shard (`shard.rs` documents the soundness argument). Connections are
//! multiplexed by nonblocking IO event loops that pipeline many
//! requests per connection and answer warm-cache `check`s inline,
//! without a queue round-trip.
//!
//! ## Admission control and degradation
//!
//! A request that arrives when its home shard's bounded queue is full
//! is answered `overloaded` immediately — the server never buffers
//! without bound, so overload shows up as explicit rejections at the
//! client, not as silently growing latency. Admitted requests carry a
//! deadline that is threaded into the detectors as a
//! [`cxu_runtime::Deadline`]: a pair that cannot be decided in time
//! degrades to the scheduler's conservative verdicts instead of
//! stalling the connection. Worker panics are caught per request
//! ([`std::panic::catch_unwind`] plus the `serve::request` failpoint
//! site for injecting them).
//!
//! Accounting identity, checked by `tests/serve_validation.rs`:
//! `serve.accepted == serve.completed + serve.rejected_overload +
//! serve.failed`.

pub mod crash;
pub mod loadgen;
pub mod proto;
pub mod server;
pub(crate) mod shard;

pub use crash::{CrashConfig, CrashReport};
pub use loadgen::{sweep_to_json, LoadConfig, LoadProfile, LoadReport, StoreTallies};
pub use proto::{Request, Route};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
