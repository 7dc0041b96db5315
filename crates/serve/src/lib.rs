//! # pmr-serve
//!
//! A sharded **online** recommendation serving engine over the study's
//! incremental user models, with deterministic stream replay.
//!
//! The batch pipeline (`pmr-core`) answers the paper's question — *which
//! configuration ranks best?* — by refitting models from scratch. This
//! crate answers the deployment question the paper motivates in §1: the
//! same models maintained *incrementally* against a live tweet stream,
//! serving `recommend(user, k, now)` at any point.
//!
//! ```text
//!                      ┌──────────────────────────────┐
//!   event stream ────▶ │ Feed (single writer)         │
//!   (time-ordered)     │  · event → engine ops        │
//!                      │  · round-robin queries       │
//!                      └──────┬───────┬───────────────┘
//!                   bounded   │       │   bounded
//!                mailbox ▼    ▼       ▼   mailbox
//!                  ┌───────┐ ┌───────┐ ┌───────┐
//!                  │shard 0│ │shard 1│ │shard L│   user_id % shards
//!                  │models+│ │models+│ │models+│   one user ↦ one shard
//!                  │windows│ │windows│ │windows│   (logical shards)
//!                  └───┬───┘ └───┬───┘ └───┬───┘
//!                      └─────────┼─────────┘
//!              run queue ─▶ ┌────┴────┐ ◀─ N worker threads
//!              (steal any   │scheduler│    (or one thread per
//!               runnable    └────┬────┘     shard: `Threaded`)
//!               shard)           │
//!                                ▼ replies (re-sequenced by query id)
//!                      recommendations / snapshots
//! ```
//!
//! [`Replay`] over a materialized corpus, [`ingest_stream`] over a
//! [`pmr_sim::StreamGenerator`], and op-paced load harnesses via
//! [`corpus_ops`] all turn events into engine calls through one `Feed`;
//! the [`feed`] module states the rules.
//!
//! ## The determinism contract
//!
//! The engine's output — the recommendation log and any snapshot — is a
//! pure function of the event stream and the [`EngineConfig`]. Logical
//! shard count, worker thread count, scheduler, queue capacity and
//! feature-precompute thread count are *mechanical* knobs that must never
//! change a byte of output:
//!
//! * each user's state lives in exactly one shard and receives its
//!   messages through one FIFO in global stream order, and a shard is
//!   applied by at most one worker at a time, so per-user state evolution
//!   is layout-independent;
//! * query answers are re-sequenced by their issue-time ids before
//!   anything user-visible sees them;
//! * there is no wall-clock anywhere in the serving path — time is the
//!   stream's own timestamps, and observability timers run on `pmr-obs`'s
//!   injected clock.
//!
//! CI's `serve-smoke` job replays a seeded stream under 1 vs 4 shards and
//! 1 vs 4 jobs and byte-diffs the logs; the same checks run in-repo as
//! `#[test]`s.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod feed;
pub mod ingest;
pub mod replay;
mod runtime;
pub mod shard;
pub mod snapshot;

pub use config::{EngineConfig, RuntimeOptions, Scheduler, ServeModel};
pub use engine::Engine;
pub use feed::{corpus_ops, Op};
pub use ingest::ingest_stream;
pub use replay::{precompute_features, rec_log, Replay, ReplayOptions, ReplayOutcome};
pub use shard::{RecItem, Recommendation, TweetFeatures};
pub use snapshot::{
    EngineSnapshot, SnapshotHeader, UserModelSnapshot, UserSnapshot, WindowEntrySnapshot,
    SNAPSHOT_VERSION,
};
