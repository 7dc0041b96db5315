//! The serving engine: shard lifecycle, ingest fan-out, query collection
//! and snapshot orchestration.
//!
//! The engine is single-writer: one thread (the replay driver, or any
//! caller) pushes candidates, observations and queries; the
//! work-stealing [`crate::runtime::ShardRuntime`] applies them on its
//! worker threads. Ingest queues are **bounded** — when a shard falls behind, the
//! writer blocks on that shard's queue after bumping the
//! `serve.backpressure` counters, so memory stays flat under any load
//! imbalance instead of buffering the whole stream.
//!
//! Query answers arrive on a shared reply channel in nondeterministic
//! cross-shard order; the engine re-sequences them by query id (assigned
//! at issue time on the single writer) before anything user-visible sees
//! them, which is why shard scheduling never leaks into output order.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;

use pmr_core::{PmrError, PmrResult};
use pmr_sim::{Timestamp, TweetId, UserId};
use pmr_topics::TopicBackground;

use crate::config::{EngineConfig, RuntimeOptions};
use crate::runtime::ShardRuntime;
use crate::shard::{Recommendation, ShardMsg, ShardReply, TweetFeatures, UserState};
use crate::snapshot::{EngineSnapshot, SnapshotHeader, SNAPSHOT_VERSION};

/// A running sharded serving engine.
pub struct Engine {
    config: EngineConfig,
    runtime: ShardRuntime,
    reply_rx: Receiver<ShardReply>,
    next_query: u64,
    answered: BTreeMap<u64, Recommendation>,
    /// Query ids answered since the last [`Engine::poll_answered`] call.
    /// Filled by every internal drain so opportunistic draining (e.g. in
    /// [`Engine::query`]) never swallows a completion notification.
    newly_answered: Vec<u64>,
    /// Set when a shard worker dies mid-stream (its [`ShardReply::Aborted`]
    /// or a rejected post); fails the next snapshot barrier.
    aborted: Option<String>,
    /// The topic-background epoch last broadcast via
    /// [`Engine::set_background`]; recorded in snapshot headers so the
    /// resuming side can re-derive the same background. Stays 0 for the
    /// gram families.
    epoch: u64,
}

impl Engine {
    /// Spawn an empty engine.
    pub fn start(config: EngineConfig, runtime: RuntimeOptions) -> Engine {
        Engine::spawn(config, runtime, Vec::new(), 0)
    }

    /// Spawn an engine from a snapshot, under any shard layout.
    ///
    /// `resolve` maps a window entry's tweet id back to its features
    /// (recomputed from the corpus — snapshots store references, not
    /// vectors). Entries whose features cannot be resolved are dropped.
    /// A snapshot [`EngineSnapshot::from_jsonl`] would reject is rejected
    /// here too.
    pub fn resume(
        snapshot: &EngineSnapshot,
        runtime: RuntimeOptions,
        resolve: &dyn Fn(TweetId) -> Option<Arc<TweetFeatures>>,
    ) -> PmrResult<Engine> {
        snapshot.check()?;
        let restored: Vec<(UserId, UserState)> = snapshot
            .users
            .iter()
            .map(|u| (UserId(u.user), UserState::restore(u, resolve)))
            .collect();
        let mut engine =
            Engine::spawn(snapshot.header.config, runtime, restored, snapshot.header.queries);
        // The header's epoch survives the round trip even before the driver
        // re-broadcasts the background (which also re-sets it).
        engine.epoch = snapshot.header.epoch;
        Ok(engine)
    }

    fn spawn(
        config: EngineConfig,
        runtime: RuntimeOptions,
        users: Vec<(UserId, UserState)>,
        next_query: u64,
    ) -> Engine {
        let runtime = runtime.normalized();
        pmr_obs::gauge_set("serve.shards", runtime.shards as f64);
        pmr_obs::gauge_set("serve.workers", runtime.workers as f64);
        pmr_obs::gauge_set("serve.queue_capacity", runtime.queue_capacity as f64);
        let mut partitions: Vec<BTreeMap<UserId, UserState>> =
            (0..runtime.shards).map(|_| BTreeMap::new()).collect();
        for (user, state) in users {
            partitions[user.0 as usize % runtime.shards].insert(user, state);
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        let runtime = ShardRuntime::start(config, runtime, partitions, &reply_tx);
        Engine {
            config,
            runtime,
            reply_rx,
            next_query,
            answered: BTreeMap::new(),
            newly_answered: Vec::new(),
            aborted: None,
            epoch: 0,
        }
    }

    /// Broadcast a (re)trained topic background to every shard and record
    /// its epoch for snapshot headers. Called by the driver at fixed stream
    /// positions (before the first event, then on the refresh cadence), so
    /// the swap lands at the same point of every shard's FIFO sequence
    /// regardless of layout.
    pub fn set_background(&mut self, background: Arc<TopicBackground>) {
        self.epoch = background.epoch();
        for shard in 0..self.runtime.shards() {
            self.post(shard, ShardMsg::Epoch(Arc::clone(&background)));
        }
    }

    /// The engine's semantic configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Number of logical shards.
    pub fn shards(&self) -> usize {
        self.runtime.shards()
    }

    fn shard_of(&self, user: UserId) -> usize {
        user.0 as usize % self.runtime.shards()
    }

    /// Deliver to a shard, blocking (with a backpressure count) when its
    /// queue is full. A dead shard is recorded instead of panicking the
    /// writer; the next snapshot barrier surfaces it as a typed error.
    fn post(&mut self, shard: usize, msg: ShardMsg) {
        if self.runtime.post(shard, msg).is_err() {
            self.record_abort(shard);
        }
    }

    /// A shard rejected a post while the stream is still open: a worker
    /// died. Drain the reply queue for its [`ShardReply::Aborted`] (the
    /// panic guard sends one, but the rejection can be observed first),
    /// falling back to a generic message.
    fn record_abort(&mut self, shard: usize) {
        pmr_obs::counter_add("serve.shard_aborts", 1);
        self.drain_ready();
        if self.aborted.is_none() {
            self.aborted =
                Some(format!("shard {shard} worker exited while the stream is still open"));
        }
    }

    /// A tweet entered `user`'s feed: register it as a candidate.
    pub fn post_candidate(
        &mut self,
        user: UserId,
        tweet: TweetId,
        at: Timestamp,
        features: &Arc<TweetFeatures>,
    ) {
        pmr_obs::counter_add("serve.candidates", 1);
        let msg = ShardMsg::Candidate { user, tweet, at, features: Arc::clone(features) };
        self.post(self.shard_of(user), msg);
    }

    /// `user` retweeted: fold the original's features into their model.
    pub fn observe(&mut self, user: UserId, features: &Arc<TweetFeatures>) {
        pmr_obs::counter_add("serve.observes", 1);
        let msg = ShardMsg::Observe { user, features: Arc::clone(features) };
        self.post(self.shard_of(user), msg);
    }

    /// Ask for `user`'s top-`k` as of `now`. Returns the query id; the
    /// answer is re-sequenced into [`Engine::finish`]'s output.
    pub fn query(&mut self, user: UserId, k: usize, now: Timestamp) -> u64 {
        let id = self.next_query;
        self.next_query += 1;
        pmr_obs::counter_add("serve.queries", 1);
        self.post(self.shard_of(user), ShardMsg::Query { id, user, k, now });
        // Opportunistically drain answers so the reply queue stays small
        // on long replays.
        self.drain_ready();
        id
    }

    /// Queries issued so far (= the next query id).
    pub fn queries_issued(&self) -> u64 {
        self.next_query
    }

    /// Drain any ready replies without blocking and return the ids of all
    /// queries answered since the last call, ascending — including ones
    /// collected by the engine's own opportunistic drains in the meantime.
    /// Load harnesses use this to timestamp query completion (sojourn
    /// time) without waiting for [`Engine::finish`]; replies arrive in
    /// nondeterministic cross-shard order, but the ids are issue-time
    /// sequence numbers.
    pub fn poll_answered(&mut self) -> Vec<u64> {
        self.drain_ready();
        let mut ids = std::mem::take(&mut self.newly_answered);
        ids.sort_unstable();
        ids
    }

    fn drain_ready(&mut self) {
        while let Ok(reply) = self.reply_rx.try_recv() {
            // Snapshot parts cannot appear here: `snapshot` collects all of
            // them before returning, so outside that barrier the reply
            // queue only ever carries recommendations (or an abort).
            let _ = self.stash(reply);
        }
    }

    /// File a recommendation under its query id; pass snapshot parts back
    /// to the caller; record aborts.
    fn stash(&mut self, reply: ShardReply) -> Option<Vec<crate::snapshot::UserSnapshot>> {
        match reply {
            ShardReply::Recommendation(rec) => {
                self.newly_answered.push(rec.query);
                self.answered.insert(rec.query, rec);
                None
            }
            ShardReply::SnapshotPart { users } => Some(users),
            ShardReply::Aborted { shard, detail } => {
                if self.aborted.is_none() {
                    self.aborted = Some(format!("shard {shard} worker panicked: {detail}"));
                }
                None
            }
        }
    }

    /// Pause-and-copy the complete engine state at the current stream
    /// position (`events` is supplied by the driver, which owns the event
    /// cursor). Processing resumes immediately afterwards; the engine
    /// remains usable.
    ///
    /// Every message sent before this call is reflected in the snapshot:
    /// the snapshot marker traverses the same FIFO queues, so each shard
    /// answers only after applying everything ahead of it.
    ///
    /// Errors instead of waiting forever when a shard worker has died: a
    /// dead shard never answers the barrier, and its live siblings keep
    /// the reply channel open, so a plain `recv()` loop would hang. The
    /// worker's panic guard turns the death into a [`ShardReply::Aborted`]
    /// the loop below observes.
    pub fn snapshot(&mut self, events: u64) -> PmrResult<EngineSnapshot> {
        let shards = self.runtime.shards();
        for shard in 0..shards {
            self.post(shard, ShardMsg::Snapshot);
        }
        let mut parts: Vec<Vec<crate::snapshot::UserSnapshot>> = Vec::new();
        while parts.len() < shards && self.aborted.is_none() {
            match self.reply_rx.recv() {
                Ok(reply) => {
                    if let Some(users) = self.stash(reply) {
                        parts.push(users);
                    }
                }
                Err(_) => break,
            }
        }
        if parts.len() != shards {
            let detail = self.aborted.clone().unwrap_or_else(|| {
                "shard workers exited before answering the snapshot barrier".to_string()
            });
            return Err(PmrError::EngineAborted { detail });
        }
        let mut users: Vec<crate::snapshot::UserSnapshot> = parts.into_iter().flatten().collect();
        users.sort_by_key(|u| u.user);
        Ok(EngineSnapshot {
            header: SnapshotHeader {
                version: SNAPSHOT_VERSION,
                config: self.config,
                events,
                queries: self.next_query,
                epoch: self.epoch,
                users: users.len() as u64,
            },
            users,
        })
    }

    /// Close the stream, drain every shard, and stop and join the worker
    /// threads. Idempotent — a second call (or the [`Drop`] after an
    /// explicit call) is a no-op — and deliberately panic-free even after
    /// an abort: a panicked worker is recorded and surfaced through the
    /// sticky `aborted` state, while [`Engine::finish`] remains the path
    /// that re-raises it.
    pub fn shutdown(&mut self) {
        self.runtime.shutdown();
        self.drain_ready();
        if self.runtime.panicked() && self.aborted.is_none() {
            self.aborted = Some("a shard worker panicked".to_string());
        }
    }

    /// Close the stream, wait for every shard to drain, and return all
    /// recommendations in query-id order.
    ///
    /// Panics if a shard worker panicked — callers that need a panic-free
    /// teardown after an abort use [`Engine::shutdown`] (or just drop the
    /// engine) instead.
    pub fn finish(mut self) -> Vec<Recommendation> {
        self.shutdown();
        assert!(!self.runtime.panicked(), "a shard worker panicked");
        std::mem::take(&mut self.answered).into_values().collect()
    }
}

impl Drop for Engine {
    /// Join the worker threads even when the engine is dropped without
    /// [`Engine::finish`] — including after an [`PmrError::EngineAborted`]
    /// barrier failure. Never panics: a double panic during unwinding
    /// would abort the process.
    fn drop(&mut self) {
        self.runtime.shutdown();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("shards", &self.runtime.shards())
            .field("next_query", &self.next_query)
            .field("answered", &self.answered.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeModel;
    use pmr_bag::{BagSimilarity, SparseVector, WeightingScheme};
    use pmr_graph::{GraphSimilarity, NGramGraph};

    fn bag_config(window: usize) -> EngineConfig {
        EngineConfig {
            model: ServeModel::Bag {
                weighting: WeightingScheme::TF,
                similarity: BagSimilarity::Cosine,
                char_grams: false,
                n: 1,
                decay: 1.0,
            },
            window,
        }
    }

    fn unit(dim: u32) -> Arc<TweetFeatures> {
        Arc::new(TweetFeatures::Bag(SparseVector::from_pairs(vec![(dim, 1.0)])))
    }

    fn graph_config(window: usize) -> EngineConfig {
        EngineConfig {
            model: ServeModel::Graph {
                similarity: GraphSimilarity::Value,
                char_grams: false,
                n: 1,
            },
            window,
        }
    }

    fn bag_doc(dims: &[u32]) -> TweetFeatures {
        let pairs = dims.iter().map(|&d| (d, 1.0)).collect();
        TweetFeatures::Bag(SparseVector::from_pairs(pairs).normalized())
    }

    fn graph_doc(grams: &[u32]) -> TweetFeatures {
        TweetFeatures::Graph(NGramGraph::from_ids(grams, 1))
    }

    /// Drive `config` under 1 and 4 shards: users 0–4 each observe one
    /// document and user 5 none; every user sees eight candidates, one of
    /// them an empty document, and is queried at each `k` of `ks`. Returns
    /// every answer with the `k` it was asked for.
    fn answers(
        config: EngineConfig,
        doc: fn(&[u32]) -> TweetFeatures,
        ks: &[usize],
    ) -> Vec<(usize, Recommendation)> {
        let mut out = Vec::new();
        for shards in [1, 4] {
            let mut engine = Engine::start(
                config,
                RuntimeOptions { shards, queue_capacity: 4, ..RuntimeOptions::default() },
            );
            let mut asked = BTreeMap::new();
            for user in 0..6u32 {
                if user != 5 {
                    engine.observe(UserId(user), &Arc::new(doc(&[user, user + 1])));
                }
                for t in 0..8u32 {
                    let grams = if t == 0 { vec![] } else { vec![t, user, t + user] };
                    let features = Arc::new(doc(&grams));
                    engine.post_candidate(
                        UserId(user),
                        TweetId(user * 100 + t),
                        t.into(),
                        &features,
                    );
                }
                for &k in ks {
                    asked.insert(engine.query(UserId(user), k, 10), k);
                }
            }
            out.extend(engine.finish().into_iter().map(|rec| (asked[&rec.query], rec)));
        }
        out
    }

    #[test]
    fn a_zero_k_query_answers_with_no_items() {
        for (config, doc) in
            [(bag_config(8), bag_doc as fn(&[u32]) -> _), (graph_config(8), graph_doc)]
        {
            // k 8 answers with the whole window, so every score is checked.
            let answers = answers(config, doc, &[0, 3, 8]);
            assert_eq!(answers.len(), 2 * 6 * 3, "every query is answered under both layouts");
            for (k, rec) in &answers {
                assert_eq!(rec.items.len(), *k, "{}: k {k}", config.model.name());
                assert!(rec.items.iter().all(|i| !i.score.is_nan()), "a NaN score: {rec:?}");
            }
        }
    }

    #[test]
    fn a_zero_window_answers_every_query_with_no_items() {
        for (config, doc) in
            [(bag_config(0), bag_doc as fn(&[u32]) -> _), (graph_config(0), graph_doc)]
        {
            let answers = answers(config, doc, &[0, 1, 10]);
            assert_eq!(answers.len(), 2 * 6 * 3, "every query is answered under both layouts");
            for (k, rec) in &answers {
                assert!(rec.items.is_empty(), "{}: k {k} answered {rec:?}", config.model.name());
            }
        }
    }

    #[test]
    fn equal_scores_break_ties_by_ascending_tweet_id() {
        let mut engine = Engine::start(
            bag_config(8),
            RuntimeOptions { shards: 1, queue_capacity: 4, ..RuntimeOptions::default() },
        );
        let user = UserId(1);
        let features = unit(0);
        engine.observe(user, &features);
        // Identical vectors → identical scores; posting order 9, 2, 5 must
        // not leak into the answer.
        for tweet in [9u32, 2, 5] {
            engine.post_candidate(user, TweetId(tweet), 10, &features);
        }
        engine.query(user, 3, 10);
        let recs = engine.finish();
        assert_eq!(recs.len(), 1);
        let ids: Vec<u32> = recs[0].items.iter().map(|i| i.tweet).collect();
        assert_eq!(ids, vec![2, 5, 9], "ties must order by tweet id");
        assert!(recs[0].items.iter().all(|i| (i.score - 1.0).abs() < 1e-9));
    }

    #[test]
    fn queries_respect_the_time_horizon_and_k() {
        let mut engine = Engine::start(
            bag_config(8),
            RuntimeOptions { shards: 2, queue_capacity: 4, ..RuntimeOptions::default() },
        );
        let user = UserId(3);
        let features = unit(1);
        engine.observe(user, &features);
        engine.post_candidate(user, TweetId(1), 5, &features);
        engine.post_candidate(user, TweetId(2), 15, &features);
        // now = 10: the tweet from t=15 is in the window but not yet
        // eligible.
        engine.query(user, 10, 10);
        let recs = engine.finish();
        assert_eq!(recs[0].items.len(), 1);
        assert_eq!(recs[0].items[0].tweet, 1);
    }

    #[test]
    fn window_evicts_oldest_and_dedups_repeat_exposures() {
        let mut engine = Engine::start(
            bag_config(2),
            RuntimeOptions { shards: 1, queue_capacity: 4, ..RuntimeOptions::default() },
        );
        let user = UserId(5);
        let features = unit(2);
        engine.observe(user, &features);
        engine.post_candidate(user, TweetId(1), 1, &features);
        engine.post_candidate(user, TweetId(1), 2, &features); // repeat exposure
        engine.post_candidate(user, TweetId(2), 3, &features);
        engine.post_candidate(user, TweetId(3), 4, &features); // evicts tweet 1
        engine.query(user, 10, 100);
        let recs = engine.finish();
        let ids: Vec<u32> = recs[0].items.iter().map(|i| i.tweet).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn snapshot_errors_instead_of_hanging_when_a_shard_dies() {
        let mut engine = Engine::start(
            bag_config(4),
            RuntimeOptions { shards: 2, queue_capacity: 4, ..RuntimeOptions::default() },
        );
        engine.observe(UserId(0), &unit(0)); // shard 0
        engine.observe(UserId(1), &unit(0)); // shard 1
                                             // Kill shard 0; shard 1 stays alive, so the reply channel stays
                                             // open and a bare `recv()` barrier would block forever.
        engine.post(0, ShardMsg::Poison);
        let err = engine.snapshot(2).expect_err("the barrier must fail, not hang");
        assert!(err.to_string().contains("shard 0"), "the error names the dead shard: {err}");
        // The engine stays failed: a second barrier errors too.
        assert!(engine.snapshot(2).is_err());
        // Don't `finish()`: its assert is *supposed* to propagate the
        // worker panic. Dropping the engine joins the workers panic-free.
    }

    #[test]
    fn shutdown_is_idempotent() {
        let mut engine = Engine::start(
            bag_config(8),
            RuntimeOptions {
                shards: 3,
                workers: 2,
                queue_capacity: 4,
                ..RuntimeOptions::default()
            },
        );
        let user = UserId(1);
        let features = unit(0);
        engine.observe(user, &features);
        engine.post_candidate(user, TweetId(7), 5, &features);
        engine.query(user, 3, 10);
        engine.shutdown();
        engine.shutdown(); // double shutdown must be a no-op
        let recs = engine.finish(); // finish after shutdown is fine too
        assert_eq!(recs.len(), 1, "shutdown loses answers");
        assert_eq!(recs[0].items.len(), 1);
    }

    #[test]
    fn shutdown_after_abort_joins_without_panicking() {
        let mut engine = Engine::start(
            bag_config(4),
            RuntimeOptions {
                shards: 2,
                workers: 2,
                queue_capacity: 4,
                ..RuntimeOptions::default()
            },
        );
        engine.observe(UserId(0), &unit(0));
        engine.observe(UserId(1), &unit(0));
        engine.post(0, ShardMsg::Poison);
        assert!(engine.snapshot(2).is_err(), "the barrier must fail");
        // The regression: shutdown (and the drop that follows) must join
        // the dead worker without re-raising its panic, and stay
        // idempotent after the abort.
        engine.shutdown();
        engine.shutdown();
    }

    #[test]
    fn unknown_users_get_empty_recommendations() {
        let mut engine = Engine::start(
            bag_config(4),
            RuntimeOptions { shards: 1, queue_capacity: 4, ..RuntimeOptions::default() },
        );
        engine.query(UserId(99), 5, 10);
        let recs = engine.finish();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].items.is_empty());
    }
}
