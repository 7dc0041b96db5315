//! The one event path: how a stream event becomes engine calls.
//!
//! [`crate::Replay`] over a materialized corpus, [`crate::ingest_stream`]
//! over a [`pmr_sim::StreamGenerator`], and load harnesses that pace ops
//! one by one ([`corpus_ops`]) all translate events through one `Feed`,
//! so the rules live here once:
//!
//! * an **original** tweet is fanned out as a candidate to every follower
//!   of its author;
//! * a **retweet** does two things: the reposter's model *observes* the
//!   original's features (a retweet is the interest signal the whole study
//!   is built on), and the original is fanned out as a candidate to the
//!   reposter's followers at the repost's time — how content propagates
//!   past the author's own audience;
//! * every `query_every` events, the next evaluated user (round-robin) is
//!   asked for their top-k as of the event's timestamp.

use std::sync::Arc;

use pmr_sim::{Corpus, StreamEvent, Timestamp, TweetId, UserId};

use crate::engine::Engine;
use crate::shard::TweetFeatures;

/// One engine call.
#[derive(Debug, PartialEq)]
pub enum Op {
    /// `tweet` entered `user`'s feed at `at`.
    Candidate { user: UserId, tweet: TweetId, at: Timestamp, features: Arc<TweetFeatures> },
    /// `user` retweeted an original with these features.
    Observe { user: UserId, features: Arc<TweetFeatures> },
    /// Ask for `user`'s top-`k` as of `at`.
    Query { user: UserId, k: usize, at: Timestamp },
}

impl Engine {
    /// Send one op to the shards; returns the query id of an [`Op::Query`].
    pub fn apply(&mut self, op: &Op) -> Option<u64> {
        match op {
            Op::Candidate { user, tweet, at, features } => {
                self.post_candidate(*user, *tweet, *at, features);
                None
            }
            Op::Observe { user, features } => {
                self.observe(*user, features);
                None
            }
            Op::Query { user, k, at } => Some(self.query(*user, *k, *at)),
        }
    }
}

/// The event cursor and round-robin query schedule of one stream.
#[derive(Debug)]
pub(crate) struct Feed {
    eval_users: Vec<UserId>,
    k: usize,
    query_every: usize,
    events: u64,
    queries: u64,
}

impl Feed {
    /// A feed at the start of a stream, querying `eval_users` in turn
    /// every `query_every` events (0 disables querying).
    pub fn new(eval_users: Vec<UserId>, k: usize, query_every: usize) -> Feed {
        Feed { eval_users, k, query_every, events: 0, queries: 0 }
    }

    /// Continue from a snapshot taken after `events` events and `queries`
    /// queries.
    pub fn resume_at(self, events: u64, queries: u64) -> Feed {
        Feed { events, queries, ..self }
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Translate one event into ops, handed to `emit` in engine order.
    ///
    /// `features` belong to the original the event carries (the tweet
    /// itself, or the retweeted original); `None` skips the fan-out but
    /// still counts the event. `followers` are the author's.
    pub fn step(
        &mut self,
        event: &StreamEvent,
        features: Option<&Arc<TweetFeatures>>,
        followers: &[UserId],
        mut emit: impl FnMut(Op),
    ) {
        if let Some(features) = features {
            if event.retweet_of.is_some() {
                emit(Op::Observe { user: event.author, features: Arc::clone(features) });
            }
            let tweet = event.retweet_of.unwrap_or(event.tweet);
            for &user in followers {
                emit(Op::Candidate { user, tweet, at: event.at, features: Arc::clone(features) });
            }
        }
        self.events += 1;
        if self.query_every > 0
            && self.events.is_multiple_of(self.query_every as u64)
            && !self.eval_users.is_empty()
        {
            let user = self.eval_users[self.queries as usize % self.eval_users.len()];
            emit(Op::Query { user, k: self.k, at: event.at });
            self.queries += 1;
        }
    }

    /// [`Feed::step`] straight into `engine`, counted in `serve.events`.
    pub fn drive(
        &mut self,
        engine: &mut Engine,
        event: &StreamEvent,
        features: Option<&Arc<TweetFeatures>>,
        followers: &[UserId],
    ) {
        pmr_obs::counter_add("serve.events", 1);
        self.step(event, features, followers, |op| {
            engine.apply(&op);
        });
    }
}

/// Every op a replay of `corpus` sends, in order, for harnesses that pace
/// ops individually. `features` is the [`crate::precompute_features`]
/// table.
pub fn corpus_ops(
    corpus: &Corpus,
    features: &[Option<Arc<TweetFeatures>>],
    k: usize,
    query_every: usize,
) -> Vec<Op> {
    let mut feed = Feed::new(corpus.evaluated_user_ids().collect(), k, query_every);
    let mut ops = Vec::new();
    for event in corpus.event_stream() {
        let carried = features[event.retweet_of.unwrap_or(event.tweet).index()].as_ref();
        feed.step(&event, carried, corpus.graph.followers(event.author), |op| ops.push(op));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, RuntimeOptions, ServeModel};
    use crate::replay::{precompute_features, rec_log, Replay, ReplayOptions};
    use pmr_bag::SparseVector;
    use pmr_core::{PreparedCorpus, SplitConfig};
    use pmr_sim::{generate_corpus, ScalePreset, SimConfig};

    fn features(dim: u32) -> Arc<TweetFeatures> {
        Arc::new(TweetFeatures::Bag(SparseVector::from_pairs(vec![(dim, 1.0)])))
    }

    fn original(tweet: u32, author: u32, at: Timestamp) -> StreamEvent {
        StreamEvent { at, tweet: TweetId(tweet), author: UserId(author), retweet_of: None }
    }

    fn retweet(tweet: u32, author: u32, at: Timestamp, of: u32) -> StreamEvent {
        StreamEvent {
            at,
            tweet: TweetId(tweet),
            author: UserId(author),
            retweet_of: Some(TweetId(of)),
        }
    }

    fn users(ids: &[u32]) -> Vec<UserId> {
        ids.iter().map(|&u| UserId(u)).collect()
    }

    /// Step `events` through `feed`, every event carrying the same
    /// features and followed by `followers`, and collect the ops.
    fn ops_of(feed: &mut Feed, events: &[StreamEvent], followers: &[UserId]) -> Vec<Op> {
        let carried = features(0);
        let mut ops = Vec::new();
        for event in events {
            feed.step(event, Some(&carried), followers, |op| ops.push(op));
        }
        ops
    }

    fn queried(ops: &[Op]) -> Vec<u32> {
        ops.iter()
            .filter_map(|op| match op {
                Op::Query { user, .. } => Some(user.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_hand_built_stream_yields_the_expected_ops() {
        // Tweet 0 by user 1 (followed by 2 and 3), user 2 retweets it
        // (followed by 4), then tweet 2 by user 3 (followed by 1).
        let follower_lists: [&[u32]; 4] = [&[], &[2, 3], &[4], &[1]];
        let followers = |author: UserId| users(follower_lists[author.index()]);
        let (f0, f2) = (features(0), features(2));
        let stream =
            [(original(0, 1, 10), &f0), (retweet(1, 2, 20, 0), &f0), (original(2, 3, 30), &f2)];
        let mut feed = Feed::new(users(&[5, 6]), 3, 2);
        let mut ops = Vec::new();
        for (event, carried) in &stream {
            feed.step(event, Some(carried), &followers(event.author), |op| ops.push(op));
        }
        let candidate =
            |user: u32, tweet: u32, at: Timestamp, features: &Arc<TweetFeatures>| Op::Candidate {
                user: UserId(user),
                tweet: TweetId(tweet),
                at,
                features: Arc::clone(features),
            };
        let expected = vec![
            candidate(2, 0, 10, &f0),
            candidate(3, 0, 10, &f0),
            // The retweet is observed first; then the original (tweet 0,
            // not the repost) reaches the reposter's followers at the
            // repost's time.
            Op::Observe { user: UserId(2), features: Arc::clone(&f0) },
            candidate(4, 0, 20, &f0),
            Op::Query { user: UserId(5), k: 3, at: 20 },
            candidate(1, 2, 30, &f2),
        ];
        assert_eq!(ops, expected);
        assert_eq!(feed.events(), 3);
    }

    #[test]
    fn queries_rotate_and_a_resumed_feed_continues_the_rotation() {
        let stream: Vec<StreamEvent> = (0..7).map(|t| original(t, 1, t as Timestamp)).collect();
        let eval = users(&[5, 6, 7]);
        let whole = ops_of(&mut Feed::new(eval.clone(), 4, 2), &stream, &[]);
        assert_eq!(queried(&whole), vec![5, 6, 7]);
        // Three events and one query in, a resumed feed picks up at user 6.
        let mut resumed = Feed::new(eval, 4, 2).resume_at(3, 1);
        let tail = ops_of(&mut resumed, &stream[3..], &[]);
        assert_eq!(queried(&tail), vec![6, 7]);
        assert_eq!(resumed.events(), 7);
    }

    #[test]
    fn no_query_without_a_cadence_or_evaluated_users() {
        let stream: Vec<StreamEvent> = (0..5).map(|t| original(t, 1, t as Timestamp)).collect();
        let followers = users(&[2]);
        let silent = ops_of(&mut Feed::new(users(&[5]), 4, 0), &stream, &followers);
        assert!(queried(&silent).is_empty());
        let mut nobody = Feed::new(Vec::new(), 4, 1);
        assert!(queried(&ops_of(&mut nobody, &stream, &followers)).is_empty());
        assert_eq!(nobody.events(), 5, "events count whether or not a query is due");
    }

    #[test]
    fn corpus_ops_applied_in_order_reproduce_the_replay() {
        let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 42));
        let prepared = PreparedCorpus::new(corpus, SplitConfig::default()).expect("well-formed");
        let bag = ServeModel::Bag {
            weighting: pmr_bag::WeightingScheme::TFIDF,
            similarity: pmr_bag::BagSimilarity::Cosine,
            char_grams: false,
            n: 1,
            decay: 0.95,
        };
        let graph = ServeModel::Graph {
            similarity: pmr_graph::GraphSimilarity::Value,
            char_grams: false,
            n: 1,
        };
        let runtime = RuntimeOptions { shards: 2, queue_capacity: 64, ..RuntimeOptions::default() };
        for model in [bag, graph] {
            let config = EngineConfig { model, window: 16 };
            let features = precompute_features(&prepared, model, 1);
            for query_every in [1, 25] {
                let options = ReplayOptions { config, runtime, k: 5, query_every, jobs: 1 };
                let replayed = Replay::run(&prepared, options);
                let mut engine = Engine::start(config, runtime);
                for op in corpus_ops(&prepared.corpus, &features, 5, query_every) {
                    engine.apply(&op);
                }
                let applied = engine.finish();
                assert!(!applied.is_empty());
                assert_eq!(
                    rec_log(&applied).unwrap(),
                    rec_log(&replayed.recommendations).unwrap(),
                    "{} at query_every {query_every}",
                    model.name()
                );
            }
        }
    }
}
