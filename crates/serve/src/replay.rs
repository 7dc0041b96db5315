//! Deterministic stream replay: drive an [`Engine`] from a simulated
//! corpus's event stream.
//!
//! The driver walks [`pmr_sim::Corpus::event_stream`] in its total order
//! and translates each event into engine calls:
//!
//! * an **original** tweet is fanned out as a candidate to every follower
//!   of its author;
//! * a **retweet** does two things: the reposter's model *observes* the
//!   original's features (a retweet is the interest signal the whole study
//!   is built on), and the original is fanned out as a candidate to the
//!   reposter's followers — how content propagates past the author's own
//!   audience;
//! * every `query_every` events, the next evaluated user (round-robin over
//!   [`pmr_sim::Corpus::evaluated_user_ids`]) is asked for their top-k as
//!   of the event's timestamp.
//!
//! Features are computed **once per original tweet** before replay starts,
//! in parallel over `jobs` workers through the corpus's shared
//! [`pmr_core::FeatureCache`]-backed gram tables, and shared by `Arc` with
//! every shard that sees the tweet. Precomputation order is canonical
//! (`pmr_core::executor::run_tasks` returns results in input order), so
//! `jobs` never changes a feature, a score, or a recommendation.

use std::sync::Arc;

use pmr_bag::IndexedVectorizer;
use pmr_core::executor::run_tasks;
use pmr_core::{GramKind, PmrError, PmrResult, PreparedCorpus};
use pmr_sim::{StreamEvent, TweetId, UserId};
use pmr_text::vocab::TermId;
use pmr_topics::{TopicBackground, TopicDoc};

use crate::config::{EngineConfig, RuntimeOptions, ServeModel};
use crate::engine::Engine;
use crate::shard::{Recommendation, TweetFeatures};
use crate::snapshot::EngineSnapshot;

/// Everything a replay run needs beyond the corpus itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOptions {
    /// The engine's semantic configuration.
    pub config: EngineConfig,
    /// Shard and queue sizing (must not affect output).
    pub runtime: RuntimeOptions,
    /// Top-k size of issued queries.
    pub k: usize,
    /// Issue one query every this many events (0 disables querying).
    pub query_every: usize,
    /// Worker threads for the feature precomputation pass (must not
    /// affect output).
    pub jobs: usize,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            config: EngineConfig {
                model: ServeModel::Bag {
                    weighting: pmr_bag::WeightingScheme::TF,
                    similarity: pmr_bag::BagSimilarity::Cosine,
                    char_grams: false,
                    n: 1,
                    decay: 1.0,
                },
                window: 128,
            },
            runtime: RuntimeOptions::default(),
            k: 10,
            query_every: 25,
            jobs: 1,
        }
    }
}

/// The result of a completed replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Every answered query, in query-id order.
    pub recommendations: Vec<Recommendation>,
    /// Stream events ingested.
    pub events: u64,
    /// Queries issued.
    pub queries: u64,
}

/// Per-tweet features for the originals of a corpus, indexed by tweet id
/// (retweet slots are `None`; a retweet carries its original's features).
/// Precomputation order is canonical regardless of `jobs`, so the table is
/// a pure function of the corpus and model. Public so load harnesses can
/// drive an [`Engine`] directly with replay-identical features.
pub fn precompute_features(
    prepared: &PreparedCorpus,
    model: ServeModel,
    jobs: usize,
) -> Vec<Option<Arc<TweetFeatures>>> {
    let table = prepared.gram_table(GramKind::of(model.char_grams()), model.n());
    let originals: Vec<TweetId> =
        prepared.corpus.tweets.iter().filter(|t| t.retweet_of.is_none()).map(|t| t.id).collect();
    let computed: Vec<Arc<TweetFeatures>> = match model {
        ServeModel::Bag { weighting, .. } => {
            let vectorizer =
                IndexedVectorizer::fit(weighting, originals.iter().map(|&id| table.doc(id)));
            run_tasks(originals.clone(), jobs, |_, id| {
                Arc::new(TweetFeatures::Bag(vectorizer.transform(table.doc(id)).normalized()))
            })
        }
        ServeModel::Graph { .. } => run_tasks(originals.clone(), jobs, |_, id| {
            let grams: Vec<String> = table.doc_terms(id).into_iter().map(str::to_owned).collect();
            Arc::new(TweetFeatures::Graph(grams))
        }),
        // Token unigram ids over the table's corpus-wide vocabulary; the
        // tweet id doubles as the fold-in seed key.
        ServeModel::Topic { .. } => run_tasks(originals.clone(), jobs, |_, id| {
            Arc::new(TweetFeatures::Topic(TopicDoc {
                key: id.0 as u64,
                tokens: table.doc(id).to_vec(),
            }))
        }),
    };
    let mut features: Vec<Option<Arc<TweetFeatures>>> = vec![None; prepared.corpus.tweets.len()];
    for (id, f) in originals.into_iter().zip(computed) {
        features[id.index()] = Some(f);
    }
    features
}

/// The corpus-wide token-unigram vocabulary the topic background trains
/// over (0 for the gram families). Epoch-stable: the table is fitted on
/// the whole corpus, so retrains only change which *documents* are seen,
/// never the id space.
fn topic_vocab(prepared: &PreparedCorpus, model: ServeModel) -> usize {
    if model.online_topic().is_some() {
        prepared.gram_table(GramKind::Token, 1).vocab_len()
    } else {
        0
    }
}

/// A replay in progress: the engine plus the event cursor, pausable at any
/// event boundary via [`Replay::snapshot`].
pub struct Replay<'a> {
    prepared: &'a PreparedCorpus,
    features: Vec<Option<Arc<TweetFeatures>>>,
    stream: Vec<StreamEvent>,
    eval_users: Vec<UserId>,
    options: ReplayOptions,
    engine: Engine,
    position: usize,
    /// The topic vocabulary size (0 for the gram families): the token
    /// unigram table's corpus-wide vocabulary, stable across epochs.
    topic_vocab: usize,
    /// The topic-background epoch currently broadcast (0 for the gram
    /// families, which never retrain anything).
    epoch: u64,
}

impl<'a> Replay<'a> {
    /// Precompute features and spawn a fresh engine at stream position 0.
    pub fn new(prepared: &'a PreparedCorpus, options: ReplayOptions) -> Replay<'a> {
        let features = precompute_features(prepared, options.config.model, options.jobs);
        let engine = Engine::start(options.config, options.runtime);
        let mut replay = Replay {
            topic_vocab: topic_vocab(prepared, options.config.model),
            prepared,
            features,
            stream: prepared.corpus.event_stream(),
            eval_users: prepared.corpus.evaluated_user_ids().collect(),
            options,
            engine,
            position: 0,
            epoch: 0,
        };
        // Topic bootstrap (epoch 0): train on all materialized originals
        // and broadcast the background before the first event, so every
        // shard's FIFO starts with the same epoch boundary.
        if let Some(background) = replay.train_background(0) {
            replay.engine.set_background(background);
        }
        replay
    }

    /// Precompute features and resume an engine from `snapshot`, at the
    /// stream position the snapshot was taken at.
    ///
    /// `options.config` must equal the snapshot's config — the snapshot's
    /// models only make sense in the feature space they were built in.
    pub fn resume(
        prepared: &'a PreparedCorpus,
        snapshot: &EngineSnapshot,
        options: ReplayOptions,
    ) -> PmrResult<Replay<'a>> {
        if options.config != snapshot.header.config {
            return Err(PmrError::Serialize {
                detail: "replay options disagree with the snapshot's engine config".to_owned(),
            });
        }
        let features = precompute_features(prepared, options.config.model, options.jobs);
        let engine = {
            let resolve =
                |id: TweetId| features.get(id.index()).and_then(|f| f.as_ref().map(Arc::clone));
            Engine::resume(snapshot, options.runtime, &resolve)?
        };
        let mut replay = Replay {
            topic_vocab: topic_vocab(prepared, options.config.model),
            prepared,
            features,
            stream: prepared.corpus.event_stream(),
            eval_users: prepared.corpus.evaluated_user_ids().collect(),
            options,
            engine,
            position: snapshot.header.events as usize,
            epoch: snapshot.header.epoch,
        };
        // Re-derive the snapshot's background: it is a pure function of
        // (corpus, config, epoch), so training it again — under any shard
        // layout — reproduces the exact φ the paused engine was serving.
        if let Some(background) = replay.train_background(snapshot.header.epoch) {
            replay.engine.set_background(background);
        }
        Ok(replay)
    }

    /// Total number of stream events.
    pub fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// Events ingested so far.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Fan `tweet` (with its precomputed features) out to `author`'s
    /// followers as a candidate.
    fn fan_out(&mut self, author: UserId, tweet: TweetId, at: pmr_sim::Timestamp) {
        if let Some(features) = self.features[tweet.index()].clone() {
            for &follower in self.prepared.corpus.graph.followers(author) {
                self.engine.post_candidate(follower, tweet, at, &features);
            }
        }
    }

    /// Retrain the topic background for `epoch` — `None` for the gram
    /// families. Epoch 0 trains on every materialized original (the
    /// bootstrap oracle); epoch `e ≥ 1` trains on the causal prefix: the
    /// originals whose events appear in `stream[..e·refresh]`, in stream
    /// order. Both are pure functions of `(corpus, config, epoch)`, which
    /// is what lets snapshots carry only the epoch number.
    fn train_background(&self, epoch: u64) -> Option<Arc<TopicBackground>> {
        let (cfg, _, refresh) = self.options.config.model.online_topic()?;
        fn topic_tokens(f: Option<&TweetFeatures>) -> Option<&[TermId]> {
            match f {
                Some(TweetFeatures::Topic(doc)) => Some(doc.tokens.as_slice()),
                _ => None,
            }
        }
        let docs: Vec<&[TermId]> = if epoch == 0 {
            self.features.iter().filter_map(|f| topic_tokens(f.as_deref())).collect()
        } else {
            let end = ((epoch * refresh) as usize).min(self.stream.len());
            self.stream[..end]
                .iter()
                .filter(|e| e.retweet_of.is_none())
                .filter_map(|e| topic_tokens(self.features[e.tweet.index()].as_deref()))
                .collect()
        };
        pmr_obs::counter_add("serve.topic.background_refresh", 1);
        Some(Arc::new(TopicBackground::train(&cfg, &docs, self.topic_vocab, epoch)))
    }

    /// Swap in a freshly retrained background when the cursor crosses a
    /// refresh boundary it hasn't trained for yet. Runs on the single
    /// writer *before* the boundary event is posted, so the epoch lands at
    /// the same FIFO position in every layout — and a run resumed exactly
    /// at a boundary retrains here just like the uninterrupted run did.
    fn maybe_refresh_background(&mut self) {
        let Some((_, _, refresh)) = self.options.config.model.online_topic() else {
            return;
        };
        if refresh == 0 || self.position == 0 || !(self.position as u64).is_multiple_of(refresh) {
            return;
        }
        let target_epoch = self.position as u64 / refresh;
        if target_epoch <= self.epoch {
            return;
        }
        if let Some(background) = self.train_background(target_epoch) {
            self.engine.set_background(background);
            self.epoch = target_epoch;
        }
    }

    /// Ingest events until the cursor reaches `target` (clamped to the
    /// stream's end).
    pub fn run_to(&mut self, target: usize) {
        let target = target.min(self.stream.len());
        while self.position < target {
            self.maybe_refresh_background();
            let event = self.stream[self.position];
            pmr_obs::counter_add("serve.events", 1);
            match event.retweet_of {
                None => self.fan_out(event.author, event.tweet, event.at),
                Some(original) => {
                    if let Some(features) = self.features[original.index()].clone() {
                        self.engine.observe(event.author, &features);
                    }
                    // The repost surfaces the *original* to the reposter's
                    // audience at the repost's time.
                    self.fan_out(event.author, original, event.at);
                }
            }
            self.position += 1;
            if self.options.query_every > 0
                && self.position.is_multiple_of(self.options.query_every)
                && !self.eval_users.is_empty()
            {
                let issued = self.engine.queries_issued() as usize;
                let user = self.eval_users[issued % self.eval_users.len()];
                self.engine.query(user, self.options.k, event.at);
            }
        }
    }

    /// Ingest the rest of the stream.
    pub fn run_to_end(&mut self) {
        self.run_to(self.stream.len());
    }

    /// Pause-and-copy the full engine state at the current event boundary.
    ///
    /// Errors if a shard worker died mid-stream (see [`Engine::snapshot`]).
    pub fn snapshot(&mut self) -> PmrResult<EngineSnapshot> {
        self.engine.snapshot(self.position as u64)
    }

    /// Close the stream and collect every recommendation in query order.
    pub fn finish(self) -> ReplayOutcome {
        let events = self.position as u64;
        let queries = self.engine.queries_issued();
        let recommendations = self.engine.finish();
        ReplayOutcome { recommendations, events, queries }
    }

    /// Convenience: replay the whole stream in one call.
    pub fn run(prepared: &PreparedCorpus, options: ReplayOptions) -> ReplayOutcome {
        let mut replay = Replay::new(prepared, options);
        replay.run_to_end();
        replay.finish()
    }
}

impl std::fmt::Debug for Replay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("options", &self.options)
            .field("position", &self.position)
            .field("stream_len", &self.stream.len())
            .finish()
    }
}

/// Serialize recommendations as a JSONL log, one per line in query order —
/// the determinism artifact `serve-smoke` byte-diffs across shard and
/// thread counts.
pub fn rec_log(recommendations: &[Recommendation]) -> PmrResult<String> {
    let mut out = String::new();
    for rec in recommendations {
        let line = serde_json::to_string(rec).map_err(|e| PmrError::Serialize {
            detail: format!("recommendation {}: {e}", rec.query),
        })?;
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}
