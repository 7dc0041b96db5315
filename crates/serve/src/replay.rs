//! Deterministic stream replay: drive an [`Engine`] from a simulated
//! corpus's event stream.
//!
//! The driver walks [`pmr_sim::Corpus::event_stream`] in its total order
//! and hands each event to a `Feed` ([`crate::feed`]), which owns the
//! event → engine-call rules and the round-robin query schedule over
//! [`pmr_sim::Corpus::evaluated_user_ids`].
//!
//! Features are computed **once per original tweet** before replay starts,
//! in parallel over `jobs` workers through the corpus's shared
//! [`pmr_core::FeatureCache`]-backed gram tables, and shared by `Arc` with
//! every shard that sees the tweet. Precomputation order is canonical
//! (`pmr_core::executor::run_tasks` returns results in input order), so
//! `jobs` never changes a feature, a score, or a recommendation.
//!
//! The gram families share one id rule with streaming ingest: gram ids are
//! first-seen over the originals in stream order. Bag vectors take them as
//! dimensions, graphs as vertices. The ids are a pure function of the
//! corpus prefix, so a resumed replay re-derives the id space its
//! snapshot's graphs were built in, as it re-derives the topic background.

use std::sync::Arc;

use pmr_bag::IndexedVectorizer;
use pmr_core::executor::run_tasks;
use pmr_core::{GramKind, PmrError, PmrResult, PreparedCorpus};
use pmr_graph::NGramGraph;
use pmr_sim::{StreamEvent, TweetId};
use pmr_text::vocab::{LocalIds, TermId};
use pmr_topics::{TopicBackground, TopicDoc};

use crate::config::{EngineConfig, RuntimeOptions, ServeModel};
use crate::engine::Engine;
use crate::feed::Feed;
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
        ServeModel::Graph { n, .. } => {
            // The engine's gram-id space: one pass in stream order, as
            // `IndexedVectorizer::fit` assigns bag dimensions.
            let mut space = LocalIds::new();
            let docs: Vec<Vec<TermId>> = originals
                .iter()
                .map(|&id| table.doc(id).iter().map(|&g| space.intern(g)).collect())
                .collect();
            run_tasks(docs, jobs, |_, ids| {
                Arc::new(TweetFeatures::Graph(NGramGraph::from_ids(&ids, n)))
            })
        }
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

/// A replay in progress: the engine plus its event feed, pausable at any
/// event boundary via [`Replay::snapshot`].
pub struct Replay<'a> {
    prepared: &'a PreparedCorpus,
    features: Vec<Option<Arc<TweetFeatures>>>,
    stream: Vec<StreamEvent>,
    feed: Feed,
    options: ReplayOptions,
    engine: Engine,
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
        Replay::assemble(prepared, options, features, engine, (0, 0, 0))
    }

    /// Precompute features and resume an engine from `snapshot`, at the
    /// stream position the snapshot was taken at.
    ///
    /// `options.config` must equal the snapshot's config — the snapshot's
    /// models only make sense in the feature space they were built in —
    /// and the snapshot must lie within this corpus's stream.
    pub fn resume(
        prepared: &'a PreparedCorpus,
        snapshot: &EngineSnapshot,
        options: ReplayOptions,
    ) -> PmrResult<Replay<'a>> {
        let header = &snapshot.header;
        if options.config != header.config {
            return Err(PmrError::Serialize {
                detail: "replay options disagree with the snapshot's engine config".to_owned(),
            });
        }
        // One event per tweet: the corpus length is the stream length.
        if header.events > prepared.corpus.len() as u64 {
            return Err(PmrError::Serialize {
                detail: format!(
                    "snapshot is positioned at event {} of a {}-event stream",
                    header.events,
                    prepared.corpus.len()
                ),
            });
        }
        let features = precompute_features(prepared, options.config.model, options.jobs);
        let engine = {
            let resolve =
                |id: TweetId| features.get(id.index()).and_then(|f| f.as_ref().map(Arc::clone));
            Engine::resume(snapshot, options.runtime, &resolve)?
        };
        let at = (header.events, header.queries, header.epoch);
        Ok(Replay::assemble(prepared, options, features, engine, at))
    }

    /// Wire a replay positioned at `(events, queries, epoch)` and
    /// broadcast that epoch's topic background before the next event: the
    /// epoch-0 bootstrap for a fresh run, or — for a resumed one — the
    /// snapshot's background, re-derived (it is a pure function of
    /// corpus, config and epoch, so any shard layout gets the exact φ the
    /// paused engine was serving).
    fn assemble(
        prepared: &'a PreparedCorpus,
        options: ReplayOptions,
        features: Vec<Option<Arc<TweetFeatures>>>,
        engine: Engine,
        (events, queries, epoch): (u64, u64, u64),
    ) -> Replay<'a> {
        let eval_users = prepared.corpus.evaluated_user_ids().collect();
        let mut replay = Replay {
            topic_vocab: topic_vocab(prepared, options.config.model),
            prepared,
            features,
            stream: prepared.corpus.event_stream(),
            feed: Feed::new(eval_users, options.k, options.query_every).resume_at(events, queries),
            options,
            engine,
            epoch,
        };
        if let Some(background) = replay.train_background(epoch) {
            replay.engine.set_background(background);
        }
        replay
    }

    /// Total number of stream events.
    pub fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// Events ingested so far.
    pub fn position(&self) -> usize {
        self.feed.events() as usize
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
        let position = self.feed.events();
        if refresh == 0 || position == 0 || !position.is_multiple_of(refresh) {
            return;
        }
        let target_epoch = position / refresh;
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
        while self.position() < target {
            self.maybe_refresh_background();
            let event = self.stream[self.position()];
            let carried = self.features[event.retweet_of.unwrap_or(event.tweet).index()].as_ref();
            let followers = self.prepared.corpus.graph.followers(event.author);
            self.feed.drive(&mut self.engine, &event, carried, followers);
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
        self.engine.snapshot(self.feed.events())
    }

    /// Close the stream and collect every recommendation in query order.
    pub fn finish(self) -> ReplayOutcome {
        let events = self.feed.events();
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
            .field("position", &self.feed.events())
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
