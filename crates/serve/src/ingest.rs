//! Streaming ingest: drive an [`Engine`] directly from a
//! [`pmr_sim::StreamGenerator`] — no materialized corpus anywhere.
//!
//! [`crate::Replay`] needs the whole corpus in memory (tweets, prepared
//! gram tables, a dense feature vector per original). That is the right
//! trade at paper scale and a non-starter at the ROADMAP's 10^5–10^6
//! users. This adapter instead consumes the generator's timestamp-ordered
//! chunks as they are rendered:
//!
//! * chunks are rendered **in parallel** over
//!   [`pmr_core::executor::run_tasks`] in windows of `jobs`, and consumed
//!   in chunk order — `run_tasks` returns results in input order, so the
//!   engine always sees the exact global event stream regardless of
//!   worker count;
//! * grams are extracted inside the worker from each record's own text
//!   (for a retweet, from the carried original text), so peak memory is
//!   one window of rendered chunks rather than a corpus-wide feature
//!   table;
//! * each event then goes through the same `Feed` ([`crate::feed`]) as
//!   replay's.
//!
//! **Model restrictions.** Char-gram graph models and char-gram TF/BF bag
//! models are streamable, and their features are replay's exactly. Char
//! grams are lower-cased raw text in both paths. A TF/BF bag vector and a
//! document graph depend only on the document plus a *gram-id space*, and
//! that space grows incrementally: grams are interned in first-seen stream
//! order over original tweets, which reproduces — prefix by prefix — the
//! ids replay assigns over the materialized corpus (original tweet ids are
//! allocated in stream order). The two families then differ only in the
//! last step: a bag vector is weighed by the same
//! [`pmr_bag::weighting::weigh`], a graph built by the same
//! [`pmr_graph::NGramGraph::from_ids`]. Graph similarities sum their terms
//! in ascending edge-key order, so equal ids are what make the scores
//! bit-identical.
//!
//! A configuration `EngineConfig::check` rejects (gram order 0, a decay
//! outside (0, 1]) is an error before anything is rendered. Three
//! families are rejected with typed errors as well: **token grams** pass
//! through a stop-word filter replay fits on the whole corpus, **TF-IDF**
//! needs corpus-wide document frequencies, and **topic** needs the
//! materialized corpus to bootstrap its epoch-0 background model — none of
//! which a single-pass stream can provide.

use std::sync::Arc;

use pmr_bag::weighting::weigh;
use pmr_bag::WeightingScheme;
use pmr_core::executor::run_tasks;
use pmr_core::{PmrError, PmrResult};
use pmr_graph::NGramGraph;
use pmr_sim::StreamGenerator;
use pmr_text::char_ngrams;
use pmr_text::vocab::{TermId, Vocabulary};

use crate::config::ServeModel;
use crate::engine::Engine;
use crate::feed::Feed;
use crate::replay::{ReplayOptions, ReplayOutcome};
use crate::shard::TweetFeatures;

/// Drive `gen`'s full event stream through a fresh engine and collect the
/// recommendations. Output is a pure function of the generator and
/// [`crate::EngineConfig`]; `jobs`, `shards` and `queue_capacity` are
/// mechanical.
pub fn ingest_stream(gen: &StreamGenerator, options: ReplayOptions) -> PmrResult<ReplayOutcome> {
    options.config.check()?;
    let model = options.config.model;
    let unstreamable = match model {
        ServeModel::Bag { weighting: WeightingScheme::TFIDF, .. } => {
            Some("TF-IDF bag models: inverse document frequencies need the full corpus")
        }
        ServeModel::Topic { .. } => {
            Some("topic models: the epoch-0 background model is trained on the materialized corpus")
        }
        _ if !model.char_grams() => Some(
            "token-gram models: replay filters token grams through stop words fitted on the \
             full corpus",
        ),
        _ => None,
    };
    if let Some(why) = unstreamable {
        return Err(PmrError::invariant(format!(
            "streaming ingest cannot serve {why}, which a single-pass stream cannot provide"
        )));
    }
    let followers = gen.build_followers();
    let mut feed = Feed::new(gen.evaluated_user_ids().collect(), options.k, options.query_every);
    let mut engine = Engine::start(options.config, options.runtime);
    // Gram ids (bag dimensions, graph vertices), interned in first-seen
    // order over originals.
    let mut dims = Vocabulary::new();
    let jobs = options.jobs.max(1);

    let num_chunks = gen.num_chunks();
    let mut window_start = 0usize;
    while window_start < num_chunks {
        let window: Vec<usize> = (window_start..(window_start + jobs).min(num_chunks)).collect();
        window_start += window.len();
        // Render + gram-extract this window in parallel; results come back
        // in chunk order, so consumption below is the global stream order.
        // Gram ids are interned in the sequential loop below, not here:
        // first-seen id assignment is order-dependent, so it must only
        // ever see the global stream.
        let rendered = run_tasks(window, jobs, |_, chunk| {
            gen.render_chunk(chunk)
                .into_iter()
                .map(|rec| {
                    let text = rec.origin_text.as_deref().unwrap_or(&rec.text);
                    (rec.event, char_ngrams(&text.to_lowercase(), model.n()))
                })
                .collect::<Vec<_>>()
        });
        for (event, grams) in rendered.into_iter().flatten() {
            // A retweet's grams are its original's, interned when the
            // original streamed by, so they only look ids up; grams outside
            // the space are dropped, as a fitted vectorizer drops unseen
            // grams.
            let ids: Vec<TermId> = match event.retweet_of {
                None => grams.iter().map(|g| dims.intern(g)).collect(),
                Some(_) => grams.iter().filter_map(|g| dims.get(g)).collect(),
            };
            let features = Arc::new(match model {
                // TF-IDF was rejected above, so no idf is ever asked for.
                ServeModel::Bag { weighting, .. } => {
                    TweetFeatures::Bag(weigh(weighting, ids, grams.len(), |_| 0.0).normalized())
                }
                _ => TweetFeatures::Graph(NGramGraph::from_ids(&ids, model.n())),
            });
            feed.drive(&mut engine, &event, Some(&features), &followers[event.author.index()]);
        }
    }

    let events = feed.events();
    let queries = engine.queries_issued();
    Ok(ReplayOutcome { recommendations: engine.finish(), events, queries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, RuntimeOptions};
    use crate::replay::{rec_log, Replay};
    use pmr_core::{PreparedCorpus, SplitConfig};
    use pmr_sim::ScaleConfig;

    fn graph_config() -> EngineConfig {
        EngineConfig {
            model: ServeModel::Graph {
                similarity: pmr_graph::GraphSimilarity::Value,
                char_grams: true,
                n: 3,
            },
            window: 64,
        }
    }

    fn smoke_gen(seed: u64) -> StreamGenerator {
        StreamGenerator::plan(ScaleConfig::smoke(seed))
    }

    fn run(gen: &StreamGenerator, options: ReplayOptions) -> ReplayOutcome {
        ingest_stream(gen, options).expect("streamable model ingest succeeds")
    }

    fn bag_config(weighting: WeightingScheme) -> EngineConfig {
        EngineConfig {
            model: ServeModel::Bag {
                weighting,
                similarity: pmr_bag::BagSimilarity::Cosine,
                char_grams: true,
                n: 3,
                decay: 0.9,
            },
            window: 64,
        }
    }

    #[test]
    fn tfidf_and_topic_models_are_rejected() {
        let gen = smoke_gen(1);
        let tfidf = ReplayOptions {
            config: bag_config(WeightingScheme::TFIDF),
            ..ReplayOptions::default()
        };
        assert!(ingest_stream(&gen, tfidf).is_err(), "TF-IDF needs corpus document frequencies");
        let topic = ReplayOptions {
            config: EngineConfig {
                model: ServeModel::Topic {
                    topics: 4,
                    alpha: 12.5,
                    beta: 0.01,
                    train_iterations: 5,
                    foldin_iterations: 2,
                    seed: 1,
                    decay: 1.0,
                    background_refresh: 0,
                },
                window: 64,
            },
            ..ReplayOptions::default()
        };
        assert!(ingest_stream(&gen, topic).is_err(), "topic needs the materialized corpus");
        let token_graph = EngineConfig {
            model: ServeModel::Graph {
                similarity: pmr_graph::GraphSimilarity::Value,
                char_grams: false,
                n: 1,
            },
            window: 64,
        };
        // The default replay model is a token-unigram TF bag.
        for config in [ReplayOptions::default().config, token_graph] {
            let options = ReplayOptions { config, ..ReplayOptions::default() };
            assert!(ingest_stream(&gen, options).is_err(), "token grams need the stop filter");
        }
    }

    fn rejected_config(options: ReplayOptions) -> String {
        match ingest_stream(&smoke_gen(1), options) {
            Err(PmrError::Config { detail }) => detail,
            Err(other) => panic!("expected a config error, got {other}"),
            Ok(_) => panic!("expected a config error, got a served stream"),
        }
    }

    #[test]
    fn a_gram_order_of_zero_is_a_config_error() {
        let mut config = graph_config();
        if let ServeModel::Graph { n, .. } = &mut config.model {
            *n = 0;
        }
        let detail = rejected_config(ReplayOptions { config, ..ReplayOptions::default() });
        assert!(detail.contains("gram order n = 0"), "{detail}");
    }

    #[test]
    fn a_decay_of_zero_is_a_config_error() {
        let mut config = bag_config(WeightingScheme::TF);
        if let ServeModel::Bag { decay, .. } = &mut config.model {
            *decay = 0.0;
        }
        let detail = rejected_config(ReplayOptions { config, ..ReplayOptions::default() });
        assert!(detail.contains("decay 0 is outside (0, 1]"), "{detail}");
    }

    #[test]
    fn bag_ingest_agrees_with_replay_on_the_materialized_corpus() {
        // Char grams + TF: the streamed incremental vocabulary must
        // reproduce the replay path's `IndexedVectorizer` vectors
        // bit-for-bit — same first-seen dimension ids (originals stream in
        // id order), same sort-and-run-length counting. Token grams differ
        // by the corpus-fitted stop filter, so char grams are what the
        // byte-equality pin uses, mirroring the graph test below.
        let gen = smoke_gen(42);
        let config = bag_config(WeightingScheme::TF);
        let k = 10;
        let query_every = 25;
        let streamed = run(
            &gen,
            ReplayOptions { config, k, query_every, jobs: 2, ..ReplayOptions::default() },
        );
        let prepared = PreparedCorpus::new(gen.materialize(), SplitConfig::default())
            .expect("materialized corpus is well-formed");
        let replayed = Replay::run(
            &prepared,
            ReplayOptions { config, runtime: RuntimeOptions::default(), k, query_every, jobs: 1 },
        );
        assert_eq!(streamed.events, replayed.events);
        assert_eq!(streamed.queries, replayed.queries);
        assert!(streamed.queries > 0);
        assert_eq!(
            rec_log(&streamed.recommendations).unwrap(),
            rec_log(&replayed.recommendations).unwrap()
        );
    }

    #[test]
    fn bag_shard_layout_never_changes_the_recommendation_log() {
        let gen = smoke_gen(9);
        let base = ReplayOptions {
            config: bag_config(WeightingScheme::BF),
            jobs: 2,
            ..ReplayOptions::default()
        };
        let one = run(
            &gen,
            ReplayOptions {
                runtime: RuntimeOptions {
                    shards: 1,
                    queue_capacity: 64,
                    ..RuntimeOptions::default()
                },
                ..base
            },
        );
        let four = run(
            &gen,
            ReplayOptions {
                runtime: RuntimeOptions {
                    shards: 4,
                    queue_capacity: 64,
                    ..RuntimeOptions::default()
                },
                ..base
            },
        );
        assert!(one.queries > 0);
        assert_eq!(rec_log(&one.recommendations).unwrap(), rec_log(&four.recommendations).unwrap());
    }

    #[test]
    fn jobs_never_change_the_recommendation_log() {
        let gen = smoke_gen(5);
        let base = ReplayOptions { config: graph_config(), ..ReplayOptions::default() };
        let serial = run(&gen, ReplayOptions { jobs: 1, ..base });
        let parallel = run(&gen, ReplayOptions { jobs: 4, ..base });
        assert!(serial.queries > 0);
        assert_eq!(
            rec_log(&serial.recommendations).unwrap(),
            rec_log(&parallel.recommendations).unwrap()
        );
    }

    #[test]
    fn shard_layout_never_changes_the_recommendation_log() {
        let gen = smoke_gen(9);
        let base = ReplayOptions { config: graph_config(), jobs: 2, ..ReplayOptions::default() };
        let one = run(
            &gen,
            ReplayOptions {
                runtime: RuntimeOptions {
                    shards: 1,
                    queue_capacity: 64,
                    ..RuntimeOptions::default()
                },
                ..base
            },
        );
        let four = run(
            &gen,
            ReplayOptions {
                runtime: RuntimeOptions {
                    shards: 4,
                    queue_capacity: 64,
                    ..RuntimeOptions::default()
                },
                ..base
            },
        );
        assert!(one.queries > 0);
        assert_eq!(rec_log(&one.recommendations).unwrap(), rec_log(&four.recommendations).unwrap());
    }

    #[test]
    fn ingest_agrees_with_replay_on_the_materialized_corpus() {
        // Char-gram features are computed identically by streaming ingest
        // and by the prepared-corpus replay path (token grams differ by the
        // corpus-fitted stop filter, so they are not comparable). With the
        // same event order, fan-out graph, and query schedule, the two
        // paths must produce byte-identical recommendation logs.
        let gen = smoke_gen(42);
        let config = graph_config();
        let k = 10;
        let query_every = 25;
        let streamed = run(
            &gen,
            ReplayOptions { config, k, query_every, jobs: 2, ..ReplayOptions::default() },
        );
        let prepared = PreparedCorpus::new(gen.materialize(), SplitConfig::default())
            .expect("materialized corpus is well-formed");
        let replayed = Replay::run(
            &prepared,
            ReplayOptions { config, runtime: RuntimeOptions::default(), k, query_every, jobs: 1 },
        );
        assert_eq!(streamed.events, replayed.events);
        assert_eq!(streamed.queries, replayed.queries);
        assert!(streamed.queries > 0);
        assert_eq!(
            rec_log(&streamed.recommendations).unwrap(),
            rec_log(&replayed.recommendations).unwrap()
        );
    }

    #[test]
    fn celebrity_fan_out_trips_backpressure_deterministically() {
        // A power-law graph concentrates fan-out on the celebrity shard; a
        // tiny queue must trip the backpressure (block-and-retry) path,
        // and blocking must not change a byte of output across layouts.
        let gen = smoke_gen(13);
        let base = ReplayOptions { config: graph_config(), ..ReplayOptions::default() };
        let logs: Vec<String> = [1usize, 2, 5]
            .into_iter()
            .map(|shards| {
                let _ = pmr_obs::install(pmr_obs::Recorder::monotonic());
                let outcome = run(
                    &gen,
                    ReplayOptions {
                        runtime: RuntimeOptions {
                            shards,
                            queue_capacity: 2,
                            ..RuntimeOptions::default()
                        },
                        ..base
                    },
                );
                let metrics = pmr_obs::snapshot().expect("recorder is installed");
                assert!(
                    metrics.counter("serve.backpressure") > 0,
                    "queue_capacity=2 under celebrity fan-out must hit backpressure \
                     (shards={shards})"
                );
                let _ = pmr_obs::uninstall();
                rec_log(&outcome.recommendations).unwrap()
            })
            .collect();
        assert!(!logs[0].is_empty());
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[0], logs[2]);
    }
}
