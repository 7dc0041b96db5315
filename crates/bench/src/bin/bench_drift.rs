//! Measures online-vs-batch MAP drift for the serving engine's three
//! incremental model families (bag, graph, topic).
//!
//! ```text
//! cargo run --release -p pmr-bench --bin bench_drift -- \
//!     --scale smoke --seed 42 --out results/BENCH_drift.json
//! ```
//!
//! For each family the harness replays the event stream through
//! `pmr-serve` with `k = window`, so every answered query logs the user's
//! *entire* eligible candidate window with its online scores. It then
//! re-ranks the exact same candidate sets with a batch oracle — the same
//! incremental model type fed every original the user ever retweeted, with
//! no decay (for topic: the epoch-0 background) — and reports both MAPs
//! plus their difference. Relevance for a query at time `now` is "the
//! queried user retweets this original at a timestamp strictly after
//! `now`", the same future-retweet criterion the offline harness uses.
//!
//! The drift number isolates what serving costs in ranking quality:
//! the online side sees only the causal prefix and forgets via decay,
//! the batch side sees the whole corpus undecayed. Everything else —
//! candidate sets, relevance labels, tie-breaking — is held identical.

use std::collections::BTreeMap;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use pmr_bag::BagSimilarity;
use pmr_bench::Scale;
use pmr_core::eval::{average_precision, tie_break_key, ScoredDoc};
use pmr_core::{GramKind, OnlineGraphModel, OnlineProfile, PreparedCorpus, SplitConfig};
use pmr_serve::{
    precompute_features, EngineConfig, Replay, ReplayOptions, RuntimeOptions, ServeModel,
    TweetFeatures,
};
use pmr_sim::{generate_corpus, SimConfig, StreamEvent, Timestamp};
use pmr_topics::{TopicBackground, TopicProfile};

#[derive(Debug, Serialize)]
struct FamilyDrift {
    model: String,
    queries: u64,
    /// Queries with at least one relevant candidate in the logged window;
    /// only these contribute to either MAP (zero-relevance queries would
    /// add identical zeros to both sides).
    scored_queries: u64,
    online_map: f64,
    batch_map: f64,
    /// `online_map − batch_map`: negative when serving loses quality to
    /// prefix-only observation and decay.
    drift: f64,
    replay_s: f64,
}

#[derive(Debug, Serialize)]
struct DriftBaseline {
    benchmark: &'static str,
    scale: String,
    seed: u64,
    window: usize,
    query_every: usize,
    /// Topic background refresh cadence (0 = epoch-0 background throughout).
    refresh: u64,
    families: Vec<FamilyDrift>,
}

fn usage(problem: &str) -> ! {
    eprintln!("bench_drift: {problem}");
    eprintln!(
        "usage: bench_drift [--scale smoke|default|full] [--seed N] [--window N] \
         [--query-every N] [--refresh N] [--jobs N] [--out PATH]"
    );
    exit(2);
}

/// The serving configurations under measurement — the same defaults
/// `bench_serve` runs, one per incremental family.
fn families(seed: u64, refresh: u64) -> Vec<(&'static str, ServeModel)> {
    vec![
        (
            "bag",
            ServeModel::Bag {
                weighting: pmr_bag::WeightingScheme::TFIDF,
                similarity: BagSimilarity::Cosine,
                char_grams: false,
                n: 1,
                decay: 0.99,
            },
        ),
        (
            "graph",
            ServeModel::Graph {
                similarity: pmr_graph::GraphSimilarity::Value,
                char_grams: false,
                n: 1,
            },
        ),
        (
            "topic",
            ServeModel::Topic {
                topics: 16,
                alpha: 50.0 / 16.0,
                beta: 0.01,
                train_iterations: 50,
                foldin_iterations: 8,
                seed,
                decay: 0.99,
                background_refresh: refresh,
            },
        ),
    ]
}

/// The batch oracle: one undecayed model per queried user, fed every
/// original that user retweeted anywhere in the stream (the online models
/// observe exactly those documents, but only up to the query time and
/// through a decay factor).
enum BatchModel {
    Bag { profile: OnlineProfile, similarity: BagSimilarity },
    Graph(Box<OnlineGraphModel>),
    Topic { profile: TopicProfile, background: Arc<TopicBackground> },
}

impl BatchModel {
    fn fresh(model: &ServeModel, background: Option<&Arc<TopicBackground>>) -> BatchModel {
        match *model {
            ServeModel::Bag { similarity, .. } => {
                BatchModel::Bag { profile: OnlineProfile::new(1.0), similarity }
            }
            ServeModel::Graph { similarity, n, .. } => {
                BatchModel::Graph(Box::new(OnlineGraphModel::new(similarity, n)))
            }
            ServeModel::Topic { topics, .. } => BatchModel::Topic {
                profile: TopicProfile::new(1.0, topics),
                background: Arc::clone(background.expect("topic family trains a background")),
            },
        }
    }

    fn observe(&mut self, features: &TweetFeatures, thetas: &mut BTreeMap<u64, Vec<f32>>) {
        match (self, features) {
            (BatchModel::Bag { profile, .. }, TweetFeatures::Bag(unit)) => {
                profile.observe_unit(unit)
            }
            (BatchModel::Graph(graph), TweetFeatures::Graph(grams)) => graph.observe(grams),
            (BatchModel::Topic { profile, background }, TweetFeatures::Topic(doc)) => {
                let theta = thetas
                    .entry(doc.key)
                    .or_insert_with(|| background.fold_in(&doc.tokens, doc.key));
                profile.observe(theta);
            }
            _ => unreachable!("features are computed from the same model config"),
        }
    }

    fn score(&mut self, features: &TweetFeatures, thetas: &mut BTreeMap<u64, Vec<f32>>) -> f64 {
        match (self, features) {
            (BatchModel::Bag { profile, similarity }, TweetFeatures::Bag(unit)) => {
                similarity.compare(profile.vector(), unit)
            }
            (BatchModel::Graph(graph), TweetFeatures::Graph(grams)) => graph.score(grams),
            (BatchModel::Topic { profile, background }, TweetFeatures::Topic(doc)) => {
                let theta = thetas
                    .entry(doc.key)
                    .or_insert_with(|| background.fold_in(&doc.tokens, doc.key));
                profile.score(theta)
            }
            _ => unreachable!("features are computed from the same model config"),
        }
    }
}

/// Inputs shared by every family measurement.
struct DriftSetup<'a> {
    prepared: &'a PreparedCorpus,
    stream: &'a [StreamEvent],
    first_retweet: &'a BTreeMap<(u32, u32), Timestamp>,
    window: usize,
    query_every: usize,
    jobs: usize,
}

/// Measure one family: replay online, rebuild the batch oracle, re-rank.
fn measure(name: &str, model: ServeModel, setup: &DriftSetup) -> FamilyDrift {
    let &DriftSetup { prepared, stream, first_retweet, window, query_every, jobs } = setup;
    let options = ReplayOptions {
        config: EngineConfig { model, window },
        // `k = window`: the log must carry the full eligible candidate set,
        // not a top-k truncation, so the batch side re-ranks the same pool.
        runtime: RuntimeOptions::default(),
        k: window,
        query_every,
        jobs,
    };
    let replay_start = Instant::now();
    let outcome = Replay::run(prepared, options);
    let replay_s = replay_start.elapsed().as_secs_f64();

    let features = precompute_features(prepared, model, jobs);
    // The topic oracle scores against the epoch-0 background — the same
    // bootstrap model the replay starts from (and keeps, at --refresh 0).
    let background = model.online_topic().map(|(cfg, _, _)| {
        let table = prepared.gram_table(GramKind::Token, 1);
        let docs: Vec<&[pmr_text::vocab::TermId]> = features
            .iter()
            .filter_map(|f| match f.as_deref() {
                Some(TweetFeatures::Topic(doc)) => Some(doc.tokens.as_slice()),
                _ => None,
            })
            .collect();
        Arc::new(TopicBackground::train(&cfg, &docs, table.vocab_len(), 0))
    });

    // Build the batch models for every user the replay actually queried.
    let mut batch: BTreeMap<u32, BatchModel> = outcome
        .recommendations
        .iter()
        .map(|r| (r.user, BatchModel::fresh(&model, background.as_ref())))
        .collect();
    let mut thetas: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
    for event in stream {
        if let Some(original) = event.retweet_of {
            if let (Some(model), Some(features)) =
                (batch.get_mut(&event.author.0), features[original.index()].as_deref())
            {
                model.observe(features, &mut thetas);
            }
        }
    }

    let mut online_sum = 0.0;
    let mut batch_sum = 0.0;
    let mut scored_queries = 0u64;
    for rec in &outcome.recommendations {
        let relevant = |item: &pmr_serve::RecItem| {
            first_retweet.get(&(rec.user, item.tweet)).is_some_and(|&at| at > rec.now)
        };
        if !rec.items.iter().any(&relevant) {
            continue;
        }
        let online: Vec<ScoredDoc> = rec
            .items
            .iter()
            .map(|item| ScoredDoc {
                score: item.score,
                relevant: relevant(item),
                tie_break: tie_break_key(item.tweet),
            })
            .collect();
        let user_model = batch.get_mut(&rec.user).expect("every queried user has a batch model");
        let rescored: Vec<ScoredDoc> = rec
            .items
            .iter()
            .map(|item| ScoredDoc {
                score: features[item.tweet as usize]
                    .as_deref()
                    .map(|f| user_model.score(f, &mut thetas))
                    .unwrap_or(0.0),
                relevant: relevant(item),
                tie_break: tie_break_key(item.tweet),
            })
            .collect();
        online_sum += average_precision(&online);
        batch_sum += average_precision(&rescored);
        scored_queries += 1;
    }
    let online_map = if scored_queries > 0 { online_sum / scored_queries as f64 } else { 0.0 };
    let batch_map = if scored_queries > 0 { batch_sum / scored_queries as f64 } else { 0.0 };
    let drift = FamilyDrift {
        model: name.to_owned(),
        queries: outcome.queries,
        scored_queries,
        online_map,
        batch_map,
        drift: online_map - batch_map,
        replay_s,
    };
    eprintln!(
        "  {name}: {} queries ({} scored), online MAP {:.3}, batch MAP {:.3}, \
         drift {:+.3} ({replay_s:.2}s replay)",
        drift.queries, drift.scored_queries, drift.online_map, drift.batch_map, drift.drift
    );
    drift
}

fn main() {
    let mut scale = Scale::Smoke;
    let mut seed: u64 = 42;
    let mut window: usize = 64;
    let mut query_every: usize = 25;
    let mut refresh: u64 = 0;
    let mut jobs: usize = 1;
    let mut out = String::from("results/BENCH_drift.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().unwrap_or_else(|| usage(&format!("{flag} requires a value")));
        match arg.as_str() {
            "--scale" => {
                let v = value("--scale");
                scale = Scale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale {v:?}")));
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|_| usage("--seed wants a number"))
            }
            "--window" => {
                window =
                    value("--window").parse().unwrap_or_else(|_| usage("--window wants a number"))
            }
            "--query-every" => {
                query_every = value("--query-every")
                    .parse()
                    .unwrap_or_else(|_| usage("--query-every wants a number"))
            }
            "--refresh" => {
                refresh =
                    value("--refresh").parse().unwrap_or_else(|_| usage("--refresh wants a number"))
            }
            "--jobs" => {
                jobs = value("--jobs").parse().unwrap_or_else(|_| usage("--jobs wants a number"))
            }
            "--out" => out = value("--out"),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let corpus = generate_corpus(&SimConfig::preset(scale.preset(), seed));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    let stream = prepared.corpus.event_stream();

    // (user, original) → earliest retweet time; the stream is time-ordered,
    // so the first occurrence wins.
    let mut first_retweet: BTreeMap<(u32, u32), Timestamp> = BTreeMap::new();
    for event in &stream {
        if let Some(original) = event.retweet_of {
            first_retweet.entry((event.author.0, original.0)).or_insert(event.at);
        }
    }

    eprintln!("drift: scale {}, seed {seed}, window {window}", scale.name());
    let setup = DriftSetup {
        prepared: &prepared,
        stream: &stream,
        first_retweet: &first_retweet,
        window,
        query_every,
        jobs,
    };
    let results: Vec<FamilyDrift> = families(seed, refresh)
        .into_iter()
        .map(|(name, model)| measure(name, model, &setup))
        .collect();

    let baseline = DriftBaseline {
        benchmark: "drift",
        scale: scale.name().to_owned(),
        seed,
        window,
        query_every,
        refresh,
        families: results,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("output directory is creatable");
    }
    std::fs::write(&out, json + "\n").expect("baseline file is writable");
    eprintln!("wrote {out}");
}
