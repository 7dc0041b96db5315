//! Serving-engine configuration.
//!
//! [`EngineConfig`] is the *semantic* configuration: it determines every
//! recommendation the engine will ever emit and therefore travels inside
//! snapshots. [`RuntimeOptions`] is the *mechanical* configuration — shard
//! and queue sizing — which by the determinism contract must never change
//! an output, and is therefore deliberately excluded from snapshots: a
//! snapshot taken on one shard layout restores onto any other.

use pmr_bag::{BagSimilarity, WeightingScheme};
use pmr_graph::GraphSimilarity;
use pmr_topics::OnlineTopicConfig;
use serde::{Deserialize, Serialize};

/// The online model family the engine maintains for every user.
///
/// Mirrors the batch study's incremental-friendly families (§3.2): the
/// decayed bag centroid, the n-gram graph with its running-average update
/// operator, and the topic family, which serves new documents by
/// deterministic fold-in Gibbs inference against a periodically retrained
/// [`pmr_topics::TopicBackground`] instead of refitting the full sampler
/// per document.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServeModel {
    /// Exponentially decayed centroid of unit document vectors
    /// ([`pmr_core::OnlineProfile`]) scored with a bag similarity.
    Bag {
        /// Term weighting of the shared vectorizer.
        weighting: WeightingScheme,
        /// Similarity used at query time.
        similarity: BagSimilarity,
        /// Character n-grams instead of token n-grams.
        char_grams: bool,
        /// Gram order.
        n: usize,
        /// History decay per observed document, in (0, 1].
        decay: f32,
    },
    /// Incremental n-gram graph ([`pmr_core::OnlineGraphModel`]).
    Graph {
        /// Graph similarity used at query time.
        similarity: GraphSimilarity,
        /// Character n-grams instead of token n-grams.
        char_grams: bool,
        /// Gram order (also the graph's co-occurrence window).
        n: usize,
    },
    /// Decayed per-user topic profile ([`pmr_topics::TopicProfile`]) over
    /// fold-in θ distributions against a shared background LDA model
    /// ([`pmr_topics::TopicBackground`]), scored with cosine. Always token unigrams — the topic vocabulary is
    /// the corpus's token space.
    Topic {
        /// Number of latent topics.
        topics: usize,
        /// Symmetric document–topic prior.
        alpha: f64,
        /// Symmetric topic–word prior.
        beta: f64,
        /// Gibbs sweeps per background retrain.
        train_iterations: usize,
        /// Gibbs sweeps per served document's fold-in.
        foldin_iterations: usize,
        /// Master seed for training and fold-in seed derivation.
        seed: u64,
        /// History decay per observed document, in (0, 1].
        decay: f32,
        /// Retrain the background model every this many stream events on
        /// the causal prefix (0 keeps the epoch-0 model forever).
        background_refresh: u64,
    },
}

impl ServeModel {
    /// Whether the model reads character grams (vs token grams).
    pub fn char_grams(self) -> bool {
        match self {
            ServeModel::Bag { char_grams, .. } | ServeModel::Graph { char_grams, .. } => char_grams,
            ServeModel::Topic { .. } => false,
        }
    }

    /// The gram order.
    pub fn n(self) -> usize {
        match self {
            ServeModel::Bag { n, .. } | ServeModel::Graph { n, .. } => n,
            ServeModel::Topic { .. } => 1,
        }
    }

    /// Short human-readable name for logs and benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            ServeModel::Bag { .. } => "bag",
            ServeModel::Graph { .. } => "graph",
            ServeModel::Topic { .. } => "topic",
        }
    }

    /// The topic family's `(sampler config, profile decay, refresh cadence)`
    /// — `None` for the gram families.
    pub fn online_topic(self) -> Option<(OnlineTopicConfig, f32, u64)> {
        match self {
            ServeModel::Topic {
                topics,
                alpha,
                beta,
                train_iterations,
                foldin_iterations,
                seed,
                decay,
                background_refresh,
            } => Some((
                OnlineTopicConfig {
                    topics,
                    alpha,
                    beta,
                    train_iterations,
                    foldin_iterations,
                    seed,
                },
                decay,
                background_refresh,
            )),
            _ => None,
        }
    }
}

/// Everything that determines the engine's *outputs*. Serialized into
/// snapshots; restoring under a different `EngineConfig` is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The per-user online model.
    pub model: ServeModel,
    /// Candidate-window capacity per user: how many of the most recent
    /// feed tweets stay eligible for recommendation. Oldest entries are
    /// evicted first.
    pub window: usize,
}

/// A one-value placeholder: the work-stealing runtime is the only
/// scheduler, so this selects nothing. It stays only because
/// `pmr_benchmark`'s serving workloads build [`RuntimeOptions`] with a
/// `..RuntimeOptions::default()` update that would be needless without a
/// field left to fill; the next change to `pmr_benchmark` drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// `workers` OS threads multiplex all logical shards through per-shard
    /// mailboxes and a shared run queue.
    WorkSteal,
}

/// Mechanical sizing knobs. Changing these must never change a
/// recommendation — that invariant is the subsystem's core contract and is
/// what the `serve-smoke` CI job byte-diffs for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// Number of *logical* shards; users are partitioned `user_id % shards`.
    /// Independent of thread count, so it can comfortably be in the
    /// thousands.
    pub shards: usize,
    /// OS worker threads that multiplex the logical shards.
    pub workers: usize,
    /// Bounded per-shard ingest queue capacity. When a queue fills, the
    /// ingest thread blocks (after bumping the `serve.backpressure`
    /// counter) rather than buffering unboundedly.
    pub queue_capacity: usize,
    /// Selects nothing (see [`Scheduler`]); the next change to
    /// `pmr_benchmark` drops it.
    pub scheduler: Scheduler,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            shards: 64,
            workers: 4,
            queue_capacity: 1024,
            scheduler: Scheduler::WorkSteal,
        }
    }
}

impl RuntimeOptions {
    /// Clamp to at least one shard, one worker and a one-slot queue.
    pub fn normalized(self) -> RuntimeOptions {
        RuntimeOptions {
            shards: self.shards.max(1),
            workers: self.workers.max(1),
            queue_capacity: self.queue_capacity.max(1),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_json() {
        let configs = [
            EngineConfig {
                model: ServeModel::Bag {
                    weighting: WeightingScheme::TFIDF,
                    similarity: BagSimilarity::Cosine,
                    char_grams: false,
                    n: 1,
                    decay: 0.97,
                },
                window: 128,
            },
            EngineConfig {
                model: ServeModel::Graph {
                    similarity: GraphSimilarity::Value,
                    char_grams: true,
                    n: 3,
                },
                window: 64,
            },
            EngineConfig {
                model: ServeModel::Topic {
                    topics: 16,
                    alpha: 50.0 / 16.0,
                    beta: 0.01,
                    train_iterations: 50,
                    foldin_iterations: 8,
                    seed: 7,
                    decay: 0.99,
                    background_refresh: 500,
                },
                window: 64,
            },
        ];
        for config in configs {
            let json = serde_json::to_string(&config).expect("serializes");
            let back: EngineConfig = serde_json::from_str(&json).expect("parses");
            assert_eq!(back, config);
        }
    }

    #[test]
    fn topic_models_fix_token_unigrams() {
        let model = ServeModel::Topic {
            topics: 8,
            alpha: 6.25,
            beta: 0.01,
            train_iterations: 10,
            foldin_iterations: 4,
            seed: 3,
            decay: 0.9,
            background_refresh: 100,
        };
        assert!(!model.char_grams(), "topic features are token grams by construction");
        assert_eq!(model.n(), 1);
        assert_eq!(model.name(), "topic");
        let (cfg, decay, refresh) = model.online_topic().expect("topic variant yields a config");
        assert_eq!(cfg.topics, 8);
        assert_eq!(cfg.foldin_iterations, 4);
        assert_eq!(decay, 0.9);
        assert_eq!(refresh, 100);
        assert!(ServeModel::Graph { similarity: GraphSimilarity::Value, char_grams: true, n: 3 }
            .online_topic()
            .is_none());
    }

    #[test]
    fn runtime_options_normalize_degenerate_sizes() {
        let r = RuntimeOptions {
            shards: 0,
            workers: 0,
            queue_capacity: 0,
            ..RuntimeOptions::default()
        }
        .normalized();
        assert_eq!(r.shards, 1);
        assert_eq!(r.workers, 1);
        assert_eq!(r.queue_capacity, 1);
    }
}
