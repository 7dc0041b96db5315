//! Unified model building and scoring — Definition 2.1 made executable.
//!
//! For a `(configuration, representation source)` pair and a set of users,
//! this module builds the user models, scores every user's test documents
//! and returns per-user Average Precision plus the two timing measures of
//! §4: training time (TTime — building all user models, including the
//! one-off topic-model training `M(s)`) and testing time (ETime — scoring
//! and ranking the test sets).
//!
//! The two model-family regimes follow the paper exactly:
//!
//! * **context-based models** (TN, CN, TNG, CNG) fit a separate model per
//!   `(user, source)` on that user's train set;
//! * **topic models** train one `M(s)` per source on the train sets of all
//!   users (pooled per the configuration's scheme), then infer
//!   distributions for each user's training tweets (centroid/Rocchio →
//!   user model) and testing tweets (document models), compared by cosine.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use pmr_bag::{AggregationFunction, IndexedVectorizer, RocchioParams, ScoringKernel, SparseVector};
use pmr_graph::NGramGraph;
use pmr_sim::{TweetId, UserId};
use pmr_text::vocab::{LocalIds, TermId};
use pmr_topics::pooling::{pool_indexed, PoolInput};
use pmr_topics::{
    BtmConfig, BtmModel, HdpConfig, HdpModel, HldaConfig, HldaModel, Labeler, LdaConfig, LdaModel,
    LldaConfig, LldaModel, PlsaConfig, PlsaModel, PoolingScheme, TopicCorpus, TopicModel,
};

use crate::config::{AggKind, ModelConfiguration};
use crate::eval::{average_precision, ScoredDoc};
use crate::features::GramKind;
use crate::prepare::PreparedCorpus;
use crate::source::RepresentationSource;

/// Per-user outcome of one scored configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserResult {
    /// The user.
    pub user: UserId,
    /// Her Average Precision.
    pub ap: f64,
}

/// Outcome of scoring one `(configuration, source)` pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreOutcome {
    /// Per-user APs (only users with a valid split).
    pub per_user: Vec<UserResult>,
    /// Aggregate model-building time (TTime contribution).
    pub train_time: Duration,
    /// Aggregate scoring/ranking time (ETime contribution).
    pub test_time: Duration,
}

/// Knobs for scaled-down (or scaled-up) runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoringOptions {
    /// Multiplier on the configuration's Gibbs/EM iteration counts
    /// (1.0 = the paper's counts; experiment harnesses use much less).
    pub iteration_scale: f64,
    /// Fold-in sweeps per inferred document (topic models).
    pub infer_iterations: usize,
    /// Base seed for all stochastic steps.
    pub seed: u64,
    /// Selects nothing (see [`RetrievalMode`]); the next change to
    /// `pmr_benchmark` drops it.
    pub retrieval: RetrievalMode,
}

/// A one-value placeholder: the bag and graph arms score every test
/// document exactly, so this selects nothing. It stays only because
/// `pmr_benchmark`'s sweep workloads name it; the next change to
/// `pmr_benchmark` drops it together with [`ScoringOptions::retrieval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RetrievalMode {
    /// Score every candidate exactly.
    #[default]
    Exhaustive,
}

impl Default for ScoringOptions {
    fn default() -> Self {
        ScoringOptions {
            iteration_scale: 0.02,
            infer_iterations: 10,
            seed: 13,
            retrieval: RetrievalMode::Exhaustive,
        }
    }
}

impl ScoringOptions {
    /// The paper's full iteration counts.
    pub fn paper() -> Self {
        ScoringOptions { iteration_scale: 1.0, infer_iterations: 20, ..ScoringOptions::default() }
    }

    fn scale(&self, iterations: usize) -> usize {
        ((iterations as f64 * self.iteration_scale).round() as usize).max(5)
    }
}

/// Score a configuration on a source for the given users.
pub fn score_configuration(
    prepared: &PreparedCorpus,
    config: &ModelConfiguration,
    source: RepresentationSource,
    users: &[UserId],
    opts: &ScoringOptions,
) -> ScoreOutcome {
    assert!(
        config.valid_for_source(source),
        "{} is invalid for source {source} (Rocchio needs negatives)",
        config.describe()
    );
    match config {
        ModelConfiguration::Bag { char_grams, n, weighting, aggregation, similarity } => {
            // One shared gram table per (kind, n) serves every user of every
            // configuration; per-user work is reduced to remapping global
            // gram ids into the user's local vector space.
            let table = prepared.gram_table(GramKind::of(*char_grams), *n);
            context_scores(prepared, source, users, |train, test, pos_flags| {
                let t0 = Instant::now();
                let vectorizer = {
                    let _t = pmr_obs::timer("bag.fit");
                    IndexedVectorizer::fit(*weighting, train.iter().map(|&id| table.doc(id)))
                };
                let vectors: Vec<SparseVector> = {
                    let _t = pmr_obs::timer("bag.transform");
                    train.iter().map(|&id| vectorizer.transform(table.doc(id))).collect()
                };
                let user_model = {
                    let _t = pmr_obs::timer("bag.aggregate");
                    match aggregation {
                        AggKind::Sum => AggregationFunction::Sum.aggregate(&vectors, &[]),
                        AggKind::Centroid => AggregationFunction::Centroid.aggregate(&vectors, &[]),
                        AggKind::Rocchio => {
                            // Only Rocchio needs the positive/negative split;
                            // cloning it for Sum/Centroid was wasted work.
                            let (pos, neg): (Vec<_>, Vec<_>) =
                                vectors.iter().zip(pos_flags).partition(|(_, &p)| p);
                            let positives: Vec<SparseVector> =
                                pos.into_iter().map(|(v, _)| v.clone()).collect();
                            let negatives: Vec<SparseVector> =
                                neg.into_iter().map(|(v, _)| v.clone()).collect();
                            AggregationFunction::Rocchio(RocchioParams::PAPER)
                                .aggregate(&positives, &negatives)
                        }
                    }
                };
                let kernel = {
                    let _t = pmr_obs::timer("bag.kernel_build");
                    ScoringKernel::new(*similarity, &user_model)
                };
                let train_time = t0.elapsed();
                let t1 = Instant::now();
                let scores: Vec<f64> = {
                    let _timer = pmr_obs::timer("kernel.score");
                    test.iter()
                        .map(|&id| kernel.score(&vectorizer.transform(table.doc(id))))
                        .collect()
                };
                (scores, train_time, t1.elapsed())
            })
        }
        ModelConfiguration::Graph { char_grams, n, similarity } => {
            let table = prepared.gram_table(GramKind::of(*char_grams), *n);
            context_scores(prepared, source, users, |train, test, _pos_flags| {
                let t0 = Instant::now();
                // Vertex ids: the table's gram ids remapped in first-seen
                // order, which are the ids a per-user `GraphSpace`
                // interning the gram strings would assign. Edge keys, and
                // with them the similarities' summation order, match.
                let mut vertices = LocalIds::new();
                let mut user_model = NGramGraph::new();
                for &id in train {
                    let ids: Vec<TermId> =
                        table.doc(id).iter().map(|&g| vertices.intern(g)).collect();
                    user_model.merge(&NGramGraph::from_ids(&ids, *n));
                }
                let train_time = t0.elapsed();
                let t1 = Instant::now();
                let scores: Vec<f64> = test
                    .iter()
                    .map(|&id| {
                        let ids: Vec<TermId> =
                            table.doc(id).iter().map(|&g| vertices.intern(g)).collect();
                        similarity.compare(&user_model, &NGramGraph::from_ids(&ids, *n))
                    })
                    .collect();
                (scores, train_time, t1.elapsed())
            })
        }
        ModelConfiguration::Lda { topics, iterations, pooling, aggregation } => {
            topic_scores(prepared, source, users, *pooling, *aggregation, opts, |corpus| {
                let mut cfg = LdaConfig::paper(*topics, opts.scale(*iterations), opts.seed);
                cfg.infer_iterations = opts.infer_iterations;
                Box::new(LdaModel::train(&cfg, corpus))
            })
        }
        ModelConfiguration::Llda { topics, iterations, pooling, aggregation } => {
            topic_scores(prepared, source, users, *pooling, *aggregation, opts, |corpus| {
                let mut cfg = LldaConfig::paper(*topics, opts.scale(*iterations), opts.seed);
                cfg.infer_iterations = opts.infer_iterations;
                Box::new(LldaModel::train(&cfg, corpus))
            })
        }
        ModelConfiguration::Btm { topics, pooling, aggregation } => {
            let window = if *pooling == PoolingScheme::NP {
                // Individual tweets: the window is the tweet itself (§4).
                10_000
            } else {
                30
            };
            topic_scores(prepared, source, users, *pooling, *aggregation, opts, move |corpus| {
                let mut cfg = BtmConfig::paper(*topics, opts.scale(1_000), opts.seed);
                cfg.window = window;
                Box::new(BtmModel::train(&cfg, corpus))
            })
        }
        ModelConfiguration::Hdp { beta, pooling, aggregation } => {
            topic_scores(prepared, source, users, *pooling, *aggregation, opts, |corpus| {
                let mut cfg = HdpConfig::paper(*beta, opts.scale(1_000), opts.seed);
                cfg.infer_iterations = opts.infer_iterations;
                Box::new(HdpModel::train(&cfg, corpus))
            })
        }
        ModelConfiguration::Hlda { alpha, beta, gamma, aggregation } => {
            topic_scores(prepared, source, users, PoolingScheme::UP, *aggregation, opts, |corpus| {
                let mut cfg =
                    HldaConfig::paper(*alpha, *beta, *gamma, opts.scale(1_000), opts.seed);
                cfg.infer_iterations = opts.infer_iterations.min(10);
                Box::new(HldaModel::train(&cfg, corpus))
            })
        }
        ModelConfiguration::Plsa { topics, iterations, pooling, aggregation } => {
            topic_scores(prepared, source, users, *pooling, *aggregation, opts, |corpus| {
                let cfg = PlsaConfig {
                    topics: *topics,
                    iterations: opts.scale(*iterations),
                    infer_iterations: opts.infer_iterations,
                    seed: opts.seed,
                };
                Box::new(PlsaModel::train(&cfg, corpus))
            })
        }
    }
}

/// Shared driver for the per-user context-based models. The closure gets
/// `(train ids, test ids, positivity flags of train ids)` and returns the
/// test scores plus its own train/test timing.
fn context_scores<F>(
    prepared: &PreparedCorpus,
    source: RepresentationSource,
    users: &[UserId],
    per_user: F,
) -> ScoreOutcome
where
    F: Fn(&[TweetId], &[TweetId], &[bool]) -> (Vec<f64>, Duration, Duration) + Sync,
{
    let split = &prepared.split;
    let corpus = &prepared.corpus;
    let mut per_user_results = Vec::with_capacity(users.len());
    let mut train_time = Duration::ZERO;
    let mut test_time = Duration::ZERO;
    // Work items are independent; run them on scoped threads and collect
    // deterministically by index.
    let results: Vec<Option<(UserResult, Duration, Duration)>> = parallel_map(users, |&user| {
        let user_split = split.user(user)?;
        let train = split.train_ids(corpus, user, source);
        let test = user_split.test_docs();
        let flags: Vec<bool> =
            train.iter().map(|&id| split.is_positive_train_doc(corpus, user, id)).collect();
        let (scores, tt, et) = per_user(&train, &test, &flags);
        let docs: Vec<ScoredDoc> = test
            .iter()
            .zip(&scores)
            .map(|(&id, &score)| ScoredDoc {
                score,
                relevant: user_split.is_positive(id),
                tie_break: crate::eval::tie_break_key(id.0),
            })
            .collect();
        Some((UserResult { user, ap: average_precision(&docs) }, tt, et))
    });
    for r in results.into_iter().flatten() {
        per_user_results.push(r.0);
        train_time += r.1;
        test_time += r.2;
    }
    ScoreOutcome { per_user: per_user_results, train_time, test_time }
}

/// Run `f` over `items` on scoped threads, preserving order. Respects the
/// executor's inner-thread hint so that a parallel sweep of runs does not
/// oversubscribe the machine with `jobs × n_cpu` threads.
fn parallel_map<T: Sync, R: Send, F>(items: &[T], f: F) -> Vec<R>
where
    F: Fn(&T) -> R + Sync,
{
    let threads = crate::executor::inner_threads();
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (ci, items_chunk) in items.chunks(chunk).enumerate() {
            let f = &f;
            handles.push((ci, scope.spawn(move || items_chunk.iter().map(f).collect::<Vec<R>>())));
        }
        for (ci, h) in handles {
            // pmr-lint: allow(lib-unwrap): re-raises a worker panic on the coordinating thread
            let results = h.join().expect("worker panicked");
            for (i, r) in results.into_iter().enumerate() {
                out[ci * chunk + i] = Some(r);
            }
        }
    });
    // pmr-lint: allow(lib-unwrap): every index is written exactly once by the chunk loop above
    out.into_iter().map(|r| r.expect("all slots filled")).collect()
}

/// Topic-model regime: train one `M(s)`, infer distributions, aggregate,
/// score with cosine.
#[allow(clippy::too_many_arguments)]
fn topic_scores<F>(
    prepared: &PreparedCorpus,
    source: RepresentationSource,
    users: &[UserId],
    pooling: PoolingScheme,
    aggregation: AggKind,
    opts: &ScoringOptions,
    train_model: F,
) -> ScoreOutcome
where
    F: FnOnce(&TopicCorpus) -> Box<dyn TopicModel>,
{
    let split = &prepared.split;
    let corpus = &prepared.corpus;
    let t0 = Instant::now();
    // Union of all users' train sets for this source.
    let mut train_union: Vec<TweetId> =
        users.iter().flat_map(|&u| split.train_ids(corpus, u, source)).collect();
    train_union.sort();
    train_union.dedup();
    // Pool into pseudo-documents.
    let inputs: Vec<PoolInput<'_>> = train_union
        .iter()
        .map(|&id| PoolInput {
            tokens: prepared.content(id),
            author: corpus.tweet(id).author.0,
            hashtags: prepared.hashtags(id),
        })
        .collect();
    let pooled = pool_indexed(pooling, &inputs);
    let mut topic_corpus =
        TopicCorpus::from_token_docs(pooled.iter().map(|(doc, _)| doc.as_slice()));
    // Labels for Labeled LDA: union of the member tweets' labels.
    let labeler =
        Labeler::fit(train_union.iter().map(|&id| prepared.tokens(id)), Labeler::PAPER_MIN_COUNT);
    let mut label_vocab = pmr_topics::label::LabelVocabulary::new();
    topic_corpus.labels = pooled
        .iter()
        .map(|(_, members)| {
            let mut ids: Vec<u32> = members
                .iter()
                .flat_map(|&m| {
                    let id = train_union[m];
                    labeler.label(prepared.raw_text(id), prepared.tokens(id), m)
                })
                .map(|l| label_vocab.intern(&l))
                .collect();
            ids.sort();
            ids.dedup();
            ids
        })
        .collect();
    let model = train_model(&topic_corpus);
    // Inference cache over every tweet we will need (train + test).
    let mut needed: Vec<TweetId> = train_union.clone();
    for &u in users {
        if let Some(s) = split.user(u) {
            needed.extend(s.test_docs());
        }
    }
    needed.sort();
    needed.dedup();
    let model_ref: &dyn TopicModel = model.as_ref();
    let thetas: Vec<Vec<f32>> = parallel_map(&needed, |&id| {
        let encoded = topic_corpus.encode(prepared.content(id));
        let mut rng =
            StdRng::seed_from_u64(opts.seed ^ (id.0 as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        model_ref.infer(&encoded, &mut rng)
    });
    let theta_of: HashMap<TweetId, usize> =
        needed.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    // User models.
    let mut per_user = Vec::with_capacity(users.len());
    let mut train_time = t0.elapsed();
    let mut test_time = Duration::ZERO;
    for &user in users {
        let Some(user_split) = split.user(user) else { continue };
        let tm = Instant::now();
        let train = split.train_ids(corpus, user, source);
        let mut pos: Vec<&[f32]> = Vec::new();
        let mut neg: Vec<&[f32]> = Vec::new();
        for &id in &train {
            let th = thetas[theta_of[&id]].as_slice();
            if aggregation != AggKind::Rocchio || split.is_positive_train_doc(corpus, user, id) {
                pos.push(th);
            } else {
                neg.push(th);
            }
        }
        let user_model = match aggregation {
            // The paper builds topic user models as the centroid of the
            // training distributions; Sum differs from Centroid only by a
            // scale factor, which cosine ignores.
            AggKind::Sum | AggKind::Centroid => dense_centroid(&pos, model.num_topics()),
            AggKind::Rocchio => dense_rocchio(&pos, &neg, model.num_topics()),
        };
        train_time += tm.elapsed();
        let te = Instant::now();
        let docs: Vec<ScoredDoc> = user_split
            .test_docs()
            .into_iter()
            .map(|id| ScoredDoc {
                score: dense_cosine(&user_model, &thetas[theta_of[&id]]),
                relevant: user_split.is_positive(id),
                tie_break: crate::eval::tie_break_key(id.0),
            })
            .collect();
        per_user.push(UserResult { user, ap: average_precision(&docs) });
        test_time += te.elapsed();
    }
    ScoreOutcome { per_user, train_time, test_time }
}

/// Mean of L2-normalized dense vectors.
fn dense_centroid(docs: &[&[f32]], k: usize) -> Vec<f32> {
    let mut acc = vec![0.0f32; k];
    if docs.is_empty() {
        return acc;
    }
    for d in docs {
        let n: f32 = d.iter().map(|x| x * x).sum::<f32>().sqrt();
        if n > 0.0 {
            for (a, x) in acc.iter_mut().zip(*d) {
                *a += x / n;
            }
        }
    }
    let inv = 1.0 / docs.len() as f32;
    acc.iter_mut().for_each(|a| *a *= inv);
    acc
}

/// Rocchio over dense distributions with the paper's α = 0.8, β = 0.2.
fn dense_rocchio(pos: &[&[f32]], neg: &[&[f32]], k: usize) -> Vec<f32> {
    let p = dense_centroid(pos, k);
    let n = dense_centroid(neg, k);
    p.iter().zip(&n).map(|(a, b)| 0.8 * a - 0.2 * b).collect()
}

/// Cosine similarity of dense vectors (0 when either is zero).
fn dense_cosine(a: &[f32], b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_centroid_averages_unit_vectors() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 2.0];
        let c = dense_centroid(&[&a, &b], 2);
        assert!((c[0] - 0.5).abs() < 1e-6);
        assert!((c[1] - 0.5).abs() < 1e-6, "magnitude must not matter: {c:?}");
    }

    #[test]
    fn dense_centroid_of_nothing_is_zero() {
        assert_eq!(dense_centroid(&[], 3), vec![0.0; 3]);
    }

    #[test]
    fn dense_rocchio_weights_pos_and_neg() {
        let pos = [1.0f32, 0.0];
        let neg = [0.0f32, 1.0];
        let m = dense_rocchio(&[&pos], &[&neg], 2);
        assert!((m[0] - 0.8).abs() < 1e-6);
        assert!((m[1] + 0.2).abs() < 1e-6);
    }

    #[test]
    fn dense_cosine_basics() {
        assert!((dense_cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert_eq!(dense_cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(dense_cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..97).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<usize> = Vec::new();
        assert!(parallel_map(&empty, |&x: &usize| x).is_empty());
        assert_eq!(parallel_map(&[7usize], |&x| x + 1), vec![8]);
    }

    #[test]
    fn local_ids_build_the_graphs_the_string_interner_builds() {
        use pmr_graph::GraphSpace;
        use pmr_sim::{generate_corpus, ScalePreset, SimConfig};

        let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 99));
        let prepared = PreparedCorpus::new(corpus, crate::SplitConfig::default())
            .expect("smoke corpus is well-formed");
        let bits = |g: &NGramGraph| -> Vec<(TermId, TermId, u32)> {
            g.edges().map(|(a, b, w)| (a, b, w.to_bits())).collect()
        };
        for (kind, n) in [(GramKind::Token, 1), (GramKind::Token, 3), (GramKind::Char, 4)] {
            let table = prepared.gram_table(kind, n);
            for user in prepared.corpus.evaluated_user_ids() {
                let Some(user_split) = prepared.split.user(user) else { continue };
                // The sweep's order: train documents, then test documents.
                let docs = prepared
                    .split
                    .train_ids(&prepared.corpus, user, RepresentationSource::R)
                    .into_iter()
                    .chain(user_split.test_docs());
                let mut space = GraphSpace::new();
                let mut vertices = LocalIds::new();
                let (mut by_ids, mut by_strings) = (NGramGraph::new(), NGramGraph::new());
                for id in docs {
                    let local: Vec<TermId> =
                        table.doc(id).iter().map(|&g| vertices.intern(g)).collect();
                    let g = NGramGraph::from_ids(&local, n);
                    let h = space.graph_from_grams(&table.doc_terms(id), n);
                    assert_eq!(bits(&g), bits(&h), "{kind:?} n={n}, user {user:?}, tweet {id:?}");
                    by_ids.merge(&g);
                    by_strings.merge(&h);
                }
                assert_eq!(bits(&by_ids), bits(&by_strings), "{kind:?} n={n}, user {user:?}");
                assert_eq!(vertices.len(), space.len());
            }
        }
    }

    #[test]
    fn scoring_options_scale_floors_at_five() {
        let opts = ScoringOptions {
            iteration_scale: 0.001,
            infer_iterations: 5,
            seed: 1,
            ..ScoringOptions::default()
        };
        assert_eq!(opts.scale(1_000), 5);
        let opts = ScoringOptions::paper();
        assert_eq!(opts.scale(1_000), 1_000);
    }
}
