//! Online user modeling: incremental updates for a deployed recommender.
//!
//! The paper's evaluation is batch (train once, rank once), but its stated
//! purpose is fine-tuning models "for use in real recommender systems" (§1).
//! A deployed system cannot refit on every retweet; this module maintains a
//! user model *incrementally*:
//!
//! * the **bag** variant keeps an exponentially-decayed centroid of unit
//!   document vectors — the centroid aggregation of §3.2 with a recency
//!   half-life, reducing to the plain centroid when decay is 1;
//! * the **graph** variant reuses the n-gram graphs' update operator, which
//!   is already incremental by construction (its learning factor
//!   `1/(k+1)` is the running-average schedule).
//!
//! Neither variant owns a feature space. Documents arrive already built —
//! unit vectors over a shared `pmr_bag::IndexedVectorizer`, graphs over one
//! shared gram-id space — so every user of a serving engine scores the same
//! document features, and scoring reads the model without changing it. Both
//! variants score with the batch models' similarity measures, so an online
//! model converges to its batch counterpart on a static stream.

use pmr_bag::SparseVector;
use pmr_graph::{GraphSimilarity, NGramGraph};
use serde::{Deserialize, Serialize};

/// An online bag user model: an exponentially decayed sum of unit document
/// vectors.
///
/// The caller supplies already-transformed, unit-normalized vectors over
/// one shared vectorizer and scores candidates through a
/// `pmr_bag::ScoringKernel` built over [`OnlineProfile::vector`], so a
/// serving engine keeps a profile per user without cloning a vectorizer
/// into each of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineProfile {
    /// Decay multiplier applied to the accumulated model before each
    /// update; 1.0 = no forgetting (running centroid up to scale).
    decay: f32,
    accumulated: SparseVector,
    documents: usize,
}

impl OnlineProfile {
    /// Start an empty profile.
    ///
    /// `decay` ∈ (0, 1]: the weight multiplier applied to history per
    /// update. With decay `d`, a document observed `k` updates ago carries
    /// relative weight `d^k` — a half-life of `ln 2 / ln(1/d)` updates.
    pub fn new(decay: f32) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        OnlineProfile { decay, accumulated: SparseVector::new(), documents: 0 }
    }

    /// Fold one observed document's *unit-normalized* vector into the
    /// profile: one decay step, then the new document at full weight.
    pub fn observe_unit(&mut self, unit: &SparseVector) {
        self.accumulated.scale(self.decay);
        self.accumulated.add_scaled(unit, 1.0);
        self.documents += 1;
    }

    /// The decay multiplier.
    pub fn decay(&self) -> f32 {
        self.decay
    }

    /// Number of observed documents.
    pub fn documents(&self) -> usize {
        self.documents
    }

    /// The current (unnormalized) model vector.
    pub fn vector(&self) -> &SparseVector {
        &self.accumulated
    }
}

/// An incrementally-updated n-gram graph user model: the user's merged
/// graph and the similarity it scores under.
///
/// Observed and scored document graphs must share the user graph's gram-id
/// space; serving builds every original tweet's graph once, over one space
/// for the whole engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineGraphModel {
    similarity: GraphSimilarity,
    user: NGramGraph,
}

impl OnlineGraphModel {
    /// Start an empty model.
    pub fn new(similarity: GraphSimilarity) -> Self {
        OnlineGraphModel { similarity, user: NGramGraph::new() }
    }

    /// Fold one observed document graph into the model via the update
    /// operator.
    pub fn observe(&mut self, doc: &NGramGraph) {
        self.user.merge(doc);
    }

    /// Score a candidate document graph against the current model.
    pub fn score(&self, doc: &NGramGraph) -> f64 {
        self.similarity.compare(&self.user, doc)
    }

    /// Number of observed documents.
    pub fn documents(&self) -> usize {
        self.user.merged_docs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_bag::{
        AggregationFunction, BagSimilarity, IndexedVectorizer, ScoringKernel, WeightingScheme,
    };
    use pmr_text::vocab::{TermId, Vocabulary};

    /// The serving path's bag model: a profile fed unit vectors over one
    /// shared `IndexedVectorizer`, scored through a `ScoringKernel` with the
    /// candidate normalized like every observation.
    pub(super) struct Served {
        pub(super) vectorizer: IndexedVectorizer,
        pub(super) similarity: BagSimilarity,
        pub(super) profile: OnlineProfile,
    }

    impl Served {
        pub(super) fn observe(&mut self, doc: &[TermId]) {
            self.profile.observe_unit(&self.vectorizer.transform(doc).normalized());
        }

        pub(super) fn score(&self, doc: &[TermId]) -> f64 {
            let kernel = ScoringKernel::new(self.similarity, self.profile.vector());
            kernel.score(&self.vectorizer.transform(doc).normalized())
        }
    }

    /// `text`'s whitespace tokens, interned into `vocab`.
    pub(super) fn ids(vocab: &mut Vocabulary, text: &str) -> Vec<TermId> {
        text.split_whitespace().map(|g| vocab.intern(g)).collect()
    }

    fn docs(vocab: &mut Vocabulary) -> Vec<Vec<TermId>> {
        ["cats purr softly", "cats nap often", "rust code compiles"]
            .iter()
            .map(|d| ids(vocab, d))
            .collect()
    }

    pub(super) fn served(train: &[Vec<TermId>], similarity: BagSimilarity, decay: f32) -> Served {
        let vectorizer = IndexedVectorizer::fit(WeightingScheme::TF, train);
        Served { vectorizer, similarity, profile: OnlineProfile::new(decay) }
    }

    #[test]
    fn online_centroid_matches_batch_centroid_without_decay() {
        let mut vocab = Vocabulary::new();
        let train = docs(&mut vocab);
        let mut online = served(&train, BagSimilarity::Cosine, 1.0);
        for d in &train {
            online.observe(d);
        }
        let vectors: Vec<SparseVector> =
            train.iter().map(|d| online.vectorizer.transform(d)).collect();
        let batch = AggregationFunction::Centroid.aggregate(&vectors, &[]);
        // Online accumulates the *sum* of unit vectors; the centroid divides
        // by |D| — a scale factor cosine ignores.
        let probe = ids(&mut vocab, "cats purr");
        let online_score = online.score(&probe);
        let batch_score = ScoringKernel::new(BagSimilarity::Cosine, &batch)
            .score(&online.vectorizer.transform(&probe));
        assert!((online_score - batch_score).abs() < 1e-6);
    }

    #[test]
    fn decay_forgets_old_interests() {
        let mut vocab = Vocabulary::new();
        // Old interest: cats. New interest: rust.
        let train = docs(&mut vocab);
        let mut fast_forget = served(&train, BagSimilarity::Cosine, 0.2);
        let mut no_forget = served(&train, BagSimilarity::Cosine, 1.0);
        for d in &train {
            fast_forget.observe(d);
            no_forget.observe(d);
        }
        let cats = ids(&mut vocab, "cats purr");
        assert!(
            fast_forget.score(&cats) < no_forget.score(&cats),
            "decayed model must care less about stale interests"
        );
    }

    #[test]
    fn online_graph_tracks_observed_content() {
        let mut vocab = Vocabulary::new();
        let mut model = OnlineGraphModel::new(GraphSimilarity::Value);
        for d in docs(&mut vocab) {
            model.observe(&NGramGraph::from_ids(&d, 2));
        }
        assert_eq!(model.documents(), 3);
        let seen = NGramGraph::from_ids(&ids(&mut vocab, "cats purr softly"), 2);
        let unseen = NGramGraph::from_ids(&ids(&mut vocab, "quantum flux capacitor"), 2);
        assert!(model.score(&seen) > model.score(&unseen));
        assert_eq!(model.score(&unseen), 0.0);
    }

    #[test]
    fn generalized_jaccard_self_similarity_is_one() {
        // With the candidate normalized like the observations, one observed
        // document compared against itself is a comparison of identical
        // unit vectors — self-similarity 1 for the Jaccard family, which an
        // unnormalized candidate would violate.
        let mut vocab = Vocabulary::new();
        let train = docs(&mut vocab);
        let mut online = served(&train, BagSimilarity::GeneralizedJaccard, 1.0);
        online.observe(&train[0]);
        let s = online.score(&train[0]);
        assert!((s - 1.0).abs() < 1e-6, "self-similarity must be 1, got {s}");
    }

    #[test]
    fn online_graph_converges_to_batch_on_a_static_stream() {
        let mut vocab = Vocabulary::new();
        let train = docs(&mut vocab);
        let mut online = OnlineGraphModel::new(GraphSimilarity::Value);
        // The batch counterpart: merge every document graph in one pass,
        // exactly as the batch recommender builds its user graphs.
        let mut batch = NGramGraph::new();
        for d in &train {
            online.observe(&NGramGraph::from_ids(d, 2));
            batch.merge(&NGramGraph::from_ids(d, 2));
        }
        for probe in ["cats purr softly", "rust code compiles", "cats nap rust"] {
            let g = NGramGraph::from_ids(&ids(&mut vocab, probe), 2);
            let got = online.score(&g);
            let want = GraphSimilarity::Value.compare(&batch, &g);
            assert!(
                (got - want).abs() < 1e-9,
                "online ({got}) and batch ({want}) scores diverge on {probe:?}"
            );
        }
    }

    #[test]
    fn empty_models_score_zero() {
        let mut vocab = Vocabulary::new();
        let train = docs(&mut vocab);
        let online = served(&train, BagSimilarity::Cosine, 1.0);
        assert_eq!(online.score(&ids(&mut vocab, "cats")), 0.0);
        assert_eq!(online.profile.documents(), 0);
        let graph = OnlineGraphModel::new(GraphSimilarity::Value);
        assert_eq!(graph.score(&NGramGraph::from_ids(&train[0], 2)), 0.0);
        assert_eq!(graph.documents(), 0);
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1]")]
    fn zero_decay_is_rejected() {
        let _ = OnlineProfile::new(0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{ids, served};
    use super::*;
    use pmr_bag::{AggregationFunction, BagSimilarity, ScoringKernel};
    use pmr_text::vocab::{TermId, Vocabulary};
    use proptest::prelude::*;

    fn arb_doc() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec("[a-f]{1,3}", 1..10)
    }

    proptest! {
        /// The bag counterpart of the graph convergence test: with decay 1
        /// the online model is the *sum* of unit document vectors, the
        /// batch centroid is their *mean* — a scale factor cosine ignores,
        /// so both must induce the same candidate ranking on any static
        /// stream.
        #[test]
        fn undecayed_online_bag_ranks_like_the_batch_centroid(
            train in proptest::collection::vec(arb_doc(), 1..8),
            probes in proptest::collection::vec(arb_doc(), 2..6),
        ) {
            let mut vocab = Vocabulary::new();
            let mut intern = |doc: &Vec<String>| ids(&mut vocab, &doc.join(" "));
            let train: Vec<Vec<TermId>> = train.iter().map(&mut intern).collect();
            let probes: Vec<Vec<TermId>> = probes.iter().map(&mut intern).collect();
            let mut online = served(&train, BagSimilarity::Cosine, 1.0);
            for d in &train {
                online.observe(d);
            }
            let vectorizer = &online.vectorizer;
            let vectors: Vec<SparseVector> =
                train.iter().map(|d| vectorizer.transform(d)).collect();
            let batch = AggregationFunction::Centroid.aggregate(&vectors, &[]);
            let online_scores: Vec<f64> = probes.iter().map(|p| online.score(p)).collect();
            let batch_kernel = ScoringKernel::new(BagSimilarity::Cosine, &batch);
            let batch_scores: Vec<f64> = probes
                .iter()
                .map(|p| batch_kernel.score(&vectorizer.transform(p).normalized()))
                .collect();
            for (o, b) in online_scores.iter().zip(&batch_scores) {
                prop_assert!((o - b).abs() < 1e-6, "scores diverge: online {o}, batch {b}");
            }
            // Whenever batch separates two probes beyond float noise, the
            // online model must order them identically.
            for i in 0..probes.len() {
                for j in 0..probes.len() {
                    if batch_scores[i] > batch_scores[j] + 1e-6 {
                        prop_assert!(
                            online_scores[i] > online_scores[j],
                            "ranking flip between probes {i} and {j}: \
                             online ({}, {}) vs batch ({}, {})",
                            online_scores[i], online_scores[j],
                            batch_scores[i], batch_scores[j]
                        );
                    }
                }
            }
        }
    }
}
