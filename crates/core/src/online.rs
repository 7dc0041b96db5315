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
//! Both variants score candidates with the same similarity measures as the
//! batch models, so an online model converges to its batch counterpart on a
//! static stream.

use pmr_bag::{BagSimilarity, BagVectorizer, SparseVector};
use pmr_graph::{GraphSimilarity, GraphSpace, NGramGraph};
use serde::{Deserialize, Serialize};

/// The vectorizer-free core of an online bag model: an exponentially
/// decayed sum of unit document vectors.
///
/// Extracted from [`OnlineBagModel`] so a serving engine with one *shared*
/// feature space (`pmr_bag::IndexedVectorizer`) can keep a profile per user
/// without cloning a vectorizer into each of them; the caller supplies
/// already-transformed, unit-normalized vectors.
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

    /// Apply one forgetting step without observing anything — the decay
    /// half of [`Self::observe_unit`], exposed for the incremental-model
    /// trait's `decay_step`.
    pub fn decay_step(&mut self) {
        self.accumulated.scale(self.decay);
    }

    /// Fold one observed document's *unit-normalized* vector into the
    /// profile: one decay step, then the new document at full weight.
    pub fn observe_unit(&mut self, unit: &SparseVector) {
        self.decay_step();
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

/// An incrementally-updated bag user model over a fixed vectorizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineBagModel {
    vectorizer: BagVectorizer,
    similarity: BagSimilarity,
    profile: OnlineProfile,
}

impl OnlineBagModel {
    /// Start an empty model over a fitted vectorizer.
    ///
    /// `decay` ∈ (0, 1]; see [`OnlineProfile::new`].
    pub fn new(vectorizer: BagVectorizer, similarity: BagSimilarity, decay: f32) -> Self {
        OnlineBagModel { vectorizer, similarity, profile: OnlineProfile::new(decay) }
    }

    /// Fold one observed document (its n-gram list) into the model.
    pub fn observe<S: AsRef<str>>(&mut self, grams: &[S]) {
        let v = self.vectorizer.transform(grams).normalized();
        self.profile.observe_unit(&v);
    }

    /// Score a candidate document against the current model.
    ///
    /// The candidate is unit-normalized exactly like every observed
    /// document, so both sides of the comparison live at the same scale.
    /// Cosine is scale-invariant and never noticed, but the Jaccard-family
    /// measures are magnitude-sensitive: an unnormalized candidate would
    /// make a document's self-similarity depend on its raw norm.
    pub fn score<S: AsRef<str>>(&self, grams: &[S]) -> f64 {
        let v = self.vectorizer.transform(grams).normalized();
        self.similarity.compare(self.profile.vector(), &v)
    }

    /// Apply one forgetting step without observing anything.
    pub fn decay_step(&mut self) {
        self.profile.decay_step();
    }

    /// Number of observed documents.
    pub fn documents(&self) -> usize {
        self.profile.documents()
    }

    /// The current (unnormalized) model vector.
    pub fn model(&self) -> &SparseVector {
        self.profile.vector()
    }

    /// The similarity the model scores under.
    pub fn similarity(&self) -> BagSimilarity {
        self.similarity
    }
}

/// An incrementally-updated n-gram graph user model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineGraphModel {
    space: GraphSpace,
    similarity: GraphSimilarity,
    window: usize,
    user: NGramGraph,
}

impl OnlineGraphModel {
    /// Start an empty model. `window` is the co-occurrence window (= n).
    pub fn new(similarity: GraphSimilarity, window: usize) -> Self {
        OnlineGraphModel { space: GraphSpace::new(), similarity, window, user: NGramGraph::new() }
    }

    /// Fold one observed document into the model via the update operator.
    pub fn observe<S: AsRef<str>>(&mut self, grams: &[S]) {
        let g = self.space.graph_from_grams(grams, self.window);
        self.user.merge(&g);
    }

    /// Score a candidate document against the current model.
    pub fn score<S: AsRef<str>>(&mut self, grams: &[S]) -> f64 {
        let g = self.space.graph_from_grams(grams, self.window);
        self.similarity.compare(&self.user, &g)
    }

    /// Number of observed documents.
    pub fn documents(&self) -> usize {
        self.user.merged_docs()
    }

    /// Sorted, deduplicated surface forms of the user graph's nodes — the
    /// key set a serving window's postings are gated on. A candidate
    /// sharing no node gram with the model cannot share an edge either, so
    /// its score is exactly 0.0 and may be zero-filled without scoring.
    pub fn node_terms(&self) -> Vec<String> {
        let mut terms: Vec<&str> = Vec::new();
        for (a, b, _) in self.user.edges() {
            terms.push(self.space.gram(a));
            terms.push(self.space.gram(b));
        }
        terms.sort_unstable();
        terms.dedup();
        terms.into_iter().map(str::to_owned).collect()
    }

    /// Intern a candidate's grams exactly as [`Self::score`] does, but skip
    /// building and comparing its graph, returning the exact `0.0` the
    /// comparison would produce. The serving engine calls this for
    /// gated-out candidates so the space's interning sequence — and
    /// therefore every later score's bits — stays identical to the
    /// exhaustive path.
    pub fn intern_only<S: AsRef<str>>(&mut self, grams: &[S]) -> f64 {
        self.space.intern(grams);
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_bag::{AggregationFunction, WeightingScheme};

    fn docs() -> Vec<Vec<String>> {
        let d = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        vec![d("cats purr softly"), d("cats nap often"), d("rust code compiles")]
    }

    #[test]
    fn online_centroid_matches_batch_centroid_without_decay() {
        let train = docs();
        let vectorizer = BagVectorizer::fit(WeightingScheme::TF, train.iter());
        let mut online = OnlineBagModel::new(vectorizer.clone(), BagSimilarity::Cosine, 1.0);
        for d in &train {
            online.observe(d);
        }
        let vectors: Vec<SparseVector> = train.iter().map(|d| vectorizer.transform(d)).collect();
        let batch = AggregationFunction::Centroid.aggregate(&vectors, &[]);
        // Online accumulates the *sum* of unit vectors; the centroid divides
        // by |D| — a scale factor cosine ignores.
        let probe = vec!["cats".to_owned(), "purr".to_owned()];
        let online_score = online.score(&probe);
        let batch_score = BagSimilarity::Cosine.compare(&batch, &vectorizer.transform(&probe));
        assert!((online_score - batch_score).abs() < 1e-6);
    }

    #[test]
    fn decay_forgets_old_interests() {
        let train = docs();
        let vectorizer = BagVectorizer::fit(WeightingScheme::TF, train.iter());
        let mut fast_forget = OnlineBagModel::new(vectorizer.clone(), BagSimilarity::Cosine, 0.2);
        let mut no_forget = OnlineBagModel::new(vectorizer, BagSimilarity::Cosine, 1.0);
        // Old interest: cats. New interest: rust.
        let seq = ["cats purr softly", "cats nap often", "rust code compiles"];
        for s in seq {
            let grams: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
            fast_forget.observe(&grams);
            no_forget.observe(&grams);
        }
        let cats = vec!["cats".to_owned(), "purr".to_owned()];
        assert!(
            fast_forget.score(&cats) < no_forget.score(&cats),
            "decayed model must care less about stale interests"
        );
    }

    #[test]
    fn online_graph_tracks_observed_content() {
        let mut model = OnlineGraphModel::new(GraphSimilarity::Value, 2);
        for d in docs() {
            model.observe(&d);
        }
        assert_eq!(model.documents(), 3);
        let seen: Vec<String> = "cats purr softly".split_whitespace().map(str::to_owned).collect();
        let unseen: Vec<String> =
            "quantum flux capacitor".split_whitespace().map(str::to_owned).collect();
        assert!(model.score(&seen) > model.score(&unseen));
        assert_eq!(model.score(&unseen), 0.0);
    }

    #[test]
    fn gated_graph_scoring_matches_exhaustive_bit_for_bit() {
        // The serving engine's retrieval gate: candidates sharing no node
        // gram with the model take `intern_only` (score 0.0 without the
        // comparison). That must (a) equal the exhaustive score exactly
        // and (b) leave the interning sequence — and therefore every
        // *later* score's bits — identical to the exhaustive path.
        let mut exhaustive = OnlineGraphModel::new(GraphSimilarity::Value, 2);
        for d in docs() {
            exhaustive.observe(&d);
        }
        let mut gated = exhaustive.clone();
        let nodes = gated.node_terms();
        let unseen: Vec<String> =
            "quantum flux capacitor".split_whitespace().map(str::to_owned).collect();
        assert!(
            !unseen.iter().any(|g| nodes.binary_search(g).is_ok()),
            "probe must be outside the gate for this test to bite"
        );
        assert_eq!(gated.intern_only(&unseen).to_bits(), exhaustive.score(&unseen).to_bits());
        let seen: Vec<String> = "cats purr softly".split_whitespace().map(str::to_owned).collect();
        assert_eq!(
            gated.score(&seen).to_bits(),
            exhaustive.score(&seen).to_bits(),
            "post-gate scores must not drift: interning order diverged"
        );
    }

    #[test]
    fn generalized_jaccard_self_similarity_is_one() {
        // With the candidate normalized like the observations, one observed
        // document compared against itself is a comparison of identical
        // unit vectors — self-similarity 1 for the Jaccard family, which
        // the old unnormalized-candidate path violated.
        let vectorizer = BagVectorizer::fit(WeightingScheme::TF, docs().iter());
        let mut online = OnlineBagModel::new(vectorizer, BagSimilarity::GeneralizedJaccard, 1.0);
        let d: Vec<String> = "cats purr softly".split_whitespace().map(str::to_owned).collect();
        online.observe(&d);
        let s = online.score(&d);
        assert!((s - 1.0).abs() < 1e-6, "self-similarity must be 1, got {s}");
    }

    #[test]
    fn online_graph_converges_to_batch_on_a_static_stream() {
        let train = docs();
        let mut online = OnlineGraphModel::new(GraphSimilarity::Value, 2);
        for d in &train {
            online.observe(d);
        }
        // The batch counterpart: merge every document graph over a shared
        // space in one pass, exactly as the batch recommender builds its
        // user graphs.
        let mut space = GraphSpace::new();
        let mut batch = NGramGraph::new();
        for d in &train {
            let g = space.graph_from_grams(d, 2);
            batch.merge(&g);
        }
        for probe in ["cats purr softly", "rust code compiles", "cats nap rust"] {
            let grams: Vec<String> = probe.split_whitespace().map(str::to_owned).collect();
            let got = online.score(&grams);
            let g = space.graph_from_grams(&grams, 2);
            let want = GraphSimilarity::Value.compare(&batch, &g);
            assert!(
                (got - want).abs() < 1e-9,
                "online ({got}) and batch ({want}) scores diverge on {probe:?}"
            );
        }
    }

    #[test]
    fn empty_models_score_zero() {
        let vectorizer = BagVectorizer::fit(WeightingScheme::TF, docs().iter());
        let online = OnlineBagModel::new(vectorizer, BagSimilarity::Cosine, 1.0);
        assert_eq!(online.score(&["cats".to_owned()]), 0.0);
        assert_eq!(online.documents(), 0);
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1]")]
    fn zero_decay_is_rejected() {
        let vectorizer = BagVectorizer::fit(WeightingScheme::TF, docs().iter());
        let _ = OnlineBagModel::new(vectorizer, BagSimilarity::Cosine, 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pmr_bag::{AggregationFunction, WeightingScheme};
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
            let vectorizer = BagVectorizer::fit(WeightingScheme::TF, train.iter());
            let mut online = OnlineBagModel::new(vectorizer.clone(), BagSimilarity::Cosine, 1.0);
            for d in &train {
                online.observe(d);
            }
            let vectors: Vec<SparseVector> =
                train.iter().map(|d| vectorizer.transform(d)).collect();
            let batch = AggregationFunction::Centroid.aggregate(&vectors, &[]);
            let online_scores: Vec<f64> = probes.iter().map(|p| online.score(p)).collect();
            let batch_scores: Vec<f64> = probes
                .iter()
                .map(|p| {
                    BagSimilarity::Cosine
                        .compare(&batch, &vectorizer.transform(p).normalized())
                })
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
