//! Dirichlet Multinomial Mixture model (Nigam et al. 2000; the GSDMM
//! sampler of Yin & Wang 2014).
//!
//! DMM assigns **one** topic to an entire document — a strong assumption
//! that often fits tweets. The paper cites it (§3.2, "Other models") as
//! *incompatible* with ranking-based recommendation: "all tweets with the
//! same inferred topic are equally similar with the user model", producing
//! mass ties in the ranking. It is implemented here so that this exclusion
//! argument is executable — see the `ranking_ties` test — and because a
//! one-topic-per-tweet clusterer is independently useful.
//!
//! The collapsed Gibbs sampler reassigns whole documents:
//!
//! ```text
//! P(z_d = k | rest) ∝ (m_k + α) ·
//!     Π_w Π_{j<c_dw} (n_kw + β + j) / Π_{i<N_d} (n_k + Vβ + i)
//! ```
//!
//! where `m_k` counts documents in cluster `k`, `n_kw` word counts and
//! `n_k` total tokens of cluster `k` (document `d` excluded everywhere).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::lda::estimate_phi;
use crate::model::{normalize, sample_discrete, uniform, TopicModel, WordTopic};

/// DMM hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DmmConfig {
    /// Number of mixture components (an upper bound; GSDMM empties
    /// superfluous clusters).
    pub topics: usize,
    /// Dirichlet prior on the cluster proportions.
    pub alpha: f64,
    /// Dirichlet prior on cluster–word distributions.
    pub beta: f64,
    /// Gibbs sweeps over the documents.
    pub iterations: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl Default for DmmConfig {
    fn default() -> Self {
        DmmConfig { topics: 40, alpha: 0.1, beta: 0.1, iterations: 30, seed: 42 }
    }
}

/// A trained DMM model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DmmModel {
    /// `P(w | z=k)` for every word `w` and cluster `k`.
    phi: WordTopic<f32>,
    /// Cluster proportions.
    weights: Vec<f32>,
    /// Hard cluster assignment of each training document.
    assignments: Vec<usize>,
}

impl DmmModel {
    /// Train with the GSDMM collapsed Gibbs sampler.
    pub fn train(cfg: &DmmConfig, corpus: &TopicCorpus) -> Self {
        assert!(cfg.topics >= 1);
        let k = cfg.topics;
        let v = corpus.vocab_size().max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut m_k = vec![0u32; k];
        let mut n_wk = WordTopic::<u32>::new(v, k);
        let mut n_k = vec![0u32; k];
        let mut z: Vec<usize> = corpus
            .docs
            .iter()
            .map(|doc| {
                let t = rng.gen_range(0..k);
                m_k[t] += 1;
                for &w in doc {
                    n_wk.row_mut(w as usize)[t] += 1;
                }
                n_k[t] += doc.len() as u32;
                t
            })
            .collect();
        let vb = v as f64 * cfg.beta;
        for _ in 0..cfg.iterations {
            let _iter = pmr_obs::timer("gibbs_iter.dmm");
            for (d, doc) in corpus.docs.iter().enumerate() {
                let old = z[d];
                m_k[old] -= 1;
                for &w in doc {
                    n_wk.row_mut(w as usize)[old] -= 1;
                }
                n_k[old] -= doc.len() as u32;
                // Per-document word counts.
                let mut counts: std::collections::HashMap<TermId, u32> =
                    std::collections::HashMap::new();
                for &w in doc {
                    *counts.entry(w).or_insert(0) += 1;
                }
                // Log-space cluster scores, reading one count row per word.
                // Each cluster still sums ln(m_k + α), then every (word,
                // repeat) term, then every position term, in that order.
                let mut scores: Vec<f64> =
                    m_k.iter().map(|&m| (m as f64 + cfg.alpha).ln()).collect();
                for (&w, &c) in &counts {
                    for (s, &n) in scores.iter_mut().zip(n_wk.row(w as usize)) {
                        for j in 0..c {
                            *s += (n as f64 + cfg.beta + j as f64).ln();
                        }
                    }
                }
                for (s, &nk) in scores.iter_mut().zip(&n_k) {
                    for i in 0..doc.len() {
                        *s -= (nk as f64 + vb + i as f64).ln();
                    }
                }
                let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let weights: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
                let new = sample_discrete(&mut rng, &weights);
                z[d] = new;
                m_k[new] += 1;
                for &w in doc {
                    n_wk.row_mut(w as usize)[new] += 1;
                }
                n_k[new] += doc.len() as u32;
            }
        }
        let phi = estimate_phi(&n_wk, &n_k, cfg.beta);
        let total_docs: f64 = m_k.iter().map(|&c| c as f64).sum();
        let mut weights: Vec<f32> = m_k
            .iter()
            .map(|&c| ((c as f64 + cfg.alpha) / (total_docs + k as f64 * cfg.alpha)) as f32)
            .collect();
        normalize(&mut weights);
        DmmModel { phi, weights, assignments: z }
    }

    /// Number of clusters actually populated after training.
    pub fn populated_clusters(&self) -> usize {
        let mut seen: Vec<bool> = vec![false; self.phi.topics()];
        for &a in &self.assignments {
            seen[a] = true;
        }
        seen.into_iter().filter(|&s| s).count()
    }

    /// The hard cluster of training document `d`.
    pub fn assignment(&self, d: usize) -> usize {
        self.assignments[d]
    }

    /// `P(w | z=k)` for every word and cluster.
    pub fn phi(&self) -> &WordTopic<f32> {
        &self.phi
    }

    /// The MAP cluster of an unseen document — a *hard* assignment, which
    /// is exactly what breaks ranking-based recommendation.
    pub fn classify(&self, doc: &[TermId]) -> usize {
        let mut scores: Vec<f64> =
            self.weights.iter().map(|&p| (p.max(f32::MIN_POSITIVE) as f64).ln()).collect();
        for &w in doc {
            // An unknown word scores every cluster with the same tiny mass.
            let row = self.phi.get(w as usize);
            for (t, s) in scores.iter_mut().enumerate() {
                let p = row.map_or(f32::MIN_POSITIVE, |r| r[t]);
                *s += (p as f64).max(f64::MIN_POSITIVE).ln();
            }
        }
        scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0)
    }
}

impl TopicModel for DmmModel {
    fn num_topics(&self) -> usize {
        self.phi.topics()
    }

    /// Returns the one-hot distribution of the MAP cluster — faithful to
    /// DMM's single-topic assumption. Comparing such vectors with cosine
    /// yields only the values {0, 1}: the mass-tie pathology of §3.2.
    fn infer(&self, doc: &[TermId], _rng: &mut StdRng) -> Vec<f32> {
        let k = self.num_topics();
        if doc.is_empty() {
            return uniform(k);
        }
        let mut out = vec![0.0f32; k];
        out[self.classify(doc)] = 1.0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_corpus() -> TopicCorpus {
        let mut docs = Vec::new();
        for i in 0..40 {
            if i % 2 == 0 {
                docs.push(vec!["cat", "dog", "pet"]);
            } else {
                docs.push(vec!["rust", "code", "bug"]);
            }
        }
        TopicCorpus::from_token_docs(docs)
    }

    #[test]
    fn clusters_separate_the_corpus() {
        let corpus = two_cluster_corpus();
        let cfg = DmmConfig { topics: 8, iterations: 30, ..DmmConfig::default() };
        let model = DmmModel::train(&cfg, &corpus);
        // GSDMM should collapse to roughly the true number of clusters.
        assert!(model.populated_clusters() <= 4, "{} clusters", model.populated_clusters());
        // All even (cat) docs share a cluster, distinct from odd (rust) docs.
        let even = model.assignment(0);
        let odd = model.assignment(1);
        assert_ne!(even, odd);
        for d in (0..40).step_by(2) {
            assert_eq!(model.assignment(d), even);
        }
    }

    #[test]
    fn classify_matches_training_clusters() {
        let corpus = two_cluster_corpus();
        let model = DmmModel::train(&DmmConfig { topics: 8, ..DmmConfig::default() }, &corpus);
        let cat = model.classify(&corpus.encode(&["cat", "pet"]));
        let rust = model.classify(&corpus.encode(&["rust", "bug"]));
        assert_eq!(cat, model.assignment(0));
        assert_eq!(rust, model.assignment(1));
    }

    /// The paper's exclusion argument (§3.2): hard assignments yield mass
    /// ties when used for ranking.
    #[test]
    fn ranking_ties() {
        let corpus = two_cluster_corpus();
        let model = DmmModel::train(&DmmConfig { topics: 8, ..DmmConfig::default() }, &corpus);
        let mut rng = StdRng::seed_from_u64(1);
        // Score several same-cluster documents against a "user model" (the
        // one-hot of the cat cluster): all scores identical.
        let user = model.infer(&corpus.encode(&["cat", "dog"]), &mut rng);
        let mut score = |tokens: &[&str]| -> f32 {
            let th = model.infer(&corpus.encode(tokens), &mut rng);
            user.iter().zip(&th).map(|(a, b)| a * b).sum()
        };
        let s1 = score(&["cat", "pet"]);
        let s2 = score(&["dog", "pet", "cat"]);
        let s3 = score(&["cat"]);
        assert_eq!(s1, s2, "same-cluster docs tie");
        assert_eq!(s2, s3, "same-cluster docs tie regardless of content detail");
        assert!(score(&["rust", "code"]) < s1, "cross-cluster docs score 0");
    }

    #[test]
    fn empty_doc_is_uniform() {
        let corpus = two_cluster_corpus();
        let model = DmmModel::train(&DmmConfig::default(), &corpus);
        let mut rng = StdRng::seed_from_u64(1);
        let th = model.infer(&[], &mut rng);
        assert!((th.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(th.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = two_cluster_corpus();
        let a = DmmModel::train(&DmmConfig::default(), &corpus);
        let b = DmmModel::train(&DmmConfig::default(), &corpus);
        assert_eq!(a.assignments, b.assignments);
    }
}
