//! Author-Topic Model (Rosen-Zvi, Griffiths, Steyvers & Smyth 2004).
//!
//! ATM ties topics to *authors* instead of documents: every token draws an
//! author from the document's author set and a topic from that author's
//! distribution. The paper's related work (§6) discusses it alongside LDA
//! as a user-aware alternative (Hong & Davison 2010 train both on raw and
//! pooled tweets); it is implemented here as an extension because the
//! simulated corpus carries authorship natively and an author-level topic
//! profile is itself a user model.
//!
//! For microblog posts the author set of a document is a singleton, which
//! collapses the author-sampling step: the collapsed Gibbs update becomes
//!
//! ```text
//! P(z_i = k | rest) ∝ (n_ak + α) / (n_a + Kα) · (n_kw + β) / (n_k + Vβ)
//! ```
//!
//! with `n_ak` counting tokens of author `a` in topic `k` — i.e. LDA with
//! author-level instead of document-level mixing. That equivalence is
//! exactly why the paper's *user pooling* works: UP-pooled LDA **is** the
//! single-author ATM (a property the tests pin down).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::lda::{fold_in, WordCounts};
use crate::model::{normalize, sample_discrete, TopicModel, WordTopic};

/// ATM hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AtmConfig {
    /// Number of topics `|Z|`.
    pub topics: usize,
    /// Dirichlet prior on author–topic distributions.
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Gibbs sweeps over the training corpus.
    pub iterations: usize,
    /// Fold-in sweeps per inferred document.
    pub infer_iterations: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl AtmConfig {
    /// The Steyvers–Griffiths tuning, matching the paper's LDA setup.
    pub fn paper(topics: usize, iterations: usize, seed: u64) -> Self {
        AtmConfig {
            topics,
            alpha: 50.0 / topics as f64,
            beta: 0.01,
            iterations,
            infer_iterations: 20,
            seed,
        }
    }
}

/// A trained Author-Topic model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AtmModel {
    /// `P(w | z=k)` for every word `w` and topic `k`.
    phi: WordTopic<f32>,
    /// `theta_author[a][k] = P(z=k | author a)` — the author profiles.
    theta_author: Vec<Vec<f32>>,
    alpha: f64,
    infer_iterations: usize,
}

impl AtmModel {
    /// Train on a corpus with one author id per document (dense ids; the
    /// author table is sized by the maximum id + 1).
    pub fn train(cfg: &AtmConfig, corpus: &TopicCorpus, authors: &[u32]) -> Self {
        assert_eq!(corpus.len(), authors.len(), "one author per document required");
        assert!(cfg.topics >= 1);
        let k = cfg.topics;
        let v = corpus.vocab_size().max(1);
        let num_authors = authors.iter().map(|&a| a as usize + 1).max().unwrap_or(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut n_ak = vec![vec![0u32; k]; num_authors];
        let mut n_a = vec![0u32; num_authors];
        let mut counts = WordCounts::new(v, k, cfg.beta);
        let mut z: Vec<Vec<usize>> = corpus
            .docs
            .iter()
            .zip(authors)
            .map(|(doc, &a)| {
                doc.iter()
                    .map(|&w| {
                        let t = rng.gen_range(0..k);
                        n_ak[a as usize][t] += 1;
                        n_a[a as usize] += 1;
                        counts.add(w, t);
                        t
                    })
                    .collect()
            })
            .collect();
        let mut weights = vec![0.0f64; k];
        for _ in 0..cfg.iterations {
            let _iter = pmr_obs::timer("gibbs_iter.atm");
            for ((doc, zd), &a) in corpus.docs.iter().zip(&mut z).zip(authors) {
                let na = &mut n_ak[a as usize];
                for (&w, zi) in doc.iter().zip(zd.iter_mut()) {
                    na[*zi] -= 1;
                    counts.remove(w, *zi);
                    counts.weights(w, na, cfg.alpha, &mut weights);
                    *zi = sample_discrete(&mut rng, &weights);
                    na[*zi] += 1;
                    counts.add(w, *zi);
                }
            }
        }
        let phi = counts.phi();
        let theta_author = n_ak
            .iter()
            .zip(&n_a)
            .map(|(row, &na)| {
                let denom = na as f64 + k as f64 * cfg.alpha;
                let mut th: Vec<f32> =
                    row.iter().map(|&c| ((c as f64 + cfg.alpha) / denom) as f32).collect();
                normalize(&mut th);
                th
            })
            .collect();
        AtmModel { phi, theta_author, alpha: cfg.alpha, infer_iterations: cfg.infer_iterations }
    }

    /// The topic profile of an author — directly usable as a user model.
    pub fn author_profile(&self, author: u32) -> &[f32] {
        &self.theta_author[author as usize]
    }

    /// Number of authors the model knows.
    pub fn num_authors(&self) -> usize {
        self.theta_author.len()
    }

    /// `P(w | z=k)` for every word and topic.
    pub fn phi(&self) -> &WordTopic<f32> {
        &self.phi
    }
}

impl TopicModel for AtmModel {
    fn num_topics(&self) -> usize {
        self.phi.topics()
    }

    fn infer(&self, doc: &[TermId], rng: &mut StdRng) -> Vec<f32> {
        fold_in(&self.phi, |_| self.alpha, doc, self.infer_iterations, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two authors, each devoted to one word community.
    fn corpus_with_authors() -> (TopicCorpus, Vec<u32>) {
        let mut docs = Vec::new();
        let mut authors = Vec::new();
        for i in 0..30 {
            if i % 2 == 0 {
                docs.push(vec!["cat", "dog", "pet", "cat"]);
                authors.push(0u32);
            } else {
                docs.push(vec!["rust", "code", "bug", "rust"]);
                authors.push(1u32);
            }
        }
        (TopicCorpus::from_token_docs(docs), authors)
    }

    #[test]
    fn author_profiles_separate() {
        let (corpus, authors) = corpus_with_authors();
        let cfg = AtmConfig { alpha: 0.1, ..AtmConfig::paper(2, 80, 3) };
        let model = AtmModel::train(&cfg, &corpus, &authors);
        assert_eq!(model.num_authors(), 2);
        let a0 = model.author_profile(0);
        let a1 = model.author_profile(1);
        assert_ne!(
            crate::model::argmax(a0),
            crate::model::argmax(a1),
            "authors must own different topics: {a0:?} vs {a1:?}"
        );
        assert!(a0[crate::model::argmax(a0)] > 0.8);
    }

    #[test]
    fn profiles_are_distributions() {
        let (corpus, authors) = corpus_with_authors();
        let model = AtmModel::train(&AtmConfig::paper(4, 30, 1), &corpus, &authors);
        for a in 0..model.num_authors() as u32 {
            let p = model.author_profile(a);
            assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn document_inference_matches_the_author_community() {
        let (corpus, authors) = corpus_with_authors();
        let cfg = AtmConfig { alpha: 0.1, ..AtmConfig::paper(2, 80, 3) };
        let model = AtmModel::train(&cfg, &corpus, &authors);
        let mut rng = StdRng::seed_from_u64(9);
        let pets = model.infer(&corpus.encode(&["cat", "dog"]), &mut rng);
        assert_eq!(
            crate::model::argmax(&pets),
            crate::model::argmax(model.author_profile(0)),
            "a cat-doc must land on the cat-author's topic"
        );
    }

    #[test]
    #[should_panic(expected = "one author per document")]
    fn mismatched_author_table_is_rejected() {
        let (corpus, _) = corpus_with_authors();
        let _ = AtmModel::train(&AtmConfig::paper(2, 5, 1), &corpus, &[0, 1]);
    }

    #[test]
    fn training_is_deterministic() {
        let (corpus, authors) = corpus_with_authors();
        let a = AtmModel::train(&AtmConfig::paper(3, 20, 5), &corpus, &authors);
        let b = AtmModel::train(&AtmConfig::paper(3, 20, 5), &corpus, &authors);
        assert_eq!(a.author_profile(0), b.author_profile(0));
    }
}
