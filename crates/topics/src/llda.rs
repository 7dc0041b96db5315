//! Labeled LDA (Ramage et al. 2009) with constrained collapsed Gibbs
//! sampling.
//!
//! Each training document carries an observed label set `Λ_d`; its tokens
//! may only be assigned topics from `Λ_d` plus the shared latent topics
//! ("Topic 1" … "Topic |Z|", following Ramage, Dumais & Liebling 2010 and
//! §4 of the paper). Inference for unseen documents is unconstrained —
//! test tweets have no observed labels, so the model behaves like LDA over
//! the full label+latent topic space.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::lda::{fold_in, WordCounts};
use crate::model::{sample_discrete, TopicModel, WordTopic};

/// Labeled-LDA hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LldaConfig {
    /// Number of *latent* topics shared by all documents, in addition to
    /// the observed labels.
    pub latent_topics: usize,
    /// Dirichlet prior on document–topic distributions.
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Gibbs sweeps over the training corpus.
    pub iterations: usize,
    /// Fold-in Gibbs sweeps per inferred document.
    pub infer_iterations: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl LldaConfig {
    /// The paper's tuning: α = 50/|Z| over the latent topics, β = 0.01.
    pub fn paper(latent_topics: usize, iterations: usize, seed: u64) -> Self {
        LldaConfig {
            latent_topics,
            alpha: 50.0 / latent_topics.max(1) as f64,
            beta: 0.01,
            iterations,
            infer_iterations: 20,
            seed,
        }
    }
}

/// A trained Labeled-LDA model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LldaModel {
    /// Topic–word distributions over labels ++ latent topics.
    phi: WordTopic<f32>,
    /// Number of observed label topics (the first `num_labels` topics of φ).
    num_labels: usize,
    alpha: f64,
    infer_iterations: usize,
    theta_train: Vec<Vec<f32>>,
}

impl LldaModel {
    /// Train on a corpus whose `labels` field is populated (an empty label
    /// list for a document means "latent topics only").
    ///
    /// The total topic space is `max_label_id + 1` label topics followed by
    /// `latent_topics` latent ones.
    pub fn train(cfg: &LldaConfig, corpus: &TopicCorpus) -> Self {
        let num_labels = corpus
            .labels
            .iter()
            .flat_map(|ls| ls.iter())
            .map(|&l| l as usize + 1)
            .max()
            .unwrap_or(0);
        let k = num_labels + cfg.latent_topics.max(1);
        let v = corpus.vocab_size().max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Allowed topics per document: its labels plus every latent topic.
        let allowed: Vec<Vec<usize>> = (0..corpus.len())
            .map(|d| {
                let mut a: Vec<usize> = corpus
                    .labels
                    .get(d)
                    .map(|ls| ls.iter().map(|&l| l as usize).collect())
                    .unwrap_or_default();
                a.extend(num_labels..k);
                a
            })
            .collect();
        let mut n_dk = vec![vec![0u32; k]; corpus.len()];
        let mut counts = WordCounts::new(v, k, cfg.beta);
        let mut z: Vec<Vec<usize>> = corpus
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                doc.iter()
                    .map(|&w| {
                        let t = allowed[d][rng.gen_range(0..allowed[d].len())];
                        n_dk[d][t] += 1;
                        counts.add(w, t);
                        t
                    })
                    .collect()
            })
            .collect();
        let mut weights = vec![0.0f64; allowed.iter().map(Vec::len).max().unwrap_or(0)];
        for _ in 0..cfg.iterations {
            let _iter = pmr_obs::timer("gibbs_iter.llda");
            for (((doc, zd), nd), a) in corpus.docs.iter().zip(&mut z).zip(&mut n_dk).zip(&allowed)
            {
                let weights = &mut weights[..a.len()];
                for (&w, zi) in doc.iter().zip(zd.iter_mut()) {
                    nd[*zi] -= 1;
                    counts.remove(w, *zi);
                    counts.weights_in(w, nd, a, cfg.alpha, weights);
                    *zi = a[sample_discrete(&mut rng, weights)];
                    nd[*zi] += 1;
                    counts.add(w, *zi);
                }
            }
        }
        let phi = counts.phi();
        let theta_train = (0..corpus.len())
            .map(|d| crate::lda::estimate_theta(&n_dk[d], corpus.docs[d].len(), cfg.alpha))
            .collect();
        LldaModel {
            phi,
            num_labels,
            alpha: cfg.alpha,
            infer_iterations: cfg.infer_iterations,
            theta_train,
        }
    }

    /// Number of observed label topics.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// `P(w | z=k)` for every word and topic (labels first, then the
    /// latent topics).
    pub fn phi(&self) -> &WordTopic<f32> {
        &self.phi
    }

    /// The topic distribution of training document `d`.
    pub fn theta_train(&self, d: usize) -> &[f32] {
        &self.theta_train[d]
    }
}

impl TopicModel for LldaModel {
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

    /// Two word communities with perfectly informative labels.
    fn labeled_corpus() -> TopicCorpus {
        let mut docs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            if i % 2 == 0 {
                docs.push(vec!["cat", "dog", "pet", "cat"]);
                labels.push(vec![0u32]);
            } else {
                docs.push(vec!["rust", "code", "bug", "rust"]);
                labels.push(vec![1u32]);
            }
        }
        let mut c = TopicCorpus::from_token_docs(docs);
        c.labels = labels;
        c
    }

    #[test]
    fn label_topics_absorb_their_vocabulary() {
        let corpus = labeled_corpus();
        let cfg = LldaConfig::paper(1, 80, 3);
        let model = LldaModel::train(&cfg, &corpus);
        assert_eq!(model.num_labels(), 2);
        assert_eq!(model.num_topics(), 3); // 2 labels + 1 latent
                                           // θ of a label-0 training doc must prefer topic 0.
        let t = model.theta_train(0);
        assert!(t[0] > t[1], "label-0 doc: {t:?}");
        let t = model.theta_train(1);
        assert!(t[1] > t[0], "label-1 doc: {t:?}");
    }

    #[test]
    fn inference_discriminates_clusters() {
        let corpus = labeled_corpus();
        let model = LldaModel::train(&LldaConfig::paper(1, 80, 3), &corpus);
        let mut rng = StdRng::seed_from_u64(5);
        let pet = model.infer(&corpus.encode(&["cat", "pet", "dog"]), &mut rng);
        let code = model.infer(&corpus.encode(&["rust", "bug", "code"]), &mut rng);
        assert!(pet[0] > pet[1], "{pet:?}");
        assert!(code[1] > code[0], "{code:?}");
    }

    #[test]
    fn corpus_without_labels_degenerates_to_lda() {
        let mut corpus = labeled_corpus();
        corpus.labels.clear();
        let model = LldaModel::train(&LldaConfig::paper(2, 40, 3), &corpus);
        assert_eq!(model.num_labels(), 0);
        assert_eq!(model.num_topics(), 2);
    }

    #[test]
    fn training_docs_respect_label_constraint() {
        let corpus = labeled_corpus();
        let model = LldaModel::train(&LldaConfig::paper(1, 80, 3), &corpus);
        // A label-0 doc may only put mass on topic 0 and the latent topic 2;
        // topic 1 (the other label) receives only the α prior share.
        let t = model.theta_train(0);
        assert!(t[1] < 0.35, "forbidden label topic got mass: {t:?}");
    }
}
