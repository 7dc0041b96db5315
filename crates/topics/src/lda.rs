//! Latent Dirichlet Allocation with collapsed Gibbs sampling.
//!
//! Blei, Ng & Jordan 2003; the collapsed Gibbs sampler follows Griffiths &
//! Steyvers 2004: the topic of token `i` in document `d` is resampled from
//!
//! ```text
//! P(z_i = k | rest) ∝ (n_dk + α) · (n_kw + β) / (n_k + V·β)
//! ```
//!
//! The paper estimates all topic models with Gibbs sampling (§3.2) and tunes
//! α = 50/|Z|, β = 0.01 per Steyvers & Griffiths 2007 (Table 4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::model::{fold_in_sweep, normalize, sample_discrete, uniform, TopicModel, WordTopic};

/// LDA hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of latent topics `|Z|`.
    pub topics: usize,
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

impl LdaConfig {
    /// The paper's tuning for a given topic count: α = 50/|Z|, β = 0.01.
    pub fn paper(topics: usize, iterations: usize, seed: u64) -> Self {
        LdaConfig {
            topics,
            alpha: 50.0 / topics as f64,
            beta: 0.01,
            iterations,
            infer_iterations: 20,
            seed,
        }
    }
}

impl Default for LdaConfig {
    fn default() -> Self {
        LdaConfig::paper(50, 200, 42)
    }
}

/// A trained LDA model: topic–word distributions plus the θ prior.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LdaModel {
    /// `P(w | z=k)` for every word `w` and topic `k`.
    phi: WordTopic<f32>,
    /// Per-topic prior mass used at inference (`α` for every topic).
    alpha: f64,
    /// Fold-in sweeps at inference.
    infer_iterations: usize,
    /// Per-document topic distributions of the *training* documents
    /// (available without re-inference).
    theta_train: Vec<Vec<f32>>,
}

impl LdaModel {
    /// Train with collapsed Gibbs sampling.
    pub fn train(cfg: &LdaConfig, corpus: &TopicCorpus) -> Self {
        assert!(cfg.topics >= 1, "at least one topic required");
        let k = cfg.topics;
        let v = corpus.vocab_size().max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut n_dk = vec![vec![0u32; k]; corpus.len()];
        let mut counts = WordCounts::new(v, k, cfg.beta);
        // Random initialization.
        let mut z: Vec<Vec<usize>> = corpus
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                doc.iter()
                    .map(|&w| {
                        let t = rng.gen_range(0..k);
                        n_dk[d][t] += 1;
                        counts.add(w, t);
                        t
                    })
                    .collect()
            })
            .collect();
        let mut weights = vec![0.0f64; k];
        for _ in 0..cfg.iterations {
            let _iter = pmr_obs::timer("gibbs_iter.lda");
            for ((doc, zd), nd) in corpus.docs.iter().zip(&mut z).zip(&mut n_dk) {
                for (&w, zi) in doc.iter().zip(zd.iter_mut()) {
                    nd[*zi] -= 1;
                    counts.remove(w, *zi);
                    counts.weights(w, nd, cfg.alpha, &mut weights);
                    *zi = sample_discrete(&mut rng, &weights);
                    nd[*zi] += 1;
                    counts.add(w, *zi);
                }
            }
        }
        let phi = counts.phi();
        let theta_train = corpus
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| estimate_theta(&n_dk[d], doc.len(), cfg.alpha))
            .collect();
        LdaModel { phi, alpha: cfg.alpha, infer_iterations: cfg.infer_iterations, theta_train }
    }

    /// The topic distribution of training document `d` (no re-inference).
    pub fn theta_train(&self, d: usize) -> &[f32] {
        &self.theta_train[d]
    }

    /// `P(w | z=k)` for every word and topic.
    pub fn phi(&self) -> &WordTopic<f32> {
        &self.phi
    }
}

/// The topic–word side of the LDA-family samplers (LDA and Labeled LDA):
/// word-major counts `n_wk`, topic totals `n_k` and each topic's
/// denominator `n_k + Vβ`. A draw changes the denominator of its old and
/// new topic only, so only those two are recomputed.
#[derive(Debug)]
pub(crate) struct WordCounts {
    n_wk: WordTopic<u32>,
    n_k: Vec<u32>,
    denom: Vec<f64>,
    beta: f64,
    vb: f64,
}

impl WordCounts {
    /// Empty counts over `words` words and `topics` topics.
    pub(crate) fn new(words: usize, topics: usize, beta: f64) -> Self {
        let vb = words as f64 * beta;
        WordCounts {
            n_wk: WordTopic::new(words, topics),
            n_k: vec![0; topics],
            denom: vec![vb; topics],
            beta,
            vb,
        }
    }

    /// Count one token of word `w` in topic `t`.
    pub(crate) fn add(&mut self, w: TermId, t: usize) {
        self.n_wk.row_mut(w as usize)[t] += 1;
        self.n_k[t] += 1;
        self.denom[t] = self.n_k[t] as f64 + self.vb;
    }

    /// Uncount one token of word `w` in topic `t`.
    pub(crate) fn remove(&mut self, w: TermId, t: usize) {
        self.n_wk.row_mut(w as usize)[t] -= 1;
        self.n_k[t] -= 1;
        self.denom[t] = self.n_k[t] as f64 + self.vb;
    }

    /// The collapsed Gibbs weight of word `w` under every topic `t`,
    /// `(mix_t + α) · (n_wt + β) / (n_t + Vβ)`, into `out`. `mix` holds the
    /// document's topic counts.
    pub(crate) fn weights(&self, w: TermId, mix: &[u32], alpha: f64, out: &mut [f64]) {
        let row = self.n_wk.row(w as usize);
        for (((wt, &c_m), &c_w), &den) in out.iter_mut().zip(mix).zip(row).zip(&self.denom) {
            *wt = (c_m as f64 + alpha) * (c_w as f64 + self.beta) / den;
        }
    }

    /// The same weights for `topics` only, in that order (Labeled LDA's
    /// allowed topics).
    pub(crate) fn weights_in(
        &self,
        w: TermId,
        mix: &[u32],
        topics: &[usize],
        alpha: f64,
        out: &mut [f64],
    ) {
        let row = self.n_wk.row(w as usize);
        for (wt, &t) in out.iter_mut().zip(topics) {
            *wt = (mix[t] as f64 + alpha) * (row[t] as f64 + self.beta) / self.denom[t];
        }
    }

    /// The smoothed φ of these counts.
    pub(crate) fn phi(&self) -> WordTopic<f32> {
        estimate_phi(&self.n_wk, &self.n_k, self.beta)
    }
}

/// Smoothed maximum-likelihood estimate of φ from word-major Gibbs counts:
/// `φ[w][k] = (n_wk + β) / (n_k + Vβ)`, with `n_k` the tokens counted in
/// topic `k`.
pub(crate) fn estimate_phi(n_wk: &WordTopic<u32>, n_k: &[u32], beta: f64) -> WordTopic<f32> {
    let v = n_wk.words();
    let denom: Vec<f64> = n_k.iter().map(|&nk| nk as f64 + v as f64 * beta).collect();
    let mut phi = WordTopic::new(v, n_wk.topics());
    for w in 0..v {
        for ((p, &c), &den) in phi.row_mut(w).iter_mut().zip(n_wk.row(w)).zip(&denom) {
            *p = ((c as f64 + beta) / den) as f32;
        }
    }
    phi
}

/// Smoothed estimate of θ from per-document topic counts.
pub(crate) fn estimate_theta(n_dk: &[u32], doc_len: usize, alpha: f64) -> Vec<f32> {
    let k = n_dk.len();
    let denom = doc_len as f64 + k as f64 * alpha;
    let mut theta: Vec<f32> = n_dk.iter().map(|&c| ((c as f64 + alpha) / denom) as f32).collect();
    normalize(&mut theta);
    theta
}

/// Shared fold-in Gibbs inference over a fixed φ: used by LDA, LLDA and
/// HDP document inference. `alpha(t)` is topic `t`'s prior mass.
pub(crate) fn fold_in(
    phi: &WordTopic<f32>,
    alpha: impl Fn(usize) -> f64,
    doc: &[TermId],
    iterations: usize,
    rng: &mut StdRng,
) -> Vec<f32> {
    let k = phi.topics();
    if doc.is_empty() || k == 0 {
        return uniform(k);
    }
    let mut n_dk = vec![0u32; k];
    let mut z: Vec<usize> = doc
        .iter()
        .map(|_| {
            let t = rng.gen_range(0..k);
            n_dk[t] += 1;
            t
        })
        .collect();
    let mut weights = vec![0.0f64; k];
    for _ in 0..iterations.max(1) {
        fold_in_sweep(phi, &alpha, doc, &mut z, &mut n_dk, &mut weights, rng);
    }
    let alpha_sum: f64 = (0..k).map(&alpha).sum();
    let denom = doc.len() as f64 + alpha_sum;
    let mut theta: Vec<f32> =
        n_dk.iter().enumerate().map(|(t, &c)| ((c as f64 + alpha(t)) / denom) as f32).collect();
    normalize(&mut theta);
    theta
}

impl TopicModel for LdaModel {
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

    /// A corpus with two cleanly separated word communities.
    pub(crate) fn two_cluster_corpus() -> TopicCorpus {
        let mut docs = Vec::new();
        for i in 0..30 {
            if i % 2 == 0 {
                docs.push(vec!["cat", "dog", "pet", "vet", "cat", "dog"]);
            } else {
                docs.push(vec!["rust", "code", "bug", "test", "rust", "code"]);
            }
        }
        TopicCorpus::from_token_docs(docs)
    }

    #[test]
    fn recovers_two_topics() {
        let corpus = two_cluster_corpus();
        // A weak α: the paper's 50/|Z| heuristic is calibrated for large
        // corpora and would swamp a 3-token test document's θ.
        let cfg = LdaConfig { alpha: 0.1, ..LdaConfig::paper(2, 100, 7) };
        let model = LdaModel::train(&cfg, &corpus);
        let mut rng = StdRng::seed_from_u64(9);
        let pet = model.infer(&corpus.encode(&["cat", "dog", "pet"]), &mut rng);
        let code = model.infer(&corpus.encode(&["rust", "code", "bug"]), &mut rng);
        let pet_top = crate::model::argmax(&pet);
        let code_top = crate::model::argmax(&code);
        assert_ne!(pet_top, code_top, "clusters must land in different topics");
        assert!(pet[pet_top] > 0.7, "confident assignment expected: {pet:?}");
        assert!(code[code_top] > 0.7, "confident assignment expected: {code:?}");
    }

    #[test]
    fn theta_train_matches_inference_cluster() {
        let corpus = two_cluster_corpus();
        let model = LdaModel::train(&LdaConfig::paper(2, 100, 7), &corpus);
        // Documents 0 and 2 share a cluster; 0 and 1 do not.
        let t0 = model.theta_train(0);
        let t1 = model.theta_train(1);
        let t2 = model.theta_train(2);
        assert_eq!(crate::model::argmax(t0), crate::model::argmax(t2));
        assert_ne!(crate::model::argmax(t0), crate::model::argmax(t1));
    }

    #[test]
    fn inferred_distributions_are_normalized() {
        let corpus = two_cluster_corpus();
        let model = LdaModel::train(&LdaConfig::paper(4, 50, 1), &corpus);
        let mut rng = StdRng::seed_from_u64(2);
        let theta = model.infer(&corpus.docs[0], &mut rng);
        assert_eq!(theta.len(), 4);
        assert!((theta.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(theta.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn empty_document_infers_uniform() {
        let corpus = two_cluster_corpus();
        let model = LdaModel::train(&LdaConfig::paper(3, 20, 1), &corpus);
        let mut rng = StdRng::seed_from_u64(2);
        let theta = model.infer(&[], &mut rng);
        assert!(theta.iter().all(|&p| (p - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn phi_rows_are_distributions() {
        let corpus = two_cluster_corpus();
        let model = LdaModel::train(&LdaConfig::paper(3, 20, 1), &corpus);
        let phi = model.phi();
        for t in 0..phi.topics() {
            let s: f32 = phi.topic(t).sum();
            assert!((s - 1.0).abs() < 1e-3, "phi row sums to {s}");
        }
    }

    /// The cached-denominator kernel computes each weight with the operands
    /// and the order of the topic-major expression it replaced,
    /// `(n_dk + α) * (n_kw + β) / (n_k + Vβ)`, bit for bit.
    #[test]
    fn weights_match_the_topic_major_expression_bit_for_bit() {
        let (v, k, alpha, beta) = (7usize, 5usize, 0.37, 0.013);
        let vb = v as f64 * beta;
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = WordCounts::new(v, k, beta);
        let mut n_kw = vec![vec![0u32; v]; k];
        let mut n_k = vec![0u32; k];
        let topics: Vec<usize> = (0..k).rev().step_by(2).collect();
        let mut out = vec![0.0f64; k];
        for step in 0..600 {
            let (w, t) = (rng.gen_range(0..v), rng.gen_range(0..k));
            if step % 3 == 2 && n_kw[t][w] > 0 {
                counts.remove(w as TermId, t);
                n_kw[t][w] -= 1;
                n_k[t] -= 1;
            } else {
                counts.add(w as TermId, t);
                n_kw[t][w] += 1;
                n_k[t] += 1;
            }
            let mix: Vec<u32> = (0..k).map(|_| rng.gen_range(0..40)).collect();
            let probe = rng.gen_range(0..v);
            let expected = |t: usize| {
                (mix[t] as f64 + alpha) * (n_kw[t][probe] as f64 + beta) / (n_k[t] as f64 + vb)
            };
            counts.weights(probe as TermId, &mix, alpha, &mut out);
            for (t, &wt) in out.iter().enumerate() {
                assert_eq!(wt.to_bits(), expected(t).to_bits(), "step {step}, topic {t}");
            }
            counts.weights_in(probe as TermId, &mix, &topics, alpha, &mut out);
            for (&wt, &t) in out.iter().zip(&topics) {
                assert_eq!(wt.to_bits(), expected(t).to_bits(), "step {step}, topic {t}");
            }
        }
    }

    #[test]
    fn training_is_deterministic_in_the_seed() {
        let corpus = two_cluster_corpus();
        let a = LdaModel::train(&LdaConfig::paper(2, 30, 5), &corpus);
        let b = LdaModel::train(&LdaConfig::paper(2, 30, 5), &corpus);
        assert_eq!(a.phi(), b.phi());
    }
}
