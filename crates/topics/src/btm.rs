//! Biterm Topic Model (Yan, Guo, Lan & Cheng 2013; Cheng et al. 2014).
//!
//! BTM sidesteps short-text sparsity (challenge C1) by modeling the
//! generation of *biterms* — unordered word pairs co-occurring within a
//! window — over the whole corpus instead of per-document word generation.
//! A single corpus-level topic distribution θ is drawn from `Dir(α)`, each
//! biterm picks a topic from θ and both its words from that topic's `φ_z`.
//!
//! Document distributions are not part of the generative process; they are
//! recovered as `P(z|d) = Σ_b P(z|b) · P(b|d)` with `P(b|d)` the empirical
//! biterm distribution of the document and `P(z|b) ∝ θ_z φ_z,w1 φ_z,w2`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::lda::estimate_phi;
use crate::model::{normalize, sample_discrete, uniform, TopicModel, WordTopic};

/// BTM hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BtmConfig {
    /// Number of topics `|Z|`.
    pub topics: usize,
    /// Dirichlet prior on the corpus topic distribution.
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Gibbs sweeps over the biterm set.
    pub iterations: usize,
    /// Context window `r`: maximum token distance within a document for a
    /// biterm. The paper uses the tweet length for individual tweets and
    /// r = 30 for pooled pseudo-documents.
    pub window: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl BtmConfig {
    /// The paper's tuning: α = 50/|Z|, β = 0.01, r = 30, 1000 iterations.
    pub fn paper(topics: usize, iterations: usize, seed: u64) -> Self {
        BtmConfig { topics, alpha: 50.0 / topics as f64, beta: 0.01, iterations, window: 30, seed }
    }
}

/// A trained BTM model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BtmModel {
    /// `P(w | z=k)` for every word `w` and topic `k`.
    phi: WordTopic<f32>,
    /// Corpus-level topic distribution θ.
    theta: Vec<f32>,
    /// Window used for document-side biterm extraction.
    window: usize,
}

/// Enumerate the biterms of a document: unordered pairs of tokens at
/// distance ≤ `window`. Pairs of the same position are excluded; pairs of
/// equal words at different positions are kept (they are informative
/// co-occurrences).
pub fn biterms(doc: &[TermId], window: usize) -> Vec<(TermId, TermId)> {
    let mut out = Vec::new();
    for i in 0..doc.len() {
        for j in (i + 1)..doc.len().min(i + window + 1) {
            let (a, b) = if doc[i] <= doc[j] { (doc[i], doc[j]) } else { (doc[j], doc[i]) };
            out.push((a, b));
        }
    }
    out
}

impl BtmModel {
    /// Train with collapsed Gibbs sampling over the corpus biterm set.
    pub fn train(cfg: &BtmConfig, corpus: &TopicCorpus) -> Self {
        assert!(cfg.topics >= 1);
        let k = cfg.topics;
        let v = corpus.vocab_size().max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let all: Vec<(TermId, TermId)> =
            corpus.docs.iter().flat_map(|d| biterms(d, cfg.window)).collect();
        let mut counts = BitermCounts::new(v, k, cfg.alpha, cfg.beta);
        let mut z: Vec<usize> = all
            .iter()
            .map(|&b| {
                let t = rng.gen_range(0..k);
                counts.add(b, t);
                t
            })
            .collect();
        let mut weights = vec![0.0f64; k];
        for _ in 0..cfg.iterations {
            let _iter = pmr_obs::timer("gibbs_iter.btm");
            for (&b, zb) in all.iter().zip(z.iter_mut()) {
                counts.remove(b, *zb);
                counts.weights(b, &mut weights);
                *zb = sample_discrete(&mut rng, &weights);
                counts.add(b, *zb);
            }
        }
        let total_b = all.len() as f64;
        let mut theta: Vec<f32> = counts
            .n_z
            .iter()
            .map(|&c| ((c as f64 + cfg.alpha) / (total_b + k as f64 * cfg.alpha)) as f32)
            .collect();
        normalize(&mut theta);
        BtmModel { phi: counts.phi(), theta, window: cfg.window }
    }

    /// The corpus-level topic distribution θ.
    pub fn theta(&self) -> &[f32] {
        &self.theta
    }

    /// `P(w | z=k)` for every word and topic.
    pub fn phi(&self) -> &WordTopic<f32> {
        &self.phi
    }
}

/// The topic–word side of the BTM sampler: word-major counts `n_wz` (a
/// biterm counts both its words in its topic), biterms per topic `n_z`,
/// and the two factors of a weight that depend on `n_z` alone, `n_z + α`
/// and `(2n_z + Vβ)(2n_z + 1 + Vβ)`. A draw changes those for its old and
/// new topic only, so only those two are recomputed.
#[derive(Debug)]
struct BitermCounts {
    n_wz: WordTopic<u32>,
    n_z: Vec<u32>,
    prior: Vec<f64>,
    denom: Vec<f64>,
    alpha: f64,
    beta: f64,
    vb: f64,
}

impl BitermCounts {
    fn new(words: usize, topics: usize, alpha: f64, beta: f64) -> Self {
        let mut counts = BitermCounts {
            n_wz: WordTopic::new(words, topics),
            n_z: vec![0; topics],
            prior: vec![0.0; topics],
            denom: vec![0.0; topics],
            alpha,
            beta,
            vb: words as f64 * beta,
        };
        (0..topics).for_each(|t| counts.refresh(t));
        counts
    }

    fn refresh(&mut self, t: usize) {
        let nz = self.n_z[t] as f64;
        self.prior[t] = nz + self.alpha;
        self.denom[t] = (2.0 * nz + self.vb) * (2.0 * nz + 1.0 + self.vb);
    }

    fn add(&mut self, (w1, w2): (TermId, TermId), t: usize) {
        self.n_z[t] += 1;
        self.n_wz.row_mut(w1 as usize)[t] += 1;
        self.n_wz.row_mut(w2 as usize)[t] += 1;
        self.refresh(t);
    }

    fn remove(&mut self, (w1, w2): (TermId, TermId), t: usize) {
        self.n_z[t] -= 1;
        self.n_wz.row_mut(w1 as usize)[t] -= 1;
        self.n_wz.row_mut(w2 as usize)[t] -= 1;
        self.refresh(t);
    }

    /// The collapsed Gibbs weight of biterm `(w1, w2)` under every topic,
    /// `(n_z + α)(n_w1z + β)(n_w2z + β) / ((2n_z + Vβ)(2n_z + 1 + Vβ))`,
    /// into `out`.
    fn weights(&self, (w1, w2): (TermId, TermId), out: &mut [f64]) {
        let (r1, r2) = (self.n_wz.row(w1 as usize), self.n_wz.row(w2 as usize));
        for ((((wt, &p), &c1), &c2), &den) in
            out.iter_mut().zip(&self.prior).zip(r1).zip(r2).zip(&self.denom)
        {
            *wt = p * (c1 as f64 + self.beta) * (c2 as f64 + self.beta) / den;
        }
    }

    /// The smoothed φ: a topic's word total is twice its biterm count.
    fn phi(&self) -> WordTopic<f32> {
        let words_in_topic: Vec<u32> = self.n_z.iter().map(|&nz| 2 * nz).collect();
        estimate_phi(&self.n_wz, &words_in_topic, self.beta)
    }
}

/// Topic `t`'s entry of a φ row, 0 for a word outside the vocabulary.
fn phi_at(row: Option<&[f32]>, t: usize) -> f32 {
    row.map_or(0.0, |r| r[t])
}

impl TopicModel for BtmModel {
    fn num_topics(&self) -> usize {
        self.phi.topics()
    }

    /// BTM document inference is deterministic (no sampling): it averages
    /// `P(z|b) ∝ θ_z · φ_z,w1 · φ_z,w2` over the document's biterms. The
    /// RNG is unused but kept for interface uniformity.
    fn infer(&self, doc: &[TermId], _rng: &mut StdRng) -> Vec<f32> {
        let k = self.num_topics();
        // For individual short documents the paper sets the window to the
        // document length; our stored window is an upper bound, so short
        // docs naturally pair all tokens.
        let bs = biterms(doc, self.window.max(doc.len()));
        if bs.is_empty() {
            // Single-word fallback: P(z|w) ∝ θ_z φ_z,w.
            if let Some(&w) = doc.first() {
                let row = self.phi.get(w as usize);
                let mut p: Vec<f32> =
                    self.theta.iter().enumerate().map(|(t, &th)| th * phi_at(row, t)).collect();
                normalize(&mut p);
                if p.iter().sum::<f32>() > 0.0 {
                    return p;
                }
            }
            return uniform(k);
        }
        let mut acc = vec![0.0f32; k];
        let mut p = vec![0.0f32; k];
        let share = 1.0 / bs.len() as f32;
        for (w1, w2) in bs {
            let (r1, r2) = (self.phi.get(w1 as usize), self.phi.get(w2 as usize));
            for (t, (pt, &th)) in p.iter_mut().zip(&self.theta).enumerate() {
                *pt = th * phi_at(r1, t) * phi_at(r2, t);
            }
            normalize(&mut p);
            for (a, &q) in acc.iter_mut().zip(&p) {
                *a += q * share;
            }
        }
        normalize(&mut acc);
        acc
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
    fn biterm_extraction_respects_window() {
        let doc = vec![0u32, 1, 2, 3];
        assert_eq!(biterms(&doc, 1), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(biterms(&doc, 3).len(), 6);
        assert!(biterms(&[0], 5).is_empty());
    }

    #[test]
    fn biterms_are_unordered() {
        let b1 = biterms(&[5, 2], 1);
        let b2 = biterms(&[2, 5], 1);
        assert_eq!(b1, b2);
    }

    #[test]
    fn recovers_two_topics() {
        let corpus = two_cluster_corpus();
        let model = BtmModel::train(&BtmConfig::paper(2, 150, 3), &corpus);
        let mut rng = StdRng::seed_from_u64(1);
        let pet = model.infer(&corpus.encode(&["cat", "pet"]), &mut rng);
        let code = model.infer(&corpus.encode(&["rust", "bug"]), &mut rng);
        let pet_top = crate::model::argmax(&pet);
        let code_top = crate::model::argmax(&code);
        assert_ne!(pet_top, code_top);
        assert!(pet[pet_top] > 0.8, "{pet:?}");
        assert!(code[code_top] > 0.8, "{code:?}");
    }

    #[test]
    fn single_word_documents_use_the_fallback() {
        let corpus = two_cluster_corpus();
        let model = BtmModel::train(&BtmConfig::paper(2, 100, 3), &corpus);
        let mut rng = StdRng::seed_from_u64(1);
        let p = model.infer(&corpus.encode(&["cat"]), &mut rng);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(p[0] != p[1], "single informative word should not be uniform");
    }

    #[test]
    fn empty_document_is_uniform() {
        let corpus = two_cluster_corpus();
        let model = BtmModel::train(&BtmConfig::paper(3, 50, 3), &corpus);
        let mut rng = StdRng::seed_from_u64(1);
        let p = model.infer(&[], &mut rng);
        assert!(p.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn theta_and_phi_are_distributions() {
        let corpus = two_cluster_corpus();
        let model = BtmModel::train(&BtmConfig::paper(4, 50, 9), &corpus);
        assert!((model.theta().iter().sum::<f32>() - 1.0).abs() < 1e-4);
        let phi = model.phi();
        for t in 0..phi.topics() {
            assert!((phi.topic(t).sum::<f32>() - 1.0).abs() < 1e-3);
        }
    }

    /// The cached-factor kernel computes each weight with the operands and
    /// the order of the topic-major expression it replaced, bit for bit.
    #[test]
    fn weights_match_the_topic_major_expression_bit_for_bit() {
        let (v, k, alpha, beta) = (6usize, 4usize, 12.5, 0.01);
        let vb = v as f64 * beta;
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = BitermCounts::new(v, k, alpha, beta);
        let mut n_zw = vec![vec![0u32; v]; k];
        let mut n_z = vec![0u32; k];
        let mut placed: Vec<((TermId, TermId), usize)> = Vec::new();
        let mut out = vec![0.0f64; k];
        for step in 0..600 {
            if step % 3 == 2 && !placed.is_empty() {
                let ((w1, w2), t) = placed.swap_remove(rng.gen_range(0..placed.len()));
                counts.remove((w1, w2), t);
                n_z[t] -= 1;
                n_zw[t][w1 as usize] -= 1;
                n_zw[t][w2 as usize] -= 1;
            } else {
                let b = (rng.gen_range(0..v) as TermId, rng.gen_range(0..v) as TermId);
                let t = rng.gen_range(0..k);
                counts.add(b, t);
                n_z[t] += 1;
                n_zw[t][b.0 as usize] += 1;
                n_zw[t][b.1 as usize] += 1;
                placed.push((b, t));
            }
            let (w1, w2) = (rng.gen_range(0..v), rng.gen_range(0..v));
            counts.weights((w1 as TermId, w2 as TermId), &mut out);
            for (t, &wt) in out.iter().enumerate() {
                let nz = n_z[t] as f64;
                let expected =
                    (nz + alpha) * (n_zw[t][w1] as f64 + beta) * (n_zw[t][w2] as f64 + beta)
                        / ((2.0 * nz + vb) * (2.0 * nz + 1.0 + vb));
                assert_eq!(wt.to_bits(), expected.to_bits(), "step {step}, topic {t}");
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = two_cluster_corpus();
        let a = BtmModel::train(&BtmConfig::paper(2, 30, 5), &corpus);
        let b = BtmModel::train(&BtmConfig::paper(2, 30, 5), &corpus);
        assert_eq!(a.theta(), b.theta());
    }
}
