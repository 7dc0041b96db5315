//! Hierarchical Dirichlet Process topic model (Teh, Jordan, Beal & Blei
//! 2006), trained with the *direct assignment* collapsed Gibbs sampler of
//! §5.3 of that paper.
//!
//! HDP is the nonparametric cousin of LDA: the number of topics is unbounded
//! and inferred from the data. The sampler keeps a global stick-breaking
//! weight vector `β = (β_1 … β_K, β_u)` (with `β_u` the mass reserved for
//! unseen topics); a token may join an existing topic `k` with probability
//! `∝ (n_dk + α β_k) f_k(w)` or open a new one with probability
//! `∝ α β_u / V`. After every sweep, table counts `m_dk` are resampled via
//! the Antoniak distribution and `β ~ Dir(m_·1 … m_·K, γ)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::lda::{estimate_phi, fold_in};
use crate::model::{sample_discrete, TopicModel, WordTopic};

/// HDP hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HdpConfig {
    /// Concentration of the per-document DP (α in the paper; Table 4 uses 1.0).
    pub alpha: f64,
    /// Concentration of the global DP (γ; Table 4 uses 1.0).
    pub gamma: f64,
    /// Dirichlet prior on topic–word distributions (called β in the paper's
    /// Table 4, η in the HDP literature; Table 4 uses {0.1, 0.5}).
    pub eta: f64,
    /// Gibbs sweeps over the training corpus.
    pub iterations: usize,
    /// Fold-in Gibbs sweeps per inferred document.
    pub infer_iterations: usize,
    /// Hard cap on the number of topics (a memory guard; far above what the
    /// sampler reaches on microblog corpora).
    pub max_topics: usize,
    /// Sampler seed.
    pub seed: u64,
}

impl HdpConfig {
    /// The paper's tuning (Table 4): α = γ = 1.0, 1000 iterations.
    pub fn paper(eta: f64, iterations: usize, seed: u64) -> Self {
        HdpConfig {
            alpha: 1.0,
            gamma: 1.0,
            eta,
            iterations,
            infer_iterations: 20,
            max_topics: 512,
            seed,
        }
    }
}

/// A trained HDP model: the discovered topics plus the global weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HdpModel {
    /// `P(w | z=k)` for every word `w` and discovered topic `k`.
    phi: WordTopic<f32>,
    /// Per-topic prior mass `α · β_k` used at inference.
    alpha_beta: Vec<f64>,
    infer_iterations: usize,
    theta_train: Vec<Vec<f32>>,
}

/// Marsaglia–Tsang Gamma(shape, 1) sampler (duplicated from the simulator to
/// keep this crate dependency-free of it).
fn gamma_sample(rng: &mut StdRng, shape: f64) -> f64 {
    debug_assert!(shape > 0.0);
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma_sample(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Antoniak sampler: the number of tables serving dish `k` in a restaurant
/// with `n` customers and concentration `a` — a sum of independent
/// Bernoulli(a / (a + i)) draws for i = 0..n.
fn antoniak(rng: &mut StdRng, a: f64, n: u32) -> u32 {
    if n == 0 {
        return 0;
    }
    let mut m = 0u32;
    for i in 0..n {
        if rng.gen_range(0.0..1.0) < a / (a + i as f64) {
            m += 1;
        }
    }
    m.max(1)
}

impl HdpModel {
    /// Train with the direct-assignment Gibbs sampler.
    pub fn train(cfg: &HdpConfig, corpus: &TopicCorpus) -> Self {
        let v = corpus.vocab_size().max(1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Start from one topic; the sampler grows the set. The topic–word
        // counts stay topic-major (`n_kw[k][w]`): topics are appended and
        // compacted every sweep, and each would re-lay a word-major matrix.
        let mut k = 1usize;
        let mut n_dk: Vec<Vec<u32>> = vec![vec![0; k]; corpus.len()];
        let mut n_kw: Vec<Vec<u32>> = vec![vec![0; v]; k];
        let mut n_k: Vec<u32> = vec![0; k];
        // Global stick weights: (β_1 … β_K) plus the unseen mass β_u.
        let mut beta: Vec<f64> = vec![0.5, 0.5];
        let mut z: Vec<Vec<usize>> = corpus
            .docs
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                doc.iter()
                    .map(|&w| {
                        n_dk[d][0] += 1;
                        n_kw[0][w as usize] += 1;
                        n_k[0] += 1;
                        0
                    })
                    .collect()
            })
            .collect();
        let ve = v as f64 * cfg.eta;
        let mut weights: Vec<f64> = Vec::new();
        for _ in 0..cfg.iterations {
            let _iter = pmr_obs::timer("gibbs_iter.hdp");
            for d in 0..corpus.len() {
                #[allow(clippy::needless_range_loop)] // `i` indexes both the doc and `z`
                for i in 0..corpus.docs[d].len() {
                    let w = corpus.docs[d][i] as usize;
                    let old = z[d][i];
                    n_dk[d][old] -= 1;
                    n_kw[old][w] -= 1;
                    n_k[old] -= 1;
                    // Weights over existing topics plus one "new topic" slot.
                    weights.clear();
                    weights.extend((0..k).map(|t| {
                        (n_dk[d][t] as f64 + cfg.alpha * beta[t]) * (n_kw[t][w] as f64 + cfg.eta)
                            / (n_k[t] as f64 + ve)
                    }));
                    let allow_new = k < cfg.max_topics;
                    if allow_new {
                        weights.push(cfg.alpha * beta[k] / v as f64);
                    }
                    let new = sample_discrete(&mut rng, &weights);
                    if new == k {
                        // Open a new topic: split the unseen stick mass.
                        let b = {
                            // Beta(1, γ) via inverse CDF of 1-(1-u)^(1/γ).
                            let u: f64 = rng.gen_range(0.0..1.0);
                            1.0 - (1.0 - u).powf(1.0 / cfg.gamma)
                        };
                        let bu = beta[k];
                        beta[k] = b * bu;
                        beta.push((1.0 - b) * bu);
                        for row in n_dk.iter_mut() {
                            row.push(0);
                        }
                        n_kw.push(vec![0; v]);
                        n_k.push(0);
                        k += 1;
                    }
                    z[d][i] = new;
                    n_dk[d][new] += 1;
                    n_kw[new][w] += 1;
                    n_k[new] += 1;
                }
            }
            // Resample the global weights from the table counts, then drop
            // empty topics.
            let mut m: Vec<f64> = (0..k)
                .map(|t| {
                    let total: u32 = (0..corpus.len())
                        .map(|d| antoniak(&mut rng, cfg.alpha * beta[t], n_dk[d][t]))
                        .sum();
                    total as f64
                })
                .collect();
            m.push(cfg.gamma);
            let draws: Vec<f64> =
                m.iter().map(|&a| if a > 0.0 { gamma_sample(&mut rng, a) } else { 0.0 }).collect();
            let sum: f64 = draws.iter().sum();
            if sum > 0.0 {
                beta = draws.into_iter().map(|x| x / sum).collect();
            }
            // Compact: remove topics with no tokens.
            let keep: Vec<usize> = (0..k).filter(|&t| n_k[t] > 0).collect();
            if keep.len() < k {
                let remap: std::collections::HashMap<usize, usize> =
                    keep.iter().enumerate().map(|(new, &old)| (old, new)).collect();
                n_kw = keep.iter().map(|&t| std::mem::take(&mut n_kw[t])).collect();
                n_k = keep.iter().map(|&t| n_k[t]).collect();
                let unseen = beta[k];
                let dropped: f64 = (0..k).filter(|t| !remap.contains_key(t)).map(|t| beta[t]).sum();
                beta = keep.iter().map(|&t| beta[t]).collect();
                beta.push(unseen + dropped);
                for row in n_dk.iter_mut() {
                    *row = keep.iter().map(|&t| row[t]).collect();
                }
                for zd in z.iter_mut() {
                    for zi in zd.iter_mut() {
                        *zi = remap[zi];
                    }
                }
                k = keep.len();
            }
        }
        let mut n_wk = WordTopic::new(v, k);
        for (t, row) in n_kw.iter().enumerate() {
            for (w, &c) in row.iter().enumerate() {
                n_wk.row_mut(w)[t] = c;
            }
        }
        let phi = estimate_phi(&n_wk, &n_k, cfg.eta);
        let alpha_beta: Vec<f64> = (0..k).map(|t| cfg.alpha * beta[t]).collect();
        let theta_train = (0..corpus.len())
            .map(|d| {
                let len = corpus.docs[d].len();
                let asum: f64 = alpha_beta.iter().sum();
                let denom = len as f64 + asum;
                let mut th: Vec<f32> = n_dk[d]
                    .iter()
                    .zip(&alpha_beta)
                    .map(|(&c, &a)| ((c as f64 + a) / denom) as f32)
                    .collect();
                crate::model::normalize(&mut th);
                th
            })
            .collect();
        HdpModel { phi, alpha_beta, infer_iterations: cfg.infer_iterations, theta_train }
    }

    /// Number of topics the sampler settled on.
    pub fn discovered_topics(&self) -> usize {
        self.phi.topics()
    }

    /// `P(w | z=k)` for every word and discovered topic.
    pub fn phi(&self) -> &WordTopic<f32> {
        &self.phi
    }

    /// The topic distribution of training document `d`.
    pub fn theta_train(&self, d: usize) -> &[f32] {
        &self.theta_train[d]
    }
}

impl TopicModel for HdpModel {
    fn num_topics(&self) -> usize {
        self.phi.topics()
    }

    fn infer(&self, doc: &[TermId], rng: &mut StdRng) -> Vec<f32> {
        fold_in(&self.phi, |t| self.alpha_beta[t], doc, self.infer_iterations, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_cluster_corpus() -> TopicCorpus {
        let mut docs = Vec::new();
        for i in 0..45 {
            match i % 3 {
                0 => docs.push(vec!["cat", "dog", "pet", "cat", "dog"]),
                1 => docs.push(vec!["rust", "code", "bug", "rust", "code"]),
                _ => docs.push(vec!["rain", "wind", "storm", "rain", "wind"]),
            }
        }
        TopicCorpus::from_token_docs(docs)
    }

    #[test]
    fn discovers_multiple_topics() {
        let corpus = three_cluster_corpus();
        let model = HdpModel::train(&HdpConfig::paper(0.1, 80, 11), &corpus);
        assert!(
            model.discovered_topics() >= 3,
            "expected ≥3 topics, got {}",
            model.discovered_topics()
        );
        assert!(model.discovered_topics() < 40, "topic count should stay moderate");
    }

    #[test]
    fn separates_the_clusters() {
        let corpus = three_cluster_corpus();
        let model = HdpModel::train(&HdpConfig::paper(0.1, 80, 11), &corpus);
        let mut rng = StdRng::seed_from_u64(4);
        let pets = model.infer(&corpus.encode(&["cat", "dog", "pet"]), &mut rng);
        let code = model.infer(&corpus.encode(&["rust", "code", "bug"]), &mut rng);
        let storm = model.infer(&corpus.encode(&["rain", "storm", "wind"]), &mut rng);
        let tops: std::collections::HashSet<usize> =
            [&pets, &code, &storm].iter().map(|th| crate::model::argmax(th)).collect();
        assert_eq!(tops.len(), 3, "each cluster should get its own topic");
    }

    #[test]
    fn inferred_distributions_are_normalized() {
        let corpus = three_cluster_corpus();
        let model = HdpModel::train(&HdpConfig::paper(0.5, 40, 2), &corpus);
        let mut rng = StdRng::seed_from_u64(4);
        let th = model.infer(&corpus.docs[0], &mut rng);
        assert_eq!(th.len(), model.num_topics());
        assert!((th.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn antoniak_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(antoniak(&mut rng, 1.0, 0), 0);
        for _ in 0..50 {
            let m = antoniak(&mut rng, 1.0, 10);
            assert!((1..=10).contains(&m));
        }
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = three_cluster_corpus();
        let a = HdpModel::train(&HdpConfig::paper(0.1, 30, 5), &corpus);
        let b = HdpModel::train(&HdpConfig::paper(0.1, 30, 5), &corpus);
        assert_eq!(a.discovered_topics(), b.discovered_topics());
        assert_eq!(a.theta_train(0), b.theta_train(0));
    }
}
