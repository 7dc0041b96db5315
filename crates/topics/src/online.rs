//! Online topic inference: a periodically retrained *background* model
//! served by deterministic fold-in Gibbs inference.
//!
//! The batch family in this crate refits a topic model per experiment; the
//! serving engine cannot afford that per tweet. The online subsystem splits
//! the work:
//!
//! * **Background** ([`TopicBackground`]): topic–word distributions `φ`
//!   retrained on a cadence with a SparseLDA-style bucketed collapsed Gibbs
//!   sampler (Yao, Mimno & McCallum 2009). The conditional
//!   `P(z=k) ∝ (n_dk+α)(n_kw+β)/(n_k+Vβ)` is decomposed into a smoothing
//!   bucket `s = Σ_k αβ/(n_k+Vβ)` (maintained by exact delta updates), a
//!   document bucket `r = Σ_{n_dk>0} n_dk·β/(n_k+Vβ)` and a topic–word
//!   bucket `q` walked over the word's sparse `(topic, count)` list — so a
//!   sweep costs O(non-zero topics) per token instead of O(K), which is
//!   what makes retraining cheap enough to run periodically.
//! * **Fold-in** ([`TopicBackground::fold_in`]): a new document's `θ` is
//!   inferred against a *frozen* `φ` with a fixed sweep budget, using a
//!   fresh `StdRng` per `(document, sweep)` whose seed is splitmix64-derived
//!   from `(config seed, epoch, document key, sweep index)`. No RNG state
//!   survives between documents or sweeps, so `θ` is a pure function of
//!   `(φ, document, key)` — independent of shard layout, worker count,
//!   scheduler, or the order in which documents are served. That purity is
//!   the whole determinism argument for the topic family in `pmr-serve`.
//!
//! User profiles ([`TopicProfile`]) are exponentially decayed sums of
//! observed `θ`s, compared to candidate `θ`s by cosine — mirroring the
//! batch pipeline's centroid-of-distributions user models (§3.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pmr_text::vocab::TermId;

use crate::model::{normalize, sample_discrete, uniform};

/// Seed-stream label for background training draws.
const S_TRAIN: u64 = 1;
/// Seed-stream label for fold-in draws.
const S_FOLDIN: u64 = 2;

/// SplitMix64-style seed derivation (the same mix the simulator's
/// deterministic seed streams use): collision-resistant across
/// `(stream, item)` pairs and free of sequential correlation, so every
/// `(document, sweep)` gets an independent, reproducible RNG.
fn derive_seed(master: u64, stream: u64, item: u64) -> u64 {
    let mut z = master
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ item.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hyperparameters of the online topic subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineTopicConfig {
    /// Number of latent topics `|Z|`.
    pub topics: usize,
    /// Dirichlet prior on document–topic distributions.
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.
    pub beta: f64,
    /// Gibbs sweeps per background retrain.
    pub train_iterations: usize,
    /// Fold-in sweeps per served document (the fixed per-doc budget).
    pub foldin_iterations: usize,
    /// Master seed; every training epoch and every fold-in derives its own
    /// stream from it.
    pub seed: u64,
}

impl OnlineTopicConfig {
    /// The paper's tuning for a given topic count: α = 50/|Z|, β = 0.01.
    pub fn paper(topics: usize, train_iterations: usize, seed: u64) -> Self {
        OnlineTopicConfig {
            topics,
            alpha: 50.0 / topics.max(1) as f64,
            beta: 0.01,
            train_iterations,
            foldin_iterations: 8,
            seed,
        }
    }
}

/// Decrement a sparse `(topic, count)` row, dropping the entry at zero.
fn dec_sparse(row: &mut Vec<(u32, u32)>, topic: u32) {
    if let Ok(i) = row.binary_search_by_key(&topic, |&(t, _)| t) {
        if row[i].1 <= 1 {
            row.remove(i);
        } else {
            row[i].1 -= 1;
        }
    }
}

/// Increment a sparse `(topic, count)` row, keeping it sorted by topic.
fn inc_sparse(row: &mut Vec<(u32, u32)>, topic: u32) {
    match row.binary_search_by_key(&topic, |&(t, _)| t) {
        Ok(i) => row[i].1 += 1,
        Err(i) => row.insert(i, (topic, 1)),
    }
}

/// A trained background model: frozen topic–word distributions plus the
/// seed material every fold-in derives from. A background is a pure
/// function of `(config, documents, epoch)` — snapshots only record the
/// epoch and re-derive the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicBackground {
    epoch: u64,
    alpha: f64,
    foldin_iterations: usize,
    seed: u64,
    /// `phi[k][w] = P(w | z=k)`, row-stochastic over the full vocabulary.
    phi: Vec<Vec<f32>>,
}

impl TopicBackground {
    /// Retrain the background on `docs` (token-id slices over a vocabulary
    /// of `vocab` terms) with the bucketed SparseLDA sampler. Pure in
    /// `(cfg, docs, vocab, epoch)`: the sampler is single-threaded and
    /// seeded from `derive_seed(cfg.seed, S_TRAIN, epoch)`.
    pub fn train(cfg: &OnlineTopicConfig, docs: &[&[TermId]], vocab: usize, epoch: u64) -> Self {
        let k = cfg.topics.max(1);
        let v = vocab.max(1);
        let vb = v as f64 * cfg.beta;
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, S_TRAIN, epoch));

        let mut n_k = vec![0u32; k];
        let mut n_kw: Vec<Vec<(u32, u32)>> = vec![Vec::new(); v];
        let mut n_dk: Vec<Vec<u32>> =
            docs.iter().map(|d| vec![0u32; if d.is_empty() { 0 } else { k }]).collect();
        // Random initialization.
        let mut z: Vec<Vec<usize>> = docs
            .iter()
            .enumerate()
            .map(|(d, doc)| {
                doc.iter()
                    .map(|&w| {
                        let t = rng.gen_range(0..k);
                        n_dk[d][t] += 1;
                        n_k[t] += 1;
                        inc_sparse(&mut n_kw[w as usize], t as u32);
                        t
                    })
                    .collect()
            })
            .collect();

        // The smoothing bucket, maintained by exact delta updates whenever
        // an `n_k` changes.
        let mut s: f64 = n_k.iter().map(|&nk| cfg.alpha * cfg.beta / (nk as f64 + vb)).sum();
        let mut coef = vec![0.0f64; k];
        for _ in 0..cfg.train_iterations {
            let _iter = pmr_obs::timer("gibbs_iter.online_lda");
            for (d, doc) in docs.iter().enumerate() {
                if doc.is_empty() {
                    continue;
                }
                // Entering a document: the topic–word coefficients and the
                // document bucket, refreshed exactly once per (doc, sweep)
                // so floating-point drift cannot accumulate across the run.
                for (t, c) in coef.iter_mut().enumerate() {
                    *c = (n_dk[d][t] as f64 + cfg.alpha) / (n_k[t] as f64 + vb);
                }
                let mut r: f64 = n_dk[d]
                    .iter()
                    .zip(&n_k)
                    .map(|(&c, &nk)| c as f64 * cfg.beta / (nk as f64 + vb))
                    .sum();
                for (i, &w) in doc.iter().enumerate() {
                    let wi = w as usize;
                    let old = z[d][i];
                    s -= cfg.alpha * cfg.beta / (n_k[old] as f64 + vb);
                    r -= n_dk[d][old] as f64 * cfg.beta / (n_k[old] as f64 + vb);
                    n_dk[d][old] -= 1;
                    n_k[old] -= 1;
                    dec_sparse(&mut n_kw[wi], old as u32);
                    s += cfg.alpha * cfg.beta / (n_k[old] as f64 + vb);
                    r += n_dk[d][old] as f64 * cfg.beta / (n_k[old] as f64 + vb);
                    coef[old] = (n_dk[d][old] as f64 + cfg.alpha) / (n_k[old] as f64 + vb);

                    let row = &n_kw[wi];
                    let q: f64 = row.iter().map(|&(t, c)| coef[t as usize] * c as f64).sum();
                    let total = s + r + q;
                    let new = if total > 0.0 && total.is_finite() {
                        let u = rng.gen_range(0.0..total);
                        if u < s {
                            // Smoothing bucket: walk all topics.
                            let mut acc = 0.0;
                            let mut pick = k - 1;
                            for (t, &nk) in n_k.iter().enumerate() {
                                acc += cfg.alpha * cfg.beta / (nk as f64 + vb);
                                if u < acc {
                                    pick = t;
                                    break;
                                }
                            }
                            pick
                        } else if u < s + r {
                            // Document bucket: walk the doc's non-zero topics.
                            let mut acc = s;
                            let mut pick = k - 1;
                            for (t, &c) in n_dk[d].iter().enumerate() {
                                if c == 0 {
                                    continue;
                                }
                                acc += c as f64 * cfg.beta / (n_k[t] as f64 + vb);
                                if u < acc {
                                    pick = t;
                                    break;
                                }
                            }
                            pick
                        } else {
                            // Topic–word bucket: walk the word's sparse row.
                            let mut acc = s + r;
                            let mut pick = row.last().map(|&(t, _)| t as usize).unwrap_or(k - 1);
                            for &(t, c) in row {
                                acc += coef[t as usize] * c as f64;
                                if u < acc {
                                    pick = t as usize;
                                    break;
                                }
                            }
                            pick
                        }
                    } else {
                        rng.gen_range(0..k)
                    };

                    s -= cfg.alpha * cfg.beta / (n_k[new] as f64 + vb);
                    r -= n_dk[d][new] as f64 * cfg.beta / (n_k[new] as f64 + vb);
                    n_dk[d][new] += 1;
                    n_k[new] += 1;
                    inc_sparse(&mut n_kw[wi], new as u32);
                    s += cfg.alpha * cfg.beta / (n_k[new] as f64 + vb);
                    r += n_dk[d][new] as f64 * cfg.beta / (n_k[new] as f64 + vb);
                    coef[new] = (n_dk[d][new] as f64 + cfg.alpha) / (n_k[new] as f64 + vb);
                    z[d][i] = new;
                }
            }
        }

        // Dense, smoothed φ: every absent (topic, word) pair gets the β
        // floor, so fold-in never multiplies by a hard zero.
        let mut phi: Vec<Vec<f32>> =
            n_k.iter().map(|&nk| vec![(cfg.beta / (nk as f64 + vb)) as f32; v]).collect();
        for (w, row) in n_kw.iter().enumerate() {
            for &(t, c) in row {
                phi[t as usize][w] = ((c as f64 + cfg.beta) / (n_k[t as usize] as f64 + vb)) as f32;
            }
        }
        TopicBackground {
            epoch,
            alpha: cfg.alpha,
            foldin_iterations: cfg.foldin_iterations,
            seed: cfg.seed,
            phi,
        }
    }

    /// The retrain generation this background belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of latent topics.
    pub fn topics(&self) -> usize {
        self.phi.len()
    }

    /// `P(w | z=k)` rows.
    pub fn phi(&self) -> &[Vec<f32>] {
        &self.phi
    }

    /// Infer `θ` for a document by fold-in Gibbs against the frozen `φ`.
    ///
    /// Every sweep (and the initial assignment, sweep 0) runs on a fresh
    /// `StdRng` seeded from `(seed, epoch, doc_key, sweep)` — no state
    /// crosses documents or sweeps, so the result is a pure function of
    /// `(self, doc, doc_key)` no matter which thread computes it or in what
    /// order documents arrive.
    pub fn fold_in(&self, doc: &[TermId], doc_key: u64) -> Vec<f32> {
        let k = self.phi.len();
        if doc.is_empty() || k == 0 {
            return uniform(k);
        }
        let master = derive_seed(self.seed, S_FOLDIN, self.epoch);
        let mut n_dk = vec![0u32; k];
        let mut init_rng = StdRng::seed_from_u64(derive_seed(master, doc_key, 0));
        let mut z: Vec<usize> = doc
            .iter()
            .map(|_| {
                let t = init_rng.gen_range(0..k);
                n_dk[t] += 1;
                t
            })
            .collect();
        let mut weights = vec![0.0f64; k];
        for sweep in 1..=self.foldin_iterations.max(1) {
            let mut rng = StdRng::seed_from_u64(derive_seed(master, doc_key, sweep as u64));
            for (i, &w) in doc.iter().enumerate() {
                let old = z[i];
                n_dk[old] -= 1;
                for (t, wt) in weights.iter_mut().enumerate() {
                    *wt = (n_dk[t] as f64 + self.alpha)
                        * self.phi[t].get(w as usize).copied().unwrap_or(0.0) as f64;
                }
                let new = sample_discrete(&mut rng, &weights);
                z[i] = new;
                n_dk[new] += 1;
            }
        }
        let denom = doc.len() as f64 + k as f64 * self.alpha;
        let mut theta: Vec<f32> =
            n_dk.iter().map(|&c| ((c as f64 + self.alpha) / denom) as f32).collect();
        normalize(&mut theta);
        theta
    }
}

/// An exponentially decayed sum of observed topic distributions — the
/// online counterpart of the batch centroid-of-`θ`s user model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicProfile {
    decay: f32,
    accumulated: Vec<f32>,
    documents: usize,
}

impl TopicProfile {
    /// An empty profile over `topics` dimensions. `decay` ∈ (0, 1]; 1.0
    /// means no forgetting (the undecayed sum the batch pin compares to).
    pub fn new(decay: f32, topics: usize) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1], got {decay}");
        TopicProfile { decay, accumulated: vec![0.0; topics], documents: 0 }
    }

    /// Decay, then fold a document's `θ` into the profile.
    pub fn observe(&mut self, theta: &[f32]) {
        for x in &mut self.accumulated {
            *x *= self.decay;
        }
        if self.accumulated.len() < theta.len() {
            self.accumulated.resize(theta.len(), 0.0);
        }
        for (a, &t) in self.accumulated.iter_mut().zip(theta) {
            *a += t;
        }
        self.documents += 1;
    }

    /// Cosine similarity between the profile and a candidate's `θ`,
    /// accumulated in f64 so the result is independent of summation
    /// grouping. 0 when either side is all-zero.
    pub fn score(&self, theta: &[f32]) -> f64 {
        let mut dot = 0.0f64;
        let mut na = 0.0f64;
        let mut nb = 0.0f64;
        for (&a, &b) in self.accumulated.iter().zip(theta) {
            dot += a as f64 * b as f64;
            na += (a as f64) * (a as f64);
            nb += (b as f64) * (b as f64);
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }

    /// Number of observed documents.
    pub fn documents(&self) -> usize {
        self.documents
    }

    /// The forgetting factor.
    pub fn decay(&self) -> f32 {
        self.decay
    }
}

/// A served document: the tweet's token ids plus its stable key (the tweet
/// id), which seeds the deterministic fold-in.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicDoc {
    /// Stable per-document seed key (the tweet id in `pmr-serve`).
    pub key: u64,
    /// Token ids over the background's vocabulary.
    pub tokens: Vec<TermId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::argmax;

    /// Two cleanly separated word communities over an 8-term vocabulary:
    /// terms 0–3 in even docs, 4–7 in odd docs.
    fn two_cluster_docs() -> Vec<Vec<TermId>> {
        (0..30)
            .map(|i| if i % 2 == 0 { vec![0, 1, 2, 3, 0, 1] } else { vec![4, 5, 6, 7, 4, 5] })
            .collect()
    }

    fn slices(docs: &[Vec<TermId>]) -> Vec<&[TermId]> {
        docs.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn bucketed_trainer_recovers_two_topics() {
        let docs = two_cluster_docs();
        let cfg = OnlineTopicConfig { alpha: 0.1, ..OnlineTopicConfig::paper(2, 100, 7) };
        let bg = TopicBackground::train(&cfg, &slices(&docs), 8, 0);
        let pet = bg.fold_in(&[0, 1, 2], 1001);
        let code = bg.fold_in(&[4, 5, 6], 1002);
        let pet_top = argmax(&pet);
        let code_top = argmax(&code);
        assert_ne!(pet_top, code_top, "clusters must land in different topics");
        assert!(pet[pet_top] > 0.7, "confident assignment expected: {pet:?}");
        assert!(code[code_top] > 0.7, "confident assignment expected: {code:?}");
    }

    #[test]
    fn training_is_deterministic_in_seed_and_epoch() {
        let docs = two_cluster_docs();
        let cfg = OnlineTopicConfig::paper(2, 30, 5);
        let a = TopicBackground::train(&cfg, &slices(&docs), 8, 3);
        let b = TopicBackground::train(&cfg, &slices(&docs), 8, 3);
        assert_eq!(a, b);
        let other_epoch = TopicBackground::train(&cfg, &slices(&docs), 8, 4);
        assert_ne!(a.phi(), other_epoch.phi(), "epochs must derive distinct sampler streams");
    }

    #[test]
    fn phi_rows_are_distributions() {
        let docs = two_cluster_docs();
        let cfg = OnlineTopicConfig::paper(3, 20, 1);
        let bg = TopicBackground::train(&cfg, &slices(&docs), 8, 0);
        for row in bg.phi() {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-3, "phi row sums to {s}");
        }
    }

    #[test]
    fn fold_in_is_a_pure_function_of_doc_and_key() {
        let docs = two_cluster_docs();
        let cfg = OnlineTopicConfig::paper(2, 30, 5);
        let bg = TopicBackground::train(&cfg, &slices(&docs), 8, 0);
        let doc = [0u32, 1, 4, 2];
        let first = bg.fold_in(&doc, 77);
        // Interleave unrelated fold-ins: the result must not depend on
        // call order or history.
        let _ = bg.fold_in(&[4, 5], 12);
        let _ = bg.fold_in(&[1], 99);
        assert_eq!(bg.fold_in(&doc, 77), first);
        // Different keys derive independent sweep streams but may still
        // converge to the same θ on a well-separated background, so purity
        // (not inequality) is the pinned property.
    }

    #[test]
    fn fold_in_yields_valid_distributions() {
        let docs = two_cluster_docs();
        let cfg = OnlineTopicConfig::paper(4, 20, 2);
        let bg = TopicBackground::train(&cfg, &slices(&docs), 8, 0);
        let theta = bg.fold_in(&[0, 5, 3, 600], 5);
        assert_eq!(theta.len(), 4);
        assert!((theta.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(theta.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn empty_document_folds_to_uniform() {
        let docs = two_cluster_docs();
        let cfg = OnlineTopicConfig::paper(3, 10, 2);
        let bg = TopicBackground::train(&cfg, &slices(&docs), 8, 0);
        let theta = bg.fold_in(&[], 1);
        assert!(theta.iter().all(|&p| (p - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn profile_decay_forgets_and_decay_one_accumulates() {
        let mut decayed = TopicProfile::new(0.5, 2);
        decayed.observe(&[1.0, 0.0]);
        decayed.observe(&[0.0, 1.0]);
        // First θ halved once, second fresh.
        assert!((decayed.score(&[0.0, 1.0]) - (1.0 / (0.25f64 + 1.0).sqrt())).abs() < 1e-6);

        let mut sum = TopicProfile::new(1.0, 2);
        sum.observe(&[1.0, 0.0]);
        sum.observe(&[0.0, 1.0]);
        let s = sum.score(&[1.0, 0.0]);
        assert!((s - 1.0 / 2.0f64.sqrt()).abs() < 1e-6, "undecayed sum is symmetric: {s}");
    }

    #[test]
    fn empty_profile_scores_zero() {
        let profile = TopicProfile::new(1.0, 3);
        assert_eq!(profile.score(&[0.5, 0.3, 0.2]), 0.0);
    }

    #[test]
    fn online_model_round_trips_profile_through_serde() {
        let docs = two_cluster_docs();
        let cfg = OnlineTopicConfig::paper(2, 20, 3);
        let bg = TopicBackground::train(&cfg, &slices(&docs), 8, 0);
        let mut profile = TopicProfile::new(0.9, bg.topics());
        profile.observe(&bg.fold_in(&[0, 1, 2], 1));
        profile.observe(&bg.fold_in(&[0, 3], 2));
        let wire = serde_json::to_string(&profile).expect("profile serializes");
        let restored: TopicProfile = serde_json::from_str(&wire).expect("profile parses");
        let probe = bg.fold_in(&[0, 1], 9);
        assert_eq!(profile.score(&probe).to_bits(), restored.score(&probe).to_bits());
        assert_eq!(restored.documents(), 2);
    }
}
