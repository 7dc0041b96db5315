//! Bit pins for four Gibbs samplers (LDA, Labeled LDA, BTM and HDP): each
//! test trains one family on a fixed synthetic corpus and compares an
//! FNV-1a digest of the bits of φ, the training-document distributions and
//! a few inferred distributions with a recorded constant.
//!
//! Two runs of the same build agreeing says nothing about whether a kernel
//! change moved a draw; these constants do. A change to a sampler that is
//! meant to keep every draw must leave them as they are. A change that
//! moves draws on purpose re-records them and says why.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmr_text::vocab::TermId;
use pmr_topics::{
    BtmConfig, BtmModel, HdpConfig, HdpModel, LdaConfig, LdaModel, LldaConfig, LldaModel,
    TopicCorpus, TopicModel, WordTopic,
};

/// Topics of the parametric samplers (K ≥ 32, so every word row of the
/// counts spans several cache lines).
const K: usize = 32;
/// Latent word clusters of the synthetic corpus.
const CLUSTERS: usize = 12;
/// Words per cluster; with the shared words, |V| = 12 · 36 + 48 = 480.
const CLUSTER_WORDS: usize = 36;
const COMMON_WORDS: usize = 48;
const DOCS: usize = 240;

/// A seeded corpus of 240 documents (6–17 tokens) over 480 words: each
/// document draws most tokens from one cluster, some from a second and
/// the rest from the shared words. Documents with `d % 3 != 0` carry the
/// label `cluster % 6` (for Labeled LDA).
fn corpus() -> TopicCorpus {
    let mut rng = StdRng::seed_from_u64(20_190_326);
    let mut docs = Vec::with_capacity(DOCS);
    let mut labels = Vec::with_capacity(DOCS);
    for d in 0..DOCS {
        let main = rng.gen_range(0..CLUSTERS);
        let side = rng.gen_range(0..CLUSTERS);
        let len = rng.gen_range(6..18);
        let doc: Vec<String> = (0..len)
            .map(|_| {
                let roll: f64 = rng.gen_range(0.0..1.0);
                if roll < 0.7 {
                    format!("c{main}w{}", rng.gen_range(0..CLUSTER_WORDS))
                } else if roll < 0.8 {
                    format!("c{side}w{}", rng.gen_range(0..CLUSTER_WORDS))
                } else {
                    format!("common{}", rng.gen_range(0..COMMON_WORDS))
                }
            })
            .collect();
        docs.push(doc);
        labels.push(if d % 3 == 0 { Vec::new() } else { vec![(main % 6) as u32] });
    }
    let mut corpus = TopicCorpus::from_token_docs(&docs);
    corpus.labels = labels;
    corpus
}

/// Held-out documents for inference: two in-vocabulary documents, one with
/// an out-of-vocabulary id, one single word and one empty document.
fn probes(corpus: &TopicCorpus) -> Vec<Vec<TermId>> {
    let v = corpus.vocab_size() as TermId;
    let mut mixed = corpus.docs[5].clone();
    mixed.extend_from_slice(&corpus.docs[8][..3]);
    vec![
        corpus.docs[0].clone(),
        mixed,
        vec![corpus.docs[3][0], v + 7, corpus.docs[3][1]],
        vec![corpus.docs[11][2]],
        Vec::new(),
    ]
}

/// FNV-1a (64-bit) over the little-endian bits of a sequence of `f32`s.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, xs: impl IntoIterator<Item = f32>) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    fn usize(&mut self, x: usize) {
        self.bytes(&(x as u64).to_le_bytes());
    }

    /// φ in topic-major order: topic 0's probability of every word, then
    /// topic 1's, and so on.
    fn phi(&mut self, phi: &WordTopic<f32>) {
        self.usize(phi.topics());
        self.usize(phi.words());
        for t in 0..phi.topics() {
            self.f32s(phi.topic(t));
        }
    }

    /// The distributions a model infers for `probes`, each on a fresh RNG.
    fn infer(&mut self, model: &dyn TopicModel, probes: &[Vec<TermId>]) {
        for (i, doc) in probes.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(1_000 + i as u64);
            self.f32s(model.infer(doc, &mut rng));
        }
    }
}

#[test]
fn lda_bits_are_pinned() {
    let corpus = corpus();
    let model = LdaModel::train(&LdaConfig::paper(K, 25, 7), &corpus);
    let mut digest = Digest::new();
    digest.phi(model.phi());
    for d in 0..corpus.len() {
        digest.f32s(model.theta_train(d).iter().copied());
    }
    digest.infer(&model, &probes(&corpus));
    assert_eq!(digest.0, 0xdb56_7c46_5d2c_0ca8, "LDA draws moved");
}

#[test]
fn llda_bits_are_pinned() {
    let corpus = corpus();
    let model = LldaModel::train(&LldaConfig::paper(K, 25, 7), &corpus);
    assert_eq!(model.num_labels(), 6);
    let mut digest = Digest::new();
    digest.phi(model.phi());
    for d in 0..corpus.len() {
        digest.f32s(model.theta_train(d).iter().copied());
    }
    digest.infer(&model, &probes(&corpus));
    assert_eq!(digest.0, 0x7baf_1108_8300_f33a, "Labeled LDA draws moved");
}

#[test]
fn btm_bits_are_pinned() {
    let corpus = corpus();
    let model = BtmModel::train(&BtmConfig::paper(K, 12, 7), &corpus);
    let mut digest = Digest::new();
    digest.phi(model.phi());
    digest.f32s(model.theta().iter().copied());
    digest.infer(&model, &probes(&corpus));
    assert_eq!(digest.0, 0xc1f8_ed2d_2f4e_30a1, "BTM draws moved");
}

#[test]
fn hdp_bits_are_pinned() {
    let corpus = corpus();
    let model = HdpModel::train(&HdpConfig::paper(0.1, 25, 7), &corpus);
    let mut digest = Digest::new();
    digest.phi(model.phi());
    for d in 0..corpus.len() {
        digest.f32s(model.theta_train(d).iter().copied());
    }
    digest.infer(&model, &probes(&corpus));
    assert_eq!(
        (model.discovered_topics(), digest.0),
        (11, 0x4e4f_24ea_158c_d4f8),
        "HDP draws moved"
    );
}
