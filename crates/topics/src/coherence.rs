//! Topic coherence — the standard intrinsic quality measure for topic
//! models (UMass coherence, Mimno et al. 2011).
//!
//! The paper evaluates topic models extrinsically (ranking MAP); coherence
//! is the complementary intrinsic view: do a topic's top words actually
//! co-occur in documents? It is used here by the `topic_browser` example
//! and by diagnostics around the pooling ablation — sparse short texts are
//! exactly the regime where coherence collapses, which is the mechanism
//! behind the paper's "NP pooling fails" finding.

use std::collections::{HashMap, HashSet};

use pmr_text::vocab::TermId;

use crate::corpus::TopicCorpus;
use crate::model::WordTopic;

/// UMass coherence of one topic given its `top_words` (most probable
/// first):
///
/// ```text
/// C = Σ_{i<j} log( (D(w_i, w_j) + 1) / D(w_j) )
/// ```
///
/// where `D(w)` counts documents containing `w` and `D(w_i, w_j)` counts
/// documents containing both. Higher (less negative) is more coherent.
pub fn umass_coherence(corpus: &TopicCorpus, top_words: &[TermId]) -> f64 {
    let mut doc_sets: HashMap<TermId, HashSet<usize>> = HashMap::new();
    for &w in top_words {
        doc_sets.insert(w, HashSet::new());
    }
    for (d, doc) in corpus.docs.iter().enumerate() {
        for w in doc {
            if let Some(set) = doc_sets.get_mut(w) {
                set.insert(d);
            }
        }
    }
    let mut score = 0.0;
    for i in 1..top_words.len() {
        for j in 0..i {
            let wi = &doc_sets[&top_words[i]];
            let wj = &doc_sets[&top_words[j]];
            let d_j = wj.len() as f64;
            if d_j == 0.0 {
                continue;
            }
            let both = wi.intersection(wj).count() as f64;
            score += ((both + 1.0) / d_j).ln();
        }
    }
    score
}

/// The `k` most probable words of a topic row of φ.
pub fn top_words(phi_row: &[f32], k: usize) -> Vec<TermId> {
    let mut idx: Vec<usize> = (0..phi_row.len()).collect();
    idx.sort_by(|&a, &b| phi_row[b].total_cmp(&phi_row[a]));
    idx.into_iter().take(k).map(|i| i as TermId).collect()
}

/// Mean UMass coherence over all topics of a φ matrix.
pub fn mean_coherence(corpus: &TopicCorpus, phi: &WordTopic<f32>, top_k: usize) -> f64 {
    if phi.topics() == 0 {
        return 0.0;
    }
    let total: f64 = (0..phi.topics())
        .map(|t| {
            let row: Vec<f32> = phi.topic(t).collect();
            umass_coherence(corpus, &top_words(&row, top_k))
        })
        .sum();
    total / phi.topics() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::{LdaConfig, LdaModel};

    fn clustered_corpus() -> TopicCorpus {
        let mut docs = Vec::new();
        for i in 0..30 {
            if i % 2 == 0 {
                docs.push(vec!["cat", "dog", "pet"]);
            } else {
                docs.push(vec!["rust", "code", "bug"]);
            }
        }
        TopicCorpus::from_token_docs(docs)
    }

    #[test]
    fn cooccurring_words_are_coherent() {
        let corpus = clustered_corpus();
        let cat = corpus.vocab.get("cat").unwrap();
        let dog = corpus.vocab.get("dog").unwrap();
        let rust = corpus.vocab.get("rust").unwrap();
        let coherent = umass_coherence(&corpus, &[cat, dog]);
        let incoherent = umass_coherence(&corpus, &[cat, rust]);
        assert!(
            coherent > incoherent,
            "co-occurring pair must score higher: {coherent} vs {incoherent}"
        );
    }

    #[test]
    fn top_words_orders_by_probability() {
        let row = vec![0.1f32, 0.5, 0.05, 0.35];
        assert_eq!(top_words(&row, 2), vec![1, 3]);
        assert_eq!(top_words(&row, 10).len(), 4);
    }

    #[test]
    fn trained_lda_topics_are_more_coherent_than_random_word_sets() {
        let corpus = clustered_corpus();
        // Weak α (the paper's 50/|Z| heuristic smears θ on 3-token docs).
        let cfg = LdaConfig { alpha: 0.1, ..LdaConfig::paper(2, 80, 3) };
        let model = LdaModel::train(&cfg, &corpus);
        let trained = mean_coherence(&corpus, model.phi(), 3);
        // A deliberately mixed "topic" spanning both clusters.
        let cat = corpus.vocab.get("cat").unwrap();
        let rust = corpus.vocab.get("rust").unwrap();
        let bug = corpus.vocab.get("bug").unwrap();
        let mixed = umass_coherence(&corpus, &[cat, rust, bug]);
        assert!(trained > mixed, "trained {trained} vs mixed {mixed}");
    }

    #[test]
    fn empty_inputs_are_neutral() {
        let corpus = clustered_corpus();
        assert_eq!(umass_coherence(&corpus, &[]), 0.0);
        assert_eq!(mean_coherence(&corpus, &WordTopic::new(corpus.vocab_size(), 0), 5), 0.0);
    }
}
