//! Hashtag suggestion — one of the paper's stated future directions
//! (§7: "we plan to expand our comparative analysis to other
//! recommendation tasks … such as followees and hashtag suggestions").
//!
//! The same user-model machinery transfers directly: build the user model
//! from her retweets, build one document model per candidate hashtag from
//! the training tweets that carry it, and rank hashtags by similarity.
//! Ground truth for the demonstration: the hashtags that actually appear
//! in the user's *test-phase* retweets.
//!
//! ```text
//! cargo run --release --example hashtag_suggest
//! ```

use std::collections::{HashMap, HashSet};

use pmr::bag::{
    AggregationFunction, BagSimilarity, IndexedVectorizer, ScoringKernel, SparseVector,
    WeightingScheme,
};
use pmr::core::{GramKind, PreparedCorpus, RepresentationSource, SplitConfig};
use pmr::sim::{generate_corpus, ScalePreset, SimConfig, TweetId};

fn main() {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 21));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");

    // Pick a user whose test positives carry hashtags.
    let user = prepared
        .split
        .users()
        .find(|&u| {
            let s = prepared.split.user(u).expect("users() yields split users");
            s.positives.iter().any(|&id| !prepared.hashtags(id).is_empty())
        })
        .expect("some test positives carry hashtags");
    let split = prepared.split.user(user).expect("chosen above");

    // The user model from her retweets (source R), TN unigrams + TF-IDF.
    let train = prepared.split.train_ids(&prepared.corpus, user, RepresentationSource::R);
    // Candidate hashtags and their supporting tweets come from the whole
    // training phase of the user's feed (what she could have seen).
    let feed_train: Vec<TweetId> =
        prepared.split.train_ids(&prepared.corpus, user, RepresentationSource::E);
    let mut tag_tweets: HashMap<String, Vec<TweetId>> = HashMap::new();
    for &id in &feed_train {
        for tag in prepared.hashtags(id) {
            tag_tweets.entry(tag.clone()).or_default().push(id);
        }
    }
    tag_tweets.retain(|_, tweets| tweets.len() >= 3);
    println!(
        "user {:?}: {} candidate hashtags with ≥3 supporting feed tweets",
        user,
        tag_tweets.len()
    );

    let grams = prepared.gram_table(GramKind::Token, 1);
    let vectorizer =
        IndexedVectorizer::fit(WeightingScheme::TFIDF, train.iter().map(|&id| grams.doc(id)));
    let vectors: Vec<SparseVector> =
        train.iter().map(|&id| vectorizer.transform(grams.doc(id))).collect();
    let user_model = AggregationFunction::Centroid.aggregate(&vectors, &[]);
    let kernel = ScoringKernel::new(BagSimilarity::Cosine, &user_model);

    // One document model per hashtag: centroid of its supporting tweets.
    let mut ranked: Vec<(f64, String)> = tag_tweets
        .iter()
        .map(|(tag, tweets)| {
            let vecs: Vec<SparseVector> =
                tweets.iter().map(|&id| vectorizer.transform(grams.doc(id))).collect();
            let tag_model = AggregationFunction::Centroid.aggregate(&vecs, &[]);
            (kernel.score(&tag_model), tag.clone())
        })
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));

    // Ground truth: hashtags of the user's test-phase positives.
    let truth: HashSet<String> =
        split.positives.iter().flat_map(|&id| prepared.hashtags(id).iter().cloned()).collect();
    println!("hashtags in her future retweets: {truth:?}\n");
    println!("top suggested hashtags:");
    for (i, (score, tag)) in ranked.iter().take(10).enumerate() {
        let hit = truth.contains(tag);
        println!("{:>2}. [{score:+.3}] {tag} {}", i + 1, if hit { "✓" } else { "" });
    }
    let first_hit = ranked.iter().position(|(_, tag)| truth.contains(tag));
    let mrr = first_hit.map(|i| 1.0 / (i + 1) as f64).unwrap_or(0.0);
    let n = ranked.len();
    let r = ranked.iter().filter(|(_, t)| truth.contains(t)).count();
    // With one relevant candidate its rank is uniform on 1..=n, so the
    // expectation is the harmonic number H_n over n.
    for m in 1..=n.max(9) {
        let harmonic: f64 = (1..=m).map(|k| 1.0 / k as f64).sum();
        let exact = expected_random_reciprocal_rank(m, 1);
        assert!((exact - harmonic / m as f64).abs() < 1e-12, "n = {m}: {exact}");
    }
    let expected = expected_random_reciprocal_rank(n, r);
    println!("\nMRR = {mrr:.2} (a random ordering's expectation: {expected:.2})");
}

/// E[1 / rank of the first relevant candidate] when `r` of `n` candidates
/// are relevant and the order is a uniform permutation:
/// Σ_{k=1}^{n−r+1} (1/k)·C(n−k, r−1)/C(n, r). The first hit lands at rank 1
/// with probability r/n, and at rank k + 1 with the rank-k probability
/// times (n−k−r+1)/(n−k). 0 when nothing is relevant.
fn expected_random_reciprocal_rank(n: usize, r: usize) -> f64 {
    if r == 0 || r > n {
        return 0.0;
    }
    let mut p_first = r as f64 / n as f64;
    let mut expected = p_first;
    for k in 1..=n - r {
        p_first *= (n - k - r + 1) as f64 / (n - k) as f64;
        expected += p_first / (k + 1) as f64;
    }
    expected
}
