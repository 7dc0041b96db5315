//! Followee suggestion — the paper's other stated future direction (§7).
//!
//! Rank accounts the user does *not* follow by the similarity between her
//! user model (built from her retweets) and each candidate's content model
//! (built from the candidate's tweets). Ground truth for the demonstration
//! is the simulator's hidden interest profiles: a good suggestion is an
//! account whose latent interests align with the user's.
//!
//! ```text
//! cargo run --release --example followee_suggest
//! ```

use pmr::bag::{
    AggregationFunction, BagSimilarity, IndexedVectorizer, ScoringKernel, SparseVector,
    WeightingScheme,
};
use pmr::core::{GramKind, PreparedCorpus, RepresentationSource, SplitConfig};
use pmr::sim::interests::cosine as interest_cosine;
use pmr::sim::{generate_corpus, ScalePreset, SimConfig, UserId};

fn main() {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 33));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");

    let user = prepared.split.users().next().expect("split users exist");
    let already: std::collections::HashSet<UserId> =
        prepared.corpus.graph.followees(user).iter().copied().collect();

    // User model from her retweets: TN unigrams + TF-IDF.
    let train = prepared.split.train_ids(&prepared.corpus, user, RepresentationSource::R);
    let grams = prepared.gram_table(GramKind::Token, 1);
    let vectorizer =
        IndexedVectorizer::fit(WeightingScheme::TFIDF, train.iter().map(|&id| grams.doc(id)));
    let vectors: Vec<SparseVector> =
        train.iter().map(|&id| vectorizer.transform(grams.doc(id))).collect();
    let user_model = AggregationFunction::Centroid.aggregate(&vectors, &[]);
    let kernel = ScoringKernel::new(BagSimilarity::Cosine, &user_model);

    // Candidates: everyone she does not follow, modeled by their originals.
    let mut ranked: Vec<(f64, UserId)> = prepared
        .corpus
        .user_ids()
        .filter(|&v| v != user && !already.contains(&v))
        .filter_map(|v| {
            let originals = prepared.corpus.originals_of(v);
            if originals.len() < 3 {
                return None;
            }
            let vecs: Vec<SparseVector> =
                originals.iter().map(|&id| vectorizer.transform(grams.doc(id))).collect();
            let candidate_model = AggregationFunction::Centroid.aggregate(&vecs, &[]);
            Some((kernel.score(&candidate_model), v))
        })
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));

    // Validate against the simulator's hidden interest profiles.
    let me = prepared.corpus.user(user);
    let alignment =
        |v: UserId| interest_cosine(&me.interests, &prepared.corpus.user(v).interests) as f64;
    println!("followee suggestions for {:?} (interest alignment is hidden ground truth):\n", user);
    for (score, v) in ranked.iter().take(8) {
        println!(
            "  {:<8} content-sim {score:+.3}   true interest alignment {:+.3}",
            prepared.corpus.user(*v).handle,
            alignment(*v)
        );
    }
    let top_align: f64 = ranked.iter().take(8).map(|&(_, v)| alignment(v)).sum::<f64>() / 8.0;
    let all_align: f64 =
        ranked.iter().map(|&(_, v)| alignment(v)).sum::<f64>() / ranked.len().max(1) as f64;
    println!(
        "\nmean true alignment: top-8 suggestions {top_align:+.3} vs all candidates {all_align:+.3}"
    );
    assert!(ranked.len() > 8, "candidate pool too small");
}
