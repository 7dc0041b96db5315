//! Timeline re-ranking — the application the paper's introduction
//! motivates: a user drowning in incoming tweets gets her feed reordered by
//! relevance to her interests instead of by recency.
//!
//! The example picks one information-seeker (a user who receives far more
//! than she posts — the feed-overload case), builds her user model from her
//! retweets, and prints her test-phase feed twice: chronologically (what
//! Twitter showed in 2009) and re-ranked by the model, marking the tweets
//! she actually went on to retweet.
//!
//! ```text
//! cargo run --release --example timeline_reranker
//! ```

use pmr::bag::{
    AggregationFunction, BagSimilarity, IndexedVectorizer, ScoringKernel, SparseVector,
    WeightingScheme,
};
use pmr::core::config::AggKind;
use pmr::core::recommender::{score_configuration, ScoringOptions};
use pmr::core::{GramKind, ModelConfiguration, PreparedCorpus, RepresentationSource, SplitConfig};
use pmr::sim::usertype::partition_users;
use pmr::sim::{generate_corpus, ScalePreset, SimConfig};

fn main() {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 7));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    let partition = partition_users(&prepared.corpus);

    // An information seeker with a valid test set.
    let user = partition
        .is
        .iter()
        .copied()
        .find(|&u| prepared.split.user(u).is_some())
        .expect("IS users have test sets");
    let split = prepared.split.user(user).expect("selected for having one");
    println!(
        "user {:?}: {} followees, {} incoming tweets, test set of {} ({} relevant)",
        user,
        prepared.corpus.graph.followees(user).len(),
        prepared.corpus.incoming_of(user).len(),
        split.test_docs().len(),
        split.positives.len()
    );

    // Chronological view (newest first), as a 2009 timeline.
    let mut chrono = split.test_docs();
    chrono.sort_by_key(|&id| std::cmp::Reverse(prepared.corpus.tweet(id).timestamp));
    println!("\n--- chronological timeline (top 10) ---");
    for &id in chrono.iter().take(10) {
        print_row(&prepared, id, split.is_positive(id));
    }

    // Content-based re-ranking with TN + TF-IDF over the user's retweets.
    let config = ModelConfiguration::Bag {
        char_grams: false,
        n: 1,
        weighting: WeightingScheme::TFIDF,
        aggregation: AggKind::Centroid,
        similarity: BagSimilarity::Cosine,
    };
    let outcome = score_configuration(
        &prepared,
        &config,
        RepresentationSource::R,
        &[user],
        &ScoringOptions::default(),
    );
    let ap = outcome.per_user.first().map(|r| r.ap).unwrap_or(0.0);

    // Reconstruct the ranked order for display: score again via the public
    // API pieces (the framework returns AP; the display needs the ranking,
    // so we rebuild the same model inline).
    let train = prepared.split.train_ids(&prepared.corpus, user, RepresentationSource::R);
    let grams = prepared.gram_table(GramKind::Token, 1);
    let vectorizer =
        IndexedVectorizer::fit(WeightingScheme::TFIDF, train.iter().map(|&id| grams.doc(id)));
    let vectors: Vec<SparseVector> =
        train.iter().map(|&id| vectorizer.transform(grams.doc(id))).collect();
    let user_model = AggregationFunction::Centroid.aggregate(&vectors, &[]);
    let kernel = ScoringKernel::new(BagSimilarity::Cosine, &user_model);
    let mut ranked: Vec<(f64, pmr::sim::TweetId)> = split
        .test_docs()
        .into_iter()
        .map(|id| (kernel.score(&vectorizer.transform(grams.doc(id))), id))
        .collect();
    ranked.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite").then(a.1.cmp(&b.1)));

    println!("\n--- content-ranked timeline (top 10), AP = {ap:.3} ---");
    for &(score, id) in ranked.iter().take(10) {
        print!("[{score:+.3}] ");
        print_row(&prepared, id, split.is_positive(id));
    }
}

fn print_row(prepared: &PreparedCorpus, id: pmr::sim::TweetId, relevant: bool) {
    let tweet = prepared.corpus.tweet(id);
    let marker = if relevant { "★" } else { " " };
    let text: String = tweet.text.chars().take(64).collect();
    println!("{marker} t={:>7} {text}", tweet.timestamp);
}
