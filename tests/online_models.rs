//! Integration: the online user models track a simulated user's stream and
//! rank her future retweets above unretweeted feed content — the deployment
//! scenario behind the paper's motivation.

use pmr::bag::{BagSimilarity, IndexedVectorizer, ScoringKernel, WeightingScheme};
use pmr::core::{
    GramKind, OnlineGraphModel, OnlineProfile, PreparedCorpus, RepresentationSource, SplitConfig,
};
use pmr::graph::{GraphSimilarity, NGramGraph};
use pmr::sim::{generate_corpus, ScalePreset, SimConfig, TweetId};

fn setup() -> PreparedCorpus {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 42));
    PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed")
}

/// Streaming the training retweets through the online bag model yields a
/// ranker that scores test positives above test negatives on average. The
/// model is the serving path's: a profile of unit vectors over a shared
/// `IndexedVectorizer`, scored through a `ScoringKernel`.
#[test]
fn online_bag_model_learns_from_the_stream() {
    let prepared = setup();
    let table = prepared.gram_table(GramKind::Token, 1);
    let mut lifted = 0usize;
    let mut total = 0usize;
    for user in prepared.split.users().take(12) {
        let split = prepared.split.user(user).expect("users() yields split users");
        let train = prepared.split.train_ids(&prepared.corpus, user, RepresentationSource::R);
        if train.len() < 5 {
            continue;
        }
        let vectorizer =
            IndexedVectorizer::fit(WeightingScheme::TFIDF, train.iter().map(|&id| table.doc(id)));
        let unit = |id: TweetId| vectorizer.transform(table.doc(id)).normalized();
        let mut profile = OnlineProfile::new(1.0);
        for &id in &train {
            profile.observe_unit(&unit(id));
        }
        let kernel = ScoringKernel::new(BagSimilarity::Cosine, profile.vector());
        let mean = |ids: &[TweetId]| -> f64 {
            if ids.is_empty() {
                return 0.0;
            }
            ids.iter().map(|&id| kernel.score(&unit(id))).sum::<f64>() / ids.len() as f64
        };
        total += 1;
        if mean(&split.positives) > mean(&split.negatives) {
            lifted += 1;
        }
    }
    assert!(total >= 8, "not enough testable users: {total}");
    assert!(
        lifted * 4 >= total * 3,
        "online model should lift positives for most users: {lifted}/{total}"
    );
}

/// The online graph model does the same through the update operator, over
/// document graphs built once in the corpus's shared gram-id space.
#[test]
fn online_graph_model_learns_from_the_stream() {
    let prepared = setup();
    // Pick a user with a substantial retweet history.
    let user = prepared
        .split
        .users()
        .max_by_key(|&u| {
            prepared.split.train_ids(&prepared.corpus, u, RepresentationSource::R).len()
        })
        .expect("split users exist");
    let split = prepared.split.user(user).expect("selected above");
    let train = prepared.split.train_ids(&prepared.corpus, user, RepresentationSource::R);
    // Unigram-node graphs: their edges encode word bigrams, the order
    // information the simulated collocations actually supply (higher-n
    // graph edges need verbatim 2n-token repetition — see
    // tests/paper_shapes.rs).
    let table = prepared.gram_table(GramKind::Token, 1);
    let graph = |id: TweetId| NGramGraph::from_ids(table.doc(id), 1);
    let mut model = OnlineGraphModel::new(GraphSimilarity::Value);
    for &id in &train {
        model.observe(&graph(id));
    }
    assert_eq!(model.documents(), train.len());
    let mean = |ids: &[TweetId]| -> f64 {
        if ids.is_empty() {
            return 0.0;
        }
        ids.iter().map(|&id| model.score(&graph(id))).sum::<f64>() / ids.len() as f64
    };
    let pos = mean(&split.positives);
    let neg = mean(&split.negatives);
    assert!(pos > neg, "positives must outscore negatives: {pos:.4} vs {neg:.4}");
}
