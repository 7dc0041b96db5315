//! Persistence round-trips: every trained artifact must survive a JSON
//! round-trip and keep scoring identically — the property a deployed system
//! relies on for model checkpointing.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pmr::bag::{BagSimilarity, IndexedVectorizer, ScoringKernel, WeightingScheme};
use pmr::core::{OnlineGraphModel, OnlineProfile};
use pmr::graph::{GraphSimilarity, NGramGraph};
use pmr::text::vocab::{TermId, Vocabulary};
use pmr::topics::{BtmConfig, BtmModel, LdaConfig, LdaModel, TopicCorpus, TopicModel};

fn docs() -> Vec<Vec<String>> {
    let d = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    vec![d("cat dog pet cat"), d("rust code bug rust"), d("cat pet vet"), d("code test bug")]
}

/// `text`'s whitespace tokens, interned into the shared gram-id space.
fn ids(space: &mut Vocabulary, text: &str) -> Vec<TermId> {
    text.split_whitespace().map(|g| space.intern(g)).collect()
}

/// [`docs`] interned into `space`.
fn interned_docs(space: &mut Vocabulary) -> Vec<Vec<TermId>> {
    docs().iter().map(|d| d.iter().map(|g| space.intern(g)).collect()).collect()
}

#[test]
fn lda_model_roundtrips_and_scores_identically() {
    let corpus = TopicCorpus::from_token_docs(docs());
    let model = LdaModel::train(&LdaConfig::paper(3, 30, 7), &corpus);
    let json = serde_json::to_string(&model).expect("serializes");
    let back: LdaModel = serde_json::from_str(&json).expect("deserializes");
    let query = corpus.encode(&["cat", "dog"]);
    let a = model.infer(&query, &mut StdRng::seed_from_u64(1));
    let b = back.infer(&query, &mut StdRng::seed_from_u64(1));
    assert_eq!(a, b);
}

#[test]
fn btm_model_roundtrips() {
    let corpus = TopicCorpus::from_token_docs(docs());
    let model = BtmModel::train(&BtmConfig::paper(3, 30, 7), &corpus);
    let json = serde_json::to_string(&model).expect("serializes");
    let back: BtmModel = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(model.theta(), back.theta());
    assert_eq!(model.phi(), back.phi());
}

#[test]
fn online_models_roundtrip_mid_stream() {
    let mut space = Vocabulary::new();
    let train = interned_docs(&mut space);
    let vectorizer = IndexedVectorizer::fit(WeightingScheme::TF, &train);
    let unit = |d: &[TermId]| vectorizer.transform(d).normalized();
    let mut bag = OnlineProfile::new(0.9);
    let mut graph = OnlineGraphModel::new(GraphSimilarity::Value);
    for d in train.iter().take(2) {
        bag.observe_unit(&unit(d));
        graph.observe(&NGramGraph::from_ids(d, 2));
    }
    // Checkpoint, restore, continue the stream on both copies.
    let bag_json = serde_json::to_string(&bag).expect("serializes");
    let graph_json = serde_json::to_string(&graph).expect("serializes");
    let mut bag_restored: OnlineProfile = serde_json::from_str(&bag_json).expect("ok");
    let mut graph_restored: OnlineGraphModel = serde_json::from_str(&graph_json).expect("ok");
    for d in train.iter().skip(2) {
        bag.observe_unit(&unit(d));
        bag_restored.observe_unit(&unit(d));
        graph.observe(&NGramGraph::from_ids(d, 2));
        graph_restored.observe(&NGramGraph::from_ids(d, 2));
    }
    let probe = ids(&mut space, "cat code");
    let bag_score = |p: &OnlineProfile| {
        ScoringKernel::new(BagSimilarity::Cosine, p.vector()).score(&unit(&probe))
    };
    assert_eq!(bag_score(&bag), bag_score(&bag_restored));
    let probe = NGramGraph::from_ids(&probe, 2);
    assert_eq!(graph.score(&probe), graph_restored.score(&probe));
}

#[test]
fn online_models_roundtrip_with_identical_scores_on_a_probe_set() {
    // The serving engine's snapshot/restore contract reduces to this
    // property: a deserialized model is *score-indistinguishable* from the
    // original on any probe, for every similarity — not just well-behaved
    // cosine. Exact equality on purpose: the JSON float encoding is
    // shortest-round-trip, so nothing may drift by even an ulp.
    let mut space = Vocabulary::new();
    let train = interned_docs(&mut space);
    let probes: Vec<Vec<TermId>> = ["cat dog", "rust bug code", "vet pet cat dog", "unseen words"]
        .iter()
        .map(|s| ids(&mut space, s))
        .collect();
    let vectorizer = IndexedVectorizer::fit(WeightingScheme::TFIDF, &train);
    let unit = |d: &[TermId]| vectorizer.transform(d).normalized();
    let mut model = OnlineProfile::new(0.8);
    for d in &train {
        model.observe_unit(&unit(d));
    }
    let json = serde_json::to_string(&model).expect("serializes");
    let back: OnlineProfile = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.documents(), model.documents(), "document count must survive");
    assert_eq!(back.vector(), model.vector(), "profile vector must survive bit-exactly");
    for similarity in
        [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard]
    {
        let (kernel, restored) = (
            ScoringKernel::new(similarity, model.vector()),
            ScoringKernel::new(similarity, back.vector()),
        );
        for p in &probes {
            let v = unit(p);
            assert_eq!(
                kernel.score(&v),
                restored.score(&v),
                "{similarity:?} score drifted on {p:?}"
            );
        }
    }
    for similarity in
        [GraphSimilarity::Containment, GraphSimilarity::Value, GraphSimilarity::NormalizedValue]
    {
        let mut model = OnlineGraphModel::new(similarity);
        for d in &train {
            model.observe(&NGramGraph::from_ids(d, 2));
        }
        let json = serde_json::to_string(&model).expect("serializes");
        let back: OnlineGraphModel = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.documents(), model.documents(), "document count must survive");
        for p in &probes {
            let g = NGramGraph::from_ids(p, 2);
            assert_eq!(model.score(&g), back.score(&g), "{similarity:?} score drifted on {p:?}");
        }
    }
}

#[test]
fn serve_engine_snapshot_roundtrips_through_the_facade() {
    use pmr::core::{PreparedCorpus, SplitConfig};
    use pmr::serve::{EngineConfig, EngineSnapshot, Replay, ReplayOptions, ServeModel};
    use pmr::sim::{generate_corpus, ScalePreset, SimConfig};

    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 9));
    let prepared = PreparedCorpus::new(corpus, SplitConfig::default()).expect("well-formed");
    let options = ReplayOptions {
        config: EngineConfig {
            model: ServeModel::Graph {
                similarity: GraphSimilarity::Value,
                char_grams: false,
                n: 1,
            },
            window: 16,
        },
        ..ReplayOptions::default()
    };
    let mut replay = Replay::new(&prepared, options);
    replay.run_to(replay.stream_len() / 2);
    let snapshot = replay.snapshot().expect("all shards alive");
    let _ = replay.finish();
    let wire = snapshot.to_jsonl().expect("serializes");
    let back = EngineSnapshot::from_jsonl(&wire).expect("parses");
    assert_eq!(back.to_jsonl().expect("re-serializes"), wire, "JSONL must be byte-stable");
    assert_eq!(back.header, snapshot.header);
    assert_eq!(back.users.len(), snapshot.users.len());
}

#[test]
fn simulated_corpus_roundtrips() {
    use pmr::sim::{generate_corpus, Corpus, ScalePreset, SimConfig};
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 5));
    let json = serde_json::to_string(&corpus).expect("serializes");
    let back: Corpus = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(corpus.len(), back.len());
    assert_eq!(corpus.tweets[10].text, back.tweets[10].text);
    let u = corpus.evaluated_user_ids().next().unwrap();
    assert_eq!(corpus.incoming_of(u), back.incoming_of(u));
}
