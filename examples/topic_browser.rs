//! Topic browser: train LDA and BTM on the simulated corpus and print the
//! top words of each discovered topic next to the simulator's ground-truth
//! topic vocabularies — a direct view into what the context-agnostic models
//! of the paper's taxonomy can and cannot recover from short noisy text.
//!
//! ```text
//! cargo run --release --example topic_browser
//! ```

use pmr::core::{PreparedCorpus, SplitConfig};
use pmr::sim::{generate_corpus, ScalePreset, SimConfig};
use pmr::topics::pooling::{pool, PoolInput};
use pmr::topics::{
    BtmConfig, BtmModel, LdaConfig, LdaModel, PoolingScheme, TopicCorpus, WordTopic,
};

fn main() {
    let sim_config = SimConfig::preset(ScalePreset::Smoke, 11);
    let corpus = generate_corpus(&sim_config);
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");

    // Training tweets of all users (everything before the splits), pooled
    // by user — the configuration the paper finds best for most topic
    // models.
    let train_ids: Vec<pmr::sim::TweetId> = (0..prepared.corpus.len() as u32)
        .map(pmr::sim::TweetId)
        .filter(|&id| {
            prepared
                .split
                .users()
                .next()
                .map(|u| {
                    let s = prepared.split.user(u).expect("users() yields split users");
                    prepared.corpus.tweet(id).timestamp < s.split_time
                })
                .unwrap_or(true)
        })
        .collect();
    let inputs: Vec<PoolInput<'_>> = train_ids
        .iter()
        .map(|&id| PoolInput {
            tokens: prepared.content(id),
            author: prepared.corpus.tweet(id).author.0,
            hashtags: prepared.hashtags(id),
        })
        .collect();
    let pooled = pool(PoolingScheme::UP, &inputs);
    let topic_corpus = TopicCorpus::from_token_docs(&pooled);
    println!(
        "training corpus: {} pseudo-documents, |V| = {}, {} tokens",
        topic_corpus.len(),
        topic_corpus.vocab_size(),
        topic_corpus.total_tokens()
    );

    let k = 12;
    println!("\n=== LDA (K = {k}) top words ===");
    let lda = LdaModel::train(&LdaConfig::paper(k, 60, 5), &topic_corpus);
    print_topics(lda.phi(), &topic_corpus);

    println!("\n=== BTM (K = {k}) top words ===");
    let btm =
        BtmModel::train(&BtmConfig { window: 30, ..BtmConfig::paper(k, 60, 5) }, &topic_corpus);
    print_topics(btm.phi(), &topic_corpus);

    println!("\n=== simulator ground truth (first 6 topics, English vocabulary) ===");
    // Regenerate the world's language models from the same seed to show
    // the reference vocabularies (the corpus itself never exposes them to
    // the models).
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(sim_config.seed);
    let reference = pmr::sim::language::LanguageModel::generate(
        &mut rng,
        pmr::text::Language::English,
        sim_config.num_topics,
        sim_config.common_words_per_language,
        sim_config.topic_words_per_language,
        sim_config.phrases_per_topic,
    );
    for (t, words) in reference.topic_words.iter().take(6).enumerate() {
        println!("topic {t:>2}: {}", words[..8.min(words.len())].join(" "));
    }
}

fn print_topics(phi: &WordTopic<f32>, corpus: &TopicCorpus) {
    for t in 0..phi.topics() {
        let row: Vec<f32> = phi.topic(t).collect();
        let mut idx: Vec<usize> = (0..row.len()).collect();
        idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).expect("finite"));
        let words: Vec<&str> = idx.iter().take(8).map(|&w| corpus.vocab.term(w as u32)).collect();
        println!("topic {t:>2}: {}", words.join(" "));
    }
}
