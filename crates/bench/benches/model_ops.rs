//! Micro-benchmarks of the representation-model building blocks: the
//! per-operation costs behind the paper's Figure 7 time ladder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use pmr_bag::{BagSimilarity, IndexedVectorizer, ScoringKernel, WeightingScheme};
use pmr_graph::{GraphSimilarity, NGramGraph};
use pmr_text::vocab::{TermId, Vocabulary};
use pmr_text::{char_ngrams, token_ngrams, Tokenizer};
use pmr_topics::{BtmConfig, BtmModel, LdaConfig, LdaModel, TopicCorpus, TopicModel};

/// A deterministic pseudo-tweet corpus for the micro-benches.
fn sample_texts(n: usize) -> Vec<String> {
    let words = [
        "rust", "borrow", "checker", "tweet", "graph", "topic", "model", "ranking", "cosine",
        "sparse", "vector", "gibbs", "sample", "corpus", "retweet", "follow", "user", "feed",
    ];
    (0..n)
        .map(|i| {
            (0..12).map(|j| words[(i * 7 + j * 13) % words.len()]).collect::<Vec<_>>().join(" ")
        })
        .collect()
}

fn bench_tokenizer(c: &mut Criterion) {
    let tokenizer = Tokenizer::default();
    let texts = sample_texts(200);
    c.bench_function("tokenize_200_tweets", |b| {
        b.iter(|| {
            let mut total = 0;
            for t in &texts {
                total += tokenizer.tokenize(t).len();
            }
            total
        })
    });
}

fn bench_ngrams(c: &mut Criterion) {
    let texts = sample_texts(100);
    let tokens: Vec<Vec<String>> =
        texts.iter().map(|t| t.split_whitespace().map(str::to_owned).collect()).collect();
    let mut group = c.benchmark_group("ngram_extraction");
    for n in [2usize, 3, 4] {
        group.bench_with_input(BenchmarkId::new("char", n), &n, |b, &n| {
            b.iter(|| texts.iter().map(|t| char_ngrams(t, n).len()).sum::<usize>())
        });
        group.bench_with_input(BenchmarkId::new("token", n), &n, |b, &n| {
            b.iter(|| tokens.iter().map(|t| token_ngrams(t, n).len()).sum::<usize>())
        });
    }
    group.finish();
}

fn bench_bag(c: &mut Criterion) {
    let texts = sample_texts(150);
    let mut space = Vocabulary::new();
    let docs: Vec<Vec<TermId>> =
        texts.iter().map(|t| t.split_whitespace().map(|w| space.intern(w)).collect()).collect();
    c.bench_function("bag_fit_150_docs", |b| {
        b.iter(|| IndexedVectorizer::fit(WeightingScheme::TFIDF, docs.iter()))
    });
    let vectorizer = IndexedVectorizer::fit(WeightingScheme::TFIDF, docs.iter());
    let va = vectorizer.transform(&docs[0]);
    let vb = vectorizer.transform(&docs[1]);
    let mut group = c.benchmark_group("bag_similarity");
    for sim in [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard] {
        let kernel = ScoringKernel::new(sim, &va);
        group.bench_function(sim.name(), |b| b.iter(|| kernel.score(&vb)));
    }
    group.finish();
}

/// Intern a document's grams into the shared gram-id space and build its
/// graph.
fn graph_of(space: &mut Vocabulary, grams: &[String]) -> NGramGraph {
    let ids: Vec<TermId> = grams.iter().map(|g| space.intern(g)).collect();
    NGramGraph::from_ids(&ids, 3)
}

fn bench_graph(c: &mut Criterion) {
    let texts = sample_texts(150);
    let docs: Vec<Vec<String>> =
        texts.iter().map(|t| t.split_whitespace().map(str::to_owned).collect()).collect();
    c.bench_function("graph_build_and_merge_150_docs", |b| {
        b.iter(|| {
            let mut space = Vocabulary::new();
            let mut user = NGramGraph::new();
            for d in &docs {
                let g = graph_of(&mut space, &token_ngrams(d, 3));
                user.merge(&g);
            }
            user.size()
        })
    });
    let mut space = Vocabulary::new();
    let mut user = NGramGraph::new();
    for d in &docs {
        user.merge(&graph_of(&mut space, &token_ngrams(d, 3)));
    }
    let probe = graph_of(&mut space, &token_ngrams(&docs[0], 3));
    let mut group = c.benchmark_group("graph_similarity");
    for sim in
        [GraphSimilarity::Containment, GraphSimilarity::Value, GraphSimilarity::NormalizedValue]
    {
        group.bench_function(sim.name(), |b| b.iter(|| sim.compare(&user, &probe)));
    }
    group.finish();
}

/// A topic-model training corpus sized like the smoke sweep's (whose
/// topic corpora have 2.7–2.9k words): 300 documents of 16 tokens over a
/// 3,000-word vocabulary in which every word occurs. At this size one
/// word's counts under every topic span several cache lines, so the
/// benches see the counts' memory layout.
fn topic_corpus() -> TopicCorpus {
    const WORDS: usize = 3_000;
    let docs: Vec<Vec<String>> = (0..300)
        .map(|i| (0..16).map(|j| format!("w{}", ((i * 16 + j) * 7_919) % WORDS)).collect())
        .collect();
    TopicCorpus::from_token_docs(&docs)
}

fn bench_topics(c: &mut Criterion) {
    let corpus = topic_corpus();
    let mut group = c.benchmark_group("topic_training");
    group.sample_size(10);
    for k in [50usize, 200] {
        group.bench_with_input(BenchmarkId::new("lda_it10", k), &k, |b, &k| {
            b.iter(|| LdaModel::train(&LdaConfig::paper(k, 10, 1), &corpus))
        });
        group.bench_with_input(BenchmarkId::new("btm_it10", k), &k, |b, &k| {
            b.iter(|| BtmModel::train(&BtmConfig::paper(k, 10, 1), &corpus))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("topic_fold_in");
    for k in [50usize, 200] {
        let model = LdaModel::train(&LdaConfig::paper(k, 10, 1), &corpus);
        group.bench_with_input(BenchmarkId::new("lda_infer_100_docs", k), &k, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                corpus.docs[..100].iter().map(|d| model.infer(d, &mut rng)[0]).sum::<f32>()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_tokenizer, bench_ngrams, bench_bag, bench_graph, bench_topics
}
criterion_main!(benches);
