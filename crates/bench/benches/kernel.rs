//! Micro-benchmarks of the sweep hot path: gram extraction (per-call
//! strings vs cached `TermId` lookups), vectorization (`IndexedVectorizer`
//! fit and transform over gram ids) and model–document scoring
//! (`ScoringKernel` over a pre-expanded user model).
//! `results/BENCH_kernel.json` is a dated record of the change that
//! introduced the gram cache and the kernel; it also measured the string
//! vectorizer and merge-join similarities, which are now test references
//! in pmr-bag and are not benchmarked.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pmr_bag::{
    AggregationFunction, BagSimilarity, IndexedVectorizer, ScoringKernel, SparseVector,
    WeightingScheme,
};
use pmr_core::{GramKind, GramTable};
use pmr_sim::TweetId;
use pmr_text::{char_ngrams, token_ngrams};

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

/// The lowercased character 3-grams of `texts`, interned into one table.
fn char3_table(texts: &[String]) -> GramTable {
    GramTable::from_docs(GramKind::Char, 3, texts.iter().map(|t| char_ngrams(&t.to_lowercase(), 3)))
}

/// Every document of `table`, as gram ids.
fn id_docs(table: &GramTable) -> Vec<&[u32]> {
    (0..table.num_docs()).map(|i| table.doc(TweetId(i as u32))).collect()
}

fn token_docs(texts: &[String]) -> Vec<Vec<String>> {
    texts.iter().map(|t| t.split_whitespace().map(str::to_owned).collect()).collect()
}

fn bench_gram_extraction(c: &mut Criterion) {
    let texts = sample_texts(200);
    let tokens = token_docs(&texts);
    let char_table = char3_table(&texts);
    let token_table =
        GramTable::from_docs(GramKind::Token, 2, tokens.iter().map(|t| token_ngrams(t, 2)));
    let mut group = c.benchmark_group("gram_extraction");
    group.bench_function("char3_per_call", |b| {
        b.iter(|| texts.iter().map(|t| char_ngrams(&t.to_lowercase(), 3).len()).sum::<usize>())
    });
    group.bench_function("char3_cached", |b| {
        b.iter(|| (0..texts.len()).map(|i| char_table.doc(TweetId(i as u32)).len()).sum::<usize>())
    });
    group.bench_function("token2_per_call", |b| {
        b.iter(|| tokens.iter().map(|t| token_ngrams(t, 2).len()).sum::<usize>())
    });
    group.bench_function("token2_cached", |b| {
        b.iter(|| {
            (0..tokens.len()).map(|i| token_table.doc(TweetId(i as u32)).len()).sum::<usize>()
        })
    });
    group.finish();
}

fn bench_vectorize(c: &mut Criterion) {
    let table = char3_table(&sample_texts(150));
    let docs = id_docs(&table);
    let vectorizer = IndexedVectorizer::fit(WeightingScheme::TFIDF, docs.iter());
    let mut group = c.benchmark_group("vectorize");
    group.bench_function("fit_indexed", |b| {
        b.iter(|| IndexedVectorizer::fit(WeightingScheme::TFIDF, docs.iter()).dimensionality())
    });
    group.bench_function("transform_indexed", |b| {
        b.iter(|| docs.iter().map(|d| vectorizer.transform(d).nnz()).sum::<usize>())
    });
    group.finish();
}

/// A large aggregated user model plus small test docs — the asymmetry the
/// kernel exploits (O(nnz(doc)) beats O(nnz(model) + nnz(doc)) exactly when
/// the model is much denser than the documents).
fn model_and_docs() -> (SparseVector, Vec<SparseVector>) {
    let table = char3_table(&sample_texts(400));
    let docs = id_docs(&table);
    let vectorizer = IndexedVectorizer::fit(WeightingScheme::TF, docs.iter());
    let vectors: Vec<SparseVector> = docs.iter().map(|d| vectorizer.transform(d)).collect();
    let model = AggregationFunction::Sum.aggregate(&vectors, &[]);
    (model, vectors.into_iter().take(100).collect())
}

fn bench_scoring(c: &mut Criterion) {
    let (model, docs) = model_and_docs();
    let mut group = c.benchmark_group("scoring_100_docs");
    for sim in [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard] {
        group.bench_with_input(BenchmarkId::new("kernel", sim.name()), &sim, |b, &sim| {
            let kernel = ScoringKernel::new(sim, &model);
            b.iter(|| docs.iter().map(|d| kernel.score(d)).sum::<f64>())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_gram_extraction, bench_vectorize, bench_scoring
}
criterion_main!(benches);
