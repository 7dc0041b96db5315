//! Micro-benchmarks of the sweep hot path before/after the shared feature
//! cache and indexed scoring kernel: gram extraction (per-call strings vs
//! cached `TermId` lookups), vectorization (string interning vs id
//! remapping) and model–document scoring (merge-join reference vs
//! pre-expanded kernel). `results/BENCH_kernel.json` is a dated record
//! of these comparisons; this bench re-measures every one of them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pmr_bag::{
    AggregationFunction, BagSimilarity, BagVectorizer, IndexedVectorizer, ScoringKernel,
    SparseVector, WeightingScheme,
};
use pmr_core::{GramKind, GramTable};
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

fn token_docs(texts: &[String]) -> Vec<Vec<String>> {
    texts.iter().map(|t| t.split_whitespace().map(str::to_owned).collect()).collect()
}

fn bench_gram_extraction(c: &mut Criterion) {
    let texts = sample_texts(200);
    let tokens = token_docs(&texts);
    let char_table =
        GramTable::from_docs(GramKind::Char, 3, texts.iter().map(|t| char_ngrams(t, 3)));
    let token_table =
        GramTable::from_docs(GramKind::Token, 2, tokens.iter().map(|t| token_ngrams(t, 2)));
    let mut group = c.benchmark_group("gram_extraction");
    group.bench_function("char3_per_call", |b| {
        b.iter(|| texts.iter().map(|t| char_ngrams(&t.to_lowercase(), 3).len()).sum::<usize>())
    });
    group.bench_function("char3_cached", |b| {
        b.iter(|| {
            (0..texts.len())
                .map(|i| char_table.doc(pmr_sim::TweetId(i as u32)).len())
                .sum::<usize>()
        })
    });
    group.bench_function("token2_per_call", |b| {
        b.iter(|| tokens.iter().map(|t| token_ngrams(t, 2).len()).sum::<usize>())
    });
    group.bench_function("token2_cached", |b| {
        b.iter(|| {
            (0..tokens.len())
                .map(|i| token_table.doc(pmr_sim::TweetId(i as u32)).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_vectorize(c: &mut Criterion) {
    let texts = sample_texts(150);
    let string_docs: Vec<Vec<String>> =
        texts.iter().map(|t| char_ngrams(&t.to_lowercase(), 3)).collect();
    let table = GramTable::from_docs(GramKind::Char, 3, string_docs.iter());
    let id_docs: Vec<&[u32]> =
        (0..texts.len()).map(|i| table.doc(pmr_sim::TweetId(i as u32))).collect();
    let by_string = BagVectorizer::fit(WeightingScheme::TFIDF, string_docs.iter());
    let by_id = IndexedVectorizer::fit(WeightingScheme::TFIDF, id_docs.iter());
    let mut group = c.benchmark_group("vectorize");
    group.bench_function("fit_strings", |b| {
        b.iter(|| BagVectorizer::fit(WeightingScheme::TFIDF, string_docs.iter()).dimensionality())
    });
    group.bench_function("fit_indexed", |b| {
        b.iter(|| IndexedVectorizer::fit(WeightingScheme::TFIDF, id_docs.iter()).dimensionality())
    });
    group.bench_function("transform_strings", |b| {
        b.iter(|| string_docs.iter().map(|d| by_string.transform(d).nnz()).sum::<usize>())
    });
    group.bench_function("transform_indexed", |b| {
        b.iter(|| id_docs.iter().map(|d| by_id.transform(d).nnz()).sum::<usize>())
    });
    group.finish();
}

/// A large aggregated user model plus small test docs — the asymmetry the
/// kernel exploits (O(nnz(doc)) beats O(nnz(model) + nnz(doc)) exactly when
/// the model is much denser than the documents).
fn model_and_docs() -> (SparseVector, Vec<SparseVector>) {
    let texts = sample_texts(400);
    let grams: Vec<Vec<String>> = texts.iter().map(|t| char_ngrams(&t.to_lowercase(), 3)).collect();
    let vectorizer = BagVectorizer::fit(WeightingScheme::TF, grams.iter());
    let vectors: Vec<SparseVector> = grams.iter().map(|g| vectorizer.transform(g)).collect();
    let model = AggregationFunction::Sum.aggregate(&vectors, &[]);
    (model, vectors.into_iter().take(100).collect())
}

fn bench_scoring(c: &mut Criterion) {
    let (model, docs) = model_and_docs();
    let mut group = c.benchmark_group("scoring_100_docs");
    for sim in [BagSimilarity::Cosine, BagSimilarity::Jaccard, BagSimilarity::GeneralizedJaccard] {
        group.bench_with_input(BenchmarkId::new("merge_join", sim.name()), &sim, |b, &sim| {
            b.iter(|| docs.iter().map(|d| sim.compare(&model, d)).sum::<f64>())
        });
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
