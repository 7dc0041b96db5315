//! Measures the sweep hot path before/after the shared feature cache and
//! indexed scoring kernel, and writes a machine-readable baseline to
//! `results/BENCH_kernel.json` so future PRs have a perf trajectory.
//!
//! ```text
//! cargo run --release -p pmr-bench --bin bench_kernel -- \
//!     --out results/BENCH_kernel.json \
//!     --sweep-before-s 71.4 --sweep-after-s 23.0
//! ```
//!
//! The micro comparisons (gram extraction, vectorize, scoring) are
//! measured in-process; the smoke-sweep wall times are passed in, since
//! the "before" number requires the pre-change build.

use std::time::Instant;

use serde::Serialize;

use pmr_bag::{
    AggregationFunction, BagSimilarity, BagVectorizer, IndexedVectorizer, ScoringKernel,
    SparseVector, WeightingScheme,
};
use pmr_bench::{parse_args, write_json, FlagError, Flags};
use pmr_core::{GramKind, GramTable};
use pmr_sim::TweetId;
use pmr_text::char_ngrams;

/// ns/op for `old` (reference path) vs `new` (cached/indexed path).
#[derive(Debug, Serialize)]
struct Comparison {
    old_ns_per_op: f64,
    new_ns_per_op: f64,
    speedup: f64,
}

impl Comparison {
    fn of(old_ns_per_op: f64, new_ns_per_op: f64) -> Comparison {
        Comparison { old_ns_per_op, new_ns_per_op, speedup: old_ns_per_op / new_ns_per_op }
    }
}

#[derive(Debug, Serialize)]
struct SweepWall {
    command: String,
    before_s: f64,
    after_s: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Baseline {
    benchmark: &'static str,
    units: &'static str,
    gram_extraction_char3: Comparison,
    vectorize_fit_tfidf: Comparison,
    vectorize_transform_tfidf: Comparison,
    score_cs: Comparison,
    score_js: Comparison,
    score_gjs: Comparison,
    /// `null` unless both `--sweep-before-s` and `--sweep-after-s` are
    /// passed (the vendored serde derive has no skip attributes).
    smoke_sweep_bag_families: Option<SweepWall>,
}

/// A deterministic pseudo-tweet corpus (same generator as the benches).
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

const USAGE: &str = "usage: bench_kernel [--out PATH] [--sweep-before-s S] [--sweep-after-s S]";

/// The command line: the output path and the optional sweep wall times.
fn parse(args: Vec<String>) -> Result<(String, Option<f64>, Option<f64>), FlagError> {
    let f = Flags::parse(args, &["--out", "--sweep-before-s", "--sweep-after-s"])?;
    let seconds = |flag| f.get(flag, "seconds", |v| v.parse().ok());
    Ok((
        f.text("--out", "results/BENCH_kernel.json"),
        seconds("--sweep-before-s")?,
        seconds("--sweep-after-s")?,
    ))
}

/// Mean ns per call of `op` over `iters` timed repetitions.
fn time_ns<O, F: FnMut() -> O>(iters: u32, mut op: F) -> f64 {
    // One warm-up call keeps allocator and cache effects out of the first
    // measured repetition.
    std::hint::black_box(op());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(op());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let (out, before_s, after_s) = parse_args(USAGE, parse);
    let texts = sample_texts(200);
    let grams: Vec<Vec<String>> = texts.iter().map(|t| char_ngrams(&t.to_lowercase(), 3)).collect();
    let table = GramTable::from_docs(GramKind::Char, 3, grams.iter());
    let docs = texts.len();

    let gram_extraction_char3 = Comparison::of(
        time_ns(200, || {
            texts.iter().map(|t| char_ngrams(&t.to_lowercase(), 3).len()).sum::<usize>()
        }) / docs as f64,
        time_ns(200, || (0..docs).map(|i| table.doc(TweetId(i as u32)).len()).sum::<usize>())
            / docs as f64,
    );

    let id_docs: Vec<&[u32]> = (0..docs).map(|i| table.doc(TweetId(i as u32))).collect();
    let by_string = BagVectorizer::fit(WeightingScheme::TFIDF, grams.iter());
    let by_id = IndexedVectorizer::fit(WeightingScheme::TFIDF, id_docs.iter());
    let vectorize_fit_tfidf = Comparison::of(
        time_ns(100, || BagVectorizer::fit(WeightingScheme::TFIDF, grams.iter()).dimensionality()),
        time_ns(100, || {
            IndexedVectorizer::fit(WeightingScheme::TFIDF, id_docs.iter()).dimensionality()
        }),
    );
    let vectorize_transform_tfidf = Comparison::of(
        time_ns(100, || grams.iter().map(|d| by_string.transform(d).nnz()).sum::<usize>())
            / docs as f64,
        time_ns(100, || id_docs.iter().map(|d| by_id.transform(d).nnz()).sum::<usize>())
            / docs as f64,
    );

    let vectors: Vec<SparseVector> = grams.iter().map(|g| by_string.transform(g)).collect();
    let model = AggregationFunction::Sum.aggregate(&vectors, &[]);
    let probe: Vec<&SparseVector> = vectors.iter().take(100).collect();
    let score = |sim: BagSimilarity| {
        let kernel = ScoringKernel::new(sim, &model);
        Comparison::of(
            time_ns(200, || probe.iter().map(|d| sim.compare(&model, d)).sum::<f64>())
                / probe.len() as f64,
            time_ns(200, || probe.iter().map(|d| kernel.score(d)).sum::<f64>())
                / probe.len() as f64,
        )
    };

    let baseline = Baseline {
        benchmark: "kernel",
        units: "ns_per_op",
        gram_extraction_char3,
        vectorize_fit_tfidf,
        vectorize_transform_tfidf,
        score_cs: score(BagSimilarity::Cosine),
        score_js: score(BagSimilarity::Jaccard),
        score_gjs: score(BagSimilarity::GeneralizedJaccard),
        smoke_sweep_bag_families: match (before_s, after_s) {
            (Some(before_s), Some(after_s)) => Some(SweepWall {
                command: "run_sweep --families TN,CN --sources all (scale smoke, jobs 1)".into(),
                before_s,
                after_s,
                speedup: before_s / after_s,
            }),
            _ => None,
        },
    };

    write_json(&out, &baseline).expect("baseline file is writable");
    eprintln!(
        "  gram extraction (char-3): {:.1}x  vectorize transform: {:.1}x  \
         CS: {:.1}x  JS: {:.1}x  GJS: {:.1}x",
        baseline.gram_extraction_char3.speedup,
        baseline.vectorize_transform_tfidf.speedup,
        baseline.score_cs.speedup,
        baseline.score_js.speedup,
        baseline.score_gjs.speedup
    );
}
