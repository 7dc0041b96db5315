//! The serving engine's determinism contract, enforced in-repo (CI's
//! `serve-smoke` job repeats the same checks across *processes*): shard
//! count, worker count, queue capacity and feature-precompute
//! thread count must never change a byte of recommendation or snapshot
//! output, and `serving_outputs_match_pinned_digests` pins those bytes
//! themselves against change in the query path.

use pmr_bag::{BagSimilarity, WeightingScheme};
use pmr_core::{PreparedCorpus, SplitConfig};
use pmr_graph::GraphSimilarity;
use pmr_serve::{
    rec_log, EngineConfig, EngineSnapshot, Replay, ReplayOptions, RuntimeOptions, ServeModel,
};
use pmr_sim::{generate_corpus, ScalePreset, SimConfig};

fn prepared(seed: u64) -> PreparedCorpus {
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, seed));
    PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed")
}

fn bag_options() -> ReplayOptions {
    ReplayOptions {
        config: EngineConfig {
            model: ServeModel::Bag {
                weighting: WeightingScheme::TFIDF,
                similarity: BagSimilarity::Cosine,
                char_grams: false,
                n: 1,
                decay: 0.95,
            },
            window: 32,
        },
        runtime: RuntimeOptions { shards: 1, queue_capacity: 64, ..RuntimeOptions::default() },
        k: 5,
        query_every: 10,
        jobs: 1,
    }
}

fn graph_options() -> ReplayOptions {
    ReplayOptions {
        config: EngineConfig {
            model: ServeModel::Graph {
                similarity: GraphSimilarity::Value,
                char_grams: false,
                n: 1,
            },
            window: 16,
        },
        runtime: RuntimeOptions { shards: 1, queue_capacity: 64, ..RuntimeOptions::default() },
        k: 5,
        query_every: 25,
        jobs: 1,
    }
}

/// Small topic budget (K = 8, 12 training sweeps) so debug-mode test runs
/// stay quick; `background_refresh: 0` keeps the epoch-0 background for the
/// whole replay (the refresh cadence is pinned by the reshard suite).
fn topic_options() -> ReplayOptions {
    ReplayOptions {
        config: EngineConfig {
            model: ServeModel::Topic {
                topics: 8,
                alpha: 50.0 / 8.0,
                beta: 0.01,
                train_iterations: 12,
                foldin_iterations: 4,
                seed: 7,
                decay: 0.95,
                background_refresh: 0,
            },
            window: 16,
        },
        runtime: RuntimeOptions { shards: 1, queue_capacity: 64, ..RuntimeOptions::default() },
        k: 5,
        query_every: 25,
        jobs: 1,
    }
}

#[test]
fn shard_count_does_not_change_bag_recommendations() {
    let prepared = prepared(42);
    let mut options = bag_options();
    let baseline = Replay::run(&prepared, options);
    assert!(baseline.queries > 0, "the replay must actually issue queries");
    assert_eq!(
        baseline.recommendations.len() as u64,
        baseline.queries,
        "every query must be answered exactly once"
    );
    for shards in [2, 4, 7] {
        options.runtime = RuntimeOptions { shards, queue_capacity: 8, ..RuntimeOptions::default() };
        let sharded = Replay::run(&prepared, options);
        assert_eq!(
            rec_log(&sharded.recommendations).expect("log serializes"),
            rec_log(&baseline.recommendations).expect("log serializes"),
            "{shards} shards must produce the byte-identical recommendation log"
        );
    }
}

#[test]
fn shard_count_does_not_change_graph_recommendations() {
    let prepared = prepared(43);
    let mut options = graph_options();
    let baseline = Replay::run(&prepared, options);
    assert!(baseline.queries > 0, "the replay must actually issue queries");
    options.runtime = RuntimeOptions { shards: 4, queue_capacity: 16, ..RuntimeOptions::default() };
    let sharded = Replay::run(&prepared, options);
    assert_eq!(
        rec_log(&sharded.recommendations).expect("log serializes"),
        rec_log(&baseline.recommendations).expect("log serializes"),
        "graph scores must be bit-identical across shard layouts"
    );
}

#[test]
fn shard_count_does_not_change_topic_recommendations() {
    // Fold-in θ is a pure function of (background φ, doc, doc key), and the
    // per-shard θ memo only caches those pure values — so cache hit/miss
    // patterns that differ across layouts cannot reach the output bytes.
    let prepared = prepared(53);
    let mut options = topic_options();
    let baseline = Replay::run(&prepared, options);
    assert!(baseline.queries > 0, "the replay must actually issue queries");
    for shards in [2, 4, 7] {
        options.runtime = RuntimeOptions { shards, queue_capacity: 8, ..RuntimeOptions::default() };
        let sharded = Replay::run(&prepared, options);
        assert_eq!(
            rec_log(&sharded.recommendations).expect("log serializes"),
            rec_log(&baseline.recommendations).expect("log serializes"),
            "{shards} shards must produce the byte-identical topic recommendation log"
        );
    }
}

#[test]
fn feature_jobs_do_not_change_recommendations() {
    let prepared = prepared(44);
    let mut options = bag_options();
    let one = Replay::run(&prepared, options);
    options.jobs = 4;
    let four = Replay::run(&prepared, options);
    assert_eq!(
        rec_log(&one.recommendations).expect("log serializes"),
        rec_log(&four.recommendations).expect("log serializes"),
        "feature precompute parallelism must not leak into output"
    );
}

#[test]
fn snapshot_restores_bit_identical_continuations() {
    let prepared = prepared(45);
    let options = bag_options();

    // Uninterrupted reference run.
    let reference = Replay::run(&prepared, options);

    // Paused run: snapshot halfway, push the snapshot through its JSONL
    // wire format, resume under a *different* shard layout, and finish.
    let mut first_half = Replay::new(&prepared, options);
    let midpoint = first_half.stream_len() / 2;
    first_half.run_to(midpoint);
    let snapshot = first_half.snapshot().expect("all shards alive");
    let paused_queries = snapshot.header.queries;
    let wire = snapshot.to_jsonl().expect("snapshot serializes");
    let restored = EngineSnapshot::from_jsonl(&wire).expect("snapshot parses");
    let head = first_half.finish();

    let mut resumed_options = options;
    resumed_options.runtime =
        RuntimeOptions { shards: 3, queue_capacity: 32, ..RuntimeOptions::default() };
    let mut second_half =
        Replay::resume(&prepared, &restored, resumed_options).expect("configs match");
    assert_eq!(second_half.position(), midpoint);
    second_half.run_to_end();
    let tail = second_half.finish();

    // Head + tail must replicate the reference byte-for-byte.
    let stitched: Vec<_> =
        head.recommendations.iter().chain(tail.recommendations.iter()).cloned().collect();
    assert_eq!(
        rec_log(&stitched).expect("log serializes"),
        rec_log(&reference.recommendations).expect("log serializes"),
        "pause/resume must not change a single recommendation"
    );
    assert!(paused_queries > 0 && (tail.queries - paused_queries) > 0);
}

#[test]
fn snapshot_bytes_are_independent_of_shard_count() {
    for (seed, options) in [(46, graph_options()), (54, topic_options())] {
        let prepared = prepared(seed);
        let mut options = options;
        let mut runs = Vec::new();
        for shards in [1, 4] {
            options.runtime =
                RuntimeOptions { shards, queue_capacity: 16, ..RuntimeOptions::default() };
            let mut replay = Replay::new(&prepared, options);
            replay.run_to(replay.stream_len() / 3);
            runs.push(
                replay
                    .snapshot()
                    .expect("all shards alive")
                    .to_jsonl()
                    .expect("snapshot serializes"),
            );
            let _ = replay.finish();
        }
        assert_eq!(runs[0], runs[1], "snapshots must not encode the shard layout");
    }
}

#[test]
fn resume_rejects_mismatched_configs() {
    let prepared = prepared(47);
    let options = bag_options();
    let mut replay = Replay::new(&prepared, options);
    replay.run_to(20);
    let snapshot = replay.snapshot().expect("all shards alive");
    let _ = replay.finish();
    let mut wrong = options;
    wrong.config.window += 1;
    assert!(
        Replay::resume(&prepared, &snapshot, wrong).is_err(),
        "a snapshot only makes sense under the config that produced it"
    );
}

#[test]
fn resume_rejects_a_snapshot_past_the_end_of_the_stream() {
    let prepared = prepared(47);
    let options = bag_options();
    let mut replay = Replay::new(&prepared, options);
    let stream_len = replay.stream_len();
    replay.run_to(20);
    let mut snapshot = replay.snapshot().expect("all shards alive");
    let _ = replay.finish();
    snapshot.header.events = stream_len as u64 + 5;
    let restored = EngineSnapshot::from_jsonl(&snapshot.to_jsonl().expect("snapshot serializes"))
        .expect("the header itself is well-formed");
    assert!(
        Replay::resume(&prepared, &restored, options).is_err(),
        "a snapshot cannot be positioned past the stream it was taken from"
    );
}

#[test]
fn scheduler_and_worker_count_do_not_change_recommendations() {
    // The runtime multiplexes logical shards over any number of worker
    // threads, and which worker runs which shard is scheduling noise. All
    // of it is mechanical: same shards, same bytes.
    for (seed, options) in [(51, bag_options()), (52, graph_options()), (55, topic_options())] {
        let prepared = prepared(seed);
        let mut options = options;
        let runtime = |workers| RuntimeOptions {
            shards: 8,
            workers,
            queue_capacity: 8,
            ..RuntimeOptions::default()
        };
        options.runtime = runtime(1);
        let single = Replay::run(&prepared, options);
        assert!(single.queries > 0, "the replay must actually issue queries");
        for workers in [2, 4] {
            options.runtime = runtime(workers);
            let stolen = Replay::run(&prepared, options);
            assert_eq!(
                rec_log(&stolen.recommendations).expect("log serializes"),
                rec_log(&single.recommendations).expect("log serializes"),
                "{workers} workers must replicate one worker byte-for-byte"
            );
        }
    }
}

#[test]
fn tiny_queues_only_cost_backpressure_never_correctness() {
    let prepared = prepared(48);
    let mut options = bag_options();
    let roomy = Replay::run(&prepared, options);
    options.runtime = RuntimeOptions { shards: 2, queue_capacity: 1, ..RuntimeOptions::default() };
    let squeezed = Replay::run(&prepared, options);
    assert_eq!(
        rec_log(&squeezed.recommendations).expect("log serializes"),
        rec_log(&roomy.recommendations).expect("log serializes"),
        "a one-slot queue may block the writer but must not reorder anything"
    );
}

/// FNV-1a (64-bit) over `bytes`: a stable digest for pinning output bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn serving_outputs_match_pinned_digests() {
    // Every other test in this file compares two layouts of the same
    // build, so a query-path change that moves the bytes on both sides
    // passes them all. These constants pin the bytes themselves: the rec
    // log of a full smoke replay and the snapshot JSONL taken at its
    // midpoint, for every bag and graph similarity and the topic family.
    // Change them only in a change that means to move serving outputs.
    let bag = |similarity| {
        let mut options = bag_options();
        if let ServeModel::Bag { similarity: s, .. } = &mut options.config.model {
            *s = similarity;
        }
        options
    };
    let graph = |similarity| {
        let mut options = graph_options();
        if let ServeModel::Graph { similarity: s, .. } = &mut options.config.model {
            *s = similarity;
        }
        options
    };
    let cases = [
        ("bag CS", bag(BagSimilarity::Cosine), 0xafec_fc48_2015_14f6, 0x7fee_de10_198c_60e0),
        ("bag JS", bag(BagSimilarity::Jaccard), 0x0ebf_e88f_9745_f982, 0x2735_a0c7_bc02_e295),
        (
            "bag GJS",
            bag(BagSimilarity::GeneralizedJaccard),
            0x8c92_56f2_786b_fc31,
            0x3531_b6a5_0fb8_06e3,
        ),
        (
            "graph CoS",
            graph(GraphSimilarity::Containment),
            0xf11b_a533_67c9_a290,
            0xbe41_9629_e0cb_2974,
        ),
        ("graph VS", graph(GraphSimilarity::Value), 0x2283_7d02_f5c5_2f04, 0xce16_5dc9_20a0_4a03),
        (
            "graph NS",
            graph(GraphSimilarity::NormalizedValue),
            0x10dc_3d9b_d76a_797e,
            0xe30b_04c9_015b_b322,
        ),
        ("topic", topic_options(), 0x67d3_881b_8bc2_9345, 0xf2cc_b960_bded_198b),
    ];
    let prepared = prepared(42);
    let mut mismatches = Vec::new();
    for (name, options, log_digest, snapshot_digest) in cases {
        let mut replay = Replay::new(&prepared, options);
        replay.run_to(replay.stream_len() / 2);
        let snapshot =
            replay.snapshot().expect("all shards alive").to_jsonl().expect("snapshot serializes");
        replay.run_to_end();
        let outcome = replay.finish();
        assert!(outcome.queries > 0, "{name}: the replay must actually issue queries");
        let log = rec_log(&outcome.recommendations).expect("log serializes");
        let got = (fnv1a(log.as_bytes()), fnv1a(snapshot.as_bytes()));
        if got != (log_digest, snapshot_digest) {
            mismatches.push(format!("{name}: rec log {:#018x}, snapshot {:#018x}", got.0, got.1));
        }
    }
    assert!(mismatches.is_empty(), "serving outputs moved:\n{}", mismatches.join("\n"));
}
