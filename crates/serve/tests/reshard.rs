//! Live-resharding determinism: a snapshot taken under one layout must
//! restore under *any* other — different logical shard count or worker
//! count — and continue to a byte-identical recommendation log, from any
//! pause point including the middle of a celebrity storm.
//!
//! This is the elastic-serving contract: operators reshard by snapshot →
//! restore under new `--shards`/`--workers`, and the rec log must not be
//! able to tell. It composes two invariants pinned elsewhere (snapshots
//! are layout-independent; layouts never change output) into the workflow
//! CI's `load-smoke` job repeats across processes.

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

/// The source layout every snapshot in this suite is taken under:
/// 4 logical shards on 2 workers.
fn source_runtime() -> RuntimeOptions {
    RuntimeOptions { shards: 4, workers: 2, queue_capacity: 32, ..RuntimeOptions::default() }
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
        runtime: source_runtime(),
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
        runtime: source_runtime(),
        k: 5,
        query_every: 25,
        jobs: 1,
    }
}

/// Small topic budget so debug-mode runs stay quick; `background_refresh: 0`
/// keeps the epoch-0 background for the whole replay. The refresh cadence
/// itself is pinned by [`mid_refresh_topic_reshard_is_byte_identical`].
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
        runtime: source_runtime(),
        k: 5,
        query_every: 25,
        jobs: 1,
    }
}

/// The stream position just *after* the widest fan-out event — mid-storm:
/// the celebrity's exposures are still in flight through their followers'
/// windows when the snapshot barrier lands.
fn mid_storm_position(prepared: &PreparedCorpus) -> usize {
    let stream = prepared.corpus.event_stream();
    let mut position = 0;
    let mut widest = 0;
    for (i, event) in stream.iter().enumerate() {
        let fan_out = prepared.corpus.graph.followers(event.author).len();
        if fan_out > widest {
            widest = fan_out;
            position = i + 1;
        }
    }
    assert!(widest > 1, "a power-law smoke graph must contain a celebrity");
    assert!(position < stream.len(), "the storm must not be the final event");
    position
}

/// Snapshot `options`' replay at `pause`, push the snapshot through its
/// JSONL wire format, and finish the head run. Returns the reference log
/// (an uninterrupted run), the head outcome and the wire bytes.
fn snapshot_at(
    prepared: &PreparedCorpus,
    options: ReplayOptions,
    pause: usize,
) -> (String, Vec<pmr_serve::Recommendation>, String) {
    let reference = Replay::run(prepared, options);
    assert!(reference.queries > 0, "the replay must actually issue queries");
    let reference_log = rec_log(&reference.recommendations).expect("log serializes");

    let mut head_run = Replay::new(prepared, options);
    head_run.run_to(pause);
    let snapshot = head_run.snapshot().expect("all shards alive");
    let wire = snapshot.to_jsonl().expect("snapshot serializes");
    let head = head_run.finish();
    (reference_log, head.recommendations, wire)
}

/// Restore `wire` under `runtime`, run to the end, and check the stitched
/// head+tail log replicates `reference_log` byte-for-byte.
fn restore_and_diff(
    prepared: &PreparedCorpus,
    options: ReplayOptions,
    runtime: RuntimeOptions,
    head: &[pmr_serve::Recommendation],
    wire: &str,
    reference_log: &str,
    label: &str,
) {
    let restored = EngineSnapshot::from_jsonl(wire).expect("snapshot parses");
    let resumed_options = ReplayOptions { runtime, ..options };
    let mut tail_run = Replay::resume(prepared, &restored, resumed_options).expect("configs match");
    tail_run.run_to_end();
    let tail = tail_run.finish();
    let stitched: Vec<_> = head.iter().chain(tail.recommendations.iter()).cloned().collect();
    assert_eq!(
        rec_log(&stitched).expect("log serializes"),
        reference_log,
        "resharding {label} must not change a single recommendation"
    );
}

/// The headline matrix: snapshot under 4 logical shards, restore under
/// 1/16/64 logical shards × 1/4 workers, for every model family.
#[test]
fn reshard_matrix_is_byte_identical_for_every_family() {
    for (seed, options) in [(60, bag_options()), (61, graph_options()), (65, topic_options())] {
        let prepared = prepared(seed);
        let pause = prepared.corpus.event_stream().len() / 2;
        let (reference_log, head, wire) = snapshot_at(&prepared, options, pause);
        for shards in [1usize, 16, 64] {
            for workers in [1usize, 4] {
                let runtime = RuntimeOptions {
                    shards,
                    workers,
                    queue_capacity: 16,
                    ..RuntimeOptions::default()
                };
                restore_and_diff(
                    &prepared,
                    options,
                    runtime,
                    &head,
                    &wire,
                    &reference_log,
                    &format!("4 shards -> {shards} shards x {workers} workers"),
                );
            }
        }
    }
}

/// The mid-storm case: pause immediately after the widest celebrity
/// fan-out, while the storm's exposures dominate the candidate windows,
/// and reshard in both directions (shrink and grow).
#[test]
fn mid_storm_reshard_is_byte_identical_for_both_gram_families() {
    for (seed, options) in [(63, bag_options()), (64, graph_options())] {
        let prepared = prepared(seed);
        let pause = mid_storm_position(&prepared);
        let (reference_log, head, wire) = snapshot_at(&prepared, options, pause);
        for (shards, workers) in [(1usize, 1usize), (64, 4)] {
            let runtime =
                RuntimeOptions { shards, workers, queue_capacity: 16, ..RuntimeOptions::default() };
            restore_and_diff(
                &prepared,
                options,
                runtime,
                &head,
                &wire,
                &reference_log,
                &format!("mid-storm 4 shards -> {shards} shards x {workers} workers"),
            );
        }
    }
}

/// The topic family's extra wrinkle: the background model retrains on a
/// fixed stream cadence, and a snapshot can land *between* retrains (or
/// exactly on a boundary). The snapshot carries only the epoch number —
/// the restoring side re-derives the background from `(corpus, config,
/// epoch)` and must then hit every later refresh boundary exactly as the
/// uninterrupted run did, under a different shard layout.
#[test]
fn mid_refresh_topic_reshard_is_byte_identical() {
    let refresh = 400u64;
    let mut options = topic_options();
    match &mut options.config.model {
        ServeModel::Topic { background_refresh, .. } => *background_refresh = refresh,
        other => panic!("topic_options must build a topic model, got {other:?}"),
    }
    let prepared = prepared(66);
    let stream_len = prepared.corpus.event_stream().len();
    assert!(
        stream_len as u64 > 2 * refresh,
        "the smoke stream ({stream_len} events) must cross at least two refresh boundaries"
    );
    // Pause once mid-epoch (between the first and second retrain) and once
    // exactly on a refresh boundary (the retrain fires on the resumed side).
    for pause in [refresh as usize + refresh as usize / 2, 2 * refresh as usize] {
        let (reference_log, head, wire) = snapshot_at(&prepared, options, pause);
        for (shards, workers) in [(1usize, 1usize), (16, 4)] {
            let runtime =
                RuntimeOptions { shards, workers, queue_capacity: 16, ..RuntimeOptions::default() };
            restore_and_diff(
                &prepared,
                options,
                runtime,
                &head,
                &wire,
                &reference_log,
                &format!("mid-refresh pause@{pause} -> {shards} shards x {workers} workers"),
            );
        }
    }
}
