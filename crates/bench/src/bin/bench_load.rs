//! Open-loop load generator for the elastic serving runtime.
//!
//! ```text
//! cargo run --release -p pmr-bench --bin bench_load -- \
//!     --scale smoke --seed 42 --model bag --shards 64 --workers 4 \
//!     --out results/BENCH_load.json
//! ```
//!
//! Where `bench_serve` replays the stream closed-loop (each event issued
//! as soon as the previous one is accepted), this harness drives the
//! [`pmr_serve::Engine`] **open-loop**: every engine operation gets a
//! deterministic, seeded *arrival time*, and the driver issues it at that
//! time regardless of whether the engine has caught up. Latency is
//! therefore *sojourn time* — completion minus scheduled arrival — which
//! is the quantity that explodes under overload and the one coordinated
//! omission hides from closed-loop harnesses.
//!
//! Three arrival scenarios, all derived from the same operation list:
//!
//! * **poisson** — memoryless arrivals at a uniform offered rate;
//! * **storm** — the middle third of the stream arrives at `--burst`×
//!   the base rate, modelling a celebrity flash crowd on top of the
//!   corpus's intrinsic power-law fan-out (hot logical shards);
//! * **herd** — operations arrive in synchronized waves (thundering
//!   herd): a full second of work lands at one instant, then silence.
//!
//! The harness also measures raw **capacity** (all arrivals at t=0) and
//! finishes with an in-process **live-reshard** leg: snapshot mid-storm
//! under the source layout, restore under shrunken and grown layouts, and
//! byte-diff the stitched recommendation logs. Every leg's rec log must
//! equal the `Replay` reference; timing numbers are machine-specific
//! diagnostics, excluded from determinism comparisons (see EXPERIMENTS.md).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmr_bench::{fields, parse_args, BenchRecord, FlagError, Flags, Scale, Stage};
use pmr_core::{PreparedCorpus, SplitConfig};
use pmr_serve::{
    corpus_ops, precompute_features, rec_log, Engine, EngineConfig, EngineSnapshot, Op, Replay,
    ReplayOptions, RuntimeOptions,
};
use pmr_sim::{generate_corpus, SimConfig};

const USAGE: &str = "usage: bench_load [--scale smoke|default|full] [--seed N] \
     [--model bag|graph] [--shards N] [--workers N] [--queue N] [--k N] [--query-every N] \
     [--window N] [--paced-seconds S] [--burst X] [--out PATH]";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    scale: Scale,
    seed: u64,
    model: String,
    config: EngineConfig,
    runtime: RuntimeOptions,
    k: usize,
    query_every: usize,
    paced_seconds: f64,
    burst: f64,
    out: String,
}

fn parse(args: Vec<String>) -> Result<Args, FlagError> {
    let f = Flags::parse(
        args,
        &[
            "--scale",
            "--seed",
            "--model",
            "--shards",
            "--workers",
            "--queue",
            "--k",
            "--query-every",
            "--window",
            "--paced-seconds",
            "--burst",
            "--out",
        ],
    )?;
    let seed = f.number("--seed", 42)?;
    let model = f.text("--model", "bag");
    // `drive` never installs a topic background, so only the gram presets
    // are served.
    let serve_model = pmr_bench::serve_model(&model, seed, 0)
        .filter(|m| m.online_topic().is_none())
        .ok_or_else(|| FlagError(format!("bad --model value {model:?} (want bag|graph)")))?;
    Ok(Args {
        scale: f.scale()?,
        seed,
        model,
        config: EngineConfig { model: serve_model, window: f.number("--window", 128)? },
        runtime: RuntimeOptions {
            shards: f.number("--shards", 64)?,
            workers: f.number("--workers", 4)?,
            queue_capacity: f.number("--queue", 256)?,
            ..RuntimeOptions::default()
        },
        k: f.number("--k", 10)?,
        query_every: f.number("--query-every", 25)?,
        paced_seconds: f.number("--paced-seconds", 2.0)?,
        burst: f.number("--burst", 8.0)?,
        out: f.text("--out", "results/BENCH_load.json"),
    })
}

fn main() {
    let Args { scale, seed, model, config, runtime, k, query_every, paced_seconds, burst, out } =
        parse_args(USAGE, parse);
    let RuntimeOptions { shards, workers, queue_capacity, .. } = runtime;
    let params = fields! {
        "model": model, "shards": shards, "workers": workers, "queue_capacity": queue_capacity,
        "k": k, "query_every": query_every, "window": config.window,
        "paced_seconds": paced_seconds, "burst": burst,
    };
    let what = "open-loop sojourn latency under seeded arrivals, capacity, and live resharding";
    let mut record = BenchRecord::new("bench_load", what, scale.name(), seed, params);

    eprintln!("preparing corpus (scale {scale:?}, seed {seed})...");
    let corpus = generate_corpus(&SimConfig::preset(scale.preset(), seed));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    // The stream flattened into engine ops (one event fans out to many) so
    // arrivals can be paced individually.
    let features = precompute_features(&prepared, config.model, workers.max(1));
    let ops = corpus_ops(&prepared.corpus, &features, k, query_every);
    assert!(!ops.is_empty(), "the corpus must produce at least one operation");

    // The determinism reference: an uninterrupted Replay under an
    // arbitrary layout. Every leg below must replicate its rec log.
    let replay_options = ReplayOptions { config, runtime, k, query_every, jobs: 1 };
    let reference = Replay::run(&prepared, replay_options);
    let reference_log = rec_log(&reference.recommendations).expect("log serializes");
    assert!(reference.queries > 0, "the stream must issue queries");

    let mut rec_log_identical = true;
    let mut check_log = |leg: &str, recs: &[pmr_serve::Recommendation]| {
        let log = rec_log(recs).expect("log serializes");
        if log != reference_log {
            rec_log_identical = false;
            eprintln!("DIVERGENT rec log in leg {leg}");
        }
    };

    // Capacity: all arrivals at t=0. Three repetitions, best kept — a
    // capacity leg finishes in well under a second at smoke scale, so a
    // single run is scheduler-noise-bound.
    let mut runs = Vec::new();
    let mut best: Option<(Duration, pmr_obs::MetricsSnapshot)> = None;
    for _ in 0..3 {
        let (elapsed, metrics, recs) = drive(config, runtime, &ops, None);
        check_log("capacity", &recs);
        runs.push(elapsed);
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, metrics));
        }
    }
    let (elapsed, metrics) = best.expect("three repetitions ran");
    record.stages.push(Stage::timed("capacity", &runs));
    record.headline = fields! {
        "stream_events": prepared.corpus.len(), "ops": ops.len(), "queries": reference.queries,
        "capacity_elapsed_s": elapsed.as_secs_f64(),
        "capacity_ops_per_sec": ops.len() as f64 / elapsed.as_secs_f64(),
        "capacity_backpressure": metrics.counter("serve.backpressure"),
    };
    eprintln!("capacity: {}", serde_json::to_value(&record.headline));

    // Paced scenarios.
    let rate = ops.len() as f64 / paced_seconds.max(0.1);
    let mut scenarios = Vec::new();
    for scenario in ["poisson", "storm", "herd"] {
        let schedule = build_schedule(scenario, ops.len(), rate, burst, seed);
        let (elapsed, metrics, recs) = drive(config, runtime, &ops, Some(&schedule));
        check_log(scenario, &recs);
        record.stages.push(Stage::timed(scenario, &[elapsed]));
        let mut row = fields! {
            "scenario": scenario, "offered_ops_per_sec": rate,
            "backpressure": metrics.counter("serve.backpressure"),
            "backpressure_buckets": backpressure_buckets(&metrics),
            "steals": metrics.counter("serve.runtime.steals"),
            "parks": metrics.counter("serve.runtime.parks"),
            "yields": metrics.counter("serve.runtime.yields"),
        };
        row.push_latency("ingest", metrics.histogram("load.ingest"));
        row.push_latency("query", metrics.histogram("load.query"));
        eprintln!("{scenario}: {}", serde_json::to_value(&row));
        scenarios.push(row);
    }
    record.table("scenarios", scenarios);
    record.check(
        "every capacity and scenario leg's rec log equals the replay reference",
        rec_log_identical,
    );

    // Live reshard: snapshot mid-storm under the source layout, restore
    // shrunken and grown, byte-diff the stitched logs.
    reshard_leg(&prepared, replay_options, &reference_log, &mut record);
    record.finish(&out)
}

/// Deterministic, seeded arrival offsets for every operation. Offsets are
/// non-decreasing (cumulative inter-arrival gaps), so the single-writer
/// driver issues operations in list order and sojourn times are always
/// measured against a past-or-present arrival instant.
fn build_schedule(scenario: &str, ops: usize, rate: f64, burst: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ scenario.len() as u64 ^ 0x6c6f6164);
    let mut exp_gap = |mean: f64| -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -u.ln() * mean
    };
    let base_gap = 1.0 / rate.max(1.0);
    let mut offsets = Vec::with_capacity(ops);
    let mut t = 0.0f64;
    match scenario {
        // Memoryless arrivals at the uniform offered rate.
        "poisson" => {
            for _ in 0..ops {
                t += exp_gap(base_gap);
                offsets.push(Duration::from_secs_f64(t));
            }
        }
        // Flash crowd: the middle third arrives `burst`× faster.
        "storm" => {
            let (lo, hi) = (ops / 3, 2 * ops / 3);
            for i in 0..ops {
                let mean = if (lo..hi).contains(&i) { base_gap / burst.max(1.0) } else { base_gap };
                t += exp_gap(mean);
                offsets.push(Duration::from_secs_f64(t));
            }
        }
        // Thundering herd: a full wave of work lands at one instant.
        _ => {
            let wave = (rate.max(1.0) as usize).max(1);
            for i in 0..ops {
                if i % wave == 0 {
                    t += wave as f64 * base_gap;
                }
                offsets.push(Duration::from_secs_f64(t));
            }
        }
    }
    offsets
}

/// Drive one engine through `ops`. With a schedule, each operation is
/// released at its arrival offset (open-loop); without one, everything is
/// offered at t=0 (capacity). Returns the wall time across all ops, the
/// leg's metrics snapshot, and the recommendations in query-id order.
fn drive(
    config: EngineConfig,
    runtime: RuntimeOptions,
    ops: &[Op],
    schedule: Option<&[Duration]>,
) -> (Duration, pmr_obs::MetricsSnapshot, Vec<pmr_serve::Recommendation>) {
    pmr_obs::install(pmr_obs::Recorder::monotonic());
    let mut engine = Engine::start(config, runtime);
    let mut query_arrivals: Vec<Instant> = Vec::new();
    let mut answered: u64 = 0;
    let start = Instant::now();
    let record_answers = |engine: &mut Engine, arrivals: &[Instant], answered: &mut u64| {
        for id in engine.poll_answered() {
            let done = Instant::now();
            pmr_obs::observe_duration(
                "load.query",
                done.saturating_duration_since(arrivals[id as usize]),
            );
            *answered += 1;
        }
    };
    for (i, op) in ops.iter().enumerate() {
        let arrival = match schedule {
            Some(s) => {
                let target = start + s[i];
                loop {
                    // Collect answers in every wait slice: a query's sojourn
                    // ends when its answer is seen, so the driver must not
                    // sleep through it until the next op is due.
                    record_answers(&mut engine, &query_arrivals, &mut answered);
                    let now = Instant::now();
                    if now >= target {
                        break;
                    }
                    // Short sleeps keep the release jitter well under the
                    // microsecond buckets the histograms resolve.
                    std::thread::sleep((target - now).min(Duration::from_micros(200)));
                }
                target
            }
            // Capacity mode: arrival is the issue instant, so "sojourn"
            // degenerates to pure service/backpressure time.
            None => Instant::now(),
        };
        match engine.apply(op) {
            Some(id) => {
                debug_assert_eq!(id as usize, query_arrivals.len());
                query_arrivals.push(arrival);
            }
            None => pmr_obs::observe_duration(
                "load.ingest",
                Instant::now().saturating_duration_since(arrival),
            ),
        }
    }
    // Wait for the in-flight tail so every query gets a sojourn sample.
    let issued = engine.queries_issued();
    let deadline = Instant::now() + Duration::from_secs(30);
    while answered < issued && Instant::now() < deadline {
        record_answers(&mut engine, &query_arrivals, &mut answered);
        if answered < issued {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let elapsed = start.elapsed();
    let recommendations = engine.finish();
    let metrics = pmr_obs::snapshot().expect("recorder is installed");
    pmr_obs::uninstall();
    (elapsed, metrics, recommendations)
}

/// Collect the per-shard log-4 backpressure buckets
/// (`serve.backpressure.shard_b0..`), trimming trailing zeros.
fn backpressure_buckets(metrics: &pmr_obs::MetricsSnapshot) -> Vec<u64> {
    let mut buckets: Vec<u64> =
        (0..11).map(|b| metrics.counter(&format!("serve.backpressure.shard_b{b}"))).collect();
    while buckets.last() == Some(&0) {
        buckets.pop();
    }
    buckets
}

/// The live-reshard leg: run the source layout to just past the widest
/// celebrity fan-out (mid-storm), snapshot through the JSONL wire format,
/// and restore under shrunken and grown layouts. The stitched head+tail
/// rec log must byte-equal the reference: one row and check per layout.
fn reshard_leg(
    prepared: &PreparedCorpus,
    options: ReplayOptions,
    reference_log: &str,
    record: &mut BenchRecord,
) {
    let stream = prepared.corpus.event_stream();
    let mut pause = 0;
    let mut widest = 0;
    for (i, event) in stream.iter().enumerate() {
        let fan_out = prepared.corpus.graph.followers(event.author).len();
        if fan_out > widest {
            widest = fan_out;
            pause = i + 1;
        }
    }
    let pause = pause.min(stream.len().saturating_sub(1)).max(1);

    let mut head_run = Replay::new(prepared, options);
    head_run.run_to(pause);
    let snapshot = head_run.snapshot().expect("all shards alive");
    let wire = snapshot.to_jsonl().expect("snapshot serializes");
    let head = head_run.finish();

    let source = options.runtime;
    let mut layouts = Vec::new();
    for (shards, workers) in [(1usize, 1usize), (source.shards * 4, source.workers * 2), (4, 4)] {
        let restored = EngineSnapshot::from_jsonl(&wire).expect("snapshot parses");
        let runtime = RuntimeOptions { shards, workers, ..source };
        let mut tail_run =
            Replay::resume(prepared, &restored, ReplayOptions { runtime, ..options })
                .expect("configs match");
        tail_run.run_to_end();
        let tail = tail_run.finish();
        let stitched: Vec<_> =
            head.recommendations.iter().chain(tail.recommendations.iter()).cloned().collect();
        let identical = rec_log(&stitched).expect("log serializes") == reference_log;
        record.check(
            format!(
                "live reshard {}x{} -> {shards}x{workers} at event {pause} continues the \
                 reference log",
                source.shards, source.workers
            ),
            identical,
        );
        layouts.push(fields! {
            "snapshot_at_event": pause, "shards": shards, "workers": workers,
            "identical": identical,
        });
    }
    record.table("reshard", layouts);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sparse_query_is_answered_without_waiting_for_the_next_op() {
        let corpus = generate_corpus(&SimConfig::preset(Scale::Smoke.preset(), 42));
        let prepared =
            PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
        let model = pmr_bench::serve_model("bag", 42, 0).expect("bag preset");
        let config = EngineConfig { model, window: 128 };
        let features = precompute_features(&prepared, config.model, 1);
        let ops = corpus_ops(&prepared.corpus, &features, 10, 25);
        let first_query =
            ops.iter().position(|op| matches!(op, Op::Query { .. })).expect("a query is issued");
        let ops = &ops[..=first_query + 1];
        // The op after the query arrives a whole second later.
        let mut schedule = vec![Duration::ZERO; ops.len()];
        schedule[ops.len() - 1] = Duration::from_secs(1);
        let runtime = RuntimeOptions { shards: 4, workers: 1, ..RuntimeOptions::default() };
        let (_, metrics, recs) = drive(config, runtime, ops, Some(&schedule));
        assert_eq!(recs.len(), 1, "the query is answered");
        let sojourn = metrics.histogram("load.query").expect("the query's sojourn is observed");
        assert_eq!(sojourn.count, 1);
        assert!(
            sojourn.max_us < 500_000,
            "sojourn {}us waited for the next arrival",
            sojourn.max_us
        );
    }
}
