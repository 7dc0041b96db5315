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
//! The harness also measures raw **capacity** (all arrivals at t=0) for
//! the work-stealing runtime vs. the thread-per-shard baseline — the
//! elastic-serving speedup figure — and finishes with an in-process
//! **live-reshard** leg: snapshot mid-storm under the source layout,
//! restore under shrunken and grown layouts, and byte-diff the stitched
//! recommendation logs. Every leg's rec log must equal the `Replay`
//! reference; timing numbers are machine-specific diagnostics, excluded
//! from determinism comparisons (see EXPERIMENTS.md).

use std::process::exit;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use pmr_bench::Scale;
use pmr_core::{PreparedCorpus, SplitConfig};
use pmr_serve::{
    corpus_ops, precompute_features, rec_log, Engine, EngineConfig, EngineSnapshot, Op, Replay,
    ReplayOptions, RuntimeOptions, Scheduler, ServeModel,
};
use pmr_sim::{generate_corpus, SimConfig};

#[derive(Debug, Serialize)]
struct LatencySummary {
    count: u64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
}

impl LatencySummary {
    fn from_histogram(h: Option<&pmr_obs::HistogramSnapshot>) -> LatencySummary {
        match h {
            Some(h) => LatencySummary {
                count: h.count,
                p50_us: h.quantile_us(0.5),
                p99_us: h.quantile_us(0.99),
                p999_us: h.quantile_us(0.999),
                max_us: h.max_us,
            },
            None => LatencySummary { count: 0, p50_us: 0, p99_us: 0, p999_us: 0, max_us: 0 },
        }
    }
}

#[derive(Debug, Serialize)]
struct CapacityLeg {
    scheduler: &'static str,
    shards: usize,
    workers: usize,
    elapsed_s: f64,
    ops_per_sec: f64,
    backpressure: u64,
}

#[derive(Debug, Serialize)]
struct ScenarioLeg {
    scenario: &'static str,
    offered_ops_per_sec: f64,
    elapsed_s: f64,
    ingest: LatencySummary,
    query: LatencySummary,
    backpressure: u64,
    /// Per-logical-shard backpressure, log-4 bucketed by shard id
    /// (`serve.backpressure.shard_b*`); trailing zero buckets trimmed.
    backpressure_buckets: Vec<u64>,
    steals: u64,
    parks: u64,
    yields: u64,
}

#[derive(Debug, Serialize)]
struct ReshardLayout {
    shards: usize,
    workers: usize,
    scheduler: &'static str,
    identical: bool,
}

#[derive(Debug, Serialize)]
struct ReshardLeg {
    snapshot_at_event: usize,
    source_shards: usize,
    source_workers: usize,
    layouts: Vec<ReshardLayout>,
    identical: bool,
}

#[derive(Debug, Serialize)]
struct LoadReport {
    benchmark: &'static str,
    scale: String,
    seed: u64,
    model: String,
    shards: usize,
    workers: usize,
    queue_capacity: usize,
    k: usize,
    query_every: usize,
    window: usize,
    stream_events: usize,
    ops: usize,
    queries: u64,
    capacity: Vec<CapacityLeg>,
    /// Work-steal ops/s over thread-per-shard ops/s at the same shard
    /// count — the elastic-serving headline figure.
    speedup: f64,
    scenarios: Vec<ScenarioLeg>,
    /// Every leg's recommendation log byte-equals the `Replay` reference.
    rec_log_identical: bool,
    reshard: ReshardLeg,
}

fn usage(problem: &str) -> ! {
    eprintln!("bench_load: {problem}");
    eprintln!(
        "usage: bench_load [--scale smoke|default|full] [--seed N] [--model bag|graph] \
         [--shards N] [--workers N] [--queue N] [--k N] [--query-every N] [--window N] \
         [--paced-seconds S] [--burst X] [--out PATH]"
    );
    exit(2);
}

fn main() {
    let mut scale = Scale::Smoke;
    let mut seed: u64 = 42;
    let mut model = String::from("bag");
    let mut shards: usize = 64;
    let mut workers: usize = 4;
    let mut queue: usize = 256;
    let mut k: usize = 10;
    let mut query_every: usize = 25;
    let mut window: usize = 128;
    let mut paced_seconds: f64 = 2.0;
    let mut burst: f64 = 8.0;
    let mut out = String::from("results/BENCH_load.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().unwrap_or_else(|| usage(&format!("{flag} requires a value")));
        let parse_usize = |flag: &str, v: String| {
            v.parse::<usize>().unwrap_or_else(|_| usage(&format!("{flag} wants a number")))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value("--scale");
                scale = Scale::parse(&v).unwrap_or_else(|| usage(&format!("unknown scale {v:?}")));
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|_| usage("--seed wants a number"))
            }
            "--model" => model = value("--model"),
            "--shards" => shards = parse_usize("--shards", value("--shards")),
            "--workers" => workers = parse_usize("--workers", value("--workers")),
            "--queue" => queue = parse_usize("--queue", value("--queue")),
            "--k" => k = parse_usize("--k", value("--k")),
            "--query-every" => query_every = parse_usize("--query-every", value("--query-every")),
            "--window" => window = parse_usize("--window", value("--window")),
            "--paced-seconds" => {
                paced_seconds = value("--paced-seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("--paced-seconds wants seconds"))
            }
            "--burst" => {
                burst = value("--burst").parse().unwrap_or_else(|_| usage("--burst wants a factor"))
            }
            "--out" => out = value("--out"),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let serve_model = match model.as_str() {
        "bag" => ServeModel::Bag {
            weighting: pmr_bag::WeightingScheme::TFIDF,
            similarity: pmr_bag::BagSimilarity::Cosine,
            char_grams: false,
            n: 1,
            decay: 0.99,
        },
        "graph" => ServeModel::Graph {
            similarity: pmr_graph::GraphSimilarity::Value,
            char_grams: false,
            n: 1,
        },
        other => usage(&format!("unknown model {other:?} (bag|graph)")),
    };
    let config = EngineConfig { model: serve_model, window };

    eprintln!("preparing corpus (scale {scale:?}, seed {seed})...");
    let corpus = generate_corpus(&SimConfig::preset(scale.preset(), seed));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    // The stream flattened into engine ops (one event fans out to many) so
    // arrivals can be paced individually.
    let features = precompute_features(&prepared, serve_model, workers.max(1));
    let ops = corpus_ops(&prepared.corpus, &features, k, query_every);
    assert!(!ops.is_empty(), "the corpus must produce at least one operation");

    // The determinism reference: an uninterrupted Replay under an
    // arbitrary layout. Every leg below must replicate its rec log.
    let replay_options = ReplayOptions {
        config,
        runtime: RuntimeOptions {
            shards,
            workers,
            queue_capacity: queue,
            ..RuntimeOptions::default()
        },
        k,
        query_every,
        jobs: 1,
    };
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

    // Capacity: all arrivals at t=0, work-steal vs. thread-per-shard.
    // Three repetitions, best kept — a capacity leg finishes in well under
    // a second at smoke scale, so a single run is scheduler-noise-bound.
    let mut capacity = Vec::new();
    for (scheduler, leg_workers) in [(Scheduler::Threaded, shards), (Scheduler::WorkSteal, workers)]
    {
        let runtime = RuntimeOptions { shards, workers, queue_capacity: queue, scheduler };
        let mut best: Option<(Duration, pmr_obs::MetricsSnapshot)> = None;
        for _ in 0..3 {
            let (elapsed, metrics, recs) = drive(config, runtime, &ops, None);
            check_log(scheduler.name(), &recs);
            if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
                best = Some((elapsed, metrics));
            }
        }
        let (elapsed, metrics) = best.expect("three repetitions ran");
        let leg = CapacityLeg {
            scheduler: scheduler.name(),
            shards,
            workers: leg_workers,
            elapsed_s: elapsed.as_secs_f64(),
            ops_per_sec: ops.len() as f64 / elapsed.as_secs_f64(),
            backpressure: metrics.counter("serve.backpressure"),
        };
        eprintln!(
            "capacity[{}]: {} ops in {:.2}s ({:.0} ops/s, backpressure {})",
            leg.scheduler,
            ops.len(),
            leg.elapsed_s,
            leg.ops_per_sec,
            leg.backpressure
        );
        capacity.push(leg);
    }
    let speedup = capacity[1].ops_per_sec / capacity[0].ops_per_sec;
    eprintln!(
        "speedup: worksteal({workers} workers) = {speedup:.2}x thread-per-shard ({shards} shards)"
    );

    // Paced scenarios on the work-stealing runtime.
    let rate = ops.len() as f64 / paced_seconds.max(0.1);
    let mut scenarios = Vec::new();
    for scenario in ["poisson", "storm", "herd"] {
        let schedule = build_schedule(scenario, ops.len(), rate, burst, seed);
        let runtime = RuntimeOptions {
            shards,
            workers,
            queue_capacity: queue,
            scheduler: Scheduler::WorkSteal,
        };
        let (elapsed, metrics, recs) = drive(config, runtime, &ops, Some(&schedule));
        check_log(scenario, &recs);
        let buckets = backpressure_buckets(&metrics);
        let leg = ScenarioLeg {
            scenario: match scenario {
                "poisson" => "poisson",
                "storm" => "storm",
                _ => "herd",
            },
            offered_ops_per_sec: rate,
            elapsed_s: elapsed.as_secs_f64(),
            ingest: LatencySummary::from_histogram(metrics.histogram("load.ingest")),
            query: LatencySummary::from_histogram(metrics.histogram("load.query")),
            backpressure: metrics.counter("serve.backpressure"),
            backpressure_buckets: buckets,
            steals: metrics.counter("serve.runtime.steals"),
            parks: metrics.counter("serve.runtime.parks"),
            yields: metrics.counter("serve.runtime.yields"),
        };
        eprintln!(
            "{scenario}: offered {:.0} ops/s, ingest p99 {}us p999 {}us, \
             query p99 {}us p999 {}us, backpressure {}",
            leg.offered_ops_per_sec,
            leg.ingest.p99_us,
            leg.ingest.p999_us,
            leg.query.p99_us,
            leg.query.p999_us,
            leg.backpressure,
        );
        scenarios.push(leg);
    }

    // Live reshard: snapshot mid-storm under the source layout, restore
    // shrunken and grown, byte-diff the stitched logs.
    let reshard = reshard_leg(&prepared, replay_options, &reference_log);
    if !reshard.identical {
        eprintln!("DIVERGENT rec log after live reshard");
    }

    let report = LoadReport {
        benchmark: "load",
        scale: format!("{scale:?}").to_lowercase(),
        seed,
        model,
        shards,
        workers,
        queue_capacity: queue,
        k,
        query_every,
        window,
        stream_events: prepared.corpus.len(),
        ops: ops.len(),
        queries: reference.queries,
        capacity,
        speedup,
        scenarios,
        rec_log_identical,
        reshard,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("output directory is creatable");
    }
    std::fs::write(&out, json + "\n").expect("report file is writable");
    eprintln!("wrote {out}");
    if !report.rec_log_identical || !report.reshard.identical {
        exit(1);
    }
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

/// The live-reshard leg: run the work-stealing source layout to just past
/// the widest celebrity fan-out (mid-storm), snapshot through the JSONL
/// wire format, and restore under shrunken, grown, and cross-scheduler
/// layouts. The stitched head+tail rec log must byte-equal the reference.
fn reshard_leg(
    prepared: &PreparedCorpus,
    options: ReplayOptions,
    reference_log: &str,
) -> ReshardLeg {
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
    for (shards, workers, scheduler) in [
        (1usize, 1usize, Scheduler::WorkSteal),
        (source.shards * 4, source.workers * 2, Scheduler::WorkSteal),
        (4, 4, Scheduler::Threaded),
    ] {
        let restored = EngineSnapshot::from_jsonl(&wire).expect("snapshot parses");
        let runtime =
            RuntimeOptions { shards, workers, queue_capacity: source.queue_capacity, scheduler };
        let mut tail_run =
            Replay::resume(prepared, &restored, ReplayOptions { runtime, ..options })
                .expect("configs match");
        tail_run.run_to_end();
        let tail = tail_run.finish();
        let stitched: Vec<_> =
            head.recommendations.iter().chain(tail.recommendations.iter()).cloned().collect();
        let identical = rec_log(&stitched).expect("log serializes") == reference_log;
        eprintln!(
            "reshard {} -> {shards} shards x {workers} workers ({}): {}",
            source.shards,
            scheduler.name(),
            if identical { "byte-identical" } else { "DIVERGENT" }
        );
        layouts.push(ReshardLayout { shards, workers, scheduler: scheduler.name(), identical });
    }
    let identical = layouts.iter().all(|l| l.identical);
    ReshardLeg {
        snapshot_at_event: pause,
        source_shards: source.shards,
        source_workers: source.workers,
        layouts,
        identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sparse_query_is_answered_without_waiting_for_the_next_op() {
        let corpus = generate_corpus(&SimConfig::preset(Scale::Smoke.preset(), 42));
        let prepared =
            PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
        let config = EngineConfig {
            model: ServeModel::Bag {
                weighting: pmr_bag::WeightingScheme::TFIDF,
                similarity: pmr_bag::BagSimilarity::Cosine,
                char_grams: false,
                n: 1,
                decay: 0.99,
            },
            window: 128,
        };
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
        let sojourn = LatencySummary::from_histogram(metrics.histogram("load.query"));
        assert_eq!(sojourn.count, 1);
        assert!(
            sojourn.max_us < 500_000,
            "sojourn {}us waited for the next arrival",
            sojourn.max_us
        );
    }
}
