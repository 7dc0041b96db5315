//! Replays a seeded simulated tweet stream through the `pmr-serve` engine
//! and reports serving throughput and query-latency percentiles.
//!
//! ```text
//! cargo run --release -p pmr-bench --bin bench_serve -- \
//!     --scale smoke --seed 42 --model bag --shards 4 --jobs 4 \
//!     --out results/BENCH_serve.json --rec-log serve-recs.jsonl
//! ```
//!
//! The recommendation log (`--rec-log`) carries no timing fields: it is
//! the determinism artifact the `serve-smoke` CI job byte-diffs across
//! shard and thread counts. All timing lives in `BENCH_serve.json`, which
//! is machine-specific and *excluded* from any determinism comparison.

use std::time::Instant;

use serde::Serialize;

use pmr_bench::{parse_args, write_json, FlagError, Flags, Scale};
use pmr_core::{PreparedCorpus, SplitConfig};
use pmr_serve::{rec_log, EngineConfig, Replay, ReplayOptions, RuntimeOptions};
use pmr_sim::{generate_corpus, SimConfig};

#[derive(Debug, Serialize)]
struct LatencySummary {
    count: u64,
    mean_us: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
}

#[derive(Debug, Serialize)]
struct ServeBaseline {
    benchmark: &'static str,
    scale: String,
    seed: u64,
    model: String,
    shards: usize,
    workers: usize,
    jobs: usize,
    k: usize,
    query_every: usize,
    window: usize,
    queue_capacity: usize,
    events: u64,
    queries: u64,
    candidates: u64,
    observes: u64,
    backpressure: u64,
    window_evictions: u64,
    /// Fold-in Gibbs sweeps run across all shards (0 for the gram
    /// families). Layout-dependent via the per-shard θ memo, which is fine
    /// here: this file is excluded from determinism comparisons.
    topic_foldin_iters: u64,
    /// Background-model (re)trains, including the epoch-0 bootstrap.
    topic_background_refreshes: u64,
    prep_s: f64,
    replay_s: f64,
    events_per_sec: f64,
    query_latency: LatencySummary,
}

const USAGE: &str = "usage: bench_serve [--scale smoke|default|full] [--seed N] \
     [--model bag|graph|topic] [--shards N] [--workers N] [--jobs N] [--k N] [--query-every N] \
     [--window N] [--queue N] [--refresh N] [--out PATH] [--rec-log PATH]";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    scale: Scale,
    seed: u64,
    model: String,
    options: ReplayOptions,
    out: String,
    rec_log: Option<String>,
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
            "--jobs",
            "--k",
            "--query-every",
            "--window",
            "--queue",
            "--refresh",
            "--out",
            "--rec-log",
        ],
    )?;
    let seed = f.number("--seed", 42)?;
    let model = f.text("--model", "bag");
    let serve_model = pmr_bench::serve_model(&model, seed, f.number("--refresh", 0)?)
        .ok_or_else(|| FlagError(format!("bad --model value {model:?} (want bag|graph|topic)")))?;
    let options = ReplayOptions {
        config: EngineConfig { model: serve_model, window: f.number("--window", 128)? },
        runtime: RuntimeOptions {
            shards: f.number("--shards", 4)?,
            workers: f.number("--workers", RuntimeOptions::default().workers)?,
            queue_capacity: f.number("--queue", 1024)?,
            ..RuntimeOptions::default()
        },
        k: f.number("--k", 10)?,
        query_every: f.number("--query-every", 25)?,
        jobs: f.jobs(1)?,
    };
    Ok(Args {
        scale: f.scale()?,
        seed,
        model,
        options,
        out: f.text("--out", "results/BENCH_serve.json"),
        rec_log: f.optional_text("--rec-log"),
    })
}

fn main() {
    let Args { scale, seed, model, options, out, rec_log: rec_log_path } = parse_args(USAGE, parse);

    // The injected-clock recorder feeds the `serve.query` histogram and
    // the engine's counters; without it every observation is a no-op.
    pmr_obs::install(pmr_obs::Recorder::monotonic());

    let prep_start = Instant::now();
    let corpus = generate_corpus(&SimConfig::preset(scale.preset(), seed));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    let mut replay = Replay::new(&prepared, options);
    let prep_s = prep_start.elapsed().as_secs_f64();

    let replay_start = Instant::now();
    replay.run_to_end();
    let outcome = replay.finish();
    let replay_s = replay_start.elapsed().as_secs_f64();

    let metrics = pmr_obs::snapshot().expect("recorder is installed");
    let empty =
        pmr_obs::HistogramSnapshot { count: 0, sum_us: 0, min_us: 0, max_us: 0, buckets: vec![] };
    let latency = metrics.histogram("serve.query").unwrap_or(&empty);
    let baseline = ServeBaseline {
        benchmark: "serve",
        scale: format!("{scale:?}").to_lowercase(),
        seed,
        model,
        shards: options.runtime.shards,
        workers: options.runtime.workers,
        jobs: options.jobs,
        k: options.k,
        query_every: options.query_every,
        window: options.config.window,
        queue_capacity: options.runtime.queue_capacity,
        events: outcome.events,
        queries: outcome.queries,
        candidates: metrics.counter("serve.candidates"),
        observes: metrics.counter("serve.observes"),
        backpressure: metrics.counter("serve.backpressure"),
        window_evictions: metrics.counter("serve.window_evictions"),
        topic_foldin_iters: metrics.counter("serve.topic.foldin_iters"),
        topic_background_refreshes: metrics.counter("serve.topic.background_refresh"),
        prep_s,
        replay_s,
        events_per_sec: outcome.events as f64 / replay_s,
        query_latency: LatencySummary {
            count: latency.count,
            mean_us: latency.mean().as_micros() as u64,
            p50_us: latency.quantile_us(0.5),
            p90_us: latency.quantile_us(0.9),
            p99_us: latency.quantile_us(0.99),
            p999_us: latency.quantile_us(0.999),
            max_us: latency.max_us,
        },
    };

    if let Some(path) = rec_log_path {
        let log = rec_log(&outcome.recommendations).expect("recommendation log serializes");
        if let Some(parent) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(parent).expect("rec-log directory is creatable");
        }
        std::fs::write(&path, log).expect("rec-log file is writable");
        eprintln!("wrote {path} ({} recommendations)", outcome.recommendations.len());
    }

    write_json(&out, &baseline).expect("baseline file is writable");
    eprintln!(
        "  {} events in {replay_s:.2}s ({:.0} events/s), {} queries, \
         p50 {}µs p99 {}µs",
        baseline.events,
        baseline.events_per_sec,
        baseline.queries,
        baseline.query_latency.p50_us,
        baseline.query_latency.p99_us
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, FlagError> {
        parse(args.iter().map(|s| s.to_string()).collect())
    }

    fn rejection(args: &[&str]) -> String {
        parse_strs(args).expect_err("the command line is rejected").0
    }

    #[test]
    fn every_flag_keeps_its_default() {
        let args = parse_strs(&[]).unwrap();
        assert_eq!((args.scale, args.seed, args.model.as_str()), (Scale::Smoke, 42, "bag"));
        let expected = ReplayOptions {
            config: EngineConfig {
                model: pmr_bench::serve_model("bag", 42, 0).unwrap(),
                window: 128,
            },
            runtime: RuntimeOptions {
                shards: 4,
                queue_capacity: 1024,
                ..RuntimeOptions::default()
            },
            k: 10,
            query_every: 25,
            jobs: 1,
        };
        assert_eq!(args.options, expected);
        assert_eq!((args.out.as_str(), args.rec_log), ("results/BENCH_serve.json", None));
        let topic = parse_strs(&["--model", "topic", "--refresh", "400", "--seed", "7"]).unwrap();
        assert_eq!(topic.options.config.model, pmr_bench::serve_model("topic", 7, 400).unwrap());
    }

    #[test]
    fn a_bad_command_line_is_rejected_naming_its_flag() {
        assert_eq!(rejection(&["--no-such-flag"]), "unknown flag --no-such-flag");
        assert_eq!(rejection(&["--k", "5", "--shards"]), "--shards needs a value");
        assert!(rejection(&["--window", "12x"]).contains("--window"));
        assert!(rejection(&["--jobs", "0"]).contains("--jobs"));
        assert!(rejection(&["--model", "lstm"]).contains("--model"));
    }
}
