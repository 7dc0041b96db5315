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
//! shard and thread counts. All timing lives in the `BENCH_serve.json`
//! record, which is machine-specific and *excluded* from any determinism
//! comparison. Its headline carries the engine's counters (fold-in sweeps
//! and background retrains are layout-dependent through the per-shard θ
//! memo) and the in-shard query latency (`serve.query`).

use std::time::Instant;

use pmr_bench::{fields, parse_args, BenchRecord, FlagError, Flags, Scale, Stage};
use pmr_core::{PreparedCorpus, SplitConfig};
use pmr_serve::{rec_log, EngineConfig, Replay, ReplayOptions, RuntimeOptions};
use pmr_sim::{generate_corpus, SimConfig};

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
    refresh: u64,
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
    let refresh = f.number("--refresh", 0)?;
    let serve_model = pmr_bench::serve_model(&model, seed, refresh)
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
        refresh,
        rec_log: f.optional_text("--rec-log"),
    })
}

fn main() {
    let Args { scale, seed, model, options, out, refresh, rec_log: rec_log_path } =
        parse_args(USAGE, parse);

    // The injected-clock recorder feeds the `serve.query` histogram and
    // the engine's counters; without it every observation is a no-op.
    pmr_obs::install(pmr_obs::Recorder::monotonic());

    let prep_start = Instant::now();
    let corpus = generate_corpus(&SimConfig::preset(scale.preset(), seed));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    let mut replay = Replay::new(&prepared, options);
    let prep = prep_start.elapsed();

    let replay_start = Instant::now();
    replay.run_to_end();
    let outcome = replay.finish();
    let replay_time = replay_start.elapsed();

    let metrics = pmr_obs::snapshot().expect("recorder is installed");
    let params = fields! {
        "model": model, "refresh": refresh, "shards": options.runtime.shards,
        "workers": options.runtime.workers, "jobs": options.jobs, "k": options.k,
        "query_every": options.query_every, "window": options.config.window,
        "queue_capacity": options.runtime.queue_capacity,
    };
    let what = "closed-loop replay through pmr-serve: throughput and in-shard query latency";
    let mut record = BenchRecord::new("bench_serve", what, scale.name(), seed, params);
    record.stages = vec![Stage::timed("prepare", &[prep]), Stage::timed("replay", &[replay_time])];
    let events_per_sec = outcome.events as f64 / replay_time.as_secs_f64();
    record.headline = fields! {
        "events": outcome.events, "queries": outcome.queries, "events_per_sec": events_per_sec,
        "candidates": metrics.counter("serve.candidates"),
        "observes": metrics.counter("serve.observes"),
        "backpressure": metrics.counter("serve.backpressure"),
        "window_evictions": metrics.counter("serve.window_evictions"),
        "topic_foldin_iters": metrics.counter("serve.topic.foldin_iters"),
        "topic_background_refreshes": metrics.counter("serve.topic.background_refresh"),
    };
    record.headline.push_latency("query", metrics.histogram("serve.query"));

    if let Some(path) = rec_log_path {
        let log = rec_log(&outcome.recommendations).expect("recommendation log serializes");
        if let Some(parent) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(parent).expect("rec-log directory is creatable");
        }
        std::fs::write(&path, log).expect("rec-log file is writable");
        eprintln!("wrote {path} ({} recommendations)", outcome.recommendations.len());
    }
    eprintln!(
        "  {} events in {:.2}s ({events_per_sec:.0} events/s), {} queries",
        outcome.events,
        replay_time.as_secs_f64(),
        outcome.queries
    );
    record.finish(&out)
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
