//! Measures the scale pipeline: events/s and peak RSS of streaming vs.
//! materialized generation across population tiers, plus a serving leg
//! that pushes a power-law stream through `pmr-serve` and checks the
//! determinism-under-backpressure contract.
//!
//! ```text
//! cargo run --release -p pmr-bench --bin bench_scale -- \
//!     --tiers 1000,10000,100000 --seed 42 --out results/BENCH_scale.json
//! ```
//!
//! Peak RSS (`VmHWM`) is a per-process high-water mark, so every
//! `(tier, mode)` measurement runs in its own child process (re-invoking
//! this binary with `--probe`); the parent only aggregates JSON lines.
//! Numbers here are machine-specific and **excluded** from paper-figure
//! comparisons — see EXPERIMENTS.md.

use std::process::{exit, Command};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use pmr_serve::{ingest_stream, rec_log, EngineConfig, ReplayOptions, RuntimeOptions, ServeModel};
use pmr_sim::{ScaleConfig, StreamGenerator};

/// One `(tier, mode)` measurement, produced by a probe child process.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Probe {
    users: u64,
    mode: String,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    /// 0 when the platform exposes no RSS accounting.
    peak_rss_bytes: u64,
    /// FNV-1a over every event's fields and text — streaming and
    /// materialized probes of the same tier must agree.
    stream_hash: u64,
}

#[derive(Debug, Serialize)]
struct TierReport {
    users: u64,
    events: u64,
    streaming: Probe,
    /// Absent above the materialization cap — the whole point of the
    /// streaming path is that these tiers cannot be materialized.
    materialized: Option<Probe>,
}

#[derive(Debug, Serialize)]
struct ServeReport {
    users: u64,
    events: u64,
    queries: u64,
    shard_layouts: Vec<usize>,
    queue_capacity: usize,
    /// `serve.backpressure` per layout.
    backpressure: Vec<u64>,
    rec_log_identical: bool,
    ingest_s: f64,
}

#[derive(Debug, Serialize)]
struct ScaleBaseline {
    benchmark: &'static str,
    seed: u64,
    chunk_events: usize,
    graph: String,
    tiers: Vec<TierReport>,
    serve: ServeReport,
}

fn usage(problem: &str) -> ! {
    eprintln!("bench_scale: {problem}");
    eprintln!(
        "usage: bench_scale [--tiers N,N,...] [--seed N] [--materialize-cap N] \
         [--serve-tier N] [--out PATH]"
    );
    exit(2);
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fold_event(
    hash: &mut u64,
    at: u64,
    tweet: u32,
    author: u32,
    retweet_of: Option<u32>,
    text: &str,
) {
    fnv(hash, &at.to_le_bytes());
    fnv(hash, &tweet.to_le_bytes());
    fnv(hash, &author.to_le_bytes());
    fnv(hash, &retweet_of.map(|t| t.wrapping_add(1)).unwrap_or(0).to_le_bytes());
    fnv(hash, text.as_bytes());
}

/// Probe child: generate one tier in one mode, print a [`Probe`] JSON line.
fn run_probe(users: usize, seed: u64, mode: &str) -> ! {
    let start = Instant::now();
    let gen = StreamGenerator::plan(ScaleConfig::tier(users, seed));
    let mut hash = FNV_OFFSET;
    let events = match mode {
        "streaming" => {
            let mut count = 0u64;
            for rec in gen.events() {
                let e = rec.event;
                fold_event(
                    &mut hash,
                    e.at,
                    e.tweet.0,
                    e.author.0,
                    e.retweet_of.map(|t| t.0),
                    &rec.text,
                );
                count += 1;
            }
            count
        }
        "materialized" => {
            let corpus = gen.materialize();
            let stream = corpus.event_stream();
            for e in &stream {
                fold_event(
                    &mut hash,
                    e.at,
                    e.tweet.0,
                    e.author.0,
                    e.retweet_of.map(|t| t.0),
                    &corpus.tweet(e.tweet).text,
                );
            }
            stream.len() as u64
        }
        other => usage(&format!("unknown probe mode {other:?}")),
    };
    let wall_s = start.elapsed().as_secs_f64();
    let probe = Probe {
        users: users as u64,
        mode: mode.to_owned(),
        events,
        wall_s,
        events_per_sec: events as f64 / wall_s.max(1e-9),
        peak_rss_bytes: pmr_obs::peak_rss_bytes().unwrap_or(0),
        stream_hash: hash,
    };
    println!("{}", serde_json::to_string(&probe).expect("probe serializes"));
    exit(0);
}

/// Spawn this binary as a probe child and parse its JSON line.
fn spawn_probe(users: u64, seed: u64, mode: &str) -> Probe {
    let exe = std::env::current_exe().expect("own executable path is known");
    let output = Command::new(exe)
        .args(["--probe", mode, "--users", &users.to_string(), "--seed", &seed.to_string()])
        .output()
        .expect("probe child spawns");
    if !output.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
        usage(&format!("probe ({users} users, {mode}) failed: {}", output.status));
    }
    let stdout = String::from_utf8(output.stdout).expect("probe output is UTF-8");
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line)
        .unwrap_or_else(|e| usage(&format!("probe ({users} users, {mode}) bad output: {e}")))
}

/// The serving leg: the same power-law stream through two shard layouts
/// with a deliberately tiny queue, in-process (RSS is not the point here).
fn run_serve_leg(users: u64, seed: u64) -> ServeReport {
    let gen = StreamGenerator::plan(ScaleConfig::tier(users as usize, seed));
    let config = EngineConfig {
        model: ServeModel::Graph {
            similarity: pmr_graph::GraphSimilarity::Value,
            char_grams: true,
            n: 3,
        },
        window: 128,
    };
    let layouts = vec![1usize, 4];
    let queue_capacity = 8;
    let start = Instant::now();
    let mut logs = Vec::new();
    let mut backpressure = Vec::new();
    let mut events = 0u64;
    let mut queries = 0u64;
    for &shards in &layouts {
        pmr_obs::install(pmr_obs::Recorder::monotonic());
        let outcome = ingest_stream(
            &gen,
            ReplayOptions {
                config,
                runtime: RuntimeOptions { shards, queue_capacity, ..RuntimeOptions::default() },
                k: 10,
                query_every: 25,
                jobs: 2,
            },
        )
        .expect("graph-model ingest succeeds");
        let metrics = pmr_obs::snapshot().expect("recorder is installed");
        backpressure.push(metrics.counter("serve.backpressure"));
        let _ = pmr_obs::uninstall();
        events = outcome.events;
        queries = outcome.queries;
        logs.push(rec_log(&outcome.recommendations).expect("recommendation log serializes"));
    }
    let rec_log_identical = logs.windows(2).all(|w| w[0] == w[1]);
    ServeReport {
        users,
        events,
        queries,
        shard_layouts: layouts,
        queue_capacity,
        backpressure,
        rec_log_identical,
        ingest_s: start.elapsed().as_secs_f64(),
    }
}

fn main() {
    let mut tiers: Vec<u64> = vec![1_000, 10_000, 100_000];
    let mut seed: u64 = 42;
    let mut materialize_cap: u64 = 10_000;
    let mut serve_tier: u64 = 1_000;
    let mut out = String::from("results/BENCH_scale.json");
    let mut probe: Option<(String, u64)> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().unwrap_or_else(|| usage(&format!("{flag} requires a value")));
        match arg.as_str() {
            "--tiers" => {
                tiers = value("--tiers")
                    .split(',')
                    .map(|t| t.trim().parse().unwrap_or_else(|_| usage("--tiers wants numbers")))
                    .collect();
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|_| usage("--seed wants a number"))
            }
            "--materialize-cap" => {
                materialize_cap = value("--materialize-cap")
                    .parse()
                    .unwrap_or_else(|_| usage("--materialize-cap wants a number"))
            }
            "--serve-tier" => {
                serve_tier = value("--serve-tier")
                    .parse()
                    .unwrap_or_else(|_| usage("--serve-tier wants a number"))
            }
            "--out" => out = value("--out"),
            "--probe" => {
                let mode = value("--probe");
                let mut users = 0u64;
                let mut pseed = seed;
                while let Some(a) = args.next() {
                    let mut v = |flag: &str| {
                        args.next().unwrap_or_else(|| usage(&format!("{flag} requires a value")))
                    };
                    match a.as_str() {
                        "--users" => {
                            users = v("--users")
                                .parse()
                                .unwrap_or_else(|_| usage("--users wants a number"))
                        }
                        "--seed" => {
                            pseed = v("--seed")
                                .parse()
                                .unwrap_or_else(|_| usage("--seed wants a number"))
                        }
                        other => usage(&format!("unknown probe flag {other}")),
                    }
                }
                if users == 0 {
                    usage("--probe needs --users");
                }
                probe = Some((mode, users));
                seed = pseed;
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if let Some((mode, users)) = probe {
        run_probe(users as usize, seed, &mode);
    }
    if tiers.is_empty() {
        usage("--tiers must name at least one tier");
    }

    let mut reports = Vec::new();
    for &users in &tiers {
        eprintln!("tier {users}: streaming probe…");
        let streaming = spawn_probe(users, seed, "streaming");
        let materialized = if users <= materialize_cap {
            eprintln!("tier {users}: materialized probe…");
            let m = spawn_probe(users, seed, "materialized");
            assert_eq!(
                m.stream_hash, streaming.stream_hash,
                "streaming and materialized probes disagree at {users} users"
            );
            assert_eq!(m.events, streaming.events);
            Some(m)
        } else {
            None
        };
        eprintln!(
            "tier {users}: {} events, {:.0} events/s streaming, peak RSS {:.1} MiB",
            streaming.events,
            streaming.events_per_sec,
            streaming.peak_rss_bytes as f64 / (1024.0 * 1024.0)
        );
        reports.push(TierReport { users, events: streaming.events, streaming, materialized });
    }

    eprintln!("serve leg at {serve_tier} users…");
    let serve = run_serve_leg(serve_tier, seed);
    assert!(serve.rec_log_identical, "shard layouts produced different recommendation logs");
    eprintln!(
        "serve leg: {} events, {} queries, backpressure {:?}, logs identical",
        serve.events, serve.queries, serve.backpressure
    );

    let reference = ScaleBaseline {
        benchmark: "scale",
        seed,
        chunk_events: ScaleConfig::tier(1_000, seed).chunk_events,
        graph: "power-law".to_owned(),
        tiers: reports,
        serve,
    };
    let json = serde_json::to_string_pretty(&reference).expect("baseline serializes");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(parent).expect("output directory is creatable");
    }
    std::fs::write(&out, json + "\n").expect("baseline file is writable");
    eprintln!("wrote {out}");
}
