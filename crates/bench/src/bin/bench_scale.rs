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

use pmr_bench::{parse_args, write_json, FlagError, Flags};
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

const USAGE: &str = "usage: bench_scale [--tiers N,N,...] [--seed N] [--materialize-cap N] \
     [--serve-tier N] [--out PATH]";

/// What the command line asks for.
#[derive(Debug)]
enum Args {
    /// A probe child (`--probe streaming|materialized --users N`): one tier
    /// in one mode.
    Probe { users: u64, seed: u64, materialized: bool },
    /// The benchmark itself.
    Bench { tiers: Vec<u64>, seed: u64, materialize_cap: u64, serve_tier: u64, out: String },
}

fn parse(args: Vec<String>) -> Result<Args, FlagError> {
    let f = Flags::parse(
        args,
        &["--tiers", "--seed", "--materialize-cap", "--serve-tier", "--out", "--probe", "--users"],
    )?;
    let seed = f.number("--seed", 42)?;
    // A scale corpus needs at least two users.
    let users = |t: &str| t.trim().parse().ok().filter(|&n: &u64| n >= 2);
    let mode = |m: &str| match m {
        "streaming" => Some(false),
        "materialized" => Some(true),
        _ => None,
    };
    if let Some(materialized) = f.get("--probe", "streaming|materialized", mode)? {
        let users = f.get("--users", "N >= 2", users)?;
        let users = users.ok_or_else(|| FlagError("--probe needs --users".to_owned()))?;
        return Ok(Args::Probe { users, seed, materialized });
    }
    if f.optional_text("--users").is_some() {
        return Err(FlagError("--users only applies with --probe".to_owned()));
    }
    let tiers = |v: &str| v.split(',').map(users).collect();
    Ok(Args::Bench {
        tiers: f
            .get("--tiers", "N,N,... with every N >= 2", tiers)?
            .unwrap_or_else(|| vec![1_000, 10_000, 100_000]),
        seed,
        materialize_cap: f.number("--materialize-cap", 10_000)?,
        serve_tier: f.get("--serve-tier", "N >= 2", users)?.unwrap_or(1_000),
        out: f.text("--out", "results/BENCH_scale.json"),
    })
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
fn run_probe(users: usize, seed: u64, materialized: bool) -> ! {
    let start = Instant::now();
    let gen = StreamGenerator::plan(ScaleConfig::tier(users, seed));
    let mut hash = FNV_OFFSET;
    let events = if materialized {
        let corpus = gen.materialize();
        let stream = corpus.event_stream();
        for e in &stream {
            let text = &corpus.tweet(e.tweet).text;
            fold_event(&mut hash, e.at, e.tweet.0, e.author.0, e.retweet_of.map(|t| t.0), text);
        }
        stream.len() as u64
    } else {
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
    };
    let wall_s = start.elapsed().as_secs_f64();
    let probe = Probe {
        users: users as u64,
        mode: if materialized { "materialized" } else { "streaming" }.to_owned(),
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
    assert!(
        output.status.success(),
        "probe ({users} users, {mode}) failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("probe output is UTF-8");
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line)
        .unwrap_or_else(|e| panic!("probe ({users} users, {mode}) bad output: {e}"))
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
    let (tiers, seed, materialize_cap, serve_tier, out) = match parse_args(USAGE, parse) {
        Args::Probe { users, seed, materialized } => run_probe(users as usize, seed, materialized),
        Args::Bench { tiers, seed, materialize_cap, serve_tier, out } => {
            (tiers, seed, materialize_cap, serve_tier, out)
        }
    };

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
    write_json(&out, &reference).expect("baseline file is writable");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, FlagError> {
        parse(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn the_probe_child_command_line_parses() {
        let args = parse_strs(&["--probe", "materialized", "--users", "1000", "--seed", "7"]);
        match args.unwrap() {
            Args::Probe { users, seed, materialized } => {
                assert_eq!((users, seed, materialized), (1000, 7, true))
            }
            other => panic!("not a probe: {other:?}"),
        }
    }

    #[test]
    fn a_corpus_below_two_users_or_a_stray_probe_flag_is_rejected() {
        let cases: [&[&str]; 5] = [
            &["--tiers", "1000,1"],
            &["--serve-tier", "0"],
            &["--probe", "streaming", "--users", "1"],
            &["--probe", "streaming"],
            &["--users", "5"],
        ];
        for args in cases {
            assert!(parse_strs(args).is_err(), "{args:?} parsed");
        }
    }
}
