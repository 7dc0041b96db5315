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
//! this binary with `--probe`), which prints its row of the record's
//! `probes` table as one JSON line; the parent only aggregates them.
//! Numbers here are machine-specific and **excluded** from paper-figure
//! comparisons — see EXPERIMENTS.md.

use std::process::{exit, Command};
use std::time::Instant;

use pmr_bench::{fields, parse_args, BenchRecord, Fields, FlagError, Flags};
use pmr_serve::{ingest_stream, rec_log, EngineConfig, ReplayOptions, RuntimeOptions, ServeModel};
use pmr_sim::{ScaleConfig, StreamGenerator};

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

/// Generate one tier's stream in one mode: its event count and its stream
/// hash, FNV-1a over every event's fields and text, so the streaming and
/// materialized modes of a tier must agree.
fn stream_hash(users: usize, seed: u64, materialized: bool) -> (u64, u64) {
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
    (events, hash)
}

/// Probe child: generate one tier in one mode, print its `probes` row.
fn run_probe(users: usize, seed: u64, materialized: bool) -> ! {
    let start = Instant::now();
    let (events, hash) = stream_hash(users, seed, materialized);
    let wall_s = start.elapsed().as_secs_f64();
    let probe = fields! {
        "users": users, "mode": if materialized { "materialized" } else { "streaming" },
        "events": events, "wall_s": wall_s, "events_per_sec": events as f64 / wall_s.max(1e-9),
        // 0 when the platform exposes no RSS accounting.
        "peak_rss_bytes": pmr_obs::peak_rss_bytes().unwrap_or(0),
        "stream_hash": hash,
    };
    println!("{}", serde_json::to_value(&probe));
    exit(0);
}

/// Spawn this binary as a probe child and parse its row.
fn spawn_probe(users: u64, seed: u64, mode: &str) -> Fields {
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
/// with a deliberately tiny queue, in-process (RSS is not the point
/// here). One `serve` row per layout; their rec logs must be identical.
fn run_serve_leg(users: u64, seed: u64, record: &mut BenchRecord) {
    let gen = StreamGenerator::plan(ScaleConfig::tier(users as usize, seed));
    let config = EngineConfig {
        model: ServeModel::Graph {
            similarity: pmr_graph::GraphSimilarity::Value,
            char_grams: true,
            n: 3,
        },
        window: 128,
    };
    let queue_capacity = 8;
    let mut logs = Vec::new();
    let mut rows = Vec::new();
    for shards in [1usize, 4] {
        pmr_obs::install(pmr_obs::Recorder::monotonic());
        let start = Instant::now();
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
        let _ = pmr_obs::uninstall();
        rows.push(fields! {
            "shards": shards, "queue_capacity": queue_capacity, "events": outcome.events,
            "queries": outcome.queries, "backpressure": metrics.counter("serve.backpressure"),
            "ingest_s": start.elapsed().as_secs_f64(),
        });
        logs.push(rec_log(&outcome.recommendations).expect("recommendation log serializes"));
    }
    for row in &rows {
        eprintln!("serve leg: {}", serde_json::to_value(row));
    }
    let identical = logs.windows(2).all(|w| w[0] == w[1]);
    record.check("serve leg: the rec logs are identical across shard layouts", identical);
    record.table("serve", rows);
}

fn main() {
    let (tiers, seed, materialize_cap, serve_tier, out) = match parse_args(USAGE, parse) {
        Args::Probe { users, seed, materialized } => run_probe(users as usize, seed, materialized),
        Args::Bench { tiers, seed, materialize_cap, serve_tier, out } => {
            (tiers, seed, materialize_cap, serve_tier, out)
        }
    };
    let tier_list: Vec<String> = tiers.iter().map(u64::to_string).collect();
    let params = fields! {
        "materialize_cap": materialize_cap, "serve_tier": serve_tier,
        "chunk_events": ScaleConfig::tier(1_000, seed).chunk_events, "graph": "power-law",
    };
    let what = "streaming vs. materialized generation per population tier, and a serving leg";
    let mut record = BenchRecord::new("bench_scale", what, &tier_list.join(","), seed, params);

    let mut probes = Vec::new();
    for &users in &tiers {
        eprintln!("tier {users}: streaming probe…");
        let streaming = spawn_probe(users, seed, "streaming");
        eprintln!("tier {users}: {}", serde_json::to_value(&streaming));
        if users <= materialize_cap {
            eprintln!("tier {users}: materialized probe…");
            let materialized = spawn_probe(users, seed, "materialized");
            let agree = ["stream_hash", "events"]
                .iter()
                .all(|name| materialized.get(name) == streaming.get(name));
            record.check(
                format!("tier {users}: the streaming and materialized streams agree"),
                agree,
            );
            probes.extend([streaming, materialized]);
        } else {
            probes.push(streaming);
        }
    }
    record.table("probes", probes);

    eprintln!("serve leg at {serve_tier} users…");
    run_serve_leg(serve_tier, seed, &mut record);
    record.finish(&out)
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
    fn the_1k_tier_streams_match_the_committed_hash() {
        // `results/BENCH_scale.json`'s 1k-tier `stream_hash` and `events`,
        // in both modes: a generator change that keeps every draw keeps
        // them.
        for materialized in [false, true] {
            assert_eq!(stream_hash(1_000, 42, materialized), (7_468, 12_598_518_541_589_304_525));
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
