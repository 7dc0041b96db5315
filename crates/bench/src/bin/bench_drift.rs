//! Measures online-vs-oracle MAP drift for the serving engine's three
//! incremental model families (bag, graph, topic).
//!
//! ```text
//! cargo run --release -p pmr-bench --bin bench_drift -- \
//!     --scale smoke --seed 42 --out results/BENCH_drift.json
//! ```
//!
//! For each family the harness replays the event stream through
//! `pmr-serve` twice with `k = window`, so every answered query logs the
//! user's *entire* eligible candidate window with its scores: once with
//! the family's serving preset ([`pmr_bench::serve_model`]) and once with
//! the same preset at decay 1.0 — the oracle. Both sides are the engine
//! itself, so at each query both have applied exactly the retweets
//! ingested before it and none after: the comparison is prequential
//! (test, then train) by construction. Relevance for a query at time `now`
//! is "the queried user retweets this original at a timestamp strictly
//! after `now`", the same future-retweet criterion the offline harness
//! uses.
//!
//! Candidate windows do not depend on the model, so the two rec logs must
//! pair up query by query — the same `(query, user, now)` and the same
//! candidate set — and the harness exits non-zero if they do not. Drift =
//! online MAP − oracle MAP is then the cost of history decay alone (the
//! graph family has no decay, so its drift is exactly 0). Each family's
//! row of the record's `families` table also carries a two-sided paired
//! randomization p-value of drift against 0, a 95% half-width (1.96·s/√n,
//! null below two scored queries) over the per-query AP differences, and
//! `replay_s`, the wall time of both replays. Only queries with a relevant
//! candidate are scored: a zero-relevance query would add identical zeros
//! to both MAPs.

use std::collections::BTreeMap;
use std::time::Instant;

use pmr_bench::{fields, parse_args, serve_model, BenchRecord, Fields, FlagError, Flags, Scale};
use pmr_core::eval::{average_precision, tie_break_key, ScoredDoc};
use pmr_core::{paired_randomization_test, PreparedCorpus, SplitConfig};
use pmr_serve::{
    EngineConfig, Recommendation, Replay, ReplayOptions, ReplayOutcome, RuntimeOptions, ServeModel,
};
use pmr_sim::{generate_corpus, SimConfig, Timestamp};

/// The families measured, each under its [`serve_model`] preset.
const FAMILIES: [&str; 3] = ["bag", "graph", "topic"];
/// Sign flips of the paired randomization test. With the fixed seed the
/// p-value is a pure function of the AP pairs.
const PERMUTATIONS: usize = 10_000;
const PERMUTATION_SEED: u64 = 42;

const USAGE: &str = "usage: bench_drift [--scale smoke|default|full] [--seed N] [--window N] \
     [--query-every N] [--refresh N] [--jobs N] [--out PATH]";

/// The oracle of `model`: the same preset with history decay switched off.
fn undecayed(mut model: ServeModel) -> ServeModel {
    if let ServeModel::Bag { decay, .. } | ServeModel::Topic { decay, .. } = &mut model {
        *decay = 1.0;
    }
    model
}

/// (user, original) → the user's earliest retweet of it. The stream is
/// time-ordered, so the first occurrence wins.
fn first_retweets(prepared: &PreparedCorpus) -> BTreeMap<(u32, u32), Timestamp> {
    let mut first = BTreeMap::new();
    for event in prepared.corpus.event_stream() {
        if let Some(original) = event.retweet_of {
            first.entry((event.author.0, original.0)).or_insert(event.at);
        }
    }
    first
}

/// Inputs shared by every family measurement.
struct DriftSetup<'a> {
    prepared: &'a PreparedCorpus,
    first_retweet: &'a BTreeMap<(u32, u32), Timestamp>,
    window: usize,
    query_every: usize,
    jobs: usize,
}

impl DriftSetup<'_> {
    /// Replay `model` and its oracle over the same stream and schedule.
    /// `k = window`: each log carries every query's full eligible
    /// candidate set, not a top-k truncation, so both sides rank one pool.
    fn replays(&self, model: ServeModel) -> [ReplayOutcome; 2] {
        [model, undecayed(model)].map(|model| {
            let options = ReplayOptions {
                config: EngineConfig { model, window: self.window },
                runtime: RuntimeOptions::default(),
                k: self.window,
                query_every: self.query_every,
                jobs: self.jobs,
            };
            Replay::run(self.prepared, options)
        })
    }

    /// The row of family `name`: its online and oracle logs scored over
    /// the same relevance labels. Errors if the logs do not pair up query
    /// by query.
    fn compare(
        &self,
        name: &str,
        online: &ReplayOutcome,
        oracle: &ReplayOutcome,
        replay_s: f64,
    ) -> Result<Fields, String> {
        let (recs, oracle_recs) = (&online.recommendations, &oracle.recommendations);
        if recs.len() != oracle_recs.len() {
            return Err(format!(
                "{} online answers but {} oracle answers",
                recs.len(),
                oracle_recs.len()
            ));
        }
        let mut online_ap = Vec::new();
        let mut oracle_ap = Vec::new();
        for (a, b) in recs.iter().zip(oracle_recs) {
            if (a.query, a.user, a.now) != (b.query, b.user, b.now)
                || candidates(a) != candidates(b)
            {
                return Err(format!(
                    "query {} (user {}, now {}) has a different key or candidate set in the \
                     oracle log",
                    a.query, a.user, a.now
                ));
            }
            let relevant =
                |tweet: u32| self.first_retweet.get(&(a.user, tweet)).is_some_and(|&at| at > a.now);
            if a.items.iter().any(|item| relevant(item.tweet)) {
                online_ap.push(average_precision(&ranking(a, relevant)));
                oracle_ap.push(average_precision(&ranking(b, relevant)));
            }
        }

        let n = online_ap.len();
        let mean = |xs: &[f64]| if n == 0 { 0.0 } else { xs.iter().sum::<f64>() / n as f64 };
        let (online_map, oracle_map) = (mean(&online_ap), mean(&oracle_ap));
        let diffs: Vec<f64> = online_ap.iter().zip(&oracle_ap).map(|(x, y)| x - y).collect();
        let ci95_half_width = (n >= 2).then(|| {
            let m = mean(&diffs);
            let variance = diffs.iter().map(|d| (d - m) * (d - m)).sum::<f64>() / (n - 1) as f64;
            1.96 * (variance / n as f64).sqrt()
        });
        let test =
            paired_randomization_test(&online_ap, &oracle_ap, PERMUTATIONS, PERMUTATION_SEED);
        Ok(fields! {
            "model": name, "queries": online.queries, "scored_queries": n,
            "online_map": online_map, "oracle_map": oracle_map, "drift": online_map - oracle_map,
            "ci95_half_width": ci95_half_width, "p_value": test.p_value, "replay_s": replay_s,
        })
    }
}

/// A logged query's candidate tweet ids, in id order.
fn candidates(rec: &Recommendation) -> Vec<u32> {
    let mut ids: Vec<u32> = rec.items.iter().map(|item| item.tweet).collect();
    ids.sort_unstable();
    ids
}

/// A logged query's candidates with their scores and relevance labels.
fn ranking(rec: &Recommendation, relevant: impl Fn(u32) -> bool) -> Vec<ScoredDoc> {
    rec.items
        .iter()
        .map(|item| ScoredDoc {
            score: item.score,
            relevant: relevant(item.tweet),
            tie_break: tie_break_key(item.tweet),
        })
        .collect()
}

/// The parsed command line.
#[derive(Debug)]
struct Args {
    scale: Scale,
    seed: u64,
    window: usize,
    query_every: usize,
    refresh: u64,
    jobs: usize,
    out: String,
}

fn parse(args: Vec<String>) -> Result<Args, FlagError> {
    let f = Flags::parse(
        args,
        &["--scale", "--seed", "--window", "--query-every", "--refresh", "--jobs", "--out"],
    )?;
    Ok(Args {
        scale: f.scale()?,
        seed: f.number("--seed", 42)?,
        window: f.number("--window", 64)?,
        query_every: f.number("--query-every", 1)?,
        refresh: f.number("--refresh", 0)?,
        jobs: f.jobs(1)?,
        out: f.text("--out", "results/BENCH_drift.json"),
    })
}

fn main() {
    let Args { scale, seed, window, query_every, refresh, jobs, out } = parse_args(USAGE, parse);
    let corpus = generate_corpus(&SimConfig::preset(scale.preset(), seed));
    let prepared =
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
    let first_retweet = first_retweets(&prepared);

    eprintln!("drift: scale {}, seed {seed}, window {window}", scale.name());
    let setup = DriftSetup {
        prepared: &prepared,
        first_retweet: &first_retweet,
        window,
        query_every,
        jobs,
    };
    let params = fields! {
        "window": window, "query_every": query_every, "refresh": refresh, "jobs": jobs,
        "permutations": PERMUTATIONS,
    };
    let what = "online-vs-oracle MAP per serving family: each preset against itself at decay 1.0";
    let mut record = BenchRecord::new("bench_drift", what, scale.name(), seed, params);
    let mut families = Vec::new();
    for name in FAMILIES {
        let model = serve_model(name, seed, refresh).expect("every family has a preset");
        let replay_start = Instant::now();
        let [online, oracle] = setup.replays(model);
        let replay_s = replay_start.elapsed().as_secs_f64();
        let row = setup.compare(name, &online, &oracle, replay_s);
        match &row {
            Ok(row) => eprintln!("  {}", serde_json::to_value(row)),
            Err(problem) => eprintln!("bench_drift: {name}: {problem}"),
        }
        record.check(
            format!("{name}: the online and oracle logs pair up query by query"),
            row.is_ok(),
        );
        families.extend(row.ok());
    }
    record.table("families", families);
    record.finish(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmr_serve::rec_log;

    /// Replay `model` and its oracle at smoke scale, seed 42, one query
    /// per 25 events: both rec logs and the family's drift row.
    fn smoke_drift(model: ServeModel) -> ([String; 2], Fields) {
        let corpus = generate_corpus(&SimConfig::preset(Scale::Smoke.preset(), 42));
        let prepared =
            PreparedCorpus::new(corpus, SplitConfig::default()).expect("corpus is well-formed");
        let first_retweet = first_retweets(&prepared);
        let setup = DriftSetup {
            prepared: &prepared,
            first_retweet: &first_retweet,
            window: 64,
            query_every: 25,
            jobs: 1,
        };
        let [online, oracle] = setup.replays(model);
        let drift = setup.compare("test", &online, &oracle, 0.0).expect("the logs pair up");
        let logs = [online, oracle].map(|o| rec_log(&o.recommendations).expect("log serializes"));
        (logs, drift)
    }

    /// An undecayed preset is its own oracle, so any oracle that observes
    /// an event the engine had not applied at query time scores some
    /// candidate differently and breaks the identity.
    fn assert_oracle_is_causal(model: ServeModel) {
        let ([online, oracle], drift) = smoke_drift(model);
        assert!(online == oracle, "the online and oracle rec logs differ");
        assert_eq!(drift.number("drift"), Some(0.0));
        assert!(drift.number("scored_queries") > Some(0.0), "no query had a relevant candidate");
    }

    #[test]
    fn graph_oracle_observes_nothing_the_engine_had_not_applied() {
        assert_oracle_is_causal(serve_model("graph", 42, 0).expect("graph preset"));
    }

    #[test]
    fn undecayed_bag_oracle_observes_nothing_the_engine_had_not_applied() {
        assert_oracle_is_causal(undecayed(serve_model("bag", 42, 0).expect("bag preset")));
    }
}
