//! What the benchmark measures: its workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root mirrors the
//! names, units, directions and bounds; a test keeps the two equal.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 24;
/// The default workload seed.
pub const DEFAULT_SEED: u64 = 42;
/// The seed held out for validating a performance claim.
pub const HOLDOUT_SEED: u64 = 7;

/// Which subsystem a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The sharded serving engine under open-loop load.
    Serve,
    /// The batch experiment sweep.
    Sweep,
}

/// One named set of inputs.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Serve or sweep.
    pub kind: Kind,
    /// One line: why this workload is in the benchmark.
    pub why: &'static str,
    /// The inputs, for `--list` and the README.
    pub params: &'static str,
}

/// The four workloads. Two serve the same engine with opposite read/write
/// mixes; two sweep the study's grid through disjoint model layers.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-read",
        kind: Kind::Serve,
        why: "read-heavy serving: a query after every event, Poisson arrivals; the in-shard \
              retrieval gate, scoring kernel and sort do most of the work",
        params: "default-scale corpus (corpus seed 42); bag TF-IDF cosine, decay 0.99, \
                 window 128, k 10; query_every 1; Poisson arrivals at 60,000 ops/s seeded by \
                 --seed; 64 shards, 2 workers, queue 256",
    },
    Workload {
        name: "serve-burst",
        kind: Kind::Serve,
        why: "write-heavy serving in thundering-herd waves: mailboxes, backpressure, window \
              upkeep and postings maintenance dominate and scoring is light",
        params: "default-scale corpus (corpus seed 42); same model; query_every 25; waves of \
                 50,000 ops released together once a second (no randomness); 64 shards, \
                 2 workers, queue 256",
    },
    Workload {
        name: "sweep-gram",
        kind: Kind::Sweep,
        why: "the study's gram arm: shared gram tables, bag vectors and n-gram graph \
              comparison, with no sampler and no serving",
        params: "smoke corpus (corpus seed 42); TN, CN, TNG, CNG x sources R, T, C; \
                 iteration scale 0.015; exhaustive retrieval; 2 jobs; run seed from --seed",
    },
    Workload {
        name: "sweep-topic",
        kind: Kind::Sweep,
        why: "the study's topic arm: Gibbs training and fold-in inference in pmr-topics do \
              nearly all the work; gram, bag and serve layers sit idle",
        params: "smoke corpus (corpus seed 42); LDA x sources R, T and BTM x source T; \
                 iteration scale 0.015; 2 jobs; run seed from --seed",
    },
];

/// Whether a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system sees, reported by every untraced run.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// How it is measured on the serve and on the sweep workloads.
    pub definition: &'static str,
}

/// The end-to-end metrics, identical in name and unit on every workload.
///
/// Tail percentiles of query sojourn are not gated: on a shared two-core
/// host their run-to-run spread reaches 20%, so they are reported in the
/// record and as traced diagnostics instead.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "median of 3 set-ups of the time until the first op or run can be issued: \
                     generate_corpus + PreparedCorpus::new + precompute_features + Engine::start \
                     (serve) or + prewarm_features + ExperimentRunner::new (sweep)",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        definition: "peak resident set size of the workload's process (VmHWM)",
    },
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "serve: engine ops per second over unpaced passes (all ops due at t=0; \
                     first post until finish() returns), median over passes; sweep: runs per \
                     second over a whole sweep, median over sweeps",
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        definition: "serve: exact median query sojourn (answer seen minus scheduled arrival) \
                     pooled over the paced passes; sweep: median over sweeps of the wait for a \
                     whole sweep (first run submitted until the last result plus baselines)",
    },
];

/// A metric of one layer, reported only by traced runs.
#[derive(Debug)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The module the metric belongs to.
    pub layer: &'static str,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// The workload on which it should move it.
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer { name, unit, better, layer, moves, on }
}

use Better::{Higher, Lower};

/// The per-layer metrics. Setup-phase layers are per set-up; everything
/// else is per measured round (serve: one paced and two unpaced passes;
/// sweep: one sweep). Layers a workload does not exercise read 0.
pub const PER_LAYER: [Layer; 67] = [
    layer("sim.generate_s", "s", Lower, "pmr-sim generate", "setup_s", "serve-read"),
    layer("core.prepare_s", "s", Lower, "pmr-core prepare", "setup_s", "serve-read"),
    layer("core.features_s", "s", Lower, "pmr-core features", "setup_s", "sweep-gram"),
    layer("features.build.sum_s", "s", Lower, "pmr-core features", "setup_s", "sweep-gram"),
    layer("features.bytes", "bytes", Lower, "pmr-core features", "peak_rss_mib", "sweep-gram"),
    layer("serve.featurize_s", "s", Lower, "pmr-serve featurize", "setup_s", "serve-read"),
    layer("serve.post_us.p50", "us", Lower, "pmr-serve ingest", "throughput_per_s", "serve-burst"),
    layer("serve.post_us.p99", "us", Lower, "pmr-serve ingest", "latency_p50_us", "serve-burst"),
    layer(
        "serve.post.count",
        "count",
        Lower,
        "pmr-serve ingest",
        "throughput_per_s",
        "serve-burst",
    ),
    layer(
        "serve.backpressure",
        "count",
        Lower,
        "pmr-serve runtime",
        "latency_p50_us",
        "serve-burst",
    ),
    layer(
        "serve.backpressure.shard_b0",
        "count",
        Lower,
        "pmr-serve runtime",
        "latency_p50_us",
        "serve-burst",
    ),
    layer(
        "serve.backpressure.shard_b1",
        "count",
        Lower,
        "pmr-serve runtime",
        "latency_p50_us",
        "serve-burst",
    ),
    layer(
        "serve.backpressure.shard_b2",
        "count",
        Lower,
        "pmr-serve runtime",
        "latency_p50_us",
        "serve-burst",
    ),
    layer(
        "serve.backpressure.shard_b3",
        "count",
        Lower,
        "pmr-serve runtime",
        "latency_p50_us",
        "serve-burst",
    ),
    layer(
        "serve.runtime.steals",
        "count",
        Lower,
        "pmr-serve runtime",
        "latency_p50_us",
        "serve-burst",
    ),
    layer(
        "serve.runtime.parks",
        "count",
        Lower,
        "pmr-serve runtime",
        "latency_p50_us",
        "serve-read",
    ),
    layer(
        "serve.runtime.yields",
        "count",
        Lower,
        "pmr-serve runtime",
        "latency_p50_us",
        "serve-read",
    ),
    layer(
        "serve.query.in_shard_us.p50",
        "us",
        Lower,
        "pmr-serve shard query",
        "latency_p50_us",
        "serve-read",
    ),
    layer(
        "serve.query.in_shard_us.p99",
        "us",
        Lower,
        "pmr-serve shard query",
        "latency_p50_us",
        "serve-read",
    ),
    layer(
        "serve.sojourn_us.p90",
        "us",
        Lower,
        "pmr-serve query path (tail)",
        "latency_p50_us",
        "serve-read",
    ),
    layer(
        "serve.sojourn_us.p99",
        "us",
        Lower,
        "pmr-serve query path (tail)",
        "latency_p50_us",
        "serve-burst",
    ),
    layer(
        "serve.query.outside_us.p50",
        "us",
        Lower,
        "pmr-serve queue wait and reply pickup",
        "latency_p50_us",
        "serve-read",
    ),
    layer(
        "retrieval.candidates",
        "count",
        Lower,
        "pmr-core retrieval",
        "throughput_per_s",
        "serve-read",
    ),
    layer(
        "retrieval.pruned",
        "count",
        Higher,
        "pmr-core retrieval",
        "throughput_per_s",
        "serve-read",
    ),
    layer(
        "retrieval.scored_frac",
        "fraction",
        Lower,
        "pmr-core retrieval",
        "throughput_per_s",
        "serve-read",
    ),
    layer(
        "serve.window_evictions",
        "count",
        Lower,
        "pmr-serve shard window",
        "throughput_per_s",
        "serve-burst",
    ),
    layer(
        "serve.window_duplicates",
        "count",
        Lower,
        "pmr-serve shard window",
        "throughput_per_s",
        "serve-burst",
    ),
    layer("serve.finish_s", "s", Lower, "pmr-serve engine drain", "throughput_per_s", "serve-read"),
    layer("serve.poll_s", "s", Lower, "pmr-serve engine poll", "latency_p50_us", "serve-read"),
    layer("load.lag_us.p50", "us", Lower, "load generator", "latency_p50_us", "serve-read"),
    layer("load.lag_us.p99", "us", Lower, "load generator", "latency_p50_us", "serve-read"),
    layer("sweep.run_s.TN", "s", Lower, "pmr-core experiment", "throughput_per_s", "sweep-gram"),
    layer("sweep.run_s.CN", "s", Lower, "pmr-core experiment", "throughput_per_s", "sweep-gram"),
    layer("sweep.run_s.TNG", "s", Lower, "pmr-graph", "throughput_per_s", "sweep-gram"),
    layer("sweep.run_s.CNG", "s", Lower, "pmr-graph", "throughput_per_s", "sweep-gram"),
    layer("sweep.run_s.LDA", "s", Lower, "pmr-topics", "throughput_per_s", "sweep-topic"),
    layer("sweep.run_s.BTM", "s", Lower, "pmr-topics", "throughput_per_s", "sweep-topic"),
    layer("sweep.train_s.TN", "s", Lower, "pmr-core experiment", "latency_p50_us", "sweep-gram"),
    layer("sweep.train_s.CN", "s", Lower, "pmr-core experiment", "latency_p50_us", "sweep-gram"),
    layer("sweep.train_s.TNG", "s", Lower, "pmr-graph", "latency_p50_us", "sweep-gram"),
    layer("sweep.train_s.CNG", "s", Lower, "pmr-graph", "latency_p50_us", "sweep-gram"),
    layer("sweep.train_s.LDA", "s", Lower, "pmr-topics", "latency_p50_us", "sweep-topic"),
    layer("sweep.train_s.BTM", "s", Lower, "pmr-topics", "latency_p50_us", "sweep-topic"),
    layer("sweep.test_s.TN", "s", Lower, "pmr-core experiment", "latency_p50_us", "sweep-gram"),
    layer("sweep.test_s.CN", "s", Lower, "pmr-core experiment", "latency_p50_us", "sweep-gram"),
    layer("sweep.test_s.TNG", "s", Lower, "pmr-graph", "latency_p50_us", "sweep-gram"),
    layer("sweep.test_s.CNG", "s", Lower, "pmr-graph", "latency_p50_us", "sweep-gram"),
    layer("sweep.test_s.LDA", "s", Lower, "pmr-topics", "latency_p50_us", "sweep-topic"),
    layer("sweep.test_s.BTM", "s", Lower, "pmr-topics", "latency_p50_us", "sweep-topic"),
    layer("sweep.idle_s", "s", Lower, "pmr-core executor", "throughput_per_s", "sweep-topic"),
    layer(
        "executor.queue_wait.sum_s",
        "s",
        Lower,
        "pmr-core executor",
        "throughput_per_s",
        "sweep-topic",
    ),
    layer(
        "executor.worker_busy.sum_s",
        "s",
        Lower,
        "pmr-core executor",
        "throughput_per_s",
        "sweep-topic",
    ),
    layer("bag.fit.sum_s", "s", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("bag.fit.count", "count", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("bag.transform.sum_s", "s", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("bag.transform.count", "count", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("bag.aggregate.sum_s", "s", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("bag.aggregate.count", "count", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("bag.kernel_build.sum_s", "s", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("bag.kernel_build.count", "count", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("kernel.score.sum_s", "s", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("kernel.score.count", "count", Lower, "pmr-bag", "throughput_per_s", "sweep-gram"),
    layer("gibbs_iter.lda.sum_s", "s", Lower, "pmr-topics", "throughput_per_s", "sweep-topic"),
    layer("gibbs_iter.lda.count", "count", Lower, "pmr-topics", "throughput_per_s", "sweep-topic"),
    layer("gibbs_iter.btm.sum_s", "s", Lower, "pmr-topics", "throughput_per_s", "sweep-topic"),
    layer("gibbs_iter.btm.count", "count", Lower, "pmr-topics", "throughput_per_s", "sweep-topic"),
    layer("eval.baselines_s", "s", Lower, "pmr-core eval", "throughput_per_s", "sweep-gram"),
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `--list` text: workloads, end-to-end metrics and layer metrics.
pub fn listing() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "pmr_benchmark: run_seconds {RUN_SECONDS}, seeds {DEFAULT_SEED} (default) and \
         {HOLDOUT_SEED} (holdout)\n\
         threads: serve = 1 load thread + 2 engine workers (64 shards, queue 256); sweep = 2 jobs\n\
         run:   pmr_benchmark --workload NAME --seed N --seconds S --trace 0\n\
         trace: pmr_benchmark --workload NAME --seed N --seconds S --trace 1 --spans PATH\n\
         all:   pmr_benchmark --seed N [--trace 1] [--out PATH]\n\nworkloads:\n"
    ));
    for w in &WORKLOADS {
        out.push_str(&format!("  {}\n    why:    {}\n    inputs: {}\n", w.name, w.why, w.params));
    }
    out.push_str("\nend-to-end metrics (untraced runs):\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<18} {:<5} {:<6} bound {:.0}%  {}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            m.definition
        ));
    }
    out.push_str("\nper-layer metrics (traced runs):\n");
    for l in &PER_LAYER {
        out.push_str(&format!(
            "  {:<30} {:<8} {:<6} {:<38} moves {} on {}\n",
            l.name,
            l.unit,
            l.better.name(),
            l.layer,
            l.moves,
            l.on
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use serde_json::Value;
    use std::path::PathBuf;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The repository root: the nearest ancestor holding `BENCHMARK.json`.
    fn repo_root() -> PathBuf {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            if dir.join("BENCHMARK.json").is_file() {
                return dir;
            }
            assert!(dir.pop(), "no BENCHMARK.json above {}", env!("CARGO_MANIFEST_DIR"));
        }
    }

    fn benchmark_json() -> Value {
        let path = repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
        field(v, key).as_str().unwrap_or_else(|| panic!("{key} is not a string"))
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn benchmark_json_matches_the_binary() {
        let b = benchmark_json();
        assert_eq!(
            keys(&b),
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(json::as_u64(field(&b, "run_seconds")), Some(RUN_SECONDS));

        let workloads = field(&b, "workloads").as_array().expect("workloads array");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys(j), ["name", "why"]);
            assert_eq!(str_field(j, "name"), w.name);
            assert_eq!(str_field(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
        }

        let e2e = field(&b, "end_to_end").as_array().expect("end_to_end array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
            assert_eq!(str_field(j, "name"), m.name);
            assert_eq!(str_field(j, "unit"), m.unit);
            assert_eq!(str_field(j, "better"), m.better.name());
            assert_eq!(json::as_f64(field(j, "bound")), Some(m.bound), "{}", m.name);
        }

        let layers = field(&b, "per_layer").as_array().expect("per_layer array");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, l) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(keys(j), ["name", "unit", "better"]);
            assert_eq!(str_field(j, "name"), l.name);
            assert_eq!(str_field(j, "unit"), l.unit);
            assert_eq!(str_field(j, "better"), l.better.name());
        }
    }

    #[test]
    fn names_units_counts_and_bounds_are_within_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|l| l.name));
        for name in names {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} needs a bound in (0, 0.25]", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s exists");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for l in &PER_LAYER {
            assert!(unit_ok(l.unit), "{}", l.name);
        }
    }

    #[test]
    fn every_layer_metric_names_an_end_to_end_metric_and_a_workload() {
        for l in &PER_LAYER {
            assert!(END_TO_END.iter().any(|m| m.name == l.moves), "{}: moves {}", l.name, l.moves);
            assert!(workload(l.on).is_some(), "{}: on {}", l.name, l.on);
        }
    }

    #[test]
    fn the_command_runs_this_package_and_paths_hold_it() {
        let b = benchmark_json();
        let command: Vec<&str> = field(&b, "command")
            .as_array()
            .expect("command array")
            .iter()
            .map(|v| v.as_str().expect("command strings"))
            .collect();
        let paths: Vec<&str> = field(&b, "paths")
            .as_array()
            .expect("paths array")
            .iter()
            .map(|v| v.as_str().expect("path strings"))
            .collect();
        let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = repo_root();
        let manifest_dir =
            if here.join("main.rs").is_file() { here } else { here.join("src/bin/pmr_benchmark") };
        let rel = manifest_dir.strip_prefix(&root).expect("inside the repository");
        assert_eq!(paths, [rel.to_str().expect("utf-8 path")]);
        let manifest = format!("{}/Cargo.toml", paths[0]);
        assert!(command.contains(&manifest.as_str()), "command must build {manifest}");
        assert!(command.len() <= 32 && command.iter().all(|s| s.len() <= 200));
        assert!(command.iter().all(|s| !s.starts_with('/') && !s.contains("..")));
    }

    #[test]
    fn listing_names_every_workload_and_metric() {
        let text = listing();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|l| l.name))
        {
            assert!(text.contains(name), "--list omits {name}");
        }
    }
}
