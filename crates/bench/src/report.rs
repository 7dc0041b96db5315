//! The one report renderer: every table and figure of the paper from a
//! sweep, plus a section per `BENCH_*.json` found in the output directory —
//! the markdown behind `write_report` and EXPERIMENTS.md.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use pmr_core::timing::human;
use pmr_core::{ModelFamily, RepresentationSource};
use pmr_obs::{HistogramSnapshot, MetricsSnapshot};
use pmr_sim::stats::{language_distribution, Table2, VolumeStats};
use pmr_sim::usertype::{partition_users, UserGroup};
use pmr_sim::{generate_corpus, Corpus, GroupStats};
use serde_json::{Number, Value};

use crate::{HarnessOptions, SweepCache};

/// Each user group's effectiveness figure, in the paper's order.
const FIGURES: [(UserGroup, &str); 4] = [
    (UserGroup::All, "Figure 3 — All Users"),
    (UserGroup::IP, "Figure 4 — IP"),
    (UserGroup::BU, "Figure 5 — BU"),
    (UserGroup::IS, "Figure 6 — IS"),
];

/// Render the report of `cache`, the sweep `opts` asked for. `opts.group`
/// restricts Figures 3–6 to one user group.
pub fn render(opts: &HarnessOptions, cache: &SweepCache) -> String {
    let corpus = generate_corpus(&opts.sim_config());
    let mut md = String::new();
    let _ = writeln!(
        md,
        "## Measured results (scale `{}`, seed {}, iteration scale {})\n",
        cache.scale, cache.seed, cache.iteration_scale
    );
    let _ = writeln!(md, "Generated by `write_report`; regenerate with:\n");
    let _ = writeln!(
        md,
        "```\ncargo run --release -p pmr-bench --bin write_report -- --scale {} --seed {}\n```\n",
        cache.scale, cache.seed
    );
    table2(&mut md, &corpus);
    table3(&mut md, &corpus);
    figures(&mut md, cache, opts.group);
    table6(&mut md, cache);
    figure7(&mut md, cache);
    table7(&mut md, cache);
    robustness(&mut md, cache);
    // Diagnostics, each only when its input exists: the --metrics-out
    // summary this invocation wrote, and the BENCH records in out_dir.
    let sections = [
        observability_section(opts),
        serving_section(opts),
        drift_section(opts),
        load_section(opts),
        scale_section(opts),
    ];
    for section in sections.into_iter().flatten() {
        md.push_str(&section);
    }
    md
}

/// A markdown table's header row and rule.
fn header(md: &mut String, cells: &[&str]) {
    let _ = writeln!(md, "| {} |", cells.join(" | "));
    let _ = writeln!(md, "|{}", "---|".repeat(cells.len()));
}

/// Picks one tweet volume out of a group's Table 2 statistics.
type Volume = fn(&GroupStats) -> &VolumeStats;

/// Table 2: per group, each volume's total and its min/mean/max per user.
fn table2(md: &mut String, corpus: &Corpus) {
    let table = Table2::compute(corpus, &partition_users(corpus));
    let _ = writeln!(md, "### Table 2 — dataset statistics\n");
    header(md, &["", "IS", "BU", "IP", "All"]);
    let mut row = |label: &str, cell: &dyn Fn(&GroupStats) -> String| {
        let groups = [UserGroup::IS, UserGroup::BU, UserGroup::IP, UserGroup::All];
        let cells: Vec<String> = groups.iter().map(|&g| cell(table.group(g))).collect();
        let _ = writeln!(md, "| {label} | {} |", cells.join(" | "));
    };
    row("Users", &|g| g.users.to_string());
    let volumes: [(&str, Volume); 4] = [
        ("Outgoing (TR)", |g| &g.outgoing),
        ("Retweets (R)", |g| &g.retweets),
        ("Incoming (E)", |g| &g.incoming),
        ("Followers' (F)", |g| &g.followers_tweets),
    ];
    for (label, volume) in volumes {
        row(label, &|g| volume(g).total.to_string());
        row(&format!("{label} per user, min / mean / max"), &|g| {
            let v = volume(g);
            format!("{} / {:.0} / {}", v.min, v.mean, v.max)
        });
    }
    let _ = writeln!(md, "\nTotal tweets in corpus: {}.\n", corpus.len());
}

/// Table 3: the ten most frequent languages and the share they cover.
fn table3(md: &mut String, corpus: &Corpus) {
    let rows = language_distribution(corpus);
    let top = &rows[..rows.len().min(10)];
    let _ = writeln!(md, "### Table 3 — language distribution\n");
    header(md, &["Language", "Tweets", "Share"]);
    for r in top {
        let share = r.relative_frequency * 100.0;
        let _ = writeln!(md, "| {} | {} | {share:.2}% |", r.language.name(), r.tweets);
    }
    let covered: f64 = top.iter().map(|r| r.relative_frequency).sum();
    let _ = writeln!(
        md,
        "\nThese {} languages cover {:.0}% of all {} tweets (paper: the top ten cover 91% \
         of 2.07M).\n",
        top.len(),
        covered * 100.0,
        corpus.len()
    );
}

/// Figures 3–6: min/mean/max MAP per model × figure source for each group,
/// and each model's MAP deviation averaged over those sources and at its
/// worst source.
fn figures(md: &mut String, cache: &SweepCache, only: Option<UserGroup>) {
    let mut columns = vec!["Model"];
    columns.extend(RepresentationSource::FIGURES.map(RepresentationSource::name));
    columns.extend(["Deviation avg", "Deviation worst"]);
    for (group, figure) in FIGURES.into_iter().filter(|&(g, _)| only.is_none_or(|o| o == g)) {
        let (chr, ran) = cache.baselines(group);
        let _ = writeln!(
            md,
            "### {figure} (min/mean/max MAP per model × source; CHR {chr:.3}, RAN {ran:.3})\n"
        );
        header(md, &columns);
        for family in ModelFamily::EVALUATED {
            let summaries = RepresentationSource::FIGURES.map(|s| cache.summary(family, s, group));
            let cells = summaries.map(|s| format!("{:.3}/{:.3}/{:.3}", s.min, s.mean, s.max));
            let deviations = summaries.map(|s| s.deviation());
            let avg = deviations.iter().sum::<f64>() / deviations.len() as f64;
            let worst = deviations.iter().fold(0.0f64, |a, &b| a.max(b));
            let name = family.name();
            let _ = writeln!(md, "| {name} | {} | {avg:.3} | {worst:.3} |", cells.join(" | "));
        }
        let _ = writeln!(md);
    }
}

/// Table 6: min/mean/max MAP of every source per group, and the sources
/// ranked by mean MAP over All Users.
fn table6(md: &mut String, cache: &SweepCache) {
    let _ = writeln!(
        md,
        "### Table 6 — sources × user types (min/mean/max MAP over all configurations)\n"
    );
    let mut columns = vec!["Group", "Stat"];
    columns.extend(RepresentationSource::ALL.map(RepresentationSource::name));
    columns.push("Avg");
    header(md, &columns);
    for group in [UserGroup::All, UserGroup::IS, UserGroup::BU, UserGroup::IP] {
        let summaries = RepresentationSource::ALL.map(|s| cache.source_summary(s, group));
        let stats = [
            ("Min", summaries.map(|s| s.min)),
            ("Mean", summaries.map(|s| s.mean)),
            ("Max", summaries.map(|s| s.max)),
        ];
        for (stat, values) in stats {
            let avg = values.iter().sum::<f64>() / values.len() as f64;
            let cells = values.map(|v| format!("{v:.3}"));
            let _ =
                writeln!(md, "| {} | {stat} | {} | {avg:.3} |", group.name(), cells.join(" | "));
        }
    }
    let mut ranked =
        RepresentationSource::ALL.map(|s| (s, cache.source_summary(s, UserGroup::All).mean));
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let ranks: Vec<String> = ranked
        .iter()
        .enumerate()
        .map(|(i, (s, m))| format!("{}. {} {m:.3}", i + 1, s.name()))
        .collect();
    let _ = writeln!(md, "\nSources ranked by mean MAP (All Users): {}.\n", ranks.join(", "));
}

/// Figure 7: TTime and ETime per model, min/avg/max over its runs.
fn figure7(md: &mut String, cache: &SweepCache) {
    let _ = writeln!(md, "### Figure 7 — time efficiency (TTime / ETime per model)\n");
    header(
        md,
        &["Model", "TTime min", "TTime avg", "TTime max", "ETime min", "ETime avg", "ETime max"],
    );
    for family in ModelFamily::EVALUATED {
        let t = cache.sweep.train_time_stats(family);
        let e = cache.sweep.test_time_stats(family);
        let cells = [t.min, t.avg, t.max, e.min, e.avg, e.max].map(human);
        let _ = writeln!(md, "| {} | {} |", family.name(), cells.join(" | "));
    }
    let _ = writeln!(md);
}

/// Table 7: the best configuration of every measured model × source.
fn table7(md: &mut String, cache: &SweepCache) {
    let _ = writeln!(md, "### Table 7 — best configuration per model × source (All Users MAP)\n");
    header(md, &["Model", "Source", "Configuration", "MAP"]);
    for family in ModelFamily::EVALUATED {
        for s in RepresentationSource::ALL {
            if let Some(best) = cache.best_config(family, s) {
                let map = cache.group_map(best, UserGroup::All);
                let (name, config) = (family.name(), best.config.describe());
                let _ = writeln!(md, "| {name} | {} | `{config}` | {map:.3} |", s.name());
            }
        }
    }
    let _ = writeln!(md);
}

/// MAP deviation of every model on source R over All Users.
fn robustness(md: &mut String, cache: &SweepCache) {
    let _ = writeln!(
        md,
        "### Robustness — MAP deviation (max − min over configurations, source R, All Users)\n"
    );
    header(md, &["Model", "Min", "Mean", "Max", "Deviation"]);
    for family in ModelFamily::EVALUATED {
        let s = cache.summary(family, RepresentationSource::R, UserGroup::All);
        let cells = [s.min, s.mean, s.max, s.deviation()].map(|v| format!("{v:.3}"));
        let _ = writeln!(md, "| {} | {} |", family.name(), cells.join(" | "));
    }
}

/// An unsigned integer field of a BENCH record.
fn int(v: &Value, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Value::Number(Number::PosInt(n))) => Some(*n),
        _ => None,
    }
}

/// A numeric field of a BENCH record.
fn float(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Number(Number::Float(f))) => Some(*f),
        Some(Value::Number(Number::PosInt(n))) => Some(*n as f64),
        _ => None,
    }
}

/// A string field of a BENCH record, or `?`.
fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// Whether a boolean field of a BENCH record is true.
fn is_true(v: &Value, key: &str) -> bool {
    matches!(v.get(key), Some(Value::Bool(true)))
}

/// The elements of an array field of a BENCH record.
fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or(&[])
}

/// A microsecond count, human-readable, or `—`.
fn micros(n: Option<u64>) -> String {
    n.map_or_else(|| "—".to_owned(), |n| human(Duration::from_micros(n)))
}

/// `byte-identical` or a bold `DIVERGENT`.
fn identity(identical: bool) -> &'static str {
    if identical {
        "byte-identical"
    } else {
        "**DIVERGENT**"
    }
}

/// The BENCH record `name` in `opts.out_dir`, when present and readable.
fn bench_record(opts: &HarnessOptions, name: &str) -> Option<(PathBuf, Value)> {
    let path = opts.out_dir.join(name);
    let bytes = std::fs::read(&path).ok()?;
    let v = serde_json::from_slice(&bytes).ok()?;
    Some((path, v))
}

/// The "### Observability" section, rendered from the `--metrics-out`
/// summary when this invocation wrote a readable one.
fn observability_section(opts: &HarnessOptions) -> Option<String> {
    let path = opts.metrics_out.as_ref()?;
    let bytes = std::fs::read(path).ok()?;
    let snap: MetricsSnapshot = serde_json::from_slice(&bytes).ok()?;
    let mut md = String::new();
    let _ = writeln!(md, "\n### Observability — metrics summary\n");
    let _ = writeln!(
        md,
        "From `{}`. Timings are diagnostic artifacts, excluded from the\n\
         repo's byte-identical determinism comparisons.\n",
        path.display()
    );

    let cell = |h: Option<&HistogramSnapshot>, pick: fn(&HistogramSnapshot) -> Duration| {
        h.map(|h| human(pick(h))).unwrap_or_else(|| "—".to_owned())
    };
    header(&mut md, &["Model", "Runs", "Train total", "Train mean", "Test total", "Test mean"]);
    for family in ModelFamily::EVALUATED {
        let train = snap.histogram(&format!("run.train.{}", family.name()));
        let test = snap.histogram(&format!("run.test.{}", family.name()));
        if train.is_none() && test.is_none() {
            continue;
        }
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} |",
            family.name(),
            train.or(test).map(|h| h.count).unwrap_or(0),
            cell(train, HistogramSnapshot::total),
            cell(train, HistogramSnapshot::mean),
            cell(test, HistogramSnapshot::total),
            cell(test, HistogramSnapshot::mean),
        );
    }

    let iters: Vec<(&String, &HistogramSnapshot)> = snap
        .histograms
        .iter()
        .filter(|(k, _)| {
            k.starts_with("gibbs_iter.")
                || k.starts_with("em_iter.")
                // Per-document fold-in inference in the serving engine.
                || k.as_str() == "topic.foldin"
        })
        .collect();
    if !iters.is_empty() {
        let _ = writeln!(md);
        header(&mut md, &["Sampler iteration", "Count", "Mean", "Min", "Max"]);
        for (name, h) in iters {
            let _ = writeln!(
                md,
                "| `{name}` | {} | {} | {} | {} |",
                h.count,
                human(h.mean()),
                micros(Some(h.min_us)),
                micros(Some(h.max_us)),
            );
        }
    }

    // Feature cache & scoring kernel (the sweep hot path).
    let hits = snap.counter("features.hit");
    let misses = snap.counter("features.miss");
    if hits + misses > 0 {
        let bytes = snap.gauge("features.bytes").unwrap_or(0.0);
        let build = snap
            .histogram("features.build")
            .map(|h| format!(" built in {}", human(h.total())))
            .unwrap_or_default();
        let _ = writeln!(
            md,
            "\nFeature cache: {hits} hit(s), {misses} table build(s){build}, \
             ~{:.1} MiB resident.",
            bytes / (1024.0 * 1024.0),
        );
    }
    if let Some(h) = snap.histogram("kernel.score") {
        let _ = writeln!(
            md,
            "Scoring kernel: {} scoring pass(es), total {}, mean {}.",
            h.count,
            human(h.total()),
            human(h.mean()),
        );
    }

    if let Some(jobs) = snap.gauge("executor.jobs") {
        let wall = snap.histogram("executor.pool_wall").map(|h| h.total()).unwrap_or_default();
        // The single-job executor runs tasks inline on the caller's thread:
        // no workers, so no worker_busy histogram and no utilization figure.
        let busy_clause = match snap.histogram("executor.worker_busy") {
            Some(h) if wall > Duration::ZERO && jobs >= 1.0 => {
                let util = 100.0 * h.total().as_secs_f64() / (wall.as_secs_f64() * jobs);
                format!(", worker busy {} ({util:.0}% utilization)", human(h.total()))
            }
            Some(h) => format!(", worker busy {}", human(h.total())),
            None => ", inline (no worker pool)".to_owned(),
        };
        let _ = writeln!(
            md,
            "\nExecutor: {jobs:.0} worker(s), pool wall {}{busy_clause}, inner-thread hint {}.",
            human(wall),
            snap.gauge("executor.inner_threads_hint").map(|v| v as u64).unwrap_or(0),
        );
    }

    let _ = writeln!(
        md,
        "\nSweep cache: {} hit(s), {} miss(es), {} invalidated, {} unreadable, {} stored.",
        snap.counter("sweep_cache.hit"),
        snap.counter("sweep_cache.miss"),
        snap.counter("sweep_cache.invalidated"),
        snap.counter("sweep_cache.unreadable"),
        snap.counter("sweep_cache.stored"),
    );
    Some(md)
}

/// The "### Serving engine" section, rendered from the `BENCH_serve.json`
/// that `bench_serve --out <out_dir>/BENCH_serve.json` wrote, when present.
/// Throughput and latency figures are machine-specific diagnostics — the
/// serving determinism artifact is the `--rec-log`, which CI byte-diffs.
fn serving_section(opts: &HarnessOptions) -> Option<String> {
    let (path, v) = bench_record(opts, "BENCH_serve.json")?;
    let latency = v.get("query_latency")?;
    let mut md = String::new();
    let _ = writeln!(md, "\n### Serving engine — `bench_serve` baseline\n");
    let _ = writeln!(
        md,
        "From `{}`: `pmr-serve` replaying scale `{}` seed {} with the `{}` \
         model, {} logical shard(s) on {} worker thread(s), {} feature \
         job(s). Machine-specific — excluded from determinism comparisons \
         (those byte-diff the `--rec-log`).\n",
        path.display(),
        text(&v, "scale"),
        int(&v, "seed").unwrap_or(0),
        text(&v, "model"),
        int(&v, "shards").unwrap_or(0),
        int(&v, "workers").unwrap_or(0),
        int(&v, "jobs").unwrap_or(0),
    );
    header(
        &mut md,
        &["Events", "Events/s", "Queries", "p50", "p90", "p99", "p99.9", "Backpressure"],
    );
    let _ = writeln!(
        md,
        "| {} | {:.0} | {} | {} | {} | {} | {} | {} |",
        int(&v, "events").unwrap_or(0),
        float(&v, "events_per_sec").unwrap_or(0.0),
        int(&v, "queries").unwrap_or(0),
        micros(int(latency, "p50_us")),
        micros(int(latency, "p90_us")),
        micros(int(latency, "p99_us")),
        micros(int(latency, "p999_us")),
        int(&v, "backpressure").unwrap_or(0),
    );
    let foldin_iters = int(&v, "topic_foldin_iters").unwrap_or(0);
    let refreshes = int(&v, "topic_background_refreshes").unwrap_or(0);
    if foldin_iters + refreshes > 0 {
        let _ = writeln!(
            md,
            "\nTopic serving: {foldin_iters} fold-in Gibbs sweep(s) across \
             shards (`serve.topic.foldin_iters`), {refreshes} background \
             (re)train(s) (`serve.topic.background_refresh`)."
        );
    }
    Some(md)
}

/// The "### Online serving quality" section, rendered from the
/// `BENCH_drift.json` that `bench_drift --out <out_dir>/BENCH_drift.json`
/// wrote, when present. One row per incremental family (bag, graph,
/// topic): the replay's online MAP against the oracle's — the same engine
/// replayed at decay 1.0 — over the *same* candidate sets and relevance
/// labels, so the drift column isolates what history decay costs.
fn drift_section(opts: &HarnessOptions) -> Option<String> {
    let (path, v) = bench_record(opts, "BENCH_drift.json")?;
    let mut md = String::new();
    let _ = writeln!(md, "\n### Online serving quality — `bench_drift` online-vs-oracle MAP\n");
    let _ = writeln!(
        md,
        "From `{}`: scale `{}` seed {}, window {}, one query per {} event(s), \
         topic refresh {}. Each family is replayed twice with k = window, so \
         every query logs its full candidate pool: once with its serving \
         preset and once with the same preset at decay 1.0 (the oracle). \
         Both are the engine itself, so each query sees only the retweets \
         ingested before it; the two logs must pair up query by query \
         (same user, time and candidate set). Drift = online − oracle MAP, \
         the cost of history decay alone, over identical relevance labels \
         and tie-breaking; zero-relevance queries are excluded from both \
         sides. ±95% is 1.96·s/√n over the per-query AP differences; p is \
         a paired randomization test.\n",
        path.display(),
        text(&v, "scale"),
        int(&v, "seed").unwrap_or(0),
        int(&v, "window").unwrap_or(0),
        int(&v, "query_every").unwrap_or(0),
        int(&v, "refresh").unwrap_or(0),
    );
    header(
        &mut md,
        &["Model", "Queries", "Scored", "Online MAP", "Oracle MAP", "Drift", "±95%", "p"],
    );
    for family in items(&v, "families") {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {:.3} | {:.3} | {:+.3} | {} | {:.3} |",
            text(family, "model"),
            int(family, "queries").unwrap_or(0),
            int(family, "scored_queries").unwrap_or(0),
            float(family, "online_map").unwrap_or(0.0),
            float(family, "oracle_map").unwrap_or(0.0),
            float(family, "drift").unwrap_or(0.0),
            float(family, "ci95_half_width").map_or_else(|| "—".to_owned(), |w| format!("{w:.3}")),
            float(family, "p_value").unwrap_or(1.0),
        );
    }
    Some(md)
}

/// The "### Elastic serving" section, rendered from the `BENCH_load.json`
/// that `bench_load --out <out_dir>/BENCH_load.json` wrote, when present.
/// Sojourn latencies and throughputs are machine-specific diagnostics; the
/// correctness artifacts are the rec-log identity and live-reshard
/// identity flags, both reported here.
fn load_section(opts: &HarnessOptions) -> Option<String> {
    let (path, v) = bench_record(opts, "BENCH_load.json")?;
    let mut md = String::new();
    let _ = writeln!(md, "\n### Elastic serving — `bench_load` open-loop harness\n");
    let _ = writeln!(
        md,
        "From `{}`: deterministic seeded arrivals driving scale `{}` seed {} \
         (`{}` model, {} logical shards, {} workers, queue {}) — {} engine \
         ops from {} stream events. Sojourn latency = completion − \
         scheduled arrival (open-loop, so overload shows up instead of \
         hiding behind coordinated omission). Machine-specific; excluded \
         from determinism comparisons.\n",
        path.display(),
        text(&v, "scale"),
        int(&v, "seed").unwrap_or(0),
        text(&v, "model"),
        int(&v, "shards").unwrap_or(0),
        int(&v, "workers").unwrap_or(0),
        int(&v, "queue_capacity").unwrap_or(0),
        int(&v, "ops").unwrap_or(0),
        int(&v, "stream_events").unwrap_or(0),
    );

    if let Some(leg) = v.get("capacity") {
        let _ = writeln!(
            md,
            "Capacity (all arrivals at t=0, best of 3): {:.0} ops/s on {} shards × \
             {} workers, backpressure {}.\n",
            float(leg, "ops_per_sec").unwrap_or(0.0),
            int(leg, "shards").unwrap_or(0),
            int(leg, "workers").unwrap_or(0),
            int(leg, "backpressure").unwrap_or(0),
        );
    }

    let _ = writeln!(md, "Open-loop scenarios:\n");
    header(
        &mut md,
        &[
            "Scenario",
            "Offered ops/s",
            "Ingest p50",
            "Ingest p99",
            "Ingest p99.9",
            "Query p50",
            "Query p99",
            "Query p99.9",
            "Backpressure",
            "Steals",
        ],
    );
    for leg in items(&v, "scenarios") {
        let q = |part: &str, key: &str| micros(leg.get(part).and_then(|p| int(p, key)));
        let _ = writeln!(
            md,
            "| {} | {:.0} | {} | {} | {} | {} | {} | {} | {} | {} |",
            text(leg, "scenario"),
            float(leg, "offered_ops_per_sec").unwrap_or(0.0),
            q("ingest", "p50_us"),
            q("ingest", "p99_us"),
            q("ingest", "p999_us"),
            q("query", "p50_us"),
            q("query", "p99_us"),
            q("query", "p999_us"),
            int(leg, "backpressure").unwrap_or(0),
            int(leg, "steals").unwrap_or(0),
        );
    }

    let reshard = v.get("reshard");
    let layouts: Vec<String> = reshard
        .map_or(&[][..], |r| items(r, "layouts"))
        .iter()
        .map(|l| format!("{}×{}", int(l, "shards").unwrap_or(0), int(l, "workers").unwrap_or(0)))
        .collect();
    let _ = writeln!(
        md,
        "\nEvery leg's rec log vs. the replay reference: {}. Live reshard \
         (snapshot at event {}, restored under {}): {}.",
        identity(is_true(&v, "rec_log_identical")),
        reshard.and_then(|r| int(r, "snapshot_at_event")).unwrap_or(0),
        layouts.join(", "),
        identity(reshard.is_some_and(|r| is_true(r, "identical"))),
    );
    Some(md)
}

/// The "### Scale generation" section, rendered from the `BENCH_scale.json`
/// that `bench_scale --out <out_dir>/BENCH_scale.json` wrote, when present.
/// Pure diagnostics of the streaming generator — never compared against
/// paper figures (see EXPERIMENTS.md).
fn scale_section(opts: &HarnessOptions) -> Option<String> {
    let (path, v) = bench_record(opts, "BENCH_scale.json")?;
    let mib = |n: Option<u64>| match n {
        Some(0) | None => "—".to_owned(),
        Some(n) => format!("{:.1} MiB", n as f64 / (1024.0 * 1024.0)),
    };
    let mut md = String::new();
    let _ = writeln!(md, "\n### Scale generation — `bench_scale` baseline\n");
    let _ = writeln!(
        md,
        "From `{}`: the streaming generator (chunked, {} events/chunk, {} \
         graph) vs. full materialization, seed {}. Machine-specific — \
         excluded from paper-figure comparisons.\n",
        path.display(),
        int(&v, "chunk_events").unwrap_or(0),
        text(&v, "graph"),
        int(&v, "seed").unwrap_or(0),
    );
    header(
        &mut md,
        &["Users", "Events", "Streaming events/s", "Streaming peak RSS", "Materialized peak RSS"],
    );
    for tier in items(&v, "tiers") {
        let streaming = tier.get("streaming")?;
        let materialized = tier.get("materialized").and_then(|m| int(m, "peak_rss_bytes"));
        let _ = writeln!(
            md,
            "| {} | {} | {:.0} | {} | {} |",
            int(tier, "users").unwrap_or(0),
            int(tier, "events").unwrap_or(0),
            float(streaming, "events_per_sec").unwrap_or(0.0),
            mib(int(streaming, "peak_rss_bytes")),
            mib(materialized),
        );
    }
    if let Some(serve) = v.get("serve") {
        let backpressure: Vec<String> = items(serve, "backpressure")
            .iter()
            .map(|b| match b {
                Value::Number(Number::PosInt(n)) => n.to_string(),
                _ => "?".to_owned(),
            })
            .collect();
        let _ = writeln!(
            md,
            "\nServing leg at {} users: {} events, {} queries, backpressure \
             per layout [{}], recommendation logs {} across shard layouts.",
            int(serve, "users").unwrap_or(0),
            int(serve, "events").unwrap_or(0),
            int(serve, "queries").unwrap_or(0),
            backpressure.join(", "),
            identity(is_true(serve, "rec_log_identical")),
        );
    }
    Some(md)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::tiny_opts;

    #[test]
    fn renders_every_table_and_figure_once_without_bench_files() {
        let dir = std::env::temp_dir().join(format!("pmr_report_{}", std::process::id()));
        let opts = HarnessOptions { out_dir: dir, ..tiny_opts() };
        let mut cache = SweepCache::run(&opts).expect("tiny sweep runs");
        // A copy of the R runs relabelled as source F, a source the
        // report's Table 7 once left out.
        let relabelled: Vec<_> = cache
            .sweep
            .results
            .iter()
            .map(|r| pmr_core::experiment::ConfigResult {
                source: RepresentationSource::F,
                ..r.clone()
            })
            .collect();
        cache.sweep.results.extend(relabelled);
        cache.sources.push("F".to_owned());

        let md = render(&opts, &cache);
        let sections = [
            "Table 2",
            "Table 3",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Table 6",
            "Figure 7",
            "Table 7",
            "Robustness",
        ];
        for section in sections {
            assert_eq!(md.matches(&format!("\n### {section} ")).count(), 1, "{section}");
        }
        assert_eq!(md.matches("\n### ").count(), sections.len(), "no BENCH section");

        let table7 = md.split("### Table 7").nth(1).and_then(|t| t.split("###").next());
        let rows: Vec<&str> =
            table7.expect("Table 7 renders").lines().filter(|l| l.starts_with("| TNG |")).collect();
        assert_eq!(rows.len(), cache.sources.len(), "{rows:?}");
        for (row, source) in rows.iter().zip(&cache.sources) {
            assert!(row.starts_with(&format!("| TNG | {source} | `TNG ")), "{row}");
        }
    }
}
