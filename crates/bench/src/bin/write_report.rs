//! Renders the cached sweep into a markdown report with the
//! paper-vs-measured comparison for every table and figure — the generator
//! behind EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p pmr-bench --bin write_report -- --scale smoke --out results
//! ```
//!
//! Accepts the shared harness flags (`--help` lists them); when the sweep
//! is not cached yet, `--jobs N` fans it across N worker threads.

use std::fmt::Write as _;
use std::time::Duration;

use pmr_bench::{HarnessOptions, SweepCache};
use pmr_core::timing::human;
use pmr_core::{ModelFamily, RepresentationSource};
use pmr_obs::{HistogramSnapshot, MetricsSnapshot};
use pmr_sim::generate_corpus;
use pmr_sim::stats::{language_distribution, Table2};
use pmr_sim::usertype::{partition_users, UserGroup};
use serde_json::{Number, Value};

fn main() -> std::io::Result<()> {
    let opts = HarnessOptions::from_env();
    opts.install_observability();
    let cache = SweepCache::load_or_run(&opts).expect("sweep failed");
    // Writes the --metrics-out summary (rendered as a report section below).
    opts.finish_observability();
    let corpus = generate_corpus(&opts.sim_config());
    let partition = partition_users(&corpus);
    let table2 = Table2::compute(&corpus, &partition);
    let langs = language_distribution(&corpus);

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

    // Table 2.
    let _ = writeln!(md, "### Table 2 — dataset statistics\n");
    let _ = writeln!(md, "| | IS | BU | IP | All |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    let groups = [UserGroup::IS, UserGroup::BU, UserGroup::IP, UserGroup::All];
    let row = |md: &mut String, label: &str, f: &dyn Fn(&pmr_sim::GroupStats) -> String| {
        let cells: Vec<String> = groups.iter().map(|&g| f(table2.group(g))).collect();
        let _ = writeln!(md, "| {label} | {} |", cells.join(" | "));
    };
    row(&mut md, "Users", &|g| g.users.to_string());
    row(&mut md, "Outgoing (TR)", &|g| g.outgoing.total.to_string());
    row(&mut md, "Retweets (R)", &|g| g.retweets.total.to_string());
    row(&mut md, "Incoming (E)", &|g| g.incoming.total.to_string());
    row(&mut md, "Followers' (F)", &|g| g.followers_tweets.total.to_string());
    let _ = writeln!(md);

    // Table 3.
    let _ = writeln!(md, "### Table 3 — language distribution\n");
    let _ = writeln!(md, "| Language | Tweets | Share |");
    let _ = writeln!(md, "|---|---|---|");
    for r in langs.iter().take(10) {
        let _ = writeln!(
            md,
            "| {} | {} | {:.2}% |",
            r.language.name(),
            r.tweets,
            r.relative_frequency * 100.0
        );
    }
    let _ = writeln!(md);

    // Figures 3–6.
    for group in [UserGroup::All, UserGroup::IP, UserGroup::BU, UserGroup::IS] {
        let figure = match group {
            UserGroup::All => "Figure 3 — All Users",
            UserGroup::IP => "Figure 4 — IP",
            UserGroup::BU => "Figure 5 — BU",
            UserGroup::IS => "Figure 6 — IS",
        };
        let (chr, ran) = cache.baselines(group);
        let _ = writeln!(
            md,
            "### {figure} (mean MAP per model × source; CHR {chr:.3}, RAN {ran:.3})\n"
        );
        let mut header = String::from("| Model |");
        for s in RepresentationSource::FIGURES {
            let _ = write!(header, " {} |", s.name());
        }
        let _ = writeln!(md, "{header}");
        let _ = writeln!(md, "|---{}|", "|---".repeat(RepresentationSource::FIGURES.len()));
        for family in ModelFamily::EVALUATED {
            let mut line = format!("| {} |", family.name());
            for s in RepresentationSource::FIGURES {
                let summary = cache.summary(family, s, group);
                let _ = write!(line, " {:.3} |", summary.mean);
            }
            let _ = writeln!(md, "{line}");
        }
        let _ = writeln!(md);
    }

    // Table 6.
    let _ = writeln!(md, "### Table 6 — sources × user types (mean MAP over all configurations)\n");
    let mut header = String::from("| Group |");
    for s in RepresentationSource::ALL {
        let _ = write!(header, " {} |", s.name());
    }
    header.push_str(" Avg |");
    let _ = writeln!(md, "{header}");
    let _ = writeln!(md, "|---{}|---|", "|---".repeat(RepresentationSource::ALL.len()));
    for group in [UserGroup::All, UserGroup::IS, UserGroup::BU, UserGroup::IP] {
        let mut line = format!("| {} |", group.name());
        let mut sum = 0.0;
        for s in RepresentationSource::ALL {
            let mean = cache.source_summary(s, group).mean;
            sum += mean;
            let _ = write!(line, " {mean:.3} |");
        }
        let _ = write!(line, " {:.3} |", sum / RepresentationSource::ALL.len() as f64);
        let _ = writeln!(md, "{line}");
    }
    let _ = writeln!(md);

    // Figure 7.
    let _ = writeln!(md, "### Figure 7 — time efficiency (avg TTime / ETime per model)\n");
    let _ = writeln!(md, "| Model | TTime avg | ETime avg |");
    let _ = writeln!(md, "|---|---|---|");
    for family in ModelFamily::EVALUATED {
        let t = cache.sweep.train_time_stats(family);
        let e = cache.sweep.test_time_stats(family);
        let _ = writeln!(md, "| {} | {} | {} |", family.name(), human(t.avg), human(e.avg));
    }
    let _ = writeln!(md);

    // Table 7 (best configs, All Users).
    let _ = writeln!(md, "### Table 7 — best configuration per model × source (All Users MAP)\n");
    let _ = writeln!(md, "| Model | Source | Configuration | MAP |");
    let _ = writeln!(md, "|---|---|---|---|");
    for family in ModelFamily::EVALUATED {
        for s in [RepresentationSource::R, RepresentationSource::T, RepresentationSource::E] {
            if let Some(best) = cache.best_config(family, s) {
                let map = cache.group_map(best, UserGroup::All);
                let _ = writeln!(
                    md,
                    "| {} | {} | `{}` | {map:.3} |",
                    family.name(),
                    s.name(),
                    best.config.describe()
                );
            }
        }
    }
    let _ = writeln!(md);

    // MAP deviations (robustness).
    let _ = writeln!(
        md,
        "### Robustness — MAP deviation (max − min over configurations, source R, All Users)\n"
    );
    let _ = writeln!(md, "| Model | Min | Mean | Max | Deviation |");
    let _ = writeln!(md, "|---|---|---|---|---|");
    for family in ModelFamily::EVALUATED {
        let s = cache.summary(family, RepresentationSource::R, UserGroup::All);
        let _ = writeln!(
            md,
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} |",
            family.name(),
            s.min,
            s.mean,
            s.max,
            s.deviation()
        );
    }

    // Observability (only when --metrics-out produced a summary).
    if let Some(section) = observability_section(&opts) {
        md.push_str(&section);
    }
    // Serving-engine baseline (only when bench_serve wrote one to out_dir).
    if let Some(section) = serving_section(&opts) {
        md.push_str(&section);
    }
    // Online-vs-oracle drift (only when bench_drift wrote one to out_dir).
    if let Some(section) = drift_section(&opts) {
        md.push_str(&section);
    }
    // Elastic-serving load harness (only when bench_load wrote one to out_dir).
    if let Some(section) = load_section(&opts) {
        md.push_str(&section);
    }
    // Scale-generation baseline (only when bench_scale wrote one to out_dir).
    if let Some(section) = scale_section(&opts) {
        md.push_str(&section);
    }

    std::fs::create_dir_all(&opts.out_dir)?;
    let path = opts.out_dir.join(format!("report_{}_{}.md", cache.scale, cache.seed));
    std::fs::write(&path, &md)?;
    println!("wrote {}", path.display());
    println!("\n{md}");
    Ok(())
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
    let _ = writeln!(md, "| Model | Runs | Train total | Train mean | Test total | Test mean |");
    let _ = writeln!(md, "|---|---|---|---|---|---|");
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
        let _ = writeln!(md, "\n| Sampler iteration | Count | Mean | Min | Max |");
        let _ = writeln!(md, "|---|---|---|---|---|");
        for (name, h) in iters {
            let _ = writeln!(
                md,
                "| `{name}` | {} | {} | {} | {} |",
                h.count,
                human(h.mean()),
                human(Duration::from_micros(h.min_us)),
                human(Duration::from_micros(h.max_us)),
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
    let path = opts.out_dir.join("BENCH_serve.json");
    let bytes = std::fs::read(&path).ok()?;
    let v: Value = serde_json::from_slice(&bytes).ok()?;
    let int = |field: &Value, key: &str| match field.get(key) {
        Some(Value::Number(Number::PosInt(n))) => Some(*n),
        _ => None,
    };
    let float = |key: &str| match v.get(key) {
        Some(Value::Number(Number::Float(f))) => Some(*f),
        Some(Value::Number(Number::PosInt(n))) => Some(*n as f64),
        _ => None,
    };
    let latency = v.get("query_latency")?;
    let us = |n: Option<u64>| {
        n.map(|n| human(Duration::from_micros(n))).unwrap_or_else(|| "—".to_owned())
    };

    let mut md = String::new();
    let _ = writeln!(md, "\n### Serving engine — `bench_serve` baseline\n");
    let _ = writeln!(
        md,
        "From `{}`: `pmr-serve` replaying scale `{}` seed {} with the `{}` \
         model, {} logical shard(s) on {} worker thread(s), {} feature \
         job(s). Machine-specific — excluded from determinism comparisons \
         (those byte-diff the `--rec-log`).\n",
        path.display(),
        v.get("scale").and_then(Value::as_str).unwrap_or("?"),
        int(&v, "seed").unwrap_or(0),
        v.get("model").and_then(Value::as_str).unwrap_or("?"),
        int(&v, "shards").unwrap_or(0),
        int(&v, "workers").unwrap_or(0),
        int(&v, "jobs").unwrap_or(0),
    );
    let _ =
        writeln!(md, "| Events | Events/s | Queries | p50 | p90 | p99 | p99.9 | Backpressure |");
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    let _ = writeln!(
        md,
        "| {} | {:.0} | {} | {} | {} | {} | {} | {} |",
        int(&v, "events").unwrap_or(0),
        float("events_per_sec").unwrap_or(0.0),
        int(&v, "queries").unwrap_or(0),
        us(int(latency, "p50_us")),
        us(int(latency, "p90_us")),
        us(int(latency, "p99_us")),
        us(int(latency, "p999_us")),
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
    let path = opts.out_dir.join("BENCH_drift.json");
    let bytes = std::fs::read(&path).ok()?;
    let v: Value = serde_json::from_slice(&bytes).ok()?;
    let int = |field: &Value, key: &str| match field.get(key) {
        Some(Value::Number(Number::PosInt(n))) => Some(*n),
        _ => None,
    };
    let float = |field: &Value, key: &str| match field.get(key) {
        Some(Value::Number(Number::Float(f))) => Some(*f),
        Some(Value::Number(Number::PosInt(n))) => Some(*n as f64),
        _ => None,
    };

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
        v.get("scale").and_then(Value::as_str).unwrap_or("?"),
        int(&v, "seed").unwrap_or(0),
        int(&v, "window").unwrap_or(0),
        int(&v, "query_every").unwrap_or(0),
        int(&v, "refresh").unwrap_or(0),
    );
    let _ =
        writeln!(md, "| Model | Queries | Scored | Online MAP | Oracle MAP | Drift | ±95% | p |");
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    for family in v.get("families").and_then(Value::as_array).unwrap_or(&[]) {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {:.3} | {:.3} | {:+.3} | {} | {:.3} |",
            family.get("model").and_then(Value::as_str).unwrap_or("?"),
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
    let path = opts.out_dir.join("BENCH_load.json");
    let bytes = std::fs::read(&path).ok()?;
    let v: Value = serde_json::from_slice(&bytes).ok()?;
    let int = |field: &Value, key: &str| match field.get(key) {
        Some(Value::Number(Number::PosInt(n))) => Some(*n),
        _ => None,
    };
    let float = |field: &Value, key: &str| match field.get(key) {
        Some(Value::Number(Number::Float(f))) => Some(*f),
        Some(Value::Number(Number::PosInt(n))) => Some(*n as f64),
        _ => None,
    };
    let us = |n: Option<u64>| {
        n.map(|n| human(Duration::from_micros(n))).unwrap_or_else(|| "—".to_owned())
    };

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
        v.get("scale").and_then(Value::as_str).unwrap_or("?"),
        int(&v, "seed").unwrap_or(0),
        v.get("model").and_then(Value::as_str).unwrap_or("?"),
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
    let _ = writeln!(
        md,
        "| Scenario | Offered ops/s | Ingest p50 | Ingest p99 | Ingest p99.9 \
         | Query p50 | Query p99 | Query p99.9 | Backpressure | Steals |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|---|---|");
    for leg in v.get("scenarios").and_then(Value::as_array).unwrap_or(&[]) {
        let ingest = leg.get("ingest");
        let query = leg.get("query");
        let q = |part: Option<&Value>, key: &str| us(part.and_then(|p| int(p, key)));
        let _ = writeln!(
            md,
            "| {} | {:.0} | {} | {} | {} | {} | {} | {} | {} | {} |",
            leg.get("scenario").and_then(Value::as_str).unwrap_or("?"),
            float(leg, "offered_ops_per_sec").unwrap_or(0.0),
            q(ingest, "p50_us"),
            q(ingest, "p99_us"),
            q(ingest, "p999_us"),
            q(query, "p50_us"),
            q(query, "p99_us"),
            q(query, "p999_us"),
            int(leg, "backpressure").unwrap_or(0),
            int(leg, "steals").unwrap_or(0),
        );
    }

    let rec_identical = matches!(v.get("rec_log_identical"), Some(Value::Bool(true)));
    let reshard = v.get("reshard");
    let reshard_identical =
        reshard.map(|r| matches!(r.get("identical"), Some(Value::Bool(true)))).unwrap_or(false);
    let layouts: Vec<String> = reshard
        .and_then(|r| r.get("layouts"))
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|l| format!("{}×{}", int(l, "shards").unwrap_or(0), int(l, "workers").unwrap_or(0)))
        .collect();
    let _ = writeln!(
        md,
        "\nEvery leg's rec log vs. the replay reference: {}. Live reshard \
         (snapshot at event {}, restored under {}): {}.",
        if rec_identical { "byte-identical" } else { "**DIVERGENT**" },
        reshard.and_then(|r| int(r, "snapshot_at_event")).unwrap_or(0),
        layouts.join(", "),
        if reshard_identical { "byte-identical" } else { "**DIVERGENT**" },
    );
    Some(md)
}

/// The "### Scale generation" section, rendered from the `BENCH_scale.json`
/// that `bench_scale --out <out_dir>/BENCH_scale.json` wrote, when present.
/// Pure diagnostics of the streaming generator — never compared against
/// paper figures (see EXPERIMENTS.md).
fn scale_section(opts: &HarnessOptions) -> Option<String> {
    let path = opts.out_dir.join("BENCH_scale.json");
    let bytes = std::fs::read(&path).ok()?;
    let v: Value = serde_json::from_slice(&bytes).ok()?;
    let int = |field: &Value, key: &str| match field.get(key) {
        Some(Value::Number(Number::PosInt(n))) => Some(*n),
        _ => None,
    };
    let float = |field: &Value, key: &str| match field.get(key) {
        Some(Value::Number(Number::Float(f))) => Some(*f),
        Some(Value::Number(Number::PosInt(n))) => Some(*n as f64),
        _ => None,
    };
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
        v.get("graph").and_then(Value::as_str).unwrap_or("?"),
        int(&v, "seed").unwrap_or(0),
    );
    let _ = writeln!(
        md,
        "| Users | Events | Streaming events/s | Streaming peak RSS | Materialized peak RSS |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|");
    for tier in v.get("tiers").and_then(Value::as_array).unwrap_or(&[]) {
        let streaming = tier.get("streaming")?;
        let materialized_rss = tier
            .get("materialized")
            .filter(|m| !matches!(m, Value::Null))
            .and_then(|m| int(m, "peak_rss_bytes"));
        let _ = writeln!(
            md,
            "| {} | {} | {:.0} | {} | {} |",
            int(tier, "users").unwrap_or(0),
            int(tier, "events").unwrap_or(0),
            float(streaming, "events_per_sec").unwrap_or(0.0),
            mib(int(streaming, "peak_rss_bytes")),
            mib(materialized_rss),
        );
    }
    if let Some(serve) = v.get("serve") {
        let identical = matches!(serve.get("rec_log_identical"), Some(Value::Bool(true)));
        let backpressure: Vec<String> = serve
            .get("backpressure")
            .and_then(Value::as_array)
            .unwrap_or(&[])
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
            if identical { "byte-identical" } else { "**DIVERGENT**" },
        );
    }
    Some(md)
}
