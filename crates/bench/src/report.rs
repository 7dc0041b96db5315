//! The one report renderer: every table and figure of the paper from a
//! sweep, plus a section per benchmark record (`BENCH_*.json`) found in the
//! output directory — the markdown behind `write_report` and EXPERIMENTS.md.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use pmr_core::timing::human;
use pmr_core::{
    paired_randomization_test, wilcoxon_signed_rank, ModelFamily, RepresentationSource,
};
use pmr_obs::{HistogramSnapshot, MetricsSnapshot};
use pmr_sim::stats::{language_distribution, Table2, VolumeStats};
use pmr_sim::usertype::{partition_users, UserGroup};
use pmr_sim::{generate_corpus, Corpus, GroupStats, UserId};
use serde::Deserialize;
use serde_json::{Number, Value};

use crate::record::{BenchRecord, Fields};
use crate::{fields, HarnessOptions, SweepCache};

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
    significance(&mut md, cache, opts.seed);
    // Diagnostics, each only when its input exists: the --metrics-out
    // summary this invocation wrote, and the BENCH records in out_dir.
    md.extend(observability_section(opts));
    md.extend(bench_sections(opts));
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

/// The family pairs of the paper's §5 significance statements: TNG vs TN,
/// token vs character, the strongest topic model vs the baseline one, and
/// context-based vs context-agnostic.
const SIGNIFICANCE_PAIRS: [(ModelFamily, ModelFamily); 6] = [
    (ModelFamily::TNG, ModelFamily::TN),
    (ModelFamily::TN, ModelFamily::CN),
    (ModelFamily::TNG, ModelFamily::CNG),
    (ModelFamily::BTM, ModelFamily::LDA),
    (ModelFamily::TN, ModelFamily::BTM),
    (ModelFamily::CNG, ModelFamily::CN),
];

/// Significance (§5): each pair's per-user APs on source R over All Users,
/// paired by user, under a paired randomization test (10,000 permutations
/// seeded by `seed`) and a Wilcoxon signed-rank test — once with each
/// family's APs averaged over its configurations, once for each family's
/// best configuration.
fn significance(md: &mut String, cache: &SweepCache, seed: u64) {
    let source = RepresentationSource::R;
    let members = cache.group_members(UserGroup::All);
    let _ = writeln!(
        md,
        "\n### Significance (§5) — paired tests on source {source} (All Users, n = {})",
        members.len()
    );
    // A family's per-user AP, averaged over the runs `best_only` selects.
    let user_aps = |family: ModelFamily, best_only: bool| -> BTreeMap<UserId, f64> {
        let runs: Vec<_> = if best_only {
            cache.best_config(family, source).into_iter().collect()
        } else {
            let all = cache.sweep.results.iter();
            all.filter(|r| r.family == family && r.source == source).collect()
        };
        let mut sums: BTreeMap<UserId, (f64, usize)> = BTreeMap::new();
        for &(user, ap) in runs.iter().flat_map(|r| &r.per_user_ap) {
            let sum = sums.entry(user).or_default();
            *sum = (sum.0 + ap, sum.1 + 1);
        }
        sums.into_iter().map(|(user, (sum, n))| (user, sum / n as f64)).collect()
    };
    for (best_only, title) in [(false, "Mean over configurations"), (true, "Best configuration")] {
        let _ = writeln!(md, "\n{title} per family:\n");
        header(md, &["Pair", "Δ mean AP", "Permutation p", "Wilcoxon p", "p < 0.05"]);
        for (a, b) in SIGNIFICANCE_PAIRS {
            let (aps_a, aps_b) = (user_aps(a, best_only), user_aps(b, best_only));
            let (xs, ys): (Vec<f64>, Vec<f64>) =
                members.iter().filter_map(|u| Some((*aps_a.get(u)?, *aps_b.get(u)?))).unzip();
            let perm = paired_randomization_test(&xs, &ys, 10_000, seed);
            let wilcoxon = wilcoxon_signed_rank(&xs, &ys);
            let _ = writeln!(
                md,
                "| {} vs {} | {:+.3} | {:.4} | {:.4} | {} |",
                a.name(),
                b.name(),
                perm.mean_difference,
                perm.p_value,
                wilcoxon.p_value,
                if perm.significant() { "yes" } else { "no" }
            );
        }
    }
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

/// The section of every benchmark record in `opts.out_dir`: each
/// `BENCH_*.json` that parses as a [`BenchRecord`], in file-name order.
fn bench_sections(opts: &HarnessOptions) -> Vec<String> {
    let Ok(dir) = std::fs::read_dir(&opts.out_dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = dir.filter_map(|entry| Some(entry.ok()?.path())).collect();
    paths.retain(|p| {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        name.starts_with("BENCH_") && name.ends_with(".json")
    });
    paths.sort();
    let read = |path: &PathBuf| serde_json::from_slice(&std::fs::read(path).ok()?).ok();
    paths.iter().filter_map(|path| Some(render_record(path, &read(path)?))).collect()
}

/// A benchmark record as a report section: what was measured, where and
/// on which commit, then every param, headline number, stage, table row
/// and check. A failed check reads **FAILED**.
pub fn render_record(path: &Path, r: &BenchRecord) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "\n### `{}` — {}\n", r.bench, r.what);
    let _ = writeln!(
        md,
        "From `{}`: scale `{}`, seed {}, commit `{}`, {} CPU(s), {}. Timings are \
         machine-specific and excluded from determinism comparisons.\n",
        path.display(),
        r.scale,
        r.seed,
        r.git_rev,
        r.host.cpus,
        r.host.os
    );
    for (title, fields) in [("Parameters", &r.params), ("Headline", &r.headline)] {
        if !fields.0.is_empty() {
            let entries: Vec<String> = fields
                .0
                .iter()
                .map(|(name, v)| format!("{} {}", label(name), cell(name, v)))
                .collect();
            let _ = writeln!(md, "{title}: {}.\n", entries.join(", "));
        }
    }
    let stages: Vec<Fields> = r
        .stages
        .iter()
        .map(|s| {
            fields! {
                "stage": s.name, "count": s.count, "p50_us": s.p50_us, "p99_us": s.p99_us,
                "total_s": s.total_s,
            }
        })
        .collect();
    let tables = r.tables.0.iter().map(|(name, rows)| (name.as_str(), rows));
    for (name, rows) in std::iter::once(("stages", &stages)).chain(tables) {
        if rows.is_empty() {
            continue;
        }
        let mut columns: Vec<&str> = Vec::new();
        for (column, _) in rows.iter().flat_map(|row| &row.0) {
            if !columns.contains(&column.as_str()) {
                columns.push(column);
            }
        }
        let _ = writeln!(md, "`{name}`:\n");
        header(&mut md, &columns.iter().map(|c| label(c)).collect::<Vec<_>>());
        for row in rows {
            let cells =
                columns.iter().map(|&c| row.get(c).map_or_else(|| "—".to_owned(), |v| cell(c, v)));
            let _ = writeln!(md, "| {} |", cells.collect::<Vec<_>>().join(" | "));
        }
        md.push('\n');
    }
    for c in &r.checks {
        let _ = writeln!(md, "- {}: {}", if c.ok { "ok" } else { "**FAILED**" }, c.check);
    }
    md
}

/// A record field's name without the unit suffix [`cell`] prints instead.
fn label(name: &str) -> &str {
    ["_us", "_s", "_bytes"].iter().find_map(|unit| name.strip_suffix(unit)).unwrap_or(name)
}

/// A record value as a table cell, in the unit its name ends in: `_us`
/// and `_s` as durations, `_bytes` in MiB.
fn cell(name: &str, v: &Value) -> String {
    let seconds = |s: f64| Duration::try_from_secs_f64(s).map_or_else(|_| "—".to_owned(), human);
    match (v, f64::deserialize(v).ok().filter(|x| x.is_finite())) {
        (Value::Array(items), _) => {
            let items: Vec<String> = items.iter().map(|item| cell(name, item)).collect();
            format!("[{}]", items.join(", "))
        }
        (_, Some(x)) if name.ends_with("_us") => seconds(x / 1e6),
        (_, Some(x)) if name.ends_with("_s") => seconds(x),
        (_, Some(x)) if name.ends_with("_bytes") => format!("{:.1} MiB", x / (1024.0 * 1024.0)),
        (Value::Number(Number::Float(_)), Some(x)) if x.abs() >= 1000.0 => format!("{x:.0}"),
        (Value::Number(Number::Float(_)), Some(x)) => format!("{x:.3}"),
        (Value::String(s), _) => s.clone(),
        (Value::Null, _) => "—".to_owned(),
        _ => v.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::tiny_opts;
    use crate::Stage;

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
            "Significance",
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

    #[test]
    fn a_record_renders_every_entry_and_a_failed_check_reads_failed() {
        let params = fields! { "model": "bag", "shards": 4 };
        let mut record = BenchRecord::new("bench_fixture", "a fixture run", "smoke", 7, params);
        record.stages = vec![Stage::timed("replay", &[Duration::from_millis(3)])];
        record.headline =
            fields! { "events": 3596, "events_per_sec": 8648.6, "peak_rss_bytes": 1 << 21 };
        record.table(
            "families",
            vec![
                fields! { "model": "graph", "drift": 0.25 },
                fields! { "model": "topic", "p_value": 0.5345, "identical": true },
            ],
        );
        record.check("the logs pair up", true);
        record.check("the reshard continues the log", false);
        let md = render_record(Path::new("out/BENCH_fixture.json"), &record);
        let expected = [
            "\n### `bench_fixture` — a fixture run\n",
            "From `out/BENCH_fixture.json`: scale `smoke`, seed 7, commit `",
            &format!(
                "commit `{}`, {} CPU(s), {}.",
                record.git_rev, record.host.cpus, record.host.os
            ),
            "Parameters: model bag, shards 4.",
            "Headline: events 3596, events_per_sec 8649, peak_rss 2.0 MiB.",
            "| stage | count | p50 | p99 | total |",
            "| replay | 1 | 3.0ms | 3.0ms | 3.0ms |",
            "`families`:",
            "| model | drift | p_value | identical |",
            "| graph | 0.250 | — | — |",
            "| topic | — | 0.534 | true |",
            "- ok: the logs pair up",
            "- **FAILED**: the reshard continues the log",
        ];
        for line in expected {
            assert!(md.contains(line), "missing {line:?} in\n{md}");
        }
    }
}
