//! The sweep workloads: the batch study's grid, run the way
//! `SweepCache::run` runs it, over the study's fixed smoke corpus.
//!
//! The corpus is always the one `results/sweep_smoke_42.json` was produced
//! from (corpus seed 42); `--seed` is the run seed of the scoring options
//! (topic sampler and fold-in seeds, random baseline). Sweep cost moves by
//! about ±15% between corpus seeds, which would swamp any regression bound,
//! while the run seed leaves the work unchanged.
//!
//! Outputs are checked per run: a run fails if it panics or if its
//! per-user APs differ from the reference digest. The reference digests
//! for the gram families hold for every run seed; the topic families'
//! depend on it and are kept for the default and holdout seeds. For other
//! seeds the first run of each (family, source) pair is re-run
//! sequentially on the calling thread and must match, and every round must
//! match the first.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use serde_json::Value;

use pmr_core::executor;
use pmr_core::experiment::ConfigResult;
use pmr_core::recommender::ScoringOptions;
use pmr_core::{
    ConfigGrid, ExperimentRunner, ModelConfiguration, ModelFamily, PreparedCorpus,
    RepresentationSource, RetrievalMode, RunnerOptions, SplitConfig,
};
use pmr_sim::usertype::UserGroup;
use pmr_sim::{generate_corpus, ScalePreset, SimConfig};

use crate::json;
use crate::report::{measure_rounds, record_setup, Outcome, Stages};
use crate::stats::median;
use crate::trace::Tracer;

/// Sweep worker threads, one per core of a two-core host.
const JOBS: usize = 2;
/// Gibbs/EM iteration multiplier of the committed smoke sweep.
const ITERATION_SCALE: f64 = 0.015;
/// The study's corpus seed.
const CORPUS_SEED: u64 = 42;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The kept reference digests, read by [`reference`].
const DIGESTS: &str = include_str!("digests.json");

use ModelFamily::{BTM, CN, CNG, LDA, TN, TNG};
use RepresentationSource::{C, R, T};

/// The (family, source) pairs a sweep workload runs.
pub fn pairs(name: &str) -> &'static [(ModelFamily, RepresentationSource)] {
    match name {
        "sweep-gram" => &[
            (TN, R),
            (TN, T),
            (TN, C),
            (CN, R),
            (CN, T),
            (CN, C),
            (TNG, R),
            (TNG, T),
            (TNG, C),
            (CNG, R),
            (CNG, T),
            (CNG, C),
        ],
        "sweep-topic" => &[(LDA, R), (LDA, T), (BTM, T)],
        other => unreachable!("{other} is not a sweep workload"),
    }
}

/// The families a sweep workload runs, in grid order.
fn families(name: &str) -> Vec<ModelFamily> {
    let mut families: Vec<ModelFamily> = pairs(name).iter().map(|&(f, _)| f).collect();
    families.sort_unstable();
    families.dedup();
    families
}

/// The runs of a workload in the order `SweepCache::run` lays them out:
/// source-major in the paper's source order, then grid order.
pub fn tasks<'g>(
    name: &str,
    grid: &'g ConfigGrid,
) -> Vec<(RepresentationSource, &'g ModelConfiguration)> {
    let pairs = pairs(name);
    RepresentationSource::ALL
        .iter()
        .flat_map(|&source| {
            grid.configs()
                .iter()
                .filter(move |c| {
                    pairs.contains(&(c.family(), source)) && c.valid_for_source(source)
                })
                .map(move |c| (source, c))
        })
        .collect()
}

fn runner_options(seed: u64) -> RunnerOptions {
    RunnerOptions {
        scoring: ScoringOptions {
            iteration_scale: ITERATION_SCALE,
            infer_iterations: 8,
            seed,
            retrieval: RetrievalMode::Exhaustive,
        },
        ran_iterations: 1_000,
    }
}

/// FNV-1a over a run's per-user APs (user id and AP bits).
pub fn digest(per_user_ap: &[(pmr_sim::UserId, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (user, ap) in per_user_ap {
        for byte in user.0.to_le_bytes().into_iter().chain(ap.to_bits().to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The expected digest of every run of a workload at a run seed, when one
/// is kept.
pub fn reference(name: &str, seed: u64) -> Option<Vec<u64>> {
    let all = json::parse(DIGESTS).expect("digests.json parses");
    let by_seed = all.get(name)?;
    let list = by_seed.get("any").or_else(|| by_seed.get(&seed.to_string()))?;
    list.as_array()?
        .iter()
        .map(|v| v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()))
        .collect()
}

/// The digests of every run of `name` at `seed`, as `digests.json` keeps
/// them (one hex string per run, in task order).
pub fn digests_json(name: &str, seed: u64) -> Value {
    let grid = ConfigGrid::paper();
    let (prepared, _) = setup(name, &grid, &mut Tracer::new(false), &mut Stages::default());
    let runner = ExperimentRunner::new(&prepared);
    let opts = runner_options(seed);
    let tasks = tasks(name, &grid);
    let _inner = executor::inner_threads_for_jobs(JOBS);
    let digests = executor::run_tasks(tasks, JOBS, |_, (source, config)| {
        digest(&runner.run(config, source, UserGroup::All, &opts).per_user_ap)
    });
    Value::Array(digests.into_iter().map(|d| json::string(&format!("{d:016x}"))).collect())
}

/// Runs that failed: panicked (`None`), or digested differently from
/// `expected` when there is one.
pub fn failed_runs(digests: &[Option<u64>], expected: Option<&[Option<u64>]>) -> usize {
    let differs = |i: usize, d: &Option<u64>| expected.is_some_and(|want| want.get(i) != Some(d));
    digests.iter().enumerate().filter(|&(i, d)| d.is_none() || differs(i, d)).count()
}

/// One set-up: everything until the first run can be submitted.
fn setup(
    name: &str,
    grid: &ConfigGrid,
    tracer: &mut Tracer,
    stages: &mut Stages,
) -> (PreparedCorpus, Duration) {
    let span = tracer.open("setup", None, None);
    let t0 = Instant::now();
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, CORPUS_SEED));
    let t1 = Instant::now();
    let prepared = PreparedCorpus::new(corpus, SplitConfig::default())
        .expect("generated corpora are well-formed");
    let t2 = Instant::now();
    prepared.prewarm_features(tasks(name, grid).iter().map(|&(_, c)| c));
    let t3 = Instant::now();
    std::hint::black_box(ExperimentRunner::new(&prepared));
    let t4 = Instant::now();
    tracer.close(span);
    let phases = ["sim.generate", "core.prepare", "core.features", "core.runner"];
    let took = record_setup(tracer, stages, span, &phases, &[t0, t1, t2, t3, t4]);
    (prepared, took)
}

/// One run's outcome: its result (`None` if it panicked) and its wall time.
type RunOutcome = (Option<ConfigResult>, Instant, Instant);

/// Per-family sums over the measured rounds.
#[derive(Debug, Default)]
struct FamilyTimes {
    run: BTreeMap<&'static str, f64>,
    train: BTreeMap<&'static str, f64>,
    test: BTreeMap<&'static str, f64>,
}

/// Run a sweep workload: set up three times, then measure whole sweeps for
/// about `seconds`.
pub fn run(name: &'static str, seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let traced = tracer.enabled();
    let grid = ConfigGrid::paper();
    let opts = runner_options(seed);
    let mut out = Outcome::new(name, "smoke", seed);
    out.param("corpus_seed", CORPUS_SEED as f64);
    out.param("iteration_scale", ITERATION_SCALE);
    out.param("jobs", JOBS as f64);
    if traced {
        pmr_obs::install(pmr_obs::Recorder::monotonic());
    }

    let mut current: Option<PreparedCorpus> = None;
    let mut setup_s = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        // Each set-up starts from nothing, as a fresh process would.
        drop(current.take());
        let (prepared, took) = setup(name, &grid, tracer, &mut out.stages);
        eprintln!("{name}: set-up {}/{SETUPS}: {:.3} s", i + 1, took.as_secs_f64());
        current = Some(prepared);
        setup_s.push(took.as_secs_f64());
    }
    let prepared = current.expect("at least one set-up ran");
    out.e2e("setup_s", median(&setup_s));
    out.check_setup_spans(tracer);
    if traced {
        let obs = pmr_obs::snapshot().expect("the recorder is installed");
        let build = obs.histogram("features.build").map_or(0.0, |h| h.total().as_secs_f64());
        out.layer("features.build.sum_s", build / SETUPS as f64);
        out.layer("features.bytes", obs.gauge("features.bytes").unwrap_or(0.0));
        // Fresh counters for the measured rounds.
        pmr_obs::install(pmr_obs::Recorder::monotonic());
    }

    let runner = ExperimentRunner::new(&prepared);
    let tasks = tasks(name, &grid);
    out.param("runs_per_sweep", tasks.len() as f64);
    let reference: Option<Vec<Option<u64>>> =
        reference(name, seed).map(|kept| kept.into_iter().map(Some).collect());
    let mut first_round: Option<Vec<Option<u64>>> = None;
    let mut sweep_s = Vec::new();
    let mut run_ns: Vec<u64> = Vec::new();
    let mut times = FamilyTimes::default();
    let mut baselines_s = Vec::new();
    let mut pool_s = 0.0;
    let rounds = measure_rounds(seconds, |r| {
        let round = tracer.open("round", None, Some(r as u64));
        let start = Instant::now();
        let runs: Vec<RunOutcome> = {
            let _inner = executor::inner_threads_for_jobs(JOBS);
            executor::run_tasks(tasks.clone(), JOBS, |_, (source, config)| {
                let began = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    runner.run(config, source, UserGroup::All, &opts)
                }))
                .ok();
                (result, began, Instant::now())
            })
        };
        let pool_end = Instant::now();
        for group in UserGroup::ALL {
            std::hint::black_box(runner.chronological_map(group));
            std::hint::black_box(runner.random_map(group, &opts));
        }
        let end = Instant::now();
        let pool = tracer.record("sweep.pool", start, pool_end, Some(round), None);
        tracer.record("eval.baselines", pool_end, end, Some(round), None);
        tracer.close(round);
        out.stages.add("sweep", end - start);
        out.stages.add("eval.baselines", end - pool_end);
        sweep_s.push((end - start).as_secs_f64());
        eprintln!(
            "{name}: round {r}: {} runs in {:.3} s",
            tasks.len(),
            (end - start).as_secs_f64()
        );
        baselines_s.push((end - pool_end).as_secs_f64());
        pool_s += (pool_end - start).as_secs_f64();

        let digests: Vec<Option<u64>> = runs
            .iter()
            .map(|(result, _, _)| result.as_ref().map(|r| digest(&r.per_user_ap)))
            .collect();
        let expected = reference.as_deref().or(first_round.as_deref());
        out.attempt(tasks.len(), failed_runs(&digests, expected));
        if first_round.is_none() {
            first_round = Some(digests);
        }

        for (i, ((_, config), (result, began, ended))) in tasks.iter().zip(&runs).enumerate() {
            let family = config.family().name();
            let took = *ended - *began;
            tracer.record("run", *began, *ended, Some(pool), Some(i as u64));
            out.stages.add("run", took);
            run_ns.push(took.as_nanos() as u64);
            *times.run.entry(family).or_default() += took.as_secs_f64();
            if let Some(result) = result {
                *times.train.entry(family).or_default() += result.train_time.as_secs_f64();
                *times.test.entry(family).or_default() += result.test_time.as_secs_f64();
            }
        }
    });
    out.param("rounds", rounds as f64);

    if reference.is_none() {
        // No kept digests for this run seed: the first run of each
        // (family, source) pair, re-run on this thread, must match.
        let first = first_round.as_deref().unwrap_or_default();
        let mut checked = 0;
        let mut failed = 0;
        for &(family, source) in pairs(name) {
            let Some(i) = tasks.iter().position(|&(s, c)| s == source && c.family() == family)
            else {
                continue;
            };
            let again = runner.run(tasks[i].1, source, UserGroup::All, &opts);
            checked += 1;
            failed += usize::from(first.get(i) != Some(&Some(digest(&again.per_user_ap))));
        }
        out.attempt(checked, failed);
    }

    let sweep_median = median(&sweep_s);
    out.e2e("throughput_per_s", tasks.len() as f64 / sweep_median);
    out.e2e("latency_p50_us", sweep_median * 1e6);
    out.headline_percentile("run_p50_us", &run_ns, 50.0);
    out.headline_percentile("run_p90_us", &run_ns, 90.0);

    if traced {
        let obs = pmr_obs::snapshot().expect("the recorder is installed");
        pmr_obs::uninstall();
        let per_round = rounds as f64;
        let sum_s = |h: &str| obs.histogram(h).map_or(0.0, |h| h.total().as_secs_f64());
        let count = |h: &str| obs.histogram(h).map_or(0, |h| h.count) as f64;
        for family in families(name) {
            let f = family.name();
            let per = |sums: &BTreeMap<&str, f64>| sums.get(f).copied().unwrap_or(0.0) / per_round;
            out.layer(&format!("sweep.run_s.{f}"), per(&times.run));
            out.layer(&format!("sweep.train_s.{f}"), per(&times.train));
            out.layer(&format!("sweep.test_s.{f}"), per(&times.test));
        }
        let busy = sum_s("executor.worker_busy");
        let pool_wall = sum_s("executor.pool_wall");
        let idle = JOBS as f64 * pool_wall - busy;
        out.layer("sweep.idle_s", idle / per_round);
        out.layer("executor.queue_wait.sum_s", sum_s("executor.queue_wait") / per_round);
        out.layer("executor.worker_busy.sum_s", busy / per_round);
        for histogram in [
            "bag.fit",
            "bag.transform",
            "bag.aggregate",
            "bag.kernel_build",
            "kernel.score",
            "gibbs_iter.lda",
            "gibbs_iter.btm",
        ] {
            out.layer(&format!("{histogram}.sum_s"), sum_s(histogram) / per_round);
            out.layer(&format!("{histogram}.count"), count(histogram) / per_round);
        }
        out.layer("eval.baselines_s", median(&baselines_s));
        out.layer_spans("sim.generate_s", tracer, "sim.generate");
        out.layer_spans("core.prepare_s", tracer, "core.prepare");
        out.layer_spans("core.features_s", tracer, "core.features");

        // Outside and inside timings must agree: the runs' wall plus the
        // pool's idle time fills every job over the pool's duration.
        let runs_s: f64 = times.run.values().sum();
        let filled = runs_s + idle;
        let capacity = JOBS as f64 * pool_s;
        out.check(
            format!("run time + idle time fill {JOBS} jobs over the sweep ({filled:.3} s of {capacity:.3} s)"),
            capacity > 0.0 && (filled / capacity - 1.0).abs() <= 0.05,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The committed smoke sweep, found above this package.
    fn committed_sweep() -> Value {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let path = dir.join("results/sweep_smoke_42.json");
            if path.is_file() {
                let text = std::fs::read_to_string(&path).expect("sweep file is readable");
                return json::parse(&text).expect("sweep file parses");
            }
            assert!(dir.pop(), "results/sweep_smoke_42.json not found");
        }
    }

    #[test]
    fn seed_42_digests_match_the_committed_sweep() {
        let sweep = committed_sweep();
        assert_eq!(sweep.get("iteration_scale").and_then(json::as_f64), Some(ITERATION_SCALE));
        let results = sweep
            .get("sweep")
            .and_then(|s| s.get("results"))
            .and_then(Value::as_array)
            .expect("results array");
        let mut by_key: BTreeMap<(String, String), u64> = BTreeMap::new();
        for r in results {
            let config = r.get("config").expect("config").to_string();
            let source = r.get("source").and_then(Value::as_str).expect("source").to_owned();
            let aps: Vec<(pmr_sim::UserId, f64)> = r
                .get("per_user_ap")
                .and_then(Value::as_array)
                .expect("per_user_ap")
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().expect("a pair");
                    let user = json::as_u64(&pair[0]).expect("user id") as u32;
                    (pmr_sim::UserId(user), json::as_f64(&pair[1]).expect("an AP"))
                })
                .collect();
            by_key.insert((config, source), digest(&aps));
        }
        let grid = ConfigGrid::paper();
        for name in ["sweep-gram", "sweep-topic"] {
            let kept = reference(name, 42).expect("seed 42 digests are kept");
            let tasks = tasks(name, &grid);
            assert_eq!(kept.len(), tasks.len(), "{name}");
            for (i, (source, config)) in tasks.iter().enumerate() {
                let key = (
                    serde_json::to_string(*config).expect("config serializes"),
                    source.name().to_owned(),
                );
                assert_eq!(
                    by_key.get(&key),
                    Some(&kept[i]),
                    "{name} run {i} ({})",
                    config.describe()
                );
            }
        }
    }

    #[test]
    fn holdout_digests_are_kept_for_every_run() {
        let grid = ConfigGrid::paper();
        for name in ["sweep-gram", "sweep-topic"] {
            let kept = reference(name, 7).expect("seed 7 digests are kept");
            assert_eq!(kept.len(), tasks(name, &grid).len(), "{name}");
        }
    }

    #[test]
    fn one_changed_ap_fails_its_run() {
        let aps = vec![(pmr_sim::UserId(0), 0.5), (pmr_sim::UserId(1), 0.25)];
        let mut changed = aps.clone();
        changed[1].1 = 0.25 + f64::EPSILON;
        let expected = vec![Some(digest(&aps)), Some(digest(&aps))];
        assert_eq!(failed_runs(&[Some(digest(&aps)), Some(digest(&aps))], Some(&expected)), 0);
        let failed = failed_runs(&[Some(digest(&aps)), Some(digest(&changed))], Some(&expected));
        assert_eq!(failed, 1);
        assert_eq!(failed_runs(&[None, Some(digest(&aps))], None), 1, "a panicked run fails");
        let mut out = Outcome::new("sweep-gram", "smoke", 42);
        out.attempt(expected.len(), failed);
        let line = out.result_line(false);
        let error_rate = line.get("failed").and_then(json::as_f64).expect("failed")
            / line.get("attempted").and_then(json::as_f64).expect("attempted");
        assert!(error_rate > 0.0);
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn workloads_cover_their_pairs_in_sweep_order() {
        let grid = ConfigGrid::paper();
        let gram = tasks("sweep-gram", &grid);
        let topic = tasks("sweep-topic", &grid);
        assert!(gram.len() >= 100 && topic.len() >= 50, "enough runs for a p90");
        for (name, tasks) in [("sweep-gram", &gram), ("sweep-topic", &topic)] {
            for &(family, source) in pairs(name) {
                assert!(tasks.iter().any(|&(s, c)| s == source && c.family() == family));
            }
        }
        let order =
            |s: RepresentationSource| RepresentationSource::ALL.iter().position(|&x| x == s);
        assert!(gram.windows(2).all(|w| order(w[0].0) <= order(w[1].0)));
    }
}
