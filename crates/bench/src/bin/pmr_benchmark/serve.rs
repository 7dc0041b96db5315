//! The serving workloads: an open-loop load generator driving one
//! `pmr_serve::Engine`.
//!
//! The generator keeps its own op list (event → Candidate / Observe /
//! Query, in the order `Replay::run_to` issues them) so that it stays
//! separate from the system under test; the rec-log check against an
//! in-process `Replay::run` ties the two together. Every op gets a seeded
//! arrival offset and is issued at that instant whether or not the engine
//! has caught up, so a query's latency is its sojourn: answer seen minus
//! scheduled arrival. The load thread polls for answers in every wait slice, so
//! on a sparse schedule a sojourn never waits for the next op's arrival.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pmr_core::{PreparedCorpus, SplitConfig};
use pmr_serve::{
    precompute_features, Engine, EngineConfig, Recommendation, Replay, ReplayOptions,
    RuntimeOptions, ServeModel, TweetFeatures,
};
use pmr_sim::{generate_corpus, ScalePreset, SimConfig, Timestamp, TweetId, UserId};

use crate::report::{measure_rounds, record_setup, Outcome, Stages};
use crate::stats::{median, ns_to_us, percentile};
use crate::trace::Tracer;

/// Logical shards.
const SHARDS: usize = 64;
/// Engine worker threads, one per core of a two-core host (the load
/// thread sleeps between arrivals).
const WORKERS: usize = 2;
/// Bounded per-shard ingest queue.
const QUEUE: usize = 256;
/// Recommendations per query.
const K: usize = 10;
/// Candidate window per user.
const WINDOW: usize = 128;
/// Longest the load thread sleeps before polling for answers again.
const WAIT_SLICE: Duration = Duration::from_micros(100);
/// How long a paced pass waits for its last answers after its last op.
const ANSWER_DEADLINE: Duration = Duration::from_secs(30);
/// Unpaced capacity passes per measured round (after one paced pass).
const CAPACITY_PASSES_PER_ROUND: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The corpus both serving workloads replay. It is fixed, not drawn from
/// `--seed`: capacity and peak RSS move with the corpus by several percent
/// between corpus seeds, which would add to the run-to-run spread.
const CORPUS_SEED: u64 = 42;

/// When ops arrive.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Memoryless arrivals at a fixed offered rate.
    Poisson {
        /// Offered ops per second.
        ops_per_s: f64,
    },
    /// Thundering herd: `wave` ops released together every `every`.
    Herd {
        /// Ops per wave.
        wave: usize,
        /// Spacing between waves.
        every: Duration,
    },
}

/// The inputs of one serving workload besides the corpus.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Issue a query after every this many stream events.
    pub query_every: usize,
    /// The arrival schedule.
    pub arrivals: Arrivals,
}

/// The spec of a serving workload by name.
pub fn spec(name: &str) -> ServeSpec {
    match name {
        "serve-read" => {
            ServeSpec { query_every: 1, arrivals: Arrivals::Poisson { ops_per_s: 60_000.0 } }
        }
        "serve-burst" => ServeSpec {
            query_every: 25,
            arrivals: Arrivals::Herd { wave: 50_000, every: Duration::from_secs(1) },
        },
        other => unreachable!("{other} is not a serving workload"),
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        model: ServeModel::Bag {
            weighting: pmr_bag::WeightingScheme::TFIDF,
            similarity: pmr_bag::BagSimilarity::Cosine,
            char_grams: false,
            n: 1,
            decay: 0.99,
        },
        window: WINDOW,
    }
}

fn runtime() -> RuntimeOptions {
    RuntimeOptions {
        shards: SHARDS,
        workers: WORKERS,
        queue_capacity: QUEUE,
        ..RuntimeOptions::default()
    }
}

/// One engine call.
#[derive(Debug)]
pub enum Op {
    /// `post_candidate`.
    Candidate {
        /// Feed owner.
        user: UserId,
        /// The tweet entering the feed.
        tweet: TweetId,
        /// Its timestamp.
        at: Timestamp,
        /// Its features.
        features: Arc<TweetFeatures>,
    },
    /// `observe`.
    Observe {
        /// The retweeting user.
        user: UserId,
        /// The original's features.
        features: Arc<TweetFeatures>,
    },
    /// `query`.
    Query {
        /// The queried user.
        user: UserId,
        /// The query's time horizon.
        at: Timestamp,
    },
}

/// Flatten the corpus's event stream into the op sequence `Replay::run_to`
/// issues: an original fans out to its author's followers; a retweet is
/// observed by its author and the original fans out to the reposter's
/// followers; after every `query_every` events the next evaluated user
/// (round-robin) is queried.
pub fn build_ops(
    prepared: &PreparedCorpus,
    features: &[Option<Arc<TweetFeatures>>],
    query_every: usize,
) -> Vec<Op> {
    let stream = prepared.corpus.event_stream();
    let eval_users: Vec<UserId> = prepared.corpus.evaluated_user_ids().collect();
    let mut ops = Vec::new();
    let mut queries = 0usize;
    let fan_out = |ops: &mut Vec<Op>, author: UserId, tweet: TweetId, at: Timestamp| {
        if let Some(f) = &features[tweet.index()] {
            for &user in prepared.corpus.graph.followers(author) {
                ops.push(Op::Candidate { user, tweet, at, features: Arc::clone(f) });
            }
        }
    };
    for (i, event) in stream.iter().enumerate() {
        match event.retweet_of {
            None => fan_out(&mut ops, event.author, event.tweet, event.at),
            Some(original) => {
                if let Some(f) = &features[original.index()] {
                    ops.push(Op::Observe { user: event.author, features: Arc::clone(f) });
                }
                fan_out(&mut ops, event.author, original, event.at);
            }
        }
        if query_every > 0 && (i + 1) % query_every == 0 && !eval_users.is_empty() {
            ops.push(Op::Query { user: eval_users[queries % eval_users.len()], at: event.at });
            queries += 1;
        }
    }
    ops
}

/// Arrival offsets for `ops` ops, non-decreasing. The same seed gives the
/// same schedule.
pub fn schedule(arrivals: Arrivals, ops: usize, seed: u64) -> Vec<Duration> {
    match arrivals {
        Arrivals::Poisson { ops_per_s } => {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_6365_645f_6f70);
            let mut t = 0.0f64;
            (0..ops)
                .map(|_| {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    t += -u.ln() / ops_per_s;
                    Duration::from_secs_f64(t)
                })
                .collect()
        }
        Arrivals::Herd { wave, every } => {
            (0..ops).map(|i| every * u32::try_from(i / wave.max(1)).unwrap_or(u32::MAX)).collect()
        }
    }
}

/// What one pass over the op list measured.
#[derive(Debug)]
pub struct Pass {
    /// First post until `finish()` returned.
    pub elapsed: Duration,
    /// Every recommendation, in query-id order.
    pub recs: Vec<Recommendation>,
    /// Per query: its scheduled arrival (paced passes).
    pub due: Vec<Instant>,
    /// Per query: answer seen minus scheduled arrival (paced passes; `None`
    /// when unanswered by the deadline).
    pub sojourn_ns: Vec<Option<u64>>,
    /// Per op: how late the load thread issued it (paced passes).
    pub lag_ns: Vec<u64>,
    /// Per candidate/observe op: time inside the engine call (traced).
    pub post_ns: Vec<u64>,
    /// Time inside `poll_answered` (traced).
    pub poll: Duration,
    /// Time inside `finish()`.
    pub finish: Duration,
}

/// Collect answers, stamping each with the instant it was seen. Returns
/// that instant.
fn collect_answers(
    engine: &mut Engine,
    due: &[Instant],
    sojourn: &mut [Option<u64>],
    answered: &mut usize,
    poll: Option<&mut Duration>,
) -> Instant {
    let before = poll.as_ref().map(|_| Instant::now());
    let ids = engine.poll_answered();
    let now = Instant::now();
    for id in ids {
        let id = id as usize;
        sojourn[id] = Some(now.saturating_duration_since(due[id]).as_nanos() as u64);
        *answered += 1;
    }
    if let (Some(poll), Some(before)) = (poll, before) {
        *poll += now - before;
    }
    now
}

/// Drive a fresh engine through `ops`. With a schedule each op is issued at
/// its arrival offset and query sojourns are recorded; without one every
/// op is due at once (a capacity pass) and only the elapsed time counts.
pub fn drive(ops: &[Op], schedule: Option<&[Duration]>, traced: bool) -> Pass {
    let queries = ops.iter().filter(|op| matches!(op, Op::Query { .. })).count();
    let mut engine = Engine::start(engine_config(), runtime());
    let mut due_of_query: Vec<Instant> = Vec::new();
    let mut sojourn: Vec<Option<u64>> = vec![None; if schedule.is_some() { queries } else { 0 }];
    let mut answered = 0usize;
    let mut lag_ns = Vec::with_capacity(if schedule.is_some() { ops.len() } else { 0 });
    let mut post_ns = Vec::with_capacity(if traced { ops.len() } else { 0 });
    let mut poll = Duration::ZERO;
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let due = match schedule {
            Some(offsets) => {
                let due = start + offsets[i];
                loop {
                    let now = collect_answers(
                        &mut engine,
                        &due_of_query,
                        &mut sojourn,
                        &mut answered,
                        traced.then_some(&mut poll),
                    );
                    if now >= due {
                        lag_ns.push((now - due).as_nanos() as u64);
                        break;
                    }
                    std::thread::sleep((due - now).min(WAIT_SLICE));
                }
                due
            }
            None => start,
        };
        let issued = traced.then(Instant::now);
        match op {
            Op::Candidate { user, tweet, at, features } => {
                engine.post_candidate(*user, *tweet, *at, features)
            }
            Op::Observe { user, features } => engine.observe(*user, features),
            Op::Query { user, at } => {
                engine.query(*user, K, *at);
                if schedule.is_some() {
                    due_of_query.push(due);
                }
                continue;
            }
        }
        if let Some(issued) = issued {
            post_ns.push(issued.elapsed().as_nanos() as u64);
        }
    }
    if schedule.is_some() {
        let deadline = Instant::now() + ANSWER_DEADLINE;
        while answered < queries {
            let now = collect_answers(
                &mut engine,
                &due_of_query,
                &mut sojourn,
                &mut answered,
                traced.then_some(&mut poll),
            );
            if now >= deadline {
                break;
            }
            std::thread::sleep(WAIT_SLICE);
        }
    }
    let finishing = Instant::now();
    let recs = engine.finish();
    let end = Instant::now();
    Pass {
        elapsed: end - start,
        recs,
        due: due_of_query,
        sojourn_ns: sojourn,
        lag_ns,
        post_ns,
        poll,
        finish: end - finishing,
    }
}

/// Queries of a pass that failed: not answered the same as `reference`,
/// or (in a paced pass, where `sojourn_ns` is filled) not answered by the
/// deadline.
pub fn failed_queries(
    recs: &[Recommendation],
    sojourn_ns: &[Option<u64>],
    reference: &[Recommendation],
) -> usize {
    let mut got: Vec<Option<&Recommendation>> = vec![None; reference.len()];
    for rec in recs {
        if let Some(slot) = got.get_mut(rec.query as usize) {
            *slot = Some(rec);
        }
    }
    let late = |i: usize| sojourn_ns.get(i).is_some_and(Option::is_none);
    reference.iter().enumerate().filter(|&(i, want)| got[i] != Some(want) || late(i)).count()
}

struct Setup {
    prepared: PreparedCorpus,
    features: Vec<Option<Arc<TweetFeatures>>>,
}

/// One set-up: everything until the first op can be issued.
fn setup(tracer: &mut Tracer, stages: &mut Stages) -> (Setup, Duration) {
    let span = tracer.open("setup", None, None);
    let t0 = Instant::now();
    let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Default, CORPUS_SEED));
    let t1 = Instant::now();
    let prepared = PreparedCorpus::new(corpus, SplitConfig::default())
        .expect("generated corpora are well-formed");
    let t2 = Instant::now();
    let features = precompute_features(&prepared, engine_config().model, WORKERS);
    let t3 = Instant::now();
    let engine = Engine::start(engine_config(), runtime());
    let t4 = Instant::now();
    tracer.close(span);
    drop(engine.finish());
    let phases = ["sim.generate", "core.prepare", "serve.featurize", "serve.start"];
    let took = record_setup(tracer, stages, span, &phases, &[t0, t1, t2, t3, t4]);
    (Setup { prepared, features }, took)
}

/// Run a serving workload: set up three times, then measure rounds of one
/// paced and two unpaced passes for about `seconds`. `seed` seeds the
/// arrival schedule.
pub fn run(name: &'static str, seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let spec = spec(name);
    let traced = tracer.enabled();
    let mut out = Outcome::new(name, "default", seed);
    out.param("corpus_seed", CORPUS_SEED as f64);
    out.param("query_every", spec.query_every as f64);
    out.param("shards", SHARDS as f64);
    out.param("workers", WORKERS as f64);
    out.param("queue", QUEUE as f64);
    match spec.arrivals {
        Arrivals::Poisson { ops_per_s } => out.param("poisson_ops_per_s", ops_per_s),
        Arrivals::Herd { wave, every } => {
            out.param("herd_wave_ops", wave as f64);
            out.param("herd_every_s", every.as_secs_f64());
        }
    }

    let mut current: Option<Setup> = None;
    let mut setup_s = Vec::with_capacity(SETUPS);
    for i in 0..SETUPS {
        // Each set-up starts from nothing, as a fresh process would.
        drop(current.take());
        let (s, took) = setup(tracer, &mut out.stages);
        eprintln!("{name}: set-up {}/{SETUPS}: {:.3} s", i + 1, took.as_secs_f64());
        current = Some(s);
        setup_s.push(took.as_secs_f64());
    }
    let Setup { prepared, features } = current.expect("at least one set-up ran");
    out.e2e("setup_s", median(&setup_s));
    out.check_setup_spans(tracer);

    let built = Instant::now();
    let ops = build_ops(&prepared, &features, spec.query_every);
    let offsets = schedule(spec.arrivals, ops.len(), seed);
    out.stages.add("load.build_ops", built.elapsed());
    let queries = ops.iter().filter(|op| matches!(op, Op::Query { .. })).count();
    out.param("stream_events", prepared.corpus.event_stream().len() as f64);
    out.param("ops_per_pass", ops.len() as f64);
    out.param("queries_per_pass", queries as f64);

    // The reference answers: the library's own replay, under another
    // shard layout.
    let started = Instant::now();
    let options = ReplayOptions {
        config: engine_config(),
        runtime: RuntimeOptions { shards: 8, workers: 1, ..RuntimeOptions::default() },
        k: K,
        query_every: spec.query_every,
        jobs: WORKERS,
    };
    let reference = Replay::run(&prepared, options).recommendations;
    out.stages.add("reference.replay", started.elapsed());

    if traced {
        pmr_obs::install(pmr_obs::Recorder::monotonic());
    }
    let mut sojourns: Vec<u64> = Vec::new();
    let mut lags: Vec<u64> = Vec::new();
    let mut posts: Vec<u64> = Vec::new();
    let mut capacity: Vec<f64> = Vec::new();
    let mut finish_s: Vec<f64> = Vec::new();
    let mut poll_s: Vec<f64> = Vec::new();
    // Only a Poisson schedule can be issued on time; a herd wave is late
    // by design, and that lateness is part of its queries' sojourn.
    let check_lag = matches!(spec.arrivals, Arrivals::Poisson { .. });
    let mut late_passes = 0usize;
    let rounds = measure_rounds(seconds, |r| {
        let round = tracer.open("round", None, Some(r as u64));
        let started = Instant::now();
        let pass = drive(&ops, Some(&offsets), traced);
        let paced = tracer.record("pass.paced", started, Instant::now(), Some(round), None);
        out.stages.add("pass.paced", pass.elapsed);
        out.attempt(queries, failed_queries(&pass.recs, &pass.sojourn_ns, &reference));
        for (id, (&due, sojourn)) in pass.due.iter().zip(&pass.sojourn_ns).enumerate() {
            if let Some(ns) = *sojourn {
                let end = due + Duration::from_nanos(ns);
                tracer.record("query", due, end, Some(paced), Some(id as u64));
            }
        }
        sojourns.extend(pass.sojourn_ns.iter().flatten());
        if check_lag && percentile(&pass.lag_ns, 99.0).is_some_and(|p99| p99 > 1_000_000) {
            late_passes += 1;
            eprintln!("{name}: paced pass in round {r} issued ops late (lag p99 over 1 ms)");
        }
        lags.extend(&pass.lag_ns);
        posts.extend(&pass.post_ns);
        poll_s.push(pass.poll.as_secs_f64());

        for _ in 0..CAPACITY_PASSES_PER_ROUND {
            let started = Instant::now();
            let pass = drive(&ops, None, traced);
            tracer.record("pass.capacity", started, Instant::now(), Some(round), None);
            out.stages.add("pass.capacity", pass.elapsed);
            out.attempt(queries, failed_queries(&pass.recs, &[], &reference));
            capacity.push(ops.len() as f64 / pass.elapsed.as_secs_f64());
            finish_s.push(pass.finish.as_secs_f64());
            posts.extend(&pass.post_ns);
        }
        tracer.close(round);
        let answered: Vec<u64> = pass.sojourn_ns.iter().flatten().copied().collect();
        eprintln!(
            "{name}: round {r}: paced sojourn p50 {:.1} us; unpaced {:.0} ops/s",
            percentile(&answered, 50.0).map_or(f64::NAN, ns_to_us),
            median(&capacity[capacity.len() - CAPACITY_PASSES_PER_ROUND..]),
        );
    });
    out.param("rounds", rounds as f64);
    out.stages.add_samples("query.sojourn", &sojourns);
    out.stages.add_samples("load.lag", &lags);

    out.e2e("throughput_per_s", median(&capacity));
    out.e2e_percentile("latency_p50_us", &sojourns, 50.0);
    out.headline_percentile("latency_p90_us", &sojourns, 90.0);
    out.headline_percentile("latency_p99_us", &sojourns, 99.0);
    out.headline_percentile("lag_p99_us", &lags, 99.0);
    out.headline("late_paced_passes", late_passes as f64);

    if traced {
        let obs = pmr_obs::snapshot().expect("the recorder is installed");
        pmr_obs::uninstall();
        let per_round = rounds as f64;
        out.stages.add_samples("serve.post", &posts);
        out.layer_percentile("serve.post_us.p50", &posts, 50.0);
        out.layer_percentile("serve.post_us.p99", &posts, 99.0);
        out.layer("serve.post.count", posts.len() as f64 / per_round);
        for counter in [
            "serve.backpressure",
            "serve.backpressure.shard_b0",
            "serve.backpressure.shard_b1",
            "serve.backpressure.shard_b2",
            "serve.backpressure.shard_b3",
            "serve.runtime.steals",
            "serve.runtime.parks",
            "serve.runtime.yields",
            "retrieval.candidates",
            "retrieval.pruned",
            "serve.window_evictions",
            "serve.window_duplicates",
        ] {
            out.layer(counter, obs.counter(counter) as f64 / per_round);
        }
        let scored = obs.counter("retrieval.candidates") as f64;
        let gated = scored + obs.counter("retrieval.pruned") as f64;
        out.layer("retrieval.scored_frac", if gated > 0.0 { scored / gated } else { 0.0 });
        let in_shard = obs.histogram("serve.query");
        let in_shard_p50 = in_shard.map_or(0, |h| h.quantile_us(0.5)) as f64;
        out.layer("serve.query.in_shard_us.p50", in_shard_p50);
        out.layer(
            "serve.query.in_shard_us.p99",
            in_shard.map_or(0, |h| h.quantile_us(0.99)) as f64,
        );
        out.layer_percentile("serve.sojourn_us.p90", &sojourns, 90.0);
        out.layer_percentile("serve.sojourn_us.p99", &sojourns, 99.0);
        let sojourn_p50 = percentile(&sojourns, 50.0).map_or(0.0, ns_to_us);
        out.layer("serve.query.outside_us.p50", sojourn_p50 - in_shard_p50);
        out.layer("serve.finish_s", median(&finish_s));
        out.layer("serve.poll_s", median(&poll_s));
        out.layer_percentile("load.lag_us.p50", &lags, 50.0);
        out.layer_percentile("load.lag_us.p99", &lags, 99.0);
        out.layer_spans("sim.generate_s", tracer, "sim.generate");
        out.layer_spans("core.prepare_s", tracer, "core.prepare");
        out.layer_spans("serve.featurize_s", tracer, "serve.featurize");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> PreparedCorpus {
        let corpus = generate_corpus(&SimConfig::preset(ScalePreset::Smoke, 42));
        PreparedCorpus::new(corpus, SplitConfig::default()).expect("smoke corpus is well-formed")
    }

    #[test]
    fn poisson_offers_the_target_rate_and_repeats_per_seed() {
        let rate = 60_000.0;
        let offsets = schedule(Arrivals::Poisson { ops_per_s: rate }, 200_000, 42);
        let offered = offsets.len() as f64 / offsets.last().expect("ops").as_secs_f64();
        assert!((offered / rate - 1.0).abs() < 0.02, "offered {offered:.0} ops/s vs {rate}");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "arrivals never go back in time");
        assert_eq!(offsets, schedule(Arrivals::Poisson { ops_per_s: rate }, 200_000, 42));
        assert_ne!(offsets, schedule(Arrivals::Poisson { ops_per_s: rate }, 200_000, 7));
    }

    #[test]
    fn herd_waves_have_the_stated_size_and_spacing() {
        let every = Duration::from_secs(1);
        let offsets = schedule(Arrivals::Herd { wave: 50_000, every }, 213_950, 42);
        let mut waves: Vec<(Duration, usize)> = Vec::new();
        for &t in &offsets {
            match waves.last_mut() {
                Some((at, n)) if *at == t => *n += 1,
                _ => waves.push((t, 1)),
            }
        }
        assert_eq!(waves.len(), 5);
        for (i, &(at, n)) in waves.iter().enumerate() {
            assert_eq!(at, every * i as u32);
            assert_eq!(n, if i < 4 { 50_000 } else { 13_950 });
        }
    }

    #[test]
    fn a_sparse_query_is_answered_without_waiting_for_the_next_op() {
        let prepared = smoke();
        let features = precompute_features(&prepared, engine_config().model, 1);
        let ops = build_ops(&prepared, &features, 25);
        let first_query =
            ops.iter().position(|op| matches!(op, Op::Query { .. })).expect("a query is issued");
        let ops = &ops[..=first_query + 1];
        // The op after the query arrives a whole second later.
        let mut offsets = vec![Duration::ZERO; ops.len()];
        offsets[ops.len() - 1] = Duration::from_secs(1);
        let pass = drive(ops, Some(&offsets), false);
        let sojourn = pass.sojourn_ns[0].expect("the query is answered");
        assert!(sojourn < 500_000_000, "sojourn {sojourn} ns waited for the next arrival");
    }

    #[test]
    fn an_unpaced_drive_matches_the_replay_at_smoke_scale() {
        let prepared = smoke();
        let features = precompute_features(&prepared, engine_config().model, 1);
        for query_every in [1, 25] {
            let ops = build_ops(&prepared, &features, query_every);
            let pass = drive(&ops, None, false);
            let reference = Replay::run(
                &prepared,
                ReplayOptions {
                    config: engine_config(),
                    runtime: runtime(),
                    k: K,
                    query_every,
                    jobs: 1,
                },
            );
            assert!(!reference.recommendations.is_empty());
            let log = pmr_serve::rec_log(&pass.recs).expect("log serializes");
            let want = pmr_serve::rec_log(&reference.recommendations).expect("log serializes");
            assert!(log == want, "query_every {query_every}: rec log differs from Replay::run");
            assert_eq!(failed_queries(&pass.recs, &[], &reference.recommendations), 0);
        }
    }

    #[test]
    fn a_changed_or_missing_answer_counts_as_failed() {
        let prepared = smoke();
        let features = precompute_features(&prepared, engine_config().model, 1);
        let ops = build_ops(&prepared, &features, 25);
        let reference = drive(&ops, None, false).recs;
        assert_eq!(failed_queries(&reference, &[], &reference), 0);
        let mut changed = reference.clone();
        changed[0].items.push(pmr_serve::RecItem { tweet: u32::MAX, score: 0.5 });
        assert_eq!(failed_queries(&changed, &[], &reference), 1);
        assert_eq!(failed_queries(&reference[1..], &[], &reference), 1);
        let mut late = vec![Some(1u64); reference.len()];
        late[3] = None;
        assert_eq!(failed_queries(&reference, &late, &reference), 1);
    }
}
