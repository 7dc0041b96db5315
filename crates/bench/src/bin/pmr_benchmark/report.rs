//! One workload run's results, and the two lines it prints.
//!
//! Every run prints a record in the shared bench shape
//! (`{bench, git_rev, host, scale, seed, params, stages, headline, …}`)
//! and, as its last line, the result object
//! `{correct, attempted, failed, metrics}`: the end-to-end metrics when
//! untraced, the per-layer metrics when traced.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, ns_to_us, percentile};
use crate::trace::{SpanId, Tracer};

/// Run `round` repeatedly for about `seconds`: another round starts only
/// while it is expected to end within the budget, judged by the longest
/// round so far. At least one round always runs. Returns the round count.
pub fn measure_rounds(seconds: u64, mut round: impl FnMut(usize)) -> usize {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() + longest <= budget {
        let began = Instant::now();
        round(rounds);
        longest = longest.max(began.elapsed());
        rounds += 1;
    }
    rounds
}

/// Raw duration samples per stage, in nanoseconds.
#[derive(Debug, Default)]
pub struct Stages {
    samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Stages {
    /// Add one duration to a stage.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        self.samples.entry(name).or_default().push(d.as_nanos() as u64);
    }

    /// Add many nanosecond samples to a stage.
    pub fn add_samples(&mut self, name: &'static str, ns: &[u64]) {
        self.samples.entry(name).or_default().extend_from_slice(ns);
    }

    fn to_json(&self) -> Value {
        let pct =
            |s: &[u64], p: f64| percentile(s, p).map_or(Value::Null, |v| json::float(ns_to_us(v)));
        Value::Array(
            self.samples
                .iter()
                .map(|(name, s)| {
                    json::object(vec![
                        ("name", json::string(name)),
                        ("count", json::uint(s.len() as u64)),
                        ("p50_us", pct(s, 50.0)),
                        ("p99_us", pct(s, 99.0)),
                        ("total_s", json::float(s.iter().sum::<u64>() as f64 / 1e9)),
                    ])
                })
                .collect(),
        )
    }
}

/// Record a set-up's consecutive phases (phase `i` runs from `at[i]` to
/// `at[i + 1]`) as spans under `parent` and as stages, and the whole set-up
/// as the `setup` stage. Returns the set-up's duration.
pub fn record_setup(
    tracer: &mut Tracer,
    stages: &mut Stages,
    parent: SpanId,
    phases: &[&'static str],
    at: &[Instant],
) -> Duration {
    assert_eq!(at.len(), phases.len() + 1, "one instant more than phases");
    for (&name, w) in phases.iter().zip(at.windows(2)) {
        tracer.record(name, w[0], w[1], Some(parent), None);
        stages.add(name, w[1] - w[0]);
    }
    let took = at[phases.len()] - at[0];
    stages.add("setup", took);
    took
}

/// Everything one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    bench: &'static str,
    scale: &'static str,
    seed: u64,
    params: Vec<(&'static str, f64)>,
    /// Per-stage duration samples.
    pub stages: Stages,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    headline: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
}

impl Outcome {
    /// An empty outcome for workload `bench` at corpus scale `scale`.
    pub fn new(bench: &'static str, scale: &'static str, seed: u64) -> Outcome {
        Outcome {
            bench,
            scale,
            seed,
            params: Vec::new(),
            stages: Stages::default(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            headline: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
        }
    }

    /// Record an input parameter.
    pub fn param(&mut self, name: &'static str, value: f64) {
        self.params.push((name, value));
    }

    /// Record an end-to-end metric; `name` must be one of [`END_TO_END`].
    pub fn e2e(&mut self, name: &str, value: f64) {
        let spec = END_TO_END.iter().find(|m| m.name == name);
        let spec = spec.unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        self.e2e.insert(spec.name, value);
    }

    /// Record an end-to-end percentile, in µs, of nanosecond samples. A
    /// percentile the sample cannot support fails the run's checks.
    pub fn e2e_percentile(&mut self, name: &str, ns: &[u64], p: f64) {
        match percentile(ns, p) {
            Some(v) => self.e2e(name, ns_to_us(v)),
            None => self
                .check(format!("{name}: fewer than 10 of {} samples beyond p{p}", ns.len()), false),
        }
    }

    /// Record a reported-but-ungated figure.
    pub fn headline(&mut self, name: &'static str, value: f64) {
        self.headline.push((name, value));
    }

    /// Record an ungated percentile in µs; omitted when unsupported.
    pub fn headline_percentile(&mut self, name: &'static str, ns: &[u64], p: f64) {
        if let Some(v) = percentile(ns, p) {
            self.headline(name, ns_to_us(v));
        }
    }

    /// Record a per-layer metric; `name` must be one of [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let spec = PER_LAYER.iter().find(|l| l.name == name);
        let spec = spec.unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.layers.insert(spec.name, value);
    }

    /// Record a per-layer percentile in µs; 0 when unsupported.
    pub fn layer_percentile(&mut self, name: &str, ns: &[u64], p: f64) {
        self.layer(name, percentile(ns, p).map_or(0.0, ns_to_us));
    }

    /// Record the median duration in seconds of the spans named `span`.
    pub fn layer_spans(&mut self, name: &str, tracer: &Tracer, span: &str) {
        let durations = tracer.durations_s(span);
        self.layer(name, if durations.is_empty() { 0.0 } else { median(&durations) });
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn attempt(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Record a named check.
    pub fn check(&mut self, name: String, ok: bool) {
        if !ok {
            eprintln!("{}: check failed: {name}", self.bench);
        }
        self.checks.push((name, ok));
    }

    /// Check that each set-up's phase spans sum to its total within 5%.
    pub fn check_setup_spans(&mut self, tracer: &Tracer) {
        for id in tracer.ids("setup") {
            let total = tracer.children_s(id);
            let whole = tracer.span_s(id);
            let ok = whole > 0.0 && (total / whole - 1.0).abs() <= 0.05;
            self.check(format!("setup spans sum to the set-up ({total:.4} s of {whole:.4} s)"), ok);
        }
    }

    /// Something was attempted, nothing failed, and every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    fn metric(value: f64, unit: &str) -> Value {
        json::object(vec![("value", json::float(value)), ("unit", json::string(unit))])
    }

    /// The last line: the end-to-end metrics, or with `traced` the
    /// per-layer metrics (a layer the workload does not exercise reads 0).
    pub fn result_line(&self, traced: bool) -> Value {
        let metrics: Vec<(&str, Value)> = if traced {
            PER_LAYER
                .iter()
                .map(|l| {
                    (l.name, Self::metric(self.layers.get(l.name).copied().unwrap_or(0.0), l.unit))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        Self::metric(self.e2e.get(m.name).copied().unwrap_or(f64::NAN), m.unit),
                    )
                })
                .collect()
        };
        json::object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", json::uint(self.attempted.max(1))),
            ("failed", json::uint(self.failed)),
            ("metrics", json::object(metrics)),
        ])
    }

    /// The run's record in the shared bench shape.
    pub fn record(&self, traced: bool) -> Value {
        let numbers = |pairs: Vec<(&str, f64)>| {
            json::object(pairs.into_iter().map(|(k, v)| (k, json::float(v))).collect())
        };
        let mut headline: Vec<(&str, f64)> =
            END_TO_END.iter().filter_map(|m| self.e2e.get(m.name).map(|&v| (m.name, v))).collect();
        headline.extend(self.headline.iter().copied());
        let mut fields = vec![
            ("bench", json::string(self.bench)),
            ("git_rev", json::string(&git_rev())),
            (
                "host",
                json::object(vec![
                    (
                        "cpus",
                        json::uint(
                            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
                        ),
                    ),
                    ("os", json::string(std::env::consts::OS)),
                ]),
            ),
            ("scale", json::string(self.scale)),
            ("seed", json::uint(self.seed)),
            ("params", numbers(self.params.clone())),
            ("stages", self.stages.to_json()),
            ("headline", numbers(headline)),
            ("traced", Value::Bool(traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", json::uint(self.attempted)),
            ("failed", json::uint(self.failed)),
            (
                "checks",
                Value::Array(
                    self.checks
                        .iter()
                        .map(|(name, ok)| {
                            json::object(vec![
                                ("check", json::string(name)),
                                ("ok", Value::Bool(*ok)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if traced {
            fields.push(("layers", numbers(self.layers.iter().map(|(&k, &v)| (k, v)).collect())));
        }
        json::object(fields)
    }
}

/// The commit being measured, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, r) = line.split_once(' ')?;
                (r == name).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_fit_the_budget_but_at_least_one_runs() {
        let mut ran = 0;
        assert_eq!(measure_rounds(0, |_| ran += 1), 1);
        assert_eq!(ran, 1);
        let rounds = measure_rounds(1, |_| std::thread::sleep(Duration::from_millis(300)));
        assert_eq!(rounds, 3, "three 0.3 s rounds fit one second, a fourth would not");
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut out = Outcome::new("w", "smoke", 1);
        out.attempt(10, 0);
        assert!(out.correct());
        out.attempt(5, 1);
        assert!(!out.correct());
        let line = out.result_line(false);
        assert_eq!(line.get("attempted").and_then(json::as_u64), Some(15));
        assert_eq!(line.get("failed").and_then(json::as_u64), Some(1));
    }

    #[test]
    fn the_result_line_carries_every_metric_of_its_mode() {
        let mut out = Outcome::new("w", "smoke", 1);
        assert!(!out.correct(), "a run that attempted nothing is not correct");
        out.attempt(1, 0);
        for m in &END_TO_END {
            out.e2e(m.name, 1.5);
        }
        let untraced = out.result_line(false);
        let metrics = untraced.get("metrics").and_then(Value::as_object).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let traced = out.result_line(true);
        let metrics = traced.get("metrics").and_then(Value::as_object).expect("metrics");
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(out.correct());
    }
}
