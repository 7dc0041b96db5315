//! The one record shape behind every serving and scale `BENCH_*.json`:
//! what was measured, on which commit and host, under which parameters,
//! the wall-clock stages, the headline numbers, named tables of rows
//! (per family, scenario, tier or layout) and the checks that must hold.
//!
//! The field names are `pmr_benchmark`'s (`bench`, `git_rev`, `host`,
//! `scale`, `seed`, `params`, `stages`, `headline`, `checks`), plus
//! `what` and `tables`; that harness keeps its own copy because it is kept
//! apart from the code it measures. [`crate::report`] renders any record
//! with one function.

use std::path::Path;
use std::process::{exit, Command};
use std::time::Duration;

use pmr_obs::HistogramSnapshot;
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::cli::write_json;

/// Entries in the order they were added, written as one JSON object.
#[derive(Debug, Clone, PartialEq)]
pub struct Named<T>(pub Vec<(String, T)>);

/// A JSON object of named values: a record's params or headline, or one
/// table row.
pub type Fields = Named<Value>;

/// [`Fields`] from `"name": value` pairs, kept in the order written.
#[macro_export]
macro_rules! fields {
    ($($name:literal : $value:expr),* $(,)?) => {
        $crate::record::Named(::std::vec![
            $(($name.to_owned(), ::serde_json::to_value(&$value))),*
        ])
    };
}

impl<T> Default for Named<T> {
    fn default() -> Self {
        Named(Vec::new())
    }
}

impl<T> Named<T> {
    /// The entry `name`, if present.
    pub fn get(&self, name: &str) -> Option<&T> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

impl Fields {
    /// The entry `name` as a number, if it is one.
    pub fn number(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(|v| f64::deserialize(v).ok()).filter(|x| !x.is_nan())
    }

    /// Append the latency histogram `h` as `{prefix}_count` plus its mean,
    /// p50, p90, p99, p99.9 and max in µs (all 0 when `h` is absent).
    pub fn push_latency(&mut self, prefix: &str, h: Option<&HistogramSnapshot>) {
        let q = |q: f64| h.map_or(0, |h| h.quantile_us(q));
        let entries = [
            ("count", h.map_or(0, |h| h.count)),
            ("mean_us", h.map_or(0, |h| h.mean().as_micros() as u64)),
            ("p50_us", q(0.5)),
            ("p90_us", q(0.9)),
            ("p99_us", q(0.99)),
            ("p999_us", q(0.999)),
            ("max_us", h.map_or(0, |h| h.max_us)),
        ];
        for (name, value) in entries {
            self.0.push((format!("{prefix}_{name}"), value.serialize()));
        }
    }
}

impl<T: Serialize> Serialize for Named<T> {
    fn serialize(&self) -> Value {
        Value::Object(self.0.iter().map(|(n, v)| (n.clone(), v.serialize())).collect())
    }
}

impl<T: Deserialize> Deserialize for Named<T> {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let entries = serde::value::expect_object(v, "named entries")?;
        let entries = entries.iter().map(|(n, v)| Ok((n.clone(), T::deserialize(v)?)));
        entries.collect::<Result<_, _>>().map(Named)
    }
}

/// The machine a record was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Available parallelism.
    pub cpus: u64,
    /// `std::env::consts::OS`.
    pub os: String,
}

/// One wall-clock stage: `count` timed runs of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// What ran.
    pub name: String,
    /// How many times it ran.
    pub count: u64,
    /// Median run, nearest rank.
    pub p50_us: f64,
    /// 99th-percentile run, nearest rank.
    pub p99_us: f64,
    /// All runs together.
    pub total_s: f64,
}

impl Stage {
    /// The stage `name` from the wall times of its runs.
    pub fn timed(name: &str, runs: &[Duration]) -> Stage {
        let mut us: Vec<f64> = runs.iter().map(|d| d.as_nanos() as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        let rank = |p: f64| {
            let i = ((p * us.len() as f64).ceil() as usize).saturating_sub(1);
            us.get(i).copied().unwrap_or(0.0)
        };
        Stage {
            name: name.to_owned(),
            count: us.len() as u64,
            p50_us: rank(0.5),
            p99_us: rank(0.99),
            total_s: runs.iter().map(Duration::as_secs_f64).sum(),
        }
    }
}

/// A property the run must have; a failed one fails the benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// What must hold.
    pub check: String,
    /// Whether it held.
    pub ok: bool,
}

/// One benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// The binary that measured it.
    pub bench: String,
    /// One line saying what was measured.
    pub what: String,
    /// `git describe --always --dirty` of the working tree, or `unknown`.
    pub git_rev: String,
    /// Where it ran.
    pub host: Host,
    /// The corpus scale.
    pub scale: String,
    /// The corpus seed.
    pub seed: u64,
    /// The run's inputs.
    pub params: Fields,
    /// Wall-clock stages.
    pub stages: Vec<Stage>,
    /// The run's summary numbers.
    pub headline: Fields,
    /// Named lists of rows.
    pub tables: Named<Vec<Fields>>,
    /// What must hold.
    pub checks: Vec<Check>,
}

impl BenchRecord {
    /// An empty record of `bench` on this commit and host.
    pub fn new(bench: &str, what: &str, scale: &str, seed: u64, params: Fields) -> BenchRecord {
        BenchRecord {
            bench: bench.to_owned(),
            what: what.to_owned(),
            git_rev: git_rev(),
            host: Host {
                cpus: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
                os: std::env::consts::OS.to_owned(),
            },
            scale: scale.to_owned(),
            seed,
            params,
            stages: Vec::new(),
            headline: Fields::default(),
            tables: Named::default(),
            checks: Vec::new(),
        }
    }

    /// Add the table `name`.
    pub fn table(&mut self, name: &str, rows: Vec<Fields>) {
        self.tables.0.push((name.to_owned(), rows));
    }

    /// Record whether `check` held.
    pub fn check(&mut self, check: impl Into<String>, ok: bool) {
        self.checks.push(Check { check: check.into(), ok });
    }

    /// Write the record to `out`, then exit: 1 if it cannot be written or
    /// any check failed, 0 otherwise.
    pub fn finish(&self, out: impl AsRef<Path>) -> ! {
        if let Err(e) = write_json(&out, self) {
            eprintln!("error: cannot write {}: {e}", out.as_ref().display());
            exit(1);
        }
        let failed: Vec<&Check> = self.checks.iter().filter(|c| !c.ok).collect();
        for c in &failed {
            eprintln!("FAILED: {}", c.check);
        }
        exit(i32::from(!failed.is_empty()))
    }
}

/// `git describe --always --dirty --abbrev=40` in the working directory,
/// or `unknown` without git or outside a checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |rev| rev.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_serving_and_scale_record_parses_and_round_trips() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for name in ["serve", "load", "drift", "scale"] {
            let path = results.join(format!("BENCH_{name}.json"));
            let text = std::fs::read_to_string(&path).expect("the record is committed");
            let record: BenchRecord = serde_json::from_str(&text)
                .unwrap_or_else(|e| panic!("{} is not a record: {e}", path.display()));
            let written = serde_json::to_string_pretty(&record).expect("the record serializes");
            assert_eq!(written + "\n", text, "{} has fields the record lacks", path.display());
            assert_eq!(record.bench, format!("bench_{name}"));
            assert!(record.host.cpus > 0 && record.git_rev != "unknown", "{}", path.display());
            assert!(
                record.checks.iter().all(|c| c.ok),
                "{} records a failed check",
                path.display()
            );
        }
    }

    #[test]
    fn a_stage_takes_nearest_rank_percentiles_of_its_runs() {
        let stage = Stage::timed("leg", &[3, 1, 2].map(Duration::from_millis));
        assert_eq!((stage.count, stage.p50_us, stage.p99_us), (3, 2000.0, 3000.0));
        assert!((stage.total_s - 0.006).abs() < 1e-12);
        let empty = Stage::timed("none", &[]);
        assert_eq!((empty.count, empty.p50_us, empty.total_s), (0, 0.0, 0.0));
    }
}
