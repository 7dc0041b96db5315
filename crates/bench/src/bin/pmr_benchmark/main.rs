//! `pmr_benchmark`: the repository's end-to-end benchmark of the serving
//! engine and the experiment sweep.
//!
//! ```text
//! # one workload (what BENCHMARK.json's command runs):
//! pmr_benchmark --workload serve-read --seed 42 --seconds 20 --trace 0
//! # the same workload traced, with its spans written as JSONL:
//! pmr_benchmark --workload serve-read --seed 42 --seconds 20 --trace 1 --spans spans.jsonl
//! # every workload, each in a child process, untraced then traced:
//! pmr_benchmark --seed 42 --trace 1 --out records.jsonl
//! # the workloads and metrics:
//! pmr_benchmark --list
//! ```
//!
//! A single-workload run prints its record in the shared bench shape and,
//! as its last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics traced. Without
//! `--workload`, every workload runs in its own child process (so peak RSS
//! is per workload), a table goes to stderr, and with `--trace 1` each
//! workload runs again traced and the tracing overhead of every end-to-end
//! metric is printed.

mod json;
mod report;
mod serve;
mod spec;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use spec::{Kind, END_TO_END, WORKLOADS};
use trace::Tracer;

const USAGE: &str = "usage: pmr_benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--spans PATH] [--out PATH] [--list] [--print-digests]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    list: bool,
    print_digests: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS,
        trace: false,
        spans: None,
        out: None,
        list: false,
        print_digests: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds wants an integer")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--list" => args.list = true,
            "--print-digests" => args.print_digests = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("pmr_benchmark: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", spec::listing());
        return ExitCode::SUCCESS;
    }
    let result = match &args.workload {
        Some(name) if args.print_digests => print_digests(name, args.seed),
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(problem) => {
            eprintln!("pmr_benchmark: {problem}");
            ExitCode::FAILURE
        }
    }
}

/// Print the run digests `sweep.rs` keeps as the reference for a sweep
/// workload at a seed (for regenerating `digests.json` after an intended
/// change of outputs).
fn print_digests(name: &str, seed: u64) -> Result<bool, String> {
    if spec::workload(name).map(|w| w.kind) != Some(Kind::Sweep) {
        return Err(format!("{name} keeps no digests"));
    }
    println!("{}", sweep::digests_json(name, seed));
    Ok(true)
}

/// Write `lines` to `path`, one per line, creating its directory.
fn write_lines(path: &Path, lines: &[String]) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in this process. The result line is printed even when
/// an output check failed (`"correct": false`); the exit status is then
/// still success, since the line itself reports the failure.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let mut tracer = Tracer::new(args.trace);
    let mut out = match workload.kind {
        Kind::Serve => serve::run(workload.name, args.seed, args.seconds, &mut tracer),
        Kind::Sweep => sweep::run(workload.name, args.seed, args.seconds, &mut tracer),
    };
    match pmr_obs::peak_rss_bytes() {
        Some(bytes) => out.e2e("peak_rss_mib", bytes as f64 / (1024.0 * 1024.0)),
        None => out.check("peak RSS is readable on this platform".to_owned(), false),
    }
    if let Some(path) = &args.spans {
        tracer.write_jsonl(path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{name}: wrote {} spans to {}", tracer.len(), path.display());
    }
    let record = out.record(args.trace).to_string();
    if let Some(path) = &args.out {
        write_lines(path, std::slice::from_ref(&record))?;
    }
    println!("{record}");
    println!("{}", out.result_line(args.trace));
    Ok(true)
}

/// The record and result lines a child run printed last.
struct ChildRun {
    record: Value,
    result: Value,
}

fn run_child(name: &str, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", name, "--seed", &args.seed.to_string()]);
    command.args([
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if let (true, Some(dir)) = (traced, &args.spans) {
        command.arg("--spans").arg(dir.join(format!("{name}.jsonl")));
    }
    let output = command
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: cannot start the child run: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name}: child run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().filter(|l| !l.trim().is_empty()).rev();
    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| format!("{name}: child printed no {what}"))
            .and_then(|l| json::parse(l).map_err(|e| format!("{name}: bad {what}: {e}")))
    };
    let result = next("result line")?;
    let record = next("record")?;
    Ok(ChildRun { record, result })
}

fn metric_value(run: &ChildRun, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value").and_then(json::as_f64)
}

/// Run every workload in its own child process and print a table.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut records = Vec::new();
    let mut all_correct = true;
    let mut table = vec![format!(
        "{:<12} {:<18} {:>14} {:<5} {:>10}",
        "workload", "metric", "value", "unit", "overhead"
    )];
    for workload in &WORKLOADS {
        let untraced = run_child(workload.name, args, false)?;
        let traced = if args.trace { Some(run_child(workload.name, args, true)?) } else { None };
        for run in std::iter::once(&untraced).chain(traced.as_ref()) {
            let correct = run.result.get("correct") == Some(&Value::Bool(true));
            all_correct &= correct;
            let line = run.record.to_string();
            println!("{line}");
            records.push(line);
        }
        for m in &END_TO_END {
            let value = metric_value(&untraced, m.name).unwrap_or(f64::NAN);
            let overhead = traced
                .as_ref()
                .and_then(|t| t.record.get("headline")?.get(m.name).and_then(json::as_f64))
                .map_or(String::new(), |t| format!("{:+.1}%", (t / value - 1.0) * 100.0));
            table.push(format!(
                "{:<12} {:<18} {:>14.3} {:<5} {:>10}",
                workload.name, m.name, value, m.unit, overhead
            ));
        }
        let failed = untraced.result.get("failed").and_then(json::as_u64).unwrap_or(0);
        let attempted = untraced.result.get("attempted").and_then(json::as_u64).unwrap_or(1);
        table.push(format!(
            "{:<12} {:<18} {:>14} {:<5}",
            workload.name,
            "failed/attempted",
            format!("{failed}/{attempted}"),
            ""
        ));
    }
    if args.trace {
        table.push("overhead: the traced run's value relative to the untraced run's".to_owned());
    }
    eprintln!("{}", table.join("\n"));
    if let Some(path) = &args.out {
        write_lines(path, &records)?;
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_run_flags_parse() {
        let args =
            parse(&["--workload", "sweep-gram", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .expect("valid flags");
        assert_eq!(args.workload.as_deref(), Some("sweep-gram"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3, true));
        let defaults = parse(&[]).expect("no flags");
        assert_eq!((defaults.seed, defaults.seconds), (spec::DEFAULT_SEED, spec::RUN_SECONDS));
        assert!(!defaults.trace && defaults.workload.is_none());
    }

    #[test]
    fn bad_flags_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
