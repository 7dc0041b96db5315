//! The per-run JSONL event journal.
//!
//! One JSON object per line, written in arrival order:
//!
//! ```json
//! {"ts_us":1234,"kind":"span_end","name":"sweep/run","fields":{"duration_us":56}}
//! ```
//!
//! `ts_us` is microseconds since the recorder's clock epoch (recorder
//! installation under the production clock). With `--jobs N > 1` the
//! arrival order of events from different workers is scheduling-dependent,
//! which is why journals are diagnostic artifacts, excluded from the
//! repo's byte-identical determinism guarantees (see EXPERIMENTS.md); the
//! sweep's *result* artifacts never depend on the journal.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// A single typed field value of a journal event.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Field {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Field {
        Field::U64(v as u64)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Field {
        Field::F64(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Field {
        Field::Str(v.to_owned())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Field {
        Field::Str(v)
    }
}

/// An append-only JSONL sink. All writes funnel through one mutex so lines
/// are never interleaved, even under a parallel sweep.
#[derive(Debug)]
pub struct Journal {
    out: Mutex<BufWriter<File>>,
}

impl Journal {
    /// Create (truncate) the journal file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = File::create(path)?;
        Ok(Journal { out: Mutex::new(BufWriter::new(file)) })
    }

    /// Append one event line. I/O errors are swallowed: the journal is a
    /// diagnostic artifact and must never take down a sweep.
    pub fn write_event(&self, ts_us: u64, kind: &str, name: &str, fields: &[(&str, Field)]) {
        let mut line = String::with_capacity(96);
        line.push_str("{\"ts_us\":");
        line.push_str(&ts_us.to_string());
        line.push_str(",\"kind\":\"");
        push_escaped(&mut line, kind);
        line.push_str("\",\"name\":\"");
        push_escaped(&mut line, name);
        line.push('"');
        if !fields.is_empty() {
            line.push_str(",\"fields\":{");
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                push_escaped(&mut line, key);
                line.push_str("\":");
                match value {
                    Field::U64(v) => line.push_str(&v.to_string()),
                    Field::F64(v) if v.is_finite() => line.push_str(&format!("{v}")),
                    Field::F64(_) => line.push_str("null"),
                    Field::Str(s) => {
                        line.push('"');
                        push_escaped(&mut line, s);
                        line.push('"');
                    }
                }
            }
            line.push('}');
        }
        line.push('}');
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(out, "{line}");
    }

    /// Flush buffered lines to disk.
    pub fn flush(&self) {
        let _ = self.out.lock().unwrap_or_else(PoisonError::into_inner).flush();
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pmr_obs_journal_{tag}_{}.jsonl", std::process::id()))
    }

    #[test]
    fn events_round_trip_as_json_lines() {
        let path = temp_path("roundtrip");
        let journal = Journal::create(&path).expect("journal creates");
        journal.write_event(5, "span_start", "sweep", &[]);
        journal.write_event(
            9,
            "task_end",
            "executor",
            &[("task", Field::U64(3)), ("worker", Field::U64(0)), ("source", Field::from("R"))],
        );
        journal.flush();
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("line parses as JSON");
            assert!(v.get("ts_us").is_some());
            assert!(v.get("kind").is_some());
        }
        let second: serde_json::Value = serde_json::from_str(lines[1]).expect("parses");
        assert_eq!(second.get("kind").and_then(|v| v.as_str()), Some("task_end"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strings_are_escaped() {
        let path = temp_path("escape");
        let journal = Journal::create(&path).expect("journal creates");
        journal.write_event(0, "note", "he said \"hi\"\n", &[("why", Field::from("a\\b"))]);
        journal.flush();
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let v: serde_json::Value =
            serde_json::from_str(text.lines().next().expect("one line")).expect("parses");
        assert_eq!(v.get("name").and_then(|n| n.as_str()), Some("he said \"hi\"\n"));
        let _ = std::fs::remove_file(&path);
    }
}
