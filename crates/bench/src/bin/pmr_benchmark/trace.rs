//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on the run's monotonic origin, the
//! span that caused it, and a request id (the query id for serving, the
//! (config, source) task index for sweeps). Spans stay in memory while the
//! run measures and are written as JSONL only after it ends, so writing
//! never lands inside a measured interval. With tracing off every call is a
//! no-op and nothing is kept.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde_json::Value;

use crate::json;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<SpanId>,
    request: Option<u64>,
}

/// The span store of one workload run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span starting now; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        self.push(name, Instant::now(), None, parent, request)
    }

    /// End an open span now.
    pub fn close(&mut self, id: SpanId) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end = Some(Instant::now());
        }
    }

    /// Record a finished span with explicit instants.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        self.push(name, start, Some(end), parent, request)
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Option<Instant>,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span { name, start, end, parent, request });
        self.spans.len() - 1
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in seconds of every closed span named `name`, in order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end.map(|e| e.saturating_duration_since(s.start).as_secs_f64()))
            .collect()
    }

    /// Duration in seconds of span `id` (0 while open).
    pub fn span_s(&self, id: SpanId) -> f64 {
        self.spans
            .get(id)
            .and_then(|s| s.end.map(|e| e.saturating_duration_since(s.start).as_secs_f64()))
            .unwrap_or(0.0)
    }

    /// Summed duration in seconds of the closed children of `parent`.
    pub fn children_s(&self, parent: SpanId) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .filter_map(|s| s.end.map(|e| e.saturating_duration_since(s.start).as_secs_f64()))
            .sum()
    }

    /// Ids of every span named `name`.
    pub fn ids(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len()).filter(|&i| self.spans[i].name == name).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let at = |i: Instant| i.saturating_duration_since(self.origin).as_nanos() as u64;
            let line = json::object(vec![
                ("id", json::uint(id as u64)),
                ("name", json::string(span.name)),
                ("start_ns", json::uint(at(span.start))),
                ("end_ns", span.end.map_or(Value::Null, |e| json::uint(at(e)))),
                ("parent", span.parent.map_or(Value::Null, |p| json::uint(p as u64))),
                ("request", span.request.map_or(Value::Null, json::uint)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, None);
        t.close(id);
        t.record("y", Instant::now(), Instant::now(), Some(id), Some(3));
        assert_eq!(t.len(), 0);
        assert!(t.durations_s("x").is_empty());
    }

    #[test]
    fn children_sum_under_their_parent() {
        let mut t = Tracer::new(true);
        let parent = t.open("setup", None, None);
        let s = Instant::now();
        t.record("a", s, s + Duration::from_millis(2), Some(parent), None);
        t.record("b", s, s + Duration::from_millis(3), Some(parent), None);
        t.record("c", s, s + Duration::from_millis(7), None, None);
        t.close(parent);
        assert!((t.children_s(parent) - 0.005).abs() < 1e-9);
        assert_eq!(t.ids("a"), vec![1]);
        assert_eq!(t.durations_s("c").len(), 1);
    }
}
