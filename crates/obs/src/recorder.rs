//! The recorder: one clock + one metrics registry + one optional journal,
//! installable as the process-global observability sink.
//!
//! Every emission site in the workspace calls the free functions of this
//! module ([`counter_add`], [`observe_duration`], [`span`], [`timer`],
//! [`event`], …). When no recorder is installed they cost a single relaxed
//! atomic load and do nothing — the default sweep path stays byte-identical
//! and effectively unobserved. The bench binaries install a recorder when
//! `--journal` or `--metrics-out` is given.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use crate::clock::{Clock, MonotonicClock};
use crate::journal::{Field, Journal};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// A bound observability sink.
#[derive(Debug)]
pub struct Recorder {
    clock: Box<dyn Clock>,
    metrics: MetricsRegistry,
    journal: Option<Journal>,
}

impl Recorder {
    /// A recorder over `clock` with no journal (metrics only).
    pub fn new(clock: Box<dyn Clock>) -> Recorder {
        Recorder { clock, metrics: MetricsRegistry::new(), journal: None }
    }

    /// A recorder over the production monotonic clock.
    pub fn monotonic() -> Recorder {
        Recorder::new(Box::new(MonotonicClock::new()))
    }

    /// Attach a JSONL journal sink.
    pub fn with_journal(mut self, journal: Journal) -> Recorder {
        self.journal = Some(journal);
        self
    }

    /// Current time on the injected clock.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Emit a journal event stamped "now" (no-op without a journal).
    pub fn event(&self, kind: &str, name: &str, fields: &[(&str, Field)]) {
        if let Some(journal) = &self.journal {
            let ts = self.now();
            journal.write_event(duration_us(ts), kind, name, fields);
        }
    }

    /// Emit a journal event at an explicit clock reading.
    pub fn event_at(&self, ts: Duration, kind: &str, name: &str, fields: &[(&str, Field)]) {
        if let Some(journal) = &self.journal {
            journal.write_event(duration_us(ts), kind, name, fields);
        }
    }

    /// Flush the journal (no-op without one).
    pub fn flush(&self) {
        if let Some(journal) = &self.journal {
            journal.flush();
        }
    }
}

/// Saturating µs conversion used for all journal timestamps.
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Fast path: is a recorder installed at all?
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The installed recorder.
static GLOBAL: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// Install `recorder` as the process-global sink, returning a handle to it.
/// Replaces (and returns through [`uninstall`] semantics drops) any
/// previously installed recorder.
pub fn install(recorder: Recorder) -> Arc<Recorder> {
    let arc = Arc::new(recorder);
    *GLOBAL.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&arc));
    ACTIVE.store(true, Ordering::SeqCst);
    arc
}

/// Remove the global recorder, returning it (flushed) if one was installed.
pub fn uninstall() -> Option<Arc<Recorder>> {
    ACTIVE.store(false, Ordering::SeqCst);
    let prev = GLOBAL.write().unwrap_or_else(PoisonError::into_inner).take();
    if let Some(rec) = &prev {
        rec.flush();
    }
    prev
}

/// The installed recorder, if any. One relaxed load when inactive.
pub fn active() -> Option<Arc<Recorder>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    GLOBAL.read().unwrap_or_else(PoisonError::into_inner).clone()
}

/// The injected clock's current reading, when a recorder is installed.
/// Instrumentation sites use this instead of `Instant::now()` so that the
/// wall-clock lint rule holds and tests can drive time manually.
pub fn now() -> Option<Duration> {
    active().map(|r| r.now())
}

/// Add `delta` to the named counter.
pub fn counter_add(name: &str, delta: u64) {
    if let Some(r) = active() {
        r.metrics().counter_add(name, delta);
    }
}

/// Set the named gauge.
pub fn gauge_set(name: &str, value: f64) {
    if let Some(r) = active() {
        r.metrics().gauge_set(name, value);
    }
}

/// Record a duration observation into the named histogram.
pub fn observe_duration(name: &str, d: Duration) {
    if let Some(r) = active() {
        r.metrics().observe(name, d);
    }
}

/// Emit a journal event (no-op without an installed journal).
pub fn event(kind: &str, name: &str, fields: &[(&str, Field)]) {
    if let Some(r) = active() {
        r.event(kind, name, fields);
    }
}

/// A point-in-time metrics snapshot, when a recorder is installed.
pub fn snapshot() -> Option<MetricsSnapshot> {
    active().map(|r| r.metrics().snapshot())
}

/// Flush the journal of the installed recorder, if any.
pub fn flush() {
    if let Some(r) = active() {
        r.flush();
    }
}

thread_local! {
    /// The per-thread span stack behind hierarchical span paths. Spans
    /// opened on a worker thread root at that thread — hierarchy is
    /// per-thread by design, since a span guard cannot cross threads.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An open hierarchical span. Journals `span_start`/`span_end` events and
/// records the duration into the `span.<path>` histogram on drop, where
/// `<path>` is the `/`-joined stack of enclosing spans on this thread.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    open: Option<(Arc<Recorder>, String, Duration)>,
}

/// Open a span named `name` under the current thread's span path.
pub fn span(name: &str) -> SpanGuard {
    let Some(rec) = active() else {
        return SpanGuard { open: None };
    };
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name.to_owned());
        stack.join("/")
    });
    let start = rec.now();
    rec.event_at(start, "span_start", &path, &[]);
    SpanGuard { open: Some((rec, path, start)) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((rec, path, start)) = self.open.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let end = rec.now();
        let d = end.saturating_sub(start);
        rec.metrics().observe(&format!("span.{path}"), d);
        rec.event_at(end, "span_end", &path, &[("duration_us", Field::U64(duration_us(d)))]);
    }
}

/// A lightweight timer guard: histogram only, no journal events. Meant for
/// hot loops (per-iteration Gibbs timing) where one journal line per tick
/// would swamp the journal.
#[derive(Debug)]
#[must_use = "a timer measures the scope it is alive for"]
pub struct TimerGuard {
    open: Option<(Arc<Recorder>, String, Duration)>,
}

/// Start a timer feeding the named histogram.
pub fn timer(name: &str) -> TimerGuard {
    let Some(rec) = active() else {
        return TimerGuard { open: None };
    };
    let start = rec.now();
    TimerGuard { open: Some((rec, name.to_owned(), start)) }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        let Some((rec, name, start)) = self.open.take() else {
            return;
        };
        let d = rec.now().saturating_sub(start);
        rec.metrics().observe(&name, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::{Mutex, MutexGuard};

    /// Global-recorder tests share process state; serialize them.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn manual_recorder() -> (Arc<ManualClock>, Recorder) {
        let clock = Arc::new(ManualClock::new());
        #[derive(Debug)]
        struct Shared(Arc<ManualClock>);
        impl Clock for Shared {
            fn now(&self) -> Duration {
                self.0.now()
            }
        }
        let rec = Recorder::new(Box::new(Shared(Arc::clone(&clock))));
        (clock, rec)
    }

    #[test]
    fn inactive_calls_are_noops() {
        let _guard = test_lock();
        uninstall();
        assert!(now().is_none());
        assert!(snapshot().is_none());
        counter_add("x", 1);
        observe_duration("y", Duration::from_micros(5));
        let span = span("quiet");
        drop(span);
        assert!(snapshot().is_none(), "still no recorder after no-op calls");
    }

    #[test]
    fn spans_nest_into_hierarchical_paths() {
        let _guard = test_lock();
        let (clock, rec) = manual_recorder();
        install(rec);
        {
            let _outer = span("sweep");
            clock.advance(Duration::from_micros(10));
            {
                let _inner = span("run");
                clock.advance(Duration::from_micros(30));
            }
            clock.advance(Duration::from_micros(2));
        }
        let snap = snapshot().expect("recorder installed");
        let outer = snap.histogram("span.sweep").expect("outer span recorded");
        let inner = snap.histogram("span.sweep/run").expect("inner path nests");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.sum_us, 42);
        assert_eq!(inner.sum_us, 30);
        uninstall();
    }

    #[test]
    fn timer_feeds_histogram_deterministically() {
        let _guard = test_lock();
        let (clock, rec) = manual_recorder();
        install(rec);
        for _ in 0..3 {
            let _t = timer("gibbs_iter.lda");
            clock.advance(Duration::from_micros(100));
        }
        let snap = snapshot().expect("recorder installed");
        let h = snap.histogram("gibbs_iter.lda").expect("timer recorded");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_us, 300);
        assert_eq!(h.min_us, 100);
        assert_eq!(h.max_us, 100);
        uninstall();
    }

    #[test]
    fn journal_records_span_events_with_manual_timestamps() {
        let _guard = test_lock();
        let path =
            std::env::temp_dir().join(format!("pmr_obs_recorder_{}.jsonl", std::process::id()));
        let (clock, rec) = manual_recorder();
        let rec = rec.with_journal(Journal::create(&path).expect("journal creates"));
        install(rec);
        clock.advance(Duration::from_micros(7));
        {
            let _s = span("prep");
            clock.advance(Duration::from_micros(11));
        }
        event("cache", "hit", &[("path", Field::from("x.json"))]);
        uninstall();
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let lines: Vec<serde_json::Value> =
            text.lines().map(|l| serde_json::from_str(l).expect("line parses")).collect();
        assert_eq!(lines.len(), 3, "span_start, span_end, cache event");
        assert_eq!(lines[0].get("kind").and_then(|v| v.as_str()), Some("span_start"));
        assert_eq!(lines[1].get("kind").and_then(|v| v.as_str()), Some("span_end"));
        assert_eq!(lines[2].get("kind").and_then(|v| v.as_str()), Some("cache"));
        let _ = std::fs::remove_file(&path);
    }
}
