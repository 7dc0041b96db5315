//! The typed metrics registry: counters, gauges, and duration histograms
//! with fixed log-scale buckets.
//!
//! Everything is keyed by a flat string name and stored in `BTreeMap`s so a
//! serialized [`MetricsSnapshot`] is byte-for-byte deterministic given the
//! same observations: names come out sorted and the histogram bucket bounds
//! are compile-time constants, independent of the data's range.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Upper bounds (inclusive, in µs) of the histogram buckets: powers of four
/// from 1µs to ~4,295s. Observations above the last bound land in a final
/// overflow bucket, so every histogram has `BUCKET_BOUNDS_US.len() + 1`
/// counts.
pub const BUCKET_BOUNDS_US: [u64; 17] = [
    1,
    4,
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
    1_073_741_824,
    4_294_967_296,
];

/// A duration histogram over the fixed log-scale buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, in µs (saturating).
    pub sum_us: u64,
    /// Smallest observation, in µs (0 when empty).
    pub min_us: u64,
    /// Largest observation, in µs (0 when empty).
    pub max_us: u64,
    /// Per-bucket counts aligned with [`BUCKET_BOUNDS_US`]; the final
    /// element counts overflow observations.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The mean observation (zero when empty).
    pub fn mean(&self) -> Duration {
        self.sum_us.checked_div(self.count).map_or(Duration::ZERO, Duration::from_micros)
    }

    /// The total observed time.
    pub fn total(&self) -> Duration {
        Duration::from_micros(self.sum_us)
    }

    /// A quantile estimate in µs (`q` clamped to `[0, 1]`; 0 when empty).
    ///
    /// Walks the cumulative bucket counts to the bucket containing the
    /// `⌈q·count⌉`-th observation, then interpolates linearly within that
    /// bucket's span `(lower bound, upper bound]` as if its observations
    /// were evenly spaced — the `j`-th of a bucket's `c` observations is
    /// estimated at `lower + (upper − lower)·j/c`. The result is clamped
    /// to the observed `[min_us, max_us]` range, so a single observation
    /// reports exactly. Without interpolation the log-4 quantization makes
    /// the estimate an upper bound off by up to 4×; with it the error is
    /// bounded by the distance between the true value and the
    /// evenly-spaced assumption within one bucket. Deterministic: depends
    /// only on the snapshot (integer arithmetic throughout the walk).
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let before = seen;
            seen += c;
            if seen >= rank && c > 0 {
                let lower = if i == 0 { 0 } else { BUCKET_BOUNDS_US[i - 1] };
                // The overflow bucket has no compile-time upper bound; the
                // observed maximum is the tightest one available.
                let upper = BUCKET_BOUNDS_US.get(i).copied().unwrap_or(self.max_us).max(lower);
                let pos = rank - before; // 1..=c within this bucket
                let span = (upper - lower) as u128;
                let est = lower + ((span * pos as u128) / c as u128) as u64;
                return est.clamp(self.min_us, self.max_us);
            }
        }
        self.max_us
    }
}

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
    buckets: [u64; BUCKET_BOUNDS_US.len() + 1],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram { count: 0, sum_us: 0, min_us: 0, max_us: 0, buckets: [0; 18] }
    }

    fn observe(&mut self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[bucket] += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        if self.count == 0 {
            self.min_us = us;
            self.max_us = us;
        } else {
            self.min_us = self.min_us.min(us);
            self.max_us = self.max_us.max(us);
        }
        self.count += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum_us: self.sum_us,
            min_us: self.min_us,
            max_us: self.max_us,
            buckets: self.buckets.to_vec(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe registry of named counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter (created at zero on first touch).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(delta),
            None => {
                inner.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Set a gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.gauges.insert(name.to_owned(), value);
    }

    /// Record one duration observation into a histogram.
    pub fn observe(&self, name: &str, d: Duration) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(d),
            None => {
                let mut h = Histogram::new();
                h.observe(d);
                inner.histograms.insert(name.to_owned(), h);
            }
        }
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

/// A serializable point-in-time view of a [`MetricsRegistry`] — the
/// `--metrics-out metrics.json` payload.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins instantaneous values.
    pub gauges: BTreeMap<String, f64>,
    /// Duration histograms over the fixed log-scale buckets.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// A counter's value (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let m = MetricsRegistry::new();
        m.counter_add("hits", 1);
        m.counter_add("hits", 2);
        m.gauge_set("jobs", 4.0);
        m.gauge_set("jobs", 8.0);
        let s = m.snapshot();
        assert_eq!(s.counter("hits"), 3);
        assert_eq!(s.gauge("jobs"), Some(8.0));
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    fn histogram_buckets_are_log_scale_and_stable() {
        let m = MetricsRegistry::new();
        m.observe("t", Duration::from_micros(1)); // bucket 0 (<= 1µs)
        m.observe("t", Duration::from_micros(3)); // bucket 1 (<= 4µs)
        m.observe("t", Duration::from_micros(5)); // bucket 2 (<= 16µs)
        m.observe("t", Duration::from_secs(10_000)); // overflow
        let s = m.snapshot();
        let h = s.histogram("t").expect("histogram exists");
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets.len(), BUCKET_BOUNDS_US.len() + 1);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[BUCKET_BOUNDS_US.len()], 1, "10,000s overflows the last bound");
        assert_eq!(h.min_us, 1);
        assert_eq!(h.max_us, 10_000_000_000);
    }

    #[test]
    fn histogram_mean_and_total() {
        let m = MetricsRegistry::new();
        m.observe("t", Duration::from_micros(10));
        m.observe("t", Duration::from_micros(30));
        let s = m.snapshot();
        let h = s.histogram("t").expect("histogram exists");
        assert_eq!(h.mean(), Duration::from_micros(20));
        assert_eq!(h.total(), Duration::from_micros(40));
        assert_eq!(
            HistogramSnapshot { count: 0, sum_us: 0, min_us: 0, max_us: 0, buckets: vec![] }.mean(),
            Duration::ZERO
        );
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let m = MetricsRegistry::new();
        // 99 fast observations (≤ 16µs bucket) and one slow outlier.
        for _ in 0..99 {
            m.observe("q", Duration::from_micros(10));
        }
        m.observe("q", Duration::from_micros(5_000_000));
        let s = m.snapshot();
        let h = s.histogram("q").expect("histogram exists");
        // p50 = rank 50 of 99 evenly spaced across (4, 16]: 4 + 12·50/99.
        assert_eq!(h.quantile_us(0.5), 10, "p50 interpolates inside the ≤16µs bucket");
        assert_eq!(h.quantile_us(0.99), 16, "99 of 100 observations are fast");
        assert_eq!(h.quantile_us(1.0), 5_000_000, "p100 clamps to the max");
        assert!(h.quantile_us(0.5) <= h.quantile_us(0.999), "quantiles are monotone");
    }

    #[test]
    fn quantiles_interpolate_within_a_bucket() {
        let m = MetricsRegistry::new();
        // Four observations in the (4, 16] bucket: interpolation spaces
        // them evenly at 7, 10, 13, 16.
        for us in [5u64, 10, 12, 16] {
            m.observe("q", Duration::from_micros(us));
        }
        let s = m.snapshot();
        let h = s.histogram("q").expect("histogram exists");
        assert_eq!(h.quantile_us(0.25), 7);
        assert_eq!(h.quantile_us(0.5), 10);
        assert_eq!(h.quantile_us(0.75), 13);
        assert_eq!(h.quantile_us(1.0), 16);
    }

    #[test]
    fn quantiles_at_bucket_edges_report_the_edge() {
        let m = MetricsRegistry::new();
        // Observations exactly on a bucket's inclusive upper bound: the
        // top quantile is the bound itself, not the next bucket's.
        for _ in 0..3 {
            m.observe("edge", Duration::from_micros(16));
        }
        let s = m.snapshot();
        let h = s.histogram("edge").expect("histogram exists");
        assert_eq!(h.quantile_us(1.0), 16);
        assert_eq!(h.quantile_us(0.01), 16, "clamped up to min_us");
        // A lone overflow observation: the overflow bucket borrows max_us
        // as its upper bound, so the estimate is exact.
        m.observe("over", Duration::from_secs(10_000));
        let s = m.snapshot();
        let over = s.histogram("over").expect("histogram exists");
        assert_eq!(over.quantile_us(0.5), 10_000_000_000);
    }

    #[test]
    fn quantile_of_single_observation_is_exact() {
        let m = MetricsRegistry::new();
        m.observe("one", Duration::from_micros(777));
        let s = m.snapshot();
        let h = s.histogram("one").expect("histogram exists");
        // Bucket bound 1024 clamps to the observed min==max==777.
        assert_eq!(h.quantile_us(0.5), 777);
        assert_eq!(h.quantile_us(0.99), 777);
        let empty =
            HistogramSnapshot { count: 0, sum_us: 0, min_us: 0, max_us: 0, buckets: vec![] };
        assert_eq!(empty.quantile_us(0.5), 0);
    }

    #[test]
    fn snapshot_serialization_is_deterministic() {
        let build = || {
            let m = MetricsRegistry::new();
            // Insert in two different orders; BTreeMap canonicalizes.
            m.counter_add("b", 1);
            m.counter_add("a", 1);
            m.observe("z", Duration::from_micros(7));
            m.snapshot()
        };
        let j1 = serde_json::to_string(&build()).expect("serializes");
        let j2 = serde_json::to_string(&build()).expect("serializes");
        assert_eq!(j1, j2);
        let back: MetricsSnapshot = serde_json::from_str(&j1).expect("parses");
        assert_eq!(back, build());
    }
}
