//! Exact order statistics over raw samples.
//!
//! Latency percentiles are nearest-rank order statistics of the recorded
//! samples, not estimates from pmr-obs's log-4 histograms: a histogram
//! bucket spans a factor of four, which pins a tail estimate to the bucket
//! edge and hides run-to-run movement inside it.

/// The fewest samples that must lie beyond a percentile for it to be
/// reported. Below that the percentile rests on a handful of outliers.
const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 100`) of `samples`: the
/// smallest sample such that at least `p`% of all samples are at or below
/// it. `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile<T: Copy + Ord>(samples: &[T], p: f64) -> Option<T> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} outside (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(sorted[rank - 1])
}

/// The median of repeated measurements (mean of the middle two for an
/// even count). Unlike [`percentile`] this has no sample-count floor: it
/// summarizes a few repetitions of one measurement, not a distribution.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nanoseconds to microseconds, keeping the fraction.
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50));
        assert_eq!(percentile(&samples, 90.0), Some(90));
        // Unsorted input gives the same answer.
        let mut shuffled = samples.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 90.0), Some(90));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<u64> = (1..=100).collect();
        // p90 of 100 has exactly 10 beyond it; p91 has 9.
        assert_eq!(percentile(&samples, 90.0), Some(90));
        assert_eq!(percentile(&samples, 91.0), None);
        assert_eq!(percentile(&samples, 99.0), None);
        let many: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&many, 99.0), Some(990));
        assert_eq!(percentile::<u64>(&[], 50.0), None);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }
}
