//! A log-scale latency histogram: constant-memory percentile estimates for
//! long runs.
//!
//! [`QosReport`](crate::QosReport) carries only aggregate moments; when a
//! run needs tail percentiles (e.g. the SAR fusion-window check), exact
//! storage of 20 000 × 15 latencies per configuration adds up. The
//! histogram buckets latencies geometrically (~2.4 % relative resolution)
//! and answers percentile queries with bounded error.

/// Geometric bucket growth factor (each bucket is ~4.7% wider; quantile
/// estimates are accurate to about half that).
const GROWTH: f64 = 1.047;
/// Smallest resolvable latency in microseconds.
const MIN_US: f64 = 0.5;

/// A fixed-size, log-scale histogram of latencies in microseconds.
///
/// # Examples
///
/// ```
/// use adamant_metrics::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for us in [100.0, 200.0, 300.0, 400.0] {
///     h.record_us(us);
/// }
/// let p50 = h.percentile(0.5).unwrap();
/// assert!((190.0..=310.0).contains(&p50), "p50 {p50}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    min_us: f64,
    max_us: f64,
}

impl LatencyHistogram {
    /// Number of buckets: covers `MIN_US × GROWTH^N`, comfortably past an
    /// hour of latency.
    const BUCKETS: usize = 512;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
            min_us: f64::INFINITY,
            max_us: 0.0,
        }
    }

    fn bucket_of(us: f64) -> usize {
        if us <= MIN_US {
            return 0;
        }
        let idx = (us / MIN_US).ln() / GROWTH.ln();
        (idx as usize).min(Self::BUCKETS - 1)
    }

    /// Lower edge of bucket `i` in microseconds.
    fn bucket_floor(i: usize) -> f64 {
        MIN_US * GROWTH.powi(i as i32)
    }

    /// Records one latency observation (clamped to non-negative).
    pub fn record_us(&mut self, us: f64) {
        let us = if us.is_finite() { us.max(0.0) } else { 0.0 };
        self.counts[Self::bucket_of(us)] += 1;
        self.total += 1;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min_us(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min_us)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max_us(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max_us)
    }

    /// Estimates the `q`-quantile (geometric midpoint of the containing
    /// bucket, clamped to the observed min/max). Returns `None` when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = (q * (self.total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                let mid = Self::bucket_floor(i) * GROWTH.sqrt();
                return Some(mid.clamp(self.min_us, self.max_us));
            }
        }
        Some(self.max_us)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.min_us(), None);
        assert_eq!(h.max_us(), None);
    }

    #[test]
    fn single_value_percentiles() {
        let mut h = LatencyHistogram::new();
        h.record_us(250.0);
        for q in [0.0, 0.5, 1.0] {
            let p = h.percentile(q).unwrap();
            assert!((p - 250.0).abs() < 250.0 * 0.05, "q={q}: {p}");
        }
    }

    #[test]
    fn percentiles_track_uniform_data_within_resolution() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000 {
            h.record_us(i as f64);
        }
        for (q, expected) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let p = h.percentile(q).unwrap();
            let err = (p - expected).abs() / expected;
            assert!(err < 0.05, "q={q}: {p} vs {expected} (err {err})");
        }
        assert_eq!(h.min_us(), Some(1.0));
        assert_eq!(h.max_us(), Some(10_000.0));
    }

    #[test]
    fn merge_equals_combined_recording() {
        let (mut a, mut b) = (LatencyHistogram::new(), LatencyHistogram::new());
        for i in 0..500 {
            a.record_us(10.0 + i as f64);
            b.record_us(2_000.0 + i as f64);
        }
        let mut direct = a.clone();
        for i in 0..500 {
            direct.record_us(2_000.0 + i as f64);
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, direct);
        assert_eq!(merged.count(), 1_000);
    }

    #[test]
    fn pathological_inputs_are_absorbed() {
        let mut h = LatencyHistogram::new();
        h.record_us(f64::NAN);
        h.record_us(-12.0);
        h.record_us(f64::INFINITY);
        h.record_us(1e18); // beyond the last bucket: clamped
        assert_eq!(h.count(), 4);
        assert!(h.percentile(0.5).is_some());
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        LatencyHistogram::new().percentile(1.5);
    }
}
