//! Latency histograms and the estimators built on them.
//!
//! Buckets are log-linear: 64 sub-buckets per power of two, so a bucket is at
//! most 1/64 = 1.6 % wide (the repository's `LatencyHistogram` is 4.7 % wide,
//! which would hide a 3 % regression). Recording is one relaxed atomic add
//! into a histogram shared by every core of the run, so a bench core
//! carries a pointer, not 18 KB of buckets.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^40 ns (18 minutes) land in the last bucket.
const MAX_SHIFT: u64 = 40 - SUB_BITS as u64;
const BUCKETS: usize = ((MAX_SHIFT + 2) * SUB) as usize;

/// A percentile is reported only with at least this many samples beyond it.
pub const MIN_BEYOND: f64 = 10.0;

fn bucket_of(ns: u64) -> usize {
    if ns < 2 * SUB {
        return ns as usize;
    }
    let shift = u64::from(63 - ns.leading_zeros() - SUB_BITS);
    if shift > MAX_SHIFT {
        return BUCKETS - 1;
    }
    (shift * SUB + (ns >> shift)) as usize
}

/// The middle of bucket `index`, in nanoseconds.
fn bucket_mid(index: usize) -> f64 {
    let index = index as u64;
    if index < 2 * SUB {
        return index as f64;
    }
    let shift = index / SUB - 1;
    let low = (index % SUB + SUB) << shift;
    low as f64 + (1u64 << shift) as f64 / 2.0
}

/// A plain (single-owner) histogram of nanosecond values.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Hist {
    #[cfg(test)]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1e3
    }

    pub fn mean_us(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ns as f64 / self.count as f64 / 1e3)
    }

    /// The `q` quantile in microseconds, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it (the median needs that many on
    /// each side).
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        let beyond = self.count as f64 * (1.0 - q).min(q);
        if beyond < MIN_BEYOND {
            return None;
        }
        let rank = (self.count as f64 * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_mid(index) / 1e3);
            }
        }
        None
    }
}

struct AtomicHist {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHist {
    fn new() -> Self {
        AtomicHist {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// One shared histogram per time window. Which window a value belongs to is
/// the caller's choice (delivery time for latency percentiles, publication
/// time for loss accounting), so this type only indexes.
pub struct Windows {
    windows: Vec<AtomicHist>,
}

impl Windows {
    pub fn new(windows: usize) -> Self {
        Windows {
            windows: (0..windows.max(1)).map(|_| AtomicHist::new()).collect(),
        }
    }

    /// Records `ns` into `window`; a window past the end is clamped to the
    /// last one (which the estimators discard as partial).
    pub fn record(&self, window: usize, ns: u64) {
        let w = &self.windows[window.min(self.windows.len() - 1)];
        w.counts[bucket_of(ns)].fetch_add(1, Relaxed);
        w.count.fetch_add(1, Relaxed);
        w.sum_ns.fetch_add(ns, Relaxed);
        w.max_ns.fetch_max(ns, Relaxed);
    }

    /// Records only the count and the sum (all a mean needs).
    pub fn record_sum(&self, window: usize, ns: u64) {
        let w = &self.windows[window.min(self.windows.len() - 1)];
        w.count.fetch_add(1, Relaxed);
        w.sum_ns.fetch_add(ns, Relaxed);
    }

    /// A plain copy of one window; call after the recording threads ended.
    pub fn snapshot(&self, window: usize) -> Hist {
        let w = &self.windows[window];
        Hist {
            counts: w.counts.iter().map(|c| c.load(Relaxed)).collect(),
            count: w.count.load(Relaxed),
            sum_ns: w.sum_ns.load(Relaxed),
            max_ns: w.max_ns.load(Relaxed),
        }
    }
}

/// The `q` quantile of each window, for the estimators to pick from.
///
/// Adjacent windows are first merged into equal groups, as few per group as
/// gives every group [`MIN_BEYOND`] samples beyond `q`; `None` when even all
/// windows together are too few. Returns the per-group quantiles and the
/// smallest sample count behind any of them.
pub fn window_quantiles_us(windows: &[Hist], q: f64) -> Option<(Vec<f64>, u64)> {
    for per_group in 1..=windows.len() {
        let groups: Vec<Hist> = windows
            .chunks_exact(per_group)
            .map(|chunk| {
                let mut merged = Hist::default();
                chunk.iter().for_each(|w| merged.merge(w));
                merged
            })
            .collect();
        let quantiles: Option<Vec<f64>> = groups.iter().map(|g| g.quantile_us(q)).collect();
        if let Some(quantiles) = quantiles {
            let samples = groups.iter().map(Hist::count).min().unwrap_or(0);
            return Some((quantiles, samples));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_metrics::percentile;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut last = 0;
        for ns in (0..100_000u64).chain((0..4000).map(|i| 100_000 + i * 7919)) {
            let b = bucket_of(ns);
            assert!(b >= last, "bucket index is monotone in the value");
            last = b;
            if ns >= 128 {
                let err = (bucket_mid(b) - ns as f64).abs() / ns as f64;
                assert!(err <= 1.0 / 128.0 + 1e-9, "{ns} ns is off by {err}");
            }
        }
        assert_eq!(bucket_of(127), 127);
        assert_eq!(bucket_of(128), 128);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_sample() {
        let mut h = Hist::default();
        for us in 1..=10_000u64 {
            h.record(us * 1_000);
        }
        let p50 = h.quantile_us(0.5).unwrap();
        let p99 = h.quantile_us(0.99).unwrap();
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.02, "p50 {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.02, "p99 {p99}");
        assert!((h.mean_us().unwrap() - 5_000.5).abs() < 1e-6);
        assert_eq!(h.max_us(), 10_000.0);
    }

    #[test]
    fn a_quantile_without_ten_samples_beyond_it_is_omitted() {
        let mut h = Hist::default();
        for ns in 0..999 {
            h.record(ns);
        }
        assert!(h.quantile_us(0.99).is_none(), "9.99 samples beyond p99");
        h.record(999);
        assert!(h.quantile_us(0.99).is_some(), "exactly 10 beyond");
        assert!(h.quantile_us(0.999).is_none());
        assert!(Hist::default().quantile_us(0.5).is_none());
    }

    #[test]
    fn the_lower_quartile_of_windows_shrugs_off_disturbed_windows() {
        let window = |us: u64| {
            let mut h = Hist::default();
            (0..2_000).for_each(|_| h.record(us * 1_000));
            h
        };
        // Half the run disturbed, by different amounts.
        let windows: Vec<Hist> = (0..16)
            .map(|i| window(if i % 2 == 0 { 100 } else { 150 + 40 * i }))
            .collect();
        let (p99s, samples) = window_quantiles_us(&windows, 0.99).unwrap();
        assert_eq!((p99s.len(), samples), (16, 2_000));
        let low = percentile(&p99s, 0.25).unwrap();
        assert!((low - 100.0).abs() < 2.0, "lower quartile {low}");
        assert!(
            percentile(&p99s, 0.5).unwrap() > 140.0,
            "the median is already off"
        );
    }

    #[test]
    fn sparse_windows_are_merged_until_the_quantile_is_supported() {
        let windows: Vec<Hist> = (0..8)
            .map(|_| {
                let mut h = Hist::default();
                (0..300).for_each(|i| h.record(i * 1_000));
                h
            })
            .collect();
        // 300 samples support p50 per window, p99 only in groups of four.
        assert_eq!(window_quantiles_us(&windows, 0.5).unwrap().1, 300);
        let (p99s, samples) = window_quantiles_us(&windows, 0.99).unwrap();
        assert_eq!((p99s.len(), samples), (2, 1_200));
        assert!(window_quantiles_us(&windows[..2], 0.99).is_none());
    }

    #[test]
    fn shared_windows_snapshot_what_was_recorded() {
        let w = Windows::new(3);
        w.record(0, 1_000);
        w.record(7, 2_000); // clamped into the last window
        w.record_sum(1, 500);
        assert_eq!(w.snapshot(0).count(), 1);
        assert_eq!(w.snapshot(1).mean_us(), Some(0.5));
        assert_eq!(w.snapshot(2).max_us(), 2.0);
    }
}
