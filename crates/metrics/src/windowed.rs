//! Time-windowed QoS: the monitoring view the runtime-adaptation loop
//! consumes.
//!
//! Aggregate reports answer "how did the run go?"; a controller watching a
//! *live* system needs "how is it going right now?". This module folds a
//! delivery stream into fixed windows of simulated time, each summarising
//! the samples *published* in that window — so a degradation shows up in
//! the window where it started, not smeared over the whole run.

use std::borrow::Borrow;

use adamant_netsim::{SimDuration, SimTime};

use crate::record::Delivery;
use crate::stats::Welford;

/// QoS of the samples published during one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowQos {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window length.
    pub length: SimDuration,
    /// Samples published in the window.
    pub published: u64,
    /// Of those, samples delivered (eventually).
    pub delivered: u64,
    /// Mean latency of the delivered samples (µs).
    pub avg_latency_us: f64,
    /// Latency stddev of the delivered samples (µs).
    pub jitter_us: f64,
}

impl WindowQos {
    /// Delivered fraction in `[0, 1]` (zero when nothing was published).
    pub fn reliability(&self) -> f64 {
        if self.published == 0 {
            return 0.0;
        }
        self.delivered as f64 / self.published as f64
    }

    /// Windowed ReLate2 — average latency × (percent loss + 1), the
    /// windowed form of the paper's headline composite metric. This is the
    /// score the online feedback path exports per shard: lower is better,
    /// and windows with no publications score zero.
    pub fn relate2(&self) -> f64 {
        self.avg_latency_us * ((1.0 - self.reliability()) * 100.0 + 1.0)
    }
}

/// Splits a delivery stream into windows of `window` simulated time by
/// publication instant.
///
/// `published_per_window` tells the fold how many samples the writer
/// published in each window (for loss accounting); the slice's length
/// determines the number of windows.
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn windowed_qos(
    deliveries: impl IntoIterator<Item = impl Borrow<Delivery>>,
    published_per_window: &[u64],
    window: SimDuration,
) -> Vec<WindowQos> {
    assert!(!window.is_zero(), "window length must be positive");
    let mut latencies: Vec<Welford> = vec![Welford::new(); published_per_window.len()];
    let mut delivered = vec![0u64; published_per_window.len()];
    for d in deliveries {
        let d = d.borrow();
        let idx = (d.published_at.as_nanos() / window.as_nanos()) as usize;
        if let Some(count) = delivered.get_mut(idx) {
            *count += 1;
            latencies[idx].push(d.latency().as_micros_f64());
        }
    }
    published_per_window
        .iter()
        .enumerate()
        .map(|(i, &published)| WindowQos {
            start: SimTime::ZERO + window * i as u64,
            length: window,
            published,
            delivered: delivered[i],
            avg_latency_us: latencies[i].mean(),
            jitter_us: latencies[i].population_stddev(),
        })
        .collect()
}

/// Evenly distributes a constant-rate publication schedule over `windows`
/// windows: `rate_hz × window_secs` samples per window (the common case
/// for the paper's fixed-rate writers).
pub fn constant_rate_schedule(rate_hz: f64, window: SimDuration, windows: usize) -> Vec<u64> {
    let per_window = (rate_hz * window.as_secs_f64()).round() as u64;
    vec![per_window; windows]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(seq: u64, pub_ms: u64, lat_us: u64) -> Delivery {
        Delivery {
            seq,
            published_at: SimTime::from_millis(pub_ms),
            delivered_at: SimTime::from_millis(pub_ms) + SimDuration::from_micros(lat_us),
            recovered: false,
        }
    }

    #[test]
    fn degradation_lands_in_its_window() {
        // Window 1 s; second 1 s of the run loses half its samples and
        // doubles its latency.
        let mut deliveries = Vec::new();
        for i in 0..10u64 {
            deliveries.push(d(i, i * 100, 300));
        }
        for i in 10..15u64 {
            deliveries.push(d(i, 1_000 + (i - 10) * 200, 600));
        }
        let windows = windowed_qos(&deliveries, &[10, 10], SimDuration::from_secs(1));
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].reliability(), 1.0);
        assert_eq!(windows[0].avg_latency_us, 300.0);
        assert_eq!(windows[1].reliability(), 0.5);
        assert_eq!(windows[1].avg_latency_us, 600.0);
        assert_eq!(windows[1].start, SimTime::from_secs(1));
    }

    #[test]
    fn late_recovery_counts_toward_publication_window() {
        // Published at 900 ms, delivered at 1.4 s: belongs to window 0.
        let delivery = Delivery {
            seq: 0,
            published_at: SimTime::from_millis(900),
            delivered_at: SimTime::from_millis(1_400),
            recovered: true,
        };
        let windows = windowed_qos([delivery], &[1, 0], SimDuration::from_secs(1));
        assert_eq!(windows[0].delivered, 1);
        assert_eq!(windows[1].delivered, 0);
        assert_eq!(windows[0].avg_latency_us, 500_000.0);
    }

    #[test]
    fn deliveries_beyond_the_schedule_are_ignored() {
        let windows = windowed_qos([d(0, 5_000, 100)], &[1, 1], SimDuration::from_secs(1));
        assert!(windows.iter().all(|w| w.delivered == 0));
    }

    #[test]
    fn constant_rate_schedule_counts() {
        assert_eq!(
            constant_rate_schedule(25.0, SimDuration::from_secs(2), 3),
            vec![50, 50, 50]
        );
    }

    #[test]
    fn empty_window_reliability_is_zero() {
        let windows = windowed_qos(&[] as &[Delivery], &[0], SimDuration::from_secs(1));
        assert_eq!(windows[0].reliability(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_window_rejected() {
        windowed_qos(&[] as &[Delivery], &[1], SimDuration::ZERO);
    }
}
