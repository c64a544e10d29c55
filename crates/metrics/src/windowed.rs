//! Time-windowed QoS: the monitoring view the runtime-adaptation loop
//! consumes.
//!
//! Aggregate reports answer "how did the run go?"; a controller watching a
//! *live* system needs "how is it going right now?". A [`WindowQos`]
//! summarises the samples *published* in one window of simulated time — so
//! a degradation shows up in the window where it started, not smeared over
//! the whole run.

use adamant_proto::{Span, TimePoint};

/// QoS of the samples published during one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowQos {
    /// Window start (inclusive).
    pub start: TimePoint,
    /// Window length.
    pub length: Span,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn window(published: u64, delivered: u64, avg_latency_us: f64) -> WindowQos {
        WindowQos {
            start: TimePoint::from_secs(1),
            length: Span::from_secs(1),
            published,
            delivered,
            avg_latency_us,
            jitter_us: 0.0,
        }
    }

    #[test]
    fn half_delivered_at_600_us_scores_51_times_600() {
        let w = window(10, 5, 600.0);
        assert_eq!(w.reliability(), 0.5);
        assert_eq!(w.relate2(), 600.0 * 51.0);
    }

    #[test]
    fn empty_window_reliability_is_zero() {
        let w = window(0, 0, 0.0);
        assert_eq!(w.reliability(), 0.0);
        assert_eq!(w.relate2(), 0.0);
    }
}
