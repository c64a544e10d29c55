//! The composite QoS metric family (ReLate2 and friends).
//!
//! A composite metric folds several QoS concerns into one objective number
//! so that transport protocols can be ranked per environment (lower is
//! better). The paper's evaluation uses **ReLate2** (reliability + average
//! latency) and **ReLate2Jit** (+ jitter); the authors' prior work also
//! defines burstiness and network-usage variants, included here for
//! ablation studies.

use std::fmt;

use crate::report::QosReport;

/// A composite QoS metric. Lower scores are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MetricKind {
    /// Average latency × (1 + lost fraction): a mild loss penalty.
    ReLate,
    /// Average latency (µs) × (percent loss + 1): the paper's headline
    /// metric. 9% loss with equal latency scores 10× worse than 0% loss.
    ReLate2,
    /// ReLate2 × jitter (µs): adds latency predictability.
    ReLate2Jit,
    /// ReLate2 × burstiness (stddev of bytes/s): adds bandwidth smoothness.
    ReLate2Burst,
    /// ReLate2 × average network bandwidth usage (KB/s): adds total network
    /// cost.
    ReLate2Net,
}

adamant_json::impl_json_unit_enum!(MetricKind {
    ReLate,
    ReLate2,
    ReLate2Jit,
    ReLate2Burst,
    ReLate2Net,
});

impl MetricKind {
    /// The two metrics the paper trains and evaluates the ANN on.
    pub fn paper_metrics() -> [MetricKind; 2] {
        [MetricKind::ReLate2, MetricKind::ReLate2Jit]
    }

    /// Every metric in the family.
    pub fn all() -> [MetricKind; 5] {
        [
            MetricKind::ReLate,
            MetricKind::ReLate2,
            MetricKind::ReLate2Jit,
            MetricKind::ReLate2Burst,
            MetricKind::ReLate2Net,
        ]
    }

    /// Scores `report` under this metric. Lower is better.
    ///
    /// # Examples
    ///
    /// ```
    /// use adamant_metrics::{MetricKind, QosReport};
    ///
    /// // 1000 µs average latency with 0% loss → ReLate2 = 1000.
    /// let mut b = QosReport::builder(1, 1);
    /// # use adamant_metrics::Delivery;
    /// # use adamant_proto::TimePoint;
    /// b.add_receiver(&[Delivery {
    ///     seq: 0,
    ///     published_at: TimePoint::ZERO,
    ///     delivered_at: TimePoint::from_micros(1000),
    ///     recovered: false,
    /// }], 0);
    /// let report = b.finish();
    /// assert_eq!(MetricKind::ReLate2.score(&report), 1000.0);
    /// ```
    pub fn score(self, report: &QosReport) -> f64 {
        let relate2 = report.avg_latency_us * (report.percent_loss() + 1.0);
        match self {
            MetricKind::ReLate => report.avg_latency_us * (1.0 + (1.0 - report.reliability())),
            MetricKind::ReLate2 => relate2,
            MetricKind::ReLate2Jit => relate2 * report.jitter_us,
            MetricKind::ReLate2Burst => relate2 * report.burstiness,
            MetricKind::ReLate2Net => relate2 * (report.avg_bandwidth_bytes_per_sec / 1024.0),
        }
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f) // the variant's name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Delivery;
    use adamant_proto::TimePoint;

    /// Builds a report with `sent` samples to one receiver, `delivered` of
    /// them arriving with the given per-sample latency.
    fn report(sent: u64, delivered: u64, latency_us: u64) -> QosReport {
        let mut b = QosReport::builder(sent, 1);
        let deliveries: Vec<Delivery> = (0..delivered)
            .map(|seq| Delivery {
                seq,
                published_at: TimePoint::ZERO,
                delivered_at: TimePoint::from_micros(latency_us),
                recovered: false,
            })
            .collect();
        b.add_receiver(&deliveries, 0);
        b.finish()
    }

    #[test]
    fn relate2_matches_paper_example() {
        // Paper §4.1: 1000 µs average latency, 0% loss → 1000; 9% loss →
        // 10_000; 19% loss → 20_000.
        let zero_loss = report(100, 100, 1000);
        assert!((MetricKind::ReLate2.score(&zero_loss) - 1_000.0).abs() < 1e-9);

        let nine_pct = report(100, 91, 1000);
        assert!((MetricKind::ReLate2.score(&nine_pct) - 10_000.0).abs() < 1e-9);

        let nineteen_pct = report(100, 81, 1000);
        assert!((MetricKind::ReLate2.score(&nineteen_pct) - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn relate_penalizes_loss_mildly() {
        let lossy = report(100, 50, 1000);
        assert!((MetricKind::ReLate.score(&lossy) - 1_500.0).abs() < 1e-9);
    }

    #[test]
    fn relate2jit_multiplies_jitter() {
        // Two deliveries, latencies 100 and 300 → mean 200, jitter 100,
        // loss 0 → ReLate2 = 200, ReLate2Jit = 20_000.
        let mut b = QosReport::builder(2, 1);
        b.add_receiver(
            [
                Delivery {
                    seq: 0,
                    published_at: TimePoint::ZERO,
                    delivered_at: TimePoint::from_micros(100),
                    recovered: false,
                },
                Delivery {
                    seq: 1,
                    published_at: TimePoint::ZERO,
                    delivered_at: TimePoint::from_micros(300),
                    recovered: false,
                },
            ],
            0,
        );
        let r = b.finish();
        assert!((MetricKind::ReLate2Jit.score(&r) - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn burst_and_net_variants_use_wire_stats() {
        let mut b = QosReport::builder(1, 1);
        b.add_receiver(
            [Delivery {
                seq: 0,
                published_at: TimePoint::ZERO,
                delivered_at: TimePoint::from_micros(1000),
                recovered: false,
            }],
            0,
        );
        b.wire(&[1024, 3072], 4096);
        let r = b.finish();
        // ReLate2 = 1000; burstiness = 1024; avg bw = 2048 B/s = 2 KB/s.
        assert!((MetricKind::ReLate2Burst.score(&r) - 1_024_000.0).abs() < 1e-6);
        assert!((MetricKind::ReLate2Net.score(&r) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn lower_reliability_never_improves_relate2() {
        for delivered in [100, 95, 90, 50, 10] {
            let better = report(100, delivered, 1000);
            let worse = report(100, delivered - 5, 1000);
            assert!(
                MetricKind::ReLate2.score(&worse) > MetricKind::ReLate2.score(&better),
                "loss should monotonically worsen ReLate2"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(MetricKind::ReLate2.to_string(), "ReLate2");
        assert_eq!(MetricKind::ReLate2Jit.to_string(), "ReLate2Jit");
        assert_eq!(MetricKind::all().len(), 5);
        assert_eq!(MetricKind::paper_metrics().len(), 2);
    }
}
