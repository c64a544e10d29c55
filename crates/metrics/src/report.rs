//! Aggregated QoS for a complete experiment run: the [`QosAccumulator`]
//! each reader folds its deliveries into (counts and exact latency sums,
//! which merge in any grouping and order), and the [`QosReport`] merged
//! from them.

use std::borrow::Borrow;

use adamant_proto::Span;

use crate::histogram::LatencyHistogram;
use crate::record::Delivery;
use crate::stats::Welford;

/// Exact, mergeable QoS statistics of a set of deliveries: delivered and
/// recovered counts, Σ latency and Σ latency² in integer nanoseconds, and a
/// [`LatencyHistogram`] allocated at the first delivery. `merge` is
/// associative and commutative, so no result depends on the order of
/// deliveries or merges. The sums **saturate** at `u128::MAX` rather than
/// wrap (Σ latency² after ≈ 10¹⁷ one-minute latencies), which keeps that.
#[derive(Clone, Default, PartialEq)]
pub struct QosAccumulator {
    delivered: u64,
    recovered: u64,
    latency_ns: u128,
    latency_ns_sq: u128,
    histogram: Option<LatencyHistogram>,
}

impl std::fmt::Debug for QosAccumulator {
    /// Leaves out the 512-bucket histogram, which state fingerprints hash.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counts = (self.delivered, self.recovered);
        let sums = (self.latency_ns, self.latency_ns_sq);
        write!(f, "QosAccumulator({counts:?}, {sums:?}, ..)")
    }
}

impl QosAccumulator {
    /// Folds in one delivery that took `latency`.
    #[inline]
    pub fn record(&mut self, latency: Span, recovered: bool) {
        let ns = u128::from(latency.as_nanos());
        self.delivered += 1;
        self.recovered += u64::from(recovered);
        self.latency_ns = self.latency_ns.saturating_add(ns);
        self.latency_ns_sq = self.latency_ns_sq.saturating_add(ns * ns);
        let histogram = self.histogram.get_or_insert_with(LatencyHistogram::new);
        histogram.record_us(latency.as_micros_f64());
    }

    /// Folds in everything `other` recorded.
    pub fn merge(&mut self, other: &QosAccumulator) {
        self.delivered += other.delivered;
        self.recovered += other.recovered;
        self.latency_ns = self.latency_ns.saturating_add(other.latency_ns);
        self.latency_ns_sq = self.latency_ns_sq.saturating_add(other.latency_ns_sq);
        if let Some(theirs) = &other.histogram {
            let mine = self.histogram.get_or_insert_with(LatencyHistogram::new);
            mine.merge(theirs);
        }
    }

    /// Deliveries recorded.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Deliveries that came through a recovery path.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Mean latency in microseconds (zero when nothing was recorded).
    pub fn mean_us(&self) -> f64 {
        self.latency_ns as f64 / self.delivered.max(1) as f64 / 1_000.0
    }

    /// Population standard deviation of latency in microseconds (zero when
    /// nothing was recorded). With Σx = q·n + r, n·variance = Σx² −
    /// q·(Σx + r) − r²/n: the first two terms are exact integers.
    pub fn stddev_us(&self) -> f64 {
        let n = u128::from(self.delivered.max(1));
        let (q, r) = (self.latency_ns / n, self.latency_ns % n);
        // Never negative unless a sum saturated; then 0.
        let whole = (self.latency_ns.checked_add(r))
            .and_then(|sum| q.checked_mul(sum))
            .and_then(|qs| self.latency_ns_sq.checked_sub(qs));
        let n_variance = whole.map_or(0.0, |w| w as f64 - (r as f64).powi(2) / n as f64);
        (n_variance.max(0.0) / n as f64).sqrt() / 1_000.0
    }
}

/// Aggregate QoS measurements for one experiment run (one data writer,
/// `receivers` data readers, `samples_sent` samples).
///
/// Reliability follows the paper: *packets received divided by packets
/// sent*, pooled across all receivers. Latency and jitter pool every unique
/// delivery from every receiver; jitter is the standard deviation of packet
/// latency, and burstiness is the standard deviation of per-second delivered
/// bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Samples the writer published.
    pub samples_sent: u64,
    /// Number of data readers in the run.
    pub receivers: u32,
    /// Unique samples delivered, summed over receivers.
    pub delivered: u64,
    /// Deliveries that came through transport error recovery.
    pub recovered: u64,
    /// Duplicate deliveries suppressed by readers.
    pub duplicates: u64,
    /// Mean end-to-end latency over all unique deliveries, microseconds.
    pub avg_latency_us: f64,
    /// Standard deviation of end-to-end latency, microseconds.
    pub jitter_us: f64,
    /// Standard deviation of delivered bytes per simulated second.
    pub burstiness: f64,
    /// Mean delivered bytes per simulated second.
    pub avg_bandwidth_bytes_per_sec: f64,
    /// Total bytes clocked onto receiver links (all traffic classes).
    pub wire_bytes: u64,
    /// Wall-clock span of the run in simulated seconds.
    pub duration_secs: f64,
    /// Log-scale histogram of every delivery latency (for tail
    /// percentiles).
    pub latency_histogram: LatencyHistogram,
}

impl QosReport {
    /// Starts building a report for a run that published `samples_sent`
    /// samples to `receivers` readers.
    pub fn builder(samples_sent: u64, receivers: u32) -> QosReportBuilder {
        QosReportBuilder {
            samples_sent,
            receivers,
            qos: QosAccumulator::default(),
            duplicates: 0,
            bytes_per_second: Vec::new(),
            wire_bytes: 0,
            duration_secs: 0.0,
        }
    }

    /// Delivered fraction in `[0, 1]`: unique deliveries over expected
    /// deliveries (`samples_sent × receivers`).
    pub fn reliability(&self) -> f64 {
        let expected = self.samples_sent.saturating_mul(self.receivers as u64);
        if expected == 0 {
            return 0.0;
        }
        self.delivered as f64 / expected as f64
    }

    /// Loss as a percentage in `[0, 100]` — the `percent loss` term of the
    /// ReLate2 family.
    pub fn percent_loss(&self) -> f64 {
        (1.0 - self.reliability()) * 100.0
    }

    /// Mean latency as a [`Span`].
    pub fn avg_latency(&self) -> Span {
        Span::from_micros_f64(self.avg_latency_us)
    }

    /// Estimated latency percentile in microseconds (`None` when nothing
    /// was delivered).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn latency_percentile_us(&self, q: f64) -> Option<f64> {
        self.latency_histogram.percentile(q)
    }
}

/// Incremental builder for [`QosReport`]: one [`QosAccumulator`] that each
/// receiver's deliveries fold into, plus the run's wire statistics.
#[derive(Debug, Clone)]
pub struct QosReportBuilder {
    samples_sent: u64,
    receivers: u32,
    qos: QosAccumulator,
    duplicates: u64,
    bytes_per_second: Vec<u64>,
    wire_bytes: u64,
    duration_secs: f64,
}

impl QosReportBuilder {
    /// Adds one receiver's unique deliveries and its duplicate count.
    pub fn add_receiver(
        &mut self,
        deliveries: impl IntoIterator<Item = impl Borrow<Delivery>>,
        duplicates: u64,
    ) -> &mut Self {
        self.duplicates += duplicates;
        for d in deliveries {
            self.qos.record(d.borrow().latency(), d.borrow().recovered);
        }
        self
    }

    /// Adds one receiver's accumulated deliveries and its duplicate count.
    pub fn merge_receiver(&mut self, qos: &QosAccumulator, duplicates: u64) -> &mut Self {
        self.duplicates += duplicates;
        self.qos.merge(qos);
        self
    }

    /// Sets wire-level totals (from the simulator's `WireStats`).
    pub fn wire(&mut self, bytes_per_second: &[u64], wire_bytes: u64) -> &mut Self {
        self.bytes_per_second = bytes_per_second.to_vec();
        self.wire_bytes = wire_bytes;
        self
    }

    /// Sets the simulated duration of the run.
    pub fn duration_secs(&mut self, secs: f64) -> &mut Self {
        self.duration_secs = secs;
        self
    }

    /// Finalizes the report.
    pub fn finish(&self) -> QosReport {
        let bw: Welford = self.bytes_per_second.iter().map(|&b| b as f64).collect();
        QosReport {
            samples_sent: self.samples_sent,
            receivers: self.receivers,
            delivered: self.qos.delivered(),
            recovered: self.qos.recovered(),
            duplicates: self.duplicates,
            avg_latency_us: self.qos.mean_us(),
            jitter_us: self.qos.stddev_us(),
            burstiness: bw.population_stddev(),
            avg_bandwidth_bytes_per_sec: bw.mean(),
            wire_bytes: self.wire_bytes,
            duration_secs: self.duration_secs,
            latency_histogram: self.qos.histogram.clone().unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_proto::{DetRng, TimePoint};

    /// Merging accumulators in any grouping and order gives, field for
    /// field as integers, the accumulator that recorded every delivery in
    /// turn — also when latencies are 0, `u64::MAX` ns or negative (a
    /// delivery stamped before its publication), and when Σ latency²
    /// saturates.
    #[test]
    fn merge_in_any_grouping_and_order_equals_sequential_record() {
        let mut rng = DetRng::seed_from_u64(33);
        for case in 0..200u64 {
            let count = rng.next_below(48);
            let deliveries: Vec<Delivery> = (0..count)
                .map(|seq| {
                    let draw = rng.next_u64();
                    let published = rng.next_u64() >> (draw % 64);
                    let delivered = match draw % 5 {
                        0 => published,
                        1 => u64::MAX,
                        2 => published.saturating_sub(draw >> 40),
                        3 => published.saturating_add(draw >> 44),
                        _ => rng.next_u64(),
                    };
                    let published = if draw % 5 == 1 { 0 } else { published };
                    Delivery {
                        seq,
                        published_at: TimePoint::from_nanos(published),
                        delivered_at: TimePoint::from_nanos(delivered),
                        recovered: draw >> 63 == 1,
                    }
                })
                .collect();
            let mut sequential = QosAccumulator::default();
            for d in &deliveries {
                sequential.record(d.latency(), d.recovered);
            }
            // Deal the deliveries, shuffled, into random groups, then merge
            // random pairs until one accumulator is left.
            let mut shuffled = deliveries.clone();
            rng.shuffle(&mut shuffled);
            let mut parts = vec![QosAccumulator::default(); 1 + rng.next_below(6) as usize];
            for d in &shuffled {
                let part = rng.next_below(parts.len() as u64) as usize;
                parts[part].record(d.latency(), d.recovered);
            }
            while parts.len() > 1 {
                let from = parts.swap_remove(rng.next_below(parts.len() as u64) as usize);
                let into = rng.next_below(parts.len() as u64) as usize;
                parts[into].merge(&from);
            }
            let merged = parts.pop().unwrap();
            assert_eq!(merged, sequential, "case {case}");
            let moments = |q: &QosAccumulator| (q.mean_us().to_bits(), q.stddev_us().to_bits());
            assert_eq!(moments(&merged), moments(&sequential), "case {case}");
            assert!(merged.stddev_us() >= 0.0 && merged.mean_us() >= 0.0);
        }
    }

    #[test]
    fn saturated_sums_clamp_instead_of_wrapping() {
        let mut q = QosAccumulator::default();
        for _ in 0..3 {
            q.record(Span::from_nanos(u64::MAX), false);
        }
        assert_eq!(q.latency_ns, 3 * u128::from(u64::MAX));
        assert_eq!(q.latency_ns_sq, u128::MAX);
        assert_eq!(q.stddev_us(), 0.0);
        assert_eq!(q.histogram.as_ref().map(LatencyHistogram::count), Some(3));
    }

    #[test]
    fn moments_match_a_two_pass_computation() {
        let mut q = QosAccumulator::default();
        assert_eq!((q.mean_us(), q.stddev_us()), (0.0, 0.0));
        assert!(q.histogram.is_none());
        // An hour's latency varying by a few nanoseconds: the case a naive
        // Σx²/n − mean² gets wrong in f64. The spread is the offsets'.
        let offsets: Vec<u64> = (0..1_000).map(|i| i % 7).collect();
        for &ns in &offsets {
            q.record(Span::from_nanos(3_600_000_000_000 + ns), false);
        }
        let mean = offsets.iter().sum::<u64>() as f64 / 1_000.0;
        let var = offsets
            .iter()
            .map(|&ns| (ns as f64 - mean).powi(2))
            .sum::<f64>()
            / 1_000.0;
        assert_eq!(q.mean_us(), (3_600_000_000_000.0 + mean) / 1_000.0);
        let stddev_us = var.sqrt() / 1_000.0;
        assert!((q.stddev_us() - stddev_us).abs() <= 1e-12 * stddev_us);
    }

    fn d(seq: u64, sent_us: u64, recv_us: u64, recovered: bool) -> Delivery {
        Delivery {
            seq,
            published_at: TimePoint::from_micros(sent_us),
            delivered_at: TimePoint::from_micros(recv_us),
            recovered,
        }
    }

    #[test]
    fn reliability_pools_receivers() {
        let mut b = QosReport::builder(10, 2);
        b.add_receiver([d(0, 0, 5, false), d(1, 0, 5, false)], 0);
        b.add_receiver([d(0, 0, 5, false)], 0);
        let r = b.finish();
        assert_eq!(r.delivered, 3);
        assert!((r.reliability() - 3.0 / 20.0).abs() < 1e-12);
        assert!((r.percent_loss() - 85.0).abs() < 1e-9);
    }

    #[test]
    fn latency_and_jitter_pool_all_deliveries() {
        let mut b = QosReport::builder(2, 2);
        b.add_receiver([d(0, 0, 100, false)], 0);
        b.add_receiver([d(0, 0, 300, true)], 1);
        let r = b.finish();
        assert_eq!(r.avg_latency_us, 200.0);
        assert_eq!(r.jitter_us, 100.0);
        assert_eq!(r.recovered, 1);
        assert_eq!(r.duplicates, 1);
        assert_eq!(r.avg_latency(), Span::from_micros(200));
    }

    #[test]
    fn wire_stats_feed_burstiness() {
        let mut b = QosReport::builder(1, 1);
        b.add_receiver([d(0, 0, 10, false)], 0);
        b.wire(&[100, 300], 400).duration_secs(2.0);
        let r = b.finish();
        assert_eq!(r.avg_bandwidth_bytes_per_sec, 200.0);
        assert_eq!(r.burstiness, 100.0);
        assert_eq!(r.wire_bytes, 400);
        assert_eq!(r.duration_secs, 2.0);
    }

    #[test]
    fn percentiles_come_from_the_histogram() {
        let mut b = QosReport::builder(3, 1);
        b.add_receiver(
            [
                d(0, 0, 100, false),
                d(1, 0, 200, false),
                d(2, 0, 400, false),
            ],
            0,
        );
        let r = b.finish();
        let p0 = r.latency_percentile_us(0.0).unwrap();
        let p100 = r.latency_percentile_us(1.0).unwrap();
        assert!((95.0..=105.0).contains(&p0), "p0 {p0}");
        assert!((380.0..=420.0).contains(&p100), "p100 {p100}");
        assert_eq!(
            QosReport::builder(1, 1).finish().latency_percentile_us(0.5),
            None
        );
    }

    #[test]
    fn perfect_run_has_zero_loss() {
        let mut b = QosReport::builder(2, 1);
        b.add_receiver([d(0, 0, 10, false), d(1, 10, 20, false)], 0);
        let r = b.finish();
        assert_eq!(r.reliability(), 1.0);
        assert_eq!(r.percent_loss(), 0.0);
    }

    #[test]
    fn empty_run_is_total_loss() {
        let r = QosReport::builder(100, 3).finish();
        assert_eq!(r.reliability(), 0.0);
        assert_eq!(r.percent_loss(), 100.0);
        assert_eq!(r.avg_latency_us, 0.0);
    }

    #[test]
    fn zero_expected_is_zero_reliability() {
        let r = QosReport::builder(0, 0).finish();
        assert_eq!(r.reliability(), 0.0);
    }
}
