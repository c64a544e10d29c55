//! Aggregated QoS reports for a complete experiment run.

use std::borrow::Borrow;

use adamant_netsim::SimDuration;

use crate::histogram::LatencyHistogram;
use crate::record::Delivery;
use crate::stats::Welford;

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
            delivered: 0,
            recovered: 0,
            duplicates: 0,
            latency: Welford::new(),
            histogram: LatencyHistogram::new(),
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

    /// Mean latency as a [`SimDuration`].
    pub fn avg_latency(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.avg_latency_us)
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

/// Incremental builder for [`QosReport`]; feed it each receiver's log and
/// the run's wire statistics.
#[derive(Debug, Clone)]
pub struct QosReportBuilder {
    samples_sent: u64,
    receivers: u32,
    delivered: u64,
    recovered: u64,
    duplicates: u64,
    latency: Welford,
    histogram: LatencyHistogram,
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
            let d = d.borrow();
            self.delivered += 1;
            self.recovered += u64::from(d.recovered);
            let us = d.latency().as_micros_f64();
            self.latency.push(us);
            self.histogram.record_us(us);
        }
        self
    }

    /// Sets wire-level totals (from
    /// [`WireStats`](adamant_netsim::WireStats)).
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
            delivered: self.delivered,
            recovered: self.recovered,
            duplicates: self.duplicates,
            avg_latency_us: self.latency.mean(),
            jitter_us: self.latency.population_stddev(),
            burstiness: bw.population_stddev(),
            avg_bandwidth_bytes_per_sec: bw.mean(),
            wire_bytes: self.wire_bytes,
            duration_secs: self.duration_secs,
            latency_histogram: self.histogram.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_netsim::SimTime;

    fn d(seq: u64, sent_us: u64, recv_us: u64, recovered: bool) -> Delivery {
        Delivery {
            seq,
            published_at: SimTime::from_micros(sent_us),
            delivered_at: SimTime::from_micros(recv_us),
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
        assert_eq!(r.avg_latency(), SimDuration::from_micros(200));
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
