//! DDS communication statuses (a post-run realisation of the DDS status
//! model): sample loss, deadline misses, and delivery-order violations
//! computed from a reader's captured reception log.
//!
//! Real DDS surfaces these through listeners and wait-sets while the
//! system runs; in the simulation they are derived after (or between
//! phases of) a run, which is when the experiment harness and the
//! adaptation loop inspect them.

use adamant_metrics::DenseReceptionLog;
use adamant_netsim::SimDuration;

/// SAMPLE_LOST: samples that never reached this reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleLostStatus {
    /// Cumulative count of lost samples.
    pub total_count: u64,
}

/// REQUESTED_DEADLINE_MISSED: gaps between consecutive deliveries that
/// exceeded the reader's deadline period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestedDeadlineMissedStatus {
    /// Cumulative count of deadline misses.
    pub total_count: u64,
}

/// SAMPLE_REJECTED stands in here for duplicate copies the reader refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleRejectedStatus {
    /// Cumulative count of rejected (duplicate) samples.
    pub total_count: u64,
}

/// Out-of-source-order deliveries observed (relevant for transports
/// without ordered delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OrderViolationStatus {
    /// Cumulative count of deliveries whose sequence number was below an
    /// earlier-delivered one.
    pub total_count: u64,
}

/// The reader-side status set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReaderStatuses {
    /// SAMPLE_LOST.
    pub sample_lost: SampleLostStatus,
    /// REQUESTED_DEADLINE_MISSED.
    pub deadline_missed: RequestedDeadlineMissedStatus,
    /// SAMPLE_REJECTED (duplicates).
    pub sample_rejected: SampleRejectedStatus,
    /// Source-order violations.
    pub order_violations: OrderViolationStatus,
}

impl ReaderStatuses {
    /// Computes the statuses of a reader that expected `expected` samples,
    /// against an optional DEADLINE period.
    ///
    /// Deadline misses count, per consecutive pair of deliveries (in
    /// delivery order), how many whole deadline periods elapsed beyond the
    /// first — mirroring DDS, where a missed deadline fires once per
    /// period without a sample. Only the previous delivery instant and the
    /// sequence high-water mark are kept.
    ///
    /// # Panics
    ///
    /// Panics if `log` does not capture its deliveries.
    pub fn from_log(
        log: &DenseReceptionLog,
        expected: u64,
        duplicates: u64,
        deadline: Option<SimDuration>,
    ) -> ReaderStatuses {
        let mut statuses = ReaderStatuses::default();
        statuses.sample_lost.total_count = expected.saturating_sub(log.delivered_count());
        statuses.sample_rejected.total_count = duplicates;
        let period = deadline.filter(|period| !period.is_zero());
        let (mut previous, mut high_water) = (None, None);
        for d in log.deliveries().expect("statuses need a log that captures") {
            if let (Some(period), Some(previous)) = (period, previous) {
                let gap = d.delivered_at.saturating_since(previous).as_nanos();
                statuses.deadline_missed.total_count += gap.saturating_sub(1) / period.as_nanos();
            }
            previous = Some(d.delivered_at);
            let reordered = high_water.is_some_and(|h| d.seq < h);
            statuses.order_violations.total_count += u64::from(reordered);
            high_water = high_water.max(Some(d.seq));
        }
        statuses
    }

    /// Whether every status is clean (nothing lost, missed, rejected, or
    /// reordered).
    pub fn is_clean(&self) -> bool {
        self.sample_lost.total_count == 0
            && self.deadline_missed.total_count == 0
            && self.sample_rejected.total_count == 0
            && self.order_violations.total_count == 0
    }
}

/// Splits a reception log by DDS *instance* (modelled as `seq % instances`,
/// the round-robin keying the experiment publishers use) and computes each
/// instance's statuses — DDS deadlines are per instance, so a stream that
/// looks healthy in aggregate can still be missing every deadline on one
/// key.
///
/// # Panics
///
/// Panics if `instances` is zero or `log` does not capture its deliveries.
pub fn per_instance_statuses(
    log: &DenseReceptionLog,
    expected_total: u64,
    instances: u64,
    deadline: Option<SimDuration>,
) -> Vec<ReaderStatuses> {
    assert!(instances > 0, "need at least one instance");
    (0..instances)
        .map(|instance| {
            // Samples of this instance, preserving delivery order.
            let mut sub = DenseReceptionLog::with_capacity(expected_total / instances + 1);
            sub.capture();
            for d in log.deliveries().expect("statuses need a log that captures") {
                if d.seq % instances == instance {
                    // Re-key to a dense space so loss accounting stays exact.
                    sub.record(adamant_metrics::Delivery {
                        seq: d.seq / instances,
                        ..d
                    });
                }
            }
            let expected =
                expected_total / instances + u64::from(instance < expected_total % instances);
            ReaderStatuses::from_log(&sub, expected, 0, deadline)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_metrics::Delivery;
    use adamant_netsim::SimTime;

    fn log_from(entries: &[(u64, u64)]) -> DenseReceptionLog {
        // (seq, delivered_at_ms)
        let mut log = DenseReceptionLog::with_capacity(64);
        log.capture();
        for &(seq, at_ms) in entries {
            log.record(Delivery {
                seq,
                published_at: SimTime::ZERO,
                delivered_at: SimTime::from_millis(at_ms),
                recovered: false,
            });
        }
        log
    }

    #[test]
    #[should_panic(expected = "statuses need a log that captures")]
    fn a_log_that_does_not_capture_panics() {
        let mut log = DenseReceptionLog::with_capacity(64);
        log.record(Delivery {
            seq: 0,
            published_at: SimTime::ZERO,
            delivered_at: SimTime::from_millis(1),
            recovered: false,
        });
        ReaderStatuses::from_log(&log, 1, 0, None);
    }

    #[test]
    fn clean_stream_is_clean() {
        let log = log_from(&[(0, 10), (1, 20), (2, 30)]);
        let s = ReaderStatuses::from_log(&log, 3, 0, Some(SimDuration::from_millis(15)));
        assert!(s.is_clean(), "{s:?}");
    }

    #[test]
    fn losses_counted() {
        let log = log_from(&[(0, 10), (2, 30)]);
        let s = ReaderStatuses::from_log(&log, 4, 0, None);
        assert_eq!(s.sample_lost.total_count, 2);
        assert!(!s.is_clean());
    }

    #[test]
    fn deadline_misses_count_whole_periods() {
        // Deliveries at 0 ms and 35 ms with a 10 ms deadline: periods end
        // at 10, 20, 30 — three misses.
        let log = log_from(&[(0, 0), (1, 35)]);
        let s = ReaderStatuses::from_log(&log, 2, 0, Some(SimDuration::from_millis(10)));
        assert_eq!(s.deadline_missed.total_count, 3);
        // Exactly one period is not a miss.
        let log = log_from(&[(0, 0), (1, 10)]);
        let s = ReaderStatuses::from_log(&log, 2, 0, Some(SimDuration::from_millis(10)));
        assert_eq!(s.deadline_missed.total_count, 0);
    }

    #[test]
    fn no_deadline_means_no_misses() {
        let log = log_from(&[(0, 0), (1, 500)]);
        let s = ReaderStatuses::from_log(&log, 2, 0, None);
        assert_eq!(s.deadline_missed.total_count, 0);
    }

    #[test]
    fn order_violations_detected() {
        let log = log_from(&[(0, 10), (2, 20), (1, 30), (3, 40)]);
        let s = ReaderStatuses::from_log(&log, 4, 0, None);
        assert_eq!(s.order_violations.total_count, 1);
    }

    #[test]
    fn per_instance_deadlines_catch_a_starved_key() {
        // Two instances interleaved at 10 ms spacing; instance 1 goes
        // silent halfway. Aggregate deadline (25 ms) is met throughout,
        // but instance 1 misses its per-instance deadline badly.
        let mut entries = Vec::new();
        for i in 0..20u64 {
            if i % 2 == 1 && i >= 10 {
                continue; // instance 1 starves after seq 9
            }
            entries.push((i, 10 * i));
        }
        let log = log_from(&entries);
        let aggregate = ReaderStatuses::from_log(&log, 20, 0, Some(SimDuration::from_millis(25)));
        assert_eq!(aggregate.deadline_missed.total_count, 0);

        let per = per_instance_statuses(&log, 20, 2, Some(SimDuration::from_millis(25)));
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].deadline_missed.total_count, 0);
        assert_eq!(per[0].sample_lost.total_count, 0);
        assert!(per[1].sample_lost.total_count == 5);
        // Instance 1 delivered at 10,30,50,70,90 ms then stopped: its gaps
        // are 20 ms < 25 ms, so misses come only from losses, which is
        // what sample_lost already shows; a tighter deadline exposes gaps.
        let tight = per_instance_statuses(&log, 20, 2, Some(SimDuration::from_millis(15)));
        assert!(tight[1].deadline_missed.total_count > 0);
    }

    #[test]
    fn per_instance_expected_counts_split_remainders() {
        let log = log_from(&[(0, 1), (1, 2), (2, 3)]);
        let per = per_instance_statuses(&log, 5, 2, None);
        // 5 samples over 2 instances: instance 0 expects 3, instance 1
        // expects 2.
        assert_eq!(per[0].sample_lost.total_count, 3 - 2); // seqs 0,2 present
        assert_eq!(per[1].sample_lost.total_count, 2 - 1); // seq 1 present
    }

    #[test]
    fn duplicates_surface_as_rejections() {
        let log = log_from(&[(0, 10)]);
        let s = ReaderStatuses::from_log(&log, 1, 3, None);
        assert_eq!(s.sample_rejected.total_count, 3);
    }
}
