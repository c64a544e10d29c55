//! Receiver-side shared vocabulary.

use adamant_metrics::{Delivery, DenseReceptionLog};
use adamant_proto::{Env, ObsEvent, TimePoint};

/// Per-receiver protocol activity counters, unified across protocols so
/// harnesses can report recovery behaviour without downcasting. Fields a
/// protocol does not use stay zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolStats {
    /// NAK packets sent (NAKcast).
    pub naks_sent: u64,
    /// ACK packets sent (ACKcast).
    pub acks_sent: u64,
    /// Repair/copy packets sent to peers (Ricochet, Slingshot).
    pub repairs_sent: u64,
    /// Repair/copy packets received from peers (Ricochet, Slingshot).
    pub repairs_received: u64,
    /// Samples delivered through a recovery path.
    pub recovered: u64,
    /// Sequences abandoned after exhausting retries (NAK/ACK protocols).
    pub give_ups: u64,
    /// Duplicate data copies discarded.
    pub duplicates: u64,
    /// Data packets discarded by the end-host loss stage.
    pub dropped: u64,
}

/// Records the delivery of `seq` at `env.now()` in `log` and, unless it is
/// a duplicate, hands it to the application and traces it. Returns whether
/// it was fresh.
pub(crate) fn accept(
    log: &mut DenseReceptionLog,
    env: &mut Env<'_>,
    seq: u64,
    published_at: TimePoint,
    recovered: bool,
) -> bool {
    let delivered_at = env.now();
    let fresh = log.record(Delivery {
        seq,
        published_at,
        delivered_at,
        recovered,
    });
    if fresh {
        env.deliver(seq, published_at, recovered);
        env.emit(|node| ObsEvent::SampleAccepted {
            node,
            seq,
            published_ns: published_at.as_nanos(),
            delivered_ns: delivered_at.as_nanos(),
            recovered,
        });
    }
    fresh
}

/// Common read-out interface of every protocol's receiving agent, used by
/// the experiment harness to collect results after a run.
pub trait DataReader {
    /// The samples this reader delivered to the application: their
    /// accumulated QoS, and a record of each only under capture.
    fn log(&self) -> &DenseReceptionLog;

    /// The log, to turn on [capture](DenseReceptionLog::capture) before the
    /// first delivery or to [take](DenseReceptionLog::take_captured) what
    /// it captured so far.
    fn log_mut(&mut self) -> &mut DenseReceptionLog;

    /// How many incoming data packets the end-host loss stage discarded.
    fn dropped(&self) -> u64;

    /// Duplicate data copies discarded by the protocol.
    fn duplicates(&self) -> u64 {
        self.log().duplicate_count()
    }

    /// Unified protocol activity counters.
    fn protocol_stats(&self) -> ProtocolStats {
        ProtocolStats {
            recovered: self.log().recovered_count(),
            duplicates: self.duplicates(),
            dropped: self.dropped(),
            ..ProtocolStats::default()
        }
    }
}

/// `reader`, capturing its deliveries, for tests that compare them.
#[cfg(test)]
pub(crate) fn capturing<R: DataReader>(mut reader: R) -> R {
    reader.log_mut().capture();
    reader
}
