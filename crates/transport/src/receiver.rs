//! Receiver-side shared vocabulary.

use adamant_metrics::{Delivery, DenseReceptionLog};
use adamant_proto::{Env, Insert, ObsEvent, TimePoint};

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
    /// Frames refused for landing too far ahead: beyond the receive window
    /// (StreamCast), or more than [`SPAN`](adamant_proto::SPAN) past the
    /// highest sequence heard of.
    pub window_overflows: u64,
}

/// Records the delivery of `seq` at `env.now()` in `log` and, unless the
/// log refuses it, hands it to the application and traces it.
pub(crate) fn accept(
    log: &mut DenseReceptionLog,
    env: &mut Env<'_>,
    seq: u64,
    published_at: TimePoint,
    recovered: bool,
) -> Insert {
    let delivered_at = env.now();
    let outcome = log.record(Delivery {
        seq,
        published_at,
        delivered_at,
        recovered,
    });
    if outcome.is_fresh() {
        env.deliver(seq, published_at, recovered);
        env.emit(|node| ObsEvent::SampleAccepted {
            node,
            seq,
            published_ns: published_at.as_nanos(),
            delivered_ns: delivered_at.as_nanos(),
            recovered,
        });
    }
    outcome
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

    /// Unified protocol activity counters.
    fn protocol_stats(&self) -> ProtocolStats;

    /// How many incoming data packets the end-host loss stage discarded.
    fn dropped(&self) -> u64 {
        self.protocol_stats().dropped
    }

    /// Duplicate data copies discarded by the protocol.
    fn duplicates(&self) -> u64 {
        self.protocol_stats().duplicates
    }
}

/// `reader`, capturing its deliveries, for tests that compare them.
#[cfg(test)]
pub(crate) fn capturing<R: DataReader>(mut reader: R) -> R {
    reader.log_mut().capture();
    reader
}
