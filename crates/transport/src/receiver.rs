//! Receiver-side shared vocabulary: the [`Reception`] stage every reader
//! runs its data through, and the [`DataReader`] read-out over it.

use adamant_metrics::{Delivery, DenseReceptionLog};
use adamant_proto::{Env, Insert, ObsEvent, TimePoint};

/// Per-receiver protocol activity counters, unified across protocols so
/// harnesses can report recovery behaviour without downcasting. Fields a
/// protocol does not use stay zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolStats {
    /// NAK packets sent (NAKcast).
    pub naks_sent: u64,
    /// ACK packets or credit grants sent (StreamCast, ShmCast).
    pub acks_sent: u64,
    /// Repair packets sent to peers (Ricochet).
    pub repairs_sent: u64,
    /// Repair packets received from peers (Ricochet).
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

/// What every reader shares around its protocol: the end-host loss stage,
/// the reception log and the protocol counters.
///
/// `lost` is the paper's end-host random packet drop, drawn once per data
/// frame where the reader has always drawn it. The protocol bumps its own
/// counters in `stats`; duplicates and window overflows the log refuses
/// are counted where `accept` sees them, and `recovered` is read from the
/// log.
#[derive(Debug, Clone)]
pub struct Reception {
    log: DenseReceptionLog,
    drop_probability: f64,
    pub(crate) stats: ProtocolStats,
}

impl Reception {
    /// A stage for `expected` samples that loses each data frame with
    /// probability `drop_probability`.
    pub(crate) fn new(expected: u64, drop_probability: f64) -> Self {
        Reception {
            log: DenseReceptionLog::with_capacity(expected),
            drop_probability,
            stats: ProtocolStats::default(),
        }
    }

    /// The samples delivered to the application.
    pub fn log(&self) -> &DenseReceptionLog {
        &self.log
    }

    pub(crate) fn log_mut(&mut self) -> &mut DenseReceptionLog {
        &mut self.log
    }

    /// Every counter, with `recovered` read from the log.
    pub fn stats(&self) -> ProtocolStats {
        ProtocolStats {
            recovered: self.log.recovered_count(),
            ..self.stats
        }
    }

    /// Whether the end-host loss stage discards this data frame, counted
    /// as dropped.
    pub(crate) fn lost(&mut self, env: &mut Env<'_>) -> bool {
        let lost = env.rng().bernoulli(self.drop_probability);
        self.stats.dropped += u64::from(lost);
        lost
    }

    /// Records `seq`, delivered at `delivered_at`, in the log and, unless
    /// the log refuses it, hands it to the application and traces it. A
    /// refusal is counted as a duplicate or a window overflow.
    pub(crate) fn accept(
        &mut self,
        env: &mut Env<'_>,
        seq: u64,
        published_at: TimePoint,
        delivered_at: TimePoint,
        recovered: bool,
    ) -> Insert {
        let outcome = self.log.record(Delivery {
            seq,
            published_at,
            delivered_at,
            recovered,
        });
        match outcome {
            Insert::Fresh => {
                env.deliver(seq, published_at, recovered);
                env.emit(|node| ObsEvent::SampleAccepted {
                    node,
                    seq,
                    published_ns: published_at.as_nanos(),
                    delivered_ns: delivered_at.as_nanos(),
                    recovered,
                });
            }
            Insert::Seen => self.duplicate(env, seq),
            Insert::Beyond => self.stats.window_overflows += 1,
        }
        outcome
    }

    /// Counts and traces a discarded copy of `seq`.
    pub(crate) fn duplicate(&mut self, env: &mut Env<'_>, seq: u64) {
        self.stats.duplicates += 1;
        env.emit(|node| ObsEvent::SampleDuplicate { node, seq });
    }

    /// Counts and traces `seq` abandoned after exhausting retries.
    pub(crate) fn give_up(&mut self, env: &mut Env<'_>, seq: u64) {
        self.stats.give_ups += 1;
        env.emit(|node| ObsEvent::NakGiveUp { node, seq });
    }
}

/// Common read-out interface of every protocol's data reader core, used
/// by the experiment harness to collect results after a run.
pub trait DataReader {
    /// The reader's reception stage.
    fn reception(&self) -> &Reception;

    /// The reader's reception stage, for [`log_mut`](Self::log_mut).
    fn reception_mut(&mut self) -> &mut Reception;

    /// The samples this reader delivered to the application: their
    /// accumulated QoS, and a record of each only under capture.
    fn log(&self) -> &DenseReceptionLog {
        self.reception().log()
    }

    /// The log, to turn on [capture](DenseReceptionLog::capture) before the
    /// first delivery or to [take](DenseReceptionLog::take_captured) what
    /// it captured so far.
    fn log_mut(&mut self) -> &mut DenseReceptionLog {
        self.reception_mut().log_mut()
    }

    /// Unified protocol activity counters.
    fn protocol_stats(&self) -> ProtocolStats {
        self.reception().stats()
    }

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
