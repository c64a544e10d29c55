//! Structured observability: the one typed event taxonomy, covering the
//! packet lifecycle, fault transitions, protocol behaviour, and the
//! self-healing loop, plus the [`MemorySink`] that retains it.
//!
//! Cores emit these events through [`Env::emit`](crate::Env::emit), which
//! stamps the node the core runs on; the simulator adds its packet and
//! fault events, and the invariant checker in `adamant-metrics` reads them
//! all. Every hook is gated on observation, so an unobserved run pays a
//! single branch per hook site and builds no events. Events deliberately
//! carry only integers and enums (no floats), so traces are
//! `Eq`-comparable and serialize byte-identically across runs — the
//! property golden-trace tests and the runtime-verification checker rely
//! on.

use std::fmt;

use crate::ids::NodeId;
use crate::time::TimePoint;

/// Why a packet copy never reached its target agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The network loss model dropped the copy in flight.
    Link,
    /// The target host was crashed (or the copy was in flight across a
    /// crash and arrived addressed to a dead incarnation).
    Crash,
    /// A network partition separated sender and target.
    Partition,
}

/// One structured observability event.
///
/// Fields are integers only — times in nanoseconds, ratios in
/// milli-units — so the enum is `Eq` and traces compare exactly.
/// Protocol identities are carried as the `u64` codes of
/// `ProtocolKind::code()` in `adamant-transport` (this crate is
/// protocol-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    // -- packet lifecycle (emitted by the simulator's engine) --
    /// A transmission left a sender (one per send, before multicast
    /// fan-out).
    PacketSent {
        /// Sending node.
        node: NodeId,
        /// Statistics tag of the packet.
        tag: u16,
        /// Engine-assigned transmission id (shared by all copies).
        wire_id: u64,
        /// Wire size in bytes.
        size_bytes: u32,
    },
    /// A copy survived the loss/crash/partition filters and was enqueued
    /// towards a target's switch port.
    PacketEnqueued {
        /// Target node.
        node: NodeId,
        /// Statistics tag of the packet.
        tag: u16,
        /// Transmission id.
        wire_id: u64,
    },
    /// A copy cleared ingress + CPU and was handed to the target agent.
    PacketDelivered {
        /// Receiving node.
        node: NodeId,
        /// Statistics tag of the packet.
        tag: u16,
        /// Transmission id.
        wire_id: u64,
        /// Wire size in bytes.
        size_bytes: u32,
    },
    /// A copy was discarded before reaching the target agent.
    PacketDropped {
        /// Intended target node.
        node: NodeId,
        /// Statistics tag of the packet.
        tag: u16,
        /// Transmission id.
        wire_id: u64,
        /// Why the copy was discarded.
        reason: DropReason,
    },
    /// A non-packet event (timer, pending delivery, start) addressed to a
    /// dead incarnation was silently discarded.
    EpochDropped {
        /// The node whose dead incarnation the event belonged to.
        node: NodeId,
    },

    // -- fault transitions (emitted by the simulator's fault mutators) --
    /// A host crashed; its incarnation epoch advanced.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
        /// The epoch of the *new* (dead) incarnation counter.
        epoch: u32,
    },
    /// A crashed host restarted with a fresh agent.
    NodeRestarted {
        /// The restarted node.
        node: NodeId,
        /// The epoch of the new live incarnation.
        epoch: u32,
    },
    /// The network was partitioned into islands (`islands == 0` means the
    /// partition healed).
    PartitionChanged {
        /// Number of explicit islands now in effect; 0 when healed.
        islands: u32,
    },
    /// The network configuration (propagation / loss model) was replaced.
    NetworkChanged {
        /// New one-way propagation delay in nanoseconds.
        propagation_ns: u64,
        /// Whether the new loss model can drop packets.
        lossy: bool,
    },
    /// A host's NIC bandwidth changed mid-run.
    BandwidthChanged {
        /// The throttled node.
        node: NodeId,
        /// New bandwidth in bits per second.
        bps: u64,
    },
    /// A host's CPU contention multiplier changed.
    ContentionChanged {
        /// The affected node.
        node: NodeId,
        /// New multiplier in milli-units (1000 = uncontended).
        factor_milli: u64,
    },

    // -- protocol behaviour (emitted by protocol cores via `Env::emit`) --
    /// A receiver's reception log accepted a sample for the first time.
    /// This is the verification anchor: exactly one per (receiver,
    /// incarnation, seq), carrying the same timestamps the QoS report is
    /// built from.
    SampleAccepted {
        /// Receiving node.
        node: NodeId,
        /// Application sequence number.
        seq: u64,
        /// Publication time in nanoseconds since simulation start.
        published_ns: u64,
        /// Delivery time in nanoseconds (includes protocol stalls).
        delivered_ns: u64,
        /// Whether the sample arrived through a recovery path.
        recovered: bool,
    },
    /// A receiver saw a sample it had already accepted.
    SampleDuplicate {
        /// Receiving node.
        node: NodeId,
        /// Application sequence number.
        seq: u64,
    },
    /// A NAKcast receiver sent a NAK round.
    NakSent {
        /// The NAKing receiver.
        node: NodeId,
        /// Missing sequences requested in this round.
        count: u32,
    },
    /// A receiver abandoned recovery of a sequence after exhausting its
    /// NAK retries.
    NakGiveUp {
        /// The abandoning receiver.
        node: NodeId,
        /// The abandoned sequence.
        seq: u64,
    },
    /// A sender (or promoted standby) retransmitted a sample.
    Retransmitted {
        /// The retransmitting node.
        node: NodeId,
        /// The retransmitted sequence.
        seq: u64,
    },
    /// A Ricochet receiver flushed an XOR repair window.
    RepairSent {
        /// The repairing node.
        node: NodeId,
        /// Peers the repair was sent to.
        copies: u32,
        /// Packets XORed into the repair.
        span: u32,
    },
    /// A Ricochet receiver reconstructed a missing packet from a repair.
    RepairDecoded {
        /// The decoding node.
        node: NodeId,
        /// The reconstructed sequence.
        seq: u64,
    },
    /// A warm standby promoted itself to session sender.
    FailoverPromoted {
        /// The promoted standby node.
        node: NodeId,
    },

    // -- durable delivery (emitted by the DurableCore wrapper) --
    /// A durable writer retained a freshly published sample.
    HistoryRetained {
        /// The writer node.
        node: NodeId,
        /// The retained sequence.
        seq: u64,
        /// Samples retained after this one was cached.
        retained: u64,
    },
    /// A durable writer's bounded history cache evicted its oldest sample.
    HistoryEvicted {
        /// The writer node.
        node: NodeId,
        /// The evicted sequence.
        seq: u64,
    },
    /// A durable reader sent a catch-up NAK round for historical samples.
    CatchUpNakSent {
        /// The reader node.
        node: NodeId,
        /// Sequences requested in this round.
        count: u32,
    },
    /// A durable writer replayed a retained sample from its history cache.
    DurableReplayed {
        /// The writer node.
        node: NodeId,
        /// The replayed sequence.
        seq: u64,
    },
    /// A durable reader finished catch-up with every wanted historical
    /// sample recovered.
    CatchUpCompleted {
        /// The reader node.
        node: NodeId,
        /// Samples recovered through the catch-up path.
        recovered: u64,
    },
    /// A durable reader abandoned historical sequences (writer evicted
    /// them, or the retry budget ran out).
    CatchUpAbandoned {
        /// The reader node.
        node: NodeId,
        /// Sequences abandoned.
        count: u32,
    },

    // -- self-healing loop (emitted by the healing driver) --
    /// The windowed QoS monitor raised an alarm.
    HealAlarm {
        /// Index of the window that tripped the alarm.
        window: u32,
    },
    /// The healing loop re-probed the environment.
    HealProbe {
        /// Probed loss percentage (the `Environment` loss field).
        loss_percent: u8,
    },
    /// The protocol selector produced a decision.
    HealDecision {
        /// Decision source: 0 = ANN, 1 = decision tree, 2 = safe default.
        source: u8,
        /// Chosen protocol as a `ProtocolKind::code()` value.
        protocol: u64,
    },
    /// The session committed a mid-stream protocol switch.
    HealSwitch {
        /// Previous protocol code.
        from: u64,
        /// New protocol code.
        to: u64,
        /// Decision source (same encoding as [`ObsEvent::HealDecision`]).
        source: u8,
    },
    /// A wanted switch was suppressed by the switch backoff.
    HealSuppressed {
        /// The protocol code the selector wanted to switch to.
        want: u64,
    },
}

/// A timestamped [`ObsEvent`], as stored by [`MemorySink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// When the event was recorded.
    pub time: TimePoint,
    /// What happened.
    pub event: ObsEvent,
}

impl fmt::Display for TracedEvent {
    /// Stable single-line rendering (`<ns> <event-debug>`), used by the
    /// golden-trace fixtures.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?}", self.time.as_nanos(), self.event)
    }
}

/// Retains every recorded event in memory, in emission order.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Vec<TracedEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Records `event`, observed at `time`.
    pub fn record(&mut self, time: TimePoint, event: ObsEvent) {
        self.events.push(TracedEvent { time, event });
    }

    /// Takes the retained events out of the sink.
    pub fn take_events(&mut self) -> Vec<TracedEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_retains_in_order() {
        let mut sink = MemorySink::new();
        sink.record(
            TimePoint::from_micros(1),
            ObsEvent::EpochDropped {
                node: NodeId::from_index(0),
            },
        );
        sink.record(
            TimePoint::from_micros(2),
            ObsEvent::NakSent {
                node: NodeId::from_index(1),
                count: 3,
            },
        );
        let events = sink.take_events();
        assert_eq!(events.len(), 2);
        assert!(sink.take_events().is_empty());
        assert_eq!(events[0].time, TimePoint::from_micros(1));
        assert_eq!(
            events[1].event,
            ObsEvent::NakSent {
                node: NodeId::from_index(1),
                count: 3
            }
        );
    }

    #[test]
    fn traced_event_line_is_stable() {
        let e = TracedEvent {
            time: TimePoint::from_micros(5),
            event: ObsEvent::SampleAccepted {
                node: NodeId::from_index(2),
                seq: 9,
                published_ns: 1_000,
                delivered_ns: 5_000,
                recovered: true,
            },
        };
        let line = e.to_string();
        assert!(line.starts_with("5000 SampleAccepted"), "line: {line}");
        assert!(line.contains("seq: 9"));
    }

    #[test]
    fn events_compare_exactly() {
        let a = ObsEvent::HealSwitch {
            from: 1,
            to: 2,
            source: 0,
        };
        let b = ObsEvent::HealSwitch {
            from: 1,
            to: 2,
            source: 0,
        };
        assert_eq!(a, b);
    }
}
