//! Transport protocol selection and tuning: the configuration surface the
//! ANT framework (and ADAMANT's machine-learning selector) operates on.

use std::fmt;

use adamant_netsim::SimDuration;

/// Which transport protocol a pub/sub session uses, with its parameters.
///
/// These are the QoS mechanisms the ADAMANT paper evaluates: NAKcast with
/// four NAK-timeout settings and Ricochet with two `(R, C)` settings, plus
/// plain UDP multicast and an ACK-based reliable multicast as baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Best-effort UDP multicast: no recovery at all.
    Udp,
    /// NAK-based reliable ordered multicast. A receiver that detects a gap
    /// waits `timeout` before NAKing the sender, which retransmits.
    Nakcast {
        /// Delay between detecting a missing packet and sending the NAK.
        timeout: SimDuration,
    },
    /// Ricochet-style lateral error correction. Every receiver XORs each
    /// window of `r` received packets into a repair packet sent to `c`
    /// other receivers, which can reconstruct a single missing packet per
    /// repair.
    Ricochet {
        /// Packets received before a repair packet is emitted.
        r: u8,
        /// Receivers each repair packet is sent to.
        c: u8,
    },
    /// ACK-based reliable multicast: receivers ACK in windows; the sender
    /// retransmits anything unacknowledged after `rto`.
    Ackcast {
        /// Sender retransmission timeout.
        rto: SimDuration,
    },
    /// Slingshot-style proactive replication (Balakrishnan et al., NCA
    /// 2005): receivers forward a copy of every received packet to `c`
    /// random peers. Lowest recovery latency, highest repair bandwidth.
    Slingshot {
        /// Peers each packet copy is forwarded to.
        c: u8,
    },
    /// TCP-like reliable ordered stream for WAN/cross-AZ paths: receiver-
    /// initiated connection handshake, cumulative ACKs, sender RTO from a
    /// Jacobson RTT estimator with fast retransmit, and a send window of
    /// `window` packets.
    StreamCast {
        /// Send window in packets (per-receiver unacknowledged budget).
        window: u32,
    },
    /// Same-host shared-memory fast path: a zero-loss bounded queue of
    /// `queue` slots with credit-based backpressure, bypassing the OS
    /// network stack entirely.
    ShmCast {
        /// Bounded queue capacity in packets per receiver.
        queue: u32,
    },
}

impl ProtocolKind {
    /// The six candidate configurations the paper's ANN chooses between
    /// (§4.2): NAKcast with 50 ms, 25 ms, 10 ms, and 1 ms timeouts, and
    /// Ricochet with `R=4,C=3` and `R=8,C=3`.
    pub fn paper_candidates() -> [ProtocolKind; 6] {
        [
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(50),
            },
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(25),
            },
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(10),
            },
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1),
            },
            ProtocolKind::Ricochet { r: 4, c: 3 },
            ProtocolKind::Ricochet { r: 8, c: 3 },
        ]
    }

    /// Short stable identifier (used in datasets and reports).
    pub fn label(&self) -> String {
        match self {
            ProtocolKind::Udp => "udp".to_owned(),
            ProtocolKind::Nakcast { timeout } => {
                format!("nakcast-{:.3}s", timeout.as_secs_f64())
            }
            ProtocolKind::Ricochet { r, c } => format!("ricochet-r{r}c{c}"),
            ProtocolKind::Ackcast { rto } => format!("ackcast-{:.3}s", rto.as_secs_f64()),
            ProtocolKind::Slingshot { c } => format!("slingshot-c{c}"),
            ProtocolKind::StreamCast { window } => format!("streamcast-w{window}"),
            ProtocolKind::ShmCast { queue } => format!("shmcast-q{queue}"),
        }
    }

    /// Packs this configuration into a single integer for trace events.
    ///
    /// The top byte discriminates the protocol family; the low 56 bits
    /// carry its parameters (nanosecond timeouts fit comfortably — the
    /// paper's settings are all under a second). The encoding is stable so
    /// golden traces survive refactors, and [`ProtocolKind::from_code`]
    /// round-trips it.
    pub fn code(&self) -> u64 {
        match self {
            ProtocolKind::Udp => 0,
            ProtocolKind::Nakcast { timeout } => (1 << 56) | timeout.as_nanos(),
            ProtocolKind::Ricochet { r, c } => (2 << 56) | (u64::from(*r) << 8) | u64::from(*c),
            ProtocolKind::Ackcast { rto } => (3 << 56) | rto.as_nanos(),
            ProtocolKind::Slingshot { c } => (4 << 56) | u64::from(*c),
            ProtocolKind::StreamCast { window } => (5 << 56) | u64::from(*window),
            ProtocolKind::ShmCast { queue } => (6 << 56) | u64::from(*queue),
        }
    }

    /// Inverse of [`ProtocolKind::code`]; `None` for unknown encodings.
    pub fn from_code(code: u64) -> Option<ProtocolKind> {
        let payload = code & ((1 << 56) - 1);
        match code >> 56 {
            0 if payload == 0 => Some(ProtocolKind::Udp),
            1 => Some(ProtocolKind::Nakcast {
                timeout: SimDuration::from_nanos(payload),
            }),
            2 => Some(ProtocolKind::Ricochet {
                r: ((payload >> 8) & 0xff) as u8,
                c: (payload & 0xff) as u8,
            }),
            3 => Some(ProtocolKind::Ackcast {
                rto: SimDuration::from_nanos(payload),
            }),
            4 => Some(ProtocolKind::Slingshot {
                c: (payload & 0xff) as u8,
            }),
            5 => Some(ProtocolKind::StreamCast {
                window: (payload & 0xffff_ffff) as u32,
            }),
            6 => Some(ProtocolKind::ShmCast {
                queue: (payload & 0xffff_ffff) as u32,
            }),
            _ => None,
        }
    }

    /// The ANT protocol properties this configuration composes.
    pub fn properties(&self) -> ProtocolProperties {
        match self {
            ProtocolKind::Udp => ProtocolProperties {
                multicast: true,
                ..ProtocolProperties::default()
            },
            ProtocolKind::Nakcast { .. } => ProtocolProperties {
                multicast: true,
                packet_tracking: true,
                nak_reliability: true,
                ordered_delivery: true,
                group_membership: true,
                ..ProtocolProperties::default()
            },
            ProtocolKind::Ricochet { .. } => ProtocolProperties {
                multicast: true,
                packet_tracking: true,
                lateral_error_correction: true,
                group_membership: true,
                fault_detection: true,
                ..ProtocolProperties::default()
            },
            ProtocolKind::Ackcast { .. } => ProtocolProperties {
                multicast: true,
                packet_tracking: true,
                ack_reliability: true,
                flow_control: true,
                group_membership: true,
                ..ProtocolProperties::default()
            },
            ProtocolKind::Slingshot { .. } => ProtocolProperties {
                multicast: true,
                packet_tracking: true,
                lateral_error_correction: true,
                group_membership: true,
                ..ProtocolProperties::default()
            },
            ProtocolKind::StreamCast { .. } => ProtocolProperties {
                multicast: true,
                packet_tracking: true,
                ack_reliability: true,
                ordered_delivery: true,
                flow_control: true,
                ..ProtocolProperties::default()
            },
            ProtocolKind::ShmCast { .. } => ProtocolProperties {
                multicast: true,
                packet_tracking: true,
                ordered_delivery: true,
                flow_control: true,
                lossless_path: true,
                ..ProtocolProperties::default()
            },
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::Udp => write!(f, "UDP multicast"),
            ProtocolKind::Nakcast { timeout } => {
                write!(f, "NAKcast {:.3}", timeout.as_secs_f64())
            }
            ProtocolKind::Ricochet { r, c } => write!(f, "Ricochet R{r} C{c}"),
            ProtocolKind::Ackcast { rto } => write!(f, "ACKcast {:.3}", rto.as_secs_f64()),
            ProtocolKind::Slingshot { c } => write!(f, "Slingshot C{c}"),
            ProtocolKind::StreamCast { window } => write!(f, "StreamCast W{window}"),
            ProtocolKind::ShmCast { queue } => write!(f, "ShmCast Q{queue}"),
        }
    }
}

/// The transport-property vocabulary of the ANT framework (§3.1 of the
/// paper): orthogonal capabilities that protocols compose at configuration
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolProperties {
    /// Uses IP-multicast-style fan-out.
    pub multicast: bool,
    /// Tracks per-packet sequence state at receivers.
    pub packet_tracking: bool,
    /// Recovers losses with receiver-driven NAKs.
    pub nak_reliability: bool,
    /// Recovers losses with sender-driven ACK windows.
    pub ack_reliability: bool,
    /// Recovers losses with receiver-to-receiver XOR repairs.
    pub lateral_error_correction: bool,
    /// Delivers samples to the application in publication order.
    pub ordered_delivery: bool,
    /// Rate-limits the sender.
    pub flow_control: bool,
    /// Maintains a group-membership view.
    pub group_membership: bool,
    /// Detects unresponsive members via heartbeats.
    pub fault_detection: bool,
    /// Runs over a path that drops nothing (same-host shared memory), so
    /// reliability holds without any recovery machinery.
    pub lossless_path: bool,
}

/// Engineering constants of the protocol implementations.
///
/// Defaults are calibrated so the simulated protocols reproduce the
/// *relative* behaviour measured in the paper (see DESIGN.md §3); every
/// value is overridable for ablation studies — either through the
/// consuming `with_*` builders (the repo-wide pre-bind construction
/// idiom, shared with `MuxConfig` and [`TransportConfig`]) or via struct
/// update syntax on [`Tuning::default()`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuning {
    /// Interval between sender session heartbeats (carrying the highest
    /// sequence sent) that bound NAKcast/ACKcast gap-detection delay.
    pub heartbeat_interval: SimDuration,
    /// Give-up bound on NAK retries per missing packet.
    pub nak_max_retries: u32,
    /// Ricochet flushes a partially filled repair window after this long,
    /// so low-rate flows still repair promptly.
    pub ricochet_flush: SimDuration,
    /// How many recent packets a Ricochet receiver retains for XOR
    /// reconstruction.
    pub ricochet_store: usize,
    /// How many unresolved repair packets a Ricochet receiver retains for
    /// iterative decoding.
    pub ricochet_pending_repairs: usize,
    /// ACKcast window size (samples per ACK round).
    pub ack_window: u32,
    /// ACKcast retransmission flow control: token-bucket burst size.
    pub ack_retx_burst: f64,
    /// ACKcast retransmission flow control: sustained tokens per second.
    pub ack_retx_rate_per_sec: f64,
    /// Interval between receiver membership heartbeats (Ricochet failure
    /// detection); heartbeats stop once the stream ends.
    pub membership_interval: SimDuration,
    /// A peer is suspected dead after missing this many heartbeat periods.
    pub membership_timeout_factor: u32,
    /// Reference CPU cost (pc3000) of the OS/UDP path per packet, each side.
    pub os_packet_cost_us: f64,
    /// Extra reference receive cost per data packet for NAKcast tracking.
    pub nak_tracking_cost_us: f64,
    /// Extra reference receive cost per data packet for Ricochet XOR-buffer
    /// maintenance (the LEC bookkeeping runs on every packet).
    pub fec_data_cost_us: f64,
    /// Reference cost to construct and send one repair packet.
    pub fec_repair_tx_cost_us: f64,
    /// Reference cost to process one received repair packet (XOR decode
    /// attempt against the packet store).
    pub fec_repair_rx_cost_us: f64,
    /// Every this many data packets, the LEC packet store performs
    /// maintenance (compaction / rebuild of the XOR window index), stalling
    /// the receive path once.
    pub fec_maintenance_every: u64,
    /// Reference cost of one LEC store-maintenance stall.
    pub fec_maintenance_cost_us: f64,
    /// Probability that a decodable repair actually reconstructs its
    /// missing packet. Models the XOR-window collisions and receive-buffer
    /// slot reuse of the real LEC implementation, which this simplified
    /// single-group decoder would otherwise not exhibit.
    pub repair_efficacy: f64,
    /// StreamCast: interval between connection-request (SYN) retries while
    /// a receiver waits for the sender's SYN-ACK.
    pub stream_syn_retry: SimDuration,
    /// StreamCast: floor on the adaptive retransmission timeout, so a few
    /// low-RTT samples cannot collapse the RTO into spurious retransmits.
    pub stream_rto_min: SimDuration,
    /// StreamCast: ceiling on the adaptive retransmission timeout under
    /// exponential backoff.
    pub stream_rto_max: SimDuration,
    /// StreamCast: duplicate cumulative ACKs of the same value that
    /// trigger a fast retransmit ahead of the RTO.
    pub stream_dupack_threshold: u32,
    /// ShmCast: reference per-packet cost of the shared-memory path, both
    /// sides. Replaces `os_packet_cost_us` — a same-host enqueue touches a
    /// ring buffer, not the OS network stack.
    pub shm_packet_cost_us: f64,
}

impl Tuning {
    /// Replaces the sender heartbeat interval (builder-style).
    pub fn with_heartbeat_interval(mut self, interval: SimDuration) -> Self {
        self.heartbeat_interval = interval;
        self
    }

    /// Replaces the NAK retry give-up bound (builder-style).
    pub fn with_nak_max_retries(mut self, retries: u32) -> Self {
        self.nak_max_retries = retries;
        self
    }

    /// Replaces the Ricochet partial-window flush delay (builder-style).
    pub fn with_ricochet_flush(mut self, flush: SimDuration) -> Self {
        self.ricochet_flush = flush;
        self
    }

    /// Replaces the ACKcast window size (builder-style).
    pub fn with_ack_window(mut self, window: u32) -> Self {
        self.ack_window = window;
        self
    }

    /// Replaces the receiver membership-heartbeat interval (builder-style).
    pub fn with_membership_interval(mut self, interval: SimDuration) -> Self {
        self.membership_interval = interval;
        self
    }

    /// Replaces the modelled repair efficacy (builder-style).
    pub fn with_repair_efficacy(mut self, efficacy: f64) -> Self {
        self.repair_efficacy = efficacy;
        self
    }

    /// Replaces the StreamCast SYN retry interval (builder-style).
    pub fn with_stream_syn_retry(mut self, interval: SimDuration) -> Self {
        self.stream_syn_retry = interval;
        self
    }

    /// Replaces the StreamCast RTO clamp range (builder-style).
    pub fn with_stream_rto_range(mut self, min: SimDuration, max: SimDuration) -> Self {
        self.stream_rto_min = min;
        self.stream_rto_max = max;
        self
    }

    /// Replaces the ShmCast per-packet reference cost (builder-style).
    pub fn with_shm_packet_cost_us(mut self, cost: f64) -> Self {
        self.shm_packet_cost_us = cost;
        self
    }
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            heartbeat_interval: SimDuration::from_millis(30),
            nak_max_retries: 20,
            ricochet_flush: SimDuration::from_millis(5),
            ricochet_store: 1024,
            ricochet_pending_repairs: 64,
            ack_window: 16,
            ack_retx_burst: 32.0,
            ack_retx_rate_per_sec: 2_000.0,
            membership_interval: SimDuration::from_millis(500),
            membership_timeout_factor: 3,
            os_packet_cost_us: 15.0,
            nak_tracking_cost_us: 4.0,
            fec_data_cost_us: 45.0,
            fec_repair_tx_cost_us: 60.0,
            fec_repair_rx_cost_us: 90.0,
            fec_maintenance_every: 128,
            fec_maintenance_cost_us: 12_000.0,
            repair_efficacy: 0.7,
            stream_syn_retry: SimDuration::from_millis(10),
            stream_rto_min: SimDuration::from_millis(5),
            stream_rto_max: SimDuration::from_secs(2),
            stream_dupack_threshold: 3,
            shm_packet_cost_us: 0.8,
        }
    }
}

/// A complete transport configuration: protocol choice plus tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// The protocol and its parameters.
    pub kind: ProtocolKind,
    /// Implementation tuning constants.
    pub tuning: Tuning,
}

impl TransportConfig {
    /// A configuration of `kind` with default tuning.
    pub fn new(kind: ProtocolKind) -> Self {
        TransportConfig {
            kind,
            tuning: Tuning::default(),
        }
    }

    /// Overrides the tuning constants.
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }
}

impl From<ProtocolKind> for TransportConfig {
    fn from(kind: ProtocolKind) -> Self {
        TransportConfig::new(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_candidates_match_section_4_2() {
        let c = ProtocolKind::paper_candidates();
        assert_eq!(c.len(), 6);
        assert_eq!(
            c[3],
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1)
            }
        );
        assert_eq!(c[4], ProtocolKind::Ricochet { r: 4, c: 3 });
        // All labels distinct.
        let mut labels: Vec<String> = c.iter().map(|k| k.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(ProtocolKind::Udp.label(), "udp");
        assert_eq!(
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1)
            }
            .label(),
            "nakcast-0.001s"
        );
        assert_eq!(
            ProtocolKind::Ricochet { r: 4, c: 3 }.to_string(),
            "Ricochet R4 C3"
        );
        assert_eq!(
            ProtocolKind::Ackcast {
                rto: SimDuration::from_millis(20)
            }
            .label(),
            "ackcast-0.020s"
        );
    }

    #[test]
    fn properties_compose_sensibly() {
        let nak = ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1),
        }
        .properties();
        assert!(nak.multicast && nak.nak_reliability && nak.ordered_delivery);
        assert!(!nak.lateral_error_correction);

        let ric = ProtocolKind::Ricochet { r: 4, c: 3 }.properties();
        assert!(ric.lateral_error_correction && !ric.ordered_delivery);

        let udp = ProtocolKind::Udp.properties();
        assert!(udp.multicast && !udp.packet_tracking);

        let ack = ProtocolKind::Ackcast {
            rto: SimDuration::from_millis(20),
        }
        .properties();
        assert!(ack.ack_reliability && ack.flow_control);
    }

    #[test]
    fn code_round_trips_every_kind() {
        let kinds = [
            ProtocolKind::Udp,
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(25),
            },
            ProtocolKind::Ricochet { r: 8, c: 3 },
            ProtocolKind::Ackcast {
                rto: SimDuration::from_millis(20),
            },
            ProtocolKind::Slingshot { c: 2 },
            ProtocolKind::StreamCast { window: 64 },
            ProtocolKind::ShmCast { queue: 256 },
        ];
        let mut codes: Vec<u64> = kinds.iter().map(|k| k.code()).collect();
        for kind in kinds {
            assert_eq!(ProtocolKind::from_code(kind.code()), Some(kind));
        }
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 7, "codes must be distinct");
        assert_eq!(ProtocolKind::from_code(99 << 56), None);
        // Family codes are pinned: discovery ads and golden traces carry
        // them, so they must never shift between releases.
        assert_eq!(
            ProtocolKind::StreamCast { window: 64 }.code(),
            (5 << 56) | 64
        );
        assert_eq!(ProtocolKind::ShmCast { queue: 256 }.code(), (6 << 56) | 256);
    }

    #[test]
    fn stream_and_shm_labels_and_properties() {
        assert_eq!(
            ProtocolKind::StreamCast { window: 64 }.label(),
            "streamcast-w64"
        );
        assert_eq!(ProtocolKind::ShmCast { queue: 256 }.label(), "shmcast-q256");
        assert_eq!(
            ProtocolKind::StreamCast { window: 8 }.to_string(),
            "StreamCast W8"
        );
        assert_eq!(
            ProtocolKind::ShmCast { queue: 16 }.to_string(),
            "ShmCast Q16"
        );

        let stream = ProtocolKind::StreamCast { window: 64 }.properties();
        assert!(stream.ack_reliability && stream.ordered_delivery && stream.flow_control);
        assert!(!stream.nak_reliability && !stream.lateral_error_correction);

        let shm = ProtocolKind::ShmCast { queue: 256 }.properties();
        assert!(shm.ordered_delivery && shm.flow_control);
        assert!(!shm.ack_reliability && !shm.nak_reliability);
    }

    #[test]
    fn config_construction() {
        let cfg: TransportConfig = ProtocolKind::Udp.into();
        assert_eq!(cfg.kind, ProtocolKind::Udp);
        assert_eq!(cfg.tuning, Tuning::default());
        let custom = TransportConfig::new(ProtocolKind::Udp).with_tuning(Tuning {
            heartbeat_interval: SimDuration::from_millis(5),
            ..Tuning::default()
        });
        assert_eq!(
            custom.tuning.heartbeat_interval,
            SimDuration::from_millis(5)
        );
    }
}
