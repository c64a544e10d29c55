//! StreamCast: a TCP-like reliable ordered stream for WAN and cross-AZ
//! paths.
//!
//! Receivers open a connection with a SYN/SYN-ACK handshake, then send a
//! cumulative acknowledgement for every data packet. The sender keeps at
//! most `window` unacknowledged packets in flight per receiver, estimates
//! the RTT with the Jacobson/Karels filter (honouring Karn's rule), and
//! recovers losses sender-side: three duplicate cumulative ACKs trigger a
//! fast retransmit, and an adaptive RTO with exponential backoff covers
//! everything else — including tail losses, which NAK-based protocols can
//! only catch through extra heartbeat traffic. Because every recovery
//! decision is the sender's, StreamCast keeps working when the *reverse*
//! path is lossy too: a lost cumulative ACK is subsumed by the next one.
//!
//! Delivery is ordered: receivers hold back out-of-order packets until the
//! gap fills, exactly like a TCP byte stream segmented into samples.

use std::collections::{BTreeMap, BTreeSet};

use adamant_metrics::DenseReceptionLog;
use adamant_proto::wire::{DataMsg, FinMsg, StreamAckMsg, StreamSynAckMsg, StreamSynMsg};
use adamant_proto::{
    Env, GroupId, Input, NodeId, ObsEvent, ProcessingCost, ProtocolCore, Span, TimePoint, WireMsg,
};

use adamant_proto::HistoryCache;

use crate::config::Tuning;
use crate::profile::{AppSpec, StackProfile};
use crate::receiver::{accept, DataReader};
use crate::tags::{
    CONTROL_BYTES, DATA_HEADER_BYTES, FRAMING_BYTES, TAG_DATA, TAG_FIN, TAG_RETRANSMIT,
    TAG_STREAM_ACK, TAG_STREAM_SYN,
};

/// Timer tag for the sender's retransmission timeout.
const TIMER_RTO: u64 = 40;
/// Timer tag for the receiver's SYN retry cycle.
const TIMER_SYN: u64 = 41;
/// Timer tag for the sender's next publication tick.
const TIMER_PUBLISH: u64 = 42;

/// Initial RTO before the first RTT sample (clamped into the tuned range).
const INITIAL_RTO: Span = Span::from_millis(100);

/// Per-receiver connection state on the sender.
#[derive(Debug, Clone, Copy)]
struct PeerState {
    /// Everything below this is acknowledged in order.
    cum_ack: u64,
    /// The receiver's advertised window in packets.
    window: u32,
    /// Consecutive duplicate cumulative ACKs at `cum_ack`.
    dup_acks: u32,
    /// Whether the peer stopped making progress for long enough that the
    /// sender abandoned retransmitting to it.
    abandoned: bool,
}

/// Sender side of StreamCast.
#[derive(Debug, Clone)]
pub struct StreamCastSender {
    app: AppSpec,
    profile: StackProfile,
    tuning: Tuning,
    group: GroupId,
    window: u32,
    next_seq: u64,
    history: HistoryCache,
    finished: bool,
    started: bool,
    stalled: bool,
    peers: BTreeMap<NodeId, PeerState>,
    /// Sequences ever retransmitted — excluded from RTT sampling (Karn).
    retx_seqs: BTreeSet<u64>,
    srtt: Option<Span>,
    rttvar: Span,
    rto_backoff: u32,
    /// Consecutive RTO fires without any cumulative-ACK progress.
    rto_retries: u32,
    /// High-water mark of the lowest cumulative ACK across peers. The
    /// RTO deadline restarts only when this lagging edge advances — a
    /// healthy peer's progress must not mask a stalled one.
    acked_floor: u64,
    last_progress: TimePoint,
    rto_armed: bool,
    stalls: u64,
    retransmissions_sent: u64,
    fast_retransmits: u64,
    rto_fires: u64,
    give_ups: u64,
}

impl StreamCastSender {
    /// Creates a sender publishing `app` into `group` with a send window
    /// of `window` packets.
    pub fn new(
        app: AppSpec,
        profile: StackProfile,
        tuning: Tuning,
        group: GroupId,
        window: u32,
    ) -> Self {
        StreamCastSender {
            app,
            profile,
            tuning,
            group,
            window: window.max(1),
            next_seq: 0,
            history: HistoryCache::unbounded(),
            finished: false,
            started: false,
            stalled: false,
            peers: BTreeMap::new(),
            retx_seqs: BTreeSet::new(),
            srtt: None,
            rttvar: Span::ZERO,
            rto_backoff: 0,
            rto_retries: 0,
            acked_floor: 0,
            last_progress: TimePoint::ZERO,
            rto_armed: false,
            stalls: 0,
            retransmissions_sent: 0,
            fast_retransmits: 0,
            rto_fires: 0,
            give_ups: 0,
        }
    }

    /// Pre-provisions `node` as a connected peer with receive window
    /// `window` (builder-style).
    ///
    /// ADAMANT deployments know their receiver set at configuration time
    /// (the service agreement fixes it), so membership can be installed
    /// up front instead of discovered through the SYN handshake. A
    /// pre-provisioned sender starts publishing at `Start` rather than
    /// on the first SYN; late SYNs from provisioned peers still get a
    /// SYN-ACK, so dynamically joining receivers mix freely with static
    /// ones.
    pub fn with_peer(mut self, node: NodeId, window: u32) -> Self {
        self.peers.insert(
            node,
            PeerState {
                cum_ack: 0,
                window,
                dup_acks: 0,
                abandoned: false,
            },
        );
        self.started = true;
        self
    }

    /// Samples published so far.
    pub fn published(&self) -> u64 {
        self.next_seq
    }

    /// Whether the final sample has been published.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Retransmissions sent (fast retransmit + RTO).
    pub fn retransmissions_sent(&self) -> u64 {
        self.retransmissions_sent
    }

    /// Retransmissions triggered by duplicate cumulative ACKs.
    pub fn fast_retransmits(&self) -> u64 {
        self.fast_retransmits
    }

    /// RTO expirations that actually retransmitted.
    pub fn rto_fires(&self) -> u64 {
        self.rto_fires
    }

    /// Publication ticks deferred because the send window was closed.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Peers abandoned after the RTO retry budget ran out.
    pub fn give_ups(&self) -> u64 {
        self.give_ups
    }

    /// The smoothed round-trip time estimate, once at least one clean
    /// sample has been taken.
    pub fn srtt(&self) -> Option<Span> {
        self.srtt
    }

    fn data_packet_bytes(&self) -> u32 {
        FRAMING_BYTES + DATA_HEADER_BYTES + self.profile.header_bytes + self.app.payload_bytes
    }

    fn data_cost(&self) -> ProcessingCost {
        let os = Span::from_micros_f64(self.tuning.os_packet_cost_us);
        ProcessingCost::new(os, os).plus(self.profile.per_packet)
    }

    fn control_cost(&self) -> ProcessingCost {
        let os = Span::from_micros_f64(self.tuning.os_packet_cost_us);
        ProcessingCost::symmetric(os)
    }

    /// The current retransmission timeout, with backoff applied.
    fn rto(&self) -> Span {
        let base = match self.srtt {
            Some(srtt) => Span::from_nanos(
                srtt.as_nanos()
                    .saturating_add(self.rttvar.as_nanos().saturating_mul(4)),
            ),
            None => INITIAL_RTO,
        };
        let clamped = base
            .max(self.tuning.stream_rto_min)
            .min(self.tuning.stream_rto_max);
        let scaled = clamped
            .as_nanos()
            .saturating_mul(1u64 << self.rto_backoff.min(16));
        Span::from_nanos(scaled).min(self.tuning.stream_rto_max)
    }

    fn sample_rtt(&mut self, rtt: Span) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = Span::from_nanos(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                // Jacobson/Karels in nanoseconds: RTTVAR = 3/4 RTTVAR +
                // 1/4 |SRTT - RTT|; SRTT = 7/8 SRTT + 1/8 RTT.
                let err = srtt.as_nanos().abs_diff(rtt.as_nanos());
                self.rttvar = Span::from_nanos(self.rttvar.as_nanos() * 3 / 4 + err / 4);
                self.srtt = Some(Span::from_nanos(
                    srtt.as_nanos() * 7 / 8 + rtt.as_nanos() / 8,
                ));
            }
        }
    }

    /// The lowest cumulative ACK across live peers, or `next_seq` when
    /// every peer (if any) is fully caught up.
    fn min_cum_ack(&self) -> u64 {
        self.peers
            .values()
            .filter(|p| !p.abandoned)
            .map(|p| p.cum_ack)
            .min()
            .unwrap_or(self.next_seq)
    }

    fn window_open(&self) -> bool {
        self.peers
            .values()
            .filter(|p| !p.abandoned)
            .all(|p| self.next_seq < p.cum_ack + u64::from(self.window.min(p.window.max(1))))
    }

    fn outstanding(&self) -> bool {
        self.min_cum_ack() < self.next_seq
    }

    fn arm_rto(&mut self, env: &mut Env<'_>) {
        if !self.rto_armed && self.outstanding() {
            env.set_timer(self.rto(), TIMER_RTO);
            self.rto_armed = true;
        }
    }

    fn publish_tick(&mut self, env: &mut Env<'_>) {
        if self.finished || !self.started {
            return;
        }
        if !self.window_open() {
            // Window closed: stall until a cumulative ACK reopens it. The
            // backlog drains ACK-clocked, one publication per advance.
            self.stalled = true;
            self.stalls += 1;
            return;
        }
        self.stalled = false;
        let seq = self.next_seq;
        let now = env.now();
        if !self.outstanding() {
            // Everything sent so far is acknowledged: this send restarts
            // the retransmission deadline, exactly like TCP restarting
            // its timer when data enters an empty pipe.
            self.last_progress = now;
        }
        self.history.push(seq, now);
        self.next_seq += 1;
        env.send(
            self.group,
            self.data_packet_bytes(),
            TAG_DATA,
            self.data_cost(),
            WireMsg::Data(DataMsg {
                seq,
                published_at: now,
                retransmission: false,
            }),
        );
        if self.next_seq < self.app.total_samples {
            env.set_timer(self.app.interval, TIMER_PUBLISH);
        } else {
            self.finished = true;
            env.send(
                self.group,
                FRAMING_BYTES + CONTROL_BYTES,
                TAG_FIN,
                self.control_cost(),
                WireMsg::Fin(FinMsg {
                    total: self.app.total_samples,
                }),
            );
        }
        self.arm_rto(env);
    }

    fn retransmit(&mut self, env: &mut Env<'_>, to: NodeId, seq: u64) {
        let Some(published_at) = self.history.get(seq) else {
            return;
        };
        self.retx_seqs.insert(seq);
        self.retransmissions_sent += 1;
        env.send(
            to,
            self.data_packet_bytes(),
            TAG_RETRANSMIT,
            self.data_cost(),
            WireMsg::Data(DataMsg {
                seq,
                published_at,
                retransmission: true,
            }),
        );
        env.emit(|node| ObsEvent::Retransmitted { node, seq });
    }

    fn on_syn(&mut self, env: &mut Env<'_>, src: NodeId, syn: StreamSynMsg) {
        self.peers.entry(src).or_insert(PeerState {
            cum_ack: 0,
            window: syn.window,
            dup_acks: 0,
            abandoned: false,
        });
        env.send(
            src,
            FRAMING_BYTES + CONTROL_BYTES,
            TAG_STREAM_SYN,
            self.control_cost(),
            WireMsg::StreamSynAck(StreamSynAckMsg {
                window: self.window,
            }),
        );
        if !self.started {
            // The stream starts flowing once the first receiver connects.
            self.started = true;
            self.last_progress = env.now();
            env.set_timer(Span::ZERO, TIMER_PUBLISH);
        }
    }

    fn on_ack(&mut self, env: &mut Env<'_>, src: NodeId, ack: StreamAckMsg) {
        let next_seq = self.next_seq;
        let Some(peer) = self.peers.get_mut(&src) else {
            return;
        };
        peer.abandoned = false;
        peer.window = ack.window;
        if ack.cum_ack > peer.cum_ack {
            peer.cum_ack = ack.cum_ack;
            peer.dup_acks = 0;
            // Karn's rule: only sequences never retransmitted produce RTT
            // samples; the newest acknowledged one is representative.
            let newest = ack.cum_ack - 1;
            if !self.retx_seqs.contains(&newest) {
                if let Some(sent_at) = self.history.get(newest) {
                    let rtt = env.now() - sent_at;
                    self.sample_rtt(rtt);
                }
            }
            let floor = self.min_cum_ack();
            if floor > self.acked_floor {
                // Only the lagging edge moving counts as progress for
                // the retransmission deadline; otherwise two healthy
                // receivers keep the RTO from ever covering a third.
                self.acked_floor = floor;
                self.rto_backoff = 0;
                self.rto_retries = 0;
                self.last_progress = env.now();
            }
            // In place: `split_off` would allocate a new root per ack.
            self.retx_seqs.retain(|&seq| seq >= floor);
            if self.stalled {
                self.publish_tick(env);
            }
        } else if ack.cum_ack == peer.cum_ack && ack.cum_ack < next_seq {
            peer.dup_acks += 1;
            if peer.dup_acks >= self.tuning.stream_dupack_threshold {
                peer.dup_acks = 0;
                let seq = ack.cum_ack;
                self.fast_retransmits += 1;
                self.retransmit(env, src, seq);
            }
        }
        self.arm_rto(env);
    }

    fn on_rto(&mut self, env: &mut Env<'_>) {
        self.rto_armed = false;
        if !self.outstanding() {
            return;
        }
        // The timer restarts whenever progress is made; only an expiry
        // that really is `rto` past the last progress retransmits.
        let deadline = self.last_progress + self.rto();
        if env.now() < deadline {
            env.set_timer(deadline - env.now(), TIMER_RTO);
            self.rto_armed = true;
            return;
        }
        if self.rto_retries >= self.tuning.nak_max_retries {
            // Retry budget exhausted: abandon the peers that stopped
            // progressing so the stream can finish for everyone else.
            let next_seq = self.next_seq;
            for peer in self.peers.values_mut() {
                if !peer.abandoned && peer.cum_ack < next_seq {
                    peer.abandoned = true;
                    self.give_ups += 1;
                }
            }
            if self.stalled {
                self.publish_tick(env);
            }
            self.arm_rto(env);
            return;
        }
        self.rto_fires += 1;
        self.rto_retries += 1;
        // Recover every lagging peer at its own cumulative ACK, not just
        // the ones pinned at the floor. A peer above the floor may still
        // have had its in-flight data lost — the model checker found the
        // schedule: one receiver's ACKs delayed (defining the floor), the
        // other missing a dropped segment above it; a floor-only resend
        // starves the second receiver for a full extra RTO.
        let next_seq = self.next_seq;
        let lagging: Vec<(NodeId, u64)> = self
            .peers
            .iter()
            .filter(|(_, p)| !p.abandoned && p.cum_ack < next_seq)
            .map(|(&node, p)| (node, p.cum_ack))
            .collect();
        for (node, seq) in lagging {
            self.retransmit(env, node, seq);
        }
        self.rto_backoff = (self.rto_backoff + 1).min(16);
        self.last_progress = env.now();
        self.arm_rto(env);
    }
}

impl ProtocolCore for StreamCastSender {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::PacketIn { src, msg } => match msg {
                WireMsg::StreamSyn(syn) => {
                    let syn = *syn;
                    self.on_syn(env, src, syn);
                }
                WireMsg::StreamAck(ack) => {
                    let ack = *ack;
                    self.on_ack(env, src, ack);
                }
                _ => {}
            },
            Input::TimerFired { tag, .. } => match tag {
                TIMER_PUBLISH => self.publish_tick(env),
                TIMER_RTO => self.on_rto(env),
                _ => {}
            },
            Input::Start => {
                // With a pre-provisioned membership the stream flows
                // immediately; a dynamic sender waits for the first SYN.
                if self.started {
                    self.last_progress = env.now();
                    env.set_timer(Span::ZERO, TIMER_PUBLISH);
                }
            }
            Input::Tick => {}
        }
    }
}

/// Receiver side of StreamCast.
#[derive(Debug, Clone)]
pub struct StreamCastReceiver {
    sender: NodeId,
    window: u32,
    tuning: Tuning,
    drop_probability: f64,
    log: DenseReceptionLog,
    dropped: u64,
    duplicates: u64,
    /// Everything below this has been delivered in order.
    cum_ack: u64,
    /// Out-of-order hold-back buffer: `seq -> (published_at, recovered)`.
    buffer: BTreeMap<u64, (TimePoint, bool)>,
    connected: bool,
    syns_sent: u64,
    acks_sent: u64,
    window_overflows: u64,
}

impl StreamCastReceiver {
    /// Creates a receiver expecting `expected` samples from `sender`,
    /// buffering at most `window` out-of-order packets.
    pub fn new(
        sender: NodeId,
        expected: u64,
        window: u32,
        tuning: Tuning,
        drop_probability: f64,
    ) -> Self {
        StreamCastReceiver {
            sender,
            window: window.max(1),
            tuning,
            drop_probability,
            log: DenseReceptionLog::with_capacity(expected),
            dropped: 0,
            duplicates: 0,
            cum_ack: 0,
            buffer: BTreeMap::new(),
            connected: false,
            syns_sent: 0,
            acks_sent: 0,
            window_overflows: 0,
        }
    }

    /// Marks the connection as already established (builder-style): the
    /// receiver side of a pre-provisioned membership (see
    /// [`StreamCastSender::with_peer`]). No SYN is sent and no retry
    /// timer runs; data is acknowledged as usual.
    pub fn with_connected(mut self) -> Self {
        self.connected = true;
        self
    }

    /// Whether the SYN/SYN-ACK handshake has completed.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Connection requests sent (>1 means the retry timer fired).
    pub fn syns_sent(&self) -> u64 {
        self.syns_sent
    }

    /// Cumulative acknowledgements sent.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    /// Duplicate data copies discarded.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Packets refused because they landed beyond the receive window.
    pub fn window_overflows(&self) -> u64 {
        self.window_overflows
    }

    fn control_cost(&self) -> ProcessingCost {
        let os = Span::from_micros_f64(self.tuning.os_packet_cost_us);
        ProcessingCost::symmetric(os)
    }

    fn send_syn(&mut self, env: &mut Env<'_>) {
        self.syns_sent += 1;
        env.send(
            self.sender,
            FRAMING_BYTES + CONTROL_BYTES,
            TAG_STREAM_SYN,
            self.control_cost(),
            WireMsg::StreamSyn(StreamSynMsg {
                window: self.window,
            }),
        );
        env.set_timer(self.tuning.stream_syn_retry, TIMER_SYN);
    }

    fn send_ack(&mut self, env: &mut Env<'_>) {
        self.acks_sent += 1;
        let remaining = self.window.saturating_sub(self.buffer.len() as u32).max(1);
        env.send(
            self.sender,
            FRAMING_BYTES + CONTROL_BYTES,
            TAG_STREAM_ACK,
            self.control_cost(),
            WireMsg::StreamAck(StreamAckMsg {
                cum_ack: self.cum_ack,
                window: remaining,
            }),
        );
    }

    fn on_data(&mut self, env: &mut Env<'_>, data: &DataMsg) {
        if env.rng().bernoulli(self.drop_probability) {
            self.dropped += 1;
            return;
        }
        if data.seq < self.cum_ack || self.buffer.contains_key(&data.seq) {
            self.duplicates += 1;
            let seq = data.seq;
            env.emit(|node| ObsEvent::SampleDuplicate { node, seq });
            self.send_ack(env);
            return;
        }
        if data.seq >= self.cum_ack + u64::from(self.window) {
            // Beyond the advertised window: a well-behaved sender never
            // lands here; refuse rather than buffer without bound.
            self.window_overflows += 1;
            self.send_ack(env);
            return;
        }
        self.buffer
            .insert(data.seq, (data.published_at, data.retransmission));
        // Ordered delivery: drain the contiguous prefix.
        while let Some((published_at, recovered)) = self.buffer.remove(&self.cum_ack) {
            accept(&mut self.log, env, self.cum_ack, published_at, recovered);
            self.cum_ack += 1;
        }
        self.send_ack(env);
    }
}

impl DataReader for StreamCastReceiver {
    fn log(&self) -> &DenseReceptionLog {
        &self.log
    }

    fn log_mut(&mut self) -> &mut DenseReceptionLog {
        &mut self.log
    }

    fn protocol_stats(&self) -> crate::ProtocolStats {
        crate::ProtocolStats {
            acks_sent: self.acks_sent,
            recovered: self.log.recovered_count(),
            duplicates: StreamCastReceiver::duplicates(self),
            dropped: self.dropped,
            window_overflows: self.window_overflows + self.log.overflow_count(),
            ..crate::ProtocolStats::default()
        }
    }
}

impl ProtocolCore for StreamCastReceiver {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => {
                if !self.connected {
                    self.send_syn(env);
                }
            }
            Input::PacketIn { msg, .. } => match msg {
                WireMsg::Data(data) => {
                    let data = *data;
                    self.on_data(env, &data);
                }
                WireMsg::StreamSynAck(_) => self.connected = true,
                _ => {}
            },
            Input::TimerFired { tag: TIMER_SYN, .. } => {
                if !self.connected {
                    self.send_syn(env);
                }
            }
            Input::TimerFired { .. } | Input::Tick => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_netsim::{
        Bandwidth, HostConfig, LossModel, MachineClass, NetworkConfig, SimDriver, SimDuration,
        Simulation,
    };

    fn build_session(
        samples: u64,
        window: u32,
        drop_probability: f64,
        seed: u64,
        network: Option<NetworkConfig>,
    ) -> (Simulation, NodeId, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        if let Some(network) = network {
            sim.set_network(network);
        }
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let app = AppSpec::at_rate(samples, 100.0, 12);
        let tuning = Tuning::default();
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg,
            SimDriver::new(StreamCastSender::new(
                app,
                StackProfile::new(10.0, 48),
                tuning,
                group,
                window,
            )),
        );
        sim.join_group(group, tx);
        let mut rxs = Vec::new();
        for _ in 0..3 {
            let rx = sim.add_node(
                cfg,
                SimDriver::new(StreamCastReceiver::new(
                    tx,
                    samples,
                    window,
                    tuning,
                    drop_probability,
                )),
            );
            sim.join_group(group, rx);
            rxs.push(rx);
        }
        (sim, tx, rxs)
    }

    fn run_session(
        samples: u64,
        window: u32,
        drop_probability: f64,
        seed: u64,
        network: Option<NetworkConfig>,
    ) -> (Simulation, NodeId, Vec<NodeId>) {
        let (mut sim, tx, rxs) = build_session(samples, window, drop_probability, seed, network);
        sim.run_until(adamant_netsim::SimTime::from_secs(samples / 100 + 10));
        (sim, tx, rxs)
    }

    #[test]
    fn lossless_run_delivers_everything_in_order_without_retransmissions() {
        let (sim, tx, rxs) = run_session(300, 64, 0.0, 3, None);
        for rx in rxs {
            let r = sim.agent::<StreamCastReceiver>(rx).unwrap();
            assert!(r.is_connected());
            assert_eq!(r.log().delivered_count(), 300);
            assert_eq!(r.duplicates(), 0);
        }
        let s = sim.agent::<StreamCastSender>(tx).unwrap();
        assert_eq!(s.retransmissions_sent(), 0);
        assert!(
            s.srtt().is_some(),
            "per-packet ACKs must feed the estimator"
        );
    }

    #[test]
    fn end_host_loss_recovers_fully_and_in_order() {
        let (sim, tx, rxs) = run_session(1_000, 64, 0.05, 7, None);
        for rx in rxs {
            let r = sim.agent::<StreamCastReceiver>(rx).unwrap();
            assert_eq!(
                r.log().delivered_count(),
                1_000,
                "dropped={} acks={}",
                r.dropped(),
                r.acks_sent()
            );
        }
        let s = sim.agent::<StreamCastSender>(tx).unwrap();
        assert!(s.retransmissions_sent() > 0);
        assert!(s.fast_retransmits() > 0, "dup-ACKs should trigger recovery");
        assert_eq!(s.give_ups(), 0);
    }

    #[test]
    fn network_level_loss_hits_control_traffic_too_and_still_recovers() {
        // Bernoulli loss inside the network drops ACKs and SYNs as well as
        // data — the WAN regime. Cumulative ACKs absorb lost ACKs and the
        // SYN retry timer absorbs lost handshakes.
        let network = NetworkConfig {
            propagation: SimDuration::from_millis(25),
            loss: LossModel::Bernoulli(0.05),
        };
        let (sim, tx, rxs) = run_session(500, 64, 0.0, 11, Some(network));
        let mut syns = 0;
        for rx in rxs {
            let r = sim.agent::<StreamCastReceiver>(rx).unwrap();
            assert_eq!(r.log().delivered_count(), 500, "acks={}", r.acks_sent());
            syns += r.syns_sent();
        }
        assert!(syns >= 3);
        let s = sim.agent::<StreamCastSender>(tx).unwrap();
        assert!(s.retransmissions_sent() > 0);
        assert!(
            s.srtt() >= Some(Span::from_millis(50)),
            "srtt sees the WAN RTT"
        );
    }

    #[test]
    fn closed_window_stalls_the_sender_until_acks_reopen_it() {
        // 25 ms one-way propagation and a 4-packet window against a
        // 100 Hz publisher: the pipe needs ~RTT×rate ≈ 5 packets, so the
        // window must close at least once — yet everything still arrives.
        let network = NetworkConfig {
            propagation: SimDuration::from_millis(25),
            loss: LossModel::NONE,
        };
        let (sim, tx, rxs) = run_session(200, 4, 0.0, 5, Some(network));
        let s = sim.agent::<StreamCastSender>(tx).unwrap();
        assert!(s.stalls() > 0, "window never closed");
        assert!(s.is_finished());
        for rx in rxs {
            let r = sim.agent::<StreamCastReceiver>(rx).unwrap();
            assert_eq!(r.log().delivered_count(), 200);
        }
    }

    #[test]
    fn same_schedule_replays_bit_identically() {
        let collect = || {
            let (sim, tx, rxs) = run_session(400, 64, 0.05, 13, None);
            let s = sim.agent::<StreamCastSender>(tx).unwrap();
            let mut summary = vec![
                s.retransmissions_sent(),
                s.fast_retransmits(),
                s.rto_fires(),
                s.stalls(),
            ];
            for rx in rxs {
                let r = sim.agent::<StreamCastReceiver>(rx).unwrap();
                summary.push(r.log().delivered_count());
                summary.push(r.acks_sent());
                summary.push(r.dropped());
            }
            summary
        };
        assert_eq!(collect(), collect());
    }
}
