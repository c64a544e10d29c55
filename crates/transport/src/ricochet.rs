//! Ricochet: time-critical multicast with lateral error correction (LEC),
//! after Balakrishnan et al. (NSDI'07), parameterised by `R` and `C` as in
//! the ADAMANT paper.
//!
//! The sender multicasts data and never retransmits. Every receiver XORs
//! each window of `R` received packets into a *repair packet* and unicasts
//! it to `C` randomly chosen peer receivers. A receiver holding all but one
//! of a repair's covered packets reconstructs the missing one — low-latency,
//! receiver-to-receiver recovery with *probabilistic* delivery guarantees:
//! some losses are never repaired, so Ricochet trades a little reliability
//! for consistently low latency and jitter. Delivery is unordered and
//! immediate.
//!
//! A flush timer bounds repair latency at low data rates (a real LEC
//! implementation must flush partial XOR windows or slow flows would never
//! repair), and a periodic store-maintenance stall models the packet-store
//! compaction cost of the reference implementation, which grows on slower
//! machines.

use std::collections::{BTreeMap, VecDeque};

use adamant_proto::wire::{DataMsg, MembershipMsg, RepairMsg};
use adamant_proto::{
    Env, GroupId, Input, NodeId, ObsEvent, ProcessingCost, ProtocolCore, Span, TimePoint,
    TimerToken, WireMsg,
};

use crate::config::Tuning;
use crate::profile::{AppSpec, StackProfile, CONTROL_COST, OS_PACKET_COST};
use crate::publisher::{Path, PublisherCore, UDP_PATH};
use crate::receiver::{DataReader, Reception};
use crate::tags::{
    CONTROL_BYTES, FRAMING_BYTES, REPAIR_BASE_BYTES, REPAIR_PER_SEQ_BYTES, TAG_MEMBERSHIP,
    TAG_REPAIR,
};

/// Timer tag for the repair-window flush.
const TIMER_FLUSH: u64 = 20;
/// Timer tag for membership heartbeats.
const TIMER_MEMBERSHIP: u64 = 21;

/// Reference receive cost per data packet of the XOR-buffer maintenance
/// (the LEC bookkeeping runs on every packet).
const FEC_DATA_COST: Span = Span::from_micros(45);
/// Reference cost to construct and send one repair packet.
const FEC_REPAIR_TX_COST: Span = Span::from_micros(60);
/// Reference cost to process one received repair packet (an XOR decode
/// attempt against the packet store).
const FEC_REPAIR_RX_COST: Span = Span::from_micros(90);
/// Every this many data packets, the packet store performs maintenance
/// (compaction / rebuild of the XOR window index), stalling the receive
/// path once for [`Tuning::fec_maintenance_cost_us`].
const FEC_MAINTENANCE_EVERY: u64 = 128;
/// A partially filled repair window is flushed after this long, so
/// low-rate flows still repair promptly.
const FLUSH_AFTER: Span = Span::from_millis(5);
/// How many recent packets a receiver retains for XOR reconstruction.
const STORE_CAPACITY: usize = 1024;

/// The UDP path with the receive side of every data packet charged the
/// XOR-buffer maintenance.
const RICOCHET_PATH: Path = Path {
    data_cost: ProcessingCost::new(
        OS_PACKET_COST,
        Span::from_nanos(OS_PACKET_COST.as_nanos() + FEC_DATA_COST.as_nanos()),
    ),
    ..UDP_PATH
};

/// Sender side of Ricochet: publish-only (recovery is lateral), with a FIN
/// so receivers flush their final repair windows.
#[derive(Debug)]
pub struct RicochetSender {
    pub(crate) core: PublisherCore,
}

impl RicochetSender {
    /// Creates a sender publishing `app` into `group`.
    pub fn new(app: AppSpec, profile: StackProfile, group: GroupId) -> Self {
        RicochetSender {
            core: PublisherCore::new(app, profile, RICOCHET_PATH, group, None, true),
        }
    }

    /// Samples published so far.
    pub fn published(&self) -> u64 {
        self.core.published()
    }
}

impl ProtocolCore for RicochetSender {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => self.core.start(env),
            Input::TimerFired { tag, .. } => {
                self.core.handle_timer(env, tag);
            }
            Input::PacketIn { .. } | Input::Tick => {}
        }
    }
}

/// Receiver side of Ricochet: immediate delivery, XOR repair generation,
/// lateral recovery, and heartbeat-based peer failure detection.
#[derive(Debug)]
pub struct RicochetReceiver {
    sender: NodeId,
    group: GroupId,
    r: usize,
    c: usize,
    tuning: Tuning,
    payload_bytes: u32,
    reception: Reception,
    /// Received/recovered packets retained for XOR reconstruction.
    store: BTreeMap<u64, TimePoint>,
    /// The repair window currently being accumulated.
    window: Vec<(u64, TimePoint)>,
    flush_timer: Option<TimerToken>,
    /// Repairs that could not be decoded yet (≥ 2 unknowns).
    pending: VecDeque<RepairMsg>,
    /// Peer liveness from membership heartbeats, sorted by peer: a flush
    /// asks about every group member, and a binary search over a dozen
    /// peers is cheaper than hashing each one.
    last_seen: Vec<(NodeId, TimePoint)>,
    /// Scratch for [`flush_window`](Self::flush_window), kept so a flush
    /// allocates only the repair's shared entry list.
    peers: Vec<NodeId>,
    chosen: Vec<usize>,
    started_at: TimePoint,
    epoch: u64,
    stream_active: bool,
    data_packets: u64,
}

impl RicochetReceiver {
    /// Creates a receiver expecting `expected` samples of `payload_bytes`
    /// from `sender` in `group`, running LEC with parameters `r` and `c`,
    /// with end-host drop probability `drop_probability`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sender: NodeId,
        group: GroupId,
        expected: u64,
        payload_bytes: u32,
        r: u8,
        c: u8,
        tuning: Tuning,
        drop_probability: f64,
    ) -> Self {
        RicochetReceiver {
            sender,
            group,
            r: r.max(1) as usize,
            c: c.max(1) as usize,
            tuning,
            payload_bytes,
            reception: Reception::new(expected, drop_probability),
            store: BTreeMap::new(),
            window: Vec::new(),
            flush_timer: None,
            pending: VecDeque::new(),
            last_seen: Vec::new(),
            peers: Vec::new(),
            chosen: Vec::new(),
            started_at: TimePoint::ZERO,
            epoch: 0,
            stream_active: true,
            data_packets: 0,
        }
    }

    /// Whether `peer` is currently believed alive by the failure detector.
    fn peer_alive(&self, peer: NodeId, now: TimePoint) -> bool {
        let grace = self.tuning.membership_interval * self.tuning.membership_timeout_factor as u64;
        match self.last_seen.binary_search_by_key(&peer, |&(n, _)| n) {
            Ok(at) => now.saturating_since(self.last_seen[at].1) < grace,
            // Never heard from: alive during the initial grace period.
            Err(_) => now.saturating_since(self.started_at) < grace,
        }
    }

    fn prune_store(&mut self) {
        while self.store.len() > STORE_CAPACITY {
            let oldest = *self.store.keys().next().expect("store not empty");
            self.store.remove(&oldest);
        }
    }

    /// Sends the current window as a repair packet to `c` live peers.
    fn flush_window(&mut self, env: &mut Env<'_>) {
        if self.window.is_empty() {
            return;
        }
        let now = env.now();
        let me = env.node();
        let mut peers = std::mem::take(&mut self.peers);
        peers.clear();
        peers.extend(
            env.members(self.group)
                .iter()
                .copied()
                .filter(|&n| n != me && n != self.sender && self.peer_alive(n, now)),
        );
        if !peers.is_empty() {
            let mut chosen = std::mem::take(&mut self.chosen);
            env.rng()
                .sample_indices_into(peers.len(), self.c, &mut chosen);
            let msg = RepairMsg {
                entries: self.window.as_slice().into(),
            };
            let span = msg.entries.len() as u32;
            let size = FRAMING_BYTES
                + REPAIR_BASE_BYTES
                + REPAIR_PER_SEQ_BYTES * span
                + self.payload_bytes;
            let copies = chosen.len() as u32;
            for (i, &peer_idx) in chosen.iter().enumerate() {
                // XOR construction happens once; the extra copies pay only
                // the OS send path.
                let tx = if i == 0 {
                    OS_PACKET_COST + FEC_REPAIR_TX_COST
                } else {
                    OS_PACKET_COST
                };
                env.send(
                    peers[peer_idx],
                    size,
                    TAG_REPAIR,
                    ProcessingCost::new(tx, OS_PACKET_COST + FEC_REPAIR_RX_COST),
                    WireMsg::Repair(msg.clone()),
                );
                self.reception.stats.repairs_sent += 1;
            }
            env.emit(|node| ObsEvent::RepairSent { node, copies, span });
            self.chosen = chosen;
        }
        self.peers = peers;
        // The window is spent whether or not anyone was left to repair.
        self.window.clear();
    }

    /// Registers a newly available packet and re-runs pending repairs to a
    /// fixpoint (iterative decoding).
    fn learn(
        &mut self,
        env: &mut Env<'_>,
        now: TimePoint,
        seq: u64,
        published_at: TimePoint,
        recovered: bool,
    ) {
        if self.reception.log().window().contains(seq) {
            self.store.insert(seq, published_at);
            return;
        }
        let outcome = self
            .reception
            .accept(env, seq, published_at, now, recovered);
        if recovered && outcome.is_fresh() {
            env.emit(|node| ObsEvent::RepairDecoded { node, seq });
        }
        self.store.insert(seq, published_at);
        self.prune_store();
    }

    fn decode_pending(&mut self, env: &mut Env<'_>, now: TimePoint) {
        loop {
            let mut progress = false;
            // One pass over the queue in place: blocked repairs go round
            // to the back, so they keep their relative order.
            for _ in 0..self.pending.len() {
                let repair = self.pending.pop_front().expect("counted above");
                match self.try_decode(&repair) {
                    DecodeOutcome::Recovered(seq, published_at) => {
                        if env.rng().bernoulli(self.tuning.repair_efficacy) {
                            self.learn(env, now, seq, published_at, true);
                        }
                        // Decoded or collided: either way this repair is
                        // spent.
                        progress = true;
                    }
                    DecodeOutcome::Useless => progress = true,
                    DecodeOutcome::Blocked => self.pending.push_back(repair),
                }
            }
            if !progress || self.pending.is_empty() {
                break;
            }
        }
        while self.pending.len() > self.tuning.ricochet_pending_repairs {
            self.pending.pop_front();
        }
    }

    fn try_decode(&self, repair: &RepairMsg) -> DecodeOutcome {
        let mut unknown: Option<(u64, TimePoint)> = None;
        for &(seq, published_at) in repair.entries.iter() {
            if !self.store.contains_key(&seq) {
                if unknown.is_some() {
                    return DecodeOutcome::Blocked;
                }
                unknown = Some((seq, published_at));
            }
        }
        match unknown {
            Some((seq, published_at)) => DecodeOutcome::Recovered(seq, published_at),
            None => DecodeOutcome::Useless,
        }
    }

    fn on_data(&mut self, env: &mut Env<'_>, data: &DataMsg) {
        if self.reception.lost(env) {
            return;
        }
        if self.reception.log().window().contains(data.seq) {
            self.reception.duplicate(env, data.seq);
            return;
        }
        self.data_packets += 1;
        // Periodic LEC packet-store maintenance stalls the receive path;
        // the stall scales with the machine's CPU factor and is visible to
        // the application as delayed delivery.
        let mut now = env.now();
        if self.data_packets.is_multiple_of(FEC_MAINTENANCE_EVERY) {
            let stall =
                Span::from_micros_f64(self.tuning.fec_maintenance_cost_us).scale(env.cpu_scale());
            now += stall;
        }
        self.learn(env, now, data.seq, data.published_at, false);
        self.window.push((data.seq, data.published_at));
        self.decode_pending(env, now);
        if self.window.len() >= self.r {
            self.flush_window(env);
            if let Some(token) = self.flush_timer.take() {
                env.cancel_timer(token);
            }
        } else if self.flush_timer.is_none() {
            self.flush_timer = Some(env.set_timer(FLUSH_AFTER, TIMER_FLUSH));
        }
    }

    fn on_repair(&mut self, env: &mut Env<'_>, repair: &RepairMsg) {
        self.reception.stats.repairs_received += 1;
        let now = env.now();
        match self.try_decode(repair) {
            DecodeOutcome::Recovered(seq, published_at) => {
                // The XOR reconstruction succeeds with `repair_efficacy`
                // probability: real LEC windows collide with concurrent
                // losses and receive-buffer slot reuse, which the
                // simplified single-group decoder does not otherwise see.
                if env.rng().bernoulli(self.tuning.repair_efficacy) {
                    self.learn(env, now, seq, published_at, true);
                    self.decode_pending(env, now);
                }
            }
            DecodeOutcome::Useless => {}
            DecodeOutcome::Blocked => {
                self.pending.push_back(repair.clone());
                while self.pending.len() > self.tuning.ricochet_pending_repairs {
                    self.pending.pop_front();
                }
            }
        }
    }
}

enum DecodeOutcome {
    /// Exactly one covered packet is unknown: it can be reconstructed.
    Recovered(u64, TimePoint),
    /// Everything covered is already held.
    Useless,
    /// Two or more unknowns: keep for iterative decoding.
    Blocked,
}

impl DataReader for RicochetReceiver {
    fn reception(&self) -> &Reception {
        &self.reception
    }

    fn reception_mut(&mut self) -> &mut Reception {
        &mut self.reception
    }
}

impl ProtocolCore for RicochetReceiver {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => {
                self.started_at = env.now();
                // Random phase: membership heartbeats from different
                // receivers must not collide in lockstep bursts.
                let interval = self.tuning.membership_interval.as_nanos();
                let phase = Span::from_nanos(env.rng().next_below(interval.max(1)));
                env.set_timer(phase, TIMER_MEMBERSHIP);
            }
            Input::PacketIn { src, msg } => match msg {
                WireMsg::Data(data) => {
                    let data = *data;
                    self.on_data(env, &data);
                }
                WireMsg::Repair(repair) => self.on_repair(env, repair),
                WireMsg::Fin(_) => {
                    self.stream_active = false;
                    self.flush_window(env);
                    if let Some(token) = self.flush_timer.take() {
                        env.cancel_timer(token);
                    }
                }
                WireMsg::Membership(_) => {
                    let seen = (src, env.now());
                    match self.last_seen.binary_search_by_key(&src, |&(n, _)| n) {
                        Ok(at) => self.last_seen[at] = seen,
                        Err(at) => self.last_seen.insert(at, seen),
                    }
                }
                _ => {}
            },
            Input::TimerFired { tag, .. } => match tag {
                TIMER_FLUSH => {
                    self.flush_timer = None;
                    self.flush_window(env);
                }
                TIMER_MEMBERSHIP if self.stream_active => {
                    self.epoch += 1;
                    env.send(
                        self.group,
                        FRAMING_BYTES + CONTROL_BYTES,
                        TAG_MEMBERSHIP,
                        CONTROL_COST,
                        WireMsg::Membership(MembershipMsg { epoch: self.epoch }),
                    );
                    env.set_timer(self.tuning.membership_interval, TIMER_MEMBERSHIP);
                }
                _ => {}
            },
            Input::Tick => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::capturing;
    use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDriver, Simulation};

    fn cfg() -> HostConfig {
        HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1)
    }

    fn run_session(
        samples: u64,
        rate_hz: f64,
        receivers: usize,
        drop_probability: f64,
        r: u8,
        c: u8,
        seed: u64,
    ) -> (Simulation, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let app = AppSpec::at_rate(samples, rate_hz, 12);
        let profile = StackProfile::new(10.0, 48);
        let tuning = Tuning::default();
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg(),
            SimDriver::new(RicochetSender::new(app, profile, group)),
        );
        sim.join_group(group, tx);
        let mut rx_nodes = Vec::new();
        for _ in 0..receivers {
            let rx = sim.add_node(
                cfg(),
                SimDriver::new(capturing(RicochetReceiver::new(
                    tx,
                    group,
                    samples,
                    12,
                    r,
                    c,
                    tuning,
                    drop_probability,
                ))),
            );
            sim.join_group(group, rx);
            rx_nodes.push(rx);
        }
        sim.run_until(adamant_netsim::SimTime::from_secs(
            (samples as f64 / rate_hz) as u64 + 5,
        ));
        (sim, rx_nodes)
    }

    #[test]
    fn lossless_run_delivers_everything_without_recovery() {
        let (sim, rxs) = run_session(300, 100.0, 3, 0.0, 4, 3, 7);
        for rx in rxs {
            let r = sim.agent::<RicochetReceiver>(rx).unwrap();
            assert_eq!(r.log().delivered_count(), 300);
            assert_eq!(r.protocol_stats().recovered, 0);
            assert!(
                r.protocol_stats().repairs_sent > 0,
                "repairs flow even without loss"
            );
        }
    }

    #[test]
    fn lossy_run_recovers_most_losses_laterally() {
        let (sim, rxs) = run_session(2_000, 100.0, 3, 0.05, 4, 3, 13);
        for rx in rxs {
            let r = sim.agent::<RicochetReceiver>(rx).unwrap();
            let reliability = r.log().delivered_count() as f64 / 2_000.0;
            assert!(
                reliability > 0.985,
                "LEC should repair most of the 5% loss, got {reliability}"
            );
            assert!(
                reliability < 1.0,
                "Ricochet gives probabilistic, not perfect, delivery"
            );
            assert!(r.protocol_stats().recovered > 0);
        }
    }

    #[test]
    fn unordered_immediate_delivery() {
        // At 1 kHz the inter-arrival (1 ms) is shorter than the repair
        // flush, so recovered packets land after their successors.
        let (sim, rxs) = run_session(2_000, 1_000.0, 3, 0.05, 4, 3, 17);
        let r = sim.agent::<RicochetReceiver>(rxs[0]).unwrap();
        // Losses are recovered later than their successors arrive, so
        // delivery order is not fully sorted.
        let seqs: Vec<u64> = r
            .log()
            .deliveries()
            .expect("captured")
            .map(|d| d.seq)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_ne!(seqs, sorted, "recovered packets arrive out of order");
    }

    #[test]
    fn recovery_is_fast_relative_to_nak_style() {
        let (sim, rxs) = run_session(2_000, 100.0, 3, 0.05, 4, 3, 23);
        let r = sim.agent::<RicochetReceiver>(rxs[0]).unwrap();
        let recovered: Vec<f64> = r
            .log()
            .deliveries()
            .expect("captured")
            .filter(|d| d.recovered)
            .map(|d| d.latency().as_micros_f64())
            .collect();
        assert!(!recovered.is_empty());
        let avg = recovered.iter().sum::<f64>() / recovered.len() as f64;
        // Bounded by roughly flush (5 ms) + a window of packets + transit.
        assert!(
            avg < 60_000.0,
            "lateral recovery should be millisecond-scale, got {avg} µs"
        );
    }

    #[test]
    fn larger_r_sends_fewer_repairs_at_high_rate() {
        let repairs = |r: u8| {
            let (sim, rxs) = run_session(2_000, 1_000.0, 3, 0.0, r, 3, 29);
            let a = sim.agent::<RicochetReceiver>(rxs[0]).unwrap();
            a.protocol_stats().repairs_sent
        };
        let r4 = repairs(4);
        let r8 = repairs(8);
        assert!(
            r8 < r4,
            "R=8 windows flush half as often as R=4: {r8} vs {r4}"
        );
    }

    #[test]
    fn flush_timer_repairs_low_rate_flows() {
        // At 10 Hz the 5 ms flush fires long before a 4-packet window fills,
        // so losses are still repaired promptly.
        let (sim, rxs) = run_session(200, 10.0, 3, 0.08, 4, 3, 31);
        for rx in rxs {
            let r = sim.agent::<RicochetReceiver>(rx).unwrap();
            let reliability = r.log().delivered_count() as f64 / 200.0;
            assert!(reliability > 0.97, "got {reliability}");
        }
    }

    #[test]
    fn crashed_peer_is_excluded_from_repair_targets() {
        let mut sim = Simulation::new(41);
        let app = AppSpec::at_rate(3_000, 100.0, 12);
        let tuning = Tuning::default();
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg(),
            SimDriver::new(RicochetSender::new(app, StackProfile::new(10.0, 48), group)),
        );
        sim.join_group(group, tx);
        let mut rxs = Vec::new();
        for _ in 0..4 {
            let rx = sim.add_node(
                cfg(),
                SimDriver::new(capturing(RicochetReceiver::new(
                    tx, group, 3_000, 12, 4, 2, tuning, 0.05,
                ))),
            );
            sim.join_group(group, rx);
            rxs.push(rx);
        }
        // Let the run start, then crash one receiver.
        sim.run_until(adamant_netsim::SimTime::from_secs(5));
        sim.crash_node(rxs[3]);
        sim.run_until(adamant_netsim::SimTime::from_secs(40));
        // Survivors keep repairing one another.
        for &rx in &rxs[..3] {
            let r = sim.agent::<RicochetReceiver>(rx).unwrap();
            let reliability = r.log().delivered_count() as f64 / 3_000.0;
            assert!(reliability > 0.98, "got {reliability}");
            // Failure detection kicked in: the dead peer stopped being
            // chosen once its heartbeats aged out.
            assert!(r.protocol_stats().repairs_received > 0);
        }
    }
}
