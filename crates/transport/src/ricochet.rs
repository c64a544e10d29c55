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

use adamant_metrics::{Delivery, DenseReceptionLog};
use adamant_proto::wire::{DataMsg, MembershipMsg, RepairMsg};
use adamant_proto::{
    Env, GroupId, Input, NodeId, ObsEvent, ProcessingCost, ProtocolCore, Span, TimePoint,
    TimerToken, WireMsg,
};

use crate::config::Tuning;
use crate::profile::{AppSpec, StackProfile};
use crate::publisher::PublisherCore;
use crate::receiver::DataReader;
use crate::tags::{
    CONTROL_BYTES, FRAMING_BYTES, REPAIR_BASE_BYTES, REPAIR_PER_SEQ_BYTES, TAG_MEMBERSHIP,
    TAG_REPAIR,
};

/// Timer tag for the repair-window flush.
const TIMER_FLUSH: u64 = 20;
/// Timer tag for membership heartbeats.
const TIMER_MEMBERSHIP: u64 = 21;

/// Sender side of Ricochet: publish-only (recovery is lateral), with a FIN
/// so receivers flush their final repair windows.
#[derive(Debug)]
pub struct RicochetSender {
    core: PublisherCore,
}

impl RicochetSender {
    /// Creates a sender publishing `app` into `group`.
    pub fn new(app: AppSpec, profile: StackProfile, tuning: Tuning, group: GroupId) -> Self {
        let fec_rx = Span::from_micros_f64(tuning.fec_data_cost_us);
        RicochetSender {
            core: PublisherCore::new(app, profile, tuning, group, false, true)
                .with_extra_data_rx(fec_rx),
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
    drop_probability: f64,
    payload_bytes: u32,
    log: DenseReceptionLog,
    dropped: u64,
    duplicates: u64,
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
    repairs_sent: u64,
    repairs_received: u64,
    recovered_via_repair: u64,
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
            drop_probability,
            payload_bytes,
            log: DenseReceptionLog::with_capacity(expected),
            dropped: 0,
            duplicates: 0,
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
            repairs_sent: 0,
            repairs_received: 0,
            recovered_via_repair: 0,
        }
    }

    /// Repair packets sent (each counted once per targeted peer).
    pub fn repairs_sent(&self) -> u64 {
        self.repairs_sent
    }

    /// Repair packets received from peers.
    pub fn repairs_received(&self) -> u64 {
        self.repairs_received
    }

    /// Samples reconstructed from repairs.
    pub fn recovered_via_repair(&self) -> u64 {
        self.recovered_via_repair
    }

    /// Duplicate data copies discarded.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    fn control_cost(&self) -> ProcessingCost {
        ProcessingCost::symmetric(Span::from_micros_f64(self.tuning.os_packet_cost_us))
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
        while self.store.len() > self.tuning.ricochet_store {
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
            let os = Span::from_micros_f64(self.tuning.os_packet_cost_us);
            let construct = Span::from_micros_f64(self.tuning.fec_repair_tx_cost_us);
            let decode = Span::from_micros_f64(self.tuning.fec_repair_rx_cost_us);
            let copies = chosen.len() as u32;
            for (i, &peer_idx) in chosen.iter().enumerate() {
                // XOR construction happens once; the extra copies pay only
                // the OS send path.
                let tx = if i == 0 { os + construct } else { os };
                env.send(
                    peers[peer_idx],
                    size,
                    TAG_REPAIR,
                    ProcessingCost::new(tx, os + decode),
                    WireMsg::Repair(msg.clone()),
                );
                self.repairs_sent += 1;
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
        if self.log.window().contains(seq) {
            self.store.insert(seq, published_at);
            return;
        }
        let delivery = Delivery {
            seq,
            published_at,
            delivered_at: now,
            recovered,
        };
        if self.log.record(delivery).is_fresh() {
            env.deliver(seq, published_at, recovered);
            env.emit(|node| ObsEvent::SampleAccepted {
                node,
                seq,
                published_ns: published_at.as_nanos(),
                delivered_ns: now.as_nanos(),
                recovered,
            });
            if recovered {
                env.emit(|node| ObsEvent::RepairDecoded { node, seq });
            }
        }
        if recovered {
            self.recovered_via_repair += 1;
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
        if env.rng().bernoulli(self.drop_probability) {
            self.dropped += 1;
            return;
        }
        if self.log.window().contains(data.seq) {
            self.duplicates += 1;
            let seq = data.seq;
            env.emit(|node| ObsEvent::SampleDuplicate { node, seq });
            return;
        }
        self.data_packets += 1;
        // Periodic LEC packet-store maintenance stalls the receive path;
        // the stall scales with the machine's CPU factor and is visible to
        // the application as delayed delivery.
        let mut now = env.now();
        if self.tuning.fec_maintenance_every > 0
            && self
                .data_packets
                .is_multiple_of(self.tuning.fec_maintenance_every)
        {
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
            self.flush_timer = Some(env.set_timer(self.tuning.ricochet_flush, TIMER_FLUSH));
        }
    }

    fn on_repair(&mut self, env: &mut Env<'_>, repair: &RepairMsg) {
        self.repairs_received += 1;
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
    fn log(&self) -> &DenseReceptionLog {
        &self.log
    }

    fn log_mut(&mut self) -> &mut DenseReceptionLog {
        &mut self.log
    }

    fn protocol_stats(&self) -> crate::ProtocolStats {
        crate::ProtocolStats {
            repairs_sent: self.repairs_sent,
            repairs_received: self.repairs_received,
            recovered: self.recovered_via_repair,
            duplicates: RicochetReceiver::duplicates(self),
            dropped: self.dropped,
            window_overflows: self.log.overflow_count(),
            ..crate::ProtocolStats::default()
        }
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
                        self.control_cost(),
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
            SimDriver::new(RicochetSender::new(app, profile, tuning, group)),
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
            assert_eq!(r.recovered_via_repair(), 0);
            assert!(r.repairs_sent() > 0, "repairs flow even without loss");
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
            assert!(r.recovered_via_repair() > 0);
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
            a.repairs_sent()
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
            SimDriver::new(RicochetSender::new(
                app,
                StackProfile::new(10.0, 48),
                tuning,
                group,
            )),
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
            assert!(r.repairs_received() > 0);
        }
    }
}
