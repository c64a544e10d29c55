//! Slingshot: time-critical multicast with proactive unicast replication,
//! after Balakrishnan, Pleisch, and Birman (NCA 2005) — the predecessor of
//! Ricochet that the paper cites for its end-host loss observation.
//!
//! Where Ricochet XORs `R` packets into one repair, Slingshot receivers
//! simply forward a *copy* of each received packet to `c` randomly chosen
//! peers. Recovery latency is even lower (no window to fill, no decode
//! dependency), paid for with `c×` repair bandwidth and no coding gain —
//! the trade Ricochet's LEC was invented to improve. Included as an ANT
//! baseline; it is not one of the paper's six ANN candidates.
//!
//! Forwarded copies travel as [`WireMsg::Forwarded`], which keeps them
//! distinguishable from originals for statistics; the wire contents are
//! identical to a data packet.

use adamant_proto::wire::DataMsg;
use adamant_proto::{
    Env, GroupId, Input, NodeId, ObsEvent, ProcessingCost, ProtocolCore, Span, WireMsg,
};

use crate::config::Tuning;
use crate::profile::{AppSpec, StackProfile};
use crate::publisher::PublisherCore;
use crate::receiver::{DataReader, Reception};
use crate::tags::{DATA_HEADER_BYTES, FRAMING_BYTES, TAG_REPAIR};

/// Sender side of Slingshot: publish-only, like Ricochet's sender.
#[derive(Debug)]
pub struct SlingshotSender {
    core: PublisherCore,
}

impl SlingshotSender {
    /// Creates a sender publishing `app` into `group`.
    pub fn new(app: AppSpec, profile: StackProfile, tuning: Tuning, group: GroupId) -> Self {
        SlingshotSender {
            core: PublisherCore::new(app, profile, tuning, group, false, true),
        }
    }

    /// Samples published so far.
    pub fn published(&self) -> u64 {
        self.core.published()
    }
}

impl ProtocolCore for SlingshotSender {
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

/// Receiver side of Slingshot: deliver immediately, forward a copy of each
/// received packet to `c` random peers.
#[derive(Debug)]
pub struct SlingshotReceiver {
    sender: NodeId,
    group: GroupId,
    c: usize,
    tuning: Tuning,
    payload_bytes: u32,
    reception: Reception,
}

impl SlingshotReceiver {
    /// Creates a receiver expecting `expected` samples of `payload_bytes`
    /// from `sender` in `group`, forwarding each packet to `c` peers.
    pub fn new(
        sender: NodeId,
        group: GroupId,
        expected: u64,
        payload_bytes: u32,
        c: u8,
        tuning: Tuning,
        drop_probability: f64,
    ) -> Self {
        SlingshotReceiver {
            sender,
            group,
            c: c.max(1) as usize,
            tuning,
            payload_bytes,
            reception: Reception::new(expected, drop_probability),
        }
    }

    fn forward(&mut self, env: &mut Env<'_>, data: DataMsg) {
        let me = env.node();
        let peers: Vec<NodeId> = env
            .members(self.group)
            .iter()
            .copied()
            .filter(|&n| n != me && n != self.sender)
            .collect();
        if peers.is_empty() {
            return;
        }
        let chosen = env.rng().sample_indices(peers.len(), self.c);
        let size = FRAMING_BYTES + DATA_HEADER_BYTES + self.payload_bytes;
        let os = Span::from_micros_f64(self.tuning.os_packet_cost_us);
        let copies = chosen.len() as u32;
        for &peer_idx in &chosen {
            env.send(
                peers[peer_idx],
                size,
                TAG_REPAIR,
                ProcessingCost::symmetric(os),
                WireMsg::Forwarded(data),
            );
            self.reception.stats.repairs_sent += 1;
        }
        let span = 1;
        env.emit(|node| ObsEvent::RepairSent { node, copies, span });
    }

    fn learn(&mut self, env: &mut Env<'_>, data: DataMsg, via_copy: bool) {
        if self.reception.log().window().contains(data.seq) {
            self.reception.duplicate(env, data.seq);
            return;
        }
        let now = env.now();
        self.reception
            .accept(env, data.seq, data.published_at, now, via_copy);
    }
}

impl DataReader for SlingshotReceiver {
    fn reception(&self) -> &Reception {
        &self.reception
    }

    fn reception_mut(&mut self) -> &mut Reception {
        &mut self.reception
    }
}

impl ProtocolCore for SlingshotReceiver {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::PacketIn {
                msg: WireMsg::Data(data),
                ..
            } => {
                let data = *data;
                if self.reception.lost(env) {
                    return;
                }
                self.learn(env, data, false);
                self.forward(env, data);
            }
            Input::PacketIn {
                msg: WireMsg::Forwarded(copy),
                ..
            } => {
                let data = *copy;
                self.reception.stats.repairs_received += 1;
                self.learn(env, data, true);
            }
            Input::Start | Input::PacketIn { .. } | Input::TimerFired { .. } | Input::Tick => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::capturing;
    use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDriver, SimTime, Simulation};

    fn run_session(
        samples: u64,
        receivers: usize,
        drop: f64,
        c: u8,
        seed: u64,
    ) -> (Simulation, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let app = AppSpec::at_rate(samples, 200.0, 12);
        let tuning = Tuning::default();
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg,
            SimDriver::new(SlingshotSender::new(
                app,
                StackProfile::new(10.0, 48),
                tuning,
                group,
            )),
        );
        sim.join_group(group, tx);
        let mut rxs = Vec::new();
        for _ in 0..receivers {
            let rx = sim.add_node(
                cfg,
                SimDriver::new(capturing(SlingshotReceiver::new(
                    tx, group, samples, 12, c, tuning, drop,
                ))),
            );
            sim.join_group(group, rx);
            rxs.push(rx);
        }
        sim.run_until(SimTime::from_secs(samples / 200 + 5));
        (sim, rxs)
    }

    #[test]
    fn lossless_run_forwards_but_recovers_nothing() {
        let (sim, rxs) = run_session(300, 3, 0.0, 2, 3);
        for rx in rxs {
            let r = sim.agent::<SlingshotReceiver>(rx).unwrap();
            assert_eq!(r.log().delivered_count(), 300);
            assert_eq!(r.protocol_stats().recovered, 0);
            assert!(r.protocol_stats().repairs_sent > 0);
            assert!(r.duplicates() > 0, "copies of already-held packets");
        }
    }

    #[test]
    fn lossy_run_recovers_via_copies_quickly() {
        let (sim, rxs) = run_session(1_000, 4, 0.05, 2, 7);
        for rx in rxs {
            let r = sim.agent::<SlingshotReceiver>(rx).unwrap();
            let reliability = r.log().delivered_count() as f64 / 1_000.0;
            assert!(reliability > 0.985, "reliability {reliability}");
            assert!(r.protocol_stats().recovered > 0);
            // Recovery is one forward hop: microseconds, not milliseconds.
            let rec: Vec<f64> = r
                .log()
                .deliveries()
                .expect("captured")
                .filter(|d| d.recovered)
                .map(|d| d.latency().as_micros_f64())
                .collect();
            let avg = rec.iter().sum::<f64>() / rec.len() as f64;
            assert!(avg < 2_000.0, "copy recovery too slow: {avg} µs");
        }
    }

    #[test]
    fn bandwidth_cost_scales_with_c() {
        let copies = |c: u8| {
            let (sim, rxs) = run_session(500, 4, 0.0, c, 11);
            let r = sim.agent::<SlingshotReceiver>(rxs[0]).unwrap();
            r.protocol_stats().repairs_sent
        };
        let one = copies(1);
        let three = copies(3);
        assert!(
            (2.8..=3.2).contains(&(three as f64 / one as f64)),
            "c=3 should forward ~3× c=1: {three} vs {one}"
        );
    }

    #[test]
    fn faster_than_ricochet_recovery_but_heavier_on_the_wire() {
        use crate::ricochet::{RicochetReceiver, RicochetSender};
        // Same workload over both protocols; compare recovered-packet
        // latency and repair bytes.
        let samples = 2_000u64;
        let drop = 0.05;

        let (sling_sim, sling_rxs) = run_session(samples, 4, drop, 3, 13);
        let sling = sling_sim.agent::<SlingshotReceiver>(sling_rxs[0]).unwrap();
        let sling_rec_avg = {
            let rec: Vec<f64> = sling
                .log()
                .deliveries()
                .expect("captured")
                .filter(|d| d.recovered)
                .map(|d| d.latency().as_micros_f64())
                .collect();
            rec.iter().sum::<f64>() / rec.len() as f64
        };
        let sling_repair_bytes = sling_sim.stats().tag(TAG_REPAIR).bytes_sent;

        let mut ric_sim = Simulation::new(13);
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let app = AppSpec::at_rate(samples, 200.0, 12);
        let tuning = Tuning::default();
        let group = ric_sim.create_group(&[]);
        let tx = ric_sim.add_node(
            cfg,
            SimDriver::new(RicochetSender::new(
                app,
                StackProfile::new(10.0, 48),
                tuning,
                group,
            )),
        );
        ric_sim.join_group(group, tx);
        let mut ric_rx = None;
        for _ in 0..4 {
            let rx = ric_sim.add_node(
                cfg,
                SimDriver::new(capturing(RicochetReceiver::new(
                    tx, group, samples, 12, 4, 3, tuning, drop,
                ))),
            );
            ric_sim.join_group(group, rx);
            ric_rx.get_or_insert(rx);
        }
        ric_sim.run_until(SimTime::from_secs(samples / 200 + 5));
        let ric = ric_sim.agent::<RicochetReceiver>(ric_rx.unwrap()).unwrap();
        let ric_rec_avg = {
            let rec: Vec<f64> = ric
                .log()
                .deliveries()
                .expect("captured")
                .filter(|d| d.recovered)
                .map(|d| d.latency().as_micros_f64())
                .collect();
            rec.iter().sum::<f64>() / rec.len() as f64
        };

        assert!(
            sling_rec_avg < ric_rec_avg,
            "Slingshot's one-hop copies ({sling_rec_avg} µs) should beat \
             Ricochet's windowed repairs ({ric_rec_avg} µs)"
        );
        // And the price: every packet forwarded c times, far more repair
        // traffic than one XOR per window.
        assert!(sling_repair_bytes > 0);
    }
}
