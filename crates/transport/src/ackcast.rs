//! ACKcast: a window-based ACK-reliable multicast baseline.
//!
//! Receivers positively acknowledge in windows, attaching an explicit list
//! of missing sequences; the sender retransmits anything reported missing.
//! An `rto` timer re-sends the acknowledgement while gaps remain. Delivery
//! is unordered and immediate. ACKcast demonstrates the ANT framework's
//! ACK-reliability and flow-control properties; it is not one of the
//! paper's measured protocols.

use std::collections::BTreeMap;

use adamant_metrics::DenseReceptionLog;
use adamant_proto::wire::{AckMsg, DataMsg};
use adamant_proto::{
    beyond, Env, GroupId, Input, Insert, NodeId, ObsEvent, ProcessingCost, ProtocolCore, Refusals,
    Span, WireMsg,
};

use crate::config::Tuning;
use crate::flow::TokenBucket;
use crate::profile::{AppSpec, StackProfile};
use crate::publisher::PublisherCore;
use crate::receiver::{accept, DataReader};
use crate::tags::{FRAMING_BYTES, NAK_BASE_BYTES, NAK_PER_SEQ_BYTES, TAG_ACK};

/// Timer tag for the receiver's ACK/retry cycle.
const TIMER_ACK: u64 = 30;

/// Sender side of ACKcast.
#[derive(Debug)]
pub struct AckcastSender {
    core: PublisherCore,
    retx_bucket: TokenBucket,
    retransmissions_sent: u64,
    retransmissions_deferred: u64,
}

impl AckcastSender {
    /// Creates a sender publishing `app` into `group`.
    pub fn new(app: AppSpec, profile: StackProfile, tuning: Tuning, group: GroupId) -> Self {
        AckcastSender {
            core: PublisherCore::new(app, profile, tuning, group, true, true),
            retx_bucket: TokenBucket::new(tuning.ack_retx_burst, tuning.ack_retx_rate_per_sec),
            retransmissions_sent: 0,
            retransmissions_deferred: 0,
        }
    }

    /// Samples published so far.
    pub fn published(&self) -> u64 {
        self.core.published()
    }

    /// Unicast retransmissions sent in response to ACK gap reports.
    pub fn retransmissions_sent(&self) -> u64 {
        self.retransmissions_sent
    }

    /// Gap reports deferred by flow control (the receiver's RTO cycle will
    /// re-request them).
    pub fn retransmissions_deferred(&self) -> u64 {
        self.retransmissions_deferred
    }
}

impl ProtocolCore for AckcastSender {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => self.core.start(env),
            Input::TimerFired { tag, .. } => {
                self.core.handle_timer(env, tag);
            }
            Input::PacketIn {
                src,
                msg: WireMsg::Ack(ack),
            } => {
                for &seq in &ack.missing {
                    // Flow control: a long missing list must not turn into a
                    // retransmission storm; deferred gaps come back on the
                    // receiver's next RTO cycle.
                    if !self.retx_bucket.admit(env.now()) {
                        self.retransmissions_deferred += 1;
                        continue;
                    }
                    if self.core.retransmit(env, src, seq) {
                        self.retransmissions_sent += 1;
                        env.emit(|node| ObsEvent::Retransmitted { node, seq });
                    }
                }
            }
            Input::PacketIn { .. } | Input::Tick => {}
        }
    }
}

/// Receiver side of ACKcast.
#[derive(Debug)]
pub struct AckcastReceiver {
    sender: NodeId,
    rto: Span,
    tuning: Tuning,
    drop_probability: f64,
    log: DenseReceptionLog,
    dropped: u64,
    duplicates: u64,
    /// Missing sequences with their retry counts.
    missing: BTreeMap<u64, u32>,
    highest_advertised: Option<u64>,
    /// Frames in a row whose sequence was [`beyond`] the high-water mark.
    refusals: Refusals,
    since_last_ack: u32,
    ack_timer_armed: bool,
    acks_sent: u64,
    give_ups: u64,
    window_overflows: u64,
}

impl AckcastReceiver {
    /// Creates a receiver expecting `expected` samples from `sender`,
    /// re-ACKing unfilled gaps every `rto`.
    pub fn new(
        sender: NodeId,
        expected: u64,
        rto: Span,
        tuning: Tuning,
        drop_probability: f64,
    ) -> Self {
        AckcastReceiver {
            sender,
            rto,
            tuning,
            drop_probability,
            log: DenseReceptionLog::with_capacity(expected),
            dropped: 0,
            duplicates: 0,
            missing: BTreeMap::new(),
            highest_advertised: None,
            refusals: Refusals::default(),
            since_last_ack: 0,
            ack_timer_armed: false,
            acks_sent: 0,
            give_ups: 0,
            window_overflows: 0,
        }
    }

    /// Acknowledgement packets sent.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    /// Sequences abandoned after exhausting retries.
    pub fn give_ups(&self) -> u64 {
        self.give_ups
    }

    /// Duplicate data copies discarded.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Marks every sequence `<= upto` not yet heard of missing and advances
    /// the advertised high-water mark, unless `upto` is [`beyond`] it: that
    /// is refused, counted and answered `false`, but a run of [`Refusals`]
    /// first gives up every missing sequence and resumes at the lowest.
    fn note_advertised_upto(&mut self, env: &mut Env<'_>, upto: u64) -> bool {
        if !beyond(self.highest_advertised, upto) {
            self.refusals.clear();
        } else if let Some(low) = self.refusals.refuse(upto) {
            for seq in std::mem::take(&mut self.missing).into_keys() {
                self.give_ups += 1;
                env.emit(|node| ObsEvent::NakGiveUp { node, seq });
            }
            self.highest_advertised = low.checked_sub(1);
        } else {
            self.window_overflows += 1;
            return false;
        }
        let start = match self.highest_advertised {
            Some(h) if h >= upto => return true,
            Some(h) => h + 1,
            None => 0,
        };
        self.missing.extend((start..=upto).map(|seq| (seq, 0)));
        self.highest_advertised = Some(upto);
        true
    }

    fn send_ack(&mut self, env: &mut Env<'_>) {
        let mut exhausted = Vec::new();
        let mut report = Vec::new();
        for (&seq, retries) in self.missing.iter_mut() {
            if *retries >= self.tuning.nak_max_retries {
                exhausted.push(seq);
            } else {
                *retries += 1;
                report.push(seq);
            }
        }
        for seq in exhausted {
            self.missing.remove(&seq);
            self.give_ups += 1;
            env.emit(|node| ObsEvent::NakGiveUp { node, seq });
        }
        let below = self.highest_advertised.map_or(0, |h| h.saturating_add(1));
        let count = report.len() as u32;
        let size = FRAMING_BYTES + NAK_BASE_BYTES + NAK_PER_SEQ_BYTES * count;
        let os = Span::from_micros_f64(self.tuning.os_packet_cost_us);
        env.send(
            self.sender,
            size,
            TAG_ACK,
            ProcessingCost::symmetric(os),
            WireMsg::Ack(AckMsg {
                below,
                missing: report,
            }),
        );
        self.acks_sent += 1;
        env.emit(|node| ObsEvent::NakSent { node, count });
        self.since_last_ack = 0;
        if !self.missing.is_empty() && !self.ack_timer_armed {
            env.set_timer(self.rto, TIMER_ACK);
            self.ack_timer_armed = true;
        }
    }

    fn on_data(&mut self, env: &mut Env<'_>, data: &DataMsg) {
        if env.rng().bernoulli(self.drop_probability) {
            self.dropped += 1;
            return;
        }
        if !self.note_advertised_upto(env, data.seq) {
            return;
        }
        self.missing.remove(&data.seq);
        // Vetted above: the log makes room for it.
        self.log.make_room(data.seq);
        let (published_at, recovered) = (data.published_at, data.retransmission);
        if accept(&mut self.log, env, data.seq, published_at, recovered) == Insert::Seen {
            self.duplicates += 1;
            let seq = data.seq;
            env.emit(|node| ObsEvent::SampleDuplicate { node, seq });
        }
        self.since_last_ack += 1;
        if self.since_last_ack >= self.tuning.ack_window && !self.missing.is_empty() {
            self.send_ack(env);
        } else if !self.missing.is_empty() && !self.ack_timer_armed {
            env.set_timer(self.rto, TIMER_ACK);
            self.ack_timer_armed = true;
        }
    }
}

impl DataReader for AckcastReceiver {
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
            give_ups: self.give_ups,
            duplicates: AckcastReceiver::duplicates(self),
            dropped: self.dropped,
            window_overflows: self.window_overflows + self.log.overflow_count(),
            ..crate::ProtocolStats::default()
        }
    }
}

impl ProtocolCore for AckcastReceiver {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::PacketIn { msg, .. } => match msg {
                WireMsg::Data(data) => {
                    let data = *data;
                    self.on_data(env, &data);
                }
                WireMsg::Heartbeat(hb) => {
                    if let Some(high) = hb.highest_seq {
                        self.note_advertised_upto(env, high);
                        if !self.missing.is_empty() && !self.ack_timer_armed {
                            env.set_timer(self.rto, TIMER_ACK);
                            self.ack_timer_armed = true;
                        }
                    }
                }
                WireMsg::Fin(fin) if fin.total > 0 => {
                    self.note_advertised_upto(env, fin.total - 1);
                    if !self.missing.is_empty() {
                        self.send_ack(env);
                    }
                }
                _ => {}
            },
            Input::TimerFired { tag: TIMER_ACK, .. } => {
                self.ack_timer_armed = false;
                if !self.missing.is_empty() {
                    self.send_ack(env);
                }
            }
            Input::Start | Input::TimerFired { .. } | Input::Tick => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDriver, Simulation};
    use adamant_proto::wire::FinMsg;
    use adamant_proto::{Effect, EnvHost, TimePoint};

    #[test]
    fn an_ack_at_the_top_of_the_sequence_space_saturates() {
        // A fresh reader refuses a first frame at `u64::MAX` as too far
        // ahead of a stream heard from 0...
        let (mut host, src) = (EnvHost::new(NodeId(1), 3), NodeId(0));
        let mut rx = AckcastReceiver::new(src, 10, Span::from_millis(5), Tuning::default(), 0.0);
        let top = WireMsg::Data(DataMsg {
            seq: u64::MAX,
            published_at: TimePoint::ZERO,
            retransmission: false,
        });
        let input = Input::PacketIn { src, msg: &top };
        assert!(host.step(&mut rx, TimePoint::ZERO, input).is_empty());
        assert_eq!(rx.protocol_stats().window_overflows, 1);
        // ...and one that has heard of `u64::MAX` acknowledges everything
        // below it instead of overflowing `highest + 1`.
        rx.highest_advertised = Some(u64::MAX);
        rx.missing.insert(7, 0);
        let fin = WireMsg::Fin(FinMsg { total: 1 });
        let input = Input::PacketIn { src, msg: &fin };
        let effects = host.step(&mut rx, TimePoint::from_millis(1), input);
        let below = effects.iter().find_map(|effect| match effect {
            Effect::Send {
                msg: WireMsg::Ack(ack),
                ..
            } => Some(ack.below),
            _ => None,
        });
        assert_eq!(below, Some(u64::MAX));
    }

    fn run_session(samples: u64, drop_probability: f64, seed: u64) -> (Simulation, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let app = AppSpec::at_rate(samples, 100.0, 12);
        let tuning = Tuning::default();
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg,
            SimDriver::new(AckcastSender::new(
                app,
                StackProfile::new(10.0, 48),
                tuning,
                group,
            )),
        );
        sim.join_group(group, tx);
        let mut rxs = Vec::new();
        for _ in 0..3 {
            let rx = sim.add_node(
                cfg,
                SimDriver::new(AckcastReceiver::new(
                    tx,
                    samples,
                    Span::from_millis(20),
                    tuning,
                    drop_probability,
                )),
            );
            sim.join_group(group, rx);
            rxs.push(rx);
        }
        sim.run_until(adamant_netsim::SimTime::from_secs(samples / 100 + 5));
        (sim, rxs)
    }

    #[test]
    fn lossless_run_sends_no_gap_reports() {
        let (sim, rxs) = run_session(300, 0.0, 3);
        for rx in rxs {
            let r = sim.agent::<AckcastReceiver>(rx).unwrap();
            assert_eq!(r.log().delivered_count(), 300);
            assert_eq!(r.give_ups(), 0);
        }
    }

    #[test]
    fn retransmission_storms_are_paced() {
        // Tiny bucket: a burst of gap reports must be deferred, yet the
        // RTO retry loop still converges to full reliability.
        let mut sim = Simulation::new(21);
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let tuning = Tuning {
            ack_retx_burst: 2.0,
            ack_retx_rate_per_sec: 200.0,
            ..Tuning::default()
        };
        let app = AppSpec::at_rate(600, 200.0, 12);
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg,
            SimDriver::new(AckcastSender::new(
                app,
                StackProfile::new(10.0, 48),
                tuning,
                group,
            )),
        );
        sim.join_group(group, tx);
        let rx = sim.add_node(
            cfg,
            SimDriver::new(AckcastReceiver::new(
                tx,
                600,
                Span::from_millis(20),
                tuning,
                0.2,
            )),
        );
        sim.join_group(group, rx);
        sim.run_until(adamant_netsim::SimTime::from_secs(30));
        let s = sim.agent::<AckcastSender>(tx).unwrap();
        assert!(
            s.retransmissions_deferred() > 0,
            "the tiny bucket should have deferred something"
        );
        let r = sim.agent::<AckcastReceiver>(rx).unwrap();
        assert_eq!(r.log().delivered_count(), 600, "RTO retries still converge");
    }

    #[test]
    fn lossy_run_recovers_fully() {
        let (sim, rxs) = run_session(1_000, 0.05, 7);
        for rx in rxs {
            let r = sim.agent::<AckcastReceiver>(rx).unwrap();
            assert_eq!(
                r.log().delivered_count(),
                1_000,
                "dropped={} acks={} give_ups={}",
                r.dropped(),
                r.acks_sent(),
                r.give_ups()
            );
            assert!(r.acks_sent() > 0);
        }
        let s = sim.agent::<AckcastSender>(NodeId::from_index(0)).unwrap();
        assert!(s.retransmissions_sent() > 0);
    }
}
