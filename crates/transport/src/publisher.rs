//! The one publication stage every sender embeds: sequence numbering,
//! data and end-of-stream packets sized and charged for the sender's path,
//! pacing, stalls behind a sender's gate, session heartbeats, and the
//! history retransmissions are answered from.
//!
//! Runtime-agnostic: everything here speaks the sans-I/O [`Env`] from
//! `adamant-proto`, so the same publisher drives the simulator and the
//! real-UDP runtime.

use adamant_proto::wire::{DataMsg, FinMsg, HeartbeatMsg};
use adamant_proto::{
    Env, GroupId, HistoryCache, NodeId, ObsEvent, ProcessingCost, Span, TimePoint, WireMsg,
};

use crate::profile::{AppSpec, StackProfile, CONTROL_COST, OS_PACKET_COST};
use crate::tags::{
    CONTROL_BYTES, DATA_HEADER_BYTES, FRAMING_BYTES, TAG_DATA, TAG_FIN, TAG_HEARTBEAT,
    TAG_RETRANSMIT,
};

/// Timer tag for the next publication tick.
pub(crate) const TIMER_PUBLISH: u64 = 1;
/// Timer tag for the next session heartbeat.
pub(crate) const TIMER_HEARTBEAT: u64 = 2;

/// What the path a sender publishes over charges per packet, before the
/// middleware stack's share. Each sender type picks one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Path {
    /// Framing bytes below the transport's data header.
    pub framing_bytes: u32,
    /// Processing cost of one data packet.
    pub data_cost: ProcessingCost,
    /// Wire size of a control packet (FIN, heartbeat).
    pub control_bytes: u32,
    /// Processing cost of a control packet.
    pub control_cost: ProcessingCost,
}

/// The OS/UDP path: Ethernet + IP + UDP framing and the OS packet cost.
pub(crate) const UDP_PATH: Path = Path {
    framing_bytes: FRAMING_BYTES,
    data_cost: ProcessingCost::symmetric(OS_PACKET_COST),
    control_bytes: FRAMING_BYTES + CONTROL_BYTES,
    control_cost: CONTROL_COST,
};

/// The sender-side core shared by every protocol: publishes `app.total_samples`
/// data samples at the configured rate into a multicast group, optionally
/// emitting session heartbeats (for NAK gap detection) and a FIN marker.
///
/// Protocol senders embed one of these and forward their timer inputs to
/// [`PublisherCore::handle_timer`]; a sender with a gate (a send window,
/// receiver credit) ticks [`PublisherCore::publish`] itself instead.
#[derive(Debug, Clone)]
pub(crate) struct PublisherCore {
    app: AppSpec,
    profile: StackProfile,
    path: Path,
    group: GroupId,
    heartbeat: Option<Span>,
    send_fin: bool,
    next_seq: u64,
    /// Publication times retransmissions are answered from; `None` for a
    /// sender that never retransmits.
    history: Option<HistoryCache>,
    finished: bool,
    stalled: bool,
    stalls: u64,
    retransmissions_sent: u64,
}

impl PublisherCore {
    /// A publisher over `path` into `group`, heartbeating every `heartbeat`
    /// if given and announcing the end of the stream if `send_fin`. It
    /// keeps no history until [`with_history`](Self::with_history).
    pub fn new(
        app: AppSpec,
        profile: StackProfile,
        path: Path,
        group: GroupId,
        heartbeat: Option<Span>,
        send_fin: bool,
    ) -> Self {
        PublisherCore {
            app,
            profile,
            path,
            group,
            heartbeat,
            send_fin,
            next_seq: 0,
            history: None,
            finished: false,
            stalled: false,
            stalls: 0,
            retransmissions_sent: 0,
        }
    }

    /// Keeps publications in `history` so retransmission requests can be
    /// answered (builder-style); requests below its retained window go
    /// unanswered.
    pub fn with_history(mut self, history: HistoryCache) -> Self {
        self.history = Some(history);
        self
    }

    /// Wire size of one data packet.
    pub fn data_packet_bytes(&self) -> u32 {
        self.path.framing_bytes
            + DATA_HEADER_BYTES
            + self.profile.header_bytes
            + self.app.payload_bytes
    }

    /// Processing cost of one data packet (path + middleware).
    pub fn data_cost(&self) -> ProcessingCost {
        self.path.data_cost.plus(self.profile.per_packet)
    }

    /// Sequence numbers published so far.
    pub fn published(&self) -> u64 {
        self.next_seq
    }

    /// The publication time of `seq`, if published and still retained.
    pub fn published_at(&self, seq: u64) -> Option<TimePoint> {
        self.history.as_ref()?.get(seq)
    }

    /// Whether the final sample has been published.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Whether the last publication tick found the gate closed.
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Publication ticks deferred because the gate was closed.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Retransmissions sent.
    pub fn retransmissions_sent(&self) -> u64 {
        self.retransmissions_sent
    }

    /// Adopts a predecessor's whole publication history so this core
    /// continues the stream where the predecessor stopped: the next
    /// publication uses sequence `history.len()`, and retransmission
    /// requests for earlier sequences are answered from the adopted
    /// history. Used by warm standbys promoting after a sender crash.
    pub fn resume_from(&mut self, history: Vec<TimePoint>) {
        self.next_seq = history.len() as u64;
        self.finished = self.next_seq >= self.app.total_samples;
        let mut cache = HistoryCache::unbounded();
        for (seq, at) in history.into_iter().enumerate() {
            cache.push(seq as u64, at);
        }
        self.history = Some(cache);
    }

    /// Must be called when the stream starts flowing: arms the first
    /// publication tick and the heartbeat grid.
    pub fn start(&mut self, env: &mut Env<'_>) {
        env.set_timer(Span::ZERO, TIMER_PUBLISH);
        if let Some(interval) = self.heartbeat {
            // Desynchronise the heartbeat grid from the publication grid:
            // a random phase keeps gap-detection delay realistic instead of
            // letting aligned timers detect losses instantly.
            let phase = Span::from_nanos(env.rng().next_below(interval.as_nanos().max(1)));
            env.set_timer(phase, TIMER_HEARTBEAT);
        }
    }

    /// Handles publisher timers for a sender without a gate. Returns
    /// `true` if the tag belonged to the core (so protocol senders can
    /// route their own timers otherwise).
    pub fn handle_timer(&mut self, env: &mut Env<'_>, tag: u64) -> bool {
        match tag {
            TIMER_PUBLISH => {
                self.publish(env, true);
                true
            }
            TIMER_HEARTBEAT => {
                if let Some(interval) = self.heartbeat.filter(|_| !self.finished) {
                    self.send_heartbeat(env);
                    env.set_timer(interval, TIMER_HEARTBEAT);
                }
                true
            }
            _ => false,
        }
    }

    /// Publishes the next sample if the sender's gate is `open`, then arms
    /// the next tick or, after the last sample, announces the end of the
    /// stream. A closed gate counts a stall and publishes nothing; the
    /// sender ticks again when the gate reopens. Returns whether a sample
    /// went out.
    pub fn publish(&mut self, env: &mut Env<'_>, open: bool) -> bool {
        if self.finished {
            return false;
        }
        self.stalled = !open;
        if !open {
            self.stalls += 1;
            return false;
        }
        let seq = self.next_seq;
        let now = env.now();
        if let Some(history) = &mut self.history {
            history.push(seq, now);
        }
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
            if self.send_fin {
                self.announce_fin(env);
            }
        }
        true
    }

    /// Multicasts the end-of-stream marker. Called automatically after the
    /// last publication; standbys promoting into an already-complete
    /// stream call it directly so receivers can close their gap detection.
    pub fn announce_fin(&mut self, env: &mut Env<'_>) {
        env.send(
            self.group,
            self.path.control_bytes,
            TAG_FIN,
            self.path.control_cost,
            WireMsg::Fin(FinMsg {
                total: self.app.total_samples,
            }),
        );
    }

    fn send_heartbeat(&mut self, env: &mut Env<'_>) {
        env.send(
            self.group,
            self.path.control_bytes,
            TAG_HEARTBEAT,
            self.path.control_cost,
            WireMsg::Heartbeat(HeartbeatMsg {
                highest_seq: self.next_seq.checked_sub(1),
            }),
        );
    }

    /// Unicasts a retransmission of `seq` to `to`. Returns `false` if `seq`
    /// has not been published or is no longer retained.
    pub fn retransmit(&mut self, env: &mut Env<'_>, to: NodeId, seq: u64) -> bool {
        let Some(published_at) = self.published_at(seq) else {
            return false;
        };
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
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NakcastSender, RicochetSender, ShmCastSender, Tuning, UdpSender};
    use adamant_netsim::{
        Agent, Bandwidth, Ctx, HostConfig, MachineClass, Packet, SimDriver, Simulation,
    };
    use adamant_proto::wire::{NakMsg, ShmCreditMsg};
    use adamant_proto::{Effect, EnvHost, Input, ProtocolCore, TimerToken};
    use std::any::Any;

    /// Minimal protocol core embedding a bare publisher.
    struct CoreSender {
        core: PublisherCore,
    }

    impl ProtocolCore for CoreSender {
        fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
            match input {
                Input::Start => self.core.start(env),
                Input::TimerFired { tag, .. } => {
                    self.core.handle_timer(env, tag);
                }
                _ => {}
            }
        }
    }

    struct Sink {
        data: Vec<DataMsg>,
        heartbeats: u32,
        fins: u32,
    }

    impl Agent for Sink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            match pkt.msg {
                Some(WireMsg::Data(d)) => self.data.push(d),
                Some(WireMsg::Heartbeat(_)) => self.heartbeats += 1,
                Some(WireMsg::Fin(_)) => self.fins += 1,
                _ => {}
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn build(heartbeats: bool, fin: bool) -> (Simulation, adamant_netsim::NodeId) {
        let mut sim = Simulation::new(3);
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let rx = sim.add_node(
            cfg,
            Sink {
                data: vec![],
                heartbeats: 0,
                fins: 0,
            },
        );
        let group = sim.create_group(&[rx]);
        let app = AppSpec::at_rate(10, 100.0, 12);
        let heartbeat = heartbeats.then_some(Span::from_millis(30));
        let core = PublisherCore::new(
            app,
            StackProfile::new(10.0, 48),
            UDP_PATH,
            group,
            heartbeat,
            fin,
        );
        let tx = sim.add_node(cfg, SimDriver::new(CoreSender { core }));
        sim.join_group(group, tx);
        (sim, rx)
    }

    #[test]
    fn publishes_all_samples_in_order_at_rate() {
        let (mut sim, rx) = build(false, false);
        sim.run();
        let sink = sim.agent::<Sink>(rx).unwrap();
        assert_eq!(sink.data.len(), 10);
        let seqs: Vec<u64> = sink.data.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        // Publications are 10 ms apart.
        let gap = sink.data[1].published_at - sink.data[0].published_at;
        assert_eq!(gap, Span::from_millis(10));
        assert_eq!(sink.fins, 0);
        assert_eq!(sink.heartbeats, 0);
    }

    #[test]
    fn fin_follows_last_sample() {
        let (mut sim, rx) = build(false, true);
        sim.run();
        let sink = sim.agent::<Sink>(rx).unwrap();
        assert_eq!(sink.fins, 1);
    }

    #[test]
    fn heartbeats_flow_until_finished() {
        let (mut sim, rx) = build(true, false);
        sim.run();
        let sink = sim.agent::<Sink>(rx).unwrap();
        // 10 samples at 100 Hz = 90 ms of publishing; heartbeats every
        // 30 ms (random phase) fire ~3 times before the
        // stream finishes.
        assert!(
            (1..=5).contains(&sink.heartbeats),
            "got {} heartbeats",
            sink.heartbeats
        );
    }

    #[test]
    fn packet_sizing_and_costs() {
        let app = AppSpec::at_rate(1, 10.0, 12);
        let core = PublisherCore::new(
            app,
            StackProfile::new(25.0, 48),
            UDP_PATH,
            adamant_netsim::Simulation::new(0).create_group(&[]),
            None,
            false,
        );
        assert_eq!(core.data_packet_bytes(), 42 + 16 + 48 + 12);
        let cost = core.data_cost();
        // 15 µs OS + 25 µs middleware on each side.
        assert_eq!(cost.tx, Span::from_micros(40));
        assert_eq!(cost.rx, Span::from_micros(40));
    }

    const SAMPLES: u64 = 32;

    /// Starts `sender`, grants it credit for the whole stream (only ShmCast
    /// reads it), ticks it through every publication and then NAKs
    /// sequence 0; returns the retransmissions the NAK drew.
    fn publish_then_nak(sender: &mut dyn ProtocolCore) -> usize {
        let (mut host, reader, at) = (EnvHost::new(NodeId(0), 1), NodeId(1), TimePoint::ZERO);
        let credit = WireMsg::ShmCredit(ShmCreditMsg { upto: SAMPLES });
        let nak = WireMsg::Nak(NakMsg { seqs: vec![0] });
        host.step(sender, at, Input::Start);
        host.step(
            sender,
            at,
            Input::PacketIn {
                src: reader,
                msg: &credit,
            },
        );
        for _ in 0..SAMPLES {
            let tick = Input::TimerFired {
                token: TimerToken::default(),
                tag: TIMER_PUBLISH,
            };
            host.step(sender, at, tick);
        }
        let effects = host.step(
            sender,
            at,
            Input::PacketIn {
                src: reader,
                msg: &nak,
            },
        );
        effects
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Effect::Send {
                        tag: TAG_RETRANSMIT,
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn only_senders_that_retransmit_keep_history() {
        let (app, profile) = (
            AppSpec::at_rate(SAMPLES, 100.0, 12),
            StackProfile::default(),
        );
        let mut udp = UdpSender::new(app, profile, GroupId(0));
        let mut ricochet = RicochetSender::new(app, profile, GroupId(0));
        let mut shm = ShmCastSender::new(app, profile, GroupId(0), 64);
        publish_then_nak(&mut udp);
        publish_then_nak(&mut ricochet);
        publish_then_nak(&mut shm);
        for core in [&udp.core, &ricochet.core, &shm.core] {
            assert_eq!(core.published(), SAMPLES);
            assert!(core.history.is_none(), "a publish-only sender kept history");
        }

        let mut nakcast = NakcastSender::new(app, profile, Tuning::default(), GroupId(0));
        assert_eq!(publish_then_nak(&mut nakcast), 1);
        assert_eq!(nakcast.published(), SAMPLES);
        assert_eq!(nakcast.retransmissions_sent(), 1);
    }
}
