//! Shared sender-side machinery: periodic publication, session heartbeats,
//! end-of-stream marking, and retransmission history.
//!
//! Runtime-agnostic: everything here speaks the sans-I/O [`Env`] from
//! `adamant-proto`, so the same publisher drives the simulator and the
//! real-UDP runtime.

use adamant_proto::wire::{DataMsg, FinMsg, HeartbeatMsg};
use adamant_proto::{Env, GroupId, HistoryCache, NodeId, ProcessingCost, Span, TimePoint, WireMsg};

use crate::config::Tuning;
use crate::profile::{AppSpec, StackProfile, CONTROL_COST, OS_PACKET_COST};
use crate::tags::{
    CONTROL_BYTES, DATA_HEADER_BYTES, FRAMING_BYTES, TAG_DATA, TAG_FIN, TAG_HEARTBEAT,
    TAG_RETRANSMIT,
};

/// Timer tag for the next publication tick.
pub(crate) const TIMER_PUBLISH: u64 = 1;
/// Timer tag for the next session heartbeat.
pub(crate) const TIMER_HEARTBEAT: u64 = 2;

/// The sender-side core shared by every protocol: publishes `app.total_samples`
/// data samples at the configured rate into a multicast group, optionally
/// emitting session heartbeats (for NAK/ACK gap detection) and a FIN marker.
///
/// Protocol senders embed one of these and forward their timer inputs to
/// [`PublisherCore::handle_timer`].
#[derive(Debug, Clone)]
pub(crate) struct PublisherCore {
    app: AppSpec,
    profile: StackProfile,
    tuning: Tuning,
    group: GroupId,
    heartbeats: bool,
    send_fin: bool,
    extra_data_rx: Span,
    next_seq: u64,
    history: HistoryCache,
    finished: bool,
}

impl PublisherCore {
    pub fn new(
        app: AppSpec,
        profile: StackProfile,
        tuning: Tuning,
        group: GroupId,
        heartbeats: bool,
        send_fin: bool,
    ) -> Self {
        PublisherCore {
            app,
            profile,
            tuning,
            group,
            heartbeats,
            send_fin,
            extra_data_rx: Span::ZERO,
            next_seq: 0,
            history: HistoryCache::unbounded(),
            finished: false,
        }
    }

    /// Declares extra receiver-side CPU work per data packet (protocol
    /// bookkeeping such as Ricochet's XOR-buffer maintenance).
    pub fn with_extra_data_rx(mut self, extra: Span) -> Self {
        self.extra_data_rx = extra;
        self
    }

    /// Bounds the retransmission history to `depth` samples (unbounded by
    /// default); requests below the retained window go unanswered.
    pub fn with_history_depth(mut self, depth: usize) -> Self {
        self.history = HistoryCache::bounded(depth);
        self
    }

    /// Wire size of one data packet.
    pub fn data_packet_bytes(&self) -> u32 {
        FRAMING_BYTES + DATA_HEADER_BYTES + self.profile.header_bytes + self.app.payload_bytes
    }

    /// Processing cost of one data packet (OS + middleware + protocol).
    pub fn data_cost(&self) -> ProcessingCost {
        ProcessingCost::new(OS_PACKET_COST, OS_PACKET_COST + self.extra_data_rx)
            .plus(self.profile.per_packet)
    }

    /// Sequence numbers published so far.
    pub fn published(&self) -> u64 {
        self.next_seq
    }

    /// The publication time of `seq`, if published and still retained.
    pub fn published_at(&self, seq: u64) -> Option<TimePoint> {
        self.history.get(seq)
    }

    /// Whether the final sample has been published.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Adopts a predecessor's publication history so this core continues
    /// the stream where the predecessor stopped: the next publication uses
    /// sequence `history.len()`, and retransmission requests for earlier
    /// sequences are answered from the adopted history. Used by warm
    /// standbys promoting after a sender crash.
    pub fn resume_from(&mut self, history: Vec<TimePoint>) {
        self.next_seq = history.len() as u64;
        self.finished = self.next_seq >= self.app.total_samples;
        let mut cache = match self.history.depth() {
            Some(depth) => HistoryCache::bounded(depth),
            None => HistoryCache::unbounded(),
        };
        for (seq, at) in history.into_iter().enumerate() {
            cache.push(seq as u64, at);
        }
        self.history = cache;
    }

    /// Must be called from the embedding core's `Start` input.
    pub fn start(&mut self, env: &mut Env<'_>) {
        env.set_timer(Span::ZERO, TIMER_PUBLISH);
        if self.heartbeats {
            // Desynchronise the heartbeat grid from the publication grid:
            // a random phase keeps gap-detection delay realistic instead of
            // letting aligned timers detect losses instantly.
            let interval = self.tuning.heartbeat_interval.as_nanos();
            let phase = Span::from_nanos(env.rng().next_below(interval.max(1)));
            env.set_timer(phase, TIMER_HEARTBEAT);
        }
    }

    /// Handles publisher timers. Returns `true` if the tag belonged to the
    /// core (so protocol senders can route their own timers otherwise).
    pub fn handle_timer(&mut self, env: &mut Env<'_>, tag: u64) -> bool {
        match tag {
            TIMER_PUBLISH => {
                self.publish_one(env);
                true
            }
            TIMER_HEARTBEAT => {
                if !self.finished {
                    self.send_heartbeat(env);
                    env.set_timer(self.tuning.heartbeat_interval, TIMER_HEARTBEAT);
                }
                true
            }
            _ => false,
        }
    }

    fn publish_one(&mut self, env: &mut Env<'_>) {
        if self.next_seq >= self.app.total_samples {
            return;
        }
        let seq = self.next_seq;
        let now = env.now();
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
            if self.send_fin {
                self.announce_fin(env);
            }
        }
    }

    /// Multicasts the end-of-stream marker. Called automatically after the
    /// last publication; standbys promoting into an already-complete
    /// stream call it directly so receivers can close their gap detection.
    pub fn announce_fin(&mut self, env: &mut Env<'_>) {
        env.send(
            self.group,
            FRAMING_BYTES + CONTROL_BYTES,
            TAG_FIN,
            CONTROL_COST,
            WireMsg::Fin(FinMsg {
                total: self.app.total_samples,
            }),
        );
    }

    fn send_heartbeat(&mut self, env: &mut Env<'_>) {
        env.send(
            self.group,
            FRAMING_BYTES + CONTROL_BYTES,
            TAG_HEARTBEAT,
            CONTROL_COST,
            WireMsg::Heartbeat(HeartbeatMsg {
                highest_seq: self.next_seq.checked_sub(1),
            }),
        );
    }

    /// Unicasts a retransmission of `seq` to `to`. Returns `false` if `seq`
    /// has not been published yet.
    pub fn retransmit(&mut self, env: &mut Env<'_>, to: NodeId, seq: u64) -> bool {
        let Some(published_at) = self.published_at(seq) else {
            return false;
        };
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
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_netsim::{
        Agent, Bandwidth, Ctx, HostConfig, MachineClass, Packet, SimDriver, Simulation,
    };
    use adamant_proto::{Input, ProtocolCore};
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
        let core = PublisherCore::new(
            app,
            StackProfile::new(10.0, 48),
            Tuning::default(),
            group,
            heartbeats,
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
        // 30 ms (default tuning, random phase) fire ~3 times before the
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
            Tuning::default(),
            adamant_netsim::Simulation::new(0).create_group(&[]),
            false,
            false,
        );
        assert_eq!(core.data_packet_bytes(), 42 + 16 + 48 + 12);
        let cost = core.data_cost();
        // 15 µs OS + 25 µs middleware on each side.
        assert_eq!(cost.tx, Span::from_micros(40));
        assert_eq!(cost.rx, Span::from_micros(40));
    }
}
