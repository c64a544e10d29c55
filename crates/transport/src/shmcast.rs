//! ShmCast: the same-host shared-memory fast path.
//!
//! When writer and readers share a machine, the OS network stack is pure
//! overhead: a bounded single-producer ring per reader replaces it. The
//! model is a zero-loss in-order queue with credit-based backpressure —
//! each receiver grants the sender credit for its queue capacity up front
//! and re-grants as it consumes, so the sender can never overrun a slow
//! reader. There is no recovery machinery at all: the same-host path drops
//! nothing, which is exactly why the autonomic selector should pick it
//! when the environment descriptor says both ends are co-located.
//!
//! Costs are charged per packet like every other core, but through
//! [`Tuning::shm_packet_cost_us`] (a ring-buffer enqueue, ~sub-µs) instead
//! of the OS/UDP path cost, and with a minimal framing header instead of
//! Ethernet+IP+UDP.

use std::collections::BTreeMap;

use adamant_metrics::DenseReceptionLog;
use adamant_proto::wire::{DataMsg, FinMsg, ShmCreditMsg};
use adamant_proto::{
    Env, GroupId, Input, NodeId, ObsEvent, ProcessingCost, ProtocolCore, Span, WireMsg,
};

use crate::config::Tuning;
use crate::profile::{AppSpec, StackProfile};
use crate::receiver::{accept, DataReader};
use crate::tags::{DATA_HEADER_BYTES, TAG_DATA, TAG_FIN, TAG_SHM_CREDIT};

/// Timer tag for the sender's next publication tick.
const TIMER_PUBLISH: u64 = 50;

/// Framing bytes of a shared-memory ring slot header: no Ethernet, IP, or
/// UDP — just a slot length + flags word.
pub const SHM_FRAMING_BYTES: u32 = 8;

/// Sender side of ShmCast.
#[derive(Debug, Clone)]
pub struct ShmCastSender {
    app: AppSpec,
    profile: StackProfile,
    tuning: Tuning,
    group: GroupId,
    queue: u32,
    next_seq: u64,
    finished: bool,
    stalled: bool,
    /// Per-receiver credit: the sender may publish sequences `< granted`.
    credits: BTreeMap<NodeId, u64>,
    stalls: u64,
}

impl ShmCastSender {
    /// Creates a sender publishing `app` into `group` against receivers
    /// with bounded queues of `queue` slots.
    pub fn new(
        app: AppSpec,
        profile: StackProfile,
        tuning: Tuning,
        group: GroupId,
        queue: u32,
    ) -> Self {
        ShmCastSender {
            app,
            profile,
            tuning,
            group,
            queue: queue.max(1),
            next_seq: 0,
            finished: false,
            stalled: false,
            credits: BTreeMap::new(),
            stalls: 0,
        }
    }

    /// Samples published so far.
    pub fn published(&self) -> u64 {
        self.next_seq
    }

    /// Whether the final sample has been published.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Publication ticks deferred for want of receiver credit.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// The ring capacity (in slots) each receiver is assumed to run.
    pub fn queue(&self) -> u32 {
        self.queue
    }

    fn data_packet_bytes(&self) -> u32 {
        SHM_FRAMING_BYTES + DATA_HEADER_BYTES + self.profile.header_bytes + self.app.payload_bytes
    }

    fn shm_cost(&self) -> ProcessingCost {
        let slot = Span::from_micros_f64(self.tuning.shm_packet_cost_us);
        ProcessingCost::symmetric(slot)
    }

    fn data_cost(&self) -> ProcessingCost {
        self.shm_cost().plus(self.profile.per_packet)
    }

    /// The lowest credit grant across attached receivers; publication is
    /// gated on it. No receivers attached yet means no credit.
    fn credit_limit(&self) -> u64 {
        self.credits.values().copied().min().unwrap_or(0)
    }

    fn publish_tick(&mut self, env: &mut Env<'_>) {
        if self.finished {
            return;
        }
        if self.next_seq >= self.credit_limit() {
            // Out of credit: a receiver's ring is full (or none attached
            // yet). The next grant resumes the stream.
            self.stalled = true;
            self.stalls += 1;
            return;
        }
        self.stalled = false;
        let seq = self.next_seq;
        let now = env.now();
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
                SHM_FRAMING_BYTES + 8,
                TAG_FIN,
                self.shm_cost(),
                WireMsg::Fin(FinMsg {
                    total: self.app.total_samples,
                }),
            );
        }
    }

    fn on_credit(&mut self, env: &mut Env<'_>, src: NodeId, credit: ShmCreditMsg) {
        let entry = self.credits.entry(src).or_insert(0);
        // Grants are cumulative; a stale (reordered) grant never shrinks.
        if credit.upto > *entry {
            *entry = credit.upto;
        }
        if self.stalled {
            self.publish_tick(env);
        }
    }
}

impl ProtocolCore for ShmCastSender {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => {
                env.set_timer(Span::ZERO, TIMER_PUBLISH);
            }
            Input::TimerFired {
                tag: TIMER_PUBLISH, ..
            } => self.publish_tick(env),
            Input::PacketIn {
                src,
                msg: WireMsg::ShmCredit(credit),
            } => {
                let credit = *credit;
                self.on_credit(env, src, credit);
            }
            Input::PacketIn { .. } | Input::TimerFired { .. } | Input::Tick => {}
        }
    }
}

/// Receiver side of ShmCast.
#[derive(Debug, Clone)]
pub struct ShmCastReceiver {
    sender: NodeId,
    queue: u32,
    tuning: Tuning,
    log: DenseReceptionLog,
    duplicates: u64,
    /// Samples consumed (drives credit re-grants).
    consumed: u64,
    /// Credit granted so far (sequences `< granted` may be sent).
    granted: u64,
    credits_sent: u64,
}

impl ShmCastReceiver {
    /// Creates a receiver expecting `expected` samples from `sender`
    /// through a bounded queue of `queue` slots.
    pub fn new(sender: NodeId, expected: u64, queue: u32, tuning: Tuning) -> Self {
        ShmCastReceiver {
            sender,
            queue: queue.max(1),
            tuning,
            log: DenseReceptionLog::with_capacity(expected),
            duplicates: 0,
            consumed: 0,
            granted: 0,
            credits_sent: 0,
        }
    }

    /// Credit grants sent.
    pub fn credits_sent(&self) -> u64 {
        self.credits_sent
    }

    /// Duplicate copies discarded.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    fn send_credit(&mut self, env: &mut Env<'_>) {
        self.granted = self.consumed + u64::from(self.queue);
        self.credits_sent += 1;
        let slot = Span::from_micros_f64(self.tuning.shm_packet_cost_us);
        env.send(
            self.sender,
            SHM_FRAMING_BYTES + 8,
            TAG_SHM_CREDIT,
            ProcessingCost::symmetric(slot),
            WireMsg::ShmCredit(ShmCreditMsg { upto: self.granted }),
        );
    }

    fn on_data(&mut self, env: &mut Env<'_>, data: &DataMsg) {
        let (published_at, recovered) = (data.published_at, data.retransmission);
        if accept(&mut self.log, env, data.seq, published_at, recovered) {
            self.consumed += 1;
            // Re-grant once half the ring has been consumed, batching
            // credit traffic instead of ping-ponging per sample.
            if self.granted - self.consumed <= u64::from(self.queue) / 2 {
                self.send_credit(env);
            }
        } else {
            self.duplicates += 1;
            let seq = data.seq;
            env.emit(|node| ObsEvent::SampleDuplicate { node, seq });
        }
    }
}

impl DataReader for ShmCastReceiver {
    fn log(&self) -> &DenseReceptionLog {
        &self.log
    }

    fn log_mut(&mut self) -> &mut DenseReceptionLog {
        &mut self.log
    }

    fn dropped(&self) -> u64 {
        0
    }

    fn duplicates(&self) -> u64 {
        ShmCastReceiver::duplicates(self)
    }

    fn protocol_stats(&self) -> crate::ProtocolStats {
        crate::ProtocolStats {
            acks_sent: self.credits_sent,
            recovered: self.log.recovered_count(),
            duplicates: ShmCastReceiver::duplicates(self),
            ..crate::ProtocolStats::default()
        }
    }
}

impl ProtocolCore for ShmCastReceiver {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            // Attach: grant the full ring up front.
            Input::Start => self.send_credit(env),
            Input::PacketIn {
                msg: WireMsg::Data(data),
                ..
            } => {
                let data = *data;
                self.on_data(env, &data);
            }
            Input::PacketIn { .. } | Input::TimerFired { .. } | Input::Tick => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::capturing;
    use adamant_netsim::{
        Bandwidth, HostConfig, LossModel, MachineClass, NetworkConfig, SimDriver, SimDuration,
        Simulation,
    };

    fn same_host_network() -> NetworkConfig {
        NetworkConfig {
            propagation: SimDuration::from_micros(1),
            loss: LossModel::NONE,
        }
    }

    fn run_session(
        samples: u64,
        queue: u32,
        rate_hz: f64,
        seed: u64,
    ) -> (Simulation, NodeId, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        sim.set_network(same_host_network());
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let app = AppSpec::at_rate(samples, rate_hz, 12);
        let tuning = Tuning::default();
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg,
            SimDriver::new(ShmCastSender::new(
                app,
                StackProfile::new(10.0, 48),
                tuning,
                group,
                queue,
            )),
        );
        sim.join_group(group, tx);
        let mut rxs = Vec::new();
        for _ in 0..3 {
            let rx = sim.add_node(
                cfg,
                SimDriver::new(capturing(ShmCastReceiver::new(tx, samples, queue, tuning))),
            );
            sim.join_group(group, rx);
            rxs.push(rx);
        }
        sim.run_until(adamant_netsim::SimTime::from_secs(30));
        (sim, tx, rxs)
    }

    #[test]
    fn delivers_everything_in_order_with_microsecond_latency() {
        let (sim, tx, rxs) = run_session(500, 256, 100.0, 3);
        for rx in rxs {
            let r = sim.agent::<ShmCastReceiver>(rx).unwrap();
            assert_eq!(r.log().delivered_count(), 500);
            assert_eq!(r.duplicates(), 0);
            for d in r.log().deliveries().expect("captured") {
                let latency = d.delivered_at - d.published_at;
                assert!(
                    latency < Span::from_micros(60),
                    "seq {} took {latency}",
                    d.seq
                );
            }
        }
        let s = sim.agent::<ShmCastSender>(tx).unwrap();
        assert!(s.is_finished());
    }

    #[test]
    fn tiny_ring_backpressures_the_sender_without_losing_anything() {
        // 4-slot ring against a 10 kHz publisher: the sender must stall on
        // credit, yet the grant cycle keeps the stream moving to the end.
        let (sim, tx, rxs) = run_session(2_000, 4, 10_000.0, 9);
        let s = sim.agent::<ShmCastSender>(tx).unwrap();
        assert!(s.stalls() > 0, "credit never ran out");
        assert!(s.is_finished());
        for rx in rxs {
            let r = sim.agent::<ShmCastReceiver>(rx).unwrap();
            assert_eq!(r.log().delivered_count(), 2_000);
            assert!(r.credits_sent() > 1);
        }
    }

    #[test]
    fn no_attached_receiver_means_no_publication() {
        let mut sim = Simulation::new(1);
        sim.set_network(same_host_network());
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg,
            SimDriver::new(ShmCastSender::new(
                AppSpec::at_rate(10, 100.0, 12),
                StackProfile::new(10.0, 48),
                Tuning::default(),
                group,
                8,
            )),
        );
        sim.join_group(group, tx);
        sim.run_until(adamant_netsim::SimTime::from_secs(2));
        let s = sim.agent::<ShmCastSender>(tx).unwrap();
        assert_eq!(s.published(), 0, "no credit, no stream");
        assert!(s.stalls() > 0);
    }

    #[test]
    fn same_schedule_replays_bit_identically() {
        let collect = || {
            let (sim, tx, rxs) = run_session(800, 16, 1_000.0, 17);
            let s = sim.agent::<ShmCastSender>(tx).unwrap();
            let mut summary = vec![s.published(), s.stalls()];
            for rx in rxs {
                let r = sim.agent::<ShmCastReceiver>(rx).unwrap();
                summary.push(r.log().delivered_count());
                summary.push(r.credits_sent());
            }
            summary
        };
        assert_eq!(collect(), collect());
    }
}
