//! NAKcast: NAK-based reliable *ordered* multicast with a tunable NAK
//! timeout, as evaluated in the paper.
//!
//! The sender multicasts data and short session heartbeats advertising the
//! highest sequence sent; receivers detect gaps from later packets or
//! heartbeats, wait `timeout` (the protocol's tunable parameter — 50, 25,
//! 10, or 1 ms in the paper), then NAK the sender, which retransmits via
//! unicast. Delivery to the application is in publication order: a missing
//! packet holds back its successors until it is recovered or abandoned,
//! which is where NAKcast pays latency and jitter under loss.
//!
//! Both sides are sans-I/O [`ProtocolCore`]s: the simulator drives them
//! through `adamant_netsim::SimDriver`, the real-UDP runtime through
//! `adamant-rt`.

use std::collections::BTreeMap;

use adamant_metrics::DenseReceptionLog;
use adamant_proto::wire::{DataMsg, NakMsg};
use adamant_proto::{
    beyond, Env, GroupId, Input, LiveJoin, NodeId, ObsEvent, ProcessingCost, ProtocolCore,
    Refusals, Span, TimePoint, TimerToken, WireMsg,
};

use crate::config::Tuning;
use crate::profile::{AppSpec, StackProfile};
use crate::publisher::PublisherCore;
use crate::receiver::{accept, DataReader};
use crate::tags::{FRAMING_BYTES, NAK_BASE_BYTES, NAK_PER_SEQ_BYTES, TAG_NAK};

/// Timer tag for the receiver's NAK scan.
const TIMER_SCAN: u64 = 10;

/// Base wait after a NAK before re-NAKing the same sequence (covers the
/// LAN retransmission round trip); doubles with each retry up to
/// [`RENAK_MAX`], so high-RTT paths (e.g. a satellite hop) do not trigger
/// duplicate-retransmission storms while the first answer is in flight.
const RENAK_EXTRA: Span = Span::from_millis(5);
/// Upper bound of the exponential re-NAK backoff.
const RENAK_MAX: Span = Span::from_secs(2);

/// The re-NAK backoff after `retries` attempts.
fn renak_backoff(retries: u32) -> Span {
    let doubled = RENAK_EXTRA * 2u64.saturating_pow(retries.min(16));
    doubled.min(RENAK_MAX)
}

/// A conservative upper bound on how long a NAKcast receiver can take to
/// deliver a recovered sample after its publication: one heartbeat interval
/// to detect the gap, then the full NAK retry schedule (`timeout` plus the
/// exponential re-NAK backoff, for every permitted retry). Any recovered
/// delivery slower than this means the receiver kept waiting on a sequence
/// it should have abandoned — the invariant the runtime-verification
/// checker enforces.
pub fn nakcast_recovery_bound(timeout: Span, tuning: &Tuning) -> Span {
    let mut bound = tuning.heartbeat_interval;
    for retries in 0..=tuning.nak_max_retries {
        bound = bound + timeout + renak_backoff(retries);
    }
    bound
}

/// Sender side of NAKcast: publishes, heartbeats, and answers NAKs with
/// unicast retransmissions.
#[derive(Debug, Clone)]
pub struct NakcastSender {
    core: PublisherCore,
    retransmissions_sent: u64,
}

impl NakcastSender {
    /// Creates a sender publishing `app` into `group`.
    pub fn new(app: AppSpec, profile: StackProfile, tuning: Tuning, group: GroupId) -> Self {
        NakcastSender {
            core: PublisherCore::new(app, profile, tuning, group, true, true),
            retransmissions_sent: 0,
        }
    }

    /// Unicast retransmissions sent in response to NAKs.
    pub fn retransmissions_sent(&self) -> u64 {
        self.retransmissions_sent
    }

    /// Sequence numbers published so far.
    pub fn published(&self) -> u64 {
        self.core.published()
    }

    /// Bounds the retransmission history retained for NAK replays
    /// (builder-style); unbounded by default.
    pub fn with_history_depth(mut self, depth: usize) -> Self {
        self.core = self.core.with_history_depth(depth);
        self
    }
}

impl LiveJoin for NakcastSender {}

impl ProtocolCore for NakcastSender {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => self.core.start(env),
            Input::TimerFired { tag, .. } => {
                self.core.handle_timer(env, tag);
            }
            Input::PacketIn {
                src,
                msg: WireMsg::Nak(nak),
            } => {
                for &seq in &nak.seqs {
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

/// An advertised sequence not heard yet: NAK at `nak_at`, after `retries`
/// NAKs so far.
#[derive(Debug, Clone, Copy)]
struct Missing {
    nak_at: TimePoint,
    retries: u32,
}

/// Receiver side of NAKcast.
#[derive(Debug, Clone)]
pub struct NakcastReceiver {
    sender: NodeId,
    timeout: Span,
    tuning: Tuning,
    drop_probability: f64,
    log: DenseReceptionLog,
    dropped: u64,
    duplicates: u64,
    /// Live-join floor: sequences below this predate the join and are
    /// ignored outright (a durable wrapper recovers them instead).
    floor: u64,
    /// Every advertised sequence neither delivered nor given up is missing
    /// or held. One from `floor` up to the high-water mark that is in
    /// neither map nor the log was given up; above the mark, nothing is
    /// known. The two are apart so a NAK scan never visits held samples.
    missing: BTreeMap<u64, Missing>,
    /// Samples heard, `(published_at, recovered)`, held back until no
    /// earlier sequence is missing.
    held: BTreeMap<u64, (TimePoint, bool)>,
    highest_advertised: Option<u64>,
    /// Frames in a row whose sequence was [`beyond`] the high-water mark.
    refusals: Refusals,
    scan_timer: Option<(TimerToken, TimePoint)>,
    naks_sent: u64,
    give_ups: u64,
    sender_changes: u64,
    window_overflows: u64,
}

impl NakcastReceiver {
    /// Creates a receiver expecting `expected` samples from `sender`,
    /// NAKing after `timeout`, with end-host drop probability
    /// `drop_probability`.
    pub fn new(
        sender: NodeId,
        expected: u64,
        timeout: Span,
        tuning: Tuning,
        drop_probability: f64,
    ) -> Self {
        NakcastReceiver {
            sender,
            timeout,
            tuning,
            drop_probability,
            log: DenseReceptionLog::with_capacity(expected),
            dropped: 0,
            duplicates: 0,
            floor: 0,
            missing: BTreeMap::new(),
            held: BTreeMap::new(),
            highest_advertised: None,
            refusals: Refusals::default(),
            scan_timer: None,
            naks_sent: 0,
            give_ups: 0,
            sender_changes: 0,
            window_overflows: 0,
        }
    }

    /// Re-targets NAKs at whoever is currently speaking for the stream:
    /// hearing session traffic from a new source means a standby was
    /// promoted after a sender failover.
    fn note_sender(&mut self, src: NodeId) {
        if src != self.sender {
            self.sender = src;
            self.sender_changes += 1;
        }
    }

    /// The node this receiver currently NAKs (the original sender, or the
    /// promoted standby after a failover).
    pub fn sender(&self) -> NodeId {
        self.sender
    }

    /// How many times the receiver re-targeted to a different sender.
    pub fn sender_changes(&self) -> u64 {
        self.sender_changes
    }

    /// NAK packets sent.
    pub fn naks_sent(&self) -> u64 {
        self.naks_sent
    }

    /// Sequences abandoned after exhausting NAK retries.
    pub fn give_ups(&self) -> u64 {
        self.give_ups
    }

    /// Duplicate data copies discarded.
    pub fn duplicates(&self) -> u64 {
        self.duplicates + self.log.duplicate_count()
    }

    /// Advertised sequences neither delivered nor given up: missing, or
    /// heard and held back behind one that is.
    pub fn open_slots(&self) -> usize {
        self.missing.len() + self.held.len()
    }

    /// Advances the advertised high-water mark to `upto`, marking every
    /// newly advertised sequence missing but `upto` itself when it was
    /// `heard`; answers whether `upto` was newly advertised. An `upto`
    /// [`beyond`] the mark is refused, counted and answered `None`, but a
    /// run of [`Refusals`] first resyncs the receiver at the lowest.
    fn advertise(&mut self, env: &mut Env<'_>, upto: u64, heard: bool) -> Option<bool> {
        if !beyond(self.highest_advertised, upto) {
            self.refusals.clear();
        } else if let Some(low) = self.refusals.refuse(upto) {
            self.resync(env, low);
        } else {
            self.window_overflows += 1;
            return None;
        }
        let start = match self.highest_advertised {
            Some(h) if h >= upto => return Some(false),
            Some(h) => h + 1,
            None => 0,
        };
        let missing = Missing {
            nak_at: env.now() + self.timeout,
            retries: 0,
        };
        self.missing.extend((start..upto).map(|seq| (seq, missing)));
        if !heard {
            self.missing.insert(upto, missing);
        }
        self.highest_advertised = Some(upto);
        Some(true)
    }

    /// Follows a stream that moved on more than `SPAN` sequences while this
    /// receiver heard none of it: every missing sequence is given up, held
    /// samples are handed up, and the stream resumes at `low`.
    fn resync(&mut self, env: &mut Env<'_>, low: u64) {
        for seq in std::mem::take(&mut self.missing).into_keys() {
            self.give_ups += 1;
            env.emit(|node| ObsEvent::NakGiveUp { node, seq });
        }
        self.try_deliver(env);
        self.highest_advertised = low.checked_sub(1);
    }

    /// Hands up `seq`, which this receiver vetted, making room in the log's
    /// window for it.
    fn deliver(&mut self, env: &mut Env<'_>, seq: u64, sample: (TimePoint, bool)) {
        self.log.make_room(seq);
        accept(&mut self.log, env, seq, sample.0, sample.1);
    }

    /// Delivers held-back samples in order, up to the first sequence still
    /// missing; given-up sequences are in neither map, so they are passed
    /// over.
    fn try_deliver(&mut self, env: &mut Env<'_>) {
        while let Some(held) = self.held.first_entry() {
            if self.missing.keys().next().is_some_and(|&m| m < *held.key()) {
                break;
            }
            let (seq, sample) = held.remove_entry();
            self.deliver(env, seq, sample);
        }
    }

    /// (Re-)arms the scan timer for the earliest pending NAK deadline.
    fn reschedule_scan(&mut self, env: &mut Env<'_>) {
        let Some(min_at) = self.missing.values().map(|m| m.nak_at).min() else {
            return;
        };
        if let Some((token, at)) = self.scan_timer {
            if at <= min_at {
                return;
            }
            env.cancel_timer(token);
        }
        let delay = min_at.saturating_since(env.now());
        let token = env.set_timer(delay, TIMER_SCAN);
        self.scan_timer = Some((token, min_at));
    }

    fn on_scan(&mut self, env: &mut Env<'_>) {
        self.scan_timer = None;
        let now = env.now();
        let mut due = Vec::new();
        let mut exhausted = Vec::new();
        for (&seq, state) in &self.missing {
            if state.nak_at <= now {
                if state.retries >= self.tuning.nak_max_retries {
                    exhausted.push(seq);
                } else {
                    due.push(seq);
                }
            }
        }
        for seq in exhausted {
            self.missing.remove(&seq);
            self.give_ups += 1;
            env.emit(|node| ObsEvent::NakGiveUp { node, seq });
        }
        if !due.is_empty() {
            let size = FRAMING_BYTES + NAK_BASE_BYTES + NAK_PER_SEQ_BYTES * due.len() as u32;
            let os = Span::from_micros_f64(self.tuning.os_packet_cost_us);
            let count = due.len() as u32;
            for seq in &due {
                if let Some(state) = self.missing.get_mut(seq) {
                    state.nak_at = now + self.timeout + renak_backoff(state.retries);
                    state.retries += 1;
                }
            }
            env.send(
                self.sender,
                size,
                TAG_NAK,
                ProcessingCost::symmetric(os),
                WireMsg::Nak(NakMsg { seqs: due }),
            );
            self.naks_sent += 1;
            env.emit(|node| ObsEvent::NakSent { node, count });
        }
        self.try_deliver(env);
        self.reschedule_scan(env);
    }

    fn on_data(&mut self, env: &mut Env<'_>, data: &DataMsg) {
        if data.seq < self.floor {
            // Pre-join history: never buffered or NAKed here — a durable
            // wrapper owns recovery below the join floor.
            return;
        }
        if env.rng().bernoulli(self.drop_probability) {
            self.dropped += 1;
            return;
        }
        let seq = data.seq;
        let Some(ahead) = self.advertise(env, seq, true) else {
            return;
        };
        let published_at = data.published_at;
        if ahead || self.missing.remove(&seq).is_some() {
            self.held.insert(seq, (published_at, data.retransmission));
        } else if self.held.contains_key(&seq) || self.log.window().contains(seq) {
            self.duplicates += 1;
            env.emit(|node| ObsEvent::SampleDuplicate { node, seq });
        } else {
            // Late arrival of a sequence given up on: deliver out of order
            // rather than discard, so reliability reflects it.
            self.deliver(env, seq, (published_at, true));
        }
        self.try_deliver(env);
        self.reschedule_scan(env);
    }
}

impl LiveJoin for NakcastReceiver {
    /// Positions the receiver at the live edge: in-order delivery resumes
    /// at `next`, nothing below it is ever marked missing, the advertised
    /// high-water mark starts just below the join point, and the log's
    /// window starts at it.
    fn join_at(&mut self, next: u64) {
        self.floor = next;
        self.highest_advertised = next.checked_sub(1);
        self.log.start_at(next);
    }
}

impl DataReader for NakcastReceiver {
    fn log(&self) -> &DenseReceptionLog {
        &self.log
    }

    fn log_mut(&mut self) -> &mut DenseReceptionLog {
        &mut self.log
    }

    fn protocol_stats(&self) -> crate::ProtocolStats {
        crate::ProtocolStats {
            naks_sent: self.naks_sent,
            recovered: self.log.recovered_count(),
            give_ups: self.give_ups,
            duplicates: NakcastReceiver::duplicates(self),
            dropped: self.dropped,
            window_overflows: self.window_overflows + self.log.overflow_count(),
            ..crate::ProtocolStats::default()
        }
    }
}

impl ProtocolCore for NakcastReceiver {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::PacketIn { src, msg } => match msg {
                WireMsg::Data(data) => {
                    let data = *data;
                    self.note_sender(src);
                    self.on_data(env, &data);
                }
                WireMsg::Heartbeat(hb) => {
                    self.note_sender(src);
                    if let Some(high) = hb.highest_seq {
                        self.advertise(env, high, false);
                        self.reschedule_scan(env);
                    }
                }
                WireMsg::Fin(fin) => {
                    self.note_sender(src);
                    if fin.total > 0 {
                        self.advertise(env, fin.total - 1, false);
                        self.reschedule_scan(env);
                    }
                }
                _ => {}
            },
            Input::TimerFired {
                tag: TIMER_SCAN, ..
            } => self.on_scan(env),
            Input::Start | Input::TimerFired { .. } | Input::Tick => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::capturing;
    use adamant_metrics::Delivery;
    use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDriver, Simulation};

    fn cfg() -> HostConfig {
        HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1)
    }

    fn run_session(
        samples: u64,
        rate_hz: f64,
        receivers: usize,
        drop_probability: f64,
        timeout: Span,
        seed: u64,
    ) -> (Simulation, Vec<NodeId>) {
        let mut sim = Simulation::new(seed);
        let app = AppSpec::at_rate(samples, rate_hz, 12);
        let profile = StackProfile::new(10.0, 48);
        let tuning = Tuning::default();
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg(),
            SimDriver::new(NakcastSender::new(app, profile, tuning, group)),
        );
        sim.join_group(group, tx);
        let mut rx_nodes = Vec::new();
        for _ in 0..receivers {
            let rx = sim.add_node(
                cfg(),
                SimDriver::new(capturing(NakcastReceiver::new(
                    tx,
                    samples,
                    timeout,
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
    fn lossless_run_delivers_everything_in_order() {
        let (sim, rxs) = run_session(200, 100.0, 2, 0.0, Span::from_millis(1), 7);
        for rx in rxs {
            let r = sim.agent::<NakcastReceiver>(rx).unwrap();
            assert_eq!(r.log().delivered_count(), 200);
            assert_eq!(r.naks_sent(), 0);
            // In-order delivery: sequence numbers ascend.
            let seqs: Vec<u64> = r
                .log()
                .deliveries()
                .expect("captured")
                .map(|d| d.seq)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted);
        }
    }

    #[test]
    fn lossy_run_recovers_to_full_reliability() {
        let (sim, rxs) = run_session(500, 100.0, 3, 0.05, Span::from_millis(1), 13);
        for rx in rxs {
            let r = sim.agent::<NakcastReceiver>(rx).unwrap();
            assert_eq!(
                r.log().delivered_count(),
                500,
                "NAKcast should recover all losses (dropped={}, naks={}, give_ups={})",
                r.dropped(),
                r.naks_sent(),
                r.give_ups()
            );
            assert!(r.dropped() > 0, "loss injection should have fired");
            assert!(r.naks_sent() > 0);
            assert!(r.log().recovered_count() > 0);
        }
    }

    #[test]
    fn recovered_packets_pay_recovery_latency() {
        let (sim, rxs) = run_session(500, 100.0, 1, 0.05, Span::from_millis(1), 17);
        let r = sim.agent::<NakcastReceiver>(rxs[0]).unwrap();
        let (rec, orig): (Vec<_>, Vec<_>) = r
            .log()
            .deliveries()
            .expect("captured")
            .partition(|d| d.recovered);
        assert!(!rec.is_empty());
        let avg = |v: &[Delivery]| {
            v.iter().map(|d| d.latency().as_micros_f64()).sum::<f64>() / v.len() as f64
        };
        assert!(
            avg(&rec) > 5.0 * avg(&orig),
            "recovery should cost detection + timeout + RTT: rec {} vs orig {}",
            avg(&rec),
            avg(&orig)
        );
    }

    #[test]
    fn larger_timeout_means_slower_recovery() {
        let avg_latency = |timeout_ms: u64| {
            let (sim, rxs) = run_session(500, 100.0, 1, 0.05, Span::from_millis(timeout_ms), 23);
            let r = sim.agent::<NakcastReceiver>(rxs[0]).unwrap();
            let lat: Vec<f64> = r
                .log()
                .deliveries()
                .expect("captured")
                .map(|d| d.latency().as_micros_f64())
                .collect();
            lat.iter().sum::<f64>() / lat.len() as f64
        };
        let fast = avg_latency(1);
        let slow = avg_latency(50);
        assert!(
            slow > fast + 500.0,
            "50 ms timeout should be visibly slower: {slow} vs {fast}"
        );
    }

    #[test]
    fn renak_backoff_is_exponential_and_capped() {
        assert_eq!(renak_backoff(0), Span::from_millis(5));
        assert_eq!(renak_backoff(1), Span::from_millis(10));
        assert_eq!(renak_backoff(3), Span::from_millis(40));
        assert_eq!(renak_backoff(16), Span::from_secs(2));
        assert_eq!(renak_backoff(60), Span::from_secs(2));
    }

    #[test]
    fn recovery_bound_covers_full_retry_schedule() {
        let tuning = Tuning::default();
        let lazy = nakcast_recovery_bound(Span::from_millis(50), &tuning);
        let eager = nakcast_recovery_bound(Span::from_millis(1), &tuning);
        assert!(eager < lazy);
        // 21 rounds of timeout + exponential backoff capped at 2 s: the
        // bound is loose but finite.
        assert!(lazy > Span::from_secs(10));
        assert!(lazy < Span::from_secs(60));
    }

    #[test]
    fn satellite_rtt_does_not_storm_naks() {
        // A 250 ms uplink makes the NAK→retransmission round trip ~500 ms;
        // with exponential backoff the duplicate-NAK amplification stays
        // bounded and reliability still converges.
        let mut sim = Simulation::new(7);
        let dc = cfg();
        let ground = cfg().with_uplink_delay(Span::from_millis(250));
        let app = AppSpec::at_rate(300, 50.0, 12);
        let tuning = Tuning::default();
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            ground,
            SimDriver::new(NakcastSender::new(
                app,
                StackProfile::new(10.0, 48),
                tuning,
                group,
            )),
        );
        sim.join_group(group, tx);
        let rx = sim.add_node(
            dc,
            SimDriver::new(capturing(NakcastReceiver::new(
                tx,
                300,
                Span::from_millis(1),
                tuning,
                0.1,
            ))),
        );
        sim.join_group(group, rx);
        sim.run_until(adamant_netsim::SimTime::from_secs(30));
        let r = sim.agent::<NakcastReceiver>(rx).unwrap();
        assert_eq!(r.log().delivered_count(), 300);
        // ~30 losses × ~8 backoff attempts before the 500 ms round trip
        // completes ≈ 200 NAKs. Without backoff the fixed 6 ms re-NAK
        // cycle would send ~80 NAKs per loss (~2500 total).
        assert!(
            r.naks_sent() < 350,
            "NAK amplification too high: {}",
            r.naks_sent()
        );
        let s = sim.agent::<NakcastSender>(tx).unwrap();
        assert!(
            s.retransmissions_sent() < 350,
            "retransmission amplification too high: {}",
            s.retransmissions_sent()
        );
    }

    #[test]
    fn tail_loss_recovered_via_fin() {
        // Tiny stream at low rate: losses in the tail can only be detected
        // through heartbeat/FIN advertisement.
        let (sim, rxs) = run_session(20, 10.0, 1, 0.3, Span::from_millis(1), 29);
        let r = sim.agent::<NakcastReceiver>(rxs[0]).unwrap();
        assert_eq!(r.log().delivered_count(), 20);
    }

    #[test]
    fn partitioned_receiver_reconverges_after_heal() {
        // Partition one receiver away from the sender mid-stream, heal
        // before the stream ends, and require NAK recovery to reconverge
        // to full reliability — the blackout window's losses are repaired
        // through the heartbeat-advertised high-water mark.
        let mut sim = Simulation::new(19);
        let samples = 400u64;
        let app = AppSpec::at_rate(samples, 100.0, 12);
        let tuning = Tuning::default();
        let group = sim.create_group(&[]);
        let tx = sim.add_node(
            cfg(),
            SimDriver::new(NakcastSender::new(
                app,
                StackProfile::new(10.0, 48),
                tuning,
                group,
            )),
        );
        sim.join_group(group, tx);
        let near = sim.add_node(
            cfg(),
            SimDriver::new(capturing(NakcastReceiver::new(
                tx,
                samples,
                Span::from_millis(1),
                tuning,
                0.0,
            ))),
        );
        sim.join_group(group, near);
        let far = sim.add_node(
            cfg(),
            SimDriver::new(capturing(NakcastReceiver::new(
                tx,
                samples,
                Span::from_millis(1),
                tuning,
                0.0,
            ))),
        );
        sim.join_group(group, far);

        let mut plan = adamant_netsim::FaultPlan::new()
            .partition_at(
                adamant_netsim::SimTime::from_secs(1),
                vec![vec![tx, near], vec![far]],
            )
            .heal_at(adamant_netsim::SimTime::from_secs(2));
        plan.run_until(&mut sim, adamant_netsim::SimTime::from_secs(10));

        assert!(
            sim.stats().tag(crate::tags::TAG_DATA).partition_drops > 50,
            "the partition should have blacked out ~100 data packets"
        );
        for (name, rx) in [("near", near), ("far", far)] {
            let r = sim.agent::<NakcastReceiver>(rx).unwrap();
            assert_eq!(
                r.log().delivered_count(),
                samples,
                "{name} receiver failed to reconverge (naks={}, give_ups={})",
                r.naks_sent(),
                r.give_ups()
            );
        }
        // The far receiver did the recovering.
        let far_r = sim.agent::<NakcastReceiver>(far).unwrap();
        assert!(far_r.naks_sent() > 0);
        assert!(far_r.log().recovered_count() > 50);
    }

    #[test]
    fn sender_counts_retransmissions() {
        let (sim, _) = run_session(500, 100.0, 2, 0.05, Span::from_millis(1), 31);
        let tx_node = NodeId::from_index(0);
        let s = sim.agent::<NakcastSender>(tx_node).unwrap();
        assert!(s.retransmissions_sent() > 0);
    }
}
