//! Warm-standby sender failover for NAKcast sessions.
//!
//! A [`NakcastStandby`] sits in the session's multicast group next to the
//! primary sender, passively recording the stream it overhears (sequence
//! numbers and publication times) and the last instant it heard *any*
//! session traffic. Heartbeat silence longer than the detection timeout is
//! treated as a primary crash: the standby promotes itself, adopts the
//! overheard publication history, and continues the stream from the next
//! unpublished sequence — answering NAKs for the predecessor's samples
//! from the adopted history. Receivers re-target their NAKs automatically
//! when they hear session traffic from the new source (see
//! [`NakcastReceiver::sender_changes`](crate::NakcastReceiver::sender_changes)).

use std::collections::BTreeMap;

use adamant_proto::{Env, GroupId, Input, ObsEvent, ProtocolCore, Span, TimePoint, WireMsg};

use crate::config::Tuning;
use crate::nakcast::NakcastSender;
use crate::profile::{AppSpec, StackProfile};
use crate::publisher::PublisherCore;

/// Timer tag for the standby's periodic liveness check.
const TIMER_FAILCHECK: u64 = 40;

/// A passive replica of a NAKcast sender that promotes itself when the
/// primary falls silent.
#[derive(Debug)]
pub struct NakcastStandby {
    core: PublisherCore,
    /// Heartbeat silence that counts as a primary failure.
    detect_timeout: Span,
    /// How often the standby checks for silence.
    check_interval: Span,
    /// Overheard publications: sequence → publication time.
    observed: BTreeMap<u64, TimePoint>,
    /// Highest sequence advertised by heartbeats/FIN (may exceed what the
    /// standby itself received).
    highest_advertised: Option<u64>,
    last_heard: Option<TimePoint>,
    started_at: TimePoint,
    promoted: bool,
    promoted_at: Option<TimePoint>,
}

impl NakcastStandby {
    /// Creates a standby for a session publishing `app` into `group`. The
    /// standby declares the primary failed after `detect_timeout` of
    /// silence; pick a multiple of the heartbeat interval so an isolated
    /// heartbeat loss does not trigger a spurious promotion.
    pub fn new(
        app: AppSpec,
        profile: StackProfile,
        tuning: Tuning,
        group: GroupId,
        detect_timeout: Span,
    ) -> Self {
        let check_interval = Span::from_nanos((detect_timeout.as_nanos() / 4).max(1));
        NakcastStandby {
            // Once promoted, it publishes exactly as a NAKcast sender does.
            core: NakcastSender::new(app, profile, tuning, group).core,
            detect_timeout,
            check_interval,
            observed: BTreeMap::new(),
            highest_advertised: None,
            last_heard: None,
            started_at: TimePoint::ZERO,
            promoted: false,
            promoted_at: None,
        }
    }

    /// Whether the standby has taken over the stream.
    pub fn is_promoted(&self) -> bool {
        self.promoted
    }

    /// When the standby promoted itself, if it has.
    pub fn promoted_at(&self) -> Option<TimePoint> {
        self.promoted_at
    }

    /// Distinct publications overheard while passive.
    pub fn observed_count(&self) -> u64 {
        self.observed.len() as u64
    }

    /// Unicast retransmissions answered since promotion.
    pub fn retransmissions_sent(&self) -> u64 {
        self.core.retransmissions_sent()
    }

    /// Samples published by this standby's own incarnation of the stream
    /// (includes the adopted predecessor history after promotion).
    pub fn published(&self) -> u64 {
        self.core.published()
    }

    fn note_heard(&mut self, now: TimePoint) {
        self.last_heard = Some(now);
    }

    fn note_advertised(&mut self, seq: u64) {
        self.highest_advertised = Some(self.highest_advertised.map_or(seq, |h| h.max(seq)));
    }

    /// Adopts the overheard history and takes over the stream.
    fn promote(&mut self, env: &mut Env<'_>) {
        self.promoted = true;
        self.promoted_at = Some(env.now());
        env.emit(|node| ObsEvent::FailoverPromoted { node });
        let high = match (self.observed.keys().next_back(), self.highest_advertised) {
            (Some(&o), Some(a)) => Some(o.max(a)),
            (Some(&o), None) => Some(o),
            (None, a) => a,
        };
        let history = match high {
            None => Vec::new(),
            Some(high) => {
                // Hole-fill publication times the standby never heard
                // (copies lost on its own link) with the nearest earlier
                // known time: latency accounting for those retransmissions
                // stays conservative, and the data itself is regenerable
                // from the application model.
                let mut history = Vec::with_capacity(high as usize + 1);
                let mut last = self.started_at;
                for seq in 0..=high {
                    let at = self.observed.get(&seq).copied().unwrap_or(last);
                    last = at;
                    history.push(at);
                }
                history
            }
        };
        self.core.resume_from(history);
        if self.core.is_finished() {
            // The primary died after its last publication: receivers may
            // still be missing the FIN (and tail samples, which they will
            // NAK from us).
            self.core.announce_fin(env);
        } else {
            self.core.start(env);
        }
    }
}

impl ProtocolCore for NakcastStandby {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => {
                self.started_at = env.now();
                env.set_timer(self.check_interval, TIMER_FAILCHECK);
            }
            Input::PacketIn { src, msg } => {
                if self.promoted {
                    if let WireMsg::Nak(nak) = msg {
                        for &seq in &nak.seqs {
                            self.core.retransmit(env, src, seq);
                        }
                    }
                    return;
                }
                let now = env.now();
                match msg {
                    WireMsg::Data(data) => {
                        self.note_heard(now);
                        self.note_advertised(data.seq);
                        self.observed.insert(data.seq, data.published_at);
                    }
                    WireMsg::Heartbeat(hb) => {
                        self.note_heard(now);
                        if let Some(high) = hb.highest_seq {
                            self.note_advertised(high);
                        }
                    }
                    WireMsg::Fin(fin) => {
                        self.note_heard(now);
                        if fin.total > 0 {
                            self.note_advertised(fin.total - 1);
                        }
                    }
                    _ => {}
                }
            }
            Input::TimerFired { tag, .. } => {
                if tag != TIMER_FAILCHECK {
                    if self.promoted {
                        self.core.handle_timer(env, tag);
                    }
                    return;
                }
                if self.promoted {
                    return;
                }
                let silent_since = self.last_heard.unwrap_or(self.started_at);
                if env.now().saturating_since(silent_since) >= self.detect_timeout {
                    self.promote(env);
                } else {
                    env.set_timer(self.check_interval, TIMER_FAILCHECK);
                }
            }
            Input::Tick => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nakcast::{NakcastReceiver, NakcastSender};
    use crate::receiver::DataReader;
    use adamant_netsim::{
        Bandwidth, FaultPlan, HostConfig, MachineClass, NodeId, SimDriver, SimTime, Simulation,
    };

    fn cfg() -> HostConfig {
        HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1)
    }

    struct Session {
        sim: Simulation,
        tx: NodeId,
        standby: NodeId,
        rxs: Vec<NodeId>,
    }

    fn build(samples: u64, rate_hz: f64, receivers: usize, drop_p: f64, seed: u64) -> Session {
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
        let standby = sim.add_node(
            cfg(),
            SimDriver::new(NakcastStandby::new(
                app,
                profile,
                tuning,
                group,
                Span::from_millis(100),
            )),
        );
        sim.join_group(group, standby);
        let mut rxs = Vec::new();
        for _ in 0..receivers {
            let rx = sim.add_node(
                cfg(),
                SimDriver::new(NakcastReceiver::new(
                    tx,
                    samples,
                    Span::from_millis(1),
                    tuning,
                    drop_p,
                )),
            );
            sim.join_group(group, rx);
            rxs.push(rx);
        }
        Session {
            sim,
            tx,
            standby,
            rxs,
        }
    }

    #[test]
    fn standby_stays_passive_while_primary_lives() {
        let mut s = build(100, 100.0, 2, 0.0, 3);
        s.sim.run_until(SimTime::from_millis(500));
        let standby = s.sim.agent::<NakcastStandby>(s.standby).unwrap();
        assert!(!standby.is_promoted());
        assert!(standby.observed_count() >= 45);
        for &rx in &s.rxs {
            let r = s.sim.agent::<NakcastReceiver>(rx).unwrap();
            assert_eq!(r.sender_changes(), 0);
        }
    }

    #[test]
    fn failover_continues_stream_to_full_delivery() {
        // 500 samples at 100 Hz = 5 s of publishing; crash the primary
        // mid-stream and let the standby finish the job.
        let mut s = build(500, 100.0, 3, 0.02, 11);
        let mut plan = FaultPlan::new().crash_at(SimTime::from_secs(2), s.tx);
        plan.run_until(&mut s.sim, SimTime::from_secs(12));
        let standby = s.sim.agent::<NakcastStandby>(s.standby).unwrap();
        assert!(standby.is_promoted());
        // Detection happened within the timeout plus one check interval.
        let detected = standby.promoted_at().unwrap();
        assert!(
            detected < SimTime::from_millis(2_200),
            "slow detection: {detected:?}"
        );
        assert_eq!(standby.published(), 500);
        for &rx in &s.rxs {
            let r = s.sim.agent::<NakcastReceiver>(rx).unwrap();
            assert_eq!(
                r.log().delivered_count(),
                500,
                "receiver missed samples across the failover (naks={}, give_ups={})",
                r.protocol_stats().naks_sent,
                r.protocol_stats().give_ups
            );
            assert_eq!(r.sender_changes(), 1);
            assert_eq!(r.sender(), s.standby);
        }
    }

    #[test]
    fn late_crash_promotes_standby_to_answer_tail_naks() {
        // Crash right after the final publication: the FIN and tail
        // samples may be unrecovered at some receivers, which must NAK
        // the promoted standby instead of the dead primary.
        let mut s = build(200, 100.0, 2, 0.05, 17);
        let mut plan = FaultPlan::new().crash_at(SimTime::from_millis(1_995), s.tx);
        plan.run_until(&mut s.sim, SimTime::from_secs(10));
        let standby = s.sim.agent::<NakcastStandby>(s.standby).unwrap();
        assert!(standby.is_promoted());
        for &rx in &s.rxs {
            let r = s.sim.agent::<NakcastReceiver>(rx).unwrap();
            assert_eq!(r.log().delivered_count(), 200);
        }
    }

    #[test]
    fn failover_is_deterministic() {
        let run = |seed: u64| {
            let mut s = build(300, 100.0, 2, 0.05, seed);
            let mut plan = FaultPlan::new().crash_at(SimTime::from_millis(1_500), s.tx);
            plan.run_until(&mut s.sim, SimTime::from_secs(10));
            let standby = s.sim.agent::<NakcastStandby>(s.standby).unwrap();
            let mut out = vec![(standby.published(), standby.retransmissions_sent())];
            for &rx in &s.rxs {
                let r = s.sim.agent::<NakcastReceiver>(rx).unwrap();
                out.push((r.log().delivered_count(), r.protocol_stats().naks_sent));
            }
            out
        };
        assert_eq!(run(23), run(23));
    }
}
