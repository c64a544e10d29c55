//! Simple participant/endpoint discovery (an SPDP/SEDP-flavoured
//! simulation).
//!
//! Real DDS implementations discover each other before any data flows:
//! participants multicast periodic announcements describing their
//! endpoints, and writers match readers with compatible topic + QoS. This
//! module reproduces that startup phase as a sans-I/O [`ProtocolCore`], so
//! experiments can account for middleware bring-up time (part of the
//! paper's "timely configuration" concern), tests can assert on matching
//! semantics, and the same state machine announces over the simulator or
//! over real UDP (`adamant-rt`). QoS travels on the wire as the stable
//! [`QosProfile::code`] inside [`EndpointAd`].

use std::collections::BTreeMap;
use std::sync::Arc;

use adamant_proto::wire::{DiscoveryMsg, EndpointAd};
use adamant_proto::{Env, GroupId, Input, ProcessingCost, ProtocolCore, Span, TimePoint, WireMsg};

use crate::qos::QosProfile;

/// Wire tag for discovery announcements.
pub const TAG_DISCOVERY: u16 = 16;

/// One endpoint advertised by a participant.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointInfo {
    /// Topic name.
    pub topic: String,
    /// `true` for a data writer, `false` for a data reader.
    pub is_writer: bool,
    /// Offered (writer) or requested (reader) QoS.
    pub qos: QosProfile,
}

impl EndpointInfo {
    /// Creates an endpoint description. Accepts anything convertible to a
    /// topic `String` (`&str`, `String`, `Cow<str>`), so call sites and
    /// tests need no `.to_owned()` boilerplate.
    pub fn new(topic: impl Into<String>, is_writer: bool, qos: QosProfile) -> Self {
        EndpointInfo {
            topic: topic.into(),
            is_writer,
            qos,
        }
    }
}

/// Discovery timing constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscoveryConfig {
    /// Interval between announcements.
    pub announce_interval: Span,
    /// How long to keep announcing (bounds the simulation; real SPDP
    /// announces forever).
    pub announce_for: Span,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            announce_interval: Span::from_millis(100),
            announce_for: Span::from_secs(5),
        }
    }
}

/// A matched writer/reader pair discovered on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// Topic the endpoints share.
    pub topic: String,
    /// Writer's participant id.
    pub writer_participant: u32,
    /// Reader's participant id.
    pub reader_participant: u32,
    /// When the match was established (at the observing participant).
    pub matched_at: TimePoint,
}

const TIMER_ANNOUNCE: u64 = 40;

/// The discovery state machine: announces its own endpoints and matches
/// remote announcements against them. Runs under any [`ProtocolCore`]
/// driver — mount it on the simulator with `SimDriver` or on real sockets
/// with `adamant_rt::MuxCluster`.
#[derive(Debug)]
pub struct DiscoveryCore {
    participant_id: u32,
    /// Incarnation of this participant: bumped on restart so peers can
    /// tell a rebooted process from a delayed duplicate announcement.
    epoch: u32,
    group: GroupId,
    endpoints: Vec<EndpointInfo>,
    /// The announcement message, built once: the contents never change, so
    /// every periodic announce shares this allocation instead of cloning
    /// the endpoint list.
    announcement: Arc<DiscoveryMsg>,
    config: DiscoveryConfig,
    started_at: TimePoint,
    /// Remote participants seen (id → current epoch + last announcement
    /// time).
    seen: BTreeMap<u32, (u32, TimePoint)>,
    matches: Vec<Match>,
    announcements_sent: u64,
    stale_prunes: u64,
}

impl DiscoveryCore {
    /// Creates a discovery core for participant `participant_id`
    /// announcing `endpoints` on `group`.
    pub fn new(
        participant_id: u32,
        group: GroupId,
        endpoints: Vec<EndpointInfo>,
        config: DiscoveryConfig,
    ) -> Self {
        let announcement = Self::build_announcement(participant_id, 0, &endpoints);
        DiscoveryCore {
            participant_id,
            epoch: 0,
            group,
            endpoints,
            announcement,
            config,
            started_at: TimePoint::ZERO,
            seen: BTreeMap::new(),
            matches: Vec::new(),
            announcements_sent: 0,
            stale_prunes: 0,
        }
    }

    /// Sets this participant's incarnation epoch (restarted processes
    /// announce a higher epoch so peers prune state from the previous
    /// incarnation).
    pub fn with_epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self.announcement = Self::build_announcement(self.participant_id, epoch, &self.endpoints);
        self
    }

    fn build_announcement(
        participant_id: u32,
        epoch: u32,
        endpoints: &[EndpointInfo],
    ) -> Arc<DiscoveryMsg> {
        Arc::new(DiscoveryMsg {
            participant_id,
            epoch,
            endpoints: endpoints
                .iter()
                .map(|e| EndpointAd {
                    topic: e.topic.clone(),
                    is_writer: e.is_writer,
                    qos_code: e.qos.code(),
                })
                .collect(),
        })
    }

    /// Matches established so far (ordered by discovery time).
    pub fn matches(&self) -> &[Match] {
        &self.matches
    }

    /// Remote participants heard from.
    pub fn participants_seen(&self) -> usize {
        self.seen.len()
    }

    /// Announcements this participant multicast.
    pub fn announcements_sent(&self) -> u64 {
        self.announcements_sent
    }

    /// Times a restarted remote participant's stale state was pruned.
    pub fn stale_prunes(&self) -> u64 {
        self.stale_prunes
    }

    /// Time from start to the first established match, if any.
    pub fn time_to_first_match(&self) -> Option<Span> {
        self.matches
            .first()
            .map(|m| m.matched_at.saturating_since(self.started_at))
    }

    fn announce(&mut self, env: &mut Env<'_>) {
        // ~48 B header + ~64 B per endpoint entry, SPDP-ish.
        let size = 48 + 64 * self.endpoints.len() as u32;
        env.send(
            self.group,
            size,
            TAG_DISCOVERY,
            ProcessingCost::symmetric(Span::from_micros(20)),
            WireMsg::Discovery(Arc::clone(&self.announcement)),
        );
        self.announcements_sent += 1;
    }

    fn consider(&mut self, now: TimePoint, remote: &DiscoveryMsg) {
        match self.seen.get(&remote.participant_id) {
            // A delayed announcement from a dead incarnation: ignore it
            // entirely, or a restarted participant would flap back to its
            // stale endpoint set.
            Some(&(epoch, _)) if remote.epoch < epoch => return,
            // Same incarnation: refresh liveness, matches already stand.
            Some(&(epoch, _)) if remote.epoch == epoch => {
                self.seen.insert(remote.participant_id, (epoch, now));
                return;
            }
            // Higher epoch: the participant crashed and restarted. Its old
            // endpoints no longer exist, so prune every match involving it
            // and re-evaluate against the new incarnation's announcement.
            Some(_) => {
                let restarted = remote.participant_id;
                self.matches.retain(|m| {
                    m.writer_participant != restarted && m.reader_participant != restarted
                });
                self.stale_prunes += 1;
            }
            None => {}
        }
        self.seen.insert(remote.participant_id, (remote.epoch, now));
        for local in &self.endpoints {
            for other in &remote.endpoints {
                if local.topic != other.topic || local.is_writer == other.is_writer {
                    continue;
                }
                let other_qos = QosProfile::from_code(other.qos_code);
                let (writer_qos, reader_qos, wp, rp) = if local.is_writer {
                    (
                        &local.qos,
                        &other_qos,
                        self.participant_id,
                        remote.participant_id,
                    )
                } else {
                    (
                        &other_qos,
                        &local.qos,
                        remote.participant_id,
                        self.participant_id,
                    )
                };
                if writer_qos.compatible_with(reader_qos).is_ok() {
                    self.matches.push(Match {
                        topic: local.topic.clone(),
                        writer_participant: wp,
                        reader_participant: rp,
                        matched_at: now,
                    });
                }
            }
        }
    }
}

impl ProtocolCore for DiscoveryCore {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => {
                self.started_at = env.now();
                // Random phase, like every periodic protocol in this
                // workspace.
                let interval = self.config.announce_interval.as_nanos();
                let phase = Span::from_nanos(env.rng().next_below(interval.max(1)));
                env.set_timer(phase, TIMER_ANNOUNCE);
            }
            Input::TimerFired { tag, .. } if tag == TIMER_ANNOUNCE => {
                self.announce(env);
                if env.now().saturating_since(self.started_at) < self.config.announce_for {
                    env.set_timer(self.config.announce_interval, TIMER_ANNOUNCE);
                }
            }
            Input::PacketIn {
                msg: WireMsg::Discovery(remote),
                ..
            } => {
                let remote = Arc::clone(remote);
                self.consider(env.now(), &remote);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::QosProfile;
    use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDriver, Simulation};

    fn endpoint(topic: &str, is_writer: bool, qos: QosProfile) -> EndpointInfo {
        EndpointInfo::new(topic, is_writer, qos)
    }

    fn run_discovery(
        participants: Vec<Vec<EndpointInfo>>,
    ) -> (Simulation, Vec<adamant_netsim::NodeId>) {
        let mut sim = Simulation::new(77);
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let group = sim.create_group(&[]);
        let mut nodes = Vec::new();
        for (i, endpoints) in participants.into_iter().enumerate() {
            let node = sim.add_node(
                cfg,
                SimDriver::new(DiscoveryCore::new(
                    i as u32,
                    group,
                    endpoints,
                    DiscoveryConfig::default(),
                )),
            );
            sim.join_group(group, node);
            nodes.push(node);
        }
        sim.run_until(TimePoint::from_secs(6));
        (sim, nodes)
    }

    #[test]
    fn compatible_endpoints_match_quickly() {
        let (sim, nodes) = run_discovery(vec![
            vec![endpoint("sensors", true, QosProfile::reliable())],
            vec![endpoint("sensors", false, QosProfile::best_effort())],
            vec![endpoint("sensors", false, QosProfile::reliable())],
        ]);
        // The writer sees both readers.
        let writer = sim.agent::<DiscoveryCore>(nodes[0]).unwrap();
        assert_eq!(writer.matches().len(), 2);
        assert_eq!(writer.participants_seen(), 2);
        // Each reader sees the writer.
        for &node in &nodes[1..] {
            let reader = sim.agent::<DiscoveryCore>(node).unwrap();
            assert_eq!(reader.matches().len(), 1);
            assert_eq!(reader.matches()[0].writer_participant, 0);
            // Matching completes within a couple of announce intervals.
            let ttm = reader.time_to_first_match().unwrap();
            assert!(ttm <= Span::from_millis(250), "slow discovery: {ttm}");
        }
    }

    #[test]
    fn incompatible_qos_does_not_match() {
        let (sim, nodes) = run_discovery(vec![
            vec![endpoint("video", true, QosProfile::best_effort())],
            // Reader demands reliability the writer does not offer.
            vec![endpoint("video", false, QosProfile::reliable())],
        ]);
        for &node in &nodes {
            let agent = sim.agent::<DiscoveryCore>(node).unwrap();
            assert_eq!(agent.matches().len(), 0);
            assert_eq!(agent.participants_seen(), 1, "they still see each other");
        }
    }

    #[test]
    fn different_topics_do_not_match() {
        let (sim, nodes) = run_discovery(vec![
            vec![endpoint("a", true, QosProfile::reliable())],
            vec![endpoint("b", false, QosProfile::best_effort())],
        ]);
        for &node in &nodes {
            assert!(sim
                .agent::<DiscoveryCore>(node)
                .unwrap()
                .matches()
                .is_empty());
        }
    }

    #[test]
    fn higher_epoch_restart_prunes_stale_matches_and_rematches() {
        let group = Simulation::new(0).create_group(&[]);
        let mut core = DiscoveryCore::new(
            0,
            group,
            vec![endpoint("t", true, QosProfile::reliable())],
            DiscoveryConfig::default(),
        );
        let reader_ad = EndpointAd {
            topic: "t".to_owned(),
            is_writer: false,
            qos_code: QosProfile::reliable().code(),
        };
        let v1 = DiscoveryMsg {
            participant_id: 7,
            epoch: 0,
            endpoints: vec![reader_ad.clone()],
        };
        core.consider(TimePoint::from_millis(1), &v1);
        assert_eq!(core.matches().len(), 1);

        // The participant restarts; its new incarnation has no reader yet.
        let v2 = DiscoveryMsg {
            participant_id: 7,
            epoch: 1,
            endpoints: vec![],
        };
        core.consider(TimePoint::from_millis(2), &v2);
        assert!(core.matches().is_empty(), "stale matches pruned");
        assert_eq!(core.stale_prunes(), 1);

        // A delayed duplicate from the dead incarnation changes nothing.
        core.consider(TimePoint::from_millis(3), &v1);
        assert!(core.matches().is_empty());
        assert_eq!(core.stale_prunes(), 1);

        // The next incarnation brings the reader back: fresh match.
        let v3 = DiscoveryMsg {
            participant_id: 7,
            epoch: 2,
            endpoints: vec![reader_ad],
        };
        core.consider(TimePoint::from_millis(4), &v3);
        assert_eq!(core.matches().len(), 1);
        assert_eq!(core.matches()[0].matched_at, TimePoint::from_millis(4));
        assert_eq!(core.participants_seen(), 1);
    }

    #[test]
    fn with_epoch_rebuilds_the_announcement() {
        let group = Simulation::new(0).create_group(&[]);
        let core = DiscoveryCore::new(
            3,
            group,
            vec![endpoint("t", true, QosProfile::reliable())],
            DiscoveryConfig::default(),
        )
        .with_epoch(5);
        assert_eq!(core.announcement.epoch, 5);
        assert_eq!(core.announcement.participant_id, 3);
        assert_eq!(core.announcement.endpoints.len(), 1);
    }

    #[test]
    fn announcements_stop_after_window() {
        let (sim, nodes) = run_discovery(vec![vec![endpoint("t", true, QosProfile::reliable())]]);
        let agent = sim.agent::<DiscoveryCore>(nodes[0]).unwrap();
        // ~5 s window at 100 ms intervals → ~50 announcements, then quiet.
        assert!(
            (45..=55).contains(&agent.announcements_sent()),
            "sent {}",
            agent.announcements_sent()
        );
    }

    #[test]
    fn writers_and_readers_in_one_participant_both_match() {
        let (sim, nodes) = run_discovery(vec![
            vec![
                endpoint("up", true, QosProfile::reliable()),
                endpoint("down", false, QosProfile::best_effort()),
            ],
            vec![
                endpoint("up", false, QosProfile::reliable()),
                endpoint("down", true, QosProfile::reliable()),
            ],
        ]);
        let a = sim.agent::<DiscoveryCore>(nodes[0]).unwrap();
        let topics: Vec<&str> = a.matches().iter().map(|m| m.topic.as_str()).collect();
        assert!(topics.contains(&"up"));
        assert!(topics.contains(&"down"));
    }

    #[test]
    fn discovery_runs_over_real_udp_loopback() {
        use adamant_proto::NodeId;
        use adamant_rt::{MuxCluster, MuxConfig};
        use std::time::Duration;

        let cores = [
            DiscoveryCore::new(
                0,
                GroupId(0),
                vec![endpoint("sensors", true, QosProfile::reliable())],
                DiscoveryConfig {
                    announce_interval: Span::from_millis(5),
                    announce_for: Span::from_secs(1),
                },
            ),
            DiscoveryCore::new(
                1,
                GroupId(0),
                vec![endpoint("sensors", false, QosProfile::reliable())],
                DiscoveryConfig {
                    announce_interval: Span::from_millis(5),
                    announce_for: Span::from_secs(1),
                },
            ),
        ];
        // One endpoint per worker, so every announcement crosses threads.
        let mut cluster = MuxCluster::bind("127.0.0.1:0", MuxConfig::new(2)).unwrap();
        let ids: Vec<_> = cores
            .into_iter()
            .enumerate()
            .map(|(i, core)| cluster.add_endpoint(NodeId(i as u32), core).unwrap())
            .collect();
        cluster.connect_full_mesh().unwrap();
        cluster.run_for(Duration::from_millis(120)).unwrap();
        let [writer, reader] =
            [ids[0], ids[1]].map(|id| cluster.core::<DiscoveryCore>(id).unwrap());
        assert_eq!(writer.matches().len(), 1, "writer matched the reader");
        assert_eq!(reader.matches().len(), 1, "reader matched the writer");
        assert_eq!(reader.matches()[0].writer_participant, 0);
    }
}
