//! The simulator binding of a transport session: places a topic's writer
//! and readers on simulated hosts, mounts the cores a [`SessionSpec`]
//! builds there, reads them back after a run, and pools their QoS into a
//! [`QosReport`]. The DDS entities know no hosts; placement is an argument
//! here.
//!
//! A session's nodes carry boxed cores — `Box<dyn WriterCore>` on the
//! sender, `Box<dyn DataReader>` on each receiver — so every read-back
//! here is one downcast, whatever the protocol.

use adamant_metrics::QosReport;
use adamant_netsim::{GroupId, HostConfig, NodeId, SimDriver, Simulation};
use adamant_transport::{tags, DataReader, SessionSpec, TransportConfig, WriterCore};

use crate::domain::{DdsError, DomainParticipant, Topic};

/// Node handles of an installed session.
#[derive(Debug, Clone)]
pub struct SessionHandles {
    /// The data-writer node.
    pub sender: NodeId,
    /// The data-reader nodes.
    pub receivers: Vec<NodeId>,
    /// The multicast group connecting them.
    pub group: GroupId,
    /// Samples the writer will publish.
    pub expected_samples: u64,
}

/// Validates `topic` for a session over `transport` and installs it into
/// `sim`: the writer on a node of `writer_host`, then one reader node per
/// entry of `reader_hosts`, in the order the readers were created.
///
/// # Errors
///
/// Every error of [`DomainParticipant::session_spec`], and
/// [`DdsError::ReaderPlacement`] unless `reader_hosts` holds one host per
/// reader of the topic. A refused install adds nothing to `sim`.
pub fn install_topic(
    sim: &mut Simulation,
    participant: &DomainParticipant,
    topic: Topic,
    transport: TransportConfig,
    writer_host: HostConfig,
    reader_hosts: &[HostConfig],
) -> Result<SessionHandles, DdsError> {
    let spec = participant.session_spec(topic, transport)?;
    let readers = participant.reader_count(topic);
    if reader_hosts.len() != readers {
        return Err(DdsError::ReaderPlacement {
            topic: participant.topic_name(topic).to_owned(),
            readers,
            hosts: reader_hosts.len(),
        });
    }
    Ok(install(sim, &spec, writer_host, reader_hosts))
}

/// Re-validates `topic` against `transport` and swaps the live session
/// `handles` over to it mid-stream — the self-healing protocol switch, by
/// [`reinstall`]. Every node keeps its host; the new writer publishes
/// `remaining_samples` fresh samples.
///
/// # Errors
///
/// Every error of [`DomainParticipant::session_spec`]; in particular a
/// transport that cannot honour the topic's QoS is refused.
pub fn reinstall_topic(
    sim: &mut Simulation,
    participant: &DomainParticipant,
    topic: Topic,
    handles: &SessionHandles,
    transport: TransportConfig,
    remaining_samples: u64,
) -> Result<SessionHandles, DdsError> {
    let mut spec = participant.session_spec(topic, transport)?;
    spec.app.total_samples = remaining_samples;
    Ok(reinstall(sim, &spec, handles))
}

/// Installs `spec`'s session into `sim`: the writer on a node of
/// `sender_host`, one reader on a node of each of `receiver_hosts`, and the
/// multicast group joining them.
pub fn install(
    sim: &mut Simulation,
    spec: &SessionSpec,
    sender_host: HostConfig,
    receiver_hosts: &[HostConfig],
) -> SessionHandles {
    for (tag, label) in tags::LABELS {
        sim.register_tag(tag, label);
    }
    let group = sim.create_group(&[]);
    let sender = sim.add_node(sender_host, SimDriver::new(spec.build_writer(group)));
    sim.join_group(group, sender);
    let receivers = receiver_hosts
        .iter()
        .map(|&host| {
            let node = sim.add_node(host, SimDriver::new(spec.build_reader(sender, group)));
            sim.join_group(group, node);
            node
        })
        .collect();
    SessionHandles {
        sender,
        receivers,
        group,
        expected_samples: spec.app.total_samples,
    }
}

/// Tears down a running session's agents and installs `spec`'s protocol on
/// the same nodes and group — a live mid-stream protocol switch. Every
/// node keeps its id, host configuration, and group membership; the old
/// agents' reception logs are discarded, so callers that need continuity
/// must harvest deliveries *before* switching (see the self-healing layer
/// in `adamant-core`).
///
/// `spec.app.total_samples` should be the *remaining* sample count; the
/// new sender starts a fresh stream numbered from zero.
pub fn reinstall(
    sim: &mut Simulation,
    spec: &SessionSpec,
    handles: &SessionHandles,
) -> SessionHandles {
    let (sender, group) = (handles.sender, handles.group);
    if !sim.is_crashed(sender) {
        sim.crash_node(sender);
    }
    sim.restart_node(sender, Box::new(SimDriver::new(spec.build_writer(group))));
    for &node in &handles.receivers {
        if !sim.is_crashed(node) {
            sim.crash_node(node);
        }
        let reader = SimDriver::new(spec.build_reader(sender, group));
        sim.restart_node(node, Box::new(reader));
        sim.join_group(group, node);
    }
    SessionHandles {
        expected_samples: spec.app.total_samples,
        ..handles.clone()
    }
}

/// Samples published so far by an installed session's sender.
///
/// # Panics
///
/// Panics if the sender node carries no session writer (e.g. it crashed).
pub fn published_count(sim: &Simulation, handles: &SessionHandles) -> u64 {
    sim.agent::<Box<dyn WriterCore>>(handles.sender)
        .expect("node is not a session writer")
        .published()
}

/// The [`DataReader`] core on receiver `node` of an installed session.
///
/// # Panics
///
/// Panics if `node` carries no session reader (e.g. a crashed node).
pub fn reader(sim: &Simulation, node: NodeId) -> &dyn DataReader {
    &**sim
        .agent::<Box<dyn DataReader>>(node)
        .expect("node is not a session reader")
}

/// The mutable [`DataReader`] core on receiver `node`, as [`reader`] does.
///
/// # Panics
///
/// Panics if `node` carries no session reader.
pub fn reader_mut(sim: &mut Simulation, node: NodeId) -> &mut dyn DataReader {
    &mut **sim
        .agent_mut::<Box<dyn DataReader>>(node)
        .expect("node is not a session reader")
}

/// Builds the pooled [`QosReport`] for a finished session.
pub fn collect_report(sim: &Simulation, handles: &SessionHandles) -> QosReport {
    let mut builder = QosReport::builder(handles.expected_samples, handles.receivers.len() as u32);
    for &node in &handles.receivers {
        let r = reader(sim, node);
        builder.merge_receiver(r.log().qos(), r.duplicates());
    }
    builder
        .wire(
            sim.stats().bytes_per_second(),
            sim.stats().total_bytes_delivered(),
        )
        .duration_secs(sim.now().as_secs_f64());
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_netsim::{Bandwidth, MachineClass, SimDuration, SimTime};
    use adamant_transport::tags::{TAG_DATA, TAG_REPAIR};
    use adamant_transport::{AppSpec, ProtocolKind, ProtocolStats, StackProfile};

    use crate::{DdsImplementation, QosProfile};

    fn host() -> HostConfig {
        HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1)
    }

    fn spec(kind: ProtocolKind) -> SessionSpec {
        SessionSpec {
            transport: TransportConfig::new(kind),
            app: AppSpec::at_rate(500, 100.0, 12),
            stack: StackProfile::new(20.0, 48),
            drop_probability: 0.05,
            capture: false,
        }
    }

    fn run_kept(kind: ProtocolKind, seed: u64) -> (Simulation, SessionHandles) {
        let mut sim = Simulation::new(seed);
        let handles = install(&mut sim, &spec(kind), host(), &[host(); 3]);
        sim.run_until(SimTime::from_secs(10));
        (sim, handles)
    }

    fn run(kind: ProtocolKind, seed: u64) -> QosReport {
        let (sim, handles) = run_kept(kind, seed);
        collect_report(&sim, &handles)
    }

    fn protocol_stats(kind: ProtocolKind) -> Vec<ProtocolStats> {
        let (sim, handles) = run_kept(kind, 5);
        handles
            .receivers
            .iter()
            .map(|&node| reader(&sim, node).protocol_stats())
            .collect()
    }

    #[test]
    fn installs_and_runs_every_protocol() {
        for kind in [
            ProtocolKind::Udp,
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1),
            },
            ProtocolKind::Ricochet { r: 4, c: 3 },
        ] {
            let report = run(kind, 3);
            assert_eq!(report.receivers, 3);
            assert!(
                report.reliability() > 0.9,
                "{kind}: reliability {}",
                report.reliability()
            );
            assert!(report.avg_latency_us > 0.0);
        }
    }

    #[test]
    fn installing_labels_every_tag() {
        let (sim, _) = run_kept(ProtocolKind::Udp, 1);
        assert_eq!(sim.stats().tag_label(TAG_DATA), Some("data"));
        assert_eq!(sim.stats().tag_label(TAG_REPAIR), Some("repair"));
    }

    #[test]
    fn reliability_ordering_matches_protocol_guarantees() {
        let udp = run(ProtocolKind::Udp, 5);
        let nak = run(
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1),
            },
            5,
        );
        let ric = run(ProtocolKind::Ricochet { r: 4, c: 3 }, 5);
        assert!(nak.reliability() >= ric.reliability());
        assert!(nak.reliability() > 0.9999);
        assert!(ric.reliability() > udp.reliability());
        assert!((udp.reliability() - 0.95).abs() < 0.02);
    }

    #[test]
    fn wire_stats_flow_into_report() {
        let report = run(ProtocolKind::Ricochet { r: 4, c: 3 }, 9);
        assert!(report.wire_bytes > 0);
        assert!(report.avg_bandwidth_bytes_per_sec > 0.0);
        assert!(report.duration_secs > 0.0);
    }

    #[test]
    fn protocol_stats_reflect_each_protocol_mechanism() {
        let nak = protocol_stats(ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1),
        });
        assert_eq!(nak.len(), 3);
        for s in &nak {
            assert!(s.naks_sent > 0, "NAKcast should have NAKed: {s:?}");
            assert!(s.recovered > 0);
            assert_eq!(s.repairs_sent, 0);
        }
        for s in &protocol_stats(ProtocolKind::Ricochet { r: 4, c: 3 }) {
            assert!(s.repairs_sent > 0, "Ricochet should have repaired: {s:?}");
            assert!(s.repairs_received > 0);
            assert_eq!(s.naks_sent, 0);
        }
        for s in &protocol_stats(ProtocolKind::Udp) {
            assert_eq!(s.naks_sent, 0);
            assert_eq!(s.repairs_sent, 0);
            assert_eq!(s.recovered, 0);
            assert!(s.dropped > 0);
        }
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let kind = ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(10),
        };
        assert_eq!(run(kind, 11), run(kind, 11));
    }

    #[test]
    fn installs_a_topic_end_to_end() {
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenSplice);
        let t = p
            .create_topic::<[u8; 12]>("sar/video", QosProfile::reliable())
            .unwrap();
        p.create_data_writer(t, QosProfile::reliable(), AppSpec::at_rate(100, 100.0, 12))
            .unwrap();
        p.create_data_reader(t, QosProfile::best_effort(), 0.02)
            .unwrap();
        p.create_data_reader(t, QosProfile::best_effort(), 0.02)
            .unwrap();
        let mut sim = Simulation::new(5);
        let transport = TransportConfig::new(ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1),
        });
        let handles = install_topic(&mut sim, &p, t, transport, host(), &[host(); 2]).unwrap();
        sim.run_until(SimTime::from_secs(5));
        let report = collect_report(&sim, &handles);
        assert_eq!(report.receivers, 2);
        assert!(report.reliability() > 0.99);
    }

    #[test]
    fn reinstall_switches_protocol_mid_stream() {
        // Start 400 samples over Ricochet on a time-critical topic, switch
        // to NAKcast for the remainder at t=2s, and require the second leg
        // to finish the stream on the same nodes, hosts and group.
        let mut p = DomainParticipant::new(0, DdsImplementation::OpenSplice);
        let qos = QosProfile::time_critical();
        let t = p.create_topic::<[u8; 12]>("sar/video", qos).unwrap();
        p.create_data_writer(t, qos, AppSpec::at_rate(400, 100.0, 12))
            .unwrap();
        p.create_data_reader(t, qos, 0.02).unwrap();
        p.create_data_reader(t, qos, 0.02).unwrap();
        let mut sim = Simulation::new(9);
        let uplink = HostConfig::new(MachineClass::Pc850, Bandwidth::MBPS_100);
        let first = install_topic(
            &mut sim,
            &p,
            t,
            TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 }),
            uplink,
            &[host(); 2],
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(2));
        let published = published_count(&sim, &first);
        assert!((150..=210).contains(&published), "published {published}");
        let first_leg = collect_report(&sim, &first);

        let remaining = 400 - published;
        let nakcast = TransportConfig::new(ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1),
        });
        let second = reinstall_topic(&mut sim, &p, t, &first, nakcast, remaining).unwrap();
        assert_eq!(second.sender, first.sender);
        assert_eq!(second.receivers, first.receivers);
        assert_eq!(second.group, first.group);
        assert_eq!(sim.host_config(second.sender), uplink);
        assert_eq!(sim.host_config(second.receivers[1]), host());
        sim.run_until(SimTime::from_secs(8));
        let second_leg = collect_report(&sim, &second);
        assert_eq!(second_leg.samples_sent, remaining);
        assert!(second_leg.reliability() > 0.999);
        // The first leg delivered (nearly) everything published before the
        // switch, across both receivers.
        assert!(first_leg.delivered as f64 > 0.9 * (published * 2) as f64);

        // A switch to an unsuitable transport is still refused.
        let udp = TransportConfig::new(ProtocolKind::Udp);
        let err = reinstall_topic(&mut sim, &p, t, &second, udp, 10).unwrap_err();
        assert!(matches!(err, DdsError::TransportUnsuitable { .. }));
    }
}
