//! The simulator binding of a transport session: mounts the cores a
//! [`SessionSpec`] builds on simulated hosts, reads them back after a run,
//! and pools their QoS into a [`QosReport`].
//!
//! A session's nodes carry boxed cores — `Box<dyn WriterCore>` on the
//! sender, `Box<dyn DataReader>` on each receiver — so every read-back
//! here is one downcast, whatever the protocol.

use adamant_metrics::QosReport;
use adamant_netsim::{GroupId, HostConfig, NodeId, SimDriver, Simulation};
use adamant_transport::{tags, DataReader, SessionSpec, WriterCore};

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
    use adamant_transport::{AppSpec, ProtocolKind, ProtocolStats, StackProfile, TransportConfig};

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
        let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let mut sim = Simulation::new(seed);
        let handles = install(&mut sim, &spec(kind), host, &[host; 3]);
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
}
