//! The ANT (Adaptive Network Transports) framework: builds a complete
//! pub/sub transport session — sender, receivers, multicast group — from a
//! [`TransportConfig`], and collects QoS results afterwards.
//!
//! This is the configuration seam ADAMANT drives: the machine-learning
//! selector picks a [`ProtocolKind`]; `install` composes the corresponding
//! protocol properties into concrete agents on simulated hosts.

use adamant_metrics::QosReport;
use adamant_netsim::{Agent, GroupId, HostConfig, NodeId, SimDriver, Simulation};
use adamant_proto::ProtocolCore;

use crate::config::{ProtocolKind, TransportConfig};
use crate::nakcast::{NakcastReceiver, NakcastSender};
use crate::profile::{AppSpec, StackProfile};
use crate::receiver::DataReader;
use crate::ricochet::{RicochetReceiver, RicochetSender};
use crate::shmcast::{ShmCastReceiver, ShmCastSender};
use crate::streamcast::{StreamCastReceiver, StreamCastSender};
use crate::tags;
use crate::udp::{UdpReceiver, UdpSender};

/// Everything needed to set up one experiment session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Transport protocol and tuning.
    pub transport: TransportConfig,
    /// Publication workload.
    pub app: AppSpec,
    /// Middleware stack contribution (from the DDS profile).
    pub stack: StackProfile,
    /// Host running the data writer.
    pub sender_host: HostConfig,
    /// Hosts running the data readers (one reader per host).
    pub receiver_hosts: Vec<HostConfig>,
    /// End-host drop probability applied to data packets at each reader.
    pub drop_probability: f64,
    /// Whether readers keep a record of every delivery
    /// ([`capture`](adamant_metrics::DenseReceptionLog::capture)); a run
    /// that reads only its [`QosReport`] leaves it off.
    pub capture: bool,
}

/// Node handles of an installed session.
#[derive(Debug, Clone)]
pub struct SessionHandles {
    /// The protocol that was installed.
    pub kind: ProtocolKind,
    /// The data-writer node.
    pub sender: NodeId,
    /// The data-reader nodes.
    pub receivers: Vec<NodeId>,
    /// The multicast group connecting them.
    pub group: GroupId,
    /// Samples the writer will publish.
    pub expected_samples: u64,
}

/// Builds the sender agent for `spec`'s protocol, publishing into `group`.
/// Protocol cores are sans-I/O state machines; here they are mounted on the
/// simulator via [`SimDriver`] (the real-UDP runtime mounts the same cores
/// on sockets instead — see `adamant-rt`).
fn sender_agent(spec: &SessionSpec, group: GroupId) -> Box<dyn Agent> {
    let tuning = spec.transport.tuning;
    let app = spec.app;
    let stack = spec.stack;
    match spec.transport.kind {
        ProtocolKind::Udp => Box::new(SimDriver::new(UdpSender::new(app, stack, tuning, group))),
        ProtocolKind::Nakcast { .. } => Box::new(SimDriver::new(NakcastSender::new(
            app, stack, tuning, group,
        ))),
        ProtocolKind::Ricochet { .. } => Box::new(SimDriver::new(RicochetSender::new(
            app, stack, tuning, group,
        ))),
        ProtocolKind::StreamCast { window } => Box::new(SimDriver::new(StreamCastSender::new(
            app, stack, tuning, group, window,
        ))),
        ProtocolKind::ShmCast { queue } => {
            Box::new(SimDriver::new(ShmCastSender::new(app, stack, group, queue)))
        }
    }
}

/// Builds a receiver agent for `spec`'s protocol, expecting the stream
/// from `sender` on `group`.
fn receiver_agent(spec: &SessionSpec, sender: NodeId, group: GroupId) -> Box<dyn Agent> {
    let tuning = spec.transport.tuning;
    let app = spec.app;
    match spec.transport.kind {
        ProtocolKind::Udp => spec.mount(UdpReceiver::new(app.total_samples, spec.drop_probability)),
        ProtocolKind::Nakcast { timeout } => spec.mount(NakcastReceiver::new(
            sender,
            app.total_samples,
            timeout,
            tuning,
            spec.drop_probability,
        )),
        ProtocolKind::Ricochet { r, c } => spec.mount(RicochetReceiver::new(
            sender,
            group,
            app.total_samples,
            app.payload_bytes,
            r,
            c,
            tuning,
            spec.drop_probability,
        )),
        ProtocolKind::StreamCast { window } => spec.mount(StreamCastReceiver::new(
            sender,
            app.total_samples,
            window,
            spec.drop_probability,
        )),
        ProtocolKind::ShmCast { queue } => {
            spec.mount(ShmCastReceiver::new(sender, app.total_samples, queue))
        }
    }
}

impl SessionSpec {
    /// Mounts `reader` on the simulator, capturing its deliveries if asked.
    fn mount<R: DataReader + ProtocolCore>(&self, mut reader: R) -> Box<dyn Agent> {
        if self.capture {
            reader.log_mut().capture();
        }
        Box::new(SimDriver::new(reader))
    }
}

/// Installs a complete session described by `spec` into `sim`.
///
/// Creates the sender host, one host per receiver, the multicast group, and
/// the protocol agents for `spec.transport.kind`.
pub fn install(sim: &mut Simulation, spec: &SessionSpec) -> SessionHandles {
    tags::register_all(sim);
    let group = sim.create_group(&[]);

    // Node ids are assigned sequentially, so the sender's id is known
    // before its agent (which doesn't need it) is built.
    let sender = sim.add_boxed_node(spec.sender_host, sender_agent(spec, group));
    sim.join_group(group, sender);

    let mut receivers = Vec::with_capacity(spec.receiver_hosts.len());
    for &host in &spec.receiver_hosts {
        let node = sim.add_boxed_node(host, receiver_agent(spec, sender, group));
        sim.join_group(group, node);
        receivers.push(node);
    }

    SessionHandles {
        kind: spec.transport.kind,
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
    let sender = handles.sender;
    if !sim.is_crashed(sender) {
        sim.crash_node(sender);
    }
    sim.restart_node(sender, sender_agent(spec, handles.group));
    for &node in &handles.receivers {
        if !sim.is_crashed(node) {
            sim.crash_node(node);
        }
        sim.restart_node(node, receiver_agent(spec, sender, handles.group));
        sim.join_group(handles.group, node);
    }
    SessionHandles {
        kind: spec.transport.kind,
        sender,
        receivers: handles.receivers.clone(),
        group: handles.group,
        expected_samples: spec.app.total_samples,
    }
}

/// Samples published so far by an installed session's sender.
///
/// # Panics
///
/// Panics if the sender node does not carry `handles`' protocol (e.g. it
/// crashed or was reinstalled under different handles).
pub fn published_count(sim: &Simulation, handles: &SessionHandles) -> u64 {
    let node = handles.sender;
    match handles.kind {
        ProtocolKind::Udp => sim.agent::<UdpSender>(node).expect("sender").published(),
        ProtocolKind::Nakcast { .. } => sim
            .agent::<NakcastSender>(node)
            .expect("sender")
            .published(),
        ProtocolKind::Ricochet { .. } => sim
            .agent::<RicochetSender>(node)
            .expect("sender")
            .published(),
        ProtocolKind::StreamCast { .. } => sim
            .agent::<StreamCastSender>(node)
            .expect("sender")
            .published(),
        ProtocolKind::ShmCast { .. } => sim
            .agent::<ShmCastSender>(node)
            .expect("sender")
            .published(),
    }
}

/// Returns the [`DataReader`] view of receiver `node` in an installed
/// session.
///
/// # Panics
///
/// Panics if `node` is not a receiver of `handles`' protocol kind (e.g. a
/// crashed/removed node).
pub fn reader<'a>(
    sim: &'a Simulation,
    handles: &SessionHandles,
    node: NodeId,
) -> &'a dyn DataReader {
    fn get<T: DataReader + 'static>(sim: &Simulation, node: NodeId) -> &dyn DataReader {
        sim.agent::<T>(node)
            .expect("node is not a receiver of this session") as &dyn DataReader
    }
    match handles.kind {
        ProtocolKind::Udp => get::<UdpReceiver>(sim, node),
        ProtocolKind::Nakcast { .. } => get::<NakcastReceiver>(sim, node),
        ProtocolKind::Ricochet { .. } => get::<RicochetReceiver>(sim, node),
        ProtocolKind::StreamCast { .. } => get::<StreamCastReceiver>(sim, node),
        ProtocolKind::ShmCast { .. } => get::<ShmCastReceiver>(sim, node),
    }
}

/// Returns the mutable [`DataReader`] view of receiver `node`, as
/// [`reader`] does.
///
/// # Panics
///
/// Panics if `node` is not a receiver of `handles`' protocol kind.
pub fn reader_mut<'a>(
    sim: &'a mut Simulation,
    handles: &SessionHandles,
    node: NodeId,
) -> &'a mut dyn DataReader {
    fn get<T: DataReader + 'static>(sim: &mut Simulation, node: NodeId) -> &mut dyn DataReader {
        sim.agent_mut::<T>(node)
            .expect("node is not a receiver of this session") as &mut dyn DataReader
    }
    match handles.kind {
        ProtocolKind::Udp => get::<UdpReceiver>(sim, node),
        ProtocolKind::Nakcast { .. } => get::<NakcastReceiver>(sim, node),
        ProtocolKind::Ricochet { .. } => get::<RicochetReceiver>(sim, node),
        ProtocolKind::StreamCast { .. } => get::<StreamCastReceiver>(sim, node),
        ProtocolKind::ShmCast { .. } => get::<ShmCastReceiver>(sim, node),
    }
}

/// Collects every receiver's unified protocol counters (aligned with
/// `handles.receivers`).
pub fn collect_protocol_stats(
    sim: &Simulation,
    handles: &SessionHandles,
) -> Vec<crate::ProtocolStats> {
    handles
        .receivers
        .iter()
        .map(|&node| reader(sim, handles, node).protocol_stats())
        .collect()
}

/// Builds the pooled [`QosReport`] for a finished session.
pub fn collect_report(sim: &Simulation, handles: &SessionHandles) -> QosReport {
    let mut builder = QosReport::builder(handles.expected_samples, handles.receivers.len() as u32);
    for &node in &handles.receivers {
        let r = reader(sim, handles, node);
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

    fn spec(kind: ProtocolKind) -> SessionSpec {
        let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        SessionSpec {
            transport: TransportConfig::new(kind),
            app: AppSpec::at_rate(500, 100.0, 12),
            stack: StackProfile::new(20.0, 48),
            sender_host: host,
            receiver_hosts: vec![host; 3],
            drop_probability: 0.05,
            capture: false,
        }
    }

    fn run(kind: ProtocolKind, seed: u64) -> QosReport {
        let mut sim = Simulation::new(seed);
        let handles = install(&mut sim, &spec(kind));
        sim.run_until(SimTime::from_secs(10));
        collect_report(&sim, &handles)
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
        let nak = {
            let mut sim = Simulation::new(5);
            let handles = install(
                &mut sim,
                &spec(ProtocolKind::Nakcast {
                    timeout: SimDuration::from_millis(1),
                }),
            );
            sim.run_until(SimTime::from_secs(10));
            collect_protocol_stats(&sim, &handles)
        };
        assert_eq!(nak.len(), 3);
        for s in &nak {
            assert!(s.naks_sent > 0, "NAKcast should have NAKed: {s:?}");
            assert!(s.recovered > 0);
            assert_eq!(s.repairs_sent, 0);
        }

        let ric = {
            let mut sim = Simulation::new(5);
            let handles = install(&mut sim, &spec(ProtocolKind::Ricochet { r: 4, c: 3 }));
            sim.run_until(SimTime::from_secs(10));
            collect_protocol_stats(&sim, &handles)
        };
        for s in &ric {
            assert!(s.repairs_sent > 0, "Ricochet should have repaired: {s:?}");
            assert!(s.repairs_received > 0);
            assert_eq!(s.naks_sent, 0);
        }

        let udp = {
            let mut sim = Simulation::new(5);
            let handles = install(&mut sim, &spec(ProtocolKind::Udp));
            sim.run_until(SimTime::from_secs(10));
            collect_protocol_stats(&sim, &handles)
        };
        for s in &udp {
            assert_eq!(s.naks_sent, 0);
            assert_eq!(s.repairs_sent, 0);
            assert_eq!(s.recovered, 0);
            assert!(s.dropped > 0);
        }
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let a = run(
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(10),
            },
            11,
        );
        let b = run(
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(10),
            },
            11,
        );
        assert_eq!(a, b);
    }
}
