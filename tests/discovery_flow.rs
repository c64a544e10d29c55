//! Discovery-then-data integration: endpoints find each other on the wire
//! before the configured session starts flowing — the full middleware
//! bring-up sequence.

use adamant_dds::discovery::{DiscoveryConfig, DiscoveryCore, EndpointInfo};
use adamant_dds::{session, DdsImplementation, DomainParticipant, QosProfile};
use adamant_netsim::{
    Bandwidth, HostConfig, MachineClass, SimDriver, SimDuration, SimTime, Simulation,
};
use adamant_transport::{AppSpec, ProtocolKind, TransportConfig};

#[test]
fn discovery_then_data_end_to_end() {
    let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
    let qos = QosProfile::time_critical();

    // ── Phase 1: discovery ──────────────────────────────────────────────
    let mut discovery_sim = Simulation::new(5);
    let group = discovery_sim.create_group(&[]);
    let writer_node = discovery_sim.add_node(
        host,
        SimDriver::new(DiscoveryCore::new(
            0,
            group,
            vec![EndpointInfo::new("sar/stream", true, qos)],
            DiscoveryConfig::default(),
        )),
    );
    discovery_sim.join_group(group, writer_node);
    let mut reader_nodes = Vec::new();
    for id in 1..=3u32 {
        let node = discovery_sim.add_node(
            host,
            SimDriver::new(DiscoveryCore::new(
                id,
                group,
                vec![EndpointInfo::new("sar/stream", false, qos)],
                DiscoveryConfig::default(),
            )),
        );
        discovery_sim.join_group(group, node);
        reader_nodes.push(node);
    }
    discovery_sim.run_until(SimTime::from_secs(2));

    let writer_view = discovery_sim
        .agent::<DiscoveryCore>(writer_node)
        .expect("writer agent");
    let matched_readers = writer_view.matches().len();
    assert_eq!(matched_readers, 3, "writer must discover all readers");
    let bring_up = writer_view
        .time_to_first_match()
        .expect("at least one match");
    assert!(
        bring_up < SimDuration::from_millis(500),
        "discovery too slow: {bring_up}"
    );

    // ── Phase 2: the discovered topology becomes a data session ─────────
    let mut participant = DomainParticipant::new(0, DdsImplementation::OpenSplice);
    let topic = participant
        .create_topic::<[u8; 12]>("sar/stream", qos)
        .expect("topic");
    participant
        .create_data_writer(topic, qos, AppSpec::at_rate(500, 100.0, 12))
        .expect("writer");
    for _ in 0..matched_readers {
        participant
            .create_data_reader(topic, qos, 0.05)
            .expect("reader");
    }
    let mut data_sim = Simulation::new(6);
    let handles = session::install_topic(
        &mut data_sim,
        &participant,
        topic,
        TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 }),
        host,
        &vec![host; matched_readers],
    )
    .expect("install");
    data_sim.run_until(SimTime::from_secs(10));
    let report = session::collect_report(&data_sim, &handles);
    assert_eq!(report.receivers as usize, matched_readers);
    assert!(report.reliability() > 0.98);
}

#[test]
fn qos_incompatible_readers_are_never_wired() {
    // A best-effort writer and a reliability-demanding reader: discovery
    // refuses the match, and the entity layer refuses the session — the
    // two layers agree.
    let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
    let offered = QosProfile::best_effort();
    let requested = QosProfile::reliable();

    let mut sim = Simulation::new(9);
    let group = sim.create_group(&[]);
    let w = sim.add_node(
        host,
        SimDriver::new(DiscoveryCore::new(
            0,
            group,
            vec![EndpointInfo::new("t", true, offered)],
            DiscoveryConfig::default(),
        )),
    );
    sim.join_group(group, w);
    let r = sim.add_node(
        host,
        SimDriver::new(DiscoveryCore::new(
            1,
            group,
            vec![EndpointInfo::new("t", false, requested)],
            DiscoveryConfig::default(),
        )),
    );
    sim.join_group(group, r);
    sim.run_until(SimTime::from_secs(2));
    assert!(sim.agent::<DiscoveryCore>(w).unwrap().matches().is_empty());

    let mut participant = DomainParticipant::new(0, DdsImplementation::OpenDds);
    let topic = participant.create_topic::<u32>("t", offered).unwrap();
    participant
        .create_data_writer(topic, offered, AppSpec::at_rate(10, 10.0, 12))
        .unwrap();
    participant
        .create_data_reader(topic, requested, 0.0)
        .unwrap();
    let mut data_sim = Simulation::new(1);
    assert!(session::install_topic(
        &mut data_sim,
        &participant,
        topic,
        TransportConfig::new(ProtocolKind::Udp),
        host,
        &[host],
    )
    .is_err());
}
