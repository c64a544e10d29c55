//! Property-style tests of the DDS entity layer: enumerated QoS
//! combinations and entity topologies must always be validated
//! consistently (deterministic sweeps over the QoS lattice).

use adamant_dds::{
    DdsImplementation, DomainParticipant, Durability, History, Ordering, QosProfile, Reliability,
};
use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDuration, Simulation};
use adamant_transport::{AppSpec, ProtocolKind, TransportConfig};

/// A representative sweep over the QoS lattice (both poles of every
/// policy plus a bounded-history / deadline-bearing middle point).
fn qos_cases() -> Vec<QosProfile> {
    let mut cases = Vec::new();
    for reliability in [Reliability::BestEffort, Reliability::Reliable] {
        for history in [
            History::KeepAll,
            History::KeepLast(1),
            History::KeepLast(32),
        ] {
            for durability in [Durability::Volatile, Durability::TransientLocal] {
                for ordering in [Ordering::Unordered, Ordering::SourceOrdered] {
                    for deadline in [None, Some(SimDuration::from_millis(5))] {
                        cases.push(QosProfile {
                            reliability,
                            history,
                            durability,
                            ordering,
                            deadline,
                            latency_budget: SimDuration::ZERO,
                        });
                    }
                }
            }
        }
    }
    cases
}

fn protocol_cases() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Udp,
        ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(5),
        },
        ProtocolKind::Ricochet { r: 4, c: 3 },
    ]
}

/// QoS compatibility is reflexive: any profile can serve itself.
#[test]
fn compatibility_is_reflexive() {
    for qos in qos_cases() {
        assert!(qos.compatible_with(&qos).is_ok(), "{qos:?}");
    }
}

/// The strongest offer (reliable, transient-local, ordered, tightest
/// deadline) satisfies every request with an equal-or-looser deadline.
#[test]
fn strongest_offer_satisfies_all() {
    let offered = QosProfile {
        reliability: Reliability::Reliable,
        history: History::KeepAll,
        durability: Durability::TransientLocal,
        ordering: Ordering::SourceOrdered,
        deadline: Some(SimDuration::from_nanos(1)),
        latency_budget: SimDuration::ZERO,
    };
    for requested in qos_cases() {
        assert!(offered.compatible_with(&requested).is_ok(), "{requested:?}");
    }
}

/// `install` never panics for arbitrary QoS/protocol combinations: it
/// either installs a coherent session or returns a typed error — and
/// when it succeeds, every reader's QoS was compatible and the
/// transport satisfies the session's needs.
#[test]
fn install_is_total_and_sound() {
    let qos = qos_cases();
    let protocols = protocol_cases();
    // Pair up distant points of the lattice for writer/reader combinations.
    for (i, &writer_qos) in qos.iter().enumerate().step_by(7) {
        let reader_qos = qos[(i * 13 + 5) % qos.len()];
        let protocol = protocols[i % protocols.len()];
        let readers = 1 + i % 3;
        let mut participant = DomainParticipant::new(0, DdsImplementation::OpenSplice);
        let topic = participant.create_topic::<u32>("t", writer_qos).unwrap();
        let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        participant
            .create_data_writer(topic, writer_qos, AppSpec::at_rate(10, 100.0, 12), host)
            .unwrap();
        for _ in 0..readers {
            participant
                .create_data_reader(topic, reader_qos, host, 0.01)
                .unwrap();
        }
        let mut sim = Simulation::new(1);
        match participant.install(&mut sim, topic, TransportConfig::new(protocol)) {
            Ok(handles) => {
                assert_eq!(handles.receivers.len(), readers);
                assert!(writer_qos.compatible_with(&reader_qos).is_ok());
                // The session actually runs to completion.
                sim.run_until(adamant_netsim::SimTime::from_secs(3));
                let report = adamant_dds::session::collect_report(&sim, &handles);
                assert!(report.reliability() > 0.5);
            }
            Err(e) => {
                // Errors are typed and displayable.
                assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// Topic names are unique per participant regardless of QoS.
#[test]
fn duplicate_topics_always_rejected() {
    let qos = qos_cases();
    for (i, &a) in qos.iter().enumerate().step_by(11) {
        let b = qos[(i + 17) % qos.len()];
        let mut participant = DomainParticipant::new(0, DdsImplementation::OpenDds);
        participant.create_topic::<u32>("same", a).unwrap();
        assert!(participant.create_topic::<u64>("same", b).is_err());
    }
}
