//! Integration of the runtime-adaptation loop with the DDS status model.

use adamant::{
    AdaptivePolicy, AppParams, BandwidthClass, Environment, LabeledDataset, ProtocolSelector,
    Scenario, SelectorConfig,
};
use adamant_dds::{session, DdsImplementation, DomainParticipant, QosProfile, ReaderStatuses};
use adamant_metrics::MetricKind;
use adamant_netsim::{MachineClass, SimDuration, SimTime, Simulation};
use adamant_transport::{AppSpec, ProtocolKind, TransportConfig};

fn fast() -> Environment {
    Environment::new(
        MachineClass::Pc3000,
        BandwidthClass::Gbps1,
        DdsImplementation::OpenSplice,
        5,
    )
}

fn slow() -> Environment {
    Environment::new(
        MachineClass::Pc850,
        BandwidthClass::Mbps100,
        DdsImplementation::OpenSplice,
        5,
    )
}

fn colocated() -> Environment {
    Environment::colocated(MachineClass::Pc3000, DdsImplementation::OpenSplice)
}

fn trained_policy() -> AdaptivePolicy {
    let configs = vec![
        (fast(), AppParams::new(3, 25)),
        (slow(), AppParams::new(3, 25)),
        (
            Environment::new(
                MachineClass::Pc3000,
                BandwidthClass::Mbps100,
                DdsImplementation::OpenSplice,
                5,
            ),
            AppParams::new(3, 25),
        ),
        (colocated(), AppParams::new(3, 25)),
    ];
    // 4 repetitions: NAKcast's recovery latency depends on the per-run
    // heartbeat phase, so 2-rep labels would be phase-lottery noise.
    let dataset = LabeledDataset::measure(&configs, 500, 4);
    let (selector, _) = ProtocolSelector::train_from(&dataset, &SelectorConfig::default());
    // A zero confidence floor: the ANN answers every query.
    AdaptivePolicy::new(MetricKind::ReLate2).with_ann(selector, 0.0)
}

#[test]
fn adaptation_follows_the_measured_winners() {
    let policy = trained_policy();
    let app = AppParams::new(3, 25);
    // Each environment is selected for, then run under its choice for 400
    // samples, on seeds 3 and 4.
    let phases: Vec<_> = [fast(), colocated()]
        .into_iter()
        .zip(3..)
        .map(|(env, seed)| {
            let protocol = policy.select(&env, &app).protocol;
            let report = Scenario::paper(env, app, seed)
                .with_samples(400)
                .run(TransportConfig::new(protocol));
            (protocol, report)
        })
        .collect();
    // On the lossy LAN the sender-driven stream recovers losses faster
    // than NAK- or lateral-error-correction multicast; once the operator
    // consolidates the group onto one host, the shared-memory ring wins
    // outright — and it was never even a candidate before the move.
    assert!(matches!(phases[0].0, ProtocolKind::StreamCast { .. }));
    assert!(matches!(phases[1].0, ProtocolKind::ShmCast { .. }));
    // One switch: the second phase runs a different protocol.
    assert_ne!(phases[0].0, phases[1].0);
    for (_, report) in &phases {
        assert!(report.reliability() > 0.97);
    }
}

#[test]
fn reader_statuses_reflect_protocol_semantics() {
    // Run the same lossy stream over NAKcast (ordered, reliable) and
    // Ricochet (unordered, probabilistic) and compare the DDS statuses.
    let run = |kind: ProtocolKind| {
        let env = fast();
        let mut participant = DomainParticipant::new(0, env.dds);
        let qos = match kind {
            ProtocolKind::Nakcast { .. } => QosProfile::reliable(),
            _ => QosProfile::time_critical(),
        };
        let topic = participant
            .create_topic::<[u8; 12]>("status/stream", qos)
            .unwrap();
        participant
            .create_data_writer(topic, qos, AppSpec::at_rate(2_000, 500.0, 12))
            .unwrap();
        for _ in 0..3 {
            participant
                .create_data_reader(topic, qos, env.drop_probability())
                .unwrap();
        }
        let mut sim = Simulation::new(17).with_network(env.network_config());
        let host = env.host_config();
        let transport = TransportConfig::new(kind);
        let handles =
            session::install_topic(&mut sim, &participant, topic, transport, host, &[host; 3])
                .unwrap();
        sim.run_until(SimTime::from_secs(25));
        let reader = session::reader(&sim, handles.receivers[0]);
        ReaderStatuses::from_log(
            reader.log(),
            2_000,
            reader.duplicates(),
            Some(SimDuration::from_millis(100)),
        )
    };

    let nak = run(ProtocolKind::Nakcast {
        timeout: SimDuration::from_millis(1),
    });
    let ric = run(ProtocolKind::Ricochet { r: 4, c: 3 });

    // NAKcast: nothing lost, nothing out of order.
    assert_eq!(nak.sample_lost.total_count, 0);
    assert_eq!(nak.order_violations.total_count, 0);

    // Ricochet: a little residual loss and out-of-order recoveries.
    assert!(ric.sample_lost.total_count > 0);
    assert!(ric.order_violations.total_count > 0);
    assert!(!ric.is_clean());

    // Both keep the 100 ms deadline comfortably at 500 Hz.
    assert_eq!(nak.deadline_missed.total_count, 0);
    assert_eq!(ric.deadline_missed.total_count, 0);
}
