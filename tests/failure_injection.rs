//! Failure injection across the full stack: crashed receivers, bursty
//! loss, and degraded environments.

use adamant_dds::{session, DdsImplementation, DomainParticipant, QosProfile};
use adamant_netsim::{
    Bandwidth, HostConfig, LossModel, MachineClass, NetworkConfig, SimDuration, SimTime, Simulation,
};
use adamant_transport::{AppSpec, ProtocolKind, TransportConfig};

fn host() -> HostConfig {
    HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1)
}

/// Builds a Ricochet session with `receivers` readers through the DDS
/// layer and returns the simulation plus handles.
fn ricochet_session(
    receivers: usize,
    samples: u64,
    drop: f64,
    seed: u64,
) -> (Simulation, adamant_dds::SessionHandles) {
    let mut participant = DomainParticipant::new(0, DdsImplementation::OpenSplice);
    let qos = QosProfile::time_critical();
    let topic = participant
        .create_topic::<[u8; 12]>("test/stream", qos)
        .unwrap();
    participant
        .create_data_writer(topic, qos, AppSpec::at_rate(samples, 100.0, 12), host())
        .unwrap();
    for _ in 0..receivers {
        participant
            .create_data_reader(topic, qos, host(), drop)
            .unwrap();
    }
    let mut sim = Simulation::new(seed);
    let handles = participant
        .install(
            &mut sim,
            topic,
            TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 }),
        )
        .unwrap();
    (sim, handles)
}

#[test]
fn survivors_keep_qos_after_receiver_crash() {
    let (mut sim, handles) = ricochet_session(5, 3_000, 0.05, 77);
    // Run a third of the stream, then one reader's host dies.
    sim.run_until(SimTime::from_secs(10));
    let victim = handles.receivers[4];
    sim.crash_node(victim);
    sim.run_until(SimTime::from_secs(40));

    for &node in &handles.receivers[..4] {
        let reader = session::reader(&sim, node);
        let reliability = reader.log().delivered_count() as f64 / 3_000.0;
        assert!(
            reliability > 0.98,
            "survivor {node} degraded to {reliability}"
        );
    }
}

#[test]
fn nakcast_rides_through_network_loss_plus_endhost_loss() {
    // Link-level loss (failure injection) on top of the end-host drops the
    // paper models: NAKcast should still converge to full reliability.
    let mut participant = DomainParticipant::new(0, DdsImplementation::OpenDds);
    let qos = QosProfile::reliable();
    let topic = participant
        .create_topic::<[u8; 12]>("test/reliable", qos)
        .unwrap();
    participant
        .create_data_writer(topic, qos, AppSpec::at_rate(1_000, 100.0, 12), host())
        .unwrap();
    for _ in 0..3 {
        participant
            .create_data_reader(topic, qos, host(), 0.05)
            .unwrap();
    }
    let mut sim = Simulation::new(99).with_network(NetworkConfig {
        propagation: SimDuration::from_micros(50),
        loss: LossModel::GilbertElliott {
            p_enter_bad: 0.002,
            p_exit_bad: 0.05,
            loss_good: 0.002,
            loss_bad: 0.35,
        },
    });
    let handles = participant
        .install(
            &mut sim,
            topic,
            TransportConfig::new(ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1),
            }),
        )
        .unwrap();
    sim.run_until(SimTime::from_secs(30));
    let report = session::collect_report(&sim, &handles);
    assert!(
        report.reliability() > 0.999,
        "NAKcast reliability {} under compound loss",
        report.reliability()
    );
}

#[test]
fn sender_crash_stops_the_stream_cleanly() {
    let (mut sim, handles) = ricochet_session(3, 5_000, 0.0, 13);
    sim.run_until(SimTime::from_secs(5));
    sim.crash_node(handles.sender);
    sim.run_until(SimTime::from_secs(20));
    // Roughly 5 s × 100 Hz samples arrived; nothing after the crash, and
    // nothing panicked or looped forever.
    for &node in &handles.receivers {
        let reader = session::reader(&sim, node);
        let delivered = reader.log().delivered_count();
        assert!(
            (400..=600).contains(&delivered),
            "expected ~500 samples before the crash, got {delivered}"
        );
    }
}

#[test]
fn extreme_loss_degrades_gracefully() {
    // 30% end-host loss is far beyond the paper's 1–5% envelope; Ricochet
    // loses more but the system stays live and accounting stays sane.
    let (mut sim, handles) = ricochet_session(3, 2_000, 0.30, 5);
    sim.run_until(SimTime::from_secs(30));
    let report = session::collect_report(&sim, &handles);
    assert!(report.reliability() > 0.70);
    assert!(report.reliability() < 0.999);
    assert!(report.recovered > 0, "lateral repairs still fire");
    let expected = 2_000 * 3;
    assert!(report.delivered <= expected as u64);
}
