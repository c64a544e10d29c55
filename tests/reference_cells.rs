//! Pinned digests of the benchmark's reference cells.
//!
//! `pubsub_bench` times one fixed cell per candidate protocol
//! (`netsim.cell_ms.*`) and checks digests only against a re-run inside the
//! same process. This test pins them across commits: a change to the
//! simulator's event path, to `SimDriver` or to a protocol core that claims
//! to leave behaviour byte-identical must reproduce both the report digest
//! and the number of events the engine processed. Those cells run 3 receivers
//! at 25 Hz; their 15-receiver twins are pinned as well, at 25 Hz and at
//! 100 Hz — that is where Ricochet's lateral repair traffic (the hottest
//! cells of `sim_grid`) lives, and only the faster rate fills a repair
//! window before its flush timer fires.
//!
//! Those cells run 100 samples, so they never reach the paths that need a
//! long stream or a long round trip: a Ricochet reader's packet-store
//! maintenance (every 128 data packets) and store pruning (past 1 024
//! packets), and a StreamCast reader's SYN retry (10 ms, shorter than a
//! WAN round trip but longer than a LAN one). Two more cells reach them
//! and are pinned the same way.
//!
//! If a PR changes behaviour *on purpose*, regenerate with
//! `cargo test --test reference_cells -- --nocapture` and paste the printed
//! table; the diff is then the visible record of what moved.

use adamant::features::candidate_protocols;
use adamant::{AppParams, BandwidthClass, Environment, Scenario};
use std::any::Any;

use adamant_dds::{session, DdsImplementation, DomainParticipant, QosProfile, SessionHandles};
use adamant_netsim::{MachineClass, SimDuration, SimTime, Simulation};
use adamant_proto::fingerprint_debug;
use adamant_transport::{
    AppSpec, ProtocolKind, StreamCastReceiver, TransportConfig, PAPER_PAYLOAD_BYTES,
};

/// `(label, receivers, rate_hz, report digest, events processed)`.
const PINNED: &[(&str, u32, u32, u64, u64)] = &[
    ("nakcast-0.050s", 3, 25, 0x066ae27eba8ea6a4, 1729),
    ("nakcast-0.025s", 3, 25, 0xa99c5a3c3004b8b7, 1729),
    ("nakcast-0.010s", 3, 25, 0x164950a9545b5adb, 1731),
    ("nakcast-0.001s", 3, 25, 0xff13d5adda3feab4, 1731),
    ("ricochet-r4c3", 3, 25, 0x239dd6321890d78f, 2291),
    ("ricochet-r8c3", 3, 25, 0x239dd6321890d78f, 2291),
    ("streamcast-w64", 3, 25, 0x51f34d4e37016c78, 1471),
    ("shmcast-q256", 3, 25, 0x8d7ddef95f31fb94, 716),
    ("nakcast-0.050s", 15, 25, 0xe4a43de318a9165a, 7613),
    ("nakcast-0.025s", 15, 25, 0x2ae41626ad4125fc, 7613),
    ("nakcast-0.010s", 15, 25, 0x5ca2d3cbd3bc3f3b, 7617),
    ("nakcast-0.001s", 15, 25, 0x267bd27db26e919a, 7617),
    ("ricochet-r4c3", 15, 25, 0x8e7309b50212c967, 16821),
    ("ricochet-r8c3", 15, 25, 0x8e7309b50212c967, 16821),
    ("streamcast-w64", 15, 25, 0xb09b59ff7708a69a, 6495),
    ("shmcast-q256", 15, 25, 0x0d84f0f202e6aaa2, 3176),
    ("nakcast-0.050s", 15, 100, 0x75b9ed51a0f16b7d, 4529),
    ("nakcast-0.025s", 15, 100, 0x8e5e1058a7e8535f, 4539),
    ("nakcast-0.010s", 15, 100, 0x8ce4391adf9453f0, 4547),
    ("nakcast-0.001s", 15, 100, 0x225d06721ba7f3a8, 4544),
    ("ricochet-r4c3", 15, 100, 0x2c6544553c1aa091, 14031),
    ("ricochet-r8c3", 15, 100, 0x2c6544553c1aa091, 14031),
    ("streamcast-w64", 15, 100, 0x2331a5e0568a1a63, 6439),
    ("shmcast-q256", 15, 100, 0xca7a35421cdb645b, 3176),
];

/// The benchmark's reference environment: the fast LAN of the paper's
/// figures, or its same-host twin for the one protocol that needs it.
fn reference_env(protocol: ProtocolKind) -> Environment {
    match protocol {
        ProtocolKind::ShmCast { .. } => {
            Environment::colocated(MachineClass::Pc3000, DdsImplementation::OpenSplice)
        }
        _ => Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            5,
        ),
    }
}

#[test]
fn reference_cells_reproduce_pinned_digests_and_event_counts() {
    let mut measured = Vec::new();
    for (receivers, rate_hz) in [(3u32, 25u32), (15, 25), (15, 100)] {
        for protocol in candidate_protocols() {
            let app = AppParams::new(receivers, rate_hz);
            let (report, events) = Scenario::paper(reference_env(protocol), app, 42)
                .with_samples(100)
                .run_counted(TransportConfig::new(protocol));
            measured.push((
                protocol.label(),
                receivers,
                rate_hz,
                fingerprint_debug(&report),
                events,
            ));
        }
    }
    for (label, receivers, rate_hz, digest, events) in &measured {
        println!("    (\"{label}\", {receivers}, {rate_hz}, {digest:#018x}, {events}),");
    }
    assert_eq!(measured.len(), PINNED.len());
    for (got, want) in measured.iter().zip(PINNED) {
        assert_eq!(
            (got.0.as_str(), got.1, got.2, got.3, got.4),
            *want,
            "reference cell moved"
        );
    }
}

/// `(label, bandwidth, receivers, rate_hz, samples, report digest, events
/// processed)` of the cells that reach the long-stream and long-round-trip
/// paths.
const PINNED_DEEP: &[(&str, BandwidthClass, u32, u32, u64, u64, u64)] = &[
    (
        "ricochet-r4c3",
        BandwidthClass::Gbps1,
        15,
        100,
        1200,
        0x08c2e02a16d5ce2c,
        168373,
    ),
    (
        "streamcast-w64",
        BandwidthClass::Wan50ms,
        3,
        25,
        100,
        0x77b6a4bcb7c9a7a5,
        1599,
    ),
];

/// `scenario` over `protocol`, installed and run as `Scenario::run_counted`
/// does, keeping the simulation so the readers can be inspected.
fn run_kept(scenario: &Scenario, protocol: ProtocolKind) -> (Simulation, SessionHandles) {
    let qos = match protocol {
        ProtocolKind::Ricochet { .. } => QosProfile::time_critical(),
        _ => QosProfile::reliable(),
    };
    let mut participant = DomainParticipant::new(0, scenario.env.dds);
    participant.set_capture(false);
    let topic = participant
        .create_topic::<[u8; 12]>("adamant/experiment", qos)
        .unwrap();
    let host = scenario.env.host_config();
    let rate_hz = f64::from(scenario.app.rate_hz);
    let app = AppSpec::at_rate(scenario.samples, rate_hz, PAPER_PAYLOAD_BYTES);
    participant.create_data_writer(topic, qos, app).unwrap();
    for _ in 0..scenario.app.receivers {
        participant
            .create_data_reader(topic, qos, scenario.env.drop_probability())
            .unwrap();
    }
    let readers = vec![host; scenario.app.receivers as usize];
    let mut sim = Simulation::new(scenario.seed).with_network(scenario.env.network_config());
    let transport = TransportConfig::new(protocol);
    let handles =
        session::install_topic(&mut sim, &participant, topic, transport, host, &readers).unwrap();
    let publish_span = SimDuration::from_secs_f64(scenario.samples as f64 / rate_hz);
    sim.run_until(SimTime::ZERO + publish_span + SimDuration::from_secs(3));
    (sim, handles)
}

#[test]
fn long_stream_and_wan_cells_reproduce_pinned_digests_and_event_counts() {
    let cells = [
        (
            ProtocolKind::Ricochet { r: 4, c: 3 },
            BandwidthClass::Gbps1,
            15u32,
            100u32,
            1_200u64,
        ),
        (
            ProtocolKind::StreamCast { window: 64 },
            BandwidthClass::Wan50ms,
            3,
            25,
            100,
        ),
    ];
    let mut measured = Vec::new();
    for (protocol, bandwidth, receivers, rate_hz, samples) in cells {
        let env = Environment::new(
            MachineClass::Pc3000,
            bandwidth,
            DdsImplementation::OpenSplice,
            5,
        );
        let scenario =
            Scenario::paper(env, AppParams::new(receivers, rate_hz), 42).with_samples(samples);
        let (report, events) = scenario.run_counted(TransportConfig::new(protocol));

        // The cell reaches the path it is here for.
        let (sim, handles) = run_kept(&scenario, protocol);
        match protocol {
            ProtocolKind::Ricochet { .. } => assert!(
                handles
                    .receivers
                    .iter()
                    .all(|&node| session::reader(&sim, node)
                        .reception()
                        .log()
                        .delivered_count()
                        > 1_024),
                "every Ricochet reader's store must overflow"
            ),
            _ => assert!(
                handles.receivers.iter().any(|&node| {
                    let reader: &dyn Any = session::reader(&sim, node);
                    reader
                        .downcast_ref::<StreamCastReceiver>()
                        .unwrap()
                        .syns_sent()
                        > 1
                }),
                "some StreamCast reader must retry its SYN"
            ),
        }

        measured.push((
            protocol.label(),
            bandwidth,
            receivers,
            rate_hz,
            samples,
            fingerprint_debug(&report),
            events,
        ));
    }
    for (label, bandwidth, receivers, rate_hz, samples, digest, events) in &measured {
        println!(
            "    (\"{label}\", BandwidthClass::{bandwidth:?}, {receivers}, {rate_hz}, {samples}, {digest:#018x}, {events}),"
        );
    }
    assert_eq!(measured.len(), PINNED_DEEP.len());
    for (got, want) in measured.iter().zip(PINNED_DEEP) {
        assert_eq!(
            (got.0.as_str(), got.1, got.2, got.3, got.4, got.5, got.6),
            *want,
            "deep reference cell moved"
        );
    }
}
