//! Search-and-rescue datacenter (the paper's §2 motivating example).
//!
//! After a regional disaster, an ad-hoc datacenter is stood up on whatever
//! cloud resources can be provisioned. Two sensor streams flow through the
//! DDS middleware:
//!
//! * **UAV infrared scans** — 25 Hz, consumed by 3 survivor-detection
//!   fusion applications; timeliness matters most (`ReLate2`).
//! * **Traffic-camera video metadata** — 10 Hz, fanned out to 15
//!   applications (fire detection, structural assessment, looting watch);
//!   jitter matters too, so the composite of interest is `ReLate2Jit`.
//!
//! ADAMANT probes the provisioned hardware and configures each stream's
//! transport separately, then both sessions run concurrently in the same
//! simulated datacenter and the fusion timing constraint is checked.
//!
//! ```text
//! cargo run --release --example sar_datacenter
//! ```

use adamant::prelude::*;
use adamant::{Adamant, LabeledDataset, SimulatedCloud};
use adamant_dds::session;

fn train_adamant() -> Adamant {
    // Train on a compact slice of the configuration space (see the
    // quickstart example; the experiments crate builds the full set).
    let mut configs = Vec::new();
    for machine in MachineClass::all() {
        for bandwidth in [BandwidthClass::Gbps1, BandwidthClass::Mbps100] {
            for loss in [2u8, 5] {
                let env = Environment::new(machine, bandwidth, DdsImplementation::OpenSplice, loss);
                configs.push((env, AppParams::new(3, 25)));
                configs.push((env, AppParams::new(15, 10)));
            }
        }
    }
    let dataset = LabeledDataset::measure(&configs, 600, 2);
    let (selector, _) = ProtocolSelector::train_from(&dataset, &SelectorConfig::default());
    Adamant::new(selector)
}

fn main() {
    println!("standing up the SAR datacenter on provisioned cloud resources...\n");
    let adamant = train_adamant();

    // The disaster knocked out the primary site; the cloud provisioned
    // fast nodes on a gigabit LAN. The emergency SLA allows 5% end-host
    // loss under surge conditions.
    let provisioned = Environment::new(
        MachineClass::Pc3000,
        BandwidthClass::Gbps1,
        DdsImplementation::OpenSplice,
        5,
    );
    let cloud = SimulatedCloud::new(provisioned);

    // Per-stream autonomic configuration.
    let infrared_app = AppParams::new(3, 25);
    let video_app = AppParams::new(15, 10);
    let infrared = adamant
        .configure(
            &cloud,
            DdsImplementation::OpenSplice,
            5,
            infrared_app,
            MetricKind::ReLate2,
        )
        .expect("probe");
    let video = adamant
        .configure(
            &cloud,
            DdsImplementation::OpenSplice,
            5,
            video_app,
            MetricKind::ReLate2Jit,
        )
        .expect("probe");
    println!(
        "UAV infrared scans  → {}  (decided in {:?})",
        infrared.selection.protocol, infrared.selection.elapsed
    );
    println!(
        "camera video feeds  → {}  (decided in {:?})\n",
        video.selection.protocol, video.selection.elapsed
    );

    // Build both DDS sessions in ONE simulated datacenter.
    let env = infrared.environment;
    let mut participant = DomainParticipant::new(0, env.dds);
    let qos = QosProfile::time_critical();
    let host = env.host_config();

    let infrared_topic = participant
        .create_topic::<[u8; 12]>("sar/uav/infrared", qos)
        .expect("fresh topic");
    participant
        .create_data_writer(infrared_topic, qos, AppSpec::at_rate(3_000, 25.0, 12))
        .expect("writer");
    for _ in 0..infrared_app.receivers {
        participant
            .create_data_reader(infrared_topic, qos, env.drop_probability())
            .expect("reader");
    }

    let video_topic = participant
        .create_topic::<[u8; 12]>("sar/cameras/video", qos)
        .expect("fresh topic");
    participant
        .create_data_writer(video_topic, qos, AppSpec::at_rate(1_200, 10.0, 12))
        .expect("writer");
    for _ in 0..video_app.receivers {
        participant
            .create_data_reader(video_topic, qos, env.drop_probability())
            .expect("reader");
    }

    let mut sim = Simulation::new(2026).with_network(env.network_config());
    let infrared_readers = vec![host; infrared_app.receivers as usize];
    let infrared_handles = session::install_topic(
        &mut sim,
        &participant,
        infrared_topic,
        infrared.transport(),
        host,
        &infrared_readers,
    )
    .expect("install infrared");
    let video_readers = vec![host; video_app.receivers as usize];
    let video_handles = session::install_topic(
        &mut sim,
        &participant,
        video_topic,
        video.transport(),
        host,
        &video_readers,
    )
    .expect("install video");
    sim.run_until(SimTime::from_secs(125));

    let infrared_report = session::collect_report(&sim, &infrared_handles);
    let video_report = session::collect_report(&sim, &video_handles);
    for (name, report, metric) in [
        ("infrared", &infrared_report, MetricKind::ReLate2),
        ("video   ", &video_report, MetricKind::ReLate2Jit),
    ] {
        println!(
            "{name}: reliability {:.3}%  latency {:.0} µs  jitter {:.0} µs  {} {:.0}",
            report.reliability() * 100.0,
            report.avg_latency_us,
            report.jitter_us,
            metric,
            metric.score(report),
        );
    }

    // Fusion constraint: the survivor-detection correlator needs matched
    // infrared/video samples within a 50 ms window; check the measured
    // 99.9th-percentile latency of both streams against it.
    let window_us = 50_000.0;
    let p999 = |r: &adamant_metrics::QosReport| r.latency_percentile_us(0.999).unwrap_or(f64::MAX);
    println!(
        "
p99.9 latency: infrared {:.0} µs, video {:.0} µs (fusion window {} µs)",
        p999(&infrared_report),
        p999(&video_report),
        window_us
    );
    let ok = p999(&infrared_report) < window_us && p999(&video_report) < window_us;
    println!(
        "\nfusion window check (50 ms correlation): {}",
        if ok {
            "PASS — streams fuse in time; dispatch can trust detections"
        } else {
            "FAIL — streams drift apart; detections would be unreliable"
        }
    );
}
