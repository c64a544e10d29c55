//! Satellite uplink: the paper's §2 deployment sketch, where the ad-hoc
//! datacenter is "connected to cloud infrastructure via high-speed
//! satellite links since ground-based wired connectivity may not be
//! available due to the disaster".
//!
//! A UAV ground station publishes infrared scans over a ~250 ms GEO
//! satellite hop into the datacenter, where fusion applications subscribe.
//! The uplink adds a constant floor to end-to-end latency that no
//! transport can remove — but loss recovery still happens *inside* the
//! datacenter fabric (lateral repairs between readers) or across the
//! satellite hop (NAK round trips), and that difference is exactly what
//! the transport choice controls.
//!
//! ```text
//! cargo run --release --example satellite_uplink
//! ```

use adamant::prelude::*;
use adamant_dds::session;

const GEO_ONE_WAY: SimDuration = SimDuration::from_millis(250);

fn run(kind: ProtocolKind) -> adamant_metrics::QosReport {
    let datacenter = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
    // The ground station reaches the datacenter LAN through the satellite.
    let ground_station = datacenter.with_uplink_delay(GEO_ONE_WAY);

    let mut participant = DomainParticipant::new(0, DdsImplementation::OpenSplice);
    let qos = QosProfile::time_critical();
    let topic = participant
        .create_topic::<[u8; 12]>("uav/infrared", qos)
        .expect("fresh topic");
    participant
        .create_data_writer(
            topic,
            qos,
            AppSpec::at_rate(2_000, 50.0, 12),
            ground_station,
        )
        .expect("writer");
    for _ in 0..5 {
        participant
            .create_data_reader(topic, qos, datacenter, 0.05)
            .expect("reader");
    }
    let mut sim = Simulation::new(404);
    let handles = participant
        .install(&mut sim, topic, TransportConfig::new(kind))
        .expect("install");
    sim.run_until(SimTime::from_secs(50));
    session::collect_report(&sim, &handles)
}

fn main() {
    println!(
        "UAV ground station → GEO satellite ({} ms one way) → datacenter, 5 readers, 5% loss\n",
        GEO_ONE_WAY.as_millis_f64()
    );
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>12}",
        "protocol", "reliab %", "avg lat ms", "p99.9 ms", "ReLate2"
    );
    for kind in [
        ProtocolKind::Ricochet { r: 4, c: 3 },
        ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1),
        },
    ] {
        let report = run(kind);
        println!(
            "{:<18} {:>10.3} {:>12.1} {:>12.1} {:>12.0}",
            kind.label(),
            report.reliability() * 100.0,
            report.avg_latency_us / 1_000.0,
            report.latency_percentile_us(0.999).unwrap_or(f64::NAN) / 1_000.0,
            MetricKind::ReLate2.score(&report),
        );
    }
    println!(
        "\nboth protocols pay the ~{} ms satellite floor on every sample, but their\n\
         recovery paths differ completely: Ricochet repairs laterally *inside* the\n\
         datacenter (microseconds of extra distance), while NAKcast's NAK →\n\
         retransmission round trip crosses the satellite twice (+{} ms per loss).\n\
         With loss in play, the transport choice still decides the tail.",
        GEO_ONE_WAY.as_millis_f64(),
        2.0 * GEO_ONE_WAY.as_millis_f64(),
    );
}
