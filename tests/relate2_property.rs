//! Property test: across random seeds, topologies, and protocols, the
//! ReLate2 composite recomputed purely from the delivery trace equals the
//! value the metrics engine reports from its pooled QoS report, within
//! 1e-9. The checker and the report both fold the same integer-nanosecond
//! latencies into a `QosAccumulator`, whose mean does not depend on the
//! order they arrive in.

use adamant_dds::session;
use adamant_metrics::{verify_trace, InvariantKind, MetricKind, VerifySpec};
use adamant_netsim::{
    Bandwidth, HostConfig, MachineClass, MemorySink, SimDuration, SimTime, Simulation,
};
use adamant_proto::splitmix64;
use adamant_transport::{AppSpec, ProtocolKind, SessionSpec, StackProfile, TransportConfig};

fn random_protocol(state: &mut u64) -> ProtocolKind {
    match splitmix64(state) % 3 {
        0 => ProtocolKind::Udp,
        1 => ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1 + splitmix64(state) % 50),
        },
        _ => ProtocolKind::Ricochet {
            r: 3 + (splitmix64(state) % 4) as u8,
            c: 2 + (splitmix64(state) % 3) as u8,
        },
    }
}

#[test]
fn trace_recomputed_relate2_matches_reported() {
    let mut state = 0x5eed_cafe_f00d_u64;
    for case in 0..24u64 {
        let kind = random_protocol(&mut state);
        let receivers = 2 + (splitmix64(&mut state) % 4) as usize;
        let samples = 80 + splitmix64(&mut state) % 160;
        let drop = (splitmix64(&mut state) % 9) as f64 / 100.0;
        let seed = splitmix64(&mut state);
        let machine = if splitmix64(&mut state).is_multiple_of(2) {
            MachineClass::Pc3000
        } else {
            MachineClass::Pc850
        };
        let host = HostConfig::new(machine, Bandwidth::MBPS_100);
        let spec = SessionSpec {
            transport: TransportConfig::new(kind),
            app: AppSpec::at_rate(samples, 100.0, 12),
            stack: StackProfile::new(40.0, 28),
            drop_probability: drop,
            capture: false,
        };

        let mut sim = Simulation::new(seed).with_obs_sink(MemorySink::new());
        let handles = session::install(&mut sim, &spec, host, &vec![host; receivers]);
        sim.run_until(SimTime::ZERO + spec.app.publish_span() + SimDuration::from_secs(3));
        let trace = sim.take_obs_events();
        let report = session::collect_report(&sim, &handles);

        let reported = MetricKind::ReLate2.score(&report);
        let vspec = VerifySpec::new(samples, receivers as u32).with_reported_relate2(reported);
        let verify = verify_trace(&trace, &vspec);

        let ctx = format!(
            "case {case}: {kind}, {receivers} receivers, {samples} samples, \
             drop {drop:.2}, seed {seed}"
        );
        assert_eq!(
            verify.violations_of(InvariantKind::Relate2Consistency),
            0,
            "{ctx}: {:?}",
            verify.violations
        );
        assert!(
            (verify.recomputed_relate2 - reported).abs() <= 1e-9,
            "{ctx}: recomputed {} vs reported {reported}",
            verify.recomputed_relate2
        );
        assert_eq!(
            verify.accepted, report.delivered,
            "{ctx}: trace and report must agree on delivered samples"
        );
        assert!(verify.is_clean(), "{ctx}: {:?}", verify.violations);
    }
}
