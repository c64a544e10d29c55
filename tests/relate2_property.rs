//! Property test: across random seeds, topologies, and protocols, the
//! ReLate2 composite recomputed purely from the delivery trace equals the
//! value the metrics engine reports from its pooled QoS report, within
//! 1e-9. The checker and the report both fold the same integer-nanosecond
//! latencies into a `QosAccumulator`, whose mean does not depend on the
//! order they arrive in.

use adamant_metrics::{verify_trace, InvariantKind, MetricKind, VerifySpec};
use adamant_netsim::{
    Bandwidth, HostConfig, MachineClass, MemorySink, SimDuration, SimTime, Simulation,
};
use adamant_transport::{ant, AppSpec, ProtocolKind, SessionSpec, StackProfile, TransportConfig};

/// Deterministic splitmix-style generator so the "random" configurations
/// are reproducible without an external property-testing dependency.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_protocol(state: &mut u64) -> ProtocolKind {
    match next(state) % 5 {
        0 => ProtocolKind::Udp,
        1 => ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1 + next(state) % 50),
        },
        2 => ProtocolKind::Ricochet {
            r: 3 + (next(state) % 4) as u8,
            c: 2 + (next(state) % 3) as u8,
        },
        3 => ProtocolKind::Ackcast {
            rto: SimDuration::from_millis(5 + next(state) % 40),
        },
        _ => ProtocolKind::Slingshot {
            c: 2 + (next(state) % 3) as u8,
        },
    }
}

#[test]
fn trace_recomputed_relate2_matches_reported() {
    let mut state = 0x5eed_cafe_f00d_u64;
    for case in 0..24u64 {
        let kind = random_protocol(&mut state);
        let receivers = 2 + (next(&mut state) % 4) as usize;
        let samples = 80 + next(&mut state) % 160;
        let drop = (next(&mut state) % 9) as f64 / 100.0;
        let seed = next(&mut state);
        let machine = if next(&mut state).is_multiple_of(2) {
            MachineClass::Pc3000
        } else {
            MachineClass::Pc850
        };
        let host = HostConfig::new(machine, Bandwidth::MBPS_100);
        let spec = SessionSpec {
            transport: TransportConfig::new(kind),
            app: AppSpec::at_rate(samples, 100.0, 12),
            stack: StackProfile::new(40.0, 28),
            sender_host: host,
            receiver_hosts: vec![host; receivers],
            drop_probability: drop,
            capture: false,
        };

        let mut sim = Simulation::new(seed).with_obs_sink(MemorySink::new());
        let handles = ant::install(&mut sim, &spec);
        sim.run_until(SimTime::ZERO + spec.app.publish_span() + SimDuration::from_secs(3));
        let trace = sim.take_obs_events();
        let report = ant::collect_report(&sim, &handles);

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
