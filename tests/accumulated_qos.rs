//! A report merged from the readers' `QosAccumulator`s says what the
//! per-delivery records say. On every pinned reference cell
//! (`reference_cells.rs`) and on one self-healing stream that switches
//! protocol mid-run, the report is compared with Welford's algorithm and a
//! `LatencyHistogram` fed every captured delivery:
//! - counts, the histogram and the simulator's event count are identical;
//! - mean latency and jitter agree within 1e-12 relative, or 1e-9 µs
//!   absolute near zero.
//!
//! The self-healing stream's windows are checked the same way against the
//! trace's deliveries of each window's samples, up to its measure point.
//!
//! Each cell runs twice: as `Scenario::run_counted` runs it, whose readers
//! do not capture, and rebuilt here with a DDS participant whose readers do.
//! Capturing the deliveries must change neither the report nor the number
//! of events the run processed.

use adamant::features::candidate_protocols;
use adamant::{AdaptivePolicy, AppParams, BandwidthClass, Environment, Scenario, StreamConfig};
use adamant_dds::{session, DdsImplementation, DomainParticipant, QosProfile, SessionHandles};
use adamant_metrics::{Delivery, LatencyHistogram, MetricKind, QosReport, Welford};
use adamant_netsim::{FaultPlan, MachineClass, ObsEvent, SimDuration, SimTime, Simulation};
use adamant_transport::{AppSpec, ProtocolKind, TransportConfig, PAPER_PAYLOAD_BYTES};

/// The reference cells' environment (as in `reference_cells.rs`).
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

/// `scenario` over `transport`, installed and run as
/// `Scenario::run_counted` does, but by a participant whose readers capture
/// their deliveries (the default).
fn run_captured(scenario: &Scenario, transport: TransportConfig) -> (Simulation, SessionHandles) {
    let qos = match transport.kind {
        ProtocolKind::Udp => QosProfile::best_effort(),
        ProtocolKind::Ricochet { .. } => QosProfile::time_critical(),
        _ => QosProfile::reliable(),
    };
    let mut participant = DomainParticipant::new(0, scenario.env.dds);
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
    let handles =
        session::install_topic(&mut sim, &participant, topic, transport, host, &readers).unwrap();
    let publish_span = SimDuration::from_secs_f64(scenario.samples as f64 / rate_hz);
    sim.run_until(SimTime::ZERO + publish_span + SimDuration::from_secs(3));
    (sim, handles)
}

/// Whether `got` is `want` within 1e-12 relative, or 1e-9 absolute near
/// zero.
fn close(got: f64, want: f64) -> bool {
    let diff = (got - want).abs();
    diff <= 1e-12 * got.abs().max(want.abs()) || diff <= 1e-9
}

/// What the report must say, folded delivery by delivery.
#[derive(Default)]
struct PerDelivery {
    delivered: u64,
    recovered: u64,
    latency: Welford,
    histogram: LatencyHistogram,
}

impl PerDelivery {
    fn push(&mut self, delivery: &Delivery) {
        let us = delivery.latency().as_micros_f64();
        self.delivered += 1;
        self.recovered += u64::from(delivery.recovered);
        self.latency.push(us);
        self.histogram.record_us(us);
    }

    fn assert_matches(&self, report: &QosReport, ctx: &str) {
        assert_eq!(report.delivered, self.delivered, "{ctx}: delivered");
        assert_eq!(report.recovered, self.recovered, "{ctx}: recovered");
        assert_eq!(report.latency_histogram, self.histogram, "{ctx}: histogram");
        let (mean, jitter) = (self.latency.mean(), self.latency.population_stddev());
        assert!(
            close(report.avg_latency_us, mean),
            "{ctx}: mean {} vs Welford {mean}",
            report.avg_latency_us
        );
        assert!(
            close(report.jitter_us, jitter),
            "{ctx}: jitter {} vs Welford {jitter}",
            report.jitter_us
        );
    }
}

#[test]
fn reference_cells_report_what_their_captured_deliveries_say() {
    for (receivers, rate_hz) in [(3u32, 25u32), (15, 25), (15, 100)] {
        for protocol in candidate_protocols() {
            let ctx = format!("{} {receivers}x{rate_hz}", protocol.label());
            let scenario = Scenario::paper(
                reference_env(protocol),
                AppParams::new(receivers, rate_hz),
                42,
            )
            .with_samples(100);
            let transport = TransportConfig::new(protocol);
            let (report, events) = scenario.run_counted(transport);

            let (sim, handles) = run_captured(&scenario, transport);
            assert_eq!(sim.events_processed(), events, "{ctx}: events");
            assert_eq!(session::collect_report(&sim, &handles), report, "{ctx}");
            let mut want = PerDelivery::default();
            let mut duplicates = 0;
            for &node in &handles.receivers {
                let reader = session::reader(&sim, node);
                reader
                    .log()
                    .deliveries()
                    .expect("captured")
                    .for_each(|d| want.push(&d));
                duplicates += reader.duplicates();
            }
            assert_eq!(report.duplicates, duplicates, "{ctx}: duplicates");
            want.assert_matches(&report, &ctx);
        }
    }
}

#[test]
fn a_self_healing_stream_reports_what_its_trace_delivered() {
    let env = |loss| {
        Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            loss,
        )
    };
    // Loss rises from 2 % to 9 % two seconds in: the policy switches away
    // from NAKcast, so the report pools a dead incarnation's deliveries
    // with the live readers'.
    let plan = FaultPlan::new().set_network_at(SimTime::from_secs(2), env(9).network_config());
    let initial = TransportConfig::new(ProtocolKind::Nakcast {
        timeout: SimDuration::from_millis(50),
    });
    let stream = StreamConfig::new(env(2), AppParams::new(2, 100), 600, 7).with_observation();
    let outcome = AdaptivePolicy::new(MetricKind::ReLate2).run_stream(&stream, initial, plan);
    assert!(
        !outcome.switches.is_empty(),
        "the stream must switch protocol"
    );

    let accepted: Vec<Delivery> = outcome
        .trace
        .iter()
        .filter_map(|event| match event.event {
            ObsEvent::SampleAccepted {
                seq,
                published_ns,
                delivered_ns,
                recovered,
                ..
            } => Some(Delivery {
                seq,
                published_at: SimTime::from_nanos(published_ns),
                delivered_at: SimTime::from_nanos(delivered_ns),
                recovered,
            }),
            _ => None,
        })
        .collect();
    let mut want = PerDelivery::default();
    accepted.iter().for_each(|d| want.push(d));
    want.assert_matches(&outcome.report, "run_stream");

    // Window by window: a window holds the samples published in it and
    // delivered by its measure point, 1 ns before it ends — that is, in
    // the same window.
    let window_ns = SimDuration::from_secs(1).as_nanos();
    let mut windows: Vec<PerDelivery> =
        outcome.windows.iter().map(|_| Default::default()).collect();
    let (mut recovered_in_window, mut read_too_late) = (0, 0);
    for d in &accepted {
        let window = d.published_at.as_nanos() / window_ns;
        if d.delivered_at.as_nanos() / window_ns == window {
            windows[window as usize].push(d);
            recovered_in_window += u64::from(d.recovered);
        } else {
            read_too_late += 1;
        }
    }
    // Recoveries count toward their publication window, and a delivery
    // after its window was read counts toward none.
    assert!(recovered_in_window > 0 && read_too_late > 0);
    for (i, (got, want)) in outcome.windows.iter().zip(&windows).enumerate() {
        let (mean, jitter) = (want.latency.mean(), want.latency.population_stddev());
        assert_eq!(got.delivered, want.delivered, "window {i}: delivered");
        assert!(
            close(got.avg_latency_us, mean),
            "window {i}: mean {got:?} vs {mean}"
        );
        assert!(
            close(got.jitter_us, jitter),
            "window {i}: jitter {got:?} vs {jitter}"
        );
    }
    // The grace windows publish nothing and read reliability 0.
    let grace: Vec<_> = outcome
        .windows
        .iter()
        .filter(|w| w.published == 0)
        .collect();
    assert!(!grace.is_empty());
    assert!(grace
        .iter()
        .all(|w| w.delivered == 0 && w.reliability() == 0.0));
}
