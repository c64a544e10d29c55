//! Golden-trace determinism: fixed seeded runs produce the exact same
//! structured observability trace on every run, and each trace's stable
//! rendering matches its checked-in fixture byte for byte.
//!
//! Two fixtures live under `tests/fixtures/`: `golden_trace.txt` (a
//! simulated NAKcast session with a receiver crash) and
//! `golden_decisions.txt` (one observed `AdaptivePolicy::run_stream` under a
//! sustained loss rise, so the adaptation loop's alarm, probe, decision and
//! switch events are pinned beside the cores' sample and NAK events). When
//! an intentional engine, protocol or policy change alters an event stream,
//! regenerate them (see `tests/README.md`):
//!
//! ```text
//! ADAMANT_REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```

use adamant::{AppParams, BandwidthClass, Environment, StreamConfig};
use adamant_dds::DdsImplementation;
use adamant_experiments::chaos::build_policy;
use adamant_netsim::{
    Bandwidth, FaultPlan, HostConfig, LossModel, MachineClass, MemorySink, NetworkConfig, ObsEvent,
    SimDuration, SimTime, Simulation, TracedEvent,
};
use adamant_transport::{ant, AppSpec, ProtocolKind, SessionSpec, StackProfile, TransportConfig};
use std::path::PathBuf;

const SEED: u64 = 4242;
const SAMPLES: u64 = 30;

/// A compact but eventful scenario: NAKcast over a lossy end-host path so
/// the trace carries NAK rounds and retransmissions, plus a mid-stream
/// receiver crash so it carries fault transitions and crash-epoch drops.
fn golden_run() -> Vec<TracedEvent> {
    let host = HostConfig::new(MachineClass::Pc850, Bandwidth::MBPS_100);
    let spec = SessionSpec {
        transport: TransportConfig::new(ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(10),
        }),
        app: AppSpec::at_rate(SAMPLES, 100.0, 12),
        stack: StackProfile::new(40.0, 28),
        sender_host: host,
        receiver_hosts: vec![host; 2],
        drop_probability: 0.08,
        capture: false,
    };
    let mut sim = Simulation::new(SEED).with_obs_sink(MemorySink::new());
    let handles = ant::install(&mut sim, &spec);
    let plan = FaultPlan::new().crash_at(SimTime::from_millis(150), handles.receivers[1]);
    plan.run(&mut sim, SimTime::from_secs(2));
    sim.take_obs_events()
}

/// One observed adaptation run: a calm two-reader NAKcast stream whose
/// links turn 8 % lossy for good at 1 s. The monitor alarms after two bad
/// windows, re-probes, and the chaos knowledge base switches the NAK
/// timeout from 50 ms to 1 ms.
fn golden_decision_run() -> Vec<TracedEvent> {
    let env = Environment::new(
        MachineClass::Pc3000,
        BandwidthClass::Gbps1,
        DdsImplementation::OpenSplice,
        2,
    );
    let calm = env.network_config();
    let plan = FaultPlan::new().set_network_at(
        SimTime::from_secs(1),
        NetworkConfig {
            loss: LossModel::Bernoulli(0.08),
            ..calm
        },
    );
    let stream = StreamConfig::new(env, AppParams::new(2, 100), 240, SEED)
        .with_window(SimDuration::from_millis(500))
        .with_grace(SimDuration::from_millis(500))
        .with_observation();
    let initial = TransportConfig::new(ProtocolKind::Nakcast {
        timeout: SimDuration::from_millis(50),
    });
    build_policy().run_stream(&stream, initial, plan).trace
}

fn render(trace: &[TracedEvent]) -> String {
    let mut out = String::new();
    for event in trace {
        out.push_str(&event.to_string());
        out.push('\n');
    }
    out
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// Asserts `trace` renders to the fixture `name` byte for byte, or writes
/// the fixture under `ADAMANT_REGEN_GOLDEN`.
fn assert_matches_fixture(trace: &[TracedEvent], name: &str) {
    let rendered = render(trace);
    let path = fixture_path(name);
    if std::env::var_os("ADAMANT_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("create fixtures dir");
        std::fs::write(&path, &rendered).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             ADAMANT_REGEN_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        )
    });
    assert!(
        rendered == expected,
        "golden trace diverged from {} ({} rendered lines vs {} expected); if the \
         change is intentional, regenerate with ADAMANT_REGEN_GOLDEN=1 \
         cargo test --test golden_trace",
        path.display(),
        rendered.lines().count(),
        expected.lines().count()
    );
}

#[test]
fn golden_scenario_trace_is_deterministic() {
    let first = golden_run();
    let second = golden_run();
    assert!(!first.is_empty(), "golden scenario must produce a trace");
    assert_eq!(
        first, second,
        "identical seed and scenario must reproduce the trace event-for-event"
    );
    // The rendering (what the fixture stores) is byte-identical too.
    assert_eq!(render(&first), render(&second));
}

#[test]
fn golden_trace_matches_fixture() {
    assert_matches_fixture(&golden_run(), "golden_trace.txt");
}

#[test]
fn golden_decision_trace_matches_fixture() {
    let trace = golden_decision_run();
    let count = |pred: fn(&ObsEvent) -> bool| trace.iter().filter(|e| pred(&e.event)).count();
    for (name, n) in [
        (
            "HealAlarm",
            count(|e| matches!(e, ObsEvent::HealAlarm { .. })),
        ),
        (
            "HealProbe",
            count(|e| matches!(e, ObsEvent::HealProbe { .. })),
        ),
        (
            "HealDecision",
            count(|e| matches!(e, ObsEvent::HealDecision { .. })),
        ),
        (
            "HealSwitch",
            count(|e| matches!(e, ObsEvent::HealSwitch { .. })),
        ),
        (
            "SampleAccepted",
            count(|e| matches!(e, ObsEvent::SampleAccepted { .. })),
        ),
        ("NakSent", count(|e| matches!(e, ObsEvent::NakSent { .. }))),
    ] {
        assert!(n > 0, "the decision trace holds no {name} event");
    }
    assert_matches_fixture(&trace, "golden_decisions.txt");
}
