//! Golden-trace determinism: a fixed seeded scenario produces the exact
//! same structured observability trace on every run, and that trace's
//! stable rendering matches the checked-in fixture byte for byte.
//!
//! The fixture lives at `tests/fixtures/golden_trace.txt`. When an
//! intentional engine or protocol change alters the event stream,
//! regenerate it (see `tests/README.md`):
//!
//! ```text
//! ADAMANT_REGEN_GOLDEN=1 cargo test --test golden_trace
//! ```

use adamant_netsim::{
    Bandwidth, FaultPlan, HostConfig, MachineClass, MemorySink, SimDuration, SimTime, Simulation,
    TracedEvent,
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

fn render(trace: &[TracedEvent]) -> String {
    let mut out = String::new();
    for event in trace {
        out.push_str(&event.to_string());
        out.push('\n');
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_trace.txt")
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
    let rendered = render(&golden_run());
    let path = fixture_path();
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
