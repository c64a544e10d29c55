//! End-to-end configuration time (the paper's Challenge 2: "timely
//! configuration").
//!
//! Figures 20–21 time only the ANN query; this harness times the whole
//! startup path ADAMANT executes when the cloud hands over resources:
//!
//! 1. parse the platform description (`/proc/cpuinfo`-format text),
//! 2. encode features and query the ANN,
//! 3. build the DDS entities and install the session over the chosen
//!    transport (simulator construction stands in for middleware wiring).
//!
//! ```text
//! config_time [iterations]      (needs artifacts/selector.json; see `train`)
//! ```

use std::time::Instant;

use adamant::{AppParams, Environment, LinuxProcProbe, ProtocolSelector};
use adamant_dds::{session, DomainParticipant, QosProfile};
use adamant_experiments::artifacts;
use adamant_metrics::MetricKind;
use adamant_netsim::Simulation;
use adamant_transport::{AppSpec, ProtocolKind, TransportConfig};

const CPUINFO: &str =
    "processor\t: 0\nmodel name\t: Intel(R) Xeon(TM) CPU 3.00GHz\ncpu MHz\t\t: 2992.689\n";

fn main() {
    let iterations: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000);
    let selector: ProtocolSelector = artifacts::load("selector.json").unwrap_or_else(|e| {
        eprintln!("cannot load selector artifact ({e}); run `train` first");
        std::process::exit(1);
    });
    let app = AppParams::new(3, 25);

    // Stage 1: probe parsing.
    let start = Instant::now();
    for _ in 0..iterations {
        let probed = LinuxProcProbe::parse(std::hint::black_box(CPUINFO)).expect("fixture parses");
        std::hint::black_box(probed);
    }
    let probe_us = start.elapsed().as_nanos() as f64 / iterations as f64 / 1_000.0;

    // Stage 2: feature encoding + ANN query.
    let probed = LinuxProcProbe::parse(CPUINFO).expect("fixture parses");
    let env = Environment::new(
        probed.machine_class(),
        probed.bandwidth_class(),
        adamant_dds::DdsImplementation::OpenSplice,
        5,
    );
    let start = Instant::now();
    let mut selected = ProtocolKind::Udp;
    for _ in 0..iterations {
        selected = selector
            .select(std::hint::black_box(&env), &app, MetricKind::ReLate2)
            .protocol;
    }
    let query_us = start.elapsed().as_nanos() as f64 / iterations as f64 / 1_000.0;

    // Stage 3: DDS entity construction + transport installation.
    let start = Instant::now();
    for _ in 0..iterations {
        let mut participant = DomainParticipant::new(0, env.dds);
        let qos = match selected {
            ProtocolKind::Nakcast { .. } => QosProfile::reliable(),
            ProtocolKind::Udp => QosProfile::best_effort(),
            _ => QosProfile::time_critical(),
        };
        let topic = participant
            .create_topic::<[u8; 12]>("t", qos)
            .expect("topic");
        participant
            .create_data_writer(topic, qos, AppSpec::at_rate(100, 25.0, 12))
            .expect("writer");
        for _ in 0..app.receivers {
            participant
                .create_data_reader(topic, qos, env.drop_probability())
                .expect("reader");
        }
        let mut sim = Simulation::new(1).with_network(env.network_config());
        let host = env.host_config();
        let readers = vec![host; app.receivers as usize];
        let transport = TransportConfig::new(selected);
        let handles =
            session::install_topic(&mut sim, &participant, topic, transport, host, &readers)
                .expect("install");
        std::hint::black_box(handles);
    }
    let install_us = start.elapsed().as_nanos() as f64 / iterations as f64 / 1_000.0;

    println!("end-to-end configuration time ({iterations} iterations, this host):");
    println!("  1. probe parse (cpuinfo):        {probe_us:>9.2} µs");
    println!("  2. feature encode + ANN query:   {query_us:>9.2} µs");
    println!("  3. DDS entities + ANT install:   {install_us:>9.2} µs");
    println!(
        "  total:                           {:>9.2} µs",
        probe_us + query_us + install_us
    );
    println!("  selected protocol: {selected}");
    println!(
        "\nthe decision step the paper bounds (stage 2) is a vanishing share of\n\
         startup; the whole autonomic path is far below any human-scale\n\
         deployment latency, which is the paper's Challenge 2 requirement."
    );
}
