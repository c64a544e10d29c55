//! Protocol explorer: compare every transport protocol on one cloud
//! environment and see which one each composite metric would pick.
//!
//! ```text
//! cargo run --release --example protocol_explorer [pc850|pc3000] [1gb|100mb|10mb] [loss%] [receivers] [rate]
//! ```
//!
//! Defaults to the paper's Figure 5 environment (pc850, 100 Mb, 5% loss,
//! 3 receivers, 25 Hz).

use adamant::prelude::*;

fn parse_args() -> (Environment, AppParams) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machine = match args.first().map(String::as_str) {
        Some("pc3000") => MachineClass::Pc3000,
        _ => MachineClass::Pc850,
    };
    let bandwidth = match args.get(1).map(String::as_str) {
        Some("1gb") => BandwidthClass::Gbps1,
        Some("10mb") => BandwidthClass::Mbps10,
        _ => BandwidthClass::Mbps100,
    };
    let loss: u8 = args
        .get(2)
        .and_then(|s| s.trim_end_matches('%').parse().ok())
        .unwrap_or(5);
    let receivers: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(3);
    let rate: u32 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(25);
    (
        Environment::new(machine, bandwidth, DdsImplementation::OpenSplice, loss),
        AppParams::new(receivers, rate),
    )
}

fn main() {
    let (env, app) = parse_args();
    println!("environment: {env}");
    println!("application: {app}\n");

    // The six ANN candidates plus the best-effort baseline.
    let mut protocols: Vec<ProtocolKind> = ProtocolKind::paper_candidates().to_vec();
    protocols.push(ProtocolKind::Udp);

    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>12} {:>14}",
        "protocol", "reliab %", "lat µs", "jit µs", "ReLate2", "ReLate2Jit"
    );
    let scenario = Scenario::paper(env, app, 7).with_samples(2_000);
    let mut results = Vec::new();
    for kind in &protocols {
        let reports = scenario.run_repeated(TransportConfig::new(*kind), 3);
        let n = reports.len() as f64;
        let reliability = reports.iter().map(|r| r.reliability()).sum::<f64>() / n * 100.0;
        let latency = reports.iter().map(|r| r.avg_latency_us).sum::<f64>() / n;
        let jitter = reports.iter().map(|r| r.jitter_us).sum::<f64>() / n;
        let relate2 = reports
            .iter()
            .map(|r| MetricKind::ReLate2.score(r))
            .sum::<f64>()
            / n;
        let relate2jit = reports
            .iter()
            .map(|r| MetricKind::ReLate2Jit.score(r))
            .sum::<f64>()
            / n;
        println!(
            "{:<18} {:>10.3} {:>10.1} {:>10.1} {:>12.1} {:>14.0}",
            kind.label(),
            reliability,
            latency,
            jitter,
            relate2,
            relate2jit
        );
        results.push((*kind, relate2, relate2jit));
    }

    // Rank only the ANN's candidate set: the UDP baseline is a framework
    // demonstration (its zero jitter is an artifact of a cross-traffic-free
    // simulation and would degenerate ReLate2Jit).
    let candidates = ProtocolKind::paper_candidates();
    let best_relate2 = results
        .iter()
        .filter(|r| candidates.contains(&r.0))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty");
    let best_relate2jit = results
        .iter()
        .filter(|r| candidates.contains(&r.0))
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("nonempty");
    println!("\nbest for ReLate2:    {}", best_relate2.0);
    println!("best for ReLate2Jit: {}", best_relate2jit.0);
    println!(
        "\n(ADAMANT's ANN learns exactly this mapping across the whole\n\
         environment space, then answers it in microseconds at deployment.)"
    );
}
