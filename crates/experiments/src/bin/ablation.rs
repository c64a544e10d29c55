//! Ablation studies of the calibrated design choices (DESIGN.md §3.0).
//!
//! ```text
//! ablation [samples] [reps]
//! ```
//!
//! Four sweeps, each asking whether a headline result depends on one
//! calibrated constant:
//!
//! 1. `repair_efficacy` — Ricochet's residual loss vs. the Fig 4/5 winner.
//! 2. `heartbeat_interval` — NAKcast gap-detection delay vs. the Fig 4
//!    winner.
//! 3. `fec_maintenance_cost` — the LEC stall vs. the Fig 11 crossover.
//! 4. Metric family — which protocol each composite metric (including the
//!    extended ReLate2Burst / ReLate2Net) would pick per environment.

use adamant::{AppParams, Environment};
use adamant_experiments::figures::{fast_environment, headline_protocols, slow_environment};
use adamant_experiments::{run_all, RunSpec};
use adamant_metrics::{MetricKind, QosReport};
use adamant_netsim::SimDuration;
use adamant_transport::Tuning;

fn duel(
    env: Environment,
    app: AppParams,
    samples: u64,
    reps: u32,
    tuning: Tuning,
    metric: MetricKind,
) -> (f64, f64) {
    let mut scores = Vec::new();
    for protocol in headline_protocols() {
        let specs: Vec<RunSpec> = (0..reps)
            .map(|repetition| RunSpec {
                env,
                app,
                protocol,
                samples,
                repetition,
            })
            .collect();
        let reports: Vec<QosReport> = run_all(&specs, tuning)
            .into_iter()
            .map(|r| r.report)
            .collect();
        scores.push(reports.iter().map(|r| metric.score(r)).sum::<f64>() / reports.len() as f64);
    }
    (scores[0], scores[1])
}

fn winner(nak: f64, ric: f64) -> &'static str {
    if ric < nak {
        "Ricochet"
    } else {
        "NAKcast"
    }
}

fn main() {
    let samples: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000);
    let reps: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let app3 = AppParams::new(3, 25);
    let app15 = AppParams::new(15, 10);
    let (fast, slow) = (fast_environment(), slow_environment());

    println!("── ablation 1: repair_efficacy vs the Fig 4/5 ReLate2 winner ──");
    println!(
        "{:>9} | {:>22} | {:>22}",
        "efficacy", "pc3000/1Gb (paper: R)", "pc850/100Mb (paper: N)"
    );
    for efficacy in [0.5, 0.7, 0.9, 1.0] {
        let tuning = Tuning {
            repair_efficacy: efficacy,
            ..Tuning::default()
        };
        let (nf, rf) = duel(fast, app3, samples, reps, tuning, MetricKind::ReLate2);
        let (ns, rs) = duel(slow, app3, samples, reps, tuning, MetricKind::ReLate2);
        println!(
            "{:>9.2} | {:>22} | {:>22}",
            efficacy,
            winner(nf, rf),
            winner(ns, rs)
        );
    }

    println!("\n── ablation 2: heartbeat interval vs the Fig 4 ReLate2 winner ──");
    println!(
        "{:>10} | {:>12} | {:>12} | winner (paper: Ricochet)",
        "interval", "NAKcast", "Ricochet"
    );
    for ms in [5u64, 15, 30, 60] {
        let tuning = Tuning {
            heartbeat_interval: SimDuration::from_millis(ms),
            ..Tuning::default()
        };
        let (n, r) = duel(fast, app3, samples, reps, tuning, MetricKind::ReLate2);
        println!("{:>8}ms | {:>12.1} | {:>12.1} | {}", ms, n, r, winner(n, r));
    }

    println!("\n── ablation 3: LEC maintenance stall vs the Fig 11 ReLate2Jit winner ──");
    println!(
        "{:>10} | {:>14} | {:>14} | winner (paper: NAKcast)",
        "stall", "NAKcast", "Ricochet"
    );
    for stall_us in [0.0, 4_000.0, 12_000.0, 24_000.0] {
        let tuning = Tuning {
            fec_maintenance_cost_us: stall_us,
            ..Tuning::default()
        };
        let (n, r) = duel(slow, app15, samples, reps, tuning, MetricKind::ReLate2Jit);
        println!(
            "{:>8.0}µs | {:>14.0} | {:>14.0} | {}",
            stall_us,
            n,
            r,
            winner(n, r)
        );
    }

    println!("\n── ablation 4: the full composite-metric family per environment ──");
    println!(
        "{:>14} | {:>12} | {:>12}",
        "metric", "pc3000/1Gb", "pc850/100Mb"
    );
    for metric in MetricKind::all() {
        let (nf, rf) = duel(fast, app3, samples, reps, Tuning::default(), metric);
        let (ns, rs) = duel(slow, app3, samples, reps, Tuning::default(), metric);
        println!(
            "{:>14} | {:>12} | {:>12}",
            metric.to_string(),
            winner(nf, rf),
            winner(ns, rs)
        );
    }
}
