//! Property-style tests of protocol invariants under seeded randomized
//! workloads and loss rates, on whole sessions installed on the simulator.

use adamant_dds::session;
use adamant_metrics::QosReport;
use adamant_netsim::{Bandwidth, HostConfig, MachineClass, SimDuration, SimTime, Simulation};
use adamant_transport::{AppSpec, ProtocolKind, SessionSpec, StackProfile, TransportConfig};

/// Splitmix-style case generator.
struct CaseRng(u64);

impl CaseRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn run(
    kind: ProtocolKind,
    samples: u64,
    rate_hz: f64,
    receivers: usize,
    drop: f64,
    seed: u64,
) -> QosReport {
    let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
    let spec = SessionSpec {
        transport: TransportConfig::new(kind),
        app: AppSpec::at_rate(samples, rate_hz, 12),
        stack: StackProfile::new(20.0, 48),
        drop_probability: drop,
        capture: false,
    };
    let mut sim = Simulation::new(seed);
    let handles = session::install(&mut sim, &spec, host, &vec![host; receivers]);
    let span = samples as f64 / rate_hz;
    sim.run_until(SimTime::from_secs(span as u64 + 5));
    session::collect_report(&sim, &handles)
}

/// NAKcast recovers to full (or near-full) reliability for any loss
/// rate in a wide band, and never delivers more than was sent.
#[test]
fn nakcast_reliability_invariant() {
    let mut rng = CaseRng(31);
    for _ in 0..12 {
        let drop = rng.unit() * 0.25;
        let receivers = rng.range_u64(1, 5) as usize;
        let seed = rng.range_u64(0, 100);
        let report = run(
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1),
            },
            300,
            100.0,
            receivers,
            drop,
            seed,
        );
        assert!(
            report.reliability() > 0.999,
            "reliability {}",
            report.reliability()
        );
        assert!(report.delivered <= report.samples_sent * report.receivers as u64);
    }
}

/// Ricochet reliability is never below the raw no-recovery floor
/// `(1 - p)` (repairs only add deliveries) and never above 1.
#[test]
fn ricochet_reliability_bounds() {
    let mut rng = CaseRng(32);
    for _ in 0..12 {
        let drop = rng.unit() * 0.2;
        let seed = rng.range_u64(0, 100);
        let report = run(
            ProtocolKind::Ricochet { r: 4, c: 3 },
            400,
            100.0,
            3,
            drop,
            seed,
        );
        // Allow binomial slack below the mean floor.
        let floor = (1.0 - drop) - 3.0 * (drop * (1.0 - drop) / 1200.0).sqrt() - 0.01;
        assert!(
            report.reliability() >= floor.max(0.0),
            "reliability {} below floor {} at p={}",
            report.reliability(),
            floor,
            drop
        );
        assert!(report.reliability() <= 1.0);
    }
}

/// UDP reliability tracks (1 - p) within statistical error, and its
/// latency is unaffected by the loss rate.
#[test]
fn udp_matches_bernoulli_loss() {
    let mut rng = CaseRng(33);
    for _ in 0..12 {
        let drop = rng.unit() * 0.5;
        let seed = rng.range_u64(0, 50);
        let report = run(ProtocolKind::Udp, 500, 200.0, 2, drop, seed);
        let n = 1_000.0;
        let sigma = (drop * (1.0 - drop) / n).sqrt();
        assert!((report.reliability() - (1.0 - drop)).abs() < 4.0 * sigma + 0.01);
        assert_eq!(report.recovered, 0);
    }
}

/// Every protocol's report is internally consistent.
#[test]
fn report_consistency() {
    let mut rng = CaseRng(34);
    for kind_idx in 0usize..3 {
        for _ in 0..3 {
            let drop = rng.unit() * 0.1;
            let seed = rng.range_u64(0, 50);
            let kind = [
                ProtocolKind::Udp,
                ProtocolKind::Nakcast {
                    timeout: SimDuration::from_millis(10),
                },
                ProtocolKind::Ricochet { r: 4, c: 3 },
            ][kind_idx];
            let report = run(kind, 200, 100.0, 3, drop, seed);
            assert_eq!(report.samples_sent, 200);
            assert_eq!(report.receivers, 3);
            assert!(report.delivered <= 600);
            assert!(report.recovered <= report.delivered);
            assert!(report.avg_latency_us >= 0.0);
            assert!(report.jitter_us >= 0.0);
            if report.delivered > 0 {
                assert!(report.avg_latency_us > 0.0, "latency must be positive");
            }
        }
    }
}
/// Ricochet delivers each sequence at most once per receiver, whatever the
/// loss pattern (deterministic seeds, several cases).
#[test]
fn ricochet_no_duplicate_deliveries() {
    for seed in 0..5u64 {
        let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let spec = SessionSpec {
            transport: TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 }),
            app: AppSpec::at_rate(500, 200.0, 12),
            stack: StackProfile::new(20.0, 48),
            drop_probability: 0.1,
            capture: true,
        };
        let mut sim = Simulation::new(seed);
        let handles = session::install(&mut sim, &spec, host, &[host; 4]);
        sim.run_until(SimTime::from_secs(10));
        for &node in &handles.receivers {
            let reader = session::reader(&sim, node);
            let mut seqs: Vec<u64> = reader
                .log()
                .deliveries()
                .expect("captured")
                .map(|d| d.seq)
                .collect();
            let before = seqs.len();
            seqs.sort_unstable();
            seqs.dedup();
            assert_eq!(before, seqs.len(), "duplicate delivery at seed {seed}");
        }
    }
}

/// Deterministic edge-case scenarios beyond the property sweeps.
mod edge_cases {
    use super::*;
    use adamant_metrics::MetricKind;
    use adamant_netsim::SimDuration;
    use adamant_transport::Tuning;

    fn host() -> HostConfig {
        HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1)
    }

    /// With retries exhausted quickly under extreme loss, NAKcast abandons
    /// sequences instead of stalling forever — and late copies still count.
    #[test]
    fn nakcast_gives_up_after_max_retries() {
        let tuning = Tuning {
            nak_max_retries: 1,
            ..Tuning::default()
        };
        let spec = SessionSpec {
            transport: TransportConfig::new(ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1),
            })
            .with_tuning(tuning),
            app: AppSpec::at_rate(500, 200.0, 12),
            stack: StackProfile::new(20.0, 48),
            drop_probability: 0.5, // retransmissions also drop 50%
            capture: true,
        };
        let mut sim = Simulation::new(5);
        let handles = session::install(&mut sim, &spec, host(), &[host(); 2]);
        sim.run_until(SimTime::from_secs(20));
        let mut total_give_ups = 0;
        for &node in &handles.receivers {
            let r = session::reader(&sim, node);
            total_give_ups += r.protocol_stats().give_ups;
            // Delivery made progress despite abandonment (no deadlock).
            assert!(r.log().delivered_count() > 300);
        }
        assert!(total_give_ups > 0, "50% loss with 1 retry must abandon");
        let report = session::collect_report(&sim, &handles);
        assert!(report.reliability() < 1.0);
        assert!(MetricKind::ReLate2.score(&report).is_finite());
    }

    /// The Ricochet pending-repair buffer is bounded: flooding it with
    /// undecodable repairs cannot grow memory without limit.
    #[test]
    fn ricochet_pending_repairs_are_capped() {
        let tuning = Tuning {
            ricochet_pending_repairs: 4,
            ..Tuning::default()
        };
        let spec = SessionSpec {
            transport: TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 3 })
                .with_tuning(tuning),
            app: AppSpec::at_rate(2_000, 1_000.0, 12),
            stack: StackProfile::new(20.0, 48),
            drop_probability: 0.3,
            capture: true,
        };
        let mut sim = Simulation::new(9);
        let handles = session::install(&mut sim, &spec, host(), &[host(); 4]);
        sim.run_until(SimTime::from_secs(10));
        // The run completes and recovery still functions with a tiny cap.
        let report = session::collect_report(&sim, &handles);
        assert!(report.reliability() > 0.7);
        assert!(report.recovered > 0);
    }

    /// A crashed Ricochet peer stops being chosen as a repair target once
    /// its membership heartbeats age out, so repair fan-out concentrates
    /// on the survivors (observable as sustained lateral recovery).
    #[test]
    fn membership_aging_redirects_repairs() {
        let tuning = Tuning {
            membership_interval: SimDuration::from_millis(200),
            membership_timeout_factor: 2,
            ..Tuning::default()
        };
        let spec = SessionSpec {
            transport: TransportConfig::new(ProtocolKind::Ricochet { r: 4, c: 2 })
                .with_tuning(tuning),
            app: AppSpec::at_rate(4_000, 200.0, 12),
            stack: StackProfile::new(20.0, 48),
            drop_probability: 0.05,
            capture: true,
        };
        let mut sim = Simulation::new(31);
        let handles = session::install(&mut sim, &spec, host(), &[host(); 4]);
        sim.run_until(SimTime::from_secs(4));
        sim.crash_node(handles.receivers[3]);
        sim.run_until(SimTime::from_secs(25));
        // Survivors keep healing: late-stream losses (after the crash and
        // the aging window) are still recovered laterally.
        for &node in &handles.receivers[..3] {
            let r = session::reader(&sim, node);
            let late_recoveries = r
                .log()
                .deliveries()
                .expect("captured")
                .filter(|d| d.recovered && d.published_at > SimTime::from_secs(6))
                .count();
            assert!(
                late_recoveries > 0,
                "survivor {node} stopped recovering after the crash"
            );
            let reliability = r.log().delivered_count() as f64 / 4_000.0;
            assert!(reliability > 0.98, "reliability {reliability}");
        }
    }

    /// Duplicate suppression: overlapping NAK retransmissions never reach
    /// the application twice.
    #[test]
    fn nakcast_duplicates_are_suppressed() {
        // A very short re-NAK window forces duplicate retransmissions.
        let spec = SessionSpec {
            transport: TransportConfig::new(ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1),
            }),
            app: AppSpec::at_rate(1_000, 500.0, 12),
            stack: StackProfile::new(20.0, 48),
            drop_probability: 0.1,
            capture: true,
        };
        let mut sim = Simulation::new(13);
        let handles = session::install(&mut sim, &spec, host(), &[host(); 3]);
        sim.run_until(SimTime::from_secs(15));
        for &node in &handles.receivers {
            let r = session::reader(&sim, node);
            let mut seqs: Vec<u64> = r
                .log()
                .deliveries()
                .expect("captured")
                .map(|d| d.seq)
                .collect();
            let n = seqs.len();
            seqs.sort_unstable();
            seqs.dedup();
            assert_eq!(n, seqs.len(), "application saw a duplicate");
        }
    }
}
