//! Property-style tests of the composite QoS metric invariants, driven by
//! deterministic seeded sweeps.

use adamant_metrics::{percentile, Delivery, MetricKind, QosReport, Welford};
use adamant_proto::TimePoint;

fn report_from(latencies_us: &[u64], sent: u64) -> QosReport {
    let deliveries: Vec<Delivery> = latencies_us
        .iter()
        .enumerate()
        .map(|(i, &lat)| Delivery {
            seq: i as u64,
            published_at: TimePoint::from_micros(1_000 * i as u64),
            delivered_at: TimePoint::from_micros(1_000 * i as u64 + lat),
            recovered: false,
        })
        .collect();
    let mut b = QosReport::builder(sent, 1);
    b.add_receiver(&deliveries, 0);
    b.finish()
}

/// Case generator over the shared SplitMix64 stream.
struct CaseRng(u64);

impl CaseRng {
    fn next_u64(&mut self) -> u64 {
        adamant_proto::splitmix64(&mut self.0)
    }

    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn latencies(&mut self, min_len: u64, max_len: u64) -> Vec<u64> {
        let len = self.range_u64(min_len, max_len);
        (0..len).map(|_| self.range_u64(1, 100_000)).collect()
    }
}

/// Reliability is always a fraction and percent loss its complement.
#[test]
fn reliability_bounds() {
    let mut rng = CaseRng(21);
    for _ in 0..128 {
        let lat = rng.latencies(0, 50);
        let extra_sent = rng.range_u64(0, 50);
        let sent = lat.len() as u64 + extra_sent;
        if sent == 0 {
            continue;
        }
        let r = report_from(&lat, sent);
        assert!((0.0..=1.0).contains(&r.reliability()));
        assert!((0.0..=100.0).contains(&r.percent_loss()));
        assert!((r.reliability() * 100.0 + r.percent_loss() - 100.0).abs() < 1e-9);
    }
}

/// Dropping deliveries (same latencies) can only worsen ReLate2.
#[test]
fn relate2_monotone_in_loss() {
    let mut rng = CaseRng(22);
    for _ in 0..128 {
        let lat = rng.latencies(2, 50);
        let sent = lat.len() as u64;
        let full = report_from(&lat, sent);
        let partial = report_from(&lat[..lat.len() - 1], sent);
        // Zero-loss scores strictly less than the same-latency lossy report
        // when means are equal, and loss accounting itself is monotone.
        let constant = vec![lat[0]; lat.len()];
        let all = report_from(&constant, sent);
        let lossy = report_from(&constant[..lat.len() - 1], sent);
        assert!(MetricKind::ReLate2.score(&all) < MetricKind::ReLate2.score(&lossy));
        assert!(partial.percent_loss() > full.percent_loss());
    }
}

/// Scaling all latencies scales ReLate2 proportionally (holding loss).
#[test]
fn relate2_linear_in_latency() {
    let mut rng = CaseRng(23);
    for _ in 0..128 {
        let base = rng.range_u64(1, 10_000);
        let k = rng.range_u64(2, 10);
        let n = rng.range_u64(2, 40) as usize;
        let lat: Vec<u64> = vec![base; n];
        let scaled: Vec<u64> = vec![base * k; n];
        let a = MetricKind::ReLate2.score(&report_from(&lat, n as u64));
        let b = MetricKind::ReLate2.score(&report_from(&scaled, n as u64));
        assert!((b / a - k as f64).abs() < 1e-9);
    }
}

/// ReLate2Jit of a constant-latency stream is zero (no jitter) and all
/// metric scores are finite and non-negative.
#[test]
fn scores_finite_nonnegative() {
    let mut rng = CaseRng(24);
    for _ in 0..128 {
        let lat = rng.latencies(1, 50);
        let extra_sent = rng.range_u64(0, 10);
        let sent = lat.len() as u64 + extra_sent;
        let r = report_from(&lat, sent);
        for metric in MetricKind::all() {
            let s = metric.score(&r);
            assert!(s.is_finite());
            assert!(s >= 0.0);
        }
    }
    let constant = report_from(&[500; 10], 10);
    assert_eq!(MetricKind::ReLate2Jit.score(&constant), 0.0);
}

/// Welford matches the naive two-pass computation.
#[test]
fn welford_matches_naive() {
    let mut rng = CaseRng(25);
    for _ in 0..128 {
        let n = rng.range_u64(1, 200) as usize;
        let xs: Vec<f64> = (0..n).map(|_| (rng.unit() - 0.5) * 2e6).collect();
        let w: Welford = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((w.population_variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    }
}

/// Percentiles are bounded by extremes and monotone in q.
#[test]
fn percentile_properties() {
    let mut rng = CaseRng(26);
    for _ in 0..128 {
        let n = rng.range_u64(1, 100) as usize;
        let xs: Vec<f64> = (0..n).map(|_| (rng.unit() - 0.5) * 2e6).collect();
        let q1 = rng.unit();
        let q2 = rng.unit();
        let lo = q1.min(q2);
        let hi = q1.max(q2);
        let p_lo = percentile(&xs, lo).unwrap();
        let p_hi = percentile(&xs, hi).unwrap();
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(p_lo <= p_hi);
        assert!(p_lo >= min - 1e-9);
        assert!(p_hi <= max + 1e-9);
    }
}
