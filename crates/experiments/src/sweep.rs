//! Parallel experiment sweeps: run many (configuration, protocol) pairs
//! across CPU cores with deterministic seeding.

use adamant::{AppParams, Environment, Scenario};
use adamant_metrics::QosReport;
use adamant_transport::{ProtocolKind, TransportConfig, Tuning};

/// One unit of sweep work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Environment (Table 1 row).
    pub env: Environment,
    /// Application parameters (Table 2 row).
    pub app: AppParams,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Samples to publish.
    pub samples: u64,
    /// Repetition index (also offsets the seed).
    pub repetition: u32,
}

impl RunSpec {
    /// The deterministic seed of this run: a hash of the entire
    /// configuration, so results never depend on sweep order.
    pub fn seed(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.env.hash(&mut h);
        self.app.hash(&mut h);
        self.protocol.hash(&mut h);
        self.samples.hash(&mut h);
        self.repetition.hash(&mut h);
        h.finish()
    }

    /// Executes the run.
    pub fn execute(&self, tuning: Tuning) -> QosReport {
        let scenario = Scenario::paper(self.env, self.app, self.seed()).with_samples(self.samples);
        scenario.run(TransportConfig::new(self.protocol).with_tuning(tuning))
    }
}

/// A completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// What was run.
    pub spec: RunSpec,
    /// What it measured.
    pub report: QosReport,
}

/// Executes `specs` in parallel across all cores, preserving order.
pub fn run_all(specs: &[RunSpec], tuning: Tuning) -> Vec<RunResult> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    run_all_with_threads(specs, tuning, threads)
}

/// Executes `specs` on a fixed worker count (order preserved).
pub fn run_all_with_threads(specs: &[RunSpec], tuning: Tuning, threads: usize) -> Vec<RunResult> {
    if specs.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, specs.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    // Lock-free work stealing: the atomic counter hands out spec indices,
    // each worker keeps its results local, and the single merge at join
    // time restores order. No per-slot mutexes, no contention on the
    // results while runs execute.
    let mut results: Vec<Option<RunResult>> = specs.iter().map(|_| None).collect();
    let completed = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= specs.len() {
                            return local;
                        }
                        let spec = specs[i];
                        let report = spec.execute(tuning);
                        local.push((i, RunResult { spec, report }));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sweep worker panicked"))
            .collect::<Vec<_>>()
    });
    for (i, result) in completed {
        results[i] = Some(result);
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// Averages a metric-relevant summary over repetitions of the same
/// configuration (the paper reports 5-run averages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Averaged {
    /// Mean reliability over repetitions.
    pub reliability: f64,
    /// Mean average-latency over repetitions (µs).
    pub avg_latency_us: f64,
    /// Mean jitter over repetitions (µs).
    pub jitter_us: f64,
    /// Mean burstiness over repetitions.
    pub burstiness: f64,
    /// Mean bandwidth usage (bytes/s).
    pub bandwidth: f64,
}

impl Averaged {
    /// Averages the given reports.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn over(reports: &[QosReport]) -> Averaged {
        assert!(!reports.is_empty(), "cannot average zero reports");
        let n = reports.len() as f64;
        Averaged {
            reliability: reports.iter().map(QosReport::reliability).sum::<f64>() / n,
            avg_latency_us: reports.iter().map(|r| r.avg_latency_us).sum::<f64>() / n,
            jitter_us: reports.iter().map(|r| r.jitter_us).sum::<f64>() / n,
            burstiness: reports.iter().map(|r| r.burstiness).sum::<f64>() / n,
            bandwidth: reports
                .iter()
                .map(|r| r.avg_bandwidth_bytes_per_sec)
                .sum::<f64>()
                / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant::BandwidthClass;
    use adamant_dds::DdsImplementation;
    use adamant_netsim::{MachineClass, SimDuration};

    fn spec(repetition: u32) -> RunSpec {
        RunSpec {
            env: Environment::new(
                MachineClass::Pc3000,
                BandwidthClass::Gbps1,
                DdsImplementation::OpenSplice,
                5,
            ),
            app: AppParams::new(3, 100),
            protocol: ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(1),
            },
            samples: 200,
            repetition,
        }
    }

    #[test]
    fn seeds_differ_by_configuration() {
        assert_ne!(spec(0).seed(), spec(1).seed());
        assert_eq!(spec(0).seed(), spec(0).seed());
    }

    // Every labelling run is seeded by a hash of its `RunSpec`, protocol
    // included, so a change to how `ProtocolKind` hashes silently reseeds
    // the whole dataset. These are the seeds of UDP and the eight
    // candidates on one fixed configuration.
    #[test]
    fn run_seeds_are_pinned_for_udp_and_every_candidate() {
        let pinned: [u64; 9] = [
            0x6d7b_e6c1_bdfe_26e6, // UDP
            0xcfe1_140b_9f8c_425c, // NAKcast 50 ms
            0x8478_1b88_12e3_47f2, // NAKcast 25 ms
            0xa937_6f06_2884_f40c, // NAKcast 10 ms
            0xc0a5_5b90_a729_f5b9, // NAKcast 1 ms
            0x4a61_873b_3e68_ef58, // Ricochet R4 C3
            0xc970_130a_cbe2_d0b1, // Ricochet R8 C3
            0x1a64_421c_391c_92c5, // StreamCast W64
            0x0973_415d_8d91_c2c9, // ShmCast Q256
        ];
        let protocols =
            std::iter::once(ProtocolKind::Udp).chain(adamant::features::candidate_protocols());
        for (protocol, seed) in protocols.zip(pinned) {
            let run = RunSpec {
                protocol,
                ..spec(2)
            };
            assert_eq!(run.seed(), seed, "{protocol}");
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_execution() {
        let specs: Vec<RunSpec> = (0..4).map(spec).collect();
        let tuning = Tuning::default();
        let parallel = run_all_with_threads(&specs, tuning, 4);
        for (i, result) in parallel.iter().enumerate() {
            assert_eq!(result.spec, specs[i]);
            assert_eq!(result.report, specs[i].execute(tuning));
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(run_all(&[], Tuning::default()).is_empty());
    }

    #[test]
    fn averaging() {
        let specs: Vec<RunSpec> = (0..2).map(spec).collect();
        let results = run_all_with_threads(&specs, Tuning::default(), 2);
        let reports: Vec<_> = results.iter().map(|r| r.report.clone()).collect();
        let avg = Averaged::over(&reports);
        assert!(avg.reliability > 0.9);
        assert!(avg.avg_latency_us > 0.0);
    }
}
