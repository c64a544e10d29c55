//! # adamant-bench
//!
//! Benchmarks for the ADAMANT reproduction, run by the self-contained
//! timing harness in [`bench()`] (the build environment has no registry
//! access, so no criterion). The benches map onto the paper's evaluation:
//!
//! * `ann_query` — Figures 20–21: ANN query latency and its spread, per
//!   hidden-layer size, plus the lookup-table baseline ablation.
//! * `protocol_cells` — the per-cell cost of the runs behind Figures 4–17
//!   (reduced workloads; the real series come from `adamant-experiments`).
//! * `engine` — substrate hot paths: simulator event throughput, metric
//!   computation, and ANN training epochs.
//!
//! This library exposes shared helpers for those benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use adamant::{AppParams, BandwidthClass, DatasetRow, Environment, LabeledDataset};
use adamant_dds::DdsImplementation;
use adamant_json::{Json, ToJson};
use adamant_metrics::MetricKind;
use adamant_netsim::MachineClass;

/// One completed [`measure`] batch: the mean per-iteration wall time and
/// how many iterations it averaged over.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMeasurement {
    /// Bench name (`group/case`).
    pub name: String,
    /// Mean wall time per iteration, nanoseconds.
    pub per_iter_ns: u64,
    /// Iterations in the measured batch.
    pub iters: u64,
}

impl ToJson for BenchMeasurement {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("per_iter_ns".to_owned(), Json::Num(self.per_iter_ns as f64)),
            ("iters".to_owned(), Json::Num(self.iters as f64)),
        ])
    }
}

/// Times `f` and prints one result line: warms up briefly, sizes the
/// measured batch to roughly [`BENCH_TARGET`], and reports the mean
/// per-iteration wall time.
pub fn bench<T>(name: &str, f: impl FnMut() -> T) {
    measure(name, f);
}

/// Like [`bench()`], but also returns the measurement for report assembly.
pub fn measure<T>(name: &str, mut f: impl FnMut() -> T) -> BenchMeasurement {
    // Warm-up: one call to page everything in, then estimate cost.
    std::hint::black_box(f());
    let probe_start = Instant::now();
    std::hint::black_box(f());
    let probe = probe_start.elapsed().max(Duration::from_nanos(1));
    let iters = (BENCH_TARGET.as_nanos() / probe.as_nanos()).clamp(1, 1_000_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let total = start.elapsed();
    let per_iter = total / u32::try_from(iters).expect("iters fits in u32");
    println!("{name:<50} {per_iter:>12.2?}/iter  ({iters} iters in {total:.2?})");
    BenchMeasurement {
        name: name.to_owned(),
        per_iter_ns: u64::try_from(per_iter.as_nanos()).unwrap_or(u64::MAX),
        iters,
    }
}

/// Wall-clock profiler over named phases of a bench run.
///
/// Each [`phase`](PhaseProfiler::phase) call times one closure; the
/// collected spans land in the [`PerfReport`] as per-phase wall-clock.
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    phases: Vec<(String, Duration)>,
}

impl PhaseProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        PhaseProfiler::default()
    }

    /// Runs `f` as the named phase, recording its wall-clock span.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.phases.push((name.to_owned(), start.elapsed()));
        out
    }

    /// The recorded phases, in execution order.
    pub fn phases(&self) -> &[(String, Duration)] {
        &self.phases
    }

    /// Total wall-clock across every recorded phase.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }
}

/// One point of the multiplexed runtime's endpoint-scaling series.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Endpoints hosted in the mux cluster for this point.
    pub endpoints: u64,
    /// Aggregate delivered messages per wall-clock second.
    pub msgs_per_sec: f64,
    /// Worker loop iterations that made no progress before parking
    /// (should stay near zero — the runtime sleeps instead of spinning).
    pub busy_polls: u64,
}

impl ToJson for ScalingPoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("endpoints".to_owned(), Json::Num(self.endpoints as f64)),
            ("msgs_per_sec".to_owned(), Json::Num(self.msgs_per_sec)),
            ("busy_polls".to_owned(), Json::Num(self.busy_polls as f64)),
        ])
    }
}

/// A machine-readable perf report for one bench binary run, written as
/// `BENCH_netsim.json` so CI can archive and diff engine throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// What produced the report (bench binary name).
    pub bench: String,
    /// Raw simulator throughput: events dispatched per wall-clock second.
    pub events_per_sec: f64,
    /// Throughput with a trace sink attached (same workload), for
    /// observability-overhead tracking; zero when not measured.
    pub events_per_sec_traced: f64,
    /// Raw calendar-queue throughput: push+pop pairs per wall-clock second.
    pub queue_ops_per_sec: f64,
    /// Sans-I/O core stepping rate: effects emitted per wall-clock second
    /// by a warmed NAKcast receiver fed an in-order data stream through
    /// `EnvHost` — the driver-independent protocol-engine baseline.
    pub proto_effects_per_sec: f64,
    /// Aggregate delivered-message throughput of the readiness-driven
    /// multiplexed runtime ([`adamant_rt::MuxCluster`]): many timer-paced
    /// echo endpoints sharing per-worker socket pools, batched syscalls,
    /// and frame coalescing; zero when not measured.
    pub cluster_msgs_per_sec: f64,
    /// Multiplexed-runtime endpoint scaling: delivered throughput and
    /// worker idle accounting at 1k/10k/100k endpoints under a constant
    /// aggregate offered load. Flat `msgs_per_sec` across the series is
    /// the scaling claim; `busy_polls` staying small is the no-spinning
    /// claim.
    pub endpoint_scaling: Vec<ScalingPoint>,
    /// Heap allocations observed during a steady-state window of the event
    /// loop (after warm-up). The allocation-free hot path keeps this at 0.
    pub event_loop_steady_allocs: u64,
    /// The same window with protocol cores behind `SimDriver` (a NAKcast
    /// sender and three receivers, loss-free): payload pooling and the
    /// timer bridge keep this at 0 too.
    pub event_loop_steady_allocs_driver: u64,
    /// Heap allocations per warmed-up ANN training epoch.
    pub training_epoch_allocs: u64,
    /// Every per-iteration measurement taken.
    pub measurements: Vec<BenchMeasurement>,
    /// Per-phase wall-clock, in execution order.
    pub phases: Vec<(String, Duration)>,
}

impl ToJson for PerfReport {
    fn to_json(&self) -> Json {
        let phases = Json::Obj(
            self.phases
                .iter()
                .map(|(name, span)| {
                    (
                        name.clone(),
                        Json::Num(u64::try_from(span.as_nanos()).unwrap_or(u64::MAX) as f64),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("bench".to_owned(), Json::Str(self.bench.clone())),
            ("events_per_sec".to_owned(), Json::Num(self.events_per_sec)),
            (
                "events_per_sec_traced".to_owned(),
                Json::Num(self.events_per_sec_traced),
            ),
            (
                "queue_ops_per_sec".to_owned(),
                Json::Num(self.queue_ops_per_sec),
            ),
            (
                "proto_effects_per_sec".to_owned(),
                Json::Num(self.proto_effects_per_sec),
            ),
            (
                "cluster_msgs_per_sec".to_owned(),
                Json::Num(self.cluster_msgs_per_sec),
            ),
            (
                "cluster_endpoints_scaling".to_owned(),
                self.endpoint_scaling.to_json(),
            ),
            (
                "event_loop_steady_allocs".to_owned(),
                Json::Num(self.event_loop_steady_allocs as f64),
            ),
            (
                "event_loop_steady_allocs_driver".to_owned(),
                Json::Num(self.event_loop_steady_allocs_driver as f64),
            ),
            (
                "training_epoch_allocs".to_owned(),
                Json::Num(self.training_epoch_allocs as f64),
            ),
            ("measurements".to_owned(), self.measurements.to_json()),
            ("phase_wall_ns".to_owned(), phases),
        ])
    }
}

/// Where the engine bench writes its perf report: `$ADAMANT_BENCH_OUT`, or
/// `BENCH_netsim.json` at the repository root.
pub fn bench_report_path() -> PathBuf {
    std::env::var_os("ADAMANT_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("BENCH_netsim.json")
        })
}

/// Writes `report` as pretty JSON to [`bench_report_path`].
///
/// # Errors
///
/// Returns an error message when the file cannot be written.
pub fn write_perf_report(report: &PerfReport) -> Result<PathBuf, String> {
    let path = bench_report_path();
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
    }
    std::fs::write(&path, adamant_json::to_string_pretty(report))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Wall-clock budget for one [`bench()`] measurement batch.
pub const BENCH_TARGET: Duration = Duration::from_millis(300);

/// A synthetic labelled dataset with the paper's headline pattern (fast
/// hardware → Ricochet, slow hardware → NAKcast 1 ms), sized like the real
/// 394-row set. Benches use it so they do not depend on sweep artifacts.
pub fn synthetic_dataset() -> LabeledDataset {
    let mut rows = Vec::new();
    for machine in MachineClass::all() {
        for bandwidth in [
            BandwidthClass::Gbps1,
            BandwidthClass::Mbps100,
            BandwidthClass::Mbps10,
        ] {
            for dds in DdsImplementation::all() {
                for loss in 1..=5u8 {
                    for receivers in [3u32, 9, 15] {
                        let env = Environment::new(machine, bandwidth, dds, loss);
                        let best_class = match machine {
                            MachineClass::Pc3000 => 4,
                            MachineClass::Pc850 => 3,
                        };
                        rows.push(DatasetRow {
                            env,
                            app: AppParams::new(receivers, 25),
                            metric: MetricKind::ReLate2,
                            best_class,
                            scores: vec![0.0; 6],
                        });
                    }
                }
            }
        }
    }
    LabeledDataset { rows }
}

/// The environment behind Figures 4/6/8 (fast) and 5/7/9 (slow).
pub fn figure_environment(fast: bool) -> Environment {
    if fast {
        Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            5,
        )
    } else {
        Environment::new(
            MachineClass::Pc850,
            BandwidthClass::Mbps100,
            DdsImplementation::OpenSplice,
            5,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_dataset_shape() {
        let ds = synthetic_dataset();
        assert_eq!(ds.len(), 2 * 3 * 2 * 5 * 3);
        assert!(ds.class_histogram()[3] > 0);
        assert!(ds.class_histogram()[4] > 0);
    }

    #[test]
    fn figure_environments_differ() {
        assert_ne!(figure_environment(true), figure_environment(false));
    }

    #[test]
    fn profiler_records_phases_in_order() {
        let mut profiler = PhaseProfiler::new();
        let out = profiler.phase("a", || 41 + 1);
        assert_eq!(out, 42);
        profiler.phase("b", || std::thread::sleep(Duration::from_millis(1)));
        let phases = profiler.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "a");
        assert!(phases[1].1 >= Duration::from_millis(1));
        assert!(profiler.total() >= phases[1].1);
    }

    #[test]
    fn perf_report_serializes() {
        let report = PerfReport {
            bench: "engine".to_owned(),
            events_per_sec: 1_000_000.0,
            events_per_sec_traced: 900_000.0,
            queue_ops_per_sec: 50_000_000.0,
            proto_effects_per_sec: 30_000_000.0,
            cluster_msgs_per_sec: 2_000_000.0,
            endpoint_scaling: vec![ScalingPoint {
                endpoints: 100_000,
                msgs_per_sec: 900_000.0,
                busy_polls: 12,
            }],
            event_loop_steady_allocs: 0,
            event_loop_steady_allocs_driver: 0,
            training_epoch_allocs: 0,
            measurements: vec![BenchMeasurement {
                name: "x/y".to_owned(),
                per_iter_ns: 1_500,
                iters: 10,
            }],
            phases: vec![("warm".to_owned(), Duration::from_micros(3))],
        };
        let json = report.to_json();
        assert_eq!(json.field::<f64>("events_per_sec"), Ok(1_000_000.0));
        assert_eq!(json.field::<f64>("queue_ops_per_sec"), Ok(50_000_000.0));
        assert_eq!(json.field::<f64>("proto_effects_per_sec"), Ok(30_000_000.0));
        assert_eq!(json.field::<f64>("cluster_msgs_per_sec"), Ok(2_000_000.0));
        let scaling = json
            .get("cluster_endpoints_scaling")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(scaling[0].field::<u64>("endpoints"), Ok(100_000));
        assert_eq!(scaling[0].field::<u64>("busy_polls"), Ok(12));
        assert_eq!(json.field::<u64>("event_loop_steady_allocs"), Ok(0));
        assert_eq!(json.field::<u64>("event_loop_steady_allocs_driver"), Ok(0));
        assert_eq!(json.field::<u64>("training_epoch_allocs"), Ok(0));
        assert_eq!(
            json.get("phase_wall_ns").unwrap().field::<u64>("warm"),
            Ok(3_000)
        );
        let arr = json.get("measurements").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].field::<u64>("per_iter_ns"), Ok(1_500));
    }
}
