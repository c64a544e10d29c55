//! What a run measured, and how that becomes the named metrics of
//! `BENCHMARK.json`.

use adamant_json::Json;

use adamant_metrics::percentile;

use crate::hist::{window_quantiles_us, Hist};

/// `BENCHMARK.json`, compiled in: the one place metric names, units and
/// regression bounds are written down.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind a percentile or a median, where that means something.
    pub samples: Option<u64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_owned(),
            samples: None,
        }
    }

    pub fn with_samples(mut self, samples: u64) -> Self {
        self.samples = Some(samples);
        self
    }
}

/// Time windows a run is cut into. The first [`WARMUP_WINDOWS`] are warm-up
/// and the last is the open-loop publishers' silence; [`steady`] are the
/// rest, which the estimators read.
pub const WINDOWS: usize = 20;
const WARMUP_WINDOWS: usize = 2;

pub fn steady() -> std::ops::Range<usize> {
    WARMUP_WINDOWS..WINDOWS - 1
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each repetition of the set-up; the median is reported.
    pub setup_s: Vec<f64>,
    /// Operations completed (samples delivered, cells simulated, selections
    /// answered) over the whole run, the time that took, and the user and
    /// system CPU seconds the process spent meanwhile.
    pub ops: u64,
    pub span_s: f64,
    pub cpu_s: (f64, f64),
    /// The steady windows of the run (warm-up and the partial last window
    /// removed), each `window_s` long: the latencies timed in the window,
    /// the percent of samples published in it that were lost (the ReLate2
    /// factor), and the CPU nanoseconds all threads spent in it.
    pub windows: Vec<Hist>,
    pub loss_percent: Vec<f64>,
    pub cpu_ns: Vec<u64>,
    pub window_s: f64,
    /// Operations each timed latency stands for (a sweep of the selector is
    /// 1024 selections; the closed loop times one token in 16).
    pub ops_per_sample: u64,
    /// Whether a generator fixes the rate (every window then holds the same
    /// number of operations, give or take one).
    pub open_loop: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold, by name.
    pub violations: Vec<String>,
    /// Worker threads the run used (1 for the single-threaded workloads).
    pub workers: usize,
    /// Counters this run produced for the per-layer list.
    pub layer: Vec<Metric>,
}

impl Measured {
    pub fn check(&mut self, name: &str, holds: bool) {
        if !holds {
            self.violations.push(name.to_owned());
        }
    }

    pub fn pooled(&self) -> Hist {
        let mut all = Hist::default();
        self.windows.iter().for_each(|w| all.merge(w));
        all
    }

    fn window_ops(&self) -> impl Iterator<Item = f64> + '_ {
        self.windows
            .iter()
            .map(|w| (w.count() * self.ops_per_sample) as f64)
    }

    /// CPU microseconds per operation: the lower quartile over windows.
    pub fn cpu_us_per_op(&self) -> Option<f64> {
        let per_window: Vec<f64> = self
            .window_ops()
            .zip(&self.cpu_ns)
            .filter(|(ops, _)| *ops > 0.0)
            .map(|(ops, &ns)| ns as f64 / 1e3 / ops)
            .collect();
        percentile(&per_window, 0.25)
    }

    /// Latency percentiles, for the per-layer list: the lower quartile over
    /// windows of each window's percentile. They are not end-to-end metrics
    /// because latency here comes in steps of one sleep of the worker, and a
    /// percentile of a stepped distribution jumps from step to step between
    /// runs (ten-seed spreads of 18-33 %) where its mean moves by 1-7 %.
    pub fn latency_percentiles(&self) -> Vec<Metric> {
        [("latency_p50_us", 0.5), ("latency_p99_us", 0.99)]
            .into_iter()
            .filter_map(|(name, q)| {
                let (values, samples) = window_quantiles_us(&self.windows, q)?;
                Some(Metric::new(name, percentile(&values, 0.25)?, "us").with_samples(samples))
            })
            .collect()
    }

    /// The end-to-end metrics, every one of them, or which one the run was
    /// too short to support. A `lenient` (smoke) run leaves an unsupported
    /// metric out instead.
    ///
    /// Each is computed per window and then read off at the quartile of
    /// windows on the metric's *better* side. What disturbs a run on a shared
    /// machine only ever makes a window worse, so the better quartile
    /// estimates an undisturbed window, and it still moves with the program:
    /// a slower program is slower in every window.
    pub fn end_to_end(&self, lenient: bool) -> Result<Vec<Metric>, String> {
        let windows = self.windows.len() as u64;
        // The paper's ReLate2: mean latency x (percent loss + 1).
        let relate2: Vec<f64> = self
            .windows
            .iter()
            .zip(&self.loss_percent)
            .filter_map(|(w, loss)| Some(w.mean_us()? * (loss + 1.0)))
            .collect();
        // Where a generator fixes the rate, the rate is everything delivered
        // over the time to the last delivery, so that a backlog still
        // draining at the end shows as a lower rate.
        let rates: Vec<f64> = self.window_ops().map(|ops| ops / self.window_s).collect();
        let ops_per_s = if self.open_loop {
            Some(self.ops as f64 / self.span_s)
        } else {
            percentile(&rates, 0.75)
        };
        let candidates = [
            (
                "setup_s",
                "s",
                percentile(&self.setup_s, 0.5).map(|s| (s, self.setup_s.len() as u64)),
            ),
            (
                "ops_per_s",
                "1/s",
                ops_per_s
                    .filter(|rate| rate.is_finite() && *rate > 0.0)
                    .map(|rate| (rate, windows)),
            ),
            (
                "relate2_us",
                "us",
                percentile(&relate2, 0.25).map(|r| (r, relate2.len() as u64)),
            ),
            (
                "cpu_us_per_op",
                "us",
                self.cpu_us_per_op().map(|cpu| (cpu, windows)),
            ),
            ("peak_rss_mb", "MB", Some((crate::procfs::peak_rss_mb(), 1))),
        ];
        let mut metrics = Vec::new();
        for (name, unit, value) in candidates {
            match value {
                Some((value, samples)) => {
                    metrics.push(Metric::new(name, value, unit).with_samples(samples));
                }
                None if lenient => println!("  {name}: omitted, too few samples"),
                None => return Err(format!("too few samples for {name}: lengthen --seconds")),
            }
        }
        Ok(metrics)
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one-line result the driver reads.
pub fn result_line(measured: &Measured, metrics: &[Metric]) -> String {
    Json::Obj(vec![
        (
            "correct".to_owned(),
            Json::Bool(measured.violations.is_empty()),
        ),
        (
            "attempted".to_owned(),
            Json::Num(measured.attempted.max(1) as f64),
        ),
        ("failed".to_owned(), Json::Num(measured.failed as f64)),
        ("metrics".to_owned(), metrics_json(metrics)),
    ])
    .to_string_compact()
}

pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let samples = m
            .samples
            .map_or(String::new(), |n| format!("  ({n} samples)"));
        println!("  {:<40} {:>16.4} {}{samples}", m.name, m.value, m.unit);
    }
}

/// One declared metric of `BENCHMARK.json`.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

fn declared(list: &str) -> Vec<Declared> {
    let doc = adamant_json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let entries = doc.get(list).and_then(|l| l.as_arr().ok()).unwrap_or(&[]);
    entries
        .iter()
        .map(|entry| Declared {
            name: entry.field("name").expect("metric name"),
            unit: entry.field("unit").expect("metric unit"),
            higher_is_better: entry.field::<String>("better").expect("better") == "higher",
            bound: entry.field("bound").ok(),
        })
        .collect()
}

pub fn declared_end_to_end() -> Vec<Declared> {
    declared("end_to_end")
}

pub fn declared_per_layer() -> Vec<Declared> {
    declared("per_layer")
}

pub fn declared_workloads() -> Vec<String> {
    let doc = adamant_json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let entries = doc
        .get("workloads")
        .and_then(|l| l.as_arr().ok())
        .unwrap_or(&[]);
    entries
        .iter()
        .map(|w| w.field("name").expect("workload name"))
        .collect()
}

/// By how much of `base` the metric got worse from `base` to `new`
/// (negative when it got better).
pub fn worsening(declared: &Declared, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
    if declared.higher_is_better {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Measured {
        let mut window = Hist::default();
        (1..=2_000u64).for_each(|us| window.record(us * 1_000));
        Measured {
            setup_s: vec![0.3, 0.1, 0.2],
            ops: 4_000,
            span_s: 2.0,
            cpu_s: (1.0, 1.0),
            windows: vec![window.clone(), window],
            loss_percent: vec![0.0, 1.0],
            cpu_ns: vec![1_000_000_000, 2_000_000_000],
            window_s: 0.5,
            ops_per_sample: 1,
            attempted: 4_000,
            workers: 1,
            ..Measured::default()
        }
    }

    #[test]
    fn end_to_end_metrics_match_the_declared_list() {
        let metrics = sample().end_to_end(false).unwrap();
        let declared = declared_end_to_end();
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let wanted: Vec<&str> = declared.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, wanted, "BENCHMARK.json and the binary must agree");
        for (m, d) in metrics.iter().zip(&declared) {
            assert_eq!(m.unit, d.unit, "unit of {}", m.name);
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        let by_name = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(by_name("setup_s"), 0.2);
        assert_eq!(by_name("ops_per_s"), 4_000.0);
        // 500 and 1000 us per op in the two windows: a quarter of the way up.
        assert_eq!(by_name("cpu_us_per_op"), 625.0);
        // Window means are 1000.5 us; losses 0 % and 1 % give factors 1, 2.
        assert!((by_name("relate2_us") - 1000.5 * 1.25).abs() < 1e-6);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let measured = sample();
        let metrics = measured.end_to_end(false).unwrap();
        let line = result_line(&measured, &metrics);
        let parsed = adamant_json::parse(&line).unwrap();
        let Json::Obj(members) = &parsed else {
            panic!("object expected")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let relate2 = parsed.get("metrics").unwrap().get("relate2_us").unwrap();
        assert_eq!(relate2.field::<String>("unit").unwrap(), "us");
        assert!(relate2.field::<f64>("value").unwrap() > 0.0);
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_run_too_short_for_its_percentiles_is_refused() {
        let mut short = sample();
        short.windows.iter_mut().for_each(|w| *w = Hist::default());
        let refused = short.end_to_end(false).unwrap_err();
        assert!(refused.contains("too few samples"), "{refused}");
        let names: Vec<String> = short
            .end_to_end(true)
            .unwrap()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(
            names,
            ["setup_s", "peak_rss_mb"],
            "a smoke run omits instead"
        );
    }

    #[test]
    fn benchmark_json_is_within_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let per_layer = declared_per_layer();
        let end_to_end = declared_end_to_end();
        assert!((1..=16).contains(&end_to_end.len()));
        assert!((1..=128).contains(&per_layer.len()));
        assert!((2..=8).contains(&declared_workloads().len()));
        let mut names: Vec<String> = declared_workloads();
        for d in end_to_end.iter().chain(&per_layer) {
            assert!(name_ok(&d.name), "name {}", d.name);
            assert!(unit_ok(&d.unit), "unit {}", d.unit);
            names.push(d.name.clone());
        }
        assert!(per_layer.iter().all(|d| d.bound.is_none()));
        let setup = end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn worsening_follows_the_direction_of_better() {
        let lower = &declared_end_to_end()[0];
        assert!(!lower.higher_is_better);
        assert!((worsening(lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        let higher = Declared {
            name: "x".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: Some(0.1),
        };
        assert!((worsening(&higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening(&higher, 100.0, 120.0) < 0.0);
    }
}
