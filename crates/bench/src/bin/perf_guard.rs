//! CI perf-regression guard.
//!
//! Compares a freshly measured engine perf report against the committed
//! baseline (`BENCH_netsim.json`) and fails when any guarded throughput
//! metric regressed by more than its allowed fraction:
//!
//! ```text
//! perf_guard <baseline.json> <candidate.json>
//! ```
//!
//! Guarded metrics:
//!
//! * `events_per_sec` — raw simulator dispatch (25% budget).
//! * `cluster_msgs_per_sec` — the multiplexed UDP runtime (60% budget:
//!   real sockets on shared CI runners are far noisier than the
//!   in-process simulator).
//!
//! The candidate must also carry a `cluster_endpoints_scaling` series
//! with a 100k-endpoint point whose throughput is at least a quarter of
//! the 1k-endpoint point — the flat-scaling claim of the multiplexed
//! runtime, gated structurally rather than against the baseline so a
//! uniformly slow runner cannot mask a scaling collapse. (Selection
//! throughput is `pubsub_bench`'s `selector_fleet` workload, not a phase
//! of this report.)
//!
//! Finally, both steady-state allocation counts of the event loop
//! (`event_loop_steady_allocs` for raw agents, `event_loop_steady_allocs_driver`
//! for protocol cores behind `SimDriver`) must read exactly 0: they are
//! counts, not timings, so there is no budget to speak of.
//!
//! Exit codes: 0 = within budget, 1 = regression, 2 = usage/parse error.
//! Thresholds are deliberately loose; the guard exists to catch
//! structural regressions (an accidentally quadratic queue, a per-event
//! allocation, a serialized worker loop), not scheduling jitter.

use adamant_json::Json;

/// Guarded metrics and the fractional drop each may show before failing.
const GUARDS: &[(&str, f64)] = &[("events_per_sec", 0.25), ("cluster_msgs_per_sec", 0.60)];

/// The 100k-endpoint scaling point must deliver at least this fraction of
/// the 1k-endpoint point's throughput.
const MIN_SCALING_RATIO: f64 = 0.25;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    adamant_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn check_metrics(baseline: &Json, candidate: &Json) -> Result<bool, String> {
    let mut ok = true;
    for &(name, budget) in GUARDS {
        // A baseline predating a metric cannot gate it; the candidate
        // must always carry every guarded metric.
        let base = match baseline.field::<f64>(name) {
            Ok(v) if v > 0.0 => v,
            _ => {
                println!("perf guard: {name} missing from baseline, skipped");
                continue;
            }
        };
        let cand = candidate
            .field::<f64>(name)
            .map_err(|e| format!("candidate: {e}"))?;
        let floor = base * (1.0 - budget);
        let ratio = cand / base;
        println!(
            "perf guard: {name} baseline {base:.0}, candidate {cand:.0} \
             ({ratio:.2}x, floor {floor:.0})"
        );
        if cand < floor {
            eprintln!(
                "perf guard FAILED: {name} regressed more than {}% against the baseline",
                (budget * 100.0) as u32
            );
            ok = false;
        }
    }
    Ok(ok)
}

fn scaling_point(series: &[Json], endpoints: u64) -> Result<f64, String> {
    series
        .iter()
        .find(|p| p.field::<u64>("endpoints") == Ok(endpoints))
        .ok_or(format!(
            "candidate cluster_endpoints_scaling has no {endpoints}-endpoint point"
        ))?
        .field::<f64>("msgs_per_sec")
        .map_err(|e| format!("candidate scaling point: {e}"))
}

fn check_scaling(candidate: &Json) -> Result<bool, String> {
    let series = candidate
        .get("cluster_endpoints_scaling")
        .ok_or("candidate is missing the cluster_endpoints_scaling series")?
        .as_arr()
        .map_err(|e| format!("candidate: {e}"))?;
    let small = scaling_point(series, 1_000)?;
    let large = scaling_point(series, 100_000)?;
    if small <= 0.0 {
        return Err("1k-endpoint scaling point must be positive".to_owned());
    }
    let ratio = large / small;
    println!(
        "perf guard: endpoint scaling 1k {small:.0}/s -> 100k {large:.0}/s ({ratio:.2}x, \
         floor {MIN_SCALING_RATIO:.2}x)"
    );
    if ratio < MIN_SCALING_RATIO {
        eprintln!(
            "perf guard FAILED: 100k-endpoint throughput collapsed to {ratio:.2}x of the \
             1k-endpoint point (floor {MIN_SCALING_RATIO:.2}x)"
        );
        return Ok(false);
    }
    Ok(true)
}

/// The event loop's steady-state allocation counts, each of which must be 0.
const ZERO_ALLOC_FIELDS: &[&str] = &[
    "event_loop_steady_allocs",
    "event_loop_steady_allocs_driver",
];

fn check_zero_allocs(candidate: &Json) -> Result<bool, String> {
    let mut ok = true;
    for &name in ZERO_ALLOC_FIELDS {
        let allocs = candidate
            .field::<u64>(name)
            .map_err(|e| format!("candidate: {e}"))?;
        println!("perf guard: {name} {allocs} (must be 0)");
        if allocs != 0 {
            eprintln!("perf guard FAILED: {name} is {allocs}: the warmed event loop allocates");
            ok = false;
        }
    }
    Ok(ok)
}

fn run(baseline_path: &str, candidate_path: &str) -> Result<bool, String> {
    let baseline = load(baseline_path)?;
    let candidate = load(candidate_path)?;
    let metrics_ok = check_metrics(&baseline, &candidate)?;
    let scaling_ok = check_scaling(&candidate)?;
    let allocs_ok = check_zero_allocs(&candidate)?;
    Ok(metrics_ok && scaling_ok && allocs_ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, candidate_path] = args.as_slice() else {
        eprintln!("usage: perf_guard <baseline.json> <candidate.json>");
        std::process::exit(2);
    };
    match run(baseline_path, candidate_path) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perf guard error: {e}");
            std::process::exit(2);
        }
    }
}
