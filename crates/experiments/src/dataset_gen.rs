//! Training-set generation: reproduces the paper's 394-input dataset
//! (§4.4) by sweeping environment × application configurations, measuring
//! every candidate protocol, and labelling each configuration with the
//! winner under each composite metric.
//!
//! The paper does not enumerate its exact 394 configurations ("we found it
//! helpful to make coarse-grained adjustments for initial experiments"), so
//! this harness defines a *deterministic* subset: the canonical cross
//! product of Table 1 × {3, 15 receivers} × Table 2 rates is laid out in a
//! fixed order and strided down to exactly 197 configurations; with both
//! paper metrics (ReLate2, ReLate2Jit) that yields exactly 394 labelled
//! inputs.

use adamant::{
    best_class_with_margin, AppParams, DatasetRow, Environment, LabeledDataset, LABEL_MARGIN,
};
use adamant_metrics::MetricKind;
use adamant_transport::Tuning;

use crate::sweep::{run_all_with_threads, RunSpec};

/// How many configurations the dataset labels per metric (197 × 2 = 394).
pub const CONFIGS_PER_METRIC: usize = 197;

/// Samples per labelling run. The paper publishes 20 000 samples per run;
/// labelling uses a shorter stream (the winner is decided by averages that
/// stabilise long before 20 000 samples) to keep the 5 910-run sweep
/// tractable on one machine.
pub const LABEL_SAMPLES: u64 = 2_000;

/// Repetitions averaged per (configuration, protocol), as in the paper.
pub const REPETITIONS: u32 = 5;

/// The canonical full grid: Table 1 × receivers {3, 15} × Table 2 rates,
/// in deterministic order (480 configurations).
pub fn full_grid() -> Vec<(Environment, AppParams)> {
    let mut grid = Vec::new();
    for env in Environment::table1() {
        for receivers in [3u32, 15] {
            for rate in AppParams::table2_rates() {
                grid.push((env, AppParams::new(receivers, rate)));
            }
        }
    }
    grid
}

/// The deterministic 197-configuration subset used for the dataset.
pub fn dataset_grid() -> Vec<(Environment, AppParams)> {
    let grid = full_grid();
    (0..CONFIGS_PER_METRIC)
        .map(|i| grid[i * grid.len() / CONFIGS_PER_METRIC])
        .collect()
}

/// The widened v2 grid: the full cloud grid (Table 1 + the WAN class +
/// the same-host descriptors) × receivers {3, 15} × Table 2 rates.
pub fn full_grid_v2() -> Vec<(Environment, AppParams)> {
    let mut grid = Vec::new();
    for env in Environment::cloud_grid() {
        for receivers in [3u32, 15] {
            for rate in AppParams::table2_rates() {
                grid.push((env, AppParams::new(receivers, rate)));
            }
        }
    }
    grid
}

/// The deterministic v2 labelling grid: the paper's 197-configuration
/// subset plus *every* WAN and same-host configuration — the new axes
/// are small enough to enumerate exhaustively rather than stride.
pub fn dataset_grid_v2() -> Vec<(Environment, AppParams)> {
    let mut grid = dataset_grid();
    grid.extend(
        full_grid_v2()
            .into_iter()
            .filter(|(env, _)| env.bandwidth == adamant::BandwidthClass::Wan50ms || env.same_host),
    );
    grid
}

/// Generates the labelled dataset by running every candidate protocol on
/// every configuration of [`dataset_grid`].
///
/// `samples` and `repetitions` default to [`LABEL_SAMPLES`] and
/// [`REPETITIONS`] through [`generate_default`]. `threads` bounds sweep
/// parallelism.
pub fn generate(
    samples: u64,
    repetitions: u32,
    threads: usize,
    tuning: Tuning,
    progress: &mut dyn FnMut(usize, usize),
) -> LabeledDataset {
    generate_over(
        &dataset_grid(),
        samples,
        repetitions,
        threads,
        tuning,
        progress,
    )
}

/// Generates a labelled dataset over an explicit configuration grid.
///
/// Candidates the deployment cannot instantiate in a given environment
/// (ShmCast across hosts) are not run at all; they score infinity so the
/// score vector stays aligned with `candidate_protocols()` while never
/// becoming the label.
pub fn generate_over(
    grid: &[(Environment, AppParams)],
    samples: u64,
    repetitions: u32,
    threads: usize,
    tuning: Tuning,
    progress: &mut dyn FnMut(usize, usize),
) -> LabeledDataset {
    let candidates = adamant::features::candidate_protocols();
    let mut rows = Vec::with_capacity(grid.len() * 2);
    for (done, &(env, app)) in grid.iter().enumerate() {
        progress(done, grid.len());
        let feasible: Vec<bool> = candidates
            .iter()
            .map(|&kind| adamant::features::is_feasible(kind, &env))
            .collect();
        // All feasible candidate × repetition runs for this configuration.
        let specs: Vec<RunSpec> = candidates
            .iter()
            .zip(&feasible)
            .filter(|&(_, &ok)| ok)
            .flat_map(|(&protocol, _)| {
                (0..repetitions).map(move |repetition| RunSpec {
                    env,
                    app,
                    protocol,
                    samples,
                    repetition,
                })
            })
            .collect();
        let results = run_all_with_threads(&specs, tuning, threads);
        // Average per candidate, then label per metric.
        let mut averaged: Vec<Option<Vec<_>>> = Vec::with_capacity(candidates.len());
        let mut offset = 0usize;
        for &ok in &feasible {
            if ok {
                let reports: Vec<_> = results[offset..offset + repetitions as usize]
                    .iter()
                    .map(|r| r.report.clone())
                    .collect();
                offset += repetitions as usize;
                averaged.push(Some(reports));
            } else {
                averaged.push(None);
            }
        }
        for metric in MetricKind::paper_metrics() {
            let scores: Vec<f64> = averaged
                .iter()
                .map(|reports| match reports {
                    Some(reports) => {
                        reports.iter().map(|r| metric.score(r)).sum::<f64>() / reports.len() as f64
                    }
                    None => f64::INFINITY,
                })
                .collect();
            let best_class = best_class_with_margin(&scores, LABEL_MARGIN);
            rows.push(DatasetRow {
                env,
                app,
                metric,
                best_class,
                scores,
            });
        }
    }
    progress(grid.len(), grid.len());
    LabeledDataset { rows }
}

/// Generates the dataset with the paper-scale defaults.
pub fn generate_default(progress: &mut dyn FnMut(usize, usize)) -> LabeledDataset {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    generate(
        LABEL_SAMPLES,
        REPETITIONS,
        threads,
        Tuning::default(),
        progress,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_sizes() {
        assert_eq!(full_grid().len(), 480);
        let ds = dataset_grid();
        assert_eq!(ds.len(), CONFIGS_PER_METRIC);
        // Strided selection produces distinct entries in order.
        let mut seen = std::collections::HashSet::new();
        for pair in &ds {
            assert!(seen.insert(format!("{}/{}", pair.0, pair.1)));
        }
    }

    #[test]
    fn grid_is_deterministic() {
        assert_eq!(dataset_grid(), dataset_grid());
        assert_eq!(dataset_grid_v2(), dataset_grid_v2());
    }

    #[test]
    fn v2_grid_sizes() {
        // 84 cloud environments × 2 receiver counts × 4 rates.
        assert_eq!(full_grid_v2().len(), 672);
        // The paper's 197 + every WAN (20 envs) and same-host (4 envs)
        // configuration × 2 receiver counts × 4 rates.
        assert_eq!(dataset_grid_v2().len(), CONFIGS_PER_METRIC + 24 * 8);
        let v2 = dataset_grid_v2();
        assert!(v2.iter().any(|(env, _)| env.same_host));
        assert!(v2
            .iter()
            .any(|(env, _)| env.bandwidth == adamant::BandwidthClass::Wan50ms));
    }

    #[test]
    fn tiny_generation_labels_and_scores() {
        // One-config scale check: shrink the sweep by monkeying the grid via
        // generate() on few samples and one repetition but the full grid
        // would be too slow — so only smoke-test the machinery via a direct
        // call with tiny parameters on the first grid entries.
        let grid = &dataset_grid()[..1];
        let candidates = adamant::features::candidate_protocols();
        let (env, app) = grid[0];
        let specs: Vec<RunSpec> = candidates
            .iter()
            .map(|&protocol| RunSpec {
                env,
                app,
                protocol,
                samples: 60,
                repetition: 0,
            })
            .collect();
        let results = run_all_with_threads(&specs, Tuning::default(), 1);
        assert_eq!(results.len(), candidates.len());
        for r in &results {
            assert!(r.report.reliability() > 0.5);
        }
    }

    #[test]
    fn dataset_total_is_394() {
        assert_eq!(CONFIGS_PER_METRIC * MetricKind::paper_metrics().len(), 394);
    }
}
