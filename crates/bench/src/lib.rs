//! # adamant-bench
//!
//! Shared fixtures of the repository's benchmark (`pubsub_bench`) and
//! tests: the synthetic selector training set and the figure environments.
//! The benchmark itself lives in `pubsub_bench/`; this crate only holds the
//! inputs it shares with the workspace, so both train and run on the same
//! data by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use adamant::{AppParams, BandwidthClass, DatasetRow, Environment, LabeledDataset};
use adamant_dds::DdsImplementation;
use adamant_experiments::figures;
use adamant_metrics::MetricKind;
use adamant_netsim::MachineClass;

/// A synthetic labelled dataset with the paper's headline pattern (fast
/// hardware → Ricochet, slow hardware → NAKcast 1 ms): pc3000 rows labelled
/// class 4 and pc850 rows class 3 over three LAN bandwidths, both DDS
/// implementations, five loss levels and three receiver counts (180 rows).
pub fn synthetic_dataset() -> LabeledDataset {
    let mut rows = Vec::new();
    for machine in MachineClass::all() {
        for bandwidth in BandwidthClass::all() {
            for dds in DdsImplementation::all() {
                for loss in 1..=5u8 {
                    for receivers in [3u32, 9, 15] {
                        rows.push(DatasetRow {
                            env: Environment::new(machine, bandwidth, dds, loss),
                            app: AppParams::new(receivers, 25),
                            metric: MetricKind::ReLate2,
                            best_class: match machine {
                                MachineClass::Pc3000 => 4,
                                MachineClass::Pc850 => 3,
                            },
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
        figures::fast_environment()
    } else {
        figures::slow_environment()
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
}
