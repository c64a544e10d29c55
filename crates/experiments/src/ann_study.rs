//! ANN accuracy and timing studies (§4.4, Figures 18–21).

use std::time::Instant;

use adamant::{LabeledDataset, ProtocolSelector, QueryCostModel, SelectorConfig};
use adamant_ann::{cross_validate, Activation, NeuralNetwork, TrainParams};
use adamant_netsim::MachineClass;

use crate::figures::{FigureData, FigureScale, Point, Series};

/// The hidden-node counts swept in Figures 18–19 (the paper's best network
/// uses 24).
pub const HIDDEN_SWEEP: [usize; 8] = [4, 8, 12, 16, 20, 24, 28, 32];

/// Figure 18: for each hidden-node count, train `restarts` networks (fresh
/// random weights each) to the stopping error and count how many recall the
/// training set perfectly — the paper's "accuracy for environments known
/// *a priori*".
pub fn fig18(dataset: &LabeledDataset, scale: FigureScale) -> FigureData {
    let mut perfect = Vec::new();
    let mut mean_acc = Vec::new();
    for &hidden in &HIDDEN_SWEEP {
        let mut perfect_count = 0u32;
        let mut acc_sum = 0.0;
        for restart in 0..scale.ann_restarts {
            let config = SelectorConfig {
                hidden_nodes: hidden,
                train: TrainParams {
                    stopping_mse: 1e-4,
                    max_epochs: scale.max_epochs,
                },
                seed: 1_000 + restart as u64,
            };
            let (selector, _) = ProtocolSelector::train_from(dataset, &config);
            let eval = selector.evaluate_on(dataset);
            if eval.is_perfect() {
                perfect_count += 1;
            }
            acc_sum += eval.accuracy();
        }
        perfect.push(Point {
            x: format!("{hidden} hidden"),
            y: perfect_count as f64,
        });
        mean_acc.push(Point {
            x: format!("{hidden} hidden"),
            y: acc_sum / scale.ann_restarts as f64,
        });
    }
    FigureData {
        id: "fig18".into(),
        title: format!(
            "ANN accuracy for environments known a priori ({} restarts per hidden-node count, stopping error 1e-4)",
            scale.ann_restarts
        ),
        y_axis: "runs reaching 100% training recall / mean accuracy".into(),
        series: vec![
            Series {
                label: "100%-accurate runs".into(),
                points: perfect,
            },
            Series {
                label: "mean training accuracy".into(),
                points: mean_acc,
            },
        ],
        paper_shape: "larger hidden layers recall the training set; 24 hidden nodes \
                      produced the most 100%-accurate runs (8 of 10)"
            .into(),
    }
}

/// Figure 19: 10-fold cross-validated accuracy per hidden-node count — the
/// paper's "accuracy for environments unknown until runtime" (best: 89.49%
/// at 24 hidden nodes).
pub fn fig19(dataset: &LabeledDataset, scale: FigureScale) -> FigureData {
    let (data, _scaler) = dataset.to_training_data();
    let mut mean_points = Vec::new();
    let mut best_points = Vec::new();
    for &hidden in &HIDDEN_SWEEP {
        let mut means = Vec::new();
        for restart in 0..scale.cv_restarts {
            let cv = cross_validate(
                &[data.input_dim(), hidden, data.target_dim()],
                Activation::fann_default(),
                &data,
                &TrainParams {
                    stopping_mse: 1e-4,
                    max_epochs: scale.max_epochs,
                },
                10,
                2_000 + restart as u64,
            );
            means.push(cv.mean_accuracy());
        }
        let mean = means.iter().sum::<f64>() / means.len() as f64;
        let best = means.iter().copied().fold(f64::MIN, f64::max);
        mean_points.push(Point {
            x: format!("{hidden} hidden"),
            y: mean * 100.0,
        });
        best_points.push(Point {
            x: format!("{hidden} hidden"),
            y: best * 100.0,
        });
    }
    FigureData {
        id: "fig19".into(),
        title: format!(
            "ANN accuracy for environments unknown until runtime (10-fold CV, {} restarts)",
            scale.cv_restarts
        ),
        y_axis: "held-out accuracy (%)".into(),
        series: vec![
            Series {
                label: "mean CV accuracy".into(),
                points: mean_points,
            },
            Series {
                label: "best CV accuracy".into(),
                points: best_points,
            },
        ],
        paper_shape: "high-80s–90% accuracy, peaking near 24 hidden nodes (89.49% in \
                      the paper); far above the 1-in-6 chance level"
            .into(),
    }
}

/// Result of the timing study backing Figures 20–21.
#[derive(Debug, Clone)]
pub struct TimingStudy {
    /// Average measured query time on this host per experiment (µs).
    pub host_avg_us: Vec<f64>,
    /// Stddev of query time on this host per experiment (µs).
    pub host_std_us: Vec<f64>,
    /// Cost-model average for each paper machine (µs).
    pub projected_avg_us: Vec<(MachineClass, f64)>,
    /// Relative-spread-scaled stddev for each paper machine (µs).
    pub projected_std_us: Vec<(MachineClass, f64)>,
}

/// Runs the paper's timing methodology: query the trained ANN with all
/// dataset inputs, `experiments` times, timestamping each call.
pub fn timing_study(
    dataset: &LabeledDataset,
    network: &NeuralNetwork,
    scale: FigureScale,
) -> TimingStudy {
    let (data, _) = dataset.to_training_data();
    let inputs = data.inputs();
    // Warm the caches and branch predictors so the first experiment is not
    // systematically slower than the rest.
    for input in inputs {
        std::hint::black_box(network.run(input));
    }
    let mut host_avg_us = Vec::new();
    let mut host_std_us = Vec::new();
    for _ in 0..scale.timing_experiments {
        let mut samples_us = Vec::with_capacity(inputs.len());
        for input in inputs {
            let start = Instant::now();
            let out = network.run(input);
            let elapsed = start.elapsed();
            std::hint::black_box(out);
            samples_us.push(elapsed.as_nanos() as f64 / 1_000.0);
        }
        let mean = samples_us.iter().sum::<f64>() / samples_us.len() as f64;
        let var = samples_us
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / samples_us.len() as f64;
        host_avg_us.push(mean);
        host_std_us.push(var.sqrt());
    }
    let model = QueryCostModel::default();
    let host_mean = host_avg_us.iter().sum::<f64>() / host_avg_us.len() as f64;
    // Median across experiments: a single scheduler hiccup should not
    // dominate the projected spread.
    let median_std = {
        let mut sorted = host_std_us.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    };
    let host_rel_std = if host_mean > 0.0 {
        median_std / host_mean
    } else {
        0.0
    };
    let mut projected_avg_us = Vec::new();
    let mut projected_std_us = Vec::new();
    for machine in MachineClass::all() {
        let avg = model.projected_micros(network, machine);
        projected_avg_us.push((machine, avg));
        // The query path is input-independent; the only spread is
        // scheduling noise, taken proportionally from the host measurement.
        projected_std_us.push((machine, avg * host_rel_std));
    }
    TimingStudy {
        host_avg_us,
        host_std_us,
        projected_avg_us,
        projected_std_us,
    }
}

/// Figures 20 and 21 from a [`TimingStudy`].
pub fn timing_figures(study: &TimingStudy) -> (FigureData, FigureData) {
    let per_experiment = |values: &[f64], label: &str| Series {
        label: label.to_owned(),
        points: values
            .iter()
            .enumerate()
            .map(|(i, &v)| Point {
                x: format!("experiment {}", i + 1),
                y: v,
            })
            .collect(),
    };
    let projected = |values: &[(MachineClass, f64)]| {
        values
            .iter()
            .map(|&(machine, v)| Series {
                label: format!("{machine} (cost model)"),
                points: vec![Point {
                    x: "projected".into(),
                    y: v,
                }],
            })
            .collect::<Vec<_>>()
    };
    let mut avg_series = vec![per_experiment(&study.host_avg_us, "this host (measured)")];
    avg_series.extend(projected(&study.projected_avg_us));
    let mut std_series = vec![per_experiment(&study.host_std_us, "this host (measured)")];
    std_series.extend(projected(&study.projected_std_us));
    (
        FigureData {
            id: "fig20".into(),
            title: "ANN average response times (all dataset inputs per experiment)".into(),
            y_axis: "average query time (µs)".into(),
            series: avg_series,
            paper_shape: "a few µs per query, < 10 µs; pc850 slower than pc3000 by the \
                          clock ratio"
                .into(),
        },
        FigureData {
            id: "fig21".into(),
            title: "Standard deviation of ANN response times".into(),
            y_axis: "query-time stddev (µs)".into(),
            series: std_series,
            paper_shape: "small and stable: the dense feedforward pass does the same \
                          arithmetic for every input"
                .into(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant::{AppParams, BandwidthClass, DatasetRow, Environment};
    use adamant_dds::DdsImplementation;
    use adamant_metrics::MetricKind;

    fn tiny_dataset() -> LabeledDataset {
        let mut rows = Vec::new();
        for machine in MachineClass::all() {
            for loss in 1..=5u8 {
                for receivers in [3u32, 15] {
                    rows.push(DatasetRow {
                        env: Environment::new(
                            machine,
                            BandwidthClass::Gbps1,
                            DdsImplementation::OpenDds,
                            loss,
                        ),
                        app: AppParams::new(receivers, 10),
                        metric: MetricKind::ReLate2,
                        best_class: if machine == MachineClass::Pc3000 {
                            4
                        } else {
                            3
                        },
                        scores: vec![0.0; 6],
                    });
                }
            }
        }
        LabeledDataset { rows }
    }

    fn tiny_scale() -> FigureScale {
        FigureScale {
            samples: 100,
            repetitions: 1,
            ann_restarts: 2,
            cv_restarts: 1,
            max_epochs: 400,
            timing_experiments: 2,
        }
    }

    #[test]
    fn fig18_counts_perfect_runs() {
        let fig = fig18(&tiny_dataset(), tiny_scale());
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), HIDDEN_SWEEP.len());
        for p in &fig.series[0].points {
            assert!(p.y <= 2.0, "at most `restarts` perfect runs");
        }
        // A separable toy set should be perfectly recalled by larger nets.
        let last = fig.series[0].points.last().unwrap();
        assert!(last.y >= 1.0, "wide nets should recall the toy set");
    }

    #[test]
    fn fig19_reports_percentages() {
        let fig = fig19(&tiny_dataset(), tiny_scale());
        for series in &fig.series {
            for p in &series.points {
                assert!((0.0..=100.0).contains(&p.y));
            }
        }
        // The toy pattern (machine → class) is easily generalisable.
        let mean24 = fig.series[0]
            .points
            .iter()
            .find(|p| p.x == "24 hidden")
            .unwrap()
            .y;
        assert!(mean24 > 60.0, "CV accuracy {mean24}% too low for toy data");
    }

    #[test]
    fn timing_study_projects_machine_ratio() {
        let ds = tiny_dataset();
        let config = SelectorConfig {
            hidden_nodes: 24,
            train: TrainParams {
                max_epochs: 50,
                ..TrainParams::default()
            },
            seed: 3,
        };
        let (selector, _) = ProtocolSelector::train_from(&ds, &config);
        let study = timing_study(&ds, selector.network(), tiny_scale());
        assert_eq!(study.host_avg_us.len(), 2);
        let pc850 = study
            .projected_avg_us
            .iter()
            .find(|(m, _)| *m == MachineClass::Pc850)
            .unwrap()
            .1;
        let pc3000 = study
            .projected_avg_us
            .iter()
            .find(|(m, _)| *m == MachineClass::Pc3000)
            .unwrap()
            .1;
        assert!(pc850 > pc3000);
        assert!(pc3000 < 10.0, "paper claims < 10 µs: got {pc3000}");
        let (f20, f21) = timing_figures(&study);
        assert_eq!(f20.id, "fig20");
        assert_eq!(f21.id, "fig21");
        assert!(f20.series.len() >= 3);
    }
}
