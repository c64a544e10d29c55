//! Protocol selection: the ANN-backed selector (ADAMANT's knowledge base)
//! and a nearest-neighbour lookup-table baseline for comparison.

use std::time::{Duration, Instant};

use adamant_ann::{
    evaluate, train, Activation, BatchScratch, DecisionTree, DecisionTreeParams, Evaluation,
    MinMaxScaler, NeuralNetwork, TrainOutcome, TrainParams,
};
use adamant_metrics::MetricKind;
use adamant_transport::ProtocolKind;

use crate::dataset::LabeledDataset;
use crate::env::{AppParams, Environment};
use crate::features::{candidate_protocols, is_feasible, raw_features, FEATURE_DIM};

/// Architecture and training configuration for the selector's ANN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorConfig {
    /// Hidden-node count (the paper's best network uses 24).
    pub hidden_nodes: usize,
    /// Training parameters (stopping error 1e-4 in the paper).
    pub train: TrainParams,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            hidden_nodes: 24,
            train: TrainParams::default(),
            seed: 1,
        }
    }
}

/// The outcome of one protocol selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The protocol the selector chose.
    pub protocol: ProtocolKind,
    /// The raw per-class output scores.
    pub scores: Vec<f64>,
    /// Wall-clock time of the query on this host.
    pub elapsed: Duration,
}

/// One endpoint's selection query — the raw inputs [`ProtocolSelector::select`]
/// takes, packaged as plain data so a whole fleet of endpoints can be
/// encoded and swept through the network in a single batched pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureRow {
    /// The environment configuration.
    pub env: Environment,
    /// The application parameters.
    pub app: AppParams,
    /// The composite metric of interest.
    pub metric: MetricKind,
}

impl FeatureRow {
    /// Packages one selection query.
    pub fn new(env: Environment, app: AppParams, metric: MetricKind) -> Self {
        FeatureRow { env, app, metric }
    }
}

/// One batched selection result: the winning candidate (feasibility-masked
/// for that row's environment) and its raw network score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Choice {
    /// The protocol the selector chose.
    pub protocol: ProtocolKind,
    /// Index of the protocol among [`candidate_protocols`].
    pub class: usize,
    /// The winning raw output score.
    pub score: f64,
}

impl Default for Choice {
    fn default() -> Self {
        Choice {
            protocol: candidate_protocols()[0],
            class: 0,
            score: 0.0,
        }
    }
}

/// ADAMANT's trained knowledge base: encodes a configuration, runs the
/// ANN, and returns the winning transport protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSelector {
    network: NeuralNetwork,
    scaler: MinMaxScaler,
}

impl ProtocolSelector {
    /// Trains a selector on `dataset` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train_from(dataset: &LabeledDataset, config: &SelectorConfig) -> (Self, TrainOutcome) {
        let (data, scaler) = dataset.to_training_data();
        let mut network = NeuralNetwork::new(
            &[
                FEATURE_DIM,
                config.hidden_nodes,
                candidate_protocols().len(),
            ],
            Activation::fann_default(),
            config.seed,
        );
        let outcome = train(&mut network, &data, &config.train);
        (ProtocolSelector { network, scaler }, outcome)
    }

    /// Wraps an externally trained network and its feature scaler.
    ///
    /// # Panics
    ///
    /// Panics if the network shape does not match the feature/class
    /// dimensions.
    pub fn from_parts(network: NeuralNetwork, scaler: MinMaxScaler) -> Self {
        assert_eq!(network.input_size(), FEATURE_DIM, "input size mismatch");
        assert_eq!(
            network.output_size(),
            candidate_protocols().len(),
            "output size mismatch"
        );
        assert_eq!(scaler.dim(), FEATURE_DIM, "scaler dimension mismatch");
        ProtocolSelector { network, scaler }
    }

    /// The underlying network (e.g. for timing models).
    pub fn network(&self) -> &NeuralNetwork {
        &self.network
    }

    /// Selects the transport protocol for a configuration, measuring the
    /// query's wall-clock time on this host: encode → scale → one scalar
    /// forward pass → masked argmax, the paper's Fig. 20–21 path.
    ///
    /// [`select_batch`](Self::select_batch) decides identically, score bits
    /// included: a batch's rows past its last full tile run this same scalar
    /// pass, and the tile kernel does its operations in its order per row.
    pub fn select(&self, env: &Environment, app: &AppParams, metric: MetricKind) -> Selection {
        let start = Instant::now();
        let mut input = raw_features(env, app, metric);
        for (d, x) in input.iter_mut().enumerate() {
            *x = self.scaler.scale_dim(d, *x);
        }
        let scores = self.network.run(&input);
        let protocols = candidate_protocols();
        let class = feasible_argmax(&protocols, env, |c| scores[c]);
        let elapsed = start.elapsed();
        Selection {
            protocol: protocols[class],
            scores,
            elapsed,
        }
    }

    /// Selects for a whole fleet of endpoints: `out[i]` receives the
    /// (feasibility-masked) choice for `envs[i]`, identical to per-row
    /// [`select`](Self::select) calls. The batch is walked in blocks of
    /// `BLOCK_ROWS`: each is encoded and scaled straight into column-major
    /// feature lanes on the stack, swept through the network's tile kernel
    /// and arg-maxed while its lanes and scores are still in L1. One block's
    /// score buffer and the network's scratch are allocated once per call.
    ///
    /// # Panics
    ///
    /// Panics if `envs.len() != out.len()`.
    pub fn select_batch(&self, envs: &[FeatureRow], out: &mut [Choice]) {
        assert_eq!(
            envs.len(),
            out.len(),
            "output slice must match the query batch"
        );
        let protocols = candidate_protocols();
        let mut lanes = [0.0; BLOCK_ROWS * FEATURE_DIM];
        let (mut scratch, mut scores) = (BatchScratch::new(), Vec::new());
        for (queries, choices) in envs.chunks(BLOCK_ROWS).zip(out.chunks_mut(BLOCK_ROWS)) {
            let rows = queries.len();
            let cols = &mut lanes[..rows * FEATURE_DIM];
            for (r, query) in queries.iter().enumerate() {
                let raw = raw_features(&query.env, &query.app, query.metric);
                for (i, &x) in raw.iter().enumerate() {
                    cols[i * rows + r] = self.scaler.scale_dim(i, x);
                }
            }
            self.network
                .run_batch_cols_into(cols, rows, &mut scratch, &mut scores);
            for (r, (query, choice)) in queries.iter().zip(choices).enumerate() {
                let class = feasible_argmax(&protocols, &query.env, |c| scores[c * rows + r]);
                *choice = Choice {
                    protocol: protocols[class],
                    class,
                    score: scores[class * rows + r],
                };
            }
        }
    }

    /// Training-set recall: the paper's "accuracy for environments known
    /// *a priori*".
    pub fn evaluate_on(&self, dataset: &LabeledDataset) -> Evaluation {
        let raw = dataset.raw_inputs();
        let inputs = self.scaler.transform(&raw);
        let targets: Vec<Vec<f64>> = dataset
            .rows
            .iter()
            .map(|r| adamant_ann::one_hot(r.best_class, candidate_protocols().len()))
            .collect();
        let data = adamant_ann::TrainingData::new(inputs, targets);
        evaluate(&self.network, &data)
    }
}

adamant_json::impl_json_struct!(ProtocolSelector { network, scaler });

/// Rows per block of [`ProtocolSelector::select_batch`]: whole 32-row tiles
/// whose lanes (9 KB) and scores (8 KB) fit L1 beside the kernel's buffers.
const BLOCK_ROWS: usize = 128;

/// Argmax of `score(class)` over the classes that can actually be deployed
/// in this environment: the network may score ShmCast highly near the
/// same-host boundary, but a cross-host deployment cannot use it.
fn feasible_argmax(
    protocols: &[ProtocolKind],
    env: &Environment,
    score: impl Fn(usize) -> f64,
) -> usize {
    (0..protocols.len())
        .filter(|&c| is_feasible(protocols[c], env))
        .max_by(|&a, &b| score(a).partial_cmp(&score(b)).expect("finite score"))
        .expect("at least one feasible candidate")
}

/// The manual alternative to the ANN: a lookup table of every measured
/// configuration, answered by nearest neighbour in scaled feature space.
///
/// Exact for environments known *a priori*, but its query time grows with
/// the table (versus the ANN's constant-time pass), and its handling of
/// unseen environments has no notion of generalisation beyond distance.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSelector {
    scaler: MinMaxScaler,
    entries: Vec<(Vec<f64>, usize)>,
}

impl TableSelector {
    /// Builds the table from a labelled dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn from_dataset(dataset: &LabeledDataset) -> Self {
        assert!(!dataset.is_empty(), "cannot build a table from no data");
        let raw = dataset.raw_inputs();
        let scaler = MinMaxScaler::fit(&raw);
        let entries = raw
            .iter()
            .zip(&dataset.rows)
            .map(|(r, row)| (scaler.transform_row(r), row.best_class))
            .collect();
        TableSelector { scaler, entries }
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Selects by nearest neighbour, measuring wall-clock time.
    pub fn select(&self, env: &Environment, app: &AppParams, metric: MetricKind) -> Selection {
        let raw = raw_features(env, app, metric);
        let start = Instant::now();
        let query = self.scaler.transform_row(&raw);
        let mut best = (f64::INFINITY, 0usize);
        for (features, class) in &self.entries {
            if !is_feasible(candidate_protocols()[*class], env) {
                continue;
            }
            let dist: f64 = features
                .iter()
                .zip(&query)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if dist < best.0 {
                best = (dist, *class);
            }
        }
        let elapsed = start.elapsed();
        let mut scores = vec![0.0; candidate_protocols().len()];
        scores[best.1] = 1.0;
        Selection {
            protocol: candidate_protocols()[best.1],
            scores,
            elapsed,
        }
    }
}

/// A decision-tree alternative to the ANN (the paper's "other machine
/// learning techniques" future-work comparator). Training is deterministic
/// and querying is a bounded chain of comparisons.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSelector {
    scaler: MinMaxScaler,
    tree: DecisionTree,
}

impl TreeSelector {
    /// Fits a tree to a labelled dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn from_dataset(dataset: &LabeledDataset, params: DecisionTreeParams) -> Self {
        assert!(!dataset.is_empty(), "cannot fit a tree to no data");
        let raw = dataset.raw_inputs();
        let scaler = MinMaxScaler::fit(&raw);
        let inputs = scaler.transform(&raw);
        let labels: Vec<usize> = dataset.rows.iter().map(|r| r.best_class).collect();
        let tree = DecisionTree::fit(&inputs, &labels, candidate_protocols().len(), params);
        TreeSelector { scaler, tree }
    }

    /// The underlying tree (for size/depth inspection).
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Selects by tree traversal, measuring wall-clock time.
    pub fn select(&self, env: &Environment, app: &AppParams, metric: MetricKind) -> Selection {
        let raw = raw_features(env, app, metric);
        let start = Instant::now();
        let query = self.scaler.transform_row(&raw);
        let class = self.tree.predict(&query);
        let elapsed = start.elapsed();
        let mut scores = vec![0.0; candidate_protocols().len()];
        scores[class] = 1.0;
        Selection {
            protocol: candidate_protocols()[class],
            scores,
            elapsed,
        }
    }

    /// Training-set recall.
    pub fn evaluate_on(&self, dataset: &LabeledDataset) -> f64 {
        let inputs = self.scaler.transform(&dataset.raw_inputs());
        let labels: Vec<usize> = dataset.rows.iter().map(|r| r.best_class).collect();
        self.tree.accuracy(&inputs, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetRow;
    use crate::env::BandwidthClass;
    use adamant_dds::DdsImplementation;
    use adamant_netsim::MachineClass;

    /// A synthetic but learnable dataset over the widened v2 grid: on the
    /// LAN classes pc3000 prefers Ricochet R4C3 (class 4) and pc850
    /// prefers NAKcast 1 ms (class 3) — the paper's headline pattern —
    /// while the WAN rows prefer StreamCast (class 6) and the same-host
    /// rows ShmCast (class 7).
    fn synthetic_dataset() -> LabeledDataset {
        let mut rows = Vec::new();
        for machine in MachineClass::all() {
            for bandwidth in BandwidthClass::all() {
                for dds in DdsImplementation::all() {
                    for loss in 1..=5u8 {
                        for receivers in [3u32, 15] {
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
                                scores: vec![0.0; 8],
                            });
                        }
                    }
                }
            }
        }
        for machine in MachineClass::all() {
            for dds in DdsImplementation::all() {
                for receivers in [3u32, 15] {
                    for loss in 1..=5u8 {
                        rows.push(DatasetRow {
                            env: Environment::new(machine, BandwidthClass::Wan50ms, dds, loss),
                            app: AppParams::new(receivers, 25),
                            metric: MetricKind::ReLate2,
                            best_class: 6,
                            scores: vec![0.0; 8],
                        });
                    }
                    rows.push(DatasetRow {
                        env: Environment::colocated(machine, dds),
                        app: AppParams::new(receivers, 25),
                        metric: MetricKind::ReLate2,
                        best_class: 7,
                        scores: vec![0.0; 8],
                    });
                }
            }
        }
        LabeledDataset { rows }
    }

    #[test]
    fn trained_selector_recalls_training_set() {
        let ds = synthetic_dataset();
        let (selector, outcome) = ProtocolSelector::train_from(&ds, &SelectorConfig::default());
        assert!(
            outcome.reached_target || outcome.final_mse < 0.02,
            "training struggled: {outcome:?}"
        );
        let eval = selector.evaluate_on(&ds);
        assert!(eval.accuracy() > 0.98, "accuracy {}", eval.accuracy());
    }

    #[test]
    fn selection_matches_learned_pattern() {
        let ds = synthetic_dataset();
        let (selector, _) = ProtocolSelector::train_from(&ds, &SelectorConfig::default());
        let fast = Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            5,
        );
        let slow = Environment::new(
            MachineClass::Pc850,
            BandwidthClass::Mbps100,
            DdsImplementation::OpenSplice,
            5,
        );
        let app = AppParams::new(3, 25);
        assert_eq!(
            selector.select(&fast, &app, MetricKind::ReLate2).protocol,
            ProtocolKind::Ricochet { r: 4, c: 3 }
        );
        assert!(matches!(
            selector.select(&slow, &app, MetricKind::ReLate2).protocol,
            ProtocolKind::Nakcast { .. }
        ));
    }

    #[test]
    fn selector_learns_the_v2_axes() {
        let ds = synthetic_dataset();
        let (selector, _) = ProtocolSelector::train_from(&ds, &SelectorConfig::default());
        let app = AppParams::new(3, 25);
        let wan = Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Wan50ms,
            DdsImplementation::OpenSplice,
            3,
        );
        assert!(matches!(
            selector.select(&wan, &app, MetricKind::ReLate2).protocol,
            ProtocolKind::StreamCast { .. }
        ));
        let shm = Environment::colocated(MachineClass::Pc850, DdsImplementation::OpenDds);
        assert!(matches!(
            selector.select(&shm, &app, MetricKind::ReLate2).protocol,
            ProtocolKind::ShmCast { .. }
        ));
    }

    #[test]
    fn infeasible_classes_are_masked_at_selection_time() {
        // A table whose only entry says "ShmCast" must still refuse to
        // recommend it for a cross-host query — and an ANN query from
        // right outside the same-host boundary must land on a transport
        // the deployment can actually instantiate.
        let ds = LabeledDataset {
            rows: vec![DatasetRow {
                env: Environment::colocated(MachineClass::Pc3000, DdsImplementation::OpenDds),
                app: AppParams::new(3, 25),
                metric: MetricKind::ReLate2,
                best_class: 7,
                scores: vec![0.0; 8],
            }],
        };
        let table = TableSelector::from_dataset(&ds);
        let lan = Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenDds,
            1,
        );
        let app = AppParams::new(3, 25);
        let sel = table.select(&lan, &app, MetricKind::ReLate2);
        assert!(!matches!(sel.protocol, ProtocolKind::ShmCast { .. }));

        let (selector, _) =
            ProtocolSelector::train_from(&synthetic_dataset(), &SelectorConfig::default());
        let mut near = Environment::colocated(MachineClass::Pc3000, DdsImplementation::OpenDds);
        near.same_host = false;
        let sel = selector.select(&near, &app, MetricKind::ReLate2);
        assert!(
            !matches!(sel.protocol, ProtocolKind::ShmCast { .. }),
            "picked {} for a cross-host environment",
            sel.protocol
        );
    }

    #[test]
    fn selection_time_is_measured_and_small() {
        let ds = synthetic_dataset();
        let (selector, _) = ProtocolSelector::train_from(&ds, &SelectorConfig::default());
        let env = ds.rows[0].env;
        let app = ds.rows[0].app;
        // Warm up, then measure.
        let _ = selector.select(&env, &app, MetricKind::ReLate2);
        let sel = selector.select(&env, &app, MetricKind::ReLate2);
        assert!(sel.elapsed < Duration::from_millis(1), "{:?}", sel.elapsed);
        assert_eq!(sel.scores.len(), 8);
    }

    #[test]
    fn table_selector_is_exact_on_known_configurations() {
        let ds = synthetic_dataset();
        let table = TableSelector::from_dataset(&ds);
        assert_eq!(table.len(), ds.len());
        for row in &ds.rows {
            let sel = table.select(&row.env, &row.app, row.metric);
            assert_eq!(sel.protocol, row.best_protocol());
        }
    }

    #[test]
    fn tree_selector_recalls_and_generalises_the_pattern() {
        let ds = synthetic_dataset();
        let tree = TreeSelector::from_dataset(&ds, adamant_ann::DecisionTreeParams::default());
        assert!(
            tree.evaluate_on(&ds) > 0.99,
            "recall {}",
            tree.evaluate_on(&ds)
        );
        let fast = Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            5,
        );
        let sel = tree.select(&fast, &AppParams::new(3, 25), MetricKind::ReLate2);
        assert_eq!(sel.protocol, ProtocolKind::Ricochet { r: 4, c: 3 });
        assert!(tree.tree().depth() >= 1);
    }

    /// 1 031 seeded queries — 8 full blocks of full tiles plus a 7-row
    /// block that takes the scalar rows — drawn from the training
    /// environments (same-host ones included, so the feasibility mask is
    /// exercised both ways) under application parameters across and beyond
    /// the training set's.
    #[test]
    fn batched_selection_matches_scalar_select() {
        let ds = synthetic_dataset();
        let (selector, _) = ProtocolSelector::train_from(&ds, &SelectorConfig::default());
        let mut rng = adamant_proto::DetRng::seed_from_u64(0xF1EE7);
        let queries: Vec<FeatureRow> = (0..1031)
            .map(|_| {
                let env = ds.rows[rng.next_below(ds.rows.len() as u64) as usize].env;
                let app = AppParams::new(
                    rng.range_inclusive(1, 25) as u32,
                    rng.range_inclusive(10, 100) as u32,
                );
                let metric = MetricKind::paper_metrics()[rng.next_below(2) as usize];
                FeatureRow::new(env, app, metric)
            })
            .collect();
        assert!(queries.iter().any(|q| q.env.same_host));
        assert!(queries.iter().any(|q| !q.env.same_host));
        let mut choices = vec![Choice::default(); queries.len()];
        selector.select_batch(&queries, &mut choices);
        for (query, choice) in queries.iter().zip(&choices) {
            let scalar = selector.select(&query.env, &query.app, query.metric);
            assert_eq!(choice.protocol, scalar.protocol);
            assert_eq!(candidate_protocols()[choice.class], scalar.protocol);
            assert_eq!(
                choice.score.to_bits(),
                scalar.scores[choice.class].to_bits()
            );
            assert!(crate::features::is_feasible(choice.protocol, &query.env));
        }
        // The mask decides, not the scores: a cross-host twin of a
        // same-host query never gets ShmCast from either path.
        let mut near = queries
            .iter()
            .copied()
            .filter(|q| q.env.same_host)
            .collect::<Vec<_>>();
        near.iter_mut().for_each(|q| q.env.same_host = false);
        let mut choices = vec![Choice::default(); near.len()];
        selector.select_batch(&near, &mut choices);
        for (query, choice) in near.iter().zip(&choices) {
            assert!(!matches!(choice.protocol, ProtocolKind::ShmCast { .. }));
            let scalar = selector.select(&query.env, &query.app, query.metric);
            assert_eq!(choice.protocol, scalar.protocol);
        }
    }

    #[test]
    #[should_panic(expected = "output slice")]
    fn batch_rejects_mismatched_output() {
        let ds = synthetic_dataset();
        let (selector, _) = ProtocolSelector::train_from(&ds, &SelectorConfig::default());
        let queries = [FeatureRow::new(
            ds.rows[0].env,
            ds.rows[0].app,
            ds.rows[0].metric,
        )];
        let mut out: [Choice; 2] = [Choice::default(), Choice::default()];
        selector.select_batch(&queries, &mut out);
    }

    #[test]
    fn from_parts_validates_shape() {
        let ds = synthetic_dataset();
        let (data, scaler) = ds.to_training_data();
        let _ = data;
        let net = NeuralNetwork::new(&[FEATURE_DIM, 4, 8], Activation::fann_default(), 1);
        let selector = ProtocolSelector::from_parts(net, scaler);
        let _ = selector.network();
    }

    #[test]
    #[should_panic(expected = "output size mismatch")]
    fn from_parts_rejects_wrong_outputs() {
        let ds = synthetic_dataset();
        let (_, scaler) = ds.to_training_data();
        let net = NeuralNetwork::new(&[FEATURE_DIM, 4, 2], Activation::fann_default(), 1);
        ProtocolSelector::from_parts(net, scaler);
    }
}
