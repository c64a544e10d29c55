//! Training: batch backpropagation gradients with iRPROP− or plain online
//! gradient descent, driven to a target MSE (FANN's "stopping error").

use crate::network::{NeuralNetwork, TrainingTiles};
use crate::rng::InitRng;

/// A supervised training set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingData {
    inputs: Vec<Vec<f64>>,
    targets: Vec<Vec<f64>>,
}

impl TrainingData {
    /// Creates a dataset from matching input/target rows.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ, rows are ragged, or the set is
    /// empty.
    pub fn new(inputs: Vec<Vec<f64>>, targets: Vec<Vec<f64>>) -> Self {
        assert_eq!(inputs.len(), targets.len(), "row counts must match");
        assert!(!inputs.is_empty(), "training data must be nonempty");
        let in_dim = inputs[0].len();
        let out_dim = targets[0].len();
        assert!(
            inputs.iter().all(|r| r.len() == in_dim),
            "ragged input rows"
        );
        assert!(
            targets.iter().all(|r| r.len() == out_dim),
            "ragged target rows"
        );
        TrainingData { inputs, targets }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.inputs[0].len()
    }

    /// Target dimensionality.
    pub fn target_dim(&self) -> usize {
        self.targets[0].len()
    }

    /// The input rows.
    pub fn inputs(&self) -> &[Vec<f64>] {
        &self.inputs
    }

    /// The target rows.
    pub fn targets(&self) -> &[Vec<f64>] {
        &self.targets
    }

    /// Splits into (selected, rest) by example index predicate.
    pub fn split_by<F: Fn(usize) -> bool>(&self, pick: F) -> (TrainingData, TrainingData) {
        let mut a = (Vec::new(), Vec::new());
        let mut b = (Vec::new(), Vec::new());
        for i in 0..self.len() {
            let bucket = if pick(i) { &mut a } else { &mut b };
            bucket.0.push(self.inputs[i].clone());
            bucket.1.push(self.targets[i].clone());
        }
        (
            TrainingData {
                inputs: a.0,
                targets: a.1,
            },
            TrainingData {
                inputs: b.0,
                targets: b.1,
            },
        )
    }
}

/// Which optimisation algorithm drives training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// iRPROP− — FANN's default: per-weight adaptive steps from gradient
    /// signs only. Fast and insensitive to learning-rate choice.
    Rprop,
    /// Plain online (incremental) gradient descent.
    Incremental {
        /// Learning rate.
        learning_rate: f64,
        /// Momentum factor in `[0, 1)`.
        momentum: f64,
    },
}

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainParams {
    /// Optimiser.
    pub algorithm: Algorithm,
    /// Stop once dataset MSE falls to this value (the paper uses 1e-4).
    pub stopping_mse: f64,
    /// Hard cap on training epochs.
    pub max_epochs: u32,
    /// Seed for example shuffling (incremental training).
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            algorithm: Algorithm::Rprop,
            stopping_mse: 1e-4,
            max_epochs: 2_000,
            seed: 0,
        }
    }
}

/// What training achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainOutcome {
    /// Epochs actually run.
    pub epochs: u32,
    /// Final dataset MSE.
    pub final_mse: f64,
    /// Whether the stopping error was reached before `max_epochs`.
    pub reached_target: bool,
}

/// Per-weight iRPROP− state.
struct RpropState {
    step: Vec<f64>,
    prev_grad: Vec<f64>,
}

const RPROP_ETA_PLUS: f64 = 1.2;
const RPROP_ETA_MINUS: f64 = 0.5;
const RPROP_STEP_MIN: f64 = 1e-9;
const RPROP_STEP_MAX: f64 = 50.0;
const RPROP_STEP_INIT: f64 = 0.1;

/// Trains `net` on `data` until the stopping error or epoch cap.
///
/// # Panics
///
/// Panics if the data dimensions do not match the network.
pub fn train(net: &mut NeuralNetwork, data: &TrainingData, params: &TrainParams) -> TrainOutcome {
    assert_eq!(data.input_dim(), net.input_size(), "input dim mismatch");
    assert_eq!(data.target_dim(), net.output_size(), "target dim mismatch");
    match params.algorithm {
        Algorithm::Rprop => train_rprop(net, data, params),
        Algorithm::Incremental {
            learning_rate,
            momentum,
        } => train_incremental(net, data, params, learning_rate, momentum),
    }
}

/// One fused pass over the dataset through the tile kernel: the batch
/// gradients into `set.grads`, and the MSE of the *current* weights
/// returned. The error accumulates per output in example order — the exact
/// arithmetic and association [`NeuralNetwork::mse`] uses — so fusing the
/// stopping check into the gradient sweep is bit-exact while halving the
/// forward passes per epoch. The set's buffers are reused by every sweep: a
/// warmed-up epoch performs zero heap allocations.
fn batch_gradients(net: &NeuralNetwork, data: &TrainingData, set: &mut TrainingTiles) -> f64 {
    net.gradients(set, 0..data.len()) / (data.len() * data.target_dim()) as f64
}

fn train_rprop(net: &mut NeuralNetwork, data: &TrainingData, params: &TrainParams) -> TrainOutcome {
    let mut states: Vec<(RpropState, RpropState)> = net
        .layers
        .iter()
        .map(|l| {
            (
                RpropState {
                    step: vec![RPROP_STEP_INIT; l.weights.len()],
                    prev_grad: vec![0.0; l.weights.len()],
                },
                RpropState {
                    step: vec![RPROP_STEP_INIT; l.biases.len()],
                    prev_grad: vec![0.0; l.biases.len()],
                },
            )
        })
        .collect();

    let mut set = TrainingTiles::new(net, data.inputs(), data.targets());
    let mut epochs = 0;
    loop {
        let mse = batch_gradients(net, data, &mut set);
        if mse <= params.stopping_mse {
            return TrainOutcome {
                epochs,
                final_mse: mse,
                reached_target: true,
            };
        }
        if epochs >= params.max_epochs {
            return TrainOutcome {
                epochs,
                final_mse: mse,
                reached_target: false,
            };
        }
        for (l, (gw, gb)) in set.grads.iter().enumerate() {
            let (wstate, bstate) = &mut states[l];
            rprop_update(&mut net.layers[l].weights, gw, wstate);
            rprop_update(&mut net.layers[l].biases, gb, bstate);
        }
        epochs += 1;
    }
}

fn rprop_update(params: &mut [f64], grad: &[f64], state: &mut RpropState) {
    for i in 0..params.len() {
        let g = grad[i];
        let sign_product = g * state.prev_grad[i];
        if sign_product > 0.0 {
            state.step[i] = (state.step[i] * RPROP_ETA_PLUS).min(RPROP_STEP_MAX);
            params[i] -= g.signum() * state.step[i];
            state.prev_grad[i] = g;
        } else if sign_product < 0.0 {
            state.step[i] = (state.step[i] * RPROP_ETA_MINUS).max(RPROP_STEP_MIN);
            // iRPROP−: forget the gradient after a sign change, no revert.
            state.prev_grad[i] = 0.0;
        } else {
            params[i] -= g.signum() * state.step[i];
            state.prev_grad[i] = g;
        }
    }
}

fn train_incremental(
    net: &mut NeuralNetwork,
    data: &TrainingData,
    params: &TrainParams,
    learning_rate: f64,
    momentum: f64,
) -> TrainOutcome {
    let mut rng = InitRng::new(params.seed);
    let mut velocity: Vec<(Vec<f64>, Vec<f64>)> = net
        .layers
        .iter()
        .map(|l| (vec![0.0; l.weights.len()], vec![0.0; l.biases.len()]))
        .collect();
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut set = TrainingTiles::new(net, data.inputs(), data.targets());
    let mut epochs = 0;
    loop {
        // The batch sweep's MSE (its gradients go unused): `mse`'s bits.
        let mse = batch_gradients(net, data, &mut set);
        if mse <= params.stopping_mse {
            return TrainOutcome {
                epochs,
                final_mse: mse,
                reached_target: true,
            };
        }
        if epochs >= params.max_epochs {
            return TrainOutcome {
                epochs,
                final_mse: mse,
                reached_target: false,
            };
        }
        // Fisher-Yates shuffle for stochastic example order.
        for i in (1..order.len()).rev() {
            let j = rng.below(i + 1);
            order.swap(i, j);
        }
        for &idx in &order {
            net.gradients(&mut set, idx..idx + 1);
            for (l, (gw, gb)) in set.grads.iter().enumerate() {
                let (vw, vb) = &mut velocity[l];
                for i in 0..gw.len() {
                    vw[i] = momentum * vw[i] - learning_rate * gw[i];
                    net.layers[l].weights[i] += vw[i];
                }
                for i in 0..gb.len() {
                    vb[i] = momentum * vb[i] - learning_rate * gb[i];
                    net.layers[l].biases[i] += vb[i];
                }
            }
        }
        epochs += 1;
    }
}

/// Outcome of [`train_with_validation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidatedOutcome {
    /// The inner training outcome of the final round.
    pub train: TrainOutcome,
    /// Validation MSE of the best (restored) weights.
    pub best_validation_mse: f64,
    /// Total epochs run across all rounds.
    pub total_epochs: u32,
    /// Whether early stopping fired (patience exhausted).
    pub stopped_early: bool,
}

/// Trains with validation-based early stopping: runs training in rounds of
/// `round_epochs`, evaluates the validation MSE after each round, and stops
/// once it has failed to improve for `patience` consecutive rounds —
/// restoring the weights from the best round.
///
/// This is the standard guard against over-fitting small datasets like the
/// paper's 394 inputs; the paper itself trains to a fixed stopping error,
/// which `train` reproduces, while this variant is the cross-validated
/// practitioner's alternative.
///
/// # Panics
///
/// Panics if `round_epochs` or `patience` is zero or the data dimensions
/// do not match the network.
pub fn train_with_validation(
    net: &mut NeuralNetwork,
    training: &TrainingData,
    validation: &TrainingData,
    params: &TrainParams,
    round_epochs: u32,
    patience: u32,
) -> ValidatedOutcome {
    assert!(round_epochs > 0, "round_epochs must be positive");
    assert!(patience > 0, "patience must be positive");
    let mut best_net = net.clone();
    let mut best_val = net.mse(validation.inputs(), validation.targets());
    let mut bad_rounds = 0;
    let mut total_epochs = 0;
    let mut last = TrainOutcome {
        epochs: 0,
        final_mse: net.mse(training.inputs(), training.targets()),
        reached_target: false,
    };
    while total_epochs < params.max_epochs {
        let round = TrainParams {
            max_epochs: round_epochs.min(params.max_epochs - total_epochs),
            ..*params
        };
        last = train(net, training, &round);
        total_epochs += last.epochs;
        let val = net.mse(validation.inputs(), validation.targets());
        if val < best_val {
            best_val = val;
            best_net = net.clone();
            bad_rounds = 0;
        } else {
            bad_rounds += 1;
            if bad_rounds >= patience {
                *net = best_net;
                return ValidatedOutcome {
                    train: last,
                    best_validation_mse: best_val,
                    total_epochs,
                    stopped_early: true,
                };
            }
        }
        if last.reached_target || last.epochs == 0 {
            break;
        }
    }
    *net = best_net;
    ValidatedOutcome {
        train: last,
        best_validation_mse: best_val,
        total_epochs,
        stopped_early: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::network::{tests::tiers, Tiles};
    use std::ops::Range;

    type Grads = Vec<(Vec<f64>, Vec<f64>)>;

    /// Backpropagation one example at a time, in plain scalar code: the
    /// gradient kernel's oracle. Returns the gradients summed over `rows`
    /// and their summed squared error.
    fn per_example_gradients(
        net: &NeuralNetwork,
        data: &TrainingData,
        rows: Range<usize>,
    ) -> (Grads, f64) {
        let layers = &net.layers;
        let mut grads: Grads = layers
            .iter()
            .map(|l| (vec![0.0; l.weights.len()], vec![0.0; l.biases.len()]))
            .collect();
        let mut total = 0.0;
        for r in rows {
            // acts[0] is the input, acts[l + 1] layer l's output.
            let mut acts = vec![data.inputs()[r].clone()];
            for layer in layers {
                let mut out = Vec::new();
                layer.forward_into(&acts[acts.len() - 1], &mut out);
                acts.push(out);
            }
            let f = layers[layers.len() - 1].activation;
            let mut delta: Vec<f64> = (acts[layers.len()].iter().zip(&data.targets()[r]))
                .map(|(&y, &t)| {
                    total += (y - t) * (y - t);
                    (y - t) * f.derivative_from_output(y)
                })
                .collect();
            for (l, layer) in layers.iter().enumerate().rev() {
                let (gw, gb) = &mut grads[l];
                for (o, &d) in delta.iter().enumerate() {
                    gb[o] += d;
                    for (g, &x) in gw[o * layer.inputs..][..layer.inputs]
                        .iter_mut()
                        .zip(&acts[l])
                    {
                        *g += d * x;
                    }
                }
                if l > 0 {
                    let f = layers[l - 1].activation;
                    delta = (0..layer.inputs)
                        .map(|i| {
                            let mut sum = 0.0;
                            for (o, d) in delta.iter().enumerate() {
                                sum += d * layer.weights[o * layer.inputs + i];
                            }
                            sum * f.derivative_from_output(acts[l][i])
                        })
                        .collect();
                }
            }
        }
        (grads, total)
    }

    fn bits(grads: &Grads) -> Vec<u64> {
        let all = grads.iter().flat_map(|(w, b)| w.iter().chain(b));
        all.map(|g| g.to_bits()).collect()
    }

    /// Asserts that every tier of the gradient kernel the host offers,
    /// called directly, equals the oracle bit for bit over each range of
    /// `ranges` — every gradient and the squared error — and that the
    /// production sweep does over the whole set, MSE included.
    fn assert_tiers_match_oracle(
        net: &NeuralNetwork,
        data: &TrainingData,
        ranges: &[Range<usize>],
        what: &str,
    ) {
        for (tier, kernel) in tiers() {
            // One set through every range: no sweep may see another's sums.
            let mut set = TrainingTiles::new(net, data.inputs(), data.targets());
            for rows in ranges {
                let (want, want_error) = per_example_gradients(net, data, rows.clone());
                let mut error = 0.0;
                kernel(Tiles::Gradients(
                    &net.layers,
                    &mut set,
                    rows.clone(),
                    &mut error,
                ));
                assert_eq!(
                    bits(&set.grads),
                    bits(&want),
                    "{what} {tier} {rows:?}: gradients"
                );
                assert_eq!(
                    error.to_bits(),
                    want_error.to_bits(),
                    "{what} {tier} {rows:?}: error"
                );
            }
        }
        let mut set = TrainingTiles::new(net, data.inputs(), data.targets());
        let mse = batch_gradients(net, data, &mut set);
        let (want, want_error) = per_example_gradients(net, data, 0..data.len());
        let want_mse = want_error / (data.len() * data.target_dim()) as f64;
        assert_eq!(bits(&set.grads), bits(&want), "{what} batch_gradients");
        assert_eq!(
            mse.to_bits(),
            want_mse.to_bits(),
            "{what} batch_gradients: mse"
        );
        assert_eq!(
            mse.to_bits(),
            net.mse(data.inputs(), data.targets()).to_bits(),
            "{what}: mse"
        );
    }

    /// `rows` random examples, inputs uniform in ±`scale`, targets in ±1.
    fn random_data(rows: usize, sizes: &[usize], scale: f64, rng: &mut InitRng) -> TrainingData {
        let mut row = |dim: usize, scale: f64| (0..dim).map(|_| rng.uniform(scale)).collect();
        let (inputs, targets) = (0..rows)
            .map(|_| (row(sizes[0], scale), row(sizes[sizes.len() - 1], 1.0)))
            .unzip();
        TrainingData::new(inputs, targets)
    }

    /// Property test: over 200 random architectures (every activation, zero
    /// to two hidden layers, widths up to 32) and row counts on both sides
    /// of every tile boundary, each ISA tier of the gradient kernel equals
    /// the per-example sweep bit for bit — over the whole set, a range
    /// starting mid-tile, and single rows as incremental training sweeps
    /// them. Every third case scales inputs to ±50, so saturated neurons
    /// engage `f′`'s clamp.
    #[test]
    fn every_gradient_tier_is_bit_identical_to_the_per_example_sweep() {
        const ROWS: [usize; 7] = [1, 31, 32, 33, 64, 180, 394];
        let mut rng = InitRng::new(0x6AD);
        for case in 0..200u64 {
            let inputs = 1 + (case % 11) as usize;
            let hidden = 1 + ((case / 7) % 32) as usize;
            let outputs = 1 + ((case * 5) % 32) as usize;
            let sizes = match case % 5 {
                0 => vec![inputs, outputs],
                1 => vec![inputs, hidden, 1 + hidden / 2, outputs],
                _ => vec![inputs, hidden, outputs],
            };
            let activation = match case % 4 {
                0 => Activation::SymmetricSigmoid { steepness: 0.7 },
                1 => Activation::Linear,
                _ => Activation::fann_default(),
            };
            let net = NeuralNetwork::new(&sizes, activation, 0x5EED ^ case);
            let scale = if case % 3 == 0 { 50.0 } else { 1.0 };
            let rows = ROWS[case as usize % 7];
            let data = random_data(rows, &sizes, scale, &mut rng);
            let (start, last) = (rng.below(rows), rng.below(rows));
            let ranges = [
                0..rows,
                start.min(last)..start.max(last) + 1,
                last..last + 1,
                0..1,
            ];
            assert_tiers_match_oracle(&net, &data, &ranges, &format!("case {case}"));
        }
    }

    #[test]
    fn a_nan_row_poisons_the_same_gradients_in_every_tier() {
        let sizes = [9, 24, 8];
        let net = NeuralNetwork::new(&sizes, Activation::fann_default(), 3);
        let data = random_data(180, &sizes, 1.0, &mut InitRng::new(0x4A4));
        let mut inputs = data.inputs().to_vec();
        inputs[77][4] = f64::NAN;
        let poisoned = TrainingData::new(inputs, data.targets().to_vec());
        assert!(per_example_gradients(&net, &poisoned, 0..180).1.is_nan());
        assert_tiers_match_oracle(
            &net,
            &poisoned,
            &[0..180, 64..96, 77..78, 78..79],
            "NaN row",
        );
    }

    #[test]
    fn layers_wider_than_the_batch_kernels_buffers_sweep_the_same() {
        for sizes in [[3, 33, 2], [9, 40, 8], [4, 5, 64]] {
            let net = NeuralNetwork::new(&sizes, Activation::fann_default(), 5);
            let data = random_data(70, &sizes, 1.0, &mut InitRng::new(9));
            assert_tiers_match_oracle(&net, &data, &[0..70, 33..34], &format!("{sizes:?}"));
        }
    }

    fn xor_data() -> TrainingData {
        TrainingData::new(
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]],
        )
    }

    #[test]
    fn rprop_learns_xor() {
        let mut net = NeuralNetwork::new(&[2, 6, 1], Activation::fann_default(), 7);
        let outcome = train(
            &mut net,
            &xor_data(),
            &TrainParams {
                stopping_mse: 1e-3,
                max_epochs: 5_000,
                ..TrainParams::default()
            },
        );
        assert!(
            outcome.reached_target,
            "XOR did not converge: mse {}",
            outcome.final_mse
        );
        assert!(net.run(&[0.0, 1.0])[0] > 0.9);
        assert!(net.run(&[1.0, 1.0])[0] < 0.1);
    }

    #[test]
    fn incremental_learns_xor() {
        let mut net = NeuralNetwork::new(&[2, 8, 1], Activation::fann_default(), 3);
        let outcome = train(
            &mut net,
            &xor_data(),
            &TrainParams {
                algorithm: Algorithm::Incremental {
                    learning_rate: 0.7,
                    momentum: 0.5,
                },
                stopping_mse: 1e-2,
                max_epochs: 20_000,
                seed: 11,
            },
        );
        assert!(
            outcome.reached_target,
            "incremental XOR did not converge: mse {}",
            outcome.final_mse
        );
    }

    #[test]
    fn training_is_deterministic() {
        let run = || {
            let mut net = NeuralNetwork::new(&[2, 4, 1], Activation::fann_default(), 5);
            train(
                &mut net,
                &xor_data(),
                &TrainParams {
                    max_epochs: 200,
                    ..TrainParams::default()
                },
            );
            net
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mse_decreases_during_training() {
        let data = xor_data();
        let mut net = NeuralNetwork::new(&[2, 6, 1], Activation::fann_default(), 9);
        let before = net.mse(data.inputs(), data.targets());
        train(
            &mut net,
            &data,
            &TrainParams {
                max_epochs: 300,
                stopping_mse: 0.0,
                ..TrainParams::default()
            },
        );
        let after = net.mse(data.inputs(), data.targets());
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn epoch_cap_respected() {
        let mut net = NeuralNetwork::new(&[2, 2, 1], Activation::fann_default(), 1);
        let outcome = train(
            &mut net,
            &xor_data(),
            &TrainParams {
                stopping_mse: 0.0, // unreachable
                max_epochs: 17,
                ..TrainParams::default()
            },
        );
        assert_eq!(outcome.epochs, 17);
        assert!(!outcome.reached_target);
    }

    #[test]
    fn gradients_match_numeric_estimate() {
        let net = NeuralNetwork::new(&[2, 3, 2], Activation::fann_default(), 13);
        let data = TrainingData::new(vec![vec![0.3, -0.6]], vec![vec![0.2, 0.9]]);
        let (grads, _) = per_example_gradients(&net, &data, 0..1);
        // Perturb a handful of weights and compare dE/dw numerically.
        // E = sum((y - t)^2) over outputs; batch gradient is dE/dw / 2...
        // our delta uses (y - t) so gradient corresponds to E = 1/2 sum sq.
        let h = 1e-6;
        for (layer_idx, weight_idx) in [(0usize, 0usize), (0, 4), (1, 2), (1, 5)] {
            let mut plus = net.clone();
            plus.layers[layer_idx].weights[weight_idx] += h;
            let mut minus = net.clone();
            minus.layers[layer_idx].weights[weight_idx] -= h;
            let e = |n: &NeuralNetwork| {
                let y = n.run(&data.inputs()[0]);
                y.iter()
                    .zip(&data.targets()[0])
                    .map(|(a, b)| 0.5 * (a - b) * (a - b))
                    .sum::<f64>()
            };
            let numeric = (e(&plus) - e(&minus)) / (2.0 * h);
            let analytic = grads[layer_idx].0[weight_idx];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "layer {layer_idx} w{weight_idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn split_by_partitions() {
        let data = TrainingData::new(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![vec![0.0], vec![1.0], vec![0.0], vec![1.0]],
        );
        let (even, odd) = data.split_by(|i| i % 2 == 0);
        assert_eq!(even.len(), 2);
        assert_eq!(odd.len(), 2);
        assert_eq!(even.inputs()[1], vec![2.0]);
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        // Train/validation split of a noisy 1-D threshold problem: enough
        // capacity to overfit, so validation MSE eventually degrades.
        let inputs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let targets: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                // A few mislabelled points to overfit on.
                let label = if i == 3 || i == 37 {
                    usize::from(i < 20)
                } else {
                    usize::from(i >= 20)
                };
                crate::classify::one_hot(label, 2)
            })
            .collect();
        let all = TrainingData::new(inputs, targets);
        let (validation, training) = all.split_by(|i| i % 4 == 0);
        let mut net = NeuralNetwork::new(&[1, 16, 2], Activation::fann_default(), 11);
        let outcome = train_with_validation(
            &mut net,
            &training,
            &validation,
            &TrainParams {
                stopping_mse: 0.0,
                max_epochs: 4_000,
                ..TrainParams::default()
            },
            50,
            3,
        );
        // The restored network achieves the reported best validation MSE.
        let val = net.mse(validation.inputs(), validation.targets());
        assert!((val - outcome.best_validation_mse).abs() < 1e-12);
        assert!(outcome.total_epochs > 0);
        assert!(outcome.total_epochs <= 4_000);
    }

    #[test]
    fn validated_training_respects_epoch_budget() {
        let data = xor_data();
        let mut net = NeuralNetwork::new(&[2, 4, 1], Activation::fann_default(), 2);
        let outcome = train_with_validation(
            &mut net,
            &data,
            &data,
            &TrainParams {
                stopping_mse: 0.0,
                max_epochs: 73,
                ..TrainParams::default()
            },
            20,
            100, // patience never fires
        );
        assert_eq!(outcome.total_epochs, 73);
        assert!(!outcome.stopped_early);
    }

    #[test]
    #[should_panic(expected = "row counts")]
    fn mismatched_rows_panic() {
        TrainingData::new(vec![vec![0.0]], vec![]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        TrainingData::new(vec![vec![0.0], vec![0.0, 1.0]], vec![vec![1.0], vec![1.0]]);
    }
}
