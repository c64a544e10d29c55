//! n-fold cross-validation (the paper's §4.4 methodology for accuracy on
//! environments "unknown until runtime").

use crate::classify::evaluate;
use crate::network::NeuralNetwork;
use crate::train::{train, TrainParams, TrainingData};
use crate::Activation;
use adamant_proto::splitmix64;

/// Deterministically assigns each of `n` examples to one of `k` folds
/// (shuffled by `seed`), returning the fold index per example.
///
/// # Panics
///
/// Panics if `k` is zero or greater than `n`.
pub fn fold_assignment(n: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(k > 0, "need at least one fold");
    assert!(k <= n, "more folds than examples");
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    for i in (1..n).rev() {
        let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut folds = vec![0usize; n];
    for (pos, &example) in order.iter().enumerate() {
        folds[example] = pos % k;
    }
    folds
}

/// Result of one cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidation {
    /// Held-out accuracy per fold.
    pub fold_accuracies: Vec<f64>,
}

impl CrossValidation {
    /// Mean held-out accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        if self.fold_accuracies.is_empty() {
            return 0.0;
        }
        self.fold_accuracies.iter().sum::<f64>() / self.fold_accuracies.len() as f64
    }
}

/// Runs `k`-fold cross-validation: trains a fresh network (architecture
/// `layer_sizes`, weights seeded per fold) on each training split and
/// evaluates on the held-out fold.
///
/// # Panics
///
/// Panics if `k` exceeds the dataset size or `layer_sizes` does not match
/// the data dimensions.
pub fn cross_validate(
    layer_sizes: &[usize],
    activation: Activation,
    data: &TrainingData,
    params: &TrainParams,
    k: usize,
    seed: u64,
) -> CrossValidation {
    let folds = fold_assignment(data.len(), k, seed);
    let mut fold_accuracies = Vec::with_capacity(k);
    for fold in 0..k {
        let (test, train_set) = data.split_by(|i| folds[i] == fold);
        let mut net = NeuralNetwork::new(layer_sizes, activation, seed ^ (fold as u64) << 32);
        train(&mut net, &train_set, params);
        fold_accuracies.push(evaluate(&net, &test).accuracy());
    }
    CrossValidation { fold_accuracies }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::one_hot;

    #[test]
    fn folds_are_balanced_and_cover_everything() {
        let folds = fold_assignment(100, 10, 3);
        assert_eq!(folds.len(), 100);
        for f in 0..10 {
            assert_eq!(folds.iter().filter(|&&x| x == f).count(), 10);
        }
    }

    #[test]
    fn uneven_folds_differ_by_at_most_one() {
        let folds = fold_assignment(47, 10, 1);
        let sizes: Vec<usize> = (0..10)
            .map(|f| folds.iter().filter(|&&x| x == f).count())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 47);
        assert!(sizes.iter().all(|&s| s == 4 || s == 5));
    }

    #[test]
    fn fold_assignment_deterministic_per_seed() {
        assert_eq!(fold_assignment(30, 5, 7), fold_assignment(30, 5, 7));
        assert_ne!(fold_assignment(30, 5, 7), fold_assignment(30, 5, 8));
    }

    #[test]
    #[should_panic(expected = "more folds")]
    fn too_many_folds_panics() {
        fold_assignment(3, 5, 0);
    }

    #[test]
    fn cross_validation_on_separable_data_scores_high() {
        // Two linearly separable classes.
        let inputs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let targets: Vec<Vec<f64>> = (0..40).map(|i| one_hot(usize::from(i >= 20), 2)).collect();
        let data = TrainingData::new(inputs, targets);
        let cv = cross_validate(
            &[1, 6, 2],
            Activation::fann_default(),
            &data,
            &TrainParams {
                stopping_mse: 1e-3,
                max_epochs: 1_500,
            },
            5,
            11,
        );
        assert_eq!(cv.fold_accuracies.len(), 5);
        assert!(
            cv.mean_accuracy() > 0.85,
            "mean accuracy {}",
            cv.mean_accuracy()
        );
    }

    #[test]
    fn empty_cv_mean_is_zero() {
        let cv = CrossValidation {
            fold_accuracies: vec![],
        };
        assert_eq!(cv.mean_accuracy(), 0.0);
    }
}
