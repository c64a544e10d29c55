//! Property-style tests of the neural-network invariants, driven by
//! deterministic seeded sweeps (the build environment has no registry
//! access, so no proptest; the case grids below cover the same space).

use adamant_ann::{
    argmax, cross_validate, fold_assignment, one_hot, train, Activation, MinMaxScaler,
    NeuralNetwork, TrainParams, TrainingData,
};

/// Test-case values drawn from the shared SplitMix64 stream.
struct CaseRng(u64);

impl CaseRng {
    fn next_u64(&mut self) -> u64 {
        adamant_proto::splitmix64(&mut self.0)
    }

    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    fn usize_below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Sigmoid outputs stay in (0, 1) for arbitrary inputs and seeds.
#[test]
fn outputs_bounded() {
    let mut rng = CaseRng(1);
    for case in 0..64u64 {
        let hidden = 1 + rng.usize_below(39);
        let input: Vec<f64> = (0..5).map(|_| rng.in_range(-1e3, 1e3)).collect();
        let net = NeuralNetwork::new(&[5, hidden, 3], Activation::fann_default(), case);
        let out = net.run(&input);
        assert_eq!(out.len(), 3);
        for y in out {
            assert!((0.0..=1.0).contains(&y), "case {case}: output {y}");
        }
    }
}

/// The query operation count depends only on the architecture, and the
/// forward pass is a pure function.
#[test]
fn query_is_pure_and_constant_cost() {
    let mut rng = CaseRng(2);
    for seed in 0..64u64 {
        let a: Vec<f64> = (0..4).map(|_| rng.in_range(-10.0, 10.0)).collect();
        let b: Vec<f64> = (0..4).map(|_| rng.in_range(-10.0, 10.0)).collect();
        let net = NeuralNetwork::new(&[4, 9, 2], Activation::fann_default(), seed);
        assert_eq!(net.run(&a), net.run(&a));
        let ops = net.ops_per_query();
        let _ = net.run(&b);
        assert_eq!(ops, net.ops_per_query());
    }
}

/// One-hot and argmax round-trip.
#[test]
fn one_hot_argmax_round_trip() {
    for classes in 1usize..20 {
        for class in 0..classes {
            assert_eq!(argmax(&one_hot(class, classes)), Some(class));
        }
    }
}

/// Min-max scaling maps fitted data into [0, 1] in every dimension.
#[test]
fn scaler_bounds() {
    let mut rng = CaseRng(3);
    for _ in 0..64 {
        let n = 1 + rng.usize_below(49);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.in_range(-1e6, 1e6)).collect())
            .collect();
        let scaler = MinMaxScaler::fit(&rows);
        for row in scaler.transform(&rows) {
            for x in row {
                assert!((0.0..=1.0).contains(&x));
            }
        }
    }
}

/// Fold assignment partitions every element into a valid fold with
/// balanced sizes.
#[test]
fn folds_partition() {
    let mut rng = CaseRng(4);
    for seed in 0..64u64 {
        let n = 10 + rng.usize_below(190);
        let k = 2 + rng.usize_below(8).min(n - 2);
        let folds = fold_assignment(n, k, seed);
        assert_eq!(folds.len(), n);
        let mut counts = vec![0usize; k];
        for &f in &folds {
            assert!(f < k);
            counts[f] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "unbalanced folds: {counts:?}");
    }
}

/// Training never increases the dataset MSE beyond its starting point
/// (for a healthy learning setup on separable data).
#[test]
fn training_reduces_mse() {
    for seed in 0..50u64 {
        let inputs: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64 / 16.0]).collect();
        let targets: Vec<Vec<f64>> = (0..16).map(|i| one_hot(usize::from(i >= 8), 2)).collect();
        let data = TrainingData::new(inputs, targets);
        let mut net = NeuralNetwork::new(&[1, 5, 2], Activation::fann_default(), seed);
        let before = net.mse(data.inputs(), data.targets());
        train(
            &mut net,
            &data,
            &TrainParams {
                stopping_mse: 0.0,
                max_epochs: 100,
            },
        );
        let after = net.mse(data.inputs(), data.targets());
        assert!(after <= before + 1e-12, "MSE rose: {before} -> {after}");
    }
}

/// Cross-validation accuracy lies in [0, 1] for every fold, whatever the
/// labels (deterministic small cases).
#[test]
fn cross_validation_accuracy_bounds() {
    for seed in 0..3u64 {
        let inputs: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
            .collect();
        let targets: Vec<Vec<f64>> = (0..30).map(|i| one_hot((i % 2) as usize, 2)).collect();
        let data = TrainingData::new(inputs, targets);
        let cv = cross_validate(
            &[2, 4, 2],
            Activation::fann_default(),
            &data,
            &TrainParams {
                max_epochs: 50,
                ..TrainParams::default()
            },
            5,
            seed,
        );
        assert_eq!(cv.fold_accuracies.len(), 5);
        for acc in &cv.fold_accuracies {
            assert!((0.0..=1.0).contains(acc));
        }
    }
}
