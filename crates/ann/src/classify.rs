//! Classification on top of the network: one-hot targets, argmax
//! prediction, accuracy, and confusion matrices.

use crate::network::NeuralNetwork;
use crate::train::TrainingData;

/// Encodes class `class` of `classes` as a one-hot target vector.
///
/// # Panics
///
/// Panics if `class >= classes`.
pub fn one_hot(class: usize, classes: usize) -> Vec<f64> {
    assert!(class < classes, "class index out of range");
    let mut v = vec![0.0; classes];
    v[class] = 1.0;
    v
}

/// Decodes a network output vector to the class with the largest score.
///
/// Returns `None` for an empty output. Ties break toward the lower index,
/// keeping prediction deterministic.
pub fn argmax(output: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &y) in output.iter().enumerate() {
        match best {
            Some((_, b)) if y <= b => {}
            _ => best = Some((i, y)),
        }
    }
    best.map(|(i, _)| i)
}

/// Classification quality of a network over a labelled dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Correct predictions.
    pub correct: usize,
    /// Total examples.
    pub total: usize,
    /// `confusion[actual][predicted]` counts.
    pub confusion: Vec<Vec<usize>>,
}

impl Evaluation {
    /// Accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.correct as f64 / self.total as f64
    }

    /// Whether every example was classified correctly (the paper's
    /// "100% accurate classification" criterion for known environments).
    pub fn is_perfect(&self) -> bool {
        self.total > 0 && self.correct == self.total
    }

    /// Per-class recall: `recall[c]` is the fraction of class-`c` examples
    /// predicted correctly (`None` when the class has no examples).
    pub fn per_class_recall(&self) -> Vec<Option<f64>> {
        self.confusion
            .iter()
            .enumerate()
            .map(|(actual, row)| {
                let total: usize = row.iter().sum();
                if total == 0 {
                    None
                } else {
                    Some(row[actual] as f64 / total as f64)
                }
            })
            .collect()
    }
}

impl std::fmt::Display for Evaluation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}/{} correct ({:.2}%)",
            self.correct,
            self.total,
            self.accuracy() * 100.0
        )?;
        for (actual, row) in self.confusion.iter().enumerate() {
            write!(f, "  actual {actual}:")?;
            for count in row {
                write!(f, " {count:>5}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Evaluates `net` as a classifier over `data` (one-hot targets).
///
/// Forward passes run through one reused scratch: the evaluation loop
/// performs no per-example allocation, so the online trainer's holdout
/// gate can call this every candidate round without touching the heap.
pub fn evaluate(net: &NeuralNetwork, data: &TrainingData) -> Evaluation {
    let classes = data.target_dim();
    let mut confusion = vec![vec![0usize; classes]; classes];
    let mut correct = 0;
    let mut scratch = crate::network::BatchScratch::new();
    for (input, target) in data.inputs().iter().zip(data.targets()) {
        let predicted = argmax(net.run_scratch(input, &mut scratch)).expect("nonempty output");
        let actual = argmax(target).expect("nonempty target");
        confusion[actual][predicted] += 1;
        if predicted == actual {
            correct += 1;
        }
    }
    Evaluation {
        correct,
        total: data.len(),
        confusion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::train::{train, TrainParams};

    #[test]
    fn one_hot_encoding() {
        assert_eq!(one_hot(2, 4), vec![0.0, 0.0, 1.0, 0.0]);
        assert_eq!(one_hot(0, 1), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_rejects_bad_class() {
        one_hot(3, 3);
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), Some(1));
        assert_eq!(argmax(&[0.5, 0.5]), Some(0)); // tie → lowest index
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn trained_classifier_reaches_perfect_training_accuracy() {
        // Three separable classes on one input dimension.
        let inputs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 30.0]).collect();
        let targets: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                one_hot(
                    if i < 10 {
                        0
                    } else if i < 20 {
                        1
                    } else {
                        2
                    },
                    3,
                )
            })
            .collect();
        let data = TrainingData::new(inputs, targets);
        let mut net = NeuralNetwork::new(&[1, 8, 3], Activation::fann_default(), 3);
        train(
            &mut net,
            &data,
            &TrainParams {
                stopping_mse: 1e-3,
                max_epochs: 3_000,
            },
        );
        let eval = evaluate(&net, &data);
        assert!(eval.is_perfect(), "accuracy {}", eval.accuracy());
        // The confusion matrix is diagonal.
        for (a, row) in eval.confusion.iter().enumerate() {
            for (p, &count) in row.iter().enumerate() {
                if a == p {
                    assert_eq!(count, 10);
                } else {
                    assert_eq!(count, 0);
                }
            }
        }
    }

    #[test]
    fn per_class_recall_reported() {
        let eval = Evaluation {
            correct: 3,
            total: 4,
            confusion: vec![vec![2, 0], vec![1, 1]],
        };
        let recall = eval.per_class_recall();
        assert_eq!(recall, vec![Some(1.0), Some(0.5)]);
        let text = eval.to_string();
        assert!(text.contains("75.00%"));
        assert!(text.contains("actual 1"));
    }

    #[test]
    fn recall_of_absent_class_is_none() {
        let eval = Evaluation {
            correct: 1,
            total: 1,
            confusion: vec![vec![1, 0], vec![0, 0]],
        };
        assert_eq!(eval.per_class_recall()[1], None);
    }

    #[test]
    fn empty_evaluation_is_zero_accuracy() {
        let eval = Evaluation {
            correct: 0,
            total: 0,
            confusion: vec![],
        };
        assert_eq!(eval.accuracy(), 0.0);
        assert!(!eval.is_perfect());
    }
}
