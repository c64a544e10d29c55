//! Pinned digests of trained knowledge-base weights.
//!
//! Every training of the selector — the offline `train_from`, the epoch
//! probe's 394-row set, the online retrain — goes through one gradient
//! sweep. This test pins what that sweep produces across commits: the FNV-1a
//! digest of each trained network's JSON (the printer is shortest
//! round-trip, so the digest covers every weight bit) and of the training's
//! outcome. A change to the sweep that claims to be bit-identical must
//! reproduce every row. The `[9, 40, 8]` row has a layer wider than the
//! batch kernel's tile buffers, so it pins the per-example fallback too.
//!
//! If a PR changes training *on purpose*, regenerate with
//! `cargo test --test trained_weights -- --nocapture` and paste the printed
//! table; the diff is then the visible record of what moved.

use adamant::{
    AppParams, BandwidthClass, DatasetRow, Environment, LabeledDataset, OnlineTrainer,
    OnlineTrainingConfig, ProtocolSelector, QosObservation, SelectorConfig,
};
use adamant_ann::{train, Activation, NeuralNetwork, TrainParams, TrainingData};
use adamant_dds::DdsImplementation;
use adamant_metrics::{MetricKind, WindowQos};
use adamant_netsim::{MachineClass, SimDuration, SimTime};
use adamant_proto::{fingerprint_debug, Fnv64};

/// `(training, network JSON digest, outcome digest)`.
const PINNED: &[(&str, u64, u64)] = &[
    ("train_from", 0xb52dd818aeda684f, 0x41869f0bb6e59fbd),
    ("200 epochs", 0x25cf4f7706663e2a, 0x8644813094b63b0a),
    ("wide, 50 epochs", 0xa7a152321c4f6b44, 0xf64d6eccc778b0aa),
    ("394 rows", 0xf1c5b9a17ed96e3d, 0x16d81a027fec6bec),
    ("online retrain", 0x892c112cba4a2115, 0x17b625bf33f7e913),
];

/// The benchmark's 180-row selector set: pc3000 rows labelled class 4 and
/// pc850 rows class 3 over three LAN bandwidths, both DDS implementations,
/// five loss levels and three receiver counts.
fn synthetic_dataset() -> LabeledDataset {
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

/// A fleet that measured class 0 best under light loss and class 3 best
/// under heavy loss: 24 environments, two classes observed three times in
/// each.
fn drifted_observations() -> Vec<QosObservation> {
    let mut out = Vec::new();
    for bandwidth in BandwidthClass::all() {
        for loss in 1..=8u8 {
            let env = Environment::new(
                MachineClass::Pc3000,
                bandwidth,
                DdsImplementation::OpenSplice,
                loss,
            );
            let (slow, fast) = if loss <= 4 { (3, 0) } else { (0, 3) };
            for rep in 0..3u32 {
                for (class, latency_us) in [(slow, 9_000.0), (fast, 700.0)] {
                    out.push(QosObservation {
                        env,
                        app: AppParams::new(2, 100),
                        metric: MetricKind::ReLate2,
                        class,
                        window: WindowQos {
                            start: SimTime::ZERO,
                            length: SimDuration::from_secs(1),
                            published: 100,
                            delivered: 100,
                            avg_latency_us: latency_us + f64::from(rep),
                            jitter_us: 0.0,
                        },
                    });
                }
            }
        }
    }
    out
}

fn digest(network: &NeuralNetwork) -> u64 {
    let mut h = Fnv64::new();
    h.write(adamant_json::to_string(network).as_bytes());
    h.finish()
}

fn selector_row(label: &str, config: SelectorConfig) -> (String, u64, u64) {
    let (selector, outcome) = ProtocolSelector::train_from(&synthetic_dataset(), &config);
    (
        label.to_owned(),
        digest(selector.network()),
        fingerprint_debug(&outcome),
    )
}

#[test]
fn trained_weights_reproduce_pinned_digests() {
    let mut measured = vec![
        selector_row("train_from", SelectorConfig::default()),
        selector_row(
            "200 epochs",
            SelectorConfig {
                train: TrainParams {
                    stopping_mse: 0.0,
                    max_epochs: 200,
                    ..TrainParams::default()
                },
                ..SelectorConfig::default()
            },
        ),
        selector_row(
            "wide, 50 epochs",
            SelectorConfig {
                hidden_nodes: 40,
                train: TrainParams {
                    stopping_mse: 0.0,
                    max_epochs: 50,
                    ..TrainParams::default()
                },
                ..SelectorConfig::default()
            },
        ),
    ];

    // The `ann.train_epoch_ms` probe's set: 394 rows, 7 features, 6 classes.
    let data = TrainingData::new(
        (0..394)
            .map(|i| (0..7).map(|d| ((i * 7 + d) % 97) as f64 / 97.0).collect())
            .collect(),
        (0..394).map(|i| adamant_ann::one_hot(i % 6, 6)).collect(),
    );
    let mut net = NeuralNetwork::new(&[7, 24, 6], Activation::fann_default(), 7);
    let outcome = train(
        &mut net,
        &data,
        &TrainParams {
            stopping_mse: 0.0,
            max_epochs: 10,
            ..TrainParams::default()
        },
    );
    measured.push((
        "394 rows".to_owned(),
        digest(&net),
        fingerprint_debug(&outcome),
    ));

    let mut trainer = OnlineTrainer::new(OnlineTrainingConfig::default());
    drifted_observations()
        .into_iter()
        .for_each(|obs| trainer.observe(obs));
    let candidate = trainer
        .maybe_retrain(None)
        .expect("a candidate beats an absent live model");
    let stats = trainer.stats();
    measured.push((
        "online retrain".to_owned(),
        digest(candidate.network()),
        fingerprint_debug(&(stats.observations, stats.retrains, stats.accepted)),
    ));

    for (label, weights, outcome) in &measured {
        println!("    (\"{label}\", {weights:#018x}, {outcome:#018x}),");
    }
    assert_eq!(measured.len(), PINNED.len());
    for (got, want) in measured.iter().zip(PINNED) {
        assert_eq!(
            (got.0.as_str(), got.1, got.2),
            *want,
            "trained weights moved"
        );
    }
}
