//! Property-style tests of the ADAMANT core: feature encoding, labelling,
//! and selection invariants, swept deterministically over the evaluation
//! space.

use adamant::features::{candidate_protocols, class_index, raw_features, FEATURE_DIM};
use adamant::{
    best_class_with_margin, AppParams, BandwidthClass, DatasetRow, Environment, LabeledDataset,
    ProtocolSelector, SelectorConfig,
};
use adamant_dds::DdsImplementation;
use adamant_metrics::MetricKind;
use adamant_netsim::MachineClass;

/// Case generator over the shared SplitMix64 stream.
struct CaseRng(u64);

impl CaseRng {
    fn next_u64(&mut self) -> u64 {
        adamant_proto::splitmix64(&mut self.0)
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next_u64() % options.len() as u64) as usize]
    }

    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn any_environment(rng: &mut CaseRng) -> Environment {
    Environment::new(
        rng.pick(&[MachineClass::Pc850, MachineClass::Pc3000]),
        rng.pick(&[
            BandwidthClass::Gbps1,
            BandwidthClass::Mbps100,
            BandwidthClass::Mbps10,
        ]),
        rng.pick(&[DdsImplementation::OpenDds, DdsImplementation::OpenSplice]),
        rng.range_u64(1, 6) as u8,
    )
}

fn any_app(rng: &mut CaseRng) -> AppParams {
    AppParams::new(rng.range_u64(3, 16) as u32, rng.pick(&[10u32, 25, 50, 100]))
}

fn any_metric(rng: &mut CaseRng) -> MetricKind {
    rng.pick(&[MetricKind::ReLate2, MetricKind::ReLate2Jit])
}

/// Feature encoding is injective over the evaluation space: different
/// configurations never collide.
#[test]
fn feature_encoding_is_injective() {
    let mut rng = CaseRng(41);
    for _ in 0..128 {
        let a = (
            any_environment(&mut rng),
            any_app(&mut rng),
            any_metric(&mut rng),
        );
        let b = (
            any_environment(&mut rng),
            any_app(&mut rng),
            any_metric(&mut rng),
        );
        let fa = raw_features(&a.0, &a.1, a.2);
        let fb = raw_features(&b.0, &b.1, b.2);
        if a != b {
            assert_ne!(fa, fb, "distinct configs must encode distinctly");
        } else {
            assert_eq!(fa, fb);
        }
    }
}

/// Every feature vector has the advertised dimension and finite values.
#[test]
fn features_finite() {
    let mut rng = CaseRng(42);
    for _ in 0..128 {
        let f = raw_features(
            &any_environment(&mut rng),
            &any_app(&mut rng),
            any_metric(&mut rng),
        );
        assert_eq!(f.len(), FEATURE_DIM);
        assert!(f.iter().all(|x| x.is_finite()));
    }
}

/// Margin labelling picks the true argmin when the margin is zero, and
/// never picks an index whose score exceeds the margin band.
#[test]
fn margin_labelling_sound() {
    let mut rng = CaseRng(43);
    for _ in 0..128 {
        let n = rng.range_u64(1, 6) as usize;
        let scores: Vec<f64> = (0..n).map(|_| 0.1 + rng.unit() * 1e6).collect();
        let margin = rng.unit() * 0.2;

        let zero = best_class_with_margin(&scores, 0.0);
        let min = scores.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(scores[zero], min);

        let with_margin = best_class_with_margin(&scores, margin);
        assert!(scores[with_margin] <= min * (1.0 + margin) + 1e-9);
        assert!(with_margin <= zero, "margin can only move labels earlier");
    }
}

/// A trained selector always returns one of the candidate protocols
/// with a full score vector, for any query in the space.
#[test]
fn selector_closed_over_candidates() {
    // A small fixed dataset (training quality irrelevant here).
    let rows: Vec<DatasetRow> = (1..=5u8)
        .map(|loss| DatasetRow {
            env: Environment::new(
                MachineClass::Pc3000,
                BandwidthClass::Gbps1,
                DdsImplementation::OpenDds,
                loss,
            ),
            app: AppParams::new(3, 10),
            metric: MetricKind::ReLate2,
            best_class: (loss % 6) as usize,
            scores: vec![0.0; 6],
        })
        .collect();
    let dataset = LabeledDataset { rows };
    let config = SelectorConfig {
        train: adamant_ann::TrainParams {
            max_epochs: 5,
            ..adamant_ann::TrainParams::default()
        },
        ..SelectorConfig::default()
    };
    let (selector, _) = ProtocolSelector::train_from(&dataset, &config);
    let mut rng = CaseRng(44);
    for _ in 0..32 {
        let selection = selector.select(
            &any_environment(&mut rng),
            &any_app(&mut rng),
            any_metric(&mut rng),
        );
        assert!(class_index(selection.protocol).is_some());
        assert_eq!(selection.scores.len(), candidate_protocols().len());
        assert!(selection.scores.iter().all(|s| s.is_finite()));
    }
}
