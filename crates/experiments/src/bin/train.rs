//! Trains the production selector on the dataset artifact and saves it.
//!
//! ```text
//! train [hidden_nodes] [max_epochs]
//! ```
//!
//! Loads `artifacts/dataset.json` (build it with `figures dataset`), trains
//! a `7-H-6` network to the paper's stopping error, reports training recall
//! and per-machine projected query times, and writes
//! `artifacts/selector.json` for reuse.

use adamant::{LabeledDataset, ProtocolSelector, QueryCostModel, SelectorConfig};
use adamant_ann::TrainParams;
use adamant_experiments::artifacts;
use adamant_netsim::MachineClass;

fn main() {
    let hidden: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    let max_epochs: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);

    let dataset: LabeledDataset = artifacts::load("dataset.json").unwrap_or_else(|e| {
        eprintln!("cannot load dataset artifact ({e}); run `figures dataset` first");
        std::process::exit(1);
    });
    println!(
        "training 7-{hidden}-6 on {} rows (histogram {:?})...",
        dataset.len(),
        dataset.class_histogram()
    );

    let config = SelectorConfig {
        hidden_nodes: hidden,
        train: TrainParams {
            stopping_mse: 1e-4,
            max_epochs,
        },
        seed: 7,
    };
    let started = std::time::Instant::now();
    let (selector, outcome) = ProtocolSelector::train_from(&dataset, &config);
    let eval = selector.evaluate_on(&dataset);
    println!(
        "trained in {:.1?}: {} epochs, MSE {:.6} (target reached: {}), recall {:.2}%",
        started.elapsed(),
        outcome.epochs,
        outcome.final_mse,
        outcome.reached_target,
        eval.accuracy() * 100.0
    );

    let model = QueryCostModel::default();
    for machine in MachineClass::all() {
        println!(
            "projected query time on {machine}: {:.2} µs",
            model.projected_micros(selector.network(), machine)
        );
    }

    let path = artifacts::save("selector.json", &selector).expect("save selector");
    println!("saved {}", path.display());
}
