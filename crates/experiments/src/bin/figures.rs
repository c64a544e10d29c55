//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [all|tables|protocol|ann|dataset|shapes]
//! ```
//!
//! * `dataset`  — (re)build the 394-input training set artifact.
//! * `tables`   — print Tables 1 and 2.
//! * `protocol` — regenerate Figures 4–17 (protocol QoS).
//! * `ann`      — regenerate Figures 18–21 (needs the dataset artifact).
//! * `shapes`   — re-check the paper's qualitative claims on saved figures.
//! * `all`      — everything, in order.
//!
//! Artifacts land in `$ADAMANT_ARTIFACTS` (default `./artifacts`). A
//! `--quick` run saves and loads its own under `quick/` there, so a
//! checking run never replaces the full-scale dataset and figures that
//! `shapes`, `report`, `train` and `adamant_cli` read.

use adamant::{LabeledDataset, ProtocolSelector, SelectorConfig};
use adamant_ann::TrainParams;
use adamant_experiments::ann_study::{fig18, fig19, timing_figures, timing_study};
use adamant_experiments::artifacts;
use adamant_experiments::dataset_gen;
use adamant_experiments::figures::{
    check_shapes, extended_metric_figures, fifteen_receiver_figures, table1, table2,
    three_receiver_figures, FigureData, FigureScale,
};

const DATASET_ARTIFACT: &str = "dataset.json";
const FIGURES_ARTIFACT: &str = "figures.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if quick {
        std::env::set_var(
            "ADAMANT_ARTIFACTS",
            artifacts::artifacts_dir().join("quick"),
        );
    }
    let scale = if quick {
        FigureScale::quick()
    } else {
        FigureScale::full()
    };
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    match command {
        "dataset" => build_dataset(quick),
        "tables" => print_tables(),
        "protocol" => protocol_figures(scale),
        "ann" => ann_figures(scale, quick),
        "shapes" => recheck_shapes(),
        "extended" => extended_figures(scale),
        "all" => {
            print_tables();
            protocol_figures(scale);
            build_dataset(quick);
            ann_figures(scale, quick);
            recheck_shapes();
        }
        other => {
            eprintln!("unknown command `{other}`");
            eprintln!("usage: figures [--quick] [all|tables|protocol|ann|dataset|shapes|extended]");
            std::process::exit(2);
        }
    }
}

fn print_tables() {
    println!("{}", table1());
    println!("{}", table2());
}

fn build_dataset(quick: bool) {
    println!(
        "building labelled dataset ({} configurations × 2 metrics)...",
        dataset_gen::CONFIGS_PER_METRIC
    );
    let started = std::time::Instant::now();
    let (samples, reps) = if quick {
        (400, 2)
    } else {
        (dataset_gen::LABEL_SAMPLES, dataset_gen::REPETITIONS)
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut last_printed = 0usize;
    let dataset = dataset_gen::generate(
        samples,
        reps,
        threads,
        adamant_transport::Tuning::default(),
        &mut |done, total| {
            if done >= last_printed + 20 || done == total {
                println!(
                    "  {done}/{total} configurations ({:.0?})",
                    started.elapsed()
                );
                last_printed = done;
            }
        },
    );
    let hist = dataset.class_histogram();
    println!(
        "dataset: {} rows; winners per class: {hist:?}",
        dataset.len()
    );
    for (i, kind) in adamant::features::candidate_protocols().iter().enumerate() {
        println!("  class {i}: {:<18} won {} times", kind.label(), hist[i]);
    }
    let path = artifacts::save(DATASET_ARTIFACT, &dataset).expect("save dataset");
    println!("saved {}", path.display());
}

fn load_dataset() -> LabeledDataset {
    artifacts::load(DATASET_ARTIFACT).unwrap_or_else(|e| {
        eprintln!("cannot load dataset artifact ({e}); run `figures dataset` first");
        std::process::exit(1);
    })
}

fn protocol_figures(scale: FigureScale) {
    let mut figures: Vec<FigureData> = Vec::new();
    println!(
        "regenerating protocol figures ({} samples × {} repetitions per cell)...",
        scale.samples, scale.repetitions
    );
    for fast in [true, false] {
        let started = std::time::Instant::now();
        figures.extend(three_receiver_figures(fast, scale));
        figures.extend(fifteen_receiver_figures(fast, scale));
        println!(
            "  {} environment done in {:.0?}",
            if fast { "fast" } else { "slow" },
            started.elapsed()
        );
    }
    figures.sort_by_key(|f| {
        f.id.trim_start_matches("fig")
            .parse::<u32>()
            .unwrap_or(u32::MAX)
    });
    for fig in &figures {
        println!("{}", fig.render());
    }
    // Merge with any previously saved figures (e.g. ANN ones).
    let mut all: Vec<FigureData> = artifacts::load(FIGURES_ARTIFACT).unwrap_or_default();
    all.retain(|f| !figures.iter().any(|g| g.id == f.id));
    all.extend(figures);
    let path = artifacts::save(FIGURES_ARTIFACT, &all).expect("save figures");
    println!("saved {}", path.display());
    report_checks(&all);
}

fn ann_figures(scale: FigureScale, quick: bool) {
    let dataset = load_dataset();
    println!(
        "dataset: {} rows; class histogram {:?}",
        dataset.len(),
        dataset.class_histogram()
    );
    let started = std::time::Instant::now();
    let f18 = fig18(&dataset, scale);
    println!("{}", f18.render());
    println!("  (fig18 in {:.0?})", started.elapsed());
    let started = std::time::Instant::now();
    let f19 = fig19(&dataset, scale);
    println!("{}", f19.render());
    println!("  (fig19 in {:.0?})", started.elapsed());

    // Train the selector the paper timed: the best-recalling network.
    let config = SelectorConfig {
        hidden_nodes: 24,
        train: TrainParams {
            stopping_mse: 1e-4,
            max_epochs: if quick { 300 } else { 2_000 },
        },
        seed: 7,
    };
    let (selector, outcome) = ProtocolSelector::train_from(&dataset, &config);
    println!(
        "timing network: 7-24-6, trained {} epochs to MSE {:.6}",
        outcome.epochs, outcome.final_mse
    );
    let study = timing_study(&dataset, selector.network(), scale);
    let (f20, f21) = timing_figures(&study);
    println!("{}", f20.render());
    println!("{}", f21.render());

    let mut all: Vec<FigureData> = artifacts::load(FIGURES_ARTIFACT).unwrap_or_default();
    for fig in [f18, f19, f20, f21] {
        all.retain(|f| f.id != fig.id);
        all.push(fig);
    }
    let path = artifacts::save(FIGURES_ARTIFACT, &all).expect("save figures");
    println!("saved {}", path.display());
}

fn extended_figures(scale: FigureScale) {
    println!("regenerating extended composite-metric figures...");
    let figures = extended_metric_figures(scale);
    for fig in &figures {
        println!("{}", fig.render());
    }
    let mut all: Vec<FigureData> = artifacts::load(FIGURES_ARTIFACT).unwrap_or_default();
    for fig in figures {
        all.retain(|f| f.id != fig.id);
        all.push(fig);
    }
    let path = artifacts::save(FIGURES_ARTIFACT, &all).expect("save figures");
    println!("saved {}", path.display());
}

fn recheck_shapes() {
    let all: Vec<FigureData> = match artifacts::load(FIGURES_ARTIFACT) {
        Ok(figs) => figs,
        Err(e) => {
            eprintln!("no saved figures ({e})");
            return;
        }
    };
    report_checks(&all);
}

fn report_checks(figures: &[FigureData]) {
    println!("\nshape checks against the paper:");
    let mut failures = 0;
    for (claim, ok) in check_shapes(figures) {
        println!("  [{}] {claim}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        println!("  → {failures} shape check(s) failed");
    }
}
