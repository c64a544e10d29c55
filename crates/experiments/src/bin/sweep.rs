//! Full-grid winner map: labels the complete Table 1 × Table 2 space the
//! way the training data is labelled (`dataset_gen::generate_over`:
//! infeasible candidates masked, winners by margin) and prints which
//! candidate wins each configuration under each paper metric, for two
//! choice spaces:
//!
//! * the **deployed set**, the eight candidates the selector chooses
//!   between, labelled exactly as the dataset rows are;
//! * the **paper set**, the six NAKcast/Ricochet settings of §4.2,
//!   labelled from the first six entries of the same score vectors.
//!
//! For each set it counts the pc850 ↔ pc3000 pairs whose winner changes —
//! the paper's claim that configuration must follow the provisioned
//! hardware — and saves the counts to `artifacts/sweep.json`.
//!
//! ```text
//! sweep [samples] [reps]   (defaults: 1500, 3)
//! ```

use adamant::features::candidate_protocols;
use adamant::{best_class_with_margin, DatasetRow, Environment, LABEL_MARGIN};
use adamant_experiments::artifacts;
use adamant_experiments::dataset_gen::{full_grid, generate_over};
use adamant_json::Json;
use adamant_metrics::MetricKind;
use adamant_netsim::MachineClass;
use adamant_transport::{ProtocolKind, Tuning};

fn main() {
    let samples: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_500);
    let reps: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let grid = full_grid();
    let candidates = candidate_protocols();
    println!(
        "sweeping {} configurations × {} candidates × {reps} repetitions of {samples} samples",
        grid.len(),
        candidates.len(),
    );
    let dataset = generate_over(
        &grid,
        samples,
        reps,
        threads,
        Tuning::default(),
        &mut |done, total| {
            if done % 40 == 0 && done < total {
                eprintln!("  {done}/{total}");
            }
        },
    );

    let deployed: Vec<usize> = dataset.rows.iter().map(|row| row.best_class).collect();
    let paper: Vec<usize> = dataset
        .rows
        .iter()
        .map(|row| best_class_with_margin(&row.scores[..6], LABEL_MARGIN))
        .collect();
    let mut doc = vec![
        ("samples".to_owned(), Json::Num(samples as f64)),
        ("repetitions".to_owned(), Json::Num(f64::from(reps))),
        ("configurations".to_owned(), Json::Num(grid.len() as f64)),
    ];
    for (name, title, set, labels) in [
        (
            "deployed",
            "deployed set (8 candidates, ShmCast only on one host)",
            &candidates[..],
            &deployed,
        ),
        (
            "paper",
            "paper set (6 candidates, §4.2)",
            &candidates[..6],
            &paper,
        ),
    ] {
        let map = WinnerMap::count(&dataset.rows, set.len(), labels);
        println!("\n{title}:\n");
        map.print(set);
        doc.push((name.to_owned(), map.to_json(set)));
    }
    match artifacts::save("sweep.json", &Json::Obj(doc)) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not save the winner map: {e}"),
    }
}

/// One choice space's outcome over the grid.
struct WinnerMap {
    /// `wins[m][c]`: configurations candidate `c` wins under the `m`-th
    /// paper metric.
    wins: Vec<Vec<usize>>,
    /// pc850 rows whose pc3000 twin has another winner.
    flips: usize,
    /// pc850 rows with a pc3000 twin.
    pairs: usize,
}

impl WinnerMap {
    /// Counts winners and hardware flips; `labels[i]` is `rows[i]`'s winner
    /// among `classes` candidates.
    fn count(rows: &[DatasetRow], classes: usize, labels: &[usize]) -> WinnerMap {
        let metrics = MetricKind::paper_metrics();
        let mut map = WinnerMap {
            wins: vec![vec![0; classes]; metrics.len()],
            flips: 0,
            pairs: 0,
        };
        for (row, &label) in rows.iter().zip(labels) {
            let m = metrics.iter().position(|&k| k == row.metric);
            map.wins[m.expect("a paper metric")][label] += 1;
            if row.env.machine != MachineClass::Pc850 {
                continue;
            }
            let twin_env = Environment {
                machine: MachineClass::Pc3000,
                ..row.env
            };
            let twin = rows
                .iter()
                .position(|r| r.env == twin_env && r.app == row.app && r.metric == row.metric);
            if let Some(twin) = twin {
                map.pairs += 1;
                map.flips += usize::from(labels[twin] != label);
            }
        }
        map
    }

    /// Prints the markdown winner table (candidates that win somewhere)
    /// and the flip count.
    fn print(&self, set: &[ProtocolKind]) {
        let shown: Vec<usize> = (0..set.len())
            .filter(|&c| self.wins.iter().any(|row| row[c] > 0))
            .collect();
        let header: Vec<String> = shown.iter().map(|&c| set[c].to_string()).collect();
        println!("| metric | {} |", header.join(" | "));
        println!("|---|{}", "---|".repeat(shown.len()));
        for (metric, row) in MetricKind::paper_metrics().iter().zip(&self.wins) {
            let counts: Vec<String> = shown.iter().map(|&c| row[c].to_string()).collect();
            println!("| {metric} | {} |", counts.join(" | "));
        }
        println!(
            "\nchanging only the machine class (pc850 ↔ pc3000) flips the winner in {}/{} \
             configuration pairs",
            self.flips, self.pairs
        );
    }

    fn to_json(&self, set: &[ProtocolKind]) -> Json {
        let wins = MetricKind::paper_metrics()
            .iter()
            .zip(&self.wins)
            .map(|(metric, row)| {
                let counts = set
                    .iter()
                    .zip(row)
                    .map(|(kind, &n)| (kind.label(), Json::Num(n as f64)))
                    .collect();
                (metric.to_string(), Json::Obj(counts))
            })
            .collect();
        Json::Obj(vec![
            ("winners".to_owned(), Json::Obj(wins)),
            ("flips".to_owned(), Json::Num(self.flips as f64)),
            ("pairs".to_owned(), Json::Num(self.pairs as f64)),
        ])
    }
}
