//! The two workloads that touch no socket: the simulator grid behind the
//! dataset and figures, and the trained selector answering fleet sweeps.
//! Both are single-threaded loops of whole operations, timed one by one.

use std::time::Instant;

use adamant::features::{candidate_protocols, is_feasible};
use adamant::{
    AppParams, Choice, Environment, FeatureRow, ProtocolSelector, Scenario, SelectorConfig,
};
use adamant_ann::TrainParams;
use adamant_metrics::MetricKind;
use adamant_proto::{fingerprint_debug, DetRng};
use adamant_transport::{ProtocolKind, TransportConfig};

use crate::hist::Windows;
use crate::procfs;
use crate::report::{steady, Measured, WINDOWS};
use crate::trace::Tracer;

/// Samples each simulated cell publishes. Fixed: it sets the size of one
/// operation of `sim_grid`, so changing it changes what every `sim_grid`
/// number means. 100 samples keep a cell near a millisecond, which gives the
/// latency percentiles thousands of cells to stand on.
pub const SIM_SAMPLES: u64 = 100;
/// Cells per stratum of the cell list (8 protocols x {3, 15} receivers).
const CELLS_PER_STRATUM: usize = 6;

/// Runs `op` back to back for `seconds`, timing each call; `op` returns
/// the operations it completed. The run is cut into the same windows as the
/// socket workloads', with the same two warm-up windows and last window cut.
fn timed_loop(seconds: f64, ops_per_call: u64, m: &mut Measured, mut op: impl FnMut(usize)) {
    let windows = Windows::new(WINDOWS);
    let window_ns = (seconds * 1e9 / WINDOWS as f64).max(1.0);
    let cpu = procfs::cpu_seconds();
    let mut cpu_marks = vec![procfs::task_cpu_ns()];
    let start = Instant::now();
    let mut last = 0.0;
    let mut calls = 0;
    while last < seconds * 1e9 {
        op(calls);
        calls += 1;
        let now = start.elapsed().as_nanos() as f64;
        let window = (now / window_ns) as usize;
        windows.record(window, (now - last) as u64);
        while cpu_marks.len() <= window.min(WINDOWS) {
            cpu_marks.push(procfs::task_cpu_ns());
        }
        last = now;
    }
    let after = procfs::cpu_seconds();
    m.ops = calls as u64 * ops_per_call;
    m.span_s = last / 1e9;
    m.cpu_s = (after.0 - cpu.0, after.1 - cpu.1);
    m.windows = steady().map(|w| windows.snapshot(w)).collect();
    m.cpu_ns = steady().map(|w| cpu_marks[w + 1] - cpu_marks[w]).collect();
    m.loss_percent = vec![0.0; m.windows.len()];
    m.window_s = window_ns / 1e9;
    m.ops_per_sample = ops_per_call;
    m.workers = 1;
}

#[derive(Clone, Copy)]
pub struct Cell {
    env: Environment,
    app: AppParams,
    protocol: ProtocolKind,
    seed: u64,
}

impl Cell {
    pub fn new(env: Environment, app: AppParams, protocol: ProtocolKind, seed: u64) -> Self {
        Cell {
            env,
            app,
            protocol,
            seed,
        }
    }

    pub fn run(&self) -> adamant_metrics::QosReport {
        Scenario::paper(self.env, self.app, self.seed)
            .with_samples(SIM_SAMPLES)
            .run(TransportConfig::new(self.protocol))
    }
}

/// The seed-drawn cell list: the same number of cells from every (protocol,
/// receiver count) stratum of `dataset_grid_v2() x candidate_protocols()`,
/// because those two set a cell's cost; the seed picks which environments
/// and rates fill each stratum, and the order they run in.
pub fn cell_list(seed: u64) -> Vec<Cell> {
    let grid = adamant_experiments::dataset_gen::dataset_grid_v2();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut cells = Vec::new();
    for protocol in candidate_protocols() {
        for receivers in [3u32, 15] {
            let stratum: Vec<&(Environment, AppParams)> = grid
                .iter()
                .filter(|(env, app)| app.receivers == receivers && is_feasible(protocol, env))
                .collect();
            for pick in rng.sample_indices(stratum.len(), CELLS_PER_STRATUM) {
                let (env, app) = *stratum[pick];
                cells.push(Cell::new(env, app, protocol, rng.next_u64()));
            }
        }
    }
    rng.shuffle(&mut cells);
    cells
}

/// Single thread, no sockets: simulates the cell list round and round.
pub fn sim_grid(tr: &mut Tracer, seed: u64, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let mut cells = Vec::new();
    let mut digests = Vec::new();
    // Set-up draws the cell list and runs it once, keeping each report's
    // digest; the measured loop's first pass must reproduce them. (A few
    // cells would be cheaper, but which few the seed put first would then
    // set the set-up time.)
    for _ in 0..3 {
        let open = tr.begin("setup");
        let start = Instant::now();
        cells = tr.span("cell_list", || cell_list(seed));
        digests = cells
            .iter()
            .map(|cell| fingerprint_debug(&tr.span("Scenario::run", || cell.run())))
            .collect();
        m.setup_s.push(start.elapsed().as_secs_f64());
        tr.end(open);
    }
    let mut mismatched = 0;
    let mut non_finite = 0;
    timed_loop(seconds, 1, &mut m, |call| {
        let index = call % cells.len();
        let report = tr.span("Scenario::run", || cells[index].run());
        let scores_finite = MetricKind::all()
            .iter()
            .all(|metric| metric.score(&report).is_finite());
        non_finite += u64::from(!scores_finite);
        if call < cells.len() {
            mismatched += u64::from(fingerprint_debug(&report) != digests[index]);
        }
    });
    m.attempted = m.ops;
    m.failed = mismatched + non_finite;
    m.check("sim_grid digest equal on re-run", mismatched == 0);
    m.check("every composite score is finite", non_finite == 0);
    m
}

pub fn train_selector() -> ProtocolSelector {
    let config = SelectorConfig {
        train: TrainParams {
            max_epochs: 200,
            ..TrainParams::default()
        },
        ..SelectorConfig::default()
    };
    ProtocolSelector::train_from(&adamant_bench::synthetic_dataset(), &config).0
}

/// A fleet's worth of seed-drawn queries: environments of the training set
/// under application parameters across (and beyond) Table 2.
pub fn query_mix(seed: u64, rows: usize) -> Vec<FeatureRow> {
    let dataset = adamant_bench::synthetic_dataset();
    let mut rng = DetRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            let env = dataset.rows[rng.next_below(dataset.rows.len() as u64) as usize].env;
            let app = AppParams::new(
                rng.range_inclusive(1, 25) as u32,
                rng.range_inclusive(10, 100) as u32,
            );
            let metric = MetricKind::paper_metrics()[rng.next_below(2) as usize];
            FeatureRow::new(env, app, metric)
        })
        .collect()
}

/// Single thread: trains the selector (that is the set-up), then answers
/// 1024-row `select_batch` sweeps.
pub fn selector_fleet(tr: &mut Tracer, seed: u64, seconds: f64) -> Measured {
    const ROWS: usize = 1024;
    let mut m = Measured::default();
    let mut selector = None;
    for _ in 0..9 {
        let start = Instant::now();
        selector = Some(tr.span("train_from", train_selector));
        m.setup_s.push(start.elapsed().as_secs_f64());
    }
    let selector = selector.expect("trained");
    let queries = query_mix(seed, ROWS);
    let mut out = vec![Choice::default(); ROWS];
    timed_loop(seconds, ROWS as u64, &mut m, |_| {
        tr.span("select_batch", || selector.select_batch(&queries, &mut out));
    });
    let disagree = queries
        .iter()
        .zip(&out)
        .filter(|(q, batched)| {
            selector.select(&q.env, &q.app, q.metric).protocol != batched.protocol
        })
        .count() as u64;
    m.attempted = m.ops;
    m.failed = disagree;
    m.check("batched == scalar selections", disagree == 0);
    m
}
