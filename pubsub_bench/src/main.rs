//! `pubsub_bench`: the repository's benchmark. One run measures one named
//! workload in one process and prints every metric by name with its unit,
//! checks that the outputs are correct, and ends with the one-line JSON
//! result `BENCHMARK.json` describes. See the README beside this package
//! for what each metric and workload means and why it was chosen.

mod awake;
mod cores;
mod hist;
mod layers;
mod offline;
mod procfs;
mod report;
mod rt_workloads;
mod trace;

use std::process::{Command, ExitCode};

use adamant_json::Json;

use report::{Measured, Metric};
use trace::Tracer;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 42;
/// A traced run repeats the workload twice, shortened to this share of
/// `--seconds` (at most [`TRACED_MAX_S`]), and spends the rest on probes.
const TRACED_SHARE: f64 = 0.3;
const TRACED_MAX_S: f64 = 4.0;

const USAGE: &str = "usage:
  pubsub_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      one workload in this process; the last line printed is the JSON result
  pubsub_bench --all [--seed N] [--seconds S] [--quick] [--repeat K] [--out FILE]
      every workload, untraced then traced, one child process each;
      --repeat K runs K sets and checks each against the first;
      --quick runs every workload for one second and checks no bounds
  pubsub_bench compare A.json B.json
      per metric and workload, how much worse B is than A against the
      metric's bound; exit 1 when any end-to-end metric is out of bounds";

type Workload = fn(&mut Tracer, u64, f64) -> Measured;

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "echo_saturate" => rt_workloads::echo_saturate,
        "echo_paced" => rt_workloads::echo_paced,
        "nakcast_fanout" => rt_workloads::nakcast_fanout,
        "fleet_100k" => rt_workloads::fleet_100k,
        "sim_grid" => offline::sim_grid,
        "selector_fleet" => offline::selector_fleet,
        _ => return None,
    })
}

struct Args {
    workload: Option<String>,
    all: bool,
    quick: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let run_seconds = adamant_json::parse(report::BENCHMARK_JSON)
        .and_then(|doc| doc.field::<f64>("run_seconds"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut parsed = Args {
        workload: None,
        all: false,
        quick: false,
        seed: DEFAULT_SEED,
        seconds: run_seconds,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let bad = |what: &str| format!("{flag}: not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => parsed.seed = value("a number")?.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                parsed.seconds = value("a number")?.parse().map_err(|_| bad("seconds"))?;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => parsed.repeat = value("a count")?.parse().map_err(|_| bad("a count"))?,
            "--out" => parsed.out = Some(value("a file")?),
            "--all" => parsed.all = true,
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.quick {
        parsed.seconds = 1.0;
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".to_owned());
    }
    Ok(parsed)
}

/// The per-layer list in declared order: the traced run's counters, the
/// probes, and what is derived from both; a layer the workload does not
/// exercise counts 0.
fn per_layer(traced: &Measured, untraced: &Measured, probes: Vec<Metric>) -> Vec<Metric> {
    let mut produced: Vec<Metric> = traced
        .layer
        .iter()
        .cloned()
        .chain(traced.latency_percentiles())
        .chain(probes)
        .collect();
    let value = |list: &[Metric], name: &str| list.iter().find(|m| m.name == name).map(|m| m.value);
    // The CPU a message costs beyond the three costs the probes can see from
    // outside: the kernel's, coalescing's and demux's share.
    if let Some(worker_ns) = value(&produced, "rt.cpu_ns_per_msg") {
        let seen: f64 = [
            "proto.wire_encode_ns",
            "proto.wire_decode_ns",
            "proto.envhost_step_ns",
        ]
        .iter()
        .filter_map(|name| value(&produced, name))
        .sum();
        produced.push(Metric::new(
            "rt.residual_ns_per_msg",
            worker_ns - seen,
            "ns",
        ));
    }
    produced.push(Metric::new(
        "trace_overhead_ratio",
        traced.cpu_us_per_op().unwrap_or(0.0) / untraced.cpu_us_per_op().unwrap_or(f64::INFINITY),
        "ratio",
    ));
    let declared = report::declared_per_layer();
    for m in &produced {
        if !declared.iter().any(|d| d.name == m.name) {
            eprintln!(
                "note: {} is measured but not declared in BENCHMARK.json",
                m.name
            );
        }
    }
    declared
        .iter()
        .map(|d| {
            produced
                .iter()
                .find(|m| m.name == d.name)
                .cloned()
                .unwrap_or_else(|| Metric::new(d.name.clone(), 0.0, &d.unit))
        })
        .collect()
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(run) = workload(name) else {
        eprintln!(
            "unknown workload {name}; known: {}",
            report::declared_workloads().join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "pubsub_bench {name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace
    );
    println!("environment: {}", procfs::environment().to_string_compact());
    let quiet = awake::Quiet::start();
    std::thread::sleep(std::time::Duration::from_millis(20)); // let the spinner settle
    match (quiet.pinned_cpu, awake::spinner_tid()) {
        (Some(cpu), Some(_)) => println!("quieted: pinned to cpu {cpu}, kept from idling"),
        (Some(cpu), None) => println!("pinned to cpu {cpu}; SCHED_IDLE refused, the cpu may idle"),
        _ => println!("not quieted: sched_setaffinity refused"),
    }
    let (measured, metrics) = if args.trace {
        let seconds = (args.seconds * TRACED_SHARE).min(TRACED_MAX_S);
        let mut tr = Tracer::new(true);
        let traced = run(&mut tr, args.seed, seconds);
        let untraced = run(&mut Tracer::new(false), args.seed, seconds);
        let probes = layers::probe_all(&mut tr, args.seed);
        match tr.write(name) {
            Ok(path) => println!("{} spans recorded, see {}", tr.len(), path.display()),
            Err(e) => eprintln!("could not write the spans: {e}"),
        }
        let metrics = per_layer(&traced, &untraced, probes);
        (traced, metrics)
    } else {
        let measured = run(&mut Tracer::new(false), args.seed, args.seconds);
        match measured.end_to_end(args.quick) {
            Ok(metrics) => (measured, metrics),
            Err(why) => {
                eprintln!("{name}: {why}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "workers={} attempted={} failed={}",
        measured.workers, measured.attempted, measured.failed
    );
    report::print_metrics(&metrics);
    for check in &measured.violations {
        eprintln!("{name}: correctness check failed: {check}");
    }
    println!("{}", report::result_line(&measured, &metrics));
    if measured.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process and returns its parsed result line.
fn child(name: &str, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.quick.then_some("--quick"))
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{name} (trace {}) failed: {}",
            u8::from(trace),
            output.status
        ));
    }
    let last = stdout.lines().last().unwrap_or("");
    adamant_json::parse(last).map_err(|e| format!("{name}: result line: {e}"))
}

/// One set: every workload untraced, then traced.
fn run_set(args: &Args) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for name in report::declared_workloads() {
        let end_to_end = child(&name, args, false)?;
        let per_layer = child(&name, args, true)?;
        workloads.push((
            name,
            Json::Obj(vec![
                ("end_to_end".to_owned(), end_to_end),
                ("per_layer".to_owned(), per_layer),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("environment".to_owned(), procfs::environment()),
        ("seed".to_owned(), Json::Num(args.seed as f64)),
        ("seconds".to_owned(), Json::Num(args.seconds)),
        ("workloads".to_owned(), Json::Obj(workloads)),
    ]))
}

/// The most the share of failed operations may rise, as an absolute share.
const FAILED_SHARE_BOUND: f64 = 0.001;

/// Prints, per workload and end-to-end metric, how much worse `new` is than
/// `base` against the metric's bound. Returns whether all are within bounds.
fn compare(base: &Json, new: &Json) -> Result<bool, String> {
    let workloads = |set: &Json| {
        set.get("workloads")
            .cloned()
            .ok_or("not a result set: no workloads")
    };
    let (base, new) = (workloads(base)?, workloads(new)?);
    let mut within = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "base", "new", "worse", "bound"
    );
    for name in report::declared_workloads() {
        let side = |set: &Json| set.get(&name).and_then(|w| w.get("end_to_end")).cloned();
        let (Some(b), Some(n)) = (side(&base), side(&new)) else {
            return Err(format!("{name} is missing from a set"));
        };
        for declared in report::declared_end_to_end() {
            let value = |run: &Json| {
                run.get("metrics")
                    .and_then(|m| m.get(&declared.name))
                    .and_then(|m| m.field::<f64>("value").ok())
            };
            let (Some(b), Some(n)) = (value(&b), value(&n)) else {
                println!("{name:<16} {:<16} omitted by a smoke run", declared.name);
                continue;
            };
            let worse = report::worsening(&declared, b, n);
            let bound = declared.bound.unwrap_or(f64::INFINITY);
            let verdict = if worse > bound { "  OUT OF BOUNDS" } else { "" };
            within &= worse <= bound;
            println!(
                "{name:<16} {:<16} {b:>14.4} {n:>14.4} {:>+8.1}% {:>6.0}%{verdict}",
                declared.name,
                worse * 100.0,
                bound * 100.0
            );
        }
        let failed_share = |run: &Json| {
            let field = |key: &str| run.field::<f64>(key).unwrap_or(0.0);
            field("failed") / field("attempted").max(1.0)
        };
        let rise = failed_share(&n) - failed_share(&b);
        if rise > FAILED_SHARE_BOUND {
            within = false;
            println!("{name:<16} failed share rose by {rise:.5}  OUT OF BOUNDS");
        }
    }
    Ok(within)
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut sets = Vec::new();
    for index in 0..args.repeat.max(1) {
        let set = run_set(args)?;
        if let Some(out) = &args.out {
            let path = if args.repeat > 1 {
                format!("{out}.{index}")
            } else {
                out.clone()
            };
            std::fs::write(&path, set.to_string_pretty()).map_err(|e| format!("{path}: {e}"))?;
            println!("set {index} written to {path}");
        }
        sets.push(set);
    }
    let mut within = true;
    for (index, set) in sets.iter().enumerate().skip(1) {
        println!("set {index} against set 0:");
        within &= compare(&sets[0], set)? || args.quick;
    }
    Ok(within)
}

fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    adamant_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            read_set(&args[1]).and_then(|a| compare(&a, &read_set(&args[2])?))
        }
        _ => match parse_args(&args) {
            Ok(parsed) => match &parsed.workload {
                Some(name) => return run_one(name, &parsed),
                None => run_all(&parsed),
            },
            Err(why) => {
                eprintln!("{why}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}
