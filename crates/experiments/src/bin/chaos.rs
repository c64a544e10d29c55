//! Chaos harness: scripted fault scenarios against a self-healing session,
//! reporting the QoS trajectory and the time to recover.
//!
//! ```text
//! chaos [scenario] [seed] [--trace]
//!        scenario ∈ loss-spike | bandwidth-drop | cpu-contention
//!                  | reader-crash-recovery | all
//!        (default: all, seed 77)
//! ```
//!
//! The scenarios themselves live in [`adamant_experiments::chaos`]; this
//! binary renders the per-window QoS trajectory, the alarm/switch history,
//! and the time-to-recover summary. With `--trace` each run additionally
//! captures a structured observability trace, replays it through the
//! runtime-verification checker (crash hygiene, at-most-once delivery, the
//! NAKcast recovery-latency schedule, ReLate2 trace/report consistency),
//! folds it into a per-protocol × node metrics registry, and writes a
//! `chaos_<scenario>.json` report artifact. Any invariant violation makes
//! the process exit non-zero — this is the CI entry point for trace-driven
//! verification.
//!
//! `reader-crash-recovery` is the durable-delivery scenario: a
//! TransientLocal reader crashes mid-stream, restarts as a new incarnation,
//! and must provably recover every retained sample exactly once within the
//! catch-up schedule bound; a paired Volatile run must provably *fail* to
//! (the checker flags the crash-window gap).

use adamant::HealingOutcome;
use adamant_experiments::artifacts;
use adamant_experiments::chaos::{self, ChaosScenario, FAULT_AT, SAMPLES, SCENARIOS};
use adamant_json::{Json, ToJson};
use adamant_metrics::{registry_from_trace, verify_trace, InvariantKind};
use adamant_proto::DurabilityMode;

/// CLI name of the durable crash-restart scenario (it runs on raw durable
/// cores rather than a self-healing session, so it is dispatched apart
/// from [`SCENARIOS`]).
const DURABLE_SCENARIO: &str = "reader-crash-recovery";

fn run_scenario(
    scenario: &ChaosScenario,
    policy: &adamant::AdaptivePolicy,
    seed: u64,
    trace_mode: bool,
) -> bool {
    let outcome = chaos::run_chaos(scenario, policy, seed, trace_mode);

    println!("== {} (seed {seed}) ==", scenario.name);
    println!("   {}", scenario.description);
    println!(
        "   fault at {:.1}s into a {SAMPLES}-sample 100 Hz stream",
        FAULT_AT.as_secs_f64()
    );
    print_windows(&outcome);
    print_summary(&outcome);
    let ok = if trace_mode {
        verify_and_save(scenario, seed, &outcome)
    } else {
        true
    };
    println!();
    ok
}

/// Replays the captured trace against the invariants, folds it into the
/// metrics registry, and persists both as the scenario's report artifact.
/// Returns whether the trace was clean and the artifact written.
fn verify_and_save(scenario: &ChaosScenario, seed: u64, outcome: &HealingOutcome) -> bool {
    let spec = chaos::chaos_verify_spec(outcome);
    let verify = verify_trace(&outcome.trace, &spec);
    let registry = registry_from_trace(scenario.name, &outcome.trace);
    println!(
        "   trace: {} events, {} accepted ({} recovered), recomputed ReLate2 {:.1}",
        verify.events, verify.accepted, verify.recovered, verify.recomputed_relate2
    );
    let mut ok = true;
    if verify.is_clean() {
        println!("   invariants: all clean");
    } else {
        for v in &verify.violations {
            eprintln!(
                "   VIOLATION [{}] t={}ns: {}",
                v.invariant, v.time_ns, v.detail
            );
        }
        ok = false;
    }
    let artifact = Json::Obj(vec![
        ("scenario".to_owned(), Json::Str(scenario.name.to_owned())),
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("verify".to_owned(), verify.to_json()),
        ("registry".to_owned(), registry.to_json()),
    ]);
    match artifacts::save(&format!("chaos_{}.json", scenario.name), &artifact) {
        Ok(path) => println!("   report artifact: {}", path.display()),
        Err(e) => {
            eprintln!("   failed to write report artifact: {e}");
            ok = false;
        }
    }
    ok
}

/// Runs the durable crash-restart scenario: the TransientLocal run must
/// recover everything, the Volatile control run must not. With `--trace`
/// both traces are replayed through the invariant checker and persisted as
/// one report artifact.
fn run_durable_scenario(seed: u64, trace_mode: bool) -> bool {
    println!("== {DURABLE_SCENARIO} (seed {seed}) ==");
    println!(
        "   durable reader crashes at {:.1}s and restarts at {:.1}s into a \
         {}-sample 100 Hz stream ({:.0}% end-host loss)",
        chaos::CRASH_AT.as_secs_f64(),
        chaos::RESTART_AT.as_secs_f64(),
        chaos::DURABLE_SAMPLES,
        chaos::DURABLE_LOSS * 100.0
    );
    let tl = chaos::run_reader_crash_recovery(DurabilityMode::TransientLocal, seed);
    let vol = chaos::run_reader_crash_recovery(DurabilityMode::Volatile, seed);

    println!(
        "   transient-local: victim delivered {}/{} ({} via catch-up, {} writer \
         replays, {} duplicates suppressed)",
        tl.victim_delivered,
        chaos::DURABLE_SAMPLES,
        tl.victim_recovered,
        tl.replayed,
        tl.duplicates_suppressed
    );
    match tl.caught_up_at {
        Some(at) => println!(
            "   transient-local: caught up {:.0} ms after the restart",
            (at - chaos::RESTART_AT).as_secs_f64() * 1e3
        ),
        None => println!("   transient-local: NEVER completed catch-up"),
    }
    println!(
        "   volatile control: victim delivered {}/{} (crash window stays lost)",
        vol.victim_delivered,
        chaos::DURABLE_SAMPLES
    );

    let mut ok = tl.caught_up_at.is_some() && tl.victim_delivered == chaos::DURABLE_SAMPLES;
    if trace_mode {
        let tl_verify = verify_trace(
            &tl.trace,
            &chaos::durable_verify_spec(DurabilityMode::TransientLocal),
        );
        let vol_verify = verify_trace(
            &vol.trace,
            &chaos::durable_verify_spec(DurabilityMode::Volatile),
        );
        let registry = registry_from_trace(DURABLE_SCENARIO, &tl.trace);
        println!(
            "   trace: {} events, {} accepted ({} recovered)",
            tl_verify.events, tl_verify.accepted, tl_verify.recovered
        );
        if tl_verify.is_clean() {
            println!("   invariants: transient-local recovery proven clean");
        } else {
            for v in &tl_verify.violations {
                eprintln!(
                    "   VIOLATION [{}] t={}ns: {}",
                    v.invariant, v.time_ns, v.detail
                );
            }
            ok = false;
        }
        let vol_gaps = vol_verify.violations_of(InvariantKind::NoGapAfterCatchUp);
        if vol_gaps > 0 {
            println!("   invariants: volatile control flagged as expected (gap detected)");
        } else {
            eprintln!("   UNEXPECTED: volatile control run shows no delivery gap");
            ok = false;
        }
        let artifact = Json::Obj(vec![
            (
                "scenario".to_owned(),
                Json::Str(DURABLE_SCENARIO.to_owned()),
            ),
            ("seed".to_owned(), Json::Num(seed as f64)),
            ("transient_local".to_owned(), tl_verify.to_json()),
            ("volatile".to_owned(), vol_verify.to_json()),
            ("volatile_gap_detected".to_owned(), Json::Bool(vol_gaps > 0)),
            ("registry".to_owned(), registry.to_json()),
        ]);
        match artifacts::save(&format!("chaos_{DURABLE_SCENARIO}.json"), &artifact) {
            Ok(path) => println!("   report artifact: {}", path.display()),
            Err(e) => {
                eprintln!("   failed to write report artifact: {e}");
                ok = false;
            }
        }
    }
    println!();
    ok
}

fn print_windows(outcome: &HealingOutcome) {
    let relate2 = outcome.window_relate2();
    println!("   win    pub    dlv    rel     lat(us)   ReLate2");
    for (i, w) in outcome.windows.iter().enumerate() {
        if w.published == 0 {
            continue;
        }
        let mut marks = String::new();
        if w.start <= FAULT_AT && FAULT_AT < w.start + w.length {
            marks.push_str("  <- fault");
        }
        for s in &outcome.switches {
            if w.start <= s.at && s.at < w.start + w.length {
                marks.push_str("  <- switch");
            }
        }
        println!(
            "   {i:>3} {:>6} {:>6}   {:.3} {:>10.0} {:>9.0}{marks}",
            w.published,
            w.delivered,
            w.reliability(),
            w.avg_latency_us,
            relate2[i],
        );
    }
}

fn print_summary(outcome: &HealingOutcome) {
    println!(
        "   alarms: {}   switches: {}   suppressed by backoff: {}",
        outcome.alarms,
        outcome.switches.len(),
        outcome.suppressed_switches
    );
    for s in &outcome.switches {
        println!(
            "   switch @ {:.2}s: {} -> {} ({:?}, probed {})",
            s.at.as_secs_f64(),
            s.from,
            s.to,
            s.source,
            s.probed
        );
    }
    let baseline = outcome.mean_relate2(1..3);
    match outcome.time_to_recover(FAULT_AT, baseline, 1.2) {
        Some(ttr) if ttr.is_zero() => {
            println!("   QoS never left 1.2x the pre-fault baseline (ReLate2 {baseline:.0})")
        }
        Some(ttr) => println!(
            "   time to recover QoS: {:.1}s (back within 1.2x baseline ReLate2 {baseline:.0})",
            ttr.as_secs_f64()
        ),
        None => println!(
            "   QoS did not settle back within 1.2x baseline ReLate2 {baseline:.0} before the stream ended"
        ),
    }
    println!(
        "   whole-run: reliability {:.4}, avg latency {:.0}us, protocol {} -> {}",
        outcome.report.reliability(),
        outcome.report.avg_latency_us,
        outcome.initial_protocol,
        outcome.final_protocol
    );
}

/// Prints `problem` and the scenario list to stderr, then exits 1.
fn usage_error(problem: &str) -> ! {
    eprintln!("{problem}; usage: chaos [scenario] [seed] [--trace], scenario one of:");
    for s in &SCENARIOS {
        eprintln!("  {:<24} {}", s.name, s.description);
    }
    eprintln!(
        "  {:<24} durable reader crash/restart with provable catch-up",
        DURABLE_SCENARIO
    );
    eprintln!("  {:<24} every scenario in sequence", "all");
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_mode = args.iter().any(|a| a == "--trace");
    args.retain(|a| a != "--trace");
    let which = args.first().cloned().unwrap_or_else(|| "all".to_owned());
    if which != "all" && which != DURABLE_SCENARIO && chaos::scenario(&which).is_none() {
        usage_error(&format!("unknown scenario `{which}`"));
    }
    let seed: u64 = match args.get(1) {
        None => 77,
        Some(arg) => arg
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("seed `{arg}` is not an unsigned integer"))),
    };

    let mut clean = true;
    if which == "all" || chaos::scenario(&which).is_some() {
        let policy = chaos::build_policy();
        for scenario in SCENARIOS
            .iter()
            .filter(|s| which == "all" || s.name == which)
        {
            clean &= run_scenario(scenario, &policy, seed, trace_mode);
        }
    }
    if which == "all" || which == DURABLE_SCENARIO {
        clean &= run_durable_scenario(seed, trace_mode);
    }
    if !clean {
        std::process::exit(1);
    }
}
