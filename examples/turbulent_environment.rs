//! Turbulent environment: the adaptation loop under a changing cloud.
//!
//! The paper's lessons-learned section motivates re-using ADAMANT's fast,
//! predictable configuration for *runtime* adaptation in turbulent
//! environments. This example runs one live stream through
//! [`AdaptivePolicy::run_stream`] while the cloud changes under it twice:
//!
//! - a loss blip shorter than the monitor's `consecutive_windows` windows,
//!   which the loop must ride out without an alarm, and
//! - a sustained loss rise, which must raise an alarm and switch transport.
//!
//! ```text
//! cargo run --release --example turbulent_environment
//! ```

use adamant::prelude::*;
use adamant_experiments::chaos::build_policy;
use adamant_metrics::WindowQos;
use adamant_netsim::{FaultPlan, LossModel, NetworkConfig};

const BLIP: (SimTime, SimTime) = (SimTime::from_millis(3_000), SimTime::from_millis(3_600));
const SUSTAINED: SimTime = SimTime::from_secs(8);

fn main() {
    // The NAK-timeout knowledge base of the chaos scenarios: calm links
    // (≤ 3 % loss) prefer the lazy 50 ms timeout, lossy ones the 1 ms one.
    // The monitor alarms after two consecutive bad windows.
    let policy = build_policy();
    let env = Environment::new(
        MachineClass::Pc3000,
        BandwidthClass::Gbps1,
        DdsImplementation::OpenSplice,
        2,
    );
    let calm = env.network_config();
    let stormy = NetworkConfig {
        loss: LossModel::Bernoulli(0.08),
        ..calm
    };
    let plan = FaultPlan::new()
        .set_network_at(BLIP.0, stormy)
        .set_network_at(BLIP.1, calm)
        .set_network_at(SUSTAINED, stormy);
    let stream = StreamConfig::new(env, AppParams::new(2, 100), 1_400, 31);
    let initial = TransportConfig::new(ProtocolKind::Nakcast {
        timeout: SimDuration::from_millis(50),
    });
    println!(
        "8 % loss on every link for {:.1} s at {:.1} s, then for good at {:.1} s\n",
        (BLIP.1 - BLIP.0).as_secs_f64(),
        BLIP.0.as_secs_f64(),
        SUSTAINED.as_secs_f64(),
    );
    let outcome = policy.run_stream(&stream, initial, plan);

    println!(
        "{:>4} {:>6} {:>6} {:>7} {:>10} {:>10}",
        "win", "pub", "dlv", "rel", "lat(us)", "ReLate2"
    );
    let in_window = |w: &WindowQos, at: SimTime| w.start <= at && at < w.start + w.length;
    for (i, w) in outcome.windows.iter().enumerate() {
        let mut notes = Vec::new();
        if in_window(w, BLIP.0) {
            notes.push("blip");
        }
        if in_window(w, SUSTAINED) {
            notes.push("sustained change");
        }
        if outcome.switches.iter().any(|s| in_window(w, s.at)) {
            notes.push("SWITCH");
        }
        println!(
            "{i:>4} {:>6} {:>6} {:>7.3} {:>10.0} {:>10.0}  {}",
            w.published,
            w.delivered,
            w.reliability(),
            w.avg_latency_us,
            w.relate2(),
            notes.join(", ")
        );
    }

    println!(
        "\nalarms: {}   switches: {}   suppressed by backoff: {}",
        outcome.alarms,
        outcome.switches.len(),
        outcome.suppressed_switches
    );
    for s in &outcome.switches {
        println!(
            "switch @ {:.2}s: {} -> {} ({:?}, probed {})",
            s.at.as_secs_f64(),
            s.from.label(),
            s.to.label(),
            s.source,
            s.probed
        );
    }
    let blip_ridden_out = outcome.switches.iter().all(|s| s.at > SUSTAINED);
    let change_followed = outcome.switches.iter().any(|s| s.at > SUSTAINED);
    println!(
        "the blip was {}; the sustained change was {}.",
        if blip_ridden_out {
            "ridden out"
        } else {
            "NOT ridden out"
        },
        if change_followed {
            "followed"
        } else {
            "NOT followed"
        }
    );
}
