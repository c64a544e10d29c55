//! Scripted chaos scenarios against a self-healing session — the shared
//! harness behind the `chaos` binary and the trace-driven invariant tests.
//!
//! Each scenario runs a 1 200-sample, 100 Hz, 2-reader session on NAKcast
//! with a lazy 50 ms timeout, injects a compound fault at t = 3 s through a
//! [`FaultPlan`], and lets the [`AdaptivePolicy`] loop fight back. With
//! [`run_chaos`]'s `observe` flag the run captures a structured
//! observability trace, and [`chaos_verify_spec`] builds the matching
//! [`VerifySpec`] so the trace can be replayed against the runtime
//! invariants (crash hygiene, at-most-once, the NAKcast recovery-latency
//! schedule, and ReLate2 trace/report consistency).

use adamant::dataset::{DatasetRow, LabeledDataset};
use adamant::{
    AdaptivePolicy, AppParams, BandwidthClass, Environment, HealingOutcome, MonitorThresholds,
    ProtocolSelector, SelectorConfig, StreamConfig, TreeSelector,
};
use adamant_dds::DdsImplementation;
use adamant_metrics::{MetricKind, VerifySpec};
use adamant_netsim::{
    Bandwidth, FaultPlan, HostConfig, LossModel, MachineClass, MemorySink, NetworkConfig, NodeId,
    SimDriver, SimDuration, SimTime, Simulation, TracedEvent,
};
use adamant_proto::{catch_up_bound, DurabilityMode, DurableConfig, DurableCore};
use adamant_transport::{
    nakcast_recovery_bound, AppSpec, NakcastReceiver, NakcastSender, ProtocolKind, StackProfile,
    TransportConfig, Tuning,
};

/// When every scenario's fault lands.
pub const FAULT_AT: SimTime = SimTime::from_secs(3);
/// Samples the writer publishes across the whole session.
pub const SAMPLES: u64 = 1_200;
/// Data readers in the session.
pub const RECEIVERS: u32 = 2;
/// Sender plus two readers — node ids are assigned sequentially.
pub const NODES: usize = 3;
/// The lazy NAK timeout every scenario starts on.
pub const INITIAL_NAK_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// NAK-timeout training data: calm links (≤ 3 % loss) prefer the lazy
/// 50 ms timeout, lossy links the aggressive 1 ms one.
pub fn loss_dataset() -> LabeledDataset {
    let mut rows = Vec::new();
    for bandwidth in BandwidthClass::all() {
        for loss in 1..=10u8 {
            rows.push(DatasetRow {
                env: Environment::new(
                    MachineClass::Pc3000,
                    bandwidth,
                    DdsImplementation::OpenSplice,
                    loss,
                ),
                app: AppParams::new(2, 100),
                metric: MetricKind::ReLate2,
                best_class: if loss <= 3 { 0 } else { 3 },
                scores: vec![0.0; 6],
            });
        }
    }
    LabeledDataset { rows }
}

/// One scripted fault scenario.
pub struct ChaosScenario {
    /// Stable scenario name (CLI argument and artifact key).
    pub name: &'static str,
    /// Human-readable fault description.
    pub description: &'static str,
    /// Builds the scenario's fault plan.
    pub plan: fn() -> FaultPlan,
}

fn loss_spike() -> FaultPlan {
    let mut plan = FaultPlan::new().set_network_at(
        FAULT_AT,
        NetworkConfig {
            propagation: BandwidthClass::Mbps100.propagation(),
            loss: LossModel::Bernoulli(0.08),
        },
    );
    for node in 0..NODES {
        plan = plan.set_bandwidth_at(FAULT_AT, NodeId::from_index(node), Bandwidth::MBPS_100);
    }
    plan
}

fn bandwidth_drop() -> FaultPlan {
    let mut plan = FaultPlan::new().set_network_at(
        FAULT_AT,
        NetworkConfig {
            propagation: BandwidthClass::Mbps10.propagation(),
            loss: LossModel::Bernoulli(0.05),
        },
    );
    for node in 0..NODES {
        plan = plan.set_bandwidth_at(FAULT_AT, NodeId::from_index(node), Bandwidth::MBPS_10);
    }
    plan
}

fn cpu_contention() -> FaultPlan {
    let mut plan = FaultPlan::new().set_network_at(
        FAULT_AT,
        NetworkConfig {
            propagation: BandwidthClass::Gbps1.propagation(),
            loss: LossModel::Bernoulli(0.06),
        },
    );
    for node in 0..NODES {
        plan = plan.cpu_contention_at(FAULT_AT, NodeId::from_index(node), 8.0);
    }
    plan
}

/// The three scripted scenarios.
pub const SCENARIOS: [ChaosScenario; 3] = [
    ChaosScenario {
        name: "loss-spike",
        description: "8% link loss on every path + 1Gb -> 100Mb NIC downgrade",
        plan: loss_spike,
    },
    ChaosScenario {
        name: "bandwidth-drop",
        description: "5% link loss + 1Gb -> 10Mb NIC downgrade (500us propagation)",
        plan: bandwidth_drop,
    },
    ChaosScenario {
        name: "cpu-contention",
        description: "6% link loss + 8x CPU contention on every host",
        plan: cpu_contention,
    },
];

/// Looks a scenario up by name.
pub fn scenario(name: &str) -> Option<&'static ChaosScenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Builds the standard policy for the chaos scenarios: the loss-dataset
/// ANN with a 0.1 confidence floor, decision-tree fallback, chaos alarm
/// thresholds, and a 2 s dwell backing off to 16 s.
pub fn build_policy() -> AdaptivePolicy {
    let ds = loss_dataset();
    let (ann, _) = ProtocolSelector::train_from(&ds, &SelectorConfig::default());
    let tree = TreeSelector::from_dataset(&ds, adamant_ann::DecisionTreeParams::default());
    AdaptivePolicy::new(MetricKind::ReLate2)
        .with_ann(ann, 0.1)
        .with_tree(tree)
        .with_thresholds(MonitorThresholds {
            min_reliability: 0.90,
            max_avg_latency_us: 8_000.0,
            consecutive_windows: 2,
        })
        .with_backoff(SimDuration::from_secs(2), SimDuration::from_secs(16))
}

/// The stream every scenario runs.
pub fn chaos_stream(seed: u64) -> StreamConfig {
    let env = Environment::new(
        MachineClass::Pc3000,
        BandwidthClass::Gbps1,
        DdsImplementation::OpenSplice,
        2,
    );
    StreamConfig::new(env, AppParams::new(RECEIVERS, 100), SAMPLES, seed)
}

/// The transport every scenario starts on.
pub fn initial_transport() -> TransportConfig {
    TransportConfig::new(ProtocolKind::Nakcast {
        timeout: INITIAL_NAK_TIMEOUT,
    })
}

/// Runs one scenario to completion. With `observe`, the outcome carries
/// the structured trace of the whole run.
pub fn run_chaos(
    scenario: &ChaosScenario,
    policy: &AdaptivePolicy,
    seed: u64,
    observe: bool,
) -> HealingOutcome {
    let mut stream = chaos_stream(seed);
    if observe {
        stream = stream.with_observation();
    }
    policy.run_stream(&stream, initial_transport(), (scenario.plan)())
}

/// The [`VerifySpec`] matching a chaos run: structural invariants plus the
/// NAKcast recovery-latency schedule of the lazy initial timeout (the
/// loosest schedule any in-play protocol imposes) and ReLate2 consistency
/// against the engine's own report.
///
/// The ReLate2 tolerance is exact in principle — the checker replays
/// latencies in the report's own pooling order — but allowed a hair of
/// absolute slack for the arithmetic itself.
pub fn chaos_verify_spec(outcome: &HealingOutcome) -> VerifySpec {
    let reported = MetricKind::ReLate2.score(&outcome.report);
    VerifySpec::new(SAMPLES, RECEIVERS)
        .with_reported_relate2(reported)
        .with_recovery_bound(nakcast_recovery_bound(
            INITIAL_NAK_TIMEOUT,
            &Tuning::default(),
        ))
}

// ------------------------------------------------- durable crash-restart

/// Stream length of the durable reader-crash-recovery scenario.
pub const DURABLE_SAMPLES: u64 = 600;
/// Durable readers in that scenario; the last one is the crash victim.
pub const DURABLE_RECEIVERS: u32 = 2;
/// Per-reader end-host loss the durable scenario runs under (so the live
/// path exercises the inner NAK machinery alongside durable catch-up).
pub const DURABLE_LOSS: f64 = 0.02;
/// When the victim reader crashes.
pub const CRASH_AT: SimTime = SimTime::from_secs(1);
/// When the victim restarts as a new incarnation.
pub const RESTART_AT: SimTime = SimTime::from_secs(2);
/// The inner NAKcast session timeout for the durable scenario.
const DURABLE_SESSION_NAK: SimDuration = SimDuration::from_millis(5);

/// The durable tuning every endpoint of the scenario runs under: default
/// timing, unbounded writer history (the whole stream stays recoverable).
pub fn durable_config(mode: DurabilityMode) -> DurableConfig {
    DurableConfig::for_mode(mode)
}

/// What one durable crash-restart run produced.
pub struct DurableChaosOutcome {
    /// The structured trace of the whole run (always captured — proving
    /// recovery is the point of the scenario).
    pub trace: Vec<TracedEvent>,
    /// The reader that crashed and restarted.
    pub victim: NodeId,
    /// Samples the writer replayed from its durable history cache.
    pub replayed: u64,
    /// Distinct sequences the victim handed to the application across both
    /// incarnations (checkpoint plus live and catch-up deliveries).
    pub victim_delivered: u64,
    /// Historical samples the restarted incarnation recovered via the
    /// catch-up protocol.
    pub victim_recovered: u64,
    /// Cross-incarnation duplicates the durable wrapper suppressed.
    pub duplicates_suppressed: u64,
    /// When the restarted incarnation completed catch-up; `None` means it
    /// never did (always the case for a Volatile victim).
    pub caught_up_at: Option<SimTime>,
}

/// Runs the durable reader-crash-recovery scenario: a `DurableCore`-wrapped
/// NAKcast session where the victim reader crashes at [`CRASH_AT`] and
/// restarts at [`RESTART_AT`] as a new incarnation, recovering its delivery
/// checkpoint from the dead incarnation (the [`FaultPlan`] restart factory
/// models state read back from stable storage). In
/// [`DurabilityMode::TransientLocal`] the new incarnation catch-up-NAKs
/// every retained sample the checkpoint is missing; in
/// [`DurabilityMode::Volatile`] it joins at the live edge and the crash
/// window stays lost.
pub fn run_reader_crash_recovery(mode: DurabilityMode, seed: u64) -> DurableChaosOutcome {
    let config = durable_config(mode);
    let tuning = Tuning::default();
    let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);

    let mut sim = Simulation::new(seed).with_obs_sink(MemorySink::new());
    let group = sim.create_group(&[]);
    let writer = sim.add_node(
        host,
        SimDriver::new(DurableCore::writer(
            NakcastSender::new(
                AppSpec::at_rate(DURABLE_SAMPLES, 100.0, 12),
                StackProfile::new(10.0, 48),
                tuning,
                group,
            ),
            group,
            config,
        )),
    );
    sim.join_group(group, writer);
    let mut readers = Vec::new();
    for _ in 0..DURABLE_RECEIVERS {
        let rx = sim.add_node(
            host,
            SimDriver::new(DurableCore::reader(
                NakcastReceiver::new(
                    writer,
                    DURABLE_SAMPLES,
                    DURABLE_SESSION_NAK,
                    tuning,
                    DURABLE_LOSS,
                ),
                writer,
                config,
            )),
        );
        sim.join_group(group, rx);
        readers.push(rx);
    }
    let victim = *readers.last().expect("at least one reader");

    let plan = FaultPlan::new().crash_at(CRASH_AT, victim).restart_with_at(
        RESTART_AT,
        victim,
        move |previous| {
            // The restarted process recovers its delivery checkpoint from
            // stable storage: the dead incarnation's delivered set.
            let checkpoint = previous
                .as_ref()
                .and_then(|agent| {
                    agent
                        .as_any()
                        .downcast_ref::<DurableCore<NakcastReceiver>>()
                })
                .map(|core| core.delivered_set().clone())
                .unwrap_or_default();
            Box::new(SimDriver::new(
                DurableCore::reader(
                    NakcastReceiver::new(
                        writer,
                        DURABLE_SAMPLES,
                        DURABLE_SESSION_NAK,
                        tuning,
                        DURABLE_LOSS,
                    ),
                    writer,
                    config,
                )
                .with_delivered(checkpoint),
            ))
        },
    );
    plan.run(&mut sim, SimTime::from_secs(9));

    let replayed = sim
        .agent::<DurableCore<NakcastSender>>(writer)
        .map_or(0, DurableCore::replayed);
    let reader = sim
        .agent::<DurableCore<NakcastReceiver>>(victim)
        .expect("victim core survives the run");
    let (victim_delivered, victim_recovered, duplicates_suppressed, caught_up_at) = (
        reader.delivered_set().len() as u64,
        reader.recovered_via_catch_up(),
        reader.duplicates_suppressed(),
        reader.caught_up_at(),
    );
    DurableChaosOutcome {
        trace: sim.take_obs_events(),
        victim,
        replayed,
        victim_delivered,
        victim_recovered,
        duplicates_suppressed,
        caught_up_at,
    }
}

/// The [`VerifySpec`] proving durable crash-restart recovery: the victim is
/// declared durable, so the checker demands a gap-free acceptance union
/// across its incarnations, cross-incarnation at-most-once delivery, and
/// catch-up completion within the retry schedule's worst-case bound.
pub fn durable_verify_spec(mode: DurabilityMode) -> VerifySpec {
    VerifySpec::new(DURABLE_SAMPLES, DURABLE_RECEIVERS)
        .with_durable_nodes([DURABLE_RECEIVERS as usize])
        .with_catch_up_bound(catch_up_bound(&durable_config(mode)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_lookup_and_coverage() {
        assert_eq!(SCENARIOS.len(), 3);
        assert!(scenario("loss-spike").is_some());
        assert!(scenario("bandwidth-drop").is_some());
        assert!(scenario("cpu-contention").is_some());
        assert!(scenario("nope").is_none());
    }

    #[test]
    fn unobserved_run_has_no_trace() {
        let policy = build_policy();
        let outcome = run_chaos(scenario("loss-spike").unwrap(), &policy, 5, false);
        assert!(outcome.trace.is_empty());
        assert!(outcome.report.delivered > 0);
    }

    #[test]
    fn transient_local_victim_provably_recovers_all_history() {
        let outcome = run_reader_crash_recovery(DurabilityMode::TransientLocal, 11);
        assert_eq!(outcome.victim_delivered, DURABLE_SAMPLES);
        assert!(
            outcome.victim_recovered > 0,
            "the crash window must be recovered through catch-up"
        );
        assert!(outcome.replayed > 0);
        assert!(outcome.caught_up_at.is_some());
        let verify = adamant_metrics::verify_trace(
            &outcome.trace,
            &durable_verify_spec(DurabilityMode::TransientLocal),
        );
        assert!(verify.is_clean(), "violations: {:?}", verify.violations);
    }

    #[test]
    fn volatile_victim_loses_the_crash_window() {
        use adamant_metrics::InvariantKind;
        let outcome = run_reader_crash_recovery(DurabilityMode::Volatile, 11);
        assert!(outcome.caught_up_at.is_none(), "volatile never catches up");
        assert!(
            outcome.victim_delivered < DURABLE_SAMPLES,
            "the crash window must stay lost on a volatile reader"
        );
        let verify = adamant_metrics::verify_trace(
            &outcome.trace,
            &durable_verify_spec(DurabilityMode::Volatile),
        );
        assert!(
            verify.violations_of(InvariantKind::NoGapAfterCatchUp) > 0,
            "the checker must flag the gap: {:?}",
            verify.violations
        );
    }
}
