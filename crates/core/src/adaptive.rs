//! Runtime adaptation: the paper's concluding-remarks extension.
//!
//! The paper's evaluation configures the middleware *at startup*; its
//! lessons-learned section motivates using the same fast, predictable ANN
//! guidance to re-configure a *running* system when the monitored
//! environment changes ("turbulent environments"). This module implements
//! that loop: an [`AdaptiveController`] holds the trained selector and the
//! current transport, receives environment observations, and decides —
//! with hysteresis — whether to keep or switch the transport; an
//! [`AdaptiveTimeline`] replays a sequence of environment phases through a
//! controller and measures the QoS of each phase under the adapted
//! configuration.

use adamant_metrics::{MetricKind, QosReport};
use adamant_transport::{ProtocolKind, TransportConfig};

use crate::env::{AppParams, Environment};
use crate::runner::Scenario;
use crate::selector::{ProtocolSelector, Selection};

/// What the controller decided on one observation.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationDecision {
    /// First observation: adopt the selected protocol.
    Configure {
        /// The protocol adopted.
        to: ProtocolKind,
        /// The selector's full answer (scores, query time).
        selection: Selection,
    },
    /// The selected protocol equals the current one: no change.
    Keep {
        /// The protocol kept.
        current: ProtocolKind,
        /// The selector's answer.
        selection: Selection,
    },
    /// The environment moved enough to change the answer: reconfigure.
    Switch {
        /// The protocol being replaced.
        from: ProtocolKind,
        /// The new protocol.
        to: ProtocolKind,
        /// The selector's answer.
        selection: Selection,
    },
}

impl AdaptationDecision {
    /// The protocol in force after this decision.
    pub fn active_protocol(&self) -> ProtocolKind {
        match self {
            AdaptationDecision::Configure { to, .. } => *to,
            AdaptationDecision::Keep { current, .. } => *current,
            AdaptationDecision::Switch { to, .. } => *to,
        }
    }

    /// Whether this decision changes the running configuration.
    pub fn reconfigures(&self) -> bool {
        matches!(
            self,
            AdaptationDecision::Configure { .. } | AdaptationDecision::Switch { .. }
        )
    }
}

/// The autonomic adaptation loop: selector + current state + switch policy.
#[derive(Debug)]
pub struct AdaptiveController {
    selector: ProtocolSelector,
    metric: MetricKind,
    current: Option<ProtocolKind>,
    /// Consecutive observations that must agree before a switch is made
    /// (1 = switch immediately). Dampens thrashing when the environment
    /// jitters at a decision boundary.
    confirmations_required: u32,
    pending: Option<(ProtocolKind, u32)>,
    switches: u32,
    observations: u32,
}

impl AdaptiveController {
    /// Creates a controller optimising `metric` with immediate switching.
    pub fn new(selector: ProtocolSelector, metric: MetricKind) -> Self {
        AdaptiveController {
            selector,
            metric,
            current: None,
            confirmations_required: 1,
            pending: None,
            switches: 0,
            observations: 0,
        }
    }

    /// Requires `n` consecutive agreeing observations before switching.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_confirmations(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one confirmation required");
        self.confirmations_required = n;
        self
    }

    /// The protocol currently in force, if configured.
    pub fn current(&self) -> Option<ProtocolKind> {
        self.current
    }

    /// Total reconfigurations performed (excluding the initial one).
    pub fn switches(&self) -> u32 {
        self.switches
    }

    /// Observations processed.
    pub fn observations(&self) -> u32 {
        self.observations
    }

    /// Feeds one environment observation through the selector and applies
    /// the switch policy.
    pub fn observe(&mut self, env: &Environment, app: &AppParams) -> AdaptationDecision {
        self.observations += 1;
        let selection = self.selector.select(env, app, self.metric);
        let proposed = selection.protocol;
        match self.current {
            None => {
                self.current = Some(proposed);
                AdaptationDecision::Configure {
                    to: proposed,
                    selection,
                }
            }
            Some(current) if current == proposed => {
                self.pending = None;
                AdaptationDecision::Keep { current, selection }
            }
            Some(current) => {
                let agreed = match self.pending.take() {
                    Some((candidate, count)) if candidate == proposed => count + 1,
                    _ => 1,
                };
                if agreed >= self.confirmations_required {
                    self.current = Some(proposed);
                    self.switches += 1;
                    AdaptationDecision::Switch {
                        from: current,
                        to: proposed,
                        selection,
                    }
                } else {
                    self.pending = Some((proposed, agreed));
                    AdaptationDecision::Keep { current, selection }
                }
            }
        }
    }
}

/// One phase of an adaptive run: an environment that holds for a stretch
/// of operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// The environment during this phase.
    pub env: Environment,
    /// The application parameters during this phase.
    pub app: AppParams,
    /// Samples published during this phase.
    pub samples: u64,
}

/// The outcome of one phase.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// The phase that ran.
    pub phase: Phase,
    /// The controller's decision entering the phase.
    pub decision: AdaptationDecision,
    /// Measured QoS of the phase under the active protocol.
    pub report: QosReport,
}

/// Replays `phases` through a controller: before each phase the
/// environment is re-observed (the paper's monitoring step) and the phase
/// then runs under whatever protocol is in force.
pub struct AdaptiveTimeline {
    controller: AdaptiveController,
    seed: u64,
}

impl AdaptiveTimeline {
    /// Creates a timeline driver around `controller`.
    pub fn new(controller: AdaptiveController, seed: u64) -> Self {
        AdaptiveTimeline { controller, seed }
    }

    /// Runs every phase, returning per-phase outcomes.
    pub fn run(mut self, phases: &[Phase]) -> (Vec<PhaseOutcome>, AdaptiveController) {
        let mut outcomes = Vec::with_capacity(phases.len());
        for (i, &phase) in phases.iter().enumerate() {
            let decision = self.controller.observe(&phase.env, &phase.app);
            let report = Scenario::paper(phase.env, phase.app, self.seed.wrapping_add(i as u64))
                .with_samples(phase.samples)
                .run(TransportConfig::new(decision.active_protocol()));
            outcomes.push(PhaseOutcome {
                phase,
                decision,
                report,
            });
        }
        (outcomes, self.controller)
    }
}

/// Alarm thresholds for [`QosMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorThresholds {
    /// Alarm when window reliability falls below this fraction.
    pub min_reliability: f64,
    /// Alarm when window average latency exceeds this (µs).
    pub max_avg_latency_us: f64,
    /// Consecutive bad windows required before raising the alarm.
    pub consecutive_windows: u32,
}

impl Default for MonitorThresholds {
    fn default() -> Self {
        MonitorThresholds {
            min_reliability: 0.98,
            max_avg_latency_us: 5_000.0,
            consecutive_windows: 2,
        }
    }
}

/// Watches a stream of windowed QoS measurements and raises an alarm when
/// QoS degrades persistently — the "system monitoring the environment"
/// trigger the paper's conclusion sketches for runtime adaptation. On
/// alarm, the application re-probes the environment and feeds
/// [`AdaptiveController::observe`].
#[derive(Debug, Clone)]
pub struct QosMonitor {
    thresholds: MonitorThresholds,
    consecutive_bad: u32,
    windows_seen: u64,
    alarms: u64,
}

impl QosMonitor {
    /// Creates a monitor with the given thresholds.
    pub fn new(thresholds: MonitorThresholds) -> Self {
        QosMonitor {
            thresholds,
            consecutive_bad: 0,
            windows_seen: 0,
            alarms: 0,
        }
    }

    /// Feeds one window; returns `true` when the degradation alarm fires
    /// (once per sustained episode — the counter re-arms after a good
    /// window).
    pub fn observe_window(&mut self, window: &adamant_metrics::WindowQos) -> bool {
        self.windows_seen += 1;
        let bad = window.reliability() < self.thresholds.min_reliability
            || window.avg_latency_us > self.thresholds.max_avg_latency_us;
        if !bad {
            self.consecutive_bad = 0;
            return false;
        }
        self.consecutive_bad += 1;
        if self.consecutive_bad == self.thresholds.consecutive_windows {
            self.alarms += 1;
            return true;
        }
        false
    }

    /// Windows processed so far.
    pub fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetRow, LabeledDataset};
    use crate::env::BandwidthClass;
    use crate::selector::SelectorConfig;
    use adamant_dds::DdsImplementation;
    use adamant_netsim::MachineClass;

    fn synthetic_selector() -> ProtocolSelector {
        // pc3000 → Ricochet R4C3 (class 4); pc850 → NAKcast 1 ms (class 3).
        let mut rows = Vec::new();
        for machine in MachineClass::all() {
            for bandwidth in BandwidthClass::all() {
                for loss in 1..=5u8 {
                    rows.push(DatasetRow {
                        env: Environment::new(
                            machine,
                            bandwidth,
                            DdsImplementation::OpenSplice,
                            loss,
                        ),
                        app: AppParams::new(3, 25),
                        metric: MetricKind::ReLate2,
                        best_class: if machine == MachineClass::Pc3000 {
                            4
                        } else {
                            3
                        },
                        scores: vec![0.0; 6],
                    });
                }
            }
        }
        let (selector, _) =
            ProtocolSelector::train_from(&LabeledDataset { rows }, &SelectorConfig::default());
        selector
    }

    fn fast() -> Environment {
        Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            5,
        )
    }

    fn slow() -> Environment {
        Environment::new(
            MachineClass::Pc850,
            BandwidthClass::Mbps100,
            DdsImplementation::OpenSplice,
            5,
        )
    }

    #[test]
    fn first_observation_configures() {
        let mut ctl = AdaptiveController::new(synthetic_selector(), MetricKind::ReLate2);
        let d = ctl.observe(&fast(), &AppParams::new(3, 25));
        assert!(matches!(d, AdaptationDecision::Configure { .. }));
        assert!(d.reconfigures());
        assert_eq!(ctl.current(), Some(d.active_protocol()));
        assert_eq!(ctl.switches(), 0);
    }

    #[test]
    fn stable_environment_keeps() {
        let mut ctl = AdaptiveController::new(synthetic_selector(), MetricKind::ReLate2);
        ctl.observe(&fast(), &AppParams::new(3, 25));
        for _ in 0..5 {
            let d = ctl.observe(&fast(), &AppParams::new(3, 25));
            assert!(matches!(d, AdaptationDecision::Keep { .. }));
        }
        assert_eq!(ctl.switches(), 0);
        assert_eq!(ctl.observations(), 6);
    }

    #[test]
    fn environment_change_switches() {
        let mut ctl = AdaptiveController::new(synthetic_selector(), MetricKind::ReLate2);
        let first = ctl.observe(&fast(), &AppParams::new(3, 25));
        let second = ctl.observe(&slow(), &AppParams::new(3, 25));
        match second {
            AdaptationDecision::Switch { from, to, .. } => {
                assert_eq!(from, first.active_protocol());
                assert_ne!(from, to);
            }
            other => panic!("expected a switch, got {other:?}"),
        }
        assert_eq!(ctl.switches(), 1);
    }

    #[test]
    fn hysteresis_delays_switch_until_confirmed() {
        let mut ctl = AdaptiveController::new(synthetic_selector(), MetricKind::ReLate2)
            .with_confirmations(3);
        ctl.observe(&fast(), &AppParams::new(3, 25));
        // Two observations of the new environment: still held back.
        assert!(!ctl.observe(&slow(), &AppParams::new(3, 25)).reconfigures());
        assert!(!ctl.observe(&slow(), &AppParams::new(3, 25)).reconfigures());
        // Third agreeing observation commits the switch.
        assert!(ctl.observe(&slow(), &AppParams::new(3, 25)).reconfigures());
        assert_eq!(ctl.switches(), 1);
        // A flapping observation no longer counts once back to stable.
        assert!(!ctl.observe(&slow(), &AppParams::new(3, 25)).reconfigures());
    }

    #[test]
    fn monitor_fires_once_per_sustained_episode() {
        use adamant_metrics::WindowQos;
        use adamant_netsim::{SimDuration, SimTime};
        let window = |published: u64, delivered: u64, lat: f64| WindowQos {
            start: SimTime::ZERO,
            length: SimDuration::from_secs(1),
            published,
            delivered,
            avg_latency_us: lat,
            jitter_us: 0.0,
        };
        let mut monitor = QosMonitor::new(MonitorThresholds {
            min_reliability: 0.95,
            max_avg_latency_us: 2_000.0,
            consecutive_windows: 2,
        });
        // Healthy stream: no alarms.
        assert!(!monitor.observe_window(&window(100, 100, 500.0)));
        // One bad window: not yet.
        assert!(!monitor.observe_window(&window(100, 80, 500.0)));
        // Second consecutive: alarm fires exactly once.
        assert!(monitor.observe_window(&window(100, 80, 500.0)));
        assert!(!monitor.observe_window(&window(100, 80, 500.0)));
        assert_eq!(monitor.alarms(), 1);
        // Recovery re-arms the detector; a latency episode fires again.
        assert!(!monitor.observe_window(&window(100, 100, 500.0)));
        assert!(!monitor.observe_window(&window(100, 100, 9_000.0)));
        assert!(monitor.observe_window(&window(100, 100, 9_000.0)));
        assert_eq!(monitor.alarms(), 2);
        assert_eq!(monitor.windows_seen(), 7);
    }

    #[test]
    fn monitor_detects_real_degradation_in_a_run() {
        use adamant_metrics::{constant_rate_schedule, windowed_qos};
        use adamant_netsim::SimDuration;
        // A lossy UDP run degrades reliability in every window; the
        // monitor should alarm early.
        let report_env = Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            5,
        );
        let scenario =
            crate::Scenario::paper(report_env, AppParams::new(1, 100), 3).with_samples(400);
        let report = scenario.run(adamant_transport::TransportConfig::new(
            adamant_transport::ProtocolKind::Udp,
        ));
        let _ = report;
        // Re-run through the ant layer to get raw deliveries.
        use adamant_transport::{ant, AppSpec, SessionSpec, StackProfile};
        let spec = SessionSpec {
            transport: adamant_transport::TransportConfig::new(
                adamant_transport::ProtocolKind::Udp,
            ),
            app: AppSpec::at_rate(400, 100.0, 12),
            stack: StackProfile::new(20.0, 48),
            sender_host: report_env.host_config(),
            receiver_hosts: vec![report_env.host_config()],
            drop_probability: 0.10,
            capture: true,
        };
        let mut sim = adamant_netsim::Simulation::new(3);
        let handles = ant::install(&mut sim, &spec);
        sim.run_until(adamant_netsim::SimTime::from_secs(6));
        let reader = ant::reader(&sim, &handles, handles.receivers[0]);
        let schedule = constant_rate_schedule(100.0, SimDuration::from_secs(1), 4);
        let windows = windowed_qos(
            reader.log().deliveries().expect("captured"),
            &schedule,
            SimDuration::from_secs(1),
        );
        let mut monitor = QosMonitor::new(MonitorThresholds {
            min_reliability: 0.95,
            max_avg_latency_us: 1e9,
            consecutive_windows: 2,
        });
        let mut alarmed = false;
        for w in &windows {
            alarmed |= monitor.observe_window(w);
        }
        assert!(alarmed, "10% UDP loss must trip a 95% reliability monitor");
    }

    #[test]
    fn timeline_adapts_across_phases() {
        let ctl = AdaptiveController::new(synthetic_selector(), MetricKind::ReLate2);
        let phases = [
            Phase {
                env: slow(),
                app: AppParams::new(3, 25),
                samples: 300,
            },
            Phase {
                env: fast(),
                app: AppParams::new(3, 25),
                samples: 300,
            },
        ];
        let (outcomes, ctl) = AdaptiveTimeline::new(ctl, 9).run(&phases);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].decision.reconfigures()); // initial configure
        assert!(outcomes[1].decision.reconfigures()); // switch on upgrade
        assert_ne!(
            outcomes[0].decision.active_protocol(),
            outcomes[1].decision.active_protocol()
        );
        for o in &outcomes {
            assert!(o.report.reliability() > 0.95, "{:?}", o.report);
        }
        assert_eq!(ctl.switches(), 1);
    }
}
