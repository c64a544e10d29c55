//! The resilient building blocks of the adaptation loop: the graceful
//! selector chain, switch hysteresis, and the outcome record.
//!
//! The closed loop itself lives in [`crate::policy`]: a policy runs a live
//! pub/sub session while a fault plan (loss spikes, bandwidth downgrades,
//! CPU contention — see [`adamant_netsim::FaultPlan`]) degrades it
//! mid-stream. Each window the loop folds the deliveries of that window's
//! samples into a [`WindowQos`]; when the monitor alarms, it re-probes the
//! (now degraded) environment, asks a [`ResilientSelector`] for a protocol,
//! and — subject to a [`SwitchBackoff`] hysteresis policy that prevents
//! flapping — swaps the running transport over mid-stream.
//!
//! The selector chain degrades gracefully: a trained ANN answers only
//! when its output margin clears a confidence floor, a decision-tree
//! fallback answers otherwise, and with no models at all the session falls
//! back to the safest candidate (NAKcast with a 1 ms timeout — reliable
//! under every environment of the paper's evaluation, if not optimal).

use adamant_metrics::{MetricKind, QosReport, WindowQos};
use adamant_netsim::{Bandwidth, SimDuration, SimTime, Simulation, TracedEvent};
use adamant_transport::{ProtocolKind, SessionHandles};

use crate::env::{AppParams, BandwidthClass, Environment};
use crate::policy::OnlineStats;
use crate::selector::{ProtocolSelector, TreeSelector};

/// Which stage of the fallback chain produced a protocol choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorSource {
    /// The ANN answered with sufficient output margin.
    Ann,
    /// The ANN was absent or unsure; the decision tree answered.
    Tree,
    /// No model could answer; the safe default was used.
    Default,
}

impl SelectorSource {
    /// Stable integer encoding used by the `HealDecision` and
    /// `HealSwitch` trace events of [`adamant_proto::ObsEvent`].
    pub fn code(self) -> u8 {
        match self {
            SelectorSource::Ann => 0,
            SelectorSource::Tree => 1,
            SelectorSource::Default => 2,
        }
    }
}

/// One answer from a [`ResilientSelector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientChoice {
    /// The chosen transport protocol.
    pub protocol: ProtocolKind,
    /// Which fallback stage produced it.
    pub source: SelectorSource,
    /// The ANN's output margin (top score minus runner-up) when the ANN
    /// answered; `1.0` for the tree (its answer is categorical) and `0.0`
    /// for the default.
    pub confidence: f64,
}

/// A protocol selector that never fails to answer: ANN with a confidence
/// floor, then a decision tree, then a safe default.
#[derive(Debug, Clone)]
pub struct ResilientSelector {
    ann: Option<(ProtocolSelector, f64)>,
    tree: Option<TreeSelector>,
    metric: MetricKind,
}

impl ResilientSelector {
    /// Creates a selector chain optimising `metric` with no models yet:
    /// every query answers [`ResilientSelector::fallback_protocol`].
    pub fn new(metric: MetricKind) -> Self {
        ResilientSelector {
            ann: None,
            tree: None,
            metric,
        }
    }

    /// Adds a trained ANN whose answer is trusted only when the margin
    /// between its top two output scores reaches `confidence_floor`.
    ///
    /// # Panics
    ///
    /// Panics if `confidence_floor` is negative or not finite.
    pub fn with_ann(mut self, selector: ProtocolSelector, confidence_floor: f64) -> Self {
        assert!(
            confidence_floor.is_finite() && confidence_floor >= 0.0,
            "confidence floor must be finite and non-negative"
        );
        self.ann = Some((selector, confidence_floor));
        self
    }

    /// Adds the decision-tree fallback consulted when the ANN is absent
    /// or unsure.
    pub fn with_tree(mut self, tree: TreeSelector) -> Self {
        self.tree = Some(tree);
        self
    }

    /// The metric the chain optimises.
    pub fn metric(&self) -> MetricKind {
        self.metric
    }

    /// The currently installed ANN, if any.
    pub fn ann(&self) -> Option<&ProtocolSelector> {
        self.ann.as_ref().map(|(selector, _)| selector)
    }

    /// Hot-swaps the ANN, keeping the existing confidence floor (or
    /// trusting every answer when no floor was ever set). This is the
    /// online trainer's install point: swapping a model changes future
    /// *answers* only — actual protocol switches still flow through the
    /// alarm → backoff → reinstall path.
    pub fn replace_ann(&mut self, selector: ProtocolSelector) {
        let floor = self.ann.as_ref().map(|(_, floor)| *floor).unwrap_or(0.0);
        self.ann = Some((selector, floor));
    }

    /// The last-resort choice when no model can answer: NAKcast with a
    /// 1 ms timeout, the candidate that stays reliable across the paper's
    /// whole environment space.
    pub fn fallback_protocol() -> ProtocolKind {
        ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(1),
        }
    }

    /// Answers a selection query, walking the fallback chain.
    pub fn select(&self, env: &Environment, app: &AppParams) -> ResilientChoice {
        if let Some((ann, floor)) = &self.ann {
            let selection = ann.select(env, app, self.metric);
            let margin = top_two_margin(&selection.scores);
            if margin >= *floor {
                return ResilientChoice {
                    protocol: selection.protocol,
                    source: SelectorSource::Ann,
                    confidence: margin,
                };
            }
        }
        if let Some(tree) = &self.tree {
            let selection = tree.select(env, app, self.metric);
            return ResilientChoice {
                protocol: selection.protocol,
                source: SelectorSource::Tree,
                confidence: 1.0,
            };
        }
        ResilientChoice {
            protocol: Self::fallback_protocol(),
            source: SelectorSource::Default,
            confidence: 0.0,
        }
    }
}

/// Margin between the largest and second-largest score (the ANN's
/// confidence proxy). A single-output network's margin is its sole score.
fn top_two_margin(scores: &[f64]) -> f64 {
    let mut top = f64::NEG_INFINITY;
    let mut second = f64::NEG_INFINITY;
    for &s in scores {
        if s > top {
            second = top;
            top = s;
        } else if s > second {
            second = s;
        }
    }
    if second == f64::NEG_INFINITY {
        top
    } else {
        top - second
    }
}

/// Anti-flapping policy for mid-stream protocol switches: a minimum dwell
/// time after every switch, doubling (up to a cap) while switches keep
/// happening, so a session oscillating at a decision boundary settles
/// instead of thrashing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SwitchBackoff {
    dwell: SimDuration,
    max_backoff: SimDuration,
    next_allowed: SimTime,
}

impl SwitchBackoff {
    /// Creates a policy with the given initial dwell and backoff cap.
    ///
    /// # Panics
    ///
    /// Panics if `min_dwell` is zero or exceeds `max_backoff`.
    pub(crate) fn new(min_dwell: SimDuration, max_backoff: SimDuration) -> Self {
        assert!(!min_dwell.is_zero(), "dwell time must be positive");
        assert!(max_backoff >= min_dwell, "backoff cap below initial dwell");
        SwitchBackoff {
            dwell: min_dwell,
            max_backoff,
            next_allowed: SimTime::ZERO,
        }
    }

    /// Whether a switch is currently allowed.
    pub(crate) fn may_switch(&self, now: SimTime) -> bool {
        now >= self.next_allowed
    }

    /// Records a switch at `now`, starting the next dwell period and
    /// doubling it for the one after.
    pub(crate) fn record_switch(&mut self, now: SimTime) {
        self.next_allowed = now + self.dwell;
        self.dwell = (self.dwell * 2).min(self.max_backoff);
    }
}

/// One committed mid-stream protocol switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchRecord {
    /// When the switch happened.
    pub at: SimTime,
    /// The protocol being replaced.
    pub from: ProtocolKind,
    /// The protocol switched to.
    pub to: ProtocolKind,
    /// Which fallback stage chose it.
    pub source: SelectorSource,
    /// The re-probed environment the choice was made for.
    pub probed: Environment,
}

/// The full record of one self-healing run. Two runs with identical
/// configuration, selector, and fault plan compare equal — the loop is
/// bit-for-bit deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct HealingOutcome {
    /// Pooled per-window QoS (all receivers, all protocol incarnations).
    pub windows: Vec<WindowQos>,
    /// Degradation alarms raised by the monitor.
    pub alarms: u64,
    /// Committed protocol switches, in order.
    pub switches: Vec<SwitchRecord>,
    /// Alarms that proposed a switch the backoff policy suppressed.
    pub suppressed_switches: u64,
    /// The protocol the session started on.
    pub initial_protocol: ProtocolKind,
    /// The protocol in force at the end.
    pub final_protocol: ProtocolKind,
    /// Pooled whole-run QoS across every incarnation.
    pub report: QosReport,
    /// The structured observability trace, when the run was configured
    /// with [`StreamConfig::with_observation`](crate::StreamConfig::with_observation);
    /// empty otherwise.
    pub trace: Vec<TracedEvent>,
    /// Counters of the online learn → vet → hot-swap path (all zero when
    /// online training was not enabled).
    pub online: OnlineStats,
}

impl HealingOutcome {
    /// Per-window ReLate2 (average latency × (percent loss + 1)) — the
    /// windowed form of the paper's headline composite metric. Windows
    /// with no publications score zero.
    pub fn window_relate2(&self) -> Vec<f64> {
        self.windows.iter().map(WindowQos::relate2).collect()
    }

    /// Mean windowed ReLate2 over `range` (publishing windows only).
    ///
    /// Returns zero when the range holds no publishing window.
    pub fn mean_relate2(&self, range: std::ops::Range<usize>) -> f64 {
        let relate2 = self.window_relate2();
        let mut sum = 0.0;
        let mut n = 0u32;
        for i in range {
            if let Some(w) = self.windows.get(i) {
                if w.published > 0 {
                    sum += relate2[i];
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Time from `fault_at` until windowed QoS settles back within
    /// `tolerance × baseline` ReLate2 for the rest of the stream.
    ///
    /// Returns `SimDuration::ZERO` when no window at or after the fault
    /// ever violated the bound, and `None` when QoS never settled (the
    /// last publishing window still violates it).
    pub fn time_to_recover(
        &self,
        fault_at: SimTime,
        baseline: f64,
        tolerance: f64,
    ) -> Option<SimDuration> {
        let relate2 = self.window_relate2();
        let mut last_bad: Option<usize> = None;
        for (i, w) in self.windows.iter().enumerate() {
            if w.start + w.length <= fault_at {
                continue;
            }
            if w.published > 0 && relate2[i] > tolerance * baseline {
                last_bad = Some(i);
            }
        }
        match last_bad {
            None => Some(SimDuration::ZERO),
            Some(i) => {
                let settled_after = self.windows[i].start + self.windows[i].length;
                let published_later = self.windows.iter().skip(i + 1).any(|w| w.published > 0);
                if published_later {
                    Some(settled_after.saturating_since(fault_at))
                } else {
                    None
                }
            }
        }
    }
}

/// Re-probes the environment after an alarm: machine and bandwidth from
/// the (possibly fault-mutated) host the writer runs on, loss from the
/// alarming window's own wire evidence — its `recovered` deliveries, which
/// needed recovery, and the samples still missing — floored at the
/// provisioned rate.
pub(crate) fn probe_environment(
    provisioned: &Environment,
    sim: &Simulation,
    handles: &SessionHandles,
    window: &WindowQos,
    recovered: u64,
) -> Environment {
    let host = sim.host_config(handles.sender);
    let expected = window.published;
    let missing = expected.saturating_sub(window.delivered);
    let fraction = if expected == 0 {
        0.0
    } else {
        (recovered + missing) as f64 / expected as f64
    };
    let observed = (fraction * 100.0).round().clamp(0.0, 100.0) as u8;
    Environment::new(
        host.machine,
        nearest_bandwidth_class(host.bandwidth),
        provisioned.dds,
        observed.max(provisioned.loss_percent),
    )
}

/// The Table 1 bandwidth class nearest (in log space) to a raw link
/// bandwidth — the probe's quantisation step.
fn nearest_bandwidth_class(bandwidth: Bandwidth) -> BandwidthClass {
    let mbps = bandwidth.mbps();
    if mbps <= 0.0 {
        return BandwidthClass::Mbps10;
    }
    let mut best = BandwidthClass::Gbps1;
    let mut best_err = f64::INFINITY;
    for class in BandwidthClass::all() {
        let err = (class.mbps().ln() - mbps.ln()).abs();
        if err < best_err {
            best = class;
            best_err = err;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetRow, LabeledDataset};
    use crate::selector::SelectorConfig;
    use adamant_dds::DdsImplementation;
    use adamant_netsim::MachineClass;

    /// Loss ≤ 3 % → NAKcast 50 ms (class 0); above → NAKcast 1 ms
    /// (class 3). The timeout trade-off the healing loop exploits.
    fn loss_dataset() -> LabeledDataset {
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

    fn lossy_env(loss: u8) -> Environment {
        Environment::new(
            MachineClass::Pc3000,
            BandwidthClass::Gbps1,
            DdsImplementation::OpenSplice,
            loss,
        )
    }

    #[test]
    fn confident_ann_answers_first() {
        let ds = loss_dataset();
        let (ann, _) = ProtocolSelector::train_from(&ds, &SelectorConfig::default());
        let tree = TreeSelector::from_dataset(&ds, adamant_ann::DecisionTreeParams::default());
        let chain = ResilientSelector::new(MetricKind::ReLate2)
            .with_ann(ann, 0.1)
            .with_tree(tree);
        let choice = chain.select(&lossy_env(8), &AppParams::new(2, 100));
        assert_eq!(choice.source, SelectorSource::Ann);
        assert_eq!(choice.protocol, ResilientSelector::fallback_protocol());
        assert!(choice.confidence >= 0.1);
        let calm = chain.select(&lossy_env(1), &AppParams::new(2, 100));
        assert_eq!(
            calm.protocol,
            ProtocolKind::Nakcast {
                timeout: SimDuration::from_millis(50)
            }
        );
    }

    #[test]
    fn unsure_ann_falls_back_to_tree() {
        let ds = loss_dataset();
        let (ann, _) = ProtocolSelector::train_from(&ds, &SelectorConfig::default());
        let tree = TreeSelector::from_dataset(&ds, adamant_ann::DecisionTreeParams::default());
        // An unreachable floor: no ANN margin can hit 1000.
        let chain = ResilientSelector::new(MetricKind::ReLate2)
            .with_ann(ann, 1_000.0)
            .with_tree(tree);
        let choice = chain.select(&lossy_env(8), &AppParams::new(2, 100));
        assert_eq!(choice.source, SelectorSource::Tree);
        assert_eq!(choice.protocol, ResilientSelector::fallback_protocol());
        assert_eq!(choice.confidence, 1.0);
    }

    #[test]
    fn empty_chain_answers_the_safe_default() {
        let chain = ResilientSelector::new(MetricKind::ReLate2);
        let choice = chain.select(&lossy_env(5), &AppParams::new(2, 100));
        assert_eq!(choice.source, SelectorSource::Default);
        assert_eq!(choice.protocol, ResilientSelector::fallback_protocol());
        assert_eq!(choice.confidence, 0.0);
        assert_eq!(chain.metric(), MetricKind::ReLate2);
    }

    #[test]
    fn margin_of_scores() {
        assert_eq!(top_two_margin(&[0.9, 0.1, 0.05]), 0.8);
        assert_eq!(top_two_margin(&[0.5]), 0.5);
        assert_eq!(top_two_margin(&[0.4, 0.4]), 0.0);
    }

    #[test]
    fn backoff_enforces_dwell_and_doubles() {
        let mut b = SwitchBackoff::new(SimDuration::from_secs(2), SimDuration::from_secs(8));
        assert!(b.may_switch(SimTime::ZERO));
        // Each switch opens the next one `dwell` later: 2 s, then 4 s, then
        // 8 s, and the cap holds it at 8 s.
        for (at, dwell) in [(1, 2), (3, 4), (10, 8), (20, 8)] {
            b.record_switch(SimTime::from_secs(at));
            let allowed = SimTime::from_secs(at + dwell);
            assert!(!b.may_switch(SimTime::from_nanos(allowed.as_nanos() - 1)));
            assert!(b.may_switch(allowed), "switch at {at} s, dwell {dwell} s");
        }
    }

    #[test]
    #[should_panic(expected = "dwell time")]
    fn zero_dwell_rejected() {
        SwitchBackoff::new(SimDuration::ZERO, SimDuration::from_secs(1));
    }

    #[test]
    fn bandwidth_probe_quantises_to_nearest_class() {
        assert_eq!(
            nearest_bandwidth_class(Bandwidth::GBPS_1),
            BandwidthClass::Gbps1
        );
        assert_eq!(
            nearest_bandwidth_class(Bandwidth::MBPS_100),
            BandwidthClass::Mbps100
        );
        assert_eq!(
            nearest_bandwidth_class(Bandwidth::MBPS_10),
            BandwidthClass::Mbps10
        );
        assert_eq!(
            nearest_bandwidth_class(Bandwidth::from_bps(250_000_000)),
            BandwidthClass::Mbps100
        );
    }

    #[test]
    fn time_to_recover_reads_the_window_sequence() {
        let window = |start_s: u64, published: u64, lat: f64| WindowQos {
            start: SimTime::from_secs(start_s),
            length: SimDuration::from_secs(1),
            published,
            delivered: published,
            avg_latency_us: lat,
            jitter_us: 0.0,
        };
        let outcome = HealingOutcome {
            windows: vec![
                window(0, 100, 1_000.0),
                window(1, 100, 1_000.0),
                window(2, 100, 9_000.0), // fault lands here
                window(3, 100, 9_000.0),
                window(4, 100, 1_050.0), // healed
                window(5, 100, 1_050.0),
                window(6, 0, 0.0), // grace
            ],
            alarms: 1,
            switches: Vec::new(),
            suppressed_switches: 0,
            initial_protocol: ResilientSelector::fallback_protocol(),
            final_protocol: ResilientSelector::fallback_protocol(),
            report: QosReport::builder(600, 1).finish(),
            trace: Vec::new(),
            online: OnlineStats::default(),
        };
        let baseline = outcome.mean_relate2(0..2);
        assert!((baseline - 1_000.0).abs() < 1e-9);
        let ttr = outcome
            .time_to_recover(SimTime::from_secs(2), baseline, 1.2)
            .unwrap();
        assert_eq!(ttr, SimDuration::from_secs(2));
        // Never-degraded stream recovers instantly.
        assert_eq!(
            outcome.time_to_recover(SimTime::from_secs(4), baseline, 1.2),
            Some(SimDuration::ZERO)
        );
    }
}
