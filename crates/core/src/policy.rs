//! The unified adaptation policy: probe → learn → adapt behind one API.
//!
//! The paper's runtime-adaptation extension is one loop, and
//! [`AdaptivePolicy`] is it: a QoS monitor notices degradation
//! ([`MonitorThresholds`]), a probe re-reads the environment, a
//! [`ResilientSelector`] answers "which transport?", a switch backoff stops
//! flapping, and the mid-stream reinstall swaps the transport — behind one
//! builder. It adds *online learning* on top: a fleet's per-shard
//! [`WindowQos`] observations stream into a
//! bounded [`FeedbackRing`] (never blocking the hot path — when full, the
//! oldest observation is overwritten and counted), an [`OnlineTrainer`]
//! periodically folds the ring into labelled training rows and fits a
//! candidate selector, and the candidate is hot-swapped into the live
//! policy **only** if it does not regress against a held-out slice of the
//! same observations.
//!
//! The hot-swap is safe by construction:
//!
//! 1. The candidate never touches the wire directly — swapping a model
//!    changes only future *answers*; actual protocol switches still flow
//!    through the alarm → probe → select → backoff → reinstall path, so
//!    the anti-flapping dwell and mid-stream state harvesting are
//!    unchanged.
//! 2. A candidate that scores worse than the incumbent on the holdout is
//!    rejected (counted in [`OnlineStats::rejected`]), so a burst of noisy
//!    windows cannot replace a good model with a bad one.
//! 3. The loop is single-threaded and deterministic: the swap is a plain
//!    assignment between windows, and two runs with the same seed, faults,
//!    and configuration produce identical outcomes.

use adamant_ann::{train_with_validation, Activation, NeuralNetwork, TrainParams};
use adamant_dds::{session, DomainParticipant, QosProfile};
use adamant_metrics::{Delivery, MetricKind, QosAccumulator, QosReport, WindowQos};
use adamant_netsim::{FaultPlan, MemorySink, ObsEvent, SimDuration, SimTime, Simulation};
use adamant_transport::{AppSpec, TransportConfig, PAPER_PAYLOAD_BYTES};

use crate::dataset::{best_class_with_margin, DatasetRow, LabeledDataset, LABEL_MARGIN};
use crate::env::{AppParams, Environment};
use crate::features::{candidate_protocols, class_index, FEATURE_DIM};
use crate::healing::{
    probe_environment, HealingOutcome, ResilientChoice, ResilientSelector, SwitchBackoff,
    SwitchRecord,
};
use crate::selector::{ProtocolSelector, TreeSelector};

/// Alarm thresholds of the adaptation loop's QoS monitor.
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

/// Watches the stream of windows and raises an alarm when QoS degrades
/// persistently — the "system monitoring the environment" trigger the
/// paper's conclusion sketches for runtime adaptation.
#[derive(Debug, Clone)]
pub(crate) struct QosMonitor {
    thresholds: MonitorThresholds,
    consecutive_bad: u32,
    alarms: u64,
}

impl QosMonitor {
    pub(crate) fn new(thresholds: MonitorThresholds) -> Self {
        QosMonitor {
            thresholds,
            consecutive_bad: 0,
            alarms: 0,
        }
    }

    /// Feeds one window; returns `true` when the degradation alarm fires
    /// (once per sustained episode — the counter re-arms after a good
    /// window).
    pub(crate) fn observe_window(&mut self, window: &WindowQos) -> bool {
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
}

/// One windowed QoS observation from one shard of the fleet: "running
/// protocol class `class` under (what the shard probed as) `env`, this
/// window measured `window`".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosObservation {
    /// The environment the shard observed itself running in.
    pub env: Environment,
    /// The shard's application parameters.
    pub app: AppParams,
    /// The metric the shard's policy optimises.
    pub metric: MetricKind,
    /// Index (into [`candidate_protocols`]) of the protocol the shard was
    /// running during the window.
    pub class: usize,
    /// The windowed QoS measurement itself.
    pub window: WindowQos,
}

/// A bounded, non-blocking feedback ring. Pushing when full overwrites the
/// oldest observation and increments the drop counter — the hot path never
/// waits on the learner, and the learner can see exactly how much history
/// it lost. An impossible observation is refused and counted at the door.
#[derive(Debug, Clone)]
pub struct FeedbackRing {
    buf: std::collections::VecDeque<QosObservation>,
    capacity: usize,
    pushed: u64,
    dropped: u64,
    refused: u64,
}

impl FeedbackRing {
    /// Creates a ring holding at most `capacity` observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        FeedbackRing {
            buf: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            pushed: 0,
            dropped: 0,
            refused: 0,
        }
    }

    /// Pushes an observation, overwriting (and counting) the oldest when
    /// the ring is full. Never blocks, never allocates once warm.
    ///
    /// An observation no run can produce is refused and counted instead:
    /// a window with a non-finite or negative latency or jitter, or more
    /// deliveries than publications, whose score would make the fold panic
    /// (NaN) or tie the never-observed classes (∞) and mislabel the row;
    /// or a `class` outside [`candidate_protocols`], which no row can hold.
    pub fn push(&mut self, obs: QosObservation) {
        let w = &obs.window;
        let sane = |x: f64| x.is_finite() && x >= 0.0;
        let window_ok = sane(w.avg_latency_us) && sane(w.jitter_us) && w.delivered <= w.published;
        if !(window_ok && obs.class < candidate_protocols().len()) {
            self.refused += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(obs);
        self.pushed += 1;
    }

    /// Observations currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no observations.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total observations ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Observations overwritten before the learner consumed them.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Observations refused as impossible (see [`push`](Self::push)).
    pub fn refused(&self) -> u64 {
        self.refused
    }

    /// Folds the ring into labelled training rows: observations group by
    /// (environment, application, metric), each group scores every
    /// candidate class by its mean window score (unobserved classes score
    /// infinite, so they can never become the label), and the best
    /// observed class — with the same stability margin the offline sweep
    /// uses — becomes the row's label.
    pub fn fold(&self) -> LabeledDataset {
        // One accumulator per configuration group: (sum, count) per class.
        type Group = (Environment, AppParams, MetricKind, Vec<(f64, u32)>);
        let classes = candidate_protocols().len();
        let mut groups: Vec<Group> = Vec::new();
        for obs in &self.buf {
            if obs.window.published == 0 {
                continue;
            }
            let group = match groups
                .iter_mut()
                .find(|(e, a, m, _)| *e == obs.env && *a == obs.app && *m == obs.metric)
            {
                Some(found) => found,
                None => {
                    groups.push((obs.env, obs.app, obs.metric, vec![(0.0, 0); classes]));
                    groups.last_mut().expect("just pushed")
                }
            };
            let slot = &mut group.3[obs.class];
            slot.0 += window_score(&obs.window);
            slot.1 += 1;
        }
        let rows = groups
            .into_iter()
            .map(|(env, app, metric, sums)| {
                let scores: Vec<f64> = sums
                    .iter()
                    .map(|&(sum, n)| {
                        if n == 0 {
                            f64::INFINITY
                        } else {
                            sum / f64::from(n)
                        }
                    })
                    .collect();
                let best_class = best_class_with_margin(&scores, LABEL_MARGIN);
                DatasetRow {
                    env,
                    app,
                    metric,
                    best_class,
                    scores,
                }
            })
            .collect();
        LabeledDataset { rows }
    }
}

/// The score one window contributes to its class: windowed ReLate2, with
/// total loss bounded as "every sample took the whole window and none
/// arrived" — strictly worse than any protocol that delivered something.
fn window_score(w: &WindowQos) -> f64 {
    if w.delivered == 0 {
        w.length.as_micros_f64() * 101.0
    } else {
        w.relate2()
    }
}

/// Configuration of the online trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineTrainingConfig {
    /// Feedback-ring capacity (observations).
    pub ring_capacity: usize,
    /// Retrain after this many published windows have been observed.
    pub cadence_windows: u32,
    /// Minimum folded rows before a retrain is attempted.
    pub min_rows: usize,
    /// Hidden-node count of candidate networks.
    pub hidden_nodes: usize,
    /// Training parameters for candidates (epoch budget per retrain).
    pub train: TrainParams,
    /// Epochs per early-stopping round.
    pub round_epochs: u32,
    /// Early-stopping patience (rounds without holdout improvement).
    pub patience: u32,
    /// Weight-initialisation seed (varied per retrain).
    pub seed: u64,
}

impl Default for OnlineTrainingConfig {
    fn default() -> Self {
        OnlineTrainingConfig {
            ring_capacity: 1_024,
            cadence_windows: 8,
            min_rows: 8,
            hidden_nodes: 24,
            train: TrainParams {
                max_epochs: 600,
                ..TrainParams::default()
            },
            round_epochs: 50,
            patience: 4,
            seed: 0xADA9,
        }
    }
}

/// Running counters of the online adaptation path, reported in
/// [`HealingOutcome::online`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OnlineStats {
    /// Windowed observations pushed into the feedback ring.
    pub observations: u64,
    /// Observations overwritten before a retrain consumed them.
    pub dropped: u64,
    /// Observations the ring refused as impossible: a window with a
    /// non-finite or negative latency or jitter, or more deliveries than
    /// publications, or a class outside the candidate protocols. They are
    /// never folded, so they can neither panic nor mislabel a retrain.
    pub refused: u64,
    /// Retrains attempted (enough rows were available).
    pub retrains: u64,
    /// Candidates that passed the holdout gate.
    pub accepted: u64,
    /// Candidates rejected for regressing on the holdout.
    pub rejected: u64,
    /// Accepted candidates actually hot-swapped into a live policy.
    pub swaps: u64,
}

/// The background incremental trainer: folds the feedback ring into
/// training rows, fits a candidate selector, and vets it against a holdout
/// before anyone is allowed to serve it.
#[derive(Debug, Clone)]
pub struct OnlineTrainer {
    pub(crate) config: OnlineTrainingConfig,
    ring: FeedbackRing,
    retrains: u64,
    accepted: u64,
    rejected: u64,
}

impl OnlineTrainer {
    /// Creates a trainer with an empty feedback ring.
    pub fn new(config: OnlineTrainingConfig) -> Self {
        OnlineTrainer {
            ring: FeedbackRing::new(config.ring_capacity),
            config,
            retrains: 0,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Feeds one shard observation into the ring (never blocks).
    pub fn observe(&mut self, obs: QosObservation) {
        self.ring.push(obs);
    }

    /// The feedback ring (for inspection).
    pub fn ring(&self) -> &FeedbackRing {
        &self.ring
    }

    /// Counters so far (swaps are counted by the policy that serves the
    /// accepted candidates, not here).
    pub fn stats(&self) -> OnlineStats {
        OnlineStats {
            observations: self.ring.pushed(),
            dropped: self.ring.dropped(),
            refused: self.ring.refused(),
            retrains: self.retrains,
            accepted: self.accepted,
            rejected: self.rejected,
            swaps: 0,
        }
    }

    /// Attempts a retrain: folds the ring, splits off a holdout (every
    /// fourth row), trains a candidate on the rest with early stopping
    /// against the holdout, and accepts the candidate only if its holdout
    /// accuracy does not regress against `live` (a missing live model
    /// scores zero, so any learning candidate beats it).
    ///
    /// Returns the vetted candidate, or `None` when there is not enough
    /// data yet or the candidate was rejected.
    pub fn maybe_retrain(&mut self, live: Option<&ProtocolSelector>) -> Option<ProtocolSelector> {
        let dataset = self.ring.fold();
        if dataset.len() < self.config.min_rows.max(2) {
            return None;
        }
        let mut train_rows = Vec::new();
        let mut holdout_rows = Vec::new();
        for (i, row) in dataset.rows.iter().enumerate() {
            if i % 4 == 0 {
                holdout_rows.push(row.clone());
            } else {
                train_rows.push(row.clone());
            }
        }
        if train_rows.is_empty() || holdout_rows.is_empty() {
            return None;
        }
        self.retrains += 1;
        let train_ds = LabeledDataset { rows: train_rows };
        let holdout_ds = LabeledDataset { rows: holdout_rows };
        let (train_data, scaler) = train_ds.to_training_data();
        let holdout_raw = holdout_ds.raw_inputs();
        let holdout_targets: Vec<Vec<f64>> = holdout_ds
            .rows
            .iter()
            .map(|r| adamant_ann::one_hot(r.best_class, candidate_protocols().len()))
            .collect();
        let holdout_data =
            adamant_ann::TrainingData::new(scaler.transform(&holdout_raw), holdout_targets);
        let mut network = NeuralNetwork::new(
            &[
                FEATURE_DIM,
                self.config.hidden_nodes,
                candidate_protocols().len(),
            ],
            Activation::fann_default(),
            self.config.seed ^ self.retrains,
        );
        train_with_validation(
            &mut network,
            &train_data,
            &holdout_data,
            &self.config.train,
            self.config.round_epochs,
            self.config.patience,
        );
        let candidate = ProtocolSelector::from_parts(network, scaler);
        let candidate_accuracy = candidate.evaluate_on(&holdout_ds).accuracy();
        let live_accuracy = live
            .map(|s| s.evaluate_on(&holdout_ds).accuracy())
            .unwrap_or(0.0);
        if candidate_accuracy >= live_accuracy {
            self.accepted += 1;
            Some(candidate)
        } else {
            self.rejected += 1;
            None
        }
    }
}

/// What to run: the stream a policy adapts. Decision knobs (thresholds,
/// backoff, online training) live on the [`AdaptivePolicy`]; this is only
/// the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// The provisioned environment the session starts in (faults may move
    /// the *actual* conditions away from it mid-run).
    pub env: Environment,
    /// Application parameters.
    pub app: AppParams,
    /// Samples the writer publishes over the whole session, switches
    /// included.
    pub samples: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Monitoring window length.
    pub window: SimDuration,
    /// Extra windows after the last publication, for tail recovery.
    pub grace: SimDuration,
    /// Whether to capture a structured observability trace of the run.
    pub observe: bool,
}

impl StreamConfig {
    /// A stream of the paper's 12-byte samples with the standard defaults:
    /// 1 s windows, 3 s grace, no trace capture.
    pub fn new(env: Environment, app: AppParams, samples: u64, seed: u64) -> Self {
        StreamConfig {
            env,
            app,
            samples,
            seed,
            window: SimDuration::from_secs(1),
            grace: SimDuration::from_secs(3),
            observe: false,
        }
    }

    /// Enables structured trace capture; the events come back in
    /// [`HealingOutcome::trace`].
    pub fn with_observation(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Overrides the monitoring window length.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Overrides the post-publication grace period.
    pub fn with_grace(mut self, grace: SimDuration) -> Self {
        self.grace = grace;
        self
    }
}

/// The unified adaptation policy: monitor thresholds, the resilient
/// selector chain, switch hysteresis, and (optionally) online training,
/// behind one builder.
///
/// ```
/// use adamant::prelude::*;
///
/// let policy = AdaptivePolicy::new(MetricKind::ReLate2)
///     .with_thresholds(MonitorThresholds::default())
///     .with_backoff(SimDuration::from_secs(2), SimDuration::from_secs(16));
/// let env = Environment::new(
///     MachineClass::Pc3000,
///     BandwidthClass::Gbps1,
///     DdsImplementation::OpenSplice,
///     3,
/// );
/// // With no models attached the chain answers the safe default.
/// let choice = policy.select(&env, &AppParams::new(2, 50));
/// assert_eq!(choice.protocol, ResilientSelector::fallback_protocol());
/// ```
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    selector: ResilientSelector,
    thresholds: MonitorThresholds,
    backoff: SwitchBackoff,
    online: Option<OnlineTrainingConfig>,
}

impl AdaptivePolicy {
    /// A policy optimising `metric` with default thresholds and backoff
    /// (2 s dwell doubling to 16 s) and no models yet.
    pub fn new(metric: MetricKind) -> Self {
        AdaptivePolicy {
            selector: ResilientSelector::new(metric),
            thresholds: MonitorThresholds::default(),
            backoff: SwitchBackoff::new(SimDuration::from_secs(2), SimDuration::from_secs(16)),
            online: None,
        }
    }

    /// Adds a trained ANN trusted only when its output margin reaches
    /// `confidence_floor`.
    pub fn with_ann(mut self, selector: ProtocolSelector, confidence_floor: f64) -> Self {
        self.selector = self.selector.with_ann(selector, confidence_floor);
        self
    }

    /// Adds the decision-tree fallback consulted when the ANN is absent or
    /// unsure.
    pub fn with_tree(mut self, tree: TreeSelector) -> Self {
        self.selector = self.selector.with_tree(tree);
        self
    }

    /// Overrides the degradation-alarm thresholds.
    pub fn with_thresholds(mut self, thresholds: MonitorThresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Overrides the switch dwell and backoff cap.
    ///
    /// # Panics
    ///
    /// Panics if `min_dwell` is zero or exceeds `max_backoff` (validated
    /// eagerly so a misconfigured policy fails at build time, not
    /// mid-stream).
    pub fn with_backoff(mut self, min_dwell: SimDuration, max_backoff: SimDuration) -> Self {
        self.backoff = SwitchBackoff::new(min_dwell, max_backoff);
        self
    }

    /// Enables online training: feed per-window observations into a
    /// feedback ring and periodically hot-swap vetted candidate models
    /// into the live chain.
    pub fn with_online_training(mut self, config: OnlineTrainingConfig) -> Self {
        self.online = Some(config);
        self
    }

    /// The metric the policy optimises.
    pub fn metric(&self) -> MetricKind {
        self.selector.metric()
    }

    /// The underlying selector chain.
    pub fn selector(&self) -> &ResilientSelector {
        &self.selector
    }

    /// Whether online training is enabled.
    pub fn online_training(&self) -> Option<&OnlineTrainingConfig> {
        self.online.as_ref()
    }

    /// Answers one selection query through the fallback chain.
    pub fn select(&self, env: &Environment, app: &AppParams) -> ResilientChoice {
        self.selector.select(env, app)
    }

    /// Runs `stream` on `initial`, applying `plan`'s faults at their
    /// scheduled instants, until the stream completes (plus grace) — the
    /// closed monitor → probe → select → reconfigure loop, with the online
    /// learn → vet → hot-swap path layered on when configured.
    ///
    /// The topic uses the time-critical QoS profile, which every candidate
    /// protocol satisfies — a healing switch must never be vetoed by QoS
    /// validation.
    ///
    /// # Panics
    ///
    /// Panics if `initial` cannot carry a time-critical topic (e.g. plain
    /// UDP), or if a fault crashes the session's *sender* (warm-standby
    /// failover lives in `adamant-transport`, not in this loop).
    pub fn run_stream(
        &self,
        stream: &StreamConfig,
        initial: TransportConfig,
        mut plan: FaultPlan,
    ) -> HealingOutcome {
        let cfg = *stream;
        let qos = QosProfile::time_critical();
        let mut participant = DomainParticipant::new(0, cfg.env.dds);
        let topic = participant
            .create_topic::<[u8; 12]>("adamant/self-healing", qos)
            .expect("fresh participant has no topics");
        let app = AppSpec::at_rate(cfg.samples, cfg.app.rate_hz as f64, PAPER_PAYLOAD_BYTES);
        participant
            .create_data_writer(topic, qos, app)
            .expect("topic has no writer yet");
        for _ in 0..cfg.app.receivers {
            participant
                .create_data_reader(topic, qos, cfg.env.drop_probability())
                .expect("reader creation is infallible here");
        }

        let mut sim = Simulation::new(cfg.seed).with_network(cfg.env.network_config());
        if cfg.observe {
            sim.set_obs_sink(MemorySink::new());
        }
        let host = cfg.env.host_config();
        let readers = vec![host; cfg.app.receivers as usize];
        let mut handles =
            session::install_topic(&mut sim, &participant, topic, initial, host, &readers)
                .expect("initial transport must satisfy time-critical qos");

        let receiver_count = handles.receivers.len() as u64;
        let mut live = self.selector.clone();
        let mut trainer = self.online.map(OnlineTrainer::new);
        let mut windows_since_retrain = 0u32;
        let mut swaps = 0u64;
        let mut monitor = QosMonitor::new(self.thresholds);
        let mut backoff = self.backoff;
        let mut current = initial.kind;
        // Reception logs die with their agents on a switch; what a dead
        // incarnation delivered is merged here first, per reader.
        let mut harvested = vec![(QosAccumulator::default(), 0u64); handles.receivers.len()];
        let mut published_before = 0u64;
        let mut last_published_total = 0u64;
        let mut windows: Vec<WindowQos> = Vec::new();
        let mut switches: Vec<SwitchRecord> = Vec::new();
        let mut suppressed_switches = 0u64;

        let per_window = (cfg.app.rate_hz as f64 * cfg.window.as_secs_f64()).max(1.0);
        let publish_windows = (cfg.samples as f64 / per_window).ceil() as usize + 1;
        let grace_windows = cfg.grace.as_nanos().div_ceil(cfg.window.as_nanos()) as usize;
        // Switches stretch the stream, but never unboundedly: cap the loop
        // well past any legitimate completion.
        let max_windows = 4 * (publish_windows + grace_windows) + 8;
        let mut publish_done_at: Option<usize> = None;

        for i in 0..max_windows {
            // Windows are [start, end): measure just shy of the boundary
            // so an event landing exactly on it is accounted — by both the
            // publication count and the delivery fold — to the next window.
            let start = SimTime::ZERO + cfg.window * i as u64;
            let measure_at = SimTime::from_nanos((start + cfg.window).as_nanos() - 1);
            plan.run_until(&mut sim, measure_at);

            let published_total = published_before + session::published_count(&sim, &handles);
            let published = (published_total - last_published_total) * receiver_count;
            last_published_total = published_total;

            // Each delivery is read once, at the first measure point after
            // it: a sample published in this window cannot have arrived
            // before the window began, and one published earlier belongs
            // to a window already read.
            let mut qos = QosAccumulator::default();
            for &node in &handles.receivers {
                if !sim.is_crashed(node) {
                    let log = session::reader_mut(&mut sim, node).log_mut();
                    let captured = log.take_captured().expect("readers capture");
                    fold_window(&mut qos, start, captured);
                }
            }
            let window = window_qos(start, cfg.window, published, &qos);
            windows.push(window);

            // Grace windows publish nothing and would read as zero
            // reliability; only live windows feed the monitor.
            if window.published > 0 && monitor.observe_window(&window) {
                sim.emit(ObsEvent::HealAlarm { window: i as u32 });
                let remaining = cfg.samples.saturating_sub(published_total);
                let probed = probe_environment(&cfg.env, &sim, &handles, &window, qos.recovered());
                sim.emit(ObsEvent::HealProbe {
                    loss_percent: probed.loss_percent,
                });
                let choice = live.select(&probed, &cfg.app);
                sim.emit(ObsEvent::HealDecision {
                    source: choice.source.code(),
                    protocol: choice.protocol.code(),
                });
                if choice.protocol != current && remaining > 0 {
                    if backoff.may_switch(sim.now()) {
                        for (slot, &node) in harvested.iter_mut().zip(&handles.receivers) {
                            if !sim.is_crashed(node) {
                                let r = session::reader(&sim, node);
                                slot.0.merge(r.log().qos());
                                slot.1 += r.duplicates();
                            }
                        }
                        published_before = published_total;
                        let from = current;
                        handles = session::reinstall_topic(
                            &mut sim,
                            &participant,
                            topic,
                            &handles,
                            TransportConfig::new(choice.protocol),
                            remaining,
                        )
                        .expect("candidate protocols satisfy time-critical qos");
                        current = choice.protocol;
                        backoff.record_switch(sim.now());
                        sim.emit(ObsEvent::HealSwitch {
                            from: from.code(),
                            to: current.code(),
                            source: choice.source.code(),
                        });
                        switches.push(SwitchRecord {
                            at: sim.now(),
                            from,
                            to: current,
                            source: choice.source,
                            probed,
                        });
                    } else {
                        suppressed_switches += 1;
                        sim.emit(ObsEvent::HealSuppressed {
                            want: choice.protocol.code(),
                        });
                    }
                }
            }

            // The online feedback path: every published window becomes one
            // shard observation; on cadence, a vetted candidate hot-swaps
            // into the live chain. The swap changes only future answers —
            // protocol changes still go through the alarm path above.
            if let Some(tr) = trainer.as_mut() {
                if window.published > 0 {
                    if let Some(class) = class_index(current) {
                        let observed =
                            probe_environment(&cfg.env, &sim, &handles, &window, qos.recovered());
                        tr.observe(QosObservation {
                            env: observed,
                            app: cfg.app,
                            metric: live.metric(),
                            class,
                            window,
                        });
                        windows_since_retrain += 1;
                        if windows_since_retrain >= tr.config.cadence_windows {
                            windows_since_retrain = 0;
                            if let Some(candidate) = tr.maybe_retrain(live.ann()) {
                                live.replace_ann(candidate);
                                swaps += 1;
                            }
                        }
                    }
                }
            }

            if publish_done_at.is_none() && published_total >= cfg.samples {
                publish_done_at = Some(i);
            }
            if let Some(done) = publish_done_at {
                if i - done >= grace_windows {
                    break;
                }
            }
        }

        let mut builder = QosReport::builder(cfg.samples, handles.receivers.len() as u32);
        for ((qos, duplicates), &node) in harvested.iter().zip(&handles.receivers) {
            builder.merge_receiver(qos, *duplicates);
            if !sim.is_crashed(node) {
                let r = session::reader(&sim, node);
                builder.merge_receiver(r.log().qos(), r.duplicates());
            }
        }
        builder
            .wire(
                sim.stats().bytes_per_second(),
                sim.stats().total_bytes_delivered(),
            )
            .duration_secs(sim.now().as_secs_f64());

        let mut online = trainer
            .as_ref()
            .map(OnlineTrainer::stats)
            .unwrap_or_default();
        online.swaps = swaps;

        HealingOutcome {
            windows,
            alarms: monitor.alarms,
            switches,
            suppressed_switches,
            initial_protocol: initial.kind,
            final_protocol: current,
            report: builder.finish(),
            trace: sim.take_obs_events(),
            online,
        }
    }
}

/// Folds into `window` the captured deliveries of samples published at or
/// after the window's `start`.
fn fold_window(
    window: &mut QosAccumulator,
    start: SimTime,
    captured: impl Iterator<Item = Delivery>,
) {
    for d in captured.filter(|d| d.published_at >= start) {
        window.record(d.latency(), d.recovered);
    }
}

/// The QoS of a window from the deliveries of the `published` samples
/// published in it.
fn window_qos(
    start: SimTime,
    length: SimDuration,
    published: u64,
    qos: &QosAccumulator,
) -> WindowQos {
    WindowQos {
        start,
        length,
        published,
        delivered: qos.delivered(),
        avg_latency_us: qos.mean_us(),
        jitter_us: qos.stddev_us(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::BandwidthClass;
    use crate::selector::SelectorConfig;
    use adamant_dds::DdsImplementation;
    use adamant_netsim::MachineClass;
    use adamant_transport::ProtocolKind;

    fn qos_window(latency_us: f64, published: u64, delivered: u64) -> WindowQos {
        WindowQos {
            start: SimTime::ZERO,
            length: SimDuration::from_secs(1),
            published,
            delivered,
            avg_latency_us: latency_us,
            jitter_us: 0.0,
        }
    }

    fn env_with_loss(loss: u8, bandwidth: BandwidthClass) -> Environment {
        Environment::new(
            MachineClass::Pc3000,
            bandwidth,
            DdsImplementation::OpenSplice,
            loss,
        )
    }

    fn obs(env: Environment, class: usize, latency_us: f64) -> QosObservation {
        QosObservation {
            env,
            app: AppParams::new(2, 100),
            metric: MetricKind::ReLate2,
            class,
            window: qos_window(latency_us, 100, 100),
        }
    }

    /// Fills a ring with a loss-dependent truth across a grid of
    /// environments (one group per env): under light loss class 0 wins,
    /// under heavy loss class 3 does — a pattern a trained model recalls
    /// but a constant guess cannot.
    fn drifted_observations(trainer: &mut OnlineTrainer) {
        for bandwidth in BandwidthClass::all() {
            for loss in 1..=8u8 {
                let env = env_with_loss(loss, bandwidth);
                let (slow, fast) = if loss <= 4 { (3, 0) } else { (0, 3) };
                for rep in 0..3u64 {
                    trainer.observe(obs(env, slow, 9_000.0 + rep as f64));
                    trainer.observe(obs(env, fast, 700.0 + rep as f64));
                }
            }
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = FeedbackRing::new(4);
        for i in 0..6u64 {
            ring.push(obs(env_with_loss(1, BandwidthClass::Gbps1), 0, i as f64));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.pushed(), 6);
        assert_eq!(ring.dropped(), 2);
        // The survivors are the newest four.
        let ds = ring.fold();
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn fold_labels_the_best_observed_class() {
        let mut ring = FeedbackRing::new(64);
        let env = env_with_loss(5, BandwidthClass::Gbps1);
        ring.push(obs(env, 0, 9_000.0));
        ring.push(obs(env, 0, 11_000.0));
        ring.push(obs(env, 3, 800.0));
        let ds = ring.fold();
        assert_eq!(ds.len(), 1);
        let row = &ds.rows[0];
        assert_eq!(row.best_class, 3);
        assert_eq!(row.scores[0], 10_000.0);
        assert_eq!(row.scores[3], 800.0);
        // Unobserved classes can never become the label.
        assert!(row.scores[1].is_infinite());
    }

    #[test]
    fn zero_delivery_windows_score_worst() {
        let mut ring = FeedbackRing::new(64);
        let env = env_with_loss(5, BandwidthClass::Gbps1);
        let mut dead = obs(env, 0, 0.0);
        dead.window = qos_window(0.0, 100, 0);
        ring.push(dead);
        // A protocol that delivered slowly still beats one that delivered
        // nothing at all.
        ring.push(obs(env, 3, 500_000.0));
        let ds = ring.fold();
        assert_eq!(ds.rows[0].best_class, 3);
        assert!(ds.rows[0].scores[0] > ds.rows[0].scores[3]);
    }

    /// A NaN latency panicked the fold's labelling, and an infinite one,
    /// when alone in its group, tied the never-observed classes so class 0
    /// was labelled best without ever having run.
    #[test]
    fn impossible_windows_are_refused_and_the_retrain_is_the_clean_one() {
        let mut clean = OnlineTrainer::new(OnlineTrainingConfig::default());
        drifted_observations(&mut clean);
        let mut dirty = OnlineTrainer::new(OnlineTrainingConfig::default());
        let env = env_with_loss(3, BandwidthClass::Gbps1);
        let hostile = [
            qos_window(f64::NAN, 100, 100),
            qos_window(f64::INFINITY, 100, 100),
            qos_window(-5.0, 100, 100),
            qos_window(700.0, 100, 101),
            WindowQos {
                jitter_us: f64::NAN,
                ..qos_window(700.0, 100, 100)
            },
        ];
        for (i, window) in hostile.into_iter().enumerate() {
            // Alone in a group of its own (where an ∞ tied the unobserved
            // classes), and in a group the valid stream fills too.
            let lone = env_with_loss(10 + i as u8, BandwidthClass::Gbps1);
            for (env, class) in [(lone, 2), (env, i % 4)] {
                dirty.observe(QosObservation {
                    window,
                    ..obs(env, class, 0.0)
                });
            }
        }
        // A sound window of a class no candidate has: it was counted as
        // pushed, then skipped by the fold.
        for class in [candidate_protocols().len(), usize::MAX] {
            dirty.observe(obs(env, class, 700.0));
        }
        drifted_observations(&mut dirty);
        let (got, want) = (dirty.maybe_retrain(None), clean.maybe_retrain(None));
        assert_eq!(got.expect("a candidate"), want.expect("a candidate"));
        assert_eq!(dirty.ring().fold(), clean.ring().fold());
        let (dirty, clean) = (dirty.stats(), clean.stats());
        assert_eq!((dirty.refused, clean.refused), (12, 0));
        assert_eq!(dirty.observations, clean.observations);
    }

    #[test]
    fn an_infinite_window_alone_cannot_label_its_group() {
        let mut ring = FeedbackRing::new(8);
        ring.push(QosObservation {
            window: qos_window(f64::INFINITY, 100, 100),
            ..obs(env_with_loss(5, BandwidthClass::Gbps1), 2, 0.0)
        });
        assert_eq!((ring.len(), ring.pushed(), ring.refused()), (0, 0, 1));
        assert!(ring.fold().is_empty(), "no row, so no class-0 label");
    }

    #[test]
    fn monitor_fires_once_per_sustained_episode() {
        let mut monitor = QosMonitor::new(MonitorThresholds {
            min_reliability: 0.95,
            max_avg_latency_us: 2_000.0,
            consecutive_windows: 2,
        });
        // Healthy stream: no alarms.
        assert!(!monitor.observe_window(&qos_window(500.0, 100, 100)));
        // One bad window: not yet.
        assert!(!monitor.observe_window(&qos_window(500.0, 100, 80)));
        // Second consecutive: alarm fires exactly once.
        assert!(monitor.observe_window(&qos_window(500.0, 100, 80)));
        assert!(!monitor.observe_window(&qos_window(500.0, 100, 80)));
        assert_eq!(monitor.alarms, 1);
        // Recovery re-arms the detector; a latency episode fires again.
        assert!(!monitor.observe_window(&qos_window(500.0, 100, 100)));
        assert!(!monitor.observe_window(&qos_window(9_000.0, 100, 100)));
        assert!(monitor.observe_window(&qos_window(9_000.0, 100, 100)));
        assert_eq!(monitor.alarms, 2);
    }

    fn delivery(published_ms: u64, delivered_ms: u64, recovered: bool) -> Delivery {
        Delivery {
            seq: published_ms,
            published_at: SimTime::from_millis(published_ms),
            delivered_at: SimTime::from_millis(delivered_ms),
            recovered,
        }
    }

    /// A window reads the deliveries of its own samples only: a recovery
    /// late in the window counts toward it with its whole latency, while a
    /// late delivery of an earlier window's sample — already read at that
    /// window's measure point — counts nowhere.
    #[test]
    fn a_window_folds_the_deliveries_of_its_own_samples() {
        let start = SimTime::from_secs(1);
        let captured = [
            delivery(950, 1_050, true),    // window 0's, recovered in window 1
            delivery(1_000, 1_000, false), // published as window 1 starts
            delivery(1_100, 1_600, true),  // recovered 500 ms later
            delivery(1_200, 1_300, false),
        ];
        let mut qos = QosAccumulator::default();
        fold_window(&mut qos, start, captured.into_iter());
        let window = window_qos(start, SimDuration::from_secs(1), 4, &qos);
        assert_eq!((window.published, window.delivered), (4, 3));
        assert_eq!(qos.recovered(), 1);
        assert_eq!(window.reliability(), 0.75);
        assert!((window.avg_latency_us - 200_000.0).abs() < 1e-9);
        // Latencies 0, 500 and 100 ms: deviations −200, 300 and −100 ms.
        let jitter = (140_000.0f64 / 3.0).sqrt() * 1_000.0;
        assert!(
            (window.jitter_us - jitter).abs() < 1e-6,
            "{}",
            window.jitter_us
        );
    }

    #[test]
    fn an_empty_window_reads_reliability_zero() {
        let mut qos = QosAccumulator::default();
        fold_window(
            &mut qos,
            SimTime::from_secs(3),
            [delivery(2_500, 3_100, true)].into_iter(),
        );
        let window = window_qos(SimTime::from_secs(3), SimDuration::from_secs(1), 0, &qos);
        assert_eq!((window.delivered, qos.recovered()), (0, 0));
        assert_eq!(window.reliability(), 0.0);
        assert_eq!((window.avg_latency_us, window.jitter_us), (0.0, 0.0));
    }

    #[test]
    fn trainer_waits_for_enough_rows() {
        let mut trainer = OnlineTrainer::new(OnlineTrainingConfig::default());
        trainer.observe(obs(env_with_loss(1, BandwidthClass::Gbps1), 0, 500.0));
        assert!(trainer.maybe_retrain(None).is_none());
        assert_eq!(trainer.stats().retrains, 0);
    }

    #[test]
    fn trainer_learns_the_drifted_pattern() {
        let mut trainer = OnlineTrainer::new(OnlineTrainingConfig::default());
        drifted_observations(&mut trainer);
        let candidate = trainer
            .maybe_retrain(None)
            .expect("candidate beats an absent live model");
        let stats = trainer.stats();
        assert_eq!(stats.retrains, 1);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.rejected, 0);
        let selection = candidate.select(
            &env_with_loss(7, BandwidthClass::Gbps1),
            &AppParams::new(2, 100),
            MetricKind::ReLate2,
        );
        assert_eq!(
            selection.protocol,
            candidate_protocols()[3],
            "candidate should recommend the class the fleet measured best"
        );
    }

    #[test]
    fn regressing_candidate_is_rejected_by_the_holdout_gate() {
        // The live model is trained well on exactly the rows the ring
        // folds to; the trainer is crippled (two hidden nodes, one epoch),
        // so its candidate must score worse on the holdout and be refused.
        let mut trainer = OnlineTrainer::new(OnlineTrainingConfig {
            hidden_nodes: 2,
            train: TrainParams {
                max_epochs: 1,
                ..TrainParams::default()
            },
            round_epochs: 1,
            patience: 1,
            ..OnlineTrainingConfig::default()
        });
        drifted_observations(&mut trainer);
        let folded = trainer.ring().fold();
        let (live, _) = ProtocolSelector::train_from(&folded, &SelectorConfig::default());
        assert!(
            live.evaluate_on(&folded).accuracy() > 0.9,
            "live model must be competent for the gate to bite"
        );
        assert!(
            trainer.maybe_retrain(Some(&live)).is_none(),
            "an under-trained candidate must not replace a good live model"
        );
        let stats = trainer.stats();
        assert_eq!(stats.retrains, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn policy_builder_composes_and_answers() {
        let policy = AdaptivePolicy::new(MetricKind::ReLate2)
            .with_thresholds(MonitorThresholds::default())
            .with_backoff(SimDuration::from_secs(1), SimDuration::from_secs(4));
        assert_eq!(policy.metric(), MetricKind::ReLate2);
        assert!(policy.online_training().is_none());
        let choice = policy.select(
            &env_with_loss(5, BandwidthClass::Gbps1),
            &AppParams::new(2, 100),
        );
        assert_eq!(choice.protocol, ResilientSelector::fallback_protocol());
    }

    #[test]
    #[should_panic(expected = "dwell time")]
    fn policy_rejects_zero_dwell_at_build_time() {
        let _ = AdaptivePolicy::new(MetricKind::ReLate2)
            .with_backoff(SimDuration::ZERO, SimDuration::from_secs(1));
    }

    #[test]
    fn run_stream_without_online_training_reports_no_online_activity() {
        let env = env_with_loss(2, BandwidthClass::Gbps1);
        let plan = FaultPlan::new().set_network_at(
            SimTime::from_secs(2),
            env_with_loss(9, BandwidthClass::Gbps1).network_config(),
        );
        let initial = TransportConfig::new(ProtocolKind::Nakcast {
            timeout: SimDuration::from_millis(50),
        });
        let stream = StreamConfig::new(env, AppParams::new(2, 100), 600, 7).with_observation();
        let outcome = AdaptivePolicy::new(MetricKind::ReLate2).run_stream(&stream, initial, plan);
        assert_eq!(outcome.online, OnlineStats::default());
    }

    #[test]
    fn online_run_observes_the_stream() {
        let env = env_with_loss(2, BandwidthClass::Gbps1);
        let app = AppParams::new(2, 100);
        let policy =
            AdaptivePolicy::new(MetricKind::ReLate2).with_online_training(OnlineTrainingConfig {
                cadence_windows: 2,
                ..OnlineTrainingConfig::default()
            });
        let stream = StreamConfig::new(env, app, 400, 11);
        let initial = TransportConfig::new(ResilientSelector::fallback_protocol());
        let outcome = policy.run_stream(&stream, initial, FaultPlan::new());
        assert!(outcome.online.observations > 0);
        assert_eq!(outcome.online.dropped, 0);
        // One protocol observed per group: retrains may trigger, but a
        // single-class fold can never mislabel, and no switch is possible
        // without an alarm.
        assert_eq!(outcome.switches.len(), 0);
    }
}
