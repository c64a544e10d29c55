//! Runtime verification: replay a captured observability trace against the
//! invariants the protocols and engine are supposed to uphold.
//!
//! The checker is deliberately independent of the engine — it sees only the
//! flat event stream a [`MemorySink`](adamant_proto::MemorySink) captured
//! (or a runtime endpoint reported), so a bug that corrupts both the engine state *and* its own report still
//! trips here unless it also forges a self-consistent trace.
//!
//! Invariants checked:
//!
//! 1. **No delivery after crash** — no packet or sample reaches a node
//!    between its `NodeCrashed` and the next `NodeRestarted`.
//! 2. **At-most-once** — each (receiver, incarnation, sequence) is accepted
//!    at most once; the reception logs suppress duplicates, so a second
//!    `SampleAccepted` is a transport bug.
//! 3. **Recovery latency bound** — every recovered delivery lands within
//!    the configured bound (for NAKcast, derive it from
//!    `nakcast_recovery_bound` in `adamant-transport`).
//! 4. **ReLate2 consistency** — ReLate2 recomputed from the trace's
//!    accepted samples equals the engine-reported value within tolerance.
//! 5. **No gap after catch-up** — a durable (TransientLocal) reader's
//!    acceptances, unioned across every incarnation, cover all published
//!    samples by the end of the trace: crash-restart loses nothing.
//! 6. **Cross-incarnation at-most-once** — a durable reader never accepts
//!    the same sequence in two incarnations (restart dedupe works).
//! 7. **Catch-up latency bound** — a restarted durable reader completes
//!    catch-up within the configured bound, and always completes.

use std::collections::{BTreeMap, BTreeSet};

use adamant_json::{Json, ToJson};
use adamant_proto::{ObsEvent, Span, TracedEvent};

use crate::composite::MetricKind;
use crate::report::{QosAccumulator, QosReport};

/// Which invariant a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// Delivery to a node currently in a crash epoch.
    NoDeliveryAfterCrash,
    /// Second acceptance of the same (receiver, incarnation, sequence).
    AtMostOnce,
    /// Recovered delivery slower than the recovery schedule allows.
    RecoveryLatencyBound,
    /// Trace-recomputed ReLate2 disagrees with the engine's report.
    Relate2Consistency,
    /// A durable reader's union of acceptances across incarnations misses
    /// published samples at the end of the trace.
    NoGapAfterCatchUp,
    /// A durable reader accepted the same sequence in two incarnations.
    CrossIncarnationAtMostOnce,
    /// A restarted durable reader finished catch-up too late, or never.
    CatchUpLatencyBound,
}

adamant_json::impl_json_unit_enum!(InvariantKind {
    NoDeliveryAfterCrash,
    AtMostOnce,
    RecoveryLatencyBound,
    Relate2Consistency,
    NoGapAfterCatchUp,
    CrossIncarnationAtMostOnce,
    CatchUpLatencyBound,
});

impl std::fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            InvariantKind::NoDeliveryAfterCrash => "no-delivery-after-crash",
            InvariantKind::AtMostOnce => "at-most-once",
            InvariantKind::RecoveryLatencyBound => "recovery-latency-bound",
            InvariantKind::Relate2Consistency => "relate2-consistency",
            InvariantKind::NoGapAfterCatchUp => "no-gap-after-catch-up",
            InvariantKind::CrossIncarnationAtMostOnce => "cross-incarnation-at-most-once",
            InvariantKind::CatchUpLatencyBound => "catch-up-latency-bound",
        };
        write!(f, "{name}")
    }
}

/// One invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The invariant that failed.
    pub invariant: InvariantKind,
    /// Trace time of the offending event (nanoseconds; 0 for run-level
    /// violations).
    pub time_ns: u64,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl ToJson for Violation {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("invariant".to_owned(), self.invariant.to_json()),
            ("time_ns".to_owned(), Json::Num(self.time_ns as f64)),
            ("detail".to_owned(), Json::Str(self.detail.clone())),
        ])
    }
}

/// What the checker needs to know about the run beyond the trace itself.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifySpec {
    /// Samples the writer published.
    pub samples_sent: u64,
    /// Number of data readers.
    pub receivers: u32,
    /// The engine's reported ReLate2, when checking consistency.
    pub reported_relate2: Option<f64>,
    /// Upper bound on recovered-delivery latency, when checking recovery.
    pub recovery_bound: Option<Span>,
    /// Absolute tolerance for the ReLate2 comparison.
    pub tolerance: f64,
    /// Nodes holding durable (TransientLocal) readers: their acceptances
    /// must union to every published sample across incarnations, exactly
    /// once per sequence.
    pub durable_nodes: BTreeSet<usize>,
    /// Upper bound on restart-to-catch-up-completion latency for durable
    /// nodes (derive it from `adamant_proto::catch_up_bound`).
    pub catch_up_bound: Option<Span>,
}

impl VerifySpec {
    /// A spec checking only the structural invariants (crash hygiene and
    /// at-most-once) for a run of `samples_sent × receivers`.
    pub fn new(samples_sent: u64, receivers: u32) -> Self {
        VerifySpec {
            samples_sent,
            receivers,
            reported_relate2: None,
            recovery_bound: None,
            tolerance: 1e-9,
            durable_nodes: BTreeSet::new(),
            catch_up_bound: None,
        }
    }

    /// Marks `nodes` as durable readers whose crash-restart recovery the
    /// checker must prove (invariants 5–7).
    pub fn with_durable_nodes(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        self.durable_nodes.extend(nodes);
        self
    }

    /// Also bound restart-to-catch-up-completion latency by `bound`.
    pub fn with_catch_up_bound(mut self, bound: Span) -> Self {
        self.catch_up_bound = Some(bound);
        self
    }

    /// Also check the trace-recomputed ReLate2 against `reported`.
    pub fn with_reported_relate2(mut self, reported: f64) -> Self {
        self.reported_relate2 = Some(reported);
        self
    }

    /// Also bound recovered-delivery latency by `bound`.
    pub fn with_recovery_bound(mut self, bound: Span) -> Self {
        self.recovery_bound = Some(bound);
        self
    }

    /// Overrides the ReLate2 comparison tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// The checker's result: violations plus the quantities it recomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// Events examined.
    pub events: usize,
    /// Unique samples accepted across receivers.
    pub accepted: u64,
    /// Of those, how many arrived through a recovery path.
    pub recovered: u64,
    /// ReLate2 recomputed from the trace alone.
    pub recomputed_relate2: f64,
    /// Every invariant violation, in trace order.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// Whether the trace satisfied every checked invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations of one particular invariant.
    pub fn violations_of(&self, kind: InvariantKind) -> usize {
        self.violations
            .iter()
            .filter(|v| v.invariant == kind)
            .count()
    }
}

impl ToJson for VerifyReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("events".to_owned(), Json::Num(self.events as f64)),
            ("accepted".to_owned(), Json::Num(self.accepted as f64)),
            ("recovered".to_owned(), Json::Num(self.recovered as f64)),
            (
                "recomputed_relate2".to_owned(),
                Json::Num(self.recomputed_relate2),
            ),
            ("violations".to_owned(), self.violations.to_json()),
        ])
    }
}

/// Replays `events` against the declared invariants.
///
/// The ReLate2 recomputation mirrors the engine: every accepted latency
/// folds into one order-independent [`QosAccumulator`], so with a faithful
/// trace the recomputed value is bit-identical to the report's.
pub fn verify_trace(events: &[TracedEvent], spec: &VerifySpec) -> VerifyReport {
    verify_inner(events, spec, true)
}

/// Replays `events` as a *prefix* of a longer run: only prefix-closed
/// invariants are checked.
///
/// A prefix-closed invariant is one a clean run can never violate partway
/// through — no-delivery-after-crash, at-most-once, recovery/catch-up
/// latency, cross-incarnation dedupe. End-of-trace completeness checks
/// (durable union covers every sample, every restart reached catch-up,
/// ReLate2 agreement) are skipped because an honest partial schedule fails
/// them trivially. The model checker in `adamant-mc` calls this on every
/// explored path and reserves [`verify_trace`] for quiescent terminal
/// states.
pub fn verify_trace_prefix(events: &[TracedEvent], spec: &VerifySpec) -> VerifyReport {
    verify_inner(events, spec, false)
}

fn verify_inner(events: &[TracedEvent], spec: &VerifySpec, end_of_trace: bool) -> VerifyReport {
    let mut crashed: BTreeSet<usize> = BTreeSet::new();
    let mut incarnation: BTreeMap<usize, u64> = BTreeMap::new();
    let mut seen: BTreeSet<(usize, u64, u64)> = BTreeSet::new();
    let mut qos = QosAccumulator::default();
    let mut violations = Vec::new();
    // Durable bookkeeping: per-node acceptance union across incarnations,
    // restart instants, and restarts still awaiting a CatchUpCompleted.
    let mut durable_union: BTreeMap<usize, BTreeSet<u64>> = spec
        .durable_nodes
        .iter()
        .map(|&n| (n, BTreeSet::new()))
        .collect();
    let mut restarted_at: BTreeMap<usize, u64> = BTreeMap::new();
    let mut pending_catch_up: BTreeSet<usize> = BTreeSet::new();

    for te in events {
        let time_ns = te.time.as_nanos();
        match te.event {
            ObsEvent::NodeCrashed { node, .. } => {
                crashed.insert(node.index());
            }
            ObsEvent::NodeRestarted { node, .. } => {
                crashed.remove(&node.index());
                *incarnation.entry(node.index()).or_insert(0) += 1;
                if spec.durable_nodes.contains(&node.index()) {
                    restarted_at.insert(node.index(), time_ns);
                    pending_catch_up.insert(node.index());
                }
            }
            ObsEvent::CatchUpCompleted { node, .. } => {
                let idx = node.index();
                pending_catch_up.remove(&idx);
                if let (Some(&t0), Some(bound)) = (restarted_at.get(&idx), spec.catch_up_bound) {
                    let elapsed = time_ns.saturating_sub(t0);
                    if elapsed > bound.as_nanos() {
                        violations.push(Violation {
                            invariant: InvariantKind::CatchUpLatencyBound,
                            time_ns,
                            detail: format!(
                                "{node} completed catch-up {elapsed} ns after restart \
                                 (bound {} ns)",
                                bound.as_nanos()
                            ),
                        });
                    }
                }
            }
            ObsEvent::PacketDelivered { node, wire_id, .. } if crashed.contains(&node.index()) => {
                violations.push(Violation {
                    invariant: InvariantKind::NoDeliveryAfterCrash,
                    time_ns,
                    detail: format!("packet {wire_id} delivered to crashed {node}"),
                });
            }
            ObsEvent::SampleAccepted {
                node,
                seq,
                published_ns,
                delivered_ns,
                recovered,
            } => {
                let idx = node.index();
                if crashed.contains(&idx) {
                    violations.push(Violation {
                        invariant: InvariantKind::NoDeliveryAfterCrash,
                        time_ns,
                        detail: format!("sample {seq} accepted by crashed {node}"),
                    });
                }
                let inc = incarnation.get(&idx).copied().unwrap_or(0);
                if !seen.insert((idx, inc, seq)) {
                    violations.push(Violation {
                        invariant: InvariantKind::AtMostOnce,
                        time_ns,
                        detail: format!("sample {seq} accepted twice by {node} (epoch {inc})"),
                    });
                    continue;
                }
                if let Some(union) = durable_union.get_mut(&idx) {
                    if !union.insert(seq) {
                        violations.push(Violation {
                            invariant: InvariantKind::CrossIncarnationAtMostOnce,
                            time_ns,
                            detail: format!("sample {seq} accepted by {node} in two incarnations"),
                        });
                        continue;
                    }
                }
                let latency_ns = delivered_ns.saturating_sub(published_ns);
                qos.record(Span::from_nanos(latency_ns), recovered);
                if let Some(bound) = spec.recovery_bound.filter(|_| recovered) {
                    if latency_ns > bound.as_nanos() {
                        violations.push(Violation {
                            invariant: InvariantKind::RecoveryLatencyBound,
                            time_ns,
                            detail: format!(
                                "sample {seq} recovered by {node} after {latency_ns} ns \
                                 (bound {} ns)",
                                bound.as_nanos()
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    let end_ns = events.last().map_or(0, |e| e.time.as_nanos());
    if !end_of_trace {
        pending_catch_up.clear();
        durable_union.clear();
    }
    for &idx in &pending_catch_up {
        violations.push(Violation {
            invariant: InvariantKind::CatchUpLatencyBound,
            time_ns: end_ns,
            detail: format!("node{idx} restarted but never completed catch-up"),
        });
    }
    for (&idx, union) in &durable_union {
        let missing: Vec<u64> = (0..spec.samples_sent)
            .filter(|seq| !union.contains(seq))
            .collect();
        if !missing.is_empty() {
            violations.push(Violation {
                invariant: InvariantKind::NoGapAfterCatchUp,
                time_ns: end_ns,
                detail: format!(
                    "node{idx} missing {} of {} samples across incarnations (first gap: {})",
                    missing.len(),
                    spec.samples_sent,
                    missing[0]
                ),
            });
        }
    }

    let mut report = QosReport::builder(spec.samples_sent, spec.receivers);
    let recomputed_relate2 = MetricKind::ReLate2.score(&report.merge_receiver(&qos, 0).finish());
    if let Some(reported) = spec.reported_relate2.filter(|_| end_of_trace) {
        if (recomputed_relate2 - reported).abs() > spec.tolerance {
            violations.push(Violation {
                invariant: InvariantKind::Relate2Consistency,
                time_ns: end_ns,
                detail: format!(
                    "trace ReLate2 {recomputed_relate2} vs reported {reported} \
                     (tolerance {})",
                    spec.tolerance
                ),
            });
        }
    }

    VerifyReport {
        events: events.len(),
        accepted: qos.delivered(),
        recovered: qos.recovered(),
        recomputed_relate2,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_proto::{NodeId, TimePoint};

    fn ev(time_us: u64, event: ObsEvent) -> TracedEvent {
        TracedEvent {
            time: TimePoint::from_micros(time_us),
            event,
        }
    }

    fn accept(time_us: u64, node: usize, seq: u64, recovered: bool) -> TracedEvent {
        ev(
            time_us,
            ObsEvent::SampleAccepted {
                node: NodeId::from_index(node),
                seq,
                published_ns: 0,
                delivered_ns: time_us * 1_000,
                recovered,
            },
        )
    }

    #[test]
    fn clean_trace_passes_and_recomputes_relate2() {
        // 2 samples × 1 receiver, both delivered at 1000 µs → ReLate2 1000.
        let trace = vec![accept(1_000, 1, 0, false), accept(1_000, 1, 1, false)];
        let spec = VerifySpec::new(2, 1).with_reported_relate2(1_000.0);
        let report = verify_trace(&trace, &spec);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.recomputed_relate2, 1_000.0);
    }

    #[test]
    fn double_acceptance_is_flagged() {
        let trace = vec![accept(10, 1, 0, false), accept(20, 1, 0, false)];
        let report = verify_trace(&trace, &VerifySpec::new(2, 1));
        assert_eq!(report.violations_of(InvariantKind::AtMostOnce), 1);
        assert_eq!(report.accepted, 1, "duplicate must not count as accepted");
    }

    #[test]
    fn restart_opens_a_new_incarnation() {
        let node = NodeId::from_index(1);
        let trace = vec![
            accept(10, 1, 0, false),
            ev(20, ObsEvent::NodeCrashed { node, epoch: 1 }),
            ev(30, ObsEvent::NodeRestarted { node, epoch: 2 }),
            accept(40, 1, 0, false), // fresh incarnation may re-accept seq 0
        ];
        let report = verify_trace(&trace, &VerifySpec::new(1, 1));
        assert_eq!(report.violations_of(InvariantKind::AtMostOnce), 0);
    }

    #[test]
    fn delivery_during_crash_epoch_is_flagged() {
        let node = NodeId::from_index(1);
        let trace = vec![
            ev(10, ObsEvent::NodeCrashed { node, epoch: 1 }),
            accept(20, 1, 0, false),
            ev(
                25,
                ObsEvent::PacketDelivered {
                    node,
                    tag: 1,
                    wire_id: 7,
                    size_bytes: 60,
                },
            ),
            ev(30, ObsEvent::NodeRestarted { node, epoch: 2 }),
            accept(40, 1, 1, false),
        ];
        let report = verify_trace(&trace, &VerifySpec::new(2, 1));
        assert_eq!(report.violations_of(InvariantKind::NoDeliveryAfterCrash), 2);
    }

    #[test]
    fn slow_recovery_breaks_the_bound() {
        let trace = vec![accept(5_000, 1, 0, true)];
        let spec = VerifySpec::new(1, 1).with_recovery_bound(Span::from_millis(1));
        let report = verify_trace(&trace, &spec);
        assert_eq!(report.violations_of(InvariantKind::RecoveryLatencyBound), 1);
        assert_eq!(report.recovered, 1);
        let fast = verify_trace(
            &[accept(500, 1, 0, true)],
            &VerifySpec::new(1, 1).with_recovery_bound(Span::from_millis(1)),
        );
        assert!(fast.is_clean());
    }

    #[test]
    fn relate2_mismatch_is_flagged() {
        let trace = vec![accept(1_000, 1, 0, false)];
        // One of two samples → 50% loss → 1000 × 51 = 51_000.
        let spec = VerifySpec::new(2, 1).with_reported_relate2(51_000.0);
        assert!(verify_trace(&trace, &spec).is_clean());
        let wrong = VerifySpec::new(2, 1).with_reported_relate2(50_000.0);
        let report = verify_trace(&trace, &wrong);
        assert_eq!(report.violations_of(InvariantKind::Relate2Consistency), 1);
    }

    #[test]
    fn durable_crash_restart_recovery_is_proven() {
        let node = NodeId::from_index(1);
        let trace = vec![
            accept(10, 1, 0, false),
            accept(20, 1, 1, false),
            ev(30, ObsEvent::NodeCrashed { node, epoch: 1 }),
            ev(40, ObsEvent::NodeRestarted { node, epoch: 2 }),
            accept(50, 1, 2, true),
            accept(60, 1, 3, false),
            ev(70, ObsEvent::CatchUpCompleted { node, recovered: 1 }),
        ];
        let spec = VerifySpec::new(4, 1)
            .with_durable_nodes([1])
            .with_catch_up_bound(Span::from_millis(1));
        let report = verify_trace(&trace, &spec);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.accepted, 4);
    }

    #[test]
    fn durable_gap_at_end_of_trace_is_flagged() {
        // A volatile reader that restarts mid-stream loses sample 1 for
        // good; marking it durable makes that loss a violation.
        let node = NodeId::from_index(1);
        let trace = vec![
            accept(10, 1, 0, false),
            ev(20, ObsEvent::NodeCrashed { node, epoch: 1 }),
            ev(30, ObsEvent::NodeRestarted { node, epoch: 2 }),
            accept(40, 1, 2, false),
        ];
        let spec = VerifySpec::new(3, 1).with_durable_nodes([1]);
        let report = verify_trace(&trace, &spec);
        assert_eq!(report.violations_of(InvariantKind::NoGapAfterCatchUp), 1);
        assert!(report
            .violations
            .iter()
            .any(|v| v.detail.contains("first gap: 1")));
        // A restart with no CatchUpCompleted is itself a violation.
        assert_eq!(report.violations_of(InvariantKind::CatchUpLatencyBound), 1);
    }

    #[test]
    fn cross_incarnation_duplicate_is_flagged_for_durable_nodes() {
        let node = NodeId::from_index(1);
        let trace = vec![
            accept(10, 1, 0, false),
            ev(20, ObsEvent::NodeCrashed { node, epoch: 1 }),
            ev(30, ObsEvent::NodeRestarted { node, epoch: 2 }),
            accept(40, 1, 0, false), // delivered again after restart
            accept(50, 1, 1, false),
            ev(60, ObsEvent::CatchUpCompleted { node, recovered: 0 }),
        ];
        let spec = VerifySpec::new(2, 1).with_durable_nodes([1]);
        let report = verify_trace(&trace, &spec);
        assert_eq!(
            report.violations_of(InvariantKind::CrossIncarnationAtMostOnce),
            1
        );
        assert_eq!(report.accepted, 2, "duplicate must not count");
        // Plain (non-durable) verification accepts the re-delivery.
        let plain = verify_trace(&trace, &VerifySpec::new(2, 1));
        assert_eq!(
            plain.violations_of(InvariantKind::CrossIncarnationAtMostOnce),
            0
        );
    }

    #[test]
    fn slow_catch_up_breaks_the_bound() {
        let node = NodeId::from_index(1);
        let trace = vec![
            accept(10, 1, 0, false),
            ev(20, ObsEvent::NodeCrashed { node, epoch: 1 }),
            ev(30, ObsEvent::NodeRestarted { node, epoch: 2 }),
            // Catch-up completes 5 ms after restart; bound is 1 ms.
            ev(5_030, ObsEvent::CatchUpCompleted { node, recovered: 1 }),
        ];
        let spec = VerifySpec::new(1, 1)
            .with_durable_nodes([1])
            .with_catch_up_bound(Span::from_millis(1));
        let report = verify_trace(&trace, &spec);
        assert_eq!(report.violations_of(InvariantKind::CatchUpLatencyBound), 1);
    }

    #[test]
    fn prefix_verification_skips_end_of_trace_checks_only() {
        let node = NodeId::from_index(1);
        // A restart whose catch-up hasn't happened *yet*: a legal prefix.
        let partial = vec![
            accept(10, 1, 0, false),
            ev(20, ObsEvent::NodeCrashed { node, epoch: 1 }),
            ev(30, ObsEvent::NodeRestarted { node, epoch: 2 }),
        ];
        let spec = VerifySpec::new(3, 1)
            .with_durable_nodes([1])
            .with_catch_up_bound(Span::from_millis(1))
            .with_reported_relate2(0.0);
        assert!(!verify_trace(&partial, &spec).is_clean());
        assert!(verify_trace_prefix(&partial, &spec).is_clean());
        // Prefix-closed violations still trip: accept while crashed.
        let bad = vec![
            ev(20, ObsEvent::NodeCrashed { node, epoch: 1 }),
            accept(30, 1, 0, false),
        ];
        let report = verify_trace_prefix(&bad, &spec);
        assert_eq!(report.violations_of(InvariantKind::NoDeliveryAfterCrash), 1);
        // And so does a duplicate acceptance mid-prefix.
        let dup = vec![accept(10, 1, 0, false), accept(20, 1, 0, false)];
        assert_eq!(
            verify_trace_prefix(&dup, &spec).violations_of(InvariantKind::AtMostOnce),
            1
        );
    }

    #[test]
    fn report_serializes() {
        let trace = vec![accept(10, 1, 0, false), accept(20, 1, 0, false)];
        let report = verify_trace(&trace, &VerifySpec::new(2, 1));
        let json = report.to_json();
        assert_eq!(json.field::<u64>("accepted"), Ok(1));
        let viols = json.get("violations").unwrap().as_arr().unwrap();
        assert_eq!(viols.len(), 1);
        assert_eq!(
            viols[0].field::<String>("invariant"),
            Ok("AtMostOnce".to_owned())
        );
    }
}
