//! Per-run metrics registry: counters, gauges, and latency histograms keyed
//! by `protocol × node`, folded from a structured observability trace and
//! rendered to a JSON report artifact.
//!
//! Keys are flat strings of the form `<protocol>/<scope>/<name>` (for
//! example `nakcast-0.050s/node3/naks_sent`), so the JSON output stays a
//! simple object and diffing two runs is a line-level operation.

use std::collections::BTreeMap;

use adamant_json::{Json, ToJson};
use adamant_proto::{DropReason, NodeId, ObsEvent, TracedEvent};

use crate::histogram::LatencyHistogram;

/// A per-run metrics store: monotonic counters, last-value gauges, and
/// latency histograms, all keyed by flat strings.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Builds a `<protocol>/node<i>/<name>` key.
    pub fn node_key(protocol: &str, node: NodeId, name: &str) -> String {
        format!("{protocol}/node{}/{name}", node.index())
    }

    /// Adds `n` to a counter, creating it at zero first.
    pub fn add(&mut self, key: impl Into<String>, n: u64) {
        *self.counters.entry(key.into()).or_insert(0) += n;
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, key: impl Into<String>) {
        self.add(key, 1);
    }

    /// Reads a counter (zero when never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sets a gauge to its latest value.
    pub fn set_gauge(&mut self, key: impl Into<String>, value: f64) {
        self.gauges.insert(key.into(), value);
    }

    /// Reads a gauge.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Records one latency observation (microseconds) into a histogram.
    pub fn observe_us(&mut self, key: impl Into<String>, us: f64) {
        self.histograms.entry(key.into()).or_default().record_us(us);
    }

    /// Reads a histogram.
    pub fn histogram(&self, key: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(key)
    }

    /// Sums every counter whose key ends with `/<name>` — the cross-node
    /// total for one metric.
    pub fn total(&self, name: &str) -> u64 {
        let suffix = format!("/{name}");
        self.counters
            .iter()
            .filter(|(k, _)| k.ends_with(&suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Num(v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    let mut o = vec![("count".to_owned(), Json::Num(h.count() as f64))];
                    if let (Some(min), Some(p50), Some(p99), Some(max)) = (
                        h.min_us(),
                        h.percentile(0.5),
                        h.percentile(0.99),
                        h.max_us(),
                    ) {
                        o.push(("min_us".to_owned(), Json::Num(min)));
                        o.push(("p50_us".to_owned(), Json::Num(p50)));
                        o.push(("p99_us".to_owned(), Json::Num(p99)));
                        o.push(("max_us".to_owned(), Json::Num(max)));
                    }
                    (k.clone(), Json::Obj(o))
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".to_owned(), counters),
            ("gauges".to_owned(), gauges),
            ("histograms".to_owned(), histograms),
        ])
    }
}

/// Folds a structured trace into a [`MetricsRegistry`] under `protocol`'s
/// key prefix.
///
/// Every event variant maps to at least one counter, so the registry's
/// totals double as a coverage check on the trace itself; sample latencies
/// land in per-node histograms.
pub fn registry_from_trace(protocol: &str, events: &[TracedEvent]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let key = |node: NodeId, name: &str| MetricsRegistry::node_key(protocol, node, name);
    let run = |name: &str| format!("{protocol}/run/{name}");
    let dur = |name: &str| format!("{protocol}/durability/{name}");
    // Restart instants, so catch-up completions fold into a recovery-latency
    // histogram (time from the restart to full history recovery).
    let mut restarted_at: BTreeMap<usize, u64> = BTreeMap::new();
    for te in events {
        match te.event {
            ObsEvent::PacketSent {
                node, size_bytes, ..
            } => {
                reg.inc(key(node, "packets_sent"));
                reg.add(key(node, "bytes_sent"), u64::from(size_bytes));
            }
            ObsEvent::PacketEnqueued { node, .. } => reg.inc(key(node, "packets_enqueued")),
            ObsEvent::PacketDelivered {
                node, size_bytes, ..
            } => {
                reg.inc(key(node, "packets_delivered"));
                reg.add(key(node, "bytes_delivered"), u64::from(size_bytes));
            }
            ObsEvent::PacketDropped { node, reason, .. } => {
                let name = match reason {
                    DropReason::Link => "drops_link",
                    DropReason::Crash => "drops_crash",
                    DropReason::Partition => "drops_partition",
                };
                reg.inc(key(node, name));
            }
            ObsEvent::EpochDropped { node } => reg.inc(key(node, "epoch_drops")),
            ObsEvent::NodeCrashed { node, .. } => reg.inc(key(node, "crashes")),
            ObsEvent::NodeRestarted { node, .. } => {
                reg.inc(key(node, "restarts"));
                restarted_at.insert(node.index(), te.time.as_nanos());
            }
            ObsEvent::PartitionChanged { .. } => reg.inc(run("partition_changes")),
            ObsEvent::NetworkChanged { .. } => reg.inc(run("network_changes")),
            ObsEvent::BandwidthChanged { node, .. } => reg.inc(key(node, "bandwidth_changes")),
            ObsEvent::ContentionChanged { node, .. } => reg.inc(key(node, "contention_changes")),
            ObsEvent::SampleAccepted {
                node,
                published_ns,
                delivered_ns,
                recovered,
                ..
            } => {
                reg.inc(key(node, "samples_accepted"));
                if recovered {
                    reg.inc(key(node, "samples_recovered"));
                }
                let us = delivered_ns.saturating_sub(published_ns) as f64 / 1_000.0;
                reg.observe_us(key(node, "latency"), us);
            }
            ObsEvent::SampleDuplicate { node, .. } => reg.inc(key(node, "duplicates")),
            ObsEvent::NakSent { node, count } => {
                reg.inc(key(node, "nak_rounds"));
                reg.add(key(node, "naks_sent"), u64::from(count));
            }
            ObsEvent::NakGiveUp { node, .. } => reg.inc(key(node, "nak_give_ups")),
            ObsEvent::Retransmitted { node, .. } => reg.inc(key(node, "retransmissions")),
            ObsEvent::RepairSent { node, copies, .. } => {
                reg.inc(key(node, "repairs_sent"));
                reg.add(key(node, "repair_copies"), u64::from(copies));
            }
            ObsEvent::RepairDecoded { node, .. } => reg.inc(key(node, "repairs_decoded")),
            ObsEvent::FailoverPromoted { node } => reg.inc(key(node, "failover_promotions")),
            ObsEvent::HistoryRetained { node, retained, .. } => {
                reg.inc(key(node, "history_retained"));
                reg.set_gauge(dur("retained_samples"), retained as f64);
            }
            ObsEvent::HistoryEvicted { node, .. } => {
                reg.inc(key(node, "history_evicted"));
                reg.inc(dur("evicted_samples"));
            }
            ObsEvent::CatchUpNakSent { node, count } => {
                reg.inc(key(node, "catch_up_nak_rounds"));
                reg.add(dur("catch_up_naks"), u64::from(count));
            }
            ObsEvent::DurableReplayed { node, .. } => {
                reg.inc(key(node, "durable_replays"));
                reg.inc(dur("replayed_samples"));
            }
            ObsEvent::CatchUpCompleted { node, recovered } => {
                reg.inc(key(node, "catch_ups_completed"));
                reg.add(dur("recovered_samples"), recovered);
                if let Some(&t0) = restarted_at.get(&node.index()) {
                    let us = te.time.as_nanos().saturating_sub(t0) as f64 / 1_000.0;
                    reg.observe_us(dur("recovery_latency"), us);
                }
            }
            ObsEvent::CatchUpAbandoned { node, count } => {
                reg.inc(key(node, "catch_ups_abandoned"));
                reg.add(dur("abandoned_samples"), u64::from(count));
            }
            ObsEvent::HealAlarm { .. } => reg.inc(run("heal_alarms")),
            ObsEvent::HealProbe { .. } => reg.inc(run("heal_probes")),
            ObsEvent::HealDecision { .. } => reg.inc(run("heal_decisions")),
            ObsEvent::HealSwitch { .. } => reg.inc(run("heal_switches")),
            ObsEvent::HealSuppressed { .. } => reg.inc(run("heal_suppressed")),
        }
    }
    reg.set_gauge(run("trace_events"), events.len() as f64);
    if let (Some(first), Some(last)) = (events.first(), events.last()) {
        reg.set_gauge(
            run("trace_span_secs"),
            (last.time.as_nanos().saturating_sub(first.time.as_nanos())) as f64 / 1e9,
        );
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_proto::TimePoint;

    fn ev(time_us: u64, event: ObsEvent) -> TracedEvent {
        TracedEvent {
            time: TimePoint::from_micros(time_us),
            event,
        }
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        reg.inc("p/node0/x");
        reg.add("p/node0/x", 4);
        reg.set_gauge("p/run/g", 2.5);
        reg.observe_us("p/node0/latency", 100.0);
        reg.observe_us("p/node0/latency", 300.0);
        assert_eq!(reg.counter("p/node0/x"), 5);
        assert_eq!(reg.counter("p/node0/missing"), 0);
        assert_eq!(reg.gauge("p/run/g"), Some(2.5));
        assert_eq!(reg.histogram("p/node0/latency").unwrap().count(), 2);
        let json = reg.to_json();
        assert_eq!(
            json.get("counters").unwrap().field::<u64>("p/node0/x"),
            Ok(5)
        );
        let hist = json.get("histograms").unwrap().get("p/node0/latency");
        assert_eq!(hist.unwrap().field::<u64>("count"), Ok(2));
    }

    #[test]
    fn durability_events_fold_into_run_scope_keys() {
        let writer = NodeId::from_index(0);
        let reader = NodeId::from_index(1);
        let trace = vec![
            ev(
                0,
                ObsEvent::HistoryRetained {
                    node: writer,
                    seq: 0,
                    retained: 1,
                },
            ),
            ev(
                10,
                ObsEvent::HistoryRetained {
                    node: writer,
                    seq: 1,
                    retained: 2,
                },
            ),
            ev(
                20,
                ObsEvent::HistoryEvicted {
                    node: writer,
                    seq: 0,
                },
            ),
            ev(
                30_000,
                ObsEvent::NodeRestarted {
                    node: reader,
                    epoch: 1,
                },
            ),
            ev(
                31_000,
                ObsEvent::CatchUpNakSent {
                    node: reader,
                    count: 3,
                },
            ),
            ev(
                31_500,
                ObsEvent::DurableReplayed {
                    node: writer,
                    seq: 1,
                },
            ),
            ev(
                32_000,
                ObsEvent::CatchUpCompleted {
                    node: reader,
                    recovered: 3,
                },
            ),
            ev(
                40_000,
                ObsEvent::CatchUpAbandoned {
                    node: reader,
                    count: 1,
                },
            ),
        ];
        let reg = registry_from_trace("durable", &trace);
        assert_eq!(reg.gauge("durable/durability/retained_samples"), Some(2.0));
        assert_eq!(reg.counter("durable/durability/evicted_samples"), 1);
        assert_eq!(reg.counter("durable/durability/catch_up_naks"), 3);
        assert_eq!(reg.counter("durable/durability/replayed_samples"), 1);
        assert_eq!(reg.counter("durable/durability/recovered_samples"), 3);
        assert_eq!(reg.counter("durable/durability/abandoned_samples"), 1);
        assert_eq!(reg.counter("durable/node1/catch_ups_completed"), 1);
        // Recovery latency = completion (32 ms) minus restart (30 ms).
        let h = reg
            .histogram("durable/durability/recovery_latency")
            .unwrap();
        assert_eq!(h.count(), 1);
        assert!((1_900.0..=2_100.0).contains(&h.percentile(0.5).unwrap()));
    }

    #[test]
    fn trace_folds_into_protocol_node_keys() {
        let rx = NodeId::from_index(1);
        let trace = vec![
            ev(
                0,
                ObsEvent::PacketSent {
                    node: NodeId::from_index(0),
                    tag: 1,
                    wire_id: 0,
                    size_bytes: 60,
                },
            ),
            ev(
                5,
                ObsEvent::PacketDropped {
                    node: rx,
                    tag: 1,
                    wire_id: 0,
                    reason: DropReason::Link,
                },
            ),
            ev(9, ObsEvent::NakSent { node: rx, count: 2 }),
            ev(
                20,
                ObsEvent::SampleAccepted {
                    node: rx,
                    seq: 0,
                    published_ns: 0,
                    delivered_ns: 20_000,
                    recovered: true,
                },
            ),
        ];
        let reg = registry_from_trace("nakcast-0.050s", &trace);
        assert_eq!(reg.counter("nakcast-0.050s/node0/packets_sent"), 1);
        assert_eq!(reg.counter("nakcast-0.050s/node1/drops_link"), 1);
        assert_eq!(reg.counter("nakcast-0.050s/node1/naks_sent"), 2);
        assert_eq!(reg.counter("nakcast-0.050s/node1/samples_recovered"), 1);
        assert_eq!(reg.total("samples_accepted"), 1);
        assert_eq!(reg.gauge("nakcast-0.050s/run/trace_events"), Some(4.0));
        let h = reg.histogram("nakcast-0.050s/node1/latency").unwrap();
        assert_eq!(h.count(), 1);
        assert!((15.0..=25.0).contains(&h.percentile(0.5).unwrap()));
    }
}
