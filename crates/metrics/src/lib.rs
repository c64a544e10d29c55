//! # adamant-metrics
//!
//! Composite QoS metrics for evaluating pub/sub transport configurations,
//! reproducing §4.1 of the ADAMANT paper (Hoffert, Schmidt, Gokhale —
//! Middleware 2010).
//!
//! The crate provides three layers:
//!
//! * **Raw records** — [`Delivery`] / [`DenseReceptionLog`] /
//!   [`DeliveryLog`]: what each data reader or runtime endpoint observed.
//! * **Reports** — [`QosAccumulator`] / [`QosReport`]: exact, mergeable
//!   per-reader statistics, pooled into reliability, average latency,
//!   jitter (latency stddev), burstiness (per-second bandwidth stddev), and
//!   network usage for one run.
//! * **Composite metrics** — [`MetricKind`]: the ReLate2 family, which
//!   collapses a report into one comparable score (lower is better).
//!
//! On top of those, the crate consumes the structured observability traces
//! of `adamant-proto`'s [`ObsEvent`](adamant_proto::ObsEvent) taxonomy,
//! whichever driver recorded them: [`MetricsRegistry`] / [`registry_from_trace`] fold a
//! trace into counters, gauges, and latency histograms keyed by
//! `protocol × node` (rendered to JSON run reports), and [`verify_trace`]
//! replays a trace against runtime invariants — crash-epoch delivery
//! hygiene, at-most-once acceptance, recovery-latency bounds, and ReLate2
//! consistency between trace and engine report.
//!
//! ## Example
//!
//! ```
//! use adamant_metrics::{Delivery, MetricKind, QosReport};
//! use adamant_proto::TimePoint;
//!
//! let mut builder = QosReport::builder(2, 1);
//! builder.add_receiver(
//!     &[Delivery {
//!         seq: 0,
//!         published_at: TimePoint::ZERO,
//!         delivered_at: TimePoint::from_micros(800),
//!         recovered: false,
//!     }],
//!     0,
//! );
//! let report = builder.finish();
//! // One of two samples arrived: 50% loss → (50 + 1) × 800 µs.
//! assert_eq!(MetricKind::ReLate2.score(&report), 40_800.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod composite;
mod histogram;
mod record;
mod registry;
mod report;
mod stats;
mod verify;
mod windowed;

pub use composite::MetricKind;
pub use histogram::LatencyHistogram;
pub use record::{Delivery, DeliveryLog, DenseReceptionLog};
pub use registry::{registry_from_trace, MetricsRegistry};
pub use report::{QosAccumulator, QosReport, QosReportBuilder};
pub use stats::{percentile, Welford};
pub use verify::{
    verify_trace, verify_trace_prefix, InvariantKind, VerifyReport, VerifySpec, Violation,
};
pub use windowed::WindowQos;
