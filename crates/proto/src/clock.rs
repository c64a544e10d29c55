//! The clock abstraction separating protocol cores from wall time.
//!
//! Cores never read a clock themselves — every input they receive is
//! timestamped by the driver, and every delay they want is expressed as a
//! [`SetTimer`](crate::Effect::SetTimer) effect. [`Clock`] exists for the
//! drivers: the simulator's clock is its event-queue head, while the
//! real-UDP runtime anchors a monotonic [`std::time::Instant`] at startup.

use crate::time::TimePoint;

/// A source of monotonically non-decreasing instants.
pub trait Clock {
    /// The current instant on this clock.
    fn now(&self) -> TimePoint;
}
