//! Host and link models: machine classes, NIC bandwidth, and the per-host
//! resource state used by the delivery pipeline.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// The Emulab hardware classes used in the paper's evaluation.
///
/// The paper's pc850 is an 850 MHz 32-bit Pentium III with 256 MB RAM; the
/// pc3000 is a 3 GHz 64-bit Xeon with 2 GB RAM. The simulator captures the
/// difference as a scalar factor applied to every reference CPU cost: code
/// that takes `t` on a pc3000 takes `cpu_scale() * t` on the given class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineClass {
    /// 850 MHz Pentium III, 256 MB RAM (slow class).
    Pc850,
    /// 3 GHz Xeon, 2 GB RAM (fast class, the reference machine).
    Pc3000,
}

adamant_json::impl_json_unit_enum!(MachineClass { Pc850, Pc3000 });

impl MachineClass {
    /// Multiplier applied to reference CPU costs on this machine.
    ///
    /// The pc3000 is the reference (1.0). The pc850 factor reflects the
    /// clock ratio (3000/850 ≈ 3.5) — memory pressure and the narrower
    /// datapath only widen the gap, so 3.5 is a conservative floor.
    pub fn cpu_scale(self) -> f64 {
        match self {
            MachineClass::Pc850 => 3.5,
            MachineClass::Pc3000 => 1.0,
        }
    }

    /// Approximate effective instruction throughput in millions of simple
    /// operations per second; used by analytic cost models (e.g. projecting
    /// ANN query time onto a machine class).
    pub fn mops(self) -> f64 {
        match self {
            // One simple op per cycle is a reasonable first-order model for
            // the dense loops the cost model covers.
            MachineClass::Pc850 => 850.0,
            MachineClass::Pc3000 => 3000.0,
        }
    }

    /// All supported classes, slowest first.
    pub fn all() -> [MachineClass; 2] {
        [MachineClass::Pc850, MachineClass::Pc3000]
    }
}

impl fmt::Display for MachineClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineClass::Pc850 => write!(f, "pc850"),
            MachineClass::Pc3000 => write!(f, "pc3000"),
        }
    }
}

/// NIC / LAN bandwidth.
///
/// Stored as bits per second. The three constants cover the paper's Emulab
/// configurations (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// 10 Mb/s LAN.
    pub const MBPS_10: Bandwidth = Bandwidth(10_000_000);
    /// 100 Mb/s LAN.
    pub const MBPS_100: Bandwidth = Bandwidth(100_000_000);
    /// 1 Gb/s LAN.
    pub const GBPS_1: Bandwidth = Bandwidth(1_000_000_000);
    /// 10 Gb/s — the same-host loopback / shared-memory path.
    pub const GBPS_10: Bandwidth = Bandwidth(10_000_000_000);

    /// Creates a bandwidth of `bps` bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero; a zero-bandwidth link can never transmit.
    pub fn from_bps(bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        Bandwidth(bps)
    }

    /// Bits per second.
    pub fn bps(self) -> u64 {
        self.0
    }

    /// Megabits per second, as a float.
    pub fn mbps(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time to clock `bytes` onto the wire at this rate.
    pub fn serialization_time(self, bytes: u32) -> SimDuration {
        let bits = bytes as u64 * 8;
        // nanos = bits / bps * 1e9; stay in u64 when the product fits
        // (every packet below ~2 GB) and widen to u128 only on overflow.
        let nanos = match bits.checked_mul(1_000_000_000) {
            Some(product) => product / self.0,
            None => ((bits as u128 * 1_000_000_000u128) / self.0 as u128) as u64,
        };
        SimDuration::from_nanos(nanos)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 && self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gb", self.0 / 1_000_000_000)
        } else {
            write!(f, "{}Mb", self.0 / 1_000_000)
        }
    }
}

/// A link class: the bandwidth of a path paired with its one-way
/// switch/propagation delay.
///
/// This is the single source of truth for the per-class tables that the
/// environment descriptor (`adamant-core`) and the simulator both consume —
/// previously the pairings lived in two places and could drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkProfile {
    /// Link bandwidth.
    pub bandwidth: Bandwidth,
    /// One-way switch + propagation delay per packet copy.
    pub propagation: SimDuration,
}

impl LinkProfile {
    /// 1 Gb/s switched LAN (modern gear, 50 µs switch latency).
    pub const GBPS1_LAN: LinkProfile = LinkProfile {
        bandwidth: Bandwidth::GBPS_1,
        propagation: SimDuration::from_micros(50),
    };
    /// 100 Mb/s switched LAN (older gear, 150 µs switch latency).
    pub const MBPS100_LAN: LinkProfile = LinkProfile {
        bandwidth: Bandwidth::MBPS_100,
        propagation: SimDuration::from_micros(150),
    };
    /// 10 Mb/s switched LAN (oldest gear, 500 µs switch latency).
    pub const MBPS10_LAN: LinkProfile = LinkProfile {
        bandwidth: Bandwidth::MBPS_10,
        propagation: SimDuration::from_micros(500),
    };
    /// A 100 Mb/s wide-area path with a 50 ms round trip (25 ms each way) —
    /// inter-datacenter distance.
    pub const WAN_50MS: LinkProfile = LinkProfile {
        bandwidth: Bandwidth::MBPS_100,
        propagation: SimDuration::from_millis(25),
    };
    /// The same-host path: memory-speed bandwidth and a ~1 µs hop.
    pub const SAME_HOST: LinkProfile = LinkProfile {
        bandwidth: Bandwidth::GBPS_10,
        propagation: SimDuration::from_micros(1),
    };

    /// Round-trip time of an empty packet on this link.
    pub fn rtt(self) -> SimDuration {
        self.propagation * 2
    }
}

/// Static configuration of a simulated host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Hardware class, which scales all CPU costs on this host.
    pub machine: MachineClass,
    /// NIC bandwidth (the LAN in the paper is homogeneous, but per-host
    /// bandwidth supports heterogeneous extensions).
    pub bandwidth: Bandwidth,
    /// Extra one-way delay on this host's link, each direction — e.g. a
    /// GEO satellite uplink (~250 ms) connecting a remote sensor to the
    /// datacenter LAN, per the paper's §2 deployment sketch.
    pub uplink_delay: SimDuration,
}

impl HostConfig {
    /// Creates a host of the given class on a LAN of the given bandwidth.
    pub fn new(machine: MachineClass, bandwidth: Bandwidth) -> Self {
        HostConfig {
            machine,
            bandwidth,
            uplink_delay: SimDuration::ZERO,
        }
    }

    /// Adds a fixed one-way link delay in each direction (satellite or WAN
    /// attachment).
    pub fn with_uplink_delay(mut self, delay: SimDuration) -> Self {
        self.uplink_delay = delay;
        self
    }
}

/// Mutable per-host resource state tracked by the delivery pipeline.
///
/// Each host has three serial resources: a CPU, an egress NIC queue, and an
/// ingress NIC queue. Each is modelled as "busy until" bookkeeping — a new
/// job starts at `max(now, busy_until)` and occupies the resource for its
/// service time. This yields FIFO queueing delay without simulating queue
/// slots explicitly.
#[derive(Debug, Clone)]
pub(crate) struct HostState {
    pub config: HostConfig,
    pub cpu_free_at: SimTime,
    pub egress_free_at: SimTime,
    pub ingress_free_at: SimTime,
    /// Memoized `(bytes, serialization_time(bytes))` of the last packet.
    /// Traffic is dominated by repeated sizes, so this turns the wide
    /// division in [`Bandwidth::serialization_time`] into a compare.
    /// `(0, ZERO)` is a correct seed: zero bytes serialize instantly.
    last_serialization: (u32, SimDuration),
}

impl HostState {
    pub fn new(config: HostConfig) -> Self {
        HostState {
            config,
            cpu_free_at: SimTime::ZERO,
            egress_free_at: SimTime::ZERO,
            ingress_free_at: SimTime::ZERO,
            last_serialization: (0, SimDuration::ZERO),
        }
    }

    fn serialization_cached(&mut self, bytes: u32) -> SimDuration {
        if self.last_serialization.0 != bytes {
            self.last_serialization = (bytes, self.config.bandwidth.serialization_time(bytes));
        }
        self.last_serialization.1
    }

    /// Occupies the CPU for `ref_cost` (a reference-duration cost, scaled by
    /// this host's CPU factor) starting no earlier than `now`, and returns
    /// the completion instant.
    #[cfg(test)]
    pub fn occupy_cpu(&mut self, now: SimTime, ref_cost: SimDuration) -> SimTime {
        let cost = ref_cost.scale(self.config.machine.cpu_scale());
        self.occupy_cpu_scaled(now, cost)
    }

    /// Occupies the CPU for an already machine-scaled cost, for callers
    /// that computed the scaled value anyway (the engine tracks it for
    /// utilization accounting).
    pub fn occupy_cpu_scaled(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = now.max(self.cpu_free_at);
        let done = start + cost;
        self.cpu_free_at = done;
        done
    }

    /// Serializes `bytes` out of the egress NIC starting no earlier than
    /// `now`, and returns the instant the last bit leaves.
    pub fn occupy_egress(&mut self, now: SimTime, bytes: u32) -> SimTime {
        let tx = self.serialization_cached(bytes);
        let start = now.max(self.egress_free_at);
        let done = start + tx;
        self.egress_free_at = done;
        done
    }

    /// Serializes `bytes` into the ingress NIC starting no earlier than
    /// `now`, and returns the instant the packet is fully received.
    pub fn occupy_ingress(&mut self, now: SimTime, bytes: u32) -> SimTime {
        let rx = self.serialization_cached(bytes);
        let start = now.max(self.ingress_free_at);
        let done = start + rx;
        self.ingress_free_at = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_scale_ordering() {
        assert!(MachineClass::Pc850.cpu_scale() > MachineClass::Pc3000.cpu_scale());
        assert_eq!(MachineClass::Pc3000.cpu_scale(), 1.0);
    }

    #[test]
    fn machine_display() {
        assert_eq!(MachineClass::Pc850.to_string(), "pc850");
        assert_eq!(MachineClass::Pc3000.to_string(), "pc3000");
    }

    #[test]
    fn bandwidth_serialization_time() {
        // 1250 bytes = 10_000 bits; at 10 Mb/s that's 1 ms.
        let t = Bandwidth::MBPS_10.serialization_time(1_250);
        assert_eq!(t, SimDuration::from_millis(1));
        // Same packet at 1 Gb/s: 10 µs.
        let t = Bandwidth::GBPS_1.serialization_time(1_250);
        assert_eq!(t, SimDuration::from_micros(10));
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::GBPS_1.to_string(), "1Gb");
        assert_eq!(Bandwidth::MBPS_100.to_string(), "100Mb");
        assert_eq!(Bandwidth::MBPS_10.to_string(), "10Mb");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        Bandwidth::from_bps(0);
    }

    #[test]
    fn cpu_queueing_serializes_jobs() {
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let mut host = HostState::new(cfg);
        let now = SimTime::ZERO;
        let c = SimDuration::from_micros(10);
        let first = host.occupy_cpu(now, c);
        let second = host.occupy_cpu(now, c);
        assert_eq!(first, SimTime::from_micros(10));
        assert_eq!(second, SimTime::from_micros(20));
    }

    #[test]
    fn cpu_cost_scales_with_machine() {
        let fast = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let slow = HostConfig::new(MachineClass::Pc850, Bandwidth::GBPS_1);
        let c = SimDuration::from_micros(10);
        let f = HostState::new(fast).occupy_cpu(SimTime::ZERO, c);
        let s = HostState::new(slow).occupy_cpu(SimTime::ZERO, c);
        assert_eq!(f, SimTime::from_micros(10));
        assert_eq!(s, SimTime::from_micros(35));
    }

    #[test]
    fn egress_queueing_back_to_back() {
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::MBPS_10);
        let mut host = HostState::new(cfg);
        // Two 1250-byte packets: 1 ms each, queued FIFO.
        let a = host.occupy_egress(SimTime::ZERO, 1_250);
        let b = host.occupy_egress(SimTime::ZERO, 1_250);
        assert_eq!(a, SimTime::from_millis(1));
        assert_eq!(b, SimTime::from_millis(2));
    }

    #[test]
    fn idle_resource_starts_at_now() {
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::MBPS_10);
        let mut host = HostState::new(cfg);
        let later = SimTime::from_millis(10);
        let done = host.occupy_ingress(later, 1_250);
        assert_eq!(done, SimTime::from_millis(11));
    }
}

#[cfg(test)]
mod uplink_tests {
    use super::*;

    #[test]
    fn uplink_delay_defaults_to_zero() {
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        assert_eq!(cfg.uplink_delay, SimDuration::ZERO);
        let sat = cfg.with_uplink_delay(SimDuration::from_millis(250));
        assert_eq!(sat.uplink_delay, SimDuration::from_millis(250));
    }
}
