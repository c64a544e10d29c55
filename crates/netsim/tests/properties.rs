//! Property-style tests of the simulation engine's invariants, driven by
//! deterministic seeded sweeps.

use std::any::Any;

use adamant_netsim::{
    Agent, Bandwidth, Ctx, HostConfig, MachineClass, OutPacket, Packet, ProcessingCost,
    SimDuration, SimTime, Simulation,
};

/// Records every packet arrival instant.
struct Recorder {
    arrivals: Vec<SimTime>,
}

impl Agent for Recorder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
        self.arrivals.push(ctx.now());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends `sizes[i]` bytes every `interval`, with the given per-packet cost.
struct Blaster {
    dst: adamant_netsim::NodeId,
    sizes: Vec<u32>,
    interval: SimDuration,
    cost: ProcessingCost,
    next: usize,
}

impl Agent for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        if let Some(&size) = self.sizes.get(self.next) {
            self.next += 1;
            ctx.send(self.dst, OutPacket::empty(size).cost(self.cost));
            ctx.set_timer(self.interval, 0);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Case generator over the shared SplitMix64 stream.
struct CaseRng(u64);

impl CaseRng {
    fn next_u64(&mut self) -> u64 {
        adamant_proto::splitmix64(&mut self.0)
    }

    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn sizes(&mut self, max_len: u64, max_size: u64) -> Vec<u32> {
        let len = self.range_u64(1, max_len);
        (0..len)
            .map(|_| self.range_u64(1, max_size) as u32)
            .collect()
    }
}

fn run_stream(
    seed: u64,
    sizes: Vec<u32>,
    interval_us: u64,
    cost_us: (u64, u64),
    machine: MachineClass,
    bandwidth: Bandwidth,
) -> Vec<SimTime> {
    let mut sim = Simulation::new(seed);
    let cfg = HostConfig::new(machine, bandwidth);
    let rx = sim.add_node(cfg, Recorder { arrivals: vec![] });
    let count = sizes.len();
    sim.add_node(
        cfg,
        Blaster {
            dst: rx,
            sizes,
            interval: SimDuration::from_micros(interval_us),
            cost: ProcessingCost::new(
                SimDuration::from_micros(cost_us.0),
                SimDuration::from_micros(cost_us.1),
            ),
            next: 0,
        },
    );
    sim.run();
    let arrivals = sim.agent::<Recorder>(rx).unwrap().arrivals.clone();
    assert_eq!(arrivals.len(), count, "lossless stream delivers everything");
    arrivals
}

/// Deliveries happen in send order and never travel back in time.
#[test]
fn arrivals_are_monotone() {
    let mut rng = CaseRng(11);
    for _ in 0..64 {
        let sizes = rng.sizes(40, 2_000);
        let interval_us = rng.range_u64(1, 5_000);
        let tx_us = rng.range_u64(0, 200);
        let rx_us = rng.range_u64(0, 200);
        let arrivals = run_stream(
            7,
            sizes,
            interval_us,
            (tx_us, rx_us),
            MachineClass::Pc3000,
            Bandwidth::GBPS_1,
        );
        for pair in arrivals.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert!(arrivals[0] > SimTime::ZERO);
    }
}

/// A slower machine never delivers earlier than a faster one for the
/// same stream, and a slower link never beats a faster one.
#[test]
fn slower_resources_never_deliver_earlier() {
    let mut rng = CaseRng(12);
    for _ in 0..32 {
        let sizes = rng.sizes(25, 2_000);
        let interval_us = rng.range_u64(100, 5_000);
        let rx_us = rng.range_u64(1, 150);
        let fast = run_stream(
            3,
            sizes.clone(),
            interval_us,
            (5, rx_us),
            MachineClass::Pc3000,
            Bandwidth::GBPS_1,
        );
        let slow_cpu = run_stream(
            3,
            sizes.clone(),
            interval_us,
            (5, rx_us),
            MachineClass::Pc850,
            Bandwidth::GBPS_1,
        );
        let slow_net = run_stream(
            3,
            sizes,
            interval_us,
            (5, rx_us),
            MachineClass::Pc3000,
            Bandwidth::MBPS_10,
        );
        for ((f, sc), sn) in fast.iter().zip(&slow_cpu).zip(&slow_net) {
            assert!(sc >= f);
            assert!(sn >= f);
        }
    }
}

/// Identical seeds and construction produce identical traces.
#[test]
fn seed_determinism() {
    let mut rng = CaseRng(13);
    for _ in 0..32 {
        let seed = rng.range_u64(0, 1_000);
        let sizes = rng.sizes(20, 500);
        let a = run_stream(
            seed,
            sizes.clone(),
            100,
            (1, 1),
            MachineClass::Pc850,
            Bandwidth::MBPS_100,
        );
        let b = run_stream(
            seed,
            sizes,
            100,
            (1, 1),
            MachineClass::Pc850,
            Bandwidth::MBPS_100,
        );
        assert_eq!(a, b);
    }
}

/// SimDuration arithmetic: scaling by the machine factor is monotone
/// and proportional.
#[test]
fn duration_scaling_is_monotone() {
    let mut rng = CaseRng(14);
    for _ in 0..256 {
        let us = rng.range_u64(0, 1_000_000);
        let factor = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 10.0;
        let d = SimDuration::from_micros(us);
        let scaled = d.scale(factor);
        if factor >= 1.0 {
            assert!(scaled >= d);
        } else {
            assert!(scaled <= d);
        }
    }
}

/// Serialization time is additive in bytes (within rounding).
#[test]
fn serialization_time_additivity() {
    let mut rng = CaseRng(15);
    for _ in 0..256 {
        let a = rng.range_u64(1, 100_000) as u32;
        let b = rng.range_u64(1, 100_000) as u32;
        let bw = Bandwidth::MBPS_100;
        let ta = bw.serialization_time(a).as_nanos() as i128;
        let tb = bw.serialization_time(b).as_nanos() as i128;
        let tab = bw.serialization_time(a + b).as_nanos() as i128;
        assert!((ta + tb - tab).abs() <= 1);
    }
}

/// Tracing and CPU accounting integration (deterministic cases).
mod trace_and_cpu {
    use super::*;
    use adamant_netsim::{DropReason, LossModel, MemorySink, NetworkConfig, ObsEvent};

    #[test]
    fn trace_records_send_and_delivery() {
        let mut sim = Simulation::new(1).with_obs_sink(MemorySink::new());
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let rx = sim.add_node(cfg, Recorder { arrivals: vec![] });
        sim.add_node(
            cfg,
            Blaster {
                dst: rx,
                sizes: vec![100, 200],
                interval: SimDuration::from_millis(1),
                cost: ProcessingCost::FREE,
                next: 0,
            },
        );
        sim.run();
        let trace = sim.take_obs_events();
        let sends: Vec<_> = trace
            .iter()
            .filter_map(|e| match e.event {
                ObsEvent::PacketSent { wire_id, .. } => Some((e.time, wire_id)),
                _ => None,
            })
            .collect();
        let deliveries: Vec<_> = trace
            .iter()
            .filter_map(|e| match e.event {
                ObsEvent::PacketDelivered { wire_id, .. } => Some((e.time, wire_id)),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 2);
        assert_eq!(deliveries.len(), 2);
        // Delivery of a wire id never precedes its send.
        for (delivered_at, wire_id) in &deliveries {
            let (sent_at, _) = sends.iter().find(|(_, w)| w == wire_id).unwrap();
            assert!(delivered_at >= sent_at);
        }
    }

    #[test]
    fn trace_records_link_drops() {
        let mut sim = Simulation::new(3)
            .with_obs_sink(MemorySink::new())
            .with_network(NetworkConfig {
                propagation: SimDuration::from_micros(50),
                loss: LossModel::Bernoulli(0.5),
            });
        let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
        let rx = sim.add_node(cfg, Recorder { arrivals: vec![] });
        sim.add_node(
            cfg,
            Blaster {
                dst: rx,
                sizes: vec![64; 1000],
                interval: SimDuration::from_micros(100),
                cost: ProcessingCost::FREE,
                next: 0,
            },
        );
        sim.run();
        let trace = sim.take_obs_events();
        let dropped = trace
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    ObsEvent::PacketDropped {
                        reason: DropReason::Link,
                        ..
                    }
                )
            })
            .count();
        let delivered = trace
            .iter()
            .filter(|e| matches!(e.event, ObsEvent::PacketDelivered { .. }))
            .count();
        assert_eq!(dropped + delivered, 1000);
        assert!(dropped > 300 && dropped < 700);
    }

    #[test]
    fn cpu_accounting_scales_with_machine_class() {
        let run = |machine: MachineClass| {
            let mut sim = Simulation::new(1);
            let rx = sim.add_node(
                HostConfig::new(machine, Bandwidth::GBPS_1),
                Recorder { arrivals: vec![] },
            );
            sim.add_node(
                HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1),
                Blaster {
                    dst: rx,
                    sizes: vec![64; 10],
                    interval: SimDuration::from_millis(1),
                    cost: ProcessingCost::new(
                        SimDuration::from_micros(5),
                        SimDuration::from_micros(20),
                    ),
                    next: 0,
                },
            );
            sim.run();
            sim.cpu_busy(rx)
        };
        let fast = run(MachineClass::Pc3000);
        let slow = run(MachineClass::Pc850);
        assert_eq!(fast, SimDuration::from_micros(200));
        assert_eq!(slow, SimDuration::from_micros(700)); // ×3.5
    }

    #[test]
    fn utilization_is_a_sane_fraction() {
        let mut sim = Simulation::new(1);
        let cfg = HostConfig::new(MachineClass::Pc850, Bandwidth::GBPS_1);
        let rx = sim.add_node(cfg, Recorder { arrivals: vec![] });
        let tx = sim.add_node(
            cfg,
            Blaster {
                dst: rx,
                sizes: vec![64; 100],
                interval: SimDuration::from_millis(1),
                cost: ProcessingCost::symmetric(SimDuration::from_micros(50)),
                next: 0,
            },
        );
        sim.run();
        let u_rx = sim.cpu_utilization(rx);
        let u_tx = sim.cpu_utilization(tx);
        // 100 packets × 175 µs over ~100 ms ≈ 17.5%.
        assert!(u_rx > 0.1 && u_rx < 0.3, "rx utilization {u_rx}");
        assert!(u_tx > 0.1 && u_tx < 0.3, "tx utilization {u_tx}");
    }
}
