//! The hot paths allocate nothing once warm. After warm-up, a simulated
//! event loop recycles every buffer it touches, with raw agents and with
//! protocol cores behind `SimDriver` alike, and an ANN training epoch reuses
//! its scratch. Every `alloc` and `realloc` call is counted: a growing `Vec`
//! is exactly the hidden churn this pins at zero.
//!
//! One test, so nothing else in this process allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use adamant_ann::{train, Activation, NeuralNetwork, TrainParams, TrainingData};
use adamant_netsim::{
    Agent, Bandwidth, Ctx, HostConfig, LossModel, MachineClass, NetworkConfig, NodeId, OutPacket,
    Packet, SimDriver, SimDuration, SimTime, Simulation,
};
use adamant_proto::Span;
use adamant_transport::{AppSpec, NakcastReceiver, NakcastSender, StackProfile, Tuning};

/// Counts every call that requested memory from the system allocator.
struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Answers every packet with the shared empty payload.
struct Pong;

impl Agent for Pong {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        ctx.send(pkt.src, OutPacket::empty(64));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends the first packet and answers every reply, forever.
struct Ping {
    peer: NodeId,
}

impl Agent for Ping {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.peer, OutPacket::empty(64));
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
        ctx.send(self.peer, OutPacket::empty(64));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Runs `sim` to simulated 300 ms, past one full calendar-ring cycle
/// (1 024 buckets × 262 µs ≈ 268 ms) so every bucket has rotated storage,
/// then returns the allocation calls and events of the window 300 → 700 ms.
fn steady_window(mut sim: Simulation) -> (u64, u64) {
    sim.run_until(SimTime::from_millis(300));
    let (before, events) = (calls(), sim.events_processed());
    sim.run_until(SimTime::from_millis(700));
    (calls() - before, sim.events_processed() - events)
}

/// Allocation calls of one RPROP training of `[7, 24, 6]` for `max_epochs`
/// epochs over the 394-row, 7-feature set of the `ann.train_epoch_ms` probe.
fn training_calls(data: &TrainingData, max_epochs: u32) -> u64 {
    let mut net = NeuralNetwork::new(&[7, 24, 6], Activation::fann_default(), 7);
    let before = calls();
    let params = TrainParams {
        stopping_mse: 0.0,
        max_epochs,
        ..TrainParams::default()
    };
    std::hint::black_box(train(&mut net, data, &params));
    calls() - before
}

#[test]
fn warmed_event_loops_and_training_epochs_allocate_nothing() {
    // Short propagation keeps the whole window inside simulated second 0,
    // so even the per-second bandwidth histogram stays at its warm size.
    let network = NetworkConfig {
        propagation: SimDuration::from_nanos(500),
        loss: LossModel::NONE,
    };
    let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);

    // (a) Raw agents: the event loop itself.
    let mut sim = Simulation::new(1).with_network(network);
    let pong = sim.add_node(cfg, Pong);
    sim.add_node(cfg, Ping { peer: pong });
    let (raw_calls, raw_events) = steady_window(sim);

    // (b) A NAKcast sender and three receivers at 10 kHz behind
    // `SimDriver`, which adds what the raw agents bypass: a payload per send
    // and the token/id timer bridge.
    const SAMPLES: u64 = 8_000;
    let mut sim = Simulation::new(1).with_network(network);
    let group = sim.create_group(&[]);
    let app = AppSpec::at_rate(SAMPLES, 10_000.0, 12);
    let sender = NakcastSender::new(app, StackProfile::new(10.0, 48), Tuning::default(), group)
        .with_history_depth(256);
    let tx = sim.add_node(cfg, SimDriver::new(sender));
    sim.join_group(group, tx);
    for _ in 0..3 {
        let receiver =
            NakcastReceiver::new(tx, SAMPLES, Span::from_millis(1), Tuning::default(), 0.0);
        let rx = sim.add_node(cfg, SimDriver::new(receiver));
        sim.join_group(group, rx);
    }
    let (driver_calls, driver_events) = steady_window(sim);

    // (c) Training: 11 epochs allocate exactly what 1 does, so everything
    // is one-time scratch and state construction.
    let data = TrainingData::new(
        (0..394)
            .map(|i| (0..7).map(|d| ((i * 7 + d) % 97) as f64 / 97.0).collect())
            .collect(),
        (0..394).map(|i| adamant_ann::one_hot(i % 6, 6)).collect(),
    );
    let one_epoch = training_calls(&data, 1);
    let eleven_epochs = training_calls(&data, 11);

    assert!(raw_events > 500_000, "raw window held {raw_events} events");
    assert!(
        driver_events > 20_000,
        "driver window held {driver_events} events: the session must still be publishing"
    );
    assert_eq!(
        raw_calls, 0,
        "raw event loop allocated over {raw_events} events"
    );
    assert_eq!(
        driver_calls, 0,
        "SimDriver event loop allocated over {driver_events} events"
    );
    assert_eq!(
        eleven_epochs, one_epoch,
        "ten more training epochs allocated"
    );
}
