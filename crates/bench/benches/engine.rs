//! Substrate hot paths: simulator event processing, metric computation,
//! and ANN training epochs.
//!
//! Besides printing per-iteration timings, this bench writes a
//! machine-readable perf report (`BENCH_netsim.json` at the repo root, or
//! `$ADAMANT_BENCH_OUT`) carrying raw simulator events/sec — with and
//! without a trace sink attached — and per-phase wall-clock, so CI can
//! archive engine throughput and watch the observability overhead.

use adamant_ann::{train, Activation, NeuralNetwork, TrainParams, TrainingData};
use adamant_bench::ScalingPoint;
use adamant_bench::{measure, write_perf_report, PerfReport, PhaseProfiler};
use adamant_metrics::{Delivery, MetricKind, QosReport};
use adamant_netsim::{
    Agent, Bandwidth, CalendarQueue, Ctx, HostConfig, LossModel, MachineClass, MemorySink,
    NetworkConfig, OutPacket, Packet, SimDriver, SimDuration, SimTime, Simulation,
};
use adamant_proto::wire::DataMsg;
use adamant_proto::{
    Env, EnvHost, Input, NodeId, ProcessingCost, ProtocolCore, Span, TimePoint, WireMsg,
};
use adamant_rt::{MuxCluster, MuxConfig};
use adamant_transport::{AppSpec, NakcastReceiver, NakcastSender, StackProfile, Tuning};
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A counting wrapper around the system allocator, installed only in this
/// bench binary so the steady-state alloc measurements observe every heap
/// allocation the hot paths make. `alloc` and `realloc` both count — a
/// growing `Vec` is exactly the kind of hidden churn we are hunting.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Minimal ping-pong agents to exercise the raw event loop. Packets use
/// the shared empty payload, so sending is allocation-free.
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

struct Ping {
    peer: adamant_netsim::NodeId,
    remaining: u32,
}
impl Agent for Ping {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.peer, OutPacket::empty(64));
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(self.peer, OutPacket::empty(64));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn ping_pong_sim(round_trips: u32) -> Simulation {
    let mut sim = Simulation::new(1);
    let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
    let pong = sim.add_node(cfg, Pong);
    sim.add_node(
        cfg,
        Ping {
            peer: pong,
            remaining: round_trips,
        },
    );
    sim
}

fn bench_event_loop(report: &mut PerfReport) {
    const ROUND_TRIPS: u32 = 1_000;
    report
        .measurements
        .push(measure("netsim_event_loop/ping_pong_1000", || {
            let mut sim = ping_pong_sim(ROUND_TRIPS);
            sim.run();
            black_box(sim.events_processed())
        }));
}

/// Raw dispatch throughput over a long run, untraced and traced with a
/// retaining sink — the observability layer's whole-pipeline overhead.
fn events_per_sec(report: &mut PerfReport) {
    const ROUND_TRIPS: u32 = 200_000;
    let run = |traced: bool| {
        let mut sim = ping_pong_sim(ROUND_TRIPS);
        if traced {
            sim.set_obs_sink(MemorySink::new());
        }
        let start = Instant::now();
        sim.run();
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        sim.events_processed() as f64 / secs
    };
    // Warm both paths once before measuring.
    black_box(run(false));
    report.events_per_sec = run(false);
    report.events_per_sec_traced = run(true);
    println!(
        "netsim_event_loop/events_per_sec                   {:>12.0} untraced, {:>12.0} traced",
        report.events_per_sec, report.events_per_sec_traced
    );
}

/// Raw calendar-queue throughput: sustained push+pop churn over a large
/// live set, times drawn from a cheap inline LCG so the generator itself
/// is negligible.
fn bench_queue(report: &mut PerfReport) {
    const LIVE: u64 = 4_096;
    const PAIRS: u64 = 1 << 21;
    let churn = || {
        let mut queue: CalendarQueue<u64> = CalendarQueue::new();
        let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
        let mut clock = 0u64;
        for i in 0..LIVE {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            queue.push(lcg >> 44, i);
        }
        for i in 0..PAIRS {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            queue.push(clock + (lcg >> 44), i);
            let (t, _, item) = queue.pop().expect("queue populated");
            clock = t;
            black_box(item);
        }
        while let Some(e) = queue.pop() {
            black_box(e);
        }
    };
    churn();
    let start = Instant::now();
    churn();
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    // One push and one pop per pair.
    report.queue_ops_per_sec = (2 * PAIRS) as f64 / secs;
    println!(
        "calendar_queue/push_pop_ops_per_sec                {:>12.0}",
        report.queue_ops_per_sec
    );
}

/// Sans-I/O protocol-engine throughput: effects per second out of a
/// warmed NAKcast receiver core stepped directly through `EnvHost` with
/// an in-order data stream — no simulator, no sockets, just the state
/// machine. This is the ceiling any driver (netsim or real UDP) steps
/// against, kept in the report so driver work has a baseline.
fn bench_proto_step(report: &mut PerfReport) {
    const PACKETS: u64 = 200_000;
    let sender = NodeId(0);
    let run = || {
        let mut core = NakcastReceiver::new(
            sender,
            PACKETS,
            Span::from_millis(1),
            Tuning::default(),
            0.0,
        );
        let mut host = EnvHost::new(NodeId(1), 1);
        let mut effects = Vec::new();
        let mut total = 0u64;
        let start = Instant::now();
        for seq in 0..PACKETS {
            let msg = WireMsg::Data(DataMsg {
                seq,
                published_at: TimePoint::from_micros(seq * 10),
                retransmission: false,
            });
            host.step_into(
                &mut core,
                TimePoint::from_micros(seq * 10 + 5),
                Input::PacketIn {
                    src: sender,
                    msg: &msg,
                },
                &mut effects,
            );
            total += effects.len() as u64;
            effects.clear();
        }
        (total, start.elapsed())
    };
    // One full pass warms the core's reception log and the host buffers.
    black_box(run());
    let (total, elapsed) = run();
    assert!(total >= PACKETS, "every in-order packet must deliver");
    report.proto_effects_per_sec = total as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "proto_step/nakcast_effects_per_sec                 {:>12.0} ({total} effects)",
        report.proto_effects_per_sec
    );
}

/// A timer-paced publisher that loops datagrams back to itself: every
/// `period` it sends a burst of `Data` messages addressed to its own node
/// (its route table maps that to its own endpoint) and delivers whatever
/// arrives. This is the paper's periodic-sender shape reduced to one
/// endpoint, so a fleet of them measures how many concurrently paced
/// endpoints a host can sustain — the consolidation question the sharded
/// runtime exists to answer. The first timer is staggered by node id so a
/// large fleet does not fire as one thundering herd.
struct PacedEcho {
    period: Span,
    burst: u32,
    seq: u64,
}

impl ProtocolCore for PacedEcho {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => {
                let phase = u64::from(env.node().0) % 997;
                env.set_timer(Span::from_nanos(self.period.as_nanos() * phase / 997), 0);
            }
            Input::TimerFired { .. } => {
                let node = env.node();
                for _ in 0..self.burst {
                    let msg = WireMsg::Data(DataMsg {
                        seq: self.seq,
                        published_at: env.now(),
                        retransmission: false,
                    });
                    self.seq += 1;
                    env.send(node, 64, 0, ProcessingCost::FREE, msg);
                }
                env.set_timer(self.period, 0);
            }
            Input::PacketIn { msg, .. } => {
                if let WireMsg::Data(d) = msg {
                    env.deliver(d.seq, d.published_at, false);
                }
            }
            Input::Tick => {}
        }
    }
}

/// Aggregate delivered-message throughput of 1024 timer-paced echo
/// endpoints inside a `MuxCluster`: per-worker shared-socket pools,
/// `epoll` parking, `recvmmsg`/`sendmmsg` batches, and same-destination
/// messages packed into one datagram, under a saturating offered load.
fn bench_cluster(report: &mut PerfReport) {
    use std::time::Duration;

    // A saturating offered load (1024 endpoints x 16 msgs/ms = 16M/s
    // offered): what the runtime delivers is its single-host capacity.
    const MUX_ENDPOINTS: u32 = 1024;
    const MUX_WALL: Duration = Duration::from_millis(300);
    let mut mux = MuxCluster::bind(
        "127.0.0.1:0",
        MuxConfig::new(4)
            .with_sockets_per_worker(4)
            .with_batch_size(64)
            .with_observed(false)
            .with_seed(1),
    )
    .expect("bind mux cluster");
    for i in 0..MUX_ENDPOINTS {
        let id = mux
            .add_endpoint(
                NodeId(i),
                PacedEcho {
                    period: Span::from_millis(1),
                    burst: 16,
                    seq: 0,
                },
            )
            .expect("add mux endpoint");
        mux.add_peer(id, id).expect("self route");
    }
    let mux_start = Instant::now();
    mux.run_for(MUX_WALL).expect("mux echo run");
    let mux_secs = mux_start.elapsed().as_secs_f64().max(1e-9);
    report.cluster_msgs_per_sec = mux.stats().delivered as f64 / mux_secs;

    println!(
        "cluster/echo_msgs_per_sec                          {:>12.0} (1024 ep)",
        report.cluster_msgs_per_sec,
    );
}

/// Endpoint-count scaling of the multiplexed runtime: 1k, 10k, and 100k
/// self-echo endpoints under a constant aggregate offered load (~1M
/// msgs/s — each point scales the pacing period with the fleet size).
/// Flat delivered throughput across the series demonstrates that per-
/// endpoint cost is independent of fleet size: the descriptor budget
/// stays at `workers x sockets_per_worker`, demux is O(1) per datagram,
/// and idle endpoints cost nothing (`busy_polls` stays near zero because
/// workers park in `epoll` instead of spinning).
fn bench_endpoint_scaling(report: &mut PerfReport) {
    use std::time::Duration;

    for endpoints in [1_000u64, 10_000, 100_000] {
        let mut mux = MuxCluster::bind(
            "127.0.0.1:0",
            MuxConfig::new(4)
                .with_sockets_per_worker(4)
                .with_batch_size(64)
                .with_observed(false)
                .with_seed(endpoints),
        )
        .expect("bind mux cluster");
        // Period grows with the fleet so offered load stays ~1M msgs/s;
        // the wall covers the staggered ramp-up plus two steady periods.
        let period = Span::from_micros(4 * endpoints);
        let wall =
            Duration::from_micros(3 * period.as_nanos() / 1000).max(Duration::from_millis(600));
        for i in 0..endpoints as u32 {
            let id = mux
                .add_endpoint(
                    NodeId(i),
                    PacedEcho {
                        period,
                        burst: 4,
                        seq: 0,
                    },
                )
                .expect("add mux endpoint");
            mux.add_peer(id, id).expect("self route");
        }
        let start = Instant::now();
        mux.run_for(wall).expect("mux scaling run");
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let stats = mux.stats();
        let point = ScalingPoint {
            endpoints,
            msgs_per_sec: stats.delivered as f64 / secs,
            busy_polls: stats.busy_polls,
        };
        println!(
            "cluster_scaling/{endpoints}ep_msgs_per_sec{:pad$} {:>12.0} ({} busy polls)",
            "",
            point.msgs_per_sec,
            point.busy_polls,
            pad = 24usize.saturating_sub(endpoints.to_string().len()),
        );
        report.endpoint_scaling.push(point);
    }
}

/// Counts heap allocations across a steady-state window of the event loop
/// and across warmed-up training epochs. Both are designed to be zero:
/// every buffer the hot paths touch is recycled after warm-up.
fn bench_allocations(report: &mut PerfReport) {
    // Short propagation keeps the whole window inside simulated second 0,
    // so even the per-second bandwidth histogram stays at its warm size.
    let network = NetworkConfig {
        propagation: SimDuration::from_nanos(500),
        loss: LossModel::NONE,
    };
    // Warm-up must exceed one full calendar-ring cycle (1024 buckets ×
    // 262 µs ≈ 268 ms of simulated time) so every bucket slot has rotated
    // storage before counting begins.
    let mut sim = ping_pong_sim(u32::MAX).with_network(network);
    sim.run_until(SimTime::from_millis(300));
    let warmed_events = sim.events_processed();
    let before = allocations();
    sim.run_until(SimTime::from_millis(700));
    report.event_loop_steady_allocs = allocations() - before;
    let window_events = sim.events_processed() - warmed_events;
    println!(
        "netsim_event_loop/steady_state_allocs              {:>12} (over {} events)",
        report.event_loop_steady_allocs, window_events
    );

    // The same window through `SimDriver`: a NAKcast sender and three
    // receivers at 10 kHz, loss-free. The raw agents above send the shared
    // empty payload and arm no timer, so they bypass exactly what the
    // driver adds — a payload per send and the token/id timer bridge.
    const SAMPLES: u64 = 8_000;
    let mut sim = Simulation::new(1).with_network(network);
    let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
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
    sim.run_until(SimTime::from_millis(300));
    let warmed_events = sim.events_processed();
    let before = allocations();
    sim.run_until(SimTime::from_millis(700));
    report.event_loop_steady_allocs_driver = allocations() - before;
    let window_events = sim.events_processed() - warmed_events;
    assert!(
        window_events > 20_000,
        "the session must still be publishing"
    );
    println!(
        "netsim_event_loop/steady_state_allocs_driver       {:>12} (over {} events)",
        report.event_loop_steady_allocs_driver, window_events
    );

    // Training: identical runs at 1 and 11 epochs; the difference isolates
    // ten warmed-up epochs from one-time scratch/state construction.
    let data = training_data();
    let epochs_allocs = |max_epochs: u32| {
        let mut net = NeuralNetwork::new(&[7, 24, 6], Activation::fann_default(), 7);
        let before = allocations();
        black_box(train(
            &mut net,
            &data,
            &TrainParams {
                stopping_mse: 0.0,
                max_epochs,
                ..TrainParams::default()
            },
        ));
        allocations() - before
    };
    let one = epochs_allocs(1);
    let eleven = epochs_allocs(11);
    report.training_epoch_allocs = eleven.saturating_sub(one) / 10;
    println!(
        "ann_training/steady_state_allocs_per_epoch         {:>12}",
        report.training_epoch_allocs
    );
}

fn bench_metrics(report: &mut PerfReport) {
    let deliveries: Vec<Delivery> = (0..10_000u64)
        .map(|seq| Delivery {
            seq,
            published_at: SimTime::from_micros(seq * 100),
            delivered_at: SimTime::from_micros(seq * 100 + 350 + (seq % 13) * 7),
            recovered: seq % 20 == 0,
        })
        .collect();
    report
        .measurements
        .push(measure("metrics/report_build_10k", || {
            let mut builder = QosReport::builder(10_000, 1);
            builder.add_receiver(black_box(&deliveries), 0);
            black_box(builder.finish())
        }));
    let mut builder = QosReport::builder(10_000, 1);
    builder.add_receiver(&deliveries, 0);
    let built = builder.finish();
    report
        .measurements
        .push(measure("metrics/relate2jit_score", || {
            black_box(MetricKind::ReLate2Jit.score(black_box(&built)))
        }));
}

/// A 394-row, 7-feature dataset (the paper's training-set scale).
fn training_data() -> TrainingData {
    let inputs: Vec<Vec<f64>> = (0..394)
        .map(|i| (0..7).map(|d| ((i * 7 + d) % 97) as f64 / 97.0).collect())
        .collect();
    let targets: Vec<Vec<f64>> = (0..394)
        .map(|i| {
            let mut t = vec![0.0; 6];
            t[i % 6] = 1.0;
            t
        })
        .collect();
    TrainingData::new(inputs, targets)
}

fn bench_training(report: &mut PerfReport) {
    // Ten RPROP epochs over the paper-scale dataset.
    let data = training_data();
    report
        .measurements
        .push(measure("ann_training/rprop_10_epochs_394rows", || {
            let mut net = NeuralNetwork::new(&[7, 24, 6], Activation::fann_default(), 7);
            black_box(train(
                &mut net,
                &data,
                &TrainParams {
                    stopping_mse: 0.0,
                    max_epochs: 10,
                    ..TrainParams::default()
                },
            ))
        }));
}

fn main() {
    let mut profiler = PhaseProfiler::new();
    let mut report = PerfReport {
        bench: "engine".to_owned(),
        events_per_sec: 0.0,
        events_per_sec_traced: 0.0,
        queue_ops_per_sec: 0.0,
        proto_effects_per_sec: 0.0,
        cluster_msgs_per_sec: 0.0,
        endpoint_scaling: Vec::new(),
        event_loop_steady_allocs: 0,
        event_loop_steady_allocs_driver: 0,
        training_epoch_allocs: 0,
        measurements: Vec::new(),
        phases: Vec::new(),
    };
    profiler.phase("event_loop", || bench_event_loop(&mut report));
    profiler.phase("events_per_sec", || events_per_sec(&mut report));
    profiler.phase("calendar_queue", || bench_queue(&mut report));
    profiler.phase("proto_step", || bench_proto_step(&mut report));
    profiler.phase("cluster", || bench_cluster(&mut report));
    profiler.phase("cluster_endpoints_scaling", || {
        bench_endpoint_scaling(&mut report)
    });
    profiler.phase("allocations", || bench_allocations(&mut report));
    profiler.phase("metrics", || bench_metrics(&mut report));
    profiler.phase("ann_training", || bench_training(&mut report));
    report.phases = profiler.phases().to_vec();
    match write_perf_report(&report) {
        Ok(path) => println!("perf report: {}", path.display()),
        Err(e) => {
            eprintln!("failed to write perf report: {e}");
            std::process::exit(1);
        }
    }
}
