//! Per-layer probes: the cost of each crate's hot public calls, timed from
//! outside with `Instant`. A traced run executes all of them after the
//! workload, whatever the workload, so that every run carries the layer
//! costs measured in the same process, minutes apart from nothing.
//!
//! Which end-to-end metric each probe should move is written down in the
//! README; the probes only measure.

use std::any::Any;
use std::hint::black_box;
use std::time::{Duration, Instant};

use adamant::features::{candidate_protocols, raw_features};
use adamant::{
    AdaptivePolicy, AppParams, BandwidthClass, Choice, Environment, OnlineTrainer,
    OnlineTrainingConfig, QosObservation, ResilientSelector, StreamConfig,
};
use adamant_ann::{train, Activation, BatchScratch, NeuralNetwork, TrainParams, TrainingData};
use adamant_dds::DdsImplementation;
use adamant_metrics::{percentile, Delivery, LatencyHistogram, MetricKind, QosReport, WindowQos};
use adamant_netsim::{
    Agent, Bandwidth, Ctx, FaultPlan, HostConfig, MachineClass, MemorySink, OutPacket, Packet,
    SimDuration, SimTime, Simulation,
};
use adamant_proto::{
    Effect, Env, EnvHost, FrameBody, FrameHeader, GroupId, Input, NodeId, ProcessingCost,
    ProtocolCore, Span, TimePoint, TimerWheel, WireMsg,
};
use adamant_rt::{MuxCluster, MuxConfig};
use adamant_transport::{
    AppSpec, NakcastReceiver, NakcastSender, ProtocolKind, StackProfile, TransportConfig, Tuning,
};

use crate::offline::{query_mix, train_selector, Cell};
use crate::report::Metric;
use crate::trace::Tracer;

/// Nanoseconds per call of `f`: the median of five batches, each sized from
/// a first call to last about ten milliseconds.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    f();
    let one = start.elapsed().as_nanos().max(1) as f64;
    let calls = (1e7 / one).clamp(1.0, 1e6) as u64;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    percentile(&batches, 0.5).expect("five batches")
}

/// Median wall time of `runs` calls of `f`, in the unit `per_second` sets
/// (1e3 for ms, 1e6 for us).
fn median_time(runs: usize, per_second: f64, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * per_second
        })
        .collect();
    percentile(&times, 0.5).expect("at least one run")
}

fn sample_msg(seq: u64) -> WireMsg {
    crate::cores::data(seq, TimePoint::from_micros(seq))
}

/// Answers every data message with one to itself, like the echo workloads'
/// cores, minus their measuring.
struct BareEcho;

impl ProtocolCore for BareEcho {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        if let Input::PacketIn {
            msg: WireMsg::Data(d),
            ..
        } = input
        {
            let node = env.node();
            env.send(node, 64, 0, ProcessingCost::FREE, sample_msg(d.seq + 1));
        }
    }
}

fn proto(out: &mut Vec<Metric>) {
    let header = FrameHeader {
        src: NodeId(7),
        dst_endpoint: 7,
        dst_incarnation: 0,
    };
    let msg = sample_msg(123_456);
    let (mut frame, mut body) = (Vec::new(), Vec::new());
    let encode = ns_per_call(|| {
        frame.clear();
        body.clear();
        black_box(&msg).encode(&mut body);
        header.encode(&mut frame);
        FrameHeader::encode_body_entry(&mut frame, &body);
        black_box(&frame);
    });
    let decode = ns_per_call(|| {
        let (header, body) = FrameHeader::decode(black_box(&frame)).expect("header");
        for entry in FrameBody::new(body) {
            black_box(WireMsg::decode(entry));
        }
        black_box(header);
    });
    let mut host = EnvHost::new(NodeId(7), 1).with_observed(false);
    let mut effects = Vec::new();
    let step = ns_per_call(|| {
        effects.clear();
        let input = Input::PacketIn {
            src: NodeId(7),
            msg: black_box(&msg),
        };
        host.step_into(
            &mut BareEcho,
            TimePoint::from_micros(5),
            input,
            &mut effects,
        );
        black_box(&effects);
    });
    out.push(Metric::new("proto.wire_encode_ns", encode, "ns"));
    out.push(Metric::new("proto.wire_decode_ns", decode, "ns"));
    out.push(Metric::new("proto.envhost_step_ns", step, "ns"));

    // A token is only unique per owner, and each timer here has its own
    // owner, so one token (minted the only way the API allows) serves all.
    struct Mint;
    impl ProtocolCore for Mint {
        fn step(&mut self, _: Input<'_>, env: &mut Env<'_>) {
            env.set_timer(Span::ZERO, 0);
        }
    }
    let minted = EnvHost::new(NodeId(0), 0).step(&mut Mint, TimePoint::ZERO, Input::Start);
    let Some(&Effect::SetTimer { token, .. }) = minted.first() else {
        unreachable!("the mint arms one timer")
    };
    for (name, live) in [("1k", 1_000u64), ("100k", 100_000)] {
        let mut wheel = TimerWheel::new();
        for i in 0..live {
            wheel.arm(TimePoint::from_micros(i), i as u32, token, 0);
        }
        let mut next = live;
        let arm_pop = ns_per_call(|| {
            // One fires, one is armed a full cycle later: `live` stay live.
            let fire = wheel.pop_due(TimePoint::MAX).expect("a live timer");
            wheel.arm(TimePoint::from_micros(next), fire.owner, token, 0);
            next += 1;
        });
        out.push(Metric::new(
            format!("proto.wheel_arm_pop_ns.{name}"),
            arm_pop,
            "ns",
        ));
    }
}

fn transport(out: &mut Vec<Metric>) {
    const PACKETS: u64 = 100_000;
    let sender = NodeId(0);
    let rx_step = median_time(3, 1e9 / PACKETS as f64, || {
        let mut core = NakcastReceiver::new(
            sender,
            PACKETS,
            Span::from_millis(2),
            Tuning::default(),
            0.0,
        );
        let mut host = EnvHost::new(NodeId(1), 1).with_observed(false);
        let mut effects = Vec::new();
        for seq in 0..PACKETS {
            let msg = sample_msg(seq);
            let input = Input::PacketIn {
                src: sender,
                msg: &msg,
            };
            host.step_into(
                &mut core,
                TimePoint::from_micros(seq + 5),
                input,
                &mut effects,
            );
            effects.clear();
        }
        black_box(&core);
    });
    out.push(Metric::new("transport.nakcast_rx_step_ns", rx_step, "ns"));

    // The sender is driven through its own timers: each `SetTimer` it emits
    // is fired back at its due time, earliest first.
    let tx_publish = median_time(3, 1e9 / PACKETS as f64, || {
        let mut core = NakcastSender::new(
            AppSpec::at_rate(PACKETS, 1_000.0, 12),
            StackProfile::new(10.0, 48),
            Tuning::default(),
            GroupId(0),
        );
        let mut host = EnvHost::new(sender, 1)
            .with_observed(false)
            .with_groups(vec![vec![sender, NodeId(1)]]);
        let mut effects = Vec::new();
        let mut timers = Vec::new();
        let mut now = TimePoint::ZERO;
        let mut input = Input::Start;
        while core.published() < PACKETS {
            host.step_into(&mut core, now, input, &mut effects);
            for effect in effects.drain(..) {
                if let Effect::SetTimer { token, delay, tag } = effect {
                    timers.push((now + delay, token, tag));
                }
            }
            let earliest = (0..timers.len())
                .min_by_key(|&i| timers[i].0)
                .expect("a publishing sender keeps a timer armed");
            let (at, token, tag) = timers.swap_remove(earliest);
            now = at;
            input = Input::TimerFired { token, tag };
        }
        black_box(&core);
    });
    out.push(Metric::new(
        "transport.nakcast_tx_publish_ns",
        tx_publish,
        "ns",
    ));
}

struct Idle;

impl ProtocolCore for Idle {
    fn step(&mut self, _: Input<'_>, _: &mut Env<'_>) {}
}

fn rt(out: &mut Vec<Metric>, seed: u64) {
    const ENDPOINTS: u32 = 1024;
    let capacity = crate::rt_workloads::closed_loop(&mut Tracer::new(false), seed, 1.0, 1);
    out.push(Metric::new(
        "rt.single_dgram_capacity_per_s",
        capacity.ops as f64 / capacity.span_s,
        "1/s",
    ));

    let (mut add_endpoint, mut add_peer, mut run_for) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut cluster =
            MuxCluster::bind("127.0.0.1:0", MuxConfig::new(2).with_observed(false)).expect("bind");
        let start = Instant::now();
        let ids: Vec<_> = (0..ENDPOINTS)
            .map(|i| cluster.add_endpoint(NodeId(i), Idle).expect("add endpoint"))
            .collect();
        add_endpoint.push(start.elapsed().as_nanos() as f64 / f64::from(ENDPOINTS));
        let start = Instant::now();
        for &id in &ids {
            cluster.add_peer(id, id).expect("self route");
        }
        add_peer.push(start.elapsed().as_nanos() as f64 / f64::from(ENDPOINTS));
        // The first window also delivers `Start`; the second is spawn + join.
        cluster.run_for(Duration::ZERO).expect("first window");
        run_for.push(median_time(3, 1e6, || {
            cluster.run_for(Duration::ZERO).expect("empty window")
        }));
    }
    let mid = |v: &[f64]| percentile(v, 0.5).expect("five builds");
    out.push(Metric::new("rt.add_endpoint_ns", mid(&add_endpoint), "ns"));
    out.push(Metric::new("rt.add_peer_ns", mid(&add_peer), "ns"));
    out.push(Metric::new("rt.run_for_overhead_us", mid(&run_for), "us"));
}

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
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: Packet) {
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

/// The fast environment of the paper's figures, or its same-host twin for
/// the one protocol that needs writer and readers on one machine.
fn reference_env(protocol: ProtocolKind) -> Environment {
    match protocol {
        ProtocolKind::ShmCast { .. } => {
            Environment::colocated(MachineClass::Pc3000, DdsImplementation::OpenSplice)
        }
        _ => adamant_bench::figure_environment(true),
    }
}

fn netsim(out: &mut Vec<Metric>) {
    const ROUND_TRIPS: u32 = 50_000;
    let events_per_s = |traced: bool| {
        let rates: Vec<f64> = (0..3)
            .map(|_| {
                let mut sim = Simulation::new(1);
                let cfg = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
                let pong = sim.add_node(cfg, Pong);
                sim.add_node(
                    cfg,
                    Ping {
                        peer: pong,
                        remaining: ROUND_TRIPS,
                    },
                );
                if traced {
                    sim.set_obs_sink(MemorySink::new());
                }
                let start = Instant::now();
                sim.run();
                sim.events_processed() as f64 / start.elapsed().as_secs_f64()
            })
            .collect();
        percentile(&rates, 0.5).expect("three runs")
    };
    out.push(Metric::new(
        "netsim.events_per_s",
        events_per_s(false),
        "1/s",
    ));
    out.push(Metric::new(
        "netsim.events_per_s_traced",
        events_per_s(true),
        "1/s",
    ));
    // One fixed reference cell per candidate protocol.
    for protocol in candidate_protocols() {
        let cell = Cell::new(reference_env(protocol), AppParams::new(3, 25), protocol, 42);
        let ms = median_time(5, 1e3, || {
            black_box(cell.run());
        });
        out.push(Metric::new(
            format!("netsim.cell_ms.{}", protocol.label()),
            ms,
            "ms",
        ));
    }
}

fn metrics(out: &mut Vec<Metric>) {
    let mut hist = LatencyHistogram::new();
    let mut us = 1.0;
    let record = ns_per_call(|| {
        us = if us > 1e6 { 1.0 } else { us * 1.37 };
        hist.record_us(black_box(us));
    });
    let deliveries: Vec<Delivery> = (0..10_000u64)
        .map(|seq| Delivery {
            seq,
            published_at: SimTime::from_micros(seq * 100),
            delivered_at: SimTime::from_micros(seq * 100 + 350 + (seq % 13) * 7),
            recovered: seq % 20 == 0,
        })
        .collect();
    let build = |deliveries: &[Delivery]| {
        let mut builder = QosReport::builder(10_000, 1);
        builder.add_receiver(deliveries, 0);
        builder.finish()
    };
    let report_build = ns_per_call(|| {
        black_box(build(black_box(&deliveries)));
    });
    let report = build(&deliveries);
    let score = ns_per_call(|| {
        black_box(MetricKind::ReLate2.score(black_box(&report)));
    });
    out.push(Metric::new("metrics.hist_record_ns", record, "ns"));
    out.push(Metric::new(
        "metrics.report_build_us_10k",
        report_build / 1e3,
        "us",
    ));
    out.push(Metric::new("metrics.relate2_score_ns", score, "ns"));
}

fn ann_and_core(out: &mut Vec<Metric>, seed: u64) {
    const ROWS: usize = 1024;
    let selector = train_selector();
    let queries = query_mix(seed, ROWS);
    let net = selector.network();
    let input = vec![0.5; net.input_size()];
    let cols = vec![0.5; ROWS * net.input_size()];
    let mut scratch = BatchScratch::new();
    let mut scores = Vec::new();
    let forward = ns_per_call(|| {
        black_box(net.run_scratch(black_box(&input), &mut scratch));
    });
    let batch_forward = ns_per_call(|| {
        net.run_batch_cols_into(black_box(&cols), ROWS, &mut scratch, &mut scores);
        black_box(&scores);
    });
    // A 394-row, 7-feature set: the paper's training-set scale.
    let data = TrainingData::new(
        (0..394)
            .map(|i| (0..7).map(|d| ((i * 7 + d) % 97) as f64 / 97.0).collect())
            .collect(),
        (0..394).map(|i| adamant_ann::one_hot(i % 6, 6)).collect(),
    );
    let ten_epochs = TrainParams {
        stopping_mse: 0.0,
        max_epochs: 10,
        ..TrainParams::default()
    };
    let train_ms = median_time(5, 1e3, || {
        let mut net = NeuralNetwork::new(&[7, 24, 6], Activation::fann_default(), 7);
        black_box(train(&mut net, &data, &ten_epochs));
    });
    out.push(Metric::new("ann.forward_ns", forward, "ns"));
    out.push(Metric::new(
        "ann.batch_forward_ns_per_row",
        batch_forward / ROWS as f64,
        "ns",
    ));
    out.push(Metric::new("ann.train_epoch_ms", train_ms / 10.0, "ms"));

    let q = queries[0];
    let scalar = ns_per_call(|| {
        black_box(selector.select(black_box(&q.env), &q.app, q.metric));
    });
    let mut choices = vec![Choice::default(); ROWS];
    let batch = ns_per_call(|| {
        selector.select_batch(black_box(&queries), &mut choices);
        black_box(&choices);
    });
    let encode = ns_per_call(|| {
        black_box(raw_features(black_box(&q.env), &q.app, q.metric));
    });
    out.push(Metric::new("core.select_scalar_ns", scalar, "ns"));
    out.push(Metric::new(
        "core.select_batch_ns_per_row",
        batch / ROWS as f64,
        "ns",
    ));
    out.push(Metric::new("core.feature_encode_ns", encode, "ns"));

    // A fleet that measured class 0 best under light loss and class 3 best
    // under heavy loss: 24 environments, two classes observed in each.
    let observations: Vec<QosObservation> = BandwidthClass::all()
        .into_iter()
        .flat_map(|bandwidth| (1..=8u8).map(move |loss| (bandwidth, loss)))
        .flat_map(|(bandwidth, loss)| {
            let env = Environment::new(
                MachineClass::Pc3000,
                bandwidth,
                DdsImplementation::OpenSplice,
                loss,
            );
            let (slow, fast) = if loss <= 4 { (3, 0) } else { (0, 3) };
            (0..3u64).flat_map(move |rep| {
                [(slow, 9_000.0), (fast, 700.0)].map(|(class, latency_us)| QosObservation {
                    env,
                    app: AppParams::new(2, 100),
                    metric: MetricKind::ReLate2,
                    class,
                    window: WindowQos {
                        start: SimTime::ZERO,
                        length: SimDuration::from_secs(1),
                        published: 100,
                        delivered: 100,
                        avg_latency_us: latency_us + rep as f64,
                        jitter_us: 0.0,
                    },
                })
            })
        })
        .collect();
    let retrain_ms = median_time(3, 1e3, || {
        let mut trainer = OnlineTrainer::new(OnlineTrainingConfig::default());
        observations.iter().for_each(|&obs| trainer.observe(obs));
        black_box(trainer.maybe_retrain(None));
    });
    let policy = AdaptivePolicy::new(MetricKind::ReLate2);
    let stream = StreamConfig::new(
        reference_env(ProtocolKind::Udp),
        AppParams::new(2, 100),
        400,
        11,
    );
    let initial = TransportConfig::new(ResilientSelector::fallback_protocol());
    let stream_ms = median_time(3, 1e3, || {
        black_box(policy.run_stream(&stream, initial, FaultPlan::new()));
    });
    out.push(Metric::new("core.online_retrain_ms", retrain_ms, "ms"));
    out.push(Metric::new("core.policy_stream_ms", stream_ms, "ms"));
}

/// Every probe of every layer. `dds`, `json`, `mc` and `experiments` are off
/// every measured path and have none.
pub fn probe_all(tr: &mut Tracer, seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let open = tr.begin("layer probes");
    proto(&mut out);
    transport(&mut out);
    rt(&mut out, seed);
    netsim(&mut out);
    metrics(&mut out);
    ann_and_core(&mut out, seed);
    tr.end(open);
    out
}
