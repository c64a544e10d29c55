//! The four workloads that run over real UDP sockets on the loopback
//! interface, through `adamant_rt::MuxCluster`.
//!
//! All of them share one shape: set the cluster up (several times, timed),
//! run it for one `run_for` window, then harvest the cores, the cluster's
//! counters and `/proc`. The measured window is cut into [`WINDOWS`] equal
//! time windows; the first two are warm-up and the last is the grace in
//! which open-loop publishers are silent, and the rest feed the window
//! estimators of `report.rs`.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adamant_proto::{Clock, DetRng, GroupId, NodeId, ProtocolCore, Span};
use adamant_rt::{ClusterStats, EndpointId, MonotonicClock, MuxCluster, MuxConfig};
use adamant_transport::{
    AppSpec, DataReader, NakcastReceiver, NakcastSender, ProtocolStats, StackProfile, Tuning,
};

use crate::cores::{EchoCore, PacedCore, Probe, Shared, ECHO_SAMPLE_EVERY};
use crate::hist::Hist;
use crate::procfs;
use crate::report::{steady, Measured, Metric, WINDOWS};
use crate::trace::Tracer;

/// Runtime worker threads, in every workload. On a 2-CPU machine a second
/// busy worker leaves no CPU for the kernel's threads and the harness, and
/// the process is pinned to one CPU anyway (see `awake.rs`); the cores also
/// record into one set of histograms, which only one thread may write.
const WORKERS: usize = 1;

/// A cluster ready to run, with what is needed to read it afterwards.
struct Rig {
    cluster: MuxCluster,
    shared: Arc<Shared>,
    ids: Vec<EndpointId>,
}

fn bind(tr: &mut Tracer, seed: u64, seconds: f64) -> (MuxCluster, Arc<Shared>) {
    let clock = MonotonicClock::start();
    let cfg = MuxConfig::new(WORKERS)
        .with_sockets_per_worker(4)
        .with_batch_size(64)
        .with_observed(false)
        .with_seed(seed)
        .with_clock(clock);
    let cluster = tr.span("MuxCluster::bind", || {
        MuxCluster::bind("127.0.0.1:0", cfg).expect("bind loopback sockets")
    });
    let window_ns = (seconds * 1e9 / WINDOWS as f64) as u64;
    (cluster, Shared::new(clock, WINDOWS, window_ns.max(1)))
}

/// Adds `n` self-routed endpoints, node id = endpoint index.
fn add_self_echo<C: ProtocolCore>(
    tr: &mut Tracer,
    cluster: &mut MuxCluster,
    n: u32,
    mut core: impl FnMut(u32) -> C,
) -> Vec<EndpointId> {
    (0..n)
        .map(|i| {
            let core = core(i);
            let id = tr.span("add_endpoint", || {
                cluster.add_endpoint(NodeId(i), core).expect("add endpoint")
            });
            tr.span("add_peer", || cluster.add_peer(id, id).expect("self route"));
            id
        })
        .collect()
}

/// Sets up `repeats` times, timing each, and keeps the last.
fn set_up(
    tr: &mut Tracer,
    repeats: usize,
    mut build: impl FnMut(&mut Tracer) -> Rig,
) -> (Vec<f64>, Rig) {
    let mut times = Vec::with_capacity(repeats);
    let mut rig = None;
    for _ in 0..repeats.max(1) {
        drop(rig.take()); // one cluster alive at a time, so peak RSS is one cluster's
        let open = tr.begin("setup");
        let start = Instant::now();
        rig = Some(build(tr));
        times.push(start.elapsed().as_secs_f64());
        tr.end(open);
    }
    (times, rig.expect("at least one set-up"))
}

/// What the run window itself cost.
struct Window {
    wall_s: f64,
    cpu_s: (f64, f64),
    rss_growth_mb: f64,
    /// CPU nanoseconds of all threads in each steady window.
    steady_cpu_ns: Vec<u64>,
}

fn run_window(tr: &mut Tracer, rig: &mut Rig, seconds: f64) -> Window {
    let Rig {
        cluster, shared, ..
    } = rig;
    let origin = shared.clock.now();
    let stop = origin + Span::from_nanos(shared.window_ns * (WINDOWS as u64 - 1));
    shared.arm(origin, stop);
    let rss = procfs::rss_mb();
    let cpu = procfs::cpu_seconds();
    let start = Instant::now();
    let window = Duration::from_nanos(shared.window_ns);
    // A sampler thread reads the process's CPU time at every window boundary
    // while the workers run (it sleeps in between, costing nothing).
    let marks = std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            (0..WINDOWS as u32)
                .map(|boundary| {
                    std::thread::sleep((window * boundary).saturating_sub(start.elapsed()));
                    procfs::task_cpu_ns()
                })
                .collect::<Vec<u64>>()
        });
        tr.span("run_for", || {
            cluster
                .run_for(Duration::from_secs_f64(seconds))
                .expect("run_for")
        });
        sampler.join().expect("cpu sampler")
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = procfs::cpu_seconds();
    Window {
        wall_s,
        cpu_s: (after.0 - cpu.0, after.1 - cpu.1),
        rss_growth_mb: procfs::rss_mb() - rss,
        steady_cpu_ns: steady()
            .map(|w| marks[w + 1].saturating_sub(marks[w]))
            .collect(),
    }
}

/// The steady windows of the run: latency by delivery window, and the loss
/// of the samples published in the same window.
fn steady_windows(shared: &Shared, whole_run_loss_percent: Option<f64>) -> (Vec<Hist>, Vec<f64>) {
    steady()
        .map(|w| {
            let latency = shared.latency.snapshot(w);
            let loss = whole_run_loss_percent.unwrap_or_else(|| {
                let published = shared.published[w].load(Relaxed);
                let delivered = shared.by_publish.snapshot(w).count();
                100.0 * (1.0 - delivered as f64 / published.max(1) as f64).max(0.0)
            });
            (latency, loss)
        })
        .unzip()
}

fn typed_drops(stats: &ClusterStats) -> u64 {
    stats.decode_errors + stats.header_drops + stats.unknown_endpoint_drops + stats.stale_drops
}

/// The per-layer counters every socket workload produces the same way.
fn rt_layer_counters(
    m: &mut Measured,
    shared: &Shared,
    stats: &ClusterStats,
    window: &Window,
    messages: u64,
) {
    let late = shared.timer_late.snapshot(0);
    let pooled = m.pooled();
    let cpu = window.cpu_s.0 + window.cpu_s.1;
    let count = |name: &str, v: u64| Metric::new(name, v as f64, "count");
    m.layer.extend([
        Metric::new(
            "rt.msgs_per_datagram",
            messages as f64 / stats.datagrams_received.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "rt.datagrams_per_s",
            stats.datagrams_received as f64 / window.wall_s,
            "1/s",
        ),
        Metric::new(
            "rt.cpu_ns_per_msg",
            cpu * 1e9 / messages.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "rt.timer_late_p50_us",
            late.quantile_us(0.5).unwrap_or(0.0),
            "us",
        )
        .with_samples(late.count()),
        Metric::new(
            "rt.timer_late_p99_us",
            late.quantile_us(0.99).unwrap_or(0.0),
            "us",
        )
        .with_samples(late.count()),
        Metric::new(
            "rt.busy_polls_per_s",
            stats.busy_polls as f64 / window.wall_s,
            "1/s",
        ),
        Metric::new("rt.sys_cpu_share", window.cpu_s.1 / cpu.max(1e-9), "ratio"),
        Metric::new(
            "rt.latency_p999_us",
            pooled.quantile_us(0.999).unwrap_or(0.0),
            "us",
        )
        .with_samples(pooled.count()),
        Metric::new("rt.latency_max_us", pooled.max_us(), "us").with_samples(pooled.count()),
        count("rt.backpressure_stalls", stats.backpressure_stalls),
        count("rt.backpressure_drops", stats.backpressure_drops),
        count("rt.typed_drops", typed_drops(stats)),
        Metric::new(
            "rt.report_bytes_per_delivery",
            window.rss_growth_mb.max(0.0) * 1048576.0 / messages.max(1) as f64,
            "B",
        ),
    ]);
}

fn finish(
    tr: &mut Tracer,
    mut m: Measured,
    rig: &Rig,
    window: Window,
    delivered: u64,
    span_s: f64,
) -> Measured {
    let stats = tr.span("stats", || rig.cluster.stats());
    m.ops = delivered;
    m.span_s = span_s;
    m.cpu_s = window.cpu_s;
    m.window_s = rig.shared.window_ns as f64 / 1e9;
    m.workers = WORKERS;
    m.check("rt.typed_drops == 0 on loopback", typed_drops(&stats) == 0);
    m.check(
        "sequences contiguous per endpoint",
        rig.shared.out_of_order.load(Relaxed) == 0,
    );
    rt_layer_counters(&mut m, &rig.shared, &stats, &window, delivered);
    m.cpu_ns = window.steady_cpu_ns;
    m
}

/// Closed loop, 1024 endpoints x 16 tokens.
pub fn echo_saturate(tr: &mut Tracer, seed: u64, seconds: f64) -> Measured {
    closed_loop(tr, seed, seconds, 16)
}

/// The closed loop at a given number of tokens per endpoint; the layer
/// probes run it with one token to find the single-datagram capacity.
pub fn closed_loop(tr: &mut Tracer, seed: u64, seconds: f64, tokens: u32) -> Measured {
    const ENDPOINTS: u32 = 1024;
    let (setup_s, mut rig) = set_up(tr, 21, |tr| {
        let (mut cluster, shared) = bind(tr, seed, seconds);
        let ids = add_self_echo(tr, &mut cluster, ENDPOINTS, |_| {
            EchoCore::new(Arc::clone(&shared), tokens)
        });
        Rig {
            cluster,
            shared,
            ids,
        }
    });
    let window = run_window(tr, &mut rig, seconds);
    let delivered = rig.shared.delivered.load(Relaxed);
    let lost = rig.shared.lost.load(Relaxed);
    let loss = 100.0 * lost as f64 / (delivered + lost).max(1) as f64;
    let (windows, loss_percent) = steady_windows(&rig.shared, Some(loss));
    let m = Measured {
        setup_s,
        windows,
        loss_percent,
        ops_per_sample: ECHO_SAMPLE_EVERY.min(u64::from(tokens)),
        attempted: delivered + lost,
        failed: lost,
        ..Measured::default()
    };
    let wall_s = window.wall_s;
    finish(tr, m, &rig, window, delivered, wall_s)
}

/// Offsets of the first publications: the endpoints in a seed-shuffled
/// order, spread evenly over one period, so that one message is due every
/// `period / endpoints` and the seed decides whose.
fn staggered_phases(seed: u64, period: Span, endpoints: u32) -> Vec<Span> {
    let mut order: Vec<u32> = (0..endpoints).collect();
    DetRng::seed_from_u64(seed).shuffle(&mut order);
    let mut phases = vec![Span::ZERO; endpoints as usize];
    for (position, &endpoint) in order.iter().enumerate() {
        let offset = period.as_nanos() * position as u64 / u64::from(endpoints);
        phases[endpoint as usize] = Span::from_nanos(offset);
    }
    phases
}

fn open_loop(
    tr: &mut Tracer,
    seed: u64,
    seconds: f64,
    endpoints: u32,
    rate_per_s: u64,
    setups: usize,
) -> Measured {
    let period = Span::from_nanos(1_000_000_000 * u64::from(endpoints) / rate_per_s);
    let phases = staggered_phases(seed, period, endpoints);
    let (setup_s, mut rig) = set_up(tr, setups, |tr| {
        let (mut cluster, shared) = bind(tr, seed, seconds);
        let ids = add_self_echo(tr, &mut cluster, endpoints, |i| {
            PacedCore::new(Arc::clone(&shared), period, phases[i as usize])
        });
        Rig {
            cluster,
            shared,
            ids,
        }
    });
    let window = run_window(tr, &mut rig, seconds);
    let open = tr.begin("harvest cores");
    let published: u64 = rig
        .ids
        .iter()
        .map(|&id| {
            rig.cluster
                .core::<PacedCore>(id)
                .expect("paced core")
                .published()
        })
        .sum();
    tr.end(open);
    let (windows, loss_percent) = steady_windows(&rig.shared, None);
    let delivered = rig.shared.delivered.load(Relaxed);
    let mut m = Measured {
        setup_s,
        windows,
        loss_percent,
        ops_per_sample: 1,
        open_loop: true,
        attempted: published,
        failed: published.saturating_sub(delivered),
        ..Measured::default()
    };
    m.check(
        "nothing is delivered that was not published",
        delivered <= published,
    );
    // Publishers are silent in the last window, so the rate is taken up to
    // the last delivery: a backlog still draining then shows as a lower rate.
    let last = rig.shared.last_delivery_ns.load(Relaxed);
    let delivering_s = last.saturating_sub(rig.shared.origin().as_nanos()) as f64 / 1e9;
    finish(tr, m, &rig, window, delivered, delivering_s)
}

/// Open loop, 1024 endpoints, 100 000 msgs/s (one message due every 10 us,
/// one message per datagram).
pub fn echo_paced(tr: &mut Tracer, seed: u64, seconds: f64) -> Measured {
    open_loop(tr, seed, seconds, 1024, 100_000, 21)
}

/// The same traffic as `echo_paced` from 100 000 endpoints (each publishes
/// once a second).
pub fn fleet_100k(tr: &mut Tracer, seed: u64, seconds: f64) -> Measured {
    open_loop(tr, seed, seconds, 100_000, 100_000, 5)
}

/// 16 topics x (1 `NakcastSender` + 8 `NakcastReceiver`s) at 1 kHz with 5 %
/// seeded reader-side drop.
pub fn nakcast_fanout(tr: &mut Tracer, seed: u64, seconds: f64) -> Measured {
    const TOPICS: u32 = 16;
    const READERS: u32 = 8;
    const RATE_HZ: f64 = 1_000.0;
    const DROP_P: f64 = 0.05;
    let nak_timeout = Span::from_millis(2);
    // The sender must not run out of samples before the run ends.
    let samples = (RATE_HZ * seconds * 1.05) as u64 + 1;
    let (setup_s, mut rig) = set_up(tr, 21, |tr| {
        let (mut cluster, shared) = bind(tr, seed, seconds);
        let mut ids = Vec::new();
        for topic in 0..TOPICS {
            let sender_node = NodeId(topic * (READERS + 1));
            let sender = Probe::new(
                NakcastSender::new(
                    AppSpec::at_rate(samples, RATE_HZ, 12),
                    StackProfile::new(10.0, 48),
                    Tuning::default(),
                    GroupId(0),
                ),
                Arc::clone(&shared),
                u64::from(READERS),
            );
            let tx = tr.span("add_endpoint", || {
                cluster
                    .add_endpoint(sender_node, sender)
                    .expect("add sender")
            });
            ids.push(tx);
            let mut group = vec![sender_node];
            for r in 1..=READERS {
                let node = NodeId(sender_node.0 + r);
                let reader = Probe::new(
                    NakcastReceiver::new(
                        sender_node,
                        samples,
                        nak_timeout,
                        Tuning::default(),
                        DROP_P,
                    ),
                    Arc::clone(&shared),
                    0,
                );
                let rx = tr.span("add_endpoint", || {
                    cluster.add_endpoint(node, reader).expect("add reader")
                });
                tr.span("add_peer", || {
                    cluster.add_peer(tx, rx).expect("route to reader");
                    cluster.add_peer(rx, tx).expect("route to sender");
                });
                ids.push(rx);
                group.push(node);
            }
            tr.span("set_groups", || {
                cluster.set_groups(tx, vec![group]).expect("topic group")
            });
        }
        Rig {
            cluster,
            shared,
            ids,
        }
    });
    let window = run_window(tr, &mut rig, seconds);

    let open = tr.begin("harvest cores");
    let (mut expected, mut delivered_expected) = (0u64, 0u64);
    let mut retransmissions = 0u64;
    let mut readers = ProtocolStats::default();
    let (mut subset, mut no_duplicates) = (true, true);
    for topic in rig.ids.chunks((READERS + 1) as usize) {
        let sender = rig
            .cluster
            .core::<Probe<NakcastSender>>(topic[0])
            .expect("sender core");
        let published = sender.inner.published();
        let cut = sender.published_before_stop;
        retransmissions += sender.inner.retransmissions_sent();
        expected += cut * u64::from(READERS);
        for &rx in &topic[1..] {
            let reader = rig
                .cluster
                .core::<Probe<NakcastReceiver>>(rx)
                .expect("reader core");
            let stats = reader.inner.protocol_stats();
            readers.naks_sent += stats.naks_sent;
            readers.recovered += stats.recovered;
            readers.give_ups += stats.give_ups;
            readers.duplicates += stats.duplicates;
            readers.dropped += stats.dropped;
            let report = rig.cluster.report(rx).expect("reader report");
            let mut seqs: Vec<u64> = report.delivered.iter().map(|d| d.0).collect();
            seqs.sort_unstable();
            no_duplicates &= seqs.windows(2).all(|pair| pair[0] != pair[1]);
            subset &= seqs.last().is_none_or(|&last| last < published);
            delivered_expected += seqs.partition_point(|&s| s < cut) as u64;
        }
    }
    tr.end(open);

    let (windows, loss_percent) = steady_windows(&rig.shared, None);
    let mut m = Measured {
        setup_s,
        windows,
        loss_percent,
        ops_per_sample: 1,
        attempted: expected,
        failed: expected - delivered_expected,
        ..Measured::default()
    };
    m.check("NAKcast delivered set is a subset of published", subset);
    m.check("no duplicate reaches the reader", no_duplicates);
    let delivered = rig.shared.delivered.load(Relaxed);
    let recovery = rig.shared.recovery.snapshot(0);
    let count = |name: &str, v: u64| Metric::new(name, v as f64, "count");
    m.layer.extend([
        count("transport.naks_sent", readers.naks_sent),
        count("transport.retransmissions", retransmissions),
        Metric::new(
            "transport.recovered_ratio",
            readers.recovered as f64 / readers.dropped.max(1) as f64,
            "ratio",
        ),
        count("transport.give_ups", readers.give_ups),
        count("transport.duplicates", readers.duplicates),
        Metric::new(
            "transport.recovery_latency_p50_us",
            recovery.quantile_us(0.5).unwrap_or(0.0),
            "us",
        )
        .with_samples(recovery.count()),
    ]);
    let wall_s = window.wall_s;
    finish(tr, m, &rig, window, delivered, wall_s)
}
