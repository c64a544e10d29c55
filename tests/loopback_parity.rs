//! Driver parity: the same NAKcast cores deliver the same stream whether
//! they run inside the deterministic simulator or over real UDP sockets
//! on 127.0.0.1 — the acceptance check for the sans-I/O refactor. The
//! simulator is the delivered-set oracle; the real-socket runs go through
//! the multiplexed runtime. Each receiver injects 5% end-host loss from
//! its own entropy stream, so the real-socket run exercises genuine
//! NAK/retransmit recovery.

use std::collections::BTreeSet;
use std::time::Duration;

use adamant_netsim::{Bandwidth, HostConfig, MachineClass, NodeId, SimDriver, SimTime, Simulation};
use adamant_proto::{ObsEvent, Span};
use adamant_rt::{ClusterStats, MonotonicClock, MuxCluster, MuxConfig};
use adamant_transport::{
    AppSpec, DataReader, NakcastReceiver, NakcastSender, ShmCastReceiver, ShmCastSender,
    StackProfile, StreamCastReceiver, StreamCastSender, Tuning,
};

const SAMPLES: u64 = 300;
const RATE_HZ: f64 = 500.0;
const DROP_P: f64 = 0.05;

fn sender_core(group: adamant_proto::GroupId) -> NakcastSender {
    NakcastSender::new(
        AppSpec::at_rate(SAMPLES, RATE_HZ, 12),
        StackProfile::new(10.0, 48),
        Tuning::default(),
        group,
    )
}

/// A reader that captures its deliveries, so the sets can be compared.
fn receiver_core(sender: NodeId) -> NakcastReceiver {
    let mut core = NakcastReceiver::new(
        sender,
        SAMPLES,
        Span::from_millis(2),
        Tuning::default(),
        DROP_P,
    );
    core.log_mut().capture();
    core
}

/// Delivered sequences and recovery counters of one receiver.
struct RunOutcome {
    delivered: BTreeSet<u64>,
    recovered: u64,
    naks_sent: u64,
}

/// Runs the netsim side of the parity check: one NAKcast sender and
/// `receivers` lossy receivers inside one simulation.
fn run_netsim_fleet(receivers: usize) -> Vec<RunOutcome> {
    let mut sim = Simulation::new(42);
    let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
    let group = sim.create_group(&[]);
    let tx = sim.add_node(host, SimDriver::new(sender_core(group)));
    sim.join_group(group, tx);
    let rx_nodes: Vec<NodeId> = (0..receivers)
        .map(|_| {
            let rx = sim.add_node(host, SimDriver::new(receiver_core(tx)));
            sim.join_group(group, rx);
            rx
        })
        .collect();
    sim.run_until(SimTime::from_secs(5));
    rx_nodes
        .into_iter()
        .map(|rx| {
            let r = sim.agent::<NakcastReceiver>(rx).unwrap();
            RunOutcome {
                delivered: r
                    .log()
                    .deliveries()
                    .expect("captured")
                    .map(|d| d.seq)
                    .collect(),
                recovered: r.log().recovered_count(),
                naks_sent: r.protocol_stats().naks_sent,
            }
        })
        .collect()
}

/// What one real-UDP run of the fleet produced.
struct MuxFleet {
    /// The shard of every endpoint, sender first.
    shards: Vec<usize>,
    published: u64,
    receivers: Vec<RunOutcome>,
    stats: ClusterStats,
}

/// Runs the same fleet on the multiplexed runtime over real UDP: all
/// endpoints share each worker's small socket pool and are demuxed by the
/// wire-header endpoint ID.
fn run_mux_fleet(receivers: usize, workers: usize, seed: u64, wall: Duration) -> MuxFleet {
    let clock = MonotonicClock::start();
    let cfg = MuxConfig::new(workers)
        .with_sockets_per_worker(2)
        .with_batch_size(16)
        .with_seed(seed)
        .with_clock(clock);
    let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).expect("bind mux cluster");
    let tx = cluster
        .add_endpoint(NodeId(0), sender_core(adamant_proto::GroupId(0)))
        .expect("add mux sender");
    let rx_ids: Vec<_> = (1..=receivers as u32)
        .map(|n| {
            cluster
                .add_endpoint(NodeId(n), receiver_core(NodeId(0)))
                .expect("add mux receiver")
        })
        .collect();
    cluster.connect_full_mesh().expect("wire mesh");
    let shards = std::iter::once(tx)
        .chain(rx_ids.iter().copied())
        .map(|id| cluster.shard_of(id))
        .collect();
    cluster.run_for(wall).expect("mux cluster run");
    let published = cluster
        .core::<NakcastSender>(tx)
        .expect("sender core survives")
        .published();
    let receivers = rx_ids
        .iter()
        .map(|&id| {
            let r = cluster
                .core::<NakcastReceiver>(id)
                .expect("receiver core survives");
            RunOutcome {
                delivered: r
                    .log()
                    .deliveries()
                    .expect("captured")
                    .map(|d| d.seq)
                    .collect(),
                recovered: r.log().recovered_count(),
                naks_sent: r.protocol_stats().naks_sent,
            }
        })
        .collect();
    MuxFleet {
        shards,
        published,
        receivers,
        stats: cluster.stats(),
    }
}

/// The node a core-emitted event names; `None` for the simulator's packet,
/// fault and adaptation-loop events, which no core emits.
fn emitter(event: &ObsEvent) -> Option<NodeId> {
    use ObsEvent::*;
    match *event {
        SampleAccepted { node, .. }
        | SampleDuplicate { node, .. }
        | NakSent { node, .. }
        | NakGiveUp { node, .. }
        | Retransmitted { node, .. }
        | RepairSent { node, .. }
        | RepairDecoded { node, .. }
        | FailoverPromoted { node }
        | HistoryRetained { node, .. }
        | HistoryEvicted { node, .. }
        | CatchUpNakSent { node, .. }
        | DurableReplayed { node, .. }
        | CatchUpCompleted { node, .. }
        | CatchUpAbandoned { node, .. } => Some(node),
        _ => None,
    }
}

/// An observed runtime stamps every event a core emits with the node of
/// the endpoint the core runs on, so a report's events need no lifting
/// before the invariant checker reads them. No endpoint is node 0, so a
/// driver stamping a constant node fails here.
#[test]
fn mux_reports_name_each_endpoints_own_node() {
    let cfg = MuxConfig::new(2)
        .with_seed(5)
        .with_clock(MonotonicClock::start());
    assert!(cfg.observed, "runtimes are observed by default");
    let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).expect("bind mux cluster");
    let sender = NodeId(5);
    cluster
        .add_endpoint(sender, sender_core(adamant_proto::GroupId(0)))
        .expect("add mux sender");
    for n in 6..=8 {
        cluster
            .add_endpoint(NodeId(n), receiver_core(sender))
            .expect("add mux receiver");
    }
    cluster.connect_full_mesh().expect("wire mesh");
    cluster
        .run_for(Duration::from_millis(1_500))
        .expect("mux cluster run");

    for (_, node, report) in cluster.reports() {
        for event in &report.events {
            assert_eq!(
                emitter(event),
                Some(node),
                "{node}'s report holds {event:?}"
            );
        }
        if node != sender {
            assert!(
                report
                    .events
                    .iter()
                    .any(|e| matches!(e, ObsEvent::SampleAccepted { .. })),
                "{node} reported no accepted sample"
            );
        }
    }
}

#[test]
fn nakcast_delivers_identically_under_both_drivers() {
    let sim = run_netsim_fleet(1).remove(0);
    // A sender and a receiver, one per worker. Publishing takes
    // SAMPLES / RATE_HZ = 0.6 s; leave generous slack for tail-loss
    // recovery on loaded CI machines. The sender stays up the whole window
    // so late NAKs are still answered.
    let mut pair = run_mux_fleet(1, 2, 7, Duration::from_millis(2_500));
    assert_eq!(pair.published, SAMPLES, "sender finished the stream");
    let rt = pair.receivers.remove(0);

    let expected: BTreeSet<u64> = (0..SAMPLES).collect();
    assert_eq!(
        sim.delivered, expected,
        "netsim NAKcast must deliver every sample"
    );
    assert_eq!(
        rt.delivered, expected,
        "real-UDP NAKcast must deliver every sample under 5% injected loss \
         (recovered {} of {} via {} NAKs)",
        rt.recovered, SAMPLES, rt.naks_sent
    );

    // Both runs draw independent 5%-loss patterns, so recovery volumes are
    // stochastic — but with ~15 expected losses each, they must land in
    // the same ballpark and both must actually exercise the NAK path.
    assert!(
        sim.recovered > 0 && rt.recovered > 0,
        "both drivers must exercise recovery (sim {}, rt {})",
        sim.recovered,
        rt.recovered
    );
    let (lo, hi) = (
        sim.recovered.min(rt.recovered),
        sim.recovered.max(rt.recovered),
    );
    assert!(
        hi <= 4 * lo + 20,
        "recovery counts implausibly far apart: sim {} vs rt {}",
        sim.recovered,
        rt.recovered
    );
    assert!(
        sim.naks_sent > 0 && rt.naks_sent > 0,
        "both drivers must send NAKs (sim {}, rt {})",
        sim.naks_sent,
        rt.naks_sent
    );
}

/// The fleet-scale version of the parity check: the same 64-endpoint
/// NAKcast session (one sender, 63 lossy receivers) runs on the
/// readiness-driven [`MuxCluster`] — 4 workers sharing 2 sockets each,
/// every datagram demuxed by the wire-header endpoint ID — and must
/// deliver exactly the sequence sets the netsim run of the same fleet
/// delivers: every receiver, the complete stream.
#[test]
fn mux_cluster_nakcast_matches_netsim_across_64_endpoints() {
    const RECEIVERS: usize = 63;
    const WORKERS: usize = 4;

    let sim = run_netsim_fleet(RECEIVERS);
    // Publishing takes 0.6 s; the rest of the wall is recovery slack for
    // 63 receivers sharing 4 workers on a possibly loaded CI machine.
    let mux = run_mux_fleet(RECEIVERS, WORKERS, 42, Duration::from_millis(3_500));

    assert_eq!(mux.published, SAMPLES, "mux sender finished the stream");
    assert_eq!(mux.shards.len(), RECEIVERS + 1);
    for w in 0..WORKERS {
        assert!(
            mux.shards.contains(&w),
            "every worker must own a shard slice (assignment {:?})",
            mux.shards
        );
    }

    let expected: BTreeSet<u64> = (0..SAMPLES).collect();
    for (i, o) in sim.iter().enumerate() {
        assert_eq!(
            o.delivered, expected,
            "netsim receiver {i} must deliver every sample"
        );
    }
    let mut recovered_total = 0;
    for (i, o) in mux.receivers.iter().enumerate() {
        assert_eq!(
            o.delivered, expected,
            "mux receiver {i} must deliver every sample \
             (recovered {} via {} NAKs)",
            o.recovered, o.naks_sent
        );
        recovered_total += o.recovered;
    }
    // 63 receivers × 300 samples × 5% loss ≈ 945 expected drops: the run
    // must actually exercise the recovery path, not just survive it.
    assert!(recovered_total > 0, "mux fleet must exercise NAK recovery");

    // A healthy same-incarnation run never hits the demux error paths.
    let stats = mux.stats;
    assert_eq!(stats.endpoints, RECEIVERS + 1);
    assert_eq!(stats.header_drops, 0, "no malformed frames on loopback");
    assert_eq!(stats.unknown_endpoint_drops, 0, "routes cover the mesh");
    assert_eq!(stats.stale_drops, 0, "single incarnation, no stale drops");
}

const STREAM_WINDOW: u32 = 64;

fn stream_sender_core(group: adamant_proto::GroupId) -> StreamCastSender {
    StreamCastSender::new(
        AppSpec::at_rate(SAMPLES, RATE_HZ, 12),
        StackProfile::new(10.0, 48),
        Tuning::default(),
        group,
        STREAM_WINDOW,
    )
}

fn stream_receiver_core(sender: NodeId) -> StreamCastReceiver {
    let mut core = StreamCastReceiver::new(sender, SAMPLES, STREAM_WINDOW, DROP_P);
    core.log_mut().capture();
    core
}

/// The StreamCast leg of the parity check: the same sender/receiver cores
/// deliver the complete ordered stream both inside netsim and over real
/// UDP on the multiplexed runtime, with each receiver injecting 5%
/// end-host loss — so both drivers exercise the cumulative-ACK
/// retransmission machinery (fast retransmit and/or RTO).
#[test]
fn streamcast_delivers_identically_under_netsim_and_mux_udp() {
    const RECEIVERS: usize = 3;

    // Netsim leg.
    let mut sim = Simulation::new(42);
    let host = HostConfig::new(MachineClass::Pc3000, Bandwidth::GBPS_1);
    let group = sim.create_group(&[]);
    let tx = sim.add_node(host, SimDriver::new(stream_sender_core(group)));
    sim.join_group(group, tx);
    let rx_nodes: Vec<NodeId> = (0..RECEIVERS)
        .map(|_| {
            let rx = sim.add_node(host, SimDriver::new(stream_receiver_core(tx)));
            sim.join_group(group, rx);
            rx
        })
        .collect();
    sim.run_until(SimTime::from_secs(5));
    let expected: BTreeSet<u64> = (0..SAMPLES).collect();
    let mut sim_recovered = 0;
    for (i, rx) in rx_nodes.iter().enumerate() {
        let r = sim.agent::<StreamCastReceiver>(*rx).unwrap();
        let delivered: BTreeSet<u64> = r
            .log()
            .deliveries()
            .expect("captured")
            .map(|d| d.seq)
            .collect();
        assert_eq!(
            delivered, expected,
            "netsim StreamCast receiver {i} must deliver every sample in order"
        );
        sim_recovered += r.log().recovered_count();
    }
    assert!(
        sim.agent::<StreamCastSender>(tx)
            .unwrap()
            .retransmissions_sent()
            > 0,
        "netsim leg must exercise stream recovery"
    );

    // Real-UDP leg on the multiplexed runtime.
    let clock = MonotonicClock::start();
    let cfg = MuxConfig::new(2)
        .with_sockets_per_worker(2)
        .with_batch_size(16)
        .with_seed(42)
        .with_clock(clock);
    let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).expect("bind mux cluster");
    let tx_id = cluster
        .add_endpoint(NodeId(0), stream_sender_core(adamant_proto::GroupId(0)))
        .expect("add mux stream sender");
    let rx_ids: Vec<_> = (1..=RECEIVERS as u32)
        .map(|n| {
            cluster
                .add_endpoint(NodeId(n), stream_receiver_core(NodeId(0)))
                .expect("add mux stream receiver")
        })
        .collect();
    cluster.connect_full_mesh().expect("wire mesh");
    cluster
        .run_for(Duration::from_millis(3_000))
        .expect("mux run");

    let sender = cluster
        .core::<StreamCastSender>(tx_id)
        .expect("sender core survives");
    assert_eq!(
        sender.published(),
        SAMPLES,
        "mux sender finished the stream"
    );
    let mut rt_recovered = 0;
    for (i, &id) in rx_ids.iter().enumerate() {
        let r = cluster
            .core::<StreamCastReceiver>(id)
            .expect("receiver core survives");
        assert!(r.is_connected(), "receiver {i} completed the handshake");
        let delivered: BTreeSet<u64> = r
            .log()
            .deliveries()
            .expect("captured")
            .map(|d| d.seq)
            .collect();
        assert_eq!(
            delivered,
            expected,
            "mux StreamCast receiver {i} must deliver every sample \
             (dropped {} acks {})",
            r.dropped(),
            r.protocol_stats().acks_sent
        );
        rt_recovered += r.log().recovered_count();
    }
    assert!(
        sim_recovered > 0 && rt_recovered > 0,
        "both drivers must exercise stream recovery (sim {sim_recovered}, rt {rt_recovered})"
    );
}

/// The same-host core on the real runtime: ShmCast's credit-based ring is
/// meant for co-located groups, and a loopback mux cluster *is* one host —
/// a tiny ring must backpressure the 500 Hz publisher without losing or
/// reordering anything.
#[test]
fn shmcast_runs_over_the_mux_runtime_on_one_host() {
    const RECEIVERS: usize = 2;
    const QUEUE: u32 = 8;

    let clock = MonotonicClock::start();
    let cfg = MuxConfig::new(2)
        .with_sockets_per_worker(1)
        .with_seed(7)
        .with_clock(clock);
    let mut cluster = MuxCluster::bind("127.0.0.1:0", cfg).expect("bind mux cluster");
    let tx_id = cluster
        .add_endpoint(
            NodeId(0),
            ShmCastSender::new(
                AppSpec::at_rate(SAMPLES, RATE_HZ, 12),
                StackProfile::new(10.0, 48),
                adamant_proto::GroupId(0),
                QUEUE,
            ),
        )
        .expect("add shm sender");
    let rx_ids: Vec<_> = (1..=RECEIVERS as u32)
        .map(|n| {
            let mut core = ShmCastReceiver::new(NodeId(0), SAMPLES, QUEUE);
            core.log_mut().capture();
            cluster
                .add_endpoint(NodeId(n), core)
                .expect("add shm receiver")
        })
        .collect();
    cluster.connect_full_mesh().expect("wire mesh");
    cluster
        .run_for(Duration::from_millis(2_500))
        .expect("mux run");

    let sender = cluster
        .core::<ShmCastSender>(tx_id)
        .expect("sender core survives");
    assert_eq!(sender.published(), SAMPLES, "ring sender finished");
    assert_eq!(sender.queue(), QUEUE);
    let expected: Vec<u64> = (0..SAMPLES).collect();
    for (i, &id) in rx_ids.iter().enumerate() {
        let r = cluster
            .core::<ShmCastReceiver>(id)
            .expect("receiver core survives");
        let delivered: Vec<u64> = r
            .log()
            .deliveries()
            .expect("captured")
            .map(|d| d.seq)
            .collect();
        assert_eq!(
            delivered, expected,
            "ring receiver {i} must deliver everything in publication order"
        );
        assert_eq!(r.duplicates(), 0, "the ring never duplicates");
    }
}

/// Same seed + same shard assignment ⇒ the same outcome: two
/// identically-configured mux cluster runs place every endpoint on the
/// same worker (`index % workers`) and deliver identical per-endpoint
/// sequence sets.
#[test]
fn cluster_reruns_are_shard_stable_and_deterministic() {
    const RECEIVERS: usize = 15;
    const WORKERS: usize = 3;

    let wall = Duration::from_millis(2_500);
    let a = run_mux_fleet(RECEIVERS, WORKERS, 11, wall);
    let b = run_mux_fleet(RECEIVERS, WORKERS, 11, wall);

    assert_eq!(a.shards, b.shards, "shard assignment must be rerun-stable");
    for (index, &shard) in a.shards.iter().enumerate() {
        assert_eq!(shard, index % WORKERS, "assignment must be index % workers");
    }
    assert_eq!(a.published, SAMPLES);
    assert_eq!(b.published, SAMPLES);
    let expected: BTreeSet<u64> = (0..SAMPLES).collect();
    for (i, (oa, ob)) in a.receivers.iter().zip(&b.receivers).enumerate() {
        assert_eq!(
            oa.delivered, ob.delivered,
            "receiver {i} must deliver the same sequence set on both runs"
        );
        assert_eq!(oa.delivered, expected, "receiver {i} must deliver fully");
    }
}
