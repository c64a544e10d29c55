//! The operator's tool: probe *this* machine, consult the trained
//! knowledge base, and print the transport ADAMANT would configure — or
//! run an actual protocol session over real UDP sockets.
//!
//! ```text
//! adamant_cli [dds] [loss%] [receivers] [rate_hz] [relate2|relate2jit]
//! adamant_cli udp [loss%] [receivers] [rate_hz] [samples]
//!             [--endpoints N] [--workers W] [--seed S] [--chaos]
//! ```
//!
//! The selector path requires `artifacts/selector.json` (produce it with
//! `train`). This is the paper's Figure 3 control flow pointed at the real
//! host: the probe reads `/proc/cpuinfo`; bandwidth defaults to 1 Gb/s
//! when unknown.
//!
//! The `udp` mode needs no artifacts: it mounts the same sans-I/O NAKcast
//! cores the simulator runs onto an [`adamant_rt::MuxCluster`] bound to
//! `127.0.0.1` — one writer plus `N - 1` readers (`--endpoints N`, default
//! one per receiver plus the writer) sharded across `W` worker threads
//! (`--workers W`, default 4) — injects the requested end-host loss at
//! each receiver, and reports what the wire actually did. `--seed S`
//! fixes the entropy base so a run is reproducible; `--chaos` wraps every
//! core in a TransientLocal [`adamant_proto::DurableCore`] and
//! crash-restarts the last reader mid-stream, proving durable catch-up
//! over the real wire.

use adamant::{
    AdaptivePolicy, AppParams, Environment, LinuxProcProbe, ProtocolSelector, ResourceProbe,
};
use adamant_dds::DdsImplementation;
use adamant_experiments::artifacts;
use adamant_metrics::MetricKind;

/// Runs a NAKcast session over real UDP on localhost and prints per-node
/// statistics. Arguments: `[loss%] [receivers] [rate_hz] [samples]`, plus
/// `--endpoints N` / `--workers W` to size the cluster, `--seed S` for a
/// reproducible entropy base, and `--chaos` for a durable crash-restart
/// run.
fn run_udp_session(args: &[String]) {
    let mut positional: Vec<&String> = Vec::new();
    let mut endpoints_flag: Option<usize> = None;
    let mut workers_flag: Option<usize> = None;
    let mut seed: u64 = 0;
    let mut chaos = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--endpoints" => endpoints_flag = it.next().and_then(|s| s.parse().ok()),
            "--workers" => workers_flag = it.next().and_then(|s| s.parse().ok()),
            "--seed" => {
                let arg = it.next().map_or("", String::as_str);
                seed = arg.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--seed `{arg}` is not an unsigned integer"))
                });
            }
            "--chaos" => chaos = true,
            _ => positional.push(arg),
        }
    }

    let loss: f64 = positional
        .first()
        .and_then(|s| s.trim_end_matches('%').parse::<f64>().ok())
        .unwrap_or(5.0)
        / 100.0;
    let receivers: usize = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
    let rate: f64 = positional
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100.0);
    let samples: u64 = positional
        .get(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);

    let endpoints = endpoints_flag.unwrap_or(receivers + 1).max(2);
    let workers = workers_flag.unwrap_or(4).max(1);
    if chaos {
        run_udp_chaos(loss, endpoints, workers, rate, samples, seed);
    } else {
        run_udp_nakcast(loss, endpoints, workers, rate, samples, seed);
    }
}

/// Prints `problem` and the usage to stderr, then exits 1.
fn usage_error(problem: &str) -> ! {
    eprintln!("{problem}; usage:");
    eprintln!("  adamant_cli [dds] [loss%] [receivers] [rate_hz] [relate2|relate2jit]");
    eprintln!("  adamant_cli udp [loss%] [receivers] [rate_hz] [samples]");
    eprintln!("              [--endpoints N] [--workers W] [--seed S] [--chaos]");
    std::process::exit(1);
}

/// The session's sharded runtime: `workers` threads on `127.0.0.1`.
fn bind_cluster(workers: usize, seed: u64) -> adamant_rt::MuxCluster {
    let cfg = adamant_rt::MuxConfig::new(workers).with_seed(seed);
    adamant_rt::MuxCluster::bind("127.0.0.1:0", cfg).expect("bind sockets on 127.0.0.1")
}

/// Hosts the NAKcast session in a sharded [`adamant_rt::MuxCluster`]: one
/// writer and `endpoints - 1` readers partitioned across `workers` worker
/// threads, each worker batching socket I/O for its shard.
fn run_udp_nakcast(
    loss: f64,
    endpoints: usize,
    workers: usize,
    rate: f64,
    samples: u64,
    seed: u64,
) {
    use adamant_proto::{GroupId, NodeId, Span};
    use adamant_rt::EndpointId;
    use adamant_transport::{
        AppSpec, DataReader, NakcastReceiver, NakcastSender, StackProfile, Tuning,
    };
    use std::time::Duration;

    let tuning = Tuning::default();
    let receivers = endpoints - 1;
    let mut cluster = bind_cluster(workers, seed);
    let writer_id = cluster
        .add_endpoint(
            NodeId(0),
            NakcastSender::new(
                AppSpec::at_rate(samples, rate, 12),
                StackProfile::new(10.0, 48),
                tuning,
                GroupId(0),
            ),
        )
        .expect("add writer");
    let reader_ids: Vec<EndpointId> = (1..=receivers as u32)
        .map(|n| {
            cluster
                .add_endpoint(
                    NodeId(n),
                    NakcastReceiver::new(NodeId(0), samples, Span::from_millis(2), tuning, loss),
                )
                .expect("add reader")
        })
        .collect();
    cluster.connect_full_mesh().expect("wire cluster mesh");

    for (id, node, _) in cluster.reports() {
        let role = if node.0 == 0 { "writer" } else { "reader" };
        let addr = cluster.endpoint_addr(id).expect("endpoint addr");
        println!(
            "node {:>2} ({role}) on udp://{addr}  [shard {}]",
            node.0,
            cluster.shard_of(id)
        );
    }

    let publish_secs = samples as f64 / rate.max(1.0);
    let wall = Duration::from_secs_f64(publish_secs + 2.0);
    println!(
        "publishing {samples} samples at {rate} Hz to {receivers} receiver(s) \
         on {workers} cluster worker(s), {:.0}% injected loss, running {:.1}s…",
        loss * 100.0,
        wall.as_secs_f64()
    );

    cluster.run_for(wall).expect("cluster run");

    let published = cluster
        .core::<NakcastSender>(writer_id)
        .map_or(0, |s| s.published());
    let writer_sent = cluster.report(writer_id).map_or(0, |r| r.datagrams_sent);
    println!("\nwriter: published {published} samples, {writer_sent} datagrams out");
    let mut complete = true;
    for (i, &id) in reader_ids.iter().enumerate() {
        let reader = cluster
            .core::<NakcastReceiver>(id)
            .expect("reader core survives the run");
        let (delivered, stats) = (reader.log().delivered_count(), reader.protocol_stats());
        complete &= delivered == samples;
        println!(
            "reader {}: delivered {}/{} (recovered {}, naks {}, give-ups {}, dropped {})",
            i + 1,
            delivered,
            samples,
            stats.recovered,
            stats.naks_sent,
            stats.give_ups,
            stats.dropped,
        );
    }
    let stats = cluster.stats();
    println!(
        "\ncluster: {} datagrams out / {} in, {} delivered ({} recovered), \
         {} backpressure stalls, {} soft I/O errors",
        stats.datagrams_sent,
        stats.datagrams_received,
        stats.delivered,
        stats.recovered,
        stats.backpressure_stalls,
        stats.soft_io_errors,
    );
    println!(
        "{}",
        if complete {
            "all receivers delivered the full stream"
        } else {
            "WARNING: incomplete delivery (try a longer run or lower loss)"
        }
    );
}

/// Durable crash-restart over the real wire: every core runs inside a
/// TransientLocal [`adamant_proto::DurableCore`] on a sharded cluster. The
/// last reader checkpoints its delivered set at 35% of the stream, keeps
/// running to 70%, then "crashes" —
/// [`adamant_rt::MuxCluster::restart_endpoint`] swaps in a fresh
/// incarnation seeded only with the stale checkpoint, so everything the
/// doomed incarnation delivered after it must come back through durable
/// catch-up NAKs answered from the writer's history cache.
fn run_udp_chaos(loss: f64, endpoints: usize, workers: usize, rate: f64, samples: u64, seed: u64) {
    use adamant_proto::{DurableConfig, DurableCore, GroupId, NodeId, Span};
    use adamant_rt::EndpointId;
    use adamant_transport::{AppSpec, NakcastReceiver, NakcastSender, StackProfile, Tuning};
    use std::time::Duration;

    let tuning = Tuning::default();
    let group = GroupId(0);
    let config = DurableConfig::transient_local();
    let receivers = endpoints - 1;
    let session_nak = Span::from_millis(2);

    let mut cluster = bind_cluster(workers, seed);
    let writer_id = cluster
        .add_endpoint(
            NodeId(0),
            DurableCore::writer(
                NakcastSender::new(
                    AppSpec::at_rate(samples, rate, 12),
                    StackProfile::new(10.0, 48),
                    tuning,
                    group,
                ),
                group,
                config,
            ),
        )
        .expect("add writer");
    let reader_ids: Vec<EndpointId> = (1..=receivers as u32)
        .map(|n| {
            cluster
                .add_endpoint(
                    NodeId(n),
                    DurableCore::reader(
                        NakcastReceiver::new(NodeId(0), samples, session_nak, tuning, loss),
                        NodeId(0),
                        config,
                    ),
                )
                .expect("add reader")
        })
        .collect();
    cluster.connect_full_mesh().expect("wire cluster mesh");
    let victim = *reader_ids.last().expect("at least one reader");
    let victim_node = cluster.node(victim).expect("victim node");

    let publish = samples as f64 / rate.max(1.0);
    println!(
        "durable chaos (seed {seed}): {samples} samples at {rate} Hz to {receivers} \
         reader(s) on {workers} worker(s), {:.0}% loss; node {} crash-restarts at \
         ~{:.1}s with a checkpoint from ~{:.1}s",
        loss * 100.0,
        victim_node.0,
        publish * 0.7,
        publish * 0.35
    );

    cluster
        .run_for(Duration::from_secs_f64(publish * 0.35))
        .expect("cluster run (pre-checkpoint)");
    let checkpoint = cluster
        .core::<DurableCore<NakcastReceiver>>(victim)
        .expect("victim core")
        .delivered_set()
        .clone();
    cluster
        .run_for(Duration::from_secs_f64(publish * 0.35))
        .expect("cluster run (doomed incarnation)");
    println!(
        "crash: node {} restarting with a {}-sample checkpoint",
        victim_node.0,
        checkpoint.len()
    );
    cluster
        .restart_endpoint(
            victim,
            DurableCore::reader(
                NakcastReceiver::new(NodeId(0), samples, session_nak, tuning, loss),
                NodeId(0),
                config,
            )
            .with_delivered(checkpoint),
        )
        .expect("restart victim endpoint");
    cluster
        .run_for(Duration::from_secs_f64(publish * 0.3 + 2.0))
        .expect("cluster run (recovery)");

    let replayed = cluster
        .core::<DurableCore<NakcastSender>>(writer_id)
        .map_or(0, |w| w.replayed());
    println!("\nwriter: replayed {replayed} samples from durable history");
    let mut complete = true;
    for (i, &id) in reader_ids.iter().enumerate() {
        let reader = cluster
            .core::<DurableCore<NakcastReceiver>>(id)
            .expect("reader core survives the run");
        let delivered = reader.delivered_set().len() as u64;
        complete &= delivered == samples;
        let role = if id == victim { " [victim]" } else { "" };
        println!(
            "reader {}{role}: delivered {}/{} ({} via catch-up, {} catch-up naks, \
             {} duplicates suppressed, caught up: {})",
            i + 1,
            delivered,
            samples,
            reader.recovered_via_catch_up(),
            reader.catch_up_naks(),
            reader.duplicates_suppressed(),
            reader.caught_up_at().is_some() || reader.catch_up_naks() == 0,
        );
    }
    println!(
        "victim incarnation: {}",
        cluster.incarnation(victim).unwrap_or(0)
    );
    println!(
        "{}",
        if complete {
            "durable recovery complete: all receivers delivered the full stream"
        } else {
            "WARNING: durable recovery incomplete (try a longer run or lower loss)"
        }
    );
    if !complete {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("udp") {
        run_udp_session(&args[1..]);
        return;
    }
    let dds = match args.first().map(String::as_str) {
        Some("opendds") => DdsImplementation::OpenDds,
        _ => DdsImplementation::OpenSplice,
    };
    let loss: u8 = args
        .get(1)
        .and_then(|s| s.trim_end_matches('%').parse().ok())
        .unwrap_or(5);
    let receivers: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);
    let rate: u32 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(25);
    let metric = match args.get(4).map(String::as_str) {
        Some("relate2jit") => MetricKind::ReLate2Jit,
        _ => MetricKind::ReLate2,
    };

    let selector: ProtocolSelector = artifacts::load("selector.json").unwrap_or_else(|e| {
        eprintln!("cannot load selector artifact ({e}); run `train` first");
        std::process::exit(1);
    });
    let policy = AdaptivePolicy::new(metric).with_ann(selector, 0.0);

    let probe = LinuxProcProbe::new();
    let probed = match probe.probe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("platform probe failed ({e})");
            std::process::exit(1);
        }
    };
    println!(
        "probed: {} MHz × {} cpus ({})",
        probed.cpu_mhz.round(),
        probed.cpus,
        probed.model.as_deref().unwrap_or("unknown model")
    );
    let env = Environment::new(probed.machine_class(), probed.bandwidth_class(), dds, loss);
    let app = AppParams::new(receivers, rate);
    println!("mapped to paper environment: {env}");
    println!("application: {app}, optimising {metric}");

    // Warm up once, then report a measured decision.
    let _ = policy.select(&env, &app);
    let choice = policy.select(&env, &app);
    println!(
        "\n→ configure transport: {}   (source {:?}, confidence {:.3})",
        choice.protocol, choice.source, choice.confidence
    );
    if let Some(ann) = policy.selector().ann() {
        let selection = ann.select(&env, &app, metric);
        print!("  class scores:");
        for (kind, score) in adamant::features::candidate_protocols()
            .iter()
            .zip(&selection.scores)
        {
            print!(" {}={score:.3}", kind.label());
        }
        println!("   (ann decided in {:?})", selection.elapsed);
    }
}
