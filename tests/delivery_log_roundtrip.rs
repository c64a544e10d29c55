//! An endpoint's `report.delivered` log, read back through the real
//! runtime: paced self-echo endpoints over three `run_for` windows, one of
//! them restarted between the second and third, must each report exactly
//! the `(seq, published_at, recovered)` deliveries their cores made, in
//! order. A paced stream is what the log folds into runs; the recovered
//! flag every seventh sample and the restart (`seq` back to 0, a new
//! schedule) are what break them.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use adamant_proto::wire::DataMsg;
use adamant_proto::{Env, Input, NodeId, ProcessingCost, ProtocolCore, Span, TimePoint, WireMsg};
use adamant_rt::{MuxCluster, MuxConfig};

const PERIOD: Span = Span::from_micros(500);

type Heard = Arc<Mutex<Vec<(u64, TimePoint, bool)>>>;

/// Publishes one sample to itself every `PERIOD`, stamped with the time it
/// was due, and delivers every sample it hears, each seventh marked
/// recovered; what it delivered is appended to `heard` as well.
struct PacedEcho {
    heard: Heard,
    next_due: TimePoint,
    next_seq: u64,
}

impl PacedEcho {
    fn new(heard: &Heard) -> Self {
        PacedEcho {
            heard: Arc::clone(heard),
            next_due: TimePoint::ZERO,
            next_seq: 0,
        }
    }
}

impl ProtocolCore for PacedEcho {
    fn step(&mut self, input: Input<'_>, env: &mut Env<'_>) {
        match input {
            Input::Start => {
                self.next_due = env.now();
                env.set_timer(Span::ZERO, 0);
            }
            Input::TimerFired { .. } => {
                while self.next_due <= env.now() {
                    let msg = WireMsg::Data(DataMsg {
                        seq: self.next_seq,
                        published_at: self.next_due,
                        retransmission: false,
                    });
                    env.send(env.node(), 64, 0, ProcessingCost::FREE, msg);
                    self.next_seq += 1;
                    self.next_due += PERIOD;
                }
                env.set_timer(self.next_due.saturating_since(env.now()), 0);
            }
            Input::PacketIn {
                msg: WireMsg::Data(d),
                ..
            } => {
                let delivery = (d.seq, d.published_at, d.seq % 7 == 6);
                self.heard.lock().unwrap().push(delivery);
                env.deliver(delivery.0, delivery.1, delivery.2);
            }
            Input::PacketIn { .. } | Input::Tick => {}
        }
    }
}

#[test]
fn each_endpoints_log_reads_back_exactly_what_its_cores_delivered() {
    let mut cluster = MuxCluster::bind("127.0.0.1:0", MuxConfig::new(2)).unwrap();
    let heard: Vec<Heard> = (0..3).map(|_| Heard::default()).collect();
    let ids: Vec<_> = (0..3)
        .map(|i| {
            let id = cluster
                .add_endpoint(NodeId(i as u32), PacedEcho::new(&heard[i]))
                .unwrap();
            cluster.add_peer(id, id).unwrap();
            id
        })
        .collect();
    for window in 0..3 {
        if window == 2 {
            cluster
                .restart_endpoint(ids[0], PacedEcho::new(&heard[0]))
                .unwrap();
        }
        cluster.run_for(Duration::from_millis(40)).unwrap();
    }

    let (mut delivered, mut recovered) = (0, 0);
    for (id, heard) in ids.iter().zip(&heard) {
        let want = heard.lock().unwrap();
        let log = &cluster.report(*id).unwrap().delivered;
        assert!(want.len() >= 60, "{id:?} delivered only {}", want.len());
        assert_eq!(log.iter().collect::<Vec<_>>(), *want, "{id:?}");
        assert_eq!(log.len(), want.len());
        assert_eq!(log.recovered(), want.iter().filter(|d| d.2).count() as u64);
        delivered += log.len() as u64;
        recovered += log.recovered();
    }
    // The restarted endpoint's second core started again from `seq` 0.
    let restarted = heard[0].lock().unwrap();
    assert!(restarted.windows(2).any(|w| w[1].0 < w[0].0 && w[1].0 == 0));
    let stats = cluster.stats();
    assert_eq!((stats.delivered, stats.recovered), (delivered, recovered));
    assert!(recovered > 0);
}
