//! Scenario descriptions: which cores run where, the multicast topology,
//! the scripted fault sequence, and the invariant spec each explored path
//! is checked against.

use adamant_metrics::VerifySpec;
use adamant_proto::{NodeId, TimePoint};

use crate::world::McCore;

/// Builds one node's core; called once per explored run (worlds fork by
/// cloning, not by rebuilding).
pub type CoreFactory = Box<dyn Fn() -> Box<dyn McCore>>;

/// Builds a node's replacement core on restart, given the crashed
/// incarnation's core for checkpoint extraction (upcast to `dyn Any` and
/// downcast).
pub type RestartFactory = Box<dyn Fn(&dyn McCore) -> Box<dyn McCore>>;

/// What one scripted fault step does.
pub enum FaultKind {
    /// Crash the node: timers cleared, in-flight traffic to it dropped on
    /// arrival, inputs no longer delivered.
    Crash(NodeId),
    /// Replace the crashed node's core and step it through `Start` as a
    /// new incarnation.
    Restart(NodeId, RestartFactory),
}

/// One scripted fault with an optional deadline.
///
/// Fault steps happen in scenario order; the model checker explores
/// *when* each one happens relative to deliveries and timer firings. A
/// `by` deadline keeps that freedom bounded: virtual time may not advance
/// past `by` while the step is still pending, so quiescence-dependent
/// invariants (catch-up completes by end of trace) stay meaningful.
pub struct Fault {
    kind: FaultKind,
    by: Option<TimePoint>,
}

impl Fault {
    /// The fault's effect.
    pub fn kind(&self) -> &FaultKind {
        &self.kind
    }

    /// The fault's deadline, if bounded.
    pub fn by(&self) -> Option<TimePoint> {
        self.by
    }
}

/// A small topology plus the properties it must uphold.
pub struct Scenario {
    name: String,
    nodes: Vec<CoreFactory>,
    groups: Vec<Vec<NodeId>>,
    faults: Vec<Fault>,
    spec: VerifySpec,
}

impl Scenario {
    /// An empty scenario named `name`, verified against `spec`.
    pub fn new(name: impl Into<String>, spec: VerifySpec) -> Self {
        Scenario {
            name: name.into(),
            nodes: Vec::new(),
            groups: Vec::new(),
            faults: Vec::new(),
            spec,
        }
    }

    /// Adds a node (ids assign in insertion order, starting at 0).
    pub fn with_node(mut self, factory: impl Fn() -> Box<dyn McCore> + 'static) -> Self {
        self.nodes.push(Box::new(factory));
        self
    }

    /// Sets the multicast membership table.
    pub fn with_groups(mut self, groups: Vec<Vec<NodeId>>) -> Self {
        self.groups = groups;
        self
    }

    /// Appends a crash step that must happen before `by`.
    pub fn with_crash(mut self, node: NodeId, by: TimePoint) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::Crash(node),
            by: Some(by),
        });
        self
    }

    /// Appends a restart step that must happen before `by`.
    pub fn with_restart(
        mut self,
        node: NodeId,
        by: TimePoint,
        factory: impl Fn(&dyn McCore) -> Box<dyn McCore> + 'static,
    ) -> Self {
        self.faults.push(Fault {
            kind: FaultKind::Restart(node, Box::new(factory)),
            by: Some(by),
        });
        self
    }

    /// The scenario's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The membership table.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// The `index`-th scripted fault, if any.
    pub fn fault(&self, index: usize) -> Option<&Fault> {
        self.faults.get(index)
    }

    /// The invariant spec paths are verified against.
    pub fn spec(&self) -> &VerifySpec {
        &self.spec
    }

    /// Constructs a fresh core per node, in node order.
    pub fn build_nodes(&self) -> Vec<Box<dyn McCore>> {
        self.nodes.iter().map(|factory| factory()).collect()
    }
}

/// Search budgets and exploration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// World seed: per-node entropy derives from it deterministically.
    pub seed: u64,
    /// Maximum schedule length (actions per path).
    pub max_depth: usize,
    /// Maximum distinct states expanded before the search truncates.
    pub max_states: usize,
    /// Total message drops the adversary may inject per path.
    pub max_drops: u32,
    /// Total message duplications the adversary may inject per path.
    pub max_dups: u32,
    /// Virtual-time horizon: timers with deadlines beyond it never fire,
    /// giving scenarios with forever-re-arming timers (durable adverts) a
    /// finite quiescent frontier.
    pub horizon: Option<TimePoint>,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            seed: 1,
            max_depth: 48,
            max_states: 100_000,
            max_drops: 0,
            max_dups: 0,
            horizon: None,
        }
    }
}

impl McConfig {
    /// Sets the world seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the depth budget (builder-style).
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the state budget (builder-style).
    pub fn with_max_states(mut self, states: usize) -> Self {
        self.max_states = states;
        self
    }

    /// Sets the adversarial drop budget (builder-style).
    pub fn with_max_drops(mut self, drops: u32) -> Self {
        self.max_drops = drops;
        self
    }

    /// Sets the adversarial duplication budget (builder-style).
    pub fn with_max_dups(mut self, dups: u32) -> Self {
        self.max_dups = dups;
        self
    }

    /// Sets the virtual-time horizon (builder-style).
    pub fn with_horizon(mut self, horizon: TimePoint) -> Self {
        self.horizon = Some(horizon);
        self
    }
}
