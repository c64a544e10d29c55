//! The search itself: exhaustive DFS with state-hash pruning, a seeded
//! random-walk mode for schedules deeper than exhaustive budgets allow,
//! and deterministic replay of recorded schedules.
//!
//! Every explored path's trace is fed through the `adamant-metrics`
//! invariant checker: prefix-closed invariants
//! ([`verify_trace_prefix`]) on every leaf, and the full end-of-trace
//! spec ([`verify_trace`]) on *quiescent* leaves (no enabled actions —
//! the run genuinely ended), where completeness claims like "the durable
//! reader recovered everything" are meaningful.

use std::collections::HashSet;

use adamant_json::{Json, ToJson};
use adamant_metrics::{verify_trace, verify_trace_prefix, VerifyReport, Violation};
use adamant_proto::{DetRng, TracedEvent};

use crate::scenario::{McConfig, Scenario};
use crate::world::{Action, World};

/// A replayable path: the world seed plus the decision list. Feeding it
/// to [`replay`] reconstructs the exact same trace, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The world seed the path was explored under.
    pub seed: u64,
    /// The actions taken, in order.
    pub decisions: Vec<Action>,
}

impl ToJson for Schedule {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".to_owned(), Json::Num(self.seed as f64)),
            (
                "decisions".to_owned(),
                Json::Arr(
                    self.decisions
                        .iter()
                        .map(|d| Json::Str(d.to_string()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A schedule that violated an invariant, with everything needed to
/// reproduce and diagnose it.
pub struct Counterexample {
    /// The scenario that produced it.
    pub scenario: String,
    /// Replayable seed + decisions.
    pub schedule: Schedule,
    /// The violations the checker reported on this path.
    pub violations: Vec<Violation>,
    /// Fingerprint of the violating end state (replays must match it).
    pub state_hash: u64,
    /// The full trace of the violating path.
    pub trace: Vec<TracedEvent>,
}

impl ToJson for Counterexample {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario".to_owned(), Json::Str(self.scenario.clone())),
            ("schedule".to_owned(), self.schedule.to_json()),
            ("violations".to_owned(), self.violations.to_json()),
            (
                "state_hash".to_owned(),
                Json::Str(format!("{:016x}", self.state_hash)),
            ),
            (
                "trace".to_owned(),
                Json::Arr(
                    self.trace
                        .iter()
                        .map(|te| Json::Str(te.to_string()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states expanded (visited-set insertions).
    pub states: usize,
    /// Transitions applied (including ones leading to already-seen states).
    pub transitions: usize,
    /// Paths whose trace was verified.
    pub leaves: usize,
    /// Of those, paths ending in a quiescent state (full spec applied).
    pub quiescent_leaves: usize,
    /// Transitions into already-visited states (pruned).
    pub revisits: usize,
    /// Paths cut by the depth or state budget before quiescing.
    pub truncated: usize,
    /// Deepest path reached.
    pub max_depth_seen: usize,
}

impl ToJson for ExploreStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("states".to_owned(), Json::Num(self.states as f64)),
            ("transitions".to_owned(), Json::Num(self.transitions as f64)),
            ("leaves".to_owned(), Json::Num(self.leaves as f64)),
            (
                "quiescent_leaves".to_owned(),
                Json::Num(self.quiescent_leaves as f64),
            ),
            ("revisits".to_owned(), Json::Num(self.revisits as f64)),
            ("truncated".to_owned(), Json::Num(self.truncated as f64)),
            (
                "max_depth_seen".to_owned(),
                Json::Num(self.max_depth_seen as f64),
            ),
        ])
    }
}

/// The outcome of a search: statistics plus the first counterexample, if
/// any path violated an invariant.
pub struct McResult {
    /// Search statistics.
    pub stats: ExploreStats,
    /// First violating schedule found, if any.
    pub counterexample: Option<Counterexample>,
    /// Whether the search covered every reachable state within budgets
    /// (false once the state budget truncated expansion anywhere).
    pub exhausted: bool,
}

impl McResult {
    /// Whether every explored path satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none()
    }
}

struct Dfs<'a> {
    scenario: &'a Scenario,
    cfg: &'a McConfig,
    visited: HashSet<u64>,
    stats: ExploreStats,
    path: Vec<Action>,
    out_of_states: bool,
}

impl Dfs<'_> {
    /// Verifies the current path's trace; `quiescent` selects the full
    /// end-of-trace spec over the prefix-closed subset.
    fn check_leaf(&mut self, world: &World, quiescent: bool) -> Option<Counterexample> {
        self.stats.leaves += 1;
        self.stats.max_depth_seen = self.stats.max_depth_seen.max(self.path.len());
        let report = if quiescent {
            self.stats.quiescent_leaves += 1;
            verify_trace(world.trace(), self.scenario.spec())
        } else {
            verify_trace_prefix(world.trace(), self.scenario.spec())
        };
        self.counterexample_from(world, report)
    }

    fn counterexample_from(&self, world: &World, report: VerifyReport) -> Option<Counterexample> {
        if report.violations.is_empty() {
            return None;
        }
        Some(Counterexample {
            scenario: self.scenario.name().to_owned(),
            schedule: Schedule {
                seed: self.cfg.seed,
                decisions: self.path.clone(),
            },
            violations: report.violations,
            state_hash: world.fingerprint(),
            trace: world.trace().to_vec(),
        })
    }

    fn dfs(&mut self, world: &World, depth: usize) -> Option<Counterexample> {
        let actions = world.enabled_actions(self.scenario);
        if actions.is_empty() {
            return self.check_leaf(world, true);
        }
        if depth >= self.cfg.max_depth || self.out_of_states {
            self.stats.truncated += 1;
            return self.check_leaf(world, false);
        }
        for action in actions {
            let mut child = world.clone();
            child.apply(action, self.scenario);
            self.stats.transitions += 1;
            self.path.push(action);
            let found = if self.visited.insert(child.fingerprint()) {
                if self.stats.states >= self.cfg.max_states {
                    self.out_of_states = true;
                }
                self.stats.states += 1;
                self.dfs(&child, depth + 1)
            } else {
                self.stats.revisits += 1;
                // The extension is pruned, but this path's trace is new:
                // check its prefix-closed invariants before abandoning it.
                self.check_leaf(&child, false)
            };
            self.path.pop();
            if found.is_some() {
                return found;
            }
        }
        None
    }
}

/// Exhaustively explores `scenario` within `cfg`'s budgets, verifying
/// every path, and returns statistics plus the first counterexample.
pub fn explore(scenario: &Scenario, cfg: &McConfig) -> McResult {
    let mut search = Dfs {
        scenario,
        cfg,
        visited: HashSet::new(),
        stats: ExploreStats::default(),
        path: Vec::new(),
        out_of_states: false,
    };
    let root = World::new(scenario, cfg);
    search.visited.insert(root.fingerprint());
    search.stats.states += 1;
    let counterexample = search.dfs(&root, 0);
    McResult {
        stats: search.stats,
        counterexample,
        exhausted: !search.out_of_states,
    }
}

/// Statistics for a batch of random walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Walks completed.
    pub walks: usize,
    /// Actions taken across all walks.
    pub steps: usize,
    /// Walks that reached quiescence before the step budget.
    pub quiescent: usize,
}

impl ToJson for WalkStats {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("walks".to_owned(), Json::Num(self.walks as f64)),
            ("steps".to_owned(), Json::Num(self.steps as f64)),
            ("quiescent".to_owned(), Json::Num(self.quiescent as f64)),
        ])
    }
}

/// Outcome of [`random_walks`].
pub struct WalkResult {
    /// Walk statistics.
    pub stats: WalkStats,
    /// First violating schedule found, if any.
    pub counterexample: Option<Counterexample>,
}

impl WalkResult {
    /// Whether every walk satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Runs `walks` seeded random walks of up to `max_steps` actions each,
/// sampling uniformly among enabled actions. Reaches schedules far deeper
/// than exhaustive budgets allow; each walk's decisions are recorded, so
/// a violating walk is as replayable as an exhaustive counterexample.
pub fn random_walks(
    scenario: &Scenario,
    cfg: &McConfig,
    walks: usize,
    max_steps: usize,
) -> WalkResult {
    let mut stats = WalkStats::default();
    for walk in 0..walks {
        let mut choices =
            DetRng::seed_from_u64(cfg.seed ^ (walk as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let mut world = World::new(scenario, cfg);
        let mut decisions = Vec::new();
        for _ in 0..max_steps {
            let actions = world.enabled_actions(scenario);
            if actions.is_empty() {
                break;
            }
            let action = actions[choices.next_below(actions.len() as u64) as usize];
            world.apply(action, scenario);
            decisions.push(action);
        }
        stats.walks += 1;
        stats.steps += decisions.len();
        let quiescent = world.enabled_actions(scenario).is_empty();
        if quiescent {
            stats.quiescent += 1;
        }
        let report = if quiescent {
            verify_trace(world.trace(), scenario.spec())
        } else {
            verify_trace_prefix(world.trace(), scenario.spec())
        };
        if !report.violations.is_empty() {
            return WalkResult {
                stats,
                counterexample: Some(Counterexample {
                    scenario: scenario.name().to_owned(),
                    schedule: Schedule {
                        seed: cfg.seed,
                        decisions,
                    },
                    violations: report.violations,
                    state_hash: world.fingerprint(),
                    trace: world.trace().to_vec(),
                }),
            };
        }
    }
    WalkResult {
        stats,
        counterexample: None,
    }
}

/// What replaying a schedule reproduced.
pub struct Replayed {
    /// The trace of the replayed path.
    pub trace: Vec<TracedEvent>,
    /// Fingerprint of the end state.
    pub state_hash: u64,
    /// The checker's verdict on the replayed trace (full spec if the
    /// replayed path ends quiescent, prefix-closed subset otherwise).
    pub report: VerifyReport,
}

/// Replays `schedule` against a fresh world and re-verifies the trace.
///
/// Replay is pure: the schedule's seed rebuilds the same initial world
/// (`cfg`'s budgets must match the original search), and the recorded
/// decisions drive it — no randomness is consulted — so two replays are
/// bit-identical and match the original exploration.
pub fn replay(scenario: &Scenario, cfg: &McConfig, schedule: &Schedule) -> Replayed {
    let cfg = McConfig {
        seed: schedule.seed,
        ..*cfg
    };
    let mut world = World::new(scenario, &cfg);
    for &action in &schedule.decisions {
        world.apply(action, scenario);
    }
    let report = if world.enabled_actions(scenario).is_empty() {
        verify_trace(world.trace(), scenario.spec())
    } else {
        verify_trace_prefix(world.trace(), scenario.spec())
    };
    Replayed {
        trace: world.trace().to_vec(),
        state_hash: world.fingerprint(),
        report,
    }
}
