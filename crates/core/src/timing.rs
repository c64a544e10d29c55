//! Analytic query-time model: projects an ANN query onto the paper's
//! machine classes.
//!
//! We cannot swap this host's CPU for an 850 MHz Pentium III, so Figures
//! 20–21's pc850-vs-pc3000 comparison is reproduced two ways: real
//! wall-clock measurement on this host (`figures fig20/21` and the
//! benchmark's `ann.forward_ns` probe) *and* this cycle-count model, which maps the ANN's fixed
//! per-query operation count onto each machine's clock. The query path is
//! a dense feedforward pass — the same arithmetic for every input — which
//! is exactly why its cost model is a constant.

use adamant_ann::NeuralNetwork;
use adamant_netsim::MachineClass;

/// Cycle-count model for one ANN query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryCostModel {
    /// Fixed per-call overhead in cycles (call, marshalling, cache warmup).
    pub fixed_cycles: f64,
    /// Cycles per network operation (multiply-add halves plus activation
    /// amortisation).
    pub cycles_per_op: f64,
}

impl Default for QueryCostModel {
    fn default() -> Self {
        QueryCostModel {
            fixed_cycles: 2_500.0,
            cycles_per_op: 7.0,
        }
    }
}

impl QueryCostModel {
    /// Projected time of one query of `net` on `machine`, in microseconds.
    pub fn projected_micros(&self, net: &NeuralNetwork, machine: MachineClass) -> f64 {
        let cycles = self.fixed_cycles + self.cycles_per_op * net.ops_per_query() as f64;
        cycles / machine.mops() // MHz ≡ cycles per microsecond
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adamant_ann::Activation;

    fn paper_net(hidden: usize) -> NeuralNetwork {
        NeuralNetwork::new(&[7, hidden, 6], Activation::fann_default(), 1)
    }

    #[test]
    fn pc850_is_slower_than_pc3000() {
        let model = QueryCostModel::default();
        let net = paper_net(24);
        let fast = model.projected_micros(&net, MachineClass::Pc3000);
        let slow = model.projected_micros(&net, MachineClass::Pc850);
        assert!(slow > fast);
        // Clock ratio: 3000/850.
        assert!((slow / fast - 3000.0 / 850.0).abs() < 1e-9);
    }

    #[test]
    fn paper_architecture_is_under_ten_microseconds_on_pc3000() {
        let model = QueryCostModel::default();
        let net = paper_net(24);
        let t = model.projected_micros(&net, MachineClass::Pc3000);
        assert!(t < 10.0, "projected {t} µs");
        assert!(t > 0.5, "projected {t} µs suspiciously fast");
    }

    #[test]
    fn more_hidden_nodes_cost_more() {
        let model = QueryCostModel::default();
        let small = model.projected_micros(&paper_net(8), MachineClass::Pc3000);
        let large = model.projected_micros(&paper_net(32), MachineClass::Pc3000);
        assert!(large > small);
    }
}
