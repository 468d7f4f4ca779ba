//! Levelization of the dataflow graph (paper §4.2, Figure 11).
//!
//! Slices the graph into layers so that each operation depends only on
//! values available from layers above it: sources (inputs, register state,
//! constants) are available at layer 0, and an operation at layer `L`
//! makes its output available at layer `L+1`.
//!
//! Also accounts for the *identity operations* the strict cascade
//! formulation would need to break cross-layer dependencies (§4.3,
//! Table 1): one identity per layer a value must be carried across, both
//! for operand edges that skip layers and for produced values that must
//! reach the end-of-cycle writeback. The actual simulator elides all of
//! them via coordinate assignment (every signal keeps one `LI` slot for the
//! whole cycle), which is why [`IdentityStats`] is bookkeeping, not cost.

use crate::graph::{Graph, NodeId};
use crate::op::OpClass;

/// Identity-operation accounting (Table 1 reproduction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityStats {
    /// Identities needed to bridge operand edges that skip layers.
    pub edge_gap: usize,
    /// Identities needed to carry register next-states and outputs from
    /// their production layer to the end of the cycle.
    pub carry_to_end: usize,
}

impl IdentityStats {
    /// Total identity operations before elision.
    pub fn total(&self) -> usize {
        self.edge_gap + self.carry_to_end
    }
}

/// The result of levelizing a graph.
#[derive(Debug, Clone)]
pub struct Levelization {
    /// Operation node ids per layer, in dependency-safe order.
    pub layers: Vec<Vec<NodeId>>,
    /// Layer of each operation node (`u32::MAX` for sources and dead
    /// nodes).
    pub layer_of: Vec<u32>,
    /// Identity-op accounting before elision.
    pub identities: IdentityStats,
}

impl Levelization {
    /// Number of effectual (live, non-identity) operations.
    pub fn effectual_ops(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }
}

/// Levelizes the live portion of the graph.
pub fn levelize(graph: &Graph) -> Levelization {
    let order = graph.topo_order();
    let mut layer_of = vec![u32::MAX; graph.len()];
    // Availability layer of a node's value: 0 for sources, layer+1 for ops.
    let avail = |layer_of: &[u32], graph: &Graph, id: NodeId| -> u32 {
        let node = graph.node(id);
        if node.op.class() == OpClass::Source {
            0
        } else {
            debug_assert_ne!(layer_of[id.index()], u32::MAX, "operand not yet levelized");
            layer_of[id.index()] + 1
        }
    };
    let mut layers: Vec<Vec<NodeId>> = Vec::new();
    let mut identities = IdentityStats::default();
    for &id in &order {
        let node = graph.node(id);
        let layer = node
            .operands
            .iter()
            .map(|&o| avail(&layer_of, graph, o))
            .max()
            .unwrap_or(0);
        layer_of[id.index()] = layer;
        if layers.len() <= layer as usize {
            layers.resize_with(layer as usize + 1, Vec::new);
        }
        layers[layer as usize].push(id);
    }
    // Identity accounting (pre-elision).
    let depth = layers.len() as u32;
    for &id in &order {
        let node = graph.node(id);
        let layer = layer_of[id.index()];
        for &o in &node.operands {
            identities.edge_gap += (layer - avail(&layer_of, graph, o)) as usize;
        }
    }
    let mut carry = |id: NodeId| {
        let a = avail(&layer_of, graph, id);
        identities.carry_to_end += depth.saturating_sub(a) as usize;
    };
    for reg in &graph.regs {
        carry(reg.next);
    }
    for (_, out) in &graph.outputs {
        carry(*out);
    }
    Levelization {
        layers,
        layer_of,
        identities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::op::DfgOp;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn graph_of(src: &str) -> Graph {
        build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn paper_figure_11_layering() {
        // Figure 11: a graph where (reg2 - reg3) feeds both reg3 directly
        // and an & at a later layer, requiring an identity before elision.
        let g = graph_of(
            "\
circuit F :
  module F :
    input clock : Clock
    output o : UInt<8>
    reg reg1 : UInt<8>, clock
    reg reg2 : UInt<8>, clock
    reg reg3 : UInt<8>, clock
    node sum = tail(add(reg1, reg2), 1)
    node diff = tail(sub(reg2, reg3), 1)
    reg1 <= sum
    reg2 <= and(sum, diff)
    reg3 <= diff
    o <= reg1
",
        );
        let lv = levelize(&g);
        // add/sub at layer 0, their tails at layer 1, `and` at layer 2.
        assert_eq!(lv.layers.len(), 3);
        let and_id = g.iter().find(|(_, n)| n.op == DfgOp::And).unwrap().0;
        assert_eq!(lv.layer_of[and_id.index()], 2);
        // diff (tail at layer 1, avail 2) feeds reg3's writeback: carried
        // 3-2 = 1 layer; edges into `and` are same-layer so no gap there.
        assert!(lv.identities.total() > 0);
    }

    #[test]
    fn single_layer_design() {
        let g = graph_of(
            "\
circuit S :
  module S :
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<9>
    o <= add(a, b)
",
        );
        let lv = levelize(&g);
        assert_eq!(lv.layers.len(), 1);
        assert_eq!(lv.effectual_ops(), 1);
        assert_eq!(lv.identities.edge_gap, 0);
        assert_eq!(lv.identities.carry_to_end, 0); // avail 1 == depth 1
    }

    #[test]
    fn layers_respect_dependencies() {
        let g = graph_of(
            "\
circuit D :
  module D :
    input a : UInt<8>
    output o : UInt<8>
    node n1 = not(a)
    node n2 = not(n1)
    node n3 = not(n2)
    o <= n3
",
        );
        let lv = levelize(&g);
        assert_eq!(lv.layers.len(), 3);
        for layer in &lv.layers {
            assert_eq!(layer.len(), 1);
        }
    }

    #[test]
    fn identity_count_grows_with_skipped_layers() {
        // `a` (avail 0) is consumed at layer 2 -> 2 identities on that edge.
        let g = graph_of(
            "\
circuit I :
  module I :
    input a : UInt<8>
    output o : UInt<8>
    node n1 = not(a)
    node n2 = not(n1)
    o <= and(n2, a)
",
        );
        let lv = levelize(&g);
        let and_id = g.iter().find(|(_, n)| n.op == DfgOp::And).unwrap().0;
        assert_eq!(lv.layer_of[and_id.index()], 2);
        assert_eq!(lv.identities.edge_gap, 2);
    }

    #[test]
    fn identities_dominate_effectual_in_deep_designs() {
        // Deep chains with wide fan-out at the top mimic the Table 1
        // pattern: identity count far exceeds effectual ops.
        let mut src = String::from(
            "\
circuit Deep :
  module Deep :
    input a : UInt<8>
    output o : UInt<8>
",
        );
        src.push_str("    node n0 = not(a)\n");
        for i in 1..32 {
            src.push_str(&format!("    node n{i} = not(n{})\n", i - 1));
        }
        // Broad consumers of early values at the deepest layer: each such
        // edge needs an identity per skipped layer.
        src.push_str("    node c0 = and(n31, a)\n");
        src.push_str("    node c1 = or(c0, n0)\n");
        src.push_str("    o <= xor(c1, n1)\n");
        let g = graph_of(&src);
        let lv = levelize(&g);
        assert!(lv.identities.total() > lv.effectual_ops());
    }
}
