//! The dataflow-graph IR.
//!
//! A [`Graph`] is the middle representation of Figure 1 (paper §2.1): nodes
//! are primitive operations, edges are data flow. Sources are inputs,
//! register state, and constants; sinks are output ports and register
//! next-state values.
//!
//! Construction hash-conses nodes (structural deduplication), so building
//! from a `FlatModule` with heavily shared expressions stays linear in the
//! number of distinct operations.
//!
//! ## Id tables
//!
//! A node is its dense [`NodeId`], and everything keyed by a node — the
//! hash-consing table, the passes' use counts and old-to-new maps — is a
//! table indexed by it. A [`Node`] has nothing of its own on the heap: its
//! operands and parameters are a [`ShortList`] kept in place (only a mux
//! chain's operands spill), and its name is an `Arc<str>` that the graph
//! built from the flat module and every graph rebuilt from it share, so a
//! rebuild copies no string and allocates nothing per node, and the
//! hash-consing table compares a probe with a node word by word.

use crate::op::{DfgOp, OpClass};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Index of a node in a [`Graph`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A short list kept in place — a node's operands or parameters — read as
/// a slice. Only a list longer than `N` (a mux chain's operands) is put on
/// the heap; the unused places of a short one hold `T::default()`, so two
/// short lists compare as their fixed-size arrays, word by word.
#[derive(Clone, PartialEq, Eq)]
pub enum ShortList<T: Copy + Default, const N: usize> {
    /// Up to `N` items, in place.
    Inline { len: u8, items: [T; N] },
    /// More than `N` items.
    Spilled(Box<[T]>),
}

impl<T: Copy + Default, const N: usize> Default for ShortList<T, N> {
    fn default() -> Self {
        ShortList::Inline {
            len: 0,
            items: [T::default(); N],
        }
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for ShortList<T, N> {
    fn from(items: &[T]) -> Self {
        if items.len() > N {
            return ShortList::Spilled(items.into());
        }
        let mut inline = [T::default(); N];
        inline[..items.len()].copy_from_slice(items);
        ShortList::Inline {
            len: items.len() as u8,
            items: inline,
        }
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for ShortList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            ShortList::Inline { len, items } => &items[..usize::from(*len)],
            ShortList::Spilled(items) => items,
        }
    }
}

impl<T: Copy + Default, const N: usize> std::ops::DerefMut for ShortList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            ShortList::Inline { len, items } => &mut items[..usize::from(*len)],
            ShortList::Spilled(items) => items,
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a ShortList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for ShortList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A dataflow-graph node: one primitive operation instance. Nothing of it
/// is on the heap but a mux chain's operands; its name is shared with
/// every graph the node is rebuilt into.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: DfgOp,
    /// Static parameters (bit indices, shift amounts, widths, const value).
    pub params: ShortList<u64, 2>,
    /// Operand node ids, in operand order (the `O` rank).
    pub operands: ShortList<NodeId, 3>,
    /// Result width in bits.
    pub width: u32,
    /// Whether the result is signed (canonical form sign-extended).
    pub signed: bool,
    /// Source-level name, if the node corresponds to a named signal.
    pub name: Option<Arc<str>>,
}

/// A register: its state node, next-state driver, and power-on value.
#[derive(Debug, Clone, PartialEq)]
pub struct RegDef {
    /// The `RegState` node read by consumers.
    pub state: NodeId,
    /// The node computing the next value (committed at cycle end).
    pub next: NodeId,
    /// Power-on value (canonical form).
    pub init: u64,
    /// Hierarchical register name (its state node's).
    pub name: Arc<str>,
}

/// The hash-consing table: the ids of the operation nodes, found by the
/// structure of the node an id names. It holds no second copy of a node's
/// `params` and `operands`: a probe compares against `nodes[id]`.
///
/// Open addressing with linear probing over a power-of-two table at most
/// half full. The hash is multiply-rotate over the structure's words —
/// SipHash over the same words was a third of a graph rebuild — indexed by
/// its top bits and started from a per-table random seed, because constant
/// values and parameters come from the source text: without the seed a
/// design could be written to land every node on one probe sequence.
#[derive(Debug, Clone)]
struct ConsTable {
    slots: Vec<u32>,
    len: usize,
    seed: u64,
}

/// A free slot of the [`ConsTable`].
const FREE: u32 = u32::MAX;

impl Default for ConsTable {
    fn default() -> Self {
        ConsTable {
            slots: Vec::new(),
            len: 0,
            seed: RandomState::new().hash_one(0u8),
        }
    }
}

impl ConsTable {
    fn hash(
        &self,
        op: DfgOp,
        params: &[u64],
        operands: &[NodeId],
        width: u32,
        signed: bool,
    ) -> u64 {
        let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
        let head = (op as u64) << 48 | (params.len() as u64) << 32 | u64::from(width) << 1;
        let mut h = mix(self.seed, head | u64::from(signed));
        for &p in params {
            h = mix(h, p);
        }
        for o in operands {
            h = mix(h, u64::from(o.0));
        }
        h
    }

    fn hash_of(&self, node: &Node) -> u64 {
        self.hash(
            node.op,
            &node.params,
            &node.operands,
            node.width,
            node.signed,
        )
    }

    /// The slots to probe for `hash`, in order, until a free one.
    fn probe(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mask = self.slots.len() - 1;
        let start = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        (0..self.slots.len()).map(move |k| (start + k) & mask)
    }

    /// The id under `hash` whose node `is_it` accepts.
    fn find(&self, hash: u64, is_it: impl Fn(&Node) -> bool, nodes: &[Node]) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash)
            .map(|slot| self.slots[slot])
            .take_while(|&id| id != FREE)
            .find(|&id| is_it(&nodes[id as usize]))
            .map(NodeId)
    }

    /// Records `id`, whose node hashes to `hash` and is not in the table.
    fn insert(&mut self, hash: u64, id: NodeId, nodes: &[Node]) {
        if (self.len + 1) * 2 > self.slots.len() {
            let ids = std::mem::take(&mut self.slots);
            self.slots = vec![FREE; (ids.len() * 2).max(16)];
            for old in ids.into_iter().filter(|&old| old != FREE) {
                self.place(self.hash_of(&nodes[old as usize]), old);
            }
        }
        self.place(hash, id.0);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, id: u32) {
        let slot = self
            .probe(hash)
            .find(|&slot| self.slots[slot] == FREE)
            .expect("the table is at most half full");
        self.slots[slot] = id;
    }
}

/// The dataflow graph of a flattened design.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Hash-consing table over the operation nodes.
    cons: ConsTable,
    /// Input nodes, in port order.
    pub inputs: Vec<NodeId>,
    /// Registers, in declaration order.
    pub regs: Vec<RegDef>,
    /// Output ports: name and driving node.
    pub outputs: Vec<(Arc<str>, NodeId)>,
    /// Design name.
    pub name: String,
}

impl Graph {
    /// Creates an empty graph for a design with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            ..Graph::default()
        }
    }

    /// An empty graph with room for `nodes` nodes: a rebuild of a graph
    /// never grows past the graph it reads.
    pub(crate) fn with_capacity(name: impl Into<String>, nodes: usize) -> Self {
        let mut graph = Graph::new(name);
        graph.nodes.reserve(nodes);
        graph.cons.slots = vec![FREE; (2 * nodes).next_power_of_two().max(16)];
        graph
    }

    /// Number of nodes (including sources and dead nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node (tests seeding a corrupt graph). The
    /// hash-consing table is not told: a node rewritten here is simply no
    /// longer found by structure.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Iterates `(id, node)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Adds a *source* node (input/register state); never hash-consed.
    pub fn add_source(&mut self, op: DfgOp, width: u32, signed: bool, name: Arc<str>) -> NodeId {
        debug_assert_eq!(op.class(), OpClass::Source);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            params: ShortList::default(),
            operands: ShortList::default(),
            width,
            signed,
            name: Some(name),
        });
        id
    }

    /// Adds (or reuses, via hash-consing) an operation node.
    pub fn add_op(
        &mut self,
        op: DfgOp,
        params: &[u64],
        operands: &[NodeId],
        width: u32,
        signed: bool,
    ) -> NodeId {
        if let Some(arity) = op.arity() {
            debug_assert_eq!(operands.len(), arity, "{op}: wrong operand count");
        }
        let hash = self.cons.hash(op, params, operands, width, signed);
        let (params, operands) = (ShortList::from(params), ShortList::from(operands));
        let same = |n: &Node| {
            n.op == op
                && n.width == width
                && n.signed == signed
                && n.params == params
                && n.operands == operands
        };
        if let Some(id) = self.cons.find(hash, same, &self.nodes) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            op,
            params,
            operands,
            width,
            signed,
            name: None,
        });
        self.cons.insert(hash, id, &self.nodes);
        id
    }

    /// Adds a constant node with the given canonical value.
    pub fn add_const(&mut self, value: u64, width: u32, signed: bool) -> NodeId {
        let canonical = crate::op::canonicalize(value, width, signed);
        self.add_op(DfgOp::Const, &[canonical], &[], width, signed)
    }

    /// Attaches a source-level name to a node (used for waveforms / XMR).
    pub fn set_name(&mut self, id: NodeId, name: impl Into<Arc<str>>) {
        self.nodes[id.index()].name = Some(name.into());
    }

    /// Finds a node by source-level name (linear scan; intended for tests
    /// and the XMR front door, not hot paths).
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.iter()
            .find(|(_, n)| n.name.as_deref() == Some(name))
            .map(|(id, _)| id)
    }

    /// Topological order of all *operation* nodes (sources excluded),
    /// following operand edges. Register state nodes are cut points, so the
    /// graph restricted to one cycle is acyclic by construction.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 visiting, 2 done
        let mut order = Vec::with_capacity(n);
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        let mut roots: Vec<NodeId> = self.outputs.iter().map(|(_, id)| *id).collect();
        roots.extend(self.regs.iter().map(|r| r.next));
        for root in roots {
            if state[root.index()] != 0 {
                continue;
            }
            stack.push((root, 0));
            state[root.index()] = 1;
            while let Some(&mut (id, ref mut child)) = stack.last_mut() {
                let node = &self.nodes[id.index()];
                if node.op.class() == OpClass::Source {
                    state[id.index()] = 2;
                    stack.pop();
                    continue;
                }
                if *child < node.operands.len() {
                    let next = node.operands[*child];
                    *child += 1;
                    match state[next.index()] {
                        0 => {
                            state[next.index()] = 1;
                            stack.push((next, 0));
                        }
                        1 => panic!(
                            "combinational cycle through {} (build should have rejected it)",
                            next
                        ),
                        _ => {}
                    }
                } else {
                    state[id.index()] = 2;
                    order.push(id);
                    stack.pop();
                }
            }
        }
        order
    }

    /// Histogram of live (reachable) operation counts per opcode, plus the
    /// total. Sources are excluded.
    pub fn op_histogram(&self) -> HashMap<DfgOp, usize> {
        let mut hist = HashMap::new();
        for id in self.topo_order() {
            *hist.entry(self.nodes[id.index()].op).or_insert(0) += 1;
        }
        hist
    }

    /// Number of live operation nodes (the paper's "effectual operations").
    pub fn effectual_ops(&self) -> usize {
        self.topo_order().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        // out = (a + r); r' = out
        let mut g = Graph::new("tiny");
        let a = g.add_source(DfgOp::Input, 8, false, "a".into());
        g.inputs.push(a);
        let r = g.add_source(DfgOp::RegState, 8, false, "r".into());
        let sum = g.add_op(DfgOp::Add, &[], &[a, r], 8, false);
        g.regs.push(RegDef {
            state: r,
            next: sum,
            init: 0,
            name: "r".into(),
        });
        g.outputs.push(("out".into(), sum));
        g
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut g = tiny();
        let a = g.inputs[0];
        let r = g.regs[0].state;
        let before = g.len();
        let dup = g.add_op(DfgOp::Add, &[], &[a, r], 8, false);
        assert_eq!(g.len(), before);
        assert_eq!(dup, g.regs[0].next);
        // Different width is a different node.
        let other = g.add_op(DfgOp::Add, &[], &[a, r], 9, false);
        assert_ne!(other, dup);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut g = tiny();
        let sum = g.regs[0].next;
        let sq = g.add_op(DfgOp::Mul, &[], &[sum, sum], 8, false);
        g.outputs.push(("sq".into(), sq));
        let order = g.topo_order();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(sum) < pos(sq));
        // Sources do not appear.
        assert!(!order.contains(&g.inputs[0]));
    }

    #[test]
    fn histogram_counts_live_ops_only() {
        let mut g = tiny();
        // A dead node: never referenced by outputs or reg nexts.
        let a = g.inputs[0];
        g.add_op(DfgOp::Not, &[], &[a], 8, false);
        let hist = g.op_histogram();
        assert_eq!(hist.get(&DfgOp::Add), Some(&1));
        assert_eq!(hist.get(&DfgOp::Not), None);
        assert_eq!(g.effectual_ops(), 1);
    }

    #[test]
    fn const_nodes_store_canonical_values() {
        let mut g = Graph::new("c");
        let c = g.add_const(0b1100, 4, true); // -4 sign-extended
        assert_eq!(g.node(c).params[0] as i64, -4);
        let c2 = g.add_const((-4i64) as u64, 4, true);
        assert_eq!(c, c2); // canonical form makes them identical
    }

    #[test]
    fn find_by_name_works() {
        let g = tiny();
        assert_eq!(g.find_by_name("a"), Some(g.inputs[0]));
        assert_eq!(g.find_by_name("r"), Some(g.regs[0].state));
        assert_eq!(g.find_by_name("ghost"), None);
    }
}
