//! Dataflow-graph optimization passes.
//!
//! These are the "Dataflow Graph Optimization" stage of the RTeAAL Sim
//! compiler (paper Figure 14 / §6.1 / Appendix B):
//!
//! - **Constant propagation & folding** — classical, applied "as a means to
//!   optimize the OIM" (§6.1).
//! - **Copy propagation** — a *data-level* optimization in the extended
//!   TeAAL hierarchy (Box 1, Appendix B.1): removes redundant intermediate
//!   values. **Truncation fusion** rides under the same toggle: a
//!   narrowing (or same-width re-signing) `Resize`/`Identity` that is the
//!   only consumer of a computed, unnamed op becomes that op re-emitted
//!   at the resize's type — `tail(add(a, b), 1)` is one 32-bit `add`, not
//!   a 33-bit `add` and a masked row copy.
//! - **Common-subexpression elimination** — implicit in the graph's
//!   hash-consing; every rebuild re-dedupes.
//! - **Operator fusion (mux-chain extraction)** — a *cascade-level*
//!   optimization (Box 1): nested 2-way muxes that form a priority chain
//!   are fused into a single [`DfgOp::MuxChain`] operation, reducing the
//!   number of operations and memory accesses.
//! - **Dead-code elimination** — inherent in every rebuild (only nodes
//!   reachable from outputs and register next-states are copied).

use crate::graph::{Graph, NodeId, RegDef};
use crate::op::{canonicalize, eval_raw, DfgOp, OpClass};
use std::collections::{HashMap, HashSet};

/// Which passes to run (ablation hooks for the `opt-ablation` bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassOptions {
    /// Fold constant-operand ops and simplify const-condition muxes.
    pub const_fold: bool,
    /// Collapse value-preserving copies (identity, no-op resize, trivial
    /// mux) onto their operand, and fuse truncating ones into a
    /// single-use producer.
    pub copy_prop: bool,
    /// Fuse nested mux chains into [`DfgOp::MuxChain`].
    pub fuse_mux_chains: bool,
    /// Minimum number of 2-way muxes to justify a fused chain.
    pub min_chain_len: usize,
}

impl Default for PassOptions {
    fn default() -> Self {
        PassOptions {
            const_fold: true,
            copy_prop: true,
            fuse_mux_chains: true,
            min_chain_len: 3,
        }
    }
}

impl PassOptions {
    /// All passes disabled (the `-O0` analog used by Fig 19).
    pub fn none() -> Self {
        PassOptions {
            const_fold: false,
            copy_prop: false,
            fuse_mux_chains: false,
            min_chain_len: usize::MAX,
        }
    }
}

/// Counters describing what the passes changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Ops replaced by constants.
    pub const_folded: usize,
    /// Copies collapsed onto their operand.
    pub copies_propagated: usize,
    /// Truncating resizes fused into their single-use producer.
    pub truncs_fused: usize,
    /// Structurally identical ops merged (CSE via hash-consing).
    pub cse_merged: usize,
    /// Unreachable ops dropped.
    pub dead_removed: usize,
    /// Mux chains fused (count of `MuxChain` ops created).
    pub chains_fused: usize,
    /// 2-way muxes absorbed into fused chains.
    pub muxes_absorbed: usize,
}

/// Runs the configured passes and returns the optimized graph with stats.
pub fn optimize(graph: &Graph, opts: &PassOptions) -> (Graph, PassStats) {
    let mut stats = PassStats::default();
    let uses = if opts.copy_prop {
        use_counts(graph)
    } else {
        HashMap::new()
    };
    let mut g = rebuild(graph, &mut |new, node, ops| {
        transform(new, graph, &uses, node, ops, opts, &mut stats)
    });
    if opts.fuse_mux_chains {
        g = fuse_mux_chains(&g, opts.min_chain_len, &mut stats);
    }
    stats.dead_removed = graph.len().saturating_sub(g.len());
    (g, stats)
}

/// Rebuilds a graph bottom-up, letting `f` choose the replacement node for
/// each live operation. Sources are copied verbatim; dead nodes vanish.
pub fn rebuild(
    graph: &Graph,
    f: &mut impl FnMut(&mut Graph, &crate::graph::Node, &[NodeId]) -> NodeId,
) -> Graph {
    let mut new = Graph::new(graph.name.clone());
    let mut map: HashMap<NodeId, NodeId> = HashMap::with_capacity(graph.len());
    for &input in &graph.inputs {
        let node = graph.node(input);
        let id = new.add_source(
            node.op,
            node.width,
            node.signed,
            node.name.clone().unwrap_or_default(),
        );
        new.inputs.push(id);
        map.insert(input, id);
    }
    for reg in &graph.regs {
        let node = graph.node(reg.state);
        let id = new.add_source(node.op, node.width, node.signed, reg.name.clone());
        new.regs.push(RegDef {
            state: id,
            next: id,
            init: reg.init,
            name: reg.name.clone(),
        });
        map.insert(reg.state, id);
    }
    for (id, node) in graph.iter() {
        if node.op == DfgOp::Const {
            map.insert(id, new.add_const(node.params[0], node.width, node.signed));
        }
    }
    let mut operand_buf = Vec::new();
    for id in graph.topo_order() {
        let node = graph.node(id);
        operand_buf.clear();
        operand_buf.extend(node.operands.iter().map(|o| map[o]));
        let new_id = f(&mut new, node, &operand_buf);
        if let Some(name) = &node.name {
            if new.node(new_id).name.is_none() {
                new.set_name(new_id, name.clone());
            }
        }
        map.insert(id, new_id);
    }
    for (k, reg) in graph.regs.iter().enumerate() {
        new.regs[k].next = map[&reg.next];
    }
    for (name, out) in &graph.outputs {
        new.outputs.push((name.clone(), map[out]));
    }
    new
}

/// Consumers of each node among the live ops, plus one per output port
/// and register next-state it drives.
fn use_counts(graph: &Graph) -> HashMap<NodeId, usize> {
    let mut uses: HashMap<NodeId, usize> = HashMap::new();
    let roots = graph.outputs.iter().map(|(_, id)| *id);
    let roots = roots.chain(graph.regs.iter().map(|r| r.next));
    let live = graph.topo_order();
    let operands = live.iter().flat_map(|&id| graph.node(id).operands.iter());
    for id in operands.copied().chain(roots) {
        *uses.entry(id).or_insert(0) += 1;
    }
    uses
}

fn transform(
    new: &mut Graph,
    old: &Graph,
    uses: &HashMap<NodeId, usize>,
    node: &crate::graph::Node,
    ops: &[NodeId],
    opts: &PassOptions,
    stats: &mut PassStats,
) -> NodeId {
    if opts.const_fold {
        if node.op != DfgOp::Const
            && ops.iter().all(|&o| new.node(o).op == DfgOp::Const)
            && node.op.class() != OpClass::Source
        {
            let vals: Vec<u64> = ops.iter().map(|&o| new.node(o).params[0]).collect();
            let raw = eval_raw(node.op, &node.params, &vals);
            stats.const_folded += 1;
            return new.add_const(
                canonicalize(raw, node.width, node.signed),
                node.width,
                node.signed,
            );
        }
        // Mux with a constant condition collapses to one arm (plus a
        // resize if the arm is narrower than the mux result).
        if node.op == DfgOp::Mux && new.node(ops[0]).op == DfgOp::Const {
            let arm = if new.node(ops[0]).params[0] != 0 {
                ops[1]
            } else {
                ops[2]
            };
            stats.const_folded += 1;
            return coerce_like(new, arm, node.width, node.signed);
        }
        if node.op == DfgOp::ValidIf && new.node(ops[0]).op == DfgOp::Const {
            stats.const_folded += 1;
            return if new.node(ops[0]).params[0] != 0 {
                coerce_like(new, ops[1], node.width, node.signed)
            } else {
                new.add_const(0, node.width, node.signed)
            };
        }
    }
    if opts.copy_prop {
        // Identity / no-op resize: result value equals operand value.
        let value_preserving = matches!(node.op, DfgOp::Identity | DfgOp::Resize)
            && new.node(ops[0]).signed == node.signed
            && new.node(ops[0]).width <= node.width;
        if value_preserving {
            stats.copies_propagated += 1;
            return ops[0];
        }
        // Mux with identical arms.
        if node.op == DfgOp::Mux && ops[1] == ops[2] {
            stats.copies_propagated += 1;
            return coerce_like(new, ops[1], node.width, node.signed);
        }
        // Truncation fusion: the resize's only job is to canonicalize its
        // producer's value again, at a type no wider — and `eval_raw`
        // never reads a node's own width, so for `w <= w'`
        // `canonicalize(canonicalize(raw, w', s'), w, s)` is
        // `canonicalize(raw, w, s)`: the producer re-emitted at the
        // resize's type computes the same value in one op. Only when the
        // resize is the producer's sole consumer (else the work doubles)
        // and the producer is unnamed (else its probe disappears); the
        // old graph counts the uses, so the producer must also have come
        // through the rebuild as itself.
        if matches!(node.op, DfgOp::Identity | DfgOp::Resize) {
            let (was, src) = (old.node(node.operands[0]), new.node(ops[0]));
            if uses.get(&node.operands[0]) == Some(&1)
                && src.op == was.op
                && !matches!(src.op.class(), OpClass::Source)
                && src.name.is_none()
                && node.width <= src.width
            {
                stats.truncs_fused += 1;
                let (op, params, operands) = (src.op, src.params.clone(), src.operands.clone());
                return new.add_op(op, params, operands, node.width, node.signed);
            }
        }
    }
    let before = new.len();
    let id = new.add_op(
        node.op,
        node.params.clone(),
        ops.to_vec(),
        node.width,
        node.signed,
    );
    if new.len() == before {
        stats.cse_merged += 1;
    }
    id
}

fn coerce_like(new: &mut Graph, id: NodeId, width: u32, signed: bool) -> NodeId {
    let node = new.node(id);
    if node.signed == signed && node.width <= width {
        id
    } else {
        new.add_op(DfgOp::Resize, vec![], vec![id], width, signed)
    }
}

/// Fuses single-use nested mux chains into [`DfgOp::MuxChain`] ops.
fn fuse_mux_chains(graph: &Graph, min_len: usize, stats: &mut PassStats) -> Graph {
    let live = graph.topo_order();
    let uses = use_counts(graph);
    // Count appearances as the false-arm of a live mux.
    let mut fval_uses: HashMap<NodeId, usize> = HashMap::new();
    for &id in &live {
        let node = graph.node(id);
        if node.op == DfgOp::Mux {
            *fval_uses.entry(node.operands[2]).or_insert(0) += 1;
        }
    }
    // A mux is absorbable if its only use is as the false-arm of exactly
    // one other mux — and it selects without truncating: a mux narrower
    // than an arm, or signed differently (truncation fusion makes those),
    // canonicalizes on the way through, which a chain's one result type
    // cannot.
    let selects_verbatim = |mux: &crate::graph::Node| {
        mux.operands[1..].iter().all(|&arm| {
            let arm = graph.node(arm);
            arm.signed == mux.signed && arm.width <= mux.width
        })
    };
    let absorbable = |id: NodeId| -> bool {
        graph.node(id).op == DfgOp::Mux
            && uses.get(&id).copied().unwrap_or(0) == 1
            && fval_uses.get(&id).copied().unwrap_or(0) == 1
            && selects_verbatim(graph.node(id))
    };
    // Identify chain heads: muxes whose false arm starts a chain but which
    // are not absorbable themselves.
    let mut planned: HashMap<NodeId, Vec<NodeId>> = HashMap::new(); // head -> chain muxes
    let mut absorbed: HashSet<NodeId> = HashSet::new();
    for &id in &live {
        let node = graph.node(id);
        if node.op != DfgOp::Mux || absorbed.contains(&id) {
            continue;
        }
        // Is this node itself going to be absorbed by its consumer?
        // We only start chains at non-absorbable heads; absorbable nodes
        // get claimed when their head is processed. Walk down the chain.
        if absorbable(id) {
            continue;
        }
        let mut chain = vec![id];
        let mut cur = id;
        while absorbable(graph.node(cur).operands[2]) {
            cur = graph.node(cur).operands[2];
            chain.push(cur);
        }
        if chain.len() >= min_len {
            for &m in &chain[1..] {
                absorbed.insert(m);
            }
            planned.insert(id, chain);
        }
    }
    if planned.is_empty() {
        return rebuild(graph, &mut |new, node, ops| {
            new.add_op(
                node.op,
                node.params.clone(),
                ops.to_vec(),
                node.width,
                node.signed,
            )
        });
    }
    stats.chains_fused += planned.len();
    stats.muxes_absorbed += absorbed.len();
    // Manual rebuild (the generic `rebuild` cannot see old node ids, which
    // the chain plan is keyed by): heads become MuxChain ops gathering
    // (cond, val) pairs from the whole chain; absorbed muxes are still
    // materialized here but end up dead and are dropped by the final
    // rebuild below.
    let mut new = Graph::new(graph.name.clone());
    let mut map: HashMap<NodeId, NodeId> = HashMap::with_capacity(graph.len());
    for &input in &graph.inputs {
        let node = graph.node(input);
        let id = new.add_source(
            node.op,
            node.width,
            node.signed,
            node.name.clone().unwrap_or_default(),
        );
        new.inputs.push(id);
        map.insert(input, id);
    }
    for reg in &graph.regs {
        let node = graph.node(reg.state);
        let id = new.add_source(node.op, node.width, node.signed, reg.name.clone());
        new.regs.push(RegDef {
            state: id,
            next: id,
            init: reg.init,
            name: reg.name.clone(),
        });
        map.insert(reg.state, id);
    }
    for (id, node) in graph.iter() {
        if node.op == DfgOp::Const {
            map.insert(id, new.add_const(node.params[0], node.width, node.signed));
        }
    }
    for id in graph.topo_order() {
        let node = graph.node(id);
        let new_id = if let Some(chain) = planned.get(&id) {
            let mut operands = Vec::with_capacity(chain.len() * 2 + 1);
            for &m in chain {
                let mn = graph.node(m);
                operands.push(map[&mn.operands[0]]);
                operands.push(map[&mn.operands[1]]);
            }
            let default = graph.node(*chain.last().unwrap()).operands[2];
            operands.push(map[&default]);
            new.add_op(DfgOp::MuxChain, vec![], operands, node.width, node.signed)
        } else {
            let ops: Vec<NodeId> = node.operands.iter().map(|o| map[o]).collect();
            new.add_op(node.op, node.params.clone(), ops, node.width, node.signed)
        };
        if let Some(name) = &node.name {
            if new.node(new_id).name.is_none() {
                new.set_name(new_id, name.clone());
            }
        }
        map.insert(id, new_id);
    }
    for (k, reg) in graph.regs.iter().enumerate() {
        new.regs[k].next = map[&reg.next];
    }
    for (name, out) in &graph.outputs {
        new.outputs.push((name.clone(), map[out]));
    }
    // Final plain rebuild drops the absorbed (now-dead) muxes.
    rebuild(&new, &mut |g, node, ops| {
        g.add_op(
            node.op,
            node.params.clone(),
            ops.to_vec(),
            node.width,
            node.signed,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::interp::Interpreter;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn graph_of(src: &str) -> Graph {
        build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap()
    }

    /// Every pass must preserve cycle-accurate behavior.
    fn assert_equivalent(a: &Graph, b: &Graph, cycles: u64, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sa = Interpreter::new(a);
        let mut sb = Interpreter::new(b);
        for _ in 0..cycles {
            for i in 0..a.inputs.len() {
                let v: u64 = rng.gen();
                sa.set_input(i, v);
                sb.set_input(i, v);
            }
            sa.step();
            sb.step();
            for i in 0..a.outputs.len() {
                assert_eq!(sa.output(i), sb.output(i), "output {i} diverged");
            }
        }
    }

    #[test]
    fn const_folding_collapses_arithmetic() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input a : UInt<8>
    output out : UInt<8>
    node k = tail(add(UInt<8>(3), UInt<8>(4)), 1)
    out <= tail(add(a, k), 1)
",
        );
        let (opt, stats) = optimize(&g, &PassOptions::default());
        assert!(stats.const_folded >= 1);
        // Only the runtime add survives, at its tail's 8 bits.
        assert_eq!(stats.truncs_fused, 1);
        assert_eq!(opt.effectual_ops(), 1);
        let out = opt.node(opt.outputs[0].1);
        assert_eq!((out.op, out.width), (DfgOp::Add, 8));
        assert_equivalent(&g, &opt, 50, 1);
    }

    /// What survives of `src` under the default passes, as
    /// `(opcode, width)` of every live op, sorted.
    fn live_ops(src: &str, want_fused: usize) -> Vec<(DfgOp, u32)> {
        let g = graph_of(src);
        let (opt, stats) = optimize(&g, &PassOptions::default());
        assert_eq!(stats.truncs_fused, want_fused);
        assert_equivalent(&g, &opt, 200, 9);
        let mut ops: Vec<(DfgOp, u32)> = opt
            .topo_order()
            .into_iter()
            .map(|id| (opt.node(id).op, opt.node(id).width))
            .collect();
        ops.sort();
        ops
    }

    #[test]
    fn truncation_fuses_into_a_single_use_producer_of_any_opcode() {
        // Narrowing a sum, re-signing at the same width, narrowing a
        // signed product: each resize disappears into its producer.
        let ops = live_ops(
            "\
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    input s : SInt<8>
    output sum : UInt<8>
    output neg : UInt<9>
    output prod : UInt<4>
    output hi : UInt<3>
    sum <= tail(add(a, b), 1)
    neg <= asUInt(neg(a))
    prod <= tail(mul(s, s), 12)
    hi <= bits(shl(a, 2), 4, 2)
",
            3,
        );
        // `bits` is no resize: its `shl` stays 10 bits wide.
        assert_eq!(
            ops,
            vec![
                (DfgOp::Add, 8),
                (DfgOp::Mul, 4),
                (DfgOp::Neg, 9),
                (DfgOp::Shl, 10),
                (DfgOp::Bits, 3),
            ]
        );
    }

    #[test]
    fn truncation_fusion_leaves_shared_named_widening_and_source_operands_alone() {
        // A producer with a second consumer would be computed twice.
        let shared = live_ops(
            "\
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    output lo : UInt<8>
    output all : UInt<9>
    lo <= tail(add(a, b), 1)
    all <= add(a, b)
",
            0,
        );
        assert_eq!(shared, vec![(DfgOp::Add, 9), (DfgOp::Resize, 8)]);
        // A named producer is a probe.
        let named = live_ops(
            "\
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    output lo : UInt<8>
    node wide = add(a, b)
    lo <= tail(wide, 1)
",
            0,
        );
        assert_eq!(named, vec![(DfgOp::Add, 9), (DfgOp::Resize, 8)]);
        // Widening is not a truncation (a sign change keeps the resize;
        // a same-sign pad is a plain copy), and neither is a resize of an
        // input or a constant-fed op that folds away first.
        let rest = live_ops(
            "\
circuit C :
  module C :
    input a : UInt<8>
    input s : SInt<8>
    output wide : SInt<12>
    output cut : UInt<4>
    output k : UInt<4>
    wide <= cvt(not(a))
    cut <= tail(a, 4)
    k <= tail(add(UInt<4>(9), UInt<4>(9)), 1)
",
            0,
        );
        assert_eq!(
            rest,
            vec![(DfgOp::Not, 8), (DfgOp::Resize, 4), (DfgOp::Resize, 9)]
        );
    }

    #[test]
    fn a_fused_truncating_mux_is_not_absorbed_into_a_chain() {
        // `inner` narrows 8 -> 4 bits on its way into the outer ladder:
        // fused into its mux, that mux canonicalizes, so the chain a
        // 3-deep ladder would otherwise form must stop above it.
        let src = "\
circuit C :
  module C :
    input c0 : UInt<1>
    input c1 : UInt<1>
    input c2 : UInt<1>
    input c3 : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    input d : UInt<4>
    output out : UInt<4>
    out <= mux(c0, d, mux(c1, d, mux(c2, d, tail(mux(c3, a, b), 4))))
";
        let g = graph_of(src);
        let (opt, stats) = optimize(&g, &PassOptions::default());
        assert_eq!(stats.truncs_fused, 1);
        assert_eq!((stats.chains_fused, stats.muxes_absorbed), (1, 2));
        assert_eq!(opt.op_histogram().get(&DfgOp::Mux), Some(&1));
        assert_equivalent(&g, &opt, 400, 10);
    }

    #[test]
    fn a_shared_mux_chain_producer_is_left_alone() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input c0 : UInt<1>
    input c1 : UInt<1>
    input c2 : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    input d : UInt<8>
    output lo : UInt<4>
    output hi : UInt<4>
    output all : UInt<8>
    node pick = mux(c0, a, mux(c1, b, mux(c2, d, a)))
    lo <= tail(pick, 4)
    hi <= head(pick, 4)
    all <= pick
",
        );
        // Twice through the passes: the second run meets the `MuxChain`
        // the first one built, with its three consumers.
        let (once, _) = optimize(&g, &PassOptions::default());
        let (twice, stats) = optimize(&once, &PassOptions::default());
        assert_eq!(stats.truncs_fused, 0);
        let hist = twice.op_histogram();
        assert_eq!(hist.get(&DfgOp::MuxChain), Some(&1));
        assert_eq!(hist.get(&DfgOp::Resize), Some(&1));
        assert_equivalent(&g, &twice, 200, 11);
    }

    #[test]
    fn const_mux_selects_arm() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    output out : UInt<8>
    out <= mux(UInt<1>(1), a, b)
",
        );
        let (opt, _) = optimize(&g, &PassOptions::default());
        assert_eq!(opt.outputs[0].1, opt.inputs[0]);
        assert_equivalent(&g, &opt, 20, 2);
    }

    #[test]
    fn copy_prop_removes_trivial_mux() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input c : UInt<1>
    input a : UInt<8>
    output out : UInt<8>
    out <= mux(c, a, a)
",
        );
        let (opt, stats) = optimize(&g, &PassOptions::default());
        assert!(stats.copies_propagated >= 1);
        assert_eq!(opt.effectual_ops(), 0);
        assert_equivalent(&g, &opt, 20, 3);
    }

    #[test]
    fn mux_chain_fusion() {
        // A 4-deep priority chain (like a FIRRTL when-else ladder).
        let g = graph_of(
            "\
circuit C :
  module C :
    input c0 : UInt<1>
    input c1 : UInt<1>
    input c2 : UInt<1>
    input c3 : UInt<1>
    input v0 : UInt<8>
    input v1 : UInt<8>
    input v2 : UInt<8>
    input v3 : UInt<8>
    input d : UInt<8>
    output out : UInt<8>
    out <= mux(c0, v0, mux(c1, v1, mux(c2, v2, mux(c3, v3, d))))
",
        );
        let (opt, stats) = optimize(&g, &PassOptions::default());
        assert_eq!(stats.chains_fused, 1);
        assert_eq!(stats.muxes_absorbed, 3);
        let hist = opt.op_histogram();
        assert_eq!(hist.get(&DfgOp::MuxChain), Some(&1));
        assert_eq!(hist.get(&DfgOp::Mux), None);
        assert_equivalent(&g, &opt, 200, 4);
    }

    #[test]
    fn short_chains_not_fused() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input c0 : UInt<1>
    input c1 : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    input d : UInt<8>
    output out : UInt<8>
    out <= mux(c0, a, mux(c1, b, d))
",
        );
        let (opt, stats) = optimize(&g, &PassOptions::default());
        assert_eq!(stats.chains_fused, 0);
        assert_eq!(opt.op_histogram().get(&DfgOp::Mux), Some(&2));
    }

    #[test]
    fn multiply_used_mux_not_absorbed() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input c0 : UInt<1>
    input c1 : UInt<1>
    input c2 : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    input d : UInt<8>
    output out : UInt<8>
    output aux : UInt<8>
    node inner = mux(c1, b, mux(c2, a, d))
    out <= mux(c0, a, inner)
    aux <= inner
",
        );
        let (opt, _) = optimize(&g, &PassOptions::default());
        // inner is used twice, so the chain from `out` cannot absorb it.
        assert!(opt.op_histogram().get(&DfgOp::Mux).copied().unwrap_or(0) >= 1);
        assert_equivalent(&g, &opt, 100, 5);
    }

    #[test]
    fn passes_disabled_change_nothing_semantically() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input clock : Clock
    input x : UInt<8>
    output out : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, x), 1)
    out <= r
",
        );
        let (opt, stats) = optimize(&g, &PassOptions::none());
        assert_eq!(stats.const_folded, 0);
        assert_eq!(stats.copies_propagated, 0);
        assert_equivalent(&g, &opt, 100, 6);
    }

    #[test]
    fn dce_drops_unreachable() {
        let mut g = graph_of(
            "\
circuit C :
  module C :
    input a : UInt<8>
    output out : UInt<8>
    out <= not(a)
",
        );
        // Manually add dead nodes.
        let a = g.inputs[0];
        g.add_op(DfgOp::Neg, vec![], vec![a], 9, true);
        let before = g.len();
        let (opt, stats) = optimize(&g, &PassOptions::default());
        assert!(opt.len() < before);
        assert!(stats.dead_removed >= 1);
    }

    #[test]
    fn optimization_preserves_register_behavior() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input clock : Clock
    input x : UInt<8>
    input sel : UInt<1>
    output out : UInt<8>
    reg r : UInt<8>, clock
    node dead_const = tail(mul(UInt<8>(6), UInt<8>(7)), 8)
    r <= mux(sel, tail(add(r, x), 1), mux(UInt<1>(0), dead_const, r))
    out <= r
",
        );
        let (opt, _) = optimize(&g, &PassOptions::default());
        assert_equivalent(&g, &opt, 300, 7);
    }
}
