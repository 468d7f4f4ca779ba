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

use crate::graph::{Graph, Node, NodeId, RegDef};
use crate::op::{canonicalize, eval_raw, DfgOp, OpClass};

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
///
/// Two rebuilds at most: one for folding, copy propagation and truncation
/// fusion, one for chain fusion, which also sweeps what the first left
/// dead. Each works from one topological order of the graph it reads, and
/// everything keyed by a node is a `Vec` indexed by its dense id.
pub fn optimize(graph: &Graph, opts: &PassOptions) -> (Graph, PassStats) {
    let mut stats = PassStats::default();
    let order = graph.topo_order();
    let uses = if opts.copy_prop {
        use_counts(graph, &order)
    } else {
        Vec::new()
    };
    let mut g = rebuild(graph, &order, &mut |new, id, ops, _| {
        transform(new, graph, &uses, graph.node(id), ops, opts, &mut stats)
    });
    if opts.fuse_mux_chains {
        g = fuse_mux_chains(&g, opts.min_chain_len, &mut stats);
    }
    stats.dead_removed = graph.len().saturating_sub(g.len());
    (g, stats)
}

/// In a rebuild's old-to-new map: not live, or left out by the closure.
const DROPPED: NodeId = NodeId(u32::MAX);

/// Rebuilds a graph bottom-up along `order` (its [`Graph::topo_order`]),
/// letting `f` choose the replacement node for each live operation from
/// its id, its operands in the new graph, and the old-to-new map so far;
/// an operation `f` answers [`DROPPED`] for is left out (nothing that is
/// kept may use it). Sources are copied verbatim; dead nodes vanish.
fn rebuild(
    graph: &Graph,
    order: &[NodeId],
    f: &mut impl FnMut(&mut Graph, NodeId, &[NodeId], &[NodeId]) -> NodeId,
) -> Graph {
    let mut new = Graph::with_capacity(graph.name.clone(), graph.len());
    let mut map = vec![DROPPED; graph.len()];
    for &input in &graph.inputs {
        let node = graph.node(input);
        let id = new.add_source(
            node.op,
            node.width,
            node.signed,
            node.name.clone().unwrap_or_else(|| "".into()),
        );
        new.inputs.push(id);
        map[input.index()] = id;
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
        map[reg.state.index()] = id;
    }
    for (id, node) in graph.iter() {
        if node.op == DfgOp::Const {
            map[id.index()] = new.add_const(node.params[0], node.width, node.signed);
        }
    }
    let mut operand_buf = Vec::new();
    for &id in order {
        let node = graph.node(id);
        operand_buf.clear();
        operand_buf.extend(node.operands.iter().map(|o| map[o.index()]));
        let new_id = f(&mut new, id, &operand_buf, &map);
        if new_id == DROPPED {
            continue;
        }
        if let Some(name) = &node.name {
            if new.node(new_id).name.is_none() {
                new.set_name(new_id, name.clone());
            }
        }
        map[id.index()] = new_id;
    }
    for (k, reg) in graph.regs.iter().enumerate() {
        new.regs[k].next = map[reg.next.index()];
    }
    for (name, out) in &graph.outputs {
        new.outputs.push((name.clone(), map[out.index()]));
    }
    new
}

/// Per node id: its consumers among the live ops (`order`), plus one per
/// output port and register next-state it drives.
fn use_counts(graph: &Graph, order: &[NodeId]) -> Vec<u32> {
    let mut uses = vec![0; graph.len()];
    let roots = graph.outputs.iter().map(|(_, id)| *id);
    let roots = roots.chain(graph.regs.iter().map(|r| r.next));
    let operands = order.iter().flat_map(|&id| graph.node(id).operands.iter());
    for id in operands.copied().chain(roots) {
        uses[id.index()] += 1;
    }
    uses
}

fn transform(
    new: &mut Graph,
    old: &Graph,
    uses: &[u32],
    node: &Node,
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
            if uses[node.operands[0].index()] == 1
                && src.op == was.op
                && !matches!(src.op.class(), OpClass::Source)
                && src.name.is_none()
                && node.width <= src.width
            {
                stats.truncs_fused += 1;
                let (op, params, operands) = (src.op, src.params.clone(), src.operands.clone());
                return new.add_op(op, &params, &operands, node.width, node.signed);
            }
        }
    }
    let before = new.len();
    let id = new.add_op(node.op, &node.params, ops, node.width, node.signed);
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
        new.add_op(DfgOp::Resize, &[], &[id], width, signed)
    }
}

/// Fuses single-use nested mux chains into [`DfgOp::MuxChain`] ops, in one
/// rebuild: a chain's head is emitted as the `MuxChain` over the whole
/// chain, and the muxes it absorbs — each has exactly one consumer, the
/// mux above it in the chain — are left out.
fn fuse_mux_chains(graph: &Graph, min_len: usize, stats: &mut PassStats) -> Graph {
    let live = graph.topo_order();
    let uses = use_counts(graph, &live);
    // Count appearances as the false-arm of a live mux.
    let mut fval_uses = vec![0u32; graph.len()];
    for &id in &live {
        let node = graph.node(id);
        if node.op == DfgOp::Mux {
            fval_uses[node.operands[2].index()] += 1;
        }
    }
    // A mux is absorbable if its only use is as the false-arm of exactly
    // one other mux — and it selects without truncating: a mux narrower
    // than an arm, or signed differently (truncation fusion makes those),
    // canonicalizes on the way through, which a chain's one result type
    // cannot.
    let selects_verbatim = |mux: &Node| {
        mux.operands[1..].iter().all(|&arm| {
            let arm = graph.node(arm);
            arm.signed == mux.signed && arm.width <= mux.width
        })
    };
    let absorbable = |id: NodeId| -> bool {
        graph.node(id).op == DfgOp::Mux
            && uses[id.index()] == 1
            && fval_uses[id.index()] == 1
            && selects_verbatim(graph.node(id))
    };
    let below = |id: NodeId| graph.node(id).operands[2];
    // Chain heads: muxes whose false arm starts a chain of absorbable
    // muxes but which are not absorbable themselves (an absorbable mux is
    // claimed when its head is reached). A head's chain is its `absorbed`
    // false arms, walked again when it is emitted.
    let mut is_head = vec![false; graph.len()];
    let mut absorbed = vec![false; graph.len()];
    let mut chain = Vec::new();
    for &id in &live {
        if graph.node(id).op != DfgOp::Mux || absorbable(id) {
            continue;
        }
        chain.clear();
        let mut next = below(id);
        while absorbable(next) {
            chain.push(next);
            next = below(next);
        }
        if 1 + chain.len() >= min_len {
            is_head[id.index()] = true;
            chain.iter().for_each(|m| absorbed[m.index()] = true);
            stats.chains_fused += 1;
            stats.muxes_absorbed += chain.len();
        }
    }
    rebuild(graph, &live, &mut |new, id, ops, map| {
        let node = graph.node(id);
        if absorbed[id.index()] {
            return DROPPED;
        }
        if !is_head[id.index()] {
            return new.add_op(node.op, &node.params, ops, node.width, node.signed);
        }
        // (cond, val) of every mux of the chain, then the last one's
        // false arm as the default.
        let mut operands = ops[..2].to_vec();
        let mut default = below(id);
        while absorbed[default.index()] {
            let mux = graph.node(default);
            operands.extend(mux.operands[..2].iter().map(|o| map[o.index()]));
            default = below(default);
        }
        operands.push(map[default.index()]);
        new.add_op(DfgOp::MuxChain, &[], &operands, node.width, node.signed)
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
        g.add_op(DfgOp::Neg, &[], &[a], 9, true);
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

    /// A mux ladder over `c0.. : UInt<1>` and `v0.. : UInt<8>` ending in
    /// `d`, one link per entry of `links`, outermost first: 0 a plain mux;
    /// 1 the ladder below it named; 2 named and read by a second output;
    /// 3 a mux over 9-bit arms cut back to 8 bits, which truncation
    /// fusion turns into a mux narrower than its arms. A chain stops at a
    /// shared link and at a truncating one.
    fn ladder(links: &[u8]) -> String {
        let mut src = String::from("circuit L :\n  module L :\n    input d : UInt<8>\n");
        for k in 0..links.len() {
            src += &format!("    input c{k} : UInt<1>\n    input v{k} : UInt<8>\n");
        }
        src += "    output out : UInt<8>\n";
        let shared = links.iter().filter(|&&link| link == 2);
        for k in 0..shared.count() {
            src += &format!("    output aux{k} : UInt<8>\n");
        }
        let (mut below, mut aux) = (String::from("d"), 0);
        for (k, link) in links.iter().enumerate().rev() {
            below = match link {
                3 => format!("tail(mux(c{k}, add(v{k}, d), pad({below}, 9)), 1)"),
                _ => format!("mux(c{k}, v{k}, {below})"),
            };
            if matches!(link, 1 | 2) {
                src += &format!("    node l{k} = {below}\n");
                below = format!("l{k}");
            }
            if *link == 2 {
                src += &format!("    aux{aux} <= l{k}\n");
                aux += 1;
            }
        }
        src + &format!("    out <= {below}\n")
    }

    proptest::proptest! {
        /// On ladders of every mix of links the passes keep behaviour, and
        /// a second run finds nothing left to remove.
        #[test]
        fn optimize_is_equivalent_and_idempotent_on_mux_ladders(
            links in proptest::prop::collection::vec(0u8..4, 1..12),
            seed in proptest::any::<u64>(),
        ) {
            let g = graph_of(&ladder(&links));
            let (once, stats) = optimize(&g, &PassOptions::default());
            assert_equivalent(&g, &once, 64, seed);
            let (twice, again) = optimize(&once, &PassOptions::default());
            proptest::prop_assert_eq!(twice.len(), once.len());
            proptest::prop_assert_eq!(again.chains_fused + again.truncs_fused, 0);
            assert_equivalent(&g, &twice, 64, seed);
            // An unbroken ladder of three plain links and up is one chain.
            if links.len() >= 3 && links.iter().all(|&link| link == 0) {
                proptest::prop_assert_eq!(
                    (stats.chains_fused, stats.muxes_absorbed),
                    (1, links.len() - 1)
                );
            }
        }
    }
}
