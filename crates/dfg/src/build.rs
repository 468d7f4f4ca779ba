//! Dataflow-graph construction from a flattened FIRRTL module.
//!
//! This is the "Dataflow Graph Construction" stage of the RTeAAL Sim
//! compiler (paper Figure 14). Expressions are resolved recursively with
//! memoization and combinational-cycle detection; FIRRTL's polymorphic
//! primitive ops are monomorphized into the [`DfgOp`] set; connect sites
//! insert [`DfgOp::Resize`] nodes only where widths actually narrow (the
//! canonical value form makes widening free).

use crate::error::{DfgError, Result};
use crate::graph::{Graph, NodeId, RegDef};
use crate::op::DfgOp;
use rteaal_firrtl::ast::Expr;
use rteaal_firrtl::lower::FlatModule;
use rteaal_firrtl::ops::PrimOp;
use rteaal_firrtl::ty::Type;
use std::collections::HashMap;

/// Builds the dataflow graph of a flat module.
///
/// # Errors
///
/// Returns [`DfgError::CombCycle`] if combinational logic forms a cycle and
/// [`DfgError::Undefined`] / [`DfgError::Type`] for malformed inputs
/// (which `lower_typed` should have rejected already).
pub fn build(flat: &FlatModule) -> Result<Graph> {
    let mut b = Builder {
        graph: Graph::new(flat.name.clone()),
        names: HashMap::with_capacity(flat.signal_count()),
    };
    for (name, _, expr) in flat.nodes.iter().chain(&flat.outputs) {
        b.names.insert(name, Binding::Defined(expr));
    }
    // Seed sources: inputs and register state nodes.
    for (name, ty) in &flat.inputs {
        let id = b
            .graph
            .add_source(DfgOp::Input, ty.width(), ty.is_signed(), name.clone());
        b.graph.inputs.push(id);
        b.names.insert(name, Binding::Built(id));
    }
    for reg in &flat.regs {
        let id = b.graph.add_source(
            DfgOp::RegState,
            reg.ty.width(),
            reg.ty.is_signed(),
            reg.name.clone(),
        );
        b.names.insert(&reg.name, Binding::Built(id));
        // `next` is patched below once expressions are built.
        b.graph.regs.push(RegDef {
            state: id,
            next: id,
            init: reg.init,
            name: reg.name.clone(),
        });
    }
    // Register next-state expressions, coerced to the register type.
    for (idx, reg) in flat.regs.iter().enumerate() {
        let next = b.build_expr(&reg.next)?;
        let next = b.coerce(next, reg.ty.width(), reg.ty.is_signed());
        b.graph.regs[idx].next = next;
    }
    // Outputs, coerced to the port type.
    for (name, ty, expr) in &flat.outputs {
        let id = b.build_expr(expr)?;
        let id = b.coerce(id, ty.width(), ty.is_signed());
        if b.graph.node(id).name.is_none() {
            b.graph.set_name(id, name.clone());
        }
        b.graph.outputs.push((name.clone(), id));
    }
    // Give named combinational bindings their names (for waveforms / XMR),
    // but only when the binding actually materialized a node.
    for (name, _, _) in &flat.nodes {
        if let Some(&Binding::Built(id)) = b.names.get(name.as_str()) {
            if b.graph.node(id).name.is_none() {
                b.graph.set_name(id, name.clone());
            }
        }
    }
    Ok(b.graph)
}

/// What a name of the flat module stands for while the graph is built.
#[derive(Clone, Copy)]
enum Binding<'a> {
    /// A node or output whose expression is not built yet.
    Defined(&'a Expr),
    /// Its expression is being built: a reference to it now is a cycle.
    Building,
    /// An input, a register, or a binding whose expression is built.
    Built(NodeId),
}

struct Builder<'a> {
    graph: Graph,
    /// Every name of the flat module, borrowed from it.
    names: HashMap<&'a str, Binding<'a>>,
}

impl<'a> Builder<'a> {
    fn resolve(&mut self, name: &str) -> Result<NodeId> {
        let binding = self
            .names
            .get_mut(name)
            .ok_or_else(|| DfgError::Undefined(name.to_string()))?;
        let expr = match std::mem::replace(binding, Binding::Building) {
            Binding::Defined(expr) => expr,
            Binding::Building => return Err(DfgError::CombCycle(name.to_string())),
            built @ Binding::Built(id) => {
                *binding = built;
                return Ok(id);
            }
        };
        let id = self.build_expr(expr)?;
        *self.names.get_mut(name).expect("looked up above") = Binding::Built(id);
        Ok(id)
    }

    fn ty_of(&self, id: NodeId) -> Type {
        let node = self.graph.node(id);
        if node.signed {
            Type::sint(node.width)
        } else {
            Type::uint(node.width)
        }
    }

    /// Inserts a resize only if the target is narrower (widening is free on
    /// the canonical form; signedness changes are also pure resizes).
    fn coerce(&mut self, id: NodeId, width: u32, signed: bool) -> NodeId {
        let node = self.graph.node(id);
        if node.signed == signed && node.width <= width {
            return id;
        }
        self.graph
            .add_op(DfgOp::Resize, vec![], vec![id], width, signed)
    }

    fn build_expr(&mut self, expr: &'a Expr) -> Result<NodeId> {
        match expr {
            Expr::Ref(name) => self.resolve(name),
            Expr::UIntLit { value, width } => Ok(self.graph.add_const(*value, *width, false)),
            Expr::SIntLit { value, width } => Ok(self.graph.add_const(*value as u64, *width, true)),
            Expr::Mux { cond, tval, fval } => {
                let c = self.build_expr(cond)?;
                let t = self.build_expr(tval)?;
                let f = self.build_expr(fval)?;
                Ok(self.add_select(DfgOp::Mux, &[c, t, f]))
            }
            Expr::ValidIf { cond, value } => {
                let c = self.build_expr(cond)?;
                let v = self.build_expr(value)?;
                Ok(self.add_select(DfgOp::ValidIf, &[c, v]))
            }
            Expr::Prim { op, args, params } => {
                let mut arg_ids = Vec::with_capacity(args.len());
                for a in args {
                    arg_ids.push(self.build_expr(a)?);
                }
                self.add_prim(*op, arg_ids, params)
            }
        }
    }

    /// A `Mux` or `ValidIf` over a condition and one or two values: signed
    /// like the first value, as wide as the widest.
    fn add_select(&mut self, op: DfgOp, operands: &[NodeId]) -> NodeId {
        let values = operands[1..].iter().map(|&v| self.graph.node(v));
        let width = values.map(|v| v.width).max().expect("a value");
        let signed = self.graph.node(operands[1]).signed;
        self.graph
            .add_op(op, vec![], operands.to_vec(), width, signed)
    }

    fn add_prim(&mut self, op: PrimOp, arg_ids: Vec<NodeId>, params: &[u64]) -> Result<NodeId> {
        let arg_tys: Vec<Type> = arg_ids.iter().map(|&id| self.ty_of(id)).collect();
        let result = op
            .result_type(&arg_tys, params)
            .map_err(|e| DfgError::Type(e.to_string()))?;
        let (dfg_op, dfg_params) = monomorphize(op, &arg_tys, params);
        Ok(self.graph.add_op(
            dfg_op,
            dfg_params,
            arg_ids,
            result.width(),
            result.is_signed(),
        ))
    }
}

/// Maps a FIRRTL primitive op (plus operand types) to a concrete
/// [`DfgOp`] and its static parameters.
fn monomorphize(op: PrimOp, arg_tys: &[Type], params: &[u64]) -> (DfgOp, Vec<u64>) {
    let signed = arg_tys[0].is_signed();
    let w0 = arg_tys[0].width() as u64;
    match op {
        PrimOp::Add => (DfgOp::Add, vec![]),
        PrimOp::Sub => (DfgOp::Sub, vec![]),
        PrimOp::Mul => (DfgOp::Mul, vec![]),
        PrimOp::Div => (if signed { DfgOp::Divs } else { DfgOp::Divu }, vec![]),
        PrimOp::Rem => (if signed { DfgOp::Rems } else { DfgOp::Remu }, vec![]),
        PrimOp::Lt => (if signed { DfgOp::Lts } else { DfgOp::Ltu }, vec![]),
        PrimOp::Leq => (if signed { DfgOp::Les } else { DfgOp::Leu }, vec![]),
        PrimOp::Gt => (if signed { DfgOp::Gts } else { DfgOp::Gtu }, vec![]),
        PrimOp::Geq => (if signed { DfgOp::Ges } else { DfgOp::Geu }, vec![]),
        PrimOp::Eq => (DfgOp::Eq, vec![]),
        PrimOp::Neq => (DfgOp::Neq, vec![]),
        PrimOp::Pad | PrimOp::AsUInt | PrimOp::AsSInt | PrimOp::Cvt | PrimOp::Tail => {
            (DfgOp::Resize, vec![])
        }
        // FIRRTL allows any static amount; past the widest signal they
        // all shift everything out, and the verifier bounds parameters.
        PrimOp::Shl => (DfgOp::Shl, vec![params[0].min(64)]),
        PrimOp::Shr => (DfgOp::Shr, vec![params[0].min(64)]),
        PrimOp::Dshl => (DfgOp::Dshl, vec![]),
        PrimOp::Dshr => (DfgOp::Dshr, vec![]),
        PrimOp::Neg => (DfgOp::Neg, vec![]),
        PrimOp::Not => (DfgOp::Not, vec![]),
        PrimOp::And => (DfgOp::And, vec![]),
        PrimOp::Or => (DfgOp::Or, vec![]),
        PrimOp::Xor => (DfgOp::Xor, vec![]),
        PrimOp::Andr => (DfgOp::Andr, vec![w0]),
        PrimOp::Orr => (DfgOp::Orr, vec![]),
        PrimOp::Xorr => (DfgOp::Xorr, vec![w0]),
        PrimOp::Cat => (DfgOp::Cat, vec![w0, arg_tys[1].width() as u64]),
        PrimOp::Bits => (DfgOp::Bits, params.to_vec()),
        PrimOp::Head => (DfgOp::Head, vec![params[0], w0]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn graph_of(src: &str) -> Graph {
        build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn counter_graph_shape() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input clock : Clock
    output out : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, UInt<8>(1)), 1)
    out <= r
",
        );
        assert_eq!(g.regs.len(), 1);
        assert_eq!(g.outputs.len(), 1);
        // reg state, const 1, add, resize(tail) — resize at the connect is
        // not needed since tail already matches the reg width.
        let hist = g.op_histogram();
        assert_eq!(hist.get(&DfgOp::Add), Some(&1));
        assert_eq!(hist.get(&DfgOp::Resize), Some(&1));
    }

    #[test]
    fn comb_cycle_rejected() {
        // Two wires feeding each other.
        let src = "\
circuit C :
  module C :
    input a : UInt<4>
    output out : UInt<4>
    wire w1 : UInt<4>
    wire w2 : UInt<4>
    w1 <= and(w2, a)
    w2 <= or(w1, a)
    out <= w1
";
        let flat = lower_typed(&parse(src).unwrap()).unwrap_err();
        // lower_typed already refuses to type the cycle.
        let msg = flat.to_string();
        assert!(
            msg.contains("cycle") || msg.contains("could not type"),
            "{msg}"
        );
    }

    #[test]
    fn signedness_monomorphized() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input a : SInt<8>
    input b : SInt<8>
    output lt : UInt<1>
    output q : SInt<9>
    lt <= lt(a, b)
    q <= div(a, b)
",
        );
        let hist = g.op_histogram();
        assert_eq!(hist.get(&DfgOp::Lts), Some(&1));
        assert_eq!(hist.get(&DfgOp::Divs), Some(&1));
        assert_eq!(hist.get(&DfgOp::Ltu), None);
    }

    #[test]
    fn widening_connect_is_free() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input a : UInt<4>
    output out : UInt<8>
    out <= a
",
        );
        // No resize node: widening is a no-op on canonical values, so the
        // output is driven directly by the input node.
        assert_eq!(g.outputs[0].1, g.inputs[0]);
    }

    #[test]
    fn narrowing_connect_inserts_resize() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input clock : Clock
    input a : UInt<8>
    output out : UInt<8>
    reg r : UInt<4>, clock
    r <= a
    out <= r
",
        );
        let hist = g.op_histogram();
        assert_eq!(hist.get(&DfgOp::Resize), Some(&1));
    }

    #[test]
    fn shared_subexpressions_hash_consed() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    output x : UInt<9>
    output y : UInt<9>
    x <= add(a, b)
    y <= add(a, b)
",
        );
        assert_eq!(g.outputs[0].1, g.outputs[1].1);
        assert_eq!(g.effectual_ops(), 1);
    }

    #[test]
    fn cat_params_capture_operand_widths() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input a : UInt<4>
    input b : UInt<3>
    output out : UInt<7>
    out <= cat(a, b)
",
        );
        let (_, node) = g.iter().find(|(_, n)| n.op == DfgOp::Cat).unwrap();
        assert_eq!(node.params, vec![4, 3]);
    }

    #[test]
    fn static_shifts_past_the_widest_signal_are_clamped() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input a : SInt<8>
    output l : SInt<64>
    output r : SInt<1>
    l <= shl(a, 70)
    r <= shr(a, 100)
",
        );
        for op in [DfgOp::Shl, DfgOp::Shr] {
            let (_, node) = g.iter().find(|(_, n)| n.op == op).unwrap();
            assert_eq!(node.params, vec![64], "{op}");
        }
        let p = crate::plan::plan(&g);
        assert!(crate::analyze::analyze_plan(&p).is_clean());
        let mut sim = crate::plan::PlanSim::new(&p);
        sim.set_input(0, -3i64 as u64);
        sim.step();
        assert_eq!((sim.output(0), sim.output(1) as i64), (0, -1));
    }
}
