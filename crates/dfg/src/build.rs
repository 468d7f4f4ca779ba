//! Dataflow-graph construction from a flattened FIRRTL module.
//!
//! This is the "Dataflow Graph Construction" stage of the RTeAAL Sim
//! compiler (paper Figure 14). FIRRTL's polymorphic primitive ops are
//! monomorphized into the [`DfgOp`] set; connect sites insert
//! [`DfgOp::Resize`] nodes only where widths actually narrow (the
//! canonical value form makes widening free).
//!
//! ## Id tables
//!
//! The flat module names every signal by a dense [`SignalId`] and every
//! expression by a [`TermId`] into one arena, so what a signal stands for
//! while the graph is built is a `Vec` indexed by signal id, not a map
//! from names. An expression is built by a depth-first walk over its
//! terms with an explicit stack — operands left to right, a binding built
//! where it is first read, a binding read while it is being built a
//! combinational cycle — which makes the nodes in exactly the order the
//! recursive walk it replaced made them, at any depth of named nodes. A
//! name is copied out of the flat module once, into the `Arc<str>` the
//! graph and its rebuilds share.

use crate::error::{DfgError, Result};
use crate::graph::{Graph, NodeId, RegDef};
use crate::op::DfgOp;
use rteaal_firrtl::lower::FlatModule;
use rteaal_firrtl::ops::PrimOp;
use rteaal_firrtl::term::{SignalId, Term, TermId};
use rteaal_firrtl::ty::Type;
use std::sync::Arc;

/// Builds the dataflow graph of a flat module.
///
/// # Errors
///
/// Returns [`DfgError::CombCycle`] if combinational logic forms a cycle,
/// whether or not an output or a register reads it, and
/// [`DfgError::Undefined`] / [`DfgError::Type`] for malformed inputs
/// (which `lower_typed` should have rejected already).
pub fn build(flat: &FlatModule) -> Result<Graph> {
    let mut b = Builder {
        graph: Graph::new(flat.name.clone()),
        flat,
        bindings: vec![Binding::Unbound; flat.types.len()],
        walk: Vec::new(),
        values: Vec::new(),
    };
    for &(id, value) in flat.nodes.iter().chain(&flat.outputs) {
        b.bindings[id.index()] = Binding::Defined { value, wire: false };
    }
    for &(id, value) in &flat.wires {
        b.bindings[id.index()] = Binding::Defined { value, wire: true };
    }
    // Seed sources: inputs and register state nodes.
    for &input in &flat.inputs {
        let ty = flat.types[input.index()];
        let name = b.name(input);
        let id = b
            .graph
            .add_source(DfgOp::Input, ty.width(), ty.is_signed(), name);
        b.graph.inputs.push(id);
        b.bindings[input.index()] = Binding::Built(id);
    }
    for reg in &flat.regs {
        let ty = flat.types[reg.id.index()];
        let name = b.name(reg.id);
        let id = b
            .graph
            .add_source(DfgOp::RegState, ty.width(), ty.is_signed(), name.clone());
        b.bindings[reg.id.index()] = Binding::Built(id);
        // `next` is patched below once expressions are built.
        b.graph.regs.push(RegDef {
            state: id,
            next: id,
            init: reg.init,
            name,
        });
    }
    // Register next-state expressions, coerced to the register type.
    for (idx, reg) in flat.regs.iter().enumerate() {
        let next = b.build_term(reg.next)?;
        let ty = flat.types[reg.id.index()];
        let next = b.coerce(next, ty.width(), ty.is_signed());
        b.graph.regs[idx].next = next;
    }
    // Outputs, coerced to the port type.
    for &(output, term) in &flat.outputs {
        let id = b.build_term(term)?;
        let ty = flat.types[output.index()];
        let id = b.coerce(id, ty.width(), ty.is_signed());
        let name = b.name(output);
        if b.graph.node(id).name.is_none() {
            b.graph.set_name(id, name.clone());
        }
        b.graph.outputs.push((name, id));
    }
    // Give named combinational bindings their names (for waveforms / XMR),
    // but only when the binding actually materialized a node.
    for &(binding, _) in flat.nodes.iter().chain(&flat.wires) {
        if let Binding::Built(id) = b.bindings[binding.index()] {
            if b.graph.node(id).name.is_none() {
                let name = b.name(binding);
                b.graph.set_name(id, name);
            }
        }
    }
    // A cycle nothing reads is a cycle all the same.
    for &(binding, _) in flat.nodes.iter().chain(&flat.wires) {
        if let Binding::Defined { value, wire } = b.bindings[binding.index()] {
            b.enter(binding, value, wire);
            b.run(false)?;
            b.values.pop();
        }
    }
    Ok(b.graph)
}

/// What a signal of the flat module stands for while the graph is built.
#[derive(Clone, Copy)]
enum Binding {
    /// A clock: nothing an expression can read.
    Unbound,
    /// A node, wire or output whose expression is not built yet; a wire
    /// has its declared type whatever the width and sign of its driver.
    Defined { value: TermId, wire: bool },
    /// Its expression is being built: a reference to it now is a cycle.
    Building,
    /// An input, a register, or a binding whose expression is built.
    Built(NodeId),
}

/// One step of the walk that builds an expression.
#[derive(Clone, Copy)]
enum Step {
    /// Build the term, whose first `.1` operands are built.
    Term(TermId, u8),
    /// The signal's expression is built: bind it to the last value — a
    /// wire to that value at its declared type.
    Bind(SignalId, bool),
}

struct Builder<'f> {
    graph: Graph,
    flat: &'f FlatModule,
    /// Every signal of the flat module, by id.
    bindings: Vec<Binding>,
    /// The walk's pending steps, innermost last.
    walk: Vec<Step>,
    /// The nodes of the operands built so far, innermost last.
    values: Vec<NodeId>,
}

impl Builder<'_> {
    fn name(&self, id: SignalId) -> Arc<str> {
        Arc::from(self.flat.names.get(id))
    }

    /// Builds `root`: every term under it, operands left to right, and
    /// every binding it reads that is not built yet, where it reads it.
    fn build_term(&mut self, root: TermId) -> Result<NodeId> {
        self.walk.push(Step::Term(root, 0));
        self.run(true)?;
        Ok(self.values.pop().expect("the root's value"))
    }

    /// Starts building the expression `value` of `signal`.
    fn enter(&mut self, signal: SignalId, value: TermId, wire: bool) {
        self.bindings[signal.index()] = Binding::Building;
        self.walk.push(Step::Bind(signal, wire));
        self.walk.push(Step::Term(value, 0));
    }

    /// Runs the walk until it is done. Without `make` it only follows the
    /// references, to find a cycle, and adds no node.
    fn run(&mut self, make: bool) -> Result<()> {
        let terms = &self.flat.terms;
        while let Some(step) = self.walk.pop() {
            let (id, done) = match step {
                Step::Bind(signal, wire) => {
                    let mut built = self.values.pop().expect("a bound value");
                    if make && wire {
                        built = self.declared(built, self.flat.types[signal.index()]);
                    }
                    self.values.push(built);
                    self.bindings[signal.index()] = Binding::Built(built);
                    continue;
                }
                Step::Term(id, done) => (id, done),
            };
            let term = &terms[id.index()];
            let operands = term.operands();
            if usize::from(done) < operands.len() {
                self.walk.push(Step::Term(id, done + 1));
                self.walk.push(Step::Term(operands[usize::from(done)], 0));
                continue;
            }
            let at = self.values.len() - operands.len();
            let node = match *term {
                Term::Signal(signal) => match self.bindings[signal.index()] {
                    Binding::Built(node) => node,
                    Binding::Defined { value, wire } => {
                        self.enter(signal, value, wire);
                        continue;
                    }
                    Binding::Building => return Err(self.cycle(signal)),
                    // Only a built expression may not read a clock.
                    Binding::Unbound if make => return Err(self.undefined(signal)),
                    Binding::Unbound => NodeId::default(),
                },
                _ if !make => NodeId::default(),
                Term::UIntLit { value, width } => self.graph.add_const(value, width, false),
                Term::SIntLit { value, width } => self.graph.add_const(value as u64, width, true),
                Term::Mux(_) => self.add_select(DfgOp::Mux, at),
                Term::ValidIf(_) => self.add_select(DfgOp::ValidIf, at),
                Term::Prim { op, .. } => self.add_prim(op, at, term.params())?,
            };
            self.values.truncate(at);
            self.values.push(node);
        }
        Ok(())
    }

    fn cycle(&self, signal: SignalId) -> DfgError {
        DfgError::CombCycle(self.flat.names.get(signal).to_string())
    }

    fn undefined(&self, signal: SignalId) -> DfgError {
        DfgError::Undefined(self.flat.names.get(signal).to_string())
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
        self.graph.add_op(DfgOp::Resize, &[], &[id], width, signed)
    }

    /// `id` at the declared type `ty` of the wire it drives: a driver of
    /// another width or sign goes through a resize — a widening one copies
    /// the value, but what reads the wire is typed by its declared width.
    fn declared(&mut self, id: NodeId, ty: Type) -> NodeId {
        let node = self.graph.node(id);
        if node.width == ty.width() && node.signed == ty.is_signed() {
            return id;
        }
        let (width, signed) = (ty.width(), ty.is_signed());
        self.graph.add_op(DfgOp::Resize, &[], &[id], width, signed)
    }

    /// A `Mux` or `ValidIf` over a condition and one or two values — the
    /// operands from `values[at]` on: signed like the first value, as wide
    /// as the widest.
    fn add_select(&mut self, op: DfgOp, at: usize) -> NodeId {
        let operands = &self.values[at..];
        let values = operands[1..].iter().map(|&v| self.graph.node(v));
        let width = values.map(|v| v.width).max().expect("a value");
        let signed = self.graph.node(operands[1]).signed;
        self.graph.add_op(op, &[], operands, width, signed)
    }

    /// A primitive op over the operands from `values[at]` on.
    fn add_prim(&mut self, op: PrimOp, at: usize, params: &[u64]) -> Result<NodeId> {
        let args = &self.values[at..];
        let mut arg_tys = [Type::Clock; 2];
        for (ty, &id) in arg_tys.iter_mut().zip(args) {
            *ty = self.ty_of(id);
        }
        let arg_tys = &arg_tys[..args.len()];
        let result = op
            .result_type(arg_tys, params)
            .map_err(|e| DfgError::Type(e.to_string()))?;
        let (dfg_op, dfg_params) = monomorphize(op, arg_tys, params);
        Ok(self.graph.add_op(
            dfg_op,
            &dfg_params,
            args,
            result.width(),
            result.is_signed(),
        ))
    }
}

/// Maps a FIRRTL primitive op (plus operand types) to a concrete
/// [`DfgOp`] and its static parameters.
fn monomorphize(op: PrimOp, arg_tys: &[Type], params: &[u64]) -> (DfgOp, ShortParams) {
    let signed = arg_tys[0].is_signed();
    let w0 = arg_tys[0].width() as u64;
    let none = ShortParams::default();
    match op {
        PrimOp::Add => (DfgOp::Add, none),
        PrimOp::Sub => (DfgOp::Sub, none),
        PrimOp::Mul => (DfgOp::Mul, none),
        PrimOp::Div => (if signed { DfgOp::Divs } else { DfgOp::Divu }, none),
        PrimOp::Rem => (if signed { DfgOp::Rems } else { DfgOp::Remu }, none),
        PrimOp::Lt => (if signed { DfgOp::Lts } else { DfgOp::Ltu }, none),
        PrimOp::Leq => (if signed { DfgOp::Les } else { DfgOp::Leu }, none),
        PrimOp::Gt => (if signed { DfgOp::Gts } else { DfgOp::Gtu }, none),
        PrimOp::Geq => (if signed { DfgOp::Ges } else { DfgOp::Geu }, none),
        PrimOp::Eq => (DfgOp::Eq, none),
        PrimOp::Neq => (DfgOp::Neq, none),
        PrimOp::Pad | PrimOp::AsUInt | PrimOp::AsSInt | PrimOp::Cvt | PrimOp::Tail => {
            (DfgOp::Resize, none)
        }
        // FIRRTL allows any static amount; past the widest signal they
        // all shift everything out, and the verifier bounds parameters.
        PrimOp::Shl => (DfgOp::Shl, ShortParams::from(&[params[0].min(64)][..])),
        PrimOp::Shr => (DfgOp::Shr, ShortParams::from(&[params[0].min(64)][..])),
        PrimOp::Dshl => (DfgOp::Dshl, none),
        PrimOp::Dshr => (DfgOp::Dshr, none),
        PrimOp::Neg => (DfgOp::Neg, none),
        PrimOp::Not => (DfgOp::Not, none),
        PrimOp::And => (DfgOp::And, none),
        PrimOp::Or => (DfgOp::Or, none),
        PrimOp::Xor => (DfgOp::Xor, none),
        PrimOp::Andr => (DfgOp::Andr, ShortParams::from(&[w0][..])),
        PrimOp::Orr => (DfgOp::Orr, none),
        PrimOp::Xorr => (DfgOp::Xorr, ShortParams::from(&[w0][..])),
        PrimOp::Cat => (
            DfgOp::Cat,
            ShortParams::from(&[w0, arg_tys[1].width() as u64][..]),
        ),
        PrimOp::Bits => (DfgOp::Bits, ShortParams::from(params)),
        PrimOp::Head => (DfgOp::Head, ShortParams::from(&[params[0], w0][..])),
    }
}

type ShortParams = crate::graph::ShortList<u64, 2>;

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

    fn build_err(src: &str) -> DfgError {
        build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap_err()
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
        assert_eq!(build_err(src), DfgError::CombCycle("w1".into()));
    }

    #[test]
    fn a_cycle_nothing_reads_is_rejected_too() {
        let src = "\
circuit C :
  module C :
    input a : UInt<4>
    output out : UInt<4>
    wire w1 : UInt<4>
    wire w2 : UInt<4>
    node n = not(w2)
    w1 <= and(n, a)
    w2 <= w1
    out <= a
";
        assert_eq!(build_err(src), DfgError::CombCycle("n".into()));
    }

    /// The outputs of `src` after each cycle of `stimulus` (one value per
    /// input), read from the interpreter over the built graph and from the
    /// plan of the optimized one, which must agree.
    fn run(src: &str, stimulus: &[&[u64]]) -> Vec<Vec<u64>> {
        let raw = graph_of(src);
        let (opt, _) = crate::passes::optimize(&raw, &crate::passes::PassOptions::default());
        let p = crate::plan::plan(&opt);
        assert!(crate::analyze::analyze_plan(&p).is_clean());
        let mut golden = crate::interp::Interpreter::new(&raw);
        let mut sim = crate::plan::PlanSim::new(&p);
        let mut seen = Vec::new();
        for inputs in stimulus {
            for (k, &v) in inputs.iter().enumerate() {
                golden.set_input(k, v);
                sim.set_input(k, v);
            }
            golden.step();
            sim.step();
            let outputs: Vec<u64> = (0..raw.outputs.len()).map(|k| golden.output(k)).collect();
            let planned: Vec<u64> = (0..raw.outputs.len()).map(|k| sim.output(k)).collect();
            assert_eq!(outputs, planned);
            seen.push(outputs);
        }
        seen
    }

    #[test]
    fn a_wire_driven_narrower_reads_at_its_declared_width() {
        // FIRRTL: `w` is 8 bits, so `cat` puts the 1 above bit 7.
        let src = "\
circuit W :
  module W :
    input a : UInt<2>
    output o : UInt<9>
    wire w : UInt<8>
    w <= a
    o <= cat(UInt<1>(1), w)
";
        assert_eq!(run(src, &[&[3]]), [[259]]);
    }

    #[test]
    fn a_wire_driven_narrower_has_its_declared_bits() {
        let src = "\
circuit W :
  module W :
    input a : UInt<6>
    output o : UInt<4>
    wire w : UInt<8>
    w <= a
    o <= bits(w, 7, 4)
";
        assert_eq!(run(src, &[&[0b11_0101]]), [[0b0011]]);
    }

    #[test]
    fn a_memory_address_driven_narrower_reads_its_cell() {
        let src = "\
circuit R :
  module R :
    input clock : Clock
    input a : UInt<2>
    input d : UInt<8>
    input we : UInt<1>
    output o : UInt<8>
    mem m : UInt<8>[16]
    m.raddr <= a
    m.waddr <= a
    m.wdata <= d
    m.wen <= we
    o <= m.rdata
";
        // Written in the first cycle, read in the second; cell 2 is empty.
        let seen = run(src, &[&[3, 0x5a, 1], &[3, 0, 0], &[2, 0, 0]]);
        assert_eq!(seen, [[0], [0x5a], [0]]);
    }

    #[test]
    fn an_instance_input_driven_narrower_has_its_declared_bits() {
        let src = "\
circuit T :
  module S :
    input x : UInt<8>
    output y : UInt<4>
    y <= bits(x, 7, 4)
  module T :
    input a : UInt<6>
    output o : UInt<4>
    inst s of S
    s.x <= a
    o <= s.y
";
        assert_eq!(run(src, &[&[0b11_0101]]), [[0b0011]]);
    }

    #[test]
    fn a_wire_driven_wider_keeps_its_declared_bits() {
        let src = "\
circuit W :
  module W :
    input a : UInt<8>
    output o : UInt<8>
    wire w : UInt<4>
    w <= a
    o <= w
";
        assert_eq!(run(src, &[&[0xab]]), [[0xb]]);
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
        assert_eq!(*node.params, [4, 3]);
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
            assert_eq!(*node.params, [64], "{op}");
        }
        let p = crate::plan::plan(&g);
        assert!(crate::analyze::analyze_plan(&p).is_clean());
        let mut sim = crate::plan::PlanSim::new(&p);
        sim.set_input(0, -3i64 as u64);
        sim.step();
        assert_eq!((sim.output(0), sim.output(1) as i64), (0, -1));
    }
}
