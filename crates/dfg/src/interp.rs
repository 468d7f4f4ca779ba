//! Reference cycle-level interpreter over the dataflow graph.
//!
//! This is the workspace's *ground truth*: it evaluates the graph directly
//! in topological order with a two-phase register commit (compute all next
//! states, then commit — exactly the `reg_next` discipline of paper
//! Figure 1). Every kernel, the Einsum golden model, and both baseline
//! simulators are differentially tested against it.

use crate::graph::{Graph, NodeId};
use crate::op::{canonicalize, eval_raw, DfgOp, OpClass};

/// A cycle-level simulator over a borrowed [`Graph`].
///
/// # Examples
///
/// ```
/// use rteaal_dfg::{build, interp::Interpreter};
/// use rteaal_firrtl::{parser::parse, lower::lower_typed};
///
/// let src = "\
/// circuit Acc :
///   module Acc :
///     input clock : Clock
///     input x : UInt<8>
///     output out : UInt<8>
///     reg acc : UInt<8>, clock
///     acc <= tail(add(acc, x), 1)
///     out <= acc
/// ";
/// let graph = build(&lower_typed(&parse(src)?)?)?;
/// let mut sim = Interpreter::new(&graph);
/// sim.set_input(0, 3);
/// sim.step();
/// sim.step();
/// assert_eq!(sim.output(0), 6); // out lags by a cycle: 0, 3, 6, ...
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter<'g> {
    graph: &'g Graph,
    /// Current value of every node, canonical form.
    values: Vec<u64>,
    /// Pending input values applied at the start of the next step.
    inputs: Vec<u64>,
    order: Vec<NodeId>,
    /// Scratch buffer for next-state values (two-phase commit).
    nexts: Vec<u64>,
    cycle: u64,
}

impl<'g> Interpreter<'g> {
    /// Creates an interpreter with registers at their power-on values and
    /// inputs at zero.
    pub fn new(graph: &'g Graph) -> Self {
        let mut values = vec![0u64; graph.len()];
        for reg in &graph.regs {
            let node = graph.node(reg.state);
            values[reg.state.index()] = canonicalize(reg.init, node.width, node.signed);
        }
        for (id, node) in graph.iter() {
            if node.op == DfgOp::Const {
                values[id.index()] = node.params[0];
            }
        }
        Interpreter {
            graph,
            values,
            inputs: vec![0; graph.inputs.len()],
            order: graph.topo_order(),
            nexts: vec![0; graph.regs.len()],
            cycle: 0,
        }
    }

    /// Sets the value driven onto input port `idx` (by port order) for
    /// subsequent cycles.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_input(&mut self, idx: usize, value: u64) {
        self.inputs[idx] = value;
    }

    /// Sets an input by port name. Returns `false` if no such input exists.
    pub fn set_input_by_name(&mut self, name: &str, value: u64) -> bool {
        for (idx, &id) in self.graph.inputs.iter().enumerate() {
            if self.graph.node(id).name.as_deref() == Some(name) {
                self.set_input(idx, value);
                return true;
            }
        }
        false
    }

    /// Advances the simulation by one clock cycle: applies inputs,
    /// evaluates all combinational logic, then commits register next
    /// states.
    pub fn step(&mut self) {
        for (idx, &id) in self.graph.inputs.iter().enumerate() {
            let node = self.graph.node(id);
            self.values[id.index()] = canonicalize(self.inputs[idx], node.width, node.signed);
        }
        let mut operand_buf: Vec<u64> = Vec::with_capacity(8);
        for &id in &self.order {
            let node = self.graph.node(id);
            debug_assert_ne!(node.op.class(), OpClass::Source);
            operand_buf.clear();
            operand_buf.extend(node.operands.iter().map(|o| self.values[o.index()]));
            let raw = eval_raw(node.op, &node.params, &operand_buf);
            self.values[id.index()] = canonicalize(raw, node.width, node.signed);
        }
        for (k, reg) in self.graph.regs.iter().enumerate() {
            let node = self.graph.node(reg.state);
            self.nexts[k] = canonicalize(self.values[reg.next.index()], node.width, node.signed);
        }
        for (k, reg) in self.graph.regs.iter().enumerate() {
            self.values[reg.state.index()] = self.nexts[k];
        }
        self.cycle += 1;
    }

    /// The value of output port `idx` (by port order) *as of the last
    /// evaluation* (combinational view after the most recent [`step`]).
    ///
    /// [`step`]: Interpreter::step
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn output(&self, idx: usize) -> u64 {
        let (_, id) = &self.graph.outputs[idx];
        self.values[id.index()]
    }

    /// Output value by port name.
    pub fn output_by_name(&self, name: &str) -> Option<u64> {
        self.graph
            .outputs
            .iter()
            .find(|(n, _)| **n == *name)
            .map(|(_, id)| self.values[id.index()])
    }

    /// Reads any node's current value (the XMR front door: internal signals
    /// remain addressable by hierarchical name).
    pub(crate) fn peek(&self, id: NodeId) -> u64 {
        self.values[id.index()]
    }

    /// Reads a named internal signal.
    pub fn peek_by_name(&self, name: &str) -> Option<u64> {
        self.graph.find_by_name(name).map(|id| self.peek(id))
    }

    /// Pokes a register's current state (the DMI write path).
    #[cfg(test)]
    pub(crate) fn poke_reg(&mut self, reg_idx: usize, value: u64) {
        let reg = &self.graph.regs[reg_idx];
        let node = self.graph.node(reg.state);
        self.values[reg.state.index()] = canonicalize(value, node.width, node.signed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn graph_of(src: &str) -> Graph {
        build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn counter_counts() {
        let g = graph_of(
            "\
circuit C :
  module C :
    input clock : Clock
    input reset : UInt<1>
    output out : UInt<4>
    regreset r : UInt<4>, clock, reset, UInt<4>(0)
    r <= tail(add(r, UInt<4>(1)), 1)
    out <= r
",
        );
        let mut sim = Interpreter::new(&g);
        for expect in 0..20u64 {
            assert_eq!(sim.output_by_name("out"), Some(expect % 16));
            sim.step();
        }
        // Reset pulls it back to zero.
        sim.set_input_by_name("reset", 1);
        sim.step();
        assert_eq!(sim.output_by_name("out"), Some(0));
        assert_eq!(sim.cycle, 21);
    }

    #[test]
    fn paper_figure_1_example() {
        // reg1 <= reg1 + reg2; reg2 <= (reg1+reg2) & (reg2-reg3);
        // reg3 <= reg2 - reg3  (8-bit wrapping, as in the paper's C++).
        let g = graph_of(
            "\
circuit F1 :
  module F1 :
    input clock : Clock
    output o1 : UInt<8>
    output o2 : UInt<8>
    output o3 : UInt<8>
    reg reg1 : UInt<8>, clock
    reg reg2 : UInt<8>, clock
    reg reg3 : UInt<8>, clock
    node sum = tail(add(reg1, reg2), 1)
    node diff = tail(sub(reg2, reg3), 1)
    reg1 <= sum
    reg2 <= and(sum, diff)
    reg3 <= diff
    o1 <= reg1
    o2 <= reg2
    o3 <= reg3
",
        );
        let mut sim = Interpreter::new(&g);
        // Seed registers with the paper's register inputs 1, 2, 4 and
        // cross-check against a direct software model.
        sim.poke_reg(0, 1);
        sim.poke_reg(1, 2);
        sim.poke_reg(2, 4);
        let (mut r1, mut r2, mut r3) = (1u8, 2u8, 4u8);
        for _ in 0..100 {
            sim.step();
            let sum = r1.wrapping_add(r2);
            let diff = r2.wrapping_sub(r3);
            (r1, r2, r3) = (sum, sum & diff, diff);
            assert_eq!(sim.peek_by_name("reg1"), Some(r1 as u64));
            assert_eq!(sim.peek_by_name("reg2"), Some(r2 as u64));
            assert_eq!(sim.peek_by_name("reg3"), Some(r3 as u64));
        }
    }

    #[test]
    fn two_phase_commit_reads_old_values() {
        // A swap: a <= b; b <= a must exchange, not duplicate.
        let g = graph_of(
            "\
circuit S :
  module S :
    input clock : Clock
    output oa : UInt<4>
    output ob : UInt<4>
    reg a : UInt<4>, clock
    reg b : UInt<4>, clock
    a <= b
    b <= a
    oa <= a
    ob <= b
",
        );
        let mut sim = Interpreter::new(&g);
        sim.poke_reg(0, 3);
        sim.poke_reg(1, 9);
        sim.step();
        assert_eq!(sim.output_by_name("oa"), Some(9));
        assert_eq!(sim.output_by_name("ob"), Some(3));
        sim.step();
        assert_eq!(sim.output_by_name("oa"), Some(3));
    }

    #[test]
    fn signed_datapath() {
        // `tail` yields UInt, so the SInt output needs an explicit asSInt.
        let g = graph_of(
            "\
circuit N :
  module N :
    input a : SInt<8>
    output out : SInt<8>
    out <= asSInt(tail(sub(SInt<8>(0), a), 1))
",
        );
        let mut sim = Interpreter::new(&g);
        sim.set_input(0, (-5i64) as u64);
        sim.step();
        assert_eq!(sim.output(0) as i64, 5);
        sim.set_input(0, 7);
        sim.step();
        assert_eq!(sim.output(0) as i64, -7);
    }

    #[test]
    fn memory_read_write_via_lowering() {
        let g = graph_of(
            "\
circuit M :
  module M :
    input clock : Clock
    input ra : UInt<2>
    input wa : UInt<2>
    input wd : UInt<8>
    input we : UInt<1>
    output rd : UInt<8>
    mem m : UInt<8>[4]
    m.raddr <= ra
    m.waddr <= wa
    m.wdata <= wd
    m.wen <= we
    rd <= m.rdata
",
        );
        let mut sim = Interpreter::new(&g);
        // Write 0xAB to cell 2.
        sim.set_input_by_name("wa", 2);
        sim.set_input_by_name("wd", 0xab);
        sim.set_input_by_name("we", 1);
        sim.step();
        sim.set_input_by_name("we", 0);
        sim.set_input_by_name("ra", 2);
        sim.step();
        assert_eq!(sim.output_by_name("rd"), Some(0xab));
        sim.set_input_by_name("ra", 1);
        sim.step();
        assert_eq!(sim.output_by_name("rd"), Some(0));
    }

    #[test]
    fn random_program_against_expression_oracle() {
        use rand::{Rng, SeedableRng};
        let g = graph_of(
            "\
circuit R :
  module R :
    input a : UInt<16>
    input b : UInt<16>
    output out : UInt<16>
    node s = tail(add(a, b), 1)
    node d = tail(sub(a, b), 1)
    node m = mux(gt(a, b), s, d)
    out <= xor(m, cat(bits(a, 7, 0), bits(b, 15, 8)))
",
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut sim = Interpreter::new(&g);
        for _ in 0..500 {
            let a: u64 = rng.gen_range(0..=0xffff);
            let b: u64 = rng.gen_range(0..=0xffff);
            sim.set_input(0, a);
            sim.set_input(1, b);
            sim.step();
            let s = (a + b) & 0xffff;
            let d = a.wrapping_sub(b) & 0xffff;
            let m = if a > b { s } else { d };
            let cat = ((a & 0xff) << 8) | ((b >> 8) & 0xff);
            assert_eq!(sim.output(0), m ^ cat);
        }
    }
}
