//! Executable golden model of the RTeAAL Sim cascade (paper Cascade 1).
//!
//! [`CascadeSim`] builds the `OIM` as a genuine 5-rank fibertree
//! (`I → S → N → O → R`) and simulates a cycle by *traversing fibers*,
//! exactly following the cascade:
//!
//! 1. `OI = LI_r · OIM_{n,o,r,s} :: ∧←(→)` — the map action selects
//!    operands from `LI` at the coordinates where `OIM` is non-empty.
//! 2. `LO_{n,s} = OI :: ∧op_u[n](←) ∨op_r[n](→)` — unary map compute,
//!    ordered reduce over the `O` rank.
//! 3. `LO_sel = OI :: ∧1(←) ≪1(op_s[n])` — select ops collect their whole
//!    `O` fiber and the populate coordinate operator picks.
//! 4. `LI_{i+1,s} = LO / LO_sel :: ∨ANY(→)` — layer outputs write back
//!    into `LI` (identity-elided: every signal keeps one slot).
//!
//! This is intentionally a *different implementation* of the same
//! semantics as the `rteaal-kernels` executors: the differential tests
//! between them are the main correctness argument for the kernel suite.

use rteaal_dfg::op::{canonicalize, eval_raw, DfgOp, OpClass};
use rteaal_dfg::SimPlan;
use rteaal_tensor::fibertree::{Payload, Tensor};
use std::collections::HashMap;

/// Per-op side data for the custom operators (`op_u[n]`/`op_r[n]`/
/// `op_s[n]` carry these inside their case bodies in the paper).
#[derive(Debug, Clone, Copy)]
struct OpSide {
    params: [u64; 2],
    width: u32,
    signed: bool,
}

/// The fibertree-traversal golden model.
#[derive(Debug, Clone)]
pub struct CascadeSim {
    /// The OIM as a 5-rank fibertree `[I, S, N, O, R]`.
    oim: Tensor,
    /// Operator side table keyed by `(layer, s)`.
    side: HashMap<(usize, usize), OpSide>,
    /// The `LI` tensor: slot -> value (empty = 0).
    li: Vec<u64>,
    input_slots: Vec<u32>,
    input_types: Vec<(u8, bool)>,
    output_slots: Vec<(String, u32)>,
    commits: Vec<(u32, u32)>,
    cycle: u64,
}

/// Builds the `OIM` fibertree of a plan (the tests read it for the
/// Figure 13 example).
fn oim_fibertree(plan: &SimPlan) -> Tensor {
    let mut t = Tensor::new(
        "OIM",
        ["I", "S", "N", "O", "R"],
        &[
            plan.layers.len().max(1),
            plan.num_slots,
            rteaal_dfg::op::NUM_OPCODES,
            1,
            plan.num_slots,
        ],
    );
    for (i, layer) in plan.layers.iter().enumerate() {
        for op in layer {
            for (o, &r) in op.ins.iter().enumerate() {
                t.set(&[i, op.out as usize, op.n as usize, o, r as usize], 1);
            }
            if op.ins.is_empty() {
                // Zero-operand ops cannot occur in layers (consts are
                // materialized); keep the invariant visible.
                unreachable!("layer op without operands");
            }
        }
    }
    t
}

impl CascadeSim {
    /// Builds the golden model for a plan.
    pub fn new(plan: &SimPlan) -> Self {
        let mut side = HashMap::new();
        for (i, layer) in plan.layers.iter().enumerate() {
            for op in layer {
                let mut params = [0u64; 2];
                for (k, &p) in op.params.iter().take(2).enumerate() {
                    params[k] = p;
                }
                side.insert(
                    (i, op.out as usize),
                    OpSide {
                        params,
                        width: op.width as u32,
                        signed: op.signed,
                    },
                );
            }
        }
        CascadeSim {
            oim: oim_fibertree(plan),
            side,
            li: plan.init_values.clone(),
            input_slots: plan.input_slots.clone(),
            input_types: plan.input_types.clone(),
            output_slots: plan.output_slots.clone(),
            commits: plan.commits.clone(),
            cycle: 0,
        }
    }

    /// Drives input port `idx` (canonicalized to the port type).
    pub fn set_input(&mut self, idx: usize, value: u64) {
        let (w, signed) = self.input_types[idx];
        self.li[self.input_slots[idx] as usize] = canonicalize(value, w as u32, signed);
    }

    /// One clock cycle via cascade traversal.
    pub fn step(&mut self) {
        let num_layers = self.oim.root().shape();
        for i in 0..num_layers {
            let Some(s_fiber) = self.oim.root().fiber_at(i) else {
                continue;
            };
            // Collect LO for this layer, then populate LI (the slots are
            // unique, so in-place writes after collection are equivalent
            // to the LI_{i+1} Einsum).
            let mut lo: Vec<(usize, u64)> = Vec::with_capacity(s_fiber.occupancy());
            for (s, n_payload) in s_fiber.iter() {
                let n_fiber = match n_payload {
                    Payload::Fiber(f) => f,
                    Payload::Value(_) => unreachable!("N rank is not a leaf"),
                };
                // N fibers are one-hot: each operation has a single type.
                debug_assert_eq!(n_fiber.occupancy(), 1);
                let (n, o_payload) = n_fiber.iter().next().expect("one-hot N fiber");
                let o_fiber = o_payload.fiber().expect("O rank is not a leaf");
                let op = DfgOp::from_n_coord(n as u16).expect("valid opcode");
                let side = self.side[&(i, s)];

                // Einsum 10 (map ∧←(→)): gather OI values in O order.
                let mut oi: Vec<u64> = Vec::with_capacity(o_fiber.occupancy());
                for (_o, r_payload) in o_fiber.iter() {
                    let r_fiber = r_payload.fiber().expect("R rank holds mask leaves");
                    debug_assert_eq!(r_fiber.occupancy(), 1, "R fibers are one-hot");
                    let (r, _mask) = r_fiber.iter_values().next().expect("one-hot R fiber");
                    oi.push(self.li[r]);
                }

                let value = match op.class() {
                    // Einsum 12: ∧op_u[n](←) ∨op_r[n](→).
                    OpClass::Unary => {
                        debug_assert_eq!(oi.len(), 1);
                        eval_raw(op, &side.params[..op_param_count(op)], &oi)
                    }
                    OpClass::Reducible => {
                        // Ordered pairwise reduction over the O rank. All
                        // our reducible ops are binary, so this is a
                        // single op_r application; the fold form keeps the
                        // cascade shape visible.
                        let mut acc = oi[0];
                        for &v in &oi[1..] {
                            acc = eval_raw(op, &side.params[..op_param_count(op)], &[acc, v]);
                        }
                        acc
                    }
                    // Einsum 13: ≪1(op_s[n]) — collect all inputs, then
                    // select.
                    OpClass::Select => eval_raw(op, &[], &oi),
                    OpClass::Source => unreachable!("sources never appear in layers"),
                };
                lo.push((s, canonicalize(value, side.width, side.signed)));
            }
            // Einsum LI_{i+1}: populate the layer outputs back into LI.
            for (s, v) in lo {
                self.li[s] = v;
            }
        }
        // Register writeback (two-phase).
        let staged: Vec<u64> = self
            .commits
            .iter()
            .map(|&(_, src)| self.li[src as usize])
            .collect();
        for (&(dst, _), v) in self.commits.iter().zip(staged) {
            self.li[dst as usize] = v;
        }
        self.cycle += 1;
    }

    /// Output value by port index.
    pub fn output(&self, idx: usize) -> u64 {
        self.li[self.output_slots[idx].1 as usize]
    }

    /// Output value by name.
    pub fn output_by_name(&self, name: &str) -> Option<u64> {
        self.output_slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| self.li[*s as usize])
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The OIM fibertree (for inspection).
    pub fn oim(&self) -> &Tensor {
        &self.oim
    }
}

fn op_param_count(op: DfgOp) -> usize {
    use DfgOp::*;
    match op {
        Cat | Bits | Head => 2,
        Andr | Xorr | Shl | Shr => 1,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rteaal_dfg::interp::Interpreter;
    use rteaal_dfg::passes::{optimize, PassOptions};
    use rteaal_dfg::plan::plan;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn plan_of(src: &str) -> (rteaal_dfg::Graph, SimPlan) {
        let g = rteaal_dfg::build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap();
        let p = plan(&g);
        (g, p)
    }

    #[test]
    fn oim_fibertree_is_one_hot_in_n_and_r() {
        let (_, p) = plan_of(
            "\
circuit T :
  module T :
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<8>
    o <= tail(add(a, b), 1)
",
        );
        let oim = oim_fibertree(&p);
        assert_eq!(oim.rank_names(), ["I", "S", "N", "O", "R"]);
        // Walk: every N fiber and every R fiber has occupancy 1.
        let i_fiber = oim.root();
        for (_, sp) in i_fiber.iter() {
            for (_, np) in sp.fiber().unwrap().iter() {
                let nf = np.fiber().unwrap();
                assert_eq!(nf.occupancy(), 1);
                for (_, op) in nf.iter() {
                    for (_, rp) in op.fiber().unwrap().iter() {
                        assert_eq!(rp.fiber().unwrap().occupancy(), 1);
                    }
                }
            }
        }
    }

    fn assert_cascade_matches_interpreter(src: &str, cycles: u64, seed: u64) {
        let (g, p) = plan_of(src);
        let mut golden = Interpreter::new(&g);
        let mut cascade = CascadeSim::new(&p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..cycles {
            for i in 0..g.inputs.len() {
                let v: u64 = rng.gen();
                golden.set_input(i, v);
                cascade.set_input(i, v);
            }
            golden.step();
            cascade.step();
            for i in 0..g.outputs.len() {
                assert_eq!(golden.output(i), cascade.output(i), "output {i} diverged");
            }
        }
    }

    #[test]
    fn cascade_matches_interpreter_on_counter() {
        assert_cascade_matches_interpreter(
            "\
circuit C :
  module C :
    input clock : Clock
    input reset : UInt<1>
    output out : UInt<8>
    regreset r : UInt<8>, clock, reset, UInt<8>(0)
    r <= tail(add(r, UInt<8>(1)), 1)
    out <= r
",
            64,
            1,
        );
    }

    #[test]
    fn cascade_matches_interpreter_on_mixed_ops() {
        assert_cascade_matches_interpreter(
            "\
circuit M :
  module M :
    input clock : Clock
    input x : UInt<16>
    input y : SInt<8>
    input sel : UInt<1>
    output out : UInt<16>
    output so : SInt<8>
    reg acc : UInt<16>, clock
    node lhs = tail(add(acc, x), 1)
    node rhs = xor(acc, cat(bits(x, 7, 0), bits(x, 15, 8)))
    acc <= mux(sel, lhs, rhs)
    so <= asSInt(tail(sub(SInt<8>(0), y), 1))
    out <= acc
",
            128,
            2,
        );
    }

    #[test]
    fn cascade_matches_after_mux_chain_fusion() {
        let src = "\
circuit F :
  module F :
    input clock : Clock
    input c0 : UInt<1>
    input c1 : UInt<1>
    input c2 : UInt<1>
    input x : UInt<8>
    output out : UInt<8>
    reg r : UInt<8>, clock
    r <= mux(c0, x, mux(c1, not(x), mux(c2, tail(add(r, x), 1), r)))
    out <= r
";
        let g = rteaal_dfg::build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap();
        let (opt, stats) = optimize(&g, &PassOptions::default());
        assert!(stats.chains_fused >= 1);
        let p = plan(&opt);
        let mut golden = Interpreter::new(&g);
        let mut cascade = CascadeSim::new(&p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..200 {
            for i in 0..g.inputs.len() {
                let v: u64 = rng.gen();
                golden.set_input(i, v);
                cascade.set_input(i, v);
            }
            golden.step();
            cascade.step();
            assert_eq!(golden.output(0), cascade.output(0));
        }
    }

    #[test]
    fn cascade_matches_on_memory_design() {
        assert_cascade_matches_interpreter(
            "\
circuit Mem :
  module Mem :
    input clock : Clock
    input ra : UInt<3>
    input wa : UInt<3>
    input wd : UInt<8>
    input we : UInt<1>
    output rd : UInt<8>
    mem m : UInt<8>[8]
    m.raddr <= ra
    m.waddr <= wa
    m.wdata <= wd
    m.wen <= we
    rd <= m.rdata
",
            200,
            4,
        );
    }
}
