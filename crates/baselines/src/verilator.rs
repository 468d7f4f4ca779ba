//! The Verilator-like baseline simulator (paper §3, §7).
//!
//! Verilator translates the design into per-node C++ statements grouped
//! into medium-sized eval functions. The resulting binary grows with the
//! design, and the code is *branchy*: conditionals (muxes) compile to
//! data-dependent branches, which is why the paper measures a 22% branch
//! misprediction rate on Intel Xeon for 4-core RocketChip (§7.3) and
//! 80–120 L1I MPKI (§3).
//!
//! [`VerilatorLike`] reproduces that execution model: a static topological
//! schedule of per-node statements, block-structured code layout
//! (one code region per node, grouped in eval blocks), values in a flat
//! array, and *branch-per-select* execution. Compilation applies
//! block-local common-subexpression elimination (Verilator's local
//! optimization scope) at the `-O3` analog.

use rteaal_dfg::graph::{Graph, NodeId};
use rteaal_dfg::op::{canonicalize, DfgOp, OpClass};
use rteaal_kernels::config::OptLevel;
use rteaal_kernels::kernel::CompileReport;
use rteaal_kernels::profile::{MemProbe, NoProbe, Probe, CODE_BASE};
use rteaal_kernels::state::{eval_staged, Canon};
use rteaal_perfmodel::cache::MemSim;
use rteaal_perfmodel::topdown::ExecProfile;
use std::collections::HashMap;
use std::time::Instant;

/// Nodes per generated eval block (Verilator splits output into functions
/// of bounded size).
const BLOCK_NODES: usize = 64;
/// Code bytes per node statement. Branchy codegen is not compact:
/// Verilator's generated binaries run ~1.7x ESSENT's for the same design
/// (§7.5: 19 MB vs 11 MB for 8-core SmallBOOM), and the per-statement
/// ratio is higher still because ESSENT emits fewer statements.
const NODE_CODE_BYTES: u64 = 40;
/// Base of the generated eval code in the address-space model.
const VCODE_BASE: u64 = CODE_BASE + 0x400_0000;
/// Base of the values array in the data-space model.
const VDATA_BASE: u64 = 0x1800_0000;

/// One scheduled statement.
#[derive(Debug, Clone)]
struct VNode {
    op: DfgOp,
    params: Vec<u64>,
    srcs: Vec<u32>,
    dst: u32,
    canon: Canon,
    /// `canon` is the mask alone, picked at compile time. A field of its
    /// own: a test on `canon`'s shift at the use lets LLVM fold the two
    /// arms back into the shift pair and a `cmove`.
    mask_only: bool,
    code_addr: u64,
}

/// The Verilator-like baseline.
#[derive(Debug, Clone)]
pub struct VerilatorLike {
    schedule: Vec<VNode>,
    values: Vec<u64>,
    input_ids: Vec<u32>,
    input_types: Vec<(u32, bool)>,
    outputs: Vec<(String, u32)>,
    commits: Vec<(u32, u32)>,
    commit_buf: Vec<u64>,
    /// Operand staging for mux chains (sized to the widest statement).
    scratch: Vec<u64>,
    opt: OptLevel,
    report: CompileReport,
    cycle: u64,
    /// Intrinsic branch entropy: per-select data-dependent branches
    /// (the paper's 22%-on-Xeon regime).
    pub branch_entropy: f64,
}

impl VerilatorLike {
    /// "Verilates" a dataflow graph: builds the static schedule and the
    /// generated-code layout, measuring compile cost.
    pub fn compile(graph: &Graph, opt: OptLevel) -> Self {
        let t0 = Instant::now();
        let (mut sim, peak) = rteaal_perfmodel::memtrack::measure(|| {
            let order = graph.topo_order();
            let mut schedule: Vec<VNode> = Vec::with_capacity(order.len());
            let mut addr = VCODE_BASE;
            // Block-local CSE at -O3: Verilator optimizes within an eval
            // function, not across the whole program.
            let mut local_cse: HashMap<(DfgOp, Vec<u64>, Vec<u32>), u32> = HashMap::new();
            let mut alias: HashMap<NodeId, u32> = HashMap::new();
            for (pos, &id) in order.iter().enumerate() {
                if pos % BLOCK_NODES == 0 {
                    local_cse.clear();
                }
                let node = graph.node(id);
                let srcs: Vec<u32> = node
                    .operands
                    .iter()
                    .map(|o| alias.get(o).copied().unwrap_or(o.0))
                    .collect();
                if opt == OptLevel::Full {
                    let key = (node.op, node.params.to_vec(), srcs.clone());
                    if let Some(&prev) = local_cse.get(&key) {
                        alias.insert(id, prev);
                        continue;
                    }
                    local_cse.insert(key, id.0);
                }
                let canon = Canon::new(node.width, node.signed);
                schedule.push(VNode {
                    op: node.op,
                    params: node.params.to_vec(),
                    srcs,
                    dst: id.0,
                    canon,
                    mask_only: canon.is_mask_only(),
                    code_addr: addr,
                });
                addr += NODE_CODE_BYTES;
            }
            let mut values = vec![0u64; graph.len()];
            for (id, node) in graph.iter() {
                if node.op == DfgOp::Const {
                    values[id.index()] = node.params[0];
                }
            }
            for reg in &graph.regs {
                let node = graph.node(reg.state);
                values[reg.state.index()] = canonicalize(reg.init, node.width, node.signed);
            }
            let commits: Vec<(u32, u32)> = graph
                .regs
                .iter()
                .map(|r| (r.state.0, alias.get(&r.next).copied().unwrap_or(r.next.0)))
                .collect();
            let commit_len = commits.len();
            let widest = schedule.iter().map(|n| n.srcs.len()).max().unwrap_or(0);
            VerilatorLike {
                schedule,
                values,
                input_ids: graph.inputs.iter().map(|i| i.0).collect(),
                input_types: graph
                    .inputs
                    .iter()
                    .map(|&i| {
                        let n = graph.node(i);
                        (n.width, n.signed)
                    })
                    .collect(),
                outputs: graph
                    .outputs
                    .iter()
                    .map(|(n, id)| (n.to_string(), alias.get(id).copied().unwrap_or(id.0)))
                    .collect(),
                commits,
                commit_buf: vec![0; commit_len],
                scratch: vec![0; widest],
                opt,
                report: CompileReport::default(),
                cycle: 0,
                branch_entropy: 0.22,
            }
        });
        sim.report = CompileReport {
            seconds: t0.elapsed().as_secs_f64(),
            peak_bytes: peak,
            code_bytes: sim.schedule.len() as u64 * NODE_CODE_BYTES + 0x2000,
            data_bytes: (sim.values.len() * 8) as u64,
        };
        sim
    }

    /// Compile-cost and footprint report.
    pub fn compile_report(&self) -> CompileReport {
        self.report
    }

    /// Drives input port `idx`.
    pub fn set_input(&mut self, idx: usize, value: u64) {
        let (w, signed) = self.input_types[idx];
        self.values[self.input_ids[idx] as usize] = canonicalize(value, w, signed);
    }

    /// Output value by port index.
    pub fn output(&self, idx: usize) -> u64 {
        self.values[self.outputs[idx].1 as usize]
    }

    fn step_inner<P: Probe>(&mut self, probe: &mut P) {
        let o0 = if self.opt == OptLevel::None { 4 } else { 1 };
        for node in &self.schedule {
            let values = &self.values;
            let arity = node.srcs.len();
            let raw = eval_staged(node.op, &node.params, arity, &mut self.scratch, |o| {
                let s = node.srcs[o];
                probe.load(VDATA_BASE + s as u64 * 8);
                values[s as usize]
            });
            // Selects compile to data-dependent branches.
            if node.op.class() == OpClass::Select {
                probe.branch(node.code_addr);
            }
            probe.exec(node.code_addr, 2 * o0);
            let v = if node.mask_only {
                node.canon.apply_mask(raw)
            } else {
                node.canon.apply(raw)
            };
            probe.store(VDATA_BASE + node.dst as u64 * 8);
            self.values[node.dst as usize] = v;
        }
        for (k, &(_, src)) in self.commits.iter().enumerate() {
            probe.load(VDATA_BASE + src as u64 * 8);
            self.commit_buf[k] = self.values[src as usize];
        }
        for (k, &(dst, _)) in self.commits.iter().enumerate() {
            probe.store(VDATA_BASE + dst as u64 * 8);
            self.values[dst as usize] = self.commit_buf[k];
        }
        self.cycle += 1;
    }

    /// One cycle, fast path.
    pub fn step(&mut self) {
        self.step_inner(&mut NoProbe);
    }

    /// `n` cycles, fast path.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs `n` instrumented cycles.
    pub fn run_profiled(&mut self, mem: &mut MemSim, n: u64) -> ExecProfile {
        let mut profile = ExecProfile::default();
        for _ in 0..n {
            let mut probe = MemProbe::new(mem);
            self.step_inner(&mut probe);
            profile.instructions += probe.counters.instructions;
            profile.branches += probe.counters.branches;
        }
        profile.branch_entropy = self.branch_entropy;
        profile.mem = mem.stats();
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rteaal_dfg::interp::Interpreter;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};
    use rteaal_perfmodel::Machine;

    const DESIGN: &str = "\
circuit V :
  module V :
    input clock : Clock
    input x : UInt<16>
    input sel : UInt<1>
    output out : UInt<16>
    reg a : UInt<16>, clock
    reg b : UInt<16>, clock
    a <= mux(sel, tail(add(a, x), 1), xor(a, b))
    b <= tail(sub(b, x), 1)
    out <= or(a, b)
";

    /// Signed registers, comparisons and an arithmetic shift: a result
    /// left masked where it should be sign-extended reads differently.
    const SIGNED: &str = "\
circuit S :
  module S :
    input clock : Clock
    input x : UInt<16>
    input sel : UInt<1>
    output out : UInt<16>
    reg a : SInt<16>, clock
    reg b : SInt<16>, clock
    node sx = asSInt(x)
    a <= asSInt(tail(add(a, sx), 1))
    b <= mux(sel, sx, asSInt(tail(sub(b, a), 1)))
    out <= cat(cat(lt(a, b), geq(a, sx)), bits(asUInt(dshr(a, bits(x, 3, 0))), 13, 0))
";

    fn graph_of(src: &str) -> Graph {
        rteaal_dfg::build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn matches_reference_interpreter() {
        for src in [DESIGN, SIGNED] {
            let g = graph_of(src);
            let mut golden = Interpreter::new(&g);
            let mut v = VerilatorLike::compile(&g, OptLevel::Full);
            let mut rng = rand::rngs::StdRng::seed_from_u64(21);
            for _ in 0..300 {
                let x: u64 = rng.gen();
                let sel: u64 = rng.gen();
                golden.set_input(0, x);
                golden.set_input(1, sel);
                v.set_input(0, x);
                v.set_input(1, sel);
                golden.step();
                v.step();
                assert_eq!(golden.output(0), v.output(0));
            }
        }
    }

    #[test]
    fn o0_matches_o3_behavior() {
        let g = graph_of(DESIGN);
        let mut v3 = VerilatorLike::compile(&g, OptLevel::Full);
        let mut v0 = VerilatorLike::compile(&g, OptLevel::None);
        for c in 0..100u64 {
            v3.set_input(0, c * 3);
            v3.set_input(1, c & 1);
            v0.set_input(0, c * 3);
            v0.set_input(1, c & 1);
            v3.step();
            v0.step();
            assert_eq!(v3.output(0), v0.output(0));
        }
    }

    #[test]
    fn local_cse_shrinks_schedule() {
        // Duplicate expressions within one block get merged at -O3.
        let src = "\
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    output x : UInt<9>
    output y : UInt<9>
    x <= add(a, b)
    y <= add(a, b)
";
        let g = graph_of(src);
        // Note: the graph itself already hash-conses; simulate Verilator
        // seeing duplicated work by checking schedule <= graph size.
        let v = VerilatorLike::compile(&g, OptLevel::Full);
        assert!(v.schedule.len() <= g.effectual_ops());
    }

    #[test]
    fn selects_branch_and_entropy_is_high() {
        let g = graph_of(DESIGN);
        let mut v = VerilatorLike::compile(&g, OptLevel::Full);
        let mut mem = Machine::intel_xeon().mem_sim();
        let p = v.run_profiled(&mut mem, 50);
        assert!(p.branches > 0);
        assert!((p.branch_entropy - 0.22).abs() < 1e-9);
    }

    #[test]
    fn code_grows_with_design() {
        let small = graph_of(DESIGN);
        let mut src = String::from(
            "\
circuit B :
  module B :
    input clock : Clock
    input x : UInt<16>
    output out : UInt<16>
",
        );
        for i in 0..100 {
            src.push_str(&format!("    reg r{i} : UInt<16>, clock\n"));
        }
        src.push_str("    r0 <= tail(add(r99, x), 1)\n");
        for i in 1..100 {
            src.push_str(&format!("    r{i} <= xor(r{}, x)\n", i - 1));
        }
        src.push_str("    out <= r99\n");
        let big = graph_of(&src);
        let vs = VerilatorLike::compile(&small, OptLevel::Full);
        let vb = VerilatorLike::compile(&big, OptLevel::Full);
        assert!(vb.compile_report().code_bytes > vs.compile_report().code_bytes);
    }
}
