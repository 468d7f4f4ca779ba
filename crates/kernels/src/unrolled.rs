//! The unrolled kernels: SU and TI (paper §5.2).
//!
//! **SU** fully unrolls the `S` rank: the `OIM` is encoded *into the
//! instruction stream* — one straight-line instruction block per
//! operation, no coordinate metadata, no loop overhead. Data becomes
//! instructions: D-cache pressure turns into I-cache pressure (Table 6's
//! L1D-load collapse and L1I-miss explosion between IU and SU).
//!
//! **TI** adds *tensor inlining*: the array-based `LI`/`LO` representation
//! is replaced by individual variables wherever possible, giving the
//! compiler "maximum flexibility to bind values to registers, reorder
//! instructions, or eliminate them entirely". Concretely:
//!
//! - reads of constant slots become immediates,
//! - a value consumed only by the immediately following instruction is
//!   forwarded through a virtual accumulator instead of `LI`,
//! - stores of values nobody else reads are eliminated,
//! - instruction blocks are laid out compactly (TI's binary is *smaller*
//!   than SU's, Table 4: 5.3 MB vs 6.0 MB).

use crate::config::{KernelConfig, KernelKind, OptLevel};
use crate::profile::{li_addr, Probe, CODE_BASE, INSTR_BYTES};
use crate::rolled::{exec_cost, param_count};
use crate::state::{eval_staged, Canon, LiState};
use rteaal_dfg::op::DfgOp;
use rteaal_dfg::SimPlan;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Base of the unrolled instruction stream in the code-space model.
const STREAM_BASE: u64 = CODE_BASE + 0x100_0000;

/// An operand source after tensor inlining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Load from an `LI` slot.
    Slot(u32),
    /// Inlined immediate (constant slot).
    Imm(u64),
    /// Forwarded from the previous instruction's result (virtual
    /// register).
    Acc,
}

/// One straight-line instruction: a fully specialized operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// The operation.
    pub op: DfgOp,
    /// Destination slot.
    pub out: u32,
    /// Whether the result is written back to `LI` (TI elides dead
    /// stores).
    pub store_out: bool,
    /// Operand sources: a run in the kernel's operand stream.
    pub operands: Range<u32>,
    /// Static parameters.
    pub params: [u64; 2],
    /// Result canonicalization (width and signedness).
    pub canon: Canon,
    /// Code address of this block.
    pub code_addr: u64,
}

impl Instr {
    /// Modeled machine instructions in this block: one compute sequence,
    /// a load per slot operand, a store if kept.
    fn machine_instrs(&self, stream: &[Operand]) -> u32 {
        let operands = self.operands(stream);
        let loads = operands
            .iter()
            .filter(|o| matches!(o, Operand::Slot(_)))
            .count();
        exec_cost(self.op, operands.len()) + loads as u32 + if self.store_out { 1 } else { 0 }
    }

    /// Code bytes this block occupies.
    pub fn code_bytes(&self, stream: &[Operand]) -> u64 {
        (self.machine_instrs(stream) as u64 * INSTR_BYTES).max(4)
    }

    /// This instruction's operand sources within the kernel's `stream`.
    #[inline]
    pub fn operands<'a>(&self, stream: &'a [Operand]) -> &'a [Operand] {
        &stream[self.operands.start as usize..self.operands.end as usize]
    }
}

/// A compiled straight-line kernel (SU or TI).
#[derive(Debug, Clone)]
pub struct UnrolledKernel {
    cfg: KernelConfig,
    instrs: Vec<Instr>,
    /// Every instruction's operand sources, back to back in instruction
    /// order (one stream, not a heap vector per instruction).
    operands: Vec<Operand>,
    code_bytes: u64,
    /// Stores eliminated by TI (reporting).
    pub stores_elided: usize,
    /// Operands turned into immediates by TI.
    pub imms_inlined: usize,
    /// Operands forwarded through the accumulator by TI.
    pub forwards: usize,
}

impl UnrolledKernel {
    /// Compiles a plan into a straight-line kernel.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.kind` is not SU or TI.
    pub fn compile(plan: &SimPlan, cfg: KernelConfig) -> Self {
        assert!(
            cfg.kind.is_unrolled(),
            "rolled kernels live in RolledKernel"
        );
        let mut instrs: Vec<Instr> = Vec::with_capacity(plan.total_ops());
        let mut operands = Vec::new();
        for layer in &plan.layers {
            for op in layer {
                let mut params = [0u64; 2];
                for (k, &p) in op.params.iter().take(2).enumerate() {
                    params[k] = p;
                }
                let first = operands.len() as u32;
                operands.extend(op.ins.iter().map(|&r| Operand::Slot(r)));
                instrs.push(Instr {
                    op: op.op(),
                    out: op.out,
                    store_out: true,
                    operands: first..operands.len() as u32,
                    params,
                    canon: Canon::new(op.width as u32, op.signed),
                    code_addr: 0,
                });
            }
        }
        let mut kernel = UnrolledKernel {
            cfg,
            instrs,
            operands,
            code_bytes: 0,
            stores_elided: 0,
            imms_inlined: 0,
            forwards: 0,
        };
        // Tensor inlining only applies to TI at the -O3 analog (at -O0
        // the compiler would not perform these bindings).
        if cfg.kind == KernelKind::Ti && cfg.opt == OptLevel::Full {
            kernel.tensor_inline(plan);
        }
        kernel.layout();
        kernel
    }

    /// The tensor-inlining peephole (TI's defining transformation).
    fn tensor_inline(&mut self, plan: &SimPlan) {
        // Slots that must stay in LI: read by commits or outputs.
        let mut pinned: HashSet<u32> = plan.commits.iter().map(|&(_, src)| src).collect();
        pinned.extend(plan.commits.iter().map(|&(dst, _)| dst));
        pinned.extend(plan.output_slots.iter().map(|(_, s)| *s));
        // Reader map: slot -> instruction indices that read it.
        let mut readers: HashMap<u32, Vec<usize>> = HashMap::new();
        for (k, instr) in self.instrs.iter().enumerate() {
            for op in instr.operands(&self.operands) {
                if let Operand::Slot(s) = op {
                    readers.entry(*s).or_default().push(k);
                }
            }
        }
        let (c_lo, c_hi) = plan.const_slots;
        let mut prev_out = None;
        for instr in &self.instrs {
            let run = instr.operands.start as usize..instr.operands.end as usize;
            for op in &mut self.operands[run] {
                if let Operand::Slot(s) = *op {
                    if s >= c_lo && s < c_hi {
                        // Immediates: constant-slot reads become inline
                        // constants.
                        *op = Operand::Imm(plan.init_values[s as usize]);
                        self.imms_inlined += 1;
                    } else if prev_out == Some(s) {
                        // Forward from the previous instruction.
                        *op = Operand::Acc;
                        self.forwards += 1;
                    }
                }
            }
            prev_out = Some(instr.out);
        }
        // Dead-store elimination: a slot whose only reader is the next
        // instruction (now forwarding through Acc) and which is not
        // pinned never needs its LI store.
        for k in 0..self.instrs.len() {
            let out = self.instrs[k].out;
            if pinned.contains(&out) {
                continue;
            }
            let rs = readers.get(&out).map(Vec::as_slice).unwrap_or(&[]);
            if rs.iter().all(|&r| r == k + 1) && !rs.is_empty() {
                self.instrs[k].store_out = false;
                self.stores_elided += 1;
            }
        }
    }

    /// Assigns code addresses: every block occupies its actual encoded
    /// size, so TI's elided loads/stores shrink the stream (Table 4).
    fn layout(&mut self) {
        let mut addr = STREAM_BASE;
        for instr in &mut self.instrs {
            instr.code_addr = addr;
            addr += instr.code_bytes(&self.operands);
        }
        self.code_bytes = addr - STREAM_BASE;
    }

    /// The configuration.
    pub fn config(&self) -> KernelConfig {
        self.cfg
    }

    /// Static code footprint: the whole design is instructions (Table 4's
    /// SU/TI rows).
    pub fn code_bytes(&self) -> u64 {
        0x1000 + self.code_bytes // interpreter prologue + stream
    }

    /// OIM data resident in memory: none — it is embedded in the code.
    pub fn data_bytes(&self) -> u64 {
        0
    }

    /// One simulated clock cycle.
    pub fn step<P: Probe>(&self, st: &mut LiState, probe: &mut P) {
        let o0 = match self.cfg.opt {
            OptLevel::Full => 1,
            OptLevel::None => 4,
        };
        let mut acc = 0u64;
        for instr in &self.instrs {
            let operands = instr.operands(&self.operands);
            let params = &instr.params[..param_count(instr.op)];
            let li = &st.li;
            let fetch = |o: usize| match operands[o] {
                Operand::Slot(s) => {
                    probe.load(li_addr(s));
                    li[s as usize]
                }
                Operand::Imm(v) => v,
                Operand::Acc => acc,
            };
            let raw = eval_staged(instr.op, params, operands.len(), &mut st.scratch, fetch);
            probe.exec(instr.code_addr, exec_cost(instr.op, operands.len()) * o0);
            let v = instr.canon.apply(raw);
            if instr.store_out {
                probe.store(li_addr(instr.out));
                st.li[instr.out as usize] = v;
            }
            acc = v;
        }
        st.commit(probe, usize::MAX, LiState::commit_code_addr());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{MemProbe, NoProbe};
    use rand::{Rng, SeedableRng};
    use rteaal_dfg::plan::{plan, PlanSim};
    use rteaal_firrtl::{lower::lower_typed, parser::parse};
    use rteaal_perfmodel::Machine;

    const DESIGN: &str = "\
circuit D :
  module D :
    input clock : Clock
    input x : UInt<16>
    input sel : UInt<1>
    output out : UInt<16>
    output flag : UInt<1>
    reg a : UInt<16>, clock
    reg b : UInt<16>, clock
    node s = tail(add(a, x), 1)
    node t = xor(b, cat(bits(x, 7, 0), bits(x, 15, 8)))
    a <= mux(sel, s, t)
    b <= tail(sub(a, xor(x, UInt<16>(0xff))), 1)
    out <= a
    flag <= orr(b)
";

    fn plan_of(src: &str) -> SimPlan {
        plan(&rteaal_dfg::build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap())
    }

    #[test]
    fn su_and_ti_match_plan_sim() {
        let p = plan_of(DESIGN);
        for kind in [KernelKind::Su, KernelKind::Ti] {
            let kernel = UnrolledKernel::compile(&p, KernelConfig::new(kind));
            let mut st = LiState::new(&p);
            let mut golden = PlanSim::new(&p);
            let mut rng = rand::rngs::StdRng::seed_from_u64(kind as u64 + 10);
            for _ in 0..300 {
                let x: u64 = rng.gen();
                let sel: u64 = rng.gen();
                st.set_input(0, x);
                st.set_input(1, sel);
                golden.set_input(0, x);
                golden.set_input(1, sel);
                kernel.step(&mut st, &mut NoProbe);
                golden.step();
                assert_eq!(st.output(0), golden.output(0), "{kind:?} out diverged");
                assert_eq!(st.output(1), golden.output(1), "{kind:?} flag diverged");
            }
        }
    }

    #[test]
    fn ti_transformations_fire_and_preserve_behavior() {
        let p = plan_of(DESIGN);
        let ti = UnrolledKernel::compile(&p, KernelConfig::new(KernelKind::Ti));
        assert!(ti.imms_inlined > 0, "constants should inline");
        // Behavior check even when forwarding/elision fire.
        let su = UnrolledKernel::compile(&p, KernelConfig::new(KernelKind::Su));
        let mut s1 = LiState::new(&p);
        let mut s2 = LiState::new(&p);
        for c in 0..100u64 {
            s1.set_input(0, c.wrapping_mul(0x9e37));
            s1.set_input(1, c & 1);
            s2.set_input(0, c.wrapping_mul(0x9e37));
            s2.set_input(1, c & 1);
            su.step(&mut s1, &mut NoProbe);
            ti.step(&mut s2, &mut NoProbe);
            assert_eq!(s1.output(0), s2.output(0));
            assert_eq!(s1.output(1), s2.output(1));
        }
    }

    #[test]
    fn ti_executes_fewer_dynamic_instructions_than_su() {
        let p = plan_of(DESIGN);
        let run = |kind| {
            let kernel = UnrolledKernel::compile(&p, KernelConfig::new(kind));
            let mut st = LiState::new(&p);
            let mut mem = Machine::intel_core().mem_sim();
            let mut probe = MemProbe::new(&mut mem);
            for _ in 0..20 {
                kernel.step(&mut st, &mut probe);
            }
            (probe.counters.instructions, probe.counters.loads)
        };
        let (su_i, su_l) = run(KernelKind::Su);
        let (ti_i, ti_l) = run(KernelKind::Ti);
        assert!(ti_i < su_i, "TI {ti_i} !< SU {su_i}");
        assert!(ti_l < su_l, "TI loads {ti_l} !< SU loads {su_l}");
    }

    #[test]
    fn ti_code_is_smaller_than_su() {
        // Table 4: TI 5.3 MB < SU 6.0 MB.
        let p = plan_of(DESIGN);
        let su = UnrolledKernel::compile(&p, KernelConfig::new(KernelKind::Su));
        let ti = UnrolledKernel::compile(&p, KernelConfig::new(KernelKind::Ti));
        assert!(ti.code_bytes() < su.code_bytes());
        assert_eq!(su.data_bytes(), 0);
    }

    #[test]
    fn code_grows_linearly_with_design() {
        // Two copies of the logic ≈ twice the stream.
        let small = plan_of(DESIGN);
        let big_src = DESIGN.replace(
            "    out <= a\n",
            "    reg c : UInt<16>, clock\n    c <= tail(add(b, x), 1)\n    out <= xor(a, c)\n",
        );
        let big = plan_of(&big_src);
        let k_small = UnrolledKernel::compile(&small, KernelConfig::new(KernelKind::Su));
        let k_big = UnrolledKernel::compile(&big, KernelConfig::new(KernelKind::Su));
        assert!(k_big.code_bytes() > k_small.code_bytes());
        assert!(k_big.instrs.len() > k_small.instrs.len());
    }

    #[test]
    fn su_o0_matches_su_o3_behavior() {
        let p = plan_of(DESIGN);
        let k3 = UnrolledKernel::compile(&p, KernelConfig::new(KernelKind::Su));
        let k0 = UnrolledKernel::compile(&p, KernelConfig::unoptimized(KernelKind::Su));
        let mut s3 = LiState::new(&p);
        let mut s0 = LiState::new(&p);
        for c in 0..50u64 {
            s3.set_input(0, c * 31);
            s0.set_input(0, c * 31);
            k3.step(&mut s3, &mut NoProbe);
            k0.step(&mut s0, &mut NoProbe);
            assert_eq!(s3.output(0), s0.output(0));
        }
    }

    #[test]
    fn ti_o0_disables_inlining() {
        let p = plan_of(DESIGN);
        let ti0 = UnrolledKernel::compile(&p, KernelConfig::unoptimized(KernelKind::Ti));
        assert_eq!(ti0.imms_inlined, 0);
        assert_eq!(ti0.forwards, 0);
    }
}
