//! The rolled kernels: RU, OU, NU, PSU, IU (paper §5.2).
//!
//! These kernels *traverse* the `OIM` coordinate arrays at runtime — the
//! tensor-algebra end of the unrolling spectrum. Each executor follows its
//! paper description:
//!
//! - **RU** — Algorithm 3 verbatim: `[I, S, N, O, R]` loops over format
//!   (b), a case-statement dispatch per operation, and operand staging
//!   through a `sel_inputs` buffer.
//! - **OU** — unrolls the `O` loop: operands are consumed directly from
//!   `LI`, removing the staging traffic and the inner-loop overhead.
//! - **NU** — Algorithm 4: swizzles to `[I, N, S, O, R]` over format (c);
//!   each operation type gets its own loop body, eliminating the dispatch.
//! - **PSU** — partially unrolls the `S` loops (8× for op loops, 24× for
//!   the writeback loop), amortizing loop overhead.
//! - **IU** — fully unrolls the `I` rank into a flat schedule of
//!   non-empty `(layer, type)` groups, eliminating zero-iteration `S`
//!   loops at the cost of per-group code (the Table 4 jump from 0.35 MB
//!   to 0.91 MB).
//!
//! All five share the same per-operation semantics
//! ([`rteaal_dfg::op::eval_raw`]), so they are bit-identical to each other
//! and to the reference interpreters; they differ only in traversal,
//! instruction/branch overhead, and memory reference streams — exactly
//! the axes Tables 5–6 measure.
//!
//! ## Real and modeled differences
//!
//! Every walk is one function generic over the [`Probe`]: the probe calls
//! are the *model* (they vanish under `NoProbe`), the code around them is
//! what the wall clock sees.
//!
//! - Real: RU/OU decode and dispatch every operation through `eval_raw`'s
//!   full match; NU/PSU/IU dispatch once per `(layer, type)` group and
//!   then run a loop specialized for that opcode and arity
//!   (`RolledKernel::run_group`), with operands at `r_base + A·j + o`
//!   instead of an `r_offsets` lookup. NU/PSU scan all of a layer's type
//!   counts; IU walks only its non-empty groups.
//! - Modeled only: RU's `sel_inputs` staging traffic (RU and OU both
//!   stage operands in a stack array), PSU's 8×/24× partial unrolling
//!   (back-edge accounting; NU and PSU run the same machine code), the
//!   per-group code bodies of IU, and the `-O0` analog's spills.

use crate::config::{KernelConfig, KernelKind, OptLevel};
use crate::profile::{li_addr, oim_addr, OimArray, Probe, CODE_BASE, HANDLER_BYTES};
use crate::state::{eval_staged, Canon, LiState};
use rteaal_dfg::op::{eval_raw, DfgOp, ALL_OPS, NUM_OPCODES};
use rteaal_dfg::SimPlan;
use rteaal_tensor::oim::{OimOptimized, OimSwizzled};
use std::ops::Range;

/// Code address of the outer-loop bookkeeping.
const LOOP_ADDR: u64 = CODE_BASE;
/// Code address of the case-statement dispatch (RU/OU).
const DISPATCH_ADDR: u64 = CODE_BASE + 0x100;
/// Base of the per-opcode handler region.
const HANDLER_BASE: u64 = CODE_BASE + 0x1000;
/// Base of IU's per-group specialized loop bodies.
const IU_GROUP_BASE: u64 = CODE_BASE + 0x10_0000;
/// Code bytes per IU group body.
const IU_GROUP_BYTES: u64 = 128;
/// Scratch region for RU's `sel_inputs` staging buffer and `-O0` spills.
const SCRATCH_BASE: u64 = 0x3000_0000;

/// Code address of opcode `n`'s handler / specialized loop.
#[inline]
fn handler(n: u16) -> u64 {
    HANDLER_BASE + n as u64 * HANDLER_BYTES
}

/// Compute-only instruction cost of an op (loads/stores/branches are
/// accounted separately by the probe).
#[inline]
pub(crate) fn exec_cost(op: DfgOp, arity: usize) -> u32 {
    match op {
        DfgOp::Mul | DfgOp::Divu | DfgOp::Divs | DfgOp::Remu | DfgOp::Rems => 4,
        DfgOp::MuxChain => arity as u32,
        _ => 2,
    }
}

/// Where one `(layer, type)` group's loop lives in the code-space model.
/// NU/PSU run every group of a type through that type's shared handler;
/// IU gives each group its own body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GroupCode {
    /// The `S` loop's back-edge.
    back_edge: u64,
    /// The per-op compute sequence.
    exec: u64,
    /// The `-O0` result round-trip.
    result: u64,
}

impl GroupCode {
    /// Opcode `n`'s shared specialized loop (NU/PSU).
    fn handler(n: u16) -> Self {
        GroupCode {
            back_edge: handler(n) + 0x40,
            exec: handler(n) + 0x50,
            result: handler(n),
        }
    }

    /// IU's `index`-th per-group body.
    fn iu_body(index: usize) -> Self {
        let base = IU_GROUP_BASE + index as u64 * IU_GROUP_BYTES;
        GroupCode {
            back_edge: base,
            exec: base + 0x10,
            result: base,
        }
    }
}

/// One IU schedule entry: a non-empty `(layer, type)` group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IuGroup {
    op: DfgOp,
    /// Range into the swizzled op arrays.
    start: u32,
    len: u32,
    /// This group's own code body.
    code: GroupCode,
}

/// A compiled rolled kernel.
#[derive(Debug, Clone)]
pub struct RolledKernel {
    cfg: KernelConfig,
    /// Format (b) arrays (RU/OU).
    oim_b: Option<OimOptimized>,
    /// Format (c) arrays (NU/PSU/IU).
    oim_c: Option<OimSwizzled>,
    /// IU's flattened non-empty-group schedule.
    schedule: Vec<IuGroup>,
    /// Distinct opcodes used (handler footprint).
    used_opcodes: usize,
    /// Each op's result canonicalization, in the traversal order of the
    /// format in use (kernel-side: the OIM side table keeps width and
    /// signedness, and its size accounting is unchanged).
    canon: Vec<Canon>,
}

impl RolledKernel {
    /// Compiles a plan for the given rolled-kernel configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.kind` is SU or TI (see `crate::unrolled`), or if a
    /// fixed-arity op carries another operand count (the plan verifier
    /// rejects such plans; the per-type loops index operands by arity).
    pub fn compile(plan: &SimPlan, cfg: KernelConfig) -> Self {
        assert!(
            !cfg.kind.is_unrolled(),
            "SU/TI are handled by UnrolledKernel"
        );
        let mut used = [false; NUM_OPCODES];
        for op in plan.layers.iter().flatten() {
            used[op.n as usize] = true;
            let arity = op.op().arity();
            assert!(
                arity.is_none() || arity == Some(op.ins.len()),
                "`{}` with {} operands",
                op.op(),
                op.ins.len()
            );
        }
        let used_opcodes = used.iter().filter(|&&u| u).count();
        let (oim_b, oim_c, schedule) = match cfg.kind {
            KernelKind::Ru | KernelKind::Ou => (Some(OimOptimized::from_plan(plan)), None, vec![]),
            KernelKind::Nu | KernelKind::Psu => (None, Some(OimSwizzled::from_plan(plan)), vec![]),
            KernelKind::Iu => {
                let oim = OimSwizzled::from_plan(plan);
                let mut schedule = Vec::new();
                for i in 0..oim.num_layers {
                    for (n, &op) in ALL_OPS.iter().enumerate() {
                        let range = oim.group(i, n as u16);
                        if !range.is_empty() {
                            schedule.push(IuGroup {
                                op,
                                start: range.start as u32,
                                len: range.len() as u32,
                                code: GroupCode::iu_body(schedule.len()),
                            });
                        }
                    }
                }
                (None, Some(oim), schedule)
            }
            KernelKind::Su | KernelKind::Ti => unreachable!(),
        };
        let metas = match (&oim_b, &oim_c) {
            (Some(b), _) => &b.meta,
            (_, Some(c)) => &c.meta,
            _ => unreachable!("every rolled kernel traverses one format"),
        };
        let canon = metas
            .iter()
            .map(|m| Canon::new(m.width as u32, m.signed))
            .collect();
        RolledKernel {
            cfg,
            oim_b,
            oim_c,
            schedule,
            used_opcodes,
            canon,
        }
    }

    /// The configuration.
    pub fn config(&self) -> KernelConfig {
        self.cfg
    }

    /// Static code footprint of the kernel (the Table 4 "binary size"
    /// analog, excluding the OIM data).
    pub fn code_bytes(&self) -> u64 {
        let interpreter = 0x1000; // loops, dispatch, commit
        let handlers = self.used_opcodes as u64 * HANDLER_BYTES;
        let groups = self.schedule.len() as u64 * IU_GROUP_BYTES;
        interpreter + handlers + groups
    }

    /// In-memory bytes of the OIM arrays the kernel traverses (D-cache
    /// resident data).
    pub fn data_bytes(&self) -> u64 {
        match (&self.oim_b, &self.oim_c) {
            (Some(b), _) => b.memory_bytes() as u64,
            (_, Some(c)) => c.memory_bytes() as u64,
            _ => 0,
        }
    }

    /// One simulated clock cycle.
    pub fn step<P: Probe>(&self, st: &mut LiState, probe: &mut P) {
        match self.cfg.kind {
            KernelKind::Ru => self.step_per_op(st, probe, true),
            KernelKind::Ou => self.step_per_op(st, probe, false),
            KernelKind::Nu => self.step_grouped(st, probe, 1),
            KernelKind::Psu => self.step_grouped(st, probe, self.cfg.psu_op_unroll),
            KernelKind::Iu => self.step_iu(st, probe),
            KernelKind::Su | KernelKind::Ti => unreachable!(),
        }
        let wb_unroll = match self.cfg.kind {
            KernelKind::Ru | KernelKind::Ou | KernelKind::Nu => 1,
            _ => self.cfg.psu_writeback_unroll,
        };
        st.commit(probe, wb_unroll, LiState::commit_code_addr());
    }

    /// Extra per-operand spill traffic at the `-O0` analog (every value
    /// round-trips through the stack, as unoptimized C++ does).
    #[inline]
    fn spill<P: Probe>(&self, probe: &mut P, o: usize) {
        if self.cfg.opt == OptLevel::None {
            probe.store(SCRATCH_BASE + 0x1000 + o as u64 * 8);
            probe.load(SCRATCH_BASE + 0x1000 + o as u64 * 8);
        }
    }

    /// `-O0` result round-trip plus statement prologue/epilogue.
    #[inline]
    fn o0_result<P: Probe>(&self, probe: &mut P, addr: u64) {
        if self.cfg.opt == OptLevel::None {
            probe.store(SCRATCH_BASE + 0x2000);
            probe.load(SCRATCH_BASE + 0x2000);
            probe.exec(addr, 6);
        }
    }

    #[inline]
    fn o0_mul(&self) -> u32 {
        match self.cfg.opt {
            OptLevel::Full => 1,
            OptLevel::None => 4,
        }
    }

    /// RU and OU: the `[I, S, N, O, R]` walk over format (b) with a
    /// case-statement dispatch per operation. RU (`staged`) is
    /// Algorithm 3 verbatim: an `O` loop copies operands into the
    /// `sel_inputs` buffer and evaluation reloads them. OU unrolls the `O`
    /// rank: operands are consumed directly from `LI`.
    fn step_per_op<P: Probe>(&self, st: &mut LiState, probe: &mut P, staged: bool) {
        let oim = self.oim_b.as_ref().expect("RU/OU use format (b)");
        let mut k = 0usize;
        for (i, &ops) in oim.i_payloads.iter().enumerate() {
            probe.branch(LOOP_ADDR);
            probe.load(oim_addr(OimArray::IPayloads, i, 4));
            for _ in 0..ops {
                probe.branch(LOOP_ADDR + 0x20);
                let op_ref = oim.op_at(k);
                probe.load(oim_addr(OimArray::NCoords, k, 2));
                probe.load(oim_addr(OimArray::SCoords, k, 4));
                probe.load(oim_addr(OimArray::Meta, k, 24));
                let op = op_ref.op();
                // The op_r[n]/op_u[n] case statement: an indirect jump.
                probe.branch(DISPATCH_ADDR);
                let r_base = oim.r_offsets[k] as usize;
                let arity = op_ref.rs.len();
                let li = &st.li;
                let raw = eval_staged(op, op_ref.params(), arity, &mut st.scratch, |o| {
                    let r = op_ref.rs[o];
                    if staged {
                        // O loop: per-iteration overhead plus staging.
                        probe.branch(LOOP_ADDR + 0x40);
                    }
                    probe.load(oim_addr(OimArray::RCoords, r_base + o, 4));
                    probe.load(li_addr(r));
                    if staged {
                        probe.store(SCRATCH_BASE + o as u64 * 8);
                    } else {
                        self.spill(probe, o);
                    }
                    li[r as usize]
                });
                if staged {
                    // Evaluation reloads the staged operands.
                    for o in 0..arity {
                        probe.load(SCRATCH_BASE + o as u64 * 8);
                        self.spill(probe, o);
                    }
                }
                probe.exec(handler(op_ref.n), exec_cost(op, arity) * self.o0_mul());
                let v = self.canon[k].apply(raw);
                probe.store(li_addr(op_ref.s));
                self.o0_result(probe, handler(op_ref.n));
                st.li[op_ref.s as usize] = v;
                k += 1;
            }
        }
    }

    /// NU/PSU: Algorithm 4 over the swizzled format; `s_unroll` amortizes
    /// the per-op loop overhead (1 = NU, 8 = PSU).
    fn step_grouped<P: Probe>(&self, st: &mut LiState, probe: &mut P, s_unroll: usize) {
        let oim = self.oim_c.as_ref().expect("NU/PSU use format (c)");
        let mut start = 0usize;
        for (i, counts) in oim.n_payloads.chunks_exact(NUM_OPCODES).enumerate() {
            probe.branch(LOOP_ADDR);
            for (n, (&len, &op)) in counts.iter().zip(&ALL_OPS).enumerate() {
                // Unrolled N rank: each type's loop reads its own count.
                probe.load(oim_addr(OimArray::NPayloads, i * NUM_OPCODES + n, 4));
                probe.exec(handler(n as u16), self.o0_mul()); // the count check itself
                if len == 0 {
                    continue;
                }
                let end = start + len as usize;
                let code = GroupCode::handler(n as u16);
                self.run_group(oim, st, probe, op, start..end, code, s_unroll);
                start = end;
            }
        }
    }

    /// IU: the flattened non-empty-group schedule (zero-iteration `S`
    /// loops eliminated; each group has its own code body).
    fn step_iu<P: Probe>(&self, st: &mut LiState, probe: &mut P) {
        let oim = self.oim_c.as_ref().expect("IU uses format (c)");
        let s_unroll = self.cfg.psu_op_unroll;
        for group in &self.schedule {
            let range = group.start as usize..(group.start + group.len) as usize;
            self.run_group(oim, st, probe, group.op, range, group.code, s_unroll);
        }
    }

    /// The per-type loop bodies of Algorithm 4: dispatches on the opcode
    /// once per `(layer, type)` group, then runs that type's own `S` loop.
    #[allow(clippy::too_many_arguments)]
    fn run_group<P: Probe>(
        &self,
        oim: &OimSwizzled,
        st: &mut LiState,
        probe: &mut P,
        op: DfgOp,
        range: Range<usize>,
        code: GroupCode,
        s_unroll: usize,
    ) {
        let s_unroll = s_unroll.max(1);
        // Each arm passes its opcode as a literal into an inlined loop, so
        // `eval_raw`'s match folds away inside every body.
        macro_rules! per_type {
            ($($arity:literal: $($op:ident)|+;)+) => {
                match op {
                    $($(DfgOp::$op => {
                        self.fixed_loop::<$arity, P>(oim, st, probe, DfgOp::$op, range, code, s_unroll)
                    })+)+
                    _ => self.chain_loop(oim, st, probe, op, range, code, s_unroll),
                }
            };
        }
        per_type! {
            1: Not | Neg | Andr | Orr | Xorr | Shl | Shr | Bits | Head | Resize | Identity;
            2: Add | Sub | Mul | Divu | Divs | Remu | Rems | And | Or | Xor | Ltu | Lts | Leu
                | Les | Gtu | Gts | Geu | Ges | Eq | Neq | Dshl | Dshr | Cat | ValidIf;
            3: Mux;
        }
    }

    /// One type's `S` loop at fixed arity `A`: operand `o` of the group's
    /// `j`-th op is `r_coords[r_base + A * j + o]`, staged in a stack
    /// array.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn fixed_loop<const A: usize, P: Probe>(
        &self,
        oim: &OimSwizzled,
        st: &mut LiState,
        probe: &mut P,
        op: DfgOp,
        range: Range<usize>,
        code: GroupCode,
        s_unroll: usize,
    ) {
        debug_assert_eq!(op.arity(), Some(A));
        let first = range.start;
        let r_base = oim.r_offsets[first] as usize;
        let s_coords = &oim.s_coords[range.clone()];
        let (r_coords, _) = oim.r_coords[r_base..r_base + A * range.len()].as_chunks::<A>();
        let metas = &oim.meta[range.clone()];
        let canons = &self.canon[range];
        let cost = exec_cost(op, A) * self.o0_mul();
        let ops = s_coords.iter().zip(r_coords).zip(metas).zip(canons);
        for (j, (((&s, rs), meta), canon)) in ops.enumerate() {
            if j % s_unroll == 0 {
                probe.branch(code.back_edge);
            }
            probe.load(oim_addr(OimArray::SCoords, first + j, 4));
            if reads_meta(op) {
                probe.load(oim_addr(OimArray::Meta, first + j, 24));
            }
            let mut ins = [0u64; A];
            for (o, (v, &r)) in ins.iter_mut().zip(rs).enumerate() {
                probe.load(oim_addr(OimArray::RCoords, r_base + A * j + o, 4));
                probe.load(li_addr(r));
                self.spill(probe, o);
                *v = st.li[r as usize];
            }
            probe.exec(code.exec, cost);
            let raw = eval_raw(op, &meta.params[..param_count(op)], &ins);
            let v = canon.apply(raw);
            probe.store(li_addr(s));
            self.o0_result(probe, code.result);
            st.li[s as usize] = v;
        }
    }

    /// The variable-arity `S` loop (mux chains): operand runs located
    /// through `r_offsets`, staged in the state's scratch buffer.
    #[allow(clippy::too_many_arguments)]
    fn chain_loop<P: Probe>(
        &self,
        oim: &OimSwizzled,
        st: &mut LiState,
        probe: &mut P,
        op: DfgOp,
        range: Range<usize>,
        code: GroupCode,
        s_unroll: usize,
    ) {
        for (j, k) in range.enumerate() {
            if j % s_unroll == 0 {
                probe.branch(code.back_edge);
            }
            let (s, rs, meta) = oim.op_at(k);
            probe.load(oim_addr(OimArray::SCoords, k, 4));
            if reads_meta(op) {
                probe.load(oim_addr(OimArray::Meta, k, 24));
            }
            let r_base = oim.r_offsets[k] as usize;
            let li = &st.li;
            let params = &meta.params[..param_count(op)];
            let raw = eval_staged(op, params, rs.len(), &mut st.scratch, |o| {
                probe.load(oim_addr(OimArray::RCoords, r_base + o, 4));
                probe.load(li_addr(rs[o]));
                self.spill(probe, o);
                li[rs[o] as usize]
            });
            probe.exec(code.exec, exec_cost(op, rs.len()) * self.o0_mul());
            let v = self.canon[k].apply(raw);
            probe.store(li_addr(s));
            self.o0_result(probe, code.result);
            st.li[s as usize] = v;
        }
    }
}

/// Whether a type's specialized loop reads the per-op side table: widths
/// and masks are baked into the code, so only ops with per-op parameters
/// (or a per-op operand count) do.
#[inline]
fn reads_meta(op: DfgOp) -> bool {
    param_count(op) > 0 || op == DfgOp::MuxChain
}

/// Real static-parameter count of an op (the meta table stores two slots).
#[inline]
pub(crate) fn param_count(op: DfgOp) -> usize {
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
    b <= tail(sub(a, x), 1)
    out <= a
    flag <= orr(b)
";

    fn plan_of(src: &str) -> SimPlan {
        plan(&rteaal_dfg::build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap())
    }

    fn rolled_kinds() -> [KernelKind; 5] {
        [
            KernelKind::Ru,
            KernelKind::Ou,
            KernelKind::Nu,
            KernelKind::Psu,
            KernelKind::Iu,
        ]
    }

    #[test]
    fn all_rolled_kernels_match_plan_sim() {
        let p = plan_of(DESIGN);
        for kind in rolled_kinds() {
            let kernel = RolledKernel::compile(&p, KernelConfig::new(kind));
            let mut st = LiState::new(&p);
            let mut golden = PlanSim::new(&p);
            let mut rng = rand::rngs::StdRng::seed_from_u64(kind as u64);
            for _ in 0..200 {
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
    fn profiled_execution_is_bit_identical() {
        let p = plan_of(DESIGN);
        for kind in rolled_kinds() {
            let kernel = RolledKernel::compile(&p, KernelConfig::new(kind));
            let mut fast = LiState::new(&p);
            let mut prof = LiState::new(&p);
            let mut mem = Machine::intel_core().mem_sim();
            let mut probe = MemProbe::new(&mut mem);
            for c in 0..50u64 {
                fast.set_input(0, c * 7);
                fast.set_input(1, c & 1);
                prof.set_input(0, c * 7);
                prof.set_input(1, c & 1);
                kernel.step(&mut fast, &mut NoProbe);
                kernel.step(&mut prof, &mut probe);
                assert_eq!(fast.output(0), prof.output(0));
            }
            assert!(probe.counters.instructions > 0);
        }
    }

    /// A design large enough that per-op costs dominate per-layer and
    /// per-type overheads (the regime the paper's designs live in).
    fn big_design() -> String {
        let mut src = String::from(
            "\
circuit Big :
  module Big :
    input clock : Clock
    input x : UInt<32>
    output out : UInt<32>
",
        );
        for i in 0..300 {
            src.push_str(&format!("    reg r{i} : UInt<32>, clock\n"));
        }
        src.push_str("    r0 <= tail(add(r299, x), 1)\n");
        for i in 1..300 {
            let op = ["xor", "and", "or"][i % 3];
            src.push_str(&format!("    r{i} <= {op}(r{}, x)\n", i - 1));
        }
        src.push_str("    out <= r299\n");
        src
    }

    #[test]
    fn dynamic_instructions_decrease_with_unrolling() {
        // Table 5's left-to-right trend: RU > OU > NU > PSU >= IU.
        let p = plan_of(&big_design());
        let mut counts = Vec::new();
        for kind in rolled_kinds() {
            let kernel = RolledKernel::compile(&p, KernelConfig::new(kind));
            let mut st = LiState::new(&p);
            let mut mem = Machine::intel_core().mem_sim();
            let mut probe = MemProbe::new(&mut mem);
            for _ in 0..20 {
                kernel.step(&mut st, &mut probe);
            }
            counts.push(probe.counters.instructions);
        }
        assert!(
            counts[0] > counts[1],
            "RU {} !> OU {}",
            counts[0],
            counts[1]
        );
        assert!(
            counts[1] > counts[2],
            "OU {} !> NU {}",
            counts[1],
            counts[2]
        );
        assert!(
            counts[2] > counts[3],
            "NU {} !> PSU {}",
            counts[2],
            counts[3]
        );
        assert!(
            counts[3] >= counts[4],
            "PSU {} !>= IU {}",
            counts[3],
            counts[4]
        );
    }

    #[test]
    fn branch_counts_drop_with_unrolling() {
        let p = plan_of(DESIGN);
        let count = |kind| {
            let kernel = RolledKernel::compile(&p, KernelConfig::new(kind));
            let mut st = LiState::new(&p);
            let mut mem = Machine::intel_core().mem_sim();
            let mut probe = MemProbe::new(&mut mem);
            for _ in 0..20 {
                kernel.step(&mut st, &mut probe);
            }
            probe.counters.branches
        };
        assert!(count(KernelKind::Ru) > count(KernelKind::Nu));
        assert!(count(KernelKind::Nu) > count(KernelKind::Psu));
    }

    #[test]
    fn iu_code_grows_beyond_psu() {
        // Table 4: IU 0.91 MB vs PSU 0.35 MB (here: relative, not absolute).
        let p = plan_of(DESIGN);
        let psu = RolledKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
        let iu = RolledKernel::compile(&p, KernelConfig::new(KernelKind::Iu));
        assert!(iu.code_bytes() > psu.code_bytes());
        assert_eq!(psu.data_bytes(), iu.data_bytes());
    }

    #[test]
    fn o0_analog_inflates_instruction_count() {
        let p = plan_of(&big_design());
        let run = |cfg| {
            let kernel = RolledKernel::compile(&p, cfg);
            let mut st = LiState::new(&p);
            let mut mem = Machine::intel_core().mem_sim();
            let mut probe = MemProbe::new(&mut mem);
            for _ in 0..20 {
                kernel.step(&mut st, &mut probe);
            }
            probe.counters.instructions
        };
        let o3 = run(KernelConfig::new(KernelKind::Psu));
        let o0 = run(KernelConfig::unoptimized(KernelKind::Psu));
        let ratio = o0 as f64 / o3 as f64;
        assert!(ratio > 1.5 && ratio < 8.0, "ratio = {ratio}"); // paper: ~3.8x
    }

    #[test]
    fn o0_behavior_is_unchanged() {
        let p = plan_of(DESIGN);
        let k3 = RolledKernel::compile(&p, KernelConfig::new(KernelKind::Nu));
        let k0 = RolledKernel::compile(&p, KernelConfig::unoptimized(KernelKind::Nu));
        let mut s3 = LiState::new(&p);
        let mut s0 = LiState::new(&p);
        for c in 0..50u64 {
            s3.set_input(0, c * 13);
            s0.set_input(0, c * 13);
            k3.step(&mut s3, &mut NoProbe);
            k0.step(&mut s0, &mut NoProbe);
            assert_eq!(s3.output(0), s0.output(0));
        }
    }
}
