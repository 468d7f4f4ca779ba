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
//!   full match; NU, PSU and IU run **the same machine code** — one walk
//!   (`RolledKernel::step_grouped`) over the occupied `(layer, type)`
//!   groups of format (c), the `N` rank read compressed, dispatching once
//!   per group into a loop specialized for that opcode and arity over one
//!   packed `OpRecord` per op. Their wall-clock rates read alike.
//!   That walk does only what the paper's loop does: `LI` is bounds
//!   checked once per `step` (every slot a record or chain names was
//!   checked against the plan at compile time), a group whose results are
//!   all unsigned or 64 bits wide canonicalizes by the mask alone (the
//!   sign-extending shift pair only runs in a group that holds a signed
//!   narrower op), and a mux chain reads its operands from `LI` in
//!   priority order and stops at the first true condition.
//! - Modeled only: RU's `sel_inputs` staging traffic (RU and OU both
//!   stage operands in a stack array), everything that tells NU, PSU and
//!   IU apart — the scan of the uncompressed `N` rank (all 40 counts of
//!   every layer, which NU/PSU account and IU does not), PSU's 8×/24×
//!   partial unrolling (back-edge accounting), the per-group code bodies
//!   of IU — and the `-O0` analog's spills. The model still loads every
//!   operand of a mux chain, in order, where the walk stops at the first
//!   true condition.

use crate::config::{KernelConfig, KernelKind, OptLevel};
use crate::profile::{li_addr, oim_addr, OimArray, Probe, CODE_BASE, HANDLER_BYTES};
use crate::state::{eval_staged, Canon, LiState, MAX_FIXED_ARITY};
use rteaal_dfg::op::{eval_raw, DfgOp, OpClass, ALL_OPS, NUM_OPCODES};
use rteaal_dfg::SimPlan;
use rteaal_tensor::oim::{OimOptimized, OimSwizzled, OpMeta};
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
    /// The loop `s_loop` bytes into the code at `base`: opcode `n`'s
    /// shared handler enters its loop past a prologue (NU/PSU), one of
    /// IU's per-group bodies is all loop.
    fn at(base: u64, s_loop: u64) -> Self {
        GroupCode {
            back_edge: base + s_loop,
            exec: base + s_loop + 0x10,
            result: base,
        }
    }
}

/// One occupied `(layer, type)` group of format (c): the unit NU, PSU and
/// IU dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Group {
    op: DfgOp,
    /// `layer × NUM_OPCODES + type`: the group's coordinate in the
    /// uncompressed `N` rank the model scans.
    index: u32,
    /// Range into `records` (and the swizzled op arrays).
    start: u32,
    len: u32,
    /// Start of the group's operand run in `r_coords`.
    r_base: u32,
    /// Every record of the group has `shift == 0`: its loop canonicalizes
    /// by the mask alone.
    mask_only: bool,
}

/// One op of format (c) as the grouped walk reads it: output slot,
/// operand slots, result canonicalization and static parameters in one
/// record, in traversal order. Kernel-side, like `canon`: the OIM arrays
/// and their size accounting are unchanged, and the modeled stream still
/// addresses them. A mux chain's operands stay in `r_coords`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpRecord {
    /// [`Canon`]'s mask and shift.
    mask: u64,
    s: u32,
    r: [u32; MAX_FIXED_ARITY],
    shift: u8,
    params: [u8; 2],
}

const _: () = assert!(std::mem::size_of::<OpRecord>() <= 32);

impl OpRecord {
    /// The result canonicalized by the record's pair; `MASK_ONLY` (the
    /// record's group has no signed op narrower than 64 bits) leaves out
    /// the shift pair, a no-op at shift 0.
    #[inline(always)]
    fn canon<const MASK_ONLY: bool>(&self, raw: u64) -> u64 {
        if MASK_ONLY {
            raw & self.mask
        } else {
            Canon {
                mask: self.mask,
                shift: self.shift as u32,
            }
            .apply(raw)
        }
    }
}

/// A compiled rolled kernel.
#[derive(Debug, Clone)]
pub struct RolledKernel {
    cfg: KernelConfig,
    /// Format (b) arrays (RU/OU).
    oim_b: Option<OimOptimized>,
    /// Format (c) arrays (NU/PSU/IU).
    oim_c: Option<OimSwizzled>,
    /// The occupied groups of format (c), in traversal order.
    schedule: Vec<Group>,
    /// One record per op of format (c), in traversal order.
    records: Vec<OpRecord>,
    /// The plan's slot count: every slot a record or a mux chain of
    /// format (c) names is below it (checked by `compile`).
    num_slots: usize,
    /// Distinct opcodes used (handler footprint).
    used_opcodes: usize,
    /// Each op's result canonicalization in format (b)'s traversal order
    /// (kernel-side: the OIM side table keeps width and signedness, and
    /// its size accounting is unchanged).
    canon: Vec<Canon>,
}

impl RolledKernel {
    /// Compiles a plan for the given rolled-kernel configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.kind` is SU or TI (see `crate::unrolled`), if a
    /// layer holds a source op (input, register state, constant), a
    /// fixed-arity op carries another operand count or a static parameter
    /// that does not fit its record field, a mux chain has no operand, or
    /// an op names a slot past the plan's `num_slots` (the plan verifier
    /// rejects such plans; the per-type loops index operands by arity and
    /// read and write `LI` unchecked).
    pub fn compile(plan: &SimPlan, cfg: KernelConfig) -> Self {
        assert!(
            !cfg.kind.is_unrolled(),
            "SU/TI are handled by UnrolledKernel"
        );
        let mut used = [false; NUM_OPCODES];
        for op in plan.layers.iter().flatten() {
            used[op.n as usize] = true;
            assert!(
                op.op().class() != OpClass::Source,
                "source op `{}` in a layer",
                op.op()
            );
            let arity = op.op().arity();
            assert!(
                arity.map_or(!op.ins.is_empty(), |a| a == op.ins.len()),
                "`{}` with {} operands",
                op.op(),
                op.ins.len()
            );
        }
        let mut kernel = RolledKernel {
            cfg,
            oim_b: None,
            oim_c: None,
            schedule: Vec::new(),
            records: Vec::new(),
            num_slots: plan.num_slots,
            used_opcodes: used.iter().filter(|&&u| u).count(),
            canon: Vec::new(),
        };
        let canon = |m: &OpMeta| Canon::new(m.width as u32, m.signed);
        if matches!(cfg.kind, KernelKind::Ru | KernelKind::Ou) {
            let oim = OimOptimized::from_plan(plan);
            kernel.canon = oim.meta.iter().map(canon).collect();
            kernel.oim_b = Some(oim);
            return kernel;
        }
        let oim = OimSwizzled::from_plan(plan);
        let in_plan = |s: &u32| (*s as usize) < plan.num_slots;
        assert!(
            oim.s_coords.iter().chain(&oim.r_coords).all(in_plan),
            "an op names a slot past the plan's {}",
            plan.num_slots
        );
        let narrow = |p: u64| u8::try_from(p).expect("static parameter fits its record field");
        kernel.records = (0..oim.num_ops())
            .map(|k| {
                let (s, rs, meta) = oim.op_at(k);
                let Canon { mask, shift } = canon(meta);
                OpRecord {
                    mask,
                    s,
                    r: std::array::from_fn(|o| rs.get(o).copied().unwrap_or(0)),
                    shift: shift as u8,
                    params: meta.params.map(narrow),
                }
            })
            .collect();
        for (index, bounds) in oim.group_offsets.windows(2).enumerate() {
            let records = &kernel.records[bounds[0] as usize..bounds[1] as usize];
            if !records.is_empty() {
                kernel.schedule.push(Group {
                    op: ALL_OPS[index % NUM_OPCODES],
                    index: index as u32,
                    start: bounds[0],
                    len: bounds[1] - bounds[0],
                    r_base: oim.r_offsets[bounds[0] as usize],
                    mask_only: records.iter().all(|rec| rec.shift == 0),
                });
            }
        }
        kernel.oim_c = Some(oim);
        kernel
    }

    /// Static code footprint of the kernel (the Table 4 "binary size"
    /// analog, excluding the OIM data).
    pub(crate) fn code_bytes(&self) -> u64 {
        let interpreter = 0x1000; // loops, dispatch, commit
        let handlers = self.used_opcodes as u64 * HANDLER_BYTES;
        let groups = match self.cfg.kind {
            KernelKind::Iu => self.schedule.len() as u64 * IU_GROUP_BYTES,
            _ => 0, // every group of a type runs through its shared handler
        };
        interpreter + handlers + groups
    }

    /// In-memory bytes of the OIM arrays the kernel traverses (D-cache
    /// resident data).
    pub(crate) fn data_bytes(&self) -> u64 {
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
            KernelKind::Nu | KernelKind::Psu | KernelKind::Iu => self.step_grouped(st, probe),
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

    /// NU, PSU and IU: Algorithm 4 over the swizzled format, the `N` rank
    /// read compressed — one walk over the occupied groups, dispatching
    /// on the opcode once per group into that type's own `S` loop. The
    /// kinds differ only in the model: NU and PSU account the scan of the
    /// uncompressed rank and run every group of a type through its shared
    /// handler; IU accounts no scan and gives each group its own body;
    /// `s_unroll` amortizes the per-op loop overhead (1 = NU).
    ///
    /// `LI` is bounds checked here, once: past the assert the loops read
    /// and write it unchecked.
    fn step_grouped<P: Probe>(&self, st: &mut LiState, probe: &mut P) {
        let oim = self.oim_c.as_ref().expect("NU/PSU/IU use format (c)");
        assert!(
            st.li.len() >= self.num_slots,
            "`LI` holds {} slots; the kernel addresses {}",
            st.li.len(),
            self.num_slots
        );
        let scans = self.cfg.kind != KernelKind::Iu;
        let s_unroll = match self.cfg.kind {
            KernelKind::Nu => 1,
            _ => self.cfg.psu_op_unroll.max(1),
        };
        let mut scanned = 0;
        for (g, group) in self.schedule.iter().enumerate() {
            let code = if scans {
                let upto = group.index as usize + 1;
                self.account(probe, scanned..upto);
                scanned = upto;
                GroupCode::at(handler(group.op.n_coord()), 0x40)
            } else {
                GroupCode::at(IU_GROUP_BASE + g as u64 * IU_GROUP_BYTES, 0)
            };
            let first = group.start as usize;
            let records = &self.records[first..first + group.len as usize];
            // Each arm passes its opcode as a literal into an inlined
            // loop, so `eval_raw`'s match folds away inside every body;
            // each opcode has a mask-only body and a general one.
            macro_rules! per_type {
                ($($arity:literal: $($op:ident)|+;)+) => {
                    match (group.op, group.mask_only) {
                        $($(
                            (DfgOp::$op, true) => self.fixed_loop::<$arity, true, P>(
                                st, probe, DfgOp::$op, group, records, code, s_unroll,
                            ),
                            (DfgOp::$op, false) => self.fixed_loop::<$arity, false, P>(
                                st, probe, DfgOp::$op, group, records, code, s_unroll,
                            ),
                        )+)+
                        (DfgOp::MuxChain, true) => {
                            self.chain_loop::<true, P>(oim, st, probe, group, records, code, s_unroll)
                        }
                        (DfgOp::MuxChain, false) => {
                            self.chain_loop::<false, P>(oim, st, probe, group, records, code, s_unroll)
                        }
                        _ => unreachable!("`compile` admits no source op into a layer"),
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
        if scans {
            self.account(probe, scanned..oim.n_payloads.len());
        }
    }

    /// The scan of the uncompressed `N` rank, as the paper's NU and PSU
    /// perform it: the layer loop's branch at each layer boundary, then
    /// each type's count load and check. Model only — the walk knows its
    /// occupied groups, and under `NoProbe` this is an empty loop.
    #[inline(always)]
    fn account<P: Probe>(&self, probe: &mut P, counts: Range<usize>) {
        for c in counts {
            let n = c % NUM_OPCODES;
            if n == 0 {
                probe.branch(LOOP_ADDR);
            }
            // Unrolled N rank: each type's loop reads its own count.
            probe.load(oim_addr(OimArray::NPayloads, c, 4));
            probe.exec(handler(n as u16), self.o0_mul()); // the count check itself
        }
    }

    /// One type's `S` loop at fixed arity `A` over the group's records;
    /// the model addresses operand `o` of the `j`-th op where format (c)
    /// keeps it, at `r_coords[r_base + A * j + o]`. `MASK_ONLY` is the
    /// group's flag.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn fixed_loop<const A: usize, const MASK_ONLY: bool, P: Probe>(
        &self,
        st: &mut LiState,
        probe: &mut P,
        op: DfgOp,
        group: &Group,
        records: &[OpRecord],
        code: GroupCode,
        s_unroll: usize,
    ) {
        debug_assert_eq!(op.arity(), Some(A));
        let (first, r_base) = (group.start as usize, group.r_base as usize);
        let cost = exec_cost(op, A) * self.o0_mul();
        for (j, rec) in records.iter().enumerate() {
            if j % s_unroll == 0 {
                probe.branch(code.back_edge);
            }
            probe.load(oim_addr(OimArray::SCoords, first + j, 4));
            // Widths and masks are baked into a type's loop: only per-op
            // parameters send it to the side table.
            if param_count(op) > 0 {
                probe.load(oim_addr(OimArray::Meta, first + j, 24));
            }
            let mut ins = [0u64; A];
            for (o, (v, &r)) in ins.iter_mut().zip(&rec.r).enumerate() {
                probe.load(oim_addr(OimArray::RCoords, r_base + A * j + o, 4));
                probe.load(li_addr(r));
                self.spill(probe, o);
                // SAFETY: `compile` checked every operand slot against
                // `num_slots`, and `step_grouped` asserted `LI` holds
                // that many.
                *v = unsafe { *st.li.get_unchecked(r as usize) };
            }
            probe.exec(code.exec, cost);
            let params = rec.params.map(u64::from);
            let raw = eval_raw(op, &params[..param_count(op)], &ins);
            let v = rec.canon::<MASK_ONLY>(raw);
            probe.store(li_addr(rec.s));
            self.o0_result(probe, code.result);
            // SAFETY: as for the operands: the output slot was checked by
            // `compile` against `num_slots`, asserted held by `LI`.
            unsafe { *st.li.get_unchecked_mut(rec.s as usize) = v };
        }
    }

    /// The variable-arity `S` loop (mux chains): operand runs located
    /// through `r_offsets`, read from `LI` in priority order up to the
    /// first true condition. The model loads every operand first, as
    /// staging them would.
    #[allow(clippy::too_many_arguments)]
    fn chain_loop<const MASK_ONLY: bool, P: Probe>(
        &self,
        oim: &OimSwizzled,
        st: &mut LiState,
        probe: &mut P,
        group: &Group,
        records: &[OpRecord],
        code: GroupCode,
        s_unroll: usize,
    ) {
        let op = DfgOp::MuxChain;
        for (j, rec) in records.iter().enumerate() {
            if j % s_unroll == 0 {
                probe.branch(code.back_edge);
            }
            let k = group.start as usize + j;
            probe.load(oim_addr(OimArray::SCoords, k, 4));
            probe.load(oim_addr(OimArray::Meta, k, 24)); // the per-op operand count
            let (r_base, r_end) = (oim.r_offsets[k] as usize, oim.r_offsets[k + 1] as usize);
            let rs = &oim.r_coords[r_base..r_end];
            for (o, &r) in rs.iter().enumerate() {
                probe.load(oim_addr(OimArray::RCoords, r_base + o, 4));
                probe.load(li_addr(r));
                self.spill(probe, o);
            }
            // SAFETY: `group.op` is `MuxChain` (`step_grouped`'s match),
            // and `compile` checked that a chain has operands and that
            // every slot in `r_coords` is below `num_slots`;
            // `step_grouped` asserted `LI` holds that many.
            let raw = unsafe { chain_select(&st.li, rs) };
            probe.exec(code.exec, exec_cost(op, rs.len()) * self.o0_mul());
            let v = rec.canon::<MASK_ONLY>(raw);
            probe.store(li_addr(rec.s));
            self.o0_result(probe, code.result);
            // SAFETY: the output slot was checked by `compile` against
            // `num_slots`, asserted held by `LI` in `step_grouped`.
            unsafe { *st.li.get_unchecked_mut(rec.s as usize) = v };
        }
    }
}

/// `eval_raw`'s mux chain over the operand slots `rs` (`[c0, v0, c1, v1,
/// …, default]`), read from `li` in priority order: the value of the
/// first nonzero condition, else the default — nothing is staged, and no
/// operand past the first true condition is read.
///
/// # Safety
///
/// `rs` is not empty and every slot in it is below `li.len()`.
#[inline(always)]
unsafe fn chain_select(li: &[u64], rs: &[u32]) -> u64 {
    // SAFETY: `rs` is not empty (the caller's contract).
    let (&default, pairs) = unsafe { rs.split_last().unwrap_unchecked() };
    for pair in pairs.chunks_exact(2) {
        // SAFETY: every slot of `rs` is below `li.len()` (the caller's
        // contract).
        unsafe {
            if *li.get_unchecked(pair[0] as usize) != 0 {
                return *li.get_unchecked(pair[1] as usize);
            }
        }
    }
    // SAFETY: as for the pairs.
    unsafe { *li.get_unchecked(default as usize) }
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
    use rteaal_dfg::passes::{optimize, PassOptions};
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

    /// Records the `NPayloads` indices a walk loads, in order.
    struct ScanProbe(Vec<usize>);

    impl Probe for ScanProbe {
        fn load(&mut self, addr: u64) {
            let base = oim_addr(OimArray::NPayloads, 0, 4);
            if (base..oim_addr(OimArray::Meta, 0, 4)).contains(&addr) {
                self.0.push(((addr - base) / 4) as usize);
            }
        }
    }

    #[test]
    fn nu_and_psu_model_the_whole_n_rank_scan_and_iu_models_none() {
        // The walk reads the rank compressed; the model must not follow.
        let core = lower_typed(&rteaal_designs::Workload::param_sum_circuit()).unwrap();
        let core = rteaal_dfg::build(&core).unwrap();
        let core = plan(&optimize(&core, &PassOptions::default()).0);
        assert_eq!((core.total_ops(), core.layers.len()), (274, 22));
        let small = plan_of(DESIGN);
        let last = small.layers.last().unwrap();
        assert!(
            last.iter().all(|op| op.op() != DfgOp::MuxChain),
            "counts trail the last group"
        );
        for p in [core, small] {
            for kind in [KernelKind::Nu, KernelKind::Psu, KernelKind::Iu] {
                let kernel = RolledKernel::compile(&p, KernelConfig::new(kind));
                let mut probe = ScanProbe(Vec::new());
                kernel.step(&mut LiState::new(&p), &mut probe);
                let scanned = match kind {
                    KernelKind::Iu => 0,
                    _ => p.layers.len() * NUM_OPCODES,
                };
                assert_eq!(probe.0, (0..scanned).collect::<Vec<_>>(), "{kind:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "static parameter")]
    fn a_parameter_past_its_record_field_does_not_compile() {
        let mut p = plan_of(DESIGN);
        let mut ops = p.layers.iter_mut().flatten();
        let bits = ops.find(|op| op.op() == DfgOp::Bits).unwrap();
        bits.params[0] = 300;
        RolledKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
    }

    /// What stepping `kernel` over `st` panics with.
    fn refusal(kernel: &RolledKernel, mut st: LiState) -> String {
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kernel.step(&mut st, &mut NoProbe)
        }));
        let payload = stepped.expect_err("the step was refused");
        payload.downcast::<String>().map(|m| *m).unwrap_or_default()
    }

    #[test]
    fn a_state_too_small_for_the_plan_is_refused_before_any_access() {
        // `li` is a public field: only `step` can check it, once.
        let big = plan_of(&big_design());
        let small = plan_of(DESIGN);
        for kind in [KernelKind::Nu, KernelKind::Psu, KernelKind::Iu] {
            let kernel = RolledKernel::compile(&big, KernelConfig::new(kind));
            let other_plan = refusal(&kernel, LiState::new(&small));
            let want = format!("`LI` holds {} slots; the kernel addresses", small.num_slots);
            assert!(other_plan.starts_with(&want), "{kind:?}: {other_plan}");
            let mut truncated = LiState::new(&big);
            truncated.li.pop();
            let message = refusal(&kernel, truncated);
            let want = format!(
                "`LI` holds {} slots; the kernel addresses",
                big.num_slots - 1
            );
            assert!(message.starts_with(&want), "{kind:?}: {message}");
        }
    }

    #[test]
    #[should_panic(expected = "source op `const` in a layer")]
    fn a_source_op_in_a_layer_does_not_compile() {
        // A constant has arity 0, so the operand-count check alone would
        // let it reach the walk, which only handles computing ops.
        let mut p = plan_of(DESIGN);
        let op = p.layers.iter_mut().flatten().next().unwrap();
        op.n = DfgOp::Const.n_coord();
        op.ins.clear();
        op.params = vec![0];
        RolledKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
    }

    #[test]
    #[should_panic(expected = "names a slot past the plan's")]
    fn an_operand_past_the_plan_does_not_compile() {
        let mut p = plan_of(DESIGN);
        let op = p.layers.iter_mut().flatten().next().unwrap();
        op.ins[0] = p.num_slots as u32;
        RolledKernel::compile(&p, KernelConfig::new(KernelKind::Iu));
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
