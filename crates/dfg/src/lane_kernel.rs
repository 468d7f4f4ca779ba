//! Plan-load-time kernel compilation: from interpreted [`OpInst`]s to
//! specialized lane kernels.
//!
//! The batched interpreter pays full dispatch tax in its inner loop:
//! [`OpInst::eval_lanes_ptr`] re-enters the 40-way `eval_raw` opcode match
//! and re-derives the canonicalization mask *per lane, per op, per cycle*,
//! which blocks autovectorization. This module lowers each [`OpInst`] into
//! a [`CompiledOp`] once, at plan-load time: a monomorphized
//! `unsafe fn(*mut u64, &KernelArgs, LaneWindow)` chosen from a
//! per-(opcode × arity × signedness) kernel table, with the opcode
//! dispatch, operand base offsets, static parameters, and the
//! width/sign canonicalization all resolved up front and folded into a
//! stride-1 inner loop. **Every** schedulable op has a lane kernel: the
//! fixed-arity ones run a branch-free body over `CHUNK`-lane chunks,
//! and the one variable-arity op, the mux chain, runs a select cascade
//! over the same chunks (`run_chain`) — nothing is staged per lane and
//! nothing re-enters `eval_raw`.
//!
//! The one set of bodies is plain scalar Rust (no `std::arch`
//! intrinsics) that LLVM autovectorizes, and it is instantiated once per
//! table by `kernel_table!`: `baseline` compiles for the target's
//! baseline — SSE2 on x86-64, two `u64` lanes per instruction; NEON on
//! aarch64 — and, on x86-64 only, `avx2` compiles the same source under
//! `#[target_feature(enable = "avx2")]`, four lanes per instruction.
//! [`CompiledOp::compile`] picks the table once per op: `avx2` if
//! `is_x86_feature_detected!("avx2")`, else `baseline`. No build flag,
//! configuration field or environment variable is involved, so the
//! binary starts on any x86-64.
//!
//! Semantics are bit-identical to `eval_raw` + [`canonicalize`] per lane
//! by construction, and enforced by differential tests against every
//! table the host supports (unit tests here, a proptest sweep in
//! `tests/lane_kernel_props.rs`, and the whole-design equivalence suite
//! in the workspace `tests/`). The interpreted walk is retained as the
//! golden model — see [`BatchEngine`].
//!
//! ## Unsafe audit
//!
//! Every kernel here is an `unsafe fn` over a raw `*mut u64` matrix; the
//! single safety contract is documented on [`CompiledOp::eval_lanes_ptr`]
//! and threaded through [`KernelFn`], `run`, `run_chain`, and each
//! generated body as explicit `// SAFETY:` blocks
//! (`unsafe_op_in_unsafe_fn` is denied). The bounds side of the contract
//! — every folded slot offset `< num_slots` — is *proven statically* per
//! design by [`crate::analyze::analyze_compiled`] and mirrored
//! dynamically by `debug_assert!`s on the safe entry points. The
//! instruction-set side is carried by a type: see [`LaneIsa`].

#![deny(unsafe_op_in_unsafe_fn)]

use crate::op::{canonicalize, DfgOp};
use crate::plan::{OpInst, SimPlan};
use rteaal_firrtl::ty::mask;

/// Which executor a batch simulator walks its layers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BatchEngine {
    /// Per-lane `eval_raw` dispatch (the differential-testing golden
    /// model).
    Interpreted,
    /// Pre-specialized lane kernels compiled by this module.
    #[default]
    Compiled,
}

/// The active window of a slot-major lane matrix: slot `s` occupies
/// `li[s * stride .. s * stride + stride]`, and kernels evaluate the
/// `active`-lane prefix of every row (lane-liveness early exit shrinks
/// `active` below `stride` as lanes finish).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWindow {
    /// Row stride: total allocated lanes per slot.
    pub stride: usize,
    /// Evaluated prefix (`active <= stride`).
    pub active: usize,
}

impl LaneWindow {
    /// A window covering every allocated lane.
    pub fn full(lanes: usize) -> Self {
        LaneWindow {
            stride: lanes,
            active: lanes,
        }
    }
}

/// Pre-resolved arguments of one compiled operation: everything the
/// interpreted path re-derived per lane, folded once at compile time.
#[derive(Debug, Clone)]
pub struct KernelArgs {
    /// Output slot.
    out: u32,
    /// First three operand slots (unused trail as 0; the kernel arity
    /// decides how many are read).
    a: u32,
    b: u32,
    c: u32,
    /// Static parameters 0/1 (bit indices, widths, shift amounts; for
    /// `Const`, `p0` holds the already-canonicalized value).
    p0: u64,
    p1: u64,
    /// Result width mask (unsigned canonicalization).
    msk: u64,
    /// `64 - width` (signed canonicalization shift).
    sh: u32,
    /// Opcode and result signedness, for the plan verifier (the kernels
    /// bake both into their function identity).
    n: u16,
    signed: bool,
    /// The whole operand list of the one variable-arity op, a mux chain
    /// (`[c0, v0, c1, v1, .., default]`); `None` for every other op.
    var: Option<Box<VarArgs>>,
    /// Highest `LI` slot this op references (output or any operand) —
    /// the bound the static verifier proves and the safe entry points
    /// `debug_assert!`.
    max_slot: u32,
}

/// Operand slots of a mux chain, behind a thin pointer so that
/// [`KernelArgs`] stays 64 bytes for the fixed-arity majority.
#[derive(Debug, Clone)]
struct VarArgs {
    ins: Box<[u32]>,
}

/// A specialized lane kernel: evaluates one operation over the active
/// lanes of a slot-major `LI` matrix.
///
/// # Safety
///
/// The contract every `KernelFn` body relies on (identical to
/// [`CompiledOp::eval_lanes_ptr`]; callers must uphold all three):
///
/// 1. the pointer addresses a live slot-major matrix of `w.stride` lanes
///    per slot with at least `KernelArgs::max_slot + 1` rows, so every
///    folded offset `slot * w.stride + lane` is in bounds;
/// 2. `w.active <= w.stride`, so the evaluated lane prefix never leaves
///    its row;
/// 3. no other thread concurrently accesses the output row or mutates an
///    operand row for the duration of the call.
///
/// (1) is exactly what [`crate::analyze::analyze_compiled`] proves per
/// design against the plan's `num_slots`. A kernel of the `avx2` table
/// additionally needs a CPU with AVX2, which [`LaneIsa`] attests.
pub type KernelFn = unsafe fn(*mut u64, &KernelArgs, LaneWindow);

/// Which instantiation of the kernel table a [`CompiledOp`] points into.
/// The field is private and `detect` is the only place that sets it, so
/// a `CompiledOp` holds an `avx2` function pointer only if detection
/// succeeded in this process.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneIsa {
    avx2: bool,
}

impl LaneIsa {
    /// The widest table this CPU runs (std caches the feature test).
    fn detect() -> LaneIsa {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        LaneIsa { avx2 }
    }

    /// Every table this CPU runs, baseline first — what the differential
    /// tests sweep.
    pub fn supported() -> Vec<LaneIsa> {
        let (baseline, best) = (LaneIsa { avx2: false }, LaneIsa::detect());
        if best == baseline {
            vec![baseline]
        } else {
            vec![baseline, best]
        }
    }

    /// The kernel for an opcode/arity/signedness triple in this table;
    /// `None` for a source op or an arity `check_op_shape` rejects.
    fn kernel(self, op: DfgOp, arity: usize, signed: bool) -> Option<KernelFn> {
        // SAFETY (of every later call through the pointer): `self.avx2`
        // is `detect`'s answer, so an `avx2` kernel leaves here only on a
        // CPU that has the instructions it was compiled to.
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            return avx2::kernel_table(op, arity, signed);
        }
        baseline::kernel_table(op, arity, signed)
    }
}

/// Unsigned canonicalization folded into a kernel body.
#[inline(always)]
fn cu(raw: u64, args: &KernelArgs) -> u64 {
    raw & args.msk
}

/// Signed canonicalization folded into a kernel body:
/// `sext(raw & mask, width)` as two shifts.
#[inline(always)]
fn cs(raw: u64, args: &KernelArgs) -> u64 {
    (((raw & args.msk) << args.sh) as i64 >> args.sh) as u64
}

/// Lanes per iteration of the drivers' main loops. A chunk's loads all
/// precede its stores (staged through an array that lives in registers),
/// so the unrolled body vectorizes without an alias check: two 256-bit
/// vectors per row under AVX2, four 128-bit ones at the SSE2 baseline.
const CHUNK: usize = 8;

/// Runs an `N`-operand body (`N <= 3`: rows `a`, `b`, `c`) over the
/// active lanes, `CHUNK` lanes at a time and then lane by lane.
///
/// # Safety
///
/// As [`CompiledOp::eval_lanes_ptr`].
#[inline(always)]
unsafe fn run<const N: usize>(
    li: *mut u64,
    args: &KernelArgs,
    w: LaneWindow,
    f: impl Fn([u64; N]) -> u64,
) {
    debug_assert!(w.active <= w.stride, "lane window outgrew its stride");
    let rows = [args.a, args.b, args.c];
    debug_assert!(rows[..N].iter().all(|&r| r <= args.max_slot) && args.out <= args.max_slot);
    // SAFETY: per the `KernelFn` contract, `li` spans `>= max_slot + 1`
    // rows of `w.stride` lanes and the output and operand rows are
    // `<= max_slot`, so every `row + lane` offset below (`lane < w.active
    // <= w.stride`) stays in bounds; the output row is exclusively ours
    // for the call.
    unsafe {
        let out = li.add(args.out as usize * w.stride);
        let p: [*const u64; N] =
            std::array::from_fn(|i| li.add(rows[i] as usize * w.stride).cast_const());
        let n = w.active;
        let mut lane = 0;
        while lane + CHUNK <= n {
            let r: [u64; CHUNK] = std::array::from_fn(|k| f(p.map(|p| *p.add(lane + k))));
            for (k, r) in r.into_iter().enumerate() {
                *out.add(lane + k) = r;
            }
            lane += CHUNK;
        }
        while lane < n {
            *out.add(lane) = f(p.map(|p| *p.add(lane)));
            lane += 1;
        }
    }
}

/// Runs a mux chain `[c0, v0, c1, v1, .., default]` over the active
/// lanes as a select cascade: the accumulator starts as the default row
/// and the pairs are applied **last to first**, so the lowest true
/// condition wins, as in `eval_raw`. Every row is read stride-1, once
/// per chunk; `canon` is `cu` or `cs` of the result.
///
/// # Safety
///
/// As [`CompiledOp::eval_lanes_ptr`].
#[inline(always)]
unsafe fn run_chain(li: *mut u64, args: &KernelArgs, w: LaneWindow, canon: impl Fn(u64) -> u64) {
    debug_assert!(w.active <= w.stride, "lane window outgrew its stride");
    let var = args.var.as_deref().expect("a chain carries its operands");
    let (&default, pairs) = var.ins.split_last().expect("a chain has a default");
    debug_assert!(var.ins.iter().all(|&r| r <= args.max_slot) && args.out <= args.max_slot);
    // SAFETY: per the `KernelFn` contract every slot in `var.ins` and
    // `args.out` is `<= max_slot`, so each `slot * w.stride + lane`
    // offset (`lane < w.active <= w.stride`) is in bounds; the output
    // row is exclusively ours for the call.
    unsafe {
        let row = |r: u32| li.add(r as usize * w.stride).cast_const();
        let (out, pd) = (li.add(args.out as usize * w.stride), row(default));
        let n = w.active;
        let mut lane = 0;
        while lane + CHUNK <= n {
            let mut acc: [u64; CHUNK] = std::array::from_fn(|k| *pd.add(lane + k));
            for pair in pairs.chunks_exact(2).rev() {
                let (pc, pv) = (row(pair[0]).add(lane), row(pair[1]).add(lane));
                for (k, acc) in acc.iter_mut().enumerate() {
                    *acc = if *pc.add(k) != 0 { *pv.add(k) } else { *acc };
                }
            }
            for (k, acc) in acc.into_iter().enumerate() {
                *out.add(lane + k) = canon(acc);
            }
            lane += CHUNK;
        }
        while lane < n {
            let mut acc = *pd.add(lane);
            for pair in pairs.chunks_exact(2).rev() {
                acc = if *row(pair[0]).add(lane) != 0 {
                    *row(pair[1]).add(lane)
                } else {
                    acc
                };
            }
            *out.add(lane) = canon(acc);
            lane += 1;
        }
    }
}

/// Generates the unsigned/signed kernel pair of each fixed-arity body in
/// a `|args, operands..| raw-result` list, every function under `$attr`.
macro_rules! lane_kernels {
    ([$(#[$attr:meta])*]) => {};
    ([$(#[$attr:meta])*] $un:ident, $sn:ident: |$g:ident $(, $x:ident)+| $body:expr; $($rest:tt)*) => {
        /// # Safety
        /// As [`CompiledOp::eval_lanes_ptr`].
        $(#[$attr])*
        unsafe fn $un(li: *mut u64, $g: &KernelArgs, w: LaneWindow) {
            // SAFETY: forwarding the caller's `KernelFn` contract intact.
            unsafe { run(li, $g, w, |[$($x),+]| cu($body, $g)) };
        }
        /// # Safety
        /// As [`CompiledOp::eval_lanes_ptr`].
        $(#[$attr])*
        unsafe fn $sn(li: *mut u64, $g: &KernelArgs, w: LaneWindow) {
            // SAFETY: forwarding the caller's `KernelFn` contract intact.
            unsafe { run(li, $g, w, |[$($x),+]| cs($body, $g)) };
        }
        lane_kernels! { [$(#[$attr])*] $($rest)* }
    };
}

/// Instantiates the kernel table — every body, once — as module `$isa`,
/// each kernel compiled under `$attr` (a tier's `#[target_feature]`; the
/// baseline has none). The drivers above are `#[inline(always)]` plain
/// Rust, so each instantiation is the same source under another codegen.
macro_rules! kernel_table {
    ($isa:ident $(, #[$attr:meta])?) => {
        mod $isa {
            use super::*;

            // The bodies mirror `eval_raw` case-for-case, rewritten
            // branch-free where the interpreted form branches (dynamic
            // shifts, selects) so the chunked loops vectorize.
            // Equivalence with `eval_raw` is asserted per opcode by the
            // differential tests.
            lane_kernels! { [$(#[$attr])?]
                k_add_u, k_add_s: |_g, a, b| a.wrapping_add(b);
                k_sub_u, k_sub_s: |_g, a, b| a.wrapping_sub(b);
                k_mul_u, k_mul_s: |_g, a, b| a.wrapping_mul(b);
                k_divu_u, k_divu_s: |_g, a, b| a.checked_div(b).unwrap_or(0);
                k_divs_u, k_divs_s: |_g, a, b| if b == 0 {
                    0
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                };
                k_remu_u, k_remu_s: |_g, a, b| if b == 0 { 0 } else { a % b };
                k_rems_u, k_rems_s: |_g, a, b| if b == 0 {
                    0
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                };
                k_and_u, k_and_s: |_g, a, b| a & b;
                k_or_u, k_or_s: |_g, a, b| a | b;
                k_xor_u, k_xor_s: |_g, a, b| a ^ b;
                k_ltu_u, k_ltu_s: |_g, a, b| (a < b) as u64;
                k_lts_u, k_lts_s: |_g, a, b| ((a as i64) < (b as i64)) as u64;
                k_leu_u, k_leu_s: |_g, a, b| (a <= b) as u64;
                k_les_u, k_les_s: |_g, a, b| ((a as i64) <= (b as i64)) as u64;
                k_gtu_u, k_gtu_s: |_g, a, b| (a > b) as u64;
                k_gts_u, k_gts_s: |_g, a, b| ((a as i64) > (b as i64)) as u64;
                k_geu_u, k_geu_s: |_g, a, b| (a >= b) as u64;
                k_ges_u, k_ges_s: |_g, a, b| ((a as i64) >= (b as i64)) as u64;
                k_eq_u, k_eq_s: |_g, a, b| (a == b) as u64;
                k_neq_u, k_neq_s: |_g, a, b| (a != b) as u64;
                // Branch-free out-of-range guard: `(b < 64)` widens to an
                // all-ones / all-zeros mask, so the lane loop stays a
                // straight select.
                k_dshl_u, k_dshl_s: |_g, a, b| (a << (b & 63)) & ((b < 64) as u64).wrapping_neg();
                k_dshr_u, k_dshr_s: |_g, a, b| ((a as i64) >> b.min(63)) as u64;
                k_cat_u, k_cat_s: |g, a, b| {
                    // p0/p1 = operand widths, truncated to u32 exactly as
                    // eval_raw does; wb >= 64 passes b through.
                    let (wa, wb) = (g.p0 as u32, g.p1 as u32);
                    if wb >= 64 {
                        b
                    } else {
                        ((a & mask(wa)) << wb) | (b & mask(wb))
                    }
                };
                k_validif_u, k_validif_s: |_g, a, b| if a != 0 { b } else { 0 };
                k_not_u, k_not_s: |_g, a| !a;
                k_neg_u, k_neg_s: |_g, a| a.wrapping_neg();
                // p0 = operand width for the reductions.
                k_andr_u, k_andr_s: |g, a| ((a & mask(g.p0 as u32)) == mask(g.p0 as u32)) as u64;
                k_orr_u, k_orr_s: |_g, a| (a != 0) as u64;
                k_xorr_u, k_xorr_s: |g, a| ((a & mask(g.p0 as u32)).count_ones() & 1) as u64;
                k_shl_u, k_shl_s: |g, a| {
                    let n = g.p0 as u32; // eval_raw truncates before the range check
                    (a << (n & 63)) & ((n < 64) as u64).wrapping_neg()
                };
                k_shr_u, k_shr_s: |g, a| ((a as i64) >> (g.p0 as u32).min(63)) as u64;
                // p0/p1 = hi/lo bit indices.
                k_bits_u, k_bits_s: |g, a| (a >> g.p1) & mask((g.p0 - g.p1 + 1) as u32);
                // p0/p1 = n/operand width.
                k_head_u, k_head_s: |g, a| (a & mask(g.p1 as u32)) >> (g.p1 - g.p0);
                k_resize_u, k_resize_s: |_g, a| a;
                k_mux_u, k_mux_s: |_g, c, t, f| if c != 0 { t } else { f };
            }

            /// Constant kernel: `p0` already holds the canonical value,
            /// so the row is a plain fill.
            ///
            /// # Safety
            /// As [`CompiledOp::eval_lanes_ptr`].
            $(#[$attr])?
            unsafe fn k_const(li: *mut u64, args: &KernelArgs, w: LaneWindow) {
                debug_assert!(w.active <= w.stride, "lane window outgrew its stride");
                // SAFETY: per the `KernelFn` contract the output row
                // `args.out <= max_slot` is in bounds and exclusively
                // ours; `lane < w.active <= w.stride` keeps the fill
                // inside the row.
                unsafe {
                    let out = li.add(args.out as usize * w.stride);
                    for lane in 0..w.active {
                        *out.add(lane) = args.p0;
                    }
                }
            }

            /// # Safety
            /// As [`CompiledOp::eval_lanes_ptr`].
            $(#[$attr])?
            unsafe fn k_chain_u(li: *mut u64, args: &KernelArgs, w: LaneWindow) {
                // SAFETY: forwarding the caller's `KernelFn` contract intact.
                unsafe { run_chain(li, args, w, |acc| cu(acc, args)) };
            }

            /// # Safety
            /// As [`CompiledOp::eval_lanes_ptr`].
            $(#[$attr])?
            unsafe fn k_chain_s(li: *mut u64, args: &KernelArgs, w: LaneWindow) {
                // SAFETY: forwarding the caller's `KernelFn` contract intact.
                unsafe { run_chain(li, args, w, |acc| cs(acc, args)) };
            }

            /// This table's kernel for an opcode/arity/signedness
            /// triple: total over every shape `check_op_shape` accepts.
            pub(super) fn kernel_table(op: DfgOp, arity: usize, signed: bool) -> Option<KernelFn> {
                use DfgOp::*;
                let pick = |u: KernelFn, s: KernelFn| Some(if signed { s } else { u });
                match (op, arity) {
                    (Const, 0) => Some(k_const),
                    (Add, 2) => pick(k_add_u, k_add_s),
                    (Sub, 2) => pick(k_sub_u, k_sub_s),
                    (Mul, 2) => pick(k_mul_u, k_mul_s),
                    (Divu, 2) => pick(k_divu_u, k_divu_s),
                    (Divs, 2) => pick(k_divs_u, k_divs_s),
                    (Remu, 2) => pick(k_remu_u, k_remu_s),
                    (Rems, 2) => pick(k_rems_u, k_rems_s),
                    (And, 2) => pick(k_and_u, k_and_s),
                    (Or, 2) => pick(k_or_u, k_or_s),
                    (Xor, 2) => pick(k_xor_u, k_xor_s),
                    (Ltu, 2) => pick(k_ltu_u, k_ltu_s),
                    (Lts, 2) => pick(k_lts_u, k_lts_s),
                    (Leu, 2) => pick(k_leu_u, k_leu_s),
                    (Les, 2) => pick(k_les_u, k_les_s),
                    (Gtu, 2) => pick(k_gtu_u, k_gtu_s),
                    (Gts, 2) => pick(k_gts_u, k_gts_s),
                    (Geu, 2) => pick(k_geu_u, k_geu_s),
                    (Ges, 2) => pick(k_ges_u, k_ges_s),
                    (Eq, 2) => pick(k_eq_u, k_eq_s),
                    (Neq, 2) => pick(k_neq_u, k_neq_s),
                    (Dshl, 2) => pick(k_dshl_u, k_dshl_s),
                    (Dshr, 2) => pick(k_dshr_u, k_dshr_s),
                    (Cat, 2) => pick(k_cat_u, k_cat_s),
                    (ValidIf, 2) => pick(k_validif_u, k_validif_s),
                    (Not, 1) => pick(k_not_u, k_not_s),
                    (Neg, 1) => pick(k_neg_u, k_neg_s),
                    (Andr, 1) => pick(k_andr_u, k_andr_s),
                    (Orr, 1) => pick(k_orr_u, k_orr_s),
                    (Xorr, 1) => pick(k_xorr_u, k_xorr_s),
                    (Shl, 1) => pick(k_shl_u, k_shl_s),
                    (Shr, 1) => pick(k_shr_u, k_shr_s),
                    (Bits, 1) => pick(k_bits_u, k_bits_s),
                    (Head, 1) => pick(k_head_u, k_head_s),
                    (Resize, 1) | (Identity, 1) => pick(k_resize_u, k_resize_s),
                    (Mux, 3) => pick(k_mux_u, k_mux_s),
                    (MuxChain, n) if n % 2 == 1 => pick(k_chain_u, k_chain_s),
                    _ => None,
                }
            }
        }
    };
}

kernel_table!(baseline);
#[cfg(target_arch = "x86_64")]
kernel_table!(avx2, #[target_feature(enable = "avx2")]);

/// One operation compiled to a specialized lane kernel: the executable
/// form of an [`OpInst`].
#[derive(Debug, Clone)]
pub struct CompiledOp {
    kernel: KernelFn,
    args: KernelArgs,
}

impl CompiledOp {
    /// Compiles an operation instance: resolves the kernel from the
    /// per-(opcode × arity × signedness) table of the widest instruction
    /// set this CPU has and folds operand offsets, parameters, and the
    /// canonicalization mask into [`KernelArgs`].
    ///
    /// # Panics
    ///
    /// Panics on what the plan verifier's `check_op_shape` rejects before
    /// any lowering: source ops ([`DfgOp::Input`], [`DfgOp::RegState`] —
    /// never scheduled into layers, no evaluation semantics) and
    /// shape-invalid ops (wrong arity; an even-length or empty chain).
    pub fn compile(op: &OpInst) -> CompiledOp {
        Self::compile_for(op, LaneIsa::detect())
    }

    /// [`compile`](Self::compile) against a chosen table, so tests can
    /// sweep every one in [`LaneIsa::supported`].
    #[doc(hidden)]
    pub fn compile_for(op: &OpInst, isa: LaneIsa) -> CompiledOp {
        let d = op.op();
        let arity = op.ins.len();
        let kernel = isa
            .kernel(d, arity, op.signed)
            .unwrap_or_else(|| panic!("`{d}` with {arity} operand(s) is not compilable"));
        let width = (op.width as u32).clamp(1, 64);
        let p0 = op.params.first().copied().unwrap_or(0);
        let max_slot = op
            .ins
            .iter()
            .copied()
            .chain(std::iter::once(op.out))
            .max()
            .expect("chain is non-empty");
        let args = KernelArgs {
            out: op.out,
            a: op.ins.first().copied().unwrap_or(0),
            b: op.ins.get(1).copied().unwrap_or(0),
            c: op.ins.get(2).copied().unwrap_or(0),
            p0: if d == DfgOp::Const {
                canonicalize(p0, width, op.signed)
            } else {
                p0
            },
            p1: op.params.get(1).copied().unwrap_or(0),
            msk: mask(width),
            sh: 64 - width,
            n: op.n,
            signed: op.signed,
            max_slot,
            var: (d == DfgOp::MuxChain).then(|| {
                Box::new(VarArgs {
                    ins: op.ins.clone().into_boxed_slice(),
                })
            }),
        };
        CompiledOp { kernel, args }
    }

    /// Output slot this kernel writes.
    pub fn out_slot(&self) -> u32 {
        self.args.out
    }

    /// Decoded opcode, or `None` if the folded coordinate is corrupt.
    pub fn opcode(&self) -> Option<DfgOp> {
        DfgOp::from_n_coord(self.args.n)
    }

    /// Operand slots this kernel reads, in operand order.
    pub fn operand_slots(&self) -> Vec<u32> {
        if let Some(var) = self.args.var.as_deref() {
            return var.ins.to_vec();
        }
        let arity = self.opcode().and_then(|d| d.arity()).unwrap_or(0).min(3);
        [self.args.a, self.args.b, self.args.c][..arity].to_vec()
    }

    /// Folded canonicalization mask.
    pub fn mask(&self) -> u64 {
        self.args.msk
    }

    /// Folded sign-extension shift (`64 - width`).
    pub fn shift(&self) -> u32 {
        self.args.sh
    }

    /// Whether the op canonicalizes as a signed value.
    pub fn is_signed(&self) -> bool {
        self.args.signed
    }

    /// Highest LI slot this kernel reads or writes.
    pub fn max_slot(&self) -> u32 {
        self.args.max_slot
    }

    /// Evaluates over the active window of a slot-major `LI` matrix
    /// through a raw pointer — the layer-parallel engine's entry point.
    ///
    /// # Safety
    ///
    /// `li` must point to a live slot-major matrix of `w.stride` lanes
    /// per slot covering every slot this op references, `w.active <=
    /// w.stride`, and no other thread may concurrently access the op's
    /// output row or mutate its operand rows for the duration of the
    /// call. (Within one levelized layer, output rows are disjoint per op
    /// and operand rows come from earlier layers, so layer-barriered
    /// workers satisfy this.)
    #[inline]
    pub unsafe fn eval_lanes_ptr(&self, li: *mut u64, w: LaneWindow) {
        debug_assert!(w.active <= w.stride, "lane window outgrew its stride");
        // SAFETY: the caller upholds this method's contract, which is
        // exactly the `KernelFn` contract the folded kernel requires; and
        // the kernel came out of the table of a `LaneIsa`, which exists
        // only for an instruction set detected on this CPU.
        unsafe { (self.kernel)(li, &self.args, w) };
    }

    /// Evaluates over the active window of an exclusively borrowed `LI`
    /// matrix.
    #[inline]
    pub fn eval_lanes(&self, li: &mut [u64], w: LaneWindow) {
        debug_assert!(w.active <= w.stride);
        debug_assert!(
            li.len() >= (self.args.max_slot as usize + 1) * w.stride,
            "LI matrix does not cover slot {}",
            self.args.max_slot
        );
        // SAFETY: an exclusive borrow covers the whole matrix, and the
        // debug-checked length bound is what `analyze_compiled` proves
        // statically for verifier-clean plans.
        unsafe { self.eval_lanes_ptr(li.as_mut_ptr(), w) }
    }
}

/// One layer of compiled operations (independent within the layer, as
/// guaranteed by levelization).
pub type CompiledLayer = Vec<CompiledOp>;

/// Compiles every layer of a plan. Layer and op order are preserved, so
/// swizzled traversals can compile their own reordered layer lists with
/// [`compile_layer`].
pub fn compile_plan(plan: &SimPlan) -> Vec<CompiledLayer> {
    plan.layers.iter().map(|l| compile_layer(l)).collect()
}

/// Compiles one layer's operations in order.
pub fn compile_layer(layer: &[OpInst]) -> CompiledLayer {
    layer.iter().map(CompiledOp::compile).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{eval_raw, ALL_OPS};

    /// Builds an `OpInst` with operands in slots `1..=arity` and output
    /// in slot 0.
    fn inst(op: DfgOp, arity: usize, params: Vec<u64>, width: u8, signed: bool) -> OpInst {
        OpInst {
            n: op.n_coord(),
            out: 0,
            ins: (1..=arity as u32).collect(),
            params,
            width,
            signed,
        }
    }

    /// A fixed stimulus matrix whose lanes cover the operand classes that
    /// decide an op's outcome — 0, 1, all-ones, a small value (an in-range
    /// shift amount), the same lane of the row above (equal operands) —
    /// next to uniform 64-bit values.
    fn stimulus(slots: usize, lanes: usize) -> Vec<u64> {
        let mut li = Vec::with_capacity(slots * lanes);
        for i in 0..slots * lanes {
            let h = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            li.push(match (h >> 59) % 6 {
                0 => 0,
                1 => 1,
                2 => u64::MAX,
                3 => h % 70,
                4 if i >= lanes => li[i - lanes],
                _ => h,
            });
        }
        li
    }

    /// Asserts the compiled kernel of every supported table matches
    /// `eval_raw` + `canonicalize` lane-for-lane on the fixed stimulus
    /// matrix, for full and partial windows.
    fn assert_matches_interpreter(op: &OpInst, lanes: usize) {
        let slots = (op.ins.iter().copied().max().unwrap_or(0).max(op.out) + 1) as usize;
        let mut li = stimulus(slots, lanes);
        for active in [lanes, lanes / 2, 1] {
            let mut want = li.clone();
            let mut ins = Vec::new();
            for lane in 0..active {
                ins.clear();
                ins.extend(op.ins.iter().map(|&r| want[r as usize * lanes + lane]));
                let raw = eval_raw(op.op(), &op.params, &ins);
                want[op.out as usize * lanes + lane] =
                    canonicalize(raw, op.width as u32, op.signed);
            }
            let w = LaneWindow {
                stride: lanes,
                active,
            };
            for isa in LaneIsa::supported() {
                let mut got = li.clone();
                CompiledOp::compile_for(op, isa).eval_lanes(&mut got, w);
                assert_eq!(got, want, "op {} active {active} {isa:?}", op.op());
            }
            li.rotate_left(1); // fresh-ish data for the next window
        }
    }

    #[test]
    fn every_evaluable_opcode_matches_eval_raw() {
        for &op in &ALL_OPS {
            if matches!(op, DfgOp::Input | DfgOp::RegState) {
                continue;
            }
            let (arity, params) = match op {
                DfgOp::Const => (0, vec![0xdead_beef_cafe]),
                DfgOp::Andr | DfgOp::Orr | DfgOp::Xorr => (1, vec![13]),
                DfgOp::Shl | DfgOp::Shr => (1, vec![7]),
                DfgOp::Bits => (1, vec![9, 3]),
                DfgOp::Head => (1, vec![4, 11]),
                DfgOp::Cat => (2, vec![9, 6]),
                DfgOp::MuxChain => (7, vec![]),
                _ => (op.arity().unwrap(), vec![]),
            };
            for (width, signed) in [(1, false), (13, false), (13, true), (64, false), (64, true)] {
                // One chunk and a tail; then several chunks and a tail.
                for lanes in [CHUNK + 1, 4 * CHUNK + 3] {
                    let op = inst(op, arity, params.clone(), width, signed);
                    assert_matches_interpreter(&op, lanes);
                }
            }
        }
    }

    #[test]
    fn dynamic_shift_guards_match_at_extreme_amounts() {
        // The branch-free dshl/shl guard must agree with eval_raw's
        // branching form for shift amounts straddling and far past 64.
        for shift in [0u64, 1, 63, 64, 65, 127, 128, u64::MAX] {
            let op = inst(DfgOp::Dshl, 2, vec![], 64, false);
            let compiled = CompiledOp::compile(&op);
            let mut li = vec![0u64; 3];
            li[1] = 0xf0f0_f0f0_f0f0_f0f0;
            li[2] = shift;
            compiled.eval_lanes(&mut li, LaneWindow::full(1));
            assert_eq!(
                li[0],
                eval_raw(DfgOp::Dshl, &[], &[li[1], li[2]]),
                "{shift}"
            );
        }
    }

    #[test]
    fn const_kernel_fills_the_canonical_value() {
        let op = inst(DfgOp::Const, 0, vec![0b1100], 4, true);
        let compiled = CompiledOp::compile(&op);
        let mut li = vec![0u64; 5];
        compiled.eval_lanes(&mut li, LaneWindow::full(5));
        assert_eq!(li, vec![(-4i64) as u64; 5]);
    }

    #[test]
    fn partial_window_leaves_tail_lanes_untouched() {
        let op = inst(DfgOp::Not, 1, vec![], 8, false);
        let compiled = CompiledOp::compile(&op);
        let mut li = vec![0u64; 12];
        li[6..12].copy_from_slice(&[1, 2, 3, 4, 5, 6]);
        let w = LaneWindow {
            stride: 6,
            active: 4,
        };
        compiled.eval_lanes(&mut li, w);
        assert_eq!(&li[0..4], &[0xfe, 0xfd, 0xfc, 0xfb]);
        assert_eq!(&li[4..6], &[0, 0], "tail of the output row untouched");
    }

    #[test]
    #[should_panic(expected = "not compilable")]
    fn sources_are_not_compilable() {
        CompiledOp::compile(&inst(DfgOp::Input, 0, vec![], 8, false));
    }

    #[test]
    #[should_panic(expected = "`muxchain` with 4 operand(s) is not compilable")]
    fn shape_invalid_ops_are_not_compilable() {
        CompiledOp::compile(&inst(DfgOp::MuxChain, 4, vec![], 8, false));
    }

    #[test]
    fn every_schedulable_opcode_has_a_lane_kernel() {
        for isa in LaneIsa::supported() {
            for &op in &ALL_OPS {
                // The arities `check_op_shape` accepts, and some it rejects.
                let (good, bad) = match op.arity() {
                    Some(0) if op != DfgOp::Const => (vec![], vec![0, 1]), // sources
                    Some(arity) => (vec![arity], vec![arity + 1, 4]),
                    None => (vec![1, 3, 5, 33], vec![0, 2]),
                };
                for signed in [false, true] {
                    for &arity in &good {
                        assert!(
                            isa.kernel(op, arity, signed).is_some(),
                            "{isa:?}: no kernel for {op} arity {arity} signed {signed}"
                        );
                    }
                    for &arity in &bad {
                        assert!(
                            isa.kernel(op, arity, signed).is_none(),
                            "{op} arity {arity}"
                        );
                    }
                }
            }
        }
    }
}
