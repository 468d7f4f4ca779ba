//! Plan-load-time kernel compilation: from interpreted [`OpInst`]s to
//! specialized lane kernels.
//!
//! The batched interpreter pays full dispatch tax in its inner loop:
//! [`OpInst::eval_lanes_ptr`] re-enters the 40-way `eval_raw` opcode match
//! and re-derives the canonicalization mask *per lane, per op, per cycle*,
//! which blocks autovectorization. This module lowers each [`OpInst`] into
//! a [`CompiledOp`] once, at plan-load time: a monomorphized
//! `unsafe fn(*mut (), &[KernelArgs], LaneWindow)` chosen from a
//! per-(opcode × arity × signedness) kernel table, with the opcode
//! dispatch, operand base offsets, static parameters, and the
//! width/sign canonicalization all resolved up front and folded into a
//! stride-1 inner loop. A kernel takes a *run* — a slice of ops that
//! share it ([`KernelKey`]) — and evaluates them in slice order, so the
//! batched engine ([`compile_runs`]) sorts each levelized layer by kernel
//! and makes one call per `(layer, kernel)` run: the swizzle of the
//! paper's Algorithm 4, in the lane walk. **Every** schedulable op has a
//! lane kernel: the fixed-arity ones run a branch-free body over
//! `CHUNK`-lane chunks, and the one variable-arity op, the mux chain,
//! runs a select cascade over the same chunks (`run_chain`) — nothing is
//! staged per lane and nothing re-enters `eval_raw`.
//!
//! The one set of bodies is plain scalar Rust (no `std::arch`
//! intrinsics) that LLVM autovectorizes, and it is instantiated once per
//! table by `kernel_table!`, along two axes:
//!
//! - **Instruction set.** `baseline` compiles for the target's baseline —
//!   SSE2 on x86-64; NEON on aarch64 — and, on x86-64 only, `avx2`
//!   compiles the same source under `#[target_feature(enable = "avx2")]`.
//!   [`CompiledOp::compile`] picks once per op: `avx2` if
//!   `is_x86_feature_detected!("avx2")`, else `baseline`.
//! - **Lane type.** A lane row holds one element per stimulus lane, and
//!   the element is a property of the *plan* ([`LaneType::of`]): `u32`
//!   ([`LaneType::Narrow`]) when every slot of the design fits 32 bits
//!   and every op's 32-bit body provably equals the truncation of its
//!   64-bit one ([`narrow_exact`]), `u64` ([`LaneType::Wide`]) otherwise.
//!   Half the bytes per lane through the caches and twice the lanes per
//!   vector instruction; a design with one 33-bit signal keeps the whole
//!   plan on `u64` rows, which is the code that ran before narrow rows
//!   existed.
//!
//! No build flag, configuration field or environment variable is
//! involved in either choice, so the binary starts on any x86-64.
//!
//! ## Two entries per op
//!
//! Each table instantiates every body twice ([`Entry`]): a
//! **whole-window** kernel that runs only whole `CHUNK`-lane chunks — two
//! per loop iteration, then at most one more — and an **any-window**
//! kernel that runs the chunks one per iteration and then the remainder
//! lane by lane. Which one runs is a property of the window, not a
//! setting: `CompiledOp::eval_lanes_ptr` takes the whole-window entry
//! when `w.active % CHUNK == 0`, and since a walk hands every op the same
//! window, it indexes the same entry for all of them.
//!
//! The reason is codegen. LLVM auto-vectorizes a lane-by-lane remainder
//! loop into runtime alias checks and a 32-lane unrolled body, and the
//! registers that code needs make the whole kernel open with six
//! callee-saved pushes and stack spills — paid on every call, also by the
//! 8- and 64-lane windows that never reach the remainder. Without it the
//! `avx2` × `u32` `and` kernel is 200 bytes instead of 630. (Since a
//! kernel takes a run, its prologue is paid once per run, not once per
//! op; the saved registers stay live across the run's loop.) One kernel
//! that calls out to a remainder function instead costs ragged windows
//! dearly (a 5-lane window ran at 0.61× its speed), and a masked last
//! chunk over padded rows, a staged remainder and a bound on the
//! remainder's trip count each kept the bloat or slowed a 1-lane window.
//! Both entries come from the one body list (`lane_kernels!`,
//! `kernel_table!`), and a [`KernelRun`] holds the two pointers.
//!
//! Semantics are bit-identical to `eval_raw` + [`canonicalize`] per lane
//! — truncated to the row's element, for narrow rows — by construction,
//! and enforced by differential tests against every table the host
//! supports (unit tests here, a proptest sweep in
//! `tests/lane_kernel_props.rs`, and the whole-design equivalence suite
//! in the workspace `tests/`). The interpreted walk is retained as the
//! golden model — see [`BatchEngine`].
//!
//! ## Unsafe audit
//!
//! Every kernel here is an `unsafe fn` over an untyped pointer to a lane
//! matrix whose rows are of the table's lane type; the single safety
//! contract is documented on `CompiledOp::eval_lanes_ptr` and threaded
//! through `KernelFn`, `run`, `run_chain`, and each generated body as
//! explicit `// SAFETY:` blocks (`unsafe_op_in_unsafe_fn` is denied). The
//! bounds side of the contract — every folded slot offset `< num_slots` —
//! is *proven statically* per design by
//! [`crate::analyze::analyze_compiled`] and checked by `assert!`s on the
//! safe entry points; so is the narrow side —
//! every slot a narrow kernel touches fits 32 bits and its op is
//! narrow-exact. The instruction-set side is carried by a type: see
//! [`LaneIsa`].

#![deny(unsafe_op_in_unsafe_fn)]

use crate::op::{canonicalize, DfgOp};
use crate::plan::{OpInst, SimPlan};
use rteaal_firrtl::ty::mask;
use std::ops::Range;

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

/// The element type of a plan's lane rows — a pure function of the
/// [`SimPlan`] ([`LaneType::of`]), never a setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneType {
    /// `u32` rows: every slot fits 32 bits and every op is
    /// [`narrow_exact`]. A value is stored as the low 32 bits of its
    /// canonical form and widens back by its slot's signedness.
    Narrow,
    /// `u64` rows holding canonical values as they are.
    Wide,
}

impl LaneType {
    /// The lane type a plan runs in.
    pub fn of(plan: &SimPlan) -> LaneType {
        LaneLayout::of(plan).lane_type()
    }

    /// Bytes per lane of a row.
    pub fn bytes(self) -> usize {
        self.bits() as usize / 8
    }

    /// Bits per lane of a row.
    pub(crate) fn bits(self) -> u32 {
        match self {
            LaneType::Narrow => 32,
            LaneType::Wide => 64,
        }
    }

    /// Every lane type a plan can run in, `Wide` first — what the
    /// differential tests sweep, as they sweep [`LaneIsa::supported`]:
    /// any plan runs in `u64` rows, and a plan [`LaneType::of`] calls
    /// `Narrow` also runs in `u32` ones. Pair with [`LaneLayout::of_as`].
    #[doc(hidden)]
    pub fn supported_for(plan: &SimPlan) -> Vec<LaneType> {
        match LaneType::of(plan) {
            LaneType::Wide => vec![LaneType::Wide],
            LaneType::Narrow => vec![LaneType::Wide, LaneType::Narrow],
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// A row element: `u32` or `u64`, nothing else (the trait is sealed —
/// the kernels trust `TYPE` to name the type it is implemented on).
pub trait Lane: sealed::Sealed + Copy + PartialEq + Default + std::fmt::Debug + 'static {
    /// The [`LaneType`] whose rows hold this element.
    const TYPE: LaneType;

    /// The stored form of a canonical value: its low bits.
    fn truncate(canonical: u64) -> Self;

    /// The canonical value of a stored element of a `signed` slot
    /// (sign- or zero-extended; the identity on `u64`).
    fn widen(self, signed: bool) -> u64;

    /// `then` if `self` is nonzero, else `otherwise` — as mask
    /// arithmetic, because that is what keeps a cascade of these a vector
    /// blend (an `if` whose arm is a load compiles to a branch per lane).
    fn select(self, then: Self, otherwise: Self) -> Self;
}

/// [`Lane::select`], the same for both elements.
macro_rules! select_by_mask {
    () => {
        #[inline(always)]
        fn select(self, then: Self, otherwise: Self) -> Self {
            let taken = ((self != 0) as Self).wrapping_neg();
            (then & taken) | (otherwise & !taken)
        }
    };
}

impl Lane for u32 {
    const TYPE: LaneType = LaneType::Narrow;

    #[inline(always)]
    fn truncate(canonical: u64) -> u32 {
        canonical as u32
    }

    #[inline(always)]
    fn widen(self, signed: bool) -> u64 {
        if signed {
            self as i32 as i64 as u64
        } else {
            self as u64
        }
    }

    select_by_mask!();
}

impl Lane for u64 {
    const TYPE: LaneType = LaneType::Wide;

    #[inline(always)]
    fn truncate(canonical: u64) -> u64 {
        canonical
    }

    #[inline(always)]
    fn widen(self, _signed: bool) -> u64 {
        self
    }

    select_by_mask!();
}

/// Width and signedness of the value a slot holds.
pub type SlotType = (u8, bool);

/// How an op's body over `u32` rows relates to its body over `u64` rows
/// — the answer of [`narrow_exact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Narrow {
    /// The same body, on truncated operands, yields the truncated result.
    Exact,
    /// The *unsigned* counterpart of the body does (`ltu` for `lts`,
    /// `divu` for `divs`, a logical for an arithmetic right shift): the
    /// op reads its operands as `i64`, and these operands are
    /// zero-extended values with bit 31 in use.
    Logical,
    /// Neither: the op needs bits a `u32` row does not hold.
    Inexact,
}

/// Whether an op may run on `u32` rows: does its 32-bit body, on the low
/// 32 bits of its operands, produce the low 32 bits of what `eval_raw`
/// produces on the canonical 64-bit operands? (The result's own
/// canonicalization then commutes with truncation whenever the result is
/// at most 32 bits wide, which [`LaneLayout::of`] checks beside this.)
///
/// `operands` are the types of the operand slots, each at most 32 bits
/// wide. Ops that only ever combine low bits — arithmetic, bitwise,
/// left shifts, selects, `cat`, resizes — always qualify. The rest read
/// bits 32..63, which a narrow row has to *infer*: a value widens by
/// zero-extension if its slot is unsigned and by sign-extension if it is
/// signed, and an unsigned value under 32 bits wide does either. Order
/// and equality ops need both operands under one extension; ops that
/// read operands as `i64` (`lts`.., `divs`, `rems`, `shr`, `dshr`) run
/// as themselves on sign-extendable operands and as their unsigned
/// counterpart on zero-extended ones; `divu`/`remu` need zero-extended
/// ones; extracts must stay below bit 32.
pub fn narrow_exact(op: DfgOp, operands: &[SlotType], params: &[u64]) -> Narrow {
    use DfgOp::*;
    let zext = |k: usize| operands.get(k).is_some_and(|&(_, signed)| !signed);
    let sext = |k: usize| operands.get(k).is_some_and(|&(w, signed)| signed || w < 32);
    let param = |k: usize| params.get(k).copied().unwrap_or(u64::MAX);
    let when = |exact: bool| {
        if exact {
            Narrow::Exact
        } else {
            Narrow::Inexact
        }
    };
    // Reads operands as `i64`: itself if they sign-extend, its unsigned
    // counterpart if they zero-extend.
    let as_i64 = |sext: bool, zext: bool| match (sext, zext) {
        (true, _) => Narrow::Exact,
        (false, true) => Narrow::Logical,
        (false, false) => Narrow::Inexact,
    };
    match op {
        Input | RegState => Narrow::Inexact,
        Const | Add | Sub | Mul | And | Or | Xor | Not | Neg | Orr | Dshl | Shl | Cat | Resize
        | Identity | Mux | ValidIf | MuxChain => Narrow::Exact,
        Ltu | Leu | Gtu | Geu | Eq | Neq => when((zext(0) && zext(1)) || (sext(0) && sext(1))),
        Lts | Les | Gts | Ges | Divs | Rems => as_i64(sext(0) && sext(1), zext(0) && zext(1)),
        Divu | Remu => when(zext(0) && zext(1)),
        // The shift amount only matters up to "32 or more", which both
        // extensions of a 32-bit amount agree on.
        Shr | Dshr => as_i64(sext(0), zext(0)),
        // p0 = operand width: the reduction must not look past bit 31.
        Andr | Xorr => when(param(0) <= 32),
        // p0/p1 = hi/lo.
        Bits => when(param(1) <= param(0) && param(0) < 32),
        // p0/p1 = n/operand width; the body shifts by `wa - n`.
        Head => when(param(0) <= param(1) && param(1) <= 32 && param(1) - param(0) < 32),
    }
}

/// The slot types of a plan and the lane type they allow: what a kernel
/// table is compiled against and what a batch state lays its rows out
/// by. A pure function of the [`SimPlan`] — op outputs are typed by
/// their [`OpInst`], inputs by `input_types`, registers by their probe,
/// constants (and whatever else no op writes) by their power-on value —
/// so nothing is serialized and every consumer of one plan agrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneLayout {
    lane: LaneType,
    slots: Vec<SlotType>,
    why_wide: Option<String>,
}

/// The narrowest type holding a value no op ever rewrites.
fn type_of_value(v: u64) -> SlotType {
    if (v as i64) < 0 {
        (65 - (!v).leading_zeros() as u8, true)
    } else {
        ((64 - v.leading_zeros() as u8).max(1), false)
    }
}

impl LaneLayout {
    /// Types every slot of `plan` and decides its lane type: `Narrow` iff
    /// every slot is at most 32 bits wide, every power-on value survives
    /// the round trip through its slot's 32-bit form, and every op is
    /// [`narrow_exact`]. Anything unproven keeps the whole plan `Wide`
    /// ([`Self::why_wide`] names the first reason). Total on malformed
    /// plans (out-of-range slots, unknown opcodes): those are `Wide`.
    pub fn of(plan: &SimPlan) -> LaneLayout {
        let n = plan.num_slots;
        let mut typed: Vec<Option<SlotType>> = vec![None; n];
        let mut set = |s: u32, ty: SlotType| {
            if let Some(slot) = typed.get_mut(s as usize) {
                *slot = Some(ty);
            }
        };
        // Later sources override earlier ones: a probe only names a
        // signal, the port list and the op own its type.
        for (_, s, w, signed) in plan.typed_probes() {
            set(s, (w, signed));
        }
        for (&s, &ty) in plan.input_slots.iter().zip(&plan.input_types) {
            set(s, ty);
        }
        for op in plan.layers.iter().flatten() {
            set(op.out, (op.width.clamp(1, 64), op.signed));
        }
        // An unprobed register holds what its commit copies into it.
        for &(dst, src) in &plan.commits {
            if let (Some(None), Some(&src)) = (typed.get(dst as usize), typed.get(src as usize)) {
                typed[dst as usize] = src;
            }
        }
        let slots: Vec<SlotType> = typed
            .iter()
            .zip(&plan.init_values)
            .map(|(ty, &init)| ty.unwrap_or_else(|| type_of_value(init)))
            .collect();
        let mut why_wide = (slots.len() != n).then(|| format!("{n} slots, {} typed", slots.len()));
        let mut veto = |reason: String| {
            why_wide.get_or_insert(reason);
        };
        for (s, (&(w, signed), &init)) in slots.iter().zip(&plan.init_values).enumerate() {
            if w > 32 {
                veto(format!("slot {s} is {w} bits wide"));
            } else if u32::truncate(init).widen(signed) != init {
                veto(format!(
                    "slot {s} powers on as {init:#x}, not a {w}-bit value"
                ));
            }
        }
        let mut operands = Vec::new();
        for (i, layer) in plan.layers.iter().enumerate() {
            for op in layer {
                operands.clear();
                operands.extend(op.ins.iter().filter_map(|&r| slots.get(r as usize)));
                let exact = operands.len() == op.ins.len()
                    && DfgOp::from_n_coord(op.n)
                        .is_some_and(|d| narrow_exact(d, &operands, &op.params) != Narrow::Inexact);
                if !exact {
                    veto(format!(
                        "layer {i}: op {} into slot {} is not narrow-exact on {operands:?}",
                        op.n, op.out
                    ));
                }
            }
        }
        let lane = match why_wide {
            None => LaneType::Narrow,
            Some(_) => LaneType::Wide,
        };
        LaneLayout {
            lane,
            slots,
            why_wide,
        }
    }

    /// [`Self::of`], run in `lane` rows instead of the plan's own — the
    /// witness through which tests reach both lane types of one plan.
    ///
    /// # Panics
    ///
    /// Panics unless `lane` is in [`LaneType::supported_for`]`(plan)`.
    #[doc(hidden)]
    pub fn of_as(plan: &SimPlan, lane: LaneType) -> LaneLayout {
        let mut layout = LaneLayout::of(plan);
        assert!(
            lane == LaneType::Wide || layout.lane == LaneType::Narrow,
            "plan `{}` does not run in u32 rows: {}",
            plan.name,
            layout.why_wide.as_deref().unwrap_or("?")
        );
        if lane != layout.lane {
            layout.lane = lane;
            layout.why_wide = Some("forced by a test".into());
        }
        layout
    }

    /// The lane type rows are held in.
    pub fn lane_type(&self) -> LaneType {
        self.lane
    }

    /// Every slot's type, by slot.
    pub fn slot_types(&self) -> &[SlotType] {
        &self.slots
    }

    /// Why the plan runs in `u64` rows (`None` for a narrow plan): the
    /// first slot or op that vetoed `u32` ones.
    pub fn why_wide(&self) -> Option<&str> {
        self.why_wide.as_deref()
    }

    /// Per slot, whether a narrow row widens by sign-extension — what a
    /// batch state and the interpreted walk read `u32` rows through.
    pub fn signed_slots(&self) -> Vec<bool> {
        self.slots.iter().map(|&(_, signed)| signed).collect()
    }

    /// How `op` runs in this layout's rows (`Exact` in `u64` ones).
    fn narrow_form(&self, op: &OpInst) -> Narrow {
        if self.lane == LaneType::Wide {
            return Narrow::Exact;
        }
        if op.ins.iter().any(|&r| r as usize >= self.slots.len()) {
            return Narrow::Inexact;
        }
        // Only a mux chain has more than three operands, and its answer
        // reads none of them: no operand list is allocated.
        let operands: [SlotType; 3] = std::array::from_fn(|k| {
            op.ins
                .get(k)
                .map_or((1, false), |&r| self.slots[r as usize])
        });
        let arity = op.ins.len().min(3);
        narrow_exact(op.op(), &operands[..arity], &op.params)
    }

    /// The key of the kernel `op` runs in this layout's rows (`None` for
    /// an op no kernel runs): what the batched engine sorts each layer by
    /// before [`compile_runs`], so that every kernel of a layer is one
    /// run.
    pub fn kernel_key(&self, op: &OpInst) -> Option<KernelKey> {
        let logical = self.narrow_form(op) == Narrow::Logical;
        KernelKey::of(op.op(), op.ins.len(), op.signed, logical)
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
    /// `Const`, `p0` holds the already-canonicalized value). `p1` is
    /// never more than a bit index or a width, which the plan verifier
    /// bounds at 64, so it keeps the low 32 bits `cat` reads it as.
    p0: u64,
    p1: u32,
    /// Result width mask (unsigned canonicalization).
    msk: u64,
    /// Lane bits minus width (signed canonicalization shift).
    sh: u8,
    /// Opcode and result signedness, for the plan verifier (the kernels
    /// bake both into their function identity).
    n: u16,
    signed: bool,
    /// The table the kernel came from: the lane type of the rows it
    /// walks, and whether it is the op's unsigned counterpart
    /// ([`Narrow::Logical`]).
    lane: LaneType,
    logical: bool,
    /// The whole operand list of the one variable-arity op, a mux chain
    /// (`[c0, v0, c1, v1, .., default]`); `None` for every other op.
    var: Option<Box<VarArgs>>,
    /// Highest `LI` slot this op references (output or any operand) —
    /// the bound the static verifier proves and the safe entry points
    /// check.
    max_slot: u32,
}

/// Operand slots of a mux chain, behind a thin pointer so that
/// [`KernelArgs`] stays 64 bytes for the fixed-arity majority.
#[derive(Debug, Clone)]
struct VarArgs {
    ins: Box<[u32]>,
}

/// A specialized lane kernel: evaluates a run of operations that share
/// it ([`KernelKey`]) over the active lanes of a slot-major `LI` matrix,
/// one op after the other **in slice order** — each op over every active
/// lane before the next begins, so a later op reads what an earlier one
/// wrote.
///
/// # Safety
///
/// The contract every `KernelFn` body relies on, for **every** op of the
/// slice (identical to [`CompiledOp::eval_lanes_ptr`] per op; callers
/// must uphold all four):
///
/// 1. the pointer addresses a live slot-major matrix of **rows of the
///    table's lane type** (`u32` for a narrow table, `u64` for a wide
///    one), `w.stride` lanes per slot, with at least
///    `KernelArgs::max_slot + 1` rows, so every folded offset
///    `slot * w.stride + lane` is in bounds;
/// 2. `w.active <= w.stride`, so the evaluated lane prefix never leaves
///    its row;
/// 3. no other thread concurrently accesses an output row or mutates an
///    operand row for the duration of the call;
/// 4. the CPU runs the table's instruction set, which [`LaneIsa`]
///    attests.
///
/// (1) is exactly what [`crate::analyze::analyze_compiled`] proves per
/// design against the plan's `num_slots` and slot types.
pub(crate) type KernelFn = unsafe fn(*mut (), &[KernelArgs], LaneWindow);

/// Which kernel of a table runs an op: its body — the opcode after the
/// `logical` remap ([`Narrow::Logical`]), with the opcodes that share a
/// body folded together — whether that body is the logical form of a
/// right shift, and whether it canonicalizes as signed. (A mux chain and
/// a fixed-arity op differ in body; every chain runs the one chain
/// kernel, whatever its length.) A table maps a key to one pair of
/// entries, so ops with equal keys run the same kernel: what the batched
/// engine sorts a layer by and cuts it into runs at ([`compile_runs`]).
/// Plain data with a total order, never a function address, which code
/// folding makes unpredictable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelKey {
    body: DfgOp,
    logical: bool,
    signed: bool,
}

impl KernelKey {
    /// The key of an op of opcode `op` over `arity` operands, signed or
    /// not, run as its unsigned counterpart if `logical`; `None` for a
    /// source op or an arity `check_op_shape` rejects.
    fn of(op: DfgOp, arity: usize, signed: bool, logical: bool) -> Option<KernelKey> {
        use DfgOp::*;
        let shaped = match op.arity() {
            Some(0) => op == Const && arity == 0,
            Some(n) => arity == n,
            None => arity % 2 == 1,
        };
        let (body, logical) = match op {
            Lts if logical => (Ltu, false),
            Les if logical => (Leu, false),
            Gts if logical => (Gtu, false),
            Ges if logical => (Geu, false),
            Divs if logical => (Divu, false),
            Rems if logical => (Remu, false),
            Shr | Dshr => (op, logical),
            Identity => (Resize, false),
            _ => (op, false),
        };
        // A constant's value is canonicalized at compile time.
        let signed = signed && body != Const;
        shaped.then_some(KernelKey {
            body,
            logical,
            signed,
        })
    }
}

/// Which instruction-set instantiation of the kernel table a
/// [`CompiledOp`] or [`KernelRun`] points into. The field is private and
/// `detect` is the only place that sets it, so either holds an `avx2`
/// function pointer only if detection succeeded in this process.
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

    /// The two entries of `key`'s kernel in this instruction set's table
    /// for `lane` rows, indexed by [`Entry`].
    fn kernels(self, lane: LaneType, key: KernelKey) -> [KernelFn; 2] {
        // SAFETY (of every later call through the pointer): `self.avx2`
        // is `detect`'s answer, so an `avx2` kernel leaves here only on a
        // CPU that has the instructions it was compiled to.
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            return match lane {
                LaneType::Narrow => avx2_u32::kernel_table(key),
                LaneType::Wide => avx2_u64::kernel_table(key),
            };
        }
        match lane {
            LaneType::Narrow => baseline_u32::kernel_table(key),
            LaneType::Wide => baseline_u64::kernel_table(key),
        }
    }
}

/// Lanes per chunk of the drivers' main loops. A chunk's loads all
/// precede its stores (staged through an array that lives in registers),
/// so the unrolled body vectorizes without an alias check: per row, two
/// 256-bit vectors of `u64` lanes or one of `u32` lanes under AVX2, four
/// or two 128-bit ones at the SSE2 baseline.
const CHUNK: usize = 8;

/// Which of an op's two kernels runs a window — a property of the window,
/// never a setting: [`Entry::Whole`] when its active lanes are whole
/// `CHUNK`-lane chunks, [`Entry::Any`] otherwise. Both come from the one
/// body per op; see the module docs for why there are two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Entry {
    /// Whole chunks only, two per loop iteration and then at most one
    /// more: no lane-by-lane remainder, so none of the code LLVM grows
    /// around one.
    Whole = 0,
    /// Whole chunks, then the remainder lane by lane.
    Any = 1,
}

impl Entry {
    /// The entry that runs `w`.
    #[inline(always)]
    pub fn of(w: LaneWindow) -> Entry {
        if w.active.is_multiple_of(CHUNK) {
            Entry::Whole
        } else {
            Entry::Any
        }
    }
}

/// A kernel body as the drivers walk it: a chunk at a time, and — in the
/// [`Entry::Any`] kernel — a lane at a time after the last whole chunk.
/// Methods, not closures, so that `#[inline(always)]` holds: a closure
/// the walk calls three times is one LLVM may leave a call, and then one
/// compiled without the table's instruction set.
trait Body {
    /// Evaluates lanes `lane .. lane + CHUNK`.
    ///
    /// # Safety
    ///
    /// As [`CompiledOp::eval_lanes_ptr`], with `lane + CHUNK <= w.active`.
    unsafe fn chunk(&self, lane: usize);

    /// Evaluates lane `lane`.
    ///
    /// # Safety
    ///
    /// As [`CompiledOp::eval_lanes_ptr`], with `lane < w.active`.
    unsafe fn lane(&self, lane: usize);
}

/// Runs `body` over the first `n` lanes: the [`Entry::Whole`] kernel if
/// `WHOLE` — two chunks per iteration and then at most one more, which
/// leaves a ragged remainder unwritten and so is only for windows of whole
/// chunks — else the [`Entry::Any`] one: a chunk per iteration, then the
/// remainder lane by lane.
///
/// # Safety
///
/// As [`CompiledOp::eval_lanes_ptr`], with `n` the window's `active`.
#[inline(always)]
unsafe fn drive<const WHOLE: bool>(n: usize, body: &impl Body) {
    let mut lane = 0;
    // SAFETY: every chunk started here ends by `n` and every lane is
    // below it, which is what `Body` asks on top of the caller's contract.
    unsafe {
        if WHOLE {
            while lane + 2 * CHUNK <= n {
                body.chunk(lane);
                body.chunk(lane + CHUNK);
                lane += 2 * CHUNK;
            }
            if lane + CHUNK <= n {
                body.chunk(lane);
            }
        } else {
            while lane + CHUNK <= n {
                body.chunk(lane);
                lane += CHUNK;
            }
            while lane < n {
                body.lane(lane);
                lane += 1;
            }
        }
    }
}

/// An `N`-operand body (`N <= 3`) over its output row and operand rows.
struct Fixed<T, F, const N: usize> {
    out: *mut T,
    rows: [*const T; N],
    f: F,
}

impl<T: Lane, F: Fn([T; N]) -> T, const N: usize> Body for Fixed<T, F, N> {
    #[inline(always)]
    unsafe fn chunk(&self, lane: usize) {
        // SAFETY: per `Body::chunk`, lanes `lane .. lane + CHUNK` are in
        // every row, and the output row is exclusively ours.
        unsafe {
            let r: [T; CHUNK] =
                std::array::from_fn(|k| (self.f)(self.rows.map(|p| *p.add(lane + k))));
            for (k, r) in r.into_iter().enumerate() {
                *self.out.add(lane + k) = r;
            }
        }
    }

    #[inline(always)]
    unsafe fn lane(&self, lane: usize) {
        // SAFETY: per `Body::lane`, `lane` is in every row, and the output
        // row is exclusively ours.
        unsafe { *self.out.add(lane) = (self.f)(self.rows.map(|p| *p.add(lane))) };
    }
}

/// Runs an `N`-operand body (`N <= 3`: rows `a`, `b`, `c`) over the
/// active lanes through the entry `WHOLE` names (see [`drive`]).
///
/// # Safety
///
/// As [`CompiledOp::eval_lanes_ptr`], for rows of `T`.
#[inline(always)]
unsafe fn run<T: Lane, const N: usize, const WHOLE: bool>(
    li: *mut T,
    args: &KernelArgs,
    w: LaneWindow,
    f: impl Fn([T; N]) -> T,
) {
    debug_assert!(w.active <= w.stride, "lane window outgrew its stride");
    debug_assert_eq!(T::TYPE, args.lane, "kernel walks rows of its table's type");
    let rows = [args.a, args.b, args.c];
    debug_assert!(rows[..N].iter().all(|&r| r <= args.max_slot) && args.out <= args.max_slot);
    // SAFETY: per the `KernelFn` contract, `li` spans `>= max_slot + 1`
    // rows of `w.stride` lanes of `T` and the output and operand rows are
    // `<= max_slot`, so every `row + lane` offset the body reads or writes
    // (`lane < w.active <= w.stride`) stays in bounds; the output row is
    // exclusively ours for the call.
    unsafe {
        let body = Fixed {
            out: li.add(args.out as usize * w.stride),
            rows: std::array::from_fn(|i| li.add(rows[i] as usize * w.stride).cast_const()),
            f,
        };
        drive::<WHOLE>(w.active, &body);
    }
}

/// A mux chain `[c0, v0, c1, v1, .., default]` as a select cascade: the
/// accumulator starts as the default row and the pairs are applied **last
/// to first**, so the lowest true condition wins, as in `eval_raw`.
/// `canon` is the table's `cu` or `cs`.
struct Chain<'a, T, C> {
    li: *mut T,
    stride: usize,
    out: *mut T,
    default: *const T,
    pairs: &'a [u32],
    args: &'a KernelArgs,
    canon: C,
}

impl<T: Lane, C: Fn(T, &KernelArgs) -> T> Chain<'_, T, C> {
    /// Row `r` of the matrix.
    ///
    /// # Safety
    ///
    /// `r` is a row of the matrix (`<= max_slot`).
    #[inline(always)]
    unsafe fn row(&self, r: u32) -> *const T {
        // SAFETY: per the caller, row `r` is in the matrix.
        unsafe { self.li.add(r as usize * self.stride).cast_const() }
    }
}

impl<T: Lane, C: Fn(T, &KernelArgs) -> T> Body for Chain<'_, T, C> {
    #[inline(always)]
    unsafe fn chunk(&self, lane: usize) {
        // SAFETY: per `Body::chunk`, lanes `lane .. lane + CHUNK` are in
        // every row the chain names, and the output row is exclusively
        // ours.
        unsafe {
            let mut acc: [T; CHUNK] = std::array::from_fn(|k| *self.default.add(lane + k));
            for pair in self.pairs.chunks_exact(2).rev() {
                let (pc, pv) = (self.row(pair[0]).add(lane), self.row(pair[1]).add(lane));
                for (k, acc) in acc.iter_mut().enumerate() {
                    *acc = (*pc.add(k)).select(*pv.add(k), *acc);
                }
            }
            for (k, acc) in acc.into_iter().enumerate() {
                *self.out.add(lane + k) = (self.canon)(acc, self.args);
            }
        }
    }

    #[inline(always)]
    unsafe fn lane(&self, lane: usize) {
        // SAFETY: per `Body::lane`, `lane` is in every row the chain
        // names, and the output row is exclusively ours.
        unsafe {
            let mut acc = *self.default.add(lane);
            for pair in self.pairs.chunks_exact(2).rev() {
                acc = (*self.row(pair[0]).add(lane)).select(*self.row(pair[1]).add(lane), acc);
            }
            *self.out.add(lane) = (self.canon)(acc, self.args);
        }
    }
}

/// Runs a mux chain over the active lanes as a [`Chain`] cascade, every
/// row read stride-1 once per chunk, through the entry `WHOLE` names (see
/// [`drive`]). `canon` is a function item, not a closure around one, for
/// the reason [`Body`] gives.
///
/// # Safety
///
/// As [`CompiledOp::eval_lanes_ptr`], for rows of `T`.
#[inline(always)]
unsafe fn run_chain<T: Lane, const WHOLE: bool>(
    li: *mut T,
    args: &KernelArgs,
    w: LaneWindow,
    canon: impl Fn(T, &KernelArgs) -> T,
) {
    debug_assert!(w.active <= w.stride, "lane window outgrew its stride");
    debug_assert_eq!(T::TYPE, args.lane, "kernel walks rows of its table's type");
    let var = args.var.as_deref().expect("a chain carries its operands");
    let (&default, pairs) = var.ins.split_last().expect("a chain has a default");
    debug_assert!(var.ins.iter().all(|&r| r <= args.max_slot) && args.out <= args.max_slot);
    // SAFETY: per the `KernelFn` contract every slot in `var.ins` and
    // `args.out` is `<= max_slot` of a matrix of `T` rows, so each
    // `slot * w.stride + lane` offset (`lane < w.active <= w.stride`) is
    // in bounds; the output row is exclusively ours for the call.
    unsafe {
        let body = Chain {
            li,
            stride: w.stride,
            out: li.add(args.out as usize * w.stride),
            default: li.add(default as usize * w.stride).cast_const(),
            pairs,
            args,
            canon,
        };
        drive::<WHOLE>(w.active, &body);
    }
}

/// Generates the unsigned/signed kernel pair of each fixed-arity body in
/// a `|args, operands..| raw-result` list, every function under `$attr`,
/// over rows of the enclosing table's lane type `T` — each generic over
/// `WHOLE`, which instantiates its [`Entry::Whole`] and [`Entry::Any`]
/// kernels from the one body.
macro_rules! lane_kernels {
    ([$(#[$attr:meta])*]) => {};
    ([$(#[$attr:meta])*] $un:ident, $sn:ident: |$g:ident $(, $x:ident)+| $body:expr; $($rest:tt)*) => {
        /// # Safety
        /// As [`KernelFn`].
        $(#[$attr])*
        unsafe fn $un<const WHOLE: bool>(li: *mut (), ops: &[KernelArgs], w: LaneWindow) {
            for $g in ops {
                // SAFETY: forwarding the caller's `KernelFn` contract
                // intact, op by op: the rows are of this table's lane
                // type `T`.
                unsafe { run::<T, _, WHOLE>(li.cast(), $g, w, |[$($x),+]| cu($body, $g)) };
            }
        }
        /// # Safety
        /// As [`KernelFn`].
        $(#[$attr])*
        unsafe fn $sn<const WHOLE: bool>(li: *mut (), ops: &[KernelArgs], w: LaneWindow) {
            for $g in ops {
                // SAFETY: forwarding the caller's `KernelFn` contract
                // intact, op by op: the rows are of this table's lane
                // type `T`.
                unsafe { run::<T, _, WHOLE>(li.cast(), $g, w, |[$($x),+]| cs($body, $g)) };
            }
        }
        lane_kernels! { [$(#[$attr])*] $($rest)* }
    };
}

/// Instantiates the kernel table — every body, once — as module `$table`
/// over rows of `$t` (`$s` its signed twin), each kernel compiled under
/// `$attr` (a tier's `#[target_feature]`; the baseline has none). The
/// drivers above are `#[inline(always)]` plain Rust generic over the row
/// element, so each instantiation is the same source under another
/// element type and codegen.
macro_rules! kernel_table {
    ($table:ident, $t:ty, $s:ty $(, #[$attr:meta])?) => {
        mod $table {
            use super::*;

            /// The row element of this table, its signed twin (what an
            /// op that reads operands as signed reads them as), and its
            /// width.
            type T = $t;
            type S = $s;
            const BITS: u32 = T::BITS;

            /// Unsigned canonicalization folded into a kernel body.
            #[inline(always)]
            fn cu(raw: T, args: &KernelArgs) -> T {
                raw & args.msk as T
            }

            /// Signed canonicalization folded into a kernel body:
            /// `sext(raw & mask, width)` as two shifts by
            /// `args.sh = BITS - width`.
            #[inline(always)]
            fn cs(raw: T, args: &KernelArgs) -> T {
                (((raw & args.msk as T) << args.sh) as S >> args.sh) as T
            }

            /// `mask(w)`, saturating at the row element's width.
            #[inline(always)]
            fn m(w: u32) -> T {
                mask(w) as T
            }

            // The bodies mirror `eval_raw` case-for-case — with `T`,
            // `S` and `BITS` where it says `u64`, `i64` and 64 — rewritten
            // branch-free where the interpreted form branches (dynamic
            // shifts, selects) so the chunked loops vectorize.
            // Equivalence with `eval_raw` is asserted per opcode by the
            // differential tests; for `u32` rows it holds for exactly the
            // shapes `narrow_exact` admits.
            lane_kernels! { [$(#[$attr])?]
                k_add_u, k_add_s: |_g, a, b| a.wrapping_add(b);
                k_sub_u, k_sub_s: |_g, a, b| a.wrapping_sub(b);
                k_mul_u, k_mul_s: |_g, a, b| a.wrapping_mul(b);
                k_divu_u, k_divu_s: |_g, a, b| a.checked_div(b).unwrap_or(0);
                k_divs_u, k_divs_s: |_g, a, b| if b == 0 {
                    0
                } else {
                    (a as S).wrapping_div(b as S) as T
                };
                k_remu_u, k_remu_s: |_g, a, b| if b == 0 { 0 } else { a % b };
                k_rems_u, k_rems_s: |_g, a, b| if b == 0 {
                    0
                } else {
                    (a as S).wrapping_rem(b as S) as T
                };
                k_and_u, k_and_s: |_g, a, b| a & b;
                k_or_u, k_or_s: |_g, a, b| a | b;
                k_xor_u, k_xor_s: |_g, a, b| a ^ b;
                k_ltu_u, k_ltu_s: |_g, a, b| (a < b) as T;
                k_lts_u, k_lts_s: |_g, a, b| ((a as S) < (b as S)) as T;
                k_leu_u, k_leu_s: |_g, a, b| (a <= b) as T;
                k_les_u, k_les_s: |_g, a, b| ((a as S) <= (b as S)) as T;
                k_gtu_u, k_gtu_s: |_g, a, b| (a > b) as T;
                k_gts_u, k_gts_s: |_g, a, b| ((a as S) > (b as S)) as T;
                k_geu_u, k_geu_s: |_g, a, b| (a >= b) as T;
                k_ges_u, k_ges_s: |_g, a, b| ((a as S) >= (b as S)) as T;
                k_eq_u, k_eq_s: |_g, a, b| (a == b) as T;
                k_neq_u, k_neq_s: |_g, a, b| (a != b) as T;
                // Branch-free out-of-range guard: `(b < BITS)` widens to
                // an all-ones / all-zeros mask, so the lane loop stays a
                // straight select.
                k_dshl_u, k_dshl_s: |_g, a, b| {
                    (a << (b & (BITS - 1) as T)) & ((b < BITS as T) as T).wrapping_neg()
                };
                k_dshr_u, k_dshr_s: |_g, a, b| ((a as S) >> b.min((BITS - 1) as T)) as T;
                // The unsigned counterpart of `dshr` (`Narrow::Logical`).
                k_dshrl_u, k_dshrl_s: |_g, a, b| {
                    (a >> (b & (BITS - 1) as T)) & ((b < BITS as T) as T).wrapping_neg()
                };
                k_cat_u, k_cat_s: |g, a, b| {
                    // p0/p1 = operand widths, truncated to u32 exactly as
                    // eval_raw does; wb >= BITS passes b through.
                    let (wa, wb) = (g.p0 as u32, g.p1);
                    if wb >= BITS {
                        b
                    } else {
                        ((a & m(wa)) << wb) | (b & m(wb))
                    }
                };
                k_validif_u, k_validif_s: |_g, a, b| if a != 0 { b } else { 0 };
                k_not_u, k_not_s: |_g, a| !a;
                k_neg_u, k_neg_s: |_g, a| a.wrapping_neg();
                // p0 = operand width for the reductions.
                k_andr_u, k_andr_s: |g, a| ((a & m(g.p0 as u32)) == m(g.p0 as u32)) as T;
                k_orr_u, k_orr_s: |_g, a| (a != 0) as T;
                k_xorr_u, k_xorr_s: |g, a| ((a & m(g.p0 as u32)).count_ones() & 1) as T;
                k_shl_u, k_shl_s: |g, a| {
                    let n = g.p0 as u32; // eval_raw truncates before the range check
                    (a << (n & (BITS - 1))) & ((n < BITS) as T).wrapping_neg()
                };
                k_shr_u, k_shr_s: |g, a| ((a as S) >> (g.p0 as u32).min(BITS - 1)) as T;
                // The unsigned counterpart of `shr` (`Narrow::Logical`).
                k_shrl_u, k_shrl_s: |g, a| {
                    let n = g.p0 as u32;
                    (a >> (n & (BITS - 1))) & ((n < BITS) as T).wrapping_neg()
                };
                // p0/p1 = hi/lo bit indices.
                k_bits_u, k_bits_s: |g, a| (a >> g.p1) & m((g.p0 - g.p1 as u64 + 1) as u32);
                // p0/p1 = n/operand width.
                k_head_u, k_head_s: |g, a| (a & m(g.p1)) >> (g.p1 as u64 - g.p0);
                k_resize_u, k_resize_s: |_g, a| a;
                k_mux_u, k_mux_s: |_g, c, t, f| if c != 0 { t } else { f };
            }

            /// Constant kernel: `p0` already holds the canonical value,
            /// so the row is a plain fill with its low `BITS` bits.
            ///
            /// # Safety
            /// As [`KernelFn`].
            $(#[$attr])?
            unsafe fn k_const<const WHOLE: bool>(li: *mut (), ops: &[KernelArgs], w: LaneWindow) {
                for args in ops {
                    // SAFETY: forwarding the caller's `KernelFn` contract
                    // intact, op by op: the rows are of this table's lane
                    // type `T`.
                    unsafe { run::<T, 0, WHOLE>(li.cast(), args, w, |[]| args.p0 as T) };
                }
            }

            /// # Safety
            /// As [`KernelFn`].
            $(#[$attr])?
            unsafe fn k_chain_u<const WHOLE: bool>(li: *mut (), ops: &[KernelArgs], w: LaneWindow) {
                for args in ops {
                    // SAFETY: forwarding the caller's `KernelFn` contract
                    // intact, op by op: the rows are of this table's lane
                    // type `T`.
                    unsafe { run_chain::<T, WHOLE>(li.cast(), args, w, cu) };
                }
            }

            /// # Safety
            /// As [`KernelFn`].
            $(#[$attr])?
            unsafe fn k_chain_s<const WHOLE: bool>(li: *mut (), ops: &[KernelArgs], w: LaneWindow) {
                for args in ops {
                    // SAFETY: forwarding the caller's `KernelFn` contract
                    // intact, op by op: the rows are of this table's lane
                    // type `T`.
                    unsafe { run_chain::<T, WHOLE>(li.cast(), args, w, cs) };
                }
            }

            /// This table's two entries for a kernel key, indexed by
            /// [`Entry`]: total over every key [`KernelKey::of`] makes.
            pub(super) fn kernel_table(key: KernelKey) -> [KernelFn; 2] {
                [entry::<true>(key), entry::<false>(key)]
            }

            /// [`kernel_table`]'s [`Entry::Whole`] kernel if `WHOLE`,
            /// else its [`Entry::Any`] one.
            fn entry<const WHOLE: bool>(key: KernelKey) -> KernelFn {
                use DfgOp::*;
                macro_rules! pick {
                    ($unsigned:ident, $signed:ident) => {
                        if key.signed {
                            $signed::<WHOLE> as KernelFn
                        } else {
                            $unsigned::<WHOLE>
                        }
                    };
                }
                match key.body {
                    Const => k_const::<WHOLE>,
                    Add => pick!(k_add_u, k_add_s),
                    Sub => pick!(k_sub_u, k_sub_s),
                    Mul => pick!(k_mul_u, k_mul_s),
                    Divu => pick!(k_divu_u, k_divu_s),
                    Divs => pick!(k_divs_u, k_divs_s),
                    Remu => pick!(k_remu_u, k_remu_s),
                    Rems => pick!(k_rems_u, k_rems_s),
                    And => pick!(k_and_u, k_and_s),
                    Or => pick!(k_or_u, k_or_s),
                    Xor => pick!(k_xor_u, k_xor_s),
                    Ltu => pick!(k_ltu_u, k_ltu_s),
                    Lts => pick!(k_lts_u, k_lts_s),
                    Leu => pick!(k_leu_u, k_leu_s),
                    Les => pick!(k_les_u, k_les_s),
                    Gtu => pick!(k_gtu_u, k_gtu_s),
                    Gts => pick!(k_gts_u, k_gts_s),
                    Geu => pick!(k_geu_u, k_geu_s),
                    Ges => pick!(k_ges_u, k_ges_s),
                    Eq => pick!(k_eq_u, k_eq_s),
                    Neq => pick!(k_neq_u, k_neq_s),
                    Dshl => pick!(k_dshl_u, k_dshl_s),
                    Dshr if key.logical => pick!(k_dshrl_u, k_dshrl_s),
                    Dshr => pick!(k_dshr_u, k_dshr_s),
                    Cat => pick!(k_cat_u, k_cat_s),
                    ValidIf => pick!(k_validif_u, k_validif_s),
                    Not => pick!(k_not_u, k_not_s),
                    Neg => pick!(k_neg_u, k_neg_s),
                    Andr => pick!(k_andr_u, k_andr_s),
                    Orr => pick!(k_orr_u, k_orr_s),
                    Xorr => pick!(k_xorr_u, k_xorr_s),
                    Shl => pick!(k_shl_u, k_shl_s),
                    Shr if key.logical => pick!(k_shrl_u, k_shrl_s),
                    Shr => pick!(k_shr_u, k_shr_s),
                    Bits => pick!(k_bits_u, k_bits_s),
                    Head => pick!(k_head_u, k_head_s),
                    Resize | Identity => pick!(k_resize_u, k_resize_s),
                    Mux => pick!(k_mux_u, k_mux_s),
                    MuxChain => pick!(k_chain_u, k_chain_s),
                    // `KernelKey::of` keys no source op.
                    Input | RegState => unreachable!("a source op has no kernel"),
                }
            }
        }
    };
}

kernel_table!(baseline_u64, u64, i64);
kernel_table!(baseline_u32, u32, i32);
#[cfg(target_arch = "x86_64")]
kernel_table!(avx2_u64, u64, i64, #[target_feature(enable = "avx2")]);
#[cfg(target_arch = "x86_64")]
kernel_table!(avx2_u32, u32, i32, #[target_feature(enable = "avx2")]);

/// One operation compiled to a specialized lane kernel: the executable
/// form of an [`OpInst`] — its two entries, indexed by [`Entry`], and the
/// arguments both read. The batched engine keeps no `CompiledOp`s: it
/// walks [`KernelRun`]s over the args [`compile_runs`] folds. This is
/// the one-op form the verifier, the specialized tier and the tests use.
#[derive(Debug, Clone)]
pub struct CompiledOp {
    kernels: [KernelFn; 2],
    args: KernelArgs,
}

// The run walk streams these: growing one by a cache line's worth cost
// the memory-bound chip 13 % of its lane rate (measured when the walk
// streamed a `CompiledOp`, these args and their two entries).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<KernelArgs>() == 56);

impl KernelArgs {
    /// The key of the kernel these arguments were folded for.
    fn key(&self) -> Option<KernelKey> {
        let op = DfgOp::from_n_coord(self.n)?;
        let arity = match self.var.as_deref() {
            Some(var) => var.ins.len(),
            None => op.arity()?,
        };
        KernelKey::of(op, arity, self.signed, self.logical)
    }
}

impl CompiledOp {
    /// Compiles an operation instance for `u64` rows — the lane type
    /// that needs no plan: resolves the kernel from the
    /// per-(opcode × arity × signedness) table of the widest instruction
    /// set this CPU has and folds operand offsets, parameters, and the
    /// canonicalization mask into [`KernelArgs`]. A plan's ops compile in
    /// the plan's lane type through [`compile_layer`] (one op at a time)
    /// or [`compile_runs`] (the batched engine's runs).
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
        Self::build(op, isa, LaneType::Wide, false)
    }

    /// Compiles `op` for `u32` rows against a chosen table, given its
    /// operand slots' types: `None` where [`narrow_exact`] (or a result
    /// wider than 32 bits) rules that out.
    #[doc(hidden)]
    pub fn compile_narrow_for(
        op: &OpInst,
        isa: LaneIsa,
        operands: &[SlotType],
    ) -> Option<CompiledOp> {
        let form = narrow_exact(op.op(), operands, &op.params);
        (op.width <= 32 && form != Narrow::Inexact)
            .then(|| Self::build(op, isa, LaneType::Narrow, form == Narrow::Logical))
    }

    /// Compiles `op` for the rows of `layout`, the layout of the plan it
    /// belongs to.
    ///
    /// # Panics
    ///
    /// As [`compile`](Self::compile); and if `layout` is narrow but the
    /// op is not narrow-exact on its slots, i.e. `layout` is of another
    /// plan.
    pub(crate) fn compile_in(op: &OpInst, layout: &LaneLayout) -> CompiledOp {
        let (key, args) = fold_in(op, layout);
        CompiledOp {
            kernels: LaneIsa::detect().kernels(layout.lane, key),
            args,
        }
    }

    fn build(op: &OpInst, isa: LaneIsa, lane: LaneType, logical: bool) -> CompiledOp {
        let (key, args) = fold(op, lane, logical);
        CompiledOp {
            kernels: isa.kernels(lane, key),
            args,
        }
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
    pub(crate) fn operand_slots(&self) -> Vec<u32> {
        if let Some(var) = self.args.var.as_deref() {
            return var.ins.to_vec();
        }
        let arity = self.opcode().and_then(|d| d.arity()).unwrap_or(0).min(3);
        [self.args.a, self.args.b, self.args.c][..arity].to_vec()
    }

    /// Folded canonicalization mask.
    pub(crate) fn mask(&self) -> u64 {
        self.args.msk
    }

    /// Folded sign-extension shift (lane bits minus width).
    pub(crate) fn shift(&self) -> u32 {
        u32::from(self.args.sh)
    }

    /// Whether the op canonicalizes as a signed value.
    pub(crate) fn is_signed(&self) -> bool {
        self.args.signed
    }

    /// The lane type of the rows this kernel walks.
    pub(crate) fn lane_type(&self) -> LaneType {
        self.args.lane
    }

    /// How the kernel relates to the op's 64-bit body: `Logical` for the
    /// unsigned counterpart, else `Exact`.
    pub(crate) fn narrow_form(&self) -> Narrow {
        if self.args.logical {
            Narrow::Logical
        } else {
            Narrow::Exact
        }
    }

    /// Evaluates over the active window of a slot-major `LI` matrix
    /// through a raw pointer — the specialized tier's entry point — with
    /// the entry [`Entry::of`] the window picks: a run of one op.
    ///
    /// # Safety
    ///
    /// `T` must be the element of this kernel's [`lane_type`]
    /// (debug-checked: the batch engine checks it once per walk, where
    /// kernel and state meet). `li` must point to a live slot-major
    /// matrix of `w.stride` lanes per slot covering every slot this op
    /// references, `w.active <= w.stride`, and no other thread may
    /// concurrently access the op's output row or mutate its operand rows
    /// for the duration of the call. (Within one levelized layer, output
    /// rows are disjoint per op and operand rows come from earlier
    /// layers, so layer-barriered workers satisfy this.)
    ///
    /// [`lane_type`]: Self::lane_type
    #[inline]
    pub(crate) unsafe fn eval_lanes_ptr<T: Lane>(&self, li: *mut T, w: LaneWindow) {
        debug_assert!(w.active <= w.stride, "lane window outgrew its stride");
        debug_assert_eq!(T::TYPE, self.args.lane, "rows are not of the kernel's type");
        let ops = std::slice::from_ref(&self.args);
        // SAFETY: the caller upholds this method's contract, which is
        // exactly the `KernelFn` contract the folded kernel requires for
        // its one op — the rows are of the table's lane type; and the
        // kernel came out of the table of a `LaneIsa`, which exists only
        // for an instruction set detected on this CPU. (`Entry::of` hands
        // the `Whole` kernel only windows of whole chunks; it would be as
        // safe on any other, just leave the remainder unwritten.)
        unsafe { (self.kernels[Entry::of(w) as usize])(li.cast(), ops, w) };
    }

    /// Evaluates over the active window of an exclusively borrowed `LI`
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the element of this kernel's lane type, if
    /// the window is wider than its stride, or if `li` does not hold
    /// every row the op references.
    #[inline]
    pub fn eval_lanes<T: Lane>(&self, li: &mut [T], w: LaneWindow) {
        self.eval_lanes_as(Entry::of(w), li, w);
    }

    /// [`eval_lanes`](Self::eval_lanes) through a chosen entry, so tests
    /// can run [`Entry::Any`] over whole windows too.
    ///
    /// # Panics
    ///
    /// As [`eval_lanes`](Self::eval_lanes); and if `entry` is
    /// [`Entry::Whole`] but the window is not whole chunks.
    #[doc(hidden)]
    pub fn eval_lanes_as<T: Lane>(&self, entry: Entry, li: &mut [T], w: LaneWindow) {
        self.check_rows::<T>(entry, li.len(), w);
        let ops = std::slice::from_ref(&self.args);
        // SAFETY: an exclusive borrow covers the whole matrix, whose
        // element, length and window `check_rows` just checked against
        // the kernel's: the contract of either entry, whose `Whole` form
        // was just checked to fit the window.
        unsafe { (self.kernels[entry as usize])(li.as_mut_ptr().cast(), ops, w) }
    }

    /// Evaluates `run` — ops that share one kernel ([`KernelKey`]) — by
    /// one call of the first op's `entry` over all their args, in order:
    /// what one run of the batched engine's walk does, for tests to hold
    /// against one call per op.
    ///
    /// # Panics
    ///
    /// As [`eval_lanes_as`](Self::eval_lanes_as) for every op of `run`;
    /// and if two of them do not share a kernel.
    #[doc(hidden)]
    pub fn eval_run_as<T: Lane>(run: &[CompiledOp], entry: Entry, li: &mut [T], w: LaneWindow) {
        let Some(first) = run.first() else {
            return;
        };
        for op in run {
            op.check_rows::<T>(entry, li.len(), w);
            assert_eq!(
                op.args.key(),
                first.args.key(),
                "the ops of a run share a kernel"
            );
        }
        let ops: Vec<KernelArgs> = run.iter().map(|op| op.args.clone()).collect();
        // SAFETY: as `eval_lanes_as`, for every op of the run, whose
        // element, length and window `check_rows` checked one by one.
        unsafe { (first.kernels[entry as usize])(li.as_mut_ptr().cast(), &ops, w) }
    }

    /// Panics unless `entry` may run this op over a matrix of `len`
    /// elements of `T` in window `w`: the element is the kernel's, the
    /// matrix holds every row the op names, the window fits its stride,
    /// and a [`Entry::Whole`] window is whole chunks.
    fn check_rows<T: Lane>(&self, entry: Entry, len: usize, w: LaneWindow) {
        assert_eq!(T::TYPE, self.args.lane, "rows are not of the kernel's type");
        assert!(
            entry == Entry::Any || Entry::of(w) == Entry::Whole,
            "{} lanes are not whole chunks",
            w.active
        );
        assert_covers(len, self.args.max_slot, w);
    }
}

/// Folds `op` for rows of `lane` — as its unsigned counterpart if
/// `logical` — into the key of its kernel and its arguments.
///
/// # Panics
///
/// As [`CompiledOp::compile`].
fn fold(op: &OpInst, lane: LaneType, logical: bool) -> (KernelKey, KernelArgs) {
    let d = op.op();
    let arity = op.ins.len();
    let key = KernelKey::of(d, arity, op.signed, logical)
        .unwrap_or_else(|| panic!("`{d}` with {arity} operand(s) is not compilable"));
    let width = (op.width as u32).clamp(1, lane.bits());
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
        p1: op.params.get(1).copied().unwrap_or(0) as u32,
        msk: mask(width),
        sh: (lane.bits() - width) as u8,
        n: op.n,
        signed: op.signed,
        lane,
        logical,
        max_slot,
        var: (d == DfgOp::MuxChain).then(|| {
            Box::new(VarArgs {
                ins: op.ins.clone().into_boxed_slice(),
            })
        }),
    };
    (key, args)
}

/// [`fold`] for the rows of `layout`, the layout of the plan `op`
/// belongs to.
///
/// # Panics
///
/// As [`CompiledOp::compile_in`].
fn fold_in(op: &OpInst, layout: &LaneLayout) -> (KernelKey, KernelArgs) {
    let form = layout.narrow_form(op);
    assert!(
        form != Narrow::Inexact,
        "`{}` into slot {} is not narrow-exact in this layout",
        op.op(),
        op.out
    );
    fold(op, layout.lane, form == Narrow::Logical)
}

/// Panics unless a lane matrix of `len` elements holds rows `0..=max_slot`
/// of `w.stride` lanes each and `w` fits within its stride: the bounds
/// side of the kernel contract, which the safe entry points (here and
/// [`OpInst::eval_lanes`]) check before they walk.
#[inline]
pub(crate) fn assert_covers(len: usize, max_slot: u32, w: LaneWindow) {
    assert!(
        w.active <= w.stride,
        "a window of {} lanes is wider than its stride {}",
        w.active,
        w.stride
    );
    let need = (max_slot as usize + 1).checked_mul(w.stride);
    assert!(
        need.is_some_and(|need| len >= need),
        "a lane matrix of {len} elements is short of slot {max_slot} at stride {}",
        w.stride
    );
}

/// One layer of compiled operations (independent within the layer, as
/// guaranteed by levelization).
pub type CompiledLayer = Vec<CompiledOp>;

/// Compiles every layer of a plan, in the plan's lane type. Layer and op
/// order are preserved, so swizzled traversals can compile their own
/// reordered layer lists with [`compile_layer`].
pub fn compile_plan(plan: &SimPlan) -> Vec<CompiledLayer> {
    let layout = LaneLayout::of(plan);
    plan.layers
        .iter()
        .map(|l| compile_layer(l, &layout))
        .collect()
}

/// Compiles one layer's operations in order, for the rows of `layout` —
/// the layout of the plan the layer (or a reordering, replica or subset
/// of it) belongs to.
pub fn compile_layer(layer: &[OpInst], layout: &LaneLayout) -> CompiledLayer {
    layer
        .iter()
        .map(|op| CompiledOp::compile_in(op, layout))
        .collect()
}

/// A run of the batched engine's walk: consecutive ops of one layer that
/// share a kernel ([`KernelKey`]), which one call evaluates in order.
/// Its ops are a stretch of the args [`compile_runs`] folded them into.
#[derive(Debug, Clone)]
pub struct KernelRun {
    kernels: [KernelFn; 2],
    ops: Range<u32>,
}

impl KernelRun {
    /// Where the run's ops are in the args they were folded into.
    pub fn ops(&self) -> Range<usize> {
        self.ops.start as usize..self.ops.end as usize
    }

    /// Evaluates `ops` — the run's args or a stretch of them — over the
    /// active window of a slot-major `LI` matrix, one op after the other,
    /// through the entry [`Entry::of`] the window picks: one kernel call.
    ///
    /// # Safety
    ///
    /// As `CompiledOp::eval_lanes_ptr` for every op of `ops`, which
    /// must be args [`compile_runs`] folded for this run: `T` is the
    /// element of the rows they were compiled for (debug-checked), `li`
    /// covers every slot they reference, and no other thread touches
    /// their output rows or mutates their operand rows meanwhile. (A
    /// later op of a run may read an earlier one's output: the kernel
    /// finishes each op before it starts the next.)
    #[inline]
    pub unsafe fn eval_lanes_ptr<T: Lane>(&self, li: *mut T, ops: &[KernelArgs], w: LaneWindow) {
        debug_assert!(w.active <= w.stride, "lane window outgrew its stride");
        debug_assert!(
            ops.iter().all(|op| op.lane == T::TYPE),
            "rows are not of the kernel's type"
        );
        // SAFETY: the caller upholds the `KernelFn` contract for every op
        // of `ops`, and the kernel came out of the table of a `LaneIsa`
        // detected on this CPU (as in `CompiledOp::eval_lanes_ptr`).
        unsafe { (self.kernels[Entry::of(w) as usize])(li.cast(), ops, w) };
    }
}

/// Compiles one layer's operations in order for the rows of `layout` —
/// the layout of the plan the layer (or a partition's share of it)
/// belongs to — into the batched engine's run form: appends each op's
/// args to `args`, and to `runs` the maximal stretches of consecutive
/// ops with one kernel. Runs end at the layer's end. Sort the layer by
/// [`LaneLayout::kernel_key`] first and it becomes one run per kernel.
///
/// # Panics
///
/// As [`CompiledOp::compile`], for every op; and if `layout` is narrow
/// but an op is not narrow-exact on its slots, i.e. `layout` is of
/// another plan.
pub fn compile_runs(
    layer: &[OpInst],
    layout: &LaneLayout,
    args: &mut Vec<KernelArgs>,
    runs: &mut Vec<KernelRun>,
) {
    let isa = LaneIsa::detect();
    let mut last = None;
    for op in layer {
        let (key, folded) = fold_in(op, layout);
        let at = u32::try_from(args.len()).expect("fewer than 2^32 ops");
        args.push(folded);
        match runs.last_mut() {
            Some(run) if last == Some(key) => run.ops.end = at + 1,
            _ => runs.push(KernelRun {
                kernels: isa.kernels(layout.lane, key),
                ops: at..at + 1,
            }),
        }
        last = Some(key);
    }
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

    /// The `i`-th element of a fixed stimulus stream whose lanes cover
    /// the operand classes that decide an op's outcome — 0, 1, all-ones,
    /// a small value (an in-range shift amount), the same lane of the row
    /// above (equal operands; `above`) — next to uniform 64-bit values.
    fn stimulus_at(i: usize, above: Option<u64>) -> u64 {
        let h = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        match ((h >> 59) % 6, above) {
            (0, _) => 0,
            (1, _) => 1,
            (2, _) => u64::MAX,
            (3, _) => h % 70,
            (4, Some(above)) => above,
            _ => h,
        }
    }

    fn stimulus(slots: usize, lanes: usize) -> Vec<u64> {
        let mut li = Vec::with_capacity(slots * lanes);
        for i in 0..slots * lanes {
            li.push(stimulus_at(i, i.checked_sub(lanes).map(|j| li[j])));
        }
        li
    }

    /// The same stream as rows of `u32`, each element canonical for its
    /// slot's type (`types[0]` is the output's) — and, one element in
    /// three, with the type's top bit forced on: bit 31 of a 32-bit
    /// unsigned value, the sign of a signed one. Those are the values a
    /// narrow row must *widen* right.
    fn narrow_stimulus(types: &[SlotType], lanes: usize) -> Vec<u32> {
        let mut li: Vec<u32> = Vec::with_capacity(types.len() * lanes);
        for (s, &(w, signed)) in types.iter().enumerate() {
            for lane in 0..lanes {
                let i = s * lanes + lane;
                let above = i.checked_sub(lanes).map(|j| li[j].widen(types[s - 1].1));
                let top = if i.is_multiple_of(3) { 1 << (w - 1) } else { 0 };
                li.push(canonicalize(stimulus_at(i, above) | top, w as u32, signed) as u32);
            }
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

    /// The narrow half of [`assert_matches_interpreter`]: where
    /// `narrow_exact` admits `op` on operands of `types` (slot order, so
    /// `types[0]` is ignored), the `u32` kernel of every supported table
    /// must produce the *truncation* of what `eval_raw` + `canonicalize`
    /// produce on the widened operands. Returns whether it was admitted.
    fn assert_narrow_matches_interpreter(op: &OpInst, types: &[SlotType], lanes: usize) -> bool {
        let operands: Vec<SlotType> = op.ins.iter().map(|&r| types[r as usize]).collect();
        let li = narrow_stimulus(types, lanes);
        let mut admitted = false;
        for active in [lanes, lanes / 2] {
            let mut want = li.clone();
            for lane in 0..active {
                let ins: Vec<u64> = op
                    .ins
                    .iter()
                    .map(|&r| li[r as usize * lanes + lane].widen(types[r as usize].1))
                    .collect();
                let raw = eval_raw(op.op(), &op.params, &ins);
                want[op.out as usize * lanes + lane] =
                    canonicalize(raw, op.width as u32, op.signed) as u32;
            }
            let w = LaneWindow {
                stride: lanes,
                active,
            };
            for isa in LaneIsa::supported() {
                let Some(compiled) = CompiledOp::compile_narrow_for(op, isa, &operands) else {
                    continue;
                };
                admitted = true;
                assert_eq!(compiled.lane_type(), LaneType::Narrow);
                let mut got = li.clone();
                compiled.eval_lanes(&mut got, w);
                assert_eq!(
                    got,
                    want,
                    "narrow op {} {:?} on {operands:?} params {:?} active {active} {isa:?}",
                    op.op(),
                    (op.width, op.signed),
                    op.params
                );
            }
        }
        admitted
    }

    /// Operand types the narrow sweeps draw from: every signedness at the
    /// widths where something changes (1 bit, mid-width, one under and at
    /// the row's width).
    const NARROW_TYPES: [SlotType; 8] = [
        (1, false),
        (1, true),
        (12, false),
        (12, true),
        (31, false),
        (31, true),
        (32, false),
        (32, true),
    ];

    /// Parameter sets worth running `op` under when its first operand is
    /// `a` wide and its second `b`.
    fn narrow_params(op: DfgOp, a: u8, b: u8) -> Vec<Vec<u64>> {
        let a = a as u64;
        match op {
            DfgOp::Const => vec![vec![0xdead_beef_cafe], vec![u64::MAX]],
            DfgOp::Andr | DfgOp::Orr | DfgOp::Xorr => vec![vec![a]],
            DfgOp::Shl | DfgOp::Shr => [0, 1, 7, 31, 32, 33, 63, 64, 70]
                .iter()
                .map(|&n| vec![n])
                .collect(),
            DfgOp::Bits => vec![vec![a - 1, 0], vec![a - 1, a / 2], vec![a / 2, a / 2]],
            DfgOp::Head => vec![vec![1, a], vec![a, a]],
            DfgOp::Cat => vec![vec![a, b as u64]],
            _ => vec![vec![]],
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
    fn every_narrow_exact_shape_matches_eval_raw_truncated() {
        // Every opcode × result type × operand type combination
        // (`NARROW_TYPES`² for the first two operands; the third of a mux
        // and the tail of a chain rotate through the list), whichever way
        // the predicate answers: an admitted shape must be exact, and the
        // low-bits-only ops must be admitted.
        let mut admitted = 0;
        for &op in &ALL_OPS {
            if matches!(op, DfgOp::Input | DfgOp::RegState) {
                continue;
            }
            let arity = op.arity().unwrap_or(7);
            for (k, &out) in NARROW_TYPES.iter().enumerate() {
                for (i, &a) in NARROW_TYPES.iter().enumerate() {
                    for (j, &b) in NARROW_TYPES.iter().enumerate() {
                        if (arity < 2 && j > 0) || (arity < 1 && i > 0) {
                            continue;
                        }
                        let mut types = vec![out, a, b];
                        types.extend((2..arity).map(|o| NARROW_TYPES[(i + j + k + o) % 8]));
                        for params in narrow_params(op, a.0, b.0) {
                            let op = inst(op, arity, params, out.0, out.1);
                            let ok = assert_narrow_matches_interpreter(&op, &types, 2 * CHUNK + 3);
                            admitted += ok as usize;
                            let form = narrow_exact(op.op(), &types[1..=arity], &op.params);
                            assert_eq!(ok, form != Narrow::Inexact);
                        }
                    }
                }
            }
        }
        assert!(admitted > 5000, "the sweep ran narrow kernels: {admitted}");
    }

    #[test]
    fn narrow_exact_rejects_or_handles_the_known_hard_shapes() {
        use DfgOp::*;
        use Narrow::*;
        const U32: SlotType = (32, false);
        const S32: SlotType = (32, true);
        const U31: SlotType = (31, false);
        const S12: SlotType = (12, true);
        let table: &[(DfgOp, &[SlotType], &[u64], Narrow)] = &[
            // Ops that read operands as `i64`, on zero-extended operands
            // with bit 31 in use: handled, as their unsigned counterpart.
            (Lts, &[U32, U32], &[], Logical),
            (Ges, &[U32, U31], &[], Logical),
            (Shr, &[U32], &[3], Logical),
            (Shr, &[U32], &[40], Logical),
            (Dshr, &[U32, U32], &[], Logical),
            (Dshr, &[U32, S12], &[], Logical),
            (Divs, &[U32, U32], &[], Logical),
            (Rems, &[U32, U31], &[], Logical),
            // ... themselves, wherever the operands sign-extend.
            (Lts, &[S32, S12], &[], Exact),
            (Lts, &[U31, S32], &[], Exact),
            (Shr, &[S32], &[33], Exact),
            (Shr, &[U31], &[3], Exact),
            (Dshr, &[S32, U32], &[], Exact),
            (Divs, &[S32, S32], &[], Exact),
            // ... and nothing when the two operands extend differently.
            (Lts, &[U32, S32], &[], Inexact),
            (Divs, &[S12, U32], &[], Inexact),
            // Order, equality and unsigned division across signedness.
            (Ltu, &[U32, S32], &[], Inexact),
            (Eq, &[S12, U32], &[], Inexact),
            (Neq, &[U32, S32], &[], Inexact),
            (Ltu, &[S32, S12], &[], Exact),
            (Eq, &[U31, S32], &[], Exact),
            (Divu, &[U32, S32], &[], Inexact),
            (Divu, &[S32, S32], &[], Inexact),
            (Remu, &[U31, S12], &[], Inexact),
            (Divu, &[U32, U31], &[], Exact),
            // Left shifts by 32..63 zero the low word either way.
            (Shl, &[U32], &[32], Exact),
            (Shl, &[S32], &[63], Exact),
            (Dshl, &[U32, U32], &[], Exact),
            (Dshl, &[S32, S32], &[], Exact),
            // A `cat` past 32 bits (a fused truncation) keeps its low word.
            (Cat, &[U32, U32], &[32, 32], Exact),
            (Cat, &[(20, false), (20, true)], &[20, 20], Exact),
            // Extracts must stay below bit 32.
            (Bits, &[S32], &[32, 4], Inexact),
            (Bits, &[S32], &[31, 4], Exact),
            (Head, &[U32], &[4, 40], Inexact),
            (Head, &[U32], &[0, 32], Inexact),
            (Andr, &[S12], &[33], Inexact),
            (Xorr, &[S32], &[32], Exact),
        ];
        for &(op, operands, params, want) in table {
            assert_eq!(
                narrow_exact(op, operands, params),
                want,
                "{op} on {operands:?} params {params:?}"
            );
            // Whatever was admitted is run, against results as wide as a
            // narrow row holds and as narrow as one bit.
            for out in [(32, false), (32, true), (1, false)] {
                let mut types = vec![out];
                types.extend_from_slice(operands);
                let op = inst(op, operands.len(), params.to_vec(), out.0, out.1);
                let ran = assert_narrow_matches_interpreter(&op, &types, 3 * CHUNK + 1);
                assert_eq!(ran, want != Inexact);
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
        // In a narrow row, its low word — which widens back to it.
        for isa in LaneIsa::supported() {
            let narrow = CompiledOp::compile_narrow_for(&op, isa, &[]).expect("const is exact");
            let mut li = vec![0u32; 5];
            narrow.eval_lanes(&mut li, LaneWindow::full(5));
            assert_eq!(li, vec![(-4i32) as u32; 5]);
            assert_eq!(li[0].widen(true), (-4i64) as u64);
        }
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

    /// Lanes per row of the entry sweep: past the widest window, so every
    /// window leaves lanes whose values must survive it.
    const SWEEP_STRIDE: usize = 67;

    /// Windows of the entry sweep: whole chunks, then ragged ones either
    /// side of a chunk boundary.
    const SWEEP_WINDOWS: [usize; 9] = [8, 16, 24, 64, 1, 5, 7, 9, 63];

    /// `eval_raw` + `canonicalize` of `op` on every lane of `w`, on
    /// operands widened by their slot's signedness (`signed`, by slot),
    /// truncated into rows of `T`; every other element as in `li`.
    fn golden<T: Lane>(op: &OpInst, li: &[T], signed: &[bool], w: LaneWindow) -> Vec<T> {
        let mut want = li.to_vec();
        for lane in 0..w.active {
            let ins: Vec<u64> = (op.ins.iter())
                .map(|&r| li[r as usize * w.stride + lane].widen(signed[r as usize]))
                .collect();
            let raw = eval_raw(op.op(), &op.params, &ins);
            want[op.out as usize * w.stride + lane] =
                T::truncate(canonicalize(raw, op.width as u32, op.signed));
        }
        want
    }

    /// Runs `compiled` through every entry that may run `w` — both on a
    /// window of whole chunks, [`Entry::Any`] on any other — and asserts
    /// each leaves `want`.
    fn assert_entries<T: Lane>(compiled: &CompiledOp, li: &[T], want: &[T], w: LaneWindow) {
        for entry in [Entry::Whole, Entry::Any] {
            if entry == Entry::Whole && Entry::of(w) != Entry::Whole {
                continue;
            }
            let mut got = li.to_vec();
            compiled.eval_lanes_as(entry, &mut got, w);
            assert_eq!(
                got,
                want,
                "{} {:?} {:?} params {:?} {entry:?} active {}",
                compiled.opcode().expect("valid opcode"),
                compiled.lane_type(),
                (compiled.args.msk, compiled.is_signed()),
                (compiled.args.p0, compiled.args.p1),
                w.active
            );
        }
    }

    #[test]
    fn both_entries_match_eval_raw_on_whole_and_partial_windows() {
        // Every op of every table this CPU runs, in both lane types, through
        // both entries, on whole windows and ragged ones: lanes inside the
        // window agree with the interpreter, lanes past it keep their
        // values.
        let types = [(1, false), (12, true), (32, false)];
        for &op in &ALL_OPS {
            if matches!(op, DfgOp::Input | DfgOp::RegState) {
                continue;
            }
            let arity = op.arity().unwrap_or(7);
            let mut narrow_runs = 0;
            for params in narrow_params(op, 32, 32) {
                for (width, signed) in [(1, false), (13, true), (32, false), (64, true)] {
                    let op = inst(op, arity, params.clone(), width, signed);
                    let li = stimulus(arity + 1, SWEEP_STRIDE);
                    for active in SWEEP_WINDOWS {
                        let w = LaneWindow {
                            stride: SWEEP_STRIDE,
                            active,
                        };
                        let want = golden(&op, &li, &vec![false; arity + 1], w);
                        for isa in LaneIsa::supported() {
                            assert_entries(&CompiledOp::compile_for(&op, isa), &li, &want, w);
                        }
                    }
                }
                for out in types {
                    for operand in types {
                        let mut slots = vec![out];
                        slots.extend(std::iter::repeat_n(operand, arity));
                        let op = inst(op, arity, params.clone(), out.0, out.1);
                        let signed: Vec<bool> = slots.iter().map(|t| t.1).collect();
                        let li = narrow_stimulus(&slots, SWEEP_STRIDE);
                        for active in SWEEP_WINDOWS {
                            let w = LaneWindow {
                                stride: SWEEP_STRIDE,
                                active,
                            };
                            let want = golden(&op, &li, &signed, w);
                            for isa in LaneIsa::supported() {
                                let Some(compiled) =
                                    CompiledOp::compile_narrow_for(&op, isa, &slots[1..])
                                else {
                                    continue;
                                };
                                narrow_runs += 1;
                                assert_entries(&compiled, &li, &want, w);
                            }
                        }
                    }
                }
            }
            assert!(narrow_runs > 0, "{op} ran in u32 rows");
        }
    }

    #[test]
    #[should_panic(expected = "1 lanes are not whole chunks")]
    fn the_whole_window_entry_refuses_a_ragged_window() {
        let op = inst(DfgOp::Not, 1, vec![], 8, false);
        let w = LaneWindow::full(1);
        CompiledOp::compile(&op).eval_lanes_as(Entry::Whole, &mut [0u64; 2], w);
    }

    #[test]
    #[should_panic(expected = "a lane matrix of 4 elements is short of slot 10 at stride 1")]
    fn eval_lanes_refuses_a_matrix_short_of_the_ops_rows() {
        let mut op = inst(DfgOp::Add, 2, vec![], 8, false);
        op.out = 10;
        let mut backing = [7u64; 16];
        CompiledOp::compile(&op).eval_lanes(&mut backing[..4], LaneWindow::full(1));
    }

    #[test]
    #[should_panic(expected = "a window of 9 lanes is wider than its stride 2")]
    fn eval_lanes_refuses_a_window_wider_than_its_stride() {
        let op = inst(DfgOp::Add, 2, vec![], 8, false);
        let w = LaneWindow {
            stride: 2,
            active: 9,
        };
        CompiledOp::compile(&op).eval_lanes(&mut [7u64; 64], w);
    }

    #[test]
    #[should_panic(expected = "rows are not of the kernel's type")]
    fn a_kernel_refuses_rows_of_the_other_lane_type() {
        let op = inst(DfgOp::Not, 1, vec![], 8, false);
        CompiledOp::compile(&op).eval_lanes(&mut [0u32; 4], LaneWindow::full(2));
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
                let shapes = [LaneType::Narrow, LaneType::Wide]
                    .into_iter()
                    .flat_map(|lane| [(lane, false, false), (lane, true, false)])
                    .chain([
                        (LaneType::Narrow, false, true),
                        (LaneType::Narrow, true, true),
                    ]);
                for (lane, signed, logical) in shapes {
                    for &arity in &good {
                        let key = KernelKey::of(op, arity, signed, logical);
                        let key = key.unwrap_or_else(|| {
                            panic!("{isa:?}/{lane:?}: no kernel for {op} arity {arity} signed {signed}")
                        });
                        isa.kernels(lane, key);
                    }
                    for &arity in &bad {
                        assert!(
                            KernelKey::of(op, arity, signed, logical).is_none(),
                            "{op} arity {arity}"
                        );
                    }
                }
            }
        }
    }

    /// A hand-built plan: one register fed by `op(reg, input)`, the
    /// register and input typed `reg` and `input`.
    fn tiny_plan(op: DfgOp, reg: SlotType, input: SlotType, out: SlotType) -> SimPlan {
        SimPlan {
            name: "tiny".into(),
            num_slots: 4,
            input_slots: vec![1],
            input_types: vec![input],
            output_slots: vec![("out".into(), 3)],
            const_slots: (2, 3),
            commits: vec![(0, 3)],
            init_values: vec![0, 0, 5, 0],
            layers: vec![vec![OpInst {
                n: op.n_coord(),
                out: 3,
                ins: vec![0, 1],
                params: vec![],
                width: out.0,
                signed: out.1,
            }]],
            stats: Default::default(),
            probes: vec![("r".into(), 0, reg.0)],
            signed_probes: if reg.1 { vec![0] } else { vec![] },
        }
    }

    #[test]
    fn the_lane_type_is_a_function_of_slot_types_and_the_predicate() {
        let narrow = tiny_plan(DfgOp::Add, (32, false), (12, true), (32, false));
        let layout = LaneLayout::of(&narrow);
        assert_eq!(layout.lane_type(), LaneType::Narrow);
        assert_eq!(layout.why_wide(), None);
        // Register from its probe, input from the port list, the constant
        // from its value, the op's output from the op.
        assert_eq!(
            layout.slot_types(),
            &[(32, false), (12, true), (3, false), (32, false)]
        );
        assert_eq!(layout.signed_slots(), [false, true, false, false]);
        assert_eq!(
            LaneType::supported_for(&narrow),
            [LaneType::Wide, LaneType::Narrow]
        );
        assert_eq!(
            LaneLayout::of_as(&narrow, LaneType::Wide).lane_type(),
            LaneType::Wide
        );

        // One 33-bit register, one 33-bit result, one op the predicate
        // rejects, one power-on value that is not its slot's: each keeps
        // the whole plan wide, and says why.
        let wide_reg = tiny_plan(DfgOp::Add, (33, false), (12, true), (32, false));
        let wide_out = tiny_plan(DfgOp::Add, (32, false), (12, true), (33, false));
        let inexact = tiny_plan(DfgOp::Ltu, (32, false), (12, true), (1, false));
        let mut bad_init = narrow.clone();
        bad_init.init_values[0] = 1 << 40;
        for (plan, why) in [
            (&wide_reg, "slot 0 is 33 bits wide"),
            (&wide_out, "slot 3 is 33 bits wide"),
            (&inexact, "not narrow-exact"),
            (&bad_init, "slot 0 powers on as"),
        ] {
            let layout = LaneLayout::of(plan);
            assert_eq!(layout.lane_type(), LaneType::Wide, "{why}");
            assert!(layout.why_wide().is_some_and(|w| w.contains(why)), "{why}");
            assert_eq!(LaneType::supported_for(plan), [LaneType::Wide]);
        }
        // A constant is as wide as its value: negative ones are signed.
        assert_eq!(type_of_value(0), (1, false));
        assert_eq!(type_of_value(u32::MAX as u64), (32, false));
        assert_eq!(type_of_value(1 << 32), (33, false));
        assert_eq!(type_of_value(u64::MAX), (1, true));
        assert_eq!(type_of_value(i32::MIN as i64 as u64), (32, true));
        assert_eq!(type_of_value(i32::MIN as i64 as u64 - 1), (33, true));
    }

    #[test]
    #[should_panic(expected = "does not run in u32 rows: slot 0 is 33 bits wide")]
    fn the_witness_cannot_force_a_wide_plan_narrow() {
        let plan = tiny_plan(DfgOp::Add, (33, false), (12, true), (32, false));
        LaneLayout::of_as(&plan, LaneType::Narrow);
    }
}
