//! Whole-design specialization: the compile tier between coordinate
//! assignment and the batched lane walk.
//!
//! The static verifier ([`crate::analyze`]) already *names* the waste in
//! a plan — `dead_ops`, `never_toggling`, per-layer `layer_activity` —
//! and the profiled walk (`BatchKernel::step_profiled`) attributes the
//! dynamic cost layer by layer. This module *spends* that attribution,
//! in two stages:
//!
//! 1. **Plan specialization** ([`specialize`]): a plan→plan transform
//!    that constant-folds operations whose inputs can never toggle
//!    (their outputs become power-on constants in `init_values`),
//!    deduplicates structurally identical operations (classic value
//!    numbering, guarded by observability), removes operations no
//!    output, probe, or register commit can ever see (dead-code
//!    elimination over the same roots the verifier uses), and drops the
//!    layers this empties. The result is still an ordinary [`SimPlan`]
//!    over the *same* slot numbering — every downstream consumer
//!    (partitioner, verifier, kernel compiler, batched state, DMI
//!    pokes, waveforms) works unchanged, and observable slots keep
//!    their meaning.
//!
//! 2. **Bit-packing** ([`SpecProgram`]): the specialized layers are
//!    lowered to the lane kernels every tier runs ([`CompiledOp`] — one
//!    set of lane bodies, in `crate::lane_kernel`), except for interior
//!    slots whose canonicalization mask is a single bit. Those are
//!    *bit-packed*: 64 lanes per `u64` word in a sidecar bit-plane
//!    matrix, with `Pack` (gather) and `Unpack` (scatter) moves at the
//!    packed region's boundary. A packed AND/OR/XOR/MUX processes 64
//!    stimulus lanes per instruction instead of one. A profitability
//!    pass keeps a packed cluster only if it out-earns its boundary
//!    moves; a program that packs nothing is exactly the per-op walk of
//!    the specialized plan.
//!
//! # What stays bit-exact
//!
//! Specialized execution guarantees bit-identical *observables* versus
//! the interpreted golden model: output ports, probed signals (and
//! therefore halt conditions, waveforms, and DMI pokes), and register
//! state — every slot the verifier treats as a liveness root.
//! Interior wires that were folded, deduplicated, dead, or packed are
//! exactly the slots no public API observes.
//!
//! # Safety model
//!
//! Packed rows live in a sidecar `bits` buffer (rows × words, where
//! `words = ⌈stride/64⌉`); every row is rewritten in the cycle that
//! reads it, so the buffer carries nothing from one cycle to the next.
//! Within one layer the program is executed in two phases — phase A
//! moves values across the wide/packed boundary (`Pack`/`Unpack`),
//! phase B evaluates wide and packed bodies — and every instruction of
//! a phase writes a row (wide `LI` row or bit row) no other instruction
//! of the same phase touches, while reading only rows sealed by an
//! earlier layer or the previous phase. That is the same disjointness
//! argument the layer-parallel walk already relies on, so the threaded
//! walk needs one extra barrier per layer that has boundary moves and
//! nothing else.

use crate::lane_kernel::{CompiledOp, Lane, LaneLayout, LaneWindow};
use crate::op::DfgOp;
use crate::plan::{OpInst, SimPlan};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// What the plan transform did, for reports and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpecStats {
    /// Operations before specialization.
    pub ops_before: usize,
    /// Operations after specialization.
    pub ops_after: usize,
    /// Ops constant-folded into `init_values` (never-toggling cones).
    pub folded: usize,
    /// Ops removed by value-numbering deduplication.
    pub deduped: usize,
    /// Ops removed as unobservable (dead-code elimination).
    pub dead_removed: usize,
    /// Layers dropped because specialization emptied them.
    pub layers_dropped: usize,
}

/// A specialized plan: the transformed [`SimPlan`] plus the transform's
/// accounting. The plan keeps the original slot numbering, so every
/// observable (outputs, probes, registers) resolves unchanged.
#[derive(Debug, Clone)]
pub struct SpecializedPlan {
    /// The transformed plan.
    pub plan: SimPlan,
    /// What the transform removed.
    pub stats: SpecStats,
}

/// Slots the transform must preserve verbatim: output ports, probed
/// signals (pokeable via DMI), and both sides of every register commit
/// — the same roots the static verifier's liveness walk uses.
fn observed_slots(plan: &SimPlan) -> HashSet<u32> {
    let mut obs = HashSet::new();
    for &(_, s) in &plan.output_slots {
        obs.insert(s);
    }
    for &(_, s, _) in &plan.probes {
        obs.insert(s);
    }
    for &(dst, src) in &plan.commits {
        obs.insert(dst);
        obs.insert(src);
    }
    obs
}

/// The op's declared arity matches its operand list (analyzer-clean
/// plans always pass; this guards [`crate::op::eval`] against malformed
/// hand-built plans).
fn shape_ok(op: &OpInst) -> bool {
    op.op()
        .arity()
        .map_or(!op.ins.is_empty(), |a| a == op.ins.len())
}

/// Specializes a plan: constant-folds never-toggling ops into
/// `init_values`, deduplicates structurally identical ops, removes
/// unobservable ops, and drops emptied layers. Slot numbering is
/// preserved; the result is a valid plan for every downstream stage
/// (including RepCut partitioning and the static verifier).
///
/// Folding is *observability-guarded*: an op whose output is probed is
/// evaluated but kept, because a DMI poke may overwrite the slot
/// between cycles and the golden model re-establishes the value on the
/// next evaluation — so must we. Deduplication likewise only drops an
/// op whose output no output port, probe, or commit reads.
pub fn specialize(plan: &SimPlan) -> SpecializedPlan {
    let mut plan = plan.clone();
    let mut stats = SpecStats {
        ops_before: plan.total_ops(),
        ..SpecStats::default()
    };
    let observed = observed_slots(&plan);
    let probed: HashSet<u32> = plan.probes.iter().map(|&(_, s, _)| s).collect();

    // Pass 1: constant propagation rooted at the materialized constant
    // slots. An op whose operands are all known evaluates now; if its
    // slot is not pokeable the op itself disappears and the value
    // becomes part of the power-on image (which `reset`/`reset_lane`
    // restore, keeping lane recycling exact).
    let mut known: HashMap<u32, u64> = (plan.const_slots.0..plan.const_slots.1)
        .map(|s| (s, plan.init_values[s as usize]))
        .collect();
    {
        let SimPlan {
            layers,
            init_values,
            ..
        } = &mut plan;
        for layer in layers {
            layer.retain(|op| {
                if !shape_ok(op) {
                    return true;
                }
                let Some(ins) = op
                    .ins
                    .iter()
                    .map(|r| known.get(r).copied())
                    .collect::<Option<Vec<u64>>>()
                else {
                    return true;
                };
                let v = crate::op::eval(op.op(), &op.params, &ins, op.width as u32, op.signed);
                known.insert(op.out, v);
                if probed.contains(&op.out) {
                    return true; // pokeable: keep re-establishing the value
                }
                init_values[op.out as usize] = v;
                stats.folded += 1;
                false
            });
        }
    }

    // Pass 2: value numbering. Two ops with the same opcode, operands,
    // parameters, and result type compute the same value every cycle;
    // the later one's consumers are rewritten to the earlier output
    // (always from a strictly earlier or equal layer, so the value is
    // sealed before any consumer runs).
    type Key = (u16, Vec<u32>, Vec<u64>, u8, bool);
    let mut seen: HashMap<Key, u32> = HashMap::new();
    let mut rewrite: HashMap<u32, u32> = HashMap::new();
    for layer in &mut plan.layers {
        layer.retain_mut(|op| {
            for r in &mut op.ins {
                if let Some(&c) = rewrite.get(r) {
                    *r = c;
                }
            }
            let key = (op.n, op.ins.clone(), op.params.clone(), op.width, op.signed);
            match seen.get(&key) {
                Some(&canon) if !observed.contains(&op.out) => {
                    rewrite.insert(op.out, canon);
                    stats.deduped += 1;
                    false
                }
                Some(_) => true,
                None => {
                    seen.insert(key, op.out);
                    true
                }
            }
        });
    }

    // Pass 3: dead-code elimination, backward from the verifier's
    // liveness roots (outputs, probes, commit sources *and*
    // destinations).
    let mut live = vec![false; plan.num_slots];
    for &s in &observed {
        live[s as usize] = true;
    }
    for layer in plan.layers.iter_mut().rev() {
        // Within a layer ops are independent, so a reverse sweep of the
        // layer list is a valid topological order.
        let kept: Vec<OpInst> = layer
            .iter()
            .filter(|op| live[op.out as usize])
            .cloned()
            .collect();
        for op in &kept {
            for &r in &op.ins {
                live[r as usize] = true;
            }
        }
        stats.dead_removed += layer.len() - kept.len();
        *layer = kept;
    }

    // Pass 4: drop emptied layers and refresh the summary stats.
    let before = plan.layers.len();
    plan.layers.retain(|l| !l.is_empty());
    stats.layers_dropped = before - plan.layers.len();
    plan.stats.layers = plan.layers.len();
    plan.stats.effectual_ops = plan.total_ops();
    stats.ops_after = plan.total_ops();
    SpecializedPlan { plan, stats }
}

// ---------------------------------------------------------------------------
// Packed program: per-op lane kernels + bit-packed lanes
// ---------------------------------------------------------------------------

/// A packed bitwise body: one instruction processes 64 lanes per word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BitBody {
    /// `d = a` (1-bit resize / reductions over a 1-bit field).
    Copy,
    /// `d = !a`.
    Not,
    /// `d = a & b` (also `validif`).
    And,
    /// `d = a | b`.
    Or,
    /// `d = a ^ b` (also 1-bit `neq`).
    Xor,
    /// `d = !(a ^ b)` (1-bit `eq`).
    Xnor,
    /// `d = (a & b) | (!a & c)` (1-bit `mux`; `a` is the selector).
    Mux,
}

/// One packed instruction: a body over bit-plane rows.
#[derive(Debug, Clone, Copy)]
struct BitInst {
    body: BitBody,
    /// Destination row.
    d: u32,
    /// Operand rows (unused trail as 0).
    a: u32,
    b: u32,
    c: u32,
}

/// A boundary move: `Pack` gathers bit 0 of a wide `LI` row into a bit
/// row; `Unpack` scatters a bit row back into a wide `LI` row.
#[derive(Debug, Clone, Copy)]
struct MoveInst {
    row: u32,
    slot: u32,
}

/// One specialized layer: phase A crosses the wide/packed boundary,
/// phase B evaluates the bodies — the compiled per-op lane kernels of
/// every op that stays wide, then the packed bit-plane bodies.
#[derive(Debug, Clone, Default)]
struct SpecLayer {
    packs: Vec<MoveInst>,
    unpacks: Vec<MoveInst>,
    wide: Vec<CompiledOp>,
    bits: Vec<BitInst>,
}

/// The compiled program for one (unpartitioned) specialized plan: per
/// layer, the lane kernels of the ops that stay wide and the packed
/// bodies of the bit-packed 1-bit interior wires, with the moves between
/// the two. Built by [`SpecProgram::build`]; executed by the batched
/// kernel's cycle loop.
#[derive(Debug, Clone)]
pub struct SpecProgram {
    layers: Vec<SpecLayer>,
    bit_rows: usize,
}

/// How a slot's value is produced, for packability classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    /// Top-level input (index into `input_types`).
    Input(usize),
    /// Register (commit destination).
    Register,
    /// Output of a scheduled op (width, signed).
    OpOut(u8, bool),
    /// Never written after power-on: constants and folded slots.
    Static,
}

impl SpecProgram {
    /// Lowers a plan's layers, for rows of the plan's lane type. With
    /// `pack = false` every op stays wide (the program is the plan's
    /// per-op walk); with `pack = true`, eligible 1-bit interior wires
    /// are packed 64 lanes per word.
    pub fn build(plan: &SimPlan, pack: bool) -> SpecProgram {
        Self::build_in(plan, pack, &LaneLayout::of(plan))
    }

    /// [`build`](Self::build) for the rows of a given layout of `plan`
    /// (`LaneLayout::of_as`: how tests reach both lane types).
    #[doc(hidden)]
    pub fn build_in(plan: &SimPlan, pack: bool, layout: &LaneLayout) -> SpecProgram {
        let n = plan.num_slots;
        let mut kind = vec![SlotKind::Static; n];
        for layer in &plan.layers {
            for op in layer {
                kind[op.out as usize] = SlotKind::OpOut(op.width, op.signed);
            }
        }
        for (idx, &s) in plan.input_slots.iter().enumerate() {
            kind[s as usize] = SlotKind::Input(idx);
        }
        for &(dst, _) in &plan.commits {
            kind[dst as usize] = SlotKind::Register;
        }
        let mut probe_width = vec![None; n];
        for &(_, s, w) in &plan.probes {
            probe_width[s as usize] = Some(w);
        }
        let observed = observed_slots(plan);
        let probed: Vec<bool> = {
            let mut v = vec![false; n];
            for &(_, s, _) in &plan.probes {
                v[s as usize] = true;
            }
            v
        };

        // Declared-1-bit slots: their canonical value's bit 0 is the
        // whole value. `canon` additionally promises the *stored word*
        // is that canonical value — which a probed slot cannot, because
        // a DMI poke writes raw words. Bitwise bodies (and/or/xor/not)
        // only ever look at bit 0 positionally, so `bit0` operands
        // suffice for them; comparisons and selectors test whole words
        // in the golden model and therefore demand `canon` operands.
        let mut bit0 = vec![false; n];
        let mut canon = vec![false; n];
        for s in 0..n {
            let one = match kind[s] {
                SlotKind::Input(i) => plan.input_types[i] == (1, false),
                SlotKind::OpOut(w, _) => w == 1,
                SlotKind::Register => probe_width[s] == Some(1),
                SlotKind::Static => plan.init_values[s] <= 1,
            };
            bit0[s] = one;
            canon[s] = one
                && !probed[s]
                && match kind[s] {
                    SlotKind::OpOut(_, signed) => !signed,
                    _ => true,
                };
        }

        // Candidate selection: 1-bit unsigned unobserved outputs of
        // bodies with a packed lowering whose operands satisfy the
        // body's bit0/canon requirements.
        let packable = |op: &OpInst| -> Option<BitBody> {
            if !pack || op.width != 1 || op.signed || observed.contains(&op.out) || !shape_ok(op) {
                return None;
            }
            let b0 = |i: usize| bit0[op.ins[i] as usize];
            let cn = |i: usize| canon[op.ins[i] as usize];
            match op.op() {
                DfgOp::And if b0(0) && b0(1) => Some(BitBody::And),
                DfgOp::Or if b0(0) && b0(1) => Some(BitBody::Or),
                DfgOp::Xor if b0(0) && b0(1) => Some(BitBody::Xor),
                DfgOp::Not if b0(0) => Some(BitBody::Not),
                DfgOp::Eq if cn(0) && cn(1) => Some(BitBody::Xnor),
                DfgOp::Neq if cn(0) && cn(1) => Some(BitBody::Xor),
                DfgOp::Mux if cn(0) && b0(1) && b0(2) => Some(BitBody::Mux),
                DfgOp::ValidIf if cn(0) && b0(1) => Some(BitBody::And),
                DfgOp::Orr if cn(0) => Some(BitBody::Copy),
                DfgOp::Resize if b0(0) => Some(BitBody::Copy),
                DfgOp::Andr | DfgOp::Xorr if b0(0) && op.params.first() == Some(&1) => {
                    Some(BitBody::Copy)
                }
                _ => None,
            }
        };
        let mut body_of: HashMap<u32, BitBody> = HashMap::new();
        for layer in &plan.layers {
            for op in layer {
                if let Some(b) = packable(op) {
                    body_of.insert(op.out, b);
                }
            }
        }

        // Packing profitability: a packed body replaces one wide pass
        // with a 64-lanes-per-word instruction, but every boundary move
        // is a scalar bit gather/scatter the vectorized wide walk
        // outruns — worth roughly two wide passes. Candidates form
        // clusters (connected components over packed-value edges; a
        // candidate consuming a candidate is by construction the same
        // component, so clusters never feed each other), and each
        // cluster pays its own boundary: one pack per distinct wide
        // source its members read, one unpack per member a wide op
        // consumes. A cluster whose boundary costs as much as the
        // passes it saves is dropped whole — shallow control fragments
        // (rv32i decode's eq→and→mux-sel sprinkles) fall back to the
        // wide walk, dense interiors keep their 64×.
        const MOVE_COST: usize = 2;
        if !body_of.is_empty() {
            let outs: Vec<u32> = body_of.keys().copied().collect();
            let idx: HashMap<u32, usize> = outs.iter().enumerate().map(|(i, &s)| (s, i)).collect();
            let mut parent: Vec<usize> = (0..outs.len()).collect();
            fn find(parent: &mut [usize], i: usize) -> usize {
                let mut r = i;
                while parent[r] != r {
                    parent[r] = parent[parent[r]];
                    r = parent[r];
                }
                r
            }
            for layer in &plan.layers {
                for op in layer {
                    let Some(&i) = idx.get(&op.out) else { continue };
                    for &r in &op.ins {
                        if let Some(&j) = idx.get(&r) {
                            let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                            parent[a] = b;
                        }
                    }
                }
            }
            // Per-cluster accounting: members, pack sources, unpacked outs.
            let mut members: HashMap<usize, usize> = HashMap::new();
            let mut packs: HashMap<usize, HashSet<u32>> = HashMap::new();
            let mut unpacks: HashMap<usize, HashSet<u32>> = HashMap::new();
            for layer in &plan.layers {
                for op in layer {
                    if let Some(&i) = idx.get(&op.out) {
                        let root = find(&mut parent, i);
                        *members.entry(root).or_insert(0) += 1;
                        for &r in &op.ins {
                            if !body_of.contains_key(&r) {
                                packs.entry(root).or_default().insert(r);
                            }
                        }
                    } else {
                        for &r in &op.ins {
                            if let Some(&j) = idx.get(&r) {
                                let root = find(&mut parent, j);
                                unpacks.entry(root).or_default().insert(r);
                            }
                        }
                    }
                }
            }
            let doomed: HashSet<usize> = members
                .iter()
                .filter(|&(&root, &n)| {
                    let moves = packs.get(&root).map_or(0, |s| s.len())
                        + unpacks.get(&root).map_or(0, |s| s.len());
                    MOVE_COST * moves >= n
                })
                .map(|(&root, _)| root)
                .collect();
            for (s, &i) in &idx {
                if doomed.contains(&find(&mut parent, i)) {
                    body_of.remove(s);
                }
            }
        }

        // Row assignment: every packed output gets a bit row, and every
        // wide slot a packed body reads gets a gather row.
        let mut row_of: HashMap<u32, u32> = HashMap::new();
        let mut next_row = 0u32;
        let row = |s: u32, next_row: &mut u32, row_of: &mut HashMap<u32, u32>| -> u32 {
            *row_of.entry(s).or_insert_with(|| {
                let r = *next_row;
                *next_row += 1;
                r
            })
        };
        let mut layers: Vec<SpecLayer> = (0..plan.layers.len())
            .map(|_| SpecLayer::default())
            .collect();
        // First-use bookkeeping for boundary moves.
        let mut pack_at: HashMap<u32, usize> = HashMap::new(); // wide source -> first packed-consumer layer
        let mut unpack_at: HashMap<u32, usize> = HashMap::new(); // packed out -> first wide-consumer layer
        for (i, layer) in plan.layers.iter().enumerate() {
            for op in layer {
                if body_of.contains_key(&op.out) {
                    for &r in &op.ins {
                        if !body_of.contains_key(&r) {
                            pack_at.entry(r).or_insert(i);
                        }
                    }
                } else {
                    for &r in &op.ins {
                        if body_of.contains_key(&r) {
                            unpack_at.entry(r).or_insert(i);
                        }
                    }
                }
            }
        }
        for (&slot, &at) in &pack_at {
            let r = row(slot, &mut next_row, &mut row_of);
            layers[at].packs.push(MoveInst { row: r, slot });
        }
        for (&slot, &at) in &unpack_at {
            let r = row(slot, &mut next_row, &mut row_of);
            layers[at].unpacks.push(MoveInst { row: r, slot });
        }
        // Deterministic phase-A order (HashMap iteration is not).
        for l in &mut layers {
            l.packs.sort_by_key(|m| m.slot);
            l.unpacks.sort_by_key(|m| m.slot);
        }
        for (i, layer) in plan.layers.iter().enumerate() {
            for op in layer {
                if let Some(&body) = body_of.get(&op.out) {
                    let d = row(op.out, &mut next_row, &mut row_of);
                    let r = |k: usize| row_of[&op.ins[k]];
                    let (a, b, c) = match body {
                        BitBody::Copy | BitBody::Not => (r(0), 0, 0),
                        BitBody::Mux => (r(0), r(1), r(2)),
                        _ => (r(0), r(1), 0),
                    };
                    layers[i].bits.push(BitInst { body, d, a, b, c });
                } else {
                    layers[i].wide.push(CompiledOp::compile_in(op, layout));
                }
            }
        }
        SpecProgram {
            layers,
            bit_rows: next_row as usize,
        }
    }

    /// Number of layers (matches the plan's).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Bit-plane rows the sidecar buffer needs.
    pub fn bit_rows(&self) -> usize {
        self.bit_rows
    }

    /// Ops lowered to packed 64-lanes-per-word bodies.
    #[cfg(test)]
    pub(crate) fn packed_ops(&self) -> usize {
        self.layers.iter().map(|l| l.bits.len()).sum()
    }

    /// Gather/scatter moves at the packed-region boundary.
    pub fn boundary_moves(&self) -> (usize, usize) {
        let packs = self.layers.iter().map(|l| l.packs.len()).sum();
        let unpacks = self.layers.iter().map(|l| l.unpacks.len()).sum();
        (packs, unpacks)
    }

    /// Words per bit-plane row for a lane stride.
    pub(crate) fn words_per_row(stride: usize) -> usize {
        stride.div_ceil(64)
    }

    /// Length of the sidecar bit buffer for a lane stride.
    pub fn bits_len(&self, stride: usize) -> usize {
        self.bit_rows * Self::words_per_row(stride)
    }

    /// Phase-A instruction count of a layer (boundary moves).
    pub fn phase_a_len(&self, i: usize) -> usize {
        self.layers[i].packs.len() + self.layers[i].unpacks.len()
    }

    /// Phase-B instruction count of a layer (wide + packed bodies).
    pub fn phase_b_len(&self, i: usize) -> usize {
        let l = &self.layers[i];
        l.wide.len() + l.bits.len()
    }

    /// Evaluates phase-A instructions `range` of layer `i` (flat
    /// order: packs then unpacks) through raw pointers.
    ///
    /// # Safety
    ///
    /// `li` must cover the slot-major `LI` matrix (stride `w.stride`) in
    /// rows of this program's lane type,
    /// and `bits` must cover [`Self::bits_len`]`(w.stride)` words.
    /// Phase-A instructions write disjoint rows (each pack owns its bit
    /// row, each unpack its wide row) and read rows no phase-A
    /// instruction writes, so concurrent callers over disjoint ranges
    /// are race-free as long as the previous layer's phase B is
    /// barrier-sealed.
    pub unsafe fn eval_phase_a<T: Lane>(
        &self,
        i: usize,
        li: *mut T,
        w: LaneWindow,
        bits: *mut u64,
        range: Range<usize>,
    ) {
        let l = &self.layers[i];
        let np = l.packs.len();
        let wpr = Self::words_per_row(w.stride);
        for m in &l.packs[sub_range(&range, 0, np)] {
            // SAFETY: caller contract — rows in bounds, pack owns its
            // destination bit row.
            unsafe { pack_row(li, bits, m.slot, m.row, w, wpr) };
        }
        for m in &l.unpacks[sub_range(&range, np, l.unpacks.len())] {
            // SAFETY: caller contract — rows in bounds, unpack owns its
            // destination wide row (a packed op's slot, which no wide
            // op writes).
            unsafe { unpack_row(li, bits, m.slot, m.row, w, wpr) };
        }
    }

    /// Evaluates phase-B instructions `range` of layer `i` (flat
    /// order: wide lane kernels, then packed bodies) through raw
    /// pointers.
    ///
    /// # Safety
    ///
    /// As [`Self::eval_phase_a`], plus the `CompiledOp::eval_lanes_ptr`
    /// contract for the wide portion. Phase-B instructions write
    /// disjoint rows and read only rows sealed by phase A or earlier
    /// layers.
    pub unsafe fn eval_phase_b<T: Lane>(
        &self,
        i: usize,
        li: *mut T,
        w: LaneWindow,
        bits: *mut u64,
        range: Range<usize>,
    ) {
        let l = &self.layers[i];
        let nw = l.wide.len();
        let wpr = Self::words_per_row(w.stride);
        let aw = w.active.div_ceil(64);
        for op in &l.wide[sub_range(&range, 0, nw)] {
            // SAFETY: caller contract matches `eval_lanes_ptr`'s.
            unsafe { op.eval_lanes_ptr(li, w) };
        }
        for b in &l.bits[sub_range(&range, nw, l.bits.len())] {
            let (d0, a0, b0, c0) = (
                b.d as usize * wpr,
                b.a as usize * wpr,
                b.b as usize * wpr,
                b.c as usize * wpr,
            );
            for wi in 0..aw {
                // SAFETY: rows are in bounds (`bits_len` words) and
                // the destination row is this instruction's alone.
                unsafe {
                    let a = *bits.add(a0 + wi);
                    let v = match b.body {
                        BitBody::Copy => a,
                        BitBody::Not => !a,
                        BitBody::And => a & *bits.add(b0 + wi),
                        BitBody::Or => a | *bits.add(b0 + wi),
                        BitBody::Xor => a ^ *bits.add(b0 + wi),
                        BitBody::Xnor => !(a ^ *bits.add(b0 + wi)),
                        BitBody::Mux => (a & *bits.add(b0 + wi)) | (!a & *bits.add(c0 + wi)),
                    };
                    *bits.add(d0 + wi) = v;
                }
            }
        }
    }
}

/// The part of a phase's flat instruction range `r` that falls in a list
/// occupying flat positions `[start, start + len)`, as indices into the
/// list.
fn sub_range(r: &Range<usize>, start: usize, len: usize) -> Range<usize> {
    let end = start + len;
    r.start.clamp(start, end) - start..r.end.clamp(start, end) - start
}

/// Gathers bit 0 of a wide `LI` row into a bit-plane row over the
/// active window.
///
/// # Safety
///
/// `li` must cover `slot`'s row at stride `w.stride`; `bits` must cover
/// row `row` at `wpr` words; the caller must own the destination row.
unsafe fn pack_row<T: Lane>(
    li: *const T,
    bits: *mut u64,
    slot: u32,
    row: u32,
    w: LaneWindow,
    wpr: usize,
) {
    // SAFETY: row starts are in bounds per the caller contract.
    let src = unsafe { li.add(slot as usize * w.stride) };
    // SAFETY: as above.
    let dst = unsafe { bits.add(row as usize * wpr) };
    for wi in 0..w.active.div_ceil(64) {
        let lane0 = wi * 64;
        let cnt = (w.active - lane0).min(64);
        let mut word = 0u64;
        for k in 0..cnt {
            // SAFETY: lane0 + k < w.active <= w.stride.
            word |= (unsafe { *src.add(lane0 + k) }.widen(false) & 1) << k;
        }
        // SAFETY: wi < wpr by construction.
        unsafe { *dst.add(wi) = word };
    }
}

/// Scatters a bit-plane row back into a wide `LI` row over the active
/// window (frozen lanes past the window keep their values, matching
/// wide evaluation).
///
/// # Safety
///
/// As [`pack_row`], with the wide row as the owned destination.
unsafe fn unpack_row<T: Lane>(
    li: *mut T,
    bits: *const u64,
    slot: u32,
    row: u32,
    w: LaneWindow,
    wpr: usize,
) {
    // SAFETY: row starts are in bounds per the caller contract.
    let dst = unsafe { li.add(slot as usize * w.stride) };
    // SAFETY: as above.
    let src = unsafe { bits.add(row as usize * wpr) };
    for wi in 0..w.active.div_ceil(64) {
        let lane0 = wi * 64;
        let cnt = (w.active - lane0).min(64);
        // SAFETY: wi < wpr.
        let word = unsafe { *src.add(wi) };
        for k in 0..cnt {
            // SAFETY: lane0 + k < w.active <= w.stride.
            unsafe { *dst.add(lane0 + k) = T::truncate((word >> k) & 1) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{init_lanes, BatchPlanSim};
    use crate::lane_kernel::LaneType;
    use crate::plan::{plan, split_commits, PlanSim};
    use rand::{Rng, SeedableRng};
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn plan_of(src: &str) -> SimPlan {
        plan(&crate::build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap())
    }

    /// One layer single-threaded: all of phase A, then all of phase B.
    fn eval_layer<T: Lane>(
        prog: &SpecProgram,
        i: usize,
        li: &mut [T],
        w: LaneWindow,
        bits: &mut [u64],
    ) {
        let (li, bits) = (li.as_mut_ptr(), bits.as_mut_ptr());
        // SAFETY: exclusive borrows sized by the caller (`bits` holds
        // `bits_len(w.stride)` words), rows of the program's lane type,
        // phases in program order.
        unsafe {
            prog.eval_phase_a(i, li, w, bits, 0..prog.phase_a_len(i));
            prog.eval_phase_b(i, li, w, bits, 0..prog.phase_b_len(i));
        }
    }

    /// Keeps only register/input probes, as if the helper `node`s of the
    /// test design were anonymous subexpressions (which is what real
    /// lowered designs mostly consist of). Named wires are probe roots —
    /// pokeable, waveform-visible — and the transform must preserve
    /// them; this strips the names so the passes have interior to work
    /// on.
    fn with_anonymous_wires(mut p: SimPlan) -> SimPlan {
        let keep = ["acc", "flag", "x", "en", "sel"];
        p.probes.retain(|(n, _, _)| keep.contains(&n.as_str()));
        p
    }

    /// Re-materializes a duplicate subexpression and a dead op, the way
    /// a frontend without hash-consing would emit them. `build`'s CSE
    /// and DCE hide both from FIRRTL-derived plans, but hand-built and
    /// externally imported plans contain them and the transform must
    /// cope.
    fn with_redundancy(mut p: SimPlan) -> SimPlan {
        let dup_slot = p.num_slots as u32;
        let dead_slot = dup_slot + 1;
        p.num_slots += 2;
        p.init_values.resize(p.num_slots, 0);
        p.stats.slots = p.num_slots;
        // Duplicate the first layer-0 op that a later layer consumes,
        // and point one consumer at the clone.
        let mut dup = p.layers[0]
            .iter()
            .find(|op| op.op() == DfgOp::Add)
            .expect("CONTROL has a layer-0 add")
            .clone();
        let orig_out = dup.out;
        dup.out = dup_slot;
        p.layers[0].push(dup);
        'rewire: for layer in p.layers.iter_mut().skip(1) {
            for op in layer.iter_mut() {
                if let Some(i) = op.ins.iter().position(|&s| s == orig_out) {
                    op.ins[i] = dup_slot;
                    break 'rewire;
                }
            }
        }
        // A dead op with a unique value-number key: computed, never read.
        let mut dead = p.layers[0]
            .iter()
            .find(|op| op.op() == DfgOp::Bits)
            .expect("CONTROL has a layer-0 bits")
            .clone();
        dead.out = dead_slot;
        dead.params = vec![2, 2];
        p.layers[0].push(dead);
        p.stats.effectual_ops += 2;
        p
    }

    /// Dead wires, a never-toggling cone, duplicate subexpressions, and
    /// a packable 1-bit control interior.
    const CONTROL: &str = "\
circuit Control :
  module Control :
    input clock : Clock
    input x : UInt<8>
    input en : UInt<1>
    input sel : UInt<1>
    output out : UInt<8>
    output hit : UInt<1>
    reg acc : UInt<8>, clock
    reg flag : UInt<1>, clock
    node k = and(UInt<8>(12), UInt<8>(10))
    node dead = xor(x, UInt<8>(55))
    node d1 = tail(add(acc, x), 1)
    node d2 = tail(add(acc, x), 1)
    node b0 = bits(x, 0, 0)
    node b1 = bits(x, 1, 1)
    node g = and(b0, en)
    node h = or(b1, sel)
    node p = mux(sel, g, h)
    node q = eq(b0, en)
    node r = and(p, q)
    acc <= mux(en, tail(add(d1, k), 1), d2)
    flag <= and(r, not(p))
    out <= acc
    hit <= flag
";

    /// A control interior dense enough to survive profitability
    /// pruning: fourteen chained 1-bit ops over three shared wide
    /// sources (two boundary packs of inputs, one of a `bits` extract,
    /// two unpacks into the `flag` commit), next to an ordinary wide
    /// accumulator.
    const DENSE: &str = "\
circuit Dense :
  module Dense :
    input clock : Clock
    input x : UInt<8>
    input en : UInt<1>
    input sel : UInt<1>
    output out : UInt<8>
    output hit : UInt<1>
    reg acc : UInt<8>, clock
    reg flag : UInt<1>, clock
    node b0 = bits(x, 0, 0)
    node t0 = and(en, sel)
    node t1 = or(t0, b0)
    node t2 = xor(t1, en)
    node t3 = and(t2, sel)
    node t4 = or(t3, t0)
    node t5 = xor(t4, t1)
    node t6 = and(t5, en)
    node t7 = or(t6, t2)
    node t8 = mux(t2, t7, t3)
    node t9 = and(t8, t4)
    node t10 = or(t9, t5)
    node t11 = xor(t10, t6)
    node t12 = mux(t5, t11, t7)
    node t13 = and(t12, t8)
    acc <= tail(add(acc, x), 1)
    flag <= and(t13, t9)
    out <= acc
    hit <= flag
";

    #[test]
    fn transform_folds_dedups_and_eliminates() {
        let p = with_redundancy(with_anonymous_wires(plan_of(CONTROL)));
        let sp = specialize(&p);
        assert!(sp.stats.folded >= 1, "const cone folds: {:?}", sp.stats);
        assert!(
            sp.stats.deduped >= 1,
            "duplicate add dedups: {:?}",
            sp.stats
        );
        assert!(
            sp.stats.dead_removed >= 1,
            "dead xor removed: {:?}",
            sp.stats
        );
        assert!(sp.stats.ops_after < sp.stats.ops_before);
        assert_eq!(sp.plan.num_slots, p.num_slots, "slot numbering preserved");
        // The transformed plan still satisfies the static verifier.
        let report = crate::analyze::analyze_plan(&sp.plan);
        assert!(
            report.is_clean(),
            "specialized plan is analyzer-clean: {report}"
        );
    }

    #[test]
    fn specialized_plan_matches_golden_on_observables() {
        let p = with_redundancy(with_anonymous_wires(plan_of(CONTROL)));
        let sp = specialize(&p);
        let mut golden = PlanSim::new(&p);
        let mut spec = PlanSim::new(&sp.plan);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for cycle in 0..400 {
            for idx in 0..p.input_slots.len() {
                let v: u64 = rng.gen();
                golden.set_input(idx, v);
                spec.set_input(idx, v);
            }
            golden.step();
            spec.step();
            for idx in 0..p.output_slots.len() {
                assert_eq!(
                    golden.output(idx),
                    spec.output(idx),
                    "output {idx} @ {cycle}"
                );
            }
            for (name, slot, _) in &p.probes {
                assert_eq!(
                    golden.slot(*slot),
                    spec.slot(*slot),
                    "probe {name} @ {cycle}"
                );
            }
        }
    }

    #[test]
    fn program_packs_the_control_interior() {
        let p = with_anonymous_wires(plan_of(DENSE));
        let sp = specialize(&p);
        let prog = SpecProgram::build(&sp.plan, true);
        assert!(prog.packed_ops() > 0, "1-bit interior packs");
        assert!(prog.bit_rows() > 0);
        let (packs, unpacks) = prog.boundary_moves();
        assert!(
            2 * (packs + unpacks) < prog.packed_ops(),
            "surviving clusters pay for their boundary: {packs}+{unpacks} vs {}",
            prog.packed_ops()
        );
        let unpacked = SpecProgram::build(&sp.plan, false);
        assert_eq!(unpacked.packed_ops(), 0);
        assert_eq!(unpacked.bits_len(64), 0);
        // Phase totals cover every op exactly once.
        let total: usize = (0..prog.num_layers()).map(|i| prog.phase_b_len(i)).sum();
        assert_eq!(total, sp.plan.total_ops());
    }

    #[test]
    fn shallow_control_fragments_are_pruned_back_to_the_wide_walk() {
        // CONTROL's interior is six 1-bit ops behind six boundary
        // moves — packing it would add gather/scatter traffic the
        // wide walk outruns, so the profitability pass drops the
        // whole cluster and the program stays all-wide.
        let p = with_anonymous_wires(plan_of(CONTROL));
        let sp = specialize(&p);
        let prog = SpecProgram::build(&sp.plan, true);
        assert_eq!(prog.packed_ops(), 0, "shallow cluster is pruned");
        assert_eq!(prog.boundary_moves(), (0, 0));
        let total: usize = (0..prog.num_layers()).map(|i| prog.phase_b_len(i)).sum();
        assert_eq!(total, sp.plan.total_ops());
    }

    /// Drives the packed program directly (layer walk + manual commit)
    /// against the interpreted golden model, full and partial windows, in
    /// both lane types (DENSE is an 8-bit design: its own is `u32`).
    #[test]
    fn packed_walk_is_bit_exact_on_observables() {
        let p = with_anonymous_wires(plan_of(DENSE));
        let sp = specialize(&p);
        assert_eq!(
            LaneType::supported_for(&sp.plan),
            [LaneType::Wide, LaneType::Narrow]
        );
        packed_walk::<u64>(&p, &sp);
        packed_walk::<u32>(&p, &sp);
    }

    fn packed_walk<T: Lane>(p: &SimPlan, sp: &SpecializedPlan) {
        let layout = LaneLayout::of_as(&sp.plan, T::TYPE);
        let signed = layout.signed_slots();
        let prog = SpecProgram::build_in(&sp.plan, true, &layout);
        assert!(prog.packed_ops() > 0);
        for lanes in [1usize, 3, 64, 65, 130] {
            let mut golden = BatchPlanSim::interpreted(p, lanes);
            let mut li: Vec<T> = init_lanes(&sp.plan, lanes);
            let mut bits = vec![0u64; prog.bits_len(lanes)];
            let (direct, staged) = split_commits(&sp.plan.commits);
            let mut commit_buf = vec![T::default(); staged.len() * lanes];
            let mut rng = rand::rngs::StdRng::seed_from_u64(lanes as u64);
            for cycle in 0..60u64 {
                // After cycle 30, shrink the spec walk's window; the
                // golden model keeps evaluating every lane (lanes are
                // independent) and comparison is over the active prefix.
                let active = if cycle < 30 { lanes } else { lanes - lanes / 3 };
                let w = LaneWindow {
                    stride: lanes,
                    active,
                };
                for idx in 0..p.input_slots.len() {
                    for lane in 0..lanes {
                        let v: u64 = rng.gen();
                        golden.set_input(idx, lane, v);
                        let (iw, is) = sp.plan.input_types[idx];
                        li[sp.plan.input_slots[idx] as usize * lanes + lane] =
                            T::truncate(crate::op::canonicalize(v, iw as u32, is));
                    }
                }
                golden.step();
                for i in 0..prog.num_layers() {
                    eval_layer(&prog, i, &mut li, w, &mut bits);
                }
                for (k, &(_, src)) in staged.iter().enumerate() {
                    let s0 = src as usize * lanes;
                    commit_buf[k * lanes..k * lanes + active].copy_from_slice(&li[s0..s0 + active]);
                }
                for &(dst, src) in &direct {
                    let (d0, s0) = (dst as usize * lanes, src as usize * lanes);
                    li.copy_within(s0..s0 + active, d0);
                }
                for (k, &(dst, _)) in staged.iter().enumerate() {
                    let d0 = dst as usize * lanes;
                    li[d0..d0 + active].copy_from_slice(&commit_buf[k * lanes..k * lanes + active]);
                }
                let read = |slot: u32, lane: usize| {
                    li[slot as usize * lanes + lane].widen(signed[slot as usize])
                };
                for lane in 0..active {
                    for (name, slot, _) in &p.probes {
                        assert_eq!(
                            read(*slot, lane),
                            golden.slot(*slot, lane),
                            "lanes={lanes} probe {name} lane {lane} @ {cycle}"
                        );
                    }
                    for (idx, (name, slot)) in p.output_slots.iter().enumerate() {
                        let _ = name;
                        assert_eq!(
                            read(*slot, lane),
                            golden.output(idx, lane),
                            "lanes={lanes} output slot {slot} lane {lane} @ {cycle}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn probed_one_bit_slots_stay_unpacked() {
        // `flag` is a probed register: its consumers may read a poked,
        // non-canonical word, so nothing downstream of it may assume
        // canonical form — and the packed program must keep every
        // observed slot wide.
        let p = with_anonymous_wires(plan_of(DENSE));
        let sp = specialize(&p);
        let prog = SpecProgram::build(&sp.plan, true);
        assert!(prog.packed_ops() > 0, "the packed region is live");
        let observed = observed_slots(&sp.plan);
        for layer in &sp.plan.layers {
            for op in layer {
                if observed.contains(&op.out) {
                    // Observed outs must appear among the wide ops of
                    // the program's layers.
                    let found = prog
                        .layers
                        .iter()
                        .any(|l| l.wide.iter().any(|c| c.out_slot() == op.out));
                    assert!(found, "observed slot {} stays wide", op.out);
                }
            }
        }
    }
}
