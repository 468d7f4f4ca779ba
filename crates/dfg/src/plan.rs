//! Coordinate assignment: from a levelized graph to a [`SimPlan`].
//!
//! This is the "Coordinate Assignment" stage of the RTeAAL Sim compiler
//! (paper Figure 14 / §6.1). Every persistent signal — register state,
//! input, constant, and each operation output — receives one slot in the
//! layer-input tensor `LI`. An operation's output slot *is* its `S`
//! coordinate and the slot it is read from later *is* its `R` coordinate;
//! giving both the same value is exactly the identity-elision trick of
//! §4.3/§6.1 ("the compiler assigns the s coordinates so that all identity
//! operations can be elided").
//!
//! The resulting [`SimPlan`] is the logical content of the `OIM` tensor:
//! for each layer `i` (rank `I`), a list of operations (rank `S`), each
//! with an operation type (rank `N`) and ordered operands (ranks `O`, `R`).
//! The `rteaal-tensor` crate lowers this onto the concrete fibertree
//! formats of Figure 12; [`PlanSim`] interprets it directly as a second
//! reference model.

use crate::graph::Graph;
use crate::lane_kernel::{assert_covers, Lane, LaneType, LaneWindow};
use crate::level::levelize;
use crate::op::{canonicalize, eval_raw, DfgOp};
use serde::{Deserialize, Serialize};

/// One operation instance in the plan (one `s` coordinate of a layer).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpInst {
    /// Operation type (`N`-rank coordinate).
    pub n: u16,
    /// Output slot (`S` coordinate, identity-elided into the `LI` space).
    pub out: u32,
    /// Operand slots (`R` coordinates), in operand order (`O` rank).
    pub ins: Vec<u32>,
    /// Static parameters (bit indices, widths, shift amounts).
    pub params: Vec<u64>,
    /// Result width for canonicalization.
    pub width: u8,
    /// Result signedness for canonicalization.
    pub signed: bool,
}

impl OpInst {
    /// The operation as a [`DfgOp`].
    pub fn op(&self) -> DfgOp {
        DfgOp::from_n_coord(self.n).expect("valid opcode")
    }

    /// Evaluates the op against an `LI` slot array, writing its output.
    #[inline]
    pub fn eval_into(&self, li: &mut [u64], buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend(self.ins.iter().map(|&r| li[r as usize]));
        let raw = eval_raw(self.op(), &self.params, buf);
        li[self.out as usize] = canonicalize(raw, self.width as u32, self.signed);
    }

    /// Evaluates the op lane-wise against a batched `LI` in slot-major
    /// layout: slot `s` occupies `li[s * w.stride .. s * w.stride +
    /// w.stride]`, one element per stimulus lane, and the `w.active`-lane
    /// prefix of each row is evaluated. Operand rows for fixed-arity ops
    /// are read as contiguous slices, so the inner lane loop is stride-1
    /// on every stream it touches.
    ///
    /// This is the *interpreted* lane walk — the golden model the
    /// compiled kernels of [`crate::lane_kernel`] are differentially
    /// tested against — over `u64` rows.
    ///
    /// # Panics
    ///
    /// Panics if the window is wider than its stride or `li` does not
    /// hold every row the op references.
    #[inline]
    pub fn eval_lanes(&self, li: &mut [u64], w: LaneWindow, buf: &mut Vec<u64>) {
        let max_slot = self.ins.iter().fold(self.out, |m, &r| m.max(r));
        assert_covers(li.len(), max_slot, w);
        // SAFETY: an exclusive borrow covers the whole matrix, whose
        // length and window were just checked against every row the op
        // references; `u64` rows never consult the signedness table.
        unsafe { self.eval_lanes_ptr(li.as_mut_ptr(), w, &[], buf) }
    }

    /// Lane-wise evaluation through a raw pointer — the layer-parallel
    /// engine's entry point, sharing the arity-specialized inner loops
    /// with [`eval_lanes`](Self::eval_lanes). Rows are of either lane
    /// type, the arithmetic is always `eval_raw`'s on canonical 64-bit
    /// values: an operand element widens by its slot's entry in `signed`
    /// (`LaneLayout::signed_slots`; never read for `u64` rows, which may
    /// pass `&[]`) and the canonical result is truncated into its row —
    /// which is what makes this walk the reference for narrow kernels
    /// too.
    ///
    /// # Safety
    ///
    /// `li` must point to a live slot-major `LI` matrix of `w.stride`
    /// lanes per slot covering every slot this op references, `w.active
    /// <= w.stride`, `signed` must cover those slots when `T` is `u32`,
    /// and no other thread may concurrently access the
    /// op's output row or mutate its operand rows for the duration of
    /// the call. (Within one levelized layer, output rows are disjoint
    /// per op and operand rows come from earlier layers, so
    /// layer-barriered workers satisfy this.)
    #[inline]
    pub unsafe fn eval_lanes_ptr<T: Lane>(
        &self,
        li: *mut T,
        w: LaneWindow,
        signed: &[bool],
        buf: &mut Vec<u64>,
    ) {
        let op = self.op();
        let (width, signed_out) = (self.width as u32, self.signed);
        let (stride, active) = (w.stride, w.active);
        let sx = |r: u32| T::TYPE == LaneType::Narrow && signed[r as usize];
        // SAFETY: per the contract every `slot * stride + lane` offset
        // below (`lane < active <= stride`) is in bounds, and the output
        // row is exclusively ours for the call.
        unsafe {
            let out = li.add(self.out as usize * stride);
            let row = |r: u32| (li.add(r as usize * stride).cast_const(), sx(r));
            let put = |lane: usize, raw: u64| {
                *out.add(lane) = T::truncate(canonicalize(raw, width, signed_out));
            };
            match *self.ins.as_slice() {
                [a] => {
                    let (a0, sa) = row(a);
                    for lane in 0..active {
                        put(
                            lane,
                            eval_raw(op, &self.params, &[(*a0.add(lane)).widen(sa)]),
                        );
                    }
                }
                [a, b] => {
                    let ((a0, sa), (b0, sb)) = (row(a), row(b));
                    for lane in 0..active {
                        let ins = [(*a0.add(lane)).widen(sa), (*b0.add(lane)).widen(sb)];
                        put(lane, eval_raw(op, &self.params, &ins));
                    }
                }
                [a, b, c] => {
                    let ((a0, sa), (b0, sb), (c0, sc)) = (row(a), row(b), row(c));
                    for lane in 0..active {
                        let ins = [
                            (*a0.add(lane)).widen(sa),
                            (*b0.add(lane)).widen(sb),
                            (*c0.add(lane)).widen(sc),
                        ];
                        put(lane, eval_raw(op, &self.params, &ins));
                    }
                }
                _ => {
                    // Variable-arity ops (mux chains, no-operand sources)
                    // stage operands per lane.
                    for lane in 0..active {
                        buf.clear();
                        buf.extend(self.ins.iter().map(|&r| {
                            let (r0, sr) = row(r);
                            (*r0.add(lane)).widen(sr)
                        }));
                        put(lane, eval_raw(op, &self.params, buf));
                    }
                }
            }
        }
    }
}

/// A list of register commits, each `(register slot, next-value slot)`.
pub type CommitList = Vec<(u32, u32)>;

/// Splits register commits into alias-free pairs (safe to copy directly)
/// and genuinely overlapping pairs (which need the two-phase staging
/// buffer).
///
/// A commit `(dst, src)` is alias-free when `dst` is not the source of
/// any commit: writing it early cannot clobber a value another commit
/// still needs to read. The safe execution order is therefore: stage the
/// overlapping pairs' sources, perform the direct copies (their
/// destinations are outside the source set by construction), then write
/// the staged values. Computed once at plan-load time by every batch
/// executor.
pub fn split_commits(commits: &[(u32, u32)]) -> (CommitList, CommitList) {
    let srcs: std::collections::HashSet<u32> = commits.iter().map(|&(_, src)| src).collect();
    commits.iter().partition(|&&(dst, _)| !srcs.contains(&dst))
}

/// Aggregate statistics about a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanStats {
    /// Live (effectual) operations.
    pub effectual_ops: usize,
    /// Identity ops the strict cascade would need (all elided).
    pub identity_ops: usize,
    /// Number of layers (shape of the `I` rank).
    pub layers: usize,
    /// Number of `LI` slots (shape of the `R`/`S` coordinate space).
    pub slots: usize,
}

/// A complete execution plan for one design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimPlan {
    /// Design name.
    pub name: String,
    /// Size of the `LI` slot array.
    pub num_slots: usize,
    /// Slot of each top-level input, in port order.
    pub input_slots: Vec<u32>,
    /// Width and signedness of each input, in port order (set_input
    /// canonicalizes raw values through these).
    pub input_types: Vec<(u8, bool)>,
    /// Output ports: name and the slot their value lives in.
    pub output_slots: Vec<(String, u32)>,
    /// Slot range `[start, end)` holding materialized constants (TI's
    /// tensor inlining turns reads of these into immediates).
    pub const_slots: (u32, u32),
    /// Register commits: `(register slot, next-value slot)`, applied
    /// simultaneously at end of cycle (the final `LI_{i+1}` Einsum of
    /// Cascade 1).
    pub commits: Vec<(u32, u32)>,
    /// Initial `LI` contents (register power-on values and constants).
    pub init_values: Vec<u64>,
    /// Operations per layer.
    pub layers: Vec<Vec<OpInst>>,
    /// Summary statistics.
    pub stats: PlanStats,
    /// Named probe points `(signal name, slot, width)` for waveforms and
    /// XMR-style internal access.
    pub probes: Vec<(String, u32, u8)>,
    /// Slots of the probes whose signal is signed (held sign-extended),
    /// ascending. With a probe's width this is the type a DMI poke is
    /// canonicalized to, as `input_types` is for `set_input`.
    pub signed_probes: Vec<u32>,
}

impl SimPlan {
    /// Total number of operation instances across all layers.
    pub fn total_ops(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Resolves a signal name to its slot, searching probes first and
    /// output ports second — the one namespace every halt-watch and
    /// serving-layer validation resolves against (keep them calling
    /// this so they can never drift).
    pub fn signal_slot(&self, name: &str) -> Option<u32> {
        self.probes
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, s, _)| s)
            .or_else(|| {
                self.output_slots
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, s)| s)
            })
    }

    /// Every probe with its type: `(name, slot, width, signed)`.
    pub fn typed_probes(&self) -> impl Iterator<Item = (&str, u32, u8, bool)> {
        self.probes.iter().map(|(name, slot, width)| {
            let signed = self.signed_probes.binary_search(slot).is_ok();
            (name.as_str(), *slot, *width, signed)
        })
    }

    /// Histogram of operations per opcode.
    pub fn op_histogram(&self) -> std::collections::HashMap<DfgOp, usize> {
        let mut h = std::collections::HashMap::new();
        for layer in &self.layers {
            for op in layer {
                *h.entry(op.op()).or_insert(0) += 1;
            }
        }
        h
    }

    /// The same design with slot `s` renumbered `to[s]`, for a one-to-one
    /// `to` that moves only op outputs: layers, ports, probes, commits,
    /// the power-on image and the signed probes carry the new numbers,
    /// each layer lists its ops in ascending output slot, and the name
    /// and the stats are unchanged. Tests use it as the witness for a
    /// numbering other than the plan's own; nothing runs a renamed plan.
    ///
    /// # Panics
    ///
    /// Panics if `to` has fewer entries than the plan has slots.
    pub fn renamed(&self, to: &[u32]) -> SimPlan {
        let at = |s: u32| to[s as usize];
        let layers = self
            .layers
            .iter()
            .map(|layer| {
                let mut layer = layer.clone();
                for op in &mut layer {
                    op.out = at(op.out);
                    op.ins.iter_mut().for_each(|r| *r = at(*r));
                }
                layer.sort_unstable_by_key(|op| op.out);
                layer
            })
            .collect();
        let mut init_values = vec![0; self.num_slots];
        for (s, &v) in self.init_values.iter().enumerate() {
            init_values[to[s] as usize] = v;
        }
        let mut signed_probes: Vec<u32> = self.signed_probes.iter().map(|&s| at(s)).collect();
        signed_probes.sort_unstable();
        SimPlan {
            name: self.name.clone(),
            num_slots: self.num_slots,
            input_slots: self.input_slots.iter().map(|&s| at(s)).collect(),
            input_types: self.input_types.clone(),
            output_slots: (self.output_slots.iter())
                .map(|(name, s)| (name.clone(), at(*s)))
                .collect(),
            const_slots: self.const_slots,
            commits: (self.commits.iter())
                .map(|&(dst, src)| (at(dst), at(src)))
                .collect(),
            init_values,
            layers,
            stats: self.stats,
            probes: (self.probes.iter())
                .map(|(name, s, width)| (name.clone(), at(*s), *width))
                .collect(),
            signed_probes,
        }
    }
}

/// Builds a [`SimPlan`] from a graph (levelizing internally).
pub fn plan(graph: &Graph) -> SimPlan {
    let lv = levelize(graph);
    let mut slot_of = vec![u32::MAX; graph.len()];
    let mut init_values: Vec<u64> = Vec::new();
    let mut probes = Vec::new();
    let mut signed_probes = Vec::new(); // slots are allocated ascending
    let alloc = |init: u64, init_values: &mut Vec<u64>| -> u32 {
        let s = init_values.len() as u32;
        init_values.push(init);
        s
    };
    // Registers first (stable, so DMI pokes address them cheaply), then
    // inputs, then constants, then op outputs in layer order.
    for reg in &graph.regs {
        let node = graph.node(reg.state);
        let s = alloc(
            canonicalize(reg.init, node.width, node.signed),
            &mut init_values,
        );
        slot_of[reg.state.index()] = s;
        probes.push((reg.name.to_string(), s, node.width as u8));
        signed_probes.extend(node.signed.then_some(s));
    }
    let mut input_slots = Vec::with_capacity(graph.inputs.len());
    let mut input_types = Vec::with_capacity(graph.inputs.len());
    for &input in &graph.inputs {
        let s = alloc(0, &mut init_values);
        slot_of[input.index()] = s;
        input_slots.push(s);
        let node = graph.node(input);
        input_types.push((node.width as u8, node.signed));
        if let Some(name) = &graph.node(input).name {
            probes.push((name.to_string(), s, node.width as u8));
            signed_probes.extend(node.signed.then_some(s));
        }
    }
    let const_start = init_values.len() as u32;
    for (id, node) in graph.iter() {
        if node.op == DfgOp::Const && slot_of[id.index()] == u32::MAX {
            let s = alloc(node.params[0], &mut init_values);
            slot_of[id.index()] = s;
        }
    }
    let const_slots = (const_start, init_values.len() as u32);
    let mut layers: Vec<Vec<OpInst>> = Vec::with_capacity(lv.layers.len());
    for layer_nodes in &lv.layers {
        let mut layer = Vec::with_capacity(layer_nodes.len());
        for &id in layer_nodes {
            let node = graph.node(id);
            if node.op == DfgOp::Const {
                continue; // materialized in init_values
            }
            let out = alloc(0, &mut init_values);
            slot_of[id.index()] = out;
            if let Some(name) = &node.name {
                probes.push((name.to_string(), out, node.width as u8));
                signed_probes.extend(node.signed.then_some(out));
            }
            layer.push(OpInst {
                n: node.op.n_coord(),
                out,
                ins: node.operands.iter().map(|o| slot_of[o.index()]).collect(),
                params: node.params.to_vec(),
                width: node.width as u8,
                signed: node.signed,
            });
        }
        if !layer.is_empty() {
            layers.push(layer);
        }
    }
    // Patch operand slots: operands in later layers were not yet allocated
    // when an early op was built — impossible by construction (operands
    // precede consumers in layer order), so assert instead.
    debug_assert!(layers
        .iter()
        .flatten()
        .all(|op| op.ins.iter().all(|&r| (r as usize) < init_values.len())));
    let commits: Vec<(u32, u32)> = graph
        .regs
        .iter()
        .map(|reg| (slot_of[reg.state.index()], slot_of[reg.next.index()]))
        .collect();
    let output_slots: Vec<(String, u32)> = graph
        .outputs
        .iter()
        .map(|(name, id)| (name.to_string(), slot_of[id.index()]))
        .collect();
    let stats = PlanStats {
        effectual_ops: layers.iter().map(Vec::len).sum(),
        identity_ops: lv.identities.total(),
        layers: layers.len(),
        slots: init_values.len(),
    };
    SimPlan {
        name: graph.name.clone(),
        num_slots: init_values.len(),
        input_slots,
        input_types,
        const_slots,
        output_slots,
        commits,
        init_values,
        layers,
        stats,
        probes,
        signed_probes,
    }
}

/// Builds the *un-elided* plan: the strict Cascade 1 formulation in which
/// `LI_{i+1}` contains only the outputs of layer `i`, so every value that
/// must cross a layer boundary is carried by an explicit
/// [`DfgOp::Identity`] operation (paper §4.2–4.3, Figure 11b). This is the
/// ablation counterpart of [`plan`]: identical behavior, but with the
/// identity operations the coordinate assigner normally elides
/// materialized as real work — it makes Table 1's cost executable.
pub fn plan_unelided(graph: &Graph) -> SimPlan {
    use crate::op::OpClass;
    use std::collections::HashMap;
    let lv = levelize(graph);
    let depth = lv.layers.len() as u32;
    // avail[v]: first layer at which v's value exists in LI.
    // live_until[v]: last layer at which v must still be readable
    // (consumers read at their own layer; commits/outputs read at depth).
    let mut avail = vec![u32::MAX; graph.len()];
    let mut live_until = vec![0u32; graph.len()];
    for (id, node) in graph.iter() {
        if node.op.class() == OpClass::Source {
            avail[id.index()] = 0;
        }
    }
    let order = graph.topo_order();
    for &id in &order {
        avail[id.index()] = lv.layer_of[id.index()] + 1;
    }
    for &id in &order {
        let layer = lv.layer_of[id.index()];
        for &o in &graph.node(id).operands {
            let lu = &mut live_until[o.index()];
            *lu = (*lu).max(layer);
        }
    }
    for reg in &graph.regs {
        live_until[reg.next.index()] = depth;
    }
    for (_, out) in &graph.outputs {
        live_until[out.index()] = depth;
    }
    // Slot allocation: registers, inputs, constants get their layer-0
    // slots; every value additionally gets one slot per layer of its
    // live range.
    let mut init_values: Vec<u64> = Vec::new();
    let mut slot_at: HashMap<(u32, u32), u32> = HashMap::new();
    let mut probes = Vec::new();
    let mut signed_probes = Vec::new();
    for reg in &graph.regs {
        let node = graph.node(reg.state);
        let s = init_values.len() as u32;
        init_values.push(canonicalize(reg.init, node.width, node.signed));
        slot_at.insert((reg.state.0, 0), s);
        probes.push((reg.name.to_string(), s, node.width as u8));
        signed_probes.extend(node.signed.then_some(s));
    }
    let mut input_slots = Vec::new();
    let mut input_types = Vec::new();
    for &input in &graph.inputs {
        let node = graph.node(input);
        let s = init_values.len() as u32;
        init_values.push(0);
        slot_at.insert((input.0, 0), s);
        input_slots.push(s);
        input_types.push((node.width as u8, node.signed));
    }
    let const_start = init_values.len() as u32;
    for (id, node) in graph.iter() {
        if node.op == DfgOp::Const {
            let s = init_values.len() as u32;
            init_values.push(node.params[0]);
            slot_at.insert((id.0, 0), s);
        }
    }
    let const_slots = (const_start, init_values.len() as u32);
    for (id, _) in graph.iter() {
        let a = avail[id.index()];
        if a == u32::MAX {
            continue; // dead node
        }
        let until = live_until[id.index()].max(a);
        for layer in a.max(1)..=until {
            slot_at.entry((id.0, layer)).or_insert_with(|| {
                let s = init_values.len() as u32;
                init_values.push(0);
                s
            });
        }
    }
    let slot = |id: u32, layer: u32| -> u32 {
        *slot_at
            .get(&(id, layer))
            .unwrap_or_else(|| panic!("no slot for value {id} at layer {layer}"))
    };
    // Layers: real ops first, then the identity carries into layer i+1.
    let mut layers: Vec<Vec<OpInst>> = Vec::with_capacity(lv.layers.len());
    let mut identity_count = 0usize;
    for (i, layer_nodes) in lv.layers.iter().enumerate() {
        let i = i as u32;
        let mut layer = Vec::new();
        for &id in layer_nodes {
            let node = graph.node(id);
            if node.op == DfgOp::Const {
                continue;
            }
            layer.push(OpInst {
                n: node.op.n_coord(),
                out: slot(id.0, i + 1),
                ins: node.operands.iter().map(|o| slot(o.0, i)).collect(),
                params: node.params.to_vec(),
                width: node.width as u8,
                signed: node.signed,
            });
        }
        // Identity carries: v alive at layer i and still needed past it.
        for (id, node) in graph.iter() {
            let a = avail[id.index()];
            if a == u32::MAX || a > i || live_until[id.index()] <= i {
                continue;
            }
            identity_count += 1;
            layer.push(OpInst {
                n: DfgOp::Identity.n_coord(),
                out: slot(id.0, i + 1),
                ins: vec![slot(id.0, i)],
                params: vec![],
                width: node.width as u8,
                signed: node.signed,
            });
        }
        layers.push(layer);
    }
    let commits: Vec<(u32, u32)> = graph
        .regs
        .iter()
        .map(|reg| (slot(reg.state.0, 0), slot(reg.next.0, depth)))
        .collect();
    let output_slots: Vec<(String, u32)> = graph
        .outputs
        .iter()
        .map(|(name, id)| {
            // Outputs driven by sources (register state, inputs) read the
            // layer-0 slot so they observe the committed value, matching
            // the elided plan's sampling semantics.
            let layer = if graph.node(*id).op.class() == OpClass::Source {
                0
            } else {
                depth
            };
            (name.to_string(), slot(id.0, layer))
        })
        .collect();
    let stats = PlanStats {
        effectual_ops: lv.effectual_ops(),
        identity_ops: identity_count,
        layers: layers.len(),
        slots: init_values.len(),
    };
    SimPlan {
        name: format!("{}-unelided", graph.name),
        num_slots: init_values.len(),
        input_slots,
        input_types,
        const_slots,
        output_slots,
        commits,
        init_values,
        layers,
        stats,
        probes,
        signed_probes,
    }
}

/// Direct interpreter over a [`SimPlan`]: the second reference model
/// (literally Algorithm 3 with the loop order `[I, S, N, O, R]`).
#[derive(Debug, Clone)]
pub struct PlanSim<'p> {
    plan: &'p SimPlan,
    li: Vec<u64>,
    buf: Vec<u64>,
    commit_buf: Vec<u64>,
    cycle: u64,
}

impl<'p> PlanSim<'p> {
    /// Creates a simulator with `LI` at its initial contents.
    pub fn new(plan: &'p SimPlan) -> Self {
        PlanSim {
            plan,
            li: plan.init_values.clone(),
            buf: Vec::with_capacity(8),
            commit_buf: vec![0; plan.commits.len()],
            cycle: 0,
        }
    }

    /// Drives input port `idx` (canonicalized to the port type).
    pub fn set_input(&mut self, idx: usize, value: u64) {
        let (w, signed) = self.plan.input_types[idx];
        self.li[self.plan.input_slots[idx] as usize] = canonicalize(value, w as u32, signed);
    }

    /// One clock cycle: evaluate every layer, then commit registers.
    pub fn step(&mut self) {
        for layer in &self.plan.layers {
            for op in layer {
                op.eval_into(&mut self.li, &mut self.buf);
            }
        }
        for (k, &(_, src)) in self.plan.commits.iter().enumerate() {
            self.commit_buf[k] = self.li[src as usize];
        }
        for (k, &(dst, _)) in self.plan.commits.iter().enumerate() {
            self.li[dst as usize] = self.commit_buf[k];
        }
        self.cycle += 1;
    }

    /// Output value by port index.
    pub fn output(&self, idx: usize) -> u64 {
        self.li[self.plan.output_slots[idx].1 as usize]
    }

    /// Reads any `LI` slot (probe / XMR path).
    pub fn slot(&self, s: u32) -> u64 {
        self.li[s as usize]
    }

    /// Cycles simulated.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The full `LI` array (waveform capture reads this).
    pub fn li(&self) -> &[u64] {
        &self.li
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::interp::Interpreter;
    use crate::passes::{optimize, PassOptions};
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    fn graph_of(src: &str) -> Graph {
        build(&lower_typed(&parse(src).unwrap()).unwrap()).unwrap()
    }

    const MIXED: &str = "\
circuit Mixed :
  module Mixed :
    input clock : Clock
    input x : UInt<8>
    input sel : UInt<1>
    output out : UInt<8>
    output flag : UInt<1>
    reg acc : UInt<8>, clock
    reg cnt : UInt<4>, clock
    node nx = tail(add(acc, x), 1)
    node alt = xor(acc, x)
    acc <= mux(sel, nx, alt)
    cnt <= tail(add(cnt, UInt<4>(1)), 1)
    out <= acc
    flag <= andr(cnt)
";

    /// `add(slot 1, slot 2)` into `out`.
    fn add_into(out: u32) -> OpInst {
        OpInst {
            n: DfgOp::Add.n_coord(),
            out,
            ins: vec![1, 2],
            params: vec![],
            width: 8,
            signed: false,
        }
    }

    #[test]
    #[should_panic(expected = "a lane matrix of 4 elements is short of slot 10 at stride 1")]
    fn eval_lanes_refuses_a_matrix_short_of_the_ops_rows() {
        let mut backing = [7u64; 16];
        add_into(10).eval_lanes(&mut backing[..4], LaneWindow::full(1), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "a window of 9 lanes is wider than its stride 2")]
    fn eval_lanes_refuses_a_window_wider_than_its_stride() {
        let w = LaneWindow {
            stride: 2,
            active: 9,
        };
        add_into(0).eval_lanes(&mut [7u64; 64], w, &mut Vec::new());
    }

    #[test]
    fn plan_matches_graph_interpreter() {
        use rand::{Rng, SeedableRng};
        let g = graph_of(MIXED);
        let p = plan(&g);
        let mut gi = Interpreter::new(&g);
        let mut ps = PlanSim::new(&p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..300 {
            let x: u64 = rng.gen_range(0..256);
            let sel: u64 = rng.gen_range(0..2);
            gi.set_input(0, x);
            gi.set_input(1, sel);
            ps.set_input(0, x);
            ps.set_input(1, sel);
            gi.step();
            ps.step();
            assert_eq!(gi.output(0), ps.output(0));
            assert_eq!(gi.output(1), ps.output(1));
        }
    }

    #[test]
    fn plan_matches_after_optimization() {
        use rand::{Rng, SeedableRng};
        let g = graph_of(MIXED);
        let (opt, _) = optimize(&g, &PassOptions::default());
        let p = plan(&opt);
        let mut gi = Interpreter::new(&g);
        let mut ps = PlanSim::new(&p);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..300 {
            let x: u64 = rng.gen_range(0..256);
            let sel: u64 = rng.gen_range(0..2);
            gi.set_input(0, x);
            gi.set_input(1, sel);
            ps.set_input(0, x);
            ps.set_input(1, sel);
            gi.step();
            ps.step();
            assert_eq!(gi.output(0), ps.output(0));
        }
    }

    #[test]
    fn slots_are_ssa_within_a_cycle() {
        let g = graph_of(MIXED);
        let p = plan(&g);
        let mut written = std::collections::HashSet::new();
        for layer in &p.layers {
            for op in layer {
                assert!(written.insert(op.out), "slot {} written twice", op.out);
            }
        }
        // Register slots are never written by layer ops (only by commit).
        for &(dst, _) in &p.commits {
            assert!(!written.contains(&dst));
        }
    }

    #[test]
    fn operands_available_before_use() {
        let g = graph_of(MIXED);
        let p = plan(&g);
        // A slot is available if it is a source slot or written by an
        // earlier (or same, but ops are ordered) layer.
        let source_slots = p.num_slots - p.stats.effectual_ops;
        let mut available: std::collections::HashSet<u32> = (0..source_slots as u32).collect();
        for layer in &p.layers {
            for op in layer {
                for &r in &op.ins {
                    assert!(available.contains(&r), "slot {r} used before defined");
                }
            }
            for op in layer {
                available.insert(op.out);
            }
        }
    }

    #[test]
    fn stats_are_consistent() {
        let g = graph_of(MIXED);
        let p = plan(&g);
        assert_eq!(p.stats.effectual_ops, p.total_ops());
        assert_eq!(p.stats.layers, p.layers.len());
        assert_eq!(p.stats.slots, p.num_slots);
        assert!(p.stats.identity_ops > 0);
    }

    #[test]
    fn plan_serializes_to_json() {
        let g = graph_of(MIXED);
        let p = plan(&g);
        let json = serde_json::to_string(&p).unwrap();
        let back: SimPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn unelided_plan_is_equivalent_but_carries_identities() {
        use rand::{Rng, SeedableRng};
        let g = graph_of(MIXED);
        let elided = plan(&g);
        let unelided = plan_unelided(&g);
        // The strict cascade materializes identity work the coordinate
        // assigner normally removes.
        assert!(unelided.stats.identity_ops > 0);
        assert_eq!(unelided.stats.effectual_ops, elided.stats.effectual_ops);
        assert!(unelided.total_ops() > elided.total_ops());
        assert!(unelided.num_slots > elided.num_slots);
        // ... but behavior is identical.
        let mut a = PlanSim::new(&elided);
        let mut b = PlanSim::new(&unelided);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..300 {
            let x: u64 = rng.gen();
            let sel: u64 = rng.gen();
            a.set_input(0, x);
            a.set_input(1, sel);
            b.set_input(0, x);
            b.set_input(1, sel);
            a.step();
            b.step();
            assert_eq!(a.output(0), b.output(0));
            assert_eq!(a.output(1), b.output(1));
        }
    }

    #[test]
    fn unelided_identity_count_tracks_levelization_accounting() {
        let g = graph_of(MIXED);
        let unelided = plan_unelided(&g);
        let hist = unelided.op_histogram();
        let materialized = hist.get(&DfgOp::Identity).copied().unwrap_or(0);
        assert_eq!(materialized, unelided.stats.identity_ops);
        // Per-value-per-layer carries are bounded by the per-edge
        // accounting of `levelize` plus the carry-to-end terms.
        let lv = crate::level::levelize(&g);
        assert!(materialized <= lv.identities.total() + g.regs.len() * unelided.stats.layers);
    }

    #[test]
    fn probes_cover_named_signals() {
        let g = graph_of(MIXED);
        let p = plan(&g);
        let names: Vec<&str> = p.probes.iter().map(|(n, _, _)| n.as_str()).collect();
        assert!(names.contains(&"acc"));
        assert!(names.contains(&"cnt"));
        assert!(names.contains(&"x"));
    }
}
