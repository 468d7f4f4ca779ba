//! The batched, layer-parallel execution engine.
//!
//! One compiled design, `B` independent stimulus lanes, `T` worker
//! threads. The `LI` slot array is widened to `B` lanes per slot in
//! slot-major layout (slot `s` occupies `li[s * B .. (s + 1) * B]`), the
//! layer walk runs lane-wise over each operation, and the operations
//! *within* one layer are split across threads. The layer barrier that
//! levelization guarantees (operands always come from strictly earlier
//! layers, and each operation owns its output slot) is preserved by a
//! spin barrier between layers, which makes the parallel execution
//! bit-identical to the sequential one — the safety and determinism
//! argument is exactly the paper's §4.2 levelization invariant.
//!
//! Since the kernel-compilation stage landed, the default layer walk is
//! over [`CompiledLayer`] slices — each operation pre-lowered by
//! `rteaal_dfg::lane_kernel` into a specialized, autovectorizable lane
//! kernel with dispatch, operand offsets, and canonicalization resolved
//! at [`BatchKernel::compile`] time. The interpreted
//! [`OpInst::eval_lanes`] walk is retained behind
//! [`BatchEngine::Interpreted`] as the differential-testing golden
//! model. Both walks evaluate only the *active* lane window of
//! [`BatchLiState`], which lane-liveness early exit (driven by
//! `rteaal-core`) shrinks as lanes finish their workloads.
//!
//! Worker threads are spawned once per [`BatchKernel::run_parallel`] /
//! [`BatchKernel::run_with_stimulus`] call and live for the whole span of
//! cycles, so the per-cycle cost is the barriers, not thread creation.
//!
//! The traversal order honors the kernel configuration: swizzled kinds
//! (NU/PSU/IU) regroup each layer's operations by opcode — the `[I, N,
//! S]` loop order of Algorithm 4 — which keeps the dispatch branch
//! per-group stable; the remaining kinds keep plan order. Within-layer
//! reordering is sound for the same reason the parallelism is.

use crate::config::{KernelConfig, KernelKind};
use crate::profile::{oim_addr, MemProbe, OimArray, Probe, CODE_BASE, HANDLER_BYTES, LI_BASE};
use crate::rolled::exec_cost;
use rteaal_dfg::batch::init_lanes;
use rteaal_dfg::lane_kernel::{compile_layer, BatchEngine, CompiledLayer, LaneWindow};
use rteaal_dfg::op::canonicalize;
use rteaal_dfg::partition::PartitionedPlan;
use rteaal_dfg::plan::split_commits;
use rteaal_dfg::specialize::{SpecProgram, SpecializedPlan};
use rteaal_dfg::{OpInst, SimPlan};
use rteaal_perfmodel::cache::MemSim;
use rteaal_perfmodel::ExecProfile;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One RUM row of the partitioned state: the register's slot, the
/// replica that commits it, and the replicas it is copied to.
type RumRow = (u32, u32, Vec<u32>);

/// Per-partition register commits, split alias-free/staged (see
/// [`split_commits`]).
type PartCommits = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// The mutable batched simulation state: `B` lanes per `LI` slot, of
/// which the `live` prefix is evaluated (lane-liveness early exit swaps
/// finished lanes past the prefix and shrinks it).
///
/// With a RepCut decomposition ([`BatchLiState::new_partitioned`]) the
/// matrix is additionally replicated per partition: replica `p` occupies
/// `li[p * span .. (p + 1) * span]` with `span = num_slots * lanes`, and
/// the 2-D partition × lane decomposition of [`BatchKernel`] evaluates
/// partition `p`'s ops inside replica `p` only. Reads route through the
/// per-slot *home* replica; writes (inputs, pokes) land in every
/// replica; the end-of-cycle commit reconciles the replicated boundary
/// rows through the register update map. Lane-axis operations —
/// swapping, per-column reset, the live window — act on the same lane
/// column of **all** replicas, so lane compaction and recycling are
/// partition-oblivious.
#[derive(Debug, Clone)]
pub struct BatchLiState {
    li: Vec<u64>,
    /// Partition replica count (1 = the classic unpartitioned layout).
    parts: usize,
    /// Size of one replica: `num_slots * lanes`.
    span: usize,
    lanes: usize,
    live: usize,
    init: Vec<u64>,
    input_slots: Vec<u32>,
    input_types: Vec<(u8, bool)>,
    output_slots: Vec<(String, u32)>,
    /// Per-partition register commits (one entry when unpartitioned).
    commits: Vec<PartCommits>,
    commit_buf: Vec<u64>,
    /// Register update map rows; empty when unpartitioned.
    rum: Vec<RumRow>,
    /// `slot -> home replica`; empty when unpartitioned (all slots home
    /// in replica 0).
    home: Vec<u32>,
    cycle: u64,
    /// Sidecar bit-plane matrix for a specialized kernel's packed rows
    /// (`SpecProgram::bits_len` words, grown lazily on the first
    /// specialized step). Input-cone rows persist across cycles — that
    /// persistence is what the cone skip reuses.
    bits: Vec<u64>,
    /// An input, poke, reset, window change, or lane permutation
    /// happened since the last full layer walk — the specialized
    /// walk's input-cone skip is unsound until it re-evaluates once.
    inputs_dirty: bool,
    /// The last specialized step reached a register fixed point: the
    /// commit changed no live-lane value and inputs were unchanged, so
    /// `LI` is its own image under walk + commit. While this holds (and
    /// `inputs_dirty` stays false) whole steps are activity-skipped.
    settled: bool,
}

impl BatchLiState {
    /// Initializes `lanes` lanes from a plan, every lane at the power-on
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(plan: &SimPlan, lanes: usize) -> Self {
        assert!(lanes > 0, "batch needs at least one lane");
        let li = init_lanes(plan, lanes);
        let (direct, staged) = split_commits(&plan.commits);
        BatchLiState {
            init: li.clone(),
            span: li.len(),
            li,
            parts: 1,
            lanes,
            live: lanes,
            input_slots: plan.input_slots.clone(),
            input_types: plan.input_types.clone(),
            output_slots: plan.output_slots.clone(),
            commit_buf: vec![0; staged.len() * lanes],
            commits: vec![(direct, staged)],
            rum: Vec::new(),
            home: Vec::new(),
            cycle: 0,
            bits: Vec::new(),
            inputs_dirty: true,
            settled: false,
        }
    }

    /// Initializes a partition-replicated state: one `LI` replica per
    /// partition of `pp`, every lane at the power-on state. Pair with a
    /// kernel from [`BatchKernel::compile_partitioned`] over the same
    /// decomposition.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new_partitioned(plan: &SimPlan, lanes: usize, pp: &PartitionedPlan) -> Self {
        assert!(lanes > 0, "batch needs at least one lane");
        let parts = pp.num_partitions();
        let span = plan.num_slots * lanes;
        let replica = init_lanes(plan, lanes);
        let mut li = Vec::with_capacity(parts * span);
        for _ in 0..parts {
            li.extend_from_slice(&replica);
        }
        let commits: Vec<PartCommits> = pp
            .partitions
            .iter()
            .map(|s| split_commits(&s.commits))
            .collect();
        let max_staged = commits.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        BatchLiState {
            init: li.clone(),
            li,
            parts,
            span,
            lanes,
            live: lanes,
            input_slots: plan.input_slots.clone(),
            input_types: plan.input_types.clone(),
            output_slots: plan.output_slots.clone(),
            commit_buf: vec![0; max_staged * lanes],
            commits,
            rum: pp
                .rum
                .iter()
                .map(|e| (e.slot, e.owner, e.readers.clone()))
                .collect(),
            home: if parts > 1 {
                pp.home.clone()
            } else {
                Vec::new()
            },
            cycle: 0,
            bits: Vec::new(),
            inputs_dirty: true,
            settled: false,
        }
    }

    /// Number of stimulus lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of partition replicas (1 = unpartitioned).
    pub fn partitions(&self) -> usize {
        self.parts
    }

    /// The home replica of a slot — where its authoritative value lives.
    #[inline]
    fn home_of(&self, s: u32) -> usize {
        if self.home.is_empty() {
            0
        } else {
            self.home[s as usize] as usize
        }
    }

    /// Number of lanes still being evaluated (the active prefix).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Shrinks (or restores) the evaluated lane prefix. Lanes at or past
    /// `live` are frozen: layer evaluation and register commit skip them.
    ///
    /// # Panics
    ///
    /// Panics if `live > lanes`.
    pub fn set_live(&mut self, live: usize) {
        assert!(
            live <= self.lanes,
            "live {live} exceeds {} lanes",
            self.lanes
        );
        self.live = live;
        self.inputs_dirty = true;
    }

    /// The active evaluation window.
    pub fn window(&self) -> LaneWindow {
        LaneWindow {
            stride: self.lanes,
            active: self.live,
        }
    }

    /// Swaps two lane columns across every slot row (lane compaction:
    /// a finished lane is swapped past the live prefix).
    pub fn swap_lanes(&mut self, a: usize, b: usize) {
        assert!(a < self.lanes && b < self.lanes, "lane out of range");
        if a == b {
            return;
        }
        let lanes = self.lanes;
        for s0 in (0..self.li.len()).step_by(lanes) {
            self.li.swap(s0 + a, s0 + b);
        }
        self.inputs_dirty = true;
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        self.input_slots.len()
    }

    /// Resets every lane to the power-on state and revives all lanes.
    pub fn reset(&mut self) {
        self.li.copy_from_slice(&self.init);
        self.live = self.lanes;
        self.cycle = 0;
        self.inputs_dirty = true;
    }

    /// Resets one physical lane column to the power-on state — register
    /// init values, constants, zeroed inputs — without touching any
    /// other lane, the live window, or the cycle counter.
    ///
    /// This is the enabling primitive for lane recycling: call it only
    /// between cycles (never inside [`BatchKernel::run_parallel`] /
    /// [`BatchKernel::run_with_stimulus`], whose workers share the `LI`
    /// array for the whole span of cycles), then drive fresh inputs and
    /// step. It does not change the lane's liveness — the caller is
    /// expected to have swapped the column back into the live window
    /// first (see `rteaal_core::BatchSimulation::reset_lane`).
    ///
    /// # Panics
    ///
    /// Panics if `phys` is out of range.
    pub fn reset_lane(&mut self, phys: usize) {
        assert!(phys < self.lanes, "lane {phys} out of range");
        for s0 in (0..self.li.len()).step_by(self.lanes) {
            self.li[s0 + phys] = self.init[s0 + phys];
        }
        self.inputs_dirty = true;
    }

    /// Drives input port `idx` on one lane (canonicalized to the port
    /// type, written into every partition replica).
    pub fn set_input(&mut self, idx: usize, lane: usize, value: u64) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let (w, signed) = self.input_types[idx];
        let v = canonicalize(value, w as u32, signed);
        let off = self.input_slots[idx] as usize * self.lanes + lane;
        for p in 0..self.parts {
            self.li[p * self.span + off] = v;
        }
        self.inputs_dirty = true;
    }

    /// Drives input port `idx` identically on every lane: canonicalizes
    /// once and fills the lane row (of every replica).
    pub fn set_input_all(&mut self, idx: usize, value: u64) {
        let (w, signed) = self.input_types[idx];
        let v = canonicalize(value, w as u32, signed);
        let s0 = self.input_slots[idx] as usize * self.lanes;
        for p in 0..self.parts {
            let r0 = p * self.span + s0;
            self.li[r0..r0 + self.lanes].fill(v);
        }
        self.inputs_dirty = true;
    }

    /// Drives input port `idx` identically on every *live* lane; frozen
    /// lanes keep the input they halted with.
    pub fn set_input_live(&mut self, idx: usize, value: u64) {
        let (w, signed) = self.input_types[idx];
        let v = canonicalize(value, w as u32, signed);
        let s0 = self.input_slots[idx] as usize * self.lanes;
        for p in 0..self.parts {
            let r0 = p * self.span + s0;
            self.li[r0..r0 + self.live].fill(v);
        }
        self.inputs_dirty = true;
    }

    /// Output value of one lane, by port index.
    pub fn output(&self, idx: usize, lane: usize) -> u64 {
        self.slot(self.output_slots[idx].1, lane)
    }

    /// Output value of one lane, by port name.
    pub fn output_by_name(&self, name: &str, lane: usize) -> Option<u64> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.output_slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| self.slot(s, lane))
    }

    /// Reads an arbitrary slot on one lane (probe / waveform path),
    /// through the slot's home replica.
    pub fn slot(&self, s: u32, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.li[self.home_of(s) * self.span + s as usize * self.lanes + lane]
    }

    /// Writes a slot on one lane (DMI poke) — into every replica, so a
    /// partitioned run sees the poke wherever the slot is read. Slots
    /// carry no type: `value` must already be canonical for the signal,
    /// which the `rteaal-core` front doors ensure.
    pub fn poke_slot(&mut self, s: u32, lane: usize, value: u64) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let off = s as usize * self.lanes + lane;
        for p in 0..self.parts {
            self.li[p * self.span + off] = value;
        }
        self.inputs_dirty = true;
    }

    /// Cycles completed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Lane-wise register commit over the active window (the final
    /// `LI_{i+1}` Einsum of Cascade 1): per replica, staged sources
    /// first, direct alias-free copies, then the staged writes — each
    /// partition committing only the registers it owns — followed by the
    /// RUM reconciliation copying every committed row from its owner
    /// replica to its reader replicas (the Cascade 2 `LI_{c+1} =
    /// LI_{c,I} · RUM` Einsum). Frozen lanes keep their state.
    fn commit_lanes(&mut self) {
        self.commit_lanes_tracked();
    }

    /// As [`Self::commit_lanes`], additionally reporting whether any
    /// commit (or replica reconciliation) changed a live-lane value.
    /// `false` means the state is a register fixed point: with inputs
    /// unchanged, the next walk + commit would reproduce `LI` exactly —
    /// the activity skip's enabling condition. The pre-write compares
    /// are sound because staged sources are buffered before any
    /// destination write and direct commits are alias-free by
    /// construction.
    fn commit_lanes_tracked(&mut self) -> bool {
        let (lanes, n) = (self.lanes, self.live);
        let mut changed = false;
        for (p, (direct, staged)) in self.commits.iter().enumerate() {
            let base = p * self.span;
            for (k, &(dst, src)) in staged.iter().enumerate() {
                let s0 = base + src as usize * lanes;
                let d0 = base + dst as usize * lanes;
                changed |= self.li[d0..d0 + n] != self.li[s0..s0 + n];
                self.commit_buf[k * lanes..k * lanes + n].copy_from_slice(&self.li[s0..s0 + n]);
            }
            for &(dst, src) in direct {
                let (d0, s0) = (base + dst as usize * lanes, base + src as usize * lanes);
                changed |= self.li[d0..d0 + n] != self.li[s0..s0 + n];
                self.li.copy_within(s0..s0 + n, d0);
            }
            for (k, &(dst, _)) in staged.iter().enumerate() {
                let d0 = base + dst as usize * lanes;
                self.li[d0..d0 + n].copy_from_slice(&self.commit_buf[k * lanes..k * lanes + n]);
            }
        }
        for (slot, owner, readers) in &self.rum {
            let row = *slot as usize * lanes;
            let s0 = *owner as usize * self.span + row;
            for &q in readers {
                let d0 = q as usize * self.span + row;
                changed |= self.li[d0..d0 + n] != self.li[s0..s0 + n];
                self.li.copy_within(s0..s0 + n, d0);
            }
        }
        self.cycle += 1;
        changed
    }

    /// Whether the activity skip is armed: the last specialized step hit
    /// a register fixed point and nothing external has touched the state
    /// since.
    pub fn settled(&self) -> bool {
        self.settled && !self.inputs_dirty
    }
}

/// A raw `LI` pointer sharable across the layer-parallel scope.
#[derive(Clone, Copy)]
struct SharedLi(*mut u64);

// SAFETY: workers only touch disjoint rows between barriers (see
// `CompiledOp::eval_lanes_ptr`); the pointer itself is plain data.
unsafe impl Send for SharedLi {}
// SAFETY: as for `Send` — row disjointness between barriers makes shared
// references to the wrapper harmless.
unsafe impl Sync for SharedLi {}

/// A sense-reversing spin barrier.
///
/// The layer barrier fires `layers × cycles` times per run, so its
/// latency *is* the parallelization overhead; `std::sync::Barrier`'s
/// mutex+condvar rendezvous costs ~10µs, which dwarfs the work of a
/// typical layer. Spinning (with a yield fallback for oversubscribed
/// hosts) brings the crossing down to the cache-coherence cost.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    /// Spin iterations before falling back to `yield_now`. Zero when the
    /// host has fewer cores than barrier participants: spinning there
    /// steals the CPU the late arrivers need.
    spin_limit: u32,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(1);
        let spin_limit = if total <= cores { 1 << 14 } else { 0 };
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
            spin_limit,
        }
    }

    /// Blocks until all `total` threads have arrived.
    ///
    /// Each arriver's prior writes are published through the release
    /// sequence on `arrived`; the last arriver flips `generation` with a
    /// release store, and every waiter's acquire load of it therefore
    /// observes all pre-barrier writes of all threads.
    #[inline]
    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < self.spin_limit {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// One entry of the layer-parallel execution schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    /// A layer wide enough to split across workers.
    Parallel(usize),
    /// A run `[from, to)` of narrow layers worker 0 executes alone —
    /// splitting them would cost more in barrier crossings than the
    /// division of work saves, and merging adjacent ones removes their
    /// interior barriers entirely.
    Serial(usize, usize),
}

/// Minimum op×lane work units in a layer before splitting it pays.
const PAR_MIN_WORK: usize = 1024;

/// Builds the segment schedule for a given lane count from the
/// cross-partition op totals of each layer.
fn schedule(layer_totals: &[usize], lanes: usize) -> Vec<Segment> {
    let mut segments: Vec<Segment> = Vec::with_capacity(layer_totals.len());
    for (i, &ops) in layer_totals.iter().enumerate() {
        if ops * lanes >= PAR_MIN_WORK {
            segments.push(Segment::Parallel(i));
        } else if let Some(Segment::Serial(_, to)) = segments.last_mut() {
            *to = i + 1;
        } else {
            segments.push(Segment::Serial(i, i + 1));
        }
    }
    segments
}

/// Per-lane input driver handed to the stimulus callback of
/// [`BatchKernel::run_with_stimulus`].
pub struct LanePoker<'a> {
    li: SharedLi,
    parts: usize,
    span: usize,
    lanes: usize,
    input_slots: &'a [u32],
    input_types: &'a [(u8, bool)],
    /// The state's `inputs_dirty`: any poke through this driver makes
    /// the specialized walk's input-cone skip unsound until the next
    /// full evaluation.
    dirty: &'a mut bool,
}

impl LanePoker<'_> {
    /// Number of stimulus lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        self.input_slots.len()
    }

    /// Drives input port `idx` on one lane (canonicalized to the port
    /// type, written into every partition replica).
    pub fn set_input(&mut self, idx: usize, lane: usize, value: u64) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let (w, signed) = self.input_types[idx];
        let v = canonicalize(value, w as u32, signed);
        let off = self.input_slots[idx] as usize * self.lanes + lane;
        for p in 0..self.parts {
            // SAFETY: input slots are source rows no layer op ever writes,
            // and the callback runs in the single-threaded window between
            // the commit barrier and the next layer-0 barrier.
            unsafe {
                *self.li.0.add(p * self.span + off) = v;
            }
        }
        *self.dirty = true;
    }
}

/// One layer's attributed event counts from a
/// [`BatchKernel::step_profiled`] cycle: how much of the cycle's dynamic
/// work (across all partitions and live lanes) this layer accounted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSample {
    /// Layer index in the levelized schedule.
    pub layer: usize,
    /// Operations in this layer, summed across partitions.
    pub ops: usize,
    /// Dynamic instructions modeled for this layer.
    pub instructions: u64,
    /// Data loads modeled for this layer.
    pub loads: u64,
    /// Data stores modeled for this layer.
    pub stores: u64,
}

/// Address of lane `lane` of slot `slot` in partition replica `p` of the
/// slot-major batched `LI` matrix (8 bytes per lane element).
#[inline]
fn batched_li_addr(p: usize, span: usize, slot: u32, lanes: usize, lane: usize) -> u64 {
    LI_BASE + ((p * span + slot as usize * lanes + lane) * 8) as u64
}

/// The batched, layer-parallel kernel: a layer-structured op program
/// (one schedule per partition), its kernel-compiled form, and the
/// traversal the kernel configuration asks for.
///
/// Unpartitioned kernels are the one-partition special case. Partitioned
/// kernels ([`BatchKernel::compile_partitioned`]) hold one op schedule
/// per RepCut partition over the same layer grid; the threaded walk
/// flattens the (partition, op) pairs of each layer into one work range
/// so worker threads own (partition, lane-chunk) tiles, and the layer
/// barrier argument carries over unchanged: output rows are unique
/// within a partition's layer and live in distinct replicas across
/// partitions.
#[derive(Debug, Clone)]
pub struct BatchKernel {
    config: KernelConfig,
    engine: BatchEngine,
    /// Operations per partition per layer (`layers[p][i]`), in execution
    /// order (the interpreted form, also the input of the schedule
    /// builder).
    layers: Vec<Vec<Vec<OpInst>>>,
    /// Kernel-compiled layers, same shape (compiled engine only).
    compiled: Vec<Vec<CompiledLayer>>,
    /// Layer count (equal across partitions; short partitions padded).
    num_layers: usize,
    /// Total ops of each layer across partitions.
    layer_totals: Vec<usize>,
    /// Per layer, prefix sums of per-partition op counts (`parts + 1`
    /// entries) — maps a flattened work range back to per-partition
    /// slices.
    offsets: Vec<Vec<usize>>,
    /// Superblock/bit-packing program for a specialized kernel
    /// ([`BatchKernel::compile_specialized`]); `None` runs the classic
    /// per-op walk.
    spec: Option<SpecProgram>,
}

impl BatchKernel {
    /// Compiles a plan into a batched kernel under a configuration,
    /// lowering every operation into a specialized lane kernel.
    ///
    /// Swizzled kinds (NU/PSU/IU) regroup each layer by opcode (`[I, N,
    /// S]` order); other kinds keep coordinate-assignment order. Both are
    /// bit-identical — within-layer operations are independent.
    pub fn compile(plan: &SimPlan, config: KernelConfig) -> Self {
        Self::compile_with_engine(plan, config, BatchEngine::Compiled)
    }

    /// Compiles a plan with an explicit executor choice
    /// ([`BatchEngine::Interpreted`] keeps the per-lane `eval_raw`
    /// dispatch — the golden model, and the baseline of the
    /// interpreted-vs-compiled benchmark axis).
    pub fn compile_with_engine(plan: &SimPlan, config: KernelConfig, engine: BatchEngine) -> Self {
        Self::from_layers(config, engine, vec![plan.layers.clone()])
    }

    /// Compiles a RepCut decomposition into a partitioned kernel: one op
    /// schedule per partition, executed against the replica-per-partition
    /// state of [`BatchLiState::new_partitioned`] over the same
    /// decomposition.
    pub fn compile_partitioned(pp: &PartitionedPlan, config: KernelConfig) -> Self {
        Self::compile_partitioned_with_engine(pp, config, BatchEngine::Compiled)
    }

    /// Partitioned compilation with an explicit executor choice.
    pub fn compile_partitioned_with_engine(
        pp: &PartitionedPlan,
        config: KernelConfig,
        engine: BatchEngine,
    ) -> Self {
        Self::from_layers(
            config,
            engine,
            pp.partitions.iter().map(|s| s.layers.clone()).collect(),
        )
    }

    fn from_layers(
        config: KernelConfig,
        engine: BatchEngine,
        mut part_layers: Vec<Vec<Vec<OpInst>>>,
    ) -> Self {
        if config.kind.is_swizzled() {
            for layers in &mut part_layers {
                for layer in layers.iter_mut() {
                    layer.sort_by_key(|op| op.n);
                }
            }
        }
        let num_layers = part_layers.iter().map(Vec::len).max().unwrap_or(0);
        for layers in &mut part_layers {
            layers.resize_with(num_layers, Vec::new);
        }
        let mut layer_totals = Vec::with_capacity(num_layers);
        let mut offsets = Vec::with_capacity(num_layers);
        for i in 0..num_layers {
            let mut pref = Vec::with_capacity(part_layers.len() + 1);
            let mut acc = 0usize;
            pref.push(0);
            for layers in &part_layers {
                acc += layers[i].len();
                pref.push(acc);
            }
            layer_totals.push(acc);
            offsets.push(pref);
        }
        let compiled = match engine {
            BatchEngine::Compiled => part_layers
                .iter()
                .map(|layers| layers.iter().map(|l| compile_layer(l)).collect())
                .collect(),
            BatchEngine::Interpreted => Vec::new(),
        };
        BatchKernel {
            config,
            engine,
            layers: part_layers,
            compiled,
            num_layers,
            layer_totals,
            offsets,
            spec: None,
        }
    }

    /// Compiles a specialized plan ([`rteaal_dfg::specialize`]) into a
    /// superblock kernel. The transformed plan's layers are
    /// kernel-compiled as usual — the interpreted and profiled walks
    /// keep working against them — and the layer walk additionally
    /// carries the flat [`SpecProgram`] bytecode: straight-line
    /// superblocks per layer, bit-packed 64-lanes-per-word bodies when
    /// `pack`, and the input-cone skip. Specialized kernels are
    /// unpartitioned; a RepCut decomposition consumes the transformed
    /// plan instead (fold/dedup/DCE still apply, packing does not).
    pub fn compile_specialized(sp: &SpecializedPlan, config: KernelConfig, pack: bool) -> Self {
        let mut kernel = Self::compile(&sp.plan, config);
        kernel.spec = Some(SpecProgram::build(&sp.plan, pack));
        kernel
    }

    /// The configuration this kernel was compiled under.
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// The executor this kernel walks its layers with.
    pub fn engine(&self) -> BatchEngine {
        self.engine
    }

    /// The superblock program of a specialized kernel, if any.
    pub fn specialized(&self) -> Option<&SpecProgram> {
        self.spec.as_ref()
    }

    /// Number of partitions this kernel was compiled for (1 =
    /// unpartitioned).
    pub fn partitions(&self) -> usize {
        self.layers.len()
    }

    /// Total operations per simulated cycle (per lane), across all
    /// partitions — for a partitioned kernel this includes the
    /// replicated fan-in cones.
    pub fn ops_per_cycle(&self) -> usize {
        self.layer_totals.iter().sum()
    }

    /// Evaluates one layer of every partition over a window,
    /// single-threaded. `span` is the replica stride of the state.
    #[inline]
    fn eval_layer(&self, i: usize, li: &mut [u64], span: usize, w: LaneWindow, buf: &mut Vec<u64>) {
        for p in 0..self.layers.len() {
            let rep = &mut li[p * span..(p + 1) * span];
            match self.engine {
                BatchEngine::Compiled => {
                    for op in &self.compiled[p][i] {
                        op.eval_lanes(rep, w, buf);
                    }
                }
                BatchEngine::Interpreted => {
                    for op in &self.layers[p][i] {
                        op.eval_lanes(rep, w, buf);
                    }
                }
            }
        }
    }

    /// Evaluates a worker's chunk of one layer through the shared
    /// pointer. The chunk is a range of the layer's flattened
    /// (partition, op) pairs, intersected per partition via the prefix
    /// sums — each worker owns a (partition, op-range) tile set.
    ///
    /// # Safety
    ///
    /// As `CompiledOp::eval_lanes_ptr`: the layer barrier must seal
    /// operand rows, and `(worker, threads)` chunking must give this
    /// caller exclusive ownership of the chunk's output rows (unique
    /// within a partition layer; distinct replicas across partitions).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn eval_layer_chunk(
        &self,
        i: usize,
        li: SharedLi,
        span: usize,
        w: LaneWindow,
        worker: usize,
        threads: usize,
        buf: &mut Vec<u64>,
    ) {
        let (lo, hi) = chunk(self.layer_totals[i], worker, threads);
        let pref = &self.offsets[i];
        for p in 0..self.layers.len() {
            let (a, b) = (pref[p].max(lo), pref[p + 1].min(hi));
            if a >= b {
                continue;
            }
            let (la, lb) = (a - pref[p], b - pref[p]);
            let base = li.0.add(p * span);
            match self.engine {
                BatchEngine::Compiled => {
                    for op in &self.compiled[p][i][la..lb] {
                        op.eval_lanes_ptr(base, w, buf);
                    }
                }
                BatchEngine::Interpreted => {
                    for op in &self.layers[p][i][la..lb] {
                        op.eval_lanes_ptr(base, w, buf);
                    }
                }
            }
        }
    }

    /// One cycle on the active lanes, single-threaded.
    ///
    /// # Panics
    ///
    /// Panics if the state's partition count differs from the kernel's.
    pub fn step(&self, st: &mut BatchLiState) {
        assert_eq!(
            self.layers.len(),
            st.parts,
            "kernel/state partition mismatch"
        );
        if st.inputs_dirty {
            st.settled = false;
        }
        if self.spec.is_some() && st.settled {
            // Activity skip: the state is a register fixed point and no
            // input/poke/window change arrived — walk and commit would
            // both be identities, so the cycle only advances the clock.
            st.cycle += 1;
            return;
        }
        let mut buf = Vec::with_capacity(8);
        self.eval_all(st, &mut buf);
        if self.spec.is_some() {
            st.settled = !st.commit_lanes_tracked();
        } else {
            st.commit_lanes();
        }
    }

    /// Full combinational walk over the active lanes: the specialized
    /// superblock program when this kernel carries one (input-cone
    /// prefixes skipped while the state's inputs are unchanged),
    /// otherwise the classic per-op layer walk.
    fn eval_all(&self, st: &mut BatchLiState, buf: &mut Vec<u64>) {
        let w = st.window();
        if let Some(prog) = &self.spec {
            let need = prog.bits_len(st.lanes);
            if st.bits.len() < need {
                st.bits.resize(need, 0);
            }
            let skip_cone = !st.inputs_dirty;
            for i in 0..prog.num_layers() {
                prog.eval_layer(i, &mut st.li, w, &mut st.bits, skip_cone, buf);
            }
            // The cone (wide slots in `li`, packed rows in `bits`) now
            // reflects the current inputs; register commits cannot
            // invalidate it.
            st.inputs_dirty = false;
            return;
        }
        for i in 0..self.num_layers {
            self.eval_layer(i, &mut st.li, st.span, w, buf);
        }
    }

    /// One cycle with per-layer instrumentation: the real (bit-exact)
    /// layer walk runs first, then the layer's reference streams are
    /// replayed into `mem` through a [`MemProbe`] — per op the OIM
    /// coordinate/side-table loads and the dispatch branch, per live lane
    /// the operand loads from the batched `LI` matrix, the compute body,
    /// and the output store. Counters accumulate into `profile` (ready
    /// for [`rteaal_perfmodel::analyze`]); the return value attributes
    /// them layer by layer.
    ///
    /// The modeled stream is the batched analog of the scalar
    /// [`Kernel::step_profiled`](crate::Kernel::step_profiled): each op's
    /// coordinates are fetched once per cycle while its lane loop streams
    /// `live` contiguous `LI` lanes — exactly the amortization the
    /// batched engine exists to buy.
    ///
    /// # Panics
    ///
    /// Panics if the state's partition count differs from the kernel's.
    pub fn step_profiled(
        &self,
        st: &mut BatchLiState,
        mem: &mut MemSim,
        profile: &mut ExecProfile,
    ) -> Vec<LayerSample> {
        assert_eq!(
            self.layers.len(),
            st.parts,
            "kernel/state partition mismatch"
        );
        let mut buf = Vec::with_capacity(8);
        let w = st.window();
        let mut probe = MemProbe::new(mem);
        let mut samples = Vec::with_capacity(self.num_layers);
        // OIM arrays are laid out in schedule order: the coordinate index
        // is global across layers (and partitions), as is the running
        // base into the flattened `R`-rank operand array.
        let mut op_index = 0usize;
        let mut r_index = 0usize;
        for i in 0..self.num_layers {
            self.eval_layer(i, &mut st.li, st.span, w, &mut buf);
            let before = probe.counters;
            for p in 0..self.layers.len() {
                for op in &self.layers[p][i] {
                    probe.load(oim_addr(OimArray::NCoords, op_index, 2));
                    probe.load(oim_addr(OimArray::SCoords, op_index, 4));
                    probe.load(oim_addr(OimArray::Meta, op_index, 24));
                    for o in 0..op.ins.len() {
                        probe.load(oim_addr(OimArray::RCoords, r_index + o, 4));
                    }
                    let handler = CODE_BASE + op.n as u64 * HANDLER_BYTES;
                    probe.branch(handler);
                    let cost = exec_cost(op.op(), op.ins.len());
                    for lane in 0..st.live {
                        for &ins in &op.ins {
                            probe.load(batched_li_addr(p, st.span, ins, st.lanes, lane));
                        }
                        probe.exec(handler + 0x10, cost);
                        probe.store(batched_li_addr(p, st.span, op.out, st.lanes, lane));
                    }
                    r_index += op.ins.len();
                    op_index += 1;
                }
            }
            let after = probe.counters;
            samples.push(LayerSample {
                layer: i,
                ops: self.layer_totals[i],
                instructions: after.instructions - before.instructions,
                loads: after.loads - before.loads,
                stores: after.stores - before.stores,
            });
        }
        st.commit_lanes();
        profile.instructions += probe.counters.instructions;
        profile.branches += probe.counters.branches;
        profile.branch_entropy = match self.config.kind {
            KernelKind::Ru | KernelKind::Ou => 0.012,
            KernelKind::Nu | KernelKind::Psu | KernelKind::Iu => 0.0012,
            KernelKind::Su | KernelKind::Ti => 0.001,
        };
        profile.mem = mem.stats();
        samples
    }

    /// Evaluates every combinational layer over the active lanes WITHOUT
    /// committing registers or advancing the cycle counter: after this,
    /// every wire slot (outputs, probes, halt conditions) reflects the
    /// current registers and inputs. Idempotent, and invisible to a
    /// subsequent [`step`](Self::step), which re-evaluates the same
    /// layers from the same sources — the hook that lets a scheduler
    /// observe a halt signal that is combinationally true the moment a
    /// testbench is admitted, before spending a cycle on it.
    pub fn eval_comb(&self, st: &mut BatchLiState) {
        assert_eq!(
            self.layers.len(),
            st.parts,
            "kernel/state partition mismatch"
        );
        let mut buf = Vec::with_capacity(8);
        self.eval_all(st, &mut buf);
    }

    /// `cycles` cycles on the active lanes, single-threaded.
    pub fn run(&self, st: &mut BatchLiState, cycles: u64) {
        for _ in 0..cycles {
            self.step(st);
        }
    }

    /// `cycles` cycles with the ops of each layer split across `threads`
    /// workers (layer barrier preserved). Inputs keep whatever values
    /// they currently hold.
    pub fn run_parallel(&self, st: &mut BatchLiState, cycles: u64, threads: usize) {
        self.run_with_stimulus(st, cycles, threads, |_, _| {});
    }

    /// `cycles` cycles across `threads` workers, invoking `stimulus`
    /// before each cycle (in the single-threaded window after the
    /// previous commit) so every lane can be driven independently.
    pub fn run_with_stimulus(
        &self,
        st: &mut BatchLiState,
        cycles: u64,
        threads: usize,
        mut stimulus: impl FnMut(u64, &mut LanePoker<'_>),
    ) {
        assert_eq!(
            self.layers.len(),
            st.parts,
            "kernel/state partition mismatch"
        );
        let start_cycle = st.cycle;
        let threads = threads.max(1);
        if threads == 1 {
            for c in 0..cycles {
                {
                    let li = SharedLi(st.li.as_mut_ptr());
                    let mut poker = LanePoker {
                        li,
                        parts: st.parts,
                        span: st.span,
                        lanes: st.lanes,
                        input_slots: &st.input_slots,
                        input_types: &st.input_types,
                        dirty: &mut st.inputs_dirty,
                    };
                    stimulus(start_cycle + c, &mut poker);
                }
                self.step(st);
            }
            return;
        }
        // Threaded commits are untracked: any settledness established by
        // a serial run cannot survive a run whose commits aren't
        // compared (and whose stimulus may poke mid-run).
        st.settled = false;
        if let Some(prog) = &self.spec {
            self.run_spec_parallel(prog, st, cycles, threads, &mut stimulus);
            return;
        }
        let w = st.window();
        let span = st.span;
        let shared = SharedLi(st.li.as_mut_ptr());
        // One barrier rendezvous per schedule segment plus one around the
        // commit/stimulus window; worker 0 (the calling thread) owns the
        // single-threaded windows and executes the serial segments.
        let segments = schedule(&self.layer_totals, st.lanes);
        let barrier = SpinBarrier::new(threads);
        std::thread::scope(|scope| {
            for worker in 1..threads {
                let barrier = &barrier;
                let segments = &segments;
                let kernel = &*self;
                scope.spawn(move || {
                    // Capture the whole `Send` wrapper, not its raw field
                    // (edition-2021 closures capture disjoint fields).
                    let shared = shared;
                    let mut buf = Vec::with_capacity(8);
                    for _ in 0..cycles {
                        barrier.wait(); // stimulus window closed
                        for segment in segments {
                            if let Segment::Parallel(i) = *segment {
                                // SAFETY: disjoint output rows within the
                                // layer; operand rows sealed by the
                                // previous barrier.
                                unsafe {
                                    kernel.eval_layer_chunk(
                                        i, shared, span, w, worker, threads, &mut buf,
                                    )
                                };
                            }
                            // Serial segments belong to worker 0.
                            barrier.wait();
                        }
                        // Worker 0 commits and applies stimulus next.
                    }
                });
            }
            let mut buf = Vec::with_capacity(8);
            for c in 0..cycles {
                {
                    let mut poker = LanePoker {
                        li: shared,
                        parts: st.parts,
                        span: st.span,
                        lanes: st.lanes,
                        input_slots: &st.input_slots,
                        input_types: &st.input_types,
                        dirty: &mut st.inputs_dirty,
                    };
                    stimulus(start_cycle + c, &mut poker);
                }
                barrier.wait(); // open the compute phase
                for segment in &segments {
                    match *segment {
                        Segment::Parallel(i) => {
                            // SAFETY: as above.
                            unsafe {
                                self.eval_layer_chunk(i, shared, span, w, 0, threads, &mut buf)
                            };
                        }
                        Segment::Serial(from, to) => {
                            for i in from..to {
                                // SAFETY: workers never touch serial
                                // layers; operand rows are sealed.
                                unsafe {
                                    self.eval_layer_chunk(i, shared, span, w, 0, 1, &mut buf)
                                };
                            }
                        }
                    }
                    barrier.wait();
                }
                // Single-threaded window: every worker is parked at the
                // next cycle's opening barrier.
                commit_shared(shared, span, w, &st.commits, &mut st.commit_buf, &st.rum);
            }
        });
        st.cycle += cycles;
    }

    /// The threaded walk of a specialized kernel: each layer runs as
    /// phase A (boundary pack/unpack moves) and phase B (wide + packed
    /// bodies), each phase chunked across workers and sealed by a
    /// barrier — one extra rendezvous per layer versus the classic
    /// walk, bought back by the packed bodies. The threaded walk never
    /// skips the input cone (the skip flag is a single-threaded
    /// optimization); it leaves the cone freshly evaluated, so it
    /// clears `inputs_dirty` for a subsequent serial walk.
    fn run_spec_parallel(
        &self,
        prog: &SpecProgram,
        st: &mut BatchLiState,
        cycles: u64,
        threads: usize,
        stimulus: &mut impl FnMut(u64, &mut LanePoker<'_>),
    ) {
        let start_cycle = st.cycle;
        let need = prog.bits_len(st.lanes);
        if st.bits.len() < need {
            st.bits.resize(need, 0);
        }
        let w = st.window();
        let shared = SharedLi(st.li.as_mut_ptr());
        let shared_bits = SharedLi(st.bits.as_mut_ptr());
        let barrier = SpinBarrier::new(threads);
        std::thread::scope(|scope| {
            for worker in 1..threads {
                let barrier = &barrier;
                scope.spawn(move || {
                    let (shared, shared_bits) = (shared, shared_bits);
                    let mut buf = Vec::with_capacity(8);
                    for _ in 0..cycles {
                        barrier.wait(); // stimulus window closed
                        for i in 0..prog.num_layers() {
                            let (lo, hi) = chunk(prog.phase_a_len(i), worker, threads);
                            // SAFETY: phase-A instructions write disjoint
                            // rows; operand rows sealed by the previous
                            // barrier.
                            unsafe { prog.eval_phase_a(i, shared.0, w, shared_bits.0, lo, hi) };
                            barrier.wait();
                            let (lo, hi) = chunk(prog.phase_b_len(i), worker, threads);
                            // SAFETY: as above, per phase B's contract.
                            unsafe {
                                prog.eval_phase_b(i, shared.0, w, shared_bits.0, lo, hi, &mut buf)
                            };
                            barrier.wait();
                        }
                        // Worker 0 commits and applies stimulus next.
                    }
                });
            }
            let mut buf = Vec::with_capacity(8);
            for c in 0..cycles {
                {
                    let mut poker = LanePoker {
                        li: shared,
                        parts: st.parts,
                        span: st.span,
                        lanes: st.lanes,
                        input_slots: &st.input_slots,
                        input_types: &st.input_types,
                        dirty: &mut st.inputs_dirty,
                    };
                    stimulus(start_cycle + c, &mut poker);
                }
                barrier.wait(); // open the compute phase
                for i in 0..prog.num_layers() {
                    let (lo, hi) = chunk(prog.phase_a_len(i), 0, threads);
                    // SAFETY: as the worker side.
                    unsafe { prog.eval_phase_a(i, shared.0, w, shared_bits.0, lo, hi) };
                    barrier.wait();
                    let (lo, hi) = chunk(prog.phase_b_len(i), 0, threads);
                    // SAFETY: as the worker side.
                    unsafe { prog.eval_phase_b(i, shared.0, w, shared_bits.0, lo, hi, &mut buf) };
                    barrier.wait();
                }
                // Single-threaded window: every worker is parked at the
                // next cycle's opening barrier.
                commit_shared(shared, st.span, w, &st.commits, &mut st.commit_buf, &st.rum);
            }
        });
        st.inputs_dirty = false;
        st.cycle += cycles;
    }
}

/// The contiguous op range worker `w` of `t` owns in a layer of `n` ops.
#[inline]
fn chunk(n: usize, w: usize, t: usize) -> (usize, usize) {
    (n * w / t, n * (w + 1) / t)
}

/// Lane-wise commit over the active window through the shared pointer
/// (worker 0's single-threaded window): per replica, staged sources,
/// direct copies, staged writes, then the RUM reconciliation — same
/// order and safety argument as `BatchLiState::commit_lanes`.
fn commit_shared(
    li: SharedLi,
    span: usize,
    w: LaneWindow,
    commits: &[PartCommits],
    buf: &mut [u64],
    rum: &[RumRow],
) {
    let (lanes, n) = (w.stride, w.active);
    for (p, (direct, staged)) in commits.iter().enumerate() {
        let base = p * span;
        for (k, &(_, src)) in staged.iter().enumerate() {
            for lane in 0..n {
                // SAFETY: single-threaded window; rows are in bounds.
                buf[k * lanes + lane] = unsafe { *li.0.add(base + src as usize * lanes + lane) };
            }
        }
        for &(dst, src) in direct {
            for lane in 0..n {
                // SAFETY: as above; dst is outside the commit source set.
                unsafe {
                    *li.0.add(base + dst as usize * lanes + lane) =
                        *li.0.add(base + src as usize * lanes + lane);
                }
            }
        }
        for (k, &(dst, _)) in staged.iter().enumerate() {
            for lane in 0..n {
                // SAFETY: as above.
                unsafe { *li.0.add(base + dst as usize * lanes + lane) = buf[k * lanes + lane] };
            }
        }
    }
    for (slot, owner, readers) in rum {
        let row = *slot as usize * lanes;
        let s0 = *owner as usize * span + row;
        for &q in readers {
            let d0 = q as usize * span + row;
            for lane in 0..n {
                // SAFETY: single-threaded window; replica rows are in
                // bounds and owner != reader.
                unsafe { *li.0.add(d0 + lane) = *li.0.add(s0 + lane) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KernelConfig, KernelKind, ALL_KERNELS};
    use rand::{Rng, SeedableRng};
    use rteaal_dfg::plan::{plan, PlanSim};
    use rteaal_dfg::BatchPlanSim;
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

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

    /// A design wide enough that every worker gets real work per layer.
    fn wide_design() -> String {
        let mut src = String::from(
            "\
circuit Wide :
  module Wide :
    input clock : Clock
    input x : UInt<32>
    output out : UInt<32>
",
        );
        for i in 0..120 {
            src.push_str(&format!("    reg r{i} : UInt<32>, clock\n"));
        }
        src.push_str("    r0 <= tail(add(r119, x), 1)\n");
        for i in 1..120 {
            let op = ["xor", "and", "or", "add"][i % 4];
            if op == "add" {
                src.push_str(&format!("    r{i} <= tail(add(r{}, x), 1)\n", i - 1));
            } else {
                src.push_str(&format!("    r{i} <= {op}(r{}, x)\n", i - 1));
            }
        }
        src.push_str("    out <= r119\n");
        src
    }

    #[test]
    fn every_kind_and_engine_matches_the_interpreted_golden_model() {
        let p = plan_of(DESIGN);
        const LANES: usize = 5;
        for kind in ALL_KERNELS {
            for engine in [BatchEngine::Compiled, BatchEngine::Interpreted] {
                let kernel = BatchKernel::compile_with_engine(&p, KernelConfig::new(kind), engine);
                assert_eq!(kernel.engine(), engine);
                let mut st = BatchLiState::new(&p, LANES);
                let mut golden = BatchPlanSim::interpreted(&p, LANES);
                let mut rng = rand::rngs::StdRng::seed_from_u64(kind as u64 + 31);
                for cycle in 0..100 {
                    for lane in 0..LANES {
                        let x: u64 = rng.gen();
                        let sel: u64 = rng.gen();
                        st.set_input(0, lane, x);
                        st.set_input(1, lane, sel);
                        golden.set_input(0, lane, x);
                        golden.set_input(1, lane, sel);
                    }
                    kernel.step(&mut st);
                    golden.step();
                    for lane in 0..LANES {
                        for idx in 0..2 {
                            assert_eq!(
                                st.output(idx, lane),
                                golden.output(idx, lane),
                                "{kind:?}/{engine:?} lane {lane} output {idx} @ {cycle}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn profiled_step_is_bit_exact_and_attributes_work_per_layer() {
        let p = plan_of(DESIGN);
        const LANES: usize = 4;
        let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
        let mut plain = BatchLiState::new(&p, LANES);
        let mut probed = BatchLiState::new(&p, LANES);
        let machine = rteaal_perfmodel::Machine::intel_core();
        let mut mem = machine.mem_sim();
        let mut profile = ExecProfile::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let mut samples = Vec::new();
        for cycle in 0..25u64 {
            for lane in 0..LANES {
                let (x, sel) = (rng.gen(), rng.gen());
                plain.set_input(0, lane, x);
                plain.set_input(1, lane, sel);
                probed.set_input(0, lane, x);
                probed.set_input(1, lane, sel);
            }
            kernel.step(&mut plain);
            samples = kernel.step_profiled(&mut probed, &mut mem, &mut profile);
            for lane in 0..LANES {
                for idx in 0..2 {
                    assert_eq!(
                        probed.output(idx, lane),
                        plain.output(idx, lane),
                        "profiled walk diverged at lane {lane} output {idx} @ {cycle}"
                    );
                }
            }
        }
        // Every non-empty layer attributes nonzero work, and the per-op
        // coordinate stream plus per-lane body both show up: at least
        // one instruction per lane per op, plus the coordinate loads.
        assert_eq!(samples.len(), kernel.num_layers);
        for s in &samples {
            assert!(s.ops > 0, "layer {} has ops", s.layer);
            assert!(
                s.instructions > (s.ops * LANES) as u64,
                "layer {} underattributed: {s:?}",
                s.layer
            );
            assert!(s.loads > 0 && s.stores > 0, "layer {}: {s:?}", s.layer);
        }
        let per_cycle: u64 = samples.iter().map(|s| s.instructions).sum();
        assert!(
            profile.instructions >= per_cycle * 25,
            "profile accumulated"
        );
        assert!(profile.branches > 0);
        assert!(profile.branch_entropy > 0.0);
        assert!(profile.mem.l1d.accesses > 0, "the cache model was fed");
        // The accumulated profile must drive the top-down model to a
        // meaningful (nonzero, normalized) bottleneck breakdown.
        let td = rteaal_perfmodel::analyze(&profile, &machine);
        assert!(td.cycles > 0.0 && td.ipc > 0.0);
        let total = td.frontend_bound + td.bad_speculation + td.backend_bound + td.retiring;
        assert!((total - 1.0).abs() < 1e-6, "top-down normalizes: {td:?}");
        assert!(td.retiring > 0.0 && td.backend_bound >= 0.0);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let p = plan_of(&wide_design());
        const LANES: usize = 8;
        const CYCLES: u64 = 50;
        let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
        let drive = |poker: &mut LanePoker<'_>, cycle: u64| {
            for lane in 0..LANES {
                poker.set_input(0, lane, cycle.wrapping_mul(0x9e37) ^ lane as u64);
            }
        };
        let mut seq = BatchLiState::new(&p, LANES);
        kernel.run_with_stimulus(&mut seq, CYCLES, 1, |c, poker| drive(poker, c));
        for threads in [2, 3, 4, 8] {
            let mut par = BatchLiState::new(&p, LANES);
            kernel.run_with_stimulus(&mut par, CYCLES, threads, |c, poker| drive(poker, c));
            assert_eq!(par.cycle(), seq.cycle());
            for lane in 0..LANES {
                for s in 0..p.num_slots as u32 {
                    assert_eq!(
                        par.slot(s, lane),
                        seq.slot(s, lane),
                        "threads={threads} slot {s} lane {lane}"
                    );
                }
            }
        }
    }

    /// Strips interior-node probes, keeping inputs and registers — the
    /// FIRRTL test designs name every interior wire (which probes it),
    /// while real lowered designs are mostly anonymous subexpressions;
    /// this gives the specializer the interior it exists to attack.
    fn anonymized(mut p: SimPlan) -> SimPlan {
        let keep: std::collections::HashSet<u32> = p
            .input_slots
            .iter()
            .copied()
            .chain(p.commits.iter().map(|&(d, _)| d))
            .collect();
        p.probes.retain(|&(_, s, _)| keep.contains(&s));
        p
    }

    #[test]
    fn specialized_kernel_matches_golden_with_freeze_recycle_and_pokes() {
        let p = anonymized(plan_of(DESIGN));
        let sp = rteaal_dfg::specialize(&p);
        assert!(sp.stats.ops_after <= sp.stats.ops_before);
        const LANES: usize = 6;
        let golden_kernel = BatchKernel::compile_with_engine(
            &p,
            KernelConfig::new(KernelKind::Psu),
            BatchEngine::Interpreted,
        );
        for pack in [false, true] {
            let kernel =
                BatchKernel::compile_specialized(&sp, KernelConfig::new(KernelKind::Psu), pack);
            assert!(kernel.specialized().is_some());
            // The specialized state materializes folded constants via the
            // transformed plan's init image; observables share numbering.
            let mut st = BatchLiState::new(&sp.plan, LANES);
            let mut gold = BatchLiState::new(&p, LANES);
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE + pack as u64);
            for cycle in 0..160u64 {
                // Drive inputs only every third cycle: held-input cycles
                // exercise the input-cone skip against a walk that never
                // skips.
                if cycle % 3 == 0 {
                    for lane in 0..LANES {
                        let (x, sel) = (rng.gen(), rng.gen());
                        st.set_input(0, lane, x);
                        st.set_input(1, lane, sel);
                        gold.set_input(0, lane, x);
                        gold.set_input(1, lane, sel);
                    }
                }
                match cycle {
                    40 => {
                        st.set_live(3);
                        gold.set_live(3);
                    }
                    80 => {
                        // Recycle a frozen column back into the window.
                        st.swap_lanes(1, 4);
                        gold.swap_lanes(1, 4);
                        st.reset_lane(1);
                        gold.reset_lane(1);
                        st.set_live(5);
                        gold.set_live(5);
                    }
                    120 => {
                        // A DMI poke into a probed register slot.
                        let reg = p.commits[0].0;
                        st.poke_slot(reg, 0, 0x5a5a);
                        gold.poke_slot(reg, 0, 0x5a5a);
                    }
                    _ => {}
                }
                kernel.step(&mut st);
                golden_kernel.step(&mut gold);
                for lane in 0..LANES {
                    for s in 0..p.num_slots as u32 {
                        if p.probes.iter().any(|&(_, ps, _)| ps == s)
                            || p.output_slots.iter().any(|&(_, os)| os == s)
                        {
                            assert_eq!(
                                st.slot(s, lane),
                                gold.slot(s, lane),
                                "pack={pack} slot {s} lane {lane} @ {cycle}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn specialized_parallel_run_is_bit_identical_to_serial() {
        let p = anonymized(plan_of(&wide_design()));
        let sp = rteaal_dfg::specialize(&p);
        const LANES: usize = 8;
        const CYCLES: u64 = 50;
        let kernel =
            BatchKernel::compile_specialized(&sp, KernelConfig::new(KernelKind::Psu), true);
        let golden_kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
        let drive = |poker: &mut LanePoker<'_>, cycle: u64| {
            for lane in 0..LANES {
                poker.set_input(0, lane, cycle.wrapping_mul(0x9e37) ^ lane as u64);
            }
        };
        let mut gold = BatchLiState::new(&p, LANES);
        golden_kernel.run_with_stimulus(&mut gold, CYCLES, 1, |c, poker| drive(poker, c));
        let mut seq = BatchLiState::new(&sp.plan, LANES);
        kernel.run_with_stimulus(&mut seq, CYCLES, 1, |c, poker| drive(poker, c));
        let observable = |s: u32| {
            p.probes.iter().any(|&(_, ps, _)| ps == s)
                || p.output_slots.iter().any(|&(_, os)| os == s)
        };
        for lane in 0..LANES {
            for s in (0..p.num_slots as u32).filter(|&s| observable(s)) {
                assert_eq!(
                    seq.slot(s, lane),
                    gold.slot(s, lane),
                    "serial spec vs golden"
                );
            }
        }
        for threads in [2, 3, 4] {
            let mut par = BatchLiState::new(&sp.plan, LANES);
            kernel.run_with_stimulus(&mut par, CYCLES, threads, |c, poker| drive(poker, c));
            assert_eq!(par.cycle(), seq.cycle());
            for lane in 0..LANES {
                for s in 0..sp.plan.num_slots as u32 {
                    assert_eq!(
                        par.slot(s, lane),
                        seq.slot(s, lane),
                        "threads={threads} slot {s} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_lanes_match_independent_single_lane_runs() {
        let p = plan_of(DESIGN);
        const LANES: usize = 6;
        const CYCLES: u64 = 80;
        let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Ti));
        let stim = |lane: usize, cycle: u64| {
            (
                cycle.wrapping_mul(31) ^ (lane as u64).wrapping_mul(0x517c_c1b7_2722_0a95),
                (cycle ^ lane as u64) & 1,
            )
        };
        let mut batch = BatchLiState::new(&p, LANES);
        kernel.run_with_stimulus(&mut batch, CYCLES, 3, |c, poker| {
            for lane in 0..LANES {
                let (x, sel) = stim(lane, c);
                poker.set_input(0, lane, x);
                poker.set_input(1, lane, sel);
            }
        });
        for lane in 0..LANES {
            let mut single = PlanSim::new(&p);
            for c in 0..CYCLES {
                let (x, sel) = stim(lane, c);
                single.set_input(0, x);
                single.set_input(1, sel);
                single.step();
            }
            for idx in 0..2 {
                assert_eq!(batch.output(idx, lane), single.output(idx), "lane {lane}");
            }
        }
    }

    #[test]
    fn state_reset_and_pokes() {
        let p = plan_of(DESIGN);
        let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Nu));
        let mut st = BatchLiState::new(&p, 3);
        assert_eq!(st.lanes(), 3);
        assert_eq!(st.num_inputs(), 2);
        st.set_input_all(0, 7);
        kernel.run(&mut st, 4);
        assert_eq!(st.cycle(), 4);
        assert!(st.output_by_name("out", 1).is_some());
        assert!(st.output_by_name("ghost", 0).is_none());
        st.reset();
        assert_eq!(st.cycle(), 0);
        st.poke_slot(0, 2, 42);
        assert_eq!(st.slot(0, 2), 42);
        assert_eq!(st.slot(0, 0), 0);
    }

    #[test]
    fn frozen_lanes_keep_their_state() {
        let p = plan_of(DESIGN);
        let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
        let mut st = BatchLiState::new(&p, 4);
        st.set_input_all(0, 9);
        st.set_input_all(1, 1);
        kernel.run(&mut st, 3);
        let frozen: Vec<u64> = (0..p.num_slots as u32).map(|s| st.slot(s, 3)).collect();
        // Freeze lane 3, keep stepping the first three.
        st.set_live(3);
        assert_eq!(st.live(), 3);
        kernel.run(&mut st, 5);
        for (s, &v) in frozen.iter().enumerate() {
            assert_eq!(st.slot(s as u32, 3), v, "frozen lane mutated at slot {s}");
        }
        // Live lanes moved on (the accumulating register changed).
        assert_ne!(st.slot(p.commits[0].0, 0), frozen[p.commits[0].0 as usize]);
        // swap_lanes moves the frozen column; reset revives everything.
        st.swap_lanes(0, 3);
        assert_eq!(st.slot(p.commits[0].0, 0), frozen[p.commits[0].0 as usize]);
        st.reset();
        assert_eq!(st.live(), 4);
    }

    #[test]
    fn reset_lane_is_per_column_power_on() {
        let p = plan_of(DESIGN);
        let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
        const LANES: usize = 4;
        let mut st = BatchLiState::new(&p, LANES);
        for lane in 0..LANES {
            st.set_input(0, lane, 0x1111 * (lane as u64 + 1));
            st.set_input(1, lane, 1);
        }
        kernel.run(&mut st, 6);
        let before: Vec<Vec<u64>> = (0..LANES)
            .map(|lane| (0..p.num_slots as u32).map(|s| st.slot(s, lane)).collect())
            .collect();
        st.reset_lane(1);
        let fresh = BatchLiState::new(&p, LANES);
        for s in 0..p.num_slots as u32 {
            assert_eq!(st.slot(s, 1), fresh.slot(s, 1), "slot {s} not power-on");
            for lane in [0usize, 2, 3] {
                assert_eq!(st.slot(s, lane), before[lane][s as usize], "lane {lane}");
            }
        }
        // Cycle counter and live window are untouched.
        assert_eq!(st.cycle(), 6);
        assert_eq!(st.live(), LANES);
        // The revived column replays a fresh run bit-for-bit.
        let mut replay = BatchLiState::new(&p, 1);
        for c in 0..10u64 {
            st.set_input(0, 1, c * 7 + 3);
            st.set_input(1, 1, c & 1);
            replay.set_input(0, 0, c * 7 + 3);
            replay.set_input(1, 0, c & 1);
            kernel.step(&mut st);
            kernel.step(&mut replay);
            for s in 0..p.num_slots as u32 {
                assert_eq!(st.slot(s, 1), replay.slot(s, 0), "slot {s} @ cycle {c}");
            }
        }
    }

    #[test]
    fn swizzled_kinds_group_by_opcode() {
        let p = plan_of(DESIGN);
        let swz = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
        assert_eq!(swz.partitions(), 1);
        for layer in &swz.layers[0] {
            for pair in layer.windows(2) {
                assert!(pair[0].n <= pair[1].n, "layer not grouped by opcode");
            }
        }
        assert_eq!(swz.ops_per_cycle(), p.total_ops());
        assert_eq!(swz.config().kind, KernelKind::Psu);
    }

    #[test]
    fn partitioned_step_matches_unpartitioned_every_slot() {
        for src in [DESIGN.to_string(), wide_design()] {
            let p = plan_of(&src);
            const LANES: usize = 5;
            let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
            for parts in [1usize, 2, 3, 4, 8] {
                let pp = PartitionedPlan::new(&p, parts);
                let pkernel =
                    BatchKernel::compile_partitioned(&pp, KernelConfig::new(KernelKind::Psu));
                assert_eq!(pkernel.partitions(), parts);
                let mut flat = BatchLiState::new(&p, LANES);
                let mut part = BatchLiState::new_partitioned(&p, LANES, &pp);
                assert_eq!(part.partitions(), parts);
                for cycle in 0..60u64 {
                    for lane in 0..LANES {
                        let x = cycle.wrapping_mul(0x9e37_79b9) ^ (lane as u64) << 17;
                        for idx in 0..p.input_slots.len() {
                            flat.set_input(idx, lane, x.rotate_left(idx as u32));
                            part.set_input(idx, lane, x.rotate_left(idx as u32));
                        }
                    }
                    kernel.step(&mut flat);
                    pkernel.step(&mut part);
                    for lane in 0..LANES {
                        for s in 0..p.num_slots as u32 {
                            assert_eq!(
                                part.slot(s, lane),
                                flat.slot(s, lane),
                                "parts={parts} slot {s} lane {lane} cycle {cycle}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partitioned_parallel_run_matches_partitioned_sequential() {
        let p = plan_of(&wide_design());
        const LANES: usize = 8;
        const CYCLES: u64 = 40;
        let pp = PartitionedPlan::new(&p, 4);
        let kernel = BatchKernel::compile_partitioned(&pp, KernelConfig::new(KernelKind::Psu));
        let drive = |poker: &mut LanePoker<'_>, cycle: u64| {
            for lane in 0..LANES {
                poker.set_input(0, lane, cycle.wrapping_mul(0x5bd1) ^ lane as u64);
            }
        };
        let mut seq = BatchLiState::new_partitioned(&p, LANES, &pp);
        kernel.run_with_stimulus(&mut seq, CYCLES, 1, |c, poker| drive(poker, c));
        for threads in [2, 3, 4, 8] {
            let mut par = BatchLiState::new_partitioned(&p, LANES, &pp);
            kernel.run_with_stimulus(&mut par, CYCLES, threads, |c, poker| drive(poker, c));
            assert_eq!(par.cycle(), seq.cycle());
            for lane in 0..LANES {
                for s in 0..p.num_slots as u32 {
                    assert_eq!(
                        par.slot(s, lane),
                        seq.slot(s, lane),
                        "threads={threads} slot {s} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn partitioned_lane_window_freeze_and_recycle_matches_flat() {
        let p = plan_of(DESIGN);
        const LANES: usize = 4;
        let pp = PartitionedPlan::new(&p, 2);
        let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
        let pkernel = BatchKernel::compile_partitioned(&pp, KernelConfig::new(KernelKind::Psu));
        let mut flat = BatchLiState::new(&p, LANES);
        let mut part = BatchLiState::new_partitioned(&p, LANES, &pp);
        let drive = |st: &mut BatchLiState, c: u64| {
            for lane in 0..st.lanes() {
                st.set_input(0, lane, c.wrapping_mul(31) ^ lane as u64);
                st.set_input(1, lane, (c ^ lane as u64) & 1);
            }
        };
        for c in 0..10 {
            drive(&mut flat, c);
            drive(&mut part, c);
            kernel.step(&mut flat);
            pkernel.step(&mut part);
        }
        // Freeze the tail lane, keep stepping the partial window.
        flat.set_live(3);
        part.set_live(3);
        for c in 10..20 {
            flat.set_input_live(0, c * 7);
            part.set_input_live(0, c * 7);
            kernel.step(&mut flat);
            pkernel.step(&mut part);
        }
        // Recycle lane 1 (swap + per-column power-on), then run on.
        flat.swap_lanes(1, 2);
        part.swap_lanes(1, 2);
        flat.reset_lane(1);
        part.reset_lane(1);
        for c in 20..30 {
            drive(&mut flat, c);
            drive(&mut part, c);
            kernel.step(&mut flat);
            pkernel.step(&mut part);
        }
        for lane in 0..LANES {
            for s in 0..p.num_slots as u32 {
                assert_eq!(
                    part.slot(s, lane),
                    flat.slot(s, lane),
                    "slot {s} lane {lane}"
                );
            }
        }
    }
}
