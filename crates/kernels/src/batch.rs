//! The batched, layer-parallel execution engine.
//!
//! One compiled design, `B` independent stimulus lanes, `T` worker
//! threads. The `LI` slot array is widened to `B` lanes per slot in
//! slot-major layout (slot `s` occupies `li[s * B .. (s + 1) * B]`; a
//! lane is a `u32` or a `u64`, whichever `LaneType::of` the plan is), the
//! layer walk runs lane-wise over each operation, and the operations
//! *within* one layer are split across threads. The layer barrier that
//! levelization guarantees (operands always come from strictly earlier
//! layers, and each operation owns its output slot) is preserved by a
//! spin barrier between layers, which makes the parallel execution
//! bit-identical to the sequential one — the safety and determinism
//! argument is exactly the paper's §4.2 levelization invariant.
//!
//! One **cycle loop** runs every kernel: `stimulus → [settled? clock
//! only] → walk → commit`. Each partition's operations are stored once,
//! pre-lowered by `rteaal_dfg::lane_kernel` into autovectorizable lane
//! kernels, in walk order, and cut into *runs* — consecutive ops of one
//! layer that share a kernel. The one-thread walk (`threads = 1`: no
//! barrier, no thread scope) runs each partition's runs front to back,
//! one kernel call per run. The layer-barriered walks — worker threads,
//! and the per-layer attribution of [`BatchKernel::step_profiled`] —
//! follow a flat list of `Phase`s instead: barrier-delimited stretches of
//! independent instructions, one per layer over the flattened
//! `(partition, op)` range, each tile of it cut at the layer's runs. A
//! specialized kernel walks its own phases on one thread too, adding a
//! boundary move phase before the bodies of each layer that bit-packs
//! (see `rteaal_dfg::specialize`). Unpartitioned is the `P = 1` case. The
//! interpreted [`OpInst::eval_lanes`] dispatch is retained behind
//! [`BatchEngine::Interpreted`] as the differential-testing golden
//! model. Every walk evaluates only the *active* lane window of
//! [`BatchLiState`], which lane-liveness early exit (driven by
//! `rteaal-core`) shrinks as lanes finish their workloads.
//!
//! The commit is change-tracked: once a batch reaches a register fixed
//! point, cycles only advance the clock until something external touches
//! the state — for every engine, thread count and partition count.
//!
//! Worker threads are spawned once per [`BatchKernel::run_parallel`] /
//! [`BatchKernel::run_with_stimulus`] call and live for the whole span of
//! cycles, so the per-cycle cost is the barriers, not thread creation.
//!
//! Walk order is layer-major, the swizzle of the paper's Algorithm 4:
//! layer after layer, each layer's ops stably sorted by the kernel that
//! runs them ([`LaneLayout::kernel_key`]: the opcode after the narrow
//! `logical` remap, and the signedness), so that each `(layer, kernel)`
//! group is one run and one indirect call, its ops in plan order. A
//! levelized layer reads only earlier layers, so the order is topological
//! for every plan — in plan order (the numbering
//! `rteaal_core::BatchSimulation` runs) or
//! [renamed](rteaal_dfg::SimPlan::renamed) any other way — and no plan
//! needs another. Every kernel kind walks the same way.

use crate::config::{KernelConfig, KernelKind};
use crate::parallel::{chunk, schedule, Segment, SpinBarrier};
use crate::profile::{oim_addr, MemProbe, OimArray, Probe, CODE_BASE, HANDLER_BYTES, LI_BASE};
use crate::rolled::exec_cost;
use rteaal_dfg::batch::init_lanes;
use rteaal_dfg::lane_kernel::{
    compile_runs, BatchEngine, KernelArgs, KernelRun, Lane, LaneLayout, LaneType, LaneWindow,
};
use rteaal_dfg::op::canonicalize;
use rteaal_dfg::partition::{PartitionedPlan, RumEntry};
use rteaal_dfg::plan::split_commits;
use rteaal_dfg::specialize::{SpecProgram, SpecializedPlan};
use rteaal_dfg::{OpInst, SimPlan};
use rteaal_perfmodel::cache::MemSim;
use rteaal_perfmodel::ExecProfile;
use std::ops::Range;
use std::slice::{from_raw_parts, from_raw_parts_mut};
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-partition register commits, split alias-free/staged (see
/// [`split_commits`]).
type PartCommits = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// The lane matrix and its two same-shaped companions, in rows of one
/// lane type.
#[derive(Debug, Clone)]
struct Matrix<T: Lane> {
    li: LineAligned<T>,
    /// The power-on image of `li`.
    init: Vec<T>,
    /// Staging rows of the widest partition's overlapping commits.
    commit_buf: Vec<T>,
}

impl<T: Lane> Matrix<T> {
    fn new(plan: &SimPlan, lanes: usize, parts: usize, staged: usize) -> Self {
        let mut init = init_lanes::<T>(plan, lanes);
        let span = init.len();
        for _ in 1..parts {
            init.extend_from_within(..span);
        }
        Matrix {
            li: LineAligned::from_slice(&init),
            init,
            commit_buf: vec![T::default(); staged * lanes],
        }
    }
}

/// The lane matrix's storage: a slice that starts on a 64-byte boundary,
/// so a row of the walk — 64 lanes, whole cache lines — is never split
/// across two lines by a vector load. Where the allocator left a `Vec`'s
/// rows 16 or 48 bytes past a line, the lane walk ran ≈ 25 % slower (RV32I
/// 14.4 M against 18.0 M lane-cycles/s, the chip 160 k against 192 k), and
/// which of the two a process got followed from everything it had
/// allocated before.
#[derive(Debug)]
struct LineAligned<T> {
    buf: Vec<T>,
    /// Where the slice starts in `buf`.
    start: usize,
}

impl<T: Lane> LineAligned<T> {
    fn from_slice(items: &[T]) -> Self {
        let pad = 64 / std::mem::size_of::<T>();
        let mut buf: Vec<T> = Vec::with_capacity(items.len() + pad);
        // Within the capacity: `buf` never moves after this.
        let start = buf.as_ptr().align_offset(64).min(pad);
        buf.resize(start, T::default());
        buf.extend_from_slice(items);
        LineAligned { buf, start }
    }
}

impl<T: Lane> Clone for LineAligned<T> {
    fn clone(&self) -> Self {
        LineAligned::from_slice(self)
    }
}

impl<T> std::ops::Deref for LineAligned<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.start..]
    }
}

impl<T> std::ops::DerefMut for LineAligned<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.start..]
    }
}

/// A state's rows, in the lane type of its plan.
#[derive(Debug, Clone)]
enum Rows {
    Narrow(Matrix<u32>),
    Wide(Matrix<u64>),
}

/// The one typed row accessor: evaluates `$body` with `$m` bound to the
/// state's [`Matrix`] in its own element type. Everything that touches a
/// row — reads, pokes, lane swaps, resets, the commit, the walk's
/// pointer — goes through here, so nothing reinterprets a row.
macro_rules! rows {
    ($rows:expr, $m:ident => $body:expr) => {
        match $rows {
            Rows::Narrow($m) => $body,
            Rows::Wide($m) => $body,
        }
    };
}

/// The mutable batched simulation state: `B` lanes per `LI` slot, of
/// which the `live` prefix is evaluated (lane-liveness early exit swaps
/// finished lanes past the prefix and shrinks it).
///
/// Rows are held in the plan's lane type ([`LaneType::of`]): `u32` for a
/// design whose every signal fits 32 bits, `u64` otherwise. The public
/// methods speak canonical `u64` values either way — a read widens the
/// stored element by its slot's signedness, a write stores the low bits
/// of a canonical value.
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
    rows: Rows,
    /// Per slot, whether a narrow row widens by sign-extension (empty
    /// for `u64` rows, which hold canonical values as they are).
    signed: Vec<bool>,
    /// Partition replica count (1 = the classic unpartitioned layout).
    parts: usize,
    /// Size of one replica: `num_slots * lanes`.
    span: usize,
    lanes: usize,
    live: usize,
    input_slots: Vec<u32>,
    input_types: Vec<(u8, bool)>,
    output_slots: Vec<(String, u32)>,
    /// Per-partition register commits (one entry when unpartitioned).
    commits: Vec<PartCommits>,
    /// Register update map rows; empty when unpartitioned.
    rum: Vec<RumEntry>,
    /// `slot -> home replica` (all zeros when unpartitioned).
    home: Vec<u32>,
    cycle: u64,
    /// Sidecar bit-plane matrix for a specialized kernel's packed rows
    /// (`SpecProgram::bits_len` words, sized by each walk). Scratch:
    /// every row is rewritten in the cycle that reads it.
    bits: Vec<u64>,
    /// The activity gate: the last commit changed no live-lane value and
    /// nothing has touched the state since (no input, poke, reset, window
    /// change, or lane permutation — every such site clears it eagerly),
    /// so `LI` is its own image under walk + commit and cycles are
    /// clock-only.
    settled: bool,
    /// Operand staging, for `BatchEngine::Interpreted` only (no compiled
    /// kernel stages): kept here so a step never allocates.
    scratch: Vec<u64>,
}

impl BatchLiState {
    /// Initializes `lanes` lanes from a plan, every lane at the power-on
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(plan: &SimPlan, lanes: usize) -> Self {
        Self::new_in(plan, lanes, &LaneLayout::of(plan))
    }

    /// [`new`](Self::new) with rows of a given layout of `plan`
    /// (`LaneLayout::of_as`: how tests reach both lane types).
    #[doc(hidden)]
    pub fn new_in(plan: &SimPlan, lanes: usize, layout: &LaneLayout) -> Self {
        let commits = vec![split_commits(&plan.commits)];
        let home = vec![0; plan.num_slots];
        Self::with_layout(plan, lanes, commits, Vec::new(), home, layout)
    }

    /// Initializes a partition-replicated state: one `LI` replica per
    /// partition of `pp`, every lane at the power-on state, in rows of
    /// `pp.lanes`. Pair with a kernel from
    /// [`BatchKernel::compile_partitioned`] over the same decomposition.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new_partitioned(plan: &SimPlan, lanes: usize, pp: &PartitionedPlan) -> Self {
        let commits = pp
            .partitions
            .iter()
            .map(|s| split_commits(&s.commits))
            .collect();
        let (rum, home) = (pp.rum.clone(), pp.home.clone());
        Self::with_layout(plan, lanes, commits, rum, home, &pp.lanes)
    }

    /// The one state constructor: a replica per entry of `commits`
    /// (unpartitioned is the one-replica case: no RUM, every slot home
    /// in replica 0).
    fn with_layout(
        plan: &SimPlan,
        lanes: usize,
        commits: Vec<PartCommits>,
        rum: Vec<RumEntry>,
        home: Vec<u32>,
        layout: &LaneLayout,
    ) -> Self {
        assert!(lanes > 0, "batch needs at least one lane");
        assert_eq!(
            layout.slot_types().len(),
            plan.num_slots,
            "lane layout is of another plan"
        );
        let parts = commits.len();
        let staged = commits.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        let (rows, signed) = match layout.lane_type() {
            LaneType::Narrow => (
                Rows::Narrow(Matrix::new(plan, lanes, parts, staged)),
                layout.signed_slots(),
            ),
            LaneType::Wide => (
                Rows::Wide(Matrix::new(plan, lanes, parts, staged)),
                Vec::new(),
            ),
        };
        BatchLiState {
            rows,
            signed,
            parts,
            span: plan.num_slots * lanes,
            lanes,
            live: lanes,
            input_slots: plan.input_slots.clone(),
            input_types: plan.input_types.clone(),
            output_slots: plan.output_slots.clone(),
            commits,
            rum,
            home,
            cycle: 0,
            bits: Vec::new(),
            settled: false,
            scratch: Vec::with_capacity(8),
        }
    }

    /// Number of stimulus lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane type the rows are held in.
    pub fn lane_type(&self) -> LaneType {
        match self.rows {
            Rows::Narrow(_) => LaneType::Narrow,
            Rows::Wide(_) => LaneType::Wide,
        }
    }

    /// Number of partition replicas (1 = unpartitioned).
    pub fn partitions(&self) -> usize {
        self.parts
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
        self.settled = false;
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
        rows!(&mut self.rows, m => {
            for s0 in (0..m.li.len()).step_by(lanes) {
                m.li.swap(s0 + a, s0 + b);
            }
        });
        self.settled = false;
    }

    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        self.input_slots.len()
    }

    /// Resets every lane to the power-on state and revives all lanes.
    pub fn reset(&mut self) {
        rows!(&mut self.rows, m => m.li.copy_from_slice(&m.init));
        self.live = self.lanes;
        self.cycle = 0;
        self.settled = false;
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
        let lanes = self.lanes;
        rows!(&mut self.rows, m => {
            for s0 in (phys..m.li.len()).step_by(lanes) {
                m.li[s0] = m.init[s0];
            }
        });
        self.settled = false;
    }

    /// Drives input port `idx` on one lane (canonicalized to the port
    /// type, written into every partition replica).
    pub fn set_input(&mut self, idx: usize, lane: usize, value: u64) {
        self.write_input(idx, lane, lane + 1, value);
    }

    /// Drives input port `idx` identically on every lane: canonicalizes
    /// once and fills the lane row (of every replica).
    pub fn set_input_all(&mut self, idx: usize, value: u64) {
        self.write_input(idx, 0, self.lanes, value);
    }

    /// Drives input port `idx` identically on every *live* lane; frozen
    /// lanes keep the input they halted with.
    pub fn set_input_live(&mut self, idx: usize, value: u64) {
        self.write_input(idx, 0, self.live, value);
    }

    fn write_input(&mut self, idx: usize, lo: usize, hi: usize, value: u64) {
        let (w, signed) = self.input_types[idx];
        self.write(
            self.input_slots[idx],
            lo,
            hi,
            canonicalize(value, w as u32, signed),
        );
    }

    /// The one external write: the canonical value `v` into lanes
    /// `[lo, hi)` of slot `s` in every replica, disarming the activity
    /// gate. Through the raw pointer rather than a slice borrow: inside a
    /// stimulus callback, parked workers hold pointers into this buffer,
    /// so no reference to it is materialized.
    fn write(&mut self, s: u32, lo: usize, hi: usize, v: u64) {
        assert!(
            lo <= hi && hi <= self.lanes,
            "lanes {lo}..{hi} out of range"
        );
        let row = s as usize * self.lanes;
        assert!(row < self.span, "slot {s} out of range");
        let (parts, span) = (self.parts, self.span);
        let signed = self.signed.get(s as usize).copied().unwrap_or(false);
        rows!(&mut self.rows, m => {
            let (li, e) = (m.li.as_mut_ptr(), Lane::truncate(v));
            debug_assert_eq!(
                Lane::widen(e, signed),
                v,
                "{v:#x} is not a canonical value of slot {s}: a narrow row would truncate it"
            );
            for p in 0..parts {
                for lane in lo..hi {
                    // SAFETY: row and lane were just bounds-checked
                    // against one replica, and `p` counts the replicas;
                    // nothing else runs — `&mut self`, and a stimulus
                    // callback sits in the cycle loop's single-threaded
                    // window.
                    unsafe { *li.add(p * span + row + lane) = e };
                }
            }
        });
        self.settled = false;
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
    /// through the slot's home replica: the canonical value, whatever
    /// the rows are held in.
    pub fn slot(&self, s: u32, lane: usize) -> u64 {
        assert!(lane < self.lanes, "lane {lane} out of range");
        assert!((s as usize) < self.home.len(), "slot {s} out of range");
        let home = self.home[s as usize] as usize;
        let at = home * self.span + s as usize * self.lanes + lane;
        let signed = self.signed.get(s as usize).copied().unwrap_or(false);
        rows!(&self.rows, m => m.li[at].widen(signed))
    }

    /// Writes a slot on one lane (DMI poke) — into every replica, so a
    /// partitioned run sees the poke wherever the slot is read. This
    /// door does not canonicalize: `value` must already be canonical for
    /// the signal, which the `rteaal-core` front doors ensure — a narrow
    /// row keeps only its low 32 bits (debug builds assert that nothing
    /// else was there).
    pub fn poke_slot(&mut self, s: u32, lane: usize, value: u64) {
        self.write(s, lane, lane + 1, value);
    }

    /// Cycles completed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the settled-batch gate is armed: the last commit reached
    /// a register fixed point and nothing external has touched the state
    /// since, so further cycles only advance the clock.
    pub fn settled(&self) -> bool {
        self.settled
    }
}

/// The raw `LI` matrix, in its rows' lane type.
#[derive(Clone, Copy)]
enum RowsPtr {
    Narrow(*mut u32),
    Wide(*mut u64),
}

/// What the workers of one walk share: the raw `LI` and bit-plane
/// matrices, the replica stride (in lanes), and the lane window.
#[derive(Clone, Copy)]
struct Walk {
    li: RowsPtr,
    bits: *mut u64,
    span: usize,
    w: LaneWindow,
}

// SAFETY: workers only touch disjoint rows between barriers (see
// `BatchKernel::eval_phase`); the pointers themselves are plain data.
unsafe impl Send for Walk {}

/// Ends a threaded run when dropped: publishes `done` and crosses the
/// opening barrier once, which lets the parked workers leave their loop.
struct EndOfRun<'a> {
    barrier: &'a SpinBarrier,
    done: &'a AtomicBool,
}

impl Drop for EndOfRun<'_> {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
        self.barrier.wait();
    }
}

/// Lane-wise register commit over the active window (the final
/// `LI_{i+1}` Einsum of Cascade 1): per replica, staged sources first,
/// direct alias-free copies, then the staged writes — each partition
/// committing only the registers it owns — followed by the RUM
/// reconciliation copying every committed row from its owner replica to
/// its reader replicas (the Cascade 2 `LI_{c+1} = LI_{c,I} · RUM`
/// Einsum). Frozen lanes keep their state.
///
/// Returns whether any commit (or reconciliation) changed a live-lane
/// value. `false` means the state is a register fixed point: with inputs
/// unchanged, the next walk + commit would reproduce `LI` exactly. The
/// compares are sound because staged sources are buffered before any
/// destination write and direct commits are alias-free by construction.
///
/// # Safety
///
/// `li` must cover every replica (`span` lanes apart) of the state the
/// commit lists and RUM belong to, `buf` must hold `w.stride` lanes per
/// staged commit of the widest partition, and no other thread may touch
/// `LI` during the call (the cycle loop's single-threaded window).
unsafe fn commit<T: Lane>(
    li: *mut T,
    span: usize,
    w: LaneWindow,
    commits: &[PartCommits],
    buf: &mut [T],
    rum: &[RumEntry],
) -> bool {
    let (lanes, n) = (w.stride, w.active);
    let mut changed = false;
    // One row over another. Once a change is seen the compare is moot, so
    // a busy design pays for (part of) one `memcmp` per cycle and a plain
    // `memcpy` per row.
    let mut copy_row = |dst: *mut T, src: *const T| {
        if std::ptr::eq(dst, src) {
            return;
        }
        // SAFETY: every caller below passes rows valid for `n` lanes, and
        // two different rows of the matrix (or a row and the staging
        // buffer) are disjoint.
        let (d, s) = unsafe { (from_raw_parts_mut(dst, n), from_raw_parts(src, n)) };
        changed = changed || d != s;
        d.copy_from_slice(s);
    };
    // SAFETY: every row offset below is `replica * span + slot * lanes`
    // with slot < num_slots, in bounds per the contract; a commit's
    // source and destination rows are distinct slots or the same one.
    unsafe {
        for (p, (direct, staged)) in commits.iter().enumerate() {
            let base = li.add(p * span);
            for (k, &(_, src)) in staged.iter().enumerate() {
                let stage = buf[k * lanes..k * lanes + n].as_mut_ptr();
                std::ptr::copy_nonoverlapping(base.add(src as usize * lanes), stage, n);
            }
            for &(dst, src) in direct {
                copy_row(
                    base.add(dst as usize * lanes),
                    base.add(src as usize * lanes),
                );
            }
            for (k, &(dst, _)) in staged.iter().enumerate() {
                let stage = buf[k * lanes..k * lanes + n].as_ptr();
                copy_row(base.add(dst as usize * lanes), stage);
            }
        }
        for e in rum {
            let row = e.slot as usize * lanes;
            let src = li.add(e.owner as usize * span + row);
            for &q in &e.readers {
                copy_row(li.add(q as usize * span + row), src);
            }
        }
    }
    changed
}

/// One barrier-delimited unit of a cycle's walk: a run of `len`
/// instructions that write disjoint rows and read only rows sealed by
/// earlier phases. A per-op kernel has one per layer, over the flattened
/// `(partition, op)` range; a specialized kernel's layer that bit-packs
/// has two — the wide/packed boundary `moves`, then the bodies.
#[derive(Debug, Clone, Copy)]
struct Phase {
    layer: usize,
    moves: bool,
    len: usize,
}

/// Per-lane input driver handed to the stimulus callback of
/// [`BatchKernel::run_with_stimulus`].
pub struct LanePoker<'a> {
    st: &'a mut BatchLiState,
}

impl LanePoker<'_> {
    /// Number of stimulus lanes.
    pub fn lanes(&self) -> usize {
        self.st.lanes
    }

    /// Drives input port `idx` on one lane (canonicalized to the port
    /// type, written into every partition replica).
    pub fn set_input(&mut self, idx: usize, lane: usize, value: u64) {
        self.st.set_input(idx, lane, value);
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

/// One partition's op program: its operations stored once, layer after
/// layer, in the order the walks run them; their kernel-compiled args;
/// and the runs of those args that share a kernel.
#[derive(Debug, Clone)]
struct Program {
    /// The operations in walk order: layer after layer, each layer's
    /// stably sorted by [`LaneLayout::kernel_key`] — topological for any
    /// levelized plan. The interpreted form, also what the profiled walk
    /// models.
    ops: Vec<OpInst>,
    /// `ops` kernel-compiled, in the same order (compiled per-op kernels
    /// only: a specialized kernel walks its `SpecProgram`, an interpreted
    /// one `ops`).
    args: Vec<KernelArgs>,
    /// The maximal stretches of `args` that share a kernel, in order;
    /// none crosses a layer.
    runs: Vec<KernelRun>,
    /// Where each layer starts in `ops` (`layers + 1` entries; the layers
    /// past this partition's last are empty).
    layer_at: Vec<usize>,
    /// Where each layer starts in `runs` (`layers + 1` entries).
    run_at: Vec<usize>,
}

impl Program {
    /// Copies a partition's layers (padded to `num_layers`) into walk
    /// order, compiling the ops into runs for the rows of `layout` when
    /// `compile`.
    fn new(layers: &[Vec<OpInst>], num_layers: usize, layout: &LaneLayout, compile: bool) -> Self {
        let mut ops: Vec<OpInst> = Vec::with_capacity(layers.iter().map(Vec::len).sum());
        let (mut args, mut runs) = (Vec::new(), Vec::new());
        let (mut layer_at, mut run_at) = (vec![0], vec![0]);
        for layer in layers {
            let at = ops.len();
            ops.extend_from_slice(layer);
            // Stable: within a kernel's run, plan order.
            ops[at..].sort_by_cached_key(|op| layout.kernel_key(op));
            if compile {
                compile_runs(&ops[at..], layout, &mut args, &mut runs);
            }
            layer_at.push(ops.len());
            run_at.push(runs.len());
        }
        layer_at.resize(num_layers + 1, ops.len());
        run_at.resize(num_layers + 1, runs.len());
        Program {
            ops,
            args,
            runs,
            layer_at,
            run_at,
        }
    }

    /// Positions in `ops` of layer `i`'s operations.
    fn layer(&self, i: usize) -> Range<usize> {
        self.layer_at[i]..self.layer_at[i + 1]
    }

    /// Evaluates the compiled ops at positions `r` of layer `i` in the
    /// replica at `base`: one kernel call per run of the layer that `r`
    /// meets, over the part of it inside `r`.
    ///
    /// # Safety
    ///
    /// As `KernelRun::eval_lanes_ptr` for every op of `r`, which lies
    /// within layer `i` of a compiled program.
    #[inline]
    unsafe fn eval_runs<T: Lane>(&self, i: usize, base: *mut T, w: LaneWindow, r: Range<usize>) {
        for run in &self.runs[self.run_at[i]..self.run_at[i + 1]] {
            let ops = run.ops();
            let (a, b) = (ops.start.max(r.start), ops.end.min(r.end));
            if a < b {
                // SAFETY: forwarding the caller's contract for ops
                // `a..b`, a stretch of this run.
                unsafe { run.eval_lanes_ptr(base, &self.args[a..b], w) };
            }
        }
    }
}

/// The batched, layer-parallel kernel: one op program per partition,
/// its kernel-compiled form, and the flat phase list the layer-barriered
/// walks follow.
///
/// Unpartitioned kernels are the one-partition special case. Partitioned
/// kernels ([`BatchKernel::compile_partitioned`]) hold one op program
/// per RepCut partition over the same layer grid. The one-thread walk
/// runs each partition's program front to back in its own replica. A
/// layer's phase flattens its (partition, op) pairs into one work range
/// so worker threads own (partition, op-chunk) tiles, and the layer
/// barrier argument carries over unchanged: output rows are unique
/// within a partition's layer and live in distinct replicas across
/// partitions.
#[derive(Debug, Clone)]
pub struct BatchKernel {
    config: KernelConfig,
    engine: BatchEngine,
    /// One program per partition.
    programs: Vec<Program>,
    /// Bit-packing program of a specialized kernel
    /// ([`BatchKernel::compile_specialized`]).
    spec: Option<SpecProgram>,
    /// What a layer-barriered cycle walks, in order.
    phases: Vec<Phase>,
    /// Rows the ops address: one past the highest slot any op names. A
    /// walk checks the state holds that many before touching a row.
    rows: usize,
    /// The lane type of the rows every table above was compiled for; a
    /// walk checks it against the state's before touching a row.
    lane: LaneType,
    /// Per slot, how a narrow row widens — the interpreted walk's view of
    /// the rows ([`BatchEngine::Interpreted`] only; empty otherwise).
    signed: Vec<bool>,
}

impl BatchKernel {
    /// Compiles a plan into a batched kernel under a configuration,
    /// lowering every operation into a specialized lane kernel over rows
    /// of the plan's lane type ([`LaneType::of`]), in walk order.
    pub fn compile(plan: &SimPlan, config: KernelConfig) -> Self {
        Self::compile_with_engine(plan, config, BatchEngine::Compiled)
    }

    /// Compiles a plan with an explicit executor choice
    /// ([`BatchEngine::Interpreted`] keeps the per-lane `eval_raw`
    /// dispatch — the golden model, and the baseline of the
    /// interpreted-vs-compiled benchmark axis).
    pub fn compile_with_engine(plan: &SimPlan, config: KernelConfig, engine: BatchEngine) -> Self {
        Self::compile_in(plan, config, engine, &LaneLayout::of(plan))
    }

    /// [`compile_with_engine`](Self::compile_with_engine) for the rows of
    /// a given layout of `plan` (`LaneLayout::of_as`: how tests reach
    /// both lane types).
    #[doc(hidden)]
    pub fn compile_in(
        plan: &SimPlan,
        config: KernelConfig,
        engine: BatchEngine,
        layout: &LaneLayout,
    ) -> Self {
        Self::from_layers(config, engine, &[&plan.layers], None, layout)
    }

    /// Compiles a RepCut decomposition into a partitioned kernel: one op
    /// schedule per partition, executed against the replica-per-partition
    /// state of [`BatchLiState::new_partitioned`] over the same
    /// decomposition.
    pub fn compile_partitioned(pp: &PartitionedPlan, config: KernelConfig) -> Self {
        let layers: Vec<&[Vec<OpInst>]> = pp.partitions.iter().map(|s| &s.layers[..]).collect();
        Self::from_layers(config, BatchEngine::Compiled, &layers, None, &pp.lanes)
    }

    fn from_layers(
        config: KernelConfig,
        engine: BatchEngine,
        part_layers: &[&[Vec<OpInst>]],
        spec: Option<SpecProgram>,
        layout: &LaneLayout,
    ) -> Self {
        let num_layers = part_layers.iter().map(|l| l.len()).max().unwrap_or(0);
        let compile = engine == BatchEngine::Compiled && spec.is_none();
        let programs: Vec<Program> = (part_layers.iter())
            .map(|layers| Program::new(layers, num_layers, layout, compile))
            .collect();
        let layer_len = |i: usize| programs.iter().map(|p| p.layer(i).len()).sum();
        let rows = (programs.iter().flat_map(|p| &p.ops))
            .map(|op| op.ins.iter().fold(op.out, |m, &r| m.max(r)) as usize + 1)
            .max()
            .unwrap_or(0);
        let phase = |layer, moves, len| Phase { layer, moves, len };
        let phases = match &spec {
            // A layer without boundary moves gets no move phase, so a
            // program that packs nothing walks one phase per layer.
            Some(prog) => (0..prog.num_layers())
                .flat_map(|i| {
                    [
                        phase(i, true, prog.phase_a_len(i)),
                        phase(i, false, prog.phase_b_len(i)),
                    ]
                })
                .filter(|ph| !ph.moves || ph.len > 0)
                .collect(),
            None => (0..num_layers)
                .map(|i| phase(i, false, layer_len(i)))
                .collect(),
        };
        BatchKernel {
            config,
            engine,
            programs,
            spec,
            phases,
            rows,
            lane: layout.lane_type(),
            signed: match engine {
                BatchEngine::Interpreted => layout.signed_slots(),
                BatchEngine::Compiled => Vec::new(),
            },
        }
    }

    /// Compiles a specialized plan ([`mod@rteaal_dfg::specialize`]): the
    /// cycle walks its [`SpecProgram`] — per layer the same lane kernels
    /// a per-op kernel runs, and when `pack`, bit-packed
    /// 64-lanes-per-word bodies for the 1-bit interior wires that pay for
    /// it, behind a boundary-move phase. Packing nothing, it walks the
    /// phase list of [`Self::compile`] over the transformed plan.
    /// The transformed plan's layers are kept alongside (the profiled
    /// walk models them). Specialized kernels are unpartitioned; a
    /// RepCut decomposition consumes the transformed plan instead
    /// (fold/dedup/DCE still apply, packing does not).
    pub fn compile_specialized(sp: &SpecializedPlan, config: KernelConfig, pack: bool) -> Self {
        let layout = LaneLayout::of(&sp.plan);
        let spec = Some(SpecProgram::build_in(&sp.plan, pack, &layout));
        Self::from_layers(
            config,
            BatchEngine::Compiled,
            &[&sp.plan.layers],
            spec,
            &layout,
        )
    }

    /// The configuration this kernel was compiled under.
    pub fn config(&self) -> KernelConfig {
        self.config
    }

    /// The executor this kernel walks its layers with.
    pub fn engine(&self) -> BatchEngine {
        self.engine
    }

    /// The lane type of the rows this kernel walks: the state it steps
    /// must hold the same.
    pub fn lane_type(&self) -> LaneType {
        self.lane
    }

    /// The packed program of a specialized kernel, if any.
    pub fn specialized(&self) -> Option<&SpecProgram> {
        self.spec.as_ref()
    }

    /// Number of partitions this kernel was compiled for (1 =
    /// unpartitioned).
    pub fn partitions(&self) -> usize {
        self.programs.len()
    }

    /// The ops of every run of the compiled walk — one kernel call each —
    /// partition after partition, in walk order (none for a specialized
    /// or interpreted kernel).
    pub fn runs(&self) -> impl Iterator<Item = &[OpInst]> {
        (self.programs.iter()).flat_map(|p| p.runs.iter().map(|run| &p.ops[run.ops()]))
    }

    /// The one-thread walk of a cycle: each partition's program front to
    /// back in its own replica, one kernel call per run — no phase or
    /// barrier. A specialized kernel walks its phases in order.
    ///
    /// # Safety
    ///
    /// As `KernelRun::eval_lanes_ptr` for every op: `cx` must describe
    /// the state this kernel is paired with, and nothing else may touch
    /// it during the call.
    unsafe fn walk_serial(&self, cx: &Walk, buf: &mut Vec<u64>) {
        // SAFETY: each arm forwards the caller contract unchanged, with
        // the matrix pointer in the element type it was captured in.
        unsafe {
            match cx.li {
                RowsPtr::Narrow(li) => self.walk_serial_in(li, cx, buf),
                RowsPtr::Wide(li) => self.walk_serial_in(li, cx, buf),
            }
        }
    }

    /// [`Self::walk_serial`] over rows of `T`.
    ///
    /// # Safety
    ///
    /// As [`Self::walk_serial`]; `li` is `cx`'s matrix, and `T` the
    /// element of this kernel's lane type.
    unsafe fn walk_serial_in<T: Lane>(&self, li: *mut T, cx: &Walk, buf: &mut Vec<u64>) {
        if self.spec.is_some() {
            for (k, phase) in self.phases.iter().enumerate() {
                // SAFETY: program order seals every earlier phase.
                unsafe { self.eval_phase_in(k, li, cx, 0..phase.len, buf) };
            }
            return;
        }
        for (p, program) in self.programs.iter().enumerate() {
            // SAFETY: replica `p` lies within the state's matrix, which
            // holds every row an op names (`walk_context`); walk order
            // evaluates every op after the ops it reads, and one thread
            // owns every row.
            unsafe {
                let base = li.add(p * cx.span);
                match self.engine {
                    BatchEngine::Compiled => {
                        for run in &program.runs {
                            run.eval_lanes_ptr(base, &program.args[run.ops()], cx.w);
                        }
                    }
                    BatchEngine::Interpreted => {
                        for op in &program.ops {
                            op.eval_lanes_ptr(base, cx.w, &self.signed, buf);
                        }
                    }
                }
            }
        }
    }

    /// Evaluates instructions `r` of phase `k`. A layer phase's range
    /// indexes its flattened (partition, op) pairs, intersected with each
    /// partition's stretch of the layer and cut at its runs: a
    /// (partition, op-range) tile set.
    ///
    /// # Safety
    ///
    /// As `KernelRun::eval_lanes_ptr` (`SpecProgram::eval_phase_a` / `_b`
    /// for a specialized kernel): `cx` must describe the state this
    /// kernel is paired with, every earlier phase must be sealed (program
    /// order or a barrier), and concurrent callers must pass disjoint
    /// ranges — each then owns its instructions' output rows (unique
    /// within a phase; distinct replicas across partitions).
    #[inline]
    unsafe fn eval_phase(&self, k: usize, cx: &Walk, r: Range<usize>, buf: &mut Vec<u64>) {
        // SAFETY: each arm forwards the caller contract unchanged, with
        // the matrix pointer in the element type it was captured in.
        unsafe {
            match cx.li {
                RowsPtr::Narrow(li) => self.eval_phase_in(k, li, cx, r, buf),
                RowsPtr::Wide(li) => self.eval_phase_in(k, li, cx, r, buf),
            }
        }
    }

    /// [`Self::eval_phase`] over rows of `T`.
    ///
    /// # Safety
    ///
    /// As [`Self::eval_phase`]; `li` is `cx`'s matrix, and `T` the
    /// element of this kernel's lane type (`walk_context` checked the
    /// state's against it).
    #[inline]
    unsafe fn eval_phase_in<T: Lane>(
        &self,
        k: usize,
        li: *mut T,
        cx: &Walk,
        r: Range<usize>,
        buf: &mut Vec<u64>,
    ) {
        let (i, moves) = (self.phases[k].layer, self.phases[k].moves);
        // SAFETY: each arm forwards the caller contract unchanged.
        unsafe {
            match (&self.spec, moves) {
                (Some(prog), true) => prog.eval_phase_a(i, li, cx.w, cx.bits, r),
                (Some(prog), false) => prog.eval_phase_b(i, li, cx.w, cx.bits, r),
                (None, _) => {
                    // Flattened index of partition `p`'s first op of the layer.
                    let mut first = 0;
                    for (p, program) in self.programs.iter().enumerate() {
                        let layer = program.layer(i);
                        let (a, b) = (r.start.max(first), r.end.min(first + layer.len()));
                        if a < b {
                            let tile = layer.start + (a - first)..layer.start + (b - first);
                            let base = li.add(p * cx.span);
                            match self.engine {
                                BatchEngine::Compiled => program.eval_runs(i, base, cx.w, tile),
                                BatchEngine::Interpreted => {
                                    for op in &program.ops[tile] {
                                        op.eval_lanes_ptr(base, cx.w, &self.signed, buf);
                                    }
                                }
                            }
                        }
                        first += layer.len();
                    }
                }
            }
        }
    }

    /// Walks one cycle's phases as `worker` of `threads`: its chunk of
    /// each `Parallel` phase, all of each `Serial` run if it is worker 0,
    /// every segment ending at `barrier` (absent on a one-worker walk,
    /// where program order seals the phases). `after_layer(i)`, if given,
    /// fires once this worker has evaluated the last phase of layer `i`.
    ///
    /// # Safety
    ///
    /// As [`Self::eval_phase`] for every phase: all `threads` workers
    /// walk the same `segments` over the same `cx` and meet at the same
    /// `barrier`, and nothing else touches the state meanwhile.
    #[allow(clippy::too_many_arguments)]
    unsafe fn walk<'h>(
        &self,
        cx: &Walk,
        segments: &[Segment],
        worker: usize,
        threads: usize,
        barrier: Option<&SpinBarrier>,
        buf: &mut Vec<u64>,
        mut after_layer: Option<&mut (dyn FnMut(usize) + 'h)>,
    ) {
        let mut eval = |k: usize, range: Range<usize>| {
            // SAFETY: ranges of one phase are disjoint across workers, and
            // the previous segment's barrier (or, within a serial run,
            // program order) sealed every earlier phase.
            unsafe { self.eval_phase(k, cx, range, buf) };
            if let Some(hook) = after_layer.as_mut().filter(|_| !self.phases[k].moves) {
                hook(self.phases[k].layer);
            }
        };
        for segment in segments {
            match *segment {
                Segment::Parallel(k) => eval(k, chunk(self.phases[k].len, worker, threads)),
                Segment::Serial(from, to) if worker == 0 => {
                    (from..to).for_each(|k| eval(k, 0..self.phases[k].len));
                }
                Segment::Serial(..) => {}
            }
            if let Some(barrier) = barrier {
                barrier.wait();
            }
        }
    }

    /// Checks the kernel/state pairing — partition count, rows and lane
    /// type: a kernel only ever sees a state that holds every row its ops
    /// name, in the element it was compiled for — sizes the bit-plane
    /// sidecar, and captures the pointers and window a walk shares.
    fn walk_context(&self, st: &mut BatchLiState) -> Walk {
        assert_eq!(
            self.programs.len(),
            st.parts,
            "kernel/state partition mismatch"
        );
        let slots = st.span / st.lanes;
        assert!(
            slots >= self.rows,
            "`LI` holds {slots} slots; the kernel addresses {} (were they built from the same \
             plan?)",
            self.rows
        );
        assert_eq!(
            self.lane,
            st.lane_type(),
            "kernel/state lane type mismatch: the kernel was compiled for {:?} rows, the state \
             holds {:?} ones (were they built from the same plan?)",
            self.lane,
            st.lane_type()
        );
        let need = self.spec.as_ref().map_or(0, |p| p.bits_len(st.lanes));
        st.bits.resize(need, 0);
        Walk {
            li: match &mut st.rows {
                Rows::Narrow(m) => RowsPtr::Narrow(m.li.as_mut_ptr()),
                Rows::Wide(m) => RowsPtr::Wide(m.li.as_mut_ptr()),
            },
            bits: st.bits.as_mut_ptr(),
            span: st.span,
            w: st.window(),
        }
    }

    /// The one cycle loop: `cycles` × `stimulus → [settled? clock only]
    /// → walk → commit`, across `threads` workers. One thread walks each
    /// partition's program straight through ([`Self::walk_serial`]), with
    /// no barrier and no thread scope, unless `after_layer` asks for the
    /// layers one by one. More walk the phases layer by layer: worker 0
    /// (the caller) runs stimulus and commit in the single-threaded
    /// window between walks and opens each walked cycle at the barrier
    /// the other workers park at — a settled cycle costs them nothing.
    fn cycles(
        &self,
        st: &mut BatchLiState,
        cycles: u64,
        threads: usize,
        mut stimulus: impl FnMut(u64, &mut LanePoker<'_>),
        mut after_layer: Option<&mut dyn FnMut(usize)>,
    ) {
        let threads = threads.max(1);
        let cx = self.walk_context(st);
        // The layer-barriered schedule, for the workers to split or the
        // per-layer hook to follow; none for the one-thread walk.
        let segments = if threads > 1 {
            Some(schedule(self.phases.iter().map(|ph| ph.len), st.lanes))
        } else {
            (after_layer.is_some()).then(|| vec![Segment::Serial(0, self.phases.len())])
        };
        // The end of the run, read by the other workers after the opening
        // barrier (which orders it).
        let done = AtomicBool::new(false);
        let mut lead = |barrier: Option<&SpinBarrier>| {
            for _ in 0..cycles {
                stimulus(st.cycle, &mut LanePoker { st });
                if !st.settled {
                    if let Some(barrier) = barrier {
                        barrier.wait(); // open the compute phase
                    }
                    let buf = &mut st.scratch;
                    // SAFETY: `cx` was captured from this state; every
                    // worker walks `segments` in lockstep; after the
                    // walk's last barrier the others are parked at the
                    // next opening barrier — the commit's
                    // single-threaded window.
                    let changed = unsafe {
                        match &segments {
                            None => self.walk_serial(&cx, buf),
                            Some(segments) => {
                                let hook = after_layer.as_deref_mut();
                                self.walk(&cx, segments, 0, threads, barrier, buf, hook);
                            }
                        }
                        rows!(&mut st.rows, m => {
                            let li = m.li.as_mut_ptr(); // materializes no reference
                            commit(li, cx.span, cx.w, &st.commits, &mut m.commit_buf, &st.rum)
                        })
                    };
                    st.settled = !changed;
                }
                st.cycle += 1;
            }
        };
        if threads == 1 {
            return lead(None);
        }
        let segments = segments
            .as_deref()
            .expect("threads > 1 walk layer by layer");
        let barrier = SpinBarrier::new(threads);
        std::thread::scope(|scope| {
            for worker in 1..threads {
                let (barrier, done) = (&barrier, &done);
                scope.spawn(move || {
                    let mut buf = Vec::new(); // staging, interpreted walk only
                    loop {
                        barrier.wait(); // a cycle to walk, or the end
                        if done.load(Ordering::Relaxed) {
                            break;
                        }
                        // SAFETY: as the worker-0 side.
                        unsafe {
                            self.walk(
                                &cx,
                                segments,
                                worker,
                                threads,
                                Some(barrier),
                                &mut buf,
                                None,
                            )
                        };
                    }
                });
            }
            // Ends the run when `lead` returns, and when it unwinds: the
            // only code of the caller's in the loop is the stimulus
            // callback, which runs while the others are parked at the
            // opening barrier — released here, so the scope can join them
            // and the panic reaches the caller.
            let _end = EndOfRun {
                barrier: &barrier,
                done: &done,
            };
            lead(Some(&barrier));
        });
    }

    /// One cycle on the active lanes, single-threaded.
    ///
    /// # Panics
    ///
    /// Panics if the state's partition count differs from the kernel's.
    pub fn step(&self, st: &mut BatchLiState) {
        self.cycles(st, 1, 1, |_, _| {}, None);
    }

    /// One cycle with per-layer instrumentation: the real (bit-exact)
    /// walk runs, and after each layer that layer's reference streams
    /// are replayed into `mem` through a [`MemProbe`] — per op the OIM
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
    /// batched engine exists to buy. It models the per-op walk of the
    /// kernel's layers for every kernel, and every layer every cycle: a
    /// settled batch is walked too.
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
        st.settled = false;
        let (live, lanes, span) = (st.live, st.lanes, st.span);
        // Address of one lane of a slot in replica `p` of the slot-major
        // batched `LI` matrix (one element of the rows' lane type each).
        let bytes = st.lane_type().bytes();
        let li_addr = |p: usize, slot: u32, lane: usize| {
            LI_BASE + ((p * span + slot as usize * lanes + lane) * bytes) as u64
        };
        let mut probe = MemProbe::new(mem);
        let mut samples = Vec::with_capacity(self.phases.len());
        // OIM arrays are laid out in schedule order: the coordinate index
        // is global across layers (and partitions), as is the running
        // base into the flattened `R`-rank operand array.
        let mut op_index = 0usize;
        let mut r_index = 0usize;
        let mut after_layer = |i: usize| {
            let before = probe.counters;
            for (p, program) in self.programs.iter().enumerate() {
                for op in &program.ops[program.layer(i)] {
                    probe.load(oim_addr(OimArray::NCoords, op_index, 2));
                    probe.load(oim_addr(OimArray::SCoords, op_index, 4));
                    probe.load(oim_addr(OimArray::Meta, op_index, 24));
                    for o in 0..op.ins.len() {
                        probe.load(oim_addr(OimArray::RCoords, r_index + o, 4));
                    }
                    let handler = CODE_BASE + op.n as u64 * HANDLER_BYTES;
                    probe.branch(handler);
                    let cost = exec_cost(op.op(), op.ins.len());
                    for lane in 0..live {
                        for &ins in &op.ins {
                            probe.load(li_addr(p, ins, lane));
                        }
                        probe.exec(handler + 0x10, cost);
                        probe.store(li_addr(p, op.out, lane));
                    }
                    r_index += op.ins.len();
                    op_index += 1;
                }
            }
            let after = probe.counters;
            samples.push(LayerSample {
                layer: i,
                ops: self.programs.iter().map(|p| p.layer(i).len()).sum(),
                instructions: after.instructions - before.instructions,
                loads: after.loads - before.loads,
                stores: after.stores - before.stores,
            });
        };
        self.cycles(st, 1, 1, |_, _| {}, Some(&mut after_layer));
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
        let cx = self.walk_context(st);
        // SAFETY: `cx` was just captured from this exclusively borrowed
        // state.
        unsafe { self.walk_serial(&cx, &mut st.scratch) };
    }

    /// `cycles` cycles on the active lanes, single-threaded.
    pub fn run(&self, st: &mut BatchLiState, cycles: u64) {
        self.cycles(st, cycles, 1, |_, _| {}, None);
    }

    /// `cycles` cycles with the instructions of each phase split across
    /// `threads` workers (layer barrier preserved). Inputs keep whatever
    /// values they currently hold.
    pub fn run_parallel(&self, st: &mut BatchLiState, cycles: u64, threads: usize) {
        self.cycles(st, cycles, threads, |_, _| {}, None);
    }

    /// `cycles` cycles across `threads` workers, invoking `stimulus`
    /// before each cycle (in the single-threaded window after the
    /// previous commit) so every lane can be driven independently.
    pub fn run_with_stimulus(
        &self,
        st: &mut BatchLiState,
        cycles: u64,
        threads: usize,
        stimulus: impl FnMut(u64, &mut LanePoker<'_>),
    ) {
        self.cycles(st, cycles, threads, stimulus, None);
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

    #[test]
    fn the_lane_matrix_starts_on_a_cache_line_wherever_it_is_allocated() {
        // Allocations of every size in between, so the matrix lands at
        // every offset the allocator hands out.
        let mut keep = Vec::new();
        for k in 0..64usize {
            keep.push(vec![0u8; 1 + k * 8]);
            let narrow = LineAligned::from_slice(&vec![7u32; 24 * 64 + k]);
            let wide = LineAligned::from_slice(&vec![7u64; 24 * 64 + k]);
            for (ptr, len) in [
                (narrow.as_ptr() as usize, narrow.len()),
                (wide.as_ptr() as usize, wide.len()),
                (narrow.clone().as_ptr() as usize, narrow.clone().len()),
            ] {
                assert_eq!((ptr % 64, len), (0, 24 * 64 + k));
            }
            assert!(narrow.iter().all(|&v| v == 7) && wide.iter().all(|&v| v == 7));
        }
    }

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
        assert_eq!(samples.len(), kernel.phases.len());
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
                // Drive inputs only every third cycle.
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
    fn a_program_without_moves_walks_one_phase_per_layer() {
        let p = anonymized(plan_of(DESIGN));
        let sp = rteaal_dfg::specialize(&p);
        let cfg = KernelConfig::new(KernelKind::Psu);
        let spec = BatchKernel::compile_specialized(&sp, cfg, true);
        let prog = spec.specialized().expect("a packed program");
        assert_eq!(prog.boundary_moves(), (0, 0), "DESIGN packs nothing");
        // No empty move phase, hence no second barrier per layer: the
        // phase list of the per-op kernel over the same plan.
        let shape = |k: &BatchKernel| -> Vec<(usize, bool, usize)> {
            k.phases
                .iter()
                .map(|ph| (ph.layer, ph.moves, ph.len))
                .collect()
        };
        assert_eq!(shape(&spec), shape(&BatchKernel::compile(&sp.plan, cfg)));
        assert_eq!(spec.phases.len(), sp.plan.layers.len());
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

    /// Asserts `program` walks `layers` under the run contract: each
    /// layer is one contiguous stretch of the walk holding its own ops,
    /// sorted by kernel key and in plan order within a key; the layer's
    /// runs tile its stretch, never cross into the next layer, carry one
    /// key each and are maximal (two neighbours never share a key).
    fn assert_walks_in_runs(program: &Program, layers: &[Vec<OpInst>], layout: &LaneLayout) {
        let key = |op: &OpInst| layout.kernel_key(op);
        assert_eq!(program.layer_at[0], 0);
        assert_eq!(program.args.len(), program.ops.len());
        for (i, layer) in layers.iter().enumerate() {
            let stretch = program.layer(i);
            let mut want = layer.clone();
            want.sort_by_key(key); // stable
            assert_eq!(&program.ops[stretch.clone()], &want[..], "layer {i}");
            let runs = &program.runs[program.run_at[i]..program.run_at[i + 1]];
            let mut at = stretch.start;
            for (k, run) in runs.iter().enumerate() {
                let ops = run.ops();
                assert!(
                    ops.start == at && ops.end > at,
                    "layer {i} run {k}: {ops:?}"
                );
                let first = key(&program.ops[at]);
                assert!(
                    program.ops[ops.clone()].iter().all(|op| key(op) == first),
                    "layer {i} run {k}: one kernel"
                );
                if k > 0 {
                    assert_ne!(
                        key(&program.ops[at - 1]),
                        first,
                        "layer {i} run {k}: maximal"
                    );
                }
                at = ops.end;
            }
            assert_eq!(at, stretch.end, "layer {i}: its runs cover it");
        }
        assert_eq!(program.layer_at[layers.len()], program.ops.len());
    }

    #[test]
    fn a_plans_one_thread_walk_visits_the_flattened_layers_in_order() {
        // Layer after layer, each layer one stretch of the walk sorted by
        // kernel into maximal runs — for the flat kernel of every kind,
        // and for each partition of a partitioned one.
        for src in [DESIGN.to_string(), wide_design()] {
            let p = plan_of(&src);
            let layout = LaneLayout::of(&p);
            let pp = PartitionedPlan::new(&p, 3);
            for kind in ALL_KERNELS {
                let flat = BatchKernel::compile(&p, KernelConfig::new(kind));
                assert_eq!(flat.programs.len(), 1);
                assert_walks_in_runs(&flat.programs[0], &p.layers, &layout);
                assert_eq!(flat.programs[0].ops.len(), p.total_ops());
                let parts = BatchKernel::compile_partitioned(&pp, KernelConfig::new(kind));
                for (program, want) in parts.programs.iter().zip(&pp.partitions) {
                    assert_walks_in_runs(program, &want.layers, &pp.lanes);
                }
            }
        }
    }

    #[test]
    fn a_backwards_numbered_core_walks_layer_major_runs_bit_exact() {
        // `plan_unelided` numbers each value's per-layer copies together,
        // and the core numbered backwards reads its op outputs before it
        // writes them in ascending slot order: neither numbering is plan
        // order, and the walk does not care — it is layer-major runs on
        // both, and bit-exact to the interpreted golden model on every
        // cycle, slot and lane.
        let core = rteaal_designs::Workload::rv32i_sum_loop().circuit;
        let graph = rteaal_dfg::build(&lower_typed(&core).unwrap()).unwrap();
        let unelided = rteaal_dfg::plan::plan_unelided(&graph);
        let p = plan(&graph);
        let mut outs: Vec<u32> = p.layers.iter().flatten().map(|op| op.out).collect();
        outs.sort_unstable();
        let mut to: Vec<u32> = (0..p.num_slots as u32).collect();
        for (&from, &into) in outs.iter().zip(outs.iter().rev()) {
            to[from as usize] = into;
        }
        let backwards = p.renamed(&to);
        let reads_ahead =
            |op: &OpInst| (op.ins.iter()).any(|&r| r > op.out && outs.binary_search(&r).is_ok());
        assert!(
            backwards.layers.iter().flatten().any(reads_ahead),
            "some op reads an op output numbered above its own"
        );
        for p in [unelided, backwards] {
            let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
            assert_walks_in_runs(&kernel.programs[0], &p.layers, &LaneLayout::of(&p));
            assert!(
                kernel.programs[0].runs.len() < p.total_ops(),
                "{}: some layer's kernel runs more than one op",
                p.name
            );
            const LANES: usize = 8;
            let mut st = BatchLiState::new(&p, LANES);
            let mut golden = BatchPlanSim::interpreted(&p, LANES);
            for cycle in 0..60u64 {
                for lane in 0..LANES {
                    let reset = u64::from(cycle < lane as u64 + 2);
                    st.set_input(0, lane, reset);
                    golden.set_input(0, lane, reset);
                }
                kernel.step(&mut st);
                golden.step();
                for s in 0..p.num_slots as u32 {
                    for lane in 0..LANES {
                        let at = format!("{} slot {s} lane {lane} @ {cycle}", p.name);
                        assert_eq!(st.slot(s, lane), golden.slot(s, lane), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_state_too_small_for_the_kernel_is_refused_before_any_access() {
        // Both in `u64` rows and one partition: only the row count tells
        // kernel and state apart, and the walks address rows unchecked.
        let (big, small) = (plan_of(&wide_design()), plan_of(DESIGN));
        let wide = |p: &SimPlan| LaneLayout::of_as(p, LaneType::Wide);
        let want = format!("`LI` holds {} slots; the kernel addresses", small.num_slots);
        let cfg = KernelConfig::new(KernelKind::Psu);
        for engine in [BatchEngine::Compiled, BatchEngine::Interpreted] {
            let kernel = BatchKernel::compile_in(&big, cfg, engine, &wide(&big));
            for threads in [0, 1, 2] {
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut st = BatchLiState::new_in(&small, 8, &wide(&small));
                    match threads {
                        0 => kernel.eval_comb(&mut st),
                        _ => kernel.run_parallel(&mut st, 1, threads),
                    }
                }));
                let payload = refused.expect_err("the walk was refused");
                let message = payload.downcast::<String>().map(|m| *m).unwrap_or_default();
                assert!(
                    message.starts_with(&want),
                    "{engine:?} threads {threads}: {message}"
                );
            }
        }
    }

    #[test]
    fn a_stimulus_panic_on_a_threaded_run_reaches_the_caller() {
        // The panic unwinds out of the cycle loop while the other worker
        // is parked at the opening barrier; the run must release it, or
        // the thread scope waits on it forever.
        let p = plan_of(&wide_design());
        let kernel = BatchKernel::compile(&p, KernelConfig::new(KernelKind::Psu));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut st = BatchLiState::new(&p, 8);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                kernel.run_with_stimulus(&mut st, 10, 2, |cycle, _| {
                    assert_ne!(cycle, 3, "stimulus fails at cycle 3");
                });
            }));
            tx.send(run.is_err()).unwrap();
        });
        let reported = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(reported, Ok(true), "the panic did not reach the caller");
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
