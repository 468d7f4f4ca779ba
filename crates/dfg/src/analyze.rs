//! Static plan verifier: structural invariants of [`SimPlan`],
//! [`PartitionedPlan`], and compiled kernel tables, checked ahead of
//! execution and reported as typed [`Diagnostic`]s instead of panics.
//!
//! The pipeline's correctness was previously established only
//! *dynamically* — by running jobs and comparing against the interpreted
//! golden model. This module turns the invariants every execution layer
//! relies on into machine-checked facts with named-signal diagnostics:
//!
//! 1. **Schedule legality** — every operand of a layer-`L` op is produced
//!    at a strictly earlier layer or is a register/input/constant slot,
//!    each slot is written at most once per cycle (SSA within the cycle),
//!    and the commit list is alias-free in the sense
//!    [`split_commits`](crate::plan::split_commits) assumes (no two
//!    commits target the same register).
//! 2. **Combinational-cycle detection** ([`analyze_graph`]) with a
//!    named-signal cycle trace — a cyclic graph previously panicked deep
//!    inside levelization.
//! 3. **RUM coverage and single ownership** ([`analyze_partitioned`]) —
//!    every replicated register has exactly one owner, every
//!    cross-partition reader appears in its [`RumEntry`](crate::partition::RumEntry), and no
//!    partition commits a register it doesn't own.
//! 4. **Kernel-table consistency** ([`analyze_compiled`]) — every
//!    [`CompiledOp`](crate::lane_kernel::CompiledOp)'s folded operand offsets are in-bounds for the `LI`
//!    tensor and its mask/shift matches the declared width/sign, making
//!    the `unsafe fn(*mut u64, ...)` kernels provably in-bounds by
//!    construction.
//! 5. **Dataflow analyses** — undriven-slot (uninitialized) reads,
//!    dead-op and never-toggling-signal detection, and a fan-in-weighted
//!    static activity estimate per layer, exported as [`AnalysisStats`].
//!
//! `rteaal_core::Compiler` runs [`analyze_design`] on every compile and
//! turns `Error`-level findings into a structured compile error;
//! `rteaal-serve` re-runs the partition checks at registration time and
//! surfaces the per-design [`AnalysisStats`] over the wire; the root
//! test `tests/plan_lint.rs` sweeps the whole design corpus plus
//! seeded-violation mutants.

use crate::graph::Graph;
use crate::lane_kernel::{
    compile_plan, narrow_exact, CompiledLayer, LaneLayout, LaneType, SlotType,
};
use crate::op::{DfgOp, OpClass};
use crate::partition::PartitionedPlan;
use crate::plan::SimPlan;
use rteaal_firrtl::ty::mask;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// How bad a finding is. `Error` means the plan must not be executed
/// (an engine invariant is broken); `Warn` flags suspicious but runnable
/// structure; `Info` is attribution data (e.g. never-toggling signals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Attribution / statistics finding; execution is unaffected.
    Info,
    /// Suspicious structure that still executes deterministically.
    Warn,
    /// Broken invariant: executing this plan would be unsound.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// The class of invariant a [`Diagnostic`] reports against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiagKind {
    /// A slot reference (operand, output, probe, commit, ...) is outside
    /// `[0, num_slots)` or `init_values` disagrees with `num_slots`.
    SlotOutOfBounds,
    /// An op reads a slot produced in its own or a later layer.
    UseBeforeDef,
    /// Two layer ops write the same slot in one cycle (SSA violation).
    DuplicateWrite,
    /// A layer op writes a register/input/constant slot directly,
    /// bypassing commit semantics.
    SourceOverwrite,
    /// An `OpInst` carries an opcode coordinate with no [`DfgOp`], a
    /// source opcode scheduled into a layer, an operand count that
    /// contradicts the opcode's arity, or static parameters that are
    /// missing, inverted or over 64.
    MalformedOp,
    /// A commit references an out-of-range slot.
    CommitOutOfBounds,
    /// Two commits target the same register slot — the staging split in
    /// [`split_commits`](crate::plan::split_commits) assumes this never
    /// happens, so commit order would become observable.
    CommitAlias,
    /// A combinational cycle; the message carries the named-signal trace.
    CombCycle,
    /// The RUM's shape disagrees with the plan (entry count, slot pairing,
    /// or partition indices out of range).
    RumShapeMismatch,
    /// A RUM entry names an owner that does not commit the register, or
    /// lists the owner among its readers.
    RumOwnerMismatch,
    /// A partition commits a register it does not own, a register is
    /// committed by zero or multiple partitions, or a partition commits a
    /// pair absent from the plan.
    ForeignCommit,
    /// A partition reads a register replica without appearing in that
    /// register's [`RumEntry::readers`](crate::partition::RumEntry::readers) — it would see stale values.
    MissingRumReader,
    /// A RUM entry lists a reader that never reads the register
    /// (harmless but wasteful exchange traffic).
    ExtraRumReader,
    /// A plan op appears in no partition at its original layer, or a
    /// partition schedules an op the plan's layer does not contain.
    UncoveredOp,
    /// `home[slot]` names a partition that does not compute/own the slot.
    HomeMismatch,
    /// The compiled kernel table's shape disagrees with the plan (layer
    /// or op counts, output slot, operand slots, opcode).
    KernelShapeMismatch,
    /// A compiled kernel's folded operand/output offset is outside the
    /// `LI` tensor.
    KernelOutOfBounds,
    /// A compiled kernel's folded mask/shift/signedness disagrees with
    /// the op's declared width/sign.
    KernelCanonMismatch,
    /// A kernel compiled for `u32` rows cannot run there: the plan's
    /// slot types put it (or a slot it touches) past 32 bits, or the op
    /// is not narrow-exact on its operands' types, or the kernel is not
    /// the variant the predicate selects — it would reinterpret or drop
    /// bits. Also: a table that mixes lane types.
    KernelLaneMismatch,
    /// An op reads a slot that nothing ever drives (not an input, not a
    /// constant, not a committed register, not an op output) — it holds
    /// its power-on value forever.
    UninitRead,
    /// An op whose result reaches no output, probe, or register commit.
    DeadOp,
    /// A signal that constant-propagation proves can never toggle.
    NeverToggles,
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiagKind::SlotOutOfBounds => "slot-out-of-bounds",
            DiagKind::UseBeforeDef => "use-before-def",
            DiagKind::DuplicateWrite => "duplicate-write",
            DiagKind::SourceOverwrite => "source-overwrite",
            DiagKind::MalformedOp => "malformed-op",
            DiagKind::CommitOutOfBounds => "commit-out-of-bounds",
            DiagKind::CommitAlias => "commit-alias",
            DiagKind::CombCycle => "comb-cycle",
            DiagKind::RumShapeMismatch => "rum-shape-mismatch",
            DiagKind::RumOwnerMismatch => "rum-owner-mismatch",
            DiagKind::ForeignCommit => "foreign-commit",
            DiagKind::MissingRumReader => "missing-rum-reader",
            DiagKind::ExtraRumReader => "extra-rum-reader",
            DiagKind::UncoveredOp => "uncovered-op",
            DiagKind::HomeMismatch => "home-mismatch",
            DiagKind::KernelShapeMismatch => "kernel-shape-mismatch",
            DiagKind::KernelOutOfBounds => "kernel-out-of-bounds",
            DiagKind::KernelCanonMismatch => "kernel-canon-mismatch",
            DiagKind::KernelLaneMismatch => "kernel-lane-mismatch",
            DiagKind::UninitRead => "uninit-read",
            DiagKind::DeadOp => "dead-op",
            DiagKind::NeverToggles => "never-toggles",
        })
    }
}

/// One verifier finding, locatable by signal name, layer, op index,
/// partition, and/or slot (whichever apply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Which invariant class it reports against.
    pub kind: DiagKind,
    /// Human-readable description (includes the cycle trace for
    /// [`DiagKind::CombCycle`]).
    pub message: String,
    /// Source-level signal name, when the slot resolves to one.
    pub signal: Option<String>,
    /// Layer index, for schedule findings.
    pub layer: Option<usize>,
    /// Op index within the layer, for schedule findings.
    pub op: Option<usize>,
    /// Partition id, for RepCut findings.
    pub partition: Option<u32>,
    /// The `LI` slot involved.
    pub slot: Option<u32>,
}

impl Diagnostic {
    /// A bare diagnostic with no location attached.
    pub fn new(severity: Severity, kind: DiagKind, message: impl Into<String>) -> Self {
        Diagnostic {
            severity,
            kind,
            message: message.into(),
            signal: None,
            layer: None,
            op: None,
            partition: None,
            slot: None,
        }
    }

    /// Attaches a signal name.
    fn with_signal(mut self, signal: Option<String>) -> Self {
        self.signal = signal;
        self
    }

    /// Attaches a `(layer, op index)` location.
    fn at_op(mut self, layer: usize, op: usize) -> Self {
        self.layer = Some(layer);
        self.op = Some(op);
        self
    }

    /// Attaches a partition id.
    fn in_partition(mut self, partition: u32) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Attaches a slot.
    fn on_slot(mut self, slot: u32) -> Self {
        self.slot = Some(slot);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.kind, self.message)?;
        if let Some(sig) = &self.signal {
            write!(f, " (signal `{sig}`)")?;
        }
        if let (Some(l), Some(k)) = (self.layer, self.op) {
            write!(f, " at layer {l} op {k}")?;
        }
        if let Some(p) = self.partition {
            write!(f, " in partition {p}")?;
        }
        Ok(())
    }
}

/// Aggregate statistics of one analysis run — the attribution data
/// ROADMAP's whole-design specialization work consumes, and what the
/// `designs` verb reports per registered design.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalysisStats {
    /// Scheduled operations.
    pub ops: usize,
    /// Layers.
    pub layers: usize,
    /// `LI` slots.
    pub slots: usize,
    /// Registers (commits).
    pub registers: usize,
    /// Ops whose result reaches no output, probe, or commit.
    pub dead_ops: usize,
    /// Ops constant-propagation proves never toggle.
    pub never_toggling: usize,
    /// Error-level diagnostics found.
    pub errors: usize,
    /// Warn-level diagnostics found.
    pub warnings: usize,
    /// Fan-in-weighted static activity per layer: each live, non-constant
    /// op contributes `1 + fan_in` to its layer's estimate.
    pub layer_activity: Vec<f64>,
    /// Sum of `layer_activity`.
    pub total_activity: f64,
}

/// The result of a verifier run: every finding plus aggregate stats.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Findings, in discovery order (capped per kind; the stats counters
    /// are exact).
    pub diagnostics: Vec<Diagnostic>,
    /// Aggregate statistics.
    pub stats: AnalysisStats,
}

impl AnalysisReport {
    /// Whether the plan may be executed: no `Error`-level findings.
    pub fn is_clean(&self) -> bool {
        self.stats.errors == 0
    }

    /// Error-level findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether any finding of the given kind was reported.
    pub fn has(&self, kind: DiagKind) -> bool {
        self.diagnostics.iter().any(|d| d.kind == kind)
    }

    /// Folds another report's findings and counters into this one
    /// (activity/shape stats keep the first non-empty values).
    pub fn merge(&mut self, other: AnalysisReport) {
        self.stats.errors += other.stats.errors;
        self.stats.warnings += other.stats.warnings;
        self.stats.dead_ops += other.stats.dead_ops;
        self.stats.never_toggling += other.stats.never_toggling;
        if self.stats.layer_activity.is_empty() {
            self.stats.layer_activity = other.stats.layer_activity;
            self.stats.total_activity = other.stats.total_activity;
        }
        if self.stats.ops == 0 {
            self.stats.ops = other.stats.ops;
            self.stats.layers = other.stats.layers;
            self.stats.slots = other.stats.slots;
            self.stats.registers = other.stats.registers;
        }
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.stats.errors, self.stats.warnings
        )?;
        for d in self.errors().take(3) {
            write!(f, "; {d}")?;
        }
        if self.stats.errors > 3 {
            write!(f, "; ...")?;
        }
        Ok(())
    }
}

/// Emission cap per diagnostic kind: counters stay exact, but a single
/// systemic defect in a million-op design cannot flood the report.
const MAX_DIAGS_PER_KIND: usize = 32;

/// Collects diagnostics with exact severity counters and per-kind
/// emission capping.
#[derive(Default)]
struct Reporter {
    diags: Vec<Diagnostic>,
    per_kind: HashMap<DiagKind, usize>,
    errors: usize,
    warnings: usize,
}

impl Reporter {
    fn push(&mut self, d: Diagnostic) {
        match d.severity {
            Severity::Error => self.errors += 1,
            Severity::Warn => self.warnings += 1,
            Severity::Info => {}
        }
        let seen = self.per_kind.entry(d.kind).or_insert(0);
        *seen += 1;
        if *seen <= MAX_DIAGS_PER_KIND {
            self.diags.push(d);
        }
    }

    fn finish(self, mut stats: AnalysisStats) -> AnalysisReport {
        stats.errors = self.errors;
        stats.warnings = self.warnings;
        AnalysisReport {
            diagnostics: self.diags,
            stats,
        }
    }
}

/// Largest static parameter of a well-formed op (the widest signal).
const MAX_PARAM: u64 = 64;

/// Validates one [`OpInst`]'s shape: a real non-source opcode, the right
/// operand count, and enough (ordered, bounded) static parameters for the
/// opcode's kernel body to be panic-free. Everything downstream —
/// constant folding here, `OpInst::op()`, the `k_bits`/`k_head` kernels,
/// the scalar kernels' one-byte record fields — may index, shift by and
/// narrow what this function has checked.
fn check_op_shape(op: &crate::plan::OpInst) -> Result<DfgOp, String> {
    let d = DfgOp::from_n_coord(op.n)
        .ok_or_else(|| format!("opcode coordinate {} is not a DfgOp", op.n))?;
    if d.class() == OpClass::Source {
        return Err(format!("source op `{d}` scheduled into a layer"));
    }
    match d.arity() {
        Some(a) if op.ins.len() != a => {
            return Err(format!("`{d}` takes {a} operand(s), got {}", op.ins.len()));
        }
        None if op.ins.len().is_multiple_of(2) => {
            return Err(format!(
                "`{d}` takes an odd operand count, got {}",
                op.ins.len()
            ));
        }
        _ => {}
    }
    let need = match d {
        DfgOp::Cat | DfgOp::Bits | DfgOp::Head => 2,
        DfgOp::Andr | DfgOp::Xorr | DfgOp::Shl | DfgOp::Shr => 1,
        _ => 0,
    };
    if op.params.len() < need {
        return Err(format!(
            "`{d}` needs {need} parameter(s), got {}",
            op.params.len()
        ));
    }
    // Every parameter is a bit index, a width or a shift amount of a
    // value of at most 64 bits, and every consumer shifts by it.
    if let Some(p) = op.params.iter().find(|&&p| p > MAX_PARAM) {
        return Err(format!("`{d}` parameter {p} exceeds {MAX_PARAM}"));
    }
    if d == DfgOp::Bits && op.params[0] < op.params[1] {
        return Err(format!(
            "bits range [{}:{}] is inverted",
            op.params[0], op.params[1]
        ));
    }
    if d == DfgOp::Head && op.params[1] < op.params[0] {
        return Err(format!(
            "head takes {} bits from a {}-bit operand",
            op.params[0], op.params[1]
        ));
    }
    Ok(d)
}

/// Resolves a slot to its source-level name (probes first, then output
/// ports — the same namespace as [`SimPlan::signal_slot`]).
fn slot_name(plan: &SimPlan, slot: u32) -> Option<String> {
    plan.probes
        .iter()
        .find(|&&(_, s, _)| s == slot)
        .map(|(n, _, _)| n.clone())
        .or_else(|| {
            plan.output_slots
                .iter()
                .find(|&&(_, s)| s == slot)
                .map(|(n, _)| n.clone())
        })
}

/// Combinational-cycle detection over a [`Graph`], with a named-signal
/// trace — the panic-free counterpart of `Graph::topo_order`, for graphs
/// corrupted after `build`'s own cycle rejection (e.g. by a buggy pass).
pub fn analyze_graph(graph: &Graph) -> AnalysisReport {
    let mut rep = Reporter::default();
    let n = graph.len();
    let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
    let mut stack: Vec<(crate::NodeId, usize)> = Vec::new();
    let mut roots: Vec<crate::NodeId> = graph.outputs.iter().map(|(_, id)| *id).collect();
    roots.extend(graph.regs.iter().map(|r| r.next));
    let label = |id: crate::NodeId| {
        let node = graph.node(id);
        match &node.name {
            Some(name) => name.to_string(),
            None => format!("{}:{}", node.op, id),
        }
    };
    'roots: for root in roots {
        if state[root.index()] != 0 {
            continue;
        }
        stack.push((root, 0));
        state[root.index()] = 1;
        while let Some(&mut (id, ref mut child)) = stack.last_mut() {
            let node = graph.node(id);
            if node.op.class() == OpClass::Source {
                state[id.index()] = 2;
                stack.pop();
                continue;
            }
            if *child < node.operands.len() {
                let next = node.operands[*child];
                *child += 1;
                match state[next.index()] {
                    0 => {
                        state[next.index()] = 1;
                        stack.push((next, 0));
                    }
                    1 => {
                        // Back edge: the cycle is the stack suffix from
                        // `next` back to `id`, closed by this edge.
                        let start = stack
                            .iter()
                            .position(|&(s, _)| s == next)
                            .unwrap_or(stack.len() - 1);
                        let mut trace: Vec<String> =
                            stack[start..].iter().map(|&(s, _)| label(s)).collect();
                        trace.push(label(next));
                        rep.push(
                            Diagnostic::new(
                                Severity::Error,
                                DiagKind::CombCycle,
                                format!("combinational cycle: {}", trace.join(" -> ")),
                            )
                            .with_signal(
                                stack[start..].iter().find_map(|&(s, _)| {
                                    graph.node(s).name.as_deref().map(str::to_string)
                                }),
                            ),
                        );
                        break 'roots;
                    }
                    _ => {}
                }
            } else {
                state[id.index()] = 2;
                stack.pop();
            }
        }
    }
    rep.finish(AnalysisStats::default())
}

/// Schedule-legality and dataflow analysis of one [`SimPlan`].
pub fn analyze_plan(plan: &SimPlan) -> AnalysisReport {
    let mut rep = Reporter::default();
    let n = plan.num_slots;
    if plan.init_values.len() != n {
        rep.push(Diagnostic::new(
            Severity::Error,
            DiagKind::SlotOutOfBounds,
            format!(
                "init_values holds {} entries for {} slots",
                plan.init_values.len(),
                n
            ),
        ));
    }
    let named = |slot: u32| slot_name(plan, slot);

    // --- Slot write map: who produces what, duplicate writes. ---
    let mut written_by: Vec<Option<(usize, usize)>> = vec![None; n];
    for (i, layer) in plan.layers.iter().enumerate() {
        for (k, op) in layer.iter().enumerate() {
            let out = op.out as usize;
            if out >= n {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::SlotOutOfBounds,
                        format!("op output slot {} out of bounds ({} slots)", op.out, n),
                    )
                    .at_op(i, k)
                    .on_slot(op.out),
                );
                continue;
            }
            if let Some((pl, pk)) = written_by[out] {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::DuplicateWrite,
                        format!(
                            "slot {} written at layer {} op {} and again here",
                            op.out, pl, pk
                        ),
                    )
                    .with_signal(named(op.out))
                    .at_op(i, k)
                    .on_slot(op.out),
                );
            } else {
                written_by[out] = Some((i, k));
            }
        }
    }
    let op_written = |s: u32| (s as usize) < n && written_by[s as usize].is_some();

    // --- Source-slot classification. ---
    let reg_slots: HashSet<u32> = plan.commits.iter().map(|&(dst, _)| dst).collect();
    let input_slots: HashSet<u32> = plan.input_slots.iter().copied().collect();
    let in_consts = |s: u32| s >= plan.const_slots.0 && s < plan.const_slots.1;

    // A layer op writing a register/input/constant slot bypasses commit
    // semantics (registers must only change at end of cycle).
    for &s in reg_slots.iter().chain(input_slots.iter()) {
        if op_written(s) {
            let (i, k) = written_by[s as usize].expect("`op_written` saw its writer");
            rep.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagKind::SourceOverwrite,
                    format!(
                        "layer op writes {} slot {} directly",
                        if reg_slots.contains(&s) {
                            "register"
                        } else {
                            "input"
                        },
                        s
                    ),
                )
                .with_signal(named(s))
                .at_op(i, k)
                .on_slot(s),
            );
        }
    }

    // --- Schedule legality: strictly-earlier-layer availability. ---
    let mut available: Vec<bool> = (0..n as u32).map(|s| !op_written(s)).collect();
    for (i, layer) in plan.layers.iter().enumerate() {
        for (k, op) in layer.iter().enumerate() {
            if let Err(msg) = check_op_shape(op) {
                rep.push(Diagnostic::new(Severity::Error, DiagKind::MalformedOp, msg).at_op(i, k));
            }
            for &r in &op.ins {
                if r as usize >= n {
                    rep.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagKind::SlotOutOfBounds,
                            format!("operand slot {} out of bounds ({} slots)", r, n),
                        )
                        .at_op(i, k)
                        .on_slot(r),
                    );
                } else if !available[r as usize] {
                    let produced = written_by[r as usize]
                        .map(|(l, _)| format!("layer {l}"))
                        .unwrap_or_else(|| "nowhere".into());
                    rep.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagKind::UseBeforeDef,
                            format!(
                                "operand slot {} read at layer {} but produced at {}",
                                r, i, produced
                            ),
                        )
                        .with_signal(named(r))
                        .at_op(i, k)
                        .on_slot(r),
                    );
                }
            }
        }
        // Outputs become readable only from the *next* layer: ops within
        // a layer must be independent (the levelization barrier).
        for op in layer {
            if (op.out as usize) < n {
                available[op.out as usize] = true;
            }
        }
    }

    // --- Commit staging: bounds and alias-freedom. ---
    let mut commit_dst: HashMap<u32, usize> = HashMap::new();
    for (c, &(dst, src)) in plan.commits.iter().enumerate() {
        for (what, s) in [("destination", dst), ("source", src)] {
            if s as usize >= n {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::CommitOutOfBounds,
                        format!("commit {} {} slot {} out of bounds", c, what, s),
                    )
                    .on_slot(s),
                );
            }
        }
        if let Some(prev) = commit_dst.insert(dst, c) {
            rep.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagKind::CommitAlias,
                    format!(
                        "commits {} and {} both target register slot {} — \
                         split_commits assumes register destinations are unique",
                        prev, c, dst
                    ),
                )
                .with_signal(named(dst))
                .on_slot(dst),
            );
        }
    }

    // --- Port/probe tables stay inside the tensor. ---
    for (name, s) in plan
        .output_slots
        .iter()
        .map(|(nm, s)| (nm.as_str(), *s))
        .chain(plan.probes.iter().map(|(nm, s, _)| (nm.as_str(), *s)))
        .chain(plan.input_slots.iter().map(|&s| ("", s)))
    {
        if s as usize >= n {
            rep.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagKind::SlotOutOfBounds,
                    format!("port/probe slot {} out of bounds ({} slots)", s, n),
                )
                .with_signal((!name.is_empty()).then(|| name.to_string()))
                .on_slot(s),
            );
        }
    }

    // --- Uninitialized reads: reads of slots nothing ever drives. ---
    let driven = |s: u32| {
        op_written(s) || reg_slots.contains(&s) || input_slots.contains(&s) || in_consts(s)
    };
    for (i, layer) in plan.layers.iter().enumerate() {
        for (k, op) in layer.iter().enumerate() {
            for &r in &op.ins {
                if (r as usize) < n && !driven(r) {
                    rep.push(
                        Diagnostic::new(
                            Severity::Warn,
                            DiagKind::UninitRead,
                            format!(
                                "slot {} is never driven (not an input, constant, \
                                 register, or op output); reads see its power-on value",
                                r
                            ),
                        )
                        .with_signal(named(r))
                        .at_op(i, k)
                        .on_slot(r),
                    );
                }
            }
        }
    }

    // --- Dead ops: backward liveness from everything observable. ---
    let mut live: Vec<bool> = vec![false; n];
    for &(_, s) in &plan.output_slots {
        if (s as usize) < n {
            live[s as usize] = true;
        }
    }
    for &(_, s, _) in &plan.probes {
        if (s as usize) < n {
            live[s as usize] = true;
        }
    }
    for &(dst, src) in &plan.commits {
        for s in [dst, src] {
            if (s as usize) < n {
                live[s as usize] = true;
            }
        }
    }
    let mut dead_ops = 0usize;
    for (i, layer) in plan.layers.iter().enumerate().rev() {
        for (k, op) in layer.iter().enumerate().rev() {
            if (op.out as usize) < n && live[op.out as usize] {
                for &r in &op.ins {
                    if (r as usize) < n {
                        live[r as usize] = true;
                    }
                }
            } else {
                dead_ops += 1;
                rep.push(
                    Diagnostic::new(
                        Severity::Warn,
                        DiagKind::DeadOp,
                        format!("op result in slot {} reaches nothing observable", op.out),
                    )
                    .at_op(i, k)
                    .on_slot(op.out),
                );
            }
        }
    }

    // --- Never-toggling signals + fan-in-weighted activity estimate. ---
    // Constant propagation: constants are known; inputs and registers are
    // not (a register's init may be displaced any cycle).
    let mut known: HashMap<u32, u64> = HashMap::new();
    for s in plan.const_slots.0..plan.const_slots.1 {
        if let Some(&v) = plan.init_values.get(s as usize) {
            known.insert(s, v);
        }
    }
    let mut never_toggling = 0usize;
    let mut layer_activity: Vec<f64> = Vec::with_capacity(plan.layers.len());
    let mut ins_buf: Vec<u64> = Vec::new();
    for layer in &plan.layers {
        let mut activity = 0.0f64;
        for op in layer {
            let mut folded = false;
            // Only fold shape-checked ops: `eval` indexes operands and
            // params, and this pass must never panic on corrupted input.
            if let Ok(d) = check_op_shape(op) {
                ins_buf.clear();
                if op
                    .ins
                    .iter()
                    .all(|r| known.get(r).map(|&v| ins_buf.push(v)).is_some())
                {
                    let v = crate::op::eval(d, &op.params, &ins_buf, op.width as u32, op.signed);
                    known.insert(op.out, v);
                    folded = true;
                }
            }
            if folded {
                never_toggling += 1;
                if let Some(name) = named(op.out) {
                    rep.push(
                        Diagnostic::new(
                            Severity::Info,
                            DiagKind::NeverToggles,
                            "signal is constant every cycle",
                        )
                        .with_signal(Some(name))
                        .on_slot(op.out),
                    );
                }
            } else {
                activity += 1.0 + op.ins.len() as f64;
            }
        }
        layer_activity.push(activity);
    }
    let total_activity = layer_activity.iter().sum();

    rep.finish(AnalysisStats {
        ops: plan.total_ops(),
        layers: plan.layers.len(),
        slots: n,
        registers: plan.commits.len(),
        dead_ops,
        never_toggling,
        errors: 0,
        warnings: 0,
        layer_activity,
        total_activity,
    })
}

/// RUM coverage, single ownership, and home-map verification of a
/// [`PartitionedPlan`] against its source plan.
pub fn analyze_partitioned(plan: &SimPlan, pp: &PartitionedPlan) -> AnalysisReport {
    let mut rep = Reporter::default();
    let np = pp.partitions.len() as u32;
    let named = |slot: u32| slot_name(plan, slot);
    let reg_slots: HashSet<u32> = plan.commits.iter().map(|&(dst, _)| dst).collect();

    // --- RUM shape: one entry per plan commit, in plan order. ---
    if pp.rum.len() != plan.commits.len() {
        rep.push(Diagnostic::new(
            Severity::Error,
            DiagKind::RumShapeMismatch,
            format!(
                "RUM has {} entries for {} commits",
                pp.rum.len(),
                plan.commits.len()
            ),
        ));
    }
    let mut owner_of: HashMap<u32, u32> = HashMap::new();
    for (r, entry) in pp.rum.iter().enumerate() {
        if let Some(&(dst, _)) = plan.commits.get(r) {
            if entry.slot != dst {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::RumShapeMismatch,
                        format!(
                            "RUM entry {} covers slot {} but commit {} targets slot {}",
                            r, entry.slot, r, dst
                        ),
                    )
                    .on_slot(entry.slot),
                );
            }
        }
        if entry.owner >= np {
            rep.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagKind::RumOwnerMismatch,
                    format!(
                        "RUM entry {} owner {} out of range ({} partitions)",
                        r, entry.owner, np
                    ),
                )
                .on_slot(entry.slot),
            );
        }
        if entry.readers.contains(&entry.owner) {
            rep.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagKind::RumOwnerMismatch,
                    format!("RUM entry {} lists its owner among its readers", r),
                )
                .with_signal(named(entry.slot))
                .on_slot(entry.slot)
                .in_partition(entry.owner),
            );
        }
        if let Some(prev) = owner_of.insert(entry.slot, entry.owner) {
            if prev != entry.owner {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::RumOwnerMismatch,
                        format!(
                            "register slot {} claimed by owners {} and {}",
                            entry.slot, prev, entry.owner
                        ),
                    )
                    .with_signal(named(entry.slot))
                    .on_slot(entry.slot),
                );
            }
        }
    }

    // --- Single ownership: commits partition exactly by RUM owner. ---
    let mut committed_by: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
    for (p, part) in pp.partitions.iter().enumerate() {
        for &(dst, src) in &part.commits {
            committed_by.entry((dst, src)).or_default().push(p as u32);
            match owner_of.get(&dst) {
                Some(&owner) if owner != p as u32 => {
                    rep.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagKind::ForeignCommit,
                            format!(
                                "partition {} commits register slot {} owned by partition {}",
                                p, dst, owner
                            ),
                        )
                        .with_signal(named(dst))
                        .on_slot(dst)
                        .in_partition(p as u32),
                    );
                }
                Some(_) => {}
                None => {
                    rep.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagKind::ForeignCommit,
                            format!("partition {} commits slot {} with no RUM entry", p, dst),
                        )
                        .on_slot(dst)
                        .in_partition(p as u32),
                    );
                }
            }
        }
    }
    for (c, &pair) in plan.commits.iter().enumerate() {
        match committed_by.get(&pair).map(Vec::len).unwrap_or(0) {
            1 => {}
            0 => {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::ForeignCommit,
                        format!(
                            "no partition commits register slot {} (commit {})",
                            pair.0, c
                        ),
                    )
                    .with_signal(named(pair.0))
                    .on_slot(pair.0),
                );
            }
            m => {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::ForeignCommit,
                        format!(
                            "register slot {} committed by {} partitions (commit {})",
                            pair.0, m, c
                        ),
                    )
                    .with_signal(named(pair.0))
                    .on_slot(pair.0),
                );
            }
        }
    }

    // --- Coverage: every plan op in >= 1 partition at its layer, and no
    //     partition op absent from the plan layer. ---
    let nl = plan.layers.len();
    let mut covered: Vec<HashSet<u32>> = vec![HashSet::new(); nl];
    for (p, part) in pp.partitions.iter().enumerate() {
        if part.layers.len() != nl {
            rep.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagKind::UncoveredOp,
                    format!(
                        "partition {} has {} layers, plan has {}",
                        p,
                        part.layers.len(),
                        nl
                    ),
                )
                .in_partition(p as u32),
            );
        }
        for (i, layer) in part.layers.iter().enumerate().take(nl) {
            let plan_outs: HashSet<u32> = plan.layers[i].iter().map(|o| o.out).collect();
            for op in layer {
                if !plan_outs.contains(&op.out) {
                    rep.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagKind::UncoveredOp,
                            format!(
                                "partition {} schedules slot {} at layer {} \
                                 but the plan layer has no such op",
                                p, op.out, i
                            ),
                        )
                        .at_op(i, 0)
                        .on_slot(op.out)
                        .in_partition(p as u32),
                    );
                } else {
                    covered[i].insert(op.out);
                }
            }
        }
    }
    for (i, layer) in plan.layers.iter().enumerate() {
        for (k, op) in layer.iter().enumerate() {
            if !covered[i].contains(&op.out) {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::UncoveredOp,
                        format!("op writing slot {} appears in no partition", op.out),
                    )
                    .with_signal(named(op.out))
                    .at_op(i, k)
                    .on_slot(op.out),
                );
            }
        }
    }

    // --- Reader completeness: recompute who reads each register replica
    //     and check both directions against the RUM. ---
    let mut reads: Vec<HashSet<u32>> = Vec::with_capacity(pp.partitions.len());
    for (p, part) in pp.partitions.iter().enumerate() {
        let mut r: HashSet<u32> = part
            .layers
            .iter()
            .flatten()
            .flat_map(|op| op.ins.iter().copied())
            .filter(|s| reg_slots.contains(s))
            .collect();
        r.extend(
            part.commits
                .iter()
                .map(|&(_, src)| src)
                .filter(|s| reg_slots.contains(s)),
        );
        if p == 0 {
            r.extend(
                plan.output_slots
                    .iter()
                    .map(|&(_, s)| s)
                    .filter(|s| reg_slots.contains(s)),
            );
        }
        reads.push(r);
    }
    for entry in &pp.rum {
        for (q, read) in reads.iter().enumerate() {
            let q = q as u32;
            if q == entry.owner {
                continue;
            }
            let is_reader = entry.readers.contains(&q);
            if read.contains(&entry.slot) && !is_reader {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::MissingRumReader,
                        format!(
                            "partition {} reads register slot {} but is not in its RUM readers",
                            q, entry.slot
                        ),
                    )
                    .with_signal(named(entry.slot))
                    .on_slot(entry.slot)
                    .in_partition(q),
                );
            } else if !read.contains(&entry.slot) && is_reader {
                rep.push(
                    Diagnostic::new(
                        Severity::Warn,
                        DiagKind::ExtraRumReader,
                        format!(
                            "RUM lists partition {} as a reader of slot {} but it never reads it",
                            q, entry.slot
                        ),
                    )
                    .on_slot(entry.slot)
                    .in_partition(q),
                );
            }
        }
    }

    // --- Home map: every slot's authoritative replica exists. ---
    if pp.home.len() != plan.num_slots {
        rep.push(Diagnostic::new(
            Severity::Error,
            DiagKind::HomeMismatch,
            format!(
                "home map covers {} slots, plan has {}",
                pp.home.len(),
                plan.num_slots
            ),
        ));
    } else {
        for (s, &h) in pp.home.iter().enumerate() {
            if h >= np {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::HomeMismatch,
                        format!("home[{}] = {} out of range ({} partitions)", s, h, np),
                    )
                    .on_slot(s as u32),
                );
            }
        }
        for entry in &pp.rum {
            if let Some(&h) = pp.home.get(entry.slot as usize) {
                if h != entry.owner {
                    rep.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagKind::HomeMismatch,
                            format!(
                                "home[{}] = {} but RUM owner is {}",
                                entry.slot, h, entry.owner
                            ),
                        )
                        .with_signal(named(entry.slot))
                        .on_slot(entry.slot),
                    );
                }
            }
        }
        for (i, layer) in plan.layers.iter().enumerate() {
            for op in layer {
                let h = pp.home[op.out as usize] as usize;
                let computes = pp
                    .partitions
                    .get(h)
                    .and_then(|part| part.layers.get(i))
                    .map(|l| l.iter().any(|o| o.out == op.out))
                    .unwrap_or(false);
                if !computes {
                    rep.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagKind::HomeMismatch,
                            format!(
                                "home[{}] = {} but that partition never computes the slot",
                                op.out, h
                            ),
                        )
                        .with_signal(named(op.out))
                        .on_slot(op.out),
                    );
                }
            }
        }
    }

    rep.finish(AnalysisStats {
        ops: pp.replicated_ops,
        layers: plan.layers.len(),
        slots: plan.num_slots,
        registers: plan.commits.len(),
        ..AnalysisStats::default()
    })
}

/// Kernel-table verification: the compiled layers' folded offsets,
/// masks, and shifts against the source plan, and the table's lane type
/// against the slot types re-derived from it. A clean report here is what
/// makes the raw-pointer kernels in-bounds by construction (the engines
/// allocate `num_slots` rows of the table's lane type and `debug_assert!`
/// the same bounds) and a narrow table exact: every `u32` kernel's mask
/// fits 32 bits, every slot it touches is a 32-bit slot, and
/// [`narrow_exact`] holds of it in the variant it was compiled as.
pub fn analyze_compiled(plan: &SimPlan, compiled: &[CompiledLayer]) -> AnalysisReport {
    let mut rep = Reporter::default();
    let n = plan.num_slots;
    let layout = LaneLayout::of(plan);
    let lane = compiled.iter().flatten().next().map(|c| c.lane_type());
    if compiled.len() != plan.layers.len() {
        rep.push(Diagnostic::new(
            Severity::Error,
            DiagKind::KernelShapeMismatch,
            format!(
                "compiled table has {} layers, plan has {}",
                compiled.len(),
                plan.layers.len()
            ),
        ));
    }
    for (i, (player, clayer)) in plan.layers.iter().zip(compiled.iter()).enumerate() {
        if player.len() != clayer.len() {
            rep.push(
                Diagnostic::new(
                    Severity::Error,
                    DiagKind::KernelShapeMismatch,
                    format!(
                        "layer {} compiles {} ops for {} plan ops",
                        i,
                        clayer.len(),
                        player.len()
                    ),
                )
                .at_op(i, 0),
            );
            continue;
        }
        for (k, (op, c)) in player.iter().zip(clayer.iter()).enumerate() {
            if c.out_slot() != op.out || c.opcode() != DfgOp::from_n_coord(op.n) {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::KernelShapeMismatch,
                        format!(
                            "compiled op (out {}, opcode {:?}) disagrees with plan \
                             (out {}, opcode {:?})",
                            c.out_slot(),
                            c.opcode(),
                            op.out,
                            DfgOp::from_n_coord(op.n)
                        ),
                    )
                    .at_op(i, k),
                );
            }
            let slots = c.operand_slots();
            if slots.as_slice() != op.ins.get(..slots.len()).unwrap_or(&[]) {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::KernelShapeMismatch,
                        format!(
                            "compiled operand slots {:?} disagree with plan {:?}",
                            slots, op.ins
                        ),
                    )
                    .at_op(i, k),
                );
            }
            for &s in std::iter::once(&c.out_slot()).chain(slots.iter()) {
                if s as usize >= n {
                    rep.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagKind::KernelOutOfBounds,
                            format!(
                                "compiled kernel references slot {} outside the \
                                 {}-slot LI tensor",
                                s, n
                            ),
                        )
                        .at_op(i, k)
                        .on_slot(s),
                    );
                }
            }
            if Some(c.lane_type()) != lane {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::KernelLaneMismatch,
                        format!(
                            "kernel walks {:?} rows in a table of {lane:?} ones",
                            c.lane_type()
                        ),
                    )
                    .at_op(i, k),
                );
            }
            if c.lane_type() == LaneType::Narrow {
                let types = layout.slot_types();
                let operands: Vec<SlotType> = slots
                    .iter()
                    .filter_map(|&s| types.get(s as usize).copied())
                    .collect();
                let wide_slot = std::iter::once(c.out_slot())
                    .chain(slots.iter().copied())
                    .find(|&s| types.get(s as usize).is_some_and(|&(w, _)| w > 32));
                let form = c.opcode().map(|d| narrow_exact(d, &operands, &op.params));
                let fault = if let Some(s) = wide_slot {
                    Some(format!("slot {s} is {} bits wide", types[s as usize].0))
                } else if c.mask() > u32::MAX as u64 {
                    Some(format!("mask {:#x} does not fit 32 bits", c.mask()))
                } else if operands.len() != slots.len() || form != Some(c.narrow_form()) {
                    Some(format!(
                        "compiled as {:?}, narrow_exact on {operands:?} says {form:?}",
                        c.narrow_form()
                    ))
                } else {
                    None
                };
                if let Some(fault) = fault {
                    rep.push(
                        Diagnostic::new(
                            Severity::Error,
                            DiagKind::KernelLaneMismatch,
                            format!("kernel for u32 rows: {fault}"),
                        )
                        .with_signal(slot_name(plan, op.out))
                        .at_op(i, k)
                        .on_slot(op.out),
                    );
                }
            }
            let bits = c.lane_type().bits();
            let width = (op.width as u32).clamp(1, bits);
            if c.mask() != mask(width) || c.shift() != bits - width || c.is_signed() != op.signed {
                rep.push(
                    Diagnostic::new(
                        Severity::Error,
                        DiagKind::KernelCanonMismatch,
                        format!(
                            "folded canonicalization (mask {:#x}, shift {}, signed {}) \
                             disagrees with declared width {} signed {}",
                            c.mask(),
                            c.shift(),
                            c.is_signed(),
                            op.width,
                            op.signed
                        ),
                    )
                    .with_signal(slot_name(plan, op.out))
                    .at_op(i, k)
                    .on_slot(op.out),
                );
            }
        }
    }
    rep.finish(AnalysisStats {
        ops: plan.total_ops(),
        layers: plan.layers.len(),
        slots: n,
        registers: plan.commits.len(),
        ..AnalysisStats::default()
    })
}

/// The full single-design verification the compiler runs on every
/// compile: plan legality + dataflow analyses, then — only when the plan
/// is structurally sound enough to lower safely — the compiled kernel
/// table check.
pub fn analyze_design(plan: &SimPlan) -> AnalysisReport {
    let mut report = analyze_plan(plan);
    // Lowering calls `OpInst::op()`, which panics on malformed opcodes,
    // so only compile a shape-valid plan (out-of-bounds *slots* are fine
    // to lower — the kernel check flags them without executing anything).
    if !report.has(DiagKind::MalformedOp) {
        report.merge(analyze_compiled(plan, &compile_plan(plan)));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RegDef;
    use crate::plan::{plan, OpInst, PlanStats};
    use crate::{build, passes};
    use rteaal_firrtl::{lower::lower_typed, parser::parse};

    const MIXED: &str = "\
circuit Mixed :
  module Mixed :
    input clock : Clock
    input en : UInt<1>
    input x : SInt<8>
    output y : SInt<8>
    output flag : UInt<1>
    reg acc : SInt<8>, clock
    reg cnt : UInt<8>, clock
    node sum = add(acc, x)
    node nxt = mux(en, asSInt(tail(sum, 1)), acc)
    acc <= nxt
    cnt <= tail(add(cnt, UInt<8>(1)), 1)
    y <= acc
    flag <= gt(cnt, UInt<8>(10))
";

    fn mixed_plan() -> SimPlan {
        let g = build(&lower_typed(&parse(MIXED).unwrap()).unwrap()).unwrap();
        let (g, _) = passes::optimize(&g, &passes::PassOptions::default());
        plan(&g)
    }

    #[test]
    fn corpus_plan_is_clean() {
        let p = mixed_plan();
        let report = analyze_design(&p);
        assert!(report.is_clean(), "unexpected errors: {report}");
        assert_eq!(report.stats.dead_ops, 0);
        assert_eq!(report.stats.layers, p.layers.len());
        assert!(report.stats.total_activity > 0.0);
        assert_eq!(report.stats.layer_activity.len(), p.layers.len());
    }

    #[test]
    fn partitioned_corpus_is_clean() {
        let p = mixed_plan();
        for parts in 1..=3 {
            let pp = PartitionedPlan::new(&p, parts);
            let report = analyze_partitioned(&p, &pp);
            assert!(report.is_clean(), "{parts} partitions: {report}");
        }
    }

    #[test]
    fn shuffled_layer_is_use_before_def() {
        let mut p = mixed_plan();
        assert!(p.layers.len() >= 2, "fixture needs >= 2 layers");
        p.layers.reverse();
        let report = analyze_plan(&p);
        assert!(report.has(DiagKind::UseBeforeDef), "{report}");
        assert!(!report.is_clean());
    }

    #[test]
    fn out_of_bounds_operand_is_caught_in_plan_and_kernels() {
        let mut p = mixed_plan();
        p.layers[0][0].ins[0] = p.num_slots as u32 + 7;
        let report = analyze_plan(&p);
        assert!(report.has(DiagKind::SlotOutOfBounds), "{report}");
        // The kernel check catches the same corruption independently.
        let compiled = compile_plan(&p);
        let kreport = analyze_compiled(&p, &compiled);
        assert!(kreport.has(DiagKind::KernelOutOfBounds), "{kreport}");
    }

    #[test]
    fn a_narrow_table_is_checked_against_the_plans_slot_types() {
        // MIXED is an 8-bit design, so its table is for `u32` rows; its
        // `lt(acc, x)`-style ops are exact there. The same table against
        // a plan that outgrew 32 bits, or whose operand types make an op
        // inexact, or mixed with a `u64` kernel, must be refused.
        let p = mixed_plan();
        let compiled = compile_plan(&p);
        assert!(compiled
            .iter()
            .flatten()
            .all(|c| c.lane_type() == LaneType::Narrow));
        assert!(analyze_compiled(&p, &compiled).is_clean());

        let mut grown = p.clone();
        grown.layers[0][0].width = 33;
        let report = analyze_compiled(&grown, &compiled);
        assert!(report.has(DiagKind::KernelLaneMismatch), "{report}");

        // `gt(cnt, 10)` with the counter re-typed as a signed 32-bit
        // register and the constant grown to use bit 31: an unsigned
        // order across one sign-extended and one zero-extended operand,
        // which no `u32` kernel computes.
        let mut retyped = p.clone();
        let cnt = retyped.signal_slot("cnt").expect("cnt is probed");
        retyped.signed_probes.push(cnt);
        retyped.signed_probes.sort_unstable();
        retyped.probes.iter_mut().find(|pr| pr.1 == cnt).unwrap().2 = 32;
        let mut ops = retyped.layers.iter().flatten();
        let gt = ops.find(|op| op.op() == DfgOp::Gtu && op.ins[0] == cnt);
        let ten = gt.expect("flag compares cnt").ins[1];
        retyped.init_values[ten as usize] = 1 << 31;
        let report = analyze_compiled(&retyped, &compiled);
        assert!(report.has(DiagKind::KernelLaneMismatch), "{report}");

        let mut mixed = compiled.clone();
        mixed[0][0] = crate::lane_kernel::CompiledOp::compile(&p.layers[0][0]);
        let report = analyze_compiled(&p, &mixed);
        assert!(report.has(DiagKind::KernelLaneMismatch), "{report}");
    }

    #[test]
    fn corrupted_rum_owner_is_caught() {
        let p = mixed_plan();
        let mut pp = PartitionedPlan::new(&p, 2);
        assert!(!pp.rum.is_empty());
        let np = pp.partitions.len() as u32;
        pp.rum[0].owner = (pp.rum[0].owner + 1) % np;
        let report = analyze_partitioned(&p, &pp);
        assert!(!report.is_clean(), "{report}");
        assert!(
            report.has(DiagKind::ForeignCommit) || report.has(DiagKind::RumOwnerMismatch),
            "{report}"
        );
    }

    #[test]
    fn dropped_rum_reader_is_caught() {
        let p = mixed_plan();
        let mut pp = PartitionedPlan::new(&p, 2);
        let target = pp
            .rum
            .iter()
            .position(|e| !e.readers.is_empty())
            .expect("fixture has a cross-partition register");
        pp.rum[target].readers.clear();
        let report = analyze_partitioned(&p, &pp);
        assert!(report.has(DiagKind::MissingRumReader), "{report}");
    }

    #[test]
    fn injected_comb_cycle_has_named_trace() {
        // Build a legal graph, then corrupt it into a cycle the way a
        // buggy pass could: a -> b -> a.
        let mut g = Graph::new("cyclic");
        let x = g.add_source(DfgOp::Input, 8, false, "x".into());
        g.inputs.push(x);
        let a = g.add_op(DfgOp::Add, &[], &[x, x], 8, false);
        let b = g.add_op(DfgOp::Not, &[], &[a], 8, false);
        g.set_name(a, "sig_a");
        g.set_name(b, "sig_b");
        g.outputs.push(("y".into(), b));
        g.node_mut(a).operands[0] = b;
        let report = analyze_graph(&g);
        assert!(report.has(DiagKind::CombCycle));
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagKind::CombCycle)
            .unwrap();
        assert!(
            diag.message.contains("sig_a") && diag.message.contains("sig_b"),
            "trace should name the signals: {}",
            diag.message
        );
        assert_eq!(diag.severity, Severity::Error);
        // An intact graph reports nothing.
        let clean = build(&lower_typed(&parse(MIXED).unwrap()).unwrap()).unwrap();
        assert!(analyze_graph(&clean).is_clean());
        assert!(analyze_graph(&clean).diagnostics.is_empty());
    }

    #[test]
    fn hand_built_violations_have_typed_kinds() {
        // A tiny hand-built plan exercising kinds the compiler-produced
        // corpus can never contain.
        let mk = |op: DfgOp, out: u32, ins: Vec<u32>| OpInst {
            n: op.n_coord(),
            out,
            ins,
            params: Vec::new(),
            width: 8,
            signed: false,
        };
        let base = SimPlan {
            name: "hand".into(),
            num_slots: 6,
            input_slots: vec![0],
            input_types: vec![(8, false)],
            output_slots: vec![("o".into(), 4)],
            const_slots: (0, 0),
            commits: vec![(1, 4)],
            init_values: vec![0; 6],
            layers: vec![
                vec![mk(DfgOp::Add, 3, vec![0, 1])],
                vec![mk(DfgOp::Not, 4, vec![3])],
            ],
            stats: PlanStats::default(),
            probes: vec![("r".into(), 1, 8)],
            signed_probes: vec![],
        };
        assert!(analyze_plan(&base).is_clean());

        // Duplicate write.
        let mut p = base.clone();
        p.layers[1].push(mk(DfgOp::Not, 3, vec![0]));
        assert!(analyze_plan(&p).has(DiagKind::DuplicateWrite));

        // Register slot written by a layer op.
        let mut p = base.clone();
        p.layers[1][0].out = 1;
        assert!(analyze_plan(&p).has(DiagKind::SourceOverwrite));

        // Aliased commits.
        let mut p = base.clone();
        p.commits.push((1, 3));
        assert!(analyze_plan(&p).has(DiagKind::CommitAlias));

        // Arity violation.
        let mut p = base.clone();
        p.layers[0][0].ins.push(0);
        assert!(analyze_plan(&p).has(DiagKind::MalformedOp));

        // A static shift past the widest signal: named with its op.
        let mut p = base.clone();
        p.layers[1][0].n = DfgOp::Shl.n_coord();
        p.layers[1][0].params = vec![70];
        let report = analyze_plan(&p);
        let diag = report.errors().find(|d| d.kind == DiagKind::MalformedOp);
        let diag = diag.expect("shl by 70 is malformed");
        assert!(diag.message.contains("parameter 70 exceeds 64"), "{diag}");
        assert_eq!((diag.layer, diag.op), (Some(1), Some(0)), "{diag}");
        p.layers[1][0].params = vec![64];
        assert!(analyze_plan(&p).is_clean());

        // Same-layer read: strictly-earlier-layer rule.
        let mut p = base.clone();
        p.layers[0].push(mk(DfgOp::Not, 5, vec![3]));
        p.layers[1][0].ins[0] = 5;
        assert!(analyze_plan(&p).has(DiagKind::UseBeforeDef));

        // Undriven slot read.
        let mut p = base.clone();
        p.layers[0][0].ins[1] = 2;
        let r = analyze_plan(&p);
        assert!(r.has(DiagKind::UninitRead));
        assert!(r.is_clean(), "uninit read is a warning: {r}");

        // Dead op.
        let mut p = base.clone();
        p.layers[0].push(mk(DfgOp::Not, 5, vec![0]));
        let r = analyze_plan(&p);
        assert!(r.has(DiagKind::DeadOp));
        assert_eq!(r.stats.dead_ops, 1);
    }

    #[test]
    fn never_toggling_registers_in_stats() {
        // y = 3 + 4 over constant slots: folds to a constant.
        let mut g = Graph::new("consts");
        let a = g.add_const(3, 8, false);
        let b = g.add_const(4, 8, false);
        let sum = g.add_op(DfgOp::Add, &[], &[a, b], 8, false);
        g.set_name(sum, "const_sum");
        g.outputs.push(("y".into(), sum));
        let state = g.add_source(DfgOp::RegState, 8, false, "r".into());
        g.regs.push(RegDef {
            state,
            next: sum,
            init: 0,
            name: "r".into(),
        });
        let p = plan(&g);
        let report = analyze_plan(&p);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.stats.never_toggling, 1);
        assert!(report.has(DiagKind::NeverToggles));
    }

    #[test]
    fn diagnostics_serialize_round_trip() {
        let d = Diagnostic::new(Severity::Error, DiagKind::UseBeforeDef, "msg")
            .with_signal(Some("sig".into()))
            .at_op(2, 3)
            .on_slot(7);
        let json = serde_json::to_string(&d).unwrap();
        let back: Diagnostic = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
        let report = analyze_design(&mixed_plan());
        let json = serde_json::to_string(&report.stats).unwrap();
        let back: AnalysisStats = serde_json::from_str(&json).unwrap();
        assert_eq!(report.stats, back);
    }
}
