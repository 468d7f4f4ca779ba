//! Lowering from the type-checked FIRRTL AST to a [`FlatModule`].
//!
//! The pipeline mirrors what the RTeAAL Sim compiler front end does before
//! dataflow-graph construction (paper §6.1, Figure 14):
//!
//! 1. **Instance flattening** — the module hierarchy is inlined into one
//!    module; sub-module signals are renamed `inst.signal` (which is also
//!    how cross-module references, §6.2 "XMR", surface: every internal
//!    signal of every instance remains addressable by its hierarchical
//!    name).
//! 2. **Memory lowering** — `mem` statements become per-cell registers, a
//!    combinational read mux tree, and per-cell write-enable muxes. This is
//!    the documented substitution for FIRRTL memories (DESIGN.md §4.6).
//! 3. **`when` resolution** — conditional connects are folded into muxes
//!    with FIRRTL's last-connect-wins semantics, producing exactly one
//!    next-state expression per register and one value expression per wire
//!    and output port.
//!
//! The result is a [`FlatModule`]: inputs, registers with next-state
//! expressions, named combinational bindings, and outputs — the direct
//! input to `rteaal-dfg`'s graph construction.
//!
//! ## Id tables
//!
//! Nothing here looks a name up. `check_module` numbers each module's
//! signals and resolves its expressions into [`Term`]s over those numbers;
//! the three stages above are one walk over the typed statements. The top
//! module's signals are the flat design's first ones and its term arena
//! the start of the flat one, taken over without a copy. An instance
//! stamps its module in: the module's own signals get the next flat ids,
//! its ports map onto the parent's `inst.port` signals, and its terms are
//! appended with their operands and signals shifted. A flat signal's name
//! is written once, into one [`Names`] buffer — under an instance, as
//! `inst.name`. `when` resolution keeps the last connect of every flat
//! signal in a `Vec` indexed by id, with an undo log to leave a branch, and
//! shares a condition between the muxes it builds instead of copying it.

use crate::ast::{Circuit, Direction};
use crate::error::{FirrtlError, Result};
use crate::infer::{check_module, mem_addr_width, TypedModule, TypedStmt};
use crate::ops::PrimOp;
use crate::term::{push, same_expr, SignalId, Term, TermId};
use crate::ty::Type;
use std::collections::HashSet;
use std::fmt::{self, Write};

/// The names of a flat module's signals, by [`SignalId`], in one buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Names {
    text: String,
    /// Where each name ends in `text`.
    ends: Vec<u32>,
}

impl Names {
    /// The name of signal `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn get(&self, id: SignalId) -> &str {
        let end = self.ends[id.index()] as usize;
        let start = match id.index() {
            0 => 0,
            i => self.ends[i - 1] as usize,
        };
        &self.text[start..end]
    }

    /// Every name, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len()).map(|i| self.get(SignalId(i as u32)))
    }

    /// Appends `prefix` followed by `name` as the next signal's name.
    fn push(&mut self, prefix: &str, name: impl fmt::Display) {
        self.text.push_str(prefix);
        write!(self.text, "{name}").expect("a String takes any write");
        self.ends.push(self.text.len() as u32);
    }
}

/// A register in the flattened design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatReg {
    /// The register's signal.
    pub id: SignalId,
    /// Next-state expression, evaluated every cycle (already includes the
    /// synchronous-reset mux if the register had one).
    pub next: TermId,
    /// Power-on value (0 unless the register came from an initialized
    /// memory).
    pub init: u64,
}

/// A fully lowered, flat, single-module design over one signal table and
/// one term arena.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatModule {
    /// Design name (the circuit's top module name).
    pub name: String,
    /// Every signal's hierarchical name (e.g. `core0.alu.acc`), by id.
    pub names: Names,
    /// Every signal's declared type, by id.
    pub types: Vec<Type>,
    /// Every expression of the design; the lists below refer into it.
    pub terms: Vec<Term>,
    /// Non-clock input ports, in port order.
    pub inputs: Vec<SignalId>,
    /// Clock input ports (at most one is accepted; the paper targets a
    /// single clock domain, §6.2).
    pub clocks: Vec<SignalId>,
    /// Output ports, in port order, with their final driving expressions.
    pub outputs: Vec<(SignalId, TermId)>,
    /// Registers with next-state expressions, in definition order.
    pub regs: Vec<FlatReg>,
    /// Named combinational bindings from `node`s (and memory read trees),
    /// in definition order.
    pub nodes: Vec<(SignalId, TermId)>,
    /// Wires (instance and memory ports included) with their final
    /// driving expressions, in definition order. Expressions may reference
    /// any signal.
    pub wires: Vec<(SignalId, TermId)>,
}

impl FlatModule {
    /// Total number of named signals (inputs + regs + nodes + wires +
    /// outputs).
    pub fn signal_count(&self) -> usize {
        self.inputs.len()
            + self.regs.len()
            + self.nodes.len()
            + self.wires.len()
            + self.outputs.len()
    }
}

/// Lowers and fully types a circuit: the main entry point used by the rest
/// of the workspace. Every module is checked and resolved once, then one
/// walk from the top stamps the hierarchy, lowers the memories and
/// resolves the `when`s.
///
/// # Errors
///
/// Returns an error if any module fails type checking, the hierarchy
/// contains an instance cycle, a wire or output is never driven, or the
/// top module is missing. A combinational cycle through wires is graph
/// construction's to refuse.
pub fn lower_typed(circuit: &Circuit) -> Result<FlatModule> {
    let top = circuit
        .modules
        .iter()
        .position(|m| m.name == circuit.name)
        .ok_or_else(|| FirrtlError::Lower(format!("no top module named {}", circuit.name)))?;
    let mut typed = circuit
        .modules
        .iter()
        .map(|module| check_module(circuit, module))
        .collect::<Result<Vec<_>>>()?;
    let top_module = &circuit.modules[top];
    // The top's signals and terms become the flat design's first ones; it
    // is never stamped again (that would be an instance cycle).
    let mut flat = FlatModule {
        name: top_module.name.clone(),
        terms: std::mem::take(&mut typed[top].terms),
        ..FlatModule::default()
    };
    for name in typed[top].env.names() {
        flat.names.push("", name);
    }
    flat.types = typed[top].env.types().to_vec();
    for (k, port) in top_module.ports.iter().enumerate() {
        match (port.dir, port.ty) {
            (Direction::Input, Type::Clock) => flat.clocks.push(SignalId(k as u32)),
            (Direction::Input, _) => flat.inputs.push(SignalId(k as u32)),
            (Direction::Output, _) => {} // filled below
        }
    }
    let mut walk = Walk {
        circuit,
        typed: &typed,
        has_clock: !flat.clocks.is_empty(),
        path: vec![top_module.name.as_str()],
        slots: vec![None; flat.types.len()],
        log: Vec::new(),
        branches: 0,
        seen: vec![0; flat.types.len()],
        generation: 0,
        other: vec![None; flat.types.len()],
        regs: Vec::new(),
        wires: Vec::new(),
        stamped: false,
        flat,
    };
    let ports = top_module.ports.len() as u32;
    let top_stamp = Stamp {
        ports: 0,
        nports: ports,
        base: ports,
        terms: 0,
    };
    walk.hold(&typed[top], top_stamp);
    walk.flatten_body(&typed[top].body, "", top_stamp)?;
    let Walk {
        mut flat,
        slots,
        regs,
        wires,
        stamped,
        ..
    } = walk;
    if stamped {
        unique_names(&flat.names)?;
    }
    if flat.clocks.len() > 1 {
        return Err(FirrtlError::Lower(format!(
            "{} clock inputs found; RTeAAL Sim targets a single clock domain (paper §6.2)",
            flat.clocks.len()
        )));
    }
    // Registers: apply synchronous reset with highest priority.
    for (id, reset) in regs {
        let mut next = slots[id.index()].expect("registers hold until connected");
        if let Some((rst, init)) = reset {
            next = push(&mut flat.terms, Term::Mux([rst, init, next]));
        }
        flat.regs.push(FlatReg { id, next, init: 0 });
    }
    // Wires must be driven.
    for id in wires {
        let value = slots[id.index()].ok_or_else(|| {
            FirrtlError::Lower(format!("wire {} is never driven", flat.names.get(id)))
        })?;
        flat.wires.push((id, value));
    }
    // Outputs must be driven.
    for (k, port) in top_module.ports.iter().enumerate() {
        if port.dir == Direction::Output {
            let value = slots[k].ok_or_else(|| {
                FirrtlError::Lower(format!("output {} is never driven", port.name))
            })?;
            flat.outputs.push((SignalId(k as u32), value));
        }
    }
    Ok(flat)
}

/// Where one instance of a module sits in the flat design: its ports are
/// the flat signals from `ports` on, its other signals the ones from
/// `base` on, its terms the ones from `terms` on.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    ports: u32,
    nports: u32,
    base: u32,
    terms: u32,
}

impl Stamp {
    /// The flat id of the module's signal `id`.
    fn signal(&self, id: SignalId) -> SignalId {
        if id.0 < self.nports {
            SignalId(self.ports + id.0)
        } else {
            SignalId(self.base + id.0 - self.nports)
        }
    }

    /// The flat id of the module's term `id`.
    fn term(&self, id: TermId) -> TermId {
        TermId(self.terms + id.0)
    }
}

/// The one walk from the top: flattening, memory lowering and `when`
/// resolution.
struct Walk<'c, 't> {
    circuit: &'c Circuit,
    /// Every module, typed, by position in `circuit.modules`.
    typed: &'t [TypedModule<'c>],
    /// Whether the top has a clock input to clock the memories.
    has_clock: bool,
    /// The modules being inlined, outermost first.
    path: Vec<&'c str>,
    flat: FlatModule,
    /// The last connect of every flat signal so far, as seen from where
    /// the walk is; registers start out holding their value.
    slots: Vec<Option<TermId>>,
    /// What a connect inside a `when` branch overwrote, to leave the
    /// branch by.
    log: Vec<(SignalId, Option<TermId>)>,
    /// How many `when` branches the walk is inside.
    branches: usize,
    /// Marks the targets of one branch, by `generation`.
    seen: Vec<u32>,
    generation: u32,
    /// The else-branch values of one `when` while it is merged.
    other: Vec<Option<TermId>>,
    /// Registers in definition order, with their `(reset, init)`.
    regs: Vec<(SignalId, Option<(TermId, TermId)>)>,
    /// Wires in definition order.
    wires: Vec<SignalId>,
    /// Whether any instance or memory named a signal here.
    stamped: bool,
}

impl<'c, 't> Walk<'c, 't> {
    /// Starts every register and memory cell of one instance holding its
    /// value.
    fn hold(&mut self, typed: &TypedModule<'_>, stamp: Stamp) {
        for &id in &typed.holds {
            let id = stamp.signal(id);
            self.slots[id.index()] = Some(push(&mut self.flat.terms, Term::Signal(id)));
        }
    }

    /// Stamps module `index` in as instance `prefix` whose ports are the
    /// flat signals from `ports` on, and walks its body.
    fn flatten_module(&mut self, index: usize, prefix: &str, ports: SignalId) -> Result<()> {
        let module = &self.circuit.modules[index];
        if self.path.contains(&module.name.as_str()) {
            return Err(FirrtlError::Lower(format!(
                "instance cycle: {} -> {}",
                self.path.join(" -> "),
                module.name
            )));
        }
        self.path.push(&module.name);
        let all = self.typed;
        let typed = &all[index];
        let nports = module.ports.len() as u32;
        let stamp = Stamp {
            ports: ports.0,
            nports,
            base: self.flat.types.len() as u32,
            terms: self.flat.terms.len() as u32,
        };
        let dotted = format!("{prefix}.");
        for name in &typed.env.names()[nports as usize..] {
            self.flat.names.push(&dotted, name);
        }
        self.flat
            .types
            .extend(&typed.env.types()[nports as usize..]);
        let signal = |id| stamp.signal(id);
        let terms = typed.terms.iter().map(|t| t.stamped(stamp.terms, signal));
        self.flat.terms.extend(terms);
        let n = self.flat.types.len();
        self.slots.resize(n, None);
        self.seen.resize(n, 0);
        self.other.resize(n, None);
        self.hold(typed, stamp);
        self.flatten_body(&typed.body, prefix, stamp)?;
        self.path.pop();
        Ok(())
    }

    fn flatten_body(&mut self, body: &'t [TypedStmt<'c>], prefix: &str, s: Stamp) -> Result<()> {
        for stmt in body {
            match stmt {
                TypedStmt::Wire(id) => self.wires.push(s.signal(*id)),
                TypedStmt::Reg { id, reset } => {
                    let reset = reset.map(|(rst, init)| (s.term(rst), s.term(init)));
                    self.regs.push((s.signal(*id), reset));
                }
                TypedStmt::Node { id, value } => {
                    self.flat.nodes.push((s.signal(*id), s.term(*value)));
                }
                TypedStmt::Connect { target, value } => {
                    self.connect(s.signal(*target), s.term(*value));
                }
                TypedStmt::Instance {
                    name,
                    module,
                    ports,
                } => {
                    self.stamped = true;
                    let inst = prefixed(prefix, name);
                    // Ports of the instance become wires named `inst.port`.
                    let first = s.signal(*ports);
                    let nports = self.circuit.modules[*module].ports.len() as u32;
                    self.wires.extend((first.0..first.0 + nports).map(SignalId));
                    self.flatten_module(*module, &inst, first)?;
                }
                TypedStmt::Mem {
                    name,
                    ty,
                    depth,
                    ports,
                } => self.lower_mem(prefix, name, *ty, *depth, s.signal(*ports))?,
                TypedStmt::When {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let then_own = self.branch(then_body, prefix, s)?;
                    let else_own = self.branch(else_body, prefix, s)?;
                    self.merge(s.term(*cond), &then_own, &else_own);
                }
            }
        }
        Ok(())
    }

    /// Connects `value` to `target`, last connect wins.
    fn connect(&mut self, target: SignalId, value: TermId) {
        let slot = &mut self.slots[target.index()];
        if self.branches > 0 {
            self.log.push((target, *slot));
        }
        *slot = Some(value);
    }

    /// Walks one branch of a `when` and leaves it: every target it
    /// connects, with its last value there.
    fn branch(
        &mut self,
        body: &'t [TypedStmt<'c>],
        prefix: &str,
        s: Stamp,
    ) -> Result<Vec<(SignalId, TermId)>> {
        let mark = self.log.len();
        self.branches += 1;
        self.flatten_body(body, prefix, s)?;
        self.branches -= 1;
        self.generation += 1;
        let mut own = Vec::new();
        for &(target, _) in &self.log[mark..] {
            if std::mem::replace(&mut self.seen[target.index()], self.generation) != self.generation
            {
                own.push((target, self.slots[target.index()].expect("connected here")));
            }
        }
        for (target, before) in self.log.drain(mark..).rev() {
            self.slots[target.index()] = before;
        }
        Ok(own)
    }

    /// Connects every target of a `when` over `cond` to what its two
    /// branches leave it: a target connected in one branch only holds its
    /// value in the other.
    fn merge(
        &mut self,
        cond: TermId,
        then_own: &[(SignalId, TermId)],
        else_own: &[(SignalId, TermId)],
    ) {
        for &(target, ev) in else_own {
            self.other[target.index()] = Some(ev);
        }
        for &(target, tv) in then_own {
            let ev = self.other[target.index()].take();
            let ev = ev.or(self.slots[target.index()]);
            self.merge_one(cond, target, Some(tv), ev);
        }
        for &(target, ev) in else_own {
            // Not taken above: connected in the else-branch only.
            if self.other[target.index()].take().is_some() {
                let tv = self.slots[target.index()];
                self.merge_one(cond, target, tv, Some(ev));
            }
        }
    }

    fn merge_one(
        &mut self,
        cond: TermId,
        target: SignalId,
        tv: Option<TermId>,
        ev: Option<TermId>,
    ) {
        let terms = &mut self.flat.terms;
        let merged = match (tv, ev) {
            (Some(tv), Some(ev)) if same_expr(terms, tv, ev) => tv,
            (Some(tv), Some(ev)) => push(terms, Term::Mux([cond, tv, ev])),
            // Driven only in the then-branch of a when with no prior
            // default: conditionally valid.
            (Some(tv), None) => push(terms, Term::ValidIf([cond, tv])),
            (None, Some(ev)) => {
                let zero = push(terms, Term::UIntLit { value: 0, width: 1 });
                let not = push(
                    terms,
                    Term::Prim {
                        op: PrimOp::Eq,
                        args: [cond, zero],
                        params: [0; 2],
                    },
                );
                push(terms, Term::ValidIf([not, ev]))
            }
            (None, None) => unreachable!("a target is connected in a branch"),
        };
        self.connect(target, merged);
    }

    /// Lowers a `mem` of the instance `prefix` whose ports are the flat
    /// signals from `ports` on and whose cells follow them: the port wires,
    /// a register per cell clocked by the design's clock, a write-enable
    /// mux per cell, a read mux tree.
    fn lower_mem(
        &mut self,
        prefix: &str,
        name: &str,
        ty: Type,
        depth: usize,
        ports: SignalId,
    ) -> Result<()> {
        self.stamped = true;
        if !self.has_clock {
            return Err(FirrtlError::Lower(format!(
                "memory {} requires a clock input port",
                prefixed(prefix, name)
            )));
        }
        if depth == 0 {
            return Err(FirrtlError::Lower(format!(
                "memory {} has zero depth",
                prefixed(prefix, name)
            )));
        }
        if ty.is_clock() {
            return Err(FirrtlError::Type(format!(
                "memory {} cannot hold a clock",
                prefixed(prefix, name)
            )));
        }
        let port = |k: u32| SignalId(ports.0 + k);
        let (raddr, rdata, waddr, wdata, wen) = (port(0), port(1), port(2), port(3), port(4));
        // Port wires keep their names so parent connects keep working.
        self.wires.extend([raddr, waddr, wdata, wen]);
        let aw = mem_addr_width(depth);
        let terms = &mut self.flat.terms;
        let [wen_t, waddr_t, wdata_t] = [wen, waddr, wdata].map(|s| push(terms, Term::Signal(s)));
        // One register per cell; write-enable mux on the next state.
        let mut cells = Vec::with_capacity(depth);
        for k in 0..depth {
            let cell = port(5 + k as u32);
            self.regs.push((cell, None));
            let terms = &mut self.flat.terms;
            let index = push(
                terms,
                Term::UIntLit {
                    value: k as u64,
                    width: aw,
                },
            );
            let eq = push(
                terms,
                Term::Prim {
                    op: PrimOp::Eq,
                    args: [waddr_t, index],
                    params: [0; 2],
                },
            );
            let hit = push(
                terms,
                Term::Prim {
                    op: PrimOp::And,
                    args: [wen_t, eq],
                    params: [0; 2],
                },
            );
            let hold = push(terms, Term::Signal(cell));
            cells.push(hold);
            let next = push(terms, Term::Mux([hit, wdata_t, hold]));
            self.connect(cell, next);
        }
        // Combinational read: balanced mux tree over the address bits.
        let terms = &mut self.flat.terms;
        let addr = push(terms, Term::Signal(raddr));
        let tree = mux_tree(terms, addr, &cells, aw, ty);
        self.flat.nodes.push((rdata, tree));
        Ok(())
    }
}

/// `name` as seen from the top, for a signal of the instance `prefix`.
fn prefixed(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Builds a balanced mux tree selecting `cells[addr]`; out-of-range
/// addresses (non-power-of-two depth) read as 0.
fn mux_tree(
    terms: &mut Vec<Term>,
    addr: TermId,
    cells: &[TermId],
    addr_width: u32,
    ty: Type,
) -> TermId {
    fn rec(
        terms: &mut Vec<Term>,
        addr: TermId,
        cells: &[TermId],
        bit: i64,
        lo: usize,
        span: usize,
        zero: TermId,
    ) -> TermId {
        if span == 1 {
            return cells.get(lo).copied().unwrap_or(zero);
        }
        if lo >= cells.len() {
            return zero;
        }
        let half = span / 2;
        let sel = push(
            terms,
            Term::Prim {
                op: PrimOp::Bits,
                args: [addr, TermId(0)],
                params: [bit as u64, bit as u64],
            },
        );
        let low = rec(terms, addr, cells, bit - 1, lo, half, zero);
        let high = rec(terms, addr, cells, bit - 1, lo + half, half, zero);
        push(terms, Term::Mux([sel, high, low]))
    }
    let zero = if ty.is_signed() {
        Term::SIntLit {
            value: 0,
            width: ty.width(),
        }
    } else {
        Term::UIntLit {
            value: 0,
            width: ty.width(),
        }
    };
    let zero = push(terms, zero);
    let span = 1usize << addr_width;
    rec(terms, addr, cells, addr_width as i64 - 1, 0, span, zero)
}

/// Refuses two flat signals of one name: only names an instance or a
/// memory made up can meet a declared one.
fn unique_names(names: &Names) -> Result<()> {
    let mut seen = HashSet::new();
    for name in names.iter().filter(|name| name.contains('.')) {
        if !seen.insert(name) {
            return Err(FirrtlError::Duplicate(name.to_string()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt};
    use crate::builder::{CircuitBuilder, ModuleBuilder};

    /// The expression `term` stands for, spelled with signal names.
    fn expr(flat: &FlatModule, term: TermId) -> Expr {
        let of = |t: &TermId| expr(flat, *t);
        let term = &flat.terms[term.index()];
        match *term {
            Term::Signal(id) => Expr::r(flat.names.get(id)),
            Term::UIntLit { value, width } => Expr::u(value, width),
            Term::SIntLit { value, width } => Expr::s(value, width),
            Term::Mux([c, t, f]) => Expr::mux(of(&c), of(&t), of(&f)),
            Term::ValidIf([c, v]) => Expr::ValidIf {
                cond: Box::new(of(&c)),
                value: Box::new(of(&v)),
            },
            Term::Prim { op, .. } => Expr::prim_p(
                op,
                term.operands().iter().map(of).collect(),
                term.params().to_vec(),
            ),
        }
    }

    fn named<'f>(flat: &'f FlatModule, list: &[(SignalId, TermId)]) -> Vec<&'f str> {
        list.iter().map(|(id, _)| flat.names.get(*id)).collect()
    }

    fn counter_circuit() -> Circuit {
        let mut b = ModuleBuilder::new("Counter");
        let clk = b.input("clock", Type::Clock);
        let rst = b.input("reset", Type::uint(1));
        let r = b.reg_reset("count", Type::uint(8), clk, rst, Expr::u(0, 8));
        let inc = Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim(PrimOp::Add, vec![r.clone(), Expr::u(1, 8)])],
            vec![1],
        );
        b.connect("count", inc);
        b.output_expr("out", Type::uint(8), r);
        let mut cb = CircuitBuilder::new("Counter");
        cb.add_module(b.finish());
        cb.finish()
    }

    #[test]
    fn counter_lowers() {
        let flat = lower_typed(&counter_circuit()).unwrap();
        assert_eq!(flat.regs.len(), 1);
        assert_eq!(flat.outputs.len(), 1);
        assert_eq!(flat.names.get(flat.clocks[0]), "clock");
        assert_eq!(flat.clocks.len(), 1);
        // Reset wraps the next expression in a mux.
        assert_eq!(
            expr(&flat, flat.regs[0].next),
            Expr::mux(
                Expr::r("reset"),
                Expr::u(0, 8),
                Expr::prim_p(
                    PrimOp::Tail,
                    vec![Expr::prim(
                        PrimOp::Add,
                        vec![Expr::r("count"), Expr::u(1, 8)]
                    )],
                    vec![1],
                )
            )
        );
    }

    #[test]
    fn when_resolution_last_connect_wins() {
        let mut b = ModuleBuilder::new("M");
        let clk = b.input("clock", Type::Clock);
        let c = b.input("c", Type::uint(1));
        let r = b.reg("r", Type::uint(4), clk);
        b.connect("r", Expr::u(1, 4));
        b.when(
            c.clone(),
            vec![Stmt::Connect {
                target: "r".into(),
                value: Expr::u(2, 4),
            }],
            vec![],
        );
        b.output_expr("out", Type::uint(4), r);
        let mut cb = CircuitBuilder::new("M");
        cb.add_module(b.finish());
        let flat = lower_typed(&cb.finish()).unwrap();
        // r_next = mux(c, 2, 1)
        assert_eq!(
            expr(&flat, flat.regs[0].next),
            Expr::mux(Expr::r("c"), Expr::u(2, 4), Expr::u(1, 4))
        );
    }

    #[test]
    fn register_holds_without_connect_in_branch() {
        let mut b = ModuleBuilder::new("M");
        let clk = b.input("clock", Type::Clock);
        let c = b.input("c", Type::uint(1));
        let r = b.reg("r", Type::uint(4), clk);
        b.when(
            c,
            vec![Stmt::Connect {
                target: "r".into(),
                value: Expr::u(7, 4),
            }],
            vec![],
        );
        b.output_expr("out", Type::uint(4), r);
        let mut cb = CircuitBuilder::new("M");
        cb.add_module(b.finish());
        let flat = lower_typed(&cb.finish()).unwrap();
        assert_eq!(
            expr(&flat, flat.regs[0].next),
            Expr::mux(Expr::r("c"), Expr::u(7, 4), Expr::r("r"))
        );
    }

    #[test]
    fn instances_flatten_with_hierarchical_names() {
        let mut sub = ModuleBuilder::new("Inc");
        let x = sub.input("x", Type::uint(8));
        let k = sub.node("k", Expr::u(1, 8));
        sub.output_expr(
            "y",
            Type::uint(8),
            Expr::prim_p(
                PrimOp::Tail,
                vec![Expr::prim(PrimOp::Add, vec![x, k])],
                vec![1],
            ),
        );
        let mut top = ModuleBuilder::new("Top");
        let a = top.input("a", Type::uint(8));
        top.instance("i0", "Inc");
        top.connect("i0.x", a);
        top.instance("i1", "Inc");
        top.connect("i1.x", Expr::r("i0.y"));
        top.output_expr("out", Type::uint(8), Expr::r("i1.y"));
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(sub.finish());
        cb.add_module(top.finish());
        let flat = lower_typed(&cb.finish()).unwrap();
        // Each instance's ports are wires of the parent, and each instance
        // has its own copy of the module's signals.
        assert_eq!(named(&flat, &flat.wires), ["i0.x", "i0.y", "i1.x", "i1.y"]);
        assert_eq!(named(&flat, &flat.nodes), ["i0.k", "i1.k"]);
        assert_eq!(flat.regs.len(), 0);
        let driver = |name: &str| {
            let wire = flat.wires.iter().find(|w| flat.names.get(w.0) == name);
            expr(&flat, wire.unwrap().1)
        };
        assert_eq!(driver("i1.x"), Expr::r("i0.y"));
        let add = |x: &str, k: &str| {
            let sum = Expr::prim(PrimOp::Add, vec![Expr::r(x), Expr::r(k)]);
            Expr::prim_p(PrimOp::Tail, vec![sum], vec![1])
        };
        assert_eq!(driver("i0.y"), add("i0.x", "i0.k"));
        assert_eq!(driver("i1.y"), add("i1.x", "i1.k"));
        assert_eq!(expr(&flat, flat.outputs[0].1), Expr::r("i1.y"));
    }

    #[test]
    fn nested_instances_are_named_from_the_top() {
        let mut leaf = ModuleBuilder::new("Leaf");
        leaf.output_expr("o", Type::uint(1), Expr::u(1, 1));
        let mut mid = ModuleBuilder::new("Mid");
        mid.instance("l", "Leaf");
        mid.output_expr("o", Type::uint(1), Expr::r("l.o"));
        let mut top = ModuleBuilder::new("Top");
        top.instance("m", "Mid");
        top.output_expr("out", Type::uint(1), Expr::r("m.o"));
        let mut cb = CircuitBuilder::new("Top");
        for module in [leaf, mid, top] {
            cb.add_module(module.finish());
        }
        let flat = lower_typed(&cb.finish()).unwrap();
        let names: Vec<&str> = flat.names.iter().collect();
        assert_eq!(names, ["out", "m.o", "m.l.o"]);
        assert_eq!(named(&flat, &flat.wires), ["m.o", "m.l.o"]);
    }

    #[test]
    fn instance_cycle_detected() {
        let mut a = ModuleBuilder::new("A");
        a.instance("b", "B");
        let mut b = ModuleBuilder::new("B");
        b.instance("a", "A");
        let mut cb = CircuitBuilder::new("A");
        cb.add_module(a.finish());
        cb.add_module(b.finish());
        let err = lower_typed(&cb.finish()).unwrap_err();
        assert!(matches!(err, FirrtlError::Lower(m) if m.contains("cycle")));
    }

    #[test]
    fn undriven_output_rejected() {
        let mut b = ModuleBuilder::new("M");
        b.output("out", Type::uint(1));
        let mut cb = CircuitBuilder::new("M");
        cb.add_module(b.finish());
        let err = lower_typed(&cb.finish()).unwrap_err();
        assert!(matches!(err, FirrtlError::Lower(m) if m.contains("never driven")));
    }

    #[test]
    fn mem_lowered_to_registers_and_mux_tree() {
        let mut b = ModuleBuilder::new("M");
        b.input("clock", Type::Clock);
        let ra = b.input("ra", Type::uint(2));
        let wa = b.input("wa", Type::uint(2));
        let wd = b.input("wd", Type::uint(8));
        let we = b.input("we", Type::uint(1));
        b.mem("m", Type::uint(8), 4, vec![]);
        b.connect("m.raddr", ra);
        b.connect("m.waddr", wa);
        b.connect("m.wdata", wd);
        b.connect("m.wen", we);
        b.output_expr("rd", Type::uint(8), Expr::r("m.rdata"));
        let mut cb = CircuitBuilder::new("M");
        cb.add_module(b.finish());
        let flat = lower_typed(&cb.finish()).unwrap();
        let cells: Vec<&str> = flat.regs.iter().map(|r| flat.names.get(r.id)).collect();
        assert_eq!(cells, ["m.cell_0", "m.cell_1", "m.cell_2", "m.cell_3"]);
        assert_eq!(named(&flat, &flat.nodes), ["m.rdata"]);
        let wen = Expr::r("m.wen");
        let hit = Expr::prim(
            PrimOp::And,
            vec![
                wen,
                Expr::prim(PrimOp::Eq, vec![Expr::r("m.waddr"), Expr::u(2, 2)]),
            ],
        );
        assert_eq!(
            expr(&flat, flat.regs[2].next),
            Expr::mux(hit, Expr::r("m.wdata"), Expr::r("m.cell_2"))
        );
    }

    #[test]
    fn multiple_clocks_rejected() {
        let mut b = ModuleBuilder::new("M");
        b.input("clk_a", Type::Clock);
        b.input("clk_b", Type::Clock);
        b.output_expr("out", Type::uint(1), Expr::u(0, 1));
        let mut cb = CircuitBuilder::new("M");
        cb.add_module(b.finish());
        let err = lower_typed(&cb.finish()).unwrap_err();
        assert!(matches!(err, FirrtlError::Lower(m) if m.contains("clock domain")));
    }

    #[test]
    fn nested_whens_produce_nested_muxes() {
        let mut b = ModuleBuilder::new("M");
        let clk = b.input("clock", Type::Clock);
        b.input("c1", Type::uint(1));
        b.input("c2", Type::uint(1));
        let r = b.reg("r", Type::uint(4), clk);
        b.when(
            Expr::r("c1"),
            vec![Stmt::When {
                cond: Expr::r("c2"),
                then_body: vec![Stmt::Connect {
                    target: "r".into(),
                    value: Expr::u(3, 4),
                }],
                else_body: vec![Stmt::Connect {
                    target: "r".into(),
                    value: Expr::u(5, 4),
                }],
            }],
            vec![Stmt::Connect {
                target: "r".into(),
                value: Expr::u(9, 4),
            }],
        );
        b.output_expr("out", Type::uint(4), r);
        let mut cb = CircuitBuilder::new("M");
        cb.add_module(b.finish());
        let flat = lower_typed(&cb.finish()).unwrap();
        // next = mux(c1, mux(c2, 3, 5), 9)
        let inner = Expr::mux(Expr::r("c2"), Expr::u(3, 4), Expr::u(5, 4));
        assert_eq!(
            expr(&flat, flat.regs[0].next),
            Expr::mux(Expr::r("c1"), inner, Expr::u(9, 4))
        );
    }

    #[test]
    fn a_target_driven_in_one_branch_only_is_valid_there() {
        let src = "\
circuit M :
  module M :
    input c : UInt<1>
    input a : UInt<4>
    output o : UInt<4>
    output p : UInt<4>
    when c :
      o <= a
    else :
      p <= a
";
        let flat = lower_typed(&crate::parser::parse(src).unwrap()).unwrap();
        let valid = |cond, value| Expr::ValidIf {
            cond: Box::new(cond),
            value: Box::new(value),
        };
        let not_c = Expr::prim(PrimOp::Eq, vec![Expr::r("c"), Expr::u(0, 1)]);
        assert_eq!(
            expr(&flat, flat.outputs[0].1),
            valid(Expr::r("c"), Expr::r("a"))
        );
        assert_eq!(expr(&flat, flat.outputs[1].1), valid(not_c, Expr::r("a")));
    }

    #[test]
    fn a_target_driven_alike_in_both_branches_is_no_mux() {
        let src = "\
circuit M :
  module M :
    input c : UInt<1>
    input a : UInt<4>
    output o : UInt<5>
    o <= a
    when c :
      o <= add(a, UInt<4>(1))
    else :
      o <= add(a, UInt<4>(1))
";
        let flat = lower_typed(&crate::parser::parse(src).unwrap()).unwrap();
        let sum = Expr::prim(PrimOp::Add, vec![Expr::r("a"), Expr::u(1, 4)]);
        assert_eq!(expr(&flat, flat.outputs[0].1), sum);
    }

    #[test]
    fn a_mem_declared_under_a_when_is_lowered_there() {
        // Its cells are hoisted like any register; their writes stay
        // under the condition. (This used to reach `unreachable!`.)
        let src = "\
circuit M :
  module M :
    input clock : Clock
    input c : UInt<1>
    input a : UInt<1>
    input d : UInt<8>
    output o : UInt<8>
    when c :
      mem m : UInt<8>[2]
      m.raddr <= a
      m.waddr <= a
      m.wdata <= d
      m.wen <= c
    o <= m.rdata
";
        let flat = lower_typed(&crate::parser::parse(src).unwrap()).unwrap();
        assert_eq!(flat.regs.len(), 2);
        for cell in &flat.regs {
            let hold = Expr::r(flat.names.get(cell.id));
            assert!(
                matches!(expr(&flat, cell.next), Expr::Mux { cond, fval, .. }
                    if *cond == Expr::r("c") && *fval == hold),
                "{}",
                expr(&flat, cell.next)
            );
        }
    }

    #[test]
    fn a_declared_name_that_meets_an_instance_signal_is_a_duplicate() {
        let src = "\
circuit Top :
  module Sub :
    output o : UInt<1>
    node n = UInt<1>(1)
    o <= n
  module Top :
    output out : UInt<1>
    inst i of Sub
    node i.n = UInt<1>(0)
    out <= and(i.o, i.n)
";
        let err = lower_typed(&crate::parser::parse(src).unwrap()).unwrap_err();
        assert_eq!(err, FirrtlError::Duplicate("i.n".into()));
    }

    #[test]
    fn a_wire_has_its_declared_type_whatever_drives_it() {
        // `w` is declared 8 bits wide and driven by 4; `n` reads it before
        // it is driven and `k` never reads it.
        let src = "\
circuit M :
  module M :
    input a : UInt<4>
    input b : UInt<8>
    output o : UInt<9>
    wire w : UInt<8>
    node k = not(b)
    node n = add(w, a)
    w <= a
    o <= add(n, k)
";
        let flat = lower_typed(&crate::parser::parse(src).unwrap()).unwrap();
        let ty = |name: &str| {
            let id = flat.names.iter().position(|n| n == name).unwrap();
            flat.types[id]
        };
        assert_eq!(ty("w"), Type::uint(8));
        assert_eq!(ty("n"), Type::uint(9));
        assert_eq!(ty("k"), Type::uint(8));
        assert_eq!(expr(&flat, flat.wires[0].1), Expr::r("a"));
    }
}
