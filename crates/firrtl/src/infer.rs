//! Type checking, width inference and name resolution for modules.
//!
//! [`check_module`] numbers every referenceable name of a module (ports,
//! wires, registers, nodes, instance ports `inst.port`, memory port fields
//! `mem.raddr` …) densely in a [`TypeEnv`], types every expression, and
//! resolves it into the module's arena of [`Term`]s: each name is hashed
//! when it is declared and once per reference here, and never again.
//! Node types are *inferred* from their defining expression, in definition
//! order; FIRRTL's width-growth rules come from
//! [`PrimOp::result_type`](crate::ops::PrimOp::result_type).

use crate::ast::{Circuit, Direction, Expr, Module, Stmt};
use crate::error::{FirrtlError, Result};
use crate::term::{push, SignalId, Term, TermId};
use crate::ty::{bits_for, Type};
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

/// The signals of one module, numbered densely: a name's id is the order
/// it was declared in. Names declared in the source are borrowed from it;
/// only synthesized ones (`inst.port`, `mem.raddr`) are owned. A memory's
/// cells have ids but no name a reference could use.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv<'a> {
    ids: HashMap<Cow<'a, str>, SignalId>,
    types: Vec<Type>,
    /// `(first cell, depth, memory)` of every memory's cells.
    cells: Vec<(SignalId, usize, &'a str)>,
}

/// The name of a signal of a [`TypeEnv`], as the flat module spells it
/// under an instance's prefix.
#[derive(Debug, Clone, Copy)]
pub enum SignalName<'a> {
    /// A name the module declares or synthesizes.
    Named(&'a str),
    /// Cell `k` of memory `mem`: `mem.cell_k`.
    Cell(&'a str, u32),
}

impl fmt::Display for SignalName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalName::Named(name) => f.write_str(name),
            SignalName::Cell(mem, k) => write!(f, "{mem}.cell_{k}"),
        }
    }
}

impl<'a> TypeEnv<'a> {
    /// Looks up the type of a name.
    pub fn get(&self, name: &str) -> Option<Type> {
        self.lookup(name).map(|(_, ty)| ty)
    }

    /// Looks up the id and the type of a name.
    fn lookup(&self, name: &str) -> Option<(SignalId, Type)> {
        let id = *self.ids.get(name)?;
        Some((id, self.types[id.index()]))
    }

    /// Every signal's type, by id.
    pub fn types(&self) -> &[Type] {
        &self.types
    }

    /// Number of signals, memory cells included.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Every signal's name, by id.
    pub fn names(&self) -> Vec<SignalName<'_>> {
        let mut names = vec![SignalName::Named(""); self.types.len()];
        for (name, id) in &self.ids {
            names[id.index()] = SignalName::Named(name);
        }
        for &(first, depth, mem) in &self.cells {
            let cells = &mut names[first.index()..first.index() + depth];
            for (k, name) in cells.iter_mut().enumerate() {
                *name = SignalName::Cell(mem, k as u32);
            }
        }
        names
    }

    /// Binds a name to a type; returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`FirrtlError::Duplicate`] if the name is already bound.
    pub fn bind(&mut self, name: impl Into<Cow<'a, str>>, ty: Type) -> Result<SignalId> {
        let id = SignalId(self.types.len() as u32);
        match self.ids.entry(name.into()) {
            Entry::Occupied(bound) => Err(FirrtlError::Duplicate(bound.key().to_string())),
            Entry::Vacant(free) => {
                free.insert(id);
                self.types.push(ty);
                Ok(id)
            }
        }
    }

    /// Numbers the `depth` cells of memory `mem`, which no reference can
    /// name; returns the first one's id.
    fn bind_cells(&mut self, mem: &'a str, ty: Type, depth: usize) -> SignalId {
        let first = SignalId(self.types.len() as u32);
        self.types.extend(std::iter::repeat_n(ty, depth));
        self.cells.push((first, depth, mem));
        first
    }
}

/// Types expressions and appends them to a term arena, operands first. The
/// walk is a loop over an explicit stack, so an expression as deep as the
/// parser allows costs no call stack; the two stacks are kept between
/// expressions, so typing one allocates nothing but its terms.
#[derive(Debug, Default)]
struct Resolver<'e> {
    /// The expressions being typed, outermost first, each with how many of
    /// its operands are typed.
    walk: Vec<(&'e Expr, usize)>,
    /// The typed operands, innermost last.
    values: Vec<(TermId, Type)>,
}

impl<'e> Resolver<'e> {
    /// Types `root` under `env` and appends it to `terms`: the id of its
    /// root term, and its type. Checks run in the order a recursive walk
    /// meets them: a condition before the arms, operands left to right.
    fn term(
        &mut self,
        root: &'e Expr,
        env: &TypeEnv<'_>,
        terms: &mut Vec<Term>,
    ) -> Result<(TermId, Type)> {
        self.walk.clear();
        self.values.clear();
        self.walk.push((root, 0));
        while let Some(&(expr, done)) = self.walk.last() {
            if done == 1 {
                match expr {
                    Expr::Mux { .. } => not_a_clock(self.values[self.values.len() - 1].1, "mux")?,
                    Expr::ValidIf { .. } => {
                        not_a_clock(self.values[self.values.len() - 1].1, "validif")?
                    }
                    _ => {}
                }
            }
            if let Some(next) = operand(expr, done) {
                self.walk.last_mut().expect("the expression being typed").1 += 1;
                self.walk.push((next, 0));
                continue;
            }
            self.walk.pop();
            let at = self.values.len() - done;
            let (term, ty) = typed(expr, &self.values[at..], env)?;
            self.values.truncate(at);
            self.values.push((push(terms, term), ty));
        }
        Ok(self.values.pop().expect("the root's type"))
    }
}

/// Operand `k` of `expr`, if it has that many.
fn operand(expr: &Expr, k: usize) -> Option<&Expr> {
    match expr {
        Expr::Mux { cond, tval, fval } => [cond, tval, fval].get(k).map(|e| &***e),
        Expr::ValidIf { cond, value } => [cond, value].get(k).map(|e| &***e),
        Expr::Prim { args, .. } => args.get(k),
        Expr::Ref(_) | Expr::UIntLit { .. } | Expr::SIntLit { .. } => None,
    }
}

/// The term and the type of `expr` over its typed `operands`.
fn typed(expr: &Expr, operands: &[(TermId, Type)], env: &TypeEnv<'_>) -> Result<(Term, Type)> {
    Ok(match *expr {
        Expr::Ref(ref name) => match env.lookup(name) {
            Some((id, ty)) => (Term::Signal(id), ty),
            None => return Err(FirrtlError::Undefined(name.clone())),
        },
        Expr::UIntLit { value, width } => {
            let ty = literal_type(bits_for(value), width, false, &value)?;
            (Term::UIntLit { value, width }, ty)
        }
        Expr::SIntLit { value, width } => {
            let needed = if value < 0 {
                64 - (!value as u64).leading_zeros() + 1
            } else {
                bits_for(value as u64) + 1
            };
            let ty = literal_type(needed, width, true, &value)?;
            (Term::SIntLit { value, width }, ty)
        }
        Expr::Mux { .. } => {
            let [(c, _), (t, tt), (f, ft)] = [operands[0], operands[1], operands[2]];
            if tt.is_signed() != ft.is_signed() || tt.is_clock() || ft.is_clock() {
                return Err(arms_disagree(tt, ft));
            }
            (
                Term::Mux([c, t, f]),
                tt.with_width(tt.width().max(ft.width())),
            )
        }
        Expr::ValidIf { .. } => {
            let [(c, _), (v, vt)] = [operands[0], operands[1]];
            (Term::ValidIf([c, v]), vt)
        }
        Expr::Prim { op, ref params, .. } => {
            let mut pair = [Type::Clock; 2];
            let spill: Vec<Type>;
            let types = if operands.len() > pair.len() {
                spill = operands.iter().map(|&(_, ty)| ty).collect();
                &spill[..]
            } else {
                for (ty, &(_, operand)) in pair.iter_mut().zip(operands) {
                    *ty = operand;
                }
                &pair[..operands.len()]
            };
            // The count checks here leave at most two of either.
            let ty = op.result_type(types, params)?;
            let (mut args, mut fixed) = ([TermId(0); 2], [0; 2]);
            for (arg, &(id, _)) in args.iter_mut().zip(operands) {
                *arg = id;
            }
            fixed[..params.len()].copy_from_slice(params);
            let term = Term::Prim {
                op,
                args,
                params: fixed,
            };
            (term, ty)
        }
    })
}

/// The type of a literal that needs `needed` bits, if `width` has them.
fn literal_type(
    needed: u32,
    width: u32,
    signed: bool,
    value: &dyn std::fmt::Display,
) -> Result<Type> {
    let kind = if signed { 'S' } else { 'U' };
    if needed > width {
        return Err(FirrtlError::Type(format!(
            "literal {value} does not fit in {kind}Int<{width}>"
        )));
    }
    Ok(if signed {
        Type::sint(width)
    } else {
        Type::uint(width)
    })
}

fn not_a_clock(cond: Type, of: &str) -> Result<()> {
    if cond.is_clock() {
        return Err(FirrtlError::Type(format!(
            "{of} condition cannot be a clock"
        )));
    }
    Ok(())
}

fn arms_disagree(tt: Type, ft: Type) -> FirrtlError {
    FirrtlError::Type(format!("mux arm types disagree: {tt} vs {ft}"))
}

/// Index width for a memory of the given depth (at least 1 bit).
pub fn mem_addr_width(depth: usize) -> u32 {
    bits_for(depth.saturating_sub(1) as u64)
}

/// A type-checked module over ids: its signals, its expressions as terms,
/// and its statements naming both by id.
#[derive(Debug, Clone, Default)]
pub struct TypedModule<'c> {
    /// Every signal of the module: its ports first, in port order.
    pub env: TypeEnv<'c>,
    /// Every expression of the module, operands before what uses them.
    pub terms: Vec<Term>,
    /// The module's statements, `skip`s left out.
    pub body: Vec<TypedStmt<'c>>,
    /// The registers and memory cells: what keeps its value unless it is
    /// connected.
    pub holds: Vec<SignalId>,
}

/// A statement of a [`TypedModule`]: a [`Stmt`] over ids.
#[derive(Debug, Clone, PartialEq)]
pub enum TypedStmt<'c> {
    /// `wire`.
    Wire(SignalId),
    /// `reg`/`regreset` with its `(reset, init)`; the clock is the
    /// design's one clock.
    Reg {
        id: SignalId,
        reset: Option<(TermId, TermId)>,
    },
    /// `node`.
    Node { id: SignalId, value: TermId },
    /// `target <= value`.
    Connect { target: SignalId, value: TermId },
    /// `inst name of Module`, `module` indexing the circuit's modules: the
    /// instance's ports are the signals from `ports` on, in port order.
    Instance {
        name: &'c str,
        module: usize,
        ports: SignalId,
    },
    /// `mem`: its ports `raddr`, `rdata`, `waddr`, `wdata`, `wen` are the
    /// signals from `ports` on, its `depth` cells the ones after them.
    Mem {
        name: &'c str,
        ty: Type,
        depth: usize,
        ports: SignalId,
    },
    /// `when cond : … else : …`.
    When {
        cond: TermId,
        then_body: Vec<TypedStmt<'c>>,
        else_body: Vec<TypedStmt<'c>>,
    },
}

/// Fully type-checks a module and resolves its names: binds every
/// declaration (those inside `when` bodies are hoisted to module scope, see
/// the lowering notes in [`crate::lower`]), types the nodes in definition
/// order, then checks every connect target/value pair (signedness must
/// match; widths adjust implicitly via pad/truncate during lowering),
/// register clock and reset, and `when` condition.
///
/// # Errors
///
/// Returns the first error found: [`FirrtlError::Duplicate`] for redefined
/// names, [`FirrtlError::Undefined`] for undefined references and
/// instances of unknown modules, [`FirrtlError::Type`] otherwise.
pub fn check_module<'c>(circuit: &'c Circuit, module: &'c Module) -> Result<TypedModule<'c>> {
    let mut checker = Checker {
        circuit,
        typed: TypedModule::default(),
        decls: Vec::new(),
        nodes: Vec::new(),
        walked: (0, 0),
        resolver: Resolver::default(),
    };
    // Most statements declare one name.
    checker
        .typed
        .env
        .ids
        .reserve(module.ports.len() + module.body.len());
    for port in &module.ports {
        checker.typed.env.bind(port.name.as_str(), port.ty)?;
    }
    checker.collect_decls(&module.body)?;
    // Nodes are typed in a second pass, in order, because a node's type
    // depends on earlier definitions.
    checker.type_nodes(&module.body)?;
    checker.typed.body = checker.check_body(&module.body)?;
    // Every output port must ultimately be driven; enforced during lowering
    // where conditional connects have been resolved.
    for port in &module.ports {
        if port.dir == Direction::Output && port.ty.is_clock() {
            return Err(FirrtlError::Type(format!(
                "output clock port {} not supported",
                port.name
            )));
        }
    }
    Ok(checker.typed)
}

/// The three passes of [`check_module`] over one module's body. The
/// declarations' and the nodes' ids are handed from the pass that binds
/// them to the one that builds the statements by walk order.
struct Checker<'c> {
    circuit: &'c Circuit,
    typed: TypedModule<'c>,
    /// The first id of every wire, register, instance and memory, in walk
    /// order.
    decls: Vec<SignalId>,
    /// Every node and its value, in walk order.
    nodes: Vec<(SignalId, TermId)>,
    /// How many of `decls` and of `nodes` the statements have taken.
    walked: (usize, usize),
    resolver: Resolver<'c>,
}

impl<'c> Checker<'c> {
    fn env(&mut self) -> &mut TypeEnv<'c> {
        &mut self.typed.env
    }

    /// The first id of the next declaration in walk order.
    fn decl(&mut self) -> SignalId {
        self.walked.0 += 1;
        self.decls[self.walked.0 - 1]
    }

    /// The next node in walk order, and its value.
    fn node(&mut self) -> (SignalId, TermId) {
        self.walked.1 += 1;
        self.nodes[self.walked.1 - 1]
    }

    fn collect_decls(&mut self, body: &'c [Stmt]) -> Result<()> {
        for stmt in body {
            let first = match stmt {
                Stmt::Wire { name, ty } => self.env().bind(name.as_str(), *ty)?,
                Stmt::Reg { name, ty, .. } => {
                    let id = self.env().bind(name.as_str(), *ty)?;
                    self.typed.holds.push(id);
                    id
                }
                Stmt::Instance { name, module } => {
                    let target = self
                        .circuit
                        .module(module)
                        .ok_or_else(|| FirrtlError::Undefined(format!("module {module}")))?;
                    let first = SignalId(self.typed.env.len() as u32);
                    for port in &target.ports {
                        self.env().bind(format!("{name}.{}", port.name), port.ty)?;
                    }
                    first
                }
                Stmt::Mem {
                    name, ty, depth, ..
                } => {
                    let aw = mem_addr_width(*depth);
                    let env = self.env();
                    let first = env.bind(format!("{name}.raddr"), Type::uint(aw))?;
                    env.bind(format!("{name}.rdata"), *ty)?;
                    env.bind(format!("{name}.waddr"), Type::uint(aw))?;
                    env.bind(format!("{name}.wdata"), *ty)?;
                    env.bind(format!("{name}.wen"), Type::uint(1))?;
                    let cells = env.bind_cells(name, *ty, *depth);
                    let cells = (cells.0..cells.0 + *depth as u32).map(SignalId);
                    self.typed.holds.extend(cells);
                    first
                }
                Stmt::When {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.collect_decls(then_body)?;
                    self.collect_decls(else_body)?;
                    continue;
                }
                Stmt::Node { .. } | Stmt::Connect { .. } | Stmt::Skip => continue,
            };
            self.decls.push(first);
        }
        Ok(())
    }

    fn type_nodes(&mut self, body: &'c [Stmt]) -> Result<()> {
        for stmt in body {
            match stmt {
                Stmt::Node { name, value } => {
                    let (term, ty) = self.term(value)?;
                    let id = self.env().bind(name.as_str(), ty)?;
                    self.nodes.push((id, term));
                }
                Stmt::When {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.type_nodes(then_body)?;
                    self.type_nodes(else_body)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn term(&mut self, expr: &'c Expr) -> Result<(TermId, Type)> {
        let typed = &mut self.typed;
        self.resolver.term(expr, &typed.env, &mut typed.terms)
    }

    fn check_body(&mut self, body: &'c [Stmt]) -> Result<Vec<TypedStmt<'c>>> {
        let mut typed = Vec::with_capacity(body.len());
        for stmt in body {
            typed.push(match stmt {
                Stmt::Connect { target, value } => {
                    let (id, tt) = self
                        .typed
                        .env
                        .lookup(target)
                        .ok_or_else(|| FirrtlError::Undefined(target.clone()))?;
                    let (value, vt) = self.term(value)?;
                    if tt.is_clock() != vt.is_clock() {
                        return Err(FirrtlError::Type(format!(
                            "cannot connect {vt} to {tt} at {target}"
                        )));
                    }
                    if !tt.is_clock() && tt.is_signed() != vt.is_signed() {
                        return Err(FirrtlError::Type(format!(
                            "signedness mismatch connecting {vt} to {tt} at {target}"
                        )));
                    }
                    TypedStmt::Connect { target: id, value }
                }
                Stmt::Reg { clock, reset, .. } => {
                    let ct = self.term(clock)?.1;
                    if !ct.is_clock() {
                        return Err(FirrtlError::Type(format!(
                            "register clock has type {ct}, expected Clock"
                        )));
                    }
                    let reset = match reset {
                        Some((rst, init)) => {
                            let (rst, rt) = self.term(rst)?;
                            if rt.is_clock() || rt.width() != 1 {
                                return Err(FirrtlError::Type(format!(
                                    "register reset has type {rt}, expected UInt<1>"
                                )));
                            }
                            Some((rst, self.term(init)?.0))
                        }
                        None => None,
                    };
                    TypedStmt::Reg {
                        id: self.decl(),
                        reset,
                    }
                }
                Stmt::When {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let (cond, ct) = self.term(cond)?;
                    if ct.is_clock() {
                        return Err(FirrtlError::Type("when condition cannot be a clock".into()));
                    }
                    TypedStmt::When {
                        cond,
                        then_body: self.check_body(then_body)?,
                        else_body: self.check_body(else_body)?,
                    }
                }
                Stmt::Node { .. } => {
                    let (id, value) = self.node();
                    TypedStmt::Node { id, value }
                }
                Stmt::Wire { .. } => TypedStmt::Wire(self.decl()),
                Stmt::Instance { name, module } => TypedStmt::Instance {
                    name,
                    module: self
                        .circuit
                        .modules
                        .iter()
                        .position(|m| m.name == *module)
                        .expect("found by `collect_decls`"),
                    ports: self.decl(),
                },
                Stmt::Mem {
                    name, ty, depth, ..
                } => TypedStmt::Mem {
                    name,
                    ty: *ty,
                    depth: *depth,
                    ports: self.decl(),
                },
                Stmt::Skip => continue,
            });
        }
        Ok(typed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CircuitBuilder, ModuleBuilder};
    use crate::ops::PrimOp;

    /// Types one expression under `env` with the resolver lowering uses.
    fn type_of(env: &TypeEnv, expr: &Expr) -> Result<Type> {
        let mut resolver = Resolver::default();
        resolver.term(expr, env, &mut Vec::new()).map(|(_, ty)| ty)
    }

    fn simple_circuit() -> Circuit {
        let mut b = ModuleBuilder::new("Top");
        let clk = b.input("clock", Type::Clock);
        let a = b.input("a", Type::uint(8));
        let r = b.reg("r", Type::uint(8), clk);
        let sum = b.node("sum", Expr::prim(PrimOp::Add, vec![a, r.clone()]));
        b.connect("r", Expr::prim_p(PrimOp::Tail, vec![sum], vec![1]));
        b.output_expr("out", Type::uint(8), r);
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(b.finish());
        cb.finish()
    }

    fn env_of(c: &Circuit) -> Result<TypeEnv<'_>> {
        check_module(c, c.top().unwrap()).map(|typed| typed.env)
    }

    #[test]
    fn env_types_everything() {
        let c = simple_circuit();
        let env = env_of(&c).unwrap();
        assert_eq!(env.get("a"), Some(Type::uint(8)));
        assert_eq!(env.get("r"), Some(Type::uint(8)));
        assert_eq!(env.get("sum"), Some(Type::uint(9))); // add grows
        assert_eq!(env.get("clock"), Some(Type::Clock));
        assert!(env.get("nope").is_none());
    }

    #[test]
    fn signals_are_numbered_ports_first_and_references_resolve_to_them() {
        let c = simple_circuit();
        let typed = check_module(&c, c.top().unwrap()).unwrap();
        let id = |name: &str| typed.env.lookup(name).unwrap().0;
        let ids = ["clock", "a", "out", "r", "sum"].map(id);
        assert_eq!(ids, [0, 1, 2, 3, 4].map(SignalId));
        let names: Vec<String> = typed.env.names().iter().map(|n| n.to_string()).collect();
        assert_eq!(names, ["clock", "a", "out", "r", "sum"]);
        assert_eq!(typed.holds, vec![id("r")]);
        // `r <= tail(sum, 1)`: the value's operand is `sum`'s id.
        let connects: Vec<(SignalId, TermId)> = typed
            .body
            .iter()
            .filter_map(|s| match s {
                TypedStmt::Connect { target, value } => Some((*target, *value)),
                _ => None,
            })
            .collect();
        assert_eq!(connects.len(), 2);
        let (target, value) = connects[0];
        assert_eq!(target, id("r"));
        let Term::Prim { op, args, .. } = typed.terms[value.index()] else {
            panic!("a prim");
        };
        assert_eq!(op, PrimOp::Tail);
        assert_eq!(typed.terms[args[0].index()], Term::Signal(id("sum")));
    }

    #[test]
    fn check_passes_on_wellformed() {
        let c = simple_circuit();
        assert!(check_module(&c, c.top().unwrap()).is_ok());
    }

    #[test]
    fn undefined_reference_caught() {
        let mut b = ModuleBuilder::new("Top");
        b.node("n", Expr::r("ghost"));
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(b.finish());
        let c = cb.finish();
        assert!(matches!(env_of(&c).unwrap_err(), FirrtlError::Undefined(_)));
    }

    #[test]
    fn duplicate_definition_caught() {
        let mut b = ModuleBuilder::new("Top");
        b.wire("w", Type::uint(1));
        b.wire("w", Type::uint(2));
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(b.finish());
        let c = cb.finish();
        assert!(matches!(env_of(&c).unwrap_err(), FirrtlError::Duplicate(_)));
    }

    #[test]
    fn instance_ports_enter_env() {
        let mut sub = ModuleBuilder::new("Sub");
        sub.input("x", Type::uint(4));
        sub.output("y", Type::uint(4));
        let mut top = ModuleBuilder::new("Top");
        top.instance("s0", "Sub");
        top.node("n", Expr::r("s0.y"));
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(sub.finish());
        cb.add_module(top.finish());
        let c = cb.finish();
        let env = env_of(&c).unwrap();
        assert_eq!(env.get("s0.x"), Some(Type::uint(4)));
        assert_eq!(env.get("s0.y"), Some(Type::uint(4)));
        assert_eq!(env.get("n"), Some(Type::uint(4)));
    }

    #[test]
    fn mem_ports_enter_env_and_its_cells_are_numbered_after_them() {
        let mut b = ModuleBuilder::new("Top");
        b.mem("m", Type::uint(8), 16, vec![]);
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(b.finish());
        let c = cb.finish();
        let env = env_of(&c).unwrap();
        assert_eq!(env.get("m.raddr"), Some(Type::uint(4)));
        assert_eq!(env.get("m.rdata"), Some(Type::uint(8)));
        assert_eq!(env.get("m.wen"), Some(Type::uint(1)));
        assert_eq!(env.len(), 5 + 16);
        let names = env.names();
        assert_eq!(names[5].to_string(), "m.cell_0");
        assert_eq!(names[20].to_string(), "m.cell_15");
        // A cell has no name a reference could use.
        assert!(env.get("m.cell_0").is_none());
    }

    #[test]
    fn literal_width_check() {
        let env = TypeEnv::default();
        assert!(type_of(&env, &Expr::u(255, 8)).is_ok());
        assert!(type_of(&env, &Expr::u(256, 8)).is_err());
        assert!(type_of(&env, &Expr::s(-128, 8)).is_ok());
        assert!(type_of(&env, &Expr::s(-129, 8)).is_err());
        assert!(type_of(&env, &Expr::s(127, 8)).is_ok());
        assert!(type_of(&env, &Expr::s(128, 8)).is_err());
    }

    #[test]
    fn mux_width_is_max_of_arms() {
        let mut b = ModuleBuilder::new("Top");
        b.input("c", Type::uint(1));
        b.input("t", Type::uint(8));
        b.input("f", Type::uint(4));
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(b.finish());
        let c = cb.finish();
        let env = env_of(&c).unwrap();
        let m = Expr::mux(Expr::r("c"), Expr::r("t"), Expr::r("f"));
        assert_eq!(type_of(&env, &m).unwrap(), Type::uint(8));
    }

    #[test]
    fn signedness_mismatch_on_connect_caught() {
        let mut b = ModuleBuilder::new("Top");
        b.input("a", Type::sint(8));
        b.output("out", Type::uint(8));
        b.connect("out", Expr::r("a"));
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(b.finish());
        let c = cb.finish();
        assert!(check_module(&c, c.top().unwrap()).is_err());
    }

    #[test]
    fn mem_addr_widths() {
        assert_eq!(mem_addr_width(1), 1);
        assert_eq!(mem_addr_width(2), 1);
        assert_eq!(mem_addr_width(16), 4);
        assert_eq!(mem_addr_width(17), 5);
    }
}
