//! Lowering from the structured FIRRTL AST to a [`FlatModule`].
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

use crate::ast::{Circuit, Direction, Expr, Module, Stmt};
use crate::error::{FirrtlError, Result};
use crate::infer::{check_module, mem_addr_width, type_of, TypeEnv};
use crate::ops::PrimOp;
use crate::ty::Type;
use std::borrow::Cow;
use std::collections::HashMap;

/// A register in the flattened design.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatReg {
    /// Hierarchical name (e.g. `core0.alu.acc`).
    pub name: String,
    /// Value type.
    pub ty: Type,
    /// Next-state expression, evaluated every cycle (already includes the
    /// synchronous-reset mux if the register had one).
    pub next: Expr,
    /// Power-on value (0 unless the register came from an initialized
    /// memory).
    pub init: u64,
}

/// A fully lowered, flat, single-module design.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatModule {
    /// Design name (the circuit's top module name).
    pub name: String,
    /// Non-clock input ports.
    pub inputs: Vec<(String, Type)>,
    /// Clock input port names (at most one is accepted; the paper targets a
    /// single clock domain, §6.2).
    pub clocks: Vec<String>,
    /// Output ports with their final driving expressions.
    pub outputs: Vec<(String, Type, Expr)>,
    /// Registers with next-state expressions.
    pub regs: Vec<FlatReg>,
    /// Named combinational bindings (former nodes and wires), in definition
    /// order. Expressions may reference any input, register, or binding.
    pub nodes: Vec<(String, Type, Expr)>,
}

impl FlatModule {
    /// Total number of named signals (inputs + regs + nodes + outputs).
    pub fn signal_count(&self) -> usize {
        self.inputs.len() + self.regs.len() + self.nodes.len() + self.outputs.len()
    }
}

/// Lowers and fully types a circuit: the main entry point used by the rest
/// of the workspace. Every stage is entered once: each module is typed
/// where it is checked, flattening (which lowers the memories it meets) is
/// the only copy of the borrowed circuit, and `when` resolution takes the
/// flat body by value and moves its expressions on.
///
/// # Errors
///
/// Returns an error if any module fails type checking, the hierarchy
/// contains an instance cycle, a wire or output is never driven, the top
/// module is missing, or a combinational binding cannot be typed (which
/// indicates a combinational cycle through wires).
pub fn lower_typed(circuit: &Circuit) -> Result<FlatModule> {
    let top = circuit
        .modules
        .iter()
        .position(|m| m.name == circuit.name)
        .ok_or_else(|| FirrtlError::Lower(format!("no top module named {}", circuit.name)))?;
    let envs = circuit
        .modules
        .iter()
        .map(|module| check_module(circuit, module))
        .collect::<Result<Vec<_>>>()?;
    let top_module = &circuit.modules[top];
    let mut flattener = Flattener {
        circuit,
        top: top_module,
        envs,
        path: Vec::new(),
        env: TypeEnv::default(),
    };
    for port in &top_module.ports {
        flattener.env.bind(port.name.as_str(), port.ty)?;
    }
    let mut body = Vec::new();
    flattener.flatten_module(top, "", &mut body)?;
    let (mut flat, first_wire) = resolve(top_module, body, &flattener.env)?;
    retype_nodes(&mut flat, first_wire)?;
    Ok(flat)
}

/// Inlines the instance hierarchy below one module, renaming every signal
/// of an instance `inst.signal`, lowers the memories it meets, and types
/// the result as it goes.
struct Flattener<'c> {
    circuit: &'c Circuit,
    /// The design's top module: its clock clocks every memory.
    top: &'c Module,
    /// Each module's own names, by position in `circuit.modules`.
    envs: Vec<TypeEnv<'c>>,
    /// The modules being inlined, outermost first.
    path: Vec<&'c str>,
    /// Every name of the flat module, under its hierarchical name: the
    /// types come from `envs`, so no expression is typed again.
    env: TypeEnv<'c>,
}

impl<'c> Flattener<'c> {
    /// Appends the body of module `index`, instantiated under `prefix`
    /// (empty for the top), to `out`.
    fn flatten_module(&mut self, index: usize, prefix: &str, out: &mut Vec<Stmt>) -> Result<()> {
        let module = &self.circuit.modules[index];
        if self.path.contains(&module.name.as_str()) {
            return Err(FirrtlError::Lower(format!(
                "instance cycle: {} -> {}",
                self.path.join(" -> "),
                module.name
            )));
        }
        self.path.push(&module.name);
        self.flatten_body(index, prefix, &module.body, out)?;
        self.path.pop();
        Ok(())
    }

    fn flatten_body(
        &mut self,
        index: usize,
        prefix: &str,
        body: &'c [Stmt],
        out: &mut Vec<Stmt>,
    ) -> Result<()> {
        for stmt in body {
            let stmt = match stmt {
                Stmt::Wire { name, ty } => Stmt::Wire {
                    name: self.declare(prefix, name, *ty)?,
                    ty: *ty,
                },
                Stmt::Reg {
                    name,
                    ty,
                    clock,
                    reset,
                } => Stmt::Reg {
                    name: self.declare(prefix, name, *ty)?,
                    ty: *ty,
                    clock: prefix_expr(clock, prefix),
                    reset: reset
                        .as_ref()
                        .map(|(r, i)| (prefix_expr(r, prefix), prefix_expr(i, prefix))),
                },
                Stmt::Node { name, value } => {
                    let ty = self.envs[index].get(name).expect("typed by its module");
                    Stmt::Node {
                        name: self.declare(prefix, name, ty)?,
                        value: prefix_expr(value, prefix),
                    }
                }
                Stmt::Connect { target, value } => Stmt::Connect {
                    target: prefix_name(target, prefix).into_owned(),
                    value: prefix_expr(value, prefix),
                },
                Stmt::Mem {
                    name, ty, depth, ..
                } => {
                    let name = prefix_name(name, prefix);
                    lower_mem(&name, *ty, *depth, self.top, &mut self.env, out)?;
                    continue;
                }
                Stmt::Instance { name, module } => {
                    let sub = self
                        .circuit
                        .modules
                        .iter()
                        .position(|m| m.name == *module)
                        .ok_or_else(|| FirrtlError::Undefined(format!("module {module}")))?;
                    let inst = prefix_name(name, prefix);
                    // Ports of the instance become wires named `inst.port`.
                    for port in &self.circuit.modules[sub].ports {
                        let wire = format!("{inst}.{}", port.name);
                        self.env.bind(wire.clone(), port.ty)?;
                        out.push(Stmt::Wire {
                            name: wire,
                            ty: port.ty,
                        });
                    }
                    self.flatten_module(sub, &inst, out)?;
                    continue;
                }
                Stmt::When {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let mut t = Vec::new();
                    let mut e = Vec::new();
                    self.flatten_body(index, prefix, then_body, &mut t)?;
                    self.flatten_body(index, prefix, else_body, &mut e)?;
                    Stmt::When {
                        cond: prefix_expr(cond, prefix),
                        then_body: t,
                        else_body: e,
                    }
                }
                Stmt::Skip => Stmt::Skip,
            };
            out.push(stmt);
        }
        Ok(())
    }

    /// Binds a declared name under its hierarchical name, which it returns.
    fn declare(&mut self, prefix: &str, name: &'c str, ty: Type) -> Result<String> {
        let name = prefix_name(name, prefix);
        self.env.bind(name.clone(), ty)?;
        Ok(name.into_owned())
    }
}

/// `name` as seen from the top: every name a checked module mentions is
/// its own, so all of them move under the instance's prefix.
fn prefix_name<'c>(name: &'c str, prefix: &str) -> Cow<'c, str> {
    if prefix.is_empty() {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(format!("{prefix}.{name}"))
    }
}

fn prefix_expr(expr: &Expr, prefix: &str) -> Expr {
    if prefix.is_empty() {
        return expr.clone();
    }
    match expr {
        Expr::Ref(n) => Expr::Ref(prefix_name(n, prefix).into_owned()),
        Expr::UIntLit { .. } | Expr::SIntLit { .. } => expr.clone(),
        Expr::Mux { cond, tval, fval } => Expr::Mux {
            cond: Box::new(prefix_expr(cond, prefix)),
            tval: Box::new(prefix_expr(tval, prefix)),
            fval: Box::new(prefix_expr(fval, prefix)),
        },
        Expr::ValidIf { cond, value } => Expr::ValidIf {
            cond: Box::new(prefix_expr(cond, prefix)),
            value: Box::new(prefix_expr(value, prefix)),
        },
        Expr::Prim { op, args, params } => {
            // A loop, not `map().collect()`: this recurses once per
            // nesting level, and unoptimized every adapter is a frame.
            let mut prefixed = Vec::with_capacity(args.len());
            for a in args {
                prefixed.push(prefix_expr(a, prefix));
            }
            Expr::prim_p(*op, prefixed, params.clone())
        }
    }
}

/// Appends what a `mem` of the design under `top` becomes — port wires,
/// a register per cell clocked by the design's clock, a read mux tree —
/// to `out`, and declares it in `env`.
fn lower_mem(
    name: &str,
    ty: Type,
    depth: usize,
    top: &Module,
    env: &mut TypeEnv<'_>,
    out: &mut Vec<Stmt>,
) -> Result<()> {
    let clock = top
        .ports
        .iter()
        .find(|p| p.dir == Direction::Input && p.ty.is_clock());
    let clock = clock
        .map(|p| p.name.as_str())
        .ok_or_else(|| FirrtlError::Lower(format!("memory {name} requires a clock input port")))?;
    if depth == 0 {
        return Err(FirrtlError::Lower(format!("memory {name} has zero depth")));
    }
    let aw = mem_addr_width(depth);
    // Port wires keep their names so parent connects keep working.
    for (field, fty) in [
        ("raddr", Type::uint(aw)),
        ("waddr", Type::uint(aw)),
        ("wdata", ty),
        ("wen", Type::uint(1)),
    ] {
        let wire = format!("{name}.{field}");
        env.bind(wire.clone(), fty)?;
        out.push(Stmt::Wire {
            name: wire,
            ty: fty,
        });
    }
    // One register per cell; write-enable mux on the next state.
    for k in 0..depth {
        let cell = format!("{name}.cell_{k}");
        env.bind(cell.clone(), ty)?;
        out.push(Stmt::Reg {
            name: cell.clone(),
            ty,
            clock: Expr::r(clock),
            reset: None,
        });
        let hit = Expr::prim(
            PrimOp::And,
            vec![
                Expr::r(format!("{name}.wen")),
                Expr::prim(
                    PrimOp::Eq,
                    vec![Expr::r(format!("{name}.waddr")), Expr::u(k as u64, aw)],
                ),
            ],
        );
        out.push(Stmt::Connect {
            target: cell.clone(),
            value: Expr::mux(hit, Expr::r(format!("{name}.wdata")), Expr::r(cell)),
        });
    }
    // Combinational read: balanced mux tree over the address bits.
    let cells: Vec<Expr> = (0..depth)
        .map(|k| Expr::r(format!("{name}.cell_{k}")))
        .collect();
    let tree = mux_tree(&Expr::r(format!("{name}.raddr")), &cells, aw, ty);
    let rdata = format!("{name}.rdata");
    env.bind(rdata.clone(), env.type_of(&tree)?)?;
    out.push(Stmt::Node {
        name: rdata,
        value: tree,
    });
    Ok(())
}

/// Builds a balanced mux tree selecting `cells[addr]`; out-of-range
/// addresses (non-power-of-two depth) read as 0.
fn mux_tree(addr: &Expr, cells: &[Expr], addr_width: u32, ty: Type) -> Expr {
    fn rec(addr: &Expr, cells: &[Expr], bit: i64, lo: usize, span: usize, zero: &Expr) -> Expr {
        if span == 1 {
            return cells.get(lo).cloned().unwrap_or_else(|| zero.clone());
        }
        if lo >= cells.len() {
            return zero.clone();
        }
        let half = span / 2;
        let sel = Expr::prim_p(
            PrimOp::Bits,
            vec![addr.clone()],
            vec![bit as u64, bit as u64],
        );
        let low = rec(addr, cells, bit - 1, lo, half, zero);
        let high = rec(addr, cells, bit - 1, lo + half, half, zero);
        Expr::mux(sel, high, low)
    }
    let zero = if ty.is_signed() {
        Expr::s(0, ty.width())
    } else {
        Expr::u(0, ty.width())
    };
    let span = 1usize << addr_width;
    rec(addr, cells, addr_width as i64 - 1, 0, span, &zero)
}

/// A register declaration: name, type, and optional (reset, init) pair.
type RegTarget = (String, Type, Option<(Expr, Expr)>);

/// Resolves the `when` blocks of the flattened `body` of `top` and
/// assembles the [`FlatModule`], moving every expression out of `body`.
/// Also returns how many of the flat module's `nodes` were nodes in the
/// source; the rest were wires.
fn resolve(top: &Module, body: Vec<Stmt>, env: &TypeEnv<'_>) -> Result<(FlatModule, usize)> {
    let mut flat = FlatModule {
        name: top.name.clone(),
        ..FlatModule::default()
    };
    for port in &top.ports {
        match (port.dir, port.ty) {
            (Direction::Input, Type::Clock) => flat.clocks.push(port.name.clone()),
            (Direction::Input, ty) => flat.inputs.push((port.name.clone(), ty)),
            (Direction::Output, _) => {} // filled below
        }
    }
    if flat.clocks.len() > 1 {
        return Err(FirrtlError::Lower(format!(
            "{} clock inputs found; RTeAAL Sim targets a single clock domain (paper §6.2)",
            flat.clocks.len()
        )));
    }

    // Last-connect-wins resolution. Registers start bound to themselves
    // (hold), wherever they are declared; wires and outputs start unbound.
    let mut resolver = Resolver {
        env,
        nodes: Vec::new(),
        regs: Vec::new(),
        wires: Vec::new(),
    };
    let mut bindings = Scope::default();
    hold_registers(&body, &mut bindings.own);
    resolver.resolve_body(body, &mut bindings)?;
    let mut bindings = bindings.own;
    flat.nodes = resolver.nodes;
    let first_wire = flat.nodes.len();

    // Registers: apply synchronous reset with highest priority.
    for (name, ty, reset) in resolver.regs {
        let mut next = bindings
            .remove(&name)
            .expect("register binding seeded above");
        if let Some((rst, init)) = reset {
            next = Expr::mux(rst, init, next);
        }
        flat.regs.push(FlatReg {
            name,
            ty,
            next,
            init: 0,
        });
    }
    // Wires must be driven; they become nodes bound to their final value.
    for (name, ty) in resolver.wires {
        let value = bindings
            .remove(&name)
            .ok_or_else(|| FirrtlError::Lower(format!("wire {name} is never driven")))?;
        flat.nodes.push((name, ty, value));
    }
    // Outputs must be driven.
    for port in &top.ports {
        if port.dir == Direction::Output {
            let value = bindings.remove(&port.name).ok_or_else(|| {
                FirrtlError::Lower(format!("output {} is never driven", port.name))
            })?;
            flat.outputs.push((port.name.clone(), port.ty, value));
        }
    }
    Ok((flat, first_wire))
}

fn hold_registers(body: &[Stmt], bindings: &mut HashMap<String, Expr>) {
    for stmt in body {
        match stmt {
            Stmt::Reg { name, .. } => {
                bindings.insert(name.clone(), Expr::r(name.clone()));
            }
            Stmt::When {
                then_body,
                else_body,
                ..
            } => {
                hold_registers(then_body, bindings);
                hold_registers(else_body, bindings);
            }
            _ => {}
        }
    }
}

/// The connects made so far in one `when` branch, over those of the
/// enclosing blocks.
#[derive(Default)]
struct Scope<'p> {
    own: HashMap<String, Expr>,
    parent: Option<&'p Scope<'p>>,
}

impl Scope<'_> {
    fn get(&self, target: &str) -> Option<&Expr> {
        self.own
            .get(target)
            .or_else(|| self.parent.and_then(|p| p.get(target)))
    }
}

/// What `when` resolution takes out of the module's statements, in
/// statement order.
struct Resolver<'e> {
    env: &'e TypeEnv<'e>,
    nodes: Vec<(String, Type, Expr)>,
    regs: Vec<RegTarget>,
    wires: Vec<(String, Type)>,
}

impl Resolver<'_> {
    fn resolve_body(&mut self, body: Vec<Stmt>, bindings: &mut Scope<'_>) -> Result<()> {
        for stmt in body {
            match stmt {
                Stmt::Connect { target, value } => {
                    bindings.own.insert(target, value);
                }
                Stmt::Node { name, value } => {
                    // Nodes are immutable; record as a combinational binding.
                    let ty = self.env.get(&name).expect("declared while flattening");
                    self.nodes.push((name, ty, value));
                }
                Stmt::Reg {
                    name, ty, reset, ..
                } => self.regs.push((name, ty, reset)),
                Stmt::Wire { name, ty } => self.wires.push((name, ty)),
                Stmt::When {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let mut branch = |body| {
                        let mut scope = Scope {
                            own: HashMap::new(),
                            parent: Some(&*bindings),
                        };
                        self.resolve_body(body, &mut scope)?;
                        Ok(scope.own)
                    };
                    let (mut then_b, mut else_b) = (branch(then_body)?, branch(else_body)?);
                    // A target connected in neither branch keeps its value;
                    // one connected in a single branch holds it in the other.
                    let targets: Vec<String> = then_b
                        .keys()
                        .chain(else_b.keys().filter(|t| !then_b.contains_key(*t)))
                        .cloned()
                        .collect();
                    for t in targets {
                        let tv = then_b.remove(&t).or_else(|| bindings.get(&t).cloned());
                        let ev = else_b.remove(&t).or_else(|| bindings.get(&t).cloned());
                        let merged = match (tv, ev) {
                            (Some(tv), Some(ev)) if tv == ev => tv,
                            (Some(tv), Some(ev)) => Expr::mux(cond.clone(), tv, ev),
                            // Driven only in the then-branch of a when with
                            // no prior default: conditionally valid.
                            (Some(tv), None) => Expr::ValidIf {
                                cond: Box::new(cond.clone()),
                                value: Box::new(tv),
                            },
                            (None, Some(ev)) => Expr::ValidIf {
                                cond: Box::new(Expr::prim(
                                    PrimOp::Eq,
                                    vec![cond.clone(), Expr::u(0, 1)],
                                )),
                                value: Box::new(ev),
                            },
                            (None, None) => unreachable!("a target is connected in a branch"),
                        };
                        bindings.own.insert(t, merged);
                    }
                }
                Stmt::Skip => {}
                Stmt::Instance { .. } | Stmt::Mem { .. } => {
                    unreachable!("instances and mems lowered before resolution")
                }
            }
        }
        Ok(())
    }
}

/// Narrows the former wires of a resolved flat module — `nodes[first_wire..]`
/// — from their declared type to the type of what drives them, and retypes
/// the bindings that (transitively) refer to a wire whose type moved; the
/// others keep the type of their one typing untouched. Bindings may refer
/// to each other in any order after `when` resolution, so this walks
/// references depth-first instead of in definition order; a wire that
/// reaches itself is a combinational cycle.
fn retype_nodes(flat: &mut FlatModule, first_wire: usize) -> Result<()> {
    if first_wire == flat.nodes.len() {
        return Ok(());
    }
    let mut sources = TypeEnv::default();
    let ports = flat.inputs.iter().map(|(name, ty)| (name, *ty));
    let ports = ports.chain(flat.clocks.iter().map(|name| (name, Type::Clock)));
    for (name, ty) in ports.chain(flat.regs.iter().map(|reg| (&reg.name, reg.ty))) {
        sources.bind(name.as_str(), ty)?;
    }
    let names = flat.nodes.iter().map(|(name, _, _)| name.as_str());
    let mut retyper = Retyper {
        nodes: &flat.nodes,
        first_wire,
        sources,
        index: names.clone().zip(0..).collect(),
        types: flat.nodes.iter().map(|(_, ty, _)| Some(*ty)).collect(),
        visited: vec![false; flat.nodes.len()],
        moved: vec![true; flat.nodes.len()],
    };
    (0..flat.nodes.len()).for_each(|i| {
        retyper.visit(i);
    });
    let types = retyper.types;
    let untyped = names.zip(&types).filter(|(_, ty)| ty.is_none());
    let untyped: Vec<&str> = untyped.map(|(name, _)| name).collect();
    if !untyped.is_empty() {
        return Err(FirrtlError::Lower(format!(
            "could not type {} combinational bindings (cycle or undefined ref?): {:?}",
            untyped.len(),
            &untyped[..untyped.len().min(5)]
        )));
    }
    for (node, ty) in flat.nodes.iter_mut().zip(types) {
        node.1 = ty.expect("checked above");
    }
    Ok(())
}

struct Retyper<'f> {
    nodes: &'f [(String, Type, Expr)],
    first_wire: usize,
    /// Inputs, clocks and registers.
    sources: TypeEnv<'f>,
    index: HashMap<&'f str, usize>,
    /// `None` while a binding is on the walk's path (a reference to it from
    /// there is a cycle) and when it could not be typed.
    types: Vec<Option<Type>>,
    visited: Vec<bool>,
    /// Whether a visited binding's type changed, or failed; read as true
    /// on the walk's path.
    moved: Vec<bool>,
}

impl Retyper<'_> {
    /// Types binding `i` after everything it refers to; whether it moved.
    fn visit(&mut self, i: usize) -> bool {
        if std::mem::replace(&mut self.visited[i], true) {
            return self.moved[i];
        }
        let (expr, recorded) = (&self.nodes[i].2, self.types[i].take());
        // What drives a wire has never been typed as a whole.
        let mut retype = i >= self.first_wire;
        expr.for_each_ref(&mut |name| {
            if let Some(&j) = self.index.get(name) {
                retype |= self.visit(j);
            }
        });
        let lookup = |name: &str| match self.index.get(name) {
            Some(&j) => self.types[j],
            None => self.sources.get(name),
        };
        self.types[i] = match retype {
            true => type_of(expr, &lookup).ok(),
            false => recorded,
        };
        self.moved[i] = self.types[i] != recorded;
        self.moved[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CircuitBuilder, ModuleBuilder};

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
        assert_eq!(flat.clocks, vec!["clock"]);
        // Reset wraps the next expression in a mux.
        assert!(matches!(flat.regs[0].next, Expr::Mux { .. }));
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
        match &flat.regs[0].next {
            Expr::Mux { cond, tval, fval } => {
                assert_eq!(**cond, Expr::r("c"));
                assert_eq!(**tval, Expr::u(2, 4));
                assert_eq!(**fval, Expr::u(1, 4));
            }
            other => panic!("expected mux, got {other}"),
        }
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
        match &flat.regs[0].next {
            Expr::Mux { fval, .. } => assert_eq!(**fval, Expr::r("r")),
            other => panic!("expected mux with hold arm, got {other}"),
        }
    }

    #[test]
    fn instances_flatten_with_hierarchical_names() {
        let mut sub = ModuleBuilder::new("Inc");
        let x = sub.input("x", Type::uint(8));
        sub.output_expr(
            "y",
            Type::uint(8),
            Expr::prim_p(
                PrimOp::Tail,
                vec![Expr::prim(PrimOp::Add, vec![x, Expr::u(1, 8)])],
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
        assert!(flat.nodes.iter().any(|(n, _, _)| n == "i0.y"));
        assert!(flat.nodes.iter().any(|(n, _, _)| n == "i1.x"));
        assert_eq!(flat.regs.len(), 0);
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
        assert_eq!(flat.regs.len(), 4); // one per cell
        assert!(flat.nodes.iter().any(|(n, _, _)| n == "m.rdata"));
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
        match &flat.regs[0].next {
            Expr::Mux { cond, tval, fval } => {
                assert_eq!(**cond, Expr::r("c1"));
                assert!(matches!(**tval, Expr::Mux { .. }));
                assert_eq!(**fval, Expr::u(9, 4));
            }
            other => panic!("expected nested mux, got {other}"),
        }
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
            let hold = Expr::r(cell.name.clone());
            assert!(
                matches!(&cell.next, Expr::Mux { cond, fval, .. }
                    if **cond == Expr::r("c") && **fval == hold),
                "{}",
                cell.next
            );
        }
    }

    #[test]
    fn a_wire_is_typed_by_its_driver_and_so_is_what_reads_it() {
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
        let ty = |name: &str| flat.nodes.iter().find(|n| n.0 == name).unwrap().1;
        assert_eq!(ty("w"), Type::uint(4));
        assert_eq!(ty("n"), Type::uint(5));
        assert_eq!(ty("k"), Type::uint(8));
    }
}
