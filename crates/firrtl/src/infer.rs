//! Type checking and width inference for modules.
//!
//! Builds a [`TypeEnv`] mapping every referenceable name in a module
//! (ports, wires, registers, nodes, instance ports `inst.port`, memory port
//! fields `mem.raddr` …) to its [`Type`], then types every expression.
//! Node types are *inferred* from their defining expression, in definition
//! order; FIRRTL's width-growth rules come from
//! [`PrimOp::result_type`](crate::ops::PrimOp::result_type).

use crate::ast::{Circuit, Direction, Expr, Module, Stmt};
use crate::error::{FirrtlError, Result};
use crate::ops::PrimOp;
use crate::ty::{bits_for, Type};
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};

/// Types of every referenceable signal in one module. Names declared in
/// the source are borrowed from it; only synthesized ones (`inst.port`,
/// `mem.raddr`, a flattened `core0.alu.acc`) are owned.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv<'a> {
    map: HashMap<Cow<'a, str>, Type>,
}

impl<'a> TypeEnv<'a> {
    /// Looks up the type of a name.
    pub fn get(&self, name: &str) -> Option<Type> {
        self.map.get(name).copied()
    }

    /// Number of typed names.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(name, type)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Type)> {
        self.map.iter().map(|(name, ty)| (name.as_ref(), *ty))
    }

    /// Binds a name to a type.
    ///
    /// # Errors
    ///
    /// Returns [`FirrtlError::Duplicate`] if the name is already bound.
    pub fn bind(&mut self, name: impl Into<Cow<'a, str>>, ty: Type) -> Result<()> {
        match self.map.entry(name.into()) {
            Entry::Occupied(bound) => Err(FirrtlError::Duplicate(bound.key().to_string())),
            Entry::Vacant(free) => {
                free.insert(ty);
                Ok(())
            }
        }
    }

    /// Infers the type of an expression under this environment.
    ///
    /// # Errors
    ///
    /// Returns an error for undefined references, clock misuse, or operand
    /// type violations (via [`PrimOp::result_type`](crate::ops::PrimOp::result_type)).
    pub fn type_of(&self, expr: &Expr) -> Result<Type> {
        type_of(expr, &|name| self.get(name))
    }
}

/// Infers the type of an expression whose references `lookup` types.
///
/// This and the three functions it hands the nested forms to recurse once
/// per nesting level, up to the parser's
/// [`MAX_EXPR_DEPTH`](crate::parser::MAX_EXPR_DEPTH); each form has a
/// function of its own, and the checks that can fail theirs, because an
/// unoptimized build gives every `?` and every message of a function room
/// in each of its frames.
///
/// # Errors
///
/// See [`TypeEnv::type_of`].
pub(crate) fn type_of(expr: &Expr, lookup: &impl Fn(&str) -> Option<Type>) -> Result<Type> {
    match expr {
        Expr::Ref(name) => lookup(name).ok_or_else(|| FirrtlError::Undefined(name.clone())),
        Expr::UIntLit { value, width } => literal_type(bits_for(*value), *width, false, value),
        Expr::SIntLit { value, width } => {
            let needed = if *value < 0 {
                64 - (!*value as u64).leading_zeros() + 1
            } else {
                bits_for(*value as u64) + 1
            };
            literal_type(needed, *width, true, value)
        }
        Expr::Mux { cond, tval, fval } => type_of_mux(cond, tval, fval, lookup),
        Expr::ValidIf { cond, value } => {
            not_a_clock(type_of(cond, lookup)?, "validif")?;
            type_of(value, lookup)
        }
        Expr::Prim { op, args, params } => type_of_prim(*op, args, params, lookup),
    }
}

fn type_of_mux(
    cond: &Expr,
    tval: &Expr,
    fval: &Expr,
    lookup: &impl Fn(&str) -> Option<Type>,
) -> Result<Type> {
    not_a_clock(type_of(cond, lookup)?, "mux")?;
    let tt = type_of(tval, lookup)?;
    let ft = type_of(fval, lookup)?;
    if tt.is_signed() != ft.is_signed() || tt.is_clock() || ft.is_clock() {
        return Err(arms_disagree(tt, ft));
    }
    Ok(tt.with_width(tt.width().max(ft.width())))
}

fn type_of_prim(
    op: PrimOp,
    args: &[Expr],
    params: &[u64],
    lookup: &impl Fn(&str) -> Option<Type>,
) -> Result<Type> {
    // No op takes more than two operands; a malformed longer list still
    // reaches `result_type`'s count check.
    let mut pair = [Type::Clock; 2];
    if args.len() > pair.len() {
        let spill = args.iter().map(|a| type_of(a, lookup));
        return op.result_type(&spill.collect::<Result<Vec<_>>>()?, params);
    }
    for (ty, a) in pair.iter_mut().zip(args) {
        *ty = type_of(a, lookup)?;
    }
    op.result_type(&pair[..args.len()], params)
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

/// Builds the type environment of `module`, resolving instance port types
/// against the other modules in `circuit`.
///
/// Declarations inside `when` bodies are hoisted to module scope (see the
/// lowering notes in [`crate::lower`]).
///
/// # Errors
///
/// Returns [`FirrtlError::Duplicate`] for redefined names,
/// [`FirrtlError::Undefined`] for instances of unknown modules, and
/// [`FirrtlError::Type`] for mis-typed node definitions.
pub fn build_env<'c>(circuit: &'c Circuit, module: &'c Module) -> Result<TypeEnv<'c>> {
    let mut env = TypeEnv::default();
    for port in &module.ports {
        env.bind(port.name.as_str(), port.ty)?;
    }
    collect_decls(circuit, &module.body, &mut env)?;
    // Nodes are typed in a second pass, in order, because a node's type
    // depends on earlier definitions.
    type_nodes(&module.body, &mut env)?;
    Ok(env)
}

fn collect_decls<'c>(circuit: &'c Circuit, body: &'c [Stmt], env: &mut TypeEnv<'c>) -> Result<()> {
    for stmt in body {
        match stmt {
            Stmt::Wire { name, ty } | Stmt::Reg { name, ty, .. } => env.bind(name.as_str(), *ty)?,
            Stmt::Instance { name, module } => {
                let target = circuit
                    .module(module)
                    .ok_or_else(|| FirrtlError::Undefined(format!("module {module}")))?;
                for port in &target.ports {
                    env.bind(format!("{name}.{}", port.name), port.ty)?;
                }
            }
            Stmt::Mem {
                name, ty, depth, ..
            } => {
                let aw = mem_addr_width(*depth);
                env.bind(format!("{name}.raddr"), Type::uint(aw))?;
                env.bind(format!("{name}.rdata"), *ty)?;
                env.bind(format!("{name}.waddr"), Type::uint(aw))?;
                env.bind(format!("{name}.wdata"), *ty)?;
                env.bind(format!("{name}.wen"), Type::uint(1))?;
            }
            Stmt::When {
                then_body,
                else_body,
                ..
            } => {
                collect_decls(circuit, then_body, env)?;
                collect_decls(circuit, else_body, env)?;
            }
            Stmt::Node { .. } | Stmt::Connect { .. } | Stmt::Skip => {}
        }
    }
    Ok(())
}

fn type_nodes<'c>(body: &'c [Stmt], env: &mut TypeEnv<'c>) -> Result<()> {
    for stmt in body {
        match stmt {
            Stmt::Node { name, value } => {
                let ty = env.type_of(value)?;
                env.bind(name.as_str(), ty)?;
            }
            Stmt::When {
                then_body,
                else_body,
                ..
            } => {
                type_nodes(then_body, env)?;
                type_nodes(else_body, env)?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// Fully type-checks a module: builds the environment, checks every connect
/// target/value pair (signedness must match; widths adjust implicitly via
/// pad/truncate during lowering), and checks `when` conditions.
///
/// # Errors
///
/// Returns the first type error found.
pub fn check_module<'c>(circuit: &'c Circuit, module: &'c Module) -> Result<TypeEnv<'c>> {
    let env = build_env(circuit, module)?;
    check_body(&env, &module.body)?;
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
    Ok(env)
}

fn check_body(env: &TypeEnv<'_>, body: &[Stmt]) -> Result<()> {
    for stmt in body {
        match stmt {
            Stmt::Connect { target, value } => {
                let tt = env
                    .get(target)
                    .ok_or_else(|| FirrtlError::Undefined(target.clone()))?;
                let vt = env.type_of(value)?;
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
            }
            Stmt::Reg { clock, reset, .. } => {
                let ct = env.type_of(clock)?;
                if !ct.is_clock() {
                    return Err(FirrtlError::Type(format!(
                        "register clock has type {ct}, expected Clock"
                    )));
                }
                if let Some((rst, init)) = reset {
                    let rt = env.type_of(rst)?;
                    if rt.is_clock() || rt.width() != 1 {
                        return Err(FirrtlError::Type(format!(
                            "register reset has type {rt}, expected UInt<1>"
                        )));
                    }
                    env.type_of(init)?;
                }
            }
            Stmt::When {
                cond,
                then_body,
                else_body,
            } => {
                let ct = env.type_of(cond)?;
                if ct.is_clock() {
                    return Err(FirrtlError::Type("when condition cannot be a clock".into()));
                }
                check_body(env, then_body)?;
                check_body(env, else_body)?;
            }
            // A node's value was typed when the environment was built.
            Stmt::Node { .. }
            | Stmt::Wire { .. }
            | Stmt::Instance { .. }
            | Stmt::Mem { .. }
            | Stmt::Skip => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CircuitBuilder, ModuleBuilder};
    use crate::ops::PrimOp;

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

    #[test]
    fn env_types_everything() {
        let c = simple_circuit();
        let env = build_env(&c, c.top().unwrap()).unwrap();
        assert_eq!(env.get("a"), Some(Type::uint(8)));
        assert_eq!(env.get("r"), Some(Type::uint(8)));
        assert_eq!(env.get("sum"), Some(Type::uint(9))); // add grows
        assert_eq!(env.get("clock"), Some(Type::Clock));
        assert!(env.get("nope").is_none());
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
        let err = build_env(&c, c.top().unwrap()).unwrap_err();
        assert!(matches!(err, FirrtlError::Undefined(_)));
    }

    #[test]
    fn duplicate_definition_caught() {
        let mut b = ModuleBuilder::new("Top");
        b.wire("w", Type::uint(1));
        b.wire("w", Type::uint(2));
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(b.finish());
        let c = cb.finish();
        assert!(matches!(
            build_env(&c, c.top().unwrap()).unwrap_err(),
            FirrtlError::Duplicate(_)
        ));
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
        let env = build_env(&c, c.top().unwrap()).unwrap();
        assert_eq!(env.get("s0.x"), Some(Type::uint(4)));
        assert_eq!(env.get("s0.y"), Some(Type::uint(4)));
        assert_eq!(env.get("n"), Some(Type::uint(4)));
    }

    #[test]
    fn mem_ports_enter_env() {
        let mut b = ModuleBuilder::new("Top");
        b.mem("m", Type::uint(8), 16, vec![]);
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(b.finish());
        let c = cb.finish();
        let env = build_env(&c, c.top().unwrap()).unwrap();
        assert_eq!(env.get("m.raddr"), Some(Type::uint(4)));
        assert_eq!(env.get("m.rdata"), Some(Type::uint(8)));
        assert_eq!(env.get("m.wen"), Some(Type::uint(1)));
    }

    #[test]
    fn literal_width_check() {
        let env = TypeEnv::default();
        assert!(env.type_of(&Expr::u(255, 8)).is_ok());
        assert!(env.type_of(&Expr::u(256, 8)).is_err());
        assert!(env.type_of(&Expr::s(-128, 8)).is_ok());
        assert!(env.type_of(&Expr::s(-129, 8)).is_err());
        assert!(env.type_of(&Expr::s(127, 8)).is_ok());
        assert!(env.type_of(&Expr::s(128, 8)).is_err());
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
        let env = build_env(&c, c.top().unwrap()).unwrap();
        let m = Expr::mux(Expr::r("c"), Expr::r("t"), Expr::r("f"));
        assert_eq!(env.type_of(&m).unwrap(), Type::uint(8));
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
