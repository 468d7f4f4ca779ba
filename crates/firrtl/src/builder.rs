//! Programmatic construction of FIRRTL circuits.
//!
//! The design generators in `rteaal-designs` build circuits through
//! [`ModuleBuilder`] rather than emitting text, which keeps generation fast
//! for the large (multi-hundred-thousand-node) synthetic RocketChip/BOOM
//! analogs. Everything the builder produces can also be round-tripped
//! through the text [`parser`](crate::parser).

use crate::ast::{Circuit, Direction, Expr, Module, Port, Stmt};
use crate::ops::PrimOp;
use crate::ty::Type;
use std::collections::HashMap;

/// Builder for a single [`Module`].
///
/// # Examples
///
/// ```
/// use rteaal_firrtl::builder::ModuleBuilder;
/// use rteaal_firrtl::ty::Type;
/// use rteaal_firrtl::ast::Expr;
/// use rteaal_firrtl::ops::PrimOp;
///
/// let mut b = ModuleBuilder::new("Adder");
/// let clk = b.input("clock", Type::Clock);
/// let a = b.input("a", Type::uint(8));
/// let x = b.input("b", Type::uint(8));
/// let sum = b.node("sum", Expr::prim(PrimOp::Add, vec![a, x]));
/// let r = b.reg("acc", Type::uint(9), clk);
/// b.connect("acc", sum);
/// b.output_expr("out", Type::uint(9), r);
/// let m = b.finish();
/// assert_eq!(m.ports.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ModuleBuilder {
    module: Module,
    /// Per-prefix counters for [`Self::fresh`].
    counters: HashMap<String, usize>,
}

impl ModuleBuilder {
    /// Creates a builder for an empty module with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ModuleBuilder {
            module: Module::new(name),
            counters: HashMap::new(),
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.module.name
    }

    /// Generates a fresh name `prefix_<n>` unique within this builder.
    pub fn fresh(&mut self, prefix: &str) -> String {
        let n = self.counters.entry(prefix.to_string()).or_insert(0);
        let name = format!("{prefix}_{n}");
        *n += 1;
        name
    }

    /// Declares an input port and returns a reference expression to it.
    pub fn input(&mut self, name: impl Into<String>, ty: Type) -> Expr {
        let name = name.into();
        self.module.ports.push(Port {
            name: name.clone(),
            dir: Direction::Input,
            ty,
        });
        Expr::Ref(name)
    }

    /// Declares an output port and returns a reference expression to it.
    /// The port must be driven via [`Self::connect`].
    pub fn output(&mut self, name: impl Into<String>, ty: Type) -> Expr {
        let name = name.into();
        self.module.ports.push(Port {
            name: name.clone(),
            dir: Direction::Output,
            ty,
        });
        Expr::Ref(name)
    }

    /// Declares an output port and drives it with `value` in one step.
    pub fn output_expr(&mut self, name: impl Into<String>, ty: Type, value: Expr) -> Expr {
        let port = self.output(name, ty);
        self.connect_expr(port.clone(), value);
        port
    }

    /// Declares a wire and returns a reference expression to it.
    pub fn wire(&mut self, name: impl Into<String>, ty: Type) -> Expr {
        let name = name.into();
        self.module.body.push(Stmt::Wire {
            name: name.clone(),
            ty,
        });
        Expr::Ref(name)
    }

    /// Declares a register clocked by `clock` (no reset) and returns a
    /// reference expression to it.
    pub fn reg(&mut self, name: impl Into<String>, ty: Type, clock: Expr) -> Expr {
        let name = name.into();
        self.module.body.push(Stmt::Reg {
            name: name.clone(),
            ty,
            clock,
            reset: None,
        });
        Expr::Ref(name)
    }

    /// Declares a register with a synchronous reset to `init` when `reset`
    /// is high.
    pub fn reg_reset(
        &mut self,
        name: impl Into<String>,
        ty: Type,
        clock: Expr,
        reset: Expr,
        init: Expr,
    ) -> Expr {
        let name = name.into();
        self.module.body.push(Stmt::Reg {
            name: name.clone(),
            ty,
            clock,
            reset: Some((reset, init)),
        });
        Expr::Ref(name)
    }

    /// Declares a named node bound to `value` and returns a reference to it.
    pub fn node(&mut self, name: impl Into<String>, value: Expr) -> Expr {
        let name = name.into();
        self.module.body.push(Stmt::Node {
            name: name.clone(),
            value,
        });
        Expr::Ref(name)
    }

    /// Declares a node with a builder-generated fresh name.
    pub fn node_fresh(&mut self, prefix: &str, value: Expr) -> Expr {
        let name = self.fresh(prefix);
        self.node(name, value)
    }

    /// Connects `value` to the named target (register, wire, or output port).
    pub fn connect(&mut self, target: impl Into<String>, value: Expr) {
        self.module.body.push(Stmt::Connect {
            target: target.into(),
            value,
        });
    }

    /// Connects `value` to a target given as a `Ref` expression.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not an [`Expr::Ref`].
    fn connect_expr(&mut self, target: Expr, value: Expr) {
        match target {
            Expr::Ref(name) => self.connect(name, value),
            other => panic!("connect target must be a reference, got {other}"),
        }
    }

    /// Instantiates `module` under the instance name `name`. Ports of the
    /// instance are referenced as `name.port`.
    pub fn instance(&mut self, name: impl Into<String>, module: impl Into<String>) -> String {
        let name = name.into();
        self.module.body.push(Stmt::Instance {
            name: name.clone(),
            module: module.into(),
        });
        name
    }

    /// Declares a memory (combinational read, synchronous write) of `depth`
    /// entries of type `ty`, optionally initialized. Port fields are
    /// referenced as `name.raddr`, `name.rdata`, `name.waddr`, `name.wdata`,
    /// `name.wen`.
    pub fn mem(
        &mut self,
        name: impl Into<String>,
        ty: Type,
        depth: usize,
        init: Vec<u64>,
    ) -> String {
        let name = name.into();
        self.module.body.push(Stmt::Mem {
            name: name.clone(),
            ty,
            depth,
            init,
        });
        name
    }

    /// Opens a `when cond:` block; statements added through the returned
    /// scope builder land in the conditional bodies.
    pub fn when(&mut self, cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt>) {
        self.module.body.push(Stmt::When {
            cond,
            then_body,
            else_body,
        });
    }

    /// Pushes a raw statement (escape hatch for tests).
    pub fn push(&mut self, stmt: Stmt) {
        self.module.body.push(stmt);
    }

    /// Convenience: builds a binary primitive-op node with a fresh name.
    pub fn binop(&mut self, op: PrimOp, a: Expr, b: Expr) -> Expr {
        self.node_fresh(op.mnemonic(), Expr::prim(op, vec![a, b]))
    }

    /// Convenience: builds a unary primitive-op node with a fresh name.
    pub fn unop(&mut self, op: PrimOp, a: Expr) -> Expr {
        self.node_fresh(op.mnemonic(), Expr::prim(op, vec![a]))
    }

    /// Convenience: builds a mux node with a fresh name.
    pub fn mux(&mut self, cond: Expr, tval: Expr, fval: Expr) -> Expr {
        self.node_fresh("mux", Expr::mux(cond, tval, fval))
    }

    /// Consumes the builder and returns the module.
    pub fn finish(self) -> Module {
        self.module
    }
}

/// Builder for a [`Circuit`]: a collection of modules with a designated top.
///
/// # Examples
///
/// ```
/// use rteaal_firrtl::builder::{CircuitBuilder, ModuleBuilder};
/// let mut cb = CircuitBuilder::new("Top");
/// cb.add_module(ModuleBuilder::new("Top").finish());
/// let c = cb.finish();
/// assert!(c.top().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    circuit: Circuit,
}

impl CircuitBuilder {
    /// Creates a builder for a circuit whose top module is `top_name`.
    pub fn new(top_name: impl Into<String>) -> Self {
        CircuitBuilder {
            circuit: Circuit::new(top_name),
        }
    }

    /// Adds a module to the circuit.
    pub fn add_module(&mut self, module: Module) -> &mut Self {
        self.circuit.modules.push(module);
        self
    }

    /// Consumes the builder and returns the circuit.
    pub fn finish(self) -> Circuit {
        self.circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_names_are_unique() {
        let mut b = ModuleBuilder::new("M");
        let n1 = b.fresh("t");
        let n2 = b.fresh("t");
        let n3 = b.fresh("u");
        assert_ne!(n1, n2);
        assert_eq!(n3, "u_0");
    }

    #[test]
    fn builder_produces_expected_statements() {
        let mut b = ModuleBuilder::new("M");
        let clk = b.input("clock", Type::Clock);
        let a = b.input("a", Type::uint(4));
        let r = b.reg("r", Type::uint(4), clk);
        let s = b.binop(PrimOp::Add, a, r.clone());
        b.connect_expr(r, Expr::prim_p(PrimOp::Tail, vec![s.clone()], vec![1]));
        b.output_expr("out", Type::uint(4), Expr::r("r"));
        let m = b.finish();
        assert_eq!(m.ports.len(), 3);
        assert!(matches!(m.body[0], Stmt::Reg { .. }));
        assert!(matches!(m.body[1], Stmt::Node { .. }));
        assert!(matches!(m.body[2], Stmt::Connect { .. }));
    }

    #[test]
    #[should_panic(expected = "connect target must be a reference")]
    fn connect_expr_rejects_non_ref() {
        let mut b = ModuleBuilder::new("M");
        b.connect_expr(Expr::u(1, 1), Expr::u(0, 1));
    }

    #[test]
    fn circuit_builder_sets_top() {
        let mut cb = CircuitBuilder::new("Top");
        cb.add_module(ModuleBuilder::new("Sub").finish());
        cb.add_module(ModuleBuilder::new("Top").finish());
        let c = cb.finish();
        assert_eq!(c.top().unwrap().name, "Top");
        assert_eq!(c.modules.len(), 2);
    }
}
