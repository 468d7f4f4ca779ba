//! Abstract syntax tree for the FIRRTL subset.
//!
//! A [`Circuit`] contains [`Module`]s; the module whose name matches the
//! circuit name is the top module. Statements follow FIRRTL's lowered-ish
//! form plus `when`/`else` conditional blocks (resolved into muxes during
//! lowering, preserving FIRRTL's last-connect semantics).

use crate::ops::PrimOp;
use crate::ty::Type;
use std::fmt;

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    Input,
    Output,
}

/// A module port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    pub name: String,
    pub dir: Direction,
    pub ty: Type,
}

/// An expression over signals in scope.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Reference to a port, wire, node, register, instance port
    /// (`inst.port`), or memory port field (`mem.rdata`).
    Ref(String),
    /// Unsigned literal, e.g. `UInt<8>(42)`.
    UIntLit { value: u64, width: u32 },
    /// Signed literal, e.g. `SInt<8>(-3)` (stored two's complement, masked).
    SIntLit { value: i64, width: u32 },
    /// 2-way conditional select.
    Mux {
        cond: Box<Expr>,
        tval: Box<Expr>,
        fval: Box<Expr>,
    },
    /// `validif(cond, value)` — value when valid, undefined (we define: 0)
    /// otherwise.
    ValidIf { cond: Box<Expr>, value: Box<Expr> },
    /// Primitive operation with expression args and static integer params.
    Prim {
        op: PrimOp,
        args: Vec<Expr>,
        params: Vec<u64>,
    },
}

impl Expr {
    /// Reference expression from anything string-like.
    pub fn r(name: impl Into<String>) -> Expr {
        Expr::Ref(name.into())
    }

    /// Unsigned literal helper.
    pub fn u(value: u64, width: u32) -> Expr {
        Expr::UIntLit { value, width }
    }

    /// Signed literal helper.
    pub fn s(value: i64, width: u32) -> Expr {
        Expr::SIntLit { value, width }
    }

    /// Mux helper.
    pub fn mux(cond: Expr, tval: Expr, fval: Expr) -> Expr {
        Expr::Mux {
            cond: Box::new(cond),
            tval: Box::new(tval),
            fval: Box::new(fval),
        }
    }

    /// Primitive-op helper with no static params.
    pub fn prim(op: PrimOp, args: Vec<Expr>) -> Expr {
        Expr::Prim {
            op,
            args,
            params: vec![],
        }
    }

    /// Primitive-op helper with static params.
    pub fn prim_p(op: PrimOp, args: Vec<Expr>, params: Vec<u64>) -> Expr {
        Expr::Prim { op, args, params }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Ref(n) => f.write_str(n),
            Expr::UIntLit { value, width } => write!(f, "UInt<{width}>({value})"),
            Expr::SIntLit { value, width } => write!(f, "SInt<{width}>({value})"),
            Expr::Mux { cond, tval, fval } => write!(f, "mux({cond}, {tval}, {fval})"),
            Expr::ValidIf { cond, value } => write!(f, "validif({cond}, {value})"),
            Expr::Prim { op, args, params } => {
                write!(f, "{op}(")?;
                let mut first = true;
                for a in args {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                    first = false;
                }
                for p in params {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                    first = false;
                }
                write!(f, ")")
            }
        }
    }
}

/// A statement in a module body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `wire w : UInt<8>`
    Wire { name: String, ty: Type },
    /// `reg r : UInt<8>, clock` — optionally with a synchronous reset:
    /// `regreset r : UInt<8>, clock, reset, init`.
    Reg {
        name: String,
        ty: Type,
        clock: Expr,
        reset: Option<(Expr, Expr)>,
    },
    /// `node n = expr`
    Node { name: String, value: Expr },
    /// `target <= expr` (last connect wins, conditioned by enclosing `when`s).
    Connect { target: String, value: Expr },
    /// `inst name of Module`
    Instance { name: String, module: String },
    /// Simplified memory: combinational read, synchronous write, one port
    /// each. Accessed via `name.raddr`, `name.rdata`, `name.waddr`,
    /// `name.wdata`, `name.wen`. Lowered to registers + mux trees.
    Mem {
        name: String,
        ty: Type,
        depth: usize,
        init: Vec<u64>,
    },
    /// `when cond : ... else : ...`
    When {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    /// `skip`
    Skip,
}

/// A FIRRTL module: ports plus a body of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub name: String,
    pub ports: Vec<Port>,
    pub body: Vec<Stmt>,
}

impl Module {
    /// Creates an empty module with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ports: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Looks up a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }
}

/// A FIRRTL circuit: a set of modules with a designated top.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    pub name: String,
    pub modules: Vec<Module>,
}

impl Circuit {
    /// Creates a circuit with no modules; the top module must be added with
    /// the same name as the circuit.
    pub fn new(name: impl Into<String>) -> Self {
        Circuit {
            name: name.into(),
            modules: Vec::new(),
        }
    }

    /// The top module (same name as the circuit), if present.
    pub fn top(&self) -> Option<&Module> {
        self.module(&self.name)
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_helpers_and_display() {
        let e = Expr::prim(PrimOp::Add, vec![Expr::r("a"), Expr::u(3, 4)]);
        assert_eq!(e.to_string(), "add(a, UInt<4>(3))");
        let b = Expr::prim_p(PrimOp::Bits, vec![Expr::r("x")], vec![7, 0]);
        assert_eq!(b.to_string(), "bits(x, 7, 0)");
        let m = Expr::mux(Expr::r("c"), Expr::r("t"), Expr::r("f"));
        assert_eq!(m.to_string(), "mux(c, t, f)");
    }

    #[test]
    fn circuit_top_lookup() {
        let mut c = Circuit::new("Top");
        c.modules.push(Module::new("Sub"));
        c.modules.push(Module::new("Top"));
        assert_eq!(c.top().unwrap().name, "Top");
        assert!(c.module("Nope").is_none());
    }
}
