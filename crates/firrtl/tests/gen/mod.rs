//! Random well-typed circuits for the front-end property tests: two
//! modules, every primitive op with its parameter count, literals of both
//! signs, registers with and without reset, a memory, instances, wires
//! driven unconditionally, in both branches or in one, and `when`/`else`
//! nested three deep. One seed, one circuit.

use rteaal_firrtl::ast::{Circuit, Direction, Expr, Module, Port, Stmt};
use rteaal_firrtl::ops::{PrimOp, ALL_PRIM_OPS};
use rteaal_firrtl::ty::Type;

/// splitmix64 — every choice below is drawn from one generated seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// An expression in scope and its type.
type Sig = (Expr, Type);

struct ModuleGen<'r> {
    rng: &'r mut Rng,
    /// What an expression may refer to.
    pool: Vec<Sig>,
    /// Registers and wires a connect may drive, each with how much of
    /// `pool` may drive it: a wire only what was in scope before it, or
    /// the new driver could be computed from the wire itself.
    targets: Vec<(String, Type, usize)>,
    /// Names declared so far, for unique ones.
    names: usize,
}

impl ModuleGen<'_> {
    fn fresh(&mut self, kind: &str) -> String {
        self.names += 1;
        format!("{kind}{}", self.names)
    }

    fn literal(&mut self, signed: bool) -> Sig {
        // `SInt<1>` cannot hold 0, which counts as two bits.
        let w = 1 + signed as u32 + self.rng.below(15) as u32;
        if signed {
            let span = 1i64 << (w - 1);
            let v = self.rng.below(2 * span as u64) as i64 - span;
            (Expr::s(v, w), Type::sint(w))
        } else {
            (Expr::u(self.rng.below(1 << w), w), Type::uint(w))
        }
    }

    fn pick(&mut self) -> Sig {
        let k = self.rng.below(self.pool.len() as u64) as usize;
        self.pool[k].clone()
    }

    /// Something in scope of the given signedness, else a literal.
    fn pick_signed(&mut self, signed: bool) -> Sig {
        self.pick_signed_among(signed, usize::MAX)
    }

    /// [`Self::pick_signed`] among the first `bound` signals in scope.
    fn pick_signed_among(&mut self, signed: bool, bound: usize) -> Sig {
        let bound = bound.min(self.pool.len()) as u64;
        for _ in 0..8 {
            let sig = &self.pool[self.rng.below(bound) as usize];
            if sig.1.is_signed() == signed {
                return sig.clone();
            }
        }
        self.literal(signed)
    }

    fn condition(&mut self) -> Expr {
        self.condition_at().0
    }

    /// A one-bit condition, and where in scope it was taken from.
    fn condition_at(&mut self) -> (Expr, usize) {
        let k = self.rng.below(self.pool.len() as u64) as usize;
        let (e, ty) = self.pool[k].clone();
        if ty == Type::uint(1) {
            (e, k)
        } else {
            (Expr::prim(PrimOp::Orr, vec![e]), k)
        }
    }

    /// `op` over things in scope, with parameters in range for them.
    fn prim(&mut self, op: PrimOp, depth: u32) -> Option<Sig> {
        let a = self.expr(depth);
        let w = a.1.width() as u64;
        let params = match op {
            PrimOp::Pad => vec![1 + self.rng.below(20)],
            PrimOp::Shl => vec![self.rng.below(5)],
            PrimOp::Shr => vec![self.rng.below(10)],
            PrimOp::Head => vec![1 + self.rng.below(w)],
            PrimOp::Tail => vec![self.rng.below(w)],
            PrimOp::Bits => {
                let hi = self.rng.below(w);
                vec![hi, self.rng.below(hi + 1)]
            }
            _ => vec![],
        };
        let mut args = vec![a];
        if op.num_args() == 2 {
            args.push(match op {
                // Keeps the dynamic shifts from saturating every width.
                PrimOp::Dshl | PrimOp::Dshr => (Expr::u(self.rng.below(4), 2), Type::uint(2)),
                PrimOp::And | PrimOp::Or | PrimOp::Xor | PrimOp::Cat => self.expr(depth),
                _ => self.pick_signed(args[0].1.is_signed()),
            });
        }
        let tys: Vec<Type> = args.iter().map(|a| a.1).collect();
        let ty = op.result_type(&tys, &params).ok()?;
        let args = args.into_iter().map(|a| a.0).collect();
        Some((Expr::prim_p(op, args, params), ty))
    }

    fn expr(&mut self, depth: u32) -> Sig {
        if depth == 0 || self.rng.chance(30) {
            return if self.rng.chance(15) {
                let signed = self.rng.chance(40);
                self.literal(signed)
            } else {
                self.pick()
            };
        }
        match self.rng.below(10) {
            0 => {
                let cond = self.condition();
                let t = self.expr(depth - 1);
                let f = self.pick_signed(t.1.is_signed());
                let ty = t.1.with_width(t.1.width().max(f.1.width()));
                (Expr::mux(cond, t.0, f.0), ty)
            }
            1 => {
                let cond = Box::new(self.condition());
                let (value, ty) = self.expr(depth - 1);
                let value = Box::new(value);
                (Expr::ValidIf { cond, value }, ty)
            }
            _ => {
                let op = ALL_PRIM_OPS[self.rng.below(ALL_PRIM_OPS.len() as u64) as usize];
                self.prim(op, depth - 1).unwrap_or_else(|| self.pick())
            }
        }
    }

    fn node(&mut self, body: &mut Vec<Stmt>, value: Sig) {
        let name = self.fresh("n");
        body.push(Stmt::Node {
            name: name.clone(),
            value: value.0,
        });
        self.pool.push((Expr::r(name), value.1));
    }

    /// `target <= value` for a value of the target's signedness.
    fn connect(&mut self, (target, ty, bound): (String, Type, usize)) -> Stmt {
        let value = self.pick_signed_among(ty.is_signed(), bound).0;
        Stmt::Connect { target, value }
    }

    /// Drives a memory or instance port with a value of its signedness,
    /// of any width: a port is a wire, and a wire has its declared type.
    fn connect_port(&mut self, target: String, signed: bool) -> Stmt {
        let value = self.pick_signed(signed).0;
        Stmt::Connect { target, value }
    }

    /// A `when` over the targets declared so far, nested up to `depth`.
    /// A wire is connected only under conditions that were in scope before
    /// it (`scope` and up), or a condition could be computed from it.
    fn when(&mut self, depth: u32, scope: usize) -> Stmt {
        let (cond, at) = self.condition_at();
        let scope = scope.max(at + 1);
        let mut bodies = [Vec::new(), Vec::new()];
        for (k, body) in bodies.iter_mut().enumerate() {
            let stmts = self.rng.below(4) + (k == 0) as u64;
            for _ in 0..stmts {
                match self.rng.below(6) {
                    0 if depth > 1 => body.push(self.when(depth - 1, scope)),
                    1 => {
                        let value = self.expr(2);
                        self.node(body, value);
                    }
                    2 => body.push(Stmt::Skip),
                    _ => {
                        let k = self.rng.below(self.targets.len().max(1) as u64) as usize;
                        if let Some(target) = self.targets.get(k).filter(|t| t.2 >= scope) {
                            body.push(self.connect(target.clone()));
                        }
                    }
                }
            }
        }
        let [mut then_body, else_body] = bodies;
        if then_body.is_empty() {
            then_body.push(Stmt::Skip);
        }
        Stmt::When {
            cond,
            then_body,
            else_body,
        }
    }

    /// A wire of the type of something in scope — now and then declared
    /// wider than what drives it — driven unconditionally, in both
    /// branches of a `when`, or only in one. It is in scope with its
    /// declared type.
    fn wire(&mut self, body: &mut Vec<Stmt>) {
        let bound = self.pool.len();
        let (value, ty) = self.expr(2);
        let declared = if self.rng.chance(20) {
            ty.with_width(ty.width() + 1 + self.rng.below(3) as u32)
        } else {
            ty
        };
        let name = self.fresh("w");
        body.push(Stmt::Wire {
            name: name.clone(),
            ty: declared,
        });
        let drive = |value| {
            vec![Stmt::Connect {
                target: name.clone(),
                value,
            }]
        };
        match self.rng.below(10) {
            0 => {
                let other = self.pick_signed(ty.is_signed()).0;
                body.push(Stmt::When {
                    cond: self.condition(),
                    then_body: drive(value),
                    else_body: drive(other),
                });
            }
            1 => body.push(Stmt::When {
                cond: self.condition(),
                then_body: drive(value),
                else_body: vec![],
            }),
            2 => body.push(Stmt::When {
                cond: self.condition(),
                then_body: vec![Stmt::Skip],
                else_body: drive(value),
            }),
            _ => {
                body.extend(drive(value));
                self.targets.push((name.clone(), declared, bound));
            }
        }
        self.pool.push((Expr::r(name), declared));
    }

    fn reg(&mut self, body: &mut Vec<Stmt>) {
        let ty = self.pick().1;
        let name = self.fresh("r");
        let reset = self.rng.chance(50).then(|| {
            let init = if ty.is_signed() {
                Expr::s(-1, ty.width())
            } else {
                Expr::u(1, ty.width())
            };
            (Expr::r("reset"), init)
        });
        body.push(Stmt::Reg {
            name: name.clone(),
            ty,
            clock: Expr::r("clock"),
            reset,
        });
        self.targets.push((name.clone(), ty, usize::MAX));
        self.pool.push((Expr::r(name), ty));
    }

    fn mem(&mut self, body: &mut Vec<Stmt>) {
        let ty = Type::uint(1 + self.rng.below(12) as u32);
        let name = self.fresh("m");
        body.push(Stmt::Mem {
            name: name.clone(),
            ty,
            depth: 1 + self.rng.below(9) as usize,
            init: vec![],
        });
        for field in ["raddr", "waddr", "wdata", "wen"] {
            body.push(self.connect_port(format!("{name}.{field}"), false));
        }
        self.pool.push((Expr::r(format!("{name}.rdata")), ty));
    }

    fn instance(&mut self, body: &mut Vec<Stmt>, of: &Module) {
        let name = self.fresh("i");
        body.push(Stmt::Instance {
            name: name.clone(),
            module: of.name.clone(),
        });
        for port in &of.ports {
            let port_name = format!("{name}.{}", port.name);
            match (port.dir, port.ty) {
                (Direction::Input, Type::Clock) => body.push(Stmt::Connect {
                    target: port_name,
                    value: Expr::r("clock"),
                }),
                (Direction::Input, ty) => body.push(self.connect_port(port_name, ty.is_signed())),
                (Direction::Output, ty) => self.pool.push((Expr::r(port_name), ty)),
            }
        }
    }
}

fn port(name: &str, dir: Direction, ty: Type) -> Port {
    Port {
        name: name.to_string(),
        dir,
        ty,
    }
}

/// A module over the usual inputs: `statements` random statements, then a
/// few outputs. The top module (the one given a `leaf` to instantiate)
/// opens with one node per primitive op.
fn module(rng: &mut Rng, name: &str, leaf: Option<&Module>, statements: u64) -> Module {
    let mut m = Module::new(name);
    let inputs = [
        ("reset", Type::uint(1)),
        ("a", Type::uint(8)),
        ("b", Type::uint(13)),
        ("s", Type::sint(8)),
        ("t", Type::sint(5)),
    ];
    m.ports.push(port("clock", Direction::Input, Type::Clock));
    for (name, ty) in inputs {
        m.ports.push(port(name, Direction::Input, ty));
    }
    let mut g = ModuleGen {
        rng,
        pool: inputs.iter().map(|&(n, ty)| (Expr::r(n), ty)).collect(),
        targets: Vec::new(),
        names: 0,
    };
    let mut body = Vec::new();
    if leaf.is_some() {
        // The top module: every primitive op at least once.
        for &op in ALL_PRIM_OPS {
            let value = (0..16)
                .find_map(|_| g.prim(op, 1))
                .expect("some operands fit");
            g.node(&mut body, value);
        }
    }
    for _ in 0..statements {
        match g.rng.below(12) {
            0 | 1 => g.wire(&mut body),
            2 | 3 => g.reg(&mut body),
            4 => g.mem(&mut body),
            5 | 6 => match leaf {
                Some(leaf) => g.instance(&mut body, leaf),
                None => g.reg(&mut body),
            },
            7 | 8 => body.push(g.when(3, 0)),
            9 => match g.targets.last().cloned() {
                Some(target) => body.push(g.connect(target)),
                None => g.reg(&mut body),
            },
            _ => {
                let value = g.expr(3);
                g.node(&mut body, value);
            }
        }
    }
    for k in 0..2 + g.rng.below(3) {
        let (value, ty) = g.expr(2);
        let name = format!("out{k}");
        m.ports.push(port(&name, Direction::Output, ty));
        body.push(Stmt::Connect {
            target: name,
            value,
        });
    }
    m.body = body;
    m
}

/// A random two-module circuit that type-checks and lowers.
pub fn random_circuit(seed: u64) -> Circuit {
    let mut rng = Rng(seed);
    let leaf = module(&mut rng, "Leaf", None, 6);
    let statements = 4 + rng.below(24);
    let top = module(&mut rng, "Top", Some(&leaf), statements);
    let mut circuit = Circuit::new("Top");
    circuit.modules.push(leaf);
    circuit.modules.push(top);
    circuit
}

/// The same source spelled differently: tab indents, `;` comments, blank
/// lines, literal values in hex.
pub fn respell(text: &str, seed: u64) -> String {
    let mut rng = Rng(seed);
    let mut out = String::new();
    for line in text.lines() {
        let body = line.trim_start_matches(' ');
        let mut indent = line.len() - body.len();
        while indent >= 4 && rng.chance(50) {
            out.push('\t');
            indent -= 4;
        }
        out.push_str(&" ".repeat(indent));
        // `>(123)` and `>(-123)` are literal values.
        let mut rest = body;
        while let Some(at) = rest.find(">(") {
            let (before, value) = rest.split_at(at + 2);
            out.push_str(before);
            let digits = value.len()
                - value
                    .trim_start_matches(['-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9'])
                    .len();
            let number: i64 = value[..digits].parse().expect("a literal value");
            if rng.chance(50) {
                let sign = if number < 0 { "-" } else { "" };
                out.push_str(&format!("{sign}0x{:x}", number.unsigned_abs()));
            } else {
                out.push_str(&value[..digits]);
            }
            rest = &value[digits..];
        }
        out.push_str(rest);
        if rng.chance(20) {
            out.push_str(" ; as emitted: ");
            out.push_str(body);
        }
        out.push('\n');
        if rng.chance(10) {
            out.push_str("  \n");
        }
    }
    out
}
