//! Reusable synchronous logic blocks for the design generators.
//!
//! These produce *connected, typed* FIRRTL logic — ALU slices, balanced
//! mux trees, priority mux chains, decoders, xor-reduction trees —
//! so the synthetic Chipyard-like designs exercise realistic op mixes,
//! fan-out, and levelization depth rather than random DAG noise
//! (DESIGN.md §4.1).

use rteaal_firrtl::ast::Expr;
use rteaal_firrtl::builder::ModuleBuilder;
use rteaal_firrtl::ops::PrimOp;

/// Truncating add: `tail(add(a, b), 1)` — keeps the operand width.
pub fn add_w(b: &mut ModuleBuilder, a: Expr, x: Expr) -> Expr {
    b.node_fresh(
        "addw",
        Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim(PrimOp::Add, vec![a, x])],
            vec![1],
        ),
    )
}

/// Truncating subtract.
pub fn sub_w(b: &mut ModuleBuilder, a: Expr, x: Expr) -> Expr {
    b.node_fresh(
        "subw",
        Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim(PrimOp::Sub, vec![a, x])],
            vec![1],
        ),
    )
}

/// Rotate-left of a `width`-bit value by a constant.
pub fn rotl(b: &mut ModuleBuilder, v: Expr, r: u32, width: u32) -> Expr {
    let r = r % width;
    if r == 0 {
        return v;
    }
    let hi = Expr::prim_p(
        PrimOp::Bits,
        vec![v.clone()],
        vec![(width - r - 1) as u64, 0],
    );
    let lo = Expr::prim_p(
        PrimOp::Bits,
        vec![v],
        vec![(width - 1) as u64, (width - r) as u64],
    );
    b.node_fresh("rotl", Expr::prim(PrimOp::Cat, vec![hi, lo]))
}

/// A balanced select tree: `items[sel]` for a `sel` of `ceil(log2(n))`
/// bits (out-of-range selects resolve to the last item).
pub fn mux_tree(b: &mut ModuleBuilder, sel: &Expr, items: &[Expr], sel_width: u32) -> Expr {
    fn rec(b: &mut ModuleBuilder, sel: &Expr, items: &[Expr], bit: i64) -> Expr {
        if items.len() == 1 || bit < 0 {
            return items[0].clone();
        }
        let half = 1usize << bit;
        if items.len() <= half {
            return rec(b, sel, items, bit - 1);
        }
        let s = Expr::prim_p(
            PrimOp::Bits,
            vec![sel.clone()],
            vec![bit as u64, bit as u64],
        );
        let lo = rec(b, sel, &items[..half], bit - 1);
        let hi = rec(b, sel, &items[half..], bit - 1);
        b.node_fresh("mt", Expr::mux(s, hi, lo))
    }
    assert!(!items.is_empty());
    rec(b, sel, items, sel_width as i64 - 1)
}

/// A priority mux chain (the structure operator fusion targets, Box 1):
/// `conds[0] ? vals[0] : conds[1] ? vals[1] : … : default`.
pub fn mux_chain(b: &mut ModuleBuilder, conds: &[Expr], vals: &[Expr], default: Expr) -> Expr {
    assert_eq!(conds.len(), vals.len());
    let mut acc = default;
    for (c, v) in conds.iter().rev().zip(vals.iter().rev()) {
        acc = Expr::mux(c.clone(), v.clone(), acc);
    }
    b.node_fresh("chain", acc)
}

/// A one-hot decoder: `n` outputs, output `i` = (`sel == i`).
pub fn decoder(b: &mut ModuleBuilder, sel: &Expr, n: usize, sel_width: u32) -> Vec<Expr> {
    (0..n)
        .map(|i| {
            b.node_fresh(
                "dec",
                Expr::prim(PrimOp::Eq, vec![sel.clone(), Expr::u(i as u64, sel_width)]),
            )
        })
        .collect()
}

/// A balanced xor-reduction tree over equal-width values.
pub fn xor_tree(b: &mut ModuleBuilder, items: &[Expr]) -> Expr {
    assert!(!items.is_empty());
    let mut level: Vec<Expr> = items.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            next.push(if pair.len() == 2 {
                b.node_fresh(
                    "xt",
                    Expr::prim(PrimOp::Xor, vec![pair[0].clone(), pair[1].clone()]),
                )
            } else {
                pair[0].clone()
            });
        }
        level = next;
    }
    level.pop().unwrap()
}

/// An ALU slice: given two `width`-bit operands and a 3-bit opcode,
/// computes add/sub/and/or/xor/slt/shifted variants through a mux tree.
/// Returns the result expression. Roughly 10 effectual ops per slice.
pub fn alu(b: &mut ModuleBuilder, op: &Expr, a: Expr, x: Expr, width: u32) -> Expr {
    let sum = add_w(b, a.clone(), x.clone());
    let diff = sub_w(b, a.clone(), x.clone());
    let and = b.binop(PrimOp::And, a.clone(), x.clone());
    let or = b.binop(PrimOp::Or, a.clone(), x.clone());
    let xor = b.binop(PrimOp::Xor, a.clone(), x.clone());
    let slt = b.node_fresh(
        "slt",
        Expr::prim_p(
            PrimOp::Pad,
            vec![Expr::prim(PrimOp::Lt, vec![a.clone(), x.clone()])],
            vec![width as u64],
        ),
    );
    let sll = b.node_fresh(
        "sll",
        Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim_p(PrimOp::Shl, vec![a.clone()], vec![1])],
            vec![1],
        ),
    );
    let srl = b.node_fresh(
        "srl",
        Expr::prim_p(
            PrimOp::Pad,
            vec![Expr::prim_p(PrimOp::Shr, vec![a], vec![1])],
            vec![width as u64],
        ),
    );
    mux_tree(b, op, &[sum, diff, and, or, xor, slt, sll, srl], 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rteaal_dfg::interp::Interpreter;
    use rteaal_firrtl::builder::CircuitBuilder;
    use rteaal_firrtl::lower::lower_typed;
    use rteaal_firrtl::ty::Type;

    fn finish(b: ModuleBuilder, name: &str) -> rteaal_dfg::Graph {
        let mut cb = CircuitBuilder::new(name);
        cb.add_module(b.finish());
        rteaal_dfg::build(&lower_typed(&cb.finish()).unwrap()).unwrap()
    }

    #[test]
    fn alu_computes_all_ops() {
        let mut b = ModuleBuilder::new("T");
        let a = b.input("a", Type::uint(8));
        let x = b.input("x", Type::uint(8));
        let op = b.input("op", Type::uint(3));
        let r = alu(&mut b, &op.clone(), a, x, 8);
        b.output_expr("out", Type::uint(8), r);
        let g = finish(b, "T");
        let mut sim = Interpreter::new(&g);
        let cases: [(u64, u64, u64, u64); 8] = [
            (0, 200, 100, 44), // add wraps
            (1, 10, 3, 7),     // sub
            (2, 0b1100, 0b1010, 0b1000),
            (3, 0b1100, 0b1010, 0b1110),
            (4, 0b1100, 0b1010, 0b0110),
            (5, 3, 9, 1),       // slt
            (6, 0x81, 0, 0x02), // sll by 1 drops the MSB
            (7, 0x81, 0, 0x40), // srl
        ];
        for (op, a, x, want) in cases {
            sim.set_input_by_name("a", a);
            sim.set_input_by_name("x", x);
            sim.set_input_by_name("op", op);
            sim.step();
            assert_eq!(sim.output_by_name("out"), Some(want), "op {op}");
        }
    }

    #[test]
    fn mux_tree_selects() {
        let mut b = ModuleBuilder::new("T");
        let sel = b.input("sel", Type::uint(3));
        let items: Vec<Expr> = (0..6).map(|i| Expr::u(i * 11, 8)).collect();
        let r = mux_tree(&mut b, &sel.clone(), &items, 3);
        b.output_expr("out", Type::uint(8), r);
        let g = finish(b, "T");
        let mut sim = Interpreter::new(&g);
        for i in 0..6u64 {
            sim.set_input(0, i);
            sim.step();
            assert_eq!(sim.output(0), i * 11, "index {i}");
        }
    }

    #[test]
    fn mux_chain_is_priority_ordered() {
        let mut b = ModuleBuilder::new("T");
        let c0 = b.input("c0", Type::uint(1));
        let c1 = b.input("c1", Type::uint(1));
        let r = mux_chain(
            &mut b,
            &[c0, c1],
            &[Expr::u(1, 4), Expr::u(2, 4)],
            Expr::u(9, 4),
        );
        b.output_expr("out", Type::uint(4), r);
        let g = finish(b, "T");
        let mut sim = Interpreter::new(&g);
        for (c0, c1, want) in [(1, 1, 1), (1, 0, 1), (0, 1, 2), (0, 0, 9)] {
            sim.set_input(0, c0);
            sim.set_input(1, c1);
            sim.step();
            assert_eq!(sim.output(0), want);
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let mut b = ModuleBuilder::new("T");
        let sel = b.input("sel", Type::uint(2));
        let outs = decoder(&mut b, &sel.clone(), 4, 2);
        for (i, o) in outs.into_iter().enumerate() {
            b.output_expr(format!("o{i}"), Type::uint(1), o);
        }
        let g = finish(b, "T");
        let mut sim = Interpreter::new(&g);
        for s in 0..4u64 {
            sim.set_input(0, s);
            sim.step();
            for i in 0..4 {
                assert_eq!(sim.output(i), (i as u64 == s) as u64);
            }
        }
    }

    #[test]
    fn rotl_matches_u64_rotate() {
        let mut b = ModuleBuilder::new("T");
        let v = b.input("v", Type::uint(64));
        let r = rotl(&mut b, v, 13, 64);
        b.output_expr("out", Type::uint(64), r);
        let g = finish(b, "T");
        let mut sim = Interpreter::new(&g);
        for x in [1u64, 0xdead_beef_cafe_f00d, u64::MAX, 0] {
            sim.set_input(0, x);
            sim.step();
            assert_eq!(sim.output(0), x.rotate_left(13));
        }
    }

    #[test]
    fn xor_tree_reduces() {
        let mut b = ModuleBuilder::new("T");
        let xs: Vec<Expr> = (0..5)
            .map(|i| b.input(format!("x{i}"), Type::uint(8)))
            .collect();
        let r = xor_tree(&mut b, &xs);
        b.output_expr("out", Type::uint(8), r);
        let g = finish(b, "T");
        let mut sim = Interpreter::new(&g);
        let vals = [0x11u64, 0x22, 0x44, 0x88, 0xff];
        for (i, v) in vals.iter().enumerate() {
            sim.set_input(i, *v);
        }
        sim.step();
        assert_eq!(sim.output(0), vals.iter().fold(0, |a, b| a ^ b));
    }
}
