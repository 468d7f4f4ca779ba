//! A real Keccak-f\[1600\] round datapath (the paper's SHA3 accelerator,
//! [Schmidt & Izraelevitz 2013]).
//!
//! Unlike the synthetic multicores, SHA3 is small enough to build
//! faithfully: 25 64-bit lane registers, one full Keccak round
//! (θ, ρ, π, χ, ι) of combinational logic per cycle, a round counter, and
//! an absorb interface. The [`keccak_f`] software permutation is the
//! golden model the hardware is validated against.

// Keccak is (x, y) lane-matrix math; explicit indices mirror the spec.
#![allow(clippy::needless_range_loop)]

use crate::blocks::{mux_tree, rotl, xor_tree};
use rteaal_firrtl::ast::{Circuit, Expr};
use rteaal_firrtl::builder::{CircuitBuilder, ModuleBuilder};
use rteaal_firrtl::ops::PrimOp;
use rteaal_firrtl::ty::Type;

/// Keccak round constants (ι step).
pub(crate) const ROUND_CONSTANTS: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// ρ-step rotation offsets, indexed `[y][x]`.
pub(crate) const RHO_OFFSETS: [[u32; 5]; 5] = [
    [0, 1, 62, 28, 27],
    [36, 44, 6, 55, 20],
    [3, 10, 43, 25, 39],
    [41, 45, 15, 21, 8],
    [18, 2, 61, 56, 14],
];

/// The reference software Keccak-f\[1600\] permutation (golden model).
pub fn keccak_f(state: &mut [[u64; 5]; 5]) {
    for rc in ROUND_CONSTANTS {
        keccak_round(state, rc);
    }
}

/// One software Keccak round.
fn keccak_round(s: &mut [[u64; 5]; 5], rc: u64) {
    // θ
    let mut c = [0u64; 5];
    for x in 0..5 {
        c[x] = s[0][x] ^ s[1][x] ^ s[2][x] ^ s[3][x] ^ s[4][x];
    }
    let mut d = [0u64; 5];
    for x in 0..5 {
        d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
    }
    for y in 0..5 {
        for x in 0..5 {
            s[y][x] ^= d[x];
        }
    }
    // ρ and π
    let mut b = [[0u64; 5]; 5];
    for y in 0..5 {
        for x in 0..5 {
            b[(2 * x + 3 * y) % 5][y] = s[y][x].rotate_left(RHO_OFFSETS[y][x]);
        }
    }
    // χ
    for y in 0..5 {
        for x in 0..5 {
            s[y][x] = b[y][x] ^ (!b[y][(x + 1) % 5] & b[y][(x + 2) % 5]);
        }
    }
    // ι
    s[0][0] ^= rc;
}

/// Builds the SHA3 round-per-cycle circuit.
///
/// Interface: assert `start` with the 17 rate lanes on `in0..in16` to
/// absorb a block; the state permutes one round per cycle for 24 cycles;
/// `done` goes high and `out0..out3` expose the first digest lanes.
pub fn sha3() -> Circuit {
    let mut b = ModuleBuilder::new("Sha3");
    let clock = b.input("clock", Type::Clock);
    let start = b.input("start", Type::uint(1));
    let ins: Vec<Expr> = (0..17)
        .map(|i| b.input(format!("in{i}"), Type::uint(64)))
        .collect();

    // State lanes and the round counter.
    for y in 0..5 {
        for x in 0..5 {
            b.reg(format!("s_{y}_{x}"), Type::uint(64), clock.clone());
        }
    }
    let round = b.reg("round", Type::uint(5), clock.clone());
    let running = b.reg("running", Type::uint(1), clock.clone());
    let lane = |y: usize, x: usize| Expr::r(format!("s_{y}_{x}"));

    // θ: column parities and the D mask.
    let mut c = Vec::with_capacity(5);
    for x in 0..5 {
        let col: Vec<Expr> = (0..5).map(|y| lane(y, x)).collect();
        c.push(xor_tree(&mut b, &col));
    }
    let mut d = Vec::with_capacity(5);
    for x in 0..5 {
        let rot1 = rotl(&mut b, c[(x + 1) % 5].clone(), 1, 64);
        d.push(b.binop(PrimOp::Xor, c[(x + 4) % 5].clone(), rot1));
    }
    // θ apply + ρ + π into B.
    let mut bmat: Vec<Vec<Option<Expr>>> = vec![vec![None; 5]; 5];
    for y in 0..5 {
        for x in 0..5 {
            let t = b.binop(PrimOp::Xor, lane(y, x), d[x].clone());
            let r = rotl(&mut b, t, RHO_OFFSETS[y][x], 64);
            bmat[(2 * x + 3 * y) % 5][y] = Some(r);
        }
    }
    // χ + ι.
    let rc = mux_tree(
        &mut b,
        &round.clone(),
        &ROUND_CONSTANTS
            .iter()
            .map(|&v| Expr::u(v, 64))
            .collect::<Vec<_>>(),
        5,
    );
    for y in 0..5 {
        for x in 0..5 {
            let b0 = bmat[y][x].clone().unwrap();
            let b1 = bmat[y][(x + 1) % 5].clone().unwrap();
            let b2 = bmat[y][(x + 2) % 5].clone().unwrap();
            let not1 = b.unop(PrimOp::Not, b1);
            let and12 = b.binop(PrimOp::And, not1, b2);
            let mut chi = b.binop(PrimOp::Xor, b0, and12);
            if y == 0 && x == 0 {
                chi = b.binop(PrimOp::Xor, chi, rc.clone());
            }
            // Next state: absorb on start, permute while running, else
            // hold. Absorption xors the rate lanes into the state
            // (lane index = 5*y + x < 17).
            let idx = 5 * y + x;
            let absorbed = if idx < 17 {
                b.binop(PrimOp::Xor, lane(y, x), ins[idx].clone())
            } else {
                lane(y, x)
            };
            let held = Expr::mux(Expr::r("running"), chi, lane(y, x));
            b.connect(
                format!("s_{y}_{x}"),
                Expr::mux(start.clone(), absorbed, held),
            );
        }
    }
    // Control.
    let last = b.node(
        "last_round",
        Expr::prim(PrimOp::Eq, vec![round.clone(), Expr::u(23, 5)]),
    );
    let round_inc = b.node_fresh(
        "rinc",
        Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim(PrimOp::Add, vec![round.clone(), Expr::u(1, 5)])],
            vec![1],
        ),
    );
    let next_round = Expr::mux(
        start.clone(),
        Expr::u(0, 5),
        Expr::mux(
            Expr::r("running"),
            Expr::mux(last.clone(), Expr::u(0, 5), round_inc),
            round.clone(),
        ),
    );
    b.connect("round", next_round);
    let next_running = Expr::mux(
        start,
        Expr::u(1, 1),
        Expr::mux(
            Expr::r("running"),
            Expr::prim(PrimOp::Eq, vec![last, Expr::u(0, 1)]),
            Expr::u(0, 1),
        ),
    );
    b.connect("running", next_running);
    let not_running = b.node_fresh("nr", Expr::prim(PrimOp::Eq, vec![running, Expr::u(0, 1)]));
    b.output_expr("done", Type::uint(1), not_running);
    for i in 0..4 {
        b.output_expr(format!("out{i}"), Type::uint(64), lane(i / 5, i % 5));
    }
    let mut cb = CircuitBuilder::new("Sha3");
    cb.add_module(b.finish());
    cb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rteaal_dfg::interp::Interpreter;
    use rteaal_firrtl::lower::lower_typed;

    /// Known-answer test: Keccak-f[1600] on the zero state (first lanes
    /// of the standard KAT).
    #[test]
    fn software_keccak_known_answer() {
        let mut s = [[0u64; 5]; 5];
        keccak_f(&mut s);
        assert_eq!(s[0][0], 0xf1258f7940e1dde7);
        assert_eq!(s[0][1], 0x84d5ccf933c0478a);
        assert_eq!(s[0][2], 0xd598261ea65aa9ee);
        assert_eq!(s[1][0], 0xff97a42d7f8e6fd4);
        // Second application (regression against aliasing bugs).
        keccak_f(&mut s);
        assert_eq!(s[0][0], 0x2d5c954df96ecb3c);
    }

    #[test]
    fn hardware_round_matches_software() {
        let c = sha3();
        let g = rteaal_dfg::build(&lower_typed(&c).unwrap()).unwrap();
        let mut sim = Interpreter::new(&g);
        // Absorb a message into the zero state.
        let msg: Vec<u64> = (0..17)
            .map(|i| 0x0123_4567_89ab_cdefu64.rotate_left(i))
            .collect();
        sim.set_input_by_name("start", 1);
        for (i, m) in msg.iter().enumerate() {
            sim.set_input_by_name(&format!("in{i}"), *m);
        }
        sim.step();
        sim.set_input_by_name("start", 0);
        // Software model of the absorbed state.
        let mut sw = [[0u64; 5]; 5];
        for (i, m) in msg.iter().enumerate() {
            sw[i / 5][i % 5] ^= m;
        }
        // Step the hardware one round at a time and compare.
        for round in 0..24 {
            sim.step();
            keccak_round(&mut sw, ROUND_CONSTANTS[round]);
            for y in 0..5 {
                for x in 0..5 {
                    assert_eq!(
                        sim.peek_by_name(&format!("s_{y}_{x}")),
                        Some(sw[y][x]),
                        "lane ({y},{x}) after round {round}"
                    );
                }
            }
        }
        // Done goes high after round 24.
        sim.step();
        assert_eq!(sim.output_by_name("done"), Some(1));
        assert_eq!(sim.output_by_name("out0"), Some(sw[0][0]));
    }

    #[test]
    fn state_holds_when_idle() {
        let c = sha3();
        let g = rteaal_dfg::build(&lower_typed(&c).unwrap()).unwrap();
        let mut sim = Interpreter::new(&g);
        sim.step();
        let before = sim.peek_by_name("s_2_2");
        sim.step();
        sim.step();
        assert_eq!(sim.peek_by_name("s_2_2"), before);
        assert_eq!(sim.output_by_name("done"), Some(1));
    }
}
