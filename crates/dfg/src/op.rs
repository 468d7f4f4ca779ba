//! The concrete dataflow-graph operation set.
//!
//! FIRRTL's polymorphic primitive ops are resolved into a flat, monomorphic
//! op set during graph construction: signedness is baked into the opcode
//! (e.g. [`DfgOp::Ltu`] vs [`DfgOp::Lts`]) and static parameters (bit
//! indices, shift amounts, operand widths) travel with each operation
//! instance. This op set is the coordinate space of the `OIM` tensor's `N`
//! rank (paper §4.1, "Evaluating Multiple Operation Types").
//!
//! ## Canonical value representation
//!
//! Every signal value is a `u64`. Unsigned signals hold their width-masked
//! bits; signed signals hold their value **sign-extended to 64 bits**. This
//! canonical form makes most signed ops parameter-free (`i64` arithmetic is
//! exact) and is restored after every op by [`canonicalize`].
//!
//! ## Operation classes
//!
//! Following §4.1, every op belongs to one of three classes — *reducible*
//! (pairwise-combinable via the reduce compute operator `op_r[n]`), *unary*
//! (handled by the map compute operator `op_u[n]`), or *select* (handled by
//! the populate coordinate operator `op_s[n]`) — exposed via
//! [`DfgOp::class`].

use rteaal_firrtl::ty::{mask, sext};
use std::fmt;

/// Operation class per paper §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Combinable pairwise by the reduce compute operator (`op_r[n]`).
    Reducible,
    /// Single-input, handled by the map compute operator (`op_u[n]`).
    Unary,
    /// Collects all inputs before choosing (`op_s[n]`): mux, validif,
    /// fused mux chains.
    Select,
    /// Sources: inputs, register state, constants. Never appear in layers.
    Source,
}

/// A concrete dataflow-graph operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum DfgOp {
    // --- Sources (never scheduled into layers) ---
    /// Top-level input port value.
    Input = 0,
    /// Register state (read side).
    RegState,
    /// Constant (canonical value in `params[0]`).
    Const,
    // --- Reducible binary ops ---
    Add,
    Sub,
    Mul,
    Divu,
    Divs,
    Remu,
    Rems,
    And,
    Or,
    Xor,
    Ltu,
    Lts,
    Leu,
    Les,
    Gtu,
    Gts,
    Geu,
    Ges,
    Eq,
    Neq,
    Dshl,
    Dshr,
    /// Concatenation; `params = [wa, wb]`.
    Cat,
    // --- Unary ops ---
    Not,
    Neg,
    /// And-reduction; `params = [wa]`.
    Andr,
    Orr,
    /// Xor-reduction; `params = [wa]`.
    Xorr,
    /// Static left shift; `params = [n]`.
    Shl,
    /// Static right shift (arithmetic on canonical form); `params = [n]`.
    Shr,
    /// Bit extraction; `params = [hi, lo]`.
    Bits,
    /// High bits; `params = [n, wa]`.
    Head,
    /// Width/sign adjustment with identity raw semantics: covers FIRRTL
    /// `tail`, `pad`, `asUInt`, `asSInt`, `cvt`, and connect-site
    /// truncation. The node's result width/signedness do the work.
    Resize,
    /// Pure copy at identical width/signedness (the paper's *identity
    /// operation*, §4.2–4.3; elided by coordinate assignment).
    Identity,
    // --- Select ops ---
    /// 2-way select: operands `[cond, tval, fval]`.
    Mux,
    /// `validif`: operands `[cond, value]`; 0 when invalid.
    ValidIf,
    /// Fused priority mux chain (operator fusion, Box 1): operands
    /// `[c0, v0, c1, v1, …, default]`.
    MuxChain,
}

/// Total number of opcodes (shape of the `N` rank).
pub const NUM_OPCODES: usize = DfgOp::MuxChain as usize + 1;

/// All opcodes in `N`-coordinate order.
pub const ALL_OPS: [DfgOp; NUM_OPCODES] = [
    DfgOp::Input,
    DfgOp::RegState,
    DfgOp::Const,
    DfgOp::Add,
    DfgOp::Sub,
    DfgOp::Mul,
    DfgOp::Divu,
    DfgOp::Divs,
    DfgOp::Remu,
    DfgOp::Rems,
    DfgOp::And,
    DfgOp::Or,
    DfgOp::Xor,
    DfgOp::Ltu,
    DfgOp::Lts,
    DfgOp::Leu,
    DfgOp::Les,
    DfgOp::Gtu,
    DfgOp::Gts,
    DfgOp::Geu,
    DfgOp::Ges,
    DfgOp::Eq,
    DfgOp::Neq,
    DfgOp::Dshl,
    DfgOp::Dshr,
    DfgOp::Cat,
    DfgOp::Not,
    DfgOp::Neg,
    DfgOp::Andr,
    DfgOp::Orr,
    DfgOp::Xorr,
    DfgOp::Shl,
    DfgOp::Shr,
    DfgOp::Bits,
    DfgOp::Head,
    DfgOp::Resize,
    DfgOp::Identity,
    DfgOp::Mux,
    DfgOp::ValidIf,
    DfgOp::MuxChain,
];

impl DfgOp {
    /// The op's `N`-rank coordinate.
    pub fn n_coord(self) -> u16 {
        self as u16
    }

    /// Recovers an op from its `N`-rank coordinate.
    pub fn from_n_coord(n: u16) -> Option<DfgOp> {
        ALL_OPS.get(n as usize).copied()
    }

    /// Operation class (paper §4.1).
    pub fn class(self) -> OpClass {
        use DfgOp::*;
        match self {
            Input | RegState | Const => OpClass::Source,
            Add | Sub | Mul | Divu | Divs | Remu | Rems | And | Or | Xor | Ltu | Lts | Leu
            | Les | Gtu | Gts | Geu | Ges | Eq | Neq | Dshl | Dshr | Cat => OpClass::Reducible,
            Not | Neg | Andr | Orr | Xorr | Shl | Shr | Bits | Head | Resize | Identity => {
                OpClass::Unary
            }
            Mux | ValidIf | MuxChain => OpClass::Select,
        }
    }

    /// Number of operands, or `None` for variable arity ([`DfgOp::MuxChain`]).
    pub fn arity(self) -> Option<usize> {
        use DfgOp::*;
        match self {
            Input | RegState | Const => Some(0),
            Not | Neg | Andr | Orr | Xorr | Shl | Shr | Bits | Head | Resize | Identity => Some(1),
            Mux => Some(3),
            ValidIf => Some(2),
            MuxChain => None,
            _ => Some(2),
        }
    }

    /// Short mnemonic for display and codegen.
    pub(crate) fn mnemonic(self) -> &'static str {
        use DfgOp::*;
        match self {
            Input => "input",
            RegState => "reg",
            Const => "const",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Divu => "divu",
            Divs => "divs",
            Remu => "remu",
            Rems => "rems",
            And => "and",
            Or => "or",
            Xor => "xor",
            Ltu => "ltu",
            Lts => "lts",
            Leu => "leu",
            Les => "les",
            Gtu => "gtu",
            Gts => "gts",
            Geu => "geu",
            Ges => "ges",
            Eq => "eq",
            Neq => "neq",
            Dshl => "dshl",
            Dshr => "dshr",
            Cat => "cat",
            Not => "not",
            Neg => "neg",
            Andr => "andr",
            Orr => "orr",
            Xorr => "xorr",
            Shl => "shl",
            Shr => "shr",
            Bits => "bits",
            Head => "head",
            Resize => "resize",
            Identity => "id",
            Mux => "mux",
            ValidIf => "validif",
            MuxChain => "muxchain",
        }
    }
}

impl fmt::Display for DfgOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Restores the canonical representation after an op: width-masked for
/// unsigned, sign-extended for signed.
#[inline]
pub fn canonicalize(raw: u64, width: u32, signed: bool) -> u64 {
    if signed {
        sext(raw & mask(width), width) as u64
    } else {
        raw & mask(width)
    }
}

/// Evaluates an op on canonical operand values, producing the *raw* result
/// (callers must [`canonicalize`] with the node's width/signedness).
///
/// This is the `op_u[n]` / `op_r[n]` / `op_s[n]` case statement of paper
/// Algorithm 2, shared by every simulator in the workspace.
///
/// # Panics
///
/// Debug-panics on operand-count mismatches; sources ([`DfgOp::Input`],
/// [`DfgOp::RegState`]) are not evaluable and panic.
#[inline]
pub fn eval_raw(op: DfgOp, params: &[u64], ins: &[u64]) -> u64 {
    use DfgOp::*;
    match op {
        Const => params[0],
        Add => ins[0].wrapping_add(ins[1]),
        Sub => ins[0].wrapping_sub(ins[1]),
        Mul => ins[0].wrapping_mul(ins[1]),
        Divu => ins[0].checked_div(ins[1]).unwrap_or(0),
        Divs => {
            if ins[1] == 0 {
                0
            } else {
                (ins[0] as i64).wrapping_div(ins[1] as i64) as u64
            }
        }
        Remu => {
            if ins[1] == 0 {
                0
            } else {
                ins[0] % ins[1]
            }
        }
        Rems => {
            if ins[1] == 0 {
                0
            } else {
                (ins[0] as i64).wrapping_rem(ins[1] as i64) as u64
            }
        }
        And => ins[0] & ins[1],
        Or => ins[0] | ins[1],
        Xor => ins[0] ^ ins[1],
        Ltu => (ins[0] < ins[1]) as u64,
        Lts => ((ins[0] as i64) < (ins[1] as i64)) as u64,
        Leu => (ins[0] <= ins[1]) as u64,
        Les => ((ins[0] as i64) <= (ins[1] as i64)) as u64,
        Gtu => (ins[0] > ins[1]) as u64,
        Gts => ((ins[0] as i64) > (ins[1] as i64)) as u64,
        Geu => (ins[0] >= ins[1]) as u64,
        Ges => ((ins[0] as i64) >= (ins[1] as i64)) as u64,
        Eq => (ins[0] == ins[1]) as u64,
        Neq => (ins[0] != ins[1]) as u64,
        Dshl => {
            if ins[1] >= 64 {
                0
            } else {
                ins[0] << ins[1]
            }
        }
        Dshr => ((ins[0] as i64) >> ins[1].min(63)) as u64,
        Cat => {
            let (wa, wb) = (params[0] as u32, params[1] as u32);
            if wb >= 64 {
                ins[1]
            } else {
                ((ins[0] & mask(wa)) << wb) | (ins[1] & mask(wb))
            }
        }
        Not => !ins[0],
        Neg => ins[0].wrapping_neg(),
        Andr => ((ins[0] & mask(params[0] as u32)) == mask(params[0] as u32)) as u64,
        Orr => (ins[0] != 0) as u64,
        Xorr => ((ins[0] & mask(params[0] as u32)).count_ones() & 1) as u64,
        Shl => {
            let n = params[0] as u32;
            if n >= 64 {
                0
            } else {
                ins[0] << n
            }
        }
        Shr => ((ins[0] as i64) >> (params[0] as u32).min(63)) as u64,
        Bits => (ins[0] >> params[1]) & mask((params[0] - params[1] + 1) as u32),
        Head => (ins[0] & mask(params[1] as u32)) >> (params[1] - params[0]),
        Resize | Identity => ins[0],
        Mux => {
            if ins[0] != 0 {
                ins[1]
            } else {
                ins[2]
            }
        }
        ValidIf => {
            if ins[0] != 0 {
                ins[1]
            } else {
                0
            }
        }
        MuxChain => {
            let pairs = (ins.len() - 1) / 2;
            for k in 0..pairs {
                if ins[2 * k] != 0 {
                    return ins[2 * k + 1];
                }
            }
            ins[ins.len() - 1]
        }
        Input | RegState => panic!("source op {op} is not evaluable"),
    }
}

/// Evaluates an op and canonicalizes the result in one step.
#[inline]
pub(crate) fn eval(op: DfgOp, params: &[u64], ins: &[u64], width: u32, signed: bool) -> u64 {
    canonicalize(eval_raw(op, params, ins), width, signed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_coords_roundtrip() {
        for (i, &op) in ALL_OPS.iter().enumerate() {
            assert_eq!(op.n_coord() as usize, i);
            assert_eq!(DfgOp::from_n_coord(op.n_coord()), Some(op));
        }
        assert_eq!(DfgOp::from_n_coord(NUM_OPCODES as u16), None);
    }

    #[test]
    fn classes_partition_the_op_set() {
        let mut by_class = [0usize; 4];
        for op in ALL_OPS {
            let idx = match op.class() {
                OpClass::Reducible => 0,
                OpClass::Unary => 1,
                OpClass::Select => 2,
                OpClass::Source => 3,
            };
            by_class[idx] += 1;
        }
        assert_eq!(by_class.iter().sum::<usize>(), NUM_OPCODES);
        assert_eq!(by_class[2], 3); // mux, validif, muxchain
        assert_eq!(by_class[3], 3); // input, reg, const
    }

    #[test]
    fn canonical_signed_values() {
        // SInt<4> value -3 stored sign-extended.
        assert_eq!(canonicalize(0b1101, 4, true), (-3i64) as u64);
        assert_eq!(canonicalize((-3i64) as u64, 4, true), (-3i64) as u64);
        assert_eq!(canonicalize(0xfff, 8, false), 0xff);
    }

    #[test]
    fn signed_arithmetic_is_exact_on_canonical_form() {
        let a = canonicalize(0b1101, 4, true); // -3
        let b = canonicalize(0b0101, 4, true); // 5
        assert_eq!(eval(DfgOp::Add, &[], &[a, b], 5, true) as i64, 2);
        assert_eq!(eval(DfgOp::Sub, &[], &[a, b], 5, true) as i64, -8);
        assert_eq!(eval(DfgOp::Mul, &[], &[a, b], 8, true) as i64, -15);
        assert_eq!(eval(DfgOp::Lts, &[], &[a, b], 1, false), 1);
        assert_eq!(eval(DfgOp::Ltu, &[], &[3, 5], 1, false), 1);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(eval(DfgOp::Divu, &[], &[7, 0], 8, false), 0);
        assert_eq!(eval(DfgOp::Divs, &[], &[(-7i64) as u64, 0], 8, true), 0);
        assert_eq!(eval(DfgOp::Remu, &[], &[7, 0], 8, false), 0);
    }

    #[test]
    fn shifts_on_canonical_form() {
        assert_eq!(eval(DfgOp::Shl, &[2], &[0b101], 5, false), 0b10100);
        assert_eq!(eval(DfgOp::Shr, &[1], &[0b100], 2, false), 0b10);
        // Arithmetic shift of a signed value preserves sign.
        let v = canonicalize(0b1000, 4, true); // -8
        assert_eq!(eval(DfgOp::Shr, &[1], &[v], 3, true) as i64, -4);
        assert_eq!(eval(DfgOp::Dshr, &[], &[v, 2], 2, true) as i64, -2);
        assert_eq!(eval(DfgOp::Dshl, &[], &[1, 70], 8, false), 0);
    }

    #[test]
    fn cat_masks_operands() {
        let a = canonicalize((-1i64) as u64, 4, true); // all-ones pattern
        assert_eq!(eval(DfgOp::Cat, &[4, 3], &[a, 0b010], 7, false), 0b1111010);
    }

    #[test]
    fn reductions() {
        assert_eq!(eval(DfgOp::Andr, &[4], &[0b1111], 1, false), 1);
        assert_eq!(eval(DfgOp::Andr, &[4], &[0b0111], 1, false), 0);
        assert_eq!(eval(DfgOp::Orr, &[], &[0], 1, false), 0);
        // Signed -1 has all bits set at any width.
        let m1 = canonicalize(1, 1, true);
        assert_eq!(eval(DfgOp::Andr, &[1], &[m1], 1, false), 1);
        assert_eq!(eval(DfgOp::Xorr, &[3], &[0b110], 1, false), 0);
    }

    #[test]
    fn bitfield_ops() {
        assert_eq!(eval(DfgOp::Bits, &[5, 2], &[0b110100], 4, false), 0b1101);
        assert_eq!(eval(DfgOp::Head, &[2, 6], &[0b110100], 2, false), 0b11);
        // Resize narrows unsigned by masking ...
        assert_eq!(eval(DfgOp::Resize, &[], &[0xabc], 8, false), 0xbc);
        // ... and re-canonicalizes signed.
        assert_eq!(eval(DfgOp::Resize, &[], &[0b1100], 3, true) as i64, -4);
    }

    #[test]
    fn select_ops() {
        assert_eq!(eval(DfgOp::Mux, &[], &[1, 7, 9], 4, false), 7);
        assert_eq!(eval(DfgOp::Mux, &[], &[0, 7, 9], 4, false), 9);
        assert_eq!(eval(DfgOp::ValidIf, &[], &[0, 42], 8, false), 0);
        // Priority chain: first true selector wins.
        let ins = [0u64, 10, 1, 20, 1, 30, 99];
        assert_eq!(eval(DfgOp::MuxChain, &[], &ins, 8, false), 20);
        let ins = [0u64, 10, 0, 20, 0, 30, 99];
        assert_eq!(eval(DfgOp::MuxChain, &[], &ins, 8, false), 99);
    }

    #[test]
    #[should_panic(expected = "not evaluable")]
    fn sources_are_not_evaluable() {
        eval_raw(DfgOp::Input, &[], &[]);
    }
}
