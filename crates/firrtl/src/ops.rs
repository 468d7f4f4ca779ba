//! FIRRTL primitive operations and their width-inference rules.
//!
//! This is the full primitive-op set of the FIRRTL specification [Li et al.,
//! 2016] restricted to ground types, which is what RTeAAL Sim's `OIM` `N`
//! rank supports ("OIM's N rank supports all FIRRTL primitive operations",
//! §6.1). Width rules follow the spec with one documented deviation: result
//! widths saturate at [`MAX_WIDTH`] bits and the value
//! is truncated to its low 64 bits (see `DESIGN.md` §4.7).

use crate::error::{FirrtlError, Result};
use crate::ty::{Type, MAX_WIDTH};
use std::fmt;

/// A FIRRTL primitive operation.
///
/// Operations are polymorphic over UInt/SInt at this level; signedness is
/// resolved when lowering to the concrete dataflow-graph op set.
///
/// # Examples
///
/// ```
/// use rteaal_firrtl::{ops::PrimOp, ty::Type};
/// let t = PrimOp::Add.result_type(&[Type::uint(8), Type::uint(8)], &[]).unwrap();
/// assert_eq!(t, Type::uint(9)); // FIRRTL add grows by one bit
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimOp {
    // Arithmetic.
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    // Comparisons (result UInt<1>).
    Lt,
    Leq,
    Gt,
    Geq,
    Eq,
    Neq,
    // Width / type adjustment. `Pad`, `Shl`, `Shr`, `Head`, `Tail` take an
    // integer parameter; `Bits` takes two (hi, lo).
    Pad,
    AsUInt,
    AsSInt,
    Shl,
    Shr,
    Dshl,
    Dshr,
    Cvt,
    // Unary bit ops.
    Neg,
    Not,
    // Binary bitwise.
    And,
    Or,
    Xor,
    // Bit reductions (result UInt<1>).
    Andr,
    Orr,
    Xorr,
    // Bit-field manipulation.
    Cat,
    Bits,
    Head,
    Tail,
}

/// All primitive ops, in a stable order (used for parsing and for the `N`
/// rank coordinate space).
pub const ALL_PRIM_OPS: &[PrimOp] = &[
    PrimOp::Add,
    PrimOp::Sub,
    PrimOp::Mul,
    PrimOp::Div,
    PrimOp::Rem,
    PrimOp::Lt,
    PrimOp::Leq,
    PrimOp::Gt,
    PrimOp::Geq,
    PrimOp::Eq,
    PrimOp::Neq,
    PrimOp::Pad,
    PrimOp::AsUInt,
    PrimOp::AsSInt,
    PrimOp::Shl,
    PrimOp::Shr,
    PrimOp::Dshl,
    PrimOp::Dshr,
    PrimOp::Cvt,
    PrimOp::Neg,
    PrimOp::Not,
    PrimOp::And,
    PrimOp::Or,
    PrimOp::Xor,
    PrimOp::Andr,
    PrimOp::Orr,
    PrimOp::Xorr,
    PrimOp::Cat,
    PrimOp::Bits,
    PrimOp::Head,
    PrimOp::Tail,
];

impl PrimOp {
    /// FIRRTL-source mnemonic of the op.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            PrimOp::Add => "add",
            PrimOp::Sub => "sub",
            PrimOp::Mul => "mul",
            PrimOp::Div => "div",
            PrimOp::Rem => "rem",
            PrimOp::Lt => "lt",
            PrimOp::Leq => "leq",
            PrimOp::Gt => "gt",
            PrimOp::Geq => "geq",
            PrimOp::Eq => "eq",
            PrimOp::Neq => "neq",
            PrimOp::Pad => "pad",
            PrimOp::AsUInt => "asUInt",
            PrimOp::AsSInt => "asSInt",
            PrimOp::Shl => "shl",
            PrimOp::Shr => "shr",
            PrimOp::Dshl => "dshl",
            PrimOp::Dshr => "dshr",
            PrimOp::Cvt => "cvt",
            PrimOp::Neg => "neg",
            PrimOp::Not => "not",
            PrimOp::And => "and",
            PrimOp::Or => "or",
            PrimOp::Xor => "xor",
            PrimOp::Andr => "andr",
            PrimOp::Orr => "orr",
            PrimOp::Xorr => "xorr",
            PrimOp::Cat => "cat",
            PrimOp::Bits => "bits",
            PrimOp::Head => "head",
            PrimOp::Tail => "tail",
        }
    }

    /// Parses a FIRRTL mnemonic into a `PrimOp`.
    pub fn from_mnemonic(s: &str) -> Option<PrimOp> {
        ALL_PRIM_OPS.iter().copied().find(|op| op.mnemonic() == s)
    }

    /// Number of expression operands the op takes.
    pub fn num_args(&self) -> usize {
        match self {
            PrimOp::Add
            | PrimOp::Sub
            | PrimOp::Mul
            | PrimOp::Div
            | PrimOp::Rem
            | PrimOp::Lt
            | PrimOp::Leq
            | PrimOp::Gt
            | PrimOp::Geq
            | PrimOp::Eq
            | PrimOp::Neq
            | PrimOp::Dshl
            | PrimOp::Dshr
            | PrimOp::And
            | PrimOp::Or
            | PrimOp::Xor
            | PrimOp::Cat => 2,
            _ => 1,
        }
    }

    /// Number of static integer parameters the op takes (e.g. `bits` takes
    /// the `hi` and `lo` indices).
    pub fn num_params(&self) -> usize {
        match self {
            PrimOp::Pad | PrimOp::Shl | PrimOp::Shr | PrimOp::Head | PrimOp::Tail => 1,
            PrimOp::Bits => 2,
            _ => 0,
        }
    }

    /// Computes the result type per the FIRRTL width-inference rules, with
    /// widths saturating at 64 bits.
    ///
    /// # Errors
    ///
    /// Returns [`FirrtlError::Type`] if the operand count, operand types, or
    /// static parameters are invalid for this op (e.g. `bits` with
    /// `hi < lo`, comparison of a clock, mixed-sign arithmetic).
    pub fn result_type(&self, args: &[Type], params: &[u64]) -> Result<Type> {
        let fail = |msg: String| Err(FirrtlError::Type(format!("{}: {msg}", self.mnemonic())));
        if args.len() != self.num_args() {
            return fail(format!(
                "expected {} args, got {}",
                self.num_args(),
                args.len()
            ));
        }
        if params.len() != self.num_params() {
            return fail(format!(
                "expected {} params, got {}",
                self.num_params(),
                params.len()
            ));
        }
        if args.iter().any(|t| t.is_clock()) {
            return fail("clock operand not allowed in primitive op".to_string());
        }
        let sat = |w: u32| w.clamp(1, MAX_WIDTH);
        let same_sign = |a: &Type, b: &Type| a.is_signed() == b.is_signed();
        let w0 = args[0].width();
        match self {
            PrimOp::Add | PrimOp::Sub => {
                if !same_sign(&args[0], &args[1]) {
                    return fail("mixed signedness".to_string());
                }
                Ok(args[0].with_width(sat(w0.max(args[1].width()) + 1)))
            }
            PrimOp::Mul => {
                if !same_sign(&args[0], &args[1]) {
                    return fail("mixed signedness".to_string());
                }
                Ok(args[0].with_width(sat(w0 + args[1].width())))
            }
            PrimOp::Div => {
                if !same_sign(&args[0], &args[1]) {
                    return fail("mixed signedness".to_string());
                }
                let grow = if args[0].is_signed() { 1 } else { 0 };
                Ok(args[0].with_width(sat(w0 + grow)))
            }
            PrimOp::Rem => {
                if !same_sign(&args[0], &args[1]) {
                    return fail("mixed signedness".to_string());
                }
                Ok(args[0].with_width(sat(w0.min(args[1].width()))))
            }
            PrimOp::Lt | PrimOp::Leq | PrimOp::Gt | PrimOp::Geq | PrimOp::Eq | PrimOp::Neq => {
                if !same_sign(&args[0], &args[1]) {
                    return fail("mixed signedness".to_string());
                }
                Ok(Type::UInt(1))
            }
            PrimOp::Pad => Ok(args[0].with_width(sat(w0.max(params[0] as u32)))),
            PrimOp::AsUInt => Ok(Type::UInt(w0)),
            PrimOp::AsSInt => Ok(Type::SInt(w0)),
            PrimOp::Shl => Ok(args[0].with_width(sat(w0 + params[0] as u32))),
            PrimOp::Shr => Ok(args[0].with_width(sat(w0.saturating_sub(params[0] as u32).max(1)))),
            PrimOp::Dshl => {
                if args[1].is_signed() {
                    return fail("dshl shift amount must be UInt".to_string());
                }
                let grow = (1u64 << args[1].width().min(6)) as u32 - 1;
                Ok(args[0].with_width(sat(w0 + grow)))
            }
            PrimOp::Dshr => {
                if args[1].is_signed() {
                    return fail("dshr shift amount must be UInt".to_string());
                }
                Ok(args[0].with_width(w0))
            }
            PrimOp::Cvt => Ok(Type::SInt(sat(if args[0].is_signed() {
                w0
            } else {
                w0 + 1
            }))),
            PrimOp::Neg => Ok(Type::SInt(sat(w0 + 1))),
            PrimOp::Not => Ok(Type::UInt(w0)),
            PrimOp::And | PrimOp::Or | PrimOp::Xor => Ok(Type::UInt(sat(w0.max(args[1].width())))),
            PrimOp::Andr | PrimOp::Orr | PrimOp::Xorr => Ok(Type::UInt(1)),
            PrimOp::Cat => Ok(Type::UInt(sat(w0 + args[1].width()))),
            PrimOp::Bits => {
                let (hi, lo) = (params[0] as u32, params[1] as u32);
                if hi < lo || hi >= w0 {
                    return fail(format!("bits({hi},{lo}) out of range for width {w0}"));
                }
                Ok(Type::UInt(hi - lo + 1))
            }
            PrimOp::Head => {
                let n = params[0] as u32;
                if n == 0 || n > w0 {
                    return fail(format!("head({n}) out of range for width {w0}"));
                }
                Ok(Type::UInt(n))
            }
            PrimOp::Tail => {
                let n = params[0] as u32;
                if n >= w0 {
                    return fail(format!("tail({n}) out of range for width {w0}"));
                }
                Ok(Type::UInt(w0 - n))
            }
        }
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(w: u32) -> Type {
        Type::uint(w)
    }
    fn s(w: u32) -> Type {
        Type::sint(w)
    }

    #[test]
    fn mnemonic_roundtrip() {
        for &op in ALL_PRIM_OPS {
            assert_eq!(PrimOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(PrimOp::from_mnemonic("frobnicate"), None);
    }

    #[test]
    fn arithmetic_widths() {
        assert_eq!(PrimOp::Add.result_type(&[u(8), u(4)], &[]).unwrap(), u(9));
        assert_eq!(PrimOp::Sub.result_type(&[s(8), s(8)], &[]).unwrap(), s(9));
        assert_eq!(PrimOp::Mul.result_type(&[u(8), u(8)], &[]).unwrap(), u(16));
        assert_eq!(PrimOp::Div.result_type(&[u(8), u(4)], &[]).unwrap(), u(8));
        assert_eq!(PrimOp::Div.result_type(&[s(8), s(4)], &[]).unwrap(), s(9));
        assert_eq!(PrimOp::Rem.result_type(&[u(8), u(4)], &[]).unwrap(), u(4));
    }

    #[test]
    fn widths_saturate_at_64() {
        assert_eq!(
            PrimOp::Add.result_type(&[u(64), u(64)], &[]).unwrap(),
            u(64)
        );
        assert_eq!(
            PrimOp::Mul.result_type(&[u(40), u(40)], &[]).unwrap(),
            u(64)
        );
        assert_eq!(PrimOp::Cat.result_type(&[u(64), u(8)], &[]).unwrap(), u(64));
        assert_eq!(PrimOp::Shl.result_type(&[u(64)], &[8]).unwrap(), u(64));
    }

    #[test]
    fn comparisons_are_one_bit() {
        for op in [
            PrimOp::Lt,
            PrimOp::Leq,
            PrimOp::Gt,
            PrimOp::Geq,
            PrimOp::Eq,
            PrimOp::Neq,
        ] {
            assert_eq!(op.result_type(&[u(8), u(8)], &[]).unwrap(), u(1));
        }
    }

    #[test]
    fn mixed_sign_rejected() {
        assert!(PrimOp::Add.result_type(&[u(8), s(8)], &[]).is_err());
        assert!(PrimOp::Lt.result_type(&[s(8), u(8)], &[]).is_err());
    }

    #[test]
    fn bitfield_ops() {
        assert_eq!(PrimOp::Bits.result_type(&[u(16)], &[7, 0]).unwrap(), u(8));
        assert_eq!(PrimOp::Head.result_type(&[u(16)], &[4]).unwrap(), u(4));
        assert_eq!(PrimOp::Tail.result_type(&[u(16)], &[1]).unwrap(), u(15));
        assert!(PrimOp::Bits.result_type(&[u(8)], &[9, 0]).is_err());
        assert!(PrimOp::Bits.result_type(&[u(8)], &[2, 4]).is_err());
        assert!(PrimOp::Head.result_type(&[u(8)], &[0]).is_err());
        assert!(PrimOp::Tail.result_type(&[u(8)], &[8]).is_err());
    }

    #[test]
    fn unary_ops() {
        assert_eq!(PrimOp::Not.result_type(&[u(8)], &[]).unwrap(), u(8));
        assert_eq!(PrimOp::Neg.result_type(&[u(8)], &[]).unwrap(), s(9));
        assert_eq!(PrimOp::Cvt.result_type(&[u(8)], &[]).unwrap(), s(9));
        assert_eq!(PrimOp::Cvt.result_type(&[s(8)], &[]).unwrap(), s(8));
        assert_eq!(PrimOp::AsSInt.result_type(&[u(8)], &[]).unwrap(), s(8));
        assert_eq!(PrimOp::AsUInt.result_type(&[s(8)], &[]).unwrap(), u(8));
        assert_eq!(PrimOp::Orr.result_type(&[u(33)], &[]).unwrap(), u(1));
    }

    #[test]
    fn arity_and_param_checks() {
        assert!(PrimOp::Add.result_type(&[u(8)], &[]).is_err());
        assert!(PrimOp::Pad.result_type(&[u(8)], &[]).is_err());
        assert!(PrimOp::Not.result_type(&[Type::Clock], &[]).is_err());
    }

    #[test]
    fn dynamic_shifts() {
        assert_eq!(PrimOp::Dshl.result_type(&[u(8), u(3)], &[]).unwrap(), u(15));
        assert_eq!(PrimOp::Dshr.result_type(&[u(8), u(3)], &[]).unwrap(), u(8));
        assert!(PrimOp::Dshl.result_type(&[u(8), s(3)], &[]).is_err());
    }
}
