//! Bit-accurate evaluation semantics for the FIRRTL primitive ops.
//!
//! Every signal value is a `u64` holding the low `width` bits of the
//! mathematical value (two's complement for `SInt`). [`eval_prim`] is the
//! typed reference for operator semantics, written over typed operands.
//! No simulator calls it: the simulators evaluate monomorphized ops
//! through `rteaal_dfg::op::eval_raw` (the lane kernels through code
//! tested against it), and the root test `op_semantics` holds
//! `eval_raw` against this function for every primitive op.

use crate::ops::PrimOp;
use crate::ty::{mask, sext, Type};

/// A typed value: the bits and the type they are interpreted under.
///
/// # Examples
///
/// ```
/// use rteaal_firrtl::value::TypedValue;
/// use rteaal_firrtl::ty::Type;
/// let v = TypedValue::new(0xff, Type::sint(8));
/// assert_eq!(v.as_i64(), -1);
/// assert_eq!(v.bits, 0xff);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypedValue {
    /// The raw bits, always masked to `ty.width()` bits.
    pub bits: u64,
    /// The type the bits are interpreted under.
    pub ty: Type,
}

impl TypedValue {
    /// Creates a typed value, masking `bits` to the type's width.
    pub fn new(bits: u64, ty: Type) -> Self {
        TypedValue {
            bits: bits & ty.mask(),
            ty,
        }
    }

    /// The value as a mathematical integer (sign-extended if signed).
    pub fn as_i64(&self) -> i64 {
        if self.ty.is_signed() {
            sext(self.bits, self.ty.width())
        } else {
            self.bits as i64
        }
    }
}

/// Evaluates a primitive op on typed operand values, producing the result
/// bits masked to the result type's width.
///
/// Division and remainder by zero are *defined* to produce 0 (FIRRTL leaves
/// them undefined; a fixed definition keeps all simulators bit-identical).
///
/// # Panics
///
/// Panics if the operand count or parameter count does not match the op
/// (callers are expected to have type-checked via
/// [`PrimOp::result_type`](crate::ops::PrimOp::result_type)).
///
/// # Examples
///
/// ```
/// use rteaal_firrtl::value::{eval_prim, TypedValue};
/// use rteaal_firrtl::ops::PrimOp;
/// use rteaal_firrtl::ty::Type;
/// let a = TypedValue::new(200, Type::uint(8));
/// let b = TypedValue::new(100, Type::uint(8));
/// // FIRRTL add grows: result is 9 bits, so 300 does not wrap.
/// let out = eval_prim(PrimOp::Add, &[a, b], &[], Type::uint(9));
/// assert_eq!(out, 300);
/// ```
pub fn eval_prim(op: PrimOp, args: &[TypedValue], params: &[u64], result_ty: Type) -> u64 {
    debug_assert_eq!(args.len(), op.num_args(), "{op}: wrong operand count");
    debug_assert_eq!(params.len(), op.num_params(), "{op}: wrong param count");
    let rmask = result_ty.mask();
    let a = args[0];
    let sa = a.as_i64();
    let out = match op {
        PrimOp::Add => {
            if a.ty.is_signed() {
                (sa.wrapping_add(args[1].as_i64())) as u64
            } else {
                a.bits.wrapping_add(args[1].bits)
            }
        }
        PrimOp::Sub => {
            if a.ty.is_signed() {
                (sa.wrapping_sub(args[1].as_i64())) as u64
            } else {
                a.bits.wrapping_sub(args[1].bits)
            }
        }
        PrimOp::Mul => {
            if a.ty.is_signed() {
                (sa.wrapping_mul(args[1].as_i64())) as u64
            } else {
                a.bits.wrapping_mul(args[1].bits)
            }
        }
        PrimOp::Div => {
            if a.ty.is_signed() {
                let d = args[1].as_i64();
                if d == 0 {
                    0
                } else {
                    sa.wrapping_div(d) as u64
                }
            } else {
                a.bits.checked_div(args[1].bits).unwrap_or(0)
            }
        }
        PrimOp::Rem => {
            if a.ty.is_signed() {
                let d = args[1].as_i64();
                if d == 0 {
                    0
                } else {
                    sa.wrapping_rem(d) as u64
                }
            } else {
                let d = args[1].bits;
                if d == 0 {
                    0
                } else {
                    a.bits % d
                }
            }
        }
        PrimOp::Lt => cmp(a, args[1], |x, y| x < y, |x, y| x < y),
        PrimOp::Leq => cmp(a, args[1], |x, y| x <= y, |x, y| x <= y),
        PrimOp::Gt => cmp(a, args[1], |x, y| x > y, |x, y| x > y),
        PrimOp::Geq => cmp(a, args[1], |x, y| x >= y, |x, y| x >= y),
        PrimOp::Eq => (a.bits == args[1].bits) as u64,
        PrimOp::Neq => (a.bits != args[1].bits) as u64,
        // Pad of a signed value re-encodes the sign at the (possibly) wider
        // width; the result mask below truncates if padding narrower.
        PrimOp::Pad => sa as u64,
        PrimOp::AsUInt | PrimOp::AsSInt => a.bits,
        PrimOp::Shl => {
            let n = params[0] as u32;
            if n >= 64 {
                0
            } else {
                a.bits << n
            }
        }
        PrimOp::Shr => {
            let n = params[0] as u32;
            if a.ty.is_signed() {
                (sa >> n.min(63)) as u64
            } else if n >= 64 {
                0
            } else {
                a.bits >> n
            }
        }
        PrimOp::Dshl => {
            let n = args[1].bits;
            if n >= 64 {
                0
            } else {
                a.bits << n
            }
        }
        PrimOp::Dshr => {
            let n = args[1].bits;
            if a.ty.is_signed() {
                (sa >> n.min(63)) as u64
            } else if n >= 64 {
                0
            } else {
                a.bits >> n
            }
        }
        PrimOp::Cvt => sa as u64,
        PrimOp::Neg => sa.wrapping_neg() as u64,
        PrimOp::Not => !a.bits,
        PrimOp::And => ext(a, result_ty) & ext(args[1], result_ty),
        PrimOp::Or => ext(a, result_ty) | ext(args[1], result_ty),
        PrimOp::Xor => ext(a, result_ty) ^ ext(args[1], result_ty),
        PrimOp::Andr => (a.bits == a.ty.mask()) as u64,
        PrimOp::Orr => (a.bits != 0) as u64,
        PrimOp::Xorr => (a.bits.count_ones() & 1) as u64,
        PrimOp::Cat => {
            let wb = args[1].ty.width();
            if wb >= 64 {
                args[1].bits
            } else {
                (a.bits << wb) | args[1].bits
            }
        }
        PrimOp::Bits => {
            let (hi, lo) = (params[0] as u32, params[1] as u32);
            (a.bits >> lo) & mask(hi - lo + 1)
        }
        PrimOp::Head => {
            let n = params[0] as u32;
            a.bits >> (a.ty.width() - n)
        }
        PrimOp::Tail => {
            let n = params[0] as u32;
            a.bits & mask(a.ty.width() - n)
        }
    };
    out & rmask
}

/// Sign- or zero-extends `v`'s bits into the result width based on `v`'s own
/// signedness (used by the bitwise binary ops).
fn ext(v: TypedValue, result_ty: Type) -> u64 {
    if v.ty.is_signed() {
        (v.as_i64() as u64) & result_ty.mask()
    } else {
        v.bits
    }
}

fn cmp(
    a: TypedValue,
    b: TypedValue,
    su: impl Fn(u64, u64) -> bool,
    ss: impl Fn(i64, i64) -> bool,
) -> u64 {
    let r = if a.ty.is_signed() {
        ss(a.as_i64(), b.as_i64())
    } else {
        su(a.bits, b.bits)
    };
    r as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uv(bits: u64, w: u32) -> TypedValue {
        TypedValue::new(bits, Type::uint(w))
    }
    fn sv(v: i64, w: u32) -> TypedValue {
        TypedValue::new(v as u64, Type::sint(w))
    }

    #[test]
    fn typed_value_masks_on_construction() {
        assert_eq!(uv(0x1ff, 8).bits, 0xff);
        assert_eq!(sv(-1, 4).bits, 0xf);
    }

    #[test]
    fn add_grows_without_wrapping() {
        let r = eval_prim(PrimOp::Add, &[uv(255, 8), uv(255, 8)], &[], Type::uint(9));
        assert_eq!(r, 510);
    }

    #[test]
    fn signed_arithmetic() {
        let r = eval_prim(PrimOp::Add, &[sv(-3, 8), sv(-4, 8)], &[], Type::sint(9));
        assert_eq!(sext(r, 9), -7);
        let r = eval_prim(PrimOp::Sub, &[sv(-8, 4), sv(7, 4)], &[], Type::sint(5));
        assert_eq!(sext(r, 5), -15);
        let r = eval_prim(PrimOp::Mul, &[sv(-3, 4), sv(5, 4)], &[], Type::sint(8));
        assert_eq!(sext(r, 8), -15);
    }

    #[test]
    fn division_semantics() {
        assert_eq!(
            eval_prim(PrimOp::Div, &[uv(17, 8), uv(5, 8)], &[], Type::uint(8)),
            3
        );
        assert_eq!(
            eval_prim(PrimOp::Div, &[uv(17, 8), uv(0, 8)], &[], Type::uint(8)),
            0
        );
        let r = eval_prim(PrimOp::Div, &[sv(-17, 8), sv(5, 8)], &[], Type::sint(9));
        assert_eq!(sext(r, 9), -3); // truncating toward zero
        assert_eq!(
            eval_prim(PrimOp::Rem, &[uv(17, 8), uv(5, 8)], &[], Type::uint(4)),
            2
        );
        let r = eval_prim(PrimOp::Rem, &[sv(-17, 8), sv(5, 8)], &[], Type::sint(4));
        assert_eq!(sext(r, 4), -2);
        assert_eq!(
            eval_prim(PrimOp::Rem, &[uv(9, 8), uv(0, 8)], &[], Type::uint(8)),
            0
        );
    }

    #[test]
    fn comparisons_respect_signedness() {
        assert_eq!(
            eval_prim(PrimOp::Lt, &[uv(0xff, 8), uv(1, 8)], &[], Type::uint(1)),
            0
        );
        assert_eq!(
            eval_prim(PrimOp::Lt, &[sv(-1, 8), sv(1, 8)], &[], Type::uint(1)),
            1
        );
        assert_eq!(
            eval_prim(PrimOp::Geq, &[sv(-1, 8), sv(-1, 8)], &[], Type::uint(1)),
            1
        );
        assert_eq!(
            eval_prim(PrimOp::Eq, &[uv(5, 8), uv(5, 8)], &[], Type::uint(1)),
            1
        );
        assert_eq!(
            eval_prim(PrimOp::Neq, &[uv(5, 8), uv(6, 8)], &[], Type::uint(1)),
            1
        );
    }

    #[test]
    fn pad_sign_extends() {
        let r = eval_prim(PrimOp::Pad, &[sv(-2, 4)], &[8], Type::sint(8));
        assert_eq!(r, 0xfe);
        let r = eval_prim(PrimOp::Pad, &[uv(0xe, 4)], &[8], Type::uint(8));
        assert_eq!(r, 0xe);
    }

    #[test]
    fn shifts() {
        assert_eq!(
            eval_prim(PrimOp::Shl, &[uv(0b101, 3)], &[2], Type::uint(5)),
            0b10100
        );
        assert_eq!(
            eval_prim(PrimOp::Shr, &[uv(0b10100, 5)], &[2], Type::uint(3)),
            0b101
        );
        // Arithmetic right shift for signed.
        let r = eval_prim(PrimOp::Shr, &[sv(-8, 4)], &[1], Type::sint(3));
        assert_eq!(sext(r, 3), -4);
        assert_eq!(
            eval_prim(PrimOp::Dshl, &[uv(1, 4), uv(3, 2)], &[], Type::uint(7)),
            8
        );
        assert_eq!(
            eval_prim(PrimOp::Dshr, &[uv(8, 4), uv(3, 2)], &[], Type::uint(4)),
            1
        );
        let r = eval_prim(PrimOp::Dshr, &[sv(-8, 4), uv(2, 2)], &[], Type::sint(4));
        assert_eq!(sext(r, 4), -2);
    }

    #[test]
    fn bitwise_extends_by_operand_signedness() {
        // -1 (SInt<4>) & 0xff (UInt<8>) == 0x0f zero-padded? No: the SInt
        // operand sign-extends into the 8-bit result.
        let r = eval_prim(PrimOp::And, &[sv(-1, 4), uv(0xff, 8)], &[], Type::uint(8));
        assert_eq!(r, 0xff);
        let r = eval_prim(
            PrimOp::Xor,
            &[uv(0b1100, 4), uv(0b1010, 4)],
            &[],
            Type::uint(4),
        );
        assert_eq!(r, 0b0110);
    }

    #[test]
    fn reductions() {
        assert_eq!(
            eval_prim(PrimOp::Andr, &[uv(0xf, 4)], &[], Type::uint(1)),
            1
        );
        assert_eq!(
            eval_prim(PrimOp::Andr, &[uv(0xe, 4)], &[], Type::uint(1)),
            0
        );
        assert_eq!(eval_prim(PrimOp::Orr, &[uv(0, 4)], &[], Type::uint(1)), 0);
        assert_eq!(eval_prim(PrimOp::Orr, &[uv(2, 4)], &[], Type::uint(1)), 1);
        assert_eq!(
            eval_prim(PrimOp::Xorr, &[uv(0b111, 3)], &[], Type::uint(1)),
            1
        );
        assert_eq!(
            eval_prim(PrimOp::Xorr, &[uv(0b110, 3)], &[], Type::uint(1)),
            0
        );
    }

    #[test]
    fn bitfield_extraction() {
        assert_eq!(
            eval_prim(
                PrimOp::Cat,
                &[uv(0b10, 2), uv(0b011, 3)],
                &[],
                Type::uint(5)
            ),
            0b10011
        );
        assert_eq!(
            eval_prim(PrimOp::Bits, &[uv(0xabcd, 16)], &[11, 4], Type::uint(8)),
            0xbc
        );
        assert_eq!(
            eval_prim(PrimOp::Head, &[uv(0xab, 8)], &[4], Type::uint(4)),
            0xa
        );
        assert_eq!(
            eval_prim(PrimOp::Tail, &[uv(0xab, 8)], &[4], Type::uint(4)),
            0xb
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(
            eval_prim(PrimOp::AsSInt, &[uv(0xff, 8)], &[], Type::sint(8)),
            0xff
        );
        assert_eq!(
            eval_prim(PrimOp::AsUInt, &[sv(-1, 8)], &[], Type::uint(8)),
            0xff
        );
        let r = eval_prim(PrimOp::Cvt, &[uv(0xff, 8)], &[], Type::sint(9));
        assert_eq!(sext(r, 9), 255);
        let r = eval_prim(PrimOp::Neg, &[uv(3, 4)], &[], Type::sint(5));
        assert_eq!(sext(r, 5), -3);
        assert_eq!(
            eval_prim(PrimOp::Not, &[uv(0b1010, 4)], &[], Type::uint(4)),
            0b0101
        );
    }

    #[test]
    fn cat_saturating_width() {
        // 60 + 8 bits saturates at 64: high bits of the first operand drop.
        let r = eval_prim(
            PrimOp::Cat,
            &[uv(mask(60), 60), uv(0xab, 8)],
            &[],
            Type::uint(64),
        );
        assert_eq!(r & 0xff, 0xab);
        assert_eq!(r >> 8, mask(56));
    }
}
