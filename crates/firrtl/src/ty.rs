//! Ground types of the FIRRTL subset: unsigned/signed integers and clocks.
//!
//! Widths are restricted to `1..=64` bits so that every signal value fits in
//! a masked `u64`. FIRRTL width-growth rules that would exceed 64 bits
//! *saturate* at 64 (the result is truncated to its low 64 bits); see
//! `DESIGN.md` §4.7 for why this substitution is behavior-preserving for the
//! paper's experiments.

use std::fmt;

/// Maximum supported signal width in bits.
pub(crate) const MAX_WIDTH: u32 = 64;

/// A ground type in the FIRRTL subset.
///
/// # Examples
///
/// ```
/// use rteaal_firrtl::ty::Type;
/// let t = Type::uint(8);
/// assert_eq!(t.width(), 8);
/// assert!(!t.is_signed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// Unsigned integer of the given width (1..=64).
    UInt(u32),
    /// Signed two's-complement integer of the given width (1..=64).
    SInt(u32),
    /// Clock signal (1 bit, only usable as a register clock).
    Clock,
}

impl Type {
    /// Shorthand constructor for `Type::UInt`, clamping the width into
    /// `1..=MAX_WIDTH`.
    pub fn uint(width: u32) -> Self {
        Type::UInt(width.clamp(1, MAX_WIDTH))
    }

    /// Shorthand constructor for `Type::SInt`, clamping the width into
    /// `1..=MAX_WIDTH`.
    pub fn sint(width: u32) -> Self {
        Type::SInt(width.clamp(1, MAX_WIDTH))
    }

    /// Bit width of the type. A clock is 1 bit wide.
    pub fn width(&self) -> u32 {
        match self {
            Type::UInt(w) | Type::SInt(w) => *w,
            Type::Clock => 1,
        }
    }

    /// Whether values of this type are interpreted as two's complement.
    pub fn is_signed(&self) -> bool {
        matches!(self, Type::SInt(_))
    }

    /// Whether this is a clock type.
    pub(crate) fn is_clock(&self) -> bool {
        matches!(self, Type::Clock)
    }

    /// Returns the same kind of type (UInt/SInt) with a new width, saturated
    /// at `MAX_WIDTH`. Clock stays Clock.
    pub fn with_width(&self, width: u32) -> Self {
        let w = width.clamp(1, MAX_WIDTH);
        match self {
            Type::UInt(_) => Type::UInt(w),
            Type::SInt(_) => Type::SInt(w),
            Type::Clock => Type::Clock,
        }
    }

    /// Bit mask with the low `width()` bits set.
    pub fn mask(&self) -> u64 {
        mask(self.width())
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::UInt(w) => write!(f, "UInt<{w}>"),
            Type::SInt(w) => write!(f, "SInt<{w}>"),
            Type::Clock => write!(f, "Clock"),
        }
    }
}

/// Bit mask with the low `width` bits set (`width` in `0..=64`).
///
/// # Examples
///
/// ```
/// assert_eq!(rteaal_firrtl::ty::mask(8), 0xff);
/// assert_eq!(rteaal_firrtl::ty::mask(64), u64::MAX);
/// assert_eq!(rteaal_firrtl::ty::mask(0), 0);
/// ```
#[inline]
pub fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Sign-extends the low `width` bits of `v` to a full `i64`.
///
/// # Examples
///
/// ```
/// assert_eq!(rteaal_firrtl::ty::sext(0xff, 8), -1);
/// assert_eq!(rteaal_firrtl::ty::sext(0x7f, 8), 127);
/// ```
#[inline]
pub fn sext(v: u64, width: u32) -> i64 {
    if width == 0 || width >= 64 {
        return v as i64;
    }
    let shift = 64 - width;
    ((v << shift) as i64) >> shift
}

/// Number of bits needed to represent `v` as an unsigned value (at least 1).
pub fn bits_for(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_clamp() {
        assert_eq!(Type::uint(0).width(), 1);
        assert_eq!(Type::uint(100).width(), MAX_WIDTH);
        assert_eq!(Type::sint(12).width(), 12);
    }

    #[test]
    fn masks() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(16), 0xffff);
        assert_eq!(Type::uint(4).mask(), 0xf);
        assert_eq!(Type::Clock.mask(), 1);
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sext(0b1000, 4), -8);
        assert_eq!(sext(0b0111, 4), 7);
        assert_eq!(sext(u64::MAX, 64), -1);
        assert_eq!(sext(1, 1), -1);
    }

    #[test]
    fn display() {
        assert_eq!(Type::uint(8).to_string(), "UInt<8>");
        assert_eq!(Type::sint(3).to_string(), "SInt<3>");
        assert_eq!(Type::Clock.to_string(), "Clock");
    }

    #[test]
    fn bits_for_values() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
    }
}
