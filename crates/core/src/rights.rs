//! Rights bits carried in capabilities.

use std::fmt;
use std::ops::{BitAnd, BitOr};

use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};

/// The rights field of a capability (8 bits, as in Amoeba).
///
/// For directory capabilities the low bits select which protection-domain
/// *columns* the holder may see (paper §2: "the capability is really a
/// capability for a single column"), plus operation bits:
///
/// * bits 0–3: may see column 0–3
/// * bit 6 ([`Rights::MODIFY`]): may append/chmod/delete rows
/// * bit 7 ([`Rights::ADMIN`]): may delete the directory itself
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct Rights(pub u8);

impl Rights {
    /// No rights at all.
    pub const NONE: Rights = Rights(0);
    /// Every right.
    pub const ALL: Rights = Rights(0xFF);
    /// May modify rows (append, chmod, delete row, replace).
    pub const MODIFY: Rights = Rights(0x40);
    /// May delete the directory.
    pub const ADMIN: Rights = Rights(0x80);

    /// The right to see column `i` (0–3).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub fn column(i: usize) -> Rights {
        assert!(i < 4, "at most 4 protection columns");
        Rights(1 << i)
    }

    /// All column bits for the first `n` columns.
    pub fn columns(n: usize) -> Rights {
        let n = n.min(4);
        Rights(((1u16 << n) - 1) as u8)
    }

    /// Whether every bit of `other` is present in `self`.
    pub fn covers(self, other: Rights) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any column bit is set.
    pub fn sees_any_column(self) -> bool {
        self.0 & 0x0F != 0
    }

    /// Whether column `i` is visible.
    pub fn sees_column(self, i: usize) -> bool {
        i < 4 && self.0 & (1 << i) != 0
    }
}

/// The rights byte.
impl Wire for Rights {
    fn put(&self, w: &mut WireWriter) {
        w.u8(self.0);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Rights, DecodeError> {
        Ok(Rights(r.u8("rights")?))
    }
}

impl BitOr for Rights {
    type Output = Rights;
    fn bitor(self, rhs: Rights) -> Rights {
        Rights(self.0 | rhs.0)
    }
}

impl BitAnd for Rights {
    type Output = Rights;
    fn bitand(self, rhs: Rights) -> Rights {
        Rights(self.0 & rhs.0)
    }
}

impl fmt::Debug for Rights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rights({:08b})", self.0)
    }
}

impl fmt::Display for Rights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_is_subset_check() {
        let a = Rights::column(0) | Rights::MODIFY;
        assert!(Rights::ALL.covers(a));
        assert!(a.covers(Rights::column(0)));
        assert!(!a.covers(Rights::ADMIN));
        assert!(a.covers(Rights::NONE));
    }

    #[test]
    fn columns_builds_masks() {
        assert_eq!(Rights::columns(0), Rights::NONE);
        assert_eq!(Rights::columns(2).0, 0b11);
        assert_eq!(Rights::columns(4).0, 0b1111);
        assert_eq!(Rights::columns(9).0, 0b1111);
    }

    #[test]
    fn sees_column_checks_bit() {
        let r = Rights::column(1);
        assert!(r.sees_column(1));
        assert!(!r.sees_column(0));
        assert!(!r.sees_column(7));
        assert!(r.sees_any_column());
        assert!(!Rights::MODIFY.sees_any_column());
    }

    #[test]
    #[should_panic(expected = "at most 4")]
    fn column_out_of_range_panics() {
        let _ = Rights::column(4);
    }

    #[test]
    fn bit_ops() {
        let r = Rights(0b0011) & Rights(0b0010);
        assert_eq!(r.0, 0b0010);
        let r = Rights(0b0001) | Rights(0b1000);
        assert_eq!(r.0, 0b1001);
    }
}
