//! Cheaply-cloneable shared byte buffers: the currency of the message
//! pipeline.
//!
//! A [`Payload`] is an immutable byte string backed by a reference-counted
//! buffer plus an offset/length window. Cloning one, or taking a
//! [`slice`](Payload::slice) of one, copies **no bytes** — only the `Rc`
//! is touched. This is what lets a directory update be encoded once and
//! travel flip → rpc → group → core (through the sequencer's history
//! buffer and every member's delivery queue) without another copy:
//!
//! * the sender's [`Wire::encode`](crate::wire::Wire::encode) writes the
//!   message once, into a scratch buffer the thread reuses, and copies it
//!   into one shared buffer of exactly its length: one allocation per
//!   message, the `Rc`'s counts and the bytes together;
//! * [`Packet`](crate::Packet) carries the `Payload`; fan-out to N
//!   multicast receivers clones the packet N times at `Rc` cost;
//! * decoders built with [`WireReader::of`](crate::wire::WireReader::of)
//!   return embedded byte strings as sub-`Payload`s sharing the packet's
//!   buffer ([`WireReader::payload`](crate::wire::WireReader::payload));
//! * upper layers store and re-deliver those sub-payloads (history
//!   buffers, BB stores, app queues) by cheap clone.
//!
//! Every constructor that is handed bytes copies them once into a buffer
//! of their exact length (an owned `Vec` too: it is freed, not kept);
//! [`zeroed`](Payload::zeroed) fills a zeroed buffer in place.
//!
//! ## Invariants
//!
//! * A `Payload` is immutable: there is no `&mut [u8]` access. Mutation
//!   means building a new buffer.
//! * `slice()` windows never escape the parent's bounds (checked, panics
//!   like slice indexing).
//! * Equality/ordering/hashing are by byte content, not by buffer
//!   identity, so `Payload` is a drop-in for `Vec<u8>` in message enums.
//! * A payload is shorter than 4 GiB, as every length on the wire is.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::rc::Rc;

/// An immutable, cheaply-cloneable byte string (an `Rc`-backed buffer
/// with a zero-copy slicing window). See the [module docs](self).
#[derive(Clone, Default)]
pub struct Payload {
    /// Backing buffer, the `Rc`'s counts and the bytes in one
    /// allocation; `None` encodes the empty payload without one.
    buf: Option<Rc<[u8]>>,
    off: u32,
    len: u32,
}

// Messages embed payloads by value: the window costs no more than a `Vec`.
const _: () = assert!(std::mem::size_of::<Payload>() == 24);

/// `n` as a window bound.
fn bound(n: usize) -> u32 {
    u32::try_from(n).expect("a payload is shorter than 4 GiB")
}

impl Payload {
    /// The empty payload (no allocation).
    pub const fn empty() -> Payload {
        Payload {
            buf: None,
            off: 0,
            len: 0,
        }
    }

    /// A payload of `bytes` (one allocation of exactly their length,
    /// one copy; `bytes` is freed).
    pub fn new(bytes: Vec<u8>) -> Payload {
        Payload::copy_from_slice(&bytes)
    }

    /// Copies a borrowed slice into a fresh payload: one allocation of
    /// exactly its length.
    pub fn copy_from_slice(bytes: &[u8]) -> Payload {
        if bytes.is_empty() {
            return Payload::empty();
        }
        Payload {
            len: bound(bytes.len()),
            buf: Some(Rc::from(bytes)),
            off: 0,
        }
    }

    /// A payload of `len` bytes, zeroed, then written by `fill`: one
    /// allocation and no copy, for a buffer written at known offsets.
    pub fn zeroed(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
        if len == 0 {
            return Payload::empty();
        }
        // An iterator of known length is collected into one allocation.
        let mut buf: Rc<[u8]> = std::iter::repeat_n(0, len).collect();
        fill(Rc::get_mut(&mut buf).expect("a buffer nothing else holds yet"));
        Payload {
            len: bound(len),
            buf: Some(buf),
            off: 0,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.buf {
            Some(b) => &b[self.off as usize..(self.off + self.len) as usize],
            None => &[],
        }
    }

    /// A zero-copy sub-payload sharing this payload's buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds, exactly like slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Payload {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "payload slice {start}..{end} out of bounds (len {})",
            self.len
        );
        if start == end {
            return Payload::empty();
        }
        Payload {
            buf: self.buf.clone(),
            off: self.off + bound(start),
            len: bound(end - start),
        }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Payload {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::new(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Payload {
        Payload::copy_from_slice(v)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Payload {
    fn partial_cmp(&self, other: &Payload) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Payload {
    fn cmp(&self, other: &Payload) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_slice();
        if s.len() <= 16 {
            write!(f, "Payload({s:02x?})")
        } else {
            write!(f, "Payload(len={}, {:02x?}…)", s.len(), &s[..16])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_allocation() {
        let p = Payload::empty();
        assert!(p.buf.is_none());
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.as_slice(), &[] as &[u8]);
    }

    #[test]
    fn zeroed_fills_in_place() {
        let p = Payload::zeroed(6, |b| b[1..3].copy_from_slice(&[7, 8]));
        assert_eq!(p.as_slice(), &[0, 7, 8, 0, 0, 0]);
        assert!(Payload::zeroed(0, |_| unreachable!()).is_empty());
    }

    #[test]
    fn clone_shares_buffer() {
        let p = Payload::from(vec![1u8, 2, 3, 4]);
        let q = p.clone();
        assert_eq!(p.as_slice().as_ptr(), q.as_slice().as_ptr());
        assert_eq!(p, q);
    }

    #[test]
    fn slice_is_zero_copy_and_windows_compose() {
        let p = Payload::from((0u8..32).collect::<Vec<_>>());
        let s = p.slice(4..20);
        assert_eq!(s.len(), 16);
        assert_eq!(s.as_slice().as_ptr(), unsafe {
            p.as_slice().as_ptr().add(4)
        });
        let t = s.slice(2..6);
        assert_eq!(t.as_slice(), &[6, 7, 8, 9]);
        assert_eq!(t.as_slice().as_ptr(), unsafe {
            p.as_slice().as_ptr().add(6)
        });
    }

    #[test]
    fn slice_bounds_forms() {
        let p = Payload::from(vec![1u8, 2, 3, 4]);
        assert_eq!(p.slice(..).as_slice(), &[1, 2, 3, 4]);
        assert_eq!(p.slice(1..).as_slice(), &[2, 3, 4]);
        assert_eq!(p.slice(..2).as_slice(), &[1, 2]);
        assert_eq!(p.slice(1..=2).as_slice(), &[2, 3]);
        assert!(p.slice(2..2).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_end_panics() {
        let p = Payload::from(vec![1u8, 2]);
        let _ = p.slice(1..5);
    }

    #[test]
    fn equality_is_by_content() {
        let a = Payload::from(vec![9u8, 8]);
        let b = Payload::copy_from_slice(&[9, 8]);
        assert_eq!(a, b);
        assert_eq!(a, vec![9u8, 8]);
        assert_ne!(a, Payload::from(vec![9u8]));
    }

    #[test]
    fn deref_gives_slice_methods() {
        let p = Payload::from(vec![1u8, 2, 3]);
        assert_eq!(p.iter().sum::<u8>(), 6);
        assert_eq!(&p[1..], &[2, 3]);
    }
}
