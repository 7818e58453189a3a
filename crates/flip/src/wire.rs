//! Explicit little-endian wire encoding used by every protocol layer.
//!
//! Hand-rolled rather than serde-based so the on-the-wire format is visible
//! in the code (and so payload *sizes* — which drive the network timing
//! model — are honest).
//!
//! [`WireWriter`] and [`WireReader`] are the primitives. Above the
//! transport, a value with a wire form implements [`Wire`] — `put` and
//! `get`, each field once — and gets the rest from the trait:
//!
//! * [`Wire::encode`] runs `put` once, into a scratch buffer the thread
//!   reuses, and copies the bytes into one shared buffer of exactly
//!   their length: one allocation per message;
//! * [`Wire::decode`] reads exactly one value and refuses trailing
//!   bytes; [`Wire::decode_shared`] does the same over a shared
//!   [`Payload`] ([`WireReader::of`]), so embedded byte strings come
//!   back as zero-copy sub-payloads ([`WireReader::payload`]);
//! * [`Wire::put_framed`] nests a value behind its byte length.
//!
//! A [`WireWriter::digesting`] writer stores nothing: it folds what it
//! is handed into an FNV-1a digest, so a wire form can be named by its
//! digest without being built.
//!
//! ## Declared types
//!
//! A message family is an enum whose wire form is a `u8` tag, then the
//! variant's fields in order. [`wire_enum!`](crate::wire_enum) takes
//! the enum's declaration with each variant written `tag => Variant {
//! fields in wire order }`, and emits both the enum and its [`Wire`]
//! impl, so each field is listed once: in the declaration. Every field
//! type has a [`Wire`] form of its own; a counted field adds `as` and
//! its [`Counted`] (`items: Vec<Item> as BATCH`). The encoded length is
//! never written down: it is what `put` writes.
//!
//! A record — a struct whose fields go on the wire in declaration
//! order, with no tag and no check across fields — is declared the same
//! way inside [`wire_struct!`](crate::wire_struct), from the same
//! per-field codec:
//!
//! ```
//! use amoeba_flip::wire::Wire;
//!
//! amoeba_flip::wire_struct! {
//!     /// Two fields, written in the order declared.
//!     #[derive(Debug, PartialEq)]
//!     pub struct Pair {
//!         /// First.
//!         pub a: u64,
//!         /// Then one byte, 0 or 1.
//!         pub b: bool,
//!     }
//! }
//!
//! let pair = Pair { a: 1, b: true };
//! assert_eq!(pair.encode(), [1, 0, 0, 0, 0, 0, 0, 0, 1]);
//! assert!(Pair::decode(&[1, 0, 0, 0, 0, 0, 0, 0, 2]).is_err());
//! ```
//!
//! A type whose fields must agree with each other (a view's member
//! order, a directory's masks per column) keeps a hand-written impl.
//!
//! ## Counted sequences
//!
//! A collection is its element count, then its elements. Each counted
//! field names the width of its count and the counts it accepts in a
//! [`Counted`], and [`Counted::get`] is the one decoder of them all: a
//! count outside the field's range is refused before any element is
//! read, and the collection grows only as elements actually parse. A
//! count is a claim, never a reservation — a ten-byte message that
//! claims a million rows is refused without allocating for them.

use std::cell::Cell;
use std::fmt;

use amoeba_sim::Fnv1a;

use crate::addr::HostAddr;
use crate::bytes::Payload;
use crate::port::Port;

/// Error returned when decoding runs off the end of a buffer or finds an
/// invalid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was being decoded.
    pub what: &'static str,
}

impl DecodeError {
    /// Creates an error describing the field that failed to decode.
    pub fn new(what: &'static str) -> Self {
        DecodeError { what }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire data while decoding {}", self.what)
    }
}

impl std::error::Error for DecodeError {}

/// Incrementally builds a wire buffer.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Where the bytes a writer is handed go.
    sink: Sink,
}

/// A [`WireWriter`]'s destination.
#[derive(Debug, Default, Clone, Copy)]
enum Sink {
    /// Appended to the buffer.
    #[default]
    Store,
    /// Only counted ([`Wire::wire_len`]).
    Count(usize),
    /// Only folded into an FNV-1a digest
    /// ([`digesting`](WireWriter::digesting)).
    Digest(Fnv1a),
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer whose buffer holds `capacity` bytes up front, so
    /// an encoder with an exact (or conservative) size hint never grows
    /// it.
    pub fn with_capacity(capacity: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(capacity),
            sink: Sink::Store,
        }
    }

    /// A writer that only counts what it is handed.
    fn measuring() -> Self {
        WireWriter {
            buf: Vec::new(),
            sink: Sink::Count(0),
        }
    }

    /// A writer that stores nothing and folds what it is handed into a
    /// 64-bit FNV-1a [`digest`](WireWriter::digest): equal byte streams
    /// give equal digests, however they were split into fields.
    pub fn digesting() -> Self {
        WireWriter {
            buf: Vec::new(),
            sink: Sink::Digest(Fnv1a::new()),
        }
    }

    /// The digest of everything a [`digesting`](WireWriter::digesting)
    /// writer was handed; `None` for any other writer.
    pub fn digest(&self) -> Option<u64> {
        match self.sink {
            Sink::Digest(h) => Some(h.finish()),
            _ => None,
        }
    }

    /// Appends `bytes` as they are, with no length prefix: fixed-size
    /// fields and padding.
    pub fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        match &mut self.sink {
            Sink::Store => self.buf.extend_from_slice(bytes),
            Sink::Count(n) => *n += bytes.len(),
            Sink::Digest(h) => {
                h.write(bytes);
            }
        }
        self
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.raw(&[v])
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }

    /// Appends a `bool` as one byte.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Appends a length-prefixed byte string (u32 length).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(u32::try_from(v.len()).expect("wire bytes too long"));
        self.raw(v)
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far (0 for a digesting writer).
    pub fn len(&self) -> usize {
        match self.sink {
            Sink::Count(n) => n,
            _ => self.buf.len(),
        }
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes and returns the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finishes into a shared [`Payload`]: the bytes written, copied
    /// into one allocation of exactly their length.
    pub fn finish_payload(self) -> Payload {
        Payload::new(self.buf)
    }
}

/// Reads typed values back out of a wire buffer.
///
/// Built with [`new`](WireReader::new) over any borrowed slice, or with
/// [`of`](WireReader::of) over a [`Payload`] — the latter lets
/// [`payload`](WireReader::payload) return zero-copy sub-payloads of the
/// source buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Set when reading out of a shared buffer; enables zero-copy
    /// [`payload`](WireReader::payload) slices.
    src: Option<&'a Payload>,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader {
            buf,
            pos: 0,
            src: None,
        }
    }

    /// Starts reading at the beginning of a shared buffer;
    /// [`payload`](WireReader::payload) reads will share it zero-copy.
    pub fn of(src: &'a Payload) -> Self {
        WireReader {
            buf: src.as_slice(),
            pos: 0,
            src: Some(src),
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError { what })?;
        if end > self.buf.len() {
            return Err(DecodeError { what });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        let s = self.take(2, what)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let s = self.take(8, what)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `bool` (must be exactly 0 or 1).
    pub fn boolean(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError { what }),
        }
    }

    /// Reads a length-prefixed byte string, borrowing from the buffer
    /// (no copy).
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// Reads a length-prefixed byte string as a [`Payload`].
    ///
    /// When the reader was built with [`of`](WireReader::of) this is a
    /// zero-copy slice of the source buffer; over a plain borrowed slice
    /// it falls back to one copy.
    pub fn payload(&mut self, what: &'static str) -> Result<Payload, DecodeError> {
        let len = self.u32(what)? as usize;
        let start = self.pos;
        let raw = self.take(len, what)?;
        Ok(match self.src {
            Some(p) => p.slice(start..start + len),
            None => Payload::copy_from_slice(raw),
        })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &'static str) -> Result<String, DecodeError> {
        self.str(what).map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string, borrowing from the buffer
    /// (no copy).
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, DecodeError> {
        let b = self.bytes(what)?;
        std::str::from_utf8(b).map_err(|_| DecodeError { what })
    }

    /// How many bytes have been read.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The bytes read since position `start` ([`position`](Self::position)),
    /// as a payload: a zero-copy window of a shared source (a reader
    /// built with [`of`](WireReader::of)), else one copy.
    ///
    /// # Panics
    ///
    /// Panics if `start` is past the position.
    pub fn read_since(&self, start: usize) -> Payload {
        match self.src {
            Some(p) => p.slice(start..self.pos),
            None => Payload::copy_from_slice(&self.buf[start..self.pos]),
        }
    }

    /// Fails unless the whole buffer was consumed (trailing-garbage check).
    pub fn expect_end(&self, what: &'static str) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError { what })
        }
    }
}

/// A value with a wire form: the one codec idiom above the transport,
/// used for requests, replies, replicated ops, records and snapshots
/// alike. See the [module docs](self).
pub trait Wire: Sized {
    /// Appends the value's wire form to `w`.
    fn put(&self, w: &mut WireWriter);

    /// Reads one value off `r`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for malformed input. A counted collection is read
    /// with [`Counted::get`], never reserved by its claimed count.
    fn get(r: &mut WireReader<'_>) -> Result<Self, DecodeError>;

    /// The length of the value's wire form: `put`, run against a writer
    /// that only counts.
    fn wire_len(&self) -> usize {
        let mut w = WireWriter::measuring();
        self.put(&mut w);
        w.len()
    }

    /// The value alone, as message bytes: `put` runs once, and the bytes
    /// land in one allocation of exactly their length ([`encode_with`]).
    fn encode(&self) -> Payload {
        encode_with(|w| self.put(w))
    }

    /// Decodes message bytes holding exactly one value.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for malformed input or trailing bytes.
    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        whole(WireReader::new(buf))
    }

    /// [`decode`](Wire::decode) over a shared buffer: embedded byte
    /// strings read as [`Payload`]s share it instead of being copied.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for malformed input or trailing bytes.
    fn decode_shared(buf: &Payload) -> Result<Self, DecodeError> {
        whole(WireReader::of(buf))
    }

    /// Appends the value behind its `u32` byte length, so a reader can
    /// bound it (or skip it) before parsing.
    fn put_framed(&self, w: &mut WireWriter) {
        w.u32(u32::try_from(self.wire_len()).expect("framed value too long"));
        self.put(w);
    }

    /// Reads a value written by [`put_framed`](Wire::put_framed); the
    /// frame must hold exactly one value.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for malformed input or a frame with bytes left.
    fn get_framed(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Self::decode(r.bytes("framed value")?)
    }
}

thread_local! {
    /// The buffer [`encode_with`] writes a message into before copying
    /// it out. It keeps the capacity of the largest message its thread
    /// has written, so past the first few messages it never grows.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// What [`Wire::encode`] does, for a message written by `put` rather
/// than by a [`Wire`] value: `put` runs once, into the thread's scratch
/// buffer, and the bytes are copied into one shared allocation of
/// exactly their length, the only one the message makes once the
/// scratch buffer has grown to the thread's largest message.
pub fn encode_with(put: impl FnOnce(&mut WireWriter)) -> Payload {
    // Taken, not borrowed: a `put` that encodes a message of its own
    // finds the cell empty and writes into a buffer of its own.
    let mut w = WireWriter {
        buf: SCRATCH.take(),
        sink: Sink::Store,
    };
    w.buf.clear();
    put(&mut w);
    let bytes = Payload::copy_from_slice(&w.buf);
    SCRATCH.set(w.buf);
    bytes
}

fn whole<T: Wire>(mut r: WireReader<'_>) -> Result<T, DecodeError> {
    let value = T::get(&mut r)?;
    r.expect_end("trailing bytes")?;
    Ok(value)
}

/// Declares a tagged enum and derives its [`Wire`] codec from the same
/// list: each variant is `tag => Variant`, with its fields
/// (`{ name: Type, .. }`, or `(name: Type)` for a tuple variant, whose
/// fields are named for the codec only) in wire order. A counted field,
/// in either form, names its [`Counted`] after `as`. An unknown tag is
/// refused as `"<Enum> tag"`. See the [module docs](crate::wire).
///
/// ```
/// use amoeba_flip::wire::{Counted, Wire};
/// use amoeba_flip::Payload;
///
/// const NAMES: Counted = Counted::u8(0, 8, "names");
///
/// amoeba_flip::wire_enum! {
///     /// A toy protocol.
///     #[derive(Debug, PartialEq)]
///     pub enum Toy {
///         /// The tag alone.
///         1 => Ping,
///         /// The tag, then `key`, then `value`.
///         2 => Put { key: u64, value: Payload },
///         /// A `u8` count of at most 8, then the names.
///         3 => Names { names: Vec<String> as NAMES },
///         /// A tuple variant.
///         4 => Echo(data: Payload),
///         /// A counted tuple field.
///         5 => Tags(tags: Vec<u64> as NAMES),
///     }
/// }
///
/// let put = Toy::Put { key: 7, value: vec![1, 2].into() };
/// assert_eq!(put.encode(), [2, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 2]);
/// assert_eq!(Toy::decode(&put.encode()), Ok(put));
/// assert_eq!(Toy::decode(&[3, 9]).unwrap_err().what, "names");
/// assert_eq!(Toy::decode(&[5, 9]).unwrap_err().what, "names");
/// assert_eq!(Toy::decode(&[6]).unwrap_err().what, "Toy tag");
/// ```
#[macro_export]
macro_rules! wire_enum {
    // One field's codec. `@get` takes the field only to repeat once per
    // field.
    (@put $w:ident, $field:ident) => {
        $crate::wire::Wire::put($field, $w)
    };
    (@put $w:ident, $field:ident, $counted:expr) => {
        $counted.put($w, $field, |item, w| $crate::wire::Wire::put(item, w))
    };
    (@get $r:ident, $field:ident) => {
        $crate::wire::Wire::get($r)?
    };
    (@get $r:ident, $field:ident, $counted:expr) => {
        $counted.get($r, $crate::wire::Wire::get)?
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $variant:ident
                $(( $($tfield:ident : $tty:ty $(as $tcounted:expr)?),+ $(,)? ))?
                $({ $( $(#[$fmeta:meta])* $field:ident : $fty:ty $(as $counted:expr)? ),* $(,)? })?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $(( $($tty),+ ))? $({ $( $(#[$fmeta])* $field: $fty ),* })?,
            )+
        }

        impl $crate::wire::Wire for $name {
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                match self {
                    $(
                        $name::$variant $(( $($tfield),+ ))? $({ $($field),* })? => {
                            w.u8($tag);
                            $($( $crate::wire_enum!(@put w, $tfield $(, $tcounted)?); )+)?
                            $($( $crate::wire_enum!(@put w, $field $(, $counted)?); )*)?
                        }
                    )+
                }
            }

            fn get(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::DecodeError> {
                const WHAT: &str = concat!(stringify!($name), " tag");
                ::core::result::Result::Ok(match r.u8(WHAT)? {
                    $(
                        $tag => $name::$variant
                            $(( $( $crate::wire_enum!(@get r, $tfield $(, $tcounted)?) ),+ ))?
                            $({ $( $field: $crate::wire_enum!(@get r, $field $(, $counted)?) ),* })?,
                    )+
                    _ => return ::core::result::Result::Err($crate::wire::DecodeError::new(WHAT)),
                })
            }
        }
    };
}

/// Declares a struct and derives its [`Wire`] codec from the same list:
/// its fields in wire order, each in its own [`Wire`] form, a counted
/// one naming its [`Counted`] after `as`, as in
/// [`wire_enum!`](crate::wire_enum) but with no tag. For a record whose
/// fields need no check beyond their own: a value another field must
/// agree with keeps a hand-written impl. See the
/// [module docs](crate::wire).
///
/// ```
/// use amoeba_flip::wire::{Counted, Wire};
///
/// const KEYS: Counted = Counted::u8(1, 4, "keys");
///
/// amoeba_flip::wire_struct! {
///     /// A toy record.
///     #[derive(Debug, PartialEq)]
///     pub struct Entry {
///         /// Written first.
///         pub id: u64,
///         /// A `u8` count of 1–4, then the keys.
///         pub keys: Vec<String> as KEYS,
///         /// Private fields work too.
///         live: bool,
///     }
/// }
///
/// let entry = Entry { id: 7, keys: vec!["k".into()], live: true };
/// assert_eq!(entry.encode(), [7, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, b'k', 1]);
/// assert_eq!(Entry::decode(&entry.encode()), Ok(entry));
/// assert_eq!(Entry::decode(&[7, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err().what, "keys");
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty $(as $counted:expr)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $fty ),+
        }

        impl $crate::wire::Wire for $name {
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                let $name { $($field),+ } = self;
                $( $crate::wire_enum!(@put w, $field $(, $counted)?); )+
            }

            fn get(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::wire::DecodeError> {
                ::core::result::Result::Ok($name {
                    $( $field: $crate::wire_enum!(@get r, $field $(, $counted)?) ),+
                })
            }
        }
    };
}

/// How one counted field is framed: the width of its element count and
/// the counts a decoder accepts (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counted {
    wide: bool,
    min: u32,
    max: u32,
    what: &'static str,
}

impl Counted {
    /// A `u8` count in `min..=max`; `what` names the field in errors.
    pub const fn u8(min: u8, max: u8, what: &'static str) -> Counted {
        Counted {
            wide: false,
            min: min as u32,
            max: max as u32,
            what,
        }
    }

    /// A `u32` count of at most `max`; `what` names the field in errors.
    pub const fn u32(max: u32, what: &'static str) -> Counted {
        Counted {
            wide: true,
            min: 0,
            max,
            what,
        }
    }

    /// Appends the number of `items`, then each item with `put`.
    pub fn put<I>(self, w: &mut WireWriter, items: I, put: impl FnMut(I::Item, &mut WireWriter))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put_n(w, items.len(), items, put);
    }

    /// Appends the count `n` alone: for a writer that copies the items'
    /// bytes from elsewhere.
    pub fn put_count(self, w: &mut WireWriter, n: usize) {
        if self.wide {
            w.u32(n as u32);
        } else {
            w.u8(n as u8);
        }
    }

    /// [`put`](Counted::put) for items an iterator cannot count without
    /// walking them, such as a filtered one: the caller counts `n`.
    ///
    /// # Panics
    ///
    /// If `items` does not yield exactly `n` items.
    pub fn put_n<I: IntoIterator>(
        self,
        w: &mut WireWriter,
        n: usize,
        items: I,
        mut put: impl FnMut(I::Item, &mut WireWriter),
    ) {
        self.put_count(w, n);
        let mut written = 0;
        for item in items {
            put(item, w);
            written += 1;
        }
        assert_eq!(written, n, "{}: count and items differ", self.what);
    }

    /// Reads a count, then that many elements with `get`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for a count outside the field's range — before
    /// any element is read — or for an element that does not parse. The
    /// collection grows only as elements parse, never by the count.
    pub fn get<T, C: FromIterator<T>>(
        self,
        r: &mut WireReader<'_>,
        mut get: impl FnMut(&mut WireReader<'_>) -> Result<T, DecodeError>,
    ) -> Result<C, DecodeError> {
        let n = if self.wide {
            r.u32(self.what)?
        } else {
            u32::from(r.u8(self.what)?)
        };
        if !(self.min..=self.max).contains(&n) {
            return Err(DecodeError::new(self.what));
        }
        (0..n).map(|_| get(r)).collect()
    }
}

impl Wire for u64 {
    fn put(&self, w: &mut WireWriter) {
        w.u64(*self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<u64, DecodeError> {
        r.u64("u64")
    }
}

impl Wire for u32 {
    fn put(&self, w: &mut WireWriter) {
        w.u32(*self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<u32, DecodeError> {
        r.u32("u32")
    }
}

/// One byte, 0 or 1; any other value is refused.
impl Wire for bool {
    fn put(&self, w: &mut WireWriter) {
        w.boolean(*self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<bool, DecodeError> {
        r.boolean("bool")
    }
}

impl Wire for HostAddr {
    fn put(&self, w: &mut WireWriter) {
        w.u32(self.0);
    }
    fn get(r: &mut WireReader<'_>) -> Result<HostAddr, DecodeError> {
        Ok(HostAddr(r.u32("host")?))
    }
}

/// A length-prefixed UTF-8 string.
impl Wire for String {
    fn put(&self, w: &mut WireWriter) {
        w.string(self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<String, DecodeError> {
        r.string("string")
    }
}

/// The port's 48 bits in a `u64`; a value with higher bits set is
/// refused rather than masked into another port.
impl Wire for Port {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.as_raw());
    }
    fn get(r: &mut WireReader<'_>) -> Result<Port, DecodeError> {
        let raw = r.u64("port")?;
        match Port::from_raw(raw) {
            port if port.as_raw() == raw => Ok(port),
            _ => Err(DecodeError::new("port")),
        }
    }
}

/// A length-prefixed byte string, read zero-copy from a shared buffer
/// ([`WireReader::payload`]).
impl Wire for Payload {
    fn put(&self, w: &mut WireWriter) {
        w.bytes(self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Payload, DecodeError> {
        r.payload("payload")
    }
}

/// A membership vector: a `u8` count of at most 64, then one byte per
/// flag.
impl Wire for Vec<bool> {
    fn put(&self, w: &mut WireWriter) {
        FLAGS.put(w, self, |flag, w| {
            w.boolean(*flag);
        });
    }
    fn get(r: &mut WireReader<'_>) -> Result<Vec<bool>, DecodeError> {
        FLAGS.get(r, |r| r.boolean("flag"))
    }
}

const FLAGS: Counted = Counted::u8(0, 64, "flags");

/// A `u8` tag (0 absent, 1 present), then the value if present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut WireWriter) {
        match self {
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
            None => {
                w.u8(0);
            }
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Option<T>, DecodeError> {
        match r.u8("option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(DecodeError::new("option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<(A, B), DecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<(A, B, C), DecodeError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_testkit::{check, Gen};

    #[test]
    fn round_trip_scalars() {
        let mut w = WireWriter::new();
        w.u8(7).u16(300).u32(70_000).u64(1 << 40).boolean(true);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 300);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert!(r.boolean("e").unwrap());
        r.expect_end("end").unwrap();
    }

    #[test]
    fn round_trip_strings_and_bytes() {
        let mut w = WireWriter::new();
        w.string("hello").bytes(&[1, 2, 3]).string("");
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.string("s").unwrap(), "hello");
        assert_eq!(r.bytes("b").unwrap(), vec![1, 2, 3]);
        assert_eq!(r.string("e").unwrap(), "");
        r.expect_end("tail").unwrap();
    }

    /// A digest is FNV-1a over the byte stream a buffer would hold:
    /// the field split does not matter, one changed byte does.
    #[test]
    fn a_digest_is_fnv1a_of_the_bytes_a_buffer_would_hold() {
        let put = |w: &mut WireWriter, name: &str| {
            w.u8(7).u64(1 << 40).string(name);
        };
        let mut stored = WireWriter::new();
        put(&mut stored, "hello");
        let fnv = amoeba_sim::fnv1a(stored.as_slice());
        let digest = |name| {
            let mut w = WireWriter::digesting();
            put(&mut w, name);
            assert!(w.as_slice().is_empty(), "a digesting writer stores nothing");
            w.digest().expect("a digesting writer")
        };
        assert_eq!(digest("hello"), fnv);
        let mut split = WireWriter::digesting();
        split
            .raw(&stored.as_slice()[..3])
            .raw(&stored.as_slice()[3..]);
        assert_eq!(split.digest(), Some(fnv));
        assert_ne!(digest("hellp"), fnv);
        assert_eq!(stored.digest(), None);
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut w = WireWriter::new();
        w.u64(5);
        let buf = w.finish();
        let mut r = WireReader::new(&buf[..4]);
        assert!(r.u64("x").is_err());
    }

    #[test]
    fn bad_bool_errors() {
        let buf = [2u8];
        let mut r = WireReader::new(&buf);
        assert!(r.boolean("flag").is_err());
    }

    #[test]
    fn expect_end_catches_trailing_garbage() {
        let buf = [0u8, 1];
        let mut r = WireReader::new(&buf);
        let _ = r.u8("x").unwrap();
        assert!(r.expect_end("tail").is_err());
    }

    #[test]
    fn length_prefix_beyond_buffer_errors() {
        let mut w = WireWriter::new();
        w.u32(1000); // claims 1000 bytes follow
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert!(r.bytes("b").is_err());
    }

    #[test]
    fn prop_round_trip() {
        check("wire round trip", 256, |g: &mut Gen| {
            let (a, b, c, d, flag) = (g.u8(), g.u16(), g.u32(), g.u64(), g.boolean());
            let s = g.utf8(64);
            let v = g.bytes(256);
            let mut w = WireWriter::new();
            w.u8(a)
                .u16(b)
                .u32(c)
                .u64(d)
                .boolean(flag)
                .string(&s)
                .bytes(&v);
            let buf = w.finish();
            let mut r = WireReader::new(&buf);
            assert_eq!(r.u8("a").unwrap(), a);
            assert_eq!(r.u16("b").unwrap(), b);
            assert_eq!(r.u32("c").unwrap(), c);
            assert_eq!(r.u64("d").unwrap(), d);
            assert_eq!(r.boolean("f").unwrap(), flag);
            assert_eq!(r.string("s").unwrap(), s);
            assert_eq!(r.bytes("v").unwrap(), v);
            r.expect_end("end").unwrap();
        });
    }

    #[test]
    fn payload_read_is_zero_copy_over_shared_buffer() {
        let mut w = WireWriter::with_capacity(4 + 3 + 4);
        w.bytes(&[7, 8, 9]).u32(5);
        let src = w.finish_payload();
        let mut r = WireReader::of(&src);
        let p = r.payload("p").unwrap();
        assert_eq!(p.as_slice(), &[7, 8, 9]);
        // Same backing buffer: the slice starts 4 bytes (length prefix)
        // into the source.
        assert_eq!(p.as_slice().as_ptr(), unsafe {
            src.as_slice().as_ptr().add(4)
        });
        assert_eq!(r.u32("tail").unwrap(), 5);
        r.expect_end("end").unwrap();
    }

    #[test]
    fn payload_read_over_borrowed_slice_copies_once() {
        let mut w = WireWriter::new();
        w.bytes(&[1, 2]);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.payload("p").unwrap().as_slice(), &[1, 2]);
    }

    #[test]
    fn truncated_payload_read_errors() {
        let mut w = WireWriter::new();
        w.u32(10); // claims 10 bytes follow; none do
        let src = w.finish_payload();
        let mut r = WireReader::of(&src);
        assert!(r.payload("p").is_err());
    }

    #[test]
    fn prop_payload_round_trip() {
        check(
            "payload round trip via shared buffer",
            256,
            |g: &mut Gen| {
                let head = g.bytes(64);
                let tail = g.bytes(64);
                let mut w = WireWriter::with_capacity(8 + head.len() + tail.len());
                w.bytes(&head).bytes(&tail);
                let src = w.finish_payload();
                let mut r = WireReader::of(&src);
                let p1 = r.payload("head").unwrap();
                let p2 = r.payload("tail").unwrap();
                assert_eq!(p1.as_slice(), head.as_slice());
                assert_eq!(p2.as_slice(), tail.as_slice());
                r.expect_end("end").unwrap();
                // Slices of slices still compare by content.
                if !head.is_empty() {
                    let k = g.below(head.len()) + 1;
                    assert_eq!(p1.slice(..k).as_slice(), &head[..k]);
                }
            },
        );
    }

    #[test]
    fn prop_decoder_never_panics() {
        check("wire decoder never panics", 256, |g: &mut Gen| {
            let data = g.bytes(128);
            let mut r = WireReader::new(&data);
            let _ = r.u64("a");
            let _ = r.string("b");
            let _ = r.bytes("c");
            let _ = r.boolean("d");
        });
    }
}
