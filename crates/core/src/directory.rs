//! Directories: tables of (name, capability) rows with protection columns.
//!
//! Paper §2: a directory is a table with one column per protection domain
//! (owner / group / others …). A row holds a name, a capability, and a
//! rights mask per column; a holder of a directory capability for columns
//! `M` sees, for each row, the capability restricted to the union of the
//! masks in the visible columns.
//!
//! A directory version is immutable once published (paper §3.1: each
//! version is a new Bullet file), so an update copies what it changes and
//! shares the rest: a row's name and the column names are shared, a
//! row's masks are inline, and copying a version copies one `Vec` of rows
//! and allocates nothing per row.
//!
//! A version carries its Bullet image: its *body*, the file's bytes
//! after the seqno (the columns, the row count, then the rows), kept
//! beside the rows it encodes. A row edit splices the old body into the
//! new one, writing only the row it changes, at offsets the format
//! gives; a decoded version keeps the window of the bytes it was decoded
//! from. So writing a version's file copies bytes and encodes nothing,
//! and the rows and columns are private, so nothing can put the body out
//! of step with them.

use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

use amoeba_flip::wire::{encode_with, Counted, DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Payload;

use crate::capability::Capability;
use crate::rights::Rights;

/// Protection-column names: a `u8` count of 1–4, then each name.
pub(crate) const COLUMNS: Counted = Counted::u8(1, 4, "columns");
/// Per-column rights masks: a `u8` count of at most 4, one byte each.
pub(crate) const MASKS: Counted = Counted::u8(0, 4, "rights masks");
/// Full rows: a `u32` count of at most 1,000,000, then each row.
pub(crate) const ROWS: Counted = Counted::u32(1_000_000, "rows");
/// The bytes of a capability's wire form: its port, object, rights and
/// check.
const CAP_BYTES: usize = 8 + 8 + 1 + 8;

/// A row's name, shared by every version of the directory that holds
/// the row: cloning it copies a pointer. Derefs to `str`.
#[derive(Clone, PartialEq, Eq)]
pub struct Name(Rc<str>);

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(s.into())
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(s.into())
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A row's rights masks, one per column: at most four, held inline.
/// Derefs to `[Rights]`. The slots past `len` stay `NONE`, so equal
/// masks are equal structs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Masks {
    len: u8,
    masks: [Rights; 4],
}

impl Deref for Masks {
    type Target = [Rights];

    fn deref(&self) -> &[Rights] {
        &self.masks[..usize::from(self.len)]
    }
}

/// # Panics
///
/// Panics past four masks (a directory has at most four columns).
impl FromIterator<Rights> for Masks {
    fn from_iter<I: IntoIterator<Item = Rights>>(iter: I) -> Masks {
        let mut out = Masks {
            len: 0,
            masks: [Rights::NONE; 4],
        };
        for m in iter {
            assert!(out.len < 4, "at most 4 rights masks");
            out.masks[usize::from(out.len)] = m;
            out.len += 1;
        }
        out
    }
}

/// # Panics
///
/// Panics past four masks.
impl From<&[Rights]> for Masks {
    fn from(masks: &[Rights]) -> Masks {
        masks.iter().copied().collect()
    }
}

impl fmt::Debug for Masks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One row of a directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The name (ASCII in the paper; any UTF-8 here).
    pub name: Name,
    /// The stored capability (as registered, usually owner rights).
    pub cap: Capability,
    /// Rights mask per column (same length as the directory's columns).
    pub col_rights: Masks,
}

/// A directory: protection columns plus rows, with the per-directory
/// sequence number of the last change (paper §3: "including the sequence
/// number of the last change"), and its Bullet image (see the module
/// docs).
#[derive(Clone, PartialEq, Eq)]
pub struct Directory {
    /// Protection-domain column names (1–4 of them), shared by every
    /// version of the directory.
    columns: Rc<[String]>,
    /// The rows.
    rows: Vec<Row>,
    /// The wire form of the columns and the rows: the Bullet file's
    /// bytes after the seqno.
    body: Payload,
    /// Sequence number of the last update that produced this version.
    pub seqno: u64,
}

impl Directory {
    /// Creates an empty directory with the given protection columns.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or has more than 4 entries.
    pub fn new(columns: Vec<String>) -> Directory {
        assert!(
            !columns.is_empty() && columns.len() <= 4,
            "1..=4 protection columns"
        );
        let body = encode_with(|w| {
            COLUMNS.put(w, columns.iter(), String::put);
            ROWS.put_count(w, 0);
        });
        Directory {
            columns: columns.into(),
            rows: Vec::new(),
            body,
            seqno: 0,
        }
    }

    /// Protection-domain column names (1–4 of them).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows, in the order they were appended.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// A copy of this version for an update to edit into the next one:
    /// its row list is allocated once, with room for `room` more rows,
    /// and shares every row, the columns and the body.
    pub(crate) fn edit_copy(&self, room: usize) -> Directory {
        let mut rows = Vec::with_capacity(self.rows.len() + room);
        rows.extend_from_slice(&self.rows);
        Directory {
            columns: Rc::clone(&self.columns),
            rows,
            body: self.body.clone(),
            seqno: self.seqno,
        }
    }

    /// Looks up a row by name.
    pub fn find(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| *r.name == *name)
    }

    /// The index of the row named `name`, and the bytes it takes in the
    /// body.
    fn locate(&self, name: &str) -> Option<(usize, Range<usize>)> {
        let mut at = self.rows_at() + ROW_COUNT_BYTES;
        for (i, row) in self.rows.iter().enumerate() {
            let end = at + row_bytes(row);
            if *row.name == *name {
                return Some((i, at..end));
            }
            at = end;
        }
        None
    }

    /// Where the row count sits in the body: past the columns, each a
    /// `u32` length and its bytes after their `u8` count.
    fn rows_at(&self) -> usize {
        1 + self.columns.iter().map(|c| 4 + c.len()).sum::<usize>()
    }

    /// Replaces the body's bytes at `old` with the wire form of the row
    /// at index `row` (or with nothing), and its row count with the
    /// rows' number: one new buffer, the rest of it copied from the old
    /// body.
    fn splice(&mut self, old: Range<usize>, row: Option<usize>) {
        let count_at = self.rows_at();
        let (body, rows) = (&self.body, &self.rows);
        self.body = encode_with(|w| {
            w.raw(&body[..count_at]);
            ROWS.put_count(w, rows.len());
            w.raw(&body[count_at + ROW_COUNT_BYTES..old.start]);
            if let Some(i) = row {
                rows[i].put(w);
            }
            w.raw(&body[old.end..]);
        });
    }

    /// The union of the rights masks of `row` over the columns visible to
    /// `holder_rights`.
    pub fn effective_rights(&self, row: &Row, holder_rights: Rights) -> Rights {
        let mut eff = Rights::NONE;
        for (i, mask) in row.col_rights.iter().enumerate() {
            if holder_rights.sees_column(i) {
                eff = eff | *mask;
            }
        }
        eff
    }

    /// Appends a row.
    ///
    /// # Errors
    ///
    /// [`DirStructureError::DuplicateName`] if the name exists;
    /// [`DirStructureError::ColumnMismatch`] if the mask count differs
    /// from the column count.
    pub fn append_row(
        &mut self,
        name: impl Into<Name>,
        cap: Capability,
        col_rights: impl AsRef<[Rights]>,
    ) -> Result<(), DirStructureError> {
        let name = name.into();
        if self.find(&name).is_some() {
            return Err(DirStructureError::DuplicateName);
        }
        let col_rights = col_rights.as_ref();
        if col_rights.len() != self.columns.len() {
            return Err(DirStructureError::ColumnMismatch);
        }
        self.rows.push(Row {
            name,
            cap,
            col_rights: col_rights.into(),
        });
        let end = self.body.len();
        self.splice(end..end, Some(self.rows.len() - 1));
        Ok(())
    }

    /// Removes a row by name.
    ///
    /// # Errors
    ///
    /// [`DirStructureError::NoSuchName`] if absent.
    pub fn delete_row(&mut self, name: &str) -> Result<(), DirStructureError> {
        let (i, bytes) = self.locate(name).ok_or(DirStructureError::NoSuchName)?;
        self.rows.remove(i);
        self.splice(bytes, None);
        Ok(())
    }

    /// Replaces a row's column rights masks.
    ///
    /// # Errors
    ///
    /// [`DirStructureError::NoSuchName`] /
    /// [`DirStructureError::ColumnMismatch`].
    pub fn chmod_row(
        &mut self,
        name: &str,
        col_rights: impl AsRef<[Rights]>,
    ) -> Result<(), DirStructureError> {
        let col_rights = col_rights.as_ref();
        if col_rights.len() != self.columns.len() {
            return Err(DirStructureError::ColumnMismatch);
        }
        let (i, bytes) = self.locate(name).ok_or(DirStructureError::NoSuchName)?;
        self.rows[i].col_rights = col_rights.into();
        self.splice(bytes, Some(i));
        Ok(())
    }

    /// Replaces the capability stored in a row.
    ///
    /// # Errors
    ///
    /// [`DirStructureError::NoSuchName`] if absent.
    pub fn replace_cap(&mut self, name: &str, cap: Capability) -> Result<(), DirStructureError> {
        let (i, bytes) = self.locate(name).ok_or(DirStructureError::NoSuchName)?;
        self.rows[i].cap = cap;
        self.splice(bytes, Some(i));
        Ok(())
    }
}

/// The bytes of the body's row count (a `u32`, [`ROWS`]).
const ROW_COUNT_BYTES: usize = 4;

/// The bytes of `row`'s wire form ([`put_row`]): its name behind a `u32`
/// length, its capability, then its masks behind a `u8` count.
fn row_bytes(row: &Row) -> usize {
    4 + row.name.len() + CAP_BYTES + 1 + row.col_rights.len()
}

/// The rows and the seqno; the body is the bytes of the two.
impl fmt::Debug for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Directory")
            .field("columns", &self.columns)
            .field("rows", &self.rows)
            .field("seqno", &self.seqno)
            .finish_non_exhaustive()
    }
}

/// A row: its name, capability and per-column masks.
impl Wire for Row {
    fn put(&self, w: &mut WireWriter) {
        put_row(w, &self.name, &self.cap, self.col_rights.iter().copied());
    }

    fn get(r: &mut WireReader<'_>) -> Result<Row, DecodeError> {
        Ok(Row {
            name: r.str("row name")?.into(),
            cap: Capability::get(r)?,
            col_rights: MASKS.get(r, Rights::get)?,
        })
    }
}

impl Row {
    /// Reads a row as [`Row::get`] does, checking its masks without
    /// keeping them: the client cache answers lookups from the name and
    /// capability alone.
    pub(crate) fn get_name_cap(
        r: &mut WireReader<'_>,
    ) -> Result<(String, Capability), DecodeError> {
        let (name, cap) = (r.string("row name")?, Capability::get(r)?);
        MASKS.get::<(), ()>(r, |r| Rights::get(r).map(drop))?;
        Ok((name, cap))
    }
}

/// The one writer of a row's wire form, for a [`Row`] and for a row a
/// lease grant restricts as it writes it (no restricted copy is built).
pub(crate) fn put_row(
    w: &mut WireWriter,
    name: &str,
    cap: &Capability,
    masks: impl Iterator<Item = Rights> + Clone,
) {
    w.string(name);
    cap.put(w);
    MASKS.put_n(w, masks.clone().count(), masks, |m, w| m.put(w));
}

/// A directory's Bullet file: its seqno, its columns, then its rows,
/// each with one mask per column. The columns and rows are the body the
/// version carries, so writing one copies them and decoding one keeps
/// them.
impl Wire for Directory {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.seqno);
        w.raw(&self.body);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Directory, DecodeError> {
        let seqno = r.u64("dir seqno")?;
        let start = r.position();
        let columns: Rc<[String]> = COLUMNS.get(r, String::get)?;
        let rows = ROWS.get(r, |r| match Row::get(r)? {
            row if row.col_rights.len() == columns.len() => Ok(row),
            _ => Err(DecodeError::new("row masks")),
        })?;
        Ok(Directory {
            columns,
            rows,
            body: r.read_since(start),
            seqno,
        })
    }
}

/// Structural errors on directory mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirStructureError {
    /// A row with that name already exists.
    DuplicateName,
    /// No row with that name.
    NoSuchName,
    /// Rights-mask count does not match the column count.
    ColumnMismatch,
}

impl std::fmt::Display for DirStructureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DirStructureError::DuplicateName => "name already present",
            DirStructureError::NoSuchName => "no such name",
            DirStructureError::ColumnMismatch => "rights mask count differs from column count",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DirStructureError {}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_flip::Port;
    use amoeba_testkit::{check, Gen};

    fn cap(object: u64) -> Capability {
        Capability::owner(Port::from_name("x"), object, object * 77)
    }

    fn two_col() -> Directory {
        Directory::new(vec!["owner".into(), "other".into()])
    }

    #[test]
    fn append_find_delete() {
        let mut d = two_col();
        d.append_row("a", cap(1), vec![Rights::ALL, Rights::column(0)])
            .unwrap();
        assert!(d.find("a").is_some());
        assert_eq!(
            d.append_row("a", cap(2), vec![Rights::ALL, Rights::NONE]),
            Err(DirStructureError::DuplicateName)
        );
        d.delete_row("a").unwrap();
        assert_eq!(d.delete_row("a"), Err(DirStructureError::NoSuchName));
    }

    #[test]
    fn column_mismatch_rejected() {
        let mut d = two_col();
        assert_eq!(
            d.append_row("a", cap(1), vec![Rights::ALL]),
            Err(DirStructureError::ColumnMismatch)
        );
        d.append_row("a", cap(1), vec![Rights::ALL, Rights::NONE])
            .unwrap();
        assert_eq!(
            d.chmod_row("a", vec![Rights::NONE]),
            Err(DirStructureError::ColumnMismatch)
        );
    }

    #[test]
    fn effective_rights_unions_visible_columns() {
        let mut d = two_col();
        d.append_row("a", cap(1), vec![Rights::ALL, Rights::column(0)])
            .unwrap();
        let row = d.find("a").unwrap();
        // Holder sees only column 1 ("other"): gets that mask.
        assert_eq!(
            d.effective_rights(row, Rights::column(1)),
            Rights::column(0)
        );
        // Holder sees both columns: union.
        assert_eq!(d.effective_rights(row, Rights::columns(2)), Rights::ALL);
        // Holder sees no columns: nothing.
        assert_eq!(d.effective_rights(row, Rights::MODIFY), Rights::NONE);
    }

    #[test]
    fn chmod_and_replace() {
        let mut d = two_col();
        d.append_row("a", cap(1), vec![Rights::ALL, Rights::NONE])
            .unwrap();
        d.chmod_row("a", vec![Rights::NONE, Rights::ALL]).unwrap();
        assert_eq!(d.find("a").unwrap().col_rights[1], Rights::ALL);
        d.replace_cap("a", cap(9)).unwrap();
        assert_eq!(d.find("a").unwrap().cap.object, 9);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut d = two_col();
        d.seqno = 42;
        d.append_row("hello", cap(1), vec![Rights::ALL, Rights::column(0)])
            .unwrap();
        d.append_row("world", cap(2), vec![Rights::MODIFY, Rights::NONE])
            .unwrap();
        let bytes = d.encode();
        assert_eq!(Directory::decode(&bytes).unwrap(), d);
    }

    #[test]
    #[should_panic(expected = "protection columns")]
    fn zero_columns_panics() {
        let _ = Directory::new(vec![]);
    }

    #[test]
    fn prop_encode_decode() {
        check("directory encode/decode", 128, |g: &mut Gen| {
            let mut d = Directory::new(vec!["owner".into(), "group".into(), "other".into()]);
            d.seqno = g.u64();
            let names = g.below(20);
            for i in 0..names {
                // Duplicates are rejected; only insert fresh names.
                let n = g.string(12);
                let _ = d.append_row(
                    format!("{n}{i}"),
                    cap(i as u64),
                    vec![Rights::ALL, Rights::column(0), Rights::NONE],
                );
            }
            let bytes = d.encode();
            assert_eq!(Directory::decode(&bytes).unwrap(), d);
        });
    }

    #[test]
    fn prop_decode_never_panics() {
        check("directory decode never panics", 256, |g: &mut Gen| {
            let _ = Directory::decode(&g.bytes(256));
        });
    }
}
