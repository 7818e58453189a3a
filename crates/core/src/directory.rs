//! Directories: tables of (name, capability) rows with protection columns.
//!
//! Paper §2: a directory is a table with one column per protection domain
//! (owner / group / others …). A row holds a name, a capability, and a
//! rights mask per column; a holder of a directory capability for columns
//! `M` sees, for each row, the capability restricted to the union of the
//! masks in the visible columns.

use amoeba_flip::wire::{Counted, DecodeError, Wire, WireReader, WireWriter};

use crate::capability::Capability;
use crate::rights::Rights;

/// Protection-column names: a `u8` count of 1–4, then each name.
pub(crate) const COLUMNS: Counted = Counted::u8(1, 4, "columns");
/// Per-column rights masks: a `u8` count of at most 4, one byte each.
pub(crate) const MASKS: Counted = Counted::u8(0, 4, "rights masks");
/// Full rows: a `u32` count of at most 1,000,000, then each row.
pub(crate) const ROWS: Counted = Counted::u32(1_000_000, "rows");

/// One row of a directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// The name (ASCII in the paper; any UTF-8 here).
    pub name: String,
    /// The stored capability (as registered, usually owner rights).
    pub cap: Capability,
    /// Rights mask per column (same length as the directory's columns).
    pub col_rights: Vec<Rights>,
}

/// A directory: protection columns plus rows, with the per-directory
/// sequence number of the last change (paper §3: "including the sequence
/// number of the last change").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory {
    /// Protection-domain column names (1–4 of them).
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Vec<Row>,
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
        Directory {
            columns,
            rows: Vec::new(),
            seqno: 0,
        }
    }

    /// Looks up a row by name.
    pub fn find(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
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
        name: String,
        cap: Capability,
        col_rights: Vec<Rights>,
    ) -> Result<(), DirStructureError> {
        if self.find(&name).is_some() {
            return Err(DirStructureError::DuplicateName);
        }
        if col_rights.len() != self.columns.len() {
            return Err(DirStructureError::ColumnMismatch);
        }
        self.rows.push(Row {
            name,
            cap,
            col_rights,
        });
        Ok(())
    }

    /// Removes a row by name.
    ///
    /// # Errors
    ///
    /// [`DirStructureError::NoSuchName`] if absent.
    pub fn delete_row(&mut self, name: &str) -> Result<(), DirStructureError> {
        let before = self.rows.len();
        self.rows.retain(|r| r.name != name);
        if self.rows.len() == before {
            Err(DirStructureError::NoSuchName)
        } else {
            Ok(())
        }
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
        col_rights: Vec<Rights>,
    ) -> Result<(), DirStructureError> {
        if col_rights.len() != self.columns.len() {
            return Err(DirStructureError::ColumnMismatch);
        }
        match self.rows.iter_mut().find(|r| r.name == name) {
            Some(r) => {
                r.col_rights = col_rights;
                Ok(())
            }
            None => Err(DirStructureError::NoSuchName),
        }
    }

    /// Replaces the capability stored in a row.
    ///
    /// # Errors
    ///
    /// [`DirStructureError::NoSuchName`] if absent.
    pub fn replace_cap(&mut self, name: &str, cap: Capability) -> Result<(), DirStructureError> {
        match self.rows.iter_mut().find(|r| r.name == name) {
            Some(r) => {
                r.cap = cap;
                Ok(())
            }
            None => Err(DirStructureError::NoSuchName),
        }
    }
}

/// A row: its name, capability and per-column masks.
impl Wire for Row {
    fn put(&self, w: &mut WireWriter) {
        w.string(&self.name);
        self.cap.put(w);
        MASKS.put(w, &self.col_rights, Rights::put);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Row, DecodeError> {
        Ok(Row {
            name: r.string("row name")?,
            cap: Capability::get(r)?,
            col_rights: MASKS.get(r, Rights::get)?,
        })
    }
}

/// A directory's Bullet file: its seqno, its columns, then its rows,
/// each with one mask per column.
impl Wire for Directory {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.seqno);
        COLUMNS.put(w, &self.columns, String::put);
        ROWS.put(w, &self.rows, Row::put);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Directory, DecodeError> {
        let seqno = r.u64("dir seqno")?;
        let columns: Vec<String> = COLUMNS.get(r, String::get)?;
        let rows = ROWS.get(r, |r| match Row::get(r)? {
            row if row.col_rights.len() == columns.len() => Ok(row),
            _ => Err(DecodeError::new("row masks")),
        })?;
        Ok(Directory {
            columns,
            rows,
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
        d.append_row("a".into(), cap(1), vec![Rights::ALL, Rights::column(0)])
            .unwrap();
        assert!(d.find("a").is_some());
        assert_eq!(
            d.append_row("a".into(), cap(2), vec![Rights::ALL, Rights::NONE]),
            Err(DirStructureError::DuplicateName)
        );
        d.delete_row("a").unwrap();
        assert_eq!(d.delete_row("a"), Err(DirStructureError::NoSuchName));
    }

    #[test]
    fn column_mismatch_rejected() {
        let mut d = two_col();
        assert_eq!(
            d.append_row("a".into(), cap(1), vec![Rights::ALL]),
            Err(DirStructureError::ColumnMismatch)
        );
        d.append_row("a".into(), cap(1), vec![Rights::ALL, Rights::NONE])
            .unwrap();
        assert_eq!(
            d.chmod_row("a", vec![Rights::NONE]),
            Err(DirStructureError::ColumnMismatch)
        );
    }

    #[test]
    fn effective_rights_unions_visible_columns() {
        let mut d = two_col();
        d.append_row("a".into(), cap(1), vec![Rights::ALL, Rights::column(0)])
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
        d.append_row("a".into(), cap(1), vec![Rights::ALL, Rights::NONE])
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
        d.append_row("hello".into(), cap(1), vec![Rights::ALL, Rights::column(0)])
            .unwrap();
        d.append_row("world".into(), cap(2), vec![Rights::MODIFY, Rights::NONE])
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
