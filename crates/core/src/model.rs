//! An in-memory reference model of the directory service, used by
//! property tests to check one-copy serializability: a history accepted by
//! the replicated service must match this model executed sequentially.

use amoeba_sim::IdMap;

use crate::directory::Directory;
use crate::ops::{DirError, DirOp};

/// A sequential, non-replicated directory service model.
///
/// Mirrors the deterministic apply logic (including object-number
/// allocation) without any I/O, capabilities reduced to object numbers.
#[derive(Debug, Default, Clone)]
pub struct DirModel {
    dirs: IdMap<u64, Directory>,
    highest_ever: u64,
}

impl DirModel {
    /// An empty model.
    pub fn new() -> DirModel {
        DirModel::default()
    }

    /// Number of live directories.
    pub fn len(&self) -> usize {
        self.dirs.len()
    }

    /// Whether no directories exist.
    pub fn is_empty(&self) -> bool {
        self.dirs.is_empty()
    }

    /// The directory with the given object number.
    pub fn dir(&self, object: u64) -> Option<&Directory> {
        self.dirs.get(&object)
    }

    /// The deterministic next object number (one past the highest live).
    pub fn next_object(&self) -> u64 {
        self.dirs.keys().max().map(|m| m + 1).unwrap_or(1)
    }

    /// Applies an op exactly as a replica would; returns the expected
    /// outcome (`Ok(object)` for creates).
    pub fn apply(&mut self, op: &DirOp) -> Result<Option<u64>, DirError> {
        match op {
            DirOp::Create { columns, check: _ } => {
                if !(1..=4).contains(&columns.len()) {
                    return Err(DirError::Malformed);
                }
                let object = self.next_object();
                self.dirs.insert(object, Directory::new(columns.clone()));
                self.highest_ever = self.highest_ever.max(object);
                Ok(Some(object))
            }
            DirOp::Delete { object } => {
                self.dirs.remove(object).ok_or(DirError::BadCapability)?;
                Ok(None)
            }
            DirOp::Append {
                object,
                name,
                cap,
                col_rights,
            } => {
                let dir = self.dirs.get_mut(object).ok_or(DirError::BadCapability)?;
                dir.append_row(name.as_str(), *cap, col_rights)?;
                Ok(None)
            }
            DirOp::Chmod {
                object,
                name,
                col_rights,
            } => {
                let dir = self.dirs.get_mut(object).ok_or(DirError::BadCapability)?;
                dir.chmod_row(name, col_rights)?;
                Ok(None)
            }
            DirOp::DeleteRow { object, name } => {
                let dir = self.dirs.get_mut(object).ok_or(DirError::BadCapability)?;
                dir.delete_row(name)?;
                Ok(None)
            }
            DirOp::ReplaceSet { items } => {
                for (object, name, _) in items {
                    let dir = self.dirs.get(object).ok_or(DirError::BadCapability)?;
                    if dir.find(name).is_none() {
                        return Err(DirError::NoSuchName);
                    }
                }
                for (object, name, cap) in items {
                    let dir = self.dirs.get_mut(object).expect("validated");
                    dir.replace_cap(name, *cap).expect("validated");
                }
                Ok(None)
            }
            DirOp::GrantRead { cap, .. } => {
                // The model has no lease table: a grant mutates nothing,
                // it only requires the directory to exist. Lease fencing
                // is covered by the service-level cache tests.
                self.dirs.get(&cap.object).ok_or(DirError::BadCapability)?;
                Ok(None)
            }
        }
    }

    /// The names visible in a directory, sorted (for listing comparison).
    pub fn names(&self, object: u64) -> Vec<String> {
        let mut v: Vec<String> = self
            .dirs
            .get(&object)
            .map(|d| d.rows().iter().map(|r| r.name.to_string()).collect())
            .unwrap_or_default();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::Capability;
    use crate::rights::Rights;
    use amoeba_flip::Port;

    fn cap(o: u64) -> Capability {
        Capability::owner(Port::from_name("x"), o, 1)
    }

    #[test]
    fn create_assigns_sequential_objects() {
        let mut m = DirModel::new();
        let o1 = m
            .apply(&DirOp::Create {
                columns: vec!["o".into()],
                check: 1,
            })
            .unwrap()
            .unwrap();
        let o2 = m
            .apply(&DirOp::Create {
                columns: vec!["o".into()],
                check: 2,
            })
            .unwrap()
            .unwrap();
        assert_eq!((o1, o2), (1, 2));
    }

    #[test]
    fn object_numbers_reused_after_delete_of_highest() {
        let mut m = DirModel::new();
        let o1 = m
            .apply(&DirOp::Create {
                columns: vec!["o".into()],
                check: 1,
            })
            .unwrap()
            .unwrap();
        m.apply(&DirOp::Delete { object: o1 }).unwrap();
        let o2 = m
            .apply(&DirOp::Create {
                columns: vec!["o".into()],
                check: 2,
            })
            .unwrap()
            .unwrap();
        assert_eq!(o2, 1, "allocator is one-past-highest-live");
    }

    #[test]
    fn append_and_delete_row() {
        let mut m = DirModel::new();
        m.apply(&DirOp::Create {
            columns: vec!["o".into()],
            check: 1,
        })
        .unwrap();
        m.apply(&DirOp::Append {
            object: 1,
            name: "x".into(),
            cap: cap(9),
            col_rights: vec![Rights::ALL],
        })
        .unwrap();
        assert_eq!(m.names(1), vec!["x"]);
        let dup = m.apply(&DirOp::Append {
            object: 1,
            name: "x".into(),
            cap: cap(9),
            col_rights: vec![Rights::ALL],
        });
        assert_eq!(dup, Err(DirError::DuplicateName));
        m.apply(&DirOp::DeleteRow {
            object: 1,
            name: "x".into(),
        })
        .unwrap();
        assert!(m.names(1).is_empty());
    }

    #[test]
    fn replace_set_is_atomic() {
        let mut m = DirModel::new();
        m.apply(&DirOp::Create {
            columns: vec!["o".into()],
            check: 1,
        })
        .unwrap();
        m.apply(&DirOp::Append {
            object: 1,
            name: "a".into(),
            cap: cap(1),
            col_rights: vec![Rights::ALL],
        })
        .unwrap();
        // One bad item poisons the whole set.
        let r = m.apply(&DirOp::ReplaceSet {
            items: vec![(1, "a".into(), cap(5)), (1, "ghost".into(), cap(6))],
        });
        assert_eq!(r, Err(DirError::NoSuchName));
        assert_eq!(m.dir(1).unwrap().find("a").unwrap().cap.object, 1);
    }
}
