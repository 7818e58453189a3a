//! The directory machine, one file per role. A directory server is a
//! deterministic apply over the group's total order plus a storage
//! path (paper §3, §4.1); the two halves live apart:
//!
//! | file | role |
//! |---|---|
//! | `state.rs` | [`Shared`], the replicated state and its leases |
//! | `plan.rs` | the pure planner ([`Applier::plan`]): an op and `Shared` in, the new state, its [`Effect`]s and the reply out; no clock, no device |
//! | `read.rs` | reads, the read rule ([`Applier::settle`]) and leases |
//! | `storage/` | one file per [`StorageKind`](crate::StorageKind), each owning its commit, flush, replay and boot |
//! | `machine.rs` | [`DirectoryStateMachine`]: the `StateMachine` impl, which holds the column's [`Storage`](crate::Storage) and matches it once per hook, and the snapshot |
//!
//! This file holds the [`Applier`] every server shares and the
//! initiator's translation of a write into its op.

use std::cell::RefCell;
use std::rc::Rc;

use amoeba_bullet::BulletClient;
use amoeba_disk::RawPartition;
use amoeba_flip::wire::{Counted, Wire};
use amoeba_sim::Ctx;

use crate::config::{DirParams, ServiceConfig};
use crate::directory::Directory;
use crate::object_table::ObjectTable;
use crate::ops::{DirError, DirOp, DirRequest};
use crate::rights::Rights;

mod machine;
mod plan;
mod read;
mod state;
mod storage;

pub use machine::DirectoryStateMachine;
pub(crate) use plan::Effect;
pub(crate) use read::ReadAt;
pub(crate) use state::{validate_dir_cap, ReadLease, Shared};

/// Everything a server needs to validate and apply operations.
pub(crate) struct Applier {
    pub cfg: ServiceConfig,
    pub shared: Rc<RefCell<Shared>>,
    pub bullet: BulletClient,
    pub partition: RawPartition,
    /// Upper bound on granted read-lease durations, in simulated
    /// microseconds ([`crate::config::DirParams::max_lease`]): bounds
    /// how long a write can stall on an unreachable lease holder.
    pub max_lease_us: u64,
}

impl std::fmt::Debug for Applier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Applier(server {})", self.cfg.me)
    }
}

/// The count of a journal record's acts and of each snapshot section:
/// at most 1,000,000.
const ENTRIES: Counted = Counted::u32(1_000_000, "entries");

/// The object an op concerns, 0 for a create (which names none before
/// it is applied). A `ReplaceSet` names its first item's.
pub(crate) fn op_object(op: &DirOp) -> u64 {
    match op {
        DirOp::Create { .. } => 0,
        DirOp::Delete { object }
        | DirOp::Append { object, .. }
        | DirOp::Chmod { object, .. }
        | DirOp::DeleteRow { object, .. } => *object,
        DirOp::GrantRead { cap, .. } => cap.object,
        DirOp::ReplaceSet { items } => items.first().map(|(o, _, _)| *o).unwrap_or(0),
    }
}

/// Every directory an op concerns: each item's of a `ReplaceSet`, else
/// the one [`op_object`] names (none for a create).
pub(crate) fn op_objects(op: &DirOp) -> impl Iterator<Item = u64> + '_ {
    let (items, one) = match op {
        DirOp::ReplaceSet { items } => (&items[..], None),
        other => (&[][..], Some(op_object(other)).filter(|&o| o != 0)),
    };
    items.iter().map(|(o, _, _)| *o).chain(one)
}

impl Applier {
    /// An applier over cold RAM state: an empty object table on `partition`.
    pub fn new(
        cfg: ServiceConfig,
        params: &DirParams,
        bullet: BulletClient,
        partition: RawPartition,
    ) -> Applier {
        let table = ObjectTable::new(partition.clone());
        let shared = Rc::new(RefCell::new(Shared::new(table, cfg.n)));
        Applier {
            cfg,
            shared,
            bullet,
            partition,
            max_lease_us: params.max_lease.as_micros() as u64,
        }
    }

    /// Fetches a directory's current version: RAM cache, else its
    /// Bullet file.
    pub fn load_dir(&self, ctx: &Ctx, object: u64) -> Result<Rc<Directory>, DirError> {
        let entry = {
            let shared = self.shared.borrow();
            if let Some(d) = shared.cache.get(&object) {
                return Ok(Rc::clone(d));
            }
            shared.table.get(object).ok_or(DirError::BadCapability)?
        };
        let bytes = self
            .bullet
            .read(ctx, entry.file_cap)
            .map_err(|_| DirError::Internal)?;
        let dir = Rc::new(Directory::decode_shared(&bytes).map_err(|_| DirError::Internal)?);
        let mut shared = self.shared.borrow_mut();
        shared.cache.insert(object, Rc::clone(&dir));
        Ok(dir)
    }

    /// Pre-loads the directories `op` touches into the RAM cache
    /// (Bullet reads must happen outside the borrow; after a reboot the
    /// cache starts cold), so the planner finds them there.
    pub(crate) fn preload_for(&self, ctx: &Ctx, op: &DirOp) {
        for object in op_objects(op) {
            let _ = self.load_dir(ctx, object);
        }
    }

    /// Initiator-side validation and translation of a client write into
    /// the replicated op (paper: the check field for a create is chosen
    /// here).
    pub fn prepare_write(&self, ctx: &Ctx, req: &DirRequest) -> Result<DirOp, DirError> {
        let shared = self.shared.borrow();
        let port = self.cfg.public_port;
        let modify = |dir| validate_dir_cap(&shared, port, dir, Rights::MODIFY);
        let check = || ctx.with_rng(|r| r.next_u64()) | 1;
        match req {
            DirRequest::CreateDir { columns } => {
                if !(1..=4).contains(&columns.len()) {
                    return Err(DirError::Malformed);
                }
                Ok(DirOp::Create {
                    columns: columns.clone(),
                    check: check(),
                })
            }
            DirRequest::DeleteDir { cap } => {
                let object = validate_dir_cap(&shared, port, cap, Rights::ADMIN)?;
                Ok(DirOp::Delete { object })
            }
            DirRequest::AppendRow {
                dir,
                name,
                cap,
                col_rights,
            } => Ok(DirOp::Append {
                object: modify(dir)?,
                name: name.clone(),
                cap: *cap,
                col_rights: col_rights.clone(),
            }),
            DirRequest::ChmodRow {
                dir,
                name,
                col_rights,
            } => Ok(DirOp::Chmod {
                object: modify(dir)?,
                name: name.clone(),
                col_rights: col_rights.clone(),
            }),
            DirRequest::DeleteRow { dir, name } => Ok(DirOp::DeleteRow {
                object: modify(dir)?,
                name: name.clone(),
            }),
            DirRequest::ReplaceSet { items } => {
                let items = items
                    .iter()
                    .map(|(dir, name, cap)| Ok((modify(dir)?, name.clone(), *cap)))
                    .collect::<Result<_, DirError>>()?;
                Ok(DirOp::ReplaceSet { items })
            }
            // A lease is the group service's alone (only its initiators
            // fence revocation): see [`prepare_grant`](Self::prepare_grant).
            DirRequest::FetchDir { .. }
            | DirRequest::ListDir { .. }
            | DirRequest::LookupSet { .. } => Err(DirError::Malformed),
        }
    }
}
