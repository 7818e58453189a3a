//! The pure planner: paxos-rs's `ReplicatedState::execute(slot,
//! command)` in this service's terms. [`Applier::plan`] takes an op and
//! the replicated state, edits the state, and returns the reply and the
//! storage [`Effect`]s the op owes. It reads directories only from the
//! RAM cache (which `preload_for` fills first), never a clock or a
//! device, so every replica that runs it on the same state in the same
//! order reaches the same state.

use std::collections::BTreeMap;
use std::rc::Rc;

use amoeba_bullet::FileCap;
use amoeba_flip::wire::Wire;
use amoeba_flip::Payload;

use super::state::{validate_dir_cap, ReadLease, Shared, LEASE_RENEWALS};
use super::Applier;
use crate::capability::Capability;
use crate::directory::Directory;
use crate::object_table::ObjEntry;
use crate::ops::{DirError, DirOp, DirReply};
use crate::rights::Rights;

/// Storage effects produced by the deterministic plan phase.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Persist this version (the one the RAM cache holds).
    StoreDir {
        object: u64,
        dir: Rc<Directory>,
    },
    DropDir {
        object: u64,
        old_file: FileCap,
    },
}

impl Effect {
    /// The object the effect concerns.
    pub(crate) fn object(&self) -> u64 {
        match self {
            Effect::StoreDir { object, .. } | Effect::DropDir { object, .. } => *object,
        }
    }
}

/// A planned update: its reply and its storage effects.
type Update = (DirReply, Vec<Effect>);

/// The one directory and row a row edit changes: the three ops that
/// edit a single row in place.
pub(crate) fn row_edit(op: &DirOp) -> Option<(u64, &str)> {
    match op {
        DirOp::Append { object, name, .. }
        | DirOp::Chmod { object, name, .. }
        | DirOp::DeleteRow { object, name } => Some((*object, name)),
        _ => None,
    }
}

/// A new, empty directory with `columns`, which must number 1 to 4.
fn new_directory(columns: &[String]) -> Result<Rc<Directory>, DirError> {
    if !(1..=4).contains(&columns.len()) {
        return Err(DirError::Malformed);
    }
    Ok(Rc::new(Directory::new(columns.to_vec())))
}

/// Publishes `dir` — the copy an update just edited, or a freshly built
/// directory — as `object`'s next version: stamped with the update's
/// seq, installed in the RAM cache, and handed to the disk path by the
/// returned effect. All three hold the same allocation.
fn publish(shared: &mut Shared, object: u64, mut dir: Rc<Directory>, useq: u64) -> Effect {
    Rc::make_mut(&mut dir).seqno = useq;
    shared.cache.insert(object, Rc::clone(&dir));
    Effect::StoreDir { object, dir }
}

/// A directory's current version for planning: the RAM cache is
/// authoritative during normal operation (it was populated at
/// recovery/apply time). Shared, not copied — an edit goes through
/// [`Rc::make_mut`], which makes the update's one copy.
fn dir_for_plan(shared: &Shared, object: u64) -> Result<Rc<Directory>, DirError> {
    if shared.table.get(object).is_none() {
        return Err(DirError::BadCapability);
    }
    shared.cache.get(&object).cloned().ok_or(DirError::Internal)
}

impl Applier {
    /// Computes the new state and storage effects for `op`, and the
    /// encoded answer its initiator is owed. Must be deterministic: every
    /// replica runs this on the same state in the same order.
    /// `forced_seq` pins the update seq during NVRAM replay.
    ///
    /// `reply == false` is the caller's promise that nobody reads the
    /// answer (a replica that did not initiate the op, a replay): it is
    /// then empty, and nothing is encoded. Nothing else may depend on
    /// the flag. A grant answers `Ok`: its initiator builds the holder's
    /// answer itself ([`lease_answer`](Applier::lease_answer)).
    pub(crate) fn plan(
        &self,
        shared: &mut Shared,
        op: &DirOp,
        forced_seq: Option<u64>,
        reply: bool,
    ) -> Result<(Payload, Vec<Effect>, u64), DirError> {
        let useq = match forced_seq {
            Some(s) => {
                shared.update_seq = shared.update_seq.max(s);
                s
            }
            None => {
                shared.update_seq += 1;
                shared.update_seq
            }
        };
        let answer = |reply_to: DirReply| {
            if reply {
                reply_to.encode()
            } else {
                Payload::empty()
            }
        };
        if let DirOp::GrantRead {
            cap,
            owner,
            cb_port,
            now_us,
            deadline_us,
        } = op
        {
            let object = validate_dir_cap(shared, self.cfg.public_port, cap, Rights::NONE)?;
            if !cap.rights.sees_any_column() {
                return Err(DirError::NoPermission);
            }
            dir_for_plan(shared, object)?;
            // Prune expired holders deterministically (the op carries
            // the initiator's clock), then upsert this holder's lease.
            let leases = shared.rleases.entry(object).or_default();
            leases.retain(|l| l.deadline_us > *now_us && l.owner != *owner);
            leases.push(ReadLease {
                owner: *owner,
                cb_port: *cb_port,
                deadline_us: *deadline_us,
                ttl_us: deadline_us.saturating_sub(*now_us),
                renewals_left: LEASE_RENEWALS,
            });
            return Ok((answer(DirReply::Ok), Vec::new(), useq));
        }
        let (reply_to, effects) = self.plan_update(shared, op, useq)?;
        Ok((answer(reply_to), effects, useq))
    }

    /// [`plan`](Applier::plan) for every op but a grant: the state change,
    /// its storage effects and the reply.
    fn plan_update(&self, shared: &mut Shared, op: &DirOp, useq: u64) -> Result<Update, DirError> {
        if let Some((object, name)) = row_edit(op) {
            return plan_row_edit(shared, op, object, name, useq);
        }
        match op {
            DirOp::Create { columns, check } => {
                let dir = new_directory(columns)?;
                let object = shared.table.next_object();
                if object > shared.table.capacity() {
                    return Err(DirError::Internal);
                }
                let stored = publish(shared, object, dir, useq);
                shared.table.set(
                    object,
                    ObjEntry {
                        file_cap: FileCap::NULL, // patched by the effect
                        seqno: useq,
                        check: *check,
                    },
                );
                let cap = Capability::owner(self.cfg.public_port, object, *check);
                Ok((DirReply::Cap(cap), vec![stored]))
            }
            DirOp::Delete { object } => {
                let entry = shared.table.get(*object).ok_or(DirError::BadCapability)?;
                shared.table.clear(*object);
                shared.cache.remove(object);
                shared.commit.seqno = useq;
                let dropped = Effect::DropDir {
                    object: *object,
                    old_file: entry.file_cap,
                };
                Ok((DirReply::Ok, vec![dropped]))
            }
            DirOp::ReplaceSet { items } => {
                // Indivisible: validate everything, then mutate. Each
                // directory is published once, in object order.
                let mut dirs: BTreeMap<u64, Rc<Directory>> = BTreeMap::new();
                for (object, name, _) in items {
                    if !dirs.contains_key(object) {
                        dirs.insert(*object, dir_for_plan(shared, *object)?);
                    }
                    if dirs[object].find(name).is_none() {
                        return Err(DirError::NoSuchName);
                    }
                }
                for (object, name, cap) in items {
                    // Copies each directory at its first replacement only.
                    let dir = Rc::make_mut(dirs.get_mut(object).expect("validated above"));
                    dir.replace_cap(name, *cap).expect("validated above");
                }
                let effects = dirs
                    .into_iter()
                    .map(|(object, dir)| publish(shared, object, dir, useq))
                    .collect();
                Ok((DirReply::Ok, effects))
            }
            // Row edits are planned above, and a grant by `plan` itself.
            _ => unreachable!("a row edit or a grant"),
        }
    }
}

/// The one path of the three row edits ([`row_edit`]): the directory's
/// current version, the op's edit of the row `name` in its one copy
/// (whose row list is allocated at its final length), and the copy
/// published.
fn plan_row_edit(
    shared: &mut Shared,
    op: &DirOp,
    object: u64,
    name: &str,
    useq: u64,
) -> Result<Update, DirError> {
    let dir = dir_for_plan(shared, object)?;
    let appends = matches!(op, DirOp::Append { .. });
    let mut edit = dir.edit_copy(usize::from(appends));
    match op {
        DirOp::Append {
            cap, col_rights, ..
        } => edit.append_row(name, *cap, col_rights),
        DirOp::Chmod { col_rights, .. } => edit.chmod_row(name, col_rights),
        _ => edit.delete_row(name),
    }?;
    Ok((
        DirReply::Ok,
        vec![publish(shared, object, Rc::new(edit), useq)],
    ))
}
