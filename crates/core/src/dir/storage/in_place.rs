//! The paper's in-place commit (§3.1): each update writes a new Bullet
//! file and the object-table block that points at it, and a lost file
//! (a delete) writes the commit block. Every storage
//! kind boots from the table and commit block this path keeps.

use amoeba_flip::wire::Wire;
use amoeba_sim::Ctx;

use super::{coalesce, Effect};
use crate::commit_block::CommitBlock;
use crate::dir::Applier;
use crate::directory::Directory;
use crate::object_table::ObjectTable;

impl Applier {
    /// Disk-path storage effect, committed on its own (a server without
    /// batches: the RPC service, an NVRAM flush).
    pub(crate) fn perform_disk(&self, ctx: &Ctx, effect: Effect) {
        self.write_effect(ctx, effect, true);
    }

    /// Writes one effect in place. A deleted directory persists its
    /// cleared table entry, then, if `own_commit`, records the update in
    /// the commit block (the op loses its file, §3), and frees the
    /// Bullet file. Enqueue under the borrow, wait outside it.
    fn write_effect(&self, ctx: &Ctx, effect: Effect, own_commit: bool) {
        match effect {
            Effect::StoreDir { object, dir } => self.store_dir_to_disk(ctx, object, &dir),
            Effect::DropDir { object, old_file } => {
                let waiter = { self.shared.borrow_mut().table.flush_begin(ctx, object) };
                if let Some(w) = waiter {
                    w.recv(ctx);
                }
                if own_commit {
                    let cb = { self.shared.borrow_mut().commit.clone() };
                    cb.write(&self.partition, ctx);
                }
                if !old_file.is_null() {
                    let _ = self.bullet.delete(ctx, old_file);
                }
            }
        }
    }

    /// Disk path: new Bullet file + one object-table write (the paper's
    /// two disk operations per update).
    pub(crate) fn store_dir_to_disk(&self, ctx: &Ctx, object: u64, dir: &Directory) {
        let old = { self.shared.borrow_mut().table.get(object) };
        let new_file = match self.bullet.create(ctx, dir.encode()) {
            Ok(cap) => cap,
            Err(_) => return, // storage column down; recovery will resync
        };
        let waiter = {
            let mut shared = self.shared.borrow_mut();
            match shared.table.get(object) {
                Some(mut entry) => {
                    entry.file_cap = new_file;
                    entry.seqno = dir.seqno;
                    shared.table.set(object, entry);
                    shared.table.flush_begin(ctx, object)
                }
                None => None,
            }
        };
        if let Some(w) = waiter {
            w.recv(ctx);
        }
        // "remove old Bullet files" — after the commit.
        if let Some(old) = old {
            if !old.file_cap.is_null() && old.file_cap != new_file {
                let _ = self.bullet.delete(ctx, old.file_cap);
            }
        }
    }

    /// The paper's in-place commit of a batch's `effects`: each object's
    /// final directory and table block written where it lives, and the
    /// commit block once for the batch.
    pub(crate) fn write_in_place(&self, ctx: &Ctx, effects: Vec<Effect>) {
        if effects.is_empty() {
            return;
        }
        let (acts, frees, need_commit) = coalesce(effects);
        // A multi-object batch cannot be flushed atomically: guard it
        // with the commit block's `recovering` flag so a crash mid-way
        // voids this replica's state instead of exposing a hole.
        let guard = acts.len() > 1;
        if guard {
            let cb = {
                let mut shared = self.shared.borrow_mut();
                shared.commit.recovering = true;
                shared.commit.clone()
            };
            cb.write(&self.partition, ctx);
        }
        for act in acts {
            self.write_effect(ctx, act, false);
        }
        for f in frees {
            let _ = self.bullet.delete(ctx, f);
        }
        if guard || need_commit {
            let cb = {
                let mut shared = self.shared.borrow_mut();
                shared.commit.recovering = false;
                if guard {
                    // Completing a guarded flush closes one generation:
                    // the epoch stamp is what lets a future boot tell
                    // "crashed inside a flush of committed ops"
                    // (salvageable prefix) from "crashed copying a
                    // peer's state" (worthless mixture).
                    shared.commit.epoch += 1;
                }
                shared.commit.clone()
            };
            cb.write(&self.partition, ctx);
        }
    }

    /// Boot's common half: loads the commit block and the object table
    /// and sets the update seq they claim. Returns whether the state is
    /// worthless (a crash while copying a peer's).
    pub(crate) fn boot_in_place(&self, ctx: &Ctx) -> bool {
        let n = self.cfg.n;
        let commit =
            CommitBlock::read(&self.partition, ctx, n).unwrap_or_else(|| CommitBlock::initial(n));
        let table = ObjectTable::load(self.partition.clone(), ctx);
        let table_seq = table.max_seqno();
        let worthless = commit.recovering && commit.epoch == 0;
        let mut shared = self.shared.borrow_mut();
        shared.table = table;
        if worthless {
            // Crashed during a previous recovery's copy phase: the
            // state may mix two replicas' histories — worthless (§3).
            shared.update_seq = 0;
        } else if commit.recovering {
            // Crashed inside a guarded group-commit flush. Every op of
            // that batch was globally ordered and accepted, and each
            // object's durable state is individually consistent, so the
            // disk holds a salvageable *best-effort subset*: the objects
            // stored before the crash carry their post-batch state, the
            // rest their pre-batch state. The claim is the highest seqno
            // any stored directory carries (not the commit block's,
            // which the guard write may have advanced past the
            // unfinished drops). This deliberately over-claims sibling
            // ops of the same window that were not yet stored — if
            // every replica died in that window, the election's winner
            // may lack an op another salvaged replica holds. That is
            // the accepted price of disaster recovery: any salvage
            // loses at most parts of the one in-flight batch, where the
            // old rule (state worthless) lost the entire store.
            shared.update_seq = table_seq;
        } else {
            shared.update_seq = table_seq.max(commit.seqno);
        }
        shared.commit = commit;
        shared.commit.recovering = false;
        worthless
    }
}
