//! The storage paths, one file per [`StorageKind`](crate::StorageKind):
//! `in_place.rs` (paper §3.1, and the table and commit block every
//! path boots from), `journal.rs` (the group log) and `nvram.rs`
//! (§4.1). Each owns its commit, flush, replay and boot;
//! [`DirectoryStateMachine`](super::DirectoryStateMachine) picks one
//! per hook.

use amoeba_bullet::FileCap;
use amoeba_sim::IdMap;

use super::Effect;

mod in_place;
mod journal;
mod nvram;

pub(super) use journal::CkptState;

/// The final per-object disk work of one batch: each object's last
/// effect in batch order, the pre-batch files that a later effect of
/// the batch superseded (a directory deleted, then re-created), and
/// whether the batch lost a file, so the commit block must record it.
fn coalesce(effects: Vec<Effect>) -> (Vec<Effect>, Vec<FileCap>, bool) {
    let mut last: IdMap<u64, usize> = IdMap::default();
    for (i, e) in effects.iter().enumerate() {
        last.insert(e.object(), i);
    }
    let mut acts = Vec::new();
    let mut frees = Vec::new();
    let mut need_commit = false;
    for (i, e) in effects.into_iter().enumerate() {
        let is_final = last.get(&e.object()) == Some(&i);
        // A delete loses its file: the commit block must record the
        // update. Non-final stores
        // are pure coalescing wins: the object's later state supersedes
        // them and their Bullet file was never created.
        if let Effect::DropDir { old_file, .. } = &e {
            need_commit = true;
            if !is_final && !old_file.is_null() {
                frees.push(*old_file);
            }
        }
        if is_final {
            acts.push(e);
        }
    }
    (acts, frees, need_commit)
}
