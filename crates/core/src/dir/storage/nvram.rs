//! The NVRAM commit path (paper §4.1): every applied op is logged to
//! NVRAM, which *is* its commit, and the log is applied to disk lazily
//! — when the device fills past its threshold or the server is idle.
//! An append whose matching delete is still in the log annihilates
//! with it, so neither ever costs a disk operation (the `/tmp` effect).

use amoeba_bullet::FileCap;
use amoeba_disk::{NvRecord, Nvram};
use amoeba_flip::wire::Wire;
use amoeba_flip::Payload;
use amoeba_sim::{Ctx, IdSet};

use super::Effect;
use crate::dir::{op_object, op_objects, Applier};
use crate::ops::DirOp;

/// An NVRAM record is the update seq, then the op as a byte string.
fn decode_nv_record(data: &[u8]) -> Option<(u64, DirOp)> {
    let (useq, op) = <(u64, Payload)>::decode(data).ok()?;
    Some((useq, DirOp::decode(&op).ok()?))
}

impl Applier {
    /// NVRAM commit path for one applied op: log it (and annihilate what
    /// the log no longer needs, §4.1). The group-commit flush is the
    /// log append itself — durable immediately, applied to disk lazily.
    /// `false` when the record does not fit even an empty device: the
    /// caller must then commit the op's `effects` in place.
    pub(crate) fn commit_nvram(
        &self,
        ctx: &Ctx,
        nvram: &Nvram,
        useq: u64,
        op: &DirOp,
        effects: &[Effect],
    ) -> bool {
        if let DirOp::Delete { object } = op {
            // Pending records of a deleted directory are moot, but the
            // delete itself must be logged. A record that also edits
            // another directory is not moot: it stays. Nor is the
            // create that made it: replay re-runs the allocator, so
            // every create must stay in the log to keep later objects
            // at their numbers.
            let _ = nvram.annihilate(|r| {
                r.tag == *object
                    && decode_nv_record(&r.data).is_some_and(|(_, op)| {
                        op_objects(&op).next().is_some() && op_objects(&op).all(|o| o == *object)
                    })
            });
        }
        // A create names no object before it is applied: its record is
        // tagged with the one it made (its effect's), so the flush
        // writes that directory.
        let tag = match (op_object(op), effects) {
            (0, [made, ..]) => made.object(),
            (tag, _) => tag,
        };
        // Every modification is logged (and charged) — then a
        // delete whose append is still in the log annihilates
        // *both* records, so neither ever costs a disk operation
        // (§4.1). The NVRAM write itself is still paid, which is
        // what bounds the paper's Fig. 9 at ~45 pairs/s.
        if !self.log_op(ctx, nvram, useq, tag, op) {
            return false;
        }
        if let DirOp::DeleteRow { object, name } = op {
            self.try_annihilate_pair(nvram, *object, name);
        }
        true
    }

    /// After a delete of (`object`, `name`) was logged: if the matching
    /// append is still in the log with no intervening record for the same
    /// row, remove both the append and the delete — neither will ever
    /// reach the disk (§4.1's `/tmp` effect).
    fn try_annihilate_pair(&self, nvram: &Nvram, object: u64, name: &str) {
        let records = nvram.snapshot();
        let mut append_uid: Option<u64> = None;
        let mut delete_uid: Option<u64> = None;
        for rec in records.iter().filter(|r| r.tag == object) {
            if let Some((_, op)) = decode_nv_record(&rec.data) {
                match &op {
                    DirOp::Append { name: n, .. } if n == name => {
                        append_uid = Some(rec.uid);
                        delete_uid = None;
                    }
                    DirOp::DeleteRow { name: n, .. } if n == name && append_uid.is_some() => {
                        delete_uid = Some(rec.uid);
                    }
                    DirOp::Chmod { name: n, .. } if n == name => {
                        append_uid = None;
                        delete_uid = None;
                    }
                    DirOp::ReplaceSet { items } if items.iter().any(|(_, n, _)| n == name) => {
                        append_uid = None;
                        delete_uid = None;
                    }
                    _ => {}
                }
            }
        }
        if let (Some(a), Some(d)) = (append_uid, delete_uid) {
            nvram.annihilate(|r| r.uid == a || r.uid == d);
        }
    }

    /// Logs one record; `false` if it does not fit even after a flush.
    fn log_op(&self, ctx: &Ctx, nvram: &Nvram, useq: u64, tag: u64, op: &DirOp) -> bool {
        let uid = {
            let mut shared = self.shared.borrow_mut();
            let uid = shared.next_nv_uid;
            shared.next_nv_uid += 1;
            uid
        };
        let rec = NvRecord {
            uid,
            tag,
            data: (useq, op.encode()).encode().to_vec(),
        };
        if nvram.append(ctx, rec.clone()).is_ok() {
            return true;
        }
        // Full: flush synchronously, then retry once.
        self.flush_nvram(ctx, nvram);
        nvram.append(ctx, rec).is_ok()
    }

    /// Applies logged records to disk and removes exactly those records.
    /// Runs after a batch that filled the device past its threshold,
    /// when the server is idle, and on demand when the device is full.
    pub(crate) fn flush_nvram(&self, ctx: &Ctx, nvram: &Nvram) {
        let records = nvram.snapshot();
        if records.is_empty() {
            return;
        }
        // The newest state per object is already in RAM; write each
        // directory a record edits or made once, at its current version
        // (a create names none: its tag is the directory it made).
        let mut dirty: Vec<u64> = Vec::new();
        for r in &records {
            if let Some((_, op)) = decode_nv_record(&r.data) {
                dirty.extend(op_objects(&op).chain(Some(r.tag).filter(|&t| t != 0)));
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        for object in dirty {
            let dir = { self.shared.borrow_mut().cache.get(&object).cloned() };
            let live = { self.shared.borrow_mut().table.get(object).is_some() };
            let effect = match (dir, live) {
                (Some(dir), true) => Effect::StoreDir { object, dir },
                // Deleted since: persist the cleared entry + commit.
                _ => Effect::DropDir {
                    object,
                    old_file: FileCap::NULL,
                },
            };
            self.perform_disk(ctx, effect);
        }
        // Every directory the records touched is on disk: remove exactly
        // the processed records.
        let ids: IdSet<u64> = records.iter().map(|r| r.uid).collect();
        let _ = nvram.annihilate(|r| ids.contains(&r.uid));
    }

    /// Boot's half of the NVRAM path: replays its records into RAM
    /// state after a reboot (records stay in the device for the
    /// flusher). Returns the highest update seq.
    ///
    /// Creates re-run the deterministic allocator (their tag serves only
    /// the flush), so a replayed create lands on the same object number
    /// it had originally.
    pub(crate) fn replay_nvram(&self, ctx: &Ctx, nvram: &Nvram) -> u64 {
        let mut max_seq = 0;
        for rec in nvram.snapshot() {
            if let Some((useq, op)) = decode_nv_record(&rec.data) {
                // For ops against directories not yet cached, pull the
                // on-disk versions first so the mutation applies cleanly.
                self.preload_for(ctx, &op);
                let mut shared = self.shared.borrow_mut();
                let _ = self.plan(&mut shared, &op, Some(useq), false);
                max_seq = max_seq.max(useq);
            }
        }
        max_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_testkit::{hex, unhex};

    #[test]
    fn an_nvram_record_keeps_its_bytes() {
        // The update seq, then the op as a byte string.
        let golden = "050000000000000009000000020400000000000000";
        let delete = DirOp::Delete { object: 4 };
        assert_eq!(hex(&(5u64, delete.encode()).encode()), golden);
        assert_eq!(decode_nv_record(&unhex(golden)), Some((5, delete)));
        let trailing = [&unhex(golden)[..], &[0]].concat();
        assert_eq!(decode_nv_record(&trailing), None, "a byte too many");
    }
}
