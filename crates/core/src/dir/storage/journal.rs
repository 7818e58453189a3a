//! The group log ([`StorageKind::Journal`](crate::StorageKind::Journal)).
//!
//! Instead of writing a batch's Bullet files and table blocks in place
//! (at least a seek per object), `flush` seals the batch's final acts —
//! directory contents, table checks, the commit seqno as of this batch,
//! captured right after its applies into a [`StagedBatch`] — encodes
//! them as one self-delimiting, checksummed **journal record**
//! ([`amoeba_disk::Journal`]) and appends it to the disk's reserved
//! journal region as a single sequential conversation, ~1 seek per
//! batch. The record's last frame is the commit point: once the append
//! returns, every op of the batch is durable and its initiators may be
//! woken.
//!
//! The table writeback moves off the commit path entirely. Each
//! journaled act also lands in a RAM **dirty set** (per object,
//! last-wins — interim versions are never written back), which the
//! driver's background checkpointer drains every `checkpoint_interval`
//! (the variant's) into real Bullet/table blocks and then advances the
//! journal's tail. The drain replays the acts against the object
//! table's **durable mirror** (exactly what is on disk), so its
//! table-block writes never leak the RAM state running ahead of them
//! and its deletions free the *durable* predecessor file, and it is
//! region-phased: every Bullet create back-to-back, then each
//! *distinct* touched table block exactly once, then the commit block
//! if a covered batch lost a file, then metadata-only frees. The
//! ordering invariants that make a crash at any yield point safe:
//!
//! 1. `journal_commit` inserts a batch's acts into the dirty set
//!    **before** appending its record, and a checkpoint reads its reset
//!    mark ([`Journal::next_seq`](amoeba_disk::Journal::next_seq))
//!    **before** snapshotting the dirty set — so the tail can only ever
//!    advance past records whose acts the drained snapshot held.
//! 2. The tail advance
//!    ([`Journal::try_reset`](amoeba_disk::Journal::try_reset)) runs
//!    strictly **after** the drained acts are durable in Bullet,
//!    table and commit block. A crash mid-checkpoint leaves every
//!    uncovered record in the journal, and replay is idempotent (acts
//!    are absolute object states, not deltas) — at worst a Bullet
//!    file leaks.
//! 3. Boot replays surviving records, oldest first, into RAM state
//!    *after* the usual table salvage, and re-enters their acts into
//!    the dirty set so the next checkpoint persists them. A torn tail
//!    record truncates at its first bad checksum and loses nothing
//!    acknowledged — its append never returned, so no initiator was
//!    woken.
//! 4. A **full journal** backpressures by running the checkpoint
//!    inline: the failed batch's acts are already in the dirty set
//!    (invariant 1), so the inline drain makes them durable the
//!    in-place way and the commit holds without a journal record.
//!
//! The multi-object `recovering` guard is not used on this path:
//! journal replay reconstructs any batch a crash interrupted, which is
//! exactly the hole the guard existed to void.

use std::rc::Rc;

use amoeba_bullet::FileCap;
use amoeba_disk::Journal;
use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_sim::{Ctx, IdMap};

use super::{coalesce, Effect};
use crate::dir::{DirectoryStateMachine, ENTRIES};
use crate::directory::Directory;
use crate::object_table::ObjEntry;

/// Journal-path state. The `busy` flag is the checkpoint's sim-safe
/// exclusion — sleep-polled, never an OS mutex held across disk I/O —
/// because a drain can run from the driver's background checkpointer
/// process, inline on journal-full backpressure, *and* must be
/// quiescent before recovery's copy/install writes the disk.
#[derive(Default)]
pub(crate) struct CkptState {
    /// Per-object final act of every journaled-but-not-yet-checkpointed
    /// batch (last-wins: interim versions are never written back).
    dirty: IdMap<u64, StagedAct>,
    /// Highest sealed commit seqno the dirty set covers; the
    /// checkpoint's commit-block write carries it.
    covered_seqno: u64,
    /// Whether any covered batch lost a file (a delete).
    need_commit: bool,
    /// A checkpoint drain is in flight.
    busy: bool,
}

/// One journaled batch's durable work, sealed by `seal_acts` in `flush`
/// right after the batch's applies: what its journal record encodes,
/// and — merged per object in the dirty set — what a checkpoint drains.
struct StagedBatch {
    acts: Vec<(u64, StagedAct)>,
    /// `Shared::commit.seqno` as of the end of this batch's applies:
    /// the seqno the checkpoint's commit-block write carries. The
    /// checkpointer runs beside the event loop, so the live value may
    /// already cover later batches that are not in the drained set.
    commit_seqno: u64,
    /// Whether the batch lost a file (a delete), so its
    /// checkpoint must write the commit block.
    need_commit: bool,
}

/// A final [`Effect`], self-contained: the check/seqno a table write
/// needs are captured at seal time (exact — seal runs synchronously
/// after the batch's applies), and old-file capabilities are *not*
/// carried — the checkpoint frees whatever the durable mirror says is
/// the object's current on-disk file. The journal record's act.
enum StagedAct {
    Store { dir: Rc<Directory>, check: u64 },
    Drop,
}

/// The journal record of one batch: `u64 commit_seqno, u32
/// need_commit`, then the counted acts, each `u64 object` and its act.
/// Acts are absolute final states, so replaying a record any number of
/// times is idempotent.
impl Wire for StagedBatch {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.commit_seqno).u32(u32::from(self.need_commit));
        ENTRIES.put(w, &self.acts, <(u64, StagedAct)>::put);
    }

    fn get(r: &mut WireReader<'_>) -> Result<StagedBatch, DecodeError> {
        Ok(StagedBatch {
            commit_seqno: r.u64("commit seqno")?,
            need_commit: r.u32("need commit")? != 0,
            acts: ENTRIES.get(r, <(u64, StagedAct)>::get)?,
        })
    }
}

impl StagedAct {
    /// The table entry the act leaves, its contents in `file_cap`;
    /// `None` for a drop.
    fn entry(&self, file_cap: FileCap) -> Option<ObjEntry> {
        match *self {
            StagedAct::Store { ref dir, check } => Some(ObjEntry {
                file_cap,
                seqno: dir.seqno,
                check,
            }),
            StagedAct::Drop => None,
        }
    }
}

/// A `u32` kind, then 0 = Store (`u64 check` + the framed directory)
/// or 1 = Drop. Kind 2, the stub of a migrated directory, is retired
/// and refused.
impl Wire for StagedAct {
    fn put(&self, w: &mut WireWriter) {
        match self {
            StagedAct::Store { dir, check } => {
                w.u32(0).u64(*check);
                dir.put_framed(w);
            }
            StagedAct::Drop => {
                w.u32(1);
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<StagedAct, DecodeError> {
        Ok(match r.u32("act kind")? {
            0 => StagedAct::Store {
                check: r.u64("check")?,
                dir: Rc::new(Directory::get_framed(r)?),
            },
            1 => StagedAct::Drop,
            _ => return Err(DecodeError::new("act kind")),
        })
    }
}

impl DirectoryStateMachine {
    /// The journaled commit of the batch just applied: its final acts,
    /// sealed, appended as one record. `frees` (pre-batch file of a
    /// deleted-then-recreated object) is deliberately dropped: the
    /// checkpoint frees the durable mirror's file when it stores the
    /// recreation, which *is* that pre-batch file — carrying the list
    /// too would free it twice.
    pub(crate) fn commit_journaled(&self, ctx: &Ctx, journal: &Journal, effects: Vec<Effect>) {
        let (acts, _frees, need_commit) = coalesce(effects);
        self.journal_commit(ctx, journal, self.seal_acts(acts, need_commit));
    }

    /// The checkpoint's region-phased durable write-back of the drained
    /// acts — Bullet creates, mirror-tracked table blocks, the commit
    /// block when a covered batch lost a file, old-file frees — without
    /// any `recovering` bracket: journal replay covers its crashes.
    fn drain_acts(&self, ctx: &Ctx, batch: StagedBatch) {
        let applier = &self.applier;
        // Phase one — Bullet creates. The batch's new files are written
        // back-to-back, so the store's sequential allocation turns each
        // create after the first into a settled (seek-free) access on a
        // head-aware disk. Safe to run before the table writes: a file
        // nothing points at is just a leak for recovery to ignore.
        let mut resolved: Vec<(u64, Option<ObjEntry>)> = Vec::with_capacity(batch.acts.len());
        for (object, act) in batch.acts {
            let file_cap = match &act {
                // Err means the storage column is down; recovery
                // resyncs the object, so the act is just skipped.
                StagedAct::Store { dir, .. } => match applier.bullet.create(ctx, dir.encode()) {
                    Ok(file_cap) => file_cap,
                    Err(_) => continue,
                },
                _ => FileCap::NULL,
            };
            resolved.push((object, act.entry(file_cap)));
        }
        // Phase two — the object-table commit. All mirror mutations land
        // first, then every *distinct* touched block is written exactly
        // once: a batch of appends to directories sharing a table block
        // costs one block write instead of one per directory, and the
        // writes land on adjacent blocks.
        let (olds, waiters) = {
            let mut shared = applier.shared.borrow_mut();
            let mut olds: Vec<FileCap> = Vec::new();
            let mut blocks: Vec<u64> = Vec::new();
            for (object, entry) in &resolved {
                let old = shared.table.durable_get(*object);
                match entry {
                    Some(entry) => shared.table.durable_set(*object, *entry),
                    None => shared.table.durable_clear(*object),
                }
                // Recreation over the same file is no free.
                let kept = entry.map(|e| e.file_cap);
                if let Some(old) = old {
                    if !old.file_cap.is_null() && kept != Some(old.file_cap) {
                        olds.push(old.file_cap);
                    }
                }
                if let Some(b) = shared.table.block_of(*object) {
                    if !blocks.contains(&b) {
                        blocks.push(b);
                    }
                }
            }
            let waiters: Vec<_> = blocks
                .into_iter()
                .filter_map(|b| shared.table.durable_flush_block_begin(ctx, b))
                .collect();
            (olds, waiters)
        };
        for w in waiters {
            w.recv(ctx);
        }
        if batch.need_commit {
            let cb = {
                let shared = applier.shared.borrow();
                let mut cb = shared.commit.clone();
                cb.recovering = false;
                cb.seqno = batch.commit_seqno;
                cb
            };
            cb.write(&applier.partition, ctx);
        }
        // Phase three — free the files the batch superseded, now that
        // the table durably points past them. Deletes are metadata-only
        // on the Bullet server (no disk access); doing them last means
        // a crash leaks a file at worst, never dangles a capability.
        for f in olds {
            let _ = applier.bullet.delete(ctx, f);
        }
    }

    /// Captures coalesced final effects as a sealed batch: directory
    /// contents, table checks, and the commit seqno as of now (exact —
    /// callers run synchronously after the batch's applies).
    fn seal_acts(&self, acts: Vec<Effect>, need_commit: bool) -> StagedBatch {
        let shared = self.applier.shared.borrow();
        let acts = acts
            .into_iter()
            .map(|act| {
                let object = act.object();
                let check = shared.table.get(object).map(|e| e.check).unwrap_or(0);
                let staged = match act {
                    Effect::StoreDir { dir, .. } => StagedAct::Store { dir, check },
                    Effect::DropDir { .. } => StagedAct::Drop,
                };
                (object, staged)
            })
            .collect();
        StagedBatch {
            acts,
            commit_seqno: shared.commit.seqno,
            need_commit,
        }
    }

    /// The journaled commit: one sequential record append *is* the
    /// durable group commit of the batch. The acts enter the
    /// dirty set strictly before the append, so a concurrent
    /// checkpoint's tail advance can never outrun them (invariant 1).
    fn journal_commit(&self, ctx: &Ctx, journal: &Journal, batch: StagedBatch) {
        if batch.acts.is_empty() {
            return;
        }
        let record = batch.encode();
        {
            let mut ckpt = self.ckpt.borrow_mut();
            ckpt.covered_seqno = ckpt.covered_seqno.max(batch.commit_seqno);
            ckpt.need_commit |= batch.need_commit;
            for (object, act) in batch.acts {
                ckpt.dirty.insert(object, act);
            }
        }
        match journal.append(ctx, &record) {
            Ok(_) => {
                let tele = amoeba_telemetry::Telemetry::from_handle(&ctx.handle());
                tele.gauge("dir.journal.depth", journal.depth() as i64);
            }
            Err(amoeba_disk::JournalFull) => {
                // Backpressure: drain the dirty set — which already
                // holds this batch (invariant 1) — durably the in-place
                // way. The batch commits through the checkpoint itself;
                // no record, and no append retry, is needed.
                self.run_checkpoint(ctx, journal);
            }
        }
    }

    /// Acquires the checkpoint drain's sleep-polled exclusion flag.
    fn ckpt_acquire(&self, ctx: &Ctx) {
        loop {
            {
                let mut ckpt = self.ckpt.borrow_mut();
                if !ckpt.busy {
                    ckpt.busy = true;
                    return;
                }
            }
            ctx.sleep(std::time::Duration::from_micros(100));
        }
    }

    fn ckpt_release(&self) {
        self.ckpt.borrow_mut().busy = false;
    }

    /// Waits out any in-flight checkpoint drain, so that its
    /// commit-block write cannot land after (and clobber) a recovery's
    /// worthless mark. No new drain can start until the replica is back
    /// in normal operation, so the flag is released right away.
    pub(crate) fn quiesce_checkpoint(&self, ctx: &Ctx) {
        self.ckpt_acquire(ctx);
        self.ckpt_release();
    }

    /// One checkpoint pass: snapshot the dirty set, write it back into
    /// real Bullet/table blocks (+ commit block when a covered batch
    /// lost a file), then advance the journal's tail — iff no record
    /// arrived since the mark. A failed tail advance is benign: the
    /// drained records' replay is idempotent, and the next pass covers
    /// the newcomers.
    pub(crate) fn run_checkpoint(&self, ctx: &Ctx, journal: &Journal) {
        self.ckpt_acquire(ctx);
        // Mark before dirty snapshot (invariant 1).
        let mark = journal.next_seq();
        let batch = {
            let mut ckpt = self.ckpt.borrow_mut();
            let mut acts: Vec<(u64, StagedAct)> =
                std::mem::take(&mut ckpt.dirty).into_iter().collect();
            acts.sort_unstable_by_key(|&(o, _)| o);
            StagedBatch {
                acts,
                commit_seqno: ckpt.covered_seqno,
                need_commit: std::mem::take(&mut ckpt.need_commit),
            }
        };
        if !batch.acts.is_empty() {
            self.drain_acts(ctx, batch);
        }
        // Tail advance strictly after the write-back is durable
        // (invariant 2).
        let _ = journal.try_reset(ctx, mark);
        let tele = amoeba_telemetry::Telemetry::from_handle(&ctx.handle());
        tele.gauge("dir.journal.depth", journal.depth() as i64);
        self.ckpt_release();
    }

    /// Boot's half of the group log: replays the records the last
    /// checkpoint had not yet covered and returns the highest seqno they
    /// claim.
    pub(crate) fn replay_journal(&self, ctx: &Ctx, journal: &Journal, worthless: bool) -> u64 {
        let applier = &self.applier;
        // Baseline the durable mirror at the just-loaded table — RAM and
        // disk agree at boot, and from here on the checkpointer keeps the
        // mirror equal to the disk while journaled applies run ahead in
        // RAM. Enabled *before* the replay, it still equals the disk
        // truth: replay mutates only RAM state, and re-enters each act
        // into the dirty set for the next checkpoint to persist
        // (invariant 3).
        applier.shared.borrow_mut().table.enable_durable_mirror();
        if worthless {
            // Mid-copy crash: the table may mix two histories, so
            // pre-copy records must not replay onto it. Recover the
            // journal's cursor first so the reset keeps sequence
            // numbers globally monotone.
            let _ = journal.recover(ctx);
            journal.reset(ctx);
            return 0;
        }
        let records = journal.recover(ctx);
        let mut replayed = 0u64;
        for rec in &records {
            let Ok(StagedBatch {
                acts,
                commit_seqno,
                need_commit,
            }) = StagedBatch::decode(rec)
            else {
                continue; // version skew: skip, never fatal
            };
            replayed = replayed.max(commit_seqno);
            let mut shared = applier.shared.borrow_mut();
            let mut ckpt = self.ckpt.borrow_mut();
            // The record's commit claim is replicated state (drops claim
            // their seqs through it): restore it so later commit-block
            // writes stay monotone.
            shared.commit.seqno = shared.commit.seqno.max(commit_seqno);
            ckpt.covered_seqno = ckpt.covered_seqno.max(commit_seqno);
            ckpt.need_commit |= need_commit;
            for (object, act) in acts {
                // Keep the durable file cap: reads are served from the
                // cache, and the checkpoint frees the old file when it
                // stores the replayed contents.
                let kept = shared.table.get(object).map(|e| e.file_cap);
                match act.entry(kept.unwrap_or(FileCap::NULL)) {
                    Some(entry) => shared.table.set(object, entry),
                    None => shared.table.clear(object),
                }
                if let StagedAct::Store { dir, .. } = &act {
                    replayed = replayed.max(dir.seqno);
                    shared.cache.insert(object, Rc::clone(dir));
                } else {
                    shared.cache.remove(&object);
                }
                ckpt.dirty.insert(object, act);
            }
        }
        replayed
    }

    /// An installed snapshot supersedes everything the journal's
    /// records described: drop them (keeping sequence numbers monotone)
    /// and the dirty set with them. The copy mark's `persist` already
    /// quiesced the checkpointer for this recovery pass.
    pub(crate) fn reset_journal(&self, ctx: &Ctx, journal: &Journal) {
        journal.reset(ctx);
        let mut ckpt = self.ckpt.borrow_mut();
        ckpt.dirty.clear();
        ckpt.need_commit = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_testkit::{hex, unhex};

    #[test]
    fn a_journal_record_keeps_its_bytes() {
        let mut dir = Directory::new(vec!["o".into()]);
        dir.seqno = 9;
        let batch = StagedBatch {
            acts: vec![
                (
                    1,
                    StagedAct::Store {
                        dir: Rc::new(dir),
                        check: 0xC1,
                    },
                ),
                (2, StagedAct::Drop),
            ],
            commit_seqno: 7,
            need_commit: true,
        };
        // Commit seqno, need-commit flag, two acts: a store with its
        // check and framed directory, and a drop.
        let golden = "07000000000000000100000002000000\
                      010000000000000000000000c1000000000000001200000009000000\
                      0000000001010000006f00000000\
                      020000000000000001000000";
        assert_eq!(hex(&batch.encode()), golden);
        let again = StagedBatch::decode(&unhex(golden)).expect("decodes");
        assert_eq!(hex(&again.encode()), golden);
        let trailing = [&unhex(golden)[..], &[0]].concat();
        assert!(StagedBatch::decode(&trailing).is_err(), "a byte too many");
    }

    /// Act kind 2, a migrated directory's stub (`u64 seqno, u64
    /// check`), is retired: a record that carries one, as its earlier
    /// layout wrote it, is refused whole.
    #[test]
    fn a_journal_record_with_a_retired_stub_act_is_refused() {
        let with_stub = "07000000000000000100000003000000\
                         010000000000000000000000c1000000000000001200000009000000\
                         0000000001010000006f00000000\
                         020000000000000001000000\
                         030000000000000002000000\
                         0800000000000000c300000000000000";
        assert!(StagedBatch::decode(&unhex(with_stub)).is_err());
    }

    #[test]
    fn journal_record_claiming_a_million_acts_over_an_empty_body_is_rejected() {
        let mut w = WireWriter::new();
        w.u64(7).u32(0).u32(1_000_000);
        assert!(StagedBatch::decode(&w.finish()).is_err());
    }
}
