//! The directory service as a replicated state machine: the
//! [`amoeba_rsm::StateMachine`] implementation driving
//! [`Applier`]-based state, with **group-commit apply batching** on the
//! disk path.
//!
//! ## Batching / durability invariants
//!
//! * `apply` is deterministic and updates RAM state (directory cache,
//!   object table, `update_seq`) plus the applied cursor in one
//!   critical section; disk effects are *deferred* into a batch buffer.
//!   An update publishes the one copy of the directory it edited as the
//!   next version in the cache, and its deferred effect (and, journaled,
//!   the dirty set) holds that same version. A reply is built and
//!   encoded only where the driver says the op was submitted
//!   (`reply`); everything else happens on every replica alike.
//! * `flush` — called once per batch by the driver, before any
//!   initiator is woken — coalesces the deferred effects: only each
//!   object's **final** state is written (k updates to one directory
//!   cost one Bullet file + one object-table write instead of k each),
//!   and ordering follows the batch's op order so a crash leaves a
//!   clean prefix when the batch touched a single object.
//! * A batch whose effects span **multiple** objects cannot be made
//!   durable atomically with per-object writes, so `flush` brackets it
//!   with the commit block's `recovering` flag: a crash mid-flush makes
//!   this replica's state "worthless" at next boot (§3's rule), forcing
//!   recovery to copy a consistent state from a surviving peer —
//!   recovery never observes a partially applied batch.
//! * On the NVRAM path the log append inside `apply` *is* the group
//!   commit (already amortized, §4.1); `flush` only polices the
//!   fill-threshold background flush.
//!
//! ## The group log (journal on)
//!
//! With [`DirParams::journal`] the durable half of every commit changes
//! shape: instead of writing a batch's Bullet files and table blocks in
//! place (at least a seek per object), `flush` seals the batch's final
//! acts — directory contents, table checks, the commit seqno as of this
//! batch, captured right after its applies into a [`StagedBatch`] —
//! encodes them as one self-delimiting, checksummed **journal record**
//! ([`amoeba_disk::Journal`]) and appends it to the disk's reserved
//! journal region as a single sequential conversation, ~1 seek per
//! batch. The record's last frame is the commit point: once the append
//! returns, every op of the batch is durable and its initiators may be
//! woken.
//!
//! The table writeback moves off the commit path entirely. Each
//! journaled act also lands in a RAM **dirty set** (per object,
//! last-wins — interim versions are never written back), which the
//! driver's background checkpointer drains every
//! [`DirParams::checkpoint_interval`] into real Bullet/table blocks and
//! then advances the journal's tail. The drain replays the acts against
//! the object table's **durable mirror** (exactly what is on disk), so
//! its table-block writes never leak the RAM state running ahead of
//! them and its deletions free the *durable* predecessor file, and it
//! is region-phased: every Bullet create back-to-back, then each
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

use std::sync::Arc;

use amoeba_bullet::FileCap;
use amoeba_flip::wire::{Counted, DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Payload;
use amoeba_rsm::{RecoveryInfo, StateMachine};
use amoeba_sim::{Ctx, Resource};
use parking_lot::Mutex;

use crate::commit_block::CommitBlock;
use crate::config::{DirParams, StorageKind};
use crate::directory::Directory;
use crate::object_table::{ObjEntry, ObjectTable};
use crate::ops::{DirError, DirOp, DirReply};
use crate::state::{Applier, Effect, ReadLease, StubEntry};

/// The directory service's state machine. All group-protocol behaviour
/// (ordering, recovery, batching) comes from the generic
/// [`amoeba_rsm::Replica`] driving it.
pub struct DirectoryStateMachine {
    pub(crate) applier: Arc<Applier>,
    params: DirParams,
    cpu: Resource,
    /// Disk effects of the batch being applied, deferred until the
    /// driver's group-commit `flush`.
    pending: Mutex<Vec<Effect>>,
    /// The group log's writeback bookkeeping (see the module docs):
    /// the dirty set between journal appends and the checkpointer's
    /// table writeback. Unused with the journal off.
    ckpt: Mutex<CkptState>,
}

/// Journal-path state. The `busy` flag is the checkpoint's sim-safe
/// exclusion — sleep-polled, never an OS mutex held across disk I/O —
/// because a drain can run from the driver's background checkpointer
/// process, inline on journal-full backpressure, *and* must be
/// quiescent before recovery's copy/install writes the disk.
#[derive(Default)]
struct CkptState {
    /// Per-object final act of every journaled-but-not-yet-checkpointed
    /// batch (last-wins: interim versions are never written back).
    dirty: std::collections::HashMap<u64, StagedAct>,
    /// Highest sealed commit seqno the dirty set covers; the
    /// checkpoint's commit-block write carries it.
    covered_seqno: u64,
    /// Whether any covered batch lost a file (delete / migration stub).
    need_commit: bool,
    /// A checkpoint drain is in flight.
    busy: bool,
}

impl std::fmt::Debug for DirectoryStateMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DirectoryStateMachine(server {})", self.applier.cfg.me)
    }
}

impl DirectoryStateMachine {
    /// Wraps an applier (shared with the initiator threads) into the
    /// state machine the replica driver runs.
    pub(crate) fn new(applier: Arc<Applier>, params: DirParams, cpu: Resource) -> Self {
        DirectoryStateMachine {
            applier,
            params,
            cpu,
            pending: Mutex::new(Vec::new()),
            ckpt: Mutex::new(CkptState::default()),
        }
    }

    /// Builds a machine with its own private state over the given
    /// storage, without any server processes — for driving the trait
    /// directly (conformance tests, tooling). Production servers are
    /// wired through [`crate::start_group_server`] instead.
    pub fn standalone(
        cfg: crate::ServiceConfig,
        params: DirParams,
        bullet: amoeba_bullet::BulletClient,
        partition: amoeba_disk::RawPartition,
        nvram: Option<amoeba_disk::Nvram>,
        journal: Option<amoeba_disk::Journal>,
        cpu: Resource,
    ) -> Self {
        let table = ObjectTable::new(partition.clone());
        let shared = Arc::new(Mutex::new(crate::state::Shared::new(table, cfg.n)));
        let applier = Arc::new(Applier {
            cfg,
            storage: params.storage,
            shared,
            bullet,
            partition,
            nvram,
            journal,
            max_lease_us: params.max_lease.as_micros() as u64,
            lease_renewals: params.lease_renewals,
        });
        Self::new(applier, params, cpu)
    }

    /// The logical version of the machine's state (diagnostics/tests).
    pub fn update_seq(&self) -> u64 {
        self.applier.shared.lock().update_seq
    }

    /// A fresh machine over the same storage with cold RAM state —
    /// what a reboot of this column would produce. For durability
    /// probes in tests.
    pub fn reopen_for_test(&self) -> DirectoryStateMachine {
        Self::standalone(
            self.applier.cfg.clone(),
            self.params.clone(),
            self.applier.bullet.clone(),
            self.applier.partition.clone(),
            self.applier.nvram.clone(),
            self.applier.journal.as_ref().map(|j| j.reopen()),
            self.cpu.clone(),
        )
    }

    /// The final per-object disk work of one batch, coalesced.
    fn coalesce(effects: Vec<Effect>) -> (Vec<(u64, FinalAct)>, Vec<FileCap>, bool) {
        use std::collections::HashMap;
        let mut last: HashMap<u64, usize> = HashMap::new();
        for (i, e) in effects.iter().enumerate() {
            last.insert(e.object(), i);
        }
        let mut acts: Vec<(u64, FinalAct)> = Vec::new();
        let mut frees: Vec<FileCap> = Vec::new();
        let mut need_commit = false;
        for (i, e) in effects.into_iter().enumerate() {
            let object = e.object();
            let is_final = last.get(&object) == Some(&i);
            match e {
                Effect::StoreDir { dir, .. } => {
                    if is_final {
                        acts.push((object, FinalAct::Store(dir)));
                    }
                    // Non-final stores are pure coalescing wins: the
                    // object's later state supersedes them and their
                    // Bullet file was never created.
                }
                Effect::DropDir { old_file, .. } => {
                    need_commit = true;
                    if is_final {
                        acts.push((object, FinalAct::Drop { old_file }));
                    } else if !old_file.is_null() {
                        // Deleted then re-created within the batch: the
                        // pre-batch file still must be freed.
                        frees.push(old_file);
                    }
                }
                Effect::StoreStub { old_file, .. } => {
                    // Migration tombstone: like a delete, the op loses its
                    // file (commit-block write needed), but the table
                    // entry is kept and persisted rather than cleared.
                    need_commit = true;
                    if is_final {
                        acts.push((object, FinalAct::Stub { old_file }));
                    } else if !old_file.is_null() {
                        frees.push(old_file);
                    }
                }
            }
        }
        (acts, frees, need_commit)
    }
}

enum FinalAct {
    Store(Arc<Directory>),
    Drop { old_file: FileCap },
    Stub { old_file: FileCap },
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
    /// Whether the batch lost a file (delete / migration stub), so its
    /// checkpoint must write the commit block.
    need_commit: bool,
}

/// Like [`FinalAct`], but self-contained: the check/seqno a table write
/// needs are captured at seal time (exact — seal runs synchronously
/// after the batch's applies), and old-file capabilities are *not*
/// carried — the checkpoint frees whatever the durable mirror says is
/// the object's current on-disk file.
enum StagedAct {
    Store { dir: Arc<Directory>, check: u64 },
    Drop,
    Stub { seqno: u64, check: u64 },
}

/// A [`StagedAct`] whose Bullet file (phase one of `drain_acts`) has
/// already been created — what remains is its object-table mutation.
enum ResolvedAct {
    Store {
        file: FileCap,
        seqno: u64,
        check: u64,
    },
    Drop,
    Stub {
        seqno: u64,
        check: u64,
    },
}

impl DirectoryStateMachine {
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
        let mut resolved: Vec<(u64, ResolvedAct)> = Vec::with_capacity(batch.acts.len());
        for (object, act) in batch.acts {
            match act {
                StagedAct::Store { dir, check } => {
                    // Err means the storage column is down; recovery
                    // resyncs the object, so the act is just skipped.
                    if let Ok(file) = applier.bullet.create(ctx, dir.encode()) {
                        resolved.push((
                            object,
                            ResolvedAct::Store {
                                file,
                                seqno: dir.seqno,
                                check,
                            },
                        ));
                    }
                }
                StagedAct::Drop => resolved.push((object, ResolvedAct::Drop)),
                StagedAct::Stub { seqno, check } => {
                    resolved.push((object, ResolvedAct::Stub { seqno, check }));
                }
            }
        }
        // Phase two — the object-table commit. All mirror mutations land
        // first, then every *distinct* touched block is written exactly
        // once: a batch of appends to directories sharing a table block
        // costs one block write instead of one per directory, and the
        // writes land on adjacent blocks.
        let (olds, waiters) = {
            let mut shared = applier.shared.lock();
            let mut olds: Vec<FileCap> = Vec::new();
            let mut blocks: Vec<u64> = Vec::new();
            for (object, act) in &resolved {
                let old = shared.table.durable_get(*object);
                let keep = match act {
                    ResolvedAct::Store { file, seqno, check } => {
                        shared.table.durable_set(
                            *object,
                            ObjEntry {
                                file_cap: *file,
                                seqno: *seqno,
                                check: *check,
                            },
                        );
                        Some(*file) // recreation over the same file is no free
                    }
                    ResolvedAct::Drop => {
                        shared.table.durable_clear(*object);
                        None
                    }
                    ResolvedAct::Stub { seqno, check } => {
                        shared.table.durable_set(
                            *object,
                            ObjEntry {
                                file_cap: FileCap::NULL, // contentless by design
                                seqno: *seqno,
                                check: *check,
                            },
                        );
                        None
                    }
                };
                if let Some(old) = old {
                    if !old.file_cap.is_null() && keep != Some(old.file_cap) {
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
                .filter_map(|b| shared.table.durable_flush_block_begin(b))
                .collect();
            (olds, waiters)
        };
        for w in waiters {
            w.recv(ctx);
        }
        if batch.need_commit {
            let cb = {
                let shared = applier.shared.lock();
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

    /// Captures coalesced final acts as a sealed batch: directory
    /// contents, table checks, and the commit seqno as of now (exact —
    /// callers run synchronously after the batch's applies).
    fn seal_acts(&self, acts: Vec<(u64, FinalAct)>, need_commit: bool) -> StagedBatch {
        let shared = self.applier.shared.lock();
        let acts = acts
            .into_iter()
            .map(|(object, act)| {
                let entry = shared.table.get(object);
                let staged = match act {
                    FinalAct::Store(dir) => StagedAct::Store {
                        dir,
                        check: entry.map(|e| e.check).unwrap_or(0),
                    },
                    FinalAct::Drop { .. } => StagedAct::Drop,
                    FinalAct::Stub { .. } => StagedAct::Stub {
                        seqno: entry.map(|e| e.seqno).unwrap_or(0),
                        check: entry.map(|e| e.check).unwrap_or(0),
                    },
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
    /// checkpoint's tail advance can never outrun them (module-docs
    /// invariant 1).
    fn journal_commit(&self, ctx: &Ctx, batch: StagedBatch) {
        if batch.acts.is_empty() {
            return;
        }
        let journal = self
            .applier
            .journal
            .as_ref()
            .expect("journaled commit without a journal");
        let record = batch.encode();
        {
            let mut ckpt = self.ckpt.lock();
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
                self.run_checkpoint(ctx);
            }
        }
    }

    /// Acquires the checkpoint drain's sleep-polled exclusion flag.
    fn ckpt_acquire(&self, ctx: &Ctx) {
        loop {
            {
                let mut ckpt = self.ckpt.lock();
                if !ckpt.busy {
                    ckpt.busy = true;
                    return;
                }
            }
            ctx.sleep(std::time::Duration::from_micros(100));
        }
    }

    fn ckpt_release(&self) {
        self.ckpt.lock().busy = false;
    }

    /// One checkpoint pass: snapshot the dirty set, write it back into
    /// real Bullet/table blocks (+ commit block when a covered batch
    /// lost a file), then advance the journal's tail — iff no record
    /// arrived since the mark. A failed tail advance is benign: the
    /// drained records' replay is idempotent, and the next pass covers
    /// the newcomers.
    pub(crate) fn run_checkpoint(&self, ctx: &Ctx) {
        let Some(journal) = self.applier.journal.as_ref() else {
            return;
        };
        self.ckpt_acquire(ctx);
        // Mark before dirty snapshot (module-docs invariant 1).
        let mark = journal.next_seq();
        let batch = {
            let mut ckpt = self.ckpt.lock();
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
        // (module-docs invariant 2).
        let _ = journal.try_reset(ctx, mark);
        let tele = amoeba_telemetry::Telemetry::from_handle(&ctx.handle());
        tele.gauge("dir.journal.depth", journal.depth() as i64);
        self.ckpt_release();
    }
}

/// The count of a journal record's acts and of each snapshot section:
/// at most 1,000,000.
const ENTRIES: Counted = Counted::u32(1_000_000, "entries");

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

/// A `u32` kind, then 0 = Store (`u64 check` + the framed directory),
/// 1 = Drop, 2 = Stub (`u64 seqno, u64 check`).
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
            StagedAct::Stub { seqno, check } => {
                w.u32(2).u64(*seqno).u64(*check);
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<StagedAct, DecodeError> {
        Ok(match r.u32("act kind")? {
            0 => StagedAct::Store {
                check: r.u64("check")?,
                dir: Arc::new(Directory::get_framed(r)?),
            },
            1 => StagedAct::Drop,
            2 => StagedAct::Stub {
                seqno: r.u64("seqno")?,
                check: r.u64("check")?,
            },
            _ => return Err(DecodeError::new("act kind")),
        })
    }
}

/// A replica's whole state, as recovery transfers it.
struct Snapshot {
    update_seq: u64,
    commit_seqno: u64,
    /// `(object, check, contents)` of every directory with contents.
    dirs: Vec<(u64, u64, Arc<Directory>)>,
    /// Completion records of keyed creates, `(key, object)`: a
    /// recovering replica must answer replays of the cross-shard
    /// protocol's step one.
    completions: Vec<(u64, u64)>,
    /// Forwarding stubs with their kept entry's `(object, check, seqno)`,
    /// so the installer rebuilds both the stub and the table row.
    stubs: Vec<((u64, u64, u64), StubEntry)>,
    /// The read-lease table, `(object, lease)`: a joining replica must
    /// know every outstanding lease, or a write it later initiates could
    /// be acknowledged without revoking one.
    leases: Vec<(u64, ReadLease)>,
}

/// `u64 update_seq, u64 commit_seqno`, then the four sections, each
/// counted ([`ENTRIES`]) and sorted: a directory is its object, check
/// and framed contents.
impl Wire for Snapshot {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.update_seq).u64(self.commit_seqno);
        ENTRIES.put(w, &self.dirs, |(object, check, dir), w| {
            w.u64(*object).u64(*check);
            dir.put_framed(w);
        });
        ENTRIES.put(w, &self.completions, <(u64, u64)>::put);
        ENTRIES.put(w, &self.stubs, <((u64, u64, u64), StubEntry)>::put);
        ENTRIES.put(w, &self.leases, <(u64, ReadLease)>::put);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Snapshot, DecodeError> {
        Ok(Snapshot {
            update_seq: r.u64("update seq")?,
            commit_seqno: r.u64("commit seq")?,
            dirs: ENTRIES.get(r, |r| {
                let (object, check) = (r.u64("object")?, r.u64("check")?);
                Ok((object, check, Arc::new(Directory::get_framed(r)?)))
            })?,
            completions: ENTRIES.get(r, <(u64, u64)>::get)?,
            stubs: ENTRIES.get(r, <((u64, u64, u64), StubEntry)>::get)?,
            leases: ENTRIES.get(r, <(u64, ReadLease)>::get)?,
        })
    }
}

impl Wire for StubEntry {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.to_port).u64(self.to_object);
    }

    fn get(r: &mut WireReader<'_>) -> Result<StubEntry, DecodeError> {
        Ok(StubEntry {
            to_port: r.u64("stub to-port")?,
            to_object: r.u64("stub to-object")?,
        })
    }
}

/// Owner, callback port, deadline, TTL, then the renewals left as a
/// `u64` that must fit a `u32`.
impl Wire for ReadLease {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.owner)
            .u64(self.cb_port)
            .u64(self.deadline_us)
            .u64(self.ttl_us)
            .u64(u64::from(self.renewals_left));
    }

    fn get(r: &mut WireReader<'_>) -> Result<ReadLease, DecodeError> {
        Ok(ReadLease {
            owner: r.u64("lease owner")?,
            cb_port: r.u64("lease cb-port")?,
            deadline_us: r.u64("lease deadline")?,
            ttl_us: r.u64("lease ttl")?,
            renewals_left: u32::try_from(r.u64("lease renewals")?)
                .map_err(|_| DecodeError::new("lease renewals"))?,
        })
    }
}

impl StateMachine for DirectoryStateMachine {
    fn apply(&self, ctx: &Ctx, seq: u64, op: &Payload, reply: bool) -> Payload {
        let applier = &self.applier;
        // What the initiating thread is owed; elsewhere nobody reads it,
        // so nothing is encoded.
        let answer = |r: DirReply| {
            if reply {
                r.encode()
            } else {
                Payload::empty()
            }
        };
        let op = match DirOp::decode(op) {
            Ok(op) => op,
            Err(_) => {
                // Malformed ops still consume their slot.
                let mut shared = applier.shared.lock();
                shared.applied_group_seq = shared.applied_group_seq.max(seq);
                return answer(DirReply::Err(DirError::Malformed));
            }
        };
        self.cpu.use_for(ctx, self.params.apply_cpu);
        applier.preload_for(ctx, &op);
        let planned = {
            let mut shared = applier.shared.lock();
            let r = applier.plan(&mut shared, &op, None, reply);
            // Revoke-on-apply: every object this op mutates loses its
            // outstanding read leases *in the same critical section as
            // the mutation* — ordered in the total order, so a grant
            // and a write racing through different initiators land
            // deterministically on one side of each other on every
            // replica. The initiator that submitted the write fans the
            // parked revocations out before acknowledging.
            if let Ok((_, effects, _)) = &r {
                for e in effects {
                    shared.revoke_leases(e.object());
                }
            }
            // Expired parked revocations need no callback — the holder
            // rejects the entry itself once the deadline passes — and
            // must not pile up at replicas whose initiators never claim
            // them (volatile bookkeeping; determinism not required).
            let now_us = ctx.now().as_nanos() / 1_000;
            shared.revoked.retain(|_, ls| {
                ls.retain(|l| l.deadline_us > now_us);
                !ls.is_empty()
            });
            // The cursor moves with the mutation, in the same critical
            // section, so snapshots are always cursor-consistent.
            shared.applied_group_seq = shared.applied_group_seq.max(seq);
            shared.last_update_at = ctx.now();
            r
        };
        let (granted, effects, useq) = match planned {
            Ok(v) => v,
            Err(e) => return answer(DirReply::Err(e)),
        };
        match applier.storage {
            StorageKind::Disk => self.pending.lock().extend(effects),
            StorageKind::Nvram => {
                // Lease grants are volatile replicated state: nothing
                // to make durable, so they skip the log (replaying one
                // after a reboot would only plant an already-expired
                // lease).
                if !matches!(op, DirOp::GrantRead { .. }) {
                    applier.commit_nvram(ctx, useq, &op);
                }
            }
        }
        answer(granted)
    }

    fn flush(&self, ctx: &Ctx) {
        let applier = &self.applier;
        if applier.storage == StorageKind::Nvram {
            // The log appends in `apply` were the durable commit; only
            // police the fill threshold here.
            let full = applier
                .nvram
                .as_ref()
                .map(|n| n.fill_fraction() >= self.params.nvram_flush_threshold)
                .unwrap_or(false);
            if full {
                applier.flush_nvram(ctx);
            }
            return;
        }
        let effects = std::mem::take(&mut *self.pending.lock());
        if effects.is_empty() {
            return;
        }
        let (acts, frees, need_commit) = Self::coalesce(effects);
        if applier.journal.is_some() {
            // The group log: one sequential record append is the
            // commit. `frees` (pre-batch file of a deleted-then-recreated
            // object) is deliberately dropped: the checkpoint frees the
            // durable mirror's file when it stores the recreation, which
            // *is* that pre-batch file — carrying the list too would
            // free it twice.
            let batch = self.seal_acts(acts, need_commit);
            self.journal_commit(ctx, batch);
            return;
        }
        // A multi-object batch cannot be flushed atomically: guard it
        // with the commit block's `recovering` flag so a crash mid-way
        // voids this replica's state instead of exposing a hole.
        let guard = acts.len() > 1;
        if guard {
            let cb = {
                let mut shared = applier.shared.lock();
                shared.commit.recovering = true;
                shared.commit.clone()
            };
            cb.write(&applier.partition, ctx);
        }
        for (object, act) in acts {
            match act {
                FinalAct::Store(dir) => applier.store_dir_to_disk(ctx, object, &dir),
                FinalAct::Drop { old_file } | FinalAct::Stub { old_file } => {
                    // Persist the table entry — cleared for a delete,
                    // kept-but-contentless for a migration stub; the
                    // commit-block write (the op loses its file, §3)
                    // happens once below for the whole batch.
                    let waiter = { applier.shared.lock().table.flush_begin(object) };
                    if let Some(w) = waiter {
                        w.recv(ctx);
                    }
                    if !old_file.is_null() {
                        let _ = applier.bullet.delete(ctx, old_file);
                    }
                }
            }
        }
        for f in frees {
            let _ = applier.bullet.delete(ctx, f);
        }
        if guard || need_commit {
            let cb = {
                let mut shared = applier.shared.lock();
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
            cb.write(&applier.partition, ctx);
        }
    }

    fn checkpoint(&self, ctx: &Ctx) {
        self.run_checkpoint(ctx);
    }

    fn idle(&self, ctx: &Ctx) {
        // §4.1: apply NVRAM modifications to disk "when the server is
        // idle or the NVRAM is full".
        if self.applier.storage == StorageKind::Nvram {
            self.applier.flush_nvram(ctx);
        }
    }

    /// Loads commit block, object table and NVRAM after a reboot.
    fn boot(&self, ctx: &Ctx) {
        let applier = &self.applier;
        let cfg = &applier.cfg;
        let commit = CommitBlock::read(&applier.partition, ctx, cfg.n)
            .unwrap_or_else(|| CommitBlock::initial(cfg.n));
        let table = ObjectTable::load(applier.partition.clone(), ctx);
        let table_seq = table.max_seqno();
        let worthless = commit.recovering && commit.epoch == 0;
        {
            let mut shared = applier.shared.lock();
            shared.table = table;
            if commit.recovering && commit.epoch == 0 {
                // Crashed during a previous recovery's copy phase: the
                // state may mix two replicas' histories — worthless
                // (§3).
                shared.update_seq = 0;
            } else if commit.recovering {
                // Crashed inside a guarded group-commit flush. Every op
                // of that batch was globally ordered and accepted, and
                // each object's durable state is individually
                // consistent, so the disk holds a salvageable
                // *best-effort subset*: the objects stored before the
                // crash carry their post-batch state, the rest their
                // pre-batch state. The claim is the highest seqno any
                // stored directory carries (not the commit block's,
                // which the guard write may have advanced past the
                // unfinished drops). This deliberately over-claims
                // sibling ops of the same window that were not yet
                // stored — if every replica died in that window, the
                // election's winner may lack an op another salvaged
                // replica holds. That is the accepted price of
                // disaster recovery: any salvage loses at most parts
                // of the one in-flight batch, where the old rule
                // (state worthless) lost the entire store.
                shared.update_seq = table_seq;
            } else {
                shared.update_seq = table_seq.max(commit.seqno);
            }
            shared.commit = commit;
            shared.commit.recovering = false;
            // Group log: baseline the durable mirror at the just-loaded
            // table — RAM and disk agree at boot, and from here on the
            // checkpointer keeps the mirror equal to the disk while
            // journaled applies run ahead in RAM.
            if applier.journal.is_some() && applier.storage == StorageKind::Disk {
                shared.table.enable_durable_mirror();
            }
        }
        // The group log: replay journal records the last checkpoint had
        // not yet covered. The mirror was enabled *before* this, so it
        // still equals the disk truth — replay mutates only RAM state,
        // and re-enters each act into the dirty set for the next
        // checkpoint to persist (module-docs invariant 3).
        if let Some(journal) = &applier.journal {
            if worthless {
                // Mid-copy crash: the table may mix two histories, so
                // pre-copy records must not replay onto it. Recover the
                // journal's cursor first so the reset keeps sequence
                // numbers globally monotone.
                let _ = journal.recover(ctx);
                journal.reset(ctx);
            } else {
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
                    let mut shared = applier.shared.lock();
                    let mut ckpt = self.ckpt.lock();
                    // The record's commit claim is replicated state
                    // (drops claim their seqs through it): restore it
                    // so later commit-block writes stay monotone.
                    shared.commit.seqno = shared.commit.seqno.max(commit_seqno);
                    ckpt.covered_seqno = ckpt.covered_seqno.max(commit_seqno);
                    ckpt.need_commit |= need_commit;
                    for (object, act) in acts {
                        match &act {
                            StagedAct::Store { dir, check } => {
                                replayed = replayed.max(dir.seqno);
                                // Keep the durable file cap: reads are
                                // served from the cache entry below,
                                // and the checkpoint frees the old file
                                // when it stores the replayed contents.
                                let file_cap = shared
                                    .table
                                    .get(object)
                                    .map(|e| e.file_cap)
                                    .unwrap_or(amoeba_bullet::FileCap::NULL);
                                shared.table.set(
                                    object,
                                    ObjEntry {
                                        file_cap,
                                        seqno: dir.seqno,
                                        check: *check,
                                    },
                                );
                                shared.cache.insert(object, Arc::clone(dir));
                            }
                            StagedAct::Drop => {
                                shared.table.clear(object);
                                shared.cache.remove(&object);
                            }
                            StagedAct::Stub { seqno, check } => {
                                shared.table.set(
                                    object,
                                    ObjEntry {
                                        file_cap: amoeba_bullet::FileCap::NULL,
                                        seqno: *seqno,
                                        check: *check,
                                    },
                                );
                                shared.cache.remove(&object);
                            }
                        }
                        ckpt.dirty.insert(object, act);
                    }
                }
                if replayed > 0 {
                    let mut shared = applier.shared.lock();
                    shared.update_seq = shared.update_seq.max(replayed);
                }
            }
        }
        // NVRAM survives the crash; replay pending records into RAM.
        if applier.storage == StorageKind::Nvram {
            let replayed = applier.replay_nvram(ctx);
            let mut shared = applier.shared.lock();
            shared.update_seq = shared.update_seq.max(replayed);
        }
        {
            // The lease table is replicated but never durable. A boot
            // from salvaged *non-empty* state may therefore have lost
            // leases whose holders are still alive and serving cached
            // reads — fence write acknowledgements until every lease
            // granted before the crash has provably expired. (If the
            // group recovers from a surviving peer instead, the
            // snapshot carries the lease table and the installing
            // replica's fence is harmless extra caution; a genuinely
            // fresh deployment boots with update_seq 0 and no fence.)
            let mut shared = applier.shared.lock();
            if shared.update_seq > 0 {
                // Piggybacked renewals can extend a lease by up to
                // `lease_renewals × ttl` beyond its original deadline, so
                // the fence outwaits the worst-case chain, not just one
                // maximum lease.
                let worst_us = applier.max_lease_us * (1 + applier.lease_renewals as u64);
                shared.write_fence_until_us = ctx.now().as_nanos() / 1_000 + worst_us;
            }
        }
    }

    fn recovery_info(&self) -> RecoveryInfo {
        let shared = self.applier.shared.lock();
        let mut mourned = vec![false; self.applier.cfg.n];
        for i in shared.commit.mourned() {
            if i < mourned.len() {
                mourned[i] = true;
            }
        }
        RecoveryInfo {
            update_seq: shared.update_seq,
            mourned,
        }
    }

    fn begin_copy(&self, ctx: &Ctx) {
        // Quiesce any in-flight checkpoint drain first: its commit-block
        // write must not land after (and clobber) the worthless mark.
        // No new drain can start until the replica is back in normal
        // operation, so releasing right away is safe.
        if self.applier.journal.is_some() {
            self.ckpt_acquire(ctx);
            self.ckpt_release();
        }
        let cb = {
            let mut shared = self.applier.shared.lock();
            shared.commit.recovering = true;
            // Epoch 0 marks "state is being replaced by a peer's": a
            // crash from here until enter_service leaves a mixture of
            // two histories, which boot must treat as worthless.
            shared.commit.epoch = 0;
            shared.commit.clone()
        };
        cb.write(&self.applier.partition, ctx);
    }

    fn snapshot(&self, ctx: &Ctx) -> (u64, Payload) {
        let applier = &self.applier;
        // Cold cache entries are pulled from Bullet first (outside the
        // lock), so the locked marshalling below sees every directory.
        // Stubbed objects have no contents (their file is gone) — skip.
        let objects: Vec<u64> = {
            let shared = applier.shared.lock();
            shared
                .table
                .iter()
                .map(|(o, _)| o)
                .filter(|o| !shared.stubs.contains_key(o))
                .collect()
        };
        for o in &objects {
            let _ = applier.load_dir(ctx, *o);
        }
        let (cursor, snap) = {
            let shared = applier.shared.lock();
            let dirs = shared
                .table
                .iter()
                .filter_map(|(object, entry)| {
                    let dir = shared.cache.get(&object)?;
                    Some((object, entry.check, Arc::clone(dir)))
                })
                .collect();
            let mut completions: Vec<(u64, u64)> =
                shared.completions.iter().map(|(k, o)| (*k, *o)).collect();
            let mut stubs: Vec<_> = shared
                .stubs
                .iter()
                .filter_map(|(object, stub)| {
                    let e = shared.table.get(*object)?;
                    Some(((*object, e.check, e.seqno), *stub))
                })
                .collect();
            let mut leases: Vec<(u64, ReadLease)> = shared
                .rleases
                .iter()
                .flat_map(|(object, ls)| ls.iter().map(|l| (*object, *l)))
                .collect();
            // Deterministic encoding.
            completions.sort_unstable();
            stubs.sort_unstable();
            leases.sort_unstable();
            let snap = Snapshot {
                update_seq: shared.update_seq,
                commit_seqno: shared.commit.seqno,
                dirs,
                completions,
                stubs,
                leases,
            };
            (shared.applied_group_seq, snap)
        };
        (cursor, snap.encode())
    }

    fn install(&self, ctx: &Ctx, cursor: u64, snap: &Payload) -> bool {
        let applier = &self.applier;
        // A peer's bytes: refused whole, before anything is touched.
        let Ok(Snapshot {
            update_seq,
            commit_seqno,
            dirs: installed,
            completions,
            stubs,
            leases,
        }) = Snapshot::decode(snap)
        else {
            return false;
        };
        {
            let mut shared = applier.shared.lock();
            // Wipe stale state, then install wholesale.
            let stale: Vec<u64> = shared.table.iter().map(|(o, _)| o).collect();
            for o in stale {
                shared.table.clear(o);
            }
            shared.cache.clear();
            for (object, check, dir) in &installed {
                shared.table.set(
                    *object,
                    ObjEntry {
                        file_cap: FileCap::NULL, // created below
                        seqno: dir.seqno,
                        check: *check,
                    },
                );
                shared.cache.insert(*object, Arc::clone(dir));
            }
            shared.update_seq = update_seq;
            shared.commit.seqno = commit_seqno;
            shared.applied_group_seq = cursor;
            shared.completions = completions.into_iter().collect();
            shared.stubs.clear();
            shared.heat.clear();
            // Inherit every outstanding read lease: a write this replica
            // later initiates must revoke leases granted before it joined.
            shared.rleases.clear();
            for (object, lease) in leases {
                shared.rleases.entry(object).or_default().push(lease);
            }
            // The installed snapshot carries the complete live lease
            // table, so the conservative cold-boot write fence (leases
            // possibly lost with the volatile state) is no longer
            // needed on this replica.
            shared.write_fence_until_us = 0;
            for ((object, check, seqno), stub) in &stubs {
                shared.table.set(
                    *object,
                    ObjEntry {
                        file_cap: FileCap::NULL, // contentless by design
                        seqno: *seqno,
                        check: *check,
                    },
                );
                shared.stubs.insert(*object, *stub);
            }
        }
        // Persist every fetched directory locally (Bullet file + table
        // entry) — recovery always persists to disk; NVRAM holds only
        // post-recovery updates. Stub entries persist their (contentless)
        // table rows so relocated objects stay reserved across reboots.
        for (object, _, dir) in installed {
            applier.store_dir_to_disk(ctx, object, &dir);
        }
        for ((object, _, _), _) in &stubs {
            let waiter = { applier.shared.lock().table.flush_begin(*object) };
            if let Some(w) = waiter {
                w.recv(ctx);
            }
        }
        // The install persisted every entry, so RAM and disk agree
        // again: re-baseline the durable mirror (recovery runs on the
        // driver's main process, so no flush can be in flight here).
        {
            let mut shared = applier.shared.lock();
            if shared.table.mirror_enabled() {
                shared.table.enable_durable_mirror();
            }
        }
        // The installed state supersedes everything the journal's
        // records described: drop them (keeping sequence numbers
        // monotone) and the dirty set with them. `begin_copy` already
        // quiesced the checkpointer for this recovery pass.
        if let Some(journal) = &applier.journal {
            journal.reset(ctx);
            let mut ckpt = self.ckpt.lock();
            ckpt.dirty.clear();
            ckpt.need_commit = false;
        }
        true
    }

    fn align_cursor(&self, _ctx: &Ctx, cursor: u64) {
        // A new instance's order restarts: the cursor is set
        // absolutely, not monotonically.
        self.applier.shared.lock().applied_group_seq = cursor;
    }

    fn enter_service(&self, ctx: &Ctx, config: &[bool]) {
        let cb = {
            let mut shared = self.applier.shared.lock();
            shared.commit.config = config.to_vec();
            shared.commit.recovering = false;
            // The state is whole again (own history or a completed
            // copy): leave the copy-in-progress epoch.
            shared.commit.epoch = shared.commit.epoch.max(1);
            shared.commit.clone()
        };
        cb.write(&self.applier.partition, ctx);
    }

    fn on_membership(&self, ctx: &Ctx, seq: u64, config: &[bool]) {
        let cb = {
            let mut shared = self.applier.shared.lock();
            if seq > 0 {
                shared.applied_group_seq = shared.applied_group_seq.max(seq);
            }
            shared.commit.config = config.to_vec();
            shared.commit.clone()
        };
        cb.write(&self.applier.partition, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_disk::{DiskParams, DiskServer, RawPartition, VDisk};
    use amoeba_flip::{NetParams, Network};
    use amoeba_rpc::{RpcClient, RpcNode};
    use amoeba_sim::Simulation;
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
                        dir: Arc::new(dir),
                        check: 0xC1,
                    },
                ),
                (2, StagedAct::Drop),
                (
                    3,
                    StagedAct::Stub {
                        seqno: 8,
                        check: 0xC3,
                    },
                ),
            ],
            commit_seqno: 7,
            need_commit: true,
        };
        // Commit seqno, need-commit flag, three acts: a store with its
        // check and framed directory, a drop, a stub.
        let golden = "07000000000000000100000003000000\
                      010000000000000000000000c1000000000000001200000009000000\
                      0000000001010000006f00000000\
                      020000000000000001000000\
                      030000000000000002000000\
                      0800000000000000c300000000000000";
        assert_eq!(hex(&batch.encode()), golden);
        let again = StagedBatch::decode(&unhex(golden)).expect("decodes");
        assert_eq!(hex(&again.encode()), golden);
        let trailing = [&unhex(golden)[..], &[0]].concat();
        assert!(StagedBatch::decode(&trailing).is_err(), "a byte too many");
    }

    #[test]
    fn journal_record_claiming_a_million_acts_over_an_empty_body_is_rejected() {
        let mut w = WireWriter::new();
        w.u64(7).u32(0).u32(1_000_000);
        assert!(StagedBatch::decode(&w.finish()).is_err());
    }

    /// A machine on one node with nothing behind its Bullet stub: good
    /// for whatever never flushes.
    fn machine(sim: &Simulation) -> (amoeba_sim::NodeId, DirectoryStateMachine) {
        let node = sim.add_node("m");
        let net = Network::new(sim.handle(), NetParams::default(), 1);
        let rpc = RpcNode::start(sim, node, net.attach());
        let disk = DiskServer::start(sim, node, VDisk::new(64, 4096), DiskParams::instant());
        let cfg = crate::ServiceConfig::new(3, 0);
        let sm = DirectoryStateMachine::standalone(
            cfg.clone(),
            DirParams::default(),
            amoeba_bullet::BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0)),
            RawPartition::new(disk, 0, 16),
            None,
            None,
            Resource::new(sim.handle(), "cpu"),
        );
        (node, sm)
    }

    #[test]
    fn the_ram_cache_hands_out_one_version_until_an_update_publishes_the_next() {
        let mut sim = Simulation::new(1);
        let (node, sm) = machine(&sim);
        let out = sim.spawn_on(node, "replica", move |ctx| {
            let port = sm.applier.cfg.public_port;
            let append = |name: &str| DirOp::Append {
                object: 1,
                name: name.into(),
                cap: crate::Capability::owner(port, 1, 0xC1),
                col_rights: vec![crate::Rights::ALL],
            };
            let create = DirOp::Create {
                columns: vec!["owner".into()],
                check: 0xC1,
            };
            sm.apply(ctx, 1, &create.encode(), false);
            sm.apply(ctx, 2, &append("a").encode(), false);
            let load = || sm.applier.load_dir(ctx, 1).expect("cached");
            let (v1, again) = (load(), load());
            assert!(Arc::ptr_eq(&v1, &again), "a read copies nothing");
            // A refused update publishes nothing.
            sm.apply(ctx, 3, &append("a").encode(), false);
            assert!(Arc::ptr_eq(&v1, &load()));

            sm.apply(ctx, 4, &append("b").encode(), false);
            let v2 = load();
            assert!(!Arc::ptr_eq(&v1, &v2), "an update edits its own copy");
            assert_eq!((v1.rows.len(), v1.seqno), (1, 2), "and no one else's");
            assert_eq!((v2.rows.len(), v2.seqno), (2, 4));
            // The deferred disk effect is that version, not a copy of it.
            let pending = sm.pending.lock();
            let stored = pending.iter().rev().find_map(|e| match e {
                Effect::StoreDir { dir, .. } => Some(dir),
                _ => None,
            });
            assert!(Arc::ptr_eq(stored.expect("the append's effect"), &v2));
        });
        sim.run_for(std::time::Duration::from_secs(1));
        assert!(out.is_ready(), "the checks ran");
    }

    #[test]
    fn snapshot_claiming_a_million_entries_over_an_empty_body_is_rejected() {
        let mut sim = Simulation::new(1);
        let (node, sm) = machine(&sim);
        // One snapshot per count field, each claiming a million
        // elements with nothing behind the claim.
        let snaps: Vec<Payload> = (0..4)
            .map(|zero_counts| {
                let mut w = WireWriter::new();
                w.u64(1).u64(1); // update seq, commit seq
                for _ in 0..zero_counts {
                    w.u32(0);
                }
                w.u32(1_000_000);
                w.finish_payload()
            })
            .collect();
        let out = sim.spawn_on(node, "install", move |ctx| {
            snaps
                .iter()
                .map(|s| sm.install(ctx, 0, s))
                .collect::<Vec<_>>()
        });
        sim.run_for(std::time::Duration::from_secs(1));
        assert_eq!(out.take(), Some(vec![false; 4]));
    }
}
