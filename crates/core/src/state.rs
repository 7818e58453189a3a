//! The replica state machine shared by every server implementation:
//! validation, deterministic apply, and storage effects.

use std::collections::HashMap;
use std::sync::Arc;

use amoeba_bullet::{BulletClient, FileCap};
use amoeba_disk::{Journal, NvRecord, Nvram, RawPartition};
use amoeba_flip::wire::Wire;
use amoeba_flip::{Payload, Port};
use amoeba_sim::Ctx;
use parking_lot::Mutex;

use crate::capability::Capability;
use crate::commit_block::CommitBlock;
use crate::config::{ServiceConfig, StorageKind};
use crate::directory::{DirStructureError, Directory, Row};
use crate::object_table::{ObjEntry, ObjectTable};
use crate::ops::{DirError, DirOp, DirReply, DirRequest};
use crate::rights::Rights;

/// Server operating mode (the group variant's mode lives in the RSM
/// driver; this one is read by the RPC baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Recovering,
    Normal,
}

/// Mutable replica state. Lock discipline: never hold the lock across a
/// blocking simulator call.
pub(crate) struct Shared {
    pub mode: Mode,
    pub table: ObjectTable,
    /// Authoritative in-RAM directory contents (the paper's RAM cache;
    /// lazily refilled from Bullet files after a reboot). Each entry is
    /// one immutable *version* of its directory: readers, the planner
    /// and the deferred disk effects share it, and an update publishes
    /// the next version — the one copy it edited — in its place.
    pub cache: HashMap<u64, Arc<Directory>>,
    /// Logical version counter, monotone across group incarnations;
    /// stored with every directory ("sequence number", Fig. 4/§3).
    pub update_seq: u64,
    /// Applied cursor of the replicated state machine: the last group
    /// sequence number whose effect is reflected in `table`/`cache`.
    /// Updated in the same critical section as the state mutation, so
    /// a state-transfer snapshot is always consistent with it.
    pub applied_group_seq: u64,
    pub commit: CommitBlock,
    pub next_nv_uid: u64,
    /// Virtual time of the last applied update (drives idle flushing).
    pub last_update_at: amoeba_sim::SimTime,
    /// Completion records of keyed creates and installs
    /// (`key → object`): the idempotency memory of the cross-shard
    /// two-step protocols (see [`crate::ShardMap`]). Replicated state —
    /// travels in snapshots; deleting a directory deletes its records.
    pub completions: HashMap<u64, u64>,
    /// Forwarding stubs of migrated-away directories
    /// (`object → new location`). The object's table entry is *kept*
    /// (its number stays reserved and its check still validates old
    /// capabilities); its contents and Bullet file are gone. Replicated
    /// state — travels in snapshots with the entry's check/seqno; like
    /// completions, lost only if every replica boots from a salvaged
    /// disk in the same window.
    pub stubs: HashMap<u64, StubEntry>,
    /// Per-directory operation counts since the last drain — advisory,
    /// replica-local load signal for the rebalancer (never replicated,
    /// never deterministic across replicas: reads count only where they
    /// are served).
    pub heat: HashMap<u64, u64>,
    /// Outstanding client read leases (`object → holders`). Replicated
    /// state — grants travel through the total order (a replica-local
    /// grant would be invisible to a write initiated at another
    /// replica, breaking the cache fence) and in snapshots, with
    /// deadlines chosen by the granting initiator in global simulated
    /// time so apply stays deterministic.
    pub rleases: HashMap<u64, Vec<ReadLease>>,
    /// Leases revoked by applied mutations, parked here until an
    /// initiator thread on *this* machine fans out the invalidation
    /// callbacks before acknowledging its write. Advisory and
    /// replica-local (every replica applies the same revocation; only
    /// the writer's machine must act on it), never snapshotted; entries
    /// whose deadline passed are pruned on apply.
    pub revoked: HashMap<u64, Vec<ReadLease>>,
    /// Invalidation fan-outs in flight per object on this machine: a
    /// second writer to the same object must not acknowledge before a
    /// racing writer's fan-out (which may cover leases the second
    /// writer's apply no longer sees) completes.
    pub inflight_inval: HashMap<u64, u32>,
    /// Simulated-time µs before which no write may be acknowledged:
    /// set after booting from salvaged non-empty local state, when the
    /// replicated lease table (volatile, never on disk) may have been
    /// lost while clients still hold live leases. Waiting out one
    /// maximum lease closes the fence hole; `0` means no fence.
    pub write_fence_until_us: u64,
}

/// One outstanding client read lease over a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReadLease {
    /// The holding client's unique cache identity.
    pub owner: u64,
    /// Raw port of the holder's invalidation listener.
    pub cb_port: u64,
    /// Absolute expiry in simulated microseconds.
    pub deadline_us: u64,
    /// The lease's granted duration in microseconds; a piggybacked
    /// renewal extends the deadline by this much.
    pub ttl_us: u64,
    /// Remaining piggybacked renewals. When a write revokes this lease,
    /// a successor lease (deadline extended by `ttl_us`, budget
    /// decremented) is reinstated as long as the budget is positive, so
    /// the holder's post-invalidation refetch can be served off the read
    /// path instead of a full group round (see
    /// [`crate::config::DirParams::lease_renewals`]).
    pub renewals_left: u32,
}

/// Where a migrated directory went (see [`Shared::stubs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StubEntry {
    /// Raw port of the shard the directory now lives on.
    pub to_port: u64,
    /// Object number at that shard.
    pub to_object: u64,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("mode", &self.mode)
            .field("update_seq", &self.update_seq)
            .field("applied_group_seq", &self.applied_group_seq)
            .finish()
    }
}

impl Shared {
    pub fn new(table: ObjectTable, n: usize) -> Shared {
        Shared {
            mode: Mode::Recovering,
            table,
            cache: HashMap::new(),
            update_seq: 0,
            applied_group_seq: 0,
            commit: CommitBlock::initial(n),
            next_nv_uid: 1,
            last_update_at: amoeba_sim::SimTime::ZERO,
            completions: HashMap::new(),
            stubs: HashMap::new(),
            heat: HashMap::new(),
            rleases: HashMap::new(),
            revoked: HashMap::new(),
            inflight_inval: HashMap::new(),
            write_fence_until_us: 0,
        }
    }

    /// Moves every lease covering `object` into the revoked parking lot
    /// (called at apply time for each mutated object, inside the same
    /// critical section as the mutation — ordered in the total order).
    ///
    /// Piggybacked renewal: each revoked lease with remaining budget
    /// leaves a successor lease behind, extended by its own `ttl_us`.
    /// The successor is derived purely from replicated state (no clock),
    /// so every replica reinstates identically; the extension means the
    /// holder's refetch after the invalidation callback can be served
    /// under the still-registered lease without another group round. An
    /// already-expired lease yields a successor that is itself expired
    /// (or nearly so) and gets pruned at the next grant; the budget
    /// bounds how long a crashed holder can keep taxing writers.
    pub fn revoke_leases(&mut self, object: u64) {
        if let Some(leases) = self.rleases.remove(&object) {
            let successors: Vec<ReadLease> = leases
                .iter()
                .filter(|l| l.renewals_left > 0)
                .map(|l| ReadLease {
                    owner: l.owner,
                    cb_port: l.cb_port,
                    deadline_us: l.deadline_us.saturating_add(l.ttl_us),
                    ttl_us: l.ttl_us,
                    renewals_left: l.renewals_left - 1,
                })
                .collect();
            if !successors.is_empty() {
                self.rleases.insert(object, successors);
            }
            self.revoked.entry(object).or_default().extend(leases);
        }
    }
}

/// Everything a server needs to validate and apply operations.
pub(crate) struct Applier {
    pub cfg: ServiceConfig,
    pub storage: StorageKind,
    pub shared: Arc<Mutex<Shared>>,
    pub bullet: BulletClient,
    pub partition: RawPartition,
    pub nvram: Option<Nvram>,
    /// The group log's journal, when the journaled commit path is on
    /// (`DirParams::journal`): flushes append one sequential record
    /// here and a background checkpointer drains the dirty set into the
    /// table. `None` keeps the in-place flush.
    pub journal: Option<Journal>,
    /// Upper bound on granted read-lease durations, in simulated
    /// microseconds ([`crate::config::DirParams::max_lease`]): bounds
    /// how long a write can stall on an unreachable lease holder.
    pub max_lease_us: u64,
    /// Piggybacked renewals budgeted per grant
    /// ([`crate::config::DirParams::lease_renewals`]); identical on
    /// every replica, so apply-time reinstatement is deterministic.
    pub lease_renewals: u32,
}

impl std::fmt::Debug for Applier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Applier(server {})", self.cfg.me)
    }
}

/// Validation outcome carrying the directory's object number.
pub(crate) fn validate_dir_cap(
    shared: &Shared,
    public_port: Port,
    cap: &Capability,
    need: Rights,
) -> Result<u64, DirError> {
    if cap.port != public_port {
        return Err(DirError::BadCapability);
    }
    let entry = shared
        .table
        .get(cap.object)
        .ok_or(DirError::BadCapability)?;
    if !cap.validate(entry.check) {
        return Err(DirError::BadCapability);
    }
    if !cap.rights.covers(need) {
        return Err(DirError::NoPermission);
    }
    Ok(cap.object)
}

/// [`Applier::restrict_for_holder`] with the lock already held (the
/// plan phase runs inside the shared-state critical section).
fn restrict_with(
    shared: &Shared,
    public_port: Port,
    stored: &Capability,
    eff: Rights,
) -> Capability {
    if stored.port == public_port {
        if let Some(entry) = shared.table.get(stored.object) {
            return Capability::issue(public_port, stored.object, entry.check, eff);
        }
    }
    *stored
}

fn structure_err(e: DirStructureError) -> DirError {
    match e {
        DirStructureError::DuplicateName => DirError::DuplicateName,
        DirStructureError::NoSuchName => DirError::NoSuchName,
        DirStructureError::ColumnMismatch => DirError::ColumnMismatch,
    }
}

/// Rebuilds a full directory from an [`DirOp::InstallDir`]'s carried
/// contents, re-validating the structural invariants (a forged install
/// must not plant an undecodable directory).
fn build_directory(
    columns: &[String],
    rows: &[Row],
    useq: u64,
) -> Result<Arc<Directory>, DirError> {
    if !(1..=4).contains(&columns.len()) {
        return Err(DirError::Malformed);
    }
    let mut dir = Directory::new(columns.to_vec());
    for row in rows {
        dir.append_row(row.name.clone(), row.cap, row.col_rights.clone())
            .map_err(structure_err)?;
    }
    dir.seqno = useq;
    Ok(Arc::new(dir))
}

/// Publishes `dir` — the copy an update just edited, or a freshly built
/// directory — as `object`'s next version: stamped with the update's
/// seq, installed in the RAM cache, and handed to the disk path by the
/// returned effect. All three hold the same allocation.
fn publish(shared: &mut Shared, object: u64, mut dir: Arc<Directory>, useq: u64) -> Effect {
    Arc::make_mut(&mut dir).seqno = useq;
    shared.cache.insert(object, Arc::clone(&dir));
    Effect::StoreDir { object, dir }
}

/// The snapshot a read lease covers: the rows the holder of `cap` can
/// see, restricted exactly as `LookupSet` would restrict them. Rows the
/// holder has no effective rights over are omitted — a cached lookup of
/// their name answers `None`, just like the server would.
fn lease_snapshot(
    shared: &Shared,
    public_port: Port,
    dir: &Directory,
    cap: &Capability,
    deadline_us: u64,
    renewed: bool,
) -> DirReply {
    let rows = dir
        .rows
        .iter()
        .filter_map(|row| {
            let eff = dir.effective_rights(row, cap.rights);
            if eff == Rights::NONE {
                return None;
            }
            Some(Row {
                name: row.name.clone(),
                cap: restrict_with(shared, public_port, &row.cap, eff),
                col_rights: visible_masks(&row.col_rights, cap.rights),
            })
        })
        .collect();
    DirReply::Snapshot {
        seqno: dir.seqno,
        deadline_us,
        renewed,
        columns: dir.columns.clone(),
        rows,
    }
}

/// Storage effects produced by the deterministic plan phase.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Persist this version (the one the RAM cache holds).
    StoreDir {
        object: u64,
        dir: Arc<Directory>,
    },
    DropDir {
        object: u64,
        old_file: FileCap,
    },
    /// A migration tombstone: persist the kept (contentless) table
    /// entry and free the directory's Bullet file.
    StoreStub {
        object: u64,
        old_file: FileCap,
    },
}

impl Effect {
    /// The object the effect concerns.
    pub(crate) fn object(&self) -> u64 {
        match self {
            Effect::StoreDir { object, .. }
            | Effect::DropDir { object, .. }
            | Effect::StoreStub { object, .. } => *object,
        }
    }
}

/// The object an op concerns (NVRAM record tag).
pub(crate) fn op_object(op: &DirOp) -> u64 {
    match op {
        DirOp::Create { .. } | DirOp::CreateKeyed { .. } | DirOp::InstallDir { .. } => 0,
        DirOp::Delete { object }
        | DirOp::Append { object, .. }
        | DirOp::Chmod { object, .. }
        | DirOp::DeleteRow { object, .. }
        | DirOp::AppendLink { object, .. }
        | DirOp::Unlink { object, .. }
        | DirOp::InstallStub { object, .. } => *object,
        DirOp::GrantRead { cap, .. } => cap.object,
        DirOp::ReplaceSet { items } => items.first().map(|(o, _, _)| *o).unwrap_or(0),
    }
}

/// The masks of the columns a holder with `rights` sees.
fn visible_masks(masks: &[Rights], rights: Rights) -> Vec<Rights> {
    masks
        .iter()
        .enumerate()
        .filter(|(i, _)| rights.sees_column(*i))
        .map(|(_, m)| *m)
        .collect()
}

/// An NVRAM record is the update seq, then the op as a byte string.
fn decode_nv_record(data: &[u8]) -> Option<(u64, DirOp)> {
    let (useq, op) = <(u64, Payload)>::decode(data).ok()?;
    Some((useq, DirOp::decode(&op).ok()?))
}

impl Applier {
    /// Fetches a directory's current version: RAM cache, else its
    /// Bullet file.
    pub fn load_dir(&self, ctx: &Ctx, object: u64) -> Result<Arc<Directory>, DirError> {
        {
            let shared = self.shared.lock();
            if let Some(d) = shared.cache.get(&object) {
                return Ok(Arc::clone(d));
            }
        }
        let entry = {
            let shared = self.shared.lock();
            shared.table.get(object).ok_or(DirError::BadCapability)?
        };
        let bytes = self
            .bullet
            .read(ctx, entry.file_cap)
            .map_err(|_| DirError::Internal)?;
        let dir = Arc::new(Directory::decode(&bytes).map_err(|_| DirError::Internal)?);
        let mut shared = self.shared.lock();
        shared.cache.insert(object, Arc::clone(&dir));
        Ok(dir)
    }

    /// Pre-loads the directories `op` touches into the RAM cache
    /// (Bullet reads must happen outside the lock; after a reboot the
    /// cache starts cold).
    pub(crate) fn preload_for(&self, ctx: &Ctx, op: &DirOp) {
        match op {
            DirOp::ReplaceSet { items } => {
                for (object, _, _) in items {
                    let _ = self.load_dir(ctx, *object);
                }
            }
            _ => {
                let object = op_object(op);
                if object != 0 {
                    let _ = self.load_dir(ctx, object);
                }
            }
        }
    }

    /// NVRAM commit path for one applied op: log it (and annihilate what
    /// the log no longer needs, §4.1). The group-commit flush is the
    /// log append itself — durable immediately, applied to disk lazily.
    pub(crate) fn commit_nvram(&self, ctx: &Ctx, useq: u64, op: &DirOp) {
        if let DirOp::Delete { object } = op {
            // Pending records of a deleted directory are moot,
            // but the delete itself must be logged.
            let nvram = self.nvram.as_ref().expect("nvram storage");
            let _ = nvram.annihilate(|r| r.tag == *object);
        }
        // Every modification is logged (and charged) — then a
        // delete whose append is still in the log annihilates
        // *both* records, so neither ever costs a disk operation
        // (§4.1). The NVRAM write itself is still paid, which is
        // what bounds the paper's Fig. 9 at ~45 pairs/s.
        self.log_op(ctx, useq, op_object(op), op);
        if let DirOp::DeleteRow { object, name } = op {
            self.try_annihilate_pair(*object, name);
        }
    }

    /// Computes the new state and storage effects for `op`. Must be
    /// deterministic: every replica runs this on the same state in the
    /// same order. `forced_seq` pins the update seq during NVRAM replay.
    ///
    /// `reply == false` is the caller's promise to drop the returned
    /// [`DirReply`] unread (a replica that did not initiate the op, a
    /// replay): the one arm whose answer costs something to build — the
    /// grant's snapshot — then returns a bare [`DirReply::Ok`] in its
    /// place. Nothing else may depend on the flag.
    pub(crate) fn plan(
        &self,
        shared: &mut Shared,
        op: &DirOp,
        forced_seq: Option<u64>,
        reply: bool,
    ) -> Result<(DirReply, Vec<Effect>, u64), DirError> {
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
        // A relocated directory answers every op with its new location
        // (checked *at apply time*, in the total order, so an op racing
        // the stub install lands deterministically on exactly one side).
        // InstallStub handles its own replay/forwarding cases below.
        if !matches!(op, DirOp::InstallStub { .. }) {
            let hit = match op {
                DirOp::ReplaceSet { items } => items
                    .iter()
                    .find_map(|(o, _, _)| shared.stubs.get(o).map(|s| (*o, *s))),
                _ => {
                    let object = op_object(op);
                    shared.stubs.get(&object).map(|s| (object, *s))
                }
            };
            if let Some((object, stub)) = hit {
                return Ok((
                    DirReply::Moved {
                        object,
                        to_port: stub.to_port,
                        to_object: stub.to_object,
                    },
                    Vec::new(),
                    useq,
                ));
            }
        }
        // Advisory write-load signal for the rebalancer.
        let hot = op_object(op);
        if hot != 0 {
            *shared.heat.entry(hot).or_insert(0) += 1;
        }
        match op {
            DirOp::Create { columns, check } => self.plan_create(shared, columns, *check, useq),
            DirOp::CreateKeyed {
                columns,
                check,
                key,
            } => {
                if let Some(&object) = shared.completions.get(key) {
                    if let Some(entry) = shared.table.get(object) {
                        // Replay of a completed create: hand back the
                        // original capability, change nothing.
                        let cap = Capability::owner(self.cfg.public_port, object, entry.check);
                        return Ok((DirReply::Cap(cap), Vec::new(), useq));
                    }
                }
                let planned = self.plan_create(shared, columns, *check, useq)?;
                if let DirReply::Cap(c) = &planned.0 {
                    shared.completions.insert(*key, c.object);
                }
                Ok(planned)
            }
            DirOp::Delete { object } => {
                let entry = shared.table.get(*object).ok_or(DirError::BadCapability)?;
                shared.table.clear(*object);
                shared.cache.remove(object);
                shared.completions.retain(|_, o| *o != *object);
                shared.commit.seqno = useq;
                Ok((
                    DirReply::Ok,
                    vec![Effect::DropDir {
                        object: *object,
                        old_file: entry.file_cap,
                    }],
                    useq,
                ))
            }
            DirOp::Append {
                object,
                name,
                cap,
                col_rights,
            } => {
                let mut dir = self.dir_for_plan(shared, *object)?;
                Arc::make_mut(&mut dir)
                    .append_row(name.clone(), *cap, col_rights.clone())
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored], useq))
            }
            DirOp::Chmod {
                object,
                name,
                col_rights,
            } => {
                let mut dir = self.dir_for_plan(shared, *object)?;
                Arc::make_mut(&mut dir)
                    .chmod_row(name, col_rights.clone())
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored], useq))
            }
            DirOp::DeleteRow { object, name } => {
                let mut dir = self.dir_for_plan(shared, *object)?;
                Arc::make_mut(&mut dir)
                    .delete_row(name)
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored], useq))
            }
            DirOp::AppendLink {
                object,
                name,
                cap,
                col_rights,
            } => {
                let mut dir = self.dir_for_plan(shared, *object)?;
                if let Some(row) = dir.find(name) {
                    // Idempotent replay of a completed link.
                    return if row.cap == *cap {
                        Ok((DirReply::Ok, Vec::new(), useq))
                    } else {
                        Err(DirError::DuplicateName)
                    };
                }
                Arc::make_mut(&mut dir)
                    .append_row(name.clone(), *cap, col_rights.clone())
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored], useq))
            }
            DirOp::Unlink { object, name } => {
                if shared.table.get(*object).is_none() {
                    // Directory already gone: nothing left to unlink.
                    return Ok((DirReply::Ok, Vec::new(), useq));
                }
                let mut dir = self.dir_for_plan(shared, *object)?;
                if dir.find(name).is_none() {
                    return Ok((DirReply::Ok, Vec::new(), useq));
                }
                Arc::make_mut(&mut dir)
                    .delete_row(name)
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored], useq))
            }
            DirOp::ReplaceSet { items } => {
                // Indivisible: validate everything, then mutate.
                let mut dirs: HashMap<u64, Arc<Directory>> = HashMap::new();
                for (object, name, _) in items {
                    if !dirs.contains_key(object) {
                        dirs.insert(*object, self.dir_for_plan(shared, *object)?);
                    }
                    if dirs[object].find(name).is_none() {
                        return Err(DirError::NoSuchName);
                    }
                }
                for (object, name, cap) in items {
                    // Copies each directory at its first replacement only.
                    let dir = Arc::make_mut(dirs.get_mut(object).expect("validated above"));
                    dir.replace_cap(name, *cap).expect("validated above");
                }
                let mut effects = Vec::new();
                let mut objs: Vec<u64> = dirs.keys().copied().collect();
                objs.sort_unstable();
                for object in objs {
                    let dir = dirs.remove(&object).expect("present");
                    effects.push(publish(shared, object, dir, useq));
                }
                Ok((DirReply::Ok, effects, useq))
            }
            DirOp::InstallDir {
                columns,
                rows,
                check,
                key,
            } => {
                let dir = build_directory(columns, rows, useq)?;
                if let Some(&object) = shared.completions.get(key) {
                    if let Some(entry) = shared.table.get(object) {
                        let cap = Capability::owner(self.cfg.public_port, object, entry.check);
                        if shared.stubs.contains_key(&object) {
                            // The copy itself migrated on; hand back its
                            // (stubbed) capability — the holder chases.
                            return Ok((DirReply::Cap(cap), Vec::new(), useq));
                        }
                        // Upsert: a retry after a Stale CAS carries newer
                        // contents — replace the dark copy wholesale.
                        let stored = publish(shared, object, dir, useq);
                        shared.table.set(
                            object,
                            ObjEntry {
                                file_cap: entry.file_cap,
                                seqno: useq,
                                check: entry.check,
                            },
                        );
                        return Ok((DirReply::Cap(cap), vec![stored], useq));
                    }
                }
                // Fresh install: allocate like a create, with the carried
                // contents and check (so relocated capabilities validate
                // unchanged), and record the migration key.
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
                shared.completions.insert(*key, object);
                let cap = Capability::owner(self.cfg.public_port, object, *check);
                Ok((DirReply::Cap(cap), vec![stored], useq))
            }
            DirOp::InstallStub {
                object,
                to_port,
                to_object,
                expected_seqno,
            } => {
                if let Some(stub) = shared.stubs.get(object) {
                    // Replay of a completed migration — or a different
                    // one won: both are answered without touching state.
                    return if stub.to_port == *to_port && stub.to_object == *to_object {
                        Ok((DirReply::Ok, Vec::new(), useq))
                    } else {
                        Ok((
                            DirReply::Moved {
                                object: *object,
                                to_port: stub.to_port,
                                to_object: stub.to_object,
                            },
                            Vec::new(),
                            useq,
                        ))
                    };
                }
                let entry = shared.table.get(*object).ok_or(DirError::BadCapability)?;
                // CAS: a concurrent update ordered since the export bumped
                // the seqno — fail Stale so the coordinator re-copies. A
                // contentless directory (NVRAM replay of an op that was
                // already accepted, after its pre-stub state was flushed
                // and the file freed) installs unconditionally: the CAS
                // was checked when the op was first ordered.
                if let Some(dir) = shared.cache.get(object) {
                    if dir.seqno != *expected_seqno {
                        return Err(DirError::Stale);
                    }
                }
                shared.stubs.insert(
                    *object,
                    StubEntry {
                        to_port: *to_port,
                        to_object: *to_object,
                    },
                );
                shared.cache.remove(object);
                shared.heat.remove(object);
                // Keep the entry: the object number stays reserved forever
                // and the check keeps validating old capabilities; the
                // contents (and their Bullet file) are gone.
                shared.table.set(
                    *object,
                    ObjEntry {
                        file_cap: FileCap::NULL,
                        seqno: useq,
                        check: entry.check,
                    },
                );
                // Like a delete, the migration "loses its file" (§3): the
                // commit block must record the update.
                shared.commit.seqno = useq;
                Ok((
                    DirReply::Ok,
                    vec![Effect::StoreStub {
                        object: *object,
                        old_file: entry.file_cap,
                    }],
                    useq,
                ))
            }
            DirOp::GrantRead {
                cap,
                owner,
                cb_port,
                now_us,
                deadline_us,
            } => {
                let object = validate_dir_cap(shared, self.cfg.public_port, cap, Rights::NONE)?;
                if !cap.rights.sees_any_column() {
                    return Err(DirError::NoPermission);
                }
                let dir = self.dir_for_plan(shared, object)?;
                // Prune expired holders deterministically (the op carries
                // the initiator's clock), then upsert this holder's lease.
                let leases = shared.rleases.entry(object).or_default();
                leases.retain(|l| l.deadline_us > *now_us && l.owner != *owner);
                leases.push(ReadLease {
                    owner: *owner,
                    cb_port: *cb_port,
                    deadline_us: *deadline_us,
                    ttl_us: deadline_us.saturating_sub(*now_us),
                    renewals_left: self.lease_renewals,
                });
                // Every replica registers the lease; only the one that
                // owes the holder an answer builds the snapshot.
                let granted = if reply {
                    lease_snapshot(shared, self.cfg.public_port, &dir, cap, *deadline_us, false)
                } else {
                    DirReply::Ok
                };
                Ok((granted, Vec::new(), useq))
            }
        }
    }

    /// The shared create logic of `Create` and `CreateKeyed`.
    fn plan_create(
        &self,
        shared: &mut Shared,
        columns: &[String],
        check: u64,
        useq: u64,
    ) -> Result<(DirReply, Vec<Effect>, u64), DirError> {
        if !(1..=4).contains(&columns.len()) {
            return Err(DirError::Malformed);
        }
        let object = shared.table.next_object();
        if object > shared.table.capacity() {
            return Err(DirError::Internal);
        }
        let dir = Arc::new(Directory::new(columns.to_vec()));
        let stored = publish(shared, object, dir, useq);
        shared.table.set(
            object,
            ObjEntry {
                file_cap: FileCap::NULL, // patched by the effect
                seqno: useq,
                check,
            },
        );
        let cap = Capability::owner(self.cfg.public_port, object, check);
        Ok((DirReply::Cap(cap), vec![stored], useq))
    }

    /// A directory's current version for planning: the RAM cache is
    /// authoritative during normal operation (it was populated at
    /// recovery/apply time). Shared, not copied — an arm that edits it
    /// goes through [`Arc::make_mut`], which makes the update's one copy.
    fn dir_for_plan(&self, shared: &Shared, object: u64) -> Result<Arc<Directory>, DirError> {
        if shared.table.get(object).is_none() {
            return Err(DirError::BadCapability);
        }
        shared.cache.get(&object).cloned().ok_or(DirError::Internal)
    }

    /// Disk-path storage effect.
    pub(crate) fn perform_disk(&self, ctx: &Ctx, effect: Effect) {
        match effect {
            Effect::StoreDir { object, dir } => {
                self.store_dir_to_disk(ctx, object, &dir);
            }
            Effect::DropDir { object, old_file } | Effect::StoreStub { object, old_file } => {
                // Directory deleted (or migrated away): persist the table
                // entry — cleared for a delete, kept-but-contentless for a
                // stub — and record the update in the commit block (the
                // op loses its file, §3), then free the Bullet file.
                // Enqueue under the lock, wait outside it.
                let waiter = { self.shared.lock().table.flush_begin(object) };
                if let Some(w) = waiter {
                    w.recv(ctx);
                }
                let cb = { self.shared.lock().commit.clone() };
                cb.write(&self.partition, ctx);
                if !old_file.is_null() {
                    let _ = self.bullet.delete(ctx, old_file);
                }
            }
        }
    }

    /// Disk path: new Bullet file + one object-table write (the paper's
    /// two disk operations per update).
    pub(crate) fn store_dir_to_disk(&self, ctx: &Ctx, object: u64, dir: &Directory) {
        let old = { self.shared.lock().table.get(object) };
        let new_file = match self.bullet.create(ctx, dir.encode()) {
            Ok(cap) => cap,
            Err(_) => return, // storage column down; recovery will resync
        };
        let waiter = {
            let mut shared = self.shared.lock();
            match shared.table.get(object) {
                Some(mut entry) => {
                    entry.file_cap = new_file;
                    entry.seqno = dir.seqno;
                    shared.table.set(object, entry);
                    shared.table.flush_begin(object)
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

    // ------------------------------------------------------------------
    // NVRAM commit path.
    // ------------------------------------------------------------------

    /// After a delete of (`object`, `name`) was logged: if the matching
    /// append is still in the log with no intervening record for the same
    /// row, remove both the append and the delete — neither will ever
    /// reach the disk (§4.1's `/tmp` effect).
    fn try_annihilate_pair(&self, object: u64, name: &str) -> bool {
        let nvram = self.nvram.as_ref().expect("nvram storage");
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
        match (append_uid, delete_uid) {
            (Some(a), Some(d)) => nvram.annihilate(|r| r.uid == a || r.uid == d) >= 2,
            _ => false,
        }
    }

    fn log_op(&self, ctx: &Ctx, useq: u64, tag: u64, op: &DirOp) {
        let uid = {
            let mut shared = self.shared.lock();
            let uid = shared.next_nv_uid;
            shared.next_nv_uid += 1;
            uid
        };
        self.append_with_flush(
            ctx,
            NvRecord {
                uid,
                tag,
                data: (useq, op.encode()).encode().to_vec(),
            },
        );
    }

    fn append_with_flush(&self, ctx: &Ctx, rec: NvRecord) {
        let nvram = self.nvram.as_ref().expect("nvram storage");
        if nvram.append(ctx, rec.clone()).is_err() {
            // Full: flush synchronously, then retry once.
            self.flush_nvram(ctx);
            let _ = nvram.append(ctx, rec);
        }
    }

    /// Applies logged records to disk and removes exactly those records.
    /// Runs in the background flusher and on demand when the device fills.
    pub fn flush_nvram(&self, ctx: &Ctx) {
        let nvram = match &self.nvram {
            Some(n) => n,
            None => return,
        };
        let records = nvram.snapshot();
        if records.is_empty() {
            return;
        }
        // The newest state per object is already in RAM; write each dirty
        // object's current version once.
        let mut dirty: Vec<u64> = records.iter().map(|r| r.tag).collect();
        dirty.sort_unstable();
        dirty.dedup();
        for object in dirty {
            if object == 0 {
                continue; // creates are flushed via their directory object
            }
            let dir = { self.shared.lock().cache.get(&object).cloned() };
            let live = { self.shared.lock().table.get(object).is_some() };
            match (dir, live) {
                (Some(dir), true) => self.store_dir_to_disk(ctx, object, &dir),
                _ => {
                    // Deleted since: persist the cleared entry + commit.
                    let waiter = { self.shared.lock().table.flush_begin(object) };
                    if let Some(w) = waiter {
                        w.recv(ctx);
                    }
                    let cb = { self.shared.lock().commit.clone() };
                    cb.write(&self.partition, ctx);
                }
            }
        }
        // Creates (tag 0) are covered by the object they created: replaying
        // them against the flushed table is a no-op because the object is
        // present; remove all processed records.
        let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.uid).collect();
        let _ = nvram.annihilate(|r| ids.contains(&r.uid));
    }

    /// Replays NVRAM records into RAM state after a reboot (records stay
    /// in the device for the flusher). Returns the highest update seq.
    ///
    /// Creates logged with tag 0 re-run the deterministic allocator, so a
    /// replayed create lands on the same object number it had originally.
    pub fn replay_nvram(&self, ctx: &Ctx) -> u64 {
        let nvram = match &self.nvram {
            Some(n) => n,
            None => return 0,
        };
        let mut max_seq = 0;
        for rec in nvram.snapshot() {
            if let Some((useq, op)) = decode_nv_record(&rec.data) {
                // For ops against directories not yet cached, pull the
                // on-disk version first so the mutation applies cleanly.
                let needs = op_object(&op);
                if needs != 0 {
                    let _ = self.load_dir(ctx, needs);
                }
                let mut shared = self.shared.lock();
                let _ = self.plan(&mut shared, &op, Some(useq), false);
                max_seq = max_seq.max(useq);
            }
        }
        max_seq
    }

    // ------------------------------------------------------------------
    // Read path.
    // ------------------------------------------------------------------

    /// Serves a read against local state (initiator thread, paper Fig. 5
    /// read path). Assumes the caller has already drained buffered
    /// updates.
    pub fn serve_read(&self, ctx: &Ctx, req: &DirRequest) -> DirReply {
        match req {
            DirRequest::ListDir { cap } => {
                let object = {
                    let mut shared = self.shared.lock();
                    let object =
                        match validate_dir_cap(&shared, self.cfg.public_port, cap, Rights::NONE) {
                            Ok(o) => o,
                            Err(e) => return DirReply::Err(e),
                        };
                    if let Some(stub) = shared.stubs.get(&object) {
                        return DirReply::Moved {
                            object,
                            to_port: stub.to_port,
                            to_object: stub.to_object,
                        };
                    }
                    *shared.heat.entry(object).or_insert(0) += 1;
                    object
                };
                if !cap.rights.sees_any_column() {
                    return DirReply::Err(DirError::NoPermission);
                }
                let dir = match self.load_dir(ctx, object) {
                    Ok(d) => d,
                    Err(e) => return DirReply::Err(e),
                };
                let rows = dir
                    .rows
                    .iter()
                    .map(|row| {
                        let eff = dir.effective_rights(row, cap.rights);
                        Row {
                            name: row.name.clone(),
                            cap: self.restrict_for_holder(&row.cap, eff),
                            col_rights: visible_masks(&row.col_rights, cap.rights),
                        }
                    })
                    .collect();
                DirReply::Listing {
                    columns: dir.columns.clone(),
                    rows,
                }
            }
            DirRequest::LookupSet { items } => {
                let mut out = Vec::with_capacity(items.len());
                for (cap, name) in items {
                    let object = {
                        let mut shared = self.shared.lock();
                        let object =
                            validate_dir_cap(&shared, self.cfg.public_port, cap, Rights::NONE);
                        if let Ok(o) = object {
                            // A relocated directory forwards the whole
                            // call: the client learns the hint, re-routes
                            // this item and retries.
                            if let Some(stub) = shared.stubs.get(&o) {
                                return DirReply::Moved {
                                    object: o,
                                    to_port: stub.to_port,
                                    to_object: stub.to_object,
                                };
                            }
                            *shared.heat.entry(o).or_insert(0) += 1;
                        }
                        object
                    };
                    let resolved = match object {
                        Ok(object) if cap.rights.sees_any_column() => {
                            match self.load_dir(ctx, object) {
                                Ok(dir) => dir.find(name).and_then(|row| {
                                    let eff = dir.effective_rights(row, cap.rights);
                                    if eff == Rights::NONE {
                                        None
                                    } else {
                                        Some(self.restrict_for_holder(&row.cap, eff))
                                    }
                                }),
                                Err(_) => None,
                            }
                        }
                        _ => None,
                    };
                    out.push(resolved);
                }
                DirReply::Caps(out)
            }
            DirRequest::ExportDir { cap } => {
                // Migration's copy source: full contents plus the raw
                // check. Owner-only — the owner capability's check field
                // already *is* the raw check, so nothing new is leaked.
                let (object, check) = {
                    let shared = self.shared.lock();
                    let object =
                        match validate_dir_cap(&shared, self.cfg.public_port, cap, Rights::ALL) {
                            Ok(o) => o,
                            Err(e) => return DirReply::Err(e),
                        };
                    if let Some(stub) = shared.stubs.get(&object) {
                        return DirReply::Moved {
                            object,
                            to_port: stub.to_port,
                            to_object: stub.to_object,
                        };
                    }
                    let entry = shared.table.get(object).expect("validated above");
                    (object, entry.check)
                };
                let dir = match self.load_dir(ctx, object) {
                    Ok(d) => d,
                    Err(e) => return DirReply::Err(e),
                };
                DirReply::Export {
                    check,
                    seqno: dir.seqno,
                    columns: dir.columns.clone(),
                    rows: dir.rows.clone(),
                }
            }
            _ => DirReply::Err(DirError::Malformed),
        }
    }

    /// Restricts a stored capability to the holder's effective rights.
    /// Own-service capabilities are re-issued with a correct check field;
    /// foreign capabilities are returned as stored (only their service
    /// could recompute the check).
    fn restrict_for_holder(&self, stored: &Capability, eff: Rights) -> Capability {
        let shared = self.shared.lock();
        restrict_with(&shared, self.cfg.public_port, stored, eff)
    }

    /// Whether `owner`'s registered lease on the directory `cap` names is
    /// still worth serving a renewal off: live, not relocated, and with at
    /// least half the requested TTL remaining (a nearly-expired successor
    /// would only buy the client an immediate refetch, so it takes the
    /// full grant round instead). The cheap pre-check of the piggybacked
    /// renewal fast path — the caller runs the read barrier before
    /// actually serving.
    pub fn has_renewable_lease(
        &self,
        ctx: &Ctx,
        cap: &Capability,
        owner: u64,
        ttl_us: u64,
    ) -> bool {
        let shared = self.shared.lock();
        let object = match validate_dir_cap(&shared, self.cfg.public_port, cap, Rights::NONE) {
            Ok(o) => o,
            Err(_) => return false,
        };
        if !cap.rights.sees_any_column() || shared.stubs.contains_key(&object) {
            return false;
        }
        let now_us = ctx.now().as_nanos() / 1_000;
        let min_left = ttl_us.max(1).min(self.max_lease_us) / 2;
        shared.rleases.get(&object).is_some_and(|ls| {
            ls.iter()
                .any(|l| l.owner == owner && l.deadline_us > now_us + min_left)
        })
    }

    /// The piggybacked-renewal fast path of `FetchDir`: the holder still
    /// has a live registered lease on the directory (the write that
    /// revoked its previous lease reinstated a successor under the
    /// grant's renewal budget), so the snapshot is served off the read
    /// path under that lease's deadline — no group round, no new grant.
    /// The caller has already drained the read barrier, so the local
    /// state is at least as new as any acknowledged write. Returns `None`
    /// when the lease vanished since the pre-check (expired, relocated,
    /// revoked without budget); the caller falls back to the full
    /// `GrantRead` round.
    pub fn serve_renewed_fetch(
        &self,
        ctx: &Ctx,
        cap: &Capability,
        owner: u64,
        ttl_us: u64,
    ) -> Option<DirReply> {
        let (object, deadline_us) = {
            let mut shared = self.shared.lock();
            let object = validate_dir_cap(&shared, self.cfg.public_port, cap, Rights::NONE).ok()?;
            if !cap.rights.sees_any_column() || shared.stubs.contains_key(&object) {
                return None;
            }
            let now_us = ctx.now().as_nanos() / 1_000;
            let min_left = ttl_us.max(1).min(self.max_lease_us) / 2;
            let deadline_us = shared
                .rleases
                .get(&object)?
                .iter()
                .filter(|l| l.owner == owner && l.deadline_us > now_us + min_left)
                .map(|l| l.deadline_us)
                .max()?;
            *shared.heat.entry(object).or_insert(0) += 1;
            (object, deadline_us)
        };
        let dir = self.load_dir(ctx, object).ok()?;
        // The same snapshot the `GrantRead` apply path answers with.
        let shared = self.shared.lock();
        let port = self.cfg.public_port;
        Some(lease_snapshot(&shared, port, &dir, cap, deadline_us, true))
    }

    /// Initiator-side validation and translation of a client write into
    /// the replicated op (paper: the check field for a create is chosen
    /// here).
    pub fn prepare_write(&self, ctx: &Ctx, req: &DirRequest) -> Result<DirOp, DirError> {
        let shared = self.shared.lock();
        let port = self.cfg.public_port;
        match req {
            DirRequest::CreateDir { columns } => {
                if !(1..=4).contains(&columns.len()) {
                    return Err(DirError::Malformed);
                }
                let check = ctx.with_rng(|r| r.next_u64()) | 1;
                Ok(DirOp::Create {
                    columns: columns.clone(),
                    check,
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
            } => {
                let object = validate_dir_cap(&shared, port, dir, Rights::MODIFY)?;
                Ok(DirOp::Append {
                    object,
                    name: name.clone(),
                    cap: *cap,
                    col_rights: col_rights.clone(),
                })
            }
            DirRequest::ChmodRow {
                dir,
                name,
                col_rights,
            } => {
                let object = validate_dir_cap(&shared, port, dir, Rights::MODIFY)?;
                Ok(DirOp::Chmod {
                    object,
                    name: name.clone(),
                    col_rights: col_rights.clone(),
                })
            }
            DirRequest::DeleteRow { dir, name } => {
                let object = validate_dir_cap(&shared, port, dir, Rights::MODIFY)?;
                Ok(DirOp::DeleteRow {
                    object,
                    name: name.clone(),
                })
            }
            DirRequest::ReplaceSet { items } => {
                let mut out = Vec::with_capacity(items.len());
                for (dir, name, cap) in items {
                    let object = validate_dir_cap(&shared, port, dir, Rights::MODIFY)?;
                    out.push((object, name.clone(), *cap));
                }
                Ok(DirOp::ReplaceSet { items: out })
            }
            DirRequest::CreateKeyed { columns, key } => {
                if !(1..=4).contains(&columns.len()) {
                    return Err(DirError::Malformed);
                }
                // The check only takes effect the first time the key is
                // seen; replays return the original capability.
                let check = ctx.with_rng(|r| r.next_u64()) | 1;
                Ok(DirOp::CreateKeyed {
                    columns: columns.clone(),
                    check,
                    key: *key,
                })
            }
            DirRequest::AppendLink {
                dir,
                name,
                cap,
                col_rights,
            } => {
                let object = validate_dir_cap(&shared, port, dir, Rights::MODIFY)?;
                Ok(DirOp::AppendLink {
                    object,
                    name: name.clone(),
                    cap: *cap,
                    col_rights: col_rights.clone(),
                })
            }
            DirRequest::Unlink { dir, name } => {
                let object = validate_dir_cap(&shared, port, dir, Rights::MODIFY)?;
                Ok(DirOp::Unlink {
                    object,
                    name: name.clone(),
                })
            }
            DirRequest::InstallDir {
                columns,
                rows,
                check,
                key,
            } => {
                if !(1..=4).contains(&columns.len())
                    || rows.iter().any(|r| r.col_rights.len() != columns.len())
                {
                    return Err(DirError::Malformed);
                }
                Ok(DirOp::InstallDir {
                    columns: columns.clone(),
                    rows: rows.clone(),
                    check: *check,
                    key: *key,
                })
            }
            DirRequest::InstallStub {
                dir,
                to_port,
                to_object,
                expected_seqno,
            } => {
                let object = validate_dir_cap(&shared, port, dir, Rights::ALL)?;
                Ok(DirOp::InstallStub {
                    object,
                    to_port: *to_port,
                    to_object: *to_object,
                    expected_seqno: *expected_seqno,
                })
            }
            DirRequest::FetchDir {
                cap,
                owner,
                cb_port,
                ttl_us,
            } => {
                let _ = validate_dir_cap(&shared, port, cap, Rights::NONE)?;
                if !cap.rights.sees_any_column() {
                    return Err(DirError::NoPermission);
                }
                // The grant's clock is fixed here, by the initiator, and
                // carried in the op: simulated time is global, so every
                // replica applies the same deadline — apply itself never
                // reads a clock.
                let now_us = ctx.now().as_nanos() / 1_000;
                let ttl = (*ttl_us).max(1).min(self.max_lease_us);
                Ok(DirOp::GrantRead {
                    cap: *cap,
                    owner: *owner,
                    cb_port: *cb_port,
                    now_us,
                    deadline_us: now_us + ttl,
                })
            }
            DirRequest::ListDir { .. }
            | DirRequest::LookupSet { .. }
            | DirRequest::ExportDir { .. } => Err(DirError::Malformed),
        }
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
        assert_eq!(hex(&(5, delete.encode()).encode()), golden);
        assert_eq!(decode_nv_record(&unhex(golden)), Some((5, delete)));
        let trailing = [&unhex(golden)[..], &[0]].concat();
        assert_eq!(decode_nv_record(&trailing), None, "a byte too many");
    }
}
