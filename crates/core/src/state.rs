//! The replica state machine shared by every server implementation:
//! validation, deterministic apply, and storage effects.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use amoeba_bullet::{BulletClient, FileCap};
use amoeba_disk::{NvRecord, Nvram, RawPartition};
use amoeba_flip::wire::{encode_with, Wire, WireWriter};
use amoeba_flip::{wire_struct, Payload, Port};
use amoeba_sim::{Ctx, IdMap, IdSet};

use crate::capability::Capability;
use crate::commit_block::CommitBlock;
use crate::config::{DirParams, ServiceConfig, Storage};
use crate::directory::{put_row, DirStructureError, Directory, Row, COLUMNS, ROWS};
use crate::object_table::{ObjEntry, ObjectTable};
use crate::ops::{put_snapshot_head, DirError, DirOp, DirReply, DirRequest};
use crate::rights::Rights;

/// Mutable replica state. Borrow discipline: never hold the borrow across
/// a blocking simulator call.
pub(crate) struct Shared {
    pub table: ObjectTable,
    /// Authoritative in-RAM directory contents (the paper's RAM cache;
    /// lazily refilled from Bullet files after a reboot). Each entry is
    /// one immutable *version* of its directory: readers, the planner
    /// and the deferred disk effects share it, and an update publishes
    /// the next version — the one copy it edited — in its place.
    pub cache: IdMap<u64, Rc<Directory>>,
    /// The objects the batch being applied or flushed has changed: the
    /// first group seq that changed each and, while every change only
    /// edited rows, its durable version from before the batch. Filled
    /// and emptied by the replicated machine (see `dir_sm`); the read
    /// rule ([`Applier::settle`]) keeps reads off what it lists.
    pub unflushed: IdMap<u64, (u64, Option<Rc<Directory>>)>,
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
    /// Completion records of keyed creates and installs
    /// (`key → object`): the idempotency memory of the cross-shard
    /// two-step protocols (see [`crate::ShardMap`]). Replicated state —
    /// travels in snapshots; deleting a directory deletes its records.
    /// Keyed by a key the request carries, so hashed with `RandomState`.
    pub completions: HashMap<u64, u64>,
    /// Forwarding stubs of migrated-away directories
    /// (`object → new location`). The object's table entry is *kept*
    /// (its number stays reserved and its check still validates old
    /// capabilities); its contents and Bullet file are gone. Replicated
    /// state — travels in snapshots with the entry's check/seqno; like
    /// completions, lost only if every replica boots from a salvaged
    /// disk in the same window.
    pub stubs: IdMap<u64, StubEntry>,
    /// Per-directory operation counts since the last drain — advisory,
    /// replica-local load signal for the rebalancer (never replicated,
    /// never deterministic across replicas: reads count only where they
    /// are served).
    pub heat: IdMap<u64, u64>,
    /// Outstanding client read leases (`object → holders`). Replicated
    /// state — grants travel through the total order (a replica-local
    /// grant would be invisible to a write initiated at another
    /// replica, breaking the cache fence) and in snapshots, with
    /// deadlines chosen by the granting initiator in global simulated
    /// time so apply stays deterministic.
    pub rleases: IdMap<u64, Vec<ReadLease>>,
    /// Leases revoked by applied mutations, parked here until an
    /// initiator thread on *this* machine fans out the invalidation
    /// callbacks before acknowledging its write. Advisory and
    /// replica-local (every replica applies the same revocation; only
    /// the writer's machine must act on it), never snapshotted; entries
    /// whose deadline passed are pruned on apply.
    pub revoked: IdMap<u64, Vec<ReadLease>>,
    /// Invalidation fan-outs in flight per object on this machine: a
    /// second writer to the same object must not acknowledge before a
    /// racing writer's fan-out (which may cover leases the second
    /// writer's apply no longer sees) completes.
    pub inflight_inval: IdMap<u64, u32>,
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
    /// Port of the holder's invalidation listener.
    pub cb_port: Port,
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

wire_struct! {
    /// Where a migrated directory went (see [`Shared::stubs`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct StubEntry {
        /// Port of the shard the directory now lives on.
        pub to_port: Port,
        /// Object number at that shard.
        pub to_object: u64,
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("update_seq", &self.update_seq)
            .field("applied_group_seq", &self.applied_group_seq)
            .finish()
    }
}

impl Shared {
    pub fn new(table: ObjectTable, n: usize) -> Shared {
        Shared {
            table,
            cache: IdMap::default(),
            unflushed: IdMap::default(),
            update_seq: 0,
            applied_group_seq: 0,
            commit: CommitBlock::initial(n),
            next_nv_uid: 1,
            completions: HashMap::new(),
            stubs: IdMap::default(),
            heat: IdMap::default(),
            rleases: IdMap::default(),
            revoked: IdMap::default(),
            inflight_inval: IdMap::default(),
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
    pub shared: Rc<RefCell<Shared>>,
    pub bullet: BulletClient,
    pub partition: RawPartition,
    /// The commit path with its device, the one value every storage
    /// hook matches.
    pub storage: Storage,
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

impl Applier {
    /// An applier over cold RAM state: an empty object table on `partition`.
    pub fn new(
        cfg: ServiceConfig,
        params: &DirParams,
        bullet: BulletClient,
        partition: RawPartition,
        storage: Storage,
    ) -> Applier {
        let table = ObjectTable::new(partition.clone());
        let shared = Rc::new(RefCell::new(Shared::new(table, cfg.n)));
        Applier {
            cfg,
            shared,
            bullet,
            partition,
            storage,
            max_lease_us: params.max_lease.as_micros() as u64,
            lease_renewals: params.lease_renewals,
        }
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

/// [`Applier::restrict_for_holder`] with the state already borrowed (the
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
fn build_directory(columns: &[String], rows: &[Row], useq: u64) -> Result<Rc<Directory>, DirError> {
    if !(1..=4).contains(&columns.len()) {
        return Err(DirError::Malformed);
    }
    let mut dir = Directory::new(columns.to_vec());
    for row in rows {
        dir.append_row(row.name.clone(), row.cap, row.col_rights.clone())
            .map_err(structure_err)?;
    }
    dir.seqno = useq;
    Ok(Rc::new(dir))
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

/// What the holder of `cap` is sent under a read lease ending at
/// `deadline_us`, as reply bytes. The lease covers the directory's
/// columns and the rows the holder can see, restricted exactly as
/// `LookupSet` would restrict them; rows the holder has no effective
/// rights over are omitted — a cached lookup of their name answers
/// `None`, just like the server would.
///
/// Their version is the FNV-1a digest of those bytes, so it names what
/// the holder keeps and nothing else: no counter of this replica's,
/// which a peer, or this replica after a crash, may have issued for
/// other contents. When it equals `have` (the holder's), the answer is
/// [`DirReply::Unchanged`]; else the [`DirReply::Snapshot`]. Written
/// straight from the shared version, so no restricted copy of a row is
/// ever built.
fn lease_reply(
    shared: &Shared,
    public_port: Port,
    dir: &Directory,
    cap: &Capability,
    have: u64,
    deadline_us: u64,
    renewed: bool,
) -> Payload {
    let visible = || {
        dir.rows.iter().filter_map(|row| {
            let eff = dir.effective_rights(row, cap.rights);
            (eff != Rights::NONE).then_some((row, eff))
        })
    };
    let n = visible().count();
    let put_leased = |w: &mut WireWriter| {
        COLUMNS.put(w, &dir.columns, String::put);
        ROWS.put_n(w, n, visible(), |(row, eff), w| {
            let restricted = restrict_with(shared, public_port, &row.cap, eff);
            put_row(
                w,
                &row.name,
                &restricted,
                visible_masks(&row.col_rights, cap.rights),
            );
        });
    };
    let mut digest = WireWriter::digesting();
    put_leased(&mut digest);
    // 0 is the "none" a fetch names when it keeps nothing.
    let version = digest.digest().expect("a digesting writer").max(1);
    if version == have {
        let unchanged = DirReply::Unchanged {
            deadline_us,
            renewed,
        };
        return unchanged.encode();
    }
    encode_with(|w| {
        put_snapshot_head(w, version, deadline_us, renewed);
        put_leased(w);
    })
}

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

/// The object an op concerns, 0 for a create (which names none before
/// it is applied).
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

/// Every directory an op concerns: each item's of a `ReplaceSet`, else
/// the one [`op_object`] names (none for a create).
pub(crate) fn op_objects(op: &DirOp) -> impl Iterator<Item = u64> + '_ {
    let (items, one) = match op {
        DirOp::ReplaceSet { items } => (&items[..], None),
        other => (&[][..], Some(op_object(other)).filter(|&o| o != 0)),
    };
    items.iter().map(|(o, _, _)| *o).chain(one)
}

/// The masks of the columns a holder with `rights` sees.
fn visible_masks(masks: &[Rights], rights: Rights) -> impl Iterator<Item = Rights> + Clone + '_ {
    masks
        .iter()
        .enumerate()
        .filter(move |(i, _)| rights.sees_column(*i))
        .map(|(_, m)| *m)
}

/// Where in the total order a read is served: it must see every op up
/// to `target` (the read barrier's) and nothing a crash could still lose.
pub(crate) struct ReadAt<'a> {
    pub target: u64,
    /// Blocks until the batch holding the given group seq is published.
    pub publish: &'a dyn Fn(u64) -> Result<(), DirError>,
}

impl ReadAt<'static> {
    /// A read on a server without a replica driver, whose `unflushed`
    /// map stays empty: it never waits.
    pub(crate) const LOCAL: ReadAt<'static> = ReadAt {
        target: u64::MAX,
        publish: &|_| Ok(()),
    };
}

impl<'a> ReadAt<'a> {
    /// The same read placed after every op: it waits until no batch in
    /// flight has changed its directory.
    fn latest(&self) -> ReadAt<'a> {
        ReadAt {
            target: u64::MAX,
            publish: self.publish,
        }
    }
}

/// An NVRAM record is the update seq, then the op as a byte string.
fn decode_nv_record(data: &[u8]) -> Option<(u64, DirOp)> {
    let (useq, op) = <(u64, Payload)>::decode(data).ok()?;
    Some((useq, DirOp::decode(&op).ok()?))
}

impl Applier {
    /// Fetches a directory's current version: RAM cache, else its
    /// Bullet file.
    pub fn load_dir(&self, ctx: &Ctx, object: u64) -> Result<Rc<Directory>, DirError> {
        {
            let shared = self.shared.borrow();
            if let Some(d) = shared.cache.get(&object) {
                return Ok(Rc::clone(d));
            }
        }
        let entry = {
            let shared = self.shared.borrow();
            shared.table.get(object).ok_or(DirError::BadCapability)?
        };
        let bytes = self
            .bullet
            .read(ctx, entry.file_cap)
            .map_err(|_| DirError::Internal)?;
        let dir = Rc::new(Directory::decode(&bytes).map_err(|_| DirError::Internal)?);
        let mut shared = self.shared.borrow_mut();
        shared.cache.insert(object, Rc::clone(&dir));
        Ok(dir)
    }

    /// Pre-loads the directories `op` touches into the RAM cache
    /// (Bullet reads must happen outside the borrow; after a reboot the
    /// cache starts cold).
    pub(crate) fn preload_for(&self, ctx: &Ctx, op: &DirOp) {
        for object in op_objects(op) {
            let _ = self.load_dir(ctx, object);
        }
    }

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
                let moved = DirReply::Moved {
                    object,
                    to_port: stub.to_port,
                    to_object: stub.to_object,
                };
                return Ok((answer(moved), Vec::new(), useq));
            }
        }
        // Advisory write-load signal for the rebalancer.
        let hot = op_object(op);
        if hot != 0 {
            *shared.heat.entry(hot).or_insert(0) += 1;
        }
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
            self.dir_for_plan(shared, object)?;
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
            return Ok((answer(DirReply::Ok), Vec::new(), useq));
        }
        let (reply_to, effects) = self.plan_update(shared, op, useq)?;
        Ok((answer(reply_to), effects, useq))
    }

    /// [`plan`](Applier::plan) for every op but a grant: the state change,
    /// its storage effects and the reply.
    fn plan_update(
        &self,
        shared: &mut Shared,
        op: &DirOp,
        useq: u64,
    ) -> Result<(DirReply, Vec<Effect>), DirError> {
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
                        return Ok((DirReply::Cap(cap), Vec::new()));
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
                ))
            }
            DirOp::Append {
                object,
                name,
                cap,
                col_rights,
            } => {
                let mut dir = self.dir_for_plan(shared, *object)?;
                Rc::make_mut(&mut dir)
                    .append_row(name.clone(), *cap, col_rights.clone())
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored]))
            }
            DirOp::Chmod {
                object,
                name,
                col_rights,
            } => {
                let mut dir = self.dir_for_plan(shared, *object)?;
                Rc::make_mut(&mut dir)
                    .chmod_row(name, col_rights.clone())
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored]))
            }
            DirOp::DeleteRow { object, name } => {
                let mut dir = self.dir_for_plan(shared, *object)?;
                Rc::make_mut(&mut dir)
                    .delete_row(name)
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored]))
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
                        Ok((DirReply::Ok, Vec::new()))
                    } else {
                        Err(DirError::DuplicateName)
                    };
                }
                Rc::make_mut(&mut dir)
                    .append_row(name.clone(), *cap, col_rights.clone())
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored]))
            }
            DirOp::Unlink { object, name } => {
                if shared.table.get(*object).is_none() {
                    // Directory already gone: nothing left to unlink.
                    return Ok((DirReply::Ok, Vec::new()));
                }
                let mut dir = self.dir_for_plan(shared, *object)?;
                if dir.find(name).is_none() {
                    return Ok((DirReply::Ok, Vec::new()));
                }
                Rc::make_mut(&mut dir)
                    .delete_row(name)
                    .map_err(structure_err)?;
                let stored = publish(shared, *object, dir, useq);
                Ok((DirReply::Ok, vec![stored]))
            }
            DirOp::ReplaceSet { items } => {
                // Indivisible: validate everything, then mutate.
                let mut dirs: IdMap<u64, Rc<Directory>> = IdMap::default();
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
                    let dir = Rc::make_mut(dirs.get_mut(object).expect("validated above"));
                    dir.replace_cap(name, *cap).expect("validated above");
                }
                let mut effects = Vec::new();
                let mut objs: Vec<u64> = dirs.keys().copied().collect();
                objs.sort_unstable();
                for object in objs {
                    let dir = dirs.remove(&object).expect("present");
                    effects.push(publish(shared, object, dir, useq));
                }
                Ok((DirReply::Ok, effects))
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
                            return Ok((DirReply::Cap(cap), Vec::new()));
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
                        return Ok((DirReply::Cap(cap), vec![stored]));
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
                Ok((DirReply::Cap(cap), vec![stored]))
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
                        Ok((DirReply::Ok, Vec::new()))
                    } else {
                        Ok((
                            DirReply::Moved {
                                object: *object,
                                to_port: stub.to_port,
                                to_object: stub.to_object,
                            },
                            Vec::new(),
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
                ))
            }
            DirOp::GrantRead { .. } => unreachable!("`plan` plans a grant itself"),
        }
    }

    /// The shared create logic of `Create` and `CreateKeyed`.
    fn plan_create(
        &self,
        shared: &mut Shared,
        columns: &[String],
        check: u64,
        useq: u64,
    ) -> Result<(DirReply, Vec<Effect>), DirError> {
        if !(1..=4).contains(&columns.len()) {
            return Err(DirError::Malformed);
        }
        let object = shared.table.next_object();
        if object > shared.table.capacity() {
            return Err(DirError::Internal);
        }
        let dir = Rc::new(Directory::new(columns.to_vec()));
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
        Ok((DirReply::Cap(cap), vec![stored]))
    }

    /// A directory's current version for planning: the RAM cache is
    /// authoritative during normal operation (it was populated at
    /// recovery/apply time). Shared, not copied — an arm that edits it
    /// goes through [`Rc::make_mut`], which makes the update's one copy.
    fn dir_for_plan(&self, shared: &Shared, object: u64) -> Result<Rc<Directory>, DirError> {
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
                // Enqueue under the borrow, wait outside it.
                let waiter = { self.shared.borrow_mut().table.flush_begin(object) };
                if let Some(w) = waiter {
                    w.recv(ctx);
                }
                let cb = { self.shared.borrow_mut().commit.clone() };
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
    /// Runs in the background flusher and on demand when the device fills.
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

    /// Replays NVRAM records into RAM state after a reboot (records stay
    /// in the device for the flusher). Returns the highest update seq.
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

    // ------------------------------------------------------------------
    // Read path.
    // ------------------------------------------------------------------

    /// The read rule: blocks until `object` can be served at `at` —
    /// unchanged by the batch in flight, or changed only in its rows and
    /// only past the target, so its pre-batch version holds every op up
    /// to the target and nothing unflushed. Otherwise it waits for that
    /// batch's publish and looks again. The caller then validates and
    /// takes the [`version_at`](Self::version_at) without yielding.
    pub(crate) fn settle(&self, object: u64, at: &ReadAt) -> Result<(), DirError> {
        loop {
            let first = match self.shared.borrow_mut().unflushed.get(&object) {
                Some((first, before)) if *first <= at.target || before.is_none() => *first,
                _ => return Ok(()),
            };
            (at.publish)(first)?;
        }
    }

    /// [`settle`](Self::settle) over every directory `req` reads.
    pub(crate) fn settle_request(&self, req: &DirRequest, at: &ReadAt) -> Result<(), DirError> {
        match req {
            DirRequest::ListDir { cap } | DirRequest::ExportDir { cap } => {
                self.settle(cap.object, at)
            }
            DirRequest::LookupSet { items } => items
                .iter()
                .try_for_each(|(cap, _)| self.settle(cap.object, at)),
            _ => Ok(()),
        }
    }

    /// The version of a settled `object` a read serves: the one before
    /// the batch in flight edited its rows, else the current one.
    pub(crate) fn version_at(&self, ctx: &Ctx, object: u64) -> Result<Rc<Directory>, DirError> {
        let before = self.shared.borrow_mut().unflushed.get(&object).cloned();
        match before {
            Some((_, Some(dir))) => Ok(dir),
            _ => self.load_dir(ctx, object),
        }
    }

    /// Serves a read against local state (initiator thread, paper Fig. 5
    /// read path) at `at`: each directory is settled, then validated and
    /// read with no yield in between.
    pub(crate) fn serve_read(&self, ctx: &Ctx, req: &DirRequest, at: &ReadAt) -> DirReply {
        match req {
            DirRequest::ListDir { cap } => {
                if let Err(e) = self.settle(cap.object, at) {
                    return DirReply::Err(e);
                }
                let object = {
                    let mut shared = self.shared.borrow_mut();
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
                let dir = match self.version_at(ctx, object) {
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
                            col_rights: visible_masks(&row.col_rights, cap.rights).collect(),
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
                    if let Err(e) = self.settle(cap.object, at) {
                        return DirReply::Err(e);
                    }
                    let object = {
                        let mut shared = self.shared.borrow_mut();
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
                            match self.version_at(ctx, object) {
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
                if let Err(e) = self.settle(cap.object, at) {
                    return DirReply::Err(e);
                }
                let (object, check) = {
                    let shared = self.shared.borrow();
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
                let dir = match self.version_at(ctx, object) {
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
        let shared = self.shared.borrow();
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
        let shared = self.shared.borrow();
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
    /// grant's renewal budget), so it is answered off the read path
    /// under that lease's deadline — no group round, no new grant. The
    /// caller has already drained the read barrier, so the local state
    /// is at least as new as any acknowledged write; the lease and the
    /// rows are read once no batch in flight has changed the directory,
    /// so they agree. Returns `None` when the lease vanished since the
    /// pre-check (expired, relocated, revoked without budget) or the
    /// wait was aborted; the caller falls back to the full `GrantRead`
    /// round.
    pub(crate) fn serve_renewed_fetch(
        &self,
        ctx: &Ctx,
        cap: &Capability,
        owner: u64,
        ttl_us: u64,
        have: u64,
        at: &ReadAt,
    ) -> Option<Payload> {
        self.settle(cap.object, &at.latest()).ok()?;
        let deadline_us = {
            let mut shared = self.shared.borrow_mut();
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
            deadline_us
        };
        self.lease_answer(ctx, cap, have, deadline_us, true).ok()
    }

    /// What the holder of `cap` is sent under a lease that runs until
    /// `deadline_us`, renewed or granted: its [`lease_reply`], or
    /// `Moved`. The caller has settled the directory, so the current
    /// version holds nothing the batch in flight could still lose;
    /// nothing here yields but the load of a cold directory.
    pub(crate) fn lease_answer(
        &self,
        ctx: &Ctx,
        cap: &Capability,
        have: u64,
        deadline_us: u64,
        renewed: bool,
    ) -> Result<Payload, DirError> {
        let port = self.cfg.public_port;
        {
            let shared = self.shared.borrow();
            let object = validate_dir_cap(&shared, port, cap, Rights::NONE)?;
            if let Some(stub) = shared.stubs.get(&object) {
                let moved = DirReply::Moved {
                    object,
                    to_port: stub.to_port,
                    to_object: stub.to_object,
                };
                return Ok(moved.encode());
            }
        }
        let dir = self.load_dir(ctx, cap.object)?;
        let shared = self.shared.borrow();
        Ok(lease_reply(
            &shared,
            port,
            &dir,
            cap,
            have,
            deadline_us,
            renewed,
        ))
    }

    /// Initiator-side validation and translation of a client write into
    /// the replicated op (paper: the check field for a create is chosen
    /// here).
    pub fn prepare_write(&self, ctx: &Ctx, req: &DirRequest) -> Result<DirOp, DirError> {
        let shared = self.shared.borrow();
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
            // A lease is the group service's alone (only its initiators
            // fence revocation): see [`prepare_grant`](Self::prepare_grant).
            DirRequest::FetchDir { .. }
            | DirRequest::ListDir { .. }
            | DirRequest::LookupSet { .. }
            | DirRequest::ExportDir { .. } => Err(DirError::Malformed),
        }
    }

    /// Initiator-side translation of a `FetchDir` into the `GrantRead`
    /// op that registers the holder's lease, and the deadline it grants.
    pub(crate) fn prepare_grant(
        &self,
        ctx: &Ctx,
        cap: &Capability,
        owner: u64,
        cb_port: Port,
        ttl_us: u64,
    ) -> Result<(DirOp, u64), DirError> {
        let port = self.cfg.public_port;
        validate_dir_cap(&self.shared.borrow(), port, cap, Rights::NONE)?;
        if !cap.rights.sees_any_column() {
            return Err(DirError::NoPermission);
        }
        // The grant's clock is fixed here, by the initiator, and carried
        // in the op: simulated time is global, so every replica applies
        // the same deadline — apply itself never reads a clock.
        let now_us = ctx.now().as_nanos() / 1_000;
        let deadline_us = now_us + ttl_us.max(1).min(self.max_lease_us);
        let grant = DirOp::GrantRead {
            cap: *cap,
            owner,
            cb_port,
            now_us,
            deadline_us,
        };
        Ok((grant, deadline_us))
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
