//! The directory service as a replicated state machine: the
//! [`amoeba_rsm::StateMachine`] implementation driving the planner over
//! [`Shared`] state, with **group-commit apply batching**, and the
//! snapshot recovery transfers.
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
//! * The same critical section records each object the op changed in
//!   `Shared::unflushed`, and `flush` empties the map just before it
//!   returns (`install` too), so an object is listed exactly while its
//!   RAM version may not be durable. The driver wakes readers before
//!   the flush; the read rule ([`Applier::settle`]) keeps them off it.
//! * `flush` — called once per batch by the driver, before any
//!   submitter is woken — coalesces the deferred effects: only each
//!   object's **final** state is written (k updates to one directory
//!   cost one Bullet file + one object-table write instead of k each),
//!   and ordering follows the batch's op order so a crash leaves a
//!   clean prefix when the batch touched a single object.
//! * A batch whose effects span **multiple** objects cannot be made
//!   durable atomically with per-object writes, so the in-place `flush`
//!   brackets it with the commit block's `recovering` flag: a crash
//!   mid-flush makes this replica's state "worthless" at next boot
//!   (§3's rule), forcing recovery to copy a consistent state from a
//!   surviving peer — recovery never observes a partially applied
//!   batch. The group log replays such a batch instead (`storage/journal.rs`).
//! * On the NVRAM path the log append inside `apply` *is* the group
//!   commit (already amortized, §4.1); `flush` only polices the
//!   fill-threshold background flush. A record too large for the
//!   drained device is committed in place inside `apply` instead.
//! * Every storage hook below matches the one [`Storage`] value the
//!   column was built with, once; the path it picks lives in
//!   `storage/`.

use std::cell::RefCell;
use std::rc::Rc;

use amoeba_bullet::FileCap;
use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Payload;
use amoeba_rsm::{StateMachine, Upkeep};
use amoeba_sim::{Ctx, Resource};

use super::plan::row_edit;
use super::state::{ReadLease, Shared, LEASE_RENEWALS};
use super::storage::CkptState;
use super::{Applier, Effect, ENTRIES};
use crate::config::{DirParams, Storage};
use crate::directory::Directory;
use crate::object_table::ObjEntry;
use crate::ops::{DirError, DirOp, DirReply};

/// The directory service's state machine. All group-protocol behaviour
/// (ordering, recovery, batching) comes from the generic
/// [`amoeba_rsm::Replica`] driving it.
pub struct DirectoryStateMachine {
    pub(crate) applier: Rc<Applier>,
    params: DirParams,
    cpu: Resource,
    /// The commit path with its device, the one value every storage
    /// hook matches.
    storage: Storage,
    /// Disk effects of the batch being applied, deferred until the
    /// driver's group-commit `flush`.
    pending: RefCell<Vec<Effect>>,
    /// The group log's writeback bookkeeping (see `storage/journal.rs`):
    /// the dirty set between journal appends and the checkpointer's
    /// table writeback. Unused with the journal off.
    pub(super) ckpt: RefCell<CkptState>,
}

impl std::fmt::Debug for DirectoryStateMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DirectoryStateMachine(server {})", self.applier.cfg.me)
    }
}

impl Storage {
    /// The devices as a reboot finds them (a journal's cursor cold).
    fn reopen(&self) -> Storage {
        let mut storage = self.clone();
        if let Storage::Journal { journal, .. } = &mut storage {
            *journal = journal.reopen();
        }
        storage
    }
}

impl DirectoryStateMachine {
    /// Wraps an applier (shared with the initiator threads) into the
    /// state machine the replica driver runs, over `storage`.
    pub(crate) fn new(
        applier: Rc<Applier>,
        params: DirParams,
        cpu: Resource,
        storage: Storage,
    ) -> Self {
        DirectoryStateMachine {
            applier,
            params,
            cpu,
            storage,
            pending: RefCell::new(Vec::new()),
            ckpt: RefCell::new(CkptState::default()),
        }
    }

    /// Builds a machine with its own private state over the given
    /// storage (which alone decides the commit path: `params.storage` is
    /// what a cluster opens it from), without any server processes — for
    /// driving the trait directly (conformance tests, tooling). A
    /// [`Cluster`](crate::cluster::Cluster)'s group columns start
    /// theirs inside their servers instead.
    pub fn standalone(
        cfg: crate::ServiceConfig,
        params: DirParams,
        bullet: amoeba_bullet::BulletClient,
        partition: amoeba_disk::RawPartition,
        storage: Storage,
        cpu: Resource,
    ) -> Self {
        let applier = Applier::new(cfg, &params, bullet, partition);
        Self::new(Rc::new(applier), params, cpu, storage)
    }

    /// The logical version of the machine's state (diagnostics/tests).
    pub fn update_seq(&self) -> u64 {
        self.applier.shared.borrow().update_seq
    }

    /// What the initiator of an applied `GrantRead` sends the holder of
    /// `cap`, whose fetch named version `have`, under a lease ending at
    /// `deadline_us`: the leased snapshot, or `Unchanged`. For driving
    /// the answer without a server in tests; the server settles the
    /// directory first.
    #[doc(hidden)]
    pub fn lease_answer(
        &self,
        ctx: &Ctx,
        cap: &crate::Capability,
        have: u64,
        deadline_us: u64,
    ) -> Payload {
        self.applier
            .lease_answer(ctx, cap, have, deadline_us, false)
            .unwrap_or_else(|e| DirReply::Err(e).encode())
    }

    /// A directory's current version as this machine holds it: the RAM
    /// cache's, else its Bullet file's. Shared, not copied; for
    /// observing in tests what versions share.
    #[doc(hidden)]
    pub fn load_dir(&self, ctx: &Ctx, object: u64) -> Result<Rc<Directory>, DirError> {
        self.applier.load_dir(ctx, object)
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
            self.storage.reopen(),
            self.cpu.clone(),
        )
    }

    /// Plans `op` in one critical section with everything that must
    /// move with it: the leases it revokes, the objects it leaves
    /// unflushed, and the applied cursor.
    fn plan_at(
        &self,
        ctx: &Ctx,
        seq: u64,
        op: &DirOp,
        reply: bool,
    ) -> Result<(Payload, Vec<Effect>, u64), DirError> {
        let mut shared = self.applier.shared.borrow_mut();
        // The versions a row edit replaces: durable until this batch
        // is flushed, so reads placed before the edit are served them.
        let (items, one) = match op {
            DirOp::ReplaceSet { items } => (&items[..], None),
            op => (&[][..], row_edit(op).map(|(o, _)| o)),
        };
        let before: Vec<(u64, Rc<Directory>)> = items
            .iter()
            .map(|(o, _, _)| *o)
            .chain(one)
            .filter_map(|o| Some((o, Rc::clone(shared.cache.get(&o)?))))
            .collect();
        let r = self.applier.plan(&mut shared, op, None, reply);
        // Revoke-on-apply: every object this op mutates loses its
        // outstanding read leases *in the same critical section as
        // the mutation* — ordered in the total order, so a grant
        // and a write racing through different initiators land
        // deterministically on one side of each other on every
        // replica. The initiator that submitted the write fans the
        // parked revocations out before acknowledging. The same
        // section records the object as unflushed (module docs).
        if let Ok((_, effects, _)) = &r {
            for e in effects {
                let object = e.object();
                shared.revoke_leases(object);
                let prior = before
                    .iter()
                    .find(|(o, _)| *o == object)
                    .map(|(_, d)| Rc::clone(d));
                let entry = shared
                    .unflushed
                    .entry(object)
                    .or_insert_with(|| (seq, prior.clone()));
                if prior.is_none() {
                    entry.1 = None;
                }
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
        r
    }
}

/// A replica's whole state, as recovery transfers it.
struct Snapshot {
    update_seq: u64,
    commit_seqno: u64,
    /// `(object, check, contents)` of every directory with contents.
    dirs: Vec<(u64, u64, Rc<Directory>)>,
    /// The read-lease table, `(object, lease)`: a joining replica must
    /// know every outstanding lease, or a write it later initiates could
    /// be acknowledged without revoking one.
    leases: Vec<(u64, ReadLease)>,
}

/// `u64 update_seq, u64 commit_seqno`, then the sections, each counted
/// ([`ENTRIES`]) and sorted: the directories (each its object, check
/// and framed contents), two empty sections and the leases. The empty
/// sections keep the layout's bytes: they held the completion records
/// of keyed creates and the forwarding stubs of migrated directories,
/// and a snapshot whose count in either is not zero is refused.
impl Wire for Snapshot {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.update_seq).u64(self.commit_seqno);
        ENTRIES.put(w, &self.dirs, |(object, check, dir), w| {
            w.u64(*object).u64(*check);
            dir.put_framed(w);
        });
        w.u32(0).u32(0);
        ENTRIES.put(w, &self.leases, <(u64, ReadLease)>::put);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Snapshot, DecodeError> {
        Ok(Snapshot {
            update_seq: r.u64("update seq")?,
            commit_seqno: r.u64("commit seq")?,
            dirs: ENTRIES.get(r, |r| {
                let (object, check) = (r.u64("object")?, r.u64("check")?);
                Ok((object, check, Rc::new(Directory::get_framed(r)?)))
            })?,
            leases: match (r.u32("empty section")?, r.u32("empty section")?) {
                (0, 0) => ENTRIES.get(r, <(u64, ReadLease)>::get)?,
                _ => return Err(DecodeError::new("empty section")),
            },
        })
    }
}

impl Snapshot {
    /// The snapshot of `shared`, whose every live directory is cached.
    fn of(shared: &Shared) -> Snapshot {
        let dirs = shared
            .table
            .iter()
            .filter_map(|(object, entry)| {
                let dir = shared.cache.get(&object)?;
                Some((object, entry.check, Rc::clone(dir)))
            })
            .collect();
        let mut leases: Vec<(u64, ReadLease)> = shared
            .rleases
            .iter()
            .flat_map(|(object, ls)| ls.iter().map(|l| (*object, *l)))
            .collect();
        // Deterministic encoding.
        leases.sort_unstable();
        Snapshot {
            update_seq: shared.update_seq,
            commit_seqno: shared.commit.seqno,
            dirs,
            leases,
        }
    }

    /// Whether every object it names fits a table of `capacity`: a
    /// peer's snapshot that names one past it is refused whole.
    fn fits(&self, capacity: u64) -> bool {
        self.dirs
            .iter()
            .all(|(object, _, _)| (1..=capacity).contains(object))
    }
}

impl StateMachine for DirectoryStateMachine {
    fn apply(&self, ctx: &Ctx, seq: u64, op: &Payload, reply: bool) -> Payload {
        let applier = &self.applier;
        // What the initiating thread is owed; elsewhere nobody reads it,
        // so nothing is encoded.
        let refuse = |e: DirError| {
            if reply {
                DirReply::Err(e).encode()
            } else {
                Payload::empty()
            }
        };
        let op = match DirOp::decode(op) {
            Ok(op) => op,
            Err(_) => {
                // Malformed ops still consume their slot.
                let mut shared = applier.shared.borrow_mut();
                shared.applied_group_seq = shared.applied_group_seq.max(seq);
                return refuse(DirError::Malformed);
            }
        };
        self.cpu.use_for(ctx, self.params.apply_cpu);
        applier.preload_for(ctx, &op);
        let (answer, effects, useq) = match self.plan_at(ctx, seq, &op, reply) {
            Ok(v) => v,
            Err(e) => return refuse(e),
        };
        match &self.storage {
            Storage::InPlace | Storage::Journal { .. } => self.pending.borrow_mut().extend(effects),
            // Lease grants are volatile replicated state: nothing to
            // make durable, so they skip the log (replaying one after a
            // reboot would only plant an already-expired lease).
            Storage::Nvram { .. } if matches!(op, DirOp::GrantRead { .. }) => {}
            Storage::Nvram { nvram, .. } => {
                if !applier.commit_nvram(ctx, nvram, useq, &op, &effects) {
                    // Too large for the device even drained: the op
                    // commits in place before it is acknowledged.
                    applier.write_in_place(ctx, effects);
                }
            }
        }
        answer
    }

    /// Makes the batch just applied durable: the group commit.
    fn flush(&self, ctx: &Ctx) {
        let effects = std::mem::take(&mut *self.pending.borrow_mut());
        match &self.storage {
            Storage::InPlace => self.applier.write_in_place(ctx, effects),
            Storage::Journal { journal, .. } => self.commit_journaled(ctx, journal, effects),
            Storage::Nvram {
                nvram,
                flush_threshold,
                ..
            } => {
                // The log appends in `apply` were the durable commit;
                // only police the fill threshold here.
                if nvram.fill_fraction() >= *flush_threshold {
                    self.applier.flush_nvram(ctx, nvram);
                }
            }
        }
        // The batch is durable: nothing it changed needs hiding any more.
        self.applier.shared.borrow_mut().unflushed.clear();
    }

    fn upkeep(&self) -> Option<Upkeep> {
        match self.storage {
            Storage::InPlace => None,
            Storage::Journal {
                checkpoint_interval,
                ..
            } => Some(Upkeep::Every(checkpoint_interval)),
            Storage::Nvram { idle_flush, .. } => Some(Upkeep::WhenIdle(idle_flush)),
        }
    }

    fn tend(&self, ctx: &Ctx) {
        match &self.storage {
            Storage::InPlace => {}
            Storage::Journal { journal, .. } => self.run_checkpoint(ctx, journal),
            // §4.1: apply NVRAM modifications to disk "when the server
            // is idle or the NVRAM is full".
            Storage::Nvram { nvram, .. } => self.applier.flush_nvram(ctx, nvram),
        }
    }

    /// Loads commit block, object table and the storage path's log
    /// after a reboot, and returns the commit block's configuration
    /// vector.
    fn boot(&self, ctx: &Ctx) -> Vec<bool> {
        let applier = &self.applier;
        let worthless = applier.boot_in_place(ctx);
        let replayed = match &self.storage {
            Storage::InPlace => 0,
            Storage::Journal { journal, .. } => self.replay_journal(ctx, journal, worthless),
            // NVRAM survives the crash; replay pending records into RAM.
            Storage::Nvram { nvram, .. } => applier.replay_nvram(ctx, nvram),
        };
        // The lease table is replicated but never durable. A boot from
        // salvaged *non-empty* state may therefore have lost leases
        // whose holders are still alive and serving cached reads —
        // fence write acknowledgements until every lease granted
        // before the crash has provably expired. (If the group recovers
        // from a surviving peer instead, the snapshot carries the lease
        // table and the installing replica's fence is harmless extra
        // caution; a genuinely fresh deployment boots with update_seq 0
        // and no fence.)
        let mut shared = applier.shared.borrow_mut();
        shared.update_seq = shared.update_seq.max(replayed);
        if shared.update_seq > 0 {
            // Piggybacked renewals can extend a lease by up to
            // `LEASE_RENEWALS × ttl` beyond its original deadline, so
            // the fence outwaits the worst-case chain, not just one
            // maximum lease.
            let worst_us = applier.max_lease_us * (1 + u64::from(LEASE_RENEWALS));
            shared.write_fence_until_us = ctx.now().as_nanos() / 1_000 + worst_us;
        }
        shared.commit.config.clone()
    }

    fn version(&self) -> u64 {
        self.applier.shared.borrow().update_seq
    }

    fn snapshot(&self, ctx: &Ctx) -> (u64, Payload) {
        let applier = &self.applier;
        // Cold cache entries are pulled from Bullet first (outside the
        // borrow), so the marshalling under it below sees every directory.
        let objects: Vec<u64> = applier
            .shared
            .borrow()
            .table
            .iter()
            .map(|(o, _)| o)
            .collect();
        for o in &objects {
            let _ = applier.load_dir(ctx, *o);
        }
        let shared = applier.shared.borrow();
        (shared.applied_group_seq, Snapshot::of(&shared).encode())
    }

    fn install(&self, ctx: &Ctx, cursor: u64, snap: &Payload) -> bool {
        let applier = &self.applier;
        // A peer's bytes: refused whole, before anything is touched.
        let capacity = applier.shared.borrow().table.capacity();
        let Ok(snap) = Snapshot::decode(snap) else {
            return false;
        };
        if !snap.fits(capacity) {
            return false;
        }
        let Snapshot {
            update_seq,
            commit_seqno,
            dirs: installed,
            leases,
        } = snap;
        {
            let mut shared = applier.shared.borrow_mut();
            // Wipe stale state, then install wholesale.
            let stale: Vec<u64> = shared.table.iter().map(|(o, _)| o).collect();
            for o in stale {
                shared.table.clear(o);
            }
            shared.cache.clear();
            shared.unflushed.clear();
            for (object, check, dir) in &installed {
                shared.table.set(
                    *object,
                    ObjEntry {
                        file_cap: FileCap::NULL, // created below
                        seqno: dir.seqno,
                        check: *check,
                    },
                );
                shared.cache.insert(*object, Rc::clone(dir));
            }
            shared.update_seq = update_seq;
            shared.commit.seqno = commit_seqno;
            shared.applied_group_seq = cursor;
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
        }
        // Persist every fetched directory locally (Bullet file + table
        // entry) — recovery always persists to disk; NVRAM holds only
        // post-recovery updates.
        for (object, _, dir) in installed {
            applier.store_dir_to_disk(ctx, object, &dir);
        }
        // The install persisted every entry, so RAM and disk agree
        // again: re-baseline the durable mirror (recovery runs on the
        // driver's main process, so no flush can be in flight here).
        {
            let mut shared = applier.shared.borrow_mut();
            if shared.table.mirror_enabled() {
                shared.table.enable_durable_mirror();
            }
        }
        if let Storage::Journal { journal, .. } = &self.storage {
            self.reset_journal(ctx, journal);
        }
        true
    }

    /// The driver's bookkeeping, written to the commit block.
    fn persist(&self, ctx: &Ctx, cursor: u64, config: &[bool], copying: bool) {
        if let (true, Storage::Journal { .. }) = (copying, &self.storage) {
            self.quiesce_checkpoint(ctx);
        }
        let cb = {
            let mut shared = self.applier.shared.borrow_mut();
            // A new instance's order restarts: the cursor is set
            // absolutely, not monotonically.
            shared.applied_group_seq = cursor;
            shared.commit.config = config.to_vec();
            shared.commit.recovering = copying;
            // Epoch 0 marks "state is being replaced by a peer's": a
            // crash from the copy's start until the replica enters
            // service leaves a mixture of two histories, which boot
            // must treat as worthless. Otherwise the state is whole
            // (own history or a completed copy): leave that epoch.
            shared.commit.epoch = if copying {
                0
            } else {
                shared.commit.epoch.max(1)
            };
            shared.commit.clone()
        };
        cb.write(&self.applier.partition, ctx);
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use amoeba_disk::{DiskParams, DiskServer, RawPartition, VDisk};
    use amoeba_flip::{NetParams, Network};
    use amoeba_rpc::{RpcClient, RpcNode};
    use amoeba_sim::Simulation;

    use crate::dir::ReadAt;
    use crate::ops::DirRequest;

    /// A machine on one node, its table and a Bullet server on one
    /// instant disk.
    fn machine(sim: &Simulation) -> (amoeba_sim::NodeId, DirectoryStateMachine) {
        let node = sim.add_node("m");
        let net = Network::new(sim.handle(), NetParams::default(), 1);
        let rpc = RpcNode::start(node, net.attach());
        let disk = DiskServer::start(sim, node, VDisk::new(64, 4096), DiskParams::instant());
        let cfg = crate::ServiceConfig::new(3, 0);
        let store = amoeba_bullet::BulletStore::new(48, 4096, 0xB0);
        amoeba_bullet::start_bullet_server(
            sim,
            node,
            &rpc,
            cfg.bullet_port(0),
            disk.clone(),
            store,
            16,
            1,
        );
        let sm = DirectoryStateMachine::standalone(
            cfg.clone(),
            DirParams::default(),
            amoeba_bullet::BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0)),
            RawPartition::new(disk, 0, 16),
            Storage::InPlace,
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
            assert!(Rc::ptr_eq(&v1, &again), "a read copies nothing");
            // A refused update publishes nothing.
            sm.apply(ctx, 3, &append("a").encode(), false);
            assert!(Rc::ptr_eq(&v1, &load()));
            sm.flush(ctx);
            assert!(sm.applier.shared.borrow_mut().unflushed.is_empty());

            sm.apply(ctx, 4, &append("b").encode(), false);
            let v2 = load();
            assert!(!Rc::ptr_eq(&v1, &v2), "an update edits its own copy");
            assert_eq!((v1.rows().len(), v1.seqno), (1, 2), "and no one else's");
            assert_eq!((v2.rows().len(), v2.seqno), (2, 4));
            // The deferred disk effect is that version, not a copy of it.
            {
                let pending = sm.pending.borrow();
                let stored = pending.iter().rev().find_map(|e| match e {
                    Effect::StoreDir { dir, .. } => Some(dir),
                    _ => None,
                });
                assert!(Rc::ptr_eq(stored.expect("the append's effect"), &v2));
            }

            // The read rule, with the publish the driver would signal
            // standing in as the flush itself.
            let waits = std::cell::RefCell::new(Vec::new());
            let publish = |seq| {
                waits.borrow_mut().push(seq);
                sm.flush(ctx);
                Ok(())
            };
            let at = |target| ReadAt {
                target,
                publish: &publish,
            };
            let read = |target| {
                sm.applier.settle(1, &at(target)).expect("settled");
                sm.applier.version_at(ctx, 1)
            };
            // Placed before the append, a read is served the version
            // the batch replaced: durable, and holding every op up to
            // its target. It does not wait.
            assert!(Rc::ptr_eq(&read(3).unwrap(), &v1));
            let lookup = DirRequest::LookupSet {
                items: vec![(crate::Capability::owner(port, 1, 0xC1), "b".into())],
            };
            let reply = sm.applier.serve_read(ctx, &lookup, &at(3));
            assert_eq!(reply, DirReply::Caps(vec![None]), "b is not durable yet");
            assert!(waits.borrow().is_empty());
            // At the append, it waits for the publish; the flush empties
            // the map, and the new version is the one served.
            assert!(Rc::ptr_eq(&read(4).unwrap(), &v2));
            assert_eq!(*waits.borrow(), [4]);
            assert!(sm.applier.shared.borrow_mut().unflushed.is_empty());

            // A batch that deletes the directory keeps no predecessor:
            // even a read placed before the delete waits for its publish,
            // and then finds the directory gone.
            sm.apply(ctx, 5, &DirOp::Delete { object: 1 }.encode(), false);
            assert_eq!(read(4).unwrap_err(), DirError::BadCapability);
            assert_eq!(*waits.borrow(), [4, 5]);
        });
        sim.run_for(Duration::from_secs(5));
        assert!(out.is_ready(), "the checks ran");
    }

    #[test]
    fn snapshot_claiming_a_million_entries_over_an_empty_body_is_rejected() {
        let mut sim = Simulation::new(1);
        let (node, sm) = machine(&sim);
        // One snapshot per count field, each claiming a million
        // elements with nothing behind the claim.
        let mut snaps: Vec<Payload> = (0..4)
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
        // And a well-formed snapshot whose directory names an object
        // past the table's capacity.
        let dir = Rc::new(Directory::new(vec!["o".into()]));
        let snap = Snapshot {
            update_seq: 1,
            commit_seqno: 1,
            dirs: vec![(1_000_000, 1, dir)],
            leases: Vec::new(),
        };
        snaps.push(snap.encode());
        let out = sim.spawn_on(node, "install", move |ctx| {
            snaps
                .iter()
                .map(|s| sm.install(ctx, 0, s))
                .collect::<Vec<_>>()
        });
        sim.run_for(Duration::from_secs(1));
        assert_eq!(out.take(), Some(vec![false; 5]));
    }
}
