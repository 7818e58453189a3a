//! The replicated state every role reads: [`Shared`] and its leases.

use std::rc::Rc;

use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Port;
use amoeba_sim::IdMap;

use crate::capability::Capability;
use crate::commit_block::CommitBlock;
use crate::directory::Directory;
use crate::object_table::ObjectTable;
use crate::ops::DirError;
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
    /// and emptied by the replicated machine (see `machine`); the read
    /// rule ([`Applier::settle`](super::Applier::settle)) keeps reads
    /// off what it lists.
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

/// Piggybacked lease renewals budgeted per grant: each write that
/// revokes a holder's lease reinstates a successor (deadline extended
/// by the lease's own TTL, budget decremented), so the holder's refetch
/// after the invalidation callback is served off the read path instead
/// of a full group round. The budget also bounds the extra wait-outs a
/// crashed holder can cost writers, and widens the cold-boot write
/// fence to `(1 + LEASE_RENEWALS) × max_lease`. The same on every
/// replica, so apply-time reinstatement is deterministic.
pub(crate) const LEASE_RENEWALS: u32 = 2;

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
    /// path instead of a full group round (see [`LEASE_RENEWALS`]).
    pub renewals_left: u32,
}

/// Owner, callback port, deadline, TTL, then the renewals left as a
/// `u64` that must fit a `u32`.
impl Wire for ReadLease {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.owner);
        self.cb_port.put(w);
        w.u64(self.deadline_us)
            .u64(self.ttl_us)
            .u64(u64::from(self.renewals_left));
    }

    fn get(r: &mut WireReader<'_>) -> Result<ReadLease, DecodeError> {
        Ok(ReadLease {
            owner: r.u64("lease owner")?,
            cb_port: Port::get(r)?,
            deadline_us: r.u64("lease deadline")?,
            ttl_us: r.u64("lease ttl")?,
            renewals_left: u32::try_from(r.u64("lease renewals")?)
                .map_err(|_| DecodeError::new("lease renewals"))?,
        })
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
