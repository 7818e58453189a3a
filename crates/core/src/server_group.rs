//! The group directory server: the paper's Fig. 5 protocol, as a thin
//! service layer over the generic [`amoeba_rsm::Replica`] driver.
//!
//! Each server machine runs several **server threads** (initiators; the
//! front end they share with the baselines is `server.rs`) and one
//! replica driver. Reads are served locally after the driver's read
//! barrier (drain buffered group messages), and wait for the flush of
//! the batch in flight only if it changed a directory they read (see
//! `read_point`). Writes are validated here,
//! then replicated through [`Replica::submit`] with resilience r = 2 —
//! the initiator blocks until its own replica has applied *and
//! group-committed* the operation. A cache's lease grant is ordered
//! like a write but needs no durability, so its initiator waits through
//! [`Replica::submit_ordered`] only until it is applied, and answers it
//! like a read (see `fetch_dir`). View changes, reset, recovery and
//! apply batching all live in the driver; this file contains **zero
//! group-protocol code**.

use std::rc::Rc;
use std::time::Duration;

use amoeba_flip::wire::Wire;
use amoeba_flip::{Payload, Port};
use amoeba_group::GroupPeer;
use amoeba_rpc::{RpcClient, RpcParams};
use amoeba_rsm::{Replica, ReplicaDeps, RsmConfig, RsmError};
use amoeba_sim::{Ctx, Resource, Spawn};

use crate::config::{DirParams, ServiceConfig, Storage};
use crate::dir::{op_objects, Applier, DirectoryStateMachine, ReadAt, ReadLease};
use crate::directory::Directory;
use crate::ops::{DirError, DirOp, DirReply, DirRequest};
use crate::server::ServerDeps;
use crate::Capability;

/// Handle to one running group directory server (one replica column).
#[derive(Clone)]
pub struct GroupDirServer {
    pub(crate) applier: Rc<Applier>,
    replica: Replica<DirectoryStateMachine>,
    cfg: ServiceConfig,
}

impl std::fmt::Debug for GroupDirServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GroupDirServer({})", self.cfg.me)
    }
}

/// Maps a replica's service configuration onto the generic driver's.
/// Each shard derives its ports from its own service name, so every
/// shard forms its own group with its own sequencer.
fn rsm_config(cfg: &ServiceConfig) -> RsmConfig {
    let rsm = RsmConfig::new(&cfg.service, cfg.n, cfg.me);
    debug_assert_eq!(rsm.internal_ports[cfg.me], cfg.internal_port(cfg.me));
    rsm
}

/// Starts all processes of one group directory server replica over the
/// machine's group kernel `peer`, committing through `storage`.
pub(crate) fn start_group_server(
    spawner: &impl Spawn,
    deps: ServerDeps,
    peer: GroupPeer,
    storage: Storage,
) -> GroupDirServer {
    let applier = deps.applier();
    let sm = Rc::new(DirectoryStateMachine::new(
        Rc::clone(&applier),
        deps.params.clone(),
        deps.cpu.clone(),
        storage,
    ));
    let replica = Replica::start(
        spawner,
        ReplicaDeps {
            cfg: rsm_config(&deps.cfg),
            sim_node: deps.sim_node,
            rpc: deps.rpc.clone(),
            peer,
            sm,
        },
    );
    let server = GroupDirServer {
        applier: Rc::clone(&applier),
        replica: replica.clone(),
        cfg: deps.cfg.clone(),
    };
    // Invalidation callbacks use tightly bounded transports: a crashed
    // lease holder must cost the write a couple of short attempts, not
    // the default 100-second client retry budget — the fallback for an
    // unreachable holder is waiting out its lease, which `max_lease`
    // caps. The enquiry interval clamps to `reply_timeout` minus the
    // 20 ms window, so a silent holder is dropped 20 + 2 × 20 = 60 ms
    // after each send, and no attempt outlives 80 ms.
    let inval = RpcClient::with_params(
        &deps.rpc,
        RpcParams {
            locate_timeout: Duration::from_millis(20),
            reply_timeout: Duration::from_millis(40),
            max_attempts: 2,
            relocate_jitter: Duration::from_millis(1),
        },
    );
    let (params, cpu) = (deps.params.clone(), deps.cpu.clone());
    deps.serve(spawner, &format!("dir{}", deps.cfg.me), move |ctx, req| {
        handle_request(ctx, &applier, &replica, &params, &cpu, &inval, req)
    });
    server
}

impl GroupDirServer {
    /// The current logical version (diagnostics/tests).
    pub fn update_seq(&self) -> u64 {
        self.applier.shared.borrow().update_seq
    }

    /// Whether the server is in normal operation.
    pub fn is_normal(&self) -> bool {
        self.replica.is_normal()
    }

    /// This replica's driver counters — scoped to this shard's group
    /// alone, however many replicas share the machine.
    pub fn replica_stats(&self) -> amoeba_rsm::ReplicaStats {
        self.replica.stats()
    }

    /// This replica's group-engine counters (`None` while recovering).
    pub fn group_stats(&self) -> Option<amoeba_group::GroupStats> {
        self.replica.group_stats()
    }

    /// [`Replica::unclaimed_results`] of this replica's driver.
    #[doc(hidden)]
    pub fn unclaimed_results(&self) -> usize {
        self.replica.unclaimed_results()
    }

    /// A directory's current version at this replica: its RAM cache's,
    /// else its Bullet file's. For comparing replicas in tests.
    #[doc(hidden)]
    pub fn load_dir(&self, ctx: &Ctx, object: u64) -> Result<Rc<Directory>, DirError> {
        self.applier.load_dir(ctx, object)
    }
}

/// One request through the Fig. 5 protocol: the encoded reply, or the
/// error this thread refuses the request with. An applied update's reply
/// is the bytes its `apply` encoded, passed on as they are.
#[allow(clippy::too_many_arguments)]
fn handle_request(
    ctx: &Ctx,
    applier: &Applier,
    replica: &Replica<DirectoryStateMachine>,
    params: &DirParams,
    cpu: &Resource,
    inval: &RpcClient,
    req: &DirRequest,
) -> Result<Payload, DirError> {
    if let DirRequest::FetchDir {
        cap,
        owner,
        cb_port,
        ttl_us,
        have,
    } = *req
    {
        let lease = (owner, cb_port, ttl_us);
        return fetch_dir(ctx, applier, replica, params, cpu, &cap, lease, have);
    }
    let publish = |seq| replica.wait_published(ctx, seq).map_err(rsm_err);
    if req.is_read() {
        let at = read_point(ctx, applier, replica, &publish, req)?;
        cpu.use_for(ctx, params.read_cpu);
        Ok(applier.serve_read(ctx, req, &at).encode())
    } else {
        cpu.use_for(ctx, params.write_cpu);
        // "generate check-field; SendToGroup(request…)".
        let op = applier.prepare_write(ctx, req)?;
        // "wait until group thread has received and executed the
        // request" — submit blocks until the op is applied and
        // group-committed on this replica.
        let bytes = replica
            .submit_traced(ctx, op.encode(), amoeba_telemetry::current_ctx())
            .map_err(rsm_err)?;
        let reply = DirReply::decode(&bytes).map_err(|_| DirError::Internal)?;
        // The cache fence: a successful update must not be acknowledged
        // while any read lease granted before it could still serve the
        // old contents (see [`crate::cache`]).
        if !matches!(reply, DirReply::Err(_)) {
            let objects = fence_objects(&op, &reply);
            fence_cached_readers(ctx, applier, inval, &objects);
        }
        Ok(bytes)
    }
}

/// A [`DirRequest::FetchDir`], its fields as they came: the lease the
/// holder of `cap` asks for, answered with the rows it covers or, when
/// the holder's snapshot (`have`) still holds exactly those, with
/// `Unchanged`. Either way the rows are read once no batch in flight
/// has changed the directory.
#[allow(clippy::too_many_arguments)]
fn fetch_dir(
    ctx: &Ctx,
    applier: &Applier,
    replica: &Replica<DirectoryStateMachine>,
    params: &DirParams,
    cpu: &Resource,
    cap: &Capability,
    (owner, cb_port, ttl_us): (u64, Port, u64),
    have: u64,
) -> Result<Payload, DirError> {
    let publish = |seq| replica.wait_published(ctx, seq).map_err(rsm_err);
    let latest = ReadAt {
        target: u64::MAX,
        publish: &publish,
    };
    // Piggybacked lease renewal: a holder whose lease is still registered
    // (the write that revoked its previous lease reinstated a successor
    // under the grant's renewal budget) is answered off the read path —
    // the same barrier any read takes — instead of a `GrantRead` group
    // round.
    if applier.has_renewable_lease(ctx, cap, owner, ttl_us) {
        replica.read_barrier(ctx).map_err(rsm_err)?;
        applier.settle(cap.object, &latest)?;
        cpu.use_for(ctx, params.read_cpu);
        if let Some(rep) = applier.serve_renewed_fetch(ctx, cap, owner, ttl_us, have, &latest) {
            return Ok(rep);
        }
        // The lease vanished between the pre-check and the barrier —
        // fall through to the grant round.
    }
    cpu.use_for(ctx, params.write_cpu);
    let (grant, deadline_us) = applier.prepare_grant(ctx, cap, owner, cb_port, ttl_us)?;
    // The grant needs its place in the order, not durability: leases are
    // volatile behind the cold-boot fence. So it returns once applied
    // here, and the answer is read like a read.
    let bytes = replica
        .submit_ordered(ctx, grant.encode(), amoeba_telemetry::current_ctx())
        .map_err(rsm_err)?;
    if !matches!(DirReply::decode(&bytes), Ok(DirReply::Ok)) {
        return Ok(bytes); // refused, in the order
    }
    applier.settle(cap.object, &latest)?;
    applier.lease_answer(ctx, cap, have, deadline_us, false)
}

/// The Fig. 5 read path up to the read's CPU. "Any buffered messages? …
/// wait until seqno == buffered_seqno": the barrier (which also does
/// "if (!majority()) return failure") places the read after everything
/// the kernel ordered before it. It returns once that is applied; the
/// read then waits out the flush in flight only if that batch changed
/// a directory it reads ([`Applier::settle`]).
fn read_point<'a>(
    ctx: &Ctx,
    applier: &Applier,
    replica: &Replica<DirectoryStateMachine>,
    publish: &'a dyn Fn(u64) -> Result<(), DirError>,
    req: &DirRequest,
) -> Result<ReadAt<'a>, DirError> {
    let target = replica.read_barrier(ctx).map_err(rsm_err)?;
    let at = ReadAt { target, publish };
    applier.settle_request(req, &at)?;
    Ok(at)
}

/// The directories a just-applied update may have changed — the ones
/// whose revoked leases this initiator must see through before the
/// acknowledgement. A create learns its object from the reply: object
/// numbers are reused (one past the highest live), so a fresh
/// directory's object may still have a deleted one's revoked leases
/// parked. Never called for a `GrantRead`, which mutates no rows.
fn fence_objects(op: &DirOp, reply: &DirReply) -> Vec<u64> {
    let mut v: Vec<u64> = op_objects(op).collect();
    if let DirReply::Cap(c) = reply {
        v.push(c.object);
    }
    v.sort_unstable();
    v.dedup();
    v
}

/// Blocks until no lease granted before this initiator's just-applied
/// update can still cover a local read of `objects` — the write half of
/// the [`crate::cache`] fencing invariant. Three waits compose:
///
/// 1. **Cold-boot fence**: after a boot from salvaged state the lease
///    table may be lost; no update is acknowledged until every lease
///    granted before the crash has expired.
/// 2. **Revocation fan-out**: apply parked the object's revoked leases
///    in `Shared::revoked`; this initiator claims them and calls every
///    holder back. An unreachable holder (crashed, partitioned) is
///    waited out to its lease deadline instead.
/// 3. **Racing initiators**: a revocation claimed by another initiator
///    on this machine (its write also touched the object) is *its*
///    fan-out, but the acknowledgement still has to outwait it —
///    `Shared::inflight_inval` counts claims until their callbacks
///    finish.
fn fence_cached_readers(ctx: &Ctx, applier: &Applier, inval: &RpcClient, objects: &[u64]) {
    if objects.is_empty() {
        return;
    }
    let fence_until = applier.shared.borrow().write_fence_until_us;
    let now_us = ctx.now().as_nanos() / 1_000;
    if fence_until > now_us {
        ctx.sleep(Duration::from_micros(fence_until - now_us));
    }
    let home = applier.cfg.public_port;
    loop {
        let claimed: Vec<(u64, ReadLease)> = {
            let mut shared = applier.shared.borrow_mut();
            let mut v = Vec::new();
            for &o in objects {
                if let Some(ls) = shared.revoked.remove(&o) {
                    for l in ls {
                        *shared.inflight_inval.entry(o).or_insert(0) += 1;
                        v.push((o, l));
                    }
                }
            }
            if v.is_empty() {
                let clear = objects.iter().all(|o| {
                    !shared.revoked.contains_key(o)
                        && shared.inflight_inval.get(o).copied().unwrap_or(0) == 0
                });
                if clear {
                    return;
                }
            }
            v
        };
        if claimed.is_empty() {
            // Another initiator is mid fan-out for one of our objects;
            // its completion fences us too.
            ctx.sleep(Duration::from_millis(1));
            continue;
        }
        let mut outwait_us = 0u64;
        for (o, l) in &claimed {
            if l.deadline_us <= ctx.now().as_nanos() / 1_000 {
                continue; // expired while parked: already fenced
            }
            let msg = (home, *o).encode();
            if inval.trans(ctx, l.cb_port, msg).is_err() {
                outwait_us = outwait_us.max(l.deadline_us);
            }
        }
        let now_us = ctx.now().as_nanos() / 1_000;
        if outwait_us > now_us {
            ctx.sleep(Duration::from_micros(outwait_us - now_us));
        }
        {
            let mut shared = applier.shared.borrow_mut();
            for (o, _) in &claimed {
                if let Some(n) = shared.inflight_inval.get_mut(o) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        shared.inflight_inval.remove(o);
                    }
                }
            }
        }
    }
}

fn rsm_err(e: RsmError) -> DirError {
    match e {
        RsmError::NotInService | RsmError::Aborted => DirError::NoMajority,
        RsmError::ResultLost => DirError::Internal,
    }
}
