//! The group directory server: the paper's Fig. 5 protocol, as a thin
//! service layer over the generic [`amoeba_rsm::Replica`] driver.
//!
//! Each server machine runs several **server threads** (initiators) and
//! one replica driver. Reads are served locally after the driver's read
//! barrier (drain buffered group messages); writes are validated here,
//! then replicated through [`Replica::submit`] with resilience r = 2 —
//! the initiator blocks until its own replica has applied *and
//! group-committed* the operation. View changes, reset, recovery and
//! apply batching all live in the driver; this file contains **zero
//! group-protocol code**.

use std::sync::Arc;
use std::time::Duration;

use amoeba_bullet::BulletClient;
use amoeba_disk::{Nvram, RawPartition};
use amoeba_flip::wire::Wire;
use amoeba_flip::{Payload, Port};
use amoeba_group::GroupPeer;
use amoeba_rpc::{RpcClient, RpcNode, RpcParams, RpcServer};
use amoeba_rsm::{Replica, ReplicaDeps, RsmConfig, RsmError};
use amoeba_sim::{Ctx, NodeId, Resource, Spawn};
use parking_lot::Mutex;

use crate::config::{DirParams, ServiceConfig, StorageKind};
use crate::dir_sm::DirectoryStateMachine;
use crate::object_table::ObjectTable;
use crate::ops::{DirError, DirOp, DirReply, DirRequest};
use crate::state::{op_object, Applier, ReadLease, Shared};

/// Handle to one running group directory server (one replica column).
#[derive(Clone)]
pub struct GroupDirServer {
    pub(crate) applier: Arc<Applier>,
    replica: Replica<DirectoryStateMachine>,
    cfg: ServiceConfig,
}

impl std::fmt::Debug for GroupDirServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GroupDirServer({})", self.cfg.me)
    }
}

/// Everything needed to start one replica of the group directory service.
pub struct GroupServerDeps {
    /// Static service configuration.
    pub cfg: ServiceConfig,
    /// Performance/behaviour parameters.
    pub params: DirParams,
    /// The machine this replica runs on.
    pub sim_node: NodeId,
    /// RPC kernel of the machine.
    pub rpc: RpcNode,
    /// Group-communication kernel of the machine.
    pub peer: GroupPeer,
    /// Client stub for this column's Bullet server.
    pub bullet: BulletClient,
    /// The raw partition holding commit block + object table.
    pub partition: RawPartition,
    /// The machine's NVRAM, if the NVRAM commit path is configured.
    pub nvram: Option<Nvram>,
    /// The group log's journal over the disk's reserved journal region,
    /// when `params.journal` is on.
    pub journal: Option<amoeba_disk::Journal>,
    /// The machine's CPU.
    pub cpu: Resource,
}

impl std::fmt::Debug for GroupServerDeps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GroupServerDeps(server {})", self.cfg.me)
    }
}

/// Maps the directory service's parameters onto the generic driver's.
/// Each shard derives its ports from its own service name, so every
/// shard forms its own group with its own sequencer.
fn rsm_config(cfg: &ServiceConfig, params: &DirParams) -> RsmConfig {
    let mut rsm = RsmConfig::new(&cfg.service, cfg.n, cfg.me);
    debug_assert_eq!(rsm.group_port, cfg.group_port);
    debug_assert_eq!(rsm.internal_ports[cfg.me], cfg.internal_port(cfg.me));
    // The checkpointer exists to drain the journal; without a journal
    // there is nothing to drain.
    rsm.checkpoint_interval = if params.journal && params.storage == StorageKind::Disk {
        Some(params.checkpoint_interval)
    } else {
        None
    };
    rsm.idle_timeout = params.nvram_idle_flush;
    rsm.improved_recovery = params.improved_recovery;
    rsm
}

/// Starts all processes of one group directory server replica.
pub fn start_group_server(spawner: &impl Spawn, deps: GroupServerDeps) -> GroupDirServer {
    let GroupServerDeps {
        cfg,
        params,
        sim_node,
        rpc,
        peer,
        bullet,
        partition,
        nvram,
        journal,
        cpu,
    } = deps;
    if params.storage == StorageKind::Nvram {
        assert!(nvram.is_some(), "NVRAM storage configured without a device");
    }
    if params.journal && params.storage == StorageKind::Disk {
        assert!(journal.is_some(), "journaled commit path without a journal");
    }
    let table = ObjectTable::new(partition.clone());
    let shared = Arc::new(Mutex::new(Shared::new(table, cfg.n)));
    let applier = Arc::new(Applier {
        cfg: cfg.clone(),
        storage: params.storage,
        shared: Arc::clone(&shared),
        bullet,
        partition,
        nvram,
        journal: if params.storage == StorageKind::Disk {
            journal
        } else {
            None
        },
        max_lease_us: params.max_lease.as_micros() as u64,
        lease_renewals: params.lease_renewals,
    });
    let sm = Arc::new(DirectoryStateMachine::new(
        Arc::clone(&applier),
        params.clone(),
        cpu.clone(),
    ));
    let replica = Replica::start(
        spawner,
        ReplicaDeps {
            cfg: rsm_config(&cfg, &params),
            sim_node,
            rpc: rpc.clone(),
            peer,
            sm,
        },
    );
    let server = GroupDirServer {
        applier: Arc::clone(&applier),
        replica: replica.clone(),
        cfg: cfg.clone(),
    };

    // Initiator (server) threads.
    for t in 0..params.server_threads.max(1) {
        let srv = RpcServer::new(&rpc, cfg.public_port);
        let applier = Arc::clone(&applier);
        let replica = replica.clone();
        // Invalidation callbacks use tightly bounded transports: a
        // crashed lease holder must cost the write a couple of short
        // attempts, not the default 100-second client retry budget —
        // the fallback for an unreachable holder is waiting out its
        // lease, which `max_lease` caps.
        let inval = RpcClient::with_params(
            &rpc,
            RpcParams {
                locate_timeout: Duration::from_millis(20),
                reply_timeout: Duration::from_millis(40),
                max_attempts: 2,
                relocate_jitter: Duration::from_millis(1),
            },
        );
        let params = params.clone();
        let cpu = cpu.clone();
        spawner.spawn_boxed(
            Some(sim_node),
            &format!("dir{}-srv{t}", cfg.me),
            Box::new(move |ctx| {
                initiator_loop(ctx, &srv, &applier, &replica, &params, &cpu, &inval)
            }),
        );
    }
    server
}

impl GroupDirServer {
    /// The current logical version (diagnostics/tests).
    pub fn update_seq(&self) -> u64 {
        self.applier.shared.lock().update_seq
    }

    /// Forces any pending NVRAM records to disk (diagnostics/tests).
    pub fn flush_storage(&self, ctx: &amoeba_sim::Ctx) {
        self.applier.flush_nvram(ctx);
    }

    /// Whether the server is in normal operation.
    pub fn is_normal(&self) -> bool {
        self.replica.is_normal()
    }

    /// The shard this server belongs to.
    pub fn shard(&self) -> usize {
        self.cfg.shard
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

    /// Mints the owner capability of a directory this shard stores —
    /// **cluster-management access** (the server knows every raw
    /// check), used by the rebalancer to coordinate migrations of
    /// directories it never held a capability for. `None` for unknown
    /// or already-relocated objects.
    pub fn owner_cap(&self, object: u64) -> Option<crate::Capability> {
        let shared = self.applier.shared.lock();
        if shared.stubs.contains_key(&object) {
            return None;
        }
        shared
            .table
            .get(object)
            .map(|e| crate::Capability::owner(self.cfg.public_port, object, e.check))
    }

    /// Drains this replica's per-directory operation counters and
    /// returns the `k` hottest live directories as `(object, ops)` —
    /// the rebalancer's advisory load signal. Counters are
    /// replica-local (reads count where they are served) and reset by
    /// the drain, so successive calls report per-interval deltas.
    pub fn hot_dirs(&self, k: usize) -> Vec<(u64, u64)> {
        let mut shared = self.applier.shared.lock();
        let heat = std::mem::take(&mut shared.heat);
        let mut v: Vec<(u64, u64)> = heat
            .into_iter()
            .filter(|(o, _)| !shared.stubs.contains_key(o) && shared.table.get(*o).is_some())
            .collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Number of forwarding stubs (migrated-away directories) this
    /// shard currently holds (diagnostics/tests).
    pub fn stub_count(&self) -> usize {
        self.applier.shared.lock().stubs.len()
    }
}

/// The Fig. 5 initiator logic, one thread.
#[allow(clippy::too_many_arguments)]
fn initiator_loop(
    ctx: &Ctx,
    srv: &RpcServer,
    applier: &Applier,
    replica: &Replica<DirectoryStateMachine>,
    params: &DirParams,
    cpu: &Resource,
    inval: &RpcClient,
) {
    loop {
        let incoming = srv.getreq(ctx);
        let req = match DirRequest::decode(&incoming.data) {
            Ok(r) => r,
            Err(_) => {
                srv.putrep(&incoming, DirReply::Err(DirError::Malformed).encode());
                continue;
            }
        };
        // The server-side span: parented to the client's request
        // context (silent when the request is untraced). The ambient
        // context makes the replica submit and the revocation fan-out
        // RPCs below part of the same tree.
        let tele = amoeba_telemetry::Telemetry::from_handle(&ctx.handle());
        let span = tele.begin_child("srv.handle", u64::from(srv.addr().0), incoming.trace);
        let prev = amoeba_telemetry::set_current_ctx(span);
        let reply = handle_request(ctx, applier, replica, params, cpu, inval, &req);
        amoeba_telemetry::set_current_ctx(prev);
        tele.end(span);
        srv.putrep(
            &incoming,
            reply.unwrap_or_else(|e| DirReply::Err(e).encode()),
        );
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
    // Piggybacked lease renewal: a `FetchDir` from a holder whose lease
    // is still registered (the write that revoked its previous lease
    // reinstated a successor under the grant's renewal budget) is served
    // off the read path — the same barrier any read takes — instead of a
    // full `GrantRead` group round.
    if let DirRequest::FetchDir {
        cap, owner, ttl_us, ..
    } = req
    {
        if applier.has_renewable_lease(ctx, cap, *owner, *ttl_us) {
            replica.read_barrier(ctx).map_err(rsm_err)?;
            cpu.use_for(ctx, params.read_cpu);
            if let Some(rep) = applier.serve_renewed_fetch(ctx, cap, *owner, *ttl_us) {
                return Ok(rep.encode());
            }
            // The lease vanished between the pre-check and the barrier —
            // fall through to the normal grant round.
        }
    }
    if req.is_read() {
        // "any buffered messages? … wait until seqno == buffered_seqno":
        // drain everything the kernel has ordered before us. The
        // barrier also performs the majority check ("if (!majority())
        // return failure").
        replica.read_barrier(ctx).map_err(rsm_err)?;
        cpu.use_for(ctx, params.read_cpu);
        Ok(applier.serve_read(ctx, req).encode())
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
        // A grant mutates no rows, so it has nothing to fence: its
        // snapshot is not even decoded on the way out.
        if !matches!(op, DirOp::GrantRead { .. }) {
            let reply = DirReply::decode(&bytes).map_err(|_| DirError::Internal)?;
            // The cache fence: a successful update must not be
            // acknowledged while any read lease granted before it
            // could still serve the old contents (see
            // [`crate::cache`]).
            if !matches!(reply, DirReply::Err(_)) {
                let objects = fence_objects(&op, &reply);
                fence_cached_readers(ctx, applier, inval, &objects);
            }
        }
        Ok(bytes)
    }
}

/// The directories a just-applied update may have changed — the ones
/// whose revoked leases this initiator must see through before the
/// acknowledgement. Keyed creates and migration installs learn their
/// object from the reply: an `InstallDir` re-running a migration round
/// upserts a directory clients could already be leasing. Never called
/// for a `GrantRead`, which mutates no rows.
fn fence_objects(op: &DirOp, reply: &DirReply) -> Vec<u64> {
    let mut v = match op {
        // Fresh creates get unleased objects.
        DirOp::Create { .. } | DirOp::CreateKeyed { .. } | DirOp::InstallDir { .. } => Vec::new(),
        DirOp::ReplaceSet { items } => items.iter().map(|(o, _, _)| *o).collect(),
        other => vec![op_object(other)],
    };
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
    let fence_until = applier.shared.lock().write_fence_until_us;
    let now_us = ctx.now().as_nanos() / 1_000;
    if fence_until > now_us {
        ctx.sleep(Duration::from_micros(fence_until - now_us));
    }
    let home = applier.cfg.public_port;
    loop {
        let claimed: Vec<(u64, ReadLease)> = {
            let mut shared = applier.shared.lock();
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
            if inval.trans(ctx, Port::from_raw(l.cb_port), msg).is_err() {
                outwait_us = outwait_us.max(l.deadline_us);
            }
        }
        let now_us = ctx.now().as_nanos() / 1_000;
        if outwait_us > now_us {
            ctx.sleep(Duration::from_micros(outwait_us - now_us));
        }
        {
            let mut shared = applier.shared.lock();
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
