//! The Sun-NFS-like baseline (§4.1, third column of Fig. 7): one server,
//! one disk, **no replication and no fault tolerance**. Serves the same
//! directory interface so the experiments can run the same workloads.
//!
//! Substitution note: SunOS is not available, so this is a minimal
//! single-copy metadata server whose update path costs one synchronous
//! disk write — the same cost structure as NFS metadata operations on
//! `/usr/tmp` in the paper's measurement.

use std::sync::Arc;

use amoeba_bullet::BulletClient;
use amoeba_disk::RawPartition;
use amoeba_flip::wire::Wire;
use amoeba_rpc::{RpcNode, RpcServer};
use amoeba_sim::{Ctx, NodeId, Resource, Spawn};
use parking_lot::Mutex;

use crate::config::{DirParams, ServiceConfig, StorageKind};
use crate::object_table::ObjectTable;
use crate::ops::{DirError, DirReply, DirRequest};
use crate::state::{Applier, Mode, Shared};

/// Handle to the running NFS-like server.
#[derive(Clone)]
pub struct NfsDirServer {
    pub(crate) shared: Arc<Mutex<Shared>>,
}

impl std::fmt::Debug for NfsDirServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NfsDirServer")
    }
}

impl NfsDirServer {
    /// The current logical version (diagnostics/tests).
    pub fn update_seq(&self) -> u64 {
        self.shared.lock().update_seq
    }
}

/// Everything needed to start the NFS-like server.
pub struct NfsServerDeps {
    /// Service configuration (`n` must be 1).
    pub cfg: ServiceConfig,
    /// Performance parameters (`read_cpu` is typically ~4 ms here,
    /// matching the paper's 6 ms NFS lookup against Amoeba's 5 ms).
    pub params: DirParams,
    /// The machine.
    pub sim_node: NodeId,
    /// The machine's RPC kernel.
    pub rpc: RpcNode,
    /// Bullet client for directory contents storage.
    pub bullet: BulletClient,
    /// Raw partition for the metadata table.
    pub partition: RawPartition,
    /// The machine's CPU.
    pub cpu: Resource,
}

impl std::fmt::Debug for NfsServerDeps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NfsServerDeps")
    }
}

/// Starts the single-server baseline.
pub fn start_nfs_server(spawner: &impl Spawn, deps: NfsServerDeps) -> NfsDirServer {
    let NfsServerDeps {
        cfg,
        params,
        sim_node,
        rpc,
        bullet,
        partition,
        cpu,
    } = deps;
    assert_eq!(cfg.n, 1, "the NFS-like baseline is a single server");
    let table = ObjectTable::new(partition.clone());
    let mut shared0 = Shared::new(table, 1);
    shared0.mode = Mode::Normal;
    let shared = Arc::new(Mutex::new(shared0));
    let applier = Arc::new(Applier {
        cfg: cfg.clone(),
        storage: StorageKind::Disk,
        shared: Arc::clone(&shared),
        bullet,
        partition,
        nvram: None,
        journal: None,
        max_lease_us: params.max_lease.as_micros() as u64,
        lease_renewals: params.lease_renewals,
    });
    // Updates serialize through a single mutation lock (one metadata
    // update in flight, like a kernel inode lock).
    let update_lock = Resource::new(spawner.sim_handle(), "nfs-update");
    for t in 0..params.server_threads.max(1) {
        let srv = RpcServer::new(&rpc, cfg.public_port);
        let applier = Arc::clone(&applier);
        let params = params.clone();
        let cpu = cpu.clone();
        let update_lock = update_lock.clone();
        spawner.spawn_boxed(
            Some(sim_node),
            &format!("nfsdir-srv{t}"),
            Box::new(move |ctx| loop {
                let incoming = srv.getreq(ctx);
                let req = match DirRequest::decode(&incoming.data) {
                    Ok(r) => r,
                    Err(_) => {
                        srv.putrep(&incoming, DirReply::Err(DirError::Malformed).encode());
                        continue;
                    }
                };
                let reply = if req.is_read() {
                    cpu.use_for(ctx, params.read_cpu);
                    applier.serve_read(ctx, &req)
                } else {
                    cpu.use_for(ctx, params.write_cpu);
                    update_lock.acquire(ctx);
                    let reply = match applier.prepare_write(ctx, &req) {
                        // NFS metadata update: the new directory contents
                        // are written through synchronously — but as a
                        // single in-place write (no copy-on-write Bullet
                        // file), so one disk operation per update.
                        Ok(op) => applier.apply_nfs(ctx, &op),
                        Err(e) => DirReply::Err(e),
                    };
                    update_lock.release();
                    reply
                };
                srv.putrep(&incoming, reply.encode());
            }),
        );
    }
    NfsDirServer { shared }
}

impl Applier {
    /// NFS-style apply: mutate RAM, then one synchronous metadata write
    /// (the object-table block). Directory contents live in RAM and reach
    /// the disk asynchronously (UNIX buffer cache behaviour); this is the
    /// "no fault tolerance" column of Fig. 7.
    pub(crate) fn apply_nfs(&self, ctx: &Ctx, op: &crate::ops::DirOp) -> DirReply {
        let planned = {
            let mut shared = self.shared.lock();
            self.plan(&mut shared, op, None, true)
        };
        match planned {
            Ok((reply, _effects, _)) => {
                // One synchronous disk write, whatever the op.
                let object = crate::server_rpc::op_lock_object(op).max(1);
                let waiter = { self.shared.lock().table.flush_begin(object) };
                if let Some(w) = waiter {
                    w.recv(ctx);
                }
                reply
            }
            Err(e) => DirReply::Err(e),
        }
    }
}
