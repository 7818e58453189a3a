//! The Sun-NFS-like baseline (§4.1, third column of Fig. 7): one server,
//! one disk, **no replication and no fault tolerance**. Serves the same
//! directory interface so the experiments can run the same workloads.
//!
//! Substitution note: SunOS is not available, so this is a minimal
//! single-copy metadata server whose update path costs one synchronous
//! disk write — the same cost structure as NFS metadata operations on
//! `/usr/tmp` in the paper's measurement.

use amoeba_flip::wire::Wire;
use amoeba_flip::Payload;
use amoeba_sim::{Ctx, Resource, Spawn};

use crate::dir::{op_object, Applier};
use crate::ops::DirReply;
use crate::server::ServerDeps;

/// Starts the single-server baseline (`deps.cfg.n` must be 1).
pub(crate) fn start_nfs_server(spawner: &impl Spawn, deps: ServerDeps) {
    assert_eq!(deps.cfg.n, 1, "the NFS-like baseline is a single server");
    let applier = deps.applier();
    // Updates serialize through a single mutation lock (one metadata
    // update in flight, like a kernel inode lock).
    let update_lock = Resource::new(spawner.sim_handle(), "nfs-update");
    deps.serve_local_reads(spawner, "nfsdir", applier, move |ctx, applier, req| {
        update_lock.acquire(ctx);
        // NFS metadata update: the new directory contents are written
        // through synchronously — but as a single in-place write (no
        // copy-on-write Bullet file), so one disk operation per update.
        let reply = applier
            .prepare_write(ctx, req)
            .map(|op| applier.apply_nfs(ctx, &op));
        update_lock.release();
        reply
    });
}

impl Applier {
    /// NFS-style apply: mutate RAM, then one synchronous metadata write
    /// (the object-table block). Directory contents live in RAM and reach
    /// the disk asynchronously (UNIX buffer cache behaviour); this is the
    /// "no fault tolerance" column of Fig. 7.
    pub(crate) fn apply_nfs(&self, ctx: &Ctx, op: &crate::ops::DirOp) -> Payload {
        let planned = {
            let mut shared = self.shared.borrow_mut();
            self.plan(&mut shared, op, None, true)
        };
        match planned {
            Ok((reply, _effects, _)) => {
                // One synchronous disk write, whatever the op.
                let object = op_object(op).max(1);
                let waiter = { self.shared.borrow_mut().table.flush_begin(ctx, object) };
                if let Some(w) = waiter {
                    w.recv(ctx);
                }
                reply
            }
            Err(e) => DirReply::Err(e).encode(),
        }
    }
}
