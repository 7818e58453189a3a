//! The directory server's request front end, one for the three
//! implementations the paper compares (§4, Figs. 7–9): the group service
//! (`server_group.rs`), the duplicated RPC service (`server_rpc.rs`) and
//! the NFS-like single server (`server_nfs.rs`).
//!
//! They differ only in how a write is replicated and made durable. Each
//! variant builds its [`Applier`] from the same [`ServerDeps`], starts
//! the processes only it runs, and hands [`ServerDeps::serve`] its
//! handler. The server threads started there do the rest: take a request
//! off the public port, answer `Malformed` to bytes that do not decode,
//! run the handler under a `srv.handle` span parented to the request's
//! trace context, and reply.

use std::rc::Rc;

use amoeba_bullet::BulletClient;
use amoeba_disk::RawPartition;
use amoeba_flip::wire::Wire;
use amoeba_flip::Payload;
use amoeba_rpc::{RpcNode, RpcServer};
use amoeba_sim::{Ctx, NodeId, Resource, Spawn};

use crate::config::{DirParams, ServiceConfig};
use crate::dir::{Applier, ReadAt};
use crate::ops::{DirError, DirReply, DirRequest};

/// Server threads per machine (multiple threads per server, §3.1).
const SERVER_THREADS: usize = 2;

/// Everything needed to start one directory server (one column of any
/// variant).
pub(crate) struct ServerDeps {
    /// Static service configuration.
    pub cfg: ServiceConfig,
    /// Performance/behaviour parameters.
    pub params: DirParams,
    /// The machine this server runs on.
    pub sim_node: NodeId,
    /// RPC kernel of the machine.
    pub rpc: RpcNode,
    /// Client stub for this column's Bullet server.
    pub bullet: BulletClient,
    /// The raw partition holding commit block + object table.
    pub partition: RawPartition,
    /// The machine's CPU.
    pub cpu: Resource,
}

impl std::fmt::Debug for ServerDeps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerDeps(server {})", self.cfg.me)
    }
}

impl ServerDeps {
    /// This server's directory state over the column's Bullet server
    /// and table partition.
    pub(crate) fn applier(&self) -> Rc<Applier> {
        Rc::new(Applier::new(
            self.cfg.clone(),
            &self.params,
            self.bullet.clone(),
            self.partition.clone(),
        ))
    }

    /// Starts the server threads, `{name}-srv0` onwards: each answers
    /// requests on the public port with `handler`'s encoded reply, or
    /// with the error it refuses the request with.
    pub(crate) fn serve(
        &self,
        spawner: &impl Spawn,
        name: &str,
        handler: impl Fn(&Ctx, &DirRequest) -> Result<Payload, DirError> + 'static,
    ) {
        let handler = Rc::new(handler);
        for t in 0..SERVER_THREADS {
            let srv = RpcServer::new(&self.rpc, self.cfg.public_port);
            let handler = Rc::clone(&handler);
            spawner.spawn_boxed(
                Some(self.sim_node),
                &format!("{name}-srv{t}"),
                Box::new(move |ctx| loop {
                    let incoming = srv.getreq(ctx);
                    let Ok(req) = DirRequest::decode(&incoming.data) else {
                        srv.putrep(&incoming, DirReply::Err(DirError::Malformed).encode());
                        continue;
                    };
                    // The server-side span: parented to the client's
                    // request context (silent when the request is
                    // untraced). The ambient context makes the handler's
                    // own calls part of the same tree.
                    let tele = amoeba_telemetry::Telemetry::from_handle(&ctx.handle());
                    let span =
                        tele.begin_child("srv.handle", u64::from(srv.addr().0), incoming.trace);
                    let prev = amoeba_telemetry::set_current_ctx(span);
                    let reply = handler(ctx, &req);
                    amoeba_telemetry::set_current_ctx(prev);
                    tele.end(span);
                    srv.putrep(
                        &incoming,
                        reply.unwrap_or_else(|e| DirReply::Err(e).encode()),
                    );
                }),
            );
        }
    }

    /// [`serve`](Self::serve) for the two baselines, whose servers read
    /// without coordination: a read costs `read_cpu` and is answered
    /// from `applier`'s state alone, a write costs `write_cpu` and goes
    /// to `write`.
    pub(crate) fn serve_local_reads(
        &self,
        spawner: &impl Spawn,
        name: &str,
        applier: Rc<Applier>,
        write: impl Fn(&Ctx, &Applier, &DirRequest) -> Result<Payload, DirError> + 'static,
    ) {
        let (params, cpu) = (self.params.clone(), self.cpu.clone());
        self.serve(spawner, name, move |ctx, req| {
            if req.is_read() {
                cpu.use_for(ctx, params.read_cpu);
                Ok(applier.serve_read(ctx, req, &ReadAt::LOCAL).encode())
            } else {
                cpu.use_for(ctx, params.write_cpu);
                write(ctx, &applier, req)
            }
        });
    }
}
