//! The RPC directory service: the paper's previous design (§1), used as
//! the experimental baseline.
//!
//! Two servers. Reads are served by either server without communication.
//! An update is coordinated with an **intentions** record: the initiator
//! performs an RPC to the other server, which — unless it is busy with a
//! conflicting operation — appends the intention to its log (a sequential
//! disk write) and answers OK; the initiator then performs the update
//! (new Bullet file + object-table write) and replies to the client. The
//! second replica of the directory is produced **lazily** in the
//! background. No partition tolerance: the paper's RPC service assumes
//! partitions do not happen.

use std::collections::HashSet;
use std::sync::Arc;

use amoeba_bullet::BulletClient;
use amoeba_disk::RawPartition;
use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Payload;
use amoeba_rpc::{RpcClient, RpcNode, RpcServer};
use amoeba_sim::{Ctx, MailboxTx, NodeId, Resource, Spawn};
use parking_lot::Mutex;

use crate::config::{DirParams, ServiceConfig, StorageKind};
use crate::object_table::ObjectTable;
use crate::ops::{DirError, DirOp, DirReply, DirRequest};
use crate::state::{Applier, Mode, Shared};

/// Peer-coordination messages of the RPC service.
#[derive(Debug, Clone, PartialEq)]
enum PeerMsg {
    /// "I intend to perform this update" (locks the directory remotely).
    Intent {
        useq: u64,
        op: Payload,
    },
    IntentOk,
    /// A conflicting operation is in progress; retry.
    IntentBusy,
    /// Lazy replication: apply this update for real.
    ApplyLazy {
        useq: u64,
        op: Payload,
    },
    ApplyOk,
}

const P_INTENT: u8 = 1;
const P_INTENT_OK: u8 = 2;
const P_INTENT_BUSY: u8 = 3;
const P_APPLY: u8 = 4;
const P_APPLY_OK: u8 = 5;

impl Wire for PeerMsg {
    fn put(&self, w: &mut WireWriter) {
        match self {
            PeerMsg::Intent { useq, op } => {
                w.u8(P_INTENT).u64(*useq).bytes(op);
            }
            PeerMsg::IntentOk => {
                w.u8(P_INTENT_OK);
            }
            PeerMsg::IntentBusy => {
                w.u8(P_INTENT_BUSY);
            }
            PeerMsg::ApplyLazy { useq, op } => {
                w.u8(P_APPLY).u64(*useq).bytes(op);
            }
            PeerMsg::ApplyOk => {
                w.u8(P_APPLY_OK);
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<PeerMsg, DecodeError> {
        Ok(match r.u8("peer tag")? {
            P_INTENT => PeerMsg::Intent {
                useq: r.u64("useq")?,
                op: r.payload("op")?,
            },
            P_INTENT_OK => PeerMsg::IntentOk,
            P_INTENT_BUSY => PeerMsg::IntentBusy,
            P_APPLY => PeerMsg::ApplyLazy {
                useq: r.u64("useq")?,
                op: r.payload("op")?,
            },
            P_APPLY_OK => PeerMsg::ApplyOk,
            _ => return Err(DecodeError::new("peer tag")),
        })
    }
}

/// Per-server coordination state of the RPC service.
struct RpcCoord {
    /// Directories currently locked by an in-flight update (object 0 is
    /// the allocation lock taken by creates).
    locked: HashSet<u64>,
    /// Intentions accepted from the peer and not yet applied lazily.
    pending_intents: Vec<(u64, Payload)>,
}

/// Handle to one running RPC directory server.
#[derive(Clone)]
pub struct RpcDirServer {
    pub(crate) shared: Arc<Mutex<Shared>>,
    coord: Arc<Mutex<RpcCoord>>,
    cfg: ServiceConfig,
}

impl std::fmt::Debug for RpcDirServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RpcDirServer({})", self.cfg.me)
    }
}

impl RpcDirServer {
    /// The current logical version (diagnostics/tests).
    pub fn update_seq(&self) -> u64 {
        self.shared.lock().update_seq
    }

    /// How many peer intentions are logged but not yet applied lazily.
    pub fn pending_intents(&self) -> usize {
        self.coord.lock().pending_intents.len()
    }
}

/// Everything needed to start one replica of the RPC directory service.
pub struct RpcServerDeps {
    /// Service configuration (`n` must be 2).
    pub cfg: ServiceConfig,
    /// Performance parameters.
    pub params: DirParams,
    /// The machine.
    pub sim_node: NodeId,
    /// The machine's RPC kernel.
    pub rpc: RpcNode,
    /// This column's Bullet client.
    pub bullet: BulletClient,
    /// The raw partition (commit block + object table).
    pub partition: RawPartition,
    /// The machine's CPU.
    pub cpu: Resource,
}

impl std::fmt::Debug for RpcServerDeps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RpcServerDeps(server {})", self.cfg.me)
    }
}

/// Starts one replica of the duplicated RPC directory service.
pub fn start_rpc_server(spawner: &impl Spawn, deps: RpcServerDeps) -> RpcDirServer {
    let RpcServerDeps {
        cfg,
        params,
        sim_node,
        rpc,
        bullet,
        partition,
        cpu,
    } = deps;
    assert_eq!(cfg.n, 2, "the RPC directory service is duplicated");
    let table = ObjectTable::new(partition.clone());
    let mut shared0 = Shared::new(table, cfg.n);
    shared0.mode = Mode::Normal; // no group machinery
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
    let coord = Arc::new(Mutex::new(RpcCoord {
        locked: HashSet::new(),
        pending_intents: Vec::new(),
    }));
    let server = RpcDirServer {
        shared: Arc::clone(&shared),
        coord: Arc::clone(&coord),
        cfg: cfg.clone(),
    };
    // Lazy-apply queue: the background thread that creates the second
    // replica of updated directories.
    let (lazy_tx, lazy_rx) = spawner.sim_handle().channel::<(u64, Payload)>();

    // Peer service: intentions and lazy applies from the other server.
    // ApplyLazy is queued to a background worker so producing the second
    // replica never delays the next update's intentions (the "lazy
    // replication" of §1); two threads keep the port listening while an
    // intention's log write is in progress.
    let (apply_tx, apply_rx) = spawner.sim_handle().channel::<(u64, Payload)>();
    {
        let applier = Arc::clone(&applier);
        let coord = Arc::clone(&coord);
        spawner.spawn_boxed(
            Some(sim_node),
            &format!("rpcdir{}-applyworker", cfg.me),
            Box::new(move |ctx| loop {
                let (useq, op) = apply_rx.recv(ctx);
                if let Ok(op) = DirOp::decode(&op) {
                    let _ = applier.apply_with_seq(ctx, useq, &op);
                }
                coord.lock().pending_intents.retain(|(s, _)| *s != useq);
            }),
        );
    }
    for pt in 0..2 {
        let srv = RpcServer::new(&rpc, cfg.internal_port(cfg.me));
        let coord = Arc::clone(&coord);
        let params2 = params.clone();
        let apply_tx = apply_tx.clone();
        spawner.spawn_boxed(
            Some(sim_node),
            &format!("rpcdir{}-peer{pt}", cfg.me),
            Box::new(move |ctx| loop {
                let incoming = srv.getreq(ctx);
                let reply = match PeerMsg::decode_shared(&incoming.data) {
                    Ok(PeerMsg::Intent { useq, op }) => {
                        let object = DirOp::decode(&op)
                            .map(|o| crate::server_rpc::op_lock_object(&o))
                            .unwrap_or(0);
                        let busy = { coord.lock().locked.contains(&object) };
                        if busy {
                            PeerMsg::IntentBusy
                        } else {
                            // Sequential log append: rotation + transfer,
                            // no full seek (see DirParams).
                            ctx.sleep(params2.intentions_latency);
                            coord.lock().pending_intents.push((useq, op));
                            PeerMsg::IntentOk
                        }
                    }
                    Ok(PeerMsg::ApplyLazy { useq, op }) => {
                        apply_tx.send((useq, op));
                        PeerMsg::ApplyOk
                    }
                    _ => PeerMsg::IntentBusy,
                };
                srv.putrep(&incoming, reply.encode());
            }),
        );
    }

    // Lazy replication sender.
    {
        let rpc_client = RpcClient::new(&rpc);
        let peer_port = cfg.internal_port(1 - cfg.me);
        spawner.spawn_boxed(
            Some(sim_node),
            &format!("rpcdir{}-lazy", cfg.me),
            Box::new(move |ctx| loop {
                let (useq, op) = lazy_rx.recv(ctx);
                let msg = PeerMsg::ApplyLazy { useq, op };
                let _ = rpc_client.trans(ctx, peer_port, msg.encode());
            }),
        );
    }

    // Server (initiator) threads.
    for t in 0..params.server_threads.max(1) {
        let srv = RpcServer::new(&rpc, cfg.public_port);
        let applier = Arc::clone(&applier);
        let coord = Arc::clone(&coord);
        let params = params.clone();
        let cpu = cpu.clone();
        let rpc_client = RpcClient::new(&rpc);
        let peer_port = cfg.internal_port(1 - cfg.me);
        let lazy_tx = lazy_tx.clone();
        spawner.spawn_boxed(
            Some(sim_node),
            &format!("rpcdir{}-srv{t}", cfg.me),
            Box::new(move |ctx| {
                rpc_initiator_loop(
                    ctx,
                    &srv,
                    &applier,
                    &coord,
                    &params,
                    &cpu,
                    &rpc_client,
                    peer_port,
                    &lazy_tx,
                )
            }),
        );
    }
    server
}

impl Applier {
    /// Applies an op under an externally supplied sequence number (used by
    /// the RPC service, whose two replicas exchange originator seqnos).
    pub(crate) fn apply_with_seq(&self, ctx: &Ctx, useq: u64, op: &DirOp) -> DirReply {
        // Pre-load the affected directory, mirroring `apply`.
        let object = op_lock_object(op);
        if object != 0 {
            let _ = self.load_dir(ctx, object);
        }
        let planned = {
            let mut shared = self.shared.lock();
            self.plan(&mut shared, op, Some(useq), true)
        };
        match planned {
            Ok((reply, effects, _)) => {
                for e in effects {
                    self.perform_disk(ctx, e);
                }
                reply
            }
            Err(e) => DirReply::Err(e),
        }
    }
}

/// The object an op locks (creates lock the allocator, object 0).
pub(crate) fn op_lock_object(op: &DirOp) -> u64 {
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

#[allow(clippy::too_many_arguments)]
fn rpc_initiator_loop(
    ctx: &Ctx,
    srv: &RpcServer,
    applier: &Applier,
    coord: &Mutex<RpcCoord>,
    params: &DirParams,
    cpu: &Resource,
    rpc_client: &RpcClient,
    peer_port: amoeba_flip::Port,
    lazy_tx: &MailboxTx<(u64, Payload)>,
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
        let reply = if req.is_read() {
            // Reads: local, no coordination (the RPC service's semantics).
            cpu.use_for(ctx, params.read_cpu);
            applier.serve_read(ctx, &req)
        } else {
            cpu.use_for(ctx, params.write_cpu);
            rpc_write(ctx, applier, coord, rpc_client, peer_port, lazy_tx, &req)
        };
        srv.putrep(&incoming, reply.encode());
    }
}

fn rpc_write(
    ctx: &Ctx,
    applier: &Applier,
    coord: &Mutex<RpcCoord>,
    rpc_client: &RpcClient,
    peer_port: amoeba_flip::Port,
    lazy_tx: &MailboxTx<(u64, Payload)>,
    req: &DirRequest,
) -> DirReply {
    let op = match applier.prepare_write(ctx, req) {
        Ok(op) => op,
        Err(e) => return DirReply::Err(e),
    };
    let lock_object = op_lock_object(&op);
    // Local conflict lock.
    {
        let mut c = coord.lock();
        if c.locked.contains(&lock_object) {
            return DirReply::Err(DirError::Internal); // busy; client retries
        }
        c.locked.insert(lock_object);
    }
    let useq = { applier.shared.lock().update_seq + 1 };
    let op_bytes = op.encode();
    // Phase 1: intentions at the peer (synchronous, the extra disk
    // operation the paper charges the RPC service for).
    let intent = PeerMsg::Intent {
        useq,
        op: op_bytes.clone(),
    };
    let peer_ok = match rpc_client.trans(ctx, peer_port, intent.encode()) {
        Ok(bytes) => matches!(PeerMsg::decode_shared(&bytes), Ok(PeerMsg::IntentOk)),
        Err(_) => {
            // Peer down: the duplicated service carries on alone
            // (no partition tolerance — exactly the paper's caveat).
            true
        }
    };
    if !peer_ok {
        coord.lock().locked.remove(&lock_object);
        return DirReply::Err(DirError::Internal);
    }
    // Phase 2: perform the update locally (Bullet file + table write).
    let reply = applier.apply_with_seq(ctx, useq, &op);
    coord.lock().locked.remove(&lock_object);
    // Phase 3: lazy replication in the background.
    lazy_tx.send((useq, op_bytes));
    reply
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_testkit::{hex, unhex};

    #[test]
    fn peer_msgs_keep_their_bytes_and_share_the_op() {
        let op = DirOp::Delete { object: 4 }.encode();
        let goldens = [
            (
                PeerMsg::Intent {
                    useq: 5,
                    op: op.clone(),
                },
                "01050000000000000009000000020400000000000000",
            ),
            (PeerMsg::IntentOk, "02"),
            (PeerMsg::IntentBusy, "03"),
            (
                PeerMsg::ApplyLazy { useq: 6, op },
                "04060000000000000009000000020400000000000000",
            ),
            (PeerMsg::ApplyOk, "05"),
        ];
        for (msg, golden) in goldens {
            let wire = msg.encode();
            assert_eq!(hex(&wire), golden, "{msg:?}");
            let trailing = Payload::from([&unhex(golden)[..], &[0]].concat());
            assert!(
                PeerMsg::decode_shared(&trailing).is_err(),
                "{golden} + a byte"
            );
            let decoded = PeerMsg::decode_shared(&wire).expect("decodes");
            if let PeerMsg::Intent { op, .. } | PeerMsg::ApplyLazy { op, .. } = &decoded {
                // Tag, update seq and length prefix come first.
                assert_eq!(op.as_ptr(), wire[1 + 8 + 4..].as_ptr(), "zero-copy");
            }
            assert_eq!(decoded, msg);
        }
    }
}
