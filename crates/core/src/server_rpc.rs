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

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use amoeba_flip::wire::Wire;
use amoeba_flip::{wire_enum, Payload};
use amoeba_rpc::{RpcClient, RpcServer};
use amoeba_sim::{Ctx, IdSet, MailboxTx, Spawn};

use crate::dir::{op_object, Applier};
use crate::ops::{DirError, DirOp, DirReply, DirRequest};
use crate::server::ServerDeps;

wire_enum! {
    /// Peer-coordination messages of the RPC service (the paper's
    /// intentions protocol between its two servers).
    #[derive(Debug, Clone, PartialEq)]
    pub enum PeerMsg {
        /// "I intend to perform this update" (locks the directory remotely).
        1 => Intent {
            /// The update's logical version.
            useq: u64,
            /// The encoded [`DirOp`].
            op: Payload,
        },
        /// The intention is logged.
        2 => IntentOk,
        /// A conflicting operation is in progress; retry.
        3 => IntentBusy,
        /// Lazy replication: apply this update for real.
        4 => ApplyLazy {
            /// The update's logical version.
            useq: u64,
            /// The encoded [`DirOp`].
            op: Payload,
        },
        /// The lazy update is applied.
        5 => ApplyOk,
    }
}

/// Latency of an intentions-log append: a sequential log write,
/// rotation + transfer, no full seek.
const INTENTIONS_LATENCY: Duration = Duration::from_millis(12);

/// Starts one replica of the duplicated RPC directory service
/// (`deps.cfg.n` must be 2).
pub(crate) fn start_rpc_server(spawner: &impl Spawn, deps: ServerDeps) {
    let ServerDeps {
        cfg, sim_node, rpc, ..
    } = &deps;
    assert_eq!(cfg.n, 2, "the RPC directory service is duplicated");
    let applier = deps.applier();
    // Directories locked by an in-flight update here (object 0 is the
    // allocation lock taken by creates).
    let locked: Rc<RefCell<IdSet<u64>>> = Rc::default();
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
        let applier = Rc::clone(&applier);
        spawner.spawn_boxed(
            Some(*sim_node),
            &format!("rpcdir{}-applyworker", cfg.me),
            Box::new(move |ctx| loop {
                let (useq, op) = apply_rx.recv(ctx);
                if let Ok(op) = DirOp::decode(&op) {
                    let _ = applier.apply_with_seq(ctx, useq, &op);
                }
            }),
        );
    }
    for pt in 0..2 {
        let srv = RpcServer::new(rpc, cfg.internal_port(cfg.me));
        let locked = Rc::clone(&locked);
        let apply_tx = apply_tx.clone();
        spawner.spawn_boxed(
            Some(*sim_node),
            &format!("rpcdir{}-peer{pt}", cfg.me),
            Box::new(move |ctx| loop {
                let incoming = srv.getreq(ctx);
                let reply = match PeerMsg::decode_shared(&incoming.data) {
                    Ok(PeerMsg::Intent { op, .. }) => {
                        let object = DirOp::decode(&op).map(|o| op_object(&o)).unwrap_or(0);
                        let busy = locked.borrow().contains(&object);
                        if busy {
                            PeerMsg::IntentBusy
                        } else {
                            ctx.sleep(INTENTIONS_LATENCY);
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
    let rpc_client = RpcClient::new(rpc);
    let peer_port = cfg.internal_port(1 - cfg.me);
    {
        let rpc_client = rpc_client.clone();
        spawner.spawn_boxed(
            Some(*sim_node),
            &format!("rpcdir{}-lazy", cfg.me),
            Box::new(move |ctx| loop {
                let (useq, op) = lazy_rx.recv(ctx);
                let msg = PeerMsg::ApplyLazy { useq, op };
                let _ = rpc_client.trans(ctx, peer_port, msg.encode());
            }),
        );
    }

    deps.serve_local_reads(
        spawner,
        &format!("rpcdir{}", cfg.me),
        applier,
        move |ctx, applier, req| {
            rpc_write(ctx, applier, &locked, &rpc_client, peer_port, &lazy_tx, req)
        },
    );
}

impl Applier {
    /// Applies an op under an externally supplied sequence number (used by
    /// the RPC service, whose two replicas exchange originator seqnos).
    pub(crate) fn apply_with_seq(&self, ctx: &Ctx, useq: u64, op: &DirOp) -> Payload {
        // Pre-load the affected directories, mirroring `apply`.
        self.preload_for(ctx, op);
        let planned = {
            let mut shared = self.shared.borrow_mut();
            self.plan(&mut shared, op, Some(useq), true)
        };
        match planned {
            Ok((reply, effects, _)) => {
                for e in effects {
                    self.perform_disk(ctx, e);
                }
                reply
            }
            Err(e) => DirReply::Err(e).encode(),
        }
    }
}

/// An update through the intentions protocol: logged at the peer, applied
/// here, copied to the peer lazily.
fn rpc_write(
    ctx: &Ctx,
    applier: &Applier,
    locked: &RefCell<IdSet<u64>>,
    rpc_client: &RpcClient,
    peer_port: amoeba_flip::Port,
    lazy_tx: &MailboxTx<(u64, Payload)>,
    req: &DirRequest,
) -> Result<Payload, DirError> {
    let op = applier.prepare_write(ctx, req)?;
    // A create locks the allocator, object 0.
    let lock_object = op_object(&op);
    // Local conflict lock.
    if !locked.borrow_mut().insert(lock_object) {
        return Err(DirError::Internal); // busy; client retries
    }
    let useq = { applier.shared.borrow_mut().update_seq + 1 };
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
        locked.borrow_mut().remove(&lock_object);
        return Err(DirError::Internal);
    }
    // Phase 2: perform the update locally (Bullet file + table write).
    let reply = applier.apply_with_seq(ctx, useq, &op);
    locked.borrow_mut().remove(&lock_object);
    // Phase 3: lazy replication in the background.
    lazy_tx.send((useq, op_bytes));
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden bytes of every variant live in the root suite's
    // `tests/wire_formats.rs`.

    #[test]
    fn a_peer_msg_decodes_without_copying_the_op() {
        let op = DirOp::Delete { object: 4 }.encode();
        for msg in [
            PeerMsg::Intent {
                useq: 5,
                op: op.clone(),
            },
            PeerMsg::ApplyLazy { useq: 6, op },
        ] {
            let wire = msg.encode();
            let decoded = PeerMsg::decode_shared(&wire).expect("decodes");
            let (PeerMsg::Intent { op, .. } | PeerMsg::ApplyLazy { op, .. }) = &decoded else {
                panic!("{decoded:?}");
            };
            // Tag, update seq and length prefix come first.
            assert_eq!(op.as_ptr(), wire[1 + 8 + 4..].as_ptr(), "zero-copy");
            assert_eq!(decoded, msg);
        }
    }
}
