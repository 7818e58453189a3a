//! The Bullet server process and its client stub.

use std::cell::RefCell;
use std::rc::Rc;

use amoeba_disk::DiskServer;
use amoeba_flip::wire::Wire;
use amoeba_flip::{Payload, Port};
use amoeba_rpc::{RpcClient, RpcError, RpcNode, RpcServer};
use amoeba_sim::{Ctx, IdMap, NodeId, Spawn};

use crate::cap::FileCap;
use crate::msg::{BulletErrorKind, BulletReply, BulletRequest};
use crate::store::BulletStore;

/// Errors surfaced by [`BulletClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BulletError {
    /// Unknown object or wrong check field.
    BadCapability,
    /// The server is out of space.
    NoSpace,
    /// Transport failure.
    Rpc(RpcError),
    /// The server sent something unintelligible.
    Protocol,
}

impl std::fmt::Display for BulletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BulletError::BadCapability => f.write_str("bad file capability"),
            BulletError::NoSpace => f.write_str("bullet server out of space"),
            BulletError::Rpc(e) => write!(f, "bullet transport: {e}"),
            BulletError::Protocol => f.write_str("malformed bullet reply"),
        }
    }
}

impl std::error::Error for BulletError {}

impl From<RpcError> for BulletError {
    fn from(e: RpcError) -> Self {
        BulletError::Rpc(e)
    }
}

/// Starts a Bullet server: `threads` server threads answering on
/// `service`, storing files through `disk` with layout state in `store`.
///
/// The RAM file cache lives inside the server processes and is lost on a
/// machine crash; `store` and the disk contents survive.
#[allow(clippy::too_many_arguments)] // deployment wiring, one call site per cluster
pub fn start_bullet_server(
    spawner: &impl Spawn,
    sim_node: NodeId,
    rpc: &RpcNode,
    service: Port,
    disk: DiskServer,
    store: BulletStore,
    base_block: u64,
    threads: usize,
) {
    let cache: Rc<RefCell<IdMap<u64, Payload>>> = Rc::new(RefCell::new(IdMap::default()));
    for t in 0..threads.max(1) {
        let srv = RpcServer::new(rpc, service);
        let disk = disk.clone();
        let store = store.clone();
        let cache = Rc::clone(&cache);
        spawner.spawn_boxed(
            Some(sim_node),
            &format!("bullet{t}@{}", rpc.addr()),
            Box::new(move |ctx| loop {
                let req = srv.getreq(ctx);
                let reply = match BulletRequest::decode_shared(&req.data) {
                    Ok(r) => handle(ctx, &disk, &store, &cache, base_block, r),
                    Err(_) => BulletReply::Error {
                        kind: BulletErrorKind::BadCapability,
                    },
                };
                srv.putrep(&req, reply.encode());
            }),
        );
    }
}

fn handle(
    ctx: &Ctx,
    disk: &DiskServer,
    store: &BulletStore,
    cache: &RefCell<IdMap<u64, Payload>>,
    base_block: u64,
    req: BulletRequest,
) -> BulletReply {
    match req {
        BulletRequest::Create { data } => match store.allocate(data.len()) {
            Some((cap, start, nblocks)) => {
                // One contiguous write: inode + data in a single seek
                // (the Bullet design point). Each block is a zero-copy
                // slice of the request payload — the file contents
                // reach the platters without ever being byte-copied.
                let bs = store.block_size();
                let blocks: Vec<Payload> = (0..nblocks as usize)
                    .map(|i| {
                        let lo = i * bs;
                        let hi = ((i + 1) * bs).min(data.len());
                        if lo < data.len() {
                            data.slice(lo..hi)
                        } else {
                            Payload::empty()
                        }
                    })
                    .collect();
                disk.write_run(ctx, base_block + start, blocks);
                cache.borrow_mut().insert(cap.object, data);
                BulletReply::Created { cap }
            }
            None => BulletReply::Error {
                kind: BulletErrorKind::NoSpace,
            },
        },
        BulletRequest::Read { cap } => match store.lookup(cap) {
            Some(inode) => {
                if let Some(data) = cache.borrow_mut().get(&cap.object).cloned() {
                    return BulletReply::Data { data };
                }
                let bs = store.block_size();
                let nblocks = inode.len_bytes.max(1).div_ceil(bs) as u64;
                let blocks = disk.read_run(ctx, base_block + inode.start_block, nblocks);
                let mut data: Vec<u8> = blocks.into_iter().flatten().collect();
                data.truncate(inode.len_bytes);
                let data = Payload::from(data);
                cache.borrow_mut().insert(cap.object, data.clone());
                BulletReply::Data { data }
            }
            None => BulletReply::Error {
                kind: BulletErrorKind::BadCapability,
            },
        },
        BulletRequest::Size { cap } => match store.lookup(cap) {
            Some(inode) => BulletReply::Size {
                len: inode.len_bytes as u64,
            },
            None => BulletReply::Error {
                kind: BulletErrorKind::BadCapability,
            },
        },
        BulletRequest::Delete { cap } => match store.remove(cap) {
            Some((start, nblocks)) => {
                cache.borrow_mut().remove(&cap.object);
                // Not a disk operation: the blocks just stop holding the
                // dead file's bytes in host memory.
                disk.vdisk().discard(base_block + start, nblocks);
                BulletReply::Done
            }
            None => BulletReply::Error {
                kind: BulletErrorKind::BadCapability,
            },
        },
    }
}

/// Client stub for one Bullet service.
#[derive(Debug, Clone)]
pub struct BulletClient {
    rpc: RpcClient,
    service: Port,
}

impl BulletClient {
    /// Creates a stub talking to `service` through `rpc`.
    pub fn new(rpc: RpcClient, service: Port) -> Self {
        BulletClient { rpc, service }
    }

    fn call(&self, ctx: &Ctx, req: BulletRequest) -> Result<BulletReply, BulletError> {
        let bytes = self.rpc.trans(ctx, self.service, req.encode())?;
        BulletReply::decode_shared(&bytes).map_err(|_| BulletError::Protocol)
    }

    /// Creates an immutable file. The contents are shared, not copied,
    /// on their way to the wire.
    ///
    /// # Errors
    ///
    /// [`BulletError::NoSpace`] if the server's file area is exhausted;
    /// transport errors if the server is unreachable.
    pub fn create(&self, ctx: &Ctx, data: impl Into<Payload>) -> Result<FileCap, BulletError> {
        match self.call(ctx, BulletRequest::Create { data: data.into() })? {
            BulletReply::Created { cap } => Ok(cap),
            BulletReply::Error { kind } => Err(kind.into()),
            _ => Err(BulletError::Protocol),
        }
    }

    /// Reads the whole file.
    ///
    /// # Errors
    ///
    /// [`BulletError::BadCapability`] for unknown/forged capabilities.
    pub fn read(&self, ctx: &Ctx, cap: FileCap) -> Result<Payload, BulletError> {
        match self.call(ctx, BulletRequest::Read { cap })? {
            BulletReply::Data { data } => Ok(data),
            BulletReply::Error { kind } => Err(kind.into()),
            _ => Err(BulletError::Protocol),
        }
    }

    /// Returns the file's size in bytes.
    ///
    /// # Errors
    ///
    /// [`BulletError::BadCapability`] for unknown/forged capabilities.
    pub fn size(&self, ctx: &Ctx, cap: FileCap) -> Result<u64, BulletError> {
        match self.call(ctx, BulletRequest::Size { cap })? {
            BulletReply::Size { len } => Ok(len),
            BulletReply::Error { kind } => Err(kind.into()),
            _ => Err(BulletError::Protocol),
        }
    }

    /// Deletes the file.
    ///
    /// # Errors
    ///
    /// [`BulletError::BadCapability`] for unknown/forged capabilities.
    pub fn delete(&self, ctx: &Ctx, cap: FileCap) -> Result<(), BulletError> {
        match self.call(ctx, BulletRequest::Delete { cap })? {
            BulletReply::Done => Ok(()),
            BulletReply::Error { kind } => Err(kind.into()),
            _ => Err(BulletError::Protocol),
        }
    }
}

impl From<BulletErrorKind> for BulletError {
    fn from(k: BulletErrorKind) -> Self {
        match k {
            BulletErrorKind::BadCapability => BulletError::BadCapability,
            BulletErrorKind::NoSpace => BulletError::NoSpace,
        }
    }
}
