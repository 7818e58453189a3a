//! A replicated lock/registry service — the second consumer of the
//! [`amoeba_rsm`] API, proving the claim the crate makes: a
//! fault-tolerant service is its state and its ops.
//!
//! The whole service is this file: a wire format, a deterministic
//! [`Service::apply`] over a `HashMap`, and a typed client. There is
//! **zero group-protocol code** here — ordering, majority rule, apply
//! batching, reset and recovery (including state transfer to a
//! rebooted replica) come from the generic driver, and the state
//! machine, server loop and client plumbing from the
//! [`amoeba_rsm::service`] harness. The state is fully volatile: a
//! rebooted replica relies on its peers' snapshots.

use std::collections::HashMap;

use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Port;
use amoeba_rpc::{RpcClient, RpcError};
use amoeba_rsm::service::{Service, ServiceClient};
use amoeba_sim::Ctx;

/// The public FLIP port of the lock service.
pub const LOCK_PORT: Port = Port::from_raw(0x004C_4F43); // "LOC"

/// Client-visible operations of the lock/registry service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockRequest {
    /// Acquire `name` for `owner` (fails if held by someone else).
    Acquire {
        /// Lock name.
        name: String,
        /// Owner token (client-chosen).
        owner: u64,
    },
    /// Release `name` held by `owner`.
    Release {
        /// Lock name.
        name: String,
        /// Owner token.
        owner: u64,
    },
    /// Read who holds `name` (a local read behind the read barrier).
    Query {
        /// Lock name.
        name: String,
    },
}

/// Replies of the lock/registry service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockReply {
    /// The operation succeeded.
    Ok,
    /// The lock is held by this owner.
    Held(u64),
    /// The lock is free.
    Free,
    /// Acquire refused: held by this other owner.
    Busy(u64),
    /// Release refused: not held by the caller.
    NotHeld,
    /// Malformed request.
    Malformed,
    /// The replica is recovering or without a majority.
    NoMajority,
}

const L_ACQUIRE: u8 = 1;
const L_RELEASE: u8 = 2;
const L_QUERY: u8 = 3;

const R_OK: u8 = 1;
const R_HELD: u8 = 2;
const R_FREE: u8 = 3;
const R_BUSY: u8 = 4;
const R_NOT_HELD: u8 = 5;
const R_MALFORMED: u8 = 6;
const R_NO_MAJORITY: u8 = 7;

impl Wire for LockRequest {
    fn put(&self, w: &mut WireWriter) {
        match self {
            LockRequest::Acquire { name, owner } => w.u8(L_ACQUIRE).string(name).u64(*owner),
            LockRequest::Release { name, owner } => w.u8(L_RELEASE).string(name).u64(*owner),
            LockRequest::Query { name } => w.u8(L_QUERY).string(name),
        };
    }

    fn get(r: &mut WireReader<'_>) -> Result<LockRequest, DecodeError> {
        Ok(match r.u8("lock req tag")? {
            L_ACQUIRE => LockRequest::Acquire {
                name: r.string("lock name")?,
                owner: r.u64("lock owner")?,
            },
            L_RELEASE => LockRequest::Release {
                name: r.string("lock name")?,
                owner: r.u64("lock owner")?,
            },
            L_QUERY => LockRequest::Query {
                name: r.string("lock name")?,
            },
            _ => return Err(DecodeError::new("lock req tag")),
        })
    }
}

impl Wire for LockReply {
    fn put(&self, w: &mut WireWriter) {
        match self {
            LockReply::Ok => w.u8(R_OK),
            LockReply::Held(o) => w.u8(R_HELD).u64(*o),
            LockReply::Free => w.u8(R_FREE),
            LockReply::Busy(o) => w.u8(R_BUSY).u64(*o),
            LockReply::NotHeld => w.u8(R_NOT_HELD),
            LockReply::Malformed => w.u8(R_MALFORMED),
            LockReply::NoMajority => w.u8(R_NO_MAJORITY),
        };
    }

    fn get(r: &mut WireReader<'_>) -> Result<LockReply, DecodeError> {
        Ok(match r.u8("lock rep tag")? {
            R_OK => LockReply::Ok,
            R_HELD => LockReply::Held(r.u64("holder")?),
            R_FREE => LockReply::Free,
            R_BUSY => LockReply::Busy(r.u64("holder")?),
            R_NOT_HELD => LockReply::NotHeld,
            R_MALFORMED => LockReply::Malformed,
            R_NO_MAJORITY => LockReply::NoMajority,
            _ => return Err(DecodeError::new("lock rep tag")),
        })
    }
}

// ---------------------------------------------------------------------
// The state and its ops.
// ---------------------------------------------------------------------

/// The replicated lock table: lock name → owner token.
pub type LockTable = HashMap<String, u64>;

/// The lock/registry service, as the harness sees it.
#[derive(Debug)]
pub struct LockService;

impl Service for LockService {
    const NAME: &'static str = "lock";
    const PROC: &'static str = "lock";
    const PORT: Port = LOCK_PORT;
    const NO_MAJORITY: LockReply = LockReply::NoMajority;
    const MALFORMED: LockReply = LockReply::Malformed;
    type State = LockTable;
    type Request = LockRequest;
    type Reply = LockReply;
    type Client = LockClient;

    fn apply(held: &mut LockTable, req: LockRequest) -> LockReply {
        match req {
            LockRequest::Acquire { name, owner } => match held.get(&name) {
                Some(holder) if *holder != owner => LockReply::Busy(*holder),
                _ => {
                    held.insert(name, owner);
                    LockReply::Ok
                }
            },
            LockRequest::Release { name, owner } => match held.get(&name) {
                Some(holder) if *holder == owner => {
                    held.remove(&name);
                    LockReply::Ok
                }
                _ => LockReply::NotHeld,
            },
            LockRequest::Query { .. } => LockReply::Malformed, // never replicated
        }
    }

    fn read(held: &LockTable, req: &LockRequest) -> Option<LockReply> {
        match req {
            LockRequest::Query { name } => Some(match held.get(name) {
                Some(owner) => LockReply::Held(*owner),
                None => LockReply::Free,
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Typed client.
// ---------------------------------------------------------------------

/// Errors surfaced by [`LockClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The lock is held by another owner.
    Busy(u64),
    /// Release of a lock the caller does not hold.
    NotHeld,
    /// The service has no majority (retry later).
    NoMajority,
    /// The service refused or mangled the request.
    Service,
    /// Transport failure.
    Rpc(RpcError),
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Busy(o) => write!(f, "lock held by owner {o}"),
            LockError::NotHeld => f.write_str("lock not held by caller"),
            LockError::NoMajority => f.write_str("lock service has no majority"),
            LockError::Service => f.write_str("lock service refused the request"),
            LockError::Rpc(e) => write!(f, "lock transport: {e}"),
        }
    }
}

impl std::error::Error for LockError {}

/// Client stub for the lock/registry service.
#[derive(Clone, Debug)]
pub struct LockClient(ServiceClient<LockService>);

impl From<ServiceClient<LockService>> for LockClient {
    fn from(client: ServiceClient<LockService>) -> LockClient {
        LockClient(client)
    }
}

impl LockClient {
    /// Creates a stub talking to the service through `rpc`.
    pub fn new(rpc: RpcClient) -> LockClient {
        LockClient(ServiceClient::new(rpc))
    }

    /// Acquires `name` for `owner`.
    ///
    /// # Errors
    ///
    /// [`LockError::Busy`] if held by another owner.
    pub fn acquire(&self, ctx: &Ctx, name: &str, owner: u64) -> Result<(), LockError> {
        let name = name.to_owned();
        let req = LockRequest::Acquire { name, owner };
        let reply = self.0.op(ctx, "cli.lk.acquire", &req);
        match reply.map_err(LockError::Rpc)? {
            LockReply::Ok => Ok(()),
            LockReply::Busy(o) => Err(LockError::Busy(o)),
            LockReply::NoMajority => Err(LockError::NoMajority),
            _ => Err(LockError::Service),
        }
    }

    /// Releases `name` held by `owner`.
    ///
    /// # Errors
    ///
    /// [`LockError::NotHeld`] if the caller does not hold it.
    pub fn release(&self, ctx: &Ctx, name: &str, owner: u64) -> Result<(), LockError> {
        let name = name.to_owned();
        let req = LockRequest::Release { name, owner };
        let reply = self.0.op(ctx, "cli.lk.release", &req);
        match reply.map_err(LockError::Rpc)? {
            LockReply::Ok => Ok(()),
            LockReply::NotHeld => Err(LockError::NotHeld),
            LockReply::NoMajority => Err(LockError::NoMajority),
            _ => Err(LockError::Service),
        }
    }

    /// Who holds `name`, if anyone.
    ///
    /// # Errors
    ///
    /// [`LockError::Service`] / [`LockError::Rpc`] on failure.
    pub fn query(&self, ctx: &Ctx, name: &str) -> Result<Option<u64>, LockError> {
        let name = name.to_owned();
        let req = LockRequest::Query { name };
        let reply = self.0.op(ctx, "cli.lk.query", &req);
        match reply.map_err(LockError::Rpc)? {
            LockReply::Held(o) => Ok(Some(o)),
            LockReply::Free => Ok(None),
            LockReply::NoMajority => Err(LockError::NoMajority),
            _ => Err(LockError::Service),
        }
    }
}
