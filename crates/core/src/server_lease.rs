//! A replicated lease service — the fifth consumer of the
//! [`amoeba_rsm`] API: TTL-bounded exclusive grants over **logical
//! time**, used by the cluster's rebalancer to ensure at most one
//! migration coordinator per directory.
//!
//! Like the lock and queue services, the whole service is this file: a
//! wire format, a deterministic [`Service::apply`] over a `HashMap`,
//! and a typed client; the state machine, server loop and client
//! plumbing are the [`amoeba_rsm::service`] harness. There is **zero
//! group-protocol code** here. The state is fully volatile — a rebooted
//! replica recovers purely from a peer's snapshot.
//!
//! ## Logical time
//!
//! The state machine keeps no wall clock (a replicated machine must be
//! deterministic, and the simulator's clock is not part of the
//! replicated state). Instead it counts **applied operations**: every
//! replicated op ticks the clock by one (bytes that do not decode never
//! reach `apply` and tick nothing), and a grant with TTL `t`
//! expires once `t` further operations have been ordered. A crashed
//! coordinator therefore blocks a contender for at most `ttl` of the
//! contender's own (clock-ticking) grant attempts — deterministic,
//! identical on every replica, and free of clock-skew semantics. The
//! price is that an *idle* service never expires anything, which is
//! exactly right for a fencing lease: with no contention, nobody cares.
//!
//! ## Why directory *read* leases do not live here
//!
//! The client cache ([`crate::cache`]) also runs on leases, but those
//! grants live inside each **directory shard's own** replicated state
//! ([`DirRequest::FetchDir`](crate::DirRequest::FetchDir) →
//! `DirOp::GrantRead`), not in this service. The cache's fence is an
//! ordering property: *every* write to a directory must revoke the
//! covering leases **before it is acknowledged**. Had the grants lived
//! here — a separate replica group with its own sequencer — there
//! would be no total order between "lease granted" and "row written":
//! a grant could race a write, with neither side obliged to see the
//! other, and a just-granted snapshot could outlive an acknowledged
//! update it never saw. Keeping the grant in the same totally-ordered
//! op stream as the writes it fences makes the revocation protocol a
//! local, deterministic step of `apply`:
//!
//! 1. `GrantRead` is ordered through the shard's group like any write;
//!    every replica records `(owner, callback port, deadline)`.
//! 2. A later write's `apply` moves the directory's live leases to a
//!    volatile revocation queue — on every replica, at the same point
//!    in the op stream.
//! 3. The replica that *initiated* the write then drains that queue —
//!    invalidation callback per holder, bounded retries, full lease
//!    expiry as the fallback for unreachable holders — **before**
//!    replying to the client.
//!
//! Expiry for those leases is real (simulated) time, not logical time:
//! a read lease must die on an *idle* deadline too, because its holder
//! serves lookups locally without ticking anything. The two designs
//! coexist deliberately: logical time for mutual-exclusion fencing
//! (this file), wall-clock deadlines for read caching ([`crate::cache`]).

use std::collections::HashMap;

use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Port;
use amoeba_rpc::{RpcClient, RpcError};
use amoeba_rsm::service::{Service, ServiceClient};
use amoeba_sim::Ctx;

/// The public FLIP port of the lease service.
pub const LEASE_PORT: Port = Port::from_raw(0x004C_5345); // "LSE"

/// Client-visible operations of the lease service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseRequest {
    /// Acquire (or renew) `name` for `owner`, expiring after `ttl`
    /// further applied operations.
    Grant {
        /// Lease name.
        name: String,
        /// Owner token (client-chosen).
        owner: u64,
        /// Lifetime in logical ticks (applied ops).
        ttl: u64,
    },
    /// Release `name` held by `owner`.
    Release {
        /// Lease name.
        name: String,
        /// Owner token.
        owner: u64,
    },
    /// Read who holds `name` (a local read behind the read barrier).
    Query {
        /// Lease name.
        name: String,
    },
}

/// Replies of the lease service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseReply {
    /// Granted (or renewed); expires at this logical time.
    Granted {
        /// Logical expiry (applied-op count).
        expires: u64,
    },
    /// Grant refused: held by this other owner until `expires`.
    Busy {
        /// Current holder's token.
        holder: u64,
        /// Logical expiry.
        expires: u64,
    },
    /// Release done.
    Ok,
    /// Release refused: not held by the caller (or already expired).
    NotHeld,
    /// Query: held by this owner until `expires`.
    Held {
        /// Holder's token.
        holder: u64,
        /// Logical expiry.
        expires: u64,
    },
    /// Query: free (never granted, released, or expired).
    Free,
    /// Malformed request.
    Malformed,
    /// The replica is recovering or without a majority.
    NoMajority,
}

const LS_GRANT: u8 = 1;
const LS_RELEASE: u8 = 2;
const LS_QUERY: u8 = 3;

const LR_GRANTED: u8 = 1;
const LR_BUSY: u8 = 2;
const LR_OK: u8 = 3;
const LR_NOT_HELD: u8 = 4;
const LR_HELD: u8 = 5;
const LR_FREE: u8 = 6;
const LR_MALFORMED: u8 = 7;
const LR_NO_MAJORITY: u8 = 8;

impl Wire for LeaseRequest {
    fn put(&self, w: &mut WireWriter) {
        match self {
            LeaseRequest::Grant { name, owner, ttl } => {
                w.u8(LS_GRANT).string(name).u64(*owner).u64(*ttl)
            }
            LeaseRequest::Release { name, owner } => w.u8(LS_RELEASE).string(name).u64(*owner),
            LeaseRequest::Query { name } => w.u8(LS_QUERY).string(name),
        };
    }

    fn get(r: &mut WireReader<'_>) -> Result<LeaseRequest, DecodeError> {
        Ok(match r.u8("lease req tag")? {
            LS_GRANT => LeaseRequest::Grant {
                name: r.string("lease name")?,
                owner: r.u64("lease owner")?,
                ttl: r.u64("lease ttl")?,
            },
            LS_RELEASE => LeaseRequest::Release {
                name: r.string("lease name")?,
                owner: r.u64("lease owner")?,
            },
            LS_QUERY => LeaseRequest::Query {
                name: r.string("lease name")?,
            },
            _ => return Err(DecodeError::new("lease req tag")),
        })
    }
}

impl Wire for LeaseReply {
    fn put(&self, w: &mut WireWriter) {
        match self {
            LeaseReply::Granted { expires } => w.u8(LR_GRANTED).u64(*expires),
            LeaseReply::Busy { holder, expires } => w.u8(LR_BUSY).u64(*holder).u64(*expires),
            LeaseReply::Ok => w.u8(LR_OK),
            LeaseReply::NotHeld => w.u8(LR_NOT_HELD),
            LeaseReply::Held { holder, expires } => w.u8(LR_HELD).u64(*holder).u64(*expires),
            LeaseReply::Free => w.u8(LR_FREE),
            LeaseReply::Malformed => w.u8(LR_MALFORMED),
            LeaseReply::NoMajority => w.u8(LR_NO_MAJORITY),
        };
    }

    fn get(r: &mut WireReader<'_>) -> Result<LeaseReply, DecodeError> {
        Ok(match r.u8("lease rep tag")? {
            LR_GRANTED => LeaseReply::Granted {
                expires: r.u64("lease expires")?,
            },
            LR_BUSY => LeaseReply::Busy {
                holder: r.u64("lease holder")?,
                expires: r.u64("lease expires")?,
            },
            LR_OK => LeaseReply::Ok,
            LR_NOT_HELD => LeaseReply::NotHeld,
            LR_HELD => LeaseReply::Held {
                holder: r.u64("lease holder")?,
                expires: r.u64("lease expires")?,
            },
            LR_FREE => LeaseReply::Free,
            LR_MALFORMED => LeaseReply::Malformed,
            LR_NO_MAJORITY => LeaseReply::NoMajority,
            _ => return Err(DecodeError::new("lease rep tag")),
        })
    }
}

// ---------------------------------------------------------------------
// The state and its ops.
// ---------------------------------------------------------------------

/// The replicated lease table over its logical clock.
#[derive(Debug, Default)]
pub struct LeaseTable {
    /// Logical clock: one tick per applied (replicated) operation.
    clock: u64,
    /// name → (owner token, logical expiry).
    leases: HashMap<String, (u64, u64)>,
}

impl LeaseTable {
    /// Who holds `name`, if unexpired (serve only behind a read
    /// barrier): `(owner, logical expiry)`.
    pub fn holder(&self, name: &str) -> Option<(u64, u64)> {
        let live = |(_, expires): &(u64, u64)| *expires > self.clock;
        self.leases.get(name).copied().filter(live)
    }

    /// The current logical clock (diagnostics/tests).
    pub fn clock(&self) -> u64 {
        self.clock
    }
}

impl Wire for LeaseTable {
    fn put(&self, w: &mut WireWriter) {
        w.u64(self.clock);
        self.leases.put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<LeaseTable, DecodeError> {
        Ok(LeaseTable {
            clock: r.u64("clock")?,
            leases: Wire::get(r)?,
        })
    }
}

/// The lease service, as the harness sees it.
#[derive(Debug)]
pub struct LeaseService;

impl Service for LeaseService {
    const NAME: &'static str = "lease";
    const PROC: &'static str = "lease";
    const PORT: Port = LEASE_PORT;
    const NO_MAJORITY: LeaseReply = LeaseReply::NoMajority;
    const MALFORMED: LeaseReply = LeaseReply::Malformed;
    type State = LeaseTable;
    type Request = LeaseRequest;
    type Reply = LeaseReply;
    type Client = LeaseClient;

    fn apply(table: &mut LeaseTable, req: LeaseRequest) -> LeaseReply {
        // Every ordered operation ticks logical time — this is what
        // lets a contender's own retries age a dead holder's grant out.
        table.clock += 1;
        let clock = table.clock;
        let reply = match req {
            LeaseRequest::Grant { name, owner, ttl } => {
                match table.leases.get(&name).copied() {
                    // An unexpired lease held by someone else wins.
                    Some((holder, expires)) if expires > clock && holder != owner => {
                        LeaseReply::Busy { holder, expires }
                    }
                    // Free, expired, or our own (renew): (re)grant.
                    _ => {
                        let expires = clock + ttl.max(1);
                        table.leases.insert(name, (owner, expires));
                        LeaseReply::Granted { expires }
                    }
                }
            }
            LeaseRequest::Release { name, owner } => match table.leases.get(&name).copied() {
                Some((holder, expires)) if expires > clock && holder == owner => {
                    table.leases.remove(&name);
                    LeaseReply::Ok
                }
                _ => LeaseReply::NotHeld,
            },
            LeaseRequest::Query { .. } => LeaseReply::Malformed, // never replicated
        };
        // Expired residue is garbage; drop it eagerly (deterministic:
        // depends only on replicated state and the clock).
        table.leases.retain(|_, (_, expires)| *expires > clock);
        reply
    }

    fn read(table: &LeaseTable, req: &LeaseRequest) -> Option<LeaseReply> {
        match req {
            LeaseRequest::Query { name } => Some(match table.holder(name) {
                Some((holder, expires)) => LeaseReply::Held { holder, expires },
                None => LeaseReply::Free,
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Typed client.
// ---------------------------------------------------------------------

/// Errors surfaced by [`LeaseClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// The service has no majority (retry later).
    NoMajority,
    /// The service refused or mangled the request.
    Service,
    /// Transport failure.
    Rpc(RpcError),
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::NoMajority => f.write_str("lease service has no majority"),
            LeaseError::Service => f.write_str("lease service refused the request"),
            LeaseError::Rpc(e) => write!(f, "lease transport: {e}"),
        }
    }
}

impl std::error::Error for LeaseError {}

/// Client stub for the lease service.
#[derive(Clone, Debug)]
pub struct LeaseClient(ServiceClient<LeaseService>);

impl From<ServiceClient<LeaseService>> for LeaseClient {
    fn from(client: ServiceClient<LeaseService>) -> LeaseClient {
        LeaseClient(client)
    }
}

impl LeaseClient {
    /// Creates a stub talking to the service through `rpc`.
    pub fn new(rpc: RpcClient) -> LeaseClient {
        LeaseClient(ServiceClient::new(rpc))
    }

    /// Acquires (or renews) `name` for `owner`. Returns the logical
    /// expiry on success, `None` if another owner holds it.
    ///
    /// # Errors
    ///
    /// [`LeaseError::NoMajority`] while the service is recovering.
    pub fn grant(
        &self,
        ctx: &Ctx,
        name: &str,
        owner: u64,
        ttl: u64,
    ) -> Result<Option<u64>, LeaseError> {
        let name = name.to_owned();
        let req = LeaseRequest::Grant { name, owner, ttl };
        let reply = self.0.op(ctx, "cli.ls.grant", &req);
        match reply.map_err(LeaseError::Rpc)? {
            LeaseReply::Granted { expires } => Ok(Some(expires)),
            LeaseReply::Busy { .. } => Ok(None),
            LeaseReply::NoMajority => Err(LeaseError::NoMajority),
            _ => Err(LeaseError::Service),
        }
    }

    /// Releases `name` held by `owner` (releasing an expired or foreign
    /// lease reports `false`).
    ///
    /// # Errors
    ///
    /// [`LeaseError::NoMajority`] while the service is recovering.
    pub fn release(&self, ctx: &Ctx, name: &str, owner: u64) -> Result<bool, LeaseError> {
        let name = name.to_owned();
        let req = LeaseRequest::Release { name, owner };
        let reply = self.0.op(ctx, "cli.ls.release", &req);
        match reply.map_err(LeaseError::Rpc)? {
            LeaseReply::Ok => Ok(true),
            LeaseReply::NotHeld => Ok(false),
            LeaseReply::NoMajority => Err(LeaseError::NoMajority),
            _ => Err(LeaseError::Service),
        }
    }

    /// Who holds `name`, if unexpired: `(owner, logical expiry)`.
    ///
    /// # Errors
    ///
    /// [`LeaseError::NoMajority`] while the service is recovering.
    pub fn query(&self, ctx: &Ctx, name: &str) -> Result<Option<(u64, u64)>, LeaseError> {
        let name = name.to_owned();
        let req = LeaseRequest::Query { name };
        let reply = self.0.op(ctx, "cli.ls.query", &req);
        match reply.map_err(LeaseError::Rpc)? {
            LeaseReply::Held { holder, expires } => Ok(Some((holder, expires))),
            LeaseReply::Free => Ok(None),
            LeaseReply::NoMajority => Err(LeaseError::NoMajority),
            _ => Err(LeaseError::Service),
        }
    }
}
