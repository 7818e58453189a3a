//! A replicated lease service on the [`amoeba_rsm`] API: TTL-bounded
//! exclusive grants over **logical time**, used by the cluster's
//! rebalancer to ensure at most one migration coordinator per
//! directory.
//!
//! The whole service is this file: a wire format, a deterministic
//! [`LeaseTable::apply`] over a `HashMap`, the [`LeaseMachine`] that
//! implements [`StateMachine`] over it, the request threads and a typed
//! client. There is **zero group-protocol code** here: ordering,
//! recovery and state transfer are the [`Replica`] driver's. The state
//! is fully volatile — a rebooted replica recovers purely from a
//! peer's snapshot.
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
//!    every replica records `(owner, callback port, deadline)`. The
//!    grant needs its place in the order, not durability (the table is
//!    volatile behind the cold-boot fence), so its initiator answers
//!    once it is applied there (`Replica::submit_ordered`): with the
//!    rows the lease covers, read once no batch in flight has changed
//!    the directory, or with `Unchanged` when the holder's fetch named
//!    their digest (see [`crate::cache`]).
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

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use amoeba_flip::wire::{Wire, WireWriter};
use amoeba_flip::{wire_enum, wire_struct, Payload, Port};
use amoeba_group::{GroupPeer, SeqNo};
use amoeba_rpc::{RpcClient, RpcError, RpcNode, RpcServer};
use amoeba_rsm::{Replica, ReplicaDeps, RsmConfig, RsmError, StateMachine};
use amoeba_sim::{Ctx, NodeId, Spawn};
use amoeba_telemetry::{current_ctx, set_current_ctx, Telemetry};

/// The public FLIP port of the lease service.
pub const LEASE_PORT: Port = Port::from_raw(0x004C_5345); // "LSE"

wire_enum! {
    /// Client-visible operations of the lease service.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum LeaseRequest {
        /// Acquire (or renew) `name` for `owner`, expiring after `ttl`
        /// further applied operations.
        1 => Grant {
            /// Lease name.
            name: String,
            /// Owner token (client-chosen).
            owner: u64,
            /// Lifetime in logical ticks (applied ops).
            ttl: u64,
        },
        /// Release `name` held by `owner`.
        2 => Release {
            /// Lease name.
            name: String,
            /// Owner token.
            owner: u64,
        },
        /// Read who holds `name` (a local read behind the read barrier).
        3 => Query {
            /// Lease name.
            name: String,
        },
    }
}

wire_enum! {
    /// Replies of the lease service.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum LeaseReply {
        /// Granted (or renewed); expires at this logical time.
        1 => Granted {
            /// Logical expiry (applied-op count).
            expires: u64,
        },
        /// Grant refused: held by this other owner until `expires`.
        2 => Busy {
            /// Current holder's token.
            holder: u64,
            /// Logical expiry.
            expires: u64,
        },
        /// Release done.
        3 => Ok,
        /// Release refused: not held by the caller (or already expired).
        4 => NotHeld,
        /// Query: held by this owner until `expires`.
        5 => Held {
            /// Holder's token.
            holder: u64,
            /// Logical expiry.
            expires: u64,
        },
        /// Query: free (never granted, released, or expired).
        6 => Free,
        /// Malformed request.
        7 => Malformed,
        /// The replica is recovering or without a majority.
        8 => NoMajority,
    }
}

// ---------------------------------------------------------------------
// The state and its ops.
// ---------------------------------------------------------------------

wire_struct! {
    /// The replicated lease table over its logical clock.
    #[derive(Debug, Default)]
    pub struct LeaseTable {
        /// Logical clock: one tick per applied (replicated) operation.
        clock: u64,
        /// name → (owner token, logical expiry).
        leases: HashMap<String, (u64, u64)>,
    }
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

impl LeaseTable {
    /// Applies one replicated op. Deterministic; a read-only op found
    /// in the replicated stream answers `Malformed`.
    pub fn apply(&mut self, req: LeaseRequest) -> LeaseReply {
        let table = self;
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

    /// Answers a read-only op from the table, `None` for an op that
    /// must be replicated. Which of the two depends on `req` alone: the
    /// server asks once to route the op and, for a read, again behind
    /// the read barrier.
    pub fn read(&self, req: &LeaseRequest) -> Option<LeaseReply> {
        match req {
            LeaseRequest::Query { name } => Some(match self.holder(name) {
                Some((holder, expires)) => LeaseReply::Held { holder, expires },
                None => LeaseReply::Free,
            }),
            _ => None,
        }
    }
}

struct Core {
    table: LeaseTable,
    /// Logical version (one per applied op), for recovery's source
    /// election.
    update_seq: u64,
    /// Applied cursor, kept in the same critical section as the table.
    applied_seq: SeqNo,
}

/// The lease service's replicated state machine: the table, its
/// version and the applied cursor, moved together under one borrow.
/// Volatile: durability comes entirely from replication, so it keeps no
/// configuration and its replica mourns no one.
pub struct LeaseMachine {
    core: RefCell<Core>,
}

impl Default for LeaseMachine {
    fn default() -> LeaseMachine {
        LeaseMachine {
            core: RefCell::new(Core {
                table: LeaseTable::default(),
                update_seq: 0,
                applied_seq: 0,
            }),
        }
    }
}

impl std::fmt::Debug for LeaseMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LeaseMachine")
    }
}

impl LeaseMachine {
    /// Reads the local table (serve only behind a read barrier;
    /// otherwise diagnostics/tests).
    pub fn read<R>(&self, f: impl FnOnce(&LeaseTable) -> R) -> R {
        f(&self.core.borrow().table)
    }
}

impl StateMachine for LeaseMachine {
    fn apply(&self, _ctx: &Ctx, seq: SeqNo, op: &Payload, reply: bool) -> Payload {
        let mut core = self.core.borrow_mut();
        // A malformed op still consumes its slot.
        core.applied_seq = core.applied_seq.max(seq);
        core.update_seq += 1;
        let answer = match LeaseRequest::decode(op) {
            Ok(req) => core.table.apply(req),
            Err(_) => LeaseReply::Malformed,
        };
        if reply {
            answer.encode()
        } else {
            Payload::empty()
        }
    }

    fn version(&self) -> u64 {
        self.core.borrow().update_seq
    }

    /// `update_seq`, then the table.
    fn snapshot(&self, _ctx: &Ctx) -> (SeqNo, Payload) {
        let core = self.core.borrow();
        let mut w = WireWriter::new();
        w.u64(core.update_seq);
        core.table.put(&mut w);
        (core.applied_seq, w.finish_payload())
    }

    fn install(&self, _ctx: &Ctx, cursor: SeqNo, snap: &Payload) -> bool {
        match <(u64, LeaseTable)>::decode(snap) {
            Ok((update_seq, table)) => {
                *self.core.borrow_mut() = Core {
                    table,
                    update_seq,
                    applied_seq: cursor,
                };
                true
            }
            Err(_) => false,
        }
    }

    /// Nothing is durable: only the cursor moves.
    fn persist(&self, _ctx: &Ctx, cursor: SeqNo, _config: &[bool], _copying: bool) {
        self.core.borrow_mut().applied_seq = cursor;
    }
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// Request threads per replica.
const THREADS: usize = 2;

/// Starts replica `me` of an `n`-replica lease service: the [`Replica`]
/// driver over a fresh [`LeaseMachine`], and the request threads on
/// [`LEASE_PORT`].
pub(crate) fn start_lease_service(
    spawner: &(impl Spawn + ?Sized),
    n: usize,
    me: usize,
    sim_node: NodeId,
    rpc: &RpcNode,
    peer: GroupPeer,
) -> Replica<LeaseMachine> {
    let mut cfg = RsmConfig::new("amoeba.lease", n, me);
    // A volatile machine mourns no one, so the strict last-set rule
    // would demand *every* replica be present after a majority loss.
    // The §3.2 improved rule — a stayed-up replica holding the highest
    // version vouches for the missing ones — is the only recovery
    // evidence a diskless service has, and it is sufficient: state
    // lives wherever the group last had a majority.
    cfg.improved_recovery = true;
    let replica = Replica::start(
        spawner,
        ReplicaDeps {
            cfg,
            sim_node,
            rpc: rpc.clone(),
            peer,
            sm: Rc::new(LeaseMachine::default()),
        },
    );
    for t in 0..THREADS {
        let srv = RpcServer::new(rpc, LEASE_PORT);
        let replica = replica.clone();
        spawner.spawn_boxed(
            Some(sim_node),
            &format!("lease{me}-srv{t}"),
            Box::new(move |ctx| serve(ctx, &srv, &replica)),
        );
    }
    replica
}

/// One request thread: serves requests on the service port forever.
fn serve(ctx: &Ctx, srv: &RpcServer, replica: &Replica<LeaseMachine>) -> ! {
    let machine = u64::from(srv.addr().0);
    loop {
        let incoming = srv.getreq(ctx);
        // The server-side span, parented to the client's request
        // context; the submit inherits it, so a traced op yields one
        // connected tree across client, server, sequencer and replicas.
        let tele = Telemetry::from_handle(&ctx.handle());
        let span = tele.begin_child("lease.srv", machine, incoming.trace);
        let prev = set_current_ctx(span);
        let request = LeaseRequest::decode(&incoming.data);
        let reply = match request.map(|req| answer(ctx, replica, &req)) {
            Ok(Ok(bytes)) => bytes,
            Ok(Err(RsmError::NotInService | RsmError::Aborted)) => LeaseReply::NoMajority.encode(),
            Ok(Err(RsmError::ResultLost)) | Err(_) => LeaseReply::Malformed.encode(),
        };
        set_current_ctx(prev);
        tele.end(span);
        srv.putrep(&incoming, reply);
    }
}

/// Routes one decoded request: a read-only op is answered from local
/// state behind the read barrier, anything else is replicated.
fn answer(
    ctx: &Ctx,
    replica: &Replica<LeaseMachine>,
    req: &LeaseRequest,
) -> Result<Payload, RsmError> {
    let read = || replica.machine().read(|table| table.read(req));
    if read().is_none() {
        return replica.submit_traced(ctx, req.encode(), current_ctx());
    }
    replica.read_barrier(ctx)?;
    Ok(read().unwrap_or(LeaseReply::Malformed).encode())
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
pub struct LeaseClient {
    rpc: RpcClient,
}

impl LeaseClient {
    /// Creates a stub talking to the service through `rpc` (the service
    /// is found by the locate broadcast on [`LEASE_PORT`]).
    pub fn new(rpc: RpcClient) -> LeaseClient {
        LeaseClient { rpc }
    }

    /// One operation: a round trip to the service, inside a client span
    /// `name` (root when the process has no ambient context) and a
    /// latency histogram of the same name. A reply that does not decode
    /// reads as `Malformed`.
    fn op(&self, ctx: &Ctx, name: &str, req: &LeaseRequest) -> Result<LeaseReply, RpcError> {
        let call = || {
            let bytes = self.rpc.trans(ctx, LEASE_PORT, req.encode())?;
            Ok(LeaseReply::decode(&bytes).unwrap_or(LeaseReply::Malformed))
        };
        let tele = Telemetry::from_handle(&ctx.handle());
        if !tele.is_enabled() {
            return call();
        }
        let machine = u64::from(self.rpc.addr().0);
        let outer = current_ctx();
        let span = if outer.is_some() {
            tele.begin_child(name, machine, outer)
        } else {
            tele.begin_root(name, machine)
        };
        let prev = set_current_ctx(span);
        let start = ctx.now();
        let r = call();
        set_current_ctx(prev);
        tele.end(span);
        tele.observe_since(name, start);
        r
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
        let reply = self.op(ctx, "cli.ls.grant", &req);
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
        let reply = self.op(ctx, "cli.ls.release", &req);
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
        let reply = self.op(ctx, "cli.ls.query", &req);
        match reply.map_err(LeaseError::Rpc)? {
            LeaseReply::Held { holder, expires } => Ok(Some((holder, expires))),
            LeaseReply::Free => Ok(None),
            LeaseReply::NoMajority => Err(LeaseError::NoMajority),
            _ => Err(LeaseError::Service),
        }
    }
}
