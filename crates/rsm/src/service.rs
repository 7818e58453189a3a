//! One harness for volatile replicated services: a service is its
//! **state and its ops**, and everything else comes from here.
//!
//! A [`Service`] names itself, picks a port, and supplies a `State`,
//! `Request`/`Reply` types with their [`Wire`] codec, a deterministic
//! [`apply`](Service::apply) for replicated ops and a
//! [`read`](Service::read) for ops served locally behind a read
//! barrier. The harness owns what is identical for every such service:
//!
//! * [`ServiceMachine`] — the one [`StateMachine`] impl: state, applied
//!   cursor and `update_seq` move together under one borrow; snapshots
//!   are framed `update_seq` + the state's wire form; a volatile machine
//!   mourns no one, so [`start_service`] runs the driver with the §3.2
//!   improved recovery rule, and a rebooted replica recovers purely
//!   from a peer's snapshot.
//! * [`start_service`] — the [`Replica`] plus the request
//!   threads: decode → [`Replica::read_barrier`] or
//!   [`Replica::submit_traced`] → reply, inside a `<name>.srv` span
//!   parented to the client's context, so a traced op is one connected
//!   tree across client, server, sequencer and replicas.
//! * [`ServiceClient`] — one RPC round trip wrapped in a client span and
//!   a latency histogram; a service's typed client is a thin wrapper
//!   over [`ServiceClient::op`].
//!
//! ## A complete service
//!
//! A replicated counter: state, two ops, codec, deployment, client call.
//! Each message enum is declared inside [`wire_enum!`](amoeba_flip::wire_enum),
//! which derives its [`Wire`] codec from the tags and fields it lists.
//! (`u64`, [`Port`], byte strings, pairs and string-keyed `HashMap`
//! come with a [`Wire`] form, so a state built of them needs no codec
//! of its own.)
//!
//! ```
//! use amoeba_flip::{wire_enum, NetParams, Network, Port};
//! use amoeba_group::{GroupConfig, GroupPeer};
//! use amoeba_rpc::{RpcClient, RpcNode};
//! use amoeba_rsm::service::{start_service, Service, ServiceClient, ServiceDeps};
//! use amoeba_sim::Simulation;
//! use std::time::Duration;
//!
//! wire_enum! {
//!     enum Req { 1 => Add(n: u64), 2 => Get }
//! }
//! wire_enum! {
//!     #[derive(Debug, PartialEq)]
//!     enum Rep { 1 => Value(v: u64), 2 => Malformed, 3 => NoMajority }
//! }
//!
//! struct Counter;
//! impl Service for Counter {
//!     const NAME: &'static str = "counter";
//!     const PROC: &'static str = "ctr";
//!     const PORT: Port = Port::from_raw(0x0043_5452);
//!     const NO_MAJORITY: Rep = Rep::NoMajority;
//!     const MALFORMED: Rep = Rep::Malformed;
//!     type State = u64; // `u64`, like maps of wire types, has its `Wire` form
//!     type Request = Req;
//!     type Reply = Rep;
//!     fn apply(count: &mut u64, req: Req) -> Rep {
//!         match req {
//!             Req::Add(n) => { *count += n; Rep::Value(*count) }
//!             Req::Get => Rep::Malformed, // reads are never replicated
//!         }
//!     }
//!     fn read(count: &u64, req: &Req) -> Option<Rep> {
//!         matches!(req, Req::Get).then(|| Rep::Value(*count))
//!     }
//! }
//!
//! let mut sim = Simulation::new(7);
//! let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 7);
//! let replicas: Vec<_> = (0..3).map(|me| {
//!     let (sim_node, stack) = (sim.add_node(&format!("ctr-{me}")), net.attach());
//!     let rpc = RpcNode::start(&sim, sim_node, stack.clone());
//!     let peer = GroupPeer::start(&sim, sim_node, stack, GroupConfig::with_resilience(2));
//!     start_service::<Counter>(&sim, ServiceDeps { n: 3, me, sim_node, rpc, peer, threads: 2 })
//! }).collect();
//! let rpc = RpcNode::start(&sim, sim.add_node("client"), net.attach());
//! let client = ServiceClient::<Counter>::new(RpcClient::new(&rpc));
//! let out = sim.spawn("app", move |ctx| {
//!     // Retry until the three replicas have formed their group.
//!     while client.op(ctx, "cli.ctr.add", &Req::Add(5)) != Ok(Rep::Value(5)) {
//!         ctx.sleep(Duration::from_millis(100));
//!     }
//!     client.op(ctx, "cli.ctr.get", &Req::Get)
//! });
//! sim.run_for(Duration::from_secs(10));
//! assert_eq!(out.take(), Some(Ok(Rep::Value(5))));
//! assert!(replicas.iter().all(|r| r.machine().read(|count| *count) == 5));
//! ```

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

use amoeba_flip::wire::{Wire, WireWriter};
use amoeba_flip::{Payload, Port};
use amoeba_group::{GroupPeer, SeqNo};
use amoeba_rpc::{RpcClient, RpcError, RpcNode, RpcServer};
use amoeba_sim::{Ctx, NodeId, Spawn};
use amoeba_telemetry::{current_ctx, set_current_ctx, Telemetry};

use crate::config::RsmConfig;
use crate::machine::{RecoveryInfo, RsmError, StateMachine};
use crate::replica::{Replica, ReplicaDeps};

/// A volatile replicated service: what is its own. The harness turns it
/// into a state machine ([`ServiceMachine`]), a server
/// ([`start_service`]) and a client ([`ServiceClient`]).
pub trait Service: Sized + 'static {
    /// Service name: the group forms on `amoeba.<NAME>`, the server
    /// span is `<NAME>.srv`.
    const NAME: &'static str;
    /// Process-name prefix of the request threads (`<PROC><me>-srv<t>`).
    const PROC: &'static str;
    /// The public FLIP port of the service.
    const PORT: Port;
    /// The reply of a replica that is recovering or without a majority.
    const NO_MAJORITY: Self::Reply;
    /// The reply to bytes that do not decode (and to a lost result).
    const MALFORMED: Self::Reply;

    /// The replicated state; its wire form is the snapshot body.
    type State: Wire + Default + 'static;
    /// Client-visible operations.
    type Request: Wire;
    /// Replies.
    type Reply: Wire;

    /// Applies one replicated op. Must be deterministic; a read-only op
    /// found in the replicated stream answers [`MALFORMED`](Self::MALFORMED).
    fn apply(state: &mut Self::State, req: Self::Request) -> Self::Reply;

    /// Answers a read-only op from local state, `None` for an op that
    /// must be replicated. Which of the two must depend on `req` alone:
    /// the server asks once to route the op and, for a read, again
    /// behind the read barrier.
    fn read(state: &Self::State, req: &Self::Request) -> Option<Self::Reply>;
}

struct Core<T> {
    state: T,
    /// Logical version (one per applied op), for recovery's source
    /// election.
    update_seq: u64,
    /// Applied cursor, kept in the same critical section as the state.
    applied_seq: SeqNo,
}

/// The replicated state of a [`Service`]: a volatile, deterministic
/// [`StateMachine`]. Durability comes entirely from replication — a
/// rebooted replica recovers the state from a peer's snapshot.
pub struct ServiceMachine<S: Service> {
    n: usize,
    core: RefCell<Core<S::State>>,
}

impl<S: Service> std::fmt::Debug for ServiceMachine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServiceMachine({})", S::NAME)
    }
}

impl<S: Service> ServiceMachine<S> {
    /// An empty machine for an `n`-replica service.
    pub fn new(n: usize) -> ServiceMachine<S> {
        ServiceMachine {
            n,
            core: RefCell::new(Core {
                state: S::State::default(),
                update_seq: 0,
                applied_seq: 0,
            }),
        }
    }

    /// Reads the local state (serve only behind a read barrier;
    /// otherwise diagnostics/tests).
    pub fn read<R>(&self, f: impl FnOnce(&S::State) -> R) -> R {
        f(&self.core.borrow_mut().state)
    }
}

impl<S: Service> StateMachine for ServiceMachine<S> {
    fn apply(&self, _ctx: &Ctx, seq: SeqNo, op: &Payload, reply: bool) -> Payload {
        let mut core = self.core.borrow_mut();
        // A malformed op still consumes its slot.
        core.applied_seq = core.applied_seq.max(seq);
        core.update_seq += 1;
        let answer = match S::Request::decode(op) {
            Ok(req) => S::apply(&mut core.state, req),
            Err(_) => S::MALFORMED,
        };
        if reply {
            answer.encode()
        } else {
            Payload::empty()
        }
    }

    fn recovery_info(&self) -> RecoveryInfo {
        RecoveryInfo {
            update_seq: self.core.borrow_mut().update_seq,
            // Volatile state: we cannot know who crashed before us.
            mourned: vec![false; self.n],
        }
    }

    fn snapshot(&self, _ctx: &Ctx) -> (SeqNo, Payload) {
        let core = self.core.borrow();
        let mut w = WireWriter::new();
        w.u64(core.update_seq);
        core.state.put(&mut w);
        (core.applied_seq, w.finish_payload())
    }

    fn install(&self, _ctx: &Ctx, cursor: SeqNo, snap: &Payload) -> bool {
        match <(u64, S::State)>::decode(snap) {
            Ok((update_seq, state)) => {
                *self.core.borrow_mut() = Core {
                    state,
                    update_seq,
                    applied_seq: cursor,
                };
                true
            }
            Err(_) => false,
        }
    }

    fn align_cursor(&self, _ctx: &Ctx, cursor: SeqNo) {
        // A new instance's order restarts: set absolutely.
        self.core.borrow_mut().applied_seq = cursor;
    }

    fn on_membership(&self, _ctx: &Ctx, seq: SeqNo, _config: &[bool]) {
        if seq > 0 {
            let mut core = self.core.borrow_mut();
            core.applied_seq = core.applied_seq.max(seq);
        }
    }
}

/// Everything needed to start one replica of a [`Service`]. Note what
/// is *not* here compared to the directory server: no disk, no Bullet,
/// no NVRAM — replication is the only durability.
#[derive(Debug)]
pub struct ServiceDeps {
    /// Total replicas.
    pub n: usize,
    /// This replica's index in `0..n`.
    pub me: usize,
    /// The machine this replica runs on.
    pub sim_node: NodeId,
    /// RPC kernel of the machine (shared with other services).
    pub rpc: RpcNode,
    /// Group kernel of the machine (shared with other services; each
    /// service forms its own group port).
    pub peer: GroupPeer,
    /// Request threads to spawn.
    pub threads: usize,
}

/// Handle to one running replica of a [`Service`]: the [`Replica`]
/// driving its [`ServiceMachine`] ([`Replica::is_normal`],
/// [`Replica::machine`], …).
pub type ServiceHandle<S> = Replica<ServiceMachine<S>>;

/// Starts one replica of service `S`: the [`Replica`] driver over a
/// fresh [`ServiceMachine`], and `deps.threads` request threads on
/// [`Service::PORT`].
pub fn start_service<S: Service>(
    spawner: &(impl Spawn + ?Sized),
    deps: ServiceDeps,
) -> ServiceHandle<S> {
    let ServiceDeps {
        n,
        me,
        sim_node,
        rpc,
        peer,
        threads,
    } = deps;
    let mut cfg = RsmConfig::new(&format!("amoeba.{}", S::NAME), n, me);
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
            sm: Rc::new(ServiceMachine::new(n)),
        },
    );
    for t in 0..threads.max(1) {
        let srv = RpcServer::new(&rpc, S::PORT);
        let replica = replica.clone();
        spawner.spawn_boxed(
            Some(sim_node),
            &format!("{}{me}-srv{t}", S::PROC),
            Box::new(move |ctx| serve(ctx, &srv, &replica)),
        );
    }
    replica
}

/// One request thread: serves requests on the service port forever.
fn serve<S: Service>(ctx: &Ctx, srv: &RpcServer, replica: &ServiceHandle<S>) -> ! {
    let span_name = format!("{}.srv", S::NAME);
    let machine = u64::from(srv.addr().0);
    loop {
        let incoming = srv.getreq(ctx);
        // The server-side span, parented to the client's request
        // context; the submit inherits it, so a traced op yields one
        // connected tree across client, server, sequencer and replicas.
        let tele = Telemetry::from_handle(&ctx.handle());
        let span = tele.begin_child(&span_name, machine, incoming.trace);
        let prev = set_current_ctx(span);
        let request = S::Request::decode(&incoming.data);
        let reply = match request.map(|req| answer(ctx, replica, &req)) {
            Ok(Ok(bytes)) => bytes,
            Ok(Err(RsmError::NotInService | RsmError::Aborted)) => S::NO_MAJORITY.encode(),
            Ok(Err(RsmError::ResultLost)) | Err(_) => S::MALFORMED.encode(),
        };
        set_current_ctx(prev);
        tele.end(span);
        srv.putrep(&incoming, reply);
    }
}

/// Routes one decoded request: a read-only op is answered from local
/// state behind the read barrier, anything else is replicated.
fn answer<S: Service>(
    ctx: &Ctx,
    replica: &ServiceHandle<S>,
    req: &S::Request,
) -> Result<Payload, RsmError> {
    let read = || replica.machine().read(|state| S::read(state, req));
    if read().is_none() {
        return replica.submit_traced(ctx, req.encode(), current_ctx());
    }
    replica.read_barrier(ctx)?;
    Ok(read().unwrap_or(S::MALFORMED).encode())
}

/// Client stub of a [`Service`]: typed clients wrap [`op`](Self::op).
pub struct ServiceClient<S> {
    rpc: RpcClient,
    service: PhantomData<fn() -> S>,
}

impl<S> Clone for ServiceClient<S> {
    fn clone(&self) -> Self {
        ServiceClient::new(self.rpc.clone())
    }
}

impl<S> std::fmt::Debug for ServiceClient<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServiceClient({:?})", self.rpc)
    }
}

impl<S> ServiceClient<S> {
    /// Creates a stub talking to the service through `rpc` (the service
    /// is found by the locate broadcast on its port).
    pub fn new(rpc: RpcClient) -> ServiceClient<S> {
        ServiceClient {
            rpc,
            service: PhantomData,
        }
    }
}

impl<S: Service> ServiceClient<S> {
    /// One operation: a round trip to the service, inside a client span
    /// `name` (root when the process has no ambient context) and a
    /// latency histogram of the same name. A reply that does not decode
    /// reads as [`Service::MALFORMED`].
    ///
    /// # Errors
    ///
    /// [`RpcError`] on transport failure.
    pub fn op(&self, ctx: &Ctx, name: &str, req: &S::Request) -> Result<S::Reply, RpcError> {
        let call = || {
            let bytes = self.rpc.trans(ctx, S::PORT, req.encode())?;
            Ok(S::Reply::decode(&bytes).unwrap_or(S::MALFORMED))
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
}
