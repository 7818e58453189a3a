//! A replicated port-name registry — the third consumer of the
//! [`amoeba_rsm`] API: a [`Service`] mapping service *names* to FLIP
//! [`Port`]s, with **zero group-protocol code**.
//!
//! On an internetwork this is what lets a routed client find a service
//! it has never heard of: ask the registry (itself located via the
//! expanding-ring broadcast on its well-known port) for the service's
//! port by name, then locate *that* port — which may live any number of
//! segments away. Like the lock service the state is fully volatile:
//! ordering, majority rule, apply batching and recovery (peer-snapshot
//! state transfer after a reboot) all come from the generic driver
//! under the [`amoeba_rsm::service`] harness, and the §3.2 improved
//! recovery rule stands in for the durable configuration vector a
//! diskless service cannot keep.

use std::collections::HashMap;

use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::Port;
use amoeba_rpc::{RpcClient, RpcError};
use amoeba_rsm::service::{Service, ServiceClient};
use amoeba_sim::Ctx;

/// The well-known public FLIP port of the registry service.
pub const REGISTRY_PORT: Port = Port::from_raw(0x0052_4547); // "REG"

/// Client-visible operations of the port-name registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryRequest {
    /// Bind `name` to `port` (fails if bound to a different port).
    Register {
        /// Service name.
        name: String,
        /// The FLIP port the service listens on.
        port: Port,
    },
    /// Remove the binding of `name`.
    Unregister {
        /// Service name.
        name: String,
    },
    /// Read the port bound to `name` (a local read behind the read
    /// barrier).
    Lookup {
        /// Service name.
        name: String,
    },
}

/// Replies of the port-name registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryReply {
    /// The operation succeeded.
    Ok,
    /// The name is bound to this port.
    Bound(Port),
    /// The name is not bound.
    Unbound,
    /// Register refused: bound to this other port.
    Conflict(Port),
    /// Malformed request.
    Malformed,
    /// The replica is recovering or without a majority.
    NoMajority,
}

const G_REGISTER: u8 = 1;
const G_UNREGISTER: u8 = 2;
const G_LOOKUP: u8 = 3;

const P_OK: u8 = 1;
const P_BOUND: u8 = 2;
const P_UNBOUND: u8 = 3;
const P_CONFLICT: u8 = 4;
const P_MALFORMED: u8 = 5;
const P_NO_MAJORITY: u8 = 6;

impl Wire for RegistryRequest {
    fn put(&self, w: &mut WireWriter) {
        match self {
            RegistryRequest::Register { name, port } => {
                w.u8(G_REGISTER).string(name).u64(port.as_raw())
            }
            RegistryRequest::Unregister { name } => w.u8(G_UNREGISTER).string(name),
            RegistryRequest::Lookup { name } => w.u8(G_LOOKUP).string(name),
        };
    }

    fn get(r: &mut WireReader<'_>) -> Result<RegistryRequest, DecodeError> {
        Ok(match r.u8("registry req tag")? {
            G_REGISTER => RegistryRequest::Register {
                name: r.string("service name")?,
                port: Port::from_raw(r.u64("service port")?),
            },
            G_UNREGISTER => RegistryRequest::Unregister {
                name: r.string("service name")?,
            },
            G_LOOKUP => RegistryRequest::Lookup {
                name: r.string("service name")?,
            },
            _ => return Err(DecodeError::new("registry req tag")),
        })
    }
}

impl Wire for RegistryReply {
    fn put(&self, w: &mut WireWriter) {
        match self {
            RegistryReply::Ok => w.u8(P_OK),
            RegistryReply::Bound(p) => w.u8(P_BOUND).u64(p.as_raw()),
            RegistryReply::Unbound => w.u8(P_UNBOUND),
            RegistryReply::Conflict(p) => w.u8(P_CONFLICT).u64(p.as_raw()),
            RegistryReply::Malformed => w.u8(P_MALFORMED),
            RegistryReply::NoMajority => w.u8(P_NO_MAJORITY),
        };
    }

    fn get(r: &mut WireReader<'_>) -> Result<RegistryReply, DecodeError> {
        Ok(match r.u8("registry rep tag")? {
            P_OK => RegistryReply::Ok,
            P_BOUND => RegistryReply::Bound(Port::from_raw(r.u64("bound port")?)),
            P_UNBOUND => RegistryReply::Unbound,
            P_CONFLICT => RegistryReply::Conflict(Port::from_raw(r.u64("bound port")?)),
            P_MALFORMED => RegistryReply::Malformed,
            P_NO_MAJORITY => RegistryReply::NoMajority,
            _ => return Err(DecodeError::new("registry rep tag")),
        })
    }
}

// ---------------------------------------------------------------------
// The state and its ops.
// ---------------------------------------------------------------------

/// The replicated binding table: service name → port.
pub type RegistryTable = HashMap<String, Port>;

/// The port-name registry, as the harness sees it.
#[derive(Debug)]
pub struct RegistryService;

impl Service for RegistryService {
    const NAME: &'static str = "registry";
    const PROC: &'static str = "reg";
    const PORT: Port = REGISTRY_PORT;
    const NO_MAJORITY: RegistryReply = RegistryReply::NoMajority;
    const MALFORMED: RegistryReply = RegistryReply::Malformed;
    type State = RegistryTable;
    type Request = RegistryRequest;
    type Reply = RegistryReply;
    type Client = RegistryClient;

    fn apply(bound: &mut RegistryTable, req: RegistryRequest) -> RegistryReply {
        match req {
            RegistryRequest::Register { name, port } => match bound.get(&name) {
                Some(existing) if *existing != port => RegistryReply::Conflict(*existing),
                _ => {
                    bound.insert(name, port);
                    RegistryReply::Ok
                }
            },
            RegistryRequest::Unregister { name } => {
                bound.remove(&name);
                RegistryReply::Ok
            }
            RegistryRequest::Lookup { .. } => RegistryReply::Malformed, // never replicated
        }
    }

    fn read(bound: &RegistryTable, req: &RegistryRequest) -> Option<RegistryReply> {
        match req {
            RegistryRequest::Lookup { name } => Some(match bound.get(name) {
                Some(port) => RegistryReply::Bound(*port),
                None => RegistryReply::Unbound,
            }),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Typed client.
// ---------------------------------------------------------------------

/// Errors surfaced by [`RegistryClient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The name is bound to a different port.
    Conflict(Port),
    /// The service has no majority (retry later).
    NoMajority,
    /// The service refused or mangled the request.
    Service,
    /// Transport failure.
    Rpc(RpcError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Conflict(p) => write!(f, "name already bound to {p}"),
            RegistryError::NoMajority => f.write_str("registry has no majority"),
            RegistryError::Service => f.write_str("registry refused the request"),
            RegistryError::Rpc(e) => write!(f, "registry transport: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Client stub for the port-name registry.
#[derive(Clone, Debug)]
pub struct RegistryClient(ServiceClient<RegistryService>);

impl From<ServiceClient<RegistryService>> for RegistryClient {
    fn from(client: ServiceClient<RegistryService>) -> RegistryClient {
        RegistryClient(client)
    }
}

impl RegistryClient {
    /// Creates a stub talking to the registry through `rpc` (the
    /// registry itself is found by the locate broadcast on
    /// [`REGISTRY_PORT`]).
    pub fn new(rpc: RpcClient) -> RegistryClient {
        RegistryClient(ServiceClient::new(rpc))
    }

    /// Binds `name` to `port`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Conflict`] if bound to a different port.
    pub fn register(&self, ctx: &Ctx, name: &str, port: Port) -> Result<(), RegistryError> {
        let name = name.to_owned();
        let req = RegistryRequest::Register { name, port };
        let reply = self.0.op(ctx, "cli.reg.register", &req);
        match reply.map_err(RegistryError::Rpc)? {
            RegistryReply::Ok => Ok(()),
            RegistryReply::Conflict(p) => Err(RegistryError::Conflict(p)),
            RegistryReply::NoMajority => Err(RegistryError::NoMajority),
            _ => Err(RegistryError::Service),
        }
    }

    /// Removes the binding of `name` (idempotent).
    ///
    /// # Errors
    ///
    /// [`RegistryError::NoMajority`] / transport errors.
    pub fn unregister(&self, ctx: &Ctx, name: &str) -> Result<(), RegistryError> {
        let name = name.to_owned();
        let req = RegistryRequest::Unregister { name };
        let reply = self.0.op(ctx, "cli.reg.unregister", &req);
        match reply.map_err(RegistryError::Rpc)? {
            RegistryReply::Ok => Ok(()),
            RegistryReply::NoMajority => Err(RegistryError::NoMajority),
            _ => Err(RegistryError::Service),
        }
    }

    /// The port bound to `name`, if any.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Service`] / [`RegistryError::Rpc`] on failure.
    pub fn lookup(&self, ctx: &Ctx, name: &str) -> Result<Option<Port>, RegistryError> {
        let name = name.to_owned();
        let req = RegistryRequest::Lookup { name };
        let reply = self.0.op(ctx, "cli.reg.lookup", &req);
        match reply.map_err(RegistryError::Rpc)? {
            RegistryReply::Bound(p) => Ok(Some(p)),
            RegistryReply::Unbound => Ok(None),
            RegistryReply::NoMajority => Err(RegistryError::NoMajority),
            _ => Err(RegistryError::Service),
        }
    }
}
