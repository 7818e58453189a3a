//! The per-host RPC "kernel": packet handler, port cache, call tables.
//!
//! In Amoeba the kernel owns RPC port handling: it answers locate
//! broadcasts with HEREIS when a server thread is listening, hands requests
//! to waiting threads, and answers NOTHERE when none is — the behaviour the
//! paper's §4.2 server-selection analysis (Fig. 8) hinges on. [`RpcNode`]
//! reproduces exactly that, one instance per simulated machine, and as
//! kernel code: the RPC port is bound to a simulator kernel handler, run
//! at packet delivery by whichever thread is dispatching, so demultiplexing
//! a packet wakes only the thread it is for.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use amoeba_flip::{Dest, HostAddr, NodeStack, Packet, Payload, Port};
use amoeba_sim::{MailboxRx, MailboxTx, NodeId, SimHandle, Spawn};
use parking_lot::Mutex;

use crate::msg::RpcMsg;

/// The well-known FLIP port all RPC kernel traffic uses.
pub const RPC_PORT: Port = Port::from_raw(0x0052_5043); // "RPC"

/// A request handed to a server thread by [`getreq`](crate::RpcServer::getreq).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncomingRequest {
    /// The service port the request was addressed to.
    pub service: Port,
    /// The client host to reply to.
    pub client: HostAddr,
    /// Transaction id to echo in the reply.
    pub tid: u64,
    /// Marshalled request bytes (shared, zero-copy).
    pub data: Payload,
    /// Causal-trace context from the request packet
    /// ([`TraceCtx::NONE`](amoeba_telemetry::TraceCtx::NONE)
    /// when the client is untraced); `putrep` echoes it onto the reply.
    pub trace: amoeba_telemetry::TraceCtx,
}

/// Events delivered to a blocked client transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CallEvent {
    Reply(Payload),
    NotHere,
}

#[derive(Default)]
struct ServiceState {
    /// Server threads currently blocked in `getreq`, FIFO.
    waiting: VecDeque<MailboxTx<IncomingRequest>>,
}

/// The kernel-level port cache: service port → known servers, in the order
/// their HEREIS replies arrived (the paper's "first server that replied").
#[derive(Default)]
struct PortCache {
    map: HashMap<Port, Vec<HostAddr>>,
}

impl PortCache {
    fn add(&mut self, service: Port, server: HostAddr) {
        let v = self.map.entry(service).or_default();
        if !v.contains(&server) {
            v.push(server);
        }
    }

    fn remove(&mut self, service: Port, server: HostAddr) {
        if let Some(v) = self.map.get_mut(&service) {
            v.retain(|s| *s != server);
        }
    }

    fn first(&self, service: Port) -> Option<HostAddr> {
        self.map.get(&service).and_then(|v| v.first().copied())
    }
}

struct NodeInner {
    services: HashMap<Port, ServiceState>,
    calls: HashMap<u64, MailboxTx<CallEvent>>,
    locates: HashMap<u64, MailboxTx<HostAddr>>,
    cache: PortCache,
    next_id: u64,
}

/// One machine's RPC kernel. Cheap to clone; all clones are the same node.
///
/// Create with [`RpcNode::start`], which binds the packet handler on the
/// machine's simulation node so that it dies (with its tables) when the
/// machine crashes.
#[derive(Clone)]
pub struct RpcNode {
    stack: NodeStack,
    handle: SimHandle,
    inner: Arc<Mutex<NodeInner>>,
}

impl std::fmt::Debug for RpcNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RpcNode({})", self.stack.addr())
    }
}

impl RpcNode {
    /// Binds the RPC port to this node's packet handler on `sim_node`.
    pub fn start(spawner: &impl Spawn, sim_node: NodeId, stack: NodeStack) -> RpcNode {
        let handle = spawner.sim_handle();
        let node = RpcNode {
            stack,
            handle,
            inner: Arc::new(Mutex::new(NodeInner {
                services: HashMap::new(),
                calls: HashMap::new(),
                locates: HashMap::new(),
                cache: PortCache::default(),
                next_id: 1,
            })),
        };
        let kernel = node.clone();
        node.stack.bind_handler(
            RPC_PORT,
            sim_node,
            &format!("rpc@{}", node.stack.addr()),
            move |pkt| kernel.handle_packet(pkt),
        );
        node
    }

    /// This machine's host address.
    pub fn addr(&self) -> HostAddr {
        self.stack.addr()
    }

    /// The underlying network stack.
    pub fn stack(&self) -> &NodeStack {
        &self.stack
    }

    /// Demultiplexes one packet. Runs as a kernel handler: never blocks,
    /// and takes the trace context from the packet, not from the thread.
    fn handle_packet(&self, pkt: Packet) {
        let msg = match RpcMsg::decode(&pkt.payload) {
            Ok(m) => m,
            Err(_) => return, // malformed packets are dropped
        };
        let rx_trace = pkt
            .trace
            .first()
            .map(|&(_, c)| c)
            .unwrap_or(amoeba_telemetry::TraceCtx::NONE);
        match msg {
            RpcMsg::Locate {
                service,
                client,
                locate_id,
            } => {
                let listening = {
                    let inner = self.inner.lock();
                    inner
                        .services
                        .get(&service)
                        .map(|s| !s.waiting.is_empty())
                        .unwrap_or(false)
                };
                if listening {
                    self.stack.send(
                        Dest::Unicast(client),
                        RPC_PORT,
                        RpcMsg::HereIs {
                            service,
                            server: self.stack.addr(),
                            locate_id,
                        }
                        .encode(),
                    );
                }
            }
            RpcMsg::HereIs {
                service,
                server,
                locate_id,
            } => {
                let waiter = {
                    let mut inner = self.inner.lock();
                    inner.cache.add(service, server);
                    inner.locates.remove(&locate_id)
                };
                if let Some(w) = waiter {
                    w.send(server);
                }
            }
            RpcMsg::Request {
                service,
                client,
                tid,
                data,
            } => {
                let listener = {
                    let mut inner = self.inner.lock();
                    inner
                        .services
                        .get_mut(&service)
                        .and_then(|s| s.waiting.pop_front())
                };
                match listener {
                    Some(w) => w.send(IncomingRequest {
                        service,
                        client,
                        tid,
                        data,
                        trace: rx_trace,
                    }),
                    None => self.stack.send(
                        Dest::Unicast(client),
                        RPC_PORT,
                        RpcMsg::NotHere { tid, service }.encode(),
                    ),
                }
            }
            RpcMsg::Reply { tid, data } => {
                let waiter = self.inner.lock().calls.remove(&tid);
                if let Some(w) = waiter {
                    w.send(CallEvent::Reply(data));
                }
            }
            RpcMsg::NotHere { tid, .. } => {
                let waiter = self.inner.lock().calls.remove(&tid);
                if let Some(w) = waiter {
                    w.send(CallEvent::NotHere);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Hooks used by RpcServer / RpcClient.
    // ------------------------------------------------------------------

    pub(crate) fn register_service(&self, service: Port) {
        self.inner.lock().services.entry(service).or_default();
    }

    pub(crate) fn push_listener(&self, service: Port, tx: MailboxTx<IncomingRequest>) {
        self.inner
            .lock()
            .services
            .entry(service)
            .or_default()
            .waiting
            .push_back(tx);
    }

    pub(crate) fn register_call(&self) -> (u64, MailboxRx<CallEvent>) {
        let (tx, rx) = self.handle.channel();
        let mut inner = self.inner.lock();
        let tid = inner.next_id;
        inner.next_id += 1;
        inner.calls.insert(tid, tx);
        (tid, rx)
    }

    pub(crate) fn unregister_call(&self, tid: u64) {
        self.inner.lock().calls.remove(&tid);
    }

    pub(crate) fn register_locate(&self) -> (u64, MailboxRx<HostAddr>) {
        let (tx, rx) = self.handle.channel();
        let mut inner = self.inner.lock();
        let lid = inner.next_id;
        inner.next_id += 1;
        inner.locates.insert(lid, tx);
        (lid, rx)
    }

    pub(crate) fn unregister_locate(&self, lid: u64) {
        self.inner.lock().locates.remove(&lid);
    }

    pub(crate) fn cache_first(&self, service: Port) -> Option<HostAddr> {
        self.inner.lock().cache.first(service)
    }

    pub(crate) fn cache_remove(&self, service: Port, server: HostAddr) {
        self.inner.lock().cache.remove(service, server);
    }

    /// Test/diagnostic view of the cached servers for a service.
    pub fn cached_servers(&self, service: Port) -> Vec<HostAddr> {
        self.inner
            .lock()
            .cache
            .map
            .get(&service)
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_cache_orders_and_dedupes() {
        let mut c = PortCache::default();
        let p = Port::from_name("s");
        c.add(p, HostAddr(2));
        c.add(p, HostAddr(1));
        c.add(p, HostAddr(2));
        assert_eq!(c.first(p), Some(HostAddr(2)));
        c.remove(p, HostAddr(2));
        assert_eq!(c.first(p), Some(HostAddr(1)));
        c.remove(p, HostAddr(1));
        assert_eq!(c.first(p), None);
    }
}
