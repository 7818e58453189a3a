//! The per-host RPC "kernel": packet handler, port cache, call tables.
//!
//! In Amoeba the kernel owns RPC port handling: it answers locate
//! broadcasts with HEREIS when a server thread is listening (only a host
//! that registered the service is handed them at all; see
//! [`NodeStack::locate`]), hands requests to waiting threads, and
//! answers NOTHERE when none is — the behaviour the paper's §4.2
//! server-selection analysis (Fig. 8) hinges on. It also
//! remembers which transactions its server threads hold until they reply,
//! so a client whose reply is late can tell a busy server from a dead one
//! (`Enquire` → `Working`). [`RpcNode`] reproduces that, one instance per
//! simulated machine, and as kernel code: the RPC port is bound to a
//! simulator kernel handler, run at packet delivery by whichever thread is
//! dispatching, so demultiplexing a packet wakes only the thread it is for.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use amoeba_flip::wire::Wire;
use amoeba_flip::{Dest, HostAddr, NodeStack, Packet, Payload, Port};
use amoeba_sim::{Ctx, IdMap, IdSet, MailboxTx, NodeId, ReplyRx};

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
    /// The server's kernel answered an enquiry: a thread holds the call.
    Working,
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
    map: IdMap<Port, Vec<HostAddr>>,
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

    /// Moves `server` to the back: the next call tries the others first.
    fn demote(&mut self, service: Port, server: HostAddr) {
        if let Some(v) = self.map.get_mut(&service) {
            if let Some(i) = v.iter().position(|s| *s == server) {
                let s = v.remove(i);
                v.push(s);
            }
        }
    }

    /// The first cached server not in `skip`.
    fn first_except(&self, service: Port, skip: &[HostAddr]) -> Option<HostAddr> {
        self.map
            .get(&service)
            .and_then(|v| v.iter().find(|s| !skip.contains(s)).copied())
    }
}

struct NodeInner {
    services: IdMap<Port, ServiceState>,
    calls: IdMap<u64, MailboxTx<CallEvent>>,
    locates: IdMap<u64, MailboxTx<HostAddr>>,
    /// `(client, tid)` of every request handed to a server thread here
    /// and not yet answered by `putrep`.
    serving: IdSet<(HostAddr, u64)>,
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
    inner: Rc<RefCell<NodeInner>>,
}

impl std::fmt::Debug for RpcNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RpcNode({})", self.stack.addr())
    }
}

impl RpcNode {
    /// Binds the RPC port to this node's packet handler on `sim_node`.
    pub fn start(sim_node: NodeId, stack: NodeStack) -> RpcNode {
        let node = RpcNode {
            stack,
            inner: Rc::new(RefCell::new(NodeInner {
                services: IdMap::default(),
                calls: IdMap::default(),
                locates: IdMap::default(),
                serving: IdSet::default(),
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
        let msg = match RpcMsg::decode_shared(&pkt.payload) {
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
                    let inner = self.inner.borrow();
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
                    let mut inner = self.inner.borrow_mut();
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
                    let mut inner = self.inner.borrow_mut();
                    let listener = inner
                        .services
                        .get_mut(&service)
                        .and_then(|s| s.waiting.pop_front());
                    if listener.is_some() {
                        inner.serving.insert((client, tid));
                    }
                    listener
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
                let waiter = self.inner.borrow_mut().calls.remove(&tid);
                if let Some(w) = waiter {
                    w.send(CallEvent::Reply(data));
                }
            }
            RpcMsg::NotHere { tid, .. } => {
                let waiter = self.inner.borrow_mut().calls.remove(&tid);
                if let Some(w) = waiter {
                    w.send(CallEvent::NotHere);
                }
            }
            RpcMsg::Enquire { client, tid } => {
                if self.inner.borrow_mut().serving.contains(&(client, tid)) {
                    self.stack.send(
                        Dest::Unicast(client),
                        RPC_PORT,
                        RpcMsg::Working { tid }.encode(),
                    );
                }
            }
            RpcMsg::Working { tid } => {
                // The call stays registered: its reply is still to come.
                let waiter = self.inner.borrow_mut().calls.get(&tid).cloned();
                if let Some(w) = waiter {
                    w.send(CallEvent::Working);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Hooks used by RpcServer / RpcClient.
    // ------------------------------------------------------------------

    /// Registers `service` here, and with the network, so this host
    /// hears the locates that seek it.
    pub(crate) fn register_service(&self, service: Port) {
        self.inner.borrow_mut().services.entry(service).or_default();
        self.stack.serve(service);
    }

    pub(crate) fn push_listener(&self, service: Port, tx: MailboxTx<IncomingRequest>) {
        self.inner
            .borrow_mut()
            .services
            .entry(service)
            .or_default()
            .waiting
            .push_back(tx);
    }

    /// A server thread answered `(client, tid)`: enquiries about it go
    /// unanswered from now on.
    pub(crate) fn finish_request(&self, client: HostAddr, tid: u64) {
        self.inner.borrow_mut().serving.remove(&(client, tid));
    }

    pub(crate) fn register_call<'c>(&self, ctx: &'c Ctx) -> (u64, ReplyRx<'c, CallEvent>) {
        let (tx, rx) = ctx.reply_channel();
        let mut inner = self.inner.borrow_mut();
        let tid = inner.next_id;
        inner.next_id += 1;
        inner.calls.insert(tid, tx);
        (tid, rx)
    }

    pub(crate) fn unregister_call(&self, tid: u64) {
        self.inner.borrow_mut().calls.remove(&tid);
    }

    pub(crate) fn register_locate<'c>(&self, ctx: &'c Ctx) -> (u64, ReplyRx<'c, HostAddr>) {
        let (tx, rx) = ctx.reply_channel();
        let mut inner = self.inner.borrow_mut();
        let lid = inner.next_id;
        inner.next_id += 1;
        inner.locates.insert(lid, tx);
        (lid, rx)
    }

    pub(crate) fn unregister_locate(&self, lid: u64) {
        self.inner.borrow_mut().locates.remove(&lid);
    }

    pub(crate) fn cache_first_except(&self, service: Port, skip: &[HostAddr]) -> Option<HostAddr> {
        self.inner.borrow_mut().cache.first_except(service, skip)
    }

    pub(crate) fn cache_demote(&self, service: Port, server: HostAddr) {
        self.inner.borrow_mut().cache.demote(service, server);
    }

    pub(crate) fn cache_remove(&self, service: Port, server: HostAddr) {
        self.inner.borrow_mut().cache.remove(service, server);
    }

    /// Test/diagnostic view of the cached servers for a service.
    pub fn cached_servers(&self, service: Port) -> Vec<HostAddr> {
        self.inner
            .borrow_mut()
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
        assert_eq!(c.first_except(p, &[]), Some(HostAddr(2)));
        c.remove(p, HostAddr(2));
        assert_eq!(c.first_except(p, &[]), Some(HostAddr(1)));
        c.remove(p, HostAddr(1));
        assert_eq!(c.first_except(p, &[]), None);
    }

    #[test]
    fn a_demoted_server_goes_to_the_back_and_stays_cached() {
        let mut c = PortCache::default();
        let p = Port::from_name("s");
        for h in 1..=3 {
            c.add(p, HostAddr(h));
        }
        c.demote(p, HostAddr(1));
        assert_eq!(c.map[&p], [HostAddr(2), HostAddr(3), HostAddr(1)]);
        assert_eq!(c.first_except(p, &[HostAddr(2)]), Some(HostAddr(3)));
        let all = [HostAddr(1), HostAddr(2), HostAddr(3)];
        assert_eq!(c.first_except(p, &all), None);
    }
}
