//! The per-host protocol stack: port binding and transmission.

use amoeba_sim::{MailboxRx, NodeId};

use crate::addr::{Dest, GroupAddr, HostAddr};
use crate::bytes::Payload;
use crate::network::Network;
use crate::packet::Packet;
use crate::port::Port;
use crate::topology::SegmentId;

/// A host's attachment to the network.
///
/// Cloning is cheap; clones refer to the same host. Binding a port yields a
/// mailbox of incoming [`Packet`]s, or hands them to a kernel handler;
/// binding an already-bound port replaces the previous binding (used when
/// a crashed machine reboots).
#[derive(Clone)]
pub struct NodeStack {
    addr: HostAddr,
    net: Network,
}

impl std::fmt::Debug for NodeStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeStack({})", self.addr)
    }
}

impl NodeStack {
    pub(crate) fn new(addr: HostAddr, net: Network) -> Self {
        NodeStack { addr, net }
    }

    /// This host's unicast address.
    pub fn addr(&self) -> HostAddr {
        self.addr
    }

    /// The network this stack is attached to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The segment this host is attached to.
    pub fn segment(&self) -> SegmentId {
        self.net.segment_of(self.addr).unwrap_or(SegmentId(0))
    }

    /// The TTL that reaches every host of the internetwork (topology
    /// diameter + 1); 1 on a flat single-segment network. The upper
    /// bound of an expanding-ring locate.
    pub fn max_hops(&self) -> u8 {
        self.net.max_hops()
    }

    /// Binds `port`, returning the mailbox that receives its packets.
    /// Replaces any previous binding for the port.
    pub fn bind(&self, port: Port) -> MailboxRx<Packet> {
        let (tx, rx) = self.net.handle().channel::<Packet>();
        if let Some(table) = self.net.endpoints_of(self.addr) {
            table.borrow_mut().insert(port, tx);
        }
        rx
    }

    /// Binds `port` to a kernel handler on `sim_node` (see
    /// [`SimHandle::handler`](amoeba_sim::SimHandle::handler)): `f` is
    /// called with each packet as it is delivered, and dies with the
    /// machine. Replaces any previous binding for the port.
    pub fn bind_handler(
        &self,
        port: Port,
        sim_node: NodeId,
        name: &str,
        f: impl FnMut(Packet) + 'static,
    ) {
        let rx = self.bind(port);
        self.net.handle().handler(sim_node, name, rx, f);
    }

    /// Whether anything is bound to `port` on this host.
    pub fn is_bound(&self, port: Port) -> bool {
        self.net
            .endpoints_of(self.addr)
            .map(|t| t.borrow_mut().contains_key(&port))
            .unwrap_or(false)
    }

    /// Registers `service` as served on this host, for good: from now on
    /// the locates that seek it are delivered here (see
    /// [`locate`](NodeStack::locate)). A rebooted host stays registered.
    pub fn serve(&self, service: Port) {
        self.net.serve(self.addr, service);
    }

    /// Broadcasts a locate for `service` on `port` with hop limit `ttl`
    /// (as [`send_with_ttl`](NodeStack::send_with_ttl)). Every host it
    /// reaches takes the frame and is charged its receive CPU, but only a
    /// host that ever [`serve`](NodeStack::serve)d `service` gets it
    /// delivered: the others drop it in their kernel, as FLIP drops a
    /// locate that no local address matches. A host that registers the
    /// service while the locate is on its way does not hear it.
    pub fn locate(&self, port: Port, service: Port, payload: impl Into<Payload>, ttl: u8) {
        let mut pkt = Packet::new(self.addr, Dest::Broadcast, port, payload).with_ttl(ttl.max(1));
        pkt.locates = Some(service);
        self.net.transmit(pkt);
    }

    /// Joins a multicast group; future multicasts to it are delivered here.
    pub fn join_group(&self, group: GroupAddr) {
        self.net.join_group(self.addr, group);
    }

    /// Leaves a multicast group.
    pub fn leave_group(&self, group: GroupAddr) {
        self.net.leave_group(self.addr, group);
    }

    /// Transmits a packet to `dst`/`port` with the topology-default TTL
    /// (reaches every host). Delivery is asynchronous and subject to the
    /// network's fault model; there is no error reporting, exactly like
    /// a real datagram network.
    pub fn send(&self, dst: impl Into<Dest>, port: Port, payload: impl Into<Payload>) {
        self.net
            .transmit(Packet::new(self.addr, dst.into(), port, payload));
    }

    /// Like [`send`](NodeStack::send) but carrying causal-trace tags as
    /// out-of-band packet metadata (see [`Packet::trace`]). With telemetry
    /// off the tags are empty and this is exactly [`send`](NodeStack::send).
    pub fn send_traced(
        &self,
        dst: impl Into<Dest>,
        port: Port,
        payload: impl Into<Payload>,
        tags: Vec<(u64, amoeba_telemetry::TraceCtx)>,
    ) {
        self.net
            .transmit(Packet::new(self.addr, dst.into(), port, payload).with_trace(tags));
    }

    /// Like [`send`](NodeStack::send) but with an explicit hop limit:
    /// `ttl = 1` stays on the local segment, each additional unit allows
    /// one more router traversal. The expanding-ring locate widens this
    /// ring until a reply arrives.
    pub fn send_with_ttl(
        &self,
        dst: impl Into<Dest>,
        port: Port,
        payload: impl Into<Payload>,
        ttl: u8,
    ) {
        self.net
            .transmit(Packet::new(self.addr, dst.into(), port, payload).with_ttl(ttl.max(1)));
    }
}
