//! The unit of network transmission.

use amoeba_telemetry::TraceCtx;

use crate::addr::{Dest, HostAddr};
use crate::bytes::Payload;
use crate::port::Port;

/// A FLIP packet: source, destination, service port, opaque payload, and
/// the internetwork routing header (hop count, TTL, packet id).
///
/// Payloads are produced by the upper layers' explicit wire codecs, so
/// `wire_size` is an honest measure for the timing model. The payload is
/// a shared [`Payload`], so cloning a packet (multicast fan-out clones it
/// once per receiver) copies no bytes.
///
/// The routing fields are stamped by the network layer: `packet_id` is
/// assigned at origin transmission and, with `src`, uniquely names the
/// packet for duplicate suppression at routers and receivers; `ttl`
/// decrements per router traversal (a packet with `ttl` ≤ 1 is never
/// forwarded); `hops` counts traversals so far; `relay` is the node that
/// placed this frame on the current segment (the origin, or the last
/// forwarding router). Senders normally leave `ttl` at 0 ("use the
/// topology default") — [`NodeStack::send_with_ttl`](crate::NodeStack)
/// sets it explicitly for hop-limited sends such as the expanding-ring
/// locate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// The sending host.
    pub src: HostAddr,
    /// Unicast, multicast or broadcast destination.
    pub dst: Dest,
    /// The service port this packet is addressed to.
    pub port: Port,
    /// Upper-layer payload bytes (shared, zero-copy).
    pub payload: Payload,
    /// Remaining router traversals + 1; 0 on construction means "stamp
    /// the topology default at transmission".
    pub ttl: u8,
    /// Router traversals so far (0 on the origin segment).
    pub hops: u8,
    /// Origin-unique id, assigned by the network at transmission;
    /// `(src, packet_id)` keys duplicate suppression.
    pub packet_id: u64,
    /// The node that placed this frame on the current segment.
    pub relay: HostAddr,
    /// Link-level next hop for routed unicasts: when set, only this
    /// router picks the frame up from the segment. Set by the routing
    /// layer, never by senders.
    pub link_dst: Option<HostAddr>,
    /// Out-of-band causal-trace tags riding on this packet: `(key, ctx)`
    /// pairs whose key meaning is protocol-defined (msgid for group
    /// send-requests, seqno for accepts, 0 for RPC). **Not** part of the
    /// wire image: never encoded into the payload, never charged by the
    /// timing model, empty unless telemetry is enabled — so tracing
    /// cannot perturb the simulation.
    pub trace: Vec<(u64, TraceCtx)>,
    /// The service a locate broadcast seeks (see
    /// [`NodeStack::locate`](crate::NodeStack::locate)); `None` for
    /// everything else. Like a FLIP locate's sought address it rides in
    /// the header, which the timing model charges at a fixed size.
    pub locates: Option<Port>,
}

impl Packet {
    /// Creates a packet with routing fields unset (the network stamps
    /// them at transmission).
    pub fn new(
        src: HostAddr,
        dst: impl Into<Dest>,
        port: Port,
        payload: impl Into<Payload>,
    ) -> Self {
        Packet {
            src,
            dst: dst.into(),
            port,
            payload: payload.into(),
            ttl: 0,
            hops: 0,
            packet_id: 0,
            relay: src,
            link_dst: None,
            trace: Vec::new(),
            locates: None,
        }
    }

    /// Attaches causal-trace tags (out-of-band; see the `trace` field).
    pub fn with_trace(mut self, tags: Vec<(u64, TraceCtx)>) -> Self {
        self.trace = tags;
        self
    }

    /// Sets an explicit TTL (1 = local segment only, 2 = one router
    /// hop, ...). A TTL of 0 means "use the topology default".
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Payload length in bytes (headers are charged by the timing model).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GroupAddr;

    #[test]
    fn constructor_accepts_any_dest() {
        let p = Packet::new(HostAddr(1), HostAddr(2), Port::from_raw(5), vec![1, 2]);
        assert_eq!(p.dst, Dest::Unicast(HostAddr(2)));
        assert_eq!(p.payload_len(), 2);
        assert_eq!(p.ttl, 0, "TTL unset until the network stamps it");
        assert_eq!(p.relay, HostAddr(1));

        let q = Packet::new(HostAddr(1), GroupAddr(9), Port::from_raw(5), vec![]);
        assert_eq!(q.dst, Dest::Multicast(GroupAddr(9)));
    }

    #[test]
    fn with_ttl_sets_hop_limit() {
        let p = Packet::new(HostAddr(1), HostAddr(2), Port::from_raw(5), vec![]).with_ttl(3);
        assert_eq!(p.ttl, 3);
    }
}
