//! # amoeba-flip — simulated FLIP internetwork
//!
//! A deterministic model of the network substrate the Amoeba directory
//! service ran on: FLIP packets over one or more 10 Mbit/s Ethernet
//! segments, with unicast, true multicast (one packet on the wire
//! reaches every group member of a segment, the property Amoeba's group
//! communication exploits), and broadcast (used by the RPC locate
//! protocol).
//!
//! ## Internetwork routing
//!
//! FLIP's defining feature is that it locates ports and routes packets
//! transparently across multiple networks. A [`Topology`] describes
//! named segments joined by store-and-forward router nodes; the default
//! [`Topology::single`] keeps the old one-Ethernet behaviour exactly.
//! The routing invariants (documented in detail on [`Network`]):
//!
//! * **Honest per-hop cost.** Every traversed segment charges its own
//!   wire occupancy, and every forwarding router charges receive +
//!   forward + send CPU on its single, serialized processor — idle
//!   latency grows by [`NetParams::hop_overhead`] per hop, and loaded
//!   routers queue ("router contention").
//! * **Loop suppression.** Packets carry a TTL and an origin-unique
//!   packet id ([`Packet`]); routers refuse to forward an id past the
//!   TTL or again without a strictly higher remaining TTL, and
//!   receivers accept each id once, so flooded broadcasts cannot storm
//!   and cyclic topologies cannot duplicate delivery.
//! * **Backward-learned routes.** Every node learns "origin X is
//!   reachable via the relay that put its frame on my segment" from
//!   forwarded traffic (broadcasts seed this); unicasts follow these
//!   tables hop by hop and flood, TTL-limited, only while no route is
//!   known. [`NodeStack::send_with_ttl`] exposes the hop limit for
//!   expanding-ring locates.
//!
//! The fault model covers everything the ICDCS '93 paper assumes or
//! evaluates: host crashes (fail-stop), **clean network partitions**,
//! probabilistic packet loss and duplication, latency jitter — and, on
//! internetworks, router crashes via [`Network::set_down`].
//!
//! See [`Network`] for the medium, [`NodeStack`] for a host's view of it,
//! [`Topology`] for internetwork wiring, [`wire`] for the explicit byte
//! codec used by the protocol layers (and [`Wire`](wire::Wire), the one
//! codec idiom above them), and [`bytes`] for the zero-copy [`Payload`]
//! buffers every layer exchanges.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
pub mod bytes;
mod network;
mod packet;
mod params;
mod port;
mod stack;
mod stats;
mod topology;
pub mod wire;

pub use addr::{Dest, GroupAddr, HostAddr};
pub use bytes::Payload;
pub use network::Network;
pub use packet::Packet;
pub use params::NetParams;
pub use port::Port;
pub use stack::NodeStack;
pub use stats::{NetStats, SegmentStats};
pub use topology::{RouterSpec, SegmentId, SegmentSpec, Topology};
