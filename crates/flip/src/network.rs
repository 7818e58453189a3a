//! The network medium: segments, routers, delivery, partitions, loss,
//! host up/down.
//!
//! A [`Network`] is built from a [`Topology`]: one or more segments
//! (each an Ethernet with its own serialized wire) joined by
//! store-and-forward routers. The degenerate single-segment topology is
//! the default and behaves exactly like the pre-routing model.
//!
//! ## Forwarding invariants (what is charged where)
//!
//! * Every frame placed on a segment charges its transmitter's send CPU,
//!   the segment's wire occupancy, and each local receiver's receive CPU
//!   — identical to the flat model, per segment.
//! * A router forwards a frame only after fully receiving it: the
//!   forwarded copy becomes ready `recv_cpu + forward_cpu` after arrival
//!   and then queues on the router's send CPU and the next segment's
//!   wire like any other transmission. Idle per-hop cost is therefore
//!   [`NetParams::latency`] + [`NetParams::hop_overhead`]; under load
//!   each traversed resource adds real queueing ("router contention").
//! * **Loop suppression**: a frame carries a network-wide packet id and
//!   a TTL. A router never forwards a packet id again unless the new
//!   copy has strictly more remaining TTL than any copy it already
//!   processed (a shorter path's copy must not be shadowed by a longer
//!   path's — see [`SeenCache`]), never forwards a frame back to the
//!   node it came from, and decrements the TTL per traversal, refusing
//!   to forward at TTL ≤ 1 (counted in [`NetStats::dropped_ttl`]).
//!   Receivers additionally accept each packet id once, so redundant
//!   paths (topology cycles) cannot cause duplicate delivery — only
//!   the fault model's explicit `duplicate_probability` can, exactly
//!   as on a flat network. Each node remembers one packet id, the last
//!   it processed: a flood is worked out whole inside the call that
//!   sends it, so no copy of an older packet arrives after a newer one.
//! * **Locates** ([`NodeStack::locate`]) are broadcasts like any other,
//!   charged and subject to the fault model at every host they reach,
//!   but a host that never [`serve`](NodeStack::serve)d the sought
//!   service drops the frame in its kernel once received, as FLIP drops
//!   a locate no local address matches: no delivery event is scheduled
//!   ([`NetStats::locates_unheard`]). Registrations only grow, so a
//!   rebooted server hears its locates; a host registering a service
//!   for the first time misses the locates already on their way.
//! * **Routing tables** are learned backward from traffic: every node
//!   (host or router) that sees a frame which crossed at least one
//!   router learns "its origin is reachable via the relay that put it on
//!   my segment", with the accumulated hop count; fewer hops win.
//!   Unicasts to an off-segment destination follow these tables hop by
//!   hop; with no route yet they flood like a broadcast (TTL-limited,
//!   duplicate-suppressed) and the reply teaches the direct route —
//!   the locate-then-route pattern FLIP relies on.
//! * **Route aging**: every learned entry carries the virtual time it
//!   was last confirmed (learning an entry again refreshes the stamp, so
//!   routes in active use never expire). A lookup that finds an entry
//!   older than [`NetParams::route_max_age`] drops it — counted in
//!   [`NetStats::routes_aged_out`] — and the sender floods instead, so
//!   staleness after topology churn heals without waiting for a
//!   send-time failure.
//! * **Multicast pruning**: each router keeps FLIP-style group routing
//!   state — for every multicast group, the set of attached segments
//!   through which at least one member is reachable. Joins install the
//!   state (as FLIP's join broadcast would); any membership or
//!   router-availability change
//!   flushes it, and the next multicast rebuilds it. A router forwards a
//!   group packet only onto member-leading segments; skipped directions
//!   are counted in [`NetStats::mcast_pruned`]. Pruning is conservative:
//!   a segment is member-leading if any member's segment is reachable
//!   through it with this router removed, so transit segments stay open
//!   and no member can be cut off.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};
use std::rc::Rc;

use amoeba_sim::{Fnv1a, IdMap, MailboxTx, SimHandle, SimRng, SimTime};

use crate::addr::{Dest, GroupAddr, HostAddr};
use crate::packet::Packet;
use crate::params::NetParams;
use crate::port::Port;
use crate::stack::NodeStack;
use crate::stats::{NetStats, SegmentStats};
use crate::topology::{SegmentId, Topology};

pub(crate) type EndpointTable = Rc<RefCell<IdMap<Port, MailboxTx<Packet>>>>;

/// FNV-1a over `(host, side)` pairs: pins a variable-length partition
/// description into one fault-trace operand.
fn hash_hosts(pairs: impl Iterator<Item = (u32, u32)>) -> u64 {
    let mut h = Fnv1a::new();
    for (host, side) in pairs {
        h.write(&host.to_le_bytes()).write(&side.to_le_bytes());
    }
    h.finish()
}

/// The last packet id one node processed, with the best (highest)
/// remaining TTL seen for it: `id << 8 | best_ttl` in one word (0:
/// nothing yet). Ids are network-wide and a forwarded copy keeps its
/// id. One slot is exact: [`Network::transmit`] stamps every frame with
/// a fresh id and works out its whole flood inside that call (each
/// forwarded copy is transmitted recursively), so every copy of a
/// packet is observed before the next id exists, and a node never sees
/// an id again once it has seen a newer one. Were a copy older than the
/// slot's holder ever observed, it would be processed as new and leave
/// the holder in place; the layers above tolerate the redundant
/// delivery or TTL-bounded re-flood (the fault model injects
/// duplicates).
///
/// Duplicate suppression must not be path-order-dependent: copies of
/// one flooded packet reach a router over different paths with
/// different remaining TTLs, and whichever copy happens to be
/// processed first must not shadow a later copy that still has budget
/// to reach segments the first could not. So a copy only counts as a
/// duplicate if a copy with at least as much remaining TTL was already
/// processed; re-floods this causes are bounded (the recorded TTL is
/// strictly increasing, capped by the origin's TTL) and receivers
/// still deliver exactly once.
#[derive(Default)]
struct SeenCache {
    last: u64,
}

impl SeenCache {
    /// Records packet `id` at `ttl`; true iff this copy is to be processed
    /// (first sighting, more TTL than any copy before, or older than the
    /// id held).
    fn observe(&mut self, id: u64, ttl: u8) -> bool {
        let held = self.last >> 8;
        if held == id && self.last as u8 >= ttl {
            return false;
        }
        if held <= id {
            self.last = id << 8 | u64::from(ttl);
        }
        true
    }
}

/// One learned route: how a node reaches `dst`.
#[derive(Copy, Clone, Debug)]
struct RouteEntry {
    /// The neighbour on `segment` to hand the frame to (the destination
    /// itself, or a router).
    next_hop: HostAddr,
    /// The attached segment to transmit on.
    segment: SegmentId,
    /// Router traversals to the destination.
    hops: u8,
    /// Virtual time this entry was last (re-)learned from traffic;
    /// entries older than [`NetParams::route_max_age`] are dropped at
    /// lookup time.
    confirmed_at: SimTime,
}

/// What the medium keeps per node, host or router: one slot of
/// [`NetInner::nodes`].
#[derive(Default)]
struct NodeSlot {
    /// A host's bound ports; `None` for a router.
    stack: Option<EndpointTable>,
    /// The segment a host (not a router) lives on.
    segment: Option<SegmentId>,
    /// Partition id; nodes can only talk within the same id.
    partition: u32,
    /// Occupancy model: when the node's sending side is free again
    /// (protocol-processing CPU serializes per node, paper §4.2).
    tx_free: SimTime,
    /// When its receiving side is free again.
    rx_free: SimTime,
    /// Duplicate suppression (multi-segment only): a host's receive
    /// side, a router's forwarding.
    seen: SeenCache,
    /// Its routing table: destination → route.
    routes: IdMap<HostAddr, RouteEntry>,
    /// The services a host ever [`serve`](NodeStack::serve)d: the
    /// locates it hears. Only grows, and outlives the host going down.
    serves: Vec<Port>,
}

struct NetInner {
    params: NetParams,
    handle: SimHandle,
    /// Every node, indexed by its [`HostAddr`]: addresses are handed out
    /// in order (routers first) and never reused.
    nodes: Vec<NodeSlot>,
    groups: BTreeMap<GroupAddr, BTreeSet<HostAddr>>,
    down: BTreeSet<HostAddr>,
    rng: SimRng,
    stats: NetStats,
    next_packet_id: u64,
    /// When each segment's wire is free again (one frame at a time; a
    /// multicast occupies it once, however many hosts listen).
    wire_free: Vec<SimTime>,
    /// Every router's attached segments.
    routers: BTreeMap<HostAddr, Vec<SegmentId>>,
    /// Per-router group routing state: router → (group → attached
    /// segments through which at least one member is reachable).
    /// Flushed (marked dirty) on every membership or router-availability
    /// change and rebuilt lazily before the next multicast forward.
    group_routes: IdMap<HostAddr, IdMap<GroupAddr, BTreeSet<SegmentId>>>,
    /// Whether `group_routes` must be rebuilt before use.
    group_routes_dirty: bool,
    /// The out segments (and next hops) a router forwards its current
    /// frame onto, kept between frames so that forwarding stops
    /// allocating once it has grown.
    fwd_outs: Vec<(SegmentId, Option<HostAddr>)>,
    /// TTL stamped on packets whose sender left it unset.
    default_ttl: u8,
    /// Flow-edge recorder for traced packets; disabled unless the
    /// simulation installed a telemetry collector before the network was
    /// created. Recording never touches the timing model or `rng`.
    tele: amoeba_telemetry::Telemetry,
}

/// The simulated internetwork that all hosts attach to.
///
/// Cloning is cheap; all clones refer to the same medium.
///
/// # Examples
///
/// ```
/// use amoeba_sim::Simulation;
/// use amoeba_flip::{Network, NetParams, Port};
///
/// let mut sim = Simulation::new(1);
/// let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 7);
/// let a = net.attach();
/// let b = net.attach();
/// let port = Port::from_name("echo");
/// let rx = b.bind(port);
/// sim.spawn("sender", {
///     let a = a.clone();
///     let dst = b.addr();
///     move |_ctx| a.send(dst, port, b"hi".to_vec())
/// });
/// let got = sim.spawn("receiver", move |ctx| rx.recv(ctx).payload);
/// sim.run();
/// assert_eq!(got.take(), Some(amoeba_flip::Payload::from(b"hi")));
/// ```
#[derive(Clone)]
pub struct Network {
    inner: Rc<RefCell<NetInner>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Network")
            .field("segments", &inner.wire_free.len())
            .field("routers", &inner.routers.len())
            .field(
                "hosts",
                &inner.nodes.iter().filter(|n| n.stack.is_some()).count(),
            )
            .field("down", &inner.down)
            .finish()
    }
}

impl Network {
    /// Creates a single-segment network medium on the given simulation
    /// (the degenerate topology: one Ethernet, no routers).
    pub fn new(handle: SimHandle, params: NetParams, seed: u64) -> Self {
        Self::with_topology(handle, params, Topology::single(), seed)
    }

    /// Creates a network from an internetwork [`Topology`]. Router nodes
    /// are materialized immediately (each gets a [`HostAddr`], usable
    /// with [`set_down`](Network::set_down) to fail a router).
    ///
    /// # Panics
    ///
    /// Panics if the topology has no segments.
    pub fn with_topology(
        handle: SimHandle,
        params: NetParams,
        topology: Topology,
        seed: u64,
    ) -> Self {
        assert!(
            !topology.segments().is_empty(),
            "a network needs at least one segment"
        );
        let seg_stats: Vec<SegmentStats> = topology
            .segments()
            .iter()
            .map(|s| SegmentStats {
                name: s.name.clone(),
                ..Default::default()
            })
            .collect();
        let default_ttl = topology.default_ttl();
        let tele = amoeba_telemetry::Telemetry::from_handle(&handle);
        let mut inner = NetInner {
            params,
            handle,
            nodes: Vec::new(),
            groups: BTreeMap::new(),
            down: BTreeSet::new(),
            rng: SimRng::new(seed).fork(0xF11F),
            stats: NetStats {
                segments: seg_stats,
                ..Default::default()
            },
            next_packet_id: 0,
            wire_free: vec![SimTime::ZERO; topology.segments().len()],
            routers: BTreeMap::new(),
            group_routes: IdMap::default(),
            group_routes_dirty: true,
            fwd_outs: Vec::new(),
            default_ttl,
            tele,
        };
        for r in topology.routers() {
            let addr = inner.add_node(NodeSlot::default());
            inner.routers.insert(addr, r.attached.clone());
        }
        Network {
            inner: Rc::new(RefCell::new(inner)),
        }
    }

    /// Attaches a new host to the first segment and returns its
    /// protocol stack.
    pub fn attach(&self) -> NodeStack {
        self.attach_to(SegmentId(0))
    }

    /// Attaches a new host to `segment` and returns its protocol stack.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not exist.
    pub fn attach_to(&self, segment: SegmentId) -> NodeStack {
        let addr = {
            let mut inner = self.inner.borrow_mut();
            assert!(
                (segment.0 as usize) < inner.wire_free.len(),
                "attach_to unknown {segment}"
            );
            inner.add_node(NodeSlot {
                stack: Some(Rc::default()),
                segment: Some(segment),
                ..NodeSlot::default()
            })
        };
        NodeStack::new(addr, self.clone())
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats.clone()
    }

    /// The segment a host (or router) is attached to; a router's
    /// "home" is its first attached segment.
    pub fn segment_of(&self, host: HostAddr) -> Option<SegmentId> {
        let inner = self.inner.borrow();
        inner.host_segment(host).or_else(|| {
            inner
                .routers
                .get(&host)
                .and_then(|attached| attached.first().copied())
        })
    }

    /// The TTL stamped on packets whose sender did not choose one:
    /// topology diameter + 1, i.e. enough to reach every host.
    pub fn max_hops(&self) -> u8 {
        self.inner.borrow().default_ttl
    }

    /// The router nodes' addresses, in creation order (use with
    /// [`set_down`](Network::set_down) to fail a router).
    pub fn router_addrs(&self) -> Vec<HostAddr> {
        self.inner.borrow().routers.keys().copied().collect()
    }

    /// Marks a host or router down. A host's endpoints and group
    /// memberships are cleared (its NIC forgot everything) and
    /// deliveries to it are dropped; a router stops forwarding and
    /// forgets its routing table and duplicate-suppression memory.
    pub fn set_down(&self, host: HostAddr) {
        let mut inner = self.inner.borrow_mut();
        inner
            .handle
            .record_fault(amoeba_sim::fault_codes::NET_DOWN, host.0 as u64, 0);
        inner.down.insert(host);
        for members in inner.groups.values_mut() {
            members.remove(&host);
        }
        if let Some(n) = inner.nodes.get_mut(host.0 as usize) {
            if let Some(t) = &n.stack {
                t.borrow_mut().clear();
            }
            // The NIC forgets its queue along with everything else.
            *n = NodeSlot {
                stack: n.stack.take(),
                segment: n.segment,
                partition: n.partition,
                serves: std::mem::take(&mut n.serves),
                ..NodeSlot::default()
            };
        }
        // Memberships changed (and a down router changes reachability):
        // flush the group routing state.
        inner.group_routes_dirty = true;
    }

    /// Marks a host up again (it must re-bind its ports and re-join its
    /// multicast groups; a router resumes forwarding with cold tables).
    pub fn set_up(&self, host: HostAddr) {
        let mut inner = self.inner.borrow_mut();
        inner
            .handle
            .record_fault(amoeba_sim::fault_codes::NET_UP, host.0 as u64, 0);
        inner.down.remove(&host);
        inner.group_routes_dirty = true;
    }

    /// Whether a host is currently up.
    pub fn is_up(&self, host: HostAddr) -> bool {
        !self.inner.borrow().down.contains(&host)
    }

    /// Splits the network: hosts in `isolated` form one side, everyone else
    /// the other. Replaces any previous partition.
    pub fn isolate(&self, isolated: &[HostAddr]) {
        let mut inner = self.inner.borrow_mut();
        inner.handle.record_fault(
            amoeba_sim::fault_codes::NET_ISOLATE,
            isolated.len() as u64,
            hash_hosts(isolated.iter().map(|h| (h.0, 1))),
        );
        inner.set_sides(isolated.iter().map(|h| (*h, 1)));
    }

    /// Installs an arbitrary partition: `sides[i]` lists the hosts in
    /// partition `i + 1`; unlisted hosts are all in partition 0.
    pub fn set_partition(&self, sides: &[&[HostAddr]]) {
        let mut inner = self.inner.borrow_mut();
        inner.handle.record_fault(
            amoeba_sim::fault_codes::NET_PARTITION,
            sides.iter().map(|s| s.len() as u64).sum(),
            hash_hosts(
                sides
                    .iter()
                    .enumerate()
                    .flat_map(|(i, side)| side.iter().map(move |h| (h.0, i as u32 + 1))),
            ),
        );
        inner.set_sides(
            sides
                .iter()
                .enumerate()
                .flat_map(|(i, side)| side.iter().map(move |h| (*h, i as u32 + 1))),
        );
    }

    /// Removes any partition; all hosts can talk again.
    pub fn heal(&self) {
        let mut inner = self.inner.borrow_mut();
        inner
            .handle
            .record_fault(amoeba_sim::fault_codes::NET_HEAL, 0, 0);
        inner.set_sides(std::iter::empty());
    }

    /// Updates the fault model on the fly (loss, duplication,
    /// jitter...), on every segment.
    pub fn set_params(&self, params: NetParams) {
        let mut inner = self.inner.borrow_mut();
        inner.handle.record_fault(
            amoeba_sim::fault_codes::NET_PARAMS,
            (params.loss_probability * 1e9) as u64,
            (params.duplicate_probability * 1e9) as u64,
        );
        inner.params = params;
    }

    pub(crate) fn join_group(&self, host: HostAddr, group: GroupAddr) {
        let mut inner = self.inner.borrow_mut();
        inner.groups.entry(group).or_default().insert(host);
        inner.group_routes_dirty = true;
    }

    pub(crate) fn leave_group(&self, host: HostAddr, group: GroupAddr) {
        let mut inner = self.inner.borrow_mut();
        if let Some(members) = inner.groups.get_mut(&group) {
            members.remove(&host);
        }
        inner.group_routes_dirty = true;
    }

    pub(crate) fn serve(&self, host: HostAddr, service: Port) {
        let mut inner = self.inner.borrow_mut();
        if let Some(serves) = inner.nodes.get_mut(host.0 as usize).map(|n| &mut n.serves) {
            if !serves.contains(&service) {
                serves.push(service);
            }
        }
    }

    pub(crate) fn endpoints_of(&self, host: HostAddr) -> Option<EndpointTable> {
        self.inner
            .borrow()
            .nodes
            .get(host.0 as usize)?
            .stack
            .clone()
    }

    /// Origin transmission path: stamps the routing header (packet id,
    /// default TTL, link-level next hop from the sender's routing table)
    /// and injects the frame on the sender's segment.
    pub(crate) fn transmit(&self, pkt: Packet) {
        let mut inner = self.inner.borrow_mut();
        let src = pkt.src;
        // A down host cannot transmit (its processes are dead anyway).
        if inner.down.contains(&src) {
            return;
        }
        let now = inner.handle.now();
        let Some(seg) = inner.host_segment(src) else {
            return; // never attached
        };
        let mut pkt = pkt;
        inner.next_packet_id += 1;
        pkt.packet_id = inner.next_packet_id;
        if pkt.ttl == 0 {
            pkt.ttl = inner.default_ttl;
        }
        pkt.hops = 0;
        pkt.relay = src;
        pkt.link_dst = None;
        inner.stats.packets_sent += 1;
        let header = inner.params.header_bytes;
        inner.stats.bytes_sent += (pkt.payload.len() + header) as u64;
        match pkt.dst {
            Dest::Unicast(d) => {
                inner.stats.unicast_sent += 1;
                // Off-segment destination: hand the frame to the learned
                // next-hop router; with no route yet it floods below.
                if inner.host_segment(d) != Some(seg) {
                    if let Some(e) = inner.route_lookup(src, d) {
                        if e.segment == seg {
                            pkt.link_dst = Some(e.next_hop);
                        }
                    }
                }
            }
            Dest::Multicast(_) => inner.stats.multicast_sent += 1,
            Dest::Broadcast => inner.stats.broadcast_sent += 1,
        }
        inner.transmit_frame(seg, pkt, now);
    }

    pub(crate) fn handle(&self) -> SimHandle {
        self.inner.borrow().handle.clone()
    }
}

impl NetInner {
    /// Gives `slot` the next address.
    fn add_node(&mut self, slot: NodeSlot) -> HostAddr {
        self.nodes.push(slot);
        HostAddr(self.nodes.len() as u32 - 1)
    }

    /// The segment a host (not a router) lives on.
    fn host_segment(&self, host: HostAddr) -> Option<SegmentId> {
        self.nodes.get(host.0 as usize)?.segment
    }

    fn partition_of(&self, host: HostAddr) -> u32 {
        self.nodes.get(host.0 as usize).map_or(0, |n| n.partition)
    }

    /// Replaces the partition: the listed nodes go to their sides,
    /// everyone else to side 0.
    fn set_sides(&mut self, sides: impl Iterator<Item = (HostAddr, u32)>) {
        for n in &mut self.nodes {
            n.partition = 0;
        }
        for (h, side) in sides {
            if let Some(n) = self.nodes.get_mut(h.0 as usize) {
                n.partition = side;
            }
        }
    }

    /// Segments reachable from `start` (inclusive) through routers that
    /// are up, with router `excluding` removed from the graph.
    fn segs_reachable_excluding(&self, start: SegmentId, excluding: HostAddr) -> Vec<bool> {
        let n = self.wire_free.len();
        let mut reach = vec![false; n];
        reach[start.0 as usize] = true;
        let mut queue = VecDeque::from([start]);
        while let Some(s) = queue.pop_front() {
            for (addr, attached) in &self.routers {
                if *addr == excluding || self.down.contains(addr) || !attached.contains(&s) {
                    continue;
                }
                for t in attached {
                    if !reach[t.0 as usize] {
                        reach[t.0 as usize] = true;
                        queue.push_back(*t);
                    }
                }
            }
        }
        reach
    }

    /// Rebuilds every router's group routing state from the current
    /// memberships and router availability. A router forwards a group
    /// packet onto attached segment `o` iff some member's segment is
    /// reachable from `o` with this router removed — conservative, so
    /// transit segments toward members stay open and pruning can never
    /// cut a member off; a direction with no members behind it is
    /// pruned.
    fn rebuild_group_routes(&mut self) {
        self.group_routes_dirty = false;
        self.group_routes.clear();
        // Which segments carry at least one member, per group.
        let mut member_segs: IdMap<GroupAddr, BTreeSet<SegmentId>> = IdMap::default();
        for (g, members) in &self.groups {
            let segs: BTreeSet<SegmentId> = members
                .iter()
                .filter(|m| !self.down.contains(m))
                .filter_map(|m| self.host_segment(*m))
                .collect();
            if !segs.is_empty() {
                member_segs.insert(*g, segs);
            }
        }
        let routers: Vec<(HostAddr, Vec<SegmentId>)> = self
            .routers
            .iter()
            .filter(|(a, _)| !self.down.contains(a))
            .map(|(a, attached)| (*a, attached.clone()))
            .collect();
        for (addr, attached) in routers {
            let mut table: IdMap<GroupAddr, BTreeSet<SegmentId>> = IdMap::default();
            for o in &attached {
                let reach = self.segs_reachable_excluding(*o, addr);
                for (g, segs) in &member_segs {
                    if segs.iter().any(|s| reach[s.0 as usize]) {
                        table.entry(*g).or_default().insert(*o);
                    }
                }
            }
            self.group_routes.insert(addr, table);
        }
    }

    /// Looks up `from`'s route to `dst`, pruning entries whose next hop
    /// is down (the reply-path will re-teach a live one) and entries
    /// that exceeded the route-age horizon without reconfirmation.
    fn route_lookup(&mut self, from: HostAddr, dst: HostAddr) -> Option<RouteEntry> {
        let routes = &mut self.nodes.get_mut(from.0 as usize)?.routes;
        let e = *routes.get(&dst)?;
        if self.down.contains(&e.next_hop) {
            routes.remove(&dst);
            return None;
        }
        let now = self.handle.now();
        if now.saturating_since(e.confirmed_at) > self.params.route_max_age {
            routes.remove(&dst);
            self.stats.routes_aged_out += 1;
            return None;
        }
        Some(e)
    }

    /// Backward learning: `who` saw a frame from `origin` that entered
    /// its segment `seg` through `relay` after `hops` traversals.
    /// Routers also learn zero-hop entries ("origin is on this attached
    /// segment", next hop the origin itself), which is what lets them
    /// direct unicasts instead of flooding; hosts need no route to
    /// same-segment peers.
    fn learn(&mut self, who: HostAddr, origin: HostAddr, seg: SegmentId, pkt: &Packet) {
        if who == origin || (pkt.hops == 0 && !self.routers.contains_key(&who)) {
            return;
        }
        let entry = RouteEntry {
            next_hop: pkt.relay,
            segment: seg,
            hops: pkt.hops,
            confirmed_at: self.handle.now(),
        };
        let table = &mut self.nodes[who.0 as usize].routes;
        match table.get(&origin) {
            Some(old) if old.hops <= entry.hops && old.next_hop != entry.next_hop => {}
            _ => {
                table.insert(origin, entry);
            }
        }
    }

    /// The first host after `after` (from the lowest, for `None`) that
    /// `pkt` is delivered to on `seg` itself. Targets come in ascending
    /// address order, because the fault model draws once per target; a
    /// unicast has at most one, and none while it is in transit to (or
    /// through) a router. Walked one at a time, so a frame allocates no
    /// target list (nothing a delivery does changes the membership).
    fn next_local_target(
        &self,
        seg: SegmentId,
        pkt: &Packet,
        after: Option<HostAddr>,
    ) -> Option<HostAddr> {
        let here = |h: &HostAddr| self.host_segment(*h) == Some(seg);
        match pkt.dst {
            Dest::Unicast(h) => {
                (after.is_none() && pkt.link_dst.is_none() && here(&h)).then_some(h)
            }
            Dest::Multicast(g) => {
                let from = after.map_or(Unbounded, Excluded);
                self.groups
                    .get(&g)?
                    .range((from, Unbounded))
                    .copied()
                    .find(here)
            }
            Dest::Broadcast => {
                let from = after.map_or(0, |h| h.0 + 1);
                (from..self.nodes.len() as u32).map(HostAddr).find(here)
            }
        }
    }

    /// The first router after `after` (in address order) attached to
    /// `seg`.
    fn next_router_on(&self, seg: SegmentId, after: Option<HostAddr>) -> Option<HostAddr> {
        let from = after.map_or(Unbounded, Excluded);
        self.routers
            .range((from, Unbounded))
            .find(|(_, attached)| attached.contains(&seg))
            .map(|(a, _)| *a)
    }

    /// Places one frame on `seg` no earlier than `ready`, applying the
    /// occupancy model (transmitter CPU → segment wire → receiver CPU,
    /// each a serialized resource) and the fault model per target, then
    /// hands qualifying copies to the segment's routers (store-and-
    /// forward). Recursion depth is bounded by the frame's TTL.
    ///
    /// On an idle network a packet's end-to-end latency is exactly
    /// [`NetParams::latency`] plus [`NetParams::hop_overhead`] per
    /// traversed router; under load, queueing at any resource adds to
    /// it. This is what makes packet *count* a real cost: coalescing k
    /// messages into one packet saves k−1 sender-CPU charges, k−1
    /// header transmissions, and k−1 receiver-CPU charges per receiver
    /// — the amortization the sequencer's accept batching exploits —
    /// and every saved packet is also one fewer store-and-forward per
    /// crossed segment.
    fn transmit_frame(&mut self, seg: SegmentId, pkt: Packet, ready: SimTime) {
        let multi = self.wire_free.len() > 1;
        let params = &self.params;
        let send_cpu = params.send_cpu;
        let recv_cpu = params.recv_cpu;
        let propagation = params.propagation;
        let forward_cpu = params.forward_cpu;
        let loss = params.loss_probability;
        let dup = params.duplicate_probability;
        let jitter = params.jitter;
        let wire_time = params.wire_time(pkt.payload.len());
        let base_latency = params.latency(pkt.payload.len());
        // Transmitter-side protocol processing: one frame at a time per
        // node (origin host or forwarding router).
        let relay = pkt.relay;
        let tx_free = &mut self.nodes[relay.0 as usize].tx_free;
        let tx_start = (*tx_free).max(ready);
        let tx_done = tx_start + send_cpu;
        *tx_free = tx_done;
        // The segment's ether: one frame on the wire at a time; a
        // multicast occupies it exactly once regardless of the receiver
        // count.
        let wire_free = &mut self.wire_free[seg.0 as usize];
        let wire_start = (*wire_free).max(tx_done);
        let wire_done = wire_start + wire_time;
        *wire_free = wire_done;
        let wire_nanos = wire_time.as_nanos() as u64;
        self.stats.wire_busy_nanos += wire_nanos;
        let seg_stats = &mut self.stats.segments[seg.0 as usize];
        seg_stats.wire_busy_nanos += wire_nanos;
        seg_stats.frames += 1;
        let arrival = wire_done + propagation;
        let now = self.handle.now();
        let src_part = self.partition_of(pkt.src);
        let seeks = pkt.locates;

        // ------------------------------------------------------------
        // Local deliveries on this segment.
        // ------------------------------------------------------------
        let mut target = None;
        while let Some(t) = self.next_local_target(seg, &pkt, target) {
            target = Some(t);
            if self.down.contains(&t) {
                self.stats.dropped_down += 1;
                continue;
            }
            let t_part = self.partition_of(t);
            if t_part != src_part {
                self.stats.dropped_partition += 1;
                continue;
            }
            if self.rng.chance(loss) {
                self.stats.dropped_loss += 1;
                continue;
            }
            let tx = match &self.nodes[t.0 as usize].stack {
                Some(table) => table.borrow().get(&pkt.port).cloned(),
                None => continue,
            };
            let tx = match tx {
                Some(tx) => tx,
                None => {
                    self.stats.dropped_no_listener += 1;
                    continue;
                }
            };
            if multi {
                self.learn(t, pkt.src, seg, &pkt);
                // Receive-side duplicate suppression: redundant paths
                // through a cyclic topology may carry a second copy;
                // accept each packet id once. (The fault model's
                // injected duplicates below are extra deliveries of an
                // accepted copy and pass through untouched.)
                if !self.nodes[t.0 as usize]
                    .seen
                    .observe(pkt.packet_id, u8::MAX)
                {
                    self.stats.dup_suppressed += 1;
                    continue;
                }
            }
            // Receiver-side protocol processing, serialized per host.
            let rx_free = &mut self.nodes[t.0 as usize].rx_free;
            let rx_done = (*rx_free).max(arrival) + recv_cpu;
            *rx_free = rx_done;
            // OS-scheduling jitter on top of the physical model.
            let extra = base_latency.mul_f64(self.rng.next_f64() * jitter.max(0.0));
            let deliver_at = rx_done + extra;
            self.stats.deliveries += 1;
            let twice = self.rng.chance(dup);
            self.stats.duplicated += u64::from(twice);
            // The receiving kernel drops a locate for a service it has
            // never served, having spent its receive CPU on it: a
            // delivery event would wake a handler only to do nothing.
            if seeks.is_some_and(|s| !self.nodes[t.0 as usize].serves.contains(&s)) {
                self.stats.locates_unheard += 1;
                continue;
            }
            if let Some((_, ctx)) = pkt.trace.first() {
                // One flow arrow per delivered copy, from the node that
                // placed the frame (origin or forwarding router) to the
                // receiver; batched packets use their first tag.
                self.tele
                    .flow(*ctx, relay.0 as u64, tx_start, t.0 as u64, deliver_at);
            }
            tx.send_after(deliver_at.saturating_since(now), pkt.clone());
            if twice {
                tx.send_after(
                    (deliver_at + base_latency.mul_f64(0.5)).saturating_since(now),
                    pkt.clone(),
                );
            }
        }

        // ------------------------------------------------------------
        // Store-and-forward through this segment's routers.
        // ------------------------------------------------------------
        if !multi {
            return;
        }
        let mut router = None;
        while let Some(r_addr) = self.next_router_on(seg, router) {
            router = Some(r_addr);
            if r_addr == pkt.relay || r_addr == pkt.src {
                continue; // never bounce a frame back to its transmitter
            }
            if let Some(link) = pkt.link_dst {
                if link != r_addr {
                    continue; // link-addressed to a different router
                }
            }
            if self.down.contains(&r_addr) {
                if pkt.link_dst == Some(r_addr) {
                    self.stats.dropped_down += 1;
                }
                continue;
            }
            // Routers learn from everything they see, even frames they
            // end up suppressing.
            self.learn(r_addr, pkt.src, seg, &pkt);
            // For a link-addressed unicast the frame must move on; for
            // flooded traffic, skip segments that don't lead anywhere
            // new. Unknown unicasts flood like broadcasts.
            let unicast_dst = match pkt.dst {
                Dest::Unicast(d) => Some(d),
                _ => None,
            };
            if let Some(d) = unicast_dst {
                if self.host_segment(d) == Some(seg) {
                    continue; // destination is local; nothing to forward
                }
            }
            if pkt.ttl <= 1 {
                self.stats.dropped_ttl += 1;
                continue;
            }
            let already = !self.nodes[r_addr.0 as usize]
                .seen
                .observe(pkt.packet_id, pkt.ttl);
            if already {
                self.stats.dup_suppressed += 1;
                continue;
            }
            // Pick the out segments: routed unicasts follow the table;
            // everything else (and unknown unicasts) floods. A multicast
            // is never routed, so its group routes are rebuilt first.
            let route = unicast_dst.and_then(|d| self.route_lookup(r_addr, d));
            if matches!(pkt.dst, Dest::Multicast(_)) && self.group_routes_dirty {
                self.rebuild_group_routes();
            }
            let mut outs = std::mem::take(&mut self.fwd_outs);
            outs.clear();
            let attached = &self.routers[&r_addr];
            match route.filter(|e| e.segment != seg && attached.contains(&e.segment)) {
                Some(e) => outs.push((e.segment, Some(e.next_hop))),
                None => {
                    let flood = attached.iter().filter(|s| **s != seg);
                    match pkt.dst {
                        Dest::Multicast(g) => {
                            // FLIP-style multicast pruning: forward only
                            // onto segments that lead toward a member.
                            let allowed = self.group_routes.get(&r_addr).and_then(|t| t.get(&g));
                            for s in flood {
                                if allowed.is_some_and(|a| a.contains(s)) {
                                    outs.push((*s, None));
                                } else {
                                    self.stats.mcast_pruned += 1;
                                }
                            }
                        }
                        _ => outs.extend(flood.map(|s| (*s, None))),
                    }
                }
            }
            if outs.is_empty() {
                self.fwd_outs = outs;
                continue;
            }
            // Store-and-forward: the router fully receives the frame,
            // spends its forwarding CPU, then retransmits. Its receive
            // and send sides are serialized like any host's — shared
            // across all attached segments, which is exactly where
            // router contention comes from.
            let rx_free = &mut self.nodes[r_addr.0 as usize].rx_free;
            let rx_done = (*rx_free).max(arrival) + recv_cpu;
            *rx_free = rx_done;
            let fwd_ready = rx_done + forward_cpu;
            for &(oseg, next_hop) in &outs {
                let mut fwd = pkt.clone();
                fwd.ttl -= 1;
                fwd.hops += 1;
                fwd.relay = r_addr;
                fwd.link_dst = next_hop.filter(|h| self.routers.contains_key(h));
                self.stats.packets_forwarded += 1;
                self.transmit_frame(oseg, fwd, fwd_ready);
            }
            // A frame forwarded on from those segments took a buffer of
            // its own; this one is kept for the next frame.
            self.fwd_outs = outs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SeenCache;

    #[test]
    fn a_first_sighting_is_processed_and_a_repeat_is_not() {
        let mut seen = SeenCache::default();
        assert!(seen.observe(1, u8::MAX));
        assert!(!seen.observe(1, u8::MAX));
        assert!(seen.observe(2, u8::MAX), "another id is new");
    }

    #[test]
    fn a_copy_with_more_ttl_is_processed_once() {
        let mut seen = SeenCache::default();
        assert!(seen.observe(7, 2));
        assert!(!seen.observe(7, 2), "equal TTL");
        assert!(!seen.observe(7, 1), "less TTL");
        assert!(seen.observe(7, 3), "more TTL");
        assert!(!seen.observe(7, 3), "the raised TTL is the new best");
        assert!(!seen.observe(7, 2));
    }

    #[test]
    fn the_next_id_takes_the_slot_with_its_own_ttl() {
        let mut seen = SeenCache::default();
        assert!(seen.observe(5, 3));
        assert!(seen.observe(6, 1), "the next id is new at any TTL");
        assert!(!seen.observe(6, 1), "equal TTL");
        assert!(!seen.observe(6, 0), "less TTL");
        assert!(seen.observe(6, 2), "more TTL");
        assert!(!seen.observe(6, 2));
    }

    #[test]
    fn an_older_id_is_processed_and_leaves_the_slot_alone() {
        let mut seen = SeenCache::default();
        assert!(seen.observe(9, 2));
        assert!(seen.observe(8, u8::MAX), "processed as new");
        assert!(seen.observe(8, u8::MAX), "and not remembered");
        assert!(!seen.observe(9, 2), "the holder stays");
        assert!(seen.observe(9, 3), "with its own best TTL");
    }

    #[test]
    fn the_cache_is_one_word() {
        assert_eq!(std::mem::size_of::<SeenCache>(), 8);
    }
}
