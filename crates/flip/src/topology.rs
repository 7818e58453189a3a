//! Internetwork topologies: named segments joined by router nodes.
//!
//! A [`Topology`] is the static wiring plan a [`Network`](crate::Network)
//! is built from: an ordered list of named *segments* (each its own
//! Ethernet with its own wire occupancy and, optionally, its own
//! [`NetParams`]) and a list of *routers*, each attached to two or more
//! segments. The degenerate [`Topology::single`] — one segment, no
//! routers — is the default everywhere and reproduces the old
//! single-Ethernet behaviour exactly.
//!
//! Hop counts are *router traversals*: two hosts on the same segment are
//! 0 hops apart; one router between their segments makes them 1 hop
//! apart. [`Topology::default_ttl`] (diameter + 1) is the TTL a packet
//! needs to reach every host, and is what a stack stamps on packets whose
//! sender did not choose a TTL explicitly.

use crate::params::NetParams;

/// Index of a segment within a [`Topology`] (and its `Network`).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

impl std::fmt::Debug for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seg:{}", self.0)
    }
}

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seg:{}", self.0)
    }
}

/// One network segment of a topology.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSpec {
    /// Human-readable name, used in per-segment stats and bench output.
    pub name: String,
    /// Additive route cost of traversing this segment (1 for a LAN;
    /// raise it to make routes prefer other paths, e.g. a slow WAN hop).
    pub weight: u32,
    /// Timing/fault model override; `None` inherits the network's base
    /// parameters.
    pub params: Option<NetParams>,
}

/// One router of a topology: a store-and-forward node attached to two or
/// more segments.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterSpec {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// The segments this router forwards between.
    pub attached: Vec<SegmentId>,
}

/// A static internetwork wiring plan. See the [crate docs](crate) for
/// the routing it describes.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    segments: Vec<SegmentSpec>,
    routers: Vec<RouterSpec>,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::single()
    }
}

impl Topology {
    /// An empty topology; add segments before attaching hosts.
    pub fn new() -> Topology {
        Topology {
            segments: Vec::new(),
            routers: Vec::new(),
        }
    }

    /// The degenerate one-segment topology (a single Ethernet, no
    /// routers) — the default, and byte-identical to the pre-routing
    /// network model.
    pub fn single() -> Topology {
        let mut t = Topology::new();
        t.add_segment("lan");
        t
    }

    /// Two segments joined by one router — the canonical internetwork
    /// testbed (`net-a` ↔ `r0` ↔ `net-b`).
    pub fn two_segments() -> Topology {
        let mut t = Topology::new();
        let a = t.add_segment("net-a");
        let b = t.add_segment("net-b");
        t.add_router("r0", &[a, b]);
        t
    }

    /// A chain of `n` segments, each pair joined by its own router
    /// (diameter `n - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn chain(n: usize) -> Topology {
        assert!(n > 0, "a chain needs at least one segment");
        let mut t = Topology::new();
        let segs: Vec<SegmentId> = (0..n).map(|i| t.add_segment(&format!("net-{i}"))).collect();
        for w in segs.windows(2) {
            t.add_router(&format!("r{}-{}", w[0].0, w[1].0), &[w[0], w[1]]);
        }
        t
    }

    /// Adds a segment with weight 1 and inherited parameters.
    pub fn add_segment(&mut self, name: &str) -> SegmentId {
        self.add_segment_with(name, 1, None)
    }

    /// Adds a segment with an explicit route weight and an optional
    /// [`NetParams`] override.
    pub fn add_segment_with(
        &mut self,
        name: &str,
        weight: u32,
        params: Option<NetParams>,
    ) -> SegmentId {
        let id = SegmentId(self.segments.len() as u32);
        self.segments.push(SegmentSpec {
            name: name.to_owned(),
            weight: weight.max(1),
            params,
        });
        id
    }

    /// Adds a router attached to the given segments.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two segments are given or any id is unknown.
    pub fn add_router(&mut self, name: &str, attached: &[SegmentId]) {
        assert!(attached.len() >= 2, "a router joins at least two segments");
        for s in attached {
            assert!(
                (s.0 as usize) < self.segments.len(),
                "router {name} attached to unknown {s}"
            );
        }
        let mut seen = attached.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            attached.len(),
            "router {name} attached to a segment twice"
        );
        self.routers.push(RouterSpec {
            name: name.to_owned(),
            attached: attached.to_vec(),
        });
    }

    /// The segments, in [`SegmentId`] order.
    pub fn segments(&self) -> &[SegmentSpec] {
        &self.segments
    }

    /// The routers.
    pub fn routers(&self) -> &[RouterSpec] {
        &self.routers
    }

    /// Minimum number of router traversals between two segments
    /// (`Some(0)` for the same segment, `None` if unreachable).
    pub fn hops_between(&self, a: SegmentId, b: SegmentId) -> Option<u8> {
        if a == b {
            return Some(0);
        }
        let n = self.segments.len();
        if (a.0 as usize) >= n || (b.0 as usize) >= n {
            return None;
        }
        // BFS over the segment graph; each router traversal costs 1.
        let mut dist = vec![u8::MAX; n];
        dist[a.0 as usize] = 0;
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(s) = queue.pop_front() {
            let d = dist[s.0 as usize];
            for r in &self.routers {
                if !r.attached.contains(&s) {
                    continue;
                }
                for t in &r.attached {
                    if dist[t.0 as usize] == u8::MAX {
                        dist[t.0 as usize] = d.saturating_add(1);
                        if *t == b {
                            return Some(d.saturating_add(1));
                        }
                        queue.push_back(*t);
                    }
                }
            }
        }
        None
    }

    /// Whether traffic can reach segment `b` from segment `a`.
    pub fn reachable(&self, a: SegmentId, b: SegmentId) -> bool {
        self.hops_between(a, b).is_some()
    }

    /// The largest hop count between any two mutually reachable
    /// segments (0 for a single segment).
    pub fn diameter(&self) -> u8 {
        let n = self.segments.len() as u32;
        let mut d = 0u8;
        for a in 0..n {
            for b in (a + 1)..n {
                if let Some(h) = self.hops_between(SegmentId(a), SegmentId(b)) {
                    d = d.max(h);
                }
            }
        }
        d
    }

    /// The TTL that reaches every host of the topology: diameter + 1
    /// (a packet needs one TTL unit per router traversal, and must still
    /// be alive on the final segment).
    pub fn default_ttl(&self) -> u8 {
        self.diameter().saturating_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_has_no_routers_and_ttl_one() {
        let t = Topology::single();
        assert_eq!(t.segments().len(), 1);
        assert!(t.routers().is_empty());
        assert_eq!(t.diameter(), 0);
        assert_eq!(t.default_ttl(), 1);
    }

    #[test]
    fn two_segments_one_hop() {
        let t = Topology::two_segments();
        assert_eq!(t.hops_between(SegmentId(0), SegmentId(1)), Some(1));
        assert_eq!(t.hops_between(SegmentId(1), SegmentId(1)), Some(0));
        assert_eq!(t.default_ttl(), 2);
    }

    #[test]
    fn chain_diameter_grows() {
        let t = Topology::chain(4);
        assert_eq!(t.segments().len(), 4);
        assert_eq!(t.routers().len(), 3);
        assert_eq!(t.hops_between(SegmentId(0), SegmentId(3)), Some(3));
        assert_eq!(t.diameter(), 3);
        assert_eq!(t.default_ttl(), 4);
    }

    #[test]
    fn disconnected_segments_are_unreachable() {
        let mut t = Topology::new();
        let a = t.add_segment("a");
        let b = t.add_segment("b");
        assert!(!t.reachable(a, b));
        assert_eq!(t.hops_between(a, b), None);
        // Diameter only counts reachable pairs.
        assert_eq!(t.diameter(), 0);
    }

    #[test]
    fn triangle_prefers_direct_hop() {
        let mut t = Topology::new();
        let a = t.add_segment("a");
        let b = t.add_segment("b");
        let c = t.add_segment("c");
        t.add_router("rab", &[a, b]);
        t.add_router("rbc", &[b, c]);
        t.add_router("rac", &[a, c]);
        assert_eq!(t.hops_between(a, c), Some(1));
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn router_needs_two_segments() {
        let mut t = Topology::new();
        let a = t.add_segment("a");
        t.add_router("r", &[a]);
    }
}
