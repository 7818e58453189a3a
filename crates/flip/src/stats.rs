//! Network traffic counters, used by the §3.1 cost-analysis experiment
//! and the internetwork benches.

/// Per-segment counters of a multi-segment network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// The segment's name (from the [`Topology`](crate::Topology)).
    pub name: String,
    /// Nanoseconds this segment's wire spent transmitting (utilization =
    /// `wire_busy_nanos / elapsed`).
    pub wire_busy_nanos: u64,
    /// Frames placed on this segment's wire (origin sends and forwards).
    pub frames: u64,
}

/// Cumulative counters for everything the network medium has done.
///
/// Take two [`snapshots`](crate::Network::stats) and subtract to count the
/// packets attributable to an operation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets handed to the medium by hosts (one multicast counts once;
    /// router forwards are counted in [`packets_forwarded`](Self::packets_forwarded)).
    pub packets_sent: u64,
    /// Unicast sends.
    pub unicast_sent: u64,
    /// Multicast sends.
    pub multicast_sent: u64,
    /// Broadcast sends.
    pub broadcast_sent: u64,
    /// Deliveries made to endpoints (a multicast to 3 hosts counts 3).
    pub deliveries: u64,
    /// Payload + header bytes placed on the wire by hosts.
    pub bytes_sent: u64,
    /// Deliveries suppressed by random loss.
    pub dropped_loss: u64,
    /// Deliveries suppressed because src and dst were in different
    /// partitions.
    pub dropped_partition: u64,
    /// Deliveries suppressed because the destination host was down.
    pub dropped_down: u64,
    /// Deliveries dropped because nothing was bound to the port.
    pub dropped_no_listener: u64,
    /// Extra deliveries injected by random duplication.
    pub duplicated: u64,
    /// Of the [`deliveries`](Self::deliveries), the locates that reached
    /// a host which never served the service they seek: the host is
    /// charged the receive, and no delivery event is scheduled.
    pub locates_unheard: u64,
    /// Nanoseconds spent transmitting across all wires (the sum of the
    /// per-segment counters).
    pub wire_busy_nanos: u64,
    /// Frames retransmitted onto another segment by a router
    /// (store-and-forward; one per traversed segment).
    pub packets_forwarded: u64,
    /// Forwards a router suppressed because the packet's TTL was spent.
    pub dropped_ttl: u64,
    /// Copies suppressed by duplicate detection: a router refusing to
    /// forward a packet id twice, or a receiver refusing a second copy
    /// that arrived over a different path.
    pub dup_suppressed: u64,
    /// Multicast forwards a router skipped because its group routing
    /// state showed no member reachable through that segment (FLIP-style
    /// multicast pruning; each skipped out-segment counts once).
    pub mcast_pruned: u64,
    /// Backward-learned routes dropped because they exceeded
    /// [`NetParams::route_max_age`](crate::NetParams::route_max_age)
    /// without being re-confirmed by traffic.
    pub routes_aged_out: u64,
    /// Per-segment wire counters, indexed by
    /// [`SegmentId`](crate::SegmentId) order.
    pub segments: Vec<SegmentStats>,
}

impl NetStats {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &NetStats) -> NetStats {
        NetStats {
            packets_sent: self.packets_sent.saturating_sub(earlier.packets_sent),
            unicast_sent: self.unicast_sent.saturating_sub(earlier.unicast_sent),
            multicast_sent: self.multicast_sent.saturating_sub(earlier.multicast_sent),
            broadcast_sent: self.broadcast_sent.saturating_sub(earlier.broadcast_sent),
            deliveries: self.deliveries.saturating_sub(earlier.deliveries),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            dropped_loss: self.dropped_loss.saturating_sub(earlier.dropped_loss),
            dropped_partition: self
                .dropped_partition
                .saturating_sub(earlier.dropped_partition),
            dropped_down: self.dropped_down.saturating_sub(earlier.dropped_down),
            dropped_no_listener: self
                .dropped_no_listener
                .saturating_sub(earlier.dropped_no_listener),
            duplicated: self.duplicated.saturating_sub(earlier.duplicated),
            locates_unheard: self.locates_unheard.saturating_sub(earlier.locates_unheard),
            wire_busy_nanos: self.wire_busy_nanos.saturating_sub(earlier.wire_busy_nanos),
            packets_forwarded: self
                .packets_forwarded
                .saturating_sub(earlier.packets_forwarded),
            dropped_ttl: self.dropped_ttl.saturating_sub(earlier.dropped_ttl),
            dup_suppressed: self.dup_suppressed.saturating_sub(earlier.dup_suppressed),
            mcast_pruned: self.mcast_pruned.saturating_sub(earlier.mcast_pruned),
            routes_aged_out: self.routes_aged_out.saturating_sub(earlier.routes_aged_out),
            segments: self
                .segments
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let e = earlier.segments.get(i);
                    SegmentStats {
                        name: s.name.clone(),
                        wire_busy_nanos: s
                            .wire_busy_nanos
                            .saturating_sub(e.map(|e| e.wire_busy_nanos).unwrap_or(0)),
                        frames: s.frames.saturating_sub(e.map(|e| e.frames).unwrap_or(0)),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = NetStats {
            packets_sent: 10,
            deliveries: 20,
            packets_forwarded: 7,
            segments: vec![SegmentStats {
                name: "lan".into(),
                wire_busy_nanos: 100,
                frames: 5,
            }],
            ..Default::default()
        };
        let b = NetStats {
            packets_sent: 4,
            deliveries: 25,
            packets_forwarded: 3,
            segments: vec![SegmentStats {
                name: "lan".into(),
                wire_busy_nanos: 40,
                frames: 2,
            }],
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.packets_sent, 6);
        assert_eq!(d.deliveries, 0); // saturating
        assert_eq!(d.packets_forwarded, 4);
        assert_eq!(d.segments[0].wire_busy_nanos, 60);
        assert_eq!(d.segments[0].frames, 3);
    }
}
