//! Behavioural and property tests of the internetwork routing layer:
//! store-and-forward timing, expanding-ring reachability, duplicate
//! suppression, TTL enforcement, route learning, and router failure.

use std::time::Duration;

use amoeba_flip::{Dest, GroupAddr, NetParams, Network, Port, SegmentId, Topology};
use amoeba_sim::{SimTime, Simulation};
use amoeba_testkit::{check, Gen};

fn quiet() -> NetParams {
    let mut p = NetParams::lan_10mbps();
    p.jitter = 0.0;
    p
}

#[test]
fn routed_unicast_pays_exactly_one_hop_overhead() {
    // Two segments, one router: an off-segment unicast (flooded, since
    // no route is known yet — one router, so flooding == routing here)
    // arrives after exactly latency + hop_overhead on an idle network.
    let mut sim = Simulation::new(1);
    let params = quiet();
    let net = Network::with_topology(sim.handle(), params.clone(), Topology::two_segments(), 9);
    let a = net.attach_to(SegmentId(0));
    let b = net.attach_to(SegmentId(1));
    let port = Port::from_name("t");
    let rx = b.bind(port);
    let dst = b.addr();
    sim.spawn("send", move |_| a.send(dst, port, vec![0u8; 100]));
    let got = sim.spawn("recv", move |ctx| (rx.recv(ctx).payload.len(), ctx.now()));
    sim.run_for(Duration::from_millis(50));
    let (len, t) = got.take().expect("routed unicast delivered");
    assert_eq!(len, 100);
    let expect = params.latency(100) + params.hop_overhead(100);
    assert_eq!(t, SimTime::ZERO + expect);
    let st = net.stats();
    assert_eq!(st.packets_sent, 1, "origin send counts once");
    assert_eq!(st.packets_forwarded, 1, "one store-and-forward");
    assert_eq!(st.segments.len(), 2);
    assert!(st.segments[0].wire_busy_nanos > 0 && st.segments[1].wire_busy_nanos > 0);
    assert_eq!(
        st.wire_busy_nanos,
        st.segments[0].wire_busy_nanos + st.segments[1].wire_busy_nanos,
        "total wire busy is the sum of the per-segment counters"
    );
}

#[test]
fn ttl_limited_broadcast_stays_in_the_ring() {
    // Chain of 3 segments: a TTL-1 broadcast never leaves the origin
    // segment; TTL 2 reaches the middle; TTL 3 reaches everything.
    for (ttl, reach) in [(1u8, 1usize), (2, 2), (3, 3)] {
        let mut sim = Simulation::new(2);
        let net = Network::with_topology(sim.handle(), quiet(), Topology::chain(3), 5);
        let stacks: Vec<_> = (0..3).map(|i| net.attach_to(SegmentId(i as u32))).collect();
        let port = Port::from_name("ring");
        let rxs: Vec<_> = stacks.iter().map(|s| s.bind(port)).collect();
        let src = stacks[0].clone();
        sim.spawn("send", move |_| {
            src.send_with_ttl(Dest::Broadcast, port, vec![7], ttl)
        });
        sim.run_for(Duration::from_millis(50));
        let delivered: usize = rxs.iter().map(|rx| rx.len()).sum();
        assert_eq!(delivered, reach, "ttl {ttl} must reach {reach} segments");
        if reach < 3 {
            assert!(net.stats().dropped_ttl > 0, "ttl exhaustion is counted");
        }
    }
}

#[test]
fn cyclic_topology_delivers_broadcasts_exactly_once() {
    // A triangle (three segments, three routers) offers two paths to
    // every remote segment: duplicate suppression must keep delivery
    // at exactly one copy per host, and the flood must terminate.
    let mut t = Topology::new();
    let a = t.add_segment("a");
    let b = t.add_segment("b");
    let c = t.add_segment("c");
    t.add_router("rab", &[a, b]);
    t.add_router("rbc", &[b, c]);
    t.add_router("rac", &[a, c]);
    let mut sim = Simulation::new(3);
    let net = Network::with_topology(sim.handle(), quiet(), t, 11);
    let stacks: Vec<_> = [a, b, c]
        .iter()
        .flat_map(|s| (0..2).map(|_| net.attach_to(*s)).collect::<Vec<_>>())
        .collect();
    let port = Port::from_name("tri");
    let rxs: Vec<_> = stacks.iter().map(|s| s.bind(port)).collect();
    let src = stacks[0].clone();
    // TTL 3 keeps the redundant two-router path alive all the way to
    // delivery (the default TTL of 2 would cut it at the second
    // router), so receiver-side suppression is what prevents the dup.
    sim.spawn("send", move |_| {
        src.send_with_ttl(Dest::Broadcast, port, vec![1], 3)
    });
    sim.run_for(Duration::from_millis(100));
    for (i, rx) in rxs.iter().enumerate() {
        assert_eq!(rx.len(), 1, "host {i} must receive exactly one copy");
    }
    let st = net.stats();
    assert!(
        st.dup_suppressed > 0,
        "the redundant path must have been suppressed"
    );
}

#[test]
fn broadcast_reachability_property() {
    // Random topologies: a broadcast with TTL t reaches a host iff the
    // host's segment is within t−1 router hops of the origin segment —
    // and never delivers twice.
    check("found iff reachable, exactly once", 24, |g: &mut Gen| {
        let n_segs = 2 + g.below(4); // 2..=5 segments
        let mut topo = Topology::new();
        let segs: Vec<SegmentId> = (0..n_segs)
            .map(|i| topo.add_segment(&format!("s{i}")))
            .collect();
        // Random routers, possibly leaving some segments unreachable
        // and possibly forming cycles.
        let n_routers = 1 + g.below(n_segs + 1);
        for r in 0..n_routers {
            let x = segs[g.below(n_segs)];
            let y = segs[g.below(n_segs)];
            if x != y {
                topo.add_router(&format!("r{r}"), &[x, y]);
            }
        }
        let ttl = 1 + g.below(4) as u8;
        let src_seg = segs[g.below(n_segs)];
        let topo2 = topo.clone();

        let mut sim = Simulation::new(0x70B0 + ttl as u64);
        let net = Network::with_topology(sim.handle(), quiet(), topo, 0xD1CE);
        let port = Port::from_name("prop");
        let stacks: Vec<_> = segs.iter().map(|s| net.attach_to(*s)).collect();
        let rxs: Vec<_> = stacks.iter().map(|s| s.bind(port)).collect();
        let src = stacks[src_seg.0 as usize].clone();
        sim.spawn("send", move |_| {
            src.send_with_ttl(Dest::Broadcast, port, vec![9], ttl)
        });
        sim.run_for(Duration::from_millis(200));
        for (i, rx) in rxs.iter().enumerate() {
            let within = topo2
                .hops_between(src_seg, segs[i])
                .map(|h| h < ttl)
                .unwrap_or(false);
            let got = rx.len();
            assert_eq!(
                got,
                usize::from(within),
                "host on {:?} (src {:?}, ttl {ttl}): delivered {got}, reachable-within-ring {within}",
                segs[i],
                src_seg,
            );
        }
    });
}

#[test]
fn routes_are_learned_from_broadcasts_and_prune_flooding() {
    // Y topology: one router joins three segments. The first unicast to
    // an unknown host floods both remote segments; after the reply
    // teaches the route, a repeat send is forwarded onto one segment
    // only.
    let mut t = Topology::new();
    let a = t.add_segment("a");
    let b = t.add_segment("b");
    let c = t.add_segment("c");
    t.add_router("hub", &[a, b, c]);
    let mut sim = Simulation::new(5);
    let net = Network::with_topology(sim.handle(), quiet(), t, 13);
    let on_a = net.attach_to(a);
    let on_b = net.attach_to(b);
    let _on_c = net.attach_to(c);
    let port = Port::from_name("learn");
    let rx_a = on_a.bind(port);
    let rx_b = on_b.bind(port);
    let a_addr = on_a.addr();
    let b_addr = on_b.addr();

    // Broadcast from a seeds b's route back to a.
    let net2 = net.clone();
    sim.spawn("exchange", move |ctx| {
        on_a.send(Dest::Broadcast, port, vec![1]);
        ctx.sleep(Duration::from_millis(10));
        let flood_start = net2.stats().packets_forwarded;
        // Reply b → a: b learned a's route from the broadcast, so this
        // is forwarded onto segment a only (1 forward, not 2).
        on_b.send(a_addr, port, vec![3]);
        ctx.sleep(Duration::from_millis(10));
        let fwd_reply = net2.stats().packets_forwarded - flood_start;
        assert_eq!(fwd_reply, 1, "learned route must not flood");
        // a → b now also has a direct route (learned from the reply).
        on_a.send(b_addr, port, vec![4]);
    });
    sim.run_for(Duration::from_millis(100));
    // b got the broadcast and the directed a → b send.
    assert_eq!(rx_b.len(), 2);
    // a got its own broadcast copy and b's reply.
    assert_eq!(rx_a.len(), 2);
    let _ = b_addr;
}

#[test]
fn router_crash_stops_forwarding_and_recovery_relearns() {
    let mut sim = Simulation::new(7);
    let net = Network::with_topology(sim.handle(), quiet(), Topology::two_segments(), 17);
    let a = net.attach_to(SegmentId(0));
    let b = net.attach_to(SegmentId(1));
    let port = Port::from_name("rdown");
    let rx = b.bind(port);
    let router = net.router_addrs()[0];
    let dst = b.addr();
    let net2 = net.clone();
    sim.spawn("drive", move |ctx| {
        // Router up: delivery works.
        a.send(dst, port, vec![1]);
        ctx.sleep(Duration::from_millis(10));
        // Router down: cross-segment traffic dies silently.
        net2.set_down(router);
        a.send(dst, port, vec![2]);
        ctx.sleep(Duration::from_millis(10));
        // Router back: traffic flows again (tables were wiped; the
        // flooding fallback still finds the destination).
        net2.set_up(router);
        a.send(dst, port, vec![3]);
    });
    sim.run_for(Duration::from_millis(100));
    let mut got = Vec::new();
    while let Some(p) = rx.try_recv() {
        got.push(p.payload.as_slice()[0]);
    }
    assert_eq!(
        got,
        vec![1, 3],
        "only the packets sent while the router was up arrive"
    );
}

/// Y topology (one hub router joining three segments) with two hosts
/// per segment.
fn y_net(sim: &Simulation) -> (Network, Vec<amoeba_flip::NodeStack>) {
    let mut t = Topology::new();
    let a = t.add_segment("a");
    let b = t.add_segment("b");
    let c = t.add_segment("c");
    t.add_router("hub", &[a, b, c]);
    let net = Network::with_topology(sim.handle(), quiet(), t, 29);
    let stacks: Vec<_> = [a, a, b, b, c, c]
        .iter()
        .map(|s| net.attach_to(*s))
        .collect();
    (net, stacks)
}

#[test]
fn multicast_never_enters_a_member_free_segment() {
    // Members on segments a and b only; segment c must stay silent, and
    // the pruned direction must be counted.
    let mut sim = Simulation::new(31);
    let (net, stacks) = y_net(&sim);
    let g = GroupAddr(5);
    let port = Port::from_name("mc");
    stacks[0].join_group(g);
    stacks[2].join_group(g);
    let rx_b = stacks[2].bind(port);
    let rx_c = stacks[4].bind(port); // not a member
    let before = net.stats();
    let src = stacks[0].clone();
    sim.spawn("send", move |_| src.send(g, port, vec![1]));
    sim.run_for(Duration::from_millis(50));
    let d = net.stats().since(&before);
    assert_eq!(rx_b.len(), 1, "the remote member always receives");
    assert!(rx_c.is_empty(), "a non-member never receives");
    assert_eq!(
        d.segments[2].frames, 0,
        "no frame may enter the member-free segment"
    );
    assert!(d.mcast_pruned > 0, "the pruned direction is counted");
    assert_eq!(d.packets_forwarded, 1, "one forward toward the member");
}

#[test]
fn membership_change_reopens_and_recloses_forwarding() {
    let mut sim = Simulation::new(37);
    let (net, stacks) = y_net(&sim);
    let g = GroupAddr(9);
    let port = Port::from_name("mj");
    stacks[0].join_group(g);
    let rx_c = stacks[4].bind(port);
    let src = stacks[0].clone();
    let joiner = stacks[4].clone();
    let net2 = net.clone();
    sim.spawn("drive", move |ctx| {
        // No member on c yet: the multicast is pruned at the hub.
        src.send(g, port, vec![1]);
        ctx.sleep(Duration::from_millis(10));
        // A host on c joins: the membership change flushes the group
        // routing state and the next multicast reaches it.
        joiner.join_group(g);
        src.send(g, port, vec![2]);
        ctx.sleep(Duration::from_millis(10));
        // It leaves again: forwarding toward c closes.
        joiner.leave_group(g);
        src.send(g, port, vec![3]);
        ctx.sleep(Duration::from_millis(10));
        let _ = net2.stats();
    });
    sim.run_for(Duration::from_millis(100));
    let mut got = Vec::new();
    while let Some(p) = rx_c.try_recv() {
        got.push(p.payload.as_slice()[0]);
    }
    assert_eq!(
        got,
        vec![2],
        "only the multicast sent while c had a member arrives"
    );
}

#[test]
fn stale_routes_age_out_and_flooding_reteaches() {
    // Learn a route, let it idle past the horizon: the next send must
    // drop the stale entry (counted) and fall back to flooding — which
    // costs a forward onto every far segment but re-teaches the path.
    let mut params = quiet();
    params.route_max_age = Duration::from_secs(2);
    let mut t = Topology::new();
    let a = t.add_segment("a");
    let b = t.add_segment("b");
    let c = t.add_segment("c");
    t.add_router("hub", &[a, b, c]);
    let mut sim = Simulation::new(41);
    let net = Network::with_topology(sim.handle(), params, t, 43);
    let on_a = net.attach_to(a);
    let on_b = net.attach_to(b);
    let _on_c = net.attach_to(c);
    let port = Port::from_name("age");
    let _rx_a = on_a.bind(port);
    let rx_b = on_b.bind(port);
    let a_addr = on_a.addr();
    let b_addr = on_b.addr();
    let a2 = on_a.clone();
    let net2 = net.clone();
    sim.spawn("drive", move |ctx| {
        // Broadcast from a teaches b (and the hub) the route back to a.
        on_a.send(Dest::Broadcast, port, vec![1]);
        ctx.sleep(Duration::from_millis(10));
        let fresh_start = net2.stats();
        on_b.send(a_addr, port, vec![2]);
        ctx.sleep(Duration::from_millis(10));
        let fresh = net2.stats().since(&fresh_start);
        assert_eq!(fresh.packets_forwarded, 1, "fresh route: directed, 1 hop");
        assert_eq!(fresh.routes_aged_out, 0);
        // Idle past the horizon: every entry on the path goes stale.
        ctx.sleep(Duration::from_secs(3));
        let stale_start = net2.stats();
        on_b.send(a_addr, port, vec![3]);
        ctx.sleep(Duration::from_millis(10));
        let stale = net2.stats().since(&stale_start);
        assert!(
            stale.routes_aged_out > 0,
            "the stale route must be dropped by age, not by send failure"
        );
        assert_eq!(
            stale.packets_forwarded, 2,
            "aged-out route falls back to flooding (both far segments)"
        );
        // Return traffic re-teaches the backward-learned routes (a's
        // own route to b is stale too, so the reply also floods)...
        a2.send(b_addr, port, vec![4]);
        ctx.sleep(Duration::from_millis(10));
        // ...after which the locate-then-route pattern is restored.
        let relearn_start = net2.stats();
        on_b.send(a_addr, port, vec![5]);
        ctx.sleep(Duration::from_millis(10));
        let relearn = net2.stats().since(&relearn_start);
        assert_eq!(relearn.packets_forwarded, 1, "reply re-taught the route");
    });
    sim.run_for(Duration::from_secs(10));
    // b saw a's broadcast and the reply.
    let mut got = 0;
    while rx_b.try_recv().is_some() {
        got += 1;
    }
    assert_eq!(got, 2, "b got the broadcast copy and the reply");
}

#[test]
fn flat_network_keeps_single_segment_semantics() {
    // Network::new is the degenerate topology: no routers, ttl 1, one
    // segment stat mirroring the total.
    let mut sim = Simulation::new(8);
    let net = Network::new(sim.handle(), quiet(), 3);
    assert_eq!(net.max_hops(), 1);
    assert!(net.router_addrs().is_empty());
    let a = net.attach();
    let b = net.attach();
    let port = Port::from_name("flat");
    let rx = b.bind(port);
    let dst = b.addr();
    sim.spawn("send", move |_| a.send(dst, port, vec![0u8; 64]));
    sim.run_for(Duration::from_millis(10));
    assert_eq!(rx.len(), 1);
    let st = net.stats();
    assert_eq!(st.packets_forwarded, 0);
    assert_eq!(st.segments.len(), 1);
    assert_eq!(st.segments[0].wire_busy_nanos, st.wire_busy_nanos);
    assert_eq!(st.segments[0].name, "lan");
}

#[test]
fn short_path_copy_is_not_shadowed_by_a_longer_paths_duplicate() {
    // Regression: forwarding recursion is depth-first in router-address
    // order, so a copy that wandered S0→S1→S2 (ttl spent down to 2) can
    // reach router rC and rD *before* the direct S0→S2 copy (ttl 4) is
    // processed. Naive "seen id ⇒ drop" suppression would then discard
    // the direct copy at rC and the broadcast would never reach S4,
    // despite S4 being 3 hops away and the default TTL being 4. The
    // seen cache must re-forward a copy with more remaining TTL.
    let mut t = Topology::new();
    let segs: Vec<SegmentId> = (0..5).map(|i| t.add_segment(&format!("s{i}"))).collect();
    t.add_router("rA", &[segs[0], segs[1]]);
    t.add_router("rB", &[segs[1], segs[2]]);
    t.add_router("rC", &[segs[0], segs[2]]);
    t.add_router("rD", &[segs[2], segs[3]]);
    t.add_router("rE", &[segs[3], segs[4]]);
    assert_eq!(t.diameter(), 3);
    let mut sim = Simulation::new(17);
    let net = Network::with_topology(sim.handle(), quiet(), t, 23);
    let port = Port::from_name("shadow");
    let stacks: Vec<_> = segs.iter().map(|s| net.attach_to(*s)).collect();
    let rxs: Vec<_> = stacks.iter().map(|s| s.bind(port)).collect();
    let src = stacks[0].clone();
    sim.spawn("send", move |_| src.send(Dest::Broadcast, port, vec![4]));
    sim.run_for(Duration::from_millis(200));
    for (i, rx) in rxs.iter().enumerate() {
        assert_eq!(
            rx.len(),
            1,
            "host on s{i} must receive exactly one copy (default ttl covers the diameter)"
        );
    }
}
