//! FLIP's duplicate suppression under load: on a cyclic internetwork,
//! every node remembers only a window of recent packet ids, and a
//! sustained stream of floods, many windows long, must still reach
//! every host exactly once and die out.

use std::time::Duration;

use amoeba_dirsvc::flip::{Dest, NetParams, Network, Port, Topology};
use amoeba_dirsvc::sim::Simulation;

const HOSTS: usize = 6;
const BROADCASTS: usize = 2_000;

#[test]
fn a_loaded_cyclic_topology_delivers_every_broadcast_exactly_once() {
    // A triangle (three segments, three routers): every remote segment
    // is reachable over two paths.
    let mut t = Topology::new();
    let segs = [t.add_segment("a"), t.add_segment("b"), t.add_segment("c")];
    t.add_router("rab", &[segs[0], segs[1]]);
    t.add_router("rbc", &[segs[1], segs[2]]);
    t.add_router("rac", &[segs[0], segs[2]]);
    let mut params = NetParams::lan_10mbps();
    params.jitter = 0.0;
    let mut sim = Simulation::new(5);
    let net = Network::with_topology(sim.handle(), params, t, 17);
    let port = Port::from_name("flood");
    let stacks: Vec<_> = (0..HOSTS).map(|i| net.attach_to(segs[i / 2])).collect();
    let mut counts = Vec::new();
    for (i, stack) in stacks.iter().enumerate() {
        let rx = stack.bind(port);
        // Each host's receive side takes a broadcast per 430 µs: six
        // senders one per 5 ms each keep every host and router below
        // saturation, so no queue grows.
        let tx = stack.clone();
        sim.spawn(&format!("send{i}"), move |ctx| {
            ctx.sleep(Duration::from_micros(800 * i as u64));
            for k in 0..BROADCASTS as u16 {
                let [lo, hi] = k.to_le_bytes();
                // TTL 3 keeps the two-router path alive to delivery, so
                // a remote host is offered two copies of each.
                tx.send_with_ttl(Dest::Broadcast, port, vec![i as u8, lo, hi], 3);
                ctx.sleep(Duration::from_millis(5));
            }
        });
        // Counts what arrives until the network has been quiet for 1 s.
        counts.push(sim.spawn(&format!("recv{i}"), move |ctx| {
            let mut got = vec![vec![0u32; BROADCASTS]; HOSTS];
            while let Some(pkt) = rx.recv_timeout(ctx, Duration::from_secs(1)) {
                let p = &pkt.payload;
                got[p[0] as usize][u16::from_le_bytes([p[1], p[2]]) as usize] += 1;
            }
            got
        }));
    }
    sim.run_for(Duration::from_secs(30));
    for (i, out) in counts.into_iter().enumerate() {
        let got = out.take().expect("the floods died out");
        for (from, per_k) in got.iter().enumerate() {
            for (k, n) in per_k.iter().enumerate() {
                assert_eq!(*n, 1, "host {i} got broadcast {k} of host {from} {n} times");
            }
        }
    }
    let st = net.stats();
    assert_eq!(st.packets_sent, (HOSTS * BROADCASTS) as u64);
    assert!(
        st.dup_suppressed > 0,
        "the redundant paths must have been suppressed"
    );
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        net.stats().packets_forwarded,
        st.packets_forwarded,
        "nothing is still being forwarded"
    );
}
