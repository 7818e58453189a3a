//! Behavioural tests for the simulated network: delivery, multicast,
//! broadcast, partitions, loss, host down/up, and stats accounting.

use std::time::Duration;

use amoeba_flip::{GroupAddr, NetParams, Network, Payload, Port};
use amoeba_sim::{SimTime, Simulation};

fn net(sim: &Simulation, params: NetParams) -> Network {
    Network::new(sim.handle(), params, 99)
}

#[test]
fn unicast_delivers_with_model_latency() {
    let mut sim = Simulation::new(1);
    let mut params = NetParams::lan_10mbps();
    params.jitter = 0.0;
    let n = net(&sim, params.clone());
    let a = n.attach();
    let b = n.attach();
    let port = Port::from_name("t");
    let rx = b.bind(port);
    let dst = b.addr();
    sim.spawn("send", move |_| a.send(dst, port, vec![0u8; 100]));
    let got = sim.spawn("recv", move |ctx| {
        let p = rx.recv(ctx);
        (p.payload.len(), ctx.now())
    });
    sim.run();
    let (len, t) = got.take().unwrap();
    assert_eq!(len, 100);
    let expect = params.latency(100);
    assert_eq!(t, SimTime::ZERO + expect);
}

#[test]
fn multicast_reaches_all_members_including_sender() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let stacks: Vec<_> = (0..4).map(|_| n.attach()).collect();
    let g = GroupAddr(7);
    let port = Port::from_name("grp");
    // Hosts 0..3 join; host 3 does not.
    let mut rxs = Vec::new();
    for s in &stacks[..3] {
        s.join_group(g);
        rxs.push(s.bind(port));
    }
    let outsider_rx = stacks[3].bind(port);
    let sender = stacks[0].clone();
    sim.spawn("send", move |_| sender.send(g, port, b"m".to_vec()));
    let outs: Vec<_> = rxs
        .into_iter()
        .enumerate()
        .map(|(i, rx)| sim.spawn(&format!("r{i}"), move |ctx| rx.recv(ctx).payload))
        .collect();
    sim.run_for(Duration::from_millis(50));
    for o in outs {
        assert_eq!(o.take(), Some(Payload::from(b"m")));
    }
    assert!(outsider_rx.is_empty(), "non-member must not receive");
    // One multicast = one packet sent, three deliveries.
    let st = n.stats();
    assert_eq!(st.multicast_sent, 1);
    assert_eq!(st.deliveries, 3);
}

#[test]
fn broadcast_reaches_every_bound_host() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let port = Port::from_name("loc");
    let a = n.attach();
    let others: Vec<_> = (0..3).map(|_| n.attach()).collect();
    let rxs: Vec<_> = others.iter().map(|s| s.bind(port)).collect();
    sim.spawn("send", move |_| {
        a.send(amoeba_flip::Dest::Broadcast, port, vec![9])
    });
    let outs: Vec<_> = rxs
        .into_iter()
        .enumerate()
        .map(|(i, rx)| sim.spawn(&format!("r{i}"), move |ctx| rx.recv(ctx).payload))
        .collect();
    sim.run_for(Duration::from_millis(10));
    for o in outs {
        assert_eq!(o.take(), Some(Payload::from(vec![9])));
    }
}

#[test]
fn partition_blocks_cross_traffic_and_heals() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let a = n.attach();
    let b = n.attach();
    let port = Port::from_name("t");
    let rx = b.bind(port);
    let b_addr = b.addr();
    n.isolate(&[a.addr()]);
    let n2 = n.clone();
    let a2 = a.clone();
    sim.spawn("send", move |ctx| {
        a2.send(b_addr, port, vec![1]); // dropped: crosses the partition
        ctx.sleep(Duration::from_millis(20));
        n2.heal();
        a2.send(b_addr, port, vec![2]); // delivered
    });
    let got = sim.spawn("recv", move |ctx| rx.recv(ctx).payload);
    sim.run_for(Duration::from_millis(100));
    assert_eq!(got.take(), Some(Payload::from(vec![2])));
    assert_eq!(n.stats().dropped_partition, 1);
}

#[test]
fn hosts_in_same_side_of_partition_can_talk() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let a = n.attach();
    let b = n.attach();
    let c = n.attach();
    let port = Port::from_name("t");
    let rx = b.bind(port);
    let b_addr = b.addr();
    // a and b on side 1; c alone on side 0.
    n.set_partition(&[&[a.addr(), b.addr()]]);
    let _ = c;
    sim.spawn("send", move |_| a.send(b_addr, port, vec![5]));
    let got = sim.spawn("recv", move |ctx| rx.recv(ctx).payload);
    sim.run_for(Duration::from_millis(10));
    assert_eq!(got.take(), Some(Payload::from(vec![5])));
}

#[test]
fn down_host_receives_nothing_and_loses_bindings() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let a = n.attach();
    let b = n.attach();
    let g = GroupAddr(1);
    let port = Port::from_name("t");
    let _rx = b.bind(port);
    b.join_group(g);
    n.set_down(b.addr());
    assert!(!n.is_up(b.addr()));
    assert!(!b.is_bound(port));
    let b_addr = b.addr();
    sim.spawn("send", move |_| {
        a.send(b_addr, port, vec![1]);
        a.send(g, port, vec![2]);
    });
    sim.run_for(Duration::from_millis(10));
    let st = n.stats();
    assert_eq!(st.dropped_down, 1); // the unicast
    assert_eq!(st.deliveries, 0); // multicast had no members left
                                  // After set_up the host must re-bind to receive again.
    n.set_up(b.addr());
    let rx2 = b.bind(port);
    let a2 = n.attach(); // fresh sender stack (same net)
    sim.spawn("send2", move |_| a2.send(b_addr, port, vec![3]));
    let got = sim.spawn("recv", move |ctx| rx2.recv(ctx).payload);
    sim.run_for(Duration::from_millis(10));
    assert_eq!(got.take(), Some(Payload::from(vec![3])));
}

#[test]
fn down_host_cannot_send() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let a = n.attach();
    let b = n.attach();
    let port = Port::from_name("t");
    let rx = b.bind(port);
    n.set_down(a.addr());
    let b_addr = b.addr();
    sim.spawn("send", move |_| a.send(b_addr, port, vec![1]));
    sim.run_for(Duration::from_millis(10));
    assert!(rx.is_empty());
    assert_eq!(n.stats().packets_sent, 0);
}

#[test]
fn unbound_port_drops_with_stat() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let a = n.attach();
    let b = n.attach();
    let b_addr = b.addr();
    sim.spawn("send", move |_| {
        a.send(b_addr, Port::from_name("nobody"), vec![1])
    });
    sim.run();
    assert_eq!(n.stats().dropped_no_listener, 1);
}

#[test]
fn packet_loss_is_applied() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lossy(1.0)); // everything lost
    let a = n.attach();
    let b = n.attach();
    let port = Port::from_name("t");
    let rx = b.bind(port);
    let b_addr = b.addr();
    sim.spawn("send", move |_| {
        for _ in 0..10 {
            a.send(b_addr, port, vec![1]);
        }
    });
    sim.run_for(Duration::from_millis(50));
    assert!(rx.is_empty());
    assert_eq!(n.stats().dropped_loss, 10);
}

#[test]
fn rebinding_a_port_replaces_the_old_mailbox() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let a = n.attach();
    let b = n.attach();
    let port = Port::from_name("t");
    let old_rx = b.bind(port);
    let new_rx = b.bind(port);
    let b_addr = b.addr();
    sim.spawn("send", move |_| a.send(b_addr, port, vec![1]));
    sim.run_for(Duration::from_millis(10));
    assert!(old_rx.is_empty());
    assert_eq!(new_rx.len(), 1);
}

#[test]
fn a_packet_in_flight_across_a_reboot_reaches_neither_handler() {
    use std::cell::Cell;
    use std::rc::Rc;
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let a = n.attach();
    let b = n.attach();
    let machine = sim.add_node("b");
    let port = Port::from_name("t");
    let bind = move |stack: &amoeba_flip::NodeStack| {
        let seen = Rc::new(Cell::new(0u32));
        let count = Rc::clone(&seen);
        stack.bind_handler(port, machine, "count", move |_pkt| {
            count.set(count.get() + 1);
        });
        seen
    };
    let old_seen = bind(&b);
    let old_state = Rc::downgrade(&old_seen);
    let b_addr = b.addr();
    let new_seen = sim.spawn("chaos", move |ctx| {
        a.send(b_addr, port, vec![1]);
        // The machine's RAM goes while the frame is on the wire; its NIC
        // stays up, so the frame still arrives.
        ctx.crash_node(machine);
        ctx.revive_node(machine);
        let new_seen = bind(&b);
        ctx.sleep(Duration::from_millis(10));
        a.send(b_addr, port, vec![2]);
        ctx.sleep(Duration::from_millis(10));
        new_seen.get()
    });
    sim.run();
    assert_eq!(new_seen.take(), Some(1), "only the packet sent after it");
    assert_eq!(old_seen.get(), 0);
    drop(old_seen);
    assert!(old_state.upgrade().is_none(), "the network kept no handler");
}

#[test]
fn wire_serializes_back_to_back_sends() {
    // The shared ether carries one frame at a time: a big packet sent
    // first delays a small one behind it (no magic reordering on a
    // single segment), and the pair arrives strictly FIFO.
    let mut sim = Simulation::new(1);
    let mut params = NetParams::lan_10mbps();
    params.jitter = 0.0;
    let n = net(&sim, params.clone());
    let a = n.attach();
    let b = n.attach();
    let port = Port::from_name("t");
    let rx = b.bind(port);
    let b_addr = b.addr();
    sim.spawn("send", move |_| {
        a.send(b_addr, port, vec![0; 8000]); // occupies the wire ~6.4 ms
        a.send(b_addr, port, vec![0; 10]); // queues behind it
    });
    let got = sim.spawn("recv", move |ctx| {
        let first = (rx.recv(ctx).payload.len(), ctx.now());
        let second = (rx.recv(ctx).payload.len(), ctx.now());
        (first, second)
    });
    sim.run_for(Duration::from_millis(100));
    let ((first_len, t1), (second_len, t2)) = got.take().unwrap();
    assert_eq!((first_len, second_len), (8000, 10));
    // The small packet waited for the big one's wire time.
    assert!(t2 >= t1, "FIFO per wire");
    assert!(
        t2.saturating_since(SimTime::ZERO) >= params.wire_time(8000),
        "small packet must queue behind the large one"
    );
    // Utilization accounting saw both frames.
    assert_eq!(
        n.stats().wire_busy_nanos,
        (params.wire_time(8000) + params.wire_time(10)).as_nanos() as u64
    );
}

/// A locate is heard or not as it is transmitted: a host that registers
/// the sought service for the first time while the locate is on its way
/// misses it (the one case where delivering it would have reached a
/// handler that answers); a later locate reaches it, and so does one
/// after the host went down and came up again, because registrations
/// only grow. A host that never served the service is charged the
/// receive and hears nothing.
#[test]
fn a_locate_in_flight_when_its_service_is_first_registered_goes_unheard() {
    let mut sim = Simulation::new(1);
    let n = net(&sim, NetParams::lan_10mbps());
    let (a, b, c) = (n.attach(), n.attach(), n.attach());
    let (port, service) = (Port::from_name("kernel"), Port::from_name("svc"));
    let (rx_b, rx_c) = (b.bind(port), c.bind(port));
    let heard = |rx: &amoeba_sim::MailboxRx<amoeba_flip::Packet>| {
        std::iter::from_fn(|| rx.try_recv())
            .map(|p| p.payload)
            .collect::<Vec<_>>()
    };
    let locate = |sim: &Simulation, tag: u8| {
        let a = a.clone();
        sim.spawn("locate", move |_| a.locate(port, service, vec![tag], 1));
    };
    locate(&sim, 1);
    let b2 = b.clone();
    sim.spawn("register", move |_| b2.serve(service));
    sim.run();
    assert!(heard(&rx_b).is_empty(), "registered after the locate left");
    locate(&sim, 2);
    sim.run();
    assert_eq!(heard(&rx_b), [Payload::from(vec![2])]);
    n.set_down(b.addr());
    n.set_up(b.addr());
    let rx_b = b.bind(port);
    locate(&sim, 3);
    sim.run();
    assert_eq!(
        heard(&rx_b),
        [Payload::from(vec![3])],
        "rebooted, still registered"
    );
    assert!(heard(&rx_c).is_empty());
    let s = n.stats();
    // Each locate reached b and c; a has nothing bound to the port.
    assert_eq!((s.broadcast_sent, s.dropped_no_listener), (3, 3));
    assert_eq!((s.deliveries, s.locates_unheard), (6, 4));
}
