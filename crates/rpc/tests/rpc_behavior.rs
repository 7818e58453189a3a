//! End-to-end RPC behaviour: locate, transactions, NOTHERE spreading,
//! crash handling, and telling a slow server from a dead one.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use amoeba_flip::{HostAddr, NetParams, Network, NodeStack, Payload, Port};
use amoeba_rpc::{RpcClient, RpcError, RpcNode, RpcParams, RpcServer};
use amoeba_sim::{Ctx, NodeId, Simulation};
use amoeba_telemetry::Telemetry;

struct Host {
    node: RpcNode,
    sim_node: NodeId,
    #[allow(dead_code)]
    stack: NodeStack,
}

fn host(sim: &Simulation, net: &Network, name: &str) -> Host {
    let sim_node = sim.add_node(name);
    let stack = net.attach();
    let node = RpcNode::start(sim_node, stack.clone());
    Host {
        node,
        sim_node,
        stack,
    }
}

fn echo_server(sim: &Simulation, h: &Host, service: Port) {
    let srv = RpcServer::new(&h.node, service);
    sim.spawn_on(h.sim_node, "echo-server", move |ctx| loop {
        let req = srv.getreq(ctx);
        let mut data = req.data.to_vec();
        data.reverse();
        srv.putrep(&req, data);
    });
}

#[test]
fn basic_trans_round_trip() {
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("echo");
    let s = host(&sim, &net, "server");
    let c = host(&sim, &net, "client");
    echo_server(&sim, &s, service);
    let client = RpcClient::new(&c.node);
    let out = sim.spawn("client", move |ctx| {
        client.trans(ctx, service, vec![1, 2, 3]).unwrap()
    });
    sim.run_for(Duration::from_secs(2));
    assert_eq!(out.take(), Some(amoeba_flip::Payload::from(vec![3, 2, 1])));
}

#[test]
fn locate_fills_port_cache_with_all_repliers() {
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("echo");
    let servers: Vec<Host> = (0..3).map(|i| host(&sim, &net, &format!("s{i}"))).collect();
    for s in &servers {
        echo_server(&sim, s, service);
    }
    let c = host(&sim, &net, "client");
    let client = RpcClient::new(&c.node);
    let node = c.node.clone();
    let cached = sim.spawn("client", move |ctx| {
        client.trans(ctx, service, vec![0]).unwrap();
        // All three HEREIS replies should have been cached by now (the
        // first triggered the send; the others arrived concurrently).
        ctx.sleep(Duration::from_millis(20));
        node.cached_servers(service).len()
    });
    sim.run_for(Duration::from_secs(2));
    assert_eq!(cached.take(), Some(3));
}

#[test]
fn nothere_moves_client_to_free_server() {
    let mut sim = Simulation::new(7);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("slow");
    let s1 = host(&sim, &net, "s1");
    let s2 = host(&sim, &net, "s2");
    // s1: single thread, very slow (holds the only listener for 300 ms).
    let srv1 = RpcServer::new(&s1.node, service);
    let served_by = Rc::new(RefCell::new(Vec::<&'static str>::new()));
    let log1 = Rc::clone(&served_by);
    sim.spawn_on(s1.sim_node, "slow-server", move |ctx| loop {
        let req = srv1.getreq(ctx);
        ctx.sleep(Duration::from_millis(300));
        log1.borrow_mut().push("s1");
        srv1.putrep(&req, vec![1]);
    });
    // s2: fast server.
    let srv2 = RpcServer::new(&s2.node, service);
    let log2 = Rc::clone(&served_by);
    sim.spawn_on(s2.sim_node, "fast-server", move |ctx| loop {
        let req = srv2.getreq(ctx);
        ctx.sleep(Duration::from_millis(1));
        log2.borrow_mut().push("s2");
        srv2.putrep(&req, vec![2]);
    });
    // Two clients: the first occupies s1 (or s2); the second must end up on
    // the free server rather than queueing.
    let c1 = host(&sim, &net, "c1");
    let c2 = host(&sim, &net, "c2");
    let cl1 = RpcClient::new(&c1.node);
    let cl2 = RpcClient::new(&c2.node);
    let o1 = sim.spawn("c1", move |ctx| cl1.trans(ctx, service, vec![0]).unwrap());
    let o2 = sim.spawn("c2", move |ctx| {
        ctx.sleep(Duration::from_millis(5)); // let c1 claim a server first
        cl2.trans(ctx, service, vec![0]).unwrap()
    });
    sim.run_for(Duration::from_secs(3));
    let r1 = o1.take().unwrap();
    let r2 = o2.take().unwrap();
    // Both completed, on *different* servers.
    assert_ne!(r1, r2, "clients should have been spread across servers");
}

/// A server with one thread that takes `delay` over every request and
/// answers with its own host address; `handled` counts the requests it
/// took.
fn slow_server(sim: &Simulation, h: &Host, service: Port, delay: Duration) -> Rc<RefCell<u32>> {
    let srv = RpcServer::new(&h.node, service);
    let handled = Rc::new(RefCell::new(0));
    let count = Rc::clone(&handled);
    sim.spawn_on(h.sim_node, "slow-server", move |ctx| loop {
        let req = srv.getreq(ctx);
        *count.borrow_mut() += 1;
        ctx.sleep(delay);
        srv.putrep(&req, srv.addr().0.to_le_bytes().to_vec());
    });
    handled
}

fn server_of(reply: &Payload) -> HostAddr {
    HostAddr(u32::from_le_bytes(reply.as_slice().try_into().unwrap()))
}

/// `trans` and the simulated time it took.
fn timed_trans(
    ctx: &Ctx,
    client: &RpcClient,
    service: Port,
) -> (Result<Payload, RpcError>, Duration) {
    let start = ctx.now();
    let r = client.trans(ctx, service, vec![0]);
    (r, ctx.now().saturating_since(start))
}

fn counter(tele: &Telemetry, name: &str) -> u64 {
    tele.metrics().counters.get(name).copied().unwrap_or(0)
}

/// A reply 800 ms after the send: each enquiry, 200 ms after the last
/// word, finds the request held by a thread, so the client waits
/// instead of resending.
#[test]
fn a_server_that_takes_800_ms_is_handled_once_and_stays_cached() {
    let mut sim = Simulation::new(5);
    let tele = Telemetry::install(&sim.handle());
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("slow");
    let s = host(&sim, &net, "server");
    let handled = slow_server(&sim, &s, service, Duration::from_millis(800));
    let c = host(&sim, &net, "client");
    let client = RpcClient::new(&c.node);
    let node = c.node.clone();
    let out = sim.spawn("client", move |ctx| {
        let (r, took) = timed_trans(ctx, &client, service);
        (r.is_ok(), took, node.cached_servers(service))
    });
    sim.run_for(Duration::from_secs(5));
    let (ok, took, cached) = out.take().unwrap();
    assert!(ok);
    assert!(took < Duration::from_millis(850), "{took:?}");
    assert_eq!(*handled.borrow_mut(), 1, "handled exactly once");
    assert_eq!(cached, [s.node.addr()], "a slow server stays cached");
    assert_eq!(counter(&tele, "rpc.enquiries"), 3);
    assert_eq!(counter(&tele, "rpc.working"), 3);
    assert_eq!(counter(&tele, "rpc.silences"), 0);
}

/// A crashed server's kernel answers no enquiry: the client enquires
/// 200 ms after the send, again when the 60 ms window passes, and
/// abandons the server when the second window passes, 320 ms after the
/// send. The next server answers.
#[test]
fn a_crashed_server_is_abandoned_after_two_unanswered_enquiries() {
    let mut sim = Simulation::new(3);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("echo");
    let servers: Vec<Host> = (0..2).map(|i| host(&sim, &net, &format!("s{i}"))).collect();
    for s in &servers {
        slow_server(&sim, s, service, Duration::from_millis(1));
    }
    let machines: Vec<(HostAddr, NodeId)> = servers
        .iter()
        .map(|s| (s.node.addr(), s.sim_node))
        .collect();
    let c = host(&sim, &net, "client");
    let client = RpcClient::new(&c.node);
    let node = c.node.clone();
    let out = sim.spawn("client", move |ctx| {
        let first = server_of(&client.trans(ctx, service, vec![0]).unwrap());
        ctx.sleep(Duration::from_millis(100));
        // Crash the server that answered: it is first in the cache.
        let &(_, sim_node) = machines.iter().find(|(a, _)| *a == first).unwrap();
        net.set_down(first);
        ctx.crash_node(sim_node);
        let (r, took) = timed_trans(ctx, &client, service);
        (
            first,
            server_of(&r.unwrap()),
            took,
            node.cached_servers(service),
        )
    });
    sim.run_for(Duration::from_secs(5));
    let (crashed, served_by, took, cached) = out.take().unwrap();
    assert_ne!(served_by, crashed);
    assert!(took >= Duration::from_millis(320), "{took:?}");
    assert!(took < Duration::from_millis(340), "{took:?}");
    assert_eq!(cached, [served_by], "the silent server is evicted");
}

/// One lost answer is not silence: a live server cut off from the
/// client for its first enquiry's window answers the second, stays
/// cached and handles the call once. (The host is isolated, not set
/// down: a host set down forgets its ports, as a crashed one does.)
#[test]
fn a_live_server_whose_first_enquiry_answer_is_lost_stays_cached() {
    let mut sim = Simulation::new(17);
    let tele = Telemetry::install(&sim.handle());
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("slow");
    let s = host(&sim, &net, "server");
    let handled = slow_server(&sim, &s, service, Duration::from_millis(300));
    let c = host(&sim, &net, "client");
    let client = RpcClient::new(&c.node);
    let node = c.node.clone();
    let probe = tele.clone();
    // A first call locates the server; the second is sent at 1 s, so
    // its first enquiry goes at 1.2 s and its window ends at 1.26 s.
    let sent = amoeba_sim::SimTime::from_millis(1_000);
    let out = sim.spawn("client", move |ctx| {
        client.trans(ctx, service, vec![0]).unwrap();
        ctx.sleep_until(sent);
        let enquiries = counter(&probe, "rpc.enquiries");
        let working = counter(&probe, "rpc.working");
        let (r, took) = timed_trans(ctx, &client, service);
        (
            r.is_ok(),
            took,
            node.cached_servers(service),
            counter(&probe, "rpc.enquiries") - enquiries,
            counter(&probe, "rpc.working") - working,
        )
    });
    let server = s.node.addr();
    sim.spawn("chaos", move |ctx| {
        ctx.sleep_until(sent + Duration::from_millis(190));
        net.isolate(&[server]);
        ctx.sleep_until(sent + Duration::from_millis(255));
        net.heal();
    });
    sim.run_for(Duration::from_secs(5));
    let (ok, took, cached, enquiries, working) = out.take().unwrap();
    assert!(ok);
    assert!(took < Duration::from_millis(350), "{took:?}");
    assert_eq!(*handled.borrow_mut(), 2, "the second call handled once");
    assert_eq!(cached, [server], "a live server stays cached");
    assert_eq!((enquiries, working), (2, 1), "the first answer was lost");
    assert_eq!(counter(&tele, "rpc.silences"), 0);
}

/// A kernel that answers every enquiry with `Working` keeps the attempt
/// alive until 2 × `reply_timeout` after the send, and no longer.
#[test]
fn a_server_that_answers_working_forever_is_abandoned_within_two_reply_timeouts() {
    let mut sim = Simulation::new(9);
    let tele = Telemetry::install(&sim.handle());
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("stuck");
    let s = host(&sim, &net, "server");
    slow_server(&sim, &s, service, Duration::from_secs(3_600));
    let c = host(&sim, &net, "client");
    let params = RpcParams {
        max_attempts: 1,
        ..Default::default()
    };
    let reply_timeout = params.reply_timeout;
    let client = RpcClient::with_params(&c.node, params);
    let out = sim.spawn("client", move |ctx| timed_trans(ctx, &client, service));
    sim.run_for(Duration::from_secs(10));
    let (r, took) = out.take().unwrap();
    assert!(matches!(r, Err(RpcError::Unreachable { attempts: 1, .. })));
    // The locate and its dither come before the send.
    assert!(took >= 2 * reply_timeout, "{took:?}");
    assert!(
        took < 2 * reply_timeout + Duration::from_millis(20),
        "{took:?}"
    );
    assert_eq!(counter(&tele, "rpc.enquiries"), 4);
    assert_eq!(counter(&tele, "rpc.working"), 4);
    assert_eq!(counter(&tele, "rpc.silences"), 1);
}

/// NOTHERE is a load-spreading hint: the busy server is demoted, not
/// evicted, and the client tries the next cached server before it
/// broadcasts a locate.
#[test]
fn after_nothere_the_refuser_stays_cached_and_the_next_server_is_tried_before_a_locate() {
    let mut sim = Simulation::new(13);
    let tele = Telemetry::install(&sim.handle());
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("busy");
    let servers: Vec<Host> = (0..2).map(|i| host(&sim, &net, &format!("s{i}"))).collect();
    for s in &servers {
        slow_server(&sim, s, service, Duration::from_millis(300));
    }
    let c = host(&sim, &net, "client");
    let hog = RpcClient::new(&c.node);
    let caller = hog.clone();
    let node = c.node.clone();
    let probe = tele.clone();
    // The hog's call locates (caching both servers) and then holds the
    // first cached server's only thread for 300 ms.
    sim.spawn("hog", move |ctx| hog.trans(ctx, service, vec![0]).unwrap());
    let out = sim.spawn("caller", move |ctx| {
        ctx.sleep(Duration::from_millis(100));
        let before = node.cached_servers(service);
        let locates = counter(&probe, "rpc.locates");
        let reply = caller.trans(ctx, service, vec![0]).unwrap();
        let after = node.cached_servers(service);
        (
            before,
            server_of(&reply),
            after,
            counter(&probe, "rpc.locates") - locates,
        )
    });
    sim.run_for(Duration::from_secs(3));
    let (before, served_by, after, locates) = out.take().unwrap();
    assert_eq!(before.len(), 2, "the hog's locate cached both servers");
    assert_eq!(served_by, before[1], "the next cached server answered");
    assert_eq!(
        after,
        [before[1], before[0]],
        "the refuser is demoted, not evicted"
    );
    assert_eq!(locates, 0, "no locate while a cached server was untried");
    assert_eq!(counter(&tele, "rpc.nothere"), 1);
}

/// `Unreachable` reports the attempts made: here each is one locate
/// that times out.
#[test]
fn trans_fails_cleanly_when_no_server_exists() {
    let mut sim = Simulation::new(1);
    let tele = Telemetry::install(&sim.handle());
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let c = host(&sim, &net, "client");
    let params = RpcParams {
        max_attempts: 3,
        ..Default::default()
    };
    let client = RpcClient::with_params(&c.node, params);
    let ghost = Port::from_name("ghost");
    let out = sim.spawn("client", move |ctx| client.trans(ctx, ghost, vec![]));
    sim.run_for(Duration::from_secs(5));
    assert_eq!(
        out.take(),
        Some(Err(RpcError::Unreachable {
            service: ghost,
            attempts: 3
        }))
    );
    assert_eq!(counter(&tele, "rpc.locates"), 3);
    assert_eq!(counter(&tele, "rpc.locate_timeouts"), 3);
}

#[test]
fn client_fails_over_when_server_crashes() {
    let mut sim = Simulation::new(3);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("echo");
    let s1 = host(&sim, &net, "s1");
    let s2 = host(&sim, &net, "s2");
    echo_server(&sim, &s1, service);
    echo_server(&sim, &s2, service);
    let c = host(&sim, &net, "client");
    let client = RpcClient::new(&c.node);
    let out = sim.spawn("client", move |ctx| {
        let a = client.trans(ctx, service, vec![1]).is_ok();
        ctx.sleep(Duration::from_millis(500));
        let b = client.trans(ctx, service, vec![2]).is_ok();
        (a, b)
    });
    // Crash s1 shortly after the first transaction; mark it down in the
    // network too (machine crash = NIC silent).
    let crash_at = Duration::from_millis(100);
    let s1_addr = s1.node.addr();
    let s1_sim = s1.sim_node;
    let net2 = net.clone();
    sim.spawn("chaos", move |ctx| {
        ctx.sleep(crash_at);
        net2.set_down(s1_addr);
        ctx.crash_node(s1_sim);
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(out.take(), Some((true, true)));
}

#[test]
fn concurrent_clients_all_complete() {
    let mut sim = Simulation::new(11);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 2);
    let service = Port::from_name("echo");
    for i in 0..2 {
        let s = host(&sim, &net, &format!("s{i}"));
        // Two threads per server.
        let srv = RpcServer::new(&s.node, service);
        for t in 0..2 {
            let srv = srv.clone();
            sim.spawn_on(s.sim_node, &format!("srv{i}t{t}"), move |ctx| loop {
                let req = srv.getreq(ctx);
                ctx.sleep(Duration::from_millis(2));
                srv.putrep(&req, req.data.clone());
            });
        }
    }
    let mut outs = Vec::new();
    for i in 0..6 {
        let c = host(&sim, &net, &format!("c{i}"));
        let client = RpcClient::new(&c.node);
        outs.push(sim.spawn(&format!("client{i}"), move |ctx| {
            let mut ok = 0;
            for k in 0..20u8 {
                if client.trans(ctx, service, vec![k]) == Ok(amoeba_flip::Payload::from(vec![k])) {
                    ok += 1;
                }
            }
            ok
        }));
    }
    sim.run_for(Duration::from_secs(30));
    for o in outs {
        assert_eq!(o.take(), Some(20));
    }
}

#[test]
fn expanding_ring_locate_finds_servers_across_segments() {
    use amoeba_flip::{SegmentId, Topology};
    // Client on net-a, the only server on net-c of a 3-segment chain:
    // the ring must widen past two routers before the locate succeeds,
    // and the subsequent request/reply unicasts are routed.
    let mut sim = Simulation::new(0x51E6);
    let net = Network::with_topology(
        sim.handle(),
        NetParams::lan_10mbps(),
        Topology::chain(3),
        0x51E6,
    );
    let service = Port::from_name("far-echo");
    let s_node = sim.add_node("server");
    let s_stack = net.attach_to(SegmentId(2));
    let s = Host {
        node: RpcNode::start(s_node, s_stack.clone()),
        sim_node: s_node,
        stack: s_stack,
    };
    echo_server(&sim, &s, service);
    let c_node = sim.add_node("client");
    let c_stack = net.attach_to(SegmentId(0));
    let c = RpcClient::new(&RpcNode::start(c_node, c_stack));
    let out = sim.spawn("client", move |ctx| {
        c.trans(ctx, service, vec![1, 2, 3])
            .ok()
            .map(|p| p.to_vec())
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(out.take(), Some(Some(vec![3, 2, 1])));
    let st = net.stats();
    assert!(
        st.packets_forwarded >= 4,
        "locate + HEREIS + request + reply all cross two routers (saw {})",
        st.packets_forwarded
    );
    // The TTL-1 first ring died at the first router and was counted.
    assert!(st.dropped_ttl > 0, "the narrow rings must expire en route");
}

#[test]
fn locate_on_unreachable_segment_fails_cleanly() {
    use amoeba_flip::{SegmentId, Topology};
    // Two segments with NO router: the server is unreachable and trans
    // must give up with Unreachable instead of hanging.
    let mut topo = Topology::new();
    topo.add_segment("a");
    topo.add_segment("b");
    let mut sim = Simulation::new(0x0FF);
    let net = Network::with_topology(sim.handle(), NetParams::lan_10mbps(), topo, 1);
    let service = Port::from_name("island");
    let s_node = sim.add_node("server");
    let s_stack = net.attach_to(SegmentId(1));
    let s = Host {
        node: RpcNode::start(s_node, s_stack.clone()),
        sim_node: s_node,
        stack: s_stack,
    };
    echo_server(&sim, &s, service);
    let c_node = sim.add_node("client");
    let c_stack = net.attach_to(SegmentId(0));
    let params = RpcParams {
        max_attempts: 5,
        ..Default::default()
    };
    let c = RpcClient::with_params(&RpcNode::start(c_node, c_stack), params);
    let out = sim.spawn("client", move |ctx| c.trans(ctx, service, vec![9]).is_err());
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true), "unreachable service must error");
}
