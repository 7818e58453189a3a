//! The simulator kernel's hand-off accounting, its crash edges and its
//! kernel handlers, as seen through the umbrella crate (tier-1 runs only
//! this package; the full set lives in
//! `crates/sim/tests/kernel_behavior.rs`). The coroutine tests, the id
//! hasher's, the delivery-order property, the kept reply mailbox's and
//! the per-process trace context are compiled in whole from their
//! crates.

#[path = "../crates/sim/tests/coroutines.rs"]
mod coroutines;

#[path = "../crates/sim/tests/id_hasher.rs"]
mod id_hasher;

#[path = "../crates/sim/tests/delivery_order.rs"]
mod delivery_order;

#[path = "../crates/sim/tests/reply_mailbox.rs"]
mod reply_mailbox;

#[path = "../crates/telemetry/tests/ambient_context.rs"]
mod ambient_context;

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Duration;

use amoeba_dirsvc::sim::{SimTime, Simulation};

const MS: Duration = Duration::from_millis(1);

#[test]
fn a_process_that_wakes_itself_makes_no_handoff() {
    let mut sim = Simulation::new(1);
    sim.spawn("sleeper", |ctx| {
        for _ in 0..1_000 {
            ctx.sleep(MS);
        }
    });
    let stats = sim.run();
    // Driver → sleeper at its start, sleeper → driver at quiescence.
    assert_eq!((stats.events, stats.handoffs), (1_001, 2));
}

#[test]
fn ping_pong_makes_one_handoff_per_message() {
    let handoffs = |rounds: u64| {
        let mut sim = Simulation::new(1);
        let (to_b, b_rx) = sim.channel::<u64>();
        let (to_a, a_rx) = sim.channel::<u64>();
        sim.spawn("a", move |ctx| {
            for i in 0..rounds {
                to_b.send(i);
                assert_eq!(a_rx.recv(ctx), i);
            }
        });
        sim.spawn("b", move |ctx| {
            for _ in 0..rounds {
                to_a.send(b_rx.recv(ctx));
            }
        });
        sim.run().handoffs
    };
    assert_eq!(handoffs(1_100) - handoffs(100), 2 * 1_000);
}

/// Set when dropped: the process's stack was unwound, or its closure
/// dropped unrun, by the time `run` returns.
struct Unwound(Rc<Cell<bool>>);

impl Drop for Unwound {
    fn drop(&mut self) {
        self.0.set(true);
    }
}

#[test]
fn crashed_processes_end_running_parked_or_unstarted() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let flags: Vec<_> = (0..3).map(|_| Rc::new(Cell::new(false))).collect();
    let mut guards = flags.iter().map(|f| Unwound(Rc::clone(f)));
    let (running, parked, unstarted) = (
        guards.next().unwrap(),
        guards.next().unwrap(),
        guards.next().unwrap(),
    );

    let (_tx, rx) = sim.channel::<u8>();
    let parked = sim.spawn_on(node, "parked", move |ctx| {
        let _guard = parked;
        rx.recv(ctx)
    });
    let running = sim.spawn_on(node, "running", move |ctx| {
        let _guard = running;
        ctx.sleep(MS);
        // Spawned and killed in the same instant: never activated.
        ctx.spawn("unstarted", move |_ctx| {
            let _guard = unstarted;
            unreachable!("killed before its first activation");
        });
        ctx.crash_node(node);
        unreachable!("crash_node of one's own node does not return");
    });
    let bystander = sim.spawn("bystander", |ctx| {
        ctx.sleep(5 * MS);
        ctx.now()
    });
    sim.run();
    assert!(flags.iter().all(|f| f.get()));
    assert_eq!((parked.take(), running.take()), (None, None));
    assert_eq!(bystander.take(), Some(SimTime::from_millis(5)));
}

#[test]
fn a_handler_panic_reaches_run_under_its_own_name_whoever_dispatched_it() {
    // Dispatched by a process inside its `sleep`, then by one that has
    // returned (its final yield): neither is blamed, neither wedges.
    for leaves in [false, true] {
        let err = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulation::new(1);
            let node = sim.add_node("n");
            let (tx, rx) = sim.channel::<u8>();
            sim.handle()
                .handler(node, "bomb", rx, |v| panic!("boom {v}"));
            sim.spawn("bystander", move |ctx| {
                tx.send_after(MS, 7);
                if !leaves {
                    ctx.sleep(10 * MS);
                }
            });
            sim.run();
        }))
        .expect_err("the panic must reach the caller of run");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("simulated process panicked: handler 'bomb': boom 7")
        );
    }
}

#[test]
fn handlers_die_with_their_node_and_with_the_simulation() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let handle = sim.handle();
    let register = move |name: &str| {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let (tx, rx) = handle.channel::<u32>();
        // Reaches back to the kernel, as a protocol stack's state does.
        let (log, kernel) = (Rc::clone(&seen), handle.clone());
        handle.handler(node, name, rx, move |v| {
            log.borrow_mut().push((v, kernel.now()));
        });
        (tx, seen)
    };
    let (old_tx, old_seen) = register("old");
    old_tx.send_after(MS, 1);
    old_tx.send_after(3 * MS, 2); // in flight across the crash and reboot
    let stats = sim.run_until(SimTime::from_millis(2));
    assert_eq!((stats.handler_calls, stats.handoffs), (1, 0));
    assert_eq!(*old_seen.borrow_mut(), [(1, SimTime::from_millis(1))]);

    let old_state = Rc::downgrade(&old_seen);
    drop(old_seen);
    sim.crash_node(node);
    assert!(old_state.upgrade().is_none(), "freed with its node");
    sim.revive_node(node);
    let (new_tx, new_seen) = register("new");
    new_tx.send_after(2 * MS, 3);
    old_tx.send(4); // a sender that outlived the crash
    assert_eq!(sim.run().handler_calls, 2);
    assert_eq!(*new_seen.borrow_mut(), [(3, SimTime::from_millis(4))]);

    let new_state = Rc::downgrade(&new_seen);
    drop(new_seen);
    new_tx.send_after(Duration::from_secs(3600), 5); // still queued
    drop(sim);
    assert!(new_state.upgrade().is_none(), "freed with the simulation");
}

/// The activation table of a null RPC (two machines, one server thread,
/// null requests and replies): per call each thread is woken once, by
/// the other, and each machine's RPC kernel is called once per packet —
/// no dispatcher process anywhere.
#[test]
fn the_activation_table_of_a_null_rpc() {
    use amoeba_dirsvc::flip::{NetParams, Network, Port};
    use amoeba_dirsvc::rpc::{RpcClient, RpcNode, RpcServer};
    use amoeba_dirsvc::sim::Activations;
    const CALLS: u64 = 1_000;
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let service = Port::from_name("null");
    let nodes = ["server", "client"].map(|name| {
        let sim_node = sim.add_node(name);
        (sim_node, RpcNode::start(sim_node, net.attach()))
    });
    let server = RpcServer::new(&nodes[0].1, service);
    sim.spawn_on(nodes[0].0, "null-server", move |ctx| loop {
        let req = server.getreq(ctx);
        server.putrep(&req, Vec::new());
    });
    let client = RpcClient::new(&nodes[1].1);
    let start = SimTime::from_secs(5);
    let done = sim.spawn_on(nodes[1].0, "caller", move |ctx| {
        // The locate, and the port cache filled.
        client
            .trans(ctx, service, Vec::new())
            .expect("warm-up call");
        ctx.sleep_until(start);
        for _ in 0..CALLS {
            client.trans(ctx, service, Vec::new()).expect("null call");
        }
    });
    sim.run_until(SimTime::from_secs(4));
    let before = sim.activations();
    sim.run();
    assert!(done.is_ready(), "every call returned");
    let during: Vec<Activations> = sim
        .activations()
        .into_iter()
        .zip(before)
        .map(|(after, before)| {
            assert_eq!(after.name, before.name);
            let minus = |a: [u64; 4], b: [u64; 4]| [0, 1, 2, 3].map(|i| a[i] - b[i]);
            Activations {
                resumes: minus(after.resumes, before.resumes),
                handoffs_in: minus(after.handoffs_in, before.handoffs_in),
                handler_calls: after.handler_calls - before.handler_calls,
                ..after
            }
        })
        .collect();
    let row = |name: &str, resumes, handoffs_in, handler_calls| Activations {
        name: name.to_owned(),
        resumes,
        handoffs_in,
        handler_calls,
    };
    assert_eq!(
        during,
        [
            // Its sleep until `start` ends on the driver's dispatch.
            row("caller", [0, 1, CALLS, 0], [0, 1, CALLS, 0], 0),
            row("null-server", [0, 0, CALLS, 0], [0, 0, CALLS, 0], 0),
            row("rpc@host:0", [0; 4], [0; 4], CALLS),
            row("rpc@host:1", [0; 4], [0; 4], CALLS),
        ]
    );
}

/// An ordered group send (three members, the sender not the sequencer,
/// every member taking each message off) wakes the sender and the three
/// receivers once each: the three group kernels, their ticks included,
/// wake no one. A dispatcher process anywhere on the path would raise it.
#[test]
fn an_ordered_group_send_makes_four_handoffs() {
    use amoeba_dirsvc::flip::{NetParams, Network, Port};
    use amoeba_dirsvc::group::{GroupConfig, GroupEvent, GroupPeer};
    const SENDS: u64 = 1_000;
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let port = Port::from_name("micro-group");
    // The group is formed, and the sender asleep until `start`, well
    // before the window opens.
    let (warm, start) = (SimTime::from_secs(4), SimTime::from_secs(5));
    let members = [0, 1, 2u64].map(|i| {
        let sim_node = sim.add_node(&format!("m{i}"));
        let peer = GroupPeer::start(&sim, sim_node, net.attach(), GroupConfig::lan());
        sim.spawn_on(sim_node, &format!("member{i}"), move |ctx| {
            let g = Rc::new(if i == 0 {
                peer.create(port, i)
            } else {
                ctx.sleep(10 * MS * i as u32);
                peer.join(ctx, port, i, Duration::from_secs(5))
                    .expect("join")
            });
            while g.info().expect("a member").view.len() < 3 {
                ctx.sleep(5 * MS);
            }
            if i == 1 {
                let g = Rc::clone(&g);
                ctx.spawn("sender", move |ctx| {
                    ctx.sleep_until(start);
                    for _ in 0..SENDS {
                        g.send(ctx, vec![0xA5u8; 64]).expect("ordered send");
                    }
                });
            }
            let mut got = 0;
            while got < SENDS {
                if let Ok(GroupEvent::Message { .. }) = g.recv(ctx) {
                    got += 1;
                }
            }
        })
    });
    let before = sim.run_until(warm);
    let after = sim.run_until(SimTime::from_secs(60));
    assert!(
        members.iter().all(|m| m.is_ready()),
        "every member got every message"
    );
    // Plus the driver's hand-off to the sender and the one back.
    assert_eq!(after.handoffs - before.handoffs, 4 * SENDS + 2);
}

/// A wait that a message ends takes its deadline out of the queue with
/// it: request/reply exchanges whose replies beat an hour-long deadline
/// cost their two deliveries each, and nothing pops an hour later.
#[test]
fn an_answered_wait_leaves_no_timer_event() {
    const ROUNDS: u64 = 1_000;
    let mut sim = Simulation::new(1);
    let (to_server, requests) = sim.channel::<u64>();
    let (to_client, replies) = sim.channel::<u64>();
    sim.spawn("client", move |ctx| {
        for i in 0..ROUNDS {
            to_server.send(i);
            let reply = replies.recv_timeout(ctx, Duration::from_secs(3_600));
            assert_eq!(reply, Some(i));
        }
    });
    sim.spawn("server", move |ctx| {
        for _ in 0..ROUNDS {
            to_client.send(requests.recv(ctx));
        }
    });
    let stats = sim.run();
    // The two starts, then each exchange's request and reply.
    assert_eq!(stats.events, 2 + 2 * ROUNDS);
    assert_eq!(stats.end_time, SimTime::ZERO, "no deadline popped");
}

/// A locate is delivered only to a host that serves what it seeks. On a
/// flat network of one server and eight client hosts, one call's locate
/// reaches all nine hosts (the caller's own included) and is charged at
/// each, but it calls the server's RPC kernel alone; the caller's kernel
/// is called for the HEREIS and the reply, the server's for the request.
#[test]
fn a_locate_calls_only_the_kernel_of_the_host_that_serves_it() {
    use amoeba_dirsvc::flip::{NetParams, Network, Port};
    use amoeba_dirsvc::rpc::{RpcClient, RpcNode, RpcServer};
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let service = Port::from_name("located");
    let nodes: Vec<_> = (0..9)
        .map(|i| {
            let sim_node = sim.add_node(&format!("h{i}"));
            (sim_node, RpcNode::start(sim_node, net.attach()))
        })
        .collect();
    let server = RpcServer::new(&nodes[0].1, service);
    sim.spawn_on(nodes[0].0, "server", move |ctx| loop {
        let req = server.getreq(ctx);
        server.putrep(&req, Vec::new());
    });
    let client = RpcClient::new(&nodes[1].1);
    let done = sim.spawn_on(nodes[1].0, "caller", move |ctx| {
        client.trans(ctx, service, Vec::new()).is_ok()
    });
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(done.take(), Some(true), "the call was answered");
    let calls: Vec<(String, u64)> = (sim.activations().into_iter())
        .filter(|row| row.name.starts_with("rpc@"))
        .map(|row| (row.name, row.handler_calls))
        .collect();
    let expected: Vec<(String, u64)> = (0..9)
        .map(|h| (format!("rpc@host:{h}"), if h < 2 { 2 } else { 0 }))
        .collect();
    assert_eq!(calls, expected);
    let stats = net.stats();
    assert_eq!(stats.broadcast_sent, 1);
    // Nine receives of the locate, then the HEREIS, request and reply.
    assert_eq!((stats.deliveries, stats.locates_unheard), (9 + 3, 8));
}

/// A quiet replica wakes only for the upkeep its storage kind asks for:
/// over ten quiet simulated seconds of the group directory service, an
/// in-place replica resumes no `rsm#-main` for a timeout and runs no
/// upkeep process; a journaled one sets no idle timer either, but its
/// `rsm#-checkpoint` sleeps a checkpoint interval (250 ms) after each
/// checkpoint, and a checkpoint over an empty log writes nothing, so it
/// wakes 40 times; an NVRAM one wakes its
/// `rsm#-main` every `idle_flush` (200 ms) to flush.
#[test]
fn a_quiet_replica_wakes_only_for_its_storage_upkeep() {
    use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
    use amoeba_dirsvc::dir::StorageKind;
    let resumes = |sim: &Simulation, suffix: &str, reason: usize| -> Vec<u64> {
        (sim.activations().into_iter())
            .filter(|row| row.name.starts_with("rsm") && row.name.ends_with(suffix))
            .map(|row| row.resumes[reason])
            .collect()
    };
    let mut journaled = ClusterParams::paper(Variant::Group);
    journaled.dir.storage = StorageKind::journal();
    for (params, idle_wakes, checkpoints) in [
        (ClusterParams::paper(Variant::Group), [0; 3], vec![]),
        (journaled, [0; 3], vec![40; 3]),
        (ClusterParams::paper(Variant::GroupNvram), [50; 3], vec![]),
    ] {
        let storage = params.dir.storage;
        let mut sim = Simulation::new(1);
        let cluster = Cluster::start(&sim, params);
        sim.run_for(Duration::from_secs(5));
        assert!((0..3).all(|i| cluster.group_server(i).is_normal()));
        let during = |before: Vec<u64>, after: Vec<u64>| -> Vec<u64> {
            (after.iter().zip(&before)).map(|(a, b)| a - b).collect()
        };
        let (main, ckpt) = (resumes(&sim, "-main", 3), resumes(&sim, "-checkpoint", 1));
        sim.run_for(Duration::from_secs(10));
        assert_eq!(
            during(main, resumes(&sim, "-main", 3)),
            idle_wakes,
            "{storage:?}"
        );
        let ckpt = during(ckpt, resumes(&sim, "-checkpoint", 1));
        assert_eq!(ckpt, checkpoints, "{storage:?}");
    }
}
