//! End-to-end group communication over the simulated network: total order,
//! resilience, membership, crash recovery, partitions.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use amoeba_flip::{NetParams, Network, Port};
use amoeba_group::{Group, GroupConfig, GroupError, GroupEvent, GroupPeer};
use amoeba_sim::{NodeId, Simulation};

struct Machine {
    peer: GroupPeer,
    sim_node: NodeId,
    host: amoeba_flip::HostAddr,
}

fn machine(sim: &Simulation, net: &Network, name: &str, cfg: &GroupConfig) -> Machine {
    let sim_node = sim.add_node(name);
    let stack = net.attach();
    let host = stack.addr();
    let peer = GroupPeer::start(sim, sim_node, stack, cfg.clone());
    Machine {
        peer,
        sim_node,
        host,
    }
}

/// Spawns `n` machines; machine 0 creates the group, the rest join at
/// staggered times. Each runs `body(i, group, ctx)`.
fn run_members<F, R>(
    sim: &Simulation,
    net: &Network,
    cfg: &GroupConfig,
    n: usize,
    body: F,
) -> Vec<amoeba_sim::ProcOutput<R>>
where
    F: Fn(usize, Group, &amoeba_sim::Ctx) -> R + Clone + 'static,
    R: 'static,
{
    let port = Port::from_name("test-group");
    let mut outs = Vec::new();
    for i in 0..n {
        let m = machine(sim, net, &format!("m{i}"), cfg);
        let peer = m.peer.clone();
        let body = body.clone();
        outs.push(sim.spawn_on(m.sim_node, &format!("app{i}"), move |ctx| {
            if i == 0 {
                let g = peer.create(port, i as u64);
                body(i, g, ctx)
            } else {
                // Stagger joins so the creator exists first.
                ctx.sleep(Duration::from_millis(10 * i as u64));
                let g = peer
                    .join(ctx, port, i as u64, Duration::from_secs(2))
                    .expect("join failed");
                body(i, g, ctx)
            }
        }));
    }
    outs
}

fn cfg_r(r: u32) -> GroupConfig {
    GroupConfig::with_resilience(r)
}

#[test]
fn all_members_see_same_total_order() {
    let mut sim = Simulation::new(42);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let n = 3;
    let sends_per_member = 10u8;
    let outs = run_members(&sim, &net, &cfg_r(2), n, move |i, g, ctx| {
        // Joiners only see events after their join, so wait for full
        // membership before sending (virtual synchrony).
        while g.info().unwrap().view.len() < 3 {
            ctx.sleep(Duration::from_millis(5));
        }
        // Everyone sends concurrently and collects what it receives.
        let sender_g = Rc::new(g);
        let mut log: Vec<(u64, amoeba_flip::Payload)> = Vec::new();
        // Interleave sends and receives in one process: send all, then
        // drain until we have n * sends_per_member messages.
        for k in 0..sends_per_member {
            sender_g
                .send(ctx, vec![i as u8, k])
                .expect("send must succeed");
        }
        let expected = 3 * sends_per_member as usize;
        while log.iter().filter(|(_, d)| d.len() == 2).count() < expected {
            match sender_g.recv(ctx) {
                Ok(GroupEvent::Message { seq, data, .. }) => log.push((seq, data)),
                Ok(_) => continue,
                Err(e) => panic!("member {i}: unexpected group error {e}"),
            }
        }
        log
    });
    sim.run_for(Duration::from_secs(30));
    let logs: Vec<_> = outs
        .iter()
        .map(|o| o.take().expect("member finished"))
        .collect();
    // Every member delivered the same messages in the same seq order.
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
    // Sequence numbers strictly increase.
    for log in &logs {
        for w in log.windows(2) {
            assert!(w[0].0 < w[1].0, "seqnos must increase: {w:?}");
        }
    }
}

#[test]
fn send_with_r2_takes_five_packets() {
    // §3.1: one SendToGroup with r=2 in a 3-member group costs 5 packets
    // (request + accept multicast + 2 acks + done). Heartbeats are pushed
    // out of the measurement window.
    let mut sim = Simulation::new(7);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let mut cfg = cfg_r(2);
    cfg.heartbeat_interval = Duration::from_secs(60);
    cfg.failure_timeout = Duration::from_secs(300);
    let counted = Rc::new(RefCell::new(None::<u64>));
    let counted2 = Rc::clone(&counted);
    let net2 = net.clone();
    let outs = run_members(&sim, &net, &cfg, 3, move |i, g, ctx| {
        if i == 1 {
            // A non-sequencer member sends once, after membership settles.
            ctx.sleep(Duration::from_millis(200));
            let before = net2.stats().packets_sent;
            g.send(ctx, vec![9, 9, 9]).unwrap();
            let after = net2.stats().packets_sent;
            *counted2.borrow_mut() = Some(after - before);
        } else {
            // Others must drain their queues so acks flow.
            loop {
                if g.recv_timeout(ctx, Duration::from_secs(1)).is_none() {
                    break;
                }
            }
        }
    });
    sim.run_for(Duration::from_secs(5));
    let _ = outs;
    assert_eq!(
        counted.borrow_mut().unwrap_or(0),
        5,
        "PB send with r=2 costs 5 packets"
    );
}

#[test]
fn membership_events_are_ordered_and_visible() {
    let mut sim = Simulation::new(5);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let outs = run_members(&sim, &net, &cfg_r(0), 3, move |i, g, ctx| {
        if i == 0 {
            let mut joins = 0;
            while joins < 2 {
                if let Ok(GroupEvent::Joined { .. }) = g.recv(ctx) {
                    joins += 1;
                }
            }
            let info = g.info().unwrap();
            (
                info.view.len(),
                info.view.members.iter().map(|m| m.tag).collect::<Vec<_>>(),
            )
        } else {
            ctx.sleep(Duration::from_millis(300));
            let info = g.info().unwrap();
            (
                info.view.len(),
                info.view.members.iter().map(|m| m.tag).collect::<Vec<_>>(),
            )
        }
    });
    sim.run_for(Duration::from_secs(5));
    for o in outs {
        let (len, tags) = o.take().unwrap();
        assert_eq!(len, 3);
        assert_eq!(tags, vec![0, 1, 2], "tags in member-id order");
    }
}

#[test]
fn crash_of_member_fails_group_and_reset_rebuilds_majority() {
    let mut sim = Simulation::new(13);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let cfg = cfg_r(2);
    let port = Port::from_name("test-group");
    let machines: Vec<Machine> = (0..3)
        .map(|i| machine(&sim, &net, &format!("m{i}"), &cfg))
        .collect();
    let crash_host = machines[2].host;
    let crash_node = machines[2].sim_node;

    let mut outs = Vec::new();
    for (i, m) in machines.iter().enumerate() {
        let peer = m.peer.clone();
        outs.push(sim.spawn_on(m.sim_node, &format!("app{i}"), move |ctx| {
            let g = if i == 0 {
                peer.create(port, i as u64)
            } else {
                ctx.sleep(Duration::from_millis(10 * i as u64));
                peer.join(ctx, port, i as u64, Duration::from_secs(2))
                    .unwrap()
            };
            // Run the Fig. 5 group-thread loop: receive until failure, then
            // reset with majority (2 of 3).
            let mut resets = 0;
            let mut received = Vec::new();
            loop {
                match g.recv_timeout(ctx, Duration::from_secs(3)) {
                    Some(Ok(GroupEvent::Message { data, .. })) => received.push(data),
                    Some(Ok(_)) => continue,
                    Some(Err(GroupError::Failed)) => {
                        let info = g.reset(ctx, 2, Duration::from_secs(5)).expect("reset");
                        resets += 1;
                        assert_eq!(info.view.len(), 2, "majority view after crash");
                        // After reset, sends must work again.
                        g.send(ctx, vec![100 + i as u8]).expect("post-reset send");
                    }
                    Some(Err(e)) => panic!("member {i}: {e}"),
                    None => return (resets, received),
                }
            }
        }));
    }
    // Chaos: crash machine 2 after the group settles.
    let net2 = net.clone();
    sim.spawn("chaos", move |ctx| {
        ctx.sleep(Duration::from_millis(500));
        net2.set_down(crash_host);
        ctx.crash_node(crash_node);
    });
    sim.run_for(Duration::from_secs(20));
    for (i, o) in outs.iter().enumerate().take(2) {
        let (resets, received) = o.take().expect("survivor finished");
        assert_eq!(resets, 1, "member {i} reset once");
        // Both survivors saw both post-reset messages, in the same order.
        assert!(
            received.iter().any(|d| d.as_slice() == [100]),
            "member {i}: {received:?}"
        );
        assert!(
            received.iter().any(|d| d.as_slice() == [101]),
            "member {i}: {received:?}"
        );
    }
    let a = outs[0].take();
    let b = outs[1].take();
    drop((a, b));
}

#[test]
fn minority_partition_cannot_reset_majority_can() {
    let mut sim = Simulation::new(17);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let cfg = cfg_r(2);
    let port = Port::from_name("test-group");
    let machines: Vec<Machine> = (0..3)
        .map(|i| machine(&sim, &net, &format!("m{i}"), &cfg))
        .collect();
    let lone_host = machines[2].host;

    let mut outs = Vec::new();
    for (i, m) in machines.iter().enumerate() {
        let peer = m.peer.clone();
        outs.push(sim.spawn_on(m.sim_node, &format!("app{i}"), move |ctx| {
            let g = if i == 0 {
                peer.create(port, i as u64)
            } else {
                ctx.sleep(Duration::from_millis(10 * i as u64));
                peer.join(ctx, port, i as u64, Duration::from_secs(2))
                    .unwrap()
            };
            loop {
                match g.recv_timeout(ctx, Duration::from_secs(4)) {
                    Some(Ok(_)) => continue,
                    Some(Err(GroupError::Failed)) => {
                        return match g.reset(ctx, 2, Duration::from_secs(3)) {
                            Ok(info) => ("ok", info.view.len()),
                            Err(_) => ("fail", 0),
                        };
                    }
                    Some(Err(_)) => return ("dead", 0),
                    None => return ("quiet", 0),
                }
            }
        }));
    }
    let net2 = net.clone();
    sim.spawn("chaos", move |ctx| {
        ctx.sleep(Duration::from_millis(500));
        net2.isolate(&[lone_host]);
    });
    sim.run_for(Duration::from_secs(30));
    let r0 = outs[0].take().unwrap();
    let r1 = outs[1].take().unwrap();
    let r2 = outs[2].take().unwrap();
    assert_eq!(r0, ("ok", 2), "majority member 0 resets to a 2-view");
    assert_eq!(r1, ("ok", 2), "majority member 1 resets to a 2-view");
    assert_eq!(r2.0, "fail", "minority member cannot reach quorum");
}

#[test]
fn graceful_leave_shrinks_view_everywhere() {
    let mut sim = Simulation::new(23);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let outs = run_members(&sim, &net, &cfg_r(0), 3, move |i, g, ctx| {
        if i == 2 {
            ctx.sleep(Duration::from_millis(300));
            g.leave(ctx);
            0
        } else {
            // Wait for the Left event.
            loop {
                match g.recv_timeout(ctx, Duration::from_secs(2)) {
                    Some(Ok(GroupEvent::Left { member, .. })) => {
                        assert_eq!(member.tag, 2);
                        return g.info().unwrap().view.len();
                    }
                    Some(Ok(_)) => continue,
                    other => panic!("member {i}: unexpected {other:?}"),
                }
            }
        }
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(outs[0].take(), Some(2));
    assert_eq!(outs[1].take(), Some(2));
    assert_eq!(outs[2].take(), Some(0));
}

#[test]
fn sequencer_crash_is_survivable() {
    // Machine 0 (creator = sequencer) dies; the others reset and continue.
    let mut sim = Simulation::new(29);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let cfg = cfg_r(2);
    let port = Port::from_name("test-group");
    let machines: Vec<Machine> = (0..3)
        .map(|i| machine(&sim, &net, &format!("m{i}"), &cfg))
        .collect();
    let seq_host = machines[0].host;
    let seq_node = machines[0].sim_node;
    let mut outs = Vec::new();
    for (i, m) in machines.iter().enumerate() {
        let peer = m.peer.clone();
        outs.push(sim.spawn_on(m.sim_node, &format!("app{i}"), move |ctx| {
            let g = if i == 0 {
                peer.create(port, i as u64)
            } else {
                ctx.sleep(Duration::from_millis(10 * i as u64));
                peer.join(ctx, port, i as u64, Duration::from_secs(2))
                    .unwrap()
            };
            loop {
                match g.recv_timeout(ctx, Duration::from_secs(4)) {
                    Some(Ok(_)) => continue,
                    Some(Err(GroupError::Failed)) => {
                        let info = g.reset(ctx, 2, Duration::from_secs(5)).expect("reset");
                        // The new sequencer sequences new messages fine.
                        let seq = g.send(ctx, vec![i as u8]).expect("send after reset");
                        return (info.view.len(), seq > 0);
                    }
                    Some(Err(e)) => panic!("member {i}: {e}"),
                    None => panic!("member {i}: no failure observed"),
                }
            }
        }));
    }
    let net2 = net.clone();
    sim.spawn("chaos", move |ctx| {
        ctx.sleep(Duration::from_millis(500));
        net2.set_down(seq_host);
        ctx.crash_node(seq_node);
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(outs[1].take(), Some((2, true)));
    assert_eq!(outs[2].take(), Some((2, true)));
}

#[test]
fn total_order_holds_under_packet_loss() {
    let mut sim = Simulation::new(31);
    let net = Network::new(sim.handle(), NetParams::lossy(0.05), 1);
    let n = 3;
    let outs = run_members(&sim, &net, &cfg_r(2), n, move |i, g, ctx| {
        while g.info().unwrap().view.len() < 3 {
            ctx.sleep(Duration::from_millis(5));
        }
        for k in 0..5u8 {
            g.send(ctx, vec![i as u8, k]).expect("send");
        }
        let mut got = Vec::new();
        while got.len() < 15 {
            match g.recv_timeout(ctx, Duration::from_secs(10)) {
                Some(Ok(GroupEvent::Message { seq, data, .. })) => got.push((seq, data)),
                Some(Ok(_)) => continue,
                Some(Err(e)) => panic!("member {i}: {e}"),
                None => panic!("member {i}: stalled with {} msgs", got.len()),
            }
        }
        got
    });
    sim.run_for(Duration::from_secs(60));
    let logs: Vec<_> = outs.iter().map(|o| o.take().expect("finished")).collect();
    assert_eq!(logs[0], logs[1]);
    assert_eq!(logs[1], logs[2]);
}

#[test]
fn big_and_small_messages_share_one_order() {
    let mut sim = Simulation::new(37);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let outs = run_members(&sim, &net, &cfg_r(2), 3, move |i, g, ctx| {
        if i == 1 {
            ctx.sleep(Duration::from_millis(100));
            // Interleave small and large messages: both go through the
            // sequencer.
            g.send(ctx, vec![1u8; 10]).unwrap();
            g.send(ctx, vec![2u8; 5000]).unwrap();
            g.send(ctx, vec![3u8; 10]).unwrap();
        }
        let mut sizes = Vec::new();
        while sizes.len() < 3 {
            match g.recv_timeout(ctx, Duration::from_secs(5)) {
                Some(Ok(GroupEvent::Message { data, .. })) => sizes.push(data.len()),
                Some(Ok(_)) => continue,
                other => panic!("member {i}: unexpected {other:?}"),
            }
        }
        sizes
    });
    sim.run_for(Duration::from_secs(20));
    for o in outs {
        assert_eq!(o.take(), Some(vec![10, 5000, 10]), "send order preserved");
    }
}

#[test]
fn batched_delivery_preserves_total_order_across_crash_and_rejoin() {
    // Concurrent senders drive the sequencer's accept batching; a member
    // crashes mid-stream (group fails, survivors reset) and its host
    // later reboots and rejoins. Every log must agree on the total
    // order, batched or not.
    let mut sim = Simulation::new(77);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 5);
    let cfg = cfg_r(0);
    let port = Port::from_name("test-group");

    type Log = Vec<(u64, amoeba_flip::Payload)>;
    let collect = |g: &Group, ctx: &amoeba_sim::Ctx, log: &mut Log, quiet: Duration| loop {
        match g.recv_timeout(ctx, quiet) {
            Some(Ok(GroupEvent::Message { seq, data, .. })) => log.push((seq, data)),
            Some(Ok(_)) => continue,
            Some(Err(GroupError::Failed)) => {
                if g.reset(ctx, 3, Duration::from_secs(5)).is_err() {
                    return;
                }
            }
            Some(Err(_)) | None => return,
        }
    };

    let machines: Vec<Machine> = (0..3)
        .map(|i| machine(&sim, &net, &format!("m{i}"), &cfg))
        .collect();
    let mut outs = Vec::new();
    for (i, m) in machines.iter().enumerate() {
        let peer = m.peer.clone();
        outs.push(sim.spawn_on(m.sim_node, &format!("app{i}"), move |ctx| {
            let g = if i == 0 {
                peer.create(port, i as u64)
            } else {
                ctx.sleep(Duration::from_millis(10 * i as u64));
                peer.join(ctx, port, i as u64, Duration::from_secs(2))
                    .expect("join failed")
            };
            while g.info().unwrap().view.len() < 4 {
                ctx.sleep(Duration::from_millis(5));
            }
            let g = Rc::new(g);
            // Two pipelined senders per member: bursts that the
            // sequencer coalesces. Phase 2 runs after the rejoin so the
            // rebooted member sees fresh traffic.
            for s in 0..2u8 {
                let g = Rc::clone(&g);
                ctx.spawn(&format!("send{i}-{s}"), move |ctx| {
                    for phase in 0..2u8 {
                        if phase == 1 {
                            let wake = amoeba_sim::SimTime::ZERO + Duration::from_millis(2500);
                            ctx.sleep_until(wake);
                        }
                        let mut k = 0u8;
                        while k < 8 {
                            match g.send(ctx, vec![i as u8, s, phase, k]) {
                                Ok(_) => k += 1,
                                Err(GroupError::Dead) => return,
                                Err(_) => ctx.sleep(Duration::from_millis(40)),
                            }
                        }
                    }
                });
            }
            let mut log = Log::new();
            collect(&g, ctx, &mut log, Duration::from_secs(2));
            log
        }));
    }

    // Member 3: joins, crashes at 700 ms, host reboots and rejoins.
    let m3 = machine(&sim, &net, "m3", &cfg);
    let crash_host = m3.host;
    let crash_node = m3.sim_node;
    {
        let peer = m3.peer.clone();
        sim.spawn_on(m3.sim_node, "app3", move |ctx| {
            ctx.sleep(Duration::from_millis(30));
            let g = peer
                .join(ctx, port, 3, Duration::from_secs(2))
                .expect("initial join failed");
            loop {
                let _ = g.recv(ctx); // consume until the crash kills us
            }
        });
    }
    let net2 = net.clone();
    sim.spawn("chaos", move |ctx| {
        ctx.sleep(Duration::from_millis(700));
        net2.set_down(crash_host);
        ctx.crash_node(crash_node);
    });
    // The reboot: same simulation, fresh machine (fresh NIC + peer), at
    // 1.8 s — after the survivors' reset settles.
    let rejoin_log = {
        let rejoin = machine(&sim, &net, "m3-reborn", &cfg);
        let peer = rejoin.peer.clone();
        sim.spawn_on(rejoin.sim_node, "app3-reborn", move |ctx| {
            ctx.sleep(Duration::from_millis(1800));
            let g = peer
                .join(ctx, port, 33, Duration::from_secs(5))
                .expect("rejoin failed");
            let mut log = Log::new();
            collect(&g, ctx, &mut log, Duration::from_secs(2));
            log
        })
    };

    sim.run_for(Duration::from_secs(20));
    let logs: Vec<Log> = outs.iter().map(|o| o.take().expect("finished")).collect();
    let reborn = rejoin_log.take().expect("rejoined member finished");

    // Survivors agree exactly.
    assert!(!logs[0].is_empty());
    assert_eq!(logs[0], logs[1], "members 0 and 1 diverge");
    assert_eq!(logs[1], logs[2], "members 1 and 2 diverge");
    // Sequence numbers strictly increase (no duplicates, no reorders).
    for (i, log) in logs.iter().enumerate() {
        assert!(
            log.windows(2).all(|w| w[0].0 < w[1].0),
            "member {i}: non-monotonic seqs"
        );
    }
    // Phase-2 traffic flowed after the crash/reset/rejoin.
    assert!(
        logs[0].iter().any(|(_, d)| d.len() == 4 && d[2] == 1),
        "no post-rejoin messages observed"
    );
    // The rebooted member's log is a slice of the survivors' order: every
    // entry matches the survivors' entry at the same seq.
    assert!(!reborn.is_empty(), "rejoined member saw no messages");
    for (seq, data) in &reborn {
        let matching = logs[0].iter().find(|(s, _)| s == seq);
        assert_eq!(
            matching.map(|(_, d)| d),
            Some(data),
            "rejoined member disagrees at seq {seq}"
        );
    }
}
