//! The sequencer's window: a group whose history is a few dozen slots
//! keeps sequencing however many messages pass through it, at r = 0 (whose
//! members ack only to keep the window moving) and at r = 2, and goes on
//! doing so after its sequencer leaves and another member takes over.
//!
//! And on a network that loses and duplicates packets, every message is
//! still delivered exactly once, in one total order, with members that
//! reset the group whenever it fails.
//!
//! And a message of any size takes the one path through the sequencer:
//! large and small ones share the total order.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Duration;

use amoeba_dirsvc::flip::{NetParams, Network, Port};
use amoeba_dirsvc::group::{Group, GroupConfig, GroupError, GroupEvent, GroupPeer, MemberId};
use amoeba_dirsvc::sim::{Ctx, SimTime, Simulation};

const HISTORY: u64 = 64;
/// Sends per sender per phase: two senders make 10 × `HISTORY`.
const PER_PHASE: u64 = 5 * HISTORY;

/// What each sender and receiver saw.
struct Outcome {
    /// Per member, the (seq, data) of every message it delivered.
    logs: Vec<Vec<(u64, Vec<u8>)>>,
    /// Per sender (members 1 and 2): sends completed, retries made, when
    /// the last send completed, and the times its window shut while it
    /// sequenced.
    senders: Vec<Option<(u64, u64, Duration, u64)>>,
}

/// The group's founder, member 0.
const FOUNDER: MemberId = MemberId(0);

/// Rebuilds a failed group from a majority of its three members, as a
/// replica does. An attempt that fails is made again at once: `recv`
/// goes on answering `Failed`.
fn reset(g: &Group, ctx: &Ctx) {
    let _ = g.reset(ctx, 2, Duration::from_secs(3));
}

/// Member 0 founds the group and only receives; members 1 and 2 each send
/// `PER_PHASE` messages. Once member 0 has delivered all of them it
/// leaves, and members 1 and 2 each send `PER_PHASE` more through member
/// 1, the new sequencer. Every member resets the group when it fails; a
/// member learns the founder is gone from its `Left`, or from a reset
/// that left it out.
fn run(r: u32, params: NetParams, net_seed: u64, seconds: u64) -> Outcome {
    let mut sim = Simulation::new(0x3D0);
    let net = Network::new(sim.handle(), params, net_seed);
    let cfg = GroupConfig {
        history: HISTORY,
        ..GroupConfig::with_resilience(r)
    };
    let port = Port::from_name("window");
    let join_timeout = cfg.failure_timeout * 3 / 4;
    let logs: Vec<_> = (0..3).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    let left = Rc::new(Cell::new(0u32));
    let mut senders = Vec::new();
    for i in 0..3u64 {
        let node = sim.add_node(&format!("m{i}"));
        let peer = GroupPeer::start(&sim, node, net.attach(), cfg.clone());
        let log = logs[i as usize].clone();
        if i == 0 {
            sim.spawn_on(node, "founder", move |ctx| {
                let g = peer.create(port, 0);
                while (log.borrow().len() as u64) < 2 * PER_PHASE {
                    match g.recv(ctx) {
                        Ok(GroupEvent::Message { seq, data, .. }) => {
                            log.borrow_mut().push((seq, data.to_vec()))
                        }
                        Ok(_) => {}
                        Err(GroupError::Failed) => reset(&g, ctx),
                        Err(e) => panic!("founder: {e}"),
                    }
                }
                g.leave(ctx);
            });
            continue;
        }
        let (joined_tx, joined_rx) = sim.channel::<()>();
        let group = Rc::new(RefCell::new(None));
        let (g_rx, left_rx) = (group.clone(), left.clone());
        sim.spawn_on(node, &format!("rx{i}"), move |ctx| {
            ctx.sleep(Duration::from_millis(10 * i));
            // A join sends its request once. If the answer is lost, the
            // sequencer has the host in its view, and fails the group once
            // the host has been silent for `failure_timeout`; asked again
            // before that, it gives the host its slot back.
            let g = loop {
                match peer.join(ctx, port, i, join_timeout) {
                    Ok(g) => break Rc::new(g),
                    Err(e) => assert_eq!(e, GroupError::JoinTimeout, "member {i}"),
                }
            };
            *g_rx.borrow_mut() = Some(g.clone());
            joined_tx.send(());
            let mut founder_gone = false;
            loop {
                let gone = match g.recv(ctx) {
                    Ok(GroupEvent::Message { seq, data, .. }) => {
                        log.borrow_mut().push((seq, data.to_vec()));
                        false
                    }
                    Ok(GroupEvent::Left { member, .. }) => member.id == FOUNDER,
                    Ok(GroupEvent::ResetDone { view, .. }) => !view.contains(FOUNDER),
                    Ok(_) => false,
                    Err(GroupError::Failed) => {
                        reset(&g, ctx);
                        false
                    }
                    Err(e) => panic!("member {i}: {e}"),
                };
                if gone && !founder_gone {
                    founder_gone = true;
                    left_rx.set(left_rx.get() + 1);
                }
            }
        });
        let left = left.clone();
        senders.push(sim.spawn_on(node, &format!("tx{i}"), move |ctx| {
            joined_rx.recv(ctx);
            let g = group.borrow().clone().expect("joined");
            while g.info().expect("info").view.len() < 3 {
                ctx.sleep(Duration::from_millis(5));
            }
            let mut sent = 0;
            for phase in 0..2u8 {
                // Phase 2 starts once both members saw the founder leave.
                while phase == 1 && left.get() < 2 {
                    ctx.sleep(Duration::from_millis(5));
                }
                for k in 0..PER_PHASE {
                    let data = [phase, i as u8, (k >> 8) as u8, k as u8];
                    // A send the failed group refused never left this
                    // member: send it again once the group is reset.
                    while let Err(e) = g.send(ctx, data.to_vec()) {
                        assert_eq!(e, GroupError::Failed, "member {i}");
                        ctx.sleep(Duration::from_millis(50));
                    }
                    sent += 1;
                }
            }
            let stats = g.stats().expect("stats");
            (
                sent,
                stats.send_retries,
                ctx.now().saturating_since(SimTime::ZERO),
                stats.window_shut,
            )
        }));
    }
    sim.run_for(Duration::from_secs(seconds));
    Outcome {
        logs: logs.iter().map(|l| l.borrow().clone()).collect(),
        senders: senders.iter().map(|s| s.take()).collect(),
    }
}

fn keeps_sequencing(r: u32) {
    let out = run(r, NetParams::default(), 1, 120);
    for (i, s) in out.senders.iter().enumerate() {
        let member = i + 1;
        let (sent, retries, done_at, window_shut) =
            s.unwrap_or_else(|| panic!("r = {r}: member {member} stalled"));
        assert_eq!(sent, 2 * PER_PHASE, "r = {r}: member {member}");
        assert!(
            done_at < Duration::from_secs(10),
            "r = {r}: member {member} took {done_at:?}"
        );
        // A send the window has no room for waits for its retry. The
        // sequencer, sending as fast as it can, gets ahead of acks still
        // on the wire; that costs a retry at most once per window's
        // worth of messages.
        assert!(
            retries <= 2 * PER_PHASE / HISTORY,
            "r = {r}: member {member} retried {retries} times"
        );
        // Member 1 sequences the second phase. At r = 0 its window
        // shuts, and every send above still completed, so it opened
        // again each time. At r = 2 a send completes only once every
        // member holds it, so two senders never lag a window behind.
        if r == 0 && member == 1 {
            assert!(window_shut > 0, "r = {r}: the window never shut");
        } else {
            assert_eq!(window_shut, 0, "r = {r}: member {member}");
        }
    }
    assert_eq!(out.logs[0].len() as u64, 2 * PER_PHASE, "r = {r}: founder");
    assert_eq!(out.logs[1].len() as u64, 4 * PER_PHASE, "r = {r}: member 1");
    assert_eq!(out.logs[1], out.logs[2], "r = {r}: one total order");
    assert_eq!(out.logs[0][..], out.logs[1][..out.logs[0].len()]);
}

#[test]
fn an_r0_group_keeps_sequencing_through_a_small_window() {
    keeps_sequencing(0);
}

#[test]
fn an_r2_group_keeps_sequencing_through_a_small_window() {
    keeps_sequencing(2);
}

/// 3 % of deliveries lost, 5 % delivered twice.
fn lossy() -> NetParams {
    NetParams {
        loss_probability: 0.03,
        duplicate_probability: 0.05,
        ..NetParams::default()
    }
}

/// Every message that members 1 and 2 send, each once.
fn every_message() -> BTreeSet<Vec<u8>> {
    let mut all = BTreeSet::new();
    for phase in 0..2u8 {
        for i in 1..3u8 {
            for k in 0..PER_PHASE {
                all.insert(vec![phase, i, (k >> 8) as u8, k as u8]);
            }
        }
    }
    all
}

/// Every message is delivered exactly once, in one total order, whatever
/// the loss draws. A member delivers an unbroken stretch of that order:
/// from its join (a member whose join answer was lost, and that the group
/// then dropped, joins again, later) to its leave, or to the end.
///
/// Seeds 1 to 8, and the others that failed while this test was written.
/// A leaving sequencer took slots no other member held at 2, 27, 71 and
/// 150 (r = 0); at 12 (r = 2) the reset after such a leave lost its
/// announcement to one member, which stayed in the old incarnation. At
/// 355 two joins lost their answer and left the founder failed with two
/// silent members, while the members retried a join only after 2 s.
fn delivers_exactly_once_under_loss(r: u32) {
    for net_seed in (1..=8).chain([12, 27, 71, 150, 355]) {
        let case = format!("r = {r}, network seed {net_seed}");
        let out = run(r, lossy(), net_seed, 60);
        for (i, s) in out.senders.iter().enumerate() {
            let (sent, ..) = s.unwrap_or_else(|| panic!("{case}: member {} stalled", i + 1));
            assert_eq!(sent, 2 * PER_PHASE, "{case}");
        }
        // Slot → message, over what every member delivered.
        let mut order = BTreeMap::new();
        for (i, log) in out.logs.iter().enumerate() {
            assert!(
                log.windows(2).all(|w| w[0].0 < w[1].0),
                "{case}: member {i} delivered out of order or twice"
            );
            for (seq, data) in log {
                let other = order.insert(*seq, data.clone());
                assert!(
                    other.is_none_or(|o| &o == data),
                    "{case}: slot {seq} holds two messages"
                );
            }
        }
        let messages: BTreeSet<_> = order.values().cloned().collect();
        assert_eq!(
            messages.len(),
            order.len(),
            "{case}: a message in two slots"
        );
        assert_eq!(messages, every_message(), "{case}");
        let slots: Vec<u64> = order.keys().copied().collect();
        for (i, log) in out.logs.iter().enumerate() {
            let mine: Vec<u64> = log.iter().map(|&(seq, _)| seq).collect();
            let from = slots.binary_search(&mine[0]).expect("a slot of the order");
            assert_eq!(
                mine[..],
                slots[from..from + mine.len()],
                "{case}: member {i} skipped a message"
            );
        }
        assert_eq!(out.logs[0].len() as u64, 2 * PER_PHASE, "{case}: founder");
        for i in [1, 2] {
            assert_eq!(
                out.logs[i].last().map(|l| l.0),
                slots.last().copied(),
                "{case}"
            );
        }
    }
}

#[test]
fn an_r0_group_delivers_exactly_once_on_a_lossy_network() {
    delivers_exactly_once_under_loss(0);
}

#[test]
fn an_r2_group_delivers_exactly_once_on_a_lossy_network() {
    delivers_exactly_once_under_loss(2);
}

/// Member 1 sends 10 B, 5,000 B, 10 B and 64 KiB through the sequencer
/// at r = 2; every member delivers those bytes, in that order.
#[test]
fn large_and_small_messages_share_one_total_order() {
    let mut sim = Simulation::new(37);
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let cfg = GroupConfig::with_resilience(2);
    let port = Port::from_name("sizes");
    let message = |k: u8, size: usize| -> Vec<u8> {
        (0..size).map(|i| (i as u8).wrapping_mul(7) ^ k).collect()
    };
    let sent: Vec<Vec<u8>> = [10, 5_000, 10, 64 << 10]
        .into_iter()
        .enumerate()
        .map(|(k, size)| message(k as u8, size))
        .collect();
    let mut outs = Vec::new();
    for i in 0..3u64 {
        let node = sim.add_node(&format!("m{i}"));
        let peer = GroupPeer::start(&sim, node, net.attach(), cfg.clone());
        let sent = sent.clone();
        outs.push(sim.spawn_on(node, &format!("app{i}"), move |ctx| {
            let g = if i == 0 {
                peer.create(port, 0)
            } else {
                ctx.sleep(Duration::from_millis(10 * i));
                peer.join(ctx, port, i, Duration::from_secs(2))
                    .expect("join")
            };
            if i == 1 {
                while g.info().expect("info").view.len() < 3 {
                    ctx.sleep(Duration::from_millis(5));
                }
                for data in &sent {
                    g.send(ctx, data.clone()).expect("send");
                }
            }
            let mut got = Vec::new();
            while got.len() < sent.len() {
                match g.recv_timeout(ctx, Duration::from_secs(5)) {
                    Some(Ok(GroupEvent::Message { data, .. })) => got.push(data.to_vec()),
                    Some(Ok(_)) => {}
                    other => panic!("member {i}: {other:?}"),
                }
            }
            got
        }));
    }
    sim.run_for(Duration::from_secs(20));
    for (i, out) in outs.iter().enumerate() {
        // Not `assert_eq!`: a mismatch would print 64 KiB.
        assert!(out.take() == Some(sent.clone()), "member {i}");
    }
}
