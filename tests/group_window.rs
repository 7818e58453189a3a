//! The sequencer's window: a group whose history is a few dozen slots
//! keeps sequencing however many messages pass through it, at r = 0 (whose
//! members ack only to keep the window moving) and at r = 2, and goes on
//! doing so after its sequencer leaves and another member takes over.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use amoeba_dirsvc::flip::{NetParams, Network, Port};
use amoeba_dirsvc::group::{GroupConfig, GroupEvent, GroupPeer};
use amoeba_dirsvc::sim::{SimTime, Simulation};

const HISTORY: u64 = 64;
/// Sends per sender per phase: two senders make 10 × `HISTORY`.
const PER_PHASE: u64 = 5 * HISTORY;

/// What each sender and receiver saw.
struct Outcome {
    /// Per member, the (seq, data) of every message it delivered.
    logs: Vec<Vec<(u64, Vec<u8>)>>,
    /// Per sender (members 1 and 2): sends completed, retries made, and
    /// when the last send completed.
    senders: Vec<Option<(u64, u64, Duration)>>,
}

/// Member 0 founds the group and only receives; members 1 and 2 each send
/// `PER_PHASE` messages. Once member 0 has delivered all of them it
/// leaves, and members 1 and 2 each send `PER_PHASE` more through member
/// 1, the new sequencer.
fn run(r: u32) -> Outcome {
    let mut sim = Simulation::new(0x3D0);
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let cfg = GroupConfig {
        history: HISTORY,
        ..GroupConfig::with_resilience(r)
    };
    let port = Port::from_name("window");
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
            let g = Rc::new(
                peer.join(ctx, port, i, Duration::from_secs(2))
                    .expect("join"),
            );
            *g_rx.borrow_mut() = Some(g.clone());
            joined_tx.send(());
            loop {
                match g.recv(ctx) {
                    Ok(GroupEvent::Message { seq, data, .. }) => {
                        log.borrow_mut().push((seq, data.to_vec()))
                    }
                    Ok(GroupEvent::Left { .. }) => left_rx.set(left_rx.get() + 1),
                    Ok(_) => {}
                    Err(e) => panic!("member {i}: {e}"),
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
                    g.send(ctx, data.to_vec()).expect("send");
                    sent += 1;
                }
            }
            let retries = g.stats().expect("stats").send_retries;
            (sent, retries, ctx.now().saturating_since(SimTime::ZERO))
        }));
    }
    sim.run_for(Duration::from_secs(120));
    Outcome {
        logs: logs.iter().map(|l| l.borrow().clone()).collect(),
        senders: senders.iter().map(|s| s.take()).collect(),
    }
}

fn keeps_sequencing(r: u32) {
    let out = run(r);
    for (i, s) in out.senders.iter().enumerate() {
        let member = i + 1;
        let (sent, retries, done_at) =
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
