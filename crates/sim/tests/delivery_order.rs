//! Message delivery order across the kernel's two event queues (the FIFO
//! of events due now and the heap of later ones): whatever the mix of
//! delays, senders and `run_until` deadlines, a mailbox's messages
//! arrive by due time, and those due at one instant in send order.
//!
//! The umbrella crate's `tests/sim_kernel.rs` compiles this file too.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use amoeba_sim::{MailboxTx, SimTime, Simulation};
use amoeba_testkit::{check, Gen};

/// Each send as it happens: its due time and the message.
type Sent = Rc<RefCell<Vec<(SimTime, usize)>>>;

/// Mostly zero: a message due at the instant it is sent.
fn millis(g: &mut Gen) -> Duration {
    Duration::from_millis([0, 0, 0, 1, 2, 5][g.below(6)])
}

/// Sends the next message, numbered in send order, after `delay`.
fn send(tx: &MailboxTx<usize>, now: SimTime, delay: Duration, sent: &Sent) {
    let mut sent = sent.borrow_mut();
    let msg = sent.len();
    sent.push((now + delay, msg));
    tx.send_after(delay, msg);
}

#[test]
fn messages_arrive_by_due_time_then_send_order() {
    check("delivery order", 64, |g| {
        let mut sim = Simulation::new(g.u64());
        let (tx, rx) = sim.channel::<usize>();
        let sent = Sent::default();
        let arrived = Rc::new(RefCell::new(Vec::new()));
        let log = Rc::clone(&arrived);
        if g.boolean() {
            let node = sim.add_node("n");
            let handle = sim.handle();
            let clock = handle.clone();
            handle.handler(node, "receiver", rx, move |msg| {
                log.borrow_mut().push((clock.now(), msg));
            });
        } else {
            sim.spawn("receiver", move |ctx| loop {
                let msg = rx.recv(ctx);
                log.borrow_mut().push((ctx.now(), msg));
            });
        }
        for p in 0..1 + g.below(4) {
            let plan: Vec<_> = (0..g.below(12)).map(|_| (millis(g), millis(g))).collect();
            let (tx, sent) = (tx.clone(), Rc::clone(&sent));
            sim.spawn(&format!("sender-{p}"), move |ctx| {
                for (gap, delay) in plan {
                    ctx.sleep(gap);
                    send(&tx, ctx.now(), delay, &sent);
                }
            });
        }
        // The driver sends too, at each deadline it stops at.
        let mut deadline = SimTime::ZERO;
        for _ in 0..g.below(4) {
            deadline = deadline + millis(g) + Duration::from_millis(1);
            sim.run_until(deadline);
            for _ in 0..g.below(3) {
                send(&tx, sim.now(), millis(g), &sent);
            }
        }
        sim.run();
        let mut expected = sent.borrow().clone();
        // Stable: messages due at one instant keep their send order.
        expected.sort_by_key(|&(due, _)| due);
        assert_eq!(*arrived.borrow(), expected);
    });
}
