//! A process's reply mailbox (`Ctx::reply_channel`), kept between its
//! calls: a later call never reads what was sent for an earlier one,
//! and a late reply wakes no one, exactly as if each call had made a
//! channel of its own and dropped it.
//!
//! The umbrella crate's `tests/sim_kernel.rs` compiles this file too.

use std::time::Duration;

use amoeba_sim::{MailboxTx, Simulation};

const MS: Duration = Duration::from_millis(1);

/// How the server answers request `n`, 10 × `n` ms after it arrives.
#[derive(Clone, Copy)]
enum Answer {
    /// Sent at once, delivered late: in flight while it waits.
    InFlight,
    /// Sent late: the sender is held while it waits.
    Held,
}

/// A server that answers each request `(n, how)` with `n`.
fn slow_server(sim: &mut Simulation) -> MailboxTx<(u64, Answer, MailboxTx<u64>)> {
    let (to_server, requests) = sim.channel::<(u64, Answer, MailboxTx<u64>)>();
    sim.spawn("server", move |ctx| loop {
        let (n, how, reply) = requests.recv(ctx);
        let wait = 10 * MS * n as u32;
        match how {
            Answer::InFlight => reply.send_after(wait, n),
            Answer::Held => {
                ctx.sleep(wait);
                reply.send(n);
            }
        }
    });
    to_server
}

/// Call 1 gives up after 1 ms; its reply arrives at 10 ms, while call
/// 2, on the same kept mailbox, waits for its own. The late reply is
/// dropped and does not wake the caller, whether it was in flight when
/// call 1 gave up or sent afterwards by the sender call 1 handed out:
/// the caller's resumes are its start, call 1's timeout and call 2's
/// reply.
#[test]
fn a_late_reply_is_never_read_by_a_later_call() {
    for how in [Answer::InFlight, Answer::Held] {
        let mut sim = Simulation::new(1);
        let to_server = slow_server(&mut sim);
        let out = sim.spawn("caller", move |ctx| {
            let (tx, rx) = ctx.reply_channel::<u64>();
            to_server.send((1, how, tx));
            let first = rx.recv_timeout(ctx, MS);
            drop(rx);
            let (tx, rx) = ctx.reply_channel::<u64>();
            to_server.send((2, Answer::InFlight, tx));
            (first, rx.recv(ctx))
        });
        sim.run();
        assert_eq!(out.take(), Some((None, 2)));
        let caller = sim.activations().into_iter().find(|a| a.name == "caller");
        // First, Slept, MailboxReady, TimedOut.
        assert_eq!(caller.map(|a| a.resumes), Some([1, 0, 1, 1]));
    }
}

/// Two calls of one process in flight at once get a mailbox each, and
/// each its own reply; both mailboxes are kept for later calls.
#[test]
fn calls_in_flight_at_once_have_a_mailbox_each() {
    let mut sim = Simulation::new(1);
    let to_server = slow_server(&mut sim);
    let out = sim.spawn("caller", move |ctx| {
        let mut got = Vec::new();
        for _ in 0..2 {
            let (tx_a, rx_a) = ctx.reply_channel::<u64>();
            let (tx_b, rx_b) = ctx.reply_channel::<u64>();
            to_server.send((2, Answer::InFlight, tx_a));
            to_server.send((1, Answer::InFlight, tx_b));
            got.push((rx_a.recv(ctx), rx_b.recv(ctx)));
        }
        got
    });
    sim.run();
    assert_eq!(out.take(), Some(vec![(2, 1), (2, 1)]));
}
