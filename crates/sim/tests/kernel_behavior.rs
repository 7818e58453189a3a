//! Behavioural tests for the simulation kernel: scheduling order, blocking
//! primitives, timeouts, node crashes, and determinism.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Duration;

use amoeba_sim::{SimTime, Simulation};

const MS: Duration = Duration::from_millis(1);

#[test]
fn virtual_time_advances_without_real_time() {
    let mut sim = Simulation::new(1);
    let out = sim.spawn("sleeper", |ctx| {
        ctx.sleep(Duration::from_secs(3600)); // an hour of virtual time
        ctx.now()
    });
    let start = std::time::Instant::now();
    sim.run();
    assert!(start.elapsed() < Duration::from_secs(5));
    assert_eq!(out.take(), Some(SimTime::from_secs(3600)));
}

#[test]
fn same_time_events_run_in_schedule_order() {
    let mut sim = Simulation::new(1);
    let log = Rc::new(RefCell::new(Vec::new()));
    for i in 0..5 {
        let log = Rc::clone(&log);
        sim.spawn(&format!("p{i}"), move |ctx| {
            ctx.sleep(Duration::from_millis(10));
            log.borrow_mut().push(i);
        });
    }
    sim.run();
    assert_eq!(*log.borrow_mut(), vec![0, 1, 2, 3, 4]);
}

#[test]
fn messages_arrive_in_send_order() {
    let mut sim = Simulation::new(1);
    let (tx, rx) = sim.channel::<u32>();
    sim.spawn("sender", move |_ctx| {
        for i in 0..10 {
            tx.send(i);
        }
    });
    let got = sim.spawn("receiver", move |ctx| {
        (0..10).map(|_| rx.recv(ctx)).collect::<Vec<_>>()
    });
    sim.run();
    assert_eq!(got.take(), Some((0..10).collect::<Vec<_>>()));
}

#[test]
fn delayed_sends_order_by_delivery_time() {
    let mut sim = Simulation::new(1);
    let (tx, rx) = sim.channel::<&'static str>();
    sim.spawn("sender", move |_ctx| {
        tx.send_after(5 * MS, "late");
        tx.send_after(MS, "early");
    });
    let got = sim.spawn("receiver", move |ctx| {
        let a = rx.recv(ctx);
        let t_a = ctx.now();
        let b = rx.recv(ctx);
        let t_b = ctx.now();
        (a, t_a, b, t_b)
    });
    sim.run();
    let (a, t_a, b, t_b) = got.take().unwrap();
    assert_eq!(a, "early");
    assert_eq!(t_a, SimTime::from_millis(1));
    assert_eq!(b, "late");
    assert_eq!(t_b, SimTime::from_millis(5));
}

#[test]
fn recv_timeout_expires_and_recovers() {
    let mut sim = Simulation::new(1);
    let (tx, rx) = sim.channel::<u8>();
    sim.spawn("sender", move |ctx| {
        ctx.sleep(10 * MS);
        tx.send(7);
    });
    let got = sim.spawn("receiver", move |ctx| {
        let first = rx.recv_timeout(ctx, 2 * MS); // expires at t=2ms
        let t1 = ctx.now();
        let second = rx.recv_timeout(ctx, 20 * MS); // arrives at t=10ms
        let t2 = ctx.now();
        (first, t1, second, t2)
    });
    sim.run();
    let (first, t1, second, t2) = got.take().unwrap();
    assert_eq!(first, None);
    assert_eq!(t1, SimTime::from_millis(2));
    assert_eq!(second, Some(7));
    assert_eq!(t2, SimTime::from_millis(10));
}

#[test]
fn try_recv_and_len() {
    let mut sim = Simulation::new(1);
    let (tx, rx) = sim.channel::<u8>();
    tx.send(1);
    tx.send(2);
    let got = sim.spawn("p", move |ctx| {
        ctx.sleep(MS);
        let n = rx.len();
        let a = rx.try_recv();
        let b = rx.try_recv();
        let c = rx.try_recv();
        (n, a, b, c, rx.is_empty())
    });
    sim.run();
    assert_eq!(got.take(), Some((2, Some(1), Some(2), None, true)));
}

#[test]
fn spawned_children_run() {
    let mut sim = Simulation::new(1);
    let log = Rc::new(RefCell::new(Vec::new()));
    let log2 = Rc::clone(&log);
    sim.spawn("parent", move |ctx| {
        for i in 0..3 {
            let log = Rc::clone(&log2);
            ctx.spawn(&format!("child{i}"), move |ctx| {
                ctx.sleep(Duration::from_millis(i as u64));
                log.borrow_mut().push(i);
            });
        }
    });
    sim.run();
    assert_eq!(*log.borrow_mut(), vec![0, 1, 2]);
}

#[test]
fn crash_kills_node_processes_and_preserves_shared_state() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("server");
    let persistent = Rc::new(RefCell::new(Vec::new()));

    let p = Rc::clone(&persistent);
    sim.spawn_on(node, "writer", move |ctx| loop {
        p.borrow_mut().push(ctx.now());
        ctx.sleep(MS);
    });
    sim.spawn("chaos", move |ctx| {
        ctx.sleep(Duration::from_micros(4500));
        ctx.crash_node(node);
    });
    sim.run_until(SimTime::from_millis(20));
    // Writer ticked at t=0..4ms then died; the "disk" (shared vec) survives.
    let n = persistent.borrow_mut().len();
    assert_eq!(n, 5, "writer should have ticked exactly 5 times, got {n}");
    assert!(!sim.node_alive(node));
}

#[test]
fn crashed_node_can_be_revived_and_reused() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("server");
    sim.spawn_on(node, "old", move |ctx| loop {
        ctx.sleep(MS);
    });
    sim.crash_node(node);
    let mut stats = sim.run_for(Duration::from_millis(5));
    assert!(!sim.node_alive(node));
    sim.revive_node(node);
    let out = sim.spawn_on(node, "new", |ctx| {
        ctx.sleep(MS);
        42u32
    });
    stats = {
        let s = sim.run();
        assert!(s.events >= stats.events);
        s
    };
    let _ = stats;
    assert_eq!(out.take(), Some(42));
}

#[test]
fn self_crash_stops_process_immediately() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let flag = Rc::new(RefCell::new(false));
    let f = Rc::clone(&flag);
    sim.spawn_on(node, "suicidal", move |ctx| {
        ctx.crash_node(node);
        *f.borrow_mut() = true; // must never run
    });
    sim.run();
    assert!(!*flag.borrow_mut());
}

#[test]
fn killed_process_output_is_unavailable() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let out = sim.spawn_on(node, "victim", |ctx| {
        ctx.sleep(Duration::from_secs(10));
        "done"
    });
    sim.spawn("chaos", move |ctx| {
        ctx.sleep(MS);
        ctx.crash_node(node);
    });
    sim.run();
    assert_eq!(out.take(), None);
}

#[test]
fn message_to_dead_process_is_dropped_silently() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let (tx, rx) = sim.channel::<u8>();
    sim.spawn_on(node, "victim", move |ctx| {
        let _ = rx.recv(ctx);
        unreachable!("victim must die blocked");
    });
    sim.spawn("chaos", move |ctx| {
        ctx.sleep(MS);
        ctx.crash_node(node);
        ctx.sleep(MS);
        tx.send(1); // nobody is listening; must not wedge or panic
    });
    sim.run();
}

#[test]
fn run_until_stops_at_deadline() {
    let mut sim = Simulation::new(1);
    let out = sim.spawn("p", |ctx| {
        ctx.sleep(Duration::from_millis(4));
        ctx.sleep(Duration::from_millis(96));
        ctx.now()
    });
    // The deadline is met on the process's stack (it dispatches its own
    // timers); the later timer stays queued and `now` is the deadline.
    let stats = sim.run_until(SimTime::from_millis(10));
    assert_eq!(stats.end_time, SimTime::from_millis(10));
    assert_eq!(sim.now(), SimTime::from_millis(10));
    assert_eq!(stats.events, 2, "the start and the 4 ms timer");
    assert!(!out.is_ready());
    let stats = sim.run();
    assert_eq!(stats.events, 3);
    assert_eq!(out.take(), Some(SimTime::from_millis(100)));
}

/// Two processes bouncing `rounds` pings and pongs: 2 × `rounds` messages.
fn ping_pong(sim: &Simulation, rounds: u64) {
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
}

#[test]
fn run_with_limit_counts_events_across_process_boundaries() {
    let mut sim = Simulation::new(1);
    ping_pong(&sim, 1_000);
    // The budget runs out on whichever stack is dispatching; every call
    // processes exactly what it was given and the game goes on.
    assert_eq!(sim.run_with_limit(50).events, 50);
    assert_eq!(sim.run_with_limit(7).events, 57);
    assert_eq!(sim.run_with_limit(0).events, 57);
    // Two starts and one delivery per message.
    assert_eq!(sim.run().events, 2 + 2_000);
}

#[test]
fn a_process_that_wakes_itself_makes_no_handoff() {
    let mut sim = Simulation::new(1);
    sim.spawn("sleeper", |ctx| {
        for _ in 0..1_000 {
            ctx.sleep(MS);
        }
    });
    let stats = sim.run();
    assert_eq!(stats.events, 1 + 1_000);
    // Driver → sleeper at its start, sleeper → driver at quiescence;
    // the thousand timers in between fire on the sleeper's own stack.
    assert_eq!(stats.handoffs, 2);
}

#[test]
fn ping_pong_makes_one_handoff_per_message() {
    let handoffs = |rounds: u64| {
        let mut sim = Simulation::new(1);
        ping_pong(&sim, rounds);
        sim.run().handoffs
    };
    // Driver → a, a → b (b's start; b then takes the first ping off its
    // own dispatch), one per later message, and the return to the driver.
    assert_eq!(handoffs(100), 2 * 100 + 2);
    assert_eq!(handoffs(1_100) - handoffs(100), 2 * 1_000);
}

/// Set when dropped: a process's stack is unwound — and, the kernel
/// joining what it kills, seen to be — by the time `run` returns.
struct Unwound(Rc<Cell<bool>>);

impl Unwound {
    fn flag() -> (Unwound, Rc<Cell<bool>>) {
        let flag = Rc::new(Cell::new(false));
        (Unwound(Rc::clone(&flag)), flag)
    }
}

impl Drop for Unwound {
    fn drop(&mut self) {
        self.0.set(true);
    }
}

#[test]
fn crashing_its_own_node_ends_a_running_process_and_its_parked_neighbours() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let (guard_a, unwound_a) = Unwound::flag();
    let (guard_b, unwound_b) = Unwound::flag();
    let (_tx, rx) = sim.channel::<u8>();
    let parked = sim.spawn_on(node, "parked", move |ctx| {
        let _guard = guard_b;
        rx.recv(ctx)
    });
    let suicidal = sim.spawn_on(node, "suicidal", move |ctx| {
        let _guard = guard_a;
        ctx.sleep(MS);
        ctx.crash_node(node);
        unreachable!("crash_node of one's own node does not return");
    });
    let bystander = sim.spawn("bystander", |ctx| {
        ctx.sleep(5 * MS);
        ctx.now()
    });
    let stats = sim.run();
    assert!(unwound_a.get() && unwound_b.get());
    assert_eq!((parked.take(), suicidal.take()), (None, None));
    assert_eq!(bystander.take(), Some(SimTime::from_millis(5)));
    assert_eq!(stats.end_time, SimTime::from_millis(5));
}

#[test]
fn a_process_killed_before_its_first_activation_never_runs() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let (guard, unwound) = Unwound::flag();
    let ran = Rc::new(Cell::new(false));
    let r = Rc::clone(&ran);
    let out = sim.spawn_on(node, "stillborn", move |_ctx| {
        let _guard = guard;
        r.set(true);
    });
    sim.crash_node(node);
    let stats = sim.run();
    assert_eq!(stats.events, 2, "its start (ignored) and the reap");
    assert!(!ran.get());
    assert!(unwound.get(), "its closure was dropped");
    assert_eq!(out.take(), None);
}

#[test]
fn a_panic_on_a_thread_the_driver_did_not_wake_is_reraised_by_run() {
    let (guard, unwound) = Unwound::flag();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::new(1);
        let (tx, rx) = sim.channel::<u8>();
        sim.spawn("waker", move |ctx| {
            let _guard = guard;
            ctx.sleep(MS);
            tx.send(1);
            ctx.sleep(Duration::from_secs(1));
            unreachable!("torn down while parked");
        });
        // Woken by `waker`, not by the driver, and panics there.
        sim.spawn("bomb", move |ctx| {
            let v = rx.recv(ctx);
            panic!("boom {v}");
        });
        sim.run();
    }))
    .expect_err("the panic must reach the caller of run");
    let msg = err.downcast_ref::<String>().expect("a formatted message");
    assert_eq!(msg, "simulated process panicked: 'bomb' (proc#1): boom 1");
    assert!(unwound.get(), "the other process was reaped");
}

/// Runs `program` and returns the text `run` panicked with.
fn run_panic_text(program: impl FnOnce(&mut Simulation)) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::new(1);
        program(&mut sim);
        sim.run();
    }))
    .expect_err("the panic must reach the caller of run");
    err.downcast_ref::<String>()
        .expect("a formatted message")
        .clone()
}

#[test]
fn a_handler_is_called_at_delivery_without_a_handoff() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let (tx, rx) = sim.channel::<u64>();
    let (echo_tx, echo_rx) = sim.channel::<(u64, SimTime)>();
    let clock = sim.handle();
    sim.handle().handler(node, "echo", rx, move |v| {
        echo_tx.send((v, clock.now()));
    });
    let got = sim.spawn("caller", move |ctx| {
        (0..1_000)
            .map(|i| {
                tx.send_after(MS, i);
                echo_rx.recv(ctx)
            })
            .collect::<Vec<_>>()
    });
    let stats = sim.run();
    let expected: Vec<_> = (0..1_000)
        .map(|i| (i, SimTime::from_millis(i + 1)))
        .collect();
    assert_eq!(got.take(), Some(expected));
    // The caller's start and two deliveries per round; every event after
    // the first is dispatched by the caller, handler calls included.
    assert_eq!(
        (stats.events, stats.handler_calls, stats.handoffs),
        (1 + 2_000, 1_000, 2)
    );
}

#[test]
fn a_handler_takes_a_pid_so_later_rng_streams_stay_put() {
    let draw = |with_handler: bool| {
        let mut sim = Simulation::new(9);
        let node = sim.add_node("n");
        let (_tx, rx) = sim.channel::<u8>();
        if with_handler {
            sim.handle().handler(node, "first", rx, |_| {});
        } else {
            sim.spawn_on(node, "first", move |ctx| rx.recv(ctx));
        }
        let second = sim.spawn("second", |ctx| (ctx.pid(), ctx.with_rng(|r| r.next_u64())));
        sim.run();
        second.take()
    };
    assert_eq!(draw(true), draw(false));
}

#[test]
fn a_handler_panic_reaches_the_caller_of_run_under_its_own_name() {
    fn bomb(sim: &Simulation) -> amoeba_sim::MailboxTx<u8> {
        let node = sim.add_node("n");
        let (tx, rx) = sim.channel::<u8>();
        sim.handle()
            .handler(node, "bomb", rx, |v| panic!("boom {v}"));
        tx
    }
    const TEXT: &str = "simulated process panicked: handler 'bomb': boom 7";

    // Found by the driver: no process exists.
    let msg = run_panic_text(|sim| bomb(sim).send(7));
    assert_eq!(msg, TEXT);

    // Found by a process, inside that process's `sleep`: it is
    // torn down like any parked process, not blamed.
    let (guard, unwound) = Unwound::flag();
    let msg = run_panic_text(|sim| {
        let tx = bomb(sim);
        sim.spawn("bystander", move |ctx| {
            let _guard = guard;
            tx.send_after(MS, 7);
            ctx.sleep(10 * MS);
            unreachable!("torn down while parked");
        });
    });
    assert_eq!(msg, TEXT);
    assert!(unwound.get(), "the bystander was reaped");

    // Found by a process that has returned, in its final yield.
    let msg = run_panic_text(|sim| {
        let tx = bomb(sim);
        sim.spawn("leaver", move |_ctx| tx.send_after(MS, 7));
    });
    assert_eq!(msg, TEXT);
}

#[test]
fn a_crash_drops_the_handler_and_what_was_in_flight_to_it() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let register = move |handle: &amoeba_sim::SimHandle, name: &str| {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let (tx, rx) = handle.channel::<u32>();
        let log = Rc::clone(&seen);
        handle.handler(node, name, rx, move |v| log.borrow_mut().push(v));
        (tx, seen)
    };
    let (old_tx, old_seen) = register(&sim.handle(), "old");
    let state = Rc::downgrade(&old_seen);
    drop(old_seen);
    old_tx.send_after(MS, 1);
    old_tx.send_after(3 * MS, 2); // in flight across the crash and reboot
    let new_seen = sim.spawn("chaos", move |ctx| {
        ctx.sleep(2 * MS);
        let seen = state
            .upgrade()
            .expect("alive with its node")
            .borrow_mut()
            .clone();
        ctx.crash_node(node);
        assert!(state.upgrade().is_none(), "the handler died with its node");
        ctx.revive_node(node);
        let (new_tx, new_seen) = register(&ctx.handle(), "new");
        new_tx.send_after(2 * MS, 3);
        ctx.sleep(5 * MS);
        old_tx.send(4); // a sender that outlived the crash
        ctx.sleep(MS);
        let new_seen = new_seen.borrow_mut().clone();
        (seen, new_seen)
    });
    let stats = sim.run();
    assert_eq!(new_seen.take(), Some((vec![1], vec![3])));
    assert_eq!(stats.handler_calls, 2);
}

#[test]
fn dropping_the_simulation_frees_handlers_and_queued_messages() {
    let sim = Simulation::new(1);
    let node = sim.add_node("n");
    let (tx, rx) = sim.channel::<Rc<()>>();
    let state = Rc::new(());
    let (handler_state, queued) = (Rc::downgrade(&state), Rc::new(()));
    let message = Rc::downgrade(&queued);
    // The handler's state reaches back to the kernel that owns it, as a
    // protocol stack's does; so does a sender that outlives the run.
    let handle = sim.handle();
    sim.handle().handler(node, "h", rx, move |_| {
        let _ = (&state, &handle);
    });
    tx.send_after(Duration::from_secs(3600), queued);
    drop(sim);
    assert!(handler_state.upgrade().is_none() && message.upgrade().is_none());
    drop(tx);
}

#[test]
#[should_panic(expected = "cannot register a handler on crashed node")]
fn a_crashed_node_takes_no_handler() {
    let sim = Simulation::new(1);
    let node = sim.add_node("n");
    sim.crash_node(node);
    let (_tx, rx) = sim.channel::<u8>();
    sim.handle().handler(node, "late", rx, |_| {});
}

#[test]
#[should_panic(expected = "simulated process panicked")]
fn process_panic_propagates() {
    let mut sim = Simulation::new(1);
    sim.spawn("bad", |_ctx| panic!("boom"));
    sim.run();
}

#[test]
fn deterministic_across_runs() {
    fn run_once(seed: u64) -> Vec<(u64, u32)> {
        let mut sim = Simulation::new(seed);
        let log = Rc::new(RefCell::new(Vec::new()));
        let (tx, rx) = sim.channel::<u32>();
        for i in 0..4u32 {
            let tx = tx.clone();
            let log = Rc::clone(&log);
            sim.spawn(&format!("w{i}"), move |ctx| {
                for _ in 0..20 {
                    let jitter = ctx.with_rng(|r| r.range(100, 5_000));
                    ctx.sleep(Duration::from_micros(jitter));
                    tx.send(i);
                    log.borrow_mut().push((ctx.now().as_nanos(), i));
                }
            });
        }
        let sink = Rc::clone(&log);
        sim.spawn("sink", move |ctx| {
            for _ in 0..80 {
                let v = rx.recv(ctx);
                sink.borrow_mut().push((ctx.now().as_nanos(), 1000 + v));
            }
        });
        sim.run();
        let v = log.borrow_mut().clone();
        v
    }
    let a = run_once(1234);
    let b = run_once(1234);
    let c = run_once(4321);
    assert_eq!(a, b, "same seed must give identical traces");
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn rng_streams_differ_per_process() {
    let mut sim = Simulation::new(5);
    let a = sim.spawn("a", |ctx| ctx.with_rng(|r| r.next_u64()));
    let b = sim.spawn("b", |ctx| ctx.with_rng(|r| r.next_u64()));
    sim.run();
    assert_ne!(a.take(), b.take());
}

#[test]
fn many_processes_ping_pong() {
    // A ring of processes passing a token; stresses the handshake.
    let mut sim = Simulation::new(1);
    let n = 32;
    let mut channels = Vec::new();
    for _ in 0..n {
        channels.push(sim.channel::<u64>());
    }
    let txs: Vec<_> = channels.iter().map(|(tx, _)| tx.clone()).collect();
    let rxs: Vec<_> = channels.into_iter().map(|(_, rx)| rx).collect();
    let mut outs = Vec::new();
    for (i, rx) in rxs.into_iter().enumerate() {
        let next = txs[(i + 1) % n].clone();
        outs.push(sim.spawn(&format!("ring{i}"), move |ctx| {
            let mut hops = 0u64;
            loop {
                let token = rx.recv(ctx);
                hops += 1;
                if token == 0 {
                    return hops;
                }
                next.send(token - 1);
            }
        }));
    }
    txs[0].send(10 * n as u64); // token circulates 10 full laps
    sim.run_with_limit(100_000);
    // Whoever got token==0 returned; others are still blocked (fine).
    let finished: Vec<_> = outs.iter().filter_map(|o| o.take()).collect();
    assert_eq!(finished.len(), 1);
    assert_eq!(finished[0], 11); // 10 laps + the final zero token
}

/// The shape of a null RPC at the kernel's level — a caller, each
/// machine's packet dispatch as a handler, one server thread — and a
/// caller that also sleeps, which nobody else is awake to end.
#[test]
fn the_activation_table_says_who_ran_and_what_woke_them() {
    const CALLS: u64 = 1_000;
    let mut sim = Simulation::new(1);
    let nodes = [sim.add_node("client"), sim.add_node("server")];
    let (to_server_kernel, at_server_kernel) = sim.channel::<u64>();
    let (to_server, at_server) = sim.channel::<u64>();
    let (to_client_kernel, at_client_kernel) = sim.channel::<u64>();
    let (to_caller, at_caller) = sim.channel::<u64>();
    let handle = sim.handle();
    handle.handler(nodes[1], "rpc@server", at_server_kernel, move |v| {
        to_server.send(v)
    });
    handle.handler(nodes[0], "rpc@client", at_client_kernel, move |v| {
        to_caller.send(v)
    });
    sim.spawn_on(nodes[1], "server", move |ctx| loop {
        to_client_kernel.send(at_server.recv(ctx));
    });
    sim.spawn_on(nodes[0], "caller", move |ctx| {
        for i in 0..CALLS {
            to_server_kernel.send(i);
            assert_eq!(at_caller.recv(ctx), i);
            ctx.sleep(MS);
        }
    });
    let stats = sim.run();
    let row = |name: &str, resumes, handoffs_in, handler_calls| amoeba_sim::Activations {
        name: name.to_owned(),
        resumes,
        handoffs_in,
        handler_calls,
    };
    let table = sim.activations();
    assert_eq!(
        table,
        [
            // Every sleep ends on the caller's own dispatch; every reply
            // comes off the server's.
            row("caller", [1, CALLS, CALLS, 0], [1, 0, CALLS, 0], 0),
            row("rpc@client", [0; 4], [0; 4], CALLS),
            row("rpc@server", [0; 4], [0; 4], CALLS),
            row("server", [1, 0, CALLS, 0], [1, 0, CALLS, 0], 0),
        ]
    );
    // The rows break the run's totals down; the one hand-off that is
    // nobody's is the baton's return to the driver.
    let handed_in: u64 = table.iter().flat_map(|r| r.handoffs_in).sum();
    let handler_calls: u64 = table.iter().map(|r| r.handler_calls).sum();
    assert_eq!(
        (handed_in + 1, handler_calls),
        (stats.handoffs, stats.handler_calls)
    );

    // A crash takes the handler, not its count; its successor of the
    // same name adds to the row.
    sim.crash_node(nodes[1]);
    sim.revive_node(nodes[1]);
    let (again, at_again) = sim.channel::<u64>();
    handle.handler(nodes[1], "rpc@server", at_again, |_| {});
    again.send(0);
    sim.run();
    let table = sim.activations();
    assert_eq!(table[2], row("rpc@server", [0; 4], [0; 4], CALLS + 1));
}
