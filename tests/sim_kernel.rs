//! The simulator kernel's hand-off accounting and its crash edges, as
//! seen through the umbrella crate (tier-1 runs only this package; the
//! full set lives in `crates/sim/tests/kernel_behavior.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
/// dropped unrun, and its thread joined by the time `run` returns.
struct Unwound(Arc<AtomicBool>);

impl Drop for Unwound {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn crashed_processes_end_running_parked_or_unstarted() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let flags: Vec<_> = (0..3).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let mut guards = flags.iter().map(|f| Unwound(Arc::clone(f)));
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
    assert!(flags.iter().all(|f| f.load(Ordering::SeqCst)));
    assert_eq!((parked.take(), running.take()), (None, None));
    assert_eq!(bystander.take(), Some(SimTime::from_millis(5)));
}
