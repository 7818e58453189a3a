//! Processes are coroutines: every process body runs on the thread that
//! calls `run`, each on a stack of its own that is freed as soon as its
//! process is done, and as deep as a thread's.
//!
//! The umbrella crate's `tests/sim_kernel.rs` compiles this file too.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::thread::{self, ThreadId};
use std::time::Duration;

use amoeba_sim::{mapped_stacks, Simulation};

const MS: Duration = Duration::from_millis(1);

#[test]
fn every_process_body_runs_on_the_thread_that_calls_run() {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("n");
    let ran: Rc<RefCell<Vec<(&str, ThreadId)>>> = Rc::default();
    let boot = |sim: &Simulation, boot: &'static str| {
        for _ in 0..3 {
            let ran = Rc::clone(&ran);
            sim.spawn_on(node, boot, move |ctx| loop {
                ran.borrow_mut().push((boot, thread::current().id()));
                ctx.sleep(MS);
            });
        }
    };
    boot(&sim, "first boot");
    sim.run_for(5 * MS);
    sim.crash_node(node);
    sim.run_for(MS);
    sim.revive_node(node);
    boot(&sim, "second boot");
    sim.run_for(5 * MS);

    let ran = ran.borrow();
    for boot in ["first boot", "second boot"] {
        let steps = ran.iter().filter(|(b, _)| *b == boot).count();
        assert!(steps >= 15, "{boot}: {steps} steps");
    }
    let driver = thread::current().id();
    assert!(ran.iter().all(|&(_, id)| id == driver));
}

#[test]
fn ten_thousand_children_that_finish_leave_no_stack_mapped() {
    let before = mapped_stacks();
    let mut sim = Simulation::new(1);
    let peak = sim.spawn("parent", |ctx| {
        let mut peak = 0;
        for i in 0..10_000 {
            ctx.spawn("child", |ctx| ctx.sleep(MS));
            if i % 100 == 99 {
                ctx.sleep(2 * MS);
                peak = peak.max(mapped_stacks());
            }
        }
        peak
    });
    sim.run();
    // Each batch of children is freed while the next is spawned, not
    // when the simulation goes.
    assert!(peak.take().expect("the parent finished") <= before + 101);
    assert_eq!(mapped_stacks(), before);
    drop(sim);
    assert_eq!(mapped_stacks(), before);
}

/// Recurses `frames` times, 4 KiB a frame; returns the address of the
/// deepest frame.
fn deepest(frames: usize) -> usize {
    let frame = [0u8; 4096];
    let here = black_box(&frame).as_ptr() as usize;
    let deepest = if frames == 0 {
        here
    } else {
        deepest(frames - 1)
    };
    black_box(&frame);
    deepest
}

/// As deep as std's 2 MiB thread stack lets a debug build go.
#[test]
fn a_process_can_recurse_through_a_mebibyte_of_stack() {
    let mut sim = Simulation::new(1);
    let depth = sim.spawn("deep", |_| {
        let top = 0u8;
        black_box(&top) as *const u8 as usize - deepest(256)
    });
    sim.run();
    assert!(depth.take().expect("it returned") >= 1 << 20);
}
