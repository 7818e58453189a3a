//! Record/replay behavior of the simulation kernel: same-seed runs yield
//! identical traces (including across node crashes), replay of a recorded
//! run verifies cleanly, and a divergent re-run panics at the first
//! departing decision.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use amoeba_sim::{SimTrace, Simulation};

/// A small program with messaging, sleeping, RNG draws and a node crash —
/// enough moving parts to exercise every step tag.
fn busy_program(sim: &Simulation, crash: bool) {
    let node = sim.add_node("victim");
    let (tx, rx) = sim.channel::<u64>();
    for i in 0..4 {
        let tx = tx.clone();
        sim.spawn(&format!("producer-{i}"), move |ctx| {
            for round in 0..8u64 {
                let jitter = ctx.with_rng(|r| r.range(0, 500));
                ctx.sleep(Duration::from_micros(100 + jitter));
                tx.send(i * 100 + round);
            }
        });
    }
    sim.spawn_on(node, "doomed", |ctx| loop {
        ctx.sleep(Duration::from_micros(50));
        ctx.with_rng(|r| r.next_u64());
    });
    sim.spawn_on(node, "doomed-2", |ctx| loop {
        ctx.sleep(Duration::from_micros(70));
    });
    sim.spawn("consumer", move |ctx| {
        let mut got = 0u32;
        while got < 32 {
            if rx
                .recv_deadline(ctx, ctx.now() + Duration::from_millis(50))
                .is_some()
            {
                got += 1;
            } else {
                break;
            }
        }
        got
    });
    if crash {
        sim.spawn("chaos", move |ctx| {
            ctx.sleep(Duration::from_millis(1));
            ctx.crash_node(node);
            ctx.sleep(Duration::from_millis(1));
            ctx.revive_node(node);
        });
    }
}

fn record_once(seed: u64, crash: bool) -> SimTrace {
    let mut sim = Simulation::recording(seed);
    busy_program(&sim, crash);
    sim.run_until(amoeba_sim::SimTime::from_millis(20));
    sim.take_recording().expect("recording was enabled")
}

#[test]
fn same_seed_double_run_traces_are_identical() {
    let a = record_once(42, false);
    let b = record_once(42, false);
    assert!(!a.steps.is_empty());
    assert_eq!(a, b);
}

#[test]
fn traces_are_identical_across_node_crashes() {
    // Pins the sorted-reap fix: the crashed node hosts several processes,
    // kept in a hash set whose iteration order is no contract.
    let a = record_once(7, true);
    let b = record_once(7, true);
    assert_eq!(a, b);
    // The crash and revive show up as fault steps.
    let faults: Vec<_> = a
        .steps
        .iter()
        .filter(|s| s.tag == amoeba_sim::StepTag::Fault)
        .collect();
    assert!(faults
        .iter()
        .any(|s| s.a == amoeba_sim::fault_codes::CRASH_NODE));
    assert!(faults
        .iter()
        .any(|s| s.a == amoeba_sim::fault_codes::REVIVE_NODE));
}

#[test]
fn trace_roundtrips_through_bytes() {
    let t = record_once(9, true);
    let bytes = t.to_bytes();
    assert_eq!(SimTrace::from_bytes(&bytes).unwrap(), t);
}

#[test]
fn replay_of_same_program_verifies_cleanly() {
    let trace = record_once(11, true);
    let mut sim = Simulation::replaying(&trace);
    busy_program(&sim, true);
    sim.run_until(amoeba_sim::SimTime::from_millis(20));
}

#[test]
fn replay_of_divergent_program_panics() {
    let trace = record_once(13, false);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::replaying(&trace);
        // Same seed, different program: one extra early process shifts
        // every subsequent scheduling decision.
        sim.spawn("intruder", |ctx| ctx.sleep(Duration::from_micros(1)));
        busy_program(&sim, false);
        sim.run_until(amoeba_sim::SimTime::from_millis(20));
    }));
    let err = result.expect_err("divergent replay must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("replay divergence"), "unexpected panic: {msg}");
}

#[test]
fn divergence_found_on_a_process_thread_reaches_the_caller_of_run() {
    // Two processes wake each other, so the event loop runs on their
    // stacks; the replayed program sleeps longer in round 5, and the
    // timer that pops at the wrong time is found by whichever of them is
    // dispatching — not by the driver, which must still re-raise it.
    fn program(sim: &Simulation, slow_round: u64) {
        let (to_b, b_rx) = sim.channel::<u64>();
        let (to_a, a_rx) = sim.channel::<u64>();
        sim.spawn("a", move |ctx| {
            for i in 0..10 {
                let extra = if i == slow_round { 50 } else { 0 };
                ctx.sleep(Duration::from_micros(100 + extra));
                to_b.send(i);
                a_rx.recv(ctx);
            }
        });
        sim.spawn("b", move |ctx| {
            for _ in 0..10 {
                to_a.send(b_rx.recv(ctx));
            }
        });
    }
    let mut sim = Simulation::recording(21);
    program(&sim, u64::MAX);
    sim.run();
    let trace = sim.take_recording().unwrap();

    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::replaying(&trace);
        program(&sim, 5);
        sim.run();
    }))
    .expect_err("divergent replay must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.starts_with("simulated process panicked: ")
            && msg.contains("replay divergence at step"),
        "unexpected panic: {msg}"
    );
}

#[test]
fn divergence_found_by_an_exiting_process_reaches_the_caller_of_run() {
    // 'a' returns while 'b' still sleeps, so a's final yield dispatches
    // b's timer — outside the catch_unwind around a's body. The panic
    // must still hand the baton to the driver, not strand it parked.
    fn program(sim: &Simulation, b_sleep_us: u64) {
        sim.spawn("a", |ctx| ctx.sleep(Duration::from_micros(100)));
        sim.spawn("b", move |ctx| ctx.sleep(Duration::from_micros(b_sleep_us)));
    }
    let mut sim = Simulation::recording(23);
    program(&sim, 200);
    sim.run();
    let trace = sim.take_recording().unwrap();

    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::replaying(&trace);
        program(&sim, 250);
        sim.run();
    }))
    .expect_err("divergent replay must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.starts_with("simulated process panicked: 'a'")
            && msg.contains("replay divergence at step"),
        "unexpected panic: {msg}"
    );
}

#[test]
fn divergence_found_inside_a_handler_reaches_the_caller_of_run_under_its_name() {
    // The handler's own step (a fault record) departs from the trace: the
    // checkpoint panics inside the handler, on the stack of 'sleeper',
    // which happens to be dispatching and is not to blame.
    fn program(sim: &Simulation, operand: u64) {
        let node = sim.add_node("n");
        let (tx, rx) = sim.channel::<u64>();
        let handle = sim.handle();
        sim.handle().handler(node, "nic", rx, move |v| {
            handle.record_fault(amoeba_sim::fault_codes::NET_DOWN, v, 0);
        });
        sim.spawn("sleeper", move |ctx| {
            tx.send_after(Duration::from_micros(100), operand);
            ctx.sleep(Duration::from_micros(200));
        });
    }
    let mut sim = Simulation::recording(25);
    program(&sim, 1);
    sim.run();
    let trace = sim.take_recording().unwrap();

    let mut sim = Simulation::replaying(&trace);
    program(&sim, 1);
    sim.run();

    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::replaying(&trace);
        program(&sim, 2);
        sim.run();
    }))
    .expect_err("divergent replay must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.starts_with("simulated process panicked: handler 'nic': replay divergence at step"),
        "unexpected panic: {msg}"
    );
}

#[test]
fn recording_survives_a_process_panic() {
    // A runner wraps the simulation in catch_unwind and pulls the trace
    // from a handle afterwards — the failure-capture path explore uses.
    let mut handle_slot = None;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut sim = Simulation::recording(17);
        handle_slot = Some(sim.handle());
        sim.spawn("bomb", |ctx| {
            ctx.sleep(Duration::from_millis(2));
            panic!("boom at 2ms");
        });
        sim.run();
    }));
    assert!(result.is_err());
    let trace = handle_slot
        .unwrap()
        .snapshot_recording()
        .expect("trace retrievable after panic");
    assert!(!trace.steps.is_empty());
    assert_eq!(trace.seed, 17);
}

/// Captured on the commit before the kernel loop moved from a scheduler
/// thread onto the yielding threads: the checkpoint order (event → resume
/// → … → yield) and every operand must not have changed. Re-pinned once
/// since, from (334, 16,095,821,225,445,374,181), when a deadline began
/// leaving the queue with its waiter: the one step gone is the
/// `EventTimer` of `doomed`'s sleep at 1.05 ms, armed before the crash
/// at 1 ms killed it, which woke no one. Fewer kernel events; no other
/// step moved.
#[test]
fn trace_matches_the_golden_digest() {
    let trace = record_once(7, true);
    let digest = trace
        .to_bytes()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(
        (trace.steps.len(), digest),
        (333, 11_122_840_218_298_431_666)
    );
}
