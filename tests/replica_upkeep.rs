//! The replica driver runs a machine's background storage work on the
//! schedule the machine asks for, and on no other. The machine here is
//! an in-memory counter that logs when `tend` runs; three replicas of
//! it run on the paper's LAN and group timing.
//!
//! - No upkeep: no process is spawned for it, and the event loop sets
//!   no timer, so a quiet replica is never woken by a timeout.
//! - `WhenIdle(d)`: `tend` runs once per `d` of group silence, and
//!   never while a writer submits more often than every `d`.
//! - `Every(d)`: `tend` runs once per `d` while the replica serves, and
//!   never while it recovers: a lone replica of three never has a
//!   majority, so it never serves.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use amoeba_dirsvc::flip::{NetParams, Network, Payload};
use amoeba_dirsvc::group::{GroupConfig, GroupPeer, SeqNo};
use amoeba_dirsvc::rpc::RpcNode;
use amoeba_dirsvc::rsm::{Replica, ReplicaDeps, RsmConfig, StateMachine, Upkeep};
use amoeba_dirsvc::sim::{Ctx, SimTime, Simulation};

/// Replicas in the group, as in the paper's group service.
const N: usize = 3;

/// A counter of applied operations. What a durable machine would write
/// (the configuration and the cursor) stays in RAM: no replica here
/// reboots.
struct Counter {
    upkeep: Option<Upkeep>,
    /// The applied cursor and the operations applied so far.
    state: Cell<(SeqNo, u64)>,
    config: RefCell<Vec<bool>>,
    /// When each `tend` ran, in simulated nanoseconds.
    tends: RefCell<Vec<u64>>,
}

impl StateMachine for Counter {
    fn apply(&self, _ctx: &Ctx, seq: SeqNo, _op: &Payload, _reply: bool) -> Payload {
        let (_, ops) = self.state.get();
        self.state.set((seq, ops + 1));
        Payload::empty()
    }

    fn flush(&self, _ctx: &Ctx) {}

    fn upkeep(&self) -> Option<Upkeep> {
        self.upkeep
    }

    fn tend(&self, ctx: &Ctx) {
        self.tends.borrow_mut().push(ctx.now().as_nanos());
    }

    fn boot(&self, _ctx: &Ctx) -> Vec<bool> {
        self.config.borrow().clone()
    }

    fn version(&self) -> u64 {
        self.state.get().1
    }

    fn snapshot(&self, _ctx: &Ctx) -> (SeqNo, Payload) {
        let (cursor, ops) = self.state.get();
        (cursor, Payload::new(ops.to_le_bytes().to_vec()))
    }

    fn install(&self, _ctx: &Ctx, cursor: SeqNo, snap: &Payload) -> bool {
        let Ok(ops) = <[u8; 8]>::try_from(&snap[..]) else {
            return false;
        };
        self.state.set((cursor, u64::from_le_bytes(ops)));
        true
    }

    fn persist(&self, _ctx: &Ctx, cursor: SeqNo, config: &[bool], _copying: bool) {
        self.state.set((cursor, self.state.get().1));
        *self.config.borrow_mut() = config.to_vec();
    }
}

/// Starts replicas `0..started` of `N`, each on a machine of its own,
/// with `upkeep` as their machines' schedule.
fn start(sim: &Simulation, started: usize, upkeep: Option<Upkeep>) -> Vec<Replica<Counter>> {
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    (0..started)
        .map(|me| {
            let sim_node = sim.add_node(&format!("m{me}"));
            let stack = net.attach();
            let peer = GroupPeer::start(
                sim,
                sim_node,
                stack.clone(),
                GroupConfig::with_resilience(N as u32 - 1),
            );
            let sm = Counter {
                upkeep,
                state: Cell::new((0, 0)),
                config: RefCell::new(vec![true; N]),
                tends: RefCell::new(Vec::new()),
            };
            Replica::start(
                sim,
                ReplicaDeps {
                    cfg: RsmConfig::new("upkeep", N, me),
                    sim_node,
                    rpc: RpcNode::start(sim_node, stack),
                    peer,
                    sm: Rc::new(sm),
                },
            )
        })
        .collect()
}

/// Each replica's `tend` calls from `from` up to, not including, `to`.
fn tends_between(replicas: &[Replica<Counter>], from: SimTime, to: SimTime) -> Vec<usize> {
    (replicas.iter())
        .map(|r| {
            let tends = r.machine().tends.borrow();
            (tends.iter())
                .filter(|&&t| from.as_nanos() <= t && t < to.as_nanos())
                .count()
        })
        .collect()
}

/// Per replica, how often a process whose name ends in `suffix` was
/// resumed for `reason`: 1 a `sleep` that elapsed, 3 a receive that
/// timed out.
fn resumes(sim: &Simulation, suffix: &str, reason: usize) -> Vec<u64> {
    (sim.activations().into_iter())
        .filter(|row| row.name.starts_with("rsm") && row.name.ends_with(suffix))
        .map(|row| row.resumes[reason])
        .collect()
}

/// Runs `sim` until every replica serves, and a little more, so that
/// the group has gone quiet after forming.
fn form(sim: &mut Simulation, replicas: &[Replica<Counter>]) {
    sim.run_until(SimTime::from_secs(5));
    assert!(replicas.iter().all(|r| r.is_normal()), "the group formed");
}

#[test]
fn a_machine_without_upkeep_gets_no_process_and_no_timer() {
    let mut sim = Simulation::new(7);
    let replicas = start(&sim, N, None);
    form(&mut sim, &replicas);
    let before = resumes(&sim, "-main", 3);
    sim.run_for(Duration::from_secs(10));
    assert_eq!(resumes(&sim, "-main", 3), before, "no idle timer fired");
    assert!(
        (sim.activations().iter()).all(|row| !row.name.ends_with("-checkpoint")),
        "no upkeep process was spawned"
    );
    let all = tends_between(&replicas, SimTime::ZERO, sim.now());
    assert_eq!(all, [0; N]);
}

#[test]
fn an_idle_upkeep_runs_once_per_quiet_period_and_never_under_a_writer() {
    let quiet = Duration::from_millis(200);
    let mut sim = Simulation::new(7);
    let replicas = start(&sim, N, Some(Upkeep::WhenIdle(quiet)));
    form(&mut sim, &replicas);

    // Ten quiet seconds: one `tend` per 200 ms on every replica, each a
    // timed-out wait of the event loop.
    let (t0, timed_out) = (sim.now(), resumes(&sim, "-main", 3));
    sim.run_for(Duration::from_secs(10));
    let t1 = sim.now();
    assert_eq!(tends_between(&replicas, t0, t1), [50; N]);
    let during: Vec<u64> = (resumes(&sim, "-main", 3).iter().zip(&timed_out))
        .map(|(after, before)| after - before)
        .collect();
    assert_eq!(during, [50; N]);

    // A writer that submits every 100 ms keeps the group from ever
    // being quiet for 200 ms: no replica tends while it writes.
    let writer = replicas[0].clone();
    let written = sim.spawn("writer", move |ctx| {
        for _ in 0..50 {
            writer.submit(ctx, vec![1]).expect("in service");
            ctx.sleep(quiet / 2);
        }
        ctx.now()
    });
    sim.run_for(Duration::from_secs(10));
    let t2 = written.take().expect("the writer finished");
    assert_eq!(tends_between(&replicas, t1, t2), [0; N]);
    assert!(replicas.iter().all(|r| r.machine().version() == 50));
}

#[test]
fn a_periodic_upkeep_runs_once_per_period_in_service_and_never_while_recovering() {
    let period = Duration::from_millis(250);

    // In service: one `tend` per 250 ms on every replica.
    let mut sim = Simulation::new(7);
    let replicas = start(&sim, N, Some(Upkeep::Every(period)));
    form(&mut sim, &replicas);
    let t0 = sim.now();
    sim.run_for(Duration::from_secs(10));
    assert_eq!(tends_between(&replicas, t0, sim.now()), [40; N]);

    // A lone replica of three never has a majority: its upkeep process
    // wakes every 250 ms and finds it recovering each time.
    let mut sim = Simulation::new(7);
    let lone = start(&sim, 1, Some(Upkeep::Every(period)));
    sim.run_until(SimTime::from_secs(10));
    assert!(!lone[0].is_normal());
    assert_eq!(resumes(&sim, "-checkpoint", 1), [40]);
    assert_eq!(tends_between(&lone, SimTime::ZERO, sim.now()), [0]);
}
