//! The [`Simulation`]: owner of the kernel and the *driver* — the code
//! on the calling thread's own stack that starts the event loop, stays
//! suspended while processes pass the baton among their stacks, and
//! takes it back to reap crashed processes, to re-raise a process panic,
//! and when the run is over.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use crate::coro;
use crate::ctx::Ctx;
use crate::ids::{NodeId, ProcId};
use crate::kernel::{
    dispatch, hand_off, install_quiet_panic_hook, HandOff, Kernel, Next, ProcState, Wakeup,
};
use crate::mailbox::{channel_impl, MailboxRx, MailboxTx};
use crate::process::{spawn_impl, ProcOutput};
use crate::record::{RecMode, SimTrace};
use crate::time::SimTime;

/// Statistics returned by [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Total kernel events processed so far.
    pub events: u64,
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
    /// Total moves of the baton from one process's stack to another's so
    /// far: a process waking another, the driver starting one, the
    /// driver getting it back. A process that wakes itself makes none.
    /// Exact and deterministic, like `events`.
    pub handoffs: u64,
    /// Total calls of kernel handlers so far (see
    /// [`SimHandle::handler`](crate::SimHandle::handler)): deliveries
    /// that resumed no process. Exact and deterministic.
    pub handler_calls: u64,
}

/// One row of [`Simulation::activations`]: how often the processes, or
/// the kernel handlers, of one name ran.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Activations {
    /// The full name given at spawn or registration. Processes (or
    /// handlers) that share a name — a rebooted machine's — share a row.
    pub name: String,
    /// Times a process of this name was resumed, by what woke it: its
    /// first activation, a `sleep` that elapsed, a mailbox that became
    /// non-empty, a receive that timed out — in that order.
    pub resumes: [u64; 4],
    /// Of [`resumes`](Self::resumes), those for which the baton came
    /// from one process's stack to another's (a [`RunStats::handoffs`]
    /// each). The rest are self-wakes: the process, blocked, dispatched
    /// its own wake-up event and simply went on.
    pub handoffs_in: [u64; 4],
    /// Times a kernel handler of this name was called
    /// (a [`RunStats::handler_calls`] each).
    pub handler_calls: u64,
}

/// A deterministic discrete-event simulation.
///
/// Spawn processes, then call [`run`](Simulation::run) (or
/// [`run_until`](Simulation::run_until)) to execute them under virtual time.
/// Execution is bit-exactly reproducible for a given seed and program.
///
/// # Examples
///
/// ```
/// use amoeba_sim::Simulation;
/// use std::time::Duration;
///
/// let mut sim = Simulation::new(42);
/// let out = sim.spawn("worker", |ctx| {
///     ctx.sleep(Duration::from_millis(5));
///     ctx.now().as_millis_f64()
/// });
/// sim.run();
/// assert_eq!(out.take(), Some(5.0));
/// ```
///
/// Every process runs as a coroutine on the thread that calls `run`, so
/// a `Simulation` stays on the thread that made it: it is not `Send`
/// (its kernel is an `Rc<RefCell<_>>`). Code may keep a thread-local's
/// address across a call, and a process resumed on another thread would
/// use the old thread's.
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// send(amoeba_sim::Simulation::new(1));
/// ```
pub struct Simulation {
    shared: Rc<RefCell<Kernel>>,
    /// The driver's context, and the baton's way back to it.
    driver: Rc<HandOff<Next>>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = self.shared.borrow();
        f.debug_struct("Simulation")
            .field("now", &k.now)
            .field("events", &k.events_processed)
            .field("procs", &k.procs().count())
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        install_quiet_panic_hook();
        let kernel = Kernel::new(seed);
        Simulation {
            driver: Rc::clone(&kernel.driver),
            shared: Rc::new(RefCell::new(kernel)),
        }
    }

    /// Creates a simulation that records its decision trace (a
    /// [`SimTrace`]). Must be used instead of [`Simulation::new`]
    /// *before* any process is spawned, so the trace covers the whole run.
    pub fn recording(seed: u64) -> Self {
        let sim = Simulation::new(seed);
        sim.shared.borrow_mut().rec = RecMode::Record(Vec::new());
        sim
    }

    /// Creates a simulation that replays (verifies against) a recorded
    /// trace: the same program must be re-run on it, and the first decision
    /// that departs from the trace panics with a `replay divergence`
    /// message. The seed is taken from the trace.
    pub fn replaying(trace: &SimTrace) -> Self {
        let sim = Simulation::new(trace.seed);
        sim.shared.borrow_mut().rec = RecMode::Replay {
            steps: trace.steps.clone(),
            cursor: 0,
        };
        sim
    }

    /// A snapshot of the decision trace recorded so far; `None` unless the
    /// simulation was created with [`Simulation::recording`].
    pub fn take_recording(&self) -> Option<SimTrace> {
        self.shared.borrow().snapshot_recording()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.borrow().now
    }

    /// How often every process and kernel handler has run so far, by
    /// name, in name order. Exact and deterministic like [`RunStats`],
    /// whose `handoffs` and `handler_calls` these rows break down
    /// (hand-offs to the driver belong to no process): counted where
    /// the kernel resumes a process, passes the baton and calls a
    /// handler, so reading them perturbs nothing.
    pub fn activations(&self) -> Vec<Activations> {
        let k = self.shared.borrow();
        let mut rows: BTreeMap<&str, Activations> = BTreeMap::new();
        for (_, p) in k.procs() {
            let row = rows.entry(&p.name).or_default();
            for reason in 0..4 {
                row.resumes[reason] += p.resumes[reason];
                row.handoffs_in[reason] += p.handoffs_in[reason];
            }
        }
        for (name, calls) in &k.handler_calls_by_name {
            rows.entry(name).or_default().handler_calls = calls.get();
        }
        rows.into_iter()
            .map(|(name, row)| Activations {
                name: name.to_owned(),
                ..row
            })
            .collect()
    }

    /// Adds a crashable node (failure domain) to the topology.
    pub fn add_node(&self, name: &str) -> NodeId {
        self.shared.borrow_mut().add_node(name)
    }

    /// Crashes a node at the current instant.
    pub fn crash_node(&self, node: NodeId) {
        let handlers = self.shared.borrow_mut().crash_node(node);
        // Their state may own things whose drop borrows the kernel.
        drop(handlers);
    }

    /// Reboots a crashed node.
    pub fn revive_node(&self, node: NodeId) {
        self.shared.borrow_mut().revive_node(node);
    }

    /// Whether a node is alive.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.shared.borrow().node_alive(node)
    }

    /// Spawns a free-standing process (not tied to any node).
    pub fn spawn<F, R>(&self, name: &str, f: F) -> ProcOutput<R>
    where
        F: FnOnce(&Ctx) -> R + 'static,
        R: 'static,
    {
        spawn_impl(&self.shared, name, None, f)
    }

    /// Spawns a process on a node; it dies if the node crashes.
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed.
    pub fn spawn_on<F, R>(&self, node: NodeId, name: &str, f: F) -> ProcOutput<R>
    where
        F: FnOnce(&Ctx) -> R + 'static,
        R: 'static,
    {
        spawn_impl(&self.shared, name, Some(node), f)
    }

    /// Creates a mailbox from outside any process (for setup code).
    pub fn channel<T: 'static>(&self) -> (MailboxTx<T>, MailboxRx<T>) {
        channel_impl(&self.shared)
    }

    /// A cloneable handle for creating mailboxes and reading the clock.
    pub fn handle(&self) -> crate::handle::SimHandle {
        crate::handle::SimHandle {
            shared: Rc::clone(&self.shared),
        }
    }

    /// Runs until no events remain (the quiescent state).
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a simulated process.
    pub fn run(&mut self) -> RunStats {
        self.run_inner(None, u64::MAX)
    }

    /// Runs until virtual time exceeds `deadline` (events after it stay
    /// queued and `now` is advanced to `deadline`), or until quiescent.
    pub fn run_until(&mut self, deadline: SimTime) -> RunStats {
        self.run_inner(Some(deadline), u64::MAX)
    }

    /// Runs for `d` more virtual time.
    pub fn run_for(&mut self, d: Duration) -> RunStats {
        let deadline = self.now() + d;
        self.run_until(deadline)
    }

    /// Runs until quiescent or until `max_events` more events have been
    /// processed — a guard against livelock in tests.
    pub fn run_with_limit(&mut self, max_events: u64) -> RunStats {
        self.run_inner(None, max_events)
    }

    fn run_inner(&mut self, deadline: Option<SimTime>, max_events: u64) -> RunStats {
        {
            let mut k = self.shared.borrow_mut();
            k.deadline = deadline;
            k.budget = max_events;
        }
        let mut next = dispatch(&self.shared);
        loop {
            next = match next {
                Next::Stop => break,
                Next::Reap(pids) => {
                    for &pid in &pids {
                        self.kill_handshake(pid);
                    }
                    dispatch(&self.shared)
                }
                run => {
                    let to = hand_off(&mut self.shared.borrow_mut(), run);
                    self.driver.park(to)
                }
            };
        }
        let mut k = self.shared.borrow_mut();
        if let Some(msg) = k.poisoned.take() {
            drop(k);
            self.teardown();
            panic!("simulated process panicked: {msg}");
        }
        RunStats {
            events: k.events_processed,
            end_time: k.now,
            handoffs: k.handoffs,
            handler_calls: k.handler_calls,
        }
    }

    /// Tells a suspended process to unwind (it is marked dead, or this is
    /// teardown) and switches to it; it switches back once it is done,
    /// and its stack is freed. Only the driver does this, holding the
    /// baton, so no simulated code runs meanwhile.
    fn kill_handshake(&mut self, pid: ProcId) {
        // Switched to only after the borrow is released: a process's last
        // drops may borrow the kernel.
        let cell = {
            let mut k = self.shared.borrow_mut();
            let p = match k.proc_mut(pid) {
                Some(p) => p,
                None => return,
            };
            let cell = (p.state != ProcState::Exited).then(|| Rc::clone(&p.cell));
            p.state = ProcState::Exited;
            k.clear_wait(pid);
            cell
        };
        if let Some(cell) = cell {
            // Killed processes never propagate panics.
            coro::switch(self.driver.context(), cell.put(Wakeup::Kill));
        }
    }

    /// Kills every non-exited process, freeing every stack.
    fn teardown(&mut self) {
        let pids: Vec<ProcId> = self.shared.borrow().procs().map(|(pid, _)| pid).collect();
        for pid in pids {
            self.kill_handshake(pid);
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        self.teardown();
        let contents = self.shared.borrow_mut().clear();
        drop(contents);
    }
}
