//! The [`Simulation`]: owner of the kernel and driver of the event loop.

use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver};
use parking_lot::Mutex;

use crate::ctx::Ctx;
use crate::ids::{NodeId, ProcId};
use crate::kernel::{
    install_quiet_panic_hook, BlockKind, EventKind, Kernel, ProcState, Resume, Wake, WakeReason,
    YieldKind, YieldMsg,
};
use crate::mailbox::{channel_impl, MailboxRx, MailboxTx};
use crate::process::ProcOutput;
use crate::record::{RecMode, SimTrace, StepTag};
use crate::time::SimTime;

/// Statistics returned by [`Simulation::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Total kernel events processed so far.
    pub events: u64,
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
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
pub struct Simulation {
    shared: Arc<Mutex<Kernel>>,
    yield_rx: Receiver<YieldMsg>,
    /// Set when a process panicked; the panic is re-raised after teardown.
    poisoned: Option<String>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let k = self.shared.lock();
        f.debug_struct("Simulation")
            .field("now", &k.now)
            .field("events", &k.events_processed)
            .field("procs", &k.procs.len())
            .finish()
    }
}

impl Simulation {
    /// Creates an empty simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        install_quiet_panic_hook();
        let (yield_tx, yield_rx) = unbounded();
        Simulation {
            shared: Arc::new(Mutex::new(Kernel::new(seed, yield_tx))),
            yield_rx,
            poisoned: None,
        }
    }

    /// Creates a simulation that records its decision trace (see
    /// [`crate::record`]). Must be used instead of [`Simulation::new`]
    /// *before* any process is spawned, so the trace covers the whole run.
    pub fn recording(seed: u64) -> Self {
        let sim = Simulation::new(seed);
        sim.shared.lock().rec = RecMode::Record(Vec::new());
        sim
    }

    /// Creates a simulation that replays (verifies against) a recorded
    /// trace: the same program must be re-run on it, and the first decision
    /// that departs from the trace panics with a `replay divergence`
    /// message. The seed is taken from the trace.
    pub fn replaying(trace: &SimTrace) -> Self {
        let sim = Simulation::new(trace.seed);
        sim.shared.lock().rec = RecMode::Replay {
            steps: trace.steps.clone(),
            cursor: 0,
        };
        sim
    }

    /// A snapshot of the decision trace recorded so far; `None` unless the
    /// simulation was created with [`Simulation::recording`].
    pub fn take_recording(&self) -> Option<SimTrace> {
        self.shared.lock().snapshot_recording()
    }

    /// Enables trace collection (see [`take_trace`](Simulation::take_trace)).
    pub fn enable_trace(&self) {
        self.shared.lock().trace = Some(Vec::new());
    }

    /// Drains and returns collected trace lines.
    pub fn take_trace(&self) -> Vec<(SimTime, String)> {
        self.shared
            .lock()
            .trace
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.lock().now
    }

    /// Adds a crashable node (failure domain) to the topology.
    pub fn add_node(&self, name: &str) -> NodeId {
        self.shared.lock().add_node(name)
    }

    /// Crashes a node at the current instant.
    pub fn crash_node(&self, node: NodeId) {
        self.shared.lock().crash_node(node);
    }

    /// Reboots a crashed node.
    pub fn revive_node(&self, node: NodeId) {
        self.shared.lock().revive_node(node);
    }

    /// Whether a node is alive.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.shared.lock().node_alive(node)
    }

    /// Spawns a free-standing process (not tied to any node).
    pub fn spawn<F, R>(&self, name: &str, f: F) -> ProcOutput<R>
    where
        F: FnOnce(&Ctx) -> R + Send + 'static,
        R: Send + 'static,
    {
        crate::kernel::spawn_proc(&self.shared, name, None, f)
    }

    /// Spawns a process on a node; it dies if the node crashes.
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed.
    pub fn spawn_on<F, R>(&self, node: NodeId, name: &str, f: F) -> ProcOutput<R>
    where
        F: FnOnce(&Ctx) -> R + Send + 'static,
        R: Send + 'static,
    {
        crate::kernel::spawn_proc(&self.shared, name, Some(node), f)
    }

    /// Creates a mailbox from outside any process (for setup code).
    pub fn channel<T: Send + 'static>(&self) -> (MailboxTx<T>, MailboxRx<T>) {
        channel_impl(&self.shared)
    }

    /// A cloneable handle for creating mailboxes and reading the clock.
    pub fn handle(&self) -> crate::handle::SimHandle {
        crate::handle::SimHandle {
            shared: Arc::clone(&self.shared),
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
        let mut processed = 0u64;
        while processed < max_events {
            let event = {
                let mut k = self.shared.lock();
                match k.peek_time() {
                    None => break,
                    Some(t) => {
                        if let Some(d) = deadline {
                            if t > d {
                                k.now = d;
                                break;
                            }
                        }
                        let ev = k.pop_event().expect("peeked event vanished");
                        k.now = ev.time;
                        k.events_processed += 1;
                        k.checkpoint_event(&ev);
                        ev
                    }
                }
            };
            processed += 1;
            match event.kind {
                EventKind::Start(pid) => {
                    let ok = {
                        let k = self.shared.lock();
                        matches!(
                            k.procs.get(&pid),
                            Some(p) if !p.dead && p.state == ProcState::Ready
                        )
                    };
                    if ok {
                        self.resume(pid, WakeReason::First);
                    }
                }
                EventKind::Timer { pid, gen } => {
                    let reason = {
                        let k = self.shared.lock();
                        match k.procs.get(&pid) {
                            Some(p) if !p.dead && p.state == ProcState::Blocked && p.gen == gen => {
                                match p.block {
                                    BlockKind::Sleep => Some(WakeReason::Slept),
                                    BlockKind::Wait => Some(WakeReason::TimedOut),
                                    BlockKind::None => None,
                                }
                            }
                            _ => None,
                        }
                    };
                    if let Some(r) = reason {
                        self.resume(pid, r);
                    }
                }
                EventKind::Action(f) => {
                    let wakes: Vec<Wake> = {
                        let mut k = self.shared.lock();
                        f(&mut k)
                    };
                    for w in wakes {
                        self.resume(w.pid, w.reason);
                    }
                }
                EventKind::Reap(pids) => {
                    for pid in pids {
                        self.kill_handshake(pid);
                    }
                }
            }
            if let Some(msg) = self.poisoned.take() {
                self.teardown();
                panic!("simulated process panicked: {msg}");
            }
        }
        let k = self.shared.lock();
        RunStats {
            events: k.events_processed,
            end_time: k.now,
        }
    }

    /// Resumes `pid` and blocks until it yields again; then records the new
    /// blocking state in the kernel.
    fn resume(&mut self, pid: ProcId, reason: WakeReason) {
        let tx = {
            let mut k = self.shared.lock();
            k.clear_waits(pid);
            let p = match k.procs.get_mut(&pid) {
                Some(p) => p,
                None => return,
            };
            if p.dead || p.state == ProcState::Exited {
                return;
            }
            p.state = ProcState::Running;
            p.block = BlockKind::None;
            p.gen += 1;
            let tx = p.resume_tx.clone();
            let (code, idx) = match reason {
                WakeReason::First => (0, 0),
                WakeReason::Slept => (1, 0),
                WakeReason::MailboxReady(i) => (2, i as u64),
                WakeReason::TimedOut => (3, 0),
            };
            k.checkpoint(StepTag::Resume, pid.0, code, idx);
            tx
        };
        if tx.send(Resume::Go(reason)).is_err() {
            return;
        }
        let y = self
            .yield_rx
            .recv()
            .expect("process thread vanished without yielding");
        debug_assert_eq!(y.pid, pid, "yield from unexpected process");
        self.process_yield(y);
    }

    fn process_yield(&mut self, y: YieldMsg) {
        let pid = y.pid;
        let mut k = self.shared.lock();
        let kind_code = match &y.kind {
            YieldKind::Sleep { .. } => 0,
            YieldKind::Wait { .. } => 1,
            YieldKind::Exited { .. } => 2,
        };
        k.checkpoint(StepTag::Yield, pid.0, kind_code, y.rng_digest);
        match y.kind {
            YieldKind::Sleep { until } => {
                let gen = {
                    let p = k.procs.get_mut(&pid).expect("yield from unknown proc");
                    p.state = ProcState::Blocked;
                    p.block = BlockKind::Sleep;
                    p.gen
                };
                let t = until.max(k.now);
                k.schedule(t, EventKind::Timer { pid, gen });
            }
            YieldKind::Wait { boxes, deadline } => {
                let gen = {
                    let p = k.procs.get_mut(&pid).expect("yield from unknown proc");
                    p.state = ProcState::Blocked;
                    p.block = BlockKind::Wait;
                    p.wait_boxes = boxes.clone();
                    p.gen
                };
                for (idx, b) in boxes.iter().enumerate() {
                    if let Some(rec) = k.mailboxes.get_mut(b) {
                        rec.waiter = Some((pid, gen, idx));
                    }
                }
                if let Some(d) = deadline {
                    let t = d.max(k.now);
                    k.schedule(t, EventKind::Timer { pid, gen });
                }
            }
            YieldKind::Exited { panic } => {
                if let Some(p) = k.procs.get_mut(&pid) {
                    p.state = ProcState::Exited;
                    p.block = BlockKind::None;
                }
                k.clear_waits(pid);
                if let Some(node) = k.procs.get(&pid).and_then(|p| p.node) {
                    if let Some(n) = k.nodes.get_mut(&node) {
                        n.procs.remove(&pid);
                    }
                }
                if let Some(msg) = panic {
                    let name = k
                        .procs
                        .get(&pid)
                        .map(|p| p.name.clone())
                        .unwrap_or_default();
                    self.poisoned = Some(format!("'{name}' ({pid}): {msg}"));
                }
            }
        }
    }

    /// Sends `Kill` to a (dead-marked or teardown) process and waits for its
    /// final `Exited` ack, then joins the thread.
    fn kill_handshake(&mut self, pid: ProcId) {
        // The join handle is taken out and joined only after the lock
        // is released: a thread's last drops may need the kernel lock.
        let (tx, join) = {
            let mut k = self.shared.lock();
            let p = match k.procs.get_mut(&pid) {
                Some(p) => p,
                None => return,
            };
            let tx = (p.state != ProcState::Exited).then(|| p.resume_tx.clone());
            (tx, p.join.take())
        };
        if tx.is_some_and(|tx| tx.send(Resume::Kill).is_ok()) {
            // The only runnable thread is now the dying one; its final yield
            // must be the Exited ack.
            loop {
                match self.yield_rx.recv() {
                    Ok(y) if y.pid == pid && matches!(y.kind, YieldKind::Exited { .. }) => {
                        // Killed processes never propagate panics.
                        let mut k = self.shared.lock();
                        if let Some(p) = k.procs.get_mut(&pid) {
                            p.state = ProcState::Exited;
                        }
                        k.clear_waits(pid);
                        break;
                    }
                    Ok(_) => {
                        // A stale yield from this pid (can't happen with the
                        // handshake, but don't wedge if it does).
                        continue;
                    }
                    Err(_) => break,
                }
            }
        }
        if let Some(j) = join {
            let _ = j.join();
        }
    }

    /// Kills every non-exited process and joins all threads.
    fn teardown(&mut self) {
        let pids: Vec<ProcId> = {
            let k = self.shared.lock();
            k.procs.keys().copied().collect()
        };
        let mut sorted = pids;
        sorted.sort_unstable();
        for pid in sorted {
            self.kill_handshake(pid);
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        self.teardown();
    }
}
