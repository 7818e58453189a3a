//! The process-side API: everything a simulated process may do.

use std::cell::RefCell;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Duration;

use crate::coro::Target;
use crate::ids::{MailboxId, NodeId, ProcId};
use crate::kernel::{
    dispatch, hand_off, panic_message, HandOff, Kernel, KillToken, Next, WakeReason, Wakeup,
    YieldKind,
};
use crate::mailbox::{channel_impl, KeptReplies, MailboxRx, MailboxTx, ReplyRx};
use crate::process::{spawn_impl, ProcOutput};
use crate::rng::SimRng;
use crate::time::SimTime;

/// The execution context handed to every simulated process.
///
/// All blocking calls (`sleep`, `recv`, …) yield the baton and run the
/// simulator's event loop until this process is due again; no real time
/// passes. A `Ctx` is only usable from the process it was created
/// for, and cannot leave the simulation's thread:
///
/// ```compile_fail
/// fn send<T: Send>(_: &T) {}
/// amoeba_sim::Simulation::new(1).spawn("p", |ctx| send(ctx));
/// ```
///
/// # Crash semantics
///
/// If this process's node is crashed, the next blocking or kernel-touching
/// call never returns: the process unwinds and is reaped by the kernel. Code
/// must therefore not hold a borrow across blocking calls.
pub struct Ctx {
    pid: ProcId,
    node: Option<NodeId>,
    name: String,
    shared: Rc<RefCell<Kernel>>,
    /// This process's context, and what it finds when switched to.
    cell: Rc<HandOff<Wakeup>>,
    rng: RefCell<SimRng>,
    /// The reply mailboxes [`reply_channel`](Ctx::reply_channel) lends.
    replies: KeptReplies,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("node", &self.node)
            .finish()
    }
}

impl Ctx {
    pub(crate) fn new(
        pid: ProcId,
        node: Option<NodeId>,
        name: String,
        shared: Rc<RefCell<Kernel>>,
        cell: Rc<HandOff<Wakeup>>,
        rng: SimRng,
    ) -> Self {
        Ctx {
            pid,
            node,
            name,
            shared,
            cell,
            rng: RefCell::new(rng),
            replies: KeptReplies::default(),
        }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The node this process runs on, if it was spawned on one.
    pub fn node(&self) -> Option<NodeId> {
        self.node
    }

    /// The name given at spawn time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.check_alive();
        self.shared.borrow().now
    }

    /// Runs `f` with this process's deterministic RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SimRng) -> T) -> T {
        f(&mut self.rng.borrow_mut())
    }

    /// Suspends this process for `d` of virtual time.
    pub fn sleep(&self, d: Duration) {
        let until = self.now() + d;
        self.sleep_until(until);
    }

    /// Suspends this process until the given instant (no-op if in the past).
    pub fn sleep_until(&self, until: SimTime) {
        self.check_alive();
        let reason = self.block(YieldKind::Sleep { until });
        debug_assert_eq!(reason, WakeReason::Slept);
    }

    /// Spawns a sibling process on the same node.
    pub fn spawn<F, R>(&self, name: &str, f: F) -> ProcOutput<R>
    where
        F: FnOnce(&Ctx) -> R + 'static,
        R: 'static,
    {
        self.check_alive();
        spawn_impl(&self.shared, name, self.node, f)
    }

    /// Spawns a process on an explicit node.
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed.
    pub fn spawn_on<F, R>(&self, node: NodeId, name: &str, f: F) -> ProcOutput<R>
    where
        F: FnOnce(&Ctx) -> R + 'static,
        R: 'static,
    {
        self.check_alive();
        spawn_impl(&self.shared, name, Some(node), f)
    }

    /// Creates a new typed mailbox; the receiver should be owned by exactly
    /// one process at a time.
    pub fn channel<T: 'static>(&self) -> (MailboxTx<T>, MailboxRx<T>) {
        self.check_alive();
        channel_impl(&self.shared)
    }

    /// A mailbox for the reply to one blocking call: the one this process
    /// kept from its last call with replies of type `T`, opened for a new
    /// conversation, or else a new one. Dropping the receiver closes the
    /// conversation as dropping a [`channel`](Ctx::channel)'s receiver
    /// closes its mailbox, so nothing sent to it, before or after, is
    /// read by a later call, and keeps the mailbox for the next call:
    /// once a process has made a call of each type, its calls allocate no
    /// mailbox.
    pub fn reply_channel<T: 'static>(&self) -> (MailboxTx<T>, ReplyRx<'_, T>) {
        self.check_alive();
        self.replies.lend(&self.shared)
    }

    /// A cloneable handle for creating mailboxes and reading the clock.
    pub fn handle(&self) -> crate::handle::SimHandle {
        crate::handle::SimHandle {
            shared: Rc::clone(&self.shared),
        }
    }

    /// Crashes a node: every process on it is killed, its RAM state is lost.
    /// Persistent objects (simulated disks, NVRAM) survive.
    pub fn crash_node(&self, node: NodeId) {
        self.check_alive();
        let handlers = self.shared.borrow_mut().crash_node(node);
        // Their state may own things whose drop borrows the kernel.
        drop(handlers);
        // If we crashed our own node, die right here.
        self.check_alive();
    }

    /// Reboots a crashed node so processes can be spawned on it again.
    pub fn revive_node(&self, node: NodeId) {
        self.check_alive();
        self.shared.borrow_mut().revive_node(node);
    }

    /// Whether a node is currently alive.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.check_alive();
        self.shared.borrow().node_alive(node)
    }

    // ------------------------------------------------------------------
    // Internal plumbing.
    // ------------------------------------------------------------------

    pub(crate) fn shared(&self) -> &Rc<RefCell<Kernel>> {
        &self.shared
    }

    /// What the first switch here brought: false means killed before the
    /// first activation.
    pub(crate) fn wait_first(&self) -> bool {
        matches!(self.cell.take(), Wakeup::Run(_))
    }

    /// The driver's context: where a killed process goes when it is done.
    pub(crate) fn driver(&self) -> Target {
        self.shared.borrow().driver.context().target()
    }

    /// Panics with [`KillToken`] if this process has been marked dead.
    pub(crate) fn check_alive(&self) {
        let dead = self.shared.borrow().proc(self.pid).is_none_or(|p| p.dead);
        if dead {
            panic_any(KillToken::Crashed);
        }
    }

    /// Records this process's yield, then runs the event loop on this
    /// stack until some process must run. `Ok` with the wake reason if
    /// that is this process; otherwise the baton has been handed on, and
    /// `Err` names the context to switch to.
    fn yield_baton(&self, kind: YieldKind) -> Result<WakeReason, Target> {
        let digest = self.rng.borrow().digest();
        self.shared
            .borrow_mut()
            .record_yield(self.pid, kind, digest);
        match dispatch(&self.shared) {
            Next::Run(pid, reason) if pid == self.pid => Ok(reason),
            next => Err(hand_off(&mut self.shared.borrow_mut(), next)),
        }
    }

    /// Yields and blocks until this process is due again.
    pub(crate) fn block(&self, kind: YieldKind) -> WakeReason {
        self.yield_baton(kind)
            .unwrap_or_else(|to| match self.cell.park(to) {
                Wakeup::Run(reason) => reason,
                Wakeup::Kill => panic_any(KillToken::Reaped),
            })
    }

    /// The body returned (`panic: None`) or panicked: the final yield.
    /// Returns the context to switch to for good.
    ///
    /// Nothing catches a panic above this call, and the event loop it
    /// runs can panic (a replay divergence, a kernel `expect`). That
    /// would unwind out of the coroutine with the baton in hand, so the
    /// baton goes to the driver with the text.
    pub(crate) fn exit(&self, panic: Option<String>) -> Target {
        let last_yield = AssertUnwindSafe(|| {
            self.yield_baton(YieldKind::Exited { panic })
                .expect_err("an exited process was resumed")
        });
        catch_unwind(last_yield).unwrap_or_else(|payload| {
            let mut k = self.shared.borrow_mut();
            let msg = panic_message(payload);
            k.poisoned
                .get_or_insert(format!("'{}' ({}): {msg}", self.name, self.pid));
            hand_off(&mut k, Next::Stop)
        })
    }

    /// Blocks until `mailbox` is non-empty or `deadline` passes.
    /// The caller must have checked that the mailbox is currently empty.
    pub(crate) fn block_wait(&self, mailbox: MailboxId, deadline: Option<SimTime>) -> WakeReason {
        self.check_alive();
        self.block(YieldKind::Wait { mailbox, deadline })
    }
}
