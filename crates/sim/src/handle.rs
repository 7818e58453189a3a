//! A cloneable handle to a running simulation.
//!
//! Library layers (network stacks, servers) need to create mailboxes and
//! read the clock from constructors that may be called either from setup
//! code (with a [`crate::Simulation`]) or from inside a process (with a
//! [`crate::Ctx`]). `SimHandle` is the common denominator both can produce.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use crate::fnv::fnv1a;
use crate::ids::NodeId;
use crate::kernel::{Handler, Kernel};
use crate::mailbox::{channel_impl, MailboxRx, MailboxTx};
use crate::record::StepTag;
use crate::time::SimTime;

/// A capability to create mailboxes and read the virtual clock.
///
/// Obtained from [`Simulation::handle`](crate::Simulation::handle) or
/// [`Ctx::handle`](crate::Ctx::handle); freely cloneable, and like the
/// simulation it belongs to, bound to the thread that made it.
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// send(amoeba_sim::Simulation::new(1).handle());
/// ```
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) shared: Rc<RefCell<Kernel>>,
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimHandle(now={})", self.now())
    }
}

impl SimHandle {
    /// Creates a new typed mailbox.
    pub fn channel<T: 'static>(&self) -> (MailboxTx<T>, MailboxRx<T>) {
        channel_impl(&self.shared)
    }

    /// Makes `f` the reader of `rx`'s mailbox: a *kernel handler* on
    /// `node`, called with each message at the instant it is delivered,
    /// by whichever context is running the event loop — no process is
    /// woken, so a delivery costs no switch of stacks. This is for code that
    /// takes no simulated time and only passes messages on (a machine's
    /// packet demultiplexers and protocol timers).
    ///
    /// `f` runs with the kernel not borrowed: it may send, read the clock
    /// and touch its own state. It must not block (it has no
    /// [`Ctx`](crate::Ctx)) and must not read per-process state such as
    /// [`ambient`](crate::ambient) (it runs inside an arbitrary process,
    /// or the driver). It is not a
    /// process — no RNG stream, no [`ProcOutput`](crate::ProcOutput) —
    /// but is numbered like one: it takes the next [`ProcId`](crate::ProcId),
    /// so turning a process into a handler leaves the ids, and the RNG
    /// streams keyed by them, of all later processes as they were. A
    /// panic in `f` stops the run and is re-raised by `run` as
    /// `handler '<name>': …`.
    ///
    /// The kernel owns `f` and `rx`. When `node` crashes both are dropped
    /// and messages still in flight are discarded; register anew after
    /// the reboot. Messages that reached the mailbox before this call are
    /// handled along with the first one delivered after it.
    ///
    /// # Panics
    ///
    /// Panics if `node` is crashed.
    pub fn handler<T: 'static>(
        &self,
        node: NodeId,
        name: &str,
        rx: MailboxRx<T>,
        mut f: impl FnMut(T) + 'static,
    ) {
        let mailbox = rx.id();
        let call = Box::new(move || {
            while let Some(msg) = rx.try_recv() {
                f(msg);
            }
        });
        let mut k = self.shared.borrow_mut();
        assert!(
            k.node_alive(node),
            "cannot register a handler on crashed node {node}"
        );
        let pid = k.alloc_pid();
        k.checkpoint(
            StepTag::Spawn,
            pid.0,
            node.0 as u64 + 1,
            fnv1a(name.as_bytes()),
        );
        let calls = Rc::clone(k.handler_calls_by_name.entry(name.to_owned()).or_default());
        let handler = Handler {
            name: name.to_owned(),
            node,
            call: RefCell::new(call),
            calls,
        };
        k.mailboxes
            .get_mut(&mailbox)
            .expect("a live receiver's mailbox has a record")
            .handler = Some(Rc::new(handler));
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.borrow().now
    }

    /// The seed the simulation was created with.
    pub fn seed(&self) -> u64 {
        self.shared.borrow().seed
    }

    /// Records a fault-model action into the decision trace (no-op unless
    /// the simulation is recording or replaying). Used by the network layer
    /// to pin link/partition/parameter changes; `code` should come from
    /// [`crate::fault_codes`].
    pub fn record_fault(&self, code: u64, a: u64, b: u64) {
        self.shared.borrow_mut().record_fault(code, a, b);
    }

    /// A snapshot of the decision trace recorded so far; `None` unless the
    /// simulation was created with [`crate::Simulation::recording`].
    ///
    /// Unlike [`crate::Simulation::take_recording`] this works from a
    /// handle, so a runner that wrapped the simulation in `catch_unwind`
    /// can still retrieve the trace after a panic tore the simulation down.
    pub fn snapshot_recording(&self) -> Option<crate::record::SimTrace> {
        self.shared.borrow().snapshot_recording()
    }

    /// Attaches an arbitrary per-simulation payload to the kernel.
    ///
    /// This is how cross-cutting observers (the telemetry collector) reach
    /// every layer without threading a handle through each constructor:
    /// any component holding a `SimHandle` can look the payload up. The
    /// slot is per-`Simulation`, so parallel tests never share state. The
    /// kernel itself never reads the payload — storing one cannot perturb
    /// scheduling.
    pub fn set_user_data(&self, data: Rc<dyn Any>) {
        self.shared.borrow_mut().user_data = Some(data);
    }

    /// The payload installed by [`SimHandle::set_user_data`], if any.
    pub fn user_data(&self) -> Option<Rc<dyn Any>> {
        self.shared.borrow().user_data.clone()
    }
}
