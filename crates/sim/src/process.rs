//! Process spawning: each simulated process is a coroutine on a stack of
//! its own ([`crate::coro`]) that only runs while it holds the baton (see
//! [`crate::kernel`]).
//!
//! Every coroutine is entered: at its first activation, or with
//! [`Wakeup::Kill`](crate::kernel::Wakeup) if it is killed before it, so
//! that its body is dropped on its own stack. Its body catches its own
//! panics and ends by naming the context to switch to: whoever holds the
//! baton next, or the driver that killed it.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use crate::ctx::Ctx;
use crate::ids::{NodeId, ProcId};
use crate::kernel::{
    panic_message, BlockKind, EventKind, HandOff, Kernel, KillToken, ProcRec, ProcState,
};

/// Handle to a spawned process's eventual return value.
///
/// The value becomes available once the process body has returned and the
/// simulation has been stepped past that point; see [`ProcOutput::take`].
#[derive(Debug)]
pub struct ProcOutput<R> {
    pid: ProcId,
    cell: Rc<RefCell<Option<R>>>,
}

impl<R> ProcOutput<R> {
    /// The process's id.
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Takes the return value if the process has finished normally.
    ///
    /// Returns `None` while the process is still running, or if it was
    /// killed by a node crash, or if the value was already taken.
    pub fn take(&self) -> Option<R> {
        self.cell.borrow_mut().take()
    }

    /// Whether the return value is available (process finished normally and
    /// the value has not been taken yet).
    pub fn is_ready(&self) -> bool {
        self.cell.borrow().is_some()
    }
}

impl<R> Clone for ProcOutput<R> {
    fn clone(&self) -> Self {
        ProcOutput {
            pid: self.pid,
            cell: Rc::clone(&self.cell),
        }
    }
}

pub(crate) fn spawn_impl<F, R>(
    shared: &Rc<RefCell<Kernel>>,
    name: &str,
    node: Option<NodeId>,
    f: F,
) -> ProcOutput<R>
where
    F: FnOnce(&Ctx) -> R + 'static,
    R: 'static,
{
    let hand_off_cell = Rc::new(HandOff::new());
    let cell: Rc<RefCell<Option<R>>> = Rc::default();

    let (pid, rng, start_time) = {
        let mut k = shared.borrow_mut();
        let pid = k.alloc_pid();
        if let Some(n) = node {
            let nrec = k.node_mut(n).expect("spawn_on unknown node");
            assert!(
                nrec.alive,
                "cannot spawn on crashed node {n} ({})",
                nrec.name
            );
            nrec.procs.insert(pid);
        }
        let rng = k.proc_rng(pid);
        k.checkpoint(
            crate::record::StepTag::Spawn,
            pid.0,
            node.map(|n| n.0 as u64 + 1).unwrap_or(0),
            crate::fnv::fnv1a(name.as_bytes()),
        );
        (pid, rng, k.now)
    };

    let ctx = Ctx::new(
        pid,
        node,
        name.to_owned(),
        Rc::clone(shared),
        Rc::clone(&hand_off_cell),
        rng,
    );

    let cell_in = Rc::clone(&cell);
    hand_off_cell.context().start(move || {
        if !ctx.wait_first() {
            return ctx.driver(); // killed before the first activation
        }
        let panic = match catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
            Ok(val) => {
                *cell_in.borrow_mut() = Some(val);
                None
            }
            Err(payload) => match payload.downcast_ref::<KillToken>() {
                // The driver holds the baton and waits for this coroutine.
                Some(KillToken::Reaped) => return ctx.driver(),
                Some(KillToken::Crashed) => None,
                None => Some(panic_message(payload)),
            },
        };
        ctx.exit(panic)
    });

    {
        let mut k = shared.borrow_mut();
        k.insert_proc(
            pid,
            ProcRec {
                name: name.to_owned(),
                node,
                cell: hand_off_cell,
                state: ProcState::Ready,
                block: BlockKind::None,
                gen: 0,
                wait_box: None,
                dead: false,
                resumes: [0; 4],
                handoffs_in: [0; 4],
            },
        );
        k.schedule(start_time, EventKind::Start(pid));
    }

    ProcOutput { pid, cell }
}
