//! Typed mailboxes: the only inter-process communication primitive.
//!
//! A mailbox is an unbounded FIFO queue with exactly one consumer: a
//! process that `recv`s from it, or a kernel handler
//! ([`crate::SimHandle::handler`]) that is called with each message as it
//! is delivered. Senders are cheap clones usable from any process, from a
//! handler, *or* from outside the simulation (e.g. test setup code); a
//! send schedules delivery through the kernel event queue, optionally
//! after a delay, so message arrival order is always deterministic.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use crate::ctx::Ctx;
use crate::ids::MailboxId;
use crate::kernel::{Kernel, Reader, WakeReason};
use crate::time::SimTime;

/// The sending half of a mailbox. Clonable and usable from anywhere.
pub struct MailboxTx<T> {
    id: MailboxId,
    queue: Arc<Mutex<VecDeque<T>>>,
    shared: Arc<Mutex<Kernel>>,
}

impl<T> Clone for MailboxTx<T> {
    fn clone(&self) -> Self {
        MailboxTx {
            id: self.id,
            queue: Arc::clone(&self.queue),
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for MailboxTx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MailboxTx({:?})", self.id)
    }
}

impl<T: Send + 'static> MailboxTx<T> {
    /// Delivers `msg` at the current instant (after already-queued events).
    pub fn send(&self, msg: T) {
        self.send_after(Duration::ZERO, msg);
    }

    /// Delivers `msg` after `delay` of virtual time.
    pub fn send_after(&self, delay: Duration, msg: T) {
        let queue = Arc::clone(&self.queue);
        let id = self.id;
        let mut k = self.shared.lock();
        let t = k.now + delay;
        // Runs inside whichever process dispatches it: no per-process
        // state here.
        k.schedule_action(t, move |k| {
            let reader = k.reader_of(id);
            if !matches!(reader, Reader::Gone) {
                queue.lock().push_back(msg);
            }
            reader
        });
    }
}

/// The receiving half of a mailbox; owned by one process at a time, or
/// by the kernel handler it was given to. Dropping it retires the
/// kernel's record of the mailbox (later sends are dropped on delivery).
pub struct MailboxRx<T> {
    id: MailboxId,
    queue: Arc<Mutex<VecDeque<T>>>,
    /// Weak: receivers held by test code or leaked processes may outlive
    /// the kernel, and must not lock it while it is being torn down.
    shared: Weak<Mutex<Kernel>>,
}

impl<T> Drop for MailboxRx<T> {
    fn drop(&mut self) {
        // Never runs under the kernel lock: receivers live in process
        // stacks, handles and kernel handlers (which the kernel drops
        // unlocked), and no message type carries one, so the kernel's own
        // event closures never drop a `MailboxRx`.
        if let Some(shared) = self.shared.upgrade() {
            shared.lock().mailboxes.remove(&self.id);
        }
    }
}

impl<T> std::fmt::Debug for MailboxRx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MailboxRx({:?})", self.id)
    }
}

impl<T: Send + 'static> MailboxRx<T> {
    /// Removes the next message without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.queue.lock().pop_front()
    }

    /// The number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().is_empty()
    }

    /// Blocks until a message is available and returns it.
    pub fn recv(&self, ctx: &Ctx) -> T {
        loop {
            if let Some(v) = self.try_recv() {
                return v;
            }
            let _ = ctx.block_wait(self.id, None);
        }
    }

    /// Blocks until a message arrives or `deadline` passes.
    pub fn recv_deadline(&self, ctx: &Ctx, deadline: SimTime) -> Option<T> {
        loop {
            if let Some(v) = self.try_recv() {
                return Some(v);
            }
            if ctx.now() >= deadline {
                return None;
            }
            match ctx.block_wait(self.id, Some(deadline)) {
                WakeReason::TimedOut => return self.try_recv(),
                _ => continue,
            }
        }
    }

    /// Blocks until a message arrives or `timeout` elapses.
    pub fn recv_timeout(&self, ctx: &Ctx, timeout: Duration) -> Option<T> {
        let deadline = ctx.now() + timeout;
        self.recv_deadline(ctx, deadline)
    }

    pub(crate) fn id(&self) -> MailboxId {
        self.id
    }
}

pub(crate) fn channel_impl<T: Send + 'static>(
    shared: &Arc<Mutex<Kernel>>,
) -> (MailboxTx<T>, MailboxRx<T>) {
    let id = shared.lock().alloc_mailbox();
    let queue = Arc::new(Mutex::new(VecDeque::new()));
    (
        MailboxTx {
            id,
            queue: Arc::clone(&queue),
            shared: Arc::clone(shared),
        },
        MailboxRx {
            id,
            queue,
            shared: Arc::downgrade(shared),
        },
    )
}
