//! Typed mailboxes: the only inter-process communication primitive.
//!
//! A mailbox is an unbounded FIFO queue with exactly one consumer: a
//! process that `recv`s from it, or a kernel handler
//! ([`crate::SimHandle::handler`]) that is called with each message as it
//! is delivered. Senders are cheap clones usable from any process, from a
//! handler, *or* from outside the simulation (e.g. test setup code); a
//! send schedules delivery through the kernel event queue, optionally
//! after a delay, so message arrival order is always deterministic.
//!
//! Both halves share the mailbox's *slot*: its queue, and the messages in
//! flight under the `seq` of the event that delivers each. A send parks
//! its message there and schedules a plain `Deliver` event, which moves
//! it onto the queue. The slot is the mailbox's one allocation: each
//! list holds its oldest message inline and only the ones behind it in
//! a `VecDeque`, whose buffer, once grown, is kept. So a message costs
//! no allocation of its own, and a one-shot reply channel (one message
//! in flight, then queued) never allocates past its slot.
//!
//! A process that makes blocking calls does not even pay for that slot
//! per call: [`Ctx::reply_channel`] lends it the mailbox it kept from its
//! last call of the same message type, reopened for a new *conversation*
//! under the same id. A sender belongs to the conversation it was made
//! for. Once that conversation is closed (the lent receiver handed back,
//! or any receiver dropped) its messages are dropped at send, and those
//! already in flight at close: their delivery events find nothing and
//! wake no one, as a delivery to a dropped receiver does. So no call
//! ever reads what was sent to an earlier one.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Deref;
use std::rc::{Rc, Weak};
use std::time::Duration;

use crate::ctx::Ctx;
use crate::ids::MailboxId;
use crate::kernel::{EventKind, Kernel, Slot, WakeReason};
use crate::time::SimTime;

/// A FIFO that keeps its oldest item inline: one that never holds more
/// than one item at a time never allocates.
struct Fifo<T> {
    /// The oldest item; `None` only while `rest` is empty too.
    head: Option<T>,
    /// The items behind it, oldest first.
    rest: VecDeque<T>,
}

impl<T> Fifo<T> {
    const fn new() -> Self {
        Fifo {
            head: None,
            rest: VecDeque::new(),
        }
    }

    fn push_back(&mut self, item: T) {
        if self.head.is_none() {
            self.head = Some(item);
        } else {
            self.rest.push_back(item);
        }
    }

    fn pop_front(&mut self) -> Option<T> {
        let item = self.head.take();
        self.head = self.rest.pop_front();
        item
    }

    /// Removes the oldest item `pred` holds for.
    fn remove_first(&mut self, pred: impl Fn(&T) -> bool) -> Option<T> {
        if self.head.as_ref().is_some_and(&pred) {
            return self.pop_front();
        }
        let at = self.rest.iter().position(pred)?;
        self.rest.remove(at)
    }

    fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.rest.len()
    }

    fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    fn clear(&mut self) {
        self.head = None;
        self.rest.clear();
    }
}

/// A mailbox's messages: its slot, shared by its halves and its kernel
/// record.
struct Messages<T> {
    /// Delivered, not yet received.
    queue: Fifo<T>,
    /// Sent, not yet delivered, in send order: by the `seq` of each one's
    /// delivery event.
    in_flight: Fifo<(u64, T)>,
    /// The current conversation: senders made for another are stale.
    conversation: u32,
    /// Whether the current conversation is open; nothing is kept while
    /// it is closed.
    open: bool,
}

impl<T> Slot for RefCell<Messages<T>> {
    fn deliver(&self, seq: u64) -> bool {
        let mut m = self.borrow_mut();
        // Deliveries of one mailbox pop mostly in send order: the front.
        // A message is missing only if its conversation was closed.
        match m.in_flight.remove_first(|(s, _)| *s == seq) {
            Some((_, msg)) => {
                m.queue.push_back(msg);
                true
            }
            None => false,
        }
    }
}

/// The sending half of a mailbox. Clonable and usable from anywhere on
/// the simulation's thread, which it cannot leave:
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// send(amoeba_sim::Simulation::new(1).channel::<u8>().0);
/// ```
pub struct MailboxTx<T> {
    id: MailboxId,
    /// The conversation this sender was made for.
    conversation: u32,
    slot: Rc<RefCell<Messages<T>>>,
    shared: Rc<RefCell<Kernel>>,
}

impl<T> Clone for MailboxTx<T> {
    fn clone(&self) -> Self {
        MailboxTx {
            id: self.id,
            conversation: self.conversation,
            slot: Rc::clone(&self.slot),
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for MailboxTx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MailboxTx({:?})", self.id)
    }
}

impl<T: 'static> MailboxTx<T> {
    /// Delivers `msg` at the current instant (after already-queued events).
    pub fn send(&self, msg: T) {
        self.send_after(Duration::ZERO, msg);
    }

    /// Delivers `msg` after `delay` of virtual time.
    ///
    /// A message to a dropped receiver, or to a closed conversation, is
    /// dropped at once; its delivery is still an event, which finds no
    /// one.
    pub fn send_after(&self, delay: Duration, msg: T) {
        let seq = {
            let mut k = self.shared.borrow_mut();
            let t = k.now + delay;
            k.schedule(t, EventKind::Deliver(self.id))
        };
        let mut m = self.slot.borrow_mut();
        if m.open && m.conversation == self.conversation {
            m.in_flight.push_back((seq, msg));
        }
    }

    #[cfg(test)]
    pub(crate) fn slot_is_empty(&self) -> bool {
        let m = self.slot.borrow();
        m.queue.is_empty() && m.in_flight.is_empty()
    }
}

/// The receiving half of a mailbox; owned by one process at a time, or
/// by the kernel handler it was given to. Dropping it retires the
/// kernel's record of the mailbox and drops every message it holds or is
/// yet to be delivered.
pub struct MailboxRx<T> {
    id: MailboxId,
    slot: Rc<RefCell<Messages<T>>>,
    /// Weak: receivers held by test code or leaked processes may outlive
    /// the kernel, and must not borrow it while it is being torn down.
    shared: Weak<RefCell<Kernel>>,
}

impl<T> Drop for MailboxRx<T> {
    fn drop(&mut self) {
        // Never runs under the kernel borrow: receivers live in process
        // stacks, handles and kernel handlers (which are dropped with the
        // kernel released), and no message type carries one, so a slot
        // never drops a `MailboxRx`.
        if let Some(shared) = self.shared.upgrade() {
            let record = shared.borrow_mut().mailboxes.remove(&self.id);
            drop(record);
        }
        self.close();
    }
}

impl<T> MailboxRx<T> {
    /// Closes the current conversation: drops every message it holds or
    /// is yet to be delivered, and every one sent to it later.
    fn close(&mut self) {
        let mut m = self.slot.borrow_mut();
        m.open = false;
        m.queue.clear();
        m.in_flight.clear();
    }

    /// Opens the next conversation of a closed mailbox and returns its
    /// sender: the slot, its id and the buffers it grew are kept.
    fn reopen(&mut self, shared: &Rc<RefCell<Kernel>>) -> MailboxTx<T> {
        let conversation = {
            let mut m = self.slot.borrow_mut();
            debug_assert!(!m.open, "reopened while open");
            m.open = true;
            m.conversation = m.conversation.wrapping_add(1);
            m.conversation
        };
        MailboxTx {
            id: self.id,
            conversation,
            slot: Rc::clone(&self.slot),
            shared: Rc::clone(shared),
        }
    }
}

impl<T> std::fmt::Debug for MailboxRx<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MailboxRx({:?})", self.id)
    }
}

impl<T: 'static> MailboxRx<T> {
    /// Removes the next message without blocking.
    pub fn try_recv(&self) -> Option<T> {
        self.slot.borrow_mut().queue.pop_front()
    }

    /// The number of queued messages.
    pub fn len(&self) -> usize {
        self.slot.borrow().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.slot.borrow().queue.is_empty()
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

/// The reply mailboxes a process keeps between its calls: at most one
/// closed receiver per message type, each an `Option<MailboxRx<T>>`
/// beside its type's id.
#[derive(Default)]
pub(crate) struct KeptReplies(RefCell<Vec<(TypeId, Box<dyn Any>)>>);

impl KeptReplies {
    /// The kept receiver for `T`, if one was ever kept.
    fn spot<T: 'static>(kept: &mut [(TypeId, Box<dyn Any>)]) -> Option<&mut Option<MailboxRx<T>>> {
        let (_, spot) = kept.iter_mut().find(|(t, _)| *t == TypeId::of::<T>())?;
        spot.downcast_mut()
    }

    /// Lends a reply mailbox for `T`: the kept one, reopened, or else a
    /// new one ([`crate::Ctx::reply_channel`]).
    pub(crate) fn lend<T: 'static>(
        &self,
        shared: &Rc<RefCell<Kernel>>,
    ) -> (MailboxTx<T>, ReplyRx<'_, T>) {
        let kept = Self::spot::<T>(&mut self.0.borrow_mut()).and_then(Option::take);
        let (tx, rx) = match kept {
            Some(mut rx) => (rx.reopen(shared), rx),
            None => channel_impl(shared),
        };
        let rx = ReplyRx {
            rx: Some(rx),
            home: self,
        };
        (tx, rx)
    }

    /// Closes a lent mailbox and keeps it, unless one for `T` is kept
    /// already (two calls of one process were in flight at once).
    fn keep<T: 'static>(&self, mut rx: MailboxRx<T>) {
        rx.close();
        let mut kept = self.0.borrow_mut();
        match Self::spot::<T>(&mut kept) {
            Some(spot) => {
                spot.get_or_insert(rx);
            }
            None => kept.push((TypeId::of::<T>(), Box::new(Some(rx)))),
        }
    }
}

/// The receiving half of a reply mailbox lent to one call by
/// [`Ctx::reply_channel`]. Derefs to its [`MailboxRx`]; dropping it
/// closes the mailbox, as dropping a receiver does, and hands it back to
/// the process for its next call.
pub struct ReplyRx<'c, T: 'static> {
    /// `Some` until dropped.
    rx: Option<MailboxRx<T>>,
    home: &'c KeptReplies,
}

impl<T> Deref for ReplyRx<'_, T> {
    type Target = MailboxRx<T>;

    fn deref(&self) -> &MailboxRx<T> {
        self.rx
            .as_ref()
            .expect("a lent mailbox until it is dropped")
    }
}

impl<T> Drop for ReplyRx<'_, T> {
    fn drop(&mut self) {
        if let Some(rx) = self.rx.take() {
            self.home.keep(rx);
        }
    }
}

impl<T> std::fmt::Debug for ReplyRx<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReplyRx({:?})", self.id)
    }
}

pub(crate) fn channel_impl<T: 'static>(
    shared: &Rc<RefCell<Kernel>>,
) -> (MailboxTx<T>, MailboxRx<T>) {
    let slot = Rc::new(RefCell::new(Messages {
        queue: Fifo::new(),
        in_flight: Fifo::new(),
        conversation: 0,
        open: true,
    }));
    let id = shared.borrow_mut().alloc_mailbox(slot.clone());
    (
        MailboxTx {
            id,
            conversation: 0,
            slot: Rc::clone(&slot),
            shared: Rc::clone(shared),
        },
        MailboxRx {
            id,
            slot,
            shared: Rc::downgrade(shared),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::Fifo;

    #[test]
    fn a_fifo_keeps_order_across_its_inline_head() {
        let mut f = Fifo::new();
        for i in 0..4 {
            f.push_back(i);
        }
        assert_eq!(f.len(), 4);
        assert_eq!(f.remove_first(|x| *x == 2), Some(2));
        assert_eq!(f.remove_first(|x| *x == 0), Some(0), "the inline head");
        assert_eq!(f.remove_first(|x| *x == 9), None);
        f.push_back(4);
        let drained: Vec<_> = std::iter::from_fn(|| f.pop_front()).collect();
        assert_eq!(drained, [1, 3, 4]);
        assert!(f.is_empty());
        f.push_back(5);
        f.clear();
        assert_eq!((f.len(), f.pop_front()), (0, None));
    }
}
