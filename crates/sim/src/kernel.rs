//! The simulator kernel: event queue, process table, wake bookkeeping and
//! the event loop ([`Kernel::dispatch`]).
//!
//! The kernel enforces the central invariant of the simulator: **exactly
//! one context holds the baton** — the driver (the code inside
//! [`crate::Simulation::run`]) or one process, each a coroutine on its
//! own stack ([`crate::coro`]), all on the driver's OS thread. Only the
//! holder runs simulated code or touches the kernel. There is no
//! scheduler: a process that blocks records its own yield and runs the
//! event loop itself until some process must run. If that process is
//! itself it just returns; otherwise it leaves the baton in that
//! process's one-value [`HandOff`] cell and switches to its stack. The
//! driver gets the baton back only for what needs it ([`Next::Reap`],
//! [`Next::Stop`]). Which stack dispatches an event never influences
//! what the event does, so execution is deterministic.
//!
//! # The event queue
//!
//! An event is a plain value of at most 40 bytes ([`EventEntry`]); a
//! delivery names only its mailbox, whose slot holds the message (see
//! [`crate::mailbox`]). Events pop in `(time, seq)` order, from the
//! smallest front of three sources:
//!
//! - the **FIFO**: events due at the instant they are scheduled at, in
//!   `seq` order. That is exact: the FIFO holds one instant's events,
//!   and `now` cannot pass that instant while the FIFO holds one;
//! - the **heap**: every other start, delivery and reap;
//! - the **deadlines** ([`Deadlines`]): each blocked process's one
//!   deadline, a sleep's end or a wait's timeout. A deadline takes its
//!   `seq` when it is armed, like any event, and leaves with its waiter:
//!   a process resumed by a message, or killed, takes it out, so no
//!   timer outlives the wait it bounds and every deadline that pops
//!   wakes someone.
//!
//! # Borrows, not locks
//!
//! Every context borrows the kernel's `RefCell` briefly, never across a
//! switch of stacks or a call of user code. So drop a handler (or
//! anything owning a `MailboxRx`) only after the kernel borrow is
//! released, and never drop a `MailboxRx` under it: breaking either is a
//! borrow panic at the line that broke it.
//!
//! # Kernel handlers
//!
//! A mailbox may be read by a [`Handler`] instead of a process: a closure
//! the kernel owns, registered for a node, that is called with each
//! message *at delivery time* by whichever context is dispatching — the
//! baton stays where it is and no process is resumed. [`dispatch`] calls it
//! with the kernel not borrowed, so it may send, read the clock and touch
//! its own state. It must not block (it has no [`crate::Ctx`]) and must not
//! read per-process state, and it is not a process: no RNG stream, no
//! [`crate::ProcOutput`], no `Resume`/`Yield` steps — its call is the
//! `EventAction` step of the delivery. It dies with its node:
//! [`Kernel::crash_node`] takes it out of its mailbox's record, and
//! dropping it drops its receiver, with the messages still in flight.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::panic::{self, catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

use crate::coro::{self, Context, Target};
use crate::idhash::{IdMap, IdSet};
use crate::ids::{MailboxId, NodeId, ProcId};
use crate::record::{fault_codes, RecMode, SimTrace, StepTag, TraceStep};
use crate::rng::SimRng;
use crate::time::SimTime;

/// Panic payload used to unwind a killed process. Never observed by user
/// code: the coroutine's body catches it and reports a clean exit.
pub(crate) enum KillToken {
    /// The process found itself dead while running (it crashed its own
    /// node): it still holds the baton and exits like any other process.
    Crashed,
    /// `Kill` arrived through the hand-off cell: the driver holds the
    /// baton and waits for this coroutine to finish, which must touch
    /// nothing but switch back.
    Reaped,
}

/// Silences the default panic hook for [`KillToken`] unwinds so crashing
/// simulated nodes does not spam stderr.
pub(crate) fn install_quiet_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<KillToken>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Converts an arbitrary panic payload into a printable message.
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A context and the one value it finds when it is switched to: how the
/// baton is passed. The passer [`put`](HandOff::put)s the value and
/// switches to the context it gets back; the owner, resumed, takes it.
pub(crate) struct HandOff<T> {
    slot: Cell<Option<T>>,
    context: Context,
}

impl<T> HandOff<T> {
    pub fn new() -> Self {
        HandOff {
            slot: Cell::new(None),
            context: Context::default(),
        }
    }

    /// The owner's context: the stack it runs on.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// Leaves `value` for the suspended owner; returns its context, the
    /// one to switch to.
    pub fn put(&self, value: T) -> Target {
        self.slot.set(Some(value));
        self.context.target()
    }

    /// Called by the owner, running: switches to `to` and returns the
    /// value left here by whoever switches back.
    pub fn park(&self, to: Target) -> T {
        coro::switch(&self.context, to);
        self.take()
    }

    /// Empties the cell; the owner's first act when resumed.
    pub fn take(&self) -> T {
        self.slot
            .take()
            .expect("a context is switched to with its cell filled")
    }
}

/// What a suspended process finds in its hand-off cell.
pub(crate) enum Wakeup {
    /// The baton: run, for this reason.
    Run(WakeReason),
    /// Unwind and finish; the driver keeps the baton and waits for this
    /// coroutine to switch back to it.
    Kill,
}

/// Where the baton goes when [`dispatch`] returns.
pub(crate) enum Next {
    /// To this process (already marked running).
    Run(ProcId, WakeReason),
    /// To the driver, to kill-handshake these dead processes.
    Reap(Box<[ProcId]>),
    /// To the driver, for good: quiescence, the deadline, the event
    /// budget, or a process panic.
    Stop,
}

/// What the event loop stopped for.
enum Step {
    /// The baton must go somewhere.
    Pass(Next),
    /// The holder calls this handler, kernel not borrowed, and dispatches on.
    Call(Rc<Handler>),
}

/// Why a blocked process was resumed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum WakeReason {
    /// First activation of the process body.
    First,
    /// A `sleep` deadline elapsed.
    Slept,
    /// The mailbox waited on became non-empty.
    MailboxReady,
    /// A `recv_deadline` timed out.
    TimedOut,
}

impl WakeReason {
    /// The reason's number in a `Resume` trace step, and its column in
    /// the activation counts.
    pub fn code(self) -> usize {
        match self {
            WakeReason::First => 0,
            WakeReason::Slept => 1,
            WakeReason::MailboxReady => 2,
            WakeReason::TimedOut => 3,
        }
    }
}

/// How a process gives up the baton.
pub(crate) enum YieldKind {
    /// Block until the given instant.
    Sleep { until: SimTime },
    /// Block until the mailbox is non-empty, or the deadline.
    Wait {
        mailbox: MailboxId,
        deadline: Option<SimTime>,
    },
    /// The process body returned (`panic: None`) or panicked.
    Exited { panic: Option<String> },
}

/// What a blocked process is blocked on; selects the wake reason for timers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum BlockKind {
    None,
    Sleep,
    Wait,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// Spawned; the `Start` event has not run yet.
    Ready,
    /// Holds the baton, or is about to be handed it.
    Running,
    /// Suspended until its hand-off cell is filled.
    Blocked,
    /// The coroutine's body has finished (normally, by panic, or by kill).
    Exited,
}

pub(crate) struct ProcRec {
    pub name: String,
    pub node: Option<NodeId>,
    pub cell: Rc<HandOff<Wakeup>>,
    pub state: ProcState,
    pub block: BlockKind,
    /// Wake generation, bumped on every resume: a mailbox's waiter
    /// registration names the generation it blocked in, so one left
    /// from an earlier wait wakes no one.
    pub gen: u64,
    /// The mailbox this process is currently registered as the waiter on.
    pub wait_box: Option<MailboxId>,
    /// Marked dead by a node crash; reaped lazily by a `Reap` event.
    pub dead: bool,
    /// Times resumed, by [`WakeReason::code`].
    pub resumes: [u64; 4],
    /// Of those, the times the baton came from another stack.
    pub handoffs_in: [u64; 4],
}

/// The kernel's untyped view of a mailbox's typed slot (see
/// [`crate::mailbox`]).
pub(crate) trait Slot {
    /// Moves the message sent as event `seq` from in flight onto the
    /// queue; false if there is none (its conversation was closed).
    fn deliver(&self, seq: u64) -> bool;
}

pub(crate) struct MailboxRec {
    /// At most one process may wait on a mailbox at a time: its id and
    /// the wake generation it blocked in.
    pub waiter: Option<(ProcId, u64)>,
    /// Where the mailbox's messages wait, in flight and delivered.
    pub slot: Rc<dyn Slot>,
    /// The kernel handler that reads the mailbox, if one does. It goes
    /// when its node crashes; whoever takes it out drops it only after
    /// releasing the kernel borrow (a handler owns its `MailboxRx`, whose
    /// drop borrows the kernel).
    pub handler: Option<Rc<Handler>>,
}

/// A mailbox's reader that is kernel code, not a process (see the module
/// documentation). Owned by its mailbox's record alone; whoever
/// dispatches a delivery holds it for the length of the call.
pub(crate) struct Handler {
    pub name: String,
    pub node: NodeId,
    /// Takes the delivered message off the mailbox and handles it.
    pub call: RefCell<Box<dyn FnMut()>>,
    /// Times a handler of this name was called: its entry of
    /// [`Kernel::handler_calls_by_name`].
    pub calls: Rc<Cell<u64>>,
}

pub(crate) struct NodeRec {
    pub name: String,
    pub procs: IdSet<ProcId>,
    pub alive: bool,
}

/// A process to resume, with the reason to hand it.
pub(crate) struct Wake {
    pub pid: ProcId,
    pub reason: WakeReason,
}

pub(crate) enum EventKind {
    /// First activation of a spawned process.
    Start(ProcId),
    /// A process's sleep or wait deadline is due. Never queued: the
    /// deadline heap holds it until it is the earliest event.
    Timer(ProcId),
    /// The message sent to this mailbox as this event's `seq` arrives.
    Deliver(MailboxId),
    /// Kill-handshake the listed (already marked dead) processes.
    Reap(Box<[ProcId]>),
}

pub(crate) struct EventEntry {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

const _: () = assert!(std::mem::size_of::<EventEntry>() <= 40);

impl EventEntry {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    // Reversed so that BinaryHeap pops the earliest (time, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// One armed deadline: process `pid` wakes at `time` unless something
/// wakes it first.
#[derive(Copy, Clone)]
struct Deadline {
    time: SimTime,
    seq: u64,
    pid: ProcId,
}

impl Deadline {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// The blocked processes' deadlines, at most one per process: a binary
/// min-heap keyed `(time, seq)` that knows where each process's entry
/// is, so a process woken early takes its deadline out in O(log n). It
/// allocates only to grow; arming and cancelling reuse its room.
#[derive(Default)]
struct Deadlines {
    heap: Vec<Deadline>,
    /// `at[pid]`: the index of `pid`'s entry in `heap`, or [`NONE`].
    at: Vec<u32>,
}

/// No deadline armed.
const NONE: u32 = u32::MAX;

impl Deadlines {
    fn earliest(&self) -> Option<&Deadline> {
        self.heap.first()
    }

    /// Arms `pid`'s deadline; it must have none.
    fn arm(&mut self, d: Deadline) {
        let p = d.pid.0 as usize;
        if self.at.len() <= p {
            self.at.resize(p + 1, NONE);
        }
        debug_assert_eq!(self.at[p], NONE, "{} armed twice", d.pid);
        self.heap.push(d);
        self.sift_up(self.heap.len() - 1);
    }

    /// Takes `pid`'s deadline out, if it has one.
    fn cancel(&mut self, pid: ProcId) {
        let Some(&i) = self.at.get(pid.0 as usize).filter(|&&i| i != NONE) else {
            return;
        };
        self.remove(i as usize);
    }

    fn pop(&mut self) -> Option<Deadline> {
        (!self.heap.is_empty()).then(|| self.remove(0))
    }

    fn remove(&mut self, i: usize) -> Deadline {
        let gone = self.heap.swap_remove(i);
        self.at[gone.pid.0 as usize] = NONE;
        if i < self.heap.len() {
            let i = self.sift_up(i);
            self.sift_down(i);
        }
        gone
    }

    /// Records where the entry at `i` is.
    fn place(&mut self, i: usize) {
        self.at[self.heap[i].pid.0 as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.heap.swap(parent, i);
            self.place(i);
            i = parent;
        }
        self.place(i);
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut least = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && self.heap[child].key() < self.heap[least].key() {
                    least = child;
                }
            }
            if least == i {
                break;
            }
            self.heap.swap(least, i);
            self.place(i);
            i = least;
        }
        self.place(i);
    }
}

/// Which of the three sources holds the earliest event.
#[derive(Copy, Clone)]
enum Source {
    Fifo,
    Heap,
    Deadline,
}

pub(crate) struct Kernel {
    pub now: SimTime,
    queue: BinaryHeap<EventEntry>,
    /// Events scheduled for the instant they were scheduled at, in `seq`
    /// order; all of one instant (see the module documentation).
    at_now: VecDeque<EventEntry>,
    /// The blocked processes' deadlines.
    deadlines: Deadlines,
    next_seq: u64,
    /// Every process ever spawned, indexed by its [`ProcId`]: ids are
    /// handed out in order and never reused, and records are kept for
    /// [`crate::Simulation::activations`]. A kernel handler's id (it is
    /// numbered like a process) leaves its slot empty.
    procs: Vec<Option<ProcRec>>,
    /// Live mailboxes. Hashed, not indexed: a dropped receiver retires
    /// its record, and a table indexed by id would keep a slot for every
    /// channel ever made.
    pub mailboxes: IdMap<MailboxId, MailboxRec>,
    next_mbox: u64,
    /// Calls of kernel handlers by name, for
    /// [`crate::Simulation::activations`]. The handlers of one name share
    /// the counter, so it outlives the crash that takes a handler out of
    /// its record and the handler registered after the reboot counts on.
    pub handler_calls_by_name: BTreeMap<String, Rc<Cell<u64>>>,
    /// Every node, indexed by its [`NodeId`] (handed out in order, never
    /// removed).
    nodes: Vec<NodeRec>,
    pub seed: u64,
    /// The driver's hand-off cell.
    pub driver: Rc<HandOff<Next>>,
    /// Limits of the current `run*` call: events after `deadline` stay
    /// queued, and at most `budget` more events are processed.
    pub deadline: Option<SimTime>,
    pub budget: u64,
    pub events_processed: u64,
    /// Times the baton moved from one stack to another.
    pub handoffs: u64,
    /// Times a kernel handler was called.
    pub handler_calls: u64,
    /// Panic text of a process that panicked; the driver re-raises it.
    pub poisoned: Option<String>,
    /// Decision-trace recording/replay state (see [`crate::record`]).
    pub(crate) rec: RecMode,
    /// Opaque per-simulation payload (see [`crate::SimHandle::set_user_data`]).
    /// Never read by the kernel itself.
    pub user_data: Option<Rc<dyn Any>>,
}

impl Kernel {
    pub fn new(seed: u64) -> Self {
        Kernel {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            at_now: VecDeque::new(),
            deadlines: Deadlines::default(),
            next_seq: 0,
            procs: Vec::new(),
            mailboxes: IdMap::default(),
            next_mbox: 0,
            handler_calls_by_name: BTreeMap::new(),
            nodes: Vec::new(),
            seed,
            driver: Rc::new(HandOff::new()),
            deadline: None,
            budget: 0,
            events_processed: 0,
            handoffs: 0,
            handler_calls: 0,
            poisoned: None,
            rec: RecMode::Off,
            user_data: None,
        }
    }

    /// The record of process `pid`; `None` for a kernel handler's id.
    pub fn proc(&self, pid: ProcId) -> Option<&ProcRec> {
        self.procs.get(pid.0 as usize)?.as_ref()
    }

    pub fn proc_mut(&mut self, pid: ProcId) -> Option<&mut ProcRec> {
        self.procs.get_mut(pid.0 as usize)?.as_mut()
    }

    /// Every process record, in id order.
    pub fn procs(&self) -> impl Iterator<Item = (ProcId, &ProcRec)> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((ProcId(i as u64), p.as_ref()?)))
    }

    /// Fills the slot [`alloc_pid`](Kernel::alloc_pid) reserved.
    pub fn insert_proc(&mut self, pid: ProcId, rec: ProcRec) {
        self.procs[pid.0 as usize] = Some(rec);
    }

    pub fn node_mut(&mut self, node: NodeId) -> Option<&mut NodeRec> {
        self.nodes.get_mut(node.0 as usize)
    }

    /// Records (or, under replay, verifies) one kernel decision.
    pub(crate) fn checkpoint(&mut self, tag: StepTag, a: u64, b: u64, c: u64) {
        // Fast path: recording off.
        if matches!(self.rec, RecMode::Off) {
            return;
        }
        let step = TraceStep {
            time_ns: self.now.as_nanos(),
            tag,
            a,
            b,
            c,
        };
        self.rec.checkpoint(step);
    }

    /// Checkpoints a just-popped event.
    fn checkpoint_event(&mut self, ev: &EventEntry) {
        if matches!(self.rec, RecMode::Off) {
            return;
        }
        let (tag, a, b, c) = match &ev.kind {
            EventKind::Start(pid) => (StepTag::EventStart, pid.0, 0, 0),
            EventKind::Timer(pid) => {
                let gen = self.proc(*pid).map_or(0, |p| p.gen);
                (StepTag::EventTimer, pid.0, gen, 0)
            }
            EventKind::Deliver(_) => (StepTag::EventAction, ev.seq, 0, 0),
            EventKind::Reap(pids) => (
                StepTag::EventReap,
                pids.len() as u64,
                pids.first().map(|p| p.0).unwrap_or(0),
                pids.last().map(|p| p.0).unwrap_or(0),
            ),
        };
        self.checkpoint(tag, a, b, c);
    }

    /// Records a fault-model action (node crash/revive, network faults).
    pub fn record_fault(&mut self, code: u64, a: u64, b: u64) {
        self.checkpoint(StepTag::Fault, code, a, b);
    }

    /// Snapshot of the recorded trace so far (None unless recording).
    pub(crate) fn snapshot_recording(&self) -> Option<SimTrace> {
        match &self.rec {
            RecMode::Record(steps) => Some(SimTrace {
                seed: self.seed,
                steps: steps.clone(),
            }),
            _ => None,
        }
    }

    /// Queues an event; returns the `seq` it was given. An event due now
    /// goes to the FIFO, unless the FIFO holds another instant's (`now`
    /// went back to a `run_until` deadline before it).
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) -> u64 {
        debug_assert!(time >= self.now, "scheduling into the past");
        let seq = self.take_seq();
        let ev = EventEntry { time, seq, kind };
        if time == self.now && self.at_now.back().is_none_or(|b| b.time == time) {
            self.at_now.push_back(ev);
        } else {
            self.queue.push(ev);
        }
        seq
    }

    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Arms the deadline of `pid`, which is blocking now: it is ordered
    /// among the events by the `seq` it takes here.
    fn arm_deadline(&mut self, pid: ProcId, time: SimTime) {
        let seq = self.take_seq();
        self.deadlines.arm(Deadline { time, seq, pid });
    }

    /// The source holding the earliest event, and that event's time;
    /// `None` if all three are empty.
    fn first(&self) -> Option<(SimTime, Source)> {
        let mut first = self.queue.peek().map(|e| (e.key(), Source::Heap));
        let mut consider = |key, source| {
            if first.is_none_or(|(k, _)| key < k) {
                first = Some((key, source));
            }
        };
        if let Some(e) = self.at_now.front() {
            consider(e.key(), Source::Fifo);
        }
        if let Some(d) = self.deadlines.earliest() {
            consider(d.key(), Source::Deadline);
        }
        first.map(|((time, _), source)| (time, source))
    }

    fn take(&mut self, source: Source) -> Option<EventEntry> {
        match source {
            Source::Fifo => self.at_now.pop_front(),
            Source::Heap => self.queue.pop(),
            Source::Deadline => self.deadlines.pop().map(|d| EventEntry {
                time: d.time,
                seq: d.seq,
                kind: EventKind::Timer(d.pid),
            }),
        }
    }

    #[cfg(test)]
    pub fn pop_event(&mut self) -> Option<EventEntry> {
        let (_, source) = self.first()?;
        self.take(source)
    }

    #[cfg(test)]
    pub fn peek_time(&self) -> Option<SimTime> {
        Some(self.first()?.0)
    }

    /// The event loop proper: processes events until the baton has to go
    /// somewhere or a handler must be called.
    fn next(&mut self) -> Step {
        while self.budget > 0 && self.poisoned.is_none() {
            let Some((time, source)) = self.first() else {
                break;
            };
            if let Some(d) = self.deadline.filter(|d| time > *d) {
                self.now = d;
                break;
            }
            let ev = self.take(source).expect("the first event vanished");
            self.now = ev.time;
            self.events_processed += 1;
            self.budget -= 1;
            self.checkpoint_event(&ev);
            let wake = match ev.kind {
                EventKind::Start(pid) => {
                    let ready = matches!(self.proc(pid), Some(p) if p.state == ProcState::Ready);
                    ready.then_some(Wake {
                        pid,
                        reason: WakeReason::First,
                    })
                }
                // Armed by a process that is blocked still: resuming or
                // killing it took its deadline out.
                EventKind::Timer(pid) => match self.proc(pid) {
                    Some(p) if p.state == ProcState::Blocked => match p.block {
                        BlockKind::Sleep => Some(WakeReason::Slept),
                        BlockKind::Wait => Some(WakeReason::TimedOut),
                        BlockKind::None => None,
                    }
                    .map(|reason| Wake { pid, reason }),
                    _ => None,
                },
                EventKind::Deliver(id) => match self.deliver(id, ev.seq) {
                    Some(step) => return step,
                    None => None,
                },
                EventKind::Reap(pids) => return Step::Pass(Next::Reap(pids)),
            };
            if let Some(Wake { pid, reason }) = wake {
                if self.resume(pid, reason) {
                    return Step::Pass(Next::Run(pid, reason));
                }
            }
        }
        Step::Pass(Next::Stop)
    }

    /// Marks `pid` running for `reason`; false if it is dead or gone.
    fn resume(&mut self, pid: ProcId, reason: WakeReason) -> bool {
        self.clear_wait(pid);
        let p = match self.proc_mut(pid) {
            Some(p) if !p.dead && p.state != ProcState::Exited => p,
            _ => return false,
        };
        p.state = ProcState::Running;
        p.block = BlockKind::None;
        p.gen += 1;
        p.resumes[reason.code()] += 1;
        self.checkpoint(StepTag::Resume, pid.0, reason.code() as u64, 0);
        true
    }

    /// Records how the running process `pid` gives up the baton.
    /// `rng_digest` is a digest of its RNG state; it lets record/replay
    /// catch divergent draws without recording each one.
    pub fn record_yield(&mut self, pid: ProcId, kind: YieldKind, rng_digest: u64) {
        let kind_code = match &kind {
            YieldKind::Sleep { .. } => 0,
            YieldKind::Wait { .. } => 1,
            YieldKind::Exited { .. } => 2,
        };
        self.checkpoint(StepTag::Yield, pid.0, kind_code, rng_digest);
        let now = self.now;
        let p = self.procs[pid.0 as usize]
            .as_mut()
            .expect("yield from unknown proc");
        let gen = p.gen;
        match kind {
            YieldKind::Sleep { until } => {
                p.state = ProcState::Blocked;
                p.block = BlockKind::Sleep;
                self.arm_deadline(pid, until.max(now));
            }
            YieldKind::Wait { mailbox, deadline } => {
                p.state = ProcState::Blocked;
                p.block = BlockKind::Wait;
                p.wait_box = Some(mailbox);
                if let Some(rec) = self.mailboxes.get_mut(&mailbox) {
                    rec.waiter = Some((pid, gen));
                }
                if let Some(d) = deadline {
                    self.arm_deadline(pid, d.max(now));
                }
            }
            YieldKind::Exited { panic } => {
                p.state = ProcState::Exited;
                p.block = BlockKind::None;
                if let Some(msg) = panic {
                    self.poisoned = Some(format!("'{}' ({pid}): {msg}", p.name));
                }
                if let Some(n) = p.node.and_then(|n| self.nodes.get_mut(n.0 as usize)) {
                    n.procs.remove(&pid);
                }
                self.clear_wait(pid);
            }
        }
    }

    /// The next process id, its slot reserved (and left empty if a
    /// kernel handler takes the id).
    pub fn alloc_pid(&mut self) -> ProcId {
        self.procs.push(None);
        ProcId(self.procs.len() as u64 - 1)
    }

    pub fn alloc_mailbox(&mut self, slot: Rc<dyn Slot>) -> MailboxId {
        let id = MailboxId(self.next_mbox);
        self.next_mbox += 1;
        let rec = MailboxRec {
            waiter: None,
            slot,
            handler: None,
        };
        self.mailboxes.insert(id, rec);
        id
    }

    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.nodes.push(NodeRec {
            name: name.to_owned(),
            procs: IdSet::default(),
            alive: true,
        });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Derives the deterministic per-process RNG stream.
    pub fn proc_rng(&self, pid: ProcId) -> SimRng {
        SimRng::new(self.seed).fork(pid.0.wrapping_add(1))
    }

    /// The message sent to `id` as event `seq` arrives: moves it onto
    /// the mailbox's queue, and resumes the process blocked on it or
    /// names the handler that reads it. `None`: the message queues, or
    /// its receiver was dropped or its conversation closed (and the
    /// message with it).
    fn deliver(&mut self, id: MailboxId, seq: u64) -> Option<Step> {
        let rec = self.mailboxes.get_mut(&id)?;
        if !rec.slot.deliver(seq) {
            return None;
        }
        let Some((pid, gen)) = rec.waiter.take() else {
            let handler = Rc::clone(rec.handler.as_ref()?);
            self.handler_calls += 1;
            handler.calls.set(handler.calls.get() + 1);
            return Some(Step::Call(handler));
        };
        let reason = WakeReason::MailboxReady;
        let blocked =
            matches!(self.proc(pid), Some(p) if p.state == ProcState::Blocked && p.gen == gen);
        (blocked && self.resume(pid, reason)).then_some(Step::Pass(Next::Run(pid, reason)))
    }

    /// Clears this process's wait registration and deadline (it is about
    /// to run, or it is gone).
    pub fn clear_wait(&mut self, pid: ProcId) {
        self.deadlines.cancel(pid);
        let Some(mailbox) = self.proc_mut(pid).and_then(|p| p.wait_box.take()) else {
            return;
        };
        if let Some(rec) = self.mailboxes.get_mut(&mailbox) {
            if matches!(rec.waiter, Some((w, _)) if w == pid) {
                rec.waiter = None;
            }
        }
    }

    /// Marks every process on `node` dead and schedules their reaping,
    /// and takes the node's handlers out of their mailboxes. RAM state is
    /// lost; anything reachable only through those processes and
    /// handlers is gone. Persistent stores (simulated disks, NVRAM) are
    /// plain shared objects and survive.
    ///
    /// Returns the removed handlers: the caller drops them once it has
    /// released the kernel borrow.
    #[must_use = "drop the handlers after releasing the kernel borrow"]
    pub fn crash_node(&mut self, node: NodeId) -> Vec<(MailboxId, Rc<Handler>)> {
        let pids: Vec<ProcId> = match self.node_mut(node) {
            Some(n) => {
                n.alive = false;
                n.procs.iter().copied().collect()
            }
            None => return Vec::new(),
        };
        let mut orphaned: Vec<_> = (self.mailboxes.iter_mut())
            .filter_map(|(id, rec)| Some((*id, rec.handler.take_if(|h| h.node == node)?)))
            .collect();
        // In id order, so that what their drops do repeats run to run.
        orphaned.sort_unstable_by_key(|(id, _)| *id);
        let mut doomed = Vec::new();
        for pid in pids {
            if let Some(p) = self.proc_mut(pid) {
                if p.state != ProcState::Exited && !p.dead {
                    p.dead = true;
                    doomed.push(pid);
                }
            }
        }
        // `NodeRec::procs` is a hash set: sort so the reap order (and thus
        // the decision trace) does not depend on how it hashes.
        doomed.sort_unstable();
        self.record_fault(fault_codes::CRASH_NODE, node.0 as u64, 0);
        if !doomed.is_empty() {
            let t = self.now;
            self.schedule(t, EventKind::Reap(doomed.into()));
        }
        orphaned
    }

    /// Empties the mailbox table for the caller to drop once it has
    /// released the kernel borrow. Its records reach back to the kernel
    /// (a handler's state holds a [`crate::SimHandle`], a message in a
    /// slot may hold a `MailboxTx`), so a kernel left holding them would
    /// never be freed.
    #[must_use = "drop the contents after releasing the kernel borrow"]
    pub fn clear(&mut self) -> impl Sized {
        std::mem::take(&mut self.mailboxes)
    }

    /// Makes a crashed node able to host processes again (a "reboot").
    pub fn revive_node(&mut self, node: NodeId) {
        if let Some(n) = self.node_mut(node) {
            n.alive = true;
            n.procs.clear();
        }
        self.record_fault(fault_codes::REVIVE_NODE, node.0 as u64, 0);
    }

    pub fn node_alive(&self, node: NodeId) -> bool {
        self.nodes.get(node.0 as usize).is_some_and(|n| n.alive)
    }
}

/// The event loop. Runs on whichever stack holds the baton — a process
/// that just yielded, or the driver's — until the baton has to go somewhere,
/// and says where. Kernel handlers are called from here, with the kernel
/// not borrowed; a panic in one goes to the driver under the handler's
/// name instead of unwinding into whatever process happens to be
/// dispatching.
pub(crate) fn dispatch(shared: &RefCell<Kernel>) -> Next {
    loop {
        let handler = match shared.borrow_mut().next() {
            Step::Pass(next) => return next,
            Step::Call(handler) => handler,
        };
        let failure = catch_unwind(AssertUnwindSafe(|| (handler.call.borrow_mut())()))
            .err()
            .map(|payload| format!("handler '{}': {}", handler.name, panic_message(payload)));
        // Dropped unborrowed: it may be the last owner of a crashed
        // node's handler.
        drop(handler);
        if let Some(failure) = failure {
            shared.borrow_mut().poisoned.get_or_insert(failure);
            return Next::Stop;
        }
    }
}

/// Passes the baton to whoever `next` names: leaves it in their cell and
/// returns their context, for the caller to switch to once it has
/// released the kernel borrow.
pub(crate) fn hand_off(k: &mut Kernel, next: Next) -> Target {
    k.handoffs += 1;
    match next {
        Next::Run(pid, reason) => {
            let p = k.proc_mut(pid).expect("the baton goes to a process");
            p.handoffs_in[reason.code()] += 1;
            p.cell.put(Wakeup::Run(reason))
        }
        to_driver => k.driver.put(to_driver),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(1)
    }

    #[test]
    fn event_ordering_by_time_then_seq() {
        let mut k = kernel();
        k.schedule(SimTime::from_millis(5), EventKind::Reap([].into()));
        k.schedule(SimTime::from_millis(1), EventKind::Reap([].into()));
        k.schedule(SimTime::from_millis(5), EventKind::Start(ProcId(9)));
        let e1 = k.pop_event().unwrap();
        assert_eq!(e1.time, SimTime::from_millis(1));
        let e2 = k.pop_event().unwrap();
        assert_eq!(e2.time, SimTime::from_millis(5));
        // Same-time events pop in insertion order.
        assert!(matches!(e2.kind, EventKind::Reap(_)));
        let e3 = k.pop_event().unwrap();
        assert!(matches!(e3.kind, EventKind::Start(_)));
        assert!(k.pop_event().is_none());
    }

    #[test]
    fn delivery_without_waiter_queues() {
        let shared = Rc::new(RefCell::new(kernel()));
        let (tx, rx) = crate::mailbox::channel_impl::<u8>(&shared);
        tx.send(7);
        let mut k = shared.borrow_mut();
        let ev = k.pop_event().expect("the delivery");
        assert!(k.deliver(rx.id(), ev.seq).is_none());
        drop(k);
        assert_eq!(rx.try_recv(), Some(7));
    }

    /// A message that counts its drops.
    struct Counted(Rc<Cell<u32>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// A dropped receiver retires its record, so channels made per
    /// RPC / per wait do not accumulate for the life of the run; it frees
    /// the messages still in flight to it, and a late send is dropped at
    /// once. Each delivery still pops as an event and finds no one.
    #[test]
    fn dropped_receivers_leave_no_mailbox_record() {
        let shared = Rc::new(RefCell::new(kernel()));
        let (_tx, _rx) = crate::mailbox::channel_impl::<u8>(&shared);
        let before = shared.borrow().mailboxes.len();
        for i in 0..10_000u32 {
            let (tx, rx) = crate::mailbox::channel_impl::<u32>(&shared);
            tx.send(i);
            drop(rx);
        }
        assert_eq!(shared.borrow().mailboxes.len(), before);

        let drops = Rc::new(Cell::new(0));
        let (tx, rx) = crate::mailbox::channel_impl::<Counted>(&shared);
        for delay in [0, 5, 1] {
            tx.send_after(Duration::from_millis(delay), Counted(Rc::clone(&drops)));
        }
        drop(rx);
        assert_eq!(drops.get(), 3, "in flight to a dropped receiver");
        tx.send(Counted(Rc::clone(&drops)));
        tx.send_after(Duration::from_millis(2), Counted(Rc::clone(&drops)));
        assert_eq!(drops.get(), 5, "sent to a dropped receiver");
        assert!(tx.slot_is_empty());

        let mut k = shared.borrow_mut();
        k.budget = u64::MAX;
        assert!(matches!(k.next(), Step::Pass(Next::Stop)));
        assert_eq!(k.events_processed, 10_000 + 5);
        drop(k);
        assert!(tx.slot_is_empty());
    }

    /// A machine that crashes and reboots for ever registers its
    /// handlers anew each time; the old ones, and their mailboxes, go.
    #[test]
    fn crashed_handlers_leave_no_record() {
        let shared = Rc::new(RefCell::new(kernel()));
        let handle = crate::SimHandle {
            shared: Rc::clone(&shared),
        };
        let node = shared.borrow_mut().add_node("n");
        let sizes = || {
            let k = shared.borrow();
            let handlers = k.mailboxes.values().filter(|m| m.handler.is_some());
            (k.mailboxes.len(), handlers.count())
        };
        let before = sizes();
        for _ in 0..1_000 {
            for name in ["a", "b", "c"] {
                let (_tx, rx) = handle.channel::<u8>();
                handle.handler(node, name, rx, |_| {});
            }
            assert_eq!(sizes(), (before.0 + 3, before.1 + 3));
            let orphaned = shared.borrow_mut().crash_node(node);
            assert_eq!(orphaned.len(), 3);
            drop(orphaned);
            shared.borrow_mut().revive_node(node);
        }
        assert_eq!(sizes(), before);
    }

    #[test]
    fn node_lifecycle() {
        let mut k = kernel();
        let n = k.add_node("srv");
        assert!(k.node_alive(n));
        assert!(k.crash_node(n).is_empty(), "it had no handlers");
        assert!(!k.node_alive(n));
        k.revive_node(n);
        assert!(k.node_alive(n));
    }

    #[test]
    fn proc_rng_streams_are_distinct() {
        let k = kernel();
        let mut a = k.proc_rng(ProcId(0));
        let mut b = k.proc_rng(ProcId(1));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    /// A process record blocked in nothing yet, as a spawn leaves it.
    fn blocked_proc(k: &mut Kernel) -> ProcId {
        let pid = k.alloc_pid();
        k.insert_proc(
            pid,
            ProcRec {
                name: format!("p{}", pid.0),
                node: None,
                cell: Rc::new(HandOff::new()),
                state: ProcState::Running,
                block: BlockKind::None,
                gen: 0,
                wait_box: None,
                dead: false,
                resumes: [0; 4],
                handoffs_in: [0; 4],
            },
        );
        pid
    }

    fn wait_until(k: &mut Kernel, pid: ProcId, ms: u64) {
        let deadline = Some(SimTime::from_millis(ms));
        let mailbox = MailboxId(u64::MAX);
        k.record_yield(pid, YieldKind::Wait { mailbox, deadline }, 0);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut k = kernel();
        assert!(k.peek_time().is_none());
        k.schedule(SimTime::from_millis(7), EventKind::Reap([].into()));
        k.schedule(SimTime::from_millis(3), EventKind::Reap([].into()));
        assert_eq!(k.peek_time(), Some(SimTime::from_millis(3)));
        let pid = blocked_proc(&mut k);
        wait_until(&mut k, pid, 2);
        assert_eq!(k.peek_time(), Some(SimTime::from_millis(2)), "a deadline");
        k.clear_wait(pid);
        assert_eq!(k.peek_time(), Some(SimTime::from_millis(3)), "taken out");
    }

    /// Deadlines and queued events share one order, `(time, seq)`, with
    /// the `seq` a deadline took when it was armed.
    #[test]
    fn a_deadline_and_a_delivery_due_together_run_in_seq_order() {
        let mut k = kernel();
        let (a, b) = (blocked_proc(&mut k), blocked_proc(&mut k));
        wait_until(&mut k, a, 5);
        k.schedule(SimTime::from_millis(5), EventKind::Deliver(MailboxId(0)));
        wait_until(&mut k, b, 5);
        k.schedule(SimTime::from_millis(5), EventKind::Start(ProcId(9)));
        let order: Vec<_> = std::iter::from_fn(|| k.pop_event())
            .map(|e| match e.kind {
                EventKind::Timer(pid) => format!("timer {}", pid.0),
                EventKind::Deliver(_) => "deliver".to_owned(),
                EventKind::Start(_) => "start".to_owned(),
                EventKind::Reap(_) => "reap".to_owned(),
            })
            .collect();
        assert_eq!(order, ["timer 0", "deliver", "timer 1", "start"]);
    }

    /// Many waiters woken in an order of their own leave the heap in
    /// order: each pop is the earliest deadline armed and not taken out.
    #[test]
    fn deadlines_taken_out_in_any_order_leave_the_rest_in_order() {
        let mut k = kernel();
        let pids: Vec<_> = (0..64).map(|_| blocked_proc(&mut k)).collect();
        let due = |i: u64| (i * 37) % 23;
        for (i, &pid) in pids.iter().enumerate() {
            wait_until(&mut k, pid, due(i as u64));
        }
        for &pid in pids.iter().step_by(3) {
            k.clear_wait(pid);
        }
        let popped: Vec<_> = std::iter::from_fn(|| k.pop_event())
            .map(|e| (e.time, e.seq))
            .collect();
        let mut expected: Vec<_> = (0..64u64)
            .filter(|i| i % 3 != 0)
            .map(|i| (SimTime::from_millis(due(i)), i))
            .collect();
        expected.sort_unstable();
        assert_eq!(popped, expected);
    }

    /// A crashed node's processes are killed, and their deadlines go with
    /// them: nothing pops at the instants they named.
    #[test]
    fn a_crashed_or_killed_waiters_deadline_wakes_no_one() {
        let mut sim = crate::Simulation::new(1);
        let node = sim.add_node("n");
        let waited = sim.spawn_on(node, "waiter", |ctx| {
            let (_tx, rx) = ctx.channel::<u8>();
            rx.recv_timeout(ctx, Duration::from_secs(10))
        });
        let slept = sim.spawn_on(node, "sleeper", |ctx| ctx.sleep(Duration::from_secs(20)));
        let before = sim.run_until(SimTime::from_secs(1)).events;
        sim.crash_node(node);
        let stats = sim.run();
        assert_eq!(stats.end_time, SimTime::from_secs(1), "no deadline popped");
        assert_eq!(stats.events, before + 1, "the reap alone");
        assert!(waited.take().is_none() && slept.take().is_none());
        for row in sim.activations() {
            assert_eq!(row.resumes[WakeReason::First.code()], 1, "{row:?}");
            assert_eq!(row.resumes.iter().sum::<u64>(), 1, "{row:?}");
        }
    }
}
