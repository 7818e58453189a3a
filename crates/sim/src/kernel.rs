//! The simulator kernel: event queue, process table, wake bookkeeping.
//!
//! The kernel enforces the central invariant of the simulator: **at any
//! instant at most one thread runs** — either the kernel loop (in
//! [`crate::Simulation`]) or exactly one process thread that the kernel has
//! resumed and is waiting on. All cross-thread coordination goes through a
//! strict resume/yield handshake, which makes execution deterministic
//! regardless of OS scheduling.

use std::any::Any;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::panic;
use std::sync::{Arc, Once};
use std::thread::JoinHandle;

use crossbeam_channel::Sender;
use parking_lot::Mutex;

use crate::ids::{MailboxId, NodeId, ProcId};
use crate::record::{fault_codes, RecMode, SimTrace, StepTag, TraceStep};
use crate::rng::SimRng;
use crate::time::SimTime;

/// Panic payload used to unwind a killed process thread. Never observed by
/// user code: the thread wrapper catches it and reports a clean exit.
pub(crate) struct KillToken;

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

/// Sent by the kernel to a process thread to let it run (or die).
pub(crate) enum Resume {
    Go(WakeReason),
    Kill,
}

/// Why a blocked process was resumed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum WakeReason {
    /// First activation of the process body.
    First,
    /// A `sleep` deadline elapsed.
    Slept,
    /// The mailbox at this index in the wait set became non-empty.
    MailboxReady(usize),
    /// A `recv_deadline` timed out.
    TimedOut,
}

/// Sent by a process thread to the kernel when it gives up the CPU.
pub(crate) struct YieldMsg {
    pub pid: ProcId,
    pub kind: YieldKind,
    /// Digest of the process's RNG state at the yield; lets record/replay
    /// catch divergent draws without recording each one.
    pub rng_digest: u64,
}

pub(crate) enum YieldKind {
    /// Block until the given instant.
    Sleep { until: SimTime },
    /// Block until one of the mailboxes is non-empty, or the deadline.
    Wait {
        boxes: Vec<MailboxId>,
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
    /// Currently executing (the kernel is waiting for its yield).
    Running,
    /// Parked in the resume handshake.
    Blocked,
    /// The thread body has finished (normally, by panic, or by kill).
    Exited,
}

pub(crate) struct ProcRec {
    pub name: String,
    pub node: Option<NodeId>,
    pub resume_tx: Sender<Resume>,
    pub join: Option<JoinHandle<()>>,
    pub state: ProcState,
    pub block: BlockKind,
    /// Wake generation; bumped on every resume so stale timers are ignored.
    pub gen: u64,
    /// Mailboxes this process is currently registered as a waiter on.
    pub wait_boxes: Vec<MailboxId>,
    /// Marked dead by a node crash; reaped lazily by a `Reap` event.
    pub dead: bool,
}

#[derive(Default)]
pub(crate) struct MailboxRec {
    /// At most one process may wait on a mailbox at a time.
    pub waiter: Option<(ProcId, u64, usize)>,
}

pub(crate) struct NodeRec {
    pub name: String,
    pub procs: HashSet<ProcId>,
    pub alive: bool,
}

/// A process to resume, with the reason to hand it.
pub(crate) struct Wake {
    pub pid: ProcId,
    pub reason: WakeReason,
}

pub(crate) type ActionFn = Box<dyn FnOnce(&mut Kernel) -> Vec<Wake> + Send>;

pub(crate) enum EventKind {
    /// First activation of a spawned process.
    Start(ProcId),
    /// Sleep or wait-deadline expiry for a specific wake generation.
    Timer { pid: ProcId, gen: u64 },
    /// Arbitrary kernel mutation (message delivery etc.).
    Action(ActionFn),
    /// Kill-handshake the listed (already marked dead) processes.
    Reap(Vec<ProcId>),
}

pub(crate) struct EventEntry {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
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
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

pub(crate) struct Kernel {
    pub now: SimTime,
    queue: BinaryHeap<EventEntry>,
    next_seq: u64,
    pub procs: HashMap<ProcId, ProcRec>,
    next_pid: u64,
    pub mailboxes: HashMap<MailboxId, MailboxRec>,
    next_mbox: u64,
    pub nodes: HashMap<NodeId, NodeRec>,
    next_node: u32,
    pub seed: u64,
    pub yield_tx: Sender<YieldMsg>,
    pub events_processed: u64,
    pub trace: Option<Vec<(SimTime, String)>>,
    /// Decision-trace recording/replay state (see [`crate::record`]).
    pub(crate) rec: RecMode,
    /// Opaque per-simulation payload (see [`crate::SimHandle::set_user_data`]).
    /// Never read by the kernel itself.
    pub user_data: Option<std::sync::Arc<dyn std::any::Any + Send + Sync>>,
}

impl Kernel {
    pub fn new(seed: u64, yield_tx: Sender<YieldMsg>) -> Self {
        Kernel {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            procs: HashMap::new(),
            next_pid: 0,
            mailboxes: HashMap::new(),
            next_mbox: 0,
            nodes: HashMap::new(),
            next_node: 0,
            seed,
            yield_tx,
            events_processed: 0,
            trace: None,
            rec: RecMode::Off,
            user_data: None,
        }
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

    /// Checkpoints a just-popped event (called by the run loop).
    pub(crate) fn checkpoint_event(&mut self, ev: &EventEntry) {
        if matches!(self.rec, RecMode::Off) {
            return;
        }
        let (tag, a, b, c) = match &ev.kind {
            EventKind::Start(pid) => (StepTag::EventStart, pid.0, 0, 0),
            EventKind::Timer { pid, gen } => (StepTag::EventTimer, pid.0, *gen, 0),
            EventKind::Action(_) => (StepTag::EventAction, ev.seq, 0, 0),
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

    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.now, "scheduling into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(EventEntry { time, seq, kind });
    }

    pub fn schedule_action<F>(&mut self, time: SimTime, f: F)
    where
        F: FnOnce(&mut Kernel) -> Vec<Wake> + Send + 'static,
    {
        self.schedule(time, EventKind::Action(Box::new(f)));
    }

    pub fn pop_event(&mut self) -> Option<EventEntry> {
        self.queue.pop()
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.time)
    }

    pub fn alloc_pid(&mut self) -> ProcId {
        let id = ProcId(self.next_pid);
        self.next_pid += 1;
        id
    }

    pub fn alloc_mailbox(&mut self) -> MailboxId {
        let id = MailboxId(self.next_mbox);
        self.next_mbox += 1;
        self.mailboxes.insert(id, MailboxRec::default());
        id
    }

    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.nodes.insert(
            id,
            NodeRec {
                name: name.to_owned(),
                procs: HashSet::new(),
                alive: true,
            },
        );
        id
    }

    /// Derives the deterministic per-process RNG stream.
    pub fn proc_rng(&self, pid: ProcId) -> SimRng {
        SimRng::new(self.seed).fork(pid.0.wrapping_add(1))
    }

    /// A message arrived at `id`; returns the waiter to wake, if any.
    pub fn mailbox_ready(&mut self, id: MailboxId) -> Vec<Wake> {
        let rec = match self.mailboxes.get_mut(&id) {
            Some(r) => r,
            None => return Vec::new(),
        };
        let (pid, gen, idx) = match rec.waiter.take() {
            Some(w) => w,
            None => return Vec::new(),
        };
        match self.procs.get(&pid) {
            Some(p) if !p.dead && p.state == ProcState::Blocked && p.gen == gen => {
                vec![Wake {
                    pid,
                    reason: WakeReason::MailboxReady(idx),
                }]
            }
            _ => Vec::new(),
        }
    }

    /// Clears this process's wait registrations (it is about to run).
    pub fn clear_waits(&mut self, pid: ProcId) {
        let boxes = match self.procs.get_mut(&pid) {
            Some(p) => std::mem::take(&mut p.wait_boxes),
            None => return,
        };
        for b in boxes {
            if let Some(rec) = self.mailboxes.get_mut(&b) {
                if matches!(rec.waiter, Some((w, _, _)) if w == pid) {
                    rec.waiter = None;
                }
            }
        }
    }

    /// Marks every process on `node` dead and schedules their reaping.
    /// RAM state is lost; anything reachable only through those processes
    /// is gone. Persistent stores (simulated disks, NVRAM) are plain shared
    /// objects and survive.
    pub fn crash_node(&mut self, node: NodeId) {
        let pids: Vec<ProcId> = match self.nodes.get_mut(&node) {
            Some(n) => {
                n.alive = false;
                n.procs.iter().copied().collect()
            }
            None => return,
        };
        let mut doomed = Vec::new();
        for pid in pids {
            if let Some(p) = self.procs.get_mut(&pid) {
                if p.state != ProcState::Exited && !p.dead {
                    p.dead = true;
                    doomed.push(pid);
                }
            }
        }
        // `NodeRec::procs` is a HashSet whose iteration order varies between
        // process invocations; sort so the reap order (and thus the decision
        // trace) is identical across runs.
        doomed.sort_unstable();
        let name = self
            .nodes
            .get(&node)
            .map(|n| n.name.clone())
            .unwrap_or_default();
        self.trace_log(format!("crash {node} ({name})"));
        self.record_fault(fault_codes::CRASH_NODE, node.0 as u64, 0);
        if !doomed.is_empty() {
            let t = self.now;
            self.schedule(t, EventKind::Reap(doomed));
        }
    }

    /// Makes a crashed node able to host processes again (a "reboot").
    pub fn revive_node(&mut self, node: NodeId) {
        if let Some(n) = self.nodes.get_mut(&node) {
            n.alive = true;
            n.procs.clear();
        }
        self.trace_log(format!("revive {node}"));
        self.record_fault(fault_codes::REVIVE_NODE, node.0 as u64, 0);
    }

    pub fn node_alive(&self, node: NodeId) -> bool {
        self.nodes.get(&node).map(|n| n.alive).unwrap_or(false)
    }

    pub fn trace_log(&mut self, msg: String) {
        let now = self.now;
        if let Some(t) = &mut self.trace {
            t.push((now, msg));
        }
    }
}

/// Registers a new process and schedules its first activation.
///
/// This is a free function (not a method) because constructing the process's
/// [`crate::Ctx`] requires the `Arc` around the kernel, which a `&mut Kernel`
/// cannot produce.
pub(crate) fn spawn_proc<F, R>(
    shared: &Arc<Mutex<Kernel>>,
    name: &str,
    node: Option<NodeId>,
    f: F,
) -> crate::process::ProcOutput<R>
where
    F: FnOnce(&crate::ctx::Ctx) -> R + Send + 'static,
    R: Send + 'static,
{
    crate::process::spawn_impl(shared, name, node, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    fn kernel() -> Kernel {
        let (tx, _rx) = unbounded();
        // Leak the receiver end on purpose: these tests never resume procs.
        std::mem::forget(_rx);
        Kernel::new(1, tx)
    }

    #[test]
    fn event_ordering_by_time_then_seq() {
        let mut k = kernel();
        k.schedule(SimTime::from_millis(5), EventKind::Reap(vec![]));
        k.schedule(SimTime::from_millis(1), EventKind::Reap(vec![]));
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
    fn mailbox_ready_without_waiter_is_noop() {
        let mut k = kernel();
        let m = k.alloc_mailbox();
        assert!(k.mailbox_ready(m).is_empty());
    }

    /// A dropped receiver retires its record, so channels made per
    /// RPC / per wait do not accumulate for the life of the run; a late
    /// send to the retired mailbox wakes no one.
    #[test]
    fn dropped_receivers_leave_no_mailbox_record() {
        let shared = Arc::new(Mutex::new(kernel()));
        let (_tx, _rx) = crate::mailbox::channel_impl::<u8>(&shared);
        let before = shared.lock().mailboxes.len();
        for i in 0..10_000u32 {
            let (tx, rx) = crate::mailbox::channel_impl::<u32>(&shared);
            tx.send(i);
            drop(rx);
        }
        assert_eq!(shared.lock().mailboxes.len(), before);
        let mut k = shared.lock();
        while let Some(ev) = k.pop_event() {
            if let EventKind::Action(f) = ev.kind {
                assert!(f(&mut k).is_empty(), "a retired mailbox wakes no one");
            }
        }
    }

    #[test]
    fn node_lifecycle() {
        let mut k = kernel();
        let n = k.add_node("srv");
        assert!(k.node_alive(n));
        k.crash_node(n);
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

    #[test]
    fn peek_time_sees_earliest() {
        let mut k = kernel();
        assert!(k.peek_time().is_none());
        k.schedule(SimTime::from_millis(7), EventKind::Reap(vec![]));
        k.schedule(SimTime::from_millis(3), EventKind::Reap(vec![]));
        assert_eq!(k.peek_time(), Some(SimTime::from_millis(3)));
    }
}
