//! The per-machine group-communication kernel: packet dispatch, timers,
//! and the app-facing primitive implementations.
//!
//! Like Amoeba's, this is kernel code, not threads: the group port and the
//! peer's two timers (the protocol tick and the accept-batch flush) are
//! simulator kernel handlers, run at delivery by whichever thread is
//! dispatching. They never block, and take trace context from the packet.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use amoeba_flip::{Dest, GroupAddr, HostAddr, NodeStack, Packet, Port};
use amoeba_sim::{IdMap, MailboxTx, NodeId, SimHandle, Spawn};

use crate::config::{GroupConfig, BATCH_DELAY, TICK_INTERVAL};
use crate::error::GroupError;
use crate::instance::{Action, GroupStats, Instance};
use crate::msg::GroupMsg;
use crate::types::{GroupEvent, GroupInfo, GroupStatus, SeqNo};

/// The well-known FLIP port for all group-communication traffic.
pub const GROUP_PORT: Port = Port::from_raw(0x0047_5250); // "GRP"

type AppItem = Result<GroupEvent, GroupError>;

pub(crate) struct InstanceSlot {
    pub inst: Instance,
    pub app_tx: MailboxTx<AppItem>,
    pub send_waiters: IdMap<u64, MailboxTx<Result<SeqNo, GroupError>>>,
    pub reset_waiter: Option<MailboxTx<Result<(), GroupError>>>,
    pub leave_waiter: Option<MailboxTx<()>>,
}

pub(crate) struct PeerInner {
    /// Ordered by instance id: ticks, flushes and join replies walk every
    /// instance and emit messages as they go, so the walk order must
    /// repeat from run to run.
    pub instances: BTreeMap<u64, InstanceSlot>,
    pub join_reply_waiters: IdMap<u64, MailboxTx<GroupMsg>>,
    pub join_ack_waiters: IdMap<u64, MailboxTx<GroupMsg>>,
    pub next_local_id: u64,
    /// A [`Timer::Flush`] is on its way.
    flush_scheduled: bool,
}

/// What the peer's timer handler is called with.
enum Timer {
    /// Once, when the peer starts: the first tick is one interval away.
    Arm,
    /// Every [`TICK_INTERVAL`]: drive each instance's protocol timers.
    Tick,
    /// `BATCH_DELAY` after the first deferred accept: send the batch.
    Flush,
}

/// One machine's group-communication kernel.
///
/// Start with [`GroupPeer::start`]; then use
/// [`create`](GroupPeer::create) / [`join`](GroupPeer::join) to obtain
/// [`Group`](crate::Group) handles. Cloning is cheap. All protocol state
/// dies with the machine (spawn a fresh peer after a reboot).
#[derive(Clone)]
pub struct GroupPeer {
    pub(crate) stack: NodeStack,
    pub(crate) handle: SimHandle,
    pub(crate) cfg: GroupConfig,
    pub(crate) inner: Rc<RefCell<PeerInner>>,
}

impl std::fmt::Debug for GroupPeer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GroupPeer({})", self.stack.addr())
    }
}

impl GroupPeer {
    /// Binds the group port and the peer's timers to kernel handlers on
    /// `sim_node` (they die when the machine crashes).
    pub fn start(
        spawner: &impl Spawn,
        sim_node: NodeId,
        stack: NodeStack,
        cfg: GroupConfig,
    ) -> GroupPeer {
        let handle = spawner.sim_handle();
        let peer = GroupPeer {
            stack,
            handle,
            cfg,
            inner: Rc::new(RefCell::new(PeerInner {
                instances: BTreeMap::new(),
                join_reply_waiters: IdMap::default(),
                join_ack_waiters: IdMap::default(),
                next_local_id: 1,
                flush_scheduled: false,
            })),
        };
        let (timer_tx, timer_rx) = peer.handle.channel::<Timer>();
        let (kernel, flush_tx) = (peer.clone(), timer_tx.clone());
        peer.stack.bind_handler(
            GROUP_PORT,
            sim_node,
            &format!("grp@{}", peer.stack.addr()),
            move |pkt| kernel.handle_packet(pkt, &flush_tx),
        );
        let (kernel, tick_tx) = (peer.clone(), timer_tx.clone());
        peer.handle.handler(
            sim_node,
            &format!("grp-timer@{}", peer.stack.addr()),
            timer_rx,
            move |timer| match timer {
                Timer::Arm => tick_tx.send_after(TICK_INTERVAL, Timer::Tick),
                Timer::Tick => {
                    kernel.tick();
                    tick_tx.send_after(TICK_INTERVAL, Timer::Tick);
                }
                Timer::Flush => {
                    kernel.inner.borrow_mut().flush_scheduled = false;
                    kernel.flush_all();
                }
            },
        );
        // Armed through the event queue, not from here, so that whatever
        // else starts in this instant keeps its place relative to the
        // first tick.
        timer_tx.send(Timer::Arm);
        peer
    }

    /// This machine's host address.
    pub fn addr(&self) -> HostAddr {
        self.stack.addr()
    }

    /// Protocol statistics for the instance backing `group`.
    pub fn stats_of(&self, instance: u64) -> Option<GroupStats> {
        self.inner
            .borrow_mut()
            .instances
            .get(&instance)
            .map(|s| s.inst.stats)
    }

    /// Handles one packet from the group port.
    fn handle_packet(&self, mut pkt: Packet, timer_tx: &MailboxTx<Timer>) {
        // Packet handling defers the sequencer's accept multicasts; a
        // one-shot timer flushes what accumulated. (The engine itself
        // still flushes early the moment `MAX_BATCH` accepts are pending,
        // and the 20 ms tick is the fallback bound.)
        if let Ok(msg) = GroupMsg::decode(&pkt.payload) {
            let tags = std::mem::take(&mut pkt.trace);
            self.handle_msg(pkt.src, msg, tags);
        }
        if self.flush_now_due() {
            timer_tx.send_after(BATCH_DELAY, Timer::Flush);
        }
    }

    /// Whether some instance holds accepts awaiting a batch flush and no
    /// [`Timer::Flush`] is on its way; marks one as being so.
    fn flush_now_due(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        let due =
            !inner.flush_scheduled && inner.instances.values().any(|s| s.inst.has_pending_batch());
        inner.flush_scheduled |= due;
        due
    }

    /// Flushes every instance's pending accept batch (end of a burst).
    fn flush_all(&self) {
        let work: Vec<(u64, Vec<Action>)> = {
            let mut inner = self.inner.borrow_mut();
            inner
                .instances
                .iter_mut()
                .map(|(id, slot)| (*id, slot.inst.flush_pending()))
                .filter(|(_, actions)| !actions.is_empty())
                .collect()
        };
        for (id, actions) in work {
            self.run_actions(id, actions);
        }
    }

    fn handle_msg(
        &self,
        src: HostAddr,
        msg: GroupMsg,
        tags: Vec<(u64, amoeba_telemetry::TraceCtx)>,
    ) {
        match &msg {
            GroupMsg::JoinLocate {
                port,
                joiner,
                join_id,
            } => {
                if *joiner == self.stack.addr() {
                    return; // our own broadcast
                }
                let replies: Vec<(u64, Action)> = {
                    let inner = self.inner.borrow();
                    inner
                        .instances
                        .values()
                        .filter(|s| s.inst.port == *port)
                        .filter_map(|s| {
                            s.inst.join_reply(*joiner, *join_id).map(|a| (s.inst.id, a))
                        })
                        .collect()
                };
                for (id, action) in replies {
                    self.execute(id, action);
                }
            }
            GroupMsg::JoinReply { join_id, .. } => {
                let waiter = self.inner.borrow_mut().join_reply_waiters.remove(join_id);
                if let Some(w) = waiter {
                    w.send(msg);
                }
            }
            GroupMsg::JoinAck { join_id, .. } => {
                let waiter = self.inner.borrow_mut().join_ack_waiters.remove(join_id);
                if let Some(w) = waiter {
                    w.send(msg);
                }
            }
            other => {
                let instance = match instance_of(other) {
                    Some(i) => i,
                    None => return,
                };
                let now = self.handle.now();
                let actions = {
                    let mut inner = self.inner.borrow_mut();
                    match inner.instances.get_mut(&instance) {
                        Some(slot) => {
                            slot.inst.set_rx_tags(tags);
                            slot.inst.handle_deferred(now, src, other.clone())
                        }
                        None => Vec::new(),
                    }
                };
                self.run_actions(instance, actions);
            }
        }
    }

    /// Drives every instance's protocol timers: each ticks before any
    /// action runs, and only the instances that have actions are kept,
    /// so an idle tick allocates nothing.
    fn tick(&self) {
        let now = self.handle.now();
        let work: Vec<(u64, Vec<Action>)> = {
            let mut inner = self.inner.borrow_mut();
            inner
                .instances
                .iter_mut()
                .map(|(id, slot)| (*id, slot.inst.tick(now)))
                .filter(|(_, actions)| !actions.is_empty())
                .collect()
        };
        for (id, actions) in work {
            self.run_actions(id, actions);
        }
    }

    /// Executes one engine action. Must NOT be called with `inner` borrowed.
    pub(crate) fn execute(&self, instance: u64, action: Action) {
        match action {
            Action::Traced(tags, inner) => match *inner {
                Action::Unicast(host, msg) => {
                    self.stack
                        .send_traced(Dest::Unicast(host), GROUP_PORT, msg.encode(), tags);
                }
                Action::Multicast(msg) => {
                    self.stack.send_traced(
                        Dest::Multicast(GroupAddr(instance)),
                        GROUP_PORT,
                        msg.encode(),
                        tags,
                    );
                }
                other => self.execute(instance, other),
            },
            Action::Unicast(host, msg) => {
                self.stack
                    .send(Dest::Unicast(host), GROUP_PORT, msg.encode());
            }
            Action::Multicast(msg) => {
                self.stack.send(
                    Dest::Multicast(GroupAddr(instance)),
                    GROUP_PORT,
                    msg.encode(),
                );
            }
            Action::Deliver(event) => {
                let tx = self
                    .inner
                    .borrow_mut()
                    .instances
                    .get(&instance)
                    .map(|s| s.app_tx.clone());
                if let Some(tx) = tx {
                    tx.send(Ok(event));
                }
            }
            Action::NotifyFailure => {
                let tx = self
                    .inner
                    .borrow_mut()
                    .instances
                    .get(&instance)
                    .map(|s| s.app_tx.clone());
                if let Some(tx) = tx {
                    tx.send(Err(GroupError::Failed));
                }
            }
            Action::CompleteSend(msgid, result) => {
                let w = self
                    .inner
                    .borrow_mut()
                    .instances
                    .get_mut(&instance)
                    .and_then(|s| s.send_waiters.remove(&msgid));
                if let Some(w) = w {
                    w.send(result);
                }
            }
            Action::CompleteReset(result) => {
                let w = self
                    .inner
                    .borrow_mut()
                    .instances
                    .get_mut(&instance)
                    .and_then(|s| s.reset_waiter.take());
                if let Some(w) = w {
                    w.send(result);
                }
            }
            Action::CompleteLeave => {
                let w = self
                    .inner
                    .borrow_mut()
                    .instances
                    .get_mut(&instance)
                    .and_then(|s| s.leave_waiter.take());
                if let Some(w) = w {
                    w.send(());
                }
            }
            Action::Dissolve => {
                let slot = self.inner.borrow_mut().instances.remove(&instance);
                if let Some(mut slot) = slot {
                    self.stack.leave_group(GroupAddr(instance));
                    // Fail anything still blocked on this instance.
                    for a in slot.inst.fail_pending() {
                        if let Action::CompleteSend(msgid, result) = a {
                            if let Some(w) = slot.send_waiters.remove(&msgid) {
                                w.send(result);
                            }
                        }
                    }
                    slot.app_tx.send(Err(GroupError::Dead));
                    if let Some(w) = slot.reset_waiter.take() {
                        w.send(Err(GroupError::Dead));
                    }
                    if let Some(w) = slot.leave_waiter.take() {
                        w.send(());
                    }
                }
            }
        }
    }

    pub(crate) fn with_slot<T>(
        &self,
        instance: u64,
        f: impl FnOnce(&mut InstanceSlot) -> T,
    ) -> Option<T> {
        self.inner.borrow_mut().instances.get_mut(&instance).map(f)
    }

    pub(crate) fn info_of(&self, instance: u64) -> Option<GroupInfo> {
        self.inner
            .borrow_mut()
            .instances
            .get(&instance)
            .map(|s| s.inst.info())
    }

    pub(crate) fn status_of(&self, instance: u64) -> Option<GroupStatus> {
        self.inner
            .borrow()
            .instances
            .get(&instance)
            .map(|s| s.inst.status())
    }

    /// Runs engine actions produced while `inner` was borrowed, after release.
    pub(crate) fn run_actions(&self, instance: u64, actions: Vec<Action>) {
        for a in actions {
            self.execute(instance, a);
        }
    }
}

/// Extracts the instance id from any instance-scoped message.
fn instance_of(msg: &GroupMsg) -> Option<u64> {
    match msg {
        GroupMsg::JoinLocate { .. } | GroupMsg::JoinReply { .. } | GroupMsg::JoinAck { .. } => None,
        GroupMsg::JoinRequest { instance, .. }
        | GroupMsg::SendReq { instance, .. }
        | GroupMsg::BbData { instance, .. }
        | GroupMsg::Accept { instance, .. }
        | GroupMsg::AcceptBatch { instance, .. }
        | GroupMsg::Ack { instance, .. }
        | GroupMsg::Done { instance, .. }
        | GroupMsg::DoneBatch { instance, .. }
        | GroupMsg::Retrans { instance, .. }
        | GroupMsg::Heartbeat { instance, .. }
        | GroupMsg::HeartbeatAck { instance, .. }
        | GroupMsg::LeaveRequest { instance, .. }
        | GroupMsg::FailNotice { instance, .. }
        | GroupMsg::ResetInvite { instance, .. }
        | GroupMsg::ResetVote { instance, .. }
        | GroupMsg::ResetResult { instance, .. }
        | GroupMsg::ExpelNotice { instance, .. } => Some(*instance),
    }
}
