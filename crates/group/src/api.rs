//! The application-facing group handle: the Fig. 1 primitives.

use std::time::Duration;

use amoeba_flip::{Dest, GroupAddr, Payload, Port};
use amoeba_sim::{Ctx, MailboxRx};

use crate::error::GroupError;
use crate::instance::Instance;
use crate::msg::GroupMsg;
use crate::peer::{GroupPeer, InstanceSlot, GROUP_PORT};
use crate::types::{GroupEvent, GroupInfo, GroupStatus, SeqNo};

type AppItem = Result<GroupEvent, GroupError>;

/// A membership in one group: the handle on which the paper's primitives
/// (`SendToGroup`, `ReceiveFromGroup`, `ResetGroup`, `GetInfoGroup`,
/// `LeaveGroup`) are invoked.
///
/// Obtained from [`GroupPeer::create`] or [`GroupPeer::join`]. The handle
/// owns the receive side of the event queue, so exactly one process should
/// call [`recv`](Group::recv) (the paper's single *group thread*); `send`
/// and `info` may be used from any process on the same machine.
#[derive(Debug)]
pub struct Group {
    peer: GroupPeer,
    instance: u64,
    app_rx: MailboxRx<AppItem>,
}

impl GroupPeer {
    /// `CreateGroup`: founds a new group instance for `port` with this
    /// machine as first member and sequencer. `tag` is an opaque
    /// application label attached to this member (the directory service
    /// stores its replica number here).
    pub fn create(&self, port: Port, tag: u64) -> Group {
        let now = self.handle.now();
        let instance_id = {
            let mut inner = self.inner.borrow_mut();
            let local = inner.next_local_id;
            inner.next_local_id += 1;
            (u64::from(self.stack.addr().0) << 32) | local
        };
        let mut inst = Instance::create(
            instance_id,
            port,
            self.cfg.clone(),
            self.stack.addr(),
            tag,
            now,
        );
        inst.set_telemetry(amoeba_telemetry::Telemetry::from_handle(&self.handle));
        self.stack.join_group(GroupAddr(instance_id));
        let (app_tx, app_rx) = self.handle.channel::<AppItem>();
        self.inner.borrow_mut().instances.insert(
            instance_id,
            InstanceSlot {
                inst,
                app_tx,
                send_waiters: Default::default(),
                reset_waiter: None,
                leave_waiter: None,
            },
        );
        Group {
            peer: self.clone(),
            instance: instance_id,
            app_rx,
        }
    }

    /// `JoinGroup`: locates a live instance for `port` and joins it.
    ///
    /// # Errors
    ///
    /// [`GroupError::JoinTimeout`] if no instance answered or the join
    /// handshake did not complete within `timeout`.
    pub fn join(
        &self,
        ctx: &Ctx,
        port: Port,
        tag: u64,
        timeout: Duration,
    ) -> Result<Group, GroupError> {
        let deadline = ctx.now() + timeout;
        // Phase 1: locate an instance, rebroadcasting periodically (an
        // instance may be created after our first locate).
        let (join_id, reply_rx) = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_local_id;
            inner.next_local_id += 1;
            let (tx, rx) = self.handle.channel::<GroupMsg>();
            inner.join_reply_waiters.insert(id, tx);
            (id, rx)
        };
        let reply = loop {
            self.stack.send(
                Dest::Broadcast,
                GROUP_PORT,
                GroupMsg::JoinLocate {
                    port,
                    joiner: self.stack.addr(),
                    join_id,
                }
                .encode(),
            );
            let round_end = (ctx.now() + Duration::from_millis(120)).min(deadline);
            match reply_rx.recv_deadline(ctx, round_end) {
                Some(r) => break Some(r),
                None if ctx.now() >= deadline => break None,
                None => continue,
            }
        };
        self.inner.borrow_mut().join_reply_waiters.remove(&join_id);
        let (instance, sequencer) = match reply {
            Some(GroupMsg::JoinReply {
                instance,
                sequencer,
                ..
            }) => (instance, sequencer),
            _ => return Err(GroupError::JoinTimeout),
        };
        // Phase 2: join the instance. Enter the multicast group first so
        // accepts racing the ack are not lost.
        self.stack.join_group(GroupAddr(instance));
        let (ack_id, ack_rx) = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.next_local_id;
            inner.next_local_id += 1;
            let (tx, rx) = self.handle.channel::<GroupMsg>();
            inner.join_ack_waiters.insert(id, tx);
            (id, rx)
        };
        self.stack.send(
            Dest::Unicast(sequencer),
            GROUP_PORT,
            GroupMsg::JoinRequest {
                instance,
                joiner: self.stack.addr(),
                tag,
                join_id: ack_id,
            }
            .encode(),
        );
        let ack = ack_rx.recv_deadline(ctx, deadline);
        self.inner.borrow_mut().join_ack_waiters.remove(&ack_id);
        let (member_id, incarnation, view, start_seq) = match ack {
            Some(GroupMsg::JoinAck {
                member_id,
                incarnation,
                view,
                start_seq,
                ..
            }) => (member_id, incarnation, view, start_seq),
            _ => {
                self.stack.leave_group(GroupAddr(instance));
                return Err(GroupError::JoinTimeout);
            }
        };
        let now = self.handle.now();
        let mut inst = Instance::from_join(
            instance,
            port,
            self.cfg.clone(),
            self.stack.addr(),
            tag,
            member_id,
            incarnation,
            view,
            start_seq,
            now,
        );
        inst.set_telemetry(amoeba_telemetry::Telemetry::from_handle(&self.handle));
        let (app_tx, app_rx) = self.handle.channel::<AppItem>();
        self.inner.borrow_mut().instances.insert(
            instance,
            InstanceSlot {
                inst,
                app_tx,
                send_waiters: Default::default(),
                reset_waiter: None,
                leave_waiter: None,
            },
        );
        Ok(Group {
            peer: self.clone(),
            instance,
            app_rx,
        })
    }
}

impl Group {
    /// The instance id (diagnostics; also the key for
    /// [`GroupPeer::stats_of`]).
    pub fn instance_id(&self) -> u64 {
        self.instance
    }

    /// This member's engine counters (`None` after dissolution).
    pub fn stats(&self) -> Option<crate::GroupStats> {
        self.peer.stats_of(self.instance)
    }

    /// `SendToGroup`: sends `data` to every member in total order. Blocks
    /// until the message is *r*-resilient (held by at least r+1 members).
    ///
    /// The payload is shared from here to every member's delivery queue:
    /// no byte of it is copied again inside the group stack.
    ///
    /// # Errors
    ///
    /// [`GroupError::Failed`] if the group failed (call
    /// [`reset`](Group::reset)); [`GroupError::Dead`] if this member was
    /// expelled or the instance dissolved.
    pub fn send(&self, ctx: &Ctx, data: impl Into<Payload>) -> Result<SeqNo, GroupError> {
        self.send_traced(ctx, data, amoeba_telemetry::TraceCtx::NONE)
    }

    /// [`send`](Group::send) carrying the submitter's causal-trace
    /// context. The sequencer parents its ordering span to it, and every
    /// member's delivery event exposes the ordering context
    /// ([`GroupEvent::Message::trace`]). A `NONE` context makes this
    /// identical to `send`.
    pub fn send_traced(
        &self,
        ctx: &Ctx,
        data: impl Into<Payload>,
        trace: amoeba_telemetry::TraceCtx,
    ) -> Result<SeqNo, GroupError> {
        let now = ctx.now();
        let data = data.into();
        let (rx, actions) = {
            let (tx, rx) = ctx.reply_channel();
            let r = self.peer.with_slot(self.instance, |slot| {
                let (msgid, actions) = slot.inst.app_send_traced(now, data, trace);
                slot.send_waiters.insert(msgid, tx);
                (msgid, actions)
            });
            match r {
                Some((_msgid, actions)) => (rx, actions),
                None => return Err(GroupError::Dead),
            }
        };
        self.peer.run_actions(self.instance, actions);
        rx.recv(ctx)
    }

    /// `ReceiveFromGroup`: the next event in the total order.
    ///
    /// # Errors
    ///
    /// [`GroupError::Failed`] when the group needs [`reset`](Group::reset);
    /// [`GroupError::Dead`] when this membership is gone for good.
    pub fn recv(&self, ctx: &Ctx) -> Result<GroupEvent, GroupError> {
        if let Some(item) = self.app_rx.try_recv() {
            return item;
        }
        match self.state() {
            GroupState::Healthy => {}
            GroupState::Failed => return Err(GroupError::Failed),
            GroupState::Dead => return Err(GroupError::Dead),
        }
        self.app_rx.recv(ctx)
    }

    /// Like [`recv`](Group::recv) with a timeout; `None` on expiry.
    pub fn recv_timeout(&self, ctx: &Ctx, d: Duration) -> Option<Result<GroupEvent, GroupError>> {
        if let Some(item) = self.app_rx.try_recv() {
            return Some(item);
        }
        match self.state() {
            GroupState::Healthy => {}
            GroupState::Failed => return Some(Err(GroupError::Failed)),
            GroupState::Dead => return Some(Err(GroupError::Dead)),
        }
        self.app_rx.recv_timeout(ctx, d)
    }

    /// `GetInfoGroup`.
    ///
    /// # Errors
    ///
    /// [`GroupError::Dead`] if the instance has dissolved.
    pub fn info(&self) -> Result<GroupInfo, GroupError> {
        self.peer.info_of(self.instance).ok_or(GroupError::Dead)
    }

    /// [`info`](Group::info) without the view, which it does not copy:
    /// what a replica checks on every request.
    ///
    /// # Errors
    ///
    /// [`GroupError::Dead`] if the instance has dissolved.
    pub fn status(&self) -> Result<GroupStatus, GroupError> {
        self.peer.status_of(self.instance).ok_or(GroupError::Dead)
    }

    /// Number of events buffered by the kernel that this handle has not
    /// yet received — what Fig. 5's read path checks before serving a read.
    pub fn pending_events(&self) -> usize {
        self.app_rx.len()
    }

    /// `ResetGroup`: rebuilds the group from the still-reachable members.
    /// Succeeds only if at least `min_size` members (including this one)
    /// participate. Every member may call this concurrently; they converge
    /// on one new view. The coordinator announces that view as soon as
    /// every member of the old one has voted or been named dead in its
    /// incarnation (by a member's failure detector, in a `FailNotice`), so
    /// a crash costs failure detection and a round trip; only a member
    /// that nobody suspects and that stays silent makes it wait out the
    /// vote window (150 ms;
    /// [`GroupStats::resets_at_deadline`](crate::GroupStats::resets_at_deadline)
    /// counts those resets).
    ///
    /// # Errors
    ///
    /// [`GroupError::ResetFailed`] if fewer than `min_size` members
    /// answered within the vote window (`timeout` bounds the total wait).
    pub fn reset(
        &self,
        ctx: &Ctx,
        min_size: usize,
        timeout: Duration,
    ) -> Result<GroupInfo, GroupError> {
        let deadline = ctx.now() + timeout;
        loop {
            let now = ctx.now();
            if now >= deadline {
                return Err(GroupError::ResetFailed);
            }
            let (rx, actions) = {
                let (tx, rx) = self.peer.handle.channel();
                let r = self.peer.with_slot(self.instance, |slot| {
                    if !slot.inst.failed {
                        // Healthy again (another coordinator won): done.
                        return None;
                    }
                    let actions = slot.inst.app_reset(now, min_size);
                    slot.reset_waiter = Some(tx);
                    Some(actions)
                });
                match r {
                    None => return Err(GroupError::Dead),
                    Some(None) => return self.info(),
                    Some(Some(actions)) => (rx, actions),
                }
            };
            self.peer.run_actions(self.instance, actions);
            match rx.recv_deadline(ctx, deadline) {
                Some(Ok(())) => return self.info(),
                Some(Err(GroupError::ResetFailed)) => {
                    // Jitter, then retry until the caller's deadline.
                    let j = ctx.with_rng(|r| r.range(1, 20));
                    ctx.sleep(Duration::from_millis(j));
                    continue;
                }
                Some(Err(e)) => return Err(e),
                None => return Err(GroupError::ResetFailed),
            }
        }
    }

    /// `LeaveGroup`: departs gracefully; the handle is consumed.
    pub fn leave(self, ctx: &Ctx) {
        let now = ctx.now();
        let (rx, actions) = {
            let (tx, rx) = self.peer.handle.channel();
            let r = self.peer.with_slot(self.instance, |slot| {
                slot.leave_waiter = Some(tx);
                slot.inst.app_leave(now)
            });
            match r {
                Some(actions) => (rx, actions),
                None => return, // already gone
            }
        };
        self.peer.run_actions(self.instance, actions);
        // Bounded wait: if the sequencer is unreachable the instance will
        // fail and dissolve through other paths; don't hang forever.
        let _ = rx.recv_timeout(ctx, Duration::from_secs(5));
    }

    fn state(&self) -> GroupState {
        match self.peer.info_of(self.instance) {
            None => GroupState::Dead,
            Some(i) if i.failed => GroupState::Failed,
            Some(_) => GroupState::Healthy,
        }
    }
}

enum GroupState {
    Healthy,
    Failed,
    Dead,
}
