//! The protocol engine for one group instance at one member.
//!
//! Pure state machine: inputs are messages (with arrival time and source
//! host) and clock ticks; outputs are [`Action`]s that the peer layer
//! executes (send packets, deliver events to the app, complete blocked
//! calls). Keeping I/O out makes every protocol rule unit-testable.
//!
//! ## Protocol summary
//!
//! Total order comes from a **sequencer** — the lowest-id member of the
//! current view. Every message takes one data path, the PB method of
//! Kaashoek & Tanenbaum 1991: the sender unicasts `SendReq` to the
//! sequencer, which assigns the next sequence number and multicasts an
//! `Accept` carrying the data. Their BB method (the sender multicasts the
//! data, the sequencer a short `Accept` referencing it) saves bandwidth
//! only on large messages, and no run of the directory service sends a
//! group message larger than 63 bytes; FLIP has no MTU, so PB carries a
//! payload of any size.
//!
//! With resilience degree *r* > 0, members acknowledge each accept and the
//! sequencer notifies the sender (`Done`) only after `r + 1` members hold
//! the message, so `SendToGroup` returning guarantees survival of `r`
//! crashes (paper §1; 1 request + 1 multicast + (n−1) acks + 1 done = 5
//! packets for n = 3, r = 2, the figure in §3.1).
//!
//! Membership changes are themselves sequenced (`Join`/`Leave` accept
//! bodies), giving virtual synchrony. Failures are detected by heartbeat
//! silence and announced with `FailNotice`; the group then refuses traffic
//! until `ResetGroup` rebuilds it around the members that are still alive,
//! choosing as state source a member holding the highest contiguous prefix.
//!
//! ## Module map
//!
//! One [`Instance`] plays every role; each file holds one role's methods:
//!
//! * this file: the state, its constructor, the message dispatch
//!   ([`handle_deferred`](Instance::handle_deferred)), the clock
//!   ([`tick`](Instance::tick)) and the view helpers the roles share;
//! * `sequencer`: slot assignment, accept batching, dones, the window,
//!   retry answers, joins and the sequencer's leave;
//! * `history`: the accepts a member holds — the applied history in a
//!   ring allocated once, and the slots received ahead of a gap;
//! * `member`: the receive path — accepts, acks, heartbeats, gap
//!   recovery and serving retransmissions;
//! * `send`: the application's sends, their retries, and duplicate
//!   suppression (`MsgidRuns`);
//! * `reset`: failure, and the `ResetGroup` vote, announcement and
//!   install.

use amoeba_flip::{HostAddr, Port};
use amoeba_sim::{IdMap, IdSet, SimTime};
use amoeba_telemetry::{Telemetry, TraceCtx};
use std::collections::BTreeMap;

use crate::config::GroupConfig;
use crate::error::GroupError;
use crate::msg::{AcceptBody, DoneItem, GroupMsg};
use crate::types::{
    GroupEvent, GroupInfo, GroupStatus, Incarnation, MemberId, MemberInfo, SeqNo, View,
};

mod history;
mod member;
mod reset;
mod send;
mod sequencer;
mod tests;

use history::History;
use reset::{PendingInstall, ResetCoord};
use send::{MsgidRuns, PendingSend};

/// Effects requested by the engine, executed by the peer layer.
#[derive(Debug)]
pub(crate) enum Action {
    /// A network-bound action carrying causal-trace tags, attached to
    /// the packet as out-of-band metadata by the peer layer. Wrapping
    /// (instead of widening `Unicast`/`Multicast`) keeps every untraced
    /// construction and match site unchanged.
    Traced(Vec<(u64, TraceCtx)>, Box<Action>),
    /// Send a message to one host.
    Unicast(HostAddr, GroupMsg),
    /// Multicast a message to the instance's group address.
    Multicast(GroupMsg),
    /// Hand an event to the application queue.
    Deliver(GroupEvent),
    /// Signal the application that the group failed (one sentinel).
    NotifyFailure,
    /// Complete a blocked `SendToGroup`.
    CompleteSend(u64, Result<SeqNo, GroupError>),
    /// Complete a blocked `ResetGroup`.
    CompleteReset(Result<(), GroupError>),
    /// Complete a blocked `LeaveGroup`.
    CompleteLeave,
    /// This member is gone (left or expelled); remove the instance.
    Dissolve,
}

/// Protocol counters for diagnostics and the cost-analysis experiment.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GroupStats {
    /// `SendToGroup` calls initiated here.
    pub sends: u64,
    /// Accepts applied (messages + view changes).
    pub applied: u64,
    /// Retransmission requests issued.
    pub retrans_requests: u64,
    /// Accepts re-sent to others.
    pub retrans_served: u64,
    /// Send requests retransmitted to the sequencer.
    pub send_retries: u64,
    /// Group failures observed.
    pub failures: u64,
    /// Successful resets.
    pub resets: u64,
    /// Resets this member coordinated that waited out the whole vote
    /// window: some member of the old view neither voted nor was named
    /// dead before the deadline.
    pub resets_at_deadline: u64,
    /// Times the sequencer left a message unsequenced because its window
    /// was shut: some member's acks lag
    /// [`history`](crate::GroupConfig::history) slots behind. The sender
    /// retries it.
    pub window_shut: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AcceptRec {
    pub incarnation: Incarnation,
    pub from: MemberId,
    pub from_tag: u64,
    pub msgid: u64,
    pub body: AcceptBody,
}

pub(crate) struct Instance {
    pub id: u64,
    pub port: Port,
    pub cfg: GroupConfig,
    pub me: MemberId,
    pub my_tag: u64,
    pub my_host: HostAddr,
    pub incarnation: Incarnation,
    pub view: View,
    next_member_id: u32,
    /// Sequencer only: the next sequence number to assign.
    next_seq: SeqNo,
    /// Received accepts by seqno: the applied history and the slots
    /// received ahead of a gap.
    history: History,
    /// Everything `<= highest_contiguous` has been applied in order.
    pub highest_contiguous: SeqNo,
    /// Highest sequence number known to have been assigned anywhere
    /// (from buffered accepts and heartbeat `next_seq`); the upper bound
    /// for gap-recovery retransmission requests.
    highest_seen: SeqNo,
    /// Last seqno handed to the application.
    pub delivered: SeqNo,
    /// Duplicate suppression: per member of the view, the msgids of its
    /// messages applied here. Filled at apply, dropped when the member
    /// leaves the view (whose check refuses its sends from then on).
    seen_msgids: IdMap<MemberId, MsgidRuns>,
    next_msgid: u64,
    pending_sends: IdMap<u64, PendingSend>,
    /// Sequencer only: accepts assigned a slot but not yet multicast,
    /// awaiting coalescing into one packet (flushed at the end of every
    /// entry point, or earlier when `MAX_BATCH` is reached).
    pending_batch: Vec<(SeqNo, AcceptRec)>,
    /// Sequencer only: resilience notifications not yet sent. They
    /// piggyback on the next accept multicast, or coalesce per sender
    /// into a `DoneBatch`, instead of one `Done` unicast each.
    pending_dones: Vec<DoneItem>,
    /// Sequencer only: the sender and msgid (0 for a view change) of each
    /// slot assigned here that has not yet reached the resilience degree.
    pending_acks: BTreeMap<SeqNo, (MemberId, u64)>,
    /// The highest slot each other member is known to hold: the last
    /// cumulative ack it sent here, its join slot, or the cutoff of the
    /// last reset. A lower bound on its progress, and the only record of
    /// it: the sequencer's window ([`window_open`](Instance::window_open))
    /// and resilience ([`resilient_to`](Instance::resilient_to)) are both
    /// read from it.
    holds: IdMap<MemberId, SeqNo>,
    /// The slot this member last acked to its sequencer.
    acked_to: SeqNo,
    /// Liveness: member → last time we heard from it.
    last_heard: IdMap<MemberId, SimTime>,
    last_heartbeat_sent: SimTime,
    pub failed: bool,
    pub dissolved: bool,
    failure_notified: bool,
    /// When the current contiguity gap was first observed.
    gap_since: Option<SimTime>,
    /// Reset: my latched vote (coordinator, round, when).
    voted: Option<(MemberId, u64, SimTime)>,
    /// The members named dead in this incarnation, by this member's
    /// detector or a `FailNotice`, and not heard from since (their invite,
    /// their vote, a `FailNotice` from their host): a reset coordinator
    /// waits for no vote of theirs. Cleared when a reset installs.
    suspects: IdSet<MemberId>,
    reset_coord: Option<ResetCoord>,
    pending_install: Option<PendingInstall>,
    next_reset_round: u64,
    /// Sequencer: a `LeaveGroup` waiting for every member to hold every
    /// slot assigned here, since none can fetch one from this member once
    /// it is gone. Meanwhile the window admits nothing.
    leaving: bool,
    pub stats: GroupStats,
    /// Telemetry handle; disabled by default, installed by the peer
    /// layer right after construction ([`Instance::set_telemetry`]).
    tele: Telemetry,
    /// Ordering-span context per sequence number: written by the
    /// sequencer when it assigns a slot and by members when a tagged
    /// accept arrives; read at delivery and when serving
    /// retransmissions; pruned with the history.
    trace_by_seq: BTreeMap<SeqNo, TraceCtx>,
    /// Trace tags of the packet currently being handled, keyed by msgid
    /// (send requests) or seqno (accepts). Set by the peer
    /// before each `handle_deferred` call; empty for untraced packets.
    rx_tags: Vec<(u64, TraceCtx)>,
}

impl std::fmt::Debug for Instance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instance")
            .field("id", &self.id)
            .field("me", &self.me)
            .field("incarnation", &self.incarnation)
            .field("view", &self.view.members.len())
            .field("highest", &self.highest_contiguous)
            .field("failed", &self.failed)
            .finish()
    }
}

impl Instance {
    /// Creates the founding member (member 0, sequencer) of a new instance.
    pub fn create(
        id: u64,
        port: Port,
        cfg: GroupConfig,
        my_host: HostAddr,
        my_tag: u64,
        now: SimTime,
    ) -> Instance {
        let me = MemberId(0);
        let mut view = View::default();
        view.insert(MemberInfo {
            id: me,
            host: my_host,
            tag: my_tag,
        });
        Instance {
            // A founder has heard from no one: each member's liveness
            // clock starts when its Join is applied.
            last_heard: IdMap::default(),
            ..Self::from_join(id, port, cfg, my_host, my_tag, me, 0, view, 0, now)
        }
    }

    /// Creates a member that just joined via `JoinAck`, holding every slot
    /// up to `start_seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_join(
        id: u64,
        port: Port,
        cfg: GroupConfig,
        my_host: HostAddr,
        my_tag: u64,
        me: MemberId,
        incarnation: Incarnation,
        view: View,
        start_seq: SeqNo,
        now: SimTime,
    ) -> Instance {
        let next_member_id = view.members.iter().map(|m| m.id.0 + 1).max().unwrap_or(1);
        let mut last_heard = IdMap::default();
        for m in &view.members {
            last_heard.insert(m.id, now);
        }
        Instance {
            id,
            port,
            history: History::new(cfg.history),
            cfg,
            me,
            my_tag,
            my_host,
            incarnation,
            view,
            next_member_id,
            next_seq: start_seq + 1,
            highest_contiguous: start_seq,
            highest_seen: start_seq,
            delivered: start_seq,
            seen_msgids: IdMap::default(),
            next_msgid: 1,
            pending_sends: IdMap::default(),
            pending_batch: Vec::new(),
            pending_dones: Vec::new(),
            pending_acks: BTreeMap::new(),
            holds: IdMap::default(),
            acked_to: start_seq,
            last_heard,
            last_heartbeat_sent: now,
            failed: false,
            dissolved: false,
            failure_notified: false,
            gap_since: None,
            voted: None,
            suspects: IdSet::default(),
            reset_coord: None,
            pending_install: None,
            next_reset_round: 1,
            leaving: false,
            stats: GroupStats::default(),
            tele: Telemetry::disabled(),
            trace_by_seq: BTreeMap::new(),
            rx_tags: Vec::new(),
        }
    }

    /// Installs the telemetry handle (called by the peer layer right
    /// after construction; constructors default to disabled so the many
    /// direct-construction unit tests need no changes).
    pub(crate) fn set_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Stashes the trace tags of the packet about to be handled.
    pub(crate) fn set_rx_tags(&mut self, tags: Vec<(u64, TraceCtx)>) {
        self.rx_tags = tags;
    }

    /// The incoming tag for `key` (msgid or seqno), or `NONE`.
    fn rx_tag(&self, key: u64) -> TraceCtx {
        self.rx_tags
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, c)| c)
            .unwrap_or(TraceCtx::NONE)
    }

    /// Wraps a network-bound action with trace tags (identity when the
    /// tag list is empty, so untraced runs build identical actions).
    fn traced(tags: Vec<(u64, TraceCtx)>, action: Action) -> Action {
        if tags.is_empty() {
            action
        } else {
            Action::Traced(tags, Box::new(action))
        }
    }

    fn is_sequencer(&self) -> bool {
        self.view.sequencer().map(|m| m.id) == Some(self.me)
    }

    fn sequencer_host(&self) -> Option<HostAddr> {
        self.view.sequencer().map(|m| m.host)
    }

    /// Resilience capped by the current view size.
    fn effective_r(&self) -> u32 {
        (self.cfg.resilience).min(self.view.len().saturating_sub(1) as u32)
    }

    /// The highest slot member `id` is known to hold; `None` when nothing
    /// is known of its progress.
    fn held_by(&self, id: MemberId) -> Option<SeqNo> {
        if id == self.me {
            Some(self.highest_contiguous)
        } else {
            self.holds.get(&id).copied()
        }
    }

    /// The members of the view not known to hold slot `seq`.
    fn lacking(&self, seq: SeqNo) -> impl Iterator<Item = &MemberInfo> {
        self.view
            .members
            .iter()
            .filter(move |m| self.held_by(m.id).is_none_or(|h| h < seq))
    }

    /// Sequencer: the highest slot that more than `r` members of the view
    /// (itself included) are known to hold. Acks are cumulative, so every
    /// slot up to it has reached the resilience degree. It is the
    /// (r+1)-th highest held slot, 0 while fewer members hold anything.
    fn resilient_to(&self) -> SeqNo {
        let need = self.effective_r() as usize + 1;
        let held = || self.view.members.iter().filter_map(|m| self.held_by(m.id));
        held()
            .filter(|&slot| held().filter(|&h| h >= slot).count() >= need)
            .max()
            .unwrap_or(0)
    }

    /// Snapshot for `GetInfoGroup`.
    pub fn info(&self) -> GroupInfo {
        GroupInfo {
            me: self.me,
            incarnation: self.incarnation,
            view: self.view.clone(),
            highest_contiguous: self.highest_contiguous,
            delivered: self.delivered,
            failed: self.failed,
        }
    }

    /// [`info`](Self::info) without the view.
    pub fn status(&self) -> GroupStatus {
        GroupStatus {
            failed: self.failed,
            members: self.view.len(),
            highest_contiguous: self.highest_contiguous,
        }
    }

    /// Handles a message from the network without flushing the accepts
    /// it caused to be sequenced: the peer layer drains a burst of
    /// same-instant packets so the sequencer coalesces their accepts
    /// into one multicast, then calls
    /// [`flush_pending`](Instance::flush_pending) once at the end of the
    /// burst.
    pub(crate) fn handle_deferred(
        &mut self,
        now: SimTime,
        src: HostAddr,
        msg: GroupMsg,
    ) -> Vec<Action> {
        if self.dissolved {
            return Vec::new();
        }
        match msg {
            GroupMsg::JoinRequest {
                joiner,
                tag,
                join_id,
                ..
            } => self.on_join_request(now, joiner, tag, join_id),
            GroupMsg::SendReq {
                incarnation,
                from,
                msgid,
                data,
                ..
            } => self.on_send_req(now, incarnation, from, msgid, data),
            GroupMsg::Accept {
                incarnation,
                seq,
                from,
                from_tag,
                msgid,
                body,
                ..
            } => self.on_accept(now, src, incarnation, seq, from, from_tag, msgid, body),
            GroupMsg::AcceptBatch {
                incarnation,
                first_seq,
                items,
                dones,
                ..
            } => self.on_accept_batch(now, src, incarnation, first_seq, items, dones),
            GroupMsg::DoneBatch { items, .. } => self.on_done_batch(items),
            GroupMsg::Ack {
                incarnation,
                seq,
                member,
                ..
            } => self.on_ack(now, incarnation, seq, member),
            GroupMsg::Done { msgid, seq, .. } => self.on_done(msgid, seq),
            GroupMsg::Retrans {
                from_seq,
                to_seq,
                requester,
                ..
            } => self.on_retrans(from_seq, to_seq, requester),
            GroupMsg::Heartbeat {
                incarnation,
                next_seq,
                sequencer,
                ..
            } => self.on_heartbeat(now, src, incarnation, next_seq, sequencer),
            GroupMsg::HeartbeatAck {
                incarnation,
                member,
                ..
            } => {
                if incarnation == self.incarnation {
                    self.last_heard.insert(member, now);
                }
                Vec::new()
            }
            GroupMsg::LeaveRequest {
                incarnation,
                member,
                ..
            } => self.on_leave_request(now, incarnation, member),
            GroupMsg::FailNotice {
                incarnation,
                suspect,
                ..
            } => self.on_fail_notice(now, src, incarnation, suspect),
            GroupMsg::ResetInvite {
                old_incarnation,
                coord,
                coord_host,
                round,
                ..
            } => self.on_reset_invite(now, old_incarnation, coord, coord_host, round),
            GroupMsg::ResetVote {
                old_incarnation,
                round,
                coord,
                voter,
                highest,
                ..
            } => self.on_reset_vote(now, old_incarnation, round, coord, voter, highest),
            GroupMsg::ResetResult {
                old_incarnation,
                new_incarnation,
                view,
                cutoff,
                source,
                ..
            } => self.on_reset_result(now, old_incarnation, new_incarnation, view, cutoff, source),
            GroupMsg::ExpelNotice {
                current_incarnation,
                ..
            } => self.on_expel_notice(current_incarnation),
            // Handled at the peer layer.
            GroupMsg::JoinLocate { .. } | GroupMsg::JoinReply { .. } | GroupMsg::JoinAck { .. } => {
                Vec::new()
            }
        }
    }

    /// Clock tick: heartbeats, liveness checks, retransmissions, reset
    /// deadlines.
    pub fn tick(&mut self, now: SimTime) -> Vec<Action> {
        if self.dissolved {
            return Vec::new();
        }
        let mut actions = self.reset_deadline(now);
        if self.failed {
            return actions;
        }
        if self.is_sequencer() {
            // Heartbeat.
            if now.saturating_since(self.last_heartbeat_sent) >= self.cfg.heartbeat_interval {
                self.last_heartbeat_sent = now;
                actions.push(Action::Multicast(GroupMsg::Heartbeat {
                    instance: self.id,
                    incarnation: self.incarnation,
                    next_seq: self.next_seq,
                    sequencer: self.me,
                }));
                if self.leaving {
                    actions.extend(self.leave_once_held(now));
                }
            }
            // Member liveness.
            let dead = self
                .view
                .members
                .iter()
                .filter(|m| m.id != self.me)
                .find(|m| {
                    self.last_heard
                        .get(&m.id)
                        .is_some_and(|t| now.saturating_since(*t) > self.cfg.failure_timeout)
                })
                .map(|m| m.id);
            if let Some(suspect) = dead {
                actions.append(&mut self.fail_group(suspect));
                return actions;
            }
        } else if let Some(seq_member) = self.view.sequencer() {
            // Sequencer liveness (we only track it after hearing once).
            if let Some(t) = self.last_heard.get(&seq_member.id) {
                if now.saturating_since(*t) > self.cfg.failure_timeout {
                    actions.append(&mut self.fail_group(seq_member.id));
                    return actions;
                }
            } else {
                self.last_heard.insert(seq_member.id, now);
            }
        }
        actions.extend(self.recover_gap(now));
        actions.append(&mut self.resend_stale(now));
        actions.extend(self.flush_pending());
        actions
    }
}
