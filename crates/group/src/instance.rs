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
//! current view. Two data paths (Kaashoek & Tanenbaum 1991):
//!
//! * **PB method** (small messages): sender unicasts `SendReq` to the
//!   sequencer, which assigns the next sequence number and multicasts an
//!   `Accept` carrying the data.
//! * **BB method** (large messages): sender multicasts the data (`BbData`);
//!   the sequencer multicasts a short `Accept` referencing it.
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

use amoeba_flip::{HostAddr, Payload, Port};
use amoeba_sim::{IdMap, SimTime};
use amoeba_telemetry::{Telemetry, TraceCtx};
use std::collections::BTreeMap;

use crate::config::{GroupConfig, MAX_BATCH};
use crate::error::GroupError;
use crate::msg::{AcceptBody, AcceptItem, DoneItem, GroupMsg, MAX_ACCEPT_BATCH_ITEMS};
use crate::types::{GroupEvent, GroupInfo, Incarnation, MemberId, MemberInfo, SeqNo, View};

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
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AcceptRec {
    pub incarnation: Incarnation,
    pub from: MemberId,
    pub from_tag: u64,
    pub msgid: u64,
    pub body: AcceptBody,
}

#[derive(Debug)]
struct PendingSend {
    /// Shared payload; retries re-send the same buffer.
    data: Payload,
    sent_at: SimTime,
    bb: bool,
    /// Submitter's causal-trace context (NONE when untraced); retries
    /// re-attach it so the span tree stays connected across loss.
    trace: TraceCtx,
    /// The slot this member applied the message at, once it has: how a
    /// retry completes after its slot has left the sequencer's history.
    applied_at: Option<SeqNo>,
}

/// The msgids of one sender that a member has applied, as disjoint
/// inclusive runs `(lo, hi)` in ascending order. A sender numbers its
/// messages densely, so its set is one run; a send that failed before it
/// was sequenced leaves a hole, and each hole adds at most one run. Only
/// live state: the record of a message is its run, not an entry of its
/// own, and the slot a duplicate was applied at is read from the history.
#[derive(Debug, Default)]
struct MsgidRuns(Vec<(u64, u64)>);

impl MsgidRuns {
    /// The number of runs that start at or below `msgid`.
    fn starting_by(&self, msgid: u64) -> usize {
        self.0.partition_point(|&(lo, _)| lo <= msgid)
    }

    fn contains(&self, msgid: u64) -> bool {
        let i = self.starting_by(msgid);
        i > 0 && self.0[i - 1].1 >= msgid
    }

    /// Adds `msgid`, merging it with the runs it touches.
    fn insert(&mut self, msgid: u64) {
        let i = self.starting_by(msgid);
        let extends_prev = i > 0 && self.0[i - 1].1 + 1 >= msgid;
        if extends_prev && self.0[i - 1].1 >= msgid {
            return;
        }
        let extends_next = i < self.0.len() && self.0[i].0 == msgid + 1;
        match (extends_prev, extends_next) {
            (true, true) => {
                self.0[i - 1].1 = self.0[i].1;
                self.0.remove(i);
            }
            (true, false) => self.0[i - 1].1 = msgid,
            (false, true) => self.0[i].0 = msgid,
            (false, false) => self.0.insert(i, (msgid, msgid)),
        }
    }
}

#[derive(Debug)]
struct ResetCoord {
    round: u64,
    min_size: usize,
    votes: IdMap<MemberId, (MemberInfo, SeqNo)>,
    deadline: SimTime,
    announced: bool,
}

#[derive(Debug)]
struct PendingInstall {
    new_incarnation: Incarnation,
    view: View,
    cutoff: SeqNo,
    source: HostAddr,
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
    /// Received accepts by seqno (history and out-of-order future).
    buffer: BTreeMap<SeqNo, AcceptRec>,
    /// Everything `<= highest_contiguous` has been applied in order.
    pub highest_contiguous: SeqNo,
    /// Highest sequence number known to have been assigned anywhere
    /// (from buffered accepts and heartbeat `next_seq`); the upper bound
    /// for gap-recovery retransmission requests.
    highest_seen: SeqNo,
    /// Last seqno handed to the application.
    pub delivered: SeqNo,
    /// BB payloads waiting for (or paired with) their accept; dropped
    /// when the slot leaves the history.
    bb_store: IdMap<(MemberId, u64), Payload>,
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
    /// retransmissions; pruned with the accept buffer's history.
    trace_by_seq: BTreeMap<SeqNo, TraceCtx>,
    /// Trace tags of the packet currently being handled, keyed by msgid
    /// (send requests, BB data) or seqno (accepts). Set by the peer
    /// before each `handle` call; empty for untraced packets.
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
            id,
            port,
            cfg,
            me,
            my_tag,
            my_host,
            incarnation: 0,
            view,
            next_member_id: 1,
            next_seq: 1,
            buffer: BTreeMap::new(),
            highest_contiguous: 0,
            highest_seen: 0,
            delivered: 0,
            bb_store: IdMap::default(),
            seen_msgids: IdMap::default(),
            next_msgid: 1,
            pending_sends: IdMap::default(),
            pending_batch: Vec::new(),
            pending_dones: Vec::new(),
            pending_acks: BTreeMap::new(),
            holds: IdMap::default(),
            acked_to: 0,
            last_heard: IdMap::default(),
            last_heartbeat_sent: now,
            failed: false,
            dissolved: false,
            failure_notified: false,
            gap_since: None,
            voted: None,
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

    /// Creates a member that just joined via `JoinAck`.
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
            cfg,
            me,
            my_tag,
            my_host,
            incarnation,
            view,
            next_member_id,
            next_seq: start_seq + 1,
            buffer: BTreeMap::new(),
            highest_contiguous: start_seq,
            highest_seen: start_seq,
            delivered: start_seq,
            bb_store: IdMap::default(),
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

    /// The oldest slot every member must still hold for the sequencer to
    /// assign `next_seq`.
    fn window_floor(&self) -> SeqNo {
        self.next_seq.saturating_sub(self.cfg.history)
    }

    /// Sequencer: whether the window admits one more message. The
    /// sequencer never runs more than `history` slots ahead of the
    /// slowest member's acknowledged prefix, so every member still holds
    /// each slot that a retransmission or a reset catch-up can ask it for
    /// (each keeps the last `history`). Join and Leave accepts bypass the
    /// window, so a view change can always make progress.
    fn window_open(&self) -> bool {
        !self.leaving && self.lacking(self.window_floor()).next().is_none()
    }

    /// Sequencer: the highest slot that more than `r` members of the view
    /// (itself included) are known to hold. Acks are cumulative, so every
    /// slot up to it has reached the resilience degree.
    fn resilient_to(&self) -> SeqNo {
        let mut held: Vec<SeqNo> = self
            .view
            .members
            .iter()
            .filter_map(|m| self.held_by(m.id))
            .collect();
        held.sort_unstable_by(|a, b| b.cmp(a));
        held.get(self.effective_r() as usize).copied().unwrap_or(0)
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

    // ==================================================================
    // Application entry points.
    // ==================================================================

    /// `SendToGroup`: begins sending; completion arrives via
    /// [`Action::CompleteSend`]. The payload is shared from here on:
    /// retries, sequencing and delivery never copy the bytes again.
    #[cfg_attr(not(test), allow(dead_code))] // production callers trace
    pub fn app_send(&mut self, now: SimTime, data: Payload) -> (u64, Vec<Action>) {
        self.app_send_traced(now, data, TraceCtx::NONE)
    }

    /// [`app_send`](Instance::app_send) with the submitter's causal-trace
    /// context: outgoing `SendReq`/`BbData` carry it keyed by msgid, and
    /// the sequencer parents its ordering span to it.
    pub fn app_send_traced(
        &mut self,
        now: SimTime,
        data: Payload,
        trace: TraceCtx,
    ) -> (u64, Vec<Action>) {
        let msgid = self.next_msgid;
        self.next_msgid += 1;
        self.stats.sends += 1;
        if self.failed || self.dissolved {
            return (
                msgid,
                vec![Action::CompleteSend(msgid, Err(GroupError::Failed))],
            );
        }
        let bb = data.len() >= self.cfg.bb_threshold;
        // Register before sequencing: a sequencer's own r=0 send completes
        // during the local apply inside sequence_message.
        self.pending_sends.insert(
            msgid,
            PendingSend {
                data: data.clone(),
                sent_at: now,
                bb,
                trace,
                applied_at: None,
            },
        );
        let tags = if trace.is_some() {
            vec![(msgid, trace)]
        } else {
            Vec::new()
        };
        let mut actions = Vec::new();
        if bb {
            actions.push(Self::traced(
                tags,
                Action::Multicast(GroupMsg::BbData {
                    instance: self.id,
                    incarnation: self.incarnation,
                    from: self.me,
                    msgid,
                    data,
                }),
            ));
            // The sequencer learns of the message from the BbData itself.
        } else if self.is_sequencer() {
            if self.window_open() {
                let mut acts = self.sequence_message(
                    now,
                    self.me,
                    self.my_tag,
                    msgid,
                    AcceptBody::Data(data),
                    trace,
                );
                actions.append(&mut acts);
            } else {
                // Retried on the tick, like a remote sender's request.
                actions.extend(self.ask_for_acks(self.window_floor()));
            }
        } else {
            match self.sequencer_host() {
                Some(h) => actions.push(Self::traced(
                    tags,
                    Action::Unicast(
                        h,
                        GroupMsg::SendReq {
                            instance: self.id,
                            incarnation: self.incarnation,
                            from: self.me,
                            msgid,
                            data,
                        },
                    ),
                )),
                None => {
                    self.pending_sends.remove(&msgid);
                    return (
                        msgid,
                        vec![Action::CompleteSend(msgid, Err(GroupError::NoSequencer))],
                    );
                }
            }
        }
        actions.extend(self.flush_pending_batch());
        (msgid, actions)
    }

    /// `LeaveGroup`.
    pub fn app_leave(&mut self, now: SimTime) -> Vec<Action> {
        if self.dissolved {
            return vec![Action::CompleteLeave, Action::Dissolve];
        }
        if self.failed || self.view.len() == 1 {
            // Alone or broken: dissolve unilaterally.
            self.dissolved = true;
            return vec![Action::CompleteLeave, Action::Dissolve];
        }
        if self.is_sequencer() {
            self.leaving = true;
            self.leave_once_held(now)
        } else {
            match self.sequencer_host() {
                Some(h) => vec![Action::Unicast(
                    h,
                    GroupMsg::LeaveRequest {
                        instance: self.id,
                        incarnation: self.incarnation,
                        member: self.me,
                    },
                )],
                None => {
                    self.dissolved = true;
                    vec![Action::CompleteLeave, Action::Dissolve]
                }
            }
        }
    }

    /// `ResetGroup`: become a reset coordinator.
    pub fn app_reset(&mut self, now: SimTime, min_size: usize) -> Vec<Action> {
        if self.dissolved {
            return vec![Action::CompleteReset(Err(GroupError::Dead))];
        }
        let round = self.next_reset_round;
        self.next_reset_round += 1;
        let mut votes = IdMap::default();
        votes.insert(
            self.me,
            (
                MemberInfo {
                    id: self.me,
                    host: self.my_host,
                    tag: self.my_tag,
                },
                self.highest_contiguous,
            ),
        );
        self.reset_coord = Some(ResetCoord {
            round,
            min_size,
            votes,
            deadline: now + self.cfg.reset_vote_window,
            announced: false,
        });
        // Latch our own vote so lower-priority coordinators are ignored.
        self.voted = Some((self.me, round, now));
        vec![Action::Multicast(GroupMsg::ResetInvite {
            instance: self.id,
            old_incarnation: self.incarnation,
            coord: self.me,
            coord_host: self.my_host,
            round,
        })]
    }

    // ==================================================================
    // Sequencer-side helpers.
    // ==================================================================

    /// Sequencer, leaving: sequences its own Leave once every member
    /// holds every slot assigned here, and until then asks those that
    /// lack one for their ack.
    fn leave_once_held(&mut self, now: SimTime) -> Vec<Action> {
        let hc = self.highest_contiguous;
        if self.lacking(hc).next().is_some() {
            return self.ask_for_acks(hc);
        }
        self.leaving = false;
        let mut actions = self.sequence_message(
            now,
            self.me,
            self.my_tag,
            0,
            AcceptBody::Leave(self.me),
            TraceCtx::NONE,
        );
        actions.extend(self.flush_pending_batch());
        actions
    }

    /// Assigns the next slot to a message and queues its accept for the
    /// next multicast flush. Consecutive sequencing calls within one
    /// network round coalesce into a single [`GroupMsg::AcceptBatch`]
    /// packet; the flush happens at the end of every protocol entry
    /// point, or immediately once `MAX_BATCH` slots are pending.
    fn sequence_message(
        &mut self,
        now: SimTime,
        from: MemberId,
        from_tag: u64,
        msgid: u64,
        body: AcceptBody,
        trace: TraceCtx,
    ) -> Vec<Action> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if trace.is_some() {
            // The ordering span: opened when the slot is assigned, closed
            // when the message reaches its resilience degree (see
            // `settle`). Every member's delivery parents to it.
            let order = self
                .tele
                .begin_child("grp.order", u64::from(self.my_host.0), trace);
            if order.is_some() {
                self.trace_by_seq.insert(seq, order);
            }
        }
        let rec = AcceptRec {
            incarnation: self.incarnation,
            from,
            from_tag,
            msgid,
            body,
        };
        self.pending_batch.push((seq, rec.clone()));
        let mut actions = Vec::new();
        if self.pending_batch.len() >= MAX_BATCH {
            actions.extend(self.flush_pending_batch());
        }
        // Track the slot before applying: apply may complete r=0 sends.
        self.pending_acks.insert(seq, (from, msgid));
        self.insert_accept(seq, rec);
        let mut more = self.advance(now);
        actions.append(&mut more);
        let mut done = self.settle();
        actions.append(&mut done);
        actions
    }

    /// Multicasts everything queued by [`sequence_message`] as one
    /// packet: a plain `Accept` for a single slot, an `AcceptBatch` for
    /// several consecutive slots (or for one slot with pending done
    /// notifications riding along). Dones with no accept to ride on
    /// coalesce per sender into `DoneBatch` packets.
    fn flush_pending_batch(&mut self) -> Vec<Action> {
        let mut dones = std::mem::take(&mut self.pending_dones);
        if self.pending_batch.is_empty() {
            return self.flush_dones_alone(dones);
        }
        // The wire format caps a dones vector at MAX_ACCEPT_BATCH_ITEMS;
        // an oversized one would be undecodable and drop the whole
        // packet (accepts included). Overflow goes out as separate
        // DoneBatch packets below.
        let overflow = if dones.len() > MAX_ACCEPT_BATCH_ITEMS {
            dones.split_off(MAX_ACCEPT_BATCH_ITEMS)
        } else {
            Vec::new()
        };
        let batch = std::mem::take(&mut self.pending_batch);
        debug_assert!(
            batch.windows(2).all(|w| w[1].0 == w[0].0 + 1),
            "batched accepts must hold consecutive slots"
        );
        // Outgoing accepts carry each traced slot's ordering context,
        // keyed by seqno, so receivers can parent their deliveries.
        let tags: Vec<(u64, TraceCtx)> = batch
            .iter()
            .filter_map(|&(seq, _)| self.trace_by_seq.get(&seq).map(|&c| (seq, c)))
            .collect();
        if batch.len() == 1 && dones.is_empty() {
            let (seq, rec) = batch.into_iter().next().expect("len checked");
            return vec![Self::traced(
                tags,
                Action::Multicast(GroupMsg::Accept {
                    instance: self.id,
                    incarnation: rec.incarnation,
                    seq,
                    from: rec.from,
                    from_tag: rec.from_tag,
                    msgid: rec.msgid,
                    body: rec.body,
                }),
            )];
        }
        let first_seq = batch[0].0;
        let incarnation = batch[0].1.incarnation;
        let items = batch
            .into_iter()
            .map(|(_, rec)| AcceptItem {
                from: rec.from,
                from_tag: rec.from_tag,
                msgid: rec.msgid,
                body: rec.body,
            })
            .collect();
        let mut actions = vec![Self::traced(
            tags,
            Action::Multicast(GroupMsg::AcceptBatch {
                instance: self.id,
                incarnation,
                first_seq,
                items,
                dones,
            }),
        )];
        actions.extend(self.flush_dones_alone(overflow));
        actions
    }

    /// Sends queued done notifications when no accept multicast is
    /// pending to carry them: one `DoneBatch` unicast per sender when
    /// a single sender is owed, one multicast when one packet can
    /// serve several senders. Chunked at the wire format's
    /// MAX_ACCEPT_BATCH_ITEMS cap so every packet stays decodable.
    fn flush_dones_alone(&mut self, dones: Vec<DoneItem>) -> Vec<Action> {
        if dones.is_empty() {
            return Vec::new();
        }
        let mut senders: Vec<MemberId> = dones.iter().map(|d| d.from).collect();
        senders.sort_unstable();
        senders.dedup();
        let single_host = if senders.len() == 1 {
            match self.view.member(senders[0]) {
                Some(m) => Some(m.host),
                None => return Vec::new(),
            }
        } else {
            None
        };
        dones
            .chunks(MAX_ACCEPT_BATCH_ITEMS)
            .map(|chunk| {
                let msg = GroupMsg::DoneBatch {
                    instance: self.id,
                    items: chunk.to_vec(),
                };
                match single_host {
                    Some(h) => Action::Unicast(h, msg),
                    None => Action::Multicast(msg),
                }
            })
            .collect()
    }

    /// Sequencer: notifies the sender of every slot that has now reached
    /// r+1 holders, and forgets the slot.
    fn settle(&mut self) -> Vec<Action> {
        let to = self.resilient_to();
        let mut actions = Vec::new();
        while let Some(entry) = self.pending_acks.first_entry() {
            if *entry.key() > to {
                break;
            }
            let (seq, (from, msgid)) = entry.remove_entry();
            // The ordering span ends here: the message has reached its
            // resilience degree and the protocol's obligation is met.
            if let Some(&ctx) = self.trace_by_seq.get(&seq) {
                self.tele.end(ctx);
            }
            if msgid == 0 {
                continue; // view changes have no sender to notify
            }
            if from == self.me {
                if self.pending_sends.remove(&msgid).is_some() {
                    actions.push(Action::CompleteSend(msgid, Ok(seq)));
                }
            } else if self.view.contains(from) {
                // Batch the reply direction: queue the notification for
                // the next flush instead of one unicast per message.
                self.pending_dones.push(DoneItem { from, msgid, seq });
            }
        }
        actions
    }

    // ==================================================================
    // Receive path.
    // ==================================================================

    fn insert_accept(&mut self, seq: SeqNo, rec: AcceptRec) {
        self.highest_seen = self.highest_seen.max(seq);
        if seq > self.highest_contiguous {
            match self.buffer.entry(seq) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(rec);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    // A retransmission may resolve a buffered `BbRef` into
                    // inline data (the server substitutes the bulk bytes,
                    // see `on_retrans`); the upgrade must win or a member
                    // whose BbData was lost would stall on the stale
                    // reference forever. Same slot, same message —
                    // everything else about the record is identical.
                    let existing = e.get();
                    if matches!(existing.body, AcceptBody::BbRef)
                        && matches!(rec.body, AcceptBody::Data(_))
                        && existing.from == rec.from
                        && existing.msgid == rec.msgid
                    {
                        e.insert(rec);
                    }
                }
            }
        }
    }

    /// Applies buffered accepts in order; returns deliveries plus, when
    /// r > 0, one **cumulative** ack for the highest slot applied (one
    /// ack per batch of progress, not one per accept).
    fn advance(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        let start_contiguous = self.highest_contiguous;
        let mut handover = false;
        loop {
            let next = self.highest_contiguous + 1;
            let rec = match self.buffer.get(&next) {
                Some(r) => r.clone(),
                None => break,
            };
            // BB messages can only be applied once their data is here.
            if matches!(rec.body, AcceptBody::BbRef)
                && !self.bb_store.contains_key(&(rec.from, rec.msgid))
            {
                if self.gap_since.is_none() {
                    self.gap_since = Some(now);
                }
                break;
            }
            self.highest_contiguous = next;
            self.gap_since = None;
            self.stats.applied += 1;
            if rec.msgid != 0 {
                self.seen_msgids
                    .entry(rec.from)
                    .or_default()
                    .insert(rec.msgid);
            }
            let trace = self
                .trace_by_seq
                .get(&next)
                .copied()
                .unwrap_or(TraceCtx::NONE);
            match rec.body.clone() {
                AcceptBody::Data(data) => {
                    actions.push(Action::Deliver(GroupEvent::Message {
                        seq: next,
                        from: rec.from,
                        from_tag: rec.from_tag,
                        data,
                        trace,
                    }));
                    self.delivered = next;
                }
                AcceptBody::BbRef => {
                    let data = self
                        .bb_store
                        .get(&(rec.from, rec.msgid))
                        .cloned()
                        .unwrap_or_default();
                    actions.push(Action::Deliver(GroupEvent::Message {
                        seq: next,
                        from: rec.from,
                        from_tag: rec.from_tag,
                        data,
                        trace,
                    }));
                    self.delivered = next;
                }
                AcceptBody::Join(m) => {
                    self.view.insert(m);
                    self.holds.insert(m.id, next);
                    self.next_member_id = self.next_member_id.max(m.id.0 + 1);
                    self.last_heard.insert(m.id, now);
                    if m.id != self.me {
                        actions.push(Action::Deliver(GroupEvent::Joined {
                            seq: next,
                            member: m,
                        }));
                        self.delivered = next;
                    } else {
                        self.delivered = next;
                    }
                }
                AcceptBody::Leave(id) => {
                    let info = self.view.member(id);
                    handover |= self.view.sequencer().map(|m| m.id) == Some(id);
                    self.view.remove(id);
                    self.last_heard.remove(&id);
                    self.holds.remove(&id);
                    self.seen_msgids.remove(&id);
                    if id == self.me {
                        self.dissolved = true;
                        actions.push(Action::CompleteLeave);
                        actions.push(Action::Dissolve);
                        return actions;
                    }
                    if let Some(m) = info {
                        actions.push(Action::Deliver(GroupEvent::Left {
                            seq: next,
                            member: m,
                        }));
                    }
                    self.delivered = next;
                    // If the sequencer left, the new lowest id takes over.
                    if self.is_sequencer() {
                        self.next_seq = self.highest_contiguous + 1;
                    }
                    // Liveness under a new sequencer starts now: nobody
                    // has had a heartbeat from it, nor it an answer.
                    if handover {
                        for m in &self.view.members {
                            self.last_heard.insert(m.id, now);
                        }
                    }
                }
            }
            // r == 0 senders complete on observing their own accept;
            // others record its slot.
            if rec.from == self.me && rec.msgid != 0 {
                if self.effective_r() == 0 {
                    if self.pending_sends.remove(&rec.msgid).is_some() {
                        actions.push(Action::CompleteSend(rec.msgid, Ok(next)));
                    }
                } else if let Some(p) = self.pending_sends.get_mut(&rec.msgid) {
                    p.applied_at = Some(next);
                }
            }
            // Prune old history, and the BB data of what leaves it.
            let keep_from = self.highest_contiguous.saturating_sub(self.cfg.history);
            while let Some(first) = self.buffer.first_entry() {
                if *first.key() >= keep_from {
                    break;
                }
                let rec = first.remove();
                if rec.msgid != 0 {
                    self.bb_store.remove(&(rec.from, rec.msgid));
                }
            }
            if !self.trace_by_seq.is_empty() {
                self.trace_by_seq = self.trace_by_seq.split_off(&keep_from);
            }
        }
        // r > 0: acknowledge all progress to the sequencer with a single
        // cumulative ack (it counts holders per slot up to this seqno).
        // r = 0 needs no ack for completion, but the window does: ack at
        // least every quarter window, and at once to a new sequencer.
        if !self.is_sequencer() {
            let due = if self.effective_r() > 0 {
                self.highest_contiguous > start_contiguous
            } else {
                handover
                    || self.highest_contiguous.saturating_sub(self.acked_to)
                        >= (self.cfg.history / 4).max(1)
            };
            if due {
                actions.extend(self.ack());
            }
        }
        // Check whether a pending reset can now be installed.
        if let Some(p) = &self.pending_install {
            if self.highest_contiguous >= p.cutoff {
                let mut more = self.install_reset(now);
                actions.append(&mut more);
            }
        }
        actions
    }

    /// Marks the group failed and tells everyone.
    fn fail_group(&mut self, suspect: MemberId) -> Vec<Action> {
        if self.failed {
            return Vec::new();
        }
        self.failed = true;
        self.stats.failures += 1;
        // Push out any accepts still waiting on a batch flush first, so
        // members hold as much of the order as possible going into reset.
        let mut actions = self.flush_pending_batch();
        actions.push(Action::Multicast(GroupMsg::FailNotice {
            instance: self.id,
            incarnation: self.incarnation,
            suspect,
        }));
        actions.append(&mut self.on_failed());
        actions
    }

    /// Local bookkeeping when the group enters the failed state.
    fn on_failed(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.failure_notified {
            self.failure_notified = true;
            actions.push(Action::NotifyFailure);
        }
        actions
    }

    // ==================================================================
    // Message handling.
    // ==================================================================

    /// [`handle_deferred`](Instance::handle_deferred) plus the flush of
    /// any accepts the message caused to be sequenced.
    #[cfg(test)]
    pub fn handle(&mut self, now: SimTime, src: HostAddr, msg: GroupMsg) -> Vec<Action> {
        let mut actions = self.handle_deferred(now, src, msg);
        actions.extend(self.flush_pending_batch());
        actions
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
            GroupMsg::BbData {
                incarnation,
                from,
                msgid,
                data,
                ..
            } => self.on_bb_data(now, incarnation, from, msgid, data),
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
            } => {
                if incarnation == self.incarnation && self.is_sequencer() && !self.failed {
                    if let Some(m) = self.view.member(member) {
                        return self.sequence_message(
                            now,
                            m.id,
                            m.tag,
                            0,
                            AcceptBody::Leave(member),
                            TraceCtx::NONE,
                        );
                    }
                }
                Vec::new()
            }
            GroupMsg::FailNotice { incarnation, .. } => {
                if incarnation == self.incarnation && !self.failed {
                    self.failed = true;
                    self.stats.failures += 1;
                    return self.on_failed();
                }
                Vec::new()
            }
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
                round,
                coord,
                new_incarnation,
                view,
                cutoff,
                source,
                ..
            } => self.on_reset_result(
                now,
                old_incarnation,
                round,
                coord,
                new_incarnation,
                view,
                cutoff,
                source,
            ),
            GroupMsg::ExpelNotice {
                current_incarnation,
                ..
            } => {
                if current_incarnation > self.incarnation {
                    self.dissolved = true;
                    let mut actions = self.on_failed();
                    actions.push(Action::Dissolve);
                    return actions;
                }
                Vec::new()
            }
            // Handled at the peer layer.
            GroupMsg::JoinLocate { .. } | GroupMsg::JoinReply { .. } | GroupMsg::JoinAck { .. } => {
                Vec::new()
            }
        }
    }

    fn on_join_request(
        &mut self,
        now: SimTime,
        joiner: HostAddr,
        tag: u64,
        join_id: u64,
    ) -> Vec<Action> {
        if !self.is_sequencer() || self.failed {
            return Vec::new();
        }
        // Idempotence: a retried join from the same host re-uses its slot.
        if let Some(existing) = self.view.members.iter().find(|m| m.host == joiner) {
            let existing = *existing;
            return vec![Action::Unicast(
                joiner,
                GroupMsg::JoinAck {
                    instance: self.id,
                    join_id,
                    member_id: existing.id,
                    incarnation: self.incarnation,
                    view: self.view.clone(),
                    start_seq: self.highest_contiguous,
                },
            )];
        }
        let member = MemberInfo {
            id: MemberId(self.next_member_id),
            host: joiner,
            tag,
        };
        self.next_member_id += 1;
        let mut actions = self.sequence_message(
            now,
            member.id,
            tag,
            0,
            AcceptBody::Join(member),
            TraceCtx::NONE,
        );
        // View changes leave the batch immediately (joins are rare and
        // existing members must learn of the new view without delay).
        actions.extend(self.flush_pending_batch());
        // The join accept was applied locally just now, so the view already
        // contains the joiner and highest_contiguous is its start position.
        actions.push(Action::Unicast(
            joiner,
            GroupMsg::JoinAck {
                instance: self.id,
                join_id,
                member_id: member.id,
                incarnation: self.incarnation,
                view: self.view.clone(),
                start_seq: self.highest_contiguous,
            },
        ));
        actions
    }

    fn on_send_req(
        &mut self,
        now: SimTime,
        incarnation: Incarnation,
        from: MemberId,
        msgid: u64,
        data: Payload,
    ) -> Vec<Action> {
        if !self.is_sequencer() || self.failed {
            return Vec::new();
        }
        if incarnation != self.incarnation {
            if incarnation < self.incarnation && !self.view.contains(from) {
                if let Some(h) = self.host_of_unknown(from) {
                    return vec![Action::Unicast(
                        h,
                        GroupMsg::ExpelNotice {
                            instance: self.id,
                            current_incarnation: self.incarnation,
                        },
                    )];
                }
            }
            return Vec::new();
        }
        // Duplicate suppression for sender retries.
        if self.seen(from, msgid) {
            return self.answer_retry(from, msgid);
        }
        let tag = self.view.member(from).map(|m| m.tag).unwrap_or(0);
        if !self.view.contains(from) {
            return Vec::new();
        }
        if !self.window_open() {
            return self.ask_for_acks(self.window_floor());
        }
        let trace = self.rx_tag(msgid);
        self.sequence_message(now, from, tag, msgid, AcceptBody::Data(data), trace)
    }

    fn on_bb_data(
        &mut self,
        now: SimTime,
        incarnation: Incarnation,
        from: MemberId,
        msgid: u64,
        data: Payload,
    ) -> Vec<Action> {
        if incarnation != self.incarnation {
            return Vec::new();
        }
        if self.seen(from, msgid) {
            // A retry of a message already applied: its data is stored
            // while its slot is in the history, and needed no more after.
            if self.is_sequencer() && !self.failed {
                return self.answer_retry(from, msgid);
            }
            return Vec::new();
        }
        self.bb_store.insert((from, msgid), data);
        let mut actions = self.advance(now); // a stalled BbRef may now apply
        if !self.is_sequencer() || self.failed || self.seen(from, msgid) {
            return actions;
        }
        if let Some(m) = self.view.member(from) {
            if self.window_open() {
                let trace = self.rx_tag(msgid);
                let mut more =
                    self.sequence_message(now, from, m.tag, msgid, AcceptBody::BbRef, trace);
                actions.append(&mut more);
            } else {
                actions.extend(self.ask_for_acks(self.window_floor()));
            }
        }
        actions
    }

    /// Whether this member has applied `from`'s message `msgid`.
    fn seen(&self, from: MemberId, msgid: u64) -> bool {
        self.seen_msgids
            .get(&from)
            .is_some_and(|runs| runs.contains(msgid))
    }

    /// Sequencer: the answer to a retry of a message that `from` sent and
    /// that is applied here. It completes the send only once the message's
    /// slot has reached the resilience degree; until then `settle` owes the
    /// answer, and the members that lack the slot are asked for the ack
    /// that may have been lost.
    ///
    /// The slot is the sender's own record for the sequencer's own
    /// message, and is read from the history for another's. A slot that
    /// has left the history lies below the window floor of every later
    /// assignment, so every member, the sender included, holds it: the
    /// `Done` then carries slot 0 and the sender completes from its own
    /// record. The check against the history's first slot keeps even that
    /// answer from running ahead of resilience.
    fn answer_retry(&mut self, from: MemberId, msgid: u64) -> Vec<Action> {
        let seq = if from == self.me {
            match self.pending_sends.get(&msgid).and_then(|p| p.applied_at) {
                Some(seq) => Some(seq),
                None => return Vec::new(),
            }
        } else {
            self.buffer
                .range(..=self.highest_contiguous)
                .rev()
                .find(|(_, rec)| rec.from == from && rec.msgid == msgid)
                .map(|(&seq, _)| seq)
        };
        let at_most = seq.unwrap_or_else(|| {
            let hc = self.highest_contiguous;
            self.buffer
                .keys()
                .next()
                .map_or(hc, |&first| first - 1)
                .min(hc)
        });
        if at_most > self.resilient_to() {
            return self.ask_for_acks(at_most);
        }
        if from == self.me {
            self.pending_sends.remove(&msgid);
            return vec![Action::CompleteSend(msgid, Ok(at_most))];
        }
        match self.view.member(from) {
            Some(m) => vec![Action::Unicast(
                m.host,
                GroupMsg::Done {
                    instance: self.id,
                    msgid,
                    seq: seq.unwrap_or(0),
                },
            )],
            None => Vec::new(),
        }
    }

    /// Whether an incoming accept for `seq` may enter the buffer.
    /// Accepts from an older incarnation are only acceptable while we
    /// are catching up to a reset cutoff, and only from our view/source.
    fn accept_admissible(&self, incarnation: Incarnation, seq: SeqNo, src: HostAddr) -> bool {
        if incarnation == self.incarnation {
            true
        } else if let Some(p) = &self.pending_install {
            incarnation < p.new_incarnation && seq <= p.cutoff && src == p.source
        } else {
            false
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_accept(
        &mut self,
        now: SimTime,
        src: HostAddr,
        incarnation: Incarnation,
        seq: SeqNo,
        from: MemberId,
        from_tag: u64,
        msgid: u64,
        body: AcceptBody,
    ) -> Vec<Action> {
        if !self.accept_admissible(incarnation, seq, src) {
            return Vec::new();
        }
        if seq <= self.highest_contiguous {
            return Vec::new(); // duplicate
        }
        let rx = self.rx_tag(seq);
        if rx.is_some() {
            self.trace_by_seq.insert(seq, rx);
        }
        self.insert_accept(
            seq,
            AcceptRec {
                incarnation,
                from,
                from_tag,
                msgid,
                body,
            },
        );
        if seq > self.highest_contiguous + 1 && self.gap_since.is_none() {
            self.gap_since = Some(now);
        }
        self.advance(now)
    }

    /// Handles a coalesced batch of consecutive accepts: buffer every
    /// admissible slot, then apply once — producing one cumulative ack
    /// for the whole batch instead of one per slot. Piggybacked done
    /// notifications addressed to us complete their sends first.
    fn on_accept_batch(
        &mut self,
        now: SimTime,
        src: HostAddr,
        incarnation: Incarnation,
        first_seq: SeqNo,
        items: Vec<AcceptItem>,
        dones: Vec<DoneItem>,
    ) -> Vec<Action> {
        if items.is_empty() && dones.is_empty() {
            // The sequencer asks for our ack (`ask_for_acks`).
            if incarnation == self.incarnation
                && !self.is_sequencer()
                && Some(src) == self.sequencer_host()
            {
                return self.ack().into_iter().collect();
            }
            return Vec::new();
        }
        let mut done_actions = self.on_done_batch(dones);
        let mut any = false;
        for (i, item) in items.into_iter().enumerate() {
            let seq = first_seq + i as SeqNo;
            if !self.accept_admissible(incarnation, seq, src) {
                continue;
            }
            if seq <= self.highest_contiguous {
                continue; // duplicate
            }
            let rx = self.rx_tag(seq);
            if rx.is_some() {
                self.trace_by_seq.insert(seq, rx);
            }
            self.insert_accept(
                seq,
                AcceptRec {
                    incarnation,
                    from: item.from,
                    from_tag: item.from_tag,
                    msgid: item.msgid,
                    body: item.body,
                },
            );
            any = true;
        }
        if !any {
            return done_actions;
        }
        if first_seq > self.highest_contiguous + 1 && self.gap_since.is_none() {
            self.gap_since = Some(now);
        }
        let mut actions = self.advance(now);
        done_actions.append(&mut actions);
        done_actions
    }

    /// Completes every pending send a batched done notification names
    /// us for; items for other members are ignored.
    fn on_done_batch(&mut self, items: Vec<DoneItem>) -> Vec<Action> {
        let mut actions = Vec::new();
        for d in items {
            if d.from == self.me {
                actions.extend(self.on_done(d.msgid, d.seq));
            }
        }
        actions
    }

    fn on_ack(
        &mut self,
        now: SimTime,
        incarnation: Incarnation,
        seq: SeqNo,
        member: MemberId,
    ) -> Vec<Action> {
        if incarnation != self.incarnation {
            return Vec::new();
        }
        // Kept by every member: one that becomes sequencer through a Leave
        // may hear a member's ack just before it applies the Leave.
        if self.view.contains(member) {
            let held = self.holds.entry(member).or_insert(seq);
            *held = (*held).max(seq);
        }
        if !self.is_sequencer() {
            return Vec::new();
        }
        let mut actions = self.settle();
        if self.leaving {
            actions.extend(self.leave_once_held(now));
        }
        actions
    }

    /// A `Done` with slot 0 names a slot that has left the sequencer's
    /// history: the send completes at the slot recorded when this member
    /// applied it, and waits for the next answer if it has not yet.
    fn on_done(&mut self, msgid: u64, seq: SeqNo) -> Vec<Action> {
        let Some(p) = self.pending_sends.get(&msgid) else {
            return Vec::new();
        };
        let seq = if seq == 0 {
            match p.applied_at {
                Some(seq) => seq,
                None => return Vec::new(),
            }
        } else {
            seq
        };
        self.pending_sends.remove(&msgid);
        vec![Action::CompleteSend(msgid, Ok(seq))]
    }

    fn on_retrans(&mut self, from_seq: SeqNo, to_seq: SeqNo, requester: HostAddr) -> Vec<Action> {
        if requester == self.my_host {
            return Vec::new();
        }
        // Only serve members of our view (keeps divergent partitioned
        // histories from leaking across a heal).
        let in_view = self.view.members.iter().any(|m| m.host == requester);
        if !in_view {
            return Vec::new();
        }
        let mut actions = Vec::new();
        // No live member lags more than the window, so a wider request is
        // not one a member of this group sends.
        if to_seq.saturating_sub(from_seq) > self.cfg.history {
            return Vec::new();
        }
        for seq in from_seq..=to_seq {
            if let Some(rec) = self.buffer.get(&seq) {
                let body = match &rec.body {
                    // Resolve BB references so the requester need not chase
                    // the bulk data separately.
                    AcceptBody::BbRef => match self.bb_store.get(&(rec.from, rec.msgid)) {
                        Some(d) => AcceptBody::Data(d.clone()),
                        None => continue,
                    },
                    other => other.clone(),
                };
                self.stats.retrans_served += 1;
                let tags = match self.trace_by_seq.get(&seq) {
                    Some(&c) => vec![(seq, c)],
                    None => Vec::new(),
                };
                actions.push(Self::traced(
                    tags,
                    Action::Unicast(
                        requester,
                        GroupMsg::Accept {
                            instance: self.id,
                            incarnation: rec.incarnation,
                            seq,
                            from: rec.from,
                            from_tag: rec.from_tag,
                            msgid: rec.msgid,
                            body,
                        },
                    ),
                ));
            }
        }
        actions
    }

    /// Sequencer: asks each member not known to hold slot `seq` for its
    /// cumulative ack, with an `AcceptBatch` that holds no slot and no
    /// done (a flush never sends one). The answer replaces an ack that was
    /// lost. A member that lacks slots recovers them as usual, by gap
    /// recovery. Sent whenever the sequencer leaves a message or a retry
    /// unanswered (the window is shut, or the slot is not resilient yet),
    /// so that the sender's next retry finds the group moved on.
    fn ask_for_acks(&self, seq: SeqNo) -> Vec<Action> {
        self.lacking(seq)
            .filter(|m| m.id != self.me)
            .map(|m| {
                Action::Unicast(
                    m.host,
                    GroupMsg::AcceptBatch {
                        instance: self.id,
                        incarnation: self.incarnation,
                        first_seq: self.highest_contiguous,
                        items: Vec::new(),
                        dones: Vec::new(),
                    },
                )
            })
            .collect()
    }

    /// This member's cumulative ack of everything it has applied, to the
    /// sequencer.
    fn ack(&mut self) -> Option<Action> {
        let to = self.sequencer_host()?;
        self.acked_to = self.highest_contiguous;
        Some(Action::Unicast(
            to,
            GroupMsg::Ack {
                instance: self.id,
                incarnation: self.incarnation,
                seq: self.highest_contiguous,
                member: self.me,
            },
        ))
    }

    fn on_heartbeat(
        &mut self,
        now: SimTime,
        src: HostAddr,
        incarnation: Incarnation,
        next_seq: SeqNo,
        sequencer: MemberId,
    ) -> Vec<Action> {
        if incarnation != self.incarnation {
            // A heartbeat from a stale incarnation means its sender was
            // expelled by a reset it did not see.
            if incarnation < self.incarnation {
                return vec![Action::Unicast(
                    src,
                    GroupMsg::ExpelNotice {
                        instance: self.id,
                        current_incarnation: self.incarnation,
                    },
                )];
            }
            return Vec::new();
        }
        self.last_heard.insert(sequencer, now);
        self.highest_seen = self.highest_seen.max(next_seq.saturating_sub(1));
        let mut actions = Vec::new();
        if !self.is_sequencer() {
            actions.push(Action::Unicast(
                src,
                GroupMsg::HeartbeatAck {
                    instance: self.id,
                    incarnation: self.incarnation,
                    member: self.me,
                },
            ));
            // Idle-period gap detection.
            if next_seq > self.highest_contiguous + 1 && self.gap_since.is_none() {
                self.gap_since = Some(now);
            }
        }
        actions
    }

    // ==================================================================
    // Reset protocol.
    // ==================================================================

    fn on_reset_invite(
        &mut self,
        now: SimTime,
        old_incarnation: Incarnation,
        coord: MemberId,
        coord_host: HostAddr,
        round: u64,
    ) -> Vec<Action> {
        if old_incarnation != self.incarnation {
            return Vec::new();
        }
        // Vote latching: prefer the lowest member id as coordinator; a
        // latched vote expires after two vote windows.
        let latch_expired = match self.voted {
            Some((_, _, at)) => now.saturating_since(at) > self.cfg.reset_vote_window * 2,
            None => true,
        };
        let better = match self.voted {
            Some((c, r, _)) => coord < c || (coord == c && round >= r),
            None => true,
        };
        if !(latch_expired || better) {
            return Vec::new();
        }
        self.voted = Some((coord, round, now));
        vec![Action::Unicast(
            coord_host,
            GroupMsg::ResetVote {
                instance: self.id,
                old_incarnation,
                round,
                coord,
                voter: MemberInfo {
                    id: self.me,
                    host: self.my_host,
                    tag: self.my_tag,
                },
                highest: self.highest_contiguous,
            },
        )]
    }

    fn on_reset_vote(
        &mut self,
        now: SimTime,
        old_incarnation: Incarnation,
        round: u64,
        coord: MemberId,
        voter: MemberInfo,
        highest: SeqNo,
    ) -> Vec<Action> {
        if old_incarnation != self.incarnation || coord != self.me {
            return Vec::new();
        }
        let rc = match &mut self.reset_coord {
            Some(rc) if rc.round == round && !rc.announced => rc,
            _ => return Vec::new(),
        };
        rc.votes.insert(voter.id, (voter, highest));
        // Announce as soon as every current-view member voted; otherwise
        // the tick announces at the deadline if min_size is met.
        if rc.votes.len() >= self.view.len() {
            self.announce_reset(now)
        } else {
            Vec::new()
        }
    }

    /// Coordinator: finalize the reset with the votes collected so far.
    fn announce_reset(&mut self, now: SimTime) -> Vec<Action> {
        let rc = match &mut self.reset_coord {
            Some(rc) if !rc.announced => rc,
            _ => return Vec::new(),
        };
        if rc.votes.len() < rc.min_size {
            return Vec::new();
        }
        rc.announced = true;
        let round = rc.round;
        let mut view = View::default();
        let mut cutoff = 0;
        let mut source = self.my_host;
        let mut best = (0u64, u32::MAX); // (highest, member id) — prefer highest, tie lowest id
        for (info, highest) in rc.votes.values() {
            view.insert(*info);
            if *highest > cutoff {
                cutoff = *highest;
            }
            if *highest > best.0 || (*highest == best.0 && info.id.0 < best.1) {
                best = (*highest, info.id.0);
                source = info.host;
            }
        }
        let new_incarnation = self.incarnation + 1;
        let result = GroupMsg::ResetResult {
            instance: self.id,
            old_incarnation: self.incarnation,
            round,
            coord: self.me,
            new_incarnation,
            view: view.clone(),
            cutoff,
            source,
        };
        let mut actions = vec![Action::Multicast(result)];
        // Apply locally as well (multicast loopback also arrives, but be
        // robust to its loss).
        let mut more = self.on_reset_result(
            now,
            self.incarnation,
            round,
            self.me,
            new_incarnation,
            view,
            cutoff,
            source,
        );
        actions.append(&mut more);
        actions
    }

    #[allow(clippy::too_many_arguments)]
    fn on_reset_result(
        &mut self,
        now: SimTime,
        old_incarnation: Incarnation,
        _round: u64,
        _coord: MemberId,
        new_incarnation: Incarnation,
        view: View,
        cutoff: SeqNo,
        source: HostAddr,
    ) -> Vec<Action> {
        if old_incarnation != self.incarnation || new_incarnation <= self.incarnation {
            return Vec::new();
        }
        if !view.contains(self.me) {
            // Expelled: dissolve.
            self.dissolved = true;
            let mut actions = self.on_failed();
            actions.push(Action::CompleteReset(Err(GroupError::Dead)));
            actions.push(Action::Dissolve);
            return actions;
        }
        self.pending_install = Some(PendingInstall {
            new_incarnation,
            view,
            cutoff,
            source,
        });
        if self.highest_contiguous >= cutoff {
            self.install_reset(now)
        } else {
            // Catch up from the source first.
            self.stats.retrans_requests += 1;
            vec![Action::Unicast(
                source,
                GroupMsg::Retrans {
                    instance: self.id,
                    from_seq: self.highest_contiguous + 1,
                    to_seq: cutoff,
                    requester: self.my_host,
                },
            )]
        }
    }

    /// Installs a pending reset once caught up to the cutoff.
    fn install_reset(&mut self, now: SimTime) -> Vec<Action> {
        let p = match self.pending_install.take() {
            Some(p) => p,
            None => return Vec::new(),
        };
        debug_assert!(self.highest_contiguous >= p.cutoff);
        // Any accepts still queued under the old incarnation are covered
        // by our own history buffer (we applied them locally); drop the
        // stale multicast rather than leak the old incarnation.
        self.pending_batch.clear();
        // Out-of-order buffer entries beyond what the reset agreed on are
        // abandoned old-incarnation slots. They must not survive: the new
        // sequencer will reassign those sequence numbers, and a stale
        // record would shadow the new accept via `insert_accept`'s
        // or_insert and break total order. `highest_seen` likewise resets
        // to the agreed prefix.
        let hc = self.highest_contiguous;
        self.buffer.retain(|seq, _| *seq <= hc);
        self.highest_seen = hc;
        self.incarnation = p.new_incarnation;
        self.view = p.view;
        let view = &self.view;
        self.seen_msgids.retain(|id, _| view.contains(*id));
        self.next_member_id = self
            .view
            .members
            .iter()
            .map(|m| m.id.0 + 1)
            .max()
            .unwrap_or(self.next_member_id);
        self.next_seq = self.highest_contiguous + 1;
        self.pending_acks.clear();
        // Every member of the new view holds the cutoff.
        self.holds.clear();
        for m in &self.view.members {
            if m.id != self.me {
                self.holds.insert(m.id, p.cutoff);
            }
        }
        self.acked_to = self.highest_contiguous;
        self.failed = false;
        self.failure_notified = false;
        self.reset_coord = None;
        self.voted = None;
        self.stats.resets += 1;
        self.last_heard.clear();
        for m in &self.view.members {
            self.last_heard.insert(m.id, now);
        }
        let mut actions = vec![
            Action::Deliver(GroupEvent::ResetDone {
                view: self.view.clone(),
                incarnation: self.incarnation,
            }),
            Action::CompleteReset(Ok(())),
        ];
        // Re-drive unfinished sends through the new sequencer (duplicate
        // suppression via seen_msgids keeps this exactly-once); one this
        // member has applied is in the agreed prefix and completes. Sorted
        // by msgid: hash-map iteration order is no contract, and the
        // re-drive order decides seqno assignment.
        let mut pending: Vec<(u64, Payload, bool, Option<SeqNo>)> = self
            .pending_sends
            .iter()
            .map(|(id, p)| (*id, p.data.clone(), p.bb, p.applied_at))
            .collect();
        pending.sort_unstable_by_key(|(id, ..)| *id);
        for (msgid, data, bb, applied_at) in pending {
            if let Some(seq) = applied_at {
                self.pending_sends.remove(&msgid);
                actions.push(Action::CompleteSend(msgid, Ok(seq)));
                continue;
            }
            let mut resend = self.resend_pending(now, msgid, data, bb);
            actions.append(&mut resend);
        }
        actions
    }

    fn resend_pending(&mut self, now: SimTime, msgid: u64, data: Payload, bb: bool) -> Vec<Action> {
        self.stats.send_retries += 1;
        let mut trace = TraceCtx::NONE;
        let mut applied = false;
        if let Some(p) = self.pending_sends.get_mut(&msgid) {
            p.sent_at = now;
            trace = p.trace;
            applied = p.applied_at.is_some();
        }
        let tags = if trace.is_some() {
            vec![(msgid, trace)]
        } else {
            Vec::new()
        };
        if bb {
            vec![Self::traced(
                tags,
                Action::Multicast(GroupMsg::BbData {
                    instance: self.id,
                    incarnation: self.incarnation,
                    from: self.me,
                    msgid,
                    data,
                }),
            )]
        } else if self.is_sequencer() {
            if applied {
                // Sequenced, here or by a sequencer that has since left.
                return self.answer_retry(self.me, msgid);
            }
            if !self.window_open() {
                return self.ask_for_acks(self.window_floor());
            }
            self.sequence_message(
                now,
                self.me,
                self.my_tag,
                msgid,
                AcceptBody::Data(data),
                trace,
            )
        } else {
            match self.sequencer_host() {
                Some(h) => vec![Action::Unicast(
                    h,
                    GroupMsg::SendReq {
                        instance: self.id,
                        incarnation: self.incarnation,
                        from: self.me,
                        msgid,
                        data,
                    },
                )],
                None => Vec::new(),
            }
        }
    }

    // ==================================================================
    // Periodic work.
    // ==================================================================

    /// Clock tick: heartbeats, liveness checks, retransmissions, reset
    /// deadlines.
    pub fn tick(&mut self, now: SimTime) -> Vec<Action> {
        if self.dissolved {
            return Vec::new();
        }
        let mut actions = Vec::new();
        // Reset coordinator deadline.
        let announce = match &self.reset_coord {
            Some(rc) if !rc.announced && now >= rc.deadline => {
                if rc.votes.len() >= rc.min_size {
                    1
                } else {
                    2
                }
            }
            _ => 0,
        };
        if announce == 1 {
            actions.append(&mut self.announce_reset(now));
        } else if announce == 2 {
            self.reset_coord = None;
            actions.push(Action::CompleteReset(Err(GroupError::ResetFailed)));
        }
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
            let dead: Vec<MemberId> = self
                .view
                .members
                .iter()
                .filter(|m| m.id != self.me)
                .filter(|m| {
                    self.last_heard
                        .get(&m.id)
                        .map(|t| now.saturating_since(*t) > self.cfg.failure_timeout)
                        .unwrap_or(false)
                })
                .map(|m| m.id)
                .collect();
            if let Some(suspect) = dead.first() {
                actions.append(&mut self.fail_group(*suspect));
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
        // Gap recovery.
        if let Some(since) = self.gap_since {
            if now.saturating_since(since) >= self.cfg.gap_timeout {
                self.gap_since = Some(now); // re-arm
                self.stats.retrans_requests += 1;
                // Ask for everything up to the highest slot we know was
                // assigned — the buffer alone understates an
                // end-of-order gap (its last key may already be applied
                // history below the gap) — clamped to the window, which is
                // what a server is willing to serve in one request.
                let to = if self.cfg.buggy_retrans_bound {
                    // Historical (pre-fix) bound, kept reachable for the
                    // explore harness's seeded-bug self-test: when the
                    // lost accepts are the newest ones, the buffer's last
                    // key sits at (or below) `highest_contiguous`, the
                    // request comes out empty and the gap never closes.
                    self.buffer
                        .keys()
                        .next_back()
                        .copied()
                        .unwrap_or(self.highest_contiguous)
                } else {
                    self.highest_seen
                        .min(self.highest_contiguous + self.cfg.history)
                        .max(self.highest_contiguous + 1)
                };
                actions.push(Action::Multicast(GroupMsg::Retrans {
                    instance: self.id,
                    from_seq: self.highest_contiguous + 1,
                    to_seq: to,
                    requester: self.my_host,
                }));
            }
        }
        // Sender retransmission. Sorted by msgid so the resend (and thus
        // message) order does not depend on hash-map iteration order.
        let mut stale: Vec<(u64, Payload, bool)> = self
            .pending_sends
            .iter()
            .filter(|(_, p)| now.saturating_since(p.sent_at) >= self.cfg.ack_timeout)
            .map(|(id, p)| (*id, p.data.clone(), p.bb))
            .collect();
        stale.sort_unstable_by_key(|(id, _, _)| *id);
        for (msgid, data, bb) in stale {
            let mut resend = self.resend_pending(now, msgid, data, bb);
            actions.append(&mut resend);
        }
        actions.extend(self.flush_pending_batch());
        actions
    }

    /// Multicasts any accepts still queued for batching; the peer layer
    /// calls this at the end of a packet burst or coalescing window.
    pub(crate) fn flush_pending(&mut self) -> Vec<Action> {
        self.flush_pending_batch()
    }

    /// Whether accepts or done notifications are queued awaiting a
    /// batch flush.
    pub(crate) fn has_pending_batch(&self) -> bool {
        !self.pending_batch.is_empty() || !self.pending_dones.is_empty()
    }

    /// Answers a join locate (peer layer decides whether to call this).
    pub fn join_reply(&self, joiner: HostAddr, join_id: u64) -> Option<Action> {
        if self.failed || self.dissolved {
            return None;
        }
        let seq = self.view.sequencer()?;
        Some(Action::Unicast(
            joiner,
            GroupMsg::JoinReply {
                port: self.port,
                instance: self.id,
                members: self.view.len() as u32,
                sequencer: seq.host,
                incarnation: self.incarnation,
                join_id,
            },
        ))
    }

    /// Fail all pending operations because the instance is being dropped.
    pub fn fail_pending(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        for msgid in self.pending_sends.keys().copied().collect::<Vec<_>>() {
            actions.push(Action::CompleteSend(msgid, Err(GroupError::Dead)));
        }
        self.pending_sends.clear();
        actions
    }

    /// We have no idea which host an unknown member lives on.
    fn host_of_unknown(&self, _m: MemberId) -> Option<HostAddr> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const H0: HostAddr = HostAddr(0);
    const H1: HostAddr = HostAddr(1);
    const H2: HostAddr = HostAddr(2);
    const T0: SimTime = SimTime::ZERO;

    fn cfg(r: u32) -> GroupConfig {
        GroupConfig::with_resilience(r)
    }

    /// Builds a 3-member instance as seen by the sequencer (member 0).
    fn seq_with_three(r: u32) -> Instance {
        let mut inst = Instance::create(1, Port::from_name("g"), cfg(r), H0, 100, T0);
        for (host, tag, jid) in [(H1, 101, 1u64), (H2, 102, 2u64)] {
            let _ = inst.on_join_request(T0, host, tag, jid);
        }
        assert_eq!(inst.view.len(), 3);
        inst
    }

    fn deliver_count(actions: &[Action]) -> usize {
        actions
            .iter()
            .filter(|a| matches!(a, Action::Deliver(GroupEvent::Message { .. })))
            .count()
    }

    #[test]
    fn create_makes_single_member_sequencer() {
        let inst = Instance::create(1, Port::from_name("g"), cfg(0), H0, 7, T0);
        assert!(inst.is_sequencer());
        assert_eq!(inst.view.len(), 1);
        assert_eq!(inst.effective_r(), 0);
    }

    #[test]
    fn join_assigns_incrementing_ids_and_sequences_view_changes() {
        let inst = seq_with_three(2);
        let ids: Vec<u32> = inst.view.members.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Two join accepts were applied: seqnos 1 and 2.
        assert_eq!(inst.highest_contiguous, 2);
    }

    #[test]
    fn rejoin_same_host_reuses_member_id() {
        let mut inst = seq_with_three(2);
        let before = inst.view.len();
        let actions = inst.on_join_request(T0, H1, 101, 9);
        assert_eq!(inst.view.len(), before);
        assert!(matches!(
            actions.as_slice(),
            [Action::Unicast(h, GroupMsg::JoinAck { member_id, .. })]
                if *h == H1 && *member_id == MemberId(1)
        ));
    }

    #[test]
    fn sequencer_send_with_r0_completes_immediately() {
        let mut inst = Instance::create(1, Port::from_name("g"), cfg(0), H0, 7, T0);
        let (msgid, actions) = inst.app_send(T0, vec![1, 2].into());
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::CompleteSend(m, Ok(seq)) if *m == msgid && *seq == 1)));
        assert_eq!(deliver_count(&actions), 1);
    }

    #[test]
    fn r2_send_completes_only_after_both_acks() {
        let mut inst = seq_with_three(2);
        let (msgid, actions) = inst.app_send(T0, vec![9].into());
        // Not complete yet: only the sequencer holds it.
        assert!(!actions
            .iter()
            .any(|a| matches!(a, Action::CompleteSend(..))));
        let a1 = inst.on_ack(T0, 0, 3, MemberId(1));
        assert!(!a1.iter().any(|a| matches!(a, Action::CompleteSend(..))));
        let a2 = inst.on_ack(T0, 0, 3, MemberId(2));
        assert!(a2
            .iter()
            .any(|a| matches!(a, Action::CompleteSend(m, Ok(3)) if *m == msgid)));
    }

    #[test]
    fn remote_send_req_gets_sequenced_and_done_after_acks() {
        let mut inst = seq_with_three(2);
        let actions = inst.handle(
            T0,
            H1,
            GroupMsg::SendReq {
                instance: 1,
                incarnation: 0,
                from: MemberId(1),
                msgid: 50,
                data: vec![5].into(),
            },
        );
        // Multicast accept, no done yet.
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Multicast(GroupMsg::Accept { .. }))));
        let _ = inst.on_ack(T0, 0, 3, MemberId(1));
        // The second ack makes the message r-resilient; the done is
        // queued, not unicast immediately, and the flush coalesces it
        // into one DoneBatch unicast to the single sender owed.
        let done = inst.on_ack(T0, 0, 3, MemberId(2));
        assert!(
            !done
                .iter()
                .any(|a| matches!(a, Action::Unicast(_, GroupMsg::Done { .. }))),
            "dones must batch, not unicast one-by-one"
        );
        let flushed = inst.flush_pending();
        assert!(flushed.iter().any(|a| matches!(
            a,
            Action::Unicast(h, GroupMsg::DoneBatch { items, .. })
                if *h == H1 && items.len() == 1 && items[0].msgid == 50 && items[0].seq == 3
        )));
    }

    #[test]
    fn dones_for_several_senders_coalesce_into_one_multicast() {
        let mut inst = seq_with_three(1); // r = 1: one ack suffices
        let _ = inst.handle_deferred(
            T0,
            H1,
            GroupMsg::SendReq {
                instance: 1,
                incarnation: 0,
                from: MemberId(1),
                msgid: 50,
                data: vec![5].into(),
            },
        );
        let _ = inst.handle_deferred(
            T0,
            H2,
            GroupMsg::SendReq {
                instance: 1,
                incarnation: 0,
                from: MemberId(2),
                msgid: 60,
                data: vec![6].into(),
            },
        );
        let _ = inst.flush_pending();
        // One cumulative ack from member 1 completes both slots
        // (r = 1), owing dones to two different senders.
        let _ = inst.handle_deferred(
            T0,
            H1,
            GroupMsg::Ack {
                instance: 1,
                incarnation: 0,
                seq: 4,
                member: MemberId(1),
            },
        );
        let flushed = inst.flush_pending();
        let [Action::Multicast(GroupMsg::DoneBatch { items, .. })] = flushed.as_slice() else {
            panic!("expected one multicast DoneBatch, got {flushed:?}");
        };
        let mut pairs: Vec<(u32, u64)> = items.iter().map(|d| (d.from.0, d.msgid)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 50), (2, 60)]);
    }

    #[test]
    fn oversized_done_queue_chunks_into_decodable_packets() {
        // A single cumulative ack can complete far more slots than one
        // wire packet may carry dones for; the flush must chunk at the
        // decoder's cap instead of emitting one undecodable packet.
        let mut inst = seq_with_three(1);
        let total = MAX_ACCEPT_BATCH_ITEMS + 500;
        for k in 0..total {
            inst.pending_dones.push(crate::msg::DoneItem {
                from: MemberId(1 + (k % 2) as u32),
                msgid: 1_000 + k as u64,
                seq: 10 + k as SeqNo,
            });
        }
        let actions = inst.flush_pending();
        let mut carried = 0;
        for a in &actions {
            let msg = match a {
                Action::Multicast(m) | Action::Unicast(_, m) => m,
                other => panic!("expected only packet actions, got {other:?}"),
            };
            let GroupMsg::DoneBatch { items, .. } = msg else {
                panic!("expected only DoneBatch packets, got {msg:?}");
            };
            assert!(items.len() <= MAX_ACCEPT_BATCH_ITEMS);
            // Every emitted packet must survive the wire round trip.
            assert_eq!(&GroupMsg::decode(&msg.encode()).unwrap(), msg);
            carried += items.len();
        }
        assert_eq!(carried, total, "every done must be delivered");
        assert!(actions.len() >= 2, "overflow must split packets");
    }

    #[test]
    fn dones_piggyback_on_next_accept_batch() {
        let mut inst = seq_with_three(1);
        let sr = |from: u32, msgid: u64| GroupMsg::SendReq {
            instance: 1,
            incarnation: 0,
            from: MemberId(from),
            msgid,
            data: vec![1].into(),
        };
        let _ = inst.handle_deferred(T0, H1, sr(1, 50));
        let _ = inst.flush_pending();
        // The ack (making msg 50 resilient) and two new send requests
        // arrive in one burst: the dones must ride the AcceptBatch.
        let _ = inst.handle_deferred(
            T0,
            H1,
            GroupMsg::Ack {
                instance: 1,
                incarnation: 0,
                seq: 3,
                member: MemberId(1),
            },
        );
        let _ = inst.handle_deferred(T0, H1, sr(1, 51));
        let _ = inst.handle_deferred(T0, H2, sr(2, 61));
        let flushed = inst.flush_pending();
        let [Action::Multicast(GroupMsg::AcceptBatch { items, dones, .. })] = flushed.as_slice()
        else {
            panic!("expected one AcceptBatch, got {flushed:?}");
        };
        assert_eq!(items.len(), 2);
        assert_eq!(
            dones.as_slice(),
            &[crate::msg::DoneItem {
                from: MemberId(1),
                msgid: 50,
                seq: 3
            }]
        );
        // A member receiving the batch completes its own send from the
        // piggybacked done.
        let mut m1 = member_one(1);
        let (msgid, _) = m1.app_send(T0, vec![9].into());
        assert_eq!(msgid, 1);
        let batch = GroupMsg::AcceptBatch {
            instance: 1,
            incarnation: 0,
            first_seq: 1,
            items: vec![AcceptItem {
                from: MemberId(2),
                from_tag: 102,
                msgid: 7,
                body: AcceptBody::Data(vec![2].into()),
            }],
            dones: vec![crate::msg::DoneItem {
                from: MemberId(1),
                msgid,
                seq: 9,
            }],
        };
        let actions = m1.handle(T0, H0, batch);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::CompleteSend(m, Ok(9)) if *m == msgid)));
    }

    #[test]
    fn deferred_send_reqs_coalesce_into_one_accept_batch() {
        let mut inst = seq_with_three(0);
        let sr = |from: u32, msgid: u64, byte: u8| GroupMsg::SendReq {
            instance: 1,
            incarnation: 0,
            from: MemberId(from),
            msgid,
            data: vec![byte].into(),
        };
        // A burst: two send requests handled without an intermediate
        // flush (what the peer does while more packets are queued).
        let a1 = inst.handle_deferred(T0, H1, sr(1, 50, 5));
        let a2 = inst.handle_deferred(T0, H2, sr(2, 60, 6));
        assert!(
            !a1.iter()
                .chain(a2.iter())
                .any(|a| matches!(a, Action::Multicast(_))),
            "no multicast before the flush"
        );
        let flushed = inst.flush_pending();
        let [Action::Multicast(GroupMsg::AcceptBatch {
            first_seq, items, ..
        })] = flushed.as_slice()
        else {
            panic!("expected one AcceptBatch, got {flushed:?}");
        };
        // Joins took slots 1 and 2; the burst occupies 3 and 4.
        assert_eq!(*first_seq, 3);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].msgid, 50);
        assert_eq!(items[1].msgid, 60);
        // Nothing left pending after the flush.
        assert!(inst.flush_pending().is_empty());
    }

    #[test]
    fn accept_batch_applies_in_order_with_one_cumulative_ack() {
        let mut inst = member_one(2);
        let batch = GroupMsg::AcceptBatch {
            instance: 1,
            incarnation: 0,
            first_seq: 1,
            items: (0..3)
                .map(|k| crate::msg::AcceptItem {
                    from: MemberId(0),
                    from_tag: 100,
                    msgid: 10 + k,
                    body: AcceptBody::Data(vec![k as u8].into()),
                })
                .collect(),
            dones: vec![],
        };
        let actions = feed(&mut inst, batch);
        assert_eq!(deliver_count(&actions), 3);
        assert_eq!(inst.highest_contiguous, 3);
        // Exactly one (cumulative) ack for the whole batch.
        let acks: Vec<SeqNo> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Unicast(_, GroupMsg::Ack { seq, .. }) => Some(*seq),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![3]);
    }

    #[test]
    fn retrans_resolved_data_upgrades_buffered_bbref() {
        // A member buffered the short BbRef accept but its BbData was
        // lost; the retransmission substitutes inline data for the same
        // slot — the upgrade must replace the stale reference.
        let mut inst = member_one(0);
        // Out of order so the BbRef stays buffered instead of applying.
        let bbref = GroupMsg::Accept {
            instance: 1,
            incarnation: 0,
            seq: 2,
            from: MemberId(2),
            from_tag: 102,
            msgid: 30,
            body: AcceptBody::BbRef,
        };
        let a = feed(&mut inst, bbref);
        assert_eq!(deliver_count(&a), 0);
        // Retrans-served accept for the same slot carries the data.
        let resolved = GroupMsg::Accept {
            instance: 1,
            incarnation: 0,
            seq: 2,
            from: MemberId(2),
            from_tag: 102,
            msgid: 30,
            body: AcceptBody::Data(vec![7, 7].into()),
        };
        let _ = feed(&mut inst, resolved);
        // Fill the gap; both must now deliver — seq 2 with the data.
        let actions = feed(&mut inst, accept(1, 0, 10, vec![1]));
        assert_eq!(deliver_count(&actions), 2);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Deliver(GroupEvent::Message { seq: 2, data, .. }) if data.as_slice() == [7, 7]
        )));
    }

    #[test]
    fn install_reset_purges_stale_out_of_order_buffer() {
        // m1 buffered an out-of-order accept (seq 2) that the reset then
        // abandons (cutoff 0): the stale record must not shadow the new
        // incarnation's slot 2.
        let mut inst = member_one(0);
        let _ = feed(&mut inst, accept(2, 0, 11, vec![0xEE]));
        assert_eq!(inst.highest_contiguous, 0, "gap: seq 2 only buffered");
        let _ = inst.handle(
            T0,
            H0,
            GroupMsg::ResetResult {
                instance: 1,
                old_incarnation: 0,
                round: 1,
                coord: MemberId(0),
                new_incarnation: 1,
                view: inst.view.clone(),
                cutoff: 0,
                source: H0,
            },
        );
        assert_eq!(inst.incarnation, 1);
        assert_eq!(inst.highest_seen, 0, "frontier reset to the agreed prefix");
        // The new sequencer reassigns slots 1 and 2; the fresh data must
        // win over the abandoned pre-reset record.
        let mk = |seq: SeqNo, msgid: u64, byte: u8| GroupMsg::Accept {
            instance: 1,
            incarnation: 1,
            seq,
            from: MemberId(0),
            from_tag: 100,
            msgid,
            body: AcceptBody::Data(vec![byte].into()),
        };
        let _ = feed(&mut inst, mk(1, 20, 1));
        let a2 = feed(&mut inst, mk(2, 21, 2));
        let delivered: Vec<Vec<u8>> = a2
            .iter()
            .filter_map(|a| match a {
                Action::Deliver(GroupEvent::Message { data, .. }) => Some(data.to_vec()),
                _ => None,
            })
            .collect();
        assert_eq!(
            delivered,
            vec![vec![2u8]],
            "stale record must not resurface"
        );
    }

    #[test]
    fn gap_recovery_request_is_clamped_to_serveable_span() {
        let mut inst = member_one(0);
        // A heartbeat advertises a frontier far beyond what one retrans
        // request may cover.
        let _ = feed(
            &mut inst,
            GroupMsg::Heartbeat {
                instance: 1,
                incarnation: 0,
                next_seq: 50_000,
                sequencer: MemberId(0),
            },
        );
        let later = T0 + inst.cfg.gap_timeout + Duration::from_millis(1);
        let actions = inst.tick(later);
        let req = actions
            .iter()
            .find_map(|a| match a {
                Action::Multicast(GroupMsg::Retrans {
                    from_seq, to_seq, ..
                }) => Some((*from_seq, *to_seq)),
                _ => None,
            })
            .expect("gap must trigger a retrans request");
        assert_eq!(req.0, 1);
        assert!(
            req.1 - req.0 <= inst.cfg.history,
            "request {req:?} wider than servers will serve"
        );
    }

    #[test]
    fn cumulative_ack_covers_all_outstanding_slots() {
        let mut inst = seq_with_three(2);
        // Two sends occupy slots 3 and 4.
        let (m1, _) = inst.app_send(T0, vec![1].into());
        let (m2, _) = inst.app_send(T0, vec![2].into());
        // One cumulative ack per member for slot 4 completes both.
        let a1 = inst.on_ack(T0, 0, 4, MemberId(1));
        assert!(!a1.iter().any(|a| matches!(a, Action::CompleteSend(..))));
        let a2 = inst.on_ack(T0, 0, 4, MemberId(2));
        let completed: Vec<u64> = a2
            .iter()
            .filter_map(|a| match a {
                Action::CompleteSend(id, Ok(_)) => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(completed, vec![m1, m2]);
    }

    /// The sender's retry of a sequenced message must not complete it
    /// before `r + 1` members hold it: here one member never acks.
    #[test]
    fn a_retry_gets_no_done_before_r_plus_one_members_hold_the_message() {
        let mut inst = seq_with_three(2);
        let send_req = || GroupMsg::SendReq {
            instance: 1,
            incarnation: 0,
            from: MemberId(1),
            msgid: 50,
            data: vec![5].into(),
        };
        let _ = inst.handle(T0, H1, send_req());
        let _ = inst.on_ack(T0, 0, 3, MemberId(1)); // member 2 stays silent
        let is_done = |a: &Action| {
            matches!(
                a,
                Action::Unicast(_, GroupMsg::Done { .. } | GroupMsg::DoneBatch { .. })
                    | Action::Multicast(GroupMsg::DoneBatch { .. })
            )
        };
        // The retry gets no answer; member 2 is asked for its ack.
        let retry = inst.handle(T0, H1, send_req());
        assert!(
            matches!(
                retry.as_slice(),
                [Action::Unicast(h, GroupMsg::AcceptBatch { items, dones, .. })]
                    if *h == H2 && items.is_empty() && dones.is_empty()
            ),
            "{retry:?}"
        );
        // The last ack makes the message resilient, and the done goes out.
        let _ = inst.on_ack(T0, 0, 3, MemberId(2));
        assert!(inst.flush_pending().iter().any(is_done));
        // From then on a retry is answered at once.
        assert!(inst.handle(T0, H1, send_req()).iter().any(is_done));
    }

    /// An empty `AcceptBatch` from the sequencer is its request for our
    /// cumulative ack, whatever the resilience degree.
    #[test]
    fn an_empty_accept_batch_from_the_sequencer_asks_for_an_ack() {
        for r in [0, 2] {
            let mut inst = member_one(r);
            let _ = feed(&mut inst, accept(1, 0, 10, vec![1]));
            let ask = GroupMsg::AcceptBatch {
                instance: 1,
                incarnation: 0,
                first_seq: 1,
                items: Vec::new(),
                dones: Vec::new(),
            };
            let answer = feed(&mut inst, ask.clone());
            assert!(
                matches!(
                    answer.as_slice(),
                    [Action::Unicast(h, GroupMsg::Ack { seq: 1, member: MemberId(1), .. })]
                        if *h == H0
                ),
                "r = {r}: {answer:?}"
            );
            // Only the sequencer asks.
            assert!(inst.handle(T0, H2, ask).is_empty(), "r = {r}");
        }
    }

    #[test]
    fn duplicate_send_req_is_suppressed() {
        let mut inst = seq_with_three(0);
        let _ = inst.on_send_req(T0, 0, MemberId(1), 50, vec![5].into());
        let before = inst.highest_contiguous;
        let actions = inst.on_send_req(T0, 0, MemberId(1), 50, vec![5].into());
        assert_eq!(inst.highest_contiguous, before, "must not re-sequence");
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Unicast(_, GroupMsg::Done { msgid: 50, .. }))));
    }

    /// Builds a non-sequencer member (member 1 of 3, sequencer = member 0).
    fn member_one(r: u32) -> Instance {
        let mut view = View::default();
        view.insert(MemberInfo {
            id: MemberId(0),
            host: H0,
            tag: 100,
        });
        view.insert(MemberInfo {
            id: MemberId(1),
            host: H1,
            tag: 101,
        });
        view.insert(MemberInfo {
            id: MemberId(2),
            host: H2,
            tag: 102,
        });
        Instance::from_join(
            1,
            Port::from_name("g"),
            cfg(r),
            H1,
            101,
            MemberId(1),
            0,
            view,
            0,
            T0,
        )
    }

    fn accept(seq: SeqNo, from: u32, msgid: u64, data: Vec<u8>) -> GroupMsg {
        GroupMsg::Accept {
            instance: 1,
            incarnation: 0,
            seq,
            from: MemberId(from),
            from_tag: 100 + u64::from(from),
            msgid,
            body: AcceptBody::Data(data.into()),
        }
    }

    fn feed(inst: &mut Instance, msg: GroupMsg) -> Vec<Action> {
        inst.handle(T0, H0, msg)
    }

    #[test]
    fn member_delivers_in_seq_order_despite_reordering() {
        let mut inst = member_one(0);
        let a2 = feed(&mut inst, accept(2, 0, 11, vec![2]));
        assert_eq!(deliver_count(&a2), 0, "gap: must buffer");
        let a1 = feed(&mut inst, accept(1, 0, 10, vec![1]));
        assert_eq!(deliver_count(&a1), 2, "both deliver in order");
        let seqs: Vec<SeqNo> = a1
            .iter()
            .filter_map(|a| match a {
                Action::Deliver(e) => e.seq(),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn member_acks_when_r_positive() {
        let mut inst = member_one(2);
        let actions = feed(&mut inst, accept(1, 0, 10, vec![1]));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Unicast(h, GroupMsg::Ack { seq: 1, member: MemberId(1), .. }) if *h == H0
        )));
    }

    #[test]
    fn member_ignores_duplicate_accept() {
        let mut inst = member_one(0);
        let _ = feed(&mut inst, accept(1, 0, 10, vec![1]));
        let dup = feed(&mut inst, accept(1, 0, 10, vec![1]));
        assert_eq!(deliver_count(&dup), 0);
    }

    #[test]
    fn member_ignores_wrong_incarnation_accept() {
        let mut inst = member_one(0);
        let msg = GroupMsg::Accept {
            instance: 1,
            incarnation: 5,
            seq: 1,
            from: MemberId(0),
            from_tag: 100,
            msgid: 10,
            body: AcceptBody::Data(vec![1].into()),
        };
        let actions = feed(&mut inst, msg);
        assert_eq!(deliver_count(&actions), 0);
        assert_eq!(inst.highest_contiguous, 0);
    }

    #[test]
    fn heartbeat_gap_triggers_retrans_request_on_tick() {
        let mut inst = member_one(0);
        let hb = GroupMsg::Heartbeat {
            instance: 1,
            incarnation: 0,
            next_seq: 4, // we have nothing; 3 accepts missing
            sequencer: MemberId(0),
        };
        let _ = feed(&mut inst, hb);
        let later = T0 + inst.cfg.gap_timeout + Duration::from_millis(1);
        let actions = inst.tick(later);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Multicast(GroupMsg::Retrans { from_seq: 1, .. }))));
    }

    #[test]
    fn retrans_served_from_buffer_for_view_members() {
        let mut inst = member_one(0);
        let _ = feed(&mut inst, accept(1, 0, 10, vec![1]));
        let actions = inst.on_retrans(1, 1, H2);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Unicast(h, GroupMsg::Accept { seq: 1, .. }) if *h == H2
        )));
        // Unknown host gets nothing.
        let nothing = inst.on_retrans(1, 1, HostAddr(99));
        assert!(nothing.is_empty());
    }

    #[test]
    fn sequencer_silence_fails_group_on_member() {
        let mut inst = member_one(0);
        let _ = feed(
            &mut inst,
            GroupMsg::Heartbeat {
                instance: 1,
                incarnation: 0,
                next_seq: 1,
                sequencer: MemberId(0),
            },
        );
        let late = T0 + inst.cfg.failure_timeout + Duration::from_millis(50);
        let actions = inst.tick(late);
        assert!(inst.failed);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Multicast(GroupMsg::FailNotice { .. }))));
        assert!(actions.iter().any(|a| matches!(a, Action::NotifyFailure)));
    }

    #[test]
    fn member_silence_fails_group_on_sequencer() {
        let mut inst = seq_with_three(2);
        // Members never ack/heartbeat-ack.
        let late = T0 + inst.cfg.failure_timeout + Duration::from_millis(50);
        // last_heard was set at join time (T0).
        let actions = inst.tick(late);
        assert!(inst.failed);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Multicast(GroupMsg::FailNotice { .. }))));
    }

    #[test]
    fn send_on_failed_group_errors() {
        let mut inst = member_one(0);
        let _ = feed(
            &mut inst,
            GroupMsg::FailNotice {
                instance: 1,
                incarnation: 0,
                suspect: MemberId(0),
            },
        );
        let (msgid, actions) = inst.app_send(T0, vec![1].into());
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::CompleteSend(m, Err(GroupError::Failed)) if *m == msgid)));
    }

    #[test]
    fn reset_two_of_three_rebuilds_group() {
        // Member 1 coordinates a reset after member 0 (sequencer) dies.
        let mut m1 = member_one(2);
        let mut m2 = Instance::from_join(
            1,
            Port::from_name("g"),
            cfg(2),
            H2,
            102,
            MemberId(2),
            0,
            m1.view.clone(),
            0,
            T0,
        );
        // Both apply a message of member 0's, then see the failure.
        for m in [&mut m1, &mut m2] {
            let _ = feed(m, accept(1, 0, 10, vec![1]));
            assert!(m.seen(MemberId(0), 10));
            let _ = m.handle(
                T0,
                H1,
                GroupMsg::FailNotice {
                    instance: 1,
                    incarnation: 0,
                    suspect: MemberId(0),
                },
            );
            assert!(m.failed);
        }
        // m1 invites; m2 votes; m1 announces; both install.
        let invite_actions = m1.app_reset(T0, 2);
        let invite = invite_actions
            .iter()
            .find_map(|a| match a {
                Action::Multicast(m @ GroupMsg::ResetInvite { .. }) => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        let vote_actions = m2.handle(T0, H1, invite);
        let vote = vote_actions
            .iter()
            .find_map(|a| match a {
                Action::Unicast(_, m @ GroupMsg::ResetVote { .. }) => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        // The dead member never votes, so the coordinator announces at the
        // vote-window deadline.
        let mut result_actions = m1.handle(T0, H2, vote);
        result_actions.extend(m1.tick(T0 + m1.cfg.reset_vote_window + Duration::from_millis(1)));
        let result = result_actions
            .iter()
            .find_map(|a| match a {
                Action::Multicast(m @ GroupMsg::ResetResult { .. }) => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        assert!(
            result_actions
                .iter()
                .any(|a| matches!(a, Action::CompleteReset(Ok(())))),
            "coordinator completes its own reset"
        );
        assert!(!m1.failed);
        assert_eq!(m1.incarnation, 1);
        assert_eq!(m1.view.len(), 2);
        // New sequencer is the lowest id: member 1.
        assert!(m1.is_sequencer());

        let m2_actions = m2.handle(T0, H1, result);
        assert!(m2_actions
            .iter()
            .any(|a| matches!(a, Action::Deliver(GroupEvent::ResetDone { .. }))));
        assert!(!m2.failed);
        assert_eq!(m2.incarnation, 1);
        assert_eq!(m2.view.len(), 2);
        assert!(!m2.is_sequencer());
        // The expelled member's runs went with it.
        for m in [&m1, &m2] {
            assert!(!m.seen_msgids.contains_key(&MemberId(0)));
        }
    }

    #[test]
    fn reset_without_quorum_fails_at_deadline() {
        let mut m1 = member_one(2);
        m1.failed = true;
        let _ = m1.app_reset(T0, 2); // needs 2 votes, gets only itself
        let late = T0 + m1.cfg.reset_vote_window + Duration::from_millis(1);
        let actions = m1.tick(late);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::CompleteReset(Err(GroupError::ResetFailed)))));
    }

    #[test]
    fn reset_catches_up_laggard_to_cutoff_before_install() {
        // m2 lags: it never saw accept 1. Coordinator m1 has it.
        let mut m1 = member_one(2);
        let _ = feed(&mut m1, accept(1, 0, 10, vec![1]));
        let mut m2 = Instance::from_join(
            1,
            Port::from_name("g"),
            cfg(2),
            H2,
            102,
            MemberId(2),
            0,
            m1.view.clone(),
            0,
            T0,
        );
        for m in [&mut m1, &mut m2] {
            m.failed = true;
        }
        let invite_actions = m1.app_reset(T0, 2);
        let invite = invite_actions
            .iter()
            .find_map(|a| match a {
                Action::Multicast(m @ GroupMsg::ResetInvite { .. }) => Some(m.clone()),
                _ => None,
            })
            .unwrap();
        let vote = m2
            .handle(T0, H1, invite)
            .into_iter()
            .find_map(|a| match a {
                Action::Unicast(_, m @ GroupMsg::ResetVote { .. }) => Some(m),
                _ => None,
            })
            .unwrap();
        let mut result_actions = m1.handle(T0, H2, vote);
        result_actions.extend(m1.tick(T0 + m1.cfg.reset_vote_window + Duration::from_millis(1)));
        let result = result_actions
            .into_iter()
            .find_map(|a| match a {
                Action::Multicast(m @ GroupMsg::ResetResult { .. }) => Some(m),
                _ => None,
            })
            .unwrap();
        // m2 receives the result but is behind cutoff=1: asks for retrans.
        let m2_actions = m2.handle(T0, H1, result);
        let retrans = m2_actions
            .iter()
            .find_map(|a| match a {
                Action::Unicast(h, m @ GroupMsg::Retrans { .. }) => Some((*h, m.clone())),
                _ => None,
            })
            .expect("laggard must request retransmission");
        assert_eq!(retrans.0, H1, "source is the up-to-date member");
        assert_eq!(m2.incarnation, 0, "not installed yet");
        // m1 serves the retrans (m2's host is in m1's new view).
        let serve = m1.handle(T0, H2, retrans.1);
        let acc = serve
            .into_iter()
            .find_map(|a| match a {
                Action::Unicast(_, m @ GroupMsg::Accept { .. }) => Some(m),
                _ => None,
            })
            .unwrap();
        // The old-incarnation accept is accepted during catch-up and the
        // reset installs.
        let m2_final = m2.handle(T0, H1, acc);
        assert!(m2_final
            .iter()
            .any(|a| matches!(a, Action::Deliver(GroupEvent::ResetDone { .. }))));
        assert_eq!(m2.incarnation, 1);
        assert_eq!(m2.highest_contiguous, 1);
    }

    #[test]
    fn expelled_member_dissolves_on_notice() {
        let mut inst = member_one(0);
        let actions = feed(
            &mut inst,
            GroupMsg::ExpelNotice {
                instance: 1,
                current_incarnation: 3,
            },
        );
        assert!(inst.dissolved);
        assert!(actions.iter().any(|a| matches!(a, Action::Dissolve)));
    }

    #[test]
    fn leave_of_sequencer_hands_over_and_dissolves() {
        let mut inst = seq_with_three(0);
        // Member 1 is not known to hold member 2's join, slot 2, and none
        // could serve it that slot once the sequencer is gone: it is asked
        // for its ack first, and the window admits nothing meanwhile.
        let ask = inst.app_leave(T0);
        assert!(!inst.dissolved);
        assert!(
            matches!(
                ask.as_slice(),
                [Action::Unicast(h, GroupMsg::AcceptBatch { items, .. })]
                    if *h == H1 && items.is_empty()
            ),
            "{ask:?}"
        );
        let _ = inst.on_send_req(T0, 0, MemberId(2), 7, vec![7].into());
        assert_eq!(inst.next_seq, 3, "nothing sequenced while leaving");
        let actions = inst.on_ack(T0, 0, 2, MemberId(1));
        assert!(inst.dissolved);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Multicast(GroupMsg::Accept {
                body: AcceptBody::Leave(MemberId(0)),
                ..
            })
        )));
        assert!(actions.iter().any(|a| matches!(a, Action::Dissolve)));
    }

    #[test]
    fn follower_applies_leave_and_takes_over_sequencing() {
        let mut m1 = member_one(0);
        let leave = GroupMsg::Accept {
            instance: 1,
            incarnation: 0,
            seq: 1,
            from: MemberId(0),
            from_tag: 100,
            msgid: 0,
            body: AcceptBody::Leave(MemberId(0)),
        };
        let actions = feed(&mut m1, leave);
        assert!(m1.is_sequencer());
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Deliver(GroupEvent::Left { .. }))));
        // It sequences once the other member acks to it (every member
        // does on applying the Leave); until then it asks for that ack.
        let (_, refused) = m1.app_send(T0, vec![7].into());
        assert!(matches!(
            refused.as_slice(),
            [Action::Unicast(h, GroupMsg::AcceptBatch { items, dones, .. })]
                if *h == H2 && items.is_empty() && dones.is_empty()
        ));
        let _ = m1.on_ack(T0, 0, 1, MemberId(2));
        let (_, send_actions) = m1.app_send(T0, vec![8].into());
        assert!(send_actions
            .iter()
            .any(|a| matches!(a, Action::Multicast(GroupMsg::Accept { seq: 2, .. }))));
    }

    #[test]
    fn bb_method_waits_for_data_then_delivers() {
        let mut inst = member_one(0);
        let bbref = GroupMsg::Accept {
            instance: 1,
            incarnation: 0,
            seq: 1,
            from: MemberId(2),
            from_tag: 102,
            msgid: 30,
            body: AcceptBody::BbRef,
        };
        let a1 = feed(&mut inst, bbref);
        assert_eq!(deliver_count(&a1), 0, "no data yet");
        let data = GroupMsg::BbData {
            instance: 1,
            incarnation: 0,
            from: MemberId(2),
            msgid: 30,
            data: vec![0; 5000].into(),
        };
        let a2 = feed(&mut inst, data);
        assert_eq!(deliver_count(&a2), 1);
        assert_eq!(inst.highest_contiguous, 1);
    }

    #[test]
    fn large_app_send_uses_bb() {
        let mut inst = seq_with_three(0);
        let big = vec![0u8; inst.cfg.bb_threshold + 1];
        let (_, actions) = inst.app_send(T0, big.into());
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Multicast(GroupMsg::BbData { .. }))));
    }

    #[test]
    fn pending_send_retries_on_tick() {
        let mut inst = member_one(0);
        let (_msgid, _) = inst.app_send(T0, vec![1].into());
        let later = T0 + inst.cfg.ack_timeout + Duration::from_millis(1);
        let actions = inst.tick(later);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::Unicast(h, GroupMsg::SendReq { .. }) if *h == H0
        )));
        assert_eq!(inst.stats.send_retries, 1);
    }

    /// Three members on an instant, lossless network. Member `i` lives
    /// on host `i`; member 0 founds the group and sequences.
    struct Trio {
        members: Vec<Instance>,
        /// Acks from these hosts are lost.
        mute: Vec<HostAddr>,
        /// Done notifications unicast to these hosts are lost.
        deaf: Vec<HostAddr>,
        /// Every action that is not a packet, with the host it arose at.
        local: Vec<(HostAddr, Action)>,
    }

    impl Trio {
        fn new(r: u32, history: u64) -> Trio {
            let cfg = GroupConfig { history, ..cfg(r) };
            let mut trio = Trio {
                members: vec![Instance::create(
                    1,
                    Port::from_name("g"),
                    cfg.clone(),
                    H0,
                    100,
                    T0,
                )],
                mute: Vec::new(),
                deaf: Vec::new(),
                local: Vec::new(),
            };
            for host in [H1, H2] {
                let tag = 100 + u64::from(host.0);
                let actions = trio.members[0].on_join_request(T0, host, tag, tag);
                let Some(GroupMsg::JoinAck {
                    member_id,
                    view,
                    start_seq,
                    ..
                }) = actions.iter().find_map(|a| match a {
                    Action::Unicast(_, m @ GroupMsg::JoinAck { .. }) => Some(m.clone()),
                    _ => None,
                })
                else {
                    panic!("no JoinAck in {actions:?}");
                };
                trio.members.push(Instance::from_join(
                    1,
                    Port::from_name("g"),
                    cfg.clone(),
                    host,
                    tag,
                    member_id,
                    0,
                    view,
                    start_seq,
                    T0,
                ));
                trio.route(H0, actions);
            }
            trio
        }

        /// Delivers `actions` taken at `src`, and everything they cause,
        /// at `now`. A multicast reaches every member, its sender too.
        fn route_at(&mut self, now: SimTime, src: HostAddr, actions: Vec<Action>) {
            let mut queue: std::collections::VecDeque<_> =
                actions.into_iter().map(|a| (src, a)).collect();
            while let Some((from, action)) = queue.pop_front() {
                let (to, msg) = match action {
                    Action::Traced(_, a) => {
                        queue.push_front((from, *a));
                        continue;
                    }
                    Action::Unicast(h, msg) => (vec![h], msg),
                    Action::Multicast(msg) => (vec![H0, H1, H2], msg),
                    local => {
                        self.local.push((from, local));
                        continue;
                    }
                };
                if matches!(msg, GroupMsg::Ack { .. }) && self.mute.contains(&from) {
                    continue;
                }
                if matches!(msg, GroupMsg::Done { .. } | GroupMsg::DoneBatch { .. })
                    && to.len() == 1
                    && self.deaf.contains(&to[0])
                {
                    continue;
                }
                for h in to {
                    if let Some(m) = self.members.get_mut(h.0 as usize) {
                        let out = m.handle(now, from, msg.clone());
                        queue.extend(out.into_iter().map(|a| (h, a)));
                    }
                }
            }
        }

        fn route(&mut self, src: HostAddr, actions: Vec<Action>) {
            self.route_at(T0, src, actions);
        }

        /// Member `i` sends `data`; returns whether the send completed.
        fn send(&mut self, i: usize, data: Vec<u8>) -> bool {
            let (msgid, actions) = self.members[i].app_send(T0, data.into());
            let completed = actions
                .iter()
                .any(|a| matches!(a, Action::CompleteSend(m, Ok(_)) if *m == msgid));
            self.route(HostAddr(i as u32), actions);
            completed || !self.members[i].pending_sends.contains_key(&msgid)
        }
    }

    #[test]
    fn ack_entries_go_once_every_member_has_acked() {
        for r in 0..=2 {
            let mut trio = Trio::new(r, 64);
            for k in 0..5u8 {
                assert!(trio.send(1 + usize::from(k % 2), vec![k]), "r = {r}");
            }
            // Every member acks what it holds (r > 0 members have already).
            for i in [1, 2] {
                let ack = trio.members[i].ack().into_iter().collect();
                trio.route(HostAddr(i as u32), ack);
            }
            let left = &trio.members[0].pending_acks;
            assert!(left.is_empty(), "r = {r}: {:?}", left.keys());
        }
    }

    #[test]
    fn bb_data_leaves_with_its_slot() {
        for r in [0, 2] {
            let mut trio = Trio::new(r, 16);
            let big = vec![7u8; trio.members[0].cfg.bb_threshold];
            for k in 0..160 {
                assert!(trio.send(1 + k % 2, big.clone()), "r = {r}, send {k}");
                for m in &trio.members {
                    // The newest slot and the `history` before it.
                    assert!(m.bb_store.len() <= 17, "r = {r}: {}", m.bb_store.len());
                }
            }
            assert!(trio.members.iter().all(|m| m.highest_contiguous == 162));
        }
    }

    #[test]
    fn the_sequencer_stays_within_history_slots_of_every_member() {
        let mut trio = Trio::new(2, 16);
        // Member 2 applies everything, but its acks are lost. It holds its
        // join slot, 2: slots up to 18 fit.
        trio.mute.push(H2);
        for k in 0..16u8 {
            let _ = trio.send(1, vec![k]);
        }
        assert_eq!(trio.members[0].next_seq, 19);
        let _ = trio.send(1, vec![16]);
        assert_eq!(trio.members[0].next_seq, 19, "no room: nothing sequenced");
        assert_eq!(trio.members[2].highest_contiguous, 18);
        // The sender's retry brings the message back, and the member that
        // shuts the window is asked for its ack: lost again, then heard.
        let timeout = trio.members[1].cfg.ack_timeout;
        let retry = |trio: &mut Trio, k: u32| {
            let now = T0 + timeout * k;
            let actions = trio.members[1].tick(now);
            trio.route_at(now, H1, actions);
        };
        retry(&mut trio, 1);
        assert_eq!(trio.members[0].next_seq, 19);
        trio.mute.clear();
        retry(&mut trio, 2);
        assert_eq!(trio.members[0].holds.get(&MemberId(2)), Some(&18));
        retry(&mut trio, 3);
        assert_eq!(trio.members[0].next_seq, 20, "the retry is sequenced");
        assert!(trio.members.iter().all(|m| m.highest_contiguous == 19));
    }

    /// One lost ack must not hold a send back for good in an idle group:
    /// the retry finds the slot short of r + 1 holders, and the sequencer
    /// asks the member that lacks it for its ack. Whoever sends, and
    /// whether the message goes through the sequencer or as BB data.
    #[test]
    fn a_retry_completes_after_a_lost_ack_in_an_idle_group() {
        let bb = cfg(2).bb_threshold;
        for (sender, size) in [(1, 1), (1, bb), (0, 1), (0, bb)] {
            let mut trio = Trio::new(2, 16);
            let lost = if sender == 1 { H2 } else { H1 };
            trio.mute.push(lost);
            let case = format!("member {sender}, {size} bytes");
            assert!(!trio.send(sender, vec![1; size]), "{case}: an ack was lost");
            trio.mute.clear();
            let now = T0 + trio.members[sender].cfg.ack_timeout;
            let actions = trio.members[sender].tick(now);
            trio.route_at(now, HostAddr(sender as u32), actions);
            assert!(trio.members[sender].pending_sends.is_empty(), "{case}");
            assert!(trio.members[0].pending_acks.is_empty(), "{case}");
        }
    }

    #[test]
    fn a_new_sequencer_hears_from_every_member_at_once() {
        let mut trio = Trio::new(0, 16);
        for k in 0..40u8 {
            assert!(trio.send(1 + usize::from(k % 2), vec![k]));
        }
        let t = T0 + Duration::from_secs(1);
        let leave = trio.members[0].app_leave(t);
        trio.route_at(t, H0, leave);
        let hc = trio.members[1].highest_contiguous;
        assert!(trio.members[1].is_sequencer());
        assert_eq!(trio.members[1].holds.get(&MemberId(2)), Some(&hc));
        // It sequences at once, and neither member suspects the other.
        assert!(trio.send(2, vec![99]));
        for m in &mut trio.members[1..] {
            let _ = m.tick(t + Duration::from_millis(100));
            assert!(!m.failed, "{m:?}");
        }
    }

    /// The completions of member `i`'s send `msgid` that `trio` saw.
    fn completions(trio: &Trio, i: u32, msgid: u64) -> Vec<SeqNo> {
        trio.local
            .iter()
            .filter_map(|(h, a)| match a {
                Action::CompleteSend(m, Ok(seq)) if *h == HostAddr(i) && *m == msgid => Some(*seq),
                _ => None,
            })
            .collect()
    }

    /// The slots of the messages member `i` delivered.
    fn delivered(trio: &Trio, i: u32) -> Vec<SeqNo> {
        trio.local
            .iter()
            .filter_map(|(h, a)| match a {
                Action::Deliver(GroupEvent::Message { seq, .. }) if *h == HostAddr(i) => Some(*seq),
                _ => None,
            })
            .collect()
    }

    /// A sender whose `Done` was lost learns the outcome from its retry
    /// even after the slot has left every history: the sequencer no
    /// longer knows the slot, and the sender completes at the one it
    /// recorded when it applied its own message.
    #[test]
    fn a_lost_done_below_the_history_completes_once_at_the_senders_slot() {
        let mut trio = Trio::new(2, 8);
        trio.deaf.push(H1);
        let (msgid, actions) = trio.members[1].app_send(T0, vec![1].into());
        trio.route(H1, actions);
        trio.deaf.clear();
        let slot = 3; // after the two joins
        assert_eq!(trio.members[1].pending_sends[&msgid].applied_at, Some(slot));
        assert!(completions(&trio, 1, msgid).is_empty(), "the Done was lost");
        for k in 0..12u8 {
            assert!(trio.send(2, vec![k]));
        }
        for m in &trio.members {
            assert!(!m.buffer.contains_key(&slot), "slot {slot} left {m:?}");
        }
        let next_seq = trio.members[0].next_seq;
        let now = T0 + trio.members[1].cfg.ack_timeout;
        let retry = trio.members[1].tick(now);
        assert!(
            retry
                .iter()
                .any(|a| matches!(a, Action::Unicast(_, GroupMsg::SendReq { .. }))),
            "{retry:?}"
        );
        trio.route_at(now, H1, retry);
        assert_eq!(completions(&trio, 1, msgid), vec![slot]);
        assert!(trio.members[1].pending_sends.is_empty());
        assert_eq!(trio.members[0].next_seq, next_seq, "not re-sequenced");
        for i in 0..3 {
            assert_eq!(
                delivered(&trio, i).iter().filter(|&&s| s == slot).count(),
                1,
                "member {i}"
            );
        }
    }

    /// A duplicate of a send request whose slot has left the history is
    /// still a duplicate: the runs know the message without its slot.
    #[test]
    fn a_duplicate_send_req_below_the_history_is_suppressed() {
        let mut trio = Trio::new(0, 8);
        let (msgid, actions) = trio.members[1].app_send(T0, vec![1].into());
        let Some(req) = actions.iter().find_map(|a| match a {
            Action::Unicast(_, m @ GroupMsg::SendReq { .. }) => Some(m.clone()),
            _ => None,
        }) else {
            panic!("no SendReq in {actions:?}");
        };
        trio.route(H1, actions);
        assert_eq!(completions(&trio, 1, msgid), vec![3]);
        for k in 0..12u8 {
            assert!(trio.send(2, vec![k]));
        }
        assert!(!trio.members[0].buffer.contains_key(&3));
        let next_seq = trio.members[0].next_seq;
        let answer = trio.members[0].handle(T0, H1, req);
        assert!(
            matches!(
                answer.as_slice(),
                [Action::Unicast(h, GroupMsg::Done { seq: 0, .. })] if *h == H1
            ),
            "{answer:?}"
        );
        trio.route(H0, answer);
        assert_eq!(trio.members[0].next_seq, next_seq, "not re-sequenced");
        assert_eq!(completions(&trio, 1, msgid), vec![3], "completed once");
        assert_eq!(delivered(&trio, 2).len(), 13);
    }

    /// msgids sequenced out of their sender's order are each sequenced
    /// once, and the sender's runs close up into one.
    #[test]
    fn out_of_order_msgids_are_sequenced_once_and_their_runs_collapse() {
        let mut inst = seq_with_three(0);
        let req = |inst: &mut Instance, msgid: u64| {
            inst.on_send_req(T0, 0, MemberId(1), msgid, vec![msgid as u8].into())
        };
        let _ = req(&mut inst, 2);
        assert_eq!(inst.seen_msgids[&MemberId(1)].0, vec![(2, 2)]);
        assert!(!inst.seen(MemberId(1), 1));
        let _ = req(&mut inst, 1);
        assert_eq!(inst.highest_contiguous, 4);
        for msgid in [1, 2] {
            let _ = req(&mut inst, msgid);
        }
        assert_eq!(inst.highest_contiguous, 4, "duplicates not re-sequenced");
        assert_eq!(inst.seen_msgids[&MemberId(1)].0, vec![(1, 2)]);
    }

    #[test]
    fn msgid_runs_merge_and_keep_holes() {
        let mut runs = MsgidRuns::default();
        for msgid in [5, 1, 2, 7, 4, 2] {
            runs.insert(msgid);
        }
        assert_eq!(runs.0, vec![(1, 2), (4, 5), (7, 7)]);
        assert!(runs.contains(4) && !runs.contains(3) && !runs.contains(8));
        runs.insert(6);
        runs.insert(3);
        assert_eq!(runs.0, vec![(1, 7)]);
    }

    /// A member that leaves takes its runs with it: the view check
    /// refuses its sends from then on.
    #[test]
    fn a_senders_runs_go_when_it_leaves_the_view() {
        let mut trio = Trio::new(0, 8);
        for k in 0..3u8 {
            assert!(trio.send(2, vec![k]));
        }
        for m in &trio.members {
            assert_eq!(m.seen_msgids[&MemberId(2)].0, vec![(1, 3)], "{m:?}");
        }
        let leave = trio.members[2].app_leave(T0);
        trio.route(H2, leave);
        assert!(trio.members[2].dissolved);
        for m in &trio.members[..2] {
            assert!(!m.view.contains(MemberId(2)));
            assert!(!m.seen_msgids.contains_key(&MemberId(2)), "{m:?}");
        }
    }

    #[test]
    fn info_reports_buffered() {
        let mut inst = member_one(0);
        let _ = feed(&mut inst, accept(1, 0, 10, vec![1]));
        let info = inst.info();
        assert_eq!(info.highest_contiguous, 1);
        // delivered tracks what was handed to the app queue (the engine
        // delivers immediately, so they coincide here).
        assert_eq!(info.buffered(), 0);
    }
}
