//! Every member's receive path: accepts enter the history and apply in
//! slot order, progress goes back to the sequencer as cumulative acks,
//! heartbeats keep liveness, gaps are recovered by retransmission, and
//! each member serves the history it holds to the others.

use amoeba_flip::HostAddr;
use amoeba_sim::SimTime;
use amoeba_telemetry::TraceCtx;

use super::{AcceptRec, Action, Instance};
use crate::config::GAP_TIMEOUT;
use crate::msg::{AcceptBody, AcceptItem, DoneItem, GroupMsg};
use crate::types::{GroupEvent, Incarnation, MemberId, SeqNo};

impl Instance {
    pub(super) fn insert_accept(&mut self, seq: SeqNo, rec: AcceptRec) {
        self.highest_seen = self.highest_seen.max(seq);
        if seq > self.highest_contiguous {
            self.history.insert(seq, rec);
        }
    }

    /// Applies received accepts in order; returns deliveries plus, when
    /// r > 0, one **cumulative** ack for the highest slot applied (one
    /// ack per batch of progress, not one per accept).
    pub(super) fn advance(&mut self, now: SimTime) -> Vec<Action> {
        let mut actions = Vec::new();
        let start_contiguous = self.highest_contiguous;
        let mut handover = false;
        loop {
            let next = self.highest_contiguous + 1;
            let Some(rec) = self.history.ahead(next) else {
                break;
            };
            let (from, from_tag, msgid, body) =
                (rec.from, rec.from_tag, rec.msgid, rec.body.clone());
            // The record moves into the ring, displacing the slot that
            // leaves the history.
            self.history.apply(next);
            self.highest_contiguous = next;
            self.gap_since = None;
            self.stats.applied += 1;
            if msgid != 0 {
                self.seen_msgids.entry(from).or_default().insert(msgid);
            }
            let trace = self
                .trace_by_seq
                .get(&next)
                .copied()
                .unwrap_or(TraceCtx::NONE);
            let data = match body {
                AcceptBody::Data(data) => Some(data),
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
                    }
                    self.delivered = next;
                    None
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
                    None
                }
            };
            if let Some(data) = data {
                actions.push(Action::Deliver(GroupEvent::Message {
                    seq: next,
                    from,
                    from_tag,
                    data,
                    trace,
                }));
                self.delivered = next;
            }
            // r == 0 senders complete on observing their own accept;
            // others record its slot.
            if from == self.me && msgid != 0 {
                if self.effective_r() == 0 {
                    if self.pending_sends.remove(&msgid).is_some() {
                        actions.push(Action::CompleteSend(msgid, Ok(next)));
                    }
                } else if let Some(p) = self.pending_sends.get_mut(&msgid) {
                    p.applied_at = Some(next);
                }
            }
            let keep_from = self.highest_contiguous.saturating_sub(self.cfg.history);
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

    /// Whether an incoming accept for `seq` may enter the history.
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

    /// A single accept: the same per-slot path as a batch of one.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_accept(
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
        let rec = AcceptRec {
            incarnation,
            from,
            from_tag,
            msgid,
            body,
        };
        self.receive(now, src, seq, std::iter::once(rec))
    }

    /// Handles a coalesced batch of consecutive accepts: keep every
    /// admissible slot, then apply once — producing one cumulative ack
    /// for the whole batch instead of one per slot. Piggybacked done
    /// notifications addressed to us complete their sends first.
    pub(super) fn on_accept_batch(
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
        let mut actions = self.on_done_batch(dones);
        let recs = items.into_iter().map(|item| AcceptRec {
            incarnation,
            from: item.from,
            from_tag: item.from_tag,
            msgid: item.msgid,
            body: item.body,
        });
        actions.append(&mut self.receive(now, src, first_seq, recs));
        actions
    }

    /// Keeps each admissible, new accept of the consecutive slots from
    /// `first_seq` on, then applies what it can. Nothing happens when
    /// every slot is refused or already applied.
    fn receive(
        &mut self,
        now: SimTime,
        src: HostAddr,
        first_seq: SeqNo,
        recs: impl Iterator<Item = AcceptRec>,
    ) -> Vec<Action> {
        let mut any = false;
        for (seq, rec) in (first_seq..).zip(recs) {
            if !self.accept_admissible(rec.incarnation, seq, src) {
                continue;
            }
            if seq <= self.highest_contiguous {
                continue; // duplicate
            }
            let rx = self.rx_tag(seq);
            if rx.is_some() {
                self.trace_by_seq.insert(seq, rx);
            }
            self.insert_accept(seq, rec);
            any = true;
        }
        if !any {
            return Vec::new();
        }
        if first_seq > self.highest_contiguous + 1 && self.gap_since.is_none() {
            self.gap_since = Some(now);
        }
        self.advance(now)
    }

    pub(super) fn on_ack(
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

    /// This member's cumulative ack of everything it has applied, to the
    /// sequencer.
    pub(super) fn ack(&mut self) -> Option<Action> {
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

    pub(super) fn on_heartbeat(
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

    /// Gap recovery, on the tick: once a gap has lasted [`GAP_TIMEOUT`], a
    /// multicast request for the missing slots (re-armed each time).
    pub(super) fn recover_gap(&mut self, now: SimTime) -> Option<Action> {
        let since = self.gap_since?;
        if now.saturating_since(since) < GAP_TIMEOUT {
            return None;
        }
        self.gap_since = Some(now); // re-arm
        self.stats.retrans_requests += 1;
        // Ask for everything up to the highest slot we know was
        // assigned — the history alone understates an end-of-order gap
        // (its last slot may already be applied, below the gap) —
        // clamped to the window, which is what a server is willing to
        // serve in one request.
        let to = if self.cfg.buggy_retrans_bound {
            // Historical (pre-fix) bound, kept reachable for the explore
            // harness's seeded-bug self-test: when the lost accepts are
            // the newest ones, the history's last slot sits at (or below)
            // `highest_contiguous`, the request comes out empty and the
            // gap never closes.
            self.history.last_slot().unwrap_or(self.highest_contiguous)
        } else {
            self.highest_seen
                .min(self.highest_contiguous + self.cfg.history)
                .max(self.highest_contiguous + 1)
        };
        Some(Action::Multicast(GroupMsg::Retrans {
            instance: self.id,
            from_seq: self.highest_contiguous + 1,
            to_seq: to,
            requester: self.my_host,
        }))
    }

    pub(super) fn on_retrans(
        &mut self,
        from_seq: SeqNo,
        to_seq: SeqNo,
        requester: HostAddr,
    ) -> Vec<Action> {
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
            if let Some(rec) = self.history.get(seq) {
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
                            body: rec.body.clone(),
                        },
                    ),
                ));
            }
        }
        actions
    }
}
