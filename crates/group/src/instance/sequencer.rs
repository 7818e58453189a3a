//! The sequencer's role: it assigns every message its slot, batches the
//! accepts and the dones it owes, keeps the window, answers retries,
//! admits joiners and leaves only once no member can still need it.

use amoeba_flip::{HostAddr, Payload};
use amoeba_sim::SimTime;
use amoeba_telemetry::TraceCtx;

use super::{AcceptRec, Action, Instance};
use crate::config::MAX_BATCH;
use crate::msg::{AcceptBody, AcceptItem, DoneItem, GroupMsg, MAX_ACCEPT_BATCH_ITEMS};
use crate::types::{Incarnation, MemberId, MemberInfo, SeqNo};

impl Instance {
    /// The oldest slot every member must still hold for the sequencer to
    /// assign `next_seq`.
    pub(super) fn window_floor(&self) -> SeqNo {
        self.next_seq.saturating_sub(self.cfg.history)
    }

    /// Sequencer: whether the window admits one more message. The
    /// sequencer never runs more than `history` slots ahead of the
    /// slowest member's acknowledged prefix, so every member still holds
    /// each slot that a retransmission or a reset catch-up can ask it for
    /// (each keeps the last `history`). Join and Leave accepts bypass the
    /// window, so a view change can always make progress.
    pub(super) fn window_open(&self) -> bool {
        !self.leaving && self.lacking(self.window_floor()).next().is_none()
    }

    /// Assigns the next slot to a message and queues its accept for the
    /// next multicast flush. Consecutive sequencing calls within one
    /// network round coalesce into a single [`GroupMsg::AcceptBatch`]
    /// packet; the flush happens at the end of every protocol entry
    /// point, or immediately once `MAX_BATCH` slots are pending.
    pub(super) fn sequence_message(
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
            actions.extend(self.flush_pending());
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

    /// Multicasts everything queued by `sequence_message` as one
    /// packet: a plain `Accept` for a single slot, an `AcceptBatch` for
    /// several consecutive slots (or for one slot with pending done
    /// notifications riding along). Dones with no accept to ride on
    /// coalesce per sender into `DoneBatch` packets. The peer layer calls
    /// this at the end of a packet burst or coalescing window.
    pub(crate) fn flush_pending(&mut self) -> Vec<Action> {
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

    /// Whether accepts or done notifications are queued awaiting a
    /// batch flush.
    pub(crate) fn has_pending_batch(&self) -> bool {
        !self.pending_batch.is_empty() || !self.pending_dones.is_empty()
    }

    /// Sequencer: notifies the sender of every slot that has now reached
    /// r+1 holders, and forgets the slot.
    pub(super) fn settle(&mut self) -> Vec<Action> {
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

    pub(super) fn on_send_req(
        &mut self,
        now: SimTime,
        incarnation: Incarnation,
        from: MemberId,
        msgid: u64,
        data: Payload,
    ) -> Vec<Action> {
        if !self.is_sequencer() || self.failed || incarnation != self.incarnation {
            return Vec::new();
        }
        // Duplicate suppression for sender retries.
        if self.seen(from, msgid) {
            return self.answer_retry(from, msgid);
        }
        let Some(tag) = self.view.member(from).map(|m| m.tag) else {
            return Vec::new();
        };
        if !self.window_open() {
            return self.ask_for_acks(self.window_floor());
        }
        let trace = self.rx_tag(msgid);
        self.sequence_message(now, from, tag, msgid, AcceptBody::Data(data), trace)
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
    pub(super) fn answer_retry(&mut self, from: MemberId, msgid: u64) -> Vec<Action> {
        let seq = if from == self.me {
            match self.pending_sends.get(&msgid).and_then(|p| p.applied_at) {
                Some(seq) => Some(seq),
                None => return Vec::new(),
            }
        } else {
            self.history
                .applied_newest_first()
                .find(|(_, rec)| rec.from == from && rec.msgid == msgid)
                .map(|(seq, _)| seq)
        };
        let at_most = seq.unwrap_or_else(|| {
            let hc = self.highest_contiguous;
            self.history
                .first_slot()
                .map_or(hc, |first| first - 1)
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

    /// Sequencer: asks each member not known to hold slot `seq` for its
    /// cumulative ack, with an `AcceptBatch` that holds no slot and no
    /// done (a flush never sends one). The answer replaces an ack that was
    /// lost. A member that lacks slots recovers them as usual, by gap
    /// recovery. Sent whenever the sequencer leaves a message or a retry
    /// unanswered (the window is shut, or the slot is not resilient yet),
    /// so that the sender's next retry finds the group moved on.
    pub(super) fn ask_for_acks(&self, seq: SeqNo) -> Vec<Action> {
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

    pub(super) fn on_join_request(
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
            return vec![self.join_ack(joiner, join_id, existing.id)];
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
        actions.extend(self.flush_pending());
        // The join accept was applied locally just now, so the view already
        // contains the joiner and highest_contiguous is its start position.
        actions.push(self.join_ack(joiner, join_id, member.id));
        actions
    }

    /// The `JoinAck` that admits `joiner` as `member_id` at the current
    /// view and slot.
    fn join_ack(&self, joiner: HostAddr, join_id: u64, member_id: MemberId) -> Action {
        Action::Unicast(
            joiner,
            GroupMsg::JoinAck {
                instance: self.id,
                join_id,
                member_id,
                incarnation: self.incarnation,
                view: self.view.clone(),
                start_seq: self.highest_contiguous,
            },
        )
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

    /// `LeaveGroup`.
    pub fn app_leave(&mut self, now: SimTime) -> Vec<Action> {
        if !self.dissolved && !self.failed && self.view.len() > 1 {
            if self.is_sequencer() {
                self.leaving = true;
                return self.leave_once_held(now);
            }
            if let Some(h) = self.sequencer_host() {
                return vec![Action::Unicast(
                    h,
                    GroupMsg::LeaveRequest {
                        instance: self.id,
                        incarnation: self.incarnation,
                        member: self.me,
                    },
                )];
            }
        }
        // Gone already, alone, broken or without a sequencer: dissolve
        // unilaterally.
        self.dissolved = true;
        vec![Action::CompleteLeave, Action::Dissolve]
    }

    /// Sequencer: sequences the Leave of a member that asked for it.
    pub(super) fn on_leave_request(
        &mut self,
        now: SimTime,
        incarnation: Incarnation,
        member: MemberId,
    ) -> Vec<Action> {
        if incarnation != self.incarnation || !self.is_sequencer() || self.failed {
            return Vec::new();
        }
        match self.view.member(member) {
            Some(m) => self.sequence_message(
                now,
                m.id,
                m.tag,
                0,
                AcceptBody::Leave(member),
                TraceCtx::NONE,
            ),
            None => Vec::new(),
        }
    }

    /// Sequencer, leaving: sequences its own Leave once every member
    /// holds every slot assigned here, and until then asks those that
    /// lack one for their ack.
    pub(super) fn leave_once_held(&mut self, now: SimTime) -> Vec<Action> {
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
        actions.extend(self.flush_pending());
        actions
    }
}
