//! The sender's role: the application's `SendToGroup`, the record of each
//! send until it completes, its retries, and the duplicate suppression
//! that makes a retry safe (`MsgidRuns`).

use amoeba_flip::Payload;
use amoeba_sim::SimTime;
use amoeba_telemetry::TraceCtx;

use super::{Action, Instance};
use crate::config::ACK_TIMEOUT;
use crate::error::GroupError;
use crate::msg::{AcceptBody, DoneItem, GroupMsg};
use crate::types::{MemberId, SeqNo};

#[derive(Debug)]
pub(super) struct PendingSend {
    /// Shared payload; retries re-send the same buffer.
    pub(super) data: Payload,
    pub(super) sent_at: SimTime,
    /// Submitter's causal-trace context (NONE when untraced); retries
    /// re-attach it so the span tree stays connected across loss.
    pub(super) trace: TraceCtx,
    /// The slot this member applied the message at, once it has: how a
    /// retry completes after its slot has left the sequencer's history.
    pub(super) applied_at: Option<SeqNo>,
}

/// The msgids of one sender that a member has applied, as disjoint
/// inclusive runs `(lo, hi)` in ascending order. A sender numbers its
/// messages densely, so its set is one run; a send that failed before it
/// was sequenced leaves a hole, and each hole adds at most one run. Only
/// live state: the record of a message is its run, not an entry of its
/// own, and the slot a duplicate was applied at is read from the history.
#[derive(Debug, Default)]
pub(super) struct MsgidRuns(pub(super) Vec<(u64, u64)>);

impl MsgidRuns {
    /// The number of runs that start at or below `msgid`.
    fn starting_by(&self, msgid: u64) -> usize {
        self.0.partition_point(|&(lo, _)| lo <= msgid)
    }

    pub(super) fn contains(&self, msgid: u64) -> bool {
        let i = self.starting_by(msgid);
        i > 0 && self.0[i - 1].1 >= msgid
    }

    /// Adds `msgid`, merging it with the runs it touches.
    pub(super) fn insert(&mut self, msgid: u64) {
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

impl Instance {
    /// `SendToGroup` with the submitter's causal-trace context: begins
    /// sending; completion arrives via [`Action::CompleteSend`]. The
    /// payload is shared from here on: retries, sequencing and delivery
    /// never copy the bytes again. An outgoing `SendReq` carries the
    /// context keyed by msgid, and the sequencer parents its ordering
    /// span to it.
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
        // Register before sequencing: a sequencer's own r=0 send completes
        // during the local apply inside sequence_message.
        self.pending_sends.insert(
            msgid,
            PendingSend {
                data: data.clone(),
                sent_at: now,
                trace,
                applied_at: None,
            },
        );
        let Some(mut actions) = self.transmit(now, msgid, data, trace) else {
            self.pending_sends.remove(&msgid);
            return (
                msgid,
                vec![Action::CompleteSend(msgid, Err(GroupError::NoSequencer))],
            );
        };
        actions.extend(self.flush_pending());
        (msgid, actions)
    }

    /// Sends message `msgid` on its way, first send or retry alike: the
    /// sequencer sequences its own message while its window is open, and
    /// any other member asks the sequencer with a `SendReq`. `None` when
    /// there is no sequencer to ask.
    fn transmit(
        &mut self,
        now: SimTime,
        msgid: u64,
        data: Payload,
        trace: TraceCtx,
    ) -> Option<Vec<Action>> {
        if self.is_sequencer() {
            return Some(if self.window_open() {
                let body = AcceptBody::Data(data);
                self.sequence_message(now, self.me, self.my_tag, msgid, body, trace)
            } else {
                // Retried on the tick, like a remote sender's request.
                self.refuse_for_window()
            });
        }
        let msg = GroupMsg::SendReq {
            instance: self.id,
            incarnation: self.incarnation,
            from: self.me,
            msgid,
            data,
        };
        let to = self.sequencer_host()?;
        let tags = if trace.is_some() {
            vec![(msgid, trace)]
        } else {
            Vec::new()
        };
        Some(vec![Self::traced(tags, Action::Unicast(to, msg))])
    }

    /// Sends pending message `msgid` again, after [`ACK_TIMEOUT`] or a
    /// reset. The sequencer's own message that it has applied already is
    /// answered as any retry is.
    fn resend_pending(&mut self, now: SimTime, msgid: u64, data: Payload) -> Vec<Action> {
        self.stats.send_retries += 1;
        let mut trace = TraceCtx::NONE;
        let mut applied = false;
        if let Some(p) = self.pending_sends.get_mut(&msgid) {
            p.sent_at = now;
            trace = p.trace;
            applied = p.applied_at.is_some();
        }
        if applied && self.is_sequencer() {
            // Sequenced, here or by a sequencer that has since left.
            return self.answer_retry(self.me, msgid);
        }
        self.transmit(now, msgid, data, trace).unwrap_or_default()
    }

    /// Sender retransmission, on the tick: every send unanswered for
    /// [`ACK_TIMEOUT`]. Sorted by msgid so the resend (and thus message)
    /// order does not depend on hash-map iteration order.
    pub(super) fn resend_stale(&mut self, now: SimTime) -> Vec<Action> {
        let mut stale: Vec<(u64, Payload)> = self
            .pending_sends
            .iter()
            .filter(|(_, p)| now.saturating_since(p.sent_at) >= ACK_TIMEOUT)
            .map(|(id, p)| (*id, p.data.clone()))
            .collect();
        stale.sort_unstable_by_key(|(id, _)| *id);
        let mut actions = Vec::new();
        for (msgid, data) in stale {
            actions.append(&mut self.resend_pending(now, msgid, data));
        }
        actions
    }

    /// Re-drives unfinished sends through a new incarnation's sequencer
    /// (duplicate suppression via `seen_msgids` keeps this exactly-once);
    /// one this member has applied is in the agreed prefix and completes.
    /// Sorted by msgid: hash-map iteration order is no contract, and the
    /// re-drive order decides seqno assignment.
    pub(super) fn redrive_pending(&mut self, now: SimTime) -> Vec<Action> {
        let mut pending: Vec<(u64, Payload, Option<SeqNo>)> = self
            .pending_sends
            .iter()
            .map(|(id, p)| (*id, p.data.clone(), p.applied_at))
            .collect();
        pending.sort_unstable_by_key(|(id, ..)| *id);
        let mut actions = Vec::new();
        for (msgid, data, applied_at) in pending {
            if let Some(seq) = applied_at {
                self.pending_sends.remove(&msgid);
                actions.push(Action::CompleteSend(msgid, Ok(seq)));
                continue;
            }
            actions.append(&mut self.resend_pending(now, msgid, data));
        }
        actions
    }

    /// Whether this member has applied `from`'s message `msgid`.
    pub(super) fn seen(&self, from: MemberId, msgid: u64) -> bool {
        self.seen_msgids
            .get(&from)
            .is_some_and(|runs| runs.contains(msgid))
    }

    /// Completes every pending send a batched done notification names
    /// us for; items for other members are ignored.
    pub(super) fn on_done_batch(&mut self, items: Vec<DoneItem>) -> Vec<Action> {
        let mut actions = Vec::new();
        for d in items {
            if d.from == self.me {
                actions.extend(self.on_done(d.msgid, d.seq));
            }
        }
        actions
    }

    /// A `Done` with slot 0 names a slot that has left the sequencer's
    /// history: the send completes at the slot recorded when this member
    /// applied it, and waits for the next answer if it has not yet.
    pub(super) fn on_done(&mut self, msgid: u64, seq: SeqNo) -> Vec<Action> {
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

    /// Fail all pending operations because the instance is being dropped.
    pub fn fail_pending(&mut self) -> Vec<Action> {
        let mut actions = Vec::new();
        for msgid in self.pending_sends.keys().copied().collect::<Vec<_>>() {
            actions.push(Action::CompleteSend(msgid, Err(GroupError::Dead)));
        }
        self.pending_sends.clear();
        actions
    }
}
