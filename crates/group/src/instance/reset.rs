//! Failure and `ResetGroup`: a member that suspects another fails the
//! group and names the suspect; a coordinator invites votes, announces the
//! new view with the highest prefix any voter holds as its cutoff, and
//! every member installs it once it has caught up to that cutoff.
//!
//! The coordinator announces as soon as every member of the old view has
//! voted or is named dead in that incarnation (`Instance::suspects`), with
//! `min_size` met; at [`RESET_VOTE_WINDOW`] it announces with the votes it
//! has. A suspect heard from again (its invite, its vote, a `FailNotice`
//! from its host) is waited for like any other member. Leaving out a
//! suspect that never votes loses nothing the deadline would keep: at
//! resilience n − 1 every completed send is held by every member, so any
//! voter's prefix covers it.
//!
//! A vote is a promise to one coordinator (the latch, `Instance::voted`).
//! A coordinator that votes for another stands down: it announces nothing,
//! its round fails at the deadline, and it starts no new round while that
//! latch holds. Otherwise two coordinators could each announce a view of
//! the next incarnation with the one member in both.

use amoeba_flip::HostAddr;
use amoeba_sim::{IdMap, SimTime};

use super::{Action, Instance};
use crate::config::RESET_VOTE_WINDOW;
use crate::error::GroupError;
use crate::msg::GroupMsg;
use crate::types::{GroupEvent, Incarnation, MemberId, MemberInfo, SeqNo, View};

#[derive(Debug)]
pub(super) struct ResetCoord {
    round: u64,
    min_size: usize,
    votes: IdMap<MemberId, (MemberInfo, SeqNo)>,
    deadline: SimTime,
    announced: bool,
}

#[derive(Debug)]
pub(super) struct PendingInstall {
    pub(super) new_incarnation: Incarnation,
    view: View,
    pub(super) cutoff: SeqNo,
    pub(super) source: HostAddr,
}

impl Instance {
    /// Marks the group failed, names `suspect` dead and tells everyone.
    pub(super) fn fail_group(&mut self, suspect: MemberId) -> Vec<Action> {
        self.suspects.insert(suspect);
        if self.failed {
            return Vec::new();
        }
        self.failed = true;
        self.stats.failures += 1;
        // Push out any accepts still waiting on a batch flush first, so
        // members hold as much of the order as possible going into reset.
        let mut actions = self.flush_pending();
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

    /// Another member (sent from `src`) names `suspect` dead.
    pub(super) fn on_fail_notice(
        &mut self,
        now: SimTime,
        src: HostAddr,
        incarnation: Incarnation,
        suspect: MemberId,
    ) -> Vec<Action> {
        if incarnation != self.incarnation {
            return Vec::new();
        }
        // Whoever sent the notice is alive, even if it was named.
        let view = &self.view;
        self.suspects
            .retain(|&id| view.member(id).is_none_or(|m| m.host != src));
        if suspect != self.me {
            self.suspects.insert(suspect);
        }
        let mut actions = Vec::new();
        if !self.failed {
            self.failed = true;
            self.stats.failures += 1;
            actions = self.on_failed();
        }
        actions.append(&mut self.close_vote(now));
        actions
    }

    /// A reset this member missed has expelled it: it dissolves.
    pub(super) fn on_expel_notice(&mut self, current_incarnation: Incarnation) -> Vec<Action> {
        if current_incarnation > self.incarnation {
            self.dissolved = true;
            let mut actions = self.on_failed();
            actions.push(Action::Dissolve);
            return actions;
        }
        Vec::new()
    }

    /// `ResetGroup`: become a reset coordinator.
    pub fn app_reset(&mut self, now: SimTime, min_size: usize) -> Vec<Action> {
        if self.dissolved {
            return vec![Action::CompleteReset(Err(GroupError::Dead))];
        }
        let promised_elsewhere = self.live_latch(now).is_some_and(|(c, _)| c != self.me);
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
            deadline: now + RESET_VOTE_WINDOW,
            announced: false,
        });
        if promised_elsewhere {
            // Wait for the result voted for; the round fails at the
            // deadline, and the caller retries.
            return Vec::new();
        }
        // Latch our own vote so lower-priority coordinators are ignored.
        self.voted = Some((self.me, round, now));
        let mut actions = vec![Action::Multicast(GroupMsg::ResetInvite {
            instance: self.id,
            old_incarnation: self.incarnation,
            coord: self.me,
            coord_host: self.my_host,
            round,
        })];
        actions.append(&mut self.close_vote(now));
        actions
    }

    /// Coordinator, on the tick: at the vote deadline the reset is
    /// announced with the votes it has, or fails if they are too few or
    /// this member has since voted for another coordinator.
    pub(super) fn reset_deadline(&mut self, now: SimTime) -> Vec<Action> {
        match &self.reset_coord {
            Some(rc) if rc.announced || now < rc.deadline => Vec::new(),
            Some(_) if self.can_announce() => {
                self.stats.resets_at_deadline += 1;
                self.announce_reset(now)
            }
            Some(_) => {
                self.reset_coord = None;
                vec![Action::CompleteReset(Err(GroupError::ResetFailed))]
            }
            None => Vec::new(),
        }
    }

    pub(super) fn on_reset_invite(
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
        self.suspects.remove(&coord);
        // Vote latching: prefer the lowest member id as coordinator.
        if let Some((c, r)) = self.live_latch(now) {
            if !(coord < c || (coord == c && round >= r)) {
                return Vec::new();
            }
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

    pub(super) fn on_reset_vote(
        &mut self,
        now: SimTime,
        old_incarnation: Incarnation,
        round: u64,
        coord: MemberId,
        voter: MemberInfo,
        highest: SeqNo,
    ) -> Vec<Action> {
        if old_incarnation != self.incarnation {
            return Vec::new();
        }
        self.suspects.remove(&voter.id);
        if coord != self.me {
            return Vec::new();
        }
        match &mut self.reset_coord {
            Some(rc) if rc.round == round && !rc.announced => {
                rc.votes.insert(voter.id, (voter, highest))
            }
            _ => return Vec::new(),
        };
        self.close_vote(now)
    }

    /// Coordinator: announces the reset once every member of the view has
    /// voted or is a suspect; until then the tick announces at the
    /// deadline.
    fn close_vote(&mut self, now: SimTime) -> Vec<Action> {
        let complete = self.reset_coord.as_ref().is_some_and(|rc| {
            self.view
                .members
                .iter()
                .all(|m| rc.votes.contains_key(&m.id) || self.suspects.contains(&m.id))
        });
        if complete && self.can_announce() {
            self.announce_reset(now)
        } else {
            Vec::new()
        }
    }

    /// The coordinator and round this member's vote is promised to, for
    /// two vote windows after it was cast.
    fn live_latch(&self, now: SimTime) -> Option<(MemberId, u64)> {
        self.voted
            .filter(|&(_, _, at)| now.saturating_since(at) <= RESET_VOTE_WINDOW * 2)
            .map(|(c, r, _)| (c, r))
    }

    /// Whether this member's open round may announce: it has `min_size`
    /// votes, and this member's own vote is still promised to it.
    fn can_announce(&self) -> bool {
        self.reset_coord.as_ref().is_some_and(|rc| {
            !rc.announced
                && rc.votes.len() >= rc.min_size
                && self
                    .voted
                    .is_some_and(|(c, r, _)| c == self.me && r == rc.round)
        })
    }

    /// Coordinator: finalize the reset with the votes collected so far
    /// (the caller checked [`can_announce`](Self::can_announce)).
    fn announce_reset(&mut self, now: SimTime) -> Vec<Action> {
        let Some(rc) = &mut self.reset_coord else {
            return Vec::new();
        };
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
        let mut more =
            self.on_reset_result(now, self.incarnation, new_incarnation, view, cutoff, source);
        actions.append(&mut more);
        actions
    }

    pub(super) fn on_reset_result(
        &mut self,
        now: SimTime,
        old_incarnation: Incarnation,
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
    pub(super) fn install_reset(&mut self, now: SimTime) -> Vec<Action> {
        let p = match self.pending_install.take() {
            Some(p) => p,
            None => return Vec::new(),
        };
        debug_assert!(self.highest_contiguous >= p.cutoff);
        // Any accepts still queued under the old incarnation are covered
        // by our own history (we applied them locally); drop the
        // stale multicast rather than leak the old incarnation.
        self.pending_batch.clear();
        // Slots received beyond what the reset agreed on are
        // abandoned old-incarnation slots. They must not survive: the new
        // sequencer will reassign those sequence numbers, and a stale
        // record would shadow the new accept in `insert_accept` and
        // break total order. `highest_seen` likewise resets
        // to the agreed prefix.
        self.history.drop_ahead();
        self.highest_seen = self.highest_contiguous;
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
        self.suspects.clear();
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
        actions.append(&mut self.redrive_pending(now));
        actions
    }
}
