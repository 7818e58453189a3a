#![cfg(test)]
//! Failure detection and `ResetGroup`.

use super::*;

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
    // The dead member was named, so the coordinator announces when the
    // last live member votes, before any tick.
    let result_actions = m1.handle(T0, H2, vote);
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

/// A `FailNotice` of incarnation 0 naming `suspect`.
fn fail_notice(suspect: u32) -> GroupMsg {
    GroupMsg::FailNotice {
        instance: 1,
        incarnation: 0,
        suspect: MemberId(suspect),
    }
}

/// Member `voter`'s vote (on host `host`) in round 1 of member 1's reset.
fn vote_for_one(voter: u32, host: HostAddr) -> GroupMsg {
    GroupMsg::ResetVote {
        instance: 1,
        old_incarnation: 0,
        round: 1,
        coord: MemberId(1),
        voter: MemberInfo {
            id: MemberId(voter),
            host,
            tag: 100 + u64::from(voter),
        },
        highest: 0,
    }
}

/// The member ids of the view a `ResetResult` among `actions` announces.
fn announced(actions: &[Action]) -> Option<Vec<u32>> {
    actions.iter().find_map(|a| match a {
        Action::Multicast(GroupMsg::ResetResult { view, .. }) => {
            Some(view.members.iter().map(|m| m.id.0).collect())
        }
        _ => None,
    })
}

#[test]
fn a_reset_closes_when_the_last_unsuspected_member_votes() {
    // Member 1's own detector names the silent sequencer.
    let mut m1 = member_one(2);
    let _ = feed(
        &mut m1,
        GroupMsg::Heartbeat {
            instance: 1,
            incarnation: 0,
            next_seq: 1,
            sequencer: MemberId(0),
        },
    );
    let named = T0 + m1.cfg.failure_timeout + Duration::from_millis(50);
    let _ = m1.tick(named);
    assert!(m1.failed);
    assert_eq!(announced(&m1.app_reset(named, 2)), None, "member 2 is live");
    let actions = m1.handle(named, H2, vote_for_one(2, H2));
    assert_eq!(announced(&actions), Some(vec![1, 2]));
    assert_eq!(m1.incarnation, 1);
    assert_eq!(m1.stats.resets_at_deadline, 0);
}

#[test]
fn with_no_suspect_a_reset_waits_for_the_whole_view_or_the_deadline() {
    for all_vote in [true, false] {
        let mut m1 = member_one(2);
        m1.failed = true;
        let _ = m1.app_reset(T0, 2);
        let mut actions = m1.handle(T0, H2, vote_for_one(2, H2));
        actions.extend(m1.tick(T0 + (RESET_VOTE_WINDOW - Duration::from_millis(1))));
        assert_eq!(announced(&actions), None, "member 0 may still vote");
        if all_vote {
            let actions = m1.handle(T0, H0, vote_for_one(0, H0));
            assert_eq!(announced(&actions), Some(vec![0, 1, 2]));
            assert_eq!(m1.stats.resets_at_deadline, 0);
        } else {
            let actions = m1.tick(T0 + RESET_VOTE_WINDOW);
            assert_eq!(announced(&actions), Some(vec![1, 2]));
            assert_eq!(m1.stats.resets_at_deadline, 1);
        }
    }
}

#[test]
fn a_suspect_heard_from_again_is_waited_for() {
    // Member 0 names member 2; then member 2 shows it is alive, by its
    // own invite (which member 1, the better coordinator, does not
    // answer) or by a `FailNotice` from its host.
    let invite = GroupMsg::ResetInvite {
        instance: 1,
        old_incarnation: 0,
        coord: MemberId(2),
        coord_host: H2,
        round: 1,
    };
    for heard in [invite, fail_notice(0)] {
        let mut m1 = member_one(2);
        let _ = m1.handle(T0, H0, fail_notice(2));
        assert!(m1.failed);
        let _ = m1.app_reset(T0, 2);
        let _ = m1.handle(T0, H2, heard);
        let actions = m1.handle(T0, H0, vote_for_one(0, H0));
        assert_eq!(announced(&actions), None, "member 2 was heard from");
        let actions = m1.tick(T0 + RESET_VOTE_WINDOW);
        assert_eq!(announced(&actions), Some(vec![0, 1]));
        assert_eq!(m1.stats.resets_at_deadline, 1);
    }
}

#[test]
fn a_coordinator_that_votes_for_a_better_one_stands_down() {
    // Member 1 coordinates and has member 2's vote when member 0 invites:
    // it votes for member 0, so its own round must not announce a view
    // with member 1 in it beside member 0's.
    let mut m1 = member_one(2);
    let _ = m1.handle(T0, H2, fail_notice(0));
    let _ = m1.app_reset(T0, 2);
    let invite = GroupMsg::ResetInvite {
        instance: 1,
        old_incarnation: 0,
        coord: MemberId(0),
        coord_host: H0,
        round: 1,
    };
    let actions = m1.handle(T0, H0, invite);
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Unicast(
            H0,
            GroupMsg::ResetVote {
                coord: MemberId(0),
                ..
            }
        )
    )));
    let mut actions = m1.handle(T0, H2, vote_for_one(2, H2));
    actions.extend(m1.tick(T0 + RESET_VOTE_WINDOW));
    assert_eq!(announced(&actions), None);
    assert!(actions
        .iter()
        .any(|a| matches!(a, Action::CompleteReset(Err(GroupError::ResetFailed)))));
    // While the vote for member 0 holds, a retry invites no one.
    let retry = m1.app_reset(T0 + RESET_VOTE_WINDOW, 2);
    assert!(!retry
        .iter()
        .any(|a| matches!(a, Action::Multicast(GroupMsg::ResetInvite { .. }))));
}

#[test]
fn a_suspects_vote_before_the_announcement_puts_it_in_the_view() {
    let mut m1 = member_one(2);
    let _ = m1.handle(T0, H2, fail_notice(0));
    let _ = m1.app_reset(T0, 2);
    let actions = m1.handle(T0, H0, vote_for_one(0, H0));
    assert_eq!(announced(&actions), None, "member 2 has not voted");
    let actions = m1.handle(T0, H2, vote_for_one(2, H2));
    assert_eq!(announced(&actions), Some(vec![0, 1, 2]));
}

#[test]
fn a_notice_naming_the_last_silent_member_closes_the_vote() {
    // Votes are being collected when a `FailNotice` names the one member
    // that has not voted.
    let mut m1 = member_one(2);
    m1.failed = true;
    let _ = m1.app_reset(T0, 2);
    assert_eq!(announced(&m1.handle(T0, H2, vote_for_one(2, H2))), None);
    let actions = m1.handle(T0, H2, fail_notice(0));
    assert_eq!(announced(&actions), Some(vec![1, 2]));
}

#[test]
fn reset_without_quorum_fails_at_deadline() {
    let mut m1 = member_one(2);
    m1.failed = true;
    let _ = m1.app_reset(T0, 2); // needs 2 votes, gets only itself
    let late = T0 + RESET_VOTE_WINDOW + Duration::from_millis(1);
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
    result_actions.extend(m1.tick(T0 + RESET_VOTE_WINDOW + Duration::from_millis(1)));
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
