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
