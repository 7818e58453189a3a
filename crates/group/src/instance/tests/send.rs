#![cfg(test)]
//! The sender's role: sends, retries, completions and duplicate
//! suppression.

use super::*;

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

/// A retried `SendReq` carries the submitter's trace context like the
/// first one, so the sequencer parents its ordering span to it.
#[test]
fn a_retried_send_req_keeps_its_trace_tag() {
    let mut inst = member_one(0);
    let trace = TraceCtx { trace: 7, span: 9 };
    let (msgid, _) = inst.app_send_traced(T0, vec![1].into(), trace);
    let later = T0 + inst.cfg.ack_timeout + Duration::from_millis(1);
    let actions = inst.tick(later);
    assert!(
        actions.iter().any(|a| matches!(
            a,
            Action::Traced(tags, inner)
                if tags.as_slice() == [(msgid, trace)]
                    && matches!(**inner, Action::Unicast(h, GroupMsg::SendReq { .. }) if h == H0)
        )),
        "{actions:?}"
    );
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
        assert!(m.history.get(slot).is_none(), "slot {slot} left {m:?}");
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
    assert!(trio.members[0].history.get(3).is_none());
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
