#![cfg(test)]
//! Every member's receive path: ordered delivery, acks, duplicates, gap
//! recovery, serving retransmissions and the BB data path.

use super::*;

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

/// Each member keeps the slots from `highest_contiguous − history` up
/// to `highest_contiguous`, `history + 1` of them, and serves the oldest
/// to a member that asks for it.
#[test]
fn a_member_keeps_exactly_the_last_history_plus_one_slots() {
    let mut trio = Trio::new(2, 8);
    for k in 0..20u8 {
        assert!(trio.send(1, vec![k]));
    }
    for m in &trio.members {
        let hc = m.highest_contiguous;
        assert_eq!(hc, 22, "two joins and 20 messages");
        let held: Vec<SeqNo> = (1..=hc).filter(|&s| m.history.get(s).is_some()).collect();
        assert_eq!(held, (hc - 8..=hc).collect::<Vec<_>>(), "{m:?}");
    }
    let served = trio.members[0].on_retrans(14, 14, H2);
    assert!(
        matches!(
            served.as_slice(),
            [Action::Unicast(h, GroupMsg::Accept { seq: 14, .. })] if *h == H2
        ),
        "{served:?}"
    );
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
fn info_reports_buffered() {
    let mut inst = member_one(0);
    let _ = feed(&mut inst, accept(1, 0, 10, vec![1]));
    let info = inst.info();
    assert_eq!(info.highest_contiguous, 1);
    // delivered tracks what was handed to the app queue (the engine
    // delivers immediately, so they coincide here).
    assert_eq!(info.buffered(), 0);
}

/// A singular `Accept` takes the same per-slot path as a one-item
/// `AcceptBatch`: the same actions and the same state after every slot,
/// one past a gap and a duplicate among them, and the same gap request.
#[test]
fn a_singular_accept_is_received_as_a_batch_of_one() {
    for r in [0, 2] {
        let mut single = member_one(r);
        let mut batched = member_one(r);
        let later = T0 + single.cfg.gap_timeout + Duration::from_millis(1);
        // Slot 3 lands past a gap, 1 and 2 close it, and 2 comes again.
        for (seq, msgid) in [(3, 12), (1, 10), (2, 11), (2, 11)] {
            let one_item = GroupMsg::AcceptBatch {
                instance: 1,
                incarnation: 0,
                first_seq: seq,
                items: vec![AcceptItem {
                    from: MemberId(0),
                    from_tag: 100,
                    msgid,
                    body: AcceptBody::Data(vec![seq as u8].into()),
                }],
                dones: Vec::new(),
            };
            let a = feed(&mut single, accept(seq, 0, msgid, vec![seq as u8]));
            let b = feed(&mut batched, one_item);
            let case = format!("r = {r}, slot {seq}");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{case}");
            assert_eq!(single.info(), batched.info(), "{case}");
            if seq == 3 {
                let (a, b) = (single.tick(later), batched.tick(later));
                assert!(!a.is_empty(), "{case}: the gap is asked for");
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{case}");
            }
        }
        assert_eq!(single.info().highest_contiguous, 3, "r = {r}");
    }
}
