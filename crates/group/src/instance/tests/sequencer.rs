#![cfg(test)]
//! The sequencer's role: slot assignment, batching of accepts and dones,
//! resilience, the window, joins and the sequencer's leave.

use super::*;
use amoeba_testkit::check;

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
    let [Action::Multicast(GroupMsg::AcceptBatch { items, dones, .. })] = flushed.as_slice() else {
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

/// `resilient_to` picks the (r+1)-th highest held slot without a
/// buffer: the same slot as sorting the holds, over views of 1–5
/// members, every resilience degree and generated holds (ties, and
/// members nothing is known of, included).
#[test]
fn resilient_to_matches_sorting_the_holds() {
    check("resilient_to is the sorted holds' (r+1)-th", 200, |g| {
        for n in 1..=5u32 {
            for r in 0..=n {
                let mut view = View::default();
                for i in 0..n {
                    view.insert(MemberInfo {
                        id: MemberId(i),
                        host: HostAddr(i),
                        tag: 100 + u64::from(i),
                    });
                }
                let port = Port::from_name("g");
                let mut inst =
                    Instance::from_join(1, port, cfg(r), H0, 100, MemberId(0), 0, view, 0, T0);
                inst.highest_contiguous = g.below(8) as SeqNo;
                for i in 1..n {
                    if g.below(4) > 0 {
                        inst.holds.insert(MemberId(i), g.below(8) as SeqNo);
                    }
                }
                let mut held: Vec<SeqNo> = inst
                    .view
                    .members
                    .iter()
                    .filter_map(|m| inst.held_by(m.id))
                    .collect();
                held.sort_unstable_by(|a, b| b.cmp(a));
                let sorted = held.get(inst.effective_r() as usize).copied().unwrap_or(0);
                assert_eq!(inst.resilient_to(), sorted, "n={n} r={r} held={held:?}");
            }
        }
    });
}
