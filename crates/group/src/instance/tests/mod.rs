#![cfg(test)]
//! The unit tests of the group engine, one file per role, and what they
//! share: fixed members, message builders and `Trio`, three members on an
//! instant network.

use super::*;
use crate::config::{ACK_TIMEOUT, GAP_TIMEOUT, RESET_VOTE_WINDOW};
use crate::msg::{AcceptItem, MAX_ACCEPT_BATCH_ITEMS};
use amoeba_flip::Payload;
use std::time::Duration;

mod member;
mod reset;
mod send;
mod sequencer;

/// Entry points that only the tests use: a message handled and flushed at
/// once, as a burst of one packet, and an untraced send.
trait Drive {
    fn handle(&mut self, now: SimTime, src: HostAddr, msg: GroupMsg) -> Vec<Action>;
    fn app_send(&mut self, now: SimTime, data: Payload) -> (u64, Vec<Action>);
}

impl Drive for Instance {
    fn handle(&mut self, now: SimTime, src: HostAddr, msg: GroupMsg) -> Vec<Action> {
        let mut actions = self.handle_deferred(now, src, msg);
        actions.extend(self.flush_pending());
        actions
    }

    fn app_send(&mut self, now: SimTime, data: Payload) -> (u64, Vec<Action>) {
        self.app_send_traced(now, data, TraceCtx::NONE)
    }
}

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

fn deliver_count(actions: &[Action]) -> usize {
    actions
        .iter()
        .filter(|a| matches!(a, Action::Deliver(GroupEvent::Message { .. })))
        .count()
}

/// Three members on an instant, lossless network. Member `i` lives
/// on host `i`; member 0 founds the group and sequences.
struct Trio {
    members: Vec<Instance>,
    /// Acks from these hosts are lost.
    mute: Vec<HostAddr>,
    /// Done notifications unicast to these hosts are lost.
    deaf: Vec<HostAddr>,
    /// Accepts multicast to these hosts are lost.
    blind: Vec<HostAddr>,
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
            blind: Vec::new(),
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
            let multicast_accept = to.len() > 1
                && matches!(msg, GroupMsg::Accept { .. } | GroupMsg::AcceptBatch { .. });
            for h in to {
                if multicast_accept && self.blind.contains(&h) {
                    continue;
                }
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
