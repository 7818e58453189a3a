//! Wire messages of the group protocol and their codec.

use amoeba_flip::wire::{DecodeError, WireReader, WireWriter};
use amoeba_flip::{HostAddr, Payload, Port};

use crate::types::{Incarnation, MemberId, MemberInfo, SeqNo, View};

/// The body of a sequenced [`GroupMsg::Accept`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptBody {
    /// An application message carried inline (PB method). The payload is
    /// shared: sequencing, history buffering and delivery all clone the
    /// same buffer.
    Data(Payload),
    /// An application message whose data travelled separately as
    /// [`GroupMsg::BbData`] (BB method); pair by `(from, msgid)`.
    BbRef,
    /// Membership change: a member joined.
    Join(MemberInfo),
    /// Membership change: a member left gracefully.
    Leave(MemberId),
}

/// One slot of a [`GroupMsg::AcceptBatch`]: everything an `Accept`
/// carries except the instance/incarnation/seq shared by the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceptItem {
    /// The original sender.
    pub from: MemberId,
    /// The sender's application tag.
    pub from_tag: u64,
    /// The sender's message id (0 for view changes).
    pub msgid: u64,
    /// The sequenced body.
    pub body: AcceptBody,
}

/// One resilience notification: message `msgid` from member `from` is
/// now held by r+1 members at slot `seq`. Instead of one `Done`
/// unicast per message, the sequencer piggybacks these on the next
/// [`GroupMsg::AcceptBatch`] (or coalesces them per sender into a
/// [`GroupMsg::DoneBatch`]) — batching the reply direction the same
/// way accepts batch the forward direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoneItem {
    /// The member whose send completed (only it acts on the item).
    pub from: MemberId,
    /// Its message id.
    pub msgid: u64,
    /// The slot the message was sequenced at.
    pub seq: SeqNo,
}

/// Everything that travels on the group port.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on the protocol engine
pub enum GroupMsg {
    /// Broadcast: "who runs a group instance for this port?"
    JoinLocate {
        port: Port,
        joiner: HostAddr,
        join_id: u64,
    },
    /// Unicast answer to a locate from any live member.
    JoinReply {
        port: Port,
        instance: u64,
        members: u32,
        sequencer: HostAddr,
        incarnation: Incarnation,
        join_id: u64,
    },
    /// Unicast to the sequencer: "add me".
    JoinRequest {
        instance: u64,
        joiner: HostAddr,
        tag: u64,
        join_id: u64,
    },
    /// Unicast to the joiner: its id, the view, and where the order starts.
    JoinAck {
        instance: u64,
        join_id: u64,
        member_id: MemberId,
        incarnation: Incarnation,
        view: View,
        start_seq: SeqNo,
    },
    /// Unicast to the sequencer: please sequence this message (PB).
    SendReq {
        instance: u64,
        incarnation: Incarnation,
        from: MemberId,
        msgid: u64,
        data: Payload,
    },
    /// Multicast by the sender: the bulk data of a BB-method message.
    BbData {
        instance: u64,
        incarnation: Incarnation,
        from: MemberId,
        msgid: u64,
        data: Payload,
    },
    /// Multicast by the sequencer: slot `seq` of the total order.
    Accept {
        instance: u64,
        incarnation: Incarnation,
        seq: SeqNo,
        from: MemberId,
        from_tag: u64,
        msgid: u64,
        body: AcceptBody,
    },
    /// Multicast by the sequencer: a batch of consecutive slots of the
    /// total order, coalesced into one packet (one network round may
    /// sequence many messages; the paper's amortization argument).
    /// Slot `i` of `items` has sequence number `first_seq + i`.
    /// Pending resilience notifications ride along in `dones` instead
    /// of costing one unicast each; only the member a `DoneItem` names
    /// acts on it. With neither items nor dones (a flush never sends
    /// one), it is the sequencer's unicast request for the receiver's
    /// cumulative `Ack`.
    AcceptBatch {
        instance: u64,
        incarnation: Incarnation,
        first_seq: SeqNo,
        items: Vec<AcceptItem>,
        dones: Vec<DoneItem>,
    },
    /// Batched resilience notifications with no accepts to ride on:
    /// unicast to a single sender, or multicast when one packet can
    /// serve several senders at once.
    DoneBatch { instance: u64, items: Vec<DoneItem> },
    /// Unicast to the sequencer: "I hold everything up to and including
    /// `seq`" — a **cumulative** acknowledgement covering every earlier
    /// slot too, so one ack suffices per delivered batch.
    Ack {
        instance: u64,
        incarnation: Incarnation,
        seq: SeqNo,
        member: MemberId,
    },
    /// Unicast to the original sender: the message is r-resilient. `seq`
    /// is 0 when the slot has left the sequencer's history; the sender
    /// then completes at the slot it recorded when it applied the message.
    Done {
        instance: u64,
        msgid: u64,
        seq: SeqNo,
    },
    /// Multicast: "resend accepts in `[from_seq, to_seq]` to `requester`".
    Retrans {
        instance: u64,
        from_seq: SeqNo,
        to_seq: SeqNo,
        requester: HostAddr,
    },
    /// Multicast by the sequencer when idle; carries `next_seq` so members
    /// detect gaps.
    Heartbeat {
        instance: u64,
        incarnation: Incarnation,
        next_seq: SeqNo,
        sequencer: MemberId,
    },
    /// Unicast liveness echo from member to sequencer.
    HeartbeatAck {
        instance: u64,
        incarnation: Incarnation,
        member: MemberId,
    },
    /// Unicast to the sequencer: "remove me".
    LeaveRequest {
        instance: u64,
        incarnation: Incarnation,
        member: MemberId,
    },
    /// Multicast by whoever detects a failure: the group is broken.
    FailNotice {
        instance: u64,
        incarnation: Incarnation,
        suspect: MemberId,
    },
    /// Multicast by a ResetGroup coordinator: please vote.
    ResetInvite {
        instance: u64,
        old_incarnation: Incarnation,
        coord: MemberId,
        coord_host: HostAddr,
        round: u64,
    },
    /// Unicast to the coordinator: "count me in; I hold up to `highest`".
    ResetVote {
        instance: u64,
        old_incarnation: Incarnation,
        round: u64,
        coord: MemberId,
        voter: MemberInfo,
        highest: SeqNo,
    },
    /// Multicast by the coordinator: the new view.
    ResetResult {
        instance: u64,
        old_incarnation: Incarnation,
        round: u64,
        coord: MemberId,
        new_incarnation: Incarnation,
        view: View,
        cutoff: SeqNo,
        /// Host holding everything up to `cutoff` (the new sequencer).
        source: HostAddr,
    },
    /// Unicast to a stale member: "you are no longer part of this group".
    ExpelNotice {
        instance: u64,
        current_incarnation: Incarnation,
    },
}

fn write_member(w: &mut WireWriter, m: &MemberInfo) {
    w.u32(m.id.0).u32(m.host.0).u64(m.tag);
}

fn read_member(r: &mut WireReader<'_>) -> Result<MemberInfo, DecodeError> {
    Ok(MemberInfo {
        id: MemberId(r.u32("member id")?),
        host: HostAddr(r.u32("member host")?),
        tag: r.u64("member tag")?,
    })
}

fn write_view(w: &mut WireWriter, v: &View) {
    w.u32(v.members.len() as u32);
    for m in &v.members {
        write_member(w, m);
    }
}

fn read_view(r: &mut WireReader<'_>) -> Result<View, DecodeError> {
    let n = r.u32("view len")?;
    if n > 4096 {
        return Err(DecodeError::new("view len"));
    }
    let mut v = View::default();
    for _ in 0..n {
        v.insert(read_member(r)?);
    }
    Ok(v)
}

const T_JOIN_LOCATE: u8 = 1;
const T_JOIN_REPLY: u8 = 2;
const T_JOIN_REQUEST: u8 = 3;
const T_JOIN_ACK: u8 = 4;
const T_SEND_REQ: u8 = 5;
const T_BB_DATA: u8 = 6;
const T_ACCEPT: u8 = 7;
const T_ACK: u8 = 8;
const T_DONE: u8 = 9;
const T_RETRANS: u8 = 10;
const T_HEARTBEAT: u8 = 11;
const T_HEARTBEAT_ACK: u8 = 12;
const T_LEAVE_REQUEST: u8 = 13;
const T_FAIL_NOTICE: u8 = 14;
const T_RESET_INVITE: u8 = 15;
const T_RESET_VOTE: u8 = 16;
const T_RESET_RESULT: u8 = 17;
const T_EXPEL_NOTICE: u8 = 18;
const T_ACCEPT_BATCH: u8 = 19;
const T_DONE_BATCH: u8 = 20;

/// Most items one `AcceptBatch` may carry on the wire; the decoder
/// rejects anything larger and the sequencer's `MAX_BATCH` is asserted
/// at compile time to stay within it. The same bound applies to batched
/// done notifications.
pub(crate) const MAX_ACCEPT_BATCH_ITEMS: usize = 4096;

const DONE_ITEM_LEN: usize = 4 + 8 + 8;

fn write_dones(w: &mut WireWriter, dones: &[DoneItem]) {
    w.u32(dones.len() as u32);
    for d in dones {
        w.u32(d.from.0).u64(d.msgid).u64(d.seq);
    }
}

fn read_dones(r: &mut WireReader<'_>) -> Result<Vec<DoneItem>, DecodeError> {
    let n = r.u32("dones len")? as usize;
    if n > MAX_ACCEPT_BATCH_ITEMS {
        return Err(DecodeError::new("dones len"));
    }
    let mut dones = Vec::with_capacity(n);
    for _ in 0..n {
        dones.push(DoneItem {
            from: MemberId(r.u32("done from")?),
            msgid: r.u64("done msgid")?,
            seq: r.u64("done seq")?,
        });
    }
    Ok(dones)
}

const B_DATA: u8 = 0;
const B_BBREF: u8 = 1;
const B_JOIN: u8 = 2;
const B_LEAVE: u8 = 3;

const MEMBER_LEN: usize = 4 + 4 + 8;

fn view_len(v: &View) -> usize {
    4 + MEMBER_LEN * v.members.len()
}

fn body_len(b: &AcceptBody) -> usize {
    1 + match b {
        AcceptBody::Data(d) => 4 + d.len(),
        AcceptBody::BbRef => 0,
        AcceptBody::Join(_) => MEMBER_LEN,
        AcceptBody::Leave(_) => 4,
    }
}

fn write_body(w: &mut WireWriter, body: &AcceptBody) {
    match body {
        AcceptBody::Data(d) => {
            w.u8(B_DATA).bytes(d);
        }
        AcceptBody::BbRef => {
            w.u8(B_BBREF);
        }
        AcceptBody::Join(m) => {
            w.u8(B_JOIN);
            write_member(w, m);
        }
        AcceptBody::Leave(id) => {
            w.u8(B_LEAVE).u32(id.0);
        }
    }
}

fn read_body(r: &mut WireReader<'_>) -> Result<AcceptBody, DecodeError> {
    Ok(match r.u8("body tag")? {
        B_DATA => AcceptBody::Data(r.payload("body data")?),
        B_BBREF => AcceptBody::BbRef,
        B_JOIN => AcceptBody::Join(read_member(r)?),
        B_LEAVE => AcceptBody::Leave(MemberId(r.u32("leave id")?)),
        _ => return Err(DecodeError::new("body tag")),
    })
}

impl GroupMsg {
    /// Exact encoded size, used as the writer's single-allocation hint.
    fn encoded_len(&self) -> usize {
        match self {
            GroupMsg::JoinLocate { .. } => 1 + 8 + 4 + 8,
            GroupMsg::JoinReply { .. } => 1 + 8 + 8 + 4 + 4 + 8 + 8,
            GroupMsg::JoinRequest { .. } => 1 + 8 + 4 + 8 + 8,
            GroupMsg::JoinAck { view, .. } => 1 + 8 + 8 + 4 + 8 + view_len(view) + 8,
            GroupMsg::SendReq { data, .. } | GroupMsg::BbData { data, .. } => {
                1 + 8 + 8 + 4 + 8 + 4 + data.len()
            }
            GroupMsg::Accept { body, .. } => 1 + 8 + 8 + 8 + 4 + 8 + 8 + body_len(body),
            GroupMsg::AcceptBatch { items, dones, .. } => {
                1 + 8
                    + 8
                    + 8
                    + 4
                    + items
                        .iter()
                        .map(|i| 4 + 8 + 8 + body_len(&i.body))
                        .sum::<usize>()
                    + 4
                    + DONE_ITEM_LEN * dones.len()
            }
            GroupMsg::DoneBatch { items, .. } => 1 + 8 + 4 + DONE_ITEM_LEN * items.len(),
            GroupMsg::Ack { .. } => 1 + 8 + 8 + 8 + 4,
            GroupMsg::Done { .. } => 1 + 8 + 8 + 8,
            GroupMsg::Retrans { .. } => 1 + 8 + 8 + 8 + 4,
            GroupMsg::Heartbeat { .. } => 1 + 8 + 8 + 8 + 4,
            GroupMsg::HeartbeatAck { .. } => 1 + 8 + 8 + 4,
            GroupMsg::LeaveRequest { .. } => 1 + 8 + 8 + 4,
            GroupMsg::FailNotice { .. } => 1 + 8 + 8 + 4,
            GroupMsg::ResetInvite { .. } => 1 + 8 + 8 + 4 + 4 + 8,
            GroupMsg::ResetVote { .. } => 1 + 8 + 8 + 8 + 4 + MEMBER_LEN + 8,
            GroupMsg::ResetResult { view, .. } => 1 + 8 + 8 + 8 + 4 + 8 + view_len(view) + 8 + 4,
            GroupMsg::ExpelNotice { .. } => 1 + 8 + 8,
        }
    }

    /// Encodes into a shared buffer in a single allocation.
    pub fn encode(&self) -> Payload {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        match self {
            GroupMsg::JoinLocate {
                port,
                joiner,
                join_id,
            } => {
                w.u8(T_JOIN_LOCATE)
                    .u64(port.as_raw())
                    .u32(joiner.0)
                    .u64(*join_id);
            }
            GroupMsg::JoinReply {
                port,
                instance,
                members,
                sequencer,
                incarnation,
                join_id,
            } => {
                w.u8(T_JOIN_REPLY)
                    .u64(port.as_raw())
                    .u64(*instance)
                    .u32(*members)
                    .u32(sequencer.0)
                    .u64(*incarnation)
                    .u64(*join_id);
            }
            GroupMsg::JoinRequest {
                instance,
                joiner,
                tag,
                join_id,
            } => {
                w.u8(T_JOIN_REQUEST)
                    .u64(*instance)
                    .u32(joiner.0)
                    .u64(*tag)
                    .u64(*join_id);
            }
            GroupMsg::JoinAck {
                instance,
                join_id,
                member_id,
                incarnation,
                view,
                start_seq,
            } => {
                w.u8(T_JOIN_ACK)
                    .u64(*instance)
                    .u64(*join_id)
                    .u32(member_id.0)
                    .u64(*incarnation);
                write_view(&mut w, view);
                w.u64(*start_seq);
            }
            GroupMsg::SendReq {
                instance,
                incarnation,
                from,
                msgid,
                data,
            } => {
                w.u8(T_SEND_REQ)
                    .u64(*instance)
                    .u64(*incarnation)
                    .u32(from.0)
                    .u64(*msgid)
                    .bytes(data);
            }
            GroupMsg::BbData {
                instance,
                incarnation,
                from,
                msgid,
                data,
            } => {
                w.u8(T_BB_DATA)
                    .u64(*instance)
                    .u64(*incarnation)
                    .u32(from.0)
                    .u64(*msgid)
                    .bytes(data);
            }
            GroupMsg::Accept {
                instance,
                incarnation,
                seq,
                from,
                from_tag,
                msgid,
                body,
            } => {
                w.u8(T_ACCEPT)
                    .u64(*instance)
                    .u64(*incarnation)
                    .u64(*seq)
                    .u32(from.0)
                    .u64(*from_tag)
                    .u64(*msgid);
                write_body(&mut w, body);
            }
            GroupMsg::AcceptBatch {
                instance,
                incarnation,
                first_seq,
                items,
                dones,
            } => {
                w.u8(T_ACCEPT_BATCH)
                    .u64(*instance)
                    .u64(*incarnation)
                    .u64(*first_seq)
                    .u32(items.len() as u32);
                for item in items {
                    w.u32(item.from.0).u64(item.from_tag).u64(item.msgid);
                    write_body(&mut w, &item.body);
                }
                write_dones(&mut w, dones);
            }
            GroupMsg::DoneBatch { instance, items } => {
                w.u8(T_DONE_BATCH).u64(*instance);
                write_dones(&mut w, items);
            }
            GroupMsg::Ack {
                instance,
                incarnation,
                seq,
                member,
            } => {
                w.u8(T_ACK)
                    .u64(*instance)
                    .u64(*incarnation)
                    .u64(*seq)
                    .u32(member.0);
            }
            GroupMsg::Done {
                instance,
                msgid,
                seq,
            } => {
                w.u8(T_DONE).u64(*instance).u64(*msgid).u64(*seq);
            }
            GroupMsg::Retrans {
                instance,
                from_seq,
                to_seq,
                requester,
            } => {
                w.u8(T_RETRANS)
                    .u64(*instance)
                    .u64(*from_seq)
                    .u64(*to_seq)
                    .u32(requester.0);
            }
            GroupMsg::Heartbeat {
                instance,
                incarnation,
                next_seq,
                sequencer,
            } => {
                w.u8(T_HEARTBEAT)
                    .u64(*instance)
                    .u64(*incarnation)
                    .u64(*next_seq)
                    .u32(sequencer.0);
            }
            GroupMsg::HeartbeatAck {
                instance,
                incarnation,
                member,
            } => {
                w.u8(T_HEARTBEAT_ACK)
                    .u64(*instance)
                    .u64(*incarnation)
                    .u32(member.0);
            }
            GroupMsg::LeaveRequest {
                instance,
                incarnation,
                member,
            } => {
                w.u8(T_LEAVE_REQUEST)
                    .u64(*instance)
                    .u64(*incarnation)
                    .u32(member.0);
            }
            GroupMsg::FailNotice {
                instance,
                incarnation,
                suspect,
            } => {
                w.u8(T_FAIL_NOTICE)
                    .u64(*instance)
                    .u64(*incarnation)
                    .u32(suspect.0);
            }
            GroupMsg::ResetInvite {
                instance,
                old_incarnation,
                coord,
                coord_host,
                round,
            } => {
                w.u8(T_RESET_INVITE)
                    .u64(*instance)
                    .u64(*old_incarnation)
                    .u32(coord.0)
                    .u32(coord_host.0)
                    .u64(*round);
            }
            GroupMsg::ResetVote {
                instance,
                old_incarnation,
                round,
                coord,
                voter,
                highest,
            } => {
                w.u8(T_RESET_VOTE)
                    .u64(*instance)
                    .u64(*old_incarnation)
                    .u64(*round)
                    .u32(coord.0);
                write_member(&mut w, voter);
                w.u64(*highest);
            }
            GroupMsg::ResetResult {
                instance,
                old_incarnation,
                round,
                coord,
                new_incarnation,
                view,
                cutoff,
                source,
            } => {
                w.u8(T_RESET_RESULT)
                    .u64(*instance)
                    .u64(*old_incarnation)
                    .u64(*round)
                    .u32(coord.0)
                    .u64(*new_incarnation);
                write_view(&mut w, view);
                w.u64(*cutoff).u32(source.0);
            }
            GroupMsg::ExpelNotice {
                instance,
                current_incarnation,
            } => {
                w.u8(T_EXPEL_NOTICE)
                    .u64(*instance)
                    .u64(*current_incarnation);
            }
        }
        debug_assert_eq!(w.len(), self.encoded_len());
        w.finish_payload()
    }

    /// Decodes from a shared wire buffer; embedded payload bytes come
    /// back as zero-copy slices of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, unknown tags, or trailing
    /// garbage.
    pub fn decode(buf: &Payload) -> Result<GroupMsg, DecodeError> {
        let mut r = WireReader::of(buf);
        let msg = match r.u8("group tag")? {
            T_JOIN_LOCATE => GroupMsg::JoinLocate {
                port: Port::from_raw(r.u64("port")?),
                joiner: HostAddr(r.u32("joiner")?),
                join_id: r.u64("join id")?,
            },
            T_JOIN_REPLY => GroupMsg::JoinReply {
                port: Port::from_raw(r.u64("port")?),
                instance: r.u64("instance")?,
                members: r.u32("members")?,
                sequencer: HostAddr(r.u32("sequencer")?),
                incarnation: r.u64("incarnation")?,
                join_id: r.u64("join id")?,
            },
            T_JOIN_REQUEST => GroupMsg::JoinRequest {
                instance: r.u64("instance")?,
                joiner: HostAddr(r.u32("joiner")?),
                tag: r.u64("tag")?,
                join_id: r.u64("join id")?,
            },
            T_JOIN_ACK => GroupMsg::JoinAck {
                instance: r.u64("instance")?,
                join_id: r.u64("join id")?,
                member_id: MemberId(r.u32("member id")?),
                incarnation: r.u64("incarnation")?,
                view: read_view(&mut r)?,
                start_seq: r.u64("start seq")?,
            },
            T_SEND_REQ => GroupMsg::SendReq {
                instance: r.u64("instance")?,
                incarnation: r.u64("incarnation")?,
                from: MemberId(r.u32("from")?),
                msgid: r.u64("msgid")?,
                data: r.payload("data")?,
            },
            T_BB_DATA => GroupMsg::BbData {
                instance: r.u64("instance")?,
                incarnation: r.u64("incarnation")?,
                from: MemberId(r.u32("from")?),
                msgid: r.u64("msgid")?,
                data: r.payload("data")?,
            },
            T_ACCEPT => {
                let instance = r.u64("instance")?;
                let incarnation = r.u64("incarnation")?;
                let seq = r.u64("seq")?;
                let from = MemberId(r.u32("from")?);
                let from_tag = r.u64("from tag")?;
                let msgid = r.u64("msgid")?;
                let body = read_body(&mut r)?;
                GroupMsg::Accept {
                    instance,
                    incarnation,
                    seq,
                    from,
                    from_tag,
                    msgid,
                    body,
                }
            }
            T_ACCEPT_BATCH => {
                let instance = r.u64("instance")?;
                let incarnation = r.u64("incarnation")?;
                let first_seq = r.u64("first seq")?;
                let n = r.u32("batch len")?;
                if n as usize > MAX_ACCEPT_BATCH_ITEMS {
                    return Err(DecodeError::new("batch len"));
                }
                let mut items = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    items.push(AcceptItem {
                        from: MemberId(r.u32("item from")?),
                        from_tag: r.u64("item from tag")?,
                        msgid: r.u64("item msgid")?,
                        body: read_body(&mut r)?,
                    });
                }
                let dones = read_dones(&mut r)?;
                GroupMsg::AcceptBatch {
                    instance,
                    incarnation,
                    first_seq,
                    items,
                    dones,
                }
            }
            T_DONE_BATCH => GroupMsg::DoneBatch {
                instance: r.u64("instance")?,
                items: read_dones(&mut r)?,
            },
            T_ACK => GroupMsg::Ack {
                instance: r.u64("instance")?,
                incarnation: r.u64("incarnation")?,
                seq: r.u64("seq")?,
                member: MemberId(r.u32("member")?),
            },
            T_DONE => GroupMsg::Done {
                instance: r.u64("instance")?,
                msgid: r.u64("msgid")?,
                seq: r.u64("seq")?,
            },
            T_RETRANS => GroupMsg::Retrans {
                instance: r.u64("instance")?,
                from_seq: r.u64("from seq")?,
                to_seq: r.u64("to seq")?,
                requester: HostAddr(r.u32("requester")?),
            },
            T_HEARTBEAT => GroupMsg::Heartbeat {
                instance: r.u64("instance")?,
                incarnation: r.u64("incarnation")?,
                next_seq: r.u64("next seq")?,
                sequencer: MemberId(r.u32("sequencer")?),
            },
            T_HEARTBEAT_ACK => GroupMsg::HeartbeatAck {
                instance: r.u64("instance")?,
                incarnation: r.u64("incarnation")?,
                member: MemberId(r.u32("member")?),
            },
            T_LEAVE_REQUEST => GroupMsg::LeaveRequest {
                instance: r.u64("instance")?,
                incarnation: r.u64("incarnation")?,
                member: MemberId(r.u32("member")?),
            },
            T_FAIL_NOTICE => GroupMsg::FailNotice {
                instance: r.u64("instance")?,
                incarnation: r.u64("incarnation")?,
                suspect: MemberId(r.u32("suspect")?),
            },
            T_RESET_INVITE => GroupMsg::ResetInvite {
                instance: r.u64("instance")?,
                old_incarnation: r.u64("old incarnation")?,
                coord: MemberId(r.u32("coord")?),
                coord_host: HostAddr(r.u32("coord host")?),
                round: r.u64("round")?,
            },
            T_RESET_VOTE => GroupMsg::ResetVote {
                instance: r.u64("instance")?,
                old_incarnation: r.u64("old incarnation")?,
                round: r.u64("round")?,
                coord: MemberId(r.u32("coord")?),
                voter: read_member(&mut r)?,
                highest: r.u64("highest")?,
            },
            T_RESET_RESULT => GroupMsg::ResetResult {
                instance: r.u64("instance")?,
                old_incarnation: r.u64("old incarnation")?,
                round: r.u64("round")?,
                coord: MemberId(r.u32("coord")?),
                new_incarnation: r.u64("new incarnation")?,
                view: read_view(&mut r)?,
                cutoff: r.u64("cutoff")?,
                source: HostAddr(r.u32("source")?),
            },
            T_EXPEL_NOTICE => GroupMsg::ExpelNotice {
                instance: r.u64("instance")?,
                current_incarnation: r.u64("current incarnation")?,
            },
            _ => return Err(DecodeError::new("group tag")),
        };
        r.expect_end("group trailing")?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_testkit::{check, Gen};

    fn mi(id: u32) -> MemberInfo {
        MemberInfo {
            id: MemberId(id),
            host: HostAddr(id * 10),
            tag: u64::from(id) + 100,
        }
    }

    fn sample_view() -> View {
        let mut v = View::default();
        v.insert(mi(0));
        v.insert(mi(1));
        v.insert(mi(2));
        v
    }

    fn round_trip(m: GroupMsg) {
        let bytes = m.encode();
        assert_eq!(GroupMsg::decode(&bytes).unwrap(), m, "round trip failed");
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(GroupMsg::JoinLocate {
            port: Port::from_name("dir"),
            joiner: HostAddr(1),
            join_id: 7,
        });
        round_trip(GroupMsg::JoinReply {
            port: Port::from_name("dir"),
            instance: 9,
            members: 3,
            sequencer: HostAddr(0),
            incarnation: 2,
            join_id: 7,
        });
        round_trip(GroupMsg::JoinRequest {
            instance: 9,
            joiner: HostAddr(1),
            tag: 5,
            join_id: 7,
        });
        round_trip(GroupMsg::JoinAck {
            instance: 9,
            join_id: 7,
            member_id: MemberId(3),
            incarnation: 2,
            view: sample_view(),
            start_seq: 42,
        });
        round_trip(GroupMsg::SendReq {
            instance: 9,
            incarnation: 2,
            from: MemberId(1),
            msgid: 88,
            data: vec![1, 2, 3].into(),
        });
        round_trip(GroupMsg::BbData {
            instance: 9,
            incarnation: 2,
            from: MemberId(1),
            msgid: 88,
            data: vec![0; 5000].into(),
        });
        for body in [
            AcceptBody::Data(vec![9, 9].into()),
            AcceptBody::BbRef,
            AcceptBody::Join(mi(4)),
            AcceptBody::Leave(MemberId(2)),
        ] {
            round_trip(GroupMsg::Accept {
                instance: 9,
                incarnation: 2,
                seq: 10,
                from: MemberId(1),
                from_tag: 101,
                msgid: 88,
                body,
            });
        }
        round_trip(GroupMsg::Ack {
            instance: 9,
            incarnation: 2,
            seq: 10,
            member: MemberId(2),
        });
        round_trip(GroupMsg::Done {
            instance: 9,
            msgid: 88,
            seq: 10,
        });
        round_trip(GroupMsg::Retrans {
            instance: 9,
            from_seq: 5,
            to_seq: 9,
            requester: HostAddr(1),
        });
        round_trip(GroupMsg::Heartbeat {
            instance: 9,
            incarnation: 2,
            next_seq: 11,
            sequencer: MemberId(0),
        });
        round_trip(GroupMsg::HeartbeatAck {
            instance: 9,
            incarnation: 2,
            member: MemberId(1),
        });
        round_trip(GroupMsg::LeaveRequest {
            instance: 9,
            incarnation: 2,
            member: MemberId(1),
        });
        round_trip(GroupMsg::FailNotice {
            instance: 9,
            incarnation: 2,
            suspect: MemberId(0),
        });
        round_trip(GroupMsg::ResetInvite {
            instance: 9,
            old_incarnation: 2,
            coord: MemberId(1),
            coord_host: HostAddr(10),
            round: 3,
        });
        round_trip(GroupMsg::ResetVote {
            instance: 9,
            old_incarnation: 2,
            round: 3,
            coord: MemberId(1),
            voter: mi(2),
            highest: 40,
        });
        round_trip(GroupMsg::ResetResult {
            instance: 9,
            old_incarnation: 2,
            round: 3,
            coord: MemberId(1),
            new_incarnation: 3,
            view: sample_view(),
            cutoff: 41,
            source: HostAddr(20),
        });
        round_trip(GroupMsg::ExpelNotice {
            instance: 9,
            current_incarnation: 4,
        });
    }

    #[test]
    fn accept_batch_round_trips() {
        round_trip(GroupMsg::AcceptBatch {
            instance: 9,
            incarnation: 2,
            first_seq: 10,
            items: vec![
                AcceptItem {
                    from: MemberId(1),
                    from_tag: 101,
                    msgid: 88,
                    body: AcceptBody::Data(vec![1, 2].into()),
                },
                AcceptItem {
                    from: MemberId(2),
                    from_tag: 102,
                    msgid: 0,
                    body: AcceptBody::Join(mi(4)),
                },
                AcceptItem {
                    from: MemberId(1),
                    from_tag: 101,
                    msgid: 89,
                    body: AcceptBody::BbRef,
                },
            ],
            dones: vec![
                DoneItem {
                    from: MemberId(2),
                    msgid: 44,
                    seq: 8,
                },
                DoneItem {
                    from: MemberId(1),
                    msgid: 87,
                    seq: 9,
                },
            ],
        });
    }

    #[test]
    fn done_batch_round_trips() {
        round_trip(GroupMsg::DoneBatch {
            instance: 9,
            items: vec![
                DoneItem {
                    from: MemberId(1),
                    msgid: 88,
                    seq: 10,
                },
                DoneItem {
                    from: MemberId(2),
                    msgid: 91,
                    seq: 11,
                },
            ],
        });
        round_trip(GroupMsg::DoneBatch {
            instance: 9,
            items: vec![],
        });
    }

    #[test]
    fn oversized_done_batch_rejected() {
        let mut w = WireWriter::new();
        w.u8(T_DONE_BATCH).u64(1).u32(1_000_000);
        assert!(GroupMsg::decode(&w.finish_payload()).is_err());
    }

    #[test]
    fn oversized_accept_batch_rejected() {
        let mut w = WireWriter::new();
        w.u8(T_ACCEPT_BATCH).u64(1).u64(1).u64(1).u32(1_000_000);
        assert!(GroupMsg::decode(&w.finish_payload()).is_err());
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(GroupMsg::decode(&Payload::from(vec![200])).is_err());
    }

    #[test]
    fn oversized_view_rejected() {
        let mut w = WireWriter::new();
        w.u8(T_JOIN_ACK).u64(1).u64(1).u32(1).u64(1).u32(1_000_000);
        assert!(GroupMsg::decode(&w.finish_payload()).is_err());
    }

    #[test]
    fn prop_accept_data_round_trip() {
        check("accept data round trip", 256, |g: &mut Gen| {
            let m = GroupMsg::Accept {
                instance: g.u64(),
                incarnation: g.u64(),
                seq: g.u64(),
                from: MemberId(g.u32()),
                from_tag: g.u64(),
                msgid: g.u64(),
                body: AcceptBody::Data(g.bytes(300).into()),
            };
            assert_eq!(GroupMsg::decode(&m.encode()).unwrap(), m);
        });
    }

    #[test]
    fn prop_decode_never_panics() {
        check("group decode never panics", 256, |g: &mut Gen| {
            let _ = GroupMsg::decode(&g.bytes(128).into());
        });
    }
}
