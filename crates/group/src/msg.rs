//! Wire messages of the group protocol. Each enum is declared once, in
//! [`wire_enum!`], which derives its codec from the declaration.

use amoeba_flip::wire::{Counted, DecodeError, Wire, WireReader, WireWriter};
use amoeba_flip::{wire_enum, wire_struct, HostAddr, Payload, Port};

use crate::types::{Incarnation, MemberId, MemberInfo, SeqNo, View};

wire_enum! {
    /// The body of a sequenced [`GroupMsg::Accept`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum AcceptBody {
        /// An application message carried inline (PB method). The payload is
        /// shared: sequencing, history buffering and delivery all clone the
        /// same buffer.
        0 => Data(data: Payload),
        /// An application message whose data travelled separately as
        /// [`GroupMsg::BbData`] (BB method); pair by `(from, msgid)`.
        1 => BbRef,
        /// Membership change: a member joined.
        2 => Join(member: MemberInfo),
        /// Membership change: a member left gracefully.
        3 => Leave(member: MemberId),
    }
}

wire_struct! {
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
}

wire_struct! {
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
}

impl Wire for MemberId {
    fn put(&self, w: &mut WireWriter) {
        w.u32(self.0);
    }
    fn get(r: &mut WireReader<'_>) -> Result<MemberId, DecodeError> {
        Ok(MemberId(r.u32("member id")?))
    }
}

/// A `u32` count of at most 4,096 members, then the members in strictly
/// increasing id order: the only order [`View::insert`] builds. A view
/// whose ids repeat or go down is refused, not re-sorted into a view
/// other than the one its bytes claim.
impl Wire for View {
    fn put(&self, w: &mut WireWriter) {
        VIEW.put(w, &self.members, MemberInfo::put);
    }
    fn get(r: &mut WireReader<'_>) -> Result<View, DecodeError> {
        let members: Vec<MemberInfo> = VIEW.get(r, MemberInfo::get)?;
        if members.windows(2).any(|pair| pair[0].id >= pair[1].id) {
            return Err(DecodeError::new("view order"));
        }
        Ok(View { members })
    }
}

const VIEW: Counted = Counted::u32(4096, "view len");

/// Most items one `AcceptBatch` may carry on the wire; the decoder
/// rejects anything larger and the sequencer's `MAX_BATCH` is asserted
/// at compile time to stay within it. The same bound applies to batched
/// done notifications.
pub(crate) const MAX_ACCEPT_BATCH_ITEMS: usize = 4096;

const BATCH: Counted = Counted::u32(MAX_ACCEPT_BATCH_ITEMS as u32, "batch len");

wire_enum! {
    /// Everything that travels on the group port.
    #[derive(Debug, Clone, PartialEq, Eq)]
    #[allow(missing_docs)] // field meanings documented on the protocol engine
    pub enum GroupMsg {
        /// Broadcast: "who runs a group instance for this port?"
        1 => JoinLocate {
            port: Port,
            joiner: HostAddr,
            join_id: u64,
        },
        /// Unicast answer to a locate from any live member.
        2 => JoinReply {
            port: Port,
            instance: u64,
            members: u32,
            sequencer: HostAddr,
            incarnation: Incarnation,
            join_id: u64,
        },
        /// Unicast to the sequencer: "add me".
        3 => JoinRequest {
            instance: u64,
            joiner: HostAddr,
            tag: u64,
            join_id: u64,
        },
        /// Unicast to the joiner: its id, the view, and where the order starts.
        4 => JoinAck {
            instance: u64,
            join_id: u64,
            member_id: MemberId,
            incarnation: Incarnation,
            view: View,
            start_seq: SeqNo,
        },
        /// Unicast to the sequencer: please sequence this message (PB).
        5 => SendReq {
            instance: u64,
            incarnation: Incarnation,
            from: MemberId,
            msgid: u64,
            data: Payload,
        },
        /// Multicast by the sender: the bulk data of a BB-method message.
        6 => BbData {
            instance: u64,
            incarnation: Incarnation,
            from: MemberId,
            msgid: u64,
            data: Payload,
        },
        /// Multicast by the sequencer: slot `seq` of the total order.
        7 => Accept {
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
        19 => AcceptBatch {
            instance: u64,
            incarnation: Incarnation,
            first_seq: SeqNo,
            items: Vec<AcceptItem> as BATCH,
            dones: Vec<DoneItem> as BATCH,
        },
        /// Batched resilience notifications with no accepts to ride on:
        /// unicast to a single sender, or multicast when one packet can
        /// serve several senders at once.
        20 => DoneBatch {
            instance: u64,
            items: Vec<DoneItem> as BATCH,
        },
        /// Unicast to the sequencer: "I hold everything up to and including
        /// `seq`" — a **cumulative** acknowledgement covering every earlier
        /// slot too, so one ack suffices per delivered batch.
        8 => Ack {
            instance: u64,
            incarnation: Incarnation,
            seq: SeqNo,
            member: MemberId,
        },
        /// Unicast to the original sender: the message is r-resilient. `seq`
        /// is 0 when the slot has left the sequencer's history; the sender
        /// then completes at the slot it recorded when it applied the message.
        9 => Done {
            instance: u64,
            msgid: u64,
            seq: SeqNo,
        },
        /// Multicast: "resend accepts in `[from_seq, to_seq]` to `requester`".
        10 => Retrans {
            instance: u64,
            from_seq: SeqNo,
            to_seq: SeqNo,
            requester: HostAddr,
        },
        /// Multicast by the sequencer when idle; carries `next_seq` so members
        /// detect gaps.
        11 => Heartbeat {
            instance: u64,
            incarnation: Incarnation,
            next_seq: SeqNo,
            sequencer: MemberId,
        },
        /// Unicast liveness echo from member to sequencer.
        12 => HeartbeatAck {
            instance: u64,
            incarnation: Incarnation,
            member: MemberId,
        },
        /// Unicast to the sequencer: "remove me".
        13 => LeaveRequest {
            instance: u64,
            incarnation: Incarnation,
            member: MemberId,
        },
        /// Multicast by whoever detects a failure: the group is broken.
        14 => FailNotice {
            instance: u64,
            incarnation: Incarnation,
            suspect: MemberId,
        },
        /// Multicast by a ResetGroup coordinator: please vote.
        15 => ResetInvite {
            instance: u64,
            old_incarnation: Incarnation,
            coord: MemberId,
            coord_host: HostAddr,
            round: u64,
        },
        /// Unicast to the coordinator: "count me in; I hold up to `highest`".
        16 => ResetVote {
            instance: u64,
            old_incarnation: Incarnation,
            round: u64,
            coord: MemberId,
            voter: MemberInfo,
            highest: SeqNo,
        },
        /// Multicast by the coordinator: the new view.
        17 => ResetResult {
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
        18 => ExpelNotice {
            instance: u64,
            current_incarnation: Incarnation,
        },
    }
}

impl GroupMsg {
    /// [`Wire::encode`], for callers that do not import [`Wire`].
    pub fn encode(&self) -> Payload {
        Wire::encode(self)
    }

    /// [`Wire::decode_shared`]: embedded payload bytes come back as
    /// zero-copy slices of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, unknown tags, or trailing
    /// garbage.
    pub fn decode(buf: &Payload) -> Result<GroupMsg, DecodeError> {
        GroupMsg::decode_shared(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_testkit::{check, Gen};

    // Golden bytes of every variant live in the root suite's
    // `tests/wire_formats.rs`.

    fn member(id: u32) -> MemberInfo {
        MemberInfo {
            id: MemberId(id),
            host: HostAddr(id * 10),
            tag: u64::from(id) + 100,
        }
    }

    #[test]
    fn oversized_done_batch_rejected() {
        let mut w = WireWriter::new();
        w.u8(20).u64(1).u32(1_000_000);
        assert!(GroupMsg::decode(&w.finish_payload()).is_err());
    }

    #[test]
    fn oversized_accept_batch_rejected() {
        let mut w = WireWriter::new();
        w.u8(19).u64(1).u64(1).u64(1).u32(1_000_000);
        assert!(GroupMsg::decode(&w.finish_payload()).is_err());
    }

    #[test]
    fn unknown_tag_errors() {
        assert!(GroupMsg::decode(&Payload::from(vec![200])).is_err());
    }

    #[test]
    fn oversized_view_rejected() {
        let mut w = WireWriter::new();
        w.u8(4).u64(1).u64(1).u32(1).u64(1).u32(1_000_000);
        assert!(GroupMsg::decode(&w.finish_payload()).is_err());
    }

    /// A view's bytes name its members in increasing id order. Ids that
    /// repeat or go down used to be re-sorted into a smaller or another
    /// view; now they are refused.
    #[test]
    fn a_view_whose_ids_do_not_increase_is_refused() {
        let view = |ids: &[u32]| {
            let mut w = WireWriter::new();
            w.u32(ids.len() as u32);
            for &id in ids {
                member(id).put(&mut w);
            }
            View::decode(w.as_slice())
        };
        assert_eq!(view(&[0, 1, 2]).map(|v| v.len()), Ok(3));
        assert!(view(&[1, 1, 2]).is_err(), "a repeated id");
        assert!(view(&[0, 2, 1]).is_err(), "ids out of order");
        assert_eq!(view(&[]), Ok(View::default()));
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
