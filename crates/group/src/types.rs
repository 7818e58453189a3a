//! Core vocabulary types for group communication.

use std::fmt;

use amoeba_flip::{wire_struct, HostAddr, Payload};

/// Sequence number in the group's total order. Every event — application
/// message or membership change — consumes exactly one.
pub type SeqNo = u64;

/// Group incarnation: bumped by every successful `ResetGroup`.
pub type Incarnation = u64;

/// A member's stable identity within one group instance.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId(pub u32);

impl fmt::Debug for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

wire_struct! {
    /// Everything the group layer knows about one member.
    #[derive(Debug, Copy, Clone, PartialEq, Eq)]
    pub struct MemberInfo {
        /// Stable id within the instance.
        pub id: MemberId,
        /// The member's host address.
        pub host: HostAddr,
        /// Application-supplied tag (the directory service stores its server
        /// number here so recovery can map members to replicas).
        pub tag: u64,
    }
}

/// The current membership view.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct View {
    /// Members sorted by id.
    pub members: Vec<MemberInfo>,
}

impl View {
    /// The member acting as sequencer: the lowest live member id.
    pub fn sequencer(&self) -> Option<MemberInfo> {
        self.members.first().copied()
    }

    /// Looks up a member by id.
    pub fn member(&self, id: MemberId) -> Option<MemberInfo> {
        self.members.iter().find(|m| m.id == id).copied()
    }

    /// Whether `id` is in the view.
    pub fn contains(&self, id: MemberId) -> bool {
        self.member(id).is_some()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Inserts keeping id order (replaces an existing entry with same id).
    pub fn insert(&mut self, m: MemberInfo) {
        self.members.retain(|x| x.id != m.id);
        let pos = self
            .members
            .iter()
            .position(|x| x.id > m.id)
            .unwrap_or(self.members.len());
        self.members.insert(pos, m);
    }

    /// Removes a member by id.
    pub fn remove(&mut self, id: MemberId) {
        self.members.retain(|x| x.id != id);
    }
}

/// Snapshot returned by `GetInfoGroup`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupInfo {
    /// This member's id.
    pub me: MemberId,
    /// Current incarnation.
    pub incarnation: Incarnation,
    /// Current membership view.
    pub view: View,
    /// Highest sequence number buffered *contiguously* by the kernel
    /// (everything up to here can be received without waiting).
    pub highest_contiguous: SeqNo,
    /// Sequence number of the last event handed to the application.
    pub delivered: SeqNo,
    /// Whether the group has failed and needs `ResetGroup`.
    pub failed: bool,
}

/// What a replica checks of its group on every request: the part of
/// [`GroupInfo`] that is copied without the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupStatus {
    /// Whether the group has failed and needs `ResetGroup`.
    pub failed: bool,
    /// Members in the current view.
    pub members: usize,
    /// Highest sequence number buffered *contiguously* by the kernel.
    pub highest_contiguous: SeqNo,
}

impl GroupInfo {
    /// Events buffered by the kernel but not yet received by the app —
    /// the quantity the directory service's read path drains first
    /// (paper §3.1).
    pub fn buffered(&self) -> u64 {
        self.highest_contiguous.saturating_sub(self.delivered)
    }
}

/// An event in the group's total order, as seen by the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupEvent {
    /// An application message.
    Message {
        /// Sequence number (consecutive across all event kinds).
        seq: SeqNo,
        /// Sending member.
        from: MemberId,
        /// Sender's application tag.
        from_tag: u64,
        /// The payload (shared with the wire buffer it arrived in).
        data: Payload,
        /// Ordering-span context assigned by the sequencer when telemetry
        /// is enabled and the submitter was traced; `NONE` otherwise.
        /// Consumers (the RSM apply loop) parent their work to it.
        trace: amoeba_telemetry::TraceCtx,
    },
    /// A member joined (not delivered to the joiner itself).
    Joined {
        /// Sequence number of the view change.
        seq: SeqNo,
        /// The new member.
        member: MemberInfo,
    },
    /// A member left gracefully.
    Left {
        /// Sequence number of the view change.
        seq: SeqNo,
        /// The departed member.
        member: MemberInfo,
    },
    /// The group was rebuilt by `ResetGroup`; members may have been
    /// expelled. Delivered to every surviving member.
    ResetDone {
        /// The new view.
        view: View,
        /// The new incarnation.
        incarnation: Incarnation,
    },
}

impl GroupEvent {
    /// The event's sequence number, if it occupies a slot in the order.
    pub fn seq(&self) -> Option<SeqNo> {
        match self {
            GroupEvent::Message { seq, .. }
            | GroupEvent::Joined { seq, .. }
            | GroupEvent::Left { seq, .. } => Some(*seq),
            GroupEvent::ResetDone { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mi(id: u32) -> MemberInfo {
        MemberInfo {
            id: MemberId(id),
            host: HostAddr(id),
            tag: u64::from(id),
        }
    }

    #[test]
    fn view_keeps_id_order() {
        let mut v = View::default();
        v.insert(mi(5));
        v.insert(mi(1));
        v.insert(mi(3));
        let ids: Vec<u32> = v.members.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert_eq!(v.sequencer().unwrap().id, MemberId(1));
    }

    #[test]
    fn view_insert_replaces_same_id() {
        let mut v = View::default();
        v.insert(mi(1));
        let mut updated = mi(1);
        updated.tag = 99;
        v.insert(updated);
        assert_eq!(v.len(), 1);
        assert_eq!(v.member(MemberId(1)).unwrap().tag, 99);
    }

    #[test]
    fn view_remove() {
        let mut v = View::default();
        v.insert(mi(1));
        v.insert(mi(2));
        v.remove(MemberId(1));
        assert!(!v.contains(MemberId(1)));
        assert_eq!(v.sequencer().unwrap().id, MemberId(2));
    }

    #[test]
    fn buffered_counts_pending_events() {
        let info = GroupInfo {
            me: MemberId(0),
            incarnation: 0,
            view: View::default(),
            highest_contiguous: 10,
            delivered: 7,
            failed: false,
        };
        assert_eq!(info.buffered(), 3);
    }

    #[test]
    fn event_seq_accessor() {
        let e = GroupEvent::Message {
            seq: 4,
            from: MemberId(1),
            from_tag: 0,
            data: Payload::empty(),
            trace: amoeba_telemetry::TraceCtx::NONE,
        };
        assert_eq!(e.seq(), Some(4));
        let r = GroupEvent::ResetDone {
            view: View::default(),
            incarnation: 1,
        };
        assert_eq!(r.seq(), None);
    }
}
