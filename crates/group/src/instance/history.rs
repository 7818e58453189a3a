//! The accepts one member holds, by slot: the applied history it serves
//! to others, and the slots that arrived ahead of a gap.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use super::AcceptRec;
use crate::msg::AcceptBody;
use crate::types::SeqNo;

// A history slot costs one record: the `Option` fits in the body's tag.
// `GroupConfig::history`'s docs count on the size.
const _: () = assert!(std::mem::size_of::<Option<AcceptRec>>() == 64);

/// The accepts one member holds.
///
/// Applied slots enter one at a time, in order, and the last
/// `history + 1` of them (from `highest_contiguous − history` on, where
/// `history` is [`GroupConfig::history`](crate::GroupConfig::history))
/// stay for retransmission and for a reset's catch-up. They live in a
/// ring of exactly `history + 1` records, allocated at the first apply:
/// slot `seq` sits at `seq % (history + 1)`, so applying a slot
/// displaces the one that leaves the history. Slots received above the
/// applied prefix wait in a map until their turn, or until a reset
/// drops them.
pub(super) struct History {
    /// `history + 1`: the ring's length once allocated.
    slots: u64,
    ring: Box<[Option<AcceptRec>]>,
    /// The applied slots held are the `held` up to and including `last`.
    last: SeqNo,
    held: u64,
    /// Received, not yet applied: every key is above `last` (and above
    /// the member's applied prefix, which `last` is whenever `held > 0`).
    ahead: BTreeMap<SeqNo, AcceptRec>,
}

impl History {
    /// An empty history keeping the last `history + 1` applied slots.
    pub(super) fn new(history: u64) -> History {
        History {
            slots: history.saturating_add(1),
            ring: Box::default(),
            last: 0,
            held: 0,
            ahead: BTreeMap::new(),
        }
    }

    /// The lowest applied slot held (`last + 1` while none is).
    fn first(&self) -> SeqNo {
        self.last + 1 - self.held
    }

    fn index(&self, seq: SeqNo) -> usize {
        (seq % self.slots) as usize
    }

    /// Keeps `rec`, received for `seq` above the applied prefix, until
    /// its turn. A slot already held keeps its record, unless this is a
    /// retransmission that resolves the held `BbRef` into inline data
    /// (the server substitutes the bulk bytes, see `on_retrans`): the
    /// upgrade must win or a member whose BbData was lost would stall
    /// on the stale reference forever. Same slot, same message —
    /// everything else about the record is identical.
    pub(super) fn insert(&mut self, seq: SeqNo, rec: AcceptRec) {
        match self.ahead.entry(seq) {
            Entry::Vacant(e) => {
                e.insert(rec);
            }
            Entry::Occupied(mut e) => {
                let existing = e.get();
                if matches!(existing.body, AcceptBody::BbRef)
                    && matches!(rec.body, AcceptBody::Data(_))
                    && existing.from == rec.from
                    && existing.msgid == rec.msgid
                {
                    e.insert(rec);
                }
            }
        }
    }

    /// The record received for `seq`, not yet applied.
    pub(super) fn ahead(&self, seq: SeqNo) -> Option<&AcceptRec> {
        self.ahead.get(&seq)
    }

    /// Applies slot `seq`, the one after the applied prefix, whose record
    /// is [`ahead`](Self::ahead): moves it into the ring and returns the
    /// record it displaces, the slot that leaves the history.
    pub(super) fn apply(&mut self, seq: SeqNo) -> Option<AcceptRec> {
        debug_assert!(
            self.held == 0 || seq == self.last + 1,
            "slot {seq} out of order"
        );
        let rec = self
            .ahead
            .remove(&seq)
            .expect("the slot applied was received");
        if self.ring.is_empty() {
            let slots = usize::try_from(self.slots).expect("a history that fits in memory");
            self.ring = std::iter::repeat_with(|| None).take(slots).collect();
        }
        let i = self.index(seq);
        let left = self.ring[i].replace(rec);
        self.last = seq;
        if left.is_none() {
            self.held += 1;
        }
        left
    }

    /// The record of slot `seq`, applied or not.
    pub(super) fn get(&self, seq: SeqNo) -> Option<&AcceptRec> {
        if (self.first()..=self.last).contains(&seq) {
            self.ring[self.index(seq)].as_ref()
        } else {
            self.ahead.get(&seq)
        }
    }

    /// The applied slots held and their records, newest first.
    pub(super) fn applied_newest_first(&self) -> impl Iterator<Item = (SeqNo, &AcceptRec)> {
        (self.first()..=self.last).rev().map(|seq| {
            let rec = self.ring[self.index(seq)].as_ref();
            (seq, rec.expect("every slot of the applied range is held"))
        })
    }

    /// The lowest slot held, applied or not.
    pub(super) fn first_slot(&self) -> Option<SeqNo> {
        if self.held > 0 {
            Some(self.first())
        } else {
            self.ahead.keys().next().copied()
        }
    }

    /// The highest slot held, applied or not.
    pub(super) fn last_slot(&self) -> Option<SeqNo> {
        match self.ahead.keys().next_back() {
            Some(&seq) => Some(seq),
            None => (self.held > 0).then_some(self.last),
        }
    }

    /// Drops every slot received above the applied prefix.
    pub(super) fn drop_ahead(&mut self) {
        self.ahead.clear();
    }
}
