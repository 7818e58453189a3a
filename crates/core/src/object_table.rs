//! The on-disk object table: blocks 1..n−1 of the raw partition.
//!
//! Paper §3: "blocks 1 to n−1 contain the capabilities of the Bullet files
//! storing the contents of a directory, including the sequence number of
//! the last change". Each entry also persists the directory's raw check
//! field so client capabilities stay valid across reboots. Updating one
//! entry costs exactly one disk write — the group service's only raw-
//! partition write in the update path.
//!
//! RAM holds only the live entries, keyed by object number; the
//! partition's size bounds the object numbers. A block on disk still
//! encodes every one of its slots, an absent entry as zeroes.

use std::collections::BTreeMap;

use amoeba_bullet::FileCap;
use amoeba_disk::RawPartition;
use amoeba_flip::wire::WireReader;
use amoeba_flip::Payload;
use amoeba_sim::{Ctx, ReplyRx};

/// Bytes reserved per entry on disk.
const ENTRY_BYTES: usize = 40;

/// One object-table entry: where a directory lives and its version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjEntry {
    /// Capability of the Bullet file holding the directory's contents.
    pub file_cap: FileCap,
    /// Sequence number of the directory's last change.
    pub seqno: u64,
    /// The directory's raw check field (server secret).
    pub check: u64,
}

/// The in-memory object table plus its on-disk representation.
#[derive(Debug)]
pub struct ObjectTable {
    /// The live entries by object number, each in `1..=capacity`.
    entries: BTreeMap<u64, ObjEntry>,
    /// The **durable mirror** (group log): exactly what is on disk
    /// right now. With the journal on, a commit is a journal record and
    /// the table blocks are written back later by the checkpointer, so
    /// `entries` (RAM truth) and the disk diverge by every batch since
    /// the last checkpoint; the checkpointer applies its drained acts
    /// to this mirror and encodes table blocks *from it*, never from
    /// `entries`, so a block write can't leak a later batch's state.
    /// `None` with the journal off, where `entries` and the disk never
    /// diverge outside a single flush.
    durable: Option<BTreeMap<u64, ObjEntry>>,
    partition: RawPartition,
    entries_per_block: u64,
    /// Highest usable object number: every slot of blocks 1..n−1.
    capacity: u64,
}

impl ObjectTable {
    /// Creates an empty table over a partition (block 0 is the commit
    /// block; entries start at block 1).
    pub fn new(partition: RawPartition) -> ObjectTable {
        let entries_per_block = (4096 / ENTRY_BYTES) as u64; // assumes 4 KiB blocks
        let capacity = partition.len().saturating_sub(1) * entries_per_block;
        ObjectTable {
            entries: BTreeMap::new(),
            durable: None,
            partition,
            entries_per_block,
            capacity,
        }
    }

    /// Loads the table from disk (used at recovery): one sequential scan.
    pub fn load(partition: RawPartition, ctx: &Ctx) -> ObjectTable {
        let mut t = ObjectTable::new(partition);
        let blocks = t.partition.read_all(ctx);
        for (i, bytes) in blocks.iter().enumerate().skip(1) {
            t.decode_block(i as u64, bytes);
        }
        t
    }

    /// Highest usable object number.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The entry for `object`, if present.
    pub fn get(&self, object: u64) -> Option<ObjEntry> {
        self.entries.get(&object).copied()
    }

    /// Sets the in-memory entry (call [`flush_entry`](Self::flush_entry)
    /// to persist).
    ///
    /// # Panics
    ///
    /// Panics if `object` is out of capacity.
    pub fn set(&mut self, object: u64, entry: ObjEntry) {
        assert!(self.in_range(object), "object out of table capacity");
        self.entries.insert(object, entry);
    }

    /// Clears the in-memory entry.
    pub fn clear(&mut self, object: u64) {
        self.entries.remove(&object);
    }

    /// The next object number a deterministic apply should assign:
    /// one past the highest in use (so replicas agree).
    pub fn next_object(&self) -> u64 {
        self.entries
            .last_key_value()
            .map_or(1, |(&object, _)| object + 1)
    }

    /// Largest sequence number stored with any directory (recovery's
    /// "maximum of all the sequence numbers stored with the directory
    /// files").
    pub fn max_seqno(&self) -> u64 {
        self.entries.values().map(|e| e.seqno).max().unwrap_or(0)
    }

    /// Iterates over (object, entry) pairs in object order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, ObjEntry)> + '_ {
        self.entries.iter().map(|(&object, &e)| (object, e))
    }

    /// Persists the block containing `object` — the paper's single
    /// "write changed object table to disk (commit)" disk operation.
    ///
    /// Blocks until the write completes; must NOT be called while holding
    /// a lock shared with other simulated threads (use
    /// [`flush_begin`](Self::flush_begin) + wait in that case).
    pub fn flush_entry(&self, ctx: &Ctx, object: u64) {
        if let Some(rx) = self.flush_begin(ctx, object) {
            rx.recv(ctx);
        }
    }

    /// Snapshots and enqueues the write of the block containing `object`
    /// without blocking; the caller waits on the returned mailbox after
    /// releasing any borrows.
    pub fn flush_begin<'c>(&self, ctx: &'c Ctx, object: u64) -> Option<ReplyRx<'c, ()>> {
        let block = self.block_of(object)?;
        Some(self.write_block_begin(ctx, &self.entries, block))
    }

    /// Starts (or re-baselines) the durable mirror at the current
    /// in-memory contents. Call when RAM and disk are known to agree:
    /// right after [`load`](Self::load) at boot, or after a snapshot
    /// install persisted every entry.
    pub fn enable_durable_mirror(&mut self) {
        self.durable = Some(self.entries.clone());
    }

    /// Whether the durable mirror is active.
    pub fn mirror_enabled(&self) -> bool {
        self.durable.is_some()
    }

    /// The mirror's entry for `object` — what the disk holds *now*,
    /// which with the journal on may trail [`get`](Self::get) by every
    /// batch since the last checkpoint. Falls back to the RAM entry when the mirror
    /// is off (the two are then never observed apart).
    pub fn durable_get(&self, object: u64) -> Option<ObjEntry> {
        self.durable_or_ram().get(&object).copied()
    }

    /// Sets the mirror's entry (the checkpointer, applying a drained act).
    /// No-op when the mirror is off.
    pub fn durable_set(&mut self, object: u64, entry: ObjEntry) {
        if !self.in_range(object) {
            return;
        }
        if let Some(d) = &mut self.durable {
            d.insert(object, entry);
        }
    }

    /// Clears the mirror's entry. No-op when the mirror is off.
    pub fn durable_clear(&mut self, object: u64) {
        if let Some(d) = &mut self.durable {
            d.remove(&object);
        }
    }

    /// [`flush_begin`](Self::flush_begin), but encoding the block from
    /// the durable mirror (falling back to RAM entries when the mirror
    /// is off) — the checkpointer's block write, which must not leak
    /// the state of batches it has not drained onto disk.
    pub fn durable_flush_begin<'c>(&self, ctx: &'c Ctx, object: u64) -> Option<ReplyRx<'c, ()>> {
        let block = self.block_of(object)?;
        Some(self.write_block_begin(ctx, self.durable_or_ram(), block))
    }

    /// The partition block holding `object`'s entry — lets the
    /// checkpointer dedupe block writes when one drain touches several
    /// objects that share a block.
    pub fn block_of(&self, object: u64) -> Option<u64> {
        self.in_range(object)
            .then(|| (object - 1) / self.entries_per_block + 1)
    }

    /// [`durable_flush_begin`](Self::durable_flush_begin) addressed by
    /// partition block rather than object: encodes `block` from the
    /// durable mirror and enqueues its write. The checkpointer mutates
    /// the mirror for the whole drain first, then writes each touched
    /// block exactly once — a drain of updates to directories
    /// sharing a block costs one disk access instead of one per
    /// directory.
    pub fn durable_flush_block_begin<'c>(
        &self,
        ctx: &'c Ctx,
        block: u64,
    ) -> Option<ReplyRx<'c, ()>> {
        let first = block.checked_sub(1)? * self.entries_per_block + 1;
        self.in_range(first)
            .then(|| self.write_block_begin(ctx, self.durable_or_ram(), block))
    }

    /// The mirror, or the RAM entries when the mirror is off.
    fn durable_or_ram(&self) -> &BTreeMap<u64, ObjEntry> {
        self.durable.as_ref().unwrap_or(&self.entries)
    }

    fn in_range(&self, object: u64) -> bool {
        (1..=self.capacity).contains(&object)
    }

    /// The objects whose entries `block` holds (blocks count from 1).
    fn objects_of(&self, block: u64) -> std::ops::Range<u64> {
        let first = (block - 1) * self.entries_per_block + 1;
        first..(first + self.entries_per_block).min(self.capacity + 1)
    }

    /// Encodes every slot of `block` from `src` into one zeroed buffer
    /// of exactly its length (the platters keep it), writing only the
    /// present entries, so an absent one stays zeroes; then enqueues its
    /// write.
    fn write_block_begin<'c>(
        &self,
        ctx: &'c Ctx,
        src: &BTreeMap<u64, ObjEntry>,
        block: u64,
    ) -> ReplyRx<'c, ()> {
        let objects = self.objects_of(block);
        let len = (objects.end - objects.start) as usize * ENTRY_BYTES;
        let bytes = Payload::zeroed(len, |buf| {
            for (&object, e) in src.range(objects.clone()) {
                let at = (object - objects.start) as usize * ENTRY_BYTES;
                encode_entry(&mut buf[at..at + ENTRY_BYTES], e);
            }
        });
        self.partition.write_begin(ctx, block, bytes)
    }

    fn decode_block(&mut self, block: u64, bytes: &[u8]) {
        for (object, entry) in self.objects_of(block).zip(bytes.chunks(ENTRY_BYTES)) {
            if let Some(e) = decode_entry(entry) {
                self.entries.insert(object, e);
            }
        }
    }
}

/// A present entry: a 1, then 32 bytes of fields.
const PRESENT_BYTES: usize = 33;

/// Writes a present entry into its zeroed slot: a 1, then its four
/// fields, little-endian; the padding stays zero.
fn encode_entry(slot: &mut [u8], e: &ObjEntry) {
    slot[0] = 1;
    let fields = [e.file_cap.object, e.file_cap.check, e.seqno, e.check];
    for (at, field) in slot[1..PRESENT_BYTES].chunks_exact_mut(8).zip(fields) {
        at.copy_from_slice(&field.to_le_bytes());
    }
}

/// Decodes one entry's slot; its padding is never read.
fn decode_entry(slot: &[u8]) -> Option<ObjEntry> {
    let mut r = WireReader::new(slot);
    if r.u8("entry present").ok()? != 1 {
        return None;
    }
    let file_object = r.u64("entry file object").ok()?;
    let file_check = r.u64("entry file check").ok()?;
    let seqno = r.u64("entry seqno").ok()?;
    let check = r.u64("entry check").ok()?;
    Some(ObjEntry {
        file_cap: FileCap {
            object: file_object,
            check: file_check,
        },
        seqno,
        check,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_disk::{DiskParams, DiskServer, VDisk};
    use amoeba_sim::Simulation;

    fn entry(n: u64) -> ObjEntry {
        ObjEntry {
            file_cap: FileCap {
                object: n,
                check: n * 7,
            },
            seqno: n * 100,
            check: n * 13,
        }
    }

    fn with_table<R: 'static>(f: impl FnOnce(&Ctx, RawPartition) -> R + 'static) -> R {
        let mut sim = Simulation::new(1);
        let node = sim.add_node("m");
        let disk = VDisk::new(64, 4096);
        let srv = DiskServer::start(&sim, node, disk, DiskParams::instant());
        let part = RawPartition::new(srv, 0, 16);
        let out = sim.spawn("app", move |ctx| f(ctx, part));
        sim.run();
        out.take().expect("test body finished")
    }

    #[test]
    fn set_get_clear() {
        with_table(|_ctx, part| {
            let mut t = ObjectTable::new(part);
            assert_eq!(t.get(1), None);
            t.set(1, entry(1));
            assert_eq!(t.get(1), Some(entry(1)));
            t.clear(1);
            assert_eq!(t.get(1), None);
        });
    }

    #[test]
    fn next_object_is_one_past_highest() {
        with_table(|_ctx, part| {
            let mut t = ObjectTable::new(part);
            assert_eq!(t.next_object(), 1);
            t.set(1, entry(1));
            t.set(5, entry(5));
            assert_eq!(t.next_object(), 6);
            t.clear(5);
            assert_eq!(t.next_object(), 2);
        });
    }

    #[test]
    fn flush_and_load_round_trip() {
        with_table(|ctx, part| {
            let mut t = ObjectTable::new(part.clone());
            t.set(1, entry(1));
            t.set(150, entry(150)); // second block
            t.flush_entry(ctx, 1);
            t.flush_entry(ctx, 150);
            let loaded = ObjectTable::load(part, ctx);
            assert_eq!(loaded.get(1), Some(entry(1)));
            assert_eq!(loaded.get(150), Some(entry(150)));
            assert_eq!(loaded.get(2), None);
            assert_eq!(loaded.max_seqno(), 15_000);
        });
    }

    #[test]
    fn flush_is_one_disk_write() {
        let mut sim = Simulation::new(1);
        let node = sim.add_node("m");
        let disk = VDisk::new(64, 4096);
        let srv = DiskServer::start(&sim, node, disk.clone(), DiskParams::instant());
        let part = RawPartition::new(srv, 0, 16);
        let out = sim.spawn("app", move |ctx| {
            let mut t = ObjectTable::new(part);
            t.set(3, entry(3));
            let before = disk.stats();
            t.flush_entry(ctx, 3);
            disk.stats().since(&before).writes
        });
        sim.run();
        assert_eq!(out.take(), Some(1));
    }

    #[test]
    fn iter_yields_live_entries() {
        with_table(|_ctx, part| {
            let mut t = ObjectTable::new(part);
            t.set(2, entry(2));
            t.set(4, entry(4));
            let got: Vec<u64> = t.iter().map(|(o, _)| o).collect();
            assert_eq!(got, vec![2, 4]);
        });
    }

    #[test]
    fn durable_mirror_lags_ram_and_block_writes_come_from_it() {
        with_table(|ctx, part| {
            let mut t = ObjectTable::new(part.clone());
            t.set(1, entry(1));
            t.flush_entry(ctx, 1);
            t.enable_durable_mirror();
            // RAM runs ahead (the apply loop): entry 1 mutated, entry 2
            // created — neither change checkpointed yet.
            t.set(1, entry(9));
            t.set(2, entry(2));
            assert_eq!(t.get(1), Some(entry(9)));
            assert_eq!(t.durable_get(1), Some(entry(1)));
            assert_eq!(t.durable_get(2), None);
            // A mirror-sourced block write must persist the *durable*
            // state, not the RAM state running ahead of it.
            if let Some(w) = t.durable_flush_begin(ctx, 1) {
                w.recv(ctx);
            }
            let loaded = ObjectTable::load(part.clone(), ctx);
            assert_eq!(loaded.get(1), Some(entry(1)));
            assert_eq!(loaded.get(2), None);
            // The checkpointer drains the acts into the mirror; the next
            // block write carries them.
            t.durable_set(1, entry(9));
            t.durable_set(2, entry(2));
            if let Some(w) = t.durable_flush_begin(ctx, 2) {
                w.recv(ctx);
            }
            let loaded = ObjectTable::load(part, ctx);
            assert_eq!(loaded.get(1), Some(entry(9)));
            assert_eq!(loaded.get(2), Some(entry(2)));
        });
    }

    #[test]
    fn durable_ops_fall_back_to_ram_without_mirror() {
        with_table(|_ctx, part| {
            let mut t = ObjectTable::new(part);
            t.set(3, entry(3));
            assert!(!t.mirror_enabled());
            assert_eq!(t.durable_get(3), Some(entry(3)));
            t.durable_clear(3); // no-op without a mirror
            assert_eq!(t.get(3), Some(entry(3)));
        });
    }

    /// A slot as the layout spells it: a present entry is a 1 and its
    /// four fields, zero-padded to 40 bytes; an absent one is 40 zeroes.
    fn slot(e: Option<ObjEntry>) -> Vec<u8> {
        let mut want = Vec::new();
        if let Some(e) = e {
            want.push(1);
            for field in [e.file_cap.object, e.file_cap.check, e.seqno, e.check] {
                want.extend(field.to_le_bytes());
            }
        }
        want.resize(ENTRY_BYTES, 0);
        want
    }

    #[test]
    fn a_block_keeps_its_entry_layout() {
        let mut buf = vec![0; 2 * ENTRY_BYTES];
        encode_entry(&mut buf[..ENTRY_BYTES], &entry(1));
        assert_eq!(buf, [slot(Some(entry(1))), slot(None)].concat());
        assert_eq!(&buf[..9], &[1, 1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(decode_entry(&buf[..ENTRY_BYTES]), Some(entry(1)));
        assert_eq!(decode_entry(&buf[ENTRY_BYTES..]), None);
    }

    /// RAM keeps only live entries, but a block on disk holds all of its
    /// slots: each absent one is 40 zeroes, as when the table was dense.
    #[test]
    fn a_block_holds_every_slot() {
        with_table(|ctx, part| {
            let mut t = ObjectTable::new(part.clone());
            t.set(2, entry(2));
            t.set(5, entry(5));
            t.set(103, entry(103)); // the next block's first slot
            t.flush_entry(ctx, 5);
            let want: Vec<u8> = (1..=t.entries_per_block)
                .flat_map(|object| slot(t.get(object)))
                .collect();
            assert_eq!(want.len(), 102 * ENTRY_BYTES);
            assert_eq!(part.read(ctx, 1)[..want.len()], want[..]);
        });
    }

    #[test]
    fn out_of_range_get_is_none() {
        with_table(|_ctx, part| {
            let t = ObjectTable::new(part);
            assert_eq!(t.get(0), None);
            assert_eq!(t.get(10_000_000), None);
        });
    }
}
