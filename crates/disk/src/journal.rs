//! The group log: a reserved journal region turning every group-commit
//! flush into **one sequential append** (§ "log-then-checkpoint", the
//! classic fix for in-place table writes on the commit path).
//!
//! ## On-disk format
//!
//! The journal owns a [`RawPartition`]. Block 0 is the superblock, the
//! rest is a linear log of self-delimiting records, each framed into
//! one or more consecutive blocks:
//!
//! ```text
//! superblock (block 0):
//!   [0..4)   magic  "AJSB"
//!   [4..12)  start_seq  — seq of the first live record (u64 LE)
//!   [12..20) fnv64 over bytes [0..12)
//!
//! record frame (one per block):
//!   [0..4)   magic  "AJRN"
//!   [4..12)  record seq (u64 LE, globally monotone, never reused)
//!   [12..14) frame index within the record (u16 LE)
//!   [14..16) frames in the record (u16 LE)
//!   [16..20) payload bytes in this frame (u32 LE)
//!   [20..28) fnv64 over bytes [0..20) ++ payload
//!   [28..)   payload slice
//! ```
//!
//! The **commit point is the record's last frame**: recovery scans from
//! block 1 expecting `start_seq`, `start_seq + 1`, …, verifying every
//! frame's magic, seq, index and checksum, and truncates the log at the
//! first frame that fails — a torn tail (crash mid-append) loses only
//! the unacknowledged record being written, never an acknowledged
//! prefix. Record seqs are *globally* monotone across resets (the
//! superblock's `start_seq` only ever grows), so a stale frame left by
//! a previous generation of the log can never parse as a valid
//! continuation of the current one.
//!
//! ## Reset protocol
//!
//! The checkpointer drains the journal's records into real table/Bullet
//! blocks and then calls [`Journal::try_reset`] with the seq it read
//! *before* snapshotting the dirty set: the reset only happens if no
//! record was appended since, so an append racing the checkpoint is
//! never erased — it stays in the log and its boot-time replay is
//! idempotent. A failed reset is not an error; the next checkpoint
//! retries. A reset frees the blocks of the records it disowns
//! ([`RawPartition::discard`]), so a journal holds host memory for its
//! live records only.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use amoeba_flip::wire::{WireReader, WireWriter};
use amoeba_sim::{fnv1a, Ctx, Fnv1a};

use crate::server::RawPartition;

const SUPER_MAGIC: u32 = 0x4153_4A42; // "AJSB"
const FRAME_MAGIC: u32 = 0x414A_524E; // "AJRN"
/// A frame's header: its fields, then their checksum.
const FRAME_HEADER: usize = FRAME_FIELDS + 8;
/// The header fields a frame's checksum covers.
const FRAME_FIELDS: usize = 20;

/// Error returned by [`Journal::append`] when the record does not fit:
/// the caller must checkpoint (drain + reset) and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalFull;

impl std::fmt::Display for JournalFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("journal region is full")
    }
}

impl std::error::Error for JournalFull {}

struct JState {
    /// Seq of the first live record (everything older was checkpointed).
    start_seq: u64,
    /// Seq the next append will carry.
    next_seq: u64,
    /// First free block of the log area (>= 1).
    next_block: u64,
    /// Sim-safe exclusion for append vs reset I/O: the owner holds this
    /// flag across its (blocking) disk conversation instead of a borrow,
    /// which another process would find taken and panic on.
    busy: bool,
}

/// A handle to one column's journal region. Clones share the log and
/// its in-memory cursor; [`Journal::reopen`] produces a handle with a
/// *cold* cursor over the same storage (what a reboot sees) that
/// [`Journal::recover`] re-derives from the platters.
#[derive(Clone)]
pub struct Journal {
    partition: RawPartition,
    block_size: usize,
    state: Rc<RefCell<JState>>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.borrow();
        write!(
            f,
            "Journal(seqs {}..{}, {} blocks used)",
            st.start_seq,
            st.next_seq,
            st.next_block.saturating_sub(1)
        )
    }
}

impl Journal {
    /// A journal over a disk partition (block 0 = superblock). The
    /// cursor starts cold: call [`recover`](Self::recover) before use.
    pub fn disk(partition: RawPartition) -> Journal {
        assert!(partition.len() >= 2, "journal partition too small");
        let block_size = partition.block_size();
        assert!(block_size > FRAME_HEADER, "blocks too small to frame");
        Journal {
            block_size,
            partition,
            state: Rc::new(RefCell::new(JState {
                start_seq: 1,
                next_seq: 1,
                next_block: 1,
                busy: false,
            })),
        }
    }

    /// A fresh handle over the same storage with a cold cursor — what a
    /// reboot of the owning machine produces (RAM state dies with the
    /// crash; the platters keep their bits).
    pub fn reopen(&self) -> Journal {
        Journal {
            partition: self.partition.clone(),
            block_size: self.block_size,
            state: Rc::new(RefCell::new(JState {
                start_seq: 1,
                next_seq: 1,
                next_block: 1,
                busy: false,
            })),
        }
    }

    fn acquire(&self, ctx: &Ctx) {
        loop {
            {
                let mut st = self.state.borrow_mut();
                if !st.busy {
                    st.busy = true;
                    return;
                }
            }
            ctx.sleep(Duration::from_micros(100));
        }
    }

    fn release(&self) {
        self.state.borrow_mut().busy = false;
    }

    /// Scans the log and rebuilds the cursor, returning every live
    /// record's payload in append order. Truncates at the first invalid
    /// frame (torn tail). Initializes the superblock on a virgin
    /// region. Must run before the first append after [`Self::disk`] /
    /// [`Self::reopen`].
    pub fn recover(&self, ctx: &Ctx) -> Vec<Vec<u8>> {
        self.acquire(ctx);
        let out = self.recover_locked(ctx);
        self.release();
        out
    }

    fn recover_locked(&self, ctx: &Ctx) -> Vec<Vec<u8>> {
        let p = &self.partition;
        let sb = p.read(ctx, 0);
        let start_seq = parse_superblock(&sb).unwrap_or_else(|| {
            // Virgin region: stamp an empty log.
            p.write(ctx, 0, encode_superblock(1));
            1
        });
        let mut records = Vec::new();
        let mut expected = start_seq;
        let mut block = 1u64;
        'scan: while block < p.len() {
            let first = p.read(ctx, block);
            let head = match parse_frame(&first, expected, 0) {
                Some(h) => h,
                None => break,
            };
            let total = u64::from(head.total);
            if total == 0 || block + total > p.len() {
                break;
            }
            let mut payload = first[FRAME_HEADER..FRAME_HEADER + head.len].to_vec();
            for i in 1..head.total {
                let b = p.read(ctx, block + u64::from(i));
                match parse_frame(&b, expected, i) {
                    Some(h) => payload.extend_from_slice(&b[FRAME_HEADER..FRAME_HEADER + h.len]),
                    None => break 'scan, // torn tail: truncate here
                }
            }
            records.push(payload);
            expected += 1;
            block += total;
        }
        let mut st = self.state.borrow_mut();
        st.start_seq = start_seq;
        st.next_seq = expected;
        st.next_block = block;
        records
    }

    /// Appends one record as a single sequential run of frames and
    /// returns its seq. The record is durable (commit point passed)
    /// when this returns.
    ///
    /// # Errors
    ///
    /// [`JournalFull`] if the framed record does not fit in the free
    /// tail of the region: checkpoint and retry.
    pub fn append(&self, ctx: &Ctx, payload: &[u8]) -> Result<u64, JournalFull> {
        self.acquire(ctx);
        let r = self.append_locked(ctx, payload);
        self.release();
        r
    }

    fn append_locked(&self, ctx: &Ctx, payload: &[u8]) -> Result<u64, JournalFull> {
        let p = &self.partition;
        let per_frame = self.block_size - FRAME_HEADER;
        let total = payload.len().div_ceil(per_frame).max(1);
        let (seq, start) = {
            let st = self.state.borrow();
            if st.next_block + total as u64 > p.len() {
                return Err(JournalFull);
            }
            (st.next_seq, st.next_block)
        };
        let frames: Vec<Vec<u8>> = (0..total)
            .map(|i| {
                let chunk = &payload[i * per_frame..payload.len().min((i + 1) * per_frame)];
                encode_frame(seq, i as u16, total as u16, chunk)
            })
            .collect();
        p.write_run(ctx, start, frames);
        let mut st = self.state.borrow_mut();
        st.next_seq = seq + 1;
        st.next_block = start + total as u64;
        Ok(seq)
    }

    /// The seq the next append will carry. The checkpointer reads this
    /// *before* snapshotting the dirty set and passes it to
    /// [`try_reset`](Self::try_reset): records appended in between are
    /// then provably not covered and survive the reset.
    pub fn next_seq(&self) -> u64 {
        self.state.borrow().next_seq
    }

    /// Empties the log iff no record was appended since `mark` was read
    /// via [`next_seq`](Self::next_seq). Returns whether the reset
    /// happened. Seqs keep growing across resets.
    pub fn try_reset(&self, ctx: &Ctx, mark: u64) -> bool {
        self.acquire(ctx);
        let ok = {
            let st = self.state.borrow();
            st.next_seq == mark
        };
        if ok {
            self.reset_locked(ctx, mark);
        }
        self.release();
        ok
    }

    /// Unconditionally empties the log (a freshly installed snapshot
    /// re-persisted the whole state, so every record is stale). The
    /// caller must have quiesced appenders.
    pub fn reset(&self, ctx: &Ctx) {
        self.acquire(ctx);
        let mark = self.state.borrow_mut().next_seq;
        self.reset_locked(ctx, mark);
        self.release();
    }

    /// Writes the superblock that disowns every record before `mark`,
    /// then frees the blocks that held them: nothing reads a frame the
    /// superblock disowns, so the platters need not keep it.
    fn reset_locked(&self, ctx: &Ctx, mark: u64) {
        self.partition.write(ctx, 0, encode_superblock(mark));
        let mut st = self.state.borrow_mut();
        self.partition.discard(1, st.next_block - 1);
        st.start_seq = mark;
        st.next_block = 1;
    }

    /// Live records in the log.
    pub fn depth(&self) -> u64 {
        let st = self.state.borrow();
        st.next_seq - st.start_seq
    }

    /// Fill fraction of the region in `[0, 1]` (the checkpoint
    /// high-water signal).
    pub fn fill_fraction(&self) -> f64 {
        let used = self.state.borrow_mut().next_block.saturating_sub(1);
        used as f64 / (self.partition.len() - 1).max(1) as f64
    }
}

struct FrameHead {
    total: u16,
    len: usize,
}

fn encode_superblock(start_seq: u64) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(20);
    w.u32(SUPER_MAGIC).u64(start_seq);
    let crc = fnv1a(w.as_slice());
    w.u64(crc);
    w.finish()
}

/// A superblock is valid when it is exactly what
/// [`encode_superblock`] writes for the seq it claims.
fn parse_superblock(b: &[u8]) -> Option<u64> {
    let mut r = WireReader::new(b);
    r.u32("superblock magic").ok()?;
    let start_seq = r.u64("start seq").ok()?;
    b.starts_with(&encode_superblock(start_seq))
        .then_some(start_seq)
}

fn frame_crc(fields: &[u8], payload: &[u8]) -> u64 {
    Fnv1a::new().write(fields).write(payload).finish()
}

fn encode_frame(seq: u64, idx: u16, total: u16, payload: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(FRAME_HEADER + payload.len());
    w.u32(FRAME_MAGIC)
        .u64(seq)
        .u16(idx)
        .u16(total)
        .u32(payload.len() as u32);
    let crc = frame_crc(w.as_slice(), payload);
    w.u64(crc).raw(payload);
    w.finish()
}

fn parse_frame(b: &[u8], expect_seq: u64, expect_idx: u16) -> Option<FrameHead> {
    let mut r = WireReader::new(b);
    let magic = r.u32("frame magic").ok()?;
    let seq = r.u64("frame seq").ok()?;
    let idx = r.u16("frame index").ok()?;
    let total = r.u16("frames").ok()?;
    let len = r.u32("frame len").ok()? as usize;
    let crc = r.u64("frame checksum").ok()?;
    let payload = b.get(FRAME_HEADER..FRAME_HEADER.checked_add(len)?)?;
    let valid = magic == FRAME_MAGIC
        && seq == expect_seq
        && idx == expect_idx
        && crc == frame_crc(&b[..FRAME_FIELDS], payload);
    valid.then_some(FrameHead { total, len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskParams, DiskServer, VDisk};
    use amoeba_sim::Simulation;
    use amoeba_testkit::{hex, unhex};

    /// The on-disk bytes of a superblock and of one frame of a
    /// two-frame record: a layout change would strand every journal
    /// already written.
    #[test]
    fn a_superblock_and_a_frame_keep_their_bytes() {
        let superblock = "424a53410700000000000000568d52e3bc24bcb0";
        assert_eq!(hex(&encode_superblock(7)), superblock);
        assert_eq!(parse_superblock(&unhex(superblock)), Some(7));
        let frame = "4e524a4105000000000000000100020003000000b32dace5bef6b747616263";
        assert_eq!(hex(&encode_frame(5, 1, 2, b"abc")), frame);
        let mut block = unhex(frame);
        let head = parse_frame(&block, 5, 1).expect("a valid frame");
        assert_eq!((head.total, head.len), (2, 3));
        assert!(parse_frame(&block, 6, 1).is_none(), "another record's seq");
        block[29] ^= 1;
        assert!(parse_frame(&block, 5, 1).is_none(), "a payload bit flipped");
    }

    fn setup(sim: &mut Simulation) -> (Journal, VDisk) {
        let node = sim.add_node("m");
        let disk = VDisk::new(64, 4096);
        let srv = DiskServer::start(sim, node, disk.clone(), DiskParams::instant());
        let part = RawPartition::new(srv, 0, 64);
        (Journal::disk(part), disk)
    }

    #[test]
    fn append_recover_round_trip() {
        let mut sim = Simulation::new(1);
        let (j, _) = setup(&mut sim);
        let j2 = j.clone();
        let out = sim.spawn("w", move |ctx| {
            j2.recover(ctx);
            let a = j2.append(ctx, b"first").unwrap();
            let b = j2.append(ctx, &vec![7u8; 10_000]).unwrap(); // multi-frame
            let c = j2.append(ctx, b"third").unwrap();
            (a, b, c)
        });
        sim.run();
        assert_eq!(out.take(), Some((1, 2, 3)));
        // A cold reopen (reboot) re-derives the same records.
        let r = j.reopen();
        let out = sim.spawn("boot", move |ctx| r.recover(ctx));
        sim.run();
        let recs = out.take().unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0], b"first");
        assert_eq!(recs[1], vec![7u8; 10_000]);
        assert_eq!(recs[2], b"third");
    }

    #[test]
    fn torn_tail_truncates_acked_prefix_survives() {
        let mut sim = Simulation::new(1);
        let (j, disk) = setup(&mut sim);
        let j2 = j.clone();
        sim.spawn("w", move |ctx| {
            j2.recover(ctx);
            j2.append(ctx, b"acked").unwrap();
            j2.append(ctx, &vec![9u8; 9_000]).unwrap(); // frames in blocks 2..4
        });
        sim.run();
        // Simulate a crash mid-append of record 2: corrupt its last
        // frame (in-sim the run write is atomic, so the tear is staged
        // by hand on the platters).
        let mut torn = disk.read_block(3).to_vec();
        torn[40] ^= 0xFF;
        disk.write_block(3, torn);
        let r = j.reopen();
        let r2 = r.clone();
        let out = sim.spawn("boot", move |ctx| {
            let recs = r2.recover(ctx);
            // The log must be appendable again right where it truncated.
            let seq = r2.append(ctx, b"after").unwrap();
            (recs, seq)
        });
        sim.run();
        let (recs, seq) = out.take().unwrap();
        assert_eq!(recs, vec![b"acked".to_vec()]);
        assert_eq!(seq, 2, "the torn record's seq is reused for the rewrite");
        let r3 = r.reopen();
        let out = sim.spawn("boot2", move |ctx| r3.recover(ctx));
        sim.run();
        assert_eq!(
            out.take().unwrap(),
            vec![b"acked".to_vec(), b"after".to_vec()]
        );
    }

    #[test]
    fn try_reset_only_when_unmarked_appends_absent() {
        let mut sim = Simulation::new(1);
        let (j, _) = setup(&mut sim);
        let j2 = j.clone();
        let out = sim.spawn("w", move |ctx| {
            j2.recover(ctx);
            j2.append(ctx, b"a").unwrap();
            let stale_mark = j2.next_seq();
            j2.append(ctx, b"b").unwrap(); // appended after the mark
            let failed = !j2.try_reset(ctx, stale_mark);
            let fresh_mark = j2.next_seq();
            let ok = j2.try_reset(ctx, fresh_mark);
            (failed, ok, j2.depth())
        });
        sim.run();
        assert_eq!(out.take(), Some((true, true, 0)));
        // After the reset, a reboot sees an empty log and new appends
        // keep globally monotone seqs (stale frames never re-parse).
        let r = j.reopen();
        let out = sim.spawn("boot", move |ctx| {
            let recs = r.recover(ctx);
            let seq = r.append(ctx, b"c").unwrap();
            (recs.len(), seq)
        });
        sim.run();
        assert_eq!(out.take(), Some((0, 3)));
    }

    #[test]
    fn full_region_errors_until_reset() {
        let mut sim = Simulation::new(1);
        let node = sim.add_node("m");
        let disk = VDisk::new(4, 4096); // superblock + 3 log blocks
        let srv = DiskServer::start(&sim, node, disk, DiskParams::instant());
        let j = Journal::disk(RawPartition::new(srv, 0, 4));
        let out = sim.spawn("w", move |ctx| {
            j.recover(ctx);
            j.append(ctx, &[1; 100]).unwrap();
            j.append(ctx, &[2; 100]).unwrap();
            j.append(ctx, &[3; 100]).unwrap();
            let full = j.append(ctx, &[4; 100]) == Err(JournalFull);
            let mark = j.next_seq();
            j.try_reset(ctx, mark);
            let ok = j.append(ctx, &[4; 100]).is_ok();
            (full, ok)
        });
        sim.run();
        assert_eq!(out.take(), Some((true, true)));
    }

    #[test]
    fn append_is_one_seek() {
        let mut sim = Simulation::new(1);
        let node = sim.add_node("m");
        let disk = VDisk::new(64, 4096);
        let params = DiskParams {
            head_aware: true,
            ..DiskParams::wren_iv()
        };
        let srv = DiskServer::start(&sim, node, disk.clone(), params);
        let j = Journal::disk(RawPartition::new(srv, 0, 64));
        sim.spawn("w", move |ctx| {
            j.recover(ctx);
            j.append(ctx, &vec![5u8; 9_000]).unwrap();
            j.append(ctx, &vec![6u8; 9_000]).unwrap();
        });
        sim.run();
        // Recovery: superblock read (+1 write on the virgin region),
        // then each multi-frame append is one sequential run — and the
        // second lands where the head already is (settled, no seek).
        let seeks = disk.stats().seeks;
        assert!(seeks <= 3, "journal appends should not seek: {seeks}");
    }
}
