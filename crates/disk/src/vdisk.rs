//! The persistent virtual disk: raw block storage that survives machine
//! crashes (only processes die; the platters keep their bits).

use std::cell::RefCell;
use std::rc::Rc;

use amoeba_flip::Payload;
use amoeba_sim::IdMap;

/// Counters of physical operations performed on a disk — the §3.1
/// cost-analysis currency ("disk operations per directory update").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Read operations served.
    pub reads: u64,
    /// Write operations served.
    pub writes: u64,
    /// Blocks transferred in either direction.
    pub blocks: u64,
    /// Accesses that paid a head repositioning (full seek + rotation).
    /// The serving process charges one per request the head was not
    /// already settled on, so seeks per committed batch is the group
    /// log's headline metric: a journaled batch should cost ~1 where
    /// the in-place flush pays at least one per object.
    pub seeks: u64,
}

impl DiskStats {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            blocks: self.blocks.saturating_sub(earlier.blocks),
            seeks: self.seeks.saturating_sub(earlier.seeks),
        }
    }
}

struct VDiskInner {
    /// Each written block as its writer handed it: unpadded, and
    /// sharing the writer's buffer.
    blocks: IdMap<u64, Payload>,
    /// What every unwritten block reads as: one block of zeroes.
    zero: Payload,
    nblocks: u64,
    block_size: usize,
    stats: DiskStats,
}

/// A crash-persistent block device. Cloning shares the same platters.
///
/// `VDisk` itself is *timeless* raw storage; timing and serialization are
/// imposed by the [`DiskServer`](crate::DiskServer) process in front of it.
///
/// A block keeps the [`Payload`] its write handed over — no byte is
/// copied on the way in, and a block shorter than the block size costs
/// only its own length. Reads share blocks too: a full-size block is
/// handed back as stored, a shorter one padded with zeroes to the block
/// size (one copy per read), and an unwritten one is the disk's one
/// zero block.
#[derive(Clone)]
pub struct VDisk {
    inner: Rc<RefCell<VDiskInner>>,
}

impl std::fmt::Debug for VDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let i = self.inner.borrow();
        write!(f, "VDisk({} blocks of {}B)", i.nblocks, i.block_size)
    }
}

impl VDisk {
    /// Creates an empty disk of `nblocks` blocks of `block_size` bytes.
    pub fn new(nblocks: u64, block_size: usize) -> Self {
        VDisk {
            inner: Rc::new(RefCell::new(VDiskInner {
                blocks: IdMap::default(),
                zero: Payload::zeroed(block_size, |_| {}),
                nblocks,
                block_size,
                stats: DiskStats::default(),
            })),
        }
    }

    /// Number of blocks.
    pub fn nblocks(&self) -> u64 {
        self.inner.borrow().nblocks
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.inner.borrow().block_size
    }

    /// Reads a block, zero-padded to the block size. A full-size block
    /// shares the buffer the platters keep, a shorter one is copied once
    /// into a padded block, and an unwritten block is the disk's one
    /// zero block: only a short block costs a copy.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn read_block(&self, block: u64) -> Payload {
        let mut i = self.inner.borrow_mut();
        assert!(block < i.nblocks, "read past end of disk");
        i.stats.reads += 1;
        i.stats.blocks += 1;
        match i.blocks.get(&block) {
            Some(data) if data.len() == i.block_size => data.clone(),
            Some(data) => {
                Payload::zeroed(i.block_size, |buf| buf[..data.len()].copy_from_slice(data))
            }
            None => i.zero.clone(),
        }
    }

    /// Writes a block: the platters keep `data` itself (a `Payload` is
    /// shared, not copied); a shorter block reads back zero-padded.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range or `data` exceeds the block size.
    pub fn write_block(&self, block: u64, data: impl Into<Payload>) {
        let data = data.into();
        let mut i = self.inner.borrow_mut();
        assert!(block < i.nblocks, "write past end of disk");
        assert!(data.len() <= i.block_size, "data larger than block");
        i.stats.writes += 1;
        i.stats.blocks += 1;
        i.blocks.insert(block, data);
    }

    /// Forgets the contents of `count` blocks from `start`: they read as
    /// zeroes again and hold no memory. Bookkeeping for the layer that
    /// owns the blocks (a deleted file's extent), not a disk operation:
    /// it takes no simulated time and is not counted in the stats.
    pub fn discard(&self, start: u64, count: u64) {
        let mut i = self.inner.borrow_mut();
        for block in start..start + count {
            i.blocks.remove(&block);
        }
    }

    /// Blocks currently holding host memory; a probe for tests.
    #[doc(hidden)]
    pub fn resident_blocks(&self) -> usize {
        self.inner.borrow().blocks.len()
    }

    /// Physical-operation counters.
    pub fn stats(&self) -> DiskStats {
        self.inner.borrow().stats
    }

    /// Records one head repositioning (called by the serving process
    /// when it charges a non-settled access).
    pub fn note_seek(&self) {
        self.inner.borrow_mut().stats.seeks += 1;
    }

    /// Wipes the disk (a "head crash" for recovery experiments).
    pub fn destroy_contents(&self) {
        self.inner.borrow_mut().blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = VDisk::new(10, 64);
        assert_eq!(d.read_block(3), vec![0; 64]);
    }

    #[test]
    fn write_then_read_round_trips_with_padding() {
        let d = VDisk::new(10, 8);
        d.write_block(1, &[1, 2, 3]);
        assert_eq!(d.read_block(1), vec![1, 2, 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn reads_share_full_blocks_and_the_one_zero_block() {
        let d = VDisk::new(10, 8);
        let full = Payload::from(vec![5u8; 8]);
        d.write_block(1, full.clone());
        assert_eq!(d.read_block(1).as_ptr(), full.as_ptr());
        let zero = d.read_block(2);
        assert_eq!(zero, vec![0; 8]);
        assert_eq!(d.read_block(7).as_ptr(), zero.as_ptr());
        // A short block is padded anew by each read.
        d.write_block(3, &[1]);
        let (a, b) = (d.read_block(3), d.read_block(3));
        assert_eq!(a, b);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn contents_shared_across_clones() {
        let d = VDisk::new(4, 8);
        let d2 = d.clone();
        d.write_block(0, &[9]);
        assert_eq!(d2.read_block(0)[0], 9);
    }

    #[test]
    fn stats_count_ops() {
        let d = VDisk::new(4, 8);
        d.write_block(0, &[1]);
        d.write_block(1, &[2]);
        let _ = d.read_block(0);
        let s = d.stats();
        assert_eq!((s.reads, s.writes, s.blocks), (1, 2, 3));
    }

    #[test]
    fn discarded_blocks_read_zero_and_are_not_counted() {
        let d = VDisk::new(8, 4);
        for b in 2..6 {
            d.write_block(b, &[7; 4]);
        }
        let before = d.stats();
        d.discard(3, 2);
        assert_eq!(d.stats(), before);
        assert_eq!(d.read_block(2), vec![7; 4]);
        assert_eq!(d.read_block(3), vec![0; 4]);
        assert_eq!(d.read_block(4), vec![0; 4]);
        assert_eq!(d.read_block(5), vec![7; 4]);
        d.discard(0, 8);
        assert_eq!(d.resident_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn out_of_range_read_panics() {
        VDisk::new(2, 8).read_block(2);
    }

    #[test]
    #[should_panic(expected = "larger than block")]
    fn oversized_write_panics() {
        VDisk::new(2, 4).write_block(0, &[0; 5]);
    }

    #[test]
    fn destroy_contents_zeroes_everything() {
        let d = VDisk::new(2, 4);
        d.write_block(0, &[7; 4]);
        d.destroy_contents();
        assert_eq!(d.read_block(0), vec![0; 4]);
    }
}
