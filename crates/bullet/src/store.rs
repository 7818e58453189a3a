//! The on-disk state of one Bullet server: inode table and allocation.
//!
//! Crash-persistent (like the platters it abstracts). The real Bullet
//! server lays every file out contiguously and rebuilds its table by
//! scanning the disk at boot; we persist the table alongside the blocks
//! and charge the same disk traffic at the server layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use amoeba_sim::IdMap;

use crate::cap::FileCap;

#[derive(Debug, Clone)]
pub(crate) struct Inode {
    pub start_block: u64,
    pub len_bytes: usize,
    pub check: u64,
}

struct StoreInner {
    inodes: IdMap<u64, Inode>,
    /// Every live file's extent, `(start block, object)` → end block
    /// (exclusive): the overlap check of a wrapped store.
    extents: BTreeMap<(u64, u64), u64>,
    /// The most blocks any file has taken: no live extent that starts
    /// further than this before a block reaches it.
    longest: u64,
    next_object: u64,
    next_block: u64,
    /// The allocator has wrapped: a live file may lie over an older one.
    wrapped: bool,
    nblocks: u64,
    block_size: usize,
    check_seed: u64,
    check_counter: u64,
}

/// The persistent metadata + allocation state of one Bullet server.
#[derive(Clone)]
pub struct BulletStore {
    inner: Rc<RefCell<StoreInner>>,
}

impl std::fmt::Debug for BulletStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let i = self.inner.borrow();
        write!(f, "BulletStore({} files)", i.inodes.len())
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl BulletStore {
    /// Creates an empty store managing `nblocks` blocks of file area.
    pub fn new(nblocks: u64, block_size: usize, check_seed: u64) -> Self {
        BulletStore {
            inner: Rc::new(RefCell::new(StoreInner {
                inodes: IdMap::default(),
                extents: BTreeMap::new(),
                longest: 1,
                next_object: 1,
                next_block: 0,
                wrapped: false,
                nblocks,
                block_size,
                check_seed,
                check_counter: 0,
            })),
        }
    }

    /// Allocates an inode for a file of `len_bytes`, returning its
    /// capability and the starting block, or `None` if the disk is full.
    ///
    /// Allocation is bump-pointer (files are immutable and the simulation
    /// workloads recycle the disk long before it fills; deletions free
    /// the inode and hand the extent back to the disk, see [`Self::remove`],
    /// but never move the pointer, as in log-structured allocation before
    /// cleaning).
    pub(crate) fn allocate(&self, len_bytes: usize) -> Option<(FileCap, u64, u64)> {
        let mut i = self.inner.borrow_mut();
        let nblocks = (len_bytes.max(1)).div_ceil(i.block_size) as u64;
        if i.next_block + nblocks > i.nblocks {
            // Wrap around: a trivial cleaner that reuses the start of the
            // area. Fine for simulation workloads whose live set is small.
            i.next_block = 0;
            i.wrapped = true;
            if nblocks > i.nblocks {
                return None;
            }
        }
        let start = i.next_block;
        i.next_block += nblocks;
        let object = i.next_object;
        i.next_object += 1;
        i.check_counter += 1;
        let check = mix(i.check_seed ^ i.check_counter.wrapping_mul(0xA5A5_A5A5));
        let check = if check == 0 { 1 } else { check };
        i.inodes.insert(
            object,
            Inode {
                start_block: start,
                len_bytes,
                check,
            },
        );
        i.extents.insert((start, object), start + nblocks);
        i.longest = i.longest.max(nblocks);
        Some((FileCap { object, check }, start, nblocks))
    }

    /// Looks up and validates a capability.
    pub(crate) fn lookup(&self, cap: FileCap) -> Option<Inode> {
        let i = self.inner.borrow();
        let inode = i.inodes.get(&cap.object)?;
        if inode.check == cap.check {
            Some(inode.clone())
        } else {
            None
        }
    }

    /// Deletes the file if the capability is valid, and returns the
    /// extent `(start_block, nblocks)` the disk may forget: the file's
    /// own — or an empty one if, the allocator having wrapped around, a
    /// younger live file lies over part of it. Only a wrapped store pays
    /// for that check: a range query over the live extents that start
    /// before the file's end, but no further before its start than the
    /// longest file ever allocated.
    pub(crate) fn remove(&self, cap: FileCap) -> Option<(u64, u64)> {
        let mut i = self.inner.borrow_mut();
        if i.inodes.get(&cap.object)?.check != cap.check {
            return None;
        }
        let start = i.inodes.remove(&cap.object)?.start_block;
        let end = i
            .extents
            .remove(&(start, cap.object))
            .expect("every live file has its extent");
        let reach = start.saturating_sub(i.longest - 1);
        let overlaid = i.wrapped
            && i.extents
                .range((reach, 0)..(end, 0))
                .any(|(_, &live_end)| start < live_end);
        Some((start, if overlaid { 0 } else { end - start }))
    }

    /// Number of live files.
    pub fn file_count(&self) -> usize {
        self.inner.borrow().inodes.len()
    }

    /// Block size used for layout.
    pub fn block_size(&self) -> usize {
        self.inner.borrow().block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_lookup_remove_cycle() {
        let s = BulletStore::new(100, 512, 7);
        let (cap, start, nblocks) = s.allocate(1000).unwrap();
        assert_eq!(nblocks, 2);
        assert_eq!(start, 0);
        let inode = s.lookup(cap).unwrap();
        assert_eq!(inode.len_bytes, 1000);
        assert_eq!(s.remove(cap), Some((0, 2)));
        assert!(s.lookup(cap).is_none());
        assert_eq!(s.remove(cap), None);
    }

    #[test]
    fn wrong_check_rejected() {
        let s = BulletStore::new(100, 512, 7);
        let (cap, _, _) = s.allocate(10).unwrap();
        let forged = FileCap {
            object: cap.object,
            check: cap.check ^ 1,
        };
        assert!(s.lookup(forged).is_none());
        assert_eq!(s.remove(forged), None);
    }

    #[test]
    fn checks_are_unique_per_file() {
        let s = BulletStore::new(1000, 512, 7);
        let a = s.allocate(1).unwrap().0;
        let b = s.allocate(1).unwrap().0;
        assert_ne!(a.check, b.check);
        assert_ne!(a.object, b.object);
    }

    #[test]
    fn zero_length_file_takes_one_block() {
        let s = BulletStore::new(10, 512, 7);
        let (_, _, nblocks) = s.allocate(0).unwrap();
        assert_eq!(nblocks, 1);
    }

    #[test]
    fn allocation_wraps_when_area_exhausted() {
        let s = BulletStore::new(4, 512, 7);
        let _ = s.allocate(512 * 3).unwrap(); // blocks 0..3
        let (_, start, _) = s.allocate(512 * 2).unwrap(); // wraps to 0
        assert_eq!(start, 0);
    }

    #[test]
    fn removing_a_file_a_younger_one_overwrote_frees_no_blocks() {
        let s = BulletStore::new(4, 512, 7);
        let (old, _, _) = s.allocate(512 * 3).unwrap(); // blocks 0..3
        let (young, _, _) = s.allocate(512 * 2).unwrap(); // wraps: blocks 0..2
        assert_eq!(s.remove(old), Some((0, 0)));
        assert_eq!(s.remove(young), Some((0, 2)));
    }

    /// The overlap check as a scan of every live inode.
    fn scanned(s: &BulletStore, cap: FileCap) -> (u64, u64) {
        let i = s.inner.borrow();
        let extent = |f: &Inode| {
            f.start_block..f.start_block + f.len_bytes.max(1).div_ceil(i.block_size) as u64
        };
        let freed = extent(&i.inodes[&cap.object]);
        let overlaid = i.wrapped
            && i.inodes
                .iter()
                .filter(|(&object, _)| object != cap.object)
                .map(|(_, f)| extent(f))
                .any(|live| live.start < freed.end && freed.start < live.end);
        (
            freed.start,
            if overlaid { 0 } else { freed.end - freed.start },
        )
    }

    #[test]
    fn the_extent_index_frees_what_a_scan_of_the_live_files_frees() {
        let s = BulletStore::new(64, 512, 7);
        let mut live = Vec::new();
        let (mut wraps, mut overlaid) = (0, 0);
        for n in 0..5_000u64 {
            let r = mix(n);
            if live.len() > 4 && (r.is_multiple_of(3) || live.len() > 40) {
                let cap = live.swap_remove((r >> 8) as usize % live.len());
                let expected = scanned(&s, cap);
                assert_eq!(s.remove(cap), Some(expected), "delete {n}");
                overlaid += usize::from(expected.1 == 0);
            } else {
                let len = ((r >> 16) % (512 * 9)) as usize;
                let (cap, start, _) = s.allocate(len).expect("fits the area");
                wraps += usize::from(start == 0);
                live.push(cap);
            }
        }
        assert!(wraps > 100, "the allocator wrapped {wraps} times");
        assert!(overlaid > 100, "{overlaid} deletes found a younger file");
    }

    #[test]
    fn file_larger_than_area_fails() {
        let s = BulletStore::new(2, 512, 7);
        assert!(s.allocate(512 * 3).is_none());
    }
}
