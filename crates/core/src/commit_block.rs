//! The commit block (paper Fig. 4): block 0 of the raw partition.
//!
//! Holds the **configuration vector** (which servers were up in the last
//! configuration this server belonged to, with a majority), the **sequence
//! number** (only updated when a directory is deleted — the case where the
//! update would otherwise leave no trace, §3), the **recovering** flag
//! (set while a multi-object flush or a recovery copy is in progress),
//! and the **epoch**: a generation counter that disambiguates *why* the
//! flag was set. A guarded group-commit flush keeps the current epoch
//! (> 0) while it runs and bumps it on completion; a recovery copy
//! zeroes it. So at boot, `recovering && epoch == 0` means the state
//! mixes two replicas' histories mid-install — worthless, §3's rule —
//! while `recovering && epoch > 0` means the crash hit a flush of
//! *committed, ordered* ops: each stored object's state is
//! individually consistent, so the durable best-effort subset can be
//! salvaged rather than voided, which is what saves the service from
//! total data loss when every replica dies in the same flush window
//! (at the cost of possibly losing the unstored remainder of that one
//! batch — see `DirectoryStateMachine::boot`).

use amoeba_disk::RawPartition;
use amoeba_flip::wire::{DecodeError, Wire, WireReader, WireWriter};
use amoeba_sim::Ctx;

/// In-memory image of the commit block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitBlock {
    /// `config[i]` is true iff server *i* was up in the last configuration
    /// (with a majority) this server was part of.
    pub config: Vec<bool>,
    /// Sequence number recorded on directory deletion.
    pub seqno: u64,
    /// Set while recovery is in progress.
    pub recovering: bool,
    /// Flush-window generation: positive while this replica's state is
    /// its own history (bumped after every guarded flush), zero from the
    /// moment a recovery copy starts until the replica re-enters
    /// service. See the module docs for the boot-time decision table.
    pub epoch: u64,
}

const MAGIC: u32 = 0x4449_5243; // "DIRC"

impl CommitBlock {
    /// A fresh commit block for an `n`-server service where all servers
    /// are presumed up.
    pub fn initial(n: usize) -> CommitBlock {
        CommitBlock {
            config: vec![true; n],
            seqno: 0,
            recovering: false,
            epoch: 1,
        }
    }

    /// Parses a block image of an `n`-server service; `None` for an
    /// uninitialized (all-zero or garbage) block — the state of a
    /// brand-new server. The block's zero padding after the commit block
    /// is ignored.
    pub fn decode(block: &[u8], n: usize) -> Option<CommitBlock> {
        let cb = CommitBlock::get(&mut WireReader::new(block)).ok()?;
        (cb.config.len() == n).then_some(cb)
    }

    /// Reads the commit block from partition block 0.
    pub fn read(partition: &RawPartition, ctx: &Ctx, n: usize) -> Option<CommitBlock> {
        let bytes = partition.read(ctx, 0);
        Self::decode(&bytes, n)
    }

    /// Writes the commit block to partition block 0 (one disk op).
    pub fn write(&self, partition: &RawPartition, ctx: &Ctx) {
        partition.write(ctx, 0, self.encode());
    }

    /// Servers this vector says crashed before us (the initial *mourned
    /// set* of Skeen's algorithm, Fig. 6).
    pub fn mourned(&self) -> Vec<usize> {
        self.config
            .iter()
            .enumerate()
            .filter(|(_, up)| !**up)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The magic, the configuration vector, the seqno, the recovering flag
/// and the epoch.
impl Wire for CommitBlock {
    fn put(&self, w: &mut WireWriter) {
        w.u32(MAGIC);
        self.config.put(w);
        w.u64(self.seqno).boolean(self.recovering).u64(self.epoch);
    }

    fn get(r: &mut WireReader<'_>) -> Result<CommitBlock, DecodeError> {
        if r.u32("magic")? != MAGIC {
            return Err(DecodeError::new("magic"));
        }
        Ok(CommitBlock {
            config: <Vec<bool>>::get(r)?,
            seqno: r.u64("seqno")?,
            recovering: r.boolean("recovering")?,
            epoch: r.u64("epoch")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let cb = CommitBlock {
            config: vec![true, false, true],
            seqno: 99,
            recovering: true,
            epoch: 17,
        };
        let bytes = cb.encode();
        assert_eq!(CommitBlock::decode(&bytes, 3), Some(cb));
    }

    #[test]
    fn initial_epoch_is_positive() {
        // Epoch 0 is reserved for "mid recovery copy"; a fresh server's
        // clean state must never be mistaken for one.
        assert_eq!(CommitBlock::initial(3).epoch, 1);
    }

    #[test]
    fn zero_block_decodes_to_none() {
        assert_eq!(CommitBlock::decode(&[0u8; 64], 3), None);
        assert_eq!(CommitBlock::decode(&[], 3), None);
    }

    #[test]
    fn wrong_server_count_rejected() {
        let cb = CommitBlock::initial(3);
        assert_eq!(CommitBlock::decode(&cb.encode(), 2), None);
    }

    #[test]
    fn mourned_lists_down_servers() {
        let cb = CommitBlock {
            config: vec![true, false, false],
            seqno: 0,
            recovering: false,
            epoch: 1,
        };
        assert_eq!(cb.mourned(), vec![1, 2]);
        assert!(CommitBlock::initial(3).mourned().is_empty());
    }
}
