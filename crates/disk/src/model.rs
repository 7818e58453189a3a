//! The disk timing model.

use std::time::Duration;

/// Timing parameters of a late-80s SCSI disk (CDC Wren IV class, as on the
/// paper's Bullet servers).
///
/// Calibrated so one small synchronous write costs ~41 ms end to end —
/// the value implied by the paper's own arithmetic (§4: an NFS
/// append-delete pair at 87 ms is two single-disk-write updates; a group
/// append-delete pair at 184 ms is four disk operations plus messages).
/// The key property for every experiment: **a disk operation costs an
/// order of magnitude more than a packet** (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    /// Average seek time (includes controller overhead).
    pub avg_seek: Duration,
    /// Average rotational latency (half a revolution at 3600 rpm).
    pub avg_rotation: Duration,
    /// Sustained media transfer rate in bytes per second.
    pub transfer_bps: u64,
    /// Block size in bytes.
    pub block_size: usize,
    /// Model the head's position between requests: a write that lands
    /// on the block the head just wrote (or the next one over) skips
    /// the seek and pays only rotation + transfer. This is what makes
    /// a journal append that lands where the previous one ended, and
    /// the checkpointer's back-to-back writes within one disk region,
    /// cheaper than full random accesses, as on a real drive with an
    /// unmoved arm.
    /// `false` (the default) charges every request a full average
    /// access, the original model.
    pub head_aware: bool,
}

impl DiskParams {
    /// A Wren IV-class drive.
    pub fn wren_iv() -> Self {
        DiskParams {
            avg_seek: Duration::from_micros(28_000),
            avg_rotation: Duration::from_micros(8_300),
            transfer_bps: 1_200_000,
            block_size: 4096,
            head_aware: false,
        }
    }

    /// A drive with negligible latency, for protocol-logic tests that do
    /// not care about timing.
    pub fn instant() -> Self {
        DiskParams {
            avg_seek: Duration::from_micros(1),
            avg_rotation: Duration::ZERO,
            transfer_bps: u64::MAX,
            block_size: 4096,
            head_aware: false,
        }
    }

    /// Time for one random access touching `nblocks` consecutive blocks.
    pub fn access_time(&self, nblocks: usize) -> Duration {
        let bytes = (nblocks.max(1) * self.block_size) as u64;
        let transfer_nanos = if self.transfer_bps == u64::MAX {
            0
        } else {
            bytes.saturating_mul(1_000_000_000) / self.transfer_bps.max(1)
        };
        self.avg_seek + self.avg_rotation + Duration::from_nanos(transfer_nanos)
    }

    /// [`access_time`](Self::access_time) for a request the head is
    /// already positioned for (same cylinder as the previous access):
    /// no seek, just rotation + transfer.
    pub fn settled_access_time(&self, nblocks: usize) -> Duration {
        self.access_time(nblocks) - self.avg_seek
    }
}

impl Default for DiskParams {
    fn default() -> Self {
        Self::wren_iv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wren_iv_small_write_is_about_40ms() {
        let p = DiskParams::wren_iv();
        let t = p.access_time(1);
        assert!(
            t >= Duration::from_millis(38) && t <= Duration::from_millis(43),
            "one-block access {t:?}"
        );
    }

    #[test]
    fn access_time_grows_with_blocks() {
        let p = DiskParams::wren_iv();
        assert!(p.access_time(10) > p.access_time(1));
    }

    #[test]
    fn instant_is_fast() {
        let p = DiskParams::instant();
        assert!(p.access_time(100) < Duration::from_millis(1));
    }

    #[test]
    fn zero_blocks_counts_as_one() {
        let p = DiskParams::wren_iv();
        assert_eq!(p.access_time(0), p.access_time(1));
    }

    #[test]
    fn settled_access_skips_the_seek() {
        let p = DiskParams::wren_iv();
        assert_eq!(p.settled_access_time(1) + p.avg_seek, p.access_time(1));
        assert!(p.settled_access_time(1) < Duration::from_millis(15));
    }
}
