//! Service-wide configuration and performance parameters.

use std::time::Duration;

use amoeba_disk::{DiskServer, Journal, Nvram, RawPartition};
use amoeba_flip::Port;

/// How updates reach stable storage, with the parameters only it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageKind {
    /// Synchronous disk writes in place, in the update critical path
    /// (paper §3.1).
    InPlace,
    /// The group log: each flush is one sequential journal append, and
    /// a background checkpointer drains it into place (see
    /// `dir/storage/journal.rs`).
    Journal {
        /// Disk blocks carved for the journal, after the table partition.
        blocks: u64,
        /// How often the background checkpointer drains the journal.
        checkpoint_interval: Duration,
    },
    /// Log updates to NVRAM, apply them to disk lazily (paper §4.1):
    /// "when the server is idle or the NVRAM is full".
    Nvram {
        /// NVRAM fill fraction that triggers a flush after a batch.
        flush_threshold: f64,
        /// How long the group must be quiet before the log is applied
        /// to disk: the replica driver runs the flush as the machine's
        /// [`WhenIdle`](amoeba_rsm::Upkeep::WhenIdle) upkeep.
        idle_flush: Duration,
    },
}

impl StorageKind {
    /// The group log with its default region and checkpoint interval.
    pub fn journal() -> StorageKind {
        StorageKind::Journal {
            blocks: 2048,
            checkpoint_interval: Duration::from_millis(250),
        }
    }

    /// The NVRAM log with its default flush threshold and idle period.
    pub fn nvram() -> StorageKind {
        StorageKind::Nvram {
            flush_threshold: 0.75,
            idle_flush: Duration::from_millis(200),
        }
    }

    /// Disk blocks this kind carves out for its own region, between a
    /// column's table partition and its Bullet store.
    pub(crate) fn carved_blocks(self) -> u64 {
        match self {
            StorageKind::Journal { blocks, .. } => blocks,
            _ => 0,
        }
    }

    /// Opens a column's commit path over its devices: a journal over the
    /// [`carved_blocks`](Self::carved_blocks) from block `base` of
    /// `disk`, cold on every (re)start (`boot` recovers its cursor and
    /// records), or the machine's `nvram`, which survives a crash.
    pub(crate) fn open(self, disk: &DiskServer, base: u64, nvram: &Nvram) -> Storage {
        match self {
            StorageKind::InPlace => Storage::InPlace,
            StorageKind::Journal {
                blocks,
                checkpoint_interval,
            } => Storage::Journal {
                journal: Journal::disk(RawPartition::new(disk.clone(), base, blocks)),
                checkpoint_interval,
            },
            StorageKind::Nvram {
                flush_threshold,
                idle_flush,
            } => Storage::Nvram {
                nvram: nvram.clone(),
                flush_threshold,
                idle_flush,
            },
        }
    }
}

/// One replica's commit path with its device, opened per group column
/// from a [`StorageKind`]: the one value every storage hook of the
/// directory machine matches.
#[derive(Debug, Clone)]
pub enum Storage {
    /// [`StorageKind::InPlace`]: the table partition and Bullet only.
    InPlace,
    /// [`StorageKind::Journal`], over its carved journal region.
    Journal {
        /// The journal region.
        journal: Journal,
        /// How often the background checkpointer drains it.
        checkpoint_interval: Duration,
    },
    /// [`StorageKind::Nvram`], over the machine's NVRAM.
    Nvram {
        /// The machine's NVRAM.
        nvram: Nvram,
        /// Fill fraction that triggers a flush after a batch.
        flush_threshold: f64,
        /// Quiet time after which the log is applied to disk.
        idle_flush: Duration,
    },
}

/// Static configuration of one directory service *shard* (the whole
/// service, when there is a single shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Total number of directory servers in this shard's group (3 in
    /// the paper's group service).
    pub n: usize,
    /// This server's index in `0..n`.
    pub me: usize,
    /// The service name every port of this shard derives from
    /// (`"amoeba.dir"` unsharded; `"amoeba.dir.s{k}"` for shard `k`).
    pub service: String,
    /// The public service port clients locate.
    pub public_port: Port,
}

impl ServiceConfig {
    /// Standard configuration for server `me` of `n` of a single-shard
    /// (unsharded) service.
    pub fn new(n: usize, me: usize) -> ServiceConfig {
        Self::sharded(n, me, 0, 1)
    }

    /// Configuration for server `me` of `n` of shard `shard` of
    /// `shards`. With `shards == 1` this is exactly [`new`](Self::new).
    pub fn sharded(n: usize, me: usize, shard: usize, shards: usize) -> ServiceConfig {
        assert!(me < n, "server index out of range");
        let shards = shards.max(1);
        assert!(shard < shards, "shard index out of range");
        let service = crate::shard::ShardMap::new(shards).service_name(shard);
        let public_port = Port::from_name(&service);
        ServiceConfig {
            n,
            me,
            service,
            public_port,
        }
    }

    /// The internal (server-to-server) port of server `i`, used by the
    /// recovery protocol's RPC exchanges.
    pub fn internal_port(&self, i: usize) -> Port {
        Port::from_name(&format!("{}.internal.{i}", self.service))
    }

    /// The Bullet service port of server `i`'s storage column.
    pub fn bullet_port(&self, i: usize) -> Port {
        Port::from_name(&format!("{}.bullet.{i}", self.service))
    }
}

/// Tunables of the directory server implementations, calibrated to the
/// paper's testbed (Sun3/60-class CPUs; see `EXPERIMENTS.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct DirParams {
    /// CPU time to serve a read operation (paper §4.2: ≈3 ms; bounds each
    /// server at ≈333 lookups/s).
    pub read_cpu: Duration,
    /// CPU time an initiator spends unmarshalling/validating a write.
    pub write_cpu: Duration,
    /// CPU time the group thread spends applying one update (besides
    /// storage operations).
    pub apply_cpu: Duration,
    /// The commit path and its device's parameters, for the group
    /// variants only: a [`Cluster`](crate::cluster::Cluster) refuses any
    /// kind but `InPlace` on the RPC and NFS-like baselines, which write
    /// in place.
    pub storage: StorageKind,
    /// Upper bound on client read-lease durations ([`crate::cache`]):
    /// the longest a write can stall waiting out an unreachable lease
    /// holder, and the cap applied to any requested TTL.
    pub max_lease: Duration,
}

impl Default for DirParams {
    fn default() -> Self {
        DirParams {
            read_cpu: Duration::from_micros(3_000),
            write_cpu: Duration::from_micros(1_000),
            apply_cpu: Duration::from_micros(500),
            storage: StorageKind::InPlace,
            max_lease: Duration::from_millis(400),
        }
    }
}

#[cfg(test)]
mod tests {
    use amoeba_rsm::RsmConfig;

    use super::*;

    #[test]
    fn internal_ports_are_distinct() {
        let c = ServiceConfig::new(3, 0);
        assert_ne!(c.internal_port(0), c.internal_port(1));
        assert_ne!(c.internal_port(0), c.public_port);
        assert_ne!(c.bullet_port(0), c.bullet_port(1));
    }

    #[test]
    fn sharded_configs_do_not_collide() {
        let a = ServiceConfig::sharded(3, 0, 0, 2);
        let b = ServiceConfig::sharded(3, 0, 1, 2);
        assert_ne!(a.public_port, b.public_port);
        let group_port = |c: &ServiceConfig| RsmConfig::new(&c.service, c.n, c.me).group_port;
        assert_ne!(group_port(&a), group_port(&b));
        assert_ne!(a.internal_port(0), b.internal_port(0));
        assert_ne!(a.bullet_port(0), b.bullet_port(0));
        // A single shard is the classic unsharded configuration.
        assert_eq!(ServiceConfig::sharded(3, 1, 0, 1), ServiceConfig::new(3, 1));
        assert_eq!(
            ServiceConfig::new(3, 0).public_port,
            Port::from_name("amoeba.dir")
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let _ = ServiceConfig::new(3, 3);
    }

    #[test]
    fn the_default_writes_in_place() {
        assert_eq!(DirParams::default().storage, StorageKind::InPlace);
    }
}
