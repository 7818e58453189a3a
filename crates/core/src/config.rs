//! Service-wide configuration and performance parameters.

use std::time::Duration;

use amoeba_flip::Port;

/// How updates reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Synchronous disk writes in the update critical path (paper §3.1).
    Disk,
    /// Log updates to NVRAM; apply to disk in the background (paper §4.1).
    Nvram,
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
    /// This server's shard index in `0..shards`.
    pub shard: usize,
    /// Total number of shards the directory service is split into.
    pub shards: usize,
    /// The service name every port of this shard derives from
    /// (`"amoeba.dir"` unsharded; `"amoeba.dir.s{k}"` for shard `k`).
    pub service: String,
    /// The public service port clients locate.
    pub public_port: Port,
    /// The port the server group is formed on.
    pub group_port: Port,
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
        let group_port = Port::from_name(&format!("{service}.group"));
        ServiceConfig {
            n,
            me,
            shard,
            shards,
            service,
            public_port,
            group_port,
        }
    }

    /// Votes needed for a majority.
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
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
    /// Server threads per machine (multiple threads per server, §3.1).
    pub server_threads: usize,
    /// The group log: route every group-commit flush through the disk's
    /// reserved journal region as one sequential record append, with a
    /// background checkpointer draining the dirty set into real
    /// Bullet/table blocks (see `amoeba_disk::Journal` and the module
    /// docs of `dir_sm`). `false` (the default) keeps the
    /// paper's in-place flush — each final directory and table block
    /// written where it lives — and the journal region is not even
    /// carved. Only meaningful with [`StorageKind::Disk`] storage.
    pub journal: bool,
    /// How often the background checkpointer drains the journal when
    /// the journaled commit path is on.
    pub checkpoint_interval: Duration,
    /// Enable the §3.2 improved two-server recovery rule.
    pub improved_recovery: bool,
    /// Disk or NVRAM commit path.
    pub storage: StorageKind,
    /// NVRAM fill fraction that triggers a background flush.
    pub nvram_flush_threshold: f64,
    /// Idle time after which the NVRAM flusher runs anyway.
    pub nvram_idle_flush: Duration,
    /// Latency of an intentions-log append in the RPC baseline
    /// (sequential log write: rotation + transfer, no full seek).
    pub intentions_latency: Duration,
    /// Upper bound on client read-lease durations ([`crate::cache`]):
    /// the longest a write can stall waiting out an unreachable lease
    /// holder, and the cap applied to any requested TTL.
    pub max_lease: Duration,
    /// Piggybacked lease renewals budgeted per grant: each write that
    /// revokes a holder's lease reinstates a successor (deadline
    /// extended by the lease's own TTL, budget decremented), so the
    /// holder's refetch after the invalidation callback is served off
    /// the read path instead of a full group round. `0` disables
    /// piggybacking. The budget also bounds the extra wait-outs a
    /// crashed holder can cost writers, and widens the cold-boot write
    /// fence to `(1 + lease_renewals) × max_lease`.
    pub lease_renewals: u32,
}

impl Default for DirParams {
    fn default() -> Self {
        DirParams {
            read_cpu: Duration::from_micros(3_000),
            write_cpu: Duration::from_micros(1_000),
            apply_cpu: Duration::from_micros(500),
            server_threads: 2,
            journal: false,
            checkpoint_interval: Duration::from_millis(250),
            improved_recovery: false,
            storage: StorageKind::Disk,
            nvram_flush_threshold: 0.75,
            nvram_idle_flush: Duration::from_millis(200),
            intentions_latency: Duration::from_millis(12),
            max_lease: Duration::from_millis(400),
            lease_renewals: 2,
        }
    }
}

impl DirParams {
    /// Default parameters with the NVRAM commit path.
    pub fn nvram() -> Self {
        DirParams {
            storage: StorageKind::Nvram,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_is_floor_half_plus_one() {
        assert_eq!(ServiceConfig::new(3, 0).majority(), 2);
        assert_eq!(ServiceConfig::new(2, 0).majority(), 2);
        assert_eq!(ServiceConfig::new(5, 4).majority(), 3);
    }

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
        assert_ne!(a.group_port, b.group_port);
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
    fn nvram_params() {
        assert_eq!(DirParams::nvram().storage, StorageKind::Nvram);
        assert_eq!(DirParams::default().storage, StorageKind::Disk);
    }
}
