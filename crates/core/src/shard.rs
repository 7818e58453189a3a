//! The shard map: how a sharded directory service is split across
//! several replica groups.
//!
//! One `Replica<DirectoryStateMachine>` group orders every update
//! through one sequencer, which caps update throughput. Sharding splits
//! the namespace across `S` independent groups — each with its own
//! columns, its own sequencer, its own object table and Bullet files —
//! and this module is the only thing that ties them back together.
//!
//! ## Placement and routing
//!
//! * Each shard is a complete directory service on its own public port
//!   ([`ShardMap::public_port`]). With `S == 1` the port is the classic
//!   `"amoeba.dir"`, so a single-shard deployment is bit-identical to
//!   the unsharded service; with `S > 1` shard `k` serves
//!   `"amoeba.dir.s{k}"`.
//! * A directory's **home shard is burned into its capability**: the
//!   capability's port *is* the shard's public port. Routing an
//!   operation on an existing capability is therefore a stable hash of
//!   the capability ([`ShardMap::shard_of_cap`] — a port-table lookup,
//!   never a rehash), and object numbers stay local to each shard's
//!   object table. A directory never leaves its home shard.
//! * A fresh directory ([`crate::DirClient::create_dir`]) is placed
//!   round-robin by the creating client. Linking it into a parent on
//!   another shard is a plain [`crate::DirClient::append_row`] on the
//!   parent's shard: a row may hold a capability of any shard.
//!
//! ## Invariants
//!
//! * Per-shard total order: every shard is an unmodified
//!   `Replica`-driven service, so one-copy serializability holds within
//!   a shard. Nothing orders operations across shards: a client that
//!   creates a directory on one shard and links it on another makes two
//!   independent updates.
//! * `ShardMap` is pure over `shards`: every client and server of a
//!   deployment computes identical placement from the shard count
//!   alone.

use amoeba_flip::Port;

use crate::capability::Capability;

/// The service-name prefix all shard ports derive from.
const SERVICE_BASE: &str = "amoeba.dir";

/// Routing arithmetic for a directory service of `shards` replica
/// groups. See the [module docs](self) for the full contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    ports: Vec<Port>,
}

impl ShardMap {
    /// A map for `shards` shards (0 is treated as 1).
    pub fn new(shards: usize) -> ShardMap {
        let shards = shards.max(1);
        let ports = (0..shards)
            .map(|k| Port::from_name(&Self::name_of(k, shards)))
            .collect();
        ShardMap { shards, ports }
    }

    fn name_of(shard: usize, shards: usize) -> String {
        if shards == 1 {
            SERVICE_BASE.to_owned()
        } else {
            format!("{SERVICE_BASE}.s{shard}")
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The service name shard `shard` runs under (its group, internal
    /// and Bullet ports all derive from it). `"amoeba.dir"` when there
    /// is a single shard — identical to the unsharded service.
    pub fn service_name(&self, shard: usize) -> String {
        Self::name_of(shard % self.shards, self.shards)
    }

    /// The public port of shard `shard`.
    pub fn public_port(&self, shard: usize) -> Port {
        self.ports[shard % self.shards]
    }

    /// Which shard serves `port`, if it is one of ours.
    pub fn shard_of_port(&self, port: Port) -> Option<usize> {
        self.ports.iter().position(|p| *p == port)
    }

    /// The home shard of a capability (`None` for foreign services).
    /// Stable: the shard was burned into the capability's port at
    /// creation.
    pub fn shard_of_cap(&self, cap: &Capability) -> Option<usize> {
        self.shard_of_port(cap.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(shards: usize, shard: usize, object: u64) -> Capability {
        Capability::owner(ShardMap::new(shards).public_port(shard), object, 7)
    }

    #[test]
    fn single_shard_uses_the_classic_port() {
        let m = ShardMap::new(1);
        assert_eq!(m.public_port(0), Port::from_name("amoeba.dir"));
        assert_eq!(m.service_name(0), "amoeba.dir");
        let m0 = ShardMap::new(0);
        assert_eq!(m0.shards(), 1);
        assert_eq!(m0.public_port(0), m.public_port(0));
    }

    #[test]
    fn shard_ports_are_distinct_and_resolve_back() {
        let m = ShardMap::new(4);
        for a in 0..4 {
            assert_eq!(m.shard_of_port(m.public_port(a)), Some(a));
            for b in (a + 1)..4 {
                assert_ne!(m.public_port(a), m.public_port(b));
            }
        }
        assert_eq!(m.shard_of_port(Port::from_name("amoeba.dir")), None);
    }

    #[test]
    fn cap_routing_is_stable() {
        let m = ShardMap::new(3);
        let c = cap(3, 2, 9);
        assert_eq!(m.shard_of_cap(&c), Some(2));
        let foreign = Capability::owner(Port::from_name("bullet"), 1, 2);
        assert_eq!(m.shard_of_cap(&foreign), None);
    }
}
