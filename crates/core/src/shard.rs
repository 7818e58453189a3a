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
//! * A *fresh* root directory ([`crate::DirClient::create_dir`]) is
//!   placed round-robin by the creating client. A directory created
//!   **into a parent** ([`crate::DirClient::create_in`]) is placed by
//!   the stable hash of `(parent capability, name)`
//!   ([`ShardMap::child_shard`]) — deterministic, so a retry of the
//!   same logical create always targets the same shard.
//!
//! ## The cross-shard protocol (deterministic two-step)
//!
//! `create_in(parent, name)` whose child hashes to a different shard
//! than its parent cannot be one replicated op. It is two, each
//! idempotent, always in the same order:
//!
//! 1. **`CreateKeyed`** on the child's shard, carrying the
//!    *completion key* [`ShardMap::completion_key`]`(parent, name)`.
//!    The child shard's state machine keeps a replicated
//!    `key → object` completion record: a repeat of the same key
//!    returns the original directory's capability instead of creating
//!    a second one.
//! 2. **`AppendLink`** on the parent's shard: append the row, or
//!    succeed silently if the row already holds exactly that
//!    capability.
//!
//! A crash (of either shard's sequencer, or of the client) between the
//! steps leaves at most a created-but-unlinked child; *retrying the
//! whole operation* converges — step 1 replays to the same capability,
//! step 2 links it. `delete_from(parent, name)` is the mirror image,
//! child first: delete the child directory (already-gone is success),
//! then `Unlink` the row (already-unlinked is success) — so a crash
//! between the steps leaves a dangling *row* (visible, retryable)
//! rather than an unreachable orphan *directory*.
//!
//! ## Invariants
//!
//! * Per-shard total order: every shard is an unmodified
//!   `Replica`-driven service, so one-copy serializability holds within
//!   a shard. Cross-shard operations are *convergent*, not atomic: a
//!   reader between the two steps can observe the child without the
//!   link (create) or the link without the child (delete).
//! * Completion records live in the owning shard's replicated state
//!   and travel in its recovery snapshots; deleting a directory deletes
//!   its completion records. They survive any crash some replica of the
//!   shard survives. They are **not** written to disk: if *every*
//!   replica of a shard dies in the same flush window and boots from
//!   the salvaged disk prefix, its completion records are gone while
//!   the directories themselves survive. A `create_in` retry then
//!   creates a fresh (orphaned, reclaimable) child and hits
//!   `DuplicateName` on the link — which the client resolves by
//!   converging on the row's existing directory.
//! * `ShardMap` is pure over `shards`: every client and server of a
//!   deployment computes identical placement from the shard count
//!   alone.

use amoeba_flip::Port;

use crate::capability::Capability;

/// The service-name prefix all shard ports derive from.
const SERVICE_BASE: &str = "amoeba.dir";

/// A seeded byte hash in FNV-1a's shape, but not FNV-1a: its multiplier
/// is 2^48 + 0x1b3 where FNV's prime is 2^40 + 0x1b3. Kept as it is
/// because it places every directory: another hash would move them all
/// to other shards.
fn placement_hash(seed: u64, parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for part in parts {
        for b in *part {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    }
    h
}

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

    /// Where a directory created into `parent` under `name` lives: a
    /// stable hash, so every retry of the same logical create targets
    /// the same shard.
    pub fn child_shard(&self, parent: &Capability, name: &str) -> usize {
        (placement_hash(
            0x5AAD,
            &[
                &parent.port.as_raw().to_le_bytes(),
                &parent.object.to_le_bytes(),
                name.as_bytes(),
            ],
        ) % self.shards as u64) as usize
    }

    /// The idempotency key a [`CreateKeyed`](crate::DirOp::CreateKeyed)
    /// for `(parent, name)` carries — deterministic across retries (of
    /// the same parent capability), so the child shard's completion
    /// record can dedup them. The parent's **check field is folded
    /// in**: a completion replay answers with the child's owner
    /// capability, so the key must be computable only by someone
    /// actually holding a valid parent capability — the child's shard
    /// cannot validate the (foreign-shard) parent itself.
    pub fn completion_key(parent: &Capability, name: &str) -> u64 {
        placement_hash(
            0xC0_4471,
            &[
                &parent.port.as_raw().to_le_bytes(),
                &parent.object.to_le_bytes(),
                &parent.check.to_le_bytes(),
                name.as_bytes(),
            ],
        )
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

    #[test]
    fn child_placement_and_keys_are_deterministic() {
        let m = ShardMap::new(4);
        let parent = cap(4, 1, 5);
        assert_eq!(m.child_shard(&parent, "x"), m.child_shard(&parent, "x"));
        assert_eq!(
            ShardMap::completion_key(&parent, "x"),
            ShardMap::completion_key(&parent, "x")
        );
        assert_ne!(
            ShardMap::completion_key(&parent, "x"),
            ShardMap::completion_key(&parent, "y")
        );
        // The key is secret-bearing: without the parent's check field
        // it cannot be computed (a replay answers with the child's
        // owner capability, so guessable keys would leak it).
        let forged = Capability { check: 0, ..parent };
        assert_ne!(
            ShardMap::completion_key(&parent, "x"),
            ShardMap::completion_key(&forged, "x")
        );
        // Names spread over shards (not all in one bucket).
        let hit: std::collections::BTreeSet<usize> = (0..32)
            .map(|i| m.child_shard(&parent, &format!("n{i}")))
            .collect();
        assert!(hit.len() > 1, "hashing must spread children across shards");
    }
}
