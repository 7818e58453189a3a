//! # amoeba-dir-core — the fault-tolerant directory service
//!
//! A full reproduction of *"Using Group Communication to Implement a
//! Fault-Tolerant Directory Service"* (Kaashoek, Tanenbaum & Verstoep,
//! ICDCS 1993): a replicated mapping from ASCII names to Amoeba
//! capabilities, built four ways so they can be compared experimentally:
//!
//! * **Group service** ([`GroupDirServer`]) — the paper's
//!   contribution: triplicated active replication over totally-ordered
//!   group communication (`SendToGroup`, r = 2), one-copy
//!   serializability, majority rule under partitions, Skeen-based
//!   recovery (Fig. 6).
//! * **Group + NVRAM** — the same protocol committing updates to a 24 KB
//!   NVRAM log instead of the disk (§4.1), with append/delete
//!   annihilation.
//! * **RPC service** (`server_rpc.rs`) — the duplicated baseline
//!   with an intentions log and lazy replication (§1).
//! * **NFS-like** (`server_nfs.rs`) — a single-copy,
//!   no-fault-tolerance stand-in for the paper's SunOS/NFS column.
//!
//! They differ only in how a write is replicated and made durable. Each
//! starts from the same dependencies and shares one request front end
//! (the private `server` module): the server threads that take a
//! request off the public port, answer `Malformed` to bytes that do not
//! decode, and reply with what the variant's handler returns.
//!
//! The [`cluster`] module assembles complete deployments (Fig. 3 columns:
//! directory + Bullet + disk server per replica) inside the deterministic
//! simulator, with crash, reboot, disk-destruction and partition controls.
//! It is the only way to start a server: the start functions are
//! private to this crate. It alone opens a group column's commit path
//! ([`Storage`], from [`DirParams::storage`]), and it refuses a storage
//! kind other than in place, or a client cache, on the two baselines.
//!
//! ## Sharding
//!
//! The group service scales past its single sequencer by splitting the
//! namespace across several replica groups
//! ([`ClusterParams::shards`](cluster::ClusterParams::shards)): each
//! shard is a complete directory service — its own columns, object
//! table, Bullet files and sequencer — on its own public port, routed
//! by the [`ShardMap`] (the shard is burned into every capability's
//! port). A client links a directory into a parent on another shard
//! with two plain calls, a create and an append, as in the paper; see
//! the [`shard`] module docs for the contract and its invariants. A
//! single-shard deployment is bit-identical to the unsharded service. A
//! directory stays on the shard that created it for its whole life.
//!
//! ## The cached read path
//!
//! With [`ClusterParams::dir_cache`](cluster::ClusterParams::dir_cache)
//! set, every client machine runs a lease-fenced [`DirCache`]: a lookup
//! miss fetches the directory's visible rows plus a **read lease** from
//! its shard, and while the lease holds, lookups are served locally
//! with zero packets. Grants are ordered through the group like writes,
//! so any update — initiated at any replica — revokes the covering
//! leases *before it is acknowledged* (invalidation callbacks, with
//! full lease expiry as the fallback for unreachable holders). See the
//! [`cache`] module docs for the exact invariant and its cold-start
//! fence.
//!
//! ## The directory machine
//!
//! Each group replica is a [`DirectoryStateMachine`] driven by the
//! generic `amoeba-rsm` replica driver. As in the paper, it has two
//! halves, kept in separate files of the private `dir` module:
//!
//! * a **pure planner** (`dir/plan.rs`): an op and the replicated state
//!   in, the new state, the reply and the storage effects out. It reads
//!   no clock and touches no device, so every replica that applies the
//!   group's total order reaches the same state; the RPC and NFS-like
//!   baselines run the same planner;
//! * a **storage path** per [`StorageKind`] (`dir/storage/`): the
//!   paper's in-place writes (§3.1), the group log, or the NVRAM log
//!   (§4.1), each owning its commit, flush, replay and boot.
//!
//! Reads, the read rule and leases (`dir/read.rs`) sit beside them;
//! the state machine (`dir/machine.rs`) holds the column's [`Storage`]
//! and picks the storage path once per hook. [`model::DirModel`] is the
//! planner's sequential reference.
//!
//! ## The message pipeline (zero-copy invariants)
//!
//! A directory update travels flip → rpc → group → core as a shared
//! [`Payload`](amoeba_flip::Payload) — an `Rc`-backed buffer with
//! zero-copy slicing — and the pipeline maintains these invariants:
//!
//! 1. **Encode once.** Every directory-service format is one
//!    [`Wire`](amoeba_flip::wire::Wire) impl, and [`DirOp::encode`] (like
//!    every `Wire::encode`) produces the update's bytes in one
//!    allocation of exactly their size: `put` runs once against a writer
//!    that only counts and once into the buffer, so the size comes from
//!    the same field list that writes the bytes. `RpcMsg` is a `Wire`
//!    impl too; the other transport messages (`GroupMsg`,
//!    `BulletRequest`/`Reply`) are sized up front by hand.
//! 2. **Never copy on the way down.** `RpcClient::trans`, `Group::send`
//!    and `BulletClient::create` accept `impl Into<Payload>`; retries,
//!    the sequencer's history buffer, BB stores and app-delivery queues
//!    all hold clones of the same buffer (`Payload::clone` is an `Rc`
//!    bump, never a byte copy).
//! 3. **Never copy on the way up.** Decoders run over the packet's
//!    shared buffer (`WireReader::of`, `Wire::decode_shared`) and return
//!    embedded byte strings as zero-copy sub-payloads
//!    (`WireReader::payload`), so the op bytes a replica applies — and a
//!    state transfer's snapshot — alias the wire buffer they arrived in.
//!    Multicast fan-out clones [`Packet`](amoeba_flip::Packet)s at `Rc`
//!    cost.
//! 4. **Structured decode may allocate.** Parsing a `DirOp` or
//!    `Directory` into strings/capabilities allocates for the *parsed
//!    values* — never for the payload bytes themselves.
//!
//! The only deliberate byte copies on a hot path are at the storage
//! boundary (chunking file contents into simulated disk blocks) — see
//! `amoeba-bullet`. On top of the zero-copy spine, the group layer
//! coalesces accepts into `AcceptBatch` multicasts with cumulative acks,
//! which is what amortizes per-packet protocol cost under concurrent
//! update load.
//!
//! ## Quick start
//!
//! ```
//! use amoeba_dir_core::cluster::{Cluster, ClusterParams, Variant};
//! use amoeba_dir_core::Rights;
//! use amoeba_sim::Simulation;
//! use std::time::Duration;
//!
//! let mut sim = Simulation::new(7);
//! let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
//! let (client, _node) = cluster.client(&sim);
//! let out = sim.spawn("app", move |ctx| {
//!     // Retry until the triplicated service has formed its group.
//!     let root = loop {
//!         match client.create_dir(ctx, &["owner", "other"]) {
//!             Ok(cap) => break cap,
//!             Err(_) => ctx.sleep(Duration::from_millis(100)),
//!         }
//!     };
//!     let file_cap = root; // any capability can be stored
//!     client
//!         .append_row(ctx, root, "hello", file_cap, vec![Rights::ALL, Rights::NONE])
//!         .unwrap();
//!     client.lookup(ctx, root, "hello").unwrap().is_some()
//! });
//! sim.run_for(Duration::from_secs(10));
//! assert_eq!(out.take(), Some(true));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod capability;
pub mod cluster;
mod commit_block;
mod config;
mod dir;
mod directory;
pub mod model;
mod object_table;
mod ops;
pub mod path;
mod rights;
mod server;
mod server_group;
mod server_nfs;
mod server_rpc;
pub mod shard;

mod client;

pub use cache::{start_invalidation_listener, CacheParams, CacheStats, DirCache};
pub use capability::{one_way, Capability};
pub use client::{DirClient, DirClientError, Listing};
pub use commit_block::CommitBlock;
pub use config::{DirParams, ServiceConfig, Storage, StorageKind};
pub use dir::DirectoryStateMachine;
pub use directory::{DirStructureError, Directory, Masks, Name, Row};
pub use object_table::{ObjEntry, ObjectTable};
pub use ops::{DirError, DirOp, DirReply, DirRequest};
pub use rights::Rights;
pub use server_group::GroupDirServer;
pub use server_rpc::PeerMsg;
pub use shard::ShardMap;
