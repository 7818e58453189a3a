//! Deployment harness: builds whole simulated deployments of each service
//! variant (Fig. 3's columns of directory + Bullet + disk servers), plus
//! client machines, crash/restart and partition controls.

use std::time::Duration;

use amoeba_bullet::{start_bullet_server, BulletClient, BulletStore};
use amoeba_disk::{DiskParams, DiskServer, Nvram, RawPartition, VDisk};
use amoeba_flip::{HostAddr, NetParams, Network, NodeStack, SegmentId, Topology};
use amoeba_group::{GroupConfig, GroupPeer};
use amoeba_rpc::{RpcClient, RpcNode};
use amoeba_sim::{NodeId, Resource, Simulation, Spawn};

use amoeba_flip::Port;

use crate::cache::{start_invalidation_listener, CacheParams, DirCache};
use crate::client::DirClient;
use crate::config::{DirParams, ServiceConfig, StorageKind};
use crate::server::ServerDeps;
use crate::server_group::{start_group_server, GroupDirServer};
use crate::server_nfs::start_nfs_server;
use crate::server_rpc::start_rpc_server;

/// Which directory service implementation a cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Triplicated, group communication, disk commit (the contribution).
    Group,
    /// Triplicated, group communication, NVRAM commit.
    GroupNvram,
    /// Duplicated RPC baseline.
    Rpc,
    /// Single-server NFS-like baseline.
    Nfs,
}

impl Variant {
    /// Number of directory servers for this variant.
    pub fn servers(self) -> usize {
        match self {
            Variant::Group | Variant::GroupNvram => 3,
            Variant::Rpc => 2,
            Variant::Nfs => 1,
        }
    }

    /// Short label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Group => "Group(3)",
            Variant::GroupNvram => "Group+NVRAM(3)",
            Variant::Rpc => "RPC(2)",
            Variant::Nfs => "NFS-like(1)",
        }
    }
}

/// How a deployment maps onto an internetwork: the FLIP [`Topology`]
/// plus the placement of server columns and client machines on its
/// segments. The default is the degenerate flat LAN.
#[derive(Debug, Clone)]
pub struct ClusterTopology {
    /// The segment/router wiring.
    pub topology: Topology,
    /// `column_segments[i % len]` is where column `i` attaches (empty =
    /// everything on segment 0).
    pub column_segments: Vec<SegmentId>,
    /// Per-shard placement: `shard_segments[s % len]` is where *every*
    /// column of shard `s` attaches. Empty (the default) falls back to
    /// `column_segments` indexed by within-shard column index — all
    /// shards overlaid on the same segments.
    pub shard_segments: Vec<SegmentId>,
    /// Where client machines attach.
    pub client_segment: SegmentId,
}

impl ClusterTopology {
    /// Everything on one Ethernet segment (the paper's testbed).
    pub fn flat() -> ClusterTopology {
        ClusterTopology {
            topology: Topology::single(),
            column_segments: Vec::new(),
            shard_segments: Vec::new(),
            client_segment: SegmentId(0),
        }
    }

    /// Two segments joined by one router: column 0 (the group creator,
    /// hence the sequencer) and the clients on `net-a`, every other
    /// column on `net-b` — the smallest deployment where replication
    /// traffic is store-and-forwarded.
    pub fn two_segment_split() -> ClusterTopology {
        ClusterTopology {
            topology: Topology::two_segments(),
            column_segments: vec![SegmentId(0), SegmentId(1)],
            shard_segments: Vec::new(),
            client_segment: SegmentId(0),
        }
    }

    /// A star of `shards` segments around one hub router, shard `s`'s
    /// whole column set on segment `net-s{s}`, clients on `net-s0`:
    /// each shard's replication multicasts are segment-local, and with
    /// the routers' multicast pruning they *stay* local instead of
    /// being flooded into every other shard's segment.
    pub fn shard_star(shards: usize) -> ClusterTopology {
        let shards = shards.max(1);
        let mut topology = Topology::new();
        let segs: Vec<SegmentId> = (0..shards)
            .map(|s| topology.add_segment(&format!("net-s{s}")))
            .collect();
        if shards > 1 {
            topology.add_router("hub", &segs);
        }
        ClusterTopology {
            topology,
            column_segments: Vec::new(),
            shard_segments: segs,
            client_segment: SegmentId(0),
        }
    }

    /// A chain of `segments` segments, each adjacent pair joined by its
    /// own router ([`Topology::chain`]), shard `s`'s whole column set on
    /// segment `s % segments`, clients on segment 0. The exploration
    /// harness's big multi-hop deployment: replication multicasts stay
    /// shard-local, but client traffic to far shards is
    /// store-and-forwarded across up to `segments − 1` routers.
    pub fn shard_chain(shards: usize, segments: usize) -> ClusterTopology {
        let shards = shards.max(1);
        let segments = segments.max(1);
        ClusterTopology {
            topology: Topology::chain(segments),
            column_segments: Vec::new(),
            shard_segments: (0..shards)
                .map(|s| SegmentId((s % segments) as u32))
                .collect(),
            client_segment: SegmentId(0),
        }
    }

    /// The segment column `i` attaches to (within-shard index, for
    /// deployments without per-shard placement).
    pub fn column_segment(&self, i: usize) -> SegmentId {
        if self.column_segments.is_empty() {
            SegmentId(0)
        } else {
            self.column_segments[i % self.column_segments.len()]
        }
    }

    /// The segment column `i` of shard `shard` attaches to.
    pub fn placement(&self, shard: usize, i: usize) -> SegmentId {
        if self.shard_segments.is_empty() {
            self.column_segment(i)
        } else {
            self.shard_segments[shard % self.shard_segments.len()]
        }
    }
}

/// Everything that parameterizes a deployment.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Which implementation to run.
    pub variant: Variant,
    /// Network model.
    pub net: NetParams,
    /// Internetwork wiring and machine placement (flat by default).
    pub net_topology: ClusterTopology,
    /// Disk model.
    pub disk: DiskParams,
    /// Directory server parameters.
    pub dir: DirParams,
    /// Group communication parameters (resilience defaults to n−1).
    pub group: GroupConfig,
    /// How many replica groups the directory service is sharded into
    /// (group variants only; each shard gets its own column set,
    /// object table and sequencer). `1` is the classic unsharded
    /// service, bit-identical to before sharding existed.
    pub shards: usize,
    /// Lease-fenced client-side directory caching (see
    /// [`crate::cache`]): every client machine built by
    /// [`Cluster::client`] gets a [`DirCache`] and an invalidation
    /// listener. `None` (the default) is the classic uncached client —
    /// behaviour-identical to before the cache existed.
    pub dir_cache: Option<CacheParams>,
    /// Simulation seed for workload randomness.
    pub seed: u64,
}

impl ClusterParams {
    /// The paper's configuration for a variant, storage included: in
    /// place (§3.1), or the NVRAM log for [`Variant::GroupNvram`] (§4.1).
    pub fn paper(variant: Variant) -> ClusterParams {
        let mut dir = DirParams {
            storage: StorageKind::InPlace,
            ..DirParams::default()
        };
        match variant {
            Variant::GroupNvram => dir.storage = StorageKind::nvram(),
            Variant::Nfs => {
                // NFS lookup measured slightly slower (6 ms vs 5 ms).
                dir.read_cpu = Duration::from_micros(4_000);
            }
            _ => {}
        }
        ClusterParams {
            variant,
            net: NetParams::lan_10mbps(),
            net_topology: ClusterTopology::flat(),
            disk: DiskParams::wren_iv(),
            dir,
            group: GroupConfig::with_resilience(variant.servers().saturating_sub(1) as u32),
            shards: 1,
            dir_cache: None,
            seed: 0xD1_5C,
        }
    }

    /// The paper's configuration spread over a routed two-segment
    /// internetwork ([`ClusterTopology::two_segment_split`]).
    pub fn routed(variant: Variant) -> ClusterParams {
        ClusterParams {
            net_topology: ClusterTopology::two_segment_split(),
            ..Self::paper(variant)
        }
    }

    /// The paper's configuration with the directory service split into
    /// `shards` replica groups (each its own column set and sequencer)
    /// on one flat LAN.
    pub fn sharded(variant: Variant, shards: usize) -> ClusterParams {
        ClusterParams {
            shards: shards.max(1),
            ..Self::paper(variant)
        }
    }

    /// The effective shard count of this deployment: only the group
    /// variants shard; the RPC and NFS baselines always run one.
    pub fn effective_shards(&self) -> usize {
        match self.variant {
            Variant::Group | Variant::GroupNvram => self.shards.max(1),
            _ => 1,
        }
    }

    /// [`sharded`](Self::sharded) with each shard's columns on its own
    /// segment of a star internetwork
    /// ([`ClusterTopology::shard_star`]), so shard-local replication
    /// traffic stays off the other shards' wires.
    pub fn sharded_routed(variant: Variant, shards: usize) -> ClusterParams {
        ClusterParams {
            shards: shards.max(1),
            net_topology: ClusterTopology::shard_star(shards),
            ..Self::paper(variant)
        }
    }

    /// [`sharded`](Self::sharded) with the shards spread along a
    /// multi-hop chain of `segments` segments
    /// ([`ClusterTopology::shard_chain`]) — the exploration harness's
    /// big routed deployment.
    pub fn sharded_chain(variant: Variant, shards: usize, segments: usize) -> ClusterParams {
        ClusterParams {
            shards: shards.max(1),
            net_topology: ClusterTopology::shard_chain(shards, segments),
            ..Self::paper(variant)
        }
    }
}

/// One replica column: directory server + Bullet server + disk server on
/// one machine (the paper keeps them on separate machines sharing a disk;
/// co-locating them preserves both the failure unit and the RPC cost
/// between the dir and Bullet servers, which goes over the network either
/// way).
pub struct Column {
    /// Replica index within the shard's group.
    pub index: usize,
    /// The directory shard this column serves (always 0 unsharded).
    pub shard: usize,
    /// The machine.
    pub sim_node: NodeId,
    /// The machine's network identity.
    pub host: HostAddr,
    /// The machine's network stack (survives crash; rebind after).
    pub stack: NodeStack,
    /// The persistent platters.
    pub vdisk: VDisk,
    /// Persistent Bullet layout state.
    pub bullet_store: BulletStore,
    /// Persistent NVRAM device.
    pub nvram: Nvram,
    /// The directory server handle of the current incarnation (group
    /// variants only).
    pub server: Option<GroupDirServer>,
}

impl std::fmt::Debug for Column {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Column(s{}.{})", self.shard, self.index)
    }
}

/// A running deployment of one service variant.
pub struct Cluster {
    /// The shared LAN.
    pub net: Network,
    /// The replica columns.
    pub columns: Vec<Column>,
    /// Deployment parameters.
    pub params: ClusterParams,
    next_client: u32,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cluster({}, {} columns)",
            self.params.variant.label(),
            self.columns.len()
        )
    }
}

/// Disk geometry shared by all variants.
const DISK_BLOCKS: u64 = 16_384;
const BLOCK_SIZE: usize = 4096;
/// Blocks 0..TABLE_BLOCKS form the raw partition; the rest is Bullet's
/// — less the journal region, when one is carved (see
/// [`StorageKind::carved_blocks`]).
const TABLE_BLOCKS: u64 = 64;

impl Cluster {
    /// Builds and starts a deployment on `sim`. Columns are laid out
    /// shard-major: `columns[shard * servers + i]` is replica `i` of
    /// shard `shard`, so the flat indices `0..servers` address shard 0
    /// exactly as they addressed the whole service before sharding.
    pub fn start(sim: &Simulation, params: ClusterParams) -> Cluster {
        assert!(
            matches!(params.variant, Variant::Group | Variant::GroupNvram)
                || (params.dir_cache.is_none() && params.dir.storage == StorageKind::InPlace),
            "the client directory cache and a storage kind other than in place \
             require a group variant (only the group initiators fence lease \
             revocation; the RPC and NFS-like baselines write in place)"
        );
        let net = Network::with_topology(
            sim.handle(),
            params.net.clone(),
            params.net_topology.topology.clone(),
            params.seed,
        );
        let n = params.variant.servers();
        let shards = params.effective_shards();
        // Name each machine's telemetry track up front; a no-op unless
        // the caller installed a collector on the simulation first.
        let tele = amoeba_telemetry::Telemetry::from_handle(&sim.handle());
        let mut columns = Vec::with_capacity(n * shards);
        for shard in 0..shards {
            for index in 0..n {
                let sim_node = sim.add_node(&format!("dir-column-s{shard}-{index}"));
                let stack = net.attach_to(params.net_topology.placement(shard, index));
                let host = stack.addr();
                tele.name_machine(u64::from(host.0), &format!("dir-s{shard}-{index}"));
                let vdisk = VDisk::new(DISK_BLOCKS, BLOCK_SIZE);
                let bullet_store = BulletStore::new(
                    DISK_BLOCKS - TABLE_BLOCKS - params.dir.storage.carved_blocks(),
                    BLOCK_SIZE,
                    params.seed ^ ((shard * n + index) as u64) << 8,
                );
                let nvram = Nvram::paper_24k();
                let mut column = Column {
                    index,
                    shard,
                    sim_node,
                    host,
                    stack,
                    vdisk,
                    bullet_store,
                    nvram,
                    server: None,
                };
                start_column(sim, &params, &mut column);
                columns.push(column);
            }
        }
        Cluster {
            net,
            columns,
            params,
            next_client: 0,
        }
    }

    /// Creates a fresh client machine and returns a typed client for the
    /// service's public port.
    pub fn client(&mut self, sim: &Simulation) -> (DirClient, NodeId) {
        let (dir, rpc, node) = self.client_machine(sim);
        let _ = rpc;
        (dir, node)
    }

    /// Like [`client`](Cluster::client) but also returns the machine's raw
    /// RPC client, for talking to other services (e.g. Bullet) from the
    /// same machine.
    pub fn client_machine(&mut self, sim: &Simulation) -> (DirClient, RpcClient, NodeId) {
        let id = self.next_client;
        self.next_client += 1;
        let sim_node = sim.add_node(&format!("client-{id}"));
        let stack = self.net.attach_to(self.params.net_topology.client_segment);
        let rpc = RpcNode::start(sim_node, stack);
        amoeba_telemetry::Telemetry::from_handle(&sim.handle())
            .name_machine(u64::from(rpc.addr().0), &format!("client-{id}"));
        let rpc_client = RpcClient::new(&rpc);
        // Each client machine starts its root-placement round-robin
        // at its own index, so first creates spread across shards
        // instead of all landing on shard 0.
        let mut dir = DirClient::sharded(rpc_client.clone(), self.params.effective_shards())
            .with_create_offset(id as usize);
        if let Some(cp) = &self.params.dir_cache {
            // Each client machine gets its own callback port and a
            // renewal jitter derived from its index (the same idiom as
            // the create offset above).
            let cache = DirCache::new(cp.clone(), Port::from_name(&format!("dir-cache-cb-{id}")))
                .with_renew_jitter(id as usize);
            start_invalidation_listener(sim, sim_node, &rpc, &cache);
            dir = dir.with_cache(cache);
        }
        (dir, rpc_client, sim_node)
    }

    /// Crashes column `i`: machine dies, NIC goes silent; platters,
    /// Bullet layout state and NVRAM survive.
    pub fn crash_server(&self, sim: &Simulation, i: usize) {
        let c = &self.columns[i];
        self.net.set_down(c.host);
        sim.crash_node(c.sim_node);
    }

    /// Reboots a crashed column: fresh processes over the surviving
    /// persistent state; the server re-enters via the recovery protocol.
    pub fn restart_server(&mut self, sim: &Simulation, i: usize) {
        {
            let c = &self.columns[i];
            sim.revive_node(c.sim_node);
            self.net.set_up(c.host);
        }
        let params = self.params.clone();
        start_column(sim, &params, &mut self.columns[i]);
    }

    /// Destroys column `i`'s disk contents (a head crash) in addition to
    /// crashing it.
    pub fn destroy_server_disk(&self, sim: &Simulation, i: usize) {
        self.crash_server(sim, i);
        self.columns[i].vdisk.destroy_contents();
    }

    /// Puts column `i` alone on one side of a network partition.
    pub fn isolate_server(&self, i: usize) {
        self.net.isolate(&[self.columns[i].host]);
    }

    /// Heals any partition.
    pub fn heal(&self) {
        self.net.heal();
    }

    /// The group-server handle of column `i`'s current incarnation
    /// (flat index; `0..servers` is shard 0).
    ///
    /// # Panics
    ///
    /// Panics for non-group variants or a crashed column.
    pub fn group_server(&self, i: usize) -> &GroupDirServer {
        self.columns[i]
            .server
            .as_ref()
            .expect("column has no running group server")
    }

    /// Flat column index of replica `i` of shard `shard` (usable with
    /// [`crash_server`](Cluster::crash_server) and friends).
    pub fn column_index(&self, shard: usize, i: usize) -> usize {
        shard * self.params.variant.servers() + i
    }

    /// The group-server handle of replica `i` of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics for non-group variants or a crashed column.
    pub fn shard_server(&self, shard: usize, i: usize) -> &GroupDirServer {
        self.group_server(self.column_index(shard, i))
    }
}

/// Starts (or restarts) all processes of one column.
fn start_column(spawner: &impl Spawn, params: &ClusterParams, column: &mut Column) {
    let n = params.variant.servers();
    let cfg = ServiceConfig::sharded(n, column.index, column.shard, params.effective_shards());
    let rpc = RpcNode::start(column.sim_node, column.stack.clone());
    let disk_srv = DiskServer::start(
        spawner,
        column.sim_node,
        column.vdisk.clone(),
        params.disk.clone(),
    );
    let partition = RawPartition::new(disk_srv.clone(), 0, TABLE_BLOCKS);
    // A second disk server that nothing calls: Bullet shares the one
    // above, as one spindle. It stays because every process draws its
    // RNG stream by spawn index, so dropping it would renumber every
    // later spawn and move every seeded number.
    let _unused = DiskServer::start(
        spawner,
        column.sim_node,
        column.vdisk.clone(),
        params.disk.clone(),
    );
    // The Bullet server of this column, past the table partition and
    // the commit path's carved region.
    start_bullet_server(
        spawner,
        column.sim_node,
        &rpc,
        cfg.bullet_port(column.index),
        disk_srv.clone(),
        column.bullet_store.clone(),
        TABLE_BLOCKS + params.dir.storage.carved_blocks(),
        2,
    );
    let bullet = BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(column.index));
    let deps = ServerDeps {
        cfg,
        params: params.dir.clone(),
        sim_node: column.sim_node,
        rpc,
        bullet,
        partition,
        cpu: Resource::new(spawner.sim_handle(), &format!("cpu-{}", column.index)),
    };
    column.server = match params.variant {
        Variant::Group | Variant::GroupNvram => {
            // One group kernel per machine.
            let peer = GroupPeer::start(
                spawner,
                column.sim_node,
                column.stack.clone(),
                params.group.clone(),
            );
            // The commit path: its journal is carved right after the
            // table partition.
            let storage = params
                .dir
                .storage
                .open(&disk_srv, TABLE_BLOCKS, &column.nvram);
            Some(start_group_server(spawner, deps, peer, storage))
        }
        Variant::Rpc => {
            start_rpc_server(spawner, deps);
            None
        }
        Variant::Nfs => {
            start_nfs_server(spawner, deps);
            None
        }
    };
}
