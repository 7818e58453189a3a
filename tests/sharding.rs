//! The sharded directory service: per-shard total order, a directory
//! linked into a parent on another shard with the paper's plain calls
//! (create, then append; also while the parent's shard is down), and
//! segment-local placement on a routed star topology.

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{
    Capability, DirClient, DirClientError, DirError, Rights, ServiceConfig, ShardMap,
};
use amoeba_dirsvc::flip::SegmentId;
use amoeba_dirsvc::sim::{Ctx, Simulation};

fn ready_root(ctx: &Ctx, client: &DirClient, columns: &[&str]) -> Capability {
    loop {
        match client.create_dir(ctx, columns) {
            Ok(c) => return c,
            Err(_) => ctx.sleep(Duration::from_millis(100)),
        }
    }
}

fn sharded_cluster(shards: usize, seed: u64) -> (Simulation, Cluster, DirClient, Capability) {
    let mut sim = Simulation::new(seed);
    let mut params = ClusterParams::sharded(Variant::Group, shards);
    params.seed = seed;
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    // The client's round-robin starts at shard 0, but a create refused
    // while the service forms still advances it: the root lands on the
    // shard of the first create that succeeds.
    let out = sim.spawn("form", move |ctx| ready_root(ctx, &c2, &["owner"]));
    sim.run_for(Duration::from_secs(40));
    let root = out.take().expect("sharded service formed");
    (sim, cluster, client, root)
}

#[test]
fn single_shard_stays_behavior_identical() {
    // shards = 1 must keep the classic port and the classic protocol —
    // the configuration every pre-sharding test runs.
    assert_eq!(
        ShardMap::new(1).public_port(0),
        ServiceConfig::new(3, 0).public_port
    );
    let (mut sim, cluster, client, root) = sharded_cluster(1, 211);
    assert_eq!(cluster.columns.len(), 3, "one shard = three columns");
    let out = sim.spawn("app", move |ctx| {
        assert_eq!(
            root.port,
            ServiceConfig::new(3, 0).public_port,
            "single-shard capabilities carry the classic port"
        );
        client
            .append_row(ctx, root, "a", root, vec![Rights::ALL])
            .unwrap();
        client.lookup(ctx, root, "a").unwrap().is_some()
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(out.take(), Some(true));
}

#[test]
fn shards_form_independent_groups_and_serve() {
    let (mut sim, cluster, client, root0) = sharded_cluster(2, 223);
    assert_eq!(cluster.columns.len(), 6, "two shards = six columns");
    let map = ShardMap::new(2);
    let out = sim.spawn("app", move |ctx| {
        // Round-robin placement: the second root lands on shard 1.
        let root1 = ready_root(ctx, &client, &["owner"]);
        assert_eq!(map.shard_of_cap(&root0), Some(0));
        assert_eq!(map.shard_of_cap(&root1), Some(1));
        // Both shards serve reads and writes independently.
        for (i, root) in [root0, root1].into_iter().enumerate() {
            client
                .append_row(ctx, root, "x", root, vec![Rights::ALL])
                .unwrap();
            assert!(
                client.lookup(ctx, root, "x").unwrap().is_some(),
                "shard {i} lookup"
            );
        }
        // A cross-shard LookupSet splits and merges in request order.
        let caps = client
            .lookup_set(
                ctx,
                vec![
                    (root1, "x".into()),
                    (root0, "ghost".into()),
                    (root0, "x".into()),
                ],
            )
            .unwrap();
        assert!(caps[0].is_some() && caps[1].is_none() && caps[2].is_some());
        true
    });
    sim.run_for(Duration::from_secs(40));
    assert_eq!(out.take(), Some(true));
    // Each shard's replicas converged within the shard, and each shard
    // ordered its own updates (independent update counters).
    for shard in 0..2 {
        let s: Vec<u64> = (0..3)
            .map(|i| cluster.shard_server(shard, i).update_seq())
            .collect();
        assert!(
            s[0] == s[1] && s[1] == s[2],
            "shard {shard} diverged: {s:?}"
        );
        assert!(s[0] >= 2, "shard {shard} ordered its root + append");
    }
    // Shard-scoped replica stats: each shard's driver counted its own
    // applies, not the other's.
    for shard in 0..2 {
        let st = cluster.shard_server(shard, 0).replica_stats();
        assert!(st.applied >= 2, "shard {shard} stats: {st:?}");
        assert!(st.batches >= 1, "shard {shard} batches: {st:?}");
    }
}

#[test]
fn per_shard_total_order_with_racing_writers() {
    // Racing appends of one contended name per shard: the shard's
    // sequencer arbitrates exactly one winner per round, per shard.
    let (mut sim, mut cluster, client, root0) = sharded_cluster(2, 227);
    let c2 = client.clone();
    let setup = sim.spawn("root1", move |ctx| ready_root(ctx, &c2, &["owner"]));
    sim.run_for(Duration::from_secs(10));
    let root1 = setup.take().expect("shard-1 root");
    let mut outs = Vec::new();
    for c in 0..4 {
        let (client, _) = cluster.client(&sim);
        outs.push(sim.spawn(&format!("racer{c}"), move |ctx| {
            let mut wins = 0u32;
            for round in 0..8 {
                for root in [root0, root1] {
                    let name = format!("contended{round}");
                    match client.append_row(ctx, root, &name, root, vec![Rights::ALL]) {
                        Ok(()) => wins += 1,
                        Err(DirClientError::Service(DirError::DuplicateName)) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
            wins
        }));
    }
    sim.run_for(Duration::from_secs(120));
    let total: u32 = outs.iter().map(|o| o.take().expect("racer done")).sum();
    assert_eq!(
        total, 16,
        "each of 8 rounds × 2 shards must have exactly one winner"
    );
}

#[test]
fn a_child_on_another_shard_is_linked_resolved_and_removed_with_plain_calls() {
    let (mut sim, _cluster, client, root) = sharded_cluster(2, 229);
    let map = ShardMap::new(2);
    let out = sim.spawn("app", move |ctx| {
        // Round-robin placement: the create after the root's lands on
        // the other shard.
        let child = client.create_dir(ctx, &["owner"]).unwrap();
        assert_ne!(map.shard_of_cap(&child), map.shard_of_cap(&root));
        client
            .append_row(ctx, root, "kid", child, vec![Rights::ALL])
            .unwrap();
        // The link resolves from the parent's shard, and the child is a
        // real, usable directory on its own.
        let resolved = client
            .lookup(ctx, root, "kid")
            .unwrap()
            .expect("row exists");
        assert_eq!(resolved, child);
        client
            .append_row(ctx, resolved, "inner", resolved, vec![Rights::ALL])
            .unwrap();
        assert!(client.lookup(ctx, child, "inner").unwrap().is_some());
        // Removal is the same two calls in reverse.
        client.delete_row(ctx, root, "kid").unwrap();
        client.delete_dir(ctx, child).unwrap();
        assert!(client.lookup(ctx, root, "kid").unwrap().is_none());
        assert_eq!(
            client.list(ctx, child),
            Err(DirClientError::Service(DirError::BadCapability)),
            "the child directory is gone from its shard"
        );
        true
    });
    sim.run_for(Duration::from_secs(60));
    assert_eq!(out.take(), Some(true));
}

#[test]
fn a_link_refused_while_the_parent_shard_is_down_succeeds_on_retry_after_restart() {
    // Kill the parent shard's majority, its sequencer among the
    // victims: the other shard still creates the child, the link into
    // the root fails, and an append retried after the restart links the
    // same child.
    let (mut sim, mut cluster, client, root) = sharded_cluster(2, 233);
    let map = ShardMap::new(2);
    let parent = map.shard_of_cap(&root).expect("a shard's root");
    let i0 = cluster.column_index(parent, 0); // the parent shard's sequencer
    let i1 = cluster.column_index(parent, 1);
    cluster.crash_server(&sim, i0);
    cluster.crash_server(&sim, i1);
    let c2 = client.clone();
    let partial = sim.spawn("partial", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        let child = c2
            .create_dir(ctx, &["owner"])
            .expect("the other shard serves");
        let link = c2.append_row(ctx, root, "orphan", child, vec![Rights::ALL]);
        let listed = c2.list(ctx, child).is_ok();
        (child, link, listed)
    });
    sim.run_for(Duration::from_secs(25));
    let (child, link, listed) = partial.take().expect("partial attempt returned");
    assert_eq!(map.shard_of_cap(&child), Some(1 - parent));
    assert!(link.is_err(), "the link must fail without a majority");
    assert!(listed, "the unlinked child lives on its shard");

    cluster.restart_server(&sim, i0);
    cluster.restart_server(&sim, i1);
    sim.run_for(Duration::from_secs(30));
    let c3 = client.clone();
    let retry = sim.spawn("retry", move |ctx| {
        for _ in 0..100 {
            match c3.append_row(ctx, root, "orphan", child, vec![Rights::ALL]) {
                // A duplicate is an earlier attempt that landed; the
                // lookup below tells which directory it linked.
                Ok(()) | Err(DirClientError::Service(DirError::DuplicateName)) => break,
                Err(_) => ctx.sleep(Duration::from_millis(250)),
            }
        }
        c3.lookup(ctx, root, "orphan").unwrap()
    });
    sim.run_for(Duration::from_secs(60));
    assert_eq!(
        retry.take(),
        Some(Some(child)),
        "the retried append linked the child"
    );
}

#[test]
fn shard_star_placement_keeps_reads_segment_local() {
    // Two shards, each on its own segment of a star, clients with
    // shard 0 on net-s0: reads of shard-0 directories must never cross
    // the hub router — and with multicast pruning, neither does the
    // other shard's replication traffic.
    let mut sim = Simulation::new(241);
    let mut params = ClusterParams::sharded_routed(Variant::Group, 2);
    params.seed = 241;
    let mut cluster = Cluster::start(&sim, params);
    // Placement really is per-shard.
    for i in 0..3 {
        assert_eq!(
            cluster.net.segment_of(cluster.columns[i].host),
            Some(SegmentId(0)),
            "shard 0 column {i}"
        );
        assert_eq!(
            cluster.net.segment_of(cluster.columns[3 + i].host),
            Some(SegmentId(1)),
            "shard 1 column {i}"
        );
    }
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let setup = sim.spawn("form", move |ctx| {
        let root0 = ready_root(ctx, &c2, &["owner"]);
        c2.append_row(ctx, root0, "target", root0, vec![Rights::ALL])
            .unwrap();
        root0
    });
    sim.run_for(Duration::from_secs(40));
    let root0 = setup.take().expect("shard-0 root formed");
    // Let formation traffic settle, then measure a read-only window.
    sim.run_for(Duration::from_secs(5));
    let before = cluster.net.stats();
    let reads = sim.spawn("reads", move |ctx| {
        let mut ok = 0;
        for _ in 0..50 {
            if client.lookup(ctx, root0, "target").unwrap().is_some() {
                ok += 1;
            }
        }
        ok
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(reads.take(), Some(50));
    let d = cluster.net.stats().since(&before);
    assert_eq!(
        d.packets_forwarded, 0,
        "shard-local reads (and pruned shard traffic) never cross the hub"
    );
    assert!(
        d.segments[0].frames > 0,
        "the read traffic is on the client's segment"
    );
    // The per-segment accounting identity must survive pruning: every
    // frame on any wire is still an origin send or a forward — pruning
    // removes forwards and their frames together, never one without
    // the other.
    let st = cluster.net.stats();
    assert!(st.mcast_pruned > 0, "formation traffic was pruned");
    assert_eq!(
        st.segments.iter().map(|s| s.frames).sum::<u64>(),
        st.packets_sent + st.packets_forwarded,
        "frames = sent + forwarded, with pruning enabled"
    );
}
