//! The group directory service over a routed two-segment internetwork:
//! the sequencer (column 0), column 2 and the clients on `net-a`,
//! column 1 on `net-b`, every packet between the segments
//! store-and-forwarded by a router. The
//! group conformance and crash/rejoin suites must hold unchanged, and
//! the per-segment occupancy accounting must add up.

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{Capability, DirClient, DirClientError, DirError, Rights};
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

fn routed_cluster(seed: u64) -> (Simulation, Cluster, DirClient, Capability) {
    let mut sim = Simulation::new(seed);
    let mut params = ClusterParams::routed(Variant::Group);
    params.seed = seed;
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let out = sim.spawn("form", move |ctx| ready_root(ctx, &c2, &["owner"]));
    sim.run_for(Duration::from_secs(30));
    let root = out.take().expect("routed service formed");
    (sim, cluster, client, root)
}

#[test]
fn columns_really_live_on_different_segments() {
    let mut sim = Simulation::new(61);
    let cluster = Cluster::start(&sim, ClusterParams::routed(Variant::Group));
    let net = cluster.net.clone();
    assert_eq!(net.segment_of(cluster.columns[0].host), Some(SegmentId(0)));
    assert_eq!(net.segment_of(cluster.columns[1].host), Some(SegmentId(1)));
    assert_eq!(net.segment_of(cluster.columns[2].host), Some(SegmentId(0)));
    assert_eq!(net.router_addrs().len(), 1);
    sim.run_for(Duration::from_millis(1));
}

#[test]
fn fig2_operations_work_over_routed_topology() {
    // The full Fig. 2 conformance pass, sequencer and a replica a
    // router hop apart.
    let (mut sim, cluster, client, _) = routed_cluster(63);
    let out = sim.spawn("app", move |ctx| {
        let root = ready_root(ctx, &client, &["owner", "other"]);
        client
            .append_row(ctx, root, "a", root, vec![Rights::ALL, Rights::NONE])
            .unwrap();
        assert_eq!(
            client.append_row(ctx, root, "a", root, vec![Rights::ALL, Rights::NONE]),
            Err(DirClientError::Service(DirError::DuplicateName))
        );
        let listing = client.list(ctx, root).unwrap();
        assert_eq!(listing.rows.len(), 1);
        client
            .chmod_row(ctx, root, "a", vec![Rights::MODIFY, Rights::column(1)])
            .unwrap();
        let caps = client
            .lookup_set(ctx, vec![(root, "a".into()), (root, "ghost".into())])
            .unwrap();
        assert!(caps[0].is_some() && caps[1].is_none());
        let other = client.create_dir(ctx, &["owner"]).unwrap();
        client
            .replace_set(ctx, vec![(root, "a".into(), other)])
            .unwrap();
        client.delete_row(ctx, root, "a").unwrap();
        client.delete_dir(ctx, other).unwrap();
        true
    });
    sim.run_for(Duration::from_secs(60));
    assert_eq!(out.take(), Some(true));
    // The replication traffic really crossed the router.
    let st = cluster.net.stats();
    assert!(
        st.packets_forwarded > 0,
        "a split deployment must forward packets"
    );
}

#[test]
fn total_order_holds_across_segments() {
    // Racing appends of the same name from clients on net-a, arbitrated
    // by a sequencer whose peers are on net-b: exactly one winner per
    // round, exactly as on the flat LAN.
    let (mut sim, mut cluster, _, root) = routed_cluster(67);
    let mut outs = Vec::new();
    for c in 0..4 {
        let (client, _) = cluster.client(&sim);
        outs.push(sim.spawn(&format!("racer{c}"), move |ctx| {
            let mut wins = 0u32;
            for round in 0..10 {
                let name = format!("contended{round}");
                match client.append_row(ctx, root, &name, root, vec![Rights::ALL]) {
                    Ok(()) => wins += 1,
                    Err(DirClientError::Service(DirError::DuplicateName)) => {}
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            wins
        }));
    }
    sim.run_for(Duration::from_secs(90));
    let total: u32 = outs.iter().map(|o| o.take().expect("racer done")).sum();
    assert_eq!(total, 10, "each round must have exactly one winner");
}

#[test]
fn replicas_converge_across_the_router() {
    let (mut sim, cluster, client, root) = routed_cluster(71);
    let out = sim.spawn("app", move |ctx| {
        for i in 0..10 {
            client
                .append_row(ctx, root, &format!("e{i}"), root, vec![Rights::ALL])
                .unwrap();
        }
        client.delete_row(ctx, root, "e3").unwrap();
        true
    });
    sim.run_for(Duration::from_secs(60));
    assert_eq!(out.take(), Some(true));
    let s0 = cluster.group_server(0).update_seq();
    let s1 = cluster.group_server(1).update_seq();
    let s2 = cluster.group_server(2).update_seq();
    assert_eq!(s0, s1, "replica versions diverged across segments");
    assert_eq!(s1, s2, "replica versions diverged across segments");
}

#[test]
fn crash_and_rejoin_of_the_remote_replica() {
    // Crash the net-b replica (a router hop from the sequencer), write
    // through the surviving majority, and let it recover across the
    // router: the Fig. 6 recovery protocol must work store-and-forward.
    let (mut sim, mut cluster, client, root) = routed_cluster(73);
    let c2 = client.clone();
    let pre = sim.spawn("pre", move |ctx| {
        c2.append_row(ctx, root, "before", root, vec![Rights::ALL])
            .is_ok()
    });
    sim.run_for(Duration::from_secs(5));
    assert_eq!(pre.take(), Some(true));

    cluster.crash_server(&sim, 1); // the lone net-b replica
    let c3 = client.clone();
    let during = sim.spawn("during", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        let r1 = c3.lookup(ctx, root, "before").unwrap().is_some();
        let r2 = c3
            .append_row(ctx, root, "during", root, vec![Rights::ALL])
            .is_ok();
        (r1, r2)
    });
    sim.run_for(Duration::from_secs(15));
    assert_eq!(during.take(), Some((true, true)));

    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(20));
    assert!(
        cluster.group_server(1).is_normal(),
        "remote replica rejoined"
    );
    assert_eq!(
        cluster.group_server(1).update_seq(),
        cluster.group_server(0).update_seq(),
        "recovered replica caught up across the router"
    );
}

#[test]
fn offline_updates_reach_the_crashed_sequencer_after_recovery() {
    // The flat suite's recovery-catches-up scenario with the *sequencer*
    // (column 0, on net-a) as the crash victim, so the whole recovery
    // copy crosses the router.
    let (mut sim, mut cluster, client, root) = routed_cluster(79);
    cluster.crash_server(&sim, 0);
    let c2 = client.clone();
    let w = sim.spawn("w", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        let mut ok = 0;
        for i in 0..5 {
            for _ in 0..20 {
                if c2
                    .append_row(ctx, root, &format!("offline{i}"), root, vec![Rights::ALL])
                    .is_ok()
                {
                    ok += 1;
                    break;
                }
                ctx.sleep(Duration::from_millis(250));
            }
        }
        ok
    });
    sim.run_for(Duration::from_secs(40));
    assert_eq!(w.take(), Some(5));
    cluster.restart_server(&sim, 0);
    sim.run_for(Duration::from_secs(30));
    assert!(cluster.group_server(0).is_normal());
    assert_eq!(
        cluster.group_server(0).update_seq(),
        cluster.group_server(1).update_seq(),
        "recovered sequencer must hold the offline-period updates"
    );
}

#[test]
fn per_segment_accounting_adds_up_and_router_carries_load() {
    let (mut sim, mut cluster, _, root) = routed_cluster(89);
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("load", move |ctx| {
        let mut ok = 0u32;
        for i in 0..20 {
            if client
                .append_row(ctx, root, &format!("n{i}"), root, vec![Rights::ALL])
                .is_ok()
            {
                ok += 1;
            }
        }
        ok
    });
    sim.run_for(Duration::from_secs(60));
    assert!(out.take().unwrap_or(0) >= 18, "load mostly succeeded");
    let st = cluster.net.stats();
    assert_eq!(st.segments.len(), 2);
    assert_eq!(st.segments[0].name, "net-a");
    assert_eq!(st.segments[1].name, "net-b");
    assert!(
        st.segments[0].wire_busy_nanos > 0 && st.segments[1].wire_busy_nanos > 0,
        "both wires must have carried traffic"
    );
    assert_eq!(
        st.wire_busy_nanos,
        st.segments[0].wire_busy_nanos + st.segments[1].wire_busy_nanos,
        "total wire busy must equal the per-segment sum"
    );
    assert!(
        st.packets_forwarded > 0,
        "the router carried the replication traffic"
    );
    assert_eq!(
        st.segments[0].frames + st.segments[1].frames,
        st.packets_sent + st.packets_forwarded,
        "every frame is an origin send or a forward"
    );
}
