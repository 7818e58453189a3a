//! End-to-end behaviour of the group directory service: the Fig. 2
//! operations, read-your-writes across servers, and replica consistency.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{
    CacheParams, Capability, DirClient, DirClientError, DirError, DirReply, Rights, StorageKind,
};
use amoeba_dirsvc::flip::wire::Wire;
use amoeba_dirsvc::sim::{Ctx, Simulation};

fn ready_root(ctx: &Ctx, client: &DirClient, columns: &[&str]) -> Capability {
    loop {
        match client.create_dir(ctx, columns) {
            Ok(c) => return c,
            Err(_) => ctx.sleep(Duration::from_millis(100)),
        }
    }
}

#[test]
fn all_fig2_operations_work_end_to_end() {
    let mut sim = Simulation::new(21);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("app", move |ctx| {
        let root = ready_root(ctx, &client, &["owner", "other"]);
        // Append row.
        client
            .append_row(ctx, root, "a", root, vec![Rights::ALL, Rights::NONE])
            .unwrap();
        // Duplicate append fails.
        assert_eq!(
            client.append_row(ctx, root, "a", root, vec![Rights::ALL, Rights::NONE]),
            Err(DirClientError::Service(DirError::DuplicateName))
        );
        // List.
        let listing = client.list(ctx, root).unwrap();
        assert_eq!(listing.columns, vec!["owner", "other"]);
        assert_eq!(listing.rows.len(), 1);
        // Chmod.
        client
            .chmod_row(ctx, root, "a", vec![Rights::MODIFY, Rights::column(1)])
            .unwrap();
        // Lookup set (one present, one absent).
        let caps = client
            .lookup_set(ctx, vec![(root, "a".into()), (root, "ghost".into())])
            .unwrap();
        assert!(caps[0].is_some());
        assert!(caps[1].is_none());
        // Replace set.
        let other = client.create_dir(ctx, &["owner"]).unwrap();
        client
            .replace_set(ctx, vec![(root, "a".into(), other)])
            .unwrap();
        let got = client.lookup(ctx, root, "a").unwrap().unwrap();
        assert_eq!(got.object, other.object);
        // Delete row, delete dir.
        client.delete_row(ctx, root, "a").unwrap();
        assert_eq!(
            client.delete_row(ctx, root, "a"),
            Err(DirClientError::Service(DirError::NoSuchName))
        );
        client.delete_dir(ctx, other).unwrap();
        // The deleted directory's capability no longer works.
        assert_eq!(
            client.list(ctx, other),
            Err(DirClientError::Service(DirError::BadCapability))
        );
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true));
}

/// The Fig. 2 script against every implementation the paper compares:
/// the group service (disk and NVRAM commit), the duplicated RPC service
/// and the NFS-like single server all answer it alike, and each answers
/// bytes that are no request with `Malformed`.
#[test]
fn every_variant_answers_the_fig2_script_and_refuses_garbage() {
    for variant in [
        Variant::Group,
        Variant::GroupNvram,
        Variant::Rpc,
        Variant::Nfs,
    ] {
        let mut sim = Simulation::new(37);
        let mut cluster = Cluster::start(&sim, ClusterParams::paper(variant));
        let (client, rpc, _) = cluster.client_machine(&sim);
        let out = sim.spawn("app", move |ctx| {
            let root = ready_root(ctx, &client, &["owner", "other"]);
            let dir = client.create_dir(ctx, &["owner"]).unwrap();
            assert_ne!(dir.object, root.object);
            let masks = vec![Rights::ALL, Rights::NONE];
            client
                .append_row(ctx, root, "a", dir, masks.clone())
                .unwrap();
            let hit = client.lookup(ctx, root, "a").unwrap().expect("appended");
            assert_eq!(hit.object, dir.object);
            let listing = client.list(ctx, root).unwrap();
            assert_eq!(listing.columns, vec!["owner", "other"]);
            let names: Vec<&str> = listing.rows.iter().map(|r| r.0.as_str()).collect();
            assert_eq!((names, &listing.rows[0].2), (vec!["a"], &masks));
            let chmod = vec![Rights::MODIFY, Rights::column(1)];
            client.chmod_row(ctx, root, "a", chmod.clone()).unwrap();
            assert_eq!(client.list(ctx, root).unwrap().rows[0].2, chmod);
            client.delete_row(ctx, root, "a").unwrap();
            assert_eq!(client.lookup(ctx, root, "a"), Ok(None));
            client.delete_dir(ctx, dir).unwrap();
            assert_eq!(
                client.list(ctx, dir),
                Err(DirClientError::Service(DirError::BadCapability))
            );
            let garbage = vec![0xFF; 7];
            let reply = rpc.trans(ctx, root.port, garbage).expect("an answer");
            DirReply::decode(&reply)
        });
        sim.run_for(Duration::from_secs(30));
        assert_eq!(
            out.take(),
            Some(Ok(DirReply::Err(DirError::Malformed))),
            "{}",
            variant.label()
        );
    }
}

/// The commit path and the client cache are the group service's: the
/// RPC and NFS-like baselines write in place and fence no lease, so a
/// deployment that asks them for either is refused, not silently run
/// without it.
#[test]
fn a_baseline_refuses_the_group_services_settings() {
    type Setting = fn(&mut ClusterParams);
    let settings: [(&str, Setting); 3] = [
        ("journal", |p| p.dir.storage = StorageKind::journal()),
        ("nvram", |p| p.dir.storage = StorageKind::nvram()),
        ("dir_cache", |p| p.dir_cache = Some(CacheParams::default())),
    ];
    for variant in [Variant::Rpc, Variant::Nfs] {
        for (name, set) in settings {
            let mut params = ClusterParams::paper(variant);
            set(&mut params);
            let sim = Simulation::new(1);
            let started = catch_unwind(AssertUnwindSafe(|| Cluster::start(&sim, params)));
            assert!(started.is_err(), "{} started with {name}", variant.label());
        }
    }
}

#[test]
fn read_your_writes_across_different_servers() {
    // Fig. 5's read path: a client deleting a directory then reading it
    // back — possibly at a *different* server — must see the deletion.
    let mut sim = Simulation::new(23);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("app", move |ctx| {
        let root = ready_root(ctx, &client, &["owner"]);
        // Many cycles: each append is immediately followed by a lookup;
        // the NOTHERE server-selection spreads these over all 3 servers,
        // so stale reads would be caught.
        for i in 0..30 {
            let name = format!("n{i}");
            client
                .append_row(ctx, root, &name, root, vec![Rights::ALL])
                .unwrap();
            let hit = client.lookup(ctx, root, &name).unwrap();
            assert!(hit.is_some(), "read-your-write violated at {i}");
            client.delete_row(ctx, root, &name).unwrap();
            let gone = client.lookup(ctx, root, &name).unwrap();
            assert!(gone.is_none(), "read-your-delete violated at {i}");
        }
        true
    });
    sim.run_for(Duration::from_secs(60));
    assert_eq!(out.take(), Some(true));
}

#[test]
fn replicas_converge_to_identical_state() {
    let mut sim = Simulation::new(29);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("app", move |ctx| {
        let root = ready_root(ctx, &client, &["owner"]);
        for i in 0..10 {
            client
                .append_row(ctx, root, &format!("e{i}"), root, vec![Rights::ALL])
                .unwrap();
        }
        client.delete_row(ctx, root, "e3").unwrap();
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true));
    let s0 = cluster.group_server(0).update_seq();
    let s1 = cluster.group_server(1).update_seq();
    let s2 = cluster.group_server(2).update_seq();
    assert_eq!(s0, s1, "replica versions diverged");
    assert_eq!(s1, s2, "replica versions diverged");
    assert!(s0 >= 12, "expected at least 12 updates, saw {s0}");
}

#[test]
fn concurrent_clients_get_serializable_outcomes() {
    // Two clients race appends of the same name: exactly one must win
    // (one-copy serializability of the total order).
    let mut sim = Simulation::new(31);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    let (setup_client, _) = cluster.client(&sim);
    let setup = sim.spawn("setup", move |ctx| {
        ready_root(ctx, &setup_client, &["owner"])
    });
    sim.run_for(Duration::from_secs(10));
    let root = setup.take().expect("root ready");

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
    sim.run_for(Duration::from_secs(60));
    let total: u32 = outs.iter().map(|o| o.take().expect("racer done")).sum();
    assert_eq!(total, 10, "each round must have exactly one winner");
}

#[test]
fn path_resolution_and_create_all() {
    let mut sim = Simulation::new(37);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("app", move |ctx| {
        let root = ready_root(ctx, &client, &["owner"]);
        let leaf =
            amoeba_dirsvc::dir::path::create_all(ctx, &client, root, "/usr/local/bin", &["owner"])
                .unwrap();
        client
            .append_row(ctx, leaf, "tool", leaf, vec![Rights::ALL])
            .unwrap();
        let resolved =
            amoeba_dirsvc::dir::path::resolve(ctx, &client, root, "usr/local/bin/tool").unwrap();
        assert_eq!(resolved.object, leaf.object);
        // Missing component errors cleanly.
        let missing = amoeba_dirsvc::dir::path::resolve(ctx, &client, root, "usr/nope");
        assert_eq!(missing, Err(DirClientError::Service(DirError::NoSuchName)));
        true
    });
    sim.run_for(Duration::from_secs(60));
    assert_eq!(out.take(), Some(true));
}

/// The commit wait is visible in a traced write on the stock
/// configuration: every replica that applied the op also shows the
/// durable flush the op then waited for (`rsm.flush`, at least one disk
/// access long), in one connected span tree. (Mirrors
/// `crates/bench/tests/telemetry.rs`, which tier-1 does not run.)
#[test]
fn a_traced_write_shows_its_commit_wait_on_every_replica() {
    let mut sim = Simulation::new(0x5BA9);
    let tele = amoeba_telemetry::Telemetry::install(&sim.handle());
    let params = ClusterParams::paper(Variant::Group);
    let one_access = params.disk.access_time(1);
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let done = sim.spawn("app", move |ctx| {
        let root = ready_root(ctx, &client, &["owner"]);
        client.append_row(ctx, root, "a", root, vec![Rights::ALL])
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(done.take(), Some(Ok(())));

    let spans = tele.spans();
    let root_span = spans
        .iter()
        .find(|s| s.name == "cli.append_row" && s.parent == 0)
        .expect("client root span");
    let (roots, orphans, _) = amoeba_telemetry::span_tree_stats(&spans, root_span.trace);
    assert_eq!((roots, orphans), (1, 0), "one connected tree");
    let named = |name: &str| -> Vec<&amoeba_telemetry::SpanRec> {
        let in_trace =
            |s: &&amoeba_telemetry::SpanRec| s.trace == root_span.trace && s.name == name;
        spans.iter().filter(in_trace).collect()
    };
    let (applies, flushes) = (named("rsm.apply"), named("rsm.flush"));
    assert_eq!(applies.len(), 3, "all three replicas applied the write");
    for a in &applies {
        assert!(
            flushes.iter().any(|f| f.machine == a.machine),
            "machine {} applied the write but shows no rsm.flush span",
            a.machine
        );
    }
    for f in &flushes {
        let took = f.end.expect("flush span closed") - f.start;
        assert!(took >= one_access, "an rsm.flush took only {took:?}");
    }
}
