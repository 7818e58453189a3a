//! Online shard migration: the copy + tombstone two-step, capability
//! forwarding, the crash matrix (source majority, target majority,
//! coordinator, and old-capability access racing a migration), and the
//! load-driven rebalancer end to end.

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, RebalancerParams, ServiceSpec, Variant};
use amoeba_dirsvc::dir::{
    Capability, DirClient, DirClientError, DirError, DirReply, DirRequest, LeaseService, Rights,
    ShardMap,
};
use amoeba_dirsvc::flip::wire::Wire;
use amoeba_dirsvc::rpc::RpcClient;
use amoeba_dirsvc::sim::{Ctx, Simulation};

fn ready_root(ctx: &Ctx, client: &DirClient, columns: &[&str]) -> Capability {
    loop {
        match client.create_dir(ctx, columns) {
            Ok(c) => return c,
            Err(_) => ctx.sleep(Duration::from_millis(100)),
        }
    }
}

/// A formed two-ish-shard cluster plus a root directory. Returns the
/// root's actual home shard (`src`) and the migration target
/// (`dst = (src + 1) % shards`): formation-time create retries advance
/// the client's round-robin, so the root's placement is seed-dependent.
fn sharded_cluster(
    shards: usize,
    seed: u64,
) -> (Simulation, Cluster, DirClient, Capability, usize, usize) {
    let mut sim = Simulation::new(seed);
    let mut params = ClusterParams::sharded(Variant::Group, shards);
    params.seed = seed;
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let out = sim.spawn("form", move |ctx| ready_root(ctx, &c2, &["owner"]));
    sim.run_for(Duration::from_secs(40));
    let root = out.take().expect("sharded service formed");
    let src = ShardMap::new(shards)
        .shard_of_cap(&root)
        .expect("root is ours");
    let dst = (src + 1) % shards.max(1);
    (sim, cluster, client, root, src, dst)
}

/// Raw request/reply against one shard port (bypassing the typed
/// client's chase loop — for staging exact crash interleavings).
fn raw(ctx: &Ctx, rpc: &RpcClient, port: amoeba_dirsvc::flip::Port, req: &DirRequest) -> DirReply {
    let bytes = rpc.trans(ctx, port, req.encode()).expect("transport");
    DirReply::decode(&bytes).expect("well-formed reply")
}

#[test]
fn migrate_moves_directory_and_old_capabilities_forward() {
    let (mut sim, mut cluster, client, root, src, dst) = sharded_cluster(2, 401);
    let map = ShardMap::new(2);
    // A second, completely fresh client machine: its relocation cache is
    // empty, so it must learn the move through the forwarding stub.
    let (fresh, _) = cluster.client(&sim);
    let out = sim.spawn("app", move |ctx| {
        client
            .append_row(ctx, root, "keep", root, vec![Rights::ALL])
            .unwrap();
        let moved = client.migrate(ctx, root, dst).unwrap();
        assert_eq!(map.shard_of_cap(&moved), Some(dst), "moved to the target");
        assert_eq!(moved.check, root.check, "migration preserves the raw check");

        // The ORIGINAL capability still works end to end via forwarding:
        // reads, writes, and a repeat migrate (no-op: already there).
        let listing = fresh.list(ctx, root).unwrap();
        assert_eq!(listing.rows.len(), 1, "contents travelled");
        assert_eq!(listing.rows[0].0, "keep");
        fresh
            .append_row(ctx, root, "after", root, vec![Rights::ALL])
            .unwrap();
        assert!(fresh.lookup(ctx, root, "after").unwrap().is_some());
        let again = fresh.migrate(ctx, root, dst).unwrap();
        assert_eq!(
            (again.port, again.object),
            (moved.port, moved.object),
            "repeat migrate converges on the same home"
        );

        // The translated capability works directly, without forwarding.
        let direct = Capability {
            port: moved.port,
            object: moved.object,
            ..root
        };
        assert!(fresh.lookup(ctx, direct, "keep").unwrap().is_some());

        // Chains: migrate back to the source shard — a third client
        // would now chase two hops from the original capability.
        let back = fresh.migrate(ctx, root, src).unwrap();
        assert_eq!(map.shard_of_cap(&back), Some(src));
        assert!(fresh.lookup(ctx, root, "after").unwrap().is_some());
        true
    });
    sim.run_for(Duration::from_secs(90));
    assert_eq!(out.take(), Some(true));
    // Both hops' sources hold forwarding stubs.
    assert!(cluster.shard_server(src, 0).stub_count() >= 1);
    assert!(cluster.shard_server(dst, 0).stub_count() >= 1);
}

#[test]
fn migrate_is_refused_on_unsharded_routes() {
    let (mut sim, _cluster, client, root, _, _) = sharded_cluster(1, 403);
    let out = sim.spawn("app", move |ctx| client.migrate(ctx, root, 0));
    sim.run_for(Duration::from_secs(20));
    assert_eq!(
        out.take(),
        Some(Err(DirClientError::Service(DirError::Malformed))),
        "single-shard deployments have nowhere to migrate"
    );
}

#[test]
fn source_majority_crash_mid_migration_retry_converges() {
    // The dark copy lands on the target, then the source shard's
    // majority (sequencer included) dies before the stub installs. The
    // directory must still be served (by the recovered source), and a
    // retried migration must converge onto the *same* dark copy via
    // the migration key.
    let (mut sim, mut cluster, client, root, src, dst) = sharded_cluster(2, 409);
    let map = ShardMap::new(2);
    let (_, rpc, _) = cluster.client_machine(&sim);
    let r2 = rpc.clone();
    let stage = sim.spawn("stage", move |ctx| {
        // Step 0 + 1 by hand: export, install the dark copy on the target.
        let (check, columns, rows) =
            match raw(ctx, &r2, root.port, &DirRequest::ExportDir { cap: root }) {
                DirReply::Export {
                    check,
                    columns,
                    rows,
                    ..
                } => (check, columns, rows),
                other => panic!("export failed: {other:?}"),
            };
        let key = ShardMap::migration_key(&root, ShardMap::new(2).public_port(dst));
        match raw(
            ctx,
            &r2,
            ShardMap::new(2).public_port(dst),
            &DirRequest::InstallDir {
                columns,
                rows,
                check,
                key,
            },
        ) {
            DirReply::Cap(c) => c,
            other => panic!("install failed: {other:?}"),
        }
    });
    sim.run_for(Duration::from_secs(20));
    let dark = stage.take().expect("dark copy installed");

    // Source majority dies before step 2; the full migrate now fails.
    let i0 = cluster.column_index(src, 0);
    let i1 = cluster.column_index(src, 1);
    cluster.crash_server(&sim, i0);
    cluster.crash_server(&sim, i1);
    let c2 = client.clone();
    let partial = sim.spawn("partial", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        c2.migrate(ctx, root, dst).is_err()
    });
    sim.run_for(Duration::from_secs(25));
    assert_eq!(
        partial.take(),
        Some(true),
        "migration cannot complete without a source majority"
    );

    cluster.restart_server(&sim, i0);
    cluster.restart_server(&sim, i1);
    sim.run_for(Duration::from_secs(30));
    let retry = sim.spawn("retry", move |ctx| {
        let moved = loop {
            match client.migrate(ctx, root, dst) {
                Ok(c) => break c,
                Err(_) => ctx.sleep(Duration::from_millis(250)),
            }
        };
        // Old capability forwards; the namespace has exactly one home.
        assert!(client.list(ctx, root).is_ok());
        moved
    });
    sim.run_for(Duration::from_secs(60));
    let moved = retry.take().expect("retry converged");
    assert_eq!(map.shard_of_cap(&moved), Some(dst));
    assert_eq!(
        (moved.port, moved.object),
        (dark.port, dark.object),
        "the retry converged onto the pre-crash dark copy, not a second one"
    );
}

#[test]
fn target_majority_crash_mid_install_retry_converges() {
    // The target shard's majority dies while the copy is being
    // installed: step 1 fails, the source is untouched and keeps
    // serving. After the target recovers, the retry completes and the
    // old capability forwards.
    let (mut sim, mut cluster, client, root, _src, dst) = sharded_cluster(2, 419);
    let map = ShardMap::new(2);
    let j0 = cluster.column_index(dst, 0);
    let j1 = cluster.column_index(dst, 1);
    cluster.crash_server(&sim, j0);
    cluster.crash_server(&sim, j1);
    let c2 = client.clone();
    let partial = sim.spawn("partial", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        let failed = c2.migrate(ctx, root, dst).is_err();
        // The source still serves the directory (migration is not
        // destructive until the stub lands).
        let alive = c2.list(ctx, root).is_ok();
        (failed, alive)
    });
    sim.run_for(Duration::from_secs(25));
    let (failed, alive) = partial.take().expect("partial attempt returned");
    assert!(failed, "step one must fail without a target majority");
    assert!(alive, "the source keeps serving through the failure");

    cluster.restart_server(&sim, j0);
    cluster.restart_server(&sim, j1);
    sim.run_for(Duration::from_secs(30));
    let retry = sim.spawn("retry", move |ctx| {
        let moved = loop {
            match client.migrate(ctx, root, dst) {
                Ok(c) => break c,
                Err(_) => ctx.sleep(Duration::from_millis(250)),
            }
        };
        assert!(client.lookup(ctx, root, "nope").unwrap().is_none());
        moved
    });
    sim.run_for(Duration::from_secs(60));
    let moved = retry.take().expect("retry converged");
    assert_eq!(map.shard_of_cap(&moved), Some(dst));
}

#[test]
fn coordinator_crash_between_steps_converges() {
    // A coordinator exports, installs the dark copy — and dies. The
    // directory keeps its source home (no stub, nothing lost); a NEW
    // coordinator's migration converges on the abandoned dark copy via
    // the deterministic migration key instead of leaking a second.
    let (mut sim, mut cluster, client, root, _src, dst) = sharded_cluster(2, 421);
    let (_, rpc, _) = cluster.client_machine(&sim);
    let target_port = ShardMap::new(2).public_port(dst);
    let stage = sim.spawn("doomed-coordinator", move |ctx| {
        let (check, columns, rows) =
            match raw(ctx, &rpc, root.port, &DirRequest::ExportDir { cap: root }) {
                DirReply::Export {
                    check,
                    columns,
                    rows,
                    ..
                } => (check, columns, rows),
                other => panic!("export failed: {other:?}"),
            };
        let key = ShardMap::migration_key(&root, target_port);
        match raw(
            ctx,
            &rpc,
            target_port,
            &DirRequest::InstallDir {
                columns,
                rows,
                check,
                key,
            },
        ) {
            DirReply::Cap(c) => c,
            other => panic!("install failed: {other:?}"),
        }
        // ...and the coordinator dies here: no InstallStub ever sent.
    });
    sim.run_for(Duration::from_secs(20));
    let dark = stage.take().expect("dark copy installed");

    // The directory is wholly unaffected: still served at the source.
    let c2 = client.clone();
    let check_src = sim.spawn("still-home", move |ctx| {
        c2.append_row(ctx, root, "mid", root, vec![Rights::ALL])
            .unwrap();
        c2.lookup(ctx, root, "mid").unwrap().is_some()
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(check_src.take(), Some(true));

    // A fresh coordinator finishes the job; its step 1 upserts the SAME
    // dark copy (key-deduplicated) with the newer contents.
    let (coordinator, _) = cluster.client(&sim);
    let finish = sim.spawn("second-coordinator", move |ctx| {
        let moved = coordinator.migrate(ctx, root, dst).unwrap();
        // The mid-flight append travelled with the re-copy.
        let found = coordinator.lookup(ctx, root, "mid").unwrap().is_some();
        (moved, found)
    });
    sim.run_for(Duration::from_secs(40));
    let (moved, found) = finish.take().expect("second coordinator done");
    assert_eq!(
        (moved.port, moved.object),
        (dark.port, dark.object),
        "the second coordinator reused the abandoned dark copy"
    );
    assert!(found, "the post-abandon append reached the final home");
}

#[test]
fn old_capability_access_racing_migration_lands_exactly_once() {
    // Writers hammer a directory through its original capability while
    // a migration runs. Every acknowledged append must be present
    // exactly once at the final home: ops ordered before the stub are
    // carried by the (re-)copy, ops ordered after it chase the stub —
    // an op never lands on both shards and never vanishes.
    let (mut sim, mut cluster, client, root, src, dst) = sharded_cluster(2, 431);
    let _ = client;
    const WRITERS: usize = 3;
    const EACH: usize = 8;
    let mut outs = Vec::new();
    for w in 0..WRITERS {
        let (wc, _) = cluster.client(&sim);
        outs.push(sim.spawn(&format!("writer{w}"), move |ctx| {
            let mut acked = Vec::new();
            for k in 0..EACH {
                let name = format!("w{w}-{k}");
                for _ in 0..20 {
                    match wc.append_row(ctx, root, &name, root, vec![Rights::ALL]) {
                        Ok(()) => {
                            acked.push(name.clone());
                            break;
                        }
                        Err(DirClientError::Service(DirError::DuplicateName)) => {
                            acked.push(name.clone());
                            break;
                        }
                        Err(_) => ctx.sleep(Duration::from_millis(40)),
                    }
                }
                ctx.sleep(Duration::from_millis(120));
            }
            acked
        }));
    }
    // The migration coordinator races the writers, retrying CAS losses.
    let (coordinator, _) = cluster.client(&sim);
    let mig = sim.spawn("coordinator", move |ctx| {
        ctx.sleep(Duration::from_millis(400));
        loop {
            match coordinator.migrate(ctx, root, dst) {
                Ok(c) => return c,
                Err(_) => ctx.sleep(Duration::from_millis(150)),
            }
        }
    });
    sim.run_for(Duration::from_secs(120));
    let moved = mig.take().expect("migration completed under write load");
    assert_eq!(ShardMap::new(2).shard_of_cap(&moved), Some(dst));
    let acked: Vec<String> = outs
        .iter()
        .flat_map(|o| o.take().expect("writer done"))
        .collect();
    assert_eq!(acked.len(), WRITERS * EACH, "every append was acknowledged");

    // A fresh client reads through the original capability: every
    // acknowledged row is there, exactly once, at one single home.
    let (fresh, _) = cluster.client(&sim);
    let names = acked.clone();
    let read = sim.spawn("audit", move |ctx| {
        let listing = fresh.list(ctx, root).unwrap();
        let mut got: Vec<String> = listing.rows.iter().map(|(n, _, _)| n.clone()).collect();
        got.sort();
        got.dedup();
        let mut want = names.clone();
        want.sort();
        assert_eq!(got, want, "acknowledged rows survive exactly once");
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(read.take(), Some(true));
    assert_eq!(
        cluster.shard_server(src, 0).stub_count(),
        1,
        "the source holds exactly one forwarding stub"
    );
}

#[test]
fn cached_read_never_resurrects_a_tombstoned_home() {
    // Cache × migration crash matrix: a cached reader holds a live read
    // lease on the source shard when the directory migrates away. The
    // stub install is a write ordered through the source group, so it
    // must revoke that lease before the migration acknowledges — the
    // source-shard lease covers no read after `InstallStub`. The reader
    // then chases the forwarding stub like any client; once it has, the
    // source majority dies outright and the reader still sees every
    // post-migration row — a cached read can never resurrect the
    // tombstoned home.
    use amoeba_dirsvc::dir::CacheParams;
    let mut sim = Simulation::new(443);
    let mut params = ClusterParams::sharded(Variant::Group, 2);
    params.seed = 443;
    params.dir_cache = Some(CacheParams::default());
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let formed = sim.spawn("form", move |ctx| ready_root(ctx, &c2, &["owner"]));
    sim.run_for(Duration::from_secs(40));
    let root = formed.take().expect("cached sharded service formed");
    let src = ShardMap::new(2).shard_of_cap(&root).expect("root is ours");
    let dst = (src + 1) % 2;

    // The reader warms its cache on the source home and keeps the lease
    // fresh through the migration window.
    let (reader, _) = cluster.client(&sim);
    let c2 = client.clone();
    let r2 = reader.clone();
    let warm = sim.spawn("warm-reader", move |ctx| {
        c2.append_row(ctx, root, "keep", root, vec![Rights::ALL])
            .unwrap();
        let mut served = 0u32;
        let until = ctx.now() + Duration::from_secs(8);
        while ctx.now() < until {
            if matches!(r2.lookup(ctx, root, "keep"), Ok(Some(_))) {
                served += 1;
            }
            ctx.sleep(Duration::from_millis(50));
        }
        served
    });
    // ...while a coordinator migrates the directory out from under it
    // and appends a row only the new home has.
    let (coordinator, _) = cluster.client(&sim);
    let mig = sim.spawn("coordinator", move |ctx| {
        ctx.sleep(Duration::from_secs(2));
        let moved = coordinator.migrate(ctx, root, dst).unwrap();
        coordinator
            .append_row(ctx, root, "after", root, vec![Rights::ALL])
            .unwrap();
        moved
    });
    sim.run_for(Duration::from_secs(20));
    let moved = mig.take().expect("migration completed under a live lease");
    assert_eq!(ShardMap::new(2).shard_of_cap(&moved), Some(dst));
    assert!(warm.take().expect("reader ran") > 0, "reader was warm");
    let s = reader.cache_stats().expect("cache is on");
    assert!(
        s.invalidations >= 1,
        "the stub install must revoke the reader's source lease, stats: {s:?}"
    );

    // The reader has chased the stub; now the tombstoned home dies.
    cluster.crash_server(&sim, cluster.column_index(src, 0));
    cluster.crash_server(&sim, cluster.column_index(src, 1));
    let audit = sim.spawn("audit", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        // Both the pre-migration row and the post-migration row are
        // served — from the new home, through the learned route, with
        // the old home dead. A stale source snapshot would miss
        // "after"; a resurrected tombstone would miss both.
        let keep = matches!(reader.lookup(ctx, root, "keep"), Ok(Some(_)));
        let after = matches!(reader.lookup(ctx, root, "after"), Ok(Some(_)));
        (keep, after)
    });
    sim.run_for(Duration::from_secs(20));
    let (keep, after) = audit.take().expect("audit ran");
    assert!(keep, "pre-migration contents served at the new home");
    assert!(
        after,
        "post-migration append visible — the dead source's lease covers nothing"
    );
}

#[test]
fn rebalancer_moves_hot_directories_off_a_skewed_shard() {
    // Every writer's directory starts on shard 0 (a deliberately skewed
    // placement); the lease-fenced rebalancer must notice the skew and
    // migrate directories toward shard 1 without any redeploy — and the
    // writers, holding the old capabilities, never notice beyond a
    // forwarding hop.
    let mut sim = Simulation::new(433);
    let mut params = ClusterParams::sharded(Variant::Group, 2);
    params.seed = 433;
    params.services.push(ServiceSpec::of::<LeaseService>());
    params.rebalancer = Some(RebalancerParams {
        interval: Duration::from_secs(1),
        skew_ratio: 2.0,
        min_hot_ops: 5,
        moves_per_round: 1,
        lease_ttl: 64,
    });
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    // Create directories until two live on shard 0.
    let setup = sim.spawn("setup", move |ctx| {
        let map = ShardMap::new(2);
        let mut on0 = Vec::new();
        while on0.len() < 2 {
            let cap = ready_root(ctx, &c2, &["owner"]);
            if map.shard_of_cap(&cap) == Some(0) {
                on0.push(cap);
            }
        }
        on0
    });
    sim.run_for(Duration::from_secs(40));
    let dirs = setup.take().expect("skewed placement created");

    let mut outs = Vec::new();
    for (w, dir) in dirs.iter().enumerate() {
        let (wc, _) = cluster.client(&sim);
        let dir = *dir;
        outs.push(sim.spawn(&format!("hot-writer{w}"), move |ctx| {
            let mut ok = 0u32;
            for k in 0..60 {
                let name = format!("h{w}-{k}");
                for _ in 0..10 {
                    match wc.append_row(ctx, dir, &name, dir, vec![Rights::ALL]) {
                        Ok(()) | Err(DirClientError::Service(DirError::DuplicateName)) => {
                            ok += 1;
                            break;
                        }
                        Err(_) => ctx.sleep(Duration::from_millis(50)),
                    }
                }
                ctx.sleep(Duration::from_millis(80));
            }
            ok
        }));
    }
    sim.run_for(Duration::from_secs(120));
    let total: u32 = outs.iter().map(|o| o.take().expect("writer done")).sum();
    assert_eq!(
        total, 120,
        "all writes acknowledged through the rebalancing"
    );
    assert!(
        cluster.shard_server(0, 0).stub_count() >= 1,
        "the rebalancer migrated at least one hot directory off shard 0"
    );
    // Whatever moved is fully served at its new home, via the old caps.
    let (fresh, _) = cluster.client(&sim);
    let dirs2 = dirs.clone();
    let audit = sim.spawn("audit", move |ctx| {
        dirs2.iter().all(|d| {
            fresh
                .list(ctx, *d)
                .map(|l| l.rows.len() == 60)
                .unwrap_or(false)
        })
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(audit.take(), Some(true));
}
