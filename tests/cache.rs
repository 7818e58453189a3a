//! The lease-fenced client-side directory cache: local hits and their
//! counters, the revoke-before-ack write fence under an invalidation
//! storm, cache-off behavioral equivalence, writes surviving a crashed
//! lease holder, session monotonicity under replica faults, and
//! revalidation: an expired snapshot is renewed without its rows only
//! while every byte of it is current.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{
    CacheParams, Capability, DirClient, DirClientError, DirReply, DirRequest, Rights,
};
use amoeba_dirsvc::flip::wire::Wire;
use amoeba_dirsvc::rpc::RpcClient;
use amoeba_dirsvc::sim::{Ctx, Simulation};
use amoeba_testkit::Gen;

fn ready_root(ctx: &Ctx, client: &DirClient, columns: &[&str]) -> Capability {
    loop {
        match client.create_dir(ctx, columns) {
            Ok(c) => return c,
            Err(_) => ctx.sleep(Duration::from_millis(100)),
        }
    }
}

/// A formed cluster with the client cache enabled on every machine.
fn cached_cluster(shards: usize, seed: u64) -> (Simulation, Cluster, DirClient, Capability) {
    let mut sim = Simulation::new(seed);
    let mut params = if shards > 1 {
        ClusterParams::sharded(Variant::Group, shards)
    } else {
        ClusterParams::paper(Variant::Group)
    };
    params.seed = seed;
    params.dir_cache = Some(CacheParams::default());
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let out = sim.spawn("form", move |ctx| ready_root(ctx, &c2, &["owner"]));
    sim.run_for(Duration::from_secs(40));
    let root = out.take().expect("cached service formed");
    (sim, cluster, client, root)
}

#[test]
fn repeat_lookups_are_served_locally_and_counted() {
    let (mut sim, mut cluster, writer, root) = cached_cluster(1, 501);
    let (reader, _) = cluster.client(&sim);
    let out = sim.spawn("app", move |ctx| {
        writer
            .append_row(ctx, root, "x", root, vec![Rights::ALL])
            .unwrap();
        // First lookup misses: it fetches the rows plus a read lease.
        assert!(reader.lookup(ctx, root, "x").unwrap().is_some());
        let s = reader.cache_stats().expect("cache is on");
        assert_eq!((s.misses, s.hits), (1, 0));
        // While the lease is live, lookups — including definitive
        // absences — are answered from the snapshot.
        assert!(reader.lookup(ctx, root, "x").unwrap().is_some());
        assert!(reader.lookup(ctx, root, "absent").unwrap().is_none());
        let s = reader.cache_stats().expect("cache is on");
        assert_eq!((s.misses, s.hits), (1, 2));
        // A local hit moves no packets: it costs zero simulated time.
        let t0 = ctx.now();
        assert!(reader.lookup(ctx, root, "x").unwrap().is_some());
        assert_eq!(ctx.now(), t0, "a cached hit must not touch the network");
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true));
}

#[test]
fn cache_off_and_cache_on_give_identical_outcomes() {
    // The same deterministic script against two deployments differing
    // only in `dir_cache`: every observable outcome must match.
    fn script(shards: usize, cached: bool, seed: u64) -> Vec<String> {
        let mut sim = Simulation::new(seed);
        let mut params = ClusterParams::sharded(Variant::Group, shards);
        params.seed = seed;
        if cached {
            params.dir_cache = Some(CacheParams::default());
        }
        let mut cluster = Cluster::start(&sim, params);
        let (client, _) = cluster.client(&sim);
        let out = sim.spawn("script", move |ctx| {
            let root = ready_root(ctx, &client, &["owner"]);
            let other = ready_root(ctx, &client, &["owner"]);
            let mut log = Vec::new();
            // Object numbers are allocation-order-dependent (the cached
            // deployment schedules differently), so record each result
            // relative to the two known directories instead.
            let mut note = |tag: &str, r: Result<Option<Capability>, DirClientError>| {
                let shown = r.map(|o| {
                    o.map(|c| {
                        if (c.port, c.object) == (root.port, root.object) {
                            "root"
                        } else if (c.port, c.object) == (other.port, other.object) {
                            "other"
                        } else {
                            "unknown"
                        }
                    })
                });
                log.push(format!("{tag}={shown:?}"));
            };
            client
                .append_row(ctx, root, "a", other, vec![Rights::ALL])
                .unwrap();
            note("a", client.lookup(ctx, root, "a"));
            note("z", client.lookup(ctx, root, "z"));
            // A write through the same client: the cached snapshot it
            // just installed must not survive the acknowledged delete.
            client.delete_row(ctx, root, "a").unwrap();
            note("a-after-delete", client.lookup(ctx, root, "a"));
            client
                .append_row(ctx, other, "b", root, vec![Rights::ALL])
                .unwrap();
            note("b", client.lookup(ctx, other, "b"));
            note("cross", client.lookup(ctx, other, "a"));
            client.delete_dir(ctx, other).unwrap();
            log.push(format!(
                "deleted-dir={:?}",
                client.lookup(ctx, other, "b").is_err()
            ));
            log
        });
        sim.run_for(Duration::from_secs(60));
        out.take().expect("script completed")
    }
    let off = script(2, false, 509);
    let on = script(2, true, 509);
    assert_eq!(off, on, "the cache must be behavior-invisible");
}

#[test]
fn write_burst_revokes_every_outstanding_lease_before_ack() {
    // The invalidation storm: N readers all hold a live lease on one
    // directory; a write lands. The ack must imply every lease was
    // revoked — each reader's *very next* lookup, issued the instant it
    // observes the ack, sees the new row instead of its dead snapshot.
    let (mut sim, mut cluster, writer, root) = cached_cluster(2, 505);
    const N: usize = 6;
    let acked = Arc::new(AtomicU64::new(0));
    let mut outs = Vec::new();
    let mut readers = Vec::new();
    for i in 0..N {
        let (reader, _) = cluster.client(&sim);
        readers.push(reader.clone());
        let acked = Arc::clone(&acked);
        outs.push(sim.spawn(&format!("reader-{i}"), move |ctx| {
            // Keep the lease live (lazy renewal) until the write acks.
            while acked.load(Ordering::Relaxed) == 0 {
                let _ = reader.lookup(ctx, root, "seed");
                ctx.sleep(Duration::from_millis(50));
            }
            reader.lookup(ctx, root, "burst").unwrap().is_some()
        }));
    }
    let a2 = Arc::clone(&acked);
    let wrote = sim.spawn("writer", move |ctx| {
        writer
            .append_row(ctx, root, "seed", root, vec![Rights::ALL])
            .unwrap();
        ctx.sleep(Duration::from_secs(2)); // every reader is warm
        writer
            .append_row(ctx, root, "burst", root, vec![Rights::ALL])
            .unwrap();
        a2.store(1, Ordering::Relaxed);
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(wrote.take(), Some(true));
    for (i, out) in outs.iter().enumerate() {
        assert_eq!(
            out.take(),
            Some(true),
            "reader {i} must see the acknowledged write, not its dead snapshot"
        );
    }
    for (i, reader) in readers.iter().enumerate() {
        let s = reader.cache_stats().expect("cache is on");
        assert!(
            s.invalidations >= 1,
            "reader {i}'s lease must have been revoked by callback, stats: {s:?}"
        );
    }
}

#[test]
fn a_crashed_lease_holder_cannot_block_writes_past_its_ttl() {
    // A lease whose holder never answers the invalidation callback (the
    // holder machine crashed): the write must still complete — after
    // outwaiting the lease deadline — rather than stall forever.
    let (mut sim, mut cluster, writer, root) = cached_cluster(1, 507);
    let (_, rpc, _) = cluster.client_machine(&sim);
    let out = sim.spawn("app", move |ctx| {
        writer
            .append_row(ctx, root, "x", root, vec![Rights::ALL])
            .unwrap();
        // Grant a read lease to a callback port nobody answers on.
        let req = DirRequest::FetchDir {
            cap: root,
            owner: 0xDEAD,
            cb_port: amoeba_dirsvc::flip::Port::from_name("crashed-holder"),
            ttl_us: 400_000,
            have: 0,
        };
        let bytes = rpc.trans(ctx, root.port, req.encode()).expect("transport");
        let reply = DirReply::decode(&bytes).expect("well-formed reply");
        assert!(
            matches!(reply, DirReply::Snapshot { .. }),
            "lease granted: {reply:?}"
        );
        let t0 = ctx.now();
        writer
            .append_row(ctx, root, "y", root, vec![Rights::ALL])
            .unwrap();
        let waited = ctx.now() - t0;
        assert!(
            waited >= Duration::from_millis(150),
            "the write must outwait the unreachable holder, waited {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "the wait is bounded by the lease TTL, waited {waited:?}"
        );
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true));
}

#[test]
fn cached_reads_are_session_monotonic_under_replica_faults() {
    // Property: once a write is acknowledged, a cached reader can never
    // again observe the pre-write state — across lease expiries,
    // renewals, and a replica crash + restart at a random round.
    amoeba_testkit::check("cached reads are session-monotonic", 4, |g: &mut Gen| {
        let seed = 601 + g.below(997) as u64;
        let (mut sim, mut cluster, writer, root) = cached_cluster(1, seed);
        let (reader, _) = cluster.client(&sim);
        let rounds = 3 + g.below(3);
        let crash_round = g.below(rounds);
        let crash_col = g.below(3);
        let mut crashed = None;
        for r in 0..rounds {
            if r == crash_round {
                let i = cluster.column_index(0, crash_col);
                cluster.crash_server(&sim, i);
                crashed = Some(i);
            }
            let w2 = writer.clone();
            let r2 = reader.clone();
            let round = sim.spawn(&format!("round-{r}"), move |ctx| {
                let name = format!("r{r}");
                loop {
                    match w2.append_row(ctx, root, &name, root, vec![Rights::ALL]) {
                        Ok(()) => break,
                        Err(DirClientError::Service(_)) => panic!("append {name} rejected"),
                        Err(_) => ctx.sleep(Duration::from_millis(100)),
                    }
                }
                // Every acknowledged name so far must be visible NOW —
                // a stale snapshot would report recent ones absent.
                for k in (0..=r).rev() {
                    let name = format!("r{k}");
                    loop {
                        match r2.lookup(ctx, root, &name) {
                            Ok(Some(_)) => break,
                            Ok(None) => panic!("acked row {name} invisible to cached reader"),
                            Err(_) => ctx.sleep(Duration::from_millis(100)),
                        }
                    }
                }
                true
            });
            sim.run_for(Duration::from_secs(20));
            assert_eq!(round.take(), Some(true), "round {r} timed out");
            if r == crash_round {
                if let Some(i) = crashed.take() {
                    cluster.restart_server(&sim, i);
                    sim.run_for(Duration::from_secs(10));
                }
            }
        }
    });
}

/// A fetch's grant is an ordered op on all three replicas, but only the
/// one whose thread submitted it owes the client an answer: the other
/// two build no reply and keep none, and the initiator's is gone the
/// moment its thread has taken it.
#[test]
fn a_grant_leaves_no_reply_behind_on_any_replica() {
    let mut sim = Simulation::new(504);
    let mut params = ClusterParams::paper(Variant::Group);
    params.seed = 504;
    // Leases short enough that every lookup below finds its own expired.
    params.dir_cache = Some(CacheParams {
        ttl: Duration::from_millis(20),
        renew_guard: Duration::from_millis(5),
    });
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("reader", move |ctx| {
        let root = ready_root(ctx, &client, &["owner"]);
        client
            .append_row(ctx, root, "x", root, vec![Rights::ALL])
            .unwrap();
        for _ in 0..200 {
            assert!(client.lookup(ctx, root, "x").unwrap().is_some());
            ctx.sleep(Duration::from_millis(25));
        }
        client.cache_stats().expect("cache is on")
    });
    sim.run_for(Duration::from_secs(60));
    let stats = out.take().expect("200 lookups returned");
    assert_eq!(
        (stats.misses + stats.stale_rejects, stats.renewals_saved),
        (200, 0),
        "every lookup fetched, each fetch was a grant: {stats:?}"
    );
    for i in 0..3 {
        let server = cluster.group_server(i);
        assert!(server.replica_stats().applied >= 200, "replica {i} applied");
        assert_eq!(server.unclaimed_results(), 0, "replica {i}");
    }
}

/// `hits + misses + renewals + stale_rejects` counts every lookup once.
fn lookups_counted(reader: &DirClient) -> u64 {
    let s = reader.cache_stats().expect("cache is on");
    s.hits + s.misses + s.renewals + s.stale_rejects
}

/// A raw `FetchDir` for a holder nobody calls back, naming version `have`.
fn fetch_raw(ctx: &Ctx, rpc: &RpcClient, dir: Capability, have: u64) -> Vec<u8> {
    let req = DirRequest::FetchDir {
        cap: dir,
        owner: 0xB0B,
        cb_port: amoeba_dirsvc::flip::Port::from_name("idle-holder"),
        ttl_us: 400_000,
        have,
    };
    rpc.trans(ctx, dir.port, req.encode())
        .expect("transport")
        .to_vec()
}

/// A lookup past its lease finds the entry kept; its refetch names the
/// snapshot's version, and the unchanged directory's lease is renewed
/// without the rows, which answer the lookups that follow.
#[test]
fn an_expired_entry_of_an_unchanged_directory_is_revalidated() {
    let (mut sim, mut cluster, writer, root) = cached_cluster(1, 511);
    let (reader, _) = cluster.client(&sim);
    let (_, rpc, _) = cluster.client_machine(&sim);
    let out = sim.spawn("app", move |ctx| {
        writer
            .append_row(ctx, root, "x", root, vec![Rights::ALL])
            .unwrap();
        assert!(reader.lookup(ctx, root, "x").unwrap().is_some());
        ctx.sleep(Duration::from_millis(500)); // past the 400 ms lease
        assert!(reader.lookup(ctx, root, "x").unwrap().is_some());
        assert!(reader.lookup(ctx, root, "absent").unwrap().is_none());
        let stats = reader.cache_stats().expect("cache is on");
        assert_eq!(lookups_counted(&reader), 3, "{stats:?}");

        // The same two fetches over the raw transport: the rows, then
        // the renewed lease alone.
        let version = match DirReply::decode(&fetch_raw(ctx, &rpc, root, 0)) {
            Ok(DirReply::Snapshot { version, rows, .. }) => {
                assert_eq!(rows.len(), 1);
                version
            }
            other => panic!("a fetch naming no version gets the rows: {other:?}"),
        };
        let again = fetch_raw(ctx, &rpc, root, version);
        (stats, again)
    });
    sim.run_for(Duration::from_secs(30));
    let (stats, again) = out.take().expect("lookups returned");
    assert_eq!(
        (
            stats.misses,
            stats.stale_rejects,
            stats.hits,
            stats.revalidated
        ),
        (1, 1, 1, 1),
        "{stats:?}"
    );
    assert!(
        matches!(DirReply::decode(&again), Ok(DirReply::Unchanged { .. })),
        "{again:?}"
    );
    assert!(again.len() < 32, "a revalidation is {} bytes", again.len());
}

/// A snapshot's rows carry capabilities re-issued with their objects'
/// checks. Deleting the directory a row points at and creating another
/// at the same object number changes that row's answer while the
/// leased directory itself is untouched, so the refetch must be sent in
/// full, and the cached lookup must equal `LookupSet`'s.
#[test]
fn a_recreated_directory_a_row_points_at_is_refetched_in_full() {
    let (mut sim, mut cluster, writer, root) = cached_cluster(1, 513);
    let (reader, _) = cluster.client(&sim);
    let (_, rpc, _) = cluster.client_machine(&sim);
    let out = sim.spawn("app", move |ctx| {
        let target = writer.create_dir(ctx, &["owner"]).unwrap();
        writer
            .append_row(ctx, root, "x", target, vec![Rights::ALL])
            .unwrap();
        let before = reader.lookup(ctx, root, "x").unwrap();
        ctx.sleep(Duration::from_millis(500)); // past the 400 ms lease
        writer.delete_dir(ctx, target).unwrap();
        let again = writer.create_dir(ctx, &["owner"]).unwrap();
        assert_eq!(again.object, target.object, "the object number is reused");
        let cached = reader.lookup(ctx, root, "x").unwrap();
        let items = vec![(root, "x".to_owned())];
        let req = DirRequest::LookupSet { items };
        let bytes = rpc.trans(ctx, root.port, req.encode()).expect("transport");
        let served = match DirReply::decode(&bytes) {
            Ok(DirReply::Caps(caps)) => caps[0],
            other => panic!("{other:?}"),
        };
        assert_eq!(lookups_counted(&reader), 2);
        (
            before,
            cached,
            served,
            reader.cache_stats().expect("cache is on"),
        )
    });
    sim.run_for(Duration::from_secs(30));
    let (before, cached, served, stats) = out.take().expect("lookups returned");
    assert_ne!(before, served, "the row's answer changed");
    assert_eq!(cached, served, "the cache answers as LookupSet does");
    assert_eq!(
        (stats.stale_rejects, stats.revalidated),
        (1, 0),
        "{stats:?}"
    );
}

/// An invalidation callback drops the entry, so the next lookup has no
/// version to name and gets the rows.
#[test]
fn an_invalidated_entry_is_refetched_in_full() {
    let (mut sim, mut cluster, writer, root) = cached_cluster(1, 515);
    let (reader, _) = cluster.client(&sim);
    let out = sim.spawn("app", move |ctx| {
        writer
            .append_row(ctx, root, "x", root, vec![Rights::ALL])
            .unwrap();
        assert!(reader.lookup(ctx, root, "x").unwrap().is_some());
        writer
            .append_row(ctx, root, "y", root, vec![Rights::ALL])
            .unwrap();
        assert!(reader.lookup(ctx, root, "y").unwrap().is_some());
        assert_eq!(lookups_counted(&reader), 2);
        reader.cache_stats().expect("cache is on")
    });
    sim.run_for(Duration::from_secs(30));
    let stats = out.take().expect("lookups returned");
    assert_eq!((stats.misses, stats.revalidated), (2, 0), "{stats:?}");
    assert!(stats.invalidations >= 1, "{stats:?}");
}
