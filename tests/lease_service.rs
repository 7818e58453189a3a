//! The replicated lease service, the rebalancer's migration fence and
//! the volatile one of the two `amoeba-rsm` state machines: exclusive
//! TTL grants over logical time, ordered by the group; renewal,
//! expiry-by-contention, crash/rejoin via peer snapshots, and the
//! driver's cursor alignment after a majority loss.

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{LeaseClient, LeaseError};
use amoeba_dirsvc::flip::wire::Wire;
use amoeba_dirsvc::sim::{Ctx, Simulation};

fn lease_cluster(seed: u64) -> (Simulation, Cluster) {
    let mut sim = Simulation::new(seed);
    let mut params = ClusterParams::paper(Variant::Group);
    params.lease_service = true;
    params.seed = seed;
    let cluster = Cluster::start(&sim, params);
    sim.run_for(Duration::from_secs(5)); // let the groups form
    let _ = &mut sim;
    (sim, cluster)
}

#[test]
fn grant_renew_release_and_query() {
    let (mut sim, mut cluster) = lease_cluster(311);
    let (client, _) = cluster.lease_client(&sim);
    let out = sim.spawn("app", move |ctx| {
        // Grant.
        let e1 = loop {
            match client.grant(ctx, "mig:a", 7, 10) {
                Ok(Some(e)) => break e,
                Ok(None) => panic!("fresh lease must grant"),
                Err(_) => ctx.sleep(Duration::from_millis(200)),
            }
        };
        assert_eq!(client.query(ctx, "mig:a").unwrap(), Some((7, e1)));
        // Renewal by the same owner extends the expiry.
        let e2 = client.grant(ctx, "mig:a", 7, 10).unwrap().expect("renew");
        assert!(e2 > e1, "renewal must push the expiry out");
        // A different owner is fenced out while the lease is live.
        assert_eq!(client.grant(ctx, "mig:a", 8, 10).unwrap(), None);
        // Release frees it; a foreign release reports false.
        assert!(!client.release(ctx, "mig:a", 8).unwrap());
        assert!(client.release(ctx, "mig:a", 7).unwrap());
        assert_eq!(client.query(ctx, "mig:a").unwrap(), None);
        // Now the other owner can take it.
        assert!(client.grant(ctx, "mig:a", 8, 10).unwrap().is_some());
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true));
}

#[test]
fn dead_holder_expires_under_contention() {
    // The holder vanishes without releasing. Logical time only moves
    // with applied ops, so the contender's own retries age the grant
    // out: after `ttl` ordered operations the takeover must succeed.
    let (mut sim, mut cluster) = lease_cluster(313);
    let (client, _) = cluster.lease_client(&sim);
    let out = sim.spawn("app", move |ctx| {
        client
            .grant(ctx, "mig:hot", 1, 5)
            .unwrap()
            .expect("holder grants, then dies silently");
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match client.grant(ctx, "mig:hot", 2, 5).unwrap() {
                Some(_) => break,
                None => ctx.sleep(Duration::from_millis(50)),
            }
            assert!(attempts < 50, "contender must eventually take over");
        }
        // ttl = 5 ticks; each failed grant ticks the clock once, so the
        // takeover needs strictly more than one attempt...
        assert!(attempts > 1, "an unexpired lease must fence at least once");
        attempts
    });
    sim.run_for(Duration::from_secs(60));
    let attempts = out.take().expect("takeover completed");
    // ...and at most ttl + 1 of them (5 failed grants tick clock past
    // the expiry, the 6th wins).
    assert!(
        (2..=6).contains(&attempts),
        "takeover after ~ttl contended attempts, got {attempts}"
    );
}

#[test]
fn racing_grants_have_exactly_one_winner() {
    // Grants are ordered by the group's sequencer: of N racers for one
    // fresh lease, exactly one sees Granted, everyone else Busy.
    let (mut sim, mut cluster) = lease_cluster(317);
    let mut outs = Vec::new();
    for c in 0..4u64 {
        let (client, _) = cluster.lease_client(&sim);
        outs.push(sim.spawn(&format!("racer{c}"), move |ctx| loop {
            match client.grant(ctx, "mig:contended", c + 1, 1_000) {
                Ok(won) => return won.is_some(),
                Err(LeaseError::NoMajority) => ctx.sleep(Duration::from_millis(100)),
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        }));
    }
    sim.run_for(Duration::from_secs(60));
    let wins = outs
        .iter()
        .map(|o| o.take().expect("racer done"))
        .filter(|w| *w)
        .count();
    assert_eq!(wins, 1, "exactly one racer may hold the lease");
}

#[test]
fn crashed_replica_rejoins_via_peer_snapshot() {
    // The lease table is volatile: a rebooted replica recovers purely
    // from a peer's snapshot, and grants survive a single-replica
    // crash + rejoin.
    let (mut sim, mut cluster) = lease_cluster(331);
    let (client, _) = cluster.lease_client(&sim);
    let c2 = client.clone();
    let setup = sim.spawn("setup", move |ctx| {
        loop {
            match c2.grant(ctx, "mig:durable", 42, 1_000) {
                Ok(Some(_)) => break,
                _ => ctx.sleep(Duration::from_millis(200)),
            }
        }
        true
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(setup.take(), Some(true));

    cluster.crash_server(&sim, 2);
    sim.run_for(Duration::from_secs(5));
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(20));

    // The rejoined replica serves and knows the grant (read through the
    // service, then directly off the rejoined machine's table).
    let probe = sim.spawn("probe", move |ctx| {
        client.query(ctx, "mig:durable").unwrap().map(|(o, _)| o)
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(probe.take(), Some(Some(42)));
    assert!(cluster.lease(2).is_normal(), "replica 2 rejoined");
    assert_eq!(
        cluster
            .lease(2)
            .machine()
            .read(|t| t.holder("mig:durable"))
            .map(|(o, _)| o),
        Some(42),
        "the rejoined replica's own table holds the grant"
    );
}

/// Grants `name` to `owner` for good (no op in these runs comes near
/// the TTL), retrying up to `tries` times through an outage.
fn grant_until_ok(ctx: &Ctx, client: &LeaseClient, name: &str, owner: u64, tries: u32) -> bool {
    (0..tries).any(|_| match client.grant(ctx, name, owner, 1_000_000) {
        Ok(Some(_)) => true,
        _ => {
            ctx.sleep(Duration::from_millis(100));
            false
        }
    })
}

/// Majority loss with a stayed-up survivor: the group re-forms as a
/// **new instance** whose sequence numbers restart, the survivor is
/// the state-transfer source, and — the regression this pins — its
/// snapshot cursor must be re-aligned to the new instance, or the
/// fetching replicas would skip the new instance's first operations
/// and silently diverge.
#[test]
fn new_instance_after_majority_loss_does_not_skip_operations() {
    let (mut sim, mut cluster) = lease_cluster(107);
    let (client, _) = cluster.lease_client(&sim);
    let c = client.clone();
    // Drive the applied cursor well past anything a fresh instance
    // will reach with its first few slots.
    let out = sim.spawn("grow", move |ctx| {
        (0..25u64)
            .filter(|&k| grant_until_ok(ctx, &c, &format!("pre-{k}"), k, 20))
            .count()
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(25));

    // Kill the majority; replica 0 stays up (most current, holds the
    // whole table) and falls back to recovery. Restart the peers
    // *staggered*: replica 1 re-forms a new instance with 0, and only
    // then does replica 2 rejoin — so replica 2 fetches its snapshot
    // from a source already serving in the new instance, the case
    // where an un-aligned cursor is installed verbatim.
    cluster.crash_server(&sim, 1);
    cluster.crash_server(&sim, 2);
    sim.run_for(Duration::from_secs(5));
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(60));
    assert!(cluster.lease(0).is_normal(), "survivor not serving");
    assert!(cluster.lease(1).is_normal(), "replica 1 not serving");
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(60));
    for i in 0..3 {
        assert!(
            cluster.lease(i).is_normal(),
            "lease replica {i} did not re-enter service"
        );
    }

    // Operations in the NEW instance (small sequence numbers) must
    // apply on every replica — including the two that installed the
    // survivor's snapshot.
    let out = sim.spawn("post", move |ctx| {
        for k in 0..5u64 {
            let granted = grant_until_ok(ctx, &client, &format!("post-{k}"), 100 + k, 30);
            assert!(granted, "post-recovery grant {k} failed");
        }
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true));
    sim.run_for(Duration::from_secs(5)); // let the order drain everywhere
    let table = |i: usize| cluster.lease(i).machine().read(|t| t.encode());
    for i in 0..3 {
        let m = cluster.lease(i).machine();
        for k in 0..5u64 {
            assert_eq!(
                m.read(|t| t.holder(&format!("post-{k}"))).map(|(o, _)| o),
                Some(100 + k),
                "replica {i} skipped a new-instance operation"
            );
        }
        for k in 0..25u64 {
            assert_eq!(
                m.read(|t| t.holder(&format!("pre-{k}"))).map(|(o, _)| o),
                Some(k),
                "replica {i} lost a grant"
            );
        }
        assert_eq!(table(i), table(0), "replica {i} lease table diverged");
    }
}
