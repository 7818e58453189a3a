//! The replicated lease service: exclusive TTL grants over logical
//! time, ordered by the group; renewal, expiry-by-contention, and
//! crash/rejoin via peer snapshots (fifth `amoeba-rsm` consumer).

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, ServiceSpec, Variant};
use amoeba_dirsvc::dir::{LeaseError, LeaseService};
use amoeba_dirsvc::sim::Simulation;

fn lease_cluster(seed: u64) -> (Simulation, Cluster) {
    let mut sim = Simulation::new(seed);
    let mut params = ClusterParams::paper(Variant::Group);
    params.services.push(ServiceSpec::of::<LeaseService>());
    params.seed = seed;
    let cluster = Cluster::start(&sim, params);
    sim.run_for(Duration::from_secs(5)); // let the groups form
    let _ = &mut sim;
    (sim, cluster)
}

#[test]
fn grant_renew_release_and_query() {
    let (mut sim, mut cluster) = lease_cluster(311);
    let (client, _) = cluster.service_client::<LeaseService>(&sim);
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
    let (client, _) = cluster.service_client::<LeaseService>(&sim);
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
        let (client, _) = cluster.service_client::<LeaseService>(&sim);
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
    let (client, _) = cluster.service_client::<LeaseService>(&sim);
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
    assert!(
        cluster.service::<LeaseService>(2).is_normal(),
        "replica 2 rejoined"
    );
    assert_eq!(
        cluster
            .service::<LeaseService>(2)
            .machine()
            .read(|t| t.holder("mig:durable"))
            .map(|(o, _)| o),
        Some(42),
        "the rejoined replica's own table holds the grant"
    );
}
