//! The replicated lock/registry service in the cluster sim: a second
//! service on the same `amoeba-rsm` driver, sharing the directory
//! columns' machines and kernels while forming its own group — with
//! zero group-protocol code of its own.

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, ServiceSpec, Variant};
use amoeba_dirsvc::dir::{LockError, LockService};
use amoeba_dirsvc::sim::Simulation;

fn lock_cluster(seed: u64) -> (Simulation, Cluster) {
    let sim = Simulation::new(seed);
    let mut params = ClusterParams::paper(Variant::Group);
    params.services.push(ServiceSpec::of::<LockService>());
    let cluster = Cluster::start(&sim, params);
    (sim, cluster)
}

#[test]
fn lock_semantics_end_to_end() {
    let (mut sim, mut cluster) = lock_cluster(101);
    let (client, _) = cluster.service_client::<LockService>(&sim);
    let out = sim.spawn("app", move |ctx| {
        // Retry until the lock group has formed.
        loop {
            match client.acquire(ctx, "build/artifact", 7) {
                Ok(()) => break,
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        }
        // Re-acquire by the same owner is idempotent.
        client.acquire(ctx, "build/artifact", 7).unwrap();
        // A different owner is refused and told who holds it.
        assert_eq!(
            client.acquire(ctx, "build/artifact", 8),
            Err(LockError::Busy(7))
        );
        // Query behind the read barrier sees the holder.
        assert_eq!(client.query(ctx, "build/artifact").unwrap(), Some(7));
        assert_eq!(client.query(ctx, "other").unwrap(), None);
        // Release by a non-holder is refused; by the holder succeeds.
        assert_eq!(
            client.release(ctx, "build/artifact", 8),
            Err(LockError::NotHeld)
        );
        client.release(ctx, "build/artifact", 7).unwrap();
        assert_eq!(client.query(ctx, "build/artifact").unwrap(), None);
        // Now owner 8 can take it.
        client.acquire(ctx, "build/artifact", 8).unwrap();
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true));
}

/// Majority loss with a stayed-up survivor: the group re-forms as a
/// **new instance** whose sequence numbers restart, the survivor is
/// the state-transfer source, and — the regression this pins — its
/// snapshot cursor must be re-aligned to the new instance, or the
/// fetching replicas would skip the new instance's first operations
/// and silently diverge.
#[test]
fn new_instance_after_majority_loss_does_not_skip_operations() {
    let (mut sim, mut cluster) = lock_cluster(107);
    let (client, _) = cluster.service_client::<LockService>(&sim);
    let c = client.clone();
    // Drive the applied cursor well past anything a fresh instance
    // will reach with its first few slots.
    let out = sim.spawn("grow", move |ctx| {
        let mut done = 0;
        for k in 0..25u64 {
            let name = format!("pre-{k}");
            for _ in 0..20 {
                match c.acquire(ctx, &name, k) {
                    Ok(()) => {
                        done += 1;
                        break;
                    }
                    Err(_) => ctx.sleep(Duration::from_millis(100)),
                }
            }
        }
        done
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
    assert!(
        cluster.service::<LockService>(0).is_normal(),
        "survivor not serving"
    );
    assert!(
        cluster.service::<LockService>(1).is_normal(),
        "replica 1 not serving"
    );
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(60));
    for i in 0..3 {
        assert!(
            cluster.service::<LockService>(i).is_normal(),
            "lock replica {i} did not re-enter service"
        );
    }

    // Operations in the NEW instance (small sequence numbers) must
    // apply on every replica — including the two that installed the
    // survivor's snapshot.
    let c2 = client.clone();
    let out = sim.spawn("post", move |ctx| {
        for k in 0..5u64 {
            let name = format!("post-{k}");
            let mut ok = false;
            for _ in 0..30 {
                match c2.acquire(ctx, &name, 100 + k) {
                    Ok(()) => {
                        ok = true;
                        break;
                    }
                    Err(_) => ctx.sleep(Duration::from_millis(100)),
                }
            }
            assert!(ok, "post-recovery acquire {k} failed");
        }
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true));
    sim.run_for(Duration::from_secs(5)); // let the order drain everywhere
    for i in 0..3 {
        let m = cluster.service::<LockService>(i).machine();
        for k in 0..5u64 {
            assert_eq!(
                m.read(|t| t.get(&format!("post-{k}")).copied()),
                Some(100 + k),
                "replica {i} skipped a new-instance operation"
            );
        }
        assert_eq!(m.read(|t| t.len()), 30, "replica {i} lock table diverged");
    }
}

#[test]
fn lock_state_survives_crash_and_rejoin_via_state_transfer() {
    let (mut sim, mut cluster) = lock_cluster(103);
    let (client, _) = cluster.service_client::<LockService>(&sim);
    let c2 = client.clone();
    let out = sim.spawn("setup", move |ctx| {
        loop {
            match c2.acquire(ctx, "a", 1) {
                Ok(()) => break,
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        }
        c2.acquire(ctx, "b", 2).unwrap();
        true
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(out.take(), Some(true));

    // Crash a replica: the survivors (a majority) keep serving, and
    // the lock table — pure RAM state — survives through replication.
    cluster.crash_server(&sim, 2);
    sim.run_for(Duration::from_secs(3));
    let c3 = client.clone();
    let out = sim.spawn("during-crash", move |ctx| {
        let mut held = None;
        for _ in 0..100 {
            match c3.query(ctx, "a") {
                Ok(h) => {
                    held = h;
                    break;
                }
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        }
        assert_eq!(held, Some(1), "lock table lost with a minority crash");
        c3.acquire(ctx, "c", 3).unwrap();
        true
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(out.take(), Some(true));

    // Reboot the crashed column: its lock replica has nothing durable
    // and must recover the whole table from a peer's snapshot.
    cluster.restart_server(&sim, 2);
    let deadline = Duration::from_secs(40);
    sim.run_for(deadline);
    let rejoined = cluster.service::<LockService>(2);
    assert!(rejoined.is_normal(), "lock replica 2 did not rejoin");
    let m = rejoined.machine();
    assert_eq!(m.read(|t| t.get("a").copied()), Some(1));
    assert_eq!(m.read(|t| t.get("b").copied()), Some(2));
    assert_eq!(m.read(|t| t.get("c").copied()), Some(3));
    assert_eq!(m.read(|t| t.len()), 3);
}
