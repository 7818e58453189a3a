//! All four harness services (lock, registry, queue, lease) in one
//! deployment's `services` list, started and looked up through the one
//! generic path: a replica is crashed and restarted, and every
//! service's state on it is recovered from a peer's snapshot.

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, ServiceSpec, Variant};
use amoeba_dirsvc::dir::{LeaseService, LockService, QueueService, RegistryService};
use amoeba_dirsvc::flip::Port;
use amoeba_dirsvc::sim::Simulation;

#[test]
fn restarted_replica_recovers_every_service_from_a_peer() {
    let mut sim = Simulation::new(0x5E4C);
    let mut params = ClusterParams::paper(Variant::Group);
    params.services = vec![
        ServiceSpec::of::<LockService>(),
        ServiceSpec::of::<RegistryService>(),
        ServiceSpec::of::<QueueService>(),
        ServiceSpec::of::<LeaseService>(),
    ];
    let mut cluster = Cluster::start(&sim, params);
    let (lock, _) = cluster.service_client::<LockService>(&sim);
    let (registry, _) = cluster.service_client::<RegistryService>(&sim);
    let (queue, _) = cluster.service_client::<QueueService>(&sim);
    let (lease, _) = cluster.service_client::<LeaseService>(&sim);
    let port = Port::from_name("svc/files");

    // Replica 2 goes down before any state exists, so whatever it
    // holds after the reboot can only have come from a peer.
    sim.run_for(Duration::from_secs(3));
    cluster.crash_server(&sim, 2);
    let wrote = sim.spawn("writer", move |ctx| {
        // Retry each op until the surviving majority has reset.
        fn retry<T, E>(ctx: &amoeba_dirsvc::sim::Ctx, mut op: impl FnMut() -> Result<T, E>) -> T {
            loop {
                match op() {
                    Ok(v) => return v,
                    Err(_) => ctx.sleep(Duration::from_millis(100)),
                }
            }
        }
        retry(ctx, || lock.acquire(ctx, "leader", 7));
        retry(ctx, || registry.register(ctx, "svc/files", port));
        retry(ctx, || queue.enqueue(ctx, "jobs", b"first".to_vec()));
        retry(ctx, || queue.enqueue(ctx, "jobs", b"second".to_vec()));
        retry(ctx, || lease.grant(ctx, "fence", 42, 1_000)).is_some()
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(wrote.take(), Some(true), "writes with one replica down");

    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(40));

    let locks = cluster.service::<LockService>(2);
    assert!(locks.is_normal(), "lock replica rejoined");
    assert_eq!(locks.machine().read(|t| t.get("leader").copied()), Some(7));
    let bindings = cluster.service::<RegistryService>(2);
    assert!(bindings.is_normal(), "registry replica rejoined");
    assert_eq!(
        bindings.machine().read(|t| t.get("svc/files").copied()),
        Some(port)
    );
    let queues = cluster.service::<QueueService>(2);
    assert!(queues.is_normal(), "queue replica rejoined");
    assert_eq!(
        queues.machine().read(|t| t["jobs"].clone()),
        [b"first".to_vec(), b"second".to_vec()]
    );
    let leases = cluster.service::<LeaseService>(2);
    assert!(leases.is_normal(), "lease replica rejoined");
    assert_eq!(
        leases.machine().read(|t| t.holder("fence")).map(|(o, _)| o),
        Some(42)
    );
}
