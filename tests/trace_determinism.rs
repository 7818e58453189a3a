//! Decision traces of whole deployments: a golden digest captured on the
//! commit before the simulator kernel changed hands (so "checkpoint order
//! unchanged" is checked, not assumed), and same-seed trace equality for
//! a deployment with auxiliary services (≥ 2 group instances per peer).

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, ServiceSpec, Variant};
use amoeba_dirsvc::dir::{Capability, DirClient, LockService, RegistryService, Rights};
use amoeba_dirsvc::flip::Port;
use amoeba_dirsvc::sim::{Ctx, SimTrace, Simulation};

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn ready_root(ctx: &Ctx, client: &DirClient) -> Capability {
    loop {
        match client.create_dir(ctx, &["owner"]) {
            Ok(c) => return c,
            Err(_) => ctx.sleep(Duration::from_millis(100)),
        }
    }
}

/// Appends `n` rows, one every 200 ms, retrying through outages.
fn spawn_writer(sim: &Simulation, client: DirClient, n: u32) {
    sim.spawn("writer", move |ctx| {
        let root = ready_root(ctx, &client);
        for i in 0..n {
            while client
                .append_row(ctx, root, &format!("row-{i}"), root, vec![Rights::ALL])
                .is_err()
            {
                ctx.sleep(Duration::from_millis(100));
            }
            ctx.sleep(Duration::from_millis(200));
        }
    });
}

/// `paper()` directory service, one crash + reboot under a small write
/// load. Directory-only, so it repeats bit for bit on any machine.
fn record_directory_crash_reboot() -> SimTrace {
    let mut sim = Simulation::recording(0xD1CE);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    let (client, _) = cluster.client(&sim);
    spawn_writer(&sim, client, 40);
    sim.run_for(Duration::from_secs(8));
    cluster.crash_server(&sim, 2);
    sim.run_for(Duration::from_secs(6));
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(16));
    assert!(cluster.group_server(2).is_normal(), "server 2 recovered");
    assert_eq!(
        cluster.group_server(2).update_seq(),
        cluster.group_server(0).update_seq()
    );
    sim.take_recording().expect("recording was enabled")
}

#[test]
fn directory_crash_reboot_trace_matches_the_golden_digest() {
    let trace = record_directory_crash_reboot();
    assert_eq!(
        (trace.steps.len(), fnv1a(&trace.to_bytes())),
        (GOLDEN_STEPS, GOLDEN_DIGEST),
        "the kernel's decision order changed"
    );
}

const GOLDEN_STEPS: usize = 26_449;
const GOLDEN_DIGEST: u64 = 10_379_442_515_077_094_120;

/// `paper()` + lock + registry under load: three lock clients contending
/// for one name, a registry client and a directory writer, across a
/// crash and reboot of one machine.
fn record_with_auxiliary_services() -> SimTrace {
    let mut sim = Simulation::recording(0x5E4C);
    let mut params = ClusterParams::paper(Variant::Group);
    params.services = vec![
        ServiceSpec::of::<LockService>(),
        ServiceSpec::of::<RegistryService>(),
    ];
    let mut cluster = Cluster::start(&sim, params);
    for owner in 1..=3u64 {
        let (lock, _) = cluster.service_client::<LockService>(&sim);
        sim.spawn(&format!("locker-{owner}"), move |ctx| {
            for _ in 0..30 {
                if lock.acquire(ctx, "leader", owner).is_ok() {
                    ctx.sleep(Duration::from_millis(30));
                    let _ = lock.release(ctx, "leader", owner);
                }
                ctx.sleep(Duration::from_millis(70));
            }
        });
    }
    let (registry, _) = cluster.service_client::<RegistryService>(&sim);
    sim.spawn("registrar", move |ctx| {
        for i in 0..40u32 {
            let name = format!("svc/{}", i % 5);
            let _ = registry.register(ctx, &name, Port::from_name(&name));
            let _ = registry.lookup(ctx, &name);
            ctx.sleep(Duration::from_millis(90));
        }
    });
    let (client, _) = cluster.client(&sim);
    spawn_writer(&sim, client, 20);
    // A crash makes every surviving peer's instances detect the failure
    // on the same tick — the per-tick action order is what must repeat.
    sim.run_for(Duration::from_secs(5));
    cluster.crash_server(&sim, 1);
    sim.run_for(Duration::from_secs(4));
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(12));
    sim.take_recording().expect("recording was enabled")
}

#[test]
fn auxiliary_services_record_the_same_trace_twice() {
    let a = record_with_auxiliary_services();
    let b = record_with_auxiliary_services();
    assert!(a.steps.len() > 10_000, "the load ran: {}", a.steps.len());
    if let Some(i) = (0..a.steps.len().min(b.steps.len())).find(|&i| a.steps[i] != b.steps[i]) {
        panic!(
            "traces part at step {i} of {}: {:?} vs {:?}",
            a.steps.len(),
            a.steps[i],
            b.steps[i]
        );
    }
    assert_eq!(a.steps.len(), b.steps.len());
}
