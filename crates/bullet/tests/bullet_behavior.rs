//! End-to-end Bullet server behaviour over RPC and the simulated disk.

use std::time::Duration;

use amoeba_bullet::{start_bullet_server, BulletClient, BulletError, BulletStore};
use amoeba_disk::{DiskParams, DiskServer, VDisk};
use amoeba_flip::{NetParams, Network, Port};
use amoeba_rpc::{RpcClient, RpcNode};
use amoeba_sim::Simulation;

struct Rig {
    sim: Simulation,
    client: BulletClient,
    disk: VDisk,
}

fn rig() -> Rig {
    let sim = Simulation::new(3);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 9);
    let service = Port::from_name("bullet.test");

    let srv_node = sim.add_node("bullet-machine");
    let srv_stack = net.attach();
    let srv_rpc = RpcNode::start(srv_node, srv_stack);
    let disk = VDisk::new(4096, 4096);
    let disk_srv = DiskServer::start(&sim, srv_node, disk.clone(), DiskParams::wren_iv());
    let store = BulletStore::new(4096, 4096, 42);
    start_bullet_server(&sim, srv_node, &srv_rpc, service, disk_srv, store, 0, 2);

    let cli_node = sim.add_node("client-machine");
    let cli_stack = net.attach();
    let cli_rpc = RpcNode::start(cli_node, cli_stack);
    let client = BulletClient::new(RpcClient::new(&cli_rpc), service);
    Rig { sim, client, disk }
}

#[test]
fn create_read_delete_cycle() {
    let Rig {
        mut sim, client, ..
    } = rig();
    let out = sim.spawn("app", move |ctx| {
        let cap = client.create(ctx, b"hello bullet".to_vec()).unwrap();
        let data = client.read(ctx, cap).unwrap();
        let size = client.size(ctx, cap).unwrap();
        client.delete(ctx, cap).unwrap();
        let gone = client.read(ctx, cap);
        (data, size, gone)
    });
    sim.run_for(Duration::from_secs(5));
    let (data, size, gone) = out.take().unwrap();
    assert_eq!(data, b"hello bullet");
    assert_eq!(size, 12);
    assert_eq!(gone, Err(BulletError::BadCapability));
}

/// Every directory update creates a file and deletes its predecessor:
/// the dead file's blocks must stop holding memory, or a long run's
/// footprint grows with simulated time.
#[test]
fn deleted_files_leave_no_resident_blocks() {
    let Rig {
        mut sim,
        client,
        disk,
    } = rig();
    let d = disk.clone();
    let out = sim.spawn("app", move |ctx| {
        let keep = client.create(ctx, vec![1u8; 5000]).unwrap();
        let resident = d.resident_blocks();
        let stats = d.stats();
        let cap = client.create(ctx, vec![2u8; 9000]).unwrap();
        let writes = d.stats().since(&stats);
        client.delete(ctx, cap).unwrap();
        assert_eq!(d.stats().since(&stats), writes, "a delete is no disk op");
        assert_eq!(d.resident_blocks(), resident);
        for _ in 0..1_000 {
            let cap = client.create(ctx, vec![3u8; 9000]).unwrap();
            client.delete(ctx, cap).unwrap();
        }
        assert_eq!(d.resident_blocks(), resident, "1,000 cycles later");
        // The first deleted file lay in blocks 2..5, right after `keep`.
        assert!((2..5).all(|b| d.read_block(b).iter().all(|&x| x == 0)));
        client.read(ctx, keep).unwrap().len()
    });
    sim.run_for(Duration::from_secs(200));
    assert_eq!(out.take(), Some(5000));
}

#[test]
fn create_costs_one_disk_write_run() {
    let Rig {
        mut sim,
        client,
        disk,
    } = rig();
    let before = disk.stats();
    let out = sim.spawn("app", move |ctx| {
        let t0 = ctx.now();
        let cap = client.create(ctx, vec![7u8; 100]).unwrap();
        let create_time = ctx.now() - t0;
        (cap, create_time)
    });
    sim.run_for(Duration::from_secs(5));
    let (_cap, create_time) = out.take().unwrap();
    let after = disk.stats();
    assert_eq!(after.since(&before).writes, 1, "one contiguous write");
    // RPC (~2 ms) + one disk access (~41 ms).
    assert!(
        create_time >= Duration::from_millis(38) && create_time <= Duration::from_millis(55),
        "create took {create_time:?}"
    );
}

#[test]
fn cached_read_does_no_disk_io() {
    let Rig {
        mut sim,
        client,
        disk,
    } = rig();
    let disk2 = disk.clone();
    let out = sim.spawn("app", move |ctx| {
        let cap = client.create(ctx, vec![1u8; 64]).unwrap();
        let before = disk2.stats();
        let t0 = ctx.now();
        let data = client.read(ctx, cap).unwrap();
        let read_time = ctx.now() - t0;
        let after = disk2.stats();
        (data.len(), after.since(&before).reads, read_time)
    });
    sim.run_for(Duration::from_secs(5));
    let (len, reads, read_time) = out.take().unwrap();
    assert_eq!(len, 64);
    assert_eq!(reads, 0, "served from RAM cache");
    assert!(
        read_time < Duration::from_millis(5),
        "cached read {read_time:?}"
    );
}

#[test]
fn forged_capability_is_rejected() {
    let Rig {
        mut sim, client, ..
    } = rig();
    let out = sim.spawn("app", move |ctx| {
        let cap = client.create(ctx, vec![1]).unwrap();
        let forged = amoeba_bullet::FileCap {
            object: cap.object,
            check: cap.check.wrapping_add(1),
        };
        (
            client.read(ctx, forged),
            client.delete(ctx, forged),
            client.read(ctx, cap).is_ok(),
        )
    });
    sim.run_for(Duration::from_secs(5));
    let (read, del, orig_ok) = out.take().unwrap();
    assert_eq!(read, Err(BulletError::BadCapability));
    assert_eq!(del, Err(BulletError::BadCapability));
    assert!(orig_ok);
}

#[test]
fn files_are_immutable_and_independent() {
    let Rig {
        mut sim, client, ..
    } = rig();
    let out = sim.spawn("app", move |ctx| {
        let a = client.create(ctx, vec![1; 10]).unwrap();
        let b = client.create(ctx, vec![2; 20]).unwrap();
        client.delete(ctx, a).unwrap();
        client.read(ctx, b).unwrap()
    });
    sim.run_for(Duration::from_secs(5));
    assert_eq!(out.take(), Some(amoeba_flip::Payload::from(vec![2; 20])));
}

#[test]
fn large_file_round_trips_across_blocks() {
    let Rig {
        mut sim, client, ..
    } = rig();
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    let expected = payload.clone();
    let out = sim.spawn("app", move |ctx| {
        let cap = client.create(ctx, payload).unwrap();
        client.read(ctx, cap).unwrap()
    });
    sim.run_for(Duration::from_secs(5));
    assert_eq!(out.take(), Some(amoeba_flip::Payload::from(expected)));
}
