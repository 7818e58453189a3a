//! NVRAM-variant behaviour: crash persistence, annihilation, background
//! flushing (paper §4.1), and which storage each `paper()` preset
//! selects.

use std::time::Duration;

use amoeba_dirsvc::bullet::{start_bullet_server, BulletClient, BulletStore};
use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{
    Capability, DirClient, DirOp, DirParams, DirectoryStateMachine, Rights, ServiceConfig, Storage,
    StorageKind,
};
use amoeba_dirsvc::disk::{DiskParams, DiskServer, Nvram, RawPartition, VDisk};
use amoeba_dirsvc::flip::{NetParams, Network, Payload, Port};
use amoeba_dirsvc::rpc::{RpcClient, RpcNode};
use amoeba_dirsvc::rsm::StateMachine;
use amoeba_dirsvc::sim::{Ctx, NodeId, Resource, Simulation};

fn ready_root(ctx: &Ctx, client: &DirClient) -> Capability {
    loop {
        match client.create_dir(ctx, &["owner"]) {
            Ok(c) => return c,
            Err(_) => ctx.sleep(Duration::from_millis(100)),
        }
    }
}

#[test]
fn nvram_service_serves_all_operations() {
    let mut sim = Simulation::new(81);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::GroupNvram));
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("app", move |ctx| {
        let root = ready_root(ctx, &client);
        client
            .append_row(ctx, root, "a", root, vec![Rights::ALL])
            .unwrap();
        let hit = client.lookup(ctx, root, "a").unwrap();
        client.delete_row(ctx, root, "a").unwrap();
        let gone = client.lookup(ctx, root, "a").unwrap();
        (hit.is_some(), gone.is_none())
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some((true, true)));
}

#[test]
fn append_delete_pairs_annihilate_without_disk_writes() {
    let mut sim = Simulation::new(83);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::GroupNvram));
    let (client, _) = cluster.client(&sim);
    let disks: Vec<_> = cluster.columns.iter().map(|c| c.vdisk.clone()).collect();
    let nvrams: Vec<_> = cluster.columns.iter().map(|c| c.nvram.clone()).collect();
    let out = sim.spawn("app", move |ctx| {
        let root = ready_root(ctx, &client);
        ctx.sleep(Duration::from_millis(800)); // flush the root create
        let before: u64 = disks.iter().map(|d| d.stats().writes).sum();
        for i in 0..10 {
            let name = format!("tmp{i}");
            client
                .append_row(ctx, root, &name, root, vec![Rights::ALL])
                .unwrap();
            client.delete_row(ctx, root, &name).unwrap();
        }
        let after: u64 = disks.iter().map(|d| d.stats().writes).sum();
        let annihilated: u64 = nvrams.iter().map(|n| n.stats().annihilated).sum();
        (after - before, annihilated)
    });
    sim.run_for(Duration::from_secs(60));
    let (disk_writes, annihilated) = out.take().expect("workload finished");
    assert!(
        annihilated >= 3 * 10,
        "each replica must annihilate each pair (saw {annihilated})"
    );
    assert!(
        disk_writes <= 6,
        "annihilated pairs must not reach the disk (saw {disk_writes} writes)"
    );
}

#[test]
fn updates_survive_crash_via_nvram_replay() {
    // Commit to NVRAM only, crash a server before any flush, restart:
    // the update must still be there (NVRAM is battery-backed).
    let mut sim = Simulation::new(89);
    let mut params = ClusterParams::paper(Variant::GroupNvram);
    // Keep the flusher lazy so the update is only in NVRAM at crash time.
    params.dir.storage = StorageKind::Nvram {
        flush_threshold: 0.75,
        idle_flush: Duration::from_secs(300),
    };
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let setup = sim.spawn("setup", move |ctx| {
        let root = ready_root(ctx, &c2);
        c2.append_row(ctx, root, "persist-me", root, vec![Rights::ALL])
            .unwrap();
        root
    });
    sim.run_for(Duration::from_secs(20));
    let root = setup.take().expect("written");

    // Crash ALL servers (so recovery must come from local state), then
    // restart them.
    for i in 0..3 {
        cluster.crash_server(&sim, i);
    }
    sim.run_for(Duration::from_secs(2));
    for i in 0..3 {
        cluster.restart_server(&sim, i);
    }
    sim.run_for(Duration::from_secs(30));
    let c3 = client.clone();
    let check = sim.spawn("check", move |ctx| {
        for _ in 0..100 {
            match c3.lookup(ctx, root, "persist-me") {
                Ok(Some(_)) => return true,
                Ok(None) => return false,
                Err(_) => ctx.sleep(Duration::from_millis(200)),
            }
        }
        false
    });
    sim.run_for(Duration::from_secs(40));
    assert_eq!(
        check.take(),
        Some(true),
        "an NVRAM-committed update must survive a full-cluster crash"
    );
}

#[test]
fn updates_eventually_reach_the_disk() {
    let mut sim = Simulation::new(97);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::GroupNvram));
    let (client, _) = cluster.client(&sim);
    let disks: Vec<_> = cluster.columns.iter().map(|c| c.vdisk.clone()).collect();
    let out = sim.spawn("app", move |ctx| {
        let root = ready_root(ctx, &client);
        client
            .append_row(ctx, root, "durable", root, vec![Rights::ALL])
            .unwrap();
        let before: u64 = disks.iter().map(|d| d.stats().writes).sum();
        // Idle: the background flusher must apply the log to disk.
        ctx.sleep(Duration::from_secs(2));
        let after: u64 = disks.iter().map(|d| d.stats().writes).sum();
        after > before || before > 0
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true), "idle flusher must write to disk");
}

// ---------------------------------------------------------------------
// The NVRAM log on one machine: what a reboot finds of an acknowledged
// update.
// ---------------------------------------------------------------------

/// A directory machine with the paper's 24 KB NVRAM on a node of its
/// own, over an instant disk with a Bullet server, and the node.
fn nvram_machine(sim: &Simulation) -> (NodeId, DirectoryStateMachine) {
    let node = sim.add_node("m");
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let rpc = RpcNode::start(node, net.attach());
    let disk = DiskServer::start(sim, node, VDisk::new(256, 4096), DiskParams::instant());
    let cfg = ServiceConfig::new(3, 0);
    let store = BulletStore::new(240, 4096, 0xB0);
    start_bullet_server(
        sim,
        node,
        &rpc,
        cfg.bullet_port(0),
        disk.clone(),
        store,
        16,
        1,
    );
    let sm = DirectoryStateMachine::standalone(
        cfg.clone(),
        DirParams {
            storage: StorageKind::nvram(),
            ..DirParams::default()
        },
        BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0)),
        RawPartition::new(disk, 0, 16),
        Storage::Nvram {
            nvram: Nvram::paper_24k(),
            flush_threshold: 0.75,
            idle_flush: Duration::from_millis(200),
        },
        Resource::new(sim.handle(), "cpu"),
    );
    (node, sm)
}

/// The owner capability of directory `object` (created with check
/// `0xC0 | object`).
fn dir_cap(object: u64) -> Capability {
    Capability::owner(ServiceConfig::new(3, 0).public_port, object, 0xC0 | object)
}

/// Row `r`'s name, long enough that 150 rows of two directories make a
/// record larger than the 24 KB device.
fn row_name(r: usize) -> String {
    format!("{r:03}-a-name-long-enough-to-fill-the-log-in-a-few-hundred-rows")
}

/// Creates directories 1 and 2, appends `rows` rows to each, and drains
/// the log to disk: the state every scenario starts from. Returns the
/// next group seq.
fn two_dirs_on_disk(ctx: &Ctx, sm: &DirectoryStateMachine, rows: usize) -> u64 {
    let mut seq = 0;
    let mut apply = |op: DirOp| {
        seq += 1;
        sm.apply(ctx, seq, &op.encode(), false);
        sm.flush(ctx);
    };
    for object in [1, 2] {
        apply(DirOp::Create {
            columns: vec!["owner".into()],
            check: 0xC0 | object,
        });
    }
    for object in [1, 2] {
        for r in 0..rows {
            apply(DirOp::Append {
                object,
                name: row_name(r),
                cap: dir_cap(object),
                col_rights: vec![Rights::ALL],
            });
        }
    }
    sm.tend(ctx);
    seq + 1
}

/// A `ReplaceSet` pointing every named row of both directories at
/// another service's object: one op that edits both.
fn replace_in_both(rows: usize) -> DirOp {
    let cap = Capability::owner(Port::from_name("elsewhere"), 9, 0x9);
    DirOp::ReplaceSet {
        items: [2, 1]
            .into_iter()
            .flat_map(|object| (0..rows).map(move |r| (object, row_name(r), cap)))
            .collect(),
    }
}

/// What a holder of each directory's owner capability is sent, and the
/// update seq.
fn answers(ctx: &Ctx, sm: &DirectoryStateMachine, objects: &[u64]) -> (Vec<Payload>, u64) {
    let answers = objects
        .iter()
        .map(|&o| sm.lease_answer(ctx, &dir_cap(o), 0, 1))
        .collect();
    (answers, sm.update_seq())
}

/// Runs `scenario` on a fresh NVRAM machine, then boots a cold machine
/// over the same disk and NVRAM, and returns what each saw of the
/// directories `objects`.
fn before_and_after_reboot(
    objects: &'static [u64],
    scenario: impl FnOnce(&Ctx, &DirectoryStateMachine) + 'static,
) -> [(Vec<Payload>, u64); 2] {
    let mut sim = Simulation::new(7);
    let (node, sm) = nvram_machine(&sim);
    let out = sim.spawn_on(node, "replica", move |ctx| {
        scenario(ctx, &sm);
        let before = answers(ctx, &sm, objects);
        let rebooted = sm.reopen_for_test();
        rebooted.boot(ctx);
        [before, answers(ctx, &rebooted, objects)]
    });
    sim.run_for(Duration::from_secs(600));
    out.take().expect("the scenario ran")
}

/// A `ReplaceSet` that edits two directories is logged once, tagged with
/// its first; a reboot must replay it into both.
#[test]
fn nvram_replay_keeps_a_replace_set_across_directories() {
    let [before, after] = before_and_after_reboot(&[1, 2], |ctx, sm| {
        let seq = two_dirs_on_disk(ctx, sm, 2);
        sm.apply(ctx, seq, &replace_in_both(2).encode(), false);
        sm.flush(ctx);
    });
    assert_eq!(after, before, "the reboot lost part of the ReplaceSet");
}

/// A flush of the log writes every directory its records edit before it
/// drops them.
#[test]
fn nvram_flush_writes_every_directory_a_replace_set_edits() {
    let [before, after] = before_and_after_reboot(&[1, 2], |ctx, sm| {
        let seq = two_dirs_on_disk(ctx, sm, 2);
        sm.apply(ctx, seq, &replace_in_both(2).encode(), false);
        sm.flush(ctx);
        sm.tend(ctx);
    });
    assert_eq!(after, before, "the flush dropped part of the ReplaceSet");
}

/// Deleting the first directory a logged `ReplaceSet` edits leaves its
/// record: the other directory's replacement is still owed.
#[test]
fn nvram_delete_keeps_a_record_that_edits_another_directory() {
    let [before, after] = before_and_after_reboot(&[2], |ctx, sm| {
        let seq = two_dirs_on_disk(ctx, sm, 2);
        sm.apply(ctx, seq, &replace_in_both(2).encode(), false);
        sm.apply(ctx, seq + 1, &DirOp::Delete { object: 1 }.encode(), false);
        sm.flush(ctx);
    });
    assert_eq!(
        after, before,
        "the delete took directory 2's update with it"
    );
}

/// A create that no later record edits reaches the disk with the idle
/// flush, which drops its record.
#[test]
fn nvram_flush_writes_the_directory_a_create_made() {
    let [before, after] = before_and_after_reboot(&[1], |ctx, sm| {
        let create = DirOp::Create {
            columns: vec!["owner".into()],
            check: 0xC0 | 1,
        };
        sm.apply(ctx, 1, &create.encode(), false);
        sm.flush(ctx);
        sm.tend(ctx);
    });
    assert_eq!(after, before, "the idle flush lost the create");
}

/// A delete leaves the record of the create that made its directory:
/// replay re-runs the allocator, and without that create the next one
/// would take the deleted directory's number.
#[test]
fn nvram_delete_keeps_the_create_record_replay_allocates_by() {
    let [before, after] = before_and_after_reboot(&[2], |ctx, sm| {
        for (seq, object) in [(1, 1), (2, 2)] {
            let create = DirOp::Create {
                columns: vec!["owner".into()],
                check: 0xC0 | object,
            };
            sm.apply(ctx, seq, &create.encode(), false);
        }
        sm.apply(ctx, 3, &DirOp::Delete { object: 1 }.encode(), false);
        sm.flush(ctx);
    });
    assert_eq!(after, before, "replay put directory 2 elsewhere");
}

/// An op whose record is larger than the whole device is committed in
/// place before it is acknowledged.
#[test]
fn an_nvram_record_larger_than_the_device_is_committed_in_place() {
    let [before, after] = before_and_after_reboot(&[1, 2], |ctx, sm| {
        let seq = two_dirs_on_disk(ctx, sm, 150);
        let op = replace_in_both(150).encode();
        assert!(
            op.len() > Nvram::paper_24k().capacity(),
            "{} bytes",
            op.len()
        );
        sm.apply(ctx, seq, &op, false);
        sm.flush(ctx);
    });
    assert_eq!(after, before, "an acknowledged op was not durable");
}

/// `paper()` is the paper's storage whatever the default: the in-place
/// commit (§3.1) for every variant and constructor, the NVRAM log
/// (§4.1) for `GroupNvram`.
#[test]
fn every_paper_preset_selects_the_papers_storage() {
    for variant in [
        Variant::Group,
        Variant::GroupNvram,
        Variant::Rpc,
        Variant::Nfs,
    ] {
        let expected = match variant {
            Variant::GroupNvram => StorageKind::nvram(),
            _ => StorageKind::InPlace,
        };
        for params in [
            ClusterParams::paper(variant),
            ClusterParams::routed(variant),
            ClusterParams::sharded(variant, 4),
            ClusterParams::sharded_routed(variant, 4),
            ClusterParams::sharded_chain(variant, 4, 2),
        ] {
            assert_eq!(params.dir.storage, expected, "{}", variant.label());
        }
    }
}
