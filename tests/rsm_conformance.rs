//! Conformance suite for the `amoeba-rsm` [`StateMachine`] contract,
//! run against the directory machine on each storage path (in place,
//! group log, NVRAM), plus crash tests proving the
//! group-commit batching invariants: a batch becomes durable through
//! one flush, and recovery never observes a partially applied batch.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use amoeba_dirsvc::bullet::{start_bullet_server, BulletClient, BulletStore};
use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{
    Capability, DirOp, DirParams, DirectoryStateMachine, Rights, ServiceConfig, Storage,
    StorageKind,
};
use amoeba_dirsvc::disk::{DiskParams, DiskServer, Journal, Nvram, RawPartition, VDisk};
use amoeba_dirsvc::flip::wire::WireWriter;
use amoeba_dirsvc::flip::{NetParams, Network, Payload, Port};
use amoeba_dirsvc::rpc::{RpcClient, RpcNode};
use amoeba_dirsvc::rsm::StateMachine;
use amoeba_dirsvc::sim::{Ctx, NodeId, Resource, Simulation};

// ---------------------------------------------------------------------
// The generic conformance checks.
// ---------------------------------------------------------------------

/// Drives two machines through the same op stream (in batches with one
/// `flush` each — exactly what the driver does) and checks the trait
/// contract: deterministic replies, cursor-consistent snapshots, and
/// snapshot/install equivalence into a fresh machine.
///
/// `a` is asked for every reply, as the replica whose thread submitted
/// the op is; `b` for none, as every other replica. `b` must return
/// nothing and still be `a`'s equal — snapshot (leases included),
/// version and cursor — after every single op. `golden` pins
/// replies of `a` by sequence number, in hex, as the last commit whose
/// `apply` had no `reply` flag produced them.
fn check_conformance<S: StateMachine>(
    ctx: &Ctx,
    a: &S,
    b: &S,
    fresh: &S,
    batch1: &[Payload],
    batch2: &[Payload],
    golden: &[(u64, &str)],
) {
    let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
    let asked_and_unasked = |seq: u64, op: &Payload| {
        let ra = a.apply(ctx, seq, op, true);
        let rb = b.apply(ctx, seq, op, false);
        assert!(rb.is_empty(), "apply #{seq}: a reply nobody asked for");
        assert_eq!(
            a.snapshot(ctx),
            b.snapshot(ctx),
            "apply #{seq}: state depends on `reply`"
        );
        assert_eq!(a.version(), b.version(), "apply #{seq}");
        if let Some((_, bytes)) = golden.iter().find(|(s, _)| *s == seq) {
            assert_eq!(hex(&ra), *bytes, "apply #{seq}: reply bytes moved");
        }
        ra
    };
    let mut seq = 0u64;
    // Batch 1 on a and b, then one group commit.
    for op in batch1 {
        seq += 1;
        asked_and_unasked(seq, op);
    }
    a.flush(ctx);
    b.flush(ctx);
    let (cur_a, snap_a) = a.snapshot(ctx);
    let (cur_b, snap_b) = b.snapshot(ctx);
    assert_eq!(cur_a, seq, "snapshot cursor must cover every apply");
    assert_eq!(cur_a, cur_b);
    assert_eq!(snap_a, snap_b, "same op stream must yield same snapshot");

    // Install into a fresh machine: state transfer must leave it
    // exactly as if it had applied the order itself.
    assert!(fresh.install(ctx, cur_a, &snap_a), "snapshot must install");
    let (cur_f, snap_f) = fresh.snapshot(ctx);
    assert_eq!((cur_f, &snap_f), (cur_a, &snap_a), "install not faithful");

    // Batch 2 on all three: the installed machine must stay in step,
    // and answers what `a` answers when it is the one asked.
    for op in batch2 {
        seq += 1;
        let ra = asked_and_unasked(seq, op);
        let rf = fresh.apply(ctx, seq, op, true);
        assert_eq!(ra, rf, "apply #{seq} diverged after state transfer");
    }
    a.flush(ctx);
    b.flush(ctx);
    fresh.flush(ctx);
    let (ca, sa) = a.snapshot(ctx);
    let (cb, sb) = b.snapshot(ctx);
    let (cf, sf) = fresh.snapshot(ctx);
    assert_eq!(ca, seq);
    assert_eq!((ca, &sa), (cb, &sb));
    assert_eq!((ca, &sa), (cf, &sf), "installed machine diverged");
    // Idempotence: flushing with nothing pending is a no-op.
    a.flush(ctx);
    let (ca2, sa2) = a.snapshot(ctx);
    assert_eq!((ca, &sa), (ca2, &sa2));
}

// ---------------------------------------------------------------------
// Directory-machine harness: one storage column per machine.
// ---------------------------------------------------------------------

struct DirColumn {
    sm: Rc<DirectoryStateMachine>,
    node: NodeId,
    vdisk: VDisk,
}

const TABLE_BLOCKS: u64 = 16;

fn dir_column(
    sim: &Simulation,
    net: &Network,
    idx: usize,
    disk_params: DiskParams,
    dir_params: DirParams,
) -> DirColumn {
    dir_column_with(sim, net, idx, disk_params, dir_params, Storage::InPlace)
}

/// [`dir_column`] over the given commit path, e.g. the machine's NVRAM.
fn dir_column_with(
    sim: &Simulation,
    net: &Network,
    idx: usize,
    disk_params: DiskParams,
    dir_params: DirParams,
    storage: Storage,
) -> DirColumn {
    let cfg = ServiceConfig::new(3, idx);
    let node = sim.add_node(&format!("col-{idx}"));
    let stack = net.attach();
    let rpc = RpcNode::start(node, stack);
    let vdisk = VDisk::new(2048, 4096);
    let disk = DiskServer::start(sim, node, vdisk.clone(), disk_params);
    let partition = RawPartition::new(disk.clone(), 0, TABLE_BLOCKS);
    let store = BulletStore::new(2048 - TABLE_BLOCKS, 4096, 0xB0 + idx as u64);
    start_bullet_server(
        sim,
        node,
        &rpc,
        cfg.bullet_port(idx),
        disk,
        store,
        TABLE_BLOCKS,
        2,
    );
    let bullet = BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(idx));
    let cpu = Resource::new(sim.handle(), &format!("cpu-{idx}"));
    DirColumn {
        sm: Rc::new(DirectoryStateMachine::standalone(
            cfg, dir_params, bullet, partition, storage, cpu,
        )),
        node,
        vdisk,
    }
}

fn dir_ops_batch1() -> Vec<Payload> {
    let port = ServiceConfig::new(3, 0).public_port;
    let cap = |object: u64, check: u64| Capability::owner(port, object, check);
    vec![
        DirOp::Create {
            columns: vec!["owner".into()],
            check: 0xC1 | 1,
        }
        .encode(),
        DirOp::Append {
            object: 1,
            name: "a".into(),
            cap: cap(1, 0xC1 | 1),
            col_rights: vec![Rights::ALL],
        }
        .encode(),
        DirOp::Append {
            object: 1,
            name: "b".into(),
            cap: cap(1, 0xC1 | 1),
            col_rights: vec![Rights::MODIFY],
        }
        .encode(),
        DirOp::Create {
            columns: vec!["owner".into(), "other".into()],
            check: 0xC2 | 1,
        }
        .encode(),
        DirOp::Append {
            object: 2,
            name: "x".into(),
            cap: cap(2, 0xC2 | 1),
            col_rights: vec![Rights::ALL, Rights::NONE],
        }
        .encode(),
        DirOp::Chmod {
            object: 1,
            name: "a".into(),
            col_rights: vec![Rights::column(0)],
        }
        .encode(),
        // An op that fails deterministically still consumes its slot.
        DirOp::DeleteRow {
            object: 1,
            name: "ghost".into(),
        }
        .encode(),
    ]
}

fn dir_ops_batch2() -> Vec<Payload> {
    let port = ServiceConfig::new(3, 0).public_port;
    vec![
        DirOp::DeleteRow {
            object: 1,
            name: "b".into(),
        }
        .encode(),
        // Delete a directory, then re-create: the allocator reuses the
        // object number inside one batch (drop-then-store coalescing).
        DirOp::Delete { object: 2 }.encode(),
        DirOp::Create {
            columns: vec!["owner".into()],
            check: 0xC3 | 1,
        }
        .encode(),
        DirOp::Append {
            object: 2,
            name: "y".into(),
            cap: Capability::owner(port, 2, 0xC3 | 1),
            col_rights: vec![Rights::ALL],
        }
        .encode(),
    ]
}

/// Replies of [`dir_ops_batch1`] + [`grant_read_op`] + [`dir_ops_batch2`]
/// by sequence number: a create, an append, the refused and the accepted
/// `DeleteRow`, as the last commit whose `apply` had no `reply` flag
/// produced them, and the grant's `Ok`. A grant's snapshot is its
/// initiator's to send, after the apply (`tests/wire_formats.rs` pins
/// those bytes).
const DIR_GOLDEN: [(u64, &str); 5] = [
    (1, "0116178d83bd2600000100000000000000ffc100000000000000"),
    (2, "02"),
    (7, "0505"),
    (8, "02"),
    (9, "02"),
];

/// A read lease on directory 1 for its owner: `batch1`'s last op in the
/// conformance runs, so the snapshot that is installed carries a lease
/// and `batch2`'s first op (a `DeleteRow` on directory 1) revokes it.
fn grant_read_op() -> Payload {
    DirOp::GrantRead {
        cap: Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1 | 1),
        owner: 0xCAFE,
        cb_port: Port::from_raw(0xCB01),
        now_us: 1_000,
        deadline_us: 401_000,
    }
    .encode()
}

/// The directory machine conforms on each of its commit paths: the
/// replies do not depend on where the bytes become durable.
fn directory_conformance(seed: u64, column: impl Fn(&Simulation, &Network, usize) -> DirColumn) {
    let mut sim = Simulation::new(seed);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), seed);
    let [sa, sb, sf] = [0, 1, 2].map(|idx| column(&sim, &net, idx).sm);
    let out = sim.spawn("conformance", move |ctx| {
        let mut batch1 = dir_ops_batch1();
        batch1.push(grant_read_op());
        let batch2 = dir_ops_batch2();
        check_conformance(ctx, &*sa, &*sb, &*sf, &batch1, &batch2, &DIR_GOLDEN);
        true
    });
    sim.run_for(Duration::from_secs(120));
    assert_eq!(out.take(), Some(true), "conformance run did not finish");
}

#[test]
fn directory_machine_conforms() {
    directory_conformance(0x5EED, |sim, net, idx| {
        dir_column(sim, net, idx, DiskParams::instant(), DirParams::default())
    });
}

#[test]
fn journaled_directory_machine_conforms() {
    directory_conformance(0x5EEE, |sim, net, idx| {
        let disk = DiskParams::instant();
        dir_column_journaled(sim, net, idx, disk, journaled_params(), JOURNAL_BLOCKS)
    });
}

#[test]
fn nvram_directory_machine_conforms() {
    directory_conformance(0x5EEF, |sim, net, idx| {
        let params = DirParams {
            storage: StorageKind::nvram(),
            ..DirParams::default()
        };
        let nvram = Storage::Nvram {
            nvram: Nvram::paper_24k(),
            flush_threshold: 0.75,
            idle_flush: Duration::from_millis(200),
        };
        dir_column_with(sim, net, idx, DiskParams::instant(), params, nvram)
    });
}

/// A peer's snapshot is refused whole — trailing bytes, or a lease whose
/// renewal budget does not fit its `u32` — and a refused install leaves
/// the machine as it was.
#[test]
fn install_refuses_a_malformed_snapshot_and_leaves_the_machine_untouched() {
    let mut sim = Simulation::new(0x5EF0);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0x5EF0);
    let sm = dir_column(&sim, &net, 0, DiskParams::instant(), DirParams::default()).sm;
    // Update seq 5, commit seq 0, then the four section counts.
    let snapshot = |leases: u32| {
        let mut w = WireWriter::new();
        w.u64(5).u64(0).u32(0).u32(0).u32(0).u32(leases);
        w
    };
    let trailing = {
        let mut w = snapshot(0);
        w.u8(0xAB).u8(0xCD);
        w.finish_payload()
    };
    let renewals_past_u32 = {
        let mut w = snapshot(1);
        // Object, owner, callback port, deadline, TTL, renewals.
        w.u64(1).u64(7).u64(8).u64(400_000).u64(400_000);
        w.u64(u64::from(u32::MAX) + 1);
        w.finish_payload()
    };
    let out = sim.spawn("install", move |ctx| {
        let before = sm.snapshot(ctx);
        let refused = [trailing, renewals_past_u32].map(|snap| !sm.install(ctx, 9, &snap));
        assert_eq!(
            sm.snapshot(ctx),
            before,
            "a refused install changed the state"
        );
        assert_eq!(sm.version(), 0);
        // Without the stray bytes the same snapshot installs.
        assert!(sm.install(ctx, 9, &snapshot(0).finish_payload()));
        assert_eq!(sm.version(), 5);
        refused
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(out.take(), Some([true, true]), "both snapshots refused");
}

/// A peer's snapshot that places a directory past the object table's
/// capacity is refused whole, like a malformed one, before anything is
/// wiped — not installed until the table panics on the entry.
#[test]
fn install_refuses_a_snapshot_naming_an_object_past_the_table() {
    let mut sim = Simulation::new(0x5EF1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0x5EF1);
    let sm = dir_column(&sim, &net, 0, DiskParams::instant(), DirParams::default()).sm;
    let out = sim.spawn("install", move |ctx| {
        let create = DirOp::Create {
            columns: vec!["owner".into()],
            check: 0xC1,
        };
        sm.apply(ctx, 1, &create.encode(), false);
        sm.flush(ctx);
        let (cursor, snap) = sm.snapshot(ctx);
        // Update seq, commit seq and the directory count come first,
        // then the one directory's object number.
        let mut far = snap.to_vec();
        far[20..28].copy_from_slice(&1_000_000u64.to_le_bytes());
        let refused = !sm.install(ctx, cursor, &Payload::from(far));
        assert_eq!(
            sm.snapshot(ctx),
            (cursor, snap.clone()),
            "a refused install changed the state"
        );
        // The snapshot as taken installs.
        assert!(sm.install(ctx, cursor, &snap));
        refused
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(out.take(), Some(true), "the snapshot was refused");
}

// ---------------------------------------------------------------------
// Group-commit batching invariants.
// ---------------------------------------------------------------------

/// An unflushed batch is pure RAM: a reboot before `flush` lands on the
/// pre-batch durable state. After `flush`, the whole batch is durable.
/// And the coalesced flush costs strictly fewer disk writes than
/// flushing each op individually.
#[test]
fn group_commit_defers_then_makes_batch_durable_and_coalesces() {
    let mut sim = Simulation::new(0xBA7C);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0xBA7C);
    // Batched column vs a flush-per-op column.
    let batched = dir_column(&sim, &net, 0, DiskParams::instant(), DirParams::default());
    let per_op = dir_column(&sim, &net, 1, DiskParams::instant(), DirParams::default());
    let (sm_b, sm_p) = (Rc::clone(&batched.sm), Rc::clone(&per_op.sm));
    let (vd_b, vd_p) = (batched.vdisk.clone(), per_op.vdisk.clone());
    let ops = dir_ops_batch1();
    let out = sim.spawn("batching", move |ctx| {
        // Apply the whole batch without flushing: nothing durable yet.
        for (i, op) in ops.iter().enumerate() {
            let _ = sm_b.apply(ctx, 1 + i as u64, op, false);
        }
        assert_eq!(
            sm_b.update_seq(),
            ops.len() as u64,
            "RAM state covers the batch"
        );
        // A reboot now (fresh machine over the same storage) sees the
        // pre-batch prefix: nothing.
        let rebooted = probe_machine(ctx, &sm_b);
        assert_eq!(rebooted, 0, "unflushed batch must not be visible");

        // One group commit, counting disk writes.
        let w0 = vd_b.stats().writes;
        sm_b.flush(ctx);
        let batched_writes = vd_b.stats().writes - w0;
        let rebooted = probe_machine(ctx, &sm_b);
        // Op 7 (the deterministic failure) consumes a logical seq but
        // has no durable effect, so a reboot recovers version 6: the
        // highest seqno stored with any directory (paper §3).
        assert_eq!(rebooted, 6, "flushed batch must be durable");

        // The same ops flushed one by one cost more disk writes.
        let w0 = vd_p.stats().writes;
        for (i, op) in ops.iter().enumerate() {
            let _ = sm_p.apply(ctx, 1 + i as u64, op, false);
            sm_p.flush(ctx);
        }
        let per_op_writes = vd_p.stats().writes - w0;
        assert!(
            batched_writes < per_op_writes,
            "group commit must coalesce: batched {batched_writes} vs per-op {per_op_writes}"
        );
        true
    });
    sim.run_for(Duration::from_secs(120));
    assert_eq!(out.take(), Some(true));
}

// ---------------------------------------------------------------------
// Directory versions: published whole, shared row by row.
// ---------------------------------------------------------------------

/// The RAM cache hands out one version of a directory until an update
/// publishes the next, and the next is the update's own copy: a read
/// copies nothing, and an edit leaves the version it copied untouched.
/// The copy shares the columns and every row's name with the version
/// before it: an update copies pointers, not rows.
#[test]
fn an_update_publishes_its_own_copy_sharing_every_row_it_did_not_change() {
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let col = dir_column(&sim, &net, 0, DiskParams::instant(), DirParams::default());
    let sm = Rc::clone(&col.sm);
    let out = sim.spawn_on(col.node, "replica", move |ctx| {
        let owner = Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1);
        let append = |name: &str| DirOp::Append {
            object: 1,
            name: name.into(),
            cap: owner,
            col_rights: vec![Rights::ALL, Rights::NONE],
        };
        let create = DirOp::Create {
            columns: vec!["owner".into(), "other".into()],
            check: 0xC1,
        };
        let ops = [create, append("a"), append("b"), append("c")];
        for (seq, op) in (1..).zip(&ops) {
            sm.apply(ctx, seq, &op.encode(), false);
        }
        let load = || sm.load_dir(ctx, 1).expect("cached");
        let (v1, again) = (load(), load());
        assert!(Rc::ptr_eq(&v1, &again), "a read copies nothing");
        // A refused update publishes nothing.
        sm.apply(ctx, 5, &append("a").encode(), false);
        assert!(Rc::ptr_eq(&v1, &load()));
        sm.flush(ctx);

        // Each row edit in turn: its version against the one before.
        let chmod = DirOp::Chmod {
            object: 1,
            name: "b".into(),
            col_rights: vec![Rights::NONE, Rights::ALL],
        };
        let delete = DirOp::DeleteRow {
            object: 1,
            name: "a".into(),
        };
        let mut before = v1;
        for (seq, op, rows) in [(6, chmod, 3), (7, append("d"), 4), (8, delete, 3)] {
            sm.apply(ctx, seq, &op.encode(), false);
            let after = load();
            assert!(!Rc::ptr_eq(&before, &after), "op {seq} edits its own copy");
            assert_eq!((after.rows().len(), after.seqno), (rows, seq));
            assert_eq!(
                before.columns().as_ptr(),
                after.columns().as_ptr(),
                "op {seq}"
            );
            for row in after.rows() {
                if let Some(old) = before.find(&row.name) {
                    assert_eq!(
                        old.name.as_ptr(),
                        row.name.as_ptr(),
                        "op {seq}: row {} shares its name",
                        row.name
                    );
                }
            }
            before = after;
        }
        // And no one else's: the version before the chmod still holds
        // the old masks, and every version its own rows.
        let v1 = &again;
        assert_eq!((v1.rows().len(), v1.seqno), (3, 4));
        let b = v1.find("b").expect("b");
        assert_eq!(*b.col_rights, [Rights::ALL, Rights::NONE]);
        assert_eq!(
            *before.find("b").expect("b").col_rights,
            [Rights::NONE, Rights::ALL]
        );
        let names: Vec<&str> = before.rows().iter().map(|r| &*r.name).collect();
        assert_eq!(names, ["b", "c", "d"]);
        true
    });
    sim.run_for(Duration::from_secs(60));
    assert_eq!(out.take(), Some(true));
}

/// Boots a throwaway machine over the same storage and returns its
/// recovered `update_seq` (what a post-crash recovery would claim).
fn probe_machine(ctx: &Ctx, original: &DirectoryStateMachine) -> u64 {
    let probe = original.reopen_for_test();
    probe.boot(ctx);
    probe.update_seq()
}

/// Crash in the middle of a *multi-object* batched flush: the commit
/// block's `recovering` guard must make the replica's state worthless
/// at next boot, so recovery copies a consistent state from a peer
/// instead of serving a hole.
#[test]
fn crash_mid_multi_object_flush_voids_local_state() {
    let mut sim = Simulation::new(0xC4A5);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0xC4A5);
    // Real Wren IV timing so the flush spans simulated time we can
    // crash inside of.
    let col = dir_column(&sim, &net, 0, DiskParams::wren_iv(), DirParams::default());
    let sm = Rc::clone(&col.sm);
    let sm2 = Rc::clone(&col.sm);
    // Seed two directories, each with a row, and flush: a consistent
    // durable base.
    let seeded = sim.spawn("seed", move |ctx| {
        for (i, op) in dir_ops_batch1().iter().enumerate() {
            let _ = sm.apply(ctx, 1 + i as u64, op, false);
        }
        sm.flush(ctx);
        sm.update_seq()
    });
    sim.run_for(Duration::from_secs(30));
    let base_seq = seeded.take().expect("seeding finished");
    assert!(base_seq > 0);

    // A multi-object batch (touches dir 1 and dir 2), then crash the
    // machine mid-flush.
    let port = ServiceConfig::new(3, 0).public_port;
    sim.spawn_on(col.node, "mutator", move |ctx| {
        let ops = [
            DirOp::Append {
                object: 1,
                name: "mid1".into(),
                cap: Capability::owner(port, 1, 0xC1 | 1),
                col_rights: vec![Rights::ALL],
            }
            .encode(),
            DirOp::Append {
                object: 2,
                name: "mid2".into(),
                cap: Capability::owner(port, 2, 0xC2 | 1),
                col_rights: vec![Rights::ALL, Rights::NONE],
            }
            .encode(),
        ];
        for (i, op) in ops.iter().enumerate() {
            let _ = sm2.apply(ctx, 100 + i as u64, op, false);
        }
        sm2.flush(ctx); // dies mid-way when the node crashes
    });
    // One Wren IV access is ~41 ms; the guarded flush issues several.
    // Crash right after the guard write lands but before the batch
    // completes.
    sim.run_for(Duration::from_millis(80));
    sim.crash_node(col.node);
    sim.run_for(Duration::from_millis(50));

    // Reboot the column: a fresh disk server over the surviving
    // platters, and a fresh machine booting from them.
    sim.revive_node(col.node);
    let disk = DiskServer::start(&sim, col.node, col.vdisk.clone(), DiskParams::wren_iv());
    let partition = RawPartition::new(disk, 0, TABLE_BLOCKS);
    let recovered = sim.spawn("reboot", move |ctx| {
        use amoeba_dirsvc::dir::CommitBlock;
        let commit = CommitBlock::read(&partition, ctx, 3).expect("commit block readable");
        commit.recovering
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(
        recovered.take(),
        Some(true),
        "crash mid multi-object flush must leave the recovering guard set \
         (state worthless, forcing state transfer from a peer)"
    );
}

// ---------------------------------------------------------------------
// Whole-cluster crash during batched apply.
// ---------------------------------------------------------------------

/// Hammer the group service with concurrent updates (so the driver
/// applies real batches), crash a replica mid-stream, recover it, and
/// prove that every *acknowledged* update survived on every replica —
/// group commit never exposes a partially applied batch after
/// recovery.
#[test]
fn crash_during_batched_apply_loses_no_acknowledged_update() {
    crash_during_apply_scenario(0x0DD5, false);
}

/// The same cluster crash with the group log on: commits are journal
/// appends, the table writeback races the crash in the background
/// checkpointer, and the restarted replica must replay its journal —
/// still, no acknowledged append may be lost anywhere.
#[test]
fn crash_during_journaled_apply_loses_no_acknowledged_update() {
    crash_during_apply_scenario(0x0DD7, true);
}

fn crash_during_apply_scenario(seed: u64, journal: bool) {
    let mut sim = Simulation::new(seed);
    let mut params = ClusterParams::paper(Variant::Group);
    if journal {
        params.dir.storage = StorageKind::journal();
    }
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c = client.clone();
    let roots = sim.spawn("setup", move |ctx| {
        let mk = |ctx: &Ctx| loop {
            match c.create_dir(ctx, &["owner"]) {
                Ok(cap) => return cap,
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        };
        let r1 = mk(ctx);
        let r2 = mk(ctx);
        (r1, r2)
    });
    sim.run_for(Duration::from_secs(20));
    let (root1, root2) = roots.take().expect("service formed");

    // Concurrent writers against two directories → multi-object apply
    // batches on every replica.
    let acked: Rc<RefCell<Vec<(Capability, String)>>> = Rc::new(RefCell::new(Vec::new()));
    let mut writers = Vec::new();
    for w in 0..4u64 {
        let (wc, _) = cluster.client(&sim);
        let acked = Rc::clone(&acked);
        let root = if w % 2 == 0 { root1 } else { root2 };
        writers.push(sim.spawn(&format!("writer-{w}"), move |ctx| {
            let mut ok = 0u32;
            for k in 0..12 {
                let name = format!("w{w}-{k}");
                let mut appended = false;
                for _ in 0..8 {
                    match wc.append_row(ctx, root, &name, root, vec![Rights::ALL]) {
                        Ok(()) => {
                            appended = true;
                            break;
                        }
                        Err(_) => ctx.sleep(Duration::from_millis(50)),
                    }
                }
                if appended {
                    acked.borrow_mut().push((root, name));
                    ok += 1;
                }
            }
            ok
        }));
    }
    // Let the burst get going, then crash replica 1 mid-stream.
    sim.run_for(Duration::from_millis(1500));
    cluster.crash_server(&sim, 1);
    sim.run_for(Duration::from_secs(25));
    for w in writers {
        assert!(w.take().unwrap_or(0) > 0, "writers made no progress");
    }

    // Recover the crashed replica.
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(40));
    assert!(cluster.group_server(1).is_normal(), "replica 1 recovered");

    // Every acknowledged append is visible, and all replicas agree on
    // the logical version — no holes, no partial batches.
    let acked_list = acked.borrow_mut().clone();
    assert!(!acked_list.is_empty());
    let (rc, _) = cluster.client(&sim);
    let check = sim.spawn("check", move |ctx| {
        for (root, name) in &acked_list {
            let hit = loop {
                match rc.lookup(ctx, *root, name) {
                    Ok(h) => break h,
                    Err(_) => ctx.sleep(Duration::from_millis(100)),
                }
            };
            assert!(hit.is_some(), "acknowledged append {name} lost");
        }
        true
    });
    sim.run_for(Duration::from_secs(60));
    assert_eq!(check.take(), Some(true));
    let s0 = cluster.group_server(0).update_seq();
    let s1 = cluster.group_server(1).update_seq();
    let s2 = cluster.group_server(2).update_seq();
    assert_eq!(s0, s1, "recovered replica diverged");
    assert_eq!(s0, s2, "replicas diverged");
}

/// The commit-block epoch distinguishes the two reasons the
/// `recovering` guard can be found set at boot. Crash inside a guarded
/// *flush* (epoch > 0): every op of the batch was globally committed,
/// so the durable per-object prefix is salvaged — `update_seq` claims
/// the highest stored seqno instead of zero, and if every replica died
/// in the same flush window the service resumes from the best prefix
/// rather than losing everything. Crash inside a recovery *copy*
/// (epoch forced to 0 by the copy mark's `persist`): the state may mix two
/// replicas' histories and stays worthless, exactly as before.
#[test]
fn crash_mid_flush_salvages_prefix_but_mid_copy_stays_worthless() {
    let mut sim = Simulation::new(0xE70C);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0xE70C);
    let col = dir_column(&sim, &net, 0, DiskParams::wren_iv(), DirParams::default());
    let sm = Rc::clone(&col.sm);
    let sm2 = Rc::clone(&col.sm);
    // Seed two directories, each with rows, through a guarded
    // multi-object flush: a consistent durable base.
    let seeded = sim.spawn("seed", move |ctx| {
        for (i, op) in dir_ops_batch1().iter().enumerate() {
            let _ = sm.apply(ctx, 1 + i as u64, op, false);
        }
        sm.flush(ctx);
        sm.update_seq()
    });
    sim.run_for(Duration::from_secs(30));
    let base_seq = seeded.take().expect("seeding finished");
    assert!(base_seq > 0);

    // A multi-object batch, then crash the machine mid-flush (same
    // timing as crash_mid_multi_object_flush_voids_local_state: the
    // guard write lands, the batch does not complete).
    let port = ServiceConfig::new(3, 0).public_port;
    sim.spawn_on(col.node, "mutator", move |ctx| {
        let ops = [
            DirOp::Append {
                object: 1,
                name: "mid1".into(),
                cap: Capability::owner(port, 1, 0xC1 | 1),
                col_rights: vec![Rights::ALL],
            }
            .encode(),
            DirOp::Append {
                object: 2,
                name: "mid2".into(),
                cap: Capability::owner(port, 2, 0xC2 | 1),
                col_rights: vec![Rights::ALL, Rights::NONE],
            }
            .encode(),
        ];
        for (i, op) in ops.iter().enumerate() {
            let _ = sm2.apply(ctx, 100 + i as u64, op, false);
        }
        sm2.flush(ctx); // dies mid-way when the node crashes
    });
    sim.run_for(Duration::from_millis(80));
    sim.crash_node(col.node);
    sim.run_for(Duration::from_millis(50));

    // Reboot over the surviving platters.
    sim.revive_node(col.node);
    let disk = DiskServer::start(&sim, col.node, col.vdisk.clone(), DiskParams::instant());
    let partition = RawPartition::new(disk, 0, TABLE_BLOCKS);
    let cfg = ServiceConfig::new(3, 0);
    let cpu = Resource::new(sim.handle(), "probe-cpu");
    let rpc = RpcNode::start(col.node, net.attach());
    let bullet = BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0));
    let probe = Rc::new(DirectoryStateMachine::standalone(
        cfg.clone(),
        DirParams::default(),
        bullet.clone(),
        partition.clone(),
        Storage::InPlace,
        cpu.clone(),
    ));
    let p1 = Rc::clone(&probe);
    let part2 = partition.clone();
    let salvaged = sim.spawn("probe-flush-crash", move |ctx| {
        use amoeba_dirsvc::dir::CommitBlock;
        let commit = CommitBlock::read(&part2, ctx, 3).expect("commit block readable");
        assert!(commit.recovering, "the flush guard must be on disk");
        assert!(commit.epoch > 0, "a flush guard keeps the epoch");
        p1.boot(ctx);
        p1.update_seq()
    });
    sim.run_for(Duration::from_secs(20));
    let salvaged_seq = salvaged.take().expect("salvage probe finished");
    // Batch 1's final op fails deterministically (consumes a logical
    // seq, stores nothing), so the durable pre-batch prefix claims
    // base_seq − 1 — which the salvage must reach instead of zero.
    assert!(
        salvaged_seq >= base_seq - 1 && salvaged_seq > 0,
        "crash mid-flush must salvage the pre-batch prefix \
         (salvaged {salvaged_seq}, durable base {})",
        base_seq - 1
    );

    // Now simulate a crash mid recovery copy over the same storage:
    // the copy mark zeroes the epoch; a machine booting from that state
    // must claim nothing.
    let p2 = Rc::new(DirectoryStateMachine::standalone(
        cfg,
        DirParams::default(),
        bullet,
        partition,
        Storage::InPlace,
        cpu,
    ));
    let worthless = sim.spawn("probe-copy-crash", move |ctx| {
        probe.persist(ctx, 0, &[true; 3], true); // writes recovering=true, epoch=0
        p2.boot(ctx);
        p2.update_seq()
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(
        worthless.take(),
        Some(0),
        "crash mid recovery copy must stay worthless (§3 rule)"
    );
}

// ---------------------------------------------------------------------
// Group-log crash matrix: the journaled commit path must lose no acked
// write across power cuts, torn tails, checkpoints, and full journals.
// ---------------------------------------------------------------------

/// Journal region carved between the metadata table and the Bullet
/// store: `[TABLE_BLOCKS, TABLE_BLOCKS + JOURNAL_BLOCKS)`.
const JOURNAL_BLOCKS: u64 = 64;

fn journaled_params() -> DirParams {
    DirParams {
        storage: StorageKind::journal(),
        ..DirParams::default()
    }
}

/// Like [`dir_column`], but with the group log on: a journal region is
/// carved out of the platter and the Bullet store starts past it —
/// the same layout the cluster builder produces.
fn dir_column_journaled(
    sim: &Simulation,
    net: &Network,
    idx: usize,
    disk_params: DiskParams,
    dir_params: DirParams,
    journal_blocks: u64,
) -> DirColumn {
    let cfg = ServiceConfig::new(3, idx);
    let node = sim.add_node(&format!("jcol-{idx}"));
    let rpc = RpcNode::start(node, net.attach());
    let vdisk = VDisk::new(2048, 4096);
    let disk = DiskServer::start(sim, node, vdisk.clone(), disk_params);
    let partition = RawPartition::new(disk.clone(), 0, TABLE_BLOCKS);
    let journal = Journal::disk(RawPartition::new(
        disk.clone(),
        TABLE_BLOCKS,
        journal_blocks,
    ));
    let base = TABLE_BLOCKS + journal_blocks;
    let store = BulletStore::new(2048 - base, 4096, 0xB0 + idx as u64);
    start_bullet_server(sim, node, &rpc, cfg.bullet_port(idx), disk, store, base, 2);
    let bullet = BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(idx));
    let cpu = Resource::new(sim.handle(), &format!("jcpu-{idx}"));
    DirColumn {
        sm: Rc::new(DirectoryStateMachine::standalone(
            cfg,
            dir_params,
            bullet,
            partition,
            Storage::Journal {
                journal,
                checkpoint_interval: Duration::from_millis(250),
            },
            cpu,
        )),
        node,
        vdisk,
    }
}

/// Rebuilds a journaled probe machine cold over a (possibly revived)
/// column's platter — fresh disk server, fresh journal handle with a
/// cold cursor — exactly what a production restart does.
fn journaled_probe(
    sim: &Simulation,
    net: &Network,
    col: &DirColumn,
    journal_blocks: u64,
) -> (Rc<DirectoryStateMachine>, RawPartition) {
    let disk = DiskServer::start(sim, col.node, col.vdisk.clone(), DiskParams::instant());
    let partition = RawPartition::new(disk.clone(), 0, TABLE_BLOCKS);
    let journal = Journal::disk(RawPartition::new(
        disk.clone(),
        TABLE_BLOCKS,
        journal_blocks,
    ));
    let jpart = RawPartition::new(disk, TABLE_BLOCKS, journal_blocks);
    let cfg = ServiceConfig::new(3, 0);
    let rpc = RpcNode::start(col.node, net.attach());
    let bullet = BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0));
    let cpu = Resource::new(sim.handle(), "jprobe-cpu");
    let probe = Rc::new(DirectoryStateMachine::standalone(
        cfg,
        journaled_params(),
        bullet,
        partition,
        Storage::Journal {
            journal,
            checkpoint_interval: Duration::from_millis(250),
        },
        cpu,
    ));
    (probe, jpart)
}

/// On a disk that knows where its head is, a journaled commit is one
/// append where the last one ended; the in-place flush hops between the
/// Bullet file, the table block and the commit block. The same 16
/// one-op commits: strictly fewer seeks per commit through the journal.
#[test]
fn a_journaled_commit_seeks_less_than_an_in_place_one() {
    let mut sim = Simulation::new(0x5EE4);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0x5EE4);
    let disk = DiskParams {
        head_aware: true,
        ..DiskParams::instant()
    };
    let in_place = dir_column(&sim, &net, 0, disk.clone(), DirParams::default());
    let journaled = dir_column_journaled(&sim, &net, 1, disk, journaled_params(), JOURNAL_BLOCKS);
    let port = ServiceConfig::new(3, 0).public_port;
    let create = DirOp::Create {
        columns: vec!["owner".into()],
        check: 0xC1,
    };
    let appends = (0..15).map(|r| DirOp::Append {
        object: 1,
        name: format!("row-{r}"),
        cap: Capability::owner(port, 1, 0xC1),
        col_rights: vec![Rights::ALL],
    });
    let ops: Vec<Payload> = std::iter::once(create)
        .chain(appends)
        .map(|op| op.encode())
        .collect();
    let out = sim.spawn("commits", move |ctx| {
        [in_place, journaled].map(|col| {
            let before = col.vdisk.stats().seeks;
            for (i, op) in ops.iter().enumerate() {
                let _ = col.sm.apply(ctx, 1 + i as u64, op, false);
                col.sm.flush(ctx);
            }
            assert_eq!(col.sm.update_seq(), ops.len() as u64);
            col.vdisk.stats().seeks - before
        })
    });
    sim.run_for(Duration::from_secs(120));
    let [in_place, journaled] = out.take().expect("both columns committed");
    assert!(
        0 < journaled && journaled < in_place,
        "16 commits: {journaled} seeks journaled, {in_place} in place"
    );
}

/// Power-cut right after a journaled group commit: the table and Bullet
/// store were never written (the checkpointer never ran), yet boot must
/// replay the journal record and reproduce the committed state.
#[test]
fn journaled_commit_survives_crash_and_reboot() {
    let mut sim = Simulation::new(0x10A1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0x10A1);
    let col = dir_column_journaled(
        &sim,
        &net,
        0,
        DiskParams::wren_iv(),
        journaled_params(),
        JOURNAL_BLOCKS,
    );
    let sm = Rc::clone(&col.sm);
    let committed = sim.spawn("seed", move |ctx| {
        for (i, op) in dir_ops_batch1().iter().enumerate() {
            let _ = sm.apply(ctx, 1 + i as u64, op, false);
        }
        // Journal on: this appends ONE sequential record and returns
        // with the commit durable — no table or Bullet writes.
        sm.flush(ctx);
        let (cur, snap) = sm.snapshot(ctx);
        (cur, snap)
    });
    sim.run_for(Duration::from_secs(30));
    let (cur, snap) = committed.take().expect("journaled commit finished");
    assert!(cur > 0);

    // Power-cut the machine: RAM dies, platters keep their bits.
    sim.crash_node(col.node);
    sim.run_for(Duration::from_millis(50));
    sim.revive_node(col.node);

    let (probe, _) = journaled_probe(&sim, &net, &col, JOURNAL_BLOCKS);
    let p = Rc::clone(&probe);
    let rebooted = sim.spawn("reboot", move |ctx| {
        p.boot(ctx);
        let (rcur, rsnap) = p.snapshot(ctx);
        (p.update_seq(), rcur, rsnap)
    });
    sim.run_for(Duration::from_secs(20));
    let (seq, _rcur, rsnap) = rebooted.take().expect("reboot finished");
    // Batch 1's final op fails deterministically (stores nothing), so
    // the replayed claim is the highest *stored* seqno — one short of
    // the logical cursor, same arithmetic as the salvage tests.
    assert!(
        seq >= cur - 1 && seq > 0,
        "journal replay must reach the acked batch (got {seq}, acked {cur})"
    );
    // The snapshot header's first word is the cursor claim, whose
    // salvage arithmetic (logical 7 vs highest-stored 6) is asserted
    // above; everything after it must be byte-identical.
    assert_eq!(
        &rsnap[8..],
        &snap[8..],
        "replayed state must be byte-identical to the acked state"
    );
}

/// A checkpoint drains the dirty set into real table/Bullet blocks and
/// advances the journal's tail; records appended after it replay on top
/// of the checkpointed table. Two independent boots over the same
/// platter must agree — replay is idempotent (acts are absolute
/// states), so re-running it changes nothing.
#[test]
fn checkpoint_drains_journal_and_replay_is_idempotent() {
    let mut sim = Simulation::new(0x10A2);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0x10A2);
    let col = dir_column_journaled(
        &sim,
        &net,
        0,
        DiskParams::instant(),
        journaled_params(),
        JOURNAL_BLOCKS,
    );
    let sm = Rc::clone(&col.sm);
    let live = sim.spawn("seed", move |ctx| {
        let mut seq = 0u64;
        for op in dir_ops_batch1() {
            seq += 1;
            let _ = sm.apply(ctx, seq, &op, false);
        }
        sm.flush(ctx); // record 1
                       // Drain it into long-term form; the journal tail advances.
        sm.tend(ctx);
        for op in dir_ops_batch2() {
            seq += 1;
            let _ = sm.apply(ctx, seq, &op, false);
        }
        sm.flush(ctx); // record 2 — journaled, NOT checkpointed
        sm.snapshot(ctx)
    });
    sim.run_for(Duration::from_secs(30));
    let (_cur, snap) = live.take().expect("seed finished");

    // Boot twice over the same platter (boot does not consume the
    // journal): salvage the checkpointed table, replay record 2.
    let p1 = Rc::new(col.sm.reopen_for_test());
    let p2 = Rc::new(col.sm.reopen_for_test());
    let booted = sim.spawn("reboots", move |ctx| {
        p1.boot(ctx);
        let (_, s1) = p1.snapshot(ctx);
        p2.boot(ctx);
        let (_, s2) = p2.snapshot(ctx);
        (s1, s2)
    });
    sim.run_for(Duration::from_secs(30));
    let (s1, s2) = booted.take().expect("reboot probes finished");
    // Modulo the cursor-claim word (logical vs highest-stored seqno —
    // the salvage arithmetic), the state must be byte-identical.
    assert_eq!(
        &s1[8..],
        &snap[8..],
        "checkpointed table + journal replay must reproduce the acked state"
    );
    assert_eq!(s2, s1, "journal replay must be idempotent across boots");
}

/// A torn record at the journal's tail (the crash hit mid-append, so it
/// was never acked) must truncate cleanly: boot keeps every record
/// before the tear and loses only the unacked suffix.
#[test]
fn torn_journal_tail_truncates_to_acked_prefix() {
    let mut sim = Simulation::new(0x10A3);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0x10A3);
    let col = dir_column_journaled(
        &sim,
        &net,
        0,
        DiskParams::instant(),
        journaled_params(),
        JOURNAL_BLOCKS,
    );
    let sm = Rc::clone(&col.sm);
    let live = sim.spawn("seed", move |ctx| {
        let mut seq = 0u64;
        for op in dir_ops_batch1() {
            seq += 1;
            let _ = sm.apply(ctx, seq, &op, false);
        }
        sm.flush(ctx); // record 1 (acked)
        let mid = sm.snapshot(ctx);
        for op in dir_ops_batch2() {
            seq += 1;
            let _ = sm.apply(ctx, seq, &op, false);
        }
        sm.flush(ctx); // record 2 (the append the crash will tear)
        mid
    });
    sim.run_for(Duration::from_secs(30));
    let (_mid_cur, mid_snap) = live.take().expect("seed finished");

    sim.crash_node(col.node);
    sim.run_for(Duration::from_millis(50));
    sim.revive_node(col.node);

    // Emulate the tear: smash record 2's first frame (the frame header
    // carries its seq at [4..12)), as if the head crashed mid-write.
    let (probe, jpart) = journaled_probe(&sim, &net, &col, JOURNAL_BLOCKS);
    let p = Rc::clone(&probe);
    let rebooted = sim.spawn("tear-and-reboot", move |ctx| {
        let mut torn = false;
        for b in 1..jpart.len() {
            let blk = jpart.read(ctx, b);
            if blk.len() >= 12
                && blk[0..4] == 0x414A_524Eu32.to_le_bytes()
                && u64::from_le_bytes(blk[4..12].try_into().unwrap()) == 2
            {
                jpart.write(ctx, b, vec![0u8; blk.len()]);
                torn = true;
                break;
            }
        }
        assert!(torn, "record 2 must be on the platter to tear");
        p.boot(ctx);
        p.snapshot(ctx)
    });
    sim.run_for(Duration::from_secs(20));
    let (_rcur, rsnap) = rebooted.take().expect("reboot finished");
    // Modulo the cursor-claim word (logical vs highest-stored seqno),
    // the state must equal the batch-1-only snapshot.
    assert_eq!(
        &rsnap[8..],
        &mid_snap[8..],
        "a torn tail must truncate to exactly the acked prefix"
    );
}

/// A journal too small for the workload: `JournalFull` backpressures by
/// running the checkpoint inline (the failed batch's acts are already
/// in the dirty set, so the drain persists them — no append retry).
/// Every acked commit must survive a reboot regardless.
#[test]
fn full_journal_backpressure_keeps_commits_durable() {
    let mut sim = Simulation::new(0x10A4);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 0x10A4);
    // Superblock + 2 data blocks: a couple of records fill it.
    let col = dir_column_journaled(&sim, &net, 0, DiskParams::instant(), journaled_params(), 3);
    let port = ServiceConfig::new(3, 0).public_port;
    let sm = Rc::clone(&col.sm);
    let live = sim.spawn("seed", move |ctx| {
        let mut seq = 1u64;
        let _ = sm.apply(
            ctx,
            seq,
            &DirOp::Create {
                columns: vec!["owner".into()],
                check: 0xC1 | 1,
            }
            .encode(),
            false,
        );
        sm.flush(ctx);
        // Many one-op commits: far more bytes than the journal holds,
        // so several appends hit JournalFull and checkpoint inline.
        for k in 0..24 {
            seq += 1;
            let _ = sm.apply(
                ctx,
                seq,
                &DirOp::Append {
                    object: 1,
                    name: format!("j{k}"),
                    cap: Capability::owner(port, 1, 0xC1 | 1),
                    col_rights: vec![Rights::ALL],
                }
                .encode(),
                false,
            );
            sm.flush(ctx);
        }
        sm.snapshot(ctx)
    });
    sim.run_for(Duration::from_secs(60));
    let (cur, snap) = live.take().expect("seed finished");
    assert_eq!(cur, 25, "every commit must have been acked");

    let p = Rc::new(col.sm.reopen_for_test());
    let pp = Rc::clone(&p);
    let rebooted = sim.spawn("reboot", move |ctx| {
        pp.boot(ctx);
        (pp.update_seq(), pp.snapshot(ctx))
    });
    sim.run_for(Duration::from_secs(30));
    let (seq, (_rcur, rsnap)) = rebooted.take().expect("reboot finished");
    assert_eq!(seq, cur, "no acked commit may be lost to backpressure");
    assert_eq!(rsnap, snap, "rebooted state must match the acked state");
}
