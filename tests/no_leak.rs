//! Nothing outlives a deployment: after set-up, a crash, a reboot and the
//! drop of the simulation, the process holds exactly the heap it held
//! before. Kernel handlers make this easy to get wrong — their state
//! holds the machine's protocol stack, which reaches the network, the
//! kernel and (were they bound into the network's endpoint table instead
//! of being owned by the kernel) themselves.
//!
//! The same counter bounds what a decoder may allocate for input it
//! goes on to reject: a peer's snapshot that *claims* a million entries
//! must not make `install` reserve for them, nor a request, reply, op or
//! directory file that claims a million rows its decoder.
//!
//! And it bounds what serving costs: the RAM cache hands out shared
//! versions of a directory, so neither a lookup nor a grant applied on a
//! replica that owes no reply may request heap in proportion to the
//! directory's size.
//!
//! And it pins the exact-size encode: an op and a directory file are
//! each marshalled into one buffer of exactly their length.
//!
//! The tests in this file count every byte the process allocates, so
//! they take turns ([`ALONE`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use amoeba_dirsvc::bullet::BulletClient;
use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{
    Capability, DirOp, DirParams, DirReply, DirRequest, Directory, DirectoryStateMachine, Rights,
    ServiceConfig,
};
use amoeba_dirsvc::disk::{DiskParams, DiskServer, RawPartition, VDisk};
use amoeba_dirsvc::flip::wire::{Wire, WireWriter};
use amoeba_dirsvc::flip::{NetParams, Network};
use amoeba_dirsvc::rpc::{RpcClient, RpcNode};
use amoeba_dirsvc::rsm::StateMachine;
use amoeba_dirsvc::sim::{NodeId, Resource, Simulation};

/// The system allocator, counting live bytes and bytes ever requested.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// Held by each test for its whole body: the counters are process-wide.
static ALONE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Bytes ever requested by this thread: exact, where the process-wide
    /// count also sees the test harness's threads.
    static MINE: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is passed to `System` unchanged; the counter is the
// only addition and does not touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        let _ = MINE.try_with(|mine| mine.set(mine.get() + layout.size()));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn deployment_with_a_crash_and_a_reboot() {
    let mut sim = Simulation::new(7);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    sim.run_for(Duration::from_secs(2));
    cluster.crash_server(&sim, 1);
    sim.run_for(Duration::from_secs(1));
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(2));
}

#[test]
fn a_dropped_deployment_leaves_no_heap_behind() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    // Once for whatever is allocated once per process (thread-locals,
    // the panic hook, the test harness's own buffers).
    deployment_with_a_crash_and_a_reboot();
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..5 {
        deployment_with_a_crash_and_a_reboot();
    }
    assert_eq!(LIVE.load(Ordering::Relaxed), before);
}

/// A directory machine on a node of its own, with no Bullet server
/// behind its stub: for tests that apply and install but never flush.
fn machine_that_never_flushes(sim: &Simulation) -> (NodeId, DirectoryStateMachine) {
    let node = sim.add_node("m");
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let rpc = RpcNode::start(sim, node, net.attach());
    let disk = DiskServer::start(sim, node, VDisk::new(64, 4096), DiskParams::instant());
    let cfg = ServiceConfig::new(3, 0);
    let sm = DirectoryStateMachine::standalone(
        cfg.clone(),
        DirParams::default(),
        BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0)),
        RawPartition::new(disk, 0, 16),
        None,
        None,
        Resource::new(sim.handle(), "cpu"),
    );
    (node, sm)
}

#[test]
fn a_rejected_snapshot_allocates_nothing_for_its_claimed_counts() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = Simulation::new(1);
    let (node, sm) = machine_that_never_flushes(&sim);
    // One snapshot per count field (entries, completions, stubs, read
    // leases): the counts before it are zero, it claims a million, and
    // the body ends there.
    let snaps: Vec<_> = (0..4)
        .map(|zero_counts| {
            let mut w = WireWriter::new();
            w.u64(1).u64(1); // update seq, commit seq
            for _ in 0..zero_counts {
                w.u32(0);
            }
            w.u32(1_000_000);
            w.finish_payload()
        })
        .collect();
    let out = sim.spawn_on(node, "install", move |ctx| {
        snaps
            .iter()
            .map(|snap| {
                let before = REQUESTED.load(Ordering::Relaxed);
                let installed = sm.install(ctx, 0, snap);
                (installed, REQUESTED.load(Ordering::Relaxed) - before)
            })
            .collect::<Vec<_>>()
    });
    sim.run_for(Duration::from_secs(1));
    for (installed, requested) in out.take().expect("install ran") {
        assert!(!installed, "a snapshot with nothing behind its count");
        assert!(
            requested < 64 * 1024,
            "rejecting it requested {requested} bytes of heap"
        );
    }
}

#[test]
fn a_rejected_message_allocates_nothing_for_its_claimed_counts() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    // A tag (the directory's seqno, for the file), one column where the
    // format has columns, then a count as large as the decoder's cap
    // allows, and the body ends there. The first is what any client can
    // send a server thread.
    let claim = |head: &[u8], one_column: bool, count: u32| {
        let mut w = WireWriter::new();
        for b in head {
            w.u8(*b);
        }
        if one_column {
            w.u8(1).string("c");
        }
        w.u32(count);
        w.finish()
    };
    // Tag, then the fixed fields before the columns: two u64s for an
    // export, and a renewed flag after them for a snapshot.
    let tagged = |tag: u8, fixed: usize| [&[tag][..], &vec![0; fixed]].concat();
    type Rejects = fn(&[u8]) -> bool;
    let request: Rejects = |b| DirRequest::decode(b).is_err();
    let reply: Rejects = |b| DirReply::decode(b).is_err();
    let op: Rejects = |b| DirOp::decode(b).is_err();
    let cases: [(&str, Vec<u8>, Rejects); 10] = [
        ("InstallDir request", claim(&[13], true, 1_000_000), request),
        ("LookupSet request", claim(&[7], false, 10_000), request),
        ("ReplaceSet request", claim(&[8], false, 10_000), request),
        ("Caps reply", claim(&[4], false, 10_000), reply),
        ("Listing reply", claim(&[3], true, 1_000_000), reply),
        (
            "Export reply",
            claim(&tagged(7, 16), true, 1_000_000),
            reply,
        ),
        (
            "Snapshot reply",
            claim(&tagged(8, 17), true, 1_000_000),
            reply,
        ),
        ("ReplaceSet op", claim(&[6], false, 10_000), op),
        ("InstallDir op", claim(&[10], true, 1_000_000), op),
        ("directory file", claim(&[0; 8], true, 1_000_000), |b| {
            Directory::decode(b).is_err()
        }),
    ];
    for (what, bytes, rejects) in cases {
        let before = REQUESTED.load(Ordering::Relaxed);
        let rejected = rejects(&bytes);
        let requested = REQUESTED.load(Ordering::Relaxed) - before;
        assert!(rejected, "{what}: nothing behind its count");
        assert!(
            requested < 64 * 1024,
            "{what}: rejecting {} bytes requested {requested} bytes of heap",
            bytes.len()
        );
    }
}

/// Invariant 1 of `amoeba_dir_core`: an op and a directory file are each
/// encoded into one buffer of exactly their length — plus the `Arc` that
/// shares it — and the buffer is never grown.
#[test]
fn an_op_and_a_directory_encode_into_one_exact_size_buffer() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let owner = Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1);
    let columns = vec!["owner".to_string(), "other".to_string()];
    let masks = vec![Rights::ALL, Rights::NONE];
    let mut dir = Directory::new(columns.clone());
    for r in 0..40 {
        dir.append_row(format!("row-{r}"), owner, masks.clone())
            .expect("fresh name");
    }
    let op = DirOp::InstallDir {
        columns,
        rows: dir.rows.clone(),
        check: 0xC1,
        key: 7,
    };
    let shared = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Vec<u8>>();
    let mine = || MINE.with(Cell::get);
    let before = mine();
    let op_bytes = op.encode();
    assert_eq!(mine() - before, op_bytes.len() + shared, "the op");
    let before = mine();
    let dir_bytes = dir.encode();
    assert_eq!(mine() - before, dir_bytes.len() + shared, "the directory");
}

/// Bytes of heap the whole process requests while a client makes 1,000
/// lookups of one name in a directory of `rows` rows, each a `LookupSet`
/// served off a replica's RAM cache.
fn requested_by_1000_lookups(rows: usize) -> usize {
    let mut sim = Simulation::new(7);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("reader", move |ctx| {
        let dir = loop {
            match client.create_dir(ctx, &["owner"]) {
                Ok(cap) => break cap,
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        };
        for r in 0..rows {
            client
                .append_row(ctx, dir, &format!("row-{r}"), dir, vec![Rights::ALL])
                .expect("append");
        }
        let before = REQUESTED.load(Ordering::Relaxed);
        for _ in 0..1_000 {
            assert!(client.lookup(ctx, dir, "row-3").expect("lookup").is_some());
        }
        REQUESTED.load(Ordering::Relaxed) - before
    });
    sim.run_for(Duration::from_secs(60));
    out.take().expect("the lookups returned")
}

#[test]
fn a_lookup_requests_no_more_heap_in_a_bigger_directory() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (small, big) = (requested_by_1000_lookups(4), requested_by_1000_lookups(64));
    assert!(
        big <= small + small / 10,
        "1,000 lookups requested {small} bytes with 4 rows, {big} with 64"
    );
}

/// Bytes of heap requested by 1,000 applies of a read-lease grant on a
/// directory of `rows` rows, on a replica that did not initiate them.
fn requested_by_1000_unasked_grants(rows: usize) -> usize {
    let mut sim = Simulation::new(1);
    let (node, sm) = machine_that_never_flushes(&sim);
    let owner = Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1);
    let out = sim.spawn_on(node, "replica", move |ctx| {
        let create = DirOp::Create {
            columns: vec!["owner".into()],
            check: 0xC1,
        };
        let appends = (0..rows).map(|r| DirOp::Append {
            object: 1,
            name: format!("row-{r}"),
            cap: owner,
            col_rights: vec![Rights::ALL],
        });
        let mut seq = 0;
        for op in std::iter::once(create).chain(appends) {
            seq += 1;
            sm.apply(ctx, seq, &op.encode(), false);
        }
        let grant = DirOp::GrantRead {
            cap: owner,
            owner: 7,
            cb_port: 7,
            now_us: 0,
            deadline_us: 400_000,
        }
        .encode();
        let before = REQUESTED.load(Ordering::Relaxed);
        for _ in 0..1_000 {
            seq += 1;
            assert!(sm.apply(ctx, seq, &grant, false).is_empty());
        }
        let requested = REQUESTED.load(Ordering::Relaxed) - before;
        // The grants did happen: asked, the machine answers with all rows.
        let snapshot = sm.apply(ctx, seq + 1, &grant, true);
        assert!(snapshot.len() > rows * "row-0".len());
        requested
    });
    sim.run_for(Duration::from_secs(60));
    out.take().expect("the grants were applied")
}

#[test]
fn a_grant_nobody_asked_about_requests_no_more_heap_in_a_bigger_directory() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (small, big) = (
        requested_by_1000_unasked_grants(4),
        requested_by_1000_unasked_grants(64),
    );
    // A few hundred bytes either way, so leave room for the harness,
    // which starts the next test's thread whenever it likes.
    assert!(
        big <= small + small / 10 + 64 * 1024,
        "1,000 grants requested {small} bytes with 4 rows, {big} with 64"
    );
}
