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
//! each marshalled into one buffer of exactly their length, the one
//! allocation each makes.
//!
//! And a message between two processes costs no heap of its own, and a
//! one-shot reply channel none past its creation; a blocking call, whose
//! reply mailbox its caller keeps, none at all; a group whose timers
//! find nothing to do allocates nothing when they fire.
//!
//! And a group keeps only what is live: past its window, a message sent
//! through a group leaves nothing behind, its history is one ring of
//! records allocated once, and a directory server's object
//! table holds its live entries, not every slot its partition could hold.
//!
//! And a routed network's duplicate suppression is one packet id per
//! node: its first flood costs no heap, and more packets across a router
//! cost none either.
//!
//! And an update copies pointers, not rows: a directory's next version
//! shares every row the update did not change, and carries its file's
//! bytes, so an append and its flush allocate as often in a big
//! directory as in a small one; and a disk keeps the bytes its writer
//! hands it, so a Bullet file reaches the platters without a copy of
//! its blocks, and a journal keeps only its live records.
//!
//! And a disk read hands back the blocks the platters keep: booting an
//! object table from a fresh partition holds no block of its own per
//! block read, and a cold Bullet read copies the file at most once,
//! into a buffer of its own length that its cache keeps.
//!
//! The tests in this file count every byte the process allocates, so
//! they take turns ([`ALONE`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use amoeba_dirsvc::bullet::{start_bullet_server, BulletClient, BulletStore};
use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{
    Capability, DirError, DirOp, DirParams, DirReply, DirRequest, Directory, DirectoryStateMachine,
    ObjectTable, Rights, ServiceConfig, Storage,
};
use amoeba_dirsvc::disk::{DiskParams, DiskServer, Journal, RawPartition, VDisk};
use amoeba_dirsvc::flip::wire::{Wire, WireWriter};
use amoeba_dirsvc::flip::{Dest, NetParams, Network, Payload, Port, Topology};
use amoeba_dirsvc::group::{GroupConfig, GroupPeer};
use amoeba_dirsvc::rpc::{RpcClient, RpcNode, RpcServer};
use amoeba_dirsvc::rsm::StateMachine;
use amoeba_dirsvc::sim::{mapped_stacks, NodeId, Resource, Simulation};

/// The system allocator, counting live bytes and bytes ever requested.
struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// Held by each test for its whole body: the requested count is
/// process-wide.
static ALONE: Mutex<()> = Mutex::new(());

thread_local! {
    /// Bytes ever requested by this thread: exact, where the process-wide
    /// count also sees the test harness's threads.
    static MINE: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated by this thread less those it freed. A simulation
    /// runs on the thread that calls it, and frees there what it
    /// allocated, so this is its live heap, whatever other threads do.
    static MINE_LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations this thread ever made (a `realloc` is one: the
    /// default `GlobalAlloc::realloc` allocates anew).
    static MINE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// The highest [`MINE_LIVE`] reached since the last [`mark`].
    static MINE_PEAK: Cell<isize> = const { Cell::new(0) };
}

/// This thread's live heap ([`MINE_LIVE`]).
fn live() -> isize {
    MINE_LIVE.with(Cell::get)
}

/// This thread's allocations so far ([`MINE_ALLOCS`]).
fn allocs() -> usize {
    MINE_ALLOCS.with(Cell::get)
}

/// Starts a new live high-water mark at this thread's live heap, and
/// returns that heap, for [`peak_live_since`].
fn mark() -> isize {
    let now = live();
    MINE_PEAK.with(|peak| peak.set(now));
    now
}

/// How far above `mark` (what [`mark`] returned) this thread's live heap
/// has been at its highest since.
fn peak_live_since(mark: isize) -> isize {
    MINE_PEAK.with(Cell::get) - mark
}

/// The bytes a shared buffer of `len` bytes requests: the `Rc`'s two
/// counts, then the bytes, padded to the counts' alignment.
fn shared_buffer(len: usize) -> usize {
    (2 * std::mem::size_of::<usize>() + len).next_multiple_of(std::mem::align_of::<usize>())
}

// SAFETY: every call is passed to `System` unchanged; the counters are the
// only addition and do not touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        let _ = MINE.try_with(|mine| mine.set(mine.get() + layout.size()));
        let _ = MINE_LIVE.try_with(|live| {
            live.set(live.get() + layout.size() as isize);
            let _ = MINE_PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        let _ = MINE_ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = MINE_LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
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

/// Process stacks are mapped, not allocated, so the counter above never
/// sees them; the simulator counts them itself.
#[test]
fn a_dropped_deployment_leaves_no_heap_behind() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let stacks = mapped_stacks();
    // Once for whatever is allocated once per process (thread-locals,
    // the panic hook, the test harness's own buffers).
    deployment_with_a_crash_and_a_reboot();
    let before = live();
    for _ in 0..5 {
        deployment_with_a_crash_and_a_reboot();
    }
    assert_eq!(live(), before);
    assert_eq!(mapped_stacks(), stacks, "process stacks still mapped");
}

/// A message is a plain event: once the queues have grown to their
/// working size, a round trip between two processes requests no heap.
#[test]
fn a_message_costs_no_heap_of_its_own() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = Simulation::new(1);
    let (to_b, b_rx) = sim.channel::<u64>();
    let (to_a, a_rx) = sim.channel::<u64>();
    let requested = sim.spawn("a", move |ctx| {
        let round_trips = |n: u64| {
            for i in 0..n {
                to_b.send(i);
                assert_eq!(a_rx.recv(ctx), i);
            }
        };
        round_trips(100);
        let before = MINE.with(Cell::get);
        round_trips(1_000);
        MINE.with(Cell::get) - before
    });
    sim.spawn("b", move |ctx| loop {
        to_a.send(b_rx.recv(ctx));
    });
    sim.run();
    assert_eq!(
        requested.take(),
        Some(0),
        "bytes requested by 1,000 round trips"
    );
}

/// A one-shot reply channel (an RPC call's, a disk request's) costs the
/// allocation of its slot and nothing more: its message waits inline,
/// in flight and then queued. Two `VecDeque` buffers per channel read 2
/// more.
#[test]
fn a_reply_channel_allocates_only_its_slot() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = Simulation::new(1);
    let out = sim.spawn("caller", move |ctx| {
        let round = || {
            let before = allocs();
            let (tx, rx) = ctx.channel::<u64>();
            let created = allocs() - before;
            tx.send(7);
            assert_eq!(rx.recv(ctx), 7);
            (created, allocs() - before - created)
        };
        // Once first, so that the kernel's queues and its mailbox table
        // are at their working size.
        round();
        round()
    });
    sim.run();
    assert_eq!(
        out.take(),
        Some((1, 0)),
        "allocations: (creating the channel, one send and recv)"
    );
}

/// A group whose protocol timers find nothing to do: one member, the
/// sequencer, with no heartbeat due. Its peer's tick ran every 20 ms
/// and collected a list of every instance's (empty) actions each time:
/// 50 allocations a simulated second.
#[test]
fn an_idle_group_tick_allocates_nothing() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let node = sim.add_node("m");
    let cfg = GroupConfig {
        heartbeat_interval: Duration::from_secs(3_600),
        ..GroupConfig::default()
    };
    let peer = GroupPeer::start(&sim, node, net.attach(), cfg);
    let group = peer.create(Port::from_name("no-leak"), 0);
    sim.run_for(Duration::from_secs(1));
    let before = allocs();
    sim.run_for(Duration::from_secs(1));
    assert_eq!(allocs() - before, 0, "allocations of 50 idle ticks");
    drop(group);
}

/// A directory machine on a node of its own, with no Bullet server
/// behind its stub: for tests that apply and install but never flush.
fn machine_that_never_flushes(sim: &Simulation) -> (NodeId, DirectoryStateMachine) {
    let node = sim.add_node("m");
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let rpc = RpcNode::start(node, net.attach());
    let disk = DiskServer::start(sim, node, VDisk::new(64, 4096), DiskParams::instant());
    let cfg = ServiceConfig::new(3, 0);
    let sm = DirectoryStateMachine::standalone(
        cfg.clone(),
        DirParams::default(),
        BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0)),
        RawPartition::new(disk, 0, 16),
        Storage::InPlace,
        Resource::new(sim.handle(), "cpu"),
    );
    (node, sm)
}

#[test]
fn a_rejected_snapshot_allocates_nothing_for_its_claimed_counts() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = Simulation::new(1);
    let (node, sm) = machine_that_never_flushes(&sim);
    // One snapshot per count field (entries, the two empty sections,
    // read leases): the counts before it are zero, it claims a million,
    // and the body ends there.
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
    // Tag, then the fixed fields before the columns: two u64s and a
    // renewed flag for a snapshot.
    let tagged = |tag: u8, fixed: usize| [&[tag][..], &vec![0; fixed]].concat();
    type Rejects = fn(&[u8]) -> bool;
    let request: Rejects = |b| DirRequest::decode(b).is_err();
    let reply: Rejects = |b| DirReply::decode(b).is_err();
    let op: Rejects = |b| DirOp::decode(b).is_err();
    let cases: [(&str, Vec<u8>, Rejects); 7] = [
        ("LookupSet request", claim(&[7], false, 10_000), request),
        ("ReplaceSet request", claim(&[8], false, 10_000), request),
        ("Caps reply", claim(&[4], false, 10_000), reply),
        ("Listing reply", claim(&[3], true, 1_000_000), reply),
        (
            "Snapshot reply",
            claim(&tagged(8, 17), true, 1_000_000),
            reply,
        ),
        ("ReplaceSet op", claim(&[6], false, 10_000), op),
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
/// encoded into one buffer of exactly their length — with the `Rc`'s
/// counts in front — in one allocation. Encoding measured first, then
/// wrote into a `Vec` the `Rc` wrapped: 2 allocations each.
#[test]
fn an_op_and_a_directory_encode_into_one_exact_size_buffer() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let owner = Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1);
    let columns = vec!["owner".to_string(), "other".to_string()];
    let masks = vec![Rights::ALL, Rights::NONE];
    let mut dir = Directory::new(columns);
    for r in 0..40 {
        dir.append_row(format!("row-{r}"), owner, masks.clone())
            .expect("fresh name");
    }
    let op = DirOp::ReplaceSet {
        items: dir
            .rows()
            .iter()
            .map(|r| (1, r.name.to_string(), owner))
            .collect(),
    };
    // Once first, so that the thread's scratch buffer has grown to both.
    let _ = (op.encode(), dir.encode());
    let mine = || MINE.with(Cell::get);
    let (before, calls) = (mine(), allocs());
    let op_bytes = op.encode();
    assert_eq!(allocs() - calls, 1, "allocations of the op");
    assert_eq!(mine() - before, shared_buffer(op_bytes.len()), "the op");
    let (before, calls) = (mine(), allocs());
    let dir_bytes = dir.encode();
    assert_eq!(allocs() - calls, 1, "allocations of the directory");
    assert_eq!(
        mine() - before,
        shared_buffer(dir_bytes.len()),
        "the directory"
    );
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
            cb_port: Port::from_raw(7),
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
        // The grants did happen: asked, the machine grants, and the
        // holder's answer holds all rows.
        let granted = sm.apply(ctx, seq + 1, &grant, true);
        assert!(matches!(DirReply::decode(&granted), Ok(DirReply::Ok)));
        let snapshot = sm.lease_answer(ctx, &owner, 0, 400_000);
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

/// The heap one read-lease grant requests on a directory of `rows` rows,
/// applied on the replica that owes the holder its answer, and its
/// reply's length; then the same two for the answer its initiator sends.
fn requested_by_an_answered_grant(rows: usize) -> [(usize, usize); 2] {
    let mut sim = Simulation::new(1);
    let (node, sm) = machine_that_never_flushes(&sim);
    let owner = Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1);
    let out = sim.spawn_on(node, "replica", move |ctx| {
        let create = DirOp::Create {
            columns: vec!["owner".into(), "other".into()],
            check: 0xC1,
        };
        let appends = (0..rows).map(|r| DirOp::Append {
            object: 1,
            name: format!("row-{r}"),
            cap: owner,
            col_rights: vec![Rights::ALL, Rights::NONE],
        });
        let grant = DirOp::GrantRead {
            cap: owner,
            owner: 7,
            cb_port: Port::from_raw(7),
            now_us: 0,
            deadline_us: 400_000,
        };
        // The second grant finds the holder's lease already in the table.
        let ops: Vec<_> = std::iter::once(create)
            .chain(appends)
            .chain([grant.clone(), grant])
            .map(|op| op.encode())
            .collect();
        let (last, setup) = ops.split_last().expect("ops");
        for (seq, op) in setup.iter().enumerate() {
            sm.apply(ctx, seq as u64 + 1, op, true);
        }
        let mine = || MINE.with(Cell::get);
        let before = mine();
        let granted = sm.apply(ctx, ops.len() as u64, last, true);
        let applied = (mine() - before, granted.len());
        // Once first, so that the thread's scratch buffer has grown to
        // the answer.
        let _ = sm.lease_answer(ctx, &owner, 0, 400_000);
        let before = mine();
        let answer = sm.lease_answer(ctx, &owner, 0, 400_000);
        [applied, (mine() - before, answer.len())]
    });
    sim.run_for(Duration::from_secs(60));
    out.take().expect("the grant was applied")
}

/// A grant this replica answers costs its apply the one-byte `Ok` alone,
/// and the answer its initiator then sends is written straight from the
/// shared version of the directory into one buffer of exactly its
/// length, with the `Rc`'s counts in front: no row is copied on the way.
#[test]
fn an_answered_grant_is_one_exact_size_buffer() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    for rows in [4, 64] {
        let [(applied, granted), (requested, len)] = requested_by_an_answered_grant(rows);
        assert_eq!((applied, granted), (shared_buffer(1), 1), "{rows} rows");
        assert!(
            len > rows * "row-0".len(),
            "{rows} rows: the answer holds them"
        );
        assert_eq!(requested, shared_buffer(len), "{rows} rows");
    }
}

/// The live heap of a 3-member r = 2 group (at the default `history`),
/// read once its view is whole and again after member 1 has sent each
/// count of `phases` more messages, `message(k)` the `k`-th of a phase:
/// every member delivers every message, and each keeps the last
/// `history` of them.
fn live_heap_while_a_group_sends(phases: [u64; 2], message: fn(u64) -> Vec<u8>) -> [isize; 3] {
    let mut sim = Simulation::new(3);
    let net = Network::new(sim.handle(), NetParams::default(), 1);
    let port = Port::from_name("no-leak");
    let mut outs = Vec::new();
    for i in 0..3u64 {
        let node = sim.add_node(&format!("m{i}"));
        let peer = GroupPeer::start(&sim, node, net.attach(), GroupConfig::with_resilience(2));
        outs.push(sim.spawn_on(node, "member", move |ctx| {
            let g = if i == 0 {
                peer.create(port, 0)
            } else {
                ctx.sleep(Duration::from_millis(10 * i));
                peer.join(ctx, port, i, Duration::from_secs(2))
                    .expect("join")
            };
            let g = std::rc::Rc::new(g);
            let rx = g.clone();
            ctx.spawn("rx", move |ctx| while rx.recv(ctx).is_ok() {});
            if i != 1 {
                return None;
            }
            while g.info().expect("info").view.len() < 3 {
                ctx.sleep(Duration::from_millis(5));
            }
            // Let the last joiner settle in.
            ctx.sleep(Duration::from_millis(100));
            let mut live = [self::live(); 3];
            for (n, live) in phases.into_iter().zip(&mut live[1..]) {
                for k in 0..n {
                    g.send(ctx, message(k)).expect("send");
                }
                // Let the last acks and deliveries land.
                ctx.sleep(Duration::from_millis(100));
                *live = self::live();
            }
            Some(live)
        }));
    }
    sim.run_for(Duration::from_secs(3_600));
    outs[1].take().flatten().expect("the sends completed")
}

/// Live heap, per message, that a 3-member r = 2 group keeps while member
/// 1 sends `10 × warm_up` messages, counted from the moment it has sent
/// `warm_up`.
fn live_bytes_per_group_message(warm_up: u64) -> f64 {
    let [_, warm, end] =
        live_heap_while_a_group_sends([warm_up, 10 * warm_up], |k| k.to_le_bytes().to_vec());
    (end - warm) as f64 / (10 * warm_up) as f64
}

#[test]
fn nothing_per_group_message_outlives_the_window() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    // Twice the default history of 1,024 slots.
    let per_message = live_bytes_per_group_message(2_048);
    // Duplicate suppression keeps one run of msgids per sender, so about
    // 0 B. One entry per message per member read about 105 B over the
    // three; a history that kept every message (65,536 slots, more than
    // this test sends) read 695 B.
    assert!(
        per_message < 8.0,
        "{per_message:.1} bytes of live heap per message, over 3 members"
    );
}

/// The live heap of an empty object table over a partition of `blocks`
/// blocks.
fn live_bytes_of_an_object_table(blocks: u64) -> isize {
    let mut sim = Simulation::new(1);
    let node = sim.add_node("m");
    let disk = DiskServer::start(&sim, node, VDisk::new(blocks, 4096), DiskParams::instant());
    let out = sim.spawn_on(node, "table", move |_ctx| {
        let part = RawPartition::new(disk, 0, blocks);
        let before = live();
        let table = ObjectTable::new(part);
        let bytes = live() - before;
        assert_eq!(table.capacity(), (blocks - 1) * (4096 / 40));
        bytes
    });
    sim.run();
    out.take().expect("the table was made")
}

/// RAM holds the live entries only: how many slots the partition has
/// room for costs no heap.
#[test]
fn an_object_table_costs_the_same_heap_over_any_partition() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (small, big) = (
        live_bytes_of_an_object_table(16),
        live_bytes_of_an_object_table(1_024),
    );
    assert_eq!(
        small, big,
        "{small} bytes live over 16 blocks, {big} over 1,024"
    );
}

/// Each member's history is one ring of `history + 1` records, allocated
/// once: a group that has sent twice its `history` of empty messages
/// (which hold no buffer) holds those rings and next to nothing else.
/// History kept in a sorted map read about 139 KB per member, twice the
/// ring.
#[test]
fn a_group_history_is_one_ring_of_records() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let history = GroupConfig::with_resilience(2).history;
    let [formed, _, end] = live_heap_while_a_group_sends([history, history], |_| Vec::new());
    // `amoeba-group` pins a record (with its `Option`) at 64 bytes.
    let rings = 3 * (history as isize + 1) * 64;
    let growth = end - formed;
    assert!(
        growth <= rings + 4 * 1024,
        "{} messages grew the live heap by {growth} bytes; the rings take {rings}",
        2 * history
    );
}

/// Live heap that a 4-segment star (one hub router, the `shard_star`
/// shape) with two hosts per segment gains between its 2,000th and its
/// 20,000th packet, each from a host to one on the next segment.
fn live_growth_of_a_routed_network() -> isize {
    let mut sim = Simulation::new(9);
    let mut t = Topology::new();
    let segs: Vec<_> = (0..4)
        .map(|s| t.add_segment(&format!("net-s{s}")))
        .collect();
    t.add_router("hub", &segs);
    let net = Network::with_topology(sim.handle(), NetParams::default(), t, 9);
    let port = Port::from_name("no-leak");
    let stacks: Vec<_> = (0..8).map(|h| net.attach_to(segs[h / 2])).collect();
    for (h, stack) in stacks.iter().enumerate() {
        let rx = stack.bind(port);
        sim.spawn(&format!("rx{h}"), move |ctx| loop {
            rx.recv(ctx);
        });
    }
    let out = sim.spawn("send", move |ctx| {
        let mut sent = 0;
        let mut live = Vec::new();
        for until in [2_000, 20_000] {
            while sent < until {
                let (from, to) = (&stacks[sent % 8], &stacks[(sent + 2) % 8]);
                from.send(to.addr(), port, vec![0; 16]);
                sent += 1;
                // The hub forwards one packet per ≈ 1.1 ms: keep below it.
                ctx.sleep(Duration::from_millis(2));
            }
            // Let the last deliveries land.
            ctx.sleep(Duration::from_millis(100));
            live.push(self::live());
        }
        live[1] - live[0]
    });
    sim.run_for(Duration::from_secs(3_600));
    out.take().expect("the packets were sent")
}

#[test]
fn a_routed_network_stays_flat_as_packets_cross_it() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let growth = live_growth_of_a_routed_network();
    assert!(
        growth < 4 * 1024,
        "18,000 more packets across the hub left {growth} bytes more live heap"
    );
}

/// Live heap that a 4-segment star (one hub router) gains from its
/// first flood: a broadcast from one of the 8 hosts on the hub's first
/// segment, which the other 7 receive and the hub forwards onto the
/// other 3 (where no host listens). A broadcast of one hop had taught
/// the hub the route back to the sender, so only duplicate suppression
/// meets the flood for the first time. Returns the growth and how many
/// nodes processed the flood.
fn live_growth_of_a_first_flood() -> (isize, u64) {
    let mut sim = Simulation::new(9);
    let mut t = Topology::new();
    let segs: Vec<_> = (0..4)
        .map(|s| t.add_segment(&format!("net-s{s}")))
        .collect();
    t.add_router("hub", &segs);
    let net = Network::with_topology(sim.handle(), NetParams::default(), t, 9);
    let (port, unbound) = (Port::from_name("no-leak"), Port::from_name("nobody"));
    let stacks: Vec<_> = (0..8).map(|_| net.attach_to(segs[0])).collect();
    for (h, stack) in stacks.iter().enumerate().skip(1) {
        let rx = stack.bind(port);
        sim.spawn(&format!("rx{h}"), move |ctx| loop {
            rx.recv(ctx);
        });
    }
    let stats = net.clone();
    let out = sim.spawn("send", move |ctx| {
        let from = &stacks[0];
        from.send_with_ttl(Dest::Broadcast, unbound, vec![0; 16], 1);
        ctx.sleep(Duration::from_millis(100));
        let before = live();
        from.send(Dest::Broadcast, port, vec![0; 16]);
        ctx.sleep(Duration::from_millis(100));
        live() - before
    });
    sim.run_for(Duration::from_secs(1));
    let s = stats.stats();
    assert_eq!((s.deliveries, s.packets_forwarded), (7, 3), "{s:?}");
    (out.take().expect("the flood was sent"), s.deliveries + 1)
}

/// A node's duplicate suppression is one packet id, the last it
/// processed: a routed network's first flood costs it no heap. A ring of
/// 4,096 recent ids per node read 32 KiB each.
#[test]
fn a_first_flood_costs_duplicate_suppression_no_heap() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (growth, nodes) = live_growth_of_a_first_flood();
    assert!(
        growth <= 64 * nodes as isize,
        "the first flood across {nodes} nodes left {growth} bytes more live heap"
    );
}

/// A directory machine on a node of its own, with a Bullet server behind
/// its stub on one instant disk: for tests that flush.
fn machine_that_flushes(sim: &Simulation) -> (NodeId, DirectoryStateMachine) {
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
        DirParams::default(),
        BulletClient::new(RpcClient::new(&rpc), cfg.bullet_port(0)),
        RawPartition::new(disk, 0, 16),
        Storage::InPlace,
        Resource::new(sim.handle(), "cpu"),
    );
    (node, sm)
}

/// Allocations one `Append` makes, applied on a replica that owes no
/// reply and then flushed (its directory's new Bullet file, the table
/// block, the old file's delete), to a directory of `rows` rows whose
/// every earlier update was flushed.
fn allocations_of_one_append(rows: usize) -> usize {
    let mut sim = Simulation::new(1);
    let (node, sm) = machine_that_flushes(&sim);
    let owner = Capability::owner(ServiceConfig::new(3, 0).public_port, 1, 0xC1);
    let out = sim.spawn_on(node, "replica", move |ctx| {
        let append = |name: String| {
            DirOp::Append {
                object: 1,
                name,
                cap: owner,
                col_rights: vec![Rights::ALL, Rights::NONE],
            }
            .encode()
        };
        let create = DirOp::Create {
            columns: vec!["owner".into(), "other".into()],
            check: 0xC1,
        }
        .encode();
        let setup = std::iter::once(create).chain((0..rows).map(|r| append(format!("row-{r}"))));
        let mut seq = 0;
        for op in setup {
            seq += 1;
            sm.apply(ctx, seq, &op, false);
        }
        sm.flush(ctx);
        let last = append("last".into());
        let before = MINE_ALLOCS.with(Cell::get);
        sm.apply(ctx, seq + 1, &last, false);
        sm.flush(ctx);
        let allocations = MINE_ALLOCS.with(Cell::get) - before;
        let again = DirReply::decode(&sm.apply(ctx, seq + 2, &last, true));
        assert_eq!(
            again,
            Ok(DirReply::Err(DirError::DuplicateName)),
            "it was applied"
        );
        allocations
    });
    sim.run_for(Duration::from_secs(60));
    out.take().expect("the append was applied")
}

/// An update copies the row handles of its directory, not the rows: one
/// `Vec` whatever the directory's size, allocated at its final length;
/// and its flush copies the body the version carries instead of
/// encoding every row. One append and its flush allocate 24 times over
/// any number of rows. Copying each row's name and masks read about 2
/// more allocations per row. The count read 30 with a fresh reply
/// mailbox for each of the flush's six blocking calls: the Bullet
/// create and delete (each an RPC call and the server thread's
/// `getreq`), the file's disk write and the table block's.
#[test]
fn an_update_allocates_the_same_in_a_big_directory() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (small, big) = (
        allocations_of_one_append(16),
        allocations_of_one_append(256),
    );
    assert_eq!(
        (small, big),
        (24, 24),
        "allocations of one flushed append over 16 rows and over 256"
    );
}

/// A Bullet file reaches the platters as its writer's buffer: a
/// `write_run` of its block slices adds no copy of a block to the live
/// heap. A disk that copied and padded each block read 8 × 4 KB more.
#[test]
fn a_disk_write_keeps_the_writers_bytes() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    const BLOCK: usize = 4096;
    let mut sim = Simulation::new(1);
    let node = sim.add_node("m");
    let disk = DiskServer::start(&sim, node, VDisk::new(64, BLOCK), DiskParams::instant());
    let out = sim.spawn_on(node, "bullet", move |ctx| {
        // A Bullet create's shape: the file's one buffer, cut into one
        // slice per block, the last block short.
        let file = Payload::new((0..8 * BLOCK - 100).map(|i| i as u8).collect());
        let blocks = || -> Vec<Payload> {
            (0..8)
                .map(|b| file.slice(b * BLOCK..((b + 1) * BLOCK).min(file.len())))
                .collect()
        };
        // Once first, so that nothing the disk holds per block grows
        // only the first time.
        disk.write_run(ctx, 0, blocks());
        let before = live();
        disk.write_run(ctx, 8, blocks());
        let growth = live() - before;
        for b in 0..8 {
            let read = disk.vdisk().read_block(8 + b as u64);
            let written = &file[b * BLOCK..((b + 1) * BLOCK).min(file.len())];
            assert_eq!(&read[..written.len()], written, "block {b}");
            assert!(
                read[written.len()..].iter().all(|x| *x == 0),
                "block {b} pads"
            );
        }
        growth
    });
    sim.run();
    let growth = out.take().expect("the file was written");
    assert!(
        growth < BLOCK as isize,
        "8 blocks of {BLOCK} B left {growth} bytes more live heap"
    );
}

/// Allocations the whole process makes while a client on one machine
/// makes `calls` null RPCs to a server thread on another, after 100
/// that located the server and grew the kernel's tables to their
/// working size.
fn allocations_of_null_calls(calls: usize) -> usize {
    let mut sim = Simulation::new(1);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 1);
    let service = Port::from_name("null");
    let nodes = ["server", "client"].map(|name| {
        let sim_node = sim.add_node(name);
        (sim_node, RpcNode::start(sim_node, net.attach()))
    });
    let server = RpcServer::new(&nodes[0].1, service);
    sim.spawn_on(nodes[0].0, "null-server", move |ctx| loop {
        let req = server.getreq(ctx);
        server.putrep(&req, Vec::new());
    });
    let client = RpcClient::new(&nodes[1].1);
    let out = sim.spawn_on(nodes[1].0, "caller", move |ctx| {
        let null = Payload::empty();
        for _ in 0..100 {
            client.trans(ctx, service, null.clone()).expect("warm-up");
        }
        let before = allocs();
        for _ in 0..calls {
            client.trans(ctx, service, null.clone()).expect("null call");
        }
        allocs() - before
    });
    sim.run();
    out.take().expect("every call returned")
}

/// A blocking call's reply mailbox is its caller's, kept between calls
/// (`Ctx::reply_channel`): past the first call neither the client's
/// reply channel nor the server thread's `getreq` allocates. What a
/// null call allocates is its two messages, the request and the reply,
/// each one shared buffer. A fresh mailbox per call and per `getreq`
/// read 2 more.
#[test]
fn a_call_and_a_getreq_allocate_no_mailbox() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    // The difference of two runs: what a call allocates, without what
    // one run allocates once.
    assert_eq!(
        allocations_of_null_calls(2_000) - allocations_of_null_calls(1_000),
        2 * 1_000,
        "allocations of 1,000 null calls"
    );
}

/// The blocks a journal's region holds in host memory over 400
/// appends of one-block records, checkpointed (reset) every 20.
fn journal_resident_blocks() -> Vec<usize> {
    const BLOCK: usize = 512;
    let mut sim = Simulation::new(1);
    let node = sim.add_node("m");
    let vdisk = VDisk::new(256, BLOCK);
    let disk = DiskServer::start(&sim, node, vdisk.clone(), DiskParams::instant());
    let journal = Journal::disk(RawPartition::new(disk, 0, 256));
    let out = sim.spawn_on(node, "logger", move |ctx| {
        journal.recover(ctx);
        let mut resident = Vec::new();
        for i in 0..400u32 {
            journal.append(ctx, &i.to_le_bytes()).expect("room");
            if i % 20 == 19 {
                assert!(journal.try_reset(ctx, journal.next_seq()), "reset");
                resident.push(vdisk.resident_blocks());
            }
        }
        resident
    });
    sim.run();
    out.take().expect("the loop ran")
}

/// A journal reset frees the blocks of the records it disowns, so the
/// region keeps only its superblock resident after each checkpoint,
/// however long the log has run. Without the discard every frame the
/// log ever wrote stayed resident (21 blocks here): a journaled
/// replica held as much memory as its deepest log, up to the whole
/// region.
#[test]
fn a_journal_keeps_only_its_live_records_resident() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(journal_resident_blocks(), vec![1; 20]);
}

/// Booting reads the object table's whole partition in one run, and the
/// blocks come back as the platters keep them: a fresh partition's are
/// all the disk's one zero block. A disk that zero-filled a fresh buffer
/// per block read raised the live high-water by all 64 (256 KiB).
#[test]
fn loading_an_object_table_holds_no_copy_of_its_blocks() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    const BLOCK: usize = 4096;
    const BLOCKS: u64 = 64;
    let mut sim = Simulation::new(1);
    let node = sim.add_node("m");
    let disk = DiskServer::start(&sim, node, VDisk::new(BLOCKS, BLOCK), DiskParams::instant());
    let out = sim.spawn_on(node, "boot", move |ctx| {
        let part = RawPartition::new(disk, 0, BLOCKS);
        let mark = mark();
        let table = ObjectTable::load(part, ctx);
        let peak = peak_live_since(mark);
        assert_eq!(table.iter().count(), 0);
        peak
    });
    sim.run();
    let peak = out.take().expect("the table loaded");
    assert!(
        peak < 2 * BLOCK as isize,
        "loading {BLOCKS} blocks of {BLOCK} B raised the live heap by {peak} bytes"
    );
}

/// What a client's two reads of a file of `len` bytes cost this thread:
/// the first from a Bullet server that has never read it (cold: from the
/// disk), the second from that server's cache (warm).
struct ColdAndWarm {
    /// Bytes requested by the cold read.
    cold: usize,
    /// Bytes requested by the warm read.
    warm: usize,
    /// How much the live heap grew across the cold read, once the client
    /// dropped what it read: what the server's cache keeps of the file.
    kept: isize,
}

/// Reads a file of `len` bytes cold and then warm ([`ColdAndWarm`]).
/// Another Bullet server over the same disk and store creates the file,
/// so the file's blocks are slices of its create's buffer, as after a
/// reboot.
fn a_cold_and_a_warm_read(len: usize) -> ColdAndWarm {
    const BLOCK: usize = 4096;
    let mut sim = Simulation::new(5);
    let net = Network::new(sim.handle(), NetParams::lan_10mbps(), 5);
    let (writer, reader) = (Port::from_name("bullet.w"), Port::from_name("bullet.r"));
    let srv_node = sim.add_node("bullet-machine");
    let srv_rpc = RpcNode::start(srv_node, net.attach());
    let disk = DiskServer::start(
        &sim,
        srv_node,
        VDisk::new(256, BLOCK),
        DiskParams::instant(),
    );
    let store = BulletStore::new(256, BLOCK, 42);
    for port in [writer, reader] {
        start_bullet_server(
            &sim,
            srv_node,
            &srv_rpc,
            port,
            disk.clone(),
            store.clone(),
            0,
            1,
        );
    }
    let cli_node = sim.add_node("client-machine");
    let cli_rpc = RpcNode::start(cli_node, net.attach());
    let (w, r) = (
        BulletClient::new(RpcClient::new(&cli_rpc), writer),
        BulletClient::new(RpcClient::new(&cli_rpc), reader),
    );
    let out = sim.spawn_on(cli_node, "client", move |ctx| {
        let file: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let cap = w.create(ctx, file.clone()).expect("create");
        // Locates the reader's server without reading the file.
        assert_eq!(r.size(ctx, cap), Ok(len as u64));
        let mine = || MINE.with(Cell::get);
        let (before, live_before) = (mine(), live());
        assert_eq!(r.read(ctx, cap).expect("cold read"), file);
        let (cold, kept) = (mine() - before, live() - live_before);
        let before = mine();
        assert_eq!(r.read(ctx, cap).expect("warm read"), file);
        ColdAndWarm {
            cold,
            warm: mine() - before,
            kept,
        }
    });
    sim.run_for(Duration::from_secs(10));
    out.take().expect("the reads completed")
}

/// A cold Bullet read copies the file at most once: beyond a warm read,
/// it requests one buffer of the file's length, the disk's padded copy of
/// a short last block, and change. A server that padded every block,
/// collected them into a growing `Vec` and copied that into the reply's
/// buffer requested four times the file. And the cache keeps that one
/// buffer: the live heap grows by it and a constant (the cache's table),
/// so a file shorter than a block does not keep the disk's padded copy of
/// its block alive (a cache that kept a window on that copy held 4 KiB
/// for a 1-byte file).
#[test]
fn a_cold_bullet_read_copies_the_file_at_most_once() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    const BLOCK: usize = 4096;
    for len in [1, 200, BLOCK - 1, 8 * BLOCK - BLOCK / 2, 8 * BLOCK] {
        let read = a_cold_and_a_warm_read(len);
        let extra = read.cold.saturating_sub(read.warm);
        assert!(
            extra <= len + BLOCK + 1024,
            "a cold read of {len} bytes requested {extra} bytes more than a warm one"
        );
        assert!(
            read.kept <= (shared_buffer(len) + 512) as isize,
            "a cold read of {len} bytes left {} bytes more live",
            read.kept
        );
    }
}
