//! The read barrier end to end. The replica driver wakes a reader once
//! every op ordered before it is applied, while the last batch may still
//! be flushing. A read then waits for that flush only if the batch
//! changed a directory it reads, and it is never served state the batch
//! has not yet made durable. A lease grant is ordered like a write but
//! answered like a read: once applied, under the same rule.

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{Capability, DirClient, DirReply, DirRequest, Rights};
use amoeba_dirsvc::flip::wire::Wire;
use amoeba_dirsvc::flip::Port;
use amoeba_dirsvc::rpc::RpcClient;
use amoeba_dirsvc::sim::{Ctx, SimTime, Simulation};

fn ready_root(ctx: &Ctx, client: &DirClient) -> Capability {
    loop {
        match client.create_dir(ctx, &["owner"]) {
            Ok(c) => return c,
            Err(_) => ctx.sleep(Duration::from_millis(100)),
        }
    }
}

/// The paper's one-shard service, formed, with `dirs` directories.
fn formed(seed: u64, dirs: usize) -> (Simulation, Cluster, Vec<Capability>) {
    let mut sim = Simulation::new(seed);
    let mut params = ClusterParams::paper(Variant::Group);
    params.seed = seed;
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let out = sim.spawn("form", move |ctx| {
        (0..dirs)
            .map(|_| ready_root(ctx, &client))
            .collect::<Vec<_>>()
    });
    sim.run_for(Duration::from_secs(40));
    let roots = out.take().expect("the service formed");
    (sim, cluster, roots)
}

/// How long `f` took in simulated time, and what it returned.
fn timed<R>(ctx: &Ctx, f: impl FnOnce() -> R) -> (R, Duration) {
    let start = ctx.now();
    let r = f();
    (r, ctx.now() - start)
}

fn append(ctx: &Ctx, client: &DirClient, dir: Capability, name: &str) {
    client
        .append_row(ctx, dir, name, dir, vec![Rights::ALL])
        .expect("append acknowledged");
}

/// A `FetchDir` for one lease holder, over the raw transport.
fn fetch(ctx: &Ctx, rpc: &RpcClient, dir: Capability) -> DirReply {
    let req = DirRequest::FetchDir {
        cap: dir,
        owner: 0xB0B,
        cb_port: Port::from_name("idle-holder"),
        ttl_us: 400_000,
        have: 0,
    };
    let bytes = rpc.trans(ctx, dir.port, req.encode()).expect("transport");
    DirReply::decode(&bytes).expect("well-formed reply")
}

/// The loop publishes a batch and, in the same activation, starts
/// applying the one queued behind it; the apply's CPU lands ahead of the
/// woken reader's. A reader placed before the second batch must not be
/// served it while it flushes — a crash of every replica then would lose
/// a row a client had already seen.
#[test]
fn a_read_woken_by_a_publish_is_not_served_the_next_batch() {
    let (mut sim, mut cluster, roots) = formed(801, 1);
    let root = roots[0];
    let (w1, _) = cluster.client(&sim);
    let (w2, _) = cluster.client(&sim);
    let (reader, _) = cluster.client(&sim);
    // `a` is ordered at once and flushes for ≈ 80 ms; the lookup
    // arrives during that flush, and `b` is ordered after the lookup
    // arrived but before `a`'s flush ends.
    let a = sim.spawn("writer-a", move |ctx| append(ctx, &w1, root, "a"));
    let b = sim.spawn("writer-b", move |ctx| {
        ctx.sleep(Duration::from_millis(30));
        let issued = ctx.now();
        append(ctx, &w2, root, "b");
        issued
    });
    let read = sim.spawn("reader", move |ctx| {
        ctx.sleep(Duration::from_millis(20));
        let found = reader.lookup(ctx, root, "b").expect("lookup answered");
        (found, ctx.now())
    });
    sim.run_for(Duration::from_secs(5));
    assert_eq!(a.take(), Some(()));
    let b_issued: SimTime = b.take().expect("b acknowledged");
    let (found, answered) = read.take().expect("lookup returned");
    assert!(
        answered > b_issued,
        "the lookup was still open when b was sent"
    );
    assert_eq!(found, None, "the lookup was served b before b was durable");
}

/// One shard, directories A and B, a writer appending to A. While A's
/// batch flushes, reads of B go on; reads of A wait for the publish.
#[test]
fn reads_wait_only_for_the_flush_of_their_own_directory() {
    // One flush on `paper()` disks is two accesses of ≈ 40 ms each.
    const INSIDE_A_FLUSH: Duration = Duration::from_millis(20);
    const WAITED_A_FLUSH: Duration = Duration::from_millis(40);

    let (mut sim, mut cluster, roots) = formed(802, 2);
    let (dir_a, dir_b) = (roots[0], roots[1]);
    let (setup, _) = cluster.client(&sim);
    let done = sim.spawn("setup", move |ctx| append(ctx, &setup, dir_b, "x"));
    sim.run_for(Duration::from_secs(1));
    assert_eq!(done.take(), Some(()));

    let (writer, _) = cluster.client(&sim);
    let (_, rpc, _) = cluster.client_machine(&sim);
    let readers: Vec<DirClient> = (0..3).map(|_| cluster.client(&sim).0).collect();
    let (ra, rb, rs) = (readers[0].clone(), readers[1].clone(), readers[2].clone());
    // The writer's append to A is ordered ≈ 25 ms in and flushes until
    // ≈ 105 ms; every read below is issued at 40 ms.
    let start = sim.now();
    let renewal = sim.spawn("cached-b", move |ctx| {
        let grant = fetch(ctx, &rpc, dir_b);
        ctx.sleep(Duration::from_millis(40) - (ctx.now() - start));
        (grant, timed(ctx, || fetch(ctx, &rpc, dir_b)))
    });
    let write = sim.spawn("writer-a", move |ctx| {
        ctx.sleep(Duration::from_millis(15));
        append(ctx, &writer, dir_a, "a");
    });
    let issue_at_40ms = move |ctx: &Ctx| ctx.sleep(Duration::from_millis(40));
    let of_b = sim.spawn("lookup-b", move |ctx| {
        issue_at_40ms(ctx);
        timed(ctx, || rb.lookup(ctx, dir_b, "x").unwrap())
    });
    let of_a = sim.spawn("lookup-a", move |ctx| {
        issue_at_40ms(ctx);
        timed(ctx, || ra.lookup(ctx, dir_a, "a").unwrap())
    });
    let of_both = sim.spawn("lookup-set", move |ctx| {
        issue_at_40ms(ctx);
        let items = vec![(dir_a, "a".to_owned()), (dir_b, "x".to_owned())];
        timed(ctx, || rs.lookup_set(ctx, items).unwrap())
    });
    sim.run_for(Duration::from_secs(3));
    assert_eq!(write.take(), Some(()));

    let (found, took) = of_b.take().expect("lookup of B returned");
    assert!(found.is_some());
    assert!(
        took < INSIDE_A_FLUSH,
        "B's lookup waited for A's flush: {took:?}"
    );

    let (found, took) = of_a.take().expect("lookup of A returned");
    assert!(found.is_some(), "A's lookup is placed after the append");
    assert!(
        took > WAITED_A_FLUSH,
        "A's lookup beat A's publish: {took:?}"
    );

    let (found, took) = of_both.take().expect("lookup set returned");
    assert!(found.iter().all(Option::is_some));
    assert!(
        took > WAITED_A_FLUSH,
        "a set naming A beat A's publish: {took:?}"
    );

    let (grant, (renewed, took)) = renewal.take().expect("renewal returned");
    assert!(matches!(grant, DirReply::Snapshot { renewed: false, .. }));
    assert!(
        matches!(renewed, DirReply::Snapshot { renewed: true, .. }),
        "served off the read path under the live lease: {renewed:?}"
    );
    assert!(
        took < INSIDE_A_FLUSH,
        "B's renewal waited for A's flush: {took:?}"
    );
}

/// Grants of directories A and B ordered, with a second append to A,
/// during the flush of a first append to A, so the loop applies the
/// three as one batch: each grant's reply and when it came, and when
/// the second append was acknowledged.
struct GrantsBehindAWrite {
    second_acked: SimTime,
    grant_a: (DirReply, SimTime),
    grant_b: (DirReply, SimTime),
}

fn grants_behind_a_write() -> GrantsBehindAWrite {
    let (mut sim, mut cluster, roots) = formed(803, 2);
    let (dir_a, dir_b) = (roots[0], roots[1]);
    let (setup, _) = cluster.client(&sim);
    let done = sim.spawn("setup", move |ctx| append(ctx, &setup, dir_b, "x"));
    sim.run_for(Duration::from_secs(1));
    assert_eq!(done.take(), Some(()));

    let (w1, _) = cluster.client(&sim);
    let (w2, _) = cluster.client(&sim);
    let (_, rpc_a, _) = cluster.client_machine(&sim);
    let (_, rpc_b, _) = cluster.client_machine(&sim);
    // `first` is ordered at once and flushes for ≈ 80 ms; `second` and
    // both grants are ordered during that flush, so the loop applies
    // them as the next batch once it is published.
    let first = sim.spawn("first", move |ctx| append(ctx, &w1, dir_a, "first"));
    let second = sim.spawn("second", move |ctx| {
        ctx.sleep(Duration::from_millis(30));
        append(ctx, &w2, dir_a, "second");
        ctx.now()
    });
    let grant = |rpc: RpcClient, dir| {
        move |ctx: &Ctx| {
            ctx.sleep(Duration::from_millis(35));
            let reply = fetch(ctx, &rpc, dir);
            (reply, ctx.now())
        }
    };
    let grant_a = sim.spawn("grant-a", grant(rpc_a, dir_a));
    let grant_b = sim.spawn("grant-b", grant(rpc_b, dir_b));
    sim.run_for(Duration::from_secs(3));
    assert_eq!(first.take(), Some(()));
    GrantsBehindAWrite {
        second_acked: second.take().expect("second acknowledged"),
        grant_a: grant_a.take().expect("A's grant answered"),
        grant_b: grant_b.take().expect("B's grant answered"),
    }
}

/// Most of one flush on `paper()` disks (two accesses of ≈ 40 ms each).
const MOST_OF_A_FLUSH: Duration = Duration::from_millis(40);

fn has_row(reply: &DirReply, name: &str) -> bool {
    match reply {
        DirReply::Snapshot { rows, .. } => rows.iter().any(|r| r.name == name),
        other => panic!("a grant answers with the rows: {other:?}"),
    }
}

/// A grant needs its place in the order, not durability: B's grant,
/// applied in the batch of an append to A, answers while that append
/// is still flushing.
#[test]
fn a_grant_queued_behind_another_directorys_write_answers_before_its_flush() {
    let run = grants_behind_a_write();
    let (reply, answered) = run.grant_b;
    assert!(has_row(&reply, "x"));
    assert!(
        answered + MOST_OF_A_FLUSH < run.second_acked,
        "B's grant waited for A's flush: answered {answered:?}, A's append acked {:?}",
        run.second_acked
    );
}

/// A's grant is applied in the batch that changed A: it waits for that
/// batch's flush, and its snapshot holds the row the batch wrote.
#[test]
fn a_grant_of_a_directory_the_batch_changed_waits_for_its_flush() {
    let run = grants_behind_a_write();
    let (reply, answered) = run.grant_a;
    assert!(has_row(&reply, "first") && has_row(&reply, "second"));
    let (_, b_answered) = run.grant_b;
    assert!(
        answered > b_answered + MOST_OF_A_FLUSH,
        "A's grant was answered before A's flush: {answered:?}, B's grant at {b_answered:?}"
    );
}
