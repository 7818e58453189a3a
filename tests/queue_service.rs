//! The replicated FIFO queue service in the cluster sim: the fourth
//! service on the `amoeba-rsm` driver, running its own group over the
//! shard-0 columns' kernels — here deliberately alongside a *sharded*
//! directory service, so one `GroupPeer` per machine carries several
//! groups at once.

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, ServiceSpec, Variant};
use amoeba_dirsvc::dir::{QueueError, QueueService, Rights};
use amoeba_dirsvc::sim::Simulation;

fn queue_cluster(seed: u64, shards: usize) -> (Simulation, Cluster) {
    let sim = Simulation::new(seed);
    let mut params = ClusterParams::sharded(Variant::Group, shards);
    params.services.push(ServiceSpec::of::<QueueService>());
    params.seed = seed;
    let cluster = Cluster::start(&sim, params);
    (sim, cluster)
}

#[test]
fn fifo_semantics_end_to_end() {
    let (mut sim, mut cluster) = queue_cluster(301, 1);
    let (client, _) = cluster.service_client::<QueueService>(&sim);
    let out = sim.spawn("app", move |ctx| {
        // Retry until the queue group has formed.
        loop {
            match client.enqueue(ctx, "jobs", b"a".to_vec()) {
                Ok(()) => break,
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        }
        client.enqueue(ctx, "jobs", b"b".to_vec()).unwrap();
        client.enqueue(ctx, "jobs", b"c".to_vec()).unwrap();
        // Peek does not consume; dequeues come back in order.
        assert_eq!(client.peek(ctx, "jobs").unwrap(), Some(b"a".to_vec()));
        assert_eq!(client.dequeue(ctx, "jobs").unwrap(), Some(b"a".to_vec()));
        assert_eq!(client.dequeue(ctx, "jobs").unwrap(), Some(b"b".to_vec()));
        assert_eq!(client.dequeue(ctx, "jobs").unwrap(), Some(b"c".to_vec()));
        assert_eq!(client.dequeue(ctx, "jobs").unwrap(), None);
        // Queues are independent.
        client.enqueue(ctx, "other", b"z".to_vec()).unwrap();
        assert_eq!(client.peek(ctx, "jobs").unwrap(), None);
        assert_eq!(client.peek(ctx, "other").unwrap(), Some(b"z".to_vec()));
        true
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(out.take(), Some(true));
}

#[test]
fn concurrent_consumers_get_each_element_exactly_once() {
    let (mut sim, mut cluster) = queue_cluster(307, 1);
    let (producer, _) = cluster.service_client::<QueueService>(&sim);
    let fill = sim.spawn("producer", move |ctx| {
        let mut ok = 0u32;
        for i in 0..20u8 {
            for _ in 0..50 {
                if producer.enqueue(ctx, "work", vec![i]).is_ok() {
                    ok += 1;
                    break;
                }
                ctx.sleep(Duration::from_millis(100));
            }
        }
        ok
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(fill.take(), Some(20));
    // Three consumers on separate machines race to drain; the group's
    // total order hands each element to exactly one of them.
    let mut outs = Vec::new();
    for c in 0..3 {
        let (consumer, _) = cluster.service_client::<QueueService>(&sim);
        outs.push(sim.spawn(&format!("consumer{c}"), move |ctx| {
            let mut got = Vec::new();
            loop {
                match consumer.dequeue(ctx, "work") {
                    Ok(Some(item)) => got.push(item[0]),
                    Ok(None) => return got,
                    Err(_) => ctx.sleep(Duration::from_millis(50)),
                }
            }
        }));
    }
    sim.run_for(Duration::from_secs(30));
    let mut all: Vec<u8> = outs
        .iter()
        .flat_map(|o| o.take().expect("consumer drained"))
        .collect();
    all.sort_unstable();
    assert_eq!(all, (0..20).collect::<Vec<u8>>(), "exactly-once handout");
}

#[test]
fn queue_survives_replica_crash_and_rejoin() {
    let (mut sim, mut cluster) = queue_cluster(311, 1);
    let (client, _) = cluster.service_client::<QueueService>(&sim);
    let c2 = client.clone();
    let pre = sim.spawn("pre", move |ctx| {
        for _ in 0..100 {
            if c2.enqueue(ctx, "q", b"before".to_vec()).is_ok() {
                return true;
            }
            ctx.sleep(Duration::from_millis(100));
        }
        false
    });
    sim.run_for(Duration::from_secs(15));
    assert_eq!(pre.take(), Some(true));

    cluster.crash_server(&sim, 1);
    let c3 = client.clone();
    let during = sim.spawn("during", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        // A volatile machine keeps serving through the surviving
        // majority.
        c3.enqueue(ctx, "q", b"during".to_vec()).is_ok()
            && c3.peek(ctx, "q") == Ok(Some(b"before".to_vec()))
    });
    sim.run_for(Duration::from_secs(15));
    assert_eq!(during.take(), Some(true));

    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(20));
    assert!(
        cluster.service::<QueueService>(1).is_normal(),
        "rebooted queue replica rejoined"
    );
    // The rebooted replica recovered the whole queue from a peer's
    // snapshot (it has no disk of its own).
    let replica = cluster.service::<QueueService>(1);
    let q = replica.machine().read(|queues| queues["q"].clone());
    assert_eq!(q.len(), 2);
    assert_eq!(q.front(), Some(&b"before".to_vec()));
}

#[test]
fn queue_and_sharded_directory_share_machines() {
    // Several groups per GroupPeer: the shard-0 machines carry the
    // shard-0 directory group AND the queue group; the shard-1
    // machines carry shard 1's. Everything serves concurrently.
    let (mut sim, mut cluster) = queue_cluster(313, 2);
    assert_eq!(cluster.columns.len(), 6);
    let (dir_client, _) = cluster.client(&sim);
    let (q_client, _) = cluster.service_client::<QueueService>(&sim);
    let out = sim.spawn("app", move |ctx| {
        let root = loop {
            match dir_client.create_dir(ctx, &["owner"]) {
                Ok(c) => break c,
                Err(_) => ctx.sleep(Duration::from_millis(100)),
            }
        };
        loop {
            match q_client.enqueue(ctx, "mixed", b"1".to_vec()) {
                Ok(()) => break,
                Err(QueueError::NoMajority) | Err(QueueError::Rpc(_)) => {
                    ctx.sleep(Duration::from_millis(100));
                }
                Err(e) => panic!("queue error: {e}"),
            }
        }
        dir_client
            .append_row(ctx, root, "row", root, vec![Rights::ALL])
            .unwrap();
        let r1 = dir_client.lookup(ctx, root, "row").unwrap().is_some();
        let r2 = q_client.dequeue(ctx, "mixed").unwrap() == Some(b"1".to_vec());
        r1 && r2
    });
    sim.run_for(Duration::from_secs(40));
    assert_eq!(out.take(), Some(true));
}
