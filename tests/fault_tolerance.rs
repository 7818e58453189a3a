//! Crash, reboot and recovery scenarios, including the exact §3.2 cases.

use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{Capability, CommitBlock, DirClient, Rights};
use amoeba_dirsvc::group::GroupStats;
use amoeba_dirsvc::sim::{Ctx, Simulation};

fn ready_root(ctx: &Ctx, client: &DirClient) -> Capability {
    loop {
        match client.create_dir(ctx, &["owner"]) {
            Ok(c) => return c,
            Err(_) => ctx.sleep(Duration::from_millis(100)),
        }
    }
}

fn form_cluster(seed: u64) -> (Simulation, Cluster, DirClient, Capability) {
    let mut sim = Simulation::new(seed);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let out = sim.spawn("form", move |ctx| ready_root(ctx, &c2));
    sim.run_for(Duration::from_secs(20));
    let root = out.take().expect("service formed");
    (sim, cluster, client, root)
}

#[test]
fn service_survives_one_crash_and_recovers_the_server() {
    let (mut sim, mut cluster, client, root) = form_cluster(41);
    // Write something before the crash.
    let c2 = client.clone();
    let pre = sim.spawn("pre", move |ctx| {
        c2.append_row(ctx, root, "before", root, vec![Rights::ALL])
            .is_ok()
    });
    sim.run_for(Duration::from_secs(5));
    assert_eq!(pre.take(), Some(true));

    cluster.crash_server(&sim, 2);
    let c3 = client.clone();
    let during = sim.spawn("during", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        // Majority (2 of 3) still serves reads and writes.
        let r1 = c3.lookup(ctx, root, "before").unwrap().is_some();
        let r2 = c3
            .append_row(ctx, root, "during", root, vec![Rights::ALL])
            .is_ok();
        (r1, r2)
    });
    sim.run_for(Duration::from_secs(15));
    assert_eq!(during.take(), Some((true, true)));

    // Reboot: the server recovers via Fig. 6 and catches up.
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(15));
    assert!(cluster.group_server(2).is_normal(), "server 2 recovered");
    assert_eq!(
        cluster.group_server(2).update_seq(),
        cluster.group_server(0).update_seq(),
        "recovered server caught up"
    );
}

#[test]
fn two_simultaneous_crashes_require_all_servers_back() {
    // Servers 1 and 2 crash at the same instant, so no surviving
    // configuration vector records either death. Under the strict Fig. 6
    // rule the last set stays {0,1,2}: bringing back only server 1 is NOT
    // enough (server 2 might hold the newest update); service resumes
    // only once every member of the last set is reachable.
    let (mut sim, mut cluster, client, root) = form_cluster(43);
    cluster.crash_server(&sim, 1);
    cluster.crash_server(&sim, 2);
    let c2 = client.clone();
    let minority = sim.spawn("minority", move |ctx| {
        // Let failure detection run first. Reads are refused too (paper
        // §3.1: a partitioned survivor could otherwise resurrect deleted
        // directories).
        ctx.sleep(Duration::from_secs(2));
        c2.lookup(ctx, root, "whatever")
    });
    sim.run_for(Duration::from_secs(20));
    let refused = minority.take().expect("minority lookup returned");
    assert!(
        refused.is_err(),
        "a lone server must refuse reads: {refused:?}"
    );

    // Server 1 returns: majority exists, but the strict last-set check
    // still blocks (server 2 may have performed the last update).
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(25));
    assert!(
        !cluster.group_server(0).is_normal(),
        "strict rule: {{0,1}} may not serve while 2's fate is unrecorded"
    );

    // Server 2 returns: the full last set is assembled; service resumes.
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(25));
    let c3 = client.clone();
    let resumed = sim.spawn("resumed", move |ctx| {
        for _ in 0..50 {
            if c3
                .append_row(ctx, root, "resumed", root, vec![Rights::ALL])
                .is_ok()
            {
                return true;
            }
            ctx.sleep(Duration::from_millis(200));
        }
        false
    });
    sim.run_for(Duration::from_secs(30));
    assert_eq!(
        resumed.take(),
        Some(true),
        "service resumed with full last set"
    );
}

#[test]
fn improved_rule_lets_a_stayed_up_server_recover_with_one_reboot() {
    // §3.2's improvement: server 0 never crashed, so it has every update
    // servers 1/2 could have performed; with the improved rule enabled it
    // may pair with a rebooted server instead of waiting for both.
    let mut sim = Simulation::new(45);
    let mut params = ClusterParams::paper(Variant::Group);
    params.dir.improved_recovery = true;
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let setup = sim.spawn("setup", move |ctx| {
        let root = ready_root(ctx, &c2);
        c2.append_row(ctx, root, "kept", root, vec![Rights::ALL])
            .unwrap();
        root
    });
    sim.run_for(Duration::from_secs(20));
    let root = setup.take().expect("formed");

    cluster.crash_server(&sim, 1);
    cluster.crash_server(&sim, 2);
    sim.run_for(Duration::from_secs(5));
    // Only server 1 returns; server 0 stayed up with the newest state.
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(30));
    assert!(
        cluster.group_server(0).is_normal(),
        "improved rule: stayed-up server 0 + rebooted server 1 may serve"
    );
    let c3 = client.clone();
    let check = sim.spawn("check", move |ctx| {
        c3.lookup(ctx, root, "kept").unwrap().is_some()
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(check.take(), Some(true), "no update was lost");
}

#[test]
fn section_3_2_scenario_one_and_two_may_not_recover_alone() {
    // Paper §3.2: servers 1,2,3 up; 3 crashes; then 1 and 2 crash.
    // When 1 and 3 come back (2 still down), they must NOT form a
    // service: 2 may have performed the last update.
    let (mut sim, mut cluster, client, root) = form_cluster(47);
    let c2 = client.clone();
    let w = sim.spawn("w", move |ctx| {
        c2.append_row(ctx, root, "x", root, vec![Rights::ALL])
            .is_ok()
    });
    sim.run_for(Duration::from_secs(5));
    assert_eq!(w.take(), Some(true));

    // Crash 3 (index 2); let 1,2 rebuild (config vector 110).
    cluster.crash_server(&sim, 2);
    sim.run_for(Duration::from_secs(5));
    // Crash 1 and 2 (indexes 0, 1).
    cluster.crash_server(&sim, 0);
    cluster.crash_server(&sim, 1);
    sim.run_for(Duration::from_secs(2));

    // Restart 0 and 2 only.
    cluster.restart_server(&sim, 0);
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(25));
    // Neither may enter normal operation: server 1 (who possibly performed
    // the last update) is in both last sets.
    assert!(
        !cluster.group_server(0).is_normal(),
        "server 0 must keep waiting for server 1"
    );
    assert!(
        !cluster.group_server(2).is_normal(),
        "server 2 must keep waiting for server 1"
    );
    // Client requests are refused meanwhile.
    let c3 = client.clone();
    let refused = sim.spawn("refused", move |ctx| c3.lookup(ctx, root, "x").is_err());
    sim.run_for(Duration::from_secs(10));
    assert_eq!(refused.take(), Some(true));

    // Server 1 returns: now recovery completes and data is intact.
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(30));
    assert!(cluster.group_server(0).is_normal());
    let c4 = client.clone();
    let intact = sim.spawn("intact", move |ctx| {
        c4.lookup(ctx, root, "x").unwrap().is_some()
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(intact.take(), Some(true), "the update survived");
}

#[test]
fn section_3_2_scenario_one_and_two_recover_without_three() {
    // Paper §3.2: 3 crashes first (vectors become 110), then 1 and 2
    // crash. When 1 and 2 come back, they know 3 crashed before them and
    // recover WITHOUT 3.
    let (mut sim, mut cluster, client, root) = form_cluster(53);
    let c2 = client.clone();
    let w = sim.spawn("w", move |ctx| {
        c2.append_row(ctx, root, "y", root, vec![Rights::ALL])
            .is_ok()
    });
    sim.run_for(Duration::from_secs(5));
    assert_eq!(w.take(), Some(true));

    cluster.crash_server(&sim, 2);
    // Give 0 and 1 time to reset and write config vectors (110).
    sim.run_for(Duration::from_secs(8));
    cluster.crash_server(&sim, 0);
    cluster.crash_server(&sim, 1);
    sim.run_for(Duration::from_secs(2));

    // Only 0 and 1 return; 2 stays down.
    cluster.restart_server(&sim, 0);
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(40));
    assert!(
        cluster.group_server(0).is_normal() && cluster.group_server(1).is_normal(),
        "servers 0 and 1 must recover without server 2"
    );
    let c3 = client.clone();
    let intact = sim.spawn("intact", move |ctx| {
        c3.lookup(ctx, root, "y").unwrap().is_some()
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(intact.take(), Some(true));
}

#[test]
fn updates_written_while_one_server_down_reach_it_after_recovery() {
    let (mut sim, mut cluster, client, root) = form_cluster(59);
    cluster.crash_server(&sim, 0);
    let c2 = client.clone();
    let w = sim.spawn("w", move |ctx| {
        ctx.sleep(Duration::from_secs(1));
        let mut ok = 0;
        for i in 0..5 {
            if c2
                .append_row(ctx, root, &format!("offline{i}"), root, vec![Rights::ALL])
                .is_ok()
            {
                ok += 1;
            }
        }
        ok
    });
    sim.run_for(Duration::from_secs(20));
    assert_eq!(w.take(), Some(5));
    cluster.restart_server(&sim, 0);
    sim.run_for(Duration::from_secs(20));
    assert!(cluster.group_server(0).is_normal());
    assert_eq!(
        cluster.group_server(0).update_seq(),
        cluster.group_server(1).update_seq(),
        "recovered replica must hold the offline-period updates"
    );
}

/// Majority loss with a stayed-up survivor, under the §3.2 improved
/// rule: the group re-forms as a **new instance** whose sequence numbers
/// restart. Replica 1 reboots first and re-forms it with replica 0; only
/// then does replica 2 come back. Every replica keeps its disk, so each
/// is among the most current and none copies a peer's state: each must
/// re-align its own applied cursor to the new instance, or it would
/// take the new instance's first operations for ones it had already
/// applied and silently skip them.
#[test]
fn new_instance_after_majority_loss_does_not_skip_operations() {
    let mut sim = Simulation::new(107);
    let mut params = ClusterParams::paper(Variant::Group);
    params.dir.improved_recovery = true;
    let mut cluster = Cluster::start(&sim, params);
    let (client, _) = cluster.client(&sim);
    let c2 = client.clone();
    let formed = sim.spawn("form", move |ctx| ready_root(ctx, &c2));
    sim.run_for(Duration::from_secs(20));
    let root = formed.take().expect("service formed");
    let names = |tag: &str, n| (0..n).map(|i| format!("{tag}{i}")).collect::<Vec<_>>();
    // Drive the applied cursor well past anything the new instance
    // will reach with its first few slots.
    append_all(&sim, &client, root, names("pre", 25));
    sim.run_for(Duration::from_secs(30));

    cluster.crash_server(&sim, 1);
    cluster.crash_server(&sim, 2);
    sim.run_for(Duration::from_secs(5));
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(60));
    assert!(cluster.group_server(0).is_normal(), "survivor not serving");
    assert!(cluster.group_server(1).is_normal(), "replica 1 not serving");
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(60));

    // Operations in the new instance (small sequence numbers) must
    // apply on every replica.
    append_all(&sim, &client, root, names("post", 5));
    sim.run_for(Duration::from_secs(30));
    let seq = cluster.group_server(0).update_seq();
    let all = [names("pre", 25), names("post", 5)].concat();
    for i in 0..3 {
        let server = cluster.group_server(i).clone();
        assert!(server.is_normal(), "replica {i} did not re-enter service");
        assert_eq!(server.update_seq(), seq, "replica {i} diverged");
        let rows = sim.spawn_on(cluster.columns[i].sim_node, "rows", move |ctx| {
            let dir = server.load_dir(ctx, root.object).expect("the root");
            dir.rows()
                .iter()
                .map(|r| r.name.to_string())
                .collect::<Vec<_>>()
        });
        sim.run_for(Duration::from_secs(1));
        assert_eq!(rows.take(), Some(all.clone()), "replica {i}'s rows");
    }
}

/// Appends `names` to `root`, retrying each until it is acknowledged.
fn append_all(sim: &Simulation, client: &DirClient, root: Capability, names: Vec<String>) {
    let client = client.clone();
    sim.spawn("writer", move |ctx| {
        for name in &names {
            while client
                .append_row(ctx, root, name, root, vec![Rights::ALL])
                .is_err()
            {
                ctx.sleep(Duration::from_millis(100));
            }
        }
    });
}

/// Column `i`'s commit block as its platters hold it.
fn commit_block_on_disk(cluster: &Cluster, i: usize) -> CommitBlock {
    let block = cluster.columns[i].vdisk.read_block(0);
    CommitBlock::decode(&block, 3).expect("a commit block")
}

/// A head crash: a replica whose disk is destroyed recovers by copying
/// the whole state from a peer. Crashed again, it must boot that copy
/// from its own disk: with both peers cut off, its disk alone holds
/// every acknowledged write, and once the peers come back with wiped
/// disks, the service serves them all from it.
#[test]
fn a_head_crashed_replica_keeps_the_state_it_copied_on_its_own_disk() {
    let (mut sim, mut cluster, client, root) = form_cluster(67);
    let names = |tag: &str| (0..5).map(|i| format!("{tag}{i}")).collect::<Vec<_>>();
    append_all(&sim, &client, root, names("pre"));
    sim.run_for(Duration::from_secs(10));

    cluster.destroy_server_disk(&sim, 2);
    sim.run_for(Duration::from_secs(2));
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(20));
    assert!(cluster.group_server(2).is_normal(), "server 2 recovered");
    // Its platters were blank: the state it holds is a copy.
    assert_eq!(
        cluster.group_server(2).update_seq(),
        cluster.group_server(0).update_seq(),
        "server 2 copied the whole state"
    );
    let cb = commit_block_on_disk(&cluster, 2);
    assert!(!cb.recovering && cb.epoch > 0, "copy mark cleared: {cb:?}");

    append_all(&sim, &client, root, names("post"));
    sim.run_for(Duration::from_secs(10));
    let acked = cluster.group_server(0).update_seq();
    assert_eq!(cluster.group_server(2).update_seq(), acked);

    // Crash it again, this time keeping its disk, and cut its peers off:
    // it boots from its own platters and cannot copy from anyone.
    cluster.crash_server(&sim, 2);
    sim.run_for(Duration::from_secs(2));
    let peers = [cluster.columns[0].host, cluster.columns[1].host];
    cluster.net.set_partition(&[&peers]);
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(10));
    assert!(!cluster.group_server(2).is_normal(), "alone, no majority");
    assert_eq!(
        cluster.group_server(2).update_seq(),
        acked,
        "its own disk holds every acknowledged write"
    );
    let cb = commit_block_on_disk(&cluster, 2);
    assert!(
        !cb.recovering && cb.epoch > 0,
        "no copy in progress: {cb:?}"
    );

    // The peers come back with wiped disks: server 2's disk is the only
    // copy left, and every acknowledged row is served from it.
    for i in [0, 1] {
        cluster.destroy_server_disk(&sim, i);
    }
    sim.run_for(Duration::from_secs(2));
    cluster.heal();
    for i in [0, 1] {
        cluster.restart_server(&sim, i);
    }
    sim.run_for(Duration::from_secs(30));
    assert!((0..3).all(|i| cluster.group_server(i).is_normal()));
    let c2 = client.clone();
    let all = [names("pre"), names("post")].concat();
    let found = sim.spawn("check", move |ctx| {
        all.iter()
            .filter(|name| matches!(c2.lookup(ctx, root, name), Ok(Some(_))))
            .count()
    });
    sim.run_for(Duration::from_secs(10));
    assert_eq!(found.take(), Some(10), "an acknowledged row was lost");
}

/// Under a steady writer on `paper()`, crashes column `victim` (or
/// nothing), then has a fresh client append once: how long after the
/// crash that append was acknowledged, with the survivors' group
/// counters.
fn first_update_after_a_crash(victim: Option<usize>) -> (Duration, Vec<GroupStats>) {
    let (mut sim, mut cluster, client, root) = form_cluster(41);
    // The writer keeps the disks as busy as a loaded service's.
    sim.spawn("writer", move |ctx| {
        for i in 0.. {
            let _ = client.append_row(ctx, root, &format!("w{i}"), root, vec![Rights::ALL]);
        }
    });
    sim.run_for(Duration::from_secs(2));
    if let Some(victim) = victim {
        cluster.crash_server(&sim, victim);
    }
    let crashed_at = sim.now();
    // A client that locates the service after the crash finds only the
    // survivors, so its append waits for the reset and not for an RPC
    // timeout.
    let (fresh, _) = cluster.client(&sim);
    let first = sim.spawn("first", move |ctx| {
        fresh
            .append_row(ctx, root, "first", root, vec![Rights::ALL])
            .expect("the survivors commit");
        ctx.now().saturating_since(crashed_at)
    });
    sim.run_for(Duration::from_secs(3));
    let stats = (0..3)
        .filter(|&i| Some(i) != victim)
        .map(|i| {
            cluster
                .group_server(i)
                .group_stats()
                .expect("in normal operation")
        })
        .collect();
    (first.take().expect("the append finished"), stats)
}

/// One crash costs failure detection and a reset round trip, not the
/// reset's vote window: the crashed server is named dead by whoever
/// detected it, so the coordinator announces when the last survivor
/// votes. Replica 0 founds the group, so column 2 is a member and column
/// 0 the sequencer. The append after a sequencer crash is sequenced only
/// in the new view, so the bound is on the delay the crash adds to it.
#[test]
fn one_crash_costs_failure_detection_and_no_vote_window() {
    let failure_timeout = ClusterParams::paper(Variant::Group).group.failure_timeout;
    let (unhurried, _) = first_update_after_a_crash(None);
    for victim in [2, 0] {
        let (commit, survivors) = first_update_after_a_crash(Some(victim));
        for stats in &survivors {
            assert_eq!(stats.resets, 1, "victim {victim}: {stats:?}");
            assert_eq!(stats.resets_at_deadline, 0, "victim {victim}: {stats:?}");
        }
        assert!(
            commit <= unhurried + failure_timeout + Duration::from_millis(100),
            "victim {victim}: the first update committed {commit:?} after the crash, \
             {unhurried:?} without one"
        );
    }
}

/// A client whose cached server crashes finds it silent by enquiry, not
/// by timing the call out: two unanswered enquiries drop the server 320
/// ms after the send, and the lookup re-sent to a survivor finishes
/// within 450 ms. Waiting out the 500 ms reply timeout took longer.
/// Each replica in turn is the victim, so one run crashes the server the
/// client has cached.
#[test]
fn a_lookup_at_a_crashed_cached_server_moves_on_within_450_ms() {
    let took: Vec<Duration> = (0..3)
        .map(|victim| {
            let (mut sim, cluster, client, root) = form_cluster(41);
            let warm = client.clone();
            let warm = sim.spawn("warm", move |ctx| warm.lookup(ctx, root, "x").is_ok());
            sim.run_for(Duration::from_secs(1));
            assert_eq!(warm.take(), Some(true));
            cluster.crash_server(&sim, victim);
            let lookup = sim.spawn("lookup", move |ctx| {
                let start = ctx.now();
                client.lookup(ctx, root, "x").expect("the survivors answer");
                ctx.now().saturating_since(start)
            });
            sim.run_for(Duration::from_secs(3));
            lookup.take().expect("the lookup finished")
        })
        .collect();
    let slowest = *took.iter().max().unwrap();
    assert!(
        slowest >= Duration::from_millis(320),
        "no victim was the cached server: {took:?}"
    );
    assert!(slowest < Duration::from_millis(450), "{took:?}");
}
