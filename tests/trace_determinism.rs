//! Decision traces of whole deployments: a golden digest captured on the
//! commit before the simulator kernel changed hands (so "checkpoint order
//! unchanged" is checked, not assumed), and a second one of the same run
//! on a lossy network.

use std::collections::HashSet;
use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::dir::{Capability, DirClient, Rights};
use amoeba_dirsvc::flip::NetParams;
use amoeba_dirsvc::sim::{Ctx, SimTrace, Simulation, StepTag};

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

/// `paper()` directory service on `net`, one crash + reboot under a
/// small write load; `settled` looks at the cluster at the end.
/// Directory-only, so it repeats bit for bit on any machine.
fn record_crash_reboot(net: NetParams, settled: impl FnOnce(&Cluster)) -> SimTrace {
    let mut sim = Simulation::recording(0xD1CE);
    let mut cluster = Cluster::start(
        &sim,
        ClusterParams {
            net,
            ..ClusterParams::paper(Variant::Group)
        },
    );
    let (client, _) = cluster.client(&sim);
    spawn_writer(&sim, client, 40);
    sim.run_for(Duration::from_secs(8));
    cluster.crash_server(&sim, 2);
    sim.run_for(Duration::from_secs(6));
    cluster.restart_server(&sim, 2);
    sim.run_for(Duration::from_secs(16));
    settled(&cluster);
    sim.take_recording().expect("recording was enabled")
}

/// The crash/reboot run on `paper()`'s loss-free network.
fn record_directory_crash_reboot() -> SimTrace {
    record_crash_reboot(ClusterParams::paper(Variant::Group).net, |cluster| {
        assert!(cluster.group_server(2).is_normal(), "server 2 recovered");
        assert_eq!(
            cluster.group_server(2).update_seq(),
            cluster.group_server(0).update_seq()
        );
    })
}

/// What the processes saw that were processes before RPC port dispatch,
/// group packet dispatch and the group ticker became kernel handlers:
/// every `Resume` and `Yield` step (time, pid, reason or kind, RNG digest)
/// of a process not named `rpc-dispatch@*`, `grp-dispatch@*` or
/// `grp-tick@*`. Those three are gone now, so this is every such step.
fn projected(trace: &SimTrace) -> (usize, u64) {
    let kernel_names: HashSet<u64> = (0..256u32)
        .flat_map(|h| {
            ["rpc-dispatch", "grp-dispatch", "grp-tick"]
                .map(|p| fnv1a(format!("{p}@host:{h}").as_bytes()))
        })
        .collect();
    let kernel_pids: HashSet<u64> = trace
        .steps
        .iter()
        .filter(|s| s.tag == StepTag::Spawn && kernel_names.contains(&s.c))
        .map(|s| s.a)
        .collect();
    let mut bytes = Vec::new();
    let mut steps = 0;
    for s in &trace.steps {
        if matches!(s.tag, StepTag::Resume | StepTag::Yield) && !kernel_pids.contains(&s.a) {
            steps += 1;
            bytes.extend_from_slice(&s.time_ns.to_le_bytes());
            bytes.push(s.tag as u8);
            for v in [s.a, s.b, s.c] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    (steps, fnv1a(&bytes))
}

#[test]
fn directory_crash_reboot_trace_matches_the_golden_digest() {
    let trace = record_directory_crash_reboot();
    assert_eq!(
        projected(&trace),
        (PROJECTED_STEPS, PROJECTED_DIGEST),
        "some process was resumed, or yielded, at another time, for \
         another reason or after other RNG draws than before the handlers"
    );
    assert_eq!(
        (trace.steps.len(), fnv1a(&trace.to_bytes())),
        (GOLDEN_STEPS, GOLDEN_DIGEST),
        "the kernel's decision order changed"
    );
}

/// Simulations share nothing across threads: recorded on two OS threads
/// at once, each run still yields the golden trace.
#[test]
fn two_threads_record_the_golden_trace_at_once() {
    let start = std::sync::Barrier::new(2);
    let digests = std::thread::scope(|s| {
        let runs = [(); 2].map(|()| {
            s.spawn(|| {
                start.wait();
                record_directory_crash_reboot()
            })
        });
        runs.map(|run| {
            let trace = run.join().expect("a recording thread panicked");
            (trace.steps.len(), fnv1a(&trace.to_bytes()))
        })
    });
    assert_eq!(digests, [(GOLDEN_STEPS, GOLDEN_DIGEST); 2]);
}

/// Captured on the commit before the handlers (PR 13), where the full
/// trace had 26,449 steps and digest 10379442515077094120.
///
/// Re-pinned, with the full trace's pair below, when the group sequencer
/// stopped answering a retried send request with `Done` before `r + 1`
/// members held the message (was 4,168 steps, digest
/// 7,959,870,571,809,880,628). In this run a send that the crashed server
/// never acked used to complete on its retry; it now completes when the
/// reset that expels that server re-drives it, so the writer that made
/// it resumes later.
///
/// Re-pinned, with the full trace's pair below, when a reset coordinator
/// began announcing the new view once every member of the old view had
/// voted or been named dead, instead of waiting out the vote window for
/// the crashed server's vote (was 4,150 steps, digest
/// 8,743,334,673,892,708,681). The survivors install their reset about
/// 150 ms sooner after the crash, so the writer's held append commits
/// sooner and the steps after it move.
///
/// Re-pinned, with the full trace's pair and the lossy one, when the
/// simulator began queuing only events that do work (was 4,152 steps,
/// digest 4,746,067,278,410,982,642): fewer kernel events; no simulated
/// byte moved. An in-place replica's driver no longer wakes every
/// 200 ms to call an idle hook that does nothing, so the 349 `TimedOut`
/// resumes of `rsm#-main` and their yields are gone; with them taken
/// out of both traces, every other `Resume` and `Yield` step of this run
/// and of the lossy one is the parent's, time, reason and RNG digest.
///
/// Re-pinned, with the full trace's pair and the lossy one, when an RPC
/// call began enquiring after 200 ms without word instead of at
/// `reply_timeout` minus the enquiry window (was 3,454 steps, digest
/// 15,646,180,335,156,398,247). The writer's append held across the
/// crash's reset now sends one enquiry, 200 ms after its send, and the
/// server's `Working` answer resumes the writer once more; every call of
/// this run that was answered in time also arms its first timer at
/// 200 ms instead of 440 ms.
///
/// Re-pinned, with the full trace's pair and the lossy one, when the
/// recovery exchange request became a bare tag (18 bytes → 1) and its
/// reply lost its stayed-up flag (13 → 12), with §3.2's improved rule
/// (was digest 4,912,768,744,465,293,746). The rebooted replica's
/// exchanges spend less time on the wire, so the steps after them come
/// at other times; the step count did not move.
const PROJECTED_STEPS: usize = 3_458;
const PROJECTED_DIGEST: u64 = 12_722_629_694_644_045_128;
/// Was 13,286 steps, then 13,255, then 13,258, then 11,768; see
/// [`PROJECTED_STEPS`]. The 11,768 re-pin dropped the events that woke
/// no one: a deadline popped after a message had ended its wait, and a
/// locate delivered to a host that serves nothing.
const GOLDEN_STEPS: usize = 11_776;
/// Re-pinned when the RPC client began enquiring before it resends (was
/// 4,760,539,658,903,339,064). Each call then armed its first reply
/// timer at `reply_timeout` minus the enquiry window rather than at
/// `reply_timeout`, so the timer events of calls that were answered in
/// time popped earlier.
///
/// Re-pinned again with [`PROJECTED_STEPS`] (was
/// 14,594,688,794,652,905,712), and once more when resets stopped
/// waiting for a named-dead member's vote (was
/// 10,762,298,347,057,130,184), and with it when the simulator began
/// queuing only events that do work (was
/// 15,247,291,622,176,040,441): fewer kernel events; no simulated byte
/// moved. Re-pinned with [`PROJECTED_STEPS`] when enquiries began at
/// 200 ms (was 6,137,550,164,587,800,067), and when the recovery
/// exchange shrank (was 17,885,958,924,965,463,116).
const GOLDEN_DIGEST: u64 = 10_328_074_225_942_903_037;

/// The same crash/reboot run on a network that loses 3 % of packets and
/// duplicates 5 % (the lossy values of `tests/group_window.rs`), so the
/// group's retransmission, retry and reset traffic under loss is pinned
/// too. It asserts nothing about how the run ends: the recovery bugs of
/// ROADMAP item 2(b)–(d) may show in it, and the golden records them as
/// they are.
#[test]
fn lossy_crash_reboot_trace_matches_the_golden_digest() {
    let net = NetParams {
        loss_probability: 0.03,
        duplicate_probability: 0.05,
        ..ClusterParams::paper(Variant::Group).net
    };
    let trace = record_crash_reboot(net, |_| {});
    assert_eq!(
        (trace.steps.len(), fnv1a(&trace.to_bytes())),
        (LOSSY_STEPS, LOSSY_DIGEST),
        "the kernel's decision order changed under loss"
    );
}

/// Captured before the group engine was split into role files.
///
/// Re-pinned when a reset coordinator began announcing once every member
/// of the old view had voted or been named dead (was 17,299 steps,
/// digest 4,498,209,241,091,819,750): the resets after the crash no
/// longer wait out the vote window, so the run's later traffic, and the
/// loss draws it meets, moved.
///
/// Re-pinned when the simulator began queuing only events that do work
/// (was 16,465 steps, digest 906,624,672,287,824,855): fewer kernel
/// events; no simulated byte moved (see [`PROJECTED_STEPS`]).
///
/// Re-pinned when an RPC call began enquiring after 200 ms without word
/// (was 15,278 steps, digest 16,432,521,508,454,427,410): calls held
/// across a reset or a lost packet enquire sooner, so the run's traffic,
/// and the loss draws it meets, moved.
///
/// Re-pinned when the recovery exchange shrank to a bare request tag and
/// a reply without the stayed-up flag (was digest
/// 1,048,963,910,754,802,901; see [`PROJECTED_STEPS`]): the exchanges'
/// shorter wire times move the steps after them, at the same count.
const LOSSY_STEPS: usize = 15_685;
const LOSSY_DIGEST: u64 = 11_624_123_775_965_372_356;
