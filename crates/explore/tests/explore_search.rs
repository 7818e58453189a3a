//! Cluster-level record/replay and search tests: same-seed runs record
//! identical traces, a recorded failure replays to the same outcome,
//! and the shrinker's output still fails without growing.

use amoeba_explore::scenario::{run_scenario, RunMode, ScenarioParams};
use amoeba_explore::schedule::{FaultKind, FaultSchedule, Injection};
use amoeba_explore::search::{fails, find_seeded_bug, record_and_verify, shrink};
use amoeba_sim::{fault_codes, StepTag};

/// The loss window that resurrects the historical gap-recovery stall
/// (mirrors the `explore ci-smoke` known-bug schedule): the tail of the
/// write phase under packet loss, so a member can miss the *final*
/// accepts of the run.
fn loss_tail() -> Injection {
    Injection {
        at_ms: 8_000,
        dur_ms: 5_000,
        kind: FaultKind::Degrade {
            loss_pm: 300,
            dup_pm: 0,
            jitter_pm: 0,
        },
    }
}

/// A benign duplication window, then the loss tail: the schedule the
/// seeded-bug pipeline below shrinks.
fn known_bug_schedule() -> FaultSchedule {
    FaultSchedule::new(vec![
        Injection {
            at_ms: 5_500,
            dur_ms: 800,
            kind: FaultKind::Degrade {
                loss_pm: 0,
                dup_pm: 200,
                jitter_pm: 0,
            },
        },
        loss_tail(),
    ])
}

/// Liveness of the RPC client's enquiry on a whole deployment. A replica
/// can stall after a faulted run with its published cursor behind the
/// group (ROADMAP item 2): a read it takes waits in `read_barrier` for
/// good, and its kernel answers every enquiry about that read with
/// `Working`. The client must still finish, because an attempt ends two
/// reply timeouts after its send whatever the answers; this seed and schedule
/// are where such a stall was first seen. `rpc_behavior.rs` pins the
/// bound itself.
#[test]
fn fixed_service_finishes_the_known_bug_schedule_at_seed_3() {
    let report = run_scenario(
        &ScenarioParams::small(3),
        &known_bug_schedule(),
        RunMode::Fast,
    );
    assert!(!report.failed(), "{}", report.summary());
    assert!(report.acked_writes > 0, "workload must not be vacuous");
}

#[test]
fn same_seed_scenario_records_identical_traces() {
    let params = ScenarioParams::small(3);
    let schedule = FaultSchedule::new(vec![
        Injection {
            at_ms: 6_000,
            dur_ms: 1_500,
            kind: FaultKind::Crash { column: 1 },
        },
        loss_tail(),
    ]);
    let a = run_scenario(&params, &schedule, RunMode::Record);
    let b = run_scenario(&params, &schedule, RunMode::Record);
    let ta = a.trace.expect("record mode returns a trace");
    let tb = b.trace.expect("record mode returns a trace");
    assert_eq!(
        ta.to_bytes(),
        tb.to_bytes(),
        "same seed + same schedule must record byte-identical traces"
    );
    // The trace is self-describing about what was done to the run: the
    // injected crash, its reboot, and the degrade-window parameter
    // changes all appear as fault steps.
    let fault_as: Vec<u64> = ta
        .steps
        .iter()
        .filter(|s| s.tag == StepTag::Fault)
        .map(|s| s.a)
        .collect();
    assert!(
        fault_as.contains(&fault_codes::CRASH_NODE),
        "crash recorded"
    );
    assert!(
        fault_as.contains(&fault_codes::REVIVE_NODE),
        "reboot recorded"
    );
    assert!(
        fault_as.contains(&fault_codes::NET_PARAMS),
        "degrade window recorded"
    );
}

#[test]
fn clean_recorded_run_replays_without_divergence() {
    let params = ScenarioParams::small(5);
    let recorded = run_scenario(&params, &FaultSchedule::none(), RunMode::Record);
    assert!(
        !recorded.failed(),
        "fault-free run is clean: {}",
        recorded.summary()
    );
    assert!(recorded.acked_writes > 0, "workload must not be vacuous");
    let trace = recorded.trace.expect("record mode returns a trace");
    let replayed = run_scenario(&params, &FaultSchedule::none(), RunMode::Replay(trace));
    assert!(
        !replayed.failed(),
        "verify-mode replay of a clean run stays clean: {}",
        replayed.summary()
    );
}

/// The full pipeline over the seeded historical bug: a bounded seed
/// scan finds a failing run, the shrinker keeps it failing without
/// growing it, and the recorded failure replays to the same outcome.
#[test]
fn seeded_bug_found_shrunk_and_replay_verified() {
    // A two-injection schedule: one benign duplication window plus the
    // loss tail that triggers the stall — the shrinker has something to
    // consider dropping.
    let schedule = known_bug_schedule();
    // The stall needs the loss draws to land on the final sequenced op
    // without tripping the failure detector (whose recovery pass would
    // repair the member), so scan the seed space like `ci-smoke` does.
    let (params, _) = find_seeded_bug(&schedule, 0..64)
        .expect("seed scan finds the seeded historical bug within 64 seeds");

    let minimal = shrink(&params, &schedule);
    assert!(
        minimal.len() <= schedule.len(),
        "shrinker never grows a schedule"
    );
    assert!(!minimal.is_empty(), "shrinker keeps at least one injection");
    assert!(fails(&params, &minimal), "shrunk schedule still fails");

    let (recorded, replay_ok) = record_and_verify(&params, &minimal);
    assert!(recorded.failed(), "failure reproduces under recording");
    assert!(
        recorded.trace.is_some(),
        "recording a failing run still yields its trace"
    );
    assert!(
        replay_ok,
        "replay reproduces the recorded outcome without divergence"
    );

    // The bug lives in the re-introduced knob, not the product: the
    // same minimal schedule over the fixed service passes.
    let mut fixed = params.clone();
    fixed.buggy_retrans_bound = false;
    assert!(
        !fails(&fixed, &minimal),
        "fixed service survives the minimal schedule"
    );
}
